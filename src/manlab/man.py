"""Closed-form evaluation of mutual averaged non-commutativity.

All routes compute the same quantity S(A:B) = Haar-averaged squared commutator
norm between unitaries of the two algebras, normalized to [0, 1]:

* ``man_omega``        - 1 - Tr(S Omega_A Omega_B)/d, block by block in O(d^3);
  ``omega_operator`` builds the d^2 x d^2 Omega explicitly as the cross-check
* ``man_projection``   - 1 - sum_a ||P_B'(e_a)||^2 / d over A's block basis
* ``man_collinear``    - 1 - Tr_HS(P_A P_B')/d(A), A collinear only; the
  overlap comes block by block in O(d^3), from the same per-pair core as
  man_omega's trace under another weight
* ``entropy_decomposition_man`` - average linear-entropy production of the
  per-block compression maps of B under P_A'
* ``self_man``         - structural formula for S(A:A)

The logarithmic variant is S2 = -log(1 - S); base 2 unless stated otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .algebras import (
    OperatorAlgebra,
    algebra_intersection,
    interleaved_block_swap,
    is_collinear,
)
from .errors import AlgebraError, NonCollinearError, NumericalConsistencyError
from .linalg import dagger, swap_perm, vec

CLAMP_MARGIN = 1e-9
FORMULA_TOL = 1e-9

__all__ = [
    "CLAMP_MARGIN",
    "ManReport",
    "OmegaOperator",
    "QuantumnessReport",
    "StructuralSummary",
    "a_otoc",
    "clamp_unit",
    "entropy_decomposition_man",
    "lattice_man",
    "log_man",
    "man_bounds",
    "man_collinear",
    "man_omega",
    "man_projection",
    "masa_man",
    "omega_operator",
    "orbit_averaged_man",
    "quantumness",
    "self_man",
]


def clamp_unit(x: float, margin: float = CLAMP_MARGIN) -> float:
    """Snap rounding excursions outside [0, 1] back; larger ones are bugs."""
    if -margin <= x < 0.0:
        return 0.0
    if 1.0 < x <= 1.0 + margin:
        return 1.0
    if x < -margin or x > 1.0 + margin:
        raise NumericalConsistencyError(f"value {x!r} outside [0,1] beyond margin {margin}")
    return float(x)


def log_man(s: float, base: float = 2.0) -> float:
    """S2 = -log(1 - S); +inf sentinel at S = 1."""
    if s >= 1.0:
        return math.inf
    return -math.log1p(-s) / math.log(base) + 0.0


@dataclass(frozen=True)
class StructuralSummary:
    d: int
    d_alg: int
    d_comm: int
    d_Z: int
    n: tuple[int, ...]
    d_blocks: tuple[int, ...]
    collinear: bool
    ratio: Optional[float]

    @classmethod
    def from_algebra(cls, alg: OperatorAlgebra) -> "StructuralSummary":
        dec = alg.decomposition()
        coll, ratio = is_collinear(dec)
        return cls(
            d=alg.d,
            d_alg=dec.algebra_dim,
            d_comm=dec.commutant_dim,
            d_Z=dec.d_Z,
            n=dec.n_vec,
            d_blocks=dec.d_vec,
            collinear=coll,
            ratio=ratio,
        )

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "d_alg": self.d_alg,
            "d_comm": self.d_comm,
            "d_Z": self.d_Z,
            "n": list(self.n),
            "d_blocks": list(self.d_blocks),
            "collinear": self.collinear,
            "ratio": self.ratio,
        }


@dataclass(frozen=True)
class ManReport:
    S: float
    S2: float
    method: str
    bounds: dict[str, float]
    inputs: dict[str, StructuralSummary]
    log_base: float = 2.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        for name, bound in self.bounds.items():
            if self.S > bound + CLAMP_MARGIN:
                raise NumericalConsistencyError(
                    f"S = {self.S} exceeds {name} = {bound}"
                )
        expected = log_man(self.S, self.log_base)
        if math.isfinite(expected) and abs(self.S2 - expected) > FORMULA_TOL:
            raise NumericalConsistencyError(
                f"S2 = {self.S2} inconsistent with -log(1-S) = {expected}"
            )

    def to_dict(self) -> dict:
        return {
            "S": self.S,
            "S2": self.S2,
            "method": self.method,
            "bounds": dict(self.bounds),
            "inputs": {k: v.to_dict() for k, v in self.inputs.items()},
            "log_base": self.log_base,
            "extras": dict(self.extras),
        }


@dataclass(frozen=True)
class OmegaOperator:
    """Omega_A = E_{U in A}[U (x) U^dag] = sum_a e_a (x) e_a^dag."""

    matrix: np.ndarray
    d: int

    def swap_trace(self) -> float:
        """Tr(S Omega) = d for any unital hermitian-closed algebra."""
        return float(np.real(np.trace(self.matrix[swap_perm(self.d)])))

    def trace(self) -> float:
        """Tr(Omega) = d(A')."""
        return float(np.real(np.trace(self.matrix)))


def omega_operator(alg: OperatorAlgebra, method: str = "blocks") -> OmegaOperator:
    """Build the d^2 x d^2 Omega_A explicitly: the oracle for man_omega's block trace.

    ``blocks`` conjugates 1_n^(x2) (x) S_{d_J} into place per central block;
    ``bases`` sums e_a (x) e_a^dag directly.  The two agree to 1e-10 and the
    block route is the cheaper one.
    """
    if method not in ("blocks", "bases"):
        raise ValueError(f"unknown omega construction {method!r}")
    d = alg.d
    omega = np.zeros((d * d, d * d), dtype=complex)
    if method == "blocks":
        for b in alg.decomposition().blocks:
            iso2 = np.kron(b.isometry, b.isometry)
            core = interleaved_block_swap(b.n, b.d)
            omega += iso2 @ core @ dagger(iso2) / b.d
    else:
        for e in alg.block_bases().e:
            omega += np.kron(e, dagger(e))
    return OmegaOperator(omega, d)


def _block_pair_cores(blocks_a, blocks_b):
    """||N_JK^dag N_JK||_F^2 for every block J of A and K of B, with the block sizes.

    Yields (n_J, d_J, n_K, d_K, core) for A's blocks (V_J) and B's (W_K);
    N_JK is the (n_K d_J) x (d_K n_J) regrouping of W_K^dag V_J, read as
    (n_K, d_K, n_J, d_J), and the smaller of its two Grams is formed, so no
    object exceeds d x d.  Isometries may carry leading batch axes (a stack
    of B's, say); the cores then have the same leading axes.
    """
    for n_j, d_j, v in blocks_a:
        for n_k, d_k, w in blocks_b:
            m = dagger(w) @ v
            lead = m.shape[:-2]
            m = m.reshape(*lead, n_k, d_k, n_j, d_j)
            nm = np.moveaxis(m, -1, -3).reshape(*lead, n_k * d_j, d_k * n_j)
            gram = nm @ dagger(nm) if nm.shape[-2] <= nm.shape[-1] else dagger(nm) @ nm
            yield n_j, d_j, n_k, d_k, np.sum(np.abs(gram) ** 2, axis=(-2, -1))


def _block_swap_trace(blocks_a, blocks_b):
    """Tr(S Omega_A Omega_B) from the (n, d, isometry) blocks of A and B, in O(d^3).

    Each block pair adds its core with weight 1/(d_J d_K).
    """
    return sum(c / (d_j * d_k) for _, d_j, _, d_k, c in _block_pair_cores(blocks_a, blocks_b))


def _projection_overlap(
    a: OperatorAlgebra, b: Optional[OperatorAlgebra] = None
) -> tuple[float, int]:
    """(Tr_HS(P_A P_T), dim T) from block data alone: T = B', or T = Z(A) with b omitted.

    B' reads M_{n_K} (x) 1_{d_K} on B's own blocks, and each block pair adds
    its core with weight 1/(n_J d_K).  Z(A) lies in A, so Tr(P_A P_Z) = dim Z
    = d_Z and no kernel runs.
    """
    if b is None:
        d_z = a.decomposition().d_Z
        return float(d_z), d_z
    cores = _block_pair_cores(_iso_blocks(a), _iso_blocks(b))
    overlap = float(sum(c / (n_j * d_k) for n_j, _, _, d_k, c in cores))
    return overlap, b.decomposition().commutant_dim


def _iso_blocks(alg: OperatorAlgebra) -> list[tuple[int, int, np.ndarray]]:
    return [(b.n, b.d, b.isometry) for b in alg.decomposition().blocks]


def _pair_bounds(d, summary_a, summary_b, intersection_dim=None, a_collinear=False):
    bounds = {
        "commutant_bound": 1.0 - max(summary_a.d_comm, summary_b.d_comm) / d**2,
        "weak_bound": 1.0 - 1.0 / min(summary_a.d_alg, summary_b.d_alg),
    }
    if intersection_dim is not None and a_collinear:
        bounds["intersection_bound"] = 1.0 - intersection_dim / summary_a.d_alg
    return bounds


def _check_same_ambient(a: OperatorAlgebra, b: OperatorAlgebra) -> None:
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")


def man_omega(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN through the omega operators: S = 1 - Tr(S Omega_A Omega_B)/d."""
    _check_same_ambient(a, b)
    sa = StructuralSummary.from_algebra(a)
    sb = StructuralSummary.from_algebra(b)
    raw = 1.0 - float(_block_swap_trace(_iso_blocks(a), _iso_blocks(b))) / a.d
    s = clamp_unit(raw)
    return ManReport(
        S=s,
        S2=log_man(s, log_base),
        method="man.omega",
        bounds=_pair_bounds(a.d, sa, sb),
        inputs={"A": sa, "B": sb},
        log_base=log_base,
    )


def man_projection(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN through the conditional expectation onto B'.

    Sums ||P_B'(e_a)||^2 over A's block basis; P_B' is built from the
    orthonormal basis of the commutant, which comes from B's blocks.
    """
    _check_same_ambient(a, b)
    sa = StructuralSummary.from_algebra(a)
    sb = StructuralSummary.from_algebra(b)
    b_comm = b.commutant_algebra()
    comm_rows = b_comm.basis.reshape(b_comm.dim, -1).conj()
    purity_sum = 0.0
    for e in a.block_bases().e:
        coeffs = comm_rows @ vec(e)
        purity_sum += float(np.sum(np.abs(coeffs) ** 2))
    s = clamp_unit(1.0 - purity_sum / a.d)
    coll, _ = is_collinear(a.decomposition())
    inter = algebra_intersection(a, b_comm).dim if coll else None
    return ManReport(
        S=s,
        S2=log_man(s, log_base),
        method="man.projection",
        bounds=_pair_bounds(a.d, sa, sb, intersection_dim=inter, a_collinear=coll),
        inputs={"A": sa, "B": sb},
        log_base=log_base,
        extras={"purity_sum": purity_sum},
    )


def man_collinear(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN of a collinear algebra via projector overlap / projector distance."""
    _check_same_ambient(a, b)
    dec = a.decomposition()
    coll, _ = is_collinear(dec)
    if not coll:
        raise NonCollinearError("man_collinear requires the first algebra to be collinear")
    sa = StructuralSummary.from_algebra(a)
    sb = StructuralSummary.from_algebra(b)
    overlap, comm_dim = _projection_overlap(a, b)
    s = clamp_unit(1.0 - overlap / a.dim)
    extras = {"hs_overlap": overlap}
    if a.dim == comm_dim:
        dist_sq = a.dim + comm_dim - 2.0 * overlap
        s_dist = clamp_unit(dist_sq / (2.0 * a.dim))
        if abs(s_dist - s) > FORMULA_TOL:
            raise NumericalConsistencyError(
                f"distance form {s_dist} disagrees with overlap form {s}"
            )
        extras["distance_form"] = s_dist
    inter = algebra_intersection(a, b.commutant_algebra()).dim
    return ManReport(
        S=s,
        S2=log_man(s, log_base),
        method="man.collinear",
        bounds=_pair_bounds(a.d, sa, sb, intersection_dim=inter, a_collinear=True),
        inputs={"A": sa, "B": sb},
        log_base=log_base,
        extras=extras,
    )


def self_man(alg: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """Non-commutativity of the algebra itself, from structural data alone."""
    dec = alg.decomposition()
    d = alg.d
    summary = StructuralSummary.from_algebra(alg)
    nc = 1.0 - sum(b.n / b.d for b in dec.blocks) / d
    nc = clamp_unit(nc)
    # Purity form: sum_J p_J ||R_J||^2 with R_J the doubled maximally mixed
    # state of the J-th irrep; equal to 1 - NC.
    weights = [b.n * b.d / d for b in dec.blocks]
    purity = sum(p / b.d**2 for p, b in zip(weights, dec.blocks))
    nc2 = -math.log(purity) / math.log(log_base) + 0.0 if purity > 0 else math.inf
    extras = {
        "p_J": weights,
        "irrep_mean_form": sum(p * (1.0 - 1.0 / b.d**2) for p, b in zip(weights, dec.blocks)),
    }
    coll, _ = is_collinear(dec)
    if coll:
        collinear_form = 1.0 - dec.d_Z / dec.algebra_dim
        if abs(collinear_form - nc) > FORMULA_TOL:
            raise NumericalConsistencyError(
                f"collinear form {collinear_form} disagrees with structural form {nc}"
            )
        extras["collinear_form"] = collinear_form
    bounds = {
        "irrep_bound": 1.0 - 1.0 / max(b.d for b in dec.blocks) ** 2,
        "full_bound": 1.0 - 1.0 / d**2,
        "commutant_bound": 1.0 - dec.commutant_dim / d**2,
        "weak_bound": 1.0 - 1.0 / dec.algebra_dim,
    }
    return ManReport(
        S=nc,
        S2=nc2,
        method="selfman.structural",
        bounds=bounds,
        inputs={"A": summary},
        log_base=log_base,
        extras=extras,
    )


def man_bounds(
    a: OperatorAlgebra,
    b: OperatorAlgebra,
    log_base: float = 2.0,
    s_value: Optional[float] = None,
) -> dict:
    """All upper bounds on S(A:B), checked against the computed value."""
    _check_same_ambient(a, b)
    sa = StructuralSummary.from_algebra(a)
    sb = StructuralSummary.from_algebra(b)
    if s_value is None:
        s_value = man_omega(a, b, log_base).S
    d = a.d
    logb = math.log(log_base)
    record = {
        "S": s_value,
        "S2": log_man(s_value, log_base),
        "commutant_bound": 1.0 - max(sa.d_comm, sb.d_comm) / d**2,
        "weak_bound": 1.0 - 1.0 / min(sa.d_alg, sb.d_alg),
        "commutant_bound_S2": (math.log(d**2) - math.log(max(sa.d_comm, sb.d_comm))) / logb,
        "weak_bound_S2": math.log(min(sa.d_alg, sb.d_alg)) / logb,
    }
    coll, _ = is_collinear(a.decomposition())
    if coll:
        inter = algebra_intersection(a, b.commutant_algebra())
        record["intersection_bound"] = 1.0 - inter.dim / sa.d_alg
        record["intersection_dim"] = inter.dim
    for name in ("commutant_bound", "weak_bound", "intersection_bound"):
        if name in record and s_value > record[name] + CLAMP_MARGIN:
            raise NumericalConsistencyError(
                f"S = {s_value} exceeds {name} = {record[name]}"
            )
    return record


def orbit_averaged_man(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """Haar average of S(A : U(B)) over the unitary orbit of B.

    Equals S(A:L) S(B:L) / S(L:L) with S(X:L) = 1 - d(X')/d^2.
    """
    _check_same_ambient(a, b)
    d = a.d
    if d < 2:
        raise AlgebraError("orbit average requires ambient dimension >= 2")
    s_al = 1.0 - a.decomposition().commutant_dim / d**2
    s_bl = 1.0 - b.decomposition().commutant_dim / d**2
    s_ll = 1.0 - 1.0 / d**2
    return s_al * s_bl / s_ll


def lattice_man(
    site_dims: Sequence[int],
    region_1: Sequence[int],
    region_2: Sequence[int],
    log_base: float = 2.0,
) -> ManReport:
    """Closed-form MAN of two local lattice algebras with uniform site dim.

    S = 1 - d_site^(-2 |S1 n S2|); the log version is extensive with slope
    c_d = log(d_site^2), and the conditional variant S2(A_S1 | A_S2) counts
    the sites of S1 outside S2.
    """
    site_dims = [int(x) for x in site_dims]
    if not site_dims:
        raise AlgebraError("need at least one site")
    d_site = site_dims[0]
    if any(x != d_site for x in site_dims):
        raise AlgebraError("closed lattice form requires a uniform site dimension")
    n_sites = len(site_dims)
    s1 = set(int(x) for x in region_1)
    s2 = set(int(x) for x in region_2)
    for r in s1 | s2:
        if r < 0 or r >= n_sites:
            raise AlgebraError(f"region index {r} out of range")
    d = d_site**n_sites
    c_d = math.log(d_site**2) / math.log(log_base)
    overlap = len(s1 & s2)
    s = clamp_unit(1.0 - float(d_site) ** (-2 * overlap))
    s2_val = c_d * overlap

    def _summary(region):
        dj = d_site ** len(region)
        n = d_site ** (n_sites - len(region))
        return StructuralSummary(
            d=d, d_alg=dj * dj, d_comm=n * n, d_Z=1,
            n=(n,), d_blocks=(dj,), collinear=True, ratio=n / dj,
        )

    sa, sb = _summary(s1), _summary(s2)
    extras = {
        "c_d": c_d,
        "overlap": overlap,
        "s2_conditional": c_d * len(s1 - s2),
        "nc_1": clamp_unit(1.0 - float(d_site) ** (-2 * len(s1))),
        "nc_2": clamp_unit(1.0 - float(d_site) ** (-2 * len(s2))),
        "nc2_1": c_d * len(s1),
        "nc2_2": c_d * len(s2),
    }
    # A_{S1} meets the commutant A_{S2^c} in A_{S1 \ S2}; the resulting bound
    # is saturated because the two projections commute.
    inter_dim = (d_site ** len(s1 - s2)) ** 2
    return ManReport(
        S=s,
        S2=s2_val,
        method="man.lattice",
        bounds=_pair_bounds(d, sa, sb, intersection_dim=inter_dim, a_collinear=True),
        inputs={"A": sa, "B": sb},
        log_base=log_base,
        extras=extras,
    )


def _check_orthonormal_columns(u: np.ndarray, tol: float = 1e-8) -> int:
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise AlgebraError("basis must be a square matrix of column vectors")
    d = u.shape[0]
    if np.linalg.norm(dagger(u) @ u - np.eye(d)) > tol * d:
        raise AlgebraError("basis columns are not orthonormal")
    return d


def _masa_summary(d: int) -> StructuralSummary:
    return StructuralSummary(
        d=d, d_alg=d, d_comm=d, d_Z=d,
        n=(1,) * d, d_blocks=(1,) * d, collinear=True, ratio=1.0,
    )


def masa_man(
    basis_1: np.ndarray, basis_2: np.ndarray, log_base: float = 2.0
) -> ManReport:
    """MAN of two maximal abelian algebras: mean linear entropy of overlaps.

    The i-th probability vector is p_i(j) = |<i|j~>|^2; S averages its linear
    entropy over i and vanishes iff the two bases generate the same algebra.
    """
    d = _check_orthonormal_columns(basis_1)
    if _check_orthonormal_columns(basis_2) != d:
        raise AlgebraError("bases have different dimensions")
    overlaps = np.abs(dagger(np.asarray(basis_1, dtype=complex)) @ basis_2) ** 2
    purity = float(np.sum(overlaps**2)) / d
    s = clamp_unit(1.0 - purity)
    sa = _masa_summary(d)
    return ManReport(
        S=s,
        S2=-math.log(purity) / math.log(log_base) + 0.0 if purity > 0 else math.inf,
        method="man.masa",
        bounds={"commutant_bound": 1.0 - 1.0 / d, "weak_bound": 1.0 - 1.0 / d},
        inputs={"A": sa, "B": sa},
        log_base=log_base,
        extras={"purity": purity},
    )


@dataclass(frozen=True)
class QuantumnessReport:
    Q: float
    S: float
    d: int
    lower_holds: bool
    upper_holds: bool

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "S": self.S,
            "d": self.d,
            "dQ": self.d * self.Q,
            "lower_holds": self.lower_holds,
            "upper_holds": self.upper_holds,
        }


def quantumness(basis_1: np.ndarray, basis_2: np.ndarray) -> QuantumnessReport:
    """Largest mean variance of unit-norm observables of one MASA in the other's basis.

    The supremum over hermitian A = sum_k a_k |k~><k~| with ||A||_2 = 1 is the
    top eigenvalue of (1 - X^T X)/d for the bistochastic overlap matrix
    X_ij = |<i|j~>|^2, and is sandwiched by Q <= S <= d Q.
    """
    d = _check_orthonormal_columns(basis_1)
    if _check_orthonormal_columns(basis_2) != d:
        raise AlgebraError("bases have different dimensions")
    x = np.abs(dagger(np.asarray(basis_1, dtype=complex)) @ basis_2) ** 2
    gram = x.T @ x
    evals = np.linalg.eigvalsh(np.eye(d) - (gram + gram.T) / 2)
    q = clamp_unit(float(evals[-1]) / d, margin=1e-12)
    s = masa_man(basis_1, basis_2).S
    return QuantumnessReport(
        Q=q,
        S=s,
        d=d,
        lower_holds=q <= s + FORMULA_TOL,
        upper_holds=s <= d * q + FORMULA_TOL,
    )


def a_otoc(alg: OperatorAlgebra, u: np.ndarray, log_base: float = 2.0) -> ManReport:
    """Algebraic OTOC: the MAN of A against the evolved commutant U(A')."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (alg.d, alg.d):
        raise AlgebraError(f"unitary shape {u.shape} != ({alg.d}, {alg.d})")
    if np.linalg.norm(dagger(u) @ u - np.eye(alg.d)) > 1e-8 * alg.d:
        raise AlgebraError("matrix is not unitary")
    evolved = alg.commutant_algebra().conjugated(u)
    report = man_omega(alg, evolved, log_base)
    return replace(report, method="man.aotoc")


def entropy_decomposition_man(
    a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0
) -> ManReport:
    """MAN as an average linear-entropy production, block by block of B.

    For each central block J of B, the compression map
    T_J(X) = P_A'((1_{n_J}/n_J) (x) X) sends d_J x d_J states into the
    ambient space; S(A:B) is a weighted combination of the Haar-averaged
    linear entropy of T_J on pure states (computed exactly through the
    two-design identity) and its entropy on the maximally mixed state.
    """
    _check_same_ambient(a, b)
    sa = StructuralSummary.from_algebra(a)
    sb = StructuralSummary.from_algebra(b)
    a_comm = a.commutant_algebra()
    comm_rows = a_comm.basis.reshape(a_comm.dim, -1).conj()

    def proj_norm_sq(x: np.ndarray) -> float:
        return float(np.sum(np.abs(comm_rows @ vec(x)) ** 2))

    d = a.d
    dec_b = b.decomposition()
    total = 0.0
    per_block = []
    for blk in dec_b.blocks:
        n, dj, iso = blk.n, blk.d, blk.isometry
        eye_n = np.eye(n) / n

        def compress(x: np.ndarray) -> float:
            return proj_norm_sq(iso @ np.kron(eye_n, x) @ dagger(iso))

        hs_sq = 0.0
        for l in range(dj):
            for m in range(dj):
                unit = np.zeros((dj, dj), dtype=complex)
                unit[l, m] = 1.0
                hs_sq += compress(unit)
        id_sq = compress(np.eye(dj, dtype=complex))
        mean_pure_purity = (id_sq + hs_sq) / (dj * (dj + 1))
        e_slin = 1.0 - mean_pure_purity
        slin_mixed = 1.0 - id_sq / dj**2
        p_j = n * dj / d
        a_j = n * (dj + 1) / dj
        b_j = 1.0 - n / dj
        term = p_j * (a_j * e_slin - n * slin_mixed + b_j)
        total += term
        per_block.append(
            {"n": n, "d": dj, "p": p_j, "term": term,
             "mean_pure_linear_entropy": e_slin, "mixed_linear_entropy": slin_mixed}
        )
    s = clamp_unit(total)
    return ManReport(
        S=s,
        S2=log_man(s, log_base),
        method="man.entropy",
        bounds=_pair_bounds(d, sa, sb),
        inputs={"A": sa, "B": sb},
        log_base=log_base,
        extras={"per_block": per_block},
    )
