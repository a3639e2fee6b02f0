"""Closed-form evaluation of mutual averaged non-commutativity.

All routes compute the same quantity S(A:B) = Haar-averaged squared commutator
norm between unitaries of the two algebras, normalized to [0, 1]:

* ``man_omega``        - 1 - Tr(S Omega_A Omega_B)/d, block by block in O(d^3)
* ``man_projection``   - 1 - sum_a ||P_B'(e_a)||^2 / d over A's block basis;
  with P_B' a partial trace on each block of B that sum is Tr(S Omega_A Omega_B)
* ``man_collinear``    - 1 - Tr_HS(P_A P_B')/d(A), A collinear only
* ``entropy_decomposition_man`` - average linear-entropy production of the
  per-block compression maps of B under P_A', P_A' again as partial traces
* ``self_man``         - structural formula for S(A:A)

Every exact pair route (the four above, a_otoc, the orbit Monte-Carlo and the
exact protocol modes) reads its block pairs from one kernel,
_block_pair_cores, and weighs the per-pair cores its own way; the routes
therefore share their arithmetic and check the report plumbing, not the
kernel.  It runs one product per pair of shape classes, so a MASA pair is one
d x d product.  The kernel's checks are the d^4 oracles of manlab.oracles and
the test suite's dense references, and the direct Monte-Carlo oracle.  Every
report is built by manlab.report._report from StructuralSummary records: the
route's own bounds, then _pair_bounds.  Routes given an algebra read its
decomposition's summary.  The pair routes reach _report through
_pair_report, which reads dim(A n B') from commutant_intersection_dim only
for the routes that ask and a collinear A.

The closed forms that build no algebra live outside the engine, so the
commands that run them load neither this module nor the structure solve:
lattice_man in manlab.report (no numpy) and masa_man and quantumness in
manlab.masa.  This module still holds their names, and the oracle
algebra_intersection's, where perfbench/tracer.py patches them.

The logarithmic variant is S2 = -log(1 - S); base 2 unless stated otherwise.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .algebras import (
    OperatorAlgebra,
    _check_same_ambient,
    algebra_intersection,  # noqa: F401  (held here for perfbench/tracer.py)
    commutant_intersection_dim,
)
from .errors import AlgebraError, NonCollinearError, NumericalConsistencyError
from .linalg import dagger
from .masa import masa_man, quantumness  # noqa: F401  (held here for perfbench/tracer.py)
from .report import (
    FORMULA_TOL,
    ManReport,
    _check_within,
    _log_purity,
    _pair_bounds,
    _report,
    clamp_unit,
    lattice_man,  # noqa: F401  (held here for perfbench/tracer.py)
)

__all__ = [
    "a_otoc",
    "entropy_decomposition_man",
    "man_bounds",
    "man_collinear",
    "man_omega",
    "man_projection",
    "orbit_averaged_man",
    "self_man",
]


def _gram_sq(x):
    """||x x^dag||_F^2 = ||x^dag x||_F^2 per matrix of a stack, from the smaller Gram."""
    gram = x @ dagger(x) if x.shape[-2] <= x.shape[-1] else dagger(x) @ x
    return (np.abs(gram) ** 2).sum(axis=(-2, -1))


def _block_pair_cores(dec_a, dec_b):
    """Every block pair of A and B with its core: the one kernel of the exact routes.

    For a shape class of A's blocks (n_J, d_J, V_J) and one of B's
    (n_K, d_K, W_K), one product of their frame columns gives every W_K^dag V_J,
    and the kernel yields (n_J, d_J, n_K, d_K, core, m) with the blocks of B's
    class and of A's on two extra axes: m[K, J] is W_K^dag V_J read as (n_K,
    d_K, n_J, d_J), and core[K, J] = ||N N^dag||_F^2 for N, m[K, J] regrouped
    to (n_K d_J) x (n_J d_K).
    Up to the order of rows and columns, the (l, m) block of N N^dag is
    Tr_{d_K}[W_K^dag E_lm W_K] for A's matrix units E_lm, so core is the sum
    of their squared partial-trace norms; the omega, projection, collinear and
    entropy routes weigh it per pair.  Only the smaller Gram of N is formed,
    at most min(n_K d_J, d_K n_J)^2 entries, d^2 over all pairs.  Frames may
    carry leading batch axes (a stack of B's, say); m and the cores then have
    the same leading axes.
    """
    for n_j, d_j, c_j, cols_j in dec_a.classes:
        v = dec_a.frame[..., cols_j]
        for n_k, d_k, c_k, cols_k in dec_b.classes:
            m = dagger(dec_b.frame[..., cols_k]) @ v
            lead = m.shape[:-2]
            m = m.reshape(*lead, c_k, n_k, d_k, c_j, n_j, d_j).swapaxes(-3, -4).swapaxes(-4, -5)
            nm = m.swapaxes(-1, -3).reshape(*lead, c_k, c_j, n_k * d_j, n_j * d_k)
            yield n_j, d_j, n_k, d_k, _gram_sq(nm), m


def _block_swap_trace(dec_a, dec_b):
    """Tr(S Omega_A Omega_B) from the decompositions of A and B, in O(d^3).

    Each block pair adds its core with weight 1/(d_J d_K).
    """
    return sum(c.sum(axis=(-2, -1)) / (d_j * d_k)
               for _, d_j, _, d_k, c, _ in _block_pair_cores(dec_a, dec_b))


def _projection_overlap(
    a: OperatorAlgebra, b: Optional[OperatorAlgebra] = None
) -> tuple[float, int]:
    """(Tr_HS(P_A P_T), dim T) from block data alone: T = B', or T = Z(A) with b omitted.

    B' reads M_{n_K} (x) 1_{d_K} on B's own blocks, and each block pair adds
    its core with weight 1/(n_J d_K).  Z(A) lies in A, so Tr(P_A P_Z) = dim Z
    = d_Z and no kernel runs.
    """
    if b is None:
        d_z = a.decomposition().summary.d_Z
        return float(d_z), d_z
    cores = _block_pair_cores(a.decomposition(), b.decomposition())
    overlap = float(sum(c.sum(axis=(-2, -1)) / (n_j * d_k) for n_j, _, _, d_k, c, _ in cores))
    return overlap, b.decomposition().summary.d_comm


def _pair_report(a, b, s, method, log_base, extras=None, intersection=False) -> ManReport:
    """The report of S(A:B) = s by `method`, with the summaries of both algebras.

    dim(A n B') is solved for the intersection bound only when the route asks
    for it (`intersection`) and A is collinear; the solve costs far more than
    man_omega's own trace.
    """
    sa, sb = a.decomposition().summary, b.decomposition().summary
    inter = commutant_intersection_dim(a, b) if intersection and sa.collinear else None
    return _report(a.d, {"A": sa, "B": sb}, s, method, log_base, extras or {},
                   intersection_dim=inter)


def _omega_s(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """S = 1 - Tr(S Omega_A Omega_B)/d, clamped to [0, 1]."""
    _check_same_ambient(a, b)
    return clamp_unit(1.0 - float(_block_swap_trace(a.decomposition(), b.decomposition())) / a.d)


def man_omega(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN through the omega operators: S = 1 - Tr(S Omega_A Omega_B)/d."""
    return _pair_report(a, b, _omega_s(a, b), "man.omega", log_base)


def man_projection(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN through the conditional expectation onto B'.

    Sums ||P_B'(e_a)||^2 over A's block basis e_(J,l,m) = V_J (1 (x) |l><m|)
    V_J^dag / sqrt(d_J).  P_B'(X) = sum_K W_K (Tr_{d_K}[W_K^dag X W_K] (x)
    1/d_K) W_K^dag, so each block pair adds its core over d_J d_K, the sum
    Tr(S Omega_A Omega_B) of man_omega.
    """
    _check_same_ambient(a, b)
    purity_sum = float(_block_swap_trace(a.decomposition(), b.decomposition()))
    s = clamp_unit(1.0 - purity_sum / a.d)
    return _pair_report(a, b, s, "man.projection", log_base,
                        extras={"purity_sum": purity_sum}, intersection=True)


def man_collinear(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """MAN of a collinear algebra via projector overlap / projector distance."""
    _check_same_ambient(a, b)
    if not a.decomposition().summary.collinear:
        raise NonCollinearError("man_collinear requires the first algebra to be collinear")
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
    return _pair_report(a, b, s, "man.collinear", log_base, extras=extras, intersection=True)


def self_man(alg: OperatorAlgebra, log_base: float = 2.0) -> ManReport:
    """Non-commutativity of the algebra itself, from structural data alone."""
    dec = alg.decomposition()
    d = alg.d
    summary = dec.summary
    nc = clamp_unit(1.0 - sum(n / dj for n, dj in dec.shapes) / d)
    # Purity form: sum_J p_J ||R_J||^2 with R_J the doubled maximally mixed
    # state of the J-th irrep; equal to 1 - NC.
    weights = [n * dj / d for n, dj in dec.shapes]
    purity = sum(p / dj**2 for p, dj in zip(weights, summary.d_blocks))
    nc2 = _log_purity(purity, log_base)
    extras = {
        "p_J": weights,
        "irrep_mean_form": sum(p * (1.0 - 1.0 / dj**2) for p, dj in zip(weights, summary.d_blocks)),
    }
    if summary.collinear:
        collinear_form = 1.0 - summary.d_Z / summary.d_alg
        if abs(collinear_form - nc) > FORMULA_TOL:
            raise NumericalConsistencyError(
                f"collinear form {collinear_form} disagrees with structural form {nc}"
            )
        extras["collinear_form"] = collinear_form
    bounds = {"irrep_bound": 1.0 - 1.0 / max(summary.d_blocks) ** 2, "full_bound": 1.0 - 1.0 / d**2}
    return _report(d, {"A": summary}, nc, "selfman.structural", log_base, extras, s2=nc2,
                   bounds=bounds)


def man_bounds(a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0) -> dict:
    """All upper bounds on S(A:B), checked against man_omega's value."""
    report = man_omega(a, b, log_base)
    sa, sb = report.inputs["A"], report.inputs["B"]
    inter = commutant_intersection_dim(a, b) if sa.collinear else None
    bounds = _pair_bounds(a.d, sa, sb, inter)
    _check_within(report.S, bounds)
    logb = math.log(log_base)
    record = {
        "S": report.S,
        "S2": report.S2,
        "commutant_bound": bounds.pop("commutant_bound"),
        "weak_bound": bounds.pop("weak_bound"),
        "commutant_bound_S2": (math.log(a.d**2) - math.log(max(sa.d_comm, sb.d_comm))) / logb,
        "weak_bound_S2": math.log(min(sa.d_alg, sb.d_alg)) / logb,
        **bounds,
    }
    if inter is not None:
        record["intersection_dim"] = inter
    return record


def orbit_averaged_man(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """Haar average of S(A : U(B)) over the unitary orbit of B.

    Equals S(A:L) S(B:L) / S(L:L) with S(X:L) = 1 - d(X')/d^2.
    """
    _check_same_ambient(a, b)
    d = a.d
    if d < 2:
        raise AlgebraError("orbit average requires ambient dimension >= 2")
    s_al = 1.0 - a.decomposition().summary.d_comm / d**2
    s_bl = 1.0 - b.decomposition().summary.d_comm / d**2
    s_ll = 1.0 - 1.0 / d**2
    return s_al * s_bl / s_ll


def a_otoc(alg: OperatorAlgebra, u: np.ndarray, log_base: float = 2.0) -> ManReport:
    """Algebraic OTOC: the MAN of A against the evolved commutant U(A')."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (alg.d, alg.d):
        raise AlgebraError(f"unitary shape {u.shape} != ({alg.d}, {alg.d})")
    evolved = alg.commutant_algebra().conjugated(u)
    return _pair_report(alg, evolved, _omega_s(alg, evolved), "man.aotoc", log_base)


def entropy_decomposition_man(
    a: OperatorAlgebra, b: OperatorAlgebra, log_base: float = 2.0
) -> ManReport:
    """MAN as an average linear-entropy production, block by block of B.

    For each central block J of B, the compression map
    T_J(X) = P_A'((1_{n_J}/n_J) (x) X) sends d_J x d_J states into the
    ambient space; S(A:B) is a weighted combination of the Haar-averaged
    linear entropy of T_J on pure states (computed exactly through the
    two-design identity) and its entropy on the maximally mixed state.
    P_A' acts as a partial trace on each block of A.
    """
    _check_same_ambient(a, b)
    d = a.d
    # T(X) = W (1_n/n (x) X) W^dag, and ||P_A'(Y)||^2 is
    # sum_J ||Tr_{d_J}[V_J^dag Y V_J]||^2 / d_J: hs_sq sums it over the units
    # X = |l><m|, the pair cores; id_sq takes X = 1, whose partial trace is
    # c c^dag with c = V_J^dag W read as n_J rows.  Both hold one entry per
    # block of B's class, summed over A's blocks.
    sums = {}
    for n, dj, n_a, d_a, core, m in _block_pair_cores(b.decomposition(), a.decomposition()):
        c_a, c_b = core.shape
        hs_sq, id_sq = sums.get((n, dj), (0.0, 0.0))
        sums[n, dj] = (hs_sq + core.sum(axis=0) / (n * n * d_a),
                       id_sq + _gram_sq(m.reshape(c_a, c_b, n_a, -1)).sum(axis=0) / (n * n * d_a))
    per_block = []
    for (n, dj), (hs_sq, id_sq) in sums.items():
        e_slin = 1.0 - (id_sq + hs_sq) / (dj * (dj + 1))
        slin_mixed = 1.0 - id_sq / dj**2
        p_j, a_j, b_j = n * dj / d, n * (dj + 1) / dj, 1.0 - n / dj
        terms = p_j * (a_j * e_slin - n * slin_mixed + b_j)
        per_block += [{"n": n, "d": dj, "p": p_j, "term": t, "mean_pure_linear_entropy": e,
                       "mixed_linear_entropy": x}
                      for t, e, x in zip(terms.tolist(), e_slin.tolist(), slin_mixed.tolist())]
    total = sum(blk["term"] for blk in per_block)
    return _pair_report(a, b, clamp_unit(total), "man.entropy", log_base,
                        extras={"per_block": per_block})
