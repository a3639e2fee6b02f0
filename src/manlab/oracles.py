"""The paper's dense d^2 x d^2 forms, kept as cross-check oracles.

S(A:B) is defined through the Haar-averaged Omega_A and the algebras'
projection CP-maps; the engine evaluates it from block data alone, and no
command loads this module.  Superoperators are vectorized row-major
(``vec(X) = X.reshape(-1)``), so the transfer matrix of ``X -> A X B`` is
``kron(A, B.T)`` and of the Kraus map ``X -> sum_k K_k X K_k^dag`` is
``sum_k kron(K_k, K_k.conj())``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterable, Sequence

import numpy as np

from .algebras import OperatorAlgebra, StructuralDecomposition
from .linalg import dagger

# Two algebras are equal when their HS projectors differ by less than this.
EQUALITY_TOL = 1e-8


def _check_region(dims: Sequence[int], region: Iterable[int]) -> tuple[list[int], list[int]]:
    dims = list(dims)
    if not dims or any(d < 1 for d in dims):
        raise ValueError("dims must be a nonempty list of positive integers")
    region = sorted(set(int(r) for r in region))
    for r in region:
        if r < 0 or r >= len(dims):
            raise ValueError(f"region index {r} out of range for {len(dims)} factors")
    return dims, region


def swap_perm(d: int) -> np.ndarray:
    """Index permutation of the full swap on H (x) H, dim(H) = d.

    ``M[swap_perm(d), :]`` equals ``S @ M`` without forming S.
    """
    return np.arange(d * d).reshape(d, d).T.reshape(-1)


def swap_operator(dims: Sequence[int], region: Iterable[int]) -> np.ndarray:
    """Region swap on two copies of a tensor-product space.

    Swaps the two copies of each factor listed in `region` (0-based) and acts
    as the identity on the rest; `region` covering all factors gives the full
    swap S.  Satisfies T^2 = 1 and Tr T = prod_{i in S} d_i * prod_{i not in S} d_i^2.
    """
    dims, region = _check_region(dims, region)
    n = len(dims)
    total = prod(dims) ** 2
    idx = np.arange(total)
    digits = list(np.unravel_index(idx, dims + dims))
    for r in region:
        digits[r], digits[n + r] = digits[n + r], digits[r]
    target = np.ravel_multi_index(tuple(digits), dims + dims)
    op = np.zeros((total, total), dtype=complex)
    op[target, idx] = 1.0
    return op


def partial_trace(m: np.ndarray, dims: Sequence[int], keep: Iterable[int]) -> np.ndarray:
    """Trace out the factors not listed in `keep` (0-based indices)."""
    dims, keep = _check_region(dims, keep)
    n = len(dims)
    total = prod(dims)
    if m.shape != (total, total):
        raise ValueError(f"matrix shape {m.shape} does not match dims product {total}")
    t = m.reshape(dims + dims)
    row = list(range(n))
    col = list(range(n, 2 * n))
    for ax in range(n):
        if ax not in keep:
            col[ax] = row[ax]
    out_dims = [dims[ax] for ax in keep]
    out = np.einsum(t, row + col, [row[ax] for ax in keep] + [col[ax] for ax in keep])
    side = prod(out_dims) if out_dims else 1
    return out.reshape(side, side)


def symmetric_two_design(d: int) -> np.ndarray:
    """Exact Haar average of |phi><phi|^(x2): (1 + S) / (d(d+1))."""
    eye = np.eye(d * d, dtype=complex)
    return (eye + swap_operator([d], {0})) / (d * (d + 1))


@dataclass(frozen=True)
class SuperOperator:
    """Linear map on d x d matrices stored as its d^2 x d^2 transfer matrix."""

    transfer: np.ndarray

    def __post_init__(self):
        t = np.asarray(self.transfer, dtype=complex)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ValueError("transfer matrix must be square")
        d = isqrt(t.shape[0])
        if d * d != t.shape[0]:
            raise ValueError("transfer dimension must be a perfect square")
        object.__setattr__(self, "transfer", t)

    @property
    def d(self) -> int:
        return isqrt(self.transfer.shape[0])

    @classmethod
    def identity(cls, d: int) -> "SuperOperator":
        return cls(np.eye(d * d, dtype=complex))

    @classmethod
    def from_kraus(cls, kraus: Sequence[np.ndarray]) -> "SuperOperator":
        kraus = [np.asarray(k, dtype=complex) for k in kraus]
        d = kraus[0].shape[0]
        t = np.zeros((d * d, d * d), dtype=complex)
        for k in kraus:
            t += np.kron(k, k.conj())
        return cls(t)

    @classmethod
    def hs_projection(cls, basis: Sequence[np.ndarray]) -> "SuperOperator":
        """HS-orthogonal projection onto the span of an orthonormal basis."""
        rows = np.stack([b.reshape(-1) for b in basis])
        return cls(rows.T @ rows.conj())

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (self.transfer @ x.reshape(-1)).reshape(self.d, self.d)

    def __matmul__(self, other: "SuperOperator") -> "SuperOperator":
        return SuperOperator(self.transfer @ other.transfer)

    def hs_adjoint(self) -> "SuperOperator":
        return SuperOperator(self.transfer.conj().T)

    def hs_trace(self) -> complex:
        return complex(np.trace(self.transfer))

    def hs_inner(self, other: "SuperOperator") -> complex:
        return complex(np.sum(self.transfer.conj() * other.transfer))

    def choi(self) -> np.ndarray:
        """Choi state (map (x) id)|Phi+><Phi+|, trace normalized."""
        d = self.d
        return self.transfer.reshape(d, d, d, d).transpose(0, 2, 1, 3).reshape(d * d, d * d) / d

    def omega_reshuffle(self) -> np.ndarray:
        """Partial transpose on the second tensor slot of the transfer matrix.

        Sends ``sum_k A_k (x) B_k^T`` to ``sum_k A_k (x) B_k``; for the Kraus
        map with operators {K_k} this returns ``sum_k K_k (x) K_k^dag``.
        """
        d = self.d
        return self.transfer.reshape(d, d, d, d).transpose(0, 3, 2, 1).reshape(d * d, d * d)

    def is_unital(self) -> bool:
        eye = np.eye(self.d)
        return bool(np.linalg.norm(self.apply(eye) - eye) <= 1e-9 * self.d)

    def is_trace_preserving(self) -> bool:
        # Tr(T(X)) = <1, T(X)> = <T^dag(1), X> for all X.
        eye = np.eye(self.d)
        return bool(np.linalg.norm(self.hs_adjoint().apply(eye) - eye) <= 1e-9 * self.d)

    def choi_is_psd(self) -> bool:
        c = self.choi()
        evals = np.linalg.eigvalsh((c + c.conj().T) / 2)
        return bool(evals.min() >= -1e-9)


@dataclass(frozen=True)
class BlockBases:
    """The two families e_alpha (spanning A) and e_tilde_beta (spanning A')."""

    e: tuple[np.ndarray, ...]
    e_labels: tuple[tuple[int, int, int], ...]
    e_tilde: tuple[np.ndarray, ...]
    e_tilde_labels: tuple[tuple[int, int, int], ...]


def block_bases(dec: StructuralDecomposition) -> BlockBases:
    e, e_labels, et, et_labels = [], [], [], []
    for j, b in enumerate(dec.blocks):
        iso = b.isometry
        for l in range(b.d):
            for m in range(b.d):
                unit = np.zeros((b.d, b.d), dtype=complex)
                unit[l, m] = 1.0
                e.append(iso @ np.kron(np.eye(b.n) / np.sqrt(b.d), unit) @ dagger(iso))
                e_labels.append((j, l, m))
        for p in range(b.n):
            for q in range(b.n):
                unit = np.zeros((b.n, b.n), dtype=complex)
                unit[p, q] = 1.0
                et.append(iso @ np.kron(unit, np.eye(b.d) / np.sqrt(b.n)) @ dagger(iso))
                et_labels.append((j, p, q))
    return BlockBases(tuple(e), tuple(e_labels), tuple(et), tuple(et_labels))


def kraus_projection_maps(dec: StructuralDecomposition) -> tuple[SuperOperator, SuperOperator]:
    """(P_A, P_A') in Kraus form built from the block bases."""
    bases = block_bases(dec)
    return SuperOperator.from_kraus(bases.e_tilde), SuperOperator.from_kraus(bases.e)


def algebras_equal(a: OperatorAlgebra, b: OperatorAlgebra) -> bool:
    """Basis-free equality: HS distance between the two projectors."""
    if a.d != b.d:
        return False
    pa = a.projection_superoperator().transfer
    pb = b.projection_superoperator().transfer
    return bool(np.linalg.norm(pa - pb) <= EQUALITY_TOL)


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


def omega_operator(alg: OperatorAlgebra) -> OmegaOperator:
    """Build the d^2 x d^2 Omega_A explicitly: the oracle for man_omega's block trace.

    Conjugates 1_n^(x2) (x) S_{d_J} / d_J into place per central block.
    """
    d = alg.d
    omega = np.zeros((d * d, d * d), dtype=complex)
    for b in alg.decomposition().blocks:
        iso2 = np.kron(b.isometry, b.isometry)
        core = swap_operator([b.n, b.d], {1})  # swaps the two d_J factors of (C^n (x) C^d)^(x2)
        omega += iso2 @ core @ dagger(iso2) / b.d
    return OmegaOperator(omega, d)


@dataclass(frozen=True)
class AlgebraState:
    """Choi state of the conditional expectation; purity d(A)/d^2."""

    rho: np.ndarray
    d: int

    def purity(self) -> float:
        return float(np.real(np.sum(self.rho * self.rho.T)))

    def renyi2(self, log_base: float = 2.0) -> float:
        return -math.log(self.purity()) / math.log(log_base)


def algebra_state(alg: OperatorAlgebra) -> AlgebraState:
    """The d^2 x d^2 Choi state of P_A: the oracle behind protocol_choi's block overlaps."""
    return AlgebraState(alg.projection_superoperator().choi(), alg.d)
