"""Dense complex matrix and superoperator substrate.

Conventions, fixed once for the whole package:

* Matrices are vectorized row-major (``vec(X) = X.reshape(-1)``), so the
  transfer matrix of ``X -> A X B`` is ``kron(A, B.T)`` and of the Kraus map
  ``X -> sum_k K_k X K_k^dag`` is ``sum_k kron(K_k, K_k.conj())``.
* Tensor factors and lattice sites are indexed from 0.
* Rank decisions drop singular values below ``RANK_RTOL`` times the largest.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt, prod
from typing import Iterable, Sequence

import numpy as np

from .rng import RngStream

RANK_RTOL = 1e-9

__all__ = [
    "RANK_RTOL",
    "dagger",
    "hs_inner",
    "hs_norm",
    "hs_norm_sq",
    "vec",
    "unvec",
    "swap_operator",
    "swap_perm",
    "partial_trace",
    "haar_unitary",
    "haar_state",
    "symmetric_two_design",
    "orthonormalize_hs",
    "nullspace",
    "SuperOperator",
    "reshuffle",
]


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack (..., m, n)."""
    return a.conj().swapaxes(-1, -2)


def hs_inner(a: np.ndarray, b: np.ndarray) -> complex:
    """Hilbert-Schmidt pairing Tr(a^dag b)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return complex(np.sum(a.conj() * b))


def hs_norm_sq(a: np.ndarray) -> float:
    return float(np.sum(np.abs(a) ** 2))


def hs_norm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a))


def vec(x: np.ndarray) -> np.ndarray:
    return x.reshape(-1)


def unvec(v: np.ndarray, d: int) -> np.ndarray:
    return v.reshape(d, d)


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


def _normal_rows(rng: RngStream, start: int, stop: int, width: int) -> np.ndarray:
    """Row i - start holds the first `width` standard normals of rng.generator(i)."""
    rows = np.empty((stop - start, width))
    for row, gen in zip(rows, rng.generators(start, stop)):
        gen.standard_normal(out=row)
    return rows


def _complex_normals(rows: np.ndarray, offset: int, shape: tuple[int, ...]) -> np.ndarray:
    """re + i im per row: size(shape) reals from `offset` on, then as many imaginaries."""
    size = prod(shape)
    z = rows[..., offset: offset + size] + 1j * rows[..., offset + size: offset + 2 * size]
    return z.reshape(*rows.shape[:-1], *shape)


def _haar_unitaries(rows: np.ndarray, offset: int, d: int) -> np.ndarray:
    """Haar unitaries, one per row, from the 2 d^2 normals of each row at `offset`.

    QR of the complex Ginibre matrix, then the R-diagonal phases; the whole
    stack goes through one np.linalg.qr call.
    """
    z = _complex_normals(rows, offset, (d, d)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_states(rows: np.ndarray, d: int) -> np.ndarray:
    """Haar-random unit vectors, one per row, from the first 2 d normals of each row."""
    z = _complex_normals(rows, 0, (d,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def _haar_unitary_from_generator(d: int, gen: np.random.Generator) -> np.ndarray:
    return _haar_unitaries(gen.standard_normal(2 * d * d), 0, d)


def _haar_state_from_generator(d: int, gen: np.random.Generator) -> np.ndarray:
    return _haar_states(gen.standard_normal(2 * d), d)


def haar_unitary(d: int, rng: RngStream, counter: int = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase correction makes the QR output exactly
    Haar-distributed rather than merely unitary.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitary_from_generator(d, rng.generator(counter))


def haar_state(d: int, rng: RngStream, counter: int = 0) -> np.ndarray:
    """Haar-random unit vector (normalized complex Gaussian)."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_state_from_generator(d, rng.generator(counter))


def symmetric_two_design(d: int) -> np.ndarray:
    """Exact Haar average of |phi><phi|^(x2): (1 + S) / (d(d+1))."""
    eye = np.eye(d * d, dtype=complex)
    return (eye + swap_operator([d], {0})) / (d * (d + 1))


def orthonormalize_hs(mats: Sequence[np.ndarray], rtol: float = RANK_RTOL) -> list[np.ndarray]:
    """HS-orthonormal basis of the span of `mats` (rank by singular values)."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty span")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("matrices must share a common shape")
    stack = np.stack([vec(np.asarray(m, dtype=complex)) for m in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("span contains only zero matrices")
    rank = int(np.sum(s > rtol * s[0]))
    return [vh[k].reshape(shape) for k in range(rank)]


def nullspace(m: np.ndarray, rtol: float = RANK_RTOL, scale: float = 0.0) -> np.ndarray:
    """Orthonormal rows x with m @ x = 0.

    `scale` sets an absolute reference for the threshold: when the whole
    matrix is rounding noise (all singular values tiny), a purely relative
    cut would keep noise directions out of the nullspace.  The right-singular
    vectors are the conjugated rows of vh (columns of V); forgetting the
    conjugation returns the wrong space for complex input.  A tall matrix is
    first reduced to the R of its QR factorization, which has the same
    singular values and right-singular vectors at a fraction of the cost.
    """
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    if s.size == 0:
        return vh.conj()
    keep = s <= rtol * max(s[0], scale)
    return np.concatenate([vh[: s.size][keep], vh[s.size:]], axis=0).conj()


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
        rows = np.stack([vec(b) for b in basis])
        return cls(rows.T @ rows.conj())

    def apply(self, x: np.ndarray) -> np.ndarray:
        return unvec(self.transfer @ vec(x), self.d)

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

    def is_unital(self, tol: float = 1e-9) -> bool:
        eye = np.eye(self.d)
        return bool(np.linalg.norm(self.apply(eye) - eye) <= tol * self.d)

    def is_trace_preserving(self, tol: float = 1e-9) -> bool:
        # Tr(T(X)) = <1, T(X)> = <T^dag(1), X> for all X.
        eye = np.eye(self.d)
        return bool(np.linalg.norm(self.hs_adjoint().apply(eye) - eye) <= tol * self.d)

    def choi_is_psd(self, tol: float = 1e-9) -> bool:
        c = self.choi()
        evals = np.linalg.eigvalsh((c + c.conj().T) / 2)
        return bool(evals.min() >= -tol)


def reshuffle(op: SuperOperator) -> tuple[np.ndarray, np.ndarray]:
    """(Choi matrix, omega-style reshuffle) of a superoperator."""
    return op.choi(), op.omega_reshuffle()
