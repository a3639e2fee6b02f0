"""Dense d x d matrix substrate: adjoints, the HS pairing, Haar draws and rank cuts.

Tensor factors and lattice sites are indexed from 0, and rank decisions drop
singular values below ``RANK_RTOL`` times the largest.  The d^2 x d^2
superoperators and their row-major vec convention live in manlab.oracles.
"""

from __future__ import annotations

from math import prod
from typing import Sequence

import numpy as np

from .rng import RngStream

RANK_RTOL = 1e-9

__all__ = [
    "RANK_RTOL",
    "dagger",
    "hs_inner",
    "hs_norm_sq",
    "haar_unitary",
    "haar_state",
    "orthonormalize_hs",
    "nullspace",
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


def _complex_normals(rows: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """re + i im per row: the first size(shape) reals, then as many imaginaries."""
    size = prod(shape)
    z = rows[..., :size] + 1j * rows[..., size: 2 * size]
    return z.reshape(*rows.shape[:-1], *shape)


def _haar_unitaries(rows: np.ndarray, d: int) -> np.ndarray:
    """Haar unitaries, one per row, from the first 2 d^2 normals of each row.

    QR of the complex Ginibre matrix, then the R-diagonal phases; the whole
    stack goes through one np.linalg.qr call.
    """
    z = _complex_normals(rows, (d, d)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))[..., None, :]


def _haar_states(rows: np.ndarray, d: int) -> np.ndarray:
    """Haar-random unit vectors, one per row, from the first 2 d normals of each row."""
    z = _complex_normals(rows, (d,))
    return z / np.linalg.norm(z, axis=-1, keepdims=True)


def haar_unitary(d: int, rng: RngStream, counter: int = 0) -> np.ndarray:
    """Haar-distributed unitary via QR of a complex Ginibre matrix.

    The R-diagonal phase correction makes the QR output exactly
    Haar-distributed rather than merely unitary.  The Ginibre matrix is
    rng.normals(counter, 2 d^2), so a sampler's stack at counter i holds
    this very matrix.
    """
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_unitaries(rng.normals(counter, 2 * d * d), d)


def haar_state(d: int, rng: RngStream, counter: int = 0) -> np.ndarray:
    """Haar-random unit vector (normalized complex Gaussian from rng.normals(counter, 2 d))."""
    if d < 1:
        raise ValueError("dimension must be >= 1")
    return _haar_states(rng.normals(counter, 2 * d), d)


def orthonormalize_hs(mats: Sequence[np.ndarray]) -> list[np.ndarray]:
    """HS-orthonormal basis of the span of `mats` (rank by singular values).
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles."""
    mats = list(mats)
    if not mats:
        raise ValueError("empty span")
    shape = mats[0].shape
    if any(m.shape != shape for m in mats):
        raise ValueError("matrices must share a common shape")
    stack = np.stack([np.asarray(m, dtype=complex).reshape(-1) for m in mats])
    _, s, vh = np.linalg.svd(stack, full_matrices=False)
    if s.size == 0 or s[0] <= 0:
        raise ValueError("span contains only zero matrices")
    rank = int(np.sum(s > RANK_RTOL * s[0]))
    return [vh[k].reshape(shape) for k in range(rank)]


def nullspace(m: np.ndarray, scale: float = 0.0) -> np.ndarray:
    """Orthonormal rows x with m @ x = 0.

    `scale` sets an absolute reference for the threshold: when the whole
    matrix is rounding noise (all singular values tiny), a purely relative
    cut would keep noise directions out of the nullspace.  The right-singular
    vectors are the conjugated rows of vh (columns of V); forgetting the
    conjugation returns the wrong space for complex input.  A tall matrix is
    first reduced to the R of its QR factorization, which has the same
    singular values and right-singular vectors at a fraction of the cost.
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles.
    """
    if m.shape[0] > m.shape[1]:
        m = np.linalg.qr(m, mode="r")
    _, s, vh = np.linalg.svd(m, full_matrices=m.shape[0] < m.shape[1])
    if s.size == 0:
        return vh.conj()
    keep = s <= RANK_RTOL * max(s[0], scale)
    return np.concatenate([vh[: s.size][keep], vh[s.size:]], axis=0).conj()
