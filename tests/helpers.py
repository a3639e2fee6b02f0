"""Shared fixture algebras and small utilities for the test suite."""

from __future__ import annotations

import math

import numpy as np

from manlab.algebras import (
    OperatorAlgebra,
    algebra_from_generators,
    compute_commutant,
    diagonal_masa,
    full_algebra,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from manlab.linalg import (
    RANK_RTOL,
    _haar_unitary_from_generator,
    dagger,
    orthonormalize_hs,
    swap_operator,
)
from manlab.man import _block_swap_trace, _iso_blocks
from manlab.protocols import (
    _STREAM_ORBIT,
    _STREAM_SHOTS,
    _STREAM_STATES,
    _STREAM_UNITARIES_A,
    _STREAM_UNITARIES_B,
)
from manlab.rng import RngStream

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)

# Columns are the four maximally entangled Bell vectors on C^2 (x) C^2.
BELL = np.array(
    [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [0, 0, 1, -1],
        [1, -1, 0, 0],
    ],
    dtype=complex,
) / np.sqrt(2)


def random_unitary(d: int, seed: int) -> np.ndarray:
    return _haar_unitary_from_generator(d, RngStream(seed).generator(0))


def random_matrix(d: int, seed: int) -> np.ndarray:
    gen = RngStream(seed).generator(1)
    return gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))


def fourier_basis(d: int) -> np.ndarray:
    omega = np.exp(2j * np.pi / d)
    return np.array([[omega ** (j * k) for k in range(d)] for j in range(d)]) / np.sqrt(d)


def symmetric_operator_algebra() -> OperatorAlgebra:
    """Commutant of {1, S} on (C^2)^(x 2): the symmetric operators."""
    swap = swap_operator([2], {0})
    return compute_commutant(algebra_from_generators([swap], 4))


def asymptotically_abelian_algebra(d: int) -> OperatorAlgebra:
    """(d-2) scalar blocks glued with one qubit block; NC = 3/(2d)."""
    return structural_algebra([(1, 1)] * (d - 2) + [(1, 2)])


def strip_structure(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Same algebra, no cached decomposition or commutant hints."""
    return OperatorAlgebra(alg.d, np.array(alg.basis, copy=True))


def factor_m2x1() -> OperatorAlgebra:
    return lattice_algebra([2, 2], {0})


def factor_1xm2() -> OperatorAlgebra:
    return lattice_algebra([2, 2], {1})


def bell_masa() -> OperatorAlgebra:
    return masa_from_unitary(BELL)


def concordance_pairs() -> list[tuple[str, OperatorAlgebra, OperatorAlgebra]]:
    """A matrix of labelled fixture pairs spanning d in {2, 3, 4, 8}."""
    m2 = factor_m2x1()
    w4 = random_unitary(4, 11)
    w3 = random_unitary(3, 12)
    pairs = [
        ("full2:full2", full_algebra(2), full_algebra(2)),
        ("diag2:had2", diagonal_masa(2), masa_from_unitary(HADAMARD)),
        ("full2:diag2", full_algebra(2), diagonal_masa(2)),
        ("triv2:full2", trivial_algebra(2), full_algebra(2)),
        ("diag3:fourier3", diagonal_masa(3), masa_from_unitary(fourier_basis(3))),
        ("asym3:full3", asymptotically_abelian_algebra(3), full_algebra(3)),
        ("asym3:fourier3", asymptotically_abelian_algebra(3), masa_from_unitary(fourier_basis(3))),
        ("rot3:diag3", structural_algebra([(1, 1), (1, 2)], basis_change=w3), diagonal_masa(3)),
        ("m2x1:full4", m2, full_algebra(4)),
        ("m2x1:bell", m2, bell_masa()),
        ("m2x1:prod4", m2, diagonal_masa(4)),
        ("m2x1:1xm2", m2, factor_1xm2()),
        ("m2x1:m2x1", m2, factor_m2x1()),
        ("sym22:full4", symmetric_operator_algebra(), full_algebra(4)),
        ("sym22:m2x1", symmetric_operator_algebra(), m2),
        ("sym22:bell", symmetric_operator_algebra(), bell_masa()),
        ("asym4:m2x1", asymptotically_abelian_algebra(4), m2),
        ("bell:prod4", bell_masa(), diagonal_masa(4)),
        ("rot4:bell", structural_algebra([(1, 2), (2, 1)], basis_change=w4), bell_masa()),
        ("full4:bell", full_algebra(4), bell_masa()),
        ("lat0:lat01", lattice_algebra([2, 2, 2], {0}), lattice_algebra([2, 2, 2], {0, 1})),
        ("lat01:lat12", lattice_algebra([2, 2, 2], {0, 1}), lattice_algebra([2, 2, 2], {1, 2})),
        ("lat0:lat12", lattice_algebra([2, 2, 2], {0}), lattice_algebra([2, 2, 2], {1, 2})),
        ("lat012:lat1", lattice_algebra([2, 2, 2], {0, 1, 2}), lattice_algebra([2, 2, 2], {1})),
    ]
    return pairs


# -- structure-solver and overlap references -----------------------------------
#
# The dense forms the block-data engine replaced: the closure that multiplies
# every pair of basis elements each round, the intersection as the joint
# nullspace of the two d^2 x d^2 HS-projector complements, and the projector
# overlap as a cross Gram of two bases.


def ref_algebra_from_generators(gens, d: int) -> OperatorAlgebra:
    mats = [np.eye(d, dtype=complex)]
    for g in gens:
        g = np.asarray(g, dtype=complex)
        mats += [g, dagger(g)]
    basis = orthonormalize_hs(mats)
    for _ in range(d * d + 1):
        products = [a @ b for a in basis for b in basis]
        new_basis = orthonormalize_hs(list(basis) + products)
        if len(new_basis) == len(basis):
            return OperatorAlgebra(d, np.stack(basis))
        basis = new_basis
    raise AssertionError("product closure did not stabilize")


def ref_algebra_intersection(a: OperatorAlgebra, b: OperatorAlgebra) -> OperatorAlgebra:
    eye = np.eye(a.d * a.d, dtype=complex)
    pa = a.projection_superoperator().transfer
    pb = b.projection_superoperator().transfer
    _, s, vh = np.linalg.svd(np.concatenate([eye - pa, eye - pb], axis=0))
    keep = s <= RANK_RTOL * max(s[0], 1.0)
    return OperatorAlgebra(a.d, vh[keep].conj().reshape(-1, a.d, a.d))


def ref_hs_overlap(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """Tr_HS(P_A P_B) from the dim(A) x dim(B) cross Gram of the orthonormal bases.

    The dense form the block overlap kernel replaced in man_collinear and in
    the exact protocol modes.
    """
    ra = a.basis.reshape(a.dim, -1)
    rb = b.basis.reshape(b.dim, -1)
    return float(np.sum(np.abs(ra.conj() @ rb.T) ** 2))


# -- per-sample reference loops ------------------------------------------------
#
# The Monte-Carlo estimators run on stacks of samples.  These loops are the
# one-sample-at-a-time form they replaced: a fresh generator per counter, one
# draw, one small matmul or projection at a time.  Same streams, counters and
# draw order, so a batched estimator must match them.


def ref_haar_unitary(d: int, gen: np.random.Generator) -> np.ndarray:
    z = (gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def ref_haar_state(d: int, gen: np.random.Generator) -> np.ndarray:
    z = gen.standard_normal(d) + 1j * gen.standard_normal(d)
    return z / np.linalg.norm(z)


def ref_haar_algebra_unitary(dec, rng: RngStream, counter: int) -> np.ndarray:
    gen = rng.generator(counter)
    u = np.zeros((dec.dim, dec.dim), dtype=complex)
    for b in dec.blocks:
        uj = ref_haar_unitary(b.d, gen)
        u += b.isometry @ np.kron(np.eye(b.n), uj) @ b.isometry.conj().T
    return u


def _ref_mean_and_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def ref_mc_man_direct(a, b, samples: int, rng: RngStream) -> tuple[float, float]:
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_a = rng.substream(_STREAM_UNITARIES_A)
    rng_b = rng.substream(_STREAM_UNITARIES_B)
    vals = np.empty(samples)
    for i in range(samples):
        u = ref_haar_algebra_unitary(dec_a, rng_a, i)
        v = ref_haar_algebra_unitary(dec_b, rng_b, i)
        vals[i] = float(np.sum(np.abs(u @ v - v @ u) ** 2)) / (2 * a.d)
    return _ref_mean_and_se(vals)


def ref_mc_orbit(a, b, samples: int, rng: RngStream) -> tuple[float, float]:
    d = a.d
    blocks_a, blocks_b = _iso_blocks(a), _iso_blocks(b)
    rng_orbit = rng.substream(_STREAM_ORBIT)
    vals = np.empty(samples)
    for i in range(samples):
        u = ref_haar_unitary(d, rng_orbit.generator(i))
        blocks_u = [(n, dj, u @ w) for n, dj, w in blocks_b]
        vals[i] = 1.0 - float(_block_swap_trace(blocks_a, blocks_u)) / d
    return _ref_mean_and_se(vals)


def _ref_project(alg, x: np.ndarray) -> np.ndarray:
    coeffs = np.einsum("kij,ij->k", alg.basis.conj(), x)
    return np.tensordot(coeffs, alg.basis, axes=1)


def _ref_swap_test(value: float, shots: int, gen: np.random.Generator) -> float:
    hits = gen.binomial(shots, (1.0 + value) / 2.0)
    return 2.0 * (hits / shots) - 1.0


def ref_stochastic(a, target, samples: int, shots, rng: RngStream) -> dict:
    """Per-sample x, y of the random-state protocol (target = B' or the center)."""
    d = a.d
    rng_states = rng.substream(_STREAM_STATES)
    shot_gen = rng.substream(_STREAM_SHOTS).generator(0) if shots else None
    xs = np.empty(samples)
    ys = np.empty(samples)
    for i in range(samples):
        phi = ref_haar_state(d, rng_states.generator(i))
        rho = np.outer(phi, phi.conj())
        pa = _ref_project(a, rho)
        pt = _ref_project(target, rho)
        x = float(np.real(np.sum(pa.conj() * pt)))
        y = float(np.real(np.sum(pa.conj() * pa)))
        if shots:
            x = _ref_swap_test(x, shots, shot_gen)
            y = _ref_swap_test(y, shots, shot_gen)
        xs[i] = x
        ys[i] = y
    offset = 1.0 / (d + 1)
    ratio = (np.mean(xs) - offset) / (np.mean(ys) - offset)
    return {"estimate": 1.0 - ratio, "mean_numerator": float(np.mean(xs)),
            "mean_denominator": float(np.mean(ys))}


def ref_restricted_distance(u, v, observer, rho) -> float:
    delta = u.conj().T @ rho @ u - v.conj().T @ rho @ v
    total = 0.0
    for blk in observer.decomposition().blocks:
        iso = blk.isometry
        g = (iso.conj().T @ delta @ iso).reshape(blk.n, blk.d, blk.n, blk.d)
        m = np.einsum("plpm->lm", g)
        total += float(np.sum(np.abs(np.linalg.eigvalsh((m + m.conj().T) / 2))))
    return total


def ref_markov(a, b, epsilon: float, samples: int, state_samples: int,
               rng: RngStream) -> tuple[float, float]:
    """(probability, max_distance) of the Markov tail check."""
    dec_a = a.decomposition()
    rng_u = rng.substream(_STREAM_UNITARIES_A)
    rng_v = rng.substream(_STREAM_UNITARIES_B)
    rng_s = rng.substream(_STREAM_STATES)
    hits = 0
    overall_max = 0.0
    for i in range(samples):
        u = ref_haar_algebra_unitary(dec_a, rng_u, i)
        v = ref_haar_algebra_unitary(dec_a, rng_v, i)
        best = 0.0
        for j in range(state_samples):
            phi = ref_haar_state(a.d, rng_s.generator(i * state_samples + j))
            best = max(best, ref_restricted_distance(u, v, b, np.outer(phi, phi.conj())))
        overall_max = max(overall_max, best)
        if best >= epsilon:
            hits += 1
    return hits / samples, overall_max
