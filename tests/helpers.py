"""Shared fixture algebras and small utilities for the test suite."""

from __future__ import annotations

import math

import numpy as np

from manlab import protocols
from manlab.algebras import (
    OperatorAlgebra,
    StructuralDecomposition,
    algebra_from_basis,
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
    dagger,
    orthonormalize_hs,
)
from manlab.man import _block_swap_trace
from manlab.oracles import block_bases, swap_operator
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
    return ref_haar_unitary(d, RngStream(seed).generator(0).standard_normal(2 * d * d))


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
    """Same algebra from a copy of its basis alone: born through the spectral solve,
    with no frame or commutant carried over."""
    return algebra_from_basis(alg.d, np.array(alg.basis, copy=True))


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
# every pair of basis elements each round, the Krylov closure that builds A's
# basis from the letters, the intersection as the joint nullspace of the two
# d^2 x d^2 HS-projector complements, and the projector overlap as a cross
# Gram of two bases.


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
            return algebra_from_basis(d, np.stack(basis))
        basis = new_basis
    raise AssertionError("product closure did not stabilize")


def krylov_closure(gens, d: int) -> OperatorAlgebra:
    """A's basis from the letters, the generators and their adjoints at unit HS norm.

    The words of length <= L+1 span the words of length <= L plus the letters
    times the words new at length L, so a round multiplies only the
    directions the round before found.  The basis is projected out of those
    products twice (Gram-Schmidt with re-orthogonalization), and the residual
    directions with singular value above RANK_RTOL join the basis.
    """
    letters = []
    for g in gens:
        g = np.asarray(g, dtype=complex)
        norm = np.linalg.norm(g)
        if norm > 0:
            letters += [g / norm, dagger(g) / norm]
    basis = np.eye(d, dtype=complex).reshape(1, d * d) / np.sqrt(d)
    new = basis
    for _ in range(d * d + 1):
        if not letters or not len(new):
            return algebra_from_basis(d, basis.reshape(-1, d, d))
        products = (np.stack(letters)[:, None] @ new.reshape(1, -1, d, d)).reshape(-1, d * d)
        for _ in range(2):
            products -= (products @ basis.conj().T) @ basis
        _, s, vh = np.linalg.svd(products, full_matrices=False)
        new = vh[s > RANK_RTOL]
        basis = np.concatenate([basis, new])
    raise AssertionError("Krylov closure did not stabilize")


def ref_algebra_intersection(a: OperatorAlgebra, b: OperatorAlgebra) -> OperatorAlgebra:
    eye = np.eye(a.d * a.d, dtype=complex)
    pa = a.projection_superoperator().transfer
    pb = b.projection_superoperator().transfer
    _, s, vh = np.linalg.svd(np.concatenate([eye - pa, eye - pb], axis=0))
    keep = s <= RANK_RTOL * max(s[0], 1.0)
    return algebra_from_basis(a.d, vh[keep].conj().reshape(-1, a.d, a.d))


def ref_hs_overlap(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """Tr_HS(P_A P_B) from the dim(A) x dim(B) cross Gram of the orthonormal bases.

    The dense form the block overlap kernel replaced in man_collinear and in
    the exact protocol modes.
    """
    ra = a.basis.reshape(a.dim, -1)
    rb = b.basis.reshape(b.dim, -1)
    return float(np.sum(np.abs(ra.conj() @ rb.T) ** 2))


def ref_omega(alg: OperatorAlgebra) -> np.ndarray:
    """Omega_A = sum_a e_a (x) e_a^dag over A's block basis: the d^4 reference.

    Independent of manlab.oracles.omega_operator, which conjugates swap cores
    into place block by block.
    """
    d = alg.d
    omega = np.zeros((d * d, d * d), dtype=complex)
    for e in block_bases(alg.decomposition()).e:
        omega += np.kron(e, dagger(e))
    return omega


def ref_projection_purity(a: OperatorAlgebra, b: OperatorAlgebra) -> float:
    """sum_a ||P_B'(e_a)||^2 over A's block basis, P_B' from the dense basis of B'.

    The dense form man_projection evaluated before it worked on block data.
    """
    b_comm = b.commutant_algebra()
    rows = b_comm.basis.reshape(b_comm.dim, -1).conj()
    return sum(float(np.sum(np.abs(rows @ e.reshape(-1)) ** 2))
               for e in block_bases(a.decomposition()).e)


def ref_entropy_man(a: OperatorAlgebra, b: OperatorAlgebra) -> tuple[float, list]:
    """entropy_decomposition_man's sum, unclamped, with P_A' from the dense basis of A',
    and per block of B its (mean pure, mixed) linear entropies."""
    a_comm = a.commutant_algebra()
    rows = a_comm.basis.reshape(a_comm.dim, -1).conj()
    total, per_block = 0.0, []
    for blk in b.decomposition().blocks:
        n, dj, iso = blk.n, blk.d, blk.isometry

        def compress(x):
            y = iso @ np.kron(np.eye(n) / n, x) @ iso.conj().T
            return float(np.sum(np.abs(rows @ y.reshape(-1)) ** 2))

        hs_sq = sum(compress(np.outer(np.eye(dj)[l], np.eye(dj)[m]))
                    for l in range(dj) for m in range(dj))
        id_sq = compress(np.eye(dj))
        e_slin, slin_mixed = 1.0 - (id_sq + hs_sq) / (dj * (dj + 1)), 1.0 - id_sq / dj**2
        p_j, a_j, b_j = n * dj / a.d, n * (dj + 1) / dj, 1.0 - n / dj
        total += p_j * (a_j * e_slin - n * slin_mixed + b_j)
        per_block.append((e_slin, slin_mixed))
    return total, per_block


# -- per-sample reference loops ------------------------------------------------
#
# The Monte-Carlo estimators run on stacks of samples.  These loops are the
# one-sample-at-a-time form they replaced: one rng.normals(i, width) call per
# counter, one small matmul or projection at a time.  Same streams, counters
# and draw order, so a batched estimator must match them.


def ref_haar_unitary(d: int, normals: np.ndarray) -> np.ndarray:
    """Haar unitary from 2 d^2 normals: the real parts first, then the imaginary parts."""
    z = (normals[: d * d].reshape(d, d) + 1j * normals[d * d: 2 * d * d].reshape(d, d)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r).copy()
    diag[diag == 0] = 1.0
    return q * (diag / np.abs(diag))


def ref_haar_state(d: int, normals: np.ndarray) -> np.ndarray:
    z = normals[:d] + 1j * normals[d: 2 * d]
    return z / np.linalg.norm(z)


def ref_haar_algebra_unitary(dec, rng: RngStream, counter: int) -> np.ndarray:
    normals = rng.normals(counter, sum(2 * b.d * b.d for b in dec.blocks))
    u = np.zeros((dec.dim, dec.dim), dtype=complex)
    offset = 0
    for b in dec.blocks:
        uj = ref_haar_unitary(b.d, normals[offset:])
        offset += 2 * b.d * b.d
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


def ref_block_diagonal(dec, rng: RngStream, counter: int) -> np.ndarray:
    """The draw of ref_haar_algebra_unitary read in dec's frame: sum_J 1_{n_J} (x) U_J."""
    normals = rng.normals(counter, sum(2 * b.d * b.d for b in dec.blocks))
    out = np.zeros((dec.dim, dec.dim), dtype=complex)
    offset = at = 0
    for b in dec.blocks:
        uj = ref_haar_unitary(b.d, normals[offset:])
        offset += 2 * b.d * b.d
        out[at: at + b.n * b.d, at: at + b.n * b.d] = np.kron(np.eye(b.n), uj)
        at += b.n * b.d
    return out


def ref_mc_direct_frame_values(a, b, samples: int, rng: RngStream) -> np.ndarray:
    """Per-sample ||[D_A, X D_B X^dag]||^2 / (2d) with X = V_A^dag W_B, one 2-D product at a time."""
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_a = rng.substream(_STREAM_UNITARIES_A)
    rng_b = rng.substream(_STREAM_UNITARIES_B)
    x = dec_a.frame.conj().T @ dec_b.frame
    vals = np.empty(samples)
    for i in range(samples):
        d_a = ref_block_diagonal(dec_a, rng_a, i)
        g = x @ ref_block_diagonal(dec_b, rng_b, i) @ x.conj().T
        vals[i] = float(np.sum(np.abs(d_a @ g - g @ d_a) ** 2)) / (2 * a.d)
    return vals


def ref_mc_man_direct_frame(a, b, samples: int, rng: RngStream) -> tuple[float, float]:
    return _ref_mean_and_se(ref_mc_direct_frame_values(a, b, samples, rng))


def ref_mc_orbit(a, b, samples: int, rng: RngStream) -> tuple[float, float]:
    d = a.d
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_orbit = rng.substream(_STREAM_ORBIT)
    vals = np.empty(samples)
    for i in range(samples):
        u = ref_haar_unitary(d, rng_orbit.normals(i, 2 * d * d))
        dec_u = StructuralDecomposition(u @ dec_b.frame, dec_b.shapes)
        vals[i] = 1.0 - float(_block_swap_trace(dec_a, dec_u)) / d
    return _ref_mean_and_se(vals)


def _ref_project(alg, x: np.ndarray) -> np.ndarray:
    coeffs = np.einsum("kij,ij->k", alg.basis.conj(), x)
    return np.tensordot(coeffs, alg.basis, axes=1)


def ref_binomial(shots: int, p: float, rng: RngStream, counter: int) -> int:
    """The shot sampler one value at a time: Binomial(shots, p) from `counter` alone.

    Inversion of word 0 below a mean of 10, else BTRS one candidate pair at a
    time through the blocks of words, with log-factorials from math.lgamma.
    """
    q = min(p, 1.0 - p)
    n = shots
    width = 2 * protocols._BTRS_PAIRS
    if n * q < protocols._INVERSION_MEAN:
        u = rng.uniform_rows(counter, counter + 1, 1)[0, 0]
        k, pmf = 0, math.exp(n * math.log1p(-q))
        cdf = pmf
        while u > cdf and pmf > 0.0:
            pmf *= (n - k) / (k + 1.0) * (q / (1.0 - q))
            k += 1
            cdf += pmf
    else:
        spq = math.sqrt(n * q * (1.0 - q))
        b = 1.15 + 2.53 * spq
        a = -0.0873 + 0.0248 * b + 0.01 * q
        m = math.floor((n + 1.0) * q)
        k, block = None, 0
        while k is None:
            block += 1
            words = rng.uniform_rows(counter, counter + 1, block * width)[0, -width:]
            for u, v in zip(words[0::2], words[1::2]):
                us = max(0.5 - abs(u - 0.5), 2.0**-54)
                cand = math.floor((2.0 * a / us + b) * (u - 0.5) + n * q + 0.5)
                if not 0 <= cand <= n:
                    continue
                if us >= 0.07 and v <= 0.92 - 4.2 / b:
                    k = cand
                    break
                log_ratio = (math.lgamma(m + 1) + math.lgamma(n - m + 1)
                             - math.lgamma(cand + 1) - math.lgamma(n - cand + 1)
                             + (cand - m) * math.log(q / (1.0 - q)))
                if math.log(v * (2.83 + 5.1 / b) * spq / (a / us**2 + b)) <= log_ratio:
                    k = cand
                    break
    return n - k if p > 0.5 else k


def _ref_swap_test(value: float, shots: int, rng: RngStream, counter: int) -> float:
    hits = ref_binomial(shots, (1.0 + value) / 2.0, rng, counter)
    return 2.0 * (hits / shots) - 1.0


def ref_stochastic(a, target, samples: int, shots, rng: RngStream) -> dict:
    """Per-sample x, y of the random-state protocol (target = B' or the center)."""
    d = a.d
    rng_states = rng.substream(_STREAM_STATES)
    rng_shots = rng.substream(_STREAM_SHOTS)
    xs = np.empty(samples)
    ys = np.empty(samples)
    for i in range(samples):
        phi = ref_haar_state(d, rng_states.normals(i, 2 * d))
        rho = np.outer(phi, phi.conj())
        pa = _ref_project(a, rho)
        pt = _ref_project(target, rho)
        x = float(np.real(np.sum(pa.conj() * pt)))
        y = float(np.real(np.sum(pa.conj() * pa)))
        if shots:
            # x_i and y_i are values 2i and 2i + 1 of the shot stream
            x = _ref_swap_test(x, shots, rng_shots, 2 * i)
            y = _ref_swap_test(y, shots, rng_shots, 2 * i + 1)
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
            phi = ref_haar_state(a.d, rng_s.normals(i * state_samples + j, 2 * a.d))
            best = max(best, ref_restricted_distance(u, v, b, np.outer(phi, phi.conj())))
        overall_max = max(overall_max, best)
        if best >= epsilon:
            hits += 1
    return hits / samples, overall_max
