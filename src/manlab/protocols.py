"""Monte-Carlo oracle, operational protocol simulators and the Markov check.

The direct oracle averages the defining commutator norm over Haar unitaries
drawn inside each algebra.  The two protocol simulators estimate the same
quantity the way a laboratory would: swap-test expectations over Choi-type
"algebra states" (protocol 1) and over projected Haar-random pure states
(protocol 2).  Shot noise, when requested, is binomial on the swap-test
outcome probabilities.  Every estimator reads a state through one block
reduction, ``purestates.reduced`` in the decomposition's frame, at O(d^2)
work per state; only ``manlab.oracles`` builds the d^2 x d^2 algebra states.

The estimators read an algebra's Haar unitaries in the algebra's frame and
never form them as d x d matrices: with U = V_A D_A V_A^dag, D_A =
sum_J 1_{n_J} (x) U_J block diagonal (``algebras._haar_block_diagonal``),
and X = V_A^dag W_B fixed for a call, the direct oracle reads ||[U, V]|| as
||[D_A, X D_B X^dag]|| and the Markov check reads W_B^dag U^dag phi as
X^dag D_A^dag (V_A^dag phi).  The per-block composition of U serves
``haar_algebra_unitary`` alone.

Sample i of every estimator draws from the stream at counter i, so estimates
are reproducible from (seed, samples) regardless of evaluation order or
chunking.  The estimators work on stacks: the normals of a chunk of samples
come from one vectorized counter-hash call per stream
(``RngStream.normal_rows``, whose row i - start is ``normals(i, width)``),
and the linear algebra (QR, commutators, projections, block traces,
eigenvalues) then runs once per chunk on the whole stack.  ``_per_sample``
drives the chunks of every sampled estimator, each in its own call, so a
chunk's arrays are released before the next is drawn.  The binomial shot
noise of ``shots`` comes from the same hash (``RngStream.uniform_rows``):
swap-test value j draws at counter j of its own stream, by inversion at small
means and by Hormann's BTRS otherwise.  Chunks hold at most
``_CHUNK_ELEMENTS`` = 8192 stacked matrix entries (128 KiB per complex
array), which keeps memory flat and is large enough that a chunk at small d
pays for its arithmetic rather than for numpy's per-call overhead; the chunk
size never changes a result, because each sample is computed from its own
counter and the per-sample values are reduced only after all chunks are
done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Optional

import numpy as np

from .algebras import (
    OperatorAlgebra,
    _check_same_ambient,
    _conjugate_decomposition,
    _haar_block_diagonal,
    center,  # noqa: F401  (perfbench/tracer.py patches this name here)
    haar_algebra_unitary,  # noqa: F401  (perfbench/tracer.py patches this name here)
)
from .errors import (
    AlgebraError,
    IllConditionedEstimatorError,
    NonCollinearError,
)
from .linalg import _haar_states, _haar_unitaries, dagger
from .man import _block_swap_trace, _projection_overlap, man_omega
from .masa import _check_unitary
from .purestates import PairOverlaps, amplitudes, center_overlaps, reduce_amplitudes
from .report import CLAMP_MARGIN, clamp_unit
from .rng import RngStream

# Sub-stream roles, so one user seed drives independent draw families.
_STREAM_UNITARIES_A = 1
_STREAM_UNITARIES_B = 2
_STREAM_STATES = 3
_STREAM_SHOTS = 4
_STREAM_ORBIT = 5

# Upper bound on the stacked matrix entries of one chunk (samples x entries
# per sample): 128 KiB per stacked complex array.  At d <= 16 a chunk's cost
# is numpy's per-call overhead, so fewer, larger chunks are cheaper, but
# memory grows with the budget: the largest peak RSS of one d <= 16 command
# reads about 33.0 MiB at 4096 and at 8192, 34.4 MiB at 16384 and 39.9 MiB
# at 65536 (child processes, numpy 2.4).
_CHUNK_ELEMENTS = 8192

__all__ = [
    "EstimatorResult",
    "MarkovCheckReport",
    "markov_bound_check",
    "mc_man_direct",
    "mc_orbit_averaged_man",
    "protocol_choi",
    "protocol_stochastic",
    "restricted_distance",
]


@dataclass(frozen=True)
class EstimatorResult:
    estimate: float
    std_error: float
    samples: int
    method: str
    seed: int
    stream: int = 0
    shots_per_swap: Optional[int] = None
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return dict(vars(self))


def _result(method: str, estimate: float, std_error: float, rng: Optional[RngStream],
            samples: int = 0, shots: Optional[int] = None,
            extras: Optional[dict] = None) -> EstimatorResult:
    """The one builder of an EstimatorResult; given no stream, seed and stream read 0."""
    return EstimatorResult(
        estimate=estimate, std_error=std_error, samples=samples, method=method,
        seed=rng.seed if rng else 0, stream=rng.stream if rng else 0,
        shots_per_swap=shots, extras=extras or {},
    )


def _check_denominator(den: float, se: float) -> None:
    """Refuse a ratio estimate whose denominator is within 3 standard errors of zero."""
    if abs(den) <= 3.0 * se:
        raise IllConditionedEstimatorError(
            f"denominator estimate {den:.3e} is within 3 std errors ({se:.3e}) of zero"
        )


def _per_sample(samples: int, per_sample: int, chunk, *shape: int) -> np.ndarray:
    """The values of samples 0..samples-1, a (samples, *shape) array, from chunk(start, stop).

    Each chunk covers as many samples as fit the element budget at
    `per_sample` entries each, and is computed in its own call, so one
    chunk's arrays are released before the next chunk is drawn.
    """
    out = np.empty((samples, *shape))
    step = max(1, _CHUNK_ELEMENTS // per_sample)
    for start in range(0, samples, step):
        stop = min(start + step, samples)
        out[start:stop] = chunk(start, stop)
    return out


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def mc_man_direct(
    a: OperatorAlgebra, b: OperatorAlgebra, samples: int, rng: RngStream
) -> EstimatorResult:
    """Unbiased sampling of the defining average ||[U, V]||^2 / (2d), read in A's frame.

    With U = V_A D_A V_A^dag and V = W_B D_B W_B^dag (D block diagonal, from
    _haar_block_diagonal), the norm is ||D_A G - G D_A|| with
    G = X D_B X^dag and X = V_A^dag W_B fixed for the call: four stacked
    products per chunk, whatever the block count.  The difference is taken
    directly; the expanded 2d - 2 Re Tr(U V U^dag V^dag) would cancel
    catastrophically for a commuting pair.
    """
    _check_same_ambient(a, b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = a.d
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_a = rng.substream(_STREAM_UNITARIES_A)
    rng_b = rng.substream(_STREAM_UNITARIES_B)
    x = dagger(dec_a.frame) @ dec_b.frame
    x_dag = dagger(x)

    def chunk(start, stop):
        d_a = _haar_block_diagonal(dec_a, rng_a, start, stop)
        g = x @ _haar_block_diagonal(dec_b, rng_b, start, stop) @ x_dag
        comm = (d_a @ g - g @ d_a).reshape(stop - start, -1)
        return np.sum(np.abs(comm) ** 2, axis=1) / (2 * d)

    return _result("mc.direct", *_mean_and_se(_per_sample(samples, d * d, chunk)), rng, samples)


def _self_mode(a: OperatorAlgebra, b: Optional[OperatorAlgebra]) -> bool:
    """Check a protocol's inputs; True for the self variant (b omitted)."""
    if not a.decomposition().summary.collinear:
        raise NonCollinearError("protocol requires the first algebra to be collinear")
    if b is None:
        return True
    _check_same_ambient(a, b)
    return False


# Shot counts: values with a mean shots * min(p, 1 - p) below _INVERSION_MEAN
# invert one uniform; the others run BTRS on _BTRS_PAIRS candidate pairs per
# block of words, and _SHOT_CHUNK values at a time keep the arrays small.
_INVERSION_MEAN = 10.0
_BTRS_PAIRS = 6
_SHOT_CHUNK = 1024
# log k! - (k + 1/2) log(k + 1) + k + 1 - log(2 pi)/2, the Stirling tail, for k < 10
_STIRLING_TAIL = np.array([math.lgamma(k + 1) - (k + 0.5) * math.log(k + 1) + k + 1
                           - 0.5 * math.log(2 * math.pi) for k in range(10)])


def _stirling_tail(k: np.ndarray) -> np.ndarray:
    x2 = (k + 1.0) ** 2
    series = (1 / 12 - (1 / 360 - (1 / 1260 - 1 / (1680 * x2)) / x2) / x2) / (k + 1.0)
    return np.where(k < 10, _STIRLING_TAIL[np.minimum(k, 9).astype(np.intp)], series)


def _inversion(n: float, q: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Binomial(n, q) counts by inverting u, walking the pmf up from k = 0."""
    ratio = q / (1.0 - q)
    pmf = np.exp(n * np.log1p(-q))
    cdf = pmf.copy()
    k = np.zeros_like(q)
    # stop where the cdf passes u, at k = n, or where the pmf tail underflows
    walk = np.flatnonzero(u > cdf)
    while walk.size:
        kw = k[walk]
        pmf[walk] *= (n - kw) / (kw + 1.0) * ratio[walk]
        k[walk] = kw + 1.0
        cdf[walk] += pmf[walk]
        walk = walk[(u[walk] > cdf[walk]) & (pmf[walk] > 0.0)]
    return k


def _btrs(n: float, q: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hormann's BTRS on the candidate pairs (u, v) = words (2i, 2i + 1) of each row.

    q is a column with q <= 1/2 and n q >= 10.  Returns each row's first
    accepted count and whether the row accepted any.
    """
    u, v = words[:, 0::2], words[:, 1::2]
    spq = np.sqrt(n * q * (1.0 - q))
    b = 1.15 + 2.53 * spq
    a = -0.0873 + 0.0248 * b + 0.01 * q
    us = np.maximum(0.5 - np.abs(u - 0.5), 2.0**-54)
    k = np.floor((2.0 * a / us + b) * (u - 0.5) + n * q + 0.5)
    accept = (k >= 0.0) & (k <= n)
    squeeze = accept & (us >= 0.07) & (v <= 0.92 - 4.2 / b)
    # the full test only for the candidates before a row's first squeeze
    last = np.where(squeeze.any(axis=1), squeeze.argmax(axis=1), u.shape[1])
    accept &= ~squeeze & (np.arange(u.shape[1]) < last[:, None])
    r, c = np.nonzero(accept)
    qr, kr, usr = q[r, 0], k[r, c], us[r, c]
    # log pmf(k)/pmf(m) in terms that stay accurate up to n = 2**53
    m = np.floor((n + 1.0) * qr)
    dk = kr - m
    log_ratio = (dk * np.log(qr * (n - kr + 1.0) / ((1.0 - qr) * (kr + 1.0)))
                 - (m + 0.5) * np.log1p(dk / (m + 1.0))
                 - (n - m + 0.5) * np.log1p(-dk / (n - m + 1.0))
                 + _stirling_tail(m) + _stirling_tail(n - m)
                 - _stirling_tail(kr) - _stirling_tail(n - kr))
    br = b[r, 0]
    hat = v[r, c] * (2.83 + 5.1 / br) * spq[r, 0] / (a[r, 0] / usr**2 + br)
    accept[r, c] = np.log(hat) <= log_ratio
    accept |= squeeze
    first = accept.argmax(axis=1)
    rows = np.arange(len(first))
    return k[rows, first], accept[rows, first]


def _binomial(shots: int, p: np.ndarray, rng: RngStream) -> np.ndarray:
    """Exact Binomial(shots, p_j) counts; value j draws from counter j of rng alone.

    The count of value j does not depend on the other values or on chunking.
    A value whose BTRS block accepts no pair takes the next block of words
    of its own counter.  shots is at most 2**53, so every count is exact.
    """
    if not np.all((p >= 0.0) & (p <= 1.0)):
        raise ValueError("swap-test probabilities must lie in [0, 1]")
    n = float(shots)
    flip = p > 0.5
    q = np.where(flip, 1.0 - p, p)
    small = n * q < _INVERSION_MEAN
    width = 2 * _BTRS_PAIRS
    counts = np.empty(p.size)
    for start in range(0, p.size, _SHOT_CHUNK):
        stop = min(start + _SHOT_CHUNK, p.size)
        words = rng.uniform_rows(start, stop, width)
        inv = np.flatnonzero(small[start:stop])
        counts[start + inv] = _inversion(n, q[start + inv], words[inv, 0])
        big = np.flatnonzero(~small[start:stop])
        qb = q[start + big, None]
        k, hit = _btrs(n, qb, words[big])
        for i in np.flatnonzero(~hit):
            j = start + int(big[i])
            block = 1
            while not hit[i]:
                block += 1
                w = rng.uniform_rows(j, j + 1, block * width)[:, -width:]
                (k[i],), (hit[i],) = _btrs(n, qb[i:i + 1], w)
        counts[start + big] = k
    return np.where(flip, n - counts, counts)


def _check_shots(shots: int) -> None:
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if shots > 2**53:
        raise ValueError("shots must be at most 2**53, where float64 counts stop being exact")


def _swap_tests(values: np.ndarray, shots: int, rng: RngStream):
    """Simulated swap tests: binomial draws on p = (1 + value)/2 over N shots each.

    Value j of `values` draws at counter j of `rng`; returns the estimates
    and their standard errors.  Values within CLAMP_MARGIN of [-1, 1] snap into
    it, as in clamp_unit (||P_A rho||^2 reads 1 + 7e-16 when A = M_d).
    """
    values = np.where(np.abs(values) <= 1.0 + CLAMP_MARGIN, np.clip(values, -1.0, 1.0), values)
    p_hat = _binomial(shots, (1.0 + values) / 2.0, rng) / shots
    se = 2.0 * np.sqrt(np.maximum(p_hat * (1.0 - p_hat), 1.0 / (4 * shots)) / shots)
    return 2.0 * p_hat - 1.0, se


def protocol_choi(
    a: OperatorAlgebra,
    b: Optional[OperatorAlgebra] = None,
    shots: Optional[int] = None,
    rng: Optional[RngStream] = None,
    log_base: float = 2.0,
) -> EstimatorResult:
    """Algebra-state protocol: S = 1 - Tr(S w(A) (x) w(B'))/||w(A)||^2.

    With b omitted this is the self variant: the numerator becomes the purity
    of the center's algebra state.  shots=None evaluates the swap expectations
    exactly; otherwise each is a binomial swap-test simulation.  The algebra
    states are Choi states of the HS projections, so the swap expectations
    are Tr(P_A P_T)/d^2 and d(A)/d^2: both come from block data, and no
    state is built.
    """
    self_mode = _self_mode(a, b)
    overlap, target_dim = _projection_overlap(a, None if self_mode else b)
    num = overlap / a.d**2
    den = a.dim / a.d**2
    extras = {
        "numerator": num,
        "denominator": den,
        "target_dim": target_dim,
        "self_mode": self_mode,
    }
    if self_mode:
        # algebra-state purities are d(X)/d^2 exactly, so the Renyi-2 gap is
        # log(d(A)/d(Z)); from the dimensions it carries no rounding
        extras["nc2"] = math.log(a.dim / target_dim) / math.log(log_base)
    if shots is None:
        return _result("protocol.choi", clamp_unit(1.0 - num / den), 0.0, rng, extras=extras)
    if rng is None:
        raise ValueError("shot-noise mode needs an RngStream")
    _check_shots(shots)
    (num_hat, den_hat), (num_se, den_se) = _swap_tests(
        np.array([num, den]), shots, rng.substream(_STREAM_SHOTS))
    num_hat, den_hat = float(num_hat), float(den_hat)
    _check_denominator(den_hat, den_se)
    ratio = num_hat / den_hat
    se = math.sqrt((num_se / den_hat) ** 2 + (num_hat * den_se / den_hat**2) ** 2)
    extras.update({"numerator_estimate": num_hat, "denominator_estimate": den_hat})
    return _result("protocol.choi", 1.0 - ratio, se, rng, shots=shots, extras=extras)


def protocol_stochastic(
    a: OperatorAlgebra,
    b: Optional[OperatorAlgebra] = None,
    samples: Optional[int] = None,
    shots: Optional[int] = None,
    rng: Optional[RngStream] = None,
) -> EstimatorResult:
    """Random-state protocol: paired purity/overlap averages over Haar states.

    samples=None evaluates both expectations exactly (two-design identity);
    sampled mode reuses the same state draws for numerator and denominator:
    x = <P_A rho, P_T rho> and y = ||P_A rho||^2, with T = B', or T = Z(A) in
    the b=None self variant.  Both projections act on each state from block
    data (manlab.purestates); no basis, commutant or center algebra is
    built.
    """
    self_mode = _self_mode(a, b)
    if shots is not None:
        _check_shots(shots)
        if samples is None:
            raise ValueError("shots need sampled mode: the exact mode draws no swap tests")
    d = a.d
    offset = 1.0 / (d + 1)
    if samples is None:
        cross, _ = _projection_overlap(a, None if self_mode else b)
        e_num = (cross + d) / (d * (d + 1))
        e_den = (a.dim + d) / (d * (d + 1))
        s = clamp_unit(1.0 - (e_num - offset) / (e_den - offset))
        return _result("protocol.stochastic", s, 0.0, rng,
                       extras={"mean_numerator": e_num, "mean_denominator": e_den,
                               "self_mode": self_mode})
    if samples < 2:
        raise ValueError("sampled mode needs samples >= 2")
    if rng is None:
        raise ValueError("sampled mode needs an RngStream")
    if self_mode:
        overlaps = partial(center_overlaps, a.decomposition())
    else:
        overlaps = PairOverlaps(a.decomposition(), b.commutant_algebra().decomposition())
    rng_states = rng.substream(_STREAM_STATES)
    xy = _per_sample(samples, d * d, lambda start, stop: overlaps(
        _haar_states(rng_states.normal_rows(start, stop, 2 * d), d)), 2)
    if shots is not None:
        # value j of x_0, y_0, x_1, y_1, ... draws at counter j of the shot stream
        xy = _swap_tests(xy.reshape(-1), shots, rng.substream(_STREAM_SHOTS))[0].reshape(samples, 2)
    xs, ys = np.ascontiguousarray(xy.T)
    mean_x, se_x = _mean_and_se(xs)
    mean_y, se_y = _mean_and_se(ys)
    den = mean_y - offset
    _check_denominator(den, se_y)
    num = mean_x - offset
    ratio = num / den
    # delta method: Var(x - ratio y) / (samples den^2), taken on the residuals
    # themselves, so x = y sample by sample gives exactly zero
    se = math.sqrt(float(np.var(xs - ratio * ys, ddof=1)) / samples) / abs(den)
    return _result("protocol.stochastic", 1.0 - ratio, se, rng, samples, shots,
                   extras={"mean_numerator": mean_x, "mean_denominator": mean_y,
                           "se_numerator": se_x, "se_denominator": se_y,
                           "self_mode": self_mode})


def restricted_distance(
    u: np.ndarray,
    v: np.ndarray,
    observer: OperatorAlgebra,
    rho0: np.ndarray,
) -> float:
    """Largest expectation gap the observer algebra can see between U, V encodings.

    The supremum over X in the algebra with ||X||_inf <= 1 decouples over
    central blocks: with Delta = U^dag rho U - V^dag rho V it equals
    sum_J ||Tr_{n_J}(Pi_J Delta Pi_J)||_1 by trace-norm duality on each block.
    """
    d = observer.d
    for w in (u, v):
        if w.shape != (d, d):
            raise AlgebraError("encoding operators must be unitaries of matching dimension")
        _check_unitary(w)
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise AlgebraError("state has wrong shape")
    if not np.isfinite(rho0).all():
        raise AlgebraError("rho0 has non-finite entries")
    if np.linalg.norm(rho0 - dagger(rho0)) > 1e-8 or abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise AlgebraError("rho0 must be hermitian with unit trace")
    lam, vecs = np.linalg.eigh((rho0 + dagger(rho0)) / 2)
    if lam.min() < -1e-9:
        raise AlgebraError("rho0 must be positive semi-definite")
    # rho = sum_k lam_k |e_k><e_k| with signed lam, and U^dag e_k is row k of e^T conj(U)
    psi, chi = vecs.T @ u.conj(), vecs.T @ v.conj()
    return float(_restricted_distances(observer.decomposition(), psi[None], chi[None], lam[None])[0])


def _restricted_distances(dec, psi, chi, weights) -> np.ndarray:
    """sum_J ||sum_s w_s (R_J(psi_s) - R_J(chi_s))||_1 per group, without input checks.

    dec is the observer's decomposition, psi and chi are (g, s, d) stacks of
    states and weights is (g, s).
    """
    g, s, d = psi.shape
    return _frame_distances(dec, *(amplitudes(dec, w.reshape(g * s, d)) for w in (psi, chi)), weights)


def _frame_distances(dec, psi, chi, weights) -> np.ndarray:
    """_restricted_distances for the states' amplitudes in dec's frame, as (g s, d) rows.

    R_J comes from purestates.reduce_amplitudes, which builds it exactly hermitian.
    """
    g, s = weights.shape
    total = np.zeros(g)
    for r_psi, r_chi in zip(reduce_amplitudes(dec, psi), reduce_amplitudes(dec, chi)):
        gap = np.einsum("gs,gsblm->gblm", weights, (r_psi - r_chi).reshape(g, s, *r_psi.shape[1:]))
        total += np.sum(np.abs(np.linalg.eigvalsh(gap)), axis=(-2, -1))  # one call per class
    return total


@dataclass(frozen=True)
class MarkovCheckReport:
    probability: float
    probability_se: float
    bound: float
    bound_alt: float
    c_value: float
    c_value_alt: float
    epsilon: float
    S: float
    samples: int
    state_samples: int
    seed: int
    violated: bool
    max_distance: float

    def to_dict(self) -> dict:
        return dict(vars(self))


def markov_bound_check(
    a: OperatorAlgebra,
    b: OperatorAlgebra,
    epsilon: float,
    samples: int = 1000,
    state_samples: int = 32,
    rng: Optional[RngStream] = None,
) -> MarkovCheckReport:
    """Empirical tail probability of the restricted distance vs. its bound.

    The sup over initial states is lower-bounded by a max over sampled pure
    states, which keeps the test one-sided: any observed violation of the
    bound is a genuine one.  The constant is c(B) = 2 sqrt(2 d(B) r) with
    r = max_J d_J/n_J over the observer's blocks; the alternative reading
    with r outside the square root is reported alongside for comparison.

    The observer reads U^dag phi in B's frame: with U = V_A D_U V_A^dag (D_U
    block diagonal, from _haar_block_diagonal) and X = V_A^dag W_B,
    W_B^dag U^dag phi = X^dag D_U^dag (V_A^dag phi), so neither U nor V is
    formed.  Every product is taken per sample on its (state_samples, d)
    block of rows, so the chunking cannot change a value.
    """
    if not 0 < epsilon < math.inf:
        raise ValueError("epsilon must be positive and finite")
    if samples < 1 or state_samples < 1:
        raise ValueError("samples and state_samples must be >= 1")
    _check_same_ambient(a, b)
    rng = rng or RngStream(0)
    s_value = man_omega(a, b).S
    dec_a = a.decomposition()
    dec_b = b.decomposition()
    ratio_max = max(dj / n for n, dj, _, _ in dec_b.classes)
    d_b = dec_b.summary.d_alg
    c_value = 2.0 * math.sqrt(2.0 * d_b * ratio_max)
    c_alt = 2.0 * math.sqrt(2.0 * d_b) * ratio_max
    # an S within CLAMP_MARGIN of 0 is the rounding of a commuting pair's exact
    # 0, which the square root would lift to ~1e-8
    root_s = math.sqrt(s_value) if s_value > CLAMP_MARGIN else 0.0
    bound = a.d * c_value / epsilon * root_s
    bound_alt = a.d * c_alt / epsilon * root_s
    rng_u = rng.substream(_STREAM_UNITARIES_A)
    rng_v = rng.substream(_STREAM_UNITARIES_B)
    rng_s = rng.substream(_STREAM_STATES)
    d = a.d
    # as rows, W_B^dag U^dag phi is phi^T conj(V_A) conj(D_U) conj(X)
    frame_conj = dec_a.frame.conj()
    x_conj = (dagger(dec_a.frame) @ dec_b.frame).conj()

    def chunk(start, stop):
        # state j of sample i sits at counter i * state_samples + j
        rows = rng_s.normal_rows(start * state_samples, stop * state_samples, 2 * d)
        amp = _haar_states(rows, d).reshape(stop - start, state_samples, d) @ frame_conj
        psi, chi = ((amp @ _haar_block_diagonal(dec_a, r, start, stop).conj() @ x_conj)
                    .reshape(-1, d) for r in (rng_u, rng_v))
        dist = _frame_distances(dec_b, psi, chi, np.ones((len(psi), 1)))
        return dist.reshape(stop - start, state_samples).max(axis=1)

    best = _per_sample(samples, state_samples * d * d, chunk)
    hits = int(np.count_nonzero(best >= epsilon))
    overall_max = float(best.max())
    p_hat = hits / samples
    se = math.sqrt(p_hat * (1.0 - p_hat) / samples)
    violated = p_hat > bound + 5.0 * max(se, math.sqrt(0.25 / samples))
    return MarkovCheckReport(
        probability=p_hat, probability_se=se,
        bound=bound, bound_alt=bound_alt,
        c_value=c_value, c_value_alt=c_alt,
        epsilon=epsilon, S=s_value,
        samples=samples, state_samples=state_samples,
        seed=rng.seed, violated=violated, max_distance=overall_max,
    )


def mc_orbit_averaged_man(
    a: OperatorAlgebra, b: OperatorAlgebra, samples: int, rng: RngStream
) -> EstimatorResult:
    """Monte-Carlo estimate of E_U[S(A : U(B))] over Haar unitaries U."""
    _check_same_ambient(a, b)
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = a.d
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_orbit = rng.substream(_STREAM_ORBIT)

    def chunk(start, stop):
        u = _haar_unitaries(rng_orbit.normal_rows(start, stop, 2 * d * d), d)
        return 1.0 - _block_swap_trace(dec_a, _conjugate_decomposition(dec_b, u)) / d

    return _result("mc.orbit", *_mean_and_se(_per_sample(samples, d * d, chunk)), rng, samples)
