"""Monte-Carlo oracle, operational protocol simulators and the Markov check.

The direct oracle averages the defining commutator norm over Haar unitaries
drawn inside each algebra.  The two protocol simulators estimate the same
quantity the way a laboratory would: swap-test expectations over Choi-type
"algebra states" (protocol 1) and over projected Haar-random pure states
(protocol 2).  Shot noise, when requested, is binomial on the swap-test
outcome probabilities.

Sample i of every estimator draws from the stream at counter i, so estimates
are reproducible from (seed, samples) regardless of evaluation order or
chunking.  The estimators work on stacks: the draws of a chunk of samples are
taken counter by counter (one repositioned generator per stream, see
``RngStream.generators``), and the linear algebra (QR, commutators,
projections, block traces, eigenvalues) then runs once per chunk on the whole
stack.  Chunks hold at most ``_CHUNK_ELEMENTS`` stacked matrix entries, which
keeps memory flat; the chunk size never changes a result, because each sample
is computed from its own counter and the per-sample values are reduced only
after all chunks are done.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebras import (
    OperatorAlgebra,
    _haar_algebra_unitaries,
    center,
    haar_algebra_unitary,  # noqa: F401  (perfbench/tracer.py patches this name here)
    is_collinear,
)
from .errors import (
    AlgebraError,
    IllConditionedEstimatorError,
    NonCollinearError,
)
from .linalg import _haar_states, _haar_unitaries, _normal_rows, dagger
from .man import _block_swap_trace, _iso_blocks, _projection_overlap, clamp_unit, man_omega
from .rng import RngStream

# Sub-stream roles, so one user seed drives independent draw families.
_STREAM_UNITARIES_A = 1
_STREAM_UNITARIES_B = 2
_STREAM_STATES = 3
_STREAM_SHOTS = 4
_STREAM_ORBIT = 5

# Upper bound on the stacked matrix entries of one chunk (samples x entries
# per sample); small, so a chunk adds well under a MiB to peak memory.
_CHUNK_ELEMENTS = 4096

__all__ = [
    "AlgebraState",
    "EstimatorResult",
    "MarkovCheckReport",
    "algebra_state",
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
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "samples": self.samples,
            "method": self.method,
            "seed": self.seed,
            "stream": self.stream,
            "shots_per_swap": self.shots_per_swap,
            "extras": dict(self.extras),
        }


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


def _chunks(samples: int, per_sample: int):
    """(start, stop) ranges covering range(samples), each within the element budget."""
    step = max(1, _CHUNK_ELEMENTS // per_sample)
    for start in range(0, samples, step):
        yield start, min(start + step, samples)


def _mean_and_se(values: np.ndarray) -> tuple[float, float]:
    mean = float(np.mean(values))
    if values.size < 2:
        return mean, 0.0
    return mean, float(np.std(values, ddof=1) / math.sqrt(values.size))


def mc_man_direct(
    a: OperatorAlgebra, b: OperatorAlgebra, samples: int, rng: RngStream
) -> EstimatorResult:
    """Unbiased sampling of the defining average ||[U, V]||^2 / (2d)."""
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    dec_a, dec_b = a.decomposition(), b.decomposition()
    rng_a = rng.substream(_STREAM_UNITARIES_A)
    rng_b = rng.substream(_STREAM_UNITARIES_B)
    vals = np.empty(samples)
    for start, stop in _chunks(samples, a.d * a.d):
        u = _haar_algebra_unitaries(dec_a, rng_a, start, stop)
        v = _haar_algebra_unitaries(dec_b, rng_b, start, stop)
        comm = (u @ v - v @ u).reshape(stop - start, -1)
        vals[start:stop] = np.sum(np.abs(comm) ** 2, axis=1) / (2 * a.d)
    mean, se = _mean_and_se(vals)
    return EstimatorResult(
        estimate=mean, std_error=se, samples=samples,
        method="mc.direct", seed=rng.seed, stream=rng.stream,
    )


def _self_mode(a: OperatorAlgebra, b: Optional[OperatorAlgebra]) -> bool:
    """Check a protocol's inputs; True for the self variant (b omitted or b is a)."""
    coll, _ = is_collinear(a.decomposition())
    if not coll:
        raise NonCollinearError("protocol requires the first algebra to be collinear")
    if b is None or b is a:
        return True
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")
    return False


def _swap_tests(values: np.ndarray, shots: int, gen: np.random.Generator):
    """Simulated swap tests: binomial draws on p = (1 + value)/2 over N shots each.

    One draw per value, in the order given, all from `gen`; returns the
    estimates and their standard errors.
    """
    p_hat = gen.binomial(shots, (1.0 + values) / 2.0) / shots
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
        s = clamp_unit(1.0 - num / den)
        return EstimatorResult(
            estimate=s, std_error=0.0, samples=0,
            method="protocol.choi", seed=rng.seed if rng else 0,
            stream=rng.stream if rng else 0, extras=extras,
        )
    if rng is None:
        raise ValueError("shot-noise mode needs an RngStream")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    gen = rng.substream(_STREAM_SHOTS).generator(0)
    (num_hat, den_hat), (num_se, den_se) = _swap_tests(np.array([num, den]), shots, gen)
    num_hat, den_hat = float(num_hat), float(den_hat)
    ratio = num_hat / den_hat
    se = math.sqrt((num_se / den_hat) ** 2 + (num_hat * den_se / den_hat**2) ** 2)
    extras.update({"numerator_estimate": num_hat, "denominator_estimate": den_hat})
    return EstimatorResult(
        estimate=1.0 - ratio, std_error=se, samples=0,
        method="protocol.choi", seed=rng.seed, stream=rng.stream,
        shots_per_swap=shots, extras=extras,
    )


def protocol_stochastic(
    a: OperatorAlgebra,
    b: Optional[OperatorAlgebra] = None,
    samples: Optional[int] = None,
    shots: Optional[int] = None,
    rng: Optional[RngStream] = None,
) -> EstimatorResult:
    """Random-state protocol: paired purity/overlap averages over Haar states.

    samples=None evaluates both expectations exactly (two-design identity);
    sampled mode reuses the same state draws for numerator and denominator.
    The b=None self variant replaces the numerator by the center's average
    state purity.
    """
    self_mode = _self_mode(a, b)
    if shots is not None and shots < 1:
        raise ValueError("shots must be >= 1")
    d = a.d
    offset = 1.0 / (d + 1)
    if samples is None:
        cross, _ = _projection_overlap(a, None if self_mode else b)
        e_num = (cross + d) / (d * (d + 1))
        e_den = (a.dim + d) / (d * (d + 1))
        s = clamp_unit(1.0 - (e_num - offset) / (e_den - offset))
        return EstimatorResult(
            estimate=s, std_error=0.0, samples=0,
            method="protocol.stochastic", seed=rng.seed if rng else 0,
            stream=rng.stream if rng else 0,
            extras={"mean_numerator": e_num, "mean_denominator": e_den,
                    "self_mode": self_mode},
        )
    if samples < 2:
        raise ValueError("sampled mode needs samples >= 2")
    if rng is None:
        raise ValueError("sampled mode needs an RngStream")
    target = center(a) if self_mode else b.commutant_algebra()
    rng_states = rng.substream(_STREAM_STATES)
    xy = np.empty((samples, 2))
    for start, stop in _chunks(samples, d * d):
        phi = _haar_states(_normal_rows(rng_states, start, stop, 2 * d), d)
        rho = phi[:, :, None] * phi.conj()[:, None, :]
        pa = a.project(rho).reshape(stop - start, -1)
        pt = target.project(rho).reshape(stop - start, -1)
        xy[start:stop, 0] = np.real(np.sum(pa.conj() * pt, axis=1))
        xy[start:stop, 1] = np.real(np.sum(pa.conj() * pa, axis=1))
    if shots is not None:
        # one shot stream, drawn in the order x_0, y_0, x_1, y_1, ...
        shot_gen = rng.substream(_STREAM_SHOTS).generator(0)
        xy = _swap_tests(xy.reshape(-1), shots, shot_gen)[0].reshape(samples, 2)
    xs, ys = np.ascontiguousarray(xy.T)
    mean_x, se_x = _mean_and_se(xs)
    mean_y, se_y = _mean_and_se(ys)
    den = mean_y - offset
    if abs(den) <= 3.0 * se_y:
        raise IllConditionedEstimatorError(
            f"denominator estimate {den:.3e} is within 3 std errors ({se_y:.3e}) of zero"
        )
    num = mean_x - offset
    ratio = num / den
    cov = float(np.cov(xs, ys, ddof=1)[0, 1]) if samples > 1 else 0.0
    var_ratio = (
        np.var(xs, ddof=1) + ratio**2 * np.var(ys, ddof=1) - 2 * ratio * cov
    ) / (samples * den**2)
    se = math.sqrt(max(var_ratio, 0.0))
    return EstimatorResult(
        estimate=1.0 - ratio, std_error=se, samples=samples,
        method="protocol.stochastic", seed=rng.seed, stream=rng.stream,
        shots_per_swap=shots,
        extras={"mean_numerator": mean_x, "mean_denominator": mean_y,
                "se_numerator": se_x, "se_denominator": se_y,
                "self_mode": self_mode},
    )


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
        if w.shape != (d, d) or np.linalg.norm(dagger(w) @ w - np.eye(d)) > 1e-8 * d:
            raise AlgebraError("encoding operators must be unitaries of matching dimension")
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (d, d):
        raise AlgebraError("state has wrong shape")
    herm = np.linalg.norm(rho0 - dagger(rho0))
    if herm > 1e-8 or abs(np.trace(rho0).real - 1.0) > 1e-8:
        raise AlgebraError("rho0 must be hermitian with unit trace")
    if np.linalg.eigvalsh((rho0 + dagger(rho0)) / 2).min() < -1e-9:
        raise AlgebraError("rho0 must be positive semi-definite")
    return float(_restricted_distances(u, v, observer.decomposition().blocks, rho0))


def _restricted_distances(u, v, blocks, rho) -> np.ndarray:
    """restricted_distance without input checks, over stacks.

    u, v and rho are (..., d, d) stacks that broadcast against each other;
    the result has their common leading shape.  Meant for unitaries and
    states the caller drew itself: nothing is re-validated.
    """
    delta = dagger(u) @ rho @ u - dagger(v) @ rho @ v
    lead = delta.shape[:-2]
    total = 0.0
    for blk in blocks:
        g = dagger(blk.isometry) @ delta @ blk.isometry
        g = g.reshape(*lead, blk.n, blk.d, blk.n, blk.d)
        m = np.einsum("...plpm->...lm", g)
        total = total + np.sum(np.abs(np.linalg.eigvalsh((m + dagger(m)) / 2)), axis=-1)
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
        return {
            "probability": self.probability,
            "probability_se": self.probability_se,
            "bound": self.bound,
            "bound_alt": self.bound_alt,
            "c_value": self.c_value,
            "c_value_alt": self.c_value_alt,
            "epsilon": self.epsilon,
            "S": self.S,
            "samples": self.samples,
            "state_samples": self.state_samples,
            "seed": self.seed,
            "violated": self.violated,
            "max_distance": self.max_distance,
        }


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
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if samples < 1 or state_samples < 1:
        raise ValueError("samples and state_samples must be >= 1")
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")
    rng = rng or RngStream(0)
    s_value = man_omega(a, b).S
    dec_a = a.decomposition()
    dec_b = b.decomposition()
    ratio_max = max(blk.d / blk.n for blk in dec_b.blocks)
    d_b = dec_b.algebra_dim
    c_value = 2.0 * math.sqrt(2.0 * d_b * ratio_max)
    c_alt = 2.0 * math.sqrt(2.0 * d_b) * ratio_max
    bound = a.d * c_value / epsilon * math.sqrt(s_value)
    bound_alt = a.d * c_alt / epsilon * math.sqrt(s_value)
    rng_u = rng.substream(_STREAM_UNITARIES_A)
    rng_v = rng.substream(_STREAM_UNITARIES_B)
    rng_s = rng.substream(_STREAM_STATES)
    d = a.d
    best = np.empty(samples)
    for start, stop in _chunks(samples, state_samples * d * d):
        u = _haar_algebra_unitaries(dec_a, rng_u, start, stop)[:, None]
        v = _haar_algebra_unitaries(dec_a, rng_v, start, stop)[:, None]
        # state j of sample i sits at counter i * state_samples + j
        rows = _normal_rows(rng_s, start * state_samples, stop * state_samples, 2 * d)
        phi = _haar_states(rows, d).reshape(stop - start, state_samples, d)
        rho = phi[..., :, None] * phi.conj()[..., None, :]
        dist = _restricted_distances(u, v, dec_b.blocks, rho)
        best[start:stop] = dist.max(axis=1)
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
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    d = a.d
    blocks_a, blocks_b = _iso_blocks(a), _iso_blocks(b)
    rng_orbit = rng.substream(_STREAM_ORBIT)
    vals = np.empty(samples)
    for start, stop in _chunks(samples, d * d):
        u = _haar_unitaries(_normal_rows(rng_orbit, start, stop, 2 * d * d), 0, d)
        blocks_u = [(n, dj, u @ w) for n, dj, w in blocks_b]
        vals[start:stop] = 1.0 - _block_swap_trace(blocks_a, blocks_u) / d
    mean, se = _mean_and_se(vals)
    return EstimatorResult(
        estimate=mean, std_error=se, samples=samples,
        method="mc.orbit", seed=rng.seed, stream=rng.stream,
    )
