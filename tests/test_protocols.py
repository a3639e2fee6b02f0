"""Monte-Carlo oracle, protocol simulators, restricted distance, Markov check."""

import math

import numpy as np
import pytest

from manlab import report as man_report
from manlab import protocols
from manlab.algebras import (
    _haar_algebra_unitaries,
    center,
    diagonal_masa,
    full_algebra,
    haar_algebra_unitary,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from manlab.errors import (
    AlgebraError,
    IllConditionedEstimatorError,
    NonCollinearError,
)
from manlab.linalg import dagger, haar_state, haar_unitary
from manlab.man import man_collinear, man_omega, orbit_averaged_man, self_man
from manlab.oracles import algebra_state
from manlab.protocols import (
    _restricted_distances,
    markov_bound_check,
    mc_man_direct,
    mc_orbit_averaged_man,
    protocol_choi,
    protocol_stochastic,
    restricted_distance,
)
from manlab.rng import RngStream

from helpers import (
    HADAMARD,
    SX,
    bell_masa,
    factor_1xm2,
    factor_m2x1,
    random_unitary,
    ref_haar_algebra_unitary,
    ref_markov,
    ref_mc_direct_frame_values,
    ref_mc_man_direct,
    ref_mc_man_direct_frame,
    ref_mc_orbit,
    ref_restricted_distance,
    ref_binomial,
    ref_stochastic,
    symmetric_operator_algebra,
)

RNG = RngStream(606)


class TestMcManDirect:
    def test_commuting_pair_is_exactly_zero(self):
        res = mc_man_direct(factor_m2x1(), factor_1xm2(), 200, RNG)
        assert res.estimate == 0.0
        assert res.std_error == 0.0

    def test_full_m2_self(self):
        res = mc_man_direct(full_algebra(2), full_algebra(2), 4000, RNG)
        assert res.std_error > 0
        assert abs(res.estimate - 0.75) <= 5 * res.std_error

    def test_bell_pair(self):
        res = mc_man_direct(factor_m2x1(), bell_masa(), 4000, RNG)
        assert abs(res.estimate - 0.75) <= 5 * res.std_error

    def test_determinism(self):
        r1 = mc_man_direct(full_algebra(2), diagonal_masa(2), 300, RngStream(9))
        r2 = mc_man_direct(full_algebra(2), diagonal_masa(2), 300, RngStream(9))
        assert r1.estimate == r2.estimate and r1.std_error == r2.std_error

    def test_bad_samples(self):
        with pytest.raises(ValueError):
            mc_man_direct(full_algebra(2), full_algebra(2), 0, RNG)


class TestAlgebraState:
    def test_full_is_maximally_entangled(self):
        st = algebra_state(full_algebra(2))
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        assert np.linalg.norm(st.rho - np.outer(phi, phi.conj())) < 1e-12
        assert abs(st.purity() - 1.0) < 1e-12

    def test_scalars(self):
        d = 3
        st = algebra_state(trivial_algebra(d))
        assert np.linalg.norm(st.rho - np.eye(d * d) / d**2) < 1e-12
        assert abs(st.purity() - 1 / d**2) < 1e-12

    def test_purity_law_on_fixtures(self):
        fixtures = [
            full_algebra(2), full_algebra(3), trivial_algebra(4),
            diagonal_masa(2), diagonal_masa(4), bell_masa(),
            factor_m2x1(), factor_1xm2(), symmetric_operator_algebra(),
            lattice_algebra([2, 2, 2], {0, 2}),
        ]
        for alg in fixtures:
            st = algebra_state(alg)
            assert abs(st.purity() - alg.dim / alg.d**2) <= 1e-9
            evals = np.linalg.eigvalsh((st.rho + dagger(st.rho)) / 2)
            assert evals.min() > -1e-10
            assert abs(np.trace(st.rho).real - 1.0) < 1e-10


class TestProtocolChoi:
    def test_commutant_pair_vanishes(self):
        res = protocol_choi(factor_m2x1(), factor_1xm2())
        assert res.estimate <= 1e-12

    def test_self_man_full_m2(self):
        res = protocol_choi(full_algebra(2))
        assert abs(res.estimate - 0.75) < 1e-12
        # numerator is the center-state purity 1/d^2, denominator is 1
        assert abs(res.extras["numerator"] - 0.25) < 1e-12
        assert abs(res.extras["denominator"] - 1.0) < 1e-12

    def test_matches_collinear_form(self):
        a, b = factor_m2x1(), bell_masa()
        assert abs(protocol_choi(a, b).estimate - man_collinear(a, b).S) <= 1e-9

    def test_sampled_mode(self):
        a, b = factor_m2x1(), bell_masa()
        res = protocol_choi(a, b, shots=10_000, rng=RNG)
        assert res.shots_per_swap == 10_000
        assert abs(res.estimate - 0.75) <= 5 * res.std_error

    def test_self_renyi_identity(self):
        # NC2 = S2(w(Z)) - S2(w(A)) for collinear algebras
        for alg in (full_algebra(2), factor_m2x1(), diagonal_masa(3), full_algebra(3)):
            res = protocol_choi(alg)
            nc2 = self_man(alg).S2
            if math.isinf(nc2):
                assert math.isinf(res.extras["nc2"])
            else:
                assert abs(res.extras["nc2"] - nc2) <= 1e-9

    def test_renyi_identity_against_states_directly(self):
        alg = factor_m2x1()
        s2_center = algebra_state(center(alg)).renyi2()
        s2_alg = algebra_state(alg).renyi2()
        assert abs((s2_center - s2_alg) - self_man(alg).S2) <= 1e-9

    def test_non_collinear_rejected(self):
        with pytest.raises(NonCollinearError):
            protocol_choi(symmetric_operator_algebra())


class TestProtocolStochastic:
    def test_exact_self_full_m2(self):
        res = protocol_stochastic(full_algebra(2))
        assert abs(res.estimate - 0.75) < 1e-12
        # the exact means behind the ratio: (0.5 - 1/3)/(1 - 1/3) = 1/4
        assert abs(res.extras["mean_numerator"] - 0.5) < 1e-12
        assert abs(res.extras["mean_denominator"] - 1.0) < 1e-12

    def test_exact_matches_collinear(self):
        a, b = factor_m2x1(), bell_masa()
        assert abs(protocol_stochastic(a, b).estimate - man_collinear(a, b).S) <= 1e-9

    def test_commutant_pair_sampled_is_exact_zero(self):
        # target algebra B' equals A, so numerator and denominator coincide
        # sample by sample and the ratio carries no variance at all
        res = protocol_stochastic(factor_m2x1(), factor_1xm2(), samples=50, rng=RNG)
        assert res.estimate == 0.0
        assert res.std_error <= 1e-12

    def test_abelian_self_mode_sampled_is_exact_zero(self):
        # the center of an abelian A is A, and x and y are summed from the same
        # per-block arrays in one order, so every sample has x = y bit for bit
        for a in (masa_from_unitary(random_unitary(16, 161)),
                  structural_algebra([(2, 1), (2, 1)], random_unitary(4, 162))):
            res = protocol_stochastic(a, samples=40, rng=RNG)
            assert res.estimate == 0.0 and res.std_error == 0.0

    def test_shots_when_a_is_the_full_algebra(self):
        # y = ||P_A rho||^2 = 1 rounds above 1 by up to 7e-16 when A = M_d; the
        # swap test snaps it to p = 1, so every shot passes and y reads 1
        b = structural_algebra([(2, 2), (1, 4)], random_unitary(8, 163))
        for seed in range(5):
            res = protocol_stochastic(full_algebra(8), b, samples=40, shots=500,
                                      rng=RngStream(seed))
            assert res.extras["mean_denominator"] == 1.0

    def test_swap_tests_snap_rounding_only(self):
        values = np.array([1.0 + 7e-16, -1.0 - 7e-16, 1.0, -1.0])
        est, _ = protocols._swap_tests(values, 100, RngStream(7))
        assert est.tolist() == [1.0, -1.0, 1.0, -1.0]
        for bad in (1.0 + 1e-6, -1.0 - 1e-6, np.nan):
            with pytest.raises(ValueError, match="must lie in"):
                protocols._swap_tests(np.array([bad]), 100, RngStream(7))

    def test_sampled_mode(self):
        a, b = factor_m2x1(), bell_masa()
        res = protocol_stochastic(a, b, samples=4000, rng=RNG)
        assert abs(res.estimate - 0.75) <= 5 * res.std_error

    def test_sampled_with_shots(self):
        a, b = factor_m2x1(), bell_masa()
        res = protocol_stochastic(a, b, samples=3000, shots=10_000, rng=RNG)
        assert abs(res.estimate - 0.75) <= 5 * res.std_error

    def test_ill_conditioned_near_scalars(self):
        with pytest.raises(IllConditionedEstimatorError):
            protocol_stochastic(
                trivial_algebra(8), full_algebra(8), samples=64, shots=16,
                rng=RngStream(10),
            )

    def test_sample_floor(self):
        with pytest.raises(ValueError):
            protocol_stochastic(full_algebra(2), samples=1, rng=RNG)

    def test_shots_need_sampled_mode(self):
        # the exact mode draws no swap tests, so shots alone would be ignored
        with pytest.raises(ValueError, match="sampled mode"):
            protocol_stochastic(factor_m2x1(), bell_masa(), shots=8, rng=RNG)


class TestSelfVariantTrigger:
    # only an omitted b selects the self variant; an algebra passed twice is
    # the pair variant, and since A meets A' in Z(A) its S is the same
    def test_algebra_twice_is_the_pair_variant(self):
        for a in (factor_m2x1(), structural_algebra([(1, 2), (2, 4)], random_unitary(10, 1500))):
            pair = [protocol_choi(a, a), protocol_stochastic(a, a, samples=40, rng=RngStream(42))]
            own = [protocol_choi(a), protocol_stochastic(a, samples=40, rng=RngStream(42))]
            for p, o in zip(pair, own):
                assert p.extras["self_mode"] is False and o.extras["self_mode"] is True
                assert abs(p.estimate - o.estimate) <= 1e-12, (p.method, p.estimate, o.estimate)


def _binomial_pmf(n: int, p: float) -> np.ndarray:
    k = np.arange(n + 1)
    log_choose = np.array([math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                           for i in k])
    return np.exp(log_choose + k * math.log(p) + (n - k) * math.log1p(-p))


def _chi_square_z(counts: np.ndarray, n: int, p: float) -> float:
    """Wilson-Hilferty z of Pearson's chi-square against the exact pmf.

    Bins with expectation below 5 are pooled into their neighbour toward the mode.
    """
    expected = _binomial_pmf(n, p) * counts.size
    observed = np.bincount(counts.astype(np.intp), minlength=n + 1).astype(float)
    mode = int(np.argmax(expected))
    for side in (range(n, mode, -1), range(0, mode)):
        for i in side:
            if expected[i] < 5:
                j = i - 1 if i > mode else i + 1
                expected[j] += expected[i]
                observed[j] += observed[i]
                expected[i] = observed[i] = 0.0
    keep = expected > 0
    chi2 = float(np.sum((observed[keep] - expected[keep]) ** 2 / expected[keep]))
    dof = int(np.count_nonzero(keep)) - 1
    return ((chi2 / dof) ** (1 / 3) - (1 - 2 / (9 * dof))) / math.sqrt(2 / (9 * dof))


class TestShotSampler:
    # protocols._binomial: exact Binomial(shots, p) counts from the counter hash
    DRAWS = 20_000

    @pytest.mark.parametrize("shots, p", [
        (1, 0.3),                    # a single shot
        (20, 0.4),                   # inversion, mean 8
        (25, 0.39), (25, 0.41),      # either side of the switch at a mean of 10
        (1000, 0.5),                 # BTRS
        (2000, 0.9), (2000, 0.997),  # p > 1/2: BTRS and inversion on 1 - p
    ])
    def test_chi_square_against_exact_pmf(self, shots, p):
        counts = protocols._binomial(shots, np.full(self.DRAWS, p), RngStream(61, shots))
        assert np.array_equal(counts, np.round(counts))
        assert _chi_square_z(counts, shots, p) < 5.0

    @pytest.mark.parametrize("shots, p", [(200_000, 0.37), (2**53, 0.5)])
    def test_mean_and_variance(self, shots, p):
        counts = protocols._binomial(shots, np.full(self.DRAWS, p), RngStream(62))
        var = shots * p * (1 - p)
        assert abs(counts.mean() - shots * p) <= 5 * math.sqrt(var / self.DRAWS)
        assert abs(counts.var(ddof=1) - var) <= 5 * var * math.sqrt(2 / (self.DRAWS - 1))

    @pytest.mark.parametrize("shots", [1, 500, 10**12, 2**53])
    def test_certain_outcomes(self, shots):
        # RuntimeWarnings are errors in this suite
        counts = protocols._binomial(shots, np.array([0.0, 1.0, 0.0]), RngStream(63))
        assert counts.tolist() == [0, shots, 0]

    @pytest.mark.parametrize("pairs", [6, 1])
    def test_value_j_draws_from_counter_j_alone(self, monkeypatch, pairs):
        # one pair per block makes the next-block path common
        monkeypatch.setattr(protocols, "_BTRS_PAIRS", pairs)
        rng = RngStream(64, 3)
        p = np.concatenate([np.linspace(0.0, 1.0, 101), [0.5, 1e-9, 1 - 1e-9, 0.011]])
        for shots in (1, 40, 500, 10**9):
            want = [ref_binomial(shots, float(pj), rng, j) for j, pj in enumerate(p)]
            for chunk in (1, 7, 1024):
                monkeypatch.setattr(protocols, "_SHOT_CHUNK", chunk)
                assert protocols._binomial(shots, p, rng).tolist() == want, (shots, chunk)

    def test_golden_counts(self):
        # pinned (seed, stream, counter j, shots, p_j) -> count, so a change of
        # numpy that moves the hash or the sampler's float arithmetic shows up
        rng = RngStream(2024, 7)
        p = np.array([0.2, 0.5, 0.93, 0.999, 0.004])
        golden = {
            30: [9, 15, 29, 30, 0],
            2000: [432, 1003, 1865, 1996, 9],
            200_000: [40319, 100481, 186047, 199780, 811],
            2**53: [1801439918710278, 4503599729436682, 8376695316946333,
                    8998192051354437, 36028799412235],
        }
        for shots, want in golden.items():
            assert protocols._binomial(shots, p, rng).astype(np.int64).tolist() == want, shots

    @pytest.mark.parametrize("p", [-1e-3, 1.5, np.nan])
    def test_probabilities_outside_the_unit_interval_are_refused(self, p):
        # a NaN would never pass BTRS's acceptance test
        with pytest.raises(ValueError, match="must lie in"):
            protocols._binomial(100, np.array([0.5, p]), RngStream(65))

    def test_shot_counts_are_bounded(self):
        a, b = factor_m2x1(), bell_masa()
        for shots in (0, 2**53 + 1):
            with pytest.raises(ValueError, match="shots must be"):
                protocol_choi(a, b, shots=shots, rng=RNG)
            with pytest.raises(ValueError, match="shots must be"):
                protocol_stochastic(a, b, samples=10, shots=shots, rng=RNG)
        assert protocol_choi(a, b, shots=2**53, rng=RNG).shots_per_swap == 2**53


class TestRestrictedDistance:
    def test_equal_unitaries(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        assert restricted_distance(SX, SX, full_algebra(2), rho) < 1e-12

    def test_bit_flip_against_full_observer(self):
        rho = np.diag([1.0, 0.0]).astype(complex)
        got = restricted_distance(SX, np.eye(2), full_algebra(2), rho)
        assert abs(got - 2.0) < 1e-12

    def test_invisible_encoding(self):
        # U, V act on the second factor; observer only sees the first
        u = np.kron(np.eye(2), SX)
        rho = np.eye(4, dtype=complex) / 4
        assert restricted_distance(u, np.eye(4), factor_m2x1(), rho) < 1e-12

    def test_bounded_by_two(self):
        for k in range(20):
            u = random_unitary(4, 500 + k)
            v = random_unitary(4, 600 + k)
            phi = haar_state(4, RNG, k)
            rho = np.outer(phi, phi.conj())
            for observer in (full_algebra(4), factor_m2x1(), bell_masa()):
                val = restricted_distance(u, v, observer, rho)
                assert -1e-12 <= val <= 2.0 + 1e-9

    def test_sandwich_against_direct_maximization(self):
        # The closed form must dominate |Tr(X Delta)| for every contraction X
        # in the observer algebra, and be attained by the block-sign observable
        # constructed here independently of the closed-form code path.
        cases = [
            (full_algebra(2), 2, 0),
            (factor_m2x1(), 4, 1),
            (diagonal_masa(4), 4, 2),
            (symmetric_operator_algebra(), 4, 3),
        ]
        for observer, d, tag in cases:
            u = random_unitary(d, 700 + tag)
            v = random_unitary(d, 800 + tag)
            phi = haar_state(d, RngStream(37), tag)
            rho = np.outer(phi, phi.conj())
            closed = restricted_distance(u, v, observer, rho)
            delta = dagger(u) @ rho @ u - dagger(v) @ rho @ v
            dec = observer.decomposition()
            best = 0.0
            gen = RngStream(38, tag).generator(0)
            for _ in range(500):
                x = np.zeros((d, d), dtype=complex)
                for blk in dec.blocks:
                    xj = _random_contraction(blk.d, gen)
                    x += blk.isometry @ np.kron(np.eye(blk.n), xj) @ dagger(blk.isometry)
                assert np.linalg.norm(x, ord=2) <= 1.0 + 1e-9
                val = abs(np.trace(x @ delta))
                best = max(best, val)
                assert val <= closed + 1e-9
            # independently built optimizer: per-block sign of the compressed state gap
            x_opt = np.zeros((d, d), dtype=complex)
            for blk in dec.blocks:
                g = (dagger(blk.isometry) @ delta @ blk.isometry).reshape(
                    blk.n, blk.d, blk.n, blk.d
                )
                m = np.einsum("plpm->lm", g)
                evals, evecs = np.linalg.eigh((m + dagger(m)) / 2)
                sign = evecs @ np.diag(np.sign(evals)) @ dagger(evecs)
                x_opt += blk.isometry @ np.kron(np.eye(blk.n), sign) @ dagger(blk.isometry)
            assert np.linalg.norm(x_opt, ord=2) <= 1.0 + 1e-9
            best = max(best, abs(np.trace(x_opt @ delta)))
            assert closed >= best - 1e-9
            assert abs(closed - best) <= 1e-6

    def test_invalid_inputs(self):
        with pytest.raises(AlgebraError):
            restricted_distance(np.ones((2, 2)), np.eye(2), full_algebra(2), np.eye(2) / 2)
        with pytest.raises(AlgebraError):
            restricted_distance(SX, np.eye(2), full_algebra(2), np.eye(2))  # trace 2
        with pytest.raises(AlgebraError):
            restricted_distance(np.full((2, 2), np.nan), np.eye(2), full_algebra(2), np.eye(2) / 2)
        with pytest.raises(AlgebraError, match="non-finite"):
            restricted_distance(np.eye(2), np.eye(2), full_algebra(2), np.full((2, 2), np.nan))


class TestRestrictedDistanceKernel:
    def test_kernel_equals_public_function(self):
        observers = (full_algebra(4), factor_m2x1(), bell_masa(), symmetric_operator_algebra(),
                     structural_algebra([(1, 2), (1, 2)], random_unitary(4, 913)))
        for tag, observer in enumerate(observers):
            dec = observer.decomposition()
            for k in range(6):
                u = random_unitary(4, 900 + 10 * tag + k)
                v = random_unitary(4, 950 + 10 * tag + k)
                phi = haar_state(4, RngStream(39, tag), k)
                rho = np.outer(phi, phi.conj())
                want = restricted_distance(u, v, observer, rho)
                psi, chi = (dagger(u) @ phi)[None, None], (dagger(v) @ phi)[None, None]
                got = _restricted_distances(dec, psi, chi, np.ones((1, 1)))
                assert abs(float(got[0]) - want) <= 1e-12
                assert abs(ref_restricted_distance(u, v, observer, rho) - want) <= 1e-12

    def test_kernel_broadcasts_over_stacks(self):
        # 3 unitary pairs against 5 states each, as 15 groups of one state
        observer = factor_m2x1()
        dec = observer.decomposition()
        us = np.stack([random_unitary(4, 1000 + i) for i in range(3)])
        vs = np.stack([random_unitary(4, 1100 + i) for i in range(3)])
        phis = np.stack([[haar_state(4, RngStream(40, i), j) for j in range(5)]
                         for i in range(3)])
        psi = np.einsum("iba,ijb->ija", us.conj(), phis).reshape(15, 1, 4)
        chi = np.einsum("iba,ijb->ija", vs.conj(), phis).reshape(15, 1, 4)
        got = _restricted_distances(dec, psi, chi, np.ones((15, 1)))
        assert got.shape == (15,)
        for i in range(3):
            for j in range(5):
                rho = np.outer(phis[i, j], phis[i, j].conj())
                want = restricted_distance(us[i], vs[i], observer, rho)
                assert abs(got[5 * i + j] - want) <= 1e-12

    def test_mixed_states_match_dense_form(self):
        # rho0 of rank 1, 2 and 4, and one the guard accepts with an eigenvalue
        # just below zero: the signed eigenvalue weights give the dense value
        observers = (full_algebra(4), factor_m2x1(), bell_masa(), symmetric_operator_algebra(),
                     structural_algebra([(1, 2), (1, 2)], random_unitary(4, 913)))
        gen = RngStream(41).generator(0)
        spectra = [np.array([1.0, 0, 0, 0])]
        for rank in (2, 4):
            w = gen.uniform(0.1, 1.0, rank)
            spectra.append(np.concatenate([w / w.sum(), np.zeros(4 - rank)]))
        spectra.append(np.array([0.6, 0.4 + 5e-10, -5e-10, 0.0]))
        for tag, observer in enumerate(observers):
            for k, lam in enumerate(spectra):
                basis = random_unitary(4, 1200 + 10 * tag + k)
                rho = basis @ np.diag(lam) @ dagger(basis)
                u = random_unitary(4, 1300 + 10 * tag + k)
                v = random_unitary(4, 1400 + 10 * tag + k)
                got = restricted_distance(u, v, observer, rho)
                assert abs(got - ref_restricted_distance(u, v, observer, rho)) <= 1e-12, (tag, k)


def _random_contraction(d, gen):
    """Random operator with spectral norm at most 1."""
    z = gen.standard_normal((d, d)) + 1j * gen.standard_normal((d, d))
    norm = np.linalg.norm(z, ord=2)
    shrink = gen.uniform(0.2, 1.0)
    return z / norm * shrink


class TestMarkovCheck:
    def test_commuting_pair(self):
        report = markov_bound_check(
            factor_m2x1(), factor_1xm2(), epsilon=0.1, samples=50,
            state_samples=4, rng=RNG,
        )
        assert report.S <= 1e-12
        assert report.bound <= 1e-6
        assert report.probability == 0.0
        assert report.max_distance <= 1e-9
        assert not report.violated

    def test_full_m2_trivial_bound(self):
        report = markov_bound_check(
            full_algebra(2), full_algebra(2), epsilon=0.1, samples=50,
            state_samples=4, rng=RNG,
        )
        assert report.bound > 1.0
        assert report.max_distance <= 2.0 + 1e-9
        assert not report.violated

    def test_epsilon_sweep_monotone(self):
        a, b = diagonal_masa(2), full_algebra(2)
        probs = []
        for eps in (0.2, 0.6, 1.0, 1.4):
            rep = markov_bound_check(a, b, epsilon=eps, samples=150,
                                     state_samples=8, rng=RngStream(17))
            probs.append(rep.probability)
            assert not rep.violated
        assert all(p2 <= p1 + 1e-12 for p1, p2 in zip(probs, probs[1:]))

    def test_constant_variants(self):
        report = markov_bound_check(full_algebra(2), diagonal_masa(2),
                                    epsilon=0.5, samples=10, state_samples=2, rng=RNG)
        # B abelian: d(B) = 2, max d_J/n_J = 1
        assert abs(report.c_value - 2 * math.sqrt(4.0)) < 1e-12
        assert abs(report.c_value_alt - 2 * math.sqrt(4.0)) < 1e-12
        report2 = markov_bound_check(diagonal_masa(2), full_algebra(2),
                                     epsilon=0.5, samples=10, state_samples=2, rng=RNG)
        # B = L(C2): d(B) = 4, max d_J/n_J = 2
        assert abs(report2.c_value - 2 * math.sqrt(16.0)) < 1e-12
        assert abs(report2.c_value_alt - 2 * math.sqrt(8.0) * 2) < 1e-12

    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            markov_bound_check(full_algebra(2), full_algebra(2), epsilon=0.0)

    @pytest.mark.parametrize("epsilon", [-1.0, math.nan, math.inf])
    def test_non_finite_or_negative_epsilon(self, epsilon):
        # a NaN bound is not JSON, and NaN <= 0 is False
        with pytest.raises(ValueError, match="positive and finite"):
            markov_bound_check(full_algebra(2), full_algebra(2), epsilon=epsilon)

    def test_bound_of_rounding_noise_is_zero(self):
        # a commuting pair whose S reads 1.1e-16 instead of 0
        b = masa_from_unitary(haar_unitary(16, RngStream(3)))
        report = markov_bound_check(trivial_algebra(16), b, epsilon=0.5, samples=5,
                                    state_samples=2, rng=RNG)
        assert 0.0 < report.S <= man_report.CLAMP_MARGIN
        assert report.bound == report.bound_alt == 0.0

    def test_bound_keeps_the_square_root_of_s(self):
        a, b = diagonal_masa(2), full_algebra(2)
        report = markov_bound_check(a, b, epsilon=0.5, samples=5, state_samples=2, rng=RNG)
        assert report.S > man_report.CLAMP_MARGIN
        assert report.bound == 2 * report.c_value / 0.5 * math.sqrt(report.S)
        assert report.bound_alt == 2 * report.c_value_alt / 0.5 * math.sqrt(report.S)

    @pytest.mark.parametrize("samples, state_samples", [(0, 4), (10, 0), (10, -2)])
    def test_bad_sample_counts(self, samples, state_samples):
        with pytest.raises(ValueError):
            markov_bound_check(full_algebra(2), full_algebra(2), epsilon=0.5,
                               samples=samples, state_samples=state_samples)


class TestOrbitMc:
    def test_embedded_factor(self):
        res = mc_orbit_averaged_man(factor_m2x1(), factor_m2x1(), 3000, RNG)
        assert abs(res.estimate - 0.6) <= 5 * res.std_error

    def test_matches_closed_form_other_pair(self):
        a, b = diagonal_masa(2), masa_from_unitary(HADAMARD)
        res = mc_orbit_averaged_man(a, b, 3000, RNG)
        assert abs(res.estimate - orbit_averaged_man(a, b)) <= 5 * res.std_error


class TestEstimatorHygiene:
    def test_direct_oracle_agrees_with_closed_form_at_modest_samples(self):
        pairs = [
            (diagonal_masa(2), masa_from_unitary(HADAMARD)),
            (factor_m2x1(), full_algebra(4)),
        ]
        for a, b in pairs:
            closed = man_omega(a, b).S
            res = mc_man_direct(a, b, 3000, RngStream(23))
            assert abs(res.estimate - closed) <= 5 * res.std_error

    def test_results_serialize(self):
        res = mc_man_direct(full_algebra(2), full_algebra(2), 50, RNG)
        d = res.to_dict()
        assert d["method"] == "mc.direct" and d["samples"] == 50


class TestConcentration:
    def test_state_functional_variance_shrinks_with_dimension(self):
        # The averaged functionals behind the stochastic protocol are
        # Lipschitz in the state, so their spread over Haar states must fall
        # as the dimension grows; checked empirically, nothing sharper.
        spreads = []
        for d in (2, 4, 8, 16):
            alg = diagonal_masa(d)
            rng = RngStream(91, d)
            vals = np.empty(1500)
            for i in range(vals.size):
                phi = haar_state(d, rng, i)
                rho = np.outer(phi, phi.conj())
                proj = alg.project(rho)
                vals[i] = float(np.real(np.sum(proj.conj() * proj)))
            spreads.append(float(np.var(vals, ddof=1)))
        assert all(s2 < s1 for s1, s2 in zip(spreads, spreads[1:])), spreads
        assert spreads[-1] < spreads[0] / 10


def _haar_pair(dims_a, dims_b, seed):
    d = sum(n * dj for n, dj in dims_a)
    return (structural_algebra(dims_a, basis_change=random_unitary(d, seed)),
            structural_algebra(dims_b, basis_change=random_unitary(d, seed + 1)))


class TestCounterSemantics:
    """The batched estimators against the per-sample loops they replaced.

    Sample i draws from counter i in both, so the direct oracle and the Haar
    draws agree bit for bit and the rest to rounding.
    """

    PAIRS = (
        ("d4", (((2, 2),), ((1, 2), (2, 1))), 41),
        ("d8", (((2, 2), (2, 2)), ((1, 2), (3, 2))), 42),
        ("d16", (((2, 4), (4, 2)), ((4, 4),)), 43),
        # one run of eight blocks against two shape classes of one irrep size
        ("masa8", (((1, 1),) * 8, ((1, 2), (1, 2), (2, 2))), 44),
    )

    @pytest.fixture(scope="class")
    def pairs(self):
        return {name: _haar_pair(*dims, seed) for name, dims, seed in self.PAIRS}

    def test_haar_algebra_unitary_bitwise(self, pairs):
        for name, (a, b) in pairs.items():
            for alg in (a, b):
                dec = alg.decomposition()
                rng = RngStream(44, len(name))
                stack = _haar_algebra_unitaries(dec, rng, 3, 20)
                for i in range(3, 20):
                    want = ref_haar_algebra_unitary(dec, rng, i)
                    assert np.array_equal(stack[i - 3], want), (name, i)
                    assert np.array_equal(haar_algebra_unitary(dec, rng, i), want), (name, i)

    def test_mc_direct_bitwise(self, pairs):
        cases = list(pairs.values()) + [(factor_m2x1(), bell_masa()),
                                        (full_algebra(2), diagonal_masa(2))]
        for k, (a, b) in enumerate(cases):
            res = mc_man_direct(a, b, 150, RngStream(45, k))
            assert (res.estimate, res.std_error) == ref_mc_man_direct_frame(a, b, 150, RngStream(45, k))

    def test_mc_direct_frame_matches_dense(self, pairs):
        # the frame formula ||[D_A, X D_B X^dag]||^2 against the paper's ||UV - VU||^2,
        # sample by sample, on the cases of test_mc_direct_bitwise
        cases = list(pairs.values()) + [(factor_m2x1(), bell_masa()),
                                        (full_algebra(2), diagonal_masa(2))]
        for k, (a, b) in enumerate(cases):
            rng = RngStream(45, k)
            frame = ref_mc_direct_frame_values(a, b, 150, rng)
            assert np.all(frame >= 0.0), k
            rng_a = rng.substream(protocols._STREAM_UNITARIES_A)
            rng_b = rng.substream(protocols._STREAM_UNITARIES_B)
            for i, value in enumerate(frame):
                u = ref_haar_algebra_unitary(a.decomposition(), rng_a, i)
                v = ref_haar_algebra_unitary(b.decomposition(), rng_b, i)
                assert abs(value - np.sum(np.abs(u @ v - v @ u) ** 2) / (2 * a.d)) <= 1e-14, (k, i)
            assert abs(np.mean(frame) - ref_mc_man_direct(a, b, 150, rng)[0]) <= 1e-14, k
            # A against A': no cancellation, so a commuting pair reads its rounding squared
            assert np.all(ref_mc_direct_frame_values(a, a.commutant_algebra(), 150, rng) < 1e-24), k

    def test_orbit_matches_loop(self, pairs):
        for k, (a, b) in enumerate(pairs.values()):
            res = mc_orbit_averaged_man(a, b, 120, RngStream(46, k))
            mean, se = ref_mc_orbit(a, b, 120, RngStream(46, k))
            assert abs(res.estimate - mean) <= 1e-12 and abs(res.std_error - se) <= 1e-12

    @pytest.mark.parametrize("shots", [None, 500])
    def test_stochastic_matches_loop(self, pairs, shots):
        a, b = pairs["d8"]
        for target, other in ((b.commutant_algebra(), b), (center(a), None)):
            res = protocol_stochastic(a, other, samples=200, shots=shots, rng=RngStream(47))
            ref = ref_stochastic(a, target, 200, shots, RngStream(47))
            for key in ("mean_numerator", "mean_denominator"):
                assert abs(res.extras[key] - ref[key]) <= 1e-12, key
            assert abs(res.estimate - ref["estimate"]) <= 1e-12

    def test_stochastic_overlap_routes(self, pairs, monkeypatch):
        # the pair mode takes <P_A rho, P_B' rho> in A's frame: against the
        # loop, and not changed by the chunking
        cases = [pairs["d4"], pairs["d8"], pairs["d16"][::-1], (factor_m2x1(), bell_masa())]
        for k, (a, b) in enumerate(cases):
            res = protocol_stochastic(a, b, samples=60, rng=RngStream(55, k))
            ref = ref_stochastic(a, b.commutant_algebra(), 60, None, RngStream(55, k))
            for key in ("mean_numerator", "mean_denominator"):
                assert abs(res.extras[key] - ref[key]) <= 1e-12, (k, key)
            assert abs(res.estimate - ref["estimate"]) <= 1e-12, k
            with monkeypatch.context() as patch:
                patch.setattr(protocols, "_CHUNK_ELEMENTS", 1)
                assert protocol_stochastic(a, b, samples=60, rng=RngStream(55, k)) == res, k

    def test_markov_matches_loop(self, pairs):
        cases = [pairs["d4"], (diagonal_masa(2), full_algebra(2)), (factor_m2x1(), bell_masa())]
        for k, (a, b) in enumerate(cases):
            rep = markov_bound_check(a, b, epsilon=0.5, samples=40, state_samples=3,
                                     rng=RngStream(48, k))
            probability, max_distance = ref_markov(a, b, 0.5, 40, 3, RngStream(48, k))
            assert rep.probability == probability
            assert abs(rep.max_distance - max_distance) <= 1e-12

    @pytest.mark.parametrize("budget", [1, 10**9])
    def test_chunking_never_changes_a_result(self, pairs, monkeypatch, budget):
        a8, b8 = pairs["d8"]
        a4, b4 = pairs["d4"]
        runs = [
            lambda: mc_man_direct(a8, b8, 70, RngStream(49)).to_dict(),
            lambda: mc_orbit_averaged_man(a8, b8, 70, RngStream(50)).to_dict(),
            lambda: protocol_stochastic(a8, b8, samples=70, rng=RngStream(51)).to_dict(),
            lambda: protocol_stochastic(a8, b8, samples=70, shots=300,
                                        rng=RngStream(52)).to_dict(),
            lambda: protocol_stochastic(a8, samples=70, rng=RngStream(53)).to_dict(),
            lambda: markov_bound_check(a4, b4, epsilon=0.5, samples=30, state_samples=4,
                                       rng=RngStream(54)).to_dict(),
        ]
        default = [run() for run in runs]
        monkeypatch.setattr(protocols, "_CHUNK_ELEMENTS", budget)
        assert [run() for run in runs] == default
