"""Matrix, superoperator and sampling substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manlab.algebras import trivial_algebra
from manlab.linalg import (
    _haar_states,
    dagger,
    haar_state,
    haar_unitary,
    hs_inner,
    nullspace,
    orthonormalize_hs,
)
from manlab.oracles import SuperOperator, partial_trace, swap_operator, symmetric_two_design
from manlab.rng import RngStream

from helpers import SX, SY, SZ, random_matrix, ref_omega

RNG = RngStream(20240)


class TestHsInner:
    def test_identity_trace(self):
        assert hs_inner(np.eye(2, dtype=complex), np.eye(2, dtype=complex)) == 2

    def test_orthogonal_paulis(self):
        assert hs_inner(SX, SZ) == 0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            hs_inner(np.eye(2), np.eye(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_matches_entrywise_sum(self, seed):
        a = random_matrix(3, seed)
        # independent oracle: plain double loop over entries
        total = sum(abs(a[i, j]) ** 2 for i in range(3) for j in range(3))
        assert abs(hs_inner(a, a) - total) < 1e-12 * max(total, 1.0)


class TestSwapOperator:
    def test_qubit_swap(self):
        s = swap_operator([2], {0})
        assert s.shape == (4, 4)
        assert abs(np.trace(s) - 2) < 1e-14
        assert np.allclose(s @ s, np.eye(4))

    def test_empty_region_is_identity(self):
        assert np.allclose(swap_operator([2, 2], set()), np.eye(16))

    def test_swap_product_identity(self):
        # Tr(AB) = Tr[S (A (x) B)] for 200 random pairs per dimension
        for d in (2, 3, 4):
            s = swap_operator([d], {0})
            for k in range(200):
                a = random_matrix(d, 1000 * d + k)
                b = random_matrix(d, 2000 * d + k)
                lhs = np.trace(a @ b)
                rhs = np.trace(s @ np.kron(a, b))
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))

    @given(st.lists(st.integers(1, 3), min_size=1, max_size=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_trace_formula(self, dims, data):
        region = data.draw(st.sets(st.integers(0, len(dims) - 1)))
        t = swap_operator(dims, region)
        inside = np.prod([dims[i] for i in region]) if region else 1
        outside = np.prod([dims[i] ** 2 for i in range(len(dims)) if i not in region])
        assert abs(np.trace(t) - inside * outside) < 1e-12
        assert np.allclose(t @ t, np.eye(t.shape[0]))

    def test_errors(self):
        with pytest.raises(ValueError):
            swap_operator([], {0})
        with pytest.raises(ValueError):
            swap_operator([2, 2], {5})


class TestPartialTrace:
    def test_product_input(self):
        a = random_matrix(2, 5)
        b = random_matrix(3, 6)
        out = partial_trace(np.kron(a, b), [2, 3], {0})
        assert np.allclose(out, a * np.trace(b))

    def test_maximally_entangled_marginal(self):
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        out = partial_trace(np.outer(phi, phi.conj()), [2, 2], {0})
        assert np.allclose(out, np.eye(2) / 2)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_trace_preserved(self, seed):
        m = random_matrix(6, seed)
        assert abs(np.trace(partial_trace(m, [2, 3], {1})) - np.trace(m)) < 1e-12

    def test_positivity_preserved(self):
        m = random_matrix(6, 77)
        rho = m @ dagger(m)
        rho /= np.trace(rho)
        out = partial_trace(rho, [2, 3], {0})
        assert np.linalg.eigvalsh(out).min() > -1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace(np.eye(5), [2, 3], {0})


class TestHaarUnitary:
    def test_d1_is_phase(self):
        u = haar_unitary(1, RNG)
        assert abs(abs(u[0, 0]) - 1) < 1e-14

    def test_unitarity(self):
        for counter in range(10):
            u = haar_unitary(5, RNG, counter)
            assert np.linalg.norm(dagger(u) @ u - np.eye(5)) <= 1e-12

    def test_determinism(self):
        a = haar_unitary(4, RngStream(9, 2), 13)
        b = haar_unitary(4, RngStream(9, 2), 13)
        assert np.array_equal(a, b)
        c = haar_unitary(4, RngStream(9, 2), 14)
        assert not np.allclose(a, c)

    def test_moment_and_left_invariance(self):
        # E|U_ij|^2 = 1/d, and the same holds after a fixed left rotation.
        n, d = 10_000, 2
        v = np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2)
        acc = np.zeros((d, d))
        acc_rot = np.zeros((d, d))
        acc_sq = np.zeros((d, d))
        for i in range(n):
            u = haar_unitary(d, RNG, i)
            acc += np.abs(u) ** 2
            acc_sq += np.abs(u) ** 4
            acc_rot += np.abs(v @ u) ** 2
        for mean in (acc / n, acc_rot / n):
            se = np.sqrt((acc_sq / n - (acc / n) ** 2) / n) + 1e-12
            assert np.all(np.abs(mean - 1 / d) <= 5 * se)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError):
            haar_unitary(0, RNG)


class TestHaarState:
    def test_d1(self):
        phi = haar_state(1, RNG)
        assert abs(abs(phi[0]) - 1) < 1e-14

    def test_unit_norm(self):
        for counter in range(5):
            assert abs(np.linalg.norm(haar_state(3, RNG, counter)) - 1) < 1e-14

    def test_first_moment(self):
        n, d = 10_000, 2
        acc = np.zeros((d, d), dtype=complex)
        acc_sq = np.zeros((d, d))
        for i in range(n):
            phi = haar_state(d, RNG, i)
            rho = np.outer(phi, phi.conj())
            acc += rho
            acc_sq += np.abs(rho) ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc_sq / n - np.abs(mean) ** 2, 0) / n) + 1e-12
        assert np.all(np.abs(mean - np.eye(d) / d) <= 5 * se)

    @pytest.mark.parametrize("d", [2, 3])
    def test_two_design_average(self, d):
        # E[phihat (x) phihat] equals (1 + S)/(d(d+1)); 1e5 samples, 5 sigma.
        # The states are drawn as stacks of 1e4; on every 997th counter the
        # stack is checked against haar_state itself.
        n, chunk = 100_000, 10_000
        exact = symmetric_two_design(d)
        acc = np.zeros((d * d, d * d), dtype=complex)
        acc_sq = np.zeros((d * d, d * d))
        rng = RngStream(515, d)
        for start in range(0, n, chunk):
            phi = _haar_states(rng.normal_rows(start, start + chunk, 2 * d), d)
            for i in range(-start % 997, chunk, 997):
                assert np.array_equal(phi[i], haar_state(d, rng, start + i))
            pairs = (phi[:, :, None] * phi[:, None, :]).reshape(chunk, d * d)  # phi (x) phi
            acc += pairs.T @ pairs.conj()
            acc_sq += (np.abs(pairs.T) ** 2) @ (np.abs(pairs) ** 2)
        mean = acc / n
        se = np.sqrt(np.maximum(acc_sq / n - np.abs(mean) ** 2, 0) / n) + 1e-12
        assert np.all(np.abs(mean - exact) <= 5 * se)


class TestReshuffle:
    def test_identity_map(self):
        op = SuperOperator.identity(2)
        choi = op.choi()
        phi = np.zeros(4, dtype=complex)
        phi[0] = phi[3] = 1 / np.sqrt(2)
        assert np.allclose(choi, np.outer(phi, phi.conj()))

    def test_depolarizing(self):
        # X -> Tr(X) 1/d is the projection onto the scalars.
        d = 2
        op = trivial_algebra(d).projection_superoperator()
        choi, omega = op.choi(), op.omega_reshuffle()
        assert np.allclose(choi, np.eye(d * d) / d**2)
        # its omega-style reshuffle is the omega operator of the commutant L(H)
        assert np.allclose(omega, swap_operator([d], {0}) / d)

    def test_omega_of_embedded_factor(self):
        # projection onto 1 (x) M2 inside d=4 reshuffles to Omega of M2 (x) 1
        from manlab.algebras import lattice_algebra

        one_m2 = lattice_algebra([2, 2], {1})
        m2x1 = lattice_algebra([2, 2], {0})
        omega = one_m2.projection_superoperator().omega_reshuffle()
        assert np.linalg.norm(omega - ref_omega(m2x1)) < 1e-10

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_involution(self, seed):
        t = random_matrix(9, seed)
        op = SuperOperator(t)
        twice = SuperOperator(op.omega_reshuffle()).omega_reshuffle()
        assert np.linalg.norm(twice - t) <= 1e-12 * np.linalg.norm(t)

    def test_kraus_transfer_convention(self):
        # transfer of X -> A X B^dag must be kron(A, conj(B))
        a, b = random_matrix(3, 1), random_matrix(3, 2)
        op = SuperOperator(np.kron(a, b.conj()))
        x = random_matrix(3, 3)
        assert np.allclose(op.apply(x), a @ x @ dagger(b))


class TestOrthonormalize:
    def test_duplicate_identity(self):
        d = 3
        out = orthonormalize_hs([np.eye(d), np.eye(d)])
        assert len(out) == 1
        assert np.allclose(np.abs(out[0]), np.eye(d) / np.sqrt(d))

    def test_pauli_set(self):
        out = orthonormalize_hs([np.eye(2), SX, SY, SZ])
        assert len(out) == 4
        gram = np.array([[hs_inner(a, b) for b in out] for a in out])
        assert np.allclose(gram, np.eye(4))

    def test_plane_span(self):
        out = orthonormalize_hs([SX, SX + SY])
        assert len(out) == 2
        gram = np.array([[hs_inner(a, b) for b in out] for a in out])
        assert np.allclose(gram, np.eye(2))
        # the span is preserved: both generators project onto it exactly
        for m in (SX, SX + SY):
            coeffs = [hs_inner(b, m) for b in out]
            recon = sum(c * b for c, b in zip(coeffs, out))
            assert np.linalg.norm(recon - m) < 1e-12

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            orthonormalize_hs([np.zeros((2, 2))])


class TestNullspace:
    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_complex_nullspace_is_annihilated(self, seed):
        # regression: right-singular vectors need conjugation for complex input
        gen = RngStream(seed).generator(3)
        m = gen.standard_normal((3, 5)) + 1j * gen.standard_normal((3, 5))
        ns = nullspace(m)
        assert ns.shape[0] >= 2
        assert np.linalg.norm(m @ ns.T) < 1e-10
        # tall, rank 3: the nullspace comes from a thin SVD
        tall = (gen.standard_normal((40, 3)) + 1j * gen.standard_normal((40, 3))) @ m
        ns = nullspace(tall)
        assert ns.shape == (2, 5)
        assert np.linalg.norm(tall @ ns.T) < 1e-10 * np.linalg.norm(tall)


class TestSuperOperator:
    def test_projection_properties(self):
        alg = trivial_algebra(3)
        p = alg.projection_superoperator()
        assert p.is_unital()
        assert p.is_trace_preserving()
        assert p.choi_is_psd()
        assert np.linalg.norm((p @ p).transfer - p.transfer) < 1e-12

    def test_hs_trace_of_kraus_map(self):
        ks = [random_matrix(3, s) for s in (4, 5)]
        op = SuperOperator.from_kraus(ks)
        expected = sum(abs(np.trace(k)) ** 2 for k in ks)
        assert abs(op.hs_trace() - expected) < 1e-10


class TestRngStream:
    def test_counter_reproducibility(self):
        s = RngStream(123, 4)
        a = s.generator(9).standard_normal(8)
        b = s.generator(9).standard_normal(8)
        assert np.array_equal(a, b)

    def test_counters_differ(self):
        s = RngStream(123, 4)
        a = s.generator(0).standard_normal(8)
        b = s.generator(1).standard_normal(8)
        assert not np.allclose(a, b)

    def test_substreams_differ(self):
        s = RngStream(123)
        a = s.substream(0).generator(0).standard_normal(8)
        b = s.substream(1).generator(0).standard_normal(8)
        assert not np.allclose(a, b)

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).generator(-1)


_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _ref_mix64(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _ref_normals(s: RngStream, counter: int, n: int) -> np.ndarray:
    """RngStream.normals one counter at a time: the key and the words in Python
    ints, Box-Muller on 1-D arrays."""
    key = 0
    for word in (s.seed, s.stream, counter & _MASK64, counter >> 64):
        key = _ref_mix64(((key + _GOLDEN) & _MASK64) ^ (word & _MASK64))
    pairs = (n + 1) // 2
    words = [_ref_mix64((key + (j + 1) * _GOLDEN) & _MASK64) for j in range(2 * pairs)]
    u = (np.array([w >> 11 for w in words], dtype=np.float64) + 0.5) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    out = np.empty(2 * pairs)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


# seeds and streams with the top bit set, and a key that overflows 64 bits
STREAMS = [RngStream(7), RngStream(2**63 + 5, 2**64 - 1), RngStream(-1, 2**70)]


class TestNormalRows:
    # RngStream.normal_rows: every sampler's draws, row i - start = normals(i, n)
    @pytest.mark.parametrize("s", STREAMS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 17])
    def test_rows_equal_scalar_path(self, s, n):
        start, stop = 5, 40
        rows = s.normal_rows(start, stop, n)
        assert rows.shape == (stop - start, n) and rows.dtype == np.float64
        for i in range(start, stop):
            want = _ref_normals(s, i, n)
            assert np.array_equal(rows[i - start], want), i
            assert np.array_equal(s.normals(i, n), want), i

    @pytest.mark.parametrize("s", STREAMS)
    def test_split_stack_equals_unsplit(self, s):
        whole = s.normal_rows(3, 20, 9)
        for cut in range(3, 21):
            parts = np.concatenate([s.normal_rows(3, cut, 9), s.normal_rows(cut, 20, 9)])
            assert np.array_equal(parts, whole), cut

    @pytest.mark.parametrize("s", STREAMS)
    def test_counters_across_two_to_the_64(self, s):
        start = 2**64 - 3
        rows = s.normal_rows(start, start + 6, 5)
        for i in range(start, start + 6):
            assert np.array_equal(rows[i - start], _ref_normals(s, i, 5)), i
        # the carry reaches the high word: counter 2**64 is not counter 0
        assert not np.allclose(rows[3], s.normals(0, 5))

    def test_counters_from_two_to_the_128_refused(self):
        s = RngStream(7)
        top = 2**128
        rows = s.normal_rows(top - 2, top, 3)
        for k, i in enumerate((top - 2, top - 1)):
            assert np.array_equal(rows[k], _ref_normals(s, i, 3))
        with pytest.raises(ValueError):
            s.normal_rows(top - 2, top + 1, 3)
        with pytest.raises(ValueError):
            s.normals(top, 3)
        with pytest.raises(ValueError):
            s.generator(top)
        with pytest.raises(ValueError):
            s.normal_rows(-1, 2, 3)

    @pytest.mark.parametrize("s", STREAMS)
    def test_uniform_rows_are_the_hash_words(self, s):
        # the shot sampler's uniforms: the words behind normals, before Box-Muller
        start = 2**64 - 2
        rows = s.uniform_rows(start, start + 4, 7)
        assert rows.shape == (4, 7) and rows.dtype == np.float64
        for i in range(start, start + 4):
            key = 0
            for word in (s.seed, s.stream, i & _MASK64, i >> 64):
                key = _ref_mix64(((key + _GOLDEN) & _MASK64) ^ (word & _MASK64))
            words = [_ref_mix64((key + (j + 1) * _GOLDEN) & _MASK64) for j in range(7)]
            want = (np.array([w >> 11 for w in words], dtype=np.float64) + 0.5) * 2.0**-53
            assert np.array_equal(rows[i - start], want), i

    def test_empty_shapes(self):
        s = RngStream(7)
        assert s.normal_rows(4, 4, 3).shape == (0, 3)
        assert s.normal_rows(4, 7, 0).shape == (3, 0)


class TestHashNormals:
    # RngStream.normals: the counter hash behind every normal draw
    def test_determinism(self):
        a = RngStream(123, 4).normals(9, 17)
        b = RngStream(123, 4).normals(9, 17)
        assert a.shape == (17,) and a.dtype == np.float64
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 64])
    def test_prefix_stability(self, n):
        s = RngStream(5, 1)
        assert np.array_equal(s.normals(3, 65)[:n], s.normals(3, n))

    def test_counters_streams_and_seeds_differ(self):
        draws = [
            RngStream(123, 4).normals(0, 8),
            RngStream(123, 4).normals(1, 8),
            RngStream(123, 5).normals(0, 8),
            RngStream(124, 4).normals(0, 8),
            RngStream(123, 4).normals(2**64, 8),
            RngStream(123).substream(4).normals(0, 8),
        ]
        for i in range(len(draws)):
            for j in range(i):
                assert not np.allclose(draws[i], draws[j]), (i, j)

    def test_negative_counter_rejected(self):
        with pytest.raises(ValueError):
            RngStream(1).normals(-1, 4)

    def test_large_keys_stay_quiet(self):
        # key mixing runs in masked Python ints; numpy scalar uint64 overflow
        # would raise a RuntimeWarning, an error under this suite
        z = RngStream(-1, 2**70).normals(2**100, 5)
        assert np.isfinite(z).all()

    def test_first_two_moments(self):
        n = 100_000
        z = RngStream(0x5CA1AB1E, 911).normals(0, n)
        assert np.isfinite(z).all()
        # se of the mean is 1/sqrt(n); of the variance, sqrt(2/n)
        assert abs(z.mean()) <= 5 / np.sqrt(n)
        assert abs(z.var() - 1.0) <= 5 * np.sqrt(2 / n)


class TestSwapComposition:
    def test_multisite_full_region_is_plain_swap(self):
        # swapping every factor of a product space equals the swap of the
        # whole space under the same index ordering
        assert np.allclose(swap_operator([2, 2], {0, 1}), swap_operator([4], {0}))
        assert np.allclose(swap_operator([2, 3], {0, 1}), swap_operator([6], {0}))

    def test_region_swaps_compose_by_symmetric_difference(self):
        t1 = swap_operator([2, 2, 2], {0, 1})
        t2 = swap_operator([2, 2, 2], {1, 2})
        t_diff = swap_operator([2, 2, 2], {0, 2})
        assert np.allclose(t1 @ t2, t_diff)


class TestMapHsGeometry:
    def test_kraus_hs_norm_identity(self):
        # ||T||_HS^2 = sum_ij |Tr(A_i^dag A_j)|^2 for a Kraus map
        ks = [random_matrix(3, s) for s in (21, 22, 23)]
        op = SuperOperator.from_kraus(ks)
        norm_sq = float(np.real(op.hs_inner(op)))
        expected = sum(
            abs(np.trace(dagger(a) @ b)) ** 2 for a in ks for b in ks
        )
        assert abs(norm_sq - expected) < 1e-9 * max(expected, 1.0)

    def test_projection_rank_is_hs_trace(self):
        from manlab.algebras import lattice_algebra

        alg = lattice_algebra([2, 2], {0})
        p = alg.projection_superoperator()
        assert abs(p.hs_trace() - alg.dim) < 1e-10
        assert abs(float(np.real(p.hs_inner(p))) - alg.dim) < 1e-10
