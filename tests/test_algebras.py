"""Algebra construction, commutants, central decomposition, projections."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manlab.algebras import (
    OperatorAlgebra,
    algebra_from_generators,
    algebra_intersection,
    algebras_equal,
    block_bases,
    center,
    compute_commutant,
    diagonal_masa,
    full_algebra,
    haar_algebra_unitary,
    is_collinear,
    kraus_projection_maps,
    lattice_algebra,
    masa_from_unitary,
    projection_map,
    structural_algebra,
    trivial_algebra,
)
from manlab.errors import AlgebraError, DecompositionError
from manlab.linalg import dagger, hs_norm_sq
from manlab.man import omega_operator
from manlab.rng import RngStream

from helpers import (
    HADAMARD,
    SX,
    SZ,
    concordance_pairs,
    factor_1xm2,
    factor_m2x1,
    random_matrix,
    random_unitary,
    ref_algebra_from_generators,
    ref_algebra_intersection,
    strip_structure,
    symmetric_operator_algebra,
)

RNG = RngStream(31337)


def _generic_fixtures():
    """Fixtures built without any structure hints."""
    return [
        ("gen-diag2", algebra_from_generators([SZ], 2)),
        ("gen-full2", algebra_from_generators([SX, SZ], 2)),
        ("sym22", symmetric_operator_algebra()),
        ("rot-asym", strip_structure(
            structural_algebra([(1, 1), (1, 2)], basis_change=random_unitary(3, 3)))),
        ("rot-4", strip_structure(
            structural_algebra([(1, 2), (2, 1)], basis_change=random_unitary(4, 4)))),
    ]


class TestGenerators:
    def test_abelian_generator(self):
        alg = algebra_from_generators([SZ], 2)
        assert alg.dim == 2
        alg.validate()

    def test_paulis_generate_everything(self):
        alg = algebra_from_generators([SX, SZ], 2)
        assert alg.dim == 4
        # closure oracle: the span coincides with the full matrix algebra
        assert algebras_equal(alg, full_algebra(2))

    def test_empty_generators_give_scalars(self):
        alg = algebra_from_generators([], 3)
        assert alg.dim == 1
        assert algebras_equal(alg, trivial_algebra(3))

    def test_shape_error(self):
        with pytest.raises(AlgebraError):
            algebra_from_generators([np.eye(3)], 2)

    def test_validate_rejects_non_closed_span(self):
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), SX / np.sqrt(2)])
        # span{1, sigma_x} is not closed under products with itself? it is;
        # use {1, |0><1|} instead, not closed under adjoints
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        bad = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), e01])
        with pytest.raises(AlgebraError):
            OperatorAlgebra(2, bad).validate()
        OperatorAlgebra(2, basis)  # constructing without validate is fine


# Block data per ambient dimension for the seeded generator sets below.
CLOSURE_BLOCKS = {
    2: [(1, 1), (1, 1)],
    3: [(1, 1), (1, 2)],
    4: [(1, 2), (2, 1)],
    5: [(1, 2), (1, 3)],
    6: [(2, 3)],
    7: [(1, 3), (2, 2)],
    8: [(1, 2), (2, 3)],
}


def _structural_generators(d: int, seed: int):
    """Two random elements of a rotated structural algebra, and that algebra."""
    ref = structural_algebra(CLOSURE_BLOCKS[d], basis_change=random_unitary(d, seed))
    return [ref.project(random_matrix(d, seed + k)) for k in (0, 1)], ref


def _generator_sets(d: int):
    gens, ref = _structural_generators(d, 500 + d)
    hermitian = [(g + dagger(g)) / 2 for g in gens]
    return [
        ("generic", [random_matrix(d, 600 + d)]),
        ("structural", gens),
        ("hermitian", hermitian),
        ("single", gens[:1]),
        ("closed", list(ref.basis)),
    ]


class TestKrylovClosure:
    @pytest.mark.parametrize("d", sorted(CLOSURE_BLOCKS))
    def test_matches_pairwise_closure(self, d):
        for name, gens in _generator_sets(d):
            got = algebra_from_generators(gens, d)
            want = ref_algebra_from_generators(gens, d)
            assert got.dim == want.dim, name
            assert algebras_equal(got, want), name
            flat = got.basis.reshape(got.dim, -1)
            assert np.linalg.norm(flat.conj() @ flat.T - np.eye(got.dim)) < 1e-10, name

    def test_degenerate_inputs(self):
        assert algebras_equal(algebra_from_generators([], 4), ref_algebra_from_generators([], 4))
        zero = np.zeros((3, 3), dtype=complex)
        assert algebras_equal(algebra_from_generators([zero], 3), trivial_algebra(3))
        mixed = [np.zeros((2, 2), dtype=complex), SZ]
        assert algebras_equal(algebra_from_generators(mixed, 2),
                              ref_algebra_from_generators(mixed, 2))
        # the scale of a generator does not matter, only its direction
        assert algebras_equal(algebra_from_generators([1e-6 * SX, 1e6 * SZ], 2), full_algebra(2))


def _intersection_pairs():
    pairs = [(name, a, b) for name, a, b in concordance_pairs()]
    pairs += [(name + ":comm", a, b.commutant_algebra()) for name, a, b in concordance_pairs()]
    w4, w6, w8 = random_unitary(4, 801), random_unitary(6, 802), random_unitary(8, 803)
    structural = [
        ("m2+m2:1xm2", [(1, 2), (1, 2)], [(2, 2)], w4),
        ("m2+m2:m4", [(1, 2), (1, 2)], [(1, 4)], w4),
        ("c+m2:m3", [(1, 1), (1, 2)], [(1, 3)], random_unitary(3, 804)),
        ("m3+m3:m2+m2+m2", [(1, 3), (1, 3)], [(1, 2), (1, 2), (1, 2)], w6),
        ("m2+m2+m2+m2:m4+m4", [(1, 2)] * 4, [(1, 4), (1, 4)], w8),
        ("1xm4:m2+m2x2", [(2, 4)], [(1, 2), (3, 2)], w8),
        ("1xm2+m4:m2+2xm3", [(2, 2), (1, 4)], [(1, 2), (2, 3)], w8),
    ]
    random_pairs = [
        (name, structural_algebra(blocks_a, w), structural_algebra(blocks_b, w))
        for name, blocks_a, blocks_b, w in structural
    ]
    random_pairs.append(("generic8", structural_algebra([(2, 2), (1, 4)], w8),
                         structural_algebra([(1, 2), (2, 3)], random_unitary(8, 805))))
    for d in (4, 7, 8):
        gens, ref = _structural_generators(d, 830 + d)
        alg = algebra_from_generators(gens, d)
        random_pairs.append((f"gens{d}:comm", alg, alg.commutant_algebra()))
        random_pairs.append((f"gens{d}:ref", alg, ref))
    # structural bases give real coefficients on many intersections; random
    # phases on the basis elements make them complex
    phased = [(name + ":phases", _with_phases(a, 840), _with_phases(b, 841))
              for name, a, b in random_pairs]
    return pairs + random_pairs + phased


def _with_phases(alg, seed):
    """The same algebra with each basis element multiplied by a random phase."""
    theta = RngStream(seed).generator(0).uniform(0, 2 * np.pi, alg.dim)
    return OperatorAlgebra(alg.d, alg.basis * np.exp(1j * theta)[:, None, None])


class TestPrincipalAngleIntersection:
    def test_matches_projector_nullspace(self):
        for name, a, b in _intersection_pairs():
            want = ref_algebra_intersection(a, b)
            for x, y in ((a, b), (b, a)):
                got = algebra_intersection(x, y)
                assert got.dim == want.dim, name
                assert algebras_equal(got, want), name
                flat = got.basis.reshape(got.dim, -1)
                assert np.linalg.norm(flat.conj() @ flat.T - np.eye(got.dim)) < 1e-10, name


class TestCommutantFromBlocks:
    def _named(self):
        return [
            ("full3", full_algebra(3)),
            ("triv3", trivial_algebra(3)),
            ("diag3", diagonal_masa(3)),
            ("had2", masa_from_unitary(HADAMARD)),
            ("m2x1", factor_m2x1()),
            ("struct", structural_algebra([(1, 2), (2, 1)])),
            ("rot-struct", structural_algebra([(2, 2), (1, 3)], basis_change=random_unitary(7, 811))),
            ("lattice", lattice_algebra([2, 3], {1})),
            ("sym22", symmetric_operator_algebra()),
        ]

    def test_equals_commutant_oracle(self):
        # the named constructors build A' lazily from their own blocks; the
        # stripped copies go through decompose() first
        named = self._named()
        cases = named + [(f"{name}-stripped", strip_structure(alg)) for name, alg in named]
        for d in (4, 6, 8):
            gens, _ = _structural_generators(d, 820 + d)
            cases.append((f"gens{d}", algebra_from_generators(gens, d)))
        for name, alg in cases:
            want = compute_commutant(alg)
            got = alg.commutant_algebra()
            assert got.dim == want.dim, name
            assert algebras_equal(got, want), name
            assert got.commutant_algebra() is alg, name
            dec, comm_dec = alg.decomposition(), got.decomposition()
            assert sorted(zip(comm_dec.n_vec, comm_dec.d_vec)) == sorted(
                zip(dec.d_vec, dec.n_vec)), name

    def test_too_large_center_is_refused(self, monkeypatch):
        import manlab.algebras as mod

        # a center equal to A itself (non-abelian A) must not pass the checks
        monkeypatch.setattr(mod, "_center_in_algebra", lambda alg: alg)
        with pytest.raises(DecompositionError):
            strip_structure(factor_m2x1()).decomposition()
        with pytest.raises(DecompositionError):
            strip_structure(structural_algebra([(1, 1), (1, 2)])).decomposition()

    def test_leaking_blocks_are_refused(self, monkeypatch):
        import manlab.algebras as mod

        # blocks of the Hadamard MASA offered for the diagonal MASA: dimensions,
        # fill and the commutant dimension all match; only leakage tells them apart
        had = masa_from_unitary(HADAMARD).decomposition()
        monkeypatch.setattr(mod, "_decompose_attempt", lambda *args: had.blocks)
        alg = strip_structure(diagonal_masa(2))
        assert had.algebra_dim == alg.dim and had.commutant_dim == compute_commutant(alg).dim
        with pytest.raises(DecompositionError, match="leak"):
            alg.decomposition()


class TestCommutant:
    def test_full_gives_scalars(self):
        assert algebras_equal(compute_commutant(full_algebra(3)), trivial_algebra(3))

    def test_factor_commutant(self):
        got = compute_commutant(factor_m2x1())
        assert got.dim == 4
        assert algebras_equal(got, factor_1xm2())

    def test_masa_is_self_commutant(self):
        masa = diagonal_masa(3)
        got = compute_commutant(masa)
        # equality via mutual projection residuals
        for b in got.basis:
            assert masa.contains(b)
        for b in masa.basis:
            assert got.contains(b)

    def test_double_commutant(self):
        for name, alg in _generic_fixtures():
            first = compute_commutant(alg)
            second = compute_commutant(first)
            assert algebras_equal(second, alg), name

    def test_hinted_matches_generic(self):
        for alg in (
            factor_m2x1(),
            lattice_algebra([2, 2, 2], {0, 2}),
            structural_algebra([(1, 2), (2, 1)], basis_change=random_unitary(4, 8)),
            masa_from_unitary(HADAMARD),
            full_algebra(3),
            trivial_algebra(3),
        ):
            assert algebras_equal(alg.commutant_algebra(), compute_commutant(alg))


class TestCenter:
    def test_full(self):
        assert algebras_equal(center(full_algebra(4)), trivial_algebra(4))

    def test_abelian_is_own_center(self):
        masa = diagonal_masa(3)
        assert algebras_equal(center(masa), masa)

    def test_symmetric_center_dimension(self):
        assert center(symmetric_operator_algebra()).dim == 2


class TestDecompose:
    def test_full_matrix_algebra(self):
        dec = full_algebra(5).decomposition()
        assert dec.n_vec == (1,) and dec.d_vec == (5,)

    def test_symmetric_operators(self):
        dec = symmetric_operator_algebra().decomposition()
        assert sorted(zip(dec.n_vec, dec.d_vec)) == [(1, 1), (1, 3)]

    def test_round_trip_through_random_unitary(self):
        alg = strip_structure(
            structural_algebra([(1, 1), (1, 2)], basis_change=random_unitary(3, 21))
        )
        dec = alg.decomposition()
        assert sorted(zip(dec.n_vec, dec.d_vec)) == [(1, 1), (1, 2)]

    @pytest.mark.parametrize(
        "blocks",
        [[(1, 2)], [(2, 2)], [(1, 1), (1, 1), (1, 1)], [(1, 2), (2, 1)], [(1, 1), (2, 2)], [(3, 1), (1, 2)]],
    )
    def test_recovers_structural_spec(self, blocks):
        d = sum(n * dj for n, dj in blocks)
        alg = strip_structure(
            structural_algebra(blocks, basis_change=random_unitary(d, 100 + d))
        )
        dec = alg.decomposition()
        assert sorted(zip(dec.n_vec, dec.d_vec)) == sorted(blocks)

    def test_bookkeeping_and_block_form(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            d = alg.d
            assert sum(n * dj for n, dj in zip(dec.n_vec, dec.d_vec)) == d, name
            assert dec.algebra_dim == alg.dim, name
            assert dec.commutant_dim == compute_commutant(alg).dim, name
            # projections: orthogonal, complete
            total = np.zeros((d, d), dtype=complex)
            for i, bi in enumerate(dec.blocks):
                total += bi.projector
                for j, bj in enumerate(dec.blocks):
                    prod = bi.projector @ bj.projector
                    target = bi.projector if i == j else 0 * prod
                    assert np.linalg.norm(prod - target) < 1e-8
            assert np.linalg.norm(total - np.eye(d)) < 1e-8
            # isometries: orthonormal columns landing on the projector range
            for blk in dec.blocks:
                m = blk.n * blk.d
                assert np.linalg.norm(dagger(blk.isometry) @ blk.isometry - np.eye(m)) < 1e-8
                assert np.linalg.norm(blk.isometry @ dagger(blk.isometry) - blk.projector) < 1e-8
            # conjugation brings every element to 1_n (x) M_d form
            for b in alg.basis:
                for blk in dec.blocks:
                    w = (dagger(blk.isometry) @ b @ blk.isometry).reshape(
                        blk.n, blk.d, blk.n, blk.d
                    )
                    mean = np.einsum("plpm->lm", w) / blk.n
                    ideal = np.einsum("pq,lm->plqm", np.eye(blk.n), mean)
                    assert np.linalg.norm(w - ideal) <= 1e-8, name

    def test_dimension_inequality_and_collinearity(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            lhs = dec.algebra_dim * dec.commutant_dim
            coll, _ = is_collinear(dec)
            assert lhs >= alg.d**2 - 1e-9, name
            assert (abs(lhs - alg.d**2) < 1e-9) == coll, name

    def test_determinism(self):
        alg = strip_structure(
            structural_algebra([(1, 2), (2, 1)], basis_change=random_unitary(4, 77))
        )
        other = strip_structure(alg)
        d1, d2 = alg.decomposition(), other.decomposition()
        for b1, b2 in zip(d1.blocks, d2.blocks):
            assert np.array_equal(b1.projector, b2.projector)
            assert np.array_equal(b1.isometry, b2.isometry)


class TestCollinearity:
    def test_factor(self):
        ok, lam = is_collinear(factor_m2x1().decomposition())
        assert ok and abs(lam - 1.0) < 1e-12

    def test_masa(self):
        ok, lam = is_collinear(diagonal_masa(4).decomposition())
        assert ok and abs(lam - 1.0) < 1e-12

    def test_full(self):
        ok, lam = is_collinear(full_algebra(3).decomposition())
        assert ok and abs(lam - 1 / 3) < 1e-12

    def test_symmetric_not_collinear(self):
        ok, lam = is_collinear(symmetric_operator_algebra().decomposition())
        assert not ok and lam is None


class TestBlockBases:
    def test_scalars(self):
        bases = block_bases(trivial_algebra(3).decomposition())
        assert len(bases.e) == 1
        # n_J = d, d_J = 1: the algebra-side basis element is the identity
        assert np.allclose(bases.e[0], np.eye(3))
        assert abs(hs_norm_sq(bases.e[0]) - 3) < 1e-12

    def test_full_m2(self):
        bases = block_bases(full_algebra(2).decomposition())
        assert len(bases.e) == 4
        for e in bases.e:
            assert abs(hs_norm_sq(e) - 1 / 2) < 1e-12

    def test_embedded_factor_norms(self):
        dec = factor_m2x1().decomposition()
        bases = block_bases(dec)
        for e in bases.e:
            assert abs(hs_norm_sq(e) - 1.0) < 1e-9
        for et in bases.e_tilde:
            assert abs(hs_norm_sq(et) - 1.0) < 1e-9

    def test_norm_rules_and_completeness(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            bases = block_bases(dec)
            total = np.zeros((alg.d, alg.d), dtype=complex)
            for e, (j, l, m) in zip(bases.e, bases.e_labels):
                blk = dec.blocks[j]
                assert abs(hs_norm_sq(e) - blk.n / blk.d) < 1e-9, name
                total += e @ dagger(e)
            assert np.linalg.norm(total - np.eye(alg.d)) < 1e-8, name
            for et, (j, p, q) in zip(bases.e_tilde, bases.e_tilde_labels):
                blk = dec.blocks[j]
                assert abs(hs_norm_sq(et) - blk.d / blk.n) < 1e-9, name
            # mutual HS orthogonality within each family
            for fam in (bases.e, bases.e_tilde):
                flat = np.stack([f.reshape(-1) for f in fam])
                gram = flat.conj() @ flat.T
                off = gram - np.diag(np.diag(gram))
                assert np.linalg.norm(off) < 1e-8, name


class TestProjectionMap:
    def test_full_is_identity(self):
        p = projection_map(full_algebra(3))
        assert np.linalg.norm(p.transfer - np.eye(9)) < 1e-12

    def test_scalars_is_depolarizing(self):
        p = projection_map(trivial_algebra(2))
        x = random_matrix(2, 9)
        assert np.allclose(p.apply(x), np.trace(x) * np.eye(2) / 2)

    def test_factor_kraus_vs_subspace_on_random_inputs(self):
        alg = factor_m2x1()
        kraus_p, _ = kraus_projection_maps(alg.decomposition())
        subspace_p = projection_map(alg)
        for k in range(50):
            x = random_matrix(4, 300 + k)
            assert np.linalg.norm(kraus_p.apply(x) - subspace_p.apply(x)) < 1e-9
        # and it is the compression form X -> Tr_2(X) (x) 1/2
        from manlab.linalg import partial_trace

        x = random_matrix(4, 5)
        expected = np.kron(partial_trace(x, [2, 2], {0}), np.eye(2) / 2)
        assert np.linalg.norm(subspace_p.apply(x) - expected) < 1e-9

    def test_conditional_expectation_laws(self):
        for name, alg in _generic_fixtures():
            p = projection_map(alg)
            assert np.linalg.norm((p @ p).transfer - p.transfer) < 1e-9, name
            assert np.linalg.norm(p.hs_adjoint().transfer - p.transfer) < 1e-9, name
            assert p.is_unital(), name
            assert p.is_trace_preserving(), name
            assert p.choi_is_psd(), name
            kraus_p, kraus_pc = kraus_projection_maps(alg.decomposition())
            assert np.linalg.norm(kraus_p.transfer - p.transfer) < 1e-9, name
            pc = compute_commutant(alg).projection_superoperator()
            assert np.linalg.norm(kraus_pc.transfer - pc.transfer) < 1e-9, name

    def test_covariance_under_unitaries(self):
        # P_{U(A)} = U o P_A o U^dag
        alg = symmetric_operator_algebra()
        u = random_unitary(4, 91)
        lhs = alg.conjugated(u).projection_superoperator().transfer
        conj = np.kron(u, u.conj())
        rhs = conj @ alg.projection_superoperator().transfer @ dagger(conj)
        assert np.linalg.norm(lhs - rhs) < 1e-9


class TestHaarAlgebraUnitary:
    def test_scalars_give_phase(self):
        u = haar_algebra_unitary(trivial_algebra(3).decomposition(), RNG, 0)
        assert abs(abs(u[0, 0]) - 1) < 1e-12
        assert np.linalg.norm(u - u[0, 0] * np.eye(3)) < 1e-12

    def test_full_algebra_gives_plain_haar(self):
        dec = full_algebra(3).decomposition()
        u = haar_algebra_unitary(dec, RNG, 1)
        assert np.linalg.norm(dagger(u) @ u - np.eye(3)) < 1e-12

    def test_membership_and_unitarity(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            for counter in range(5):
                u = haar_algebra_unitary(dec, RNG, counter)
                assert np.linalg.norm(dagger(u) @ u - np.eye(alg.d)) < 1e-10, name
                assert alg.contains(u), name

    def test_second_moment_matches_omega(self):
        # E[U (x) U^dag] -> Omega_A within 5 standard errors at 1e4 samples
        alg = factor_m2x1()
        dec = alg.decomposition()
        omega = omega_operator(alg).matrix
        n = 10_000
        acc = np.zeros_like(omega)
        acc_sq = np.zeros(omega.shape)
        rng = RngStream(808)
        for i in range(n):
            u = haar_algebra_unitary(dec, rng, i)
            term = np.kron(u, dagger(u))
            acc += term
            acc_sq += np.abs(term) ** 2
        mean = acc / n
        se = np.sqrt(np.maximum(acc_sq / n - np.abs(mean) ** 2, 0) / n) + 1e-12
        assert np.all(np.abs(mean - omega) <= 5 * se)


class TestIntersectionAndLattice:
    def test_self_intersection(self):
        alg = factor_m2x1()
        assert algebras_equal(algebra_intersection(alg, alg), alg)

    def test_commuting_factors_intersect_trivially(self):
        got = algebra_intersection(factor_m2x1(), factor_1xm2())
        assert algebras_equal(got, trivial_algebra(4))

    def test_lattice_intersection_is_region_intersection(self):
        a1 = lattice_algebra([2, 2, 2], {0, 1})
        a2 = lattice_algebra([2, 2, 2], {1, 2})
        expected = lattice_algebra([2, 2, 2], {1})
        assert algebras_equal(algebra_intersection(a1, a2), expected)

    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraError):
            algebra_intersection(full_algebra(2), full_algebra(3))

    def test_empty_region_is_scalars(self):
        assert algebras_equal(lattice_algebra([2, 2], set()), trivial_algebra(4))

    def test_single_site_region(self):
        alg = lattice_algebra([2, 2], {0})
        # explicit kron check: basis spans {E_ab (x) 1}
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        assert alg.contains(np.kron(e01, np.eye(2)))
        assert not alg.contains(np.kron(np.eye(2), e01))

    def test_full_region(self):
        assert algebras_equal(lattice_algebra([2, 2], {0, 1}), full_algebra(4))

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_lattice_dimension_rule(self, data):
        sites = data.draw(st.lists(st.integers(2, 3), min_size=1, max_size=3))
        region = data.draw(st.sets(st.integers(0, len(sites) - 1)))
        alg = lattice_algebra(sites, region)
        expected = int(np.prod([sites[i] for i in region])) ** 2 if region else 1
        assert alg.dim == expected
        comm = alg.commutant_algebra()
        comp = set(range(len(sites))) - region
        assert algebras_equal(comm, lattice_algebra(sites, comp))

    def test_bad_region(self):
        with pytest.raises(AlgebraError):
            lattice_algebra([2, 2], {7})

    def test_validate_named_constructions(self):
        for alg in (
            full_algebra(3),
            trivial_algebra(3),
            diagonal_masa(3),
            factor_m2x1(),
            structural_algebra([(1, 2), (2, 1)]),
            lattice_algebra([2, 3], {1}),
        ):
            alg.validate()


class TestDefensivePaths:
    def test_bad_basis_shape(self):
        with pytest.raises(AlgebraError):
            OperatorAlgebra(3, np.zeros((1, 2, 2)))

    def test_too_many_basis_elements(self):
        with pytest.raises(AlgebraError):
            OperatorAlgebra(2, np.zeros((5, 2, 2)))

    def test_decompose_hard_error_after_retries(self, monkeypatch):
        import manlab.algebras as mod

        # force every clustering attempt to merge all eigenvalues
        monkeypatch.setattr(mod, "_cluster_indices", lambda evals: [list(range(len(evals)))])
        alg = strip_structure(factor_m2x1())
        with pytest.raises(DecompositionError):
            alg.decomposition()

    def test_non_square_transfer_rejected(self):
        from manlab.linalg import SuperOperator

        with pytest.raises(ValueError):
            SuperOperator(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            SuperOperator(np.zeros((3, 3)))  # 3 is not a perfect square
