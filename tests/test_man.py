"""Closed-form MAN values, special cases, bounds and cross-formula identities."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manlab import algebras
from manlab.algebras import (
    algebra_from_generators,
    compute_commutant,
    diagonal_masa,
    full_algebra,
    is_collinear,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from manlab.errors import (
    AlgebraError,
    NonCollinearError,
    NumericalConsistencyError,
)
from manlab.linalg import _haar_unitary_from_generator, dagger, swap_operator, swap_perm
from manlab.man import (
    ManReport,
    StructuralSummary,
    _projection_overlap,
    a_otoc,
    clamp_unit,
    entropy_decomposition_man,
    lattice_man,
    log_man,
    man_bounds,
    man_collinear,
    man_omega,
    man_projection,
    masa_man,
    omega_operator,
    orbit_averaged_man,
    quantumness,
    self_man,
)
from manlab.protocols import mc_orbit_averaged_man
from manlab.rng import RngStream

from helpers import (
    BELL,
    HADAMARD,
    asymptotically_abelian_algebra,
    bell_masa,
    concordance_pairs,
    factor_1xm2,
    factor_m2x1,
    fourier_basis,
    random_matrix,
    random_unitary,
    ref_hs_overlap,
    symmetric_operator_algebra,
)


class TestClampAndLog:
    def test_clamp_rounding(self):
        assert clamp_unit(-1e-10) == 0.0
        assert clamp_unit(1 + 1e-10) == 1.0

    def test_clamp_rejects_real_violations(self):
        with pytest.raises(NumericalConsistencyError):
            clamp_unit(-1e-3)
        with pytest.raises(NumericalConsistencyError):
            clamp_unit(1.001)

    @given(st.floats(0, 1, exclude_max=True))
    @settings(max_examples=50)
    def test_clamp_identity_inside_range(self, x):
        assert clamp_unit(x) == x

    def test_log_man(self):
        assert log_man(0.75) == 2.0
        assert log_man(0.0) == 0.0
        assert math.isinf(log_man(1.0))
        assert abs(log_man(0.75, math.e) - math.log(4.0)) < 1e-12


class TestManReport:
    def test_bound_violation_raises(self):
        summary = StructuralSummary(2, 4, 1, 1, (1,), (2,), True, 0.5)
        with pytest.raises(NumericalConsistencyError):
            ManReport(S=0.9, S2=log_man(0.9), method="x",
                      bounds={"commutant_bound": 0.5}, inputs={"A": summary})

    def test_s2_consistency_enforced(self):
        summary = StructuralSummary(2, 4, 1, 1, (1,), (2,), True, 0.5)
        with pytest.raises(NumericalConsistencyError):
            ManReport(S=0.5, S2=3.0, method="x", bounds={}, inputs={"A": summary})


class TestOmegaOperator:
    def test_full_algebra_is_swap_over_d(self):
        d = 3
        omega = omega_operator(full_algebra(d)).matrix
        assert np.linalg.norm(omega - swap_operator([d], {0}) / d) < 1e-12

    def test_scalars(self):
        # unitaries of C1 are global phases, so E[U (x) U^dag] = 1 (x) 1
        d = 3
        omega = omega_operator(trivial_algebra(d)).matrix
        assert np.linalg.norm(omega - np.eye(d * d)) < 1e-12

    def test_diagonal_masa(self):
        d = 3
        omega = omega_operator(diagonal_masa(d)).matrix
        expected = np.zeros((d * d, d * d), dtype=complex)
        for i in range(d):
            e = np.zeros((d, d), dtype=complex)
            e[i, i] = 1
            expected += np.kron(e, e)
        assert np.linalg.norm(omega - expected) < 1e-12

    def test_construction_routes_agree(self):
        for name, a, b in concordance_pairs()[:10]:
            for alg in (a, b):
                m1 = omega_operator(alg, "blocks").matrix
                m2 = omega_operator(alg, "bases").matrix
                assert np.linalg.norm(m1 - m2) <= 1e-10, name

    def test_trace_invariants(self):
        for name, a, b in concordance_pairs():
            for alg in (a, b):
                om = omega_operator(alg)
                assert abs(om.swap_trace() - alg.d) < 1e-9, name
                assert abs(om.trace() - alg.decomposition().commutant_dim) < 1e-9, name


class TestManOmega:
    def test_commuting_factors_vanish(self):
        assert man_omega(factor_m2x1(), factor_1xm2()).S == 0.0

    def test_fraction_value(self):
        report = man_omega(factor_m2x1(), full_algebra(4))
        assert abs(report.S - 0.75) < 1e-12
        assert abs(report.S2 - 2.0) < 1e-12

    def test_masa_pair(self):
        report = man_omega(diagonal_masa(2), masa_from_unitary(HADAMARD))
        assert abs(report.S - 0.5) < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraError):
            man_omega(full_algebra(2), full_algebra(3))

    def test_block_trace_matches_explicit_omega(self):
        # the block-by-block trace against Tr(S Omega_A Omega_B) on the d^4 oracle
        for name, a, b in concordance_pairs():
            d = a.d
            omega_a = omega_operator(a, "bases").matrix
            omega_b = omega_operator(b, "bases").matrix
            explicit = 1.0 - float(np.real(np.sum(omega_a[swap_perm(d)] * omega_b.T))) / d
            assert abs(man_omega(a, b).S - explicit) <= 1e-12, name

    def test_orbit_mc_matches_explicit_omega_loop(self):
        rng = RngStream(4242)
        for name, a, b in concordance_pairs():
            d = a.d
            omega_a = omega_operator(a, "bases").matrix[swap_perm(d)]
            omega_b = omega_operator(b, "bases").matrix
            draws = rng.substream(5)
            vals = []
            for i in range(5):
                u = _haar_unitary_from_generator(d, draws.generator(i))
                k = np.kron(u, u)
                omega_u = k @ omega_b @ dagger(k)
                vals.append(1.0 - float(np.real(np.sum(omega_a * omega_u.T))) / d)
            res = mc_orbit_averaged_man(a, b, 5, rng)
            assert abs(res.estimate - np.mean(vals)) <= 1e-12, name
            assert abs(res.std_error - np.std(vals, ddof=1) / math.sqrt(5)) <= 1e-12, name


class TestBlockOverlap:
    # Tr(P_A P_B') block by block against the dense cross Gram of A and B'
    @staticmethod
    def _check(a, b, label):
        b_comm = b.commutant_algebra()
        want = ref_hs_overlap(a, b_comm)
        got, dim = _projection_overlap(a, b)
        assert abs(got - want) <= 1e-12 * max(1.0, want), label
        assert dim == b_comm.dim, label

    @pytest.mark.parametrize("blocks_a, blocks_b", [
        ([(1, 2), (2, 1)], [(1, 1), (3, 1)]),  # A non-collinear
        ([(2, 3), (1, 2)], [(4, 1), (2, 2)]),  # A non-collinear, n_J != d_J
        ([(3, 1), (1, 3)], [(2, 3)]),
        ([(2, 4), (1, 2)], [(1, 4), (3, 2)]),  # A collinear with n_J/d_J = 1/2
        ([(4, 2), (2, 1)], [(5, 2)]),  # A collinear with n_J/d_J = 2
    ])
    def test_rotated_structural_pairs(self, blocks_a, blocks_b):
        d = sum(n * dj for n, dj in blocks_a)
        a = structural_algebra(blocks_a, basis_change=random_unitary(d, 71))
        b = structural_algebra(blocks_b, basis_change=random_unitary(d, 72))
        self._check(a, b, f"{blocks_a}|{blocks_b}")
        self._check(b, a, f"{blocks_b}|{blocks_a}")

    def test_generators_algebras(self):
        # blocks solved by the structure solver, in Haar position
        ref_a = structural_algebra([(1, 2), (2, 2)], basis_change=random_unitary(6, 901))
        ref_b = structural_algebra([(2, 1), (1, 4)], basis_change=random_unitary(6, 902))
        a = algebra_from_generators([ref_a.project(random_matrix(6, s)) for s in (1, 2)], 6)
        b = algebra_from_generators([ref_b.project(random_matrix(6, s)) for s in (3, 4)], 6)
        self._check(a, b, "generators")
        self._check(b, a, "generators, swapped")

    def test_fixture_pairs(self):
        # masa, lattice, full, trivial and solved (symmetric) algebras
        for name, a, b in concordance_pairs():
            self._check(a, b, name)

    def test_self_mode_is_center_dimension(self):
        pairs = concordance_pairs()
        for name, a in [(n, a) for n, a, _ in pairs] + [("sym", symmetric_operator_algebra())]:
            d_z = a.decomposition().d_Z
            assert _projection_overlap(a) == (float(d_z), d_z), name
            assert abs(ref_hs_overlap(a, algebras.center(a)) - d_z) <= 1e-12, name


class TestScale:
    # d = 64 in Haar bases: every exact route and the A-OTOC without d^6 work
    def test_d64_routes_agree(self):
        a = structural_algebra([(4, 8), (2, 16)], basis_change=random_unitary(64, 6401))
        b = structural_algebra([(8, 4), (2, 16)], basis_change=random_unitary(64, 6402))
        s = man_omega(a, b).S
        assert abs(man_projection(a, b).S - s) <= 1e-9
        assert abs(entropy_decomposition_man(a, b).S - s) <= 1e-9
        assert abs(man_bounds(a, b)["S"] - s) <= 1e-9
        u = random_unitary(64, 6403)
        evolved = a.commutant_algebra().conjugated(u)
        assert abs(a_otoc(a, u).S - man_projection(a, evolved).S) <= 1e-9


class TestGeneratorsSpecs:
    # no cached structure: every route goes through the structure solver
    @pytest.mark.parametrize(
        "blocks_a, blocks_b",
        [([(1, 2), (2, 4)], [(2, 2), (3, 2)]), ([(1, 3), (1, 3)], [(2, 1), (1, 4)])],
    )
    def test_exact_routes_agree(self, blocks_a, blocks_b):
        d = sum(n * dj for n, dj in blocks_a)
        ref_a = structural_algebra(blocks_a, basis_change=random_unitary(d, 901))
        ref_b = structural_algebra(blocks_b, basis_change=random_unitary(d, 902))
        a = algebra_from_generators([ref_a.project(random_matrix(d, s)) for s in (1, 2)], d)
        b = algebra_from_generators([ref_b.project(random_matrix(d, s)) for s in (3, 4)], d)
        want = man_omega(ref_a, ref_b).S
        assert abs(man_omega(a, b).S - want) <= 1e-9
        assert abs(man_projection(a, b).S - want) <= 1e-9
        assert abs(entropy_decomposition_man(a, b).S - want) <= 1e-9
        assert abs(man_collinear(a, b).S - want) <= 1e-9
        bounds = man_bounds(a, b)
        assert abs(bounds["S"] - want) <= 1e-9
        assert bounds["intersection_dim"] == man_bounds(ref_a, ref_b)["intersection_dim"]
        assert abs(self_man(a).S - self_man(ref_a).S) <= 1e-12


class TestManProjection:
    def test_commutant_pair_vanishes(self):
        for name, a, _ in concordance_pairs()[:8]:
            assert man_projection(a, compute_commutant(a)).S <= 1e-9, name

    def test_product_masa(self):
        assert abs(man_projection(factor_m2x1(), diagonal_masa(4)).S - 0.5) < 1e-9

    def test_bell_masa(self):
        assert abs(man_projection(factor_m2x1(), bell_masa()).S - 0.75) < 1e-9

    def test_symmetry(self):
        for name, a, b in concordance_pairs():
            s_ab = man_projection(a, b).S
            s_ba = man_projection(b, a).S
            assert abs(s_ab - s_ba) <= 1e-9, name


class TestManCollinear:
    def test_full_self(self):
        report = man_collinear(full_algebra(2), full_algebra(2))
        assert abs(report.S - 0.75) < 1e-12
        assert abs(report.extras["hs_overlap"] - 1.0) < 1e-12

    def test_zero_via_distance_form(self):
        a = factor_m2x1()
        b = factor_1xm2()  # b' = a, so d(A) = d(B') and the distance form applies
        report = man_collinear(a, b)
        assert report.S <= 1e-12
        assert report.extras["distance_form"] <= 1e-12

    def test_masa_pair_cross_formula(self):
        a, b = diagonal_masa(2), masa_from_unitary(HADAMARD)
        assert abs(man_collinear(a, b).S - man_omega(a, b).S) < 1e-9

    def test_non_collinear_rejected(self):
        with pytest.raises(NonCollinearError):
            man_collinear(symmetric_operator_algebra(), full_algebra(4))


class TestSelfMan:
    def test_full_m2(self):
        assert abs(self_man(full_algebra(2)).S - 0.75) < 1e-12

    def test_symmetric_operators(self):
        assert abs(self_man(symmetric_operator_algebra()).S - 2 / 3) < 1e-12

    def test_asymptotically_abelian(self):
        assert abs(self_man(asymptotically_abelian_algebra(4)).S - 3 / 8) < 1e-12

    def test_collinear_form_agrees(self):
        report = self_man(full_algebra(3))
        assert abs(report.extras["collinear_form"] - report.S) < 1e-12

    def test_weighted_mean_identity(self):
        for name, a, _ in concordance_pairs():
            report = self_man(a)
            assert abs(report.extras["irrep_mean_form"] - report.S) <= 1e-12, name

    def test_log_form(self):
        report = self_man(factor_m2x1())
        assert abs(report.S2 - log_man(report.S)) < 1e-12

    def test_masa_vanishes(self):
        assert self_man(diagonal_masa(5)).S == 0.0


class TestManBounds:
    def test_fraction_attained(self):
        record = man_bounds(factor_m2x1(), full_algebra(4))
        assert abs(record["commutant_bound"] - 0.75) < 1e-12
        assert abs(record["S"] - record["commutant_bound"]) < 1e-9

    def test_lattice_intersection_bound_attained(self):
        # B = commutant of a lattice region, so [P_A, P_B'] = 0
        a = lattice_algebra([2, 2, 2], {0, 1})
        b = lattice_algebra([2, 2, 2], {1, 2}).commutant_algebra()
        record = man_bounds(a, b)
        assert "intersection_bound" in record
        assert abs(record["S"] - record["intersection_bound"]) < 1e-9

    def test_scalars_below_everything(self):
        record = man_bounds(trivial_algebra(4), bell_masa())
        assert record["S"] <= 1e-12
        for key in ("commutant_bound", "weak_bound", "intersection_bound"):
            assert record[key] >= -1e-12

    def test_log_variants(self):
        record = man_bounds(factor_m2x1(), full_algebra(4))
        assert abs(record["commutant_bound_S2"] - log_man(record["commutant_bound"])) < 1e-9
        assert abs(record["weak_bound_S2"] - math.log2(4)) < 1e-12

    def test_every_bound_dominates_s(self):
        for name, a, b in concordance_pairs():
            record = man_bounds(a, b)
            for key in ("commutant_bound", "weak_bound", "intersection_bound"):
                if key in record:
                    assert record[key] >= record["S"] - 1e-9, (name, key)


class TestOrbitAverage:
    def test_full_self(self):
        assert abs(orbit_averaged_man(full_algebra(2), full_algebra(2)) - 0.75) < 1e-12

    def test_embedded_factor(self):
        assert abs(orbit_averaged_man(factor_m2x1(), factor_m2x1()) - 0.6) < 1e-12

    def test_scalars_vanish(self):
        assert orbit_averaged_man(trivial_algebra(3), full_algebra(3)) == 0.0

    def test_d1_rejected(self):
        with pytest.raises(AlgebraError):
            orbit_averaged_man(full_algebra(1), full_algebra(1))


class TestLatticeMan:
    def test_single_site_overlap(self):
        report = lattice_man([2], [0], [0])
        assert abs(report.S - 0.75) < 1e-12
        assert abs(report.S2 - 2.0) < 1e-12

    def test_disjoint_regions(self):
        report = lattice_man([2, 2, 2], [0], [1, 2])
        assert report.S == 0.0 and report.S2 == 0.0

    def test_partial_overlap_and_conditional(self):
        report = lattice_man([2, 2, 2], [0, 1], [1, 2])
        assert abs(report.S - 0.75) < 1e-12
        assert abs(report.S2 - 2.0) < 1e-12
        assert abs(report.extras["s2_conditional"] - 2.0) < 1e-12

    def test_nc_forms(self):
        report = lattice_man([3, 3], [0, 1], [0])
        assert abs(report.extras["nc_1"] - (1 - 3.0 ** (-4))) < 1e-12
        assert abs(report.extras["nc2_1"] - 2 * math.log2(9) / 2 * 2) < 1e-9

    def test_non_uniform_rejected(self):
        with pytest.raises(AlgebraError):
            lattice_man([2, 3], [0], [1])

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_matches_explicit_algebras(self, data):
        sites = [2, 2]
        s1 = data.draw(st.sets(st.integers(0, 1)))
        s2 = data.draw(st.sets(st.integers(0, 1)))
        closed = lattice_man(sites, s1, s2)
        explicit = man_omega(lattice_algebra(sites, s1), lattice_algebra(sites, s2))
        assert abs(closed.S - explicit.S) < 1e-9


class TestMasaMan:
    def test_identical_bases(self):
        assert masa_man(np.eye(3), np.eye(3)).S == 0.0

    def test_hadamard(self):
        assert abs(masa_man(np.eye(2), HADAMARD).S - 0.5) < 1e-12

    def test_fourier_d3(self):
        assert abs(masa_man(np.eye(3), fourier_basis(3)).S - (1 - 1 / 3)) < 1e-12

    def test_same_algebra_different_basis_order(self):
        perm = np.eye(3)[:, [2, 0, 1]]
        phases = np.diag(np.exp(1j * np.array([0.3, -1.2, 2.0])))
        assert masa_man(np.eye(3), phases @ perm).S <= 1e-12

    def test_agrees_with_algebra_route(self):
        u = random_unitary(3, 55)
        direct = masa_man(np.eye(3), u).S
        alg = man_omega(diagonal_masa(3), masa_from_unitary(u)).S
        assert abs(direct - alg) < 1e-9

    def test_non_orthonormal_rejected(self):
        with pytest.raises(AlgebraError):
            masa_man(np.eye(2), np.ones((2, 2)))


class TestQuantumness:
    def test_identical_bases(self):
        assert quantumness(np.eye(4), np.eye(4)).Q == 0.0

    def test_mub_d2(self):
        report = quantumness(np.eye(2), HADAMARD)
        assert abs(report.Q - 0.5) < 1e-12
        assert abs(report.S - 0.5) < 1e-12
        assert report.lower_holds and report.upper_holds

    def test_bounds_on_random_pairs(self):
        for k in range(100):
            u = random_unitary(3, 7000 + k)
            report = quantumness(np.eye(3), u)
            assert 0.0 <= report.Q <= report.S + 1e-9
            assert report.S <= 3 * report.Q + 1e-9


class TestAOtoc:
    def test_identity_unitary(self):
        assert a_otoc(factor_m2x1(), np.eye(4)).S <= 1e-12

    def test_swap_reaches_self_man(self):
        swap = swap_operator([2], {0})
        report = a_otoc(factor_m2x1(), swap)
        assert abs(report.S - 0.75) < 1e-9
        # U(A') = A here, so the value equals the self-MAN
        assert abs(report.S - self_man(factor_m2x1()).S) < 1e-9

    def test_masa_hadamard_is_coherence_power(self):
        report = a_otoc(diagonal_masa(2), HADAMARD)
        assert abs(report.S - masa_man(np.eye(2), HADAMARD).S) < 1e-9

    def test_non_unitary_rejected(self):
        with pytest.raises(AlgebraError):
            a_otoc(factor_m2x1(), np.ones((4, 4)))

    def test_generators_spec_reuses_its_blocks(self, monkeypatch):
        # U(A') of an algebra with no cached structure: its blocks are A's with
        # the factors swapped, so only A itself is ever decomposed
        ref = structural_algebra([(2, 4), (4, 2)], basis_change=random_unitary(16, 1601))
        alg = algebra_from_generators([ref.project(random_matrix(16, s)) for s in (3, 4)], 16)
        assert alg.dim == ref.dim
        u = random_unitary(16, 1602)
        solves = []
        original = algebras._compute_decomposition

        def counted(*args, **kwargs):
            solves.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(algebras, "_compute_decomposition", counted)
        got = a_otoc(alg, u).S
        assert solves == [alg]
        want = man_projection(ref, ref.commutant_algebra().conjugated(u)).S
        assert abs(got - want) <= 1e-9
        evolved_dec = alg.commutant_algebra().conjugated(u).decomposition()
        assert sorted(zip(evolved_dec.n_vec, evolved_dec.d_vec)) == [(2, 4), (4, 2)]

    def test_bipartite_otoc_is_operator_entanglement_form(self):
        # for a factor, the A-OTOC of U equals the entropy-decomposition value
        u = random_unitary(4, 3030)
        lhs = a_otoc(factor_m2x1(), u).S
        evolved = factor_m2x1().commutant_algebra().conjugated(u)
        rhs = entropy_decomposition_man(factor_m2x1(), evolved).S
        assert abs(lhs - rhs) < 1e-9


class TestEntropyDecomposition:
    def test_commutant_pair_vanishes(self):
        a = factor_m2x1()
        assert entropy_decomposition_man(a, compute_commutant(a)).S <= 1e-9

    def test_product_masa(self):
        got = entropy_decomposition_man(factor_m2x1(), diagonal_masa(4))
        assert abs(got.S - 0.5) < 1e-9
        assert abs(got.S - man_projection(factor_m2x1(), diagonal_masa(4)).S) < 1e-9

    def test_per_block_terms_sum(self):
        report = entropy_decomposition_man(factor_m2x1(), bell_masa())
        total = sum(b["term"] for b in report.extras["per_block"])
        assert abs(total - report.S) < 1e-12

    def test_scalar_second_argument(self):
        # one block with n = d, d_J = 1: its negative offset term must cancel
        got = entropy_decomposition_man(full_algebra(2), trivial_algebra(2))
        assert got.S <= 1e-12

    def test_non_collinear_second_argument(self):
        a, b = full_algebra(4), symmetric_operator_algebra()
        assert abs(entropy_decomposition_man(a, b).S - man_omega(a, b).S) < 1e-9


class TestCrossFormulaInvariants:
    def test_concordance(self):
        for name, a, b in concordance_pairs():
            s_omega = man_omega(a, b).S
            s_proj = man_projection(a, b).S
            s_entropy = entropy_decomposition_man(a, b).S
            assert abs(s_omega - s_proj) <= 1e-9, name
            assert abs(s_omega - s_entropy) <= 1e-9, name
            if is_collinear(a.decomposition())[0]:
                assert abs(man_collinear(a, b).S - s_omega) <= 1e-9, name

    def test_symmetry_of_omega_route(self):
        for name, a, b in concordance_pairs():
            assert abs(man_omega(a, b).S - man_omega(b, a).S) <= 1e-9, name

    def test_vanishing_iff_commutant_inclusion(self):
        pairs = [
            (factor_m2x1(), factor_1xm2(), True),
            (diagonal_masa(2), diagonal_masa(2), True),
            (trivial_algebra(4), bell_masa(), True),
            (factor_m2x1(), bell_masa(), False),
            (diagonal_masa(2), masa_from_unitary(HADAMARD), False),
        ]
        for a, b, should_vanish in pairs:
            s = man_omega(a, b).S
            b_comm = compute_commutant(b)
            residuals = [
                np.linalg.norm(e - b_comm.project(e)) for e in a.block_bases().e
            ]
            included = all(r <= 1e-8 for r in residuals)
            assert (s <= 1e-9) == should_vanish
            assert included == should_vanish

    def test_unitary_invariance(self):
        cases = [
            (factor_m2x1(), bell_masa()),
            (diagonal_masa(2), masa_from_unitary(HADAMARD)),
            (symmetric_operator_algebra(), full_algebra(4)),
        ]
        for a, b in cases:
            base = man_omega(a, b).S
            for k in range(20):
                u = random_unitary(a.d, 9000 + k)
                rotated = man_omega(a.conjugated(u), b.conjugated(u)).S
                assert abs(rotated - base) <= 1e-9

    def test_monotonicity_along_lattice_chain(self):
        sites = [2, 2, 2]
        chain = [
            trivial_algebra(8),
            lattice_algebra(sites, {0}),
            lattice_algebra(sites, {0, 1}),
            full_algebra(8),
        ]
        probes = [lattice_algebra(sites, {1}), full_algebra(8), lattice_algebra(sites, {0, 2})]
        for probe in probes:
            values = [man_omega(a, probe).S for a in chain]
            assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(values, values[1:]))
            # same monotonicity in the second argument
            values_b = [man_omega(probe, a).S for a in chain]
            assert all(v2 >= v1 - 1e-9 for v1, v2 in zip(values_b, values_b[1:]))

    def test_range(self):
        for name, a, b in concordance_pairs():
            s = man_omega(a, b).S
            assert 0.0 <= s <= 1.0 - 1.0 / a.d**2 + 1e-9, name

    def test_log_base_e(self):
        report = man_omega(factor_m2x1(), full_algebra(4), log_base=math.e)
        assert abs(report.S2 - math.log(4.0)) < 1e-9


class TestFactorAbelianRenyi:
    def test_log_man_bounded_by_mean_renyi_entropy(self):
        # For A = M2 (x) 1 and a maximal abelian B from basis vectors |i>,
        # S2(A:B) = -log((1/d) sum_i ||rho_i||^2) with rho_i the conditional
        # expectation of |i><i| onto the commutant; convexity bounds it by the
        # mean 2-Renyi entropy of the rho_i, with equality at Bell bases.
        from manlab.linalg import partial_trace

        a = factor_m2x1()
        for tag, basis in (("bell", BELL), ("random", random_unitary(4, 1234))):
            report = man_omega(a, masa_from_unitary(basis))
            purities = []
            for i in range(4):
                pi = np.outer(basis[:, i], basis[:, i].conj())
                rho = np.kron(np.eye(2) / 2, partial_trace(pi, [2, 2], {1}))
                purities.append(float(np.real(np.sum(rho.conj() * rho))))
            mean_renyi = float(np.mean([-np.log2(p) for p in purities]))
            assert report.S2 <= mean_renyi + 1e-9, tag
            if tag == "bell":
                assert abs(report.S2 - mean_renyi) < 1e-9
