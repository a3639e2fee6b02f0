"""Acceptance criteria.

Each test enforces one numbered acceptance criterion at its stated tolerance
and prints a PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
The criteria rest on exact closed-form values, cross-formula identities and
statistical oracle agreement; there is no external experiment to reproduce.
"""

import math
import time
from itertools import product

import numpy as np

from manlab.algebras import (
    algebra_from_generators,
    compute_commutant,
    diagonal_masa,
    full_algebra,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from manlab.linalg import dagger
from manlab.man import (
    entropy_decomposition_man,
    man_collinear,
    man_omega,
    man_projection,
    orbit_averaged_man,
    self_man,
)
from manlab.masa import quantumness
from manlab.oracles import algebra_state, algebras_equal, kraus_projection_maps
from manlab.report import lattice_man
from manlab.protocols import (
    markov_bound_check,
    mc_man_direct,
    mc_orbit_averaged_man,
    protocol_choi,
    protocol_stochastic,
)
from manlab.rng import RngStream
from manlab.algebras import center

from helpers import (
    asymptotically_abelian_algebra,
    bell_masa,
    concordance_pairs,
    factor_1xm2,
    factor_m2x1,
    random_unitary,
    strip_structure,
    symmetric_operator_algebra,
)

SEED = RngStream(2718)


def _ok(num: int, message: str) -> None:
    print(f"\nPASS criterion {num}: {message}")


def test_criterion_1_exact_self_man_values():
    t0 = time.perf_counter()
    sym = symmetric_operator_algebra()
    assert abs(self_man(sym).S - 2 / 3) <= 1e-12
    for d in (3, 4, 8):
        alg = asymptotically_abelian_algebra(d)
        assert abs(self_man(alg).S - 3 / (2 * d)) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"took {elapsed:.2f}s"
    _ok(1, f"symmetric-operator NC = 2/3 and 3/(2d) family exact to 1e-12 in {elapsed:.2f}s")


def test_criterion_2_fraction_law():
    fixtures = [lattice_algebra([2, 2, 2], set(r)) for r in _all_regions(3)]
    fixtures += [
        symmetric_operator_algebra(),
        asymptotically_abelian_algebra(3),
        diagonal_masa(4),
        bell_masa(),
    ]
    assert len(fixtures) >= 10
    for alg in fixtures:
        d = alg.d
        closed = 1.0 - alg.decomposition().summary.d_comm / d**2
        got = man_omega(alg, full_algebra(d)).S
        assert abs(got - closed) <= 1e-10
    _ok(2, f"S(A:L(H)) = 1 - d(A')/d^2 to 1e-10 on {len(fixtures)} fixtures")


def test_criterion_3_formula_concordance():
    t0 = time.perf_counter()
    pairs = concordance_pairs()
    assert len(pairs) >= 20
    checked = 0
    for name, a, b in pairs:
        values = {
            "omega": man_omega(a, b).S,
            "projection": man_projection(a, b).S,
            "entropy": entropy_decomposition_man(a, b).S,
        }
        if a.decomposition().summary.collinear:
            values["collinear"] = man_collinear(a, b).S
        vals = list(values.values())
        for x in vals:
            for y in vals:
                assert abs(x - y) <= 1e-9, (name, values)
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    _ok(3, f"all formulas agree pairwise to 1e-9 on {checked} pairs in {elapsed:.2f}s")


def test_criterion_4_oracle_equivalence():
    pairs = [
        ("full2:full2", full_algebra(2), full_algebra(2), 0.75),
        ("m2x1:bell", factor_m2x1(), bell_masa(), 0.75),
        ("m2x1:full4", factor_m2x1(), full_algebra(4), 0.75),
        ("m2x1:prod4", factor_m2x1(), diagonal_masa(4), 0.5),
        ("diag2:had2", diagonal_masa(2),
         masa_from_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2)), 0.5),
        ("sym22:sym22", symmetric_operator_algebra(), symmetric_operator_algebra(), 2 / 3),
        ("asym3:full3", asymptotically_abelian_algebra(3), full_algebra(3), 1 - 2 / 9),
        ("m2x1:1xm2", factor_m2x1(), factor_1xm2(), 0.0),
    ]
    for idx, (name, a, b, expected) in enumerate(pairs):
        closed = man_omega(a, b).S
        assert abs(closed - expected) <= 1e-9, name
        res = mc_man_direct(a, b, 10_000, SEED.substream(100 + idx))
        if res.std_error == 0.0:
            assert abs(res.estimate - closed) <= 1e-12, name
        else:
            assert abs(res.estimate - closed) <= 5 * res.std_error, (
                name, res.estimate, closed, res.std_error)
    _ok(4, f"direct Haar oracle at 1e4 samples within 5 std errors on {len(pairs)} pairs")


def _all_regions(n):
    return [tuple(s for s in range(n) if (mask >> s) & 1) for mask in range(2**n)]


def test_criterion_5_lattice_net():
    for d_site in (2, 3):
        sites = [d_site] * 3
        algs = {r: lattice_algebra(sites, r) for r in _all_regions(3)}
        comp = {r: tuple(s for s in range(3) if s not in r) for r in algs}
        c_d = math.log2(d_site**2)
        pairs = 0
        for s1, s2 in product(algs, repeat=2):
            closed = lattice_man(sites, s1, s2)
            explicit = man_omega(algs[s1], algs[s2])
            assert abs(explicit.S - closed.S) <= 1e-9, (d_site, s1, s2)
            overlap = len(set(s1) & set(s2))
            assert abs(closed.S - (1 - float(d_site) ** (-2 * overlap))) <= 1e-12
            # conditional log-MAN against the commutant region, explicitly
            conditional = man_omega(algs[s1], algs[comp[s2]])
            expected_s2 = c_d * len(set(s1) - set(s2))
            assert abs(conditional.S2 - expected_s2) <= 1e-6, (d_site, s1, s2)
            assert abs(closed.extras["s2_conditional"] - expected_s2) <= 1e-12
            pairs += 1
        assert pairs == 64
    _ok(5, "explicit lattice MAN matches 1 - d^(-2|S1&S2|) and conditional "
           "log-MAN counts |S1\\S2| sites for all 64 pairs at d_site in {2,3}")


def test_criterion_6_orbit_average():
    cases = [
        ("m2x1:m2x1", factor_m2x1(), factor_m2x1(), 0.6),
        ("m2x1:full4", factor_m2x1(), full_algebra(4), 0.75),
        ("diag2:had2", diagonal_masa(2),
         masa_from_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2)), 1 / 3),
    ]
    for idx, (name, a, b, expected) in enumerate(cases):
        closed = orbit_averaged_man(a, b)
        assert abs(closed - expected) <= 1e-12, name
        res = mc_orbit_averaged_man(a, b, 10_000, SEED.substream(200 + idx))
        assert abs(res.estimate - closed) <= 5 * res.std_error, name
    _ok(6, "Haar-orbit averaged MAN matches its product closed form within 5 sigma")


def test_criterion_7_protocols():
    pairs = [
        (factor_m2x1(), bell_masa()),
        (diagonal_masa(2), masa_from_unitary(np.array([[1, 1], [1, -1]]) / np.sqrt(2))),
        (full_algebra(3), diagonal_masa(3)),
    ]
    for a, b in pairs:
        reference = man_collinear(a, b).S
        assert abs(protocol_choi(a, b).estimate - reference) <= 1e-9
        assert abs(protocol_stochastic(a, b).estimate - reference) <= 1e-9
    # sampled modes at 1e4
    a, b = factor_m2x1(), bell_masa()
    reference = man_collinear(a, b).S
    choi = protocol_choi(a, b, shots=10_000, rng=SEED.substream(71))
    assert abs(choi.estimate - reference) <= 5 * choi.std_error
    stoch = protocol_stochastic(a, b, samples=10_000, rng=SEED.substream(72))
    assert abs(stoch.estimate - reference) <= 5 * stoch.std_error
    both = protocol_stochastic(a, b, samples=2_000, shots=10_000, rng=SEED.substream(73))
    assert abs(both.estimate - reference) <= 5 * both.std_error
    # self-MAN Renyi identity through the algebra states
    for alg in (full_algebra(2), factor_m2x1(), full_algebra(3),
                lattice_algebra([2, 2, 2], {0, 1})):
        nc2 = self_man(alg).S2
        gap = algebra_state(center(alg)).renyi2() - algebra_state(alg).renyi2()
        assert abs(gap - nc2) <= 1e-9
        assert abs(protocol_choi(alg).extras["nc2"] - nc2) <= 1e-9
    _ok(7, "protocol simulators reproduce the collinear closed form exactly, "
           "within 5 sigma when sampled, and satisfy the 2-Renyi self-MAN identity")


def test_criterion_8_quantumness_bounds():
    mub = quantumness(np.eye(2), np.array([[1, 1], [1, -1]]) / np.sqrt(2))
    assert abs(mub.Q - 0.5) <= 1e-12 and abs(mub.S - 0.5) <= 1e-12
    for d in (2, 3, 4):
        for k in range(100):
            u = random_unitary(d, 40_000 + 1000 * d + k)
            rep = quantumness(np.eye(d), u)
            assert rep.Q <= rep.S + 1e-9, (d, k)
            assert rep.S <= d * rep.Q + 1e-9, (d, k)
    _ok(8, "Q <= S <= d*Q on 100 random basis pairs per d in {2,3,4}; "
           "d=2 mutually unbiased pair gives (0.5, 0.5)")


def test_criterion_9_structural_suites_and_markov():
    fixtures = [
        ("gen-full2", algebra_from_generators(
            [np.array([[0, 1], [1, 0]]), np.diag([1.0, -1.0])], 2)),
        ("sym22", symmetric_operator_algebra()),
        ("rot3", strip_structure(structural_algebra(
            [(1, 1), (1, 2)], basis_change=random_unitary(3, 5151)))),
        ("rot4", strip_structure(structural_algebra(
            [(1, 2), (2, 1)], basis_change=random_unitary(4, 5252)))),
        ("lat02", strip_structure(lattice_algebra([2, 2, 2], {0, 2}))),
    ]
    for name, alg in fixtures:
        # double commutant
        comm = compute_commutant(alg)
        assert algebras_equal(compute_commutant(comm), alg), name
        # dimension bookkeeping
        dec = alg.decomposition()
        assert sum(n * dj for n, dj in dec.shapes) == alg.d, name
        assert dec.summary.d_alg == alg.dim and dec.summary.d_comm == comm.dim, name
        product_dim = dec.summary.d_alg * dec.summary.d_comm
        assert product_dim >= alg.d**2
        assert (product_dim == alg.d**2) == dec.summary.collinear, name
        # conditional-expectation laws
        p = alg.projection_superoperator()
        assert np.linalg.norm((p @ p).transfer - p.transfer) <= 1e-9, name
        assert np.linalg.norm(p.hs_adjoint().transfer - p.transfer) <= 1e-9, name
        assert p.is_unital() and p.is_trace_preserving() and p.choi_is_psd(), name
        kraus_p, _ = kraus_projection_maps(dec)
        assert np.linalg.norm(kraus_p.transfer - p.transfer) <= 1e-9, name
        u = random_unitary(alg.d, 6000 + alg.d)
        conj = np.kron(u, u.conj())
        lhs = alg.conjugated(u).projection_superoperator().transfer
        assert np.linalg.norm(lhs - conj @ p.transfer @ dagger(conj)) <= 1e-9, name
    # monotonicity along a nested chain, both arguments
    sites = [2, 2, 2]
    chain = [trivial_algebra(8), lattice_algebra(sites, {0}),
             lattice_algebra(sites, {0, 1}), full_algebra(8)]
    probe = lattice_algebra(sites, {1, 2})
    for first, second in zip(chain, chain[1:]):
        assert man_omega(second, probe).S >= man_omega(first, probe).S - 1e-9
        assert man_omega(probe, second).S >= man_omega(probe, first).S - 1e-9
    # Markov-bound grid: zero violations anywhere
    grid_pairs = [
        (diagonal_masa(2), full_algebra(2)),
        (factor_m2x1(), bell_masa()),
    ]
    violations = 0
    cells = 0
    for a, b in grid_pairs:
        for eps in (0.3, 0.8):
            rep = markov_bound_check(a, b, epsilon=eps, samples=300,
                                     state_samples=12, rng=SEED.substream(cells))
            violations += int(rep.violated)
            cells += 1
    assert violations == 0
    _ok(9, f"structural-theory suites pass; Markov grid ({cells} cells) has zero violations")


def test_criterion_10_no_external_experiment():
    # There is no numerical experiment in the source material to replay; the
    # acceptance evidence is the exact values, identities and oracle
    # agreements asserted by criteria 1-9.
    _ok(10, "acceptance rests on exact values, cross-formula identities and "
            "statistical oracle agreement (criteria 1-9); no external "
            "experiment exists to reproduce")
