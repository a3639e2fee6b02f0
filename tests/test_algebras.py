"""Algebra construction, commutants, central decomposition, projections."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from manlab.algebras import (
    OperatorAlgebra,
    StructuralSummary,
    algebra_from_basis,
    algebra_from_generators,
    algebra_intersection,
    center,
    commutant_intersection_dim,
    compute_commutant,
    diagonal_masa,
    full_algebra,
    haar_algebra_unitary,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from manlab.errors import AlgebraError, DecompositionError, SpecFileError
from manlab.linalg import dagger, hs_norm_sq
from manlab.oracles import algebras_equal, block_bases, kraus_projection_maps, omega_operator
from manlab.rng import RngStream
from manlab.specio import spec_from_dict

from helpers import (
    HADAMARD,
    SX,
    SZ,
    concordance_pairs,
    factor_1xm2,
    factor_m2x1,
    krylov_closure,
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

    def test_non_finite_generator_is_refused(self):
        # its norm is not > 0, so it used to be dropped and C1 returned
        for bad in (np.nan, np.inf):
            with pytest.raises(AlgebraError):
                algebra_from_generators([np.full((2, 2), bad)], 2)
            with pytest.raises(AlgebraError):
                algebra_from_generators([SX, np.diag([1.0, bad])], 2)

    @pytest.mark.parametrize("scale", [5e-324, 1e-200, 1e200, 1e300, 1.7e308])
    def test_tiny_and_huge_entries(self, scale):
        # the HS norm of these finite entries underflows to 0 or overflows
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        assert algebras_equal(algebra_from_generators([scale * SZ], 2), diagonal_masa(2))
        assert algebras_equal(algebra_from_generators([scale * e01], 2), full_algebra(2))

    def test_validate_rejects_non_closed_span(self):
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), SX / np.sqrt(2)])
        algebra_from_basis(2, basis).validate()  # span{1, sigma_x} is an algebra
        # {1, |0><1|} is not closed under adjoints: the solve returns the algebra the
        # basis generates, M_2, and the dimension check fails at birth once, without
        # redrawing
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        bad = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), e01])
        import manlab.algebras as mod

        calls, attempt = [], mod._decompose_attempt

        def counted(*args):
            calls.append(args)
            return attempt(*args)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(mod, "_decompose_attempt", counted)
            with pytest.raises(DecompositionError, match="spans 2 dimensions .* dimension 4"):
                algebra_from_basis(2, bad)
        assert len(calls) == 1

    def test_validate_rejects_non_orthonormal_basis(self):
        # {1/sqrt 2, (1 + sigma_z)/2} spans the diagonal algebra, so it is born, but
        # its elements overlap; only validate() refuses it
        basis = np.stack([np.eye(2, dtype=complex) / np.sqrt(2), (np.eye(2) + SZ) / 2])
        alg = algebra_from_basis(2, basis)
        assert alg.decomposition().shapes == ((1, 1), (1, 1))
        with pytest.raises(AlgebraError, match="not HS-orthonormal"):
            alg.validate()


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


# (name, block data, which generators): the spectral solve must recover the
# generated blocks of a rotated structural algebra from its generators alone.
SPECTRAL_CASES = [
    ("n>d", [(3, 2), (4, 1), (2, 3)], "pair"),
    ("d=1", [(1, 1), (2, 1), (3, 1)], "pair"),
    ("repeated", [(2, 2), (2, 2), (1, 3)], "pair"),
    ("single", [(1, 3), (2, 2)], "single"),
    ("commuting", [(1, 1), (2, 1), (1, 1), (1, 1)], "commuting"),
    ("closed", [(2, 2), (1, 3)], "closed"),
]


def _spectral_generators(blocks, kind):
    d = sum(n * dj for n, dj in blocks)
    ref = structural_algebra(blocks, basis_change=random_unitary(d, 850 + d))
    if kind == "pair":
        return ref, [ref.project(random_matrix(d, 860 + k)) for k in (0, 1)]
    if kind == "single":
        return ref, [ref.project(random_matrix(d, 870))]
    if kind == "commuting":
        # each generator alone is degenerate across blocks; together they split them
        p = [blk.projector for blk in ref.decomposition().blocks]
        return ref, [p[0] + p[1], p[0] + p[2]]
    return ref, list(ref.basis)


class TestSpectralSolve:
    @pytest.mark.parametrize("name, blocks, kind", SPECTRAL_CASES)
    def test_recovers_generated_blocks(self, name, blocks, kind):
        ref, gens = _spectral_generators(blocks, kind)
        alg = algebra_from_generators(gens, ref.d)
        dec = alg.decomposition()
        assert sorted(dec.shapes) == sorted(blocks)
        assert alg.dim == ref.dim
        assert algebras_equal(alg, krylov_closure(gens, ref.d))
        # the same algebra given by a bare basis: its basis elements are the letters
        bare = strip_structure(alg).decomposition()
        assert sorted(bare.shapes) == sorted(blocks)

    def test_degenerate_element_is_refused_for_generators(self, monkeypatch):
        import manlab.algebras as mod

        gens = [factor_m2x1().project(random_matrix(4, s)) for s in (1, 2)]
        monkeypatch.setattr(mod, "_generic_element", lambda letters, draw: np.eye(letters.shape[-1]))
        with pytest.raises(DecompositionError, match="not of the form"):
            algebra_from_generators(gens, 4)

    def test_linked_eigenspaces_of_different_dimension_are_refused(self, monkeypatch):
        import manlab.algebras as mod

        # h = diag(0, 0, 1) has eigenspaces of dimension 2 and 1, and generic letters of
        # M_3 link them; the eigenspaces of one block all have one dimension
        gens = [random_matrix(3, s) for s in (1, 2)]
        h = np.diag([0.0, 0.0, 1.0]) + 0j
        monkeypatch.setattr(mod, "_generic_element", lambda letters, draw: h)
        with pytest.raises(DecompositionError, match="differ in dimension"):
            algebra_from_generators(gens, 3)

    def test_singular_transport_is_refused(self, monkeypatch):
        import manlab.algebras as mod

        # h = diag(0, 0, 1, 1) and the letters |0><2|, |2><0|: the only link between the
        # two eigenspaces of dimension 2 has rank one, so it carries no frame
        e02 = np.zeros((4, 4), dtype=complex)
        e02[0, 2] = 1.0
        h = np.diag([0.0, 0.0, 1.0, 1.0]) + 0j
        monkeypatch.setattr(mod, "_generic_element", lambda letters, draw: h)
        with pytest.raises(DecompositionError, match="singular"):
            algebra_from_generators([e02], 4)


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
    return algebra_from_basis(alg.d, alg.basis * np.exp(1j * theta)[:, None, None])


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


class TestCommutantIntersectionDim:
    # dim(A n B') from the algebra generated by A' and B, against the
    # principal-angle oracle and closed forms
    @staticmethod
    def _check(a, b, label):
        want = algebra_intersection(a, b.commutant_algebra()).dim
        assert commutant_intersection_dim(a, b) == want, label

    def test_fixture_pairs(self):
        # the repeated shapes make shape classes of two blocks, in Haar bases
        # apart and in one shared Haar basis, where the intersection is not C1
        w = random_unitary(8, 1203)
        repeated = [
            (f"repeated shapes, {tag}", structural_algebra([(1, 2), (1, 2), (2, 2)], u),
             structural_algebra([(2, 1), (2, 1), (1, 4)], v))
            for tag, u, v in (("Haar", random_unitary(8, 1204), random_unitary(8, 1205)),
                              ("one basis", w, w))
        ]
        for name, a, b in concordance_pairs() + repeated:
            self._check(a, b, name)
            self._check(b, a, name + ", swapped")

    @pytest.mark.parametrize("blocks_a, blocks_b", [
        ([(2, 2), (2, 2)], [(1, 2), (1, 2), (2, 2)]),
        ([(1, 3), (1, 3)], [(1, 2), (1, 4)]),
        ([(2, 4)], [(1, 4), (1, 4)]),
        ([(2, 2), (1, 4)], [(4, 1), (2, 2)]),
    ])
    def test_rotated_collinear_pairs(self, blocks_a, blocks_b):
        # both structures in one rotated basis, so the intersection is not C1
        d = sum(n * dj for n, dj in blocks_a)
        w = random_unitary(d, 1201)
        a, b = structural_algebra(blocks_a, w), structural_algebra(blocks_b, w)
        for x, y in ((a, b), (b, a)):
            self._check(x, y, f"{blocks_a}|{blocks_b}")
        for x in (a, b):
            assert commutant_intersection_dim(x, x) == x.decomposition().summary.d_Z
            assert commutant_intersection_dim(x, x.commutant_algebra()) == x.dim
            u = random_unitary(d, 1202)
            self._check(x, x.commutant_algebra().conjugated(u), "rotated commutant")

    def test_lattice_closed_form(self):
        sites = range(3)
        regions = [{s for s in sites if mask >> s & 1} for mask in range(8)]
        for r1 in regions:
            for r2 in regions:
                a, b = lattice_algebra([2, 2, 2], r1), lattice_algebra([2, 2, 2], r2)
                assert commutant_intersection_dim(a, b) == (2 ** len(r1 - r2)) ** 2, (r1, r2)
        a, b = lattice_algebra([2, 3, 2], {0, 1}), lattice_algebra([2, 3, 2], {0, 2})
        assert commutant_intersection_dim(a, b) == 9

    def test_dimension_mismatch(self):
        with pytest.raises(AlgebraError):
            commutant_intersection_dim(full_algebra(2), full_algebra(3))


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
        # stripped copies are born from the spectral solve of their basis
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
            assert sorted(comm_dec.shapes) == sorted((dj, n) for n, dj in dec.shapes), name

    def test_too_large_center_is_refused(self, monkeypatch):
        import manlab.algebras as mod

        # a degenerate generic element (the identity) merges every block into
        # one eigenspace; that must not pass the checks
        monkeypatch.setattr(mod, "_generic_element", lambda letters, draw: np.eye(letters.shape[-1]))
        with pytest.raises(DecompositionError):
            strip_structure(factor_m2x1()).decomposition()
        with pytest.raises(DecompositionError):
            strip_structure(structural_algebra([(1, 1), (1, 2)])).decomposition()

    def test_leaking_blocks_are_refused(self, monkeypatch):
        import manlab.algebras as mod

        # blocks of the Hadamard MASA offered for the diagonal MASA: dimensions,
        # fill and the commutant dimension all match; only leakage tells them apart
        had = masa_from_unitary(HADAMARD).decomposition()
        alg = strip_structure(diagonal_masa(2))
        assert had.summary.d_alg == alg.dim and had.summary.d_comm == compute_commutant(alg).dim
        monkeypatch.setattr(mod, "_decompose_attempt", lambda *args: (had.frame, had.shapes))
        with pytest.raises(DecompositionError, match="leak"):
            strip_structure(diagonal_masa(2))

    def test_nan_frames_are_refused(self, monkeypatch):
        import manlab.algebras as mod

        # NaN residuals compare False against any tolerance; they must still fail
        nan_frame = np.full((2, 2), np.nan, dtype=complex)
        monkeypatch.setattr(mod, "_decompose_attempt", lambda *args: (nan_frame, ((1, 1), (1, 1))))
        with pytest.raises(DecompositionError, match="leak"):
            strip_structure(diagonal_masa(2)).decomposition()


class TestOneBirthState:
    """Every algebra holds its decomposition from birth; a bare basis is solved at
    birth and read back exactly as given."""

    def _constructors(self):
        u4 = random_unitary(4, 51)
        gens, _ = _structural_generators(4, 52)
        m2 = factor_m2x1()
        return [
            ("full", lambda: full_algebra(3)),
            ("trivial", lambda: trivial_algebra(3)),
            ("diagonal", lambda: diagonal_masa(3)),
            ("masa", lambda: masa_from_unitary(HADAMARD)),
            ("structural", lambda: structural_algebra([(1, 2), (2, 1)], basis_change=u4)),
            ("lattice", lambda: lattice_algebra([2, 2], {0})),
            ("generators", lambda: algebra_from_generators(gens, 4)),
            ("basis", lambda: algebra_from_basis(4, np.array(m2.basis))),
            ("conjugated", lambda: m2.conjugated(u4)),
            ("commutant", lambda: m2.commutant_algebra()),
            ("center", lambda: center(m2)),
            ("compute_commutant", lambda: compute_commutant(m2)),
            ("intersection", lambda: algebra_intersection(m2, factor_1xm2().commutant_algebra())),
        ]

    def test_reads_after_birth_never_solve(self, monkeypatch):
        import manlab.algebras as mod

        def forbidden(*args):
            raise AssertionError("structure solve after birth")

        for name, build in self._constructors():
            alg = build()
            with monkeypatch.context() as mp:
                mp.setattr(mod, "_compute_decomposition", forbidden)
                dec = alg.decomposition()
                assert alg.dim == dec.summary.d_alg and alg.d == dec.dim, name
                assert alg.decomposition() is dec, name
                comm = alg.commutant_algebra()
                assert comm.dim == dec.summary.d_comm, name

    def test_bare_basis_is_kept_as_given(self, monkeypatch):
        import manlab.algebras as mod

        def forbidden(*args):
            raise AssertionError("basis rebuilt from the blocks")

        given = _with_phases(factor_m2x1(), 53).basis.copy()
        monkeypatch.setattr(mod, "_block_algebra_basis", forbidden)
        alg = algebra_from_basis(4, given)
        assert alg.basis.tobytes() == given.tobytes() and alg.basis.shape == given.shape
        alg.validate()
        for oracle in (compute_commutant(alg), algebra_intersection(alg, alg)):
            oracle.validate()


class TestFrame:
    """Every decomposition is one unitary frame, its blocks are views of it,
    and blocks of one shape class sit in adjacent columns."""

    def _algebras(self):
        u = random_unitary(7, 41)
        # shapes given out of order, with (1, 2) twice
        struct = structural_algebra([(1, 2), (2, 1), (1, 2), (1, 1)], basis_change=u)
        gens = [struct.project(random_matrix(7, 42 + k)) for k in (0, 1)]
        return [
            ("full", full_algebra(5)),
            ("trivial", trivial_algebra(5)),
            ("masa", masa_from_unitary(random_unitary(5, 43))),
            ("structural", struct),
            ("lattice", lattice_algebra([2, 3, 2], {1})),
            ("generators", algebra_from_generators(gens, 7)),
            ("commutant", struct.commutant_algebra()),
            ("center", center(struct)),
            ("conjugated", struct.conjugated(random_unitary(7, 44))),
        ]

    def test_one_frame_per_decomposition(self):
        for name, alg in self._algebras():
            dec = alg.decomposition()
            v = dec.frame
            assert v.shape == (alg.d, alg.d), name
            assert np.linalg.norm(dagger(v) @ v - np.eye(alg.d)) <= 1e-12, name
            assert sum(n * dj for n, dj in dec.shapes) == alg.d, name
            for blk in dec.blocks:
                assert np.shares_memory(blk.isometry, v), name
            classes = [shape for shape, _ in itertools.groupby(dec.shapes)]
            assert len(classes) == len(set(classes)), (name, dec.shapes)


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

    def test_commutant_algebra_is_cached(self):
        alg = factor_m2x1()
        assert alg.commutant_algebra() is alg.commutant_algebra()
        assert algebras_equal(alg.commutant_algebra(), factor_1xm2())


class TestCenter:
    def test_full(self):
        assert algebras_equal(center(full_algebra(4)), trivial_algebra(4))

    def test_abelian_is_own_center(self):
        masa = diagonal_masa(3)
        assert algebras_equal(center(masa), masa)

    def test_symmetric_center_dimension(self):
        assert center(symmetric_operator_algebra()).dim == 2


class TestDecompose:
    def test_decomposition_is_cached(self):
        alg = symmetric_operator_algebra()
        assert alg.decomposition() is alg.decomposition()

    def test_summary_is_computed_once_from_the_shapes(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            assert dec.summary is dec.summary, name
            assert dec.summary == StructuralSummary.from_shapes(dec.dim, dec.shapes), name
            for gone in ("algebra_dim", "commutant_dim", "d_Z", "n_vec", "d_vec"):
                assert not hasattr(dec, gone), name

    def test_full_matrix_algebra(self):
        dec = full_algebra(5).decomposition()
        assert dec.summary.n == (1,) and dec.summary.d_blocks == (5,)

    def test_symmetric_operators(self):
        dec = symmetric_operator_algebra().decomposition()
        assert sorted(dec.shapes) == [(1, 1), (1, 3)]

    def test_round_trip_through_random_unitary(self):
        alg = strip_structure(
            structural_algebra([(1, 1), (1, 2)], basis_change=random_unitary(3, 21))
        )
        dec = alg.decomposition()
        assert sorted(dec.shapes) == [(1, 1), (1, 2)]

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
        assert sorted(dec.shapes) == sorted(blocks)

    def test_bookkeeping_and_block_form(self):
        for name, alg in _generic_fixtures():
            dec = alg.decomposition()
            d = alg.d
            assert sum(n * dj for n, dj in dec.shapes) == d, name
            assert dec.summary.d_alg == alg.dim, name
            assert dec.summary.d_comm == compute_commutant(alg).dim, name
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
            lhs = dec.summary.d_alg * dec.summary.d_comm
            assert lhs >= alg.d**2 - 1e-9, name
            assert (abs(lhs - alg.d**2) < 1e-9) == dec.summary.collinear, name

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
        summary = factor_m2x1().decomposition().summary
        assert summary.collinear and abs(summary.ratio - 1.0) < 1e-12

    def test_masa(self):
        summary = diagonal_masa(4).decomposition().summary
        assert summary.collinear and abs(summary.ratio - 1.0) < 1e-12

    def test_full(self):
        summary = full_algebra(3).decomposition().summary
        assert summary.collinear and abs(summary.ratio - 1 / 3) < 1e-12

    def test_symmetric_not_collinear(self):
        summary = symmetric_operator_algebra().decomposition().summary
        assert not summary.collinear and summary.ratio is None


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
        p = full_algebra(3).projection_superoperator()
        assert np.linalg.norm(p.transfer - np.eye(9)) < 1e-12

    def test_scalars_is_depolarizing(self):
        p = trivial_algebra(2).projection_superoperator()
        x = random_matrix(2, 9)
        assert np.allclose(p.apply(x), np.trace(x) * np.eye(2) / 2)

    def test_factor_kraus_vs_subspace_on_random_inputs(self):
        alg = factor_m2x1()
        kraus_p, _ = kraus_projection_maps(alg.decomposition())
        subspace_p = alg.projection_superoperator()
        for k in range(50):
            x = random_matrix(4, 300 + k)
            assert np.linalg.norm(kraus_p.apply(x) - subspace_p.apply(x)) < 1e-9
        # and it is the compression form X -> Tr_2(X) (x) 1/2
        from manlab.oracles import partial_trace

        x = random_matrix(4, 5)
        expected = np.kron(partial_trace(x, [2, 2], {0}), np.eye(2) / 2)
        assert np.linalg.norm(subspace_p.apply(x) - expected) < 1e-9

    def test_conditional_expectation_laws(self):
        for name, alg in _generic_fixtures():
            p = alg.projection_superoperator()
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
            algebra_from_basis(3, np.zeros((1, 2, 2)))

    def test_too_many_basis_elements(self):
        with pytest.raises(AlgebraError):
            algebra_from_basis(2, np.zeros((5, 2, 2)))

    def test_method_annotations_resolve(self):
        # an annotation naming a type the module does not hold breaks get_type_hints
        import typing

        for name, method in vars(OperatorAlgebra).items():
            if callable(method) and not name.startswith("__"):
                typing.get_type_hints(method)

    def test_decompose_hard_error_after_retries(self, monkeypatch):
        import manlab.algebras as mod

        # force every clustering attempt to merge all eigenvalues
        monkeypatch.setattr(mod, "_cluster_indices", lambda evals: [list(range(len(evals)))])
        with pytest.raises(DecompositionError):
            strip_structure(factor_m2x1())

    def test_non_finite_unitary_is_refused(self):
        nan = np.full((2, 2), np.nan)
        with pytest.raises(AlgebraError):
            masa_from_unitary(nan)
        with pytest.raises(AlgebraError):
            structural_algebra([(1, 2)], nan)
        with pytest.raises(AlgebraError):
            full_algebra(2).conjugated(nan)
        with pytest.raises(AlgebraError):
            masa_from_unitary(np.diag([1.0, np.inf]))

    # (matrix, accepted) at the edges of the one unitarity rule
    # ||U^dag U - 1||_F <= 1e-8 d, shared by the library and the spec parser;
    # [[1, e], [0, 1]] has residual sqrt(2) e to first order, against 2e-8
    UNITARITY_EDGES = {
        "huge-1e200": (np.diag([1e200, 1.0]), False),
        "huge-1e300": (np.diag([1e300, 1.0]), False),
        "nan": (np.diag([np.nan, 1.0]), False),
        "inf": (np.diag([np.inf, 1.0]), False),
        "residual-inside": (np.array([[1.0, 1.40e-8], [0.0, 1.0]]), True),
        "residual-outside": (np.array([[1.0, 1.42e-8], [0.0, 1.0]]), False),
        "entry-above-one": (np.diag([1.0 + 1.5e-8, 1.0, 1.0, 1.0]), True),
    }

    @pytest.mark.parametrize("edge", sorted(UNITARITY_EDGES))
    def test_one_unitarity_rule(self, edge):
        u, accepted = self.UNITARITY_EDGES[edge]
        payload = np.stack([u.real, u.imag], axis=-1).tolist()
        spec = {"dim": len(u), "kind": "masa", "unitary": payload}
        if accepted:
            assert masa_from_unitary(u).dim == len(u)
            assert spec_from_dict(spec).dim == len(u)
            return
        with pytest.raises(AlgebraError, match="not unitary"):
            masa_from_unitary(u)
        with pytest.raises(SpecFileError, match="'unitary'"):
            spec_from_dict(spec)

    def test_non_square_transfer_rejected(self):
        from manlab.oracles import SuperOperator

        with pytest.raises(ValueError):
            SuperOperator(np.zeros((3, 4)))
        with pytest.raises(ValueError):
            SuperOperator(np.zeros((3, 3)))  # 3 is not a perfect square
