"""Hermitian-closed unital operator algebras and their block structure.

An algebra's structure is one frame: a d x d unitary V = [V_1 ... V_m] and
the shapes (n_J, d_J), sorted by (d_J, n_J), with the algebra acting as
1_{n_J} (x) M_{d_J} on the columns of V_J and the commutant as
M_{n_J} (x) 1_{d_J}.  Each run of equal shapes is one column range, read by
StructuralDecomposition.classes alone; kernels run one product per class.
Blocks (n_J, d_J, V_J), views of the frame, serve the oracles (the d^2 x d^2
ones live in manlab.oracles); StructuralDecomposition.block_diagonal writes
sum_J 1_{n_J} (x) X_J into the frame, one assignment per class.  Only this
module builds or permutes a frame: the commutant's is A's with the factors of
each block swapped, the center's is A's own, and conjugation is one product U V.

Everything read of the shapes alone, d(A) = sum_J d_J^2, d(A') = sum_J n_J^2,
d_Z and the collinearity ratio n_J/d_J, is one StructuralSummary, a record
of manlab.report built by StructuralSummary.from_shapes and read as
StructuralDecomposition.summary, computed once per decomposition.  Every
unitary a frame is built from passes the one unitarity rule,
manlab.masa._check_unitary.

An OperatorAlgebra holds its decomposition from birth and reads dim(A) from
the summary; its dim(A) x d x d orthonormal basis is built on first access,
by oracles only.  Named algebras, commutants and centers are born from their
frame (_algebra_from_frame).  The spectral solve (_compute_decomposition)
takes letters and returns the blocks of the algebra they generate:
eigenspaces of one generic element, linked by the letters, polar factors
along Prim's maximum spanning forest of the links from one stacked eigh per
eigenspace dimension, and a check that every letter reads
sum_J 1_{n_J} (x) X_J.  Its letters are generators, elements of A' and B in
A''s frame that give dim(A n B'), or a bare basis (algebra_from_basis, the
oracles' one door), whose algebra must have the basis's dimension and keeps
that basis.

Values are immutable; the lazy caches (basis, commutant, and a
decomposition's classes, blocks and summary) are write-once, so algebras can
be shared read-only across workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AlgebraError, DecompositionError
from .linalg import (
    _complex_normals,
    _haar_unitaries,
    dagger,
    nullspace,
    orthonormalize_hs,  # noqa: F401  (held here for perfbench/tracer.py)
)
from .masa import _check_unitary
from .report import StructuralSummary, _lattice_regions
from .rng import RngStream

# Residual tolerance for "X belongs to the algebra" checks.
MEMBERSHIP_TOL = 1e-9
# Tolerance for validating that an isometry block-diagonalizes the algebra;
# its square bounds the link weight of two eigenspaces in different blocks.
ISO_TOL = 1e-8
# Relative eigenvalue-gap threshold when clustering the spectrum of a generic
# element; separates exact degeneracy from generic splitting.
CLUSTER_RTOL = 1e-7

# Fixed streams for the randomness internal to the structure solve (the generic
# element) and to the generating pair of compute_commutant(); constants keep
# both reproducible without threading a seed through every call.  Both read
# RngStream.normals, so neither loads numpy.random.
_DECOMPOSE_RNG = RngStream(seed=0x5CA1AB1E, stream=911)
_DECOMPOSE_ATTEMPTS = 12  # generic draws before the structure solve gives up
_COMMUTANT_RNG = RngStream(seed=0x5CA1AB1E, stream=912)
# The generic elements of A' and B whose algebra gives dim(A n B').
_INTERSECTION_RNG = RngStream(seed=0x5CA1AB1E, stream=913)


class _RetryDraw(Exception):
    """Internal: a random draw in the structure solve was degenerate; try again."""


class Block(NamedTuple):
    """One central block (n_J, d_J, V_J): the algebra acts as 1_n (x) M_d on range(V_J)."""

    n: int
    d: int
    isometry: np.ndarray  # ambient x (n*d); column p*d + l is |p> (x) |l>

    @property
    def projector(self) -> np.ndarray:
        """The central projector P_J = V_J V_J^dag, formed on each read; for oracles and tests."""
        return self.isometry @ dagger(self.isometry)


@dataclass(frozen=True)
class StructuralDecomposition:
    """The frame V, a d x d unitary (or a stack of them), and the shapes
    (n_J, d_J): block J is the next n_J d_J columns of V."""

    frame: np.ndarray
    shapes: tuple[tuple[int, int], ...]

    @property
    def dim(self) -> int:
        return self.frame.shape[-1]

    @cached_property
    def classes(self) -> tuple[tuple, ...]:
        """(n, d, count, columns) per run of `count` equal shapes (n, d), its blocks
        the frame's columns read as (count, n, d): the one reader of the layout."""
        out, stop = [], 0
        for (n, dj), run in groupby(self.shapes):
            count = len(list(run))
            start, stop = stop, stop + count * n * dj
            out.append((n, dj, count, slice(start, stop)))
        return tuple(out)

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        """Block(n_J, d_J, V_J) for each block, V_J a view of the frame's columns."""
        return tuple(Block(n, dj, iso) for n, dj, count, cols in self.classes
                     for iso in np.split(self.frame[..., cols], count, axis=-1))

    @cached_property
    def summary(self) -> StructuralSummary:
        """The structural data of these shapes, computed on first read."""
        return StructuralSummary.from_shapes(self.dim, self.shapes)

    def block_diagonal(self, cores, lead: tuple[int, ...] = ()) -> np.ndarray:
        """sum_J 1_{n_J} (x) X_J in the frame's coordinates, a (*lead, d, d) stack, from one
        (*lead, count, d_J, d_J) array of X_J per shape class, written exactly onto the
        diagonal blocks of each block's (n_J, d_J, n_J, d_J) view, one assignment per class."""
        out = np.zeros((*lead, self.dim, self.dim), dtype=complex)
        for (n, dj, count, cols), x in zip(self.classes, cores):
            run = out[..., cols, cols].reshape(*lead, count, n, dj, count, n, dj)
            np.einsum("...brlbrm->...brlm", run)[...] = x[..., None, :, :]
        return out


class OperatorAlgebra:
    """Hermitian-closed unital subalgebra of L(C^d), held as its decomposition."""

    def __init__(self, dec: StructuralDecomposition):
        self.d = dec.dim
        self._decomposition = dec
        self._basis: Optional[np.ndarray] = None
        self._commutant: Optional["OperatorAlgebra"] = None

    # -- basic geometry ----------------------------------------------------

    @property
    def basis(self) -> np.ndarray:
        """The basis, (dim, d, d): the one algebra_from_basis was given, else an HS-orthonormal
        one built from the blocks on first access.  Oracles read it, production does not."""
        if self._basis is None:
            basis = _block_algebra_basis(self._decomposition.blocks)
            basis.setflags(write=False)
            self._basis = basis
        return self._basis

    @property
    def dim(self) -> int:
        """d(A), the linear dimension of the algebra."""
        return self._decomposition.summary.d_alg

    def __repr__(self) -> str:
        return f"OperatorAlgebra(d={self.d}, dim={self.dim})"

    def project(self, x: np.ndarray) -> np.ndarray:
        """HS-orthogonal projection of x, or of each matrix of a stack, onto the algebra.

        Each matrix is one (1, d^2) row of its own, so its projection does not
        depend on how many others are stacked with it.
        """
        x = np.asarray(x)
        rows = self.basis.reshape(self.dim, -1)
        coeffs = x.reshape(*x.shape[:-2], 1, -1) @ rows.conj().T
        return (coeffs @ rows).reshape(x.shape)

    def contains(self, x: np.ndarray) -> bool:
        scale = max(1.0, float(np.linalg.norm(x)))
        return bool(np.linalg.norm(x - self.project(x)) <= MEMBERSHIP_TOL * scale)

    def projection_superoperator(self):
        """Conditional expectation onto the algebra (HS-orthogonal, CP, unital), as a
        manlab.oracles.SuperOperator; an oracle."""
        from .oracles import SuperOperator

        return SuperOperator.hs_projection(list(self.basis))

    def validate(self) -> None:
        """Check orthonormality, unitality and closure; raise if violated."""
        k = self.dim
        flat = self.basis.reshape(k, -1)
        gram = flat.conj() @ flat.T
        if np.linalg.norm(gram - np.eye(k)) > MEMBERSHIP_TOL * k:
            raise AlgebraError("basis is not HS-orthonormal")
        if not self.contains(np.eye(self.d)):
            raise AlgebraError("algebra does not contain the identity")
        for b in self.basis:
            if not self.contains(dagger(b)):
                raise AlgebraError("algebra not closed under adjoints")
        for a in self.basis:
            for b in self.basis:
                if not self.contains(a @ b):
                    raise AlgebraError("algebra not closed under products")

    # -- cached structure --------------------------------------------------

    def commutant_algebra(self) -> "OperatorAlgebra":
        """A' = sum_J M_{n_J} (x) 1_{d_J}, born from A's frame with the factors swapped:
        block J of A' is V_J read on C^{d_J} (x) C^{n_J}, column l n + p being column p d + l."""
        if self._commutant is None:
            dec = self.decomposition()
            index = np.arange(dec.dim)
            cols = [index[run].reshape(count, n, dj).swapaxes(1, 2).ravel()
                    for n, dj, count, run in dec.classes]
            comm = _algebra_from_frame(np.take(dec.frame, np.concatenate(cols), axis=1),
                                       [(dj, n) for n, dj in dec.shapes])
            self._commutant, comm._commutant = comm, self
        return self._commutant

    def decomposition(self) -> StructuralDecomposition:
        """The central-block decomposition the algebra was born with."""
        return self._decomposition

    def conjugated(self, u: np.ndarray) -> "OperatorAlgebra":
        """The image algebra U A U^dag: the decomposition fixes the algebra, so only
        its frame moves."""
        _check_unitary(u)
        return OperatorAlgebra(_conjugate_decomposition(self.decomposition(), u))


# -- construction -----------------------------------------------------------


def algebra_from_generators(gens: Sequence[np.ndarray], d: int) -> OperatorAlgebra:
    """Smallest hermitian-closed unital algebra containing the generators.

    The letters are the generators and their adjoints, each scaled to unit HS
    norm.  The spectral solve (_compute_decomposition) finds the frame and
    the block shapes from the letters alone, and the algebra is born from
    that decomposition; no basis of A is formed on the way.
    """
    letters = []
    for g in gens:
        g = np.asarray(g, dtype=complex, order="C")
        if g.shape != (d, d):
            raise AlgebraError(f"generator shape {g.shape} != ({d}, {d})")
        bound = np.max(np.abs(g.view(float)), initial=0.0)
        if not np.isfinite(bound):
            raise AlgebraError("generator has non-finite entries")
        if bound > 0:
            # exact scaling to parts below 1, so the HS norm neither underflows nor overflows
            g = np.ldexp(g.view(float), -np.frexp(bound)[1]).view(complex)
            norm = np.linalg.norm(g)
            letters += [g / norm, dagger(g) / norm]
    stack = np.stack(letters) if letters else np.empty((0, d, d), dtype=complex)
    return OperatorAlgebra(_compute_decomposition(stack))


def algebra_from_basis(d: int, basis: np.ndarray) -> OperatorAlgebra:
    """The algebra a bare (k, d, d) basis spans, which keeps that basis as given.

    The basis elements are the letters of the spectral solve, so a basis that
    spans no algebra generates a larger one and is refused here; its
    orthonormality is checked by validate() only.
    """
    basis = np.asarray(basis, dtype=complex)
    if basis.ndim != 3 or basis.shape[1:] != (d, d):
        raise AlgebraError(f"basis must have shape (k, {d}, {d})")
    if basis.shape[0] < 1 or basis.shape[0] > d * d:
        raise AlgebraError("algebra dimension out of range")
    basis.setflags(write=False)
    alg = OperatorAlgebra(_compute_decomposition(basis))
    if alg.dim != len(basis):
        raise DecompositionError(f"the basis spans {len(basis)} dimensions but generates "
                                 f"an algebra of dimension {alg.dim}")
    alg._basis = basis
    return alg


def full_algebra(d: int) -> OperatorAlgebra:
    return _algebra_from_frame(np.eye(d, dtype=complex), ((1, d),))


def trivial_algebra(d: int) -> OperatorAlgebra:
    return _algebra_from_frame(np.eye(d, dtype=complex), ((d, 1),))


def masa_from_unitary(u: np.ndarray) -> OperatorAlgebra:
    """Maximal abelian algebra spanned by |u_i><u_i| for the columns u_i."""
    u = np.asarray(u, dtype=complex)
    _check_unitary(u)
    return _algebra_from_frame(u, ((1, 1),) * u.shape[0])


def diagonal_masa(d: int) -> OperatorAlgebra:
    return masa_from_unitary(np.eye(d))


def structural_algebra(
    block_dims: Sequence[tuple[int, int]],
    basis_change: Optional[np.ndarray] = None,
) -> OperatorAlgebra:
    """Algebra with prescribed block data [(n_J, d_J), ...].

    The optional unitary (the identity by default) is the frame: block J is
    its next n_J d_J columns, so the unitary moves the whole structure to a
    generic position without a conjugation pass.
    """
    block_dims = [(int(n), int(dj)) for n, dj in block_dims]
    if not block_dims or any(n < 1 or dj < 1 for n, dj in block_dims):
        raise AlgebraError("block dimensions must be positive")
    d = sum(n * dj for n, dj in block_dims)
    if basis_change is None:
        basis_change = np.eye(d, dtype=complex)
    basis_change = np.asarray(basis_change, dtype=complex)
    if basis_change.shape != (d, d):
        raise AlgebraError("basis change unitary has wrong shape")
    _check_unitary(basis_change)
    return _algebra_from_frame(basis_change, tuple(block_dims))


def _algebra_from_frame(frame: np.ndarray, shapes: Sequence[tuple[int, int]]) -> OperatorAlgebra:
    """The algebra sum_J V_J (1_{n_J} (x) M_{d_J}) V_J^dag, born from its frame."""
    return OperatorAlgebra(StructuralDecomposition(*_canonical_block_order(frame, tuple(shapes))))


def _block_algebra_basis(blocks: Sequence[Block]) -> np.ndarray:
    """Orthonormal basis V_J (1_n (x) E_lm) V_J^dag / sqrt(n_J) of sum_J 1_{n_J} (x) M_{d_J}.

    Element (l, m) is X_l X_m^dag / sqrt(n_J), X_l the columns p d_J + l of V_J.
    """
    d = blocks[0].isometry.shape[0]
    out = np.empty((sum(b.d * b.d for b in blocks), d, d), dtype=complex)
    start = 0
    for b in blocks:
        x = b.isometry.reshape(d, b.n, b.d).transpose(2, 0, 1)  # x[l] = X_l
        stop = start + b.d * b.d
        elements = out[start:stop].reshape(b.d, b.d, d, d)  # a view: (l, m) at l * d_J + m
        np.matmul((x / np.sqrt(b.n))[:, None], dagger(x)[None], out=elements)
        start = stop
    return out


def lattice_algebra(site_dims: Sequence[int], region: Iterable[int]) -> OperatorAlgebra:
    """Local algebra of a lattice region: L(H_S) (x) 1 on the complement.

    Sites are 0-indexed; region=() gives the scalars C1 and the full site set
    gives L(H).  The commutant is the algebra of the complementary region.
    """
    site_dims, (region,) = _lattice_regions(site_dims, region)
    comp = [i for i in range(len(site_dims)) if i not in region]
    n = prod(site_dims[i] for i in comp)
    dj = prod(site_dims[i] for i in region)
    return _algebra_from_frame(_site_order_unitary(site_dims, comp + region), ((n, dj),))


def _site_order_unitary(site_dims, order):
    """Permutation mapping (x)_{i in order} H_i to the natural site order."""
    d = prod(site_dims)
    idx = np.arange(d)
    digits = np.unravel_index(idx, [site_dims[i] for i in order])
    natural = [None] * len(site_dims)
    for pos, site in enumerate(order):
        natural[site] = digits[pos]
    rows = np.ravel_multi_index(tuple(natural), site_dims)
    u = np.zeros((d, d), dtype=complex)
    u[rows, idx] = 1.0
    return u


# -- structural operations ---------------------------------------------------


def compute_commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Commutant as the joint nullspace of X -> [X, h_1] and X -> [X, h_2].

    Cross-check oracle: production code gets A' from A's blocks
    (OperatorAlgebra.commutant_algebra); this solve needs no decomposition.
    h_1 and h_2 are generic hermitian elements of the algebra, drawn from a
    fixed internal stream.  Two such elements generate a finite-dimensional
    C*-algebra: the spectra of h_1 on different central blocks are disjoint,
    so its spectral projections give the central projections, and on a block
    1_n (x) M_d the level sets of h_1 together with h_2, which has no zero
    entry between them, give every matrix unit.  So X commutes with the
    algebra exactly when it commutes with h_1 and h_2, and the system is
    2d^2 x d^2 whatever dim(A) is.
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles.
    """
    d = alg.d
    eye = np.eye(d, dtype=complex)
    stack = [np.kron(h, eye) - np.kron(eye, h.T) for h in _generating_pair(alg)]
    # unit-norm elements set the natural scale; without the floor a stack
    # that is pure rounding noise (scalar algebras) loses its nullspace
    null_rows = nullspace(np.concatenate(stack, axis=0), scale=1.0)
    return algebra_from_basis(d, null_rows.reshape(-1, d, d))


def _generating_pair(alg: OperatorAlgebra) -> list[np.ndarray]:
    """Two generic hermitian elements of unit HS norm; they generate the algebra."""
    pair = []
    for coeffs in _coefficients(_COMMUTANT_RNG, 0, 2, alg.dim):
        m = np.tensordot(coeffs, alg.basis, axes=1)
        h = (m + dagger(m)) / 2
        pair.append(h / np.linalg.norm(h))
    return pair


def algebra_intersection(a: OperatorAlgebra, b: OperatorAlgebra) -> OperatorAlgebra:
    """Intersection of the two algebras as subspaces (always unital).

    Principal angles between the bases: with Q_a the basis of the smaller
    algebra and Q_b the other, x = c Q_a lies in B exactly when c R = 0 for
    R = Q_a - (Q_a Q_b^dag) Q_b.  Those c are the conjugated left singular
    vectors of R with zero singular value, the nullspace of R^T.
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles.
    """
    _check_same_ambient(a, b)
    if a.dim > b.dim:
        a, b = b, a
    qa = a.basis.reshape(a.dim, -1)
    qb = b.basis.reshape(b.dim, -1)
    residual = qa - (qa @ qb.conj().T) @ qb
    coeffs = nullspace(residual.T, scale=1.0)
    return algebra_from_basis(a.d, (coeffs @ qa).reshape(-1, a.d, a.d))


def commutant_intersection_dim(a: OperatorAlgebra, b: OperatorAlgebra) -> int:
    """dim(A n B') from block data, in O(d^3) time and d^2 memory.

    A n B' = (A' u B)': two generic hermitian elements of A' and two of B,
    each built from the blocks, generate the algebra C = A' v B, and the
    spectral solve gives its blocks, so dim(A n B') = dim C' = sum_J n_J^2.
    They are read in the frame V of A': A''s two are block diagonal there,
    and B's two take X = V^dag W_B, one product for both.
    algebra_intersection(a, b.commutant_algebra()) is the oracle.
    """
    _check_same_ambient(a, b)
    a_comm, b_own = a.commutant_algebra().decomposition(), b.decomposition()
    x = dagger(a_comm.frame) @ b_own.frame
    hs = [_block_hermitian(a_comm, 0), _block_hermitian(a_comm, 1),
          _block_hermitian(b_own, 2, x), _block_hermitian(b_own, 3, x)]
    dec = _compute_decomposition(np.stack([h / np.linalg.norm(h) for h in hs]))
    return dec.summary.d_comm


def _block_hermitian(dec: StructuralDecomposition, counter: int,
                     frame: Optional[np.ndarray] = None) -> np.ndarray:
    """sum_J 1_{n_J} (x) H_J in dec's own frame (dec.block_diagonal), or read through
    `frame` as frame (sum_J ...) frame^dag, one product pair per shape class; H_J the
    hermitian parts of complex Gaussian matrices from _INTERSECTION_RNG at counter."""
    z = _coefficients(_INTERSECTION_RNG, counter, 1, dec.summary.d_alg)[0]
    h, cores = 0.0, []
    for n, dj, count, cols in dec.classes:
        x, z = z[:count * dj * dj].reshape(count, dj, dj), z[count * dj * dj:]
        x = (x + dagger(x)) / 2
        if frame is None:
            cores.append(x)
        else:
            v = frame[:, cols]
            h = h + (v.reshape(-1, count, n, dj) @ x).reshape(v.shape) @ dagger(v)
    return dec.block_diagonal(cores) if frame is None else h


def center(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Z(A) = sum_J C P_J, born from A's frame with the scalar shapes (n_J d_J, 1).
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles."""
    dec = alg.decomposition()
    return _algebra_from_frame(dec.frame, [(n * dj, 1) for n, dj in dec.shapes])


def _compute_decomposition(letters: np.ndarray) -> StructuralDecomposition:
    """The decomposition of the algebra A that the letters, a (k, d, d) stack of
    unit HS norm, generate, accepted only when every letter proves it.

    Attempt i (_decompose_attempt), for i < _DECOMPOSE_ATTEMPTS, takes its
    generic coefficients from _DECOMPOSE_RNG.normals(i, ...), a counter hash
    that needs no numpy.random.  The stream is fixed, so the same letters
    always give the same frame, put in canonical order here.  It is accepted
    when every letter reads sum_J 1_{n_J} (x) X_J in its coordinates with
    nothing between blocks (_check_letters).  Then A lies in
    sum_J 1_{n_J} (x) M_{d_J}; the eigenprojections and transports that built
    the frame lie in A and give every matrix unit, so the two are equal.  A
    non-generic draw (or a NaN residual) raises _RetryDraw, and the last
    reason is reported in DecompositionError.
    """
    for attempt in range(_DECOMPOSE_ATTEMPTS):
        draw = _coefficients(_DECOMPOSE_RNG, attempt, 3, len(letters))
        try:
            dec = StructuralDecomposition(*_canonical_block_order(*_decompose_attempt(letters, draw)))
            _check_letters(letters, dec)
            return dec
        except _RetryDraw as exc:
            last_failure = exc
    raise DecompositionError(
        f"central decomposition failed after {_DECOMPOSE_ATTEMPTS} attempts: {last_failure}"
    )


def _decompose_attempt(letters: np.ndarray, draw: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Candidate (frame, shapes) from the eigenspaces of one generic hermitian h in A.

    The eigenspaces Q_a of h have dimension n_J, d_J of them per block.  Two
    lie in one block when some letter l links them (T = Q_a^dag l Q_b != 0),
    so the components of that graph are the blocks.  Along a maximum spanning
    forest of the links (_spanning_forest), R_b = P(T)^dag R_a for the parent
    a, the strongest letter and P(T) the polar factor (_tree_frames); the
    Q_a R_a of a block, one product, are the columns of V_J.  A link between
    eigenspaces of different dimension, or a singular T, is a non-generic draw.
    """
    evals, evecs = np.linalg.eigh(_generic_element(letters, draw))
    clusters = _cluster_indices(evals)  # contiguous runs of the sorted spectrum
    starts, sizes = np.array([(c[0], len(c)) for c in clusters]).T
    compressed = dagger(evecs) @ letters @ evecs  # the letters in h's eigenbasis
    weight = np.sum(np.abs(compressed) ** 2, axis=0)
    weight = np.add.reduceat(np.add.reduceat(weight, starts, axis=0), starts, axis=1)
    trees, edges, mismatch = _spanning_forest(weight, sizes)
    # a singular link before the mismatched one is the first failure
    frames = _tree_frames(compressed, starts, sizes, edges)
    if mismatch:
        raise _RetryDraw("eigenspaces of one block differ in dimension")
    # the clusters' columns in tree order; column p d_J + l of a block is column p
    # of its l-th frame
    order = [c for tree in trees for c in tree]
    frame = _take_runs(evecs, starts[order], sizes[order])
    shapes, start = [], 0
    for root, *rest in trees:
        n, dj = int(sizes[root]), 1 + len(rest)
        cols, start = slice(start, start + n * dj), start + n * dj
        if rest:
            q = frame[:, cols].reshape(-1, dj, n).transpose(1, 0, 2)
            iso = q @ np.stack([np.eye(n)] + [frames[c] for c in rest])
            frame[:, cols] = iso.transpose(1, 2, 0).reshape(len(frame), -1)
        shapes.append((n, dj))
    return frame, tuple(shapes)


def _spanning_forest(weight: np.ndarray, sizes: np.ndarray) -> tuple[list, list, bool]:
    """Prim's maximum spanning forest over the link weights above ISO_TOL^2, as
    (trees, edges, mismatch): each tree's clusters in joining order, the lowest
    first, and the (parent, child) edges in that order.  best and parent hold
    each outside cluster's strongest link into the tree, so a step costs O(k).
    A link between clusters of different size stops it with mismatch set."""
    k = len(weight)
    outside, best, parent = np.ones(k, dtype=bool), np.full(k, -np.inf), np.zeros(k, dtype=int)
    trees, edges = [], []
    for _ in range(k):
        b = int(np.argmax(best))
        if not best[b] > ISO_TOL**2:  # no link on: the lowest cluster left roots a new tree
            b = int(np.argmax(outside))
            trees.append([b])
        elif sizes[parent[b]] != sizes[b]:
            return trees, edges, True
        else:
            edges.append((int(parent[b]), b))
            trees[-1].append(b)
        outside[b], best[b] = False, -np.inf
        closer = outside & (weight[b] > best)  # a tie keeps the earlier parent
        best[closer], parent[closer] = weight[b, closer], b
    return trees, edges, False


def _tree_frames(compressed: np.ndarray, starts: np.ndarray, sizes: np.ndarray,
                 edges: list) -> dict:
    """R_b = P(T)^dag R_a for each edge (a, b), R = 1 at a root, with T = Q_a^dag l Q_b
    for the letter l of largest norm on the edge.  Per cluster size, one gather
    takes every letter's T and one stacked eigh T^dag T = W diag(lam) W^dag,
    so P(T) = T W diag(lam)^(-1/2) W^dag."""
    adjoints = {}
    for n in sorted({int(sizes[b]) for _, b in edges}):
        a, b = np.array([e for e in edges if sizes[e[1]] == n]).T
        span = np.arange(n)  # t is (letters, edges, n, n)
        t = compressed[:, starts[a, None, None] + span[:, None], starts[b, None, None] + span]
        t = t[np.argmax(np.linalg.norm(t, axis=(2, 3)), axis=0), np.arange(len(b))]
        lam, w = np.linalg.eigh(dagger(t) @ t)
        if not np.all(lam[:, 0] > ISO_TOL**2 * lam[:, -1]):
            raise _RetryDraw("transport between eigenspaces is singular")
        adjoints.update(zip(b.tolist(), dagger((t @ w / np.sqrt(lam)[:, None, :]) @ dagger(w))))
    frames = {}
    for a, b in edges:
        frames[b] = adjoints[b] @ frames[a] if a in frames else adjoints[b]
    return frames


def _check_letters(letters: np.ndarray, dec: StructuralDecomposition) -> None:
    """Raise _RetryDraw unless every letter, in the blocks' coordinates, has HS norm
    at most ISO_TOL both between blocks and off the form 1_n (x) X within a block."""
    w = dagger(dec.frame) @ letters @ dec.frame
    k = len(w)
    form = np.zeros(k)
    for n, dj, count, cols in dec.classes:
        # the class's blocks, (k, count, n, d, n, d), a view into w
        x = np.einsum("kbibj->kbij", w[:, cols, cols].reshape(k, count, n * dj, count, n * dj))
        x = x.reshape(k, count, n, dj, n, dj)
        np.einsum("kbplpm->kbplm", x)[...] -= np.einsum("kbplpm->kblm", x)[:, :, None] / n
        form += np.sum(np.abs(x) ** 2, axis=(1, 2, 3, 4, 5))
        x[...] = 0.0  # what is left of w lies between blocks
    leak = np.sum(np.abs(w) ** 2, axis=(1, 2))
    if not np.sqrt(np.max(leak, initial=0.0)) <= ISO_TOL:
        raise _RetryDraw("letters leak between central blocks")
    if not np.sqrt(np.max(form, initial=0.0)) <= ISO_TOL:
        raise _RetryDraw("letters are not of the form 1_n (x) X on a block")


def _generic_element(letters: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """A generic hermitian element of the algebra the letters generate, from draw,
    three rows of random complex coefficients over the letters.

    Letters may span that algebra only with their products, so the element
    adds short words: the hermitian part of x + x y + x y z for the random
    combinations x, y, z of the letters, all three from one product.
    """
    d = letters.shape[-1]
    x, y, z = (draw @ letters.reshape(-1, d * d)).reshape(3, d, d)
    word = x @ y
    m = x + word + word @ z
    return (m + dagger(m)) / 2


def _coefficients(rng: RngStream, counter: int, rows: int, k: int) -> np.ndarray:
    """rows x k complex Gaussian coefficients from rng.normals(counter, ...);
    row r takes 2k normals, the real parts first."""
    return _complex_normals(rng.normals(counter, 2 * rows * k).reshape(rows, 2 * k), (k,))


def _cluster_indices(evals: np.ndarray) -> list[list[int]]:
    spread = float(evals[-1] - evals[0])
    scale = max(abs(float(evals[0])), abs(float(evals[-1])), 1.0)
    if spread <= 1e-12 * scale:
        return [list(range(len(evals)))]
    gap_tol = CLUSTER_RTOL * spread
    clusters = [[0]]
    for i in range(1, len(evals)):
        if evals[i] - evals[i - 1] > gap_tol:
            clusters.append([i])
        else:
            clusters[-1].append(i)
    return clusters


def _canonical_block_order(frame: np.ndarray, shapes: tuple) -> tuple[np.ndarray, tuple]:
    # The ordering of blocks is a free choice; sort on (d_J, n_J, Tr(P_J R))
    # with the fixed diagonal reference R = diag(r) so reports and caches are
    # reproducible.  Tr(P_J R) = sum_i r_i (P_J)_ii, and (P_J)_ii is the
    # squared norm of row i of V_J.  The columns move only if the order does.
    sizes = [n * dj for n, dj in shapes]
    starts = np.cumsum(sizes) - sizes  # block J is columns starts[J] to starts[J] + sizes[J]
    weight = np.arange(len(frame)) / max(len(frame) - 1, 1) @ np.abs(frame) ** 2
    trace_r = np.add.reduceat(weight, starts)
    order = sorted(range(len(shapes)),
                   key=lambda j: (shapes[j][1], shapes[j][0], round(float(trace_r[j]), 9)))
    if order != sorted(order):
        frame = _take_runs(frame, starts[order], np.take(sizes, order))
    return frame, tuple(shapes[j] for j in order)


def _take_runs(frame: np.ndarray, starts: np.ndarray, widths: np.ndarray) -> np.ndarray:
    """The column runs frame[:, s:s + w] for (s, w) in zip(starts, widths), side by side,
    as one take: C-ordered, where frame[:, cols] is not."""
    cols = np.arange(frame.shape[1]) - np.repeat(np.cumsum(widths) - widths - starts, widths)
    return np.take(frame, cols, axis=1)


def _conjugate_decomposition(dec: StructuralDecomposition, u: np.ndarray) -> StructuralDecomposition:
    return StructuralDecomposition(u @ dec.frame, dec.shapes)


def _check_same_ambient(a: OperatorAlgebra, b: OperatorAlgebra) -> None:
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")


# -- sampling ---------------------------------------------------------------


def haar_algebra_unitary(
    dec: StructuralDecomposition, rng: RngStream, counter: int = 0
) -> np.ndarray:
    """Haar unitary of the algebra: independent Haar factors on each irrep.
    Held here for perfbench/tracer.py until ROADMAP item 1b moves it to manlab.oracles."""
    return _haar_algebra_unitaries(dec, rng, counter, counter + 1)[0]


def _haar_factors(
    dec: StructuralDecomposition, rng: RngStream, start: int, stop: int
) -> list[np.ndarray]:
    """The Haar factors U_J at counters start..stop-1: per shape class, a
    (samples, count, d_J, d_J) stack.

    Counter i draws the Ginibre matrices of the blocks in block order from
    rng.normals(i, ...), all counters in one rng.normal_rows call.  Blocks
    are sorted by (d_J, n_J), so each run of equal d_J reads one contiguous
    slice of every row and takes all its U_J in one stacked QR, which
    factors each matrix on its own: a U_J has the same bits whichever
    reader takes it.
    """
    rows = rng.normal_rows(start, stop, 2 * dec.summary.d_alg)
    factors, offset = [], 0
    for dj, run in groupby(dec.classes, key=lambda c: c[1]):
        counts = [count for _, _, count, _ in run]
        width = 2 * dj * dj * sum(counts)
        stack = _haar_unitaries(
            rows[:, offset: offset + width].reshape(len(rows), sum(counts), -1), dj)
        offset += width
        for count in counts:
            factors.append(stack[:, :count])
            stack = stack[:, count:]
    return factors


def _haar_algebra_unitaries(
    dec: StructuralDecomposition, rng: RngStream, start: int, stop: int
) -> np.ndarray:
    """Haar unitaries of the algebra at counters start..stop-1, as a (samples, d, d) stack.

    The reader behind haar_algebra_unitary: the factors of _haar_factors,
    composed as sum_J V_J (1_n (x) U_J) V_J^dag block by block in block
    order by batched matmul, the kron 1_n (x) U_J built only for n_J > 1.
    Merging a run into one product would round differently, and these bits
    are pinned.  The estimators never form U; they read the same draws in
    the frame through _haar_block_diagonal.
    """
    cores = (f[:, k] for f in _haar_factors(dec, rng, start, stop) for k in range(f.shape[1]))
    u = None
    for b, core in zip(dec.blocks, cores):
        if b.n > 1:  # the stacked np.kron(np.eye(n), U_J)
            core = np.eye(b.n)[:, None, :, None] * core[:, None, :, None, :]
            core = core.reshape(-1, b.n * b.d, b.n * b.d)
        term = b.isometry @ core @ dagger(b.isometry)
        if u is None:
            u = term
        else:
            u += term
    return u


def _haar_block_diagonal(
    dec: StructuralDecomposition, rng: RngStream, start: int, stop: int
) -> np.ndarray:
    """The Haar draws of _haar_algebra_unitaries in the decomposition's frame: the block
    diagonal D = V^dag U V = sum_J 1_{n_J} (x) U_J, as a (samples, d, d) stack."""
    return dec.block_diagonal(_haar_factors(dec, rng, start, stop), (stop - start,))
