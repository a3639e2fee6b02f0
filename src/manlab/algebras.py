"""Hermitian-closed unital operator algebras and their block structure.

An algebra is stored as an HS-orthonormal basis of d x d matrices.  Its
structure is the central-block data (n_J, d_J, V_J): the ambient space splits
into blocks C^{n_J} (x) C^{d_J} on which the algebra acts as 1_{n_J} (x)
M_{d_J}; the commutant acts as M_{n_J} (x) 1_{d_J}.  Everything downstream
(omega operators, projection maps, protocol simulators) is driven by this data.

Every named algebra (full, trivial, masa, structural, lattice), every
commutant and every center is born from its blocks in _algebra_from_blocks:
the basis is built from the isometries and the decomposition is cached at
once.  Generators, and an algebra given by a bare basis, reach their blocks
through the spectral solve (_compute_decomposition): the eigenspaces of one
generic hermitian element, linked by the letters (the unit-norm generators and
their adjoints, or the basis elements), give the blocks, polar factors along
a spanning tree give the isometries, and every letter is checked to read
sum_J 1_{n_J} (x) X_J.  No closure, center system or per-element restriction
is formed.  Intersections come from principal angles between the two bases.
compute_commutant and the HS projectors (projection_superoperator,
algebras_equal) stay as cross-check oracles.

Values are immutable after construction.  The lazy caches are write-once and
idempotent, so algebras are safe to share read-only across workers:
decomposition (set at birth for block-born algebras, solved on first request
otherwise), commutant (built from the blocks on first request, and linked
back so A'' is A) and block bases.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from .errors import AlgebraError, DecompositionError
from .linalg import (
    SuperOperator,
    _haar_unitaries,
    _normal_rows,
    dagger,
    nullspace,
    orthonormalize_hs,  # noqa: F401  (held here for perfbench/tracer.py)
    swap_operator,
)
from .rng import RngStream

# Residual tolerance for "X belongs to the algebra" checks.
MEMBERSHIP_TOL = 1e-9
# Tolerance for validating that an isometry block-diagonalizes the algebra;
# its square bounds the link weight of two eigenspaces in different blocks.
ISO_TOL = 1e-8
# Relative eigenvalue-gap threshold when clustering the spectrum of a generic
# element; separates exact degeneracy from generic splitting.
CLUSTER_RTOL = 1e-7
# Two algebras are equal when their HS projectors differ by less than this.
EQUALITY_TOL = 1e-8

# Fixed streams for the randomness internal to decompose() (the generic
# element) and to the generating pair of compute_commutant(); constants keep
# both reproducible without threading a seed through every call.  Both read
# RngStream.normals, so neither loads numpy.random.
_DECOMPOSE_RNG = RngStream(seed=0x5CA1AB1E, stream=911)
_COMMUTANT_RNG = RngStream(seed=0x5CA1AB1E, stream=912)


class _RetryDraw(Exception):
    """Internal: a random draw in decompose() was degenerate; try again."""


class _Letters(NamedTuple):
    """What the structure solve reads: the letters, a (k, d, d) stack of unit
    HS norm, and dim(A) when they are a basis of A (None for generators)."""

    d: int
    letters: np.ndarray
    dim: Optional[int]


@dataclass(frozen=True)
class Block:
    """One central block: algebra acts as 1_n (x) M_d on range(projector)."""

    n: int
    d: int
    projector: np.ndarray  # ambient x ambient central projection
    isometry: np.ndarray   # ambient x (n*d); column p*d + l is |p> (x) |l>


@dataclass(frozen=True)
class StructuralDecomposition:
    dim: int
    blocks: tuple[Block, ...]

    @property
    def d_Z(self) -> int:
        return len(self.blocks)

    @property
    def n_vec(self) -> tuple[int, ...]:
        return tuple(b.n for b in self.blocks)

    @property
    def d_vec(self) -> tuple[int, ...]:
        return tuple(b.d for b in self.blocks)

    @property
    def algebra_dim(self) -> int:
        return sum(b.d * b.d for b in self.blocks)

    @property
    def commutant_dim(self) -> int:
        return sum(b.n * b.n for b in self.blocks)


@dataclass(frozen=True)
class BlockBases:
    """The two families e_alpha (spanning A) and e_tilde_beta (spanning A')."""

    e: tuple[np.ndarray, ...]
    e_labels: tuple[tuple[int, int, int], ...]
    e_tilde: tuple[np.ndarray, ...]
    e_tilde_labels: tuple[tuple[int, int, int], ...]


class OperatorAlgebra:
    """Hermitian-closed unital subalgebra of L(C^d), as an orthonormal basis."""

    def __init__(self, d: int, basis: np.ndarray):
        basis = np.asarray(basis, dtype=complex)
        if basis.ndim != 3 or basis.shape[1:] != (d, d):
            raise AlgebraError(f"basis must have shape (k, {d}, {d})")
        if basis.shape[0] < 1 or basis.shape[0] > d * d:
            raise AlgebraError("algebra dimension out of range")
        basis.setflags(write=False)
        self.d = int(d)
        self.basis = basis
        self._decomposition: Optional[StructuralDecomposition] = None
        self._commutant: Optional["OperatorAlgebra"] = None
        self._block_bases: Optional[BlockBases] = None

    # -- basic geometry ----------------------------------------------------

    @property
    def dim(self) -> int:
        """d(A), the linear dimension of the algebra."""
        return self.basis.shape[0]

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

    def contains(self, x: np.ndarray, tol: float = MEMBERSHIP_TOL) -> bool:
        scale = max(1.0, float(np.linalg.norm(x)))
        return bool(np.linalg.norm(x - self.project(x)) <= tol * scale)

    def projection_superoperator(self) -> SuperOperator:
        return SuperOperator.hs_projection(list(self.basis))

    def validate(self, tol: float = MEMBERSHIP_TOL) -> None:
        """Check orthonormality, unitality and closure; raise if violated."""
        k = self.dim
        flat = self.basis.reshape(k, -1)
        gram = flat.conj() @ flat.T
        if np.linalg.norm(gram - np.eye(k)) > tol * k:
            raise AlgebraError("basis is not HS-orthonormal")
        if not self.contains(np.eye(self.d), tol):
            raise AlgebraError("algebra does not contain the identity")
        for b in self.basis:
            if not self.contains(dagger(b), tol):
                raise AlgebraError("algebra not closed under adjoints")
        for a in self.basis:
            for b in self.basis:
                if not self.contains(a @ b, tol):
                    raise AlgebraError("algebra not closed under products")

    # -- cached structure --------------------------------------------------

    def commutant_algebra(self) -> "OperatorAlgebra":
        """A' = sum_J M_{n_J} (x) 1_{d_J}, built from A's blocks with the factors swapped."""
        if self._commutant is None:
            blocks = [
                Block(b.d, b.n, b.projector, b.isometry @ _factor_swap(b.n, b.d).T)
                for b in self.decomposition().blocks
            ]
            _link_commutants(self, _algebra_from_blocks(self.d, blocks))
        return self._commutant

    def decomposition(self, rng: Optional[RngStream] = None) -> StructuralDecomposition:
        if self._decomposition is None:
            letters = _Letters(self.d, self.basis, self.dim)  # the basis elements are the letters
            self._decomposition = _compute_decomposition(letters, rng or _DECOMPOSE_RNG)
        return self._decomposition

    def block_bases(self) -> BlockBases:
        if self._block_bases is None:
            self._block_bases = block_bases(self.decomposition())
        return self._block_bases

    def conjugated(self, u: np.ndarray) -> "OperatorAlgebra":
        """The image algebra U A U^dag, carrying the decomposition along."""
        _check_unitary(u)
        out = OperatorAlgebra(self.d, u @ self.basis @ dagger(u))
        if self._decomposition is not None:
            out._decomposition = _conjugate_decomposition(self._decomposition, u)
        return out


# -- construction -----------------------------------------------------------


def algebra_from_generators(gens: Sequence[np.ndarray], d: int) -> OperatorAlgebra:
    """Smallest hermitian-closed unital algebra containing the generators.

    The letters are the generators and their adjoints, each scaled to unit HS
    norm.  The spectral solve (_compute_decomposition) finds the blocks
    (n_J, d_J, V_J) from the letters alone, and the algebra is born from
    them; no basis of A is formed on the way.
    """
    letters = []
    for g in gens:
        g = np.asarray(g, dtype=complex)
        if g.shape != (d, d):
            raise AlgebraError(f"generator shape {g.shape} != ({d}, {d})")
        norm = np.linalg.norm(g)
        if norm > 0:
            letters += [g / norm, dagger(g) / norm]
    stack = np.stack(letters) if letters else np.empty((0, d, d), dtype=complex)
    dec = _compute_decomposition(_Letters(d, stack, None), _DECOMPOSE_RNG)
    return _algebra_from_blocks(d, dec.blocks)


def full_algebra(d: int) -> OperatorAlgebra:
    eye = np.eye(d, dtype=complex)
    return _algebra_from_blocks(d, [Block(1, d, eye, eye)])


def trivial_algebra(d: int) -> OperatorAlgebra:
    eye = np.eye(d, dtype=complex)
    return _algebra_from_blocks(d, [Block(d, 1, eye, eye)])


def masa_from_unitary(u: np.ndarray) -> OperatorAlgebra:
    """Maximal abelian algebra spanned by |u_i><u_i| for the columns u_i."""
    u = np.asarray(u, dtype=complex)
    _check_unitary(u)
    d = u.shape[0]
    blocks = [Block(1, 1, np.outer(u[:, i], u[:, i].conj()), u[:, i: i + 1]) for i in range(d)]
    return _algebra_from_blocks(d, blocks)


def diagonal_masa(d: int) -> OperatorAlgebra:
    return masa_from_unitary(np.eye(d))


def structural_algebra(
    block_dims: Sequence[tuple[int, int]],
    basis_change: Optional[np.ndarray] = None,
) -> OperatorAlgebra:
    """Algebra with prescribed block data [(n_J, d_J), ...].

    Block J's isometry is the next n_J d_J columns of the optional unitary
    (the identity by default), so the unitary moves the whole structure to a
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
    blocks = []
    offset = 0
    for n, dj in block_dims:
        iso = basis_change[:, offset: offset + n * dj]
        offset += n * dj
        blocks.append(Block(n, dj, iso @ dagger(iso), iso))
    return _algebra_from_blocks(d, blocks)


def _algebra_from_blocks(d: int, blocks: Sequence[Block]) -> OperatorAlgebra:
    """The algebra sum_J V_J (1_{n_J} (x) M_{d_J}) V_J^dag, with its blocks cached."""
    alg = OperatorAlgebra(d, _block_algebra_basis(blocks))
    alg._decomposition = StructuralDecomposition(d, _canonical_block_order(d, tuple(blocks)))
    return alg


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


def _factor_swap(n: int, d: int) -> np.ndarray:
    """Permutation C^n (x) C^d -> C^d (x) C^n sending |p>|l> to |l>|p>."""
    p = np.zeros((n * d, n * d))
    for pp in range(n):
        for l in range(d):
            p[l * n + pp, pp * d + l] = 1.0
    return p


def lattice_algebra(site_dims: Sequence[int], region: Iterable[int]) -> OperatorAlgebra:
    """Local algebra of a lattice region: L(H_S) (x) 1 on the complement.

    Sites are 0-indexed; region=() gives the scalars C1 and the full site set
    gives L(H).  The commutant is the algebra of the complementary region.
    """
    site_dims = [int(x) for x in site_dims]
    if not site_dims or any(x < 1 for x in site_dims):
        raise AlgebraError("site dimensions must be positive integers")
    region = sorted(set(int(r) for r in region))
    for r in region:
        if r < 0 or r >= len(site_dims):
            raise AlgebraError(f"region index {r} out of range")
    comp = [i for i in range(len(site_dims)) if i not in region]
    d = prod(site_dims)
    n = prod(site_dims[i] for i in comp)
    dj = prod(site_dims[i] for i in region)
    iso = _site_order_unitary(site_dims, comp + region)
    return _algebra_from_blocks(d, [Block(n, dj, np.eye(d, dtype=complex), iso)])


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


def _link_commutants(a: OperatorAlgebra, b: OperatorAlgebra) -> None:
    a._commutant = b
    b._commutant = a


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
    """
    d = alg.d
    eye = np.eye(d, dtype=complex)
    stack = [np.kron(h, eye) - np.kron(eye, h.T) for h in _generating_pair(alg)]
    # unit-norm elements set the natural scale; without the floor a stack
    # that is pure rounding noise (scalar algebras) loses its nullspace
    null_rows = nullspace(np.concatenate(stack, axis=0), scale=1.0)
    return OperatorAlgebra(d, null_rows.reshape(-1, d, d))


def _generating_pair(alg: OperatorAlgebra) -> list[np.ndarray]:
    """Two generic hermitian elements of unit HS norm; they generate the algebra."""
    pair = []
    for coeffs in _coefficients(_COMMUTANT_RNG, 0, 2, alg.dim):
        h = _hermitian_combination(alg.basis, coeffs)
        pair.append(h / np.linalg.norm(h))
    return pair


def commutant(alg: OperatorAlgebra) -> OperatorAlgebra:
    return alg.commutant_algebra()


def algebra_intersection(a: OperatorAlgebra, b: OperatorAlgebra) -> OperatorAlgebra:
    """Intersection of the two algebras as subspaces (always unital).

    Principal angles between the bases: with Q_a the basis of the smaller
    algebra and Q_b the other, x = c Q_a lies in B exactly when c R = 0 for
    R = Q_a - (Q_a Q_b^dag) Q_b.  Those c are the conjugated left singular
    vectors of R with zero singular value, the nullspace of R^T.
    """
    if a.d != b.d:
        raise AlgebraError(f"ambient dimensions differ: {a.d} vs {b.d}")
    if a.dim > b.dim:
        a, b = b, a
    qa = a.basis.reshape(a.dim, -1)
    qb = b.basis.reshape(b.dim, -1)
    residual = qa - (qa @ qb.conj().T) @ qb
    coeffs = nullspace(residual.T, scale=1.0)
    return OperatorAlgebra(a.d, (coeffs @ qa).reshape(-1, a.d, a.d))


def center(alg: OperatorAlgebra) -> OperatorAlgebra:
    """Z(A) = sum_J C P_J, born from A's blocks as the scalar blocks (n_J d_J, 1) on V_J."""
    blocks = [Block(b.n * b.d, 1, b.projector, b.isometry) for b in alg.decomposition().blocks]
    return _algebra_from_blocks(alg.d, blocks)


def algebras_equal(a: OperatorAlgebra, b: OperatorAlgebra, tol: float = EQUALITY_TOL) -> bool:
    """Basis-free equality: HS distance between the two projectors."""
    if a.d != b.d:
        return False
    pa = a.projection_superoperator().transfer
    pb = b.projection_superoperator().transfer
    return bool(np.linalg.norm(pa - pb) <= tol)


def decompose(alg: OperatorAlgebra, rng: Optional[RngStream] = None) -> StructuralDecomposition:
    return alg.decomposition(rng)


def _compute_decomposition(alg: _Letters, rng, max_attempts: int = 12) -> StructuralDecomposition:
    """Blocks from the spectral solve, accepted only when every letter proves them.

    Attempt i (_decompose_attempt) takes its generic coefficients from
    rng.normals(i, ...), a counter hash that needs no numpy.random.  Its blocks
    are accepted when they fill the space, match dim(A) when it is known,
    and every letter reads sum_J 1_{n_J} (x) X_J in their coordinates with
    nothing between blocks.  Then A lies in sum_J 1_{n_J} (x) M_{d_J}; the
    eigenprojections and transports that built the blocks lie in A and give
    every matrix unit, so the two are equal.  A non-generic draw fails these
    checks, and the last failure is reported in DecompositionError.
    """
    d = alg.d
    last_failure = "no attempt made"
    for attempt in range(max_attempts):
        draw = _coefficients(rng, attempt, 3, len(alg.letters))
        try:
            blocks = _decompose_attempt(alg, draw)
        except _RetryDraw as exc:
            last_failure = str(exc)
            continue
        dec = StructuralDecomposition(d, _canonical_block_order(d, blocks))
        if alg.dim is not None and dec.algebra_dim != alg.dim:
            last_failure = "dimension bookkeeping mismatch"
            continue
        if sum(b.n * b.d for b in dec.blocks) != d:
            last_failure = "block sizes do not fill the space"
            continue
        leak, form = _letter_residuals(alg.letters, dec)
        if leak > ISO_TOL:
            last_failure = "letters leak between central blocks"
            continue
        if form > ISO_TOL:
            last_failure = "letters are not of the form 1_n (x) X on a block"
            continue
        return dec
    raise DecompositionError(
        f"central decomposition failed after {max_attempts} attempts: {last_failure}"
    )


def _decompose_attempt(alg: _Letters, draw: np.ndarray) -> tuple[Block, ...]:
    """Candidate blocks from the eigenspaces of one generic hermitian h in A.

    The eigenspaces Q_a of h have dimension n_J, d_J of them per block.  Two
    lie in one block when some letter l links them (Q_a^dag l Q_b != 0): the
    letters generate A, so the components of that graph are the blocks.  On
    a maximum spanning tree of the link weights, the frame R_b of eigenspace
    b is the polar factor of (Q_a R_a)^dag l Q_b for its parent a and the
    strongest letter l on the edge; the frames Q_a R_a are the columns of V_J.
    """
    evals, evecs = np.linalg.eigh(_generic_element(alg, draw))
    clusters = _cluster_indices(evals)  # contiguous runs of the sorted spectrum
    starts = [c[0] for c in clusters]
    compressed = dagger(evecs) @ alg.letters @ evecs  # the letters in h's eigenbasis
    weight = np.sum(np.abs(compressed) ** 2, axis=0)
    weight = np.add.reduceat(np.add.reduceat(weight, starts, axis=0), starts, axis=1)
    blocks = []
    rest = list(range(len(clusters)))
    while rest:
        tree = [rest.pop(0)]
        frames = [np.eye(len(clusters[tree[0]]), dtype=complex)]
        while rest:
            links = weight[np.ix_(tree, rest)]
            i, j = np.unravel_index(np.argmax(links), links.shape)
            if links[i, j] <= ISO_TOL**2:
                break
            a, b = clusters[tree[i]], clusters[rest[j]]
            if len(b) != len(a):
                raise _RetryDraw("eigenspaces of one block differ in dimension")
            transports = compressed[:, a][:, :, b]  # Q_a^dag l Q_b for every letter l
            best = np.argmax(np.linalg.norm(transports, axis=(1, 2)))
            u, _, vh = np.linalg.svd(dagger(frames[i]) @ transports[best])
            frames.append(dagger(u @ vh))
            tree.append(rest.pop(j))
        # column p d_J + l is column p of the l-th frame
        iso = np.stack([evecs[:, clusters[a]] @ f for a, f in zip(tree, frames)], axis=2)
        iso = iso.reshape(alg.d, -1)
        blocks.append(Block(len(frames[0]), len(tree), iso @ dagger(iso), iso))
    return tuple(blocks)


def _letter_residuals(letters: np.ndarray, dec: StructuralDecomposition) -> tuple[float, float]:
    """Worst HS norms, over the letters, of the parts between blocks and of the
    parts off the form 1_n (x) X within a block, in the blocks' coordinates."""
    v = np.concatenate([b.isometry for b in dec.blocks], axis=1)  # unitary once blocks fill
    w = dagger(v) @ letters @ v
    ideal = np.zeros_like(w)
    start = 0
    for b in dec.blocks:
        stop = start + b.n * b.d
        x = w[:, start:stop, start:stop].reshape(-1, b.n, b.d, b.n, b.d)
        ideal[:, start:stop, start:stop] = np.kron(np.eye(b.n), np.einsum("kplpm->klm", x) / b.n)
        start = stop
    labels = np.repeat(np.arange(dec.d_Z), [b.n * b.d for b in dec.blocks])
    within = labels[:, None] == labels[None, :]
    sq = np.abs(w - ideal) ** 2
    return tuple(float(np.sqrt(np.max(np.sum(sq[:, m], axis=1), initial=0.0)))
                 for m in (~within, within))


def _generic_element(alg: _Letters, draw: np.ndarray) -> np.ndarray:
    """A generic hermitian element of A from draw, three rows of random
    complex coefficients over the letters.

    Letters that are a basis span A, so a random combination of them is
    generic.  Generators span A only with their products, so the element
    adds short words: the hermitian part of x + x y + x y z for random
    combinations x, y, z of the letters.
    """
    if alg.dim is not None:
        return _hermitian_combination(alg.letters, draw[0])
    m = word = _combination(alg.letters, draw[0])
    for coeffs in draw[1:3]:
        word = word @ _combination(alg.letters, coeffs)
        m = m + word
    return (m + dagger(m)) / 2


def _coefficients(rng: RngStream, counter: int, rows: int, k: int) -> np.ndarray:
    """rows x k complex Gaussian coefficients from rng.normals(counter, ...);
    row r takes 2k normals, the real parts first."""
    z = rng.normals(counter, 2 * rows * k).reshape(rows, 2, k)
    return z[:, 0] + 1j * z[:, 1]


def _combination(letters, coeffs: np.ndarray) -> np.ndarray:
    return np.tensordot(coeffs, np.asarray(letters), axes=1)


def _hermitian_combination(basis, coeffs: np.ndarray) -> np.ndarray:
    m = _combination(basis, coeffs)
    return (m + dagger(m)) / 2


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


def _canonical_block_order(d: int, blocks: tuple[Block, ...]) -> tuple[Block, ...]:
    # The ordering of blocks is a free choice; sort on (d_J, n_J, Tr(P_J R))
    # with the fixed diagonal reference R = diag(r) so reports and caches are
    # reproducible.  Tr(P_J R) = sum_i r_i (P_J)_ii reads only the diagonal.
    ref = np.arange(d) / max(d - 1, 1)

    def key(b: Block):
        return (b.d, b.n, round(float(np.real(np.diagonal(b.projector)) @ ref), 9))

    return tuple(sorted(blocks, key=key))


def _conjugate_decomposition(dec: StructuralDecomposition, u: np.ndarray) -> StructuralDecomposition:
    blocks = tuple(
        Block(b.n, b.d, u @ b.projector @ dagger(u), u @ b.isometry) for b in dec.blocks
    )
    return StructuralDecomposition(dec.dim, blocks)


def _check_unitary(u: np.ndarray, tol: float = 1e-8) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise AlgebraError("expected a square matrix")
    if np.linalg.norm(dagger(u) @ u - np.eye(u.shape[0])) > tol * u.shape[0]:
        raise AlgebraError("matrix is not unitary")


# -- block bases, projections, sampling --------------------------------------


def is_collinear(dec: StructuralDecomposition, tol: float = 1e-9) -> tuple[bool, Optional[float]]:
    """Whether n_J/d_J is block-independent; the common ratio when it is."""
    ratios = [b.n / b.d for b in dec.blocks]
    if max(ratios) - min(ratios) <= tol:
        return True, ratios[0]
    return False, None


def block_bases(dec: StructuralDecomposition) -> BlockBases:
    e, e_labels, et, et_labels = [], [], [], []
    for j, b in enumerate(dec.blocks):
        iso = b.isometry
        for l in range(b.d):
            for m in range(b.d):
                unit = np.zeros((b.d, b.d), dtype=complex)
                unit[l, m] = 1.0
                e.append(iso @ np.kron(np.eye(b.n) / np.sqrt(b.d), unit) @ dagger(iso))
                e_labels.append((j, l, m))
        for p in range(b.n):
            for q in range(b.n):
                unit = np.zeros((b.n, b.n), dtype=complex)
                unit[p, q] = 1.0
                et.append(iso @ np.kron(unit, np.eye(b.d) / np.sqrt(b.n)) @ dagger(iso))
                et_labels.append((j, p, q))
    return BlockBases(tuple(e), tuple(e_labels), tuple(et), tuple(et_labels))


def projection_map(alg: OperatorAlgebra) -> SuperOperator:
    """Conditional expectation onto the algebra (HS-orthogonal, CP, unital)."""
    return alg.projection_superoperator()


def kraus_projection_maps(dec: StructuralDecomposition) -> tuple[SuperOperator, SuperOperator]:
    """(P_A, P_A') in Kraus form built from the block bases."""
    bases = block_bases(dec)
    return SuperOperator.from_kraus(bases.e_tilde), SuperOperator.from_kraus(bases.e)


def haar_algebra_unitary(
    dec: StructuralDecomposition, rng: RngStream, counter: int = 0
) -> np.ndarray:
    """Haar unitary of the algebra: independent Haar factors on each irrep."""
    return _haar_algebra_unitaries(dec, rng, counter, counter + 1)[0]


def _haar_algebra_unitaries(
    dec: StructuralDecomposition, rng: RngStream, start: int, stop: int
) -> np.ndarray:
    """Haar unitaries of the algebra at counters start..stop-1, as a stack.

    Counter i draws the Ginibre matrices of the blocks in block order from
    rng.generator(i); each block's factors then go through one stacked QR
    and sum_J V_J (1_n (x) U_J) V_J^dag is formed by batched matmul.
    """
    rows = _normal_rows(rng, start, stop, sum(2 * b.d * b.d for b in dec.blocks))
    u = np.zeros((stop - start, dec.dim, dec.dim), dtype=complex)
    offset = 0
    for b in dec.blocks:
        uj = _haar_unitaries(rows, offset, b.d)
        offset += 2 * b.d * b.d
        # the stacked np.kron(np.eye(n), uj)
        core = np.eye(b.n)[:, None, :, None] * uj[:, None, :, None, :]
        core = core.reshape(-1, b.n * b.d, b.n * b.d)
        u += b.isometry @ core @ dagger(b.isometry)
    return u


def interleaved_block_swap(n: int, d: int) -> np.ndarray:
    """Identity on the two n factors, swap of the two d factors, interleaved.

    Acts on (C^n (x) C^d)^(x 2); this is the building block of the omega
    operator of one central block.
    """
    return swap_operator([n, d], {1})
