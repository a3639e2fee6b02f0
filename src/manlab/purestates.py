"""Projections of pure states onto block-born algebras, from block data alone.

Every state estimator in protocols reads a state through one block
reduction, ``reduced``, in two steps: ``amplitudes`` takes a = V^dag phi in
the decomposition's frame, and ``reduce_amplitudes`` reads a_J as
(n_J, d_J), R_J = Tr_{n_J}[V_J^dag rho V_J] = a_J^T conj(a_J), O(d^2) work
per state; P(rho) = sum_J V_J (1_{n_J}/n_J (x) R_J) V_J^dag.  A caller that
already holds a state's amplitudes in the frame, as markov_bound_check does
for its rotated states, hands them straight to the reduction.
Each shape class of the decomposition is one batched product, its R_J
stacked on a block axis, so a MASA's d blocks cost no Python loop.
Sampled protocol_stochastic takes from it the overlap x = <P_A rho, P_T rho>
and the purity y = ||P_A rho||^2 = sum_J ||R_J||^2 / n_J, with T = B' or
T = Z(A); restricted_distance and markov_bound_check take the observer's R_J
of rotated states.  No basis, commutant, center algebra or d x d density
matrix is built.

A state's values do not depend on how many others share its chunk: the
amplitudes are one (1, d) product per state (a plain (c, d) product with
c = 1 takes a vector kernel that rounds differently from the matrix kernel
of c > 1, so a product whose row count follows the chunk would let the
chunking change a value), the frame cores of all states are stacked as
(c d, d) rows against one fixed matrix, and every sum runs along a state's
own axes.
"""

from __future__ import annotations

import numpy as np

from .linalg import dagger


def amplitudes(dec, phi: np.ndarray) -> np.ndarray:
    """a = V^dag phi for each state of a (c, d) stack, as (c, d) rows: one (1, d) product per state."""
    return (phi[:, None, :] @ dec.frame.conj())[:, 0]


def reduce_amplitudes(dec, amp: np.ndarray) -> list[np.ndarray]:
    """R_J for each shape class of dec, each (c, count, d_J, d_J), from (c, d) amplitudes in dec's frame."""
    runs = [amp[:, cols].reshape(len(amp), count, n, dj) for n, dj, count, cols in dec.classes]
    return [np.einsum("cbrl,cbrm->cblm", a, a.conj()) for a in runs]


def reduced(dec, phi: np.ndarray) -> list[np.ndarray]:
    """R_J for each shape class of dec, each (c, count, d_J, d_J), for a (c, d) stack of states."""
    return reduce_amplitudes(dec, amplitudes(dec, phi))


def core(dec, rs: list[np.ndarray]) -> np.ndarray:
    """V^dag P(rho) V = sum_J 1_{n_J}/n_J (x) R_J, as (c, d, d), from the R_J of `reduced`."""
    return dec.block_diagonal((r / n for (n, *_), r in zip(dec.classes, rs)), (len(rs[0]),))


class PairOverlaps:
    """(<P_A rho, P_T rho>, ||P_A rho||^2) for stacks of pure states, from block data.

    The overlap is taken in A's frame: with C_A and C_T the frame cores and
    U = V^dag W, V^dag P_T(rho) V = U C_T U^dag, so
    x = Tr(C_A U C_T U^dag) = sum_ij (C_A U)_ij (C_T U^dag)_ji.  About 2 d^3
    work per state and d^2 memory, whatever dim A and dim T are.
    """

    def __init__(self, dec_a, dec_t):
        self.a, self.t = dec_a, dec_t
        self.u = dagger(dec_a.frame) @ dec_t.frame
        self.u_dag = dagger(self.u)

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        c, d = phi.shape
        core_a = core(self.a, reduced(self.a, phi))
        left = (core_a.reshape(c * d, d) @ self.u).reshape(c, d, d)
        right = (core(self.t, reduced(self.t, phi)).reshape(c * d, d) @ self.u_dag).reshape(c, d, d)
        x = np.einsum("cij,cji->c", left, right)
        # y = Tr(C_A C_A) by the same sum, so T = A in the same frame gives x = y exactly
        y = np.einsum("cij,cji->c", core_a, core_a)
        return np.stack([np.real(x), np.real(y)], axis=1)


def center_overlaps(dec, phi: np.ndarray) -> np.ndarray:
    """(<P_A rho, P_Z rho>, ||P_A rho||^2) per state, as a (c, 2) stack.

    P_Z rho = sum_J P_J t_J/(n_J d_J) with t_J = Tr(P_J rho) = Tr R_J; P_J
    lies in A, so the overlap is sum_J t_J^2/(n_J d_J); the purity is
    sum_J ||R_J||^2 / n_J.  Both sum per-block arrays in one order, so an
    abelian A, where they agree block by block, gives x = y exactly.
    """
    rs = reduced(dec, phi)
    shapes = [(n, dj) for n, dj, _, _ in dec.classes]
    x = [np.real(np.einsum("cbll->cb", r)) ** 2 / (n * dj) for (n, dj), r in zip(shapes, rs)]
    y = [np.real(np.einsum("cblm,cblm->cb", r, r.conj())) / n for (n, _), r in zip(shapes, rs)]
    return np.stack([np.concatenate(v, axis=1).sum(axis=1) for v in (x, y)], axis=1)
