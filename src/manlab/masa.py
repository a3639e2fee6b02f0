"""Orthonormal bases: the one unitarity rule, and the MAN of the MASAs two bases span.

``_is_unitary`` decides what is unitary for the parser and the library alike.
``masa_man`` and ``quantumness`` read one overlap matrix |U1^dag U2|^2 and
build no algebra, so this module imports numpy and the records alone: the
``masa`` and ``quantumness`` commands never load the structure solve.
"""

from __future__ import annotations

import numpy as np

from .errors import AlgebraError
from .report import (
    FORMULA_TOL,
    ManReport,
    QuantumnessReport,
    StructuralSummary,
    _log_purity,
    _report,
    clamp_unit,
)


def _is_unitary(u: np.ndarray) -> bool:
    """Whether the square matrix u has ||U^dag U - 1||_F <= 1e-8 d.

    That residual bounds every |u_ij|^2 - 1, so the entries are bounded
    first: the product then stays finite, and NaN and inf fail the comparison.
    """
    tol = 1e-8 * len(u)
    return bool(np.max(np.abs(u), initial=0.0) <= np.sqrt(1.0 + tol)
                and np.linalg.norm(u.conj().T @ u - np.eye(len(u))) <= tol)


def _check_unitary(u: np.ndarray) -> None:
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise AlgebraError("expected a square matrix")
    if not _is_unitary(u):
        raise AlgebraError("matrix is not unitary")


def _masa_overlaps(basis_1: np.ndarray, basis_2: np.ndarray) -> tuple[int, np.ndarray, float]:
    """(d, X, purity) for two checked orthonormal bases: X_ij = |<i|j~>|^2 is
    bistochastic, and the purity sum_ij X_ij^2 / d is 1 - S of the two MASAs."""
    u1, u2 = np.asarray(basis_1, dtype=complex), np.asarray(basis_2, dtype=complex)
    _check_unitary(u1)
    _check_unitary(u2)
    if u1.shape != u2.shape:
        raise AlgebraError("bases have different dimensions")
    x = np.abs(u1.conj().T @ u2) ** 2
    return len(u1), x, float(np.sum(x**2)) / len(u1)


def masa_man(
    basis_1: np.ndarray, basis_2: np.ndarray, log_base: float = 2.0
) -> ManReport:
    """MAN of two maximal abelian algebras: mean linear entropy of overlaps.

    The i-th probability vector is p_i(j) = |<i|j~>|^2; S averages its linear
    entropy over i and vanishes iff the two bases generate the same algebra.
    """
    d, _, purity = _masa_overlaps(basis_1, basis_2)
    sa = StructuralSummary.from_shapes(d, ((1, 1),) * d)
    return _report(d, {"A": sa, "B": sa}, clamp_unit(1.0 - purity), "man.masa", log_base,
                   {"purity": purity}, s2=_log_purity(purity, log_base))


def quantumness(basis_1: np.ndarray, basis_2: np.ndarray) -> QuantumnessReport:
    """Largest mean variance of unit-norm observables of one MASA in the other's basis.

    The supremum over hermitian A = sum_k a_k |k~><k~| with ||A||_2 = 1 is the
    top eigenvalue of (1 - X^T X)/d for the bistochastic overlap matrix
    X_ij = |<i|j~>|^2, and is sandwiched by Q <= S <= d Q.
    """
    d, x, purity = _masa_overlaps(basis_1, basis_2)
    gram = x.T @ x
    evals = np.linalg.eigvalsh(np.eye(d) - (gram + gram.T) / 2)
    q = clamp_unit(float(evals[-1]) / d, margin=1e-12)
    s = clamp_unit(1.0 - purity)  # masa_man's S
    return QuantumnessReport(
        Q=q,
        S=s,
        d=d,
        lower_holds=q <= s + FORMULA_TOL,
        upper_holds=s <= d * q + FORMULA_TOL,
    )
