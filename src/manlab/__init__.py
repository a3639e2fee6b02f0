"""Mutual averaged non-commutativity of finite-dimensional operator algebras.

The names below are re-exported from the submodules that define them and are
resolved on first access (PEP 562), so ``import manlab`` and ``python -m
manlab.cli`` load only the modules a caller actually uses: a command that
never samples never compiles the protocol simulators.  Each name is listed
under the module that defines it: the report records and ``lattice_man``
under ``report`` (no numpy), the MASA closed forms under ``masa`` (no
structure solve), the d^2 x d^2 oracles under ``oracles``, which no command loads.
"""

from importlib import import_module

_EXPORTS = {
    "rng": ("RngStream",),
    "linalg": (
        "haar_state",
        "haar_unitary",
        "hs_inner",
        "hs_norm_sq",
        "orthonormalize_hs",
    ),
    "algebras": (
        "OperatorAlgebra",
        "StructuralDecomposition",
        "algebra_from_basis",
        "algebra_from_generators",
        "algebra_intersection",
        "center",
        "diagonal_masa",
        "full_algebra",
        "haar_algebra_unitary",
        "lattice_algebra",
        "masa_from_unitary",
        "structural_algebra",
        "trivial_algebra",
    ),
    "report": ("ManReport", "lattice_man"),
    "masa": ("masa_man", "quantumness"),
    "man": (
        "a_otoc",
        "entropy_decomposition_man",
        "man_bounds",
        "man_collinear",
        "man_omega",
        "man_projection",
        "orbit_averaged_man",
        "self_man",
    ),
    "protocols": (
        "EstimatorResult",
        "markov_bound_check",
        "mc_man_direct",
        "mc_orbit_averaged_man",
        "protocol_choi",
        "protocol_stochastic",
        "restricted_distance",
    ),
    "oracles": (
        "AlgebraState",
        "BlockBases",
        "OmegaOperator",
        "SuperOperator",
        "algebra_state",
        "algebras_equal",
        "block_bases",
        "omega_operator",
        "partial_trace",
        "swap_operator",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_HOME))
