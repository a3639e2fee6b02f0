"""Mutual averaged non-commutativity of finite-dimensional operator algebras.

The names below are re-exported from the submodules that define them and are
resolved on first access (PEP 562), so ``import manlab`` and ``python -m
manlab.cli`` load only the modules a caller actually uses: a command that
never samples never compiles the protocol simulators.
"""

from importlib import import_module

_EXPORTS = {
    "rng": ("RngStream",),
    "linalg": (
        "SuperOperator",
        "haar_state",
        "haar_unitary",
        "hs_inner",
        "hs_norm",
        "hs_norm_sq",
        "orthonormalize_hs",
        "partial_trace",
        "reshuffle",
        "swap_operator",
    ),
    "algebras": (
        "BlockBases",
        "OperatorAlgebra",
        "StructuralDecomposition",
        "algebra_from_generators",
        "algebra_intersection",
        "algebras_equal",
        "block_bases",
        "center",
        "commutant",
        "decompose",
        "diagonal_masa",
        "full_algebra",
        "haar_algebra_unitary",
        "is_collinear",
        "lattice_algebra",
        "masa_from_unitary",
        "projection_map",
        "structural_algebra",
        "trivial_algebra",
    ),
    "man": (
        "ManReport",
        "OmegaOperator",
        "a_otoc",
        "entropy_decomposition_man",
        "lattice_man",
        "man_bounds",
        "man_collinear",
        "man_omega",
        "man_projection",
        "masa_man",
        "omega_operator",
        "orbit_averaged_man",
        "quantumness",
        "self_man",
    ),
    "protocols": (
        "AlgebraState",
        "EstimatorResult",
        "algebra_state",
        "markov_bound_check",
        "mc_man_direct",
        "mc_orbit_averaged_man",
        "protocol_choi",
        "protocol_stochastic",
        "restricted_distance",
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
