"""JSON algebra-specification files.

The interchange schema (complex entries as [re, im] pairs, matrices row-major,
sites 0-indexed):

    {"dim": 4, "kind": "generators", "matrices": [[[ [0,0],[1,0] ], ...], ...]}
    {"dim": 3, "kind": "structural", "blocks": [[1,1],[1,2]],
     "basis_change": <matrix, optional>}
    {"dim": 2, "kind": "masa", "unitary": <matrix whose columns are the basis>}
    {"dim": 8, "kind": "lattice", "site_dims": [2,2,2], "region": [0,1]}
    {"dim": 4, "kind": "full"}
    {"dim": 4, "kind": "trivial"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain
from math import isfinite, prod
from numbers import Integral
from typing import Optional

import numpy as np

from .algebras import (
    OperatorAlgebra,
    algebra_from_generators,
    full_algebra,
    lattice_algebra,
    masa_from_unitary,
    structural_algebra,
    trivial_algebra,
)
from .errors import SpecFileError

KINDS = ("generators", "structural", "masa", "lattice", "full", "trivial")

# Refuse larger ambients unless explicitly overridden.  No command builds a
# d^2 x d^2 superoperator any more: protocol choi reads its overlaps from block
# data, and only the oracles (algebras_equal, algebra_state) are d^4.  Dense
# algebra bases still take dim(A) d^2 entries, d^4 for the full algebra.
MAX_AMBIENT_DIM = 64


def _integer(value, path, field) -> int:
    """An integer field: integers (not bools) and integral finite floats are
    read, anything else is refused with the field named."""
    if isinstance(value, Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and isfinite(value) and value.is_integer():
        return int(value)
    shown = repr(value) if isinstance(value, (float, int, str)) else type(value).__name__
    raise SpecFileError(f"expected an integer, got {shown[:40]}", path, field)


def _decode_matrix(data, dim: int, path, field) -> tuple:
    try:
        rows = []
        for row in data:
            rows.append(tuple((float(re), float(im)) for re, im in row))
        mat = tuple(rows)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecFileError(f"matrix entries must be [re, im] pairs ({exc})", path, field)
    if len(mat) != dim or any(len(row) != dim for row in mat):
        raise SpecFileError(f"matrix must be {dim}x{dim}", path, field)
    # json accepts the NaN and Infinity tokens; float() lets them through
    flat = np.fromiter(chain.from_iterable(chain.from_iterable(mat)), float, 2 * dim * dim)
    if not np.isfinite(flat).all():
        raise SpecFileError("matrix entries must be finite", path, field)
    return mat


def _matrix_to_array(mat: tuple) -> np.ndarray:
    return np.array([[complex(re, im) for re, im in row] for row in mat])


@dataclass(frozen=True)
class AlgebraSpec:
    """Validated, hashable description of one algebra."""

    dim: int
    kind: str
    matrices: Optional[tuple] = None
    blocks: Optional[tuple] = None
    basis_change: Optional[tuple] = None
    unitary: Optional[tuple] = None
    site_dims: Optional[tuple] = None
    region: Optional[tuple] = None

    def to_dict(self) -> dict:
        out = {"dim": self.dim, "kind": self.kind}
        if self.matrices is not None:
            out["matrices"] = [
                [[[re, im] for re, im in row] for row in m] for m in self.matrices
            ]
        if self.blocks is not None:
            out["blocks"] = [list(b) for b in self.blocks]
        if self.basis_change is not None:
            out["basis_change"] = [[[re, im] for re, im in row] for row in self.basis_change]
        if self.unitary is not None:
            out["unitary"] = [[[re, im] for re, im in row] for row in self.unitary]
        if self.site_dims is not None:
            out["site_dims"] = list(self.site_dims)
        if self.region is not None:
            out["region"] = list(self.region)
        return out

    def to_algebra(self) -> OperatorAlgebra:
        if self.kind == "generators":
            return algebra_from_generators(
                [_matrix_to_array(m) for m in self.matrices], self.dim
            )
        if self.kind == "structural":
            change = _matrix_to_array(self.basis_change) if self.basis_change else None
            return structural_algebra(list(self.blocks), basis_change=change)
        if self.kind == "masa":
            return masa_from_unitary(_matrix_to_array(self.unitary))
        if self.kind == "lattice":
            return lattice_algebra(list(self.site_dims), list(self.region))
        if self.kind == "full":
            return full_algebra(self.dim)
        return trivial_algebra(self.dim)

    def label(self) -> str:
        if self.kind == "lattice":
            return f"lattice{list(self.region)}@{list(self.site_dims)}"
        if self.kind == "structural":
            return "structural" + ";".join(f"{n}x{dj}" for n, dj in self.blocks)
        return f"{self.kind}(d={self.dim})"

    def unitary_matrix(self) -> np.ndarray:
        """The basis unitary of a masa spec, as a complex array."""
        if self.kind != "masa":
            raise SpecFileError(f"spec of kind {self.kind!r} carries no basis unitary")
        return _matrix_to_array(self.unitary)


def spec_from_dict(data: dict, path=None, allow_large: bool = False) -> AlgebraSpec:
    if not isinstance(data, dict):
        raise SpecFileError("top level must be a JSON object", path)
    dim = _dim(data, path)
    if dim < 1:
        raise SpecFileError("dim must be positive", path, "dim")
    if dim > MAX_AMBIENT_DIM and not allow_large:
        raise SpecFileError(
            f"ambient dimension {dim} exceeds the {MAX_AMBIENT_DIM} guardrail "
            "(pass --allow-large to override)", path, "dim",
        )
    kind = data.get("kind")
    if kind not in KINDS:
        raise SpecFileError(f"kind must be one of {KINDS}, got {kind!r}", path, "kind")

    if kind == "generators":
        mats = data.get("matrices")
        if not isinstance(mats, list):
            raise SpecFileError("'matrices' must be a list", path, "matrices")
        matrices = tuple(
            _decode_matrix(m, dim, path, f"matrices[{i}]") for i, m in enumerate(mats)
        )
        return AlgebraSpec(dim=dim, kind=kind, matrices=matrices)

    if kind == "structural":
        blocks = data.get("blocks")
        if not isinstance(blocks, list) or not blocks:
            raise SpecFileError("'blocks' must be a nonempty list of [n, d] pairs", path, "blocks")
        if not all(isinstance(b, list) and len(b) == 2 for b in blocks):
            raise SpecFileError("'blocks' entries must be [n, d] integer pairs", path, "blocks")
        parsed = tuple(tuple(_integer(x, path, "blocks") for x in b) for b in blocks)
        if any(n < 1 or dj < 1 for n, dj in parsed):
            raise SpecFileError("block dimensions must be positive", path, "blocks")
        if sum(n * dj for n, dj in parsed) != dim:
            raise SpecFileError(
                f"sum of n*d over blocks is {sum(n*dj for n, dj in parsed)}, expected dim={dim}",
                path, "blocks",
            )
        change = None
        if data.get("basis_change") is not None:
            change = _decode_matrix(data["basis_change"], dim, path, "basis_change")
            _check_unitary_payload(change, path, "basis_change")
        return AlgebraSpec(dim=dim, kind=kind, blocks=parsed, basis_change=change)

    if kind == "masa":
        if data.get("unitary") is None:
            raise SpecFileError("masa spec needs a 'unitary' matrix", path, "unitary")
        unitary = _decode_matrix(data["unitary"], dim, path, "unitary")
        _check_unitary_payload(unitary, path, "unitary")
        return AlgebraSpec(dim=dim, kind=kind, unitary=unitary)

    if kind == "lattice":
        site_dims = data.get("site_dims")
        region = data.get("region")
        if not isinstance(site_dims, list) or not site_dims:
            raise SpecFileError("'site_dims' must be a nonempty list", path, "site_dims")
        sites = tuple(_integer(x, path, "site_dims") for x in site_dims)
        if any(x < 1 for x in sites):
            raise SpecFileError("site dimensions must be positive", path, "site_dims")
        if prod(sites) != dim:
            raise SpecFileError(
                f"product of site_dims is {prod(sites)}, expected dim={dim}", path, "site_dims"
            )
        if not isinstance(region, list):
            raise SpecFileError("'region' must be a list of site indices", path, "region")
        reg = tuple(sorted({_integer(x, path, "region") for x in region}))
        for r in reg:
            if r < 0 or r >= len(sites):
                raise SpecFileError(f"region index {r} out of range", path, "region")
        return AlgebraSpec(dim=dim, kind=kind, site_dims=sites, region=reg)

    return AlgebraSpec(dim=dim, kind=kind)


def _check_unitary_payload(mat: tuple, path, field) -> None:
    arr = _matrix_to_array(mat)
    d = arr.shape[0]
    # unitary entries have modulus <= 1; checked first, it keeps the product finite,
    # and the negated comparisons refuse a NaN
    bounded = np.abs(arr).max() <= 1.0 + 1e-8
    if not (bounded and np.linalg.norm(arr.conj().T @ arr - np.eye(d)) <= 1e-8 * d):
        raise SpecFileError("matrix is not unitary (columns not orthonormal)", path, field)


def _dim(data: dict, path) -> int:
    if "dim" not in data:
        raise SpecFileError("missing 'dim'", path, "dim")
    return _integer(data["dim"], path, "dim")


def _load_json(path: str):
    """The JSON document in the file; every way it can fail is a SpecFileError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecFileError(f"cannot read file: {exc}", path)
    except json.JSONDecodeError as exc:
        raise SpecFileError(f"malformed JSON at line {exc.lineno}: {exc.msg}", path)
    except UnicodeDecodeError as exc:
        raise SpecFileError(f"not UTF-8 text (invalid byte at offset {exc.start})", path)
    except RecursionError:
        raise SpecFileError("JSON nested too deeply", path)


def parse_spec(path: str, allow_large: bool = False) -> AlgebraSpec:
    return spec_from_dict(_load_json(path), path=path, allow_large=allow_large)


def serialize_spec(spec: AlgebraSpec) -> str:
    return json.dumps(spec.to_dict(), indent=2)


def write_spec(spec: AlgebraSpec, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(serialize_spec(spec) + "\n")


def parse_matrix_file(path: str, expected_dim: Optional[int] = None) -> np.ndarray:
    """Read a bare matrix file {"dim": d, "matrix": [[[re,im], ...], ...]}."""
    data = _load_json(path)
    if not isinstance(data, dict):
        raise SpecFileError("top level must be a JSON object", path)
    dim = _dim(data, path)
    if expected_dim is not None and dim != expected_dim:
        raise SpecFileError(f"matrix dim {dim} does not match algebra dim {expected_dim}", path)
    if "matrix" not in data:
        raise SpecFileError("missing 'matrix'", path, "matrix")
    return _matrix_to_array(_decode_matrix(data["matrix"], dim, path, "matrix"))
