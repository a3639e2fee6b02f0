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

numpy is imported only where a matrix is decoded or compared, and the
algebras only where a spec builds one (``to_algebra``): a spec without a
matrix, a lattice say, is parsed by the standard library alone, behind the
same guardrail.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from math import isfinite, prod
from numbers import Integral
from typing import TYPE_CHECKING, Optional

from .errors import SpecFileError

if TYPE_CHECKING:
    import numpy as np

    from .algebras import OperatorAlgebra

KINDS = ("generators", "structural", "masa", "lattice", "full", "trivial")

# Refuse larger ambients unless explicitly overridden.  No command builds a
# d^2 x d^2 superoperator or a dense algebra basis: every route reads block
# data, and only the oracles are d^4 (manlab.oracles, which no command loads,
# and the bases that OperatorAlgebra builds on first access).  The largest
# production objects are d x d, but the spec files grow as d^2 entries.
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


class SpecMatrix:
    """A decoded spec matrix: a read-only complex array, compared by value."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        array.setflags(write=False)
        self.array = array

    def __eq__(self, other) -> bool:
        import numpy as np

        return isinstance(other, SpecMatrix) and np.array_equal(self.array, other.array)

    def to_list(self) -> list:
        """The [re, im] pair rows of the schema."""
        import numpy as np

        return np.stack([self.array.real, self.array.imag], axis=-1).tolist()


def _decode_matrix(data, dim: int, path, field) -> np.ndarray:
    """A dim x dim matrix of [re, im] pairs as a complex array, decoded in one pass.

    Anything that is not a (dim, dim, 2) array of finite floats goes to
    _matrix_error, which names what is wrong.
    """
    import numpy as np

    try:
        pairs = np.ascontiguousarray(data, dtype=float)
    except (TypeError, ValueError, OverflowError):
        pairs = None
    # json accepts the NaN and Infinity tokens, and numpy reads null as NaN
    if pairs is None or pairs.shape != (dim, dim, 2) or not np.isfinite(pairs).all():
        _matrix_error(data, dim, path, field)
    return pairs.view(complex)[..., 0]


def _matrix_error(data, dim: int, path, field):
    """Raise the SpecFileError that says why data is not a dim x dim matrix of finite pairs."""
    try:
        rows = [[(float(re), float(im)) for re, im in row] for row in data]
    except (TypeError, ValueError, OverflowError) as exc:
        raise SpecFileError(f"matrix entries must be [re, im] pairs ({exc})", path, field)
    if len(rows) != dim or any(len(row) != dim for row in rows):
        raise SpecFileError(f"matrix must be {dim}x{dim}", path, field)
    if not all(isfinite(x) for row in rows for pair in row for x in pair):
        raise SpecFileError("matrix entries must be finite", path, field)
    raise SpecFileError("matrix entries must be [re, im] pairs", path, field)


@dataclass(frozen=True)
class AlgebraSpec:
    """Validated description of one algebra."""

    dim: int
    kind: str
    matrices: Optional[tuple[SpecMatrix, ...]] = None
    blocks: Optional[tuple] = None
    basis_change: Optional[SpecMatrix] = None
    unitary: Optional[SpecMatrix] = None
    site_dims: Optional[tuple] = None
    region: Optional[tuple] = None

    def to_dict(self) -> dict:
        out = {"dim": self.dim, "kind": self.kind}
        if self.matrices is not None:
            out["matrices"] = [m.to_list() for m in self.matrices]
        if self.blocks is not None:
            out["blocks"] = [list(b) for b in self.blocks]
        if self.basis_change is not None:
            out["basis_change"] = self.basis_change.to_list()
        if self.unitary is not None:
            out["unitary"] = self.unitary.to_list()
        if self.site_dims is not None:
            out["site_dims"] = list(self.site_dims)
        if self.region is not None:
            out["region"] = list(self.region)
        return out

    def to_algebra(self) -> OperatorAlgebra:
        from .algebras import (
            algebra_from_generators,
            full_algebra,
            lattice_algebra,
            masa_from_unitary,
            structural_algebra,
            trivial_algebra,
        )

        if self.kind == "generators":
            return algebra_from_generators([m.array for m in self.matrices], self.dim)
        if self.kind == "structural":
            change = None if self.basis_change is None else self.basis_change.array
            return structural_algebra(list(self.blocks), basis_change=change)
        if self.kind == "masa":
            return masa_from_unitary(self.unitary.array)
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
            SpecMatrix(_decode_matrix(m, dim, path, f"matrices[{i}]")) for i, m in enumerate(mats)
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
            change = SpecMatrix(_decode_matrix(data["basis_change"], dim, path, "basis_change"))
            _check_unitary_payload(change.array, path, "basis_change")
        return AlgebraSpec(dim=dim, kind=kind, blocks=parsed, basis_change=change)

    if kind == "masa":
        if data.get("unitary") is None:
            raise SpecFileError("masa spec needs a 'unitary' matrix", path, "unitary")
        unitary = SpecMatrix(_decode_matrix(data["unitary"], dim, path, "unitary"))
        _check_unitary_payload(unitary.array, path, "unitary")
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


def _check_unitary_payload(arr: np.ndarray, path, field) -> None:
    from .masa import _is_unitary

    if not _is_unitary(arr):
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
    return _decode_matrix(data["matrix"], dim, path, "matrix")
