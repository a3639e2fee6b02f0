"""The report records, and the closed form that needs nothing else.

Everything here is integer and float arithmetic on the standard library, so a
command that reads only this module never loads numpy:

* ``StructuralSummary`` - what the closed forms read of an algebra's shapes
* ``ManReport``, built by ``_report`` alone from the summaries, the route's own
  bounds and ``_pair_bounds``; ``QuantumnessReport``
* ``clamp_unit`` and ``log_man``, the rounding and log conventions of every route
* ``lattice_man`` - S = 1 - d_site^(-2 |S1 n S2|) for two lattice regions, with
  ``_lattice_regions``, the region check it shares with ``lattice_algebra``
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .errors import AlgebraError, NumericalConsistencyError

CLAMP_MARGIN = 1e-9
FORMULA_TOL = 1e-9


@dataclass(frozen=True)
class StructuralSummary:
    """What the closed forms read of an algebra on C^d with blocks 1_{n_J} (x) M_{d_J}:
    d(A) = sum_J d_J^2, d(A') = sum_J n_J^2, d_Z, the n_J and d_J, and the common
    ratio n_J/d_J when it is block-independent (a collinear algebra), else None."""

    d: int
    d_alg: int
    d_comm: int
    d_Z: int
    n: tuple[int, ...]
    d_blocks: tuple[int, ...]
    collinear: bool
    ratio: Optional[float]

    @classmethod
    def from_shapes(cls, d: int, shapes: Sequence[tuple[int, int]]) -> "StructuralSummary":
        """The summary of an algebra on C^d with blocks 1_{n_J} (x) M_{d_J}."""
        ratios = [n / dj for n, dj in shapes]
        collinear = max(ratios) - min(ratios) <= 1e-9
        return cls(
            d=d,
            d_alg=sum(dj * dj for _, dj in shapes),
            d_comm=sum(n * n for n, _ in shapes),
            d_Z=len(shapes),
            n=tuple(n for n, _ in shapes),
            d_blocks=tuple(dj for _, dj in shapes),
            collinear=collinear,
            ratio=ratios[0] if collinear else None,
        )

    def to_dict(self) -> dict:
        return dict(vars(self))


def clamp_unit(x: float, margin: float = CLAMP_MARGIN) -> float:
    """Snap rounding excursions outside [0, 1] back; larger ones, and NaN, are bugs."""
    if not -margin <= x <= 1.0 + margin:
        raise NumericalConsistencyError(f"value {x!r} outside [0,1] beyond margin {margin}")
    if x < 0.0:
        return 0.0
    if x > 1.0:
        return 1.0
    return float(x)


def _check_within(s: float, bounds: dict[str, float]) -> None:
    """Raise when S exceeds any of the upper bounds beyond the clamp margin."""
    for name, bound in bounds.items():
        if s > bound + CLAMP_MARGIN:
            raise NumericalConsistencyError(f"S = {s} exceeds {name} = {bound}")


def log_man(s: float, base: float = 2.0) -> float:
    """S2 = -log(1 - S); +inf sentinel at S = 1."""
    if s >= 1.0:
        return math.inf
    return -math.log1p(-s) / math.log(base) + 0.0


def _log_purity(purity: float, base: float) -> float:
    """S2 = -log(purity), the purity form of log_man for closed forms; +inf at purity 0."""
    return -math.log(purity) / math.log(base) + 0.0 if purity > 0 else math.inf


@dataclass(frozen=True)
class ManReport:
    S: float
    S2: float
    method: str
    bounds: dict[str, float]
    inputs: dict[str, StructuralSummary]
    log_base: float = 2.0
    extras: dict = field(default_factory=dict)

    def __post_init__(self):
        _check_within(self.S, self.bounds)
        expected = log_man(self.S, self.log_base)
        if math.isfinite(expected) and abs(self.S2 - expected) > FORMULA_TOL:
            raise NumericalConsistencyError(
                f"S2 = {self.S2} inconsistent with -log(1-S) = {expected}"
            )

    def to_dict(self) -> dict:
        return {**vars(self), "inputs": {k: v.to_dict() for k, v in self.inputs.items()}}


@dataclass(frozen=True)
class QuantumnessReport:
    Q: float
    S: float
    d: int
    lower_holds: bool
    upper_holds: bool

    def to_dict(self) -> dict:
        return {
            "Q": self.Q,
            "S": self.S,
            "d": self.d,
            "dQ": self.d * self.Q,
            "lower_holds": self.lower_holds,
            "upper_holds": self.upper_holds,
        }


def _pair_bounds(d, summary_a, summary_b, intersection_dim=None):
    """The commutant and weak bounds; the intersection bound too when dim(A n B') is given."""
    bounds = {
        "commutant_bound": 1.0 - max(summary_a.d_comm, summary_b.d_comm) / d**2,
        "weak_bound": 1.0 - 1.0 / min(summary_a.d_alg, summary_b.d_alg),
    }
    if intersection_dim is not None:
        bounds["intersection_bound"] = 1.0 - intersection_dim / summary_a.d_alg
    return bounds


def _report(d, inputs, s, method, log_base, extras, s2=None, bounds=None,
            intersection_dim=None) -> ManReport:
    """The one builder of a ManReport: S2 defaults to log_man(s), and the route's
    own bounds come first, then _pair_bounds of the summaries inputs["A"] and
    inputs["B"] (A again for a self report)."""
    pair = _pair_bounds(d, inputs["A"], inputs.get("B", inputs["A"]), intersection_dim)
    return ManReport(
        S=s,
        S2=log_man(s, log_base) if s2 is None else s2,
        method=method,
        bounds={**(bounds or {}), **pair},
        inputs=inputs,
        log_base=log_base,
        extras=extras,
    )


def _lattice_regions(site_dims: Sequence[int], *regions: Iterable[int]) -> tuple[list, list]:
    """The site dimensions, checked positive, and each region as its sorted site indices,
    checked in range: what a lattice algebra or lattice_man reads."""
    site_dims = [int(x) for x in site_dims]
    if not site_dims or any(x < 1 for x in site_dims):
        raise AlgebraError("site dimensions must be positive integers")
    regions = [sorted(set(int(r) for r in region)) for region in regions]
    for r in (r for region in regions for r in region):
        if r < 0 or r >= len(site_dims):
            raise AlgebraError(f"region index {r} out of range")
    return site_dims, regions


def lattice_man(
    site_dims: Sequence[int],
    region_1: Sequence[int],
    region_2: Sequence[int],
    log_base: float = 2.0,
) -> ManReport:
    """Closed-form MAN of two local lattice algebras with uniform site dim.

    S = 1 - d_site^(-2 |S1 n S2|); the log version is extensive with slope
    c_d = log(d_site^2), and the conditional variant S2(A_S1 | A_S2) counts
    the sites of S1 outside S2.
    """
    site_dims, regions = _lattice_regions(site_dims, region_1, region_2)
    d_site = site_dims[0]
    if any(x != d_site for x in site_dims):
        raise AlgebraError("closed lattice form requires a uniform site dimension")
    n_sites = len(site_dims)
    s1, s2 = map(set, regions)
    d = d_site**n_sites
    c_d = math.log(d_site**2) / math.log(log_base)
    overlap = len(s1 & s2)
    s = clamp_unit(1.0 - float(d_site) ** (-2 * overlap))
    # A_R is M_{d_site^|R|} on R, times the identity on the other sites
    sa, sb = (StructuralSummary.from_shapes(d, [(d_site ** (n_sites - len(r)), d_site ** len(r))])
              for r in (s1, s2))
    extras = {
        "c_d": c_d,
        "overlap": overlap,
        "s2_conditional": c_d * len(s1 - s2),
        "nc_1": clamp_unit(1.0 - float(d_site) ** (-2 * len(s1))),
        "nc_2": clamp_unit(1.0 - float(d_site) ** (-2 * len(s2))),
        "nc2_1": c_d * len(s1),
        "nc2_2": c_d * len(s2),
    }
    # A_{S1} meets the commutant A_{S2^c} in A_{S1 \ S2}; the resulting bound
    # is saturated because the two projections commute.
    inter_dim = (d_site ** len(s1 - s2)) ** 2
    return _report(d, {"A": sa, "B": sb}, s, "man.lattice", log_base, extras, s2=c_d * overlap,
                   intersection_dim=inter_dim)
