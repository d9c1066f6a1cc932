"""Finite b-metric spaces and exhaustive verification of the relaxed metric axioms."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import compress
from operator import gt, truediv

FORMULA_METRICS = ("squared-difference", "absolute-difference")
VALUE_ATOL = 1e-12  # point_by_value's default: values this close name one point


class UnknownPointError(KeyError):
    """Raised when a point id or value does not belong to the space."""


@dataclass(frozen=True)
class Point:
    id: int
    value: float


@dataclass(frozen=True)
class BMetricSpace:
    """A finite point set with a distance function and relaxation coefficient s >= 1.

    The metric is either a named formula over point values
    ("squared-difference" or "absolute-difference") or an explicit table
    indexed by point id.  ``complete`` is a user assertion: completeness is
    never computed from finite data.  ``grid_sample`` marks spaces sampled
    from a continuum, which disables the discrete-space arguments
    (see relation.check_bd_self_closed).

    Construction materialises the n x n distance matrix that every
    distance read goes through.  Every distance must be a finite float.  The
    matrix is a plain instance attribute, so equality, hashing and ``fields``
    see only the declared fields.
    """

    points: tuple[Point, ...]
    metric: str = "squared-difference"
    table: tuple[tuple[float, ...], ...] | None = None
    s: float = 1.0
    complete: bool = True
    grid_sample: bool = False

    def __post_init__(self):
        if not self.points:
            raise ValueError("space needs at least one point")
        if self.s < 1.0:
            raise ValueError("s >= 1 required")
        if not math.isfinite(self.s):
            raise ValueError("s must be finite")
        ids = [p.id for p in self.points]
        if ids != list(range(len(ids))):
            raise ValueError("point ids must be dense 0..n-1 in order")
        for p in self.points:
            if not math.isfinite(p.value):
                raise ValueError(f"point {p.id} has non-finite value")
        if self.metric == "table":
            if self.table is None:
                raise ValueError("table metric requires a table")
            n = len(self.points)
            if len(self.table) != n or any(len(row) != n for row in self.table):
                raise ValueError("metric table must be square, one row per point")
            for row in self.table:
                for v in row:
                    if not math.isfinite(v) or v < 0:
                        raise ValueError("metric table entries must be finite and nonnegative")
        elif self.metric not in FORMULA_METRICS:
            raise ValueError(f"unknown metric {self.metric!r}")
        try:
            d = self._distance_matrix()
        except OverflowError:
            d = None
        # finite values can still be too far apart for a float distance
        if d is None or not math.isfinite(max(map(max, d))):
            raise ValueError("point values too far apart: a distance is not a finite float")
        object.__setattr__(self, "_d", d)

    def _distance_matrix(self) -> tuple:
        vals = [p.value for p in self.points]
        if self.metric == "squared-difference":
            return tuple(tuple((va - vb) ** 2 for vb in vals) for va in vals)
        if self.metric == "absolute-difference":
            return tuple(tuple(abs(va - vb) for vb in vals) for va in vals)
        return tuple(tuple(row) for row in self.table)

    @classmethod
    def from_values(cls, values, **kw) -> "BMetricSpace":
        pts = tuple(Point(i, float(v)) for i, v in enumerate(values))
        return cls(points=pts, **kw)

    def point(self, pid: int) -> Point:
        if not 0 <= pid < len(self.points):
            raise UnknownPointError(pid)
        return self.points[pid]

    def point_by_value(self, value: float, atol: float = VALUE_ATOL) -> Point:
        for p in self.points:
            if abs(p.value - value) <= atol:
                return p
        raise UnknownPointError(value)

    def min_nonzero_distance(self) -> float:
        """Smallest positive pairwise distance; +inf on a single-point space."""
        return min((v for i, row in enumerate(self._d) for v in row[i + 1:] if v > 0),
                   default=math.inf)

    def __len__(self):
        return len(self.points)


def _pid(p) -> int:
    return p.id if isinstance(p, Point) else int(p)


def distance(space: BMetricSpace, a, b) -> float:
    """d(a, b), read from the space's distance matrix."""
    ia, ib = _pid(a), _pid(b)
    d = space._d
    # a negative id would wrap around in the lookup
    if not 0 <= ia < len(d):
        raise UnknownPointError(ia)
    if not 0 <= ib < len(d):
        raise UnknownPointError(ib)
    return d[ia][ib]


def default_axiom_tol(space: BMetricSpace) -> float:
    # formula evaluation rounds; explicit tables are taken as exact
    return 1e-12 if space.metric in FORMULA_METRICS else 0.0


@dataclass
class AxiomReport:
    identity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    min_feasible_s: float
    s: float
    tol: float
    identity_witnesses: list = field(default_factory=list)
    symmetry_witnesses: list = field(default_factory=list)
    triangle_witnesses: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and self.symmetry_ok and self.triangle_ok


def verify_bmetric_axioms(space: BMetricSpace, tol: float | None = None) -> AxiomReport:
    """Exhaustively check the three b-metric axioms at the space's coefficient s.

    A triangle violation for the ordered triple (a, w, b) means
    d(a, w) > s * (d(a, b) + d(b, w)) + tol; witnesses are recorded as value
    triples (a, w, via=b).  min_feasible_s is the max of d(a, w) / (d(a, b)
    + d(b, w)) over triples with positive denominator, reported even when
    the declared s already suffices.
    """
    if tol is None:
        tol = default_axiom_tol(space)
    rep = AxiomReport(True, True, True, 1.0, space.s, tol)

    pts, d, s = space.points, space._d, space.s
    n = len(d)
    for a in range(n):
        if d[a][a] > tol:
            rep.identity_ok = False
            rep.identity_witnesses.append((pts[a].value, pts[a].value))
    for a in range(n):
        for b in range(a + 1, n):
            dab, dba = d[a][b], d[b][a]
            if dab <= tol:
                rep.identity_ok = False
                rep.identity_witnesses.append((pts[a].value, pts[b].value))
            if abs(dab - dba) > tol:
                rep.symmetry_ok = False
                rep.symmetry_witnesses.append((pts[a].value, pts[b].value))

    # row-wise over w for each (a, b): lhs = d[a][w], rhs = d[a][b] + d[b][w]
    worst = 0.0
    witnesses = rep.triangle_witnesses
    for a in range(n):
        row_a = d[a]
        for b in range(n):
            dab = row_a[b]
            rhs = [dab + x for x in d[b]]
            if dab > 0:
                # every rhs is positive and every lhs finite, so no ratio is NaN
                # and float max does not depend on order
                worst = max(worst, max(map(truediv, row_a, rhs)))
            else:
                for lhs, r in zip(row_a, rhs):
                    if r > 0:
                        worst = max(worst, lhs / r)
            for w in compress(range(n), map(gt, row_a, [s * r + tol for r in rhs])):
                witnesses.append((pts[a].value, pts[w].value, pts[b].value))
    rep.triangle_ok = not witnesses
    rep.min_feasible_s = max(worst, 1.0) if n > 1 else 1.0
    return rep
