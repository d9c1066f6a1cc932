"""Finite b-metric spaces and exhaustive verification of the relaxed metric axioms."""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, islice
from operator import attrgetter, gt, truediv

FORMULA_METRICS = ("squared-difference", "absolute-difference")
VALUE_ATOL = 1e-12  # point_by_value's default: values this close name one point
WITNESS_CAP = 256  # each axiom witness list keeps its first entries; the counts stay exact


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
    indexed by point id.

    Construction materialises the n x n distance matrix that every
    distance read goes through.  Every distance must be a finite float.  The
    matrix is a plain instance attribute, so equality, hashing and ``fields``
    see only the declared fields.
    """

    points: tuple[Point, ...]
    metric: str = "squared-difference"
    table: tuple[tuple[float, ...], ...] | None = None
    s: float = 1.0

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
        by_value = sorted(self.points, key=attrgetter("value"))
        object.__setattr__(self, "_by_value", ([p.value for p in by_value], by_value))

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
        """The lowest-id point with abs(point value - value) <= atol.

        Sorted values before ``value``'s insertion point differ from it by <= 0,
        the rest by >= 0, and rounding is monotone: the matches are one run there.
        """
        keys, pts = self._by_value
        lo = hi = bisect_left(keys, value)
        while lo > 0 and abs(keys[lo - 1] - value) <= atol:
            lo -= 1
        while hi < len(keys) and abs(keys[hi] - value) <= atol:
            hi += 1
        if lo == hi:
            raise UnknownPointError(value)
        return pts[lo] if hi - lo == 1 else min(pts[lo:hi], key=attrgetter("id"))

    def min_nonzero_distance(self) -> float:
        """Smallest positive pairwise distance; +inf on a single-point space."""
        return min((v for i, row in enumerate(self._d) for v in row[i + 1:] if v > 0),
                   default=math.inf)

    def __len__(self):
        return len(self.points)


def _int_id(x) -> int:
    """int(x), refusing a value that int() would truncate (2.5 would name point 2)."""
    try:
        i = int(x)
    except (OverflowError, ValueError):  # int() refuses inf and nan
        i = None
    if i != x:
        raise ValueError(f"point ids must be integers, got {x!r}")
    return i


def _pid(p) -> int:
    return p.id if isinstance(p, Point) else _int_id(p)


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
    """Axiom verdicts; each witness list holds the first WITNESS_CAP of its exact count."""

    identity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    min_feasible_s: float
    s: float
    tol: float
    identity_witness_count: int = 0
    identity_witnesses: list = field(default_factory=list)
    symmetry_witness_count: int = 0
    symmetry_witnesses: list = field(default_factory=list)
    triangle_witness_count: int = 0
    triangle_witnesses: list = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return self.identity_ok and self.symmetry_ok and self.triangle_ok


def _value_grid(values) -> tuple[list[int], int]:
    """The values on one dyadic grid: integers X, in input order, with value = X / q.

    q is the largest denominator of the values' ``as_integer_ratio()``, a
    power of two, so every value is an exact integer multiple of 1 / q.
    """
    fracs = [v.as_integer_ratio() for v in values]
    q = max(den for _, den in fracs)
    return [p * (q // den) for p, den in fracs], q


def _squared_sup(xs) -> tuple[int, int]:
    """Exact sup of (a - w)**2 / ((a - b)**2 + (b - w)**2) over grid-value triples, as (num, den).

    ``xs`` are the distinct values on one integer grid, ascending (see
    _value_grid); the ratio does not depend on the grid's scale.  For a < w,
    with L = w - a and e = |2b - a - w|, the ratio is 2 L**2 / (L**2 + e**2),
    so the best b is the value nearest the midpoint and the sup is 2 when
    e = 0.  For each a one pointer follows the midpoint as w grows, and
    ratios are compared by cross-multiplying.  The result is at least 1
    (b = a).
    """
    best_e, best_len = 1, 1
    for i, a in enumerate(xs):
        k = i
        for w in xs[i + 1:]:
            mid2 = a + w
            # 2 * w > mid2, so xs[k + 1] never passes w
            while 2 * xs[k + 1] <= mid2:
                k += 1
            e = min(mid2 - 2 * xs[k], 2 * xs[k + 1] - mid2)
            if e == 0:
                return 2, 1
            if e * best_len < best_e * (w - a):
                best_e, best_len = e, w - a
    return 2 * best_len ** 2, best_len ** 2 + best_e ** 2


def _entries_exact(space: BMetricSpace, xs: list, q: int) -> bool:
    """True when every matrix entry, diagonal included, is D(a, b) exactly and
    every sum of two entries is a float.

    ``xs``, ``q`` are the point values on their grid (see _value_grid), q = 2**e.
    In grid units an entry is the integer k = (Xa - Xb)**2, scaled by
    2**-2e, or |Xa - Xb|, scaled by 2**-e.  When 2 * max k < 2**53 and that
    scale is at least 2**-1022, every k * scale and every sum of two is a
    float, so comparing each entry with k * scale in floats is exact.
    Otherwise (a span too wide, or a grid so fine the scale underflows) the
    answer is False.  The entries are read, not assumed: the matrix is built
    with a subtraction and a libm pow.
    """
    e = q.bit_length() - 1
    k_max = max(xs) - min(xs)
    squared = space.metric == "squared-difference"
    if squared:
        e, k_max = 2 * e, k_max * k_max
    if e > 1022 or 2 * k_max >= 2 ** 53:
        return False
    scale = math.ldexp(1.0, -e)
    if squared:
        return all(row == tuple([(xa - xb) ** 2 * scale for xb in xs])
                   for xa, row in zip(xs, space._d))
    return all(row == tuple([abs(xa - xb) * scale for xb in xs])
               for xa, row in zip(xs, space._d))


def _triangle_scan(space: BMetricSpace, tol: float, witnesses: list) -> tuple[int, float]:
    """Count the triangle witnesses and append the first WITNESS_CAP of them.

    Returns (count, float max ratio); the ratio is computed for a table only.
    Row-wise over w for each (a, b): lhs = d[a][w] against the threshold
    s * (d[a][b] + d[b][w]) + tol.  A row is counted in one C-level pass and
    enumerated only while the list is short of the cap.
    """
    pts, d, s = space.points, space._d, space.s
    n = len(d)
    ratios = space.metric == "table"
    count, worst = 0, 0.0
    for a in range(n):
        row_a = d[a]
        for b in range(n):
            dab = row_a[b]
            if ratios:
                rhs = [dab + x for x in d[b]]
                if dab > 0:
                    # every rhs is positive and every lhs finite, so no ratio is NaN
                    # and float max does not depend on order
                    worst = max(worst, max(map(truediv, row_a, rhs)))
                else:
                    for lhs, r in zip(row_a, rhs):
                        if r > 0:
                            worst = max(worst, lhs / r)
            thr = [s * (dab + x) + tol for x in d[b]]
            found = sum(map(gt, row_a, thr))
            if not found:
                continue
            count += found
            room = WITNESS_CAP - len(witnesses)
            if room > 0:
                bv = pts[b].value
                witnesses.extend(islice(
                    ((pts[a].value, pts[w].value, bv)
                     for w in compress(range(n), map(gt, row_a, thr))), room))
    return count, worst


def verify_bmetric_axioms(space: BMetricSpace, tol: float | None = None) -> AxiomReport:
    """Exhaustively check the three b-metric axioms at the space's coefficient s.

    A triangle violation for the ordered triple (a, w, b) means
    d(a, w) > s * (d(a, b) + d(b, w)) + tol, evaluated in floats on the
    distance matrix; witnesses are recorded as value triples (a, w, via=b).
    Each ``*_witness_count`` is exact, and each list keeps the first
    WITNESS_CAP witnesses in scan order: identity the diagonal, then pairs
    a < b; symmetry pairs a < b; triangle triples ordered by (a, b, w).

    min_feasible_s is reported even when the declared s already suffices.
    For a formula metric it is S*, the exact supremum of D(a, w) / (D(a, b)
    + D(b, w)) over triples of point values with a positive denominator, D
    the metric over the reals, rounded once to a float and at least 1.  It
    is 1 for absolute-difference (the triangle inequality, attained at
    b = a) and comes from _squared_sup for squared-difference.  For a table
    it is the float max of the same ratio over the matrix, and at least 1.

    The formula-metric triangle scan is skipped when s >= S* (compared
    exactly) and

        tol > 2**-49 * M + (s + 1) * 2**-1072,    M the largest matrix entry,

    because then the float test finds no witness.  With u = 2**-53, every
    entry is d = D (1 + t) + h with |t| <= E and |h| <= H: E = u, H = 0 for
    abs(a - b), one rounded subtraction; E < 4.01 u, H = 2**-1074 for
    (a - b)**2, a subtraction and a pow within one ulp, where h covers a
    square that falls below 2**-1022.  Let Sigma = D(a, b) + D(b, w).  The
    sum, the product by s and the addition of tol each round by a factor
    (1 + t), |t| <= u, and the product may underflow by 2**-1075, so the
    right side is at least (1 - u) ((1 - G) s Sigma - 2 s H - 2**-1075 + tol)
    with G = 1 - (1 - u)**2 (1 - E) <= E + 2u, and an overflow to inf only
    raises it.  That bound grows with s Sigma >= S* Sigma >= D(a, w), and
    the left side is at most (1 + E) D(a, w) + H with D(a, w) <= (M + H) /
    (1 - E).  So a witness needs (1 - u) tol < (2E + 3u) D(a, w) + (2s + 1) H
    + 2**-1075, hence tol < 11.1 u M + (s + 0.8) 2**-1073.  The bound above,
    evaluated in floats, is at least (1 - u)**2 (16 u M + (s + 1) 2**-1072)
    - 2**-1074, which exceeds that.

    That bound fails once M is above about 2,250 at tol = 1e-12, so the scan
    is also skipped when s >= S*, tol >= 0 and the distances are exact: every
    entry equals D(a, b) and every sum of two entries is a float
    (_entries_exact, one O(n**2) pass on the values' dyadic grid).  Then
    D(a, w) <= S* Sigma <= s Sigma is an inequality between the floats
    themselves, with Sigma = d(a, b) + d(b, w) computed without rounding.
    Rounding to nearest is monotone and d(a, w) is a float, so fl(s Sigma)
    >= d(a, w), and adding tol >= 0 keeps the right side at least d(a, w):
    no witness.  An overflow to inf only raises the right side.  A NaN tol
    fails both tests and gets the scan.  Tables always get the scan.
    """
    if tol is None:
        tol = default_axiom_tol(space)
    pts, d, s = space.points, space._d, space.s
    n = len(d)
    # the identity and symmetry lists grow as n**2, like the matrix, so they
    # are cut to the cap only when the report is built
    identity, symmetry, triangle = [], [], []
    for a in range(n):
        if d[a][a] > tol:
            identity.append((pts[a].value, pts[a].value))
    for a in range(n):
        for b in range(a + 1, n):
            dab, dba = d[a][b], d[b][a]
            if dab <= tol:
                identity.append((pts[a].value, pts[b].value))
            if abs(dab - dba) > tol:
                symmetry.append((pts[a].value, pts[b].value))

    triangle_count = 0
    if space.metric == "table":
        triangle_count, worst = _triangle_scan(space, tol, triangle)
        min_feasible_s = max(worst, 1.0)
    else:
        xs, q = _value_grid([p.value for p in pts])
        if space.metric == "squared-difference":
            num, den = _squared_sup(sorted(set(xs)))
        else:
            num, den = 1, 1
        min_feasible_s = num / den
        s_num, s_den = s.as_integer_ratio()
        bound = math.ldexp(max(map(max, d)), -49) + math.ldexp(s + 1, -1072)
        # cheapest first: the exact comparison, the bound, then one O(n**2) pass
        if not (s_num * den >= num * s_den
                and (tol > bound or tol >= 0 and _entries_exact(space, xs, q))):
            triangle_count, _ = _triangle_scan(space, tol, triangle)
    return AxiomReport(
        identity_ok=not identity,
        symmetry_ok=not symmetry,
        triangle_ok=triangle_count == 0,
        min_feasible_s=min_feasible_s,
        s=s,
        tol=tol,
        identity_witness_count=len(identity),
        identity_witnesses=identity[:WITNESS_CAP],
        symmetry_witness_count=len(symmetry),
        symmetry_witnesses=symmetry[:WITNESS_CAP],
        triangle_witness_count=triangle_count,
        triangle_witnesses=triangle,
    )
