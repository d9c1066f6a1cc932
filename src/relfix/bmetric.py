"""Finite b-metric spaces and exhaustive verification of the relaxed metric axioms."""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import accumulate, chain, compress, islice, repeat
from operator import attrgetter, gt, sub, truediv, xor

from .records import fresh, record

FORMULA_METRICS = ("squared-difference", "absolute-difference")
VALUE_ATOL = 1e-12  # point_by_value's default: values this close name one point
WITNESS_CAP = 256  # each witness list keeps its first entries; the counts stay exact
_FLUSH = 2  # _triangle_count holds at most about _FLUSH * n * ceil(log2 n) windows at once
_BINARY_DIGITS = bytes.maketrans(b"01", b"\x00\x01")  # bin() digits as 0/1 bytes


class Witnesses:
    """A scan's exact witness ``count`` and, in ``kept``, the first WITNESS_CAP
    witnesses in the order found: every capped list in relfix, and the only
    reader of the cap.  ``add(found, batch)`` counts ``found`` more witnesses;
    ``batch`` yields exactly those, in order, and is an iterable advanced only
    while the list has room, or a callable returning one, called only then,
    so no witness the list would drop need be built.  ``Witnesses(found,
    batch)`` starts with that batch added."""

    __slots__ = ("count", "kept")

    def __init__(self, found: int = 0, batch=()):
        self.count, self.kept = 0, []
        if found:
            self.add(found, batch)

    def add(self, found: int, batch) -> None:
        self.count += found
        room = WITNESS_CAP - len(self.kept)
        if found and room > 0:
            if callable(batch):
                batch = batch()
            self.kept += batch if found <= room else islice(batch, room)


class UnknownPointError(KeyError):
    """Raised when a point id or value does not belong to the space."""


class Point(namedtuple("Point", "id value")):
    """A point of a space: its int ``id`` in 0..n-1 and its float ``value``."""

    __slots__ = ()


@record(frozen=True)
class BMetricSpace:
    """A finite point set with a distance function and relaxation coefficient s >= 1.

    The metric is either a named formula over point values
    ("squared-difference" or "absolute-difference") or an explicit table
    indexed by point id.

    Construction materialises the n x n distance matrix that every
    distance read goes through.  Every distance must be a finite float.  The
    matrix and its largest entry ``_dmax`` are plain instance attributes, so
    equality, hashing and ``_fields`` see only the declared fields.
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
        dmax = math.inf if d is None else max(map(max, d))
        if not math.isfinite(dmax):
            raise ValueError("point values too far apart: a distance is not a finite float")
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_dmax", dmax)
        by_value = sorted(self.points, key=attrgetter("value"))
        keys = [p.value for p in by_value]
        object.__setattr__(self, "_by_value", (keys, by_value))
        # with every gap above VALUE_ATOL a value names at most one point at
        # the default tolerance, so an exact hit is the bisect path's answer
        spread = min(map(sub, keys[1:], keys), default=math.inf) > VALUE_ATOL
        object.__setattr__(self, "_exact", dict(zip(keys, by_value)) if spread else None)

    def _distance_matrix(self) -> tuple:
        vals = [p.value for p in self.points]
        if self.metric == "squared-difference":
            return tuple([tuple([(va - vb) ** 2 for vb in vals]) for va in vals])
        if self.metric == "absolute-difference":
            return tuple([tuple([abs(va - vb) for vb in vals]) for va in vals])
        return tuple([tuple(row) for row in self.table])

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

        A value equal to a point's is looked up in ``_exact`` when the space
        has that index and atol is the default.  Otherwise the sorted values
        are bisected: those before ``value``'s insertion point differ from it
        by <= 0, the rest by >= 0, and rounding is monotone, so the matches
        are one run there.
        """
        exact = self._exact
        if exact is not None and atol == VALUE_ATOL:
            p = exact.get(value)
            if p is not None:
                return p
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
        """Smallest positive off-diagonal distance; +inf on a single-point space.

        A formula matrix is symmetric, so its upper triangle suffices; a table
        may not be, so both of its triangles are read.
        """
        if self.metric == "table":
            rows = [row[:i] + row[i + 1:] for i, row in enumerate(self._d)]
        else:
            rows = [row[i + 1:] for i, row in enumerate(self._d)]
        # every entry is finite and >= 0, so filter(None) keeps the positive ones
        return min(filter(None, chain.from_iterable(rows)), default=math.inf)

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


@record
class AxiomReport:
    """Axiom verdicts; each witness list and its exact count come from one Witnesses."""

    identity_ok: bool
    symmetry_ok: bool
    triangle_ok: bool
    min_feasible_s: float
    s: float
    tol: float
    identity_witness_count: int = 0
    identity_witnesses: list = fresh(list)
    symmetry_witness_count: int = 0
    symmetry_witnesses: list = fresh(list)
    triangle_witness_count: int = 0
    triangle_witnesses: list = fresh(list)

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


def _exact_scale(space: BMetricSpace, xs: list, q: int) -> float | None:
    """The grid scale when every matrix entry, diagonal included, is K(a, b) *
    scale exactly and every sum of two entries is a float; None otherwise.

    ``xs``, ``q`` are the point values on their grid (see _value_grid), q = 2**e.
    In grid units an entry is the integer K(a, b) = (Xa - Xb)**2, scaled by
    2**-2e, or |Xa - Xb|, scaled by 2**-e.  When 2 * max K < 2**53 and that
    scale is at least 2**-1022, every K * scale and every sum of two is a
    float.  Otherwise (a span too wide, or a grid so fine the scale
    underflows) the answer is None.

    Each upper-triangle entry is then compared with its prediction from the
    point values in floats, (va - vb) * (va - vb) or abs(va - vb), and that
    prediction is K * scale bit for bit: va - vb is (Xa - Xb) * 2**-e, an
    integer below 2**52 in magnitude times a power of two no smaller than
    2**-1022, so it is a float and the subtraction returns it exactly; the
    square (Xa - Xb)**2 * 2**-2e is such a float too, so the product is exact.
    The entries are read, not assumed: the matrix is built with a libm pow,
    and an entry it rounded differs from its prediction.
    """
    e = q.bit_length() - 1
    k_max = max(xs) - min(xs)
    squared = space.metric == "squared-difference"
    if squared:
        e, k_max = 2 * e, k_max * k_max
    if e > 1022 or 2 * k_max >= 2 ** 53:
        return None
    d = space._d
    # K is symmetric: check the matrix is, in C, then only its upper triangle
    if d != tuple(zip(*d)):
        return None
    vals = [p.value for p in space.points]
    if squared:
        exact = all(row[i:] == tuple([(va - vb) * (va - vb) for vb in vals[i:]])
                    for i, (va, row) in enumerate(zip(vals, d)))
    else:
        exact = all(row[i:] == tuple([abs(va - vb) for vb in vals[i:]])
                    for i, (va, row) in enumerate(zip(vals, d)))
    return math.ldexp(1.0, -e) if exact else None


def _last_hit(hit, guess: float, k_max: int) -> int:
    """The largest integer k in [-1, k_max] with hit(k), where hit holds on a
    prefix of 0..k_max; -1 when it holds nowhere.

    The search starts from the float ``guess``, clamped to [-1, k_max], and
    gallops away from it, then bisects: at most 2 * log2(k_max + 2) + 2
    calls of hit, and two when the guess is right.
    """
    def test(k):
        return k < 0 or k <= k_max and hit(k)

    lo = k_max if guess >= k_max else int(guess) if guess >= 0 else -1
    if test(lo):
        hi, step = lo + 1, 1
        while test(hi):
            lo, step = hi, 2 * step
            hi = min(lo + step, k_max + 1)
    else:
        hi, step = lo, 1
        lo = hi - 1
        while not test(lo):
            hi, step = lo, 2 * step
            lo = max(hi - step, -1)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if test(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _triangle_count(space: BMetricSpace, xs: list, scale: float, tol: float) -> Witnesses:
    """_triangle_scan's witnesses, on an exact grid, counted by middle point.

    ``xs`` are the point values on their grid, by id, and ``scale`` is the
    grid's scale (see _exact_scale), so d(a, b) = K(a, b) * scale and each sum
    d(a, b) + d(b, w) is the float (K(a, b) + K(b, w)) * scale.  The scan's
    threshold fl(fl(s * sum) + tol) never decreases as the sum grows, and
    once s * sum overflows it stays inf (inf - inf is NaN, which fails the
    test too), so (a, b, w) is a witness iff K(a, b) + K(b, w) <= lam, the
    largest integer k <= sum_max, the largest possible sum, that passes the
    scan's test with k * scale in place of the sum (_last_hit; -1 if none).
    lam depends on a and w only through L = |Xa - Xw|, and is found once per
    distinct L.

    With y = Xb and m = Xa + Xw, K(a, b) + K(b, w) is ((2y - m)**2 + L**2) / 2
    for squared-difference and max(L, |2y - m|) for absolute-difference, so
    the witnesses' b are the points whose 2y lies in the window [m - r, m + r],
    where r = isqrt(2 lam - L**2) or lam (no window when 2 lam < L**2 or
    lam < L).  The pairs (a, w) and (w, a) share a window, so the pairs
    a < w are walked once, in value order, appending each window's ends to
    two lists.  Once both are sorted, the windows holding a point's 2y number
    #(lows <= 2y) - #(ups < 2y): two bisections per point, not per pair.
    Twice that sum over the points, plus the a = w windows (L = 0, one
    radius), is the count.  Whenever the lists hold more than _FLUSH * n *
    ceil(log2 n) windows they are counted and cleared, so they stay
    O(n log n) long and the 2n bisections per flush cost O(n**2) in all.

    Witnesses are listed a-block by a-block, in the scan's (a, b, w) order,
    from the same windows, and only as the list reads them.  A block's
    windows are intervals of the sorted points; one XOR sweep over them
    gives, for each point b, the bit row of the w whose window holds it.
    Blocks are built in id order, and block a bisects the window it shares
    with an earlier w only if block w found a point in it, so each window
    is bisected once unless it holds a point.  The listing stops after
    exactly ``count`` witnesses, so no block past the last witness is built.
    """
    s, n = space.s, len(xs)
    squared = space.metric == "squared-difference"
    sum_max = 2 * (max(xs) - min(xs)) ** (2 if squared else 1)
    order = sorted(range(n), key=xs.__getitem__)
    values = [xs[b] for b in order]
    keys = [2 * x for x in values]
    radii = {}  # L -> r, or -1 when no b qualifies

    def radius(L):
        k = L * L if squared else L
        dv = k * scale
        guess = (dv - tol) / s / scale  # never NaN: dv is finite and tol is not NaN
        j = int(guess) if 0 <= guess < sum_max else -1
        if j >= 0 and dv > s * (j * scale) + tol and not dv > s * ((j + 1) * scale) + tol:
            lam = j  # the usual case: the guess passes the test and the next sum fails it
        else:
            lam = _last_hit(lambda i: dv > s * (i * scale) + tol, guess, sum_max)
        if squared:
            return math.isqrt(2 * lam - k) if 2 * lam >= k else -1
        return lam if lam >= L else -1

    def held(lows, ups):
        # the windows holding each key: those with lo <= key, less those with up < key
        lows.sort()
        ups.sort()
        return (sum(map(bisect_right, repeat(lows, n), keys))
                - sum(map(bisect_left, repeat(ups, n), keys)))

    flush = _FLUSH * n * (n - 1).bit_length()
    found, lows, ups = 0, [], []
    for i, xa in enumerate(values):
        for xw in values[i + 1:]:
            L = xw - xa
            r = radii.get(L)
            if r is None:
                r = radii[L] = radius(L)
            if r >= 0:
                m = xa + xw
                lows.append(m - r)
                ups.append(m + r)
        if len(lows) > flush:
            found += held(lows, ups)
            lows.clear()
            ups.clear()
    found = 2 * (found + held(lows, ups))
    r = radii[0] = radius(0)
    if r >= 0:
        found += held([k - r for k in keys], [k + r for k in keys])

    vals = [p.value for p in space.points]
    pos = [0] * n  # pos[b]: b's place in value order
    for p, b in enumerate(order):
        pos[b] = p

    # bit a of nonempty[w]: block a found a point in its window with w; block
    # w > a then tests only those of its windows with an earlier point
    nonempty = [0] * n

    def block(a):
        # a's witnesses in the scan's (b, w) order
        xa, va = xs[a], vals[a]
        toggles = [0] * (n + 1)  # w's bit: on at its window's first sorted point, off after
        earlier = compress(range(a), bin(nonempty[a])[:1:-1].encode().translate(_BINARY_DIGITS))
        for w in chain(earlier, range(a, n)):
            xw = xs[w]
            r = radii[abs(xa - xw)]
            if r >= 0:
                m = xa + xw
                first, stop = bisect_left(keys, m - r), bisect_right(keys, m + r)
                if first < stop:
                    toggles[first] ^= 1 << w
                    toggles[stop] ^= 1 << w
                    nonempty[w] |= 1 << a
        rows = list(accumulate(toggles, xor))  # sorted point -> the w whose window holds it
        for b, p in enumerate(pos):
            row = rows[p]
            if row:
                ws = compress(vals, bin(row)[:1:-1].encode().translate(_BINARY_DIGITS))
                yield from zip(repeat(va), ws, repeat(vals[b]))

    return Witnesses(found, islice(chain.from_iterable(map(block, range(n))), found))


def _triangle_scan(space: BMetricSpace, tol: float) -> tuple[Witnesses, float]:
    """The triangle witnesses and, for a table only, the float max ratio.

    Row-wise over w for each (a, b): lhs = d[a][w] against the threshold
    s * (d[a][b] + d[b][w]) + tol.  A row is counted in one C-level pass and
    enumerated only while the list has room.
    """
    pts, d, s = space.points, space._d, space.s
    n = len(d)
    ratios = space.metric == "table"
    witnesses, worst = Witnesses(), 0.0
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
            if found:
                witnesses.add(found, lambda: (
                    (pts[a].value, pts[w].value, pts[b].value)
                    for w in compress(range(n), map(gt, row_a, thr))))
    return witnesses, worst


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
    (_exact_scale, one O(n**2) pass on the values' dyadic grid).  Then
    D(a, w) <= S* Sigma <= s Sigma is an inequality between the floats
    themselves, with Sigma = d(a, b) + d(b, w) computed without rounding.
    Rounding to nearest is monotone and d(a, w) is a float, so fl(s Sigma)
    >= d(a, w), and adding tol >= 0 keeps the right side at least d(a, w):
    no witness.  An overflow to inf only raises the right side.

    On an exact grid where the skip does not hold (s < S*, or tol < 0) the
    witnesses are counted, not scanned (_triangle_count).  Every Sigma is
    exact, (K(a, b) + K(b, w)) * scale with integer grid distances K, and
    the scan's threshold fl(fl(s Sigma) + tol) is monotone in Sigma, so the
    scan's own test holds iff K(a, b) + K(b, w) is at most one integer
    threshold per pair (a, w).  The b that meet it are the points whose
    doubled grid value lies in one window per pair, and they are counted by
    middle point: each pair appends its window's two ends to two lists,
    sorted once, and each point counts the windows holding it with two
    bisections.  That is O(n**2 log n) in all, with no search per pair and
    lists O(n log n) long, and it gives the scan's exact count and its first
    WITNESS_CAP witnesses in its order.  The scan stays for tables, for
    inexact entries (a largest grid distance of 2**52 or more, a scale below
    2**-1022, or an entry the pow rounded) and for a NaN tol, which fails
    every comparison.
    """
    if tol is None:
        tol = default_axiom_tol(space)
    pts, d, s = space.points, space._d, space.s
    n = len(d)
    vals = [p.value for p in pts]
    identity, symmetry, triangle = Witnesses(), Witnesses(), Witnesses()
    for a in range(n):
        if d[a][a] > tol:
            identity.add(1, [(vals[a], vals[a])])
    for a in range(n):
        for b in range(a + 1, n):
            dab, dba = d[a][b], d[b][a]
            if dab <= tol:
                identity.add(1, [(vals[a], vals[b])])
            if abs(dab - dba) > tol:
                symmetry.add(1, [(vals[a], vals[b])])

    if space.metric == "table":
        triangle, worst = _triangle_scan(space, tol)
        min_feasible_s = max(worst, 1.0)
    else:
        # the value grid is built only where it is read: S* for squared-difference, the exact pass
        grid, (num, den) = None, (1, 1)
        if space.metric == "squared-difference":
            grid = _value_grid(vals)
            num, den = _squared_sup(sorted(set(grid[0])))
        min_feasible_s = num / den
        s_num, s_den = s.as_integer_ratio()
        bound = math.ldexp(space._dmax, -49) + math.ldexp(s + 1, -1072)
        covered = s_num * den >= num * s_den
        # cheapest first: the exact comparison, the bound, then one O(n**2) pass
        if not (covered and tol > bound):
            xs, q = grid or _value_grid(vals)
            scale = None if math.isnan(tol) else _exact_scale(space, xs, q)
            if scale is None:
                triangle, _ = _triangle_scan(space, tol)
            elif not (covered and tol >= 0):
                triangle = _triangle_count(space, xs, scale, tol)
    return AxiomReport(
        identity_ok=not identity.count,
        symmetry_ok=not symmetry.count,
        triangle_ok=not triangle.count,
        min_feasible_s=min_feasible_s,
        s=s,
        tol=tol,
        identity_witness_count=identity.count,
        identity_witnesses=identity.kept,
        symmetry_witness_count=symmetry.count,
        symmetry_witnesses=symmetry.kept,
        triangle_witness_count=triangle.count,
        triangle_witnesses=triangle.kept,
    )
