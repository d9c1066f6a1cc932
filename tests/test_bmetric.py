import bisect
import itertools
import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix import bmetric
from relfix.bmetric import (
    WITNESS_CAP,
    AxiomReport,
    BMetricSpace,
    Point,
    UnknownPointError,
    distance,
    verify_bmetric_axioms,
)
from relfix.contraction import Potential, SelfMap
from relfix.relation import BinaryRelation, find_path, related

from conftest import example_space


def brute_min_feasible_s(space):
    # independent oracle: direct scan of every ordered triple
    worst = 1.0
    for a, b, w in itertools.product(space.points, repeat=3):
        den = distance(space, a, b) + distance(space, b, w)
        if den > 0:
            worst = max(worst, distance(space, a, w) / den)
    return worst


def test_squared_difference_distance():
    space = example_space()
    assert distance(space, space.point_by_value(2), space.point_by_value(4)) == 4.0
    assert distance(space, space.point_by_value(3), space.point_by_value(3)) == 0.0


def test_absolute_difference_distance():
    space = example_space(metric="absolute-difference", s=1.0)
    assert distance(space, space.point_by_value(2), space.point_by_value(4)) == 2.0


def test_unknown_point_rejected():
    space = example_space()
    with pytest.raises(UnknownPointError):
        space.point(7)
    with pytest.raises(UnknownPointError):
        space.point_by_value(2.5)


def test_s_below_one_rejected():
    with pytest.raises(ValueError, match="s >= 1"):
        BMetricSpace.from_values([1, 2], s=0.5)


def test_axioms_pass_at_s2():
    rep = verify_bmetric_axioms(example_space(s=2.0))
    assert rep.all_ok
    assert rep.min_feasible_s == 2.0


def test_triangle_fails_at_s1_with_witness():
    rep = verify_bmetric_axioms(example_space(s=1.0))
    assert rep.identity_ok and rep.symmetry_ok
    assert not rep.triangle_ok
    # d(1,3) = 4 > 1 * (d(1,2) + d(2,3)) = 2
    assert (1.0, 3.0, 2.0) in rep.triangle_witnesses


def test_min_feasible_s_matches_brute_force():
    space = example_space()
    assert verify_bmetric_axioms(space).min_feasible_s == brute_min_feasible_s(space) == 2.0


def forbid_triangle_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("the triangle scan ran")
    monkeypatch.setattr(bmetric, "_triangle_scan", scan)


def test_absolute_difference_chain_skips_the_triangle_scan(monkeypatch):
    # a 40-point descending chain with steps 0.5 * 0.9**k, as in the benchmark
    values = [1.25]
    for k in range(39):
        values.append(values[-1] + 0.5 * 0.9 ** k)
    space = BMetricSpace.from_values(values, metric="absolute-difference", s=1.0)
    forbid_triangle_scan(monkeypatch)
    grids = count_calls(monkeypatch, "_value_grid")
    rep = verify_bmetric_axioms(space)
    assert rep.all_ok and rep.min_feasible_s == 1.0
    # S* is 1 and the bound covers the default tol, so no value grid is built
    assert not grids


def test_squared_difference_at_its_sup_skips_the_triangle_scan(monkeypatch):
    forbid_triangle_scan(monkeypatch)
    grids = count_calls(monkeypatch, "_value_grid")
    rep = verify_bmetric_axioms(example_space(s=2.0))
    assert rep.all_ok and rep.min_feasible_s == 2.0
    assert len(grids) == 1  # read by S* only


def count_calls(monkeypatch, name):
    calls = []
    fn = getattr(bmetric, name)

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(bmetric, name, counting)
    return calls


@pytest.mark.parametrize("s, tol, counts", [
    # S* = 2 and M = 8464, above what the rounding bound covers at tol = 1e-12
    (2.0, None, 0),
    (2.0, 0.0, 0),
    (2.0, -0.0, 0),
    # below S*, or tol < 0: the witnesses are counted, not scanned
    (math.nextafter(2.0, 0.0), None, 1),
    (2.0, -1e-12, 1),
])
def test_exact_integer_grid_skips_the_triangle_scan(monkeypatch, s, tol, counts):
    scans = count_calls(monkeypatch, "_triangle_scan")
    exact_counts = count_calls(monkeypatch, "_triangle_count")
    grids = count_calls(monkeypatch, "_value_grid")
    rep = verify_bmetric_axioms(BMetricSpace.from_values(range(0, 96, 4), s=s), tol)
    assert len(scans) == 0
    assert len(exact_counts) == counts
    assert len(grids) == 1  # S* and the exact pass read one grid
    assert rep.triangle_ok == (tol is None or tol >= 0)


@pytest.mark.parametrize("space, tol", [
    (BMetricSpace.from_values(range(3), metric="table", table=(
        (0.0, 1.0, 4.0), (1.0, 0.0, 1.0), (4.0, 1.0, 0.0))), None),
    # entries past 2**53 grid units round, so they are not exact
    (BMetricSpace.from_values([0, 60498377, 182980516], s=1.0), None),
    # exact entries, but a NaN tol fails every comparison
    (BMetricSpace.from_values(range(0, 96, 4), s=1.0), math.nan),
])
def test_tables_and_inexact_grids_keep_the_triangle_scan(monkeypatch, space, tol):
    scans = count_calls(monkeypatch, "_triangle_scan")
    exact_counts = count_calls(monkeypatch, "_triangle_count")
    verify_bmetric_axioms(space, tol)
    assert len(scans) == 1
    assert len(exact_counts) == 0


def test_table_metric_report_carries_failures():
    # asymmetric, nonzero-diagonal table: the verifier reports, not raises
    table = ((0.0, 1.0), (2.0, 3.0))
    space = BMetricSpace.from_values([0, 1], metric="table", table=table, s=1.0)
    rep = verify_bmetric_axioms(space)
    assert not rep.identity_ok
    assert not rep.symmetry_ok
    assert rep.tol == 0.0  # exact for explicit tables


def test_bad_table_shapes_rejected():
    with pytest.raises(ValueError):
        BMetricSpace.from_values([0, 1], metric="table", table=((0.0, 1.0),))
    with pytest.raises(ValueError):
        BMetricSpace.from_values([0, 1], metric="table", table=((0.0, -1.0), (-1.0, 0.0)))


# point values up to this magnitude keep every distance finite; past it a
# difference or its square can overflow
FINITE_BOUND = {"squared-difference": 6e153, "absolute-difference": 8e307}


@given(st.sampled_from(["squared-difference", "absolute-difference"]), st.data())
def test_symmetry_and_zero_diagonal(metric, data):
    # verify_bmetric_axioms reads a formula metric's symmetry off this property
    bound = FINITE_BOUND[metric]
    values = data.draw(st.lists(st.floats(-bound, bound), min_size=1, max_size=8))
    space = BMetricSpace.from_values(values, metric=metric, s=4.0)
    for a in space.points:
        assert distance(space, a, a) == 0.0
        for b in space.points:
            assert distance(space, a, b) == distance(space, b, a)


@given(st.lists(st.integers(-20, 20), min_size=2, max_size=6, unique=True))
def test_min_feasible_s_is_the_triangle_boundary(values):
    space = BMetricSpace.from_values(values, metric="squared-difference", s=1.0)
    mfs = verify_bmetric_axioms(space).min_feasible_s
    at = BMetricSpace.from_values(values, metric="squared-difference", s=mfs)
    assert verify_bmetric_axioms(at).triangle_ok
    if mfs > 1.0 + 1e-9:
        below = BMetricSpace.from_values(values, metric="squared-difference",
                                         s=mfs * (1 - 1e-6))
        assert not verify_bmetric_axioms(below, tol=0.0).triangle_ok


@given(st.lists(st.integers(-20, 20), min_size=1, max_size=6, unique=True),
       st.floats(min_value=1.0, max_value=10.0))
def test_triangle_monotone_in_s(values, s_big):
    base = BMetricSpace.from_values(values, metric="absolute-difference", s=1.0)
    if verify_bmetric_axioms(base).triangle_ok:
        bigger = BMetricSpace.from_values(values, metric="absolute-difference", s=s_big)
        assert verify_bmetric_axioms(bigger).triangle_ok


# -- equivalence with the per-triple scan the distance matrix replaced ----------

def formula_distance(space, a, b):
    # d(a, b) evaluated from the space's definition on every call
    if space.metric == "squared-difference":
        return (t := space.points[a].value - space.points[b].value) * t
    if space.metric == "absolute-difference":
        return abs(space.points[a].value - space.points[b].value)
    return space.table[a][b]


def reference_axioms(space, tol=None):
    """Per-triple reference scan: itertools.product order, formula distances, full lists."""
    if tol is None:
        tol = 1e-12 if space.metric != "table" else 0.0
    rep = AxiomReport(True, True, True, 1.0, space.s, tol)
    pts = space.points

    def d(a, b):
        return formula_distance(space, a.id, b.id)

    for a in pts:
        if d(a, a) > tol:
            rep.identity_ok = False
            rep.identity_witnesses.append((a.value, a.value))
    for a, b in itertools.combinations(pts, 2):
        dab, dba = d(a, b), d(b, a)
        if dab <= tol:
            rep.identity_ok = False
            rep.identity_witnesses.append((a.value, b.value))
        if abs(dab - dba) > tol:
            rep.symmetry_ok = False
            rep.symmetry_witnesses.append((a.value, b.value))
    worst = 0.0
    for a, b, w in itertools.product(pts, repeat=3):
        lhs = d(a, w)
        rhs = d(a, b) + d(b, w)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
        if lhs > space.s * rhs + tol:
            rep.triangle_ok = False
            rep.triangle_witnesses.append((a.value, w.value, b.value))
    rep.min_feasible_s = max(worst, 1.0) if len(pts) > 1 else 1.0
    return rep


s_coeffs = st.one_of(st.integers(1, 4).map(float), st.floats(min_value=1.0, max_value=4.0))


@st.composite
def formula_spaces(draw):
    # repeated values give zero off-diagonal distances
    values = draw(st.lists(st.one_of(st.integers(-30, 30).map(float),
                                     st.floats(min_value=-1e3, max_value=1e3)),
                           min_size=1, max_size=7))
    metric = draw(st.sampled_from(["squared-difference", "absolute-difference"]))
    return BMetricSpace.from_values(values, metric=metric, s=draw(s_coeffs))


@st.composite
def extreme_formula_spaces(draw):
    # distances stay finite but d(a, b) + d(b, w) may overflow to inf
    metric = draw(st.sampled_from(["squared-difference", "absolute-difference"]))
    bound = FINITE_BOUND[metric]
    values = draw(st.lists(st.one_of(st.sampled_from([-bound, 0.0, bound]),
                                     st.floats(min_value=-bound, max_value=bound)),
                           min_size=1, max_size=6))
    return BMetricSpace.from_values(values, metric=metric, s=draw(s_coeffs))


@st.composite
def table_spaces(draw):
    # asymmetric, zero off-diagonal, nonzero diagonal and integer entries all occur
    n = draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.integers(0, 5), st.floats(min_value=0.0, max_value=10.0))
    table = tuple(tuple(draw(entry) for _ in range(n)) for _ in range(n))
    return BMetricSpace.from_values(range(n), metric="table", table=table, s=draw(s_coeffs))


def exact_min_feasible_s(space):
    """Exact sup of D(a, w) / (D(a, b) + D(b, w)) over value triples, rounded once, at least 1."""
    vals = [Fraction(p.value) for p in space.points]
    if space.metric == "squared-difference":
        def dist(x, y):
            return (x - y) ** 2
    else:
        def dist(x, y):
            return abs(x - y)
    worst = Fraction(1)
    for a, b, w in itertools.product(vals, repeat=3):
        den = dist(a, b) + dist(b, w)
        if den:
            worst = max(worst, dist(a, w) / den)
    return float(worst)


@st.composite
def tie_heavy_spaces(draw):
    # near-ties: integers nudged by 1e-9 or 2**-40, and subnormal gaps, with s
    # at the exact sup, one ulp above it, or a fixed coefficient
    offset = st.sampled_from([0.0, 1e-9, -1e-9, 2.0 ** -40, -(2.0 ** -40)])
    near_int = st.builds(lambda k, o: k + o, st.integers(-40, 40), offset)
    subnormal = st.integers(-6, 6).map(lambda k: k * 2.0 ** -1074)
    values = draw(st.one_of(st.lists(near_int, min_size=2, max_size=7),
                            st.lists(st.one_of(near_int, subnormal), min_size=1, max_size=7)))
    metric = draw(st.sampled_from(["squared-difference", "absolute-difference"]))
    s_star = exact_min_feasible_s(BMetricSpace.from_values(values, metric=metric))
    s = draw(st.sampled_from([s_star, s_star * (1 + 2.0 ** -52), 1.0, 2.0, 4.0]))
    return BMetricSpace.from_values(values, metric=metric, s=s)


@st.composite
def grid_spaces(draw):
    # integer and dyadic grids k / 2**m, with spans in grid units around where
    # 2 * (largest entry) reaches 2**53 (2**26 squared, 2**52 absolute) and past
    # it, and s at the exact sup or one ulp below it
    metric = draw(st.sampled_from(["squared-difference", "absolute-difference"]))
    edge = 26 if metric == "squared-difference" else 52
    span = draw(st.one_of(st.integers(1, 100),
                          st.integers(-3, 3).map(lambda k: 2 ** edge + k),
                          st.integers(2 ** edge, 2 ** (edge + 2))))
    inner = draw(st.lists(st.one_of(st.integers(0, span), st.just(span // 2)), max_size=4))
    base, m = draw(st.integers(-50, 50)), draw(st.sampled_from([0, 1, 7]))
    values = [(base + x) / 2 ** m for x in [0, span, *inner]]
    s_star = exact_min_feasible_s(BMetricSpace.from_values(values, metric=metric))
    s = draw(st.sampled_from([s_star, max(1.0, math.nextafter(s_star, 0.0))]))
    return BMetricSpace.from_values(values, metric=metric, s=s)


@settings(max_examples=300, deadline=None)
# s < S*, where a large tol alone does not rule out a witness
@example(BMetricSpace.from_values([1, 2, 3, 4], s=1.0), 0.5)
# s = S* and tol above 2**-53 * M: float rounding still yields a witness, so the
# skip bound must stay near its derived 2**-49 * M
@example(BMetricSpace.from_values([-39.0, -18.000000001, 32.999999999],
                                  s=1.7041420118105108), 1e-12)
# above the cap: 2 * C(12, 3) = 440 triangle witnesses, b strictly between a and w
@example(BMetricSpace.from_values(range(12), s=1.0), None)
# zero above the diagonal, one below: 276 identity and 276 symmetry witnesses
@example(BMetricSpace.from_values(range(24), metric="table", table=tuple(
    tuple(float(a > b) for b in range(24)) for a in range(24))), None)
# the fixed-points workload's shape: M = 8464 defeats the rounding bound, so only
# the exact-entry clause skips the scan
@example(BMetricSpace.from_values(range(0, 96, 4), s=2.0), 1e-12)
# the same space with tol < 0 must scan: every b at the midpoint of a and w is a witness
@example(BMetricSpace.from_values(range(0, 96, 4), s=2.0), -1e-12)
# entries past 2**53 grid units round, and the scan finds witnesses at s >= S*
@example(BMetricSpace.from_values([0, 60498377, 182980516], s=1.7941270187635463), 0.0)
@example(BMetricSpace.from_values([0, 1, 2 ** 53 + 2], metric="absolute-difference"), 0.0)
# the witness workload's shape: 30 integers with a three-term progression, s = 1;
# 8,120 witnesses, far above the cap
@example(BMetricSpace.from_values(
    [0, 10, 12, 13, 14, 15, 28, 30, 36, 40, 53, 56, 62, 64, 65, 70, 71, 73, 75, 76,
     78, 79, 82, 93, 96, 98, 99, 100, 102, 110], s=1.0), None)
# every triple is a witness; with a = w = 0 and b = 7 the sum d(a, b) + d(b, w) is
# twice the largest distance, so the count's threshold must reach that far
@example(BMetricSpace.from_values([0, 1, 3, 7], s=1.0), -1e3)
# ids out of value order, with repeated values
@example(BMetricSpace.from_values([5, -3, 5, 0, 2, -3, 7, 1, 0], s=1.0), None)
# a k/8 dyadic grid
@example(BMetricSpace.from_values([k / 8 for k in (3, -11, 0, 7, 20, 5, -2)], s=1.5), None)
# absolute-difference on a k/8 grid: at tol = -0.5 the b in [a, w] or one grid
# unit outside it are witnesses, and none further out
@example(BMetricSpace.from_values([k / 8 for k in (3, 0, 7, 1, 4, 4, 9, -2, 12)],
                                  metric="absolute-difference"), -0.5)
# sparse: 84 witnesses, only at exact midpoints, spread over 35 of 40 a-blocks
@example(BMetricSpace.from_values(
    [197, 388, 215, 20, 132, 261, 248, 207, 155, 244, 183, 298, 111, 258, 71, 144, 386,
     48, 316, 128, 272, 361, 308, 75, 158, 50, 373, 37, 350, 169, 241, 286, 51, 181,
     222, 161, 312, 327, 104, 282], s=math.nextafter(2.0, 0.0)), 0.0)
# 2 * C(9, 3) = 168 witnesses, below the cap: the listing ends in the last id's
# block (value 5, an end of the triple (5, 3, 0)) and must stop at the count
@example(BMetricSpace.from_values([4, 8, 1, 6, 0, 3, 7, 2, 5], s=1.0), None)
# tol < 0: the a = w windows hold b = a, its repeated value and its neighbours
@example(BMetricSpace.from_values([0, 1, 2, 1, 5], s=1.0), -3.0)
# one and two points: S* is 1, so only a tol < 0 takes the count
@example(BMetricSpace.from_values([7], s=1.0), -1.0)
@example(BMetricSpace.from_values([0, 3], s=1.0), -10.0)
@example(BMetricSpace.from_values([0, 3], metric="absolute-difference"), -1.0)
# a formula metric at tol < 0: all 276 pairs a < b are symmetry witnesses, listed
# in (a, b) order up to the cap
@example(BMetricSpace.from_values([k / 10 for k in range(24)], s=1.0), -1e-12)
# off-diagonal identity witnesses at tol >= 0: two points 1e-7 apart, 1e-14 squared
@example(BMetricSpace.from_values([3.0, 0.5, 2.0, 0.5 + 1e-7, 0.5 - 1e-7], s=2.0), None)
# n = 64: about 2,000 windows against a flush size of 2 * 64 * 6 = 768, so the
# window lists are counted and cleared twice before the last count
@example(BMetricSpace.from_values([(k * 37) % 101 for k in range(64)], s=1.5), None)
@given(st.one_of(formula_spaces(), extreme_formula_spaces(), table_spaces(),
                 tie_heavy_spaces(), grid_spaces()),
       st.sampled_from([None, 0.0, -0.0, 1e-15, 1e-12, -1e-12, 1e-9, 0.5, -0.5, -1e3,
                        math.inf, -math.inf, math.nan]))
def test_axiom_scan_matches_per_triple_reference(space, tol):
    n = len(space)
    for a in range(n):
        for b in range(n):
            assert distance(space, a, b) == formula_distance(space, a, b)
    got, want = verify_bmetric_axioms(space, tol), reference_axioms(space, tol)
    if space.metric != "table":
        # the reference's float max of ratios is off by rounding; the sup is exact
        assert got.min_feasible_s == exact_min_feasible_s(space)
        want.min_feasible_s = got.min_feasible_s
    for kind in ("identity", "symmetry", "triangle"):
        full = getattr(want, f"{kind}_witnesses")
        assert getattr(got, f"{kind}_witness_count") == len(full)
        assert getattr(got, f"{kind}_witnesses") == full[:WITNESS_CAP]
        setattr(want, f"{kind}_witness_count", len(full))
        setattr(want, f"{kind}_witnesses", full[:WITNESS_CAP])
    assert got == want


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 400), st.integers(0, 400),
       st.sampled_from([0, 3, 40, 1022]),
       st.one_of(s_coeffs, st.sampled_from([1e300, 1.7976931348623157e308])),
       st.one_of(st.sampled_from([0.0, -0.0, 1e-12, -1e-12, -1e3, math.inf, -math.inf]),
                 st.floats(-500, 500)))
def test_the_scan_test_holds_on_a_prefix_of_sums(k, k_max, e, s, tol):
    # the scan's test on a grid sum j * scale, and the count's search for its last j
    scale = math.ldexp(1.0, -e)
    dv = k * scale

    def hit(j):
        return dv > s * (j * scale) + tol

    passing = [j for j in range(k_max + 1) if hit(j)]
    assert passing == list(range(len(passing)))
    assert bmetric._last_hit(hit, (dv - tol) / s / scale, k_max) == len(passing) - 1


@given(st.integers(0, 2 ** 53), st.data(),
       st.one_of(st.floats(allow_nan=False), st.integers(-5, 2 ** 54).map(float)))
def test_last_hit_finds_the_prefix_end_from_any_guess(k_max, data, guess):
    end = data.draw(st.integers(-1, k_max))
    calls = []

    def hit(k):
        calls.append(k)
        return k <= end

    assert bmetric._last_hit(hit, guess, k_max) == end
    assert all(0 <= k <= k_max for k in calls)
    assert len(calls) <= 2 * math.log2(k_max + 2) + 2


def test_identity_and_symmetry_witnesses_are_counted_while_scanning():
    # zero above the diagonal, one below: every pair a < b is an identity and a
    # symmetry witness
    table = tuple(tuple(float(a > b) for b in range(24)) for a in range(24))
    rep = verify_bmetric_axioms(BMetricSpace.from_values(range(24), metric="table", table=table))
    pairs = [(float(a), float(b)) for a, b in itertools.combinations(range(24), 2)]
    assert rep.identity_witness_count == rep.symmetry_witness_count == len(pairs) == 276
    assert rep.identity_witnesses == rep.symmetry_witnesses == pairs[:WITNESS_CAP]
    assert not rep.identity_ok and not rep.symmetry_ok


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6))
# pow gives 576.000000048 on some libms; the correctly rounded square is 576.0000000480001
@example([24.000000001, 0.0])
def test_formula_entries_are_correctly_rounded(values):
    def exact_square(t):
        return float(Fraction(t) ** 2)  # raises OverflowError past the float range

    for metric, entry in (("squared-difference", exact_square), ("absolute-difference", abs)):
        try:
            want = [[entry(va - vb) for vb in values] for va in values]
        except OverflowError:
            want = None
        if want is None or not all(map(math.isfinite, itertools.chain(*want))):
            with pytest.raises(ValueError, match="not a finite float"):
                BMetricSpace.from_values(values, metric=metric)
        else:
            assert BMetricSpace.from_values(values, metric=metric)._d == tuple(map(tuple, want))


def test_exact_scale_checks_the_lower_triangle_by_symmetry():
    # _exact_scale reads no entry: the lower triangle is K * scale because each
    # entry there is the upper one, bit for bit ((-t) * (-t) = t * t, abs is even)
    for metric in ("squared-difference", "absolute-difference"):
        space = BMetricSpace.from_values([0, 1, 3, 0.5, -2.25], metric=metric)
        xs, q = bmetric._value_grid([p.value for p in space.points])
        scale = bmetric._exact_scale(space, xs, q)
        assert scale == (0.0625 if metric == "squared-difference" else 0.25)
        d = space._d
        for a, b in itertools.combinations(range(len(xs)), 2):
            assert d[b][a].hex() == d[a][b].hex()
            k = (xs[b] - xs[a]) ** 2 if metric == "squared-difference" else abs(xs[b] - xs[a])
            assert Fraction(d[b][a]) == k * Fraction(scale)


@pytest.mark.parametrize("metric, values, scale", [
    # 2 * (largest entry) must stay below 2**53 grid units
    ("absolute-difference", [0, 2 ** 52 - 1], 1.0),
    ("absolute-difference", [0, 2 ** 52], None),
    ("absolute-difference", [-1, 2 ** 53], None),
    ("squared-difference", [0, 2 ** 26 - 1], 1.0),
    ("squared-difference", [0, 2 ** 26], None),
    # the scale must be at least 2**-1022
    ("absolute-difference", [0, 2.0 ** -1022], 2.0 ** -1022),
    ("absolute-difference", [0, 2.0 ** -1023], None),
    ("absolute-difference", [0, 3, 2.0 ** -1074], None),
    ("squared-difference", [0, 2.0 ** -511], 2.0 ** -1022),
    ("squared-difference", [0, 2.0 ** -512], None),
    ("squared-difference", [0.5, 2.0 ** -600], None),
])
def test_exact_scale_is_a_range_test(metric, values, scale):
    space = BMetricSpace.from_values(values, metric=metric)
    xs, q = bmetric._value_grid([p.value for p in space.points])
    assert bmetric._exact_scale(space, xs, q) == scale


@given(st.sampled_from(["squared-difference", "absolute-difference"]), st.data())
def test_every_entry_on_an_exact_grid_is_k_times_the_scale(metric, data):
    # grid values X / 2**m with spans just inside the range test, on coarse
    # grids and on the finest ones it admits
    squared = metric == "squared-difference"
    half = 2 ** (25 if squared else 51) - 1
    finest = 511 if squared else 1022
    m = data.draw(st.one_of(st.integers(0, 8), st.integers(finest - 8, finest)))
    grid = data.draw(st.lists(st.one_of(st.integers(-half, half), st.sampled_from([-half, half])),
                              min_size=1, max_size=7))
    space = BMetricSpace.from_values([math.ldexp(x, -m) for x in grid], metric=metric)
    xs, q = bmetric._value_grid([p.value for p in space.points])
    scale = bmetric._exact_scale(space, xs, q)
    assert scale is not None
    d = space._d
    for a, b in itertools.product(range(len(xs)), repeat=2):
        k = (xs[a] - xs[b]) ** 2 if squared else abs(xs[a] - xs[b])
        assert Fraction(d[a][b]) == k * Fraction(scale)
        for w in range(len(xs)):
            assert Fraction(d[a][b] + d[b][w]) == Fraction(d[a][b]) + Fraction(d[b][w])


def test_the_triangle_count_keeps_its_window_lists_short():
    # 320 points give about 51,000 windows, near 4 MB held at once; flushed,
    # the lists and a listed block stay well under 1 MB
    space = BMetricSpace.from_values(range(320), s=1.0)
    xs, q = bmetric._value_grid([p.value for p in space.points])
    scale = bmetric._exact_scale(space, xs, q)
    tracemalloc.start()
    try:
        found = bmetric._triangle_count(space, xs, scale, 1e-12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found.count == 2 * math.comb(320, 3)
    assert peak < 1_000_000


# -- what a lookup table could silently change ----------------------------------

def test_out_of_range_ids_still_raise():
    space = example_space()
    for a, b in ((-1, 0), (0, -1), (4, 0), (0, 4), (-5, -5)):
        with pytest.raises(UnknownPointError):
            distance(space, a, b)


ID_SPACE = BMetricSpace.from_values([0, 1, 3])
ID_RELATION = BinaryRelation({(2, 0), (2, 1), (1, 0)})
ID_LOOKUPS = {
    "distance": lambda x: distance(ID_SPACE, x, 0),
    "related": lambda x: related(ID_RELATION, 2, x),
    "successors": lambda x: ID_RELATION.successors(x),
    "find_path": lambda x: find_path(ID_RELATION, x, 0),
    "map": lambda x: SelfMap({0: 1, 1: 2, 2: 2})(x),
    "potential": lambda x: Potential({0: 0.0, 1: 1.0, 2: 4.0})(x),
}


@pytest.mark.parametrize("lookup", sorted(ID_LOOKUPS))
def test_lookups_reject_non_integral_ids(lookup):
    fn = ID_LOOKUPS[lookup]
    # int() would truncate each of these and name another point
    for x in (2.5, 1.7, 0.2, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be integers"):
            fn(x)
    for i in range(3):
        assert fn(float(i)) == fn(ID_SPACE.points[i]) == fn(i)
    assert fn(True) == fn(1) and fn(False) == fn(0)


@pytest.mark.parametrize("metric, values", [
    ("absolute-difference", [-1e308, 1e308]),
    ("squared-difference", [-1e154, 1e154]),
    ("squared-difference", [0.0, 1e200]),
])
def test_non_finite_distances_rejected(metric, values):
    with pytest.raises(ValueError, match="not a finite float"):
        BMetricSpace.from_values(values, metric=metric)


def test_point_by_value_keeps_its_tolerance():
    space = BMetricSpace.from_values([1.0, 2.0, 3.0])
    assert space.point_by_value(2.0 + 5e-13).id == 1
    assert space.point_by_value(2).id == 1
    with pytest.raises(UnknownPointError):
        space.point_by_value(2.0 + 1e-9)


def test_point_by_value_near_duplicates_resolve_to_first_id():
    space = BMetricSpace.from_values([5.0, 1.0, 1.0 + 5e-13, 1.0])
    # both 1.0 and 1.0 + 5e-13 lie within VALUE_ATOL of each other: id order wins
    assert space.point_by_value(1.0 + 5e-13).id == 1
    assert space.point_by_value(1.0).id == 1


def point_by_value_scan(space, value):
    """Reference: the linear scan over ids that the sorted index replaced."""
    return next((p for p in space.points if abs(p.value - value) <= bmetric.VALUE_ATOL), None)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=8),
    st.sampled_from([0.0, 1.0, -7.5, 1e3]),
    st.sampled_from([5e-13, 1e-12, 1e-12 * (1 + 2**-40), 1e-12 * (1 - 2**-40), 2e-12]),
)
def test_point_by_value_matches_the_linear_scan(steps, base, spacing):
    # repeated steps are ties, and neighbours sit about 1e-12 apart
    space = BMetricSpace.from_values([base + k * spacing for k in steps])
    queries = [math.nan, math.inf]
    for p in space.points:
        for offset in (0.0, 1e-12, -1e-12, spacing / 2, -spacing / 2):
            v = p.value + offset
            queries += [v, math.nextafter(v, math.inf), math.nextafter(v, -math.inf)]
    for value in queries:
        expected = point_by_value_scan(space, value)
        if expected is None:
            with pytest.raises(UnknownPointError):
                space.point_by_value(value)
        else:
            assert space.point_by_value(value) == expected


def point_by_value_bisect(space, value):
    """Reference: the bisect over the sorted values, with no exact-value index."""
    keys, pts, atol = *space._by_value, bmetric.VALUE_ATOL
    lo = hi = bisect.bisect_left(keys, value)
    while lo > 0 and abs(keys[lo - 1] - value) <= atol:
        lo -= 1
    while hi < len(keys) and abs(keys[hi] - value) <= atol:
        hi += 1
    return min(pts[lo:hi], key=lambda p: p.id, default=None)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, 1.0 + 5e-13, 1.0 + 1e-12,
                                           1.0 + 2e-12, -2.5, 1e6]),
                          st.floats(-4.0, 4.0)), min_size=1, max_size=8))
@example([1.0, 2.0, 3.0])               # spread: the index answers exact hits
@example([0.0, -0.0, 1.0])              # 0.0 and -0.0 are one value: no index
@example([1.0, 1.0 + 5e-13, 3.0])       # within VALUE_ATOL: no index
@example([-0.0, 1.0, 1.0 + 2e-12])      # just above VALUE_ATOL apart: an index
def test_value_index_agrees_with_the_bisect_path(values):
    space = BMetricSpace.from_values(values)
    ordered = sorted(values)
    spread = all(hi - lo > bmetric.VALUE_ATOL for lo, hi in zip(ordered, ordered[1:]))
    assert (space._exact is not None) == spread
    queries = [math.nan, math.inf, -math.inf]
    for v in values:
        for offset in (0.0, -0.0, 5e-13, -5e-13, bmetric.VALUE_ATOL, -bmetric.VALUE_ATOL, 1e-6):
            q = v + offset
            queries += [q, -q, math.nextafter(q, math.inf), math.nextafter(q, -math.inf)]
    for value in queries:
        expected = point_by_value_bisect(space, value)
        if expected is None:
            with pytest.raises(UnknownPointError):
                space.point_by_value(value)
        else:
            assert space.point_by_value(value) is expected


def test_caches_are_not_fields():
    a = BMetricSpace.from_values([1, 2, 3], s=2.0)
    b = BMetricSpace.from_values([1, 2, 3], s=2.0)
    assert a == b and hash(a) == hash(b)
    assert a != BMetricSpace.from_values([1, 2, 4], s=2.0)
    assert list(BMetricSpace._fields) == [
        "points", "metric", "table", "s"]
    assert "_d" not in repr(a)
    assert a._dmax == max(map(max, a._d)) == 4.0
