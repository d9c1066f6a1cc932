import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix.bmetric import WITNESS_CAP, BMetricSpace, distance
from relfix.relation import BinaryRelation, build_relation_report
from relfix.contraction import (
    ContractionProblem,
    Potential,
    SelfMap,
    compute_mfr,
    linear_lambda_threshold,
    verify_all_hypotheses,
    verify_contraction,
    verify_uniqueness_condition,
)
from relfix.simulation import SimulationFunction, evaluate

from conftest import (example_map, example_potential, example_problem, example_relation,
                      example_space, value_relation)
from instance_gen import random_problem
from ledger_reference import (assert_verdict_matches, reference_active_rows,
                              reference_ledger as column_ledger, reference_row)


def brute_force_ledger(problem):
    """Independent oracle: recompute every active pair's arguments from raw formulas."""
    space, R, F, phi = problem.space, problem.relation, problem.map, problem.potential

    def square(x):
        return x * x  # the correctly rounded square, as the space squares

    out = {}
    for a, b in sorted(R.pairs):
        pa, pb = space.point(a), space.point(b)
        if square(pa.value - space.point(F(pa)).value) > 0:
            t = space.s * square(space.point(F(pa)).value - space.point(F(pb)).value)
            s_arg = (phi(pa) - phi(F(pa))) * square(pa.value - pb.value)
            out[(pa.value, pb.value)] = (t, s_arg)
    return out


def reference_ledger(problem, tol):
    """Per-pair reference: one tuple of every ledger quantity, and the row's verdict.

    Reads each pair through distance(), the map, the potential and evaluate().
    """
    space, F, phi, zeta = problem.space, problem.map, problem.potential, problem.zeta
    rows, ok = [], []
    for a, b in problem.relation.sorted_pairs():
        pa, pb = space.point(a), space.point(b)
        d_self = distance(space, pa, F(pa))
        d_pair = distance(space, pa, pb)
        d_image = distance(space, F(pa), F(pb))
        t = space.s * d_image
        s_arg = (phi(pa) - phi(F(pa))) * d_pair
        value = evaluate(zeta, t, s_arg) if d_self > 0 and t >= 0 and s_arg >= 0 else None
        rows.append((pa.value, pb.value, d_self, d_pair, d_image, s_arg, value))
        ok.append(not d_self > 0 or (value is not None and value >= -tol))
    return rows, ok


def assert_columns_match_reference(problem, tol):
    """The column ledger against the per-pair reference, and the verdict against both."""
    verdict, ledger = verify_contraction(problem, tol), column_ledger(problem, tol)
    rows, ok = reference_ledger(problem, tol)
    columns = list(zip(ledger["sigma"], ledger["rho"], ledger["d_sigma_fsigma"],
                       ledger["d_pair"], ledger["d_image_pair"], ledger["s_arg"],
                       ledger["zeta_value"]))
    # repr tells -0.0 from 0.0: the columns must be bit-identical to the reference
    assert repr(columns) == repr(rows)
    assert ledger["failing"] == [i for i, passed in enumerate(ok) if not passed]
    assert verdict.failing_count == len(ledger["failing"])
    assert verdict.ok is all(ok)
    assert len(verdict.active_rows) == verdict.active_count == sum(r[2] > 0 for r in rows)
    assert (verdict.s, verdict.tol) == (problem.space.s, tol)
    assert_verdict_matches(verdict, ledger)


@st.composite
def ledger_problems(draw):
    """Any relation, map and potential on a small space of any metric, so rows are
    vacuous, active with s_arg < 0, = 0 or > 0, and failing or passing."""
    n = draw(st.integers(1, 6))
    values = draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n, unique=True))
    metric = draw(st.sampled_from(["squared-difference", "absolute-difference", "table"]))
    table = None
    if metric == "table":
        # zeros off the diagonal give vacuous rows whose sigma is not fixed
        cells = st.sampled_from([0.0, 0.5, 1.0, 3.0, 1e-300])
        table = tuple(tuple(draw(st.lists(cells, min_size=n, max_size=n))) for _ in range(n))
    space = BMetricSpace.from_values(values, metric=metric, table=table,
                                     s=draw(st.sampled_from([1.0, 1.5, 2.0, 4.0])))
    ids = st.integers(0, n - 1)
    return ContractionProblem(
        space=space,
        relation=BinaryRelation(frozenset(draw(st.sets(st.tuples(ids, ids), max_size=20)))),
        map=SelfMap({i: draw(ids) for i in range(n)}),
        potential=Potential({i: draw(st.sampled_from([0.0, 1.0, 2.5, 10.0])) for i in range(n)}),
        zeta=draw(st.sampled_from([SimulationFunction(family="linear", lam=0.5),
                                   SimulationFunction(family="scaled", lam=0.5, mu=2.0)])),
    )


@pytest.mark.parametrize("tol", [0.0, 1e-9, 0.5])
def test_ledger_columns_match_per_pair_reference_on_random_problems(tol):
    rng = random.Random(20261018)
    for _ in range(100):
        assert_columns_match_reference(random_problem(rng), tol)


@settings(max_examples=300, deadline=None)
@given(ledger_problems(), st.sampled_from([0.0, 1e-9, 0.5]))
def test_ledger_columns_match_per_pair_reference(problem, tol):
    assert_columns_match_reference(problem, tol)


def integer_problem(n, pairs, mapping, phi, metric="absolute-difference", lam=0.5):
    return ContractionProblem(
        space=BMetricSpace.from_values(range(n), metric=metric, s=2.0),
        relation=BinaryRelation(pairs), map=SelfMap(mapping), potential=Potential(phi),
        zeta=SimulationFunction(family="linear", lam=lam))


# F sends every point to 0 and phi rises towards 0: every active row has s_arg < 0
NEGATIVE_DROPS = integer_problem(6, {(a, b) for a in range(6) for b in range(6) if a != b},
                                 dict.fromkeys(range(6), 0), {k: float(6 - k) for k in range(6)})
# the active rows (1, 1) and (3, 3) have t = 0 and s_arg = 0.0 and -0.0: zeta 0.0, then -0.0
SIGNED_ZERO = integer_problem(4, {(0, 0), (0, 2), (1, 1), (3, 3)}, {0: 0, 1: 0, 2: 2, 3: 2},
                              {0: 0.0, 1: 5.0, 2: 5.0, 3: 0.0}, metric="squared-difference")
# (3, 3) and (1, 1) in that order: zeta -0.0 comes first
SIGNED_ZERO_NEGATIVE_FIRST = integer_problem(4, {(1, 1), (3, 3)}, {0: 0, 1: 2, 2: 2, 3: 0},
                                             {0: 0.0, 1: 0.0, 2: 5.0, 3: 5.0})
# F is the identity: every row is vacuous
VACUOUS = integer_problem(5, {(a, b) for a in range(5) for b in range(a, 5)},
                          {k: k for k in range(5)}, dict.fromkeys(range(5), 1.0))
# F steps down and phi is flat: every active row with F sigma != F rho has
# s_arg = 0 < t and fails, 360 of the 380 active rows, more than WITNESS_CAP
MANY_FAILING = integer_problem(20, {(a, b) for a in range(20) for b in range(20)},
                               {k: max(k - 1, 0) for k in range(20)}, dict.fromkeys(range(20), 0.0))


def test_the_fold_examples_reach_their_cases():
    ledger = column_ledger(NEGATIVE_DROPS)
    active = reference_active_rows(ledger)
    assert active and all(ledger["s_arg"][i] < 0 and ledger["zeta_value"][i] is None
                          for i in active)
    assert linear_lambda_threshold(verify_contraction(NEGATIVE_DROPS)) == math.inf
    for problem, signs in ((SIGNED_ZERO, [1.0, -1.0]), (SIGNED_ZERO_NEGATIVE_FIRST, [-1.0, 1.0])):
        zetas = [z for z in column_ledger(problem)["zeta_value"] if z is not None]
        assert zetas == [0.0, 0.0] and [math.copysign(1.0, z) for z in zetas] == signs
        verdict = verify_contraction(problem)
        assert math.copysign(1.0, verdict.zeta_min) == signs[0] and not verdict.zeta_min < 0
    verdict = verify_contraction(VACUOUS)
    assert len(VACUOUS.relation) == 15 and verdict.active_count == 0 and verdict.ok
    assert (verdict.active_rows, verdict.zeta_min, verdict.lambda_threshold) == ([], math.inf, 0.0)
    verdict = verify_contraction(MANY_FAILING)
    assert verdict.failing_count == 360 > WITNESS_CAP == len(verdict.failing_rows["row"])
    assert verdict.failing_rows["row"] == column_ledger(MANY_FAILING)["failing"][:WITNESS_CAP]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1).map(lambda seed: random_problem(random.Random(seed))),
       st.sampled_from([0.0, None, 1e-3]))
@example(NEGATIVE_DROPS, None)
@example(SIGNED_ZERO, 0.0)
@example(SIGNED_ZERO_NEGATIVE_FIRST, 0.0)
@example(VACUOUS, None)
@example(MANY_FAILING, 1e-3)
def test_the_one_pass_verdict_matches_the_column_ledger(problem, tol):
    # None is the problem's default tolerance
    assert_verdict_matches(verify_contraction(problem, tol), column_ledger(problem, tol))


def traced_peak(fn, *args) -> int:
    """The peak of traced allocations, in bytes, during one call of fn."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_the_verdict_keeps_no_structure_that_grows_with_the_relation():
    # the complete relation on 160 points with every even point fixed: 25,600
    # rows, 12,800 of them active
    n = 160
    problem = integer_problem(n, {(a, b) for a in range(n) for b in range(n)},
                              {k: k - k % 2 for k in range(n)},
                              {k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)})
    bound = 128 * 1024
    assert traced_peak(verify_contraction, problem) < bound
    # the column ledger's lists exceed the bound several times over
    assert traced_peak(column_ledger, problem) > 16 * bound
    verdict = verify_contraction(problem)
    assert (verdict.active_count, verdict.failing_count, len(verdict.active_spans)) == (12800, 0, 80)


def test_compute_mfr():
    space = example_space()
    mfr = compute_mfr(space, example_relation(space), example_map(space))
    assert sorted(p.value for p in mfr) == [1.0, 2.0, 3.0]
    assert compute_mfr(space, BinaryRelation(frozenset()), example_map(space)) == []


def test_potential_rejects_negative_values():
    with pytest.raises(ValueError, match="codomain"):
        Potential({0: 1.0, 1: -1.0})



def test_map_rejects_non_integral_ids():
    for mapping in ({0.7: 1}, {0: 1.2}, {0: math.inf}, {-math.inf: 0}, {0: math.nan}):
        with pytest.raises(ValueError, match="must be integers"):
            SelfMap(mapping)
    assert SelfMap({True: 0.0, 2.0: 2}).mapping == {1: 0, 2: 2}


def test_potential_rejects_non_integral_ids():
    for key in (0.5, math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="must be integers"):
            Potential({key: 1.0})
    assert Potential({True: 1, 2.0: 0.5}).values == {1: 1.0, 2: 0.5}

def test_map_totality_enforced():
    space = example_space()
    with pytest.raises(ValueError, match="not total"):
        ContractionProblem(
            space=space,
            relation=example_relation(space),
            map=SelfMap({0: 0}),
            potential=example_potential(space),
            zeta=SimulationFunction(family="linear", lam=0.9),
        )


def test_relation_outside_the_space_rejected():
    space = example_space()
    for pair in ((0, 4), (4, 0), (3, 5)):
        with pytest.raises(ValueError, match=rf"relation pair \({pair[0]}, {pair[1]}\) outside"):
            ContractionProblem(
                space=space,
                relation=BinaryRelation({(0, 1), pair}),
                map=example_map(space),
                potential=example_potential(space),
                zeta=SimulationFunction(family="linear", lam=0.9),
            )


def test_ledger_partition_and_counts(problem):
    verdict, ledger = verify_contraction(problem), column_ledger(problem)
    assert len(ledger["sigma"]) == len(problem.relation)
    active = verdict.active_rows
    assert active == reference_active_rows(ledger)
    vacuous = [i for i, d in enumerate(ledger["d_sigma_fsigma"]) if not d > 0]
    assert len(active) + len(vacuous) == len(ledger["sigma"])
    # active pairs are exactly those with first coordinate in {2, 3}
    assert sorted({ledger["sigma"][i] for i in active}) == [2.0, 3.0]
    assert len(active) == verdict.active_count == 8
    # pairs starting at 1 are vacuous: d(1, F1) = 0
    assert all(ledger["sigma"][i] == 1.0 for i in vacuous)
    assert all(ledger["zeta_value"][i] is None for i in vacuous)


def test_ledger_values_match_brute_force(problem):
    oracle = brute_force_ledger(problem)
    verdict, ledger = verify_contraction(problem), column_ledger(problem)
    assert verdict.active_rows == reference_active_rows(ledger)
    for i in verdict.active_rows:
        t, s_arg = oracle[(ledger["sigma"][i], ledger["rho"][i])]
        assert verdict.s * ledger["d_image_pair"][i] == t
        assert ledger["s_arg"][i] == s_arg
    # spot value from the oracle: pair (2,3) has t = 2*d(1,2) = 2, s_arg = 3*d(2,3) = 3
    assert oracle[(2.0, 3.0)] == (2.0, 3.0)


def test_contraction_passes_at_09(problem):
    verdict, ledger = verify_contraction(problem), column_ledger(problem)
    assert verdict.ok
    assert_verdict_matches(verdict, ledger)
    row23 = reference_row(ledger, 2.0, 3.0)
    assert ledger["zeta_value"][row23] == pytest.approx(0.7)


def test_contraction_fails_at_05():
    problem = example_problem(lam=0.5)
    verdict, ledger = verify_contraction(problem), column_ledger(problem)
    assert not verdict.ok
    assert_verdict_matches(verdict, ledger)
    failing = {(ledger["sigma"][i], ledger["rho"][i]) for i in ledger["failing"]}
    assert {(2.0, 3.0), (2.0, 4.0)} <= failing
    assert verdict.failing_count == len(ledger["failing"])
    row23 = reference_row(ledger, 2.0, 3.0)
    assert row23 in verdict.failing_rows["row"]
    assert ledger["zeta_value"][row23] == pytest.approx(-0.5)


def test_lambda_threshold_is_two_thirds(problem):
    # independent reproduction: max over active pairs of t / s_arg
    oracle = max(t / s for t, s in brute_force_ledger(problem).values() if s > 0)
    assert oracle == pytest.approx(2 / 3)
    assert linear_lambda_threshold(verify_contraction(problem)) == pytest.approx(2 / 3)


def threshold_by_pair_walk(problem):
    """Oracle: the threshold from a walk over R that does not read the ledger."""
    space, R, F, phi = problem.space, problem.relation, problem.map, problem.potential
    lo = 0.0
    for a, b in R.sorted_pairs():
        pa, pb = space.point(a), space.point(b)
        if distance(space, pa, F(pa)) <= 0:
            continue
        t = space.s * distance(space, F(pa), F(pb))
        s_arg = (phi(pa) - phi(F(pa))) * distance(space, pa, pb)
        if s_arg > 0:
            lo = max(lo, t / s_arg)
        elif t > 0 or s_arg < 0:
            return math.inf
    return lo


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans(), st.data())
def test_threshold_from_ledger_matches_pair_walk(seed, flat, data):
    problem = random_problem(random.Random(seed))
    if flat:
        # a constant potential zeroes every s_arg: any active row with t > 0 gives inf
        flat_phi = Potential({i: 1.0 for i in range(len(problem.space))})
        problem = problem._replace(potential=flat_phi)
    threshold = linear_lambda_threshold(verify_contraction(problem))
    assert threshold == threshold_by_pair_walk(problem)
    if threshold < 1:
        lam = data.draw(st.floats(threshold, 1, exclude_min=True, exclude_max=True))
        zeta = SimulationFunction(family="linear", lam=lam)
        assert verify_contraction(problem._replace(zeta=zeta), tol=0.0).ok


@given(st.floats(min_value=2 / 3 + 1e-9, max_value=1 - 1e-9))
def test_monotone_in_lambda_above_threshold(lam):
    assert verify_contraction(example_problem(lam=lam)).ok


@given(st.floats(min_value=1e-6, max_value=2 / 3 - 1e-9))
def test_fails_below_threshold(lam):
    assert not verify_contraction(example_problem(lam=lam), tol=0.0).ok


@settings(max_examples=40)
@given(st.floats(min_value=1.1, max_value=3.0))
def test_potential_scale_covariance(c):
    # verdict(phi, lam) == verdict(c*phi, lam/c) whenever lam/c stays in (0,1)
    lam = 0.9
    base = example_problem(lam=lam / c)
    scaled = ContractionProblem(
        space=base.space,
        relation=base.relation,
        map=base.map,
        potential=Potential({i: c * v for i, v in example_potential(base.space).values.items()}),
        zeta=SimulationFunction(family="linear", lam=lam / c),
    )
    plain = example_problem(lam=lam)
    assert column_ledger(scaled, tol=1e-9)["failing"] == column_ledger(plain, tol=1e-9)["failing"]
    assert (verify_contraction(scaled, tol=1e-9).failing_rows["row"]
            == verify_contraction(plain, tol=1e-9).failing_rows["row"])


def test_vacuous_when_map_is_identity_on_support():
    space = example_space()
    ident = SelfMap({p.id: p.id for p in space.points})
    problem = ContractionProblem(
        space=space,
        relation=example_relation(space),
        map=ident,
        potential=example_potential(space),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    verdict = verify_contraction(problem)
    assert verdict.ok
    assert not verdict.active_rows


def test_definition_sensitive_flagging():
    # zero potential drop at a moving sigma: s_arg = 0 but t > 0 cannot pass
    # for any simulation function (zeta2 gives zeta(t, 0) < -t), so the row fails
    space = example_space()
    R = value_relation(space, [(3, 4)])
    problem = ContractionProblem(
        space=space,
        relation=R,
        map=example_map(space),
        potential=Potential({0: 3.0, 1: 6.0, 2: 6.0, 3: 12.0}),  # phi(3) = phi(F3)
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    verdict, ledger = verify_contraction(problem), column_ledger(problem)
    row34 = reference_row(ledger, 3.0, 4.0)
    assert ledger["s_arg"][row34] == 0 < verdict.s * ledger["d_image_pair"][row34]
    assert row34 in ledger["failing"] and row34 in verdict.failing_rows["row"]
    assert not verdict.ok
    assert_verdict_matches(verdict, ledger)
    assert linear_lambda_threshold(verdict) == math.inf


def test_verify_all_hypotheses_example(problem):
    rep = verify_all_hypotheses(problem)
    assert rep.all_hypotheses_ok
    assert rep.mfr == [1.0, 2.0, 3.0]


def test_hypotheses_fail_on_non_f_closed_relation():
    space = example_space()
    problem = ContractionProblem(
        space=space,
        relation=value_relation(space, [(3, 4)]),
        map=example_map(space),
        potential=example_potential(space),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    rep = verify_all_hypotheses(problem)
    assert not rep.f_closed
    assert not rep.all_hypotheses_ok
    # the witnesses are printed once, on the relation report
    rel = build_relation_report(space, problem.relation, problem.map.mapping)
    assert not rel.f_closed
    assert rel.counterexample_counts["f_closed"] == 1
    assert rel.counterexamples["f_closed"] == [
        (space.point_by_value(3).id, space.point_by_value(4).id)
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.booleans())
@example(0, True)
def test_hypotheses_read_off_the_relation_report_equal_the_scanned_ones(seed, thin):
    rng = random.Random(seed)
    problem = random_problem(rng)
    if thin:
        # a random subset of the closed relation need not be F-closed or transitive
        pairs = problem.relation.sorted_pairs()
        problem = problem._replace(relation=BinaryRelation(
            frozenset(rng.sample(pairs, rng.randint(0, len(pairs))))))
    rel = build_relation_report(problem.space, problem.relation, problem.map.mapping)
    scanned, read = verify_all_hypotheses(problem), verify_all_hypotheses(problem, relation=rel)
    for name in type(scanned)._fields:
        assert getattr(read, name) == getattr(scanned, name), name


def test_hypotheses_fail_on_empty_relation():
    space = example_space()
    problem = ContractionProblem(
        space=space,
        relation=BinaryRelation(frozenset()),
        map=example_map(space),
        potential=example_potential(space),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    rep = verify_all_hypotheses(problem)
    assert not rep.mfr_nonempty
    assert not rep.all_hypotheses_ok


def test_uniqueness_condition(problem):
    space = problem.space
    one, four = space.point_by_value(1), space.point_by_value(4)
    check = verify_uniqueness_condition(problem, one, four)
    assert check.path_exists
    assert check.path.value_nodes(space) == [1.0, 4.0]
    assert not verify_uniqueness_condition(problem, four, one).path_exists


def test_uniqueness_condition_self_loop(problem):
    space = problem.space
    one = space.point_by_value(1)
    check = verify_uniqueness_condition(problem, one, one)
    assert check.path_exists  # (1,1) is in the relation
