import dataclasses
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from relfix.bmetric import distance
from relfix.relation import BinaryRelation
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
from relfix.simulation import SimulationFunction

from conftest import example_map, example_potential, example_problem, example_relation, example_space
from instance_gen import random_problem


def brute_force_ledger(problem):
    """Independent oracle: recompute every active pair's arguments from raw formulas."""
    space, R, F, phi = problem.space, problem.relation, problem.map, problem.potential
    out = {}
    for a, b in sorted(R.pairs):
        pa, pb = space.point(a), space.point(b)
        if (pa.value - space.point(F(pa)).value) ** 2 > 0:
            t = space.s * (space.point(F(pa)).value - space.point(F(pb)).value) ** 2
            s_arg = (phi(pa) - phi(F(pa))) * (pa.value - pb.value) ** 2
            out[(pa.value, pb.value)] = (t, s_arg)
    return out


def test_compute_mfr():
    space = example_space()
    mfr = compute_mfr(space, example_relation(space), example_map(space))
    assert sorted(p.value for p in mfr) == [1.0, 2.0, 3.0]
    assert compute_mfr(space, BinaryRelation(frozenset()), example_map(space)) == []


def test_potential_rejects_negative_values():
    with pytest.raises(ValueError, match="codomain"):
        Potential({0: 1.0, 1: -1.0})


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


def test_ledger_partition_and_counts(problem):
    verdict = verify_contraction(problem)
    assert len(verdict.rows) == len(problem.relation)
    active = [r for r in verdict.rows if r.active]
    vacuous = [r for r in verdict.rows if not r.active]
    assert len(active) + len(vacuous) == len(verdict.rows)
    # active pairs are exactly those with first coordinate in {2, 3}
    assert sorted({r.sigma for r in active}) == [2.0, 3.0]
    assert len(active) == 8
    # pairs starting at 1 are vacuous: d(1, F1) = 0
    assert all(r.sigma == 1.0 for r in vacuous)


def test_ledger_values_match_brute_force(problem):
    oracle = brute_force_ledger(problem)
    verdict = verify_contraction(problem)
    for row in verdict.active_rows:
        t, s_arg = oracle[(row.sigma, row.rho)]
        assert row.t == t
        assert row.s_arg == s_arg
    # spot value from the oracle: pair (2,3) has t = 2*d(1,2) = 2, s_arg = 3*d(2,3) = 3
    assert oracle[(2.0, 3.0)] == (2.0, 3.0)


def test_contraction_passes_at_09(problem):
    verdict = verify_contraction(problem)
    assert verdict.ok
    row23 = next(r for r in verdict.rows if (r.sigma, r.rho) == (2.0, 3.0))
    assert row23.zeta_value == pytest.approx(0.7)


def test_contraction_fails_at_05():
    verdict = verify_contraction(example_problem(lam=0.5))
    assert not verdict.ok
    failing = {(r.sigma, r.rho) for r in verdict.failing_rows}
    assert {(2.0, 3.0), (2.0, 4.0)} <= failing
    row23 = next(r for r in verdict.failing_rows if (r.sigma, r.rho) == (2.0, 3.0))
    assert row23.zeta_value == pytest.approx(-0.5)


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
        problem = dataclasses.replace(problem, potential=flat_phi)
    threshold = linear_lambda_threshold(verify_contraction(problem))
    assert threshold == threshold_by_pair_walk(problem)
    if threshold < 1:
        lam = data.draw(st.floats(threshold, 1, exclude_min=True, exclude_max=True))
        zeta = SimulationFunction(family="linear", lam=lam)
        assert verify_contraction(dataclasses.replace(problem, zeta=zeta), tol=0.0).ok


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
    rows_scaled = verify_contraction(scaled, tol=1e-9).rows
    rows_plain = verify_contraction(plain, tol=1e-9).rows
    for rs, rp in zip(rows_scaled, rows_plain):
        assert rs.ok == rp.ok


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
    # for any simulation function, so the row carries the flag
    space = example_space()
    R = BinaryRelation.from_value_pairs(space, [(3, 4)])
    problem = ContractionProblem(
        space=space,
        relation=R,
        map=example_map(space),
        potential=Potential({0: 3.0, 1: 6.0, 2: 6.0, 3: 12.0}),  # phi(3) = phi(F3)
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    verdict = verify_contraction(problem)
    row33 = next(r for r in verdict.rows if (r.sigma, r.rho) == (3.0, 4.0))
    assert row33.s_arg == 0 and row33.t > 0
    assert row33.definition_sensitive
    assert not row33.ok
    assert linear_lambda_threshold(verdict) == math.inf


def test_verify_all_hypotheses_example(problem):
    rep = verify_all_hypotheses(problem)
    assert rep.all_hypotheses_ok
    assert rep.mfr == [1.0, 2.0, 3.0]
    assert rep.condition_iii == "bd-self-closed-verified"


def test_hypotheses_fail_on_non_f_closed_relation():
    space = example_space()
    problem = ContractionProblem(
        space=space,
        relation=BinaryRelation.from_value_pairs(space, [(3, 4)]),
        map=example_map(space),
        potential=example_potential(space),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    rep = verify_all_hypotheses(problem)
    assert not rep.f_closed
    assert rep.f_closed_witnesses == [
        (space.point_by_value(3).id, space.point_by_value(4).id)
    ]
    assert not rep.all_hypotheses_ok


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
