"""Acceptance criteria, one test per criterion, each printing a pass/fail line."""

import json
import random
import time
from collections import deque

import pytest

from relfix.bmetric import BMetricSpace, distance, verify_bmetric_axioms
from relfix.cli import main
from relfix.contraction import (
    ContractionProblem,
    Potential,
    SelfMap,
    compute_mfr,
    linear_lambda_threshold,
    verify_all_hypotheses,
    verify_contraction,
)
from relfix.relation import BinaryRelation, relation_diagnostics
from relfix.simulation import SimulationFunction
from relfix.solver import certify, enumerate_fixed_points, picard_iterate, ratio_diagnostics
from relfix.problemfile import build_problem, parse_problem

from conftest import FIXTURES, example_problem, example_space
from instance_gen import random_problem, random_relation_and_map
from ledger_reference import (assert_verdict_matches, reference_active_rows, reference_ledger,
                              reference_row)


def _stamp(criterion, started: float):
    # reached only when every assertion above held
    print(f"\nacceptance criterion {criterion}: PASS ({time.perf_counter() - started:.2f}s)")


def load(name):
    return build_problem(parse_problem((FIXTURES / name).read_text()))


def test_criterion_1_example_end_to_end(capsys):
    started = time.perf_counter()
    code = main(["report", str(FIXTURES / "example-3-1.problem"), "--json"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    assert doc["overall_pass"] is True
    assert doc["hypotheses"]["all_hypotheses_ok"] is True
    assert doc["certificate"]["unique"] is True
    assert doc["certificate"]["fixed_points"] == [1.0]
    assert doc["certificate"]["solver_result"] == 1.0
    assert doc["trace"]["orbit"] == [3.0, 2.0, 1.0, 1.0]
    assert doc["trace"]["residual"] == 0.0
    assert time.perf_counter() - started < 1.0
    _stamp(1, started)


def test_criterion_2_ledger_sharpness():
    started = time.perf_counter()
    assert verify_contraction(example_problem(lam=0.9)).ok
    failing = verify_contraction(example_problem(lam=0.5), tol=0.0)
    assert not failing.ok
    ledger = reference_ledger(example_problem(lam=0.5), tol=0.0)
    assert_verdict_matches(failing, ledger)
    witnesses = {(ledger["sigma"][i], ledger["rho"][i]) for i in ledger["failing"]}
    assert {(2.0, 3.0), (2.0, 4.0)} <= witnesses

    # independent reproduction of the threshold from raw distances:
    # active pairs need lam >= s*d(F a, F b) / ((phi(a) - phi(F a)) * d(a, b))
    problem = example_problem()
    space, F, phi = problem.space, problem.map, problem.potential
    bound = 0.0
    for a, b in problem.relation.sorted_pairs():
        pa, pb = space.point(a), space.point(b)
        if distance(space, pa, F(pa)) > 0:
            s_arg = (phi(pa) - phi(F(pa))) * distance(space, pa, pb)
            if s_arg > 0:
                bound = max(bound, space.s * distance(space, F(pa), F(pb)) / s_arg)
    assert bound == 2 / 3
    assert linear_lambda_threshold(verify_contraction(problem)) == 2 / 3
    assert time.perf_counter() - started < 1.0
    _stamp(2, started)


def test_criterion_3_b_simulation_failure():
    started = time.perf_counter()
    # at (2,4) with s = 2: d(2,4) - s*d(F2,F4) = 4 - 2*4 = -4 rules out any
    # b-simulation value >= 0 there
    remark = load("remark-b-simulation.problem").problem
    space, F = remark.space, remark.map
    verdict, ledger = verify_contraction(remark), reference_ledger(remark)
    assert verdict.active_rows == reference_active_rows(ledger)
    bounds = {
        (ledger["sigma"][i], ledger["rho"][i]):
            ledger["d_pair"][i] - ledger["s"] * ledger["d_image_pair"][i]
        for i in verdict.active_rows
    }
    assert bounds[(2.0, 4.0)] == -4.0
    for (a, b), bound in bounds.items():
        pa, pb = space.point_by_value(a), space.point_by_value(b)
        assert bound == distance(space, pa, pb) - space.s * distance(space, F(pa), F(pb))

    bundle = load("remark-usual-metric.problem")
    space, F = bundle.problem.space, bundle.problem.map
    two, four = space.point_by_value(2), space.point_by_value(4)
    assert distance(space, F(two), F(four)) == 2.0
    assert distance(space, two, four) == 2.0
    ledger = reference_ledger(bundle.problem)
    i = reference_row(ledger, 2.0, 4.0)
    assert ledger["d_image_pair"][i] == ledger["d_pair"][i] == 2.0
    assert time.perf_counter() - started < 1.0
    _stamp(3, started)


def test_criterion_4_bmetric_axioms():
    started = time.perf_counter()
    rep = verify_bmetric_axioms(example_space(s=1.0))
    assert rep.min_feasible_s == 2.0
    assert not rep.triangle_ok
    assert (1.0, 3.0, 2.0) in rep.triangle_witnesses
    assert verify_bmetric_axioms(example_space(s=2.0)).all_ok
    assert time.perf_counter() - started < 1.0
    _stamp(4, started)


def test_criterion_5_relation_predicates():
    started = time.perf_counter()
    problem = example_problem()
    rep = verify_all_hypotheses(problem)
    assert rep.transitive
    assert rep.f_closed
    assert rep.mfr == [1.0, 2.0, 3.0]
    diag = relation_diagnostics(problem.relation, problem.space)
    assert not diag.reflexive
    assert not diag.symmetric
    # also not irreflexive: (1,1) is in the relation
    assert not diag.irreflexive
    assert problem.space.point_by_value(1).id in diag.witnesses["irreflexive"]
    assert time.perf_counter() - started < 1.0
    _stamp(5, started)


def test_criterion_6_proof_mechanics_on_synthetic_chain():
    started = time.perf_counter()
    problem = load("synthetic-geometric.problem").problem
    assert verify_all_hypotheses(problem).all_hypotheses_ok
    trace = picard_iterate(problem, problem.space.points[0])
    diag = ratio_diagnostics(trace, tol=1e-9)
    assert diag.per_index_bound_ok
    assert diag.telescoping_ok
    assert diag.rho is not None and 0 < diag.rho < 1
    assert diag.n0 is not None
    assert diag.geometric_decay_ok
    # re-check the decay inequality directly from the recorded steps
    for n in range(diag.n0 - 1, len(trace.steps) - 1):
        assert trace.steps[n + 1] <= diag.rho * trace.steps[n] + 1e-9
    assert time.perf_counter() - started < 1.0
    _stamp(6, started)


def test_criterion_7_oracle_equivalence_sweep():
    started = time.perf_counter()
    rng = random.Random(20260823)
    verified = 0
    for _ in range(200):
        problem = random_problem(rng)
        report = verify_all_hypotheses(problem)
        if not report.all_hypotheses_ok:
            continue
        verified += 1
        oracle = {p.id for p in enumerate_fixed_points(problem.space, problem.map)}
        assert oracle, "hypotheses verified but no fixed point exists"
        starts = compute_mfr(problem.space, problem.relation, problem.map)
        pairs = problem.relation.pairs
        for start in starts:
            trace = picard_iterate(problem, start)
            assert trace.terminated_by == "exact-fixed-point"
            assert trace.terminal_id in oracle
            for a, b in zip(trace.orbit_ids, trace.orbit_ids[1:]):
                assert (a, b) in pairs
    assert verified > 0, "sweep never exercised a verified instance"
    assert time.perf_counter() - started < 30.0
    _stamp("7 (oracle sweep)", started)


def _reachable(relation, source):
    """Ids at the end of a relation path of length >= 1 from source (BFS oracle)."""
    succ = {}
    for a, b in relation.pairs:
        succ.setdefault(a, []).append(b)
    seen = set()
    queue = deque(succ.get(source, ()))
    while queue:
        node = queue.popleft()
        if node not in seen:
            seen.add(node)
            queue.extend(succ.get(node, ()))
    return seen


def _check_uniqueness_certificates(problem):
    """Compare certify, from every admissible start, with independent oracles.

    Returns the fixed point ids and the number of active ledger rows when the
    instance has several pairwise path-connected fixed points, else None.
    """
    space, R, F = problem.space, problem.relation, problem.map
    fixed = enumerate_fixed_points(space, F)
    ids = sorted(p.id for p in fixed)
    reach = {a: _reachable(R, a) for a in ids}
    pairs = [(a, b) for i, a in enumerate(ids) for b in ids[i + 1:]]
    connected = {(a, b) for a, b in pairs if b in reach[a] or a in reach[b]}
    active = sum(distance(space, a, F(a)) > 0 for a, _ in R.pairs)

    def values(id_pairs):
        return {(space.point(a).value, space.point(b).value) for a, b in id_pairs}

    related_values = values(R.pairs)
    for start in compute_mfr(space, R, F):
        cert = certify(problem, picard_iterate(problem, start))
        assert cert.fixed_points == sorted(p.value for p in fixed)
        assert cert.unique is (len(ids) == 1)
        # a wholly vacuous verdict claims nothing; otherwise every connected
        # pair of fixed points contradicts the uniqueness clause
        assert {c["pair"] for c in cert.contradictions} == (values(connected) if active else set())
        assert set(cert.unconnected_pairs) == values(set(pairs) - connected)
        for c in cert.contradictions:
            path = c["path"]
            assert {path[0], path[-1]} == set(c["pair"])
            assert all(step in related_values for step in zip(path, path[1:]))
    if len(ids) > 1 and len(connected) == len(pairs):
        return ids, active
    return None


def test_criterion_7_uniqueness_clause():
    """certify handles the paper's uniqueness clause soundly on verified instances.

    The clause (pairwise path-connected fixed points are unique) does not
    follow from the checked hypotheses.  The contraction inequality applies
    only when d(sigma, F sigma) > 0, which never holds at a fixed point u, so
    no ledger row starting at u is active.  R is transitive, so a path from
    u to another fixed point v collapses to the pair (u, v), whose row is
    vacuous too: no verified hypothesis relates two fixed points.  Verified
    instances with several pairwise path-connected fixed points therefore
    exist, both with a wholly vacuous verdict (the seeded sweep finds one) and
    with active rows (the hand-built instance below, whose only path runs
    from the larger fixed point id to the smaller).
    """
    started = time.perf_counter()
    rng = random.Random(20260823)
    counterexamples = []
    for _ in range(200):
        problem = random_problem(rng)
        if not verify_all_hypotheses(problem).all_hypotheses_ok:
            continue
        found = _check_uniqueness_certificates(problem)
        if found:
            counterexamples.append((problem, *found))
    assert counterexamples, (
        "sweep found no verified instance with several pairwise path-connected "
        "fixed points, so certify's handling of the uniqueness clause went untested"
    )

    # fixed points 0 and 1, joined only by the pair (1, 0); the rows from 2 are active
    one_way = ContractionProblem(
        space=BMetricSpace.from_values([0, 1, 2], metric="absolute-difference", s=1.0),
        relation=BinaryRelation({(1, 0), (1, 1), (2, 0), (2, 1)}),
        map=SelfMap({0: 0, 1: 1, 2: 1}),
        potential=Potential({0: 0.0, 1: 0.0, 2: 2.0}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    assert verify_all_hypotheses(one_way, tol=0.0).all_hypotheses_ok
    assert _check_uniqueness_certificates(one_way) == ([0, 1], 2)

    problem, ids, active = counterexamples[0]
    print(
        f"\nacceptance criterion 7 (uniqueness clause): finding — "
        f"{len(counterexamples)} verified sweep instances carry several pairwise "
        f"path-connected fixed points, each certified not unique; "
        f"first: points {[p.value for p in problem.space.points]}, "
        f"map {problem.map.mapping}, relation {problem.relation.sorted_pairs()}, "
        f"fixed point ids {ids}, active contraction rows: {active}"
    )
    _stamp("7 (uniqueness clause)", started)


def test_criterion_8_symmetric_closure_keeps_f_closedness():
    started = time.perf_counter()
    from relfix.relation import is_f_closed, symmetric_closure

    rng = random.Random(7)
    for _ in range(200):
        R, mapping = random_relation_and_map(rng)
        assert is_f_closed(R, mapping)[0]
        assert is_f_closed(symmetric_closure(R), mapping)[0]
    assert time.perf_counter() - started < 5.0
    _stamp(8, started)
