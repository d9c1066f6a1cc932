import math
import random
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix import solver
from relfix.bmetric import WITNESS_CAP, BMetricSpace, distance
from relfix.relation import BinaryRelation, build_relation_report, find_path, reach_rows, related
from relfix.contraction import (ContractionProblem, ContractionVerdict, Potential, SelfMap,
                                compute_mfr, verify_contraction)
from relfix.simulation import SimulationFunction
from relfix.solver import (
    CertificationError,
    IterationTrace,
    RelationBroken,
    StartNotAdmissible,
    _estimate_rho,
    certify,
    enumerate_fixed_points,
    picard_iterate,
    ratio_diagnostics,
)

from conftest import FIXTURES, example_map, example_problem, example_space, value_relation
from instance_gen import random_problem
from ledger_reference import assert_verdict_matches, reference_ledger
from pair_set_reference import reference_find_path
from relfix.problemfile import ProblemBundle, SolverBlock, build_problem, parse_problem
from relfix.report import run_command


def load_fixture(name):
    return build_problem(parse_problem((FIXTURES / name).read_text()))


def test_orbit_from_3(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    assert trace.orbit == [3.0, 2.0, 1.0, 1.0]
    assert trace.terminated_by == "exact-fixed-point"
    assert trace.residual == 0.0
    assert trace.steps == [1.0, 1.0, 0.0]
    assert trace.phi_values == [9.0, 6.0, 3.0, 3.0]


def test_orbit_from_fixed_start(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(1))
    assert trace.orbit == [1.0, 1.0]
    assert trace.steps == [0.0]


def test_orbit_from_2(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(2))
    assert trace.orbit == [2.0, 1.0, 1.0]
    assert trace.steps[0] == 1.0


def test_inadmissible_start_rejected(problem):
    four = problem.space.point_by_value(4)
    with pytest.raises(StartNotAdmissible):
        picard_iterate(problem, four)


def test_orbit_leaving_relation_aborts():
    # only the admissibility pair present: the second step has no relation pair
    space = example_space()
    R = value_relation(space, [(3, 2)])
    problem = ContractionProblem(
        space=space,
        relation=R,
        map=example_map(space),
        potential=Potential({p.id: 3.0 * p.value for p in space.points}),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    with pytest.raises(RelationBroken) as exc:
        picard_iterate(problem, space.point_by_value(3))
    assert exc.value.pair == (2.0, 1.0)


def cycle_problem(mapping, relation):
    space = BMetricSpace.from_values(range(len(mapping)), metric="absolute-difference", s=1.0)
    return ContractionProblem(
        space=space,
        relation=BinaryRelation(relation),
        map=SelfMap(mapping),
        potential=Potential({i: 0.0 for i in mapping}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )


def test_orbit_stops_at_the_first_repeat_of_a_cycle():
    problem = cycle_problem({0: 1, 1: 2, 2: 1}, {(0, 1), (1, 2), (2, 1)})
    trace = picard_iterate(problem, problem.space.points[0])
    assert trace.orbit_ids == [0, 1, 2, 1]
    assert trace.terminated_by == "cycle"
    assert trace.steps == [1.0, 1.0, 1.0]
    with pytest.raises(ValueError, match="did not end at a fixed point"):
        certify(problem, trace)


def brute_force_orbit(mapping, start):
    """The orbit from start up to and including its first repeated id."""
    ids = [start]
    while mapping[ids[-1]] not in ids:
        ids.append(mapping[ids[-1]])
    return ids + [mapping[ids[-1]]]


@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.lists(st.integers(0, n - 1), min_size=n, max_size=n), st.integers(0, n - 1))))
def test_orbit_is_the_prefix_up_to_the_first_repeat(case):
    images, start = case
    n = len(images)
    mapping = dict(enumerate(images))
    problem = cycle_problem(mapping, {(a, b) for a in range(n) for b in range(n)})
    trace = picard_iterate(problem, problem.space.points[start])
    expected = brute_force_orbit(mapping, start)
    assert trace.orbit_ids == expected
    assert len(trace.steps) == len(expected) - 1 <= n
    assert trace.terminated_by == ("exact-fixed-point" if expected[-2] == expected[-1] else "cycle")


def reference_orbit(problem, start):
    """The orbit loop reading through F(), distance() and phi(), one call per read."""
    space, F, phi, pairs = problem.space, problem.map, problem.potential, problem.relation.pairs
    ids, steps = [start.id], []
    while True:
        cur, nxt = ids[-1], F(ids[-1])
        assert (cur, nxt) in pairs
        steps.append(distance(space, cur, nxt))
        seen, ids = set(ids), ids + [nxt]
        if nxt in seen:
            break
    terminal = ids[-1]
    return {
        "orbit_ids": ids,
        "orbit": [space.point(i).value for i in ids],
        "steps": steps,
        "phi_values": [phi(i) for i in ids],
        "residual": distance(space, terminal, F(terminal)),
    }


@settings(max_examples=100)
@given(st.integers(0, 2 ** 32))
def test_orbit_matches_the_reference_loop(seed):
    # random_problem builds R F-closed, so no orbit from an admissible start leaves it
    problem = random_problem(random.Random(seed))
    for start in compute_mfr(problem.space, problem.relation, problem.map):
        trace = picard_iterate(problem, start)
        assert {k: getattr(trace, k) for k in ("orbit_ids", "orbit", "steps", "phi_values",
                                               "residual")} == reference_orbit(problem, start)


@pytest.mark.parametrize("start", [3, 3.0, "3"], ids=["int", "float", "str"])
def test_start_must_be_a_point(problem, start):
    with pytest.raises(TypeError, match="start must be a Point"):
        picard_iterate(problem, start)


def test_r_preservation_along_trace(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    pairs = problem.relation.pairs
    for a, b in zip(trace.orbit_ids, trace.orbit_ids[1:]):
        assert (a, b) in pairs


def test_phi_descent_under_true_verdict(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    for n, c in enumerate(trace.steps):
        if c > 0:
            assert trace.phi_values[n + 1] < trace.phi_values[n]


def test_ratio_diagnostics_short_trace(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    diag = ratio_diagnostics(trace)
    # C_2/C_1 = 1 <= phi(3) - phi(2) = 3; sum = 1 <= phi(3) - phi(1) = 6
    assert diag.per_index_bound_ok
    assert diag.ratio_sum == pytest.approx(1.0)
    assert diag.phi_budget == pytest.approx(6.0)
    assert diag.telescoping_ok
    assert diag.rho is None and diag.n0 is None
    assert diag.geometric_decay_ok is None


def test_single_step_trace_not_exercised(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(2))
    diag = ratio_diagnostics(trace)
    assert diag.ratios == [0.0]
    assert diag.rho is None and diag.n0 is None and diag.geometric_decay_ok is None


def test_per_index_bound_counts_the_step_into_a_fixed_point():
    # 2 -> 1 -> 0 -> 0: the step into the fixed point 0 has C_3/C_2 = 0 but
    # phi rises from 3 to 4 along it, so the bound fails at n = 2
    text = ("[space]\npoints = 0 1 2\nmetric = absolute-difference\ns = 1\n"
            "[relation]\npairs = (2,1) (1,0) (0,0)\n[map]\n0 = 0\n1 = 0\n2 = 1\n"
            "[potential]\n0 = 4\n1 = 3\n2 = 5\n[zeta]\nfamily = linear\nlambda = 0.5\n")
    report, ok = run_command("solve", build_problem(parse_problem(text)), start=2)
    assert ok
    assert report["trace"].phi_values == [5.0, 3.0, 4.0, 4.0]
    diag = report["ratio_diagnostics"]
    assert diag.ratios == [1.0, 0.0]
    assert not diag.per_index_bound_ok
    assert diag.per_index_witnesses == [{"n": 2, "ratio": 0.0, "phi_drop": -1.0}]


def test_ratio_diagnostics_requires_steps(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(1))
    trace.steps = []
    with pytest.raises(ValueError):
        ratio_diagnostics(trace)


def test_enumerate_fixed_points(problem):
    fps = enumerate_fixed_points(problem.space, problem.map)
    assert [p.value for p in fps] == [1.0]
    space = example_space()
    ident = SelfMap({p.id: p.id for p in space.points})
    assert len(enumerate_fixed_points(space, ident)) == 4
    with pytest.raises(ValueError, match="outside the space"):
        enumerate_fixed_points(space, SelfMap({0: 0, 1: 9, 2: 2, 3: 3}))


def test_certify_example(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    cert = certify(problem, trace)
    assert cert.unique
    assert cert.fixed_points == [1.0]
    assert cert.solver_result == 1.0
    assert not cert.contradictions


def test_certify_identity_map_not_unique():
    space = example_space()
    ident = SelfMap({p.id: p.id for p in space.points})
    full = BinaryRelation({(a, b) for a in range(4) for b in range(4)})
    problem = ContractionProblem(
        space=space,
        relation=full,
        map=ident,
        potential=Potential({p.id: 3.0 * p.value for p in space.points}),
        zeta=SimulationFunction(family="linear", lam=0.9),
    )
    trace = picard_iterate(problem, space.point_by_value(2))
    cert = certify(problem, trace)
    assert not cert.unique
    # the identity map leaves the contraction wholly vacuous; no theorem
    # contradiction is claimed from a verdict that never fired
    assert not cert.contradictions


def test_certify_contradiction_on_tampered_instance():
    # two connected fixed points forced past verification by a huge tolerance:
    # the pair (2,1) has zeta = 0.5*1 - 1 = -0.5, masked by tol = 1
    space = BMetricSpace.from_values([0, 1, 2], metric="absolute-difference", s=1.0)
    fmap = SelfMap({0: 0, 1: 1, 2: 0})
    R = BinaryRelation({(0, 0), (0, 1), (2, 0), (2, 1)})
    problem = ContractionProblem(
        space=space,
        relation=R,
        map=fmap,
        potential=Potential({0: 0.0, 1: 0.0, 2: 1.0}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    two = space.point_by_value(2)
    assert not certify(problem, picard_iterate(problem, two), verify_contraction(problem, tol=0.0)).contradictions
    trace = picard_iterate(problem, two)
    cert = certify(problem, trace, verify_contraction(problem, tol=1.0))
    assert cert.contradictions
    assert cert.contradictions[0]["pair"] == (0.0, 1.0)
    assert cert.contradictions[0]["note"].endswith("passes only by tolerance; data inconsistent")


def test_certify_rejects_unterminated(problem):
    trace = picard_iterate(problem, problem.space.point_by_value(3))
    trace.terminated_by = "cycle"
    with pytest.raises(ValueError):
        certify(problem, trace)


def test_certify_rejects_a_positive_residual():
    # a table metric with d(x, x) > 0: the orbit stops exactly at a fixed
    # point whose residual is still positive
    space = BMetricSpace.from_values([0, 1], metric="table", table=((1.0, 1.0), (1.0, 0.0)), s=1.0)
    problem = ContractionProblem(
        space=space,
        relation=BinaryRelation({(0, 0)}),
        map=SelfMap({0: 0, 1: 1}),
        potential=Potential({0: 0.0, 1: 0.0}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    trace = picard_iterate(problem, space.points[0])
    assert trace.terminated_by == "exact-fixed-point" and trace.residual == 1.0
    with pytest.raises(CertificationError, match="positive residual"):
        certify(problem, trace)


def test_synthetic_chain_exercises_asymptotics():
    bundle = load_fixture("synthetic-geometric.problem")
    problem = bundle.problem
    trace = picard_iterate(problem, problem.space.points[0])
    assert trace.terminated_by == "exact-fixed-point"
    assert sum(c > 0 for c in trace.steps) == 19
    diag = ratio_diagnostics(trace, tol=1e-9)
    assert diag.per_index_bound_ok
    assert diag.telescoping_ok
    assert 0 < diag.rho < 1
    assert diag.geometric_decay_ok


def estimate_rho_by_rescan(steps):
    """Oracle: n0 as the first ratio index from which every later ratio is <= rho."""
    ratios = [(n + 1, steps[n + 1] / steps[n])
              for n in range(len(steps) - 1) if steps[n] > 0 and steps[n + 1] > 0]
    if len(ratios) < 3:
        return None, None
    rho = max(r for _, r in ratios[len(ratios) // 2:])
    for i, (idx, _) in enumerate(ratios):
        if all(r <= rho for _, r in ratios[i:]):
            return rho, idx


# small integers make ratios above rho recur in the first half; floats reach
# the extremes, where a ratio of tiny and huge steps is 0 or inf
step = st.one_of(st.integers(0, 8).map(float), st.floats(min_value=0, allow_infinity=False))


@given(st.lists(step, max_size=40))
def test_estimate_rho_matches_rescan(steps):
    assert _estimate_rho(steps) == estimate_rho_by_rescan(steps)


def reference_ratio_diagnostics(steps, phi, tol):
    """ratio_diagnostics as computed when the trace carried its ratios, phi
    limit estimate, rho and n0: each quantity the way that code built it."""
    # picard_iterate's ratio list and estimates
    ratios = [steps[n + 1] / steps[n] for n in range(len(steps) - 1) if steps[n] > 0]
    phi_limit_estimate = phi[-1]
    rho, n0 = estimate_rho_by_rescan(steps)
    # ratio_diagnostics
    witnesses = []
    ratio_sum = 0.0
    for n in range(len(steps) - 1):
        if steps[n] <= 0:
            continue
        ratio = steps[n + 1] / steps[n]
        ratio_sum += ratio
        drop = phi[n] - phi[n + 1]
        if ratio > drop + tol:
            witnesses.append({"n": n + 1, "ratio": ratio, "phi_drop": drop})
    budget = phi[0] - phi_limit_estimate
    decay_ok = None
    if rho is not None:
        decay_ok = rho < 1
        for n in range(n0 - 1, len(steps) - 1):
            if steps[n] > 0 and steps[n + 1] > rho * steps[n] + tol:
                decay_ok = False
    return {"ratios": ratios, "per_index_bound_ok": not witnesses,
            "per_index_witnesses": witnesses, "telescoping_ok": ratio_sum <= budget + tol,
            "ratio_sum": ratio_sum, "phi_budget": budget, "rho": rho, "n0": n0,
            "geometric_decay_ok": decay_ok}


def trace_of(steps, phi) -> IterationTrace:
    """A hand-built trace with these steps and potentials; ratio_diagnostics reads nothing else."""
    ids = list(range(len(phi)))
    return IterationTrace(orbit=[float(i) for i in ids], orbit_ids=ids, steps=steps,
                          phi_values=phi, residual=0.0, terminated_by="cycle")


def test_ratio_diagnostics_reports_each_failure():
    # rho = max(4/2, 8/4) = 2 from n0 = 1; the potential never drops
    diag = ratio_diagnostics(trace_of([1.0, 2.0, 4.0, 8.0, 0.0], [0.0] * 6))
    assert diag.ratios == [2.0, 2.0, 2.0, 0.0]
    assert (diag.rho, diag.n0) == (2.0, 1)
    assert not diag.per_index_bound_ok and len(diag.per_index_witnesses) == 3
    assert not diag.telescoping_ok and diag.ratio_sum == 6.0 and diag.phi_budget == 0.0
    assert diag.geometric_decay_ok is False


# zero and equal steps, and a subnormal step after a large one, whose ratio
# is 0.0 although both steps are positive
diag_step = st.one_of(st.just(0.0), st.integers(1, 4).map(float), st.sampled_from([5e-324, 1e300]),
                      st.floats(min_value=0, allow_infinity=False))
potential = st.one_of(st.integers(-8, 8).map(float),
                      st.floats(min_value=-1e300, max_value=1e300, allow_nan=False))


@given(st.lists(diag_step, min_size=1, max_size=30).flatmap(
           lambda steps: st.tuples(st.just(steps),
                                   st.lists(potential, min_size=len(steps) + 1,
                                            max_size=len(steps) + 1))),
       st.sampled_from([0.0, 1e-9]))
@example(([1.0, 2.0, 4.0, 8.0, 0.0], [0.0] * 6), 0.0)
@example(([1e300, 5e-324, 1.0, 1.0, 1.0, 0.0], [9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 4.0]), 1e-9)
@example(([1.0, 1.0, 1.0, 1.0, 0.0], [5.0, 4.0, 3.0, 2.0, 1.0, 1.0]), 0.0)
# rho = 0.7 but 0.7 * 700 rounds below 490: the decay check fails at tol 0 only
@example(([1000.0, 700.0, 490.0, 343.0, 0.0], [9.0] * 6), 0.0)
@example(([1000.0, 700.0, 490.0, 343.0, 0.0], [9.0] * 6), 1e-9)
def test_ratio_diagnostics_matches_reference(trace, tol):
    steps, phi = trace
    diag = ratio_diagnostics(trace_of(steps, phi), tol)
    assert {name: getattr(diag, name) for name in type(diag)._report_fields} == \
        reference_ratio_diagnostics(steps, phi, tol)


def test_picard_iterate_estimates_no_rho(problem, monkeypatch):
    def refuse(steps):
        raise AssertionError("picard_iterate estimated rho")
    monkeypatch.setattr(solver, "_estimate_rho", refuse)
    assert picard_iterate(problem, problem.space.point_by_value(3)).steps == [1.0, 1.0, 0.0]


def test_certify_does_not_scan_transitivity(monkeypatch):
    # fixed-points shape: complete relation, every even point fixed, so all
    # 15 pairs of the 6 fixed points are connected and checked for uniqueness;
    # the uniqueness check needs path existence only
    from relfix import contraction, relation

    n = 12
    space = BMetricSpace.from_values(range(n), s=2.0)
    problem = ContractionProblem(
        space=space,
        relation=BinaryRelation({(a, b) for a in range(n) for b in range(n)}),
        map=SelfMap({k: k - k % 2 for k in range(n)}),
        potential=Potential({k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    scans = Counter()
    scan = relation.is_transitive

    def counting_scan(R):
        scans[id(R)] += 1
        return scan(R)

    for module in (relation, contraction):
        monkeypatch.setattr(module, "is_transitive", counting_scan)
    cert = certify(problem, picard_iterate(problem, space.points[0]))
    assert len(cert.fixed_points) == 6
    assert len(cert.contradictions) == 15
    assert all(c["note"].endswith("a counterexample to the paper's uniqueness clause")
               for c in cert.contradictions)
    assert not scans
    # both patches are live: each report reads transitivity once
    relation.build_relation_report(space, problem.relation, problem.map.mapping)
    contraction.verify_all_hypotheses(problem)
    assert list(scans.values()) == [2]


def reference_certificate(problem, verdict):
    """The k**2 loop certify ran before its reachability closure: a BFS from a
    to b, then from b to a, for every pair of fixed points a < b."""
    space, R = problem.space, problem.relation
    fps = [p.id for p in enumerate_fixed_points(space, problem.map)]
    contraction_ok = verdict.ok and verdict.active_count > 0
    connected, unconnected = [], []
    for i, a in enumerate(fps):
        for b in fps[i + 1:]:
            path = reference_find_path(R, a, b) or reference_find_path(R, b, a)
            pair = (space.point(a).value, space.point(b).value)
            if path is None:
                unconnected.append(pair)
            elif contraction_ok:
                connected.append((pair, [space.point(k).value for k in path]))
    return connected, unconnected


@st.composite
def fixed_point_problems(draw):
    """Point 0 and a drawn share of the others fixed, R at a drawn density."""
    n = draw(st.integers(2, 14))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    q = draw(st.sampled_from([0.3, 0.6, 1.0]))
    mapping = {a: a if a == 0 or rng.random() < q else rng.randrange(n) for a in range(n)}
    return ContractionProblem(
        space=BMetricSpace.from_values(range(n), s=2.0),
        relation=BinaryRelation({(a, b) for a in range(n) for b in range(n) if rng.random() < p}),
        map=SelfMap(mapping),
        potential=Potential({a: rng.choice([0.0, rng.uniform(0.0, 1e3)]) for a in range(n)}),
        zeta=SimulationFunction(family="linear", lam=draw(st.sampled_from([0.05, 0.5, 0.95]))),
    )


def fixed_start_trace(problem) -> IterationTrace:
    """The exact-fixed-point trace of point 0, which need not be admissible;
    certify reads its terminated_by, orbit_ids and residual."""
    start = problem.space.points[0]
    assert problem.map(start) == 0
    phi = problem.potential(start)
    return IterationTrace(orbit=[start.value] * 2, orbit_ids=[0, 0], steps=[0.0],
                          phi_values=[phi, phi], residual=0.0, terminated_by="exact-fixed-point")


def even_fixed(n, pairs):
    """Points 0..n-1 with every even one fixed and each odd one mapped to its
    left neighbour; the potential passes the verdict on the odd rows."""
    return ContractionProblem(
        space=BMetricSpace.from_values(range(n), s=2.0),
        relation=BinaryRelation(pairs),
        map=SelfMap({k: k - k % 2 for k in range(n)}),
        potential=Potential({k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )


def complete_even_fixed(n):
    """The fixed-points shape: complete relation, every even point fixed."""
    return even_fixed(n, {(a, b) for a in range(n) for b in range(n)})


def certify_both_ways(problem, trace, verdict):
    """certify with and without the relation report; the two must agree field for field."""
    relation = build_relation_report(problem.space, problem.relation, problem.map.mapping)
    cert = certify(problem, trace, verdict, relation=relation)
    assert vars(cert) == vars(certify(problem, trace, verdict))
    return relation, cert


@settings(max_examples=100, deadline=None)
@given(fixed_point_problems(), st.sampled_from([None, 1e12]))
# 276 connected pairs of 24 fixed points: the kept list stops at the cap
@example(complete_even_fixed(48), None)
# a chain through unfixed points: the paths have length 2 and run both ways
@example(ContractionProblem(
    space=BMetricSpace.from_values(range(5), s=2.0),
    relation=BinaryRelation({(0, 1), (1, 2), (4, 3), (3, 0)}),
    map=SelfMap({0: 0, 1: 0, 2: 2, 3: 0, 4: 4}),
    potential=Potential({0: 0.0, 1: 5.0, 2: 0.0, 3: 5.0, 4: 0.0}),
    zeta=SimulationFunction(family="linear", lam=0.5)), 1e12)
def test_certify_matches_the_two_way_bfs_loop(problem, tol):
    verdict = verify_contraction(problem, tol)
    trace = fixed_start_trace(problem)
    _, cert = certify_both_ways(problem, trace, verdict)
    connected, unconnected = reference_certificate(problem, verdict)
    assert cert.contradiction_count == len(connected)
    assert [(c["pair"], c["path"]) for c in cert.contradictions] == connected[:WITNESS_CAP]
    assert cert.unconnected_count == len(unconnected)
    assert cert.unconnected_pairs == unconnected[:WITNESS_CAP]


def pairwise_certificate(problem, trace, verdict):
    """The pair loop certify ran before it counted by rows, uncapped: each pair
    of fixed points a < b in turn, joined a to b when R's closure takes a to b,
    else b to a, with a related pair as its own path and any other path found
    by ``find_path``."""
    fmap, R = problem.map.mapping, problem.relation
    values = [p.value for p in problem.space.points]
    ids = [a for a in range(len(values)) if fmap[a] == a]
    reach = reach_rows(R) + [0] * (len(values) - len(R._rows))
    contraction_ok = verdict.ok and verdict.active_count > 0
    if contraction_ok and verdict.zeta_min < 0:
        note = "connected fixed points under a verdict that " + INCONSISTENT
    else:
        note = "connected fixed points under a passing contraction verdict: " + COUNTEREXAMPLE
    contradictions, unconnected = [], []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if reach[a] >> b & 1:
                src, dst = a, b
            elif reach[b] >> a & 1:
                src, dst = b, a
            else:
                unconnected.append((values[a], values[b]))
                continue
            if contraction_ok:
                path = (src, dst) if related(R, src, dst) else find_path(R, src, dst).nodes
                contradictions.append((values[a], values[b], [values[k] for k in path], note))
    return {"fixed_points": [values[a] for a in ids], "solver_result": values[trace.terminal_id],
            "unique": len(ids) == 1, "contradiction_count": len(contradictions),
            "contradictions": contradictions[:WITNESS_CAP],
            "unconnected_count": len(unconnected), "unconnected_pairs": unconnected[:WITNESS_CAP]}


def up_and_down(n):
    """The lower half linked upward step by step, the upper half downward, each
    fixed point with its loop: not transitive, and two fixed points of one half
    are joined only through the odd points between them."""
    half = n // 2
    return ({(k, k + 1) for k in range(half - 1)} | {(k + 1, k) for k in range(half, n - 1)}
            | {(k, k) for k in range(0, n, 2)})


# 30 points fixed but 1 and 3; the one active row (1, 3) passes only by the
# tolerance (as in the test above), and the fixed points are related upward
TOLERANCE_ONLY = ContractionProblem(
    space=BMetricSpace.from_values(range(30), s=2.0),
    relation=BinaryRelation({(1, 3)} | {(a, b) for a in range(30) for b in range(a + 1, 30)
                                        if a not in (1, 3) and b not in (1, 3)}),
    map=SelfMap({k: {1: 0, 3: 2}.get(k, k) for k in range(30)}),
    potential=Potential({k: 4.0 - 5e-13 if k == 1 else 0.0 for k in range(30)}),
    zeta=SimulationFunction(family="linear", lam=0.5),
)


@pytest.mark.parametrize("problem, tol", [
    # 24 fixed points, pairwise related: 276 contradictions
    (complete_even_fixed(48), None),
    # each odd point related to its image only: 435 unconnected pairs
    (even_fixed(60, {(k, k - 1) for k in range(1, 60, 2)}), None),
    # 380 pairs joined through other points, upward or downward, 400 unconnected
    (even_fixed(80, up_and_down(80)), None),
    (TOLERANCE_ONLY, 1e-9),
], ids=["complete", "unconnected", "through-others", "tolerance-only"])
def test_certify_counts_by_rows_as_the_pairwise_loop_did(problem, tol):
    verdict = verify_contraction(problem, tol)
    trace = fixed_start_trace(problem)
    _, cert = certify_both_ways(problem, trace, verdict)
    got = {**vars(cert), "contradictions": [(*c["pair"], c["path"], c["note"])
                                             for c in cert.contradictions]}
    assert got == pairwise_certificate(problem, trace, verdict)
    assert max(cert.contradiction_count, cert.unconnected_count) > WITNESS_CAP
    if tol is not None:
        assert cert.contradictions[0]["note"].endswith(INCONSISTENT)


def test_certify_reads_the_relation_report_on_the_criterion_7_sweep():
    # criterion 7's instances, verified or not, from every admissible start
    rng = random.Random(20260823)
    transitive_multi = 0
    for _ in range(200):
        problem = random_problem(rng)
        verdict = verify_contraction(problem)
        for start in compute_mfr(problem.space, problem.relation, problem.map):
            trace = picard_iterate(problem, start)
            if trace.terminated_by == "exact-fixed-point":
                relation, cert = certify_both_ways(problem, trace, verdict)
                transitive_multi += relation.transitive and not cert.unique
    assert transitive_multi, "the sweep never read a transitive R's rows as its reach rows"


def test_a_report_on_a_transitive_relation_builds_no_reach_rows(monkeypatch):
    # the complete relation is transitive, and its 12 fixed points are pairwise related
    calls = Counter()
    reach = reach_rows

    def counting_reach(R):
        calls["reach_rows"] += 1
        return reach(R)

    monkeypatch.setattr("relfix.relation.reach_rows", counting_reach)
    bundle = ProblemBundle(problem=complete_even_fixed(24), solver=SolverBlock())
    report, _ = run_command("report", bundle)
    assert report["relation"].transitive and report["certificate"].contradiction_count == 66
    assert calls == {}
    # the certify command prints no relation report; R's rows still show it transitive
    report, _ = run_command("certify", bundle)
    assert report["certificate"].contradiction_count == 66
    assert calls == {}
    # a relation that is not transitive is closed, once
    bundle = ProblemBundle(problem=even_fixed(80, up_and_down(80)), solver=SolverBlock())
    report, _ = run_command("certify", bundle)
    cert = report["certificate"]
    assert (cert.contradiction_count, cert.unconnected_count) == (380, 400)
    assert calls == {"reach_rows": 1}


COUNTEREXAMPLE = "a counterexample to the paper's uniqueness clause"
INCONSISTENT = "passes only by tolerance; data inconsistent"


def test_certify_reads_signed_zero_zeta_as_a_pass():
    # fixed points 0 and 2 are related; the active rows (1,1) and (3,3) have
    # t = 0 and s_arg = drop * 0, which is 0.0 for drop > 0 and -0.0 for drop < 0
    problem = ContractionProblem(
        space=BMetricSpace.from_values(range(4), s=2.0),
        relation=BinaryRelation({(0, 0), (0, 2), (1, 1), (3, 3)}),
        map=SelfMap({0: 0, 1: 0, 2: 2, 3: 2}),
        potential=Potential({0: 0.0, 1: 5.0, 2: 5.0, 3: 0.0}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    verdict, ledger = verify_contraction(problem), reference_ledger(problem)
    assert verdict.ok and verdict.active_count == 2
    assert_verdict_matches(verdict, ledger)
    zetas = [z for z in ledger["zeta_value"] if z is not None]
    assert zetas == [0.0, 0.0]
    assert [math.copysign(1.0, z) for z in zetas] == [1.0, -1.0]
    # the first of two equal values is the smallest, as min() keeps it
    assert math.copysign(1.0, verdict.zeta_min) == 1.0 and not verdict.zeta_min < 0
    cert = certify(problem, picard_iterate(problem, problem.space.points[0]), verdict)
    assert [(c["pair"], c["path"]) for c in cert.contradictions] == [((0.0, 2.0), [0.0, 2.0])]
    assert cert.contradictions[0]["note"].endswith(COUNTEREXAMPLE)


def test_certify_reads_a_tiny_negative_zeta_as_passing_only_by_tolerance():
    # the one active row (1, 3): s_arg = drop * d(1, 3) = 4 * drop and
    # t = 2 * d(0, 2) = 8, so zeta = 0.5 * s_arg - 8 sits just below 0
    problem = ContractionProblem(
        space=BMetricSpace.from_values(range(4), s=2.0),
        relation=BinaryRelation({(0, 0), (0, 2), (1, 3)}),
        map=SelfMap({0: 0, 1: 0, 2: 2, 3: 2}),
        potential=Potential({0: 0.0, 1: 4.0 - 5e-13, 2: 0.0, 3: 0.0}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    assert not verify_contraction(problem, tol=0.0).ok
    verdict, ledger = verify_contraction(problem, tol=1e-9), reference_ledger(problem, tol=1e-9)
    assert verdict.ok and verdict.active_count == 1
    assert_verdict_matches(verdict, ledger)
    (zeta,) = [z for z in ledger["zeta_value"] if z is not None]
    assert -2e-12 < zeta < -5e-13
    assert verdict.zeta_min == zeta
    cert = certify(problem, picard_iterate(problem, problem.space.points[0]), verdict)
    assert [c["pair"] for c in cert.contradictions] == [(0.0, 2.0)]
    assert cert.contradictions[0]["note"].endswith(INCONSISTENT)


def count_calls(monkeypatch):
    """Count certify's path searches and every read of ContractionVerdict.active_rows,
    the row index list expanded from the verdict's spans, and of
    BinaryRelation.pairs, the pair set built from a relation's rows."""
    calls = Counter()
    search, rows = solver.verify_uniqueness_condition, ContractionVerdict.active_rows
    pairs = BinaryRelation.pairs

    def counting_search(problem, a, b):
        calls["search"] += 1
        return search(problem, a, b)

    def counting_rows(verdict):
        calls["active_rows"] += 1
        return rows.fget(verdict)

    def counting_pairs(relation):
        calls["pairs"] += 1
        return pairs.fget(relation)

    monkeypatch.setattr(solver, "verify_uniqueness_condition", counting_search)
    monkeypatch.setattr(ContractionVerdict, "active_rows", property(counting_rows))
    monkeypatch.setattr(BinaryRelation, "pairs", property(counting_pairs))
    return calls


def test_a_report_never_builds_the_pair_set(monkeypatch):
    # the build and every reader walk or test the relation's bit rows, so no
    # op holds a set of |R| pairs beside them
    calls = count_calls(monkeypatch)
    bundles = [load_fixture(path.name) for path in sorted(FIXTURES.glob("*.problem"))]
    rng = random.Random(5)
    bundles += [ProblemBundle(problem=random_problem(rng), solver=SolverBlock())
                for _ in range(8)]
    for bundle in bundles:
        run_command("report", bundle)
    assert calls["pairs"] == 0
    assert bundles[0].problem.relation.pairs and calls["pairs"] == 1  # the counter counts


def test_certify_reads_related_pairs_and_the_smallest_zeta_in_one_pass(monkeypatch):
    calls = count_calls(monkeypatch)
    problem = complete_even_fixed(24)
    cert = certify(problem, picard_iterate(problem, problem.space.points[0]))
    assert cert.contradiction_count == len(cert.contradictions) == 66
    assert all(c["path"] == list(c["pair"]) and c["note"].endswith(COUNTEREXAMPLE)
               for c in cert.contradictions)
    # the whole report, certificate and lambda threshold included
    report, ok = run_command("report", ProblemBundle(problem=problem, solver=SolverBlock()))
    assert report["certificate"].contradiction_count == 66 and not ok
    assert not calls


def test_certify_searches_once_per_pair_joined_through_other_points(monkeypatch):
    # a descending chain 6 -> 5 -> ... -> 0 with every even point fixed: no two
    # fixed points are related, so each path runs from b to a through odd points
    n = 7
    relation = BinaryRelation({(k + 1, k) for k in range(n - 1)})
    problem = ContractionProblem(
        space=BMetricSpace.from_values(range(n), s=2.0),
        relation=relation,
        map=SelfMap({k: k - k % 2 for k in range(n)}),
        potential=Potential({k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    calls = count_calls(monkeypatch)
    trace = fixed_start_trace(problem)
    cert = certify(problem, trace)
    assert calls == {"search": 6}
    expected = [((a, b), [float(k) for k in reference_find_path(relation, b, a)])
                for a in range(0, n, 2) for b in range(a + 2, n, 2)]
    assert [(c["pair"], c["path"]) for c in cert.contradictions] == expected
    assert all(len(c["path"]) > 2 for c in cert.contradictions)


def test_each_command_computes_the_admissible_set_once(monkeypatch):
    # report starts from the first admissible point its hypotheses listed
    from relfix import contraction, report
    calls = Counter()

    def counting_mfr(*args, _mfr=contraction.compute_mfr):
        calls["compute_mfr"] += 1
        return _mfr(*args)

    for module in (contraction, report):
        monkeypatch.setattr(module, "compute_mfr", counting_mfr)
    # the fixed-points shape, but 0 is unrelated to itself and 1 maps to 2, so
    # the lowest admissible point is 1 and its orbit stays in R
    n = 24
    problem = ContractionProblem(
        space=BMetricSpace.from_values(range(n), s=2.0),
        relation=BinaryRelation({(a, b) for a in range(n) for b in range(n)} - {(0, 0)}),
        map=SelfMap({k: 2 if k == 1 else k - k % 2 for k in range(n)}),
        potential=Potential({k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)}),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )
    bundle = ProblemBundle(problem=problem, solver=SolverBlock())
    for command in ("report", "certify", "verify", "solve"):
        calls.clear()
        doc, _ = run_command(command, bundle)
        assert calls == {"compute_mfr": 1}, command
        if command != "verify":
            assert doc["trace"].orbit == [1.0, 2.0, 2.0], command


def test_readme_library_example():
    problem = load_fixture("example-3-1.problem").problem
    trace = picard_iterate(problem, problem.space.point_by_value(3.0))
    assert trace.orbit == [3.0, 2.0, 1.0, 1.0]
    assert certify(problem, trace).unique
