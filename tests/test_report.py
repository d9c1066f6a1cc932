"""The bounded report body (schema 5).

Every list in a report keeps the first WITNESS_CAP entries of the full list,
in scan order, next to an exact count; the contraction ledger's JSON view
keeps its scalars and its first WITNESS_CAP failing rows, each with all seven
quantities.  The full lists here come from the pair-set references, the
column ledger reference, and references written in the test.
"""

import json
import random
import time
from collections import Counter
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix.bmetric import WITNESS_CAP, BMetricSpace
from relfix.contraction import ContractionProblem, Potential, SelfMap, verify_contraction
from relfix.problemfile import ProblemBundle, SolverBlock
from relfix.relation import BinaryRelation, find_path
from relfix.report import _plain, _utc_isoformat, header, run_command
from relfix.simulation import SimulationFunction
from relfix.solver import RelationBroken, enumerate_fixed_points

from instance_gen import random_problem
from ledger_reference import COLUMNS, reference_ledger
from pair_set_reference import (reference_complete_witnesses, reference_f_closed_witnesses,
                                reference_transitivity_witnesses)

def as_json(value):
    return json.loads(json.dumps(value, default=_plain))


def first(full: list) -> list:
    return as_json(full[:WITNESS_CAP])


def check_bounded_view(problem: ContractionProblem) -> dict:
    """Check every capped list of the report against its full list; returns the JSON body."""
    bundle = ProblemBundle(problem=problem, solver=SolverBlock())
    try:
        report, _ = run_command("report", bundle)
    except (ValueError, RelationBroken):  # no admissible start, or the orbit leaves R
        report, _ = run_command("verify", bundle)
    doc = as_json(report)
    space, R, mapping = problem.space, problem.relation, problem.map.mapping

    full = {"transitive": reference_transitivity_witnesses(R),
            "complete": reference_complete_witnesses(R, len(space)),
            "f_closed": reference_f_closed_witnesses(R, mapping)}
    rel = doc["relation"]
    assert rel["counterexamples"] == {k: first(w) for k, w in full.items()}
    assert rel["counterexample_counts"] == {k: len(w) for k, w in full.items()}

    hyp = doc["hypotheses"]
    for key in ("transitive", "f_closed"):
        assert hyp[key] == rel[key] == (not full[key])

    pairs, pair_set = R.sorted_pairs(), R.pairs
    diag = {
        "reflexive": [a for a in range(len(space)) if (a, a) not in pair_set],
        "irreflexive": [a for a, b in pairs if a == b],
        "symmetric": [(a, b) for a, b in pairs if (b, a) not in pair_set],
        "antisymmetric": [(a, b) for a, b in pairs if a != b and (b, a) in pair_set],
    }
    assert rel["diagnostics"]["witnesses"] == {k: first(w) for k, w in diag.items()}
    assert rel["diagnostics"]["witness_counts"] == {k: len(w) for k, w in diag.items()}

    verdict, columns = verify_contraction(problem), reference_ledger(problem)
    ledger = hyp["contraction"]
    assert set(ledger) == {"ok", "s", "tol", "active_count", "failing_count", "failing_rows"}
    assert ledger["failing_count"] == len(columns["failing"])
    head = columns["failing"][:WITNESS_CAP]
    assert ledger["failing_rows"] == as_json(
        {"row": head, **{name: [columns[name][i] for i in head] for name in COLUMNS}})

    if "certificate" in doc:
        cert = doc["certificate"]
        fps = [p.id for p in enumerate_fixed_points(space, problem.map)]
        contraction_ok = verdict.ok and verdict.active_count > 0
        connected, unconnected = [], []
        for i, a in enumerate(fps):
            for b in fps[i + 1:]:
                path = find_path(R, a, b) or find_path(R, b, a)
                pair = (space.point(a).value, space.point(b).value)
                if path is None:
                    unconnected.append(pair)
                elif contraction_ok:
                    connected.append((pair, path.value_nodes(space)))
        assert [[c["pair"], c["path"]] for c in cert["contradictions"]] == first(connected)
        assert cert["contradiction_count"] == len(connected)
        assert len({c["note"] for c in cert["contradictions"]}) <= 1
        assert cert["unconnected_pairs"] == first(unconnected)
        assert cert["unconnected_count"] == len(unconnected)
        assert doc["overall_pass"] is False or not connected
    return doc


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_report_lists_are_the_first_entries_of_the_full_lists(seed):
    check_bounded_view(random_problem(random.Random(seed)))


def integer_problem(n, pairs, mapping, potential) -> ContractionProblem:
    return ContractionProblem(
        space=BMetricSpace.from_values(range(n), s=2.0),
        relation=BinaryRelation(pairs),
        map=SelfMap(mapping),
        potential=Potential(potential),
        zeta=SimulationFunction(family="linear", lam=0.5),
    )


def fixedpoints(n):
    """Complete relation, every even point fixed, odd points map to their left neighbour."""
    return integer_problem(n, {(a, b) for a in range(n) for b in range(n)},
                           {k: k - k % 2 for k in range(n)},
                           {k: 0.0 if k % 2 == 0 else 1e6 for k in range(n)})


def isolated_fixed_points(n):
    """Every point fixed and related only to itself: no pair of fixed points connects."""
    return integer_problem(n, {(a, a) for a in range(n)}, {k: k for k in range(n)},
                           dict.fromkeys(range(n), 0.0))


def loopless_constant_map(n):
    """Every distinct pair related, F constant 0, phi rising towards 0: the
    relation is neither transitive nor F-closed, and every active row has
    s_arg < 0."""
    return integer_problem(n, {(a, b) for a in range(n) for b in range(n) if a != b},
                           dict.fromkeys(range(n), 0), {k: float(n - k) for k in range(n)})


@pytest.mark.parametrize("build, n, counts", [
    (fixedpoints, 24, {"antisymmetric": 552, "contradiction_count": 66}),
    (fixedpoints, 48, {"antisymmetric": 2256, "contradiction_count": 276}),
    (isolated_fixed_points, 24, {"complete": 276, "unconnected_count": 276}),
    (loopless_constant_map, 24, {"transitive": 552, "f_closed": 552, "failing_count": 529}),
], ids=["fixedpoints-24", "fixedpoints-48", "isolated-24", "loopless-24"])
def test_lists_above_the_cap_keep_their_first_entries_and_exact_counts(build, n, counts):
    doc = check_bounded_view(build(n))
    rel, cert = doc["relation"], doc.get("certificate", {})
    found = {**rel["counterexample_counts"], **rel["diagnostics"]["witness_counts"],
             "failing_count": doc["hypotheses"]["contraction"]["failing_count"],
             **{k: cert[k] for k in ("contradiction_count", "unconnected_count") if k in cert}}
    assert {k: found[k] for k in counts} == counts
    assert max(counts.values()) > WITNESS_CAP


def test_each_relation_predicate_scans_once_per_op(monkeypatch):
    # the hypotheses read F-closedness and transitivity off the relation report
    from relfix import contraction, relation

    # R relates every distinct pair and (0, 0), so it is not transitive, and F
    # sends (1, 2) to (3, 3), so it is not F-closed; the orbit of 0 stays at 0
    n = 24
    problem = integer_problem(n, {(a, b) for a in range(n) for b in range(n) if a != b} | {(0, 0)},
                              {k: 3 if k in (1, 2) else 0 for k in range(n)},
                              dict.fromkeys(range(n), 0.0))
    space, R, mapping = problem.space, problem.relation, problem.map.mapping
    scans = Counter()
    for name in ("is_transitive", "is_f_closed"):
        def counting_scan(*args, _scan=getattr(relation, name), _name=name):
            scans[_name] += 1
            return _scan(*args)
        for module in (relation, contraction):
            monkeypatch.setattr(module, name, counting_scan)
    once = {"is_transitive": 1, "is_f_closed": 1}
    for command in ("report", "verify"):
        scans.clear()
        report, ok = run_command(command, ProblemBundle(problem=problem, solver=SolverBlock()))
        assert scans == once and not ok
        rel, hyp = report["relation"], report["hypotheses"]
        for key, full in (("transitive", reference_transitivity_witnesses(R)),
                          ("f_closed", reference_f_closed_witnesses(R, mapping))):
            assert getattr(hyp, key) is getattr(rel, key) is False
            assert getattr(hyp, key) == (rel.counterexample_counts[key] == 0)
            assert rel.counterexample_counts[key] == len(full)
            assert rel.counterexamples[key] == full[:WITNESS_CAP]
    # library callers that pass no relation report still get both scans
    scans.clear()
    hyp = contraction.verify_all_hypotheses(problem)
    assert scans == once
    scans.clear()
    rel = relation.build_relation_report(space, R, mapping)
    assert scans == once
    assert (hyp.transitive, hyp.f_closed) == (rel.transitive, rel.f_closed)


# every nanosecond count up to the last second of year 9999
@given(st.integers(min_value=0, max_value=253_402_300_800 * 10**9 - 1))
@example(0)
@example(1_760_000_000 * 10**9 + 999)         # microsecond 0: no fraction is written
@example(1_760_000_000 * 10**9 + 1_000)       # microsecond 1
@example(951_782_400 * 10**9 + 999_999_999)   # 2000-02-29, microsecond 999999
def test_generated_at_is_the_isoformat_of_the_utc_datetime(ns):
    sec, rest = divmod(ns, 10**9)
    expected = datetime.fromtimestamp(sec, timezone.utc).replace(microsecond=rest // 1000)
    assert _utc_isoformat(ns) == expected.isoformat()


def test_header_time_reads_back_as_an_aware_utc_datetime():
    before = time.time()
    stamp = datetime.fromisoformat(header(b"")["generated_at"])
    assert stamp.tzinfo == timezone.utc
    assert before - 1 <= stamp.timestamp() <= time.time()
