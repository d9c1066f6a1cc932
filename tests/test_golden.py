"""Byte-identity gate: header-stripped JSON reports against committed goldens.

``tests/golden/`` holds the ``--json`` report of every fixture under
``report``, ``axioms --s 1``, ``verify``, ``solve`` and ``certify`` with the header
removed, plus one SHA-256 digest per seeded sweep of acceptance criteria 7
and 8, and one over the ``report`` bodies of the problem files at scale in
``scale_problems``.  The fixture reports and criterion 7's documents must also be strict
JSON: no ``NaN`` or ``Infinity`` token.  A change to how a quantity is computed (distance matrix, relation
index, scan order) must leave all of them byte-identical.  ``sweeps.json``
also records the ``report.SCHEMA_VERSION`` the goldens were written at.
Regenerate only when a report is meant to change, from the root of a checkout:

    PYTHONPATH=src:tests python3 tests/test_golden.py

Regeneration writes nothing if a golden's key set changed while
``SCHEMA_VERSION`` is still the recorded one: a report whose fields change
bumps the schema.
"""

import contextlib
import hashlib
import io
import itertools
import json
import pathlib
import random
import tempfile

import pytest

from relfix.bmetric import BMetricSpace
from relfix.cli import main
from relfix.problemfile import ProblemBundle, SolverBlock
from relfix.relation import build_relation_report, symmetric_closure, transitive_closure
from relfix.report import SCHEMA_VERSION, _plain, run_command
from relfix.solver import RelationBroken, StartNotAdmissible

from conftest import FIXTURES
from instance_gen import random_problem, random_relation_and_map
from ledger_reference import assert_verdict_matches, reference_ledger
from scale_problems import SCALE_PROBLEMS

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"
COMMANDS = {
    "report": ["report"],
    "axioms-s1": ["axioms", "--s", "1"],
    "verify": ["verify"],
    "solve": ["solve"],
    "certify": ["certify"],
}
FIXTURE_NAMES = sorted(p.stem for p in FIXTURES.glob("*.problem"))


def _dump(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, default=_plain) + "\n"


def _reject_constant(token):
    raise ValueError(f"{token} is not JSON (RFC 8259)")


def strict_loads(text: str):
    return json.loads(text, parse_constant=_reject_constant)


def cli_doc(argv: list) -> dict:
    """The CLI's --json report for these arguments, header removed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        main(argv + ["--json"])
    doc = strict_loads(out.getvalue())
    del doc["header"]
    return doc


def fixture_report(stem: str, command: str) -> str:
    """The CLI's --json report for one fixture and command, header removed."""
    argv = COMMANDS[command][:1] + [str(FIXTURES / f"{stem}.problem")] + COMMANDS[command][1:]
    return _dump(cli_doc(argv))


def _command_doc(command: str, bundle: ProblemBundle) -> dict:
    try:
        doc, _ = run_command(command, bundle)
    except (StartNotAdmissible, RelationBroken, ValueError) as exc:
        return {"command": command, "error": str(exc)}
    del doc["header"]
    return doc


def sweep_7_digest() -> str:
    """Axioms, verify and certify reports over criterion 7's seeded sweep, each
    followed by the column ledger of the verify verdict: its report fields,
    every failing row index and the seven columns the report body leaves out.
    Each draw's verdict is checked against that ledger."""
    rng = random.Random(20260823)
    docs = []
    for _ in range(200):
        bundle = ProblemBundle(problem=random_problem(rng), solver=SolverBlock())
        reports = [_command_doc(c, bundle) for c in ("axioms", "verify", "certify")]
        ledger = reference_ledger(bundle.problem)
        assert_verdict_matches(reports[1]["hypotheses"].contraction, ledger)
        docs.append(reports + [ledger])
    text = _dump(docs)
    strict_loads(text)
    return hashlib.sha256(text.encode()).hexdigest()


def sweep_8_digest() -> str:
    """Relation reports, closures and successor lists over criterion 8's seeded sweep."""
    rng = random.Random(7)
    docs = []
    for _ in range(200):
        R, mapping = random_relation_and_map(rng)
        n = len(mapping)
        space = BMetricSpace.from_values(range(n))
        sym = symmetric_closure(R)
        docs.append({
            "relation": _plain(build_relation_report(space, R, mapping)),
            "symmetric": _plain(build_relation_report(space, sym, mapping)),
            "transitive_closure": transitive_closure(R).sorted_pairs(),
            "successors": [R.successors(a) for a in range(n)],
        })
    return hashlib.sha256(_dump(docs).encode()).hexdigest()


def scale_digest() -> str:
    """``report`` bodies of the problem files in ``scale_problems``, read from disk."""
    docs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in SCALE_PROBLEMS.items():
            path = pathlib.Path(tmp) / f"{name}.problem"
            path.write_text(text())
            docs[name] = cli_doc(["report", str(path)])
    return hashlib.sha256(_dump(docs).encode()).hexdigest()


SWEEPS = {"criterion_7": sweep_7_digest, "criterion_8": sweep_8_digest, "scale": scale_digest}


@pytest.mark.parametrize("command", sorted(COMMANDS))
@pytest.mark.parametrize("stem", FIXTURE_NAMES)
def test_fixture_report_is_byte_identical(stem, command):
    expected = (GOLDEN / f"{stem}.{command}.json").read_text()
    got = fixture_report(stem, command)
    if got != expected:
        # name the first differing line: pytest's diff of whole documents is slow to render
        pairs = itertools.zip_longest(expected.splitlines(True), got.splitlines(True),
                                      fillvalue="<end>")
        line, (want, have) = next((i, p) for i, p in enumerate(pairs, 1) if p[0] != p[1])
        pytest.fail(f"{stem}.{command}.json line {line}:\n  golden: {want!r}\n  report: {have!r}",
                    pytrace=False)


@pytest.mark.parametrize("sweep", sorted(SWEEPS))
def test_sweep_digest_is_unchanged(sweep):
    expected = json.loads((GOLDEN / "sweeps.json").read_text())[sweep]
    assert SWEEPS[sweep]() == expected


def test_goldens_record_the_schema_version():
    assert json.loads((GOLDEN / "sweeps.json").read_text())["schema_version"] == SCHEMA_VERSION


def key_paths(doc, prefix: str = "") -> set:
    """Every key path of a JSON document: "a.b" for doc["a"]["b"], "a[].b"
    for the key b of an element of the list doc["a"]."""
    if isinstance(doc, dict):
        return {path for k, v in doc.items()
                for path in (f"{prefix}.{k}", *key_paths(v, f"{prefix}.{k}"))}
    if isinstance(doc, list):
        return set().union(*(key_paths(v, f"{prefix}[]") for v in doc))
    return set()


def check_regeneration(goldens: dict, golden_dir: pathlib.Path = GOLDEN) -> None:
    """Exit, naming the files, when a new golden (name -> text) has another key
    set than the committed one while SCHEMA_VERSION is the recorded one."""
    recorded = golden_dir / "sweeps.json"
    if not recorded.exists() or json.loads(recorded.read_text()).get("schema_version") != SCHEMA_VERSION:
        return
    changed = [name for name, text in sorted(goldens.items())
               if (golden_dir / name).exists()
               and key_paths(json.loads((golden_dir / name).read_text())) != key_paths(json.loads(text))]
    if changed:
        raise SystemExit(f"key sets changed in {', '.join(changed)} while SCHEMA_VERSION is still "
                         f"{SCHEMA_VERSION}: bump relfix.report.SCHEMA_VERSION first; nothing written")


def test_regeneration_refuses_a_key_change_without_a_schema_bump(tmp_path):
    (tmp_path / "a.json").write_text('{"x": [{"y": 1}]}')
    (tmp_path / "sweeps.json").write_text(json.dumps({"schema_version": SCHEMA_VERSION}))
    check_regeneration({"a.json": '{"x": [{"y": 2}, {"y": 3}]}', "new.json": "{}"}, tmp_path)
    for changed in ('{"x": [{"z": 1}]}', '{"x": [], "w": 0}'):
        with pytest.raises(SystemExit, match="a.json"):
            check_regeneration({"a.json": changed}, tmp_path)
    (tmp_path / "sweeps.json").write_text(json.dumps({"schema_version": SCHEMA_VERSION - 1}))
    check_regeneration({"a.json": '{"z": 1}'}, tmp_path)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    goldens = {f"{stem}.{command}.json": fixture_report(stem, command)
               for stem in FIXTURE_NAMES for command in COMMANDS}
    goldens["sweeps.json"] = _dump({"schema_version": SCHEMA_VERSION,
                                    **{name: fn() for name, fn in SWEEPS.items()}})
    check_regeneration(goldens)
    for name, text in goldens.items():
        (GOLDEN / name).write_text(text)
