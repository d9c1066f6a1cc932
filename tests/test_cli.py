import hashlib
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import relfix
from relfix.cli import _parser, main
from relfix.problemfile import build_problem, parse_problem
from relfix.report import SCHEMA_VERSION, _plain, header, run_command

from conftest import FIXTURES
from ledger_reference import reference_ledger, reference_row

EX = str(FIXTURES / "example-3-1.problem")
EX_TEXT = (FIXTURES / "example-3-1.problem").read_text()
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


def test_report_passes(capsys):
    code, out, _ = run(capsys, "report", EX)
    assert code == 0
    assert "overall_pass: True" in out
    assert "[3.0, 2.0, 1.0, 1.0]" in out
    assert "fixed_points: [1.0]" in out


def test_json_report(capsys):
    code, out, _ = run(capsys, "report", EX, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert doc["certificate"]["unique"] is True
    assert doc["trace"]["orbit"] == [3.0, 2.0, 1.0, 1.0]
    assert doc["header"]["schema_version"] == 7
    assert len(doc["header"]["input_digest"]) == 64


def test_json_determinism(capsys):
    _, first, _ = run(capsys, "report", EX, "--json")
    _, second, _ = run(capsys, "report", EX, "--json")
    a, b = json.loads(first), json.loads(second)
    a.pop("header"), b.pop("header")  # timestamps live only in the header
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_axioms_with_s_override_fails(capsys):
    code, out, _ = run(capsys, "axioms", EX, "--s", "1", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["bmetric_axioms"]["triangle_ok"] is False
    assert [1.0, 3.0, 2.0] in doc["bmetric_axioms"]["triangle_witnesses"]


def fixture_ledger(name):
    """The column ledger of a fixture's contraction verdict."""
    return reference_ledger(build_problem(parse_problem((FIXTURES / name).read_text())).problem)


def test_verify_usual_metric_shows_ratio_one(capsys):
    code, _, _ = run(capsys, "verify", str(FIXTURES / "remark-usual-metric.problem"), "--json")
    assert code == 0
    ledger = fixture_ledger("remark-usual-metric.problem")
    i = reference_row(ledger, 2.0, 4.0)
    assert ledger["d_image_pair"][i] == 2.0
    assert ledger["d_pair"][i] == 2.0
    assert ledger["d_image_pair"][i] / ledger["d_pair"][i] == 1.0


def test_b_simulation_bound_in_ledger(capsys):
    code, _, _ = run(capsys, "verify", str(FIXTURES / "remark-b-simulation.problem"), "--json")
    assert code == 0
    ledger = fixture_ledger("remark-b-simulation.problem")
    i = reference_row(ledger, 2.0, 4.0)
    assert ledger["d_pair"][i] - ledger["s"] * ledger["d_image_pair"][i] == -4.0


JSON_COMMANDS = [["report"], ["axioms", "--s", "1"], ["verify"], ["solve"], ["certify"]]


@pytest.mark.parametrize("command", JSON_COMMANDS, ids=" ".join)
@pytest.mark.parametrize("fixture", sorted(p.name for p in FIXTURES.glob("*.problem")))
def test_json_is_one_line_with_sorted_keys(capsys, fixture, command):
    _, out, _ = run(capsys, command[0], str(FIXTURES / fixture), *command[1:], "--json")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_human_verify_prints_lists_and_entry_counts(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", EX)
    assert code == 0
    assert "\n      symmetric: [[0, 3], [1, 3], [2, 3]]\n" in out
    # each level indents two spaces more: relation -> counterexamples -> transitive
    assert "\n  counterexamples:\n    transitive: []\n" in out
    assert "\n    witnesses:\n      reflexive: [3]\n" in out
    assert "    active_count: 8\n    failing_count: 0\n  all_hypotheses_ok: True\n" in out
    assert "linear_lambda_threshold: 0.6666666666666666 (given lambda: 0.9)\n" in out
    code, out, _ = run(capsys, "certify", write(tmp_path, TAMPERED), "--tol", "1")
    assert "  contradictions: [1 entries]\n" in out


def test_human_ledger_prints_the_first_failing_rows(tmp_path, capsys):
    # F steps down by one and phi is flat: every active row with rho != sigma
    # has s_arg = 0 < t = |sigma - rho|, so 20 of the 25 active rows fail
    points = " ".join(map(str, range(6)))
    path = write(tmp_path, (
        f"[space]\npoints = {points}\nmetric = absolute-difference\n[relation]\n"
        + "".join(f"pair = ({a},{b})\n" for a in range(6) for b in range(1, 6))
        + "[map]\n0 = 0\n" + "".join(f"{a} = {a - 1}\n" for a in range(1, 6))
        + "[potential]\nformula = linear 0\n[zeta]\nlambda = 0.5\n"
    ))
    code, out, _ = run(capsys, "verify", path)
    assert code == 1
    assert "    active_count: 25\n    failing_count: 20\n    failing row 6: " in out
    rows = [line for line in out.splitlines() if line.startswith("    failing row ")]
    assert len(rows) == 10
    assert rows[0] == "    failing row 6: sigma 1.0, rho 2.0, t 1.0, s_arg 0.0, zeta_value -1.0"
    assert "linear_lambda_threshold: None (given lambda: 0.5)\n" in out


def test_readme_documents_every_option():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme[readme.index("## Command line"):readme.index("## Library")]
    options = {o for a in _parser()._actions for o in a.option_strings if o.startswith("--")}
    assert set(re.findall(r"--[a-z][a-z-]*", section)) == options - {"--help"}


def test_readme_states_the_current_schema():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    stated = re.findall(r"schema_version`? (\d+)|\(schema (\d+)\)", readme)
    assert len(stated) >= 2
    assert {int(a or b) for a, b in stated} == {SCHEMA_VERSION}


def test_plain_converts_only_dataclasses():
    with pytest.raises(TypeError):
        json.dumps({1, 2}, default=_plain)


@pytest.mark.parametrize("value", ["-3", "0", "3"])
def test_max_iter_option_is_rejected(capsys, value):
    # the orbit stops at its first repeated point; there is no cap to set
    with pytest.raises(SystemExit) as exc:
        main(["solve", EX, "--max-iter", value, "--json"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and not out
    assert "unrecognized arguments: --max-iter" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_tol_is_input_error(capsys, value):
    code, out, err = run(capsys, "axioms", "no-such-file", f"--tol={value}", "--json")
    assert code == 2 and not out
    # rejected before the file is read
    assert err == "relfix: --tol: tol must be finite\n"


@pytest.mark.parametrize("command, option, value, code, message", [
    ("axioms", "--tol", "-1e-3", 1, ""),
    ("axioms", "--tol", "-inf", 2, "relfix: --tol: tol must be finite\n"),
    ("axioms", "--s", "-1e0", 2, f"relfix: {EX}: s >= 1 required\n"),
    ("solve", "--start", "-1e-3", 2, "relfix: start -0.001 is not a point of the space\n"),
], ids=["tol-exponent", "tol-inf", "s-exponent", "start-exponent"])
def test_negative_option_value_parses_as_after_equals(capsys, command, option, value, code, message):
    # argparse reads "-1e-3" or "-inf" after an option as an option of its own
    def without_header(code, out, err):
        doc = json.loads(out) if out else None
        if doc:
            del doc["header"]
        return code, doc, err

    joined = without_header(*run(capsys, command, EX, f"{option}={value}", "--json"))
    assert without_header(*run(capsys, command, EX, option, value, "--json")) == joined
    assert joined[0] == code and joined[2] == message


def test_absolute_difference_min_feasible_s_is_exactly_one(tmp_path, capsys):
    # a float max of distance ratios read 1.0000000000000002 here
    path = tmp_path / "abs.problem"
    path.write_text(
        "[space]\npoints = 0.2 0.3 1.1\nmetric = absolute-difference\ns = 1\n"
        "[relation]\npairs = (0.2,0.2)\n[map]\n0.2 = 0.2\n0.3 = 0.2\n1.1 = 0.2\n"
        "[potential]\nformula = linear 1\n[zeta]\nfamily = linear\nlambda = 0.5\n"
    )
    code, out, _ = run(capsys, "axioms", str(path))
    assert code == 0
    assert "  triangle_ok: True\n  min_feasible_s: 1.0\n" in out


def test_axioms_caps_the_triangle_witnesses_and_counts_them_all(tmp_path, capsys):
    # squared-difference at s = 1 fails exactly when b lies strictly between a
    # and w: 2 * C(40, 3) = 19,760 ordered triples
    points = " ".join(map(str, range(40)))
    path = write(tmp_path, (
        f"[space]\npoints = {points}\nmetric = squared-difference\n"
        "[relation]\npairs = (0,0)\n[map]\n"
        + "".join(f"{a} = 0\n" for a in range(40))
        + "[potential]\nformula = linear 1\n[zeta]\nfamily = linear\nlambda = 0.5\n"
    ))
    code, out, _ = run(capsys, "axioms", path, "--s", "1", "--json")
    assert code == 1
    axioms = json.loads(out)["bmetric_axioms"]
    assert axioms["triangle_ok"] is False
    assert axioms["triangle_witness_count"] == 40 * 39 * 38 // 3 == 19760
    assert len(axioms["triangle_witnesses"]) == 256
    assert len(out.encode()) < 16 * 1024


def test_solve_with_start_override(capsys):
    code, out, _ = run(capsys, "solve", EX, "--start", "2", "--json")
    assert code == 0
    assert json.loads(out)["trace"]["orbit"] == [2.0, 1.0, 1.0]


def test_inadmissible_start_is_input_error(capsys):
    code, _, err = run(capsys, "solve", EX, "--start", "4")
    assert code == 2
    assert "start 4.0 (point id 3) is not in the admissible set" in err
    assert "allow_inadmissible_start" not in err


def test_missing_file(capsys):
    code, _, err = run(capsys, "report", "no-such-file")
    assert code == 2
    assert "cannot read" in err


def test_bad_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.problem"
    bad.write_text(
        "[space]\npoints = 1 2\ns = 0.5\n[relation]\n[map]\n1 = 1\n2 = 1\n"
        "[potential]\nformula = linear 1\n[zeta]\nfamily = linear\nlambda = 0.5\n"
    )
    code, _, err = run(capsys, "report", str(bad))
    assert code == 2
    assert "s >= 1" in err


def test_certify_command(capsys):
    code, out, _ = run(capsys, "certify", EX, "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["certificate"]["solver_result"] == 1.0


def test_default_start_is_smallest_admissible(capsys):
    # no --start and no [solver] start: picks the smallest id in M(F;R)
    text = EX_TEXT.replace("start = 3\n", "")
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".problem", delete=False) as fh:
        fh.write(text)
        path = fh.name
    try:
        code, out, _ = run(capsys, "solve", path, "--json")
        assert code == 0
        assert json.loads(out)["trace"]["orbit"][0] == 1.0
    finally:
        os.unlink(path)


def two_point_problem(map_lines, potential_lines):
    return (
        "[space]\npoints = 1 2\n[relation]\npairs = (1,1) (2,1)\n"
        f"[map]\n{map_lines}\n[potential]\n{potential_lines}\n"
        "[zeta]\nfamily = linear\nlambda = 0.5\n"
    )


@pytest.mark.parametrize("text", [
    two_point_problem("1 = 1\n2 = 7", "formula = linear 1"),
    two_point_problem("1 = 1\n7 = 1", "formula = linear 1"),
    two_point_problem("piece = [1,2] -> 7", "formula = linear 1"),
    two_point_problem("1 = 1\n2 = 1", "1 = 0\n2 = 1\n7 = 1"),
], ids=["map-image", "map-source", "piece-image", "potential-key"])
def test_unknown_point_value_is_input_error(tmp_path, capsys, text):
    path = tmp_path / "unknown.problem"
    path.write_text(text)
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert "7.0 is not a point of the space" in err


# the line of example-3-1's [zeta] body that opens it, "family = linear"
ZETA_LINE = EX_TEXT.splitlines().index("family = linear") + 1


def test_unknown_zeta_family_is_line_anchored_input_error(tmp_path, capsys):
    path = tmp_path / "table.problem"
    text = EX_TEXT
    path.write_text(text.replace("family = linear", "family = table"))
    code, _, err = run(capsys, "report", str(path))
    assert code == 2
    assert f"line {ZETA_LINE}: unknown zeta family 'table', expected linear or scaled" in err


def with_zeta(tmp_path, zeta_lines):
    """example-3-1 with its two-line [zeta] body, from ZETA_LINE on, replaced."""
    path = tmp_path / "zeta.problem"
    text = EX_TEXT
    path.write_text(text.replace("family = linear\nlambda = 0.9\n", zeta_lines))
    return str(path)


@pytest.mark.parametrize("lam, mu", [("0.001", "0.999"), ("1.001", "10")])
def test_axioms_rejects_scaled_zeta_breaking_zeta2(tmp_path, capsys, lam, mu):
    path = with_zeta(tmp_path, f"family = scaled\nlambda = {lam}\nmu = {mu}\n")
    code, out, _ = run(capsys, "axioms", path, "--json")
    zeta = json.loads(out)["zeta_axioms"]
    assert code == 1
    assert not zeta["zeta2_ok"]
    [(t, s_arg, value)] = zeta["zeta2_witnesses"]
    assert value >= s_arg - t


def test_infinite_mu_is_input_error(tmp_path, capsys):
    path = with_zeta(tmp_path, "family = scaled\nlambda = 0.5\nmu = inf\n")
    code, _, err = run(capsys, "axioms", path)
    assert code == 2
    assert "0 < lambda < mu < inf" in err


@pytest.mark.parametrize("zeta_lines, offset", [
    ("family = linear\nmu = 3\nlambda = 0.9\n", 1),
    ("mu = 3\nfamily = linear\nlambda = 0.9\n", 0),
    ("lambda = 0.9\nmu = 3\n", 1),
], ids=["after-family", "before-family", "default-family"])
def test_mu_under_linear_is_line_anchored_input_error(tmp_path, capsys, zeta_lines, offset):
    # offset: the mu line's place in the new [zeta] body
    code, _, err = run(capsys, "verify", with_zeta(tmp_path, zeta_lines))
    assert code == 2
    assert f"line {ZETA_LINE + offset}: the linear zeta family takes no mu" in err


def test_unknown_start_is_input_error(capsys):
    code, _, err = run(capsys, "solve", EX, "--start", "99")
    assert code == 2
    assert "99.0 is not a point of the space" in err


# two connected fixed points 0 and 1; the row (2,1) has
# zeta = 0.5*1 - 1 = -0.5, which --tol 1 lets pass
TAMPERED = (
    "[space]\npoints = 0 1 2\nmetric = absolute-difference\ns = 1\n"
    "[relation]\npairs = (0,0) (0,1) (2,0) (2,1)\n"
    "[map]\n0 = 0\n1 = 1\n2 = 0\n"
    "[potential]\n0 = 0\n1 = 0\n2 = 1\n"
    "[zeta]\nfamily = linear\nlambda = 0.5\n"
)


@pytest.mark.parametrize("text, status", [(EX_TEXT, 0), (TAMPERED, 1)], ids=["passing", "failing"])
@pytest.mark.parametrize("json_flag", [[], ["--json"]], ids=["human", "json"])
def test_closed_stdout_ends_quietly_with_the_verdict_status(text, status, json_flag):
    # the problem arrives on stdin only after the reader has closed stdout, so
    # the first write meets a closed pipe, as under `relfix report FILE | head -1`
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(relfix.__file__).parents[1]))
    # block-buffered, a pipe's default, so the interpreter's exit flush is tested too
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.Popen(
        [sys.executable, "-m", "relfix.cli", "report", "/dev/stdin", *json_flag],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(text.encode(), timeout=60)
    assert (proc.returncode, err) == (status, b"")


def test_report_certifies_on_the_printed_verdict(tmp_path, capsys):
    path = tmp_path / "tampered.problem"
    path.write_text(TAMPERED)
    code, out, _ = run(capsys, "report", str(path), "--tol", "1", "--json")
    doc = json.loads(out)
    assert doc["hypotheses"]["contraction"]["ok"] is True
    assert doc["hypotheses"]["contraction"]["tol"] == 1.0
    assert [c["pair"] for c in doc["certificate"]["contradictions"]] == [[0.0, 1.0]]
    assert code == 1


def test_certify_judges_at_the_given_tol(tmp_path, capsys):
    path = tmp_path / "tampered.problem"
    path.write_text(TAMPERED)
    code, out, _ = run(capsys, "certify", str(path), "--tol", "1", "--json")
    assert [c["pair"] for c in json.loads(out)["certificate"]["contradictions"]] == [[0.0, 1.0]]
    assert code == 1


def write(tmp_path, text):
    path = tmp_path / "case.problem"
    path.write_text(text)
    return str(path)


# 0 -> 1 -> 2 -> 1: the orbit stops at the first repeated point
CYCLE = (
    "[space]\npoints = 0 1 2\nmetric = absolute-difference\n"
    "[relation]\npairs = (0,1) (1,2) (2,1) (1,1) (2,2)\n"
    "[map]\n0 = 1\n1 = 2\n2 = 1\n"
    "[potential]\nformula = linear 1\n[zeta]\nlambda = 0.5\n[solver]\nstart = 0\n"
)


def test_cycle_report_prints_no_certificate(tmp_path, capsys):
    code, out, _ = run(capsys, "report", write(tmp_path, CYCLE), "--json")
    doc = json.loads(out)
    assert doc["trace"]["orbit"] == [0.0, 1.0, 2.0, 1.0]
    assert doc["trace"]["terminated_by"] == "cycle"
    assert "certificate" not in doc and doc["overall_pass"] is False
    assert code == 1


AXIOMS_KEYS = ["bmetric_axioms", "zeta_axioms"]
VERIFY_KEYS = ["relation", "hypotheses", "linear_lambda_threshold"]
SOLVE_KEYS = ["trace", "ratio_diagnostics"]


@pytest.mark.parametrize("text, command, keys", [
    (EX_TEXT, "axioms", AXIOMS_KEYS),
    (EX_TEXT, "verify", VERIFY_KEYS),
    (EX_TEXT, "solve", SOLVE_KEYS),
    (EX_TEXT, "certify", SOLVE_KEYS + ["certificate"]),
    (EX_TEXT, "report", AXIOMS_KEYS + VERIFY_KEYS + SOLVE_KEYS + ["certificate"]),
    (CYCLE, "report", AXIOMS_KEYS + VERIFY_KEYS + SOLVE_KEYS),
], ids=["axioms", "verify", "solve", "certify", "report", "cycle-report"])
def test_report_keys_keep_their_order(text, command, keys):
    # the --json goldens sort their keys; the human output prints them in this order
    report, _ = run_command(command, build_problem(parse_problem(text)))
    assert list(report) == ["header", "command", *keys, "overall_pass"]


def test_tol_does_not_stop_the_iteration(capsys):
    code, out, _ = run(capsys, "certify", EX, "--tol", "1", "--json")
    doc = json.loads(out)
    assert doc["trace"]["orbit"] == [3.0, 2.0, 1.0, 1.0]
    assert doc["certificate"]["solver_result"] == 1.0
    assert code == 0


def test_solver_tol_key_is_input_error(tmp_path, capsys):
    text = EX_TEXT + "tol = 0\n"
    code, out, err = run(capsys, "solve", write(tmp_path, text))
    assert code == 2 and not out
    assert f"line {len(text.splitlines())}: unknown key 'tol' in [solver]" in err


# a chain 2e-12 -> 0 -> 1e150 whose step ratio overflows to inf
OVERFLOWING_RATIO = (
    "[space]\npoints = 0 2e-12 1e150\n"
    "[relation]\npairs = (2e-12,0) (0,1e150) (1e150,1e150)\n"
    "[map]\n0 = 1e150\n2e-12 = 0\n1e150 = 1e150\n"
    "[potential]\nformula = linear 0\n[zeta]\nlambda = 0.5\n[solver]\nstart = 2e-12\n"
)


@pytest.mark.parametrize("output", [[], ["--json"]], ids=["human", "json"])
@pytest.mark.parametrize("case", ["b-simulation-s", "ratio"])
def test_overflow_is_input_error(tmp_path, capsys, case, output):
    if case == "ratio":
        argv = ["solve", write(tmp_path, OVERFLOWING_RATIO)]
    else:
        argv = ["verify", str(FIXTURES / "remark-b-simulation.problem"), "--s", "1e308"]
    code, out, err = run(capsys, *argv, *output)
    assert code == 2 and not out
    assert len(err.splitlines()) == 1 and "a report quantity is not finite" in err


def report_body(out: str) -> str:
    """A --json report re-indented as the goldens are, header removed."""
    doc = json.loads(out)
    del doc["header"]
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_main_can_be_called_repeatedly_in_one_process(capsys):
    golden = (GOLDEN / "example-3-1.report.json").read_text()
    code, out, _ = run(capsys, "report", EX, "--s", "1", "--tol", "1e-3", "--json")
    assert code == 1 and report_body(out) != golden
    code, out, _ = run(capsys, "report", EX, "--json")
    assert code == 0 and report_body(out) == golden
    with pytest.raises(SystemExit) as exc:
        main(["nonsense", EX])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    code, out, _ = run(capsys, "report", EX, "--json")
    assert code == 0 and report_body(out) == golden


@settings(max_examples=200, deadline=None)
@given(st.binary(max_size=4096))
@example(b"")
def test_header_digest_is_hashlibs_sha256(data):
    assert header(data)["input_digest"] == hashlib.sha256(data).hexdigest()


# with both built-in SHA-256 modules blocked, report.py falls back to hashlib
FALLBACK_CHECK = """
import sys
sys.modules["_sha2"] = sys.modules["_sha256"] = None
import relfix.cli
assert "_hashlib" in sys.modules
sys.exit(relfix.cli.main(["report", sys.argv[1], "--json"]))
"""


def test_header_digest_falls_back_to_hashlib():
    env = {"PYTHONPATH": str(pathlib.Path(relfix.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-S", "-B", "-c", FALLBACK_CHECK, EX],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    raw = (FIXTURES / "example-3-1.problem").read_bytes()
    assert json.loads(proc.stdout)["header"]["input_digest"] == hashlib.sha256(raw).hexdigest()


def test_byte_order_mark_is_accepted(tmp_path, capsys):
    raw = b"\xef\xbb\xbf" + (FIXTURES / "example-3-1.problem").read_bytes()
    path = tmp_path / "bom.problem"
    path.write_bytes(raw)
    code, out, err = run(capsys, "report", str(path), "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["header"]["input_digest"] == hashlib.sha256(raw).hexdigest()
    _, plain, _ = run(capsys, "report", EX, "--json")
    assert report_body(out) == report_body(plain)
