import re

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix import problemfile
from relfix.bmetric import BMetricSpace, UnknownPointError
from relfix.cli import main
from relfix.relation import BinaryRelation
from relfix.problemfile import (
    _KNOWN_SECTIONS,
    _PAIR_RE,
    _SECTION_RE,
    ProblemFileError,
    SolverBlock,
    _num,
    _parse_relation,
    build_problem,
    parse_problem,
)

from conftest import FIXTURES, float_pairs


def read(name):
    return (FIXTURES / name).read_text()


def test_example_fixture_parses():
    pf = parse_problem(read("example-3-1.problem"))
    assert pf.space.points == (1.0, 2.0, 3.0, 4.0)
    assert pf.space.s == 2.0
    assert len(float_pairs(pf.relation)) == 12
    assert pf.potential.linear_coeff == 3.0
    assert pf.zeta.lam == 0.9
    bundle = build_problem(pf)
    # piecewise map resolves to the step-down table
    assert bundle.problem.map.mapping == {0: 0, 1: 0, 2: 1, 3: 2}
    phi = bundle.problem.potential
    assert [phi(i) for i in range(4)] == [3.0, 6.0, 9.0, 12.0]


def test_syntax_error_is_line_anchored():
    text = "[space]\npoints = 1 2\nwhat even is this\n"
    with pytest.raises(ProblemFileError) as exc:
        parse_problem(text)
    assert exc.value.line == 3
    assert "key = value" in str(exc.value)


def test_s_below_one_rejected():
    text = read("example-3-1.problem").replace("s = 2", "s = 0.5")
    with pytest.raises(ProblemFileError, match="s >= 1 required"):
        parse_problem(text)


def test_negative_potential_rejected():
    text = read("example-3-1.problem").replace("formula = linear 3", "2 = -1\n1 = 0\n3 = 0\n4 = 0")
    with pytest.raises(ProblemFileError, match="codomain"):
        parse_problem(text)


def test_unknown_section_rejected():
    with pytest.raises(ProblemFileError, match="unknown section"):
        parse_problem("[nonsense]\n")


def test_missing_section_rejected():
    with pytest.raises(ProblemFileError, match=r"missing required section \[zeta\]"):
        parse_problem("[space]\npoints = 1\n[relation]\n[map]\n1 = 1\n[potential]\n1 = 0\n")


def test_content_before_section_rejected():
    with pytest.raises(ProblemFileError) as exc:
        parse_problem("points = 1 2\n")
    assert exc.value.line == 1


def test_relation_endpoint_outside_space():
    text = read("example-3-1.problem").replace("(3,4)", "(3,9)")
    with pytest.raises(ProblemFileError, match="not a point of the space"):
        build_problem(parse_problem(text))


def test_first_unknown_relation_endpoint_in_file_order_is_named():
    text = read("example-3-1.problem").replace("(3,4)", "(3,4) (1,99) (98,1)")
    with pytest.raises(ProblemFileError, match=r"relation endpoint 99\.0 is not a point"):
        build_problem(parse_problem(text))


def test_leading_byte_order_mark_is_dropped():
    text = read("example-3-1.problem")
    assert parse_problem("\ufeff" + text) == parse_problem(text)
    with pytest.raises(ProblemFileError, match="content before") as exc:
        parse_problem("\ufeff\ufeff" + text)  # only one leading mark is dropped
    assert exc.value.line == 1


def test_map_must_cover_every_point():
    text = read("example-3-1.problem").replace("piece = (3,4] -> 3\n", "")
    with pytest.raises(ProblemFileError, match="no piece covers"):
        build_problem(parse_problem(text))


def test_closure_flags_applied():
    pf = parse_problem(read("synthetic-geometric.problem"))
    assert pf.relation.transitive_closure
    bundle = build_problem(pf)
    # 20-point chain plus one loop closes to 190 strict pairs + the loop
    assert len(bundle.problem.relation) == 191


def test_s_override():
    pf = parse_problem(read("example-3-1.problem"))
    bundle = build_problem(pf, s_override=1.0)
    assert bundle.problem.space.s == 1.0


def test_duplicate_points_rejected():
    with pytest.raises(ProblemFileError, match="duplicate point") as exc:
        parse_problem("[space]\npoints = 1 1\n[relation]\n[map]\n1 = 1\n"
                      "[potential]\n1 = 0\n[zeta]\nfamily = linear\nlambda = 0.5\n")
    assert exc.value.line == 2


@pytest.mark.parametrize("value", ["inf", "1e400", "nan", "2.5", "0", "3.0"])
def test_max_iter_key_is_unknown(value):
    text = read("example-3-1.problem") + f"max-iter = {value}\n"
    with pytest.raises(ProblemFileError, match=r"unknown key 'max-iter' in \[solver\]") as exc:
        parse_problem(text)
    assert exc.value.line == len(text.splitlines())


@pytest.mark.parametrize("key, section", [
    ("complete", "space"), ("grid-sample", "space"), ("r-continuous", "map"),
])
def test_finiteness_flag_keys_are_unknown(key, section, tmp_path, capsys):
    # a finite space is complete and b-d-self-closed, so no key asserts either
    text = read("example-3-1.problem").replace(f"[{section}]\n", f"[{section}]\n{key} = true\n")
    line = text.splitlines().index(f"{key} = true") + 1
    message = f"unknown key '{key}' in [{section}]"
    with pytest.raises(ProblemFileError, match=re.escape(message)) as exc:
        parse_problem(text)
    assert exc.value.line == line
    path = tmp_path / "flag.problem"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert f"line {line}: {message}" in capsys.readouterr().err


def test_point_values_within_lookup_tolerance_rejected():
    # 1e-13 would resolve to the point 0, so (1e-13,5) would be stored as (0,5)
    text = ("[space]\npoints = 0 1e-13 5\n[relation]\npairs = (1e-13,5)\n"
            "[map]\npiece = [0,5] -> 0\n[potential]\nformula = linear 1\n"
            "[zeta]\nfamily = linear\nlambda = 0.5\n")
    with pytest.raises(ProblemFileError, match="duplicate point values 0.0 and 1e-13") as exc:
        parse_problem(text)
    assert exc.value.line == 2


def test_unknown_potential_key_is_named_before_its_value(tmp_path, capsys):
    text = read("example-3-1.problem").replace("formula = linear 3", "formla = linear 3")
    message = "line 19: unknown key 'formla' in [potential]"
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        parse_problem(text)
    path = tmp_path / "typo.problem"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_first_bad_relation_number_in_file_order_is_named():
    text = read("example-3-1.problem").replace(
        "pairs = (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3) (2,4) (3,1) (3,2) (3,3) (3,4)",
        "pairs = (1,2) (3,x) (y,4)")
    with pytest.raises(ProblemFileError, match=re.escape("line 11: expected a number, got 'x'")):
        parse_problem(text)


def test_a_bad_number_after_a_valid_repeat_is_named_in_file_order():
    # '1' and '2' repeat a valid token of an earlier pair or line, so only the
    # new tokens of the later line are converted; the first bad one is named
    text = read("example-3-1.problem").replace(
        "pairs = (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3) (2,4) (3,1) (3,2) (3,3) (3,4)",
        "pairs = (1,2) (2,1)\npair = (1,2) (2,y) (x,1) (1,z)")
    with pytest.raises(ProblemFileError, match=re.escape("line 12: expected a number, got 'y'")):
        parse_problem(text)


def test_an_unknown_endpoint_after_a_valid_repeat_is_named_in_file_order():
    # the unknown values are spelled after valid repeats of known tokens; 99
    # comes first in file order whatever order the distinct tokens resolve in
    for pairs in ("(1,2) (2,1)\npair = (1,2) (2,99) (98,1) (97,97)",
                  "(1,2) (2,99)\npair = (1,98) (2,2)",
                  "(1,2) (2,1.0)\npair = (1e0,2) (99.0,98) (2,97)"):
        text = read("example-3-1.problem").replace(
            "(1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3) (2,4) (3,1) (3,2) (3,3) (3,4)", pairs)
        with pytest.raises(ProblemFileError, match=r"relation endpoint 99\.0 is not a point"):
            build_problem(parse_problem(text))


# tokens for the points 0, 1, 2.5 and 7.25, several spellings each, two
# within VALUE_ATOL of a point, then values that are no point and bad numbers
SPELLINGS = {
    0.0: ["0", "0.0", "-0", "-0.0", "0e5"],
    1.0: ["1", "1.0", "1e0", "+1", "1.", "10e-1", "1.0000000000005"],
    2.5: ["2.5", "2.50", "25e-1", "2.4999999999999"],
    7.25: ["7.25", "725e-2"],
}
UNKNOWN = ["3", "1.1", "nan", "inf", "1.000000001"]
BAD = ["x", "1..2", "0x1"]
RELATION_TEXT = ("[space]\npoints = 0 1 2.5 7.25\n[relation]\n{}\n[map]\n"
                 "piece = [0,7.25] -> 0\n[potential]\nformula = linear 1\n"
                 "[zeta]\nfamily = linear\nlambda = 0.5\n")
FIRST_PAIRS_LINE = 4


def tokens(rare: list):
    """Mostly known tokens; ``rare`` ones (unknown or bad) now and then."""
    known = st.sampled_from([t for spelled in SPELLINGS.values() for t in spelled])
    return st.one_of(known, known, known, *([st.sampled_from(rare)] if rare else []))


@st.composite
def pairs_lines(draw, rare):
    """Lines of the [relation] section: 'pairs' or 'pair', compact or spaced."""
    lines = []
    for _ in range(draw(st.integers(1, 4))):
        pairs = draw(st.lists(st.tuples(tokens(rare), tokens(rare)), min_size=1, max_size=8))
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=3))  # repeated pairs
        form = draw(st.sampled_from(["({},{})", "( {} , {} )", "({}, {})"]))
        key = draw(st.sampled_from(["pairs", "pair"]))
        lines.append((pairs, f"{key} = " + " ".join(form.format(a, b) for a, b in pairs)))
    return lines


def reference_relation(space, lines):
    """The relation by definition: each token through float, then point_by_value,
    into a set of id pairs; the first bad or unknown token in file order raises."""
    for lineno, (pairs, _) in enumerate(lines, start=FIRST_PAIRS_LINE):
        for a, b in pairs:
            _num(a, lineno), _num(b, lineno)
    find = space.point_by_value
    try:
        return BinaryRelation({(find(float(a)).id, find(float(b)).id)
                               for pairs, _ in lines for a, b in pairs})
    except UnknownPointError as exc:
        raise ProblemFileError(f"relation endpoint {exc.args[0]} is not a point of the space")


def built_or_error(build):
    try:
        return build()
    except ProblemFileError as exc:
        return f"error: {exc}"


@settings(max_examples=150, deadline=None)
@given(st.one_of(pairs_lines([]), pairs_lines(UNKNOWN), pairs_lines(UNKNOWN + BAD)))
def test_the_relation_block_builds_the_definitional_relation(lines):
    text = RELATION_TEXT.format("\n".join(line for _, line in lines))
    space = BMetricSpace.from_values([0, 1, 2.5, 7.25])
    got = built_or_error(lambda: build_problem(parse_problem(text)).problem.relation)
    assert got == built_or_error(lambda: reference_relation(space, lines))


@pytest.mark.parametrize("pairs, stray", [
    ("(1,2) (2,3 (3,3)", "(2,3"),
    ("(1,2), (2,3)", ","),
    ("(1,2) (2,3) x", "x"),
])
def test_stray_text_between_pairs_is_rejected(pairs, stray, tmp_path, capsys):
    text = read("example-3-1.problem").replace(
        "pairs = (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3) (2,4) (3,1) (3,2) (3,3) (3,4)",
        f"pairs = {pairs}")
    message = f"line 11: stray text {stray!r} between pairs"
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        parse_problem(text)
    path = tmp_path / "stray.problem"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


def reference_pairs(value: str, line: int) -> tuple:
    """The regex split that tokenised every pairs line before the C-level
    tokeniser, as a tuple of float pairs or the ProblemFileError it raises."""
    parts = _PAIR_RE.split(value)
    if len(parts) == 1:
        raise ProblemFileError("expected pairs like (1,2) (2,3)", line)
    stray = " ".join(parts[::3]).split()
    if stray:
        raise ProblemFileError(f"stray text {stray[0]!r} between pairs", line)
    sources, targets = parts[1::3], parts[2::3]
    try:
        return tuple(zip(map(float, sources), map(float, targets)))
    except ValueError:
        for a, b in zip(sources, targets):
            _num(a, line), _num(b, line)
        raise


def parsed_pairs(parse, value: str) -> str:
    """The pairs ``parse`` reads from one line, or its error text; repr keeps
    nan and the sign of zero comparable."""
    try:
        return repr(parse(value))
    except ProblemFileError as exc:
        return f"error: {exc}"


# the regex's \s and str.split agree on these; U+200B is not whitespace
SPACES = st.sampled_from(["", " ", "  ", "\t", "\x0b", "\x1f", "\x85", "\u00a0", "\u2003",
                          "\u3000", "\u200b"])
NUMBERS = st.one_of(
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.floats().map(repr),
    st.sampled_from(["nan", "-inf", "+inf", "Infinity", "+1.5", "-0", "1e400", "1_000", ".5",
                     "5.", "", "x", "1.2.3", "--1", "\u0663"]),
)
PAIR = st.tuples(st.lists(SPACES, min_size=6, max_size=6), NUMBERS, NUMBERS).map(
    lambda t: "{}({}{a}{},{}{b}{}){}".format(*t[0], a=t[1], b=t[2]))
FRAGMENT = st.one_of(PAIR, SPACES, st.sampled_from([
    "(", ")", ",", "((1,2))", "(1,2", "1,2)", "(1,(2,3))", "(1,2,3)", "()", "(,)", "x", "(1 2)",
    "(1 2 3)", "(1,2 3", "(1,2("]))


@settings(max_examples=400, deadline=None)
@given(st.one_of(st.lists(PAIR, min_size=1, max_size=6).map("".join),
                 st.lists(FRAGMENT, max_size=8).map("".join)))
@example("(1,2)\u00a0(3,\u30004)")
@example("(nan, inf) (-0,+1e400)")
@example("(1,2) (3,4")
@example("((1,2))")
@example("(1,2)(3,\u200b4)")
@example("(1 2 3)")
@example("(1,2 3")
@example("((,0)")
@example("")
def test_pairs_line_reads_as_the_regex_split_reads_it(value):
    line = 7
    assert (parsed_pairs(lambda v: float_pairs(_parse_relation([("pairs", v, line)])), value)
            == parsed_pairs(lambda v: reference_pairs(v, line), value))


class OnePairSplit:
    """Stands in for _PAIR_RE: every line splits into the one pair (7, 8)."""

    def split(self, value):
        return ["", "7", "8", ""]


def test_a_bad_third_number_is_named_and_keeps_no_pair(monkeypatch, tmp_path, capsys):
    # the line is well formed, so the tokeniser converts it and fails on 'x'
    text = read("example-3-1.problem").replace(
        "pairs = (1,1) (1,2) (1,3) (1,4) (2,1) (2,2) (2,3) (2,4) (3,1) (3,2) (3,3) (3,4)",
        "pairs = (1,2) (x,3) (3,4)\npair = (4,4)")
    message = "line 11: expected a number, got 'x'"
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        parse_problem(text)
    path = tmp_path / "bad.problem"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err
    # a well-formed line never reaches the regex split, which would read every
    # line as (7, 8): the bad token is named from the tokens themselves
    monkeypatch.setattr(problemfile, "_PAIR_RE", OnePairSplit())
    items = [("pairs", "(1,2) (x,3) (3,4)", 11), ("pair", "(4,4)", 12)]
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        _parse_relation(items)
    assert float_pairs(_parse_relation(items[1:])) == ((4.0, 4.0),)
    # a malformed line takes the split, and its pairs are the split's
    items = [("pairs", "(1,2) (3,4", 11), ("pair", "(4,4)", 12)]
    assert float_pairs(_parse_relation(items)) == ((7.0, 8.0), (4.0, 4.0))


def test_pairs_tokens_convert_as_float():
    grid = " ".join(f"({a},{b})" for a in range(24) for b in range(24))
    for value in ("(-0.0,0.0)", "(1,1.0)", "(1e0,2)", "(-0.0, -0.0) (0.0,-0.0)", grid):
        tokens = [t for pair in _PAIR_RE.findall(value) for t in pair]
        got = [x for pair in float_pairs(_parse_relation([("pairs", value, 1)])) for x in pair]
        # repr tells -0.0 from 0.0
        assert list(map(repr, got)) == [repr(float(t)) for t in tokens]
    assert len(grid.split()) == 576


# every key = value line was split by this regex, both groups then stripped
OLD_KV_RE = re.compile(r"^([^=]+?)\s*=\s*(.*)$")
FIXTURE = read("example-3-1.problem")  # its last section is [solver]
LAST_LINE = len(FIXTURE.splitlines()) + 1


def solver_items(line: str):
    """The items parse_problem hands the [solver] parser when ``line`` ends the
    example fixture, or the error it raises."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(problemfile, "_parse_solver", lambda items: seen.append(items) or SolverBlock())
        try:
            parse_problem(f"{FIXTURE}{line}\n")
        except ProblemFileError as exc:
            return f"error: {exc}"
    return seen[0]


def old_solver_items(raw: str):
    """solver_items as the regex split gave them."""
    items = [("start", "3", LAST_LINE - 1)]
    line = raw.split("#", 1)[0].strip()
    if not line:
        return items
    m = _SECTION_RE.match(line)
    if m:
        if m.group(1) not in _KNOWN_SECTIONS:
            return f"error: line {LAST_LINE}: unknown section [{m.group(1)}]"
        return items
    m = OLD_KV_RE.match(line)
    if not m:
        return f"error: line {LAST_LINE}: expected 'key = value', got {line!r}"
    return items + [(m.group(1).strip(), m.group(2).strip(), LAST_LINE)]


@pytest.mark.parametrize("line, item", [
    ("=1", "error: line 27: expected 'key = value', got '=1'"),
    ("a=", ("a", "")),
    ("a = b = c", ("a", "b = c")),
    ("[x] = 1", ("[x]", "1")),
    ("a\u3000\x1f=\tb\u3000", ("a", "b")),
    ("no equals here", "error: line 27: expected 'key = value', got 'no equals here'"),
])
def test_a_line_splits_at_its_first_equals_sign(line, item):
    got = solver_items(line)
    assert got == old_solver_items(line)
    assert got == (item if isinstance(item, str) else [("start", "3", 26), (*item, 27)])


@settings(max_examples=400, deadline=None)
@given(st.text(alphabet="abkvyzAZ09=[]# \t\x1f\u3000", max_size=16))
@example("[solver]")
@example("[x]")
@example("#=")
def test_a_line_reads_as_the_regex_split_reads_it(line):
    assert solver_items(line) == old_solver_items(line)


@pytest.mark.parametrize("section, key, value", [
    ("space", "points", "1 2 3 4"), ("space", "metric", "squared-difference"), ("space", "s", "2"),
    ("relation", "transitive-closure", "false"), ("relation", "symmetric-closure", "false"),
    ("potential", "formula", "linear 3"),
    ("zeta", "family", "linear"), ("zeta", "lambda", "0.9"), ("zeta", "mu", "1"),
    ("solver", "start", "3"),
])
def test_single_valued_key_set_twice_is_rejected(section, key, value, tmp_path, capsys):
    # the key goes right under its header; where the fixture lacks it, twice
    text = read("example-3-1.problem")
    lines = text.splitlines()
    header = lines.index(f"[{section}]") + 1
    present = any(line.startswith(f"{key} = ") for line in lines)
    added = f"{key} = {value}\n" * (1 if present else 2)
    text = text.replace(f"[{section}]\n", f"[{section}]\n{added}")
    first = header + 1
    second = next(i for i, line in enumerate(text.splitlines(), 1)
                  if i > first and line.startswith(f"{key} = "))
    message = f"line {second}: {key!r} is set twice, on lines {first} and {second}"
    with pytest.raises(ProblemFileError, match=re.escape(message)) as exc:
        parse_problem(text)
    assert exc.value.line == second
    path = tmp_path / "twice.problem"
    path.write_text(text)
    assert main(["verify", str(path)]) == 2
    assert message in capsys.readouterr().err


EXPLICIT = ("[space]\npoints = 1 2 3\n[relation]\npairs = (1,1) (2,1)\n"
            "[map]\n1 = 1\n2 = 1\n3 = 2\n[potential]\n1 = 0\n2 = 1\n3 = 2\n"
            "[zeta]\nfamily = linear\nlambda = 0.5\n")


@pytest.mark.parametrize("old, new, message", [
    ("2 = 1\n", "2 = 1\n2 = 3\n", "point 2.0 has two [map] entries"),
    ("2 = 1\n", "2 = 1\n2.0 = 1\n", "point 2.0 has two [map] entries"),  # 2 and 2.0 are one point
    ("3 = 2\n[p", "2.0000000000001 = 3\n3 = 2\n[p",                   # within VALUE_ATOL of 2
     "point 2.0 has two [map] entries"),
    ("3 = 2\n[z", "3 = 2\n3.0 = 5\n[z", "point 3.0 has two [potential] entries"),
])
def test_two_entries_for_one_point_are_rejected(old, new, message):
    text = EXPLICIT.replace(old, new, 1)
    assert text != EXPLICIT
    with pytest.raises(ProblemFileError, match=re.escape(message)):
        build_problem(parse_problem(text))


def test_repeatable_keys_accumulate():
    assert build_problem(parse_problem(EXPLICIT)).problem.map.mapping == {0: 0, 1: 0, 2: 1}
    text = read("example-3-1.problem")
    one = build_problem(parse_problem(text)).problem.relation
    split = text.replace("(2,4) (3,1)", "(2,4)\npair = (3,1)")
    assert build_problem(parse_problem(split)).problem.relation == one
    table = ("[space]\npoints = 0 1\nmetric = table\nrow = 0 1\nrow = 1 0\n[relation]\n"
             "pairs = (0,1)\n[map]\npiece = [0,0] -> 0\npiece = (0,1] -> 0\n"
             "[potential]\nformula = linear 1\n[zeta]\nfamily = linear\nlambda = 0.5\n")
    problem = build_problem(parse_problem(table)).problem
    assert problem.space._d == ((0.0, 1.0), (1.0, 0.0))
    assert problem.map.mapping == {0: 0, 1: 0}
