"""Line-oriented problem files: parsing, validation, assembly.

A problem file is a sequence of ``[section]`` headers and ``key = value``
lines; ``#`` starts a comment.  Sections: space, relation, map, potential,
zeta, solver.  Repeated keys (``row``, ``piece``, ``pair``/``pairs``)
accumulate in order; every other key may appear once per section, and each
point at most once among the ``[map]`` and among the ``[potential]``
entries.  Point-valued fields always refer to points by their value, which
is how fixtures are written and diffed.
"""

from __future__ import annotations

import re
from collections import namedtuple

from .bmetric import VALUE_ATOL, BMetricSpace, UnknownPointError
from .relation import BinaryRelation, symmetric_closure, transitive_closure
from .contraction import ContractionProblem, SelfMap, Potential
from .simulation import FAMILIES, SimulationFunction


class ProblemFileError(ValueError):
    """Syntax or semantic error, anchored to a source line when known."""

    def __init__(self, message, line: int | None = None):
        self.line = line
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)


class Piece(namedtuple("Piece", "lo hi lo_closed hi_closed image")):
    """A piecewise map row: points between ``lo`` and ``hi`` (an end is included
    when its flag is true) map to the point at ``image``."""

    __slots__ = ()

    def contains(self, v: float) -> bool:
        above = v > self.lo or (self.lo_closed and v == self.lo)
        below = v < self.hi or (self.hi_closed and v == self.hi)
        return above and below


class SpaceBlock(namedtuple("SpaceBlock", "points metric rows s",
                            defaults=("squared-difference", (), 1.0))):
    """``[space]``: the point values, the metric name, the table rows and s."""

    __slots__ = ()


class RelationBlock(namedtuple("RelationBlock",
                               "sources targets values transitive_closure symmetric_closure",
                               defaults=(False, False))):
    """``[relation]``: the pairs' source and target tokens in file order, the
    float each distinct token converts to, and the two closure flags."""

    __slots__ = ()


class MapBlock(namedtuple("MapBlock", "entries pieces", defaults=((), ()))):
    """``[map]``: (source, image) value entries or ``Piece`` rows, never both."""

    __slots__ = ()


class PotentialBlock(namedtuple("PotentialBlock", "entries linear_coeff", defaults=((), None))):
    """``[potential]``: (point, value) entries or a linear coefficient, never both."""

    __slots__ = ()


class ZetaBlock(namedtuple("ZetaBlock", "family lam mu", defaults=("linear", None, None))):
    """``[zeta]``: the family name and its coefficients; None leaves one unset."""

    __slots__ = ()


class SolverBlock(namedtuple("SolverBlock", "start", defaults=(None,))):
    """``[solver]``: the start point value, or None for the lowest admissible id."""

    __slots__ = ()


class ProblemFile(namedtuple("ProblemFile", "space relation map potential zeta solver",
                             defaults=(SolverBlock(),))):
    """A parsed problem file: one block per section."""

    __slots__ = ()


_SECTION_RE = re.compile(r"^\[([a-z-]+)\]$")
_PAIR_RE = re.compile(r"\(\s*([^,()\s]+)\s*,\s*([^,()\s]+)\s*\)")
_PIECE_RE = re.compile(
    r"^([\[\(])\s*([^,\s]+)\s*,\s*([^\]\)\s]+)\s*([\]\)])\s*->\s*(\S+)$"
)

_KNOWN_SECTIONS = ("space", "relation", "map", "potential", "zeta", "solver")


def _num(text: str, line: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise ProblemFileError(f"expected a number, got {text!r}", line)


def _flag(text: str, line: int) -> bool:
    t = text.strip().lower()
    if t in ("true", "yes", "1"):
        return True
    if t in ("false", "no", "0"):
        return False
    raise ProblemFileError(f"expected true/false, got {text!r}", line)


def _once(seen: dict, key: str, line: int):
    """Record the line of a single-valued key; a second one raises, naming both."""
    first = seen.setdefault(key, line)
    if first != line:
        raise ProblemFileError(f"{key!r} is set twice, on lines {first} and {line}", line)


def parse_problem(text: str) -> ProblemFile:
    """Parse problem-file text; the first error raises with its line number.

    A leading UTF-8 byte-order mark (U+FEFF) is dropped.
    """
    sections: dict[str, list] = {}
    current = None
    for lineno, raw in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = line[0] == "[" and _SECTION_RE.match(line)
        if m:
            current = m.group(1)
            if current not in _KNOWN_SECTIONS:
                raise ProblemFileError(f"unknown section [{current}]", lineno)
            sections.setdefault(current, [])
            continue
        if current is None:
            raise ProblemFileError("content before the first [section] header", lineno)
        # split at the first '='; the line is stripped, so the key is empty
        # only when the line starts with '=', and only the inner ends need stripping
        key, eq, value = line.partition("=")
        if not (eq and key):
            raise ProblemFileError(f"expected 'key = value', got {line!r}", lineno)
        sections[current].append((key.rstrip(), value.lstrip(), lineno))

    for required in ("space", "relation", "map", "potential", "zeta"):
        if required not in sections:
            raise ProblemFileError(f"missing required section [{required}]")

    return ProblemFile(
        space=_parse_space(sections["space"]),
        relation=_parse_relation(sections["relation"]),
        map=_parse_map(sections["map"]),
        potential=_parse_potential(sections["potential"]),
        zeta=_parse_zeta(sections["zeta"]),
        solver=_parse_solver(sections.get("solver", [])),
    )


def _parse_space(items) -> SpaceBlock:
    points, metric, rows, s, seen = None, "squared-difference", [], 1.0, {}
    for key, value, line in items:
        if key == "points":
            _once(seen, key, line)
            points = tuple(_num(v, line) for v in value.split())
            if not points:
                raise ProblemFileError("points list is empty", line)
            # every later section finds a point by value within VALUE_ATOL
            ordered = sorted(points)
            for lo, hi in zip(ordered, ordered[1:]):
                if hi - lo <= VALUE_ATOL:
                    raise ProblemFileError(
                        f"duplicate point values {lo!r} and {hi!r}: at most {VALUE_ATOL!r} apart", line)
        elif key == "metric":
            _once(seen, key, line)
            metric = value
        elif key == "row":
            rows.append(tuple(_num(v, line) for v in value.split()))
        elif key == "s":
            _once(seen, key, line)
            s = _num(value, line)
            if s < 1:
                raise ProblemFileError("s >= 1 required", line)
        else:
            raise ProblemFileError(f"unknown key {key!r} in [space]", line)
    if points is None:
        raise ProblemFileError("[space] requires a points line")
    return SpaceBlock(points=points, metric=metric, rows=tuple(rows), s=s)


def _parse_relation(items) -> RelationBlock:
    sources, targets, values, tc, sc, seen = [], [], {}, False, False, {}
    for key, value, line in items:
        if key in ("pairs", "pair"):
            # a well-formed line is the tokens ( a , b ) repeated: padding the
            # punctuation with spaces lets str.split, whose whitespace is the
            # regex's \s, tokenise it; a and b hold no punctuation, so the
            # line holds k of each punctuation character
            tokens = value.replace("(", " ( ").replace(")", " ) ").replace(",", " , ").split()
            k = len(tokens) // 5
            if (k and len(tokens) == 5 * k and tokens[::5] == ["("] * k
                    and tokens[2::5] == [","] * k and tokens[4::5] == [")"] * k
                    and value.count("(") == value.count(")") == value.count(",") == k):
                src, tgt = tokens[1::5], tokens[3::5]
            else:
                # any other line takes the regex split, which writes every
                # pairs error: [text, a, b, text, a, b, ..., text], the two
                # groups of each match between the texts around it
                parts = _PAIR_RE.split(value)
                if len(parts) == 1:
                    raise ProblemFileError("expected pairs like (1,2) (2,3)", line)
                stray = " ".join(parts[::3]).split()
                if stray:
                    raise ProblemFileError(f"stray text {stray[0]!r} between pairs", line)
                src, tgt = parts[1::3], parts[2::3]
            # each token new to the section is converted once, before the line
            # adds a pair
            new = set(src).union(tgt).difference(values)
            try:
                values.update(zip(new, map(float, new)))
            except ValueError:  # name the first bad token in file order
                for a, b in zip(src, tgt):
                    _num(a, line), _num(b, line)
                raise
            sources += src
            targets += tgt
        elif key == "transitive-closure":
            _once(seen, key, line)
            tc = _flag(value, line)
        elif key == "symmetric-closure":
            _once(seen, key, line)
            sc = _flag(value, line)
        else:
            raise ProblemFileError(f"unknown key {key!r} in [relation]", line)
    return RelationBlock(sources=tuple(sources), targets=tuple(targets), values=values,
                         transitive_closure=tc, symmetric_closure=sc)


def _parse_map(items) -> MapBlock:
    entries, pieces = [], []
    for key, value, line in items:
        if key == "piece":
            m = _PIECE_RE.match(value)
            if not m:
                raise ProblemFileError("expected a piece like [1,2] -> 1", line)
            lo_b, lo, hi, hi_b, img = m.groups()
            pieces.append(Piece(_num(lo, line), _num(hi, line),
                                lo_b == "[", hi_b == "]", _num(img, line)))
        else:
            try:
                src = float(key)
            except ValueError:
                raise ProblemFileError(f"unknown key {key!r} in [map]", line) from None
            entries.append((src, _num(value, line)))
    if entries and pieces:
        raise ProblemFileError("[map] mixes explicit entries and piecewise rows")
    if not entries and not pieces:
        raise ProblemFileError("[map] requires entries or pieces")
    return MapBlock(entries=tuple(entries), pieces=tuple(pieces))


def _parse_potential(items) -> PotentialBlock:
    entries, coeff, seen = [], None, {}
    for key, value, line in items:
        if key == "formula":
            _once(seen, key, line)
            parts = value.split()
            if len(parts) != 2 or parts[0] != "linear":
                raise ProblemFileError("potential formula must be 'linear C'", line)
            coeff = _num(parts[1], line)
        else:
            try:
                point = float(key)
            except ValueError:
                raise ProblemFileError(f"unknown key {key!r} in [potential]", line) from None
            v = _num(value, line)
            if v < 0:
                raise ProblemFileError("potential codomain [0, ∞) violated", line)
            entries.append((point, v))
    if entries and coeff is not None:
        raise ProblemFileError("[potential] mixes explicit entries and a formula")
    if not entries and coeff is None:
        raise ProblemFileError("[potential] requires entries or a formula")
    return PotentialBlock(entries=tuple(entries), linear_coeff=coeff)


def _parse_zeta(items) -> ZetaBlock:
    family, lam, mu, seen = "linear", None, None, {}
    for key, value, line in items:
        if key == "family":
            _once(seen, key, line)
            if value not in FAMILIES:
                expected = " or ".join(FAMILIES)
                raise ProblemFileError(f"unknown zeta family {value!r}, expected {expected}", line)
            family = value
        elif key == "lambda":
            _once(seen, key, line)
            lam = _num(value, line)
        elif key == "mu":
            _once(seen, key, line)
            mu = _num(value, line)
        else:
            raise ProblemFileError(f"unknown key {key!r} in [zeta]", line)
    if family == "linear" and mu is not None:
        raise ProblemFileError("the linear zeta family takes no mu", seen["mu"])
    return ZetaBlock(family=family, lam=lam, mu=mu)


def _parse_solver(items) -> SolverBlock:
    start, seen = None, {}
    for key, value, line in items:
        if key == "start":
            _once(seen, key, line)
            start = _num(value, line)
        else:
            raise ProblemFileError(f"unknown key {key!r} in [solver]", line)
    return SolverBlock(start=start)


class ProblemBundle(namedtuple("ProblemBundle", "problem solver")):
    """A fully assembled problem plus solver options, ready for the modules."""

    __slots__ = ()


def _one_entry_per_point(space: BMetricSpace, section: str, by_id: dict, entries: tuple):
    """Raise when two of ``entries`` name one point; ``by_id`` holds one item per
    point they name, so the search runs only when it is the shorter."""
    if len(by_id) == len(entries):
        return
    seen = set()
    for value, _ in entries:
        p = space.point_by_value(value)
        if p.id in seen:
            raise ProblemFileError(f"point {p.value!r} has two [{section}] entries")
        seen.add(p.id)


def build_problem(pf: ProblemFile, s_override: float | None = None) -> ProblemBundle:
    """Assemble module objects from a parsed file; semantic errors name the invariant."""
    sb = pf.space
    space = BMetricSpace.from_values(
        sb.points,
        metric=sb.metric,
        table=sb.rows or None,
        s=s_override if s_override is not None else sb.s,
    )

    # one handler for every point-valued field; `where` names the field read
    where = "relation endpoint"
    try:
        rb = pf.relation
        relation = BinaryRelation.from_tokens(space, rb.sources, rb.targets, rb.values)

        where = "map value"
        mapping = {}
        if pf.map.pieces:
            for p in space.points:
                piece = next((pc for pc in pf.map.pieces if pc.contains(p.value)), None)
                if piece is None:
                    raise ProblemFileError(f"map not total: no piece covers point {p.value}")
                mapping[p.id] = space.point_by_value(piece.image).id
        else:
            for src, img in pf.map.entries:
                mapping[space.point_by_value(src).id] = space.point_by_value(img).id
            _one_entry_per_point(space, "map", mapping, pf.map.entries)

        where = "potential key"
        if pf.potential.linear_coeff is not None:
            values = {p.id: pf.potential.linear_coeff * p.value for p in space.points}
        else:
            values = {space.point_by_value(v).id: x for v, x in pf.potential.entries}
            _one_entry_per_point(space, "potential", values, pf.potential.entries)
    except UnknownPointError as exc:
        raise ProblemFileError(f"{where} {exc.args[0]} is not a point of the space") from None
    if pf.relation.symmetric_closure:
        relation = symmetric_closure(relation)
    if pf.relation.transitive_closure:
        relation = transitive_closure(relation)
    fmap = SelfMap(mapping=mapping)
    potential = Potential(values=values)

    zb = pf.zeta
    zeta = SimulationFunction(family=zb.family, lam=zb.lam, mu=zb.mu)

    problem = ContractionProblem(space=space, relation=relation, map=fmap,
                                 potential=potential, zeta=zeta)
    return ProblemBundle(problem=problem, solver=pf.solver)
