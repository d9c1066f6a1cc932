"""Binary relations over a finite b-metric space and the relational hypotheses.

A relation is stored as its bit rows, its one index: ``_rows[a]`` is an
int whose bit b is set when (a, b) is in R.  ``_cols``, their transpose, is
built with them: ``_cols[b]`` is the int whose bit a is.  Both span ids
0..max id, so relations with the same pairs have the same rows, and walking
each row's bits in id order yields the pairs in ``sorted(pairs)`` order.
Closure, transitivity, completeness, F-closedness and the diagnostics are
word operations on the rows.  ``transitive_closure`` marks the relation it
returns transitive (``_transitive``, a class default of False that no other
construction sets), so the transitivity verdict reads a closed relation's
mark and none of its rows.  Each predicate and the diagnostics count their
witnesses exactly, with ``bit_count`` where a row gives them, into a
``bmetric.Witnesses``, which keeps the first WITNESS_CAP of each kind and
lists no pair past them, so no witness list grows with R.  A bit
position is an id, so ids must lie in [0, ID_LIMIT).  Every query is a
read-only function; what it memoises (say, a result per distinct row value)
lives only for that call, so concurrent use is safe.  The mark is set once,
as the closure is built, and is no memo: it records how R was made.
"""

from __future__ import annotations

from collections import deque, namedtuple
from functools import reduce
from itertools import chain, compress, count, islice, repeat
from operator import or_

from .bmetric import _BINARY_DIGITS, BMetricSpace, UnknownPointError, Witnesses, _pid
from .records import fresh, record

# a space of 2**16 points already has a 2**32-entry distance matrix, so no
# space relfix can build holds a larger id, and no row asks for a huge int
ID_LIMIT = 2 ** 16

_BYTE_BITS = [()]  # _BYTE_BITS[mask] for mask < 256, built by doubling
for _b in range(8):
    _BYTE_BITS += [bits + (_b,) for bits in _BYTE_BITS]


def _bits(mask: int) -> tuple:
    """The positions of the set bits of a nonnegative int, ascending."""
    if mask < 256:
        return _BYTE_BITS[mask]
    # adding the lowest set bit carries through a single run of set bits,
    # leaving none of them, so such a row is the range of its ends
    low = mask & -mask
    if not (mask + low) & mask:
        return tuple(range(low.bit_length() - 1, mask.bit_length()))
    # the binary digits, least significant first, as 0/1 bytes
    return tuple(compress(count(), bin(mask)[:1:-1].encode().translate(_BINARY_DIGITS)))


def _pairs(masks: list):
    """The pairs (a, b) with bit b of masks[a] set, in (a, b) order."""
    for a, mask in enumerate(masks):
        for b in _bits(mask):
            yield a, b


def _pair_witnesses(masks: list) -> Witnesses:
    """``_pairs(masks)``, counted by ``bit_count``; no row after the list fills is read."""
    return Witnesses(sum(map(int.bit_count, masks)), _pairs(masks))


class BinaryRelation:
    """A relation on point ids, held as its bit rows and their columns (see
    the module docstring).  Ids must be integers in [0, ID_LIMIT).

    Equality and hashing read the rows, and instances are immutable.
    ``pairs``, the frozen set of (source id, target id) pairs, is built from
    the rows on each read.
    """

    # transitive_closure sets this True in the vars() of what it returns
    _transitive = False

    def __init__(self, pairs):
        ids = []
        for a, b in pairs:
            try:
                ia, ib = int(a), int(b)
            except (OverflowError, ValueError):  # int() refuses inf and nan
                ia = ib = None
            # int() truncates: 2.5 would silently name point 2
            if ia != a or ib != b:
                raise ValueError(f"point ids must be integers, got the pair {(a, b)!r}")
            # checked before any shift: a negative id has no bit, a huge one a huge row
            if not (0 <= ia < ID_LIMIT and 0 <= ib < ID_LIMIT):
                raise ValueError(f"point ids must lie in [0, {ID_LIMIT}), got the pair {(a, b)!r}")
            ids.append((ia, ib))
        rows = [0] * (max(chain.from_iterable(ids), default=-1) + 1)
        for ia, ib in ids:
            rows[ia] |= 1 << ib
        self._index(rows)

    @classmethod
    def _of_rows(cls, rows: list) -> "BinaryRelation":
        """The relation with these bit rows, which span ids 0..max id; they come
        from a space or from another relation, so they are not checked."""
        R = object.__new__(cls)
        R._index(rows)
        return R

    def _index(self, rows: list):
        """Keep the rows and build their transpose, the columns.  Equal rows set
        the same column bits, so each distinct row is walked once, with the ids
        of every row equal to it."""
        ids = {}
        for a, row in enumerate(rows):
            ids[row] = ids.get(row, 0) | 1 << a
        cols = [0] * len(rows)
        for row, mask in ids.items():
            for b in _bits(row):
                cols[b] |= mask
        vars(self).update(_rows=tuple(rows), _cols=tuple(cols))

    @classmethod
    def from_tokens(cls, space: BMetricSpace, sources, targets, values: dict) -> "BinaryRelation":
        """The pairs (sources[k], targets[k]), where a token t names the point
        ``space.point_by_value(values[t])``.  Each distinct token is looked up
        once; an unknown one raises for the first unknown endpoint in pair order."""
        find = space.point_by_value
        try:
            ids = {t: find(v).id for t, v in values.items()}
        except UnknownPointError:
            for t in chain.from_iterable(zip(sources, targets)):
                find(values[t])
            raise
        # rows span ids 0..max id, as every construction's do
        rows = [0] * (max(ids.values(), default=-1) + 1)
        for a, b in zip(sources, targets):
            rows[ids[a]] |= 1 << ids[b]
        return cls._of_rows(rows)

    @property
    def pairs(self) -> frozenset:
        return frozenset(self.sorted_pairs())

    def sorted_pairs(self) -> list:
        return [(a, b) for a, row in enumerate(self._rows) for b in _bits(row)]

    def successors(self, a) -> list:
        a, rows = _pid(a), self._rows
        return list(_bits(rows[a])) if 0 <= a < len(rows) else []

    def __len__(self):
        return sum(map(int.bit_count, self._rows))

    def __eq__(self, other):
        return self._rows == other._rows if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        return f"{self.__class__.__qualname__}(pairs={frozenset(self.sorted_pairs())!r})"

    def __setattr__(self, name, *value):
        raise AttributeError(f"cannot assign to or delete {name!r} of a BinaryRelation")

    __delattr__ = __setattr__


def related(R: BinaryRelation, a, b) -> bool:
    a, b, rows = _pid(a), _pid(b), R._rows
    return 0 <= a < len(rows) and b >= 0 and rows[a] >> b & 1 == 1


def symmetric_closure(R: BinaryRelation) -> BinaryRelation:
    """R union its inverse, making every related pair comparable both ways."""
    return BinaryRelation._of_rows(list(map(or_, R._rows, R._cols)))


def reach_rows(R: BinaryRelation) -> list:
    """Row a of R's transitive closure: the ids reachable from a by a path of
    length >= 1, as an int with one bit per id (Warshall on the rows)."""
    rows = list(R._rows)
    for k in range(len(rows)):
        # every i -> k gains k's successors; row k itself gains nothing new
        row_k = rows[k]
        if row_k:
            bit = 1 << k
            rows = [r | row_k if r & bit else r for r in rows]
    return rows


def transitive_closure(R: BinaryRelation) -> BinaryRelation:
    """Smallest transitive superset of R; idempotent.  The result is marked
    transitive; no other function marks a relation."""
    closed = BinaryRelation._of_rows(reach_rows(R))
    vars(closed)["_transitive"] = True
    return closed


def _intransitive_rows(R: BinaryRelation) -> set:
    """The distinct row values of R that break transitivity, the one verdict.

    Row a fails when the union of its successors' rows leaves row a, which
    depends on the row's value alone, so each distinct row is tested once.
    A relation ``transitive_closure`` built has none, and no row is read.
    """
    if R._transitive:
        return set()
    rows = R._rows
    return {row for row in set(rows) if reduce(or_, map(rows.__getitem__, _bits(row)), 0) & ~row}


def is_transitive(R: BinaryRelation):
    """True iff (a,b),(b,c) in R implies (a,c) in R, as ``(ok, count, witnesses)``.

    ``count`` is the exact number of failing triples (a, b, c): (a, b) and
    (b, c) in R but (a, c) not.  ``witnesses`` holds the first WITNESS_CAP of
    them in sorted order.  Only the rows ``_intransitive_rows`` returns are
    scanned pair by pair, in id order.
    """
    found = Witnesses()
    if failing := _intransitive_rows(R):
        rows = R._rows
        for a, row_a in enumerate(rows):
            if row_a in failing:
                bs = _bits(row_a)
                missing = [rows[b] & ~row_a for b in bs]
                found.add(sum(map(int.bit_count, missing)),
                          ((a, b, c) for b, mask in zip(bs, missing) for c in _bits(mask)))
    return not found.count, found.count, found.kept


def is_complete(R: BinaryRelation, space: BMetricSpace):
    """Every unordered pair of *distinct* points is related in some direction,
    as ``(ok, count, witnesses)``: the exact number of unrelated pairs (a, b),
    a < b, and the first WITNESS_CAP of them in sorted order.

    The distinct-pair reading is deliberate: quantifying over equal pairs
    would force reflexivity, which the worked instances do not have.
    """
    n, top = len(space), 1 << len(space)
    linked = islice(chain(map(or_, R._rows, R._cols), repeat(0)), n)
    # row a: the ids b with a < b < n that neither (a, b) nor (b, a) relates
    found = _pair_witnesses([~row & (top - (2 << a)) for a, row in enumerate(linked)])
    return not found.count, found.count, found.kept


def is_f_closed(R: BinaryRelation, mapping: dict):
    """(a,b) in R implies (F a, F b) in R, as ``(ok, count, witnesses)``: the
    exact number of violating pairs of R and the first WITNESS_CAP of them in
    sorted order.

    ``mapping`` maps ids to int ids; an image outside R's ids, or a missing
    one, has an empty row.  Row a passes when the bits of its successors'
    images lie in F a's row; only failing rows are scanned pair by pair.
    """
    rows = R._rows
    size = len(rows)
    # id b -> the bit of F b; -1, which no row contains, when F b has no row
    # (or no image), so its row takes the pair-by-pair path
    image_bit = [1 << fb if 0 <= (fb := mapping.get(b, -1)) < size else -1 for b in range(size)]
    # the bits of a row's images depend on the row's value alone
    images = {row: reduce(or_, map(image_bit.__getitem__, _bits(row)), 0) for row in set(rows)}
    failing = [0] * size  # row a: the ids b whose pair (a, b) violates
    for a, row in enumerate(rows):
        fa = mapping.get(a, -1)
        image = rows[fa] if 0 <= fa < size else 0
        if images[row] & ~image:
            failing[a] = sum([1 << b for b in _bits(row) if image_bit[b] & ~image])
    found = _pair_witnesses(failing)
    return not found.count, found.count, found.kept


class Path(namedtuple("Path", "nodes")):
    """A walk along related pairs: the tuple of point ids it visits, both ends included."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def value_nodes(self, space: BMetricSpace) -> list:
        return [space.point(i).value for i in self.nodes]


def find_path(R: BinaryRelation, source, target) -> Path | None:
    """Shortest path from source to target in R viewed as a digraph.

    Paths have length >= 1, so source == target needs an actual cycle.
    BFS expands successors in increasing id order, which breaks ties toward
    the smallest intermediate ids deterministically; a pair of R is its own
    shortest path.
    """
    src, dst, rows = _pid(source), _pid(target), R._rows
    row = rows[src] if 0 <= src < len(rows) else 0
    if dst >= 0 and row >> dst & 1:
        return Path((src, dst))
    parent = dict.fromkeys(_bits(row), src)
    queue = deque(parent)
    while queue:
        node = queue.popleft()
        for b in _bits(rows[node]):
            if b == dst:
                nodes = [node]
                while nodes[-1] != src:
                    nodes.append(parent[nodes[-1]])
                nodes.reverse()
                nodes.append(dst)
                return Path(tuple(nodes))
            if b not in parent:
                parent[b] = node
                queue.append(b)
    return None


@record
class RelationDiagnostics:
    """Each list in ``witnesses`` keeps its first WITNESS_CAP entries; ``witness_counts``
    holds the exact totals under the same keys."""

    reflexive: bool
    irreflexive: bool
    symmetric: bool
    antisymmetric: bool
    witness_counts: dict = fresh(dict)
    witnesses: dict = fresh(dict)


def relation_diagnostics(R: BinaryRelation, space: BMetricSpace) -> RelationDiagnostics:
    """Order-theoretic diagnostics (reflexivity, symmetry, antisymmetry).

    Each kind of witness is counted from the rows with ``bit_count`` and
    listed only while its Witnesses has room, so the lists stay bounded
    however large R is.
    """
    rows, cols = R._rows, R._cols
    loops = sum(1 << a for a, row in enumerate(rows) if row >> a & 1)
    missing = ~loops & ((1 << len(space)) - 1)
    found = {
        "reflexive": Witnesses(missing.bit_count(), _bits(missing)),
        "irreflexive": Witnesses(loops.bit_count(), _bits(loops)),
        # (a, b) in R, (b, a) not
        "symmetric": _pair_witnesses([row & ~col for row, col in zip(rows, cols)]),
        # (a, b) and (b, a) in R, a != b
        "antisymmetric": _pair_witnesses([row & col & ~(1 << a)
                                          for a, (row, col) in enumerate(zip(rows, cols))]),
    }
    return RelationDiagnostics(**{kind: not w.count for kind, w in found.items()},
                               witness_counts={kind: w.count for kind, w in found.items()},
                               witnesses={kind: w.kept for kind, w in found.items()})


@record
class RelationReport:
    """Each list in ``counterexamples`` keeps its first WITNESS_CAP entries;
    ``counterexample_counts`` holds the exact totals under the same keys."""

    transitive: bool
    complete: bool
    f_closed: bool
    counterexample_counts: dict
    counterexamples: dict
    diagnostics: RelationDiagnostics


def build_relation_report(space: BMetricSpace, R: BinaryRelation, mapping: dict) -> RelationReport:
    found = {"transitive": is_transitive(R), "complete": is_complete(R, space),
             "f_closed": is_f_closed(R, mapping)}
    return RelationReport(
        transitive=found["transitive"][0],
        complete=found["complete"][0],
        f_closed=found["f_closed"][0],
        counterexample_counts={k: total for k, (_, total, _) in found.items()},
        counterexamples={k: kept for k, (_, _, kept) in found.items()},
        diagnostics=relation_diagnostics(R, space),
    )
