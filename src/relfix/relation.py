"""Binary relations over a finite b-metric space and the relational hypotheses.

Relations are stored as frozen sets of ordered point-id pairs, with one
ordered successor index, ``_succ``, built at construction: its keys are the
sources in ascending order and each maps to the ascending tuple of its
successors, so walking it yields the pairs in ``sorted(pairs)`` order.  Every
predicate here walks that index instead of sorting ``pairs``; ``pairs`` serves
membership tests.  Every query is a read-only function; the one memo
(``is_transitive``) stores an immutable result that is the same whichever
caller computes it, so concurrent use is safe.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import islice

from .bmetric import WITNESS_CAP, BMetricSpace, _pid


@dataclass(frozen=True)
class BinaryRelation:
    """A relation as a frozen set of (source id, target id) pairs.

    ``_succ`` is the one ordered index: ascending source ids, each mapped to
    the ascending tuple of its successors.  Readers walk it, in that order,
    rather than sort ``pairs``.
    """

    pairs: frozenset

    def __post_init__(self):
        pairs = []
        for a, b in self.pairs:
            try:
                ia, ib = int(a), int(b)
            except (OverflowError, ValueError):  # int() refuses inf and nan
                ia = ib = None
            # int() truncates: 2.5 would silently name point 2
            if ia != a or ib != b:
                raise ValueError(f"point ids must be integers, got the pair {(a, b)!r}")
            pairs.append((ia, ib))
        pairs = frozenset(pairs)
        object.__setattr__(self, "pairs", pairs)
        succ = {}
        for a, b in pairs:
            succ.setdefault(a, []).append(b)
        # a plain attribute, not a field: equality and hashing see only pairs
        object.__setattr__(self, "_succ", {a: tuple(sorted(succ[a])) for a in sorted(succ)})

    @classmethod
    def from_value_pairs(cls, space: BMetricSpace, value_pairs) -> "BinaryRelation":
        """Pairs of point values, each value looked up once; the first unknown one raises."""
        ids, pairs = {}, []
        for a, b in value_pairs:
            ia = ids.get(a)
            if ia is None:
                ia = ids[a] = space.point_by_value(a).id
            ib = ids.get(b)
            if ib is None:
                ib = ids[b] = space.point_by_value(b).id
            pairs.append((ia, ib))
        return cls(pairs)

    def sorted_pairs(self) -> list:
        return [(a, b) for a, bs in self._succ.items() for b in bs]

    def successors(self, a) -> list:
        return list(self._succ.get(_pid(a), ()))

    def __len__(self):
        return len(self.pairs)


def related(R: BinaryRelation, a, b) -> bool:
    return (_pid(a), _pid(b)) in R.pairs


def symmetric_closure(R: BinaryRelation) -> BinaryRelation:
    """R union its inverse, making every related pair comparable both ways."""
    return BinaryRelation(R.pairs | frozenset((b, a) for a, b in R.pairs))


def transitive_closure(R: BinaryRelation) -> BinaryRelation:
    """Smallest transitive superset of R (Warshall on successor sets); idempotent."""
    succ = {a: set(bs) for a, bs in R._succ.items()}
    pred = {}
    for a, b in R.pairs:
        pred.setdefault(b, set()).add(a)
    # after pivot k, every i -> k gains all of k's successors
    for k in succ.keys() & pred.keys():
        out = succ[k]
        for i in tuple(pred[k]):
            new = out - succ[i]
            if new:
                succ[i] |= new
                for j in new:
                    pred[j].add(i)
    return BinaryRelation(frozenset((a, b) for a, bs in succ.items() for b in bs))


def _transitivity_witnesses(R: BinaryRelation) -> tuple:
    """Every (a, b, c) with (a, b), (b, c) in R but (a, c) not, in sorted order."""
    succ = R._succ
    succ_sets = {a: set(bs) for a, bs in succ.items()}
    witnesses = []
    for a, bs in succ.items():
        reach = succ_sets[a]
        for b in bs:
            onward = succ.get(b, ())
            if not reach.issuperset(onward):
                witnesses.extend((a, b, c) for c in onward if c not in reach)
    return tuple(witnesses)


def is_transitive(R: BinaryRelation):
    """True iff (a,b),(b,c) in R implies (a,c) in R; witnesses are failing triples.

    The scan runs once per relation object; later calls return a fresh copy
    of the stored witness list.
    """
    witnesses = getattr(R, "_transitivity", None)
    if witnesses is None:
        witnesses = _transitivity_witnesses(R)
        object.__setattr__(R, "_transitivity", witnesses)
    return (not witnesses), list(witnesses)


def is_complete(R: BinaryRelation, space: BMetricSpace):
    """Every unordered pair of *distinct* points is related in some direction.

    The distinct-pair reading is deliberate: quantifying over equal pairs
    would force reflexivity, which the worked instances do not have.
    """
    witnesses = []
    n = len(space)
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in R.pairs and (b, a) not in R.pairs:
                witnesses.append((a, b))
    return (not witnesses), witnesses


def is_f_closed(R: BinaryRelation, mapping: dict):
    """(a,b) in R implies (F a, F b) in R; witnesses are violating pairs."""
    pairs, witnesses = R.pairs, []
    for a, bs in R._succ.items():
        fa = mapping[a]
        witnesses += [(a, b) for b in bs if (fa, mapping[b]) not in pairs]
    return (not witnesses), witnesses


@dataclass(frozen=True)
class Path:
    nodes: tuple

    @property
    def length(self) -> int:
        return len(self.nodes) - 1

    def value_nodes(self, space: BMetricSpace) -> list:
        return [space.point(i).value for i in self.nodes]


def find_path(R: BinaryRelation, source, target) -> Path | None:
    """Shortest path from source to target in R viewed as a digraph.

    Paths have length >= 1, so source == target needs an actual cycle.
    BFS expands successors in increasing id order, which breaks ties toward
    the smallest intermediate ids deterministically.
    """
    src, dst = _pid(source), _pid(target)
    parent = {}
    queue = deque()
    for b in R.successors(src):
        if b == dst:
            return Path((src, dst))
        if b not in parent:
            parent[b] = src
            queue.append(b)
    while queue:
        node = queue.popleft()
        for b in R.successors(node):
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


def check_bd_self_closed(space: BMetricSpace) -> str:
    """Why every finite space is b-d-self-closed, as the justification string.

    The minimal nonzero distance is positive, so every convergent sequence is
    eventually constant, and any relation-preserving convergent sequence has
    a constant tail whose pairs are (limit, limit) in R; the constant tail is
    the required subsequence, related to the limit in either direction.  The
    same tails make the space complete and every self-map R-continuous.
    """
    gap = space.min_nonzero_distance()
    return (
        "eventually-constant tails: minimal nonzero distance "
        f"{gap:g} > 0 forces convergent sequences to stabilize; tail pairs "
        "(limit, limit) lie in the relation by preservation"
    )


@dataclass
class RelationDiagnostics:
    """Each list in ``witnesses`` keeps its first WITNESS_CAP entries; ``witness_counts``
    holds the exact totals under the same keys."""

    reflexive: bool
    irreflexive: bool
    symmetric: bool
    antisymmetric: bool
    witness_counts: dict = field(default_factory=dict)
    witnesses: dict = field(default_factory=dict)


def _capped(witnesses) -> tuple[int, list]:
    """How many witnesses an iterator yields, and the first WITNESS_CAP of them."""
    kept = list(islice(witnesses, WITNESS_CAP))
    return len(kept) + sum(1 for _ in witnesses), kept


def relation_diagnostics(R: BinaryRelation, space: BMetricSpace) -> RelationDiagnostics:
    """Order-theoretic diagnostics (reflexivity, symmetry, antisymmetry).

    Each kind of witness is counted while scanning and only its first
    WITNESS_CAP are kept, so the lists stay bounded however large R is.
    """
    pairs = R.pairs
    found = {
        "reflexive": _capped(a for a in range(len(space)) if (a, a) not in pairs),
        "irreflexive": _capped(a for a in R._succ if (a, a) in pairs),
    }
    # one pass over R for both pair kinds
    asym, sym_distinct = [], []
    n_asym = n_sym = 0
    for a, bs in R._succ.items():
        for b in bs:
            if (b, a) not in pairs:
                if n_asym < WITNESS_CAP:
                    asym.append((a, b))
                n_asym += 1
            elif a != b:
                if n_sym < WITNESS_CAP:
                    sym_distinct.append((a, b))
                n_sym += 1
    found["symmetric"] = n_asym, asym
    found["antisymmetric"] = n_sym, sym_distinct
    return RelationDiagnostics(
        reflexive=not found["reflexive"][0],
        irreflexive=not found["irreflexive"][0],
        symmetric=not n_asym,
        antisymmetric=not n_sym,
        witness_counts={kind: count for kind, (count, _) in found.items()},
        witnesses={kind: kept for kind, (_, kept) in found.items()},
    )


@dataclass
class RelationReport:
    """Each list in ``counterexamples`` keeps its first WITNESS_CAP entries;
    ``counterexample_counts`` holds the exact totals under the same keys."""

    transitive: bool
    complete: bool
    f_closed: bool
    bd_self_closed: bool  # always true on a finite space; see check_bd_self_closed
    counterexample_counts: dict
    counterexamples: dict
    diagnostics: RelationDiagnostics
    bd_justification: str = ""


def build_relation_report(space: BMetricSpace, R: BinaryRelation, mapping: dict) -> RelationReport:
    trans, trans_w = is_transitive(R)
    comp, comp_w = is_complete(R, space)
    fcl, fcl_w = is_f_closed(R, mapping)
    found = {"transitive": trans_w, "complete": comp_w, "f_closed": fcl_w}
    return RelationReport(
        transitive=trans,
        complete=comp,
        f_closed=fcl,
        bd_self_closed=True,
        counterexample_counts={k: len(w) for k, w in found.items()},
        counterexamples={k: w[:WITNESS_CAP] for k, w in found.items()},
        diagnostics=relation_diagnostics(R, space),
        bd_justification=check_bd_self_closed(space),
    )
