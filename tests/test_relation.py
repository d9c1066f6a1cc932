import ast
import copy
import json
import math
import pathlib
import pickle
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from relfix.bmetric import WITNESS_CAP, BMetricSpace
from relfix.relation import (
    ID_LIMIT,
    BinaryRelation,
    _bits,
    build_relation_report,
    check_bd_self_closed,
    find_path,
    is_complete,
    is_f_closed,
    is_transitive,
    reach_rows,
    related,
    relation_diagnostics,
    symmetric_closure,
    transitive_closure,
)
from relfix.report import _plain

from conftest import example_map, example_relation, example_space
from instance_gen import random_problem, random_relation_and_map
from pair_set_reference import (
    predicate_result,
    reference_closure,
    reference_complete_witnesses,
    reference_diagnostics,
    reference_f_closed_witnesses,
    reference_find_path,
    reference_transitivity_witnesses,
)


@pytest.fixture
def ex():
    space = example_space()
    return space, example_relation(space)


def vp(space, pairs):
    """The relation of value pairs, built the way a problem file's is: each
    distinct value stands as its own token."""
    pairs = list(pairs)
    tokens = dict.fromkeys(v for pair in pairs for v in pair)
    return BinaryRelation.from_tokens(space, [a for a, _ in pairs], [b for _, b in pairs],
                                      dict(zip(tokens, tokens)))


def test_related(ex):
    space, R = ex
    one, four = space.point_by_value(1), space.point_by_value(4)
    assert related(R, one, four)
    assert not related(R, four, one)
    assert not related(BinaryRelation(frozenset()), one, four)


def test_symmetric_closure(ex):
    space, R = ex
    closed = symmetric_closure(R)
    expected = set(R.pairs) | {
        (space.point_by_value(4).id, space.point_by_value(v).id) for v in (1, 2, 3)
    }
    assert set(closed.pairs) == expected
    assert symmetric_closure(closed).pairs == closed.pairs


def test_singleton_closure():
    assert symmetric_closure(BinaryRelation({(0, 1)})).pairs == frozenset({(0, 1), (1, 0)})


def test_is_transitive(ex):
    _, R = ex
    assert is_transitive(R) == (True, 0, [])
    assert is_transitive(BinaryRelation({(0, 1), (1, 2)})) == (False, 1, [(0, 1, 2)])


def test_transitive_closure(ex):
    _, R = ex
    assert transitive_closure(BinaryRelation({(0, 1), (1, 2)})).pairs == frozenset(
        {(0, 1), (1, 2), (0, 2)}
    )
    assert transitive_closure(R).pairs == R.pairs  # already transitive
    assert transitive_closure(BinaryRelation(frozenset())).pairs == frozenset()


def test_is_complete(ex):
    space, R = ex
    # every unordered distinct pair of {1,2,3,4} appears in some direction
    assert is_complete(R, space)[0]
    full = BinaryRelation({(a, b) for a in range(4) for b in range(4)})
    assert is_complete(full, space)[0]
    ok, count, w = is_complete(BinaryRelation(frozenset()), space)
    assert not ok and count == 6 and (0, 1) in w


def test_is_f_closed(ex):
    space, R = ex
    fmap = example_map(space).mapping
    assert is_f_closed(R, fmap)[0]
    assert is_f_closed(BinaryRelation(frozenset()), fmap)[0]  # vacuous
    small = vp(space, [(3, 4)])
    ok, count, w = is_f_closed(small, fmap)
    assert not ok and count == 1
    assert w == [(space.point_by_value(3).id, space.point_by_value(4).id)]


def test_find_path(ex):
    space, R = ex
    one, four = space.point_by_value(1), space.point_by_value(4)
    path = find_path(R, one, four)
    assert path.nodes == (one.id, four.id) and path.length == 1
    assert find_path(R, four, one) is None
    loop = BinaryRelation({(2, 2)})
    assert find_path(loop, 2, 2).nodes == (2, 2)


def test_find_path_tie_breaking():
    # two shortest 2-step routes 0->x->3; the smaller intermediate wins
    R = BinaryRelation({(0, 2), (0, 1), (1, 3), (2, 3)})
    assert find_path(R, 0, 3).nodes == (0, 1, 3)


def test_bd_self_closed(ex):
    space, R = ex
    assert "eventually-constant" in check_bd_self_closed(space)

    single = BMetricSpace.from_values([1])
    assert "minimal nonzero distance inf > 0" in check_bd_self_closed(single)


def test_relation_diagnostics(ex):
    space, R = ex
    diag = relation_diagnostics(R, space)
    # nonreflexive, nonirreflexive, nonsymmetric, nonantisymmetric
    assert not diag.reflexive
    assert not diag.irreflexive
    assert not diag.symmetric
    assert not diag.antisymmetric
    assert space.point_by_value(1).id in diag.witnesses["irreflexive"]


relations = st.sets(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=20
).map(lambda s: BinaryRelation(frozenset(s)))


@given(relations)
def test_transitive_closure_properties(R):
    closed = transitive_closure(R)
    assert R.pairs <= closed.pairs
    assert is_transitive(closed)[0]
    assert transitive_closure(closed).pairs == closed.pairs


@given(relations, st.integers(0, 5), st.integers(0, 5))
def test_find_path_matches_reachability(R, src, dst):
    # oracle: one-step-at-a-time reachability with at least one edge taken
    frontier = set(R.successors(src))
    reachable = set(frontier)
    while frontier:
        frontier = {c for b in frontier for c in R.successors(b)} - reachable
        reachable |= frontier
    path = find_path(R, src, dst)
    assert (path is not None) == (dst in reachable)
    if path is not None:
        assert path.nodes[0] == src and path.nodes[-1] == dst
        for a, b in zip(path.nodes, path.nodes[1:]):
            assert related(R, a, b)


@given(relations, st.integers(0, 5), st.integers(0, 5))
def test_transitivity_collapses_paths(R, src, dst):
    closed = transitive_closure(R)
    path = find_path(closed, src, dst)
    if path is not None:
        assert related(closed, src, dst)


@settings(max_examples=60)
@given(st.integers(0, 10_000))
def test_symmetric_closure_preserves_f_closedness(seed):
    # random F-closed relation; its symmetrization must stay F-closed
    from instance_gen import random_relation_and_map

    R, mapping = random_relation_and_map(random.Random(seed))
    assert is_f_closed(R, mapping)[0]
    assert is_f_closed(symmetric_closure(R), mapping)[0]


# -- equivalence with the pair-set scans the successor index replaced -----------

@settings(max_examples=200)
@given(relations)
@example(BinaryRelation(frozenset()))
@example(BinaryRelation({(0, 1), (1, 2), (40, 40)}))  # an isolated high id
@example(BinaryRelation({(a, b) for a in range(6) for b in range(6)}))  # six equal rows
@example(BinaryRelation({(0, 2), (1, 2), (2, 3)}))  # two equal rows, both intransitive
def test_index_queries_match_pair_scans(R):
    C = transitive_closure(R)
    assert C.pairs == reference_closure(R)
    # the closure's index, read off its reach rows, is the index of its own pairs
    D = BinaryRelation(C.pairs)
    assert C._rows == D._rows and C._cols == D._cols
    assert C.sorted_pairs() == D.sorted_pairs() == sorted(C.pairs)
    assert is_transitive(R) == predicate_result(reference_transitivity_witnesses(R))
    ref = sorted(R.pairs)
    for a in range(-1, 7):
        assert R.successors(a) == [b for (x, b) in ref if x == a]


def test_returned_lists_do_not_alias_the_caches():
    R = BinaryRelation({(0, 1), (1, 2)})
    w = is_transitive(R)[2]
    w.append((9, 9, 9))
    w.clear()
    assert is_transitive(R) == (False, 1, [(0, 1, 2)])
    succ = R.successors(0)
    succ.append(5)
    assert R.successors(0) == [1]
    assert find_path(R, 0, 2).nodes == (0, 1, 2)


def test_relation_caches_are_not_fields():
    a, b = BinaryRelation({(0, 1), (1, 2)}), BinaryRelation({(1, 2), (0, 1)})
    is_transitive(a)
    assert a == b and hash(a) == hash(b)
    # the bit rows and their columns are the only state; no query leaves a memo
    assert vars(a) == {"_rows": (2, 4, 0), "_cols": (0, 1, 2)}
    assert repr(a) == "BinaryRelation(pairs=frozenset({(0, 1), (1, 2)}))"


# point values 0.0 .. 40.0, so a value pair names the id pair of the same numbers
SPACE_41 = BMetricSpace.from_values(range(41))


@settings(max_examples=150)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20))
@example(set())
@example({(0, 5), (1, 5), (1, 0)})  # the largest id occurs only as a target
@example({(0, 1), (1, 2), (40, 40)})
def test_every_construction_of_one_pair_set_is_one_relation(pairs):
    # rows span ids 0..max id, so the rows, and with them equality, hash and
    # repr, depend on the pair set alone, not on how the relation was built
    R = BinaryRelation(pairs)
    closure = reference_closure(R)
    symmetric = frozenset(pairs) | {(b, a) for a, b in pairs}
    closed = [transitive_closure(R), transitive_closure(BinaryRelation(closure))]
    built = {
        frozenset(pairs): [R, BinaryRelation(sorted(pairs, reverse=True)), vp(SPACE_41, pairs)],
        closure: [BinaryRelation(closure), vp(SPACE_41, closure), *closed],
        symmetric: [symmetric_closure(R), BinaryRelation(symmetric), vp(SPACE_41, symmetric),
                    symmetric_closure(BinaryRelation(symmetric))],
    }
    for expected, relations in built.items():
        first = relations[0]
        for S in relations:
            got = S.pairs
            assert type(got) is frozenset and got == expected
            assert all(type(a) is int and type(b) is int for a, b in got)
            assert S == first and hash(S) == hash(first) and repr(S) == repr(first)
            # only transitive_closure marks what it returns
            mark = {"_transitive": True} if any(S is C for C in closed) else {}
            assert vars(S) == vars(first) | mark and len(S) == len(expected)
            # the columns are the rows' transpose: the rows of the inverse
            assert S._cols == BinaryRelation({(b, a) for a, b in got})._rows
    for expected, relations in built.items():
        assert (relations[0] == R) == (expected == frozenset(pairs))


def test_a_relation_is_immutable_and_copies_by_value():
    R = BinaryRelation([(0, 1), (2, 0)])
    for name in ("_rows", "_cols", "pairs", "other"):
        with pytest.raises(AttributeError):
            setattr(R, name, ())
        with pytest.raises(AttributeError):
            delattr(R, name)
    assert vars(R) == {"_rows": (2, 0, 1), "_cols": (4, 1, 0)}
    assert BinaryRelation(pairs={(2, 0), (0, 1)}) == R
    assert R != R.pairs and R.__eq__(R.pairs) is NotImplemented
    for twin in (copy.copy(R), copy.deepcopy(R), pickle.loads(pickle.dumps(R))):
        assert twin == R and hash(twin) == hash(R) and vars(twin) == vars(R)


SPACE_8 = BMetricSpace.from_values(range(8))


@settings(max_examples=150)
@given(st.sets(st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20),
       st.lists(st.integers(0, 7), min_size=8, max_size=8))
@example(set(), [0] * 8)
@example({(0, 1), (1, 2), (2, 0)}, list(range(8)))  # a cycle: every loop joins the closure
def test_the_closure_mark_answers_as_the_rows_do(pairs, images):
    closed = transitive_closure(BinaryRelation(pairs))
    rebuilt = BinaryRelation(closed.pairs)
    assert closed._transitive and not rebuilt._transitive and closed == rebuilt
    assert is_transitive(closed) == is_transitive(rebuilt) == (True, 0, [])
    mapping = dict(enumerate(images))

    def encoded(R):
        return json.dumps(build_relation_report(SPACE_8, R, mapping), default=_plain, sort_keys=True)

    assert encoded(closed) == encoded(rebuilt)


def test_a_marked_relation_is_judged_without_reading_a_row(monkeypatch):
    closed = transitive_closure(BinaryRelation({(k, k + 1) for k in range(40)}))
    rebuilt = BinaryRelation(closed.pairs)
    read = []
    monkeypatch.setattr("relfix.relation._bits", lambda mask: read.append(mask) or _bits(mask))
    assert is_transitive(closed) == (True, 0, []) and read == []
    assert is_transitive(rebuilt) == (True, 0, []) and read
    # the mark is state like the rows: it cannot be set, and copies keep it
    with pytest.raises(AttributeError):
        rebuilt._transitive = True
    for twin in (copy.copy(closed), copy.deepcopy(closed), pickle.loads(pickle.dumps(closed))):
        assert vars(twin) == vars(closed) and vars(twin)["_transitive"] is True


def test_non_integral_ids_rejected():
    # int() would truncate 2.5 to 2 and 1.9 to 1 and name other points
    for pairs in (((2.5, 0),), ((0, 1), (True, 1.9)), ((math.inf, 0),), ((0, -math.inf),),
                  ((math.nan, 0),)):
        with pytest.raises(ValueError, match="must be integers"):
            BinaryRelation(pairs)
    assert BinaryRelation(((True, 2.0), (0.0, 1))).pairs == {(1, 2), (0, 1)}


# -- the ordered successor index, against a reference that sorts the pair set ---

# ids as ints, bools and integral floats; a list may hold pairs equal after int()
loose_ids = st.one_of(st.integers(0, 5), st.booleans(), st.integers(0, 5).map(float))
indexed_relations = st.one_of(
    st.lists(st.tuples(loose_ids, loose_ids), max_size=20).map(lambda ps: BinaryRelation(tuple(ps))),
    relations.map(symmetric_closure),
    relations.map(transitive_closure),
)
maps = st.lists(st.integers(0, 5), min_size=6, max_size=6).map(lambda images: dict(enumerate(images)))


@settings(max_examples=300)
@given(indexed_relations, maps)
@example(BinaryRelation(frozenset()), dict.fromkeys(range(6), 0))
@example(BinaryRelation(((True, 2.0), (1, 2), (0.0, False))), dict(enumerate([1, 1, 2, 3, 4, 5])))
def test_successor_index_walks_the_sorted_pairs(R, mapping):
    pairs = R.pairs
    ref = sorted(pairs)
    assert all(type(a) is int and type(b) is int for a, b in pairs)
    assert [(a, b) for a in range(-1, 7) for b in R.successors(a)] == ref
    assert all(type(R.successors(a)) is list for a in range(-1, 7))

    listed = R.sorted_pairs()
    assert listed == ref
    listed.append((9, 9))
    listed.clear()
    assert R.sorted_pairs() == ref and len(R) == len(ref)

    f_w = [(a, b) for a, b in ref if (mapping[a], mapping[b]) not in pairs]
    assert is_f_closed(R, mapping) == predicate_result(f_w)

    space = BMetricSpace.from_values(range(6))
    diag = relation_diagnostics(R, space)
    ref_w = {
        "reflexive": [a for a in range(6) if (a, a) not in pairs],
        "irreflexive": [a for a, b in ref if a == b],
        "symmetric": [(a, b) for a, b in ref if (b, a) not in pairs],
        "antisymmetric": [(a, b) for a, b in ref if a != b and (b, a) in pairs],
    }
    assert diag.witnesses == ref_w
    assert diag.witness_counts == {kind: len(w) for kind, w in ref_w.items()}
    assert (diag.reflexive, diag.irreflexive, diag.symmetric, diag.antisymmetric) == tuple(
        not w for w in ref_w.values())

    assert is_transitive(R) == predicate_result(reference_transitivity_witnesses(R))


def test_value_pairs_map_endpoints_as_point_by_value(monkeypatch):
    # ids 0 and 1 lie within 1e-12 of each other: 1.0 matches both and maps to id 0
    space = BMetricSpace.from_values([1.0 + 5e-13, 1.0, 3.0])
    values = [(1.0, 1.0 - 8e-13), (1.0 - 8e-13, 1.0 + 1.2e-12), (1, 3.0), (3, True), (1.0, 1.0)]
    expected = {(space.point_by_value(a).id, space.point_by_value(b).id) for a, b in values}
    assert expected == {(0, 1), (1, 0), (0, 2), (2, 0), (0, 0)}

    calls = []
    lookup = BMetricSpace.point_by_value
    monkeypatch.setattr(BMetricSpace, "point_by_value",
                        lambda self, v, *a: calls.append(v) or lookup(self, v, *a))
    assert vp(space, values).pairs == expected
    assert calls == [1.0, 1.0 - 8e-13, 1.0 + 1.2e-12, 3.0]  # once per distinct value


# -- the bitset index, against the pair-set code it replaced --------------------

def test_ids_outside_the_bit_range_are_refused():
    # a bit position is an id: a negative id has no bit, and the check runs before
    # any shift, so 2**40 never asks for a 2**40-bit row
    for pairs in (((0, -1),), ((-3, 0),), ((0, 2 ** 40),), ((ID_LIMIT, 0),), ((0, float(2 ** 40)),)):
        with pytest.raises(ValueError, match=r"must lie in \[0, 65536\)"):
            BinaryRelation(pairs)
    top = BinaryRelation({(ID_LIMIT - 1, 0)})
    assert top.successors(ID_LIMIT - 1) == [0]
    assert find_path(top, ID_LIMIT - 1, 0).nodes == (ID_LIMIT - 1, 0)


# a row is most often one run of ids (a closure, a complete relation), so the
# masks favour runs, single bits and a run with one stray bit beside them
runs = st.builds(lambda k, lo: ((1 << k) - 1) << lo, st.integers(1, 350), st.integers(0, 350))
single_bits = st.integers(0, 699).map(lambda i: 1 << i)
run_and_stray = st.builds(lambda run, i: run | 1 << i, runs, st.integers(0, 699))
masks = st.one_of(runs, single_bits, run_and_stray, st.integers(0, 2 ** 700))


@settings(max_examples=400)
@given(masks)
@example(0)
@example(255)
@example(256)
@example(257)
@example((1 << 36) - 2)
@example(((1 << 40) - 1) << (ID_LIMIT - 40))  # a run ending at the largest id
@example(0b1011 << 300)
def test_bits_are_the_set_bit_positions_in_order(mask):
    got = _bits(mask)
    assert type(got) is tuple
    assert got == tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_queries_answer_foreign_ids():
    R = BinaryRelation({(0, 1), (1, 2)})
    for src, dst in ((0, -1), (-1, 0), (0, 2 ** 40), (2 ** 40, 0), (-1, -1)):
        assert find_path(R, src, dst) is None
    assert not related(R, -1, 0) and R.successors(-1) == [] and R.successors(2 ** 40) == []
    # images outside R's ids, negative or huge, relate nothing
    assert is_f_closed(R, {0: 7, 1: 9, 2: 0}) == (False, 2, [(0, 1), (1, 2)])
    assert is_f_closed(R, {0: -1, 1: 0, 2: 1}) == (False, 1, [(0, 1)])
    assert is_f_closed(R, {0: 0, 1: 1, 2: 2 ** 40}) == (False, 1, [(1, 2)])
    assert is_f_closed(R, {0: 0, 1: 1, 2: 2}) == (True, 0, [])
    # a missing image relates nothing either, for a source and for a target
    S = BinaryRelation({(0, 1)})
    assert is_f_closed(S, {0: 1}) == (False, 1, [(0, 1)])
    assert is_f_closed(S, {1: 1}) == (False, 1, [(0, 1)])


def check_against_pair_sets(R, n, mapping):
    """Every bitset reader against its pair-set reference, on ids 0..n-1."""
    space = BMetricSpace.from_values(range(n))
    closure = reference_closure(R)
    assert transitive_closure(R).pairs == closure
    reach = reach_rows(R)
    assert [(a, b) for a, row in enumerate(reach) for b in range(len(reach)) if row >> b & 1] \
        == sorted(closure)

    assert is_transitive(R) == predicate_result(reference_transitivity_witnesses(R))
    assert is_complete(R, space) == predicate_result(reference_complete_witnesses(R, n))
    assert is_f_closed(R, mapping) == predicate_result(reference_f_closed_witnesses(R, mapping))

    diag = relation_diagnostics(R, space)
    ref_w = reference_diagnostics(R, n)
    assert diag.witnesses == {kind: w[:WITNESS_CAP] for kind, w in ref_w.items()}
    assert diag.witness_counts == {kind: len(w) for kind, w in ref_w.items()}
    assert (diag.reflexive, diag.irreflexive, diag.symmetric, diag.antisymmetric) == tuple(
        not w for w in ref_w.values())

    for src in (-1, 0, n - 1):
        for dst in (-1, 0, n // 2, n - 1, n):
            path = find_path(R, src, dst)
            assert (path and path.nodes) == reference_find_path(R, src, dst)


def layered(n):
    """Three blocks of n // 3 ids, every id of the first related to every id of
    the second and every id of the second to every id of the third: (n // 3) ** 3
    failing transitivity triples, (n // 3) ** 2 in each row of the first block."""
    k = n // 3
    first, second, third = range(k), range(k, 2 * k), range(2 * k, 3 * k)
    return BinaryRelation({(a, b) for a in first for b in second}
                          | {(b, c) for b in second for c in third})


@st.composite
def dense_relations(draw):
    """(n, R, F): R on ids 0..n-1 at a drawn density, maybe reflexive; F may map outside."""
    n = draw(st.integers(1, 30))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = draw(st.sampled_from([0.0, 0.05, 0.3, 0.7, 1.0]))
    pairs = {(a, b) for a in range(n) for b in range(n) if rng.random() < p}
    if draw(st.booleans()):
        pairs |= {(a, a) for a in range(n)}
    mapping = {a: rng.randrange(-1, n + 2) for a in range(n)}
    return n, BinaryRelation(pairs), mapping


@st.composite
def repeated_rows(draw):
    """(n, R, F): R on ids 0..n-1 whose rows are drawn from a few row values, so
    most rows repeat another; F may map outside."""
    n = draw(st.integers(1, 24))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    p = draw(st.sampled_from([0.05, 0.3, 0.7]))
    values = [sum(1 << b for b in range(n) if rng.random() < p)
              for _ in range(draw(st.integers(1, 3)))]
    rows = [rng.choice(values) for _ in range(n)]
    pairs = {(a, b) for a, row in enumerate(rows) for b in range(n) if row >> b & 1}
    mapping = {a: rng.randrange(-1, n + 2) for a in range(n)}
    return n, BinaryRelation(pairs), mapping


def blocks(n, k):
    """The equivalence relation whose classes are the runs of k consecutive ids."""
    return BinaryRelation({(a, b) for a in range(n) for b in range(n) if a // k == b // k})


@settings(max_examples=200, deadline=None)
@given(st.one_of(dense_relations(), repeated_rows()))
@example((24, BinaryRelation(frozenset()), dict.fromkeys(range(24), 0)))
@example((24, BinaryRelation({(a, a) for a in range(24)}), {a: 23 - a for a in range(24)}))
# 552 transitivity and 552 antisymmetry witnesses, 552 F-closedness witnesses
@example((24, BinaryRelation({(a, b) for a in range(24) for b in range(24) if a != b}),
          dict.fromkeys(range(24), 0)))
# a strict order: 276 one-way pairs, past the cap of the symmetric diagnostics
@example((24, BinaryRelation({(a, b) for a in range(24) for b in range(a + 1, 24)}),
          {a: a for a in range(24)}))
# a loop at each of 300 points: 300 irreflexive witnesses, past their cap
@example((300, BinaryRelation({(a, a) for a in range(300)}), {a: a for a in range(300)}))
# rows wider than 256 bits: 44,847 completeness and 299 reflexivity witnesses
@example((300, BinaryRelation({(0, 299), (299, 5), (5, 0), (7, 7)}), {a: a for a in range(300)}))
# 81 transitivity triples per failing row, so the cap of 256 falls inside the fourth
# of nine equal rows
@example((27, layered(27), {a: (a + 9) % 27 for a in range(27)}))
# the complete relation: 24 equal rows, all transitive
@example((24, BinaryRelation({(a, b) for a in range(24) for b in range(24)}),
          {a: a - a % 2 for a in range(24)}))
# a block equivalence relation, F rotating the blocks: every pair maps into R
@example((12, blocks(12, 4), {a: (a + 4) % 12 for a in range(12)}))
# F shifting by one: the pairs whose images cross a block boundary leave R
@example((12, blocks(12, 4), {a: (a + 1) % 12 for a in range(12)}))
# rows 0..9 are all empty
@example((12, BinaryRelation({(10, 11), (11, 10)}), dict.fromkeys(range(12), 3)))
# rows 0 and 1 are equal and both fail transitivity, (a, 2, 3), and F-closedness
@example((4, BinaryRelation({(0, 2), (1, 2), (2, 3)}), {0: 3, 1: 3, 2: 0, 3: 0}))
def test_bitset_readers_match_the_pair_set_code(case):
    n, R, mapping = case
    check_against_pair_sets(R, n, mapping)


def test_transitivity_is_counted_without_listing_every_triple():
    # 64 ** 3 = 262,144 failing triples, of which only the first WITNESS_CAP are built
    R = layered(192)
    tracemalloc.start()
    try:
        got = is_transitive(R)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == predicate_result(reference_transitivity_witnesses(R))
    assert got[1] == 262_144
    assert peak < 2 ** 20, f"is_transitive peaked at {peak / 2 ** 20:.1f} MB"


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32))
def test_bitset_readers_match_the_pair_set_code_on_the_sweep_generator(seed):
    rng = random.Random(seed)
    R, mapping = random_relation_and_map(rng)
    check_against_pair_sets(R, len(mapping), mapping)
    problem = random_problem(rng)
    check_against_pair_sets(problem.relation, len(problem.space), problem.map.mapping)


@settings(max_examples=200)
@given(relations, st.integers(-1, 6), st.integers(-1, 6))
def test_find_path_is_the_plain_bfs_path(R, src, dst):
    path = find_path(R, src, dst)
    assert (path and path.nodes) == reference_find_path(R, src, dst)


# -- only transitive_closure claims transitivity ----------------------------------

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relfix"


def mark_writes(source: str) -> list:
    """(scope, line) of each node that could set ``_transitive``: the name or
    attribute bound or deleted, or spelled as a string or a keyword, as
    ``vars(R)["_transitive"]``, ``setattr`` and ``update`` spell it.  The
    scope is the innermost def or class, None at module level."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = node.name
        bound = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
        if (isinstance(node, ast.Attribute) and node.attr == "_transitive" and bound
                or isinstance(node, ast.Name) and node.id == "_transitive" and bound
                or isinstance(node, ast.keyword) and node.arg == "_transitive"
                or isinstance(node, ast.Constant) and node.value == "_transitive"):
            found.append((scope, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(ast.parse(source), None)
    return found


def test_checker_flags_every_spelling_of_a_mark_write():
    source = (
        "class BinaryRelation:\n"
        "    _transitive = False\n"
        "def transitive_closure(R):\n"
        "    vars(R)['_transitive'] = True\n"
        "def claim(R):\n"
        "    R._transitive = True\n"
        "def claim_by_name(R):\n"
        "    setattr(R, '_transitive', True)\n"
        "    vars(R).update(_transitive=True)\n"
        "def read(R):\n"
        "    return R._transitive\n"
    )
    assert mark_writes(source) == [("BinaryRelation", 2), ("transitive_closure", 4), ("claim", 6),
                                   ("claim_by_name", 8), ("claim_by_name", 9)]


def test_only_transitive_closure_sets_the_mark():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        scopes = sorted({scope for scope, _ in mark_writes(path.read_text())})
        if scopes:
            found[path.name] = scopes
    # the class default and the closure's mark, and nothing else
    assert found == {"relation.py": ["BinaryRelation", "transitive_closure"]}
    assert BinaryRelation._transitive is False
