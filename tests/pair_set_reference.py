"""The pair-set code that the bitset index replaced, kept as test references.

Each function reads only ``R.pairs`` and plain Python sets, the way relfix
computed these quantities before its relations carried int rows.  ``R.pairs``
builds its set from the rows on each read, so each function reads it once.
"""

from collections import deque

from relfix.bmetric import WITNESS_CAP


def predicate_result(full):
    """What a relation predicate returns when ``full`` is its full witness list:
    the verdict, the exact count and the first WITNESS_CAP witnesses."""
    return not full, len(full), full[:WITNESS_CAP]


def reference_closure(R):
    # Warshall on the pair set, testing every (i, k), (k, j) membership
    pairs = set(R.pairs)
    nodes = sorted({x for p in pairs for x in p})
    for k in nodes:
        for i in nodes:
            if (i, k) in pairs:
                for j in nodes:
                    if (k, j) in pairs:
                        pairs.add((i, j))
    return frozenset(pairs)


def reference_transitivity_witnesses(R):
    pairs, succ = R.pairs, {}
    for a, b in pairs:
        succ.setdefault(a, set()).add(b)
    return [(a, b, c) for a, b in sorted(pairs) for c in sorted(succ.get(b, ()))
            if c not in succ.get(a, ())]


def reference_complete_witnesses(R, n):
    # the n**2 pair probe
    pairs = R.pairs
    return [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in pairs and (b, a) not in pairs]


def reference_f_closed_witnesses(R, mapping):
    pairs = R.pairs
    return [(a, b) for a, b in sorted(pairs) if (mapping[a], mapping[b]) not in pairs]


def reference_diagnostics(R, n):
    """The full witness list of each diagnostic kind, in scan order."""
    pairs = R.pairs
    ref = sorted(pairs)
    return {
        "reflexive": [a for a in range(n) if (a, a) not in pairs],
        "irreflexive": [a for a, b in ref if a == b],
        "symmetric": [(a, b) for a, b in ref if (b, a) not in pairs],
        "antisymmetric": [(a, b) for a, b in ref if a != b and (b, a) in pairs],
    }


def reference_find_path(R, src, dst):
    """Breadth-first search over sorted successor lists, as nodes, or None.

    Paths have length >= 1; the first successor found wins, so ties go to the
    smallest intermediate ids.
    """
    succ = {}
    for a, b in sorted(R.pairs):
        succ.setdefault(a, []).append(b)
    parent = {}
    queue = deque()
    for b in succ.get(src, ()):
        if b == dst:
            return (src, dst)
        if b not in parent:
            parent[b] = src
            queue.append(b)
    while queue:
        node = queue.popleft()
        for b in succ.get(node, ()):
            if b == dst:
                nodes = [node]
                while nodes[-1] != src:
                    nodes.append(parent[nodes[-1]])
                return tuple(reversed(nodes)) + (dst,)
            if b not in parent:
                parent[b] = node
                queue.append(b)
    return None
