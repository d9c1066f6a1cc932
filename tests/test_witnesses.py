"""``bmetric.Witnesses``, the one place the witness-list cap is applied.

The class keeps an exact count and the first WITNESS_CAP witnesses in the
order they were found.  The last tests parse every module of ``src/relfix``
and check that no code outside the class reads WITNESS_CAP, so a new capped
list goes through the class instead of repeating its arithmetic.
"""

import ast
import pathlib

from relfix.bmetric import WITNESS_CAP, Witnesses

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "relfix"


def untouchable():
    """A producer that raises if it is called or advanced."""

    class Untouchable:
        def __call__(self):
            raise AssertionError("producer called")

        def __iter__(self):
            return self

        def __next__(self):
            raise AssertionError("producer advanced")

    return Untouchable()


def test_count_stays_exact_over_many_adds():
    w = Witnesses()
    total = 0
    for k in range(1, 200):
        w.add(k, range(k))
        total += k
    assert w.count == total == 19_900
    assert len(w.kept) == WITNESS_CAP


def test_kept_list_is_the_first_witnesses_in_order():
    w = Witnesses()
    w.add(200, [("a", i) for i in range(200)])
    # this add crosses the cap: only its first 56 witnesses are kept
    w.add(100, iter([("b", i) for i in range(100)]))
    w.add(3, lambda: [("c", i) for i in range(3)])
    assert w.count == 303
    assert w.kept == [("a", i) for i in range(200)] + [("b", i) for i in range(56)]


def test_add_to_a_full_list_never_touches_the_producer():
    w = Witnesses(WITNESS_CAP, range(WITNESS_CAP))
    for _ in range(3):
        w.add(5, untouchable())
        w.add(1, untouchable().__call__)
    assert w.count == WITNESS_CAP + 18
    assert w.kept == list(range(WITNESS_CAP))


def test_crossing_the_cap_stops_the_producer_at_the_cap():
    pulled = []

    def batch():
        for i in range(10):
            pulled.append(i)
            yield i

    w = Witnesses(WITNESS_CAP - 4, range(WITNESS_CAP - 4))
    w.add(10, batch())
    assert w.count == WITNESS_CAP + 6
    assert w.kept[-4:] == [0, 1, 2, 3] and pulled == [0, 1, 2, 3]


def test_a_zero_count_add_changes_nothing():
    w = Witnesses(3, "xyz")
    w.add(0, untouchable())
    w.add(0, untouchable().__call__)
    assert (w.count, w.kept) == (3, ["x", "y", "z"])
    empty = Witnesses(0, untouchable())
    assert (empty.count, empty.kept) == (0, [])


def cap_reads(source: str, owner: str | None = None) -> list:
    """Line numbers of the reads of WITNESS_CAP, by name or as an attribute,
    outside the class named ``owner``; an import under another name counts."""
    tree = ast.parse(source)
    inside = {id(node) for cls in ast.walk(tree)
              if isinstance(cls, ast.ClassDef) and cls.name == owner
              for node in ast.walk(cls)}
    lines = []
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and node.id == "WITNESS_CAP" \
                or isinstance(node, ast.Attribute) and node.attr == "WITNESS_CAP":
            if isinstance(node.ctx, ast.Load):
                lines.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and any(a.name == "WITNESS_CAP" for a in node.names):
            lines.append(node.lineno)
    return sorted(lines)


def test_checker_flags_reads_outside_the_owner():
    source = (
        "from .bmetric import WITNESS_CAP\n"
        "WITNESS_CAP = 256\n"
        "class Witnesses:\n"
        "    def room(self):\n"
        "        return WITNESS_CAP\n"
        "def head(xs):\n"
        "    return xs[:bmetric.WITNESS_CAP]\n"
        "room = WITNESS_CAP - 3\n"
    )
    assert cap_reads(source, "Witnesses") == [1, 7, 8]
    assert cap_reads(source) == [1, 5, 7, 8]


def test_only_the_witnesses_class_reads_the_cap():
    found = {}
    for path in sorted(SRC.glob("*.py")):
        owner = "Witnesses" if path.name == "bmetric.py" else None
        lines = cap_reads(path.read_text(), owner)
        if lines:
            found[path.name] = lines
    assert found == {}
    # and the class does read it: the test above is not vacuous
    assert cap_reads((SRC / "bmetric.py").read_text())
