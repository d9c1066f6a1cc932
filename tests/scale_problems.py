"""Problem files at scale for the byte-identity gate, written as text.

Each function returns the text of one ``.problem`` file.  They mirror the
benchmark's instance shapes without importing it, so the inputs stay fixed
when the benchmark changes: a shuffled complete relation with every even
point fixed, a long chain closed by ``transitive-closure``, a relation whose
fixed points are joined only through other points, and a file that spells
one value several ways.
"""

import random


def _text(points, metric, s, pairs_lines, mapping, potential, lam, start=None,
          transitive_closure=False) -> str:
    r = repr
    lines = ["[space]", "points = " + " ".join(map(r, points)), f"metric = {metric}",
             f"s = {r(s)}", "", "[relation]", *pairs_lines]
    if transitive_closure:
        lines.append("transitive-closure = true")
    lines += ["", "[map]", *(f"{r(a)} = {r(b)}" for a, b in mapping.items())]
    lines += ["", "[potential]", *(f"{r(a)} = {r(x)}" for a, x in potential.items())]
    lines += ["", "[zeta]", "family = linear", f"lambda = {r(lam)}"]
    if start is not None:
        lines += ["", "[solver]", f"start = {r(start)}"]
    return "\n".join(lines) + "\n"


def _pairs_line(pairs) -> str:
    return "pairs = " + " ".join(f"({a!r},{b!r})" for a, b in pairs)


def _even_fixed(xs):
    """Every even-indexed point fixed, each odd one mapped to its left
    neighbour; the potential is 0 on fixed points and 10**6 elsewhere, so
    the contraction verdict passes on the odd rows."""
    mapping = {x: xs[k - k % 2] for k, x in enumerate(xs)}
    potential = {x: 0.0 if k % 2 == 0 else 1e6 for k, x in enumerate(xs)}
    return mapping, potential


def complete_even_fixed(n: int = 160, seed: int = 3) -> str:
    """Every ordered pair of n integer points, shuffled."""
    rng = random.Random(seed)
    xs = [float(x) for x in sorted(rng.sample(range(4 * n), n))]
    pairs = [(a, b) for a in xs for b in xs]
    rng.shuffle(pairs)
    mapping, potential = _even_fixed(xs)
    return _text(xs, "squared-difference", 2.0, [_pairs_line(pairs)], mapping, potential, 0.5)


def step_chain(n: int = 160, seed: int = 5) -> str:
    """A descending chain whose steps shrink at ratio 0.9, written as its n - 1
    step pairs (shuffled) and closed by ``transitive-closure = true``."""
    rng = random.Random(seed)
    xs = [1.0 + rng.random()]
    for k in reversed(range(n - 1)):
        xs.append(xs[-1] + 0.5 * 0.9 ** k)
    xs.reverse()
    pairs = [(xs[k], xs[k + 1]) for k in range(n - 1)] + [(xs[-1], xs[-1])]
    rng.shuffle(pairs)
    mapping = {xs[k]: xs[min(k + 1, n - 1)] for k in range(n)}
    potential = {xs[k]: float(n - 1 - k) for k in range(n)}
    return _text(xs, "absolute-difference", 1.0, [_pairs_line(pairs)], mapping, potential,
                 0.95, start=xs[0], transitive_closure=True)


def joined_through_others(n: int = 48) -> str:
    """Points 0, 10, 20, ...: the lower half linked upward step by step, the
    upper half downward, and nothing across, so R is not transitive, two
    fixed points of one half are joined only by a path through the odd
    points between them (upward or downward), and pairs across the halves
    are unconnected.  Each fixed point also has its loop, so the orbit from
    the lowest admissible start stays in R."""
    xs = [10.0 * k for k in range(n)]
    half = n // 2
    pairs = [(xs[k], xs[k + 1]) for k in range(half - 1)]
    pairs += [(xs[k + 1], xs[k]) for k in range(half, n - 1)]
    pairs += [(x, x) for x in xs[::2]]
    mapping, potential = _even_fixed(xs)
    return _text(xs, "squared-difference", 2.0, [_pairs_line(pairs)], mapping, potential, 0.5)


def spelled_values() -> str:
    """One value written as 1, 1.0, 1e0 and 1 + 5e-13 (within VALUE_ATOL of
    the point 1) across a ``pairs`` and a spaced ``pair`` line, with repeats."""
    lines = ["pairs = (1,2) (1.0,3) (1e0,0) (2,1.0) (0,0)",
             "pair = ( 1.0000000000005 , 2.0 ) ( 3 , 1e0 ) (1,2) ( 3 , 2.0 )"]
    mapping = {0.0: 0.0, 1.0: 0.0, 2.0: 1.0, 3.0: 2.0}
    potential = {0.0: 0.0, 1.0: 5.0, 2.0: 10.0, 3.0: 15.0}
    return _text([0.0, 1.0, 2.0, 3.0], "squared-difference", 2.0, lines, mapping, potential,
                 0.9, start=3.0)


SCALE_PROBLEMS = {"complete_even_fixed": complete_even_fixed, "step_chain": step_chain,
                  "joined_through_others": joined_through_others,
                  "spelled_values": spelled_values}
