"""Seeded instance families for the benchmark, with their expected outputs.

Every generator returns ``Instance`` records: the ``.problem`` text that is
the only thing relfix receives, the CLI arguments of the op, and the
expectations the output oracle checks.  The expectations are derived from
the construction itself (the fixed points by scanning the map, the
admissible set M(F;R) by scanning the relation), never from relfix.

This module imports nothing from relfix or from the repository's tests, so
the inputs of a given seed stay the same when the program changes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

# Default sizes: each family's op takes under 0.1 s on a 2-CPU machine, so a
# 25-second run times well over 100 ops and op_s_p90 has at least ten
# samples beyond it.  The sweep's 3000 instances keep the seed-to-seed
# variation of its instance mix near 1.5 % in op_s_p50.
SIZES = {"chain": 36, "fixedpoints": 24, "witness": 30, "sweep": 3000}

# Salts keep the families' random streams apart for the same --seed.
_SALT = {"chain": 11, "fixedpoints": 23, "witness": 37, "sweep": 41}

CHAIN_RATIO = 0.9
CHAIN_FIRST_STEP = 0.5
CHAIN_LAMBDA = 0.95


@dataclass
class Instance:
    text: str
    args: list                       # CLI arguments after the file path
    n: int
    pairs: int                       # |R| after the file's closures
    expect: dict


def problem_text(points, metric, s, pairs, mapping, potential, lam,
                 transitive_closure=False, start=None) -> str:
    """A ``.problem`` file with value-keyed entries and repr floats.

    ``mapping`` and ``potential`` map point values to values; repr keeps
    every float exact through the parser.
    """
    r = repr
    lines = [
        "[space]",
        "points = " + " ".join(r(float(v)) for v in points),
        f"metric = {metric}",
        f"s = {r(float(s))}",
        "",
        "[relation]",
        "pairs = " + " ".join(f"({r(float(a))},{r(float(b))})" for a, b in pairs),
        f"transitive-closure = {str(transitive_closure).lower()}",
        "",
        "[map]",
    ]
    lines += [f"{r(float(a))} = {r(float(b))}" for a, b in mapping.items()]
    lines += ["", "[potential]"]
    lines += [f"{r(float(a))} = {r(float(x))}" for a, x in potential.items()]
    lines += ["", "[zeta]", "family = linear", f"lambda = {r(float(lam))}"]
    if start is not None:
        lines += ["", "[solver]", f"start = {r(float(start))}"]
    return "\n".join(lines) + "\n"


def fixed_point_values(mapping) -> list:
    return sorted(a for a, b in mapping.items() if a == b)


def chain(seed: int, n: int) -> list:
    """Descending chain x_0 > ... > x_{n-1} with F x_k = x_{k+1}.

    Steps shrink at the constant ratio 0.9, so every consecutive step ratio
    is 0.9 and the smallest step (0.5 * 0.9**(n-2)) stays far above the
    float spacing near the fixed point.  The relation is the transitive
    closure of the chain pairs, about n**2 / 2 pairs, and the potential
    drops by one per step, so the linear lambda threshold is 0.9 and
    lambda = 0.95 passes every hypothesis.  The metric is a true metric, so
    min_feasible_s = 1.
    """
    rng = random.Random(seed * 1000 + _SALT["chain"])
    base = 1.0 + rng.random()
    xs = [base]
    for k in reversed(range(n - 1)):
        xs.append(xs[-1] + CHAIN_FIRST_STEP * CHAIN_RATIO ** k)
    xs.reverse()
    pairs = [(xs[k], xs[k + 1]) for k in range(n - 1)] + [(xs[-1], xs[-1])]
    rng.shuffle(pairs)
    order = list(range(n))
    rng.shuffle(order)
    mapping = {xs[k]: xs[min(k + 1, n - 1)] for k in order}
    potential = {xs[k]: n - 1 - k for k in order}
    text = problem_text(xs, "absolute-difference", 1.0, pairs, mapping, potential,
                        CHAIN_LAMBDA, transitive_closure=True, start=xs[0])
    expect = {
        "overall_pass": True,
        "fixed_points": fixed_point_values(mapping),
        "solver_result": xs[-1],
        "min_feasible_s": 1.0,
        "linear_lambda_threshold": CHAIN_RATIO,
        "start_admissible": True,
    }
    return [Instance(text, ["report", "--json"], n, n * (n - 1) // 2 + 1, expect)]


def fixedpoints(seed: int, n: int) -> list:
    """Complete relation on n integer points with every even-indexed point fixed.

    Odd-indexed points map to their left neighbour.  The potential is zero
    on fixed points and large elsewhere, so the contraction ledger passes on
    its active rows and certify must report every pair of the n/2 fixed
    points as connected, each a contradiction of the uniqueness theorem.
    """
    rng = random.Random(seed * 1000 + _SALT["fixedpoints"])
    xs = sorted(rng.sample(range(4 * n), n))
    pairs = [(a, b) for a in xs for b in xs]
    rng.shuffle(pairs)
    mapping = {x: xs[k - (k % 2)] for k, x in enumerate(xs)}
    potential = {x: 0 if k % 2 == 0 else 10 ** 6 for k, x in enumerate(xs)}
    text = problem_text(xs, "squared-difference", 2.0, pairs, mapping, potential, 0.5)
    expect = {
        "overall_pass": False,
        "fixed_points": [float(v) for v in fixed_point_values(mapping)],
        "solver_result": float(xs[0]),
        "start_admissible": True,
    }
    return [Instance(text, ["report", "--json"], n, n * n, expect)]


def _has_three_term_progression(values) -> bool:
    present = set(values)
    return any(2 * b - a in present for a in values for b in values if b > a)


def witness(seed: int, n: int) -> list:
    """Distinct integers under the squared-difference metric, checked at s = 1.

    Every ordered triple whose middle point lies strictly between the other
    two violates the plain triangle inequality, n(n-1)(n-2)/3 witnesses in
    all.  The values contain a three-term progression, so the worst triangle
    ratio is exactly 2.
    """
    rng = random.Random(seed * 1000 + _SALT["witness"])
    while True:
        xs = sorted(rng.sample(range(4 * n), n))
        if _has_three_term_progression(xs):
            break
    mapping = {x: x for x in xs}
    potential = {x: 1.0 for x in xs}
    text = problem_text(xs, "squared-difference", 2.0, [(xs[0], xs[0])], mapping,
                        potential, 0.5)
    expect = {"overall_pass": False, "min_feasible_s": 2.0, "triangle_ok": False}
    return [Instance(text, ["axioms", "--s", "1", "--json"], n, 1, expect)]


def _close_f_transitive(pairs, mapping):
    closed = set(pairs)
    while True:
        new = set()
        for a, b in closed:
            img = (mapping[a], mapping[b])
            if img not in closed:
                new.add(img)
        succ = {}
        for a, b in closed:
            succ.setdefault(a, set()).add(b)
        for a, b in closed:
            for c in succ.get(b, ()):
                if (a, c) not in closed:
                    new.add((a, c))
        if not new:
            return closed
        closed |= new


def _random_instance(rng: random.Random, max_points: int):
    """The random_problem family of the oracle sweeps, as plain values.

    Draws from the generator in the same order as the sweep tests do: point
    count, values, the lifted s, map, seed pairs closed under the map image
    and transitivity, potential, lambda.
    """
    n = rng.randint(2, max_points)
    values = sorted(rng.sample(range(0, 4 * max_points), n))
    worst = 1.0
    for a in values:
        for b in values:
            for w in values:
                num = (float(a) - float(w)) ** 2
                den = (float(a) - float(b)) ** 2 + (float(b) - float(w)) ** 2
                if den > 0:
                    worst = max(worst, num / den)
    mapping = {i: rng.randrange(n) for i in range(n)}
    seeds = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(1, n))}
    relation = _close_f_transitive(seeds, mapping)
    potential = {i: rng.uniform(0.0, 30.0) for i in range(n)}
    lam = rng.uniform(0.05, 0.95)
    return values, worst, mapping, relation, potential, lam


def _expected_orbit(n, mapping, relation):
    """Admissibility and terminal point of the default Picard run.

    relfix starts at the smallest admissible id and stops on an exact fixed
    point; with tol = 0 a cycle runs to the 10 * n iteration cap.
    """
    admissible = [i for i in range(n) if (i, mapping[i]) in relation]
    if not admissible:
        return False, None
    seen, cur = set(), admissible[0]
    while cur not in seen:
        seen.add(cur)
        if mapping[cur] == cur:
            return True, cur
        cur = mapping[cur]
    return True, None


def sweep(seed: int, count: int) -> list:
    """Many small random instances (at most 8 to 12 points each).

    About one in seven has an empty admissible set M(F;R); relfix exits 2 on
    those, and they stay in the workload.
    """
    rng = random.Random(seed * 1000 + _SALT["sweep"])
    out = []
    for _ in range(count):
        values, s, mapping, relation, potential, lam = _random_instance(rng, rng.randint(8, 12))
        n = len(values)
        admissible, terminal = _expected_orbit(n, mapping, relation)
        text = problem_text(
            values, "squared-difference", s,
            sorted((values[a], values[b]) for a, b in relation),
            {values[i]: values[mapping[i]] for i in range(n)},
            {values[i]: potential[i] for i in range(n)},
            lam,
        )
        expect = {
            "start_admissible": admissible,
            "fixed_points": [float(values[i]) for i in range(n) if mapping[i] == i],
            "solver_result": None if terminal is None else float(values[terminal]),
            "min_feasible_s": s,
        }
        out.append(Instance(text, ["report", "--json"], n, len(relation), expect))
    return out


FAMILIES = {"chain": chain, "fixedpoints": fixedpoints, "witness": witness, "sweep": sweep}


def generate(workload: str, seed: int, size: int | None = None) -> list:
    return FAMILIES[workload](seed, SIZES[workload] if size is None else size)
