"""Relation-preserving Picard iteration, proof-derived diagnostics, and oracles."""

from __future__ import annotations

from .bmetric import BMetricSpace, Point, Witnesses
from .records import fresh, record
from .relation import RelationReport, _bits, _intransitive_rows, transitive_closure
from .contraction import (
    ContractionProblem,
    ContractionVerdict,
    SelfMap,
    verify_contraction,
    verify_uniqueness_condition,
)


class StartNotAdmissible(ValueError):
    """Start point is not related to its own image: it is not in M(F;R)."""


class RelationBroken(RuntimeError):
    """The orbit produced a consecutive pair outside the relation."""

    def __init__(self, pair):
        self.pair = pair
        super().__init__(f"orbit pair {pair} left the relation; F-closedness premise is broken")


@record
class IterationTrace:
    orbit: list                 # point values sigma_0 .. sigma_N
    orbit_ids: list
    steps: list                 # C_n = d(sigma_{n-1}, sigma_n), n = 1..N
    phi_values: list
    residual: float
    terminated_by: str          # exact-fixed-point | cycle

    @property
    def terminal_id(self) -> int:
        return self.orbit_ids[-1]


def picard_iterate(problem: ContractionProblem, start: Point) -> IterationTrace:
    """Iterate sigma_{n+1} = F sigma_n from an admissible start, recording the trace.

    On a finite space every orbit repeats a point within len(space) steps.
    The iteration stops at the first repeated id, which is the last entry of
    ``orbit_ids``: ``exact-fixed-point`` when it repeats the previous point,
    ``cycle`` otherwise.  Every recorded consecutive pair is required to lie
    in the relation; a violation aborts with the witness since it falsifies
    the closedness premise the proof relies on.
    """
    if not isinstance(start, Point):
        raise TypeError(f"start must be a Point, not {type(start).__name__}")
    space = problem.space
    # ContractionProblem validated every image into [0, n): the tables are read directly
    fmap, d, phi = problem.map.mapping, space._d, problem.potential.values
    points, R = space.points, problem.relation
    # ContractionProblem keeps R's rows within the space; pad them to it
    rows = [*R._rows, *[0] * (len(space) - len(R._rows))]
    sid = start.id
    if not rows[sid] >> fmap[sid] & 1:
        raise StartNotAdmissible(
            f"start {start.value!r} (point id {sid}) is not in the admissible set M(F;R): "
            f"it is not related to its image {points[fmap[sid]].value!r}"
        )

    ids = [sid]
    seen = {sid}
    steps = []
    while True:
        cur = ids[-1]
        nxt = fmap[cur]
        if not rows[cur] >> nxt & 1:
            raise RelationBroken((points[cur].value, points[nxt].value))
        ids.append(nxt)
        steps.append(d[cur][nxt])
        if nxt in seen:
            break
        seen.add(nxt)

    terminal = ids[-1]
    return IterationTrace(
        orbit=[points[i].value for i in ids],
        orbit_ids=ids,
        steps=steps,
        phi_values=[phi[i] for i in ids],
        residual=d[terminal][fmap[terminal]],
        terminated_by="exact-fixed-point" if terminal == ids[-2] else "cycle",
    )


def _estimate_rho(steps):
    """A posteriori contraction factor: max ratio over the last half of positive steps."""
    ratios = []
    for n in range(len(steps) - 1):
        if steps[n] > 0 and steps[n + 1] > 0:
            ratios.append((n + 1, steps[n + 1] / steps[n]))
    if len(ratios) < 3:
        return None, None
    tail = ratios[len(ratios) // 2:]
    rho = max(r for _, r in tail)
    # no tail ratio exceeds rho, so a ratio follows the last one above it
    last_above = next((i for i in reversed(range(len(ratios))) if ratios[i][1] > rho), -1)
    return rho, ratios[last_above + 1][0]


@record
class RatioDiagnostics:
    ratios: list                 # C_{n+1}/C_n at indices with C_n > 0
    per_index_bound_ok: bool
    per_index_witnesses: list
    telescoping_ok: bool
    ratio_sum: float
    phi_budget: float            # phi(sigma_0) - phi(sigma_N)
    rho: float | None            # max ratio over the tail of positive steps
    n0: int | None               # first index past which ratios stay <= rho
    geometric_decay_ok: bool | None   # None = not exercised (trace too short)


def ratio_diagnostics(trace: IterationTrace, tol: float = 0.0) -> RatioDiagnostics:
    """Check the proof's step-ratio mechanics on a recorded trace.

    Per index n with C_n > 0: C_{n+1}/C_n <= phi(sigma_{n-1}) - phi(sigma_n).
    This includes the step into a fixed point, where C_{n+1} = 0 and the
    ratio is 0: the contraction forces a positive potential drop on every
    step with C_n > 0.  The ratio partial sum must stay within the total
    potential drop phi(sigma_0) - phi(sigma_N).  On traces with at least
    three pairs of consecutive positive steps the estimated rho < 1 must
    dominate every ratio from n0 on (the eventual geometric decay); shorter
    traces leave rho, n0 and geometric_decay_ok null.
    """
    steps, phi = trace.steps, trace.phi_values
    if not steps:
        raise ValueError("trace has no steps")
    ratios = []
    witnesses = []
    ratio_sum = 0.0
    for n in range(len(steps) - 1):
        if steps[n] <= 0:
            continue
        ratio = steps[n + 1] / steps[n]
        ratios.append(ratio)
        ratio_sum += ratio
        drop = phi[n] - phi[n + 1]
        if ratio > drop + tol:
            witnesses.append({"n": n + 1, "ratio": ratio, "phi_drop": drop})
    budget = phi[0] - phi[-1]

    decay_ok = None
    rho, n0 = _estimate_rho(steps)
    if rho is not None:
        decay_ok = rho < 1
        for n in range(n0 - 1, len(steps) - 1):
            if steps[n] > 0 and steps[n + 1] > rho * steps[n] + tol:
                decay_ok = False
    return RatioDiagnostics(
        ratios=ratios,
        per_index_bound_ok=not witnesses,
        per_index_witnesses=witnesses,
        telescoping_ok=ratio_sum <= budget + tol,
        ratio_sum=ratio_sum,
        phi_budget=budget,
        rho=rho,
        n0=n0,
        geometric_decay_ok=decay_ok,
    )


def enumerate_fixed_points(space: BMetricSpace, fmap: SelfMap) -> list:
    """Brute-force oracle: every point equal to its own image."""
    fmap.validate(space)
    return [p for p in space.points if fmap(p) == p.id]


class CertificationError(RuntimeError):
    """The trace's terminal point fails a cross-check against the oracle."""


@record
class FixedPointCertificate:
    """``contradictions`` and ``unconnected_pairs`` keep their first WITNESS_CAP
    entries in (a, b) order; the counts are exact."""

    fixed_points: list           # values, oracle-enumerated
    solver_result: float
    unique: bool
    contradiction_count: int = 0
    contradictions: list = fresh(list)
    unconnected_count: int = 0
    unconnected_pairs: list = fresh(list)


def certify(
    problem: ContractionProblem,
    trace: IterationTrace,
    verdict: ContractionVerdict | None = None,
    relation: RelationReport | None = None,
) -> FixedPointCertificate:
    """Cross-check a terminated trace against the exhaustive fixed-point oracle.

    With several fixed points, a pair joined by a relation path in either
    direction is listed as a contradiction when the contraction verdict holds
    on at least one active pair; a pair with no path either way is listed as
    unconnected.  ``verdict`` is the contraction verdict of this problem to
    judge by, e.g. the one a hypothesis report printed; None builds it at the
    problem's default tolerance.  No verified hypothesis relates two fixed
    points: the contraction premise d(sigma, F sigma) > 0 fails at a fixed
    point, and a transitive R collapses any path between fixed points to a
    pair starting at one.  So when every ledger row passes without help from
    the tolerance, a listed pair is a counterexample to the paper's
    uniqueness clause; only a tolerance that hides a failing row makes it a
    data inconsistency.  A wholly vacuous verdict (no related pair has
    d(sigma, F sigma) > 0) claims nothing either way and lists no
    contradiction.

    Connectivity is read off R's transitive closure and its columns, so the
    counts cost no path search.  A transitive R is its own closure, and its
    rows and columns are read; only a relation that is not transitive is
    closed (``transitive_closure``).  ``relation``, when given, is
    ``build_relation_report`` of this problem's space, relation and map, and
    its transitivity verdict is read; without it the verdict is taken from
    R's rows, or from the mark of a relation ``transitive_closure`` built,
    and no witness is listed.  The pairs are counted by bit rows, one step
    per fixed point a: the fixed ids above a that lie in a's reach row or
    column are joined to it, and the rest are unconnected.  Only the listed
    pairs, the first WITNESS_CAP of each kind in (a, b) order, are built one
    by one.  Each listed contradiction carries a
    path, shortest from a to b when one exists and else from b to a: a
    related pair is its own path, read off R's row, and only the other
    pairs search one.  The "passes only by tolerance" test reads the
    verdict's smallest zeta value.
    """
    if trace.terminated_by != "exact-fixed-point":
        raise ValueError("trace did not end at a fixed point; cannot certify")
    space = problem.space
    # ContractionProblem validated the map: enumerate_fixed_points' oracle, read directly
    fmap = problem.map.mapping
    ids = [i for i in range(len(space)) if fmap[i] == i]
    terminal = trace.terminal_id
    if trace.residual == 0 and terminal not in ids:
        raise CertificationError("terminal point has zero residual but is not an oracle fixed point")
    if trace.residual > 0:
        raise CertificationError("exact termination with positive residual")

    values = [p.value for p in space.points]
    contradictions, unconnected = Witnesses(), Witnesses()
    if len(ids) >= 2:
        if verdict is None:
            verdict = verify_contraction(problem)
        contraction_ok = verdict.ok and verdict.active_count > 0
        # a passing verdict computed a zeta value on every active row; one
        # below 0 passes only by the tolerance (-0.0 is not below 0)
        if contraction_ok and verdict.zeta_min < 0:
            note = ("connected fixed points under a verdict that passes only by "
                    "tolerance; data inconsistent")
        else:
            note = ("connected fixed points under a passing contraction verdict: "
                    "a counterexample to the paper's uniqueness clause")
        # ContractionProblem keeps R's rows within the space; pad them to it
        R = problem.relation
        pad = [0] * (len(space) - len(R._rows))
        # a transitive R is its own closure
        transitive = relation.transitive if relation is not None else not _intransitive_rows(R)
        closure = R if transitive else transitive_closure(R)
        # reach[a]: the ids a reaches; cols[a]: the ids that reach a
        rows, reach, cols = [*R._rows, *pad], [*closure._rows, *pad], [*closure._cols, *pad]

        def witnesses(a, joined):
            """The pairs (a, b), b in ``joined``, built as the list reads them."""
            for b in _bits(joined):
                src, dst = (a, b) if reach[a] >> b & 1 else (b, a)
                # find_path's first case: a related pair is its own path
                if rows[src] >> dst & 1:
                    path = (src, dst)
                else:
                    path = verify_uniqueness_condition(problem, src, dst).path.nodes
                yield {"pair": (values[a], values[b]), "path": [values[k] for k in path],
                       "note": note}

        above = sum(1 << a for a in ids)
        for a in ids:
            above &= above - 1  # drop a, the lowest fixed id left: the ones above it stay
            joined = above & (reach[a] | cols[a])
            rest = above & ~joined
            unconnected.add(rest.bit_count(), lambda a=a, rest=rest: [
                (values[a], values[b]) for b in _bits(rest)])
            if contraction_ok:
                contradictions.add(joined.bit_count(), witnesses(a, joined))
    return FixedPointCertificate(
        fixed_points=sorted([values[i] for i in ids]),
        solver_result=values[terminal],
        unique=len(ids) == 1,
        contradiction_count=contradictions.count,
        contradictions=contradictions.kept,
        unconnected_count=unconnected.count,
        unconnected_pairs=unconnected.kept,
    )
