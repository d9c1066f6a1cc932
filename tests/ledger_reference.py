"""The column-building contraction ledger that the one-pass fold replaced, kept
as a test reference.

``reference_ledger`` is the old ``verify_contraction``: it builds one list per
ledger quantity, indexed by row (the related pairs in ``sorted_pairs()``
order), and returns what ``vars(verdict)`` of the old verdict read: the six
report fields, then ``failing`` (every failing row index) and the seven
columns, in that order.  ``reference_lambda_threshold`` is the old
``linear_lambda_threshold``, walking three of those columns.
"""

import math
from itertools import compress, count, repeat
from operator import gt

from relfix.bmetric import WITNESS_CAP
from relfix.relation import _bits

COLUMNS = ("sigma", "rho", "d_sigma_fsigma", "d_pair", "d_image_pair", "s_arg", "zeta_value")


def reference_ledger(problem, tol=None) -> dict:
    """Evaluate the contraction inequality on every related pair.

    Pairs with d(sigma, F sigma) = 0 are vacuous (the premise fails) and pass.
    An active pair passes when t, s_arg >= 0 and its zeta value is >= -tol, so
    a zero s_arg with a positive t fails, as zeta2 requires (zeta(t, 0) < -t).
    """
    if tol is None:
        tol = problem.default_tol()
    d, s, zeta = problem.space._d, problem.space.s, problem.zeta
    values = [p.value for p in problem.space.points]
    fmap, phi = problem.map.mapping, problem.potential.values
    sigma, rho, d_self, d_pair, d_image, s_arg = [], [], [], [], [], []
    # the rows' bits, walked in id order, are the pairs in sorted_pairs() order
    for a, bs in enumerate(map(_bits, problem.relation._rows)):
        fa, row, k = fmap[a], d[a], len(bs)
        pair, drop = [row[b] for b in bs], phi[a] - phi[fa]
        sigma += [values[a]] * k
        rho += [values[b] for b in bs]
        d_self += [row[fa]] * k
        d_pair += pair
        d_image += [d[fa][fmap[b]] for b in bs]
        s_arg += [drop * x for x in pair]
    active = list(compress(count(), map(gt, d_self, repeat(0.0))))
    # simulation.evaluate's expression, inline; the guard is its domain check
    lam, mu = zeta.lam, zeta.t_coeff
    zeta_value, failing = [None] * len(sigma), []
    for i in active:
        t, sa = s * d_image[i], s_arg[i]
        if t >= 0 and sa >= 0:
            z = zeta_value[i] = lam * sa - mu * t
            if z >= -tol:
                continue
        failing.append(i)
    head = failing[:WITNESS_CAP]
    columns = {"sigma": sigma, "rho": rho, "d_sigma_fsigma": d_self, "d_pair": d_pair,
               "d_image_pair": d_image, "s_arg": s_arg, "zeta_value": zeta_value}
    failing_rows = {"row": head, **{k: [c[i] for i in head] for k, c in columns.items()}}
    return dict(
        ok=not failing, s=s, tol=tol, active_count=len(active), failing_count=len(failing),
        failing_rows=failing_rows, failing=failing, **columns,
    )


def reference_active_rows(ledger: dict) -> list:
    """The old ``ContractionVerdict.active_rows``: the rows with d_sigma_fsigma > 0."""
    return list(compress(count(), map(gt, ledger["d_sigma_fsigma"], repeat(0.0))))


def reference_lambda_threshold(ledger: dict) -> float:
    """Bound on lambda from the linear family's row constraints lambda * s_arg >= t.

    The max of t / s_arg over the ledger's active rows with s_arg > 0, or
    +inf when an active row has s_arg = 0 < t, or s_arg < 0 (outside zeta's
    domain), which no lambda passes.
    """
    s, lo = ledger["s"], 0.0
    # one walk of the columns; a row is active when d_sigma_fsigma > 0
    for d_self, d_image, s_arg in zip(ledger["d_sigma_fsigma"], ledger["d_image_pair"],
                                      ledger["s_arg"]):
        if not d_self > 0:
            continue
        t = s * d_image
        if s_arg > 0:
            q = t / s_arg
            if q > lo:
                lo = q
        elif t > 0 or s_arg < 0:
            return math.inf
    return lo


def reference_row(ledger: dict, sigma, rho) -> int:
    """The row index of the pair (sigma, rho), by value."""
    return list(zip(ledger["sigma"], ledger["rho"])).index((sigma, rho))


def assert_verdict_matches(verdict, ledger: dict):
    """The one-pass verdict against the column ledger of the same problem and
    tolerance: every report field (repr, so -0.0 and 0.0 differ), the active
    rows, the lambda threshold and the smallest zeta value."""
    fields = verdict._report_fields
    assert fields == tuple(ledger)[:6]
    assert repr([getattr(verdict, k) for k in fields]) == repr([ledger[k] for k in fields])
    assert verdict.active_rows == reference_active_rows(ledger)
    assert repr(verdict.lambda_threshold) == repr(reference_lambda_threshold(ledger))
    computed = [z for z in ledger["zeta_value"] if z is not None]
    assert repr(verdict.zeta_min) == repr(min(computed, default=math.inf))
    # certify's old test: filter drops None and zeros, and no zero is below 0
    assert (verdict.zeta_min < 0) is (min(filter(None, ledger["zeta_value"]), default=0.0) < 0)
