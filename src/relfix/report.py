"""Structured report assembly: a dict of the result records in a stable
order, encoded once with ``json.dumps(report, default=_plain)``.

The body caps each witness list of the axioms, relation, ledger and
certificate records at its first WITNESS_CAP entries next to an exact count,
both filled through ``bmetric.Witnesses``; the per-point and per-step lists
grow linearly in n.  A field declared IN_MEMORY (such as the contraction
verdict's lambda threshold) stays on the object only."""

from __future__ import annotations

import math
import time

# the built-in SHA-256 first: hashlib maps OpenSSL's libcrypto, megabytes of RSS, for one digest
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from . import __version__
from .bmetric import Point, UnknownPointError, verify_bmetric_axioms
from .contraction import (compute_mfr, linear_lambda_threshold, verify_all_hypotheses,
                          verify_contraction)
from .problemfile import ProblemBundle
from .relation import build_relation_report
from .simulation import check_zeta_axioms
from .solver import CertificationError, certify, picard_iterate, ratio_diagnostics

SCHEMA_VERSION = 7
COMMANDS = ("axioms", "verify", "solve", "certify", "report")


def _plain(obj) -> dict:
    """``json.dumps(default=)`` hook: one report record as a dict of its report fields."""
    try:
        names = type(obj)._report_fields
    except AttributeError:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable") from None
    return {name: getattr(obj, name) for name in names}


def _utc_isoformat(ns: int) -> str:
    """``ns`` nanoseconds after the epoch as ``datetime.isoformat()`` writes the
    UTC datetime: microseconds truncated, and left out when they are 0."""
    sec, us = divmod(ns // 1000, 1_000_000)
    stamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(sec))
    return f"{stamp}.{us:06d}+00:00" if us else f"{stamp}+00:00"


def header(input_bytes: bytes) -> dict:
    # generated_at is the only nondeterministic field; consumers comparing
    # reports should drop the header
    return {
        "toolkit_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "input_digest": sha256(input_bytes).hexdigest(),
        "generated_at": _utc_isoformat(time.time_ns()),
    }


def _start_point(bundle: ProblemBundle, start, mfr: list | None = None) -> Point:
    """The point at ``start``, else at ``[solver] start``, else the lowest id in M(F;R).

    ``mfr`` is ``compute_mfr``'s list when the caller has it; otherwise it is
    computed here."""
    problem = bundle.problem
    if start is None:
        start = bundle.solver.start
    if start is None:
        if mfr is None:
            mfr = compute_mfr(problem.space, problem.relation, problem.map)
        if not mfr:
            raise ValueError("M(F;R) is empty: no admissible starting point")
        return mfr[0]  # compute_mfr lists the points in id order
    try:
        return problem.space.point_by_value(float(start))
    except UnknownPointError:
        raise ValueError(f"start {float(start)!r} is not a point of the space") from None


def run_command(
    command: str,
    bundle: ProblemBundle,
    input_bytes: bytes = b"",
    start=None,
    tol=None,
) -> tuple[dict, bool]:
    """Run one CLI command; returns (report, pass) with pass driving the exit code.

    ``report`` runs every other command's checks and judges its certificate on
    the ledger its hypotheses printed.  The report holds records; encode it
    with ``json.dumps(report, default=_plain)``."""
    if command not in COMMANDS:
        raise ValueError(f"unknown command {command!r}")
    problem = bundle.problem
    report = {"header": header(input_bytes), "command": command}
    ok = True
    if command in ("axioms", "report"):
        report["bmetric_axioms"] = verify_bmetric_axioms(problem.space, tol)
        report["zeta_axioms"] = check_zeta_axioms(problem.zeta)
        ok = report["bmetric_axioms"].all_ok and report["zeta_axioms"].zeta2_ok
    verdict = mfr = None
    if command in ("verify", "report"):
        # the hypotheses read F-closedness and transitivity off the relation report
        report["relation"] = build_relation_report(problem.space, problem.relation,
                                                   problem.map.mapping)
        hyp = verify_all_hypotheses(problem, tol, report["relation"])
        report["hypotheses"] = hyp
        if problem.zeta.family == "linear":
            threshold = linear_lambda_threshold(hyp.contraction)
            # JSON has no infinity; null means no lambda passes
            report["linear_lambda_threshold"] = threshold if threshold < math.inf else None
        ok = ok and hyp.all_hypotheses_ok
        verdict, mfr = hyp.contraction, hyp.mfr_points
    if command in ("solve", "certify", "report"):
        trace = picard_iterate(problem, _start_point(bundle, start, mfr))
        report["trace"] = trace
        report["ratio_diagnostics"] = ratio_diagnostics(trace, tol=problem.default_tol())
        solved = trace.terminated_by == "exact-fixed-point"
        ok = ok and solved
        if solved and command != "solve":
            if verdict is None:
                verdict = verify_contraction(problem, tol)
            try:
                cert = certify(problem, trace, verdict)
            except CertificationError as exc:
                report["certificate_error"] = str(exc)
                ok = False
            else:
                report["certificate"] = cert
                ok = ok and not cert.contradiction_count
    report["overall_pass"] = ok
    return report, ok
