"""Structured report assembly: a dict of the result dataclasses in a stable
order, encoded once with ``json.dumps(report, default=_plain)``."""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import math
from datetime import datetime, timezone

from . import __version__
from .bmetric import UnknownPointError, verify_bmetric_axioms
from .contraction import (ContractionVerdict, compute_mfr, linear_lambda_threshold,
                          verify_all_hypotheses, verify_contraction)
from .problemfile import ProblemBundle
from .relation import build_relation_report
from .simulation import check_zeta_axioms
from .solver import CertificationError, certify, picard_iterate, ratio_diagnostics

SCHEMA_VERSION = 3


@functools.cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in dataclasses.fields(cls))  # TypeError unless a dataclass


def _plain(obj) -> dict:
    """``json.dumps(default=)`` hook: one report dataclass as a dict of its fields."""
    return {name: getattr(obj, name) for name in _field_names(type(obj))}


def header(input_bytes: bytes) -> dict:
    # generated_at is the only nondeterministic field; consumers comparing
    # reports should drop the header
    return {
        "toolkit_version": __version__,
        "schema_version": SCHEMA_VERSION,
        "input_digest": hashlib.sha256(input_bytes).hexdigest(),
        "generated_at": datetime.now(timezone.utc).isoformat(),
    }


def axioms_fragment(bundle: ProblemBundle, tol: float | None = None) -> tuple[dict, bool]:
    problem = bundle.problem
    axiom_report = verify_bmetric_axioms(problem.space, tol)
    zeta_report = check_zeta_axioms(problem.zeta)
    ok = axiom_report.all_ok and zeta_report.all_ok
    return {"bmetric_axioms": axiom_report, "zeta_axioms": zeta_report}, ok


def verify_fragment(bundle: ProblemBundle, tol: float | None = None) -> tuple[dict, bool, ContractionVerdict]:
    problem = bundle.problem
    hyp = verify_all_hypotheses(problem, tol)
    rel = build_relation_report(problem.space, problem.relation, problem.map.mapping)
    frag = {"relation": rel, "hypotheses": hyp}
    if problem.zeta.family == "linear":
        threshold = linear_lambda_threshold(hyp.contraction)
        # JSON has no infinity; null means no lambda passes
        frag["linear_lambda_threshold"] = threshold if threshold < math.inf else None
    return frag, hyp.all_hypotheses_ok, hyp.contraction


def _default_start(problem):
    mfr = compute_mfr(problem.space, problem.relation, problem.map)
    if not mfr:
        raise ValueError("M(F;R) is empty: no admissible starting point")
    return min(mfr, key=lambda p: p.id)


def _solve(bundle: ProblemBundle, start=None, max_iter=None):
    problem = bundle.problem
    if start is None:
        start = bundle.solver.start
    if start is None:
        point = _default_start(problem)
    else:
        try:
            point = problem.space.point_by_value(float(start))
        except UnknownPointError:
            raise ValueError(f"start {float(start)!r} is not a point of the space") from None
    trace = picard_iterate(
        problem,
        point,
        max_iter=max_iter if max_iter is not None else bundle.solver.max_iter,
    )
    frag = {"trace": trace}
    if trace.steps:
        frag["ratio_diagnostics"] = ratio_diagnostics(trace, tol=problem.default_tol())
    return frag, trace.terminated_by == "exact-fixed-point", trace


def certify_fragment(bundle: ProblemBundle, start=None, tol=None, max_iter=None,
                     verdict: ContractionVerdict | None = None) -> tuple[dict, bool]:
    """Solve and certify on ``verdict``, the ledger to judge by; None builds it at ``tol``."""
    frag, solved, trace = _solve(bundle, start=start, max_iter=max_iter)
    if not solved:
        return frag, False
    if verdict is None:
        verdict = verify_contraction(bundle.problem, tol)
    try:
        cert = certify(bundle.problem, trace, verdict)
    except CertificationError as exc:
        frag["certificate_error"] = str(exc)
        return frag, False
    frag["certificate"] = cert
    return frag, not cert.contradictions


def run_command(
    command: str,
    bundle: ProblemBundle,
    input_bytes: bytes = b"",
    start=None,
    tol=None,
    max_iter=None,
) -> tuple[dict, bool]:
    """Dispatch one CLI command; returns (report, pass) with pass driving the exit code.

    The report holds dataclasses; encode it with ``json.dumps(report, default=_plain)``."""
    report = {"header": header(input_bytes), "command": command}
    ok = True
    verdict = None  # report reuses the hypotheses' ledger for its certificate
    if command in ("axioms", "report"):
        frag, frag_ok = axioms_fragment(bundle, tol)
        report.update(frag)
        ok = ok and frag_ok
    if command in ("verify", "report"):
        frag, frag_ok, verdict = verify_fragment(bundle, tol)
        report.update(frag)
        ok = ok and frag_ok
    if command == "solve":
        frag, frag_ok, _ = _solve(bundle, start=start, max_iter=max_iter)
        report.update(frag)
        ok = ok and frag_ok
    if command in ("certify", "report"):
        frag, frag_ok = certify_fragment(bundle, start=start, tol=tol, max_iter=max_iter,
                                         verdict=verdict)
        report.update(frag)
        ok = ok and frag_ok
    if command not in ("axioms", "verify", "solve", "certify", "report"):
        raise ValueError(f"unknown command {command!r}")
    report["overall_pass"] = ok
    return report, ok
