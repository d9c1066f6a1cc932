"""Per-layer tracing of relfix from the benchmark's side.

The tracer replaces public functions by wrappers that record nested spans
(layer name, start, end, parent) and exact counts.  ``from .x import f``
binds ``f`` in the importing module, so each name is patched in the module
that calls it.  A missing target raises ``PatchTargetMissing``: a renamed
function would otherwise drop out of the trace without a sign.

``bmetric.distance`` is never wrapped: the axiom scan calls it millions of
times, and a wrapper there would measure the wrapper.  Likewise only the
outermost ``report._plain`` call is a span; its recursion runs in an
unwrapped copy of the function.
"""

from __future__ import annotations

import importlib
import json
import time
import types
from collections import Counter, defaultdict

ROOT = "report.cli"        # the op itself: argparse, file read, exit status
GLUE = "report.dispatch"   # run_command and the fragment builders; no listed layer

# (module that makes the call, attribute, layer)
SPANS = (
    ("relfix.cli", "parse_problem", "problemfile.parse"),
    ("relfix.cli", "build_problem", "problemfile.build"),
    ("relfix.cli", "run_command", GLUE),
    ("relfix.problemfile", "transitive_closure", "relation.closure"),
    ("relfix.problemfile", "symmetric_closure", "relation.closure"),
    ("relfix.report", "header", ROOT),
    ("relfix.report", "verify_bmetric_axioms", "bmetric.axioms"),
    ("relfix.report", "check_zeta_axioms", "simulation.zeta_axioms"),
    ("relfix.report", "verify_all_hypotheses", "contraction.hypotheses"),
    ("relfix.report", "build_relation_report", "relation.report"),
    ("relfix.report", "linear_lambda_threshold", "contraction.lambda"),
    ("relfix.report", "picard_iterate", "solver.picard"),
    ("relfix.report", "ratio_diagnostics", "solver.ratio"),
    ("relfix.report", "certify", "solver.certify"),
    ("relfix.contraction", "verify_contraction", "contraction.ledger"),
    ("relfix.solver", "verify_contraction", "contraction.ledger"),
    ("relfix.solver", "verify_uniqueness_condition", "contraction.uniqueness"),
)

# calls counted without a span of their own
CALL_COUNTS = (
    ("relfix.relation", "is_transitive", "relation.is_transitive.calls"),
    ("relfix.contraction", "is_transitive", "relation.is_transitive.calls"),
    ("relfix.contraction", "find_path", "relation.find_path.calls"),
)


def _witnesses(rep) -> int:
    return len(rep.identity_witnesses) + len(rep.symmetry_witnesses) + len(rep.triangle_witnesses)


# counts read from a call's arguments and result once the op has finished
RESULT_COUNTS = {
    "build_problem": lambda args, res: {"relation.pairs": len(res.problem.relation)},
    "verify_bmetric_axioms": lambda args, res: {
        "bmetric.triples": len(args[0]) ** 3,
        "bmetric.witnesses": _witnesses(res),
    },
    "verify_contraction": lambda args, res: {
        "contraction.ledger.calls": 1,
        "contraction.ledger.active_rows": len(res.active_rows),
    },
    "picard_iterate": lambda args, res: {"solver.orbit_len": len(res.orbit)},
    "certify": lambda args, res: {"solver.fixed_points": len(res.fixed_points)},
}

SELF_LAYERS = (
    "problemfile.parse", "problemfile.build",
    "relation.closure", "relation.report",
    "bmetric.axioms",
    "simulation.zeta_axioms",
    "contraction.hypotheses", "contraction.ledger", "contraction.lambda", "contraction.uniqueness",
    "solver.picard", "solver.ratio", "solver.certify",
    "report.encode", ROOT,
)

COUNTS = (
    "problemfile.input_bytes", "relation.pairs",
    "relation.is_transitive.calls", "relation.find_path.calls", "relation.successors.calls",
    "bmetric.triples", "bmetric.witnesses",
    "contraction.ledger.calls", "contraction.ledger.active_rows",
    "solver.orbit_len", "solver.fixed_points",
    "report.json_bytes",
)


class PatchTargetMissing(RuntimeError):
    """A function the tracer must wrap is not where the patch table says."""


def _target(owner, attr: str):
    fn = getattr(owner, attr, None)
    if not callable(fn):
        raise PatchTargetMissing(f"{owner.__name__}.{attr} is missing or not callable")
    return fn


class Tracer:
    """Spans and counts for one op at a time; install() patches, uninstall() restores."""

    def __init__(self):
        self.spans = []            # [layer, start, end, parent index]
        self._stack = []
        self._pending = []         # (extractor, args, result) read after the op
        self.counts = Counter()
        self._saved = []

    # -- patching --------------------------------------------------------
    def _set(self, owner, attr, value):
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        module = importlib.import_module
        for module_name, attr, layer in SPANS:
            owner = module(module_name)
            self._set(owner, attr, self._span(_target(owner, attr), layer, RESULT_COUNTS.get(attr)))
        for module_name, attr, name in CALL_COUNTS:
            owner = module(module_name)
            self._set(owner, attr, self._counter(_target(owner, attr), name))
        relation = _target(module("relfix.relation"), "BinaryRelation")
        self._set(relation, "successors",
                  self._counter(_target(relation, "successors"), "relation.successors.calls"))

        report = module("relfix.report")
        plain = _target(report, "_plain")
        inner = types.FunctionType(plain.__code__, dict(plain.__globals__), plain.__name__,
                                   plain.__defaults__, plain.__closure__)
        inner.__globals__[plain.__name__] = inner
        self._set(report, "_plain", self._span(inner, "report.encode"))

        cli = module("relfix.cli")
        if getattr(cli, "json", None) is not json:
            raise PatchTargetMissing("relfix.cli no longer encodes through the json module")
        shim = types.SimpleNamespace(**vars(json))
        shim.dump = self._span(json.dump, "report.encode")
        self._set(cli, "json", shim)

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- recording -------------------------------------------------------
    def _span(self, fn, layer, extractor=None):
        spans, stack, pending, clock = self.spans, self._stack, self._pending, time.perf_counter

        def wrapper(*args, **kwargs):
            spans.append([layer, clock(), None, stack[-1] if stack else None])
            stack.append(len(spans) - 1)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[stack.pop()][2] = clock()
            if extractor is not None:
                pending.append((extractor, args, result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def call(self, fn, *args):
        """Run one op under the root span; returns fn's result."""
        return self._span(fn, ROOT)(*args)

    def finish_op(self) -> dict:
        """Fold the op's spans into per-layer self seconds and clear them."""
        for extractor, args, result in self._pending:
            self.counts.update(extractor(args, result))
        self._pending.clear()
        child_time = defaultdict(float)
        for layer, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        self_s = defaultdict(float)
        for i, (layer, start, end, parent) in enumerate(self.spans):
            self_s[layer] += (end - start) - child_time[i]
        self.spans.clear()
        return self_s
