"""Child process of one benchmark run: times relfix ops and checks their output.

Usage: python3 worker.py MANIFEST.json

One op is one in-process call to ``relfix.cli.main`` on one generated
problem file with stdout and stderr captured.  Ops run one after another
(a closed loop with one client), cycling through the manifest's files after
one untimed warm-up op.  The output oracle and the host-speed probe
(probe.py) run between ops, outside the timed region.  The result is one
JSON object on stdout.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import math
import resource
import statistics
import sys
import time

from probe import REF_S, probe

OK, EXIT2, FAILED = "ok", "exit2", "failed"
NO_START = "no admissible starting point"
PROBE_EVERY_S = 0.05       # long ops get a probe on each side; short ones share them


def _close(a, b, rel=1e-9) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=rel)


def check(expect: dict, rc, out: str, err: str) -> str:
    """Classify one op as OK, EXIT2 (expected input-error exit) or an error message."""
    if rc is None:
        return f"raised: {err.strip().splitlines()[-1] if err.strip() else '?'}"
    if expect.get("start_admissible") is False:
        # relfix reports an empty M(F;R) as an input error; the oracle
        # predicts exactly these exits from the relation and the map
        if rc == 2 and NO_START in err:
            return EXIT2
        return f"empty M(F;R): expected exit 2 ({NO_START}), got {rc}"
    if rc not in (0, 1):
        return f"exit {rc}: {err.strip()[:200]}"
    try:
        rep = json.loads(out)
    except ValueError as exc:
        return f"output is not JSON: {exc}"
    if rc != (0 if rep.get("overall_pass") else 1):
        return f"exit {rc} disagrees with overall_pass={rep.get('overall_pass')}"
    if "overall_pass" in expect and rep["overall_pass"] != expect["overall_pass"]:
        return f"overall_pass={rep['overall_pass']}, expected {expect['overall_pass']}"
    axioms = rep.get("bmetric_axioms", {})
    if "min_feasible_s" in expect and not _close(axioms.get("min_feasible_s", math.nan),
                                                 expect["min_feasible_s"]):
        return f"min_feasible_s={axioms.get('min_feasible_s')}, expected {expect['min_feasible_s']}"
    if "triangle_ok" in expect and axioms.get("triangle_ok") != expect["triangle_ok"]:
        return f"triangle_ok={axioms.get('triangle_ok')}, expected {expect['triangle_ok']}"
    if "linear_lambda_threshold" in expect and not _close(
            rep.get("linear_lambda_threshold", math.nan), expect["linear_lambda_threshold"], 1e-6):
        return (f"linear_lambda_threshold={rep.get('linear_lambda_threshold')}, "
                f"expected {expect['linear_lambda_threshold']}")
    if "solver_result" in expect:
        cert = rep.get("certificate")
        if expect["solver_result"] is None:
            if cert is not None:
                return "orbit ends in a cycle, but a certificate was issued"
        elif cert is None:
            return f"orbit reaches {expect['solver_result']}, but no certificate was issued"
        elif cert["fixed_points"] != expect["fixed_points"]:
            return f"fixed points {cert['fixed_points']}, expected {expect['fixed_points']}"
        elif cert["solver_result"] != expect["solver_result"]:
            return f"solver_result={cert['solver_result']}, expected {expect['solver_result']}"
    return OK


def run_op(main, argv, call=None):
    """Time one CLI call; returns (exit status or None if it raised, seconds, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = call(main, argv) if call else main(argv)
        except (Exception, SystemExit) as exc:
            print(f"{type(exc).__name__}: {exc}", file=err)
            rc = None
        dt = time.perf_counter() - t0
    return rc, dt, out.getvalue(), err.getvalue()


class Loop:
    """Runs ops over the manifest's files, tallies their outcomes, probes host speed."""

    def __init__(self, main, ops):
        self.main, self.ops = main, ops
        self.outcomes = {OK: 0, EXIT2: 0, FAILED: 0}
        self.errors = []
        self.probes = []
        self._probe_at = -math.inf

    def probe_now(self):
        gc.collect()           # ops start from a collected heap, as a fresh CLI process does
        self.probes.append(probe())
        self._probe_at = time.perf_counter()

    def scale(self, k: int) -> float:
        """REF_S over the mean of probe k, taken before the op, and the probe after it."""
        after = self.probes[k + 1] if k + 1 < len(self.probes) else self.probes[k]
        return 2 * REF_S / (self.probes[k] + after)

    def one(self, op, call=None):
        """Run and check one op; returns (wall seconds, index of the probe before it, stdout bytes)."""
        if time.perf_counter() - self._probe_at >= PROBE_EVERY_S:
            self.probe_now()
        rc, dt, out, err = run_op(self.main, op["argv"], call)
        verdict = check(op["expect"], rc, out, err)
        if verdict in (OK, EXIT2):
            self.outcomes[verdict] += 1
        else:
            self.outcomes[FAILED] += 1
            if len(self.errors) < 5:
                self.errors.append(f"{op['file']}: {verdict}")
        return dt, len(self.probes) - 1, len(out.encode())

    def timed(self, seconds, min_ops, hard_cap):
        """Cycle ops until `seconds` have passed and `min_ops` ran, or `hard_cap` passed."""
        runs, t0, i = [], time.perf_counter(), 0
        while True:
            elapsed = time.perf_counter() - t0
            if elapsed >= hard_cap or (elapsed >= seconds and len(runs) >= min_ops):
                self.probe_now()
                return runs
            runs.append(self.one(self.ops[i % len(self.ops)]))
            i += 1

    def passes(self, seconds, hard_cap, call=None, after=None):
        """Whole passes over the ops until `seconds` have passed (at least one pass).

        `after`, if given, runs after each op with the op and its result.
        """
        runs, t0 = [], time.perf_counter()
        while True:
            for op in self.ops:
                runs.append(self.one(op, call))
                if after is not None:
                    after(op, runs[-1])
            elapsed = time.perf_counter() - t0
            if elapsed >= seconds or elapsed >= hard_cap:
                self.probe_now()
                return runs


def traced(loop, seconds, hard_cap):
    """Untraced passes, then traced passes; per-layer self time, counts, coverage, overhead."""
    from tracer import COUNTS, GLUE, SELF_LAYERS, Tracer

    untraced = [dt * loop.scale(k) for dt, k, _ in loop.passes(seconds / 2, hard_cap / 2)]

    tracer = Tracer()
    per_op = []                    # (self seconds by layer, probe index)
    pass_counts = []

    def after(op, run):
        _, k, out_bytes = run
        per_op.append((tracer.finish_op(), k))
        tracer.counts["problemfile.input_bytes"] += op["bytes"]
        tracer.counts["report.json_bytes"] += out_bytes
        if op is loop.ops[-1]:
            pass_counts.append({name: tracer.counts[name] for name in COUNTS})
            tracer.counts.clear()

    with tracer:
        runs = loop.passes(seconds / 2, hard_cap / 2, call=tracer.call, after=after)
    self_total = dict.fromkeys(SELF_LAYERS, 0.0)
    glue = 0.0
    for self_s, k in per_op:
        scale = loop.scale(k)
        for layer, s in self_s.items():
            if layer == GLUE:
                glue += s * scale
            else:
                self_total[layer] += s * scale
    times = [dt * loop.scale(k) for dt, k, _ in runs]
    n = len(times)
    listed = sum(self_total.values())
    return {
        "self_s": {layer: s / n for layer, s in self_total.items()},
        "counts": pass_counts[0],
        "counts_repeat": all(c == pass_counts[0] for c in pass_counts),
        "passes": len(pass_counts),
        "coverage": listed / (listed + glue),
        "overhead": (sum(times) / n) / (sum(untraced) / len(untraced)) - 1.0,
        "untraced_ops": len(untraced),
        "traced_ops": n,
    }


def main(manifest_path: str) -> int:
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    sys.path.insert(0, manifest["src"])
    import relfix.cli

    loop = Loop(relfix.cli.main, manifest["ops"])
    loop.one(loop.ops[0])                    # untimed warm-up
    loop.outcomes, loop.errors = {OK: 0, EXIT2: 0, FAILED: 0}, []
    result = {}
    if manifest["trace"]:
        result["trace"] = traced(loop, manifest["seconds"], manifest["hard_cap_s"])
    else:
        runs = loop.timed(manifest["seconds"], manifest["min_ops"], manifest["hard_cap_s"])
        result["op_s"] = [dt * loop.scale(k) for dt, k, _ in runs]
        result["wall_s"] = [dt for dt, _, _ in runs]
    result["host_factor"] = statistics.median(loop.probes) / REF_S
    result["outcomes"] = loop.outcomes
    result["errors"] = loop.errors
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
