#!/usr/bin/env python3
"""relfix benchmark: end-to-end CLI metrics, or per-layer metrics from a traced run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload chain --seed 1 --seconds 25 --trace 0

The benchmark generates its workload from the seed (perfbench/gen.py),
writes the problem files into a temporary directory inside the checkout,
and starts one child process (perfbench/worker.py) that imports relfix
from ``src`` and runs the ops one after another: a closed loop with one
client.  Every op's output is checked by an oracle.  The last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics; the lines before it give the run's metadata and every metric with
its unit.

Workloads (why each exists):
  chain        report --json on a descending chain with a transitively closed
               relation: the b-metric triangle scan, closure and relation
               predicates dominate; one fixed point.
  fixedpoints  report --json on a complete relation with every even point fixed:
               certify's pairwise uniqueness checks dominate.
  witness      axioms --s 1 --json on integer points under the squared metric:
               the same triangle scan, but about n**3/3 witnesses are
               materialised and encoded.
  sweep        report --json on 3000 small random instances: fixed per-op costs
               (argparse, parse, zeta axioms, encoding) dominate.

Timings are wall seconds rescaled to a reference host speed: a fixed kernel
is timed between ops and each op's time is multiplied by REF_S / probe
(see perfbench/probe.py).  The metadata line gives the raw wall-clock
median and the host factor (probe / REF_S) as well.

--trace 0 reports (tracing off):
  op_s_p50, op_s_p90  median and 90th-percentile wall seconds per op; every run
                      times at least 100 ops, so ten or more lie beyond p90
  ops_per_s           ops per second of timed op wall time (oracle checks
                      between ops are not timed)
  peak_rss_mb         ru_maxrss of the child process
  setup_s             median seconds for a fresh interpreter to import
                      relfix.cli, over several interpreters
  ok_frac             share of ops that exit 0 or 1 with a correct report;
                      exit-2 ops on inputs with an empty M(F;R) count against it

--trace 1 reports each layer's self seconds per op, exact per-pass counts,
the share of op time the listed layers cover, and the tracing overhead
against untraced passes of the same run (see perfbench/tracer.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
from tracer import COUNTS, SELF_LAYERS  # noqa: E402

MIN_OPS = 100          # op_s_p90 needs ten samples beyond it
HARD_CAP_S = 120       # longest timed phase, so a run ends within 180 s
SETUP_RUNS = 11
CHILD_TIMEOUT_S = 170

E2E_UNITS = {
    "op_s_p50": "s", "op_s_p90": "s", "ops_per_s": "1/s",
    "peak_rss_mb": "MB", "setup_s": "s", "ok_frac": "frac",
}
LAYER_UNITS = {f"{layer}.self_s": "s" for layer in SELF_LAYERS}
LAYER_UNITS.update({name: "bytes" if name.endswith("_bytes") else "count" for name in COUNTS})
LAYER_UNITS.update({"trace.coverage": "frac", "trace.overhead": "frac"})

# times the import, then rescales it by a probe run in the same interpreter
_IMPORT_SNIPPET = (
    "import sys, time; t = time.perf_counter(); import relfix.cli; "
    "dt = time.perf_counter() - t; sys.path.insert(0, sys.argv[1]); "
    "from probe import REF_S, probe; print(repr(dt * REF_S / probe()))"
)


class BenchError(RuntimeError):
    pass


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def setup_seconds(runs: int) -> float:
    """Median import time of relfix.cli over `runs` fresh interpreters, after one warm-up."""
    times = []
    for _ in range(runs + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET, str(HERE)],
                              capture_output=True, text=True, env=_child_env(), cwd=ROOT,
                              timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"importing relfix.cli failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return statistics.median(times[1:])


def git_revision() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, env=env, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_worker(manifest_path: Path, timeout: float) -> dict:
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(manifest_path)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            env=_child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker did not finish within {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool, size: int | None = None,
            min_ops: int = MIN_OPS, setup_runs: int = SETUP_RUNS) -> tuple[dict, dict]:
    """One benchmark run; returns (result, metadata)."""
    if not (ROOT / "src" / "relfix" / "cli.py").is_file():
        raise BenchError(f"no relfix sources under {ROOT / 'src'}")
    started = time.monotonic()
    instances = gen.generate(workload, seed, size)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as work:
        ops = []
        for i, inst in enumerate(instances):
            path = Path(work) / f"{workload}-{i:04d}.problem"
            data = inst.text.encode()
            path.write_bytes(data)
            ops.append({"file": path.name, "argv": [inst.args[0], str(path), *inst.args[1:]],
                        "bytes": len(data), "expect": inst.expect})
        manifest = Path(work) / "manifest.json"
        manifest.write_text(json.dumps({
            "src": str(ROOT / "src"), "ops": ops, "seconds": seconds, "trace": int(trace),
            "min_ops": min_ops, "hard_cap_s": min(HARD_CAP_S, max(seconds, 1) * 3),
        }))
        setup = None if trace else setup_seconds(setup_runs)
        res = run_worker(manifest, CHILD_TIMEOUT_S - (time.monotonic() - started))

    outcomes = res["outcomes"]
    attempted = sum(outcomes.values())
    if trace:
        tr = res["trace"]
        values = {f"{layer}.self_s": s for layer, s in tr["self_s"].items()}
        values.update(tr["counts"])
        values["trace.coverage"] = tr["coverage"]
        values["trace.overhead"] = tr["overhead"]
        units = LAYER_UNITS
    else:
        op_s = res["op_s"]
        values = {
            "op_s_p50": statistics.median(op_s),
            "op_s_p90": statistics.quantiles(op_s, n=10)[-1],
            "ops_per_s": len(op_s) / sum(op_s),
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
            "setup_s": setup,
            "ok_frac": outcomes["ok"] / attempted,
        }
        units = E2E_UNITS
    result = {
        "correct": outcomes["failed"] == 0,
        "attempted": attempted,
        "failed": outcomes["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    fixed = [len(i.expect.get("fixed_points", [])) for i in instances]
    meta = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "instances": len(instances),
        "n": [min(i.n for i in instances), max(i.n for i in instances)],
        "relation_pairs": [min(i.pairs for i in instances), max(i.pairs for i in instances)],
        "fixed_points": [min(fixed), max(fixed)],
        "outcomes": outcomes, "errors": res["errors"],
        "failed_frac": 1.0 - outcomes["ok"] / attempted,   # exit 2, raised or oracle failure
        "python": platform.python_version(), "git_revision": git_revision(),
        "nproc": os.cpu_count(),
    }
    if trace:
        meta.update({k: tr[k] for k in ("counts_repeat", "passes", "untraced_ops", "traced_ops")})
        meta["report.dispatch_share"] = 1.0 - tr["coverage"]
    else:
        meta["samples"] = len(res["op_s"])
        meta["wall_op_s_p50"] = statistics.median(res["wall_s"])
    meta["host_factor"] = res["host_factor"]
    return result, meta


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(gen.FAMILIES))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    try:
        result, meta = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print("# metadata " + json.dumps(meta, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"# {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
