"""Schema-only smoke test of the benchmark at tiny sizes; timings are not checked.

Run with ``python3 -m pytest perfbench`` or ``python3 perfbench/test_smoke.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import sys
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = {"chain": 6, "fixedpoints": 6, "witness": 6, "sweep": 20}


def tiny(workload, trace, seed=3):
    return run.measure(workload, seed, 0.2, trace, size=TINY[workload], min_ops=3, setup_runs=1)


class SchemaTest(unittest.TestCase):
    def check_result(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec_metrics])
        for m in spec_metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])

    def test_workloads_match_spec(self):
        self.assertEqual(sorted(w["name"] for w in SPEC["workloads"]), sorted(gen.FAMILIES))

    def test_end_to_end(self):
        for workload in gen.FAMILIES:
            with self.subTest(workload=workload):
                result, meta = tiny(workload, trace=False)
                self.check_result(result, SPEC["end_to_end"])
                self.assertEqual(meta["seed"], 3)
                for key in ("n", "relation_pairs", "fixed_points", "python",
                            "git_revision", "nproc", "samples"):
                    self.assertIn(key, meta)

    def test_traced_counts_repeat(self):
        counts = [name for name, unit in run.LAYER_UNITS.items() if unit in ("count", "bytes")]
        for workload in gen.FAMILIES:
            with self.subTest(workload=workload):
                first, meta = tiny(workload, trace=True)
                second, _ = tiny(workload, trace=True)
                self.check_result(first, SPEC["per_layer"])
                self.assertTrue(meta["counts_repeat"])
                for name in counts:
                    self.assertEqual(first["metrics"][name], second["metrics"][name], name)

    def test_last_line_is_the_result(self):
        out = io.StringIO()
        with mock.patch.dict(gen.SIZES, TINY), contextlib.redirect_stdout(out):
            status = run.main(["--workload", "chain", "--seed", "1", "--seconds", "0.2"])
        self.assertEqual(status, 0)
        self.check_result(json.loads(out.getvalue().splitlines()[-1]), SPEC["end_to_end"])


class OracleTest(unittest.TestCase):
    def test_exit_status_must_agree_with_verdict(self):
        report = json.dumps({"overall_pass": True})
        self.assertEqual(worker.check({}, 0, report, ""), worker.OK)
        self.assertNotEqual(worker.check({}, 1, report, ""), worker.OK)

    def test_wrong_fixed_points_fail(self):
        expect = gen.generate("chain", 1, 6)[0].expect
        report = {"overall_pass": True, "bmetric_axioms": {"min_feasible_s": 1.0},
                  "linear_lambda_threshold": 0.9,
                  "certificate": {"fixed_points": [0.0], "solver_result": 0.0}}
        self.assertIn("fixed points", worker.check(expect, 0, json.dumps(report), ""))

    def test_empty_admissible_set_expects_exit_2(self):
        expect = {"start_admissible": False}
        err = f"relfix: M(F;R) is empty: {worker.NO_START}\n"
        self.assertEqual(worker.check(expect, 2, "", err), worker.EXIT2)
        self.assertNotEqual(worker.check(expect, 1, "{}", ""), worker.EXIT2)


if __name__ == "__main__":
    unittest.main()
