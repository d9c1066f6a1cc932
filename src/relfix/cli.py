"""relfix command line: axioms | verify | solve | certify | report.

Exit statuses: 0 every requested verdict passed, 1 a verdict failed,
2 input error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

from .problemfile import ProblemFileError, build_problem, parse_problem
from .report import COMMANDS, _plain, run_command
from .solver import RelationBroken, StartNotAdmissible


@functools.cache  # built on the first main() call, then reused by later in-process calls
def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="relfix",
        description="Verify and solve relational fixed-point problems in b-metric spaces.",
    )
    p.add_argument("command", choices=COMMANDS)
    p.add_argument("file", help="problem file")
    p.add_argument("--tol", type=float, default=None,
                   help="verification tolerance override; the Picard iteration does not use it")
    p.add_argument("--start", type=float, default=None, help="starting point value for the iteration")
    p.add_argument("--s", type=float, default=None, dest="s_override",
                   help="override the space's relaxation coefficient")
    p.add_argument("--json", action="store_true", help="emit the structured JSON report")
    # argparse reads a value like "-1e-3" or "-inf" as an option unless this matches it
    p._negative_number_matcher = re.compile(r"-(\d|\.\d|inf|nan)", re.IGNORECASE)
    return p


def _human(report: dict, out, lam: float):
    def emit(indent, key, value):
        prefix = indent + key
        inner = indent + "  "
        if isinstance(value, dict) and "failing_rows" in value:
            # the contraction ledger: its scalars and first 10 failing rows
            print(f"{prefix}:", file=out)
            rows = value.pop("failing_rows")
            for k, v in value.items():
                emit(inner, k, v)
            for j, i in enumerate(rows["row"][:10]):
                print(f"{inner}failing row {i}: sigma {rows['sigma'][j]}, rho {rows['rho'][j]}, "
                      f"t {value['s'] * rows['d_image_pair'][j]}, s_arg {rows['s_arg'][j]}, "
                      f"zeta_value {rows['zeta_value'][j]}", file=out)
        elif prefix == "linear_lambda_threshold":
            print(f"{prefix}: {value} (given lambda: {lam})", file=out)
        elif isinstance(value, dict):
            print(f"{prefix}:", file=out)
            for k, v in value.items():
                emit(inner, k, v)
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            print(f"{prefix}: [{len(value)} entries]", file=out)
        else:
            print(f"{prefix}: {value}", file=out)

    for key, value in report.items():
        if key == "header":
            continue
        emit("", key, value)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.tol is not None and not math.isfinite(args.tol):
        print("relfix: --tol: tol must be finite", file=sys.stderr)
        return 2
    try:
        with open(args.file, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        print(f"relfix: cannot read {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        pf = parse_problem(raw.decode("utf-8"))
        bundle = build_problem(pf, s_override=args.s_override)
    except (ProblemFileError, ValueError, UnicodeDecodeError) as exc:
        print(f"relfix: {args.file}: {exc}", file=sys.stderr)
        return 2

    try:
        report, ok = run_command(
            args.command,
            bundle,
            input_bytes=raw,
            start=args.start,
            tol=args.tol,
        )
    except (StartNotAdmissible, RelationBroken, ValueError) as exc:
        print(f"relfix: {exc}", file=sys.stderr)
        return 2

    # serialise before writing anything, so a quantity that overflowed to
    # +-inf on finite input is an input error, not a truncated report;
    # run_command builds a tree, so the encoder skips its cycle check
    try:
        encoded = json.dumps(report, default=_plain, sort_keys=args.json, allow_nan=False,
                             check_circular=False)
    except ValueError as exc:
        print(f"relfix: {args.file}: a report quantity is not finite: {exc}", file=sys.stderr)
        return 2
    try:
        if args.json:
            print(encoded)
        else:
            # parsed back unsorted: fields keep their order and tuples print as lists
            _human(json.loads(encoded), sys.stdout, bundle.problem.zeta.lam)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left early (`relfix report FILE | head -1`): end with the
        # verdict's status, and send what is still buffered to devnull so the
        # interpreter's exit flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
