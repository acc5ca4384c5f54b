"""The `verify` workload's operation: every invariant suite at one seed.

This is the loop `grosslap verify` runs, over `grosslap.verify.ALL_CHECKS`,
with the report written by the benchmark instead of the program: the
program's own report cannot be written today because two suites return a
NumPy bool for `passed` (probe F1 in `bench/run.py`).

    PYTHONPATH=src python3 bench/verify_op.py --seed 42
"""

from __future__ import annotations

import argparse
import json
import sys


def run_suites(seed: int) -> dict:
    from grosslap.verify import ALL_CHECKS

    checks = []
    for suite, fn in ALL_CHECKS.items():
        res = fn(seed=seed)
        checks.append({"suite": suite, "passed": bool(res.passed),
                       "max_error": float(res.max_error),
                       "tolerance": float(res.tolerance)})
    return {"seed": seed, "checks": checks,
            "passed": all(c["passed"] for c in checks)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    report = run_suites(parser.parse_args().seed)
    print(json.dumps(report, sort_keys=True))
    sys.exit(0 if report["passed"] else 1)


if __name__ == "__main__":
    main()
