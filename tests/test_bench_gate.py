"""The benchmark's `heat` and `driven` output checks pass on the program's
own output.

`bench/run.py` flags a `heat` operation as wrong when its kernels leave the
heat semigroup or its gaussian_gap or residual_max pass a tolerance, and a
`driven` operation when its kernels leave the truncated-ring exponential.
These tests run the same solves in-process on the benchmark's inputs and
assert the same checks, so a change that would make the benchmark flag
correct output, or let wrong output through, shows here first.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import run_cli

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def bench_run():
    # run.py imports its siblings by plain name; load it without main().
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run",
                                                      BENCH / "run.py")
        run = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run)
    finally:
        sys.path.remove(str(BENCH))
        for name in ("inputs", "references", "tracing"):
            sys.modules.pop(name, None)
    return run


@pytest.mark.parametrize("seed", [1, 2])
def test_heat_solve_passes_the_benchmark_checks(bench_run, tmp_path, seed):
    spec = bench_run.inputs.heat_input(seed)
    path = tmp_path / "heat.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path), "--method", "both"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["times"] == spec["times"]
    errors = bench_run.references.heat_errors(spec, report["kernels"])
    assert max(errors) <= bench_run.HEAT_REF_TOL
    assert report["checks"]["gaussian_gap"] <= bench_run.GAUSSIAN_GAP_TOL
    assert report["checks"]["residual_max"] <= bench_run.RESIDUAL_TOL


@pytest.mark.parametrize("seed, options", [
    pytest.param(1, [], id="1"), pytest.param(2, [], id="2"),
    pytest.param(1, ["--method", "both"], id="1-both"),
    pytest.param(2, ["--method", "both"], id="2-both"),
])
def test_driven_solve_passes_the_benchmark_check(bench_run, tmp_path, seed,
                                                 options):
    # The benchmark runs the default method; "both" writes the same
    # closed-form kernels and must pass the same check.
    spec = bench_run.inputs.driven_input(seed)
    path = tmp_path / "driven.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path), *options])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["times"] == spec["times"]
    errors = bench_run.references.driven_errors(spec, report["kernels"])
    assert max(errors) <= bench_run.DRIVEN_REF_TOL
