"""End-to-end tests of the command-line interface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Point2,
    evaluate,
    expansion_to_json,
    laplace,
)
from grosslap.cli import main
from grosslap.gross import trace_distribution
from grosslap.quantum_op import OperatorKernel, kernel_to_json, symbol
from conftest import random_expansion, rng_complex


@pytest.fixture
def runner():
    return CliRunner()


FAST_SUITES = ["exponential-eigenvalue", "young-conjugate-diagnostics"]


def test_verify_fast_suites_pass(runner):
    args = ["verify"] + [f"--suite={s}" for s in FAST_SUITES]
    res = runner.invoke(main, args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == set(FAST_SUITES)
    for c in report["checks"]:
        assert c["passed"] is True
        assert "identity" in c


def test_verify_is_byte_deterministic(runner):
    args = ["verify", "--seed", "7"] + [f"--suite={s}" for s in FAST_SUITES]
    a = runner.invoke(main, args)
    b = runner.invoke(main, args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_verify_heat_triangle_writes_report(runner):
    res = runner.invoke(main, ["verify", "--suite", "heat-oracle-triangle"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["passed"] is True
    assert report["checks"][0]["passed"] is True


def test_verify_fails_closed_on_nan_sample(runner, monkeypatch):
    import grosslap.verify
    real = grosslap.verify.conjugate_eval
    calls = []

    def nan_first(spec, x):
        calls.append(x)
        return math.nan if len(calls) == 1 else real(spec, x)

    monkeypatch.setattr(grosslap.verify, "conjugate_eval", nan_first)
    res = grosslap.verify.check_young_diagnostics()
    assert res.passed is False
    assert math.isnan(res.max_error)

    calls.clear()
    out = runner.invoke(main, ["verify", "--suite",
                               "young-conjugate-diagnostics"])
    assert out.exit_code == 1, out.output
    report = json.loads(out.output)
    assert report["passed"] is False
    assert report["checks"][0]["max_error"] == "nan"


def test_verify_rejects_unknown_suite(runner):
    res = runner.invoke(main, ["verify", "--suite", "no-such-suite"])
    assert res.exit_code == 2


def test_young_conjugate_gaussian(runner):
    res = runner.invoke(main, ["young", "--family", "gaussian",
                               "--op", "conjugate", "--x", "2.0"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] == pytest.approx(1.0, abs=1e-8)


def test_young_missing_argument(runner):
    res = runner.invoke(main, ["young", "--family", "gaussian",
                               "--op", "conjugate"])
    assert res.exit_code == 2


def test_eval_symbol_of_trace(runner, tmp_path):
    T = OperatorKernel(trace_distribution(1, 1, 8, 8), "trace")
    payload = {"op": "symbol", "kernel": kernel_to_json(T),
               "points": [{"z": [2.0], "t": [1.0]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["values"][0]["re"] == pytest.approx(5.0)


def test_eval_laplace_of_delta0(runner, tmp_path):
    from grosslap.chaos import delta0
    payload = {"op": "laplace",
               "expansion": expansion_to_json(delta0(2, 0, 4, 0)),
               "points": [{"z": [[0.3, 1.0], 7.0], "t": []}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["values"][0]["re"] == pytest.approx(1.0)


def test_eval_role_violation_exits_2(runner, tmp_path):
    from grosslap.chaos import vacuum
    payload = {"op": "laplace", "expansion": expansion_to_json(vacuum(1, 0, 3, 0)),
               "points": [{"z": [1.0]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 2


def _heat_input(times):
    from grosslap.chaos import Expansion2
    xi0 = OperatorKernel(
        Expansion2(1, 1, 8, 8, {((2,), (0,)): 1 + 0j}, role=DISTRIBUTION),
        "square")
    return {"xi0": kernel_to_json(xi0), "times": times}


def test_solve_heat_example(runner, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.0, 0.5, 1.0])))
    out_path = tmp_path / "out.json"
    res = runner.invoke(main, ["solve", "--in", str(path),
                               "--out", str(out_path)])
    assert res.exit_code == 0, res.output
    report = json.loads(out_path.read_text())
    assert report["times"] == [0.0, 0.5, 1.0]
    consts = []
    for entry in report["kernels"]:
        terms = {(tuple(t["alpha"]), tuple(t["beta"])): t["re"]
                 for t in entry["kernel"]["terms"]}
        assert terms[((2,), (0,))] == pytest.approx(1.0)
        consts.append(terms.get(((0,), (0,)), 0.0))
    assert consts == pytest.approx([0.0, 0.5, 1.0])
    assert report["checks"]["gaussian_gap"] <= 1e-10


def test_solve_method_both_reports_cross_checks(runner, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.5, 1.0])))
    res = runner.invoke(main, ["solve", "--in", str(path),
                               "--method", "both"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["checks"]["gaussian_gap"] <= 1e-10
    assert report["checks"]["residual_max"] <= 1e-6


def test_solve_malformed_json_exits_2(runner, tmp_path):
    path = tmp_path / "in.json"
    path.write_text("{ this is not json")
    res = runner.invoke(main, ["solve", "--in", str(path)])
    assert res.exit_code == 2


def test_solve_missing_file_exits_2(runner, tmp_path):
    res = runner.invoke(main, ["solve", "--in", str(tmp_path / "none.json")])
    assert res.exit_code == 2


def test_solve_and_eval_over_size_budget_exit_2(runner, tmp_path,
                                                monkeypatch):
    import grosslap.chaos
    import grosslap.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the size check must come before any solve")

    # dims (1,1), cutoff 8: 81 keys and a 9 x 9 grid, 81 x 83 = 6,723 cells.
    monkeypatch.setattr(grosslap.chaos, "MAX_EVALUATION_CELLS", 6_722)
    monkeypatch.setattr(grosslap.cli, "solve_heat", no_work)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.5])))
    res = runner.invoke(main, ["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "budget" in res.output

    # 100 points of the 2-term trace symbol in 2 coordinates: 400 cells.
    T = OperatorKernel(trace_distribution(1, 1, 4, 4), "trace")
    assert len(T.kernel.coeffs) == 2
    monkeypatch.setattr(grosslap.chaos, "MAX_EVALUATION_CELLS", 399)
    spec = {"op": "symbol", "kernel": kernel_to_json(T),
            "points": [{"z": [0.1], "t": [0.2]}] * 100}
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "budget" in res.output


def _add_term(**term):
    return lambda e: e["terms"].append({"alpha": [0], "beta": [0], "re": 5.0,
                                        **term})


def _set(key, value):
    return lambda e: e.update({key: value})


@pytest.mark.parametrize("command, edit", [
    pytest.param("solve", _add_term(alpha=[-2]), id="negative-occupation"),
    pytest.param("solve", _add_term(beta=[1.5]), id="float-occupation"),
    pytest.param("solve", _add_term(alpha=[True]), id="bool-occupation"),
    pytest.param("solve", _set("dim1", 1.9), id="float-dim"),
    pytest.param("solve", _set("dim2", True), id="bool-dim"),
    pytest.param("solve", _set("cutoff2", 8.0), id="float-cutoff"),
    pytest.param("eval", _set("cutoff1", "3"), id="string-cutoff"),
    pytest.param("eval", _set("cutoff1", -1), id="negative-cutoff"),
    pytest.param("eval", _add_term(alpha="1"), id="string-occupations"),
])
def test_bad_expansion_json_exits_2(runner, tmp_path, command, edit):
    # Dims, cutoffs and occupations must be JSON integers, none negative.
    from grosslap.chaos import delta0
    if command == "solve":
        spec = _heat_input([0.5])
        expansion = spec["xi0"]["kernel"]
        args = ["--method", "symbol_ode"]
    else:
        expansion = expansion_to_json(delta0(1, 1, 3, 3))
        spec = {"op": "laplace", "expansion": expansion,
                "points": [{"z": [0.5], "t": [0.1]}]}
        args = []
    edit(expansion)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, [command, "--in", str(path)] + args)
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
def test_solve_non_finite_input_exits_2(runner, tmp_path, literal):
    text = json.dumps(_heat_input([0.5])).replace('"re": 1.0',
                                                  f'"re": {literal}')
    assert literal in text
    path = tmp_path / "in.json"
    path.write_text(text)
    res = runner.invoke(main, ["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output


def test_solve_deterministic_output(runner, tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.25, 0.75])))
    a = runner.invoke(main, ["solve", "--in", str(path), "--seed", "42"])
    b = runner.invoke(main, ["solve", "--in", str(path), "--seed", "42"])
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_solve_overflowing_result_exits_2(runner, tmp_path):
    # Finite input, but e^{800} overflows double precision.
    from grosslap.chaos import Expansion2
    Z = OperatorKernel(Expansion2(1, 1, 2, 2, {((0,), (0,)): 800 + 0j},
                                  role=DISTRIBUTION), "Z")
    xi0 = OperatorKernel(Expansion2(1, 1, 2, 2, {((0,), (0,)): 1 + 0j},
                                    role=DISTRIBUTION), "init")
    spec = {"xi0": kernel_to_json(xi0), "times": [1.0],
            "Z": {"grid": [0.0, 1.0], "kernels": [kernel_to_json(Z)]}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "overflows" in res.output


def test_cli_start_up_and_heat_solve_load_no_scipy(tmp_path):
    # scipy serves only the young command and a driven solve with a source.
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.5])))
    code = "\n".join([
        "import sys",
        "import grosslap.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] == 'scipy')",
        "print(loaded())",
        "grosslap.cli.main(['solve', '--in', sys.argv[1], '--out',",
        "                   sys.argv[2], '--method', 'both'],",
        "                  standalone_mode=False)",
        "print(loaded())",
    ])
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    res = subprocess.run(
        [sys.executable, "-c", code, str(path), str(tmp_path / "out.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]", "[]"]
    assert json.loads((tmp_path / "out.json").read_text())["kernels"]


@pytest.mark.parametrize("count", [0, 6])
@pytest.mark.parametrize("op", ["evaluate", "laplace", "symbol"])
def test_eval_matches_per_point_functions(runner, tmp_path, op, count):
    rng = np.random.default_rng(11)
    role = TEST if op == "evaluate" else DISTRIBUTION
    phi = random_expansion(rng, 2, 1, 5, 4, 5, 4, role=role)
    points = [(rng_complex(rng, 2).tolist(), rng_complex(rng, 1).tolist())
              for _ in range(count)]
    payload = {"op": op, "points": [
        {"z": [[v.real, v.imag] for v in z],
         "t": [[v.real, v.imag] for v in t]} for z, t in points]}
    if op == "symbol":
        payload["kernel"] = kernel_to_json(OperatorKernel(phi))
    else:
        payload["expansion"] = expansion_to_json(phi)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    values = [complex(v["re"], v["im"])
              for v in json.loads(res.output)["values"]]
    per_point = {
        "evaluate": lambda z, t: evaluate(phi, Point2.of(z, t)),
        "laplace": lambda z, t: laplace(phi, z, t),
        "symbol": lambda z, t: symbol(OperatorKernel(phi), z, t),
    }[op]
    assert len(values) == count
    for value, (z, t) in zip(values, points):
        assert value == pytest.approx(per_point(z, t), rel=1e-12)


def test_eval_point_dims_mismatch_exits_2(runner, tmp_path):
    T = OperatorKernel(trace_distribution(1, 1, 4, 4), "trace")
    payload = {"op": "symbol", "kernel": kernel_to_json(T),
               "points": [{"z": [0.1, 0.2], "t": []}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = runner.invoke(main, ["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("driven", [False, True])
def test_solve_symbol_ode_runs_no_closed_form(runner, tmp_path, monkeypatch,
                                              driven):
    import grosslap.cli
    from grosslap.chaos import Expansion2

    def closed_form(*args, **kwargs):
        raise AssertionError("method symbol_ode ran the closed form")

    monkeypatch.setattr(grosslap.cli, "solve_heat", closed_form)
    monkeypatch.setattr(grosslap.cli, "solve_qsde", closed_form)
    spec = _heat_input([0.5])
    if driven:
        Z = OperatorKernel(Expansion2(1, 1, 8, 8, {((1,), (0,)): 0.4 + 0j},
                                      role=DISTRIBUTION), "Z")
        spec["Z"] = {"grid": [0.0, 1.0], "kernels": [kernel_to_json(Z)]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["solve", "--in", str(path), "--method",
                               "symbol_ode"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["method"] == "symbol_ode_numeric"
    assert "gaussian_gap" not in report["checks"]
    assert report["checks"]["fit_amplification"] == 8.0 ** 16


def _driven_input():
    from grosslap.chaos import Expansion2
    Z = OperatorKernel(Expansion2(1, 1, 8, 8, {((1,), (0,)): 0.4 + 0j},
                                  role=DISTRIBUTION), "Z")
    spec = _heat_input([0.5])
    spec["Z"] = {"grid": [0.0, 1.0], "kernels": [kernel_to_json(Z)]}
    return spec


@pytest.mark.parametrize("field, value", [
    pytest.param("times", ["0.5"], id="string-time"),
    pytest.param("times", [True], id="bool-time"),
    pytest.param("times", [None], id="null-time"),
    pytest.param("times", [10 ** 400], id="huge-integer-time"),
    pytest.param("grid", ["0", "1"], id="string-grid"),
    pytest.param("grid", [False, 1.0], id="bool-grid"),
    pytest.param("method", "symbol-ode", id="method-typo"),
    pytest.param("method", "bogus", id="unknown-method"),
    pytest.param("method", 3, id="numeric-method"),
])
def test_solve_rejects_non_numbers_and_unknown_methods(runner, tmp_path,
                                                       field, value):
    # Times and grid points must be JSON numbers; the file's method must be
    # one of the --method choices.
    spec = _driven_input()
    if field == "grid":
        spec["Z"]["grid"] = value
    else:
        spec[field] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = runner.invoke(main, ["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "bad solver input" in res.output


def test_solve_accepts_integer_times_and_named_methods(runner, tmp_path):
    spec = _driven_input()
    spec["times"] = [0, 1]
    for method in ("closed_form", "symbol_ode", "both"):
        spec["method"] = method
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        res = runner.invoke(main, ["solve", "--in", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["times"] == [0.0, 1.0]
