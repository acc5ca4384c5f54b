"""End-to-end tests of the command-line interface."""

import inspect
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    evaluate,
    expansion_to_json,
    laplace,
)
from grosslap.gross import trace_distribution
from grosslap.quantum_op import kernel_from_json, kernel_to_json, symbol
from grosslap.verify import ALL_CHECKS
from conftest import (REMOVED_METHOD, SOLVER_CASES, random_expansion,
                      rng_complex, run_cli, solver_case, src_env)


FAST_SUITES = ["exponential-eigenvalue", "young-conjugate-diagnostics"]


def test_verify_fast_suites_pass():
    args = ["verify"] + [f"--suite={s}" for s in FAST_SUITES]
    res = run_cli(args)
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["passed"] is True
    assert {c["name"] for c in report["checks"]} == set(FAST_SUITES)
    for c in report["checks"]:
        assert c["passed"] is True
        assert "identity" in c


def test_verify_is_byte_deterministic():
    args = ["verify", "--seed", "7"] + [f"--suite={s}" for s in FAST_SUITES]
    a = run_cli(args)
    b = run_cli(args)
    assert a.exit_code == b.exit_code == 0
    assert a.output == b.output


def test_verify_heat_triangle_writes_report():
    res = run_cli(["verify", "--suite", "heat-oracle-triangle"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["passed"] is True
    assert report["checks"][0]["passed"] is True


def test_verify_fails_closed_on_nan_sample(monkeypatch):
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
    out = run_cli(["verify", "--suite", "young-conjugate-diagnostics"])
    assert out.exit_code == 1, out.output
    report = json.loads(out.output)
    assert report["passed"] is False
    assert report["checks"][0]["max_error"] == "nan"


def test_evolution_residual_fails_closed_without_the_source(monkeypatch):
    import grosslap.evolution
    import grosslap.verify

    # The closed form loses its source weights; the symbol flow keeps them.
    monkeypatch.setattr(grosslap.evolution, "_exp_divided_differences",
                        lambda z, k: np.zeros(k, dtype=complex))
    assert grosslap.verify.check_evolution_residual().passed is False


def test_young_diagnostics_fail_closed_on_a_shifted_conjugate(monkeypatch):
    # The grid's own shortfall reaches 3.65e-9 of its h^2/4 = 3.73e-9 band,
    # so +1e-10 leaves the band above and -1e-10 leaves it below (at x = 0).
    import grosslap.verify

    for shift, passed in ((1e-7, False), (1e-10, False), (-1e-10, False),
                          (0.0, True)):
        monkeypatch.setattr(grosslap.verify, "conjugate_eval",
                            lambda spec, x: x * x / 4 + shift)
        assert grosslap.verify.check_young_diagnostics().passed is passed


def test_verify_rejects_unknown_suite():
    res = run_cli(["verify", "--suite", "no-such-suite"])
    assert res.exit_code == 2


def test_verify_has_no_tolerance_override():
    res = run_cli(["verify", "--suite", "exponential-eigenvalue",
                   "--tol", "1"])
    assert res.exit_code == 2


@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_suites_take_only_a_seed(name):
    # Sizes and tolerances are pinned inside each suite; `verify` and the
    # benchmark call every suite as fn(seed=seed).
    params = inspect.signature(ALL_CHECKS[name]).parameters
    assert list(params) == ["seed"]


def test_young_conjugate_gaussian():
    res = run_cli(["young", "--family", "gaussian",
                   "--op", "conjugate", "--x", "2.0"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] == pytest.approx(1.0, abs=1e-8)


@pytest.mark.parametrize("args", [
    ["--family", "expm1", "--op", "theta-n", "--n", "3"],
    ["--family", "power", "--k", "80", "--op", "theta-n", "--n", "3"],
])
def test_young_theta_n_where_theta_overflows(args):
    res = run_cli(["young", *args])
    assert res.exit_code == 0, res.output
    assert math.isfinite(json.loads(res.output)["value"])


def test_young_infinite_conjugate_exits_2():
    res = run_cli(["young", "--family", "power", "--k", "1",
                   "--op", "conjugate", "--x", "2.0"])
    assert res.exit_code == 2
    assert "infinite" in res.output


@pytest.mark.parametrize("k, grows", [("2", True), ("2.001", False)])
def test_young_growth_boundary(k, grows):
    res = run_cli(["young", "--family", "power", "--k", k, "--op", "growth"])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["value"] is grows


def test_young_missing_argument():
    res = run_cli(["young", "--family", "gaussian", "--op", "conjugate"])
    assert res.exit_code == 2


@pytest.mark.parametrize("args", [
    ["--family", "gaussian", "--op", "conjugate", "--x", "nan"],
    ["--family", "expm1", "--op", "conjugate", "--x", "nan"],
    ["--family", "gaussian", "--op", "theta", "--x", "nan"],
    ["--family", "power", "--k", "nan", "--op", "theta", "--x", "1"],
    ["--family", "power", "--k", "nan", "--op", "theta-n", "--n", "2"],
    ["--family", "power", "--k", "inf", "--op", "conjugate", "--x", "2"],
    ["--family", "gaussian", "--op", "conjugate", "--x", "-1"],
])
def test_young_rejects_nan_and_negative_inputs(args):
    res = run_cli(["young", *args])
    assert res.exit_code == 2, res.output
    assert "bad young query" in res.output


def test_eval_symbol_of_trace(tmp_path):
    T = trace_distribution(1, 1, 8, 8)
    payload = {"op": "symbol", "kernel": kernel_to_json(T),
               "points": [{"z": [2.0], "t": [1.0]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    out = json.loads(res.output)
    assert out["values"][0]["re"] == pytest.approx(5.0)


def test_eval_laplace_of_delta0(tmp_path):
    from grosslap.chaos import delta0
    payload = {"op": "laplace",
               "expansion": expansion_to_json(delta0(2, 0, 4, 0)),
               "points": [{"z": [[0.3, 1.0], 7.0], "t": []}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["values"][0]["re"] == pytest.approx(1.0)


def test_eval_role_violation_exits_2(tmp_path):
    from grosslap.chaos import vacuum
    payload = {"op": "laplace", "expansion": expansion_to_json(vacuum(1, 0, 3, 0)),
               "points": [{"z": [1.0]}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 2


def _heat_input(times):
    from grosslap.chaos import Expansion2
    xi0 = Expansion2(1, 1, 8, 8, {((2,), (0,)): 1 + 0j}, role=DISTRIBUTION)
    return {"xi0": kernel_to_json(xi0), "times": times}


def test_solve_heat_example(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.0, 0.5, 1.0])))
    out_path = tmp_path / "out.json"
    res = run_cli(["solve", "--in", str(path), "--out", str(out_path)])
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


def test_solve_method_both_reports_cross_checks(tmp_path):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.5, 1.0])))
    res = run_cli(["solve", "--in", str(path), "--method", "both"])
    assert res.exit_code == 0, res.output
    report = json.loads(res.output)
    assert report["checks"]["gaussian_gap"] <= 1e-10
    assert report["checks"]["residual_max"] <= 1e-6


def test_solve_malformed_json_exits_2(tmp_path):
    path = tmp_path / "in.json"
    path.write_text("{ this is not json")
    res = run_cli(["solve", "--in", str(path)])
    assert res.exit_code == 2


def test_solve_missing_file_exits_2(tmp_path):
    res = run_cli(["solve", "--in", str(tmp_path / "none.json")])
    assert res.exit_code == 2


def _eval_unknown_op():
    from grosslap.chaos import vacuum
    return {"op": "integrate",
            "expansion": expansion_to_json(vacuum(1, 0, 3, 0)),
            "points": [{"z": [1.0]}]}


def _eval_spoiled(change, op="symbol"):
    """An `eval` input for `op` with `change` applied to it."""
    from grosslap.chaos import delta0
    def make():
        spec = {"op": op, "points": [{"z": [0.5], "t": [0.1]}]}
        if op == "symbol":
            spec["kernel"] = kernel_to_json(trace_distribution(1, 1, 4, 4))
        else:
            spec["expansion"] = expansion_to_json(delta0(1, 1, 3, 3))
        change(spec)
        return spec
    return make


def _solve_mismatched_process():
    # The initial kernel is at cutoff 8; Z is at cutoff 6 on [1, 2], a
    # piece that no step to time 0.5 reaches.
    from grosslap.chaos import delta0
    spec = _heat_input([0.5])
    spec["Z"] = {"grid": [0.0, 1.0, 2.0], "kernels": [
        kernel_to_json(delta0(1, 1, c, c)) for c in (8, 6)]}
    return spec


@pytest.mark.parametrize("args, spec, message", [
    pytest.param(["eval"], _eval_unknown_op, "unknown op",
                 id="eval-unknown-op"),
    pytest.param(["eval"], None, "in.json", id="eval-missing-file"),
    pytest.param(["eval"], lambda: [], "expected a JSON object for the "
                 "input, not list", id="eval-input-array"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.pop("op")),
                 'the input has no "op"', id="eval-op-missing"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.update(op=["symbol"])),
                 "unknown op ['symbol']", id="eval-op-array"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.update(points=0.5)),
                 "expected a JSON array for points, not float",
                 id="eval-points-number"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s["points"][0].update(
        z=0.5)), "expected a JSON array for points[0].z, not float",
                 id="eval-point-z-number"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.pop("kernel")),
                 'the input has no "kernel"', id="eval-kernel-missing"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.update(kernel=[])),
                 "expected a JSON object for kernel, not list",
                 id="eval-kernel-array"),
    pytest.param(["eval"], _eval_spoiled(
        lambda s: s["kernel"]["kernel"]["terms"][0].pop("re")),
                 'kernel.kernel.terms[0] has no "re"',
                 id="eval-kernel-re-missing"),
    pytest.param(["eval"], _eval_spoiled(lambda s: s.pop("expansion"),
                                         "laplace"),
                 'the input has no "expansion"', id="eval-expansion-missing"),
    pytest.param(["eval"], _eval_spoiled(
        lambda s: s["expansion"].pop("dim2"), "laplace"),
                 'expansion has no "dim2"', id="eval-expansion-dim2-missing"),
    pytest.param(["young", "--family", "gaussian", "--op", "theta"], None,
                 "--x is required", id="young-theta-without-x"),
    pytest.param(["young", "--family", "gaussian", "--op", "theta-n"], None,
                 "--n is required", id="young-theta-n-without-n"),
    pytest.param(["solve"], _solve_mismatched_process, "cutoffs",
                 id="solve-mismatched-process"),
    pytest.param(["solve", "--method", "both"],
                 _solve_mismatched_process, "cutoffs",
                 id="solve-both-mismatched-process"),
])
def test_input_errors(tmp_path, args, spec, message):
    path = tmp_path / "in.json"
    if spec is not None:
        path.write_text(json.dumps(spec()))
    if args[0] != "young":
        args = args + ["--in", str(path)]
    res = run_cli(args)
    assert res.exit_code == 2, res.output
    assert message in res.output


def test_solve_and_eval_over_size_budget_exit_2(tmp_path, monkeypatch):
    import grosslap.chaos
    import grosslap.evolution

    def no_work(*args, **kwargs):
        raise AssertionError("the size check must come before any solve")

    # dims (1,1), cutoff 8: 81 keys and a 9 x 9 grid, 81 x 83 = 6,723 cells.
    monkeypatch.setattr(grosslap.chaos, "MAX_EVALUATION_CELLS", 6_722)
    monkeypatch.setattr(grosslap.evolution, "solve_qsde", no_work)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.5])))
    res = run_cli(["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "budget" in res.output

    # 100 points of the 2-term trace symbol in 2 coordinates: 400 cells.
    T = trace_distribution(1, 1, 4, 4)
    assert len(T.coeffs) == 2
    monkeypatch.setattr(grosslap.chaos, "MAX_EVALUATION_CELLS", 399)
    spec = {"op": "symbol", "kernel": kernel_to_json(T),
            "points": [{"z": [0.1], "t": [0.2]}] * 100}
    path.write_text(json.dumps(spec))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "budget" in res.output


def _one_term(dim1, cutoff, alpha, role):
    """An expansion's JSON at dims (dim1, 0) and cutoffs (cutoff, 0) with
    the one term alpha."""
    return {"dim1": dim1, "dim2": 0, "cutoff1": cutoff, "cutoff2": 0,
            "role": role, "terms": [{"alpha": alpha, "beta": [], "re": 1.0}]}


def test_cutoffs_past_170_exit_2_before_any_work(tmp_path, monkeypatch):
    import grosslap.chaos
    import grosslap.evolution

    def no_work(*args, **kwargs):
        raise AssertionError("the cutoff check must come before any work")

    # Each passes the cell budget; without the cutoff rule the solve would
    # build factorial tables for tens of seconds before failing, and the
    # eval would compute every k! up to 40,000.
    solve_1400 = {"xi0": {"kernel": _one_term(1, 1400, [1400], DISTRIBUTION)},
                  "times": [0.5]}
    inputs = [("solve", solve_1400)] + [
        ("eval", {"op": "evaluate", "expansion": _one_term(1, c, [c], TEST),
                  "points": [{"z": [0.5], "t": []}]}) for c in (171, 40_000)]
    with monkeypatch.context() as patch:
        for module, name in [(grosslap.chaos, "_factorials"),
                             (grosslap.chaos, "_falling_factorials"),
                             (grosslap.chaos, "coefficient_polynomials"),
                             (grosslap.evolution, "solve_qsde")]:
            patch.setattr(module, name, no_work)
        path = tmp_path / "in.json"
        for command, spec in inputs:
            path.write_text(json.dumps(spec))
            res = run_cli([command, "--in", str(path)])
            assert res.exit_code == 2, res.output
            assert "exceed 170" in res.output
    # At the largest cutoff admitted the same solve runs.
    solve_170 = {"xi0": {"kernel": _one_term(1, 170, [170], DISTRIBUTION)},
                 "times": [0.5]}
    path.write_text(json.dumps(solve_170))
    res = run_cli(["solve", "--in", str(path)])
    assert res.exit_code == 0, res.output
    assert json.loads(res.output)["kernels"][0]["kernel"]["cutoff1"] == 170


def test_eval_budget_charges_the_power_table(tmp_path, monkeypatch):
    import grosslap.chaos

    def no_work(*args, **kwargs):
        raise AssertionError("the size check must come before the table")

    # 500 points x (1 key + 200 coordinates) is 100,500 cells, but the
    # powers 0..170 of 200 coordinates at 500 points are 17,100,000 more.
    monkeypatch.setattr(grosslap.chaos, "monomial_matrix", no_work)
    spec = {"op": "evaluate",
            "expansion": _one_term(200, 170, [170] + [0] * 199, TEST),
            "points": [{"z": [0.01] * 200, "t": []}] * 500}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "17200500 cells, over the budget" in res.output


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
    pytest.param("eval", _add_term(re=True), id="bool-re"),
    pytest.param("solve", _add_term(im=False), id="bool-im"),
    pytest.param("eval", _add_term(re="1"), id="string-re"),
])
def test_bad_expansion_json_exits_2(tmp_path, command, edit):
    # Dims, cutoffs and occupations must be JSON integers, none negative;
    # coefficient parts must be JSON numbers.
    from grosslap.chaos import delta0
    if command == "solve":
        spec = _heat_input([0.5])
        expansion = spec["xi0"]["kernel"]
        args = ["--method", "both"]
    else:
        expansion = expansion_to_json(delta0(1, 1, 3, 3))
        spec = {"op": "laplace", "expansion": expansion,
                "points": [{"z": [0.5], "t": [0.1]}]}
        args = []
    edit(expansion)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli([command, "--in", str(path)] + args)
    assert res.exit_code == 2, res.output


@pytest.mark.parametrize("command", ["eval", "solve"])
def test_duplicate_term_exits_2(tmp_path, command):
    # A key given twice would keep only its last value.
    if command == "solve":
        spec = _heat_input([0.5])
        terms = spec["xi0"]["kernel"]["terms"]
    else:
        spec = {"op": "evaluate",
                "expansion": {"dim1": 1, "dim2": 0, "cutoff1": 3,
                              "cutoff2": 0, "role": "test", "terms": []},
                "points": [{"z": [1.0], "t": []}]}
        terms = spec["expansion"]["terms"]
    terms[:] = [{"alpha": [1], "beta": [0] if command == "solve" else [],
                 "re": re} for re in (1.0, 5.0)]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli([command, "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "appears twice" in res.output


@pytest.mark.parametrize("command, field, value", [
    pytest.param("eval", "points", [[1, 2]], id="point-array"),
    pytest.param("eval", "points", [0.5], id="point-number"),
    pytest.param("eval", "expansion", [], id="expansion-array"),
    pytest.param("eval", "terms", [[0]], id="term-array"),
    pytest.param("solve", "xi0", {"kernel": []}, id="kernel-array"),
])
def test_non_object_json_exits_2(tmp_path, command, field, value):
    # Points, expansions and their terms must be JSON objects.
    from grosslap.chaos import delta0
    if command == "solve":
        spec = _heat_input([0.5])
    else:
        spec = {"op": "laplace",
                "expansion": expansion_to_json(delta0(1, 1, 3, 3)),
                "points": [{"z": [0.5], "t": [0.1]}]}
    if field == "terms":
        spec["expansion"]["terms"] = value
    else:
        spec[field] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli([command, "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "expected a JSON object" in res.output


# A placeholder number, written into one field of an input and then
# replaced by the literal under test.
PLACEHOLDER = 12345.5


def _with_placeholder(field):
    """A `solve` or `eval` input holding PLACEHOLDER in `field`, and the
    command that reads it."""
    from grosslap.chaos import delta0
    if field in ("z", "t"):
        point = {"z": [0.3], "t": [0.2]}
        point[field] = [PLACEHOLDER]
        return "eval", {"op": "laplace",
                        "expansion": expansion_to_json(delta0(1, 1, 4, 4)),
                        "points": [point]}
    spec = _source_input()
    if field == "re":
        spec["xi0"]["kernel"]["terms"][0]["re"] = PLACEHOLDER
    elif field == "im":
        spec["xi0"]["kernel"]["terms"][0]["im"] = PLACEHOLDER
    elif field == "time":
        spec["times"] = [PLACEHOLDER]
    else:
        spec[field]["grid"][-1] = PLACEHOLDER
    return "solve", spec


@pytest.mark.parametrize("literal, field, what", [
    pytest.param("NaN", "re", "NaN", id="NaN"),
    pytest.param("Infinity", "re", "Infinity", id="Infinity"),
    pytest.param("1e999", "re", "a real part must be finite", id="1e999"),
    pytest.param("-1e999", "im", "an imaginary part must be finite",
                 id="im-1e999"),
    pytest.param("1e999", "time", "a time must be finite", id="time-1e999"),
    pytest.param("1" + "0" * 400, "time", "a time must be finite",
                 id="time-huge-integer"),
    pytest.param("1e999", "Z", "a grid point must be finite",
                 id="Z-grid-1e999"),
    pytest.param("1e999", "Theta", "a grid point must be finite",
                 id="Theta-grid-1e999"),
    pytest.param("1e999", "z", "a real part must be finite",
                 id="eval-z-1e999"),
    pytest.param("1e999", "t", "a real part must be finite",
                 id="eval-t-1e999"),
])
def test_solve_non_finite_input_exits_2(tmp_path, monkeypatch, literal,
                                        field, what):
    # Non-finite numbers, and literals that overflow to them, are input
    # errors found before any work.
    command, spec = _with_placeholder(field)
    text = json.dumps(spec)
    assert text.count(str(PLACEHOLDER)) == 1
    path = tmp_path / "in.json"
    path.write_text(text.replace(str(PLACEHOLDER), literal))
    res = run_without_work(tmp_path, monkeypatch,
                           [command, "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert what in res.output


def _source_input():
    """A driven solver input with a source: xi0, one Z and one Theta piece."""
    spec = _driven_input()
    spec["Theta"] = {"grid": [0.0, 1.0],
                     "kernels": [dict(spec["Z"]["kernels"][0])]}
    return spec


def _spoiled(change):
    """A `solve` input with `change` applied, and its command."""
    def make():
        spec = _source_input()
        change(spec)
        return "solve", spec
    return make


def _test_role(obj):
    obj["kernel"]["role"] = "test"


def _test_role_symbol():
    T = trace_distribution(1, 1, 4, 4)
    payload = {"op": "symbol", "kernel": kernel_to_json(T),
               "points": [{"z": [0.1], "t": [0.2]}]}
    _test_role(payload["kernel"])
    return "eval", payload


def run_before_solving(tmp_path, monkeypatch, command, spec):
    """`run_without_work` on one input, with the solver made to fail too."""
    import grosslap.evolution

    def no_solve(*args, **kwargs):
        raise AssertionError("the input check must come before any work")

    monkeypatch.setattr(grosslap.evolution, "solve", no_solve)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    return run_without_work(tmp_path, monkeypatch,
                            [command, "--in", str(path)])


@pytest.mark.parametrize("make, what", [
    pytest.param(lambda: ("solve", []), "expected a JSON object for the "
                 "input, not list", id="input-array"),
    pytest.param(_spoiled(lambda s: s.pop("xi0")), 'the input has no "xi0"',
                 id="xi0-missing"),
    pytest.param(_spoiled(lambda s: s.update(xi0=[])),
                 "expected a JSON object for xi0, not list", id="xi0-array"),
    pytest.param(_spoiled(lambda s: s["xi0"].pop("kernel")),
                 'xi0 has no "kernel"', id="xi0-kernel-missing"),
    pytest.param(_spoiled(lambda s: s.pop("times")),
                 'the input has no "times"', id="times-missing"),
    pytest.param(_spoiled(lambda s: s.update(times=0.5)),
                 "expected a JSON array for times, not float",
                 id="times-number"),
    pytest.param(_spoiled(lambda s: s.update(Z=[])),
                 "expected a JSON object for Z, not list", id="Z-array"),
    pytest.param(_spoiled(lambda s: s.update(Theta=0.5)),
                 "expected a JSON object for Theta, not float",
                 id="Theta-number"),
    pytest.param(_spoiled(lambda s: s["Z"].pop("grid")), 'Z has no "grid"',
                 id="Z-grid-missing"),
    pytest.param(_spoiled(lambda s: s["Theta"].pop("kernels")),
                 'Theta has no "kernels"', id="Theta-kernels-missing"),
    pytest.param(_spoiled(lambda s: s["Z"].update(grid=1.0)),
                 "expected a JSON array for Z.grid, not float",
                 id="Z-grid-number"),
    pytest.param(_spoiled(lambda s: s["Theta"].update(kernels={})),
                 "expected a JSON array for Theta.kernels, not dict",
                 id="Theta-kernels-object"),
    pytest.param(_spoiled(lambda s: s["Z"]["kernels"][0].pop("kernel")),
                 'Z.kernels[0] has no "kernel"', id="Z-kernel-missing"),
    pytest.param(_spoiled(lambda s: s["Theta"].update(kernels=[[]])),
                 "expected a JSON object for Theta.kernels[0], not list",
                 id="Theta-kernel-array"),
    pytest.param(_spoiled(lambda s: s["xi0"].update(kernel=[])),
                 "expected a JSON object for xi0.kernel, not list",
                 id="xi0-kernel-array"),
    pytest.param(_spoiled(lambda s: s["xi0"]["kernel"].pop("dim1")),
                 'xi0.kernel has no "dim1"', id="xi0-dim1-missing"),
    pytest.param(_spoiled(lambda s: s["xi0"]["kernel"].update(cutoff2=8.0)),
                 "xi0.kernel.cutoff2 must be an integer >= 0, not 8.0",
                 id="xi0-cutoff-float"),
    pytest.param(_spoiled(lambda s: s["Z"]["kernels"][0]["kernel"].update(
        terms={"a": 1})),
                 "expected a JSON array for Z.kernels[0].kernel.terms, not "
                 "dict", id="Z-terms-object"),
    pytest.param(_spoiled(lambda s: s["xi0"]["kernel"]["terms"][0].pop("re")),
                 'xi0.kernel.terms[0] has no "re"', id="xi0-re-missing"),
    pytest.param(_spoiled(lambda s: s["Z"]["kernels"][0]["kernel"]
                          ["terms"][0].pop("beta")),
                 'Z.kernels[0].kernel.terms[0] has no "beta"',
                 id="Z-beta-missing"),
    pytest.param(_spoiled(lambda s: s["xi0"]["kernel"]["terms"][0].update(
        alpha=1)),
                 "expected a JSON array for xi0.kernel.terms[0].alpha, not "
                 "int", id="xi0-alpha-number"),
    pytest.param(_spoiled(lambda s: s["xi0"]["kernel"]["terms"].append(0.5)),
                 "expected a JSON object for xi0.kernel.terms[1], not float",
                 id="xi0-term-number"),
])
def test_malformed_solver_json_names_its_field(tmp_path, monkeypatch, make,
                                               what):
    command, spec = make()
    res = run_before_solving(tmp_path, monkeypatch, command, spec)
    assert res.exit_code == 2, res.output
    assert what in res.output


@pytest.mark.parametrize("make", [
    pytest.param(_spoiled(lambda s: _test_role(s["xi0"])), id="xi0"),
    pytest.param(_spoiled(lambda s: _test_role(s["Z"]["kernels"][0])),
                 id="Z-piece"),
    pytest.param(_spoiled(lambda s: _test_role(s["Theta"]["kernels"][0])),
                 id="Theta-piece"),
    pytest.param(_test_role_symbol, id="eval-symbol"),
])
def test_test_role_operator_exits_2(tmp_path, monkeypatch, make):
    command, spec = make()
    res = run_before_solving(tmp_path, monkeypatch, command, spec)
    assert res.exit_code == 2, res.output
    assert "operator kernels must be distributions" in res.output


@pytest.mark.parametrize("method, label", [
    ("closed_form", "solution"), ("both", "solution")])
def test_solve_report_labels_its_kernels(tmp_path, method, label):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.0, 0.5, 1.0])))
    res = run_cli(["solve", "--in", str(path), "--method", method])
    assert res.exit_code == 0, res.output
    kernels = json.loads(res.output)["kernels"]
    assert [k["label"] for k in kernels] == [label] * 3
    assert all(set(k) == {"label", "kernel"} for k in kernels)


def test_solve_deterministic_output(tmp_path):
    # The default method, and "both", which the benchmark's heat workload
    # runs.
    path = tmp_path / "in.json"
    path.write_text(json.dumps(_heat_input([0.25, 0.75])))
    for options in ([], ["--method", "both"]):
        args = ["solve", "--in", str(path), "--seed", "42", *options]
        a, b = run_cli(args), run_cli(args)
        assert a.exit_code == b.exit_code == 0
        assert a.output == b.output


def test_solve_overflowing_result_exits_2(tmp_path):
    # Finite input, but e^{800} overflows double precision.
    from grosslap.chaos import Expansion2
    Z = Expansion2(1, 1, 2, 2, {((0,), (0,)): 800 + 0j}, role=DISTRIBUTION)
    xi0 = Expansion2(1, 1, 2, 2, {((0,), (0,)): 1 + 0j}, role=DISTRIBUTION)
    spec = {"xi0": kernel_to_json(xi0), "times": [1.0],
            "Z": {"grid": [0.0, 1.0], "kernels": [kernel_to_json(Z)]}}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "overflows" in res.output


def test_cli_start_up_and_heat_solve_load_no_scipy(tmp_path):
    # No command loads scipy: start-up, a heat solve, a driven solve with a
    # source, the young queries and every verify suite.
    heat = tmp_path / "heat.json"
    heat.write_text(json.dumps(_heat_input([0.5])))
    driven = tmp_path / "driven.json"
    spec = _driven_input()
    spec["Theta"] = spec["Z"]
    driven.write_text(json.dumps(spec))
    runs = [
        ["solve", "--in", str(heat), "--method", "both"],
        ["solve", "--in", str(driven)],
        ["young", "--family", "expm1", "--op", "conjugate", "--x", "2.0"],
        ["young", "--family", "gaussian", "--op", "theta-n", "--n", "3"],
        ["verify", "--seed", "42"],
    ]
    runs = [args + ["--out", str(tmp_path / f"out{i}.json")]
            for i, args in enumerate(runs)]
    code = "\n".join([
        "import json, sys",
        "import grosslap.cli",
        "def loaded():",
        "    return sorted(m for m in sys.modules",
        "                  if m.split('.')[0] == 'scipy')",
        "print(loaded())",
        "for args in json.loads(sys.argv[1]):",
        "    try:",
        "        grosslap.cli.main(args)",
        "    except SystemExit as exc:",
        "        assert not exc.code, (args, exc.code)",
        "    print(loaded())",
    ])
    res = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                         env=src_env(), capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines() == ["[]"] * (len(runs) + 1)
    outputs = [json.loads((tmp_path / f"out{i}.json").read_text())
               for i in range(len(runs))]
    assert outputs[0]["kernels"] and outputs[1]["kernels"]
    assert outputs[4]["passed"] is True


def _eval_input():
    from grosslap.chaos import delta0
    return {"op": "laplace",
            "expansion": expansion_to_json(delta0(2, 0, 4, 0)),
            "points": [{"z": [0.3, 7.0], "t": []}]}


# Each command loads only the layers it runs: the usage paths and `young`
# need no numpy, `solve` no suites or Young functions, `eval` no solver, and
# neither `solve` nor `eval` the dense oracle or numpy's masked arrays.  No
# command loads click.
SOLVE_AND_EVAL_SKIP = {"grosslap.tensor_core", "numpy.ma", "numpy.random"}


@pytest.mark.parametrize("args, code, absent", [
    pytest.param(["--help"], 0, {"numpy"}, id="help"),
    pytest.param(["solve", "--help"], 0, {"numpy"}, id="solve-help"),
    pytest.param(["solve", "--bogus"], 2, {"numpy"}, id="usage-error"),
    pytest.param([], 2, {"numpy"}, id="no-command"),
    pytest.param(["bogus"], 2, {"numpy"}, id="unknown-command"),
    pytest.param(["eval"], 2, {"numpy"}, id="missing-in"),
    pytest.param(["young", "--family", "bogus", "--op", "theta", "--x", "1"],
                 2, {"numpy"}, id="bad-family"),
    pytest.param(["verify", "--seed", "1.5"], 2, {"numpy"},
                 id="non-integer-seed"),
    pytest.param(["verify", "--suite", "exponential-eigenvalue", "--seed",
                  "-1"], 2, {"numpy"}, id="verify-negative-seed"),
    pytest.param(["solve", "--in", "{heat}", "--seed", "-1"], 2, {"numpy"},
                 id="solve-negative-seed"),
    pytest.param(["young", "--family", "expm1", "--op", "conjugate", "--x",
                  "2.0"], 0, {"numpy"}, id="young"),
    pytest.param(["solve", "--in", "{heat}", "--method", "both"], 0,
                 {"grosslap.verify", "grosslap.young", *SOLVE_AND_EVAL_SKIP},
                 id="solve"),
    pytest.param(["eval", "--in", "{eval}"], 0,
                 {"grosslap.evolution", "grosslap.verify",
                  *SOLVE_AND_EVAL_SKIP}, id="eval"),
])
def test_command_loads_only_its_layers(tmp_path, args, code, absent):
    paths = {"heat": tmp_path / "heat.json", "eval": tmp_path / "eval.json"}
    paths["heat"].write_text(json.dumps(_heat_input([0.5])))
    paths["eval"].write_text(json.dumps(_eval_input()))
    args = [a.format(**paths) for a in args]
    run = "\n".join([
        "import json, sys",
        "import grosslap.cli",
        "try:",
        "    grosslap.cli.main(json.loads(sys.argv[1]))",
        "except SystemExit as exc:",
        "    print(json.dumps([exc.code, sorted(sys.modules)]))",
    ])
    res = subprocess.run([sys.executable, "-c", run, json.dumps(args)],
                         env=src_env(), capture_output=True, text=True,
                         timeout=300)
    assert res.returncode == 0, res.stderr
    exit_code, loaded = json.loads(res.stdout.splitlines()[-1])
    assert exit_code == code, res.stderr
    assert "grosslap.cli" in loaded
    assert (absent | {"click"}).isdisjoint(loaded)


def test_help_lists_every_command_after_the_commands_heading():
    # The benchmark's start-up check counts a `--help` sample as wrong
    # unless each command's name follows the "Commands:" heading.
    res = run_cli(["--help"])
    assert res.exit_code == 0, res.output
    assert "Commands:" in res.output
    listed = res.output.split("Commands:")[-1].split()
    assert {"eval", "solve", "verify", "young"} <= set(listed)


EVERY_COMMAND = [
    pytest.param(["verify", "--suite", "exponential-eigenvalue"],
                 id="verify"),
    pytest.param(["solve", "--in", "{heat}"], id="solve"),
    pytest.param(["eval", "--in", "{eval}"], id="eval"),
    pytest.param(["young", "--family", "gaussian", "--op", "theta", "--x",
                  "1"], id="young"),
]


def run_without_work(tmp_path, monkeypatch, args):
    """Run a command of EVERY_COMMAND on small inputs with `_emit` made to
    fail, so a usage error must stop it before any work."""
    import grosslap.cli

    def no_report(report, out):
        raise AssertionError("the usage check must come before any work")

    monkeypatch.setattr(grosslap.cli, "_emit", no_report)
    paths = {"heat": tmp_path / "heat.json", "eval": tmp_path / "eval.json"}
    paths["heat"].write_text(json.dumps(_heat_input([0.5])))
    paths["eval"].write_text(json.dumps(_eval_input()))
    return run_cli([a.format(**paths) for a in args])


@pytest.mark.parametrize("args", EVERY_COMMAND)
def test_out_naming_a_directory_exits_2(tmp_path, monkeypatch, args):
    res = run_without_work(tmp_path, monkeypatch,
                           args + ["--out", str(tmp_path)])
    assert res.exit_code == 2, res.output
    assert "is a directory" in res.output


@pytest.mark.parametrize("args", EVERY_COMMAND)
def test_out_in_a_missing_directory_exits_2(tmp_path, monkeypatch, args):
    missing = tmp_path / "missing" / "report.json"
    res = run_without_work(tmp_path, monkeypatch,
                           args + ["--out", str(missing)])
    assert res.exit_code == 2, res.output
    assert "does not exist" in res.output


@pytest.mark.parametrize("args", EVERY_COMMAND)
def test_empty_out_exits_2(tmp_path, monkeypatch, args):
    # An empty path names no file; the report must not go to stdout instead.
    res = run_without_work(tmp_path, monkeypatch, args + ["--out", ""])
    assert res.exit_code == 2, res.output
    assert "the file name is empty" in res.output


@pytest.mark.parametrize("args", EVERY_COMMAND[:2])  # verify and solve
def test_negative_seed_exits_2(tmp_path, monkeypatch, args):
    res = run_without_work(tmp_path, monkeypatch, args + ["--seed", "-1"])
    assert res.exit_code == 2, res.output
    assert "seed -1 is negative" in res.output


@pytest.mark.parametrize("z", [
    pytest.param([True], id="bool"),
    pytest.param([[True, False]], id="bool-pair"),
    pytest.param([{"re": True}], id="bool-re"),
    pytest.param(["1"], id="string"),
    pytest.param([[0.5, "1"]], id="string-pair"),
    pytest.param([{"re": 0.5, "im": "1"}], id="string-im"),
])
def test_eval_rejects_non_number_parts(tmp_path, z):
    from grosslap.chaos import delta0
    payload = {"op": "laplace",
               "expansion": expansion_to_json(delta0(1, 0, 4, 0)),
               "points": [{"z": z, "t": []}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "must be a number" in res.output


@pytest.mark.parametrize("count", [0, 6])
@pytest.mark.parametrize("op", ["evaluate", "laplace", "symbol"])
def test_eval_matches_per_point_functions(tmp_path, op, count):
    rng = np.random.default_rng(11)
    role = TEST if op == "evaluate" else DISTRIBUTION
    phi = random_expansion(rng, 2, 1, 5, 4, 5, 4, role=role)
    points = [(rng_complex(rng, 2).tolist(), rng_complex(rng, 1).tolist())
              for _ in range(count)]
    payload = {"op": op, "points": [
        {"z": [[v.real, v.imag] for v in z],
         "t": [[v.real, v.imag] for v in t]} for z, t in points]}
    if op == "symbol":
        payload["kernel"] = kernel_to_json(phi)
    else:
        payload["expansion"] = expansion_to_json(phi)
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 0, res.output
    values = [complex(v["re"], v["im"])
              for v in json.loads(res.output)["values"]]
    per_point = {
        "evaluate": lambda z, t: evaluate(phi, z, t),
        "laplace": lambda z, t: laplace(phi, z, t),
        "symbol": lambda z, t: symbol(phi, z, t),
    }[op]
    assert len(values) == count
    for value, (z, t) in zip(values, points):
        assert value == pytest.approx(per_point(z, t), rel=1e-12)


def test_eval_point_dims_mismatch_exits_2(tmp_path):
    T = trace_distribution(1, 1, 4, 4)
    payload = {"op": "symbol", "kernel": kernel_to_json(T),
               "points": [{"z": [0.1, 0.2], "t": []}]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(payload))
    res = run_cli(["eval", "--in", str(path)])
    assert res.exit_code == 2, res.output


def _driven_input():
    from grosslap.chaos import Expansion2
    Z = Expansion2(1, 1, 8, 8, {((1,), (0,)): 0.4 + 0j}, role=DISTRIBUTION)
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
    pytest.param("method", "closed-form", id="method-typo"),
    pytest.param("method", REMOVED_METHOD, id="removed-method"),
    pytest.param("method", "bogus", id="unknown-method"),
    pytest.param("method", 3, id="numeric-method"),
    pytest.param("--method", "bogus", id="unknown-method-option"),
    pytest.param("--method", REMOVED_METHOD, id="removed-method-option"),
])
def test_solve_rejects_non_numbers_and_unknown_methods(tmp_path,
                                                       field, value):
    # Times and grid points must be JSON numbers; the method, from the file
    # or from --method, must be one of the solver's methods.
    spec = _driven_input()
    options = []
    if field == "grid":
        spec["Z"]["grid"] = value
    elif field == "--method":
        options = [field, value]
    else:
        spec[field] = value
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path), *options])
    assert res.exit_code == 2, res.output
    assert "bad solver input" in res.output
    if field.endswith("method"):
        assert "method must be one of closed_form, both, not" in res.output


@pytest.mark.parametrize("method", ["closed_form", "both"])
@pytest.mark.parametrize("action", [
    pytest.param("bogus", id="unknown"),
    pytest.param(None, id="null"),
    pytest.param(["function"], id="array"),
])
def test_solve_rejects_unknown_actions(tmp_path, method, action):
    spec = _heat_input([0.0])
    spec["action"] = action
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path), "--method", method])
    assert res.exit_code == 2, res.output
    assert "action must be one of function, distribution" in res.output


def test_gaussian_check_fails_closed(tmp_path, monkeypatch):
    # One NaN among the oracle's values makes gaussian_gap NaN, and the
    # command line refuses to write it.
    import grosslap.evolution as evolution
    exact = evolution.gaussian_heat_kernel

    def poisoned(xi0, t, x):
        values = exact(xi0, t, x)
        values[len(values) // 2] = complex("nan")
        return values

    monkeypatch.setattr(evolution, "gaussian_heat_kernel", poisoned)
    spec = _heat_input([0.5, 1.0])
    sol = evolution.solve(kernel_from_json(spec["xi0"]), spec["times"])
    assert math.isnan(sol.checks["gaussian_gap"])
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path)])
    assert res.exit_code == 2, res.output
    assert "NaN or infinite" in res.output


@pytest.mark.parametrize("heat, source, action, method", SOLVER_CASES)
def test_solve_reports_the_library_checks(tmp_path, heat, source,
                                          action, method):
    from grosslap.evolution import solve
    xi0, Z, Theta = solver_case(heat, source)
    times = [0.25, 0.5]
    spec = {"xi0": kernel_to_json(xi0), "times": times, "action": action,
            "method": method}
    for name, process in (("Z", Z), ("Theta", Theta)):
        if process is not None:
            spec[name] = {"grid": list(process.grid),
                          "kernels": [kernel_to_json(k)
                                      for k in process.kernels]}
    path = tmp_path / "in.json"
    path.write_text(json.dumps(spec))
    res = run_cli(["solve", "--in", str(path), "--seed", "7"])
    assert res.exit_code == 0, res.output
    sol = solve(xi0, times, Z, Theta, action=action, method=method, seed=7)
    report = json.loads(res.output)
    assert report["checks"] == sol.checks
    assert (report["method"], report["action"]) == (sol.method, sol.action)


def test_solve_accepts_integer_times_and_named_methods(tmp_path):
    spec = _driven_input()
    spec["times"] = [0, 1]
    for method in ("closed_form", "both"):
        spec["method"] = method
        path = tmp_path / "in.json"
        path.write_text(json.dumps(spec))
        res = run_cli(["solve", "--in", str(path)])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["times"] == [0.0, 1.0]
