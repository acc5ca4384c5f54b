"""Command-line driver: verification suites, solvers and point evaluation.

All reports are JSON with sorted keys, so a fixed seed yields byte-identical
output.  Exit codes: 0 success, 1 a verification suite failed, 2 input or
configuration error (including NaN or infinite numbers in the input, or a
result that overflows to them, or an input over the size budget).
"""

from __future__ import annotations

import inspect
import json
import sys
from typing import Optional, Sequence

import click
import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    Point2,
    RoleError,
    check_evaluation_size,
    coefficient_count,
    coefficient_polynomials,
    expansion_from_json,
    grid_point_count,
    point_coordinates,
)
from .evolution import (
    ACTION_DISTRIBUTION,
    ACTION_FUNCTION,
    ProcessSpec,
    half_trace_process,
    solve_heat,
    solve_qsde,
    solve_symbol_ode,
    symbol_gap,
    zero_process,
)
from .quantum_op import kernel_from_json, kernel_to_json
from .tensor_core import DegreeError, DimensionMismatchError
from .verify import ALL_CHECKS
from .young import YoungFunctionSpec, check_growth_condition, conjugate_eval, theta_n

# The role `eval` requires of an "expansion" input; "symbol" reads a kernel.
ROLE_OF_OP = {"evaluate": TEST, "laplace": DISTRIBUTION}
METHODS = ("closed_form", "symbol_ode", "both")

INPUT_ERRORS = (RoleError, DimensionMismatchError, DegreeError, ValueError,
                KeyError, TypeError, OverflowError, json.JSONDecodeError)


def _load_json(path: str):
    """Read an input file, rejecting the non-standard NaN/Infinity tokens."""
    def reject(token: str):
        raise ValueError(f"non-finite number {token} in input")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _emit(report: dict, out: Optional[str]) -> None:
    try:
        text = json.dumps(report, sort_keys=True, indent=2,
                          allow_nan=False) + "\n"
    except ValueError:
        _fail(2, "the result holds NaN or infinite numbers; the input "
                 "overflows double precision")
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _json_number(value, what: str) -> float:
    """A JSON number as a float; booleans and strings are rejected."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, not {value!r}")
    return float(value)


def _as_complex(obj) -> complex:
    if isinstance(obj, (int, float)):
        return complex(obj)
    if isinstance(obj, list) and len(obj) == 2:
        return complex(obj[0], obj[1])
    if isinstance(obj, dict):
        return complex(obj.get("re", 0.0), obj.get("im", 0.0))
    raise ValueError(f"cannot read {obj!r} as a complex number")


def _as_point(obj) -> Point2:
    z = [_as_complex(v) for v in obj.get("z", [])]
    t = [_as_complex(v) for v in obj.get("t", [])]
    return Point2.of(z, t)


def _c_json(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


@click.group()
def main() -> None:
    """Coefficient-calculus toolkit: verification, solvers, evaluation."""


@main.command()
@click.option("--suite", "suites", multiple=True,
              help="Run only the named suites (default: all).")
@click.option("--seed", type=int, default=42, show_default=True)
@click.option("--tol", type=float, default=None,
              help="Override each suite's default tolerance.")
@click.option("--out", "out", type=click.Path(dir_okay=False), default=None)
def verify(suites: Sequence[str], seed: int, tol: Optional[float],
           out: Optional[str]) -> None:
    """Run the registered invariant suites and report pass/fail per suite."""
    selected = list(suites) if suites else list(ALL_CHECKS)
    unknown = [s for s in selected if s not in ALL_CHECKS]
    if unknown:
        _fail(2, f"unknown suites: {', '.join(unknown)}")
    results = []
    for name in selected:
        fn = ALL_CHECKS[name]
        kwargs = {"seed": seed}
        params = inspect.signature(fn).parameters
        if tol is not None and "tol" in params:
            kwargs["tol"] = tol
        res = fn(**kwargs)
        results.append({
            "name": res.name,
            "identity": res.identity,
            "passed": res.passed,
            # A NaN or infinite error (a failed suite) is written as text,
            # since strict JSON has no number for it.
            "max_error": (res.max_error
                          if abs(res.max_error) <= sys.float_info.max
                          else str(res.max_error)),
            "tolerance": res.tolerance,
            "samples": res.samples,
        })
    report = {"seed": seed, "checks": results,
              "passed": all(r["passed"] for r in results)}
    _emit(report, out)
    sys.exit(0 if report["passed"] else 1)


def _process_from_json(obj) -> ProcessSpec:
    grid = tuple(_json_number(g, "a grid point") for g in obj["grid"])
    kernels = tuple(kernel_from_json(k) for k in obj["kernels"])
    return ProcessSpec(grid, kernels)


@main.command()
@click.option("--in", "in_path", type=click.Path(exists=False), required=True)
@click.option("--out", "out", type=click.Path(dir_okay=False), default=None)
@click.option("--method", type=click.Choice(METHODS), default=None,
              help="Override the method named in the input file.")
@click.option("--seed", type=int, default=42, show_default=True)
def solve(in_path: str, out: Optional[str], method: Optional[str],
          seed: int) -> None:
    """Solve a linear kernel evolution problem described by a JSON file.

    Without a "Z" process the heat flow (half the trace distribution) is
    assumed.  method "symbol_ode" runs only the symbol oracle, which solves
    the symbol ODE exactly on each piece where Z and Theta are constant;
    "both" runs it after the closed form and reports the worst symbol gap as
    residual_max.
    """
    try:
        spec = _load_json(in_path)
        xi0 = kernel_from_json(spec["xi0"])
        ref = xi0.kernel
        keys = coefficient_count(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2)
        check_evaluation_size(
            grid_point_count(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2),
            keys, ref.dim1, ref.dim2)
        times = [_json_number(t, "a time") for t in spec["times"]]
        method = method or spec.get("method", "closed_form")
        if method not in METHODS:
            raise ValueError(f"method must be one of {', '.join(METHODS)}, "
                             f"not {method!r}")
        action = spec.get("action", ACTION_FUNCTION)
        t_end = max(times + [1e-9])
        heat = "Z" not in spec
        if heat:
            Z = None
        else:
            Z = _process_from_json(spec["Z"])
        if "Theta" in spec:
            Theta = _process_from_json(spec["Theta"])
        else:
            Theta = zero_process(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2,
                                 max(t_end, Z.end if Z else t_end))
    except FileNotFoundError as exc:
        _fail(2, str(exc))
    except INPUT_ERRORS as exc:
        _fail(2, f"bad solver input: {exc}")

    # An overflow shows as inf or NaN in the report, which _emit rejects.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            checks = {}
            if method != "symbol_ode":
                if heat:
                    sol = solve_heat(xi0, Theta, times, action=action,
                                     seed=seed)
                else:
                    sol = solve_qsde(Z, Theta, xi0, times, action=action)
                checks.update(sol.checks)
            if method in ("symbol_ode", "both"):
                Zn = Z if Z is not None else half_trace_process(
                    ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2, t_end)
                numeric = solve_symbol_ode(Zn, Theta, xi0, times)
                if method == "both":
                    closed = (
                        sol if action == ACTION_DISTRIBUTION else
                        (solve_heat(xi0, Theta, times,
                                    action=ACTION_DISTRIBUTION) if heat else
                         solve_qsde(Z, Theta, xi0, times,
                                    action=ACTION_DISTRIBUTION)))
                    checks["residual_max"] = symbol_gap(closed, numeric)
                else:
                    sol = numeric
                checks.update(numeric.checks)
    except INPUT_ERRORS as exc:
        _fail(2, f"bad solver input: {exc}")

    report = {
        "method": sol.method,
        "action": sol.action,
        "times": list(sol.times),
        "kernels": [kernel_to_json(k) for k in sol.kernels],
        "truncated": sol.truncated,
        "checks": checks,
    }
    _emit(report, out)


@main.command(name="eval")
@click.option("--in", "in_path", type=click.Path(exists=False), required=True)
@click.option("--out", "out", type=click.Path(dir_okay=False), default=None)
def eval_cmd(in_path: str, out: Optional[str]) -> None:
    """Evaluate an expansion or kernel symbol at a list of points.

    Input JSON: {"op": "evaluate"|"laplace"|"symbol", "expansion": ... or
    "kernel": ..., "points": [{"z": [..], "t": [..]}, ..]}.  Complex numbers
    are written as numbers, [re, im] pairs, or {"re": .., "im": ..}.  All
    three ops sum mult(alpha) mult(beta) c z^alpha t^beta, for every point
    at once; they differ in the role the input must have.
    """
    try:
        spec = _load_json(in_path)
        op = spec["op"]
        points = [_as_point(p) for p in spec["points"]]
        if op == "symbol":
            phi = kernel_from_json(spec["kernel"]).kernel
        elif op in ROLE_OF_OP:
            phi = expansion_from_json(spec["expansion"])
            if phi.role != ROLE_OF_OP[op]:
                raise RoleError(f"{op} needs a {ROLE_OF_OP[op]} expansion")
        else:
            raise ValueError(f"unknown op {op!r}")
        check_evaluation_size(len(points), len(phi.codes), phi.dim1,
                              phi.dim2)
        x = point_coordinates([(p.z, p.t) for p in points], phi.dim1,
                              phi.dim2)
        values = coefficient_polynomials([phi], x)[:, 0].tolist()
    except FileNotFoundError as exc:
        _fail(2, str(exc))
    except INPUT_ERRORS as exc:
        _fail(2, f"bad eval input: {exc}")
    _emit({"op": op, "values": [_c_json(v) for v in values]}, out)


@main.command()
@click.option("--family", type=click.Choice(["power", "gaussian", "expm1"]),
              required=True)
@click.option("--k", type=float, default=None,
              help="Exponent for the power family.")
@click.option("--op", "op", type=click.Choice(["theta", "conjugate",
                                               "theta-n", "growth"]),
              required=True)
@click.option("--x", type=float, default=None)
@click.option("--n", type=int, default=None)
@click.option("--out", "out", type=click.Path(dir_okay=False), default=None)
def young(family: str, k: Optional[float], op: str, x: Optional[float],
          n: Optional[int], out: Optional[str]) -> None:
    """Query a named Young function: values, conjugates, weights, growth."""
    try:
        spec = YoungFunctionSpec(family, k)
        if op == "theta":
            if x is None:
                raise ValueError("--x is required for op theta")
            value = spec.theta(x)
        elif op == "conjugate":
            if x is None:
                raise ValueError("--x is required for op conjugate")
            value = conjugate_eval(spec, x)
        elif op == "theta-n":
            if n is None:
                raise ValueError("--n is required for op theta-n")
            value = theta_n(spec, n)
        else:
            value = bool(check_growth_condition(spec))
    except INPUT_ERRORS as exc:
        _fail(2, f"bad young query: {exc}")
    _emit({"family": family, "op": op, "value": value}, out)


if __name__ == "__main__":
    main()
