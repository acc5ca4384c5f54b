"""Command-line driver: verification suites, solvers and point evaluation.

All reports are JSON with sorted keys, so a fixed seed yields byte-identical
output.  Exit codes: 0 success, 1 a verification suite failed, 2 input or
configuration error (including NaN or infinite numbers in the input, or a
result that overflows to them, or an input over the size budget).  Usage
errors (an unknown command or option, a missing or malformed option value,
a negative `--seed`, an `--out` that is empty, names a directory or names
a file in a directory that does not exist) also exit 2, before any work.

`run` is the program: `python -m grosslap.cli` and the `grosslap` console
script.  It runs `main` with the cyclic garbage collector off and freezes
every object at exit, so neither the collections during the imports nor the
interpreter's final collection walk numpy's and the library's module graphs.
The commands make no reference cycles, so no garbage waits for a collector.
`main` is the in-process API and leaves the collector as it finds it.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import os
import sys
from typing import Optional, Sequence

# The argument layer is the standard library's argparse, and each command
# imports the library layers it runs: `--help`, usage errors and `young`
# never load numpy, and `solve` and `eval` load neither the dense oracle
# (`tensor_core`) nor numpy's masked arrays.  `json` is loaded by the two
# functions that read and write it, so `--help` and usage errors skip it.

# The role `eval` requires of an "expansion" input; "symbol" reads a kernel.
ROLE_OF_OP = {"evaluate": "test", "laplace": "distribution"}

# The library's own input errors (RoleError, DimensionMismatchError,
# DegreeError) and json.JSONDecodeError are ValueErrors.
INPUT_ERRORS = (ValueError, KeyError, TypeError, OverflowError)


def _load_json(path: str):
    """Read an input file, rejecting the non-standard NaN/Infinity tokens."""
    import json

    def reject(token: str):
        raise ValueError(f"non-finite number {token} in input")
    with open(path) as fh:
        return json.load(fh, parse_constant=reject)


def _emit(report: dict, out: Optional[str]) -> None:
    import json
    try:
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    except ValueError:
        _fail(2, "the result holds NaN or infinite numbers; the input "
                 "overflows double precision")
    if out is not None:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _fail(code: int, message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(code)


def _as_complex(obj) -> complex:
    """A number, an [re, im] pair or {"re": .., "im": ..}; each part is read
    with `_json_number`."""
    from .chaos import _json_number
    if isinstance(obj, list) and len(obj) == 2:
        re, im = obj
    elif isinstance(obj, dict):
        re, im = obj.get("re", 0.0), obj.get("im", 0.0)
    else:
        re, im = obj, 0.0
    return complex(_json_number(re, "a real part"),
                   _json_number(im, "an imaginary part"))


def _as_point(obj, field: str):
    """A {"z": [..], "t": [..]} object, the input's `field`, as a (z, t)
    pair of complex lists."""
    from .chaos import _json_object
    obj = _json_object(obj, field)
    return tuple([_as_complex(v) for v in
                  _json_object(obj.get(k, []), f"{field}.{k}", list)]
                 for k in ("z", "t"))


def _c_json(v: complex) -> dict:
    return {"re": v.real, "im": v.imag}


def verify(suites: Optional[Sequence[str]], seed: int,
           out: Optional[str]) -> None:
    """Run the registered invariant suites and report pass/fail per suite."""
    from .verify import ALL_CHECKS
    selected = list(suites) if suites else list(ALL_CHECKS)
    unknown = [s for s in selected if s not in ALL_CHECKS]
    if unknown:
        _fail(2, f"unknown suites: {', '.join(unknown)}")
    results = []
    for name in selected:
        res = ALL_CHECKS[name](seed=seed)
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


def _process_from_json(obj, field: str = "a process"):
    """A process's JSON object ({"grid": [..], "kernels": [..]}), the
    input's `field`, as a ProcessSpec."""
    from .chaos import _json_member, _json_number, _json_object
    from .evolution import ProcessSpec
    from .quantum_op import kernel_from_json
    obj = _json_object(obj, field)
    grid = tuple(_json_number(g, "a grid point")
                 for g in _json_member(obj, "grid", field, list))
    kernels = tuple(kernel_from_json(k, f"{field}.kernels[{i}]") for i, k
                    in enumerate(_json_member(obj, "kernels", field, list)))
    return ProcessSpec(grid, kernels)


def solve(in_path: str, out: Optional[str], method: Optional[str],
          seed: int) -> None:
    """Solve a linear kernel evolution problem described by a JSON file.

    Without a "Z" process the heat flow (half the trace distribution) is
    assumed.  Every method runs the closed form; method "both" also solves
    the symbol ODE exactly on each piece where Z and Theta are constant and
    reports the worst gap between its values and the closed form's symbols
    as residual_max.
    """
    import numpy as np

    from . import evolution
    from .chaos import (_json_member, _json_number, _json_object,
                        check_evaluation_size, coefficient_count,
                        grid_point_count)
    from .quantum_op import kernel_from_json, kernel_to_json
    try:
        spec = _json_object(_load_json(in_path), "the input")
        xi0 = kernel_from_json(_json_member(spec, "xi0"), "xi0")
        shape = (xi0.dim1, xi0.dim2, xi0.cutoff1, xi0.cutoff2)
        check_evaluation_size(grid_point_count(*shape),
                              coefficient_count(*shape), xi0.dim1, xi0.dim2)
        times = [_json_number(t, "a time")
                 for t in _json_member(spec, "times", kind=list)]
        Z = _process_from_json(spec["Z"], "Z") if "Z" in spec else None
        Theta = (_process_from_json(spec["Theta"], "Theta")
                 if "Theta" in spec else None)
        options = {k: spec[k] for k in ("action", "method") if k in spec}
        if method is not None:
            options["method"] = method
    except FileNotFoundError as exc:
        _fail(2, str(exc))
    except INPUT_ERRORS as exc:
        _fail(2, f"bad solver input: {exc}")

    # An overflow shows as inf or NaN in the report, which _emit rejects.
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            sol = evolution.solve(xi0, times, Z, Theta, seed=seed, **options)
    except INPUT_ERRORS as exc:
        _fail(2, f"bad solver input: {exc}")

    report = {
        "method": sol.method,
        "action": sol.action,
        "times": list(sol.times),
        "kernels": [kernel_to_json(k, "solution") for k in sol.kernels],
        "checks": sol.checks,
    }
    _emit(report, out)


def eval_cmd(in_path: str, out: Optional[str]) -> None:
    """Evaluate an expansion or kernel symbol at a list of points.

    Input JSON: {"op": "evaluate"|"laplace"|"symbol", "expansion": ... or
    "kernel": ..., "points": [{"z": [..], "t": [..]}, ..]}.  Complex numbers
    are written as numbers, [re, im] pairs, or {"re": .., "im": ..}.  All
    three ops sum mult(alpha) mult(beta) c z^alpha t^beta, for every point
    at once; they differ in the role the input must have.
    """
    from .chaos import (RoleError, _json_member, _json_object,
                        check_evaluation_size, coefficient_polynomials,
                        expansion_from_json, point_coordinates)
    from .quantum_op import kernel_from_json
    try:
        spec = _json_object(_load_json(in_path), "the input")
        op = _json_member(spec, "op", kind=None)
        # A tuple, not ROLE_OF_OP: `in` a dict would hash an array op.
        if op not in ("symbol", *ROLE_OF_OP):
            raise ValueError(f"unknown op {op!r}")
        points = [_as_point(p, f"points[{i}]") for i, p
                  in enumerate(_json_member(spec, "points", kind=list))]
        if op == "symbol":
            phi = kernel_from_json(_json_member(spec, "kernel"), "kernel")
        else:
            phi = expansion_from_json(_json_member(spec, "expansion"),
                                      "expansion")
            if phi.role != ROLE_OF_OP[op]:
                raise RoleError(f"{op} needs a {ROLE_OF_OP[op]} expansion")
        check_evaluation_size(len(points), len(phi.codes), phi.dim1,
                              phi.dim2, int(phi.exponents.max(initial=0)) + 1)
        x = point_coordinates(points, phi.dim1, phi.dim2)
        values = coefficient_polynomials([phi], x)[:, 0].tolist()
    except FileNotFoundError as exc:
        _fail(2, str(exc))
    except INPUT_ERRORS as exc:
        _fail(2, f"bad eval input: {exc}")
    _emit({"op": op, "values": [_c_json(v) for v in values]}, out)


def young(family: str, k: Optional[float], op: str, x: Optional[float],
          n: Optional[int], out: Optional[str]) -> None:
    """Query a named Young function: values, conjugates, weights, growth."""
    from .young import (YoungFunctionSpec, check_growth_condition,
                        conjugate_eval, theta_n)
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


def _out_file(path: str) -> str:
    """An `--out` value: a file path, not empty and not a directory, in a
    directory that exists."""
    if not path:
        raise argparse.ArgumentTypeError("the file name is empty")
    if os.path.isdir(path):
        raise argparse.ArgumentTypeError(f"file {path!r} is a directory")
    parent = os.path.dirname(path)
    if parent and not os.path.isdir(parent):
        raise argparse.ArgumentTypeError(
            f"directory {parent!r} of file {path!r} does not exist")
    return path


def _seed(text: str) -> int:
    """A `--seed` value: a non-negative integer."""
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed {seed} is negative")
    return seed


def _parser() -> argparse.ArgumentParser:
    """The argument parser: one subparser per command, whose `run` default
    is the function that runs it."""
    # Each option has one spelling, the one `--help` lists: no -h and no
    # abbreviations.
    plain = {"add_help": False, "allow_abbrev": False}
    helps = {"action": "help", "help": "Show this message and exit."}
    parser = argparse.ArgumentParser(
        prog="grosslap", description="Coefficient-calculus toolkit: "
        "verification, solvers, evaluation.", **plain)
    parser.add_argument("--help", **helps)
    commands = parser.add_subparsers(title="Commands", metavar="COMMAND",
                                     required=True)

    def command(name: str, run) -> argparse.ArgumentParser:
        doc = [line.strip() for line in (run.__doc__ or name).splitlines()]
        sub = commands.add_parser(
            name, help=doc[0], description="\n".join(doc),
            formatter_class=argparse.RawDescriptionHelpFormatter, **plain)
        sub.set_defaults(run=run)
        sub.add_argument("--help", **helps)
        return sub

    seed = {"type": _seed, "default": 42, "help": "(default: %(default)s)"}
    in_path = {"dest": "in_path", "metavar": "PATH", "required": True}
    out = {"metavar": "FILE", "type": _out_file}

    cmd = command("verify", verify)
    cmd.add_argument("--suite", dest="suites", action="append", metavar="NAME",
                     help="Run only the named suites (default: all).")
    cmd.add_argument("--seed", **seed)
    cmd.add_argument("--out", **out)

    cmd = command("solve", solve)
    cmd.add_argument("--in", **in_path)
    cmd.add_argument("--out", **out)
    cmd.add_argument("--method", metavar="METHOD",
                     help="Override the method named in the input file: "
                          "closed_form or both.")
    cmd.add_argument("--seed", **seed)

    cmd = command("eval", eval_cmd)
    cmd.add_argument("--in", **in_path)
    cmd.add_argument("--out", **out)

    cmd = command("young", young)
    cmd.add_argument("--family", required=True,
                     choices=["power", "gaussian", "expm1"])
    cmd.add_argument("--k", type=float,
                     help="Exponent for the power family.")
    cmd.add_argument("--op", required=True,
                     choices=["theta", "conjugate", "theta-n", "growth"])
    cmd.add_argument("--x", type=float)
    cmd.add_argument("--n", type=int)
    cmd.add_argument("--out", **out)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> None:
    """Parse argv (default: the process's arguments), run the command and
    exit with its code: 0 unless the command or the parser exits first."""
    options = vars(_parser().parse_args(argv))
    options.pop("run")(**options)
    sys.exit(0)


def run() -> None:
    """The program's entry: `main` on the process's arguments, with the
    cyclic collector off and every object frozen at exit, so the
    interpreter's final collection skips them."""
    gc.disable()
    atexit.register(gc.freeze)
    main()


if __name__ == "__main__":
    run()
