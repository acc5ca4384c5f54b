"""Traced launcher: run one benchmark operation with spans around each layer.

    python3 bench/tracing.py --spans OUT.json --op-id 3 -- -m grosslap.cli solve --in heat.json
    python3 bench/tracing.py --spans OUT.json --op-id 4 -- bench/verify_op.py --seed 42

After `--` comes the operation exactly as it follows `python3` in an
untraced run: `-m MODULE ARGS...` or `SCRIPT ARGS...`.  The launcher times
the import of `grosslap.cli`, wraps the functions named in `LAYERS`, then
runs the operation.  Modules import these functions by name, so each wrapper
is rebound in every `grosslap` module that holds the original.  Spans stay in
memory and are written to OUT.json when the operation ends; `layer_stats`
turns them into per-layer metrics.  `src/` is not modified.
"""

from __future__ import annotations

import argparse
import json
import runpy
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

# Span name -> (module, attribute); WORK adds a count taken from the arguments.
LAYERS: Dict[str, tuple] = {
    "tensor_core.contract_full": ("tensor_core", "contract_full"),
    "chaos.coefficient_polynomial": ("chaos", "coefficient_polynomial"),
    "chaos.sym_convolve_coeffs": ("chaos", "sym_convolve_coeffs"),
    "chaos.translate": ("chaos", "translate"),
    "chaos.dual_pair": ("chaos", "dual_pair"),
    "chaos.exponential_vector": ("chaos", "exponential_vector"),
    "gross.convolve_dist_dist": ("gross", "convolve_dist_dist"),
    "gross.convolve_dist_test": ("gross", "convolve_dist_test"),
    "gross.gross_test": ("gross", "gross_test"),
    "gross.gross_distribution": ("gross", "gross_distribution"),
    "quantum_op.symbol": ("quantum_op", "symbol"),
    "quantum_op.quantum_gross": ("quantum_op", "quantum_gross"),
    "quantum_op.classical_quantum_bridge": (
        "quantum_op", "classical_quantum_bridge"),
    "quantum_op.kernel_from_json": ("quantum_op", "kernel_from_json"),
    "quantum_op.kernel_to_json": ("quantum_op", "kernel_to_json"),
    "evolution.conv_exp": ("evolution", "conv_exp"),
    "evolution.apply_propagator": ("evolution", "apply_propagator"),
    "evolution.solve_qsde": ("evolution", "solve_qsde"),
    "evolution.solve_symbol_ode": ("evolution", "solve_symbol_ode"),
    "evolution.gaussian_heat_kernel": ("evolution", "gaussian_heat_kernel"),
    "young.conjugate_eval": ("young", "conjugate_eval"),
    "young.theta_n": ("young", "theta_n"),
}
# Span name -> (stat, count of one call from its arguments).
WORK: Dict[str, tuple] = {
    "chaos.coefficient_polynomial": ("terms", lambda phi, p: len(phi.coeffs)),
    "chaos.sym_convolve_coeffs": (
        "term_pairs", lambda f, g: len(f.coeffs) * len(g.coeffs)),
    "gross.convolve_dist_test": (
        "term_pairs", lambda Phi, phi: len(Phi.coeffs) * len(phi.coeffs)),
    "evolution.lstsq": (
        "cells", lambda a, *_, **__: int(a.shape[0] * a.shape[1])),
}
# Called about 7.7M times per heat operation: counted, never timed.
COUNTED = {"tensor_core.multinomial_weight": ("tensor_core",
                                              "multinomial_weight")}
ROOT = "operation"


class Tracer:
    """Nested spans of one operation, kept in memory until it ends."""

    def __init__(self, op_id: int):
        self.op_id = op_id
        self.spans: List[Optional[list]] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)

    def open(self, name: str, work: Optional[int] = None) -> int:
        sid = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, work])
        self.stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter_ns()
        self.stack.pop()

    def timed(self, name: str, fn: Callable) -> Callable:
        work = WORK[name][1] if name in WORK else None

        def wrapper(*args, **kwargs):
            sid = self.open(name, work(*args, **kwargs) if work else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)
        return wrapper

    def dump(self, path: str, import_s: float) -> None:
        doc = {"op_id": self.op_id, "import_s": import_s,
               "counts": dict(self.counts), "spans": self.spans}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _rebind(original: Callable, wrapper: Callable) -> None:
    for name, module in list(sys.modules.items()):
        if name != "grosslap" and not name.startswith("grosslap."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every layer function, `Expansion2.__init__`, lstsq and suites."""
    import numpy as np
    import grosslap
    import grosslap.verify

    for span, (mod, attr) in LAYERS.items():
        original = getattr(getattr(grosslap, mod), attr)
        _rebind(original, tracer.timed(span, original))
    for span, (mod, attr) in COUNTED.items():
        original = getattr(getattr(grosslap, mod), attr)
        _rebind(original, tracer.counted(span, original))
    cls = grosslap.chaos.Expansion2
    cls.__init__ = tracer.timed("chaos.Expansion2.init", cls.__init__)
    # evolution reaches lstsq as np.linalg.lstsq, so wrap it at numpy.
    np.linalg.lstsq = tracer.timed("evolution.lstsq", np.linalg.lstsq)
    checks = grosslap.verify.ALL_CHECKS
    for suite, fn in list(checks.items()):
        checks[suite] = tracer.timed(f"verify.{suite}", fn)


def _run(target: List[str]) -> None:
    if target[0] == "-m":
        sys.argv = [target[1]] + target[2:]
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(target)
        runpy.run_path(target[0], run_name="__main__")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--op-id", type=int, required=True)
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    args = parser.parse_args(argv[:split])
    target = argv[split + 1:]
    if not target:
        parser.error("no operation given after --")

    start = time.perf_counter_ns()
    import grosslap.cli  # noqa: F401  (timed: every CLI call pays this)
    import_s = (time.perf_counter_ns() - start) / 1e9

    tracer = Tracer(args.op_id)
    install(tracer)
    code = 0
    tracer.open(ROOT)
    try:
        _run(target)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else int(bool(exc.code))
    finally:
        while tracer.stack:
            tracer.close(tracer.stack[-1])
        sys.stdout.flush()
        tracer.dump(args.spans, import_s)
    sys.exit(code)


# ---------------------------------------------------------------------------
# Per-layer metrics from one operation's spans


def layer_stats(doc: dict) -> Dict[str, float]:
    """`<span>.<stat>` values of one traced operation.

    self_s is a span's duration minus its children's (one thread, so
    children never overlap);
    total_s counts only the outermost span of each name.  Work counts add
    up the per-call counts, except `evolution.conv_exp.convolutions` (child
    convolutions of conv_exp) and `evolution.solve_symbol_ode.design_cells`
    (points x keys of the fitted design matrix, once per solve).
    """
    spans = doc["spans"]
    children: Dict[int, List[int]] = defaultdict(list)
    for sid, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            children[parent].append(sid)

    out: Dict[str, float] = defaultdict(float)
    for sid, (name, start, end, parent, work) in enumerate(spans):
        kids = sum(spans[k][2] - spans[k][1] for k in children[sid])
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start - kids) / 1e9
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            out[f"{name}.total_s"] += (end - start) / 1e9
        if work is not None:
            out[f"{name}.{WORK[name][0]}"] += work
        parent_name = spans[parent][0] if parent >= 0 else None
        if name == "gross.convolve_dist_dist" and \
                parent_name == "evolution.conv_exp":
            out["evolution.conv_exp.convolutions"] += 1
        if name == "evolution.solve_symbol_ode":
            fits = [spans[k][4] for k in children[sid]
                    if spans[k][0] == "evolution.lstsq"]
            out["evolution.solve_symbol_ode.design_cells"] += \
                fits[0] if fits else 0
    for name, count in doc["counts"].items():
        out[f"{name}.calls"] = count
    out["cli.import_s"] = doc["import_s"]
    out["self_sum_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))
    return dict(out)


if __name__ == "__main__":
    main()
