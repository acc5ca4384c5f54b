"""End-to-end benchmark of the `grosslap` command-line program.

    python3 bench/run.py --workload heat --seed 1 --seconds 25 --trace 0

Run from the repository root.  Every operation is one invocation of the
program in a fresh interpreter, as a user runs it (`python3 -m grosslap.cli`
with `src` on the import path), one at a time from this process.  The
process and its children are pinned to one core, so BLAS runs one thread.
Each time is rescaled by the host speed that a probe thread measured on that
core while the child ran (`SpeedProbe`).  After set-up the workload's
round of operations repeats for about `--seconds`: a round that has started
always finishes, so every run attempts whole rounds, and the run stops at the
round boundary nearest to `--seconds`.

Workloads (inputs come from `bench/inputs.py`; see `bench/README.md`):

* heat    `solve --method both` on the trace-driven heat flow.
* driven  `solve` of a driven flow with a source, distribution action.
* verify  the ten invariant suites (`bench/verify_op.py`), plus probes of
          faults F1 and F2, which count as failed operations until mended.

Each output is checked against `bench/references.py`, which does not import
`grosslap`.  With `--trace 0` the last line of standard output is the JSON
result with the end-to-end metrics; with `--trace 1` each round runs the main
operation untraced and then through `bench/tracing.py`, and the result holds
the per-layer metrics named in `BENCHMARK.json`.  Working files go to
`.bench_work/`.
"""

from __future__ import annotations

import argparse
import json
import marshal
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, NamedTuple, Optional

import inputs
import references
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# The suites run at the CLI's default seed whatever the workload seed: their
# cost depends on it (7 to 27 s over seeds 1-10, mostly in
# evolution-symbol-residual), so a seed-derived suite seed would make the
# spread between runs wider than any bound.
VERIFY_SEED = 42
SUITES = ("contraction-dense-oracle", "trace-convolution-equals-gross",
          "exponential-eigenvalue", "laplace-convolution-homomorphism",
          "gross-adjointness", "quantum-symbol-multiplier",
          "multiplication-operator-bridge", "heat-oracle-triangle",
          "evolution-symbol-residual", "young-conjugate-diagnostics")
COMMANDS = ("eval", "solve", "verify", "young")

HEAT_REF_TOL = 1e-10      # relative, against the heat semigroup
GAUSSIAN_GAP_TOL = 1e-10  # the tolerance of the heat-oracle-triangle suite
# The symbol ODE integrates the untruncated symbol, so residual_max measures
# the cutoff-6 tail at radius 0.1: about 1e-6 at t = 1 on these inputs.
RESIDUAL_TOL = 1e-5
DRIVEN_REF_TOL = 1e-9     # relative, against the truncated-ring exponential

SETUP_REPEATS = 5
OP_TIMEOUT_S = 100.0
RUN_LIMIT_S = 150.0       # no round starts that would likely end past this

# Host-speed probes.  While a child runs, a thread of this process does two
# fixed pieces of work every PROBE_PERIOD_S, on the one core that the
# benchmark and its children are pinned to, and records the CPU time of
# each.  "compute" is an interpreter loop over a small dict, like the
# program's coefficient work; "import" unmarshals the compiled code of a
# stdlib module, like the imports of start-up (see "Noise" in
# bench/README.md).  Times are reported rescaled to the speed at which each
# probe's work takes its PROBE_REF_S, about what it took on the host where
# the benchmark was written in its faster state.
PROBE_PERIOD_S = 0.04
PROBE_REF_S = {"compute": 1.0e-3, "import": 0.7e-3}
with open(argparse.__file__) as _fh:
    _IMPORT_BLOB = marshal.dumps(compile(_fh.read(), argparse.__file__,
                                         "exec"))


def _probe_compute() -> None:
    table: Dict[tuple, int] = {}
    for i in range(3000):
        key = (i & 63, (i >> 6) & 3)
        table[key] = table.get(key, 0) + i * 3 % 7


def _probe_import() -> None:
    marshal.loads(_IMPORT_BLOB)


PROBES = {"compute": _probe_compute, "import": _probe_import}


class SpeedProbe:
    """Samples the host's speed on a thread until stopped."""

    def __init__(self):
        self.samples: Dict[str, List[float]] = {k: [] for k in PROBES}
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while True:
            for kind, work in PROBES.items():
                start = time.thread_time()
                work()
                self.samples[kind].append(time.thread_time() - start)
            if self._stop.wait(PROBE_PERIOD_S):
                return

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def scales(self) -> Dict[str, float]:
        """Per kind, the factor that rescales a time measured meanwhile to
        the reference speed: below 1 when the host ran slow."""
        return {kind: PROBE_REF_S[kind] / statistics.mean(v)
                for kind, v in self.samples.items()}


class Proc(NamedTuple):
    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    scales: Dict[str, float]   # host-speed factors while the child ran

    def scale(self, kind: str) -> float:
        """`compute` for the program's work.  `startup` for start-up, which
        both unmarshals code and runs module bodies in the interpreter: the
        geometric mean of the two probes' factors."""
        if kind == "startup":
            return math.sqrt(self.scales["compute"] * self.scales["import"])
        return self.scales[kind]

    def scaled_s(self, kind: str) -> float:
        return self.wall_s * self.scale(kind)


class Outcome(NamedTuple):
    op: str
    proc: Proc
    failure: Optional[str] = None   # the operation failed
    wrong: Optional[str] = None     # it ran, but its output is not correct
    info: Optional[dict] = None     # how far the output is from its checks
    spans: Optional[str] = None     # span file of a traced operation


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    return env


def run_process(argv: List[str], env: Dict[str, str]) -> Proc:
    """Run one invocation to its end; wall time, peak RSS and host speed."""
    out_path = os.path.join(WORK, "op.stdout")
    err_path = os.path.join(WORK, "op.stderr")
    with open(out_path, "w+b") as out, open(err_path, "w+b") as err:
        with SpeedProbe() as probe:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env,
                                    cwd=ROOT)
            timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Proc(proc.returncode, wall, usage.ru_maxrss / 1024.0,
                    out.read().decode(errors="replace"),
                    err.read().decode(errors="replace"), probe.scales())


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


def _exit_failure(op: str, proc: Proc) -> str:
    return f"{op}: exit {proc.code}: {_last_line(proc.stderr)[:200]}"


# ---------------------------------------------------------------------------
# Operations and their checks


class Bench:
    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self.env = child_env()
        self.inputs_dir = os.path.join(WORK, "inputs")
        self.paths: Dict[str, str] = {}
        self.specs: Dict[str, dict] = {}
        self.op_id = 0

    def python(self, *args: str) -> List[str]:
        return [sys.executable, *args]

    def cli(self, *args: str) -> List[str]:
        return self.python("-m", "grosslap.cli", *args)

    def setup(self) -> tuple:
        """Write the inputs and make one untimed warm-up invocation; the
        set-up time, raw and rescaled by the host speed measured during the
        warm-up."""
        start = time.perf_counter()
        self.paths = inputs.write_inputs(self.seed, self.inputs_dir)
        warm = run_process(self.cli("--help"), self.env)
        if warm.code != 0:
            raise RuntimeError(_exit_failure("warm-up --help", warm))
        raw = time.perf_counter() - start
        return raw, raw * warm.scale("startup")

    def load_specs(self) -> None:
        for name, path in self.paths.items():
            with open(path) as fh:
                self.specs[name] = json.load(fh)

    # -- main operations ---------------------------------------------------

    def main_op(self) -> tuple:
        """Arguments after the interpreter, output check, output file."""
        if self.workload == "heat":
            out = os.path.join(WORK, "heat.out.json")
            return (["-m", "grosslap.cli", "solve", "--in", self.paths["heat"],
                     "--method", "both", "--out", out],
                    lambda proc: self.check_heat(out), out)
        if self.workload == "driven":
            out = os.path.join(WORK, "driven.out.json")
            return (["-m", "grosslap.cli", "solve", "--in",
                     self.paths["driven"], "--out", out],
                    lambda proc: self.check_driven(out), out)
        return ([os.path.join(HERE, "verify_op.py"), "--seed",
                 str(VERIFY_SEED)], self.check_verify, None)

    def run_main(self, traced: bool) -> Outcome:
        args, check, out = self.main_op()
        name = f"{self.workload}{'-traced' if traced else ''}"
        spans = None
        if traced:
            self.op_id += 1
            spans = os.path.join(WORK, f"spans-{self.op_id}.json")
            args = [os.path.join(HERE, "tracing.py"), "--spans", spans,
                    "--op-id", str(self.op_id), "--"] + args
        for path in (out, spans):
            if path and os.path.exists(path):
                os.remove(path)
        proc = run_process(self.python(*args), self.env)
        if proc.code != 0 and not (self.workload == "verify"
                                   and proc.code == 1):
            return Outcome(name, proc, failure=_exit_failure(name, proc),
                           spans=spans)
        failure, wrong, info = check(proc)
        return Outcome(name, proc, failure, wrong, info, spans)

    def _read_report(self, path: str) -> Optional[dict]:
        try:
            with open(path) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    # Each check returns (failure, wrong, how far the output is off).

    def check_heat(self, out: str) -> tuple:
        report = self._read_report(out)
        if report is None:
            return "heat: no readable report", None, None
        spec = self.specs["heat"]
        if report.get("times") != spec["times"]:
            return None, f"heat: times {report.get('times')}", None
        checks = report.get("checks", {})
        info = {"reference_error": max(references.heat_errors(
                    spec, report["kernels"])),
                "gaussian_gap": checks.get("gaussian_gap", float("nan")),
                "residual_max": checks.get("residual_max", float("nan"))}
        if not info["reference_error"] <= HEAT_REF_TOL:
            return None, f"heat: {info['reference_error']:.3g} from the " \
                         "heat semigroup", info
        if not info["gaussian_gap"] <= GAUSSIAN_GAP_TOL:
            return None, f"heat: gaussian_gap {info['gaussian_gap']!r}", info
        if not info["residual_max"] <= RESIDUAL_TOL:
            return None, f"heat: residual_max {info['residual_max']!r}", info
        return None, None, info

    def check_driven(self, out: str) -> tuple:
        report = self._read_report(out)
        if report is None:
            return "driven: no readable report", None, None
        spec = self.specs["driven"]
        if report.get("times") != spec["times"]:
            return None, f"driven: times {report.get('times')}", None
        err = max(references.driven_errors(spec, report["kernels"]))
        info = {"reference_error": err}
        if not err <= DRIVEN_REF_TOL:
            return None, f"driven: {err:.3g} from the ring exponential", info
        return None, None, info

    def check_verify(self, proc: Proc) -> tuple:
        try:
            report = json.loads(_last_line(proc.stdout))
        except ValueError:
            return _exit_failure("verify", proc), None, None
        suites = tuple(c["suite"] for c in report["checks"])
        if suites != SUITES:
            return None, f"verify: suites {suites}", None
        info = {c["suite"]: c["max_error"] for c in report["checks"]}
        failed = [c["suite"] for c in report["checks"] if not c["passed"]]
        if failed:
            return None, f"verify: suites failed: {failed}", info
        return None, None, info

    # -- start-up and fault probes ------------------------------------------

    def help_op(self) -> Outcome:
        proc = run_process(self.cli("--help"), self.env)
        if proc.code != 0:
            return Outcome("help", proc, failure=_exit_failure("help", proc))
        listed = proc.stdout.split("Commands:")[-1].split()
        missing = [c for c in COMMANDS if c not in listed]
        return Outcome("help", proc,
                       wrong=f"help: missing {missing}" if missing else None)

    def probe_f1(self) -> Outcome:
        """F1: the full verify report must be written (a NumPy bool breaks it)."""
        proc = run_process(self.cli("verify", "--suite",
                                    "heat-oracle-triangle"), self.env)
        try:
            passed = json.loads(proc.stdout)["passed"] is True
        except (ValueError, KeyError, TypeError):
            passed = False
        if proc.code == 0 and passed:
            return Outcome("F1", proc)
        return Outcome("F1", proc, failure=_exit_failure("F1", proc))

    def probe_f2(self) -> Outcome:
        """F2: a NaN coefficient in solver input must be rejected with exit 2."""
        proc = run_process(self.cli("solve", "--in", self.paths["nan"]),
                           self.env)
        if proc.code == 2:
            return Outcome("F2", proc)
        return Outcome("F2", proc,
                       failure=f"F2: exit {proc.code} on a NaN input, not 2")


# ---------------------------------------------------------------------------
# Runs


def load_layer_metrics() -> List[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["per_layer"]


def round_ops(bench: Bench, trace: bool) -> List[Callable[[], Outcome]]:
    """One round: the main operation with start-up samples on either side,
    or, traced, one start-up sample and the main operation untraced and then
    traced.  `verify` rounds end with the two fault probes, so failed
    operations are the same share of every run."""
    if trace:
        ops = [bench.help_op, lambda: bench.run_main(False),
               lambda: bench.run_main(True)]
    else:
        ops = [bench.help_op, lambda: bench.run_main(False), bench.help_op]
    if bench.workload == "verify":
        ops += [bench.probe_f1, bench.probe_f2]
    return ops


def run(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    start = time.perf_counter()
    os.makedirs(WORK, exist_ok=True)
    bench = Bench(workload, seed)
    setups = [bench.setup() for _ in range(SETUP_REPEATS)]
    bench.load_specs()
    wrong = [f"reference self-check: {f}" for f in references.self_check()]

    outcomes: List[Outcome] = []
    begin = time.perf_counter()
    rounds: List[float] = []
    while True:
        round_start = time.perf_counter()
        outcomes += [op() for op in round_ops(bench, trace)]
        now = time.perf_counter()
        rounds.append(now - round_start)
        # Stop at the round boundary nearest to `seconds`: the next round
        # starts only if it is expected to end less than half a round past
        # it.  So a run lasts about `seconds` however long its rounds are.
        if now - begin + statistics.mean(rounds) / 2 >= seconds or \
                now + max(rounds) - start > RUN_LIMIT_S:
            break

    wrong += [o.wrong for o in outcomes if o.wrong]
    failures = [o.failure for o in outcomes if o.failure]
    main_ops = [o for o in outcomes if o.op == workload and not o.failure]
    if not main_ops:
        wrong.append(f"no {workload} operation succeeded")
    if trace:
        metrics = layer_metrics(main_ops, outcomes, wrong)
    else:
        startup = [o for o in outcomes if o.op == "help" and not o.failure]
        metrics = {
            "wall_s": (_median(o.proc.scaled_s("compute")
                                for o in main_ops), "s"),
            "startup_s": (_median(o.proc.scaled_s("startup")
                                   for o in startup), "s"),
            "peak_rss_mb": (_median(o.proc.rss_mb for o in main_ops), "MB"),
            "setup_s": (statistics.median(s for _, s in setups), "s"),
        }
    raw = {"wall_s": _median(o.proc.wall_s for o in main_ops),
           "startup_s": _median(o.proc.wall_s for o in outcomes
                                if o.op == "help" and not o.failure),
           "setup_s": statistics.median(s for s, _ in setups)}
    detail = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "raw": raw, "setup_s": [s for s, _ in setups],
              "setup_scaled_s": [s for _, s in setups],
              "wrong": wrong, "failures": failures,
              "ops": [{"op": o.op, "code": o.proc.code,
                       "wall_s": o.proc.wall_s, "scales": o.proc.scales,
                       "rss_mb": o.proc.rss_mb, "checks": o.info}
                      for o in outcomes]}
    return {"correct": not wrong, "attempted": len(outcomes),
            "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()},
            "detail": detail}


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def layer_metrics(main_ops: List[Outcome], outcomes: List[Outcome],
                  wrong: List[str]) -> Dict[str, tuple]:
    """Median over the run's traced operations of each per-layer metric."""
    stats = []
    for outcome in outcomes:
        if not outcome.spans or outcome.failure:
            continue
        with open(outcome.spans) as fh:
            s = tracing.layer_stats(json.load(fh))
        if s["self_sum_s"] > outcome.proc.wall_s:
            wrong.append(f"trace: self times {s['self_sum_s']:.3f} s exceed "
                         f"the traced wall time {outcome.proc.wall_s:.3f} s")
        s["trace.traced_wall_s"] = outcome.proc.scaled_s("compute")
        stats.append(s)
    if not stats:
        wrong.append("no traced operation succeeded")
        return {m["name"]: (0, m["unit"]) for m in load_layer_metrics()}
    untraced = _median(o.proc.scaled_s("compute") for o in main_ops)
    metrics = {}
    for m in load_layer_metrics():
        value = _median(s.get(m["name"], 0) for s in stats)
        if m["name"] == "trace.overhead_s":
            value = _median(s["trace.traced_wall_s"] for s in stats) - untraced
        if m["unit"] == "count":
            value = int(round(value))
        metrics[m["name"]] = (value, m["unit"])
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("heat", "driven", "verify"),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # One core for this process and every child: the host's speed differs
    # between cores and over time, and the probe must see the core the
    # program runs on.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    if not os.path.isfile(os.path.join(SRC, "grosslap", "cli.py")):
        sys.exit(f"no program to benchmark: {SRC}/grosslap/cli.py is missing")

    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    detail = result.pop("detail")
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(dict(result, detail=detail), fh, indent=1)
    for key, m in result["metrics"].items():
        print(f"{key:48s} {m['value']:14.6g} {m['unit']}")
    for key, value in detail["raw"].items():
        print(f"{'raw ' + key:48s} {value:14.6g} s (not rescaled)")
    for line in detail["failures"]:
        print(f"FAILED {line}")
    for line in detail["wrong"]:
        print(f"WRONG {line}")
    print(f"attempted {result['attempted']}, failed {result['failed']}, "
          f"correct {result['correct']}")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
