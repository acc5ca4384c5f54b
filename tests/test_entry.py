"""The program entry `grosslap.cli.run`: it runs `main` with the cyclic
collector off and freezes every object at exit, which is safe only because
the commands make no reference cycles.  `main` itself leaves the collector
alone, and `--help` and usage errors load no `json`."""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

from grosslap.chaos import DISTRIBUTION, Expansion2
from grosslap.quantum_op import kernel_to_json
from conftest import run_cli, src_env

ROOT = Path(__file__).resolve().parents[1]


def heat_input(path, count: int) -> str:
    """Write a heat-flow solver input with `count` equal steps to 1."""
    xi0 = Expansion2(1, 1, 8, 8, {((2,), (0,)): 1 + 0j}, role=DISTRIBUTION)
    times = [k / count for k in range(1, count + 1)]
    path.write_text(json.dumps({"xi0": kernel_to_json(xi0), "times": times}))
    return str(path)


def run_python(code: str, *args: str, flags=()) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *flags, "-c", code, *args],
                          env=src_env(), capture_output=True, text=True,
                          timeout=300)


# ---------------------------------------------------------------------------
# The entry


# Registered before the program runs, the checker runs after the program's
# own exit handlers and reports the collector's state as the interpreter
# shuts down.
ENTRY = "\n".join([
    "import atexit, gc, runpy, sys",
    "def check():",
    "    print('at exit:', gc.isenabled(), gc.get_freeze_count() > 0)",
    "atexit.register(check)",
    "sys.argv = ['grosslap', *sys.argv[1:]]",
    "runpy.run_module('grosslap.cli', run_name='__main__', alter_sys=True)",
])


@pytest.mark.parametrize("command, code", [
    ("help", 0), ("solve", 0), ("usage-error", 2)])
def test_program_runs_without_the_collector_and_freezes_at_exit(tmp_path,
                                                                command,
                                                                code):
    args = {"help": ["--help"],
            "solve": ["solve", "--in", heat_input(tmp_path / "heat.json", 4),
                      "--out", str(tmp_path / "out.json")],
            "usage-error": ["solve", "--bogus"]}[command]
    res = run_python(ENTRY, *args)
    assert res.returncode == code, res.stderr
    assert res.stdout.splitlines()[-1] == "at exit: False True"
    if command == "solve":
        assert json.loads((tmp_path / "out.json").read_text())["kernels"]


def test_main_leaves_the_collector_as_it_was(tmp_path):
    before = gc.isenabled(), gc.get_freeze_count()
    heat = heat_input(tmp_path / "heat.json", 4)
    for args in (["--help"], ["solve", "--bogus"],
                 ["solve", "--in", heat, "--out", str(tmp_path / "o.json")]):
        run_cli(args)
        assert (gc.isenabled(), gc.get_freeze_count()) == before, args


def test_console_script_names_the_entry():
    pyproject = ROOT / "pyproject.toml"
    assert 'grosslap = "grosslap.cli:run"' in pyproject.read_text()


# ---------------------------------------------------------------------------
# No cyclic garbage


# With the collector off from the start, the unreachable objects one
# collection finds after a command: the imports and the argument parser
# leave a fixed number, so a count that grows with the work is a reference
# cycle per unit of work.
GARBAGE = "\n".join([
    "import gc, json, sys",
    "gc.disable()",
    "import grosslap.cli",
    "try:",
    "    grosslap.cli.main(json.loads(sys.argv[1]))",
    "except SystemExit as exc:",
    "    print(exc.code, gc.collect())",
])


@pytest.mark.parametrize("method", ["closed_form", "both"])
def test_a_heat_solve_makes_no_cyclic_garbage(tmp_path, method):
    counts = []
    for count in (4, 40):
        args = ["solve", "--in", heat_input(tmp_path / "heat.json", count),
                "--method", method, "--out", str(tmp_path / "out.json")]
        res = run_python(GARBAGE, json.dumps(args))
        assert res.returncode == 0, res.stderr
        code, garbage = map(int, res.stdout.split())
        assert code == 0, res.stderr
        counts.append(garbage)
    assert counts[0] == counts[1]


# ---------------------------------------------------------------------------
# json stays unloaded on the usage paths


@pytest.mark.parametrize("args, code", [
    pytest.param(["--help"], 0, id="help"),
    pytest.param(["solve", "--help"], 0, id="solve-help"),
    pytest.param(["solve", "--bogus"], 2, id="usage-error"),
])
def test_help_and_usage_errors_load_no_json(args, code):
    # `-S` skips `site`, which may load json itself, and `src` is on the
    # path through PYTHONPATH; the driver reports with repr, not json.
    run = "\n".join([
        "import sys",
        "import grosslap.cli",
        "try:",
        "    grosslap.cli.main(sys.argv[1:])",
        "except SystemExit as exc:",
        "    print(repr((exc.code, 'json' in sys.modules)))",
    ])
    res = run_python(run, *args, flags=["-S"])
    assert res.returncode == 0, res.stderr
    assert res.stdout.splitlines()[-1] == repr((code, False))
