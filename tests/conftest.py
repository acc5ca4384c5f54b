import itertools
import os
from pathlib import Path

import numpy as np
import pytest

from grosslap.chaos import DISTRIBUTION
from grosslap.evolution import ACTIONS, METHODS, ProcessSpec
from grosslap.quantum_op import OperatorKernel

# The suites' seeded inputs serve the tests too, so a seed means the same
# data in both: one block of keep draws over the keys in code order, then
# the kept terms' real parts and imaginary parts.
from grosslap.verify import (  # noqa: F401
    _random_expansion as random_expansion,
    _random_sym_tensor as random_tensor,
    _rng_complex as rng_complex,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def src_env() -> dict:
    """The environment with this checkout's `src` first on the import path,
    for tests that run the program in a fresh interpreter."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return env


# Every combination `evolution.solve` decides on: heat flow or a given Z,
# with or without a source, each action and each method.
SOLVER_CASES = list(itertools.product((True, False), (False, True), ACTIONS,
                                      METHODS))


def solver_case(heat: bool, source: bool):
    """A small solver input (xi0, Z, Theta) at dims (1,1), cutoff 3; Z is
    None for the heat flow and Theta None without a source."""
    rng = np.random.default_rng([heat, source])

    def kernel(scale=1.0):
        return OperatorKernel(random_expansion(rng, 1, 1, 3, 3, 2, 2,
                                               DISTRIBUTION, scale=scale))

    Z = None if heat else ProcessSpec((0.0, 1.0), (kernel(0.2),))
    Theta = ProcessSpec((0.0, 1.0), (kernel(0.2),)) if source else None
    return kernel(), Z, Theta
