import contextlib
import io
import itertools
import os
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest

from grosslap.chaos import DISTRIBUTION
from grosslap.cli import main
from grosslap.evolution import ACTIONS, METHODS, ProcessSpec
from grosslap.gross import convolve_dist_test, trace_distribution

# The suites' seeded inputs serve the tests too, so a seed means the same
# data in both: one block of keep draws over the keys in code order, then
# the kept terms' real parts and imaginary parts.
from grosslap.verify import (  # noqa: F401
    _random_expansion as random_expansion,
    _random_sym_tensor as random_tensor,
    _rng_complex as rng_complex,
)


# The unit roundoff of double precision.
UNIT_ROUNDOFF = 2.0 ** -53


def iter_occupations(dim: int, degree: int):
    """All occupation vectors of given dim and total degree, in decreasing
    order: a recursive walk, independent of the library's tables."""
    if dim == 0:
        if degree == 0:
            yield ()
        return
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in iter_occupations(dim - 1, degree - first):
            yield (first,) + rest


def modulus(phi):
    """phi with each coefficient replaced by its modulus."""
    return phi.with_terms((phi.codes, np.abs(phi.values).astype(complex)))


def rounding_factor(phi, *lengths) -> int:
    """k such that k u M bounds the rounding, to first order in u, of a chain
    of products and evaluations on expansions of phi's shape, one with each
    summation length, where M is the sum of the moduli of the chain's exact
    terms (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
    2002, sections 3.1, 3.6 and 5.1).

    A term is a product of at most F = cutoff1 + cutoff2 + dim1 + dim2 + 4
    rounded factors: the powers of each coordinate by repeated
    multiplication (at most cutoff1 + cutoff2 in all), one factor per
    coordinate, the product of the two variables' monomials, a factorial
    divisor, a weight and a coefficient.  Each complex product or real
    scaling is rounded by at most sqrt(2) gamma_2 < 3u.  A sum or inner
    product of n complex terms errs by at most sqrt(2) gamma_2n < 3nu times
    the sum of the terms' moduli, in any order and whether or not a multiply
    fuses into an add: its real and imaginary parts are real inner products
    of length 2n.  A computation summing n terms thus contributes 3(F + n).
    """
    factors = phi.cutoff1 + phi.cutoff2 + phi.dim1 + phi.dim2 + 4
    return sum(3 * (factors + n) for n in lengths)


def gross_parts(phi):
    """The Gross Laplacian's part in each variable: phi contracted with the
    trace distribution's terms over that variable."""
    T = trace_distribution(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)
    first = T.exponents[:, :T.dim1].any(axis=1)
    return [convolve_dist_test(T.take(mask), phi) for mask in (first, ~first)]


class CliResult(NamedTuple):
    exit_code: int
    output: str


def run_cli(args) -> CliResult:
    """Run `grosslap` in this process on args: the code it exits with and
    its stdout and stderr merged in the order written."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        try:
            main(args)
        except SystemExit as exc:
            return CliResult(exc.code, out.getvalue())
    raise AssertionError(f"main({args!r}) returned instead of exiting")


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

# A method the solver once had, whose kernel reconstruction from the symbol
# grid was removed: it is refused like any unknown method.
REMOVED_METHOD = "symbol_ode"


def solver_case(heat: bool, source: bool):
    """A small solver input (xi0, Z, Theta) at dims (1,1), cutoff 3; Z is
    None for the heat flow and Theta None without a source."""
    rng = np.random.default_rng([heat, source])

    def kernel(scale=1.0):
        return random_expansion(rng, 1, 1, 3, 3, 2, 2, DISTRIBUTION,
                                scale=scale)

    Z = None if heat else ProcessSpec((0.0, 1.0), (kernel(0.2),))
    Theta = ProcessSpec((0.0, 1.0), (kernel(0.2),)) if source else None
    return kernel(), Z, Theta
