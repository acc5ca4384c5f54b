"""Closed-form solver for linear kernel evolution equations, and its oracles.

The closed form steps exactly over the pieces where the driving process and
the source are constant, integrating the source term with the phi-functions
of exponential integrators.  Two independent oracles check it: the same exact
step for the scalar symbol ODE on a torus grid, compared with the closed-form
kernels' symbols there, and (for the heat flow on function-convention
kernels) exact Gaussian-moment smoothing.

A propagator, being a distribution, can act on the kernel two ways and both
appear in the theory: "distribution" convolves kernels as distributions, so
symbols multiply along the flow; "function" lets the propagator act on the
kernel read as a test function, which for the heat flow is exactly Gaussian
smoothing of the kernel polynomial.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    RoleError,
    _check_compatible,
    coefficient_polynomials,
    delta0,
    key_codes,
    key_rows,
    multiplicities,
    nan_max,
    sum_by_code,
)
from .gross import convolve_dist_dist, convolve_dist_test, trace_distribution
from .quantum_op import require_operator

ACTION_FUNCTION = "function"
ACTION_DISTRIBUTION = "distribution"


# ---------------------------------------------------------------------------
# Gaussian moments


def _shifted_gauss_moment(a: complex, t: float, k: int) -> complex:
    """E[(a + sqrt(t) X)^k] for standard Gaussian X."""
    total = 0j
    for j in range(0, k + 1, 2):
        total += (math.comb(k, j) * a ** (k - j)
                  * t ** (j // 2) * math.prod(range(j - 1, 0, -2)))
    return total


# ---------------------------------------------------------------------------
# Convolution exponential


def conv_exp(Phi: Expansion2) -> Expansion2:
    """e^{*Phi}: the distribution whose Laplace transform is exp of Phi's.

    The constant term exponentiates to a scalar factor; the remainder has
    positive minimal degree, so its convolution powers terminate at the
    cutoffs and the series is finite.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("conv_exp needs a distribution")
    c0, N = _split_constant(Phi)
    return _power_series(N, _exp_weights(c0, Phi.cutoff1 + Phi.cutoff2))[0]


def _exp_weights(c0: complex, kmax: int) -> List[complex]:
    """e^{c0} / j! for j = 0 .. kmax: e^{*Phi} on the powers of
    N = Phi - c0 delta_0, whose powers past kmax vanish."""
    e0 = np.exp(c0)
    return [e0 / math.factorial(j) for j in range(kmax + 1)]


def _step_propagators(Z: Expansion2,
                      h: float) -> Tuple[Expansion2, Expansion2]:
    """e^{*hZ} and the integral of e^{*uZ} over u in [0, h], in closed form.

    With hZ = c0 delta_0 + M, both are series in the powers of M, taken
    once: e^{*hZ} weighs M^{*j} by e^{c0}/j!, and the integral by
    int_0^h (u/h)^j e^{u c0/h} du / j! = h e^{c0} phi_{j+1}(-c0).
    """
    c0, M = _split_constant(Z.scale(h))
    kmax = Z.cutoff1 + Z.cutoff2
    dd = _exp_divided_differences(c0, kmax + 1)
    return tuple(_power_series(M, _exp_weights(c0, kmax), h * dd))


def _exp_divided_differences(z: complex, k: int) -> np.ndarray:
    """e^z phi_j(-z) for j = 1..k, the divided differences exp[0, z, .., z].

    They are f_j = int_0^1 e^{zu} u^{j-1}/(j-1)! du; integrating by parts
    gives f_1 = (e^z - 1) / z and f_j = (e^z/(j-1)! - f_{j-1}) / z.  For
    |z| >= k that recurrence is used, as each step divides the error it
    carries by |z|.  Below, the f_j follow 1 in the first row of exp(A), A
    the (k+1)x(k+1) bidiagonal matrix with 0, z, .., z on the diagonal and
    ones above it, by scaling and squaring (Higham, 2005): A / 2^s has
    1-norm at most 1/2, and entry (0, j) of (A / 2^s)^m is
    2^{-sj} C(m-1, j-1) (z / 2^s)^{m-j}, so after j + q Taylor terms that
    entry's tail is below 2^{-q}/q! of its leading term, and k + 17 terms
    give every entry to rounding.  (The squarings lose relative accuracy
    in the small f_j once |z| is large off the real axis, which is why the
    recurrence takes over.)  Each f_j is formed in one piece, so a strongly
    decaying z cannot give 0 * inf, and there is no cancellation at small z.
    """
    if abs(z) >= k:
        out = np.empty(k, dtype=complex)
        term = np.exp(z)
        out[0] = (term - 1) / z
        for j in range(1, k):
            term /= j
            out[j] = (term - out[j - 1]) / z
        return out
    A = np.diag(np.full(k + 1, z, dtype=complex)) + np.diag(np.ones(k), 1)
    A[0, 0] = 0
    s = math.ceil(math.log2(2 * (1 + abs(z))))
    A /= 2.0 ** s
    term = E = np.eye(k + 1, dtype=complex)
    for m in range(1, k + 18):
        term = term @ A / m
        E = E + term
    for _ in range(s):
        E = E @ E
    return E[0, 1:]


def _split_constant(Phi: Expansion2) -> Tuple[complex, Expansion2]:
    """(c0, N) with Phi = c0 delta_0 + N.

    The zero key has code 0, so it is the first term when present.
    """
    if len(Phi.codes) and Phi.codes[0] == 0:
        return complex(Phi.values[0]), Phi.take(slice(1, None))
    return 0j, Phi


def _power_series(N: Expansion2,
                  *weights: Sequence[complex]) -> List[Expansion2]:
    """sum_j w[j] N^{*j} for each weight list w, N without a constant term,
    from one chain of powers of N.

    N has positive minimal degree, so N^{*j} vanishes once j exceeds
    cutoff1 + cutoff2 and each series is exact with that many weights: one
    `sum_by_code` over the weighted powers, in increasing j.
    """
    powers = [delta0(N.dim1, N.dim2, N.cutoff1, N.cutoff2)]
    while len(powers) < len(weights[0]) and len(powers[-1].codes):
        powers.append(convolve_dist_dist(powers[-1], N))
    codes = np.concatenate([p.codes for p in powers])
    return [powers[0].with_terms(sum_by_code(codes, np.concatenate(
        [c * p.values for p, c in zip(powers, w)]))) for w in weights]


# ---------------------------------------------------------------------------
# Piecewise-constant operator processes


@dataclass(frozen=True)
class ProcessSpec:
    """Piecewise-constant operator-valued process on a time grid.

    grid has one more point than kernels; kernels[i], an operator kernel
    (a distribution `Expansion2`), is the value on [grid[i], grid[i+1]).
    Continuous processes must be pre-sampled.
    """

    grid: Tuple[float, ...]
    kernels: Tuple[Expansion2, ...]

    def __post_init__(self):
        for k in self.kernels:
            require_operator(k)
        if len(self.grid) < 2 or len(self.kernels) != len(self.grid) - 1:
            raise ValueError("grid needs len(kernels) + 1 points")
        if self.grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if not all(b > a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")

    @property
    def end(self) -> float:
        return self.grid[-1]

    def is_zero(self) -> bool:
        return all(not len(k.codes) for k in self.kernels)

    @staticmethod
    def constant(kernel: Expansion2, t_end: float) -> "ProcessSpec":
        return ProcessSpec((0.0, float(t_end)), (kernel,))


def zero_process(dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                 t_end: float) -> ProcessSpec:
    empty = Expansion2(dim1, dim2, cutoff1, cutoff2, {}, role=DISTRIBUTION)
    return ProcessSpec.constant(empty, t_end)


# ---------------------------------------------------------------------------
# Closed-form solver


@dataclass(frozen=True)
class EvolutionSolution:
    """Per-time kernels, distributions of the initial kernel's shape, plus
    provenance and cross-check metadata."""

    times: Tuple[float, ...]
    kernels: Tuple[Expansion2, ...]
    method: str
    action: str = ACTION_FUNCTION
    checks: Dict[str, float] = field(default_factory=dict)


def apply_propagator(G: Expansion2, K: Expansion2, action: str) -> Expansion2:
    """Act with a propagator distribution on a kernel, either convention."""
    if action == ACTION_DISTRIBUTION:
        return convolve_dist_dist(G, K)
    if action == ACTION_FUNCTION:
        out = convolve_dist_test(G, K.with_role(TEST))
        return out.with_role(DISTRIBUTION)
    raise ValueError(f"unknown action {action!r}")


def _segments(Z: ProcessSpec, Theta: ProcessSpec,
              times: Sequence[float]) -> List[Tuple[float, float, int, int]]:
    """Check the times, then cut [0, max t] at them and at the grid points.

    Each piece [a, b] comes as (a, b, i, j) with Z.kernels[i] and
    Theta.kernels[j] its values, read at the midpoint so an endpoint never
    picks the next interval.
    """
    limit = min(Z.end, Theta.end) + 1e-12
    bad = [t for t in times if not 0.0 <= t <= limit]
    if bad:
        raise ValueError(f"requested times {bad} outside the process grids")
    t_max = max(times, default=0.0)
    marks = sorted({0.0, *(float(t) for t in times),
                    *(g for g in Z.grid + Theta.grid if 0.0 < g < t_max)})
    pieces = []
    for a, b in zip(marks, marks[1:]):
        mid = (a + b) / 2
        pieces.append((a, b, _piece_index(Z, mid), _piece_index(Theta, mid)))
    return pieces


def _piece_index(P: ProcessSpec, s: float) -> int:
    return min(bisect_right(P.grid, s) - 1, len(P.kernels) - 1)


def solve_qsde(Z: ProcessSpec, Theta: ProcessSpec, xi0: Expansion2,
               times: Sequence[float],
               action: str = ACTION_FUNCTION) -> EvolutionSolution:
    """Closed-form solution of d Xi/dt = Z(t) * Xi(t) + Theta(t).

    On each piece of `_segments`, of length h, the exact step is
    Xi <- e^{*hZ} Xi + (int_0^h e^{*uZ} du) Theta, both propagators from
    `_step_propagators` when there is a source.  The steps compose, as
    e^{*(A+B)} = e^{*A} * e^{*B} in the truncated ring and both propagator
    actions (selected by ``action``) are actions of that ring.  Steps with
    the same Z piece, Theta piece and length h (compared exactly) share
    their propagators, built on the first of them.
    """
    return _solve_qsde(Z, Theta, xi0, times, action, {})


def _solve_qsde(Z: ProcessSpec, Theta: ProcessSpec, xi0: Expansion2,
                times: Sequence[float], action: str,
                propagators: dict) -> EvolutionSolution:
    """`solve_qsde`, taking each step's propagators from ``propagators``,
    keyed by (Z piece, Theta piece, h), and adding those it builds.  No key
    depends on the action, so solves of one problem under both actions can
    share the dict."""
    _check_processes(Z, Theta, xi0)
    state = xi0
    states = {0.0: state}
    for a, b, i, j in _segments(Z, Theta, times):
        h = b - a
        gen, source = Z.kernels[i], Theta.kernels[j]
        if (i, j, h) not in propagators:
            propagators[i, j, h] = (_step_propagators(gen, h)
                                    if len(source.codes) else
                                    (conv_exp(gen.scale(h)), None))
        propagator, integral = propagators[i, j, h]
        state = apply_propagator(propagator, state, action)
        if integral is not None:
            state = state.add(apply_propagator(integral, source, action))
        states[b] = state
    return EvolutionSolution(tuple(float(t) for t in times),
                             tuple(states[float(t)] for t in times),
                             method="closed_form", action=action)


def _check_processes(Z: ProcessSpec, Theta: ProcessSpec,
                     xi0: Expansion2) -> None:
    """The initial kernel is an operator kernel, and every process kernel
    has its dims and cutoffs."""
    require_operator(xi0)
    for k in (*Z.kernels, *Theta.kernels):
        _check_compatible(k, xi0)


# ---------------------------------------------------------------------------
# Symbol-ODE oracle


# Radius of the torus on which symbols are sampled.  A power of two, so the
# scaling of a coefficient by r^|gamma| is exact.
SYMBOL_RADIUS = 0.125


@functools.lru_cache(maxsize=16)
def _torus(dim1: int, dim2: int, cutoff1: int, cutoff2: int):
    """The symbol grid of one kernel shape, read-only and cached: `solve`
    with method "both" takes it for the symbol ODE and for `symbol_gap`.

    cutoff + 1 points per coordinate, equispaced on the circle of radius
    SYMBOL_RADIUS, so the monomial of exponent gamma = alpha + beta is one
    DFT bin.  The grid is the box of the expansions' codes, so a key's flat
    bin is its code.  Returns the grid's shape, its points in C order (one
    row of coordinates each), and per bin the factor from coefficient to
    bin, mult(alpha) mult(beta) r^|gamma| (zero off the keys).
    """
    shape = (cutoff1 + 1,) * dim1 + (cutoff2 + 1,) * dim2
    exponents = np.indices(shape).reshape(len(shape), -1).T
    points = SYMBOL_RADIUS * np.exp(2j * np.pi * exponents / np.array(shape))
    keys = key_rows(dim1, dim2, cutoff1, cutoff2)
    bins = key_codes(keys, dim1, dim2, cutoff1, cutoff2)
    scale = np.zeros(len(points))
    scale[bins] = multiplicities(keys, dim1)[1].astype(float)
    scale[bins] *= SYMBOL_RADIUS ** keys.sum(axis=1)
    for array in (points, scale):
        array.flags.writeable = False
    return shape, points, scale


def torus_symbols(phis: Sequence[Expansion2]):
    """The grid of expansions of one shape and their symbols on it.

    Returns the grid, as `_torus` gives it (its points are the second
    item), and the (points, len(phis)) values.  The value
    at grid index k is sum_gamma P_gamma e^{2 pi i gamma.k / (cutoff + 1)},
    with P_gamma = mult c r^|gamma|: G ifftn(P) over the G points.
    """
    ref = phis[0]
    torus = _torus(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2)
    shape, points, scale = torus
    P = np.zeros((len(phis), len(points)), dtype=complex)
    for row, phi in zip(P, phis):
        row[phi.codes] = phi.values * scale[phi.codes]
    axes = tuple(range(1, len(shape) + 1))
    values = np.fft.ifftn(P.reshape((len(phis), *shape)), axes=axes)
    return torus, len(points) * values.reshape(P.shape).T


def solve_symbol_ode(Z: ProcessSpec, Theta: ProcessSpec, xi0: Expansion2,
                     times: Sequence[float]) -> np.ndarray:
    """The scalar symbol ODE solved exactly on the symbol grid.

    d sigma/dt = sigma(Z) sigma + sigma(Theta) holds pointwise for the
    distribution-action flow; solving it on the grid of `torus_symbols`,
    exactly on each piece of `_segments`, gives an oracle independent of
    the convolution calculus.  Returns the read-only (times, points) symbol
    values, the points in the order of `_torus`.
    """
    _check_processes(Z, Theta, xi0)
    # Every kernel's symbol on the grid: one column for xi0, then one per
    # piece of Z and Theta.
    _, symbols = torus_symbols([xi0, *Z.kernels, *Theta.kernels])
    sig_Z = symbols[:, 1:1 + len(Z.kernels)]
    sig_T = symbols[:, 1 + len(Z.kernels):]
    sigma = symbols[:, 0]
    states = {0.0: sigma}
    for a, b, i, j in _segments(Z, Theta, times):
        h = b - a
        rate = sig_Z[:, i]
        z = h * rate
        # h phi_1(z) = expm1(z)/a, which is h where z = 0.
        gain = np.full_like(z, h)
        np.divide(np.expm1(z), rate, out=gain, where=z != 0)
        sigma = np.exp(z) * sigma + gain * sig_T[:, j]
        states[b] = sigma

    values = np.array([states[float(t)] for t in times],
                      dtype=complex).reshape(len(times), len(symbols))
    values.flags.writeable = False
    return values


def symbol_gap(closed: EvolutionSolution, values: np.ndarray) -> float:
    """Largest |sigma(closed kernel) - symbol value| over points and times.

    `closed` holds distribution-action kernels at the times of `values`,
    the (times, points) output of `solve_symbol_ode` for their shape; each
    kernel's symbol is taken on the same grid.  This gap is what `solve`
    reports as residual_max.  A NaN anywhere makes it NaN.
    """
    if not closed.kernels:
        return 0.0
    _, symbols = torus_symbols(closed.kernels)
    return float(np.max(np.abs(symbols - values.T), initial=0.0))


# ---------------------------------------------------------------------------
# Heat equation


def half_trace_process(dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                       t_end: float) -> ProcessSpec:
    T = trace_distribution(dim1, dim2, cutoff1, cutoff2)
    return ProcessSpec.constant(T.scale(0.5), t_end)


# ---------------------------------------------------------------------------
# Solver entry point

METHODS = ("closed_form", "both")
ACTIONS = (ACTION_FUNCTION, ACTION_DISTRIBUTION)

# Random points per time at which a source-free function-action heat solve
# is compared with the Gaussian-moment oracle.
GAUSSIAN_CHECK_POINTS = 5


def solve(xi0: Expansion2, times: Sequence[float],
          Z: Optional[ProcessSpec] = None,
          Theta: Optional[ProcessSpec] = None,
          action: str = ACTION_FUNCTION, method: str = "closed_form",
          seed: int = 42) -> EvolutionSolution:
    """Solve d Xi/dt = Z * Xi + Theta and check it against the oracles.

    xi0 is the initial operator kernel, a distribution `Expansion2`
    (`RoleError` otherwise); the solution holds one kernel of its shape per
    time.  Z defaults to the heat flow, half the trace distribution, and
    Theta to zero.  Every method runs `solve_qsde` under ``action``;
    "both" also solves the symbol ODE and reports as residual_max the
    `symbol_gap` of the distribution-action closed form (solved a second
    time under the function action, with the first pass's propagators).
    A heat flow with a zero source under the function action reports
    gaussian_gap, its largest distance from Gaussian-moment smoothing at
    GAUSSIAN_CHECK_POINTS points per time drawn with `random.Random(seed)`;
    ``seed`` must be >= 0.  The solution's method and action are the ones
    asked for.
    """
    for name, value, allowed in (("method", method, METHODS),
                                 ("action", action, ACTIONS)):
        if value not in allowed:
            raise ValueError(f"{name} must be one of "
                             f"{', '.join(allowed)}, not {value!r}")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, not {seed}")
    shape = (xi0.dim1, xi0.dim2, xi0.cutoff1, xi0.cutoff2)
    t_end = max([float(t) for t in times] + [1e-9])
    heat = Z is None
    if heat:
        Z = half_trace_process(*shape, t_end)
    if Theta is None:
        Theta = zero_process(*shape, max(t_end, Z.end))
    checks = {}
    propagators = {}
    sol = _solve_qsde(Z, Theta, xi0, times, action, propagators)
    if heat and Theta.is_zero() and action == ACTION_FUNCTION:
        checks["gaussian_gap"] = _gaussian_gap(xi0, sol, seed)
    if method == "both":
        closed = (sol if action == ACTION_DISTRIBUTION else
                  _solve_qsde(Z, Theta, xi0, times, ACTION_DISTRIBUTION,
                              propagators))
        checks["residual_max"] = symbol_gap(
            closed, solve_symbol_ode(Z, Theta, xi0, times))
    return replace(sol, method=method, checks=checks)


def _gaussian_gap(xi0: Expansion2, sol: EvolutionSolution,
                  seed: int) -> float:
    """Largest |kernel - Gaussian smoothing of xi0| over random points.

    The points' coordinates are 2 random() - 1 from the standard library's
    `random.Random(seed)`, seed >= 0, whose random() stream Python keeps
    fixed across versions; they are drawn per time, per point, per
    coordinate.
    """
    rng = random.Random(seed)
    gap = 0.0
    for t, kern in zip(sol.times, sol.kernels):
        x = np.array([[2 * rng.random() - 1
                       for _ in range(xi0.dim1 + xi0.dim2)]
                      for _ in range(GAUSSIAN_CHECK_POINTS)])
        direct = coefficient_polynomials([kern], x)[:, 0]
        oracle = gaussian_heat_kernel(xi0, t, x)
        gap = nan_max(gap, float(np.max(np.abs(direct - oracle))))
    return gap


def gaussian_heat_kernel(xi0: Expansion2, t: float, x) -> np.ndarray:
    """Gaussian-integral evaluation of the homogeneous heat solution kernel.

    Integrates the initial kernel polynomial shifted by sqrt(t) times a
    standard Gaussian, coordinate by coordinate, using exact moments.  x
    holds one row of z then t coordinates per point; returns one value per
    row.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[1] != xi0.dim1 + xi0.dim2:
        raise ValueError("evaluation points do not match kernel dims")
    base = xi0.multiplicities[1].astype(float) * xi0.values
    # Contiguous (points, terms) operands: a broadcast (terms,) row would
    # round the complex products differently.
    terms = np.repeat(base[None, :], len(x), axis=0)
    for coords, column in zip(x.T.tolist(), xi0.exponents.T):
        degree = column.max(initial=0)
        moments = np.array([[_shifted_gauss_moment(a, t, k)
                             for k in range(degree + 1)] for a in coords],
                           dtype=complex).reshape(len(x), degree + 1)
        terms = terms * moments[:, column]
    return terms.sum(axis=1)
