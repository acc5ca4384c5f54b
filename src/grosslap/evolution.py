"""Closed-form solver for linear kernel evolution equations, and its oracles.

The closed form is exact on each piece where the driving process and the
source are constant: there the driving kernel less its constant is
nilpotent, so the flow from the piece's start is a finite sum of its powers
acting on the state and the source, weighted by the exponential and the
phi-functions of exponential integrators.  The convolution exponential
e^{*Phi} is the one-piece case: the flow of the constant process Phi from
delta_0 to t = 1.  Two independent oracles check the closed form: the same
exact flow for the scalar symbol ODE on a torus grid, compared with the
closed-form kernels' symbols there, and (for the heat flow on
function-convention kernels) Gaussian smoothing, whose moments come from
one recurrence in each coordinate.

A distribution can act on the kernel two ways and both appear in the
theory: "distribution" convolves kernels as distributions, so symbols
multiply along the flow; "function" acts on the kernel read as a test
function, which for the heat flow is exactly Gaussian smoothing of the
kernel polynomial.
"""

from __future__ import annotations

import functools
import math
import random
from bisect import bisect_left, bisect_right
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
    key_table,
    nan_max,
    sum_by_code,
)
from .gross import convolve_dist_dist, convolve_dist_test, trace_distribution
from .quantum_op import require_operator

ACTION_FUNCTION = "function"
ACTION_DISTRIBUTION = "distribution"


# ---------------------------------------------------------------------------
# Closed-form pieces


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


def _powers(N: Expansion2, K: Expansion2, action: str) -> List[Expansion2]:
    """N^j . K for j = 0, 1, .., one `apply_propagator` each.  N has no
    constant term, so under either action N^j . K vanishes once j exceeds
    cutoff1 + cutoff2; the chain stops there or at a power with no terms.
    """
    powers = [K]
    while len(powers) <= N.cutoff1 + N.cutoff2 and len(powers[-1].codes):
        powers.append(apply_propagator(N, powers[-1], action))
    return powers


# ---------------------------------------------------------------------------
# Piecewise-constant operator processes


@dataclass(frozen=True)
class ProcessSpec:
    """Piecewise-constant operator-valued process on a time grid.

    grid has one more point than kernels; kernels[i], an operator kernel
    (a distribution `Expansion2`), is the value on [grid[i], grid[i+1]).
    Continuous processes must be pre-sampled.  Any sequences may be given;
    they are stored as tuples.
    """

    grid: Tuple[float, ...]
    kernels: Tuple[Expansion2, ...]

    def __post_init__(self):
        object.__setattr__(self, "grid", tuple(self.grid))
        object.__setattr__(self, "kernels", tuple(self.kernels))
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


def apply_propagator(N: Expansion2, K: Expansion2, action: str) -> Expansion2:
    """Act with a distribution N on a kernel K, either convention.

    Under the distribution action K is the left factor,
    `convolve_dist_dist(K, N)`, so each output sums in K's key order and
    `conv_exp` adds as the chain of pairwise products N^{*j} * N does.
    """
    if action == ACTION_DISTRIBUTION:
        return convolve_dist_dist(K, N)
    if action == ACTION_FUNCTION:
        out = convolve_dist_test(N, K.with_role(TEST))
        return out.with_role(DISTRIBUTION)
    raise ValueError(f"unknown action {action!r}")


def _segments(Z: ProcessSpec, Theta: ProcessSpec, times: Sequence[float]):
    """Check that each time is in [0, end] of both grids, then cut
    [0, max t] at the grid points.

    Each piece [a, b] comes as (a, i, j, ts): Z.kernels[i] and
    Theta.kernels[j] its values, read at the midpoint so an endpoint never
    picks the next interval, and ts the distinct times in (a, b) in order,
    then b (the last time, or where the next piece starts).
    """
    end = min(Z.end, Theta.end)
    bad = [t for t in times if not 0.0 <= t <= end]
    if bad:
        raise ValueError(f"requested times {bad} outside the process grids")
    ts = sorted({float(t) for t in times})
    t_max = ts[-1] if ts else 0.0
    marks = sorted({0.0, t_max,
                    *(g for g in Z.grid + Theta.grid if 0.0 < g < t_max)})
    return [(a, _piece_index(Z, (a + b) / 2), _piece_index(Theta, (a + b) / 2),
             [*ts[bisect_right(ts, a):bisect_left(ts, b)], b])
            for a, b in zip(marks, marks[1:])]


def _piece_index(P: ProcessSpec, s: float) -> int:
    return min(bisect_right(P.grid, s) - 1, len(P.kernels) - 1)


def solve_qsde(Z: ProcessSpec, Theta: ProcessSpec, xi0: Expansion2,
               times: Sequence[float],
               action: str = ACTION_FUNCTION) -> EvolutionSolution:
    """Closed-form solution of d Xi/dt = Z(t) . Xi(t) + Theta(t).

    On a piece [a, b] of `_segments`, Z = c0 delta_0 + N with N nilpotent
    in the truncated ring, so at t = a + h in the piece, exactly,
    Xi(t) = e^{h c0} sum_j h^j/j! N^j . Xi(a)
            + sum_j h^{j+1} e^{h c0} phi_{j+1}(-h c0) N^j . Theta,
    the second sum being int_0^h e^{*uZ} . Theta du.  Each piece builds
    the state basis N^j . Xi(a), and the source basis N^j . Theta when it
    has a source, once (`_powers`); each of its times is one `sum_by_code`
    over both bases' weighted terms, in order, so it adds as a chain of
    pairwise adds does, and no propagator is formed.  Either ``action`` is
    an action of the truncated ring, so the pieces compose.
    """
    _check_processes(Z, Theta, xi0)
    states = {0.0: xi0}
    for a, i, j, ts in _segments(Z, Theta, times):
        c0, N = _split_constant(Z.kernels[i])
        source = Theta.kernels[j]
        kmax = N.cutoff1 + N.cutoff2
        basis = _powers(N, states[a], action)
        sources = _powers(N, source, action) if len(source.codes) else []
        terms = basis + sources
        codes = np.concatenate([p.codes for p in terms])
        for t in ts:
            h = t - a
            e0 = np.exp(h * c0)
            weights = [e0 / math.factorial(n) * h ** n
                       for n in range(len(basis))]
            if sources:
                weights += [h ** (n + 1) * d for n, d in enumerate(
                    _exp_divided_differences(h * c0, kmax + 1))]
            states[t] = basis[0].with_terms(sum_by_code(codes, np.concatenate(
                [w * p.values for p, w in zip(terms, weights)])))
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


def conv_exp(Phi: Expansion2) -> Expansion2:
    """e^{*Phi}: the distribution whose Laplace transform is exp of Phi's.

    It is the flow of the constant process Phi from delta_0 to t = 1 under
    the distribution action, with no source: `solve_qsde` on one piece,
    whose sum of the convolution powers of N = Phi - c0 delta_0, weighted
    by e^{c0}/j!, is finite because those powers vanish past the cutoffs.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("conv_exp needs a distribution")
    shape = (Phi.dim1, Phi.dim2, Phi.cutoff1, Phi.cutoff2)
    return solve_qsde(ProcessSpec.constant(Phi, 1.0),
                      zero_process(*shape, 1.0), delta0(*shape), (1.0,),
                      ACTION_DISTRIBUTION).kernels[0]


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
    bins, keys, _, mult = key_table(dim1, dim2, cutoff1, cutoff2, cutoff1,
                                    cutoff2)
    scale = np.zeros(len(points))
    scale[bins] = mult.astype(float)
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
    exactly from the start of each piece of `_segments` to each of its
    times, gives an oracle independent of the convolution calculus.
    Returns the read-only (times, points) symbol values, the points in the
    order of `_torus`.
    """
    _check_processes(Z, Theta, xi0)
    # Every kernel's symbol on the grid: one column for xi0, then one per
    # piece of Z and Theta.
    _, symbols = torus_symbols([xi0, *Z.kernels, *Theta.kernels])
    sig_Z = symbols[:, 1:1 + len(Z.kernels)]
    sig_T = symbols[:, 1 + len(Z.kernels):]
    states = {0.0: symbols[:, 0]}
    for a, i, j, ts in _segments(Z, Theta, times):
        rate = sig_Z[:, i]
        for t in ts:
            h = t - a
            z = h * rate
            # h phi_1(z) = expm1(z)/a, which is h where z = 0.
            gain = np.full_like(z, h)
            np.divide(np.expm1(z), rate, out=gain, where=z != 0)
            states[t] = np.exp(z) * states[a] + gain * sig_T[:, j]

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
    `symbol_gap` of the distribution-action closed form (a second
    `solve_qsde` when ``action`` is the function action).
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
    sol = solve_qsde(Z, Theta, xi0, times, action)
    if heat and Theta.is_zero() and action == ACTION_FUNCTION:
        checks["gaussian_gap"] = _gaussian_gap(xi0, sol, seed)
    if method == "both":
        closed = (sol if action == ACTION_DISTRIBUTION else
                  solve_qsde(Z, Theta, xi0, times, ACTION_DISTRIBUTION))
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
    standard Gaussian X, coordinate by coordinate.  The moments
    m_k = E[(a + sqrt(t) X)^k] of each coordinate a, for all points at
    once, follow m_0 = 1, m_1 = a and, by Gaussian integration by parts,
    m_k = a m_{k-1} + (k - 1) t m_{k-2}.  x holds one row of z then t
    coordinates per point; returns one value per row.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    x = np.asarray(x, dtype=complex)
    if x.ndim != 2 or x.shape[1] != xi0.dim1 + xi0.dim2:
        raise ValueError("evaluation points do not match kernel dims")
    terms = xi0.multiplicities[1].astype(float) * xi0.values
    for a, column in zip(x.T, xi0.exponents.T):
        moments = [np.ones_like(a), a]
        for k in range(2, column.max(initial=0) + 1):
            moments.append(a * moments[-1] + (k - 1) * t * moments[-2])
        terms = terms * np.stack(moments, axis=1)[:, column]
    return terms.sum(axis=1)
