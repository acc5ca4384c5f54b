"""Closed-form and numeric solvers for linear kernel evolution equations.

Both solvers step exactly over the pieces where the driving process and the
source are constant; the closed form integrates the source term with the
phi-functions of exponential integrators.  Two independent oracles exist: the
same exact step for the scalar symbol ODE on a torus grid, with the kernel
coefficients read back by one discrete Fourier transform, and (for the heat
flow on function-convention kernels) exact Gaussian-moment smoothing.

A propagator, being a distribution, can act on the kernel two ways and both
appear in the theory: "distribution" convolves kernels as distributions, so
symbols multiply along the flow; "function" lets the propagator act on the
kernel read as a test function, which for the heat flow is exactly Gaussian
smoothing of the kernel polynomial.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    Point2,
    RoleError,
    coefficient_polynomials,
    multiplicities,
    point_coordinates,
)
from .gross import convolve_dist_dist, convolve_dist_test, trace_distribution
from .quantum_op import OperatorKernel
from .tensor_core import MultiIndex, nan_max

ACTION_FUNCTION = "function"
ACTION_DISTRIBUTION = "distribution"


# ---------------------------------------------------------------------------
# Gaussian moments


def gaussian_moment(alpha: MultiIndex) -> float:
    """Product moment of the standard Gaussian: prod E[X_i^{alpha_i}]."""
    out = 1.0
    for a in alpha:
        if a < 0:
            raise ValueError("occupations must be non-negative")
        if a % 2 == 1:
            return 0.0
        out *= _double_factorial(a - 1)
    return out


def _double_factorial(k: int) -> float:
    out = 1.0
    while k > 1:
        out *= k
        k -= 2
    return out


def _shifted_gauss_moment(a: complex, t: float, k: int) -> complex:
    """E[(a + sqrt(t) X)^k] for standard Gaussian X."""
    total = 0j
    for j in range(0, k + 1, 2):
        total += (math.comb(k, j) * a ** (k - j)
                  * t ** (j // 2) * _double_factorial(j - 1))
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
    e0 = np.exp(c0)
    return _power_series(N, [e0 / math.factorial(j)
                             for j in range(Phi.cutoff1 + Phi.cutoff2 + 1)])


def _conv_exp_integral(Phi: Expansion2, h: float) -> Expansion2:
    """The integral of e^{*u Phi} over u in [0, h], in closed form.

    With Phi = c0 delta_0 + N, the coefficient of N^{*j} is
    int_0^h u^j e^{u c0} du / j! = h^{j+1} e^{h c0} phi_{j+1}(-h c0).
    """
    c0, N = _split_constant(Phi)
    kmax = Phi.cutoff1 + Phi.cutoff2
    dd = _exp_divided_differences(h * c0, kmax + 1)
    return _power_series(N, [h ** (j + 1) * dd[j] for j in range(kmax + 1)])


def _exp_divided_differences(z: complex, k: int) -> np.ndarray:
    """e^z phi_j(-z) for j = 1..k, the divided differences exp[0, z, .., z].

    They follow 1 in the first row of the exponential of the (k+1)x(k+1)
    bidiagonal matrix with 0, z, .., z on the diagonal and ones above it.
    The product is formed in one piece, so a strongly decaying z cannot
    give 0 * inf, and there is no cancellation at small z.
    """
    # Imported here: only a solve with a source term needs scipy, and
    # loading it costs more than a small solve.
    from scipy.linalg import expm
    A = np.diag(np.full(k + 1, z, dtype=complex)) + np.diag(np.ones(k), 1)
    A[0, 0] = 0
    return expm(A)[0, 1:]


def _split_constant(Phi: Expansion2) -> Tuple[complex, Expansion2]:
    """(c0, N) with Phi = c0 delta_0 + N.

    The zero key has code 0, so it is the first term when present.
    """
    if len(Phi.codes) and Phi.codes[0] == 0:
        return (complex(Phi.values[0]),
                Phi.with_terms(Phi.codes[1:], Phi.values[1:]))
    return 0j, Phi


def _power_series(N: Expansion2, weights: Sequence[complex]) -> Expansion2:
    """sum_j weights[j] N^{*j} for N without a constant term.

    N has positive minimal degree, so N^{*j} vanishes once j exceeds
    cutoff1 + cutoff2 and the series is exact with that many weights.
    """
    power = N.with_terms(np.zeros(1, dtype=N.codes.dtype),
                         np.ones(1, dtype=complex), truncated=False)
    result = power.scale(weights[0])
    truncated = N.truncated
    for w in weights[1:]:
        power = convolve_dist_dist(power, N)
        truncated = truncated or power.truncated
        if not len(power.codes):
            break
        result = result.add(power.scale(w))
    return result.with_terms(result.codes, result.values, truncated=truncated)


# ---------------------------------------------------------------------------
# Piecewise-constant operator processes


@dataclass(frozen=True)
class ProcessSpec:
    """Piecewise-constant kernel-valued process on a time grid.

    grid has one more point than kernels; kernels[i] is the value on
    [grid[i], grid[i+1]).  Continuous processes must be pre-sampled.
    """

    grid: Tuple[float, ...]
    kernels: Tuple[OperatorKernel, ...]

    def __post_init__(self):
        if len(self.grid) < 2 or len(self.kernels) != len(self.grid) - 1:
            raise ValueError("grid needs len(kernels) + 1 points")
        if self.grid[0] != 0.0:
            raise ValueError("grid must start at 0")
        if any(b <= a for a, b in zip(self.grid, self.grid[1:])):
            raise ValueError("grid must be strictly increasing")

    @property
    def end(self) -> float:
        return self.grid[-1]

    def value_at(self, s: float) -> OperatorKernel:
        if s < 0 or s > self.end:
            raise ValueError(f"time {s} outside process grid")
        i = min(bisect_right(self.grid, s) - 1, len(self.kernels) - 1)
        return self.kernels[i]

    def is_zero(self) -> bool:
        return all(not len(k.kernel.codes) for k in self.kernels)

    @staticmethod
    def constant(kernel: OperatorKernel, t_end: float) -> "ProcessSpec":
        return ProcessSpec((0.0, float(t_end)), (kernel,))


def zero_process(dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                 t_end: float) -> ProcessSpec:
    empty = OperatorKernel(Expansion2(dim1, dim2, cutoff1, cutoff2, {},
                                      role=DISTRIBUTION), "zero")
    return ProcessSpec.constant(empty, t_end)


def integrate_process(P: ProcessSpec, t: float) -> OperatorKernel:
    """Exact integral of a piecewise-constant process over [0, t]."""
    return integrate_between(P, 0.0, t)


def integrate_between(P: ProcessSpec, s: float, t: float) -> OperatorKernel:
    if not (0.0 <= s <= t <= P.end + 1e-12):
        raise ValueError(f"integration range [{s}, {t}] outside grid")
    ref = P.kernels[0].kernel
    total = ref.with_terms(ref.codes[:0], ref.values[:0], truncated=False)
    for i, kern in enumerate(P.kernels):
        a, b = P.grid[i], P.grid[i + 1]
        length = min(b, t) - max(a, s)
        if length > 0:
            total = total.add(kern.kernel.scale(length))
    return OperatorKernel(total, "integrated")


# ---------------------------------------------------------------------------
# Closed-form solver


@dataclass(frozen=True)
class EvolutionSolution:
    """Per-time kernels plus provenance and cross-check metadata."""

    times: Tuple[float, ...]
    kernels: Tuple[OperatorKernel, ...]
    method: str
    action: str = ACTION_FUNCTION
    truncated: bool = False
    checks: Dict[str, float] = field(default_factory=dict)
    symbol_points: Optional[Tuple[Tuple[Tuple[complex, ...],
                                        Tuple[complex, ...]], ...]] = None
    symbol_values: Optional[Tuple[Tuple[complex, ...], ...]] = None


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


def solve_qsde(Z: ProcessSpec, Theta: ProcessSpec, xi0: OperatorKernel,
               times: Sequence[float],
               action: str = ACTION_FUNCTION) -> EvolutionSolution:
    """Closed-form solution of d Xi/dt = Z(t) * Xi(t) + Theta(t).

    On each piece of `_segments`, of length h, the exact step is
    Xi <- e^{*hZ} Xi + (int_0^h e^{*uZ} du) Theta.  The steps compose, as
    e^{*(A+B)} = e^{*A} * e^{*B} in the truncated ring and both propagator
    actions (selected by ``action``) are actions of that ring.
    """
    _check_processes(Z, Theta, xi0)
    state = xi0.kernel
    states = {0.0: state}
    for a, b, i, j in _segments(Z, Theta, times):
        h = b - a
        gen, source = Z.kernels[i].kernel, Theta.kernels[j].kernel
        state = apply_propagator(conv_exp(gen.scale(h)), state, action)
        if len(source.codes):
            state = state.add(apply_propagator(_conv_exp_integral(gen, h),
                                               source, action))
        states[b] = state
    kernels = tuple(OperatorKernel(states[float(t)], label="solution")
                    for t in times)
    return EvolutionSolution(tuple(float(t) for t in times), kernels,
                             method="closed_form", action=action,
                             truncated=any(k.kernel.truncated
                                           for k in kernels))


def _check_processes(Z: ProcessSpec, Theta: ProcessSpec,
                     xi0: OperatorKernel) -> None:
    ref = xi0.kernel
    for proc in (Z, Theta):
        for k in proc.kernels:
            if (k.kernel.dim1, k.kernel.dim2) != (ref.dim1, ref.dim2) or \
               (k.kernel.cutoff1, k.kernel.cutoff2) != (ref.cutoff1, ref.cutoff2):
                raise ValueError("process kernels must match the initial "
                                 "kernel's dims and cutoffs")


# ---------------------------------------------------------------------------
# Symbol-ODE oracle


# Radius of the torus on which symbols are sampled.  A power of two, so the
# scaling of a coefficient by r^|gamma| is exact.
SYMBOL_RADIUS = 0.125


def _torus(dim1: int, dim2: int, cutoff1: int, cutoff2: int):
    """The symbol grid of one kernel shape.

    cutoff + 1 points per coordinate, equispaced on the circle of radius
    SYMBOL_RADIUS, so the monomial of exponent gamma = alpha + beta is one
    DFT bin.  The grid is the box of the expansions' codes, so a key's flat
    bin is its code.  Returns the grid's shape, its points in C order (one
    row of coordinates each), the bins of the keys (|alpha| <= cutoff1,
    |beta| <= cutoff2), and per bin the factor from coefficient to bin,
    mult(alpha) mult(beta) r^|gamma| (zero off the keys).
    """
    shape = (cutoff1 + 1,) * dim1 + (cutoff2 + 1,) * dim2
    exponents = np.indices(shape).reshape(len(shape), -1).T
    points = SYMBOL_RADIUS * np.exp(2j * np.pi * exponents / np.array(shape))
    bins = np.flatnonzero((exponents[:, :dim1].sum(axis=1) <= cutoff1)
                          & (exponents[:, dim1:].sum(axis=1) <= cutoff2))
    scale = np.zeros(len(points))
    scale[bins] = multiplicities(exponents[bins], dim1)[1].astype(float)
    scale[bins] *= SYMBOL_RADIUS ** exponents[bins].sum(axis=1)
    return shape, points, bins, scale


def torus_symbols(phis: Sequence[Expansion2]):
    """The grid of expansions of one shape and their symbols on it.

    Returns the grid points and the (points, len(phis)) values.  The value
    at grid index k is sum_gamma P_gamma e^{2 pi i gamma.k / (cutoff + 1)},
    with P_gamma = mult c r^|gamma|: G ifftn(P) over the G points.
    """
    ref = phis[0]
    shape, points, _, scale = _torus(ref.dim1, ref.dim2, ref.cutoff1,
                                     ref.cutoff2)
    P = np.zeros((len(phis), len(points)), dtype=complex)
    for row, phi in zip(P, phis):
        row[phi.codes] = phi.values * scale[phi.codes]
    axes = tuple(range(1, len(shape) + 1))
    values = np.fft.ifftn(P.reshape((len(phis), *shape)), axes=axes)
    return points, len(points) * values.reshape(P.shape).T


def solve_symbol_ode(Z: ProcessSpec, Theta: ProcessSpec, xi0: OperatorKernel,
                     times: Sequence[float]) -> EvolutionSolution:
    """The scalar symbol ODE solved exactly, then kernel reconstruction.

    d sigma/dt = sigma(Z) sigma + sigma(Theta) holds pointwise for the
    distribution-action flow; solving it on the symbol grid of
    `torus_symbols`, exactly on each piece of `_segments`, and transforming
    back gives an oracle independent of the convolution calculus.  One fftn
    over the grid, for every requested time, yields mult c r^|gamma| in each
    key's bin; exponents past the cutoff in some coordinate alias onto the
    keys, damped by r^(cutoff + 1).

    An error in the symbol values can grow by up to r^-|gamma| in the
    coefficient of degree |gamma|; the largest such factor is returned as the
    check fit_amplification.
    """
    _check_processes(Z, Theta, xi0)
    ref = xi0.kernel
    shape, _, bins, scale = _torus(ref.dim1, ref.dim2, ref.cutoff1,
                                   ref.cutoff2)
    # Every kernel's symbol on the grid: one column for xi0, then one per
    # piece of Z and Theta.
    points, symbols = torus_symbols([k.kernel for k in (xi0, *Z.kernels,
                                                        *Theta.kernels)])
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
                      dtype=complex).reshape(len(times), len(points))
    spectrum = np.fft.fftn(values.reshape(len(times), *shape),
                           axes=tuple(range(1, len(shape) + 1)))
    coef = (spectrum.reshape(values.shape)[:, bins]
            / (len(points) * scale[bins]))

    out_kernels = []
    for row in coef:
        kept = np.abs(row) > 1e-300
        kern = Expansion2(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2,
                          (bins[kept], row[kept]), role=DISTRIBUTION)
        out_kernels.append(OperatorKernel(kern, label="symbol-ode"))
    return EvolutionSolution(tuple(float(t) for t in times),
                             tuple(out_kernels),
                             method="symbol_ode_numeric",
                             action=ACTION_DISTRIBUTION,
                             checks={"fit_amplification": SYMBOL_RADIUS
                                     ** -(ref.cutoff1 + ref.cutoff2)},
                             symbol_points=tuple(
                                 (tuple(p[:ref.dim1]), tuple(p[ref.dim1:]))
                                 for p in points.tolist()),
                             symbol_values=tuple(tuple(v) for v in
                                                 values.tolist()))


def symbol_gap(closed: EvolutionSolution,
               numeric: EvolutionSolution) -> float:
    """Largest |sigma(closed kernel) - numeric symbol| over points and times.

    `closed` holds distribution-action kernels at the times of the symbol-ODE
    solution `numeric`, of the shape numeric was solved for; each kernel's
    symbol is taken on numeric's grid.  This gap is what the command line
    reports as residual_max.  A NaN anywhere makes it NaN.
    """
    if not closed.kernels:
        return 0.0
    _, values = torus_symbols([k.kernel for k in closed.kernels])
    expected = np.array(numeric.symbol_values, dtype=complex).T
    return float(np.max(np.abs(values - expected), initial=0.0))


# ---------------------------------------------------------------------------
# Heat equation


def half_trace_process(dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                       t_end: float) -> ProcessSpec:
    T = trace_distribution(dim1, dim2, cutoff1, cutoff2)
    return ProcessSpec.constant(OperatorKernel(T.scale(0.5), "half-trace"),
                                t_end)


# Random points per time at which a source-free function-action heat solve
# is compared with the Gaussian-moment oracle.
GAUSSIAN_CHECK_POINTS = 5


def solve_heat(xi0: OperatorKernel, Theta: Optional[ProcessSpec],
               times: Sequence[float], action: str = ACTION_FUNCTION,
               seed: int = 42) -> EvolutionSolution:
    """Heat flow driven by half the trace distribution.

    With no source and the function action, the solution kernel is the
    Gaussian smoothing of the initial kernel polynomial; the moment-based
    evaluation is recorded as a cross-check gap.
    """
    ref = xi0.kernel
    t_end = max([float(t) for t in times] + [1e-9])
    Z = half_trace_process(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2, t_end)
    if Theta is None:
        Theta = zero_process(ref.dim1, ref.dim2, ref.cutoff1, ref.cutoff2,
                             t_end)
    sol = solve_qsde(Z, Theta, xi0, times, action=action)
    checks = dict(sol.checks)
    if Theta.is_zero() and action == ACTION_FUNCTION:
        rng = np.random.default_rng(seed)
        gap = 0.0
        for t, kern in zip(sol.times, sol.kernels):
            ys = [Point2.of(rng.uniform(-1, 1, ref.dim1).tolist(),
                            rng.uniform(-1, 1, ref.dim2).tolist())
                  for _ in range(GAUSSIAN_CHECK_POINTS)]
            direct = coefficient_polynomials(
                [kern.kernel],
                point_coordinates([(y.z, y.t) for y in ys], ref.dim1,
                                  ref.dim2))
            for y, value in zip(ys, direct[:, 0]):
                oracle = gaussian_heat_kernel(xi0, t, y)
                gap = nan_max(gap, abs(value - oracle))
        checks["gaussian_gap"] = float(gap)
    return replace(sol, checks=checks)


def gaussian_heat_kernel(xi0: OperatorKernel, t: float, y: Point2) -> complex:
    """Gaussian-integral evaluation of the homogeneous heat solution kernel.

    Integrates the initial kernel polynomial shifted by sqrt(t) times a
    standard Gaussian, coordinate by coordinate, using exact moments.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if len(y.z) != xi0.dim1 or len(y.t) != xi0.dim2:
        raise ValueError("evaluation point does not match kernel dims")
    K = xi0.kernel
    terms = multiplicities(K.exponents, K.dim1)[1].astype(float) * K.values
    for a, column in zip(y.z + y.t, K.exponents.T):
        moments = np.array([_shifted_gauss_moment(a, t, k)
                            for k in range(column.max(initial=0) + 1)])
        terms = terms * moments[column]
    return complex(np.sum(terms))
