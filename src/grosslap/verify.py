"""Named invariant suites exercised by the CLI and the acceptance tests.

Each check pits a library computation against an independent route (dense
tensors, Gaussian moments, the exact piecewise symbol flow, a discrete
Legendre transform on a grid) and reports the worst observed error.  Each
suite is a function of its seed alone: its sizes and tolerances are pinned
at the desk-scale values it is calibrated for.  Random expansions are drawn
on their keys in code order, two generator calls each (`_random_terms`).
A sample's evaluation points are one generator call, its columns in the
order the per-point draws took the stream (`_random_points`), so a suite
pays per sample, not per point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Dict, Sequence

import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    coefficient_polynomials,
    dual_pair,
    exponential_vector,
    grid_point_count,
    key_table,
    nan_max,
)
from .evolution import ACTION_DISTRIBUTION, ProcessSpec, solve
from .gross import (
    convolve_dist_dist,
    convolve_dist_test,
    gross_distribution,
    gross_test,
    trace_distribution,
)
from .quantum_op import classical_quantum_bridge, quantum_gross
from .tensor_core import (
    contract_full,
    dense_contract_full,
    symmetrize,
    to_dense,
)
from .young import YoungFunctionSpec, conjugate_eval, theta_n


# The cutoff of every suite's expansions.
CUTOFF = 8


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    max_error: float
    tolerance: float
    samples: int

    @property
    def passed(self) -> bool:
        """max_error <= tolerance, the one pass rule; a NaN error fails."""
        return bool(self.max_error <= self.tolerance)


def _rng_complex(rng: np.random.Generator, count: int) -> np.ndarray:
    """count numbers re + i im, re and im uniform on [-1, 1): one generator
    call, which takes the real parts from the stream, then the imaginary
    parts."""
    re, im = rng.uniform(-1, 1, (2, count))
    return re + 1j * im


def _random_points(rng: np.random.Generator, points: int, d1: int,
                   d2: int) -> np.ndarray:
    """Seeded points as coordinate rows, xi then eta, each coordinate
    (re + i im) / 2 with re and im uniform on [-1, 1).

    One generator call for all of them: its columns take the stream in the
    order of the per-point draws `_rng_complex(rng, d1) / 2`, then
    `_rng_complex(rng, d2) / 2` (none when d2 = 0), so per point the real
    parts of xi, their imaginary parts, the real parts of eta and theirs.
    """
    u = rng.uniform(-1, 1, (points, 2 * (d1 + d2)))
    parts = np.concatenate((u[:, :2 * d1].reshape(points, 2, d1),
                            u[:, 2 * d1:].reshape(points, 2, d2)), axis=2)
    return (parts[:, 0] + 1j * parts[:, 1]) / 2


def _random_terms(rng: np.random.Generator, table: tuple,
                  keep_below: float, shape: tuple, role: str,
                  scale: float = 1.0) -> Expansion2:
    """Seeded terms on the keys of a `key_table`, which lists them in code
    order.

    Two generator calls in all: one keep draw per key, keeping the keys
    drawn below `keep_below` (the first key if none is); then the real parts
    and the imaginary parts of the kept terms, uniform on [-1, 1) times
    `scale` (`_rng_complex`).  The kept keys' codes, rows and
    multiplicities are gathered from the table, in code order.
    """
    keep = rng.random(len(table[0])) < keep_below
    if not keep.any():
        keep[0] = True
    at = keep.nonzero()[0]
    codes, rows, degrees, mult = (array[at] for array in table)
    return Expansion2(*shape, (codes, scale * _rng_complex(rng, len(at)),
                               rows, degrees, mult), role=role)


def _random_sym_tensor(rng: np.random.Generator, dim: int,
                       degree: int) -> Expansion2:
    """A symmetric tensor of the given degree, `Expansion2(dim, 0, degree, 0)`:
    each occupation vector of that degree, read in code order from the
    homogeneous key table, which the dense oracle's orbit table shares, is
    kept with probability 0.8 (see `_random_terms`)."""
    shape = (dim, 0, degree, 0)
    return _random_terms(rng, key_table(*shape, degree, 0, True), 0.8, shape,
                         TEST)


def _random_expansion(rng: np.random.Generator, dim1: int, dim2: int,
                      cutoff1: int, cutoff2: int, max_deg1: int,
                      max_deg2: int, role: str = TEST,
                      scale: float = 1.0) -> Expansion2:
    """A seeded expansion: terms of degree <= max_deg1 in the first
    variable and <= max_deg2 in the second, each kept with probability 0.6
    (see `_random_terms`)."""
    shape = (dim1, dim2, cutoff1, cutoff2)
    table = key_table(*shape, min(max_deg1, cutoff1), min(max_deg2, cutoff2))
    return _random_terms(rng, table, 0.6, shape, role, scale)


def _bilinear(v: Sequence[complex]) -> complex:
    return sum(complex(x) * complex(x) for x in v)


def _worst_relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest |lhs - rhs| / max(1, |rhs|), NaN if any sample is NaN."""
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


# ---------------------------------------------------------------------------
# Suites


def check_contraction_oracle(seed: int = 42) -> CheckResult:
    """Sparse occupation-storage contraction against dense tensordot."""
    pairs, tol = 200, 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        deg_b = int(rng.integers(0, 6))
        deg_a = int(rng.integers(0, deg_b + 1))
        A = _random_sym_tensor(rng, d, deg_a)
        B = _random_sym_tensor(rng, d, deg_b)
        sparse = contract_full(A, B)
        dense = symmetrize(dense_contract_full(to_dense(A), to_dense(B)), d)
        diff = sparse.add(dense.scale(-1)).norm_inf()
        ref = max(1.0, dense.norm_inf())
        worst = nan_max(worst, diff / ref)
    return CheckResult("contraction-dense-oracle",
                       "full contraction in occupation storage matches the "
                       "dense-array oracle",
                       worst, tol, pairs)


def check_trace_convolution(seed: int = 42) -> CheckResult:
    """Convolving with the trace distribution equals the Gross Laplacian.

    Exact coefficient equality: both routes multiply the same integer weight
    into the same coefficient in the same order.
    """
    polys = 100
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(polys):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(0, 4))
        c1 = int(rng.integers(2, CUTOFF + 1))
        c2 = int(rng.integers(2, CUTOFF + 1)) if d2 else 0
        phi = _random_expansion(rng, d1, d2, c1, c2, c1, c2, TEST)
        T = trace_distribution(d1, d2, c1, c2)
        via_conv = convolve_dist_test(T, phi)
        via_gross = gross_test(phi)
        if not (np.array_equal(via_conv.codes, via_gross.codes)
                and np.array_equal(via_conv.values, via_gross.values)):
            failures += 1
    return CheckResult("trace-convolution-equals-gross",
                       "convolution by the trace distribution reproduces the "
                       "Gross Laplacian coefficient-exactly",
                       float(failures), 0.0, polys)


def check_exponential_eigenvalue(seed: int = 42) -> CheckResult:
    """Exponential vectors are eigenvectors of the Gross Laplacian."""
    points, tol = 50, 1e-12
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        xi = _rng_complex(rng, d1) / math.sqrt(2)
        eta = _rng_complex(rng, d2) / math.sqrt(2)
        e = exponential_vector(xi.tolist(), eta.tolist(), CUTOFF, CUTOFF)
        lhs = gross_test(e)
        rhs = e.scale(_bilinear(xi) + _bilinear(eta))
        diff = lhs.add(rhs.scale(-1))
        # Summed across the columns, as `chaos.multiplicities` sums.
        low = diff.exponents.T.copy().sum(axis=0) <= CUTOFF - 2
        worst = nan_max(worst, float(np.max(np.abs(diff.values[low]),
                                            initial=0.0)))
    return CheckResult("exponential-eigenvalue",
                       "Gross Laplacian of an exponential vector scales it by "
                       "the bilinear square of its parameter",
                       worst, tol, points)


def check_laplace_homomorphism(seed: int = 42) -> CheckResult:
    """Laplace transform turns distribution convolution into products."""
    pairs, points, tol = 50, 20, 1e-11
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(0, 3))
        c1, c2 = CUTOFF, CUTOFF if d2 else 0
        A = _random_expansion(rng, d1, d2, c1, c2, 3, 3, DISTRIBUTION)
        B = _random_expansion(rng, d1, d2, c1, c2, 3, 3, DISTRIBUTION)
        C = convolve_dist_dist(A, B)
        x = _random_points(rng, points, d1, d2)
        lhs, a, b = coefficient_polynomials([C, A, B], x).T
        worst = nan_max(worst, _worst_relative(lhs, a * b))
    return CheckResult("laplace-convolution-homomorphism",
                       "Laplace transform of a convolution equals the product "
                       "of Laplace transforms",
                       worst, tol, pairs * points)


def check_gross_adjointness(seed: int = 42) -> CheckResult:
    """The two Gross Laplacians are adjoint under the dual pairing."""
    pairs, tol = 50, 1e-11
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(0, 3))
        c1, c2 = CUTOFF, CUTOFF if d2 else 0
        Phi = _random_expansion(rng, d1, d2, c1, c2, c1 - 2,
                                max(c2 - 2, 0), DISTRIBUTION)
        phi = _random_expansion(rng, d1, d2, c1, c2, c1, c2, TEST)
        lhs = dual_pair(gross_distribution(Phi), phi)
        rhs = dual_pair(Phi, gross_test(phi))
        worst = nan_max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CheckResult("gross-adjointness",
                       "distribution-side Gross Laplacian is the dual of the "
                       "test-side one",
                       worst, tol, pairs)


def check_symbol_multiplier(seed: int = 42) -> CheckResult:
    """The operator Gross Laplacian multiplies symbols by the quadratic form."""
    kernels, points, tol = 20, 20, 1e-11
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(kernels):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        c = CUTOFF
        K = _random_expansion(rng, d1, d2, c, c, c - 2, c - 2, DISTRIBUTION)
        L = quantum_gross(K)
        x = _random_points(rng, points, d1, d2)
        lhs, k = coefficient_polynomials([L, K], x).T
        form = np.array([_bilinear(p[:d1]) + _bilinear(p[d1:])
                         for p in x.tolist()])
        worst = nan_max(worst, _worst_relative(lhs, form * k))
    return CheckResult("quantum-symbol-multiplier",
                       "symbol of the operator Gross Laplacian is the "
                       "quadratic form times the original symbol",
                       worst, tol, kernels * points)


def check_multiplication_bridge(seed: int = 42) -> CheckResult:
    """Vacuum action of the operator Laplacian of a multiplication operator.

    Applying the operator Gross Laplacian of the multiplication operator to
    the constant function recovers the distribution-side Gross Laplacian.
    """
    samples, tol = 50, 1e-11
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(1, 4))
        Phi = _random_expansion(rng, d, 0, CUTOFF, 0, 4, 0, DISTRIBUTION)
        quantum_route, classical_route = classical_quantum_bridge(Phi)
        diff = quantum_route.add(classical_route.scale(-1)).norm_inf()
        worst = nan_max(worst, diff / max(1.0, classical_route.norm_inf()))
    return CheckResult("multiplication-operator-bridge",
                       "operator Laplacian of a multiplication operator, "
                       "applied to the vacuum, equals the scalar Laplacian",
                       worst, tol, samples)


# Criterion 8's two tolerances; its report folds them into 1.0.
HEAT_GAUSS_TOL = 1e-10
HEAT_ODE_TOL = 1e-6


def check_heat_triangle(seed: int = 42) -> CheckResult:
    """Heat flow: closed form vs Gaussian moments vs the symbol flow.

    The Gaussian oracle certifies the function-action kernel; the exactly
    solved symbol ODE certifies the distribution-action flow, probed on its
    grid of radius 1/8, where the cutoff tail stays far below the tolerance.
    """
    times = (0.1, 0.5, 1.0, 2.0)
    rng = np.random.default_rng(seed)
    xi0 = _random_expansion(rng, 1, 1, CUTOFF, CUTOFF, 4, 4, DISTRIBUTION)
    checks = solve(xi0, times, method="both", seed=seed).checks
    gauss_gap, ode_gap = checks["gaussian_gap"], checks["residual_max"]

    worst = nan_max(gauss_gap / HEAT_GAUSS_TOL, ode_gap / HEAT_ODE_TOL)
    return CheckResult("heat-oracle-triangle",
                       "closed-form heat kernels agree with Gaussian-moment "
                       "smoothing and with the exact scalar symbol flow",
                       worst, 1.0, len(times))


def check_evolution_residual(seed: int = 42) -> CheckResult:
    """Closed-form solutions of a driven flow follow the exact symbol flow.

    Z and Theta are piecewise constant on two intervals.  One `solve` under
    the distribution action reports as residual_max the largest gap between
    the symbols of the closed-form kernels and the exactly solved symbol
    ODE, d sigma/dt = sigma(Z) sigma + sigma(Theta), over the symbol grid
    at every time.
    """
    n_times, tol = 5, 1e-6
    rng = np.random.default_rng(seed)
    d = 1
    grid = (0.0, 1.0, 2.0)

    def small_kernel() -> Expansion2:
        return _random_expansion(rng, d, d, CUTOFF, CUTOFF, 2, 2,
                                 DISTRIBUTION, scale=0.2)

    Z = ProcessSpec(grid, (small_kernel(), small_kernel()))
    Theta = ProcessSpec(grid, (small_kernel(), small_kernel()))
    xi0 = _random_expansion(rng, d, d, CUTOFF, CUTOFF, 2, 2, DISTRIBUTION)
    times = rng.uniform(0.0, grid[-1], n_times).tolist()
    worst = solve(xi0, times, Z, Theta, action=ACTION_DISTRIBUTION,
                  method="both").checks["residual_max"]
    return CheckResult("evolution-symbol-residual",
                       "solver output satisfies the first-order symbol "
                       "evolution law",
                       worst, tol,
                       n_times * grid_point_count(d, d, CUTOFF, CUTOFF))


# Criterion 10's rounding allowance, derived in `check_young_diagnostics`.
YOUNG_ROUNDING = 2.0 ** -47


def check_young_diagnostics(seed: int = 42) -> CheckResult:
    """Legendre facts for the quadratic Young function theta(t) = t^2.

    The oracle for theta*(x) is the discrete Legendre transform
    g(x) = max_j (t_j x - t_j^2) over t_j = j h on [0, 5], which holds the
    maximiser x/2 for every x in [0, 10].  As t x - t^2 = x^2/4 - (t - x/2)^2,
    g falls short of x^2/4 by min_j (t_j - x/2)^2, which lies in [0, h^2/4]
    since some t_j is within h/2 of x/2.  So the gate is one-sided:
    g(x) <= theta*(x) <= g(x) + h^2/4, each side up to `YOUNG_ROUNDING`.

    That allowance is the rounding of the computed sides.  With h = 2^-13
    the t_j, t_j^2 (j^2 < 2^31) and h^2/4 are exact.  Each t_j x is below 64
    and each t_j x - t_j^2 below 32 in modulus, so they round by at most
    2^-48 and 2^-49, and g by at most 3 * 2^-49; x^2/4 = (x/2)(x/2) is below
    32 and rounds by at most 2^-49.  In all 4 * 2^-49 = 2^-47, about 7e-15.
    The reported error is the largest distance outside the band.  The grid
    is searched one x at a time.  The degree-2 weight
    theta_2 = inf e^{r^2}/r^2 must be e to the same allowance, and no (t, x)
    pair may break the Fenchel-Young inequality t x <= theta(t) + theta*(x).
    """
    grid_points, h = 100, 2.0 ** -13
    band = h * h / 4
    gauss = YoungFunctionSpec("gaussian")
    xs = np.linspace(0.0, 10.0, grid_points)
    conj = np.array([conjugate_eval(gauss, float(x)) for x in xs])
    ts = np.arange(round(5.0 / h) + 1) * h
    theta_ts = ts * ts
    worst = 0.0
    for x, c in zip(xs, conj.tolist()):
        gap = c - float(np.max(ts * x - theta_ts))
        worst = nan_max(worst, max(-gap, gap - band))
    worst = nan_max(worst, abs(theta_n(gauss, 2) - math.e))
    t = np.linspace(0.0, 5.0, 26)[:, None]
    violations = int(np.sum(t * xs[::5] > t * t + conj[::5] + 1e-9))
    return CheckResult("young-conjugate-diagnostics",
                       "quadratic conjugate is x^2/4; the degree-2 weight "
                       "equals e; no Fenchel-Young violations",
                       nan_max(worst, float(violations)),
                       YOUNG_ROUNDING, grid_points)


ALL_CHECKS: Dict[str, Callable[[int], CheckResult]] = {
    "contraction-dense-oracle": check_contraction_oracle,
    "trace-convolution-equals-gross": check_trace_convolution,
    "exponential-eigenvalue": check_exponential_eigenvalue,
    "laplace-convolution-homomorphism": check_laplace_homomorphism,
    "gross-adjointness": check_gross_adjointness,
    "quantum-symbol-multiplier": check_symbol_multiplier,
    "multiplication-operator-bridge": check_multiplication_bridge,
    "heat-oracle-triangle": check_heat_triangle,
    "evolution-symbol-residual": check_evolution_residual,
    "young-conjugate-diagnostics": check_young_diagnostics,
}
