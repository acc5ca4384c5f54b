"""Named invariant suites exercised by the CLI and the acceptance tests.

Each check pits a library computation against an independent route (dense
tensors, Gaussian moments, the exact piecewise symbol flow, closed-form
Legendre transforms) and reports the worst observed error.  Parameters
default to the desk-scale sizes the suites are calibrated for.
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
    point_coordinates,
)
from .evolution import (
    ACTION_DISTRIBUTION,
    ACTION_FUNCTION,
    ProcessSpec,
    half_trace_process,
    solve_heat,
    solve_qsde,
    solve_symbol_ode,
    symbol_gap,
    zero_process,
)
from .gross import (
    convolve_dist_dist,
    convolve_dist_test,
    gross_distribution,
    gross_test,
    trace_distribution,
)
from .quantum_op import OperatorKernel, classical_quantum_bridge, quantum_gross
from .tensor_core import (
    SymTensor,
    contract_full,
    dense_contract_full,
    iter_occupations,
    nan_max,
    symmetrize,
    to_dense,
)
from .young import YoungFunctionSpec, conjugate_eval, theta_n


@dataclass(frozen=True)
class CheckResult:
    name: str
    identity: str
    passed: bool
    max_error: float
    tolerance: float
    samples: int


def _rng_complex(rng: np.random.Generator, shape=None) -> complex:
    if shape is None:
        return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    return rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)


def _random_sym_tensor(rng: np.random.Generator, dim: int, degree: int,
                       density: float = 0.8) -> SymTensor:
    entries = {}
    for alpha in iter_occupations(dim, degree):
        if rng.uniform() < density:
            entries[alpha] = _rng_complex(rng)
    if not entries:
        entries[next(iter_occupations(dim, degree))] = _rng_complex(rng)
    return SymTensor(dim, degree, entries)


def _random_expansion(rng: np.random.Generator, dim1: int, dim2: int,
                      cutoff1: int, cutoff2: int, max_deg1: int,
                      max_deg2: int, role: str = TEST, density: float = 0.6,
                      scale: float = 1.0) -> Expansion2:
    # Seeded data depends on the draw order: one keep draw per key, in key
    # order, then two for each kept value.
    betas = [beta for m in range(min(max_deg2, cutoff2) + 1)
             for beta in iter_occupations(dim2, m)]
    coeffs = {}
    for n in range(min(max_deg1, cutoff1) + 1):
        for alpha in iter_occupations(dim1, n):
            for beta in betas:
                if rng.uniform() < density:
                    coeffs[(alpha, beta)] = scale * _rng_complex(rng)
    if not coeffs:
        coeffs[((0,) * dim1, (0,) * dim2)] = scale * _rng_complex(rng)
    return Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs, role=role)


def _bilinear(v: Sequence[complex]) -> complex:
    return sum(complex(x) * complex(x) for x in v)


def _worst_relative(lhs: np.ndarray, rhs: np.ndarray) -> float:
    """Largest |lhs - rhs| / max(1, |rhs|), NaN if any sample is NaN."""
    return float(np.max(np.abs(lhs - rhs) / np.maximum(1.0, np.abs(rhs))))


# ---------------------------------------------------------------------------
# Suites


def check_contraction_oracle(pairs: int = 200, tol: float = 1e-12,
                             seed: int = 42) -> CheckResult:
    """Sparse occupation-storage contraction against dense tensordot."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d = int(rng.integers(1, 4))
        deg_b = int(rng.integers(0, 6))
        deg_a = int(rng.integers(0, deg_b + 1))
        A = _random_sym_tensor(rng, d, deg_a)
        B = _random_sym_tensor(rng, d, deg_b)
        sparse = contract_full(A, B)
        dense = symmetrize(dense_contract_full(to_dense(A), to_dense(B)))
        diff = sparse.add(dense.scale(-1)).norm_inf()
        ref = max(1.0, dense.norm_inf())
        worst = nan_max(worst, diff / ref)
    return CheckResult("contraction-dense-oracle",
                       "full contraction in occupation storage matches the "
                       "dense-array oracle",
                       worst <= tol, worst, tol, pairs)


def check_trace_convolution(polys: int = 100, seed: int = 42) -> CheckResult:
    """Convolving with the trace distribution equals the Gross Laplacian.

    Exact coefficient equality: both routes multiply the same integer weight
    into the same coefficient in the same order.
    """
    rng = np.random.default_rng(seed)
    failures = 0
    for _ in range(polys):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(0, 4))
        c1 = int(rng.integers(2, 9))
        c2 = int(rng.integers(2, 9)) if d2 else 0
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
                       failures == 0, float(failures), 0.0, polys)


def check_exponential_eigenvalue(points: int = 50, cutoff: int = 8,
                                 max_degree: int = 6, tol: float = 1e-12,
                                 seed: int = 42) -> CheckResult:
    """Exponential vectors are eigenvectors of the Gross Laplacian."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(points):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        xi = _rng_complex(rng, d1) / math.sqrt(2)
        eta = _rng_complex(rng, d2) / math.sqrt(2)
        e = exponential_vector(xi.tolist(), eta.tolist(), cutoff, cutoff)
        lhs = gross_test(e)
        rhs = e.scale(_bilinear(xi) + _bilinear(eta))
        diff = lhs.add(rhs.scale(-1))
        low = diff.exponents.sum(axis=1) <= max_degree
        worst = nan_max(worst, float(np.max(np.abs(diff.values[low]),
                                            initial=0.0)))
    return CheckResult("exponential-eigenvalue",
                       "Gross Laplacian of an exponential vector scales it by "
                       "the bilinear square of its parameter",
                       worst <= tol, worst, tol, points)


def check_laplace_homomorphism(pairs: int = 50, points: int = 20,
                               tol: float = 1e-11, seed: int = 42) -> CheckResult:
    """Laplace transform turns distribution convolution into products."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(0, 3))
        c1, c2 = 8, 8 if d2 else 0
        A = _random_expansion(rng, d1, d2, c1, c2, 3, 3, DISTRIBUTION)
        B = _random_expansion(rng, d1, d2, c1, c2, 3, 3, DISTRIBUTION)
        C = convolve_dist_dist(A, B)
        pts = [((_rng_complex(rng, d1) / 2).tolist(),
                (_rng_complex(rng, d2) / 2).tolist() if d2 else ())
               for _ in range(points)]
        lhs, a, b = coefficient_polynomials(
            [C, A, B], point_coordinates(pts, d1, d2)).T
        worst = nan_max(worst, _worst_relative(lhs, a * b))
    return CheckResult("laplace-convolution-homomorphism",
                       "Laplace transform of a convolution equals the product "
                       "of Laplace transforms",
                       worst <= tol, worst, tol, pairs * points)


def check_gross_adjointness(pairs: int = 50, tol: float = 1e-11,
                            seed: int = 42) -> CheckResult:
    """The two Gross Laplacians are adjoint under the dual pairing."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(pairs):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(0, 3))
        c1, c2 = 8, 8 if d2 else 0
        Phi = _random_expansion(rng, d1, d2, c1, c2, c1 - 2,
                                max(c2 - 2, 0), DISTRIBUTION)
        phi = _random_expansion(rng, d1, d2, c1, c2, c1, c2, TEST)
        lhs = dual_pair(gross_distribution(Phi), phi)
        rhs = dual_pair(Phi, gross_test(phi))
        worst = nan_max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    return CheckResult("gross-adjointness",
                       "distribution-side Gross Laplacian is the dual of the "
                       "test-side one",
                       worst <= tol, worst, tol, pairs)


def check_symbol_multiplier(kernels: int = 20, points: int = 20,
                            tol: float = 1e-11, seed: int = 42) -> CheckResult:
    """The operator Gross Laplacian multiplies symbols by the quadratic form."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(kernels):
        d1 = int(rng.integers(1, 3))
        d2 = int(rng.integers(1, 3))
        c = 8
        K = OperatorKernel(_random_expansion(rng, d1, d2, c, c, c - 2, c - 2,
                                             DISTRIBUTION))
        L = quantum_gross(K)
        pts = [((_rng_complex(rng, d1) / 2).tolist(),
                (_rng_complex(rng, d2) / 2).tolist()) for _ in range(points)]
        lhs, k = coefficient_polynomials(
            [L.kernel, K.kernel], point_coordinates(pts, d1, d2)).T
        form = np.array([_bilinear(xi) + _bilinear(eta) for xi, eta in pts])
        worst = nan_max(worst, _worst_relative(lhs, form * k))
    return CheckResult("quantum-symbol-multiplier",
                       "symbol of the operator Gross Laplacian is the "
                       "quadratic form times the original symbol",
                       worst <= tol, worst, tol, kernels * points)


def check_multiplication_bridge(samples: int = 50, max_degree: int = 4,
                                tol: float = 1e-11,
                                seed: int = 42) -> CheckResult:
    """Vacuum action of the operator Laplacian of a multiplication operator.

    Applying the operator Gross Laplacian of the multiplication operator to
    the constant function recovers the distribution-side Gross Laplacian.
    """
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(samples):
        d = int(rng.integers(1, 4))
        cutoff = 8
        Phi = _random_expansion(rng, d, 0, cutoff, 0, max_degree, 0,
                                DISTRIBUTION)
        quantum_route, classical_route = classical_quantum_bridge(Phi)
        diff = quantum_route.add(classical_route.scale(-1)).norm_inf()
        worst = nan_max(worst, diff / max(1.0, classical_route.norm_inf()))
    return CheckResult("multiplication-operator-bridge",
                       "operator Laplacian of a multiplication operator, "
                       "applied to the vacuum, equals the scalar Laplacian",
                       worst <= tol, worst, tol, samples)


def check_heat_triangle(max_degree: int = 4, cutoff: int = 8,
                        times: Sequence[float] = (0.1, 0.5, 1.0, 2.0),
                        gauss_tol: float = 1e-10, ode_tol: float = 1e-6,
                        seed: int = 42) -> CheckResult:
    """Heat flow: closed form vs Gaussian moments vs the symbol flow.

    The Gaussian oracle certifies the function-action kernel; the exactly
    solved symbol ODE certifies the distribution-action flow, probed on its
    grid of radius 1/8, where the cutoff tail stays far below the tolerance.
    """
    rng = np.random.default_rng(seed)
    xi0 = OperatorKernel(_random_expansion(rng, 1, 1, cutoff, cutoff,
                                           max_degree, max_degree,
                                           DISTRIBUTION), "initial")
    gauss_gap = solve_heat(xi0, None, times, action=ACTION_FUNCTION,
                           seed=seed).checks["gaussian_gap"]

    t_end = max(times)
    Z = half_trace_process(1, 1, cutoff, cutoff, t_end)
    Theta = zero_process(1, 1, cutoff, cutoff, t_end)
    numeric = solve_symbol_ode(Z, Theta, xi0, times)
    closed = solve_heat(xi0, None, times, action=ACTION_DISTRIBUTION)
    ode_gap = symbol_gap(closed, numeric)

    worst = nan_max(gauss_gap / gauss_tol, ode_gap / ode_tol)
    return CheckResult("heat-oracle-triangle",
                       "closed-form heat kernels agree with Gaussian-moment "
                       "smoothing and with the exact scalar symbol flow",
                       bool(gauss_gap <= gauss_tol and ode_gap <= ode_tol),
                       worst, 1.0, len(times))


def check_evolution_residual(samples: int = 10, cutoff: int = 8,
                             tol: float = 1e-6, fd_step: float = 1e-4,
                             seed: int = 42) -> CheckResult:
    """Closed-form solutions satisfy the symbol ODE under central differences.

    Uses piecewise-constant drivers with two intervals and samples interior
    times so the difference stencil never straddles a kink.
    """
    rng = np.random.default_rng(seed)
    d = 1
    grid = (0.0, 1.0, 2.0)

    def small_kernel() -> OperatorKernel:
        return OperatorKernel(_random_expansion(rng, d, d, cutoff, cutoff,
                                                2, 2, DISTRIBUTION,
                                                scale=0.2))

    Z = ProcessSpec(grid, (small_kernel(), small_kernel()))
    Theta = ProcessSpec(grid, (small_kernel(), small_kernel()))
    xi0 = OperatorKernel(_random_expansion(rng, d, d, cutoff, cutoff, 2, 2,
                                           DISTRIBUTION), "initial")
    worst = 0.0
    points_per_time = 2
    for _ in range(0, samples, points_per_time):
        t = float(rng.uniform(0.2, 0.8) + rng.integers(0, 2))
        sol = solve_qsde(Z, Theta, xi0, (t - fd_step, t, t + fd_step),
                         action=ACTION_DISTRIBUTION)
        pts = [((_rng_complex(rng, d) * 0.1).tolist(),
                (_rng_complex(rng, d) * 0.1).tolist())
               for _ in range(points_per_time)]
        kernels = [k.kernel for k in sol.kernels] + [
            Z.value_at(t).kernel, Theta.value_at(t).kernel]
        s_m, s_0, s_p, s_Z, s_Theta = coefficient_polynomials(
            kernels, point_coordinates(pts, d, d)).T
        deriv = (s_p - s_m) / (2 * fd_step)
        rhs = s_Z * s_0 + s_Theta
        worst = nan_max(worst, float(np.max(np.abs(deriv - rhs))))
    return CheckResult("evolution-symbol-residual",
                       "solver output satisfies the first-order symbol "
                       "evolution law",
                       bool(worst <= tol), worst, tol, samples)


def check_young_diagnostics(grid_points: int = 100,
                            tol: float = 1e-8, seed: int = 42) -> CheckResult:
    """Closed-form Legendre facts for the quadratic Young function."""
    gauss = YoungFunctionSpec("gaussian")
    worst = 0.0
    xs = np.linspace(0.0, 10.0, grid_points)
    for x in xs:
        worst = nan_max(worst,
                        abs(conjugate_eval(gauss, float(x)) - x * x / 4))
    worst = nan_max(worst, abs(theta_n(gauss, 2) - math.e))
    violations = 0
    for t in np.linspace(0.0, 5.0, 26):
        th = gauss.theta(float(t))
        for x in xs[::5]:
            if t * x > th + conjugate_eval(gauss, float(x)) + 1e-9:
                violations += 1
    passed = bool(worst <= tol) and violations == 0
    return CheckResult("young-conjugate-diagnostics",
                       "quadratic conjugate is x^2/4; the degree-2 weight "
                       "equals e; no Fenchel-Young violations",
                       passed, nan_max(worst, float(violations)), tol,
                       grid_points)


ALL_CHECKS: Dict[str, Callable[..., CheckResult]] = {
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
