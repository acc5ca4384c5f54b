"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion pits the library against an independent oracle (dense
contraction, exact coefficient identity, Gaussian moments, the exact
piecewise symbol flow, closed-form Legendre transforms) at pinned tolerances.
"""

import pytest

from grosslap.verify import (
    check_contraction_oracle,
    check_evolution_residual,
    check_exponential_eigenvalue,
    check_gross_adjointness,
    check_heat_triangle,
    check_laplace_homomorphism,
    check_multiplication_bridge,
    check_symbol_multiplier,
    check_trace_convolution,
    check_young_diagnostics,
)


def report(criterion, result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {criterion:2d}] {result.name}: {status} "
          f"(max_error={result.max_error:.3e}, tolerance={result.tolerance:.1e}, "
          f"samples={result.samples})")
    assert result.passed, result


def test_criterion_01_contraction_oracle():
    report(1, check_contraction_oracle(pairs=200, tol=1e-12))


def test_criterion_02_trace_convolution_exact():
    report(2, check_trace_convolution(polys=100))


def test_criterion_03_exponential_eigenvalue():
    report(3, check_exponential_eigenvalue(points=50, cutoff=8, max_degree=6,
                                           tol=1e-12))


def test_criterion_04_laplace_homomorphism():
    report(4, check_laplace_homomorphism(pairs=50, points=20, tol=1e-11))


def test_criterion_05_gross_adjointness():
    report(5, check_gross_adjointness(pairs=50, tol=1e-11))


def test_criterion_06_symbol_multiplier():
    report(6, check_symbol_multiplier(kernels=20, points=20, tol=1e-11))


def test_criterion_07_multiplication_bridge():
    report(7, check_multiplication_bridge(samples=50, max_degree=4, tol=1e-11))


def test_criterion_08_heat_oracle_triangle():
    report(8, check_heat_triangle(max_degree=4, times=(0.1, 0.5, 1.0, 2.0),
                                  gauss_tol=1e-10, ode_tol=1e-6))


def test_criterion_09_evolution_residual():
    report(9, check_evolution_residual(samples=10, tol=1e-6, fd_step=1e-4))


def test_criterion_10_young_diagnostics():
    report(10, check_young_diagnostics(grid_points=100, tol=1e-8))
