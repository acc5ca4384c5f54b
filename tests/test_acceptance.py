"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Every criterion pits the library against an independent oracle (dense
contraction, exact coefficient identity, Gaussian moments, the exact
piecewise symbol flow, a discrete Legendre transform on a grid) at pinned
tolerances.  Each suite is a function of its seed alone; these tests pin
the tolerance and sample count it reports.
"""

import dataclasses
import math

import pytest

from grosslap import verify
from grosslap.verify import (
    ALL_CHECKS,
    CheckResult,
    HEAT_GAUSS_TOL,
    HEAT_ODE_TOL,
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


def report(criterion, result, tolerance, samples):
    status = "PASS" if result.passed else "FAIL"
    print(f"[criterion {criterion:2d}] {result.name}: {status} "
          f"(max_error={result.max_error:.3e}, tolerance={result.tolerance:.1e}, "
          f"samples={result.samples})")
    assert (result.tolerance, result.samples) == (tolerance, samples)
    assert result.passed, result


def test_criterion_01_contraction_oracle():
    report(1, check_contraction_oracle(), 1e-12, 200)


def test_criterion_02_trace_convolution_exact():
    report(2, check_trace_convolution(), 0.0, 100)


def test_criterion_03_exponential_eigenvalue():
    report(3, check_exponential_eigenvalue(), 1e-12, 50)


def test_criterion_04_laplace_homomorphism():
    report(4, check_laplace_homomorphism(), 1e-11, 50 * 20)


def test_criterion_05_gross_adjointness():
    report(5, check_gross_adjointness(), 1e-11, 50)


def test_criterion_06_symbol_multiplier():
    report(6, check_symbol_multiplier(), 1e-11, 20 * 20)


def test_criterion_07_multiplication_bridge():
    report(7, check_multiplication_bridge(), 1e-11, 50)


def test_criterion_08_heat_oracle_triangle():
    # The report folds the Gaussian and symbol-flow tolerances into 1.0.
    assert (HEAT_GAUSS_TOL, HEAT_ODE_TOL) == (1e-10, 1e-6)
    report(8, check_heat_triangle(), 1.0, 4)


def test_criterion_09_evolution_residual():
    # Five times, each over the 9 x 9 symbol grid of a (1, 1) kernel.
    report(9, check_evolution_residual(), 1e-6, 5 * 81)


def test_criterion_10_young_diagnostics():
    # One-sided band of the grid oracle, up to 2^-47 of rounding.
    report(10, check_young_diagnostics(), 2.0 ** -47, 100)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(ALL_CHECKS))
def test_every_suite_passes_at_other_seeds(name, seed):
    # The criteria above run at seed 42; each suite must hold at any seed,
    # and passes by the one rule, its reported error within its tolerance.
    res = ALL_CHECKS[name](seed)
    assert res.name == name
    assert res.passed is (res.max_error <= res.tolerance)
    assert res.passed


# Every suite's max_error at two seeds, as `float.hex`: a change meant to
# leave the arithmetic alone, such as a faster path to the same sums,
# must keep each of these bits.
PINNED_ERRORS = {
    42: {
        "contraction-dense-oracle": "0x1.1af7a960ef65cp-50",
        "trace-convolution-equals-gross": "0x0.0p+0",
        "exponential-eigenvalue": "0x1.854bfb363dc38p-52",
        "laplace-convolution-homomorphism": "0x1.b118ea48f71c4p-49",
        "gross-adjointness": "0x1.8130674a394cdp-50",
        "quantum-symbol-multiplier": "0x1.7d585d3a6165fp-50",
        "multiplication-operator-bridge": "0x0.0p+0",
        "heat-oracle-triangle": "0x1.657e4af98618dp-10",
        "evolution-symbol-residual": "0x1.2f8864076bbc5p-40",
        "young-conjugate-diagnostics": "0x0.0p+0",
    },
    7: {
        "contraction-dense-oracle": "0x1.a203e78fc62d4p-51",
        "trace-convolution-equals-gross": "0x0.0p+0",
        "exponential-eigenvalue": "0x1.07e0f66afed07p-52",
        "laplace-convolution-homomorphism": "0x1.23f8fc68ae52ap-49",
        "gross-adjointness": "0x1.7427e8bd6f401p-50",
        "quantum-symbol-multiplier": "0x1.6a82fa4113d37p-50",
        "multiplication-operator-bridge": "0x0.0p+0",
        "heat-oracle-triangle": "0x1.47bfb7d03668ap-10",
        "evolution-symbol-residual": "0x1.ced9a2a062d98p-46",
        "young-conjugate-diagnostics": "0x0.0p+0",
    },
}


@pytest.mark.parametrize("seed", sorted(PINNED_ERRORS))
def test_suite_errors_keep_their_bits(seed):
    got = {name: float(check(seed).max_error).hex()
           for name, check in ALL_CHECKS.items()}
    assert got == PINNED_ERRORS[seed]


def test_criterion_02_fails_on_one_ulp(monkeypatch):
    # Gross Laplacian coefficients scaled by 1 + 2^-52 must count as
    # failures: the suite asks for exact equality.
    gross_test = verify.gross_test
    monkeypatch.setattr(verify, "gross_test",
                        lambda phi: gross_test(phi).scale(1 + 2.0 ** -52))
    res = check_trace_convolution()
    assert res.max_error > 0
    assert res.passed is False


def test_criterion_01_sees_the_solvers_contraction(monkeypatch):
    # The sparse side is the distribution-test contraction the solvers run,
    # so a fault in it, here a relative 1e-9, fails the criterion.
    import grosslap.tensor_core
    exact = grosslap.tensor_core.convolve_dist_test
    monkeypatch.setattr(grosslap.tensor_core, "convolve_dist_test",
                        lambda Phi, phi: exact(Phi, phi).scale(1 + 1e-9))
    res = check_contraction_oracle(42)
    assert res.max_error > res.tolerance
    assert res.passed is False


def test_nan_error_fails_and_passed_is_read_only():
    res = CheckResult("s", "identity", math.nan, 1.0, 1)
    assert res.passed is False
    assert CheckResult("s", "identity", 1.0, 1.0, 1).passed is True
    assert "passed" not in {f.name for f in dataclasses.fields(CheckResult)}
    with pytest.raises(AttributeError):
        res.passed = True
