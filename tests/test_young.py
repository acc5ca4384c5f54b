"""Tests for Young functions, conjugates, weights and the growth condition.

The conjugates and weights are closed forms, so each family is checked
against the extremum that defines it rather than against its formula:
theta*(x) bounds t x - theta(t) on a t-grid and equals it at the
maximiser, and theta_n bounds e^{theta(r)} / r^n on an r-grid and equals
it at the minimiser.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.young import (
    YoungFunctionSpec,
    check_growth_condition,
    conjugate_eval,
    theta_n,
)


def assert_conjugate_is_the_sup(spec, x, t_star):
    """conjugate_eval(spec, x) is sup_t (t x - theta(t)), attained at t_star."""
    value = conjugate_eval(spec, x)
    assert value == pytest.approx(t_star * x - spec.theta(t_star), rel=1e-12)
    grid = np.concatenate([np.linspace(0.0, 10.0, 41),
                           t_star * np.linspace(0.5, 1.5, 41)])
    for t in grid.tolist():
        assert value >= t * x - spec.theta(t) - 1e-12 * value


def assert_theta_n_is_the_inf(spec, n, r_star):
    """theta_n(spec, n) is inf_r e^{theta(r)} / r^n, attained at r_star."""
    def log_weight(r):
        return spec.theta(r) - n * math.log(r)

    value = theta_n(spec, n)
    assert value == pytest.approx(math.exp(log_weight(r_star)), rel=1e-12)
    grid = np.concatenate([np.geomspace(1e-3, 10.0, 41),
                           r_star * np.linspace(0.5, 1.5, 41)])
    for r in grid.tolist():
        assert math.log(value) <= log_weight(r) + 1e-12


def expm1_weight_point(n):
    """The root of r (e^r - 1) = n, by bisection."""
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid * math.expm1(mid) < n else (lo, mid)
    return lo


def test_family_validation():
    with pytest.raises(ValueError):
        YoungFunctionSpec("nope")
    with pytest.raises(ValueError):
        YoungFunctionSpec("power")  # missing exponent
    with pytest.raises(ValueError):
        YoungFunctionSpec("power", 0.5)


@pytest.mark.parametrize("family, k", [("gaussian", None), ("power", 3.0),
                                       ("expm1", None)])
@pytest.mark.parametrize("n", [0, -1])
def test_input_errors(family, k, n):
    with pytest.raises(ValueError, match="n >= 1"):
        theta_n(YoungFunctionSpec(family, k), n)


def test_theta_values():
    assert YoungFunctionSpec("gaussian").theta(3.0) == 9.0
    assert YoungFunctionSpec("power", 3).theta(2.0) == pytest.approx(8 / 3)
    assert YoungFunctionSpec("expm1").theta(1.0) == pytest.approx(math.e - 2)


@pytest.mark.parametrize("spec", [YoungFunctionSpec("gaussian"),
                                  YoungFunctionSpec("power", 3),
                                  YoungFunctionSpec("expm1")])
def test_theta_and_conjugate_are_infinite_at_infinity(spec):
    assert spec.theta(math.inf) == math.inf
    assert conjugate_eval(spec, math.inf) == math.inf


def test_gaussian_conjugate_closed_form():
    # t x - t^2 is largest at t = x/2.
    gauss = YoungFunctionSpec("gaussian")
    for x in np.linspace(0, 10, 100).tolist():
        assert_conjugate_is_the_sup(gauss, x, x / 2)


def test_power_conjugate_closed_form():
    # t x - t^p/p is largest at t^(p-1) = x.
    p = 3.0
    spec = YoungFunctionSpec("power", p)
    for x in [0.5, 1.0, 2.0, 5.0]:
        assert_conjugate_is_the_sup(spec, x, x ** (1 / (p - 1)))


def test_expm1_conjugate_closed_form():
    # t x - (e^t - 1 - t) is largest at e^t = 1 + x.
    spec = YoungFunctionSpec("expm1")
    for x in [0.01, 0.1, 1.0, 10.0, 1e3]:
        assert_conjugate_is_the_sup(spec, x, math.log1p(x))


# Both expm1 values are about x^2/2 at small x, where their closed forms
# cancel; two points sit on each side of the switches at 0.1 and 2.
EXPM1_POINTS = ([10.0 ** e for e in range(-150, 1, 6)]
                + [0.0999, 0.1, 0.3, 0.5, 0.9, 1.0, 1.7, 1.999, 2.0, 2.5,
                   3.7, 5.0, 7.3, 10.0])


@pytest.mark.parametrize("which", ["theta", "conjugate"])
def test_expm1_values_within_4_ulps_of_mpmath(which):
    import mpmath
    spec = YoungFunctionSpec("expm1")
    for x in EXPM1_POINTS:
        # Enough digits that the reference's own subtraction loses none.
        with mpmath.workdps(40 + 2 * max(0, -math.floor(math.log10(x)))):
            m = mpmath.mpf(x)
            exact = (mpmath.expm1(m) - m if which == "theta"
                     else (1 + m) * mpmath.log1p(m) - m)
            value = (spec.theta(x) if which == "theta"
                     else conjugate_eval(spec, x))
            ulps = abs(mpmath.mpf(value) - exact) / math.ulp(float(exact))
        assert ulps <= 4, (which, x, float(ulps))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_power_conjugate_closed_form_far_out(p):
    # At x = 1e3 the maximiser x^{1/(p-1)} is 1e6 for p = 1.5.
    x = 1e3
    assert_conjugate_is_the_sup(YoungFunctionSpec("power", p), x,
                                x ** (1 / (p - 1)))


@settings(max_examples=25, deadline=None)
@given(st.floats(0.0, 8.0), st.floats(0.0, 8.0))
def test_fenchel_young_inequality(t, x):
    gauss = YoungFunctionSpec("gaussian")
    assert t * x <= gauss.theta(t) + conjugate_eval(gauss, x) + 1e-9


def test_double_conjugate_recovers_theta():
    spec = YoungFunctionSpec("power", 3)

    conj = YoungFunctionSpec("power", 1.5)  # closed-form conjugate family
    for x in [0.3, 1.0, 2.5]:
        assert conjugate_eval(conj, x) == pytest.approx(spec.theta(x), abs=1e-6)


def test_theta_n_gaussian():
    gauss = YoungFunctionSpec("gaussian")
    assert theta_n(gauss, 2) == pytest.approx(math.e, abs=1e-8)
    # r^2 - n log r is least at r = sqrt(n/2).
    for n in [1, 3, 4, 6]:
        assert_theta_n_is_the_inf(gauss, n, math.sqrt(n / 2))


def test_theta_n_decreasing_for_gaussian():
    gauss = YoungFunctionSpec("gaussian")
    vals = [theta_n(gauss, n) for n in range(4, 13, 2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k, n", [(3, 1), (3, 3), (80, 1), (80, 3), (1, 1),
                                  (1, 4), (1.5, 3)])
def test_theta_n_power_closed_form(k, n):
    # r^k / k - n log r is least at r^k = n.  For k = 80, theta overflows
    # on the upper half of the r-grid.
    assert_theta_n_is_the_inf(YoungFunctionSpec("power", k), n,
                              n ** (1 / k))


@pytest.mark.parametrize("n", [1, 3, 10])
def test_theta_n_expm1_closed_form(n):
    # e^r - 1 - r - n log r is least where r (e^r - 1) = n.
    assert_theta_n_is_the_inf(YoungFunctionSpec("expm1"), n,
                              expm1_weight_point(n))


@pytest.mark.parametrize("x", [1e13, 1e100])
def test_gaussian_conjugate_past_the_old_bracket_cap(x):
    # The maximiser x/2 lies far past the fixed part of the t-grid.
    assert_conjugate_is_the_sup(YoungFunctionSpec("gaussian"), x, x / 2)


def test_power_conjugate_where_theta_overflows():
    # The maximiser is x^{1/79} ~ 6.3e3; t^80 overflows on the upper half
    # of the t-grid around it, and the conjugate itself is near 1e304.
    k, x = 80, 1e300
    assert_conjugate_is_the_sup(YoungFunctionSpec("power", k), x,
                                x ** (1 / (k - 1)))


def test_power_conjugate_overflows_to_infinity():
    # x^(1/(k-1)) = (1e300)^(1e7) overflows a double.
    assert conjugate_eval(YoungFunctionSpec("power", 1 + 1e-7), 1e300) \
        == math.inf


def test_linear_conjugate_is_zero_or_infinite():
    # theta(t) = t: theta*(x) = sup t (x - 1) is 0 for x <= 1, +inf above.
    spec = YoungFunctionSpec("power", 1)
    assert conjugate_eval(spec, 0.5) == 0
    assert conjugate_eval(spec, 1.0) == 0
    assert conjugate_eval(spec, 2.0) == math.inf
    assert_conjugate_is_the_sup(spec, 0.5, 0.0)


def test_growth_condition():
    # limsup theta(x) / x^2 < inf: x^(k-2)/k is bounded exactly for k <= 2.
    assert check_growth_condition(YoungFunctionSpec("gaussian"))
    assert check_growth_condition(YoungFunctionSpec("power", 1))
    assert check_growth_condition(YoungFunctionSpec("power", 1.5))
    assert check_growth_condition(YoungFunctionSpec("power", 2))
    assert not check_growth_condition(YoungFunctionSpec("power", 2.001))
    assert not check_growth_condition(YoungFunctionSpec("power", 2.004))
    assert not check_growth_condition(YoungFunctionSpec("expm1"))
    assert not check_growth_condition(YoungFunctionSpec("power", 4))
