"""Tests for Young functions, conjugates and growth diagnostics."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import Expansion2
from grosslap.young import (
    YoungFunctionSpec,
    check_growth_condition,
    conjugate_eval,
    growth_norm_estimate,
    theta_n,
)


def test_family_validation():
    with pytest.raises(ValueError):
        YoungFunctionSpec("nope")
    with pytest.raises(ValueError):
        YoungFunctionSpec("power")  # missing exponent
    with pytest.raises(ValueError):
        YoungFunctionSpec("power", 0.5)


def test_theta_values():
    assert YoungFunctionSpec("gaussian").theta(3.0) == 9.0
    assert YoungFunctionSpec("power", 3).theta(2.0) == pytest.approx(8 / 3)
    assert YoungFunctionSpec("expm1").theta(1.0) == pytest.approx(math.e - 2)


def test_gaussian_conjugate_closed_form():
    gauss = YoungFunctionSpec("gaussian")
    for x in np.linspace(0, 10, 100):
        assert conjugate_eval(gauss, float(x)) == pytest.approx(x * x / 4,
                                                                abs=1e-8)


def test_power_conjugate_closed_form():
    # conjugate of x^p/p is x^q/q with 1/p + 1/q = 1
    p = 3.0
    q = p / (p - 1)
    spec = YoungFunctionSpec("power", p)
    for x in [0.5, 1.0, 2.0, 5.0]:
        assert conjugate_eval(spec, x) == pytest.approx(x ** q / q, rel=1e-8)


def test_expm1_conjugate_closed_form():
    # conjugate of e^t - 1 - t is (1 + x) log(1 + x) - x
    spec = YoungFunctionSpec("expm1")
    for x in [0.1, 1.0, 10.0, 1e3]:
        assert conjugate_eval(spec, x) == pytest.approx(
            (1 + x) * math.log1p(x) - x, rel=1e-12)


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_power_conjugate_closed_form_far_out(p):
    # At x = 1e3 the maximiser x^{1/(p-1)} is 1e6 for p = 1.5, so the
    # bracket doubles twenty times before the search.
    q = p / (p - 1)
    x = 1e3
    assert conjugate_eval(YoungFunctionSpec("power", p), x) == pytest.approx(
        x ** q / q, rel=1e-12)


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
    # minimum of e^{r^2}/r^n sits at r = sqrt(n/2)
    for n in [1, 3, 4, 6]:
        r = math.sqrt(n / 2)
        assert theta_n(gauss, n) == pytest.approx(math.exp(r * r) / r ** n,
                                                  rel=1e-10)


def test_theta_n_decreasing_for_gaussian():
    gauss = YoungFunctionSpec("gaussian")
    vals = [theta_n(gauss, n) for n in range(4, 13, 2)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("k, n", [(3, 1), (3, 3), (80, 1), (80, 3)])
def test_theta_n_power_closed_form(k, n):
    # r^k / k - n log r is least at r^k = n.  For k = 80 the search's first
    # probe, r = e^9.44, overflows theta.
    want = math.exp(n / k) * n ** (-n / k)
    assert theta_n(YoungFunctionSpec("power", k), n) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 3, 10])
def test_theta_n_expm1_closed_form(n):
    # e^r - 1 - r - n log r is least where r (e^r - 1) = n; found by
    # bisection.  theta overflows at the search's first probe.
    lo, hi = 0.0, 10.0
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if mid * math.expm1(mid) < n else (lo, mid)
    want = math.exp(math.expm1(lo) - lo - n * math.log(lo))
    assert theta_n(YoungFunctionSpec("expm1"), n) == pytest.approx(
        want, rel=1e-12)


@pytest.mark.parametrize("x", [1e13, 1e100])
def test_gaussian_conjugate_past_the_old_bracket_cap(x):
    # The maximiser x/2 lies past 1e12, where the bracket used to stop.
    assert conjugate_eval(YoungFunctionSpec("gaussian"), x) == pytest.approx(
        x * x / 4, rel=1e-12)


def test_power_conjugate_where_theta_overflows():
    # Bracketing the maximiser x^{1/79} ~ 6.3e3 probes t where t^80
    # overflows.
    k, x = 80, 1e300
    q = k / (k - 1)
    assert conjugate_eval(YoungFunctionSpec("power", k), x) == pytest.approx(
        x ** q / q, rel=1e-12)


def test_linear_conjugate_is_zero_or_infinite():
    # theta(t) = t: theta*(x) = sup t (x - 1) is 0 for x <= 1, +inf above.
    spec = YoungFunctionSpec("power", 1)
    assert conjugate_eval(spec, 0.5) == 0
    assert conjugate_eval(spec, 2.0) == math.inf


def test_growth_condition():
    assert check_growth_condition(YoungFunctionSpec("gaussian"))
    assert check_growth_condition(YoungFunctionSpec("power", 1.5))
    assert not check_growth_condition(YoungFunctionSpec("expm1"))
    assert not check_growth_condition(YoungFunctionSpec("power", 4))


def test_growth_norm_estimate_deterministic():
    phi = Expansion2(1, 0, 4, 0, {((2,), ()): 1 + 0j})
    gauss = YoungFunctionSpec("gaussian")
    a = growth_norm_estimate(phi, 1.0, 1.0, gauss, gauss, samples=200, seed=5)
    b = growth_norm_estimate(phi, 1.0, 1.0, gauss, gauss, samples=200, seed=5)
    assert a == b
    assert a > 0


def test_growth_norm_estimate_propagates_nan():
    phi = Expansion2(1, 0, 4, 0, {((1,), ()): math.nan})
    gauss = YoungFunctionSpec("gaussian")
    assert math.isnan(growth_norm_estimate(phi, 1.0, 1.0, gauss, gauss,
                                           samples=20))
