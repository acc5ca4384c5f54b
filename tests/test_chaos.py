"""Tests for two-variable chaos expansions: evaluation, translation, pairing."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    Point2,
    RoleError,
    delta0,
    dual_pair,
    evaluate,
    expansion_from_json,
    expansion_to_json,
    exponential_vector,
    laplace,
    pointwise_product,
    translate,
    vacuum,
)
from grosslap.tensor_core import DimensionMismatchError
from conftest import random_expansion, rng_complex


def test_exponential_vector_evaluates_to_exp():
    e = exponential_vector([0.3], [0.4], 12, 12)
    val = evaluate(e, Point2.of([1], [1]))
    assert val == pytest.approx(math.exp(0.7), abs=1e-9)


def test_exponential_vector_coefficients():
    e = exponential_vector([2.0], [3.0], 4, 4)
    assert e[((2,), (1,))] == pytest.approx(4 / 2 * 3)
    assert e[((0,), (0,))] == 1


def test_vacuum_is_constant_one():
    e0 = vacuum(2, 2, 5, 5)
    for _ in range(3):
        rng = np.random.default_rng(7)
        p = Point2.of(rng_complex(rng, 2).tolist(), rng_complex(rng, 2).tolist())
        assert evaluate(e0, p) == 1


def test_translate_square():
    # (x + 1)^2 = 1 + 2x + x^2; monomial coefficients carry the orbit weight,
    # so evaluation is the real check.
    phi = Expansion2(1, 0, 4, 0, {((2,), ()): 1 + 0j})
    shifted = translate(phi, Point2.of([1]))
    assert evaluate(shifted, Point2.of([2])) == pytest.approx(9)
    assert shifted[((0,), ())] == 1
    assert shifted[((1,), ())] == 2
    assert shifted[((2,), ())] == 1


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_translate_agrees_with_shifted_evaluation(seed):
    rng = np.random.default_rng(seed)
    d1, d2 = int(rng.integers(1, 3)), int(rng.integers(0, 3))
    phi = random_expansion(rng, d1, d2, 5, 5 if d2 else 0, 5, 5)
    s = Point2.of(rng_complex(rng, d1).tolist(),
                  rng_complex(rng, d2).tolist() if d2 else ())
    p = Point2.of(rng_complex(rng, d1).tolist(),
                  rng_complex(rng, d2).tolist() if d2 else ())
    lhs = evaluate(translate(phi, s), p)
    rhs = evaluate(phi, p + s)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_translate_composes(seed):
    rng = np.random.default_rng(seed)
    phi = random_expansion(rng, 2, 0, 4, 0, 4, 0)
    s1 = Point2.of(rng_complex(rng, 2).tolist())
    s2 = Point2.of(rng_complex(rng, 2).tolist())
    once = translate(phi, s1 + s2)
    twice = translate(translate(phi, s1), s2)
    for key in set(once.coeffs) | set(twice.coeffs):
        assert once[key] == pytest.approx(twice[key], rel=1e-11, abs=1e-11)


def test_dual_pair_example():
    # distribution with the trace tensor at degree (2, 0) against x^2
    Phi = Expansion2(1, 0, 4, 0, {((2,), ()): 1 + 0j}, role=DISTRIBUTION)
    phi = Expansion2(1, 0, 4, 0, {((2,), ()): 1 + 0j})
    assert dual_pair(Phi, phi) == pytest.approx(2)


def test_dual_pair_exponential_vectors():
    # <<delta-like distribution built from e_xi coefficients, e_eta>> should
    # reproduce exp(<xi, eta>) up to the cutoff tail.
    xi, eta = [0.3, -0.2], [0.5, 0.1]
    exi = exponential_vector(xi, [], 14, 0).with_role(DISTRIBUTION)
    eeta = exponential_vector(eta, [], 14, 0)
    expected = math.exp(sum(a * b for a, b in zip(xi, eta)))
    assert dual_pair(exi, eeta) == pytest.approx(expected, abs=1e-10)


def test_laplace_of_delta0_is_one():
    D = delta0(2, 1, 5, 5)
    assert laplace(D, [1.0, 2.0], [3.0]) == 1


def test_role_guards():
    phi = vacuum(1, 0, 3, 0)
    with pytest.raises(RoleError):
        laplace(phi, [1.0])
    with pytest.raises(RoleError):
        evaluate(phi.with_role(DISTRIBUTION), Point2.of([1.0]))
    with pytest.raises(RoleError):
        dual_pair(phi, phi)


def test_dimension_guards():
    phi = vacuum(2, 1, 3, 3)
    with pytest.raises(DimensionMismatchError):
        evaluate(phi, Point2.of([1.0]))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_pointwise_product_matches_evaluation(seed):
    rng = np.random.default_rng(seed)
    f = random_expansion(rng, 2, 1, 8, 8, 3, 3)
    g = random_expansion(rng, 2, 1, 8, 8, 3, 3)
    h = pointwise_product(f, g)
    assert not h.truncated  # degree sums stay within the cutoffs
    p = Point2.of(rng_complex(rng, 2).tolist(), rng_complex(rng, 1).tolist())
    assert evaluate(h, p) == pytest.approx(evaluate(f, p) * evaluate(g, p),
                                           rel=1e-11, abs=1e-11)


def test_pointwise_product_flags_truncation():
    f = Expansion2(1, 0, 3, 0, {((2,), ()): 1 + 0j})
    h = pointwise_product(f, f)
    assert h.truncated
    assert h.coeffs == {}


def test_evaluate_complex_step_derivative(rng):
    # evaluate is entire in the point, so for real coefficients a
    # complex-step derivative must match a central difference.
    phi = random_expansion(rng, 2, 0, 6, 0, 6, 0)
    phi = Expansion2(2, 0, 6, 0, {k: complex(v.real) for k, v in phi.coeffs.items()})
    h = 1e-20
    x = [0.3, -0.4]
    num = evaluate(phi, Point2.of([x[0] + 1j * h, x[1]])).imag / h
    hh = 1e-6
    sym = (evaluate(phi, Point2.of([x[0] + hh, x[1]]))
           - evaluate(phi, Point2.of([x[0] - hh, x[1]]))) / (2 * hh)
    assert num == pytest.approx(sym, rel=1e-8, abs=1e-8)


def test_expansion_is_not_iterable():
    # __getitem__ answers every key, so without __iter__ = None the legacy
    # protocol would probe phi[0], phi[1], ... forever.
    phi = Expansion2(1, 0, 3, 0, {((1,), ()): 2 + 0j})
    with pytest.raises(TypeError):
        iter(phi)
    with pytest.raises(TypeError):
        ((1,), ()) in phi


@pytest.mark.parametrize("key, error", [
    pytest.param(((1,), ()), DimensionMismatchError, id="short-alpha"),
    pytest.param(((1, 0), (0,)), DimensionMismatchError, id="long-beta"),
    pytest.param(((-1, 3), ()), ValueError, id="negative-occupation"),
    pytest.param(((0, -1), ()), ValueError, id="negative-below-cutoff"),
    pytest.param(((2, 2), ()), ValueError, id="degree-over-cutoff"),
    pytest.param(((2 ** 70, 0), ()), ValueError, id="huge-occupation"),
])
def test_constructor_rejects_bad_keys(key, error):
    # A negative digit would also alias another key's code.
    with pytest.raises(error):
        Expansion2(2, 0, 3, 0, {((0, 1), ()): 1 + 0j, key: 1 + 0j})


def test_json_roundtrip(rng):
    phi = random_expansion(rng, 2, 2, 4, 3, 4, 3, role=DISTRIBUTION)
    back = expansion_from_json(expansion_to_json(phi))
    assert back.coeffs == phi.coeffs
    assert back.role == DISTRIBUTION
    assert (back.cutoff1, back.cutoff2) == (4, 3)
