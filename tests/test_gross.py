"""Tests for the Gross Laplacian and the convolution products."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    Expansion2,
    RoleError,
    delta0,
    dual_pair,
    evaluate,
    exponential_vector,
    laplace,
    translate,
    vacuum,
)
from grosslap.gross import (
    convolve_dist_dist,
    convolve_dist_test,
    gross_distribution,
    gross_test,
    trace_distribution,
)
from conftest import (
    UNIT_ROUNDOFF,
    gross_parts,
    modulus,
    random_expansion,
    rng_complex,
    rounding_factor,
)


def bilinear(v):
    return sum(complex(x) * complex(x) for x in v)


def test_trace_distribution_laplace():
    T = trace_distribution(1, 1, 8, 8)
    # <xi, xi> + <eta, eta> at xi=(2), eta=(1)
    assert laplace(T, [2], [1]) == pytest.approx(5)


def test_trace_distribution_one_variable():
    T = trace_distribution(2, 0, 6, 0)
    assert laplace(T, [1j, 1]) == pytest.approx(0)  # (1j)^2 + 1 = 0
    assert set(T.coeffs) == {((2, 0), ()), ((0, 2), ())}


def test_gross_of_square_is_constant_two():
    # Laplacian of x^2 in one variable: 2
    phi = Expansion2(1, 0, 4, 0, {((2,), ()): 1 + 0j})
    out = gross_test(phi)
    assert out.coeffs == {((0,), ()): 2 + 0j}


def test_gross_annihilates_low_degree():
    phi = Expansion2(2, 0, 4, 0, {((0, 0), ()): 3 + 0j, ((1, 0), ()): 2j})
    assert gross_test(phi).coeffs == {}


def test_gross_split_sums_to_total(rng):
    phi = random_expansion(rng, 2, 2, 6, 6, 6, 6)
    p1, p2 = gross_parts(phi)
    total = p1.add(p2)
    full = gross_test(phi)
    # summation order differs between the split and combined routes, so
    # agreement is up to rounding, not bitwise
    for key in set(total.coeffs) | set(full.coeffs):
        assert total[key] == pytest.approx(full[key], rel=1e-13, abs=1e-13)


def test_gross_eigen_relation():
    xi, eta = [0.4 + 0.1j], [0.2 - 0.3j]
    e = exponential_vector(xi, eta, 8, 8)
    lhs = gross_test(e)
    rhs = e.scale(bilinear(xi) + bilinear(eta))
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        alpha, beta = key
        if sum(alpha) + sum(beta) > 6:
            continue  # cutoff shadow: inputs of degree cutoff+2 are missing
        assert lhs[key] == pytest.approx(rhs[key], abs=1e-12)


def test_convolve_dist_test_is_translation_pairing(rng):
    # (Phi * phi)(z) = <<Phi, translate(phi, z)>>
    for _ in range(5):
        Phi = random_expansion(rng, 2, 1, 7, 7, 3, 3, role=DISTRIBUTION)
        phi = random_expansion(rng, 2, 1, 7, 7, 7, 7)
        conv = convolve_dist_test(Phi, phi)
        z = rng_complex(rng, 2), rng_complex(rng, 1)
        lhs = evaluate(conv, *z)
        rhs = dual_pair(Phi, translate(phi, *z))
        # Both sides add the terms of |Phi| * |phi| at |z|, in two sums
        # each: the contraction, then the evaluation; the shift, then the
        # pairing.  A contraction's sum for one key has at most one term
        # per term of either operand.
        majorant = evaluate(convolve_dist_test(modulus(Phi), modulus(phi)),
                            abs(z[0]), abs(z[1])).real
        k = rounding_factor(phi, len(Phi.codes), len(conv.codes),
                            len(phi.codes), len(Phi.codes))
        assert abs(lhs - rhs) <= k * UNIT_ROUNDOFF * majorant


def test_trace_convolution_equals_gross_exactly(rng):
    for _ in range(20):
        d1 = int(rng.integers(1, 4))
        d2 = int(rng.integers(0, 4))
        c1 = int(rng.integers(2, 9))
        c2 = int(rng.integers(2, 9)) if d2 else 0
        phi = random_expansion(rng, d1, d2, c1, c2, c1, c2)
        T = trace_distribution(d1, d2, c1, c2)
        assert convolve_dist_test(T, phi).coeffs == gross_test(phi).coeffs


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_convolution_laplace_homomorphism(seed):
    rng = np.random.default_rng(seed)
    A = random_expansion(rng, 2, 1, 8, 8, 3, 3, role=DISTRIBUTION)
    B = random_expansion(rng, 2, 1, 8, 8, 3, 3, role=DISTRIBUTION)
    C = convolve_dist_dist(A, B)
    xi = (rng_complex(rng, 2) / 2).tolist()
    eta = (rng_complex(rng, 1) / 2).tolist()
    assert laplace(C, xi, eta) == pytest.approx(
        laplace(A, xi, eta) * laplace(B, xi, eta), rel=1e-11, abs=1e-11)


def test_convolution_is_associative(rng):
    A = random_expansion(rng, 1, 1, 9, 9, 2, 2, role=DISTRIBUTION)
    B = random_expansion(rng, 1, 1, 9, 9, 2, 2, role=DISTRIBUTION)
    C = random_expansion(rng, 1, 1, 9, 9, 2, 2, role=DISTRIBUTION)
    lhs = convolve_dist_dist(convolve_dist_dist(A, B), C)
    rhs = convolve_dist_dist(A, convolve_dist_dist(B, C))
    for key in set(lhs.coeffs) | set(rhs.coeffs):
        assert lhs[key] == pytest.approx(rhs[key], rel=1e-12, abs=1e-12)


def test_gross_adjointness(rng):
    for _ in range(10):
        Phi = random_expansion(rng, 2, 1, 8, 8, 6, 6, role=DISTRIBUTION)
        phi = random_expansion(rng, 2, 1, 8, 8, 8, 8)
        lhs = dual_pair(gross_distribution(Phi), phi)
        rhs = dual_pair(Phi, gross_test(phi))
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


def test_gross_distribution_raises_degree():
    Phi = Expansion2(1, 0, 6, 0, {((0,), ()): 1 + 0j}, role=DISTRIBUTION)
    out = gross_distribution(Phi)
    assert out.coeffs == {((2,), ()): 1 + 0j}


@pytest.mark.parametrize("call", [
    pytest.param(lambda: convolve_dist_test(delta0(1, 0, 3, 0),
                                            delta0(1, 0, 3, 0)),
                 id="dist-test-right-distribution"),
    pytest.param(lambda: convolve_dist_dist(delta0(1, 0, 3, 0),
                                            vacuum(1, 0, 3, 0)),
                 id="dist-dist-test-operand"),
])
def test_input_errors(call):
    with pytest.raises(RoleError):
        call()


def test_role_guards(rng):
    phi = random_expansion(rng, 1, 0, 4, 0, 4, 0)
    with pytest.raises(RoleError):
        gross_test(phi.with_role(DISTRIBUTION))
    with pytest.raises(RoleError):
        gross_distribution(phi)
    with pytest.raises(RoleError):
        convolve_dist_test(phi, phi)
