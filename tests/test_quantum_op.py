"""Tests for operator kernels, symbols and the operator Gross Laplacian."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    DimensionMismatchError,
    Expansion2,
    RoleError,
    delta0,
    dual_pair,
    exponential_vector,
    laplace,
    nan_max,
    pointwise_product,
    vacuum,
)
from grosslap.evolution import solve
from grosslap.gross import (
    convolve_dist_dist,
    gross_distribution,
    gross_test,
    trace_distribution,
)
from grosslap.quantum_op import (
    apply_operator,
    classical_quantum_bridge,
    kernel_from_json,
    kernel_to_json,
    multiplication_operator,
    quantum_gross,
    symbol,
    tensor_expansion,
)
from conftest import random_expansion, rng_complex


def bilinear(v):
    return sum(complex(x) * complex(x) for x in v)


def test_kernel_requires_distribution(rng):
    # Every function that takes an operator rejects a test-role kernel.
    K = random_expansion(rng, 1, 1, 3, 3, 2, 2)
    for call in (lambda: symbol(K, [0.5], [0.5]),
                 lambda: apply_operator(K, vacuum(1, 0, 3, 0)),
                 lambda: quantum_gross(K),
                 lambda: solve(K, [0.5]),
                 lambda: kernel_from_json(kernel_to_json(K))):
        with pytest.raises(RoleError,
                           match="operator kernels must be distributions"):
            call()


def _kernel():
    return delta0(1, 1, 3, 3)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: apply_operator(_kernel(), delta0(1, 0, 3, 0)),
                 RoleError, "test function", id="apply-distribution"),
    pytest.param(lambda: apply_operator(_kernel(), vacuum(1, 1, 3, 3)),
                 DimensionMismatchError, "one-variable",
                 id="apply-two-variable"),
    pytest.param(lambda: apply_operator(_kernel(), vacuum(1, 0, 4, 0)),
                 DimensionMismatchError, "first variable",
                 id="apply-other-cutoff"),
    pytest.param(lambda: multiplication_operator(vacuum(1, 0, 3, 0)),
                 RoleError, "needs a distribution",
                 id="multiplication-test-function"),
    pytest.param(lambda: multiplication_operator(delta0(1, 1, 3, 3)),
                 DimensionMismatchError, "one-variable",
                 id="multiplication-two-variable"),
    pytest.param(lambda: tensor_expansion(vacuum(1, 1, 3, 3),
                                          vacuum(1, 0, 3, 0)),
                 DimensionMismatchError, "one-variable",
                 id="tensor-two-variable"),
    pytest.param(lambda: tensor_expansion(vacuum(1, 0, 3, 0),
                                          delta0(1, 0, 3, 0)),
                 RoleError, "matching roles", id="tensor-mixed-roles"),
])
def test_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_identity_symbol_is_one():
    I = delta0(2, 2, 5, 5)
    assert symbol(I, [0.3, 1j], [2.0, -1]) == 1


def test_trace_kernel_symbol():
    T = trace_distribution(1, 1, 8, 8)
    assert symbol(T, [2], [1]) == pytest.approx(5)


def test_symbol_is_exponential_matrix_element(rng):
    # sigma(Xi)(xi, eta) = <<Xi e_xi, e_eta>>, computed here the long way
    # through apply_operator and the dual pairing.
    K = random_expansion(rng, 2, 1, 6, 6, 3, 3, role=DISTRIBUTION)
    xi = (rng_complex(rng, 2) / 2).tolist()
    eta = (rng_complex(rng, 1) / 2).tolist()
    e_xi = exponential_vector(xi, [], 6, 0)
    e_eta = exponential_vector(eta, [], 6, 0)
    applied = apply_operator(K, e_xi)
    direct = symbol(K, xi, eta)
    via_pairing = dual_pair(applied, e_eta)
    assert via_pairing == pytest.approx(direct, rel=1e-10, abs=1e-10)


def test_apply_operator_matches_tensor_pairing(rng):
    # <<Xi f, g>> = <<kernel, f (x) g>>
    K = random_expansion(rng, 2, 2, 5, 5, 5, 5, role=DISTRIBUTION)
    f = random_expansion(rng, 2, 0, 5, 0, 5, 0)
    g = random_expansion(rng, 2, 0, 5, 0, 5, 0)
    lhs = dual_pair(apply_operator(K, f), g)
    rhs = dual_pair(K, tensor_expansion(f, g))
    assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-11)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_operator_convolution_multiplies_symbols(seed):
    # Operators convolve through their kernels, two-variable distributions.
    rng = np.random.default_rng(seed)
    A = random_expansion(rng, 1, 2, 8, 8, 3, 3, role=DISTRIBUTION)
    B = random_expansion(rng, 1, 2, 8, 8, 3, 3, role=DISTRIBUTION)
    C = convolve_dist_dist(A, B)
    xi = (rng_complex(rng, 1) / 2).tolist()
    eta = (rng_complex(rng, 2) / 2).tolist()
    assert symbol(C, xi, eta) == pytest.approx(
        symbol(A, xi, eta) * symbol(B, xi, eta), rel=1e-11, abs=1e-11)


def test_quantum_gross_symbol_multiplier(rng):
    K = random_expansion(rng, 2, 2, 8, 8, 6, 6, role=DISTRIBUTION)
    L = quantum_gross(K)
    for _ in range(5):
        xi = (rng_complex(rng, 2) / 2).tolist()
        eta = (rng_complex(rng, 2) / 2).tolist()
        assert symbol(L, xi, eta) == pytest.approx(
            (bilinear(xi) + bilinear(eta)) * symbol(K, xi, eta),
            rel=1e-11, abs=1e-11)


def test_multiplication_operator_symbol_and_vacuum(rng):
    Phi = random_expansion(rng, 2, 0, 8, 0, 4, 0, role=DISTRIBUTION)
    M = multiplication_operator(Phi)
    xi = (rng_complex(rng, 2) / 2).tolist()
    eta = (rng_complex(rng, 2) / 2).tolist()
    shifted = [a + b for a, b in zip(xi, eta)]
    assert symbol(M, xi, eta) == pytest.approx(laplace(Phi, shifted),
                                               rel=1e-11, abs=1e-11)
    # M_Phi applied to the constant function returns Phi itself
    e0 = vacuum(2, 0, 8, 0)
    out = apply_operator(M, e0)
    assert out.coeffs == Phi.coeffs


def test_multiplication_operator_is_multiplication(rng):
    # <<M_Phi f, g>> = <<Phi, f g>>
    Phi = random_expansion(rng, 1, 0, 8, 0, 4, 0, role=DISTRIBUTION)
    f = random_expansion(rng, 1, 0, 8, 0, 4, 0)
    g = random_expansion(rng, 1, 0, 8, 0, 4, 0)
    lhs = dual_pair(apply_operator(multiplication_operator(Phi), f), g)
    rhs = dual_pair(Phi, pointwise_product(f, g))
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


# The paper's two operator identities, on 40 draws each over dims 1-3 at
# cutoff 8.  The worst relative gaps at seed 3 are 5.7e-16 and 2.1e-15.
IDENTITY_DRAWS = 40
IDENTITY_CUTOFF = 8


def test_quantum_gross_is_gross_on_both_sides():
    # Delta_QG Xi = Xi o Delta_G + Delta_G^* o Xi, applied to a test function
    # f, for a kernel of degree <= cutoff - 2 so that Delta_QG drops nothing.
    rng = np.random.default_rng(3)
    c = IDENTITY_CUTOFF
    worst = 0.0
    for _ in range(IDENTITY_DRAWS):
        d1, d2 = (int(d) for d in rng.integers(1, 4, 2))
        K = random_expansion(rng, d1, d2, c, c, c - 2, c - 2,
                             role=DISTRIBUTION)
        f = random_expansion(rng, d1, 0, c, 0, c, 0)
        lhs = apply_operator(quantum_gross(K), f)
        rhs = apply_operator(K, gross_test(f)).add(
            gross_distribution(apply_operator(K, f)))
        gap = lhs.add(rhs.scale(-1)).norm_inf()
        worst = nan_max(worst, gap / max(1.0, rhs.norm_inf()))
    assert worst <= 1e-11


def test_multiplication_operator_pairs_as_product():
    # <<M_Phi f, g>> = <<Phi, f g>> for f, g of degree <= cutoff / 2, whose
    # product drops nothing.
    rng = np.random.default_rng(3)
    c = IDENTITY_CUTOFF
    worst = 0.0
    for _ in range(IDENTITY_DRAWS):
        d = int(rng.integers(1, 4))
        Phi = random_expansion(rng, d, 0, c, 0, c, 0, role=DISTRIBUTION)
        f = random_expansion(rng, d, 0, c, 0, c // 2, 0)
        g = random_expansion(rng, d, 0, c, 0, c // 2, 0)
        lhs = dual_pair(apply_operator(multiplication_operator(Phi), f), g)
        rhs = dual_pair(Phi, pointwise_product(f, g))
        worst = nan_max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
    assert worst <= 1e-11


def test_classical_quantum_bridge(rng):
    for _ in range(10):
        d = int(rng.integers(1, 4))
        Phi = random_expansion(rng, d, 0, 8, 0, 4, 0, role=DISTRIBUTION)
        quantum_route, classical_route = classical_quantum_bridge(Phi)
        diff = quantum_route.add(classical_route.scale(-1)).norm_inf()
        assert diff <= 1e-11 * max(1.0, classical_route.norm_inf())


def test_kernel_json_roundtrip(rng):
    K = random_expansion(rng, 2, 1, 4, 4, 3, 3, role=DISTRIBUTION)
    obj = kernel_to_json(K, "probe")
    assert obj["label"] == "probe"
    back = kernel_from_json(obj)
    assert np.array_equal(back.codes, K.codes)
    assert back.values.tobytes() == K.values.tobytes()
