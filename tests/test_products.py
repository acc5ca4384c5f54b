"""The array product kernel against the pair loops it replaced, and the
algebra laws of convolution."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    pointwise_product,
    sym_convolve_coeffs,
)
from grosslap.evolution import conv_exp
from grosslap.gross import (
    convolve_dist_dist,
    convolve_dist_test,
    gross_split,
    gross_test,
)
from grosslap.tensor_core import iter_occupations, multinomial_weight, weight

# ---------------------------------------------------------------------------
# Reference: the per-pair dict loops.  With modulus=True every coefficient
# enters by its modulus, which gives each output's sum of term moduli, the
# scale its rounding error is measured against.


def _value(c, modulus):
    return abs(c) if modulus else c


def _sub(a, b):
    if any(x < y for x, y in zip(a, b)):
        return None
    return tuple(x - y for x, y in zip(a, b))


def loop_sym_convolve(f, g, modulus=False):
    acc = {}
    dropped = False
    for (a1, b1), c1 in f.coeffs.items():
        w1 = multinomial_weight(a1) * multinomial_weight(b1)
        for (a2, b2), c2 in g.coeffs.items():
            alpha = tuple(x + y for x, y in zip(a1, a2))
            beta = tuple(x + y for x, y in zip(b1, b2))
            if weight(alpha) > f.cutoff1 or weight(beta) > f.cutoff2:
                dropped = True
                continue
            w = w1 * multinomial_weight(a2) * multinomial_weight(b2)
            key = (alpha, beta)
            acc[key] = (acc.get(key, 0j)
                        + w * _value(c1, modulus) * _value(c2, modulus))
    coeffs = {}
    for (alpha, beta), v in acc.items():
        v /= multinomial_weight(alpha) * multinomial_weight(beta)
        if v != 0:
            coeffs[(alpha, beta)] = v
    return coeffs, dropped


def loop_convolve_dist_test(Phi, phi, modulus=False):
    coeffs = {}
    for (mu, nu), a in Phi.coeffs.items():
        n, m = weight(mu), weight(nu)
        w_orbit = multinomial_weight(mu) * multinomial_weight(nu)
        for (kappa, lam), b in phi.coeffs.items():
            gamma, delta = _sub(kappa, mu), _sub(lam, nu)
            if gamma is None or delta is None:
                continue
            k, l = weight(gamma), weight(delta)
            w = (math.factorial(n + k) // math.factorial(k)
                 * (math.factorial(m + l) // math.factorial(l)))
            key = (gamma, delta)
            coeffs[key] = (coeffs.get(key, 0j) + w * w_orbit
                           * _value(a, modulus) * _value(b, modulus))
    return {k: v for k, v in coeffs.items() if v != 0}


def loop_gross_parts(phi, modulus=False):
    """The two per-variable Gross stencils, term by term."""
    parts = []
    for var, dim in ((0, phi.dim1), (1, phi.dim2)):
        out = {}
        for j in range(dim):
            for key, c in phi.coeffs.items():
                occ = key[var]
                if occ[j] < 2:
                    continue
                n = weight(occ)
                lowered = tuple(x - 2 if i == j else x
                                for i, x in enumerate(occ))
                new = (lowered, key[1]) if var == 0 else (key[0], lowered)
                out[new] = out.get(new, 0j) + n * (n - 1) * _value(c, modulus)
        parts.append(out)
    return parts


def assert_close(got, want, scale, rel=1e-13):
    """Every coefficient within rel times its sum of term moduli."""
    for key in set(got) | set(want):
        diff = abs(got.get(key, 0j) - want.get(key, 0j))
        assert diff <= rel * abs(scale.get(key, 0.0)), (key, diff)


# ---------------------------------------------------------------------------
# Operands: empty, constant-only, sparse (a few random keys) and dense (every
# key up to a degree per variable, at most 120 of them so the loops stay
# quick).


def _random_occupation(rng, dim, degree):
    return tuple(int(x) for x in np.bincount(rng.integers(0, dim, degree),
                                             minlength=dim)) if dim else ()


@st.composite
def operands(draw, dim1, dim2, cutoff1, cutoff2, role):
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["empty", "constant", "sparse", "dense"]))
    if kind == "empty":
        keys = []
    elif kind == "constant":
        keys = [((0,) * dim1, (0,) * dim2)]
    elif kind == "sparse":
        keys = [(_random_occupation(rng, dim1, rng.integers(0, cutoff1 + 1)),
                 _random_occupation(rng, dim2, rng.integers(0, cutoff2 + 1)))
                for _ in range(draw(st.integers(1, 20)))]
    else:
        m1, m2 = draw(st.integers(0, cutoff1)), draw(st.integers(0, cutoff2))
        while math.comb(m1 + dim1, dim1) * math.comb(m2 + dim2, dim2) > 120:
            if m1 >= m2:
                m1 -= 1
            else:
                m2 -= 1
        keys = [(a, b)
                for n in range(m1 + 1) for a in iter_occupations(dim1, n)
                for m in range(m2 + 1) for b in iter_occupations(dim2, m)]
    coeffs = {k: complex(*rng.uniform(-1, 1, 2)) for k in keys}
    return Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs, role=role,
                      truncated=draw(st.booleans()))


@st.composite
def operand_pairs(draw, left_role, right_role):
    dim1, dim2 = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cutoff1 = draw(st.integers(0, 8))
    cutoff2 = draw(st.integers(0, 8)) if dim2 else 0
    shape = (dim1, dim2, cutoff1, cutoff2)
    return (draw(operands(*shape, left_role)),
            draw(operands(*shape, right_role)))


# ---------------------------------------------------------------------------
# The kernel against the loops


@settings(max_examples=150, deadline=None)
@given(operand_pairs(DISTRIBUTION, DISTRIBUTION))
def test_sym_convolve_matches_pair_loop(pair):
    # Both operand orders: the kernel walks whichever operand is smaller.
    for f, g in (pair, pair[::-1]):
        product, dropped = sym_convolve_coeffs(f, g)
        want, want_dropped = loop_sym_convolve(f, g)
        assert dropped == want_dropped
        assert_close(product.coeffs, want,
                     loop_sym_convolve(f, g, modulus=True)[0])
        out = convolve_dist_dist(f, g)
        assert out.truncated == (f.truncated or g.truncated or want_dropped)


@settings(max_examples=150, deadline=None)
@given(operand_pairs(DISTRIBUTION, TEST))
def test_convolve_dist_test_matches_pair_loop(pair):
    Phi, phi = pair
    out = convolve_dist_test(Phi, phi)
    assert_close(out.coeffs, loop_convolve_dist_test(Phi, phi),
                 loop_convolve_dist_test(Phi, phi, modulus=True))
    assert out.truncated == (Phi.truncated or phi.truncated)
    assert out.role == TEST


@settings(max_examples=100, deadline=None)
@given(operand_pairs(TEST, TEST).map(lambda pair: pair[1]))
def test_gross_matches_per_variable_stencils(phi):
    want1, want2 = loop_gross_parts(phi)
    scale1, scale2 = loop_gross_parts(phi, modulus=True)
    part1, part2 = gross_split(phi)
    assert_close(part1.coeffs, want1, scale1)
    assert_close(part2.coeffs, want2, scale2)
    both = {k: want1.get(k, 0j) + want2.get(k, 0j) for k in {**want1, **want2}}
    scale = {k: scale1.get(k, 0) + scale2.get(k, 0) for k in both}
    out = gross_test(phi)
    assert_close(out.coeffs, {k: v for k, v in both.items() if v != 0}, scale)
    assert out.truncated == phi.truncated


def test_pointwise_product_matches_pair_loop():
    f = Expansion2(2, 1, 5, 3, {((1, 0), (1,)): 1 - 2j, ((0, 2), (0,)): 0.5j,
                                ((3, 1), (2,)): 2 + 0j})
    g = Expansion2(2, 1, 5, 3, {((0, 1), (0,)): 3 + 1j, ((1, 1), (1,)): -1j})
    h = pointwise_product(f, g)
    want, dropped = loop_sym_convolve(f, g)
    assert_close(h.coeffs, want, loop_sym_convolve(f, g, modulus=True)[0])
    assert dropped
    assert h.truncated


def test_codes_past_int64_use_python_integers():
    # 30 components of radix 5 give codes up to 5^30 > 2^63.
    dim, cutoff = 30, 4
    e = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    far = (0,) * (dim - 2) + (1, 2)
    f = Expansion2(dim, 0, cutoff, 0, {(e[0], ()): 1 + 1j, (far, ()): 2 + 0j,
                                       (e[-1], ()): -1j}, role=DISTRIBUTION)
    g = Expansion2(dim, 0, cutoff, 0, {(e[-1], ()): 3 + 0j, (far, ()): 1j},
                   role=DISTRIBUTION)
    product, dropped = sym_convolve_coeffs(f, g)
    want, want_dropped = loop_sym_convolve(f, g)
    assert dropped == want_dropped
    assert_close(product.coeffs, want,
                 loop_sym_convolve(f, g, modulus=True)[0])
    assert (tuple(a + b for a, b in zip(far, e[-1])), ()) in product.coeffs
    contracted = convolve_dist_test(g, f.with_role(TEST))
    assert_close(contracted.coeffs,
                 loop_convolve_dist_test(g, f.with_role(TEST)),
                 loop_convolve_dist_test(g, f.with_role(TEST), modulus=True))
    assert contracted.coeffs


def test_weights_past_2_to_53_are_rounded_once():
    # With unit coefficients every product is exact, so each output shows
    # its weight: the exact integer, rounded to a float once.  Rounding the
    # factors first gives a different last bit in both cases below.
    f = Expansion2(2, 0, 70, 0, {((28, 35), ()): 1 + 0j}, role=DISTRIBUTION)
    g = Expansion2(2, 0, 70, 0, {((1, 6), ()): 1 + 0j}, role=DISTRIBUTION)
    w = math.comb(63, 28) * math.comb(7, 1)
    assert float(w) != float(math.comb(63, 28)) * 7
    product, dropped = sym_convolve_coeffs(f, g)
    assert product.coeffs == {
        ((29, 41), ()): float(w) / float(math.comb(70, 29)) + 0j}
    assert not dropped
    Phi = Expansion2(2, 1, 40, 0, {((15, 16), (0,)): 1 + 0j},
                     role=DISTRIBUTION)
    phi = Expansion2(2, 1, 40, 0, {((20, 20), (0,)): 1 + 0j})
    w = math.comb(31, 15) * math.perm(40, 31)
    assert float(w) != float(math.comb(31, 15)) * float(math.perm(40, 31))
    assert convolve_dist_test(Phi, phi).coeffs == {((5, 4), (0,)): float(w)
                                                   + 0j}


# ---------------------------------------------------------------------------
# Algebra laws.  Truncation at the cutoffs is the quotient by the ideal of
# keys past them, so the laws hold coefficient by coefficient whether or not
# a product drops terms; the tolerance scales with the same expression taken
# on coefficient moduli, which bounds every term.


def _moduli(phi):
    return Expansion2(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2,
                      {k: complex(abs(v)) for k, v in phi.coeffs.items()},
                      role=phi.role)


@st.composite
def small_distributions(draw, count):
    dim1, dim2 = draw(st.integers(1, 2)), draw(st.integers(0, 2))
    cutoff1 = draw(st.integers(0, 5))
    cutoff2 = draw(st.integers(0, 4)) if dim2 else 0
    shape = (dim1, dim2, cutoff1, cutoff2)
    return [draw(operands(*shape, DISTRIBUTION)) for _ in range(count)]


@settings(max_examples=60, deadline=None)
@given(small_distributions(3))
def test_convolution_commutes_and_associates(ops):
    A, B, C = ops
    scale = convolve_dist_dist(_moduli(A), _moduli(B)).coeffs
    assert_close(convolve_dist_dist(A, B).coeffs,
                 convolve_dist_dist(B, A).coeffs, scale, rel=1e-14)
    scale = convolve_dist_dist(convolve_dist_dist(_moduli(A), _moduli(B)),
                               _moduli(C)).coeffs
    assert_close(convolve_dist_dist(convolve_dist_dist(A, B), C).coeffs,
                 convolve_dist_dist(A, convolve_dist_dist(B, C)).coeffs,
                 scale, rel=1e-13)


@settings(max_examples=60, deadline=None)
@given(small_distributions(2))
def test_conv_exp_turns_sums_into_convolutions(ops):
    A, B = (op.scale(0.5) for op in ops)
    lhs = conv_exp(A.add(B))
    rhs = convolve_dist_dist(conv_exp(A), conv_exp(B))
    scale = conv_exp(_moduli(A).add(_moduli(B))).coeffs
    assert_close(lhs.coeffs, rhs.coeffs, scale, rel=1e-12)


def test_conv_exp_law_without_truncation():
    # With a constant A, e^{*A} is a multiple of delta_0; a degree-one B in
    # one variable keeps every power within cutoff1.  Nothing is dropped.
    A = Expansion2(2, 0, 4, 0, {((0, 0), ()): 0.1 - 0.3j}, role=DISTRIBUTION)
    B = Expansion2(2, 0, 4, 0, {((1, 0), ()): 0.3 - 0.2j,
                                ((0, 1), ()): -0.4j}, role=DISTRIBUTION)
    lhs = conv_exp(A.add(B))
    rhs = convolve_dist_dist(conv_exp(A), conv_exp(B))
    assert not (lhs.truncated or rhs.truncated)
    scale = conv_exp(_moduli(A).add(_moduli(B))).coeffs
    assert_close(lhs.coeffs, rhs.coeffs, scale, rel=1e-14)
