"""The code/value storage of expansions, and the constructors that build
on it, against the dict loops they replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    _box,
    coefficient_polynomials,
    dual_pair,
    expansion_from_json,
    expansion_to_json,
    exponential_vector,
    nan_max,
    pairing_weights,
    sum_by_code,
)
from grosslap.gross import trace_distribution
from grosslap.quantum_op import (
    apply_operator,
    multiplication_operator,
    tensor_expansion,
)
from grosslap.tensor_core import multinomial_weight
from conftest import iter_occupations

# ---------------------------------------------------------------------------
# Reference: the dict loops of the old storage.


def loop_add(a, b):
    coeffs = dict(a)
    for k, v in b.items():
        coeffs[k] = coeffs.get(k, 0j) + v
    return {k: v for k, v in coeffs.items() if v != 0}


def loop_norm_inf(coeffs):
    out = 0.0
    for v in coeffs.values():
        out = nan_max(out, abs(v))
    return out


def loop_dual_pair(Phi, phi, modulus=False):
    total = 0j
    for (alpha, beta), c in Phi.items():
        d = phi.get((alpha, beta))
        if d is None:
            continue
        w = (math.factorial(sum(alpha)) * math.factorial(sum(beta))
             * multinomial_weight(alpha) * multinomial_weight(beta))
        total += w * (abs(c) * abs(d) if modulus else c * d)
    return total


def loop_polynomial(coeffs, point, modulus=False):
    total = 0j
    for (alpha, beta), c in coeffs.items():
        term = multinomial_weight(alpha) * multinomial_weight(beta) * c
        for x, k in zip(point, alpha + beta):
            term *= complex(x) ** k
        total += abs(term) if modulus else term
    return total


# The constructors' loops.  Each returns the coefficient dict and, per key,
# the sum of the moduli of the terms that make up the coefficient.


def _monomial(point, alpha):
    v = 1 + 0j
    for x, a in zip(point, alpha):
        if a:
            v *= complex(x) ** a
    return v


def _sub_occupations(alpha):
    if not alpha:
        yield ()
        return
    for h in range(alpha[0] + 1):
        for rest in _sub_occupations(alpha[1:]):
            yield (h,) + rest


def loop_exponential_vector(xi, eta, cutoff1, cutoff2):
    coeffs = {}
    for n in range(cutoff1 + 1):
        for alpha in iter_occupations(len(xi), n):
            va = _monomial(xi, alpha)
            if va == 0 and n > 0:
                continue
            for m in range(cutoff2 + 1):
                for beta in iter_occupations(len(eta), m):
                    vb = _monomial(eta, beta)
                    if vb == 0 and m > 0:
                        continue
                    coeffs[(alpha, beta)] = va * vb / (math.factorial(n)
                                                       * math.factorial(m))
    return coeffs, {k: abs(v) for k, v in coeffs.items()}


def loop_trace_distribution(dim1, dim2, cutoff1, cutoff2):
    coeffs = {}
    if cutoff1 >= 2:
        for j in range(dim1):
            alpha = tuple(2 if i == j else 0 for i in range(dim1))
            coeffs[(alpha, (0,) * dim2)] = 1 + 0j
    if dim2 >= 1 and cutoff2 >= 2:
        for j in range(dim2):
            beta = tuple(2 if i == j else 0 for i in range(dim2))
            coeffs[((0,) * dim1, beta)] = 1 + 0j
    return coeffs, {k: 1.0 for k in coeffs}


def loop_apply_operator(kernel, f):
    coeffs, moduli = {}, {}
    for (alpha, beta), kv in kernel.items():
        fv = f.get((alpha, ()))
        if fv is None:
            continue
        term = (math.factorial(sum(alpha)) * multinomial_weight(alpha)
                * fv * kv)
        coeffs[(beta, ())] = coeffs.get((beta, ()), 0j) + term
        moduli[(beta, ())] = moduli.get((beta, ()), 0.0) + abs(term)
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return coeffs, moduli


def loop_tensor_expansion(f, g):
    coeffs = {(alpha, beta): a * b for (alpha, _), a in f.items()
              for (beta, _), b in g.items()}
    return coeffs, {k: abs(v) for k, v in coeffs.items()}


def loop_multiplication_operator(Phi):
    coeffs = {}
    for (gamma, _), c in Phi.items():
        for alpha in _sub_occupations(gamma):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            n, m = sum(alpha), sum(beta)
            coeffs[(alpha, beta)] = math.comb(n + m, n) * c
    return coeffs, {k: abs(v) for k, v in coeffs.items()}


def old_json_layout(dim1, dim2, cutoff1, cutoff2, role, coeffs):
    return {
        "dim1": dim1, "dim2": dim2, "cutoff1": cutoff1, "cutoff2": cutoff2,
        "role": role,
        "terms": [
            {"alpha": list(a), "beta": list(b), "re": v.real, "im": v.imag}
            for (a, b), v in sorted(coeffs.items())
        ],
    }


# ---------------------------------------------------------------------------
# Coefficient dicts: empty, constant-only, sparse and dense, with explicit
# zeros among the values.


def _random_occupation(rng, dim, degree):
    return tuple(int(x) for x in np.bincount(rng.integers(0, dim, degree),
                                             minlength=dim)) if dim else ()


@st.composite
def shapes(draw):
    dim1, dim2 = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    cutoff1 = draw(st.integers(0, 8))
    cutoff2 = draw(st.integers(0, 8)) if dim2 else 0
    return dim1, dim2, cutoff1, cutoff2


@st.composite
def coefficient_dicts(draw, shape):
    dim1, dim2, cutoff1, cutoff2 = shape
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
    zeros = draw(st.booleans())
    return {k: 0j if zeros and rng.uniform() < 0.2
            else complex(*rng.uniform(-1, 1, 2)) for k in keys}


@st.composite
def dict_pairs(draw):
    shape = draw(shapes())
    return (shape, draw(coefficient_dicts(shape)),
            draw(coefficient_dicts(shape)))


# ---------------------------------------------------------------------------
# The storage against the loops


@settings(max_examples=150, deadline=None)
@given(dict_pairs())
def test_constructor_round_trip_keeps_explicit_zeros(case):
    shape, coeffs, _ = case
    phi = Expansion2(*shape, coeffs)
    assert len(phi.coeffs) == len(coeffs) == len(phi.codes)
    assert phi.coeffs == coeffs
    assert list(phi.coeffs) == sorted(coeffs)
    assert all(phi[k] == v for k, v in coeffs.items())
    assert np.all(np.diff(phi.codes) > 0)
    back = Expansion2(*shape, phi.coeffs)
    assert np.array_equal(back.codes, phi.codes)
    assert np.array_equal(back.values, phi.values)


@settings(max_examples=150, deadline=None)
@given(dict_pairs(), st.sampled_from([0, 0.5, -2, 1j, 0.3 - 0.7j]))
def test_add_scale_and_norm_match_dict_loops(case, c):
    shape, a, b = case
    A = Expansion2(*shape, a, role=DISTRIBUTION)
    B = Expansion2(*shape, b, role=DISTRIBUTION)
    total = A.add(B)
    assert total.coeffs == loop_add(a, b)
    assert total.role == DISTRIBUTION
    # numpy's complex product and modulus may differ from Python's in the
    # last bit.
    scaled = A.scale(c).coeffs
    if c == 0:
        assert scaled == {}
    else:
        assert scaled.keys() == a.keys()
        for k, v in a.items():
            assert abs(scaled[k] - c * v) <= 4e-16 * abs(c) * abs(v)
    assert A.norm_inf() == pytest.approx(loop_norm_inf(a), rel=4e-16)


@settings(max_examples=100, deadline=None)
@given(dict_pairs())
def test_dual_pair_matches_dict_loop(case):
    shape, a, b = case
    Phi = Expansion2(*shape, a, role=DISTRIBUTION)
    phi = Expansion2(*shape, b, role=TEST)
    scale = abs(loop_dual_pair(a, b, modulus=True))
    assert abs(dual_pair(Phi, phi) - loop_dual_pair(a, b)) <= 1e-13 * scale


def intersect1d_dual_pair(Phi, phi):
    """`dual_pair` with the shared codes found by `np.intersect1d`, the
    reference for its sorted-code lookup."""
    _, i, j = np.intersect1d(Phi.codes, phi.codes, assume_unique=True,
                             return_indices=True)
    degrees, mult = Phi.multiplicities
    w = pairing_weights(degrees[i], mult[i])
    return complex(np.sum(w * Phi.values[i] * phi.values[j]))


def assert_dual_pair_bits(Phi, phi):
    got, want = dual_pair(Phi, phi), intersect1d_dual_pair(Phi, phi)
    assert np.array([got]).tobytes() == np.array([want]).tobytes()


@settings(max_examples=100, deadline=None)
@given(dict_pairs())
def test_dual_pair_matches_intersect1d_bit_for_bit(case):
    shape, a, b = case
    assert_dual_pair_bits(Expansion2(*shape, a, role=DISTRIBUTION),
                          Expansion2(*shape, b, role=TEST))


def test_dual_pair_edge_cases_match_intersect1d_bit_for_bit():
    def terms(rows, role):
        return Expansion2(2, 1, 4, 2, {(tuple(r[:2]), tuple(r[2:])):
                                       complex(1 + k, -0.5 * k)
                                       for k, r in enumerate(rows)},
                          role=role)

    Phi = terms([(0, 0, 0), (1, 2, 1), (4, 0, 2)], DISTRIBUTION)
    cases = {
        "empty test expansion": terms([], TEST),
        "disjoint keys": terms([(0, 1, 0), (2, 2, 2)], TEST),
        # Phi's last two codes lie past phi's last one.
        "keys past the last code": terms([(0, 0, 0), (0, 3, 1)], TEST),
    }
    for phi in cases.values():
        assert_dual_pair_bits(Phi, phi)
    assert dual_pair(Phi, cases["empty test expansion"]) == 0
    assert dual_pair(Phi, cases["disjoint keys"]) == 0
    assert dual_pair(Phi, cases["keys past the last code"]) == 1
    # An empty distribution, and codes past 2^63 (Python integers).
    assert_dual_pair_bits(terms([], DISTRIBUTION), Phi.with_role(TEST))
    dim = 30
    e = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    Psi = Expansion2(dim, 0, 4, 0, {(e[0], ()): 1 + 1j, (e[-1], ()): -1j},
                     role=DISTRIBUTION)
    psi = Expansion2(dim, 0, 4, 0, {(e[-1], ()): 3 + 0j, (e[1], ()): 2j})
    assert Psi.codes.dtype == object
    assert_dual_pair_bits(Psi, psi)
    assert dual_pair(Psi, psi) == -3j


@settings(max_examples=100, deadline=None)
@given(dict_pairs(), st.integers(0, 2 ** 32 - 1))
def test_coefficient_polynomials_match_dict_loop(case, seed):
    shape, a, b = case
    dim1, dim2 = shape[:2]
    phis = [Expansion2(*shape, a), Expansion2(*shape, b)]
    x = np.random.default_rng(seed).uniform(-1.5, 1.5, (3, dim1 + dim2))
    values = coefficient_polynomials(phis, x.astype(complex))
    for j, coeffs in enumerate((a, b)):
        for i, point in enumerate(x):
            want = loop_polynomial(coeffs, point)
            scale = loop_polynomial(coeffs, point, modulus=True).real
            assert abs(values[i, j] - want) <= 1e-13 * scale + 1e-300


@settings(max_examples=100, deadline=None)
@given(dict_pairs(), st.sampled_from([TEST, DISTRIBUTION]))
def test_json_is_byte_identical_to_the_sorted_dict_layout(case, role):
    shape, coeffs, _ = case
    phi = Expansion2(*shape, coeffs, role=role)
    text = json.dumps(expansion_to_json(phi))
    assert text == json.dumps(old_json_layout(*shape, role, coeffs))
    assert expansion_from_json(json.loads(text)).coeffs == coeffs


def test_nan_coefficient_gives_nan_norm():
    phi = Expansion2(2, 1, 3, 3, {((1, 0), (0,)): 5 + 0j,
                                  ((0, 0), (1,)): complex(math.nan, 0)})
    assert math.isnan(phi.norm_inf())
    assert math.isnan(loop_norm_inf(phi.coeffs))


def test_codes_past_2_to_63_are_python_integers():
    # 30 components of radix 9: codes up to 9^30 > 2^63.
    dim, cutoff = 30, 8
    last = (0,) * (dim - 1) + (8,)
    first = (8,) + (0,) * (dim - 1)
    mixed = (1,) + (0,) * (dim - 3) + (3, 4)
    coeffs = {(first, ()): 1 + 2j, (last, ()): -1j, (mixed, ()): 0.5 + 0j,
              ((0,) * dim, ()): 3 + 0j}
    phi = Expansion2(dim, 0, cutoff, 0, coeffs, role=DISTRIBUTION)
    assert phi.codes.dtype == object
    assert phi.codes[-1] == 8 * 9 ** (dim - 1) > 2 ** 63
    assert phi.coeffs == coeffs
    assert list(phi.coeffs) == sorted(coeffs)
    other = {(last, ()): 1j, (mixed, ()): 2 + 0j}
    assert phi.add(Expansion2(dim, 0, cutoff, 0, other,
                              role=DISTRIBUTION)).coeffs == loop_add(coeffs,
                                                                     other)
    assert phi.scale(2).coeffs == {k: 2 * v for k, v in coeffs.items()}
    assert phi.norm_inf() == 3
    text = json.dumps(expansion_to_json(phi))
    assert text == json.dumps(old_json_layout(dim, 0, cutoff, 0,
                                              DISTRIBUTION, coeffs))


# Parts that cancel in pairs, signed zeros, and magnitudes where the order
# of addition shows: (1 + 1e16) - 1e16 is 0, but 1 + (1e16 - 1e16) is 1.
SUM_PARTS = (st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.1, -0.1, 1e16, -1e16])
             | st.floats(-10, 10))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 6), SUM_PARTS, SUM_PARTS),
                max_size=30),
       st.booleans())
@example([(3, 1.0, -0.0), (3, 1e16, 0.1), (3, -1e16, -0.1)], False)
@example([(1, -0.0, -0.0), (0, 1.0, 2.0), (1, 0.5, -0.0)], True)
@example([], False)
@example([], True)
def test_sum_by_code_adds_each_code_in_input_order(terms, past_int64):
    # Object codes past 2^63 when `past_int64`, int64 codes otherwise.
    offset = 2 ** 64 if past_int64 else 0
    dtype = object if past_int64 else np.int64
    codes = np.array([offset + c for c, _, _ in terms], dtype=dtype)
    values = np.array([complex(re, im) for _, re, im in terms],
                      dtype=complex).reshape(len(terms))
    # Left to right from 0.0, the real and imaginary parts apart.
    sums = {}
    for c, re, im in terms:
        total = sums.get(offset + c, (0.0, 0.0))
        sums[offset + c] = (total[0] + re, total[1] + im)
    want = sorted((c, s) for c, s in sums.items() if s != (0.0, 0.0))

    out_codes, out_values = sum_by_code(codes, values)
    assert out_codes.dtype == dtype
    got = out_codes.tolist()
    assert all(a < b for a, b in zip(got, got[1:]))
    assert got == [c for c, _ in want]
    assert (out_values != 0).all()
    assert out_values.tobytes() == np.array(
        [complex(*s) for _, s in want], dtype=complex).reshape(
            len(want)).tobytes()


def test_stored_arrays_reject_writes():
    phi = Expansion2(2, 1, 3, 3, {((1, 0), (0,)): 5 + 0j,
                                  ((0, 0), (1,)): 1j})
    for array in (phi.codes, phi.values, phi.exponents,
                  phi.scale(2).values, phi.add(phi).codes):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(AttributeError):
        phi.role = DISTRIBUTION
    with pytest.raises(TypeError):
        phi.coeffs[((1, 0), (0,))] = 1j


@pytest.mark.parametrize("dims, cutoffs", [
    ((10 ** 9, 0), (1, 0)), ((10 ** 9, 0), (0, 0)), ((2, 10 ** 6), (3, 1)),
])
def test_shapes_too_large_to_code_are_refused(dims, cutoffs):
    # Refused before any table of place values is built, so a hostile input
    # file costs nothing.
    with pytest.raises(ValueError, match="too large to code"):
        Expansion2(*dims, *cutoffs, {})


# ---------------------------------------------------------------------------
# The constructors against their loops


def assert_matches_loop(phi, loop, role):
    """phi holds the loop's keys in strictly increasing codes of the shape's
    code type, and each value within 4e-16 of the sum of its term moduli."""
    want, moduli = loop
    assert phi.role == role
    assert set(phi.coeffs) == set(want)
    place = _box(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)[1]
    assert phi.codes.dtype == place.dtype
    assert all(a < b for a, b in zip(phi.codes, phi.codes[1:]))
    for key, v in want.items():
        assert abs(phi[key] - v) <= 4e-16 * moduli[key]


@st.composite
def points(draw, dim):
    """Complex points of `dim` components, some of them zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    zero = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    return [0j if z else complex(*rng.uniform(-2, 2, 2)) for z in zero]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_exponential_vector_matches_dict_loop(data):
    dim1, dim2, cutoff1, cutoff2 = data.draw(shapes())
    xi, eta = data.draw(points(dim1)), data.draw(points(dim2))
    e = exponential_vector(xi, eta, cutoff1, cutoff2)
    assert_matches_loop(e, loop_exponential_vector(xi, eta, cutoff1, cutoff2),
                        TEST)


def test_exponential_vector_drops_keys_of_zero_components():
    e = exponential_vector([0j, 0.5], [0j], 4, 3)
    assert set(e.coeffs) == {((0, n), (0,)) for n in range(5)}
    assert_matches_loop(e, loop_exponential_vector([0j, 0.5], [0j], 4, 3),
                        TEST)


def test_trace_distribution_matches_dict_loop():
    for dim1 in range(1, 4):
        for dim2 in range(4):
            for cutoff1 in range(9):
                for cutoff2 in range(9 if dim2 else 1):
                    shape = (dim1, dim2, cutoff1, cutoff2)
                    assert_matches_loop(trace_distribution(*shape),
                                        loop_trace_distribution(*shape),
                                        DISTRIBUTION)


@st.composite
def kernels_and_inputs(draw):
    dim1, dim2, cutoff1, cutoff2 = draw(shapes().filter(lambda s: s[1]))
    kernel = draw(coefficient_dicts((dim1, dim2, cutoff1, cutoff2)))
    f = draw(coefficient_dicts((dim1, 0, cutoff1, 0)))
    return (dim1, dim2, cutoff1, cutoff2), kernel, f


@settings(max_examples=150, deadline=None)
@given(kernels_and_inputs())
def test_apply_operator_matches_dict_loop(case):
    (dim1, dim2, cutoff1, cutoff2), kernel, f = case
    op = Expansion2(dim1, dim2, cutoff1, cutoff2, kernel, role=DISTRIBUTION)
    psi = apply_operator(op, Expansion2(dim1, 0, cutoff1, 0, f))
    assert (psi.dim1, psi.dim2, psi.cutoff1) == (dim2, 0, cutoff2)
    assert_matches_loop(psi, loop_apply_operator(kernel, f), DISTRIBUTION)


def test_apply_operator_drops_sums_that_cancel():
    # |alpha|! mult(alpha) is 1 for both alphas, so the beta = (1,) terms
    # cancel exactly; beta = (2,) survives.
    kernel = {((1, 0), (1,)): 0.5 + 0j, ((0, 1), (1,)): -0.5 + 0j,
              ((0, 0), (2,)): 3j}
    f = {((1, 0), ()): 1 + 0j, ((0, 1), ()): 1 + 0j, ((0, 0), ()): 2 + 0j}
    op = Expansion2(2, 1, 2, 2, kernel, role=DISTRIBUTION)
    psi = apply_operator(op, Expansion2(2, 0, 2, 0, f))
    assert dict(psi.coeffs) == {((2,), ()): 6j}
    assert_matches_loop(psi, loop_apply_operator(kernel, f), DISTRIBUTION)


@st.composite
def one_variable_pairs(draw):
    dim_f, dim_g = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    cut_f, cut_g = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    return ((dim_f, cut_f), draw(coefficient_dicts((dim_f, 0, cut_f, 0))),
            (dim_g, cut_g), draw(coefficient_dicts((dim_g, 0, cut_g, 0))),
            draw(st.sampled_from([TEST, DISTRIBUTION])))


@settings(max_examples=150, deadline=None)
@given(one_variable_pairs())
def test_tensor_expansion_matches_dict_loop(case):
    (dim_f, cut_f), f, (dim_g, cut_g), g, role = case
    out = tensor_expansion(Expansion2(dim_f, 0, cut_f, 0, f, role=role),
                           Expansion2(dim_g, 0, cut_g, 0, g, role=role))
    assert (out.dim1, out.dim2, out.cutoff1, out.cutoff2) == (
        dim_f, dim_g, cut_f, cut_g)
    assert_matches_loop(out, loop_tensor_expansion(f, g), role)


def test_tensor_expansion_codes_past_2_to_63():
    # 16 + 14 components of radix 9: codes up to 9^30 > 2^63.
    f = {((8,) + (0,) * 15, ()): 1 + 2j, ((0,) * 15 + (3,), ()): 0j,
         ((0,) * 16, ()): -1 + 0j}
    g = {((0,) * 13 + (8,), ()): 2j, ((1,) * 8 + (0,) * 6, ()): 0.5 + 0j}
    out = tensor_expansion(Expansion2(16, 0, 8, 0, f),
                           Expansion2(14, 0, 8, 0, g))
    assert out.codes.dtype == object and out.codes[-1] > 2 ** 63
    assert_matches_loop(out, loop_tensor_expansion(f, g), TEST)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_multiplication_operator_matches_dict_loop(data):
    dim, cutoff = data.draw(st.integers(1, 3)), data.draw(st.integers(0, 8))
    Phi = data.draw(coefficient_dicts((dim, 0, cutoff, 0)))
    op = multiplication_operator(Expansion2(dim, 0, cutoff, 0, Phi,
                                            role=DISTRIBUTION))
    assert (op.dim1, op.dim2) == (dim, dim)
    assert_matches_loop(op, loop_multiplication_operator(Phi),
                        DISTRIBUTION)
