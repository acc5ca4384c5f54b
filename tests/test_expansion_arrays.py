"""The code/value storage of expansions against the dict loops it replaced."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    coefficient_polynomials,
    dual_pair,
    expansion_from_json,
    expansion_to_json,
)
from grosslap.tensor_core import (
    iter_occupations,
    multinomial_weight,
    nan_max,
    weight,
)

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
        w = (math.factorial(weight(alpha)) * math.factorial(weight(beta))
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
    B = Expansion2(*shape, b, role=DISTRIBUTION, truncated=True)
    total = A.add(B)
    assert total.coeffs == loop_add(a, b)
    assert total.truncated and total.role == DISTRIBUTION
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


def test_stored_arrays_reject_writes():
    phi = Expansion2(2, 1, 3, 3, {((1, 0), (0,)): 5 + 0j,
                                  ((0, 0), (1,)): 1j})
    for array in (phi.codes, phi.values, phi.exponents,
                  phi.scale(2).values, phi.add(phi).codes):
        with pytest.raises(ValueError):
            array[0] = 0
    with pytest.raises(AttributeError):
        phi.truncated = True
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
