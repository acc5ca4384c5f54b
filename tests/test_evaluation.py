"""The power-table evaluator against the per-point loop it replaced."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap import chaos
from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    check_evaluation_size,
    coefficient_count,
    coefficient_polynomial,
    coefficient_polynomials,
    grid_point_count,
)
from grosslap.tensor_core import multinomial_weight
from conftest import iter_occupations


def _loop_monomial(point, alpha):
    v = 1 + 0j
    for x, a in zip(point, alpha):
        if a:
            v *= complex(x) ** a
    return v


def loop_coefficient_polynomial(phi, z, t):
    """Reference: sum mult(alpha) mult(beta) c z^alpha t^beta, term by term."""
    total = 0j
    for (alpha, beta), c in phi.coeffs.items():
        total += (multinomial_weight(alpha) * multinomial_weight(beta)
                  * c * _loop_monomial(z, alpha) * _loop_monomial(t, beta))
    return total


def loop_magnitude(phi, z, t):
    """Sum of the terms' moduli: the scale rounding errors are relative to."""
    return sum(multinomial_weight(a) * multinomial_weight(b) * abs(c)
               * abs(_loop_monomial(z, a)) * abs(_loop_monomial(t, b))
               for (a, b), c in phi.coeffs.items())


def _keys(dim1, dim2, cutoff1, cutoff2):
    return [(a, b) for n in range(cutoff1 + 1)
            for a in iter_occupations(dim1, n)
            for m in range(cutoff2 + 1) for b in iter_occupations(dim2, m)]


@st.composite
def evaluation_cases(draw):
    dim1 = draw(st.integers(1, 3))
    dim2 = draw(st.integers(0, 2))
    cutoff1 = draw(st.integers(0, 6))
    cutoff2 = draw(st.integers(0, 6)) if dim2 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    # density 0 gives the empty kernel; cutoffs 0 the constant-only one.
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    phis = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = {k: complex(*rng.uniform(-1, 1, 2))
                  for k in _keys(dim1, dim2, cutoff1, cutoff2)
                  if rng.uniform() < density}
        phis.append(Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs,
                               role=DISTRIBUTION))
    npoints = draw(st.integers(1, 5))
    x = (rng.uniform(-1.5, 1.5, (npoints, dim1 + dim2))
         + 1j * rng.uniform(-1.5, 1.5, (npoints, dim1 + dim2)))
    # Zero coordinates exercise 0^0 = 1.
    x[rng.uniform(size=x.shape) < draw(st.sampled_from([0.0, 0.5]))] = 0
    return phis, x


@settings(max_examples=60, deadline=None)
@given(evaluation_cases())
def test_evaluator_matches_loop(case):
    phis, x = case
    dim1 = phis[0].dim1
    values = coefficient_polynomials(phis, x)
    assert values.shape == (len(x), len(phis))
    for i, row in enumerate(x):
        z, t = tuple(row[:dim1]), tuple(row[dim1:])
        for j, phi in enumerate(phis):
            expected = loop_coefficient_polynomial(phi, z, t)
            bound = 1e-12 * loop_magnitude(phi, z, t)
            assert abs(values[i, j] - expected) <= bound
            one = coefficient_polynomial(phi, (z, t))
            assert abs(one - expected) <= bound


@pytest.mark.parametrize("coeffs, z, t, expected", [
    ({}, (0.5,), (), 0j),
    ({((0,), ()): 2 + 1j}, (0.5,), (), 2 + 1j),
    ({((0, 0), (0,)): 3 + 0j, ((2, 0), (1,)): 1 + 0j}, (0, 0), (0,), 3 + 0j),
    ({((1, 1), ()): 1 + 0j}, (2j, 3), (), 2 * 6j),
])
def test_evaluator_edge_cases(coeffs, z, t, expected):
    dim1, dim2 = len(z), len(t)
    phi = Expansion2(dim1, dim2, 4, 4 if dim2 else 0, coeffs, role=TEST)
    assert coefficient_polynomial(phi, (z, t)) == expected
    assert coefficient_polynomials([phi], np.array([z + t], dtype=complex))[
        0, 0] == expected


def test_coefficient_count_matches_enumeration():
    for dims_cutoffs in [(1, 0, 8, 0), (1, 1, 8, 8), (2, 2, 6, 6),
                         (3, 1, 4, 2), (2, 0, 0, 0)]:
        assert coefficient_count(*dims_cutoffs) == len(_keys(*dims_cutoffs))
    assert coefficient_count(2, 2, 6, 6) == 784


def test_coefficient_count_stops_past_the_budget():
    limit = chaos.MAX_EVALUATION_CELLS
    assert coefficient_count(10 ** 6, 10 ** 6, 10 ** 6, 10 ** 6) == limit + 1
    assert coefficient_count(1, 0, 10 ** 12, 0) == limit + 1


def test_grid_point_count_stops_past_the_budget():
    assert grid_point_count(2, 2, 6, 6) == 7 ** 4
    assert grid_point_count(1, 1, 8, 8) == 81
    assert grid_point_count(3, 0, 4, 9) == 125
    limit = chaos.MAX_EVALUATION_CELLS
    assert grid_point_count(10 ** 12, 0, 1, 0) == limit + 1
    assert grid_point_count(1, 10 ** 12, 1, 1) == limit + 1
    assert grid_point_count(10 ** 12, 10 ** 12, 0, 0) == 1


def test_evaluation_budget():
    # The benchmark's heat solve: dims (2,2), cutoff 6, 2401 x 788 cells.
    keys = coefficient_count(2, 2, 6, 6)
    check_evaluation_size(grid_point_count(2, 2, 6, 6), keys, 2, 2)
    limit = chaos.MAX_EVALUATION_CELLS
    check_evaluation_size(limit // 4, 3, 1, 0)
    with pytest.raises(ValueError, match="budget"):
        check_evaluation_size(limit // 4 + 1, 3, 1, 0)
    # A power table of 1,000 coordinates at 4,000 points, powers 0..170:
    # the points x (keys + coordinates) cells alone are within budget.
    check_evaluation_size(4000, 1, 1000, 0)
    with pytest.raises(ValueError, match="688004000 cells"):
        check_evaluation_size(4000, 1, 1000, 0, 171)
    # Huge dimensions at cutoff 0 have one key but cannot be held.
    with pytest.raises(ValueError, match="budget"):
        check_evaluation_size(grid_point_count(10 ** 9, 0, 0, 0), 1,
                              10 ** 9, 0)
