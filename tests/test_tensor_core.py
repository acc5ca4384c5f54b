"""Unit and property tests for occupation-number tensor storage."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grosslap.chaos import Expansion2
from grosslap.tensor_core import (
    DegreeError,
    _orbits,
    DimensionMismatchError,
    contract_full,
    dense_contract_full,
    multinomial_weight,
    symmetrize,
    to_dense,
)
from conftest import iter_occupations, random_tensor


def test_multinomial_weight():
    assert multinomial_weight((0, 0)) == 1
    assert multinomial_weight((2, 1)) == 3
    assert multinomial_weight((2, 2)) == 6
    assert multinomial_weight((5,)) == 1


def test_iter_occupations_counts():
    # stars and bars: C(n + d - 1, d - 1)
    for d in range(1, 4):
        for n in range(6):
            got = len(list(iter_occupations(d, n)))
            assert got == math.comb(n + d - 1, d - 1)


def test_orbit_table_holds_each_cells_occupation():
    for d in range(1, 5):
        for n in range(7):
            rows, codes, owner = _orbits(d, n)
            assert rows.tolist() == [list(a) for a in
                                     reversed(list(iter_occupations(d, n)))]
            assert len(codes) == len(rows) and (np.diff(codes) > 0).all()
            for cell, word in enumerate(np.ndindex((d,) * n)):
                occupation = np.bincount(np.array(word, dtype=int),
                                         minlength=d)
                assert rows[owner[cell]].tolist() == occupation.tolist()
            sizes = np.bincount(owner, minlength=len(rows)).tolist()
            assert sizes == [multinomial_weight(tuple(r)) for r in rows]


def test_contract_full_degrees():
    A = random_tensor(np.random.default_rng(0), 2, 3)
    B = random_tensor(np.random.default_rng(1), 2, 5)
    R = contract_full(A, B)
    assert (R.dim1, R.dim2, R.cutoff1, R.cutoff2) == (2, 0, 2, 0)
    assert (R.exponents.sum(axis=1) == 2).all()
    with pytest.raises(DegreeError):
        contract_full(B, A)
    with pytest.raises(DimensionMismatchError):
        contract_full(A, random_tensor(np.random.default_rng(2), 3, 5))
    with pytest.raises(DimensionMismatchError):
        contract_full(A, Expansion2(2, 1, 5, 0))
    # A term below the tensor's degree.
    with pytest.raises(DegreeError):
        contract_full(Expansion2(2, 0, 3, 0, {((1, 1), ()): 1}), B)


# At (40, 1, 2) the kernel's key codes run to 3^40 > 2^63, so it takes its
# Python-integer path.
@pytest.mark.parametrize("d,da,db", [(1, 0, 3), (2, 2, 4), (3, 3, 3), (2, 1, 5),
                                     (40, 1, 2)])
def test_contract_full_against_dense(rng, d, da, db):
    for _ in range(10):
        A = random_tensor(rng, d, da)
        B = random_tensor(rng, d, db)
        sparse = contract_full(A, B)
        dense = symmetrize(dense_contract_full(to_dense(A), to_dense(B)), d)
        for T in (sparse, dense):
            assert (np.diff(T.codes) > 0).all()
        diff = sparse.add(dense.scale(-1)).norm_inf()
        assert diff <= 1e-12 * max(1.0, dense.norm_inf())


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10 ** 6), st.integers(1, 3), st.integers(0, 4))
def test_symmetrize_idempotent_on_symmetric_tensors(seed, d, deg):
    rng = np.random.default_rng(seed)
    T = random_tensor(rng, d, deg)
    again = symmetrize(to_dense(T), d)
    assert T.add(again.scale(-1)).norm_inf() <= 1e-13 * max(1, T.norm_inf())


def test_symmetrize_projects():
    data = np.zeros((2, 2), dtype=complex)
    data[0, 1] = 1.0  # non-symmetric input
    S = symmetrize(data, 2)
    assert S[((1, 1), ())] == pytest.approx(0.5)


def test_symmetrize_rejects_a_shape_not_of_its_dimension():
    for data, dim in [(np.arange(9.).reshape(3, 3), 2),
                      (np.zeros((2, 3)), 2), (np.zeros((2, 2)), 3)]:
        with pytest.raises(DimensionMismatchError):
            symmetrize(data, dim)


def test_to_dense_rejects_a_term_of_another_degree():
    with pytest.raises(DegreeError):
        to_dense(Expansion2(2, 0, 3, 0, {((1, 1), ()): 1, ((3, 0), ()): 2}))
    # Each orbit's cells hold its value.
    T = Expansion2(2, 0, 3, 0, {((2, 1), ()): 1j, ((0, 3), ()): 2})
    data = to_dense(T)
    assert data[0, 0, 1] == data[0, 1, 0] == data[1, 0, 0] == 1j
    assert data[1, 1, 1] == 2
    assert np.count_nonzero(data) == 4


def test_zero_and_scalar_behaviour():
    z = Expansion2(2, 0, 3, 0)
    assert z.norm_inf() == 0.0
    R = contract_full(z, random_tensor(np.random.default_rng(0), 2, 4))
    assert len(R.codes) == 0 and R.cutoff1 == 1


def test_expansion_rejects_dim_zero():
    with pytest.raises(ValueError):
        Expansion2(0, 0, 0, 0)
