"""Occupation-number storage and the dense oracle for full contraction.

A symmetric tensor of degree n over C^d is constant on permutation orbits of
its index tuples, so we store one complex value per occupation vector alpha
(alpha_i = how many slots carry index i): a one-variable `Expansion2` of
cutoff n whose terms all have degree n.  This module holds the orbit size
`multinomial_weight`, `contract_full` (the solvers' distribution-test
contraction read on one homogeneous degree) and the dense oracle that
certifies it: plain ndarrays, one axis per slot, mapped through one orbit
table per (d, n), `_orbits`, three numpy arrays whose rows and codes are
the homogeneous key table that the tensor sampler also draws on.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .chaos import (
    DISTRIBUTION,
    DimensionMismatchError,
    Expansion2,
    MultiIndex,
    key_codes,
    key_table,
)
from .gross import convolve_dist_test


class DegreeError(ValueError):
    """Operand degrees violate an operation's precondition."""


@functools.lru_cache(maxsize=1 << 16)
def multinomial_weight(alpha: MultiIndex) -> int:
    """Number of distinct index arrangements with occupation ``alpha``.

    Equals n! / prod(alpha_i!) with n = sum(alpha).  Cached: loops over
    keys ask for the same few weights again and again.
    """
    n = sum(alpha)
    out = math.factorial(n)
    for a in alpha:
        out //= math.factorial(a)
    return out


def contract_full(A, B):
    """Contract every slot of A against B (bilinear pairing, no conjugation).

    R_gamma = sum_{|mu| = deg A} mult(mu) A_mu B_{mu+gamma}, of degree
    deg B - deg A (the full pairing <A, B> when the degrees match): the
    contraction the solvers run, `gross.convolve_dist_test` of A read in
    B's shape as a distribution against B, divided by the falling factor
    deg B!/(deg B - deg A)! that the contraction's weight carries.  B
    needs the test role, the constructor's default.
    """
    if A.dim1 != B.dim1 or A.dim2 or B.dim2:
        raise DimensionMismatchError("contract_full requires one-variable "
                                     "tensors of equal dims")
    if A.cutoff1 > B.cutoff1:
        raise DegreeError("contract_full needs deg A <= deg B")
    if any((T.multiplicities[0][:, 0] != T.cutoff1).any() for T in (A, B)):
        raise DegreeError("a tensor has a term of another degree")
    d, n, m = A.dim1, A.cutoff1, B.cutoff1
    # Codes are lexicographic in the exponent rows, so they stay sorted; the
    # rows and multiplicities do not depend on the cutoff.
    left = B.with_terms((key_codes(A.exponents, d, 0, m, 0),
                         *A.known_terms()[1:]), role=DISTRIBUTION)
    product = convolve_dist_test(left, B)
    rows = product.exponents
    return Expansion2(d, 0, m - n, 0, (key_codes(rows, d, 0, m - n, 0),
                                       product.values / math.perm(m, n),
                                       *product.term_data))


# ---------------------------------------------------------------------------
# Dense oracle


@functools.lru_cache(maxsize=64)
def _orbits(dim: int, degree: int):
    """The permutation orbits of the index tuples of a degree-n tensor over
    C^d, one per occupation vector, as three read-only arrays built once per
    (d, n): the occupation vectors of degree n as rows in code order and
    their codes (the homogeneous `key_table`, which `verify`'s sampler draws
    on), and per dense cell, in C order, the index of its orbit: its index
    word (one row per slot) gives its occupation vector, one count of each
    index over the slots."""
    codes, rows = key_table(dim, 0, degree, 0, degree, 0, True)[:2]
    words = np.indices((dim,) * degree).reshape(degree, dim ** degree)
    occupations = (words[:, :, None] == np.arange(dim)).sum(axis=0)
    owner = np.searchsorted(codes, key_codes(occupations, dim, 0, degree, 0))
    owner.flags.writeable = False
    return rows, codes, owner


def to_dense(T) -> np.ndarray:
    """The dense array of a degree-n tensor `Expansion2(d, 0, n, 0)`."""
    _, codes, owner = _orbits(T.dim1, T.cutoff1)
    at = np.searchsorted(codes, T.codes)
    if not np.array_equal(codes[np.minimum(at, len(codes) - 1)], T.codes):
        raise DegreeError("a tensor has a term of another degree")
    orbit_values = np.zeros(len(codes), dtype=complex)
    orbit_values[at] = T.values
    return orbit_values[owner].reshape((T.dim1,) * T.cutoff1)


def symmetrize(data: np.ndarray, dim: int):
    """Project a dense array of shape (dim,) * n onto its symmetric part, as
    a degree-n tensor `Expansion2(dim, 0, n, 0)` (dim is given: a degree-0
    array has shape ()): each orbit's entries summed in C order over the
    orbit's size, the orbit average.  On a contraction of symmetric tensors
    the cells of one orbit hold one value, so any order of summing them
    gives the same bits."""
    degree = np.ndim(data)
    if np.shape(data) != (dim,) * degree:
        raise DimensionMismatchError(f"shape {np.shape(data)} is not "
                                     f"({dim},) * {degree}")
    codes, rows, degrees, mult = key_table(dim, 0, degree, 0, degree, 0,
                                           True)
    owner = _orbits(dim, degree)[2]
    cells = np.ravel(data)
    sizes = np.bincount(owner, minlength=len(codes))
    means = np.empty(len(codes), dtype=complex)
    means.real = np.bincount(owner, cells.real, len(codes)) / sizes
    means.imag = np.bincount(owner, cells.imag, len(codes)) / sizes
    kept = means != 0
    return Expansion2(dim, 0, degree, 0, (codes[kept], means[kept],
                                          rows[kept], degrees[kept],
                                          mult[kept]))


def dense_contract_full(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Index-wise contraction of all slots of A against the leading slots of B."""
    # At degree 0 tensordot forms the outer product as a matrix product,
    # which changes bits in some draws (in no draw of degree >= 1).
    return np.tensordot(A, B, A.ndim) if A.ndim else A[()] * B
