"""Occupation-number indexing and the dense oracle for full contraction.

A symmetric tensor of degree n over C^d is constant on permutation orbits of
its index tuples, so we store one complex value per occupation vector alpha
(alpha_i = how many slots carry index i).  Besides the index helpers every
module uses, this holds `SymTensor`, `contract_full` (the product kernel
read on one homogeneous degree) and the dense ndarray representation that
certifies it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

MultiIndex = Tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Operands live over different ambient dimensions."""


class DegreeError(ValueError):
    """Operand degrees violate an operation's precondition."""


def weight(alpha: MultiIndex) -> int:
    """Total degree carried by an occupation vector."""
    return sum(alpha)


@functools.lru_cache(maxsize=1 << 16)
def multinomial_weight(alpha: MultiIndex) -> int:
    """Number of distinct index arrangements with occupation ``alpha``.

    Equals n! / prod(alpha_i!) with n = sum(alpha).  Cached: the dict loops
    ask for the same few weights again and again.
    """
    n = sum(alpha)
    out = math.factorial(n)
    for a in alpha:
        out //= math.factorial(a)
    return out


def nan_max(a: float, b: float) -> float:
    """The larger of two errors, or NaN if either is NaN.

    The builtin max(worst, nan) returns worst, so an error accumulator built
    on it would let a NaN sample pass its tolerance check.
    """
    return a if a != a or a >= b else b


def _check_index(alpha: MultiIndex, dim: int, degree: int) -> None:
    if len(alpha) != dim:
        raise DimensionMismatchError(
            f"index {alpha} has length {len(alpha)}, expected {dim}")
    if any(a < 0 for a in alpha):
        raise ValueError(f"negative occupation in {alpha}")
    if sum(alpha) != degree:
        raise DegreeError(f"index {alpha} has weight {sum(alpha)}, expected {degree}")


@dataclass(frozen=True)
class SymTensor:
    """Symmetric tensor stored by occupation vector; absent keys are zero."""

    dim: int
    degree: int
    entries: Dict[MultiIndex, complex] = field(default_factory=dict)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        for alpha in self.entries:
            _check_index(alpha, self.dim, self.degree)

    def __getitem__(self, alpha: MultiIndex) -> complex:
        return self.entries.get(tuple(alpha), 0j)

    def scale(self, c: complex) -> "SymTensor":
        if c == 0:
            return SymTensor(self.dim, self.degree, {})
        return SymTensor(self.dim, self.degree,
                         {a: c * v for a, v in self.entries.items()})

    def add(self, other: "SymTensor") -> "SymTensor":
        if other.dim != self.dim or other.degree != self.degree:
            raise DimensionMismatchError("can only add tensors of equal shape")
        out = dict(self.entries)
        for a, v in other.entries.items():
            out[a] = out.get(a, 0j) + v
        return SymTensor(self.dim, self.degree,
                         {a: v for a, v in out.items() if v != 0})

    def norm_inf(self) -> float:
        out = 0.0
        for v in self.entries.values():
            out = nan_max(out, abs(v))
        return out


def iter_occupations(dim: int, degree: int) -> Iterable[MultiIndex]:
    """All occupation vectors of given dim and total degree."""
    if dim == 0:
        if degree == 0:
            yield ()
        return
    if dim == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in iter_occupations(dim - 1, degree - first):
            yield (first,) + rest


def contract_full(A: SymTensor, B: SymTensor) -> SymTensor:
    """Contract every slot of A against B (bilinear pairing, no conjugation).

    R_gamma = sum_{|mu| = deg A} mult(mu) A_mu B_{mu+gamma}.  When the degrees
    match, the degree-0 result is the full bilinear pairing <A, B>.  This is
    `chaos.pair_products` on the tensors read as one-variable expansions
    with cutoff deg B, divided by the falling factor deg B!/(deg B - deg A)!
    that the kernel's weight carries.
    """
    from .chaos import Expansion2, pair_products
    if A.dim != B.dim:
        raise DimensionMismatchError("contract_full requires equal dims")
    if A.degree > B.degree:
        raise DegreeError("contract_full needs deg A <= deg B")

    def expansion(T: SymTensor) -> Expansion2:
        return Expansion2(T.dim, 0, B.degree, 0,
                          {(a, ()): v for a, v in T.entries.items()})

    left = expansion(A)
    codes, values, _ = pair_products(left, expansion(B), contract=True)
    falling = math.perm(B.degree, A.degree)
    result = left.with_terms(codes, values / falling)
    return SymTensor(A.dim, B.degree - A.degree,
                     {a: v for (a, _), v in result.coeffs.items()})


# ---------------------------------------------------------------------------
# Dense oracle


@dataclass(frozen=True)
class DenseTensor:
    """Brute-force representation: full ndarray with one axis per slot."""

    dim: int
    degree: int
    data: np.ndarray

    def __post_init__(self):
        expected = (self.dim,) * self.degree
        if self.data.shape != expected:
            raise ValueError(f"data shape {self.data.shape} != {expected}")


def to_dense(T: SymTensor) -> DenseTensor:
    data = np.zeros((T.dim,) * T.degree, dtype=complex)
    for alpha, v in T.entries.items():
        word = [i for i, a in enumerate(alpha) for _ in range(a)]
        for perm in set(itertools.permutations(word)):
            data[perm] = v
    return DenseTensor(T.dim, T.degree, data)


def symmetrize(T: DenseTensor) -> SymTensor:
    """Project a dense tensor onto its symmetric part, in occupation storage."""
    entries: Dict[MultiIndex, complex] = {}
    if T.degree == 0:
        v = complex(T.data[()])
        return SymTensor(T.dim, 0, {(0,) * T.dim: v} if v != 0 else {})
    for alpha in iter_occupations(T.dim, T.degree):
        word = [i for i, a in enumerate(alpha) for _ in range(a)]
        perms = set(itertools.permutations(word))
        total = sum(complex(T.data[p]) for p in perms)
        # Orbit average uses the full n! permutation count; repeated indices
        # just repeat the same entry, so averaging over distinct arrangements
        # with their multiplicities reduces to the distinct-arrangement mean.
        val = total / len(perms)
        if val != 0:
            entries[alpha] = val
    return SymTensor(T.dim, T.degree, entries)


def dense_contract_full(A: DenseTensor, B: DenseTensor) -> DenseTensor:
    """Index-wise contraction of all slots of A against the leading slots of B."""
    if A.dim != B.dim:
        raise DimensionMismatchError("dense contraction requires equal dims")
    if A.degree > B.degree:
        raise DegreeError("dense contraction needs deg A <= deg B")
    k = A.degree
    axes = (tuple(range(k)), tuple(range(k)))
    data = np.tensordot(A.data, B.data, axes=axes) if k else A.data[()] * B.data
    if A.degree == B.degree:
        data = np.asarray(data, dtype=complex).reshape(())
    return DenseTensor(A.dim, B.degree - A.degree, np.asarray(data, dtype=complex))
