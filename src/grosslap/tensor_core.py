"""Sparse symmetric tensors over C^d with occupation-number storage.

A symmetric tensor of degree n over C^d is constant on permutation orbits of
its index tuples, so we store one complex value per occupation vector alpha
(alpha_i = how many slots carry index i).  All combinatorial weights are
carried explicitly by the operations.  A dense ndarray representation is kept
alongside as a brute-force oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Sequence, Tuple

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

    Equals n! / prod(alpha_i!) with n = sum(alpha).  Cached: evaluation asks
    for the same few weights at every call.
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
        if self.dim < 0:
            raise ValueError("dim must be >= 0")
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
        return SymTensor(self.dim, self.degree, _drop_zeros(out))

    def norm_inf(self) -> float:
        out = 0.0
        for v in self.entries.values():
            out = nan_max(out, abs(v))
        return out

    def as_scalar(self) -> complex:
        if self.degree != 0:
            raise DegreeError("only degree-0 tensors are scalars")
        return self.entries.get((0,) * self.dim if self.dim else (), 0j) \
            if self.dim else self.entries.get((), 0j)


def _drop_zeros(entries: Dict[MultiIndex, complex],
                prune: float = 0.0) -> Dict[MultiIndex, complex]:
    return {a: v for a, v in entries.items() if abs(v) > prune or (prune == 0.0 and v != 0)}


def zero_tensor(dim: int, degree: int) -> SymTensor:
    return SymTensor(dim, degree, {})


def scalar_tensor(dim: int, value: complex) -> SymTensor:
    if value == 0:
        return SymTensor(dim, 0, {})
    return SymTensor(dim, 0, {(0,) * dim: complex(value)})


def basis_tensor(dim: int, j: int) -> SymTensor:
    """Degree-1 tensor e_j."""
    occ = tuple(1 if i == j else 0 for i in range(dim))
    return SymTensor(dim, 1, {occ: 1 + 0j})


def vector_tensor(xi: Sequence[complex]) -> SymTensor:
    """Degree-1 tensor with components xi."""
    d = len(xi)
    entries = {}
    for j, v in enumerate(xi):
        if v != 0:
            occ = tuple(1 if i == j else 0 for i in range(d))
            entries[occ] = complex(v)
    return SymTensor(d, 1, entries)


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


def tensor_power(xi: Sequence[complex], n: int) -> SymTensor:
    """xi^{tensor n}; the orbit value at alpha is prod xi_i^{alpha_i}."""
    d = len(xi)
    if n == 0:
        return scalar_tensor(d, 1)
    entries = {}
    for alpha in iter_occupations(d, n):
        v = 1 + 0j
        for x, a in zip(xi, alpha):
            if a:
                v *= complex(x) ** a
        if v != 0:
            entries[alpha] = v
    return SymTensor(d, n, entries)


def trace_tensor(d: int) -> SymTensor:
    """Degree-2 tensor tau with <tau, xi (x) eta> = <xi, eta> (bilinear)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    entries = {}
    for j in range(d):
        occ = tuple(2 if i == j else 0 for i in range(d))
        entries[occ] = 1 + 0j
    return SymTensor(d, 2, entries)


def _add_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex:
    return tuple(x + y for x, y in zip(a, b))


def _sub_indices(a: MultiIndex, b: MultiIndex) -> MultiIndex | None:
    out = []
    for x, y in zip(a, b):
        if x < y:
            return None
        out.append(x - y)
    return tuple(out)


def sym_product(A: SymTensor, B: SymTensor, prune: float = 0.0) -> SymTensor:
    """Symmetrized tensor product Sym(A (x) B).

    In monomial form this is polynomial multiplication:
    mult(gamma) * C_gamma = sum_{mu+nu=gamma} mult(mu) mult(nu) A_mu B_nu.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError("sym_product requires equal dims")
    acc: Dict[MultiIndex, complex] = {}
    for mu, a in A.entries.items():
        wa = multinomial_weight(mu)
        for nu, b in B.entries.items():
            gamma = _add_indices(mu, nu)
            acc[gamma] = acc.get(gamma, 0j) + wa * multinomial_weight(nu) * a * b
    entries = {g: v / multinomial_weight(g) for g, v in acc.items()}
    return SymTensor(A.dim, A.degree + B.degree, _drop_zeros(entries, prune))


def contract_full(A: SymTensor, B: SymTensor, prune: float = 0.0) -> SymTensor:
    """Contract every slot of A against B (bilinear pairing, no conjugation).

    R_gamma = sum_{|mu| = deg A} mult(mu) A_mu B_{mu+gamma}.  When the degrees
    match, the degree-0 result is the full bilinear pairing <A, B>.
    """
    if A.dim != B.dim:
        raise DimensionMismatchError("contract_full requires equal dims")
    if A.degree > B.degree:
        raise DegreeError("contract_full needs deg A <= deg B")
    acc: Dict[MultiIndex, complex] = {}
    for mu, a in A.entries.items():
        w = multinomial_weight(mu)
        for kappa, b in B.entries.items():
            gamma = _sub_indices(kappa, mu)
            if gamma is None:
                continue
            acc[gamma] = acc.get(gamma, 0j) + w * a * b
    return SymTensor(A.dim, B.degree - A.degree, _drop_zeros(acc, prune))


def pair(A: SymTensor, B: SymTensor) -> complex:
    """Full bilinear pairing of two tensors of equal degree."""
    if A.degree != B.degree:
        raise DegreeError("pairing needs equal degrees")
    return sum((multinomial_weight(mu) * a * B.entries[mu]
                for mu, a in A.entries.items() if mu in B.entries), 0j)


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
        word = []
        for i, a in enumerate(alpha):
            word.extend([i] * a)
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
        word = []
        for i, a in enumerate(alpha):
            word.extend([i] * a)
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


# ---------------------------------------------------------------------------
# JSON interchange


def sym_tensor_to_json(T: SymTensor) -> dict:
    return {
        "dim": T.dim,
        "degree": T.degree,
        "entries": [
            {"idx": list(a), "re": v.real, "im": v.imag}
            for a, v in sorted(T.entries.items())
        ],
    }


def sym_tensor_from_json(obj: dict) -> SymTensor:
    entries = {
        tuple(e["idx"]): complex(e["re"], e.get("im", 0.0))
        for e in obj.get("entries", [])
    }
    return SymTensor(int(obj["dim"]), int(obj["degree"]), entries)
