"""Two-variable truncated chaos (Taylor) expansions.

An expansion holds coefficients c_{alpha,beta} indexed by a pair of occupation
vectors (alpha over the first variable, beta over the second).  The same
storage serves test functions and distributions; a role flag guards operations
that only make sense for one side.  The one-variable theory is the degenerate
case dim2 = 0.

The terms are two arrays: `codes`, sorted and unique, and complex `values`.
A key's code is the C-order flat index of alpha + beta (the two joined) in
the box of cutoff1 + 1 values per first-variable component and cutoff2 + 1
per second-variable one, so code order is the order of sorted (alpha, beta)
keys and of the bins of the symbol grid.  The layout stays in this module:
other modules build exponent rows, and `key_codes` turns them into codes.
Dicts of keys appear only in the constructor, JSON and the `coeffs` view.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Mapping
from dataclasses import FrozenInstanceError
from itertools import accumulate, chain
from typing import Dict, Sequence, Tuple

import numpy as np

TEST = "test"
DISTRIBUTION = "distribution"

MultiIndex = Tuple[int, ...]
Key = Tuple[MultiIndex, MultiIndex]


class DimensionMismatchError(ValueError):
    """Operands live over different ambient dimensions."""


class RoleError(ValueError):
    """Operation applied to an expansion with the wrong role."""


# The largest table of place values a shape may need, in bits: per component
# one value of a word plus up to log2(box size) bits.  2^27 bits (16 MiB)
# admits 10,000 components of cutoff 1 or two million of cutoff 0; larger
# shapes are refused before any table exists.
MAX_PLACE_BITS = 1 << 27


@functools.lru_cache(maxsize=256)
def _box(dim1: int, dim2: int, cutoff1: int, cutoff2: int):
    """Radix and C-order place value of each component of alpha + beta.

    Codes past 2^63 are Python integers (object arrays).
    """
    bits = sum(dim * math.log2(max(cutoff + 1, 1))
               for dim, cutoff in ((dim1, cutoff1), (dim2, cutoff2)))
    if (dim1 + dim2) * (bits + 64) > MAX_PLACE_BITS:
        raise ValueError(f"dims ({dim1}, {dim2}) with cutoffs ({cutoff1}, "
                         f"{cutoff2}) are too large to code")
    radix = (cutoff1 + 1,) * dim1 + (cutoff2 + 1,) * dim2
    place = list(accumulate(reversed(radix[1:]), operator.mul,
                            initial=1))[::-1]
    ctype = np.int64 if place[0] * radix[0] < 1 << 63 else object
    box = np.array(radix, dtype=ctype), np.array(place, dtype=ctype)
    for table in box:
        table.flags.writeable = False
    return box


def _decode(codes, phi: "Expansion2"):
    """The exponent rows alpha + beta of codes of phi's shape.

    The inverse of `key_codes`.
    """
    radix, place = _box(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)
    return (codes[:, None] // place % radix).astype(np.int64, copy=False)


def key_codes(rows, dim1: int, dim2: int, cutoff1: int, cutoff2: int):
    """The codes of exponent rows alpha + beta, keys of the given shape."""
    place = _box(dim1, dim2, cutoff1, cutoff2)[1]
    return rows.astype(place.dtype, copy=False) @ place


def occupations_below(bounds, cutoff: int):
    """Every occupation vector r <= b of degree <= cutoff, for each row b of
    bounds: the index of b and r, one pair per row, in increasing order.

    Built one component at a time: each row so far repeats once per value
    its next component can still take, so no row is built and then dropped.
    """
    owner = np.arange(len(bounds))
    rows = np.zeros((len(bounds), 0), dtype=np.int64)
    for column in np.asarray(bounds).T:
        counts = np.minimum(column[owner], cutoff - rows.sum(axis=1)) + 1
        first = np.repeat(np.cumsum(counts) - counts, counts)
        owner = np.repeat(owner, counts)
        rows = np.column_stack((np.repeat(rows, counts, axis=0),
                                np.arange(len(first)) - first))
    return owner, rows


def join_rows(rows1, rows2):
    """Every row of rows1 joined to every row of rows2, in code order when
    both are in increasing order."""
    d1 = rows1.shape[1]
    out = np.empty((len(rows1), len(rows2), d1 + rows2.shape[1]),
                   dtype=np.result_type(rows1, rows2))
    out[:, :, :d1] = rows1[:, None]
    out[:, :, d1:] = rows2[None]
    return out.reshape(-1, out.shape[2])


@functools.lru_cache(maxsize=64)
def _variable_rows(dim: int, cutoff: int):
    """One variable's occupation vectors of degree <= cutoff, in code
    order; read-only."""
    rows = occupations_below(np.full((1, dim), cutoff), cutoff)[1]
    rows.flags.writeable = False
    return rows


@functools.lru_cache(maxsize=256)
def key_table(dim1: int, dim2: int, cutoff1: int, cutoff2: int,
              degree1: int, degree2: int, homogeneous: bool = False):
    """The keys of a shape of degree at most (degree1, degree2), or exactly
    that if `homogeneous`, in code order, as terms without values: their
    codes, exponent rows, degrees and mult, as the constructor takes them.

    Read-only and built once per shape and degrees, by joining the
    per-variable tables of occupation vectors, so a sampler that keeps some
    of the keys gathers its terms' data instead of coding and weighing its
    rows again.
    """
    parts = [_variable_rows(dim1, degree1), _variable_rows(dim2, degree2)]
    if homogeneous:
        parts = [rows[rows.sum(axis=1) == degree]
                 for rows, degree in zip(parts, (degree1, degree2))]
    rows = join_rows(*parts)
    table = (key_codes(rows, dim1, dim2, cutoff1, cutoff2), rows,
             *multiplicities(rows, dim1))
    for array in table:
        array.flags.writeable = False
    return table


def _encode(coeffs: Mapping, dim1: int, dim2: int, cutoff1: int,
            cutoff2: int):
    """Sorted codes, values and exponent rows of a mapping (alpha, beta) ->
    coefficient.

    Every key is checked: its lengths, then, for all keys at once, the
    signs and each variable's degree against its cutoff (summed in floats,
    which cannot wrap).
    """
    keys = list(coeffs)
    bad = [k for k in keys
           if len(k) != 2 or len(k[0]) != dim1 or len(k[1]) != dim2]
    if bad:
        raise DimensionMismatchError(f"key {bad[0]} incompatible with dims "
                                     f"({dim1}, {dim2})")
    n, d = len(keys), dim1 + dim2
    try:
        rows = np.fromiter(chain.from_iterable(chain.from_iterable(keys)),
                           dtype=np.int64, count=n * d).reshape(n, d)
    except OverflowError:
        raise ValueError("occupations exceed the cutoffs") from None
    # Reduced across the columns of the transposed rows, as in
    # `multiplicities`.
    columns = rows.T.astype(float, order="C")
    bad = ((columns < 0).any(axis=0)
           | (np.add.reduce(columns[:dim1], axis=0) > cutoff1)
           | (np.add.reduce(columns[dim1:], axis=0) > cutoff2))
    if bad.any():
        raise ValueError(f"key {keys[bad.argmax()]} has a negative "
                         "occupation or exceeds cutoffs")
    codes = key_codes(rows, dim1, dim2, cutoff1, cutoff2)
    order = np.argsort(codes, kind="stable")
    values = np.fromiter(coeffs.values(), dtype=complex, count=n)
    return codes[order], values[order], rows[order]


class _Coefficients(Mapping):
    """Read-only view (alpha, beta) -> complex of an expansion's terms.

    len() reads the code array; anything else reads the expansion's keys,
    decoded on first use.
    """

    def __init__(self, phi: "Expansion2"):
        self._phi = phi

    def __len__(self) -> int:
        return len(self._phi.codes)

    def __getitem__(self, key: Key) -> complex:
        return self._phi._by_key[key]

    def __iter__(self):
        return iter(self._phi._by_key)


class Expansion2:
    """Truncated chaos expansion in two variables.

    Built from a mapping (alpha, beta) -> complex, kept as given (zeros
    included); alpha indexes the first variable (dimension dim1), beta the
    second (dimension dim2, possibly 0).  Degrees above (cutoff1, cutoff2)
    are never stored.  The library's own operations pass the terms in the
    stored layout instead of the mapping: a tuple (codes, values), which may
    go on with the terms' exponent rows and then their degrees and mult as
    `multiplicities` gives them, each None when not known.  What is given
    becomes the expansion's `exponents` and `multiplicities`, so they are
    not computed again.
    Immutable: every array is read-only, `coeffs` a read-only mapping view.
    """

    def __init__(self, dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                 coeffs=None, role: str = TEST):
        if dim1 < 1:
            raise ValueError("dim1 must be >= 1")
        if dim2 < 0:
            raise ValueError("dim2 must be >= 0")
        if role not in (TEST, DISTRIBUTION):
            raise ValueError(f"unknown role {role!r}")
        if not isinstance(coeffs, tuple):
            coeffs = _encode(coeffs or {}, dim1, dim2, cutoff1, cutoff2)
        codes, values, rows, degrees, mult = coeffs + (None,) * (
            5 - len(coeffs))
        fields = vars(self)
        fields.update(dim1=dim1, dim2=dim2, cutoff1=cutoff1, cutoff2=cutoff2,
                      role=role, codes=codes, values=values)
        # The cached properties read these entries first.
        if rows is not None:
            fields["exponents"] = rows
        if mult is not None:
            fields["multiplicities"] = degrees, mult
        for array in (codes, values, rows, degrees, mult):
            if array is not None:
                array.setflags(write=False)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (f"Expansion2({self.dim1}, {self.dim2}, {self.cutoff1}, "
                f"{self.cutoff2}, {dict(self.coeffs)!r}, role={self.role!r})")

    @property
    def coeffs(self) -> Mapping:
        return _Coefficients(self)

    @functools.cached_property
    def _by_key(self) -> Dict[Key, complex]:
        d1 = self.dim1
        return {(tuple(e[:d1]), tuple(e[d1:])): v for e, v in
                zip(self.exponents.tolist(), self.values.tolist())}

    @functools.cached_property
    def exponents(self):
        """One read-only row alpha + beta per stored term."""
        rows = _decode(self.codes, self)
        rows.flags.writeable = False
        return rows

    @functools.cached_property
    def multiplicities(self):
        """Read-only `multiplicities` of the stored terms: per term its
        degrees (|alpha|, |beta|) and mult(alpha) mult(beta)."""
        degrees, mult = multiplicities(self.exponents, self.dim1)
        degrees.flags.writeable = mult.flags.writeable = False
        return degrees, mult

    def known_terms(self, index=None) -> tuple:
        """The terms as the constructor takes them, with the exponent rows
        and multiplicities computed so far (None where not), all of them or
        those at `index` (a slice, a mask or increasing positions)."""
        known = vars(self)
        terms = (self.codes, self.values, known.get("exponents"),
                 *known.get("multiplicities", (None, None)))
        if index is None:
            return terms
        return tuple(None if a is None else a[index] for a in terms)

    def take(self, index) -> "Expansion2":
        """The terms at `index`, as in `known_terms`, in this shape and
        role."""
        return self.with_terms(self.known_terms(index))

    def with_terms(self, terms: tuple, role: str = None) -> "Expansion2":
        """This shape with other terms, a tuple as the constructor takes;
        role kept unless given.  A (codes, values) pair on this expansion's
        own `codes` array keeps its rows and multiplicities."""
        if len(terms) == 2 and terms[0] is self.codes:
            terms += self.known_terms()[2:]
        return Expansion2(self.dim1, self.dim2, self.cutoff1, self.cutoff2,
                          terms, role=role or self.role)

    # -- basic algebra ------------------------------------------------------

    def __getitem__(self, key: Key) -> complex:
        return self._by_key.get(key, 0j)

    # Else `in` and iteration would probe phi[0], phi[1], ... forever.
    __iter__ = None

    def scale(self, c: complex) -> "Expansion2":
        if c == 0:
            return self.take(slice(0))
        return self.with_terms((self.codes, c * self.values))

    def add(self, other: "Expansion2") -> "Expansion2":
        """Sum with an expansion of this shape and role, by `sum_by_code`."""
        _check_compatible(self, other)
        if other.role != self.role:
            raise RoleError("can only add expansions with equal roles")
        return self.with_terms(sum_by_code(
            np.concatenate((self.codes, other.codes)),
            np.concatenate((self.values, other.values))))

    def with_role(self, role: str) -> "Expansion2":
        return self.with_terms((self.codes, self.values), role=role)

    def norm_inf(self) -> float:
        """The largest coefficient modulus, NaN if a coefficient is NaN."""
        return float(np.max(np.abs(self.values), initial=0.0))

    def is_one_variable(self) -> bool:
        return self.dim2 == 0


def _distinct(codes):
    """The stable sort order of codes, the sorted codes, and a mask of the
    first place of each distinct code among them."""
    order = codes.argsort(kind="stable")
    ordered = codes[order]
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, ordered, first


def sum_by_code(codes, values):
    """The terms (codes, values) summed per code, in increasing code order:
    the library's one sum over codes, but for the bins of `pair_products`,
    which give the same bits.  Each code's values are added in input
    order from +0.0 (a stable sort, then `np.bincount` per part), so no sum
    is -0.0 and a prior sum passed first carries on unchanged.  Zero sums
    are dropped.  Returns terms as the `Expansion2` constructor takes them.
    """
    order, ordered, first = _distinct(codes)
    slot = first.cumsum()
    slot -= 1
    # Positions, not masks, index the arrays: numpy gathers by position
    # several times faster than it selects by a boolean mask.
    codes = ordered[first.nonzero()[0]]
    sums = np.empty(len(codes), dtype=complex)
    sums.real = np.bincount(slot, values.real[order], len(codes))
    sums.imag = np.bincount(slot, values.imag[order], len(codes))
    kept = sums.nonzero()[0]
    return codes[kept], sums[kept]


def nan_max(a: float, b: float) -> float:
    """The larger of two errors, or NaN if either is NaN.

    The builtin max(worst, nan) returns worst, so an error accumulator built
    on it would let a NaN sample pass its tolerance check.
    """
    return a if a != a or a >= b else b


def _check_compatible(a: Expansion2, b: Expansion2) -> None:
    if (a.dim1, a.dim2) != (b.dim1, b.dim2):
        raise DimensionMismatchError(
            f"dims ({a.dim1},{a.dim2}) vs ({b.dim1},{b.dim2})")
    if (a.cutoff1, a.cutoff2) != (b.cutoff1, b.cutoff2):
        raise DimensionMismatchError(
            f"cutoffs ({a.cutoff1},{a.cutoff2}) vs ({b.cutoff1},{b.cutoff2})")


def complex_product(a, b):
    """Elementwise a * b of complex arrays, rounded as Python rounds a
    complex product: numpy's own product may fuse a multiply into an add,
    which moves the last bit."""
    out = np.empty(np.broadcast(a, b).shape, dtype=complex)
    out.real = a.real * b.real - a.imag * b.imag
    out.imag = a.real * b.imag + a.imag * b.real
    return out


@functools.lru_cache(maxsize=64)
def _factorials(top: int, exact: bool):
    """Read-only table of k! for k <= top: int64 if `exact`, else Python
    integers."""
    table = np.array([math.factorial(k) for k in range(top + 1)],
                     dtype=np.int64 if exact else object)
    table.flags.writeable = False
    return table


def multiplicities(exponents, dim1: int):
    """Per-variable degrees (|alpha|, |beta|) and mult(alpha) mult(beta).

    `exponents` holds one row alpha + beta per key.  The multiplicities are
    exact integers: int64 while the factorials of the largest degrees
    multiply below 2^63, Python integers past that.  The sums and products
    run across the columns of the transposed rows, a vector operation per
    component: numpy reduces along rows of a few entries one row at a time,
    which cost a large expansion most of its time here.
    """
    columns = exponents.T.copy()
    n = np.add.reduce(columns[:dim1], axis=0)
    m = np.add.reduce(columns[dim1:], axis=0)
    top = int(n.max(initial=0)), int(m.max(initial=0))
    exact = math.factorial(top[0]) * math.factorial(top[1]) < 1 << 63
    fact = _factorials(max(top), exact)
    mult = fact[n] * fact[m]
    mult //= np.multiply.reduce(fact[columns], axis=0)
    degrees = np.empty((len(exponents), 2), dtype=np.int64)
    degrees[:, 0] = n
    degrees[:, 1] = m
    return degrees, mult


def pairing_weights(degrees, mult):
    """n! m! mult(alpha) mult(beta) per key, from its degrees (n, m) and its
    multiplicity as `multiplicities` gives them: the weight of the canonical
    pairing, exact integers, each rounded to a float once: in int64 while
    the largest degrees' factorials and the largest mult multiply below
    2^63, as in `multiplicities`, in Python integers past that."""
    top = degrees.max(axis=0, initial=0).tolist()
    bound = (math.factorial(top[0]) * math.factorial(top[1])
             * int(mult.max(initial=1)))
    exact = bound < 1 << 63
    fact = _factorials(max(top), exact)
    if exact:
        mult = mult.astype(np.int64, copy=False)
    return (fact[degrees[:, 0]] * fact[degrees[:, 1]] * mult).astype(float)


# The largest evaluation an input may ask for, in complex cells of a
# points x (keys + coordinates) array and, where charged, the power table
# (see `check_evaluation_size`): 2^22 cells, 64 MiB.  A heat solve at
# dims (2,2), cutoff 6 counts its symbol-ODE grid, 2401 points x
# (784 keys + 4 coordinates), as 1,891,988.
MAX_EVALUATION_CELLS = 1 << 22


def coefficient_count(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> int:
    """C(cutoff1+dim1, dim1) C(cutoff2+dim2, dim2), the keys up to the cutoffs.

    Counts above MAX_EVALUATION_CELLS read as MAX_EVALUATION_CELLS + 1: the
    binomials are built factor by factor and stop there, so absurd sizes
    from an input file cost nothing to reject.
    """
    limit = MAX_EVALUATION_CELLS
    count = _binomial_up_to(cutoff1 + dim1, dim1, limit)
    count *= _binomial_up_to(cutoff2 + dim2, dim2, limit)
    return min(count, limit + 1)


def grid_point_count(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> int:
    """(cutoff1+1)^dim1 (cutoff2+1)^dim2, the points of the symbol-ODE grid.

    Stops past MAX_EVALUATION_CELLS as `coefficient_count` does.
    """
    limit = MAX_EVALUATION_CELLS
    count = 1
    for base, dim in ((cutoff1 + 1, dim1), (cutoff2 + 1, dim2)):
        # A base of 2 or more passes the limit within 23 factors.
        for _ in range(dim if base > 1 else min(dim, 1)):
            count *= max(base, 0)
            if count > limit:
                return limit + 1
    return count


def _binomial_up_to(n: int, k: int, limit: int) -> int:
    k = min(k, n - k)
    out = 1
    for i in range(1, k + 1):
        # out is C(n - k + i, i), which grows with i.
        out = out * (n - k + i) // i
        if out > limit:
            return limit + 1
    return out


def check_evaluation_size(points: int, keys: int, dim1: int, dim2: int,
                          powers: int = 0) -> None:
    """Reject evaluating `keys` coefficients at `points` points over budget:
    points x (keys + coordinates) cells, plus coordinates x points x
    `powers` for a table of each coordinate's powers 0 .. powers - 1, as
    `monomial_matrix` allocates it."""
    cells = points * (keys + (dim1 + dim2) * (1 + powers))
    if cells > MAX_EVALUATION_CELLS:
        raise ValueError(
            f"evaluation at {points} points of {keys} coefficients in "
            f"{dim1}+{dim2} coordinates needs {cells} cells, over the budget "
            f"of {MAX_EVALUATION_CELLS}")


def monomial_matrix(exponents, dim1: int, x):
    """The complex points x keys matrix of mult(alpha) mult(beta)
    z^alpha t^beta.

    `exponents` holds one row alpha + beta per key, x one row per point:
    its z coordinates, then its t coordinates.  The powers of every
    coordinate, up to the largest exponent among the keys, come from one
    cumulative product over all points (so 0^0 = 1), and the matrix gathers
    its factors from that table.  An expansion's values at the points are
    this matrix times its coefficient vector.
    """
    npoints, ncoords = x.shape
    powers = np.ones((ncoords, npoints, int(exponents.max(initial=0)) + 1),
                     dtype=complex)
    powers[:, :, 1:] = x.T[:, :, None]
    np.cumprod(powers, axis=2, out=powers)
    out = np.empty((npoints, len(exponents)), dtype=complex)
    out[:] = multiplicities(exponents, dim1)[1].astype(float)
    for i in range(ncoords):
        out *= powers[i][:, exponents[:, i]]
    return out


def coefficient_polynomials(phis: Sequence[Expansion2], x):
    """Values of expansions of one shape at many points, (points, len(phis)).

    x holds one row of coordinates per point, as in `monomial_matrix`; the
    keys are the union of the expansions' codes.
    """
    ref = phis[0]
    _, ordered, first = _distinct(np.concatenate([phi.codes for phi in phis]))
    codes = ordered[first]
    coef = np.zeros((len(codes), len(phis)), dtype=complex)
    for j, phi in enumerate(phis):
        coef[np.searchsorted(codes, phi.codes), j] = phi.values
    return monomial_matrix(_decode(codes, ref), ref.dim1, x) @ coef


def point_coordinates(points: Sequence, dim1: int, dim2: int):
    """One row per (z, t) point: its z coordinates, then its t coordinates."""
    for z, t in points:
        if len(z) != dim1 or len(t) != dim2:
            raise DimensionMismatchError(
                f"point dims ({len(z)},{len(t)}) vs expansion ({dim1},{dim2})")
    return np.array([tuple(z) + tuple(t) for z, t in points],
                    dtype=complex).reshape(len(points), dim1 + dim2)


def coefficient_polynomial(phi: Expansion2, point) -> complex:
    """Sum mult(alpha) mult(beta) c_{alpha,beta} z^alpha t^beta at (z, t).

    This is plain evaluation for a test expansion and, with the same formula,
    the Laplace transform for a distribution; the role check lives in the
    public wrappers.  It is the one-point case of `coefficient_polynomials`.
    """
    x = point_coordinates([point], phi.dim1, phi.dim2)
    return complex(coefficient_polynomials([phi], x)[0, 0])


def evaluate(phi: Expansion2, z: Sequence[complex],
             t: Sequence[complex] = ()) -> complex:
    """Evaluate a test expansion at a point (z, t) of the (dual) base space."""
    if phi.role != TEST:
        raise RoleError("evaluate needs a test expansion; use laplace "
                        "for distributions")
    return coefficient_polynomial(phi, (z, t))


def laplace(Phi: Expansion2, xi: Sequence[complex],
            eta: Sequence[complex] = ()) -> complex:
    """Laplace transform of a distribution: pairing with e_{(xi,eta)}.

    Coefficient-wise the exponential-vector factorials cancel, leaving the
    plain bilinear pairing of each Phi_{n,m} with xi^n (x) eta^m.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("laplace needs a distribution")
    return coefficient_polynomial(Phi, (xi, eta))


def exponential_vector(xi: Sequence[complex], eta: Sequence[complex],
                       cutoff1: int, cutoff2: int) -> Expansion2:
    """e_{(xi,eta)}: coefficient at (n,m) is xi^n / n! (x) eta^m / m!; keys
    whose monomial in a variable of positive degree is zero are left out."""
    parts = []
    for point, cutoff in ((xi, cutoff1), (eta, cutoff2)):
        rows = _variable_rows(len(point), cutoff)
        monomial = np.ones(len(rows), dtype=complex)
        for x, column in zip(point, rows.T):
            hit = column > 0
            monomial[hit] = complex_product(monomial[hit],
                                            np.power(complex(x), column[hit]))
        kept = (monomial != 0) | ~rows.any(axis=1)
        parts.append((rows[kept], monomial[kept]))
    (rows1, mono1), (rows2, mono2) = parts
    # n! m!, exact (in int64 while the cutoffs' factorials multiply below
    # 2^63, else in Python integers) and rounded once.
    exact = (math.factorial(max(cutoff1, 0)) * math.factorial(max(cutoff2, 0))
             < 1 << 63)
    fact = _factorials(max(cutoff1, cutoff2, 0), exact)
    n, m = rows1.sum(axis=1), rows2.sum(axis=1)
    denominator = np.multiply.outer(fact[n], fact[m]).ravel().astype(float)
    values = complex_product(mono1[:, None], mono2[None, :]).ravel()
    values.real /= denominator
    values.imag /= denominator
    shape = (len(xi), len(eta), cutoff1, cutoff2)
    rows = join_rows(rows1, rows2)
    return Expansion2(*shape, (key_codes(rows, *shape), values, rows),
                      role=TEST)


def _unit(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> tuple:
    """The terms of the zero key with coefficient 1: code 0, as the
    constructor takes them."""
    if min(cutoff1, cutoff2) < 0:
        raise ValueError("the zero key exceeds a negative cutoff")
    dtype = _box(dim1, dim2, cutoff1, cutoff2)[1].dtype
    return (np.zeros(1, dtype=dtype), np.ones(1, dtype=complex),
            np.zeros((1, dim1 + dim2), dtype=np.int64),
            np.zeros((1, 2), dtype=np.int64), np.ones(1, dtype=np.int64))


def vacuum(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> Expansion2:
    """The constant function 1 (exponential vector at the origin)."""
    return Expansion2(dim1, dim2, cutoff1, cutoff2,
                      _unit(dim1, dim2, cutoff1, cutoff2), role=TEST)


def delta0(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> Expansion2:
    """Evaluation-at-the-origin distribution, the convolution unit."""
    return Expansion2(dim1, dim2, cutoff1, cutoff2,
                      _unit(dim1, dim2, cutoff1, cutoff2), role=DISTRIBUTION)


def translate(phi: Expansion2, z: Sequence[complex],
              t: Sequence[complex] = ()) -> Expansion2:
    """Shift of a test expansion by s = (z, t): phi(x + s) as a function of x.

    The contraction of phi against the exponential vector e_s read as a
    distribution, as `gross.convolve_dist_test` computes it.
    """
    if phi.role != TEST:
        raise RoleError("translate needs a test expansion")
    s = point_coordinates([(z, t)], phi.dim1, phi.dim2)[0]
    e_s = exponential_vector(s[:phi.dim1], s[phi.dim1:], phi.cutoff1,
                             phi.cutoff2)
    return phi.with_terms(pair_products(e_s.with_role(DISTRIBUTION), phi,
                                        contract=True))


def lookup_codes(codes, keys):
    """The places i of the keys found among sorted unique codes, in
    increasing order, and where each was found: codes[at] == keys[i].
    One binary search per key (`np.searchsorted`), no sort."""
    at = np.searchsorted(codes, keys)
    i = (at < len(codes)).nonzero()[0]
    i = i[codes[at[i]] == keys[i]]
    return i, at[i]


def dual_pair(Phi: Expansion2, phi: Expansion2) -> complex:
    """Canonical pairing <<Phi, phi>> = sum n! m! <Phi_{n,m}, phi_{n,m}>."""
    if Phi.role != DISTRIBUTION:
        raise RoleError("dual_pair needs a distribution on the left")
    if phi.role != TEST:
        raise RoleError("dual_pair needs a test expansion on the right")
    _check_compatible(Phi, phi)
    i, j = lookup_codes(phi.codes, Phi.codes)
    degrees, mult = Phi.multiplicities
    w = pairing_weights(degrees[i], mult[i])
    return complex(np.sum(w * Phi.values[i] * phi.values[j]))


def sym_convolve_coeffs(f: Expansion2, g: Expansion2) -> Expansion2:
    """Per-variable symmetrized-product convolution of coefficient families.

    Returns the product, truncated at the shared cutoffs, with f's role:
    only degrees past the cutoffs are dropped, and each kept coefficient is
    that of the untruncated product.  This is the engine behind both the
    pointwise product of test functions and the convolution of
    distributions.
    """
    _check_compatible(f, g)
    return f.with_terms(pair_products(f, g, contract=False))


# Pairs examined at once by `pair_products`: a block of the left operand's
# terms against every term of the right, so small products take one step;
# and the fewest landing pairs, besides the running sums, that a fold
# before the last hands to `sum_by_code`.
PAIR_BLOCK = 4096

# A product of one block sums in bins, one per code of its box, when the box
# holds at most BIN_CELLS_PER_PAIR * (landing pairs + SORT_PAIRS) codes, and
# else sorts.  Measured on a 2-core Xeon with numpy 2.4: a sort costs about
# 7-12 us plus 30-80 ns per pair, the bins about 2.2 us plus 6.2 ns per cell
# of the box, so a sort's fixed cost buys about 100 pairs and each pair
# sorted about 5 cells.  Over the 355 distinct one-block products of the
# `verify`, `heat` and `driven` benchmark runs, this rule took 14.9 ms, as
# did the faster path for each product (to 0.3%), the sort alone 19.1 ms
# and the bins alone 44.2 ms; slopes of 4 to 10 cells with floors of 50 to
# 200 pairs came within 1.1% of the faster paths.
BIN_CELLS_PER_PAIR = 5
SORT_PAIRS = 100


@functools.lru_cache(maxsize=64)
def _falling_factorials(cutoff: int, wtype: type):
    """Read-only flat table of K!/(K - n)! at n (cutoff + 1) + K for n,
    K <= cutoff, the exact integers in Python integers (`object`) or
    rounded to floats."""
    table = np.array([math.perm(K, n) for n in range(cutoff + 1)
                      for K in range(cutoff + 1)], dtype=wtype)
    table.flags.writeable = False
    return table


def _sum_in_bins(codes, values, box: int):
    """`sum_by_code` of codes below `box`, in one bin per code of the box
    (`np.bincount` per part): each code's values are added in input order
    from +0.0, as after the sort, so the sums have the same bits."""
    sums = np.empty(box, dtype=complex)
    sums.real = np.bincount(codes, values.real, box)
    sums.imag = np.bincount(codes, values.imag, box)
    kept = sums.nonzero()[0]
    return kept, sums[kept]


def pair_products(left: Expansion2, right: Expansion2, contract: bool):
    """Sum of W c_l c_r over pairs of stored terms: the one product kernel.

    Without `contract` the pair of keys (l, r) lands on l + r when that is
    within the cutoffs, W = mult(l) mult(r), and each sum is then divided
    by mult(l + r): the symmetrized product of `sym_convolve_coeffs`.  With
    `contract` it lands on r - l when no component is negative, and
    W = mult(l) (|r1|!/|r1 - l1|!) (|r2|!/|r2 - l2|!) over the two
    variables: the distribution-test contraction of
    `gross.convolve_dist_test`.  Each W is an exact integer rounded to a
    float once; each term is (W c_l) c_r, and the terms of one output are
    added in the left operand's key order, whatever the operands' sizes or
    cutoffs.  Sums that come out zero are dropped.  Returns the result's
    terms, as the `Expansion2` constructor takes them; a symmetrized
    product's terms carry the exponent rows and multiplicities its division
    needed.

    The operands' codes are read as they are stored: a shift by a term of
    the left operand is an integer add (or subtract) on the right operand's
    code array.  Terms of the left operand are taken PAIR_BLOCK / (terms of
    the right) at a time, at least one.  Each block's landing pairs are
    held until they number max(PAIR_BLOCK, running sums), or the left
    operand ends, and then folded in by one `sum_by_code` of the running
    sums followed by the held pairs, so each fold's sort is paid for by the
    pairs it takes in; the first fold has no running sums, and a single
    held block goes to it as it is, uncopied.  A product of one block whose
    box (the number of codes of its shape) is small for its landing pairs,
    as BIN_CELLS_PER_PAIR and SORT_PAIRS set out, sums them in bins
    instead: one per code of the box, each adding its pairs in input order
    from +0.0 (`np.bincount`), the order the sort keeps, so either path
    gives the same bits; a symmetrized product then reads its result's term data
    from its shape's `key_table`, no larger than the box, instead of
    decoding and weighing its codes.  Codes past int64 always sort.  A
    contraction reads each variable's falling factor with one gather from
    that cutoff's flat table.
    Transient arrays hold O(sums + PAIR_BLOCK + terms of the right)
    entries, never one per pair of a large product; the bins hold the box,
    at most BIN_CELLS_PER_PAIR * (max(PAIR_BLOCK, terms of the right) +
    SORT_PAIRS) cells, since one block has no more landing pairs.
    """
    if not len(left.codes) or not len(right.codes):
        return left.codes[:0], np.zeros(0, dtype=complex)
    c1, c2 = left.cutoff1, left.cutoff2
    code_l, rows_l, c_l = left.codes, left.exponents, left.values
    code_r, rows_r, c_r = right.codes, right.exponents, right.values
    deg_l, w_l = left.multiplicities
    deg_r, w_r = right.multiplicities
    if contract:
        bound = int(w_l.max()) * math.factorial(c1) * math.factorial(c2)
    else:
        bound = int(w_l.max()) * int(w_r.max())
    # A float product of exact float factors is exact below 2^53; above it
    # the products are taken in Python integers and rounded once.
    wtype = float if bound < 1 << 53 else object
    w_l = w_l.astype(wtype)
    # A pair lands when need[:, l] <= room[:, r] in every component, each
    # component one contiguous row so that `all` reduces across rows.
    if contract:
        # falling[v][at_l[v][l] + at_r[v][r]]: the factor of variable v for
        # the pair, one gather from its flat table.
        falling = [_falling_factorials(c, wtype) for c in (c1, c2)]
        at_l = (deg_l * (c1 + 1, c2 + 1)).T.copy()
        at_r = deg_r.T.copy()
        need, room = rows_l.T, rows_r.T
    else:
        w_r = w_r.astype(wtype)
        need, room = deg_l.T, np.array([[c1], [c2]]) - deg_r.T
    need, room = np.ascontiguousarray(need), np.ascontiguousarray(room)

    radix, place = _box(left.dim1, left.dim2, c1, c2)
    box = int(radix[0] * place[0])
    sums, held, pairs = None, [], 0
    step = max(1, PAIR_BLOCK // len(c_r))
    for start in range(0, len(c_l), step):
        # A block of the left operand's terms (rows) against all terms of
        # the right (columns), read in place by broadcasting; nonzero lists
        # the kept pairs row by row, so in the left operand's key order.
        block = slice(start, start + step)
        keep = (need[:, block, None] <= room[:, None, :]).all(axis=0)
        il, ir = keep.nonzero()
        il += start
        if contract:
            w = (w_l[il] * falling[0][at_l[0][il] + at_r[0][ir]]
                 * falling[1][at_l[1][il] + at_r[1][ir]])
            target = code_r[ir] - code_l[il]
        else:
            w = w_l[il] * w_r[ir]
            target = code_l[il] + code_r[ir]
        terms = target, (w.astype(float, copy=False) * c_l[il]) * c_r[ir]
        binned = (step >= len(c_l)
                  and box <= BIN_CELLS_PER_PAIR * (len(il) + SORT_PAIRS))
        if binned:
            sums = _sum_in_bins(*terms, box)
            break
        held.append(terms)
        pairs += len(il)
        if (pairs >= max(PAIR_BLOCK, len(sums[0]) if sums else 0)
                or start + step >= len(c_l)):
            parts = [sums, *held] if sums else held
            sums = sum_by_code(*(parts[0] if len(parts) == 1 else
                                 map(np.concatenate, zip(*parts))))
            held, pairs = [], 0

    codes, values = sums
    if contract:
        return codes, values
    if binned:
        # The box is small, so the table of its keys is too.
        table = key_table(left.dim1, left.dim2, c1, c2, c1, c2)
        at = np.searchsorted(table[0], codes)
        rows, degrees, mult = (array[at] for array in table[1:])
    else:
        rows = _decode(codes, left)
        degrees, mult = multiplicities(rows, left.dim1)
    divisor = mult.astype(float)
    values.real /= divisor
    values.imag /= divisor
    return codes, values, rows, degrees, mult


def pointwise_product(f: Expansion2, g: Expansion2) -> Expansion2:
    """Product of two test functions, truncated at the shared cutoffs."""
    if f.role != TEST or g.role != TEST:
        raise RoleError("pointwise_product needs two test expansions")
    return sym_convolve_coeffs(f, g)


# ---------------------------------------------------------------------------
# JSON interchange


def expansion_to_json(phi: Expansion2) -> dict:
    d1 = phi.dim1
    return {
        "dim1": phi.dim1,
        "dim2": phi.dim2,
        "cutoff1": phi.cutoff1,
        "cutoff2": phi.cutoff2,
        "role": phi.role,
        "terms": [
            {"alpha": e[:d1], "beta": e[d1:], "re": v.real, "im": v.imag}
            for e, v in zip(phi.exponents.tolist(), phi.values.tolist())
        ],
    }


# The largest cutoff an input may give.  170 is the largest n with n!
# inside the double range (170! < 7.3e306, 171! > 1.2e309 > 1.8e308):
# the pairing weight n! m! mult(alpha) mult(beta) of every key of degree
# n > 170 overflows, so a larger cutoff buys only factorial tables, which
# cost time and memory before any result.
MAX_CUTOFF = 170


def expansion_from_json(obj: dict, field: str = "") -> Expansion2:
    """An expansion from its JSON form, the input's `field` (the input
    itself if empty), whose members are named as `_json_member` names them;
    a cutoff over MAX_CUTOFF is rejected before the terms are read, and a
    key given twice is rejected."""
    obj = _json_object(obj, field)
    path = f"{field}." if field else ""
    shape = tuple(_json_count(_json_member(obj, k, field, None), path + k)
                  for k in ("dim1", "dim2", "cutoff1", "cutoff2"))
    if max(shape[2:]) > MAX_CUTOFF:
        raise ValueError(f"{path}cutoffs {shape[2:]} exceed {MAX_CUTOFF}, "
                         f"past which pairing weights overflow")
    coeffs = {}
    terms = _json_object(obj.get("terms", []), f"{path}terms", list)
    for i, t in enumerate(terms):
        where = f"{path}terms[{i}]"
        t = _json_object(t, where)
        key = tuple(_json_multi_index(_json_member(t, k, where, list))
                    for k in ("alpha", "beta"))
        if key in coeffs:
            raise ValueError(f"term alpha={list(key[0])}, "
                             f"beta={list(key[1])} appears twice")
        coeffs[key] = complex(
            _json_number(_json_member(t, "re", where, None), "a real part"),
            _json_number(t.get("im", 0.0), "an imaginary part"))
    return Expansion2(*shape, coeffs, role=obj.get("role", TEST))


def _json_object(value, field: str = "", kind: type = dict):
    """A JSON object (an array with kind=list); other values are rejected,
    naming the input's `field` when given."""
    if not isinstance(value, kind):
        name = "object" if kind is dict else "array"
        where = f" for {field}" if field else ""
        raise ValueError(f"expected a JSON {name}{where}, not "
                         f"{type(value).__name__}")
    return value


def _json_member(obj: dict, key: str, field: str = "", kind: type = dict):
    """obj[key], where obj is the input's `field` (the input itself if
    empty), named `field.key`; a missing key is named.  With kind dict or
    list the value is checked by `_json_object`; kind None takes any value,
    for the caller to check."""
    if key not in obj:
        raise ValueError(f'{field or "the input"} has no "{key}"')
    if kind is None:
        return obj[key]
    return _json_object(obj[key], f"{field}.{key}" if field else key, kind)


def _json_count(value, what: str) -> int:
    """A JSON integer >= 0; booleans, floats and strings are rejected."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, not {value!r}")
    return value


def _json_number(value, what: str) -> float:
    """A finite JSON number as a float; booleans, strings and numbers past
    double range (1e999 parses to inf, 10**400 to an integer) are rejected."""
    if type(value) not in (int, float):
        raise ValueError(f"{what} must be a number, not {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, within double range")
    return number


def _json_multi_index(values) -> MultiIndex:
    return tuple(_json_count(v, "an occupation") for v in values)
