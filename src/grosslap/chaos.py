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
keys and of the bins of the symbol grid.  `_encode` and `_decode` convert;
dicts of keys appear only in the constructor, JSON and the `coeffs` view.
"""

from __future__ import annotations

import cmath
import functools
import math
import operator
from collections.abc import Mapping
from dataclasses import FrozenInstanceError, dataclass
from itertools import accumulate, chain
from typing import Dict, Sequence, Tuple

import numpy as np

from .tensor_core import (
    DimensionMismatchError,
    MultiIndex,
    iter_occupations,
)

TEST = "test"
DISTRIBUTION = "distribution"

Key = Tuple[MultiIndex, MultiIndex]


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

    The inverse of `_encode`.
    """
    radix, place = _box(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)
    return (codes[:, None] // place % radix).astype(np.int64)


def _encode(coeffs: Mapping, dim1: int, dim2: int, cutoff1: int,
            cutoff2: int):
    """Sorted codes and values of a mapping (alpha, beta) -> coefficient.

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
    bad = ((rows < 0).any(axis=1)
           | (rows[:, :dim1].sum(axis=1, dtype=float) > cutoff1)
           | (rows[:, dim1:].sum(axis=1, dtype=float) > cutoff2))
    if bad.any():
        raise ValueError(f"key {keys[bad.argmax()]} has a negative "
                         "occupation or exceeds cutoffs")
    place = _box(dim1, dim2, cutoff1, cutoff2)[1]
    codes = rows.astype(place.dtype) @ place
    order = np.argsort(codes, kind="stable")
    values = np.fromiter(coeffs.values(), dtype=complex, count=n)
    return codes[order], values[order]


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
    are never stored; ``truncated`` records that some operation had to drop
    a produced degree.  The library's own operations pass a (codes, values)
    pair in the stored layout instead of the mapping.  Immutable: `codes`
    and `values` are read-only arrays, `coeffs` a read-only mapping view.
    """

    def __init__(self, dim1: int, dim2: int, cutoff1: int, cutoff2: int,
                 coeffs=None, role: str = TEST, truncated: bool = False):
        if dim1 < 1:
            raise ValueError("dim1 must be >= 1")
        if dim2 < 0:
            raise ValueError("dim2 must be >= 0")
        if role not in (TEST, DISTRIBUTION):
            raise ValueError(f"unknown role {role!r}")
        codes, values = (coeffs if isinstance(coeffs, tuple) else
                         _encode(coeffs or {}, dim1, dim2, cutoff1, cutoff2))
        codes.flags.writeable = values.flags.writeable = False
        vars(self).update(dim1=dim1, dim2=dim2, cutoff1=cutoff1,
                          cutoff2=cutoff2, role=role, truncated=truncated,
                          codes=codes, values=values)

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __repr__(self) -> str:
        return (f"Expansion2({self.dim1}, {self.dim2}, {self.cutoff1}, "
                f"{self.cutoff2}, {dict(self.coeffs)!r}, role={self.role!r}, "
                f"truncated={self.truncated})")

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

    def with_terms(self, codes, values, role: str = None,
                   truncated: bool = None) -> "Expansion2":
        """This shape with other terms; role and flag kept unless given."""
        return Expansion2(self.dim1, self.dim2, self.cutoff1, self.cutoff2,
                          (codes, values), role=role or self.role,
                          truncated=(self.truncated if truncated is None
                                     else truncated))

    # -- basic algebra ------------------------------------------------------

    def __getitem__(self, key: Key) -> complex:
        return self._by_key.get(key, 0j)

    # Else `in` and iteration would probe phi[0], phi[1], ... forever.
    __iter__ = None

    def scale(self, c: complex) -> "Expansion2":
        if c == 0:
            return self.with_terms(self.codes[:0], self.values[:0])
        return self.with_terms(self.codes, c * self.values)

    def add(self, other: "Expansion2") -> "Expansion2":
        _check_compatible(self, other)
        if other.role != self.role:
            raise RoleError("can only add expansions with equal roles")
        codes = np.union1d(self.codes, other.codes)
        values = np.zeros(len(codes), dtype=complex)
        values[np.searchsorted(codes, self.codes)] = self.values
        values[np.searchsorted(codes, other.codes)] += other.values
        kept = values != 0
        return self.with_terms(codes[kept], values[kept],
                               truncated=self.truncated or other.truncated)

    def with_role(self, role: str) -> "Expansion2":
        return self.with_terms(self.codes, self.values, role=role)

    def norm_inf(self) -> float:
        """The largest coefficient modulus, NaN if a coefficient is NaN."""
        return float(np.max(np.abs(self.values), initial=0.0))

    def is_one_variable(self) -> bool:
        return self.dim2 == 0


@dataclass(frozen=True)
class Point2:
    """Evaluation point (z, t) with z over dim1 and t over dim2."""

    z: Tuple[complex, ...]
    t: Tuple[complex, ...] = ()

    @staticmethod
    def of(z: Sequence[complex], t: Sequence[complex] = ()) -> "Point2":
        return Point2(tuple(complex(x) for x in z),
                      tuple(complex(x) for x in t))

    def __add__(self, other: "Point2") -> "Point2":
        return Point2(tuple(a + b for a, b in zip(self.z, other.z)),
                      tuple(a + b for a, b in zip(self.t, other.t)))


def _check_compatible(a: Expansion2, b: Expansion2) -> None:
    if (a.dim1, a.dim2) != (b.dim1, b.dim2):
        raise DimensionMismatchError(
            f"dims ({a.dim1},{a.dim2}) vs ({b.dim1},{b.dim2})")
    if (a.cutoff1, a.cutoff2) != (b.cutoff1, b.cutoff2):
        raise DimensionMismatchError(
            f"cutoffs ({a.cutoff1},{a.cutoff2}) vs ({b.cutoff1},{b.cutoff2})")


def _check_point(phi: Expansion2, p: Point2) -> None:
    if len(p.z) != phi.dim1 or len(p.t) != phi.dim2:
        raise DimensionMismatchError(
            f"point dims ({len(p.z)},{len(p.t)}) vs "
            f"expansion ({phi.dim1},{phi.dim2})")


def _monomial(point: Sequence[complex], alpha: MultiIndex) -> complex:
    v = 1 + 0j
    for x, a in zip(point, alpha):
        if a:
            v *= complex(x) ** a
    return v


def multiplicities(exponents, dim1: int):
    """Per-variable degrees (|alpha|, |beta|) and mult(alpha) mult(beta).

    `exponents` holds one row alpha + beta per key.  The multiplicities are
    exact integers: int64 while the factorials of the largest degrees
    multiply below 2^63, Python integers past that.
    """
    degrees = np.stack((exponents[:, :dim1].sum(axis=1),
                        exponents[:, dim1:].sum(axis=1)), axis=1)
    top = degrees.max(axis=0, initial=0).tolist()
    exact = math.factorial(top[0]) * math.factorial(top[1]) < 1 << 63
    fact = np.array([math.factorial(k) for k in range(max(top) + 1)],
                    dtype=np.int64 if exact else object)
    mult = fact[degrees[:, 0]] * fact[degrees[:, 1]]
    for column in exponents.T:
        mult //= fact[column]
    return degrees, mult


# The largest evaluation an input may ask for, in complex cells of a
# points x (keys + coordinates) array: 2^22 cells, 64 MiB.  A heat solve at
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


def check_evaluation_size(points: int, keys: int, dim1: int,
                          dim2: int) -> None:
    """Reject evaluating `keys` coefficients at `points` points over budget."""
    cells = points * (keys + dim1 + dim2)
    if cells > MAX_EVALUATION_CELLS:
        raise ValueError(
            f"evaluation at {points} points of {keys} coefficients in "
            f"{dim1}+{dim2} coordinates needs {cells} cells, over the budget "
            f"of {MAX_EVALUATION_CELLS}")


def monomial_matrix(exponents, dim1: int, x):
    """The points x keys matrix of mult(alpha) mult(beta) z^alpha t^beta.

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
    codes = np.unique(np.concatenate([phi.codes for phi in phis]))
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


def coefficient_polynomial(phi: Expansion2, p: Point2) -> complex:
    """Sum mult(alpha) mult(beta) c_{alpha,beta} z^alpha t^beta.

    This is plain evaluation for a test expansion and, with the same formula,
    the Laplace transform for a distribution; the role check lives in the
    public wrappers.  It is the one-point case of `coefficient_polynomials`.
    """
    _check_point(phi, p)
    x = np.array([p.z + p.t], dtype=complex)
    return complex(coefficient_polynomials([phi], x)[0, 0])


def evaluate(phi: Expansion2, p: Point2) -> complex:
    """Evaluate a test expansion at a point of the (dual) base space."""
    if phi.role != TEST:
        raise RoleError("evaluate needs a test expansion; use laplace "
                        "for distributions")
    return coefficient_polynomial(phi, p)


def laplace(Phi: Expansion2, xi: Sequence[complex],
            eta: Sequence[complex] = ()) -> complex:
    """Laplace transform of a distribution: pairing with e_{(xi,eta)}.

    Coefficient-wise the exponential-vector factorials cancel, leaving the
    plain bilinear pairing of each Phi_{n,m} with xi^n (x) eta^m.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("laplace needs a distribution")
    return coefficient_polynomial(Phi, Point2.of(xi, eta))


def exponential_vector(xi: Sequence[complex], eta: Sequence[complex],
                       cutoff1: int, cutoff2: int) -> Expansion2:
    """e_{(xi,eta)}: coefficient at (n,m) is xi^n / n! (x) eta^m / m!."""
    dim1, dim2 = len(xi), len(eta)
    coeffs: Dict[Key, complex] = {}
    for n in range(cutoff1 + 1):
        fn = math.factorial(n)
        for alpha in iter_occupations(dim1, n):
            va = _monomial(xi, alpha)
            if va == 0 and n > 0:
                continue
            for m in range(cutoff2 + 1):
                fm = math.factorial(m)
                for beta in iter_occupations(dim2, m):
                    vb = _monomial(eta, beta)
                    if vb == 0 and m > 0:
                        continue
                    coeffs[(alpha, beta)] = va * vb / (fn * fm)
    return Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs, role=TEST)


def vacuum(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> Expansion2:
    """The constant function 1 (exponential vector at the origin)."""
    zero_key = ((0,) * dim1, (0,) * dim2)
    return Expansion2(dim1, dim2, cutoff1, cutoff2, {zero_key: 1 + 0j}, role=TEST)


def delta0(dim1: int, dim2: int, cutoff1: int, cutoff2: int) -> Expansion2:
    """Evaluation-at-the-origin distribution, the convolution unit."""
    zero_key = ((0,) * dim1, (0,) * dim2)
    return Expansion2(dim1, dim2, cutoff1, cutoff2, {zero_key: 1 + 0j},
                      role=DISTRIBUTION)


def translate(phi: Expansion2, shift: Point2) -> Expansion2:
    """Shift of a test expansion: translate(phi, s)(x) = phi(x + s).

    Coefficients follow the binomial rule: the (gamma, delta) coefficient
    picks up C(n+i, i) C(m+j, j) times the contraction of s^i (x) s^j against
    phi_{n+i, m+j}.  That is the convolution of phi with the exponential
    vector e_s read as a distribution, which the product kernel computes.
    """
    from .gross import convolve_dist_test
    if phi.role != TEST:
        raise RoleError("translate needs a test expansion")
    _check_point(phi, shift)
    e = exponential_vector(shift.z, shift.t, phi.cutoff1, phi.cutoff2)
    return convolve_dist_test(e.with_role(DISTRIBUTION), phi)


def _sub_occupations(alpha: MultiIndex):
    """All occupation vectors mu with mu <= alpha componentwise."""
    if not alpha:
        yield ()
        return
    head, tail = alpha[0], alpha[1:]
    for h in range(head + 1):
        for rest in _sub_occupations(tail):
            yield (h,) + rest


def dual_pair(Phi: Expansion2, phi: Expansion2) -> complex:
    """Canonical pairing <<Phi, phi>> = sum n! m! <Phi_{n,m}, phi_{n,m}>."""
    if Phi.role != DISTRIBUTION:
        raise RoleError("dual_pair needs a distribution on the left")
    if phi.role != TEST:
        raise RoleError("dual_pair needs a test expansion on the right")
    _check_compatible(Phi, phi)
    _, i, j = np.intersect1d(Phi.codes, phi.codes, assume_unique=True,
                             return_indices=True)
    degrees, mult = multiplicities(Phi.exponents[i], Phi.dim1)
    w = [math.factorial(n) * math.factorial(m) * k for (n, m), k in
         zip(degrees.tolist(), mult.tolist())]
    return complex(np.sum(np.array(w, dtype=float) * Phi.values[i]
                          * phi.values[j]))


def sym_convolve_coeffs(f: Expansion2,
                        g: Expansion2) -> Tuple[Expansion2, bool]:
    """Per-variable symmetrized-product convolution of coefficient families.

    Returns the product, truncated at the shared cutoffs, with f's role and
    flagged truncated if f, g or the product dropped something, plus a flag
    saying whether the product itself dropped a produced degree.  This is
    the engine behind both the pointwise product of test functions and the
    convolution of distributions.
    """
    _check_compatible(f, g)
    codes, values, dropped = pair_products(f, g, contract=False)
    truncated = f.truncated or g.truncated or dropped
    return f.with_terms(codes, values, truncated=truncated), dropped


# Pairs examined at once by `pair_products`: a block of terms of the smaller
# operand against every term of the larger, so small products take one step.
PAIR_BLOCK = 4096


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
    added in the order of the smaller operand's terms.  Sums that come out
    zero are dropped.  Returns the result's codes and values, in the
    expansion layout, and whether some pair did not land.

    The operands' codes are read as they are stored: a shift by a term of
    the smaller operand is an integer add (or subtract) on the larger
    operand's code array, a mask and a lookup in the sorted output codes.
    Terms of the smaller operand are taken PAIR_BLOCK / (terms of the
    larger) at a time, at least one, so transient arrays hold at most
    max(PAIR_BLOCK, terms of the larger operand) pairs, never one entry per
    pair of a large product.
    """
    if not len(left.codes) or not len(right.codes):
        return left.codes[:0], np.zeros(0, dtype=complex), False
    c1, c2 = left.cutoff1, left.cutoff2
    code_l, rows_l, c_l = left.codes, left.exponents, left.values
    code_r, rows_r, c_r = right.codes, right.exponents, right.values
    deg_l, w_l = multiplicities(rows_l, left.dim1)
    deg_r, w_r = multiplicities(rows_r, left.dim1)
    if contract:
        # falling[n, K] = K!/(K - n)!, the factor of an r of degree K.
        falling = [[[math.perm(K, n) for K in range(c + 1)]
                    for n in range(c + 1)] for c in (c1, c2)]
        bound = int(w_l.max()) * math.factorial(c1) * math.factorial(c2)
    else:
        bound = int(w_l.max()) * int(w_r.max())
    # A float product of exact float factors is exact below 2^53; above it
    # the products are taken in Python integers and rounded once.
    wtype = float if bound < 1 << 53 else object
    w_l = w_l.astype(wtype)
    if contract:
        falling = [np.array(table, dtype=wtype) for table in falling]
    else:
        w_r = w_r.astype(wtype)

    out_codes = code_l[:0]
    out_vals = np.empty(0, dtype=complex)
    landed_all = True
    n_l, n_r = len(c_l), len(c_r)
    walk_left = n_l <= n_r
    outer, inner = (n_l, n_r) if walk_left else (n_r, n_l)
    step = max(1, PAIR_BLOCK // inner)
    for start in range(0, outer, step):
        # A block of the smaller operand's terms (rows) against all terms
        # of the larger (columns); np.nonzero lists the kept pairs row by
        # row, so in the order of the smaller operand's terms.
        block = np.arange(start, min(start + step, outer))[:, None]
        il, ir = ((block, np.arange(n_r)) if walk_left else
                  (np.arange(n_l), block))
        if contract:
            keep = np.all(rows_r[ir] >= rows_l[il], axis=-1)
        else:
            keep = ((deg_l[il, 0] + deg_r[ir, 0] <= c1)
                    & (deg_l[il, 1] + deg_r[ir, 1] <= c2))
        rows, cols = np.nonzero(keep)
        landed_all = landed_all and len(rows) == keep.size
        if not len(rows):
            continue
        il, ir = (rows + start, cols) if walk_left else (cols, rows + start)
        if contract:
            w = (w_l[il] * falling[0][deg_l[il, 0], deg_r[ir, 0]]
                 * falling[1][deg_l[il, 1], deg_r[ir, 1]])
            target = code_r[ir] - code_l[il]
        else:
            w = w_l[il] * w_r[ir]
            target = code_l[il] + code_r[ir]
        terms = (w.astype(float) * c_l[il]) * c_r[ir]
        pos = np.searchsorted(out_codes, target)
        present = pos < len(out_codes)
        present[present] = out_codes[pos[present]] == target[present]
        if not present.all():
            # out_codes holds no new code, so only new ones can repeat.
            merged = np.sort(np.concatenate([out_codes, target[~present]]))
            first = np.concatenate(([True], merged[1:] != merged[:-1]))
            merged = merged[first]
            vals = np.zeros(len(merged), dtype=complex)
            vals[np.searchsorted(merged, out_codes)] = out_vals
            out_codes, out_vals = merged, vals
            pos = np.searchsorted(out_codes, target)
        np.add.at(out_vals, pos, terms)

    nonzero = out_vals != 0
    out_codes, out_vals = out_codes[nonzero], out_vals[nonzero]
    if not contract:
        _, mult = multiplicities(_decode(out_codes, left), left.dim1)
        mult = mult.astype(float)
        quotient = np.empty_like(out_vals)
        quotient.real = out_vals.real / mult
        quotient.imag = out_vals.imag / mult
        out_vals = quotient
    return out_codes, out_vals, not landed_all


def pointwise_product(f: Expansion2, g: Expansion2) -> Expansion2:
    """Product of two test functions, truncated at the shared cutoffs."""
    if f.role != TEST or g.role != TEST:
        raise RoleError("pointwise_product needs two test expansions")
    return sym_convolve_coeffs(f, g)[0]


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


def expansion_from_json(obj: dict) -> Expansion2:
    coeffs = {
        (_occupations(t["alpha"]), _occupations(t["beta"])):
            complex(t["re"], t.get("im", 0.0))
        for t in obj.get("terms", [])
    }
    # Overflowed literals such as 1e999 parse to inf.
    if not all(cmath.isfinite(v) for v in coeffs.values()):
        raise ValueError("expansion coefficients must be finite")
    return Expansion2(*(_json_count(obj[k], k) for k in
                        ("dim1", "dim2", "cutoff1", "cutoff2")),
                      coeffs, role=obj.get("role", TEST))


def _json_count(value, what: str) -> int:
    """A JSON integer >= 0; booleans, floats and strings are rejected."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be an integer >= 0, not {value!r}")
    return value


def _occupations(values) -> MultiIndex:
    return tuple(_json_count(v, "an occupation") for v in values)
