"""Two-variable truncated chaos (Taylor) expansions.

An expansion holds coefficients c_{alpha,beta} indexed by a pair of occupation
vectors (alpha over the first variable, beta over the second).  The same
storage serves test functions and distributions; a role flag guards operations
that only make sense for one side.  The one-variable theory is the degenerate
case dim2 = 0.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field, replace
from itertools import chain
from typing import Dict, Sequence, Tuple

from .tensor_core import (
    DimensionMismatchError,
    MultiIndex,
    multinomial_weight,
    iter_occupations,
    nan_max,
    weight,
)

TEST = "test"
DISTRIBUTION = "distribution"

Key = Tuple[MultiIndex, MultiIndex]


class RoleError(ValueError):
    """Operation applied to an expansion with the wrong role."""


@dataclass(frozen=True)
class Expansion2:
    """Truncated chaos expansion in two variables.

    coeffs maps (alpha, beta) -> complex; alpha indexes the first variable
    (dimension dim1), beta the second (dimension dim2, possibly 0).  Degrees
    above (cutoff1, cutoff2) are never stored; ``truncated`` records that some
    operation had to drop a produced degree.
    """

    dim1: int
    dim2: int
    cutoff1: int
    cutoff2: int
    coeffs: Dict[Key, complex] = field(default_factory=dict)
    role: str = TEST
    truncated: bool = False

    def __post_init__(self):
        if self.dim1 < 1:
            raise ValueError("dim1 must be >= 1")
        if self.dim2 < 0:
            raise ValueError("dim2 must be >= 0")
        if self.role not in (TEST, DISTRIBUTION):
            raise ValueError(f"unknown role {self.role!r}")
        for (alpha, beta) in self.coeffs:
            if len(alpha) != self.dim1 or len(beta) != self.dim2:
                raise DimensionMismatchError(
                    f"key {(alpha, beta)} incompatible with dims "
                    f"({self.dim1}, {self.dim2})")
            if weight(alpha) > self.cutoff1 or weight(beta) > self.cutoff2:
                raise ValueError(f"key {(alpha, beta)} exceeds cutoffs")

    # -- basic algebra ------------------------------------------------------

    def __getitem__(self, key: Key) -> complex:
        return self.coeffs.get(key, 0j)

    # Else `in` and iteration would probe phi[0], phi[1], ... forever.
    __iter__ = None

    def scale(self, c: complex) -> "Expansion2":
        coeffs = {} if c == 0 else {k: c * v for k, v in self.coeffs.items()}
        return replace(self, coeffs=coeffs)

    def add(self, other: "Expansion2") -> "Expansion2":
        _check_compatible(self, other)
        if other.role != self.role:
            raise RoleError("can only add expansions with equal roles")
        coeffs = dict(self.coeffs)
        for k, v in other.coeffs.items():
            coeffs[k] = coeffs.get(k, 0j) + v
        coeffs = {k: v for k, v in coeffs.items() if v != 0}
        return replace(self, coeffs=coeffs,
                       truncated=self.truncated or other.truncated)

    def with_role(self, role: str) -> "Expansion2":
        return replace(self, role=role)

    def norm_inf(self) -> float:
        out = 0.0
        for v in self.coeffs.values():
            out = nan_max(out, abs(v))
        return out

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


def monomial_matrix(keys: Sequence[Key], x):
    """The points x keys matrix of mult(alpha) mult(beta) z^alpha t^beta.

    x holds one row per point: its z coordinates, then its t coordinates.
    The powers of every coordinate, up to the largest exponent among the
    keys, come from one cumulative product over all points (so 0^0 = 1),
    and the matrix gathers its factors from that table.  An expansion's
    values at the points are this matrix times its coefficient vector.
    """
    import numpy as np
    npoints, ncoords = x.shape
    exponents = np.array([a + b for a, b in keys],
                         dtype=np.intp).reshape(len(keys), ncoords)
    powers = np.ones((ncoords, npoints, int(exponents.max(initial=0)) + 1),
                     dtype=complex)
    powers[:, :, 1:] = x.T[:, :, None]
    np.cumprod(powers, axis=2, out=powers)
    out = np.empty((npoints, len(keys)), dtype=complex)
    out[:] = [float(multinomial_weight(a) * multinomial_weight(b))
              for a, b in keys]
    for i in range(ncoords):
        out *= powers[i][:, exponents[:, i]]
    return out


def coefficient_matrix(phis: Sequence[Expansion2], keys: Sequence[Key]):
    """The keys x len(phis) matrix of the expansions' coefficients."""
    import numpy as np
    return np.array([[phi.coeffs.get(k, 0j) for k in keys] for phi in phis],
                    dtype=complex).reshape(len(phis), len(keys)).T


def coefficient_polynomials(phis: Sequence[Expansion2], x):
    """Values of expansions of one shape at many points, (points, len(phis)).

    x holds one row of coordinates per point, as in `monomial_matrix`.
    """
    keys = list(dict.fromkeys(k for phi in phis for k in phi.coeffs))
    return monomial_matrix(keys, x) @ coefficient_matrix(phis, keys)


def point_coordinates(points: Sequence, dim1: int, dim2: int):
    """One row per (z, t) point: its z coordinates, then its t coordinates."""
    import numpy as np
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
    import numpy as np
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
    total = 0j
    for key, c in Phi.coeffs.items():
        d = phi.coeffs.get(key)
        if d is None:
            continue
        alpha, beta = key
        w = (math.factorial(weight(alpha)) * math.factorial(weight(beta))
             * multinomial_weight(alpha) * multinomial_weight(beta))
        total += w * c * d
    return total


def sym_convolve_coeffs(f: Expansion2, g: Expansion2) -> Tuple[Dict[Key, complex], bool]:
    """Per-variable symmetrized-product convolution of coefficient families.

    Returns the coefficient dict truncated at the shared cutoffs plus a flag
    saying whether anything was dropped.  This is the engine behind both the
    pointwise product of test functions and the convolution of distributions.
    """
    _check_compatible(f, g)
    return pair_products(f, g, contract=False)


# Pairs examined at once by `pair_products`: a block of terms of the smaller
# operand against every term of the larger, so small products take one step.
PAIR_BLOCK = 4096


def pair_products(left: Expansion2, right: Expansion2,
                  contract: bool) -> Tuple[Dict[Key, complex], bool]:
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
    zero are dropped.  The flag says whether some pair did not land.

    Keys are coded in mixed radix, cutoff + 1 per component, so a shift by
    a term of the smaller operand is an integer add (or subtract) on the
    larger operand's code vector, a mask and a lookup in the sorted output
    codes.  Terms of the smaller operand are taken PAIR_BLOCK / (terms of
    the larger) at a time, at least one, so transient arrays hold at most
    max(PAIR_BLOCK, terms of the larger operand) pairs, never one entry
    per pair of a large product.
    """
    import numpy as np
    if not left.coeffs or not right.coeffs:
        return {}, False
    d1, c1, c2 = left.dim1, left.cutoff1, left.cutoff2
    radix = [c1 + 1] * d1 + [c2 + 1] * left.dim2
    place = [math.prod(radix[:i]) for i in range(len(radix))]
    # Codes stay below prod(radix); past int64 they are Python integers.
    ctype = np.int64 if math.prod(radix) < 1 << 63 else object
    rows_l, code_l, deg_l, c_l = _term_arrays(left, place, ctype)
    rows_r, code_r, deg_r, c_r = _term_arrays(right, place, ctype)
    w_l = [multinomial_weight(a) * multinomial_weight(b)
           for a, b in left.coeffs]
    if contract:
        # falling[n, K] = K!/(K - n)!, the factor of an r of degree K.
        falling = [[[math.perm(K, n) for K in range(c + 1)]
                    for n in range(c + 1)] for c in (c1, c2)]
        bound = max(w_l) * math.factorial(c1) * math.factorial(c2)
    else:
        w_r = [multinomial_weight(a) * multinomial_weight(b)
               for a, b in right.coeffs]
        bound = max(w_l) * max(w_r)
    # A float product of exact float factors is exact below 2^53; above it
    # the products are taken in Python integers and rounded once.
    wtype = float if bound < 1 << 53 else object
    w_l = np.array(w_l, dtype=wtype)
    if contract:
        falling = [np.array(table, dtype=wtype) for table in falling]
    else:
        w_r = np.array(w_r, dtype=wtype)

    out_codes = np.empty(0, dtype=ctype)
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
    keys = _decode_keys(out_codes, radix, d1)
    if not contract:
        mult = np.array([float(multinomial_weight(a) * multinomial_weight(b))
                         for a, b in keys])
        quotient = np.empty_like(out_vals)
        quotient.real = out_vals.real / mult
        quotient.imag = out_vals.imag / mult
        out_vals = quotient
    return dict(zip(keys, out_vals.tolist())), not landed_all


def _decode_keys(codes, radix: Sequence[int], dim1: int) -> list:
    """The (alpha, beta) keys of mixed-radix codes.

    Each variable's part is decoded once per distinct value, so outputs
    that share an alpha or a beta share its tuple.
    """
    import numpy as np
    box1 = math.prod(radix[:dim1])
    parts = []
    for half, digits in ((codes % box1, radix[:dim1]),
                         (codes // box1, radix[dim1:])):
        half = half.tolist()
        distinct = list(set(half))
        place = [math.prod(digits[:i]) for i in range(len(digits))]
        rows = (np.array(distinct, dtype=codes.dtype)[:, None]
                // np.array(place, dtype=codes.dtype)
                % np.array(digits, dtype=codes.dtype))
        table = dict(zip(distinct, map(tuple, rows.tolist())))
        parts.append(map(table.__getitem__, half))
    return list(zip(*parts))


def _term_arrays(phi: Expansion2, place: Sequence[int], ctype):
    """An expansion's stored terms as arrays, in the order of its dict.

    Returns the exponent rows, their mixed-radix codes, the (n, m) degree
    pair of each key and the coefficients.
    """
    import numpy as np
    n, d = len(phi.coeffs), len(place)
    rows = np.fromiter(chain.from_iterable(chain.from_iterable(phi.coeffs)),
                       dtype=np.int64, count=n * d).reshape(n, d)
    codes = rows.astype(ctype) @ np.array(place, dtype=ctype)
    # Column 0 sums the first variable's exponents, column 1 the second's.
    by_variable = np.zeros((d, 2), dtype=np.int64)
    by_variable[:phi.dim1, 0] = 1
    by_variable[phi.dim1:, 1] = 1
    coeffs = np.fromiter(phi.coeffs.values(), dtype=complex, count=n)
    return rows, codes, rows @ by_variable, coeffs


def pointwise_product(f: Expansion2, g: Expansion2) -> Expansion2:
    """Product of two test functions, truncated at the shared cutoffs."""
    if f.role != TEST or g.role != TEST:
        raise RoleError("pointwise_product needs two test expansions")
    coeffs, dropped = sym_convolve_coeffs(f, g)
    return replace(f, coeffs=coeffs,
                   truncated=f.truncated or g.truncated or dropped)


# ---------------------------------------------------------------------------
# JSON interchange


def expansion_to_json(phi: Expansion2) -> dict:
    return {
        "dim1": phi.dim1,
        "dim2": phi.dim2,
        "cutoff1": phi.cutoff1,
        "cutoff2": phi.cutoff2,
        "role": phi.role,
        "terms": [
            {"alpha": list(a), "beta": list(b), "re": v.real, "im": v.imag}
            for (a, b), v in sorted(phi.coeffs.items())
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
