"""Young functions, their Legendre conjugates and weights, in closed form.

Only named convex families are supported, so the qualitative hypotheses
(convexity, superlinear growth) are known by construction, and each
family's conjugate, weight and growth condition follow from the algebra.
Nothing in the core calculus depends on this module; it exists for
diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class YoungFunctionSpec:
    """A named Young function theta with theta(0) = 0.

    Families: "power" (x^k / k, k >= 1), "gaussian" (x^2),
    "expm1" (e^x - 1 - x).
    """

    family: str
    k: Optional[float] = None

    def __post_init__(self):
        if self.family not in ("power", "gaussian", "expm1"):
            raise ValueError(f"unknown family {self.family!r}")
        if self.family == "power":
            if self.k is None or not 1 <= self.k < math.inf:
                raise ValueError("power family needs a finite exponent "
                                 "k >= 1")

    def theta(self, x: float) -> float:
        """theta(x), math.inf where that overflows and at x = inf."""
        if not x >= 0:
            raise ValueError("Young functions are defined on x >= 0")
        if x == math.inf:
            return x
        try:
            if self.family == "gaussian":
                return x * x
            if self.family == "power":
                return x ** self.k / self.k
            if x < 2:
                # expm1(x) - x cancels as x falls; the series sum_{n>=2}
                # x^n / n! has positive terms, and past n = 25 they add
                # under 1e-19 of the sum.
                return math.fsum(x ** n / math.factorial(n)
                                 for n in range(2, 26))
            return math.expm1(x) - x
        except OverflowError:
            return math.inf


def conjugate_eval(spec: YoungFunctionSpec, x: float) -> float:
    """theta*(x) = sup_{t>=0} (t x - theta(t)); inf past the float range.

    The sup sits where theta'(t) = x: at t = x/2 for the gaussian, giving
    x^2/4; at t = x^(1/(k-1)) for the power family with k > 1, giving
    x t (k-1)/k = x^k'/k' with k' = k/(k-1); at t = log1p(x) for expm1,
    giving (1+x) log1p(x) - x (`_expm1_conjugate`).  For k = 1, t (x - 1)
    has sup 0 for x <= 1 and none past 1.
    """
    if not x >= 0:
        raise ValueError("conjugate_eval needs x >= 0")
    if spec.family == "gaussian":
        return (x / 2) * (x / 2)
    if spec.family == "expm1":
        return _expm1_conjugate(x)
    if spec.k == 1:
        return 0.0 if x <= 1 else math.inf
    try:
        t = x ** (1 / (spec.k - 1))
    except OverflowError:
        return math.inf
    return x * t * ((spec.k - 1) / spec.k)


def _expm1_conjugate(x: float) -> float:
    """(1+x) log1p(x) - x, to about one ulp.

    (1+x) log1p(x) exceeds the result by x, so in doubles the subtraction
    loses about log2(2/x) bits as x falls, and even at x = 5 it can leave
    4 ulps of error.  Below 0.1 the value is the series
    sum_{n>=2} (-x)^n / (n (n-1)), each term under x times the one before;
    from 0.1 on the closed form is taken at 40 digits, where the
    subtraction costs at most two, and rounded once.
    """
    if x < 0.1:
        return math.fsum((-x) ** n / (n * (n - 1)) for n in range(2, 20))
    if x == math.inf:
        return math.inf
    from decimal import Context, Decimal
    ctx = Context(prec=40)
    y = ctx.add(1, Decimal(x))
    return float(ctx.subtract(ctx.multiply(y, ctx.ln(y)), Decimal(x)))


def theta_n(spec: YoungFunctionSpec, n: int) -> float:
    """inf over r > 0 of e^{theta(r)} / r^n.

    theta(r) - n log r is least where r theta'(r) = n: at r^2 = n/2 for
    the gaussian, giving (2e/n)^(n/2), and at r^k = n for the power family,
    giving (e/n)^(n/k).  For expm1 the point solves g(r) = r (e^r - 1) = n.
    g is increasing and convex, so Newton's method started above the root
    decreases monotonically onto it, and stops once a step no longer
    decreases r.  max(1, log1p n) is above the root: g(1) = e - 1 > n for
    n = 1, and g(log1p n) = n log1p(n) >= n for n >= 2.
    """
    if n < 1:
        raise ValueError("theta_n needs n >= 1")
    if spec.family == "gaussian":
        return (2 * math.e / n) ** (n / 2)
    if spec.family == "power":
        return (math.e / n) ** (n / spec.k)
    r = max(1.0, math.log1p(n))
    while True:
        step = (r * math.expm1(r) - n) / (math.expm1(r) + r * math.exp(r))
        if not r - step < r:
            break
        r -= step
    return math.exp(math.expm1(r) - r - n * math.log(r))


def check_growth_condition(spec: YoungFunctionSpec) -> bool:
    """True iff limsup theta(x) / x^2 is finite as x grows.

    theta(x) / x^2 is 1 for the gaussian and x^(k-2)/k for the power
    family, bounded exactly when k <= 2; for expm1 it grows like e^x / x^2.
    """
    return spec.family == "gaussian" or (spec.family == "power"
                                         and spec.k <= 2)
