"""Young functions, Legendre conjugates and growth-norm diagnostics.

Only named convex families are supported so the qualitative hypotheses
(convexity, superlinear growth) are known by construction and can be spot
checked numerically.  Nothing in the core calculus depends on this module;
it exists for diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .chaos import Expansion2, RoleError, TEST, evaluate
from .tensor_core import nan_max

_INV_PHI = (math.sqrt(5) - 1) / 2
_SQRT_EPS = math.sqrt(np.finfo(float).eps)


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
        """theta(x), math.inf where that overflows."""
        if not x >= 0:
            raise ValueError("Young functions are defined on x >= 0")
        try:
            if self.family == "gaussian":
                return x * x
            if self.family == "power":
                return x ** self.k / self.k
            return math.expm1(x) - x
        except OverflowError:
            return math.inf


def conjugate_eval(spec: YoungFunctionSpec, x: float) -> float:
    """theta*(x) = sup_{t>=0} (t x - theta(t)); inf past the float range."""
    if not x >= 0:
        raise ValueError("conjugate_eval needs x >= 0")
    if x == 0:
        return 0.0
    # The objective is concave; expand the bracket while it still falls,
    # then refine with golden-section search.
    hi = 1.0
    def neg(t: float) -> float:
        value = spec.theta(t)
        return value if value == math.inf else value - t * x
    while neg(hi * 2) < neg(hi):
        hi *= 2
        if hi * 2 == math.inf:
            return math.inf
    return max(0.0, -_golden_min(neg, 0.0, 2 * hi, 1e-12))


def theta_n(spec: YoungFunctionSpec, n: int) -> float:
    """inf over r > 0 of e^{theta(r)} / r^n, via log-domain minimization."""
    if n < 1:
        raise ValueError("theta_n needs n >= 1")
    def obj(logr: float) -> float:
        r = math.exp(logr)
        return spec.theta(r) - n * logr
    return math.exp(_golden_min(obj, -40.0, 40.0, 1e-13))


def _golden_min(f: Callable[[float], float], a: float, b: float,
                xatol: float) -> float:
    """The least value of f on [a, b], for f unimodal there.

    Golden-section search (Kiefer, 1953): each step keeps the part of the
    bracket around the smaller of its two inner values, shrinking it by
    1/phi with one new evaluation.  It stops once the bracket is narrower
    than xatol + sqrt(eps) |x|, x the best point so far: the sqrt(eps)
    term ends the search where xatol is below the spacing of floats near x,
    and there f is flat to rounding anyway.
    """
    c, d = b - _INV_PHI * (b - a), a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xatol + _SQRT_EPS * abs(c if fc <= fd else d):
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return min(fc, fd)


def check_growth_condition(spec: YoungFunctionSpec) -> bool:
    """True iff theta(x) / x^2 stabilizes on a geometric grid up to 1e6."""
    xs = np.geomspace(1.0, 1e6, 121)
    ratios = np.array([spec.theta(float(x)) / float(x) ** 2 for x in xs])
    running_max = np.maximum.accumulate(ratios)
    # Compare the max over the last decade against the one a decade before.
    last = running_max[-1]
    prev = running_max[-21]
    if prev == 0:
        return last == 0
    if not np.isfinite(last):
        return False
    return last / prev <= 1.01


def growth_norm_estimate(phi: Expansion2, a1: float, a2: float,
                         theta1: YoungFunctionSpec, theta2: YoungFunctionSpec,
                         samples: int = 2000, r_max: float = 10.0,
                         seed: int = 0) -> float:
    """Sampled lower bound for sup |phi(z, t)| e^{-theta1(a1|z|) - theta2(a2|t|)}."""
    if phi.role != TEST:
        raise RoleError("growth_norm_estimate needs a test expansion")
    rng = np.random.default_rng(seed)
    best = 0.0
    for i in range(samples):
        # Radii sweep [0, r_max] deterministically; directions are random
        # complex unit vectors.
        r = r_max * i / max(samples - 1, 1)
        z = _random_direction(rng, phi.dim1) * r
        t = _random_direction(rng, phi.dim2) * r if phi.dim2 else np.zeros(0)
        val = abs(evaluate(phi, z, t))
        damp = math.exp(-theta1.theta(a1 * _norm(z)) - theta2.theta(a2 * _norm(t)))
        best = nan_max(best, val * damp)
    return best


def _random_direction(rng: np.random.Generator, d: int) -> np.ndarray:
    if d == 0:
        return np.zeros(0, dtype=complex)
    v = rng.normal(size=d) + 1j * rng.normal(size=d)
    n = np.linalg.norm(v)
    return v / n if n else v


def _norm(v: np.ndarray) -> float:
    return float(np.linalg.norm(v)) if len(v) else 0.0
