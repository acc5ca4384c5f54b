"""Independent references for the benchmark's solver outputs.

Nothing here imports `grosslap`.  Both references work in the monomial
basis: a kernel with occupation coefficients c[alpha, beta] is the polynomial
P(z, t) = sum p[alpha, beta] z^alpha t^beta with
p[alpha, beta] = mult(alpha) * mult(beta) * c[alpha, beta], where
mult(alpha) = |alpha|! / prod(alpha_i!).

* Heat flow, function action: the kernel polynomial evolves by the heat
  semigroup, P(t) = sum_n (t/2)^n Lap^n P0 / n!, with Lap the ordinary
  Laplacian over all coordinates.  The series ends because Lap lowers the
  degree, and nothing is truncated, so this holds to rounding.
* Driven flow, distribution action: convolution is multiplication in the
  polynomial ring truncated at the per-variable cutoffs, so on a segment
  where Z and Theta are constant, x' = M_Z x + theta is a linear ODE whose
  exact step is the exponential of the augmented matrix [[M_Z, theta], [0, 0]].
"""

from __future__ import annotations

import math
from typing import Dict, List, Sequence, Tuple

import numpy as np
from scipy.linalg import expm

Key = Tuple[Tuple[int, ...], Tuple[int, ...]]


def mult(alpha: Sequence[int]) -> int:
    """Number of index words with occupation `alpha`."""
    out = math.factorial(sum(alpha))
    for a in alpha:
        out //= math.factorial(a)
    return out


def monomial_terms(kernel_json: dict) -> Dict[Key, complex]:
    """Monomial coefficients p of a kernel given in the solver's JSON form."""
    out: Dict[Key, complex] = {}
    for t in kernel_json["kernel"]["terms"]:
        alpha, beta = tuple(t["alpha"]), tuple(t["beta"])
        out[(alpha, beta)] = (mult(alpha) * mult(beta)
                              * complex(t["re"], t.get("im", 0.0)))
    return out


def _shape(kernel_json: dict) -> Tuple[int, int, int, int]:
    k = kernel_json["kernel"]
    return k["dim1"], k["dim2"], k["cutoff1"], k["cutoff2"]


# ---------------------------------------------------------------------------
# Heat semigroup on dense coefficient arrays


def _dense(terms: Dict[Key, complex], dim1: int, dim2: int, cutoff1: int,
           cutoff2: int) -> np.ndarray:
    arr = np.zeros((cutoff1 + 1,) * dim1 + (cutoff2 + 1,) * dim2,
                   dtype=complex)
    for (alpha, beta), v in terms.items():
        arr[alpha + beta] += v
    return arr


def laplacian(arr: np.ndarray) -> np.ndarray:
    """Sum over axes of d^2/dx^2 on an exponent-indexed coefficient array."""
    out = np.zeros_like(arr)
    for axis, n in enumerate(arr.shape):
        if n < 3:
            continue
        k = np.arange(n - 2)
        factor = ((k + 2) * (k + 1)).reshape(
            [-1 if i == axis else 1 for i in range(arr.ndim)])
        head = [slice(None)] * arr.ndim
        tail = [slice(None)] * arr.ndim
        head[axis] = slice(0, n - 2)
        tail[axis] = slice(2, n)
        out[tuple(head)] += factor * arr[tuple(tail)]
    return out


def heat_semigroup(p0: np.ndarray, t: float) -> np.ndarray:
    """exp(t Lap / 2) applied to the polynomial with coefficients `p0`."""
    total = p0.copy()
    term = p0
    n = 0
    while True:
        n += 1
        term = laplacian(term) * (t / 2.0) / n
        if not term.any():
            return total
        total = total + term


def heat_errors(spec: dict, kernels: List[dict]) -> List[float]:
    """Relative error of each output kernel against the heat semigroup."""
    shape = _shape(spec["xi0"])
    p0 = _dense(monomial_terms(spec["xi0"]), *shape)
    errors = []
    for t, kern in zip(spec["times"], kernels):
        ref = heat_semigroup(p0, float(t))
        got = _dense(monomial_terms(kern), *shape)
        errors.append(float(np.abs(got - ref).max()
                            / max(1.0, float(np.abs(ref).max()))))
    return errors


# ---------------------------------------------------------------------------
# Truncated polynomial ring with matrix exponentials


class TruncatedRing:
    """Polynomials in (z, t) with |alpha| <= cutoff1 and |beta| <= cutoff2."""

    def __init__(self, dim1: int, dim2: int, cutoff1: int, cutoff2: int):
        alphas = [a for a in np.ndindex(*(cutoff1 + 1,) * dim1)
                  if sum(a) <= cutoff1]
        betas = [b for b in np.ndindex(*(cutoff2 + 1,) * dim2)
                 if sum(b) <= cutoff2]
        self.cutoffs = (cutoff1, cutoff2)
        self.basis: List[Key] = [(tuple(map(int, a)), tuple(map(int, b)))
                                 for a in alphas for b in betas]
        self.index = {k: i for i, k in enumerate(self.basis)}

    def vector(self, terms: Dict[Key, complex]) -> np.ndarray:
        v = np.zeros(len(self.basis), dtype=complex)
        for key, c in terms.items():
            v[self.index[key]] += c
        return v

    def multiplication(self, terms: Dict[Key, complex]) -> np.ndarray:
        """Matrix of x -> terms * x, dropping degrees above the cutoffs."""
        n = len(self.basis)
        m = np.zeros((n, n), dtype=complex)
        for j, (a, b) in enumerate(self.basis):
            for (ga, gb), c in terms.items():
                alpha = tuple(x + y for x, y in zip(a, ga))
                beta = tuple(x + y for x, y in zip(b, gb))
                if sum(alpha) > self.cutoffs[0] or sum(beta) > self.cutoffs[1]:
                    continue
                m[self.index[(alpha, beta)], j] += c
        return m

    def step(self, x: np.ndarray, gen: np.ndarray, source: np.ndarray,
             h: float) -> np.ndarray:
        """Exact solution after time h of x' = gen x + source."""
        n = len(x)
        aug = np.zeros((n + 1, n + 1), dtype=complex)
        aug[:n, :n] = gen
        aug[:n, n] = source
        return (expm(h * aug) @ np.append(x, 1.0))[:n]


def driven_solution(spec: dict, ring: TruncatedRing) -> List[np.ndarray]:
    """Ring vectors of the distribution-action solution at each time."""
    z_grid = [float(g) for g in spec["Z"]["grid"]]
    th_grid = [float(g) for g in spec["Theta"]["grid"]]
    z_gens = [ring.multiplication(monomial_terms(k))
              for k in spec["Z"]["kernels"]]
    th_vals = [ring.vector(monomial_terms(k))
               for k in spec["Theta"]["kernels"]]
    x0 = ring.vector(monomial_terms(spec["xi0"]))
    out = []
    for t in (float(t) for t in spec["times"]):
        marks = sorted({0.0, t, *(g for g in z_grid + th_grid if 0.0 < g < t)})
        x = x0
        for a, b in zip(marks, marks[1:]):
            mid = (a + b) / 2
            x = ring.step(x, z_gens[_piece(z_grid, mid)],
                          th_vals[_piece(th_grid, mid)], b - a)
        out.append(x)
    return out


def _piece(grid: List[float], s: float) -> int:
    """Index of the grid interval holding s; the last one extends past it."""
    i = 0
    while i + 2 < len(grid) and grid[i + 1] <= s:
        i += 1
    return i


def driven_errors(spec: dict, kernels: List[dict]) -> List[float]:
    """Relative error of each output kernel against the ring exponential."""
    ring = TruncatedRing(*_shape(spec["xi0"]))
    errors = []
    for ref, kern in zip(driven_solution(spec, ring), kernels):
        got = ring.vector(monomial_terms(kern))
        errors.append(float(np.abs(got - ref).max()
                            / max(1.0, float(np.abs(ref).max()))))
    return errors


# ---------------------------------------------------------------------------
# Hand-solvable cases for the references themselves


def _one_term(alpha, beta, value: complex, dims, cutoffs) -> dict:
    return {"kernel": {"dim1": dims[0], "dim2": dims[1],
                       "cutoff1": cutoffs[0], "cutoff2": cutoffs[1],
                       "terms": [{"alpha": list(alpha), "beta": list(beta),
                                  "re": value.real, "im": value.imag}]}}


def self_check() -> List[str]:
    """Failures of the references on cases solvable by hand (empty if none)."""
    failures = []
    # y^2 -> y^2 + t under the heat semigroup.
    t = 0.7
    p = heat_semigroup(np.array([0, 0, 1], dtype=complex), t)
    if not np.allclose(p, [t, 0, 1], rtol=0, atol=1e-15):
        failures.append(f"heat semigroup of y^2 gave {p.tolist()}")
    # In two variables Lap(z1^2 t1^2) = 2 t1^2 + 2 z1^2 and Lap^2 = 8.
    p0 = np.zeros((3, 3), dtype=complex)
    p0[2, 2] = 1.0
    p = heat_semigroup(p0, t)
    want = np.zeros((3, 3), dtype=complex)
    want[2, 2], want[0, 2], want[2, 0], want[0, 0] = 1.0, t, t, t * t
    if not np.allclose(p, want, rtol=0, atol=1e-15):
        failures.append("heat semigroup of z^2 t^2 is wrong")
    # exp of the degree-1 generator a*z: coefficients a^k / k!.
    a, cutoff = 0.3 - 0.2j, 5
    spec = {"xi0": _one_term((0,), (), 1.0, (1, 0), (cutoff, 0)),
            "Z": {"grid": [0.0, 1.0], "kernels": [
                _one_term((1,), (), a, (1, 0), (cutoff, 0))]},
            "Theta": {"grid": [0.0, 1.0], "kernels": [
                _one_term((0,), (), 0j, (1, 0), (cutoff, 0))]},
            "times": [1.0]}
    x = driven_solution(spec, TruncatedRing(1, 0, cutoff, 0))[0]
    want = np.array([a ** k / math.factorial(k) for k in range(cutoff + 1)])
    if not np.allclose(x, want, rtol=0, atol=1e-14):
        failures.append("ring exponential of a degree-1 generator is wrong")
    # Scalar generator c with constant source s: e^{ct} x0 + (e^{ct}-1)/c s.
    c, s, t = 0.4 + 0.1j, 0.25 - 0.5j, 1.3
    spec = {"xi0": _one_term((0,), (), 2.0, (1, 0), (2, 0)),
            "Z": {"grid": [0.0, 0.5, 2.0], "kernels": [
                _one_term((0,), (), c, (1, 0), (2, 0))] * 2},
            "Theta": {"grid": [0.0, 2.0], "kernels": [
                _one_term((0,), (), s, (1, 0), (2, 0))]},
            "times": [t]}
    x = driven_solution(spec, TruncatedRing(1, 0, 2, 0))[0]
    want = np.exp(c * t) * 2.0 + (np.exp(c * t) - 1) / c * s
    if abs(x[0] - want) > 1e-13 or np.abs(x[1:]).max() > 0:
        failures.append("ring exponential with a source is wrong")
    return failures
