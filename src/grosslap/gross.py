"""The Gross Laplacian, the trace distribution and convolution products.

The trace distribution has the degree-2 trace tensor as its only nonzero
coefficients, at bidegrees (2,0) and (0,2).  Convolving with it on the test
side lowers each variable's degree by two with the (n+2)(n+1) factor; on the
distribution side it raises degrees, and the Laplace transform multiplies by
<xi,xi> + <eta,eta>.
"""

from __future__ import annotations

import math
from dataclasses import replace
from typing import Dict, Tuple

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    Key,
    RoleError,
    _check_compatible,
    sym_convolve_coeffs,
)
from .tensor_core import _sub_indices, multinomial_weight, weight


def trace_distribution(dim1: int, dim2: int, cutoff1: int,
                       cutoff2: int) -> Expansion2:
    """The distribution whose only coefficients are trace tensors.

    Carries tau over the first variable at bidegree (2,0) and, when a second
    variable is present, tau over the second at (0,2).  With dim2 = 0 this is
    the one-variable trace distribution.
    """
    coeffs: Dict[Key, complex] = {}
    if cutoff1 >= 2:
        zero2 = (0,) * dim2
        for j in range(dim1):
            alpha = tuple(2 if i == j else 0 for i in range(dim1))
            coeffs[(alpha, zero2)] = 1 + 0j
    if dim2 >= 1 and cutoff2 >= 2:
        zero1 = (0,) * dim1
        for j in range(dim2):
            beta = tuple(2 if i == j else 0 for i in range(dim2))
            coeffs[(zero1, beta)] = 1 + 0j
    return Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs, role=DISTRIBUTION)


def _gross_var1(phi: Expansion2,
                out: Dict[Key, complex] | None = None) -> Dict[Key, complex]:
    # Contract tau against the first-variable factor: pick out entries with a
    # doubled index.  The tau-outer iteration order matches the convolution
    # route so the two paths accumulate identically.
    if out is None:
        out = {}
    for j in range(phi.dim1):
        for (alpha, beta), c in phi.coeffs.items():
            if alpha[j] < 2:
                continue
            n = weight(alpha)
            gamma = tuple(x - 2 if i == j else x for i, x in enumerate(alpha))
            key = (gamma, beta)
            out[key] = out.get(key, 0j) + (n * (n - 1)) * c
    return out


def _gross_var2(phi: Expansion2,
                out: Dict[Key, complex] | None = None) -> Dict[Key, complex]:
    if out is None:
        out = {}
    for j in range(phi.dim2):
        for (alpha, beta), c in phi.coeffs.items():
            if beta[j] < 2:
                continue
            m = weight(beta)
            delta = tuple(x - 2 if i == j else x for i, x in enumerate(beta))
            key = (alpha, delta)
            out[key] = out.get(key, 0j) + (m * (m - 1)) * c
    return out


def gross_split(phi: Expansion2) -> Tuple[Expansion2, Expansion2]:
    """Per-variable parts of the Gross Laplacian; their sum is gross_test."""
    if phi.role != TEST:
        raise RoleError("gross_split needs a test expansion")
    part1 = replace(phi, coeffs=_gross_var1(phi))
    part2 = replace(phi, coeffs=_gross_var2(phi))
    return part1, part2


def gross_test(phi: Expansion2) -> Expansion2:
    """Gross Laplacian on a test expansion.

    Coefficient rule: (n+2)(n+1) <tau1, phi_{n+2,m}> plus the mirror term in
    the second variable.  Output degrees above cutoff - 2 depend on truncated
    input degrees; identities should be asserted below that line.
    """
    if phi.role != TEST:
        raise RoleError("gross_test needs a test expansion")
    coeffs = _gross_var2(phi, _gross_var1(phi))
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return replace(phi, coeffs=coeffs)


def convolve_dist_test(Phi: Expansion2, phi: Expansion2) -> Expansion2:
    """Convolution of a distribution with a test function, as a test function.

    (Phi * phi)_{k,l} = sum_{n,m} ((n+k)!/k!) ((m+l)!/l!)
    <Phi_{n,m}, phi_{n+k, m+l}> with the contractions acting per variable.
    Pointwise it agrees with z -> <<Phi, translate(phi, z)>>.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("convolve_dist_test needs a distribution on the left")
    if phi.role != TEST:
        raise RoleError("convolve_dist_test needs a test function on the right")
    _check_compatible(Phi, phi)
    coeffs: Dict[Key, complex] = {}
    for (mu, nu), a in Phi.coeffs.items():
        n, m = weight(mu), weight(nu)
        w_orbit = multinomial_weight(mu) * multinomial_weight(nu)
        for (kappa, lam), b in phi.coeffs.items():
            gamma = _sub_indices(kappa, mu)
            if gamma is None:
                continue
            delta = _sub_indices(lam, nu)
            if delta is None:
                continue
            k, l = weight(gamma), weight(delta)
            w = (math.factorial(n + k) // math.factorial(k)
                 * (math.factorial(m + l) // math.factorial(l)))
            key = (gamma, delta)
            coeffs[key] = coeffs.get(key, 0j) + w * w_orbit * a * b
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return replace(phi, coeffs=coeffs,
                   truncated=Phi.truncated or phi.truncated)


def convolve_dist_dist(Phi: Expansion2, Psi: Expansion2) -> Expansion2:
    """Convolution of two distributions; Laplace transforms multiply."""
    if Phi.role != DISTRIBUTION or Psi.role != DISTRIBUTION:
        raise RoleError("convolve_dist_dist needs two distributions")
    coeffs, dropped = sym_convolve_coeffs(Phi, Psi)
    return replace(Phi, coeffs=coeffs,
                   truncated=Phi.truncated or Psi.truncated or dropped)


def gross_distribution(Phi: Expansion2) -> Expansion2:
    """Gross Laplacian on a distribution: convolution with the trace."""
    if Phi.role != DISTRIBUTION:
        raise RoleError("gross_distribution needs a distribution")
    T = trace_distribution(Phi.dim1, Phi.dim2, Phi.cutoff1, Phi.cutoff2)
    return convolve_dist_dist(T, Phi)
