"""The Gross Laplacian, the trace distribution and convolution products.

The trace distribution has the degree-2 trace tensor as its only nonzero
coefficients, at bidegrees (2,0) and (0,2).  Convolving with it on the test
side lowers each variable's degree by two with the (n+2)(n+1) factor; on the
distribution side it raises degrees, and the Laplace transform multiplies by
<xi,xi> + <eta,eta>.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    Key,
    RoleError,
    _check_compatible,
    pair_products,
    sym_convolve_coeffs,
)


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


def gross_split(phi: Expansion2) -> Tuple[Expansion2, Expansion2]:
    """Per-variable parts of the Gross Laplacian; their sum is gross_test.

    Each part is the contraction of phi with the trace distribution's terms
    over one variable.
    """
    if phi.role != TEST:
        raise RoleError("gross_split needs a test expansion")
    T = trace_distribution(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)
    first = T.exponents[:, :T.dim1].any(axis=1)
    parts = []
    for mask in (first, ~first):
        part = T.with_terms(T.codes[mask], T.values[mask])
        parts.append(phi.with_terms(
            *pair_products(part, phi, contract=True)[:2]))
    return parts[0], parts[1]


def gross_test(phi: Expansion2) -> Expansion2:
    """Gross Laplacian on a test expansion: the contraction with the trace.

    Coefficient rule: (n+2)(n+1) <tau1, phi_{n+2,m}> plus the mirror term in
    the second variable.  Output degrees above cutoff - 2 depend on truncated
    input degrees; identities should be asserted below that line.  This is
    the computation of convolve_dist_test with the trace distribution.
    """
    if phi.role != TEST:
        raise RoleError("gross_test needs a test expansion")
    T = trace_distribution(phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2)
    return phi.with_terms(*pair_products(T, phi, contract=True)[:2])


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
    codes, values, _ = pair_products(Phi, phi, contract=True)
    return phi.with_terms(codes, values,
                          truncated=Phi.truncated or phi.truncated)


def convolve_dist_dist(Phi: Expansion2, Psi: Expansion2) -> Expansion2:
    """Convolution of two distributions; Laplace transforms multiply."""
    if Phi.role != DISTRIBUTION or Psi.role != DISTRIBUTION:
        raise RoleError("convolve_dist_dist needs two distributions")
    return sym_convolve_coeffs(Phi, Psi)[0]


def gross_distribution(Phi: Expansion2) -> Expansion2:
    """Gross Laplacian on a distribution: convolution with the trace."""
    if Phi.role != DISTRIBUTION:
        raise RoleError("gross_distribution needs a distribution")
    T = trace_distribution(Phi.dim1, Phi.dim2, Phi.cutoff1, Phi.cutoff2)
    return convolve_dist_dist(T, Phi)
