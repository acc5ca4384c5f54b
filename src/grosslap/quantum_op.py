"""Operators as kernels: symbols, application, the quantum Gross Laplacian.

Every operator is its kernel, a distribution `Expansion2` whose two
variables (`dim1`, `dim2`) are the operator's; `require_operator` checks
one.  The symbol is the Laplace transform of the kernel; convolution of
operators (`gross.convolve_dist_dist` of kernels) multiplies symbols; the
quantum Gross Laplacian convolves the kernel with the trace distribution.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    DimensionMismatchError,
    Expansion2,
    RoleError,
    _json_member,
    _json_object,
    complex_product,
    expansion_from_json,
    expansion_to_json,
    join_rows,
    key_codes,
    laplace,
    lookup_codes,
    multiplicities,
    occupations_below,
    pairing_weights,
    sum_by_code,
    vacuum,
)
from .gross import gross_distribution


def require_operator(K: Expansion2) -> Expansion2:
    """K, checked to be an operator kernel; every library function that
    takes an operator checks it here."""
    if K.role != DISTRIBUTION:
        raise RoleError("operator kernels must be distributions")
    return K


def symbol(K: Expansion2, xi1: Sequence[complex],
           xi2: Sequence[complex]) -> complex:
    """sigma(Xi)(xi1, xi2): Laplace transform of the kernel.

    Equivalently the pairing of Xi applied to one exponential vector against
    another; tests compute both routes.
    """
    return laplace(require_operator(K), xi1, xi2)


def apply_operator(K: Expansion2, f: Expansion2) -> Expansion2:
    """Apply the operator to a one-variable test function.

    Output is the one-variable distribution Psi over the kernel's second
    variable with <<Psi, g>> = <<kernel, f (x) g>> for every g; coefficient
    rule: Psi_beta = sum_alpha |alpha|! mult(alpha) f_alpha K_{alpha,beta},
    summed per beta by `sum_by_code` in the kernel's term order.
    """
    require_operator(K)
    if f.role != TEST:
        raise RoleError("apply_operator needs a test function")
    if not f.is_one_variable():
        raise DimensionMismatchError("apply_operator needs a one-variable input")
    if f.dim1 != K.dim1 or f.cutoff1 != K.cutoff1:
        raise DimensionMismatchError("input does not match the kernel's "
                                     "first variable")
    d1, rows = K.dim1, K.exponents
    # The kernel terms whose alpha is a key of f, and that key's position.
    hit, at = lookup_codes(f.codes, key_codes(rows[:, :d1], d1, 0,
                                              K.cutoff1, 0))
    weighted = pairing_weights(*f.multiplicities) * f.values
    beta = key_codes(rows[hit, d1:], K.dim2, 0, K.cutoff2, 0)
    terms = sum_by_code(beta, complex_product(weighted[at], K.values[hit]))
    return Expansion2(K.dim2, 0, K.cutoff2, 0, terms, role=DISTRIBUTION)


def tensor_expansion(f: Expansion2, g: Expansion2) -> Expansion2:
    """f (x) g as a two-variable test function from two one-variable ones."""
    if not (f.is_one_variable() and g.is_one_variable()):
        raise DimensionMismatchError("tensor_expansion needs one-variable inputs")
    if f.role != g.role:
        raise RoleError("tensor_expansion needs matching roles")
    shape = (f.dim1, g.dim1, f.cutoff1, g.cutoff1)
    rows = join_rows(f.exponents, g.exponents)
    values = complex_product(f.values[:, None], g.values[None, :]).ravel()
    return Expansion2(*shape, (key_codes(rows, *shape), values, rows),
                      role=f.role)


def quantum_gross(K: Expansion2) -> Expansion2:
    """Quantum Gross Laplacian: convolve the kernel with the trace."""
    return gross_distribution(require_operator(K))


def multiplication_operator(Phi: Expansion2) -> Expansion2:
    """Multiplication by a one-variable distribution.

    Requires the two operator variables to share the distribution's space.
    The (n, m) kernel coefficient re-slots Phi_{n+m} with a binomial factor:
    K_{alpha,beta} = C(|alpha|+|beta|, |alpha|) Phi_{alpha+beta}, which makes
    the symbol equal the Laplace transform of Phi at xi + eta.
    """
    if Phi.role != DISTRIBUTION:
        raise RoleError("multiplication_operator needs a distribution")
    if not Phi.is_one_variable():
        raise DimensionMismatchError("multiplication_operator needs a "
                                     "one-variable distribution")
    d, cutoff = Phi.dim1, Phi.cutoff1
    # Every split gamma = alpha + beta of every term of Phi.
    g, alpha = occupations_below(Phi.exponents, cutoff)
    rows = np.concatenate((alpha, Phi.exponents[g] - alpha), axis=1)
    degrees, mult = multiplicities(rows, d)
    # C(n + m, n) is mult((n, m)), the degrees read as one occupation vector.
    binomial = multiplicities(degrees, 2)[1].astype(float)
    codes = key_codes(rows, d, d, cutoff, cutoff)
    order = np.argsort(codes)
    values = binomial * Phi.values[g]
    return Expansion2(d, d, cutoff, cutoff, (
        codes[order], values[order], rows[order], degrees[order],
        mult[order]), role=DISTRIBUTION)


def classical_quantum_bridge(Phi: Expansion2) -> Tuple[Expansion2, Expansion2]:
    """Both sides of the classical/quantum relation.

    Returns (quantum route, classical route): applying the quantum Gross
    Laplacian of the multiplication operator to the vacuum, and the
    distribution-side Gross Laplacian of Phi.  They agree on retained degrees.
    """
    op = quantum_gross(multiplication_operator(Phi))
    e0 = vacuum(Phi.dim1, 0, Phi.cutoff1, 0)
    quantum_route = apply_operator(op, e0)
    classical_route = gross_distribution(Phi)
    return quantum_route, classical_route


# ---------------------------------------------------------------------------
# JSON interchange


def kernel_to_json(K: Expansion2, label: str = "") -> dict:
    """An operator's JSON object, {"label": label, "kernel": K's expansion}."""
    return {"label": label, "kernel": expansion_to_json(K)}


def kernel_from_json(obj: dict, field: str = "an operator") -> Expansion2:
    """The kernel of an operator's JSON object; the label is not read.
    `field` names the object in error messages."""
    return require_operator(expansion_from_json(
        _json_member(_json_object(obj, field), "kernel", field),
        f"{field}.kernel"))
