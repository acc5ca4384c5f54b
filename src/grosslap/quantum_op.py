"""Operators as kernels: symbols, convolution, the quantum Gross Laplacian.

Every operator is identified with its kernel, a two-variable distribution.
The symbol is the Laplace transform of the kernel; convolution of operators
multiplies symbols; the quantum Gross Laplacian convolves the kernel with the
trace distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .chaos import (
    DISTRIBUTION,
    TEST,
    DimensionMismatchError,
    Expansion2,
    RoleError,
    complex_product,
    expansion_from_json,
    expansion_to_json,
    join_rows,
    key_codes,
    laplace,
    multiplicities,
    occupations_below,
    pairing_weights,
    sum_by_code,
    vacuum,
)
from .gross import convolve_dist_dist, gross_distribution


@dataclass(frozen=True)
class OperatorKernel:
    """An operator stored through its kernel distribution."""

    kernel: Expansion2
    label: str = ""

    def __post_init__(self):
        if self.kernel.role != DISTRIBUTION:
            raise RoleError("operator kernels must be distributions")

    @property
    def dim1(self) -> int:
        return self.kernel.dim1

    @property
    def dim2(self) -> int:
        return self.kernel.dim2


def symbol(op: OperatorKernel, xi1: Sequence[complex],
           xi2: Sequence[complex]) -> complex:
    """sigma(Xi)(xi1, xi2): Laplace transform of the kernel.

    Equivalently the pairing of Xi applied to one exponential vector against
    another; tests compute both routes.
    """
    return laplace(op.kernel, xi1, xi2)


def apply_operator(op: OperatorKernel, f: Expansion2) -> Expansion2:
    """Apply the operator to a one-variable test function.

    Output is the one-variable distribution Psi over the kernel's second
    variable with <<Psi, g>> = <<kernel, f (x) g>> for every g; coefficient
    rule: Psi_beta = sum_alpha |alpha|! mult(alpha) f_alpha K_{alpha,beta},
    summed per beta by `sum_by_code` in the kernel's term order.
    """
    if f.role != TEST:
        raise RoleError("apply_operator needs a test function")
    if not f.is_one_variable():
        raise DimensionMismatchError("apply_operator needs a one-variable input")
    if f.dim1 != op.dim1 or f.cutoff1 != op.kernel.cutoff1:
        raise DimensionMismatchError("input does not match the kernel's "
                                     "first variable")
    K = op.kernel
    d1, rows = K.dim1, K.exponents
    # The kernel terms whose alpha is a key of f, and that key's position.
    alpha = key_codes(rows[:, :d1], d1, 0, K.cutoff1, 0)
    hit = np.isin(alpha, f.codes)
    at = np.searchsorted(f.codes, alpha[hit])
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


def op_convolve(op1: OperatorKernel, op2: OperatorKernel) -> OperatorKernel:
    """Operator convolution: kernels convolve, symbols multiply."""
    return OperatorKernel(convolve_dist_dist(op1.kernel, op2.kernel),
                          label=_join(op1.label, op2.label))


def quantum_gross(op: OperatorKernel) -> OperatorKernel:
    """Quantum Gross Laplacian: convolve the kernel with the trace."""
    return OperatorKernel(gross_distribution(op.kernel),
                          label=_join("qgross", op.label))


def multiplication_operator(Phi: Expansion2) -> OperatorKernel:
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
    return OperatorKernel(Expansion2(d, d, cutoff, cutoff, (
        codes[order], values[order], rows[order], degrees[order],
        mult[order]), role=DISTRIBUTION), label="mult")


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


def _join(a: str, b: str) -> str:
    parts = [p for p in (a, b) if p]
    return "*".join(parts)


# ---------------------------------------------------------------------------
# JSON interchange


def kernel_to_json(op: OperatorKernel) -> dict:
    return {"label": op.label, "kernel": expansion_to_json(op.kernel)}


def kernel_from_json(obj: dict) -> OperatorKernel:
    return OperatorKernel(expansion_from_json(obj["kernel"]),
                          obj.get("label", ""))
