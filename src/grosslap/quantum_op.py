"""Operators as kernels: symbols, convolution, the quantum Gross Laplacian.

Every operator is identified with its kernel, a two-variable distribution.
The symbol is the Laplace transform of the kernel; convolution of operators
multiplies symbols; the quantum Gross Laplacian convolves the kernel with the
trace distribution.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    Key,
    RoleError,
    _sub_occupations,
    laplace,
)
from .gross import convolve_dist_dist, gross_distribution, trace_distribution
from .tensor_core import DimensionMismatchError, multinomial_weight, weight


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

    def scale(self, c: complex) -> "OperatorKernel":
        return OperatorKernel(self.kernel.scale(c), self.label)

    def add(self, other: "OperatorKernel") -> "OperatorKernel":
        return OperatorKernel(self.kernel.add(other.kernel), self.label)


def identity_kernel(dim1: int, dim2: int, cutoff1: int,
                    cutoff2: int) -> OperatorKernel:
    """The convolution unit: kernel delta_0."""
    from .chaos import delta0
    return OperatorKernel(delta0(dim1, dim2, cutoff1, cutoff2), "identity")


def trace_kernel(dim1: int, dim2: int, cutoff1: int,
                 cutoff2: int) -> OperatorKernel:
    return OperatorKernel(trace_distribution(dim1, dim2, cutoff1, cutoff2),
                          "trace")


def symbol(op: OperatorKernel, xi1: Sequence[complex],
           xi2: Sequence[complex]) -> complex:
    """sigma(Xi)(xi1, xi2): Laplace transform of the kernel.

    Equivalently the pairing of Xi applied to one exponential vector against
    another; tests compute both routes.
    """
    if len(xi1) != op.dim1 or len(xi2) != op.dim2:
        raise DimensionMismatchError("symbol point dims do not match kernel")
    return laplace(op.kernel, xi1, xi2)


def apply_operator(op: OperatorKernel, f: Expansion2) -> Expansion2:
    """Apply the operator to a one-variable test function.

    Output is the one-variable distribution Psi over the kernel's second
    variable with <<Psi, g>> = <<kernel, f (x) g>> for every g; coefficient
    rule: Psi_beta = sum_alpha |alpha|! mult(alpha) f_alpha K_{alpha,beta}.
    """
    if f.role != TEST:
        raise RoleError("apply_operator needs a test function")
    if not f.is_one_variable():
        raise DimensionMismatchError("apply_operator needs a one-variable input")
    if f.dim1 != op.dim1 or f.cutoff1 != op.kernel.cutoff1:
        raise DimensionMismatchError("input does not match the kernel's "
                                     "first variable")
    coeffs: Dict[Key, complex] = {}
    empty = ()
    for (alpha, beta), kv in op.kernel.coeffs.items():
        fv = f.coeffs.get((alpha, empty))
        if fv is None:
            continue
        w = math.factorial(weight(alpha)) * multinomial_weight(alpha)
        key = (beta, empty)
        coeffs[key] = coeffs.get(key, 0j) + w * fv * kv
    coeffs = {k: v for k, v in coeffs.items() if v != 0}
    return Expansion2(op.dim2, 0, op.kernel.cutoff2, 0, coeffs,
                      role=DISTRIBUTION,
                      truncated=op.kernel.truncated or f.truncated)


def tensor_expansion(f: Expansion2, g: Expansion2) -> Expansion2:
    """f (x) g as a two-variable test function from two one-variable ones."""
    if not (f.is_one_variable() and g.is_one_variable()):
        raise DimensionMismatchError("tensor_expansion needs one-variable inputs")
    if f.role != g.role:
        raise RoleError("tensor_expansion needs matching roles")
    coeffs: Dict[Key, complex] = {}
    for (alpha, _), a in f.coeffs.items():
        for (beta, _), b in g.coeffs.items():
            coeffs[(alpha, beta)] = a * b
    return Expansion2(f.dim1, g.dim1, f.cutoff1, g.cutoff1, coeffs,
                      role=f.role, truncated=f.truncated or g.truncated)


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
    coeffs: Dict[Key, complex] = {}
    for (gamma, _), c in Phi.coeffs.items():
        for alpha in _sub_occupations(gamma):
            beta = tuple(g - a for g, a in zip(gamma, alpha))
            n, m = weight(alpha), weight(beta)
            coeffs[(alpha, beta)] = math.comb(n + m, n) * c
    return OperatorKernel(
        Expansion2(d, d, cutoff, cutoff, coeffs, role=DISTRIBUTION),
        label="mult")


def classical_quantum_bridge(Phi: Expansion2) -> Tuple[Expansion2, Expansion2]:
    """Both sides of the classical/quantum relation.

    Returns (quantum route, classical route): applying the quantum Gross
    Laplacian of the multiplication operator to the vacuum, and the
    distribution-side Gross Laplacian of Phi.  They agree on retained degrees.
    """
    from .chaos import vacuum
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
    from .chaos import expansion_to_json
    return {"label": op.label, "kernel": expansion_to_json(op.kernel)}


def kernel_from_json(obj: dict) -> OperatorKernel:
    from .chaos import expansion_from_json
    return OperatorKernel(expansion_from_json(obj["kernel"]),
                          obj.get("label", ""))
