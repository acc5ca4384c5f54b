"""Finite-dimensional coefficient calculus for chaos expansions.

Sparse symmetric tensors, two-variable chaos expansions, convolution
products, scalar and operator Gross Laplacians, and closed-form solvers for
linear kernel evolution equations, each backed by an independent numerical
oracle.

Importing the package loads none of its modules: each name below is
imported from its home module on first access (PEP 562), so a program that
uses only `young` never loads numpy.
"""

from importlib import import_module

# Home module -> the names the package exports from it.
_EXPORTS = {
    "tensor_core": ("DegreeError", "contract_full"),
    "chaos": ("DISTRIBUTION", "TEST", "DimensionMismatchError", "Expansion2",
              "RoleError", "delta0", "dual_pair", "evaluate",
              "exponential_vector", "laplace", "pointwise_product",
              "translate", "vacuum"),
    "gross": ("convolve_dist_dist", "convolve_dist_test",
              "gross_distribution", "gross_test", "trace_distribution"),
    "quantum_op": ("apply_operator", "classical_quantum_bridge",
                   "multiplication_operator", "quantum_gross", "symbol"),
    "evolution": ("EvolutionSolution", "ProcessSpec", "conv_exp",
                  "gaussian_heat_kernel", "solve", "solve_qsde"),
    "young": ("YoungFunctionSpec", "conjugate_eval", "theta_n"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted([*_EXPORTS, *_HOME])
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _EXPORTS:
        return import_module(f"{__name__}.{name}")
    if name in _HOME:
        return getattr(import_module(f"{__name__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
