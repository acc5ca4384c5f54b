"""Finite-dimensional coefficient calculus for chaos expansions.

Sparse symmetric tensors, two-variable chaos expansions, convolution
products, scalar and operator Gross Laplacians, and closed-form solvers for
linear kernel evolution equations, each backed by an independent numerical
oracle.
"""

from .tensor_core import (
    DegreeError,
    DimensionMismatchError,
    contract_full,
)
from .chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    RoleError,
    delta0,
    dual_pair,
    evaluate,
    exponential_vector,
    laplace,
    pointwise_product,
    translate,
    vacuum,
)
from .gross import (
    convolve_dist_dist,
    convolve_dist_test,
    gross_distribution,
    gross_test,
    trace_distribution,
)
from .quantum_op import (
    OperatorKernel,
    apply_operator,
    classical_quantum_bridge,
    multiplication_operator,
    op_convolve,
    quantum_gross,
    symbol,
)
from .evolution import (
    EvolutionSolution,
    ProcessSpec,
    conv_exp,
    gaussian_heat_kernel,
    solve,
    solve_qsde,
)
from .young import YoungFunctionSpec, conjugate_eval, theta_n

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
