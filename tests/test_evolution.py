"""Tests for convolution exponentials and the evolution solvers."""

import cmath
import importlib.util
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from grosslap import evolution
from grosslap.chaos import (
    DISTRIBUTION,
    DimensionMismatchError,
    Expansion2,
    RoleError,
    coefficient_polynomials,
    delta0,
    laplace,
    multiplicities,
    vacuum,
)
from grosslap.cli import _process_from_json
from grosslap.evolution import (
    ACTION_DISTRIBUTION,
    ACTION_FUNCTION,
    ACTIONS,
    SYMBOL_RADIUS,
    EvolutionSolution,
    ProcessSpec,
    apply_propagator,
    conv_exp,
    gaussian_heat_kernel,
    half_trace_process,
    solve,
    solve_qsde,
    solve_symbol_ode,
    symbol_gap,
    torus_symbols,
    zero_process,
    _exp_divided_differences,
    _piece_index,
    _segments,
    _shifted_gauss_moment,
    _step_propagators,
)
from grosslap.gross import convolve_dist_dist, trace_distribution
from grosslap.quantum_op import kernel_from_json, symbol
from conftest import (REMOVED_METHOD, SOLVER_CASES, random_expansion,
                      rng_complex, solver_case)


def value_at(P, s):
    """The kernel of process P at time s."""
    if s < 0 or s > P.end:
        raise ValueError(f"time {s} outside process grid")
    return P.kernels[_piece_index(P, s)]


def integrate_between(P, s, t):
    """The integral of process P over [s, t], piece by piece."""
    if not (0.0 <= s <= t <= P.end + 1e-12):
        raise ValueError(f"integration range [{s}, {t}] outside grid")
    total = P.kernels[0].take(slice(0))
    for i, kern in enumerate(P.kernels):
        a, b = P.grid[i], P.grid[i + 1]
        length = min(b, t) - max(a, s)
        if length > 0:
            total = total.add(kern.scale(length))
    return total


def kernel_of(coeffs, d1=1, d2=1, c1=8, c2=8):
    return Expansion2(d1, d2, c1, c2, coeffs, role=DISTRIBUTION)


# ---------------------------------------------------------------------------
# conv_exp


def test_conv_exp_of_zero_is_delta0():
    zero = Expansion2(1, 1, 6, 6, {}, role=DISTRIBUTION)
    assert conv_exp(zero).coeffs == delta0(1, 1, 6, 6).coeffs


def test_conv_exp_of_constant():
    c = 0.3 - 0.7j
    Phi = delta0(2, 0, 4, 0).scale(c)
    out = conv_exp(Phi)
    assert out[((0, 0), ())] == pytest.approx(np.exp(c))
    assert len(out.coeffs) == 1


def test_conv_exp_of_half_trace():
    T = trace_distribution(1, 1, 8, 8)
    E = conv_exp(T.scale(0.5))
    assert E[((2,), (0,))] == pytest.approx(0.5)
    assert E[((4,), (0,))] == pytest.approx(0.125)


def _majorant_tail(A, rho):
    """Bound on |L(e^{*A})(x) - L(trunc e^{*A})(x)| for max |x_i| <= rho.

    With |A| the coefficient moduli of A, every coefficient of e^{*A} is
    dominated by that of e^{*|A|}, so the dropped degrees sum to at most
    e^{L_|A|(rho)} - L(trunc e^{*|A|})(rho), a sum of non-negative terms.
    Returns that bound and the majorant e^{L_|A|(rho)} of |L(e^{*A})(x)|.
    """
    absA = Expansion2(A.dim1, A.dim2, A.cutoff1, A.cutoff2,
                      {k: abs(v) for k, v in A.coeffs.items()},
                      role=DISTRIBUTION)
    point = ([rho] * A.dim1, [rho] * A.dim2)
    whole = math.exp(laplace(absA, *point).real)
    return whole - laplace(conv_exp(absA), *point).real, whole


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6))
@example(seed=709)
def test_conv_exp_laplace_homomorphism(seed):
    rng = np.random.default_rng(seed)
    A = random_expansion(rng, 1, 1, 10, 10, 2, 2, role=DISTRIBUTION,
                         scale=0.3)
    B = random_expansion(rng, 1, 1, 10, 10, 2, 2, role=DISTRIBUTION,
                         scale=0.3)
    xi = (rng_complex(rng, 1) * 0.3).tolist()
    eta = (rng_complex(rng, 1) * 0.3).tolist()
    lhs = laplace(conv_exp(A.add(B)), xi, eta)
    rhs = laplace(conv_exp(A), xi, eta) * laplace(conv_exp(B), xi, eta)
    # The identity holds for the untruncated exponentials E, so each side
    # differs from it by cutoff tails T: lhs - rhs = -T_{A+B} + T_A L(trunc
    # e^{*B}) + E_A T_B, bounded through the majorants.
    rho = max(map(abs, xi + eta))
    tail_AB, _ = _majorant_tail(A.add(B), rho)
    tail_A, whole_A = _majorant_tail(A, rho)
    tail_B, whole_B = _majorant_tail(B, rho)
    bound = tail_AB + tail_A * whole_B + whole_A * tail_B
    assert abs(lhs - rhs) <= bound + 1e-12


def test_conv_exp_exponentiates_the_transform(rng):
    Phi = random_expansion(rng, 1, 1, 12, 12, 2, 2, role=DISTRIBUTION,
                           scale=0.25)
    xi = [0.2 + 0.1j]
    eta = [0.15 - 0.2j]
    lhs = laplace(conv_exp(Phi), xi, eta)
    rhs = np.exp(laplace(Phi, xi, eta))
    assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


def chained_power_series(N, *weights):
    """sum_j w[j] N^{*j} for each weight list w, one pairwise `add` of
    w[j] N^{*j} per power."""
    power = delta0(N.dim1, N.dim2, N.cutoff1, N.cutoff2)
    results = [power.scale(w[0]) for w in weights]
    for j in range(1, len(weights[0])):
        power = convolve_dist_dist(power, N)
        if not len(power.codes):
            break
        results = [r.add(power.scale(w[j])) for r, w in zip(results, weights)]
    return results


@pytest.mark.parametrize("cutoff", [4, 5, 6, 7, 8])
@pytest.mark.parametrize("dims", [(1, 1), (2, 1)])
def test_series_sum_as_chained_adds_do(dims, cutoff):
    # Each series is one sum over all its powers' terms, which must add
    # every coefficient in the order a chain of pairwise adds does.
    rng = np.random.default_rng([*dims, cutoff])
    Z = random_expansion(rng, *dims, cutoff, cutoff, cutoff, cutoff,
                         DISTRIBUTION, scale=0.5)
    h, kmax = 0.37, 2 * cutoff
    c0, N = evolution._split_constant(Z)
    got = [conv_exp(Z)]
    want = chained_power_series(N, evolution._exp_weights(c0, kmax))
    c0, M = evolution._split_constant(Z.scale(h))
    got += _step_propagators(Z, h)
    want += chained_power_series(M, evolution._exp_weights(c0, kmax),
                                 h * _exp_divided_differences(c0, kmax + 1))
    assert len(got) == len(want) == 3
    for g, w in zip(got, want):
        assert len(g.codes) > 1
        assert g.codes.tolist() == w.codes.tolist()
        assert g.values.tobytes() == w.values.tobytes()


# ---------------------------------------------------------------------------
# processes


def test_process_validation():
    K = kernel_of({((0,), (0,)): 1 + 0j})
    with pytest.raises(ValueError):
        ProcessSpec((0.0,), ())
    with pytest.raises(ValueError):
        ProcessSpec((0.5, 1.0), (K,))
    with pytest.raises(ValueError):
        ProcessSpec((0.0, 1.0, 0.5), (K, K))


def _qsde(action=ACTION_FUNCTION, late=(1, 1, 3, 3)):
    """A closed-form solve at dims (1,1), cutoff 3, to time 0.5, whose Z
    has a second piece of shape `late` on [1, 2]: no step reaches it."""
    Z = ProcessSpec((0.0, 1.0, 2.0),
                    (kernel_of({}, 1, 1, 3, 3), kernel_of({}, *late)))
    return solve_qsde(Z, zero_process(1, 1, 3, 3, 1.0),
                      kernel_of({((0,), (0,)): 1 + 0j}, c1=3, c2=3), [0.5],
                      action=action)


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: conv_exp(vacuum(1, 1, 3, 3)),
                 RoleError, "conv_exp", id="conv-exp-test-function"),
    pytest.param(lambda: _qsde(action="bogus"),
                 ValueError, "unknown action", id="unknown-action"),
    pytest.param(lambda: _qsde(late=(1, 1, 4, 3)),
                 DimensionMismatchError, "cutoffs",
                 id="process-other-cutoffs"),
    pytest.param(lambda: _qsde(late=(2, 1, 3, 3)),
                 DimensionMismatchError, "dims", id="process-other-dims"),
])
def test_input_errors(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_integrate_constant_process():
    K = kernel_of({((1,), (0,)): 2 + 0j})
    P = ProcessSpec.constant(K, 3.0)
    assert integrate_between(P, 0.0, 2.0).coeffs == {((1,), (0,)): 4 + 0j}
    assert integrate_between(P, 0.0, 0.0).coeffs == {}


def test_integrate_piecewise():
    A = kernel_of({((1,), (0,)): 1 + 0j})
    B = kernel_of({((0,), (1,)): 1 + 0j})
    P = ProcessSpec((0.0, 1.0, 2.0), (A, B))
    out = integrate_between(P, 0.0, 1.5)
    assert out[((1,), (0,))] == pytest.approx(1.0)
    assert out[((0,), (1,))] == pytest.approx(0.5)
    mid = integrate_between(P, 0.5, 1.25)
    assert mid[((1,), (0,))] == pytest.approx(0.5)
    assert mid[((0,), (1,))] == pytest.approx(0.25)


def test_process_value_lookup():
    A = kernel_of({((1,), (0,)): 1 + 0j})
    B = kernel_of({((0,), (1,)): 1 + 0j})
    P = ProcessSpec((0.0, 1.0, 2.0), (A, B))
    assert value_at(P, 0.5) is A
    assert value_at(P, 1.5) is B
    assert value_at(P, 2.0) is B
    with pytest.raises(ValueError):
        value_at(P, 2.5)


# ---------------------------------------------------------------------------
# solve_qsde


def test_free_evolution_is_constant(rng):
    xi0 = kernel_of({((2,), (0,)): 1 + 0j, ((1,), (1,)): 0.5j})
    Z = zero_process(1, 1, 8, 8, 2.0)
    Theta = zero_process(1, 1, 8, 8, 2.0)
    sol = solve_qsde(Z, Theta, xi0, [0.0, 0.7, 2.0])
    for k in sol.kernels:
        assert k.coeffs == xi0.coeffs


def test_pure_source_integrates_linearly():
    xi0 = kernel_of({((2,), (0,)): 1 + 0j})
    Th = kernel_of({((1,), (1,)): 1 + 0j})
    Z = zero_process(1, 1, 8, 8, 2.0)
    Theta = ProcessSpec.constant(Th, 2.0)
    sol = solve_qsde(Z, Theta, xi0, [0.0, 0.5, 2.0])
    for t, k in zip(sol.times, sol.kernels):
        expected = xi0.add(Th.scale(t))
        diff = k.add(expected.scale(-1)).norm_inf()
        assert diff <= 1e-12


def test_initial_condition_is_exact(rng):
    xi0 = kernel_of(dict(random_expansion(rng, 1, 1, 8, 8, 3, 3,
                                          role=DISTRIBUTION).coeffs))
    Z = ProcessSpec.constant(kernel_of({((1,), (0,)): 0.4 + 0j}), 1.0)
    Theta = zero_process(1, 1, 8, 8, 1.0)
    sol = solve_qsde(Z, Theta, xi0, [0.0, 1.0])
    assert sol.kernels[0].coeffs == xi0.coeffs


def test_semigroup_property(rng):
    xi0 = kernel_of(dict(random_expansion(rng, 1, 1, 8, 8, 2, 2,
                                          role=DISTRIBUTION).coeffs))
    Z = ProcessSpec.constant(kernel_of({((1,), (0,)): 0.3 + 0.1j,
                                        ((0,), (2,)): 0.2 + 0j}), 2.0)
    Theta = zero_process(1, 1, 8, 8, 2.0)
    full = solve_qsde(Z, Theta, xi0, [1.3], action=ACTION_DISTRIBUTION)
    part = solve_qsde(Z, Theta, xi0, [0.5], action=ACTION_DISTRIBUTION)
    restart = solve_qsde(Z, Theta, part.kernels[0], [0.8],
                         action=ACTION_DISTRIBUTION)
    diff = restart.kernels[0].add(full.kernels[0].scale(-1)).norm_inf()
    assert diff <= 1e-10


def test_out_of_range_time_rejected():
    xi0 = kernel_of({((0,), (0,)): 1 + 0j})
    Z = zero_process(1, 1, 8, 8, 1.0)
    Theta = zero_process(1, 1, 8, 8, 1.0)
    with pytest.raises(ValueError):
        solve_qsde(Z, Theta, xi0, [1.5])


def simpson_source(Z, Theta, t, action, panels):
    """Fixed-panel composite Simpson rule for the source integral.

    Integrates s -> e^{*int_s^t Z} acting on Theta(s) over each segment
    between grid points, where both processes are constant.
    """
    grid = sorted({0.0, t} | {g for g in Z.grid + Theta.grid if 0 < g < t})
    total = None
    for a, b in zip(grid, grid[1:]):
        th = value_at(Theta, (a + b) / 2)
        h = (b - a) / panels
        for i in range(panels + 1):
            s = a + i * h
            w = 1 if i in (0, panels) else (4 if i % 2 else 2)
            G = conv_exp(integrate_between(Z, s, t))
            term = apply_propagator(G, th, action).scale(w * h / 3)
            total = term if total is None else total.add(term)
    return total


def source_term(Z, Theta, t, action):
    """The closed-form solution from a zero initial kernel."""
    xi0 = Z.kernels[0].scale(0)
    return solve_qsde(Z, Theta, xi0, [t], action=action).kernels[0]


@pytest.mark.parametrize("action", [ACTION_DISTRIBUTION, ACTION_FUNCTION])
def test_source_term_matches_simpson(rng, action):
    def small():
        return random_expansion(rng, 1, 1, 4, 4, 2, 2,
                                role=DISTRIBUTION, scale=0.3)
    grid = (0.0, 1.0, 2.0)
    Z = ProcessSpec(grid, (small(), small()))
    Theta = ProcessSpec(grid, (small(), small()))
    for t in (0.6, 1.7):
        exact = source_term(Z, Theta, t, action)
        oracle = simpson_source(Z, Theta, t, action, panels=32)
        assert exact.add(oracle.scale(-1)).norm_inf() <= 1e-9


def test_source_term_matches_simpson_for_stiff_constant():
    # h * c0 = -16 + 6j: the source decays fast, where cancelling closed
    # forms of the phi-functions lose accuracy.
    c0 = -16 + 6j
    Zk = kernel_of({((0,), (0,)): c0, ((1,), (0,)): 0.5 + 0j,
                    ((1,), (1,)): 0.3j}, c1=3, c2=3)
    Tk = kernel_of({((0,), (0,)): 1 + 0j, ((0,), (1,)): -0.5 + 0j},
                   c1=3, c2=3)
    Z = ProcessSpec.constant(Zk, 1.0)
    Theta = ProcessSpec.constant(Tk, 1.0)
    exact = source_term(Z, Theta, 1.0, ACTION_DISTRIBUTION)
    oracle = simpson_source(Z, Theta, 1.0, ACTION_DISTRIBUTION, panels=1024)
    assert exact.add(oracle.scale(-1)).norm_inf() <= 1e-9


@pytest.mark.parametrize("c0, t", [(-800.0, 1.0), (-10.0, 100.0),
                                   (-800.0 + 30j, 1.0)])
def test_source_term_for_strongly_decaying_segment(c0, t):
    # h * c0 far below -709: e^{h c0} underflows, so the weights must not
    # be formed as e^{h c0} times phi_{j+1}(-h c0), which overflows.
    scalar = source_term(ProcessSpec.constant(kernel_of({((0,), (0,)): c0}), t),
                         ProcessSpec.constant(kernel_of({((0,), (0,)): 1 + 0j}),
                                              t), t, ACTION_DISTRIBUTION)
    assert scalar.coeffs == {((0,), (0,)): pytest.approx((1 - np.exp(c0 * t))
                                                         / -c0, rel=1e-13)}
    # With N != 0 the source X solves Z * X = e^{*tZ} * Theta - Theta.
    Zk = kernel_of({((0,), (0,)): c0, ((1,), (0,)): 0.5 + 0j,
                    ((1,), (1,)): 0.3j}, c1=3, c2=3)
    Tk = kernel_of({((0,), (0,)): 1 + 0j, ((0,), (1,)): -0.5 + 0j},
                   c1=3, c2=3)
    X = source_term(ProcessSpec.constant(Zk, t), ProcessSpec.constant(Tk, t),
                    t, ACTION_DISTRIBUTION)
    assert all(np.isfinite(v) for v in X.coeffs.values())
    lhs = convolve_dist_dist(Zk, X)
    rhs = convolve_dist_dist(conv_exp(Zk.scale(t)), Tk).add(Tk.scale(-1))
    assert lhs.add(rhs.scale(-1)).norm_inf() <= 1e-12


# |z| from 1e-8 to 1e3 in eight directions with Re z <= 50, and strongly
# decaying z, where e^z underflows, off the real axis.
DIVIDED_DIFFERENCE_POINTS = [
    z for r in np.geomspace(1e-8, 1e3, 12) for q in range(8)
    if (z := r * cmath.exp(1j * (0.3 + q * math.pi / 4))).real <= 50
] + [complex(re, im) for re in (-709.5, -750.0, -1000.0)
     for im in (0.5, -30.0, 700.0)]


def test_exp_divided_differences_are_relatively_exact():
    # exp[0, z, .., z] with z j times is int_0^1 e^{zu} u^{j-1}/(j-1)! du
    # = 1F1(j; j+1; z) / j!, taken from mpmath at 50 digits.
    import mpmath
    worst = (0.0, None)
    with mpmath.workdps(50), warnings.catch_warnings():
        warnings.simplefilter("error")
        for z in DIVIDED_DIFFERENCE_POINTS:
            exact = [mpmath.hyp1f1(j, j + 1, z) / mpmath.factorial(j)
                     for j in range(1, 18)]
            for k in (1, 5, 17):
                got = _exp_divided_differences(z, k)
                assert got.shape == (k,) and np.all(np.isfinite(got))
                for j in range(k):
                    err = float(abs(got[j] - exact[j]) / abs(exact[j]))
                    if err > worst[0]:
                        worst = (err, (z, k, j + 1))
    assert worst[0] <= 1e-12, worst


@pytest.mark.parametrize("action", [ACTION_DISTRIBUTION, ACTION_FUNCTION])
def test_semigroup_property_with_source(rng, action):
    xi0 = kernel_of(dict(random_expansion(rng, 1, 1, 8, 8, 2, 2,
                                          role=DISTRIBUTION).coeffs))
    Z = ProcessSpec.constant(kernel_of({((0,), (0,)): -0.4 + 0.2j,
                                        ((1,), (0,)): 0.3 + 0.1j,
                                        ((0,), (2,)): 0.2 + 0j}), 2.0)
    Theta = ProcessSpec.constant(kernel_of({((0,), (0,)): 0.5 + 0j,
                                            ((1,), (1,)): 0.7 - 0.2j}), 2.0)
    full = solve_qsde(Z, Theta, xi0, [1.3], action=action)
    part = solve_qsde(Z, Theta, xi0, [0.5], action=action)
    restart = solve_qsde(Z, Theta, part.kernels[0], [0.8], action=action)
    diff = restart.kernels[0].add(full.kernels[0].scale(-1)).norm_inf()
    assert diff <= 1e-12


def _at_cutoff(phi, cutoff):
    return Expansion2(phi.dim1, phi.dim2, cutoff, cutoff, dict(phi.coeffs),
                      role=DISTRIBUTION)


@pytest.mark.parametrize("action", [ACTION_FUNCTION, ACTION_DISTRIBUTION])
def test_closed_form_is_exact_in_every_retained_degree(action):
    # A retained coefficient never draws on a dropped degree, so the same
    # kernels embedded at cutoff 8 give the same coefficients up to degree
    # 6, to rounding.  Products sum in the left operand's key order at any
    # cutoff; only the divided differences still depend on it, through the
    # length of their Taylor series and the size of its matrix (no seed of
    # 0-199 differs in a bit under either action, but nothing promises it).
    # The function action lowers degrees, so nothing lands past degree 6.
    for seed in range(5):
        rng = np.random.default_rng(seed)

        def draw(scale=1.0):
            return random_expansion(rng, 1, 1, 6, 6, 6, 6, DISTRIBUTION,
                                    scale=scale)

        grid = (0.0, 0.5, 1.0)
        Z = ProcessSpec(grid, (draw(0.3), draw(0.3)))
        Theta = ProcessSpec(grid, (draw(), draw()))
        xi0 = draw()
        small = solve_qsde(Z, Theta, xi0, [0.5, 1.0], action=action)
        large = solve_qsde(
            *(ProcessSpec(P.grid, tuple(_at_cutoff(k, 8) for k in P.kernels))
              for P in (Z, Theta)),
            _at_cutoff(xi0, 8), [0.5, 1.0], action=action)
        for a, b in zip(small.kernels, large.kernels):
            kept = {k for k in b.coeffs if max(map(sum, k)) <= 6}
            if action == ACTION_FUNCTION:
                assert kept == set(b.coeffs)
            assert kept == set(a.coeffs)
            for k in kept:
                assert abs(a[k] - b[k]) <= 1e-14 * abs(b[k])


# ---------------------------------------------------------------------------
# heat flow and the Gaussian oracle


def test_heat_flow_of_square_adds_t():
    xi0 = kernel_of({((2,), (0,)): 1 + 0j})
    sol = solve(xi0, [0.0, 0.5, 1.0])
    for t, k in zip(sol.times, sol.kernels):
        assert k[((2,), (0,))] == pytest.approx(1.0)
        assert k[((0,), (0,))] == pytest.approx(t)
    assert sol.checks["gaussian_gap"] <= 1e-10


def test_heat_flow_fixes_linear_kernels():
    xi0 = kernel_of({((1,), (0,)): 2 + 0j, ((0,), (1,)): -1j})
    sol = solve(xi0, [0.25, 1.0, 2.0])
    for k in sol.kernels:
        assert k.coeffs == xi0.coeffs


def test_gaussian_heat_kernel_examples():
    xi0 = kernel_of({((2,), (0,)): 1 + 0j})
    assert gaussian_heat_kernel(xi0, 0.0, [[1.5, 0.0]]) == \
        pytest.approx([1.5 ** 2])
    assert gaussian_heat_kernel(xi0, 2.0, [[1.0, 0.0], [0.0, 0.0]]) == \
        pytest.approx([3.0, 2.0])
    quartic = kernel_of({((4,), (0,)): 1 + 0j})
    assert gaussian_heat_kernel(quartic, 1.0, [[0.0, 0.0]]) == \
        pytest.approx([3.0])
    with pytest.raises(ValueError):
        gaussian_heat_kernel(xi0, -1.0, [[0.0, 0.0]])
    with pytest.raises(ValueError):
        gaussian_heat_kernel(xi0, 1.0, [[0.0]])


def _gaussian_heat_kernel_at(xi0, t, z, w):
    # The one-point loop the row evaluation replaced, kept as its reference.
    terms = (multiplicities(xi0.exponents, xi0.dim1)[1].astype(float)
             * xi0.values)
    for a, column in zip([complex(v) for v in (*z, *w)], xi0.exponents.T):
        moments = np.array([_shifted_gauss_moment(a, t, k)
                            for k in range(column.max(initial=0) + 1)])
        terms = terms * moments[column]
    return complex(np.sum(terms))


@pytest.mark.parametrize("dims, points", [((1, 1), 5), ((2, 2), 5),
                                          ((2, 0), 3), ((1, 2), 0)])
def test_gaussian_heat_kernel_rows_match_point_loop(rng, dims, points):
    d1, d2 = dims
    xi0 = random_expansion(rng, d1, d2, 6, 6 if d2 else 0, 4,
                           4 if d2 else 0, role=DISTRIBUTION)
    x = rng.uniform(-1, 1, (points, d1 + d2))
    values = gaussian_heat_kernel(xi0, 0.7, x)
    assert values.shape == (points,)
    for row, value in zip(x.tolist(), values.tolist()):
        assert value == _gaussian_heat_kernel_at(xi0, 0.7, row[:d1], row[d1:])


def test_heat_gaussian_gap_small_for_random_kernel(rng):
    xi0 = random_expansion(rng, 1, 1, 8, 8, 4, 4, role=DISTRIBUTION)
    sol = solve(xi0, [0.1, 0.5, 1.0, 2.0])
    assert sol.checks["gaussian_gap"] <= 1e-10


def test_heat_equals_qsde_with_half_trace(rng):
    xi0 = random_expansion(rng, 1, 1, 8, 8, 3, 3, role=DISTRIBUTION)
    times = [0.3, 1.0]
    Z = half_trace_process(1, 1, 8, 8, 1.0)
    Theta = zero_process(1, 1, 8, 8, 1.0)
    a = solve(xi0, times)
    b = solve_qsde(Z, Theta, xi0, times)
    for ka, kb in zip(a.kernels, b.kernels):
        assert ka.coeffs == kb.coeffs


# ---------------------------------------------------------------------------
# Steps that share propagators


def rebuilt_every_step(Z, Theta, xi0, times, action):
    """The closed-form kernels at `times`, with the propagators built afresh
    at every step of `_segments`."""
    state = xi0
    states = {0.0: state}
    for a, b, i, j in _segments(Z, Theta, times):
        gen, source = Z.kernels[i], Theta.kernels[j]
        if len(source.codes):
            propagator, integral = _step_propagators(gen, b - a)
            state = apply_propagator(propagator, state, action).add(
                apply_propagator(integral, source, action))
        else:
            state = apply_propagator(conv_exp(gen.scale(b - a)), state,
                                     action)
        states[b] = state
    return [states[float(t)] for t in times]


def counted_calls(monkeypatch, name):
    """Replace evolution.<name> by a wrapper; returns the list its calls are
    appended to."""
    calls = []
    original = getattr(evolution, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(evolution, name, counted)
    return calls


def assert_same_bits(kernels, expected):
    assert len(kernels) == len(expected)
    for kern, exact in zip(kernels, expected):
        assert np.array_equal(kern.codes, exact.codes)
        assert kern.values.tobytes() == exact.values.tobytes()


@pytest.mark.parametrize("action", ACTIONS)
@pytest.mark.parametrize("times, builds", [
    pytest.param([0.25, 0.5, 0.75, 1.0], 1, id="equal-steps"),
    pytest.param([0.25, 0.5, 1.0], 2, id="unequal-steps"),
])
def test_heat_steps_of_one_length_share_a_propagator(monkeypatch, rng, times,
                                                     builds, action):
    xi0 = random_expansion(rng, 1, 1, 6, 6, 4, 4, role=DISTRIBUTION)
    Z = half_trace_process(1, 1, 6, 6, 1.0)
    Theta = zero_process(1, 1, 6, 6, 1.0)
    expected = rebuilt_every_step(Z, Theta, xi0, times, action)
    conv_exps = counted_calls(monkeypatch, "conv_exp")
    sol = solve_qsde(Z, Theta, xi0, times, action=action)
    assert len(conv_exps) == builds
    assert_same_bits(sol.kernels, expected)


def test_driven_steps_share_propagators_per_piece(monkeypatch):
    # The benchmark's driven flow: Z and Theta change at t = 1, and the steps
    # to 0.5, 1.0 and 1.5 all have length 0.5, so the first two share their
    # propagators.
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    doc = inputs.driven_input(1)
    xi0 = kernel_from_json(doc["xi0"])
    Z, Theta = _process_from_json(doc["Z"]), _process_from_json(doc["Theta"])
    action = doc["action"]
    expected = rebuilt_every_step(Z, Theta, xi0, doc["times"], action)
    steps = counted_calls(monkeypatch, "_step_propagators")
    conv_exps = counted_calls(monkeypatch, "conv_exp")
    sol = solve_qsde(Z, Theta, xi0, doc["times"], action=action)
    assert len(_segments(Z, Theta, doc["times"])) == 3
    assert [h for _, h in steps] == [0.5, 0.5]
    assert not conv_exps
    assert_same_bits(sol.kernels, expected)


@pytest.mark.parametrize("source", [False, True], ids=["heat", "source"])
@pytest.mark.parametrize("times", [
    pytest.param([0.25, 0.5, 0.75, 1.0], id="equal-steps"),
    pytest.param([0.25, 0.5, 1.0], id="unequal-steps"),
])
def test_both_solve_builds_each_steps_propagators_once(monkeypatch, rng,
                                                       times, source):
    # The function-action pass and the distribution-action pass of a "both"
    # solve share propagators: each distinct step builds them once in all.
    xi0 = random_expansion(rng, 1, 1, 6, 6, 4, 4, role=DISTRIBUTION)
    Z = half_trace_process(1, 1, 6, 6, 1.0)
    Theta = (ProcessSpec.constant(random_expansion(
        rng, 1, 1, 6, 6, 2, 2, role=DISTRIBUTION, scale=0.2), 1.0)
        if source else zero_process(1, 1, 6, 6, 1.0))
    expected = {a: rebuilt_every_step(Z, Theta, xi0, times, a)
                for a in ACTIONS}
    closed = EvolutionSolution(tuple(times),
                               tuple(expected[ACTION_DISTRIBUTION]),
                               method="closed_form")
    residual = symbol_gap(closed, solve_symbol_ode(Z, Theta, xi0, times))
    builds = counted_calls(monkeypatch,
                           "_step_propagators" if source else "conv_exp")
    sol = solve(xi0, times, Theta=Theta, method="both")
    assert len(builds) == len({(i, j, b - a) for a, b, i, j
                               in _segments(Z, Theta, times)})
    assert_same_bits(sol.kernels, expected[ACTION_FUNCTION])
    assert sol.checks["residual_max"] == residual


# ---------------------------------------------------------------------------
# symbol-ODE oracle


def test_symbol_ode_constant_without_drivers(rng):
    xi0 = random_expansion(rng, 1, 1, 4, 4, 2, 2,
                           role=DISTRIBUTION)
    Z = zero_process(1, 1, 4, 4, 1.0)
    Theta = zero_process(1, 1, 4, 4, 1.0)
    v0, v1 = solve_symbol_ode(Z, Theta, xi0, [0.0, 1.0])
    assert np.allclose(v0, v1, atol=1e-12)


def test_symbol_ode_heat_exponential():
    # Z = T/2 is constant, so sigma(t) = exp(t sigma(Z)) sigma(Xi0) pointwise.
    xi0 = kernel_of({((0,), (0,)): 1 + 0j, ((1,), (1,)): 0.5j})
    Z = half_trace_process(1, 1, 8, 8, 1.0)
    Theta = zero_process(1, 1, 8, 8, 1.0)
    times = [0.5, 1.0]
    sol = solve_symbol_ode(Z, Theta, xi0, times)
    (_, points, _), _ = torus_symbols([xi0])
    assert points.shape == (81, 2)
    assert sol.shape == (2, 81)
    assert not points.flags.writeable
    assert not sol.flags.writeable
    for t, values in zip(times, sol):
        for x, v in zip(points, values):
            z, w = x[:1], x[1:]
            exact = np.exp(t * symbol(Z.kernels[0], z, w)) * symbol(xi0, z, w)
            assert abs(v - exact) <= 1e-9


def test_symbol_ode_matches_closed_form(rng):
    xi0 = random_expansion(rng, 1, 1, 8, 8, 2, 2, role=DISTRIBUTION)
    Z = ProcessSpec.constant(
        random_expansion(rng, 1, 1, 8, 8, 2, 2, role=DISTRIBUTION,
                         scale=0.2), 1.0)
    Theta = ProcessSpec.constant(
        random_expansion(rng, 1, 1, 8, 8, 2, 2, role=DISTRIBUTION,
                         scale=0.2), 1.0)
    times = [0.5, 1.0]
    numeric = solve_symbol_ode(Z, Theta, xi0, times)
    closed = solve_qsde(Z, Theta, xi0, times, action=ACTION_DISTRIBUTION)
    (_, points, _), _ = torus_symbols([xi0])
    for kern, values in zip(closed.kernels, numeric):
        for x, v in zip(points, values):
            assert abs(symbol(kern, x[:1], x[1:]) - v) <= 1e-6


@pytest.mark.parametrize("dims, cutoffs", [
    ((1, 1), (8, 8)), ((2, 2), (6, 6)), ((2, 0), (5, 0)), ((3, 1), (3, 2)),
])
def test_torus_symbols_match_direct_evaluation(rng, dims, cutoffs):
    phis = [random_expansion(rng, *dims, *cutoffs, *cutoffs,
                             role=DISTRIBUTION) for _ in range(3)]
    (_, x, _), grid = torus_symbols(phis)
    assert x.shape == (math.prod(c + 1 for c, d in zip(cutoffs, dims)
                                 for _ in range(d)), sum(dims))
    assert np.allclose(np.abs(x), SYMBOL_RADIUS, rtol=1e-15, atol=0)
    direct = coefficient_polynomials(phis, x)
    assert np.max(np.abs(grid - direct)) <= 1e-12 * np.max(np.abs(direct))


def test_symbol_ode_is_exact_across_a_kink(rng):
    # Z changes at t = 0.6 and there is no source, so at every grid point
    # sigma(t) = exp(0.6 sigma(Z1) + (t - 0.6) sigma(Z2)) sigma(Xi0).
    def kernel(scale):
        return random_expansion(rng, 1, 1, 8, 8, 2, 2, role=DISTRIBUTION,
                                scale=scale)
    xi0, Z1, Z2 = kernel(1.0), kernel(0.5), kernel(0.5)
    Z = ProcessSpec((0.0, 0.6, 1.0), (Z1, Z2))
    Theta = zero_process(1, 1, 8, 8, 1.0)
    sol = solve_symbol_ode(Z, Theta, xi0, [0.3, 1.0])
    _, values = torus_symbols([xi0, Z1, Z2])
    s0, s1, s2 = values.T
    for values, exponent in zip(sol,
                                [0.3 * s1, 0.6 * s1 + 0.4 * s2]):
        exact = np.exp(exponent) * s0
        assert np.max(np.abs(np.array(values) - exact)) <= \
            1e-12 * np.max(np.abs(exact))


def scalar_process(grid, values):
    return ProcessSpec(grid, tuple(kernel_of({((0,), (0,)): complex(v)},
                                             c1=3, c2=3) for v in values))


def scalar_flow(Z, Theta, sigma, t):
    """The scalar ODE by hand, one grid interval after another."""
    cuts = sorted({0.0, t} | {g for g in Z.grid + Theta.grid if 0 < g < t})
    for a, b in zip(cuts, cuts[1:]):
        z = value_at(Z, (a + b) / 2)[((0,), (0,))]
        th = value_at(Theta, (a + b) / 2)[((0,), (0,))]
        decay = np.exp(z * (b - a))
        sigma = decay * sigma + (decay - 1) / z * th
    return sigma


@pytest.mark.parametrize("times", [[0.2, 0.7, 1.0, 1.6, 2.0], [0.7], [1.5],
                                   [0.4, 0.4], [0.0], [], [2.0, 0.0, 1.2]])
def test_both_solvers_walk_the_same_pieces(times):
    # Kinks in Z and Theta, then times on a grid point of either process,
    # repeated, zero, none and out of order.  Constant-only kernels have no
    # cutoff tail, so the two solvers may differ only by rounding.
    Z = scalar_process((0.0, 0.7, 1.5, 2.0), (-0.5 + 0.3j, 0.8j, 0.4))
    Theta = scalar_process((0.0, 0.4, 1.2, 2.0), (1.0, -2 + 1j, 0.5j))
    xi0 = kernel_of({((0,), (0,)): 0.3 - 1j}, c1=3, c2=3)
    numeric = solve_symbol_ode(Z, Theta, xi0, times)
    closed = solve_qsde(Z, Theta, xi0, times, action=ACTION_DISTRIBUTION)
    assert closed.times == tuple(times)
    assert numeric.shape == (len(times), 16)
    for t, ode, exact in zip(times, numeric, closed.kernels):
        expected = scalar_flow(Z, Theta, 0.3 - 1j, t)
        assert exact[((0,), (0,))] == pytest.approx(expected, rel=1e-13)
        # A constant kernel's symbol is its constant at every point.
        assert ode == pytest.approx(np.full(16, expected), rel=1e-13)
    assert symbol_gap(closed, numeric) <= 1e-12


@pytest.mark.parametrize("times", [[-0.1], [0.5, 2.5], [float("nan")]])
def test_both_solvers_reject_the_same_times(times):
    Z = scalar_process((0.0, 1.0, 2.0), (0.1, 0.2))
    Theta = scalar_process((0.0, 3.0), (1.0,))
    xi0 = kernel_of({((0,), (0,)): 1 + 0j}, c1=3, c2=3)
    with pytest.raises(ValueError) as closed:
        solve_qsde(Z, Theta, xi0, times)
    with pytest.raises(ValueError) as numeric:
        solve_symbol_ode(Z, Theta, xi0, times)
    assert str(closed.value) == str(numeric.value)


# ---------------------------------------------------------------------------
# The solver entry point


@pytest.mark.parametrize("heat, source, action, method", SOLVER_CASES)
def test_solve_reports_the_checks_of_its_decision_table(heat, source, action,
                                                        method):
    xi0, Z, Theta = solver_case(heat, source)
    sol = solve(xi0, [0.25, 0.5], Z, Theta, action=action, method=method)
    expected = set()
    if heat and not source and action == ACTION_FUNCTION:
        expected.add("gaussian_gap")
    if method == "both":
        expected.add("residual_max")
    assert set(sol.checks) == expected
    assert (sol.method, sol.action) == (method, action)
    assert all(math.isfinite(v) for v in sol.checks.values())


def test_solve_checks_method_and_action_before_any_work(monkeypatch):
    import grosslap.evolution as evolution

    def no_work(*args, **kwargs):
        raise AssertionError("solve worked before checking its options")

    for name in ("half_trace_process", "zero_process", "solve_qsde",
                 "solve_symbol_ode"):
        monkeypatch.setattr(evolution, name, no_work)
    xi0, _, _ = solver_case(True, False)
    for method in (REMOVED_METHOD, "closed-form"):
        with pytest.raises(ValueError, match="method must be one of "
                           "closed_form, both, not"):
            solve(xi0, [0.5], method=method)
    with pytest.raises(ValueError, match="action must be one of"):
        solve(xi0, [0.5], action="functional")
    with pytest.raises(ValueError, match="seed must be >= 0"):
        solve(xi0, [0.5], seed=-1)
