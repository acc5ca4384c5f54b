"""Term data carried from birth: the exponent rows and multiplicities an
expansion is built with are the ones decoding would give, all or none of
them, and `_decode` gives the same data from a key table as by decoding;
the one sum's bins and sort agree bit for bit; the product kernel's block
folding is exact whatever the block size and is paid for by the pairs it
takes in; and the suites do not decode or re-derive term data more often
than they did when this was measured."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grosslap
from grosslap import chaos, evolution, gross, quantum_op, tensor_core, verify
from grosslap.chaos import (
    DISTRIBUTION,
    TEST,
    Expansion2,
    _decode,
    delta0,
    exponential_vector,
    key_codes,
    multiplicities,
    pair_products,
    pairing_weights,
    sym_convolve_coeffs,
    vacuum,
)
from grosslap.evolution import _split_constant, conv_exp
from grosslap.gross import convolve_dist_test, trace_distribution
from grosslap.quantum_op import multiplication_operator, tensor_expansion
from grosslap.tensor_core import contract_full, multinomial_weight

from conftest import gross_parts, random_expansion, random_tensor


def assert_term_data(phi, seeded=False):
    """phi's rows code to its codes, its degrees and multiplicities are
    what `multiplicities` gives for those rows, and every array it holds is
    read-only; with `seeded`, phi was built with its term data, so reading
    it derived nothing."""
    if seeded:
        assert "term_data" in vars(phi)
    rows = phi.exponents
    assert rows.dtype == np.int64
    assert np.array_equal(key_codes(rows, phi.dim1, phi.dim2, phi.cutoff1,
                                    phi.cutoff2), phi.codes)
    degrees, mult = phi.multiplicities
    want_degrees, want_mult = multiplicities(rows, phi.dim1)
    assert np.array_equal(degrees, want_degrees)
    assert np.array_equal(mult, want_mult)
    for array in (phi.codes, phi.values, rows, degrees, mult):
        assert not array.flags.writeable


@st.composite
def seeded_operands(draw):
    """Two seeded expansions of one shape (dict-built or drawn as the
    suites draw them), with their multiplicities computed or not."""
    dim1, dim2 = draw(st.integers(1, 3)), draw(st.integers(0, 2))
    cutoff1 = draw(st.integers(0, 6))
    cutoff2 = draw(st.integers(0, 5)) if dim2 else 0
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    out = []
    for role in (DISTRIBUTION, TEST):
        if draw(st.booleans()):
            phi = random_expansion(rng, dim1, dim2, cutoff1, cutoff2,
                                   draw(st.integers(0, cutoff1)),
                                   draw(st.integers(0, cutoff2)), role)
        else:
            rows = _rows(rng, dim1, dim2, cutoff1, cutoff2)
            phi = Expansion2(dim1, dim2, cutoff1, cutoff2, {
                (row[:dim1], row[dim1:]): complex(v) for row, v in
                zip(rows, rng.uniform(-1, 1, len(rows)))}, role=role)
        if draw(st.booleans()):
            phi.multiplicities
        out.append(phi)
    return out


def _rows(rng, dim1, dim2, cutoff1, cutoff2):
    """Up to eight distinct exponent rows within the cutoffs, as tuples."""
    rows = set()
    for _ in range(8):
        rows.add(tuple(
            int(x) for dim, cutoff in ((dim1, cutoff1), (dim2, cutoff2))
            if dim for x in rng.multinomial(rng.integers(0, cutoff + 1),
                                            [1 / dim] * dim)))
    return sorted(rows)


@settings(max_examples=120, deadline=None)
@given(seeded_operands(), st.sampled_from([0, 0.5, -2, 0.3 - 0.7j]))
def test_term_data_is_never_stale(ops, c):
    Phi, phi = ops
    for operand in ops:
        assert_term_data(operand, seeded=True)
    assert_term_data(sym_convolve_coeffs(Phi, Phi), seeded=True)
    assert_term_data(convolve_dist_test(Phi, phi))
    assert_term_data(Phi.add(Phi.scale(c)))
    assert_term_data(phi.scale(c))
    assert_term_data(phi.with_role(DISTRIBUTION))
    assert_term_data(_split_constant(Phi)[1])
    for part in gross_parts(phi):
        assert_term_data(part)
    assert_term_data(conv_exp(Phi.scale(0.25)))
    shape = (Phi.dim1, Phi.dim2, Phi.cutoff1, Phi.cutoff2)
    for built in (trace_distribution(*shape), vacuum(*shape),
                  delta0(*shape)):
        assert_term_data(built, seeded=True)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 3), st.integers(0, 2), st.integers(0, 6),
       st.integers(0, 2 ** 32 - 1))
def test_built_expansions_carry_their_term_data(dim, dim2, cutoff, seed):
    rng = np.random.default_rng(seed)
    xi = (rng.uniform(-1, 1, dim) * [0, 1, 1][:dim]).tolist()
    eta = rng.uniform(-1, 1, dim2).tolist()
    assert_term_data(exponential_vector(xi, eta, cutoff, cutoff),
                     seeded=True)
    f = random_expansion(rng, dim, 0, cutoff, 0, cutoff, 0, DISTRIBUTION)
    g = random_expansion(rng, dim2 + 1, 0, cutoff, 0, cutoff, 0,
                         DISTRIBUTION)
    assert_term_data(tensor_expansion(f, g), seeded=True)
    assert_term_data(multiplication_operator(f), seeded=True)
    assert_term_data(f.take(slice(1, None)))
    deg_b = int(rng.integers(0, cutoff + 1))
    A = random_tensor(rng, dim, int(rng.integers(0, deg_b + 1)))
    B = random_tensor(rng, dim, deg_b)
    assert_term_data(A, seeded=True)
    assert_term_data(contract_full(A, B), seeded=True)


def test_units_match_the_dict_built_ones():
    for shape in [(1, 0, 0, 0), (2, 1, 8, 3), (30, 0, 4, 0)]:
        zero = ((0,) * shape[0], (0,) * shape[1])
        for unit, role in ((vacuum, TEST), (delta0, DISTRIBUTION)):
            built = unit(*shape)
            want = Expansion2(*shape, {zero: 1 + 0j}, role=role)
            assert built.role == role
            assert built.codes.dtype == want.codes.dtype
            assert np.array_equal(built.codes, want.codes)
            assert built.values.tobytes() == want.values.tobytes()
            assert_term_data(built, seeded=True)
            with pytest.raises(ValueError):
                Expansion2(1, 1, 2, -1, {((0,), (0,)): 1 + 0j})
            with pytest.raises(ValueError):
                unit(1, 1, 2, -1)


def test_the_constructor_takes_all_term_data_or_none():
    phi = Expansion2(2, 1, 3, 2, {((1, 0), (1,)): 1j, ((0, 2), (0,)): 2.0})
    terms = phi.known_terms()
    assert len(terms) == 5
    for size in (2, 5):
        built = Expansion2(2, 1, 3, 2, terms[:size])
        assert ("term_data" in vars(built)) == (size == 5)
        assert_term_data(built)
    for size in (1, 3, 4):
        with pytest.raises(ValueError, match="terms are"):
            Expansion2(2, 1, 3, 2, terms[:size])


def test_trace_distribution_is_built_once_per_shape():
    T = trace_distribution(2, 1, 8, 8)
    assert trace_distribution(2, 1, 8, 8) is T
    assert trace_distribution(2, 1, 8, 6) is not T
    assert type(trace_distribution(np.int64(2), 1, 8, 8).dim1) is np.int64
    assert type(T.dim1) is int


def test_pairing_weights_are_exact_integers_rounded_once():
    rows = np.array([[28, 35, 0, 0], [1, 6, 2, 1], [20, 20, 3, 4],
                     [0, 0, 0, 0]])
    degrees, mult = multiplicities(rows, 2)
    want = [float(math.factorial(sum(r[:2])) * math.factorial(sum(r[2:]))
                  * multinomial_weight(r[:2]) * multinomial_weight(r[2:]))
            for r in map(tuple, rows.tolist())]
    assert pairing_weights(degrees, mult).tolist() == want
    assert want[0] != float(math.factorial(63)) * multinomial_weight((28, 35))


@pytest.mark.parametrize("degrees,mult,exact", [
    # The largest degrees' factorials times the largest mult: 2! 1! times
    # 2^62 - 3 is below 2^63, so every weight is computed in int64, and
    # 2^63 - 1, the largest int64, is too; 2! 1! 2^62 and 2^63 are past it.
    ([[0, 0], [1, 0], [2, 1]], [2 ** 61 + 1, 3 * 2 ** 58 + 5, 2 ** 62 - 3],
     True),
    ([[0, 0], [0, 0]], [2 ** 63 - 1, 2 ** 62 + 1], True),
    ([[0, 0], [1, 0], [2, 1]], [2 ** 61 + 1, 3 * 2 ** 58 + 5, 2 ** 62],
     False),
    ([[0, 0], [0, 0]], [2 ** 63, 2 ** 62 + 1], False),
])
def test_pairing_weights_in_int64_have_the_bytes_of_python_integers(
        degrees, mult, exact, monkeypatch):
    degrees = np.array(degrees)
    weights = [math.factorial(n) * math.factorial(m) * k
               for (n, m), k in zip(degrees.tolist(), mult)]
    want = np.array(weights, dtype=object).astype(float).tobytes()
    # Past 2^53, so rounding each weight to a float is not trivial.
    assert [int(w) for w in np.frombuffer(want).tolist()] != weights
    tables = []
    original = chaos._factorials

    def recorded(top, exact):
        tables.append(exact)
        return original(top, exact)

    monkeypatch.setattr(chaos, "_factorials", recorded)
    # `multiplicities` gives int64 or, past 2^63, Python integers.
    for dtype in (np.int64, object)[max(mult) >= 1 << 63:]:
        tables.clear()
        got = pairing_weights(degrees, np.array(mult, dtype=dtype))
        assert got.tobytes() == want
        assert tables == [exact]


# ---------------------------------------------------------------------------
# `multiplicities` reduces across the columns; the reduction along the rows
# it replaced is the reference.


def row_wise_multiplicities(exponents, dim1):
    """Degrees and multiplicities with each sum and product taken along the
    rows, one key at a time."""
    degrees = np.empty((len(exponents), 2), dtype=np.int64)
    np.add.reduce(exponents[:, :dim1], axis=1, out=degrees[:, 0])
    np.add.reduce(exponents[:, dim1:], axis=1, out=degrees[:, 1])
    top = np.maximum.reduce(degrees, axis=0, initial=0).tolist()
    exact = math.factorial(top[0]) * math.factorial(top[1]) < 1 << 63
    fact = chaos._factorials(max(top), exact)
    mult = fact[degrees[:, 0]] * fact[degrees[:, 1]]
    mult //= np.multiply.reduce(fact[exponents], axis=1)
    return degrees, mult


def assert_row_wise_multiplicities(rows, dim1):
    degrees, mult = multiplicities(rows, dim1)
    want_degrees, want_mult = row_wise_multiplicities(rows, dim1)
    # Callers index the (n, 2) degrees, so their layout is part of the
    # result.
    assert degrees.dtype == np.int64 and degrees.flags.c_contiguous
    assert degrees.shape == want_degrees.shape == (len(rows), 2)
    assert np.array_equal(degrees, want_degrees)
    assert mult.tolist() == want_mult.tolist()
    # Python integers once the factorials of the largest degrees multiply
    # past 2^63.
    top = [max(column, default=0) for column in zip(*degrees.tolist())]
    past = math.prod(map(math.factorial, top)) >= 1 << 63
    assert mult.dtype == want_mult.dtype == (object if past else np.int64)
    return past


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 4), st.integers(0, 3), st.integers(0, 10),
       st.integers(0, 24), st.data())
@example(dim1=2, dim2=0, keys=0, top=0, data=None)
@example(dim1=1, dim2=2, keys=0, top=5, data=None)
def test_multiplicities_match_the_row_wise_reduction(dim1, dim2, keys, top,
                                                     data):
    width = dim1 + dim2
    rows = np.array(data.draw(st.lists(
        st.lists(st.integers(0, top), min_size=width, max_size=width),
        min_size=keys, max_size=keys)) if keys else [],
        dtype=np.int64).reshape(keys, width)
    assert_row_wise_multiplicities(rows, dim1)


@pytest.mark.parametrize("rows,past", [
    # 20! 2! < 2^63 <= 20! 3!: the factorials of the largest degrees
    # decide, whether or not one key holds both.
    ([[9, 11, 2]], False),
    ([[9, 11, 0], [0, 0, 3]], True),
    ([[0, 21, 0]], True),
])
def test_multiplicities_turn_to_python_integers_past_2_to_63(rows, past):
    assert assert_row_wise_multiplicities(np.array(rows), 2) == past


@pytest.mark.parametrize("case", ["past_int64", "past_2_to_53"])
def test_multiplicities_of_extreme_keys_match_the_row_wise_reduction(case):
    pairs = {"past_int64": [_past_int64()],
             "past_2_to_53": _past_2_to_53()}[case]
    past = [assert_row_wise_multiplicities(phi.exponents, phi.dim1)
            for pair in pairs for phi in pair]
    # Codes past 2^63 hold small degrees; the degree-63 keys pass it, but
    # not in every expansion.
    assert any(past) == (case == "past_2_to_53") and not all(past)


# ---------------------------------------------------------------------------
# Blocks fold into the running sums exactly: any block size gives the same
# bits as one block.


def _past_int64():
    dim, cutoff = 30, 4
    e = [tuple(int(i == j) for i in range(dim)) for j in range(dim)]
    far = (0,) * (dim - 2) + (1, 2)
    f = Expansion2(dim, 0, cutoff, 0, {(e[0], ()): 1 + 1j, (far, ()): 2 + 0j,
                                       (e[-1], ()): -1j}, role=DISTRIBUTION)
    g = Expansion2(dim, 0, cutoff, 0, {(e[-1], ()): 3 + 0j, (far, ()): 1j},
                   role=DISTRIBUTION)
    return f, g


def _past_2_to_53():
    f = Expansion2(2, 0, 70, 0, {((28, 35), ()): 1 + 0j, ((2, 0), ()): 0.5j},
                   role=DISTRIBUTION)
    g = Expansion2(2, 0, 70, 0, {((1, 6), ()): 1 + 0j, ((0, 0), ()): 2j},
                   role=DISTRIBUTION)
    Phi = Expansion2(2, 1, 40, 0, {((15, 16), (0,)): 1 + 0j,
                                   ((1, 0), (0,)): -1 + 0j},
                     role=DISTRIBUTION)
    phi = Expansion2(2, 1, 40, 0, {((20, 20), (0,)): 1 + 0j,
                                   ((1, 1), (0,)): 0.5j})
    return [(f, g), (Phi, phi)]


def _signed_zeros():
    rng = np.random.default_rng(5)
    dense = random_expansion(rng, 2, 1, 5, 4, 5, 4, DISTRIBUTION)
    values = dense.values.copy()
    values[::3] = complex(-0.0, 0.5)
    values[1::3] = complex(0.25, -0.0)
    signed = Expansion2(2, 1, 5, 4, (dense.codes.copy(), values),
                        role=DISTRIBUTION)
    return signed, random_expansion(rng, 2, 1, 5, 4, 3, 2, DISTRIBUTION)


def _products(left, right):
    out = []
    for contract in (False, True):
        terms = pair_products(left, right, contract=contract)
        out.append((terms[0].tolist(), terms[1].tobytes()))
    return out


@pytest.mark.parametrize("case", ["past_int64", "past_2_to_53",
                                  "signed_zeros"])
@pytest.mark.parametrize("block", [1, 7, 250])
def test_block_size_does_not_change_a_bit(case, block, monkeypatch):
    pairs = {"past_int64": [_past_int64()], "past_2_to_53": _past_2_to_53(),
             "signed_zeros": [_signed_zeros()]}[case]
    for left, right in pairs:
        # At block size 1 every term of the left operand is a block.
        assert min(len(left.codes), len(right.codes)) > 1
        for a, b in ((left, right), (right, left)):
            want = _products(a, b)
            with monkeypatch.context() as m:
                m.setattr(chaos, "PAIR_BLOCK", block)
                assert _products(a, b) == want
    if case == "signed_zeros":
        # Several blocks really are folded.
        left, right = pairs[0]
        inner = max(len(left.codes), len(right.codes))
        assert min(len(left.codes), len(right.codes)) > max(1, block // inner)


def _all_terms(left, right):
    """Both products' terms: the values as bytes, so a zero that changed
    sign is caught, and every other array as a list."""
    return [[a.tobytes() if i == 1 else a.tolist() for i, a in
             enumerate(pair_products(left, right, contract=contract))]
            for contract in (False, True)]


# No range of codes, not even the empty one, is few cells for -1 cells per
# term; for 10^4 each range below is, but for the shape past int64, whose
# codes only the sort sums.
SORT_ONLY, BINS_ONLY = -1, 10 ** 4


@pytest.mark.parametrize("case", ["past_int64", "past_2_to_53",
                                  "signed_zeros"])
def test_bin_and_sort_sums_agree_bit_for_bit(case, monkeypatch):
    pairs = {"past_int64": [_past_int64()], "past_2_to_53": _past_2_to_53(),
             "signed_zeros": [_signed_zeros()]}[case]
    calls = count_calls(monkeypatch, ["sum_by_code", "_distinct"])
    got, sorts = {}, {}
    for cells in (SORT_ONLY, BINS_ONLY):
        monkeypatch.setattr(chaos, "BIN_CELLS_PER_TERM", cells)
        calls.update(dict.fromkeys(calls, 0))
        got[cells] = [_all_terms(a, b) for left, right in pairs
                      for a, b in ((left, right), (right, left))]
        sums = [a.add(b.with_role(a.role)) for left, right in pairs
                for a, b in ((left, right), (right, left))]
        got[cells] += [[s.codes.tolist(), s.values.tobytes()] for s in sums]
        sorts[cells] = calls["_distinct"]
        assert calls["sum_by_code"] > 0
    assert got[SORT_ONLY] == got[BINS_ONLY]
    assert sorts[SORT_ONLY] == calls["sum_by_code"]
    assert sorts[BINS_ONLY] == (calls["sum_by_code"]
                                if case == "past_int64" else 0)


def test_a_product_of_several_blocks_sums_in_bins(monkeypatch):
    left, right = _signed_zeros()
    calls = count_calls(monkeypatch, ["sum_by_code", "_distinct"])
    monkeypatch.setattr(chaos, "PAIR_BLOCK", 7)
    got = {}
    for cells in (SORT_ONLY, chaos.BIN_CELLS_PER_TERM):
        monkeypatch.setattr(chaos, "BIN_CELLS_PER_TERM", cells)
        calls.update(dict.fromkeys(calls, 0))
        got[cells] = _all_terms(left, right)
        # Each product folds more than once; with the measured constant
        # every fold of this shape (180 codes) takes the bins.
        assert calls["sum_by_code"] > 2
        assert calls["_distinct"] == (calls["sum_by_code"]
                                      if cells == SORT_ONLY else 0)
    assert got[SORT_ONLY] == got[chaos.BIN_CELLS_PER_TERM]


@pytest.mark.parametrize("case", ["past_int64", "past_2_to_53",
                                  "signed_zeros"])
def test_table_and_decoded_term_data_agree(case, monkeypatch):
    pairs = {"past_int64": [_past_int64()], "past_2_to_53": _past_2_to_53(),
             "signed_zeros": [_signed_zeros()]}[case]
    tables = []
    original = chaos.key_table

    def recorded(*args):
        tables.append(args)
        return original(*args)

    monkeypatch.setattr(chaos, "key_table", recorded)
    got = {}
    # No table is small at -1 rows per code; at 10^4 every table here is,
    # even the 46,376 keys past int64.
    for rows in (-1, 10 ** 4):
        monkeypatch.setattr(chaos, "TABLE_ROWS_PER_CODE", rows)
        tables.clear()
        got[rows] = [[a.tolist() for a in _decode(phi.codes, phi)]
                     for pair in pairs for phi in pair]
        assert len(tables) == (0 if rows < 0 else 2 * len(pairs))
    assert got[-1] == got[10 ** 4]


def test_a_large_shape_is_decoded_without_its_key_table(monkeypatch):
    # Dims (10, 10) at cutoffs (8, 8) have C(18, 10)^2 = 1,914,762,564
    # keys, counted exactly however many codes there are: from 838,761
    # codes on, 5 (codes + 100) passes the evaluation budget at which
    # `coefficient_count` stops.
    big, small = Expansion2(10, 10, 8, 8, {}), Expansion2(2, 2, 6, 6, {})
    for codes in (838_761, 10 ** 8, 382_952_412):
        assert not chaos._table_is_small(big, codes)
    assert chaos._table_is_small(big, 382_952_413)
    # 28^2 = 784 keys: small from 57 codes on.
    assert not chaos._table_is_small(small, 56)
    assert chaos._table_is_small(small, 57)

    # The count is not read from `coefficient_count`, which stops at the
    # evaluation budget: shrunk to 10 cells here, so that its saturated
    # count would be small for the few codes below.
    phi = random_expansion(np.random.default_rng(3), 10, 10, 8, 8, 2, 2)
    bare = Expansion2(10, 10, 8, 8, (phi.codes, phi.values))

    def refused(*args):
        raise AssertionError(f"key_table{args} built")

    monkeypatch.setattr(chaos, "MAX_EVALUATION_CELLS", 10)
    monkeypatch.setattr(chaos, "key_table", refused)
    assert len(bare.codes) > 2_000
    for got, want in zip(bare.term_data, phi.term_data):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


@pytest.mark.parametrize("contract", [False, True])
def test_folds_are_paid_for_by_their_pairs(contract, monkeypatch):
    # Each fold but the last takes in at least PAIR_BLOCK landing pairs, so
    # a left-heavy product folds fewer times than it has blocks (38 here,
    # each of 33 left terms against the 123 right ones).
    rng = np.random.default_rng(0)
    left = random_expansion(rng, 2, 2, 8, 8, 8, 8, DISTRIBUTION)
    right = left.take(slice(None, None, 10))
    if contract:
        lands = left.exponents[:, None] <= right.exponents[None]
    else:
        lands = (left.multiplicities[0][:, None]
                 + right.multiplicities[0][None]) <= (8, 8)
    landing = int(lands.all(axis=2).sum())
    # Each fold is one `sum_by_code` of the running sums, then the pairs it
    # takes in.
    folds, sums = [], [0]
    original = chaos.sum_by_code

    def counted(codes, values):
        folds.append(len(codes) - sums[-1])
        out = original(codes, values)
        sums.append(len(out[0]))
        return out

    monkeypatch.setattr(chaos, "sum_by_code", counted)
    pair_products(left, right, contract=contract)
    blocks = math.ceil(len(left.codes)
                       / max(1, chaos.PAIR_BLOCK // len(right.codes)))
    assert sum(folds) == landing
    assert 1 < len(folds) <= landing // chaos.PAIR_BLOCK + 1 < blocks


# ---------------------------------------------------------------------------
# Work counts.  The suites at the parent of this change made, over all ten,
# 3,085 `_decode` and 2,687 `multiplicities` calls; the two below made 300
# and 300 (trace convolution) and 679 and 679 (evolution residual).  The
# bounds are the counts after it, from a fresh process (cached shapes only
# lower them).

WORK_BOUNDS = {
    "trace-convolution-equals-gross": {"_decode": 0, "multiplicities": 182},
    "evolution-symbol-residual": {"_decode": 368, "multiplicities": 379},
}
MODULES = (grosslap, chaos, evolution, gross, quantum_op, tensor_core, verify)


def count_calls(monkeypatch, names):
    """Counts of the calls to these `chaos` functions from every module,
    by name, as they happen."""
    counts = dict.fromkeys(names, 0)
    for name in counts:
        original = getattr(chaos, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        for module in MODULES:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


@pytest.mark.parametrize("suite", sorted(WORK_BOUNDS))
def test_suites_decode_no_more_than_measured(suite, monkeypatch):
    counts = count_calls(monkeypatch, WORK_BOUNDS[suite])
    assert verify.ALL_CHECKS[suite](42).passed
    for name, bound in WORK_BOUNDS[suite].items():
        assert counts[name] <= bound, (name, counts[name])


# One pass of every suite at seed 42 made 1,367 `multiplicities` calls
# while each drawn expansion and each symmetrized product weighed its own
# terms; drawing from per-shape key tables, and reading a product's terms
# from its shape's table when its box is small, leaves 385, from a fresh
# process.
PASS_MULTIPLICITIES = 385


def test_a_pass_of_the_suites_weighs_no_more_terms_than_measured(
        monkeypatch):
    counts = count_calls(monkeypatch, ["multiplicities"])
    for check in verify.ALL_CHECKS.values():
        assert check(42).passed
    assert 0 < counts["multiplicities"] <= PASS_MULTIPLICITIES
