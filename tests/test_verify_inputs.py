"""The suites' seeded inputs, drawn in blocks, against the key-by-key loops
they replaced: the same terms, bit for bit, and the generator left in the
same state."""

import numpy as np
import pytest

from grosslap.chaos import DISTRIBUTION, TEST, Expansion2
from grosslap.tensor_core import iter_occupations
from grosslap.verify import _random_expansion, _random_sym_tensor

# ---------------------------------------------------------------------------
# Reference: the scalar-draw loops.


def loop_complex(rng):
    return complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


def loop_sym_tensor(rng, dim, degree):
    entries = {}
    for alpha in iter_occupations(dim, degree):
        if rng.uniform() < 0.8:
            entries[(alpha, ())] = loop_complex(rng)
    if not entries:
        entries[(next(iter_occupations(dim, degree)), ())] = loop_complex(rng)
    return Expansion2(dim, 0, degree, 0, entries)


def loop_expansion(rng, dim1, dim2, cutoff1, cutoff2, max_deg1, max_deg2,
                   role=TEST, scale=1.0):
    betas = [beta for m in range(min(max_deg2, cutoff2) + 1)
             for beta in iter_occupations(dim2, m)]
    coeffs = {}
    for n in range(min(max_deg1, cutoff1) + 1):
        for alpha in iter_occupations(dim1, n):
            for beta in betas:
                if rng.uniform() < 0.6:
                    coeffs[(alpha, beta)] = scale * loop_complex(rng)
    if not coeffs:
        coeffs[((0,) * dim1, (0,) * dim2)] = scale * loop_complex(rng)
    return Expansion2(dim1, dim2, cutoff1, cutoff2, coeffs, role=role)


def assert_same_draws(seed, oracle, block, *args):
    """Both functions give equal terms and leave equal generators."""
    rng_loop = np.random.default_rng(seed)
    rng_block = np.random.default_rng(seed)
    want, got = oracle(rng_loop, *args), block(rng_block, *args)
    assert np.array_equal(got.codes, want.codes)
    # Bytes, so a zero that changed sign is caught.
    assert got.values.tobytes() == want.values.tobytes()
    assert got.role == want.role
    assert ((got.dim1, got.dim2, got.cutoff1, got.cutoff2)
            == (want.dim1, want.dim2, want.cutoff1, want.cutoff2))
    assert rng_block.random() == rng_loop.random()


@pytest.mark.parametrize("dim1", [1, 2, 3])
@pytest.mark.parametrize("dim2", [0, 1, 2, 3])
def test_random_expansion_matches_loop(dim1, dim2):
    seed = 100 * dim1 + 10 * dim2
    for cutoff in range(9):
        cutoff2 = cutoff if dim2 else 0
        for max_deg in range(cutoff + 1):
            for scale in (1.0, 0.2):
                for role in (TEST, DISTRIBUTION):
                    seed += 1
                    assert_same_draws(seed, loop_expansion, _random_expansion,
                                      dim1, dim2, cutoff, cutoff2, max_deg,
                                      cutoff - max_deg, role, scale)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_sym_tensor_matches_loop(dim):
    for degree in range(9):
        for seed in range(4):
            assert_same_draws(seed, loop_sym_tensor, _random_sym_tensor,
                              dim, degree)


def test_all_dropped_fallback_matches_loop():
    # Seed 7 drops all three keys of degree <= 2 over C^1 (keep draws of
    # 0.6 or more), so the zero key takes the next two draws; seed 4 drops
    # the one key of a degree-4 tensor over C^1 (0.8 or more).
    assert (np.random.default_rng(7).random(3) >= 0.6).all()
    assert_same_draws(7, loop_expansion, _random_expansion,
                      1, 0, 2, 0, 2, 0, DISTRIBUTION, 0.2)
    assert np.random.default_rng(4).random() >= 0.8
    assert_same_draws(4, loop_sym_tensor, _random_sym_tensor, 1, 4)


class CountingGenerator:
    """A Generator whose method calls are counted."""

    def __init__(self, rng):
        self._rng = rng
        self.calls = 0

    def __getattr__(self, name):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            self.calls += 1
            return attr(*args, **kwargs)
        return counted


def test_draw_calls_do_not_grow_with_keys():
    # dims (3, 3) at cutoff 8: 165 x 165 = 27,225 keys, drawn in a few
    # calls and equal to the key-by-key loop's terms.
    shape = (3, 3, 8, 8, 8, 8, DISTRIBUTION)
    counting = CountingGenerator(np.random.default_rng(5))
    got = _random_expansion(counting, *shape)
    assert counting.calls <= 3
    want = loop_expansion(np.random.default_rng(5), *shape)
    assert np.array_equal(got.codes, want.codes)
    assert got.values.tobytes() == want.values.tobytes()

    counting = CountingGenerator(np.random.default_rng(5))
    _random_sym_tensor(counting, 3, 8)
    assert counting.calls <= 3
