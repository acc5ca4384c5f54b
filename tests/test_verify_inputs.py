"""The suites' seeded inputs: terms in code order, drawn in two generator
calls whatever the number of keys, and evaluation points, one generator
call per sample's points."""

import numpy as np
import pytest

from grosslap.chaos import DISTRIBUTION, TEST
from grosslap.verify import (
    _random_expansion,
    _random_points,
    _random_sym_tensor,
    _rng_complex as rng_complex,
)


def assert_draw_rules(draw, seed, *args):
    """Sorted unique codes, at least one term, values in the unit box, and
    the same bytes again from the same seed.  Returns the drawn terms."""
    phi = draw(np.random.default_rng(seed), *args)
    again = draw(np.random.default_rng(seed), *args)
    assert len(phi.codes) >= 1
    assert (np.diff(phi.codes) > 0).all()
    assert np.abs(phi.values.real).max() <= 1
    assert np.abs(phi.values.imag).max() <= 1
    assert np.array_equal(again.codes, phi.codes)
    # Bytes, so a zero that changed sign is caught.
    assert again.values.tobytes() == phi.values.tobytes()
    return phi


@pytest.mark.parametrize("dim1", [1, 2, 3])
@pytest.mark.parametrize("dim2", [0, 1, 2, 3])
def test_random_expansion_draw_rules(dim1, dim2):
    seed = 100 * dim1 + 10 * dim2
    for cutoff in range(9):
        cutoff2 = cutoff if dim2 else 0
        for max_deg in range(cutoff + 1):
            seed += 1
            phi = assert_draw_rules(_random_expansion, seed, dim1, dim2,
                                    cutoff, cutoff2, max_deg, cutoff - max_deg,
                                    DISTRIBUTION)
            assert ((phi.dim1, phi.dim2, phi.cutoff1, phi.cutoff2, phi.role)
                    == (dim1, dim2, cutoff, cutoff2, DISTRIBUTION))
            rows = phi.exponents
            assert (rows[:, :dim1].sum(axis=1) <= max_deg).all()
            assert (rows[:, dim1:].sum(axis=1) <= cutoff - max_deg).all()


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_random_sym_tensor_draw_rules(dim):
    for degree in range(9):
        for seed in range(4):
            A = assert_draw_rules(_random_sym_tensor, seed, dim, degree)
            assert ((A.dim1, A.dim2, A.cutoff1, A.cutoff2, A.role)
                    == (dim, 0, degree, 0, TEST))
            assert (A.exponents.sum(axis=1) == degree).all()


def test_nothing_kept_falls_back_to_the_first_row():
    # Seed 7 drops all three keys of degree <= 2 over C^1 (keep draws of
    # 0.6 or more), so the zero key takes the next two draws, scaled; seed
    # 4 drops the one key of a degree-4 tensor over C^1 (0.8 or more).
    rng = np.random.default_rng(7)
    assert (rng.random(3) >= 0.6).all()
    want = 0.2 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    phi = _random_expansion(np.random.default_rng(7), 1, 0, 2, 0, 2, 0,
                            DISTRIBUTION, 0.2)
    assert phi.codes.tolist() == [0]
    assert phi.values.tolist() == [want]

    rng = np.random.default_rng(4)
    assert rng.random() >= 0.8
    want = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
    A = _random_sym_tensor(np.random.default_rng(4), 1, 4)
    assert A.exponents.tolist() == [[4]]
    assert A.values.tolist() == [want]


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
    # dims (3, 3) at cutoff 8: 165 x 165 = 27,225 keys, each kept with
    # probability 0.6, drawn in two calls: the keep draws, then the kept
    # terms' real parts and imaginary parts in one.
    counting = CountingGenerator(np.random.default_rng(5))
    got = _random_expansion(counting, 3, 3, 8, 8, 8, 8, DISTRIBUTION)
    assert counting.calls == 2
    assert abs(len(got.codes) / 165 ** 2 - 0.6) < 0.02

    counting = CountingGenerator(np.random.default_rng(5))
    _random_sym_tensor(counting, 3, 8)
    assert counting.calls == 2


def per_point_draws(rng, points, d1, d2):
    """The points as the suites drew them one at a time: per point
    `_rng_complex(rng, d1) / 2`, then `_rng_complex(rng, d2) / 2` unless
    d2 = 0, as coordinate rows."""
    rows = []
    for _ in range(points):
        xi = (rng_complex(rng, d1) / 2).tolist()
        eta = (rng_complex(rng, d2) / 2).tolist() if d2 else []
        rows.append(xi + eta)
    return np.array(rows, dtype=complex).reshape(points, d1 + d2)


@pytest.mark.parametrize("d1,d2", [(1, 0), (2, 0), (1, 1), (2, 2), (1, 2)])
def test_points_are_one_draw_in_per_point_order(d1, d2):
    for seed in range(5):
        counting = CountingGenerator(np.random.default_rng(seed))
        got = _random_points(counting, 20, d1, d2)
        assert counting.calls == 1
        want = per_point_draws(np.random.default_rng(seed), 20, d1, d2)
        assert got.shape == want.shape
        # Bytes, so a zero that changed sign is caught.
        assert got.tobytes() == want.tobytes()
        # Both leave the stream at the same place.
        assert (counting.random() == np.random.default_rng(seed).random(
            1 + 40 * (d1 + d2))[-1])
