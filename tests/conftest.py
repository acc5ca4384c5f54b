import numpy as np
import pytest

# One generator serves the suites and the tests, so a seed means the same
# data in both.
from grosslap.verify import (  # noqa: F401
    _random_expansion as random_expansion,
    _random_sym_tensor as random_tensor,
    _rng_complex as rng_complex,
)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
