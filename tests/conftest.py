import numpy as np
import pytest


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def wave(rng):
    """A short noise clip for the embedding client's audio route."""
    return rng.uniform(-0.5, 0.5, 1600)
