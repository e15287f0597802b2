"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qichan.rand import ginibre


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Seeded full-rank state g g^dag / tr(g g^dag), g a d x d Ginibre matrix."""
    g = ginibre(rng, d, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def random_density():
    return _random_density
