"""Fixtures shared by the test modules."""

import numpy as np
import pytest

from qichan.channels import Channel
from qichan.rand import generator, ginibre, random_channel, random_unitary


def _random_density(rng: np.random.Generator, d: int) -> np.ndarray:
    """Seeded full-rank state g g^dag / tr(g g^dag), g a d x d Ginibre matrix."""
    g = ginibre(rng, d, d)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


@pytest.fixture
def random_density():
    return _random_density


def _rotated_amplitude_damping(eps: float, seed: int) -> Channel:
    """Qubit amplitude damping with decay 1 - eps, rotated at the output by
    the seeded unitary U: elements U diag(1, sqrt eps) and U sqrt(1 - eps)
    |0><1|.  E(1) = U diag(2 - eps, eps) U^dag is conditioned like 2 / eps."""
    u = random_unitary(generator(seed), 2)
    decay = np.zeros((2, 2), dtype=complex)
    decay[0, 1] = np.sqrt(1 - eps)
    return Channel.from_elements([u @ np.diag([1, np.sqrt(eps)]), u @ decay])


@pytest.fixture
def rotated_amplitude_damping():
    return _rotated_amplitude_damping


@pytest.fixture(scope="session")
def seeded_channels() -> list[Channel]:
    """200 seeded random channels: seed s draws d_in, d_out in [2, 8] and
    k in [1, 4] from generator(s), then the channel from the same stream."""
    chans = []
    for s in range(200):
        rng = generator(s)
        d_in, d_out, k = (int(rng.integers(lo, hi)) for lo, hi in ((2, 9), (2, 9), (1, 5)))
        chans.append(random_channel(rng, d_in, d_out, k))
    return chans
