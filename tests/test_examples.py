"""Integration suite: every catalogue example passes its reference analysis."""

import numpy as np
import pytest

from qichan import catalog
from qichan.errors import UnknownExample

ALL_EXAMPLES = [
    "dephasing",
    "blocks",
    "bitflip3",
    "teleport",
    "teleport-lossy",
    "classical-stochastic",
    "diamonds-2",
    "diamonds-3",
    "diamonds-4",
    "diamonds-5",
    "diamonds-inf",
    "sic-cloner",
    "antisym",
    "sweep",
    "iterated",
]


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_example_passes_reference_analysis(name):
    result = catalog.analyze_example(name)
    assert result["passes"], {k: v for k, v in result.items() if not isinstance(v, list)}


@pytest.mark.parametrize("name", ALL_EXAMPLES)
def test_bundles_are_valid_and_deterministic(name):
    from qichan.channels import choi_of, validate_channel

    b1 = catalog.example_catalog(name, seed=0)
    b2 = catalog.example_catalog(name, seed=0)
    for label, chan in b1.channels.items():
        rep = validate_channel(chan)
        assert rep.trace_preserving, (name, label)
        assert np.array_equal(choi_of(chan), choi_of(b2.channels[label]))


def test_sic_cloner_decided_exactly():
    # the alpha = 1/3 cloner prepares states sigma_i = E(D_i) on the edge of the PSD cone
    result = catalog.analyze_example("sic-cloner")
    assert result["method"] == "exact" and "samples" not in result
    assert result["range_residual"] == 0.0 and abs(result["min_sigma_eigenvalue"]) <= 1e-12


@pytest.mark.parametrize("n", [3, 5, 64])
def test_planar_qubit_state_has_the_bloch_components(n):
    for a in [*(2 * np.pi * np.arange(1, n + 1) / n), -1.0, 7.0]:
        psi = catalog.planar_qubit_state(a)
        bloch = [np.vdot(psi, s @ psi) for s in (catalog.PAULI_X, catalog.PAULI_Y, catalog.PAULI_Z)]
        assert abs(np.linalg.norm(psi) - 1) < 1e-15
        assert np.abs(np.array(bloch) - [np.cos(a), 0, np.sin(a)]).max() < 1e-15


def test_catalog_names_are_the_runnable_examples():
    assert set(ALL_EXAMPLES) == set(catalog.EXAMPLE_NAMES)


def test_unknown_example_rejected():
    with pytest.raises(UnknownExample):
        catalog.example_catalog("does-not-exist")
    with pytest.raises(UnknownExample):
        catalog.example_catalog("diamonds-9")
    with pytest.raises(UnknownExample):
        catalog.analyze_example("diamonds-n")


def test_teleport_lossy_symmetry_note():
    # merging the other symbol pair {1, 2} forces the same diagonal algebra
    from qichan.correction import preserved_algebra

    c12 = catalog.lossy_teleport_channel((1, 2))
    st = preserved_algebra(c12)
    assert st.block_dims == ((1, 1), (1, 1))
