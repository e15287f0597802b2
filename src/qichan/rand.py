"""Seeded random constructions for tests and sampling routines.

Randomness is always drawn from an explicit numpy Generator; nothing here
touches global state.
"""

from __future__ import annotations

import numpy as np

from .channels import Channel, DiscreteObservable


def generator(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    return rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))


def random_unitary(rng: np.random.Generator, d: int) -> np.ndarray:
    """Haar-distributed unitary via phase-fixed QR of a Ginibre matrix."""
    q, r = np.linalg.qr(ginibre(rng, d, d))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_pure_state(rng: np.random.Generator, d: int) -> np.ndarray:
    v = ginibre(rng, d, 1)[:, 0]
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, d: int, rank: int | None = None) -> np.ndarray:
    rank = d if rank is None else rank
    g = ginibre(rng, d, rank)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_hermitian(rng: np.random.Generator, d: int) -> np.ndarray:
    g = ginibre(rng, d, d)
    return (g + g.conj().T) / 2


def random_effect(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random operator with spectrum in [0, 1]."""
    h = random_hermitian(rng, d)
    w, u = np.linalg.eigh(h)
    lo, hi = w[0], w[-1]
    w = (w - lo) / (hi - lo) if hi > lo else np.full_like(w, 0.5)
    w *= rng.uniform(0.2, 1.0)
    return (u * w) @ u.conj().T


def random_isometry(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    if cols > rows:
        raise ValueError("isometry needs rows >= cols")
    q, r = np.linalg.qr(ginibre(rng, rows, cols))
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q[:, :cols] * phases


def random_channel(
    rng: np.random.Generator, dim_in: int, dim_out: int, n_elements: int
) -> Channel:
    """Random channel from a Haar-like Stinespring isometry with n_elements
    environment levels (raised to the minimum that trace preservation allows)."""
    n_elements = max(n_elements, -(-dim_in // dim_out))
    v = random_isometry(rng, dim_out * n_elements, dim_in)
    blocks = v.reshape(dim_out, n_elements, dim_in)
    return Channel.from_elements(blocks.transpose(1, 0, 2))


def random_povm(rng: np.random.Generator, d: int, n_outcomes: int) -> DiscreteObservable:
    """Random observable from a dilated random isometry: X_i = M_i^dag M_i."""
    w = random_isometry(rng, n_outcomes * d, d)
    blocks = w.reshape(n_outcomes, d, d)
    return DiscreteObservable.from_effects(blocks.conj().swapaxes(1, 2) @ blocks)


def random_sharp_observable(rng: np.random.Generator, d: int, n_outcomes: int) -> DiscreteObservable:
    """Random PVM: eigenspaces of a Haar-rotated diagonal with n_outcomes cells."""
    if n_outcomes > d:
        raise ValueError("at most d outcomes for a sharp observable")
    u = random_unitary(rng, d)
    # split d levels into n non-empty groups
    cuts = np.sort(rng.choice(np.arange(1, d), size=n_outcomes - 1, replace=False)) if n_outcomes > 1 else np.array([], dtype=int)
    bounds = np.concatenate([[0], cuts, [d]])
    effects = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        cols = u[:, int(a) : int(b)]
        effects.append(cols @ cols.conj().T)
    return DiscreteObservable.from_effects(effects)


def random_stochastic(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Column-stochastic nonnegative matrix."""
    m = rng.random((rows, cols)) + 1e-3
    return m / m.sum(axis=0, keepdims=True)
