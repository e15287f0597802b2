"""Information capacity of observables via reduction to a classical channel.

Feeding an observable with a fixed ensemble of states turns it into a
classical channel whose capacity :func:`kernels.blahut_arimoto` certifies;
the outer search over ensembles (restarts plus coordinate ascent on the
states) yields a certified lower bound together with the witnessing
ensemble.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .channels import DiscreteObservable
from .decoherence import StochasticMap
from .errors import DimMismatch
from .numlin import asmatrix, dagger
from .rand import generator, random_pure_state

_LOG_FLOOR = 1e-30
# outer rounds (alternating maximization, then state ascent) per start
_MAX_ROUNDS = 60


@dataclass(frozen=True)
class Ensemble:
    """Prior probabilities over a finite family of states."""

    priors: np.ndarray
    states: tuple[np.ndarray, ...]

    @staticmethod
    def from_states(priors, states) -> "Ensemble":
        priors = np.ascontiguousarray(priors, dtype=np.float64)
        states = tuple(asmatrix(s) for s in states)
        if priors.ndim != 1 or priors.size != len(states):
            raise DimMismatch("one prior per state required")
        if abs(priors.sum() - 1.0) > 1e-9 or priors.min() < -1e-12:
            raise ValueError("priors must form a probability vector")
        return Ensemble(priors=priors, states=states)

    @property
    def size(self) -> int:
        return len(self.states)


@dataclass(frozen=True)
class CapacityEstimate:
    bits: float
    ensemble: Ensemble


def shannon_capacity(p: StochasticMap, tol: float = 1e-12, max_iter: int = 10000) -> float:
    """Capacity in bits of a classical channel (column-stochastic matrix).

    Returns the certified lower bound of :func:`kernels.blahut_arimoto`:
    the capacity lies within ``tol`` bits above it unless ``max_iter``
    iterations ran out first.
    """
    pyx = np.ascontiguousarray(p.entries.T)  # rows become inputs
    lower, _, _, _ = kernels.blahut_arimoto(pyx, tol=tol, max_iter=max_iter)
    return float(lower)


def holevo_quantity(x: DiscreteObservable, e: Ensemble) -> float:
    """S(X(avg)) - sum_i mu_i S(X(rho_i)) in bits, for the output distributions:
    the mutual information of the classical channel the ensemble induces."""
    if e.states and e.states[0].shape != (x.dim, x.dim):
        raise DimMismatch(f"state dim {e.states[0].shape} != observable dim {x.dim}")
    return _mutual_information(_conditional_matrix(x, e.states), e.priors)


def _conditional_matrix(x: DiscreteObservable, states) -> np.ndarray:
    """Rows tr(rho_i X_j) of every state at once, clipped at 0."""
    probs = np.einsum("iab,jba->ij", np.asarray(states), x.effects).real
    return np.clip(probs, 0.0, None)


def _mutual_information(pyx: np.ndarray, priors: np.ndarray) -> float:
    qy = priors @ pyx
    safe = (pyx > 0) & (qy[None, :] > 0)
    ratio = np.divide(pyx, qy[None, :], out=np.ones_like(pyx), where=safe)
    terms = np.where(safe, pyx * np.log2(ratio), 0.0)
    return float(priors @ terms.sum(axis=1))


def _ascend_states(
    x: DiscreteObservable, states: list[np.ndarray], pyx: np.ndarray, priors: np.ndarray, rounds: int
) -> list[np.ndarray]:
    """Coordinate ascent: push each state toward the maximizer of its
    relative-entropy score against the mixture output, which stays frozen
    within a round; a state moves only if its score improves.  ``pyx`` is
    ``_conditional_matrix(x, states)``."""
    states = np.asarray(states)
    for k in range(rounds):
        if k:
            pyx = _conditional_matrix(x, states)
        qy = np.clip(priors @ pyx, _LOG_FLOOR, None)
        score = np.log2(np.clip(pyx, _LOG_FLOOR, None) / qy)
        g = np.einsum("ij,jab->iab", score, x.effects)
        _, u = np.linalg.eigh((g + g.conj().transpose(0, 2, 1)) / 2)
        psi = u[:, :, -1]
        candidates = psi[:, :, None] * psi.conj()[:, None, :]
        p_new = _conditional_matrix(x, candidates)
        old = np.sum(pyx * score, axis=1)
        new = np.sum(p_new * np.log2(np.clip(p_new, _LOG_FLOOR, None) / qy), axis=1)
        improved = new > old + 1e-15
        if not improved.any():
            break
        states = np.where(improved[:, None, None], candidates, states)
    return list(states)


def observable_capacity(
    x: DiscreteObservable,
    restarts: int = 8,
    tol: float = 1e-9,
    seed: int = 0,
    warm_ensembles: tuple[Ensemble, ...] = (),
    max_states: int | None = None,
) -> CapacityEstimate:
    """Lower-bound estimate of the capacity of an observable.

    Alternates prior optimization (the certified capacity of the induced
    classical channel) with coordinate ascent on up to dim^2 pure states,
    over several seeded restarts; returns the best value with its witness
    ensemble.  For a sharp observable the eigenstate warm start already
    attains log2(#outcomes).  ``max_states`` caps the ensemble size of the
    search (for comparisons against fixed-size oracles).
    """
    d = x.dim
    cap = d * d if max_states is None else max(2, min(max_states, d * d))
    rng = generator(seed)
    starts: list[list[np.ndarray]] = []
    _, u = np.linalg.eigh((x.effects + dagger(x.effects)) / 2)
    top_states = [np.outer(v, v.conj()) for v in u[:, :, -1]]
    # a state nulling one outcome is maximally distinguishable there
    bottom_states = [np.outer(v, v.conj()) for v in u[:, :, 0]]
    starts.append(top_states[:cap])
    starts.append(bottom_states[:cap])
    starts.append((top_states + bottom_states)[:cap])
    for top, bottom in zip(top_states, bottom_states):
        starts.append([top, bottom][:cap])
    for _ in range(max(0, restarts - 1)):
        k = int(rng.integers(2, cap + 1))
        starts.append(
            [np.outer(v, v.conj()) for v in (random_pure_state(rng, d) for _ in range(k))]
        )
    # BA starts uniform, or from a warm ensemble's priors
    first_priors: list[np.ndarray | None] = [None] * len(starts)
    for ens in warm_ensembles:
        starts.append([np.array(s) for s in ens.states][:cap])
        first_priors.append(ens.priors[:cap])

    best_bits = 0.0
    best: Ensemble | None = None
    for states, priors in zip(starts, first_priors):
        # each later round warm-starts BA from the previous round's priors
        value = 0.0
        pyx = _conditional_matrix(x, states)
        for _ in range(_MAX_ROUNDS):
            _, priors, _, _ = kernels.blahut_arimoto(pyx, tol=tol / 10, max_iter=2000, prior=priors)
            states = _ascend_states(x, states, pyx, priors, rounds=2)
            # the round's value and the next round's channel share this matrix
            pyx = _conditional_matrix(x, states)
            new_value = _mutual_information(pyx, priors)
            if new_value - value < tol:
                value = max(value, new_value)
                break
            value = new_value
        if value > best_bits or best is None:
            best_bits = value
            best = Ensemble.from_states(priors, states)
    assert best is not None
    return CapacityEstimate(bits=float(best_bits), ensemble=best)
