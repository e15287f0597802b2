"""Information capacity of observables via reduction to a classical channel.

Feeding an observable with a fixed ensemble of states turns it into a
classical channel whose capacity :func:`kernels.blahut_arimoto` certifies;
the outer search over ensembles (restarts plus coordinate ascent on the
states) yields a certified lower bound together with the witnessing
ensemble.

An observable whose effects commute skips the search: it carries exactly
the information of its joint-eigenvalue channel (Holevo 2012; Dall'Arno,
D'Ariano and Sacchi 2011), so its capacity is that channel's Shannon
capacity, certified to within ``_GAIN_BITS`` by BA's bracket and attained
by the joint eigenstates.

The search advances all its starts in lockstep.  The starts form one
stack of states (S, K, d, d), K the largest start size, whose padding
rows are zero states with prior 0, and their induced channels one stack
(S, K, m).  Each round is one stacked BA call, one stacked state ascent
(one einsum, one stacked ``eigh`` over the real rows) and one batched
mutual information; a start leaves the stack when its own round gains
less than ``_GAIN_BITS``.  The other starts reach a start's iterates only
through the stack's padded shape, which sets the shapes its products and
SVDs run on: with the same shape it gets the same answer bit for bit,
and run by itself the same answer up to rounding.  The witness ensemble
is copied out of the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .channels import DiscreteObservable, _frozen_stack
from .decoherence import StochasticMap
from .errors import DimMismatch, NotPSD
from .numlin import DEFAULT_TOL, Tolerance, dagger, max_commutator_norm, norm_cut, op_norm
from .rand import generator, random_pure_state

_LOG_FLOOR = 1e-30
# effects whose commutators, and whose off-diagonal parts in the joint
# eigenbasis, stay below this times max ||X_j||^2 are taken as commuting;
# the basis carries rounding of about eps ||A|| / gap, A the combination,
# seen at 1e-11 where two of its eigenvalues lie 1e-4 apart
_COMMUTING_REL = 1e-10
# outer rounds (alternating maximization, then state ascent) per start
_MAX_ROUNDS = 60
# bits a search round must gain for its start to go on (its BA calls close
# their gap to a tenth of it), and BA's gap on the exact commuting route
_GAIN_BITS = 1e-9


@dataclass(frozen=True)
class Ensemble:
    """Prior probabilities over a finite family of states."""

    priors: np.ndarray  # (k,), read-only
    states: np.ndarray  # (k, d, d), read-only

    @staticmethod
    def from_states(priors, states) -> "Ensemble":
        """Both arrays are copied, read-only, so the caller's cannot change them."""
        priors = np.array(priors, dtype=np.float64)
        priors.setflags(write=False)
        states = _frozen_stack(states, "state")
        if priors.ndim != 1 or priors.size != len(states):
            raise DimMismatch("one prior per state required")
        if states.shape[1] != states.shape[2]:
            raise DimMismatch(f"states must be square, got {states.shape[1:]}")
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


def shannon_capacity(p: StochasticMap, tol: float = 1e-12) -> float:
    """Capacity in bits of a classical channel (column-stochastic matrix).

    Returns the certified lower bound of :func:`kernels.blahut_arimoto`:
    the capacity lies within ``tol`` bits above it unless the kernel's
    iteration cap ran out first.
    """
    pyx = np.ascontiguousarray(p.entries.T)  # rows become inputs
    lower, _, _, _ = kernels.blahut_arimoto(pyx, tol=tol)
    return float(lower)


def _conditional_matrix(x: DiscreteObservable, states) -> np.ndarray:
    """Rows tr(rho X_j) of every state at once, clipped at 0; states may be
    a stack of ensembles (S, K, d, d), giving (S, K, n_outcomes)."""
    states = np.asarray(states)
    d = x.dim
    # tr(rho X) is the dot product of rho and X^T flattened
    probs = (states.reshape(-1, d * d) @ x.effects.transpose(0, 2, 1).reshape(-1, d * d).T).real
    return np.clip(probs.reshape(*states.shape[:-2], -1), 0.0, None)


def _mutual_information(pyx: np.ndarray, priors: np.ndarray) -> np.ndarray:
    """I(X;Y) in bits of the channel ``pyx`` (..., K, m) at ``priors`` (..., K)."""
    qy = (priors[..., None, :] @ pyx)[..., None, 0, :]
    safe = (pyx > 0) & (qy > 0)
    ratio = np.divide(pyx, qy, out=np.ones_like(pyx), where=safe)
    terms = np.where(safe, pyx * np.log2(ratio), 0.0)
    return (priors * terms.sum(axis=-1)).sum(axis=-1)


def _ascend_states(
    x: DiscreteObservable, states: np.ndarray, pyx: np.ndarray, priors: np.ndarray, rounds: int
) -> np.ndarray:
    """Coordinate ascent on a stack of ensembles: push each state toward
    the maximizer of its relative-entropy score against its ensemble's
    mixture output, which stays frozen within a round; a state moves only
    if its score improves.  ``states`` (S, K, d, d) with ``pyx =
    _conditional_matrix(x, states)`` and ``priors`` (S, K); padding rows
    (zero states, prior 0) are left out."""
    start, row = np.nonzero(pyx.any(axis=-1))
    for k in range(rounds):
        if k:
            pyx = _conditional_matrix(x, states)
        qy = np.clip((priors[:, None, :] @ pyx)[:, 0, :], _LOG_FLOOR, None)[start]
        p_old = pyx[start, row]
        score = np.log2(np.clip(p_old, _LOG_FLOOR, None) / qy)
        g = np.einsum("ij,jab->iab", score, x.effects)
        _, u = np.linalg.eigh((g + dagger(g)) / 2)
        psi = u[..., -1]
        candidates = psi[:, :, None] * psi.conj()[:, None, :]
        p_new = _conditional_matrix(x, candidates)
        old = np.sum(p_old * score, axis=-1)
        new = np.sum(p_new * np.log2(np.clip(p_new, _LOG_FLOOR, None) / qy), axis=-1)
        improved = new > old + 1e-15
        if not improved.any():
            break
        states = states.copy()
        states[start[improved], row[improved]] = candidates[improved]
    return states


def _projectors(vectors: np.ndarray) -> np.ndarray:
    """|v><v| for each row of ``vectors``."""
    return vectors[:, :, None] * vectors.conj()[:, None, :]


def _starts(
    x: DiscreteObservable, restarts: int, seed: int, warm_ensembles: tuple[Ensemble, ...], cap: int
) -> tuple[np.ndarray, np.ndarray]:
    """The search's start ensembles as one stack (S, K, d, d), padded with
    zero states to the largest start, and the priors (W, K) of the last W
    starts, which come from ``warm_ensembles``; the others start uniform."""
    d = x.dim
    _, u = np.linalg.eigh((x.effects + dagger(x.effects)) / 2)
    top, bottom = _projectors(u[:, :, -1]), _projectors(u[:, :, 0])
    # a state nulling one outcome is maximally distinguishable there
    starts = [top[:cap], bottom[:cap], np.concatenate([top, bottom])[:cap]]
    starts += [np.stack(pair)[:cap] for pair in zip(top, bottom)]
    rng = generator(seed)
    for _ in range(max(0, restarts - 1)):
        k = int(rng.integers(2, cap + 1))
        starts.append(_projectors(np.array([random_pure_state(rng, d) for _ in range(k)])))
    starts += [ens.states[:cap] for ens in warm_ensembles]
    states = np.zeros((len(starts), max(len(s) for s in starts), d, d), dtype=np.complex128)
    for i, start in enumerate(starts):
        states[i, : len(start)] = start
    warm = np.zeros((len(warm_ensembles), states.shape[1]))
    for i, ens in enumerate(warm_ensembles):
        priors = ens.priors[:cap]
        warm[i, : priors.size] = priors
    return states, warm


def _classical_estimate(x: DiscreteObservable, tol: float) -> CapacityEstimate | None:
    """The capacity of a commuting observable as the Shannon capacity of
    its joint-eigenvalue channel, or None if the effects do not commute.

    The joint eigenbasis is that of one fixed generic combination
    sum_j sqrt(j + 2) X_j, accepted only if it diagonalizes every effect.
    Its states are the inputs of the classical channel; the witness keeps
    those with prior > 0, and ``bits`` is the witness's mutual information
    on X itself, an achieved value within BA's ``tol`` of the capacity.
    """
    herm = (x.effects + dagger(x.effects)) / 2
    cut = _COMMUTING_REL * op_norm(herm) ** 2
    if max_commutator_norm(herm) > cut:
        return None
    weights = np.sqrt(np.arange(x.n_outcomes) + 2.0)
    _, u = np.linalg.eigh(np.tensordot(weights, herm, 1))
    diag = dagger(u) @ herm @ u
    values = np.diagonal(diag, axis1=1, axis2=2).real
    if op_norm(diag * (1 - np.eye(x.dim))) > cut:
        return None
    prior = kernels.blahut_arimoto(np.clip(values.T, 0.0, None), tol=tol)[1]
    keep = prior > 0
    ensemble = Ensemble.from_states(prior[keep], _projectors(u.T[keep]))
    bits = _mutual_information(_conditional_matrix(x, ensemble.states), ensemble.priors)
    return CapacityEstimate(bits=float(bits), ensemble=ensemble)


def _lockstep_search(
    x: DiscreteObservable, states: np.ndarray, warm: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Alternate BA and state ascent on every start of a padded stack at
    once (see :func:`_starts`); returns each start's (value, priors,
    states).  A start leaves the stack when its round gains less than
    ``tol``; the other starts reach its iterates only through the stack's
    padded shape."""
    cold = len(states) - len(warm)
    values, priors_out, states_out = np.zeros(len(states)), np.zeros(states.shape[:2]), states.copy()
    # the starts still running, indexed into the stack by `live`
    live, value = np.arange(len(states)), np.zeros(len(states))
    pyx = _conditional_matrix(x, states)
    for rnd in range(_MAX_ROUNDS):
        if rnd == 0:
            priors = kernels.blahut_arimoto(pyx[:cold], tol=tol / 10, max_iter=2000)[1]
            if len(warm):
                on_warm = kernels.blahut_arimoto(pyx[cold:], tol=tol / 10, max_iter=2000, prior=warm)[1]
                priors = np.concatenate([priors, on_warm])
        else:
            # each later round warm-starts BA from the previous round's priors
            priors = kernels.blahut_arimoto(pyx, tol=tol / 10, max_iter=2000, prior=priors)[1]
        states = _ascend_states(x, states, pyx, priors, rounds=2)
        # the round's value and the next round's channel share this matrix
        pyx = _conditional_matrix(x, states)
        new_value = _mutual_information(pyx, priors)
        settled = new_value - value < tol
        value = np.where(settled, np.maximum(value, new_value), new_value)
        stop = settled | (rnd == _MAX_ROUNDS - 1)
        if stop.any():
            done = live[stop]
            values[done], priors_out[done], states_out[done] = value[stop], priors[stop], states[stop]
            keep = ~stop
            live, value, priors, states, pyx = (a[keep] for a in (live, value, priors, states, pyx))
            if not live.size:
                break
    return values, priors_out, states_out


def observable_capacity(
    x: DiscreteObservable,
    restarts: int = 8,
    tol: Tolerance = DEFAULT_TOL,
    seed: int = 0,
    warm_ensembles: tuple[Ensemble, ...] = (),
) -> CapacityEstimate:
    """Lower-bound estimate of the capacity of an observable.

    A commuting observable gets the exact value: the Shannon capacity of
    its joint-eigenvalue channel, within ``_GAIN_BITS`` by BA's bracket,
    with the joint eigenstates as witness (see :func:`_classical_estimate`).
    Any other observable is searched:

    Alternates prior optimization (the certified capacity of the induced
    classical channel) with coordinate ascent on up to dim^2 pure states,
    over several seeded restarts; returns the best value with its witness
    ensemble.  For a sharp observable the eigenstate warm start already
    attains log2(#outcomes).

    All starts advance in lockstep as one stack padded to the largest
    start: each round is one stacked BA call, one stacked state ascent and
    one batched mutual information (see :func:`_lockstep_search`).

    Raises ``NotPSD`` when an effect has an eigenvalue below minus the
    spectrum cut of ``channels.validate_observable``: the clipped mutual
    information maximized here is then no mutual information.
    """
    min_eig = float(np.linalg.eigvalsh((x.effects + dagger(x.effects)) / 2).min())
    cut = norm_cut(tol, x.dim * x.dim)
    if min_eig < -cut:
        raise NotPSD(min_eig, cut)
    exact = _classical_estimate(x, _GAIN_BITS)
    if exact is not None:
        return exact
    states, warm = _starts(x, restarts, seed, warm_ensembles, x.dim * x.dim)
    values, priors, states = _lockstep_search(x, states, warm, _GAIN_BITS)
    # the first start with the highest value; from_states copies its arrays
    # out of the stack, so the answer does not keep the stack alive
    best = int(np.argmax(values))
    k = int(states[best].any(axis=(1, 2)).sum())
    ensemble = Ensemble.from_states(priors[best, :k], states[best, :k])
    return CapacityEstimate(bits=float(values[best]), ensemble=ensemble)
