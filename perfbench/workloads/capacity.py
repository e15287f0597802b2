"""Classical capacity by Blahut-Arimoto (BA), the only kernel in use here.

``shannon_capacity`` on seeded column-stochastic maps with n = 4, 8, 16
shows BA iteration counts (some runs reach the 10 000 cap), which an
accelerated BA should cut.  ``observable_capacity`` makes many short BA
calls per request, which batched starts should cut.  Sharp and trivial
observables have known capacities; random observables are checked by data
processing, as in acceptance criterion 10.

BA iteration counts are heavy-tailed over random inputs, so a run of a
few dozen random instances would measure the draw more than the program.
The random maps and observables therefore come from one fixed bank, and the
workload seed moves each instance to an equivalent one (rows and columns
of a map permuted, an observable conjugated by a Haar unitary) whose
capacity and iteration count are the same up to rounding.  The seed also
draws the sharp and trivial observables and the request order.  The
data-processing pairs search with ``restarts=1``, i.e. only from the
eigenvector starts, which turn with the observable; a random start would
make their cost depend on the seed again.
"""

from __future__ import annotations

import numpy as np

from qichan import capacity
from qichan.channels import DiscreteObservable
from qichan.decoherence import StochasticMap
from qichan.rand import random_povm, random_stochastic, random_unitary

from . import Mix, Request, shuffled

TAIL_Q = 0.90
TOL = 1e-6
BANK_SEED = 20090113


def _uniform_prior_information(entries: np.ndarray) -> float:
    """I(X;Y) in bits for a uniform input on a column-stochastic map."""
    pyx = entries.T
    qy = pyx.mean(axis=0)
    safe = pyx > 0
    terms = np.where(safe, pyx * np.log2(np.where(safe, pyx, 1.0) / qy[None, :]), 0.0)
    return float(terms.sum(axis=1).mean())


def _shannon(rng, base: np.ndarray) -> Request:
    n = base.shape[0]
    m = StochasticMap.from_entries(base[rng.permutation(n)][:, rng.permutation(n)])
    low = _uniform_prior_information(m.entries)
    high = np.log2(min(m.n_inputs, m.n_outputs))
    return Request(
        f"shannon.n{n}",
        lambda: capacity.shannon_capacity(m),
        lambda bits: low - 1e-9 <= bits <= high + 1e-9,
    )


def _sharp(rng, d: int) -> Request:
    u = random_unitary(rng, d)
    x = DiscreteObservable.from_effects([np.outer(u[:, i], u[:, i].conj()) for i in range(d)])
    seed = int(rng.integers(2**31))
    return Request(
        f"observable.sharp{d}",
        lambda: capacity.observable_capacity(x, restarts=2, seed=seed),
        lambda est: abs(est.bits - np.log2(d)) <= TOL,
    )


def _trivial(rng, d: int) -> Request:
    weights = rng.dirichlet(np.ones(int(rng.integers(1, 4))))
    x = DiscreteObservable.from_effects([w * np.eye(d, dtype=np.complex128) for w in weights])
    seed = int(rng.integers(2**31))
    return Request(
        f"observable.trivial{d}",
        lambda: capacity.observable_capacity(x, restarts=2, seed=seed),
        lambda est: est.bits <= 1e-9,
    )


def _data_processing(rng, base: DiscreteObservable, pi: StochasticMap) -> Request:
    """Coarse-grained observable against its fine one, warm-started from the
    coarse witness: coarse <= fine + 1e-6 (criterion 10)."""
    d, n = base.dim, base.n_outcomes
    u = random_unitary(rng, d)
    x = DiscreteObservable.from_effects([u @ e @ u.conj().T for e in base.effects])
    coarse = pi.compose_observable(x)
    seed = int(rng.integers(2**31))

    def call():
        est_coarse = capacity.observable_capacity(coarse, restarts=1, seed=seed)
        est_fine = capacity.observable_capacity(
            x, restarts=1, seed=seed, warm_ensembles=(est_coarse.ensemble,)
        )
        return est_coarse.bits, est_fine.bits

    def check(bits) -> bool:
        b_coarse, b_fine = bits
        return -1e-12 <= b_coarse <= b_fine + TOL and b_fine <= np.log2(min(n, d * d)) + TOL

    return Request(f"observable.pair_d{d}", call, check)


def _bank():
    """The fixed random instances: maps for n = 4, 8, 16 and observable
    pairs with d = 2, 3 and 2 to 4 outcomes, drawn as in criterion 10."""
    rng = np.random.default_rng(BANK_SEED)
    maps = [random_stochastic(rng, n, n) for n in (4,) * 40 + (8,) * 25 + (16,) * 10]
    pairs = []
    for _ in range(4):
        d, n = int(rng.integers(2, 4)), int(rng.integers(2, 5))
        x = random_povm(rng, d, n)
        pairs.append((x, StochasticMap.from_entries(random_stochastic(rng, int(rng.integers(2, 5)), n))))
    return maps, pairs


def build(rng: np.random.Generator) -> Mix:
    maps, pairs = _bank()
    reqs = [_shannon(rng, m) for m in maps]
    reqs += [_sharp(rng, d) for d in (2, 3, 4) * 4]
    reqs += [_trivial(rng, d) for d in (2, 3, 4) * 3]
    reqs += [_data_processing(rng, x, pi) for x, pi in pairs]
    return Mix(requests=shuffled(rng, reqs), warmup=_sharp(rng, 2))
