"""Coarse-graining feasibility against the SIC tetrahedron.

Four kinds of request: batches handed straight to
``kernels.solve_product_simplex_lsq``, shaped like the containment scan of
acceptance criterion 9 (pairs {E, 1 - E} of preserved effects of the
shrinking channel on a grid of directions, scales and radial fractions),
single ``coarse_grain_solve`` calls, ``full_decoherence_check`` on the SIC
cloner, and ``effect_region_sample`` on the diamond channels.

At alpha = 1/3 every effect is feasible and a batch settles within a few
hundred iterations.  At alpha = 0.5 the grid's pure-state corners are
infeasible by up to 0.25 in SIC weight, and the lockstep solver runs such
a batch to its 20 000-iteration cap.  Whether it stops early instead is a
roundoff coin flip (half of uniformly drawn batches of 64 escape; one grid
batch of 60 in twenty did), so the mixed batch takes eight directions (160
problems) to keep its cost the same on every seed.  Single solves and all-feasible batches are the
controls that an early exit must leave unmoved.  The infeasible path is
exercised inside the mixed batch; single solves stay at alpha = 1/3.
"""

from __future__ import annotations

import numpy as np

from qichan import catalog, decoherence, kernels
from qichan.channels import Channel, DiscreteObservable
from qichan.errors import Infeasible
from qichan.rand import random_unitary

from . import Mix, Request, shuffled

# p90 of a 100-request pass lands among the twelve alpha = 1/3 batches,
# below the eight heavy requests (mixed batch, regions, SIC checks)
TAIL_Q = 0.90
FEASIBLE_RES = 1e-7
# effects whose unique SIC weights leave [0, 1] by more than this must be
# reported infeasible; closer to the boundary either verdict is accepted
CLEAR_MARGIN = 1e-3
# grid points per direction: scales (0, 0.5, 1, 1.5, 2) x fractions (0, 1/3, 2/3, 1)
SCALES = np.linspace(0.0, 2.0, 5)
FRACTIONS = np.linspace(0.0, 1.0, 4)
MIXED_DIRECTIONS = 8  # 160 problems
FEASIBLE_DIRECTIONS = 50  # 1000 problems
REGION_GRID = 8

_EYE = np.eye(2, dtype=np.complex128)
_PAULIS = np.array([catalog.PAULI_X, catalog.PAULI_Y, catalog.PAULI_Z])
_BASIS = np.concatenate([_EYE[None], _PAULIS])
_GAMMAS = np.array(catalog.sic_tetrahedron().effects)


def _coords(m: np.ndarray) -> np.ndarray:
    """Real coordinates in the orthonormal basis (1, X, Y, Z) / sqrt(2)."""
    return np.real(np.einsum("...ij,kji->...k", m, _BASIS)) / np.sqrt(2.0)


def _overshoot(effects: np.ndarray) -> np.ndarray:
    """How far the unique weights p (E = sum_i p_i Gamma_i) leave [0, 1]."""
    p = np.linalg.solve(_coords(_GAMMAS).T, _coords(effects)[..., None])[..., 0]
    return np.maximum(-p.min(axis=-1), (p - 1.0).max(axis=-1))


def _preserved(alpha: float, directions, scales, fractions) -> np.ndarray:
    """E = chan*(B) for B = (s 1 + f min(s, 2 - s) n.sigma) / 2."""
    radius = fractions * np.minimum(scales, 2.0 - scales)
    b = (scales[:, None, None] * _EYE + radius[:, None, None] * np.einsum("sk,kij->sij", directions, _PAULIS)) / 2
    k = np.array(catalog.shrinking_channel(alpha).elements)
    return np.einsum("kji,sjl,klm->sim", k.conj(), b, k)


def _unit_vectors(rng, count: int) -> np.ndarray:
    n = rng.standard_normal((count, 3))
    return n / np.linalg.norm(n, axis=1, keepdims=True)


def _grid_effects(rng, alpha: float, n_directions: int) -> np.ndarray:
    d, s, f = np.meshgrid(np.arange(n_directions), SCALES, FRACTIONS, indexing="ij")
    return _preserved(alpha, _unit_vectors(rng, n_directions)[d.ravel()], s.ravel(), f.ravel())


def _residuals(pi: np.ndarray, effects: np.ndarray) -> np.ndarray:
    """Worst operator-norm residual of each problem's pair {E, 1 - E}."""
    targets = np.stack([effects, _EYE - effects], axis=1)
    approx = np.einsum("sji,iab->sjab", pi, _GAMMAS)
    return np.linalg.norm(approx - targets, ord=2, axis=(-2, -1)).max(axis=1)


def _verdicts_ok(residuals: np.ndarray, overshoot: np.ndarray) -> bool:
    feasible = overshoot <= 0.0
    clear = overshoot > CLEAR_MARGIN
    return bool(np.all(residuals[feasible] <= FEASIBLE_RES) and np.all(residuals[clear] > FEASIBLE_RES))


def _batch(rng, alpha: float, n_directions: int, kind: str) -> Request:
    effects = _grid_effects(rng, alpha, n_directions)
    g = _coords(_GAMMAS).T
    x = np.stack([_coords(effects), _coords(_EYE - effects)], axis=1)
    overshoot = _overshoot(effects)
    return Request(
        kind,
        lambda: kernels.solve_product_simplex_lsq(g, x, hs_tol=0.5 * FEASIBLE_RES),
        lambda ans: _verdicts_ok(_residuals(ans[0], effects), overshoot),
    )


def _single(effect: np.ndarray) -> Request:
    gamma = catalog.sic_tetrahedron()
    x = DiscreteObservable.from_effects([effect, _EYE - effect])
    overshoot = float(_overshoot(effect[None])[0])

    def call():
        try:
            return decoherence.coarse_grain_solve(x, gamma)
        except Infeasible as exc:
            return exc

    def check(ans) -> bool:
        if isinstance(ans, Infeasible):
            return overshoot > 0.0
        res = _residuals(ans.entries[None], effect[None])[0]
        return overshoot <= CLEAR_MARGIN and res <= FEASIBLE_RES

    return Request("single.alpha0.33", call, check)


def _sic_check(rng) -> Request:
    c = catalog.sic_cloner_channel()
    gamma = catalog.sic_tetrahedron()
    seed = int(rng.integers(2**31))

    def check(rep) -> bool:
        return (
            rep.feasible == rep.samples
            and rep.max_residual <= FEASIBLE_RES
            and rep.explicit_residual is not None
            and rep.explicit_residual <= 1e-8
        )

    return Request("decoherence.sic", lambda: decoherence.full_decoherence_check(c, gamma, seed=seed), check)


def _region(rng, n: int) -> Request:
    w = random_unitary(rng, 2)
    base = catalog.diamond_channel(n)
    c = Channel.from_elements([e @ w for e in base.elements])

    def check(points) -> bool:
        # (x, z, t) of a qubit effect satisfies |(x, z)| <= min(t, 2 - t)
        r = np.hypot(points[:, 0], points[:, 1])
        t = points[:, 2]
        return points.shape[0] > 0 and bool(np.all(r <= np.minimum(t, 2 - t) + 1e-9))

    return Request(f"region.diamonds{n}", lambda: decoherence.effect_region_sample(c, REGION_GRID), check)


def build(rng: np.random.Generator) -> Mix:
    reqs = [_batch(rng, 0.5, MIXED_DIRECTIONS, "batch.alpha0.50")]
    reqs += [_batch(rng, 1.0 / 3.0, FEASIBLE_DIRECTIONS, "batch.alpha0.33") for _ in range(12)]
    # single solves are all feasible: an infeasible single runs to the
    # iteration cap (~1.5 s) or stalls out within ~0.02 s on a roundoff coin
    # flip, which would make a pass's cost depend on the seed.  Like the
    # batches they sit on the grid, so their iteration counts repeat.
    reqs += [_single(e) for e in _grid_effects(rng, 1.0 / 3.0, 4)]
    reqs += [_sic_check(rng) for _ in range(2)]
    reqs += [_region(rng, n) for n in (2, 3, 4, 5, 64)]
    return Mix(requests=shuffled(rng, reqs), warmup=_single(_grid_effects(rng, 1.0 / 3.0, 1)[7]))
