"""Seeded request mixes for the four benchmark workloads, with their oracles.

Each workload module exposes ``build(rng) -> Mix`` and the constant
``TAIL_Q``.  ``build`` creates every input before timing; a request's
``call`` runs only qichan's public functions on those inputs, and its
``check`` judges the answer afterwards, off the clock.  The helpers here
are the oracles' own linear algebra, written without qichan so that a
defect in the program cannot also fool its check.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from metrics import WORKLOADS



@dataclass
class Request:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass
class Mix:
    """One pass of a workload: the requests in the order they are sent."""

    requests: list[Request]
    warmup: Request


def load(name: str):
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")
    return importlib.import_module(f"workloads.{name}")


def shuffled(rng: np.random.Generator, requests: list[Request]) -> list[Request]:
    order = rng.permutation(len(requests))
    return [requests[i] for i in order]


# --- oracle linear algebra (independent of qichan) --------------------------


def opnorm(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, 2))


def dual(elements, a: np.ndarray) -> np.ndarray:
    """Heisenberg-picture action A -> sum_k E_k^dag A E_k."""
    return sum(e.conj().T @ a @ e for e in elements)


def correction_elements(elements) -> list[np.ndarray]:
    """Elements E_k^dag E(1)^(-1/2) of the correction channel, with the
    pseudo-inverse square root taken on the support of E(1)."""
    e1 = sum(e @ e.conj().T for e in elements)
    w, u = np.linalg.eigh((e1 + e1.conj().T) / 2)
    keep = w > 1e-12 * max(float(w.max()), 1.0)
    inv_sqrt = (u[:, keep] / np.sqrt(w[keep])) @ u[:, keep].conj().T
    return [e.conj().T @ inv_sqrt for e in elements]


def fixed_point_residual(elements, r_elements, basis) -> float:
    """max_A ||E*(R*(A)) - A|| over a basis of the preserved algebra."""
    return max(opnorm(dual(elements, dual(r_elements, a)) - a) for a in basis)


def effect_match(got, expected) -> float:
    """Largest distance between two effect families, matched greedily."""
    got, remaining = list(got), list(expected)
    if len(got) != len(remaining):
        return float("inf")
    worst = 0.0
    for e in got:
        dists = [opnorm(e - r) for r in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def commutativity_residual(basis) -> float:
    basis = list(basis)
    worst = 0.0
    for i, a in enumerate(basis):
        for b in basis[i + 1 :]:
            worst = max(worst, opnorm(a @ b - b @ a))
    return worst


def matrix_units(projector: np.ndarray) -> list[np.ndarray]:
    """|i><j| for every pair of basis vectors spanning a projector's range."""
    w, u = np.linalg.eigh(projector)
    cols = u[:, w > 0.5]
    return [np.outer(cols[:, i], cols[:, j].conj()) for i in range(cols.shape[1]) for j in range(cols.shape[1])]
