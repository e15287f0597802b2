"""Preserved-algebra, correction, pointer and broadcast analysis on
channels whose answers are planted.

Almost all of the work is the stacked-commutator SVDs inside
``algebras.commutant``, ``intersect`` and ``center``; ``kernels`` does
none.  Most requests are small (d <= 6, milliseconds), so the median shows
per-call overhead; a few large ones (pointer on a dephased qubit times a
random 4-level channel, preserved algebra of a random d = 16 channel, the
non-commutative d = 8 block pinch) hold the tail and the peak memory.

Left out on purpose: pointer on a dephased qubit times a random 6-level
channel (d = 12).  Under the worker's 4 GiB cap it fails with MemoryError
after about a second, asking ``commutant``'s full-matrices SVD for a
(20736, 20736) complex U (6.4 GiB), and this benchmark's workloads are
chosen so that no request fails; the change that bounds that memory is the
one to add it.  The d = 12 non-commutative decomposition is left out as
too slow: block pinch (3, 3, 2, 4) took 30 s and 3.8 GiB RSS in
``center`` on a 2-vCPU VM.
"""

from __future__ import annotations

import numpy as np

from qichan import catalog, correction, decoherence
from qichan.channels import Channel, tensor
from qichan.rand import random_channel, random_unitary

from . import (
    Mix,
    Request,
    commutativity_residual,
    correction_elements,
    dual,
    effect_match,
    fixed_point_residual,
    matrix_units,
    opnorm,
    shuffled,
)

# nearest-rank percentile with ten of the 100 requests of a pass beyond it
TAIL_Q = 0.90
RESIDUAL = 1e-8


def _basis_projectors(d: int) -> list[np.ndarray]:
    return [np.diag(np.eye(d)[i]).astype(np.complex128) for i in range(d)]


def _rotated_dephasing(rng, d):
    """Dephasing in a seeded input basis: preserves span{U^dag P_i U}."""
    u = random_unitary(rng, d)
    projs = [u.conj().T @ p @ u for p in _basis_projectors(d)]
    return Channel.from_elements([p @ u for p in _basis_projectors(d)]), projs


def _rotated_pinch(rng, sizes):
    """U P_i V: preserves the block algebra sum_i M_{s_i} in the V basis."""
    projs = catalog.block_projectors(sizes)
    d = sum(sizes)
    u, v = random_unitary(rng, d), random_unitary(rng, d)
    return Channel.from_elements([u @ p @ v for p in projs]), [v.conj().T @ p @ v for p in projs]


def _dephased_qubit_times_random(rng, d):
    """Dephased qubit (seeded basis) times a random 2-element channel on d/2
    levels: preserves and leaks exactly span{Q_0 (x) 1, Q_1 (x) 1}."""
    qubit, qprojs = _rotated_dephasing(rng, 2)
    c = tensor(qubit, random_channel(rng, d // 2, d // 2, 2))
    eye = np.eye(d // 2)
    return c, [np.kron(q, eye) for q in qprojs]


def _dims_ok(structure, planted) -> bool:
    return (
        sorted(structure.block_dims) == sorted(planted)
        and structure.dimension == sum(n * n for n, _ in planted)
    )


def _preserved(kind, c, planted):
    def check(s) -> bool:
        return _dims_ok(s, planted) and opnorm(sum(s.central_projectors) - np.eye(s.dim)) <= RESIDUAL

    return Request(kind, lambda: correction.preserved_algebra(c), check)


def _pointer(kind, c, projs):
    def check(rep) -> bool:
        return (
            effect_match(rep.pointer_effects.effects, projs) <= RESIDUAL
            and commutativity_residual(rep.pointer_algebra.carrier.basis) <= RESIDUAL
        )

    return Request(kind, lambda: decoherence.pointer_algebra(c), check)


def _correction(kind, c, algebra_basis):
    def check(r) -> bool:
        return fixed_point_residual(c.elements, r.elements, algebra_basis) <= RESIDUAL

    return Request(kind, lambda: correction.correction_channel(c), check)


def _bitflip3_requests(rng, count):
    code = catalog.repetition_code()
    v = code.v
    out = []
    for _ in range(count):
        p = rng.dirichlet((4.0, 2.0, 2.0, 2.0))
        c = catalog.bitflip3_channel(tuple(float(x) for x in p))
        out.append(Request("kl.bitflip3", lambda c=c: correction.kl_check(c, code), lambda r: r.passes))
        out.append(
            Request("oqec.bitflip3", lambda c=c: correction.oqec_check(c, code, (2, 1)), lambda r: r.passes)
        )
        r0 = correction_elements([e @ v for e in c.elements])

        def system_ok(span, c=c, r0=r0) -> bool:
            # every element A is corrected on all states: E*(R0*(V^dag A V)) = A
            return span.dimension > 0 and all(
                opnorm(dual(c.elements, dual(r0, v.conj().T @ a @ v)) - a) <= 1e-7 for a in span.basis
            )

        out.append(
            Request("opsys.bitflip3", lambda c=c: correction.correctable_operator_system(c, code), system_ok)
        )
    return out


def _broadcast(rng):
    iso = catalog.antisym_isometry() @ random_unitary(rng, 3)
    c = Channel.from_elements([iso])
    return Request(
        "broadcast.antisym",
        lambda: decoherence.broadcast_pointer(c, [3, 3]),
        lambda rep: rep.pointer_algebra.dimension == 1,
    )


def build(rng: np.random.Generator) -> Mix:
    reqs: list[Request] = []
    for d in (2, 3, 4, 5, 6) * 2 + (8,):
        c, projs = _rotated_dephasing(rng, d)
        reqs.append(_preserved(f"preserved.dephasing{d}", c, [(1, 1)] * d))
    for d in (2, 3, 4, 5, 6) * 2 + (8,):
        c, projs = _rotated_dephasing(rng, d)
        reqs.append(_pointer(f"pointer.dephasing{d}", c, projs))
    for d in (2, 3, 4, 5, 6, 3, 4, 5, 6):
        c, projs = _rotated_dephasing(rng, d)
        reqs.append(_correction(f"correction.dephasing{d}", c, projs))
    for sizes in [(2, 3, 1)] * 4 + [(1, 2, 2)] * 4 + [(2, 2, 2, 2)]:
        c, projs = _rotated_pinch(rng, sizes)
        reqs.append(_preserved("preserved.pinch" + "".join(map(str, sizes)), c, [(s, 1) for s in sizes]))
    for sizes in [(2, 3, 1)] * 3 + [(1, 2, 2)] * 3:
        c, projs = _rotated_pinch(rng, sizes)
        reqs.append(_pointer("pointer.pinch" + "".join(map(str, sizes)), c, projs))
    for sizes in [(2, 3, 1)] * 3:
        c, projs = _rotated_pinch(rng, sizes)
        units = [m for p in projs for m in matrix_units(p)]
        reqs.append(_correction("correction.pinch231", c, units))
    for d in (4,) * 6 + (6,) * 4 + (8,):
        c, projs = _dephased_qubit_times_random(rng, d)
        reqs.append(_preserved(f"preserved.dxr{d}", c, [(1, d // 2)] * 2))
    for d in (4,) * 6 + (6,) * 2 + (8,):
        c, projs = _dephased_qubit_times_random(rng, d)
        reqs.append(_pointer(f"pointer.dxr{d}", c, projs))
    for d in (4, 4, 6, 6, 8):
        c, projs = _dephased_qubit_times_random(rng, d)
        reqs.append(_correction(f"correction.dxr{d}", c, projs))
    reqs.extend(_bitflip3_requests(rng, 5))
    reqs.extend(_broadcast(rng) for _ in range(9))
    for d in (12, 16):
        c = random_channel(rng, d, d, 2)
        reqs.append(_preserved(f"preserved.random{d}", c, [(1, d)]))
    c, projs = _rotated_dephasing(rng, 3)
    return Mix(requests=shuffled(rng, reqs), warmup=_preserved("preserved.dephasing3", c, [(1, 1)] * 3))
