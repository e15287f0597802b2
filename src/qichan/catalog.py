"""Bundled example constructions and their reference analyses.

Each catalogue entry builds deterministic channels/observables/codes and
knows how to run the analysis that makes it interesting; the CLI `example`
command and the integration tests both go through this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import decoherence
from .algebras import commutant, spans_equal, structure_decompose
from .channels import (
    Channel,
    DiscreteObservable,
    apply,
    apply_dual,
    channels_equal,
    choi_of,
    complement,
    compose,
    identity_channel,
    kraus_from_choi,
    tensor,
    validate_channel,
)
from .correction import (
    CodeSubspace,
    _operator_system,
    correctable_report,
    correction_channel,
    kl_check,
    preserved_algebra,
    restrict,
)
from .decoherence import (
    dephasing_sweep,
    effect_region_sample,
    environment_pointer_weights,
    iterated_fixed_points,
    pointer_algebra,
    broadcast_pointer,
)
from .errors import UnknownExample
from .numlin import DEFAULT_TOL, Tolerance, dagger, max_commutator_norm, op_norm
from .rand import generator, random_unitary

PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)


@dataclass(frozen=True)
class ExampleBundle:
    name: str
    channels: dict[str, Channel] = field(default_factory=dict)
    observables: dict[str, DiscreteObservable] = field(default_factory=dict)
    codes: dict[str, CodeSubspace] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


def pauli_on(n_qubits: int, which: int, op: np.ndarray) -> np.ndarray:
    out = np.array([[1.0]], dtype=np.complex128)
    for q in range(n_qubits):
        out = np.kron(out, op if q == which else np.eye(2, dtype=np.complex128))
    return out


def basis_state(d: int, i: int) -> np.ndarray:
    v = np.zeros((d, 1), dtype=np.complex128)
    v[i, 0] = 1.0
    return v


def dephasing_channel(d: int) -> Channel:
    return Channel.from_elements(np.eye(d)[:, :, None] * np.eye(d)[:, None, :])  # |i><i|


def basis_observable(d: int) -> DiscreteObservable:
    return DiscreteObservable.from_effects(dephasing_channel(d).elements)


def block_projectors(sizes: tuple[int, ...]) -> list[np.ndarray]:
    d = sum(sizes)
    projs = []
    offset = 0
    for s in sizes:
        p = np.zeros((d, d), dtype=np.complex128)
        p[offset : offset + s, offset : offset + s] = np.eye(s)
        projs.append(p)
        offset += s
    return projs


def block_pinch_channel(sizes: tuple[int, ...], seed: int = 0) -> tuple[Channel, list[np.ndarray]]:
    """rho -> sum_i U P_i rho P_i U^dag with a seeded random unitary."""
    projs = block_projectors(sizes)
    u = random_unitary(generator(seed), sum(sizes))
    return Channel.from_elements([u @ p for p in projs]), projs


def bitflip3_channel(p: tuple[float, float, float, float]) -> Channel:
    errors = [np.eye(8, dtype=np.complex128)] + [pauli_on(3, q, PAULI_X) for q in range(3)]
    return Channel.from_elements([np.sqrt(w) * e for w, e in zip(p, errors)])


def repetition_code() -> CodeSubspace:
    v = np.zeros((8, 2), dtype=np.complex128)
    v[0, 0] = 1.0  # |000>
    v[7, 1] = 1.0  # |111>
    return CodeSubspace.from_isometry(v)


def teleport_channel() -> Channel:
    """Measure in the Bell basis, ship two classical bits next to the
    untouched entangled qubit: elements (1/2) |i> (x) U_i."""
    unitaries = [np.eye(2, dtype=np.complex128), PAULI_X, PAULI_Y, PAULI_Z]
    elements = [0.5 * np.kron(basis_state(4, i), unitaries[i]) for i in range(4)]
    return Channel.from_elements(elements)


def classical_channel(pi: np.ndarray) -> Channel:
    """Stochastic matrix embedded as a channel on diagonal states,
    elements sqrt(pi_ij) |i><j|."""
    rows, cols = pi.shape
    d = max(rows, cols)
    elements = []
    for i in range(rows):
        for j in range(cols):
            if pi[i, j] > 0:
                e = np.zeros((d, d), dtype=np.complex128)
                e[i, j] = np.sqrt(pi[i, j])
                elements.append(e)
    return Channel.from_elements(elements)


def lossy_teleport_channel(merge: tuple[int, int] = (0, 3)) -> Channel:
    """Teleportation with the two classical symbols in ``merge`` collapsed
    to one before they reach the receiver."""
    pi = np.zeros((4, 4))
    keep, drop = merge
    for j in range(4):
        pi[keep if j == drop else j, j] = 1.0
    loss = tensor(classical_channel(pi), identity_channel(2))
    return compose(loss, teleport_channel())


def planar_qubit_state(angle: float) -> np.ndarray:
    """Unit vector with Bloch components (<s_x>, <s_z>) = (cos a, sin a):
    (cos h, sin h) has (sin 2h, cos 2h), so h = (pi/2 - a)/2."""
    h = (np.pi / 2 - angle) / 2
    return np.array([np.cos(h), np.sin(h)], dtype=np.complex128)


def diamond_channel(n: int) -> Channel:
    """Pre-measurement of n planar rank-one effects; qubit source, n-level target."""
    elements = []
    for k in range(1, n + 1):
        psi = planar_qubit_state(2 * np.pi * k / n)
        elements.append(np.sqrt(2.0 / n) * basis_state(n, k - 1) @ psi.conj()[None, :])
    return Channel.from_elements(elements)


def diamond_pointer(n: int) -> DiscreteObservable:
    effects = []
    for k in range(1, n + 1):
        psi = planar_qubit_state(2 * np.pi * k / n)
        effects.append((2.0 / n) * np.outer(psi, psi.conj()))
    return DiscreteObservable.from_effects(effects)


def shrinking_channel(alpha: float) -> Channel:
    """rho -> alpha rho + (1 - alpha) tr(rho) 1/2 on a qubit."""
    p = 1.0 - alpha
    elements = [np.sqrt(1 - 3 * p / 4) * np.eye(2, dtype=np.complex128)]
    for s in (PAULI_X, PAULI_Y, PAULI_Z):
        elements.append(np.sqrt(p / 4) * s)
    return Channel.from_elements(elements)


def sic_cloner_channel() -> Channel:
    """The alpha = 1/3 shrinking channel in its measure-and-prepare form:
    rank-one elements 2^(-1/2) |psi_k><psi_k| over the tetrahedron states."""
    w, u = np.linalg.eigh(sic_tetrahedron().effects)
    psi = u[:, :, -1]  # top eigenvector of each effect
    projectors = psi[:, :, None] * psi.conj()[:, None, :]
    return Channel.from_elements(np.sqrt(w[:, -1, None, None]) * projectors)


def sic_tetrahedron() -> DiscreteObservable:
    dirs = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    effects = [
        (np.eye(2, dtype=np.complex128) + sum(v[k] * paulis[k] for k in range(3))) / 4
        for v in dirs
    ]
    return DiscreteObservable.from_effects(effects)


def antisym_isometry() -> np.ndarray:
    eps = np.zeros((3, 3, 3))
    for (i, j, k), s in (
        ((0, 1, 2), 1), ((1, 2, 0), 1), ((2, 0, 1), 1),
        ((0, 2, 1), -1), ((2, 1, 0), -1), ((1, 0, 2), -1),
    ):
        eps[i, j, k] = s
    v = np.zeros((9, 3), dtype=np.complex128)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                v[3 * i + j, k] = eps[i, j, k] / np.sqrt(2)
    return v


def antisym_channel() -> Channel:
    """Embed a qutrit into the two-particle antisymmetric subspace and keep
    one particle; self-complementary with dual A -> (tr(A) 1 - A^T)/2."""
    return Channel.from_elements(antisym_isometry().reshape(3, 3, 3).transpose(1, 0, 2))


def antisym_joint_channel() -> Channel:
    return Channel.from_elements([antisym_isometry()])


def iterated_unital_channel(seed: int = 0, weight: float = 0.5) -> Channel:
    rng = generator(seed)
    u1 = random_unitary(rng, 4)
    u2 = random_unitary(rng, 4)
    return Channel.from_elements([np.sqrt(weight) * u1, np.sqrt(1 - weight) * u2])


def _dephasing_bundle(name: str, seed: int) -> ExampleBundle:
    d = 4
    return ExampleBundle(
        name=name,
        channels={"channel": dephasing_channel(d)},
        observables={"pointer": basis_observable(d)},
        params={"dim": d},
    )


def _blocks_bundle(name: str, seed: int) -> ExampleBundle:
    sizes = (2, 3, 1)
    chan, projs = block_pinch_channel(sizes, seed)
    return ExampleBundle(
        name=name,
        channels={"channel": chan},
        observables={"pointer": DiscreteObservable.from_effects(projs)},
        params={"sizes": list(sizes), "seed": seed},
    )


def _bitflip3_bundle(name: str, seed: int) -> ExampleBundle:
    p = (0.4, 0.2, 0.2, 0.2)
    return ExampleBundle(
        name=name,
        channels={"channel": bitflip3_channel(p)},
        codes={"code": repetition_code()},
        params={"probabilities": list(p)},
    )


def _teleport_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": teleport_channel()},
        codes={"code": CodeSubspace.from_isometry(np.eye(2, dtype=np.complex128))},
    )


def _teleport_lossy_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": lossy_teleport_channel((0, 3))},
        params={"merged_symbols": [0, 3]},
    )


def _classical_bundle(name: str, seed: int) -> ExampleBundle:
    rng = generator(seed)
    pi = rng.random((5, 5)) + 0.05
    pi /= pi.sum(axis=0, keepdims=True)
    return ExampleBundle(
        name=name,
        channels={"channel": classical_channel(pi)},
        params={"pi": pi.tolist(), "seed": seed},
    )


def _diamond_bundle(name: str, seed: int, n: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": diamond_channel(n)},
        observables={"pointer": diamond_pointer(n)},
        params={"n": n, "discretized": name.endswith("inf")},
    )


def _sic_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": sic_cloner_channel()},
        observables={"pointer": sic_tetrahedron()},
        params={"alpha": 1.0 / 3.0},
    )


def _antisym_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": antisym_channel(), "joint": antisym_joint_channel()},
    )


def _sweep_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        observables={"projectors": basis_observable(4)},
        params={"N": 4, "T": 1.0, "steps": 11},
    )


def _iterated_bundle(name: str, seed: int) -> ExampleBundle:
    return ExampleBundle(
        name=name,
        channels={"channel": iterated_unital_channel(seed)},
        params={"seed": seed},
    )


def example_catalog(name: str, seed: int = 0) -> ExampleBundle:
    """Deterministic bundle of objects for a named example."""
    if name not in _EXAMPLES:
        raise UnknownExample(f"unknown example {name!r}; known: {', '.join(EXAMPLE_NAMES)}")
    return _EXAMPLES[name][0](name, seed)


# ---------------------------------------------------------------------------
# reference analyses (shared by the CLI and the integration tests)
# ---------------------------------------------------------------------------


def analyze_example(name: str, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> dict:
    """Run the analysis a catalogue example exists to demonstrate.

    Returns a JSON-ready dict with a top-level ``passes`` flag plus the
    residuals behind it; sweep and diamond entries include plot-ready rows.
    """
    return analyze_bundle(example_catalog(name, seed), tol, seed)


def analyze_bundle(bundle: ExampleBundle, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> dict:
    """:func:`analyze_example` on a bundle already built by
    :func:`example_catalog` (with the same ``seed``)."""
    return _EXAMPLES[bundle.name][1](bundle, tol, seed)


def _analyze_dephasing(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    report = pointer_algebra(c, tol, seed)
    correctable = correctable_report(c, tol, seed)
    structure = correctable.preserved_algebra
    fx = correctable.residuals["fixed_point"]
    expected = bundle.observables["pointer"]
    match = _match_projector_sets(report.pointer_effects, expected)
    passes = (
        structure.block_dims == ((1, 1),) * c.dim_in
        and match <= 1e-8
        and fx <= 1e-8
        and report.commutativity_residual <= 1e-8
    )
    return {
        "passes": bool(passes),
        "preserved_blocks": list(structure.block_dims),
        "pointer_match_residual": match,
        "fixed_point_residual": fx,
        "commutativity_residual": report.commutativity_residual,
    }


def _match_projector_sets(got: DiscreteObservable, expected: DiscreteObservable) -> float:
    """Distance between two effect families up to ordering (greedy match)."""
    if got.n_outcomes != expected.n_outcomes:
        return float("inf")
    remaining = list(expected.effects)
    worst = 0.0
    for e in got.effects:
        dists = [op_norm(e - r) for r in remaining]
        k = int(np.argmin(dists))
        worst = max(worst, dists[k])
        remaining.pop(k)
    return worst


def _analyze_blocks(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    structure = preserved_algebra(c, tol, seed)
    report = pointer_algebra(c, tol, seed)
    expected_blocks = {(3, 1), (2, 1), (1, 1)}
    match = _match_projector_sets(report.pointer_effects, bundle.observables["pointer"])
    passes = set(structure.block_dims) == expected_blocks and match <= 1e-8
    return {
        "passes": bool(passes),
        "preserved_blocks": list(structure.block_dims),
        "pointer_match_residual": match,
        "commutativity_residual": report.commutativity_residual,
    }


def _analyze_bitflip3(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    code = bundle.codes["code"]
    kl = kl_check(c, code, tol)
    on_code = correctable_report(restrict(c, code), tol, seed)
    a0, r0 = on_code.preserved_algebra, on_code.correction
    fx = on_code.residuals["fixed_point"]
    s0 = _operator_system(c, a0, r0, tol)
    lifted = apply_dual(c, apply_dual(r0, dagger(code.v) @ s0.basis @ code.v))
    worst_s0 = op_norm(lifted - s0.basis)
    z_channel = Channel.from_elements(
        [np.sqrt(0.7) * np.eye(8, dtype=np.complex128), np.sqrt(0.3) * pauli_on(3, 0, PAULI_Z)]
    )
    kl_z = kl_check(z_channel, code, tol)
    passes = (
        kl.passes
        and a0.block_dims == ((2, 1),)
        and fx <= 1e-7
        and worst_s0 <= 1e-7
        and not kl_z.passes
    )
    return {
        "passes": bool(passes),
        "kl_passes": kl.passes,
        "kl_residual": kl.residual,
        "code_algebra_blocks": list(a0.block_dims),
        "fixed_point_residual": fx,
        "operator_system_residual": worst_s0,
        "kl_z1_passes": kl_z.passes,
        "kl_z1_residual": kl_z.residual,
    }


def _analyze_teleport(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    code = bundle.codes["code"]
    k = c.elements
    # E_i^dag E_j = delta_ij 1/4
    worst = op_norm(dagger(k)[:, None] @ k[None] - 0.25 * np.eye(4)[:, :, None, None] * np.eye(2))
    kl = kl_check(c, code, tol)
    lam_residual = op_norm(kl.lambdas.reshape(c.n_elements, c.n_elements) - np.eye(4) / 4)
    structure = preserved_algebra(c, tol, seed)
    passes = (
        worst <= 1e-10
        and kl.passes
        and lam_residual <= 1e-10
        and structure.block_dims == ((2, 1),)
    )
    return {
        "passes": bool(passes),
        "element_product_residual": worst,
        "kl_passes": kl.passes,
        "lambda_residual": lam_residual,
        "preserved_blocks": list(structure.block_dims),
    }


def _analyze_teleport_lossy(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    structure = preserved_algebra(c, tol, seed)
    diagonal = commutant([PAULI_Z], tol)
    match = spans_equal(structure.carrier, diagonal, 1e-8)
    passes = structure.block_dims == ((1, 1), (1, 1)) and match
    return {
        "passes": bool(passes),
        "preserved_blocks": list(structure.block_dims),
        "preserved_dimension": structure.dimension,
        "equals_z_commutant": bool(match),
    }


def _analyze_classical(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    pi = np.array(bundle.params["pi"])
    r = correction_channel(c, tol)
    d = pi.shape[0]
    # column j is the diagonal of R(|j><j|)
    recovered = np.diagonal(apply(r, dephasing_channel(d).elements), axis1=1, axis2=2).real.T
    expected = pi.T / pi.T.sum(axis=0, keepdims=True)  # pi^R_ij = pi_ji / sum_k pi_jk
    residual = float(np.abs(recovered - expected).max())
    return {
        "passes": bool(residual <= 1e-12),
        "correction_matrix_residual": residual,
    }


def _analyze_diamond(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    points = effect_region_sample(c, grid=12)
    spectra_ok = _region_points_are_effects(points)
    # every preserved binary observable against the facets of the pointer's
    # zonotope: exact, dependent pointer or not (at most 4032 normals here)
    exact = decoherence.exact_binary_classicality(c, bundle.observables["pointer"], tol)
    passes = spectra_ok and exact.classical
    return {
        "passes": bool(passes),
        "region_points": points,
        "sampled_effects_valid": bool(spectra_ok),
        "method": "exact-binary",
        "range_residual": exact.range_residual,
        "facet_margin": exact.facet_margin,
        "facet_normals": exact.facet_normals,
    }


def _region_points_are_effects(points: np.ndarray) -> bool:
    # a planar qubit point (x, z, t) is an effect iff |(x,z)| <= min(t, 2-t)
    r = np.hypot(points[:, 0], points[:, 1])
    t = points[:, 2]
    return bool(np.all(r <= np.minimum(t, 2 - t) + 1e-9))


def _analyze_sic(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    gamma = bundle.observables["pointer"]
    alpha = bundle.params["alpha"]
    report = validate_channel(c, tol)
    action_residual = float(op_norm(choi_of(c) - choi_of(shrinking_channel(alpha))))
    round_trip = kraus_from_choi(choi_of(c), c.dim_in, c.dim_out, tol)
    rt_ok = channels_equal(c, round_trip, 1e-8)
    # the tetrahedron is linearly independent: the facet normals of its
    # zonotope are its dual frame, and the verdict covers every observable
    exact = decoherence.exact_binary_classicality(c, gamma, tol)
    passes = report.trace_preserving and action_residual <= 1e-9 and rt_ok and exact.classical
    return {
        "passes": bool(passes),
        "valid_channel": report.trace_preserving,
        "shrinking_action_residual": action_residual,
        "choi_round_trip": bool(rt_ok),
        "method": "exact",
        "range_residual": exact.range_residual,
        "facet_margin": exact.facet_margin,
        "facet_normals": exact.facet_normals,
    }


def _analyze_antisym(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    joint = bundle.channels["joint"]
    self_comp = op_norm(choi_of(c) - choi_of(complement(c)))
    report = broadcast_pointer(joint, [3, 3], tol, seed=seed)
    passes = self_comp <= 1e-9 and report.pointer_algebra.dimension == 1
    return {
        "passes": bool(passes),
        "self_complement_residual": float(self_comp),
        "broadcast_dimension": report.pointer_algebra.dimension,
        "broadcast_blocks": list(report.pointer_algebra.block_dims),
    }


def _analyze_sweep(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    n_env = bundle.params["N"]
    total_time = bundle.params["T"]
    steps = bundle.params["steps"]
    projs = list(bundle.observables["projectors"].effects)
    times = np.linspace(0.0, total_time, steps)
    sweep = dephasing_sweep(projs, n_env, total_time, times)
    gamma_final = sweep.gamma[-1]
    identity_residual = float(np.abs(gamma_final - np.eye(len(projs), n_env)).max())
    rng = generator(0)
    rho = rng.random((4, 4)) + 1j * rng.random((4, 4))
    rho = rho @ rho.conj().T
    rho /= np.trace(rho)
    pinched = sum(p @ rho @ p for p in projs)
    snapshot_residual = float(op_norm(apply(sweep.snapshots[-1], rho) - pinched))
    mid = steps // 2
    brute = environment_pointer_weights(sweep.snapshots[mid], projs, n_env)
    oracle_residual = float(np.abs(brute - sweep.gamma[mid]).max())
    rows = sweep.rows()
    passes = identity_residual <= 1e-9 and snapshot_residual <= 1e-9 and oracle_residual <= 1e-9
    return {
        "passes": bool(passes),
        "gamma_identity_residual": identity_residual,
        "snapshot_pinch_residual": snapshot_residual,
        "oracle_residual": oracle_residual,
        "gamma_rows": rows,
        "row_normalization_residual": float(np.abs(sweep.gamma.sum(axis=2) - 1).max()),
    }


def _analyze_iterated(bundle: ExampleBundle, tol: Tolerance, seed: int) -> dict:
    c = bundle.channels["channel"]
    fixed = iterated_fixed_points(c, tol=tol)
    u1 = c.elements[0] / np.linalg.norm(c.elements[0], 2)
    u2 = c.elements[1] / np.linalg.norm(c.elements[1], 2)
    oracle = commutant([u1, u2], tol)
    match = spans_equal(fixed, oracle, 1e-7)
    structure = structure_decompose(fixed, seed=seed, tol=tol)
    # the center is spanned by the central projectors
    center_commutative = max_commutator_norm(structure.central_projectors) <= 1e-8
    passes = match and center_commutative
    return {
        "passes": bool(passes),
        "fixed_space_dimension": fixed.dimension,
        "matches_unitary_commutant": bool(match),
        "fixed_blocks": list(structure.block_dims),
        "center_commutative": bool(center_commutative),
    }


# name -> (bundle builder, reference analysis)
_EXAMPLES = {
    "dephasing": (_dephasing_bundle, _analyze_dephasing),
    "blocks": (_blocks_bundle, _analyze_blocks),
    "bitflip3": (_bitflip3_bundle, _analyze_bitflip3),
    "teleport": (_teleport_bundle, _analyze_teleport),
    "teleport-lossy": (_teleport_lossy_bundle, _analyze_teleport_lossy),
    "classical-stochastic": (_classical_bundle, _analyze_classical),
    **{f"diamonds-{n}": (partial(_diamond_bundle, n=n), _analyze_diamond) for n in (2, 3, 4, 5)},
    # the continuum of planar effects, discretized to 64 directions
    "diamonds-inf": (partial(_diamond_bundle, n=64), _analyze_diamond),
    "sic-cloner": (_sic_bundle, _analyze_sic),
    "antisym": (_antisym_bundle, _analyze_antisym),
    "sweep": (_sweep_bundle, _analyze_sweep),
    "iterated": (_iterated_bundle, _analyze_iterated),
}
EXAMPLE_NAMES = tuple(_EXAMPLES)
