"""Acceptance suite: the exact end-to-end claims this package must satisfy,
each at its stated tolerance, printing one PASS/FAIL line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines inline.
"""

import numpy as np

from qichan import capacity as cap
from qichan import decoherence as de
from qichan import kernels
from qichan.algebras import commutant, generate_star_algebra, span_of, spans_equal
from qichan.catalog import (
    PAULI_X,
    PAULI_Z,
    _match_projector_sets,
    basis_observable,
    bitflip3_channel,
    block_pinch_channel,
    classical_channel,
    dephasing_channel,
    antisym_channel,
    antisym_joint_channel,
    pauli_on,
    repetition_code,
    shrinking_channel,
    sic_tetrahedron,
    teleport_channel,
    lossy_teleport_channel,
)
from qichan.channels import (
    Channel,
    DiscreteObservable,
    apply,
    apply_dual,
    channels_equal,
    choi_of,
    complement,
    kraus_from_choi,
)
from qichan.correction import (
    correctable_operator_system,
    correction_channel,
    fixed_point_residual,
    kl_check,
    preserved_algebra,
    restrict,
)
from qichan.decoherence import (
    _coordinates,
    broadcast_pointer,
    dephasing_sweep,
    environment_pointer_weights,
    pointer_algebra,
)
from qichan.numlin import dagger, op_norm
from qichan.rand import (
    generator,
    random_channel,
    random_hermitian,
    random_povm,
    random_stochastic,
    random_unitary,
)


def _report(number: int, name: str, ok: bool) -> None:
    print(f"ACCEPTANCE {number:2d} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def test_criterion_01_dephasing_pointer():
    c = dephasing_channel(4)
    structure = preserved_algebra(c)
    rep = pointer_algebra(c)
    expected = basis_observable(4)
    ok = (
        structure.block_dims == ((1, 1),) * 4
        and _match_projector_sets(rep.pointer_effects, expected) <= 1e-8
        and rep.commutativity_residual <= 1e-8
        and fixed_point_residual(c, correction_channel(c), structure.carrier) <= 1e-8
    )
    _report(1, "dephasing preserved and pointer structure", ok)


def test_criterion_02_block_channel():
    c, projs = block_pinch_channel((2, 3, 1), seed=0)
    structure = preserved_algebra(c)
    rep = pointer_algebra(c)
    pointer_span = span_of(projs)
    ok = (
        set(structure.block_dims) == {(2, 1), (3, 1), (1, 1)}
        and spans_equal(rep.pointer_algebra.carrier, pointer_span, 1e-8)
    )
    _report(2, "block channel algebra and superselection pointer", ok)


def test_criterion_03_three_qubit_code():
    c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
    code = repetition_code()
    kl = kl_check(c, code)
    c0 = restrict(c, code)
    a0 = preserved_algebra(c0)
    r0 = correction_channel(c0)
    fx = fixed_point_residual(c0, r0, a0.carrier)
    z_channel = Channel.from_elements(
        [np.sqrt(0.6) * np.eye(8, dtype=complex), np.sqrt(0.4) * pauli_on(3, 0, PAULI_Z)]
    )
    ok = (
        kl.passes
        and a0.dimension == 4
        and a0.block_dims == ((2, 1),)
        and fx <= 1e-7
        and not kl_check(z_channel, code).passes
    )
    _report(3, "3-qubit bit-flip code", ok)


def test_criterion_04_operator_system():
    c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
    code = repetition_code()
    s0 = correctable_operator_system(c, code)
    r0 = correction_channel(restrict(c, code))
    worst = 0.0
    for a in s0.basis:
        lifted = apply_dual(c, apply_dual(r0, dagger(code.v) @ a @ code.v))
        worst = max(worst, op_norm(lifted - a))
    _report(4, "operator system correctable on all states", worst <= 1e-7)


def test_criterion_05_teleportation():
    c = teleport_channel()
    worst = 0.0
    for i, ei in enumerate(c.elements):
        for j, ej in enumerate(c.elements):
            target = (0.25 if i == j else 0.0) * np.eye(2)
            worst = max(worst, op_norm(dagger(ei) @ ej - target))
    full_qubit = preserved_algebra(c).block_dims == ((2, 1),)
    lossy = preserved_algebra(lossy_teleport_channel((0, 3)))
    diagonal = commutant([PAULI_Z])
    ok = (
        worst <= 1e-10
        and full_qubit
        and lossy.dimension == 2
        and spans_equal(lossy.carrier, diagonal, 1e-8)
    )
    _report(5, "teleportation exact and lossy", ok)


def test_criterion_06_classical_correction():
    rng = generator(12)
    pi = rng.random((5, 5)) + 0.05
    pi /= pi.sum(axis=0, keepdims=True)
    c = classical_channel(pi)
    r = correction_channel(c)
    recovered = np.zeros((5, 5))
    for j in range(5):
        ket = np.zeros((5, 5), dtype=complex)
        ket[j, j] = 1.0
        out = apply(r, ket)
        recovered[:, j] = np.diag(out).real
    expected = pi.T / pi.T.sum(axis=0, keepdims=True)
    _report(6, "classical channel correction matrix", np.abs(recovered - expected).max() <= 1e-12)


def test_criterion_07_dephasing_sweep(random_density):
    projs = list(basis_observable(4).effects)
    sweep = dephasing_sweep(projs, 4, 1.0, [0.5, 1.0])
    gamma_final = sweep.gamma[1]
    rho = random_density(generator(3), 4)
    pinched = sum(p @ rho @ p for p in projs)
    brute = environment_pointer_weights(sweep.snapshots[0], projs, 4)
    ok = (
        np.abs(gamma_final - np.eye(4)).max() <= 1e-9
        and op_norm(apply(sweep.snapshots[1], rho) - pinched) <= 1e-9
        and np.abs(brute - sweep.gamma[0]).max() <= 1e-9
    )
    _report(7, "dephasing sweep endpoints and oracle", ok)


def test_criterion_08_antisymmetric_counterexample():
    c = antisym_channel()
    self_complementary = op_norm(choi_of(c) - choi_of(complement(c))) <= 1e-9
    rep = broadcast_pointer(antisym_joint_channel(), [3, 3])
    ok = self_complementary and rep.pointer_algebra.dimension == 1
    _report(8, "antisymmetric two-fold broadcast", ok)


def _qubit_op_norms(coords):
    # operator norm of a qubit Hermitian from its orthonormal coordinates
    a = (coords[..., 0] + coords[..., 1]) / 2
    bz = (coords[..., 0] - coords[..., 1]) / 2
    bx = coords[..., 2] / np.sqrt(2)
    by = coords[..., 3] / np.sqrt(2)
    return np.abs(a) + np.sqrt(bx**2 + by**2 + bz**2)


def _containment_scan(alpha: float, n_samples_target: int = 10000):
    """Feasibility of grid-sampled preserved effects against the SIC."""
    chan = shrinking_channel(alpha)
    gamma = sic_tetrahedron()
    g = _coordinates(gamma.effects).T
    thetas = np.linspace(0, np.pi, 10)
    phis = np.linspace(0, 2 * np.pi, 10, endpoint=False)
    scales = np.linspace(0.0, 2.0, 13)
    fractions = np.linspace(0.0, 1.0, 8)
    eye = np.eye(2, dtype=complex)
    paulis = (PAULI_X, np.array([[0, -1j], [1j, 0]]), PAULI_Z)
    targets = []
    for t in thetas:
        for p in phis:
            n = np.array([np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)])
            for s in scales:
                rmax = min(s, 2 - s)
                for f in fractions:
                    b = (s * eye + f * rmax * sum(n[k] * paulis[k] for k in range(3))) / 2
                    eff = apply_dual(chan, b)
                    targets.append(
                        [
                            _coordinates([eff])[0],
                            _coordinates([eye - eff])[0],
                        ]
                    )
    x = np.array(targets)
    assert x.shape[0] >= n_samples_target
    pi, _ = kernels.solve_product_simplex_lsq(g, x, hs_tol=0.5e-7)
    resid_coords = pi @ g.T - x
    residuals = _qubit_op_norms(resid_coords).max(axis=1)
    return residuals


def test_criterion_09_sic_containment():
    feasible = _containment_scan(1.0 / 3.0)
    leaky = _containment_scan(0.5)
    ok = feasible.max() <= 1e-7 and leaky.max() > 1e-3
    print(f"  alpha=1/3 worst residual {feasible.max():.2e} over {feasible.size} effects; "
          f"alpha=0.5 worst {leaky.max():.2e}")
    _report(9, "SIC containment of preserved effects", ok)


def test_criterion_10_capacity():
    sharp = basis_observable(4)
    est = cap.observable_capacity(sharp, restarts=3)
    trivial = DiscreteObservable.from_effects([np.eye(3, dtype=complex)])
    est_trivial = cap.observable_capacity(trivial, restarts=2)
    monotone = True
    for seed in range(50):
        rng = generator(seed + 500)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        x = random_povm(rng, d, n)
        pi = de.StochasticMap.from_entries(random_stochastic(rng, int(rng.integers(2, 5)), n))
        coarse = pi.compose_observable(x)
        est_coarse = cap.observable_capacity(coarse, restarts=2, seed=seed)
        est_fine = cap.observable_capacity(
            x, restarts=2, seed=seed, warm_ensembles=(est_coarse.ensemble,)
        )
        if est_coarse.bits > est_fine.bits + 1e-6:
            monotone = False
            break
    ok = abs(est.bits - 2.0) <= 1e-6 and est_trivial.bits <= 1e-9 and monotone
    _report(10, "capacity values and data processing", ok)


def test_criterion_11a_double_commutant():
    ok = True
    count = 0
    for seed in range(100):
        rng = generator(seed + 1000)
        d = int(rng.integers(2, 9))
        gens = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(int(rng.integers(1, 3)))
        ]
        generated = generate_star_algebra(gens)
        double = commutant(list(commutant(gens).basis))
        if not spans_equal(generated, double, 1e-7):
            ok = False
            break
        count += 1
    _report(11, f"double commutant on {count} instances", ok)


def test_criterion_11b_choi_round_trip():
    ok = True
    for seed in range(100):
        rng = generator(seed + 2000)
        d_in = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 9))
        c = random_channel(rng, d_in, d_out, int(rng.integers(1, 5)))
        back = kraus_from_choi(choi_of(c), d_in, d_out)
        if not channels_equal(c, back, 1e-8):
            ok = False
            break
    _report(11, "Kraus/Choi action round trip on 100 instances", ok)


def test_criterion_11c_duality(random_density):
    ok = True
    for seed in range(100):
        rng = generator(seed + 3000)
        d_in = int(rng.integers(2, 9))
        d_out = int(rng.integers(2, 9))
        c = random_channel(rng, d_in, d_out, int(rng.integers(1, 4)))
        rho = random_density(rng, d_in)
        a = random_hermitian(rng, d_out)
        lhs = np.trace(apply(c, rho) @ a)
        rhs = np.trace(rho @ apply_dual(c, a))
        if abs(lhs - rhs) > 1e-8:
            ok = False
            break
    _report(11, "duality identity on 100 instances", ok)


def test_criterion_11d_correction_multiplicative():
    ok = True
    checked = 0
    for seed in range(300):
        if checked >= 100:
            break
        rng = generator(seed + 4000)
        d = int(rng.integers(2, 9))
        c = random_channel(rng, d, d, int(rng.integers(2, 5)))
        image = sum(e @ dagger(e) for e in c.elements)
        if np.linalg.eigvalsh(image)[0] < 1e-8:
            continue  # correction only multiplicative on the support
        checked += 1
        structure = preserved_algebra(c)
        r = correction_channel(c)
        basis = structure.carrier.basis
        lifted = [apply_dual(r, a) for a in basis]
        for i in range(len(basis)):
            for j in range(len(basis)):
                prod = apply_dual(r, basis[i] @ basis[j])
                if op_norm(lifted[i] @ lifted[j] - prod) > 1e-7:
                    ok = False
        if not ok:
            break
    _report(11, f"correction dual multiplicative on {checked} instances", ok and checked >= 100)


def test_criterion_11e_span_invariance():
    from qichan.correction import span_equivalent

    ok = True
    for seed in range(100):
        rng = generator(seed + 5000)
        d = int(rng.integers(2, 9))
        n = int(rng.integers(2, 4))
        c1 = random_channel(rng, d, d, n)
        u = random_unitary(rng, n)
        mixed = Channel.from_elements(
            [sum(u[i, j] * c1.elements[j] for j in range(n)) for i in range(n)]
        )
        if not span_equivalent(c1, mixed):
            ok = False
            break
        a1 = preserved_algebra(c1)
        a2 = preserved_algebra(mixed)
        if not spans_equal(a1.carrier, a2.carrier, 1e-7):
            ok = False
            break
        r1 = correction_channel(c1)
        if fixed_point_residual(mixed, r1, a2.carrier) > 1e-7:
            ok = False
            break
    _report(11, "span invariance of preserved algebras on 100 instances", ok)
