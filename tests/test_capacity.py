import numpy as np
import pytest

from qichan import capacity as cap
from qichan import kernels
from qichan.catalog import basis_observable, sic_tetrahedron, PAULI_X, PAULI_Y, PAULI_Z
from qichan.channels import DiscreteObservable, povm_probabilities
from qichan.decoherence import StochasticMap
from qichan.rand import generator, random_density, random_povm, random_stochastic


def bloch_state(n):
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    return (np.eye(2, dtype=complex) + sum(n[k] * paulis[k] for k in range(3))) / 2


class TestShannonCapacity:
    def test_identity_bit(self):
        assert abs(cap.shannon_capacity(StochasticMap.from_entries(np.eye(2))) - 1.0) < 1e-9

    def test_constant_is_zero(self):
        sm = StochasticMap.from_entries(np.array([[0.3, 0.3], [0.7, 0.7]]))
        assert cap.shannon_capacity(sm) < 1e-12

    def test_binary_symmetric_oracle(self):
        f = 0.25
        h2 = -(f * np.log2(f) + (1 - f) * np.log2(1 - f))
        sm = StochasticMap.from_entries(np.array([[1 - f, f], [f, 1 - f]]))
        assert abs(cap.shannon_capacity(sm, tol=1e-14) - (1 - h2)) < 1e-7


class TestHolevoQuantity:
    def test_single_state_ensemble_is_zero(self):
        x = sic_tetrahedron()
        e = cap.Ensemble.from_states([1.0], [np.eye(2, dtype=complex) / 2])
        assert cap.holevo_quantity(x, e) < 1e-12

    def test_sharp_z_with_eigenstates(self):
        x = basis_observable(2)
        e = cap.Ensemble.from_states(
            [0.5, 0.5], [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
        )
        assert abs(cap.holevo_quantity(x, e) - 1.0) < 1e-12

    def test_sic_with_antipodal_pairs_direct_formula(self):
        x = sic_tetrahedron()
        dirs = np.array([[1, 1, 1], [-1, -1, -1]]) / np.sqrt(3)
        states = [bloch_state(n) for n in dirs]
        e = cap.Ensemble.from_states([0.5, 0.5], states)
        # direct evaluation of the entropy difference
        avg = sum(m * s for m, s in zip(e.priors, e.states))
        def h(p):
            p = p[p > 1e-15]
            return -(p * np.log2(p)).sum()
        expected = h(povm_probabilities(x, avg)) - 0.5 * (
            h(povm_probabilities(x, states[0])) + h(povm_probabilities(x, states[1]))
        )
        assert abs(cap.holevo_quantity(x, e) - expected) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_equals_mutual_information_of_joint(self, seed):
        rng = generator(seed)
        x = random_povm(rng, 3, 4)
        states = [np.outer(v, v.conj()) for v in
                  (rng.standard_normal(3) + 1j * rng.standard_normal(3) for _ in range(3))]
        states = [s / np.trace(s) for s in states]
        priors = rng.random(3) + 0.1
        priors /= priors.sum()
        e = cap.Ensemble.from_states(priors, states)
        pyx = np.array([povm_probabilities(x, s) for s in states])
        joint = priors[:, None] * pyx
        marg_j = joint.sum(axis=0)
        mi = 0.0
        for i in range(3):
            for j in range(4):
                if joint[i, j] > 0:
                    mi += joint[i, j] * np.log2(joint[i, j] / (priors[i] * marg_j[j]))
        assert abs(cap.holevo_quantity(x, e) - mi) < 1e-10


class TestConditionalMatrix:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_state_probabilities(self, d):
        rng = generator(40 + d)
        x = random_povm(rng, d, int(rng.integers(2, 6)))
        states = [random_density(rng, d) for _ in range(5)]
        expected = np.array([np.clip(povm_probabilities(x, rho), 0.0, None) for rho in states])
        assert np.abs(cap._conditional_matrix(x, states) - expected).max() < 1e-14


def _ascend_states_per_state(x, states, priors, rounds):
    """Reference coordinate ascent, one state and one eigenproblem at a time."""
    states = list(states)
    for _ in range(rounds):
        pyx = np.array([np.clip(povm_probabilities(x, rho), 0.0, None) for rho in states])
        qy = np.clip(priors @ pyx, 1e-30, None)
        improved = False
        for i in range(len(states)):
            p_i = np.clip(pyx[i], 1e-30, None)
            score = np.log2(p_i / qy)
            g = sum(s * eff for s, eff in zip(score, x.effects))
            psi = np.linalg.eigh((g + g.conj().T) / 2)[1][:, -1]
            candidate = np.outer(psi, psi.conj())
            p_new = np.clip(povm_probabilities(x, candidate), 0.0, None)
            new = float(p_new @ np.log2(np.clip(p_new, 1e-30, None) / qy))
            if new > float(pyx[i] @ score) + 1e-15:
                states[i] = candidate
                improved = True
        if not improved:
            break
    return states


class TestAscendStates:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_per_state_ascent(self, seed):
        rng = generator(seed + 60)
        d = 2 + seed % 3
        x = random_povm(rng, d, int(rng.integers(2, 5)))
        states = [random_density(rng, d) for _ in range(int(rng.integers(2, d * d + 1)))]
        priors = rng.dirichlet(np.ones(len(states)))
        got = cap._ascend_states(x, states, priors, rounds=3)
        expected = _ascend_states_per_state(x, states, priors, rounds=3)
        assert max(np.abs(a - b).max() for a, b in zip(got, expected)) < 1e-12


class TestObservableCapacity:
    def test_sharp_observable_attains_log_outcomes(self):
        for n in (2, 3, 4):
            x = basis_observable(n)
            est = cap.observable_capacity(x, restarts=3)
            assert abs(est.bits - np.log2(n)) < 1e-6

    def test_trivial_observable(self):
        x = DiscreteObservable.from_effects([np.eye(3, dtype=complex)])
        assert cap.observable_capacity(x, restarts=2).bits < 1e-9

    def test_never_exceeds_outcome_entropy(self):
        rng = generator(3)
        x = random_povm(rng, 2, 3)
        est = cap.observable_capacity(x, restarts=4)
        assert est.bits <= np.log2(3) + 1e-9

    def test_deterministic_given_seed(self):
        x = sic_tetrahedron()
        a = cap.observable_capacity(x, restarts=4, seed=11)
        b = cap.observable_capacity(x, restarts=4, seed=11)
        assert a.bits == b.bits

    def test_sic_matches_two_state_grid_oracle(self):
        x = sic_tetrahedron()
        # brute-force grid over two-state ensembles (pure states x priors),
        # refined locally around the best cell
        value = _two_state_grid_search(x, n_theta=16, n_mu=11, rounds=4)
        est = cap.observable_capacity(x, restarts=6, max_states=2)
        assert abs(est.bits - value) < 1e-3

    def test_sic_unrestricted_beats_two_states(self):
        x = sic_tetrahedron()
        est = cap.observable_capacity(x, restarts=6)
        # the four-state anti-tetrahedron ensemble is optimal: 2 - log2(3)
        assert abs(est.bits - (2 - np.log2(3))) < 1e-9
        assert est.ensemble.size == 4

    def test_witness_reproduces_reported_value(self):
        x = sic_tetrahedron()
        est = cap.observable_capacity(x, restarts=4)
        assert abs(cap.holevo_quantity(x, est.ensemble) - est.bits) < 1e-9


def _sphere_grid(n_theta, center=None, width=np.pi):
    """Deterministic direction grid, optionally confined near ``center``."""
    thetas = np.linspace(0, min(np.pi, width), n_theta)
    phis = np.linspace(0, 2 * np.pi, 2 * n_theta, endpoint=False)
    dirs = np.array(
        [
            [np.sin(t) * np.cos(p), np.sin(t) * np.sin(p), np.cos(t)]
            for t in thetas
            for p in phis
        ]
    )
    if center is None:
        return dirs
    # rotate the cap from +z onto the center direction
    z = np.array([0.0, 0.0, 1.0])
    v = np.cross(z, center)
    s, c = np.linalg.norm(v), float(z @ center)
    if s < 1e-12:
        return dirs if c > 0 else -dirs
    k = np.array([[0, -v[2], v[1]], [v[2], 0, -v[0]], [-v[1], v[0], 0]])
    rot = np.eye(3) + k + k @ k * ((1 - c) / s**2)
    return dirs @ rot.T


def _entropy_rows(p):
    safe = np.where(p > 1e-15, p, 1.0)
    return -(p * np.log2(safe)).sum(axis=-1)


def _two_state_grid_search(x, n_theta, n_mu, rounds):
    """Vectorized exhaustive search over pairs of pure states and priors,
    with deterministic local refinement."""
    tetra = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]]) / np.sqrt(3)
    mus = np.linspace(0.05, 0.95, n_mu)

    def search(dirs1, dirs2):
        p1 = (1 + dirs1 @ tetra.T) / 4  # (A, 4)
        p2 = (1 + dirs2 @ tetra.T) / 4  # (B, 4)
        h1 = _entropy_rows(p1)
        h2 = _entropy_rows(p2)
        best = (-1.0, None, None, 0.5)
        for mu in mus:
            q = mu * p1[:, None, :] + (1 - mu) * p2[None, :, :]
            val = _entropy_rows(q) - mu * h1[:, None] - (1 - mu) * h2[None, :]
            idx = np.unravel_index(np.argmax(val), val.shape)
            if val[idx] > best[0]:
                best = (float(val[idx]), dirs1[idx[0]], dirs2[idx[1]], mu)
        return best

    dirs = _sphere_grid(n_theta)
    value, n1, n2, mu = search(dirs, dirs)
    width = np.pi / n_theta * 2
    for _ in range(rounds):
        local1 = _sphere_grid(n_theta, center=n1, width=width)
        local2 = _sphere_grid(n_theta, center=n2, width=width)
        value2, n1b, n2b, mub = search(local1, local2)
        if value2 > value:
            value, n1, n2, mu = value2, n1b, n2b, mub
        width /= 2
    return value


class TestDataProcessing:
    @pytest.mark.parametrize("seed", range(10))
    def test_coarse_graining_cannot_increase_capacity(self, seed):
        rng = generator(seed + 50)
        d = int(rng.integers(2, 4))
        n = int(rng.integers(2, 5))
        x = random_povm(rng, d, n)
        pi = StochasticMap.from_entries(random_stochastic(rng, int(rng.integers(2, 5)), n))
        coarse = pi.compose_observable(x)
        est_coarse = cap.observable_capacity(coarse, restarts=3, seed=seed)
        est_fine = cap.observable_capacity(
            x, restarts=3, seed=seed, warm_ensembles=(est_coarse.ensemble,)
        )
        assert est_coarse.bits <= est_fine.bits + 1e-6


class TestBlahutArimotoContract:
    def test_iterates_monotone_and_stop_rule(self):
        rng = generator(77)
        pyx = random_stochastic(rng, 5, 4).T.copy()
        value, _, hist = kernels.blahut_arimoto(pyx, tol=1e-11)
        assert np.all(np.diff(hist) >= -1e-12)
        if len(hist) > 1:
            assert hist[-1] - hist[-2] < 1e-11
