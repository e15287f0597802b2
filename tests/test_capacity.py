import numpy as np
import pytest

from qichan import capacity as cap
from qichan import kernels
from qichan.catalog import basis_observable, sic_tetrahedron, PAULI_X, PAULI_Y, PAULI_Z
from qichan.channels import DiscreteObservable, povm_probabilities
from qichan.decoherence import StochasticMap
from qichan.errors import DimMismatch, NotPSD
from qichan.numlin import DEFAULT_TOL, Tolerance
from qichan.rand import (
    generator,
    random_hermitian,
    random_povm,
    random_pure_state,
    random_sharp_observable,
    random_stochastic,
    random_unitary,
)


def bloch_state(n):
    paulis = (PAULI_X, PAULI_Y, PAULI_Z)
    return (np.eye(2, dtype=complex) + sum(n[k] * paulis[k] for k in range(3))) / 2


def holevo_quantity(x: DiscreteObservable, e: cap.Ensemble) -> float:
    """S(X(avg)) - sum_i mu_i S(X(rho_i)) in bits, for the output distributions:
    the mutual information of the classical channel the ensemble induces."""
    return float(cap._mutual_information(cap._conditional_matrix(x, e.states), e.priors))


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
        assert holevo_quantity(x, e) < 1e-12

    def test_sharp_z_with_eigenstates(self):
        x = basis_observable(2)
        e = cap.Ensemble.from_states(
            [0.5, 0.5], [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
        )
        assert abs(holevo_quantity(x, e) - 1.0) < 1e-12

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
        assert abs(holevo_quantity(x, e) - expected) < 1e-12

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
        assert abs(holevo_quantity(x, e) - mi) < 1e-10


class TestEnsemble:
    def test_states_are_one_read_only_stack(self):
        e = cap.Ensemble.from_states([0.5, 0.5], [np.eye(2) / 2, np.diag([1.0, 0.0])])
        assert e.states.shape == (2, 2, 2) and e.states.dtype == np.complex128
        assert not e.states.flags.writeable and not e.priors.flags.writeable

    def test_copies_the_callers_arrays(self):
        priors = np.array([0.25, 0.75])
        states = np.stack([np.eye(2) / 2, np.diag([0.0, 1.0])]).astype(complex)
        e = cap.Ensemble.from_states(priors, states)
        priors[:] = 0.5
        states[:] = 0.0
        assert np.array_equal(e.priors, [0.25, 0.75])
        assert np.array_equal(e.states[1], np.diag([0.0, 1.0]))

    def test_states_of_different_shapes_rejected(self):
        with pytest.raises(DimMismatch):
            cap.Ensemble.from_states([0.5, 0.5], [np.eye(2) / 2, np.eye(3) / 3])

    def test_non_square_state_rejected(self):
        with pytest.raises(DimMismatch):
            cap.Ensemble.from_states([1.0], [np.ones((2, 3)) / 2])


class TestConditionalMatrix:
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_matches_per_state_probabilities(self, d, random_density):
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
    def test_matches_per_state_ascent(self, seed, random_density):
        rng = generator(seed + 60)
        d = 2 + seed % 3
        x = random_povm(rng, d, int(rng.integers(2, 5)))
        states = np.array([random_density(rng, d) for _ in range(int(rng.integers(2, d * d + 1)))])
        priors = rng.dirichlet(np.ones(len(states)))
        # a stack of one ensemble
        got = cap._ascend_states(x, states[None], cap._conditional_matrix(x, states)[None], priors[None], rounds=3)
        expected = _ascend_states_per_state(x, states, priors, rounds=3)
        assert got.shape == (1, *states.shape)
        assert max(np.abs(a - b).max() for a, b in zip(got[0], expected)) < 1e-12

    def test_padded_stack_matches_each_ensemble(self, random_density):
        rng = generator(70)
        x = random_povm(rng, 3, 4)
        ensembles = [np.array([random_density(rng, 3) for _ in range(k)]) for k in (2, 5, 3)]
        states = np.zeros((3, 5, 3, 3), dtype=complex)
        priors = np.zeros((3, 5))
        for s, ens in enumerate(ensembles):
            states[s, : len(ens)] = ens
            priors[s, : len(ens)] = rng.dirichlet(np.ones(len(ens)))
        got = cap._ascend_states(x, states, cap._conditional_matrix(x, states), priors, rounds=3)
        for s, ens in enumerate(ensembles):
            expected = _ascend_states_per_state(x, ens, priors[s, : len(ens)], rounds=3)
            assert max(np.abs(a - b).max() for a, b in zip(got[s], expected)) < 1e-12
            # padding rows stay zero states
            assert not got[s, len(ens) :].any()


def _information_bits(pyx, priors):
    """I(X;Y) in bits, term by term."""
    qy = priors @ pyx
    return sum(
        priors[i] * pyx[i, j] * np.log2(pyx[i, j] / qy[j])
        for i in range(pyx.shape[0])
        for j in range(pyx.shape[1])
        if pyx[i, j] > 0 and priors[i] > 0
    )


def _observable_capacity_per_start(x, restarts, tol=1e-9, seed=0, warm_ensembles=()):
    """Reference search, one start after another: each start alternates a
    BA call on its own channel with the per-state ascent until a round
    gains less than ``tol``.  Returns the value of every start, in the
    order of the program's starts."""
    d = x.dim
    cap_ = d * d
    rng = generator(seed)
    _, u = np.linalg.eigh((x.effects + x.effects.conj().transpose(0, 2, 1)) / 2)
    top = [np.outer(v, v.conj()) for v in u[:, :, -1]]
    bottom = [np.outer(v, v.conj()) for v in u[:, :, 0]]
    starts = [top[:cap_], bottom[:cap_], (top + bottom)[:cap_]]
    starts += [[t, b][:cap_] for t, b in zip(top, bottom)]
    for _ in range(max(0, restarts - 1)):
        k = int(rng.integers(2, cap_ + 1))
        starts.append([np.outer(v, v.conj()) for v in (random_pure_state(rng, d) for _ in range(k))])
    first = [None] * len(starts)
    for ens in warm_ensembles:
        starts.append([np.array(rho) for rho in ens.states][:cap_])
        first.append(ens.priors[:cap_])

    def channel(states):
        return np.array([np.clip(povm_probabilities(x, rho), 0.0, None) for rho in states])

    values = []
    for states, priors in zip(starts, first):
        value, pyx = 0.0, channel(states)
        for _ in range(cap._MAX_ROUNDS):
            _, priors, _, _ = kernels.blahut_arimoto(pyx, tol=tol / 10, max_iter=2000, prior=priors)
            states = _ascend_states_per_state(x, states, priors, rounds=2)
            pyx = channel(states)
            new_value = _information_bits(pyx, priors)
            if new_value - value < tol:
                value = max(value, new_value)
                break
            value = new_value
        values.append(value)
    return np.array(values)


def _pair():
    """A coarse-grained observable and its fine one, as in criterion 10."""
    rng = generator(52)
    x = random_povm(rng, 3, 4)
    pi = StochasticMap.from_entries(random_stochastic(rng, 3, 4))
    return pi.compose_observable(x), x


class TestLockstepSearch:
    @pytest.mark.parametrize(
        "name, restarts, seed",
        [("sic", 4, 11), ("basis2", 2, 0), ("basis3", 2, 5), ("basis4", 3, 7), ("warm_pair", 2, 3)],
    )
    def test_matches_per_start_reference(self, name, restarts, seed):
        warm = ()
        if name == "sic":
            x = sic_tetrahedron()
        elif name.startswith("basis"):
            x = basis_observable(int(name[-1]))
        else:
            coarse, x = _pair()
            warm = (cap.observable_capacity(coarse, restarts=restarts, seed=seed).ensemble,)
        states, warm_priors = cap._starts(x, restarts, seed, warm, x.dim**2)
        values, _, _ = cap._lockstep_search(x, states, warm_priors, 1e-9)
        expected = _observable_capacity_per_start(x, restarts, seed=seed, warm_ensembles=warm)
        assert values.shape == expected.shape
        assert np.abs(values - expected).max() < 1e-12
        est = cap.observable_capacity(x, restarts=restarts, seed=seed, warm_ensembles=warm)
        assert abs(est.bits - expected.max()) < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_start_does_not_depend_on_its_stack(self, seed):
        coarse, x = _pair()
        warm = (cap.observable_capacity(coarse, restarts=2, seed=seed).ensemble,)
        states, warm_priors = cap._starts(x, 4, seed, warm, x.dim**2)
        values, priors, finals = cap._lockstep_search(x, states, warm_priors, 1e-9)
        cold = len(states) - len(warm_priors)
        for s in range(len(states)):
            alone = warm_priors[s - cold : s - cold + 1] if s >= cold else warm_priors[:0]
            v, p, f = cap._lockstep_search(x, states[s : s + 1], alone, 1e-9)
            assert v[0] == values[s] and np.array_equal(p[0], priors[s]) and np.array_equal(f[0], finals[s])

    def test_answers_share_no_memory(self):
        # the search, and the classical path of a commuting observable
        for x in (sic_tetrahedron(), _commuting_povm(generator(5), 3, 4)):
            a = cap.observable_capacity(x, restarts=4, seed=1)
            b = cap.observable_capacity(x, restarts=4, seed=2)
            arrays_a = [a.ensemble.priors, *a.ensemble.states]
            arrays_b = [b.ensemble.priors, *b.ensemble.states]
            assert not any(np.shares_memory(u, v) for u in arrays_a for v in arrays_b)
            # each answer holds its own ensemble only, not the padded stack
            # or the eigenvectors it was read from
            k, d = a.ensemble.size, x.dim
            assert a.ensemble.priors.base is None or a.ensemble.priors.base.size == k
            for arr in a.ensemble.states:
                assert arr.base is None or arr.base.size <= k * d * d


def _commuting_povm(rng, d, m, pi=None):
    """Effects U diag(pi_j) U^dag, U Haar: a commuting observable whose
    joint-eigenvalue channel is the column-stochastic ``pi`` (m x d)."""
    pi = random_stochastic(rng, m, d) if pi is None else pi
    u = random_unitary(rng, d)
    return DiscreteObservable.from_effects(u @ (pi[:, None, :] * np.eye(d)) @ u.conj().T)


def _searched(x, restarts, seed, cap_):
    """The search's (values, priors, states) over its starts, as
    :func:`cap.observable_capacity` runs it without warm ensembles."""
    states, warm = cap._starts(x, restarts, seed, (), cap_)
    return cap._lockstep_search(x, states, warm, 1e-9)


class TestClassicalPath:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    @pytest.mark.parametrize("seed", range(3))
    def test_coarse_grained_basis_is_shannon_capacity(self, d, seed, monkeypatch):
        rng = generator(300 + 10 * d + seed)
        u = random_unitary(rng, d)
        x = DiscreteObservable.from_effects([u @ e @ u.conj().T for e in basis_observable(d).effects])
        pi = StochasticMap.from_entries(random_stochastic(rng, int(rng.integers(2, 6)), d))
        coarse = pi.compose_observable(x)

        def no_search(*args):
            raise AssertionError("a commuting observable took the search")

        monkeypatch.setattr(cap, "_lockstep_search", no_search)
        est = cap.observable_capacity(coarse, seed=seed)
        assert abs(est.bits - cap.shannon_capacity(pi)) < 1e-9
        assert abs(holevo_quantity(coarse, est.ensemble) - est.bits) < 1e-12
        assert 1 <= est.ensemble.size <= d and np.all(est.ensemble.priors > 0)

    @pytest.mark.parametrize("seed", range(20))
    def test_not_below_the_search(self, seed):
        rng = generator(400 + seed)
        d, m = 2 + seed % 4, int(rng.integers(2, 6))
        pi = random_stochastic(rng, m, d)
        if seed % 2:
            # two joint eigenstates share their eigenvalues
            pi[:, -1] = pi[:, 0]
        if seed % 5 == 0:
            # an effect with a repeated eigenvalue in distinct joint eigenspaces
            pi[0, :] = pi[0, 0]
            pi /= pi.sum(axis=0)
        x = _commuting_povm(rng, d, m, pi)
        assert cap._classical_estimate(x, 1e-9) is not None
        best = _searched(x, 4, seed, d * d)[0].max()
        assert cap.observable_capacity(x, restarts=4, seed=seed).bits >= best - 1e-12

    def test_near_commuting_takes_the_search(self):
        rng = generator(500)
        x = _commuting_povm(rng, 3, 3)
        h = random_hermitian(rng, 3) * 1e-6
        near = DiscreteObservable.from_effects(x.effects + np.stack([h, -h, np.zeros((3, 3))]))
        assert 1e-7 < np.linalg.norm(near.effects[0] @ near.effects[1] - near.effects[1] @ near.effects[0], 2) < 1e-5
        assert cap._classical_estimate(near, 1e-9) is None
        values, priors, states = _searched(near, 3, 2, 9)
        est = cap.observable_capacity(near, restarts=3, seed=2)
        best = int(np.argmax(values))
        assert est.bits == values[best]
        assert np.array_equal(est.ensemble.priors, priors[best, : est.ensemble.size])
        assert np.array_equal(np.array(est.ensemble.states), states[best, : est.ensemble.size])


class TestObservableCapacity:
    def test_sharp_observable_attains_log_outcomes(self):
        for n in (2, 3, 4):
            x = basis_observable(n)
            est = cap.observable_capacity(x, restarts=3)
            assert abs(est.bits - np.log2(n)) < 1e-6

    def test_trivial_observable(self):
        x = DiscreteObservable.from_effects([np.eye(3, dtype=complex)])
        assert cap.observable_capacity(x, restarts=2).bits < 1e-9

    @pytest.mark.parametrize(
        "effects",
        [
            # commuting: the classical path and the search read different numbers
            [np.diag([1.2, 0.3]), np.diag([-0.2, 0.7])],
            # not commuting: the search alone; the third effect completes the POVM
            [(np.eye(2) + PAULI_X) / 4 - 1e-8 * np.eye(2), (np.eye(2) + PAULI_Z) / 4,
             (1 + 1e-8) * np.eye(2) / 2 - (PAULI_X + PAULI_Z) / 4],
        ],
        ids=["commuting", "not-commuting"],
    )
    def test_rejects_effects_that_are_not_psd(self, effects):
        x = DiscreteObservable.from_effects([np.asarray(e, dtype=complex) for e in effects])
        with pytest.raises(NotPSD) as err:
            cap.observable_capacity(x, restarts=2)
        assert err.value.min_eig < -1e-9

    def test_psd_cut_is_the_callers_abs_eps(self):
        effects = np.array([np.diag([1 + 1e-7, 0.5]), np.diag([-1e-7, 0.5])], dtype=complex)
        x = DiscreteObservable.from_effects(effects)
        with pytest.raises(NotPSD) as err:
            cap.observable_capacity(x, restarts=2)
        assert err.value.eps == DEFAULT_TOL.abs_eps
        est = cap.observable_capacity(x, restarts=2, tol=Tolerance(1e-6, DEFAULT_TOL.rank_rel))
        assert 0 < est.bits < 1

    def test_psd_cut_has_the_rounding_floor(self):
        # rounding puts an eigenvalue of -1.3e-16 in this sharp observable's
        # projectors: within the floor d^2 eps, so abs_eps 1e-16 accepts it
        x = random_sharp_observable(generator(1), 4, 2)
        est = cap.observable_capacity(x, restarts=1, tol=Tolerance(1e-16, DEFAULT_TOL.rank_rel))
        assert abs(est.bits - 1.0) < 1e-6
        # an eigenvalue of -1e-12 is refused at abs_eps 1e-13
        effects = np.array([np.diag([1 + 1e-12, 0.5]), np.diag([-1e-12, 0.5])], dtype=complex)
        with pytest.raises(NotPSD):
            cap.observable_capacity(DiscreteObservable.from_effects(effects), tol=Tolerance(1e-13))

    def test_accepts_rounding_below_the_cut(self):
        # eigenvalues of -1e-12 are rounding of a PSD effect, not a violation
        eps = 1e-12 * PAULI_Z
        x = DiscreteObservable.from_effects([np.diag([1.0, 0.0]) + eps, np.diag([0.0, 1.0]) - eps])
        assert abs(cap.observable_capacity(x, restarts=2).bits - 1.0) < 1e-6

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
        # the library's search with its starts capped at two states
        assert abs(_searched(x, 6, 0, 2)[0].max() - value) < 1e-3

    def test_sic_unrestricted_beats_two_states(self):
        x = sic_tetrahedron()
        est = cap.observable_capacity(x, restarts=6)
        # the four-state anti-tetrahedron ensemble is optimal: 2 - log2(3)
        assert abs(est.bits - (2 - np.log2(3))) < 1e-9
        assert est.ensemble.size == 4

    def test_conditional_matrix_built_once_per_round(self, monkeypatch):
        # all starts advance in lockstep, and the matrix a round ends on is
        # the next round's channel: outside the state ascent, one build of
        # the whole stack up front and one per round for the live starts
        outer, rounds, inside, per_ascent = [], [0], [None], []
        real_matrix, real_ascend = cap._conditional_matrix, cap._ascend_states

        def counting_matrix(x, states):
            if inside[0] is None:
                outer.append(np.shape(states)[0])
            else:
                inside[0] += 1
            return real_matrix(x, states)

        def counting_ascend(*args, **kwargs):
            rounds[0] += 1
            inside[0] = 0
            try:
                return real_ascend(*args, **kwargs)
            finally:
                per_ascent.append(inside[0])
                inside[0] = None

        monkeypatch.setattr(cap, "_conditional_matrix", counting_matrix)
        monkeypatch.setattr(cap, "_ascend_states", counting_ascend)
        x = sic_tetrahedron()
        restarts = 3
        cap.observable_capacity(x, restarts=restarts)
        # top, bottom, both, one pair per outcome, then the random restarts
        starts = 3 + x.n_outcomes + restarts - 1
        assert 1 <= rounds[0] <= cap._MAX_ROUNDS
        assert len(outer) == rounds[0] + 1 and outer[0] == starts
        # the stack only loses starts
        assert all(a >= b for a, b in zip(outer, outer[1:]))
        # the ascent is handed the matrix of its states: round k builds the
        # one of its candidates and, from k = 2 on, the one of its states,
        # 2k - 1 builds in all
        assert per_ascent and all(n % 2 == 1 for n in per_ascent)

    def test_witness_reproduces_reported_value(self):
        x = sic_tetrahedron()
        est = cap.observable_capacity(x, restarts=4)
        assert abs(holevo_quantity(x, est.ensemble) - est.bits) < 1e-9


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
    def test_iterates_monotone_and_stop_rule(self, monkeypatch):
        rng = generator(77)
        pyx = random_stochastic(rng, 5, 4).T.copy()
        # withhold the first face solve, so that BA runs a chunk
        real, calls = kernels._newton_certificate, []

        def first_fails(*args):
            calls.append(args)
            return None if len(calls) == 1 else real(*args)

        monkeypatch.setattr(kernels, "_newton_certificate", first_fails)
        lower, _, hist, upper = kernels.blahut_arimoto(pyx, tol=1e-11)
        assert len(hist) > 1
        assert np.all(np.diff(hist) >= -1e-12)
        assert upper - lower < 1e-11


@pytest.mark.parametrize(
    "priors, states, refusal",
    [
        pytest.param([0.5, 0.5], [np.eye(2) / 2], DimMismatch, id="prior-count"),
        pytest.param([[1.0]], [np.eye(2) / 2], DimMismatch, id="prior-matrix"),
        pytest.param([0.7, 0.7], [np.eye(2) / 2] * 2, ValueError, id="priors-sum"),
        pytest.param([1.5, -0.5], [np.eye(2) / 2] * 2, ValueError, id="negative-prior"),
    ],
)
def test_refusals(priors, states, refusal):
    with pytest.raises(refusal):
        cap.Ensemble.from_states(priors, states)
