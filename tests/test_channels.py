import numpy as np
import pytest

from qichan import channels as ch
from qichan.catalog import PAULI_X, dephasing_channel, sic_tetrahedron
from qichan.errors import DimMismatch, NotPSD
from qichan.numlin import dagger, op_norm, partial_trace
from qichan.rand import generator, random_channel, random_density, random_hermitian, random_unitary

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def qubit_dephasing():
    return dephasing_channel(2)


class TestValidation:
    def test_identity_channel(self):
        rep = ch.validate_channel(ch.identity_channel(3))
        assert rep.trace_preserving and rep.completely_positive

    def test_dephasing(self):
        rep = ch.validate_channel(qubit_dephasing())
        assert rep.trace_preserving and rep.completely_positive

    def test_scaled_unitary_not_tp(self):
        rep = ch.validate_channel(ch.Channel.from_elements([2 * PAULI_X]))
        assert not rep.trace_preserving
        assert rep.tp_residual > 1

    def test_observable_validation(self):
        rep = ch.validate_observable(sic_tetrahedron())
        assert rep.violation is None
        assert rep.residuals["completeness"] < 1e-12
        assert rep.residuals["min_eigenvalue"] > -1e-12


class TestRepresentation:
    def test_elements_are_one_read_only_array(self):
        c = random_channel(generator(0), 3, 5, 4)
        assert isinstance(c.elements, np.ndarray)
        assert c.elements.shape == (4, 5, 3) and c.elements.dtype == np.complex128
        assert not c.elements.flags.writeable
        with pytest.raises(ValueError):
            c.elements[0, 0, 0] = 1.0

    def test_effects_are_one_read_only_array(self):
        x = sic_tetrahedron()
        assert isinstance(x.effects, np.ndarray)
        assert x.effects.shape == (4, 2, 2) and x.effects.dtype == np.complex128
        assert not x.effects.flags.writeable

    def test_input_is_copied(self):
        k = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        c = ch.Channel.from_elements(k)
        k[0, 0, 0] = 5.0
        assert c.elements[0, 0, 0] == 1.0

    def test_ragged_elements_rejected(self):
        with pytest.raises(DimMismatch):
            ch.Channel.from_elements([np.eye(2), np.eye(3)])
        with pytest.raises(DimMismatch):
            ch.Channel.from_elements([np.eye(2), np.ones((2, 3))])
        with pytest.raises(DimMismatch):
            ch.DiscreteObservable.from_effects([np.eye(2), np.eye(3)])
        with pytest.raises(DimMismatch):
            ch.DiscreteObservable.from_effects([np.ones((2, 3))])
        with pytest.raises(DimMismatch):
            ch.Channel.from_elements([])

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            ch.Channel.from_elements([np.array([[1.0, np.nan], [0.0, 1.0]])])


class TestApplyAndDuality:
    def test_dephasing_kills_coherences(self):
        rho = np.outer(PLUS, PLUS.conj())
        assert op_norm(ch.apply(qubit_dephasing(), rho) - np.eye(2) / 2) < 1e-12

    def test_dual_unital(self):
        c = random_channel(generator(0), 3, 4, 5)
        assert op_norm(ch.apply_dual(c, np.eye(4, dtype=complex)) - np.eye(3)) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_duality_identity(self, seed):
        rng = generator(seed)
        c = random_channel(rng, 3, 2, 4)
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 2)
        lhs = np.trace(ch.apply(c, rho) @ a)
        rhs = np.trace(rho @ ch.apply_dual(c, a))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize(
        "seed, stack",
        [*(pytest.param(s, (), id=str(s)) for s in range(4)), pytest.param(4, (2, 3), id="stack")],
    )
    def test_matches_element_sum(self, seed, stack):
        # reference: the defining sums over elements, one matrix at a time;
        # a stack of states or effects maps matrix by matrix
        rng = generator(seed)
        c = random_channel(rng, 3, 5, 4)
        n = int(np.prod(stack))
        rhos = [random_density(rng, 3) for _ in range(n)]
        effects = [random_hermitian(rng, 5) for _ in range(n)]
        want = [sum(e @ rho @ dagger(e) for e in c.elements) for rho in rhos]
        want_dual = [sum(dagger(e) @ a @ e for e in c.elements) for a in effects]
        got = ch.apply(c, np.reshape(rhos, (*stack, 3, 3))).reshape(n, 5, 5)
        got_dual = ch.apply_dual(c, np.reshape(effects, (*stack, 5, 5))).reshape(n, 3, 3)
        for k in range(n):
            assert op_norm(got[k] - want[k]) < 1e-13
            assert op_norm(got_dual[k] - want_dual[k]) < 1e-13
            assert op_norm(got[k] - ch.apply(c, rhos[k])) < 1e-13
            assert op_norm(got_dual[k] - ch.apply_dual(c, effects[k])) < 1e-13

    @pytest.mark.parametrize("shape", [(2, 4, 4), (4, 5), (5,)])
    def test_stack_with_wrong_trailing_shape_rejected(self, shape):
        c = random_channel(generator(0), 3, 5, 4)
        with pytest.raises(DimMismatch):
            ch.apply_dual(c, np.zeros(shape))
        with pytest.raises(DimMismatch):
            ch.apply(c, np.zeros(shape))


class TestComposeTensor:
    def test_compose_identity(self):
        c = random_channel(generator(1), 2, 2, 3)
        composed = ch.compose(ch.identity_channel(2), c)
        assert ch.channels_equal(composed, c)

    def test_unitary_inverse(self):
        u = random_unitary(generator(2), 3)
        composed = ch.compose(ch.unitary_channel(dagger(u)), ch.unitary_channel(u))
        assert ch.channels_equal(composed, ch.identity_channel(3))

    def test_tensor_with_identity(self):
        rng = generator(3)
        deph = qubit_dephasing()
        joint = ch.tensor(deph, ch.identity_channel(3))
        rho = random_density(rng, 2)
        sigma = random_density(rng, 3)
        got = ch.apply(joint, np.kron(rho, sigma))
        want = np.kron(ch.apply(deph, rho), sigma)
        assert op_norm(got - want) < 1e-12

    def test_compose_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            ch.compose(ch.identity_channel(3), ch.identity_channel(2))


class TestChoi:
    def test_identity_choi_is_rank_one(self):
        j = ch.choi_of(ch.identity_channel(2))
        w = np.linalg.eigvalsh(j)
        assert abs(np.trace(j) - 2) < 1e-12
        assert np.sum(w > 1e-10) == 1

    def test_dephasing_choi_hand_expansion(self):
        # sum_ij |i><j| (x) E(|i><j|) keeps only the diagonal blocks
        j = ch.choi_of(qubit_dephasing())
        assert np.allclose(j, np.diag([1.0, 0, 0, 1.0]))

    def test_trace_killing_channel_choi(self):
        # rho -> tr(rho) 1/2 has Choi 1/2 * identity
        elements = []
        for i in range(2):
            for j in range(2):
                e = np.zeros((2, 2), dtype=complex)
                e[i, j] = 1 / np.sqrt(2)
                elements.append(e)
        c = ch.Channel.from_elements(elements)
        assert np.allclose(ch.choi_of(c), np.eye(4) / 2)


class TestKrausFromChoi:
    def test_identity_single_element(self):
        c = ch.kraus_from_choi(ch.choi_of(ch.identity_channel(2)), 2, 2)
        assert c.n_elements == 1
        assert ch.channels_equal(c, ch.identity_channel(2))

    def test_dephasing_two_elements(self):
        c = ch.kraus_from_choi(ch.choi_of(qubit_dephasing()), 2, 2)
        assert c.n_elements == 2
        assert ch.channels_equal(c, qubit_dephasing())

    @pytest.mark.parametrize("seed", range(8))
    def test_round_trip_action(self, seed):
        rng = generator(seed)
        c = random_channel(rng, 3, 2, 4)
        back = ch.kraus_from_choi(ch.choi_of(c), c.dim_in, c.dim_out)
        assert ch.channels_equal(c, back, 1e-8)
        assert back.n_elements == min(4, 3 * 2)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            ch.kraus_from_choi(np.diag([1.0, -0.5, 0, 0]).astype(complex), 2, 2)


class TestDilation:
    def test_identity_embedding(self):
        iso = ch.dilate(ch.identity_channel(2))
        assert iso.d_env == 1
        assert np.allclose(iso.v, np.eye(2))

    def test_dephasing_copies_basis(self):
        iso = ch.dilate(qubit_dephasing())
        psi = np.array([0.6, 0.8], dtype=complex)
        out = iso.v @ psi
        expected = np.zeros(4, dtype=complex)
        expected[0] = 0.6  # |0> (x) |0>
        expected[3] = 0.8  # |1> (x) |1>
        assert np.allclose(out, expected)

    def test_elements_recovered_exactly(self):
        c = random_channel(generator(4), 3, 2, 3)
        iso = ch.dilate(c)
        blocks = iso.v.reshape(c.dim_out, iso.d_env, c.dim_in)
        for k, e in enumerate(c.elements):
            assert np.array_equal(blocks[:, k, :], e)

    @pytest.mark.parametrize("seed", range(6))
    def test_partial_trace_consistency(self, seed):
        rng = generator(seed)
        c = random_channel(rng, 3, 2, 4)
        iso = ch.dilate(c)
        rho = random_density(rng, 3)
        joint = iso.v @ rho @ dagger(iso.v)
        sys_out = partial_trace(joint, [c.dim_out, iso.d_env], {0})
        env_out = partial_trace(joint, [c.dim_out, iso.d_env], {1})
        assert op_norm(ch.apply(c, rho) - sys_out) < 1e-10
        assert op_norm(ch.apply(ch.complement(c), rho) - env_out) < 1e-10


class TestComplement:
    def test_dephasing_pattern(self):
        comp = ch.complement(qubit_dephasing())
        # elements |phi_i><i| with phi the environment basis
        for j, f in enumerate(comp.elements):
            expected = np.zeros((2, 2), dtype=complex)
            expected[j, j] = 1.0
            assert np.allclose(f, expected)

    def test_unitary_complement_is_constant(self):
        u = random_unitary(generator(5), 3)
        comp = ch.complement(ch.unitary_channel(u))
        rho = random_density(generator(6), 3)
        out = ch.apply(comp, rho)
        assert out.shape == (1, 1)
        assert abs(out[0, 0] - 1) < 1e-12

    def test_measurement_channel_leaks_the_measured_observable(self):
        from qichan.catalog import diamond_channel, diamond_pointer

        c = diamond_channel(3)
        comp = ch.complement(c)
        gamma = diamond_pointer(3)
        for k in range(3):
            proj = np.zeros((3, 3), dtype=complex)
            proj[k, k] = 1.0
            pulled = ch.apply_dual(comp, proj)
            assert op_norm(pulled - gamma.effects[k]) < 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_double_complement_preserves_the_same_algebra(self, seed):
        from qichan.algebras import spans_equal
        from qichan.correction import preserved_algebra

        rng = generator(seed + 60)
        c = random_channel(rng, 3, int(rng.integers(2, 4)), int(rng.integers(2, 4)))
        back = ch.complement(ch.complement(c))
        a1 = preserved_algebra(c)
        a2 = preserved_algebra(back)
        assert spans_equal(a1.carrier, a2.carrier, 1e-8)


class TestPovmProbabilities:
    def test_trivial_observable(self):
        x = ch.DiscreteObservable.from_effects([np.eye(3, dtype=complex)])
        assert np.allclose(ch.povm_probabilities(x, np.eye(3, dtype=complex) / 3), [1.0])

    def test_sic_on_maximally_mixed(self):
        probs = ch.povm_probabilities(sic_tetrahedron(), np.eye(2, dtype=complex) / 2)
        assert np.allclose(probs, 0.25)

    def test_sic_on_ground_state(self):
        sic = sic_tetrahedron()
        rho = np.diag([1.0, 0]).astype(complex)
        expected = [float(np.trace(rho @ e).real) for e in sic.effects]
        assert np.allclose(ch.povm_probabilities(sic, rho), expected)
        assert abs(sum(expected) - 1) < 1e-12
