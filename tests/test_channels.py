import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from qichan import channels as ch
from qichan.catalog import EXAMPLE_NAMES, PAULI_X, dephasing_channel, example_catalog, sic_tetrahedron
from qichan.errors import DimMismatch, NotPSD, NotTracePreserving
from qichan.numlin import Tolerance, dagger, op_norm
from qichan.rand import (
    generator,
    random_channel,
    random_hermitian,
    random_isometry,
    random_povm,
    random_sharp_observable,
    random_unitary,
)

PLUS = np.array([1, 1], dtype=complex) / np.sqrt(2)


def qubit_dephasing():
    return dephasing_channel(2)


class TestValidation:
    def test_identity_channel(self):
        rep = ch.validate_channel(ch.identity_channel(3))
        assert rep.trace_preserving

    def test_dephasing(self):
        rep = ch.validate_channel(qubit_dephasing())
        assert rep.trace_preserving

    def test_scaled_unitary_not_tp(self):
        rep = ch.validate_channel(ch.Channel.from_elements([2 * PAULI_X]))
        assert not rep.trace_preserving
        assert rep.tp_residual > 1

    @pytest.mark.parametrize("abs_eps", [1e-15, 1e-16])
    def test_rounding_is_not_a_tp_failure(self, seeded_channels, abs_eps):
        # 200 random channels and the catalogue's 15: their residuals reach
        # 0.50 k d_out d_in eps (1.006 k d_out eps at seed 34), below the cut
        chans = list(seeded_channels)
        for name in EXAMPLE_NAMES:
            chans += example_catalog(name, seed=0).channels.values()
        assert len(chans) == 215
        tol = Tolerance(abs_eps, 1e-10)
        for c in chans:
            assert ch.validate_channel(c, tol).trace_preserving
            ch.require_trace_preserving(c, tol)

    def test_the_rounding_floor_keeps_a_real_tp_failure(self):
        # a residual of 1e-12 is refused at abs_eps 1e-13 and below, and
        # passes at the default 1e-9
        c = ch.Channel.from_elements([np.sqrt(1 + 1e-12) * np.eye(2)])
        for abs_eps in (1e-13, 1e-16):
            assert not ch.validate_channel(c, Tolerance(abs_eps)).trace_preserving
            with pytest.raises(NotTracePreserving):
                ch.require_trace_preserving(c, Tolerance(abs_eps))
        assert ch.validate_channel(c).trace_preserving

    @pytest.mark.parametrize("abs_eps", [1e-15, 1e-16])
    def test_rounding_is_not_an_observable_failure(self, abs_eps):
        # 100 random sharp observables and 100 POVMs (d, m in [2, 8]) and the
        # catalogue's 9: Hermiticity and spectrum reach 0.50 d^2 eps and
        # completeness 0.55 m d^2 eps, below their cuts
        obs = []
        for s in range(100):
            rng = generator(s)
            d, m = int(rng.integers(2, 9)), int(rng.integers(2, 9))
            obs += [random_povm(rng, d, m), random_sharp_observable(rng, d, min(m, d))]
        for name in EXAMPLE_NAMES:
            obs += example_catalog(name, seed=0).observables.values()
        assert len(obs) == 209
        tol = Tolerance(abs_eps, 1e-10)
        for x in obs:
            assert ch.validate_observable(x, tol).violation is None

    @pytest.mark.parametrize(
        "invariant, effects",
        [
            # each breaks its invariant by 1e-12
            ("effects Hermitian", [[[0.5, 1e-12], [0, 0.5]], [[0.5, -1e-12], [0, 0.5]]]),
            ("effect spectrum >= 0", [[[-1e-12, 0], [0, 0]], [[0.5 + 1e-12, 0], [0, 0.5]], [[0.5, 0], [0, 0.5]]]),
            ("effect spectrum <= 1", [[[1 + 1e-12, 0], [0, 1]]]),
            ("sum X_i = 1", [[[0.5, 0], [0, 0.5]], [[0.5, 0], [0, 0.5 + 1e-12]]]),
        ],
    )
    def test_the_rounding_floor_keeps_a_real_observable_failure(self, invariant, effects):
        x = ch.DiscreteObservable.from_effects(np.array(effects, dtype=complex))
        for abs_eps in (1e-13, 1e-16):
            assert ch.validate_observable(x, Tolerance(abs_eps)).violation[0] == invariant
        assert ch.validate_observable(x).violation is None

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

    def test_list_and_stack_inputs_agree(self):
        k = random_channel(generator(4), 3, 2, 5).elements
        from_list = ch.Channel.from_elements(list(k)).elements
        from_stack = ch.Channel.from_elements(np.array(k)).elements
        assert np.array_equal(from_list, from_stack)
        for got in (from_list, from_stack):
            assert got.shape == (5, 2, 3) and got.dtype == np.complex128 and not got.flags.writeable
        x = sic_tetrahedron().effects
        from_list, from_stack = ch.DiscreteObservable.from_effects(list(x)), ch.DiscreteObservable.from_effects(x)
        assert np.array_equal(from_list.effects, from_stack.effects)

    def test_stack_input_is_copied_and_checked(self):
        k = np.stack([np.eye(2), np.zeros((2, 2))]).astype(complex)
        c = ch.Channel.from_elements(k)
        assert not np.shares_memory(c.elements, k) and k.flags.writeable
        bad = k.copy()
        bad[1, 0, 1] = np.nan
        for stack in (bad, list(bad)):
            with pytest.raises(ValueError, match="finite"):
                ch.Channel.from_elements(stack)
        # a single matrix, a stack of stacks, an empty stack, non-square effects
        for stack in (np.eye(2), np.zeros((2, 2, 2, 2)), np.zeros((0, 2, 2))):
            with pytest.raises(DimMismatch):
                ch.Channel.from_elements(stack)
        with pytest.raises(DimMismatch):
            ch.DiscreteObservable.from_effects(np.ones((2, 2, 3)))


class TestApplyAndDuality:
    def test_dephasing_kills_coherences(self):
        rho = np.outer(PLUS, PLUS.conj())
        assert op_norm(ch.apply(qubit_dephasing(), rho) - np.eye(2) / 2) < 1e-12

    def test_dual_unital(self):
        c = random_channel(generator(0), 3, 4, 5)
        assert op_norm(ch.apply_dual(c, np.eye(4, dtype=complex)) - np.eye(3)) < 1e-10

    @pytest.mark.parametrize("seed", range(10))
    def test_duality_identity(self, seed, random_density):
        rng = generator(seed)
        c = random_channel(rng, 3, 2, 4)
        rho = random_density(rng, 3)
        a = random_hermitian(rng, 2)
        lhs = np.trace(ch.apply(c, rho) @ a)
        rhs = np.trace(rho @ ch.apply_dual(c, a))
        assert abs(lhs - rhs) < 1e-10

    @pytest.mark.parametrize(
        "seed, stack, entries",
        [
            *(pytest.param(s, (), None, id=str(s)) for s in range(4)),
            pytest.param(4, (2, 3), None, id="stack"),
            # the 4 elements hold 60 entries: chunks of 2 operands, the last one short
            pytest.param(5, (7,), 120, id="chunked"),
        ],
    )
    def test_matches_element_sum(self, seed, stack, entries, random_density, monkeypatch):
        # reference: the defining sums over elements, one matrix at a time;
        # a stack of states or effects maps matrix by matrix
        if entries is not None:
            monkeypatch.setattr(ch, "SANDWICH_ENTRIES", entries)
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


def test_pullback_of_an_operator_basis_streams_under_a_memory_cap():
    # apply_dual of the 4096 Hermitian basis matrices of C^64 (256 MiB)
    # through the 64 elements of diamonds-inf, capped at 768 MiB of address
    # space: A [E_1 ... E_64] for the whole stack at once would add 512 MiB
    script = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (3 << 28, 3 << 28))
        import numpy as np
        from qichan.catalog import example_catalog
        from qichan.channels import apply_dual

        c = example_catalog("diamonds-inf").channels["channel"]
        d = c.dim_out
        i, j = np.triu_indices(d, 1)
        sym, anti = d + np.arange(len(i)), d + len(i) + np.arange(len(i))
        basis = np.zeros((d * d, d, d), dtype=np.complex128)
        basis[np.arange(d), np.arange(d), np.arange(d)] = 1
        basis[sym, i, j] = basis[sym, j, i] = 1 / np.sqrt(2)
        basis[anti, i, j], basis[anti, j, i] = 1j / np.sqrt(2), -1j / np.sqrt(2)
        out = apply_dual(c, basis)
        want = [sum(e.conj().T @ basis[k] @ e for e in c.elements) for k in (sym[100], anti[-1])]
        print(np.abs(out[:d].sum(axis=0) - np.eye(2)).max(), np.abs(out[[sym[100], anti[-1]]] - want).max())
        """
    )
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(Path(ch.__file__).resolve().parents[1]))
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr[-2000:]
    unital, element_sum = map(float, out.stdout.split())
    assert unital < 1e-13 and element_sum < 1e-14


class TestComposeTensor:
    def test_compose_identity(self):
        c = random_channel(generator(1), 2, 2, 3)
        composed = ch.compose(ch.identity_channel(2), c)
        assert ch.channels_equal(composed, c)

    def test_unitary_inverse(self):
        u = random_unitary(generator(2), 3)
        composed = ch.compose(ch.Channel.from_elements([dagger(u)]), ch.Channel.from_elements([u]))
        assert ch.channels_equal(composed, ch.identity_channel(3))

    def test_tensor_with_identity(self, random_density):
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

    @pytest.mark.parametrize("abs_eps", [1e-15, 1e-16])
    def test_round_trip_below_rounding(self, seeded_channels, abs_eps):
        # the Choi kernel's eigenvalues are rounding of either sign, within
        # 0.15 d eps of the largest (d = d_in d_out), and its Hermitian
        # residual within 0.07 d eps: psd_eig's cut is d eps of the largest
        tol = Tolerance(abs_eps, 1e-10)
        for c in seeded_channels:
            back = ch.kraus_from_choi(ch.choi_of(c), c.dim_in, c.dim_out, tol)
            assert ch.channels_equal(c, back, 1e-12)

    def test_rejects_non_psd(self):
        with pytest.raises(NotPSD):
            ch.kraus_from_choi(np.diag([1.0, -0.5, 0, 0]).astype(complex), 2, 2)


class TestDilation:
    @pytest.mark.parametrize("seed", range(6))
    def test_partial_trace_consistency(self, seed, random_density):
        rng = generator(seed)
        c = random_channel(rng, 3, 2, 4)
        # V = sum_k E_k (x) |k>, an isometry H_in -> H_out (x) H_env
        v = sum(np.kron(e, np.eye(c.n_elements)[:, [k]]) for k, e in enumerate(c.elements))
        assert op_norm(dagger(v) @ v - np.eye(c.dim_in)) < 1e-12
        rho = random_density(rng, 3)
        joint = (v @ rho @ dagger(v)).reshape(c.dim_out, c.n_elements, c.dim_out, c.n_elements)
        sys_out = np.einsum("akbk->ab", joint)
        env_out = np.einsum("oaob->ab", joint)
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

    def test_unitary_complement_is_constant(self, random_density):
        u = random_unitary(generator(5), 3)
        comp = ch.complement(ch.Channel.from_elements([u]))
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


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(lambda: ch.kraus_from_choi(np.eye(3), 2, 2), DimMismatch, id="choi-shape"),
        pytest.param(lambda: ch.kraus_from_choi(np.zeros((4, 4)), 2, 2), NotPSD, id="zero-choi"),
        pytest.param(
            lambda: ch.channels_equal(ch.identity_channel(2), ch.identity_channel(3)), False, id="two-dims"
        ),
        pytest.param(lambda: random_isometry(generator(0), 2, 3), ValueError, id="wide-isometry"),
        pytest.param(lambda: random_sharp_observable(generator(0), 2, 3), ValueError, id="sharp-outcomes"),
    ],
)
def test_refusals(call, refusal):
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(refusal):
            call()
