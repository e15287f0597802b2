import numpy as np
import pytest

from qichan import correction as co
from qichan.algebras import block_pattern_residual, span_of, spans_equal
from qichan.catalog import (
    PAULI_X,
    EXAMPLE_NAMES,
    PAULI_Z,
    analyze_bundle,
    bitflip3_channel,
    block_pinch_channel,
    dephasing_channel,
    example_catalog,
    pauli_on,
    repetition_code,
    teleport_channel,
)
from qichan.channels import (
    Channel,
    apply_dual,
    channels_equal,
    choi_of,
    complement,
    identity_channel,
    tensor,
    validate_channel,
)
from qichan.decoherence import pointer_algebra
from qichan.errors import BadFactorization, DimMismatch
from qichan.numlin import DEFAULT_TOL, Tolerance, dagger, op_norm
from qichan.rand import generator, random_channel, random_isometry, random_unitary


def full_support_channel(seed, d, k):
    """Random endomorphic channel whose image of the identity is invertible."""
    c = random_channel(generator(seed), d, d, k)
    image = sum(e @ dagger(e) for e in c.elements)
    assert np.linalg.eigvalsh(image)[0] > 1e-6
    return c


def _dephased_qubit_times_random(seed, m):
    """Dephased qubit (seeded basis) times a random 2-element channel on C^m."""
    rng = generator(seed)
    u = random_unitary(rng, 2)
    qubit = Channel.from_elements([np.diag(np.eye(2)[i]) @ u for i in range(2)])
    return tensor(qubit, random_channel(rng, m, m, 2))


def _weak_bitflip(p):
    return Channel.from_elements([np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * PAULI_X])


def _noisy_pinch(sizes, eta, seed):
    """``block_pinch_channel`` with complex Gaussian noise of operator norm
    ``eta`` added to each element, renormalized to trace preserving."""
    c, _ = block_pinch_channel(sizes, seed=seed)
    rng = generator(100 + seed)
    k = c.elements
    g = rng.standard_normal(k.shape) + 1j * rng.standard_normal(k.shape)
    e = k + eta * g / np.linalg.norm(g, 2, axis=(1, 2))[:, None, None]
    w, u = np.linalg.eigh((dagger(e) @ e).sum(axis=0))
    return Channel.from_elements(e @ (u / np.sqrt(w)) @ dagger(u))


class TestPreservedCarrier:
    @pytest.mark.parametrize(
        "channels",
        [
            lambda: [random_channel(generator(s), 3, 3, 2) for s in (1, 2)],
            lambda: [block_pinch_channel((2, 3, 1), seed=4)[0], dephasing_channel(6)],
            lambda: [c := _dephased_qubit_times_random(7, 4), complement(c)],
        ],
        ids=["random-pair", "pinch-and-dephasing", "pointer-d8"],
    )
    def test_same_algebra_as_commutant_of_the_joined_span_bases(self, channels):
        # the span route: every basis matrix of every unit-weight span
        channels = channels()
        listed = [b for ch in channels for b in co.interaction_span(ch).basis]
        expected = co.commutant(listed, DEFAULT_TOL)
        carrier = co._preserved_carrier(channels, DEFAULT_TOL)
        assert carrier.dimension == expected.dimension
        assert spans_equal(carrier, expected, 1e-10)

    def test_kraus_mixing_keeps_the_pointer_effects(self):
        # the plain dephasing's off-diagonal products are exact zeros and are
        # dropped; after a unitary mixing of its elements none is zero
        plain = dephasing_channel(8)
        w = random_unitary(generator(3), 8)
        mixed = Channel.from_elements(np.einsum("ab,bij->aij", w, plain.elements))
        assert channels_equal(plain, mixed)
        effects = [pointer_algebra(c).pointer_effects.effects for c in (plain, mixed)]
        assert op_norm(effects[0] - effects[1]) <= 1e-10
        assert op_norm(effects[0] - dephasing_channel(8).elements) <= 1e-10


class TestToleranceDecides:
    """The caller's tolerance, not a fixed span cut, decides which weak
    interaction counts."""

    @pytest.mark.parametrize("p", [1e-6, 1e-12, 1e-15])
    @pytest.mark.parametrize("rank_rel", [1e-10, 1e-14])
    def test_weak_bitflip_keeps_its_x_term(self, p, rank_rel):
        # the products span {1, X}, whose commutant is the algebra of X
        st = co.preserved_algebra(_weak_bitflip(p), Tolerance(rank_rel=rank_rel))
        assert st.block_dims == ((1, 1), (1, 1))
        for proj in st.central_projectors:
            assert op_norm(PAULI_X @ proj - proj @ PAULI_X) <= 1e-10

    @pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("eta", [1e-6, 1e-5, 1e-4, 1e-3])
    def test_pinch_noise_below_the_tolerance_keeps_the_blocks(self, sizes, eta):
        # the cut sits at least ten times above the noise, and the carrier
        # leaves the block pattern only at second order in the noise
        cut = max(1e-3, 10 * eta)
        st = co.preserved_algebra(_noisy_pinch(sizes, eta, seed=1), Tolerance(cut, cut))
        assert sorted(st.block_dims) == sorted((s, 1) for s in sizes)
        assert block_pattern_residual(st) <= 100 * eta**2

    @pytest.mark.parametrize("sizes", [(2, 1), (2, 2), (3, 1)])
    @pytest.mark.parametrize("eta", [1e-6, 1e-5, 1e-4])
    def test_pinch_noise_above_the_tolerance_leaves_the_scalars(self, sizes, eta):
        st = co.preserved_algebra(_noisy_pinch(sizes, eta, seed=1), Tolerance(1e-9, 1e-9))
        assert st.block_dims == ((1, sum(sizes)),)


class TestInteractionSpan:
    def test_unitary_span_is_scalars(self):
        u = random_unitary(generator(0), 3)
        span = co.interaction_span(Channel.from_elements([u]))
        assert span.dimension == 1
        assert span.contains(np.eye(3, dtype=complex))

    def test_dephasing_span_is_diagonal(self):
        span = co.interaction_span(dephasing_channel(3))
        assert span.dimension == 3
        assert span.contains(np.diag([1.0, 2.0, 3.0]).astype(complex))

    def test_teleport_span_is_scalars(self):
        span = co.interaction_span(teleport_channel())
        assert span.dimension == 1

    @pytest.mark.parametrize(
        "channel, rank",
        [
            (lambda: Channel.from_elements([random_unitary(generator(0), 3)]), 1),
            (lambda: dephasing_channel(3), 3),
            (teleport_channel, 1),
            (lambda: block_pinch_channel((2, 3, 1), seed=9)[0], 3),
        ],
        ids=["unitary", "dephasing", "teleport", "pinch"],
    )
    @pytest.mark.parametrize("rank_rel", [1e-10, 1e-6])
    def test_rank_is_the_span_dimension(self, channel, rank, rank_rel):
        # the rank of the stacked products, with no product near the cut
        c = channel()
        k = c.elements
        prods = (dagger(k)[:, None] @ k[None]).reshape(c.n_elements**2, -1)
        assert np.linalg.matrix_rank(prods, tol=1e-6) == rank
        assert co.interaction_span(c, Tolerance(rank_rel=rank_rel)).dimension == rank

    def test_kraus_products_are_the_pairwise_products(self, seeded_channels):
        # reference: E_i^dag E_j one pair at a time, at row i k + j
        rectangular = [c for c in seeded_channels if c.dim_in != c.dim_out][:40]
        for c in [*rectangular, example_catalog("diamonds-inf").channels["channel"]]:
            want = np.array([dagger(a) @ b for a in c.elements for b in c.elements])
            assert op_norm(co._kraus_products(c) - want) < 1e-13

    @pytest.mark.parametrize("name", EXAMPLE_NAMES)
    def test_dimension_from_singular_values_is_the_basis_size(self, name):
        for c in example_catalog(name).channels.values():
            for tol in (DEFAULT_TOL, Tolerance(rank_rel=1e-6)):
                assert co.interaction_span_dimension(c, tol) == co.interaction_span(c, tol).dimension

    def test_rank_rel_decides_a_weak_product(self):
        # sqrt(p (1 - p)) X is 3e-8 of the identity's weight: above the
        # default rank_rel 1e-10, below 1e-6
        c = _weak_bitflip(1e-15)
        assert co.interaction_span(c).dimension == 2
        assert co.interaction_span(c, Tolerance(rank_rel=1e-6)).dimension == 1


class TestPreservedAlgebra:
    def test_dephasing(self):
        st = co.preserved_algebra(dephasing_channel(4))
        assert st.block_dims == ((1, 1),) * 4

    def test_block_pinch(self):
        c, projs = block_pinch_channel((2, 3, 1), seed=9)
        st = co.preserved_algebra(c)
        assert set(st.block_dims) == {(2, 1), (3, 1), (1, 1)}
        # unitary after the pinch plays no role in what is preserved
        c_plain, _ = block_pinch_channel((2, 3, 1), seed=9)
        assert set(co.preserved_algebra(c_plain).block_dims) == set(st.block_dims)

    def test_unitary_channel_preserves_everything(self):
        u = random_unitary(generator(1), 3)
        st = co.preserved_algebra(Channel.from_elements([u]))
        assert st.block_dims == ((3, 1),)

    @pytest.mark.parametrize("seed", range(4))
    def test_block_order_survives_kraus_mixing(self, seed):
        # the eight rank-one blocks of the bit flip tie on (n, m) and on
        # tr(P diag(0..7)) = 3.5; the projectors themselves fix their order
        c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
        w = random_unitary(generator(seed), c.n_elements)
        mixed = Channel.from_elements(np.einsum("ab,bij->aij", w, c.elements))
        projs = [co.preserved_algebra(ch).central_projectors for ch in (c, mixed)]
        assert projs[0].shape == (8, 8, 8)
        assert op_norm(projs[0] - projs[1]) <= 1e-10


class TestCorrectionChannel:
    def test_unitary_inverts(self):
        u = random_unitary(generator(2), 3)
        r = co.correction_channel(Channel.from_elements([u]))
        assert channels_equal(r, Channel.from_elements([dagger(u)]), 1e-9)

    def test_dephasing_fixes_diagonals(self):
        c = dephasing_channel(3)
        r = co.correction_channel(c)
        st = co.preserved_algebra(c)
        assert co.fixed_point_residual(c, r, st.carrier) < 1e-10

    def test_repetition_code_correction_matches_hand_built(self):
        # R0*(A) = V A V^dag + sum_i X_i V A V^dag X_i
        c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
        code = repetition_code()
        c0 = co.restrict(c, code)
        r0 = co.correction_channel(c0)
        v = code.v
        flips = [pauli_on(3, q, PAULI_X) for q in range(3)]
        rng = generator(3)
        for _ in range(5):
            a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            hand = v @ a @ dagger(v) + sum(x @ v @ a @ dagger(v) @ x for x in flips)
            got = apply_dual(r0, a)
            assert op_norm(got - hand) < 1e-9

    def test_completion_branch_makes_total_channel(self):
        # restricting to a ray starves most of the output space; the
        # correction must still be trace preserving on all of it
        c = identity_channel(3)
        v = np.zeros((3, 1), dtype=complex)
        v[2, 0] = 1.0
        c0 = co.restrict(c, co.CodeSubspace.from_isometry(v))
        r0 = co.correction_channel(c0)
        assert validate_channel(r0).trace_preserving

    @pytest.mark.parametrize("seed", range(12))
    def test_rank_deficient_matches_oracle_form(self, seed):
        # fewer elements than output levels leave E(1) a kernel; the oracle
        # builds E_k^dag E(1)^(-1/2) and one sink |0><u| per kernel vector
        # from its own eigendecomposition
        rng = generator(seed + 200)
        d_in = int(rng.integers(2, 4))
        n = int(rng.integers(1, 3))
        d_out = d_in * n + int(rng.integers(1, 4))
        c = random_channel(rng, d_in, d_out, n)
        e1 = sum(e @ dagger(e) for e in c.elements)
        w, u = np.linalg.eigh(e1)
        keep = w > DEFAULT_TOL.rank_rel * w[-1]
        assert not keep.all()
        inv_sqrt = (u[:, keep] / np.sqrt(w[keep])) @ dagger(u[:, keep])
        sink = np.zeros((d_in, 1), dtype=complex)
        sink[0, 0] = 1.0
        oracle = [dagger(e) @ inv_sqrt for e in c.elements]
        oracle += [sink @ dagger(u[:, [i]]) for i in np.flatnonzero(~keep)]
        r = co.correction_channel(c)
        assert validate_channel(r).trace_preserving
        assert op_norm(choi_of(r) - choi_of(Channel.from_elements(oracle))) < 1e-12


    def test_rounding_floor_keeps_kernel_out_of_support(self):
        # at rank_rel 1e-16 the roundoff s^2 of E(1)'s kernel pass the
        # relative cut; above_cut's floor of d_out eps keeps them out
        tol = Tolerance(1e-9, 1e-16)
        for seed in range(400):
            rng = generator(seed + 1000)
            d_in = int(rng.integers(2, 5))
            n = int(rng.integers(1, 3))
            c = random_channel(rng, d_in, d_in * n + int(rng.integers(1, 5)), n)
            assert validate_channel(co.correction_channel(c, tol)).trace_preserving

    @pytest.mark.parametrize("eps", [1e-7, 1e-8, 1e-9])
    def test_ill_conditioned_image_of_the_identity(self, rotated_amplitude_damping, eps):
        # E(1) is conditioned like 2 / eps; R is a partial isometry, so its
        # trace preservation does not depend on that conditioning
        for seed in range(20):
            c = rotated_amplitude_damping(eps, seed)
            assert validate_channel(co.correction_channel(c)).trace_preserving
            assert co.correctable_report(c).residuals["fixed_point"] <= 1e-8

    @pytest.mark.parametrize("abs_eps", [1e-15, 1e-16])
    def test_no_refusal_below_rounding(self, seeded_channels, abs_eps):
        # only rank_rel is read, so no abs_eps refuses a channel
        tol = Tolerance(abs_eps, 1e-10)
        for c in seeded_channels:
            r = co.correction_channel(c, tol)
            assert (r.dim_in, r.dim_out) == (c.dim_out, c.dim_in)
            assert validate_channel(r).trace_preserving


class TestRestrict:
    def test_full_space_is_identity_restriction(self):
        c = random_channel(generator(5), 3, 4, 2)
        same = co.restrict(c, co.CodeSubspace.from_isometry(np.eye(3, dtype=complex)))
        assert channels_equal(c, same)

    def test_repetition_embedding(self):
        c = bitflip3_channel((0.25, 0.25, 0.25, 0.25))
        c0 = co.restrict(c, repetition_code())
        assert c0.dim_in == 2 and c0.dim_out == 8 and c0.n_elements == 4
        for e0, e in zip(c0.elements, c.elements):
            assert np.allclose(e0, e @ repetition_code().v)

    def test_one_dimensional_code(self):
        c = dephasing_channel(3)
        v = np.zeros((3, 1), dtype=complex)
        v[0, 0] = 1.0
        c0 = co.restrict(c, co.CodeSubspace.from_isometry(v))
        out = sum(e @ dagger(e) for e in c0.elements)
        assert op_norm(out - np.diag([1.0, 0, 0])) < 1e-12


class TestOperatorSystem:
    def test_identity_channel_projected_pattern(self):
        c = identity_channel(3)
        v = np.zeros((3, 2), dtype=complex)
        v[0, 0] = v[1, 1] = 1.0
        code = co.CodeSubspace.from_isometry(v)
        s0 = co.correctable_operator_system(c, code)
        p = code.v @ code.v.conj().T
        lifted = span_of([v @ a @ dagger(v) for a in co.preserved_algebra(
            co.restrict(c, code)).carrier.basis])
        projected = span_of([p @ b @ p for b in s0.basis])
        assert spans_equal(projected, lifted, 1e-8)

    def test_bitflip_closed_form(self):
        p = (0.4, 0.2, 0.2, 0.2)
        c = bitflip3_channel(p)
        code = repetition_code()
        s0 = co.correctable_operator_system(c, code)
        assert s0.dimension == 4
        xs = [np.eye(8, dtype=complex)] + [pauli_on(3, q, PAULI_X) for q in range(3)]
        closed = []
        for i in (0, 7):
            for j in (0, 7):
                ket = np.zeros((8, 8), dtype=complex)
                ket[i, j] = 1.0
                t = ket.copy()
                for k in range(4):
                    for l in range(4):
                        if k != l:
                            t = t + p[k] * xs[k] @ xs[l] @ ket @ xs[l] @ xs[k]
                closed.append(t)
        assert spans_equal(s0, span_of(closed), 1e-8)

    def test_correctability_identity_without_state_restriction(self):
        c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
        code = repetition_code()
        r0 = co.correction_channel(co.restrict(c, code))
        s0 = co.correctable_operator_system(c, code)
        for a in s0.basis:
            back = apply_dual(c, apply_dual(r0, dagger(code.v) @ a @ code.v))
            assert op_norm(back - a) < 1e-7

    def test_full_space_code_composition(self):
        c = full_support_channel(7, 3, 3)
        code = co.CodeSubspace.from_isometry(np.eye(3, dtype=complex))
        s0 = co.correctable_operator_system(c, code)
        r = co.correction_channel(c)
        expected = span_of(
            [apply_dual(c, apply_dual(r, a)) for a in co.preserved_algebra(c).carrier.basis]
        )
        assert spans_equal(s0, expected, 1e-7)


class TestKnillLaflamme:
    def test_repetition_code_passes(self):
        kl = co.kl_check(bitflip3_channel((0.4, 0.2, 0.2, 0.2)), repetition_code())
        assert kl.passes
        assert kl.residual < 1e-12
        lam = kl.lambdas.reshape(4, 4)
        assert abs(np.trace(lam) - 1) < 1e-10
        w = np.linalg.eigvalsh(lam)
        assert w[0] > -1e-12

    def test_phase_error_fails(self):
        z1 = Channel.from_elements(
            [np.sqrt(0.5) * np.eye(8, dtype=complex), np.sqrt(0.5) * pauli_on(3, 0, PAULI_Z)]
        )
        kl = co.kl_check(z1, repetition_code())
        assert not kl.passes
        assert kl.residual > 0.1

    @pytest.mark.parametrize("abs_eps", [1e-15, 1e-16])
    def test_rounding_is_not_a_failure(self, abs_eps):
        # the repetition code in 50 seeded bases is isometric and exactly
        # correctable: its residuals reach 0.24 n eps (isometry, n = 16) and
        # 0.02 n eps (KL, n = 64); the random 8 x 3 isometries 0.20 n eps
        tol = Tolerance(abs_eps, 1e-10)
        c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
        for seed in range(50):
            code = co.CodeSubspace.from_isometry(repetition_code().v @ random_unitary(generator(seed), 2), tol)
            assert co.kl_check(c, code, tol).passes
            co.CodeSubspace.from_isometry(random_isometry(generator(seed), 8, 3), tol)

    def test_the_rounding_floor_keeps_a_real_failure(self):
        # columns off isometry by 1e-12 are refused at abs_eps 1e-13 and
        # below, and pass at the default 1e-9; a Z error still fails KL
        v = np.sqrt(1 + 1e-12) * np.eye(3, 2, dtype=complex)
        for abs_eps in (1e-13, 1e-16):
            with pytest.raises(DimMismatch):
                co.CodeSubspace.from_isometry(v, Tolerance(abs_eps))
        co.CodeSubspace.from_isometry(v)
        report = analyze_bundle(example_catalog("bitflip3"), Tolerance(1e-16, 1e-10))
        assert report["kl_passes"] and not report["kl_z1_passes"]

    def test_teleport_full_qubit(self):
        kl = co.kl_check(teleport_channel(), co.CodeSubspace.from_isometry(np.eye(2, dtype=complex)))
        assert kl.passes
        assert op_norm(kl.lambdas.reshape(4, 4) - np.eye(4) / 4) < 1e-12


    @pytest.mark.parametrize("seed", range(12))
    def test_matches_pairwise_reference(self, seed):
        # d = 2..6, k = 1..4 elements, random isometric codes of dim 1..d
        d, k = 2 + seed % 5, 1 + seed % 4
        d_code = 1 + seed % d
        rng = generator(100 + seed)
        c = random_channel(rng, d, d, k)
        code = co.CodeSubspace.from_isometry(random_isometry(rng, d, d_code))
        v = code.v
        lam = np.zeros((k, k), dtype=complex)
        residual = 0.0
        for i in range(k):
            for j in range(k):
                m = v.conj().T @ c.elements[i].conj().T @ c.elements[j] @ v
                lam[i, j] = np.trace(m) / d_code
                residual = max(residual, np.linalg.norm(m - lam[i, j] * np.eye(d_code), 2))
        kl = co.kl_check(c, code)
        assert kl.lambdas.shape == (k * k, 1, 1)
        assert np.abs(kl.lambdas.reshape(k, k) - lam).max() <= 1e-14
        assert abs(kl.residual - residual) <= 1e-14
        assert kl.passes == (residual <= DEFAULT_TOL.abs_eps)


class TestOQEC:
    def test_reduces_to_scalar_condition(self):
        c = bitflip3_channel((0.4, 0.2, 0.2, 0.2))
        rep = co.oqec_check(c, repetition_code(), (2, 1))
        assert rep.passes
        for lam in rep.lambdas:
            assert lam.shape == (1, 1)

    def test_noiseless_subsystem_by_construction(self):
        rng = generator(11)
        k = random_channel(rng, 2, 2, 3)
        elements = [np.kron(np.eye(2, dtype=complex), e) for e in k.elements]
        c = Channel.from_elements(elements)
        code = co.CodeSubspace.from_isometry(np.eye(4, dtype=complex))
        rep = co.oqec_check(c, code, (2, 2))
        assert rep.passes

    def test_repetition_code_fails_nontrivial_split_against_z(self):
        z1 = Channel.from_elements(
            [np.sqrt(0.5) * np.eye(8, dtype=complex), np.sqrt(0.5) * pauli_on(3, 0, PAULI_Z)]
        )
        # the only split protecting a nontrivial subsystem of the 2-dim code
        assert not co.oqec_check(z1, repetition_code(), (2, 1)).passes
        # d_A = 1 protects nothing, so the condition is vacuously met
        assert co.oqec_check(z1, repetition_code(), (1, 2)).passes

    def test_bad_factorization(self):
        with pytest.raises(BadFactorization):
            co.oqec_check(bitflip3_channel((0.4, 0.2, 0.2, 0.2)), repetition_code(), (2, 2))


class TestSpanEquivalence:
    def test_kraus_mixing_is_equivalent(self):
        c = random_channel(generator(13), 3, 3, 3)
        u = random_unitary(generator(14), 3)
        mixed = Channel.from_elements(
            [sum(u[i, j] * c.elements[j] for j in range(3)) for i in range(3)]
        )
        assert co.span_equivalent(c, mixed)
        a1 = co.preserved_algebra(c)
        a2 = co.preserved_algebra(mixed)
        assert spans_equal(a1.carrier, a2.carrier, 1e-8)

    def test_rank_rel_decides_a_weak_element(self):
        # sqrt(p) X is 3e-8 of the identity's weight: a second direction at
        # the default rank_rel 1e-10, roundoff-sized at 1e-6
        weak, plain = _weak_bitflip(1e-15), identity_channel(2)
        assert not co.span_equivalent(weak, plain)
        assert co.span_equivalent(weak, plain, Tolerance(rank_rel=1e-6))

    @pytest.mark.parametrize("abs_eps, equivalent", [(1e-9, False), (1e-8, True)])
    def test_abs_eps_decides_a_small_rotation(self, abs_eps, equivalent):
        # the spans of 1 and exp(-i t X) differ by sin t = 3e-9 in projector norm
        t = 3e-9
        rotated = Channel.from_elements([np.cos(t) * np.eye(2) - 1j * np.sin(t) * PAULI_X])
        tol = Tolerance(abs_eps=abs_eps)
        assert co.span_equivalent(rotated, identity_channel(2), tol) == equivalent

    def test_different_channels_not_equivalent(self):
        assert not co.span_equivalent(dephasing_channel(2), Channel.from_elements([np.eye(2, dtype=complex)]))

    def test_constructed_common_span(self):
        # three elements with E_i^dag E_j = delta_ij / 3: any invertible
        # coefficient mixing of Frobenius norm sqrt(3) keeps the family
        # trace preserving while obviously keeping the element span
        rng = generator(15)
        unitaries = [np.eye(2, dtype=complex), random_unitary(rng, 2), random_unitary(rng, 2)]
        base = [
            np.kron(np.eye(3, dtype=complex)[:, i : i + 1], unitaries[i]) / np.sqrt(3)
            for i in range(3)
        ]
        c1 = Channel.from_elements(base)
        mix = generator(23)
        gamma = mix.standard_normal((3, 3)) + 1j * mix.standard_normal((3, 3))
        gamma *= np.sqrt(3) / np.linalg.norm(gamma)
        c2 = Channel.from_elements(
            [sum(gamma[i, j] * base[j] for j in range(3)) for i in range(3)]
        )
        from qichan.channels import validate_channel

        assert validate_channel(c2).trace_preserving
        assert co.span_equivalent(c1, c2)
        assert spans_equal(
            co.preserved_algebra(c1).carrier, co.preserved_algebra(c2).carrier, 1e-7
        )
        # the correction built from c1 corrects c2's preserved algebra
        r1 = co.correction_channel(c1)
        assert co.fixed_point_residual(c2, r1, co.preserved_algebra(c2).carrier) < 1e-7


# pairs of preserved-algebra basis elements homomorphism_residual evaluates at most
HOMOMORPHISM_PAIRS = 256


def homomorphism_residual(c: Channel, structure, tol: Tolerance = DEFAULT_TOL) -> float:
    """How far E* is from multiplicative on the image of R*.

    Evaluates ||E*(R*(A) R*(B)) - A B|| over pairs of basis elements of
    the preserved algebra, a seeded sample of ``HOMOMORPHISM_PAIRS`` of
    them when there are more.
    """
    r = co.correction_channel(c, tol)
    basis = structure.carrier.basis
    k = basis.shape[0]
    pairs = np.arange(k * k)
    if pairs.size > HOMOMORPHISM_PAIRS:
        pairs = np.random.default_rng(0).choice(pairs.size, size=HOMOMORPHISM_PAIRS, replace=False)
    i, j = np.divmod(pairs, k)
    lifted = apply_dual(r, basis)
    return op_norm(apply_dual(c, lifted[i] @ lifted[j]) - basis[i] @ basis[j])


class TestHomomorphism:
    def test_unitary(self):
        u = random_unitary(generator(16), 3)
        c = Channel.from_elements([u])
        assert homomorphism_residual(c, co.preserved_algebra(c)) < 1e-10

    def test_dephasing(self):
        c = dephasing_channel(3)
        assert homomorphism_residual(c, co.preserved_algebra(c)) < 1e-8

    def test_restricted_code_channel(self):
        c0 = co.restrict(bitflip3_channel((0.4, 0.2, 0.2, 0.2)), repetition_code())
        assert homomorphism_residual(c0, co.preserved_algebra(c0)) < 1e-8

    def test_samples_pairs_above_the_cap(self, monkeypatch):
        # the identity on C^5 preserves M_5: 25 basis elements, 625 pairs
        c = Channel.from_elements([np.eye(5, dtype=complex)])
        structure = co.preserved_algebra(c)
        assert structure.dimension**2 > HOMOMORPHISM_PAIRS
        sizes, dual = [], apply_dual

        def counted(channel, ops):
            sizes.append(len(ops))
            return dual(channel, ops)

        monkeypatch.setitem(globals(), "apply_dual", counted)
        assert homomorphism_residual(c, structure) < 1e-12
        # R* lifts the basis once, and E* sees the sampled products only
        assert sizes == [structure.dimension, HOMOMORPHISM_PAIRS]


class TestSharpToSharp:
    @pytest.mark.parametrize("seed", range(6))
    def test_correction_dual_maps_projectors_to_projectors(self, seed):
        c = full_support_channel(seed + 30, 4, 3)
        st = co.preserved_algebra(c)
        r = co.correction_channel(c)
        for p in st.central_projectors:
            b = apply_dual(r, p)
            assert op_norm(b @ b - b) < 1e-7


# a two-dimensional code in a two-dimensional space, against the three-qubit channel
_WRONG_SPACE = co.CodeSubspace.from_isometry(np.eye(2, dtype=complex))
_BITFLIP3 = bitflip3_channel((0.4, 0.2, 0.2, 0.2))


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(lambda: co.restrict(_BITFLIP3, _WRONG_SPACE), DimMismatch, id="restrict"),
        pytest.param(lambda: co.kl_check(_BITFLIP3, _WRONG_SPACE), DimMismatch, id="kl-through-restrict"),
        pytest.param(
            lambda: co.oqec_check(_BITFLIP3, _WRONG_SPACE, (2, 1)), DimMismatch, id="oqec-through-restrict"
        ),
        pytest.param(lambda: co.span_equivalent(identity_channel(2), identity_channel(3)), False, id="two-dims"),
    ],
)
def test_refusals(call, refusal):
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(refusal):
            call()
