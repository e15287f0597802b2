import os
import subprocess
import sys
import textwrap
from math import comb
from pathlib import Path

import numpy as np
import pytest

from qichan import decoherence as de
from qichan.algebras import commutant, intersect, spans_equal, structure_decompose
from qichan.catalog import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    analyze_example,
    antisym_joint_channel,
    basis_observable,
    block_pinch_channel,
    dephasing_channel,
    diamond_channel,
    diamond_pointer,
    example_catalog,
    shrinking_channel,
    sic_cloner_channel,
    sic_tetrahedron,
)
from qichan.channels import (
    Channel,
    DiscreteObservable,
    apply,
    apply_dual,
    choi_of,
    complement,
    tensor,
)
from qichan.correction import interaction_span
from qichan.errors import (
    BadProjectors,
    DimMismatch,
    Infeasible,
    NotEndomorphic,
    NotTracePreserving,
)
from qichan.numlin import DEFAULT_TOL, Tolerance, above_cut, coords_to_herm, dagger, op_norm
from qichan.rand import (
    generator,
    random_channel,
    random_hermitian,
    random_povm,
    random_pure_state,
    random_stochastic,
    random_unitary,
)


def random_effect(rng: np.random.Generator, d: int) -> np.ndarray:
    """Random operator with spectrum in [0, 1]: a random Hermitian H moved
    and scaled to s (H - lambda_min) / (lambda_max - lambda_min), s drawn
    from [0.2, 1]; only the spectrum's ends are read, so no eigenvectors
    are computed."""
    h = random_hermitian(rng, d)
    w = np.linalg.eigvalsh(h)
    lo, hi = w[0], w[-1]
    scale = rng.uniform(0.2, 1.0)
    if hi > lo:
        return scale * (h - lo * np.eye(d)) / (hi - lo)
    return scale * 0.5 * np.eye(d, dtype=np.complex128)


@pytest.mark.parametrize("d", [2, 5, 64])
def test_random_effect_is_the_rescaled_hermitian_draw(d):
    # reference: the eigendecomposition of the same draw, its spectrum
    # moved to [0, 1] and scaled; both leave the generator in one state
    rng = generator(d)
    w, u = np.linalg.eigh(random_hermitian(rng, d))
    w = (w - w[0]) / (w[-1] - w[0]) * rng.uniform(0.2, 1.0)
    drawn = generator(d)
    assert op_norm(random_effect(drawn, d) - (u * w) @ dagger(u)) < 1e-12
    assert drawn.random() == rng.random()


class TestStochasticMap:
    def test_validates_columns(self):
        with pytest.raises(ValueError):
            de.StochasticMap.from_entries(np.array([[0.5, 0.2], [0.2, 0.2]]))
        with pytest.raises(ValueError):
            de.StochasticMap.from_entries(np.array([[1.5, 0.0], [-0.5, 1.0]]))

    def test_column_sums_at_the_callers_abs_eps(self):
        entries = np.array([[0.5, 1.0], [0.5 + 3e-9, 0.0]])  # a column sum of 1 + 3e-9
        de.StochasticMap.from_entries(entries, Tolerance(abs_eps=1e-8))
        with pytest.raises(ValueError):
            de.StochasticMap.from_entries(entries, Tolerance(abs_eps=1e-9))

    def test_rounding_floor_below_abs_eps(self):
        # column sums off by rounding pass at any abs_eps; a real defect does not
        for s in range(200):
            rng = generator(s)
            rows, cols = (int(v) for v in rng.integers(2, 17, size=2))
            de.StochasticMap.from_entries(random_stochastic(rng, rows, cols), Tolerance(1e-16))
        with pytest.raises(ValueError):
            de.StochasticMap.from_entries(np.array([[0.5, 0.2], [0.2, 0.2]]), Tolerance(1e-16))

    def test_compose_observable(self):
        gamma = basis_observable(2)
        pi = de.StochasticMap.from_entries(np.array([[0.5, 1.0], [0.5, 0.0]]))
        coarse = pi.compose_observable(gamma)
        assert op_norm(coarse.effects[0] - np.diag([0.5, 1.0])) < 1e-12


class TestPointerAlgebra:
    def test_dephasing_pointer_is_basis(self):
        rep = de.pointer_algebra(dephasing_channel(3))
        assert rep.pointer_algebra.block_dims == ((1, 1),) * 3
        assert rep.commutativity_residual < 1e-10
        got = sorted(np.diag(e).real.round(6).tolist() for e in rep.pointer_effects.effects)
        assert got == sorted(np.eye(3).tolist())

    def test_block_channel_pointer_is_superselection(self):
        c, projs = block_pinch_channel((2, 2), seed=4)
        rep = de.pointer_algebra(c)
        # scalars on each rank-2 sector: the superselection charge
        assert rep.pointer_algebra.block_dims == ((1, 2), (1, 2))
        for p in projs:
            assert rep.pointer_algebra.carrier.contains(p)
        from qichan.catalog import _match_projector_sets
        from qichan.channels import DiscreteObservable

        expected = DiscreteObservable.from_effects(projs)
        assert _match_projector_sets(rep.pointer_effects, expected) < 1e-9

    def test_unitary_channel_trivial_pointer(self):
        u = random_unitary(generator(1), 3)
        rep = de.pointer_algebra(Channel.from_elements([u]))
        assert rep.pointer_algebra.dimension == 1

    def test_central_projectors_are_the_pointer_effects(self):
        c, _ = block_pinch_channel((2, 1, 1), seed=2)
        rep = de.pointer_algebra(c)
        projs = rep.pointer_algebra.central_projectors
        assert projs.shape == (3, 4, 4) and not projs.flags.writeable
        # kept once: the effects are the algebra's own read-only stack
        assert np.shares_memory(projs, rep.pointer_effects.effects)
        assert np.array_equal(projs, rep.pointer_effects.effects)


class WitnessMismatch(Exception):
    """Supplied witness observables do not reproduce the claimed observable."""


def correlation_check(
    c: Channel,
    x: DiscreteObservable,
    y: DiscreteObservable,
    z: DiscreteObservable,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Residual of perfect correlation between the output witness Y and the
    environment witness Z for a duplicated observable X.

    Returns max_{i != j} ||V^dag (Y_i (x) Z_j) V|| plus the worst diagonal
    deviation from X_i; raises WitnessMismatch when the witnesses do not
    reproduce X through the channel and its complement.
    """
    if x.n_outcomes != y.n_outcomes or x.n_outcomes != z.n_outcomes:
        raise DimMismatch("X, Y, Z need matching outcome counts")
    for label, channel, witness in (("Y", c, y), ("Z", complement(c), z)):
        res = op_norm(apply_dual(channel, witness.effects) - x.effects)
        if res > tol.abs_eps:
            raise WitnessMismatch(f"witness {label} mismatch: residual {res:.3e} > {tol.abs_eps:.3e}")
    n = x.n_outcomes
    v = c.elements.transpose(1, 0, 2)  # the dilation V = sum_k E_k (x) |k>, as V[o, k, a]
    # V^dag (Y_i (x) Z_j) V = ((Y_i (x) 1) V)^dag (1 (x) Z_j) V, without the kron
    left = (y.effects @ v.reshape(c.dim_out, -1)).reshape(n, -1, c.dim_in)
    right = (z.effects[:, None] @ v).reshape(n, -1, c.dim_in)
    joint = dagger(left)[:, None] @ right[None]
    same = np.eye(n, dtype=bool)
    return op_norm(joint[~same]) + op_norm(joint[same] - x.effects)


class TestCorrelationCheck:
    def test_dephasing_fully_correlated(self):
        c = dephasing_channel(3)
        x = basis_observable(3)
        assert correlation_check(c, x, x, x) < 1e-10

    def test_block_channel_correlations(self):
        c, projs = block_pinch_channel((2, 1), seed=8)
        u = c.elements[0] + c.elements[1]  # the pinching unitary
        x = DiscreteObservable.from_effects(projs)
        y = DiscreteObservable.from_effects([u @ p @ dagger(u) for p in projs])
        z = basis_observable(c.n_elements)
        assert correlation_check(c, x, y, z) < 1e-10

    def test_witness_mismatch_for_unitary(self):
        c = Channel.from_elements([np.eye(2, dtype=complex)])
        x = basis_observable(2)
        y = DiscreteObservable.from_effects([np.eye(2, dtype=complex) / 2] * 2)
        with pytest.raises(WitnessMismatch):
            correlation_check(c, x, y, x)


class TestCoarseGrainSolve:
    def test_identity_when_equal(self):
        gamma = basis_observable(4)
        sm = de.coarse_grain_solve(gamma, gamma)
        assert np.abs(sm.entries - np.eye(4)).max() < 1e-6

    def test_incompatible_sharp_observables(self):
        x = DiscreteObservable.from_effects(
            [(np.eye(2, dtype=complex) + PAULI_X) / 2, (np.eye(2, dtype=complex) - PAULI_X) / 2]
        )
        gamma = basis_observable(2)
        with pytest.raises(Infeasible) as err:
            de.coarse_grain_solve(x, gamma)
        # infeasibility certificates keep a clear margin above the tolerance
        assert err.value.residual > 10 * de.FEASIBILITY_TOL
        assert 10 * de.FEASIBILITY_TOL < err.value.lower_bound <= err.value.residual

    def test_diamond_preserved_effects_are_coarse_grainings(self):
        c = diamond_channel(3)
        gamma = diamond_pointer(3)
        rng = generator(5)
        for _ in range(10):
            eff = apply_dual(c, random_effect(rng, 3))
            x = DiscreteObservable.from_effects([eff, np.eye(2, dtype=complex) - eff])
            sm = de.coarse_grain_solve(x, gamma)
            rebuilt = sm.compose_observable(gamma)
            for got, want in zip(rebuilt.effects, x.effects):
                assert op_norm(got - want) < de.FEASIBILITY_TOL

    def test_solution_is_stochastic(self):
        c = diamond_channel(4)
        gamma = diamond_pointer(4)
        eff = apply_dual(c, random_effect(generator(9), 4))
        x = DiscreteObservable.from_effects([eff, np.eye(2, dtype=complex) - eff])
        sm = de.coarse_grain_solve(x, gamma)
        assert sm.entries.min() >= 0
        assert np.abs(sm.entries.sum(axis=0) - 1).max() < 1e-9


class TestFullDecoherence:
    def test_dephasing_is_fully_decoherent(self):
        rep = de.full_decoherence_check(dephasing_channel(3), basis_observable(3), samples=24, seed=2)
        assert rep.feasible == rep.samples
        assert rep.max_residual < de.FEASIBILITY_TOL

    def test_rank_one_channel_explicit_map(self):
        c = sic_cloner_channel()
        rep = de.full_decoherence_check(c, sic_tetrahedron(), samples=24, seed=3)
        assert rep.feasible == rep.samples
        assert rep.explicit_residual is not None and rep.explicit_residual < 1e-10

    @pytest.mark.parametrize("case", ["element-not-rank-one", "gamma-not-canonical"])
    def test_no_explicit_map_without_pointer_states(self, case):
        if case == "element-not-rank-one":
            c = Channel.from_elements([np.sqrt(0.7) * np.eye(2, dtype=complex), np.sqrt(0.3) * PAULI_Z])
            gamma = basis_observable(2)
        else:
            # rank-one elements, but gamma lists E_i^dag E_i in reverse
            c = sic_cloner_channel()
            gamma = DiscreteObservable.from_effects(sic_tetrahedron().effects[::-1])
        assert c.n_elements == gamma.n_outcomes
        assert de._pointer_states(c, gamma, de.FEASIBILITY_TOL) is None
        rep = de.full_decoherence_check(c, gamma, samples=4, seed=3)
        assert rep.explicit_residual is None

    def test_unitary_channel_is_not(self):
        u = random_unitary(generator(4), 2)
        gamma = DiscreteObservable.from_effects(
            [np.diag([1.0, 0]).astype(complex), np.diag([0, 1.0]).astype(complex)]
        )
        rep = de.full_decoherence_check(Channel.from_elements([u]), gamma, samples=24, seed=5)
        assert rep.feasible < rep.samples
        # the "no" rests on a Frank-Wolfe certificate, not on the solver's cap
        assert rep.certified_lower_bound > de.FEASIBILITY_TOL


_ONE_PATH_CASES = [
    pytest.param(sic_cloner_channel(), sic_tetrahedron(), id="sic-cloner"),
    pytest.param(dephasing_channel(3), basis_observable(3), id="dephasing-3"),
    pytest.param(Channel.from_elements([random_unitary(generator(5), 3)]), basis_observable(3), id="qutrit-unitary"),
]


class TestOnePath:
    """The sampled check, the single solve and a stack of binary diamond
    observables share one coarse-graining routine, so they agree to the
    last bit."""

    @pytest.mark.parametrize("c,gamma", _ONE_PATH_CASES)
    def test_sampled_check_matches_single_solves(self, c, gamma, monkeypatch):
        drawn = []
        for name in ("random_povm", "random_sharp_observable"):
            draw = getattr(de, name)
            monkeypatch.setattr(de, name, lambda *a, _draw=draw: drawn.append(_draw(*a)) or drawn[-1])
        rep = de.full_decoherence_check(c, gamma, samples=24, seed=5)
        monkeypatch.undo()
        assert len(drawn) == len(rep.residuals) == 24
        solved = []
        for y in drawn:
            x = DiscreteObservable.from_effects([apply_dual(c, e) for e in y.effects])
            try:
                de.coarse_grain_solve(x, gamma)
                solved.append(None)
            except Infeasible as exc:
                solved.append(exc)
        tol = de.FEASIBILITY_TOL
        assert [exc is None for exc in solved] == [r <= tol for r in rep.residuals]
        assert [exc.residual for exc in solved if exc] == [r for r in rep.residuals if r > tol]
        bounds = [exc.lower_bound for exc in solved if exc]
        assert max(bounds, default=0.0) <= rep.certified_lower_bound

    @pytest.mark.parametrize("name", ["diamonds-3", "diamonds-inf"])
    def test_diamond_stack_equals_single_solves(self, name):
        bundle = example_catalog(name)
        c, gamma = bundle.channels["channel"], bundle.observables["pointer"]
        rng = generator(0)
        effects = [apply_dual(c, random_effect(rng, c.dim_out)) for _ in range(24)]
        targets = np.array([[e, np.eye(2) - e] for e in effects])
        gammas = np.array(gamma.effects)
        pi, residual, lower = de._coarse_grain(targets, gammas, de.FEASIBILITY_TOL)
        for s, e in enumerate(effects):
            pi_1, residual_1, lower_1 = de._coarse_grain(targets[s : s + 1], gammas, de.FEASIBILITY_TOL)
            assert np.array_equal(pi[s], pi_1[0])
            assert residual[s] == residual_1[0] and lower[s] == lower_1[0]
            x = DiscreteObservable.from_effects([e, np.eye(2) - e])
            assert np.array_equal(de.coarse_grain_solve(x, gamma).entries, pi[s])
        assert residual.max() <= de.FEASIBILITY_TOL
        # the example itself is decided exactly, over every binary observable
        cut = de.exact_binary_classicality(c, gamma).cut
        assert analyze_example(name)["facet_margin"] >= -cut


def _pauli_channel(weights) -> Channel:
    """rho -> sum_s p_s s rho s over s = 1, X, Y, Z."""
    paulis = [np.eye(2, dtype=complex), PAULI_X, PAULI_Y, PAULI_Z]
    return Channel.from_elements([np.sqrt(p) * s for p, s in zip(weights, paulis)])


def weyl_heisenberg(d: int, seed: int) -> tuple[DiscreteObservable, np.ndarray, float]:
    """The covariant POVM Gamma_ab = W_ab |psi><psi| W_ab^dag / d of a seeded
    random fiducial psi, its Weyl operators W_ab = X^a Z^b (d^2, d, d), and
    alpha* = 1 / (1 - d lambda_min(D_0)), D_0 psi's dual-frame element.

    Every sigma_ab = E_alpha(D_ab) of the depolarizing channel has the
    spectrum of alpha D_0 + (1 - alpha) / d (covariance, tr D_0 = 1), so
    E_alpha is measure-and-prepare through Gamma exactly for alpha <= alpha*.
    """
    psi = random_pure_state(generator(seed), d)
    x = np.roll(np.eye(d), 1, axis=0)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    weyl = np.array([np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b) for a in range(d) for b in range(d)])
    states = weyl @ psi
    gamma = DiscreteObservable.from_effects(states[:, :, None] * states[:, None, :].conj() / d)
    # tr(Gamma_j D_0) = sum_kl conj(Gamma_j)_kl (D_0)_kl = delta_j0
    d0 = np.linalg.solve(gamma.effects.reshape(d * d, d * d).conj(), np.eye(d * d)[0]).reshape(d, d)
    return gamma, weyl, 1 / (1 - d * np.linalg.eigvalsh((d0 + dagger(d0)) / 2)[0])


def depolarizing(weyl: np.ndarray, alpha: float) -> Channel:
    """rho -> alpha rho + (1 - alpha) tr(rho) 1 / d, with the d^2 Weyl
    operators as its elements: the average of W rho W^dag over them is
    tr(rho) 1 / d."""
    p = np.full(len(weyl), (1 - alpha) / len(weyl))
    p[0] += alpha
    return Channel.from_elements(np.sqrt(p)[:, None, None] * weyl)


class TestExactBinaryClassicality:
    """The zonotope-facet test against closed forms, the sampled check
    and Frank-Wolfe certificates."""

    @pytest.mark.parametrize("alpha", [0.0, 1 / 3, 0.34, 0.5, 1.0])
    def test_shrinking_channel_margin(self, alpha):
        # the facet normals are +-D_i / sqrt 5 for the dual frame
        # D_i = (1 + 3 n_i . sigma) / 2 = 6 Gamma_i - 1, and sigma_i = E(D_i) has
        # the eigenvalues (1 +- 3 alpha) / 2, one of them negative above 1/3;
        # the tetrahedron spans every qubit operator
        rep = de.exact_binary_classicality(shrinking_channel(alpha), sic_tetrahedron())
        assert rep.facet_normals == 8 and rep.range_residual == 0.0
        duals = 6 * sic_tetrahedron().effects - np.eye(2)
        assert min(op_norm(rep.facet_normal - sign * d / np.sqrt(5)) for d in duals for sign in (1, -1)) <= 1e-12
        assert abs(rep.facet_margin - min(0.0, (1 - 3 * alpha) / 2) / np.sqrt(5)) <= 1e-12
        assert rep.classical == (alpha <= 1 / 3)

    @pytest.mark.parametrize(
        "name, normals",
        [("diamonds-2", 4), ("diamonds-3", 6), ("diamonds-4", 12), ("diamonds-5", 20), ("diamonds-inf", 4032)],
    )
    def test_diamonds_fill_their_zonotope(self, name, normals):
        # E*(B) = sum_k <k|B|k> Gamma_k: the preserved effects are the zonotope
        # itself, so every margin is 0; 2 C(n, 2) normals for n >= 3 planar effects
        bundle = example_catalog(name)
        rep = de.exact_binary_classicality(bundle.channels["channel"], bundle.observables["pointer"])
        assert rep.facet_normals == normals
        assert abs(rep.facet_margin) <= rep.cut and rep.range_residual <= rep.cut
        assert rep.classical

    @pytest.mark.parametrize("name", ["diamonds-2", "diamonds-3", "diamonds-4", "diamonds-5"])
    def test_commuting_route_equals_eigvalsh_route(self, name, monkeypatch):
        bundle = example_catalog(name)
        c, gamma = bundle.channels["channel"], bundle.observables["pointer"]
        _, s, vt = np.linalg.svd(de._coordinates(gamma.effects))
        images = apply(c, coords_to_herm(vt[: np.count_nonzero(above_cut(s, DEFAULT_TOL.rank_rel))], c.dim_in))
        images = (images + dagger(images)) / 2
        weights = generator(3).standard_normal((64, len(images)))
        weights /= np.linalg.norm(weights, axis=1, keepdims=True)
        joint, spread = de._combination_spectra(images, weights, np.inf)
        stacked, exact = de._combination_spectra(images, weights, -1.0)
        assert spread <= 1e-12 and exact == 0.0
        assert np.abs(np.sort(joint, axis=1) - stacked).max() <= 1e-12
        commuting = de.exact_binary_classicality(c, gamma)
        spectra = de._combination_spectra
        monkeypatch.setattr(de, "_combination_spectra", lambda images, weights, cut: spectra(images, weights, -1.0))
        rep = de.exact_binary_classicality(c, gamma)
        assert abs(rep.facet_margin - commuting.facet_margin) <= 1e-12
        assert rep.facet_normals == commuting.facet_normals

    @pytest.mark.parametrize(
        "c, gamma",
        [
            pytest.param(shrinking_channel(0.5), sic_tetrahedron(), id="shrinking-0.5"),
            pytest.param(shrinking_channel(1.0), sic_tetrahedron(), id="shrinking-1"),
            # pentagon effects against the square pointer, four effects in three dimensions
            pytest.param(diamond_channel(5), diamond_pointer(4), id="pentagon-on-square"),
        ],
    )
    def test_violated_facet_gives_a_certified_witness(self, c, gamma):
        rep = de.exact_binary_classicality(c, gamma)
        assert rep.facet_margin < -rep.cut
        w, v = np.linalg.eigh(apply(c, rep.facet_normal))
        positive = v[:, w > 0]
        effect = apply_dual(c, positive @ dagger(positive))
        x = DiscreteObservable.from_effects([effect, np.eye(c.dim_in) - effect])
        with pytest.raises(Infeasible) as err:
            de.coarse_grain_solve(x, gamma)
        assert err.value.lower_bound > de.FEASIBILITY_TOL

    def test_dependent_pointer_off_the_commuting_route(self):
        # the planar Pauli channel (x, y, z) -> (x/2, 0, z/2) keeps E* in the span of
        # the square pointer; its images do not commute, and 24 sampled binary
        # observables are all coarse-grainings
        c, gamma = _pauli_channel([0.5, 0.25, 0.0, 0.25]), diamond_pointer(4)
        rep = de.exact_binary_classicality(c, gamma)
        assert rep.facet_normals == 12 and rep.classical
        rng = generator(0)
        for _ in range(24):
            effect = apply_dual(c, random_effect(rng, 2))
            de.coarse_grain_solve(DiscreteObservable.from_effects([effect, np.eye(2) - effect]), gamma)

    @pytest.mark.parametrize(
        "whole, c, part, normals, classical",
        [
            pytest.param(diamond_pointer(4), diamond_channel(4), 0.5, 18, True, id="square-halves-on-square"),
            pytest.param(diamond_pointer(4), diamond_channel(5), 0.5, 18, False, id="square-halves-on-pentagon"),
            pytest.param(sic_tetrahedron(), diamond_channel(2), 0.3, 14, False, id="sic-0.3-on-diamonds-2"),
            pytest.param(sic_tetrahedron(), diamond_channel(2), 1e-3, 14, False, id="sic-1e-3-on-diamonds-2"),
        ],
    )
    def test_split_effect_leaves_the_zonotope(self, whole, c, part, normals, classical):
        # splitting Gamma_1 into two parallel effects sums the same segments: the
        # zonotope, and so every margin, stays; the two parts span no facet, so
        # 2 (C(n, D - 1) - #flat) normals remain, 2 (10 - 1) and 2 (10 - 3) here
        first, *rest = whole.effects
        split = DiscreteObservable.from_effects([part * first, (1 - part) * first, *rest])
        unsplit, parts = de.exact_binary_classicality(c, whole), de.exact_binary_classicality(c, split)
        assert abs(parts.facet_margin - unsplit.facet_margin) <= 1e-12
        assert parts.facet_normals == normals
        assert parts.classical == unsplit.classical == classical

    @pytest.mark.parametrize("parts", [[1.0], [0.5, 0.5]])
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_trivial_pointer(self, parts, alpha):
        # Gamma_i = p_i 1 spans D = 1 dimension: the one empty subset gives the
        # normals +-1 / sqrt 2, with margin 0 for any unital channel, so only the
        # range decides; shrinking maps the traceless complement to alpha times itself
        gamma = DiscreteObservable.from_effects([p * np.eye(2) for p in parts])
        rep = de.exact_binary_classicality(shrinking_channel(alpha), gamma)
        assert rep.facet_normals == 2 and abs(rep.facet_margin) <= rep.cut
        assert op_norm(np.abs(rep.facet_normal) - np.eye(2) / np.sqrt(2)) <= 1e-12
        assert rep.classical == (alpha == 0.0)

    @pytest.mark.parametrize("d", [3, 5, 8])
    def test_weyl_heisenberg_flips_at_the_closed_form(self, d):
        gamma, weyl, alpha_star = weyl_heisenberg(d, seed=d)
        reps = [de.exact_binary_classicality(depolarizing(weyl, alpha_star * f), gamma) for f in (1 - 1e-4, 1 + 1e-4)]
        assert [rep.classical for rep in reps] == [True, False]
        assert [rep.facet_normals for rep in reps] == [2 * d * d] * 2

    def test_weyl_heisenberg_d12_fits_in_two_gib(self):
        # D = 144 independent effects: one SVD of 144 subsets of 143 x 144; the
        # determinants of their minors asked for 3.2 GiB at once
        script = textwrap.dedent(
            """
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
            from qichan.decoherence import exact_binary_classicality
            from test_decoherence import depolarizing, weyl_heisenberg

            gamma, weyl, alpha_star = weyl_heisenberg(12, seed=12)
            for f in (1 - 1e-4, 1 + 1e-4):
                print(exact_binary_classicality(depolarizing(weyl, alpha_star * f), gamma).classical)
            """
        )
        here = Path(__file__).resolve().parent
        path = os.pathsep.join([str(Path(de.__file__).resolve().parents[1]), str(here)])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=path)
        out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr[-2000:]
        assert out.stdout.split() == ["True", "False"]

    @pytest.mark.parametrize(
        "c,gamma",
        [
            *_ONE_PATH_CASES,
            # sigma-negative: sampling finds 11 and 2 of 24 feasible
            pytest.param(shrinking_channel(0.5), sic_tetrahedron(), id="shrinking-0.5"),
            pytest.param(shrinking_channel(1.0), sic_tetrahedron(), id="shrinking-1"),
        ],
    )
    def test_verdict_matches_the_sampled_check(self, c, gamma):
        # independent pointers: the verdict covers every observable
        rep = de.exact_binary_classicality(c, gamma)
        sampled = de.full_decoherence_check(c, gamma, samples=24, seed=5)
        assert rep.classical == (sampled.feasible == sampled.samples)

    def test_unitary_leaves_the_span(self):
        u = random_unitary(generator(4), 2)
        rep = de.exact_binary_classicality(Channel.from_elements([u]), basis_observable(2))
        assert rep.range_residual > rep.cut
        assert not rep.classical

    def test_none_above_the_cap(self, monkeypatch):
        # 24 generic effects on C^4 span all 16 dimensions: C(24, 15) subsets of
        # 15 x 16 coordinates, with 16 x 16 right singular vectors each
        assert comb(24, 15) * 16 * 16 > de.FACET_SVD_ENTRIES
        gamma = random_povm(generator(0), 4, 24)
        c = random_channel(generator(1), 4, 2, 2)
        # the cap is checked before the channel maps anything
        monkeypatch.setattr(de, "apply", None)
        assert de.exact_binary_classicality(c, gamma) is None

    def test_margin_is_measured_at_a_unit_normal(self):
        # lambda_min(sigma_i) = -1.0e-3 is beyond a 1e-3 cut, the margin -1.0e-3 / sqrt 5 is not
        loose = Tolerance(1e-3, 1e-3)
        rep = de.exact_binary_classicality(shrinking_channel(0.334), sic_tetrahedron(), loose)
        assert abs(rep.facet_margin + 1e-3 / np.sqrt(5)) <= 1e-12 and rep.classical
        assert not de.exact_binary_classicality(shrinking_channel(0.334), sic_tetrahedron()).classical

    def test_gamma_dimension_checked(self):
        with pytest.raises(DimMismatch):
            de.exact_binary_classicality(dephasing_channel(3), basis_observable(2))


class TestBroadcast:
    def test_two_classical_copies(self):
        # rho -> sum_i <i|rho|i> |ii><ii|
        elements = []
        for i in range(2):
            e = np.zeros((4, 2), dtype=complex)
            e[3 * i, i] = 1.0
            elements.append(e)
        c = Channel.from_elements(elements)
        rep = de.broadcast_pointer(c, [2, 2])
        assert rep.pointer_algebra.block_dims == ((1, 1), (1, 1))
        assert rep.pointer_algebra.carrier.contains(PAULI_Z)

    def test_threefold_copies_same_algebra(self):
        elements = []
        for i in range(2):
            e = np.zeros((8, 2), dtype=complex)
            e[7 * i, i] = 1.0
            elements.append(e)
        c = Channel.from_elements(elements)
        rep = de.broadcast_pointer(c, [2, 2, 2])
        assert rep.pointer_algebra.block_dims == ((1, 1), (1, 1))

    def test_dim_checks(self):
        c = dephasing_channel(4)
        with pytest.raises(DimMismatch):
            de.broadcast_pointer(c, [3, 2])
        with pytest.raises(DimMismatch):
            de.broadcast_pointer(c, [4])


def _intersected_reference(channels, seed=0):
    """Reference: the commutant of each channel's interaction span, the
    commutants intersected pairwise, the result decomposed."""
    both = None
    for ch in channels:
        a = commutant(list(interaction_span(ch).basis))
        both = a if both is None else intersect(both, a)
    return structure_decompose(both, seed=seed)


def _dephased_qubit_times_random(seed, d):
    rng = generator(seed)
    u = random_unitary(rng, 2)
    qubit = Channel.from_elements([np.diag(np.eye(2)[i]) @ u for i in range(2)])
    return tensor(qubit, random_channel(rng, d // 2, d // 2, 2))


def _common_preserved_cases():
    cases = [
        ("dephasing", "pointer", example_catalog("dephasing").channels["channel"], None),
        ("blocks", "pointer", example_catalog("blocks").channels["channel"], None),
        ("antisym", "broadcast", antisym_joint_channel(), [3, 3]),
    ]
    for d in (4, 8, 12):
        cases.append((f"dephased-qubit-d{d}", "pointer", _dephased_qubit_times_random(d, d), None))
    for seed in range(20):
        rng = generator(100 + seed)
        d, k = 2 + seed % 5, 1 + seed % 3
        if seed % 2:
            cases.append((f"random-{seed}", "broadcast", random_channel(rng, d, 4, k), [2, 2]))
        else:
            cases.append((f"random-{seed}", "pointer", random_channel(rng, d, d, k), None))
    return cases


_CASES = _common_preserved_cases()


class TestToleranceReachesTheDilation:
    def test_marginals_check_trace_preservation_at_the_callers_tol(self):
        # elements off by sqrt(1 + 2e-7): sum E^dag E - 1 = 2e-7
        c = Channel.from_elements(np.sqrt(1 + 2e-7) * antisym_joint_channel().elements)
        with pytest.raises(NotTracePreserving) as err:
            de.broadcast_pointer(c, [3, 3])
        assert err.value.eps == DEFAULT_TOL.abs_eps and abs(err.value.residual - 2e-7) < 1e-12
        loose = Tolerance(1e-6, DEFAULT_TOL.rank_rel)
        assert de.broadcast_pointer(c, [3, 3], loose).pointer_algebra.block_dims == ((1, 3),)


def _trace_down_to(joint, dims, keep):
    """Reference partial trace of a state on prod(dims) down to factor keep."""
    t = np.moveaxis(joint.reshape(dims + dims), [keep, keep + len(dims)], [0, len(dims)])
    rest = int(np.prod(dims)) // dims[keep]
    return np.einsum("ajbj->ab", t.reshape(dims[keep], rest, dims[keep], rest))


class TestMarginalChannels:
    def test_product_channel_marginals_are_its_factors(self, random_density):
        rng = generator(2)
        c1, c2 = random_channel(rng, 2, 3, 2), random_channel(rng, 3, 2, 3)
        marginals = de._marginal_channels(tensor(c1, c2), [3, 2], DEFAULT_TOL)
        rho, sigma = random_density(rng, 2), random_density(rng, 3)
        # the marginals act on the joint input; trace out the other input
        joint = np.kron(rho, sigma)
        assert op_norm(apply(marginals[0], joint) - apply(c1, rho)) < 1e-12
        assert op_norm(apply(marginals[1], joint) - apply(c2, sigma)) < 1e-12

    def test_bell_output_marginals_are_maximally_mixed(self, random_density):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        # rho -> |bell><bell| for every input state
        c = Channel.from_elements([np.outer(bell, np.eye(2)[j]) for j in range(2)])
        rho = random_density(generator(3), 2)
        for marginal in de._marginal_channels(c, [2, 2], DEFAULT_TOL):
            assert op_norm(apply(marginal, rho) - np.eye(2) / 2) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_each_marginal_traces_out_the_other_factors(self, seed, random_density):
        rng = generator(seed)
        dims = [2, 3, 2]
        c = random_channel(rng, 3, 12, 1 + seed % 3)
        rho = random_density(rng, 3)
        joint = apply(c, rho)
        marginals = de._marginal_channels(c, dims, DEFAULT_TOL)
        assert len(marginals) == len(dims)
        for i, marginal in enumerate(marginals):
            assert marginal.dim_out == dims[i]
            out = apply(marginal, rho)
            assert op_norm(out - _trace_down_to(joint, dims, i)) < 1e-12
            assert abs(np.trace(out) - 1) < 1e-12


class TestCommonPreserved:
    @pytest.mark.parametrize("kind,c,dims", [case[1:] for case in _CASES],
                             ids=[case[0] for case in _CASES])
    def test_matches_intersected_commutants(self, kind, c, dims):
        if kind == "pointer":
            got = de.pointer_algebra(c)
            want = _intersected_reference([c, complement(c)])
        else:
            got = de.broadcast_pointer(c, dims)
            want = _intersected_reference(de._marginal_channels(c, dims, DEFAULT_TOL))
        structure = got.pointer_algebra
        assert structure.block_dims == want.block_dims
        assert spans_equal(structure.carrier, want.carrier, 1e-8)
        remaining = list(want.central_projectors)
        for p in structure.central_projectors:
            dists = [op_norm(p - q) for q in remaining]
            assert min(dists) <= 1e-10
            remaining.pop(int(np.argmin(dists)))

    def test_never_intersects(self, monkeypatch):
        def forbidden(*args):
            raise AssertionError("intersect called on the pipeline")

        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "qichan" and hasattr(module, "intersect"):
                monkeypatch.setattr(module, "intersect", forbidden)
        c, _ = block_pinch_channel((2, 1), seed=3)
        assert de.pointer_algebra(c).pointer_algebra.block_dims == ((1, 2), (1, 1))
        joint = antisym_joint_channel()
        assert de.broadcast_pointer(joint, [3, 3]).pointer_algebra.dimension == 1


class TestDephasingSweep:
    def _projectors(self, d):
        return list(basis_observable(d).effects)

    def test_time_zero_is_identity(self, random_density):
        sweep = de.dephasing_sweep(self._projectors(4), 4, 1.0, [0.0])
        rho = random_density(generator(0), 4)
        assert op_norm(apply(sweep.snapshots[0], rho) - rho) < 1e-12
        assert np.abs(sweep.gamma[0][:, 0] - 1).max() < 1e-12
        assert np.abs(sweep.gamma[0][:, 1:]).max() < 1e-12

    def test_final_time_pinches(self, random_density):
        projs = self._projectors(4)
        sweep = de.dephasing_sweep(projs, 4, 1.0, [1.0])
        rho = random_density(generator(1), 4)
        pinched = sum(p @ rho @ p for p in projs)
        assert op_norm(apply(sweep.snapshots[0], rho) - pinched) < 1e-12
        assert np.abs(sweep.gamma[0] - np.eye(4)).max() < 1e-12

    def test_closed_form_matches_brute_force(self):
        projs = self._projectors(4)
        times = [0.3, 0.5, 0.77]
        sweep = de.dephasing_sweep(projs, 4, 1.0, times)
        for idx in range(len(times)):
            brute = de.environment_pointer_weights(sweep.snapshots[idx], projs, 4)
            assert np.abs(brute - sweep.gamma[idx]).max() < 1e-9

    @pytest.mark.parametrize("n_env", [4, 64])
    def test_broadcast_gamma_matches_brute_force_every_time(self, n_env):
        projs = self._projectors(4)
        times = np.linspace(0.0, 1.0, 11)
        sweep = de.dephasing_sweep(projs, n_env, 1.0, times)
        assert sweep.gamma.shape == (times.size, 4, n_env)
        for idx in range(times.size):
            brute = de.environment_pointer_weights(sweep.snapshots[idx], projs, n_env)
            assert np.abs(brute - sweep.gamma[idx]).max() < 1e-12

    def test_rows_normalized(self):
        sweep = de.dephasing_sweep(self._projectors(3), 5, 2.0, np.linspace(0, 2, 9))
        assert np.abs(sweep.gamma.sum(axis=2) - 1).max() < 1e-10

    def test_coarse_projectors(self):
        # two projectors of ranks 2 and 1 still give valid sweeps
        p1 = np.diag([1.0, 1.0, 0.0]).astype(complex)
        p2 = np.diag([0.0, 0.0, 1.0]).astype(complex)
        sweep = de.dephasing_sweep([p1, p2], 4, 1.0, [1.0])
        assert np.abs(sweep.gamma[0] - np.eye(2, 4)).max() < 1e-12

    def test_bad_projectors(self):
        with pytest.raises(BadProjectors):
            de.dephasing_sweep([np.eye(2, dtype=complex) / 2] * 2, 4, 1.0, [0.0])
        with pytest.raises(BadProjectors):
            de.dephasing_sweep(self._projectors(4), 2, 1.0, [0.0])


class TestEffectRegion:
    def test_identity_channel_fills_the_slice(self):
        pts = de.effect_region_sample(Channel.from_elements([np.eye(2, dtype=complex)]), grid=15)
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = pts[:, 2]
        assert np.all(r <= np.minimum(t, 2 - t) + 1e-9)
        # extreme points of the double cone are reached
        assert t.min() < 1e-9 and t.max() > 2 - 1e-9
        boundary = np.isclose(r, np.minimum(t, 2 - t), atol=1e-9)
        assert np.max(r[boundary], initial=0.0) > 0.999

    def test_two_outcome_channel_gives_square(self):
        pts = de.effect_region_sample(diamond_channel(2), grid=9)
        assert np.abs(pts[:, 1]).max() < 1e-9  # no z component
        assert np.all(np.abs(pts[:, 0]) <= np.minimum(pts[:, 2], 2 - pts[:, 2]) + 1e-9)
        # the corners (x, t) = (+-1, 1) of the square slice are attained
        corner = np.isclose(np.abs(pts[:, 0]), 1, atol=1e-9)
        assert np.any(corner & np.isclose(pts[:, 2], 1, atol=1e-9))

    def test_four_outcome_region_strictly_inside(self):
        pts = de.effect_region_sample(diamond_channel(4), grid=9)
        r = np.hypot(pts[:, 0], pts[:, 1])
        t = pts[:, 2]
        assert np.all(r <= np.minimum(t, 2 - t) + 1e-9)
        mid = np.isclose(t, 1.0, atol=0.05)
        assert r[mid].max() < 0.95  # shrunk well inside the full slice

    def test_sampled_points_are_effects(self):
        # re-derive spectra from the planar criterion: the diamond channels
        # produce y-free images, so the coordinates decide positivity
        for n in (3, 5):
            pts = de.effect_region_sample(diamond_channel(n), grid=7)
            r = np.hypot(pts[:, 0], pts[:, 1])
            t = pts[:, 2]
            assert np.all(r <= np.minimum(t, 2 - t) + 1e-9)

    def test_requires_qubit_source(self):
        with pytest.raises(DimMismatch):
            de.effect_region_sample(dephasing_channel(3), grid=5)

    def test_output_beyond_the_grid_primes_rejected(self, monkeypatch):
        c = random_channel(generator(65), 2, 65, 1)

        def no_apply(*args):
            raise AssertionError("the output dimension is checked before any work")

        monkeypatch.setattr(de, "apply", no_apply)
        with pytest.raises(DimMismatch):
            de.effect_region_sample(c, grid=2)

    @staticmethod
    def _reference_points(c, grid):
        """Per-point E*(B) for the grid of output effects, in sampling order."""
        sx = np.array([[0, 1], [1, 0]], dtype=complex)
        sz = np.diag([1.0, -1.0]).astype(complex)
        effects = []
        if c.dim_out == 2:
            bs = np.linspace(-1.0, 1.0, grid)
            for bx in bs:
                for bz in bs:
                    r = np.hypot(bx, bz)
                    for s in np.linspace(0.0, 2.0, grid):
                        rmax = min(s, 2.0 - s)
                        if r <= rmax + 1e-12:
                            effects.append((s * np.eye(2) + bx * sx + bz * sz) / 2)
                        if r > 1e-12 and rmax > 0:
                            f = rmax / r
                            effects.append((s * np.eye(2) + f * bx * sx + f * bz * sz) / 2)
        else:
            alphas = np.sqrt(np.array(de._PRIMES[: c.dim_out], dtype=float))
            effects = [np.diag(np.mod(j * alphas, 1.0)) for j in range(grid**3)]
            if 2**c.dim_out <= grid**3:
                for mask in range(2**c.dim_out):
                    effects.append(np.diag([float((mask >> b) & 1) for b in range(c.dim_out)]))
        points = []
        for b in effects:
            a = apply_dual(c, b.astype(complex))
            points.append([np.trace(a @ sx).real, np.trace(a @ sz).real, np.trace(a).real])
        return np.array(points)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 64])
    def test_matches_per_point_dual_on_diamonds(self, n):
        c = diamond_channel(n)
        pts = de.effect_region_sample(c, grid=6)
        ref = self._reference_points(c, grid=6)
        assert pts.shape == ref.shape
        assert np.abs(pts - ref).max() <= 1e-12

    @pytest.mark.parametrize("d_out", [2, 3, 16, 17, 64])
    def test_matches_per_point_dual_on_random_qubit_channel(self, d_out):
        c = random_channel(generator(9), 2, d_out, 3)
        pts = de.effect_region_sample(c, grid=9)
        ref = self._reference_points(c, grid=9)
        assert pts.shape == ref.shape
        assert np.abs(pts - ref).max() <= 1e-12


class TestIteratedFixedPoints:
    def test_unitary_fixed_space_is_commutant(self):
        c = Channel.from_elements([PAULI_X])
        fixed = de.iterated_fixed_points(c)
        assert spans_equal(fixed, commutant([PAULI_X]))

    def test_dephasing_fixed_space_is_diagonal(self):
        c = dephasing_channel(3)
        fixed = de.iterated_fixed_points(c)
        assert fixed.dimension == 3
        assert fixed.contains(np.diag([1.0, 2.0, 3.0]).astype(complex))

    @pytest.mark.parametrize("seed", range(4))
    def test_two_unitary_mixture_matches_commutant(self, seed):
        rng = generator(seed + 40)
        u1, u2 = random_unitary(rng, 3), random_unitary(rng, 3)
        c = Channel.from_elements([np.sqrt(0.3) * u1, np.sqrt(0.7) * u2])
        fixed = de.iterated_fixed_points(c)
        assert spans_equal(fixed, commutant([u1, u2]), 1e-7)

    @pytest.mark.parametrize("tol, dimension", [(DEFAULT_TOL, 4), (Tolerance(1e-12, 1e-10), 2)])
    def test_tolerance_decides_a_weak_phase_flip(self, tol, dimension):
        # E*(|0><1|) = (1 - 2p) |0><1|: the off-diagonals drift by 2p = 1e-10
        p = 5e-11
        c = Channel.from_elements([np.sqrt(1 - p) * np.eye(2, dtype=complex), np.sqrt(p) * PAULI_Z])
        assert de.iterated_fixed_points(c, tol).dimension == dimension

    @pytest.mark.parametrize("t", (1e-15, 1e-16, 1e-30))
    @pytest.mark.parametrize("d", (4, 8))
    def test_tolerance_below_rounding_keeps_a_unitary_fixed_space(self, d, t):
        # E*(A) = U^dag A U fixes the d-dimensional commutant of U
        for seed in (1, 2, 3):
            c = Channel.from_elements([random_unitary(generator(seed), d)])
            assert de.iterated_fixed_points(c, Tolerance(t, t)).dimension == d

    def test_requires_endomorphic(self):
        c = diamond_channel(3)
        with pytest.raises(NotEndomorphic):
            de.iterated_fixed_points(c)


class TestSelfComplementarity:
    def test_antisymmetric_channel(self):
        from qichan.catalog import antisym_channel

        c = antisym_channel()
        assert op_norm(choi_of(c) - choi_of(complement(c))) < 1e-12


# a snapshot of the sweep over the two basis projectors of a qubit, N = 4
_PROJS = basis_observable(2).effects
_SNAPSHOT = de.dephasing_sweep(_PROJS, 4, 1.0, [0.5]).snapshots[0]


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(lambda: de.StochasticMap.from_entries([0.5, 0.5]), DimMismatch, id="stochastic-vector"),
        pytest.param(lambda: de.coarse_grain_solve(basis_observable(2), basis_observable(3)), DimMismatch,
                     id="solve-dims"),
        pytest.param(lambda: de.full_decoherence_check(dephasing_channel(3), basis_observable(2)), DimMismatch,
                     id="check-dims"),
        pytest.param(lambda: de.dephasing_sweep([], 4, 1.0, [0.0]), BadProjectors, id="no-projector"),
        pytest.param(lambda: de.dephasing_sweep(_PROJS[:1], 4, 1.0, [0.0]), BadProjectors,
                     id="projectors-short-of-identity"),
        pytest.param(lambda: de.environment_pointer_weights(_SNAPSHOT, _PROJS, 5), DimMismatch,
                     id="environment-size"),
        pytest.param(
            lambda: de.environment_pointer_weights(Channel.from_elements(2 * _SNAPSHOT.elements), _PROJS, 4),
            NotTracePreserving,
            id="snapshot-not-trace-preserving",
        ),
    ],
)
def test_refusals(call, refusal):
    with pytest.raises(refusal):
        call()
