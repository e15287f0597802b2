import subprocess
import sys

import numpy as np
import pytest

from qichan import kernels
from qichan.capacity import observable_capacity
from qichan.catalog import PAULI_X, PAULI_Y, PAULI_Z, shrinking_channel, sic_tetrahedron
from qichan.channels import DiscreteObservable, apply_dual
from qichan.decoherence import _coordinates
from qichan.rand import random_stochastic


def _simplex_dist(p):
    return max(abs(p.sum(axis=1).max() - 1), abs(p.sum(axis=1).min() - 1), max(0.0, -p.min()))


class TestSimplexProjection:
    def test_points_land_on_simplex(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal((5, 6, 3)) * 3
        p = kernels._project_columns_simplex(v)
        cols = p.sum(axis=1)
        assert np.allclose(cols, 1.0, atol=1e-12)
        assert p.min() >= 0

    def test_idempotent_on_simplex(self):
        rng = np.random.default_rng(1)
        v = rng.random((4, 5, 2))
        v /= v.sum(axis=1, keepdims=True)
        p = kernels._project_columns_simplex(v)
        assert np.allclose(p, v, atol=1e-12)

    def test_known_projection(self):
        v = np.array([[[2.0], [0.0]]])  # -> (1, 0)
        p = kernels._project_columns_simplex(v)
        assert np.allclose(p[0, :, 0], [1.0, 0.0])
        v = np.array([[[0.6], [0.6]]])  # symmetric -> (0.5, 0.5)
        p = kernels._project_columns_simplex(v)
        assert np.allclose(p[0, :, 0], [0.5, 0.5])


SIC_TOL = 1e-7


def _sic_grid(alpha, n_directions):
    """Coordinates of effect pairs {E, 1 - E} preserved by the shrinking
    channel on a grid of directions, scales and radial fractions, with the
    SIC tetrahedron as the reference (acceptance criterion 9)."""
    gamma = sic_tetrahedron()
    chan = shrinking_channel(alpha)
    g = _coordinates(gamma.effects).T
    eye = np.eye(2, dtype=complex)
    rng = np.random.default_rng(3)
    targets = []
    for n in rng.standard_normal((n_directions, 3)):
        n_sigma = sum(c * s for c, s in zip(n / np.linalg.norm(n), (PAULI_X, PAULI_Y, PAULI_Z)))
        for s in np.linspace(0.0, 2.0, 5):
            for f in np.linspace(0.0, 1.0, 4):
                eff = apply_dual(chan, (s * eye + f * min(s, 2 - s) * n_sigma) / 2)
                targets.append(_coordinates([eff, eye - eff]))
    return g, np.array(targets)


class TestFeasibilitySolver:
    def _problem(self, seed, feasible):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((6, 4))
        if feasible:
            p_true = rng.random((3, 4))
            p_true /= p_true.sum(axis=0, keepdims=True)
            x = p_true @ g.T
        else:
            x = rng.standard_normal((3, 6)) * 4
        return g, x[None, :, :]

    @pytest.mark.parametrize("seed", range(8))
    def test_recovers_feasible_numpy(self, seed):
        g, x = self._problem(seed, feasible=True)
        p, res = kernels.solve_product_simplex_lsq(g, x, hs_tol=1e-9)
        assert res[0] <= 1e-8
        assert _simplex_dist(p[0].T) < 1e-9

    def test_infeasible_reports_nonzero_floor(self):
        g, x = self._problem(3, feasible=False)
        p, res = kernels.solve_product_simplex_lsq(g, x, max_iter=4000)
        assert res[0] > 1e-3
        assert _simplex_dist(p[0].T) < 1e-9

    def test_batched_matches_single(self):
        g, x1 = self._problem(11, feasible=True)
        _, x2 = self._problem(12, feasible=True)
        batch = np.concatenate([x1, x2])
        p_b, r_b = kernels.solve_product_simplex_lsq(g, batch, hs_tol=1e-9)
        p_1, r_1 = kernels.solve_product_simplex_lsq(g, x1, hs_tol=1e-9)
        assert np.array_equal(p_b[0], p_1[0]) and r_b[0] == r_1[0]

    def test_mixed_batch_is_exactly_per_problem(self):
        g, x = _sic_grid(0.5, n_directions=6)
        _, _, stop = kernels._solve_simplex_lsq(g, x, 20000, 0.5 * SIC_TOL)
        assert {kernels.STOP_FEASIBLE, kernels.STOP_CERTIFIED} <= set(stop.tolist())
        p_b, r_b = kernels.solve_product_simplex_lsq(g, x, hs_tol=0.5 * SIC_TOL)
        for s in range(x.shape[0]):
            p_1, r_1 = kernels.solve_product_simplex_lsq(g, x[s : s + 1], hs_tol=0.5 * SIC_TOL)
            assert np.array_equal(p_b[s], p_1[0]) and r_b[s] == r_1[0]

    @pytest.mark.parametrize("outcomes", [2, 5])
    def test_problem_does_not_depend_on_batch_size(self, outcomes):
        # odd batch sizes, so the batch's one GEMM has ragged tile edges
        g, x = _sic_grid(1 / 3, n_directions=51)
        x = x[:1001]
        if outcomes == 5:
            # 333 targets on the same reference, every other one pushed
            # off the feasible set
            rng = np.random.default_rng(7)
            p_true = rng.random((333, 5, 4))
            p_true /= p_true.sum(axis=1, keepdims=True)
            x = p_true @ g.T
            x[1::2] += 0.3 * rng.standard_normal(x[1::2].shape)
        hs_tol = 0.5 * SIC_TOL
        p_b, r_b = kernels.solve_product_simplex_lsq(g, x, hs_tol=hs_tol)
        _, it_b, stop_b = kernels._solve_simplex_lsq(g, x, 20000, hs_tol)
        assert outcomes == 2 or kernels.STOP_CERTIFIED in stop_b
        for s in np.linspace(0, len(x) - 1, 25).astype(int):
            p_1, r_1 = kernels.solve_product_simplex_lsq(g, x[s : s + 1], hs_tol=hs_tol)
            _, it_1, stop_1 = kernels._solve_simplex_lsq(g, x[s : s + 1], 20000, hs_tol)
            assert np.array_equal(p_b[s], p_1[0]) and r_b[s] == r_1[0]
            assert it_b[s] == it_1[0] and stop_b[s] == stop_1[0]

    def test_empty_batch(self):
        g, _ = _sic_grid(1 / 3, n_directions=1)
        for outcomes in (2, 5):
            x = np.zeros((0, outcomes, g.shape[0]))
            p, res = kernels.solve_product_simplex_lsq(g, x)
            assert p.shape == (0, outcomes, g.shape[1]) and res.shape == (0,)
            assert kernels.simplex_lsq_lower_bound(g, x, p).shape == (0,)

    def test_zero_design_returns_the_uniform_start(self):
        # G = 0: every P is optimal, so no iteration runs
        _, x = self._problem(5, feasible=False)
        g = np.zeros((6, 4))
        p, iterations, stop = kernels._solve_simplex_lsq(g, x, 20000, 5e-8)
        assert np.all(p == 1 / 3) and np.all(iterations == 0) and np.all(stop == kernels.STOP_CAP)
        p, res = kernels.solve_product_simplex_lsq(g, x)
        assert np.all(p == 1 / 3) and res[0] == np.linalg.norm(x[0], axis=1).max()

    @pytest.mark.parametrize("seed", range(6))
    def test_lower_bound_below_objective(self, seed):
        # a bound taken at any point stays below the objective at every point
        g, x = self._problem(seed, feasible=False)
        points = np.random.default_rng(seed).random((5, 3, 4))
        points /= points.sum(axis=1, keepdims=True)
        points = np.concatenate([kernels.solve_product_simplex_lsq(g, x, max_iter=4000)[0], points])
        xs = np.repeat(x, len(points), axis=0)
        f = np.sum((points @ g.T - xs) ** 2, axis=(1, 2))
        lower = kernels.simplex_lsq_lower_bound(g, xs, points)
        assert lower.max() <= f.min() + 1e-9

    def test_infeasible_stops_early_with_certificate(self):
        g, x = _sic_grid(0.5, n_directions=6)
        p, iterations, stop = kernels._solve_simplex_lsq(g, x, 20000, 0.5 * SIC_TOL)
        certified = stop == kernels.STOP_CERTIFIED
        assert certified.any() and iterations.max() <= 64
        # the certificate rules out every map within the callers' tolerance
        m, dim = x.shape[1], x.shape[2]
        lower = kernels.simplex_lsq_lower_bound(g, x[certified], p[certified])
        assert np.all(lower > m * np.sqrt(dim) * SIC_TOL**2)


class TestBlahutArimoto:
    def test_identity_channel_bit(self):
        c, r, hist, _ = kernels.blahut_arimoto(np.eye(2))
        assert abs(c - 1.0) < 1e-9
        assert np.allclose(r, [0.5, 0.5])

    def test_constant_channel_zero(self):
        c, _, _, _ = kernels.blahut_arimoto(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert abs(c) < 1e-12

    def test_bsc_closed_form(self):
        f = 0.25
        h2 = -(f * np.log2(f) + (1 - f) * np.log2(1 - f))
        pyx = np.array([[1 - f, f], [f, 1 - f]])
        c, _, _, _ = kernels.blahut_arimoto(pyx, tol=1e-14)
        assert abs(c - (1 - h2)) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_iterates(self, seed):
        rng = np.random.default_rng(seed)
        pyx = rng.random((5, 4)) + 0.01
        pyx /= pyx.sum(axis=1, keepdims=True)
        _, _, hist, _ = kernels.blahut_arimoto(pyx, tol=1e-14)
        assert np.all(np.diff(hist) >= -1e-12)


def _masked_divergences(pyx, r):
    """KL(p(.|i) || qy) in nats for every input, over the whole matrix, with
    terms masked where p = 0 or qy = 0 (their ratio is read as 1)."""
    qy = r @ pyx
    ratio = np.divide(pyx, qy, out=np.ones_like(pyx), where=(pyx > 0) & (qy > 0))
    return np.sum(pyx * np.log(ratio), axis=1)


def _masked_blahut_arimoto(pyx, tol=1e-12, max_iter=200000):
    """Reference BA on the masked formula, stopped once the capacity
    bracket ``max_i KL_i - I`` is below ``tol`` bits.  Returns (I, prior)."""
    r = np.full(pyx.shape[0], 1.0 / pyx.shape[0])
    for _ in range(max_iter):
        d = _masked_divergences(pyx, r)
        value = float(r @ d) / np.log(2.0)
        if d.max() / np.log(2.0) - value < tol:
            break
        w = r * np.exp(d)
        r = w / w.sum()
    return value, r


def _mutual_information_bits(pyx, r):
    return float(r @ _masked_divergences(pyx, r)) / np.log(2.0)


def _extrapolated_blahut_arimoto(pyx, tol=1e-12, max_rounds=20000):
    """Reference BA on the masked formula, accelerated by squared
    extrapolation (SQUAREM; Varadhan and Roland 2008), stopped on the same
    capacity bracket as ``_masked_blahut_arimoto``.  Returns (I, prior).

    Each round takes two plain steps r -> r1 -> r2 and moves from r along
    r - 2 a s + a^2 v (s = r1 - r, v = r2 - 2 r1 + r), starting from
    a = -|s| / |v| and halving toward a = -1, which is r2 itself, until the
    prior is nonnegative and its I is no lower than at r2; one plain step
    from there ends the round.
    """

    def step(r):
        w = r * np.exp(_masked_divergences(pyx, r))
        return w / w.sum()

    r = np.full(pyx.shape[0], 1.0 / pyx.shape[0])
    for _ in range(max_rounds):
        d = _masked_divergences(pyx, r)
        value = float(r @ d) / np.log(2.0)
        if d.max() / np.log(2.0) - value < tol:
            break
        r1 = step(r)
        r2 = step(r1)
        s, v = r1 - r, r2 - 2 * r1 + r
        alpha = min(-np.linalg.norm(s) / np.linalg.norm(v), -1.0) if np.any(v) else -1.0
        floor = _mutual_information_bits(pyx, r2)
        ahead = r2
        while alpha < -1.0:
            trial = r - 2 * alpha * s + alpha * alpha * v
            if trial.min() >= 0:
                trial /= trial.sum()
                if _mutual_information_bits(pyx, trial) >= floor:
                    ahead = trial
                    break
            alpha = max((alpha - 1.0) / 2, -1.0)
        r = step(ahead)
    return value, r


def _bracket_bits(pyx, r):
    """(I(r), max_i KL(p(.|i) || rP)) in bits, infinite for an input that
    reaches an output rP misses."""
    qy = r @ pyx
    d = _masked_divergences(pyx, r) / np.log(2.0)
    d[((pyx > 0) & (qy[None, :] == 0)).any(axis=1)] = np.inf
    return float(r[r > 0] @ d[r > 0]), float(d.max())


def _gain_stop_values(pyxs, tol=1e-12, max_iter=10000):
    """Values of BA stopped when an iteration gains less than ``tol`` bits,
    the stop rule before the certificate, run on a stack of channels."""
    live = np.arange(pyxs.shape[0])
    values = np.empty(pyxs.shape[0])
    r = np.full(pyxs.shape[:2], 1.0 / pyxs.shape[1])
    prev = np.full(live.size, -np.inf)
    p = pyxs
    for _ in range(max_iter):
        qy = np.einsum("kn,knm->km", r, p)
        ratio = np.divide(p, qy[:, None, :], out=np.ones_like(p), where=p > 0)
        d = np.where(p > 0, p * np.log(ratio), 0.0).sum(axis=2)
        c = np.sum(r * d, axis=1) / np.log(2.0)
        values[live] = c
        keep = c - prev >= tol
        if not keep.any():
            break
        live, r, d, prev, p = live[keep], r[keep], d[keep], c[keep], p[keep]
        w = r * np.exp(d)
        r = w / w.sum(axis=1, keepdims=True)
    return values


class TestBlahutArimotoEdgeCases:
    def test_unreached_output_column(self):
        c, r, _, _ = kernels.blahut_arimoto(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
        assert c == 1.0
        assert np.allclose(r, [0.5, 0.5])

    def test_prior_underflow_stays_finite(self):
        # the last row loses half its mass per iteration until it is 0, and
        # the output only it reaches then has probability 0
        pyx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1e-300]])
        c, r, hist, upper = kernels.blahut_arimoto(pyx, tol=-np.inf, max_iter=10000)
        assert len(hist) == 10000 and r[3] == 0.0
        assert np.all(np.isfinite(hist)) and np.all(np.isfinite(r))
        assert abs(c - 1.0) < 1e-12
        # the output only the last row reaches has q = 0: no finite bound
        assert upper == np.inf

    def test_capped_with_underflowed_output_keeps_a_finite_lower_bound(self):
        # capped while the last row's prior is ~1e-30 > 0 and the output only
        # it reaches has q = 1e-30 * 1e-300 = 0: that term counts as 0 ln 0
        pyx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1e-300]])
        lower, r, hist, upper = kernels.blahut_arimoto(pyx, tol=-np.inf, max_iter=100)
        assert len(hist) == 100 and r[3] > 0 and (r @ pyx)[2] == 0
        assert abs(lower - 1.0) < 1e-12 and upper == np.inf
        lower, r, hist, upper = kernels.blahut_arimoto(pyx[None], tol=-np.inf, max_iter=100)
        assert hist.shape == (100, 1) and r[0, 3] > 0
        assert abs(lower[0] - 1.0) < 1e-12 and upper[0] == np.inf

    def test_off_face_underflow_certifies_nothing(self):
        # the face solve drops the last input; at the _OFF_FACE prior its
        # 1e-30 entry underflows q, so I reads infinite there and certifies
        # nothing, and BA closes the bracket instead
        pyx = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.5, 0.5, 1e-30]])
        lower, _, _, upper = kernels.blahut_arimoto(pyx)
        assert abs(lower - 1.0) < 1e-9 and 0 <= upper - lower < 1e-12
        lower, _, _, upper = kernels.blahut_arimoto(np.stack([pyx, np.eye(3)]))
        assert abs(lower[0] - 1.0) < 1e-9 and np.all((0 <= upper - lower) & (upper - lower < 1e-12))

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_masked_formula(self, seed):
        rng = np.random.default_rng(seed + 300)
        n = 4 + seed % 13
        pyx = random_stochastic(rng, n, n).T.copy()
        c_ref, r_ref = _extrapolated_blahut_arimoto(pyx, tol=1e-12)
        i_ref, u_ref = _bracket_bits(pyx, r_ref)
        assert u_ref - i_ref < 1e-12
        c, _, _, upper = kernels.blahut_arimoto(pyx)
        assert abs(c - c_ref) < 1e-12
        assert upper - c < 1e-12

    def test_warm_prior_with_zero_entry_recovers(self):
        # the optimum of the 3-symbol identity channel uses the input whose
        # warm prior is 0
        c, r, _, _ = kernels.blahut_arimoto(np.eye(3), prior=np.array([0.5, 0.5, 0.0]))
        assert abs(c - np.log2(3)) < 1e-9
        assert np.allclose(r, 1 / 3, atol=1e-9)

    def test_warm_start_at_optimum_stops_at_once(self):
        f = 0.25
        pyx = np.array([[1 - f, f, 0.0], [f, 1 - f, 0.0], [0.0, 0.0, 1.0]])
        c, r, _, _ = kernels.blahut_arimoto(pyx, tol=1e-14)
        c_warm, _, hist, _ = kernels.blahut_arimoto(pyx, tol=1e-14, prior=r)
        assert len(hist) <= 2
        assert abs(c_warm - c) < 1e-12


# the fixed random maps of the benchmark's capacity workload
BANK_SEED = 20090113
NEAR_DUPLICATE = np.array([[0.7591, 0.0316, 0.2093], [0.1818, 0.3761, 0.442], [0.1783, 0.362, 0.4597]])


def _bank_maps():
    rng = np.random.default_rng(BANK_SEED)
    return [random_stochastic(rng, n, n) for n in (4,) * 40 + (8,) * 25 + (16,) * 10]


def _rows(p):
    return p / p.sum(axis=1, keepdims=True)


def _degenerate_channels():
    """Shapes the observable search feeds BA: states that coincide or
    nearly do, and many more states than outcomes."""
    rng = np.random.default_rng(5)
    base = _rows(rng.random((3, 4)))
    return {
        "duplicate_rows": np.vstack([base, base[:2], base[1:2]]),
        "near_duplicate_3x3": _rows(NEAR_DUPLICATE),
        "inputs_16_outputs_2": _rows(rng.random((16, 2)) ** 3),
        "inputs_9_outputs_3": _rows(rng.random((9, 3)) ** 4),
    }


class TestBlahutArimotoCertificate:
    def test_capacity_bank_certified_and_never_lower(self):
        maps = _bank_maps()
        gain_stop = np.concatenate(
            [_gain_stop_values(np.array([m.T for m in maps if m.shape[0] == n])) for n in (4, 8, 16)]
        )
        for m, before in zip(maps, gain_stop):
            pyx = np.ascontiguousarray(m.T)
            lower, r, _, upper = kernels.blahut_arimoto(pyx)
            i_r, u_r = _bracket_bits(pyx, r)
            assert abs(i_r - lower) < 1e-12 and abs(u_r - upper) < 1e-12
            assert u_r - i_r <= 1e-9
            assert lower >= before - 1e-12

    @pytest.mark.parametrize("name", sorted(_degenerate_channels()))
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_degenerate_inputs_certified(self, name, tol):
        pyx = _degenerate_channels()[name]
        lower, r, hist, upper = kernels.blahut_arimoto(pyx, tol=tol, max_iter=2000)
        assert upper - lower < tol and len(hist) < 2000
        assert r.min() >= 0 and abs(r.sum() - 1) < 1e-12
        i_r, u_r = _bracket_bits(pyx, r)
        assert abs(i_r - lower) < 1e-12 and u_r - i_r < tol + 1e-15

    def test_near_duplicate_beats_plain_blahut_arimoto(self):
        # plain BA creeps along the direction that trades the two close rows
        pyx = _rows(NEAR_DUPLICATE)
        c_plain, r_plain = _masked_blahut_arimoto(pyx, tol=1e-10, max_iter=2000)
        i_plain, u_plain = _bracket_bits(pyx, r_plain)
        lower, _, _, upper = kernels.blahut_arimoto(pyx, tol=1e-10, max_iter=2000)
        assert u_plain - i_plain > 1e-5
        assert upper - lower < 1e-10 and lower > c_plain

    def test_cap_reports_open_gap(self, monkeypatch):
        pyx = _rows(NEAR_DUPLICATE)
        lower, _, hist, upper = kernels.blahut_arimoto(pyx, tol=1e-10, max_iter=1)
        assert len(hist) == 1 and upper - lower >= 1e-10
        # without the face solve BA alone runs into the cap
        monkeypatch.setattr(kernels, "_newton_certificate", lambda *args: None)
        lower, r, hist, upper = kernels.blahut_arimoto(pyx, tol=1e-10, max_iter=2000)
        assert len(hist) == 2000 and upper - lower >= 1e-10
        assert np.all(np.diff(hist) >= -1e-12)
        assert np.allclose(_bracket_bits(pyx, r), (lower, upper), rtol=0, atol=1e-12)


# output 1 is reached only by row 6, where the optimal prior is about 3e-62:
# the face solve drops that row, and only the prior at which its divergence
# equals I certifies the face (plain BA needs about 3000 iterations)
SPARSE_8X4 = _rows(np.array([
    [0, 0, 1, 0], [1, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0],
    [0.023, 0, 0.977, 0], [0.999, 0, 0.00094, 0], [0.539, 0.0049, 0.456, 0], [0, 0, 0.0002, 0.9998],
]))
# with a ninth row that reaches output 1 as well, no input reaches it alone:
# no face solve certifies the map, and BA needs about 3000 iterations
SHARED_9X4 = _rows(np.vstack([SPARSE_8X4, [0.456, 0.0049, 0.539, 0]]))
EASY_2X2 = np.array([[0.9, 0.1], [0.2, 0.8]])


def _padded(maps):
    """Maps of mixed shapes as one stack, padded with zero rows and columns."""
    stack = np.zeros((len(maps), max(m.shape[0] for m in maps), max(m.shape[1] for m in maps)))
    for s, m in enumerate(maps):
        stack[s, : m.shape[0], : m.shape[1]] = m
    return stack


def _stack_maps():
    """Bank maps of every size, degenerate shapes, an output column no input
    reaches, and duplicate rows next to a duplicated input that the face
    solve has to drop."""
    rng = np.random.default_rng(5)
    base = _rows(rng.random((3, 4)))
    mix = (base[0] + base[1]) / 2
    degenerate = _degenerate_channels()
    return [m.T.copy() for m in _bank_maps()[::9]] + [
        np.vstack([base, base[:1], mix, mix]),
        degenerate["inputs_16_outputs_2"],
        degenerate["inputs_9_outputs_3"],
        np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]),
    ]


class TestBlahutArimotoStack:
    def test_face_drop_map_is_certified_by_newton(self):
        m = _stack_maps()[-4]
        _, r, hist, _ = kernels.blahut_arimoto(m)
        # certified at the first iteration, with the duplicated mixture of
        # two inputs dropped from the face
        assert len(hist) == 1 and np.all(r[-2:] == kernels._OFF_FACE)

    @pytest.mark.parametrize("tol", [1e-12, 1e-10])
    def test_stack_matches_per_map_calls(self, tol):
        maps = _stack_maps()
        lower, prior, hist, upper = kernels.blahut_arimoto(_padded(maps), tol=tol)
        assert lower.shape == upper.shape == (len(maps),) and hist.shape[1] == len(maps)
        for s, m in enumerate(maps):
            lower_1, prior_1, hist_1, upper_1 = kernels.blahut_arimoto(m, tol=tol)
            assert abs(lower[s] - lower_1) <= 1e-15 and abs(upper[s] - upper_1) <= 1e-15
            # the stacked face solve keeps zero rows a single problem drops,
            # so its SVDs round differently: a few ulps of the prior
            assert np.abs(prior[s, : m.shape[0]] - prior_1).max() <= 1e-14
            assert np.all(prior[s, m.shape[0] :] == 0)
            # the column of a problem holds its values, NaN once it stopped
            ran = np.isfinite(hist[:, s])
            assert ran.sum() == len(hist_1) and ran[: len(hist_1)].all()
            assert np.abs(hist[: len(hist_1), s] - hist_1).max() <= 1e-15

    def test_bracket_alone_guards_the_step_budget(self, monkeypatch):
        # with no steps besides the face size, face solves run out of steps;
        # the bracket over all inputs alone decides what is certified
        monkeypatch.setattr(kernels, "_NEWTON_STEPS", 0)
        face_solve, unsolved = kernels._maximize_on_face, []

        def counted(pyx, h, x, gap):
            x = face_solve(pyx, h, x, gap)
            value, d = kernels._divergences(pyx, h, x)
            unsolved.append(int(np.sum(np.where(x > 0, d, -np.inf).max(axis=-1) - value >= gap)))
            return x

        monkeypatch.setattr(kernels, "_maximize_on_face", counted)
        maps = [m.T.copy() for m in _bank_maps()]
        for m in maps:
            lower, _, _, upper = kernels.blahut_arimoto(m)
            assert upper - lower < 1e-12
        lower, _, _, upper = kernels.blahut_arimoto(_padded(maps))
        assert np.all(upper - lower < 1e-12)
        assert sum(unsolved) > 0

    def test_problem_does_not_depend_on_its_stack(self):
        maps = _stack_maps()
        stack = _padded(maps)
        lower, prior, _, upper = kernels.blahut_arimoto(stack)
        # the 16 x 16 map reaches every column, so each pair below keeps
        # the stack's shape and only the company of problem s changes
        wide = next(s for s, m in enumerate(maps) if m.shape == (16, 16))
        for s in range(len(maps)):
            pair = [s, wide] if s != wide else [s]
            lower_2, prior_2, _, upper_2 = kernels.blahut_arimoto(stack[pair])
            assert lower_2[0] == lower[s] and upper_2[0] == upper[s]
            assert np.array_equal(prior_2[0], prior[s])
        reverse = kernels.blahut_arimoto(stack[::-1])
        assert np.array_equal(reverse[0][::-1], lower) and np.array_equal(reverse[1][::-1], prior)

    @pytest.mark.parametrize("name", ["stack_face_drop", "duplicate_rows"])
    def test_duplicate_rows_take_one_face_alone_and_stacked(self, name):
        # copies of a row have equal divergences, so the slope along the
        # move that trades them is 0 up to rounding; a climb along it would
        # let the rounding of the call's shape decide how they split
        m = _stack_maps()[-4] if name == "stack_face_drop" else _degenerate_channels()[name]
        _, alone, _, _ = kernels.blahut_arimoto(m)
        _, stacked, _, _ = kernels.blahut_arimoto(_padded([m, _bank_maps()[-1].T]))
        assert np.abs(stacked[0, : m.shape[0]] - alone).max() <= 1e-14

    @pytest.mark.parametrize("max_iter", [1, 2, 3, 60])
    def test_capped_stack_matches_per_map_calls(self, max_iter):
        maps = [SHARED_9X4, _rows(NEAR_DUPLICATE), EASY_2X2]
        lower, _, hist, upper = kernels.blahut_arimoto(_padded(maps), max_iter=max_iter)
        assert len(hist) == max_iter and upper[0] - lower[0] > 1e-3
        for s, m in enumerate(maps):
            lower_1, _, hist_1, upper_1 = kernels.blahut_arimoto(m, max_iter=max_iter)
            assert abs(lower[s] - lower_1) <= 1e-12 and abs(upper[s] - upper_1) <= 1e-12
            assert np.isfinite(hist[:, s]).sum() == len(hist_1)

    def test_newton_pass_certifying_none_of_a_stack(self, monkeypatch):
        certificate, uncertified = kernels._newton_certificate, []

        def recorded(pyx, *args):
            found = certificate(pyx, *args)
            uncertified.append(pyx.ndim == 3 and found is None)
            return found

        monkeypatch.setattr(kernels, "_newton_certificate", recorded)
        maps = [SHARED_9X4, EASY_2X2]
        lower, prior, hist, upper = kernels.blahut_arimoto(_padded(maps))
        # the easy channel leaves at once; the sparse one's later passes fail
        assert any(uncertified)
        for s, m in enumerate(maps):
            lower_1, prior_1, hist_1, upper_1 = kernels.blahut_arimoto(m)
            assert abs(lower[s] - lower_1) <= 1e-12 and abs(upper[s] - upper_1) <= 1e-12
            assert np.abs(prior[s, : m.shape[0]] - prior_1).max() <= 1e-14
            assert np.isfinite(hist[:, s]).sum() == len(hist_1)
        assert upper[0] - lower[0] < 1e-12

    def test_empty_stack(self):
        lower, prior, hist, upper = kernels.blahut_arimoto(np.zeros((0, 3, 2)))
        assert lower.shape == upper.shape == (0,) and prior.shape == (0, 3) and hist.shape == (0, 0)

    def test_warm_stack_and_bracket(self):
        maps = _stack_maps()
        stack = _padded(maps)
        _, prior, _, _ = kernels.blahut_arimoto(stack)
        lower, warm_prior, hist, upper = kernels.blahut_arimoto(stack, tol=1e-10, prior=prior)
        assert len(hist) == 1 and np.all(upper - lower < 1e-10)
        for s, m in enumerate(maps):
            i_r, u_r = _bracket_bits(m, warm_prior[s, : m.shape[0]])
            assert abs(i_r - lower[s]) < 1e-12 and abs(u_r - upper[s]) < 1e-12


# the capacity of SPARSE_8X4, certified by BA alone to within 1e-12 bits
SPARSE_8X4_BITS = 1.5840475476126625


def _sparse_or_rectangular_maps(count=200, seed=2024):
    """Seeded maps with 2 to 8 inputs and outputs: every other one sparse
    (most entries 0, each row keeping one entry), the rest dense and
    mostly rectangular."""
    rng = np.random.default_rng(seed)
    maps = []
    for k in range(count):
        n, m = (int(v) for v in rng.integers(2, 9, size=2))
        p = rng.random((n, m)) ** 2
        if k % 2 == 0:
            p[rng.random((n, m)) < 0.6] = 0.0
            p[np.arange(n), rng.integers(0, m, size=n)] += rng.random(n)
        maps.append(_rows(p))
    return maps


class TestNewtonFaceSolve:
    def test_steps_per_bank_call(self, monkeypatch):
        # a step that reaches the boundary drops every blocked input at
        # once, not only the one at the boundary
        step, calls = kernels._newton_step, []

        def counted(*args):
            calls.append(1)
            return step(*args)

        monkeypatch.setattr(kernels, "_newton_step", counted)
        maps = _bank_maps()
        for n, bound in ((4, 5.0), (8, 7.0), (16, 9.0)):
            calls.clear()
            sized = [m.T.copy() for m in maps if m.shape[0] == n]
            for m in sized:
                kernels.blahut_arimoto(m)
            assert len(calls) / len(sized) <= bound, n

    @pytest.mark.parametrize("family", ["bank", "stack", "sparse_or_rectangular"])
    def test_agrees_with_reference_alone_and_stacked(self, family):
        maps = {
            "bank": lambda: [m.T.copy() for m in _bank_maps()],
            # extrapolated BA stays sublinear on the 16 x 2 map, whose own
            # bracket test_degenerate_inputs_certified checks
            "stack": lambda: [m for m in _stack_maps() if m.shape != (16, 2)],
            "sparse_or_rectangular": _sparse_or_rectangular_maps,
        }[family]()
        tol = 1e-12
        stacked, _, _, stacked_upper = kernels.blahut_arimoto(_padded(maps), tol=tol)
        for s, m in enumerate(maps):
            c_ref, r_ref = _extrapolated_blahut_arimoto(m, tol=tol)
            i_ref, u_ref = _bracket_bits(m, r_ref)
            assert u_ref - i_ref < tol
            lower, _, _, upper = kernels.blahut_arimoto(m, tol=tol)
            # two certified lower bounds within tol of the capacity
            assert abs(lower - c_ref) < tol and upper - lower < tol
            assert abs(stacked[s] - c_ref) < tol and stacked_upper[s] - stacked[s] < tol

    def test_lone_output_input_is_placed_at_equal_divergence(self):
        # the face solve drops row 6, the only row reaching output 1; at the
        # prior where its divergence equals I the face is certified at once
        lower, r, hist, upper = kernels.blahut_arimoto(SPARSE_8X4)
        assert len(hist) <= 50 and upper - lower < 1e-12
        assert abs(lower - SPARSE_8X4_BITS) < 1e-12
        assert kernels._OFF_FACE < r[6] < 1e-50 and abs(r.sum() - 1) < 1e-15
        i_r, u_r = _bracket_bits(SPARSE_8X4, r)
        assert abs(i_r - lower) < 1e-12 and abs(u_r - upper) < 1e-12
        lower, prior, hist, upper = kernels.blahut_arimoto(_padded([SPARSE_8X4, EASY_2X2]))
        assert len(hist) <= 50 and np.all(upper - lower < 1e-12)
        assert abs(lower[0] - SPARSE_8X4_BITS) < 1e-12 and np.abs(prior[0] - r).max() <= 1e-14

    @pytest.mark.parametrize("tol", [0.0, -np.inf])
    def test_no_placement_below_a_positive_gap(self, tol):
        # no prior brackets the capacity within tol <= 0, so the calls run to
        # the cap, alone and stacked
        lower, _, hist, upper = kernels.blahut_arimoto(SPARSE_8X4, tol=tol, max_iter=60)
        assert len(hist) == 60 and upper - lower > 0
        lower, _, hist, upper = kernels.blahut_arimoto(_padded([SPARSE_8X4, EASY_2X2]), tol=tol, max_iter=60)
        assert len(hist) == 60 and upper[0] - lower[0] > 0

    def test_lone_output_observable(self, monkeypatch):
        # the diagonal observable X_j = diag(column j) runs the same channel
        # through the classical path of the observable search
        x = DiscreteObservable.from_effects([np.diag(SPARSE_8X4[:, j]).astype(complex) for j in range(4)])
        ba, iterations = kernels.blahut_arimoto, []

        def counted(*args, **kwargs):
            found = ba(*args, **kwargs)
            iterations.append(len(found[2]))
            return found

        monkeypatch.setattr(kernels, "blahut_arimoto", counted)
        est = observable_capacity(x)
        assert abs(est.bits - SPARSE_8X4_BITS) < 1e-12 and sum(iterations) <= 50


class TestBackendSelection:
    def test_default_backend_reported(self):
        assert kernels.BACKEND == "numpy"

    def test_numba_never_imported(self):
        code = "import sys, qichan, qichan.cli; print('numba' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
