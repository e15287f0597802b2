import subprocess
import sys

import numpy as np
import pytest

from qichan import kernels
from qichan.catalog import PAULI_X, PAULI_Y, PAULI_Z, shrinking_channel, sic_tetrahedron
from qichan.channels import apply_dual
from qichan.decoherence import _coordinates


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
        assert abs(r_b[0] - r_1[0]) < 1e-6
        assert np.abs(p_b[0] - p_1[0]).max() < 1e-4

    def test_mixed_batch_is_exactly_per_problem(self):
        g, x = _sic_grid(0.5, n_directions=6)
        _, _, stop = kernels._solve_simplex_lsq(g, x, 20000, 0.5 * SIC_TOL)
        assert {kernels.STOP_FEASIBLE, kernels.STOP_CERTIFIED} <= set(stop.tolist())
        p_b, r_b = kernels.solve_product_simplex_lsq(g, x, hs_tol=0.5 * SIC_TOL)
        for s in range(x.shape[0]):
            p_1, r_1 = kernels.solve_product_simplex_lsq(g, x[s : s + 1], hs_tol=0.5 * SIC_TOL)
            assert np.array_equal(p_b[s], p_1[0]) and r_b[s] == r_1[0]

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
        c, r, hist = kernels.blahut_arimoto(np.eye(2))
        assert abs(c - 1.0) < 1e-9
        assert np.allclose(r, [0.5, 0.5])

    def test_constant_channel_zero(self):
        c, _, _ = kernels.blahut_arimoto(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert abs(c) < 1e-12

    def test_bsc_closed_form(self):
        f = 0.25
        h2 = -(f * np.log2(f) + (1 - f) * np.log2(1 - f))
        pyx = np.array([[1 - f, f], [f, 1 - f]])
        c, _, _ = kernels.blahut_arimoto(pyx, tol=1e-14)
        assert abs(c - (1 - h2)) < 1e-8

    @pytest.mark.parametrize("seed", range(6))
    def test_monotone_iterates(self, seed):
        rng = np.random.default_rng(seed)
        pyx = rng.random((5, 4)) + 0.01
        pyx /= pyx.sum(axis=1, keepdims=True)
        _, _, hist = kernels.blahut_arimoto(pyx, tol=1e-14)
        assert np.all(np.diff(hist) >= -1e-12)


class TestBackendSelection:
    def test_default_backend_reported(self):
        assert kernels.BACKEND == "numpy"

    def test_numba_never_imported(self):
        code = "import sys, qichan, qichan.cli; print('numba' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "False"
