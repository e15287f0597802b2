import numpy as np
import pytest

from qichan import numlin
from qichan.errors import DimMismatch, NotHermitian, NotPSD, NotSquare
from qichan.rand import generator, random_density, random_hermitian

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEig:
    def test_already_diagonal(self):
        w, u = numlin.hermitian_eig(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_pauli_x_spectrum(self):
        w, u = numlin.hermitian_eig(SX)
        assert np.allclose(w, [-1.0, 1.0])
        minus = np.array([1, -1]) / np.sqrt(2)
        plus = np.array([1, 1]) / np.sqrt(2)
        # eigenvectors fixed up to phase
        assert abs(abs(minus.conj() @ u[:, 0]) - 1) < 1e-12
        assert abs(abs(plus.conj() @ u[:, 1]) - 1) < 1e-12

    def test_round_trip_8x8(self):
        h = random_hermitian(generator(5), 8)
        w, u = numlin.hermitian_eig(h)
        assert numlin.op_norm((u * w) @ u.conj().T - h) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random_dims(self, seed):
        rng = generator(seed)
        d = int(rng.integers(2, 17))
        h = random_hermitian(rng, d)
        w, u = numlin.hermitian_eig(h)
        assert numlin.op_norm((u * w) @ u.conj().T - h) < 1e-8
        assert numlin.op_norm(u.conj().T @ u - np.eye(d)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            numlin.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            numlin.hermitian_eig(np.zeros((2, 3), dtype=complex))


def kernel(a, tol=numlin.DEFAULT_TOL):
    """Eigenvectors of a PSD matrix outside its support, as columns."""
    _, u, support = numlin.psd_eig(a, tol)
    return u[:, ~support]


def sqrt_pinv_and_support(a, tol=numlin.DEFAULT_TOL):
    """A^(-1/2) on the support of a PSD matrix, zero on its kernel, and the
    support projector, both from one psd_eig call."""
    w, u, support = numlin.psd_eig(a, tol)
    us = u[:, support]
    return (us / np.sqrt(w[support])) @ us.conj().T, us @ us.conj().T


class TestNullspace:
    def test_zero_matrix(self):
        ns = kernel(np.zeros((3, 3), dtype=complex))
        assert ns.shape == (3, 3)

    def test_identity(self):
        assert kernel(np.eye(4, dtype=complex)).shape == (4, 0)

    def test_rank_one_projector(self):
        ns = kernel(np.diag([1.0, 0.0]).astype(complex))
        assert ns.shape == (2, 1)
        assert abs(abs(ns[1, 0]) - 1) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_residual_bound(self, seed):
        # the kernel of the Gram matrix a^dag a is the nullspace of a
        rng = generator(seed)
        a = rng.standard_normal((6, 8)) + 1j * rng.standard_normal((6, 8))
        a[:, -2:] = 0  # force rank deficiency in some direction
        ns = kernel(a.conj().T @ a)
        assert ns.shape == (8, 2)
        smax = np.linalg.norm(a, 2)
        for k in range(ns.shape[1]):
            assert np.linalg.norm(a @ ns[:, k]) <= numlin.DEFAULT_TOL.rank_rel * smax
        assert numlin.op_norm(ns.conj().T @ ns - np.eye(ns.shape[1])) < 1e-10

    def test_support_and_kernel_cover_every_direction(self):
        # -1e-12 is within abs_eps of PSD but below the support cut, so it
        # belongs to the kernel; a second, SVD-based cut would put it in neither
        tol = numlin.Tolerance(abs_eps=1e-9, rank_rel=1e-14)
        _, u, support = numlin.psd_eig(np.diag([1.0, -1e-12, 0.0]).astype(complex), tol)
        assert support.sum() == 1
        assert u[:, ~support].shape == (3, 2)


class TestPsdSqrtPinv:
    def test_identity(self):
        r, _ = sqrt_pinv_and_support(np.eye(3, dtype=complex))
        assert numlin.op_norm(r - np.eye(3)) < 1e-12

    def test_diag_with_kernel(self):
        r, _ = sqrt_pinv_and_support(np.diag([4.0, 0.0]).astype(complex))
        assert np.allclose(np.diag(r).real, [0.5, 0.0])

    def test_counterexample_channel_normalization(self):
        # channel C^3 -> C^4 keeping 1/3 of each level and dumping 2/3 of the
        # trace on the fourth level; its image of the identity has full support
        elements = []
        for i in range(3):
            e = np.zeros((4, 3), dtype=complex)
            e[i, i] = 1 / np.sqrt(3)
            elements.append(e)
        for i in range(3):
            e = np.zeros((4, 3), dtype=complex)
            e[3, i] = np.sqrt(2 / 3)
            elements.append(e)
        a = sum(e @ e.conj().T for e in elements)
        assert np.allclose(np.diag(a).real, [1 / 3, 1 / 3, 1 / 3, 2])
        r, support = sqrt_pinv_and_support(a)
        assert numlin.op_norm(r @ a @ r - support) < 1e-9
        assert numlin.op_norm(support - np.eye(4)) < 1e-12

    @pytest.mark.parametrize("seed", range(10))
    def test_support_identity_random(self, seed):
        rng = generator(seed)
        g = rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))
        a = g @ g.conj().T  # PSD with 3-dim kernel
        r, support = sqrt_pinv_and_support(a)
        assert numlin.op_norm(support @ support - support) < 1e-10
        assert abs(np.trace(support).real - 3) < 1e-10
        assert numlin.op_norm(r @ a @ r - support) < 1e-8
        assert numlin.op_norm(r @ r @ a - support) < 1e-8

    def test_rejects_negative(self):
        with pytest.raises(NotPSD):
            numlin.psd_eig(np.diag([1.0, -1.0]).astype(complex))


class TestKronPartialTrace:
    def test_product_state(self):
        rng = generator(2)
        rho = random_density(rng, 3)
        sigma = random_density(rng, 2)
        joint = np.kron(rho, sigma)
        assert numlin.op_norm(numlin.partial_trace(joint, [3, 2], {0}) - rho) < 1e-12
        assert numlin.op_norm(numlin.partial_trace(joint, [3, 2], {1}) - sigma) < 1e-12

    def test_bell_state_marginals(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / np.sqrt(2)
        p = np.outer(bell, bell.conj())
        for keep in ({0}, {1}):
            assert numlin.op_norm(numlin.partial_trace(p, [2, 2], keep) - np.eye(2) / 2) < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_trace_preserving(self, seed):
        rng = generator(seed)
        a = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
        for keep in ({0}, {1}, {0, 2}, {1, 2}):
            pt = numlin.partial_trace(a, [2, 3, 2], keep)
            assert abs(np.trace(pt) - np.trace(a)) < 1e-10

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            numlin.partial_trace(np.eye(5, dtype=complex), [2, 2], {0})


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_round_trip_and_isometry(self, d):
        h = random_hermitian(generator(d), d)
        v = numlin.herm_to_coords(h)
        assert v.dtype == np.float64
        assert np.allclose(numlin.coords_to_herm(v, d), h)
        assert abs(np.linalg.norm(v) - np.linalg.norm(h, "fro")) < 1e-12


class TestStacks:
    def test_op_norm_of_a_stack_is_the_largest_matrix_norm(self):
        rng = generator(0)
        stack = rng.standard_normal((2, 3, 4, 5)) + 1j * rng.standard_normal((2, 3, 4, 5))
        per_matrix = [numlin.op_norm(m) for m in stack.reshape(-1, 4, 5)]
        assert numlin.op_norm(stack) == max(per_matrix)
        assert numlin.op_norm(np.zeros((0, 3, 3))) == 0.0

    def test_dagger_of_a_stack_is_per_matrix(self):
        rng = generator(1)
        stack = rng.standard_normal((3, 2, 4)) + 1j * rng.standard_normal((3, 2, 4))
        got = numlin.dagger(stack)
        assert all(np.array_equal(g, m.conj().T) for g, m in zip(got, stack))

    def test_asmatrices_checks_rank_and_finiteness(self):
        assert numlin.asmatrices(np.ones((2, 3, 3))).dtype == np.complex128
        with pytest.raises(DimMismatch):
            numlin.asmatrices(np.ones(3))
        with pytest.raises(DimMismatch):
            numlin.asmatrix(np.ones((2, 3, 3)))
        with pytest.raises(ValueError, match="finite"):
            numlin.asmatrices(np.full((2, 2, 2), np.inf))
