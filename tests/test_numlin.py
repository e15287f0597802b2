import numpy as np
import pytest

from qichan import numlin
from qichan.errors import DimMismatch, NotHermitian, NotPSD, NotSquare
from qichan.rand import generator, random_hermitian


class TestHermitianEig:
    """The eigendecomposition :func:`numlin.psd_eig` makes of a PSD input,
    and its refusals of inputs that are not Hermitian or not square."""

    def test_already_diagonal(self):
        w, u, _ = numlin.psd_eig(np.diag([1.0, 2.0]).astype(complex))
        assert np.allclose(w, [1.0, 2.0])
        assert np.allclose(np.abs(u), np.eye(2))

    def test_round_trip_8x8(self):
        h = random_hermitian(generator(5), 8)
        p = h @ h.conj().T
        w, u, _ = numlin.psd_eig(p)
        assert numlin.op_norm((u * w) @ u.conj().T - p) < 1e-9

    @pytest.mark.parametrize("seed", range(20))
    def test_round_trip_random_dims(self, seed):
        rng = generator(seed)
        d = int(rng.integers(2, 17))
        h = random_hermitian(rng, d)
        p = h @ h.conj().T
        w, u, _ = numlin.psd_eig(p)
        assert numlin.op_norm((u * w) @ u.conj().T - p) < 1e-8
        assert numlin.op_norm(u.conj().T @ u - np.eye(d)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(NotHermitian):
            numlin.psd_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_rejects_non_square(self):
        with pytest.raises(NotSquare):
            numlin.psd_eig(np.zeros((2, 3), dtype=complex))

    @pytest.mark.parametrize(
        "off, refusal",
        [
            (lambda x: np.array([[1.0, x], [0.0, 1.0]]), NotHermitian),
            (lambda x: np.diag([1.0, -x]), NotPSD),
        ],
        ids=["hermitian", "psd"],
    )
    def test_cut_has_the_support_floor(self, off, refusal):
        # 2e-16 is within d eps of the largest eigenvalue, rounding at any
        # abs_eps; 1e-12 is refused at abs_eps 1e-13 and passes at 1e-9
        numlin.psd_eig(off(2e-16).astype(complex), numlin.Tolerance(1e-16))
        with pytest.raises(refusal):
            numlin.psd_eig(off(1e-12).astype(complex), numlin.Tolerance(1e-13))
        numlin.psd_eig(off(1e-12).astype(complex))


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


class TestHermitianCoordinates:
    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_round_trip_and_isometry(self, d):
        h = random_hermitian(generator(d), d)
        v = numlin.herm_to_coords(h)
        assert v.dtype == np.float64
        assert np.allclose(numlin.coords_to_herm(v, d), h)
        assert abs(np.linalg.norm(v) - np.linalg.norm(h, "fro")) < 1e-12

    @pytest.mark.parametrize("d", range(1, 7))
    def test_stacks_round_trip_and_keep_norms(self, d):
        rng = generator(10 + d)
        x = rng.standard_normal((3, 2, d, d)) + 1j * rng.standard_normal((3, 2, d, d))
        h = x + np.swapaxes(x, -1, -2).conj()
        v = numlin.herm_to_coords(h)
        assert v.shape == (3, 2, d * d) and v.dtype == np.float64
        back = numlin.coords_to_herm(v, d)
        assert back.shape == h.shape
        assert np.abs(back - h).max() <= 1e-15 * np.abs(h).max()
        assert np.array_equal(back, np.swapaxes(back, -1, -2).conj())
        hs = np.linalg.norm(h, axis=(-2, -1))
        assert np.abs(np.linalg.norm(v, axis=-1) - hs).max() <= 1e-14 * hs.max()
        # a stack maps matrix by matrix
        assert np.array_equal(numlin.coords_to_herm(v[1, 0], d), back[1, 0])
        assert np.array_equal(numlin.herm_to_coords(h[2, 1]), v[2, 1])

    def test_coords_of_wrong_length_rejected(self):
        with pytest.raises(DimMismatch):
            numlin.coords_to_herm(np.zeros((2, 8)), 3)
        with pytest.raises(DimMismatch):
            numlin.coords_to_herm(np.float64(1.0), 1)


def dense_laplacian(ops):
    """sum of ad_g^dag ad_g over the operators and their adjoints, with
    ad_g = g (x) 1 - 1 (x) g^T on row-major vec."""
    d = ops[0].shape[0]
    eye = np.eye(d)
    lap = np.zeros((d * d, d * d), dtype=complex)
    for s in ops:
        for g in (s, s.conj().T):
            ad = np.kron(g, eye) - np.kron(eye, g.T)
            lap += ad.conj().T @ ad
    return lap


def laplacian_cases():
    cases = []
    for d in range(2, 9):
        rng = generator(40 + d)
        ops = rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))
        cases.append(pytest.param(list(ops), id=f"generic-{d}"))
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        mixed = [1e3 * np.diag(np.arange(d)).astype(complex), 1e-6 * y]
        cases.append(pytest.param(mixed, id=f"mixed-scales-{d}"))
    return cases


class TestSuperopToCoords:
    @pytest.mark.parametrize("ops", laplacian_cases())
    def test_exactly_symmetric_with_the_laplacians_spectrum(self, ops):
        lap = dense_laplacian(ops)
        folded = numlin.superop_to_coords(lap)
        assert folded.dtype == np.float64 and np.array_equal(folded, folded.T)
        want = np.linalg.eigvalsh(lap)
        assert np.abs(np.linalg.eigvalsh(folded) - want).max() <= 1e-13 * want[-1]

    @pytest.mark.parametrize("d", (2, 3, 5))
    def test_is_the_laplacian_in_the_hermitian_basis(self, d):
        rng = generator(d)
        lap = dense_laplacian(list(rng.standard_normal((2, d, d)) + 1j * rng.standard_normal((2, d, d))))
        # column j of t is vec of the j-th basis matrix of herm_to_coords
        t = numlin.coords_to_herm(np.eye(d * d), d).reshape(d * d, d * d).T
        dense = t.conj().T @ lap @ t
        scale = np.abs(lap).max()
        assert np.abs(dense.imag).max() <= 1e-13 * scale
        assert np.abs(numlin.superop_to_coords(lap) - dense.real).max() <= 1e-13 * scale

    def test_rejects_non_square_dimension(self):
        with pytest.raises(DimMismatch):
            numlin.superop_to_coords(np.zeros((8, 8), dtype=complex))


class TestNormCut:
    def test_abs_eps_when_above_rounding(self):
        assert numlin.norm_cut(numlin.DEFAULT_TOL, 16) == numlin.DEFAULT_TOL.abs_eps

    def test_rounding_floor_below_abs_eps(self):
        eps = np.finfo(np.float64).eps
        tol = numlin.Tolerance(1e-15, 1e-15)
        assert numlin.norm_cut(tol, 81, 3.0) == 81 * eps * 3.0
        assert numlin.norm_cut(numlin.Tolerance(1e-30, 1e-15), 4) == 4 * eps


class TestOpNormAtMost:
    def _no_svd(self, monkeypatch):
        def fail(a):
            raise AssertionError("Frobenius norms settle this case")

        monkeypatch.setattr(numlin, "op_norm", fail)

    def test_frobenius_at_most_bound_is_yes_without_svd(self, monkeypatch):
        self._no_svd(monkeypatch)
        assert numlin.op_norm_at_most(np.diag([0.3, 0.4]), 0.5)

    def test_frobenius_above_sqrt_rank_bound_is_no_without_svd(self, monkeypatch):
        self._no_svd(monkeypatch)
        assert not numlin.op_norm_at_most(np.eye(4), 0.9)

    def test_norm_at_most_bound_below_frobenius(self):
        # ||A|| = 0.5 <= 0.6 < ||A||_F = 0.71
        assert numlin.op_norm_at_most(0.5 * np.eye(2), 0.6)

    def test_norm_above_bound_inside_bracket(self):
        # ||A||_F / sqrt 2 = 0.71 <= 0.9 < ||A|| = 1
        assert not numlin.op_norm_at_most(np.diag([1.0, 0.1]), 0.9)

    def test_rank_one_norm_is_frobenius(self):
        rng = generator(0)
        a = np.outer(rng.standard_normal(5), rng.standard_normal(4) + 1j * rng.standard_normal(4))
        fro = np.linalg.norm(a)
        assert numlin.op_norm_at_most(a, fro)
        assert not numlin.op_norm_at_most(a, fro * (1 - 1e-12))

    def test_stack_verdict_is_that_of_the_largest_norm(self):
        stack = np.stack([np.diag([0.1, 0.1]), 0.5 * np.eye(2), np.diag([0.59, 0.0])])
        assert numlin.op_norm_at_most(stack, 0.6)
        assert not numlin.op_norm_at_most(stack, 0.55)
        assert numlin.op_norm_at_most(np.zeros((0, 3, 3)), 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_svd_verdict(self, seed):
        rng = generator(seed)
        a = rng.standard_normal((6, 5, 5)) + 1j * rng.standard_normal((6, 5, 5))
        a *= rng.random((6, 1, 1))
        norm = numlin.op_norm(a)
        fro = np.linalg.norm(a, axis=(-2, -1)).max()
        for bound in (0.5 * norm, norm * (1 - 1e-9), norm, norm * (1 + 1e-9), 0.5 * (norm + fro), fro):
            assert numlin.op_norm_at_most(a, bound) == (norm <= bound)


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

    def test_max_commutator_norm_matches_pair_loop(self):
        rng = generator(2)
        stack = rng.standard_normal((5, 4, 4)) + 1j * rng.standard_normal((5, 4, 4))
        pairs = [numlin.op_norm(a @ b - b @ a) for i, a in enumerate(stack) for b in stack[i + 1 :]]
        assert numlin.max_commutator_norm(stack) == max(pairs)
        assert numlin.max_commutator_norm(stack[:1]) == 0.0
        assert numlin.max_commutator_norm(np.zeros((0, 3, 3))) == 0.0

    def test_max_commutator_norm_of_a_commuting_family(self):
        rng = generator(3)
        u = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))[0]
        stack = u @ (rng.random((6, 1, 4)) * np.eye(4)) @ u.conj().T
        assert numlin.max_commutator_norm(stack) < 1e-14


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(lambda: numlin.Tolerance(0.0, 1e-10), ValueError, id="zero-abs-eps"),
        pytest.param(lambda: numlin.Tolerance(1e-9, -1e-10), ValueError, id="negative-rank-rel"),
        pytest.param(lambda: numlin.Tolerance(abs_eps=np.inf), ValueError, id="infinite-abs-eps"),
        pytest.param(lambda: numlin.Tolerance(np.nan, 1e-10), ValueError, id="nan-abs-eps"),
        pytest.param(lambda: numlin.Tolerance(1e-9, np.nan), ValueError, id="nan-rank-rel"),
        pytest.param(lambda: numlin.herm_to_coords(np.ones((2, 3))), NotSquare, id="coords-of-non-square"),
        pytest.param(lambda: numlin.herm_to_coords(np.ones(3)), NotSquare, id="coords-of-vector"),
    ],
)
def test_refusals(call, refusal):
    with pytest.raises(refusal):
        call()
