import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from qichan import algebras as al
from qichan.catalog import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    block_pinch_channel,
    block_projectors,
    dephasing_channel,
)
from qichan.channels import Channel
from qichan.correction import preserved_algebra
from qichan.decoherence import pointer_algebra
from qichan.errors import DecompositionFailed, DimMismatch, NotAnAlgebra
from qichan.numlin import DEFAULT_TOL, Tolerance
from qichan.rand import generator, random_channel, random_unitary


def two_by_two_plus_three_algebra():
    """(M_2 (x) 1_2) + M_3 acting on C^7."""
    basis = []
    for p in range(2):
        for q in range(2):
            e = np.zeros((2, 2), dtype=complex)
            e[p, q] = 1
            m = np.zeros((7, 7), dtype=complex)
            m[:4, :4] = np.kron(e, np.eye(2))
            basis.append(m)
    for p in range(3):
        for q in range(3):
            m = np.zeros((7, 7), dtype=complex)
            m[4 + p, 4 + q] = 1
            basis.append(m)
    return al.span_of(basis)


def planted_algebra(spec, rng):
    """sum_k M_{n_k} (x) 1_{m_k} in a random orthonormal basis, with its
    central projectors."""
    d = sum(n * m for n, m in spec)
    u = random_unitary(rng, d)
    basis, projs = [], []
    offset = 0
    for n, m in spec:
        block = slice(offset, offset + n * m)
        for p in range(n):
            for q in range(n):
                x = np.zeros((d, d), dtype=complex)
                x[block, block] = np.kron(np.eye(n)[:, [p]] @ np.eye(n)[[q]], np.eye(m))
                basis.append(u @ x @ u.conj().T)
        proj = np.zeros((d, d), dtype=complex)
        proj[block, block] = np.eye(n * m)
        projs.append(u @ proj @ u.conj().T)
        offset += n * m
    return al.span_of(basis), projs


PLANTED_SPECS = (((16, 1),), ((8, 1), (4, 2)), ((2, 3), (1, 2), (3, 1)), ((1, 4), (1, 4)))


class TestGenerateStarAlgebra:
    def test_identity_only(self):
        alg = al.generate_star_algebra([np.eye(3, dtype=complex)])
        assert alg.dimension == 1
        assert alg.contains(np.eye(3, dtype=complex))

    def test_sigma_z_gives_diagonals(self):
        alg = al.generate_star_algebra([PAULI_Z])
        assert alg.dimension == 2
        assert alg.contains(np.diag([3.0, -7.0]).astype(complex))
        assert not alg.contains(PAULI_X)

    def test_two_paulis_generate_everything(self):
        alg = al.generate_star_algebra([PAULI_X, PAULI_Z])
        assert alg.dimension == 4
        # closure must have produced the product direction too
        assert alg.contains(PAULI_Y)
        assert alg.contains(PAULI_X @ PAULI_Z)

    def test_idempotent(self):
        alg = al.generate_star_algebra([PAULI_X, PAULI_Z])
        again = al.generate_star_algebra(list(alg.basis))
        assert al.spans_equal(alg, again)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            al.generate_star_algebra([np.eye(2, dtype=complex), np.eye(3, dtype=complex)])

    def test_rank_rel_decides_a_weak_generator(self):
        # 1e-9 X is above the default rank_rel 1e-10, so with Z it generates
        # all of M_2; at 1e-6 it is roundoff and Z gives the diagonal
        gens = [PAULI_Z, 1e-9 * PAULI_X]
        assert al.generate_star_algebra(gens).dimension == 4
        diag = al.generate_star_algebra(gens, Tolerance(rank_rel=1e-6))
        assert diag.dimension == 2
        assert diag.contains(np.diag([3.0, -7.0]).astype(complex))


class TestSpanOf:
    def test_stack_and_list_give_one_span(self):
        rng = generator(8)
        mats = rng.standard_normal((5, 3, 3)) + 1j * rng.standard_normal((5, 3, 3))
        assert al.spans_equal(al.span_of(mats), al.span_of(list(mats)), 1e-12)
        assert al.span_of(mats).dimension == 5

    @pytest.mark.parametrize(
        "mats",
        [
            [np.eye(2), np.eye(3)],
            [np.ones((2, 3)), np.ones((2, 3))],
            np.ones((2, 2, 3)),
            np.eye(2),
        ],
        ids=["ragged-list", "non-square-list", "non-square-stack", "one-matrix"],
    )
    def test_shape_errors(self, mats):
        with pytest.raises(DimMismatch):
            al.span_of(mats)

    def test_non_finite_stack_rejected(self):
        mats = np.ones((2, 2, 2))
        mats[1, 0, 1] = np.nan
        with pytest.raises(ValueError):
            al.span_of(mats)

    def test_rank_rel_cuts_the_singular_values(self):
        # singular values 1 and 1e-8 of the stacked vectors
        mats = [np.eye(2, dtype=complex), np.eye(2) + 1e-8 * PAULI_X]
        assert al.span_of(mats).dimension == 2
        assert al.span_of(mats, tol=Tolerance(rank_rel=1e-6)).dimension == 1

    def test_tall_stack_keeps_its_span(self):
        # more matrices than entries goes through the QR first
        rng = generator(5)
        coeffs = rng.standard_normal((40, 3))
        mats = np.einsum("kb,bij->kij", coeffs, np.array([PAULI_X, PAULI_Y, PAULI_Z]))
        span = al.span_of(mats)
        assert span.dimension == 3
        assert al.spans_equal(span, al.span_of([PAULI_X, PAULI_Y, PAULI_Z]), 1e-12)

    def test_empty_needs_dimension(self):
        # no matrix fixes no dimension, even in a (0, d, d) stack
        for empty in (np.zeros((0, 3, 3)), []):
            with pytest.raises(DimMismatch):
                al.span_of(empty)


class TestCommutant:
    def test_of_identity_is_everything(self):
        assert al.commutant([np.eye(3, dtype=complex)]).dimension == 9

    def test_of_full_matrix_algebra_is_scalars(self):
        full = al.generate_star_algebra([PAULI_X, PAULI_Z])
        comm = al.commutant(list(full.basis))
        assert comm.dimension == 1
        assert comm.contains(np.eye(2, dtype=complex))

    def test_commutes_with_inputs(self):
        rng = generator(0)
        ops = [random_unitary(rng, 4) for _ in range(2)]
        comm = al.commutant(ops)
        for b in comm.basis:
            for s in ops:
                assert al.op_norm(b @ s - s @ b) < 1e-8

    def test_stack_and_list_give_identical_bases(self):
        rng = generator(5)
        ops = rng.standard_normal((3, 4, 4)) + 1j * rng.standard_normal((3, 4, 4))
        assert np.array_equal(al.commutant(ops).basis, al.commutant(list(ops)).basis)

    @pytest.mark.parametrize(
        "operators",
        [[np.eye(2), np.eye(3)], [], np.zeros((0, 2, 2)), np.ones((2, 2, 3)), np.eye(2)],
        ids=["ragged-list", "empty-list", "empty-stack", "non-square-stack", "one-matrix"],
    )
    def test_shape_errors(self, operators):
        with pytest.raises(DimMismatch):
            al.commutant(operators)

    @pytest.mark.parametrize("seed", range(10))
    def test_double_commutant(self, seed):
        rng = generator(seed)
        d = int(rng.integers(2, 7))
        gens = [
            rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            for _ in range(int(rng.integers(1, 3)))
        ]
        generated = al.generate_star_algebra(gens)
        double = al.commutant(list(al.commutant(gens).basis))
        assert al.spans_equal(generated, double, 1e-7)


class TestCenter:
    def test_full_algebra_center_trivial(self):
        full = al.generate_star_algebra([PAULI_X, PAULI_Z])
        assert al.center(full).dimension == 1

    def test_diagonal_algebra_is_its_own_center(self):
        diag = al.generate_star_algebra([np.diag([1.0, 2.0, 3.0]).astype(complex)])
        z = al.center(diag)
        assert al.spans_equal(z, diag)

    def test_hybrid_center_is_two_dimensional(self):
        alg = two_by_two_plus_three_algebra()
        z = al.center(alg)
        assert z.dimension == 2
        p1 = np.zeros((7, 7), dtype=complex)
        p1[:4, :4] = np.eye(4)
        p2 = np.eye(7, dtype=complex) - p1
        assert z.contains(p1) and z.contains(p2)

    def test_rejects_non_algebra(self):
        e01 = np.zeros((2, 2), dtype=complex)
        e01[0, 1] = 1
        # E_01 E_10 = E_00 leaves the first span; E_01^dag = E_10 the second
        for mats in ([np.eye(2), e01, e01.conj().T], [np.eye(2), e01]):
            with pytest.raises(NotAnAlgebra):
                al.center(al.span_of(mats))


class TestStructureDecompose:
    def test_full_matrix_algebra(self):
        m3 = al.generate_star_algebra(
            [np.diag([1.0, 2, 3]).astype(complex),
             np.array([[0, 1, 0], [0, 0, 1], [1, 0, 0]], dtype=complex)]
        )
        st = al.structure_decompose(m3)
        assert st.block_dims == ((3, 1),)

    def test_diagonal_algebra(self):
        diag = al.generate_star_algebra([np.diag([1.0, 2, 3]).astype(complex)])
        st = al.structure_decompose(diag)
        assert st.block_dims == ((1, 1), (1, 1), (1, 1))

    def test_hybrid_blocks(self):
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        assert set(st.block_dims) == {(2, 2), (3, 1)}

    def test_consistency_counts(self):
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        assert sum(n * n for n, _ in st.block_dims) == st.dimension
        assert sum(n * m for n, m in st.block_dims) == st.dim
        assert al.block_pattern_residual(st) < 1e-7

    def test_central_projectors_are_one_read_only_stack(self):
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        projs = st.central_projectors
        assert isinstance(projs, np.ndarray) and projs.shape == (2, 7, 7)
        assert projs.dtype == np.complex128 and not projs.flags.writeable

    def test_projector_partition(self):
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        total = sum(st.central_projectors)
        assert al.op_norm(total - np.eye(7)) < 1e-8
        for i, p in enumerate(st.central_projectors):
            for j, q in enumerate(st.central_projectors):
                expected = p if i == j else np.zeros_like(p)
                assert al.op_norm(p @ q - expected) < 1e-8

    @pytest.mark.parametrize("seed", [1, 2, 17, 101])
    def test_seed_independent_blocks(self, seed):
        st = al.structure_decompose(two_by_two_plus_three_algebra(), seed=seed)
        assert sorted(st.block_dims) == [(2, 2), (3, 1)]

    def test_rotated_algebra(self):
        # conjugating by a unitary must not change the block structure
        u = random_unitary(generator(3), 7)
        rotated = al.span_of([u @ b @ u.conj().T for b in two_by_two_plus_three_algebra().basis])
        st = al.structure_decompose(rotated)
        assert set(st.block_dims) == {(2, 2), (3, 1)}
        assert al.block_pattern_residual(st) < 1e-7

    def test_unlucky_seed_retried_with_next(self, monkeypatch):
        attempt = al._decompose_with
        states = []

        def fails_first(a, rng, tol):
            states.append(rng.bit_generator.state)
            if len(states) == 1:
                raise DecompositionFailed("unlucky draw")
            return attempt(a, rng, tol)

        monkeypatch.setattr(al, "_decompose_with", fails_first)
        st = al.structure_decompose(two_by_two_plus_three_algebra(), seed=5)
        assert set(st.block_dims) == {(2, 2), (3, 1)}
        assert states == [np.random.default_rng(s).bit_generator.state for s in (5, 6)]

    def test_gives_up_after_decompose_seeds(self, monkeypatch):
        calls = []

        def always_fails(a, rng, tol):
            calls.append(rng)
            raise DecompositionFailed("unlucky draw")

        monkeypatch.setattr(al, "_decompose_with", always_fails)
        with pytest.raises(DecompositionFailed):
            al.structure_decompose(two_by_two_plus_three_algebra())
        assert len(calls) == al.DECOMPOSE_SEEDS

    def test_basis_change_unitary(self):
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        u = st.basis_change
        assert al.op_norm(u.conj().T @ u - np.eye(7)) < 1e-8

    @pytest.mark.parametrize("spec", PLANTED_SPECS)
    def test_planted_algebra(self, spec):
        alg, projs = planted_algebra(spec, generator(sum(n * m for n, m in spec)))
        st = al.structure_decompose(alg)
        assert sorted(st.block_dims) == sorted(spec)
        assert al.block_pattern_residual(st) < 1e-10
        # every planted central projector is found once, in some order
        for p in projs:
            dists = sorted(al.op_norm(p - q) for q in st.central_projectors)
            assert dists[0] < 1e-10 and (len(dists) == 1 or dists[1] > 0.5)
        z = al.center(alg)
        assert z.dimension == len(projs)
        assert al.spans_equal(z, al.span_of(projs), 1e-10)

    @pytest.mark.parametrize("spec", PLANTED_SPECS)
    def test_generic_element_depends_only_on_span(self, spec):
        rng = generator(sum(n * m for n, m in spec))
        alg, _ = planted_algebra(spec, rng)
        w = random_unitary(rng, alg.dimension)
        rotated = al.OperatorBasisSet(dim=alg.dim, basis=np.tensordot(w, alg.basis, axes=(1, 0)))
        g = al._generic_element(alg, generator(3))
        g_rotated = al._generic_element(rotated, generator(3))
        assert al.op_norm(g - g_rotated) < 1e-12 * al.op_norm(g)

    @pytest.mark.parametrize(
        "entries", [[(0, 1), (1, 0)], [(0, 0), (0, 1), (1, 0), (1, 2), (2, 1)], [(0, 1)]]
    )
    def test_rejects_non_algebra(self, entries):
        # unital, but E_01 E_10 = E_00, E_01 E_12 = E_02 or E_01^dag = E_10
        # leaves the span
        mats = [np.eye(3, dtype=complex)]
        for p, q in entries:
            m = np.zeros((3, 3), dtype=complex)
            m[p, q] = 1
            mats.append(m)
        with pytest.raises(NotAnAlgebra):
            al.structure_decompose(al.span_of(mats))

    def test_decompose_never_calls_center(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the block decomposition must not solve the center")

        monkeypatch.setattr(al, "center", forbidden)
        st = al.structure_decompose(two_by_two_plus_three_algebra())
        assert set(st.block_dims) == {(2, 2), (3, 1)}
        pinch, _ = block_pinch_channel((2, 3, 3), seed=1)
        assert preserved_algebra(pinch).block_dims == ((3, 1), (3, 1), (2, 1))
        assert pointer_algebra(dephasing_channel(3)).pointer_algebra.block_dims == ((1, 1),) * 3


class TestIntersectContains:
    def test_intersect_with_full_algebra(self):
        diag = al.generate_star_algebra([np.diag([1.0, -1.0]).astype(complex)])
        full = al.generate_star_algebra([PAULI_X, PAULI_Z])
        inter = al.intersect(diag, full)
        assert al.spans_equal(inter, diag)

    def test_intersect_projection_oracle(self):
        diag = al.generate_star_algebra([np.diag([1.0, -1.0]).astype(complex)])
        other = al.span_of([np.eye(2, dtype=complex), PAULI_X])
        inter = al.intersect(diag, other)
        assert inter.dimension == 1
        assert inter.contains(np.eye(2, dtype=complex))

    def test_contains(self):
        diag = al.generate_star_algebra([np.diag([1.0, -1.0]).astype(complex)])
        assert diag.contains(PAULI_Z)
        assert not diag.contains(PAULI_X)

    def test_dim_mismatch(self):
        with pytest.raises(DimMismatch):
            al.intersect(
                al.span_of([np.eye(2, dtype=complex)]), al.span_of([np.eye(3, dtype=complex)])
            )


class TestCommutativityOfCenter:
    @pytest.mark.parametrize("seed", range(5))
    def test_center_is_commutative(self, seed):
        rng = generator(seed)
        d = int(rng.integers(3, 7))
        gens = [rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))]
        alg = al.generate_star_algebra(gens)
        z = al.center(alg)
        for i in range(z.dimension):
            for j in range(z.dimension):
                a, b = z.basis[i], z.basis[j]
                assert al.op_norm(a @ b - b @ a) < 1e-8


# dense references: the nullspace of the whole stacked matrix from one direct
# SVD, with the same cuts as the library


def _dense_null(stacked, scale, tol=DEFAULT_TOL):
    # all right vectors are needed only when the stack is wide
    _, sv, vh = np.linalg.svd(stacked, full_matrices=stacked.shape[0] < stacked.shape[1])
    smax = sv[0] if sv.size else 0.0
    cut = max(tol.rank_rel * smax, tol.abs_eps * scale)
    rank = int(np.sum(sv > cut)) if smax > 0 else 0
    return vh[rank:].conj()


def dense_commutant(ops, tol=DEFAULT_TOL):
    d = ops[0].shape[0]
    eye = np.eye(d)
    gens = [g for s in ops for g in (s, s.conj().T)]
    stacked = np.vstack([np.kron(eye, g.T) - np.kron(g, eye) for g in gens])
    scale = max(np.linalg.norm(g, 2) for g in gens)
    null = _dense_null(stacked, scale, tol)
    return al.OperatorBasisSet(dim=d, basis=null.reshape(-1, d, d))


def dense_intersect(a, b):
    eye = np.eye(a.dim * a.dim)
    stacked = np.vstack(
        [eye - a.vecs().T @ a.vecs().conj(), eye - b.vecs().T @ b.vecs().conj()]
    )
    _, sv, vh = np.linalg.svd(stacked, full_matrices=True)
    rank = int(np.sum(sv > 1e-7))
    return al.OperatorBasisSet(dim=a.dim, basis=vh[rank:].conj().reshape(-1, a.dim, a.dim))


def dense_center(a):
    return dense_intersect(a, dense_commutant(list(a.basis)))


def planted_ops(rng, d, scale, count):
    """``count`` operators in a random rotation of sum_k M_{n_k} (x) 1_{m_k},
    scaled by ``scale`` and perturbed by 1e-13 relative noise, so they commute
    with the planted commutant only up to a cut at abs_eps times the scale."""
    dims = []
    left = d
    while left:
        m = int(rng.integers(1, min(3, left) + 1))
        n = int(rng.integers(1, left // m + 1))
        dims.append((n, m))
        left -= n * m
    u = random_unitary(rng, d)
    ops = []
    for _ in range(count):
        blocks = [
            np.kron(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), np.eye(m))
            for n, m in dims
        ]
        op = np.zeros((d, d), dtype=complex)
        offset = 0
        for b in blocks:
            op[offset : offset + b.shape[0], offset : offset + b.shape[0]] = b
            offset += b.shape[0]
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops.append(scale * (u @ op @ u.conj().T + 1e-13 * noise))
    return ops


SCALES = (1e-6, 1.0, 1e3)


class TestStreamedAgainstDense:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", range(2, 13))
    def test_commutant(self, d, scale):
        ops = planted_ops(generator(d), d, scale, 1 + d % 3)
        got, want = al.commutant(ops), dense_commutant(ops)
        assert got.dimension == want.dimension
        assert al.spans_equal(got, want, 1e-8)

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", range(2, 13))
    def test_center(self, d, scale):
        alg = al.commutant(planted_ops(generator(100 + d), d, scale, 2))
        got, want = al.center(alg), dense_center(alg)
        assert got.dimension == want.dimension
        assert al.spans_equal(got, want, 1e-8)

    @pytest.mark.parametrize("d", range(2, 13))
    def test_intersect(self, d):
        rng = generator(200 + d)
        a = al.commutant(planted_ops(rng, d, 1.0, 1))
        b = al.commutant(planted_ops(rng, d, 1.0, 1))
        got, want = al.intersect(a, b), dense_intersect(a, b)
        assert got.dimension == want.dimension
        assert al.spans_equal(got, want, 1e-8)

    @pytest.mark.parametrize("d", (3, 5))
    def test_commutant_under_large_rank_rel(self, d):
        # 3e-3 y couples every diagonal direction far above eigh's roundoff
        # but below a relative cut at rank_rel = 1e-2, so the diagonal
        # matrices commute under that cut and only the scalars under the default
        rng = generator(0)
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops = [np.diag(np.arange(d)).astype(complex), 3e-3 * y]
        tol = Tolerance(abs_eps=1e-9, rank_rel=1e-2)
        got, want = al.commutant(ops, tol), dense_commutant(ops, tol)
        assert got.dimension == want.dimension == d
        assert al.spans_equal(got, want, 1e-8)
        assert al.commutant(ops).dimension == dense_commutant(ops).dimension == 1

    def test_many_operators_stream_in_several_chunks(self):
        # 40 operators on C^12 stack 11 520 rows, three QR_ROWS chunks
        ops = planted_ops(generator(5), 12, 1.0, 40)
        got, want = al.commutant(ops), dense_commutant(ops)
        assert got.dimension == want.dimension
        assert al.spans_equal(got, want, 1e-8)


def _generic(d):
    """Seeded Ginibre matrix of unit norm: with its adjoint it generates M_d,
    so its commutant is span{1}."""
    rng = generator(d)
    x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return x / al.op_norm(x)


def _scalars(d):
    return np.eye(d).reshape(1, -1) / np.sqrt(d)


def _projector_error(got, rows):
    return al.op_norm(got.vecs().T @ got.vecs().conj() - rows.T @ rows.conj())


def diagonal_oracle(ops, d, tol):
    """Commutant of operators whose first member is diagonal with distinct
    eigenvalues, solved on the diagonal subspace with the library's cut.
    There that member's commutators are exactly 0; off it they are at least
    its smallest eigenvalue gap, far above the cut.  Returns the vec rows of
    the nullspace and the distance of the restricted singular values from
    the cut, relative to the cut."""
    gens = [g for s in ops for g in (s, s.conj().T)]
    eye = np.eye(d)
    units = eye[:, :, None] * eye[:, None, :]  # E_ii
    restricted = np.stack(
        [np.concatenate([(g @ e - e @ g).ravel() for g in gens]) for e in units], axis=1
    )
    full = np.vstack([np.kron(g, eye) - np.kron(eye, g.T) for g in gens])
    smax = np.linalg.svd(full, compute_uv=False)[0]
    scale = max(al.op_norm(s) for s in ops)
    cut = max(tol.rank_rel * smax, tol.abs_eps * scale)
    _, sv, vh = np.linalg.svd(restricted)
    coeffs = vh[int(np.sum(sv > cut)) :].conj()
    rows = np.stack([np.diag(c).ravel() for c in coeffs])
    return rows, float(np.min(np.abs(sv - cut)) / cut)


class TestExactCommutant:
    """Inputs with known commutants: accuracy, not agreement with a dense SVD."""

    @pytest.mark.parametrize("delta", (1e-8, 1e-6, 1e-3))
    @pytest.mark.parametrize("d", (2, 5, 8))
    def test_identity_plus_small_generic_is_scalars(self, d, delta):
        got = al.commutant([np.eye(d) + delta * _generic(d)])
        assert got.dimension == 1
        assert _projector_error(got, _scalars(d)) < 1e-12

    @pytest.mark.parametrize("delta", (1e-10, 1e-12))
    @pytest.mark.parametrize("d", (2, 5, 8))
    def test_part_below_absolute_cut_is_everything(self, d, delta):
        # the generic part moves commutators by about delta, below abs_eps
        # at the scale of 1 + delta * x
        assert al.commutant([np.eye(d) + delta * _generic(d)]).dimension == d * d

    @pytest.mark.parametrize("d", (2, 5, 8))
    def test_zero_is_everything(self, d):
        assert al.commutant([np.zeros((d, d))]).dimension == d * d

    @pytest.mark.parametrize("delta", (1e-10, 1e-20))
    @pytest.mark.parametrize("d", (2, 5, 8))
    def test_small_generic_alone_is_scalars(self, d, delta):
        # the cut scales with the operators, so a small operator keeps its commutant
        got = al.commutant([delta * _generic(d)])
        assert got.dimension == 1
        assert _projector_error(got, _scalars(d)) < 1e-12

    @pytest.mark.parametrize("t", (1e-15, 1e-16, 1e-30))
    @pytest.mark.parametrize("d", (8, 16, 32))
    def test_tolerance_below_rounding_keeps_a_unitary_commutant(self, d, t):
        # the commutant of a generic unitary is the diagonal algebra of its
        # eigenbasis; null_cut's n eps floor keeps rounding out of the cut
        for seed in (1, 2, 3):
            u = random_unitary(generator(seed), d)
            got = al.commutant([u], Tolerance(t, t))
            assert got.dimension == d and got.contains(u)

    # the default cut is abs_eps times the scale 1e3 (d - 1); the other one is
    # relative to the largest singular value of the whole stack, which only
    # directions outside the diagonal subspace reach
    @pytest.mark.parametrize("tol", (DEFAULT_TOL, Tolerance(abs_eps=1e-15, rank_rel=8e-10)))
    @pytest.mark.parametrize("d", (5, 8))
    def test_mixed_scales_match_diagonal_oracle(self, d, tol):
        # 1e-6 y splits the diagonal subspace at singular values about the
        # cut; dense SVDs of the whole stack lose about 1e-7 there to
        # roundoff at 1e3
        rng = generator(0)
        y = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        ops = [1e3 * np.diag(np.arange(d)).astype(complex), 1e-6 * y]
        want, margin = diagonal_oracle(ops, d, tol)
        assert 1 < want.shape[0] < d and margin > 0.01
        got = al.commutant(ops, tol)
        assert got.dimension == want.shape[0]
        assert _projector_error(got, want) < 1e-10


class TestHermitianBasis:
    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("d", (2, 5, 8, 12))
    def test_commutant_basis_is_hermitian_and_orthonormal(self, d, scale):
        got = al.commutant(planted_ops(generator(300 + d), d, scale, 2))
        assert got.dimension > 1
        assert np.abs(got.basis - al.dagger(got.basis)).max() <= 1e-14
        v = got.vecs()
        assert np.abs(v.conj() @ v.T - np.eye(got.dimension)).max() <= 1e-12


def _kron_pattern_residual(structure):
    """block_pattern_residual with its M (x) 1 model built by np.kron."""
    u = structure.basis_change
    t = al.dagger(u) @ structure.carrier.basis @ u
    model = np.zeros_like(t)
    offset = 0
    for n_k, m_k in structure.block_dims:
        block = slice(offset, offset + n_k * m_k)
        cells = t[:, block, block].reshape(-1, n_k, m_k, n_k, m_k)
        model[:, block, block] = np.kron(np.einsum("bpjqj->bpq", cells) / m_k, np.eye(m_k))
        offset += n_k * m_k
    return float(np.linalg.norm(t - model, 2, axis=(1, 2)).max())


def test_block_pattern_residual_matches_kron_reference(monkeypatch):
    from qichan import catalog

    seen = []
    decompose = al._decompose_with

    def record(a, rng, tol):
        seen.append(decompose(a, rng, tol))
        return seen[-1]

    monkeypatch.setattr(al, "_decompose_with", record)
    for name in catalog.EXAMPLE_NAMES:
        catalog.analyze_example(name)
    assert len({st.block_dims for st in seen}) > 5
    for st in seen:
        assert al.block_pattern_residual(st) == _kron_pattern_residual(st)


def _planted_channel(kind, d, rng):
    """Channel on C^d and the block dims of the algebra it preserves."""
    if kind == "pinch":
        sizes = []
        left = d
        while left:
            sizes.append(int(rng.integers(1, left + 1)))
            left -= sizes[-1]
        v = random_unitary(rng, d)
        c = Channel.from_elements([p @ v for p in block_projectors(tuple(sizes))])
        return c, tuple(sorted(((s, 1) for s in sizes), reverse=True))
    # unitary on an n-level factor times a random channel on the m-level one
    n = kind
    m = d // n
    u = random_unitary(rng, n)
    c = Channel.from_elements([np.kron(u, e) for e in random_channel(rng, m, m, 2).elements])
    return c, ((n, m),)


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    kind=hs.sampled_from(["pinch", 1, 2]),
    d=hs.integers(2, 16),
    seed=hs.integers(0, 2**32 - 1),
)
def test_block_dims_invariant_under_unitary_conjugation(kind, d, seed):
    if kind == 2 and d % 2:
        d += 1
    rng = generator(seed)
    c, planted = _planted_channel(kind, d, rng)
    w = random_unitary(rng, d)
    rotated = Channel.from_elements([w @ e @ w.conj().T for e in c.elements])
    assert preserved_algebra(c).block_dims == planted
    assert preserved_algebra(rotated).block_dims == planted


@settings(max_examples=12, deadline=None, derandomize=True)
@given(
    d=hs.integers(2, 16),
    seed=hs.integers(0, 2**32 - 1),
    magnitude=hs.floats(-6, 3),
    phase=hs.floats(0, 2 * np.pi),
)
def test_commutant_invariant_under_scaling(d, seed, magnitude, phase):
    ops = planted_ops(generator(seed), d, 1.0, 2)
    factor = 10.0**magnitude * np.exp(1j * phase)
    base = al.commutant(ops)
    scaled = al.commutant([factor * s for s in ops])
    assert scaled.dimension == base.dimension
    assert al.spans_equal(scaled, base, 1e-8)


def _pointer_dims_under_two_gib(m: int, timeout: float) -> str:
    """Block dims of the pointer algebra of a dephased qubit (x) a random
    channel on C^m, computed in a subprocess capped at 2 GiB of address
    space with one BLAS thread."""
    script = textwrap.dedent(
        f"""
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))
        import numpy as np
        from qichan.channels import Channel, tensor
        from qichan.decoherence import pointer_algebra
        from qichan.rand import generator, random_channel, random_unitary

        rng = generator(7)
        u = random_unitary(rng, 2)
        qubit = Channel.from_elements([np.diag(np.eye(2)[i]) @ u for i in range(2)])
        c = tensor(qubit, random_channel(rng, {m}, {m}, 2))
        print(pointer_algebra(c).pointer_algebra.block_dims)
        """
    )
    src = str(Path(al.__file__).resolve().parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=timeout
    )
    assert out.returncode == 0, out.stderr[-2000:]
    return out.stdout.strip()


def test_pointer_d12_fits_in_two_gib():
    # a full-matrices SVD of the stacked commutators asks for far more than
    # 2 GiB here and raises MemoryError
    assert _pointer_dims_under_two_gib(6, timeout=300) == "((1, 6), (1, 6))"


def test_pointer_d32_fits_in_two_gib():
    # 1024 x 1024 Laplacian from the 1088 Kraus products of the channel and
    # its complement: about 110 MiB and under a second; streaming the whole
    # commutator stack took minutes
    assert _pointer_dims_under_two_gib(16, timeout=120) == "((1, 16), (1, 16))"


@pytest.mark.parametrize(
    "call, refusal",
    [
        pytest.param(
            lambda: al.spans_equal(al.span_of([np.eye(2)]), al.span_of([np.eye(3)])), False, id="spans-of-two-dims"
        ),
        pytest.param(lambda: al.generate_star_algebra([]), DimMismatch, id="no-generator"),
        pytest.param(lambda: al.structure_decompose(al.span_of([PAULI_Z])), NotAnAlgebra, id="no-identity"),
    ],
)
def test_refusals(call, refusal):
    if refusal is False:
        assert call() is False
    else:
        with pytest.raises(refusal):
            call()
