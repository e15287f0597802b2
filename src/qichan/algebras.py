"""Finite-dimensional *-algebra machinery.

Operator spans are stored as stacks of matrices whose vectorizations are
orthonormal in the Hilbert-Schmidt inner product.  A span is the right
singular vectors of its stacked vectors that pass ``numlin.above_cut``, the
one rank rule of the package, at the caller's ``rank_rel``.  Block
structure is read off one eigendecomposition of a generic element of the
algebra.

The commutant of F_1..F_k and their adjoints is the joint kernel of the
maps A -> [F, A].  Stacked, those maps form a 2k d^2 x d^2 matrix; its
Gram matrix, the commutator Laplacian L, is d^2 x d^2 however large k is
and comes from one matrix product.  The generators are closed under the
adjoint, so the commutant is spanned by Hermitian matrices and both
stages run in real arithmetic: L folds into a real symmetric matrix in
the Hermitian coordinates of ``numlin.herm_to_coords``, whose one real
eigendecomposition picks the r candidate directions with small
eigenvalues, and only the stack restricted to those r Hermitian
candidates is factored, as real rows [Re; Im] of the commutators.
``_streamed_svd`` runs them through a real blocked QR (TSQR) a few
thousand rows at a time and keeps only the r x r triangle, whose
singular values and right vectors are those of the restricted stack.  So
the rank cut is made on singular values, not on their squares, memory is
O(d^4) whatever the number of operators, and the basis returned is
Hermitian.  The center is spanned by the central projectors of the block
decomposition, so it needs no solve of its own.  Yes/no norm checks
(``contains``, ``spans_equal``, the block pattern certificate) go through
``numlin.op_norm_at_most``, which computes an SVD only when Frobenius
norms cannot settle the answer; those at ``abs_eps`` cut at
``numlin.norm_cut``, never below rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailed, DimMismatch, NotAnAlgebra
from .numlin import (
    DEFAULT_TOL,
    Tolerance,
    above_cut,
    asmatrix,
    asstack,
    coords_to_herm,
    dagger,
    norm_cut,
    null_cut,
    op_norm,
    op_norm_at_most,
    superop_to_coords,
)

# decimals of the block sort key, coarse enough that roundoff cannot reorder
ORDER_DIGITS = 8
# real commutator rows QR-factored at once by _streamed_svd
QR_ROWS = 4096
# seeds structure_decompose tries (seed, seed + 1, ...) before giving up
DECOMPOSE_SEEDS = 3


@dataclass(frozen=True)
class OperatorBasisSet:
    """Span of operators with a Hilbert-Schmidt orthonormal basis."""

    dim: int
    basis: np.ndarray  # (k, dim, dim), vec rows orthonormal

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    def vecs(self) -> np.ndarray:
        return self.basis.reshape(self.dimension, self.dim * self.dim)

    def project(self, x) -> np.ndarray:
        """Orthogonal projection of a matrix onto the span."""
        x = asmatrix(x)
        v = self.vecs()
        coeff = v.conj() @ x.reshape(-1)
        return (coeff @ v).reshape(self.dim, self.dim)

    def contains(self, x, tol: Tolerance = DEFAULT_TOL) -> bool:
        x = asmatrix(x)
        return op_norm_at_most(x - self.project(x), norm_cut(tol, x.size, np.linalg.norm(x)))


def _orthonormal_rows(vecs: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Orthonormal rows spanning the rows of ``vecs`` (n, length): the right
    singular vectors whose singular values ``numlin.above_cut`` keeps, at
    ``tol.rank_rel`` with the n rows counted.

    A stack taller than it is long is QR-factored first; R has the stack's
    singular values and row space, so no n-row U is formed.
    """
    n, length = vecs.shape
    if n > length:
        vecs = np.linalg.qr(vecs, mode="r")
    _, sv, vh = np.linalg.svd(vecs, full_matrices=False)
    return vh[above_cut(sv, tol.rank_rel, n)]


def _row_rank(vecs: np.ndarray, tol: Tolerance = DEFAULT_TOL) -> int:
    """Number of rows :func:`_orthonormal_rows` returns, from the singular
    values alone."""
    return int(above_cut(np.linalg.svd(vecs, compute_uv=False), tol.rank_rel, vecs.shape[0]).sum())


def span_of(mats, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Orthonormal basis of the span of a nonempty stack (k, d, d) or list
    of d x d matrices, coerced by :func:`numlin.asstack`, cut at
    ``tol.rank_rel``."""
    stack = asstack(mats)
    if stack.shape[0] == 0:
        raise DimMismatch("a span needs at least one matrix")
    d = stack.shape[1]
    if stack.shape[2] != d:
        raise DimMismatch(f"span elements must be square, got {stack.shape[1:]}")
    vecs = _orthonormal_rows(stack.reshape(stack.shape[0], -1), tol)
    return OperatorBasisSet(dim=d, basis=vecs.reshape(-1, d, d))


def _row_span_projector(rows: np.ndarray) -> np.ndarray:
    """Projector onto the span of orthonormal row vectors (sum |v_i><v_i|)."""
    return rows.T @ rows.conj()


def spans_equal(a: OperatorBasisSet, b: OperatorBasisSet, eps: float = 1e-8) -> bool:
    if a.dim != b.dim:
        return False
    return op_norm_at_most(_row_span_projector(a.vecs()) - _row_span_projector(b.vecs()), eps)


def generate_star_algebra(gens, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Smallest adjoint-closed, multiplication-closed span containing the
    generators and the identity, every span cut at ``tol.rank_rel``.

    Grows the span by products until a fixed point; terminates at dimension
    d^2 at the latest.
    """
    gens = [asmatrix(g) for g in gens]
    if not gens:
        raise DimMismatch("need at least one generator")
    d = gens[0].shape[0]
    for g in gens:
        if g.shape != (d, d):
            raise DimMismatch("generators must be square of equal dimension")
    seed = [np.eye(d, dtype=np.complex128)]
    for g in gens:
        seed.append(g)
        seed.append(dagger(g))
    current = span_of(seed, tol=tol)
    fresh = current.basis  # only products touching new directions can grow the span
    while current.dimension < d * d:
        left = np.einsum("aij,bjk->abik", current.basis, fresh)
        right = np.einsum("aij,bjk->abik", fresh, current.basis)
        v = current.vecs()
        grown = _orthonormal_rows(
            np.vstack([v, left.reshape(-1, d * d), right.reshape(-1, d * d)]), tol
        )
        new = grown.shape[0] - current.dimension
        if new <= 0:
            break
        # the new directions: the part of the grown span orthogonal to the current one
        outside = grown - (grown @ v.conj().T) @ v
        fresh = np.linalg.svd(outside, full_matrices=False)[2][:new].reshape(-1, d, d)
        current = OperatorBasisSet(dim=d, basis=grown.reshape(-1, d, d))
    return current


def _streamed_svd(blocks, ncols: int) -> tuple[np.ndarray, np.ndarray]:
    """Singular values and right singular vectors (rows of ``vh``, all
    ``ncols`` of them) of the vertical stack of real row ``blocks``.

    Each block is QR-factored together with the triangle kept so far
    (TSQR); only that ``ncols x ncols`` triangle survives, so the stack is
    never held whole.  R has the singular values and right vectors of the
    stack, and QR followed by the SVD of R is as backward stable as the
    direct SVD.
    """
    r = np.zeros((0, ncols))
    for block in blocks:
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    _, sv, vh = np.linalg.svd(r, full_matrices=True)
    return sv, vh


def _commutator_rows(ops: np.ndarray, cands: np.ndarray):
    """Real row blocks [Re; Im] of the commutators [F, C], one column per
    Hermitian candidate C, in chunks of at most ``QR_ROWS`` rows (one
    operator's 2 d^2 rows when that is more).

    Each chunk is two matrix products over all its operators and all
    candidates: F C with the candidates laid side by side, and C F, read
    transposed, as F^T C^T with C^T = conj C.
    """
    r, d = cands.shape[0], cands.shape[1]
    side = cands.transpose(1, 2, 0).reshape(d, d * r)  # [m, (b, C)] = C_mb
    step = max(1, QR_ROWS // (2 * d * d))
    for start in range(0, ops.shape[0], step):
        f = ops[start : start + step]
        c = f.shape[0]
        fc = (f.reshape(c * d, d) @ side).reshape(c, d, d, r)  # [F, a, b, C] = (F C)_ab
        # [F, b, a, C] = sum_m F_mb conj(C)_ma = (C F)_ab
        cf = (f.transpose(0, 2, 1).reshape(c * d, d) @ side.conj()).reshape(c, d, d, r)
        comm = (fc - cf.swapaxes(1, 2)).reshape(-1, r)
        yield np.concatenate([comm.real, comm.imag])


def commutant(operators, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """All matrices commuting with every given operator and its adjoint.

    Solved as the joint nullspace of the maps A -> [F, A] over every
    operator F and its adjoint, so the result is a von Neumann algebra.
    The identity commutes with everything, so each F is first replaced by
    its traceless part F0; the cut keeps the scale of the given operators.

    1. With row-major vec, ad_X = X (x) 1 - 1 (x) X^T, and the sum of
       ad_g^dag ad_g over g in {F0, F0^dag} is the d^2 x d^2 PSD Laplacian
       L = Q (x) 1 + 1 (x) Q^T - 2 (K + K^dag), with Q = sum F0^dag F0 +
       F0 F0^dag and K = sum F0 (x) conj(F0), the realigned V^T conj(V) of
       the stacked vec(F0) rows V: one matrix product.  The generators are
       closed under the adjoint, so L maps Hermitian matrices to Hermitian
       matrices and its kernel is spanned by Hermitian ones: in the real
       Hermitian coordinates of ``numlin.herm_to_coords`` L folds into a
       real symmetric matrix with the same spectrum (``superop_to_coords``),
       and one real ``eigh`` of it picks the candidates.  L's eigenvalues
       are squared singular values of the stacked maps, too coarse for the
       cut, so they only pick candidates: the r eigenvectors with
       eigenvalue at most max(1e-6 tr Q, (2 rank_rel)^2 lmax,
       (2 abs_eps scale)^2), lmax the largest.  Every direction left out
       has a singular value above twice either cut, and, as tr Q is at
       least lmax / 4, above 5e-4 sqrt(lmax), far beyond eigh's roundoff.
    2. The r candidates, mapped back to Hermitian matrices C by
       ``coords_to_herm``, enter the commutators [F0, C] as real rows
       [Re; Im], streamed through ``_streamed_svd`` (a real TSQR) with r
       columns.  [F0^dag, C] = -[F0, C]^dag, so the adjoints' rows carry
       the conjugate Gram matrix and the whole stack's restricted Gram
       matrix is twice the real one of these rows: its singular values are
       sqrt 2 times theirs.  They are cut against the largest one of the
       whole stack.

    The right vectors are real, so the basis returned is Hermitian and
    Hilbert-Schmidt orthonormal.  Memory is O(d^4) however many operators
    there are.
    """
    ops = asstack(operators)
    if ops.shape[0] == 0:
        raise DimMismatch("need at least one operator")
    d = ops.shape[1]
    if ops.shape[2] != d:
        raise DimMismatch("operators must be square of equal dimension")
    # adjoints have the same norm as the operators
    scale = op_norm(ops)
    eye = np.eye(d)
    f = ops - (np.trace(ops, axis1=1, axis2=2) / d)[:, None, None] * eye
    stacked = f.reshape(-1, d)  # F0 stacked vertically
    side = f.transpose(1, 0, 2).reshape(d, -1)  # F0 side by side
    q = stacked.conj().T @ stacked + side @ side.conj().T
    v = f.reshape(-1, d * d)
    # V^T conj(V) is Hermitian, so K[ij, kl] = vv[ik, jl] and
    # K^dag[ij, kl] = vv[lj, ki]: one strided add realigns both
    vv = (v.T @ v.conj()).reshape(d, d, d, d)
    lap4 = np.add(vv.transpose(0, 2, 1, 3), vv.transpose(3, 1, 2, 0), order="C")
    del vv
    lap4 *= -2
    np.einsum("ijkj->ijk", lap4)[...] += q[:, None, :]  # Q (x) 1
    np.einsum("ijil->ijl", lap4)[...] += q.T  # 1 (x) Q^T
    folded = superop_to_coords(lap4.reshape(d * d, d * d))
    del lap4  # before eigh allocates its copy and workspace
    lam, vecs = np.linalg.eigh(folded)
    trace_q = float(np.trace(q).real)
    candidate = lam <= max(
        1e-6 * trace_q, (2 * tol.rank_rel) ** 2 * lam[-1], (2 * tol.abs_eps * scale) ** 2
    )
    coords = np.ascontiguousarray(vecs[:, candidate].T)
    del vecs
    r = coords.shape[0]
    sv, vh = _streamed_svd(_commutator_rows(f, coords_to_herm(coords, d)), r)
    sv *= np.sqrt(2.0)  # the adjoints' rows, see 2. above
    # with the top eigenvalue a candidate, every direction is one and sv covers the stack
    smax = sv[0] if candidate[-1] else float(np.sqrt(lam[-1]))
    rank = int(np.sum(sv > null_cut(smax, scale, tol, d * d)))
    return OperatorBasisSet(dim=d, basis=coords_to_herm(vh[rank:] @ coords, d))


def intersect(a: OperatorBasisSet, b: OperatorBasisSet) -> OperatorBasisSet:
    """Intersection of two spans (nullspace of stacked complement projections)."""
    if a.dim != b.dim:
        raise DimMismatch(f"span dims differ: {a.dim} != {b.dim}")
    d2 = a.dim * a.dim
    eye = np.eye(d2)
    stacked = np.vstack(
        [eye - _row_span_projector(a.vecs()), eye - _row_span_projector(b.vecs())]
    )
    # the stack is (2 d^2, d^2), so the thin SVD already holds every right vector
    _, sv, vh = np.linalg.svd(stacked, full_matrices=False)
    # complement projections have unit-scale spectra; directions inside both
    # spans sit at singular value ~0
    null = sv <= 1e-7
    rank = int(np.sum(~null))
    basis = vh[rank:].conj()
    return OperatorBasisSet(dim=a.dim, basis=basis.reshape(-1, a.dim, a.dim))


@dataclass(frozen=True)
class AlgebraStructure:
    """A *-algebra with its block decomposition sum_k M_{n_k} (x) 1_{m_k}.

    ``central_projectors[k]`` projects onto the k-th block, one read-only
    stack (k, d, d) like ``Channel.elements``; conjugating a carrier element
    by ``basis_change`` (columns are the new basis) exhibits the block
    pattern.
    """

    carrier: OperatorBasisSet
    central_projectors: np.ndarray  # (k, dim, dim), read-only
    block_dims: tuple[tuple[int, int], ...]
    basis_change: np.ndarray

    @property
    def dim(self) -> int:
        return self.carrier.dim

    @property
    def dimension(self) -> int:
        return self.carrier.dimension


def _generic_element(span: OperatorBasisSet, rng: np.random.Generator) -> np.ndarray:
    """Projection of one seeded complex Ginibre matrix onto the span.

    Its coefficients in any orthonormal basis of the span are i.i.d. complex
    Gaussians, and it depends on the span alone, not on the basis held.
    """
    d = span.dim
    return span.project(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


def _cluster(values: np.ndarray, gap: float) -> list[np.ndarray]:
    """Indices of ``values`` in ascending order of value, split into clusters
    wherever a value exceeds the one before it by at least ``gap``."""
    idx = np.argsort(values)
    cuts = [0, *(np.flatnonzero(np.diff(values[idx]) >= gap) + 1).tolist(), idx.size]
    return [idx[a:b] for a, b in zip(cuts, cuts[1:])]


def center(a: OperatorBasisSet, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Center of a unital *-algebra: the span of its minimal central projections.

    These are the central projectors P_k of ``structure_decompose``, which
    also certifies that ``a`` is a unital *-algebra and raises
    ``NotAnAlgebra`` otherwise (``DecompositionFailed`` when no seed
    decomposes it).  The P_k are mutually orthogonal, so the
    P_k / sqrt(tr P_k) are a Hilbert-Schmidt orthonormal basis.
    """
    projs = structure_decompose(a, tol=tol).central_projectors
    norms = np.sqrt(np.trace(projs, axis1=1, axis2=2).real)
    return OperatorBasisSet(dim=a.dim, basis=projs / norms[:, None, None])


def structure_decompose(
    a: OperatorBasisSet, seed: int = 0, tol: Tolerance = DEFAULT_TOL
) -> AlgebraStructure:
    """Block decomposition of a unital *-algebra.

    One seeded generic element g of the span carries the whole structure:
    the eigenspaces of its Hermitian part are the m_k-dimensional
    eigenspaces of H_k (x) 1_{m_k}, g couples two of them exactly when they
    lie in one block, and polar parts of those couplings align them into
    matrix units of M_{n_k} (x) 1_{m_k}.  The block pattern residual
    certifies that the span lies inside the block algebra found, and equal
    dimensions that it is all of it; a smaller span is not closed under
    multiplication and raises ``NotAnAlgebra``.  An unlucky draw is retried
    with the next seed, up to ``DECOMPOSE_SEEDS`` seeds, before
    ``DecompositionFailed`` is raised.  Cuts scale with the input: clusters
    and couplings of g at ``tol.abs_eps ||g||``, the residual of the
    unit-norm basis and the identity's distance from the span at
    ``numlin.norm_cut``: ``abs_eps``, raised to the rounding floor.
    """
    if not a.contains(np.eye(a.dim), tol):
        raise NotAnAlgebra("algebra must contain the identity")
    for attempt in range(DECOMPOSE_SEEDS):
        try:
            return _decompose_with(a, np.random.default_rng(seed + attempt), tol)
        except DecompositionFailed:
            if attempt == DECOMPOSE_SEEDS - 1:
                raise


def _decompose_with(a: OperatorBasisSet, rng: np.random.Generator, tol: Tolerance) -> AlgebraStructure:
    """One seeded decomposition attempt of ``a`` from one generic element, at ``tol``."""
    d = a.dim
    g = _generic_element(a, rng)
    gap = tol.abs_eps * op_norm(g)
    w, u = np.linalg.eigh((g + dagger(g)) / 2)
    clusters = _cluster(w, gap)
    t = dagger(u) @ g @ u
    member = np.zeros((d, len(clusters)))
    for k, c in enumerate(clusters):
        member[c, k] = 1.0
    # Frobenius norms of t's cluster-by-cluster sub-blocks: across blocks
    # g's coupling is zero up to the tolerance
    coupled = np.sqrt(member.T @ np.abs(t) ** 2 @ member) > gap
    np.fill_diagonal(coupled, True)
    taken = np.zeros(len(clusters), dtype=bool)
    blocks = []
    for i, first in enumerate(clusters):
        if taken[i]:
            continue
        members = np.flatnonzero(coupled[:, i])
        m_k = first.size
        if taken[members].any() or any(clusters[j].size != m_k for j in members):
            raise DecompositionFailed(
                f"coupled clusters of sizes {[clusters[j].size for j in members]} "
                "differ or overlap another block"
            )
        taken[members] = True
        # align each cluster with the first by the polar part of g's coupling
        cols = [u[:, first]]
        for j in members[1:]:
            uu, _, vvh = np.linalg.svd(t[np.ix_(clusters[j], first)])
            cols.append(u[:, clusters[j]] @ (uu @ vvh))
        block_cols = np.hstack(cols)
        blocks.append(((members.size, m_k), block_cols @ dagger(block_cols), block_cols))

    order = sorted(range(len(blocks)), key=lambda i: _block_key(*blocks[i][:2]))
    dims = tuple(blocks[i][0] for i in order)
    projs = np.array([blocks[i][1] for i in order])
    projs.setflags(write=False)
    basis_change = np.hstack([blocks[i][2] for i in order])
    structure = AlgebraStructure(
        carrier=a,
        central_projectors=projs,
        block_dims=dims,
        basis_change=np.ascontiguousarray(basis_change),
    )
    deviation = _pattern_deviation(structure)
    if not op_norm_at_most(deviation, norm_cut(tol, d * d)):
        raise DecompositionFailed(f"block pattern residual {op_norm(deviation):.3e}")
    # the span lies inside sum_k M_{n_k} (x) 1_{m_k}; equal dimensions make it all of it
    if sum(n * n for n, _ in dims) != a.dimension:
        raise NotAnAlgebra("span is not closed under multiplication")
    return structure


def _block_key(dims: tuple[int, int], proj: np.ndarray) -> tuple:
    """Sort key of a block: larger n, then larger m, then tr(P diag(0..d-1)),
    then the real and imaginary parts of P's entries in row-major order.

    The floats are rounded to ``ORDER_DIGITS`` decimals, so blocks whose
    traces differ only by roundoff (the eight rank-one projectors of the
    bit-flip code all give 3.5) are ordered by the projectors themselves.
    """
    position = float(np.diagonal(proj).real @ np.arange(proj.shape[0]))
    entries = np.round(proj.view(np.float64).ravel(), ORDER_DIGITS)
    return (-dims[0], -dims[1], round(position, ORDER_DIGITS), *entries.tolist())


def _pattern_deviation(structure: AlgebraStructure) -> np.ndarray:
    """Conjugated carrier elements minus their canonical M (x) 1 model,
    block-diagonal with each block's partial trace over 1_m spread back
    over it; the model is subtracted in place through einsum views."""
    u = structure.basis_change
    t = dagger(u) @ structure.carrier.basis @ u
    offset = 0
    for n_k, m_k in structure.block_dims:
        d_k = n_k * m_k
        block = slice(offset, offset + d_k)
        cells = t[:, block, block].reshape(-1, n_k, m_k, n_k, m_k)
        m = np.einsum("bpjqj->bpq", cells) / m_k
        np.einsum("bpjqj->bpjq", cells)[...] -= m[:, :, None, :]
        offset += d_k
    return t


def block_pattern_residual(structure: AlgebraStructure) -> float:
    """Largest deviation of a conjugated carrier element from the canonical
    block-diagonal M (x) 1 pattern."""
    return op_norm(_pattern_deviation(structure))
