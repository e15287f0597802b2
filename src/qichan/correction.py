"""Preserved and correctable structures of a channel.

The algebra of operators commuting with every product E_i^dag E_j holds
all sharp observables that survive the channel; one SVD of the elements
side by side gives a correction channel that restores every one of them.
The products go to ``algebras.commutant`` as they are, at their own
weights, so the caller's tolerance decides which weak interaction counts.
Restricting to a code subspace gives standard, subsystem and hybrid codes,
plus the operator systems correctable without any restriction on states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import (
    AlgebraStructure,
    OperatorBasisSet,
    _orthonormal_rows,
    _row_rank,
    _row_span_projector,
    commutant,
    span_of,
    structure_decompose,
)
from .channels import Channel, apply_dual, side_by_side
from .errors import BadFactorization, DimMismatch
from .numlin import DEFAULT_TOL, Tolerance, above_cut, asmatrix, dagger, norm_cut, op_norm, op_norm_at_most


@dataclass(frozen=True)
class CodeSubspace:
    """Isometric embedding V of a code space into the channel input space."""

    v: np.ndarray  # (d, d_code)

    @staticmethod
    def from_isometry(v, tol: Tolerance = DEFAULT_TOL) -> "CodeSubspace":
        v = asmatrix(v)
        res = op_norm(dagger(v) @ v - np.eye(v.shape[1]))
        if res > norm_cut(tol, v.size):  # n = d d_code, the size, as for trace preservation
            raise DimMismatch(f"columns are not isometric (residual {res:.3e})")
        return CodeSubspace(v=v)

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @property
    def dim_code(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class CorrectableReport:
    preserved_algebra: AlgebraStructure
    correction: Channel
    residuals: dict[str, float]


@dataclass(frozen=True)
class OQECReport:
    passes: bool
    lambdas: np.ndarray  # (n^2, d_B, d_B), Lambda_ij at row i n + j
    residual: float


def _kraus_products(c: Channel) -> np.ndarray:
    """The products E_i^dag E_j as one stack (k^2, d_in, d_in), E_i^dag E_j
    at row i k + j: the blocks of the Gram matrix S^dag S of
    S = [E_1 ... E_k], from one product."""
    k, n = c.n_elements, c.dim_in
    side = side_by_side(c.elements)
    gram = (dagger(side) @ side).reshape(k, n, k, n)
    return gram.transpose(0, 2, 1, 3).reshape(-1, n, n)


def interaction_span(c: Channel, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Orthonormal basis of span{E_i^dag E_j}, cut at ``tol.rank_rel`` by
    :func:`algebras.span_of`.  The analyses do not build it: they hand the
    products themselves to ``commutant`` (see :func:`_preserved_carrier`)."""
    return span_of(_kraus_products(c), tol=tol)


def interaction_span_dimension(c: Channel, tol: Tolerance = DEFAULT_TOL) -> int:
    """Dimension of :func:`interaction_span`, from the singular values of
    the products alone."""
    return _row_rank(_kraus_products(c).reshape(c.n_elements**2, -1), tol)


def _preserved_carrier(channels: list[Channel], tol: Tolerance) -> OperatorBasisSet:
    """Algebra of the operators preserved by every channel in ``channels``.

    Each channel preserves the commutant of its products E_i^dag E_j, and
    commutant(S_1) & commutant(S_2) = commutant(S_1 | S_2), so the common
    algebra is one commutant of all the products, stacked at their own
    weights.  Products with Frobenius norm at most n eps of the largest (n
    products in all, ``numlin.above_cut`` with no ``rank_rel``) are dropped:
    they move no singular value of the commutator map above roundoff, and
    they are the exact zeros of dephasing and pinch channels.
    """
    prods = np.concatenate([_kraus_products(ch) for ch in channels])
    norms = np.linalg.norm(prods.reshape(prods.shape[0], -1), axis=1)
    prods = prods[above_cut(norms)]
    return commutant(prods, tol)


def preserved_algebra(c: Channel, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> AlgebraStructure:
    """Block-decomposed algebra of all sharp observables preserved by ``c``."""
    return structure_decompose(_preserved_carrier([c], tol), seed=seed, tol=tol)


def correction_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Channel R with elements E_k^dag E(1)^(-1/2) that fixes every
    preserved sharp observable of ``c`` under E* after R*.

    With S = [E_1 ... E_n] = U s V^dag and E(1) = S S^dag, the stacked R_k
    are V U^dag on the support that ``numlin.above_cut`` keeps of s^2 at
    ``tol.rank_rel``, the only field read: a partial isometry, trace
    preserving however E(1) is conditioned.  Each kernel column u adds |0><u|.
    """
    n, d_out, d_in = c.elements.shape
    side = side_by_side(c.elements)
    u, s, vh = np.linalg.svd(side, full_matrices=d_out > n * d_in)
    r = int(above_cut(s * s, tol.rank_rel, d_out).sum())
    sinks = np.zeros((d_out - r, d_in, d_out), dtype=np.complex128)
    sinks[:, 0] = dagger(u[:, r:])
    main = (dagger(vh[:r]) @ dagger(u[:, :r])).reshape(n, d_in, d_out)
    return Channel.from_elements(np.concatenate([main, sinks]))


def restrict(c: Channel, code: CodeSubspace) -> Channel:
    """The channel seen by states prepared inside the code subspace."""
    if code.dim != c.dim_in:
        raise DimMismatch(f"code lives in dim {code.dim}, channel input is {c.dim_in}")
    return Channel.from_elements(c.elements @ code.v)


def fixed_point_residual(c: Channel, r: Channel, span: OperatorBasisSet) -> float:
    """max over basis elements A of ||E*(R*(A)) - A||."""
    return op_norm(apply_dual(c, apply_dual(r, span.basis)) - span.basis)


def correctable_report(c: Channel, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> CorrectableReport:
    structure = preserved_algebra(c, tol, seed)
    r = correction_channel(c, tol)
    residuals = {"fixed_point": fixed_point_residual(c, r, structure.carrier)}
    return CorrectableReport(preserved_algebra=structure, correction=r, residuals=residuals)


def correctable_operator_system(
    c: Channel, code: CodeSubspace, tol: Tolerance = DEFAULT_TOL, seed: int = 0
) -> OperatorBasisSet:
    """Span of effects correctable on all states: E*(R_0*(A_0)) for the
    algebra A_0 correctable on the code subspace.

    Each basis element A satisfies E*(R_0*(V^dag A V)) = A, with R_0 the
    correction channel of the restricted channel.
    """
    c0 = restrict(c, code)
    return _operator_system(c, preserved_algebra(c0, tol, seed), correction_channel(c0, tol), tol)


def _operator_system(c: Channel, a0: AlgebraStructure, r0: Channel, tol: Tolerance) -> OperatorBasisSet:
    """:func:`correctable_operator_system` from the restricted channel's
    preserved algebra ``a0`` and correction ``r0``, already derived."""
    return span_of(apply_dual(c, apply_dual(r0, a0.carrier.basis)), tol=tol)


def kl_check(c: Channel, code: CodeSubspace, tol: Tolerance = DEFAULT_TOL) -> OQECReport:
    """Scalar correctability condition V^dag E_i^dag E_j V = lambda_ij 1:
    :func:`oqec_check` with the trivial split (d_code, 1), so ``lambdas``
    holds the n^2 scalars lambda_ij as (1, 1) blocks."""
    return oqec_check(c, code, (code.dim_code, 1), tol)


def oqec_check(
    c: Channel,
    code: CodeSubspace,
    factorization: tuple[int, int],
    tol: Tolerance = DEFAULT_TOL,
) -> OQECReport:
    """Subsystem correctability condition V^dag E_i^dag E_j V = 1 (x) Lambda_ij
    for a code split H_A (x) H_B with dims ``factorization``, passed within
    ``norm_cut`` at n = d_out d_in (a product sums d_out entries of E_i V, each of d_in)."""
    d_a, d_b = factorization
    if d_a * d_b != code.dim_code:
        raise BadFactorization(f"{d_a} * {d_b} != code dimension {code.dim_code}")
    m = _kraus_products(restrict(c, code))
    lambdas = np.einsum("nabad->nbd", m.reshape(-1, d_a, d_b, d_a, d_b)) / d_a
    residual = op_norm(m - np.kron(np.eye(d_a), lambdas))
    return OQECReport(bool(residual <= norm_cut(tol, c.dim_out * c.dim_in)), lambdas, residual)


def span_equivalent(c1: Channel, c2: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the elements of the two channels span the same operator subspace."""
    if (c1.dim_in, c1.dim_out) != (c2.dim_in, c2.dim_out):
        return False
    p1, p2 = (
        _row_span_projector(_orthonormal_rows(ch.elements.reshape(ch.n_elements, -1), tol))
        for ch in (c1, c2)
    )
    return op_norm_at_most(p1 - p2, norm_cut(tol, p1.shape[0]))
