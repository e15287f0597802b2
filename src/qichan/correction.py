"""Preserved and correctable structures of a channel.

The algebra of operators commuting with every product E_i^dag E_j collects
all sharp observables that survive the channel; the same data yields a
single correction channel that restores every one of them.  Restricting to
a code subspace turns the construction into standard, subsystem and hybrid
error-correcting codes, plus the operator systems correctable without any
restriction on states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebras import (
    AlgebraStructure,
    OperatorBasisSet,
    _gram_schmidt,
    _row_span_projector,
    block_pattern_residual,
    commutant,
    span_of,
    structure_decompose,
)
from .channels import Channel, apply_dual, require_trace_preserving
from .errors import BadFactorization, DimMismatch
from .numlin import DEFAULT_TOL, Tolerance, asmatrix, dagger, op_norm, psd_eig

# pairs of preserved-algebra basis elements homomorphism_residual evaluates at most
HOMOMORPHISM_PAIRS = 256


@dataclass(frozen=True)
class CodeSubspace:
    """Isometry V embedding a code space into the channel input space."""

    v: np.ndarray  # (d, d_code)

    @staticmethod
    def from_isometry(v, tol: Tolerance = DEFAULT_TOL) -> "CodeSubspace":
        v = asmatrix(v)
        res = op_norm(dagger(v) @ v - np.eye(v.shape[1]))
        if res > tol.abs_eps:
            raise DimMismatch(f"columns are not isometric (residual {res:.3e})")
        return CodeSubspace(v=v)

    @property
    def dim(self) -> int:
        return self.v.shape[0]

    @property
    def dim_code(self) -> int:
        return self.v.shape[1]

    def projector(self) -> np.ndarray:
        return self.v @ dagger(self.v)


@dataclass(frozen=True)
class CorrectableReport:
    preserved_algebra: AlgebraStructure
    correction: Channel
    residuals: dict[str, float]


@dataclass(frozen=True)
class KLReport:
    passes: bool
    lam: np.ndarray
    residual: float


@dataclass(frozen=True)
class OQECReport:
    passes: bool
    lambdas: np.ndarray  # (n^2, d_B, d_B), Lambda_ij at row i n + j
    residual: float


def interaction_span(c: Channel) -> OperatorBasisSet:
    """Orthonormal basis of span{E_i^dag E_j}."""
    k = c.elements
    prods = dagger(k)[:, None] @ k[None]  # [i, j] = E_i^dag E_j
    return span_of(prods.reshape(-1, c.dim_in, c.dim_in))


def _preserved_carrier(channels: list[Channel], tol: Tolerance) -> OperatorBasisSet:
    """Algebra of the operators preserved by every channel in ``channels``.

    Each channel preserves the commutant of its interaction span, and
    commutant(S_1) & commutant(S_2) = commutant(S_1 | S_2), so the common
    algebra is one commutant of the union of the spans.
    """
    return commutant([b for ch in channels for b in interaction_span(ch).basis], tol)


def preserved_algebra(c: Channel, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> AlgebraStructure:
    """Block-decomposed algebra of all sharp observables preserved by ``c``."""
    return structure_decompose(_preserved_carrier([c], tol), seed=seed, tol=tol)


def correction_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Channel R with elements E_k^dag E(1)^(-1/2) that fixes every
    preserved sharp observable of ``c`` under E* after R*.

    R is only determined on the support of E(1).  The kernel (orthogonal
    to the range of every element) is routed to the first basis state of
    the source, one element |0><u| per kernel eigenvector u of the same
    decomposition, so the result is a total trace-preserving channel.
    """
    k = c.elements
    w, u, support = psd_eig((k @ dagger(k)).sum(axis=0), tol)
    inv_sqrt = (u[:, support] / np.sqrt(w[support])) @ dagger(u[:, support])
    sinks = np.zeros((int((~support).sum()), c.dim_in, c.dim_out), dtype=np.complex128)
    sinks[:, 0] = u[:, ~support].T.conj()
    r = Channel.from_elements(np.concatenate([dagger(k) @ inv_sqrt, sinks]))
    require_trace_preserving(r, tol)
    return r


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
    residuals = {
        "fixed_point": fixed_point_residual(c, r, structure.carrier),
        "block_pattern": block_pattern_residual(structure),
    }
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
    a0 = preserved_algebra(c0, tol, seed)
    r0 = correction_channel(c0, tol)
    return span_of(apply_dual(c, apply_dual(r0, a0.carrier.basis)))


def kl_check(c: Channel, code: CodeSubspace, tol: Tolerance = DEFAULT_TOL) -> KLReport:
    """Scalar correctability condition V^dag E_i^dag E_j V = lambda_ij 1:
    the subsystem condition of :func:`oqec_check` with the trivial split
    (d_code, 1)."""
    rep = oqec_check(c, code, (code.dim_code, 1), tol)
    lam = np.reshape(rep.lambdas, (c.n_elements, c.n_elements))
    return KLReport(passes=rep.passes, lam=lam, residual=rep.residual)


def oqec_check(
    c: Channel,
    code: CodeSubspace,
    factorization: tuple[int, int],
    tol: Tolerance = DEFAULT_TOL,
) -> OQECReport:
    """Subsystem correctability condition V^dag E_i^dag E_j V = 1 (x) Lambda_ij
    for a code split H_A (x) H_B with dims ``factorization``."""
    d_a, d_b = factorization
    if d_a * d_b != code.dim_code:
        raise BadFactorization(f"{d_a} * {d_b} != code dimension {code.dim_code}")
    if code.dim != c.dim_in:
        raise DimMismatch(f"code lives in dim {code.dim}, channel input is {c.dim_in}")
    k = c.elements
    left = dagger(code.v) @ dagger(k)  # V^dag E_i^dag
    m = ((left[:, None] @ k[None]) @ code.v).reshape(-1, code.dim_code, code.dim_code)
    lambdas = np.einsum("nabad->nbd", m.reshape(-1, d_a, d_b, d_a, d_b)) / d_a
    residual = op_norm(m - np.kron(np.eye(d_a), lambdas))
    return OQECReport(passes=bool(residual <= tol.abs_eps), lambdas=lambdas, residual=residual)


def span_equivalent(c1: Channel, c2: Channel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True when the elements of the two channels span the same operator subspace."""
    if (c1.dim_in, c1.dim_out) != (c2.dim_in, c2.dim_out):
        return False
    rows1 = _gram_schmidt(c1.elements.reshape(c1.n_elements, -1))
    rows2 = _gram_schmidt(c2.elements.reshape(c2.n_elements, -1))
    p1 = _row_span_projector(rows1)
    p2 = _row_span_projector(rows2)
    return op_norm(p1 - p2) <= max(tol.abs_eps, 1e-8)


def homomorphism_residual(
    c: Channel,
    structure: AlgebraStructure,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """How far E* is from multiplicative on the image of R*.

    Evaluates ||E*(R*(A) R*(B)) - A B|| over pairs of basis elements of
    the preserved algebra, a seeded sample of ``HOMOMORPHISM_PAIRS`` of
    them when there are more.
    """
    r = correction_channel(c, tol)
    basis = structure.carrier.basis
    k = basis.shape[0]
    pairs = np.arange(k * k)
    if pairs.size > HOMOMORPHISM_PAIRS:
        pairs = np.random.default_rng(0).choice(pairs.size, size=HOMOMORPHISM_PAIRS, replace=False)
    i, j = np.divmod(pairs, k)
    lifted = apply_dual(r, basis)
    return op_norm(apply_dual(c, lifted[i] @ lifted[j]) - basis[i] @ basis[j])
