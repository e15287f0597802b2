"""Exception types shared across the package.

Every exception carries enough context (shapes, residuals, offending
invariant) for a caller to report a useful diagnostic without re-running
the computation.
"""

from __future__ import annotations


class QichanError(Exception):
    """Base class for all package errors."""


class DimMismatch(QichanError):
    """Operands have incompatible shapes or dimensions."""


class NotSquare(QichanError):
    """A square matrix was required."""


class NotHermitian(QichanError):
    """Matrix is not Hermitian within tolerance."""

    def __init__(self, residual: float, eps: float):
        self.residual = residual
        self.eps = eps
        super().__init__(f"not Hermitian: ||A - A^dag|| = {residual:.3e} > {eps:.3e}")


class NotPSD(QichanError):
    """Matrix has an eigenvalue below -abs_eps."""

    def __init__(self, min_eig: float, eps: float):
        self.min_eig = min_eig
        self.eps = eps
        super().__init__(f"not positive semidefinite: min eigenvalue {min_eig:.3e} < -{eps:.3e}")


class NotTracePreserving(QichanError):
    """Channel element sums fail the trace-preservation identity."""

    def __init__(self, residual: float, eps: float):
        self.residual = residual
        self.eps = eps
        super().__init__(
            f"not trace preserving: ||sum E^dag E - 1|| = {residual:.3e} > {eps:.3e}"
        )


class NotAnAlgebra(QichanError):
    """Operator span is not closed under multiplication within tolerance."""


class DecompositionFailed(QichanError):
    """Block decomposition produced inconsistent dimensions (tolerance too loose or tight)."""


class NotEndomorphic(QichanError):
    """Operation requires a channel with equal input and output dimension."""


class BadProjectors(QichanError):
    """Projector family is not complete and orthogonal."""


class BadFactorization(QichanError):
    """Requested tensor factorization does not match the code dimension."""


class Infeasible(QichanError):
    """No stochastic map reproduces the target observable.

    Carries the best residual found and ``lower_bound``, a certified lower
    bound on the residual of every stochastic map; a bound above ``tol``
    certifies the verdict.
    """

    def __init__(self, residual: float, tol: float, lower_bound: float):
        self.residual = residual
        self.tol = tol
        self.lower_bound = lower_bound
        super().__init__(
            f"infeasible: residual {residual:.3e} > {tol:.3e}, "
            f"certified lower bound {lower_bound:.3e}"
        )


class SchemaError(QichanError):
    """Input file does not match the expected JSON schema."""

    def __init__(self, path: str, detail: str):
        self.path = path
        self.detail = detail
        super().__init__(f"{path}: {detail}")


class ValidationError(QichanError):
    """Parsed object violates a structural invariant."""

    def __init__(self, invariant: str, residual: float):
        self.invariant = invariant
        self.residual = residual
        super().__init__(f"invariant violated: {invariant} (residual {residual:.3e})")


class UnknownExample(QichanError):
    """Requested catalogue example does not exist."""
