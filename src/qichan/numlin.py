"""Dense complex linear-algebra kernel used by every other module.

All operations are pure functions on immutable ndarrays (complex128,
row-major).  Comparisons use the operator norm (largest singular value).
The support of a PSD matrix is cut in one place, :func:`psd_eig`, at
``rank_rel`` times its largest eigenvalue, but never below rounding level;
everything below the cut is its kernel.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotHermitian, NotPSD, NotSquare


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerance contract.

    abs_eps: absolute operator-norm threshold for equality checks.
    rank_rel: relative singular-value cutoff for support/rank detection.
    """

    abs_eps: float = 1e-9
    rank_rel: float = 1e-10

    def __post_init__(self):
        if self.abs_eps <= 0 or self.rank_rel <= 0:
            raise ValueError("tolerances must be strictly positive")


DEFAULT_TOL = Tolerance()


def asmatrices(a) -> np.ndarray:
    """Coerce to a C-contiguous complex128 matrix, or stack of matrices
    (..., rows, cols), with finite entries."""
    m = np.ascontiguousarray(a, dtype=np.complex128)
    if m.ndim < 2:
        raise DimMismatch(f"expected a matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return m


def asmatrix(a) -> np.ndarray:
    """Coerce to a C-contiguous complex128 2-d array."""
    m = asmatrices(a)
    if m.ndim != 2:
        raise DimMismatch(f"expected a matrix, got ndim={m.ndim}")
    return m


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def op_norm(a: np.ndarray) -> float:
    """Operator (spectral) norm: the largest singular value; of a stack
    (..., m, n), the largest over all its matrices."""
    a = np.atleast_2d(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2, axis=(-2, -1)).max())


def require_square(a: np.ndarray) -> np.ndarray:
    a = asmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {a.shape}")
    return a


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns)
    with ``a = U diag(w) U^dag`` within ``tol.abs_eps``.

    Raises NotSquare / NotHermitian on bad input.
    """
    a = require_square(a)
    herm_residual = op_norm(a - dagger(a))
    if herm_residual > tol.abs_eps:
        raise NotHermitian(herm_residual, tol.abs_eps)
    w, u = np.linalg.eigh((a + dagger(a)) / 2)
    return w, u


def psd_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD matrix with its support cut.

    Returns (w, u, support) as :func:`hermitian_eig` does, plus the mask
    ``support = w > max(rank_rel, d eps) * max(w_max, 0)``: the eigenvalues
    of a d x d matrix carry rounding errors of about ``d eps w_max``, so no
    ``rank_rel`` lets them into the support.  The eigenvectors outside the
    support span the numerical kernel, so support and kernel together
    cover every direction.  Raises NotPSD if an eigenvalue dips below
    ``-abs_eps``.
    """
    w, u = hermitian_eig(a, tol)
    if w.size and w[0] < -tol.abs_eps:
        raise NotPSD(float(w[0]), tol.abs_eps)
    wmax = float(w[-1]) if w.size else 0.0
    rel = max(tol.rank_rel, w.size * np.finfo(np.float64).eps)
    return w, u, w > rel * max(wmax, 0.0)


def partial_trace(a, dims: list[int], keep) -> np.ndarray:
    """Trace out all tensor factors not listed in ``keep``.

    ``a`` must be square of dimension prod(dims); ``keep`` is an iterable
    of factor indices to retain, in their original order.
    """
    a = require_square(a)
    dims = [int(d) for d in dims]
    total = int(np.prod(dims))
    if a.shape[0] != total:
        raise DimMismatch(f"matrix dim {a.shape[0]} != prod(dims) {total}")
    keep = sorted(set(int(k) for k in keep))
    if any(k < 0 or k >= len(dims) for k in keep):
        raise DimMismatch(f"keep indices {keep} out of range for {len(dims)} factors")
    n = len(dims)
    t = a.reshape(dims + dims)
    # contract row/column axes of each traced factor, from the highest
    # axis down so earlier positions stay valid
    for idx in sorted(set(range(n)) - set(keep), reverse=True):
        t = np.trace(t, axis1=idx, axis2=idx + (t.ndim // 2))
    d_keep = int(np.prod([dims[k] for k in keep])) if keep else 1
    return t.reshape(d_keep, d_keep)


def herm_to_coords(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal Hermitian basis.

    Euclidean norm of the coordinates equals the Hilbert-Schmidt norm
    of the matrix, so linear feasibility problems over effects can run
    in real arithmetic.  A stack (..., d, d) maps to (..., d^2).
    """
    m = np.asarray(m)
    d = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != d:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    rows, cols = np.triu_indices(d, k=1)
    upper = m[..., rows, cols]
    diag = np.diagonal(m, axis1=-2, axis2=-1).real
    return np.concatenate([diag, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1)


def coords_to_herm(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_to_coords`."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != d * d:
        raise DimMismatch(f"coordinate vector of length {v.size} != {d * d}")
    m = np.zeros((d, d), dtype=np.complex128)
    np.fill_diagonal(m, v[:d])
    iu = np.triu_indices(d, k=1)
    k = iu[0].size
    off = (v[d : d + k] + 1j * v[d + k :]) / np.sqrt(2.0)
    m[iu] += off
    m[(iu[1], iu[0])] += off.conj()
    return m
