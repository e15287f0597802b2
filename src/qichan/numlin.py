"""Dense complex linear-algebra kernel used by every other module.

All operations are pure functions on immutable ndarrays (complex128,
row-major).  Comparisons use the operator norm (largest singular value).
Every span and support in the package is cut by one rule, :func:`above_cut`:
keep the singular values (or PSD eigenvalues) above max(rank_rel, n eps)
times the largest, so ``rank_rel`` decides the cut but never below rounding
level.  :func:`psd_eig` cuts the support of a PSD matrix with it, and
refuses a matrix as not Hermitian or not PSD only past the same floor.
Every nullspace of a map is cut by :func:`null_cut`, and every yes/no norm
check at ``abs_eps`` by :func:`norm_cut`, on the same floor.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
        if not (0 < self.abs_eps < np.inf and 0 < self.rank_rel < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")


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


def asstack(mats) -> np.ndarray:
    """Coerce a stack (k, rows, cols), or a list of matrices of one shape,
    to one finite complex128 stack.  An ndarray is coerced in one call; a
    list matrix by matrix, so that ragged shapes raise ``DimMismatch``.
    An empty list gives a (0, 0, 0) stack."""
    if isinstance(mats, np.ndarray):
        stack = asmatrices(mats)
    else:
        listed = [asmatrix(m) for m in mats]
        shapes = {m.shape for m in listed}
        if len(shapes) > 1:
            raise DimMismatch(f"matrices must share one shape, got {sorted(shapes)}")
        stack = np.array(listed) if listed else np.zeros((0, 0, 0), dtype=np.complex128)
    if stack.ndim != 3:
        raise DimMismatch(f"expected a stack of matrices, got ndim={stack.ndim}")
    return stack


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


def op_norm_at_most(a: np.ndarray, bound: float) -> bool:
    """Whether ``op_norm(a) <= bound``, deciding from Frobenius norms where
    they settle it.

    Each m x n matrix A has ||A||_F / sqrt(min(m, n)) <= ||A||_2 <= ||A||_F,
    so a Frobenius norm at most ``bound`` says yes and one above
    sqrt(min(m, n)) ``bound`` says no.  Only the matrices of a stack whose
    Frobenius norm falls in between get an SVD.
    """
    a = np.atleast_2d(a)
    if a.size == 0:
        return 0.0 <= bound
    fro = np.linalg.norm(a, axis=(-2, -1))
    if np.any(fro > np.sqrt(min(a.shape[-2:])) * bound):
        return False
    # NaN settles neither way, so it reaches the SVD
    open_ = ~(fro <= bound)
    return not open_.any() or op_norm(a[open_]) <= bound


def max_commutator_norm(a: np.ndarray) -> float:
    """max_{i<j} ||[A_i, A_j]|| over a stack (k, d, d); 0 for fewer than two.

    Each row i of pairs is one batched product and one :func:`op_norm`
    call, so a call holds at most k commutators at once.
    """
    worst = 0.0
    for i in range(len(a) - 1):
        rest = a[i + 1 :]
        worst = max(worst, op_norm(a[i] @ rest - rest @ a[i]))
    return worst


def above_cut(values: np.ndarray, rank_rel: float = 0.0, n: int | None = None) -> np.ndarray:
    """Mask of the nonnegative ``values`` (singular values, PSD eigenvalues,
    norms) above max(``rank_rel``, n eps) times the largest.

    ``n`` (by default ``values.size``) counts the vectors or entries behind
    the values: their rounding errors are about n eps of the largest, so no
    ``rank_rel`` lets them past the cut.  ``rank_rel`` = 0 leaves only that
    roundoff floor.
    """
    n = values.size if n is None else n
    top = max(float(values.max()), 0.0) if values.size else 0.0
    return values > max(rank_rel, n * np.finfo(np.float64).eps) * top


def null_cut(top: float, scale: float, tol: Tolerance, n: int) -> float:
    """Largest singular value of a map that counts as zero: max(max(rank_rel,
    n eps) ``top``, abs_eps ``scale``), ``top`` its largest singular value,
    ``scale`` its operators' size and ``n`` its number of columns.  The
    relative part has :func:`above_cut`'s floor, since a null direction
    carries rounding of about n eps ``top``; without the absolute part, the
    roundoff of a map near zero would read as structure."""
    return max(max(tol.rank_rel, n * np.finfo(np.float64).eps) * top, tol.abs_eps * scale)


def norm_cut(tol: Tolerance, n: int, scale: float = 1.0) -> float:
    """Largest norm a yes/no check at ``tol.abs_eps`` counts as zero:
    max(abs_eps, n eps ``scale``), ``scale`` the size of the checked input
    and ``n`` the length of the sums behind the residual.  The floor is
    :func:`null_cut`'s: a residual computed from the input carries rounding
    of about n eps ``scale``, so no ``abs_eps`` reads it as a difference."""
    return max(tol.abs_eps, n * np.finfo(np.float64).eps * scale)


def psd_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigendecomposition of a PSD matrix with its support cut.

    Returns (eigenvalues ascending, unitary of eigenvectors as columns,
    support) with ``a = U diag(w) U^dag`` within ``tol.abs_eps``, and
    ``support`` the mask of the eigenvalues :func:`above_cut` keeps at
    ``rank_rel``.  The eigenvectors outside the support span the numerical
    kernel, so support and kernel together cover every direction.  Raises
    NotSquare, NotHermitian if ``a`` is further than the cut from its
    adjoint, or NotPSD if an eigenvalue dips below minus the cut.  The cut
    is ``norm_cut(tol, d, |w|_max)``, the support's floor: an eigenvalue
    within d eps of the largest is rounding, whichever its sign.
    """
    a = asmatrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"expected square matrix, got shape {a.shape}")
    w, u = np.linalg.eigh((a + dagger(a)) / 2)
    cut = norm_cut(tol, a.shape[0], float(np.abs(w).max(initial=0.0)))
    herm_residual = op_norm(a - dagger(a))
    if herm_residual > cut:
        raise NotHermitian(herm_residual, cut)
    if w.size and w[0] < -cut:
        raise NotPSD(float(w[0]), cut)
    return w, u, above_cut(w, tol.rank_rel)


@lru_cache(maxsize=64)
def _herm_index(d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Index tables of the basis of :func:`herm_to_coords` on d x d matrices.

    ``order``: row-major vec indices of the diagonal (a, a), the upper
    entries (a, b) with a < b, then their mirrors (b, a), a permutation of
    range(d^2).  ``source`` and ``weight``: entry p of a Hermitian matrix,
    as the pair (real, imaginary), is ``weight * coords[source]``.
    """
    rows, cols = np.triu_indices(d, k=1)
    k = rows.size
    order = np.concatenate([np.arange(d) * (d + 1), rows * d + cols, cols * d + rows])
    h = np.sqrt(0.5)
    source = np.zeros((d * d, 2), dtype=np.intp)
    weight = np.zeros((d * d, 2))
    pair = np.arange(d, d + k)
    source[order[:d], 0], weight[order[:d], 0] = np.arange(d), 1.0
    source[order[d : d + k]], weight[order[d : d + k]] = np.stack([pair, pair + k], 1), [h, h]
    source[order[d + k :]], weight[order[d + k :]] = np.stack([pair, pair + k], 1), [h, -h]
    tables = (order, source.ravel(), weight.ravel())
    for table in tables:
        table.flags.writeable = False
    return tables


def herm_to_coords(m: np.ndarray) -> np.ndarray:
    """Real coordinates of a Hermitian matrix in an orthonormal Hermitian basis.

    Euclidean norm of the coordinates equals the Hilbert-Schmidt norm
    of the matrix, so linear feasibility problems over effects can run
    in real arithmetic.  A stack (..., d, d) maps to (..., d^2).  The
    basis is E_aa, (E_ab + E_ba) / sqrt 2 and i (E_ab - E_ba) / sqrt 2 for
    a < b, in that order.
    """
    m = np.asarray(m)
    d = m.shape[-1]
    if m.ndim < 2 or m.shape[-2] != d:
        raise NotSquare(f"expected square matrices, got shape {m.shape}")
    k = d * (d - 1) // 2
    picked = m.reshape(m.shape[:-2] + (d * d,)).take(_herm_index(d)[0][: d + k], axis=-1)
    upper = picked[..., d:]
    return np.concatenate(
        [picked[..., :d].real, np.sqrt(2.0) * upper.real, np.sqrt(2.0) * upper.imag], axis=-1
    )


def coords_to_herm(v: np.ndarray, d: int) -> np.ndarray:
    """Inverse of :func:`herm_to_coords`: a stack (..., d^2) of coordinate
    vectors maps to Hermitian matrices (..., d, d)."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim == 0 or v.shape[-1] != d * d:
        raise DimMismatch(f"coordinate vectors of shape {v.shape} need length {d * d}")
    _, source, weight = _herm_index(d)
    pairs = v.take(source, axis=-1) * weight  # (real, imaginary) of each entry
    return pairs.view(np.complex128).reshape(v.shape[:-1] + (d, d))


def superop_to_coords(s: np.ndarray) -> np.ndarray:
    """Real matrix T^T S T of a self-adjoint superoperator S that maps
    Hermitian matrices to Hermitian matrices, in the basis T of
    :func:`herm_to_coords`.

    S is d^2 x d^2 on row-major vec.  Each column of T has at most two
    nonzeros, so the fold is sums and differences of the real and
    imaginary parts of S, gathered in the order of the basis; no complex
    d^2 x d^2 temporary is made.  T is orthonormal, so the result has S's
    spectrum.  It is exactly symmetric.
    """
    n = s.shape[0]
    d = int(round(np.sqrt(n)))
    if s.shape != (n, n) or d * d != n:
        raise DimMismatch(f"expected a d^2 x d^2 superoperator, got shape {s.shape}")
    order = _herm_index(d)[0]
    k = d * (d - 1) // 2
    # rows and columns in the order diagonal, upper (a, b), lower (b, a);
    # the real part is folded and freed before the imaginary one is gathered
    basis_order = np.ix_(order, order)
    dd, up, lo = slice(0, d), slice(d, d + k), slice(d + k, n)
    half = np.sqrt(0.5)
    out = np.empty((n, n))
    a = s.real[basis_order]
    out[dd, dd] = a[dd, dd]
    out[dd, up] = (a[dd, up] + a[dd, lo]) * half
    same = a[up, up] + a[lo, lo]
    cross = a[up, lo] + a[lo, up]
    del a
    out[up, up] = (same + cross) / 2
    out[lo, lo] = (same - cross) / 2
    del same, cross
    b = s.imag[basis_order]
    out[dd, lo] = (b[dd, lo] - b[dd, up]) * half
    out[up, lo] = (b[up, lo] + b[lo, lo] - b[up, up] - b[lo, up]) / 2
    del b
    # S is self-adjoint only up to roundoff: symmetrize the diagonal
    # blocks and mirror the upper ones
    for block in (dd, up, lo):
        x = out[block, block]
        out[block, block] = (x + x.T) / 2
    out[up, dd] = out[dd, up].T
    out[lo, dd] = out[dd, lo].T
    out[lo, up] = out[up, lo].T
    return out
