"""Hot numeric kernels.

Two inner loops dominate runtime in this package: the simplex-constrained
least-squares solver behind coarse-graining feasibility (called once per
sampled observable, tens of thousands of times in a containment scan) and
the alternating-maximization loop for classical channel capacity.

Each kernel has exactly one implementation, vectorized numpy with no
compiled twin; ``BACKEND`` names it in reports.  Dense eigen/SVD work
stays on LAPACK in :mod:`qichan.numlin`.

The feasibility problem solved here is

    minimize   f(P) = sum_j || G p_j - x_j ||^2   over rows p_j of P
    subject to each column of P lying in the probability simplex,

which is a convex quadratic over a product of simplices.  A batch of such
problems runs FISTA (Beck & Teboulle 2009) with adaptive restart
(O'Donoghue & Candes 2015); every problem keeps its own momentum and
restart, and leaves the batch as soon as it is

* feasible: ``sqrt(f) <= hs_tol``, tested every iteration;
* certified infeasible, tested every 32 iterations: the Frank-Wolfe bound
  (Jaggi 2013) ``f(P) - <grad f(P), P - S> <= f*``, with ``S`` putting each
  column's mass on that column's gradient argmin, exceeds
  ``m d (2 hs_tol)^2`` with ``d = sqrt(D)``.  Then every P leaves some row
  above ``2 hs_tol`` in operator norm, the tolerance callers accept, so
  iterating on cannot change the verdict;
* stalled, tested every 32 iterations: the objective has failed to drop
  by 1e-18 for more than 128 iterations in a row;

or when ``max_iter`` runs out.  Later iterations only pay for the
problems still running, and a problem's iterates do not depend on the
rest of the batch.
"""

from __future__ import annotations

import numpy as np

BACKEND = "numpy"


# ---------------------------------------------------------------------------
# simplex-constrained least squares
# ---------------------------------------------------------------------------

# per-problem stop reasons reported by _solve_simplex_lsq
STOP_CAP, STOP_FEASIBLE, STOP_CERTIFIED, STOP_STALLED = 0, 1, 2, 3
_CHECK_EVERY = 32
_STALL_ITERS = 128
_STALL_DECREASE = 1e-18


def _project_columns_simplex(p: np.ndarray) -> np.ndarray:
    """Project every column of every problem onto the probability simplex.

    ``p`` has shape (S, m, n); the simplex constraint runs over axis 1.
    The threshold is ``max_k (u_1 + ... + u_k - 1) / k`` over the entries
    ``u`` sorted in decreasing order: that running mean rises exactly while
    ``u_k`` stays above it, so its maximum sits at the usual support size.
    """
    m = p.shape[1]
    u = np.sort(p, axis=1)[:, ::-1, :]
    k = np.arange(1, m + 1, dtype=np.float64).reshape(1, m, 1)
    theta = ((np.cumsum(u, axis=1) - 1.0) / k).max(axis=1)
    return np.maximum(p - theta[:, None, :], 0.0)


def _fw_lower_bound(r: np.ndarray, p: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Frank-Wolfe bound from the residuals ``r = P G^T - X`` at ``p``."""
    grad = 2.0 * (r @ g)
    f = np.sum(r * r, axis=(1, 2))
    # <grad, S> for the vertex S taking each column's gradient argmin
    return f - np.sum(grad * p, axis=(1, 2)) + grad.min(axis=1).sum(axis=1)


def simplex_lsq_lower_bound(g: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Certified lower bound on ``min ||P G^T - X||^2`` for each problem.

    ``p`` (S, m, n) is any point with simplex columns; by convexity
    ``f(P) - <grad f(P), P - S> <= f*`` where ``S`` puts each column's
    mass on the argmin of that column of the gradient.  The bound is
    tight at the optimum.  Shapes as in :func:`solve_product_simplex_lsq`.
    """
    g = np.asarray(g, dtype=np.float64)
    p = np.asarray(p, dtype=np.float64)
    return _fw_lower_bound(p @ g.T - np.asarray(x, dtype=np.float64), p, g)


def _solve_simplex_lsq(
    g: np.ndarray, x: np.ndarray, max_iter: int, hs_tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """FISTA run of :func:`solve_product_simplex_lsq`.

    Returns (P, iterations, stop): per problem, the iteration at which it
    stopped and the ``STOP_*`` reason.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    s_count, m, dim = x.shape
    gt = g.T
    p_out = np.full((s_count, m, g.shape[1]), 1.0 / m)
    iterations = np.full(s_count, max_iter, dtype=np.int64)
    stop = np.full(s_count, STOP_CAP, dtype=np.int64)
    lip = 2.0 * (np.linalg.norm(g, 2) ** 2)
    if lip == 0.0:  # G = 0: every P is optimal
        return p_out, np.zeros(s_count, dtype=np.int64), stop
    # a bound above m d (2 hs_tol)^2 leaves some row above 2 hs_tol in
    # operator norm for every P (||A|| >= ||A||_HS / sqrt(d), d^2 = D)
    certify = m * np.sqrt(dim) * (2.0 * hs_tol) ** 2

    # state of the problems still running, indexed into the batch by `live`
    live = np.arange(s_count)
    xs = x
    p = p_out.copy()
    y = p.copy()
    t = np.ones(s_count)
    f_prev = np.sum((p @ gt - xs) ** 2, axis=(1, 2))
    stall = np.zeros(s_count, dtype=np.int64)
    for it in range(1, max_iter + 1):
        if live.size == 0:
            break
        grad = 2.0 * ((y @ gt - xs) @ g)
        p_next = _project_columns_simplex(y - grad / lip)
        r = p_next @ gt - xs
        f_next = np.sum(r * r, axis=(1, 2))
        # adaptive restart: kill momentum on problems whose value went up
        worse = f_next > f_prev
        t_next = np.where(worse, 1.0, 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t)))
        beta = np.where(worse, 0.0, (t - 1.0) / t_next)
        y = p_next + beta[:, None, None] * (p_next - p)
        stall = np.where(f_prev - f_next < _STALL_DECREASE, stall + 1, 0)
        p, t, f_prev = p_next, t_next, f_next

        reason = np.where(np.sqrt(f_next) <= hs_tol, STOP_FEASIBLE, STOP_CAP)
        if it % _CHECK_EVERY == 0:
            reason[(reason == STOP_CAP) & (stall > _STALL_ITERS)] = STOP_STALLED
            reason[(reason != STOP_FEASIBLE) & (_fw_lower_bound(r, p, g) > certify)] = STOP_CERTIFIED
        done = reason != STOP_CAP
        if np.any(done):
            p_out[live[done]] = p[done]
            iterations[live[done]] = it
            stop[live[done]] = reason[done]
            keep = ~done
            live, xs, p, y, t, f_prev, stall = (
                a[keep] for a in (live, xs, p, y, t, f_prev, stall)
            )
    p_out[live] = p
    return p_out, iterations, stop


def solve_product_simplex_lsq(
    g: np.ndarray, x: np.ndarray, max_iter: int = 20000, hs_tol: float = 5e-8
) -> tuple[np.ndarray, np.ndarray]:
    """Batched FISTA for ``min ||P G^T - X||^2`` with simplex columns.

    g: (D, n) real design matrix (coordinates of the reference effects).
    x: (S, m, D) batched targets (coordinates of the effects to explain).
    Returns (P, res) with P of shape (S, m, n) and ``res[s]`` the largest
    per-row Euclidean residual of problem ``s``.  Each problem stops on
    its own (see the module docstring), so a problem's P does not depend
    on the rest of the batch.
    """
    g = np.ascontiguousarray(g, dtype=np.float64)
    x = np.ascontiguousarray(x, dtype=np.float64)
    p, _, _ = _solve_simplex_lsq(g, x, max_iter, hs_tol)
    r = p @ g.T - x
    return p, np.sqrt(np.sum(r * r, axis=2)).max(axis=1)


# ---------------------------------------------------------------------------
# alternating maximization for classical channel capacity
# ---------------------------------------------------------------------------

_LN2 = float(np.log(2.0))
# weight of the uniform prior mixed into a warm start
_WARM_MIX = 1e-9


def blahut_arimoto(
    pyx: np.ndarray, tol: float = 1e-12, max_iter: int = 10000, prior: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray]:
    """Capacity (bits) of a classical channel by alternating maximization.

    pyx: conditional probabilities, rows indexed by input, columns by
    output (row-stochastic).  ``prior`` warm-starts the iteration; it is
    mixed with the uniform prior by weight ``_WARM_MIX`` first, since an
    input whose prior is exactly 0 never regains mass under the
    multiplicative update.  Without it the start is uniform.

    Output columns no input reaches are dropped and the row entropies
    ``h_i = sum_j p_ij ln p_ij`` are computed once, so an iteration takes
    one log of the output distribution ``qy`` (ln 0 read as 0: such a
    column only meets inputs whose prior is 0) and
    ``d_i = KL(p(.|i) || qy) = h_i - sum_j p_ij ln qy_j``.  Warm or cold,
    it stops when an iteration gains less than ``tol`` bits.  Returns
    (capacity, optimal prior, per-iteration values); the value sequence is
    nondecreasing.
    """
    pyx = np.asarray(pyx, dtype=np.float64)
    n_in = pyx.shape[0]
    pyx = np.ascontiguousarray(pyx[:, pyx.sum(axis=0) > 0])
    n_out = pyx.shape[1]
    h = np.sum(pyx * np.log(np.where(pyx > 0, pyx, 1.0)), axis=1)
    if prior is None:
        r = np.full(n_in, 1.0 / n_in)
    else:
        r = (1.0 - _WARM_MIX) * np.asarray(prior, dtype=np.float64) + _WARM_MIX / n_in
        r /= r.sum()
    history = []
    c_prev = -np.inf
    for _ in range(max_iter):
        qy = r @ pyx
        logq = np.log(qy, out=np.zeros(n_out), where=qy > 0)
        d = h - pyx @ logq
        c_now = float(r @ d) / _LN2
        history.append(c_now)
        if c_now - c_prev < tol and len(history) > 1:
            break
        c_prev = c_now
        w = r * np.exp(d)
        r = w / w.sum()
    return history[-1], r, np.asarray(history)
