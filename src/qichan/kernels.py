"""Hot numeric kernels.

Two inner loops dominate runtime in this package: the simplex-constrained
least-squares solver behind coarse-graining feasibility (called once per
sampled observable, tens of thousands of times in a containment scan) and
classical channel capacity.  Capacity stops on a certificate, the bracket
``I(r) <= C <= max_i D(p_i || rP)`` that every prior r gives: an
active-set Newton method on the support of the prior closes it, and
alternating maximization (Blahut-Arimoto) takes over whenever a face
solve fails the certificate (see :func:`blahut_arimoto`).

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
# BA runs in chunks, the first this long and each later one twice the last
_CHUNK = 50
# the face a Newton solve works on: inputs with prior above this over n
_SUPPORT_CUT = 1e-3
# Newton steps per face, besides those that drop an input
_NEWTON_STEPS = 30
# singular values of P diag(q)^(-1/2) below this times the largest count
# as zero curvature (their squares are the Hessian's eigenvalues)
_FLAT = 1e-6
# prior the certificate gives inputs a face solve leaves out: an output only
# they reach keeps q > 0, so its bound stays finite, and I moves by ~1e-300
_OFF_FACE = 1e-300


def _divergences(pyx: np.ndarray, h: np.ndarray, r: np.ndarray) -> tuple[float, np.ndarray]:
    """(I, d) in nats at prior ``r``: ``d_i = D(p_i || rP)``, infinite for
    an input that reaches an output ``rP`` misses."""
    q = r @ pyx
    hit = q > 0
    d = h - pyx[:, hit] @ np.log(q[hit])
    if not hit.all():
        d[pyx[:, ~hit].any(axis=1)] = np.inf
    used = r > 0
    return float(r[used] @ d[used]), d


def _maximize_on_face(pyx: np.ndarray, h: np.ndarray, x: np.ndarray, gap: float) -> np.ndarray | None:
    """Newton ascent of I over the priors supported on the inputs of ``x``.

    ``pyx`` and ``h`` hold the face's rows, ``x > 0`` is the start.  The
    Hessian of I is ``-H`` with ``H = P diag(1/q) P^T = A A^T``, so one SVD
    of ``A = P diag(q)^(-1/2)`` gives the KKT system
    ``[-H, 1; 1^T, 0] (step, nu) = (-d, 0)`` in closed form.  The moves
    ``v`` with ``P^T v = 0`` (duplicate rows, more inputs than outputs)
    leave q alone, so I is linear along them, with slope the projection of
    ``d``.  If that slope is not 0 the step climbs along it, else it is the
    Newton step on the rest.  A step that leaves the simplex stops at its
    boundary and drops the input it zeroes; a climb always does.  Returns
    the prior, 0 on dropped inputs, once ``max d_i - I < gap`` on the
    inputs still in; None if the steps run out first.
    """
    k = x.size
    live = np.arange(k)
    # a step that hits the boundary drops an input: k of them come on top
    for _ in range(_NEWTON_STEPS + k):
        p = pyx[live]
        # outputs no input left reaches: p is 0 there
        q = x @ p
        q[q == 0] = 1.0
        d = h[live] - p @ np.log(q)
        if d.max() - x @ d < gap:
            r = np.zeros(k)
            r[live] = x
            return r
        # the left singular vectors of A diagonalize H
        u, sv, _ = np.linalg.svd(p / np.sqrt(q))
        rank = int(np.sum(sv > _FLAT * sv[0]))
        null = u[:, rank:]
        slope = null @ (null.T @ d)
        climb = slope.min() < 0
        if climb:
            step = slope
        else:
            # Newton on the range: H step = d + nu 1 with 1^T step = 0
            b, lam = u[:, :rank], sv[:rank] ** 2
            g, e = b.T @ d, b.sum(axis=0)
            nu = -(e @ (g / lam)) / (e @ (e / lam))
            step = b @ ((g + nu * e) / lam)
        shrink = step < 0
        ratios = -x[shrink] / step[shrink]
        # a Newton step ends at 1, a climb only at the boundary
        t = ratios.min(initial=np.inf if climb else 1.0)
        x = x + t * step
        keep = x > 0
        if ratios.size and t == ratios.min():
            keep[np.flatnonzero(shrink)[np.argmin(ratios)]] = False
        live, x = live[keep], x[keep]
        x = x / x.sum()
    return None


def _newton_certificate(pyx: np.ndarray, h: np.ndarray, r: np.ndarray, gap: float) -> np.ndarray | None:
    """Active-set Newton from the BA iterate ``r``: maximize I on the face
    ``{i : r_i > _SUPPORT_CUT / n}``; while inputs off the face beat I by
    more than ``gap``, add them and solve again (at most n times).  Inputs
    join a face with at least the cut's prior.  Returns the prior once
    ``max_i d_i - I < gap`` over all inputs, else None.
    """
    n = r.size
    floor = _SUPPORT_CUT / n
    face = r > floor
    for _ in range(n):
        idx = np.flatnonzero(face)
        x = np.maximum(r[idx], floor)
        x_face = _maximize_on_face(pyx[idx], h[idx], x / x.sum(), gap)
        if x_face is None:
            return None
        r = np.full(n, _OFF_FACE)
        r[idx] = np.maximum(x_face, _OFF_FACE)
        value, d = _divergences(pyx, h, r)
        out = d > value + gap
        if not out.any():
            return r
        face = (r > _OFF_FACE) | out
    return None


def blahut_arimoto(
    pyx: np.ndarray, tol: float = 1e-12, max_iter: int = 10000, prior: np.ndarray | None = None
) -> tuple[float, np.ndarray, np.ndarray, float]:
    """Capacity (bits) of a classical channel, certified to within ``tol``.

    pyx: conditional probabilities, rows indexed by input, columns by
    output (row-stochastic).  ``prior`` warm-starts the iteration; it is
    mixed with the uniform prior by weight ``_WARM_MIX`` first, since an
    input whose prior is exactly 0 never regains mass under the
    multiplicative update.  Without it the start is uniform.

    Every prior r with output q = rP brackets the capacity,
    ``I(r) <= C <= max_i D(p_i || q)`` (Blahut 1972), and the call stops
    once the bracket is narrower than ``tol`` bits.  Two steps close it:

    * alternating maximization (BA).  Output columns no input reaches are
      dropped and the row entropies ``h_i = sum_j p_ij ln p_ij`` computed
      once, so an iteration takes one log of q (ln 0 read as 0: such a
      column only meets inputs whose prior is 0) and
      ``d_i = D(p_i || q) = h_i - sum_j p_ij ln q_j``; the bracket costs
      one max.
    * Newton on the support.  BA closes the bracket sublinearly when an
      optimal input weight is 0, so it runs in chunks of ``_CHUNK``
      iterations, doubling, and before the first chunk and after each
      one I is maximized by an active-set Newton method on the face of
      the inputs BA keeps (see :func:`_newton_certificate`).  Its point
      is taken only if the bracket over *all* inputs holds; otherwise BA
      goes on from its own iterate, so a wrong guess of the support costs
      time, never the bound.

    Returns (lower, prior, history, upper): the capacity lower bound
    ``I(prior)`` and upper bound ``max_i D(p_i || q)`` in bits, and the
    value of every BA iteration, a nondecreasing sequence whose length is
    the iteration count.  The call converged iff ``upper - lower < tol``;
    otherwise it stopped at ``max_iter`` BA iterations.
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
    gap = tol * _LN2
    history = []
    newton_at, chunk = 1, _CHUNK
    while True:
        qy = r @ pyx
        logq = np.log(qy, out=np.zeros(n_out), where=qy > 0)
        d = h - pyx @ logq
        value = float(r @ d)
        history.append(value / _LN2)
        # an output whose q underflowed to 0 leaves the bound infinite
        if d.max() - value < gap and qy.all() or len(history) >= max_iter:
            break
        if len(history) == newton_at:
            on_face = _newton_certificate(pyx, h, r, gap)
            if on_face is not None:
                r = on_face
                break
            newton_at, chunk = newton_at + chunk, 2 * chunk
        w = r * np.exp(d)
        r = w / w.sum()
    value, d = _divergences(pyx, h, r)
    return value / _LN2, r, np.asarray(history), float(d.max()) / _LN2
