"""Hot numeric kernels.

Two inner loops dominate runtime in this package: the simplex-constrained
least-squares solver behind coarse-graining feasibility (called once per
sampled observable, tens of thousands of times in a containment scan) and
classical channel capacity.  Capacity stops on a certificate, the bracket
``I(r) <= C <= max_i D(p_i || rP)`` that every prior r gives: an
active-set Newton method on the support of the prior closes it, and
alternating maximization (Blahut-Arimoto) takes over whenever a face
solve fails the certificate (see :func:`blahut_arimoto`).  A Newton step
that would leave the simplex drops at once every input it sends to 0 or
below whose divergence is clearly below I (projected Newton; Bertsekas
1982), so a face sheds the inputs the optimum leaves out in a few steps
instead of one step each; an input the optimum keeps but a step drops
comes back on the certificate's next pass.  An input that alone reaches
some outputs, with an optimal prior too small for the face, is placed
where its divergence equals I.

Capacity also runs on a stack of channels, as the observable-capacity
search needs for its starts: the channels are padded to one shape with
zero rows and columns, every BA iteration and every Newton step of the
face solves is one batched step over the channels still running, and a
channel leaves the stack when its bracket closes.  A single channel runs
the same steps on vectors and matrices.  Solving it as a stack of one
raised the capacity benchmark's median request latency, which its
``shannon`` requests set, from 1.23 to 1.61 ms (2 vCPUs, one BLAS
thread): numpy's per-call cost on the stacked reductions outweighs a
small channel's arithmetic.

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
# a slope of I counts below this times max d_i on the face, along a flat
# move and along e_i - x (slope d_i - I) when a step drops inputs: copies of
# a row have equal d_i, and a slope at rounding level must not decide how
# they split or which inputs leave, or a channel could take another face in
# a stack than alone
_SLOPE_NOISE = 1e-13
# a Newton step cut short at the boundary drops, besides the input there,
# each input the whole step sends to 0 or below whose d_i is below I by more
# than this share of max d_i - I (and by more than rounding); with a rounding
# margin alone, a face solve that starts from inputs the bracket put back
# could drop them again, and the certificate's passes cycle
_DROP_SHARE = 0.2
# prior the certificate gives inputs a face solve leaves out: an output only
# they reach keeps q > 0, so its bound stays finite, and I moves by ~1e-300
_OFF_FACE = 1e-300


def _vecmat(v: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``v M`` for one problem (vector, matrix) or each problem of a stack."""
    return v @ m if v.ndim == 1 else (v[:, None, :] @ m)[:, 0, :]


def _matvec(m: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``M v`` for one problem (matrix, vector) or each problem of a stack."""
    return m @ v if v.ndim == 1 else (m @ v[:, :, None])[:, :, 0]


def _dot(a: np.ndarray, b: np.ndarray):
    """``a . b`` for one problem or each problem of a stack."""
    return a @ b if a.ndim == 1 else (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def _divergences(pyx: np.ndarray, h: np.ndarray, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(I, d) in nats at prior ``r``: ``d_i = D(p_i || rP)``, infinite for an
    input that reaches an output ``rP`` misses."""
    q = _vecmat(r, pyx)
    hit = q > 0
    if hit.all():
        d = h - _matvec(pyx, np.log(q))
    else:
        d = h - _matvec(pyx, np.log(q, out=np.zeros_like(q), where=hit))
        d[((pyx > 0) & ~hit[..., None, :]).any(axis=-1)] = np.inf
    return _dot(r, np.where(r > 0, d, 0.0)), d


def _face_start(r: np.ndarray, face: np.ndarray, floor: np.ndarray) -> np.ndarray:
    """Start of a face solve: ``r`` raised to ``floor`` on the face, 0 off
    it, normalized."""
    x = np.where(face, np.maximum(r, floor), 0.0)
    return x / x.sum(axis=-1, keepdims=True)


def _newton_step(pf: np.ndarray, x: np.ndarray, q: np.ndarray, d: np.ndarray, size, value, top) -> np.ndarray:
    """One Newton step of I on the face ``x > 0``; returns x.

    ``pf`` holds the face rows of P (a stack's other rows are 0), ``d``
    the divergences (0 off the face), ``size`` the face size, ``value``
    I and ``top`` the largest d_i on the face.  The
    Hessian of I on the face is ``-H`` with ``H = P diag(1/q) P^T = A A^T``,
    so one SVD of ``A = P diag(q)^(-1/2)`` gives the KKT system
    ``[-H, 1; 1^T, 0] (step, nu) = (-d, 0)`` in closed form.  The moves
    ``v`` with ``P^T v = 0`` (duplicate rows, more inputs than outputs)
    leave q alone, so I is linear along them, with slope the projection of
    ``d``.  If that slope is not 0 the step climbs along it, else it is the
    Newton step on the rest.  A climb ends at the boundary and drops the
    input it zeroes.  A Newton step that would leave the simplex stops at
    its boundary and drops the input there, together with every input the
    whole step sends to 0 or below whose d_i is below I by more than
    ``_DROP_SHARE`` of ``top - value`` and by more than rounding (slope
    ``d_i - I`` of I along ``e_i - x``): mass flows out of such an input,
    so the face sheds it now rather than one boundary per step.  Zero
    rows are kernel directions of ``A`` too, but the step never enters
    them.
    """
    stacked = x.ndim == 2
    # per-problem values broadcast against per-input ones
    col = (lambda v: v[:, None]) if stacked else (lambda v: v)
    # (LAPACK's full SVD of a small matrix is the faster one)
    u, sv, _ = np.linalg.svd(pf / col(np.sqrt(q)))
    # the left singular vectors of A diagonalize H: the leading ones whose
    # singular values pass the cut span its range, the rest its kernel
    u = u[..., : sv.shape[-1]]
    keep = sv > _FLAT * sv[..., :1]
    # H's pseudo-inverse is b b^T
    b = u / col(np.where(keep, sv, np.inf))
    g, e = _vecmat(d, b), b.sum(axis=-2)
    # Newton on the range: H step = d + nu 1 with 1^T step = 0
    step = _matvec(b, g - col(_dot(e, g) / _dot(e, e)) * e)
    if stacked:
        step *= x > 0
    flat = size > keep.sum(axis=-1)
    climb = False
    if flat.any() if stacked else flat:
        # a face of full rank has no flat move, and a slope at rounding
        # level (equal d on duplicate rows) is none either
        slope = d - _matvec(u, np.where(keep, _vecmat(d, u), 0.0))
        if stacked:
            slope *= x > 0
        climb = flat & (slope.min(axis=-1) < -_SLOPE_NOISE * np.abs(d).max(axis=-1))
        step = np.where(col(climb), slope, step)
    ratios = np.divide(-x, step, out=np.full(x.shape, np.inf), where=step < 0)
    first = ratios.min(axis=-1)
    # a Newton step ends at 1, a climb only at the boundary
    if stacked:
        t = np.where(climb, first, np.minimum(first, 1.0))[:, None]
        short = (first < 1.0) & np.logical_not(climb)
    else:
        t = first if climb else min(first, 1.0)
        short = not climb and first < 1.0
    x = x + t * step
    # the input whose boundary the step reached leaves the face
    out = (ratios == t) | (x <= 0)
    if short.any() if stacked else short:
        # and so does every input the whole step sends to 0 or below whose
        # divergence is clearly below I, checked on such steps only
        bar = value - np.maximum(_DROP_SHARE * (top - value), _SLOPE_NOISE * top)
        out |= col(short) & (ratios <= 1.0) & (d < col(bar))
    x = np.where(out, 0.0, x)
    return x / x.sum(axis=-1, keepdims=True)


def _maximize_on_face(pyx: np.ndarray, h: np.ndarray, x: np.ndarray, gap: float) -> np.ndarray:
    """Newton ascent of I over the priors supported on ``x > 0``, until
    ``max d_i - I < gap`` on the face.

    At most ``_NEWTON_STEPS`` steps plus the face size are taken (a step
    that hits the boundary drops one input or more, never to return in
    this solve); see :func:`_newton_step`.  One
    problem keeps only its face rows; a stack keeps every row, 0 off each
    problem's face, and a problem leaves it once solved or out of steps,
    so the rest reach its iterates only through the stack's shape.
    Returns the last iterate, 0 off the face.  Whether it solved the face
    is not reported: the caller's bracket over all inputs decides.
    """
    stacked = x.ndim == 2
    if stacked:
        face = x > 0
        pf, hf, size = pyx * face[..., None], h * face, face.sum(axis=1)
        # problems still climbing, indexed into the stack by `live`
        live, x_out = np.arange(len(x)), x.copy()
    else:
        rows = np.flatnonzero(x)
        pf, hf, x, size = pyx[rows], h[rows], x[rows], rows.size
    budget = _NEWTON_STEPS + size
    while True:
        q = _vecmat(x, pf)
        # outputs no input on the face reaches: P is 0 there
        q[q == 0] = 1.0
        d = hf - _matvec(pf, np.log(q))
        value, top = _dot(x, d), d.max(axis=-1)
        budget = budget - 1
        done = (top - value < gap) | (budget == 0)
        if not stacked:
            if done:
                x_out = np.zeros(h.shape)
                x_out[rows] = x
                return x_out
        elif done.any():
            x_out[live[done]] = x[done]
            keep = ~done
            if not keep.any():
                return x_out
            live, pyx, h, x, q, d, value, top, face, pf, hf, size, budget = (
                a[keep] for a in (live, pyx, h, x, q, d, value, top, face, pf, hf, size, budget)
            )
        x = _newton_step(pf, x, q, d, size, value, top)
        moved = x > 0
        if not stacked:
            if not moved.all():
                rows, pf, hf, x, size = rows[moved], pf[moved], hf[moved], x[moved], moved.sum()
        elif (moved != face).any():
            face = moved
            pf, hf, size = pyx * face[..., None], h * face, face.sum(axis=1)


def _bracket(pyx: np.ndarray, h: np.ndarray, r: np.ndarray, inputs: np.ndarray, gap: float) -> tuple:
    """(I, d, out, finite) at prior ``r``: ``d`` is -inf off the inputs,
    ``out`` marks the inputs that beat I by more than ``gap``, and
    ``finite`` whether I is."""
    value, d = _divergences(pyx, h, r)
    d = np.where(inputs, d, -np.inf)
    # I is infinite when q underflows on an output that only inputs at
    # _OFF_FACE reach (p_ij below ~1e-24): such a prior certifies nothing
    finite = np.isfinite(value)
    bar = np.where(finite, value, 0.0) + gap
    return value, d, d > (bar[:, None] if r.ndim == 2 else bar), finite


def _place_lone_inputs(pyx: np.ndarray, x: np.ndarray, r: np.ndarray, value, d: np.ndarray, out: np.ndarray, gap: float):
    """``r`` with each input of ``out`` that the face solve ``x`` left out
    and that alone reaches some outputs moved to the prior at which its
    divergence equals I, or None if there is no such input.

    At prior t on such an input, each output j it alone reaches has
    ``q_j = t p_ij``, so ``d_i = c_i - B_i ln t`` with B_i its mass on
    those outputs, while the rest of q, and I, move by O(t).  From d_i at
    ``_OFF_FACE`` the root in log-prior is
    ``ln t = ln _OFF_FACE + (d_i - I) / B_i``.  Only roots below ``gap``
    are placed: a larger prior moves I and the other divergences by about
    the bracket's width, and such an input belongs on the face.  Problems
    with a placed input are normalized again.
    """
    if not gap > 0:
        # no prior makes the bracket narrower than that
        return None
    stacked = r.ndim == 2
    col = (lambda v: v[:, None]) if stacked else (lambda v: v)
    finite = np.isfinite(value)
    place = out & (x == 0) & col(finite)
    if not place.any():
        return None
    lone = _matvec(pyx, ((pyx > 0).sum(axis=-2) == 1).astype(np.float64))
    place &= lone > 0
    shift = np.divide(d - col(np.where(finite, value, 0.0)), lone, out=np.zeros_like(r), where=place)
    place &= shift < np.log(gap / _OFF_FACE)
    if not place.any():
        return None
    r = np.where(place, _OFF_FACE * np.exp(shift), r)
    return np.where(place.any(axis=-1, keepdims=True), r / r.sum(axis=-1, keepdims=True), r)


def _newton_certificate(pyx: np.ndarray, h: np.ndarray, r: np.ndarray, inputs: np.ndarray, gap: float) -> tuple | None:
    """Active-set Newton from the BA iterate ``r``: maximize I on the face
    ``{i : r_i > _SUPPORT_CUT / n}``, n the number of inputs (``inputs``
    marks them); while inputs beat I by more than ``gap``, add them and
    solve again (at most n times).  That bracket over all inputs is the
    only check: a face solve that ran out of steps, or dropped an input
    the optimum keeps, leaves inputs that beat I, and the next pass goes
    on from where it stopped.  Inputs join a face with at least the cut's
    prior; those a face solve leaves out get ``_OFF_FACE``, padding rows
    0.  An input left out that alone reaches some outputs and beats I gets
    instead the prior at which its divergence equals I (see
    :func:`_place_lone_inputs`): its optimal prior can lie far below the
    cut yet far above ``_OFF_FACE``.  The problems of a stack solve
    their faces together, one pass at a time.

    Returns None if no problem is certified, else (certified, prior, I,
    max_i d_i), the last two in nats: where ``certified`` holds, the
    bracket ``max_i d_i - I`` over all inputs at ``prior`` is below
    ``gap``.
    """
    stacked = r.ndim == 2
    sizes = inputs.sum(axis=-1)
    floor = _SUPPORT_CUT / (sizes[:, None] if stacked else sizes)
    x = _face_start(r, r > floor, floor)
    if stacked:
        # problems still to certify, indexed into the stack by `todo`
        todo, certified = np.arange(len(r)), np.zeros(len(r), dtype=bool)
        priors, lower, upper = np.zeros_like(r), np.zeros(len(r)), np.zeros(len(r))
    for passes in range(1, int(sizes.max()) + 1):
        x = _maximize_on_face(pyx, h, x, gap)
        r = np.maximum(x, _OFF_FACE) * inputs
        value, d, out, finite = _bracket(pyx, h, r, inputs, gap)
        ok = ~out.any(axis=-1) & finite
        if not ok.all():
            # inputs that beat I join the face, and it is solved again
            face = (x > _OFF_FACE) | out
            placed = _place_lone_inputs(pyx, x, r, value, d, out, gap)
            if placed is not None:
                r = placed
                value, d, out, finite = _bracket(pyx, h, r, inputs, gap)
                ok = ~out.any(axis=-1) & finite
                # a placed input that still beats I joins the face too
                face |= out
        again = ~ok & finite & (passes < sizes)
        if not stacked:
            if ok or not again:
                return (True, r, value, d.max()) if ok else None
        else:
            done = todo[ok]
            certified[done], priors[done], lower[done], upper[done] = True, r[ok], value[ok], d[ok].max(axis=1)
            if not again.any():
                break
            todo, pyx, h, inputs, sizes, floor, r, face = (
                a[again] for a in (todo, pyx, h, inputs, sizes, floor, r, face)
            )
        x = _face_start(r, face, floor)
    if not stacked or not certified.any():
        return None
    return certified, priors, lower, upper


def blahut_arimoto(
    pyx: np.ndarray, tol: float = 1e-12, max_iter: int = 10000, prior: np.ndarray | None = None
) -> tuple:
    """Capacity (bits) of a classical channel, or of each channel of a
    stack, certified to within ``tol``.

    pyx: conditional probabilities, rows indexed by input, columns by
    output (row-stochastic), as one (n_in, n_out) matrix or a stack
    (S, n_in, n_out).  Rows of zeros are padding, not inputs: channels of
    different sizes share a stack padded with zero rows and columns, and
    padding keeps prior 0.  ``prior`` warm-starts the iteration (one row
    per channel of a stack); it is mixed with the uniform prior on the
    inputs by weight ``_WARM_MIX`` first, since an input whose prior is
    exactly 0 never regains mass under the multiplicative update.
    Without it the start is uniform.

    Every prior r with output q = rP brackets the capacity,
    ``I(r) <= C <= max_i D(p_i || q)`` (Blahut 1972), and a channel stops
    once its bracket is narrower than ``tol`` bits.  Two steps close it:

    * alternating maximization (BA).  Output columns no channel reaches
      are dropped and the row entropies ``h_i = sum_j p_ij ln p_ij``
      computed once, so an iteration takes one log of q (ln 0 read as 0:
      such a column only meets inputs whose prior is 0, or none) and
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

    The channels of a stack advance together: each BA iteration, and each
    Newton step of the face solves, is one batched step over the channels
    still running, and a channel leaves as soon as its bracket closes.
    The other channels reach its iterates only through the stack's padded
    shape (its rows, and the output columns some channel reaches), which
    sets the shapes its products and SVDs run on.  A single matrix runs
    the same steps on vectors and keeps only the rows of its face, so its
    results agree with a stacked run up to rounding.

    Returns (lower, prior, history, upper): the capacity lower bound
    ``I(prior)`` and upper bound ``max_i D(p_i || q)`` in bits, and the
    value of every BA iteration, a nondecreasing sequence whose length is
    the iteration count.  For a stack, lower and upper have shape (S,),
    prior (S, n_in) and history (iterations, S), column s holding channel
    s's values and NaN after it stopped.  A channel converged iff
    ``upper - lower < tol``; otherwise it stopped at ``max_iter`` BA
    iterations.
    """
    pyx = np.asarray(pyx, dtype=np.float64)
    stacked = pyx.ndim == 3
    reached = pyx.reshape(-1, pyx.shape[-1]).any(axis=0)
    pyx = np.ascontiguousarray(pyx if reached.all() else pyx[..., reached])
    inputs = pyx.any(axis=-1)
    padded = not inputs.all()
    sizes = inputs.sum(axis=-1, keepdims=True)
    # outputs a channel misses although others of its stack reach them
    missed = pyx.sum(axis=-2) == 0 if stacked else None
    ragged = stacked and missed.any()
    h = np.sum(pyx * np.log(np.where(pyx > 0, pyx, 1.0)), axis=-1)
    if prior is None:
        r = inputs / sizes
    else:
        r = np.where(inputs, (1.0 - _WARM_MIX) * np.asarray(prior, dtype=np.float64) + _WARM_MIX / sizes, 0.0)
        r /= r.sum(axis=-1, keepdims=True)
    gap = tol * _LN2
    history = []
    newton_at, chunk, capped = 1, _CHUNK, False
    p, hl, inp, miss = pyx, h, inputs, missed
    if stacked:
        # channels still running, indexed into the stack by `live`
        live, priors, lower, upper_out = np.arange(len(r)), np.zeros_like(r), np.zeros(len(r)), np.zeros(len(r))
    while not stacked or live.size:
        qy = _vecmat(r, p)
        d = hl - _matvec(p, np.log(qy, out=np.zeros_like(qy), where=qy > 0))
        value = _dot(r, d)
        if stacked:
            history.append(np.full(len(priors), np.nan))
            history[-1][live] = value / _LN2
        else:
            history.append(float(value) / _LN2)
        upper = (np.where(inp, d, -np.inf) if padded else d).max(axis=-1)
        # an output whose q underflowed to 0 leaves the bound infinite
        done = (upper - value < gap) & (((qy > 0) | miss) if ragged else qy > 0).all(axis=-1)
        capped = len(history) >= max_iter
        if capped:
            done = np.ones_like(done)
        elif len(history) == newton_at:
            if stacked:
                todo = np.flatnonzero(~done)
                found = _newton_certificate(p[todo], hl[todo], r[todo], inp[todo], gap) if todo.size else None
                if found is not None:
                    ok, on_face, face_value, face_upper = found
                    at = todo[ok]
                    r[at], value[at], upper[at], done[at] = on_face[ok], face_value[ok], face_upper[ok], True
            elif not done:
                found = _newton_certificate(p, hl, r, inp, gap)
                if found is not None:
                    done, r, value, upper = found
            newton_at, chunk = newton_at + chunk, 2 * chunk
        if not stacked:
            if done:
                break
        elif done.any():
            at = live[done]
            priors[at], lower[at], upper_out[at] = r[done], value[done], upper[done]
            if capped:
                break
            keep = ~done
            live, r, d, p, hl, inp, miss = (a[keep] for a in (live, r, d, p, hl, inp, miss))
        w = r * np.exp(d)
        r = w / w.sum(axis=-1, keepdims=True)
    if capped:
        # q may have underflowed on an output, and then an input that
        # reaches it has no finite bound; I keeps the iteration's value,
        # which counts the underflowed term r_i p_ij ln(p_ij / q_j) as 0 ln 0
        if stacked:
            _, d = _divergences(pyx[at], h[at], priors[at])
            upper_out[at] = (np.where(inputs[at], d, -np.inf) if padded else d).max(axis=-1)
        else:
            _, d = _divergences(pyx, h, r)
            upper = (np.where(inputs, d, -np.inf) if padded else d).max()
    if stacked:
        return lower / _LN2, priors, np.array(history).reshape(len(history), len(priors)), upper_out / _LN2
    return float(value) / _LN2, r, np.asarray(history), float(upper) / _LN2
