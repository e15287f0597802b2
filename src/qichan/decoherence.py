"""Information flow to the environment: pointer observables, classical
coarse-graining feasibility, broadcast analysis and the time-resolved
dephasing model.

The classicality questions all reduce to one solver: is a target
observable a stochastic post-processing of a reference observable?  That
feasibility problem runs in real Hilbert-Schmidt coordinates through the
kernels in :mod:`qichan.kernels`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .algebras import AlgebraStructure, OperatorBasisSet, span_of, structure_decompose
from .channels import (
    Channel,
    DiscreteObservable,
    apply_dual,
    complement,
    dilate,
)
from .correction import _preserved_carrier
from .errors import (
    BadProjectors,
    DimMismatch,
    Infeasible,
    NotEndomorphic,
    WitnessMismatch,
)
from .numlin import (
    DEFAULT_TOL,
    Tolerance,
    asmatrix,
    dagger,
    herm_to_coords,
    op_norm,
)
from .rand import generator, random_povm, random_sharp_observable

FEASIBILITY_TOL = 1e-7
# applications of the dual that iterated_fixed_points uses to expose drift
FIXED_POINT_ITERATIONS = 64


@dataclass(frozen=True)
class StochasticMap:
    """Classical channel: nonnegative matrix with unit column sums."""

    entries: np.ndarray  # (outputs, inputs)

    @staticmethod
    def from_entries(entries, tol: Tolerance = DEFAULT_TOL) -> "StochasticMap":
        m = np.ascontiguousarray(entries, dtype=np.float64)
        if m.ndim != 2:
            raise DimMismatch("stochastic map must be a matrix")
        if m.min() < -tol.abs_eps:
            raise ValueError(f"negative entry {m.min():.3e}")
        sums = m.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > max(tol.abs_eps, 1e-8):
            raise ValueError("columns must sum to one")
        return StochasticMap(entries=m)

    @property
    def n_outputs(self) -> int:
        return self.entries.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.entries.shape[1]

    def compose_observable(self, gamma: DiscreteObservable) -> DiscreteObservable:
        """The coarse-grained observable with effects sum_i pi_ji Gamma_i."""
        return DiscreteObservable.from_effects(_compose(self.entries, gamma.effects))


@dataclass(frozen=True)
class PointerReport:
    """Commutative algebra of information both kept and leaked, with its
    sharp pointer observable (the central projectors)."""

    pointer_algebra: AlgebraStructure
    pointer_effects: DiscreteObservable
    commutativity_residual: float
    composite: DiscreteObservable | None = None


@dataclass(frozen=True)
class SweepResult:
    times: np.ndarray
    gamma: np.ndarray  # (n_times, n_projectors, N)
    snapshots: tuple[Channel, ...]

    def rows(self) -> list[list]:
        """One ``[t, i, m, gamma]`` row per weight, in time-major order."""
        return [
            [float(t), i, m, float(self.gamma[t_idx, i, m])]
            for t_idx, t in enumerate(self.times)
            for i in range(self.gamma.shape[1])
            for m in range(self.gamma.shape[2])
        ]


@dataclass(frozen=True)
class DecoherenceReport:
    samples: int
    feasible: int
    max_residual: float
    residuals: tuple[float, ...]
    explicit_residual: float | None
    # largest Frank-Wolfe lower bound over the samples: above the
    # tolerance, it certifies that some sample has no coarse-graining
    certified_lower_bound: float

    @property
    def pass_rate(self) -> float:
        return self.feasible / self.samples if self.samples else 1.0


def _commutativity_residual(span: OperatorBasisSet) -> float:
    worst = 0.0
    for i in range(span.dimension):
        for j in range(i + 1, span.dimension):
            a, b = span.basis[i], span.basis[j]
            worst = max(worst, op_norm(a @ b - b @ a))
    return worst


def _common_preserved(channels: list[Channel], tol: Tolerance, seed: int) -> PointerReport:
    """Algebra preserved by every channel in ``channels`` (one commutant of
    all their interaction spans), decomposed, with its central projectors
    as the pointer observable."""
    carrier = _preserved_carrier(channels, tol)
    structure = structure_decompose(carrier, seed=seed, tol=tol)
    effects = DiscreteObservable.from_effects(list(structure.central_projectors))
    return PointerReport(
        pointer_algebra=structure,
        pointer_effects=effects,
        commutativity_residual=_commutativity_residual(carrier),
    )


def pointer_algebra(c: Channel, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> PointerReport:
    """Algebra preserved by both the channel and its complement: the
    commutant of their joint interaction spans.  Commutative, with the
    central projectors as the sharp pointer observable."""
    return _common_preserved([c, complement(c)], tol, seed)


def correlation_check(
    c: Channel,
    x: DiscreteObservable,
    y: DiscreteObservable,
    z: DiscreteObservable,
    tol: Tolerance = DEFAULT_TOL,
) -> float:
    """Residual of perfect correlation between the output witness Y and the
    environment witness Z for a duplicated observable X.

    Returns max_{i != j} ||V^dag (Y_i (x) Z_j) V|| plus the worst diagonal
    deviation from X_i; raises WitnessMismatch when the witnesses do not
    reproduce X through the channel and its complement.
    """
    if x.n_outcomes != y.n_outcomes or x.n_outcomes != z.n_outcomes:
        raise DimMismatch("X, Y, Z need matching outcome counts")
    for label, channel, witness in (("Y", c, y), ("Z", complement(c), z)):
        res = op_norm(apply_dual(channel, witness.effects) - x.effects)
        if res > tol.abs_eps:
            raise WitnessMismatch(label, res, tol.abs_eps)
    n = x.n_outcomes
    v = dilate(c, tol).v.reshape(c.dim_out, -1, c.dim_in)  # V[o, env, a]
    # V^dag (Y_i (x) Z_j) V = ((Y_i (x) 1) V)^dag (1 (x) Z_j) V, without the kron
    left = (y.effects @ v.reshape(c.dim_out, -1)).reshape(n, -1, c.dim_in)
    right = (z.effects[:, None] @ v).reshape(n, -1, c.dim_in)
    joint = dagger(left)[:, None] @ right[None]
    same = np.eye(n, dtype=bool)
    return op_norm(joint[~same]) + op_norm(joint[same] - x.effects)


def _coordinates(effects) -> np.ndarray:
    """Coordinates of the Hermitian parts of a stack of effects (..., d, d)."""
    a = np.asarray(effects)
    return herm_to_coords((a + dagger(a)) / 2)


def _compose(pi: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Effects sum_i pi_ji Gamma_i of maps (..., m, n) over effects (n, d, d)."""
    return np.einsum("...ji,iab->...jab", pi, gamma)


def _residuals(targets: np.ndarray, gamma: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """max_j ||X_j - sum_i pi_ji Gamma_i|| of each problem in a stack."""
    return np.linalg.norm(targets - _compose(pi, gamma), 2, axis=(-2, -1)).max(axis=-1)


def _coarse_grain(
    targets: np.ndarray, gamma: np.ndarray, tol: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Best stochastic maps from the effects ``gamma`` (n, d, d) to each of
    a stack of observables ``targets`` (S, m, d, d), in one kernel call.

    Returns (pi, residual, lower): the maps (S, m, n) with unit column
    sums, their operator-norm residuals and, per problem, the Frank-Wolfe
    lower bound on the residual of every stochastic map.
    """
    g = _coordinates(gamma).T  # (D, n)
    x = _coordinates(targets)  # (S, m, D)
    pi, _ = kernels.solve_product_simplex_lsq(g, x, hs_tol=0.5 * tol)
    pi /= pi.sum(axis=1, keepdims=True)
    # some row keeps f*/m in squared HS norm, and ||A|| >= ||A||_HS / sqrt(d)
    bound = np.maximum(kernels.simplex_lsq_lower_bound(g, x, pi), 0.0)
    lower = np.sqrt(bound / (targets.shape[1] * targets.shape[-1]))
    return pi, _residuals(targets, gamma, pi), lower


def coarse_grain_solve(
    x: DiscreteObservable,
    gamma: DiscreteObservable,
    tol: float = FEASIBILITY_TOL,
) -> StochasticMap:
    """Find a stochastic map pi with X_j = sum_i pi_ji Gamma_i.

    Solved as a nonnegative least-squares problem over Hilbert-Schmidt
    coordinates with the unit-column-sum constraint built into the
    feasible set.  Raises :class:`Infeasible` carrying the best operator
    norm residual achieved when no such map exists within ``tol``, with
    the Frank-Wolfe lower bound on the residual of every map.
    """
    if x.dim != gamma.dim:
        raise DimMismatch(f"observable dims differ: {x.dim} != {gamma.dim}")
    pi, residual, lower = _coarse_grain(x.effects[None], gamma.effects, tol)
    if residual[0] > tol:
        raise Infeasible(float(residual[0]), tol, float(lower[0]))
    return StochasticMap.from_entries(pi[0])


def _pointer_states(c: Channel, gamma: DiscreteObservable) -> np.ndarray | None:
    """Unit output vector psi_i of each element E_i, when every element is
    rank one and ``gamma`` is the canonical pointer {E_i^dag E_i}."""
    if c.n_elements != gamma.n_outcomes:
        return None
    k = c.elements
    u, s, _ = np.linalg.svd(k)
    if s.shape[1] > 1 and np.any(s[:, 1] > DEFAULT_TOL.rank_rel * s[:, 0] * 100):
        return None
    if op_norm(dagger(k) @ k - gamma.effects) > 1e-8:
        return None
    psis = u[:, :, 0]
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def full_decoherence_check(
    c: Channel,
    gamma: DiscreteObservable,
    samples: int = 64,
    tol: float = FEASIBILITY_TOL,
    seed: int = 0,
) -> DecoherenceReport:
    """Statistical test that every observable preserved by ``c`` is a
    coarse-graining of ``gamma``.

    Pulls ``samples`` randomized output observables back through the dual
    and solves the feasibility problem for each, as :func:`coarse_grain_solve`
    does; the largest Frank-Wolfe bound among them is reported.  For
    channels with rank one elements whose Gamma matches the canonical
    pointer, the explicit stochastic map pi_ji = <psi_i| Y_j |psi_i> is
    also scored by the same residual.
    """
    if gamma.dim != c.dim_in:
        raise DimMismatch(f"gamma dim {gamma.dim} != channel input {c.dim_in}")
    rng = generator(seed)
    psis = _pointer_states(c, gamma)
    residuals, lowers, explicit = [], [], []
    for _ in range(samples):
        n_out = int(rng.integers(2, c.dim_out + 2))
        if rng.random() < 0.5 and n_out <= c.dim_out:
            y = random_sharp_observable(rng, c.dim_out, n_out)
        else:
            y = random_povm(rng, c.dim_out, n_out)
        targets = apply_dual(c, y.effects)[None]
        _, res, lower = _coarse_grain(targets, gamma.effects, tol)
        residuals.append(float(res[0]))
        lowers.append(float(lower[0]))
        if psis is not None:
            pi = np.einsum("ia,jab,ib->ji", psis.conj(), y.effects, psis).real
            explicit.append(float(_residuals(targets, gamma.effects, pi[None])[0]))
    return DecoherenceReport(
        samples=samples,
        feasible=sum(r <= tol for r in residuals),
        max_residual=max(residuals, default=0.0),
        residuals=tuple(residuals),
        explicit_residual=max(explicit) if explicit else None,
        certified_lower_bound=max(lowers, default=0.0),
    )


def _marginal_channels(c: Channel, subsystem_dims: list[int]) -> list[Channel]:
    iso = dilate(c)
    dims = list(subsystem_dims) + [iso.d_env]
    n_factors = len(dims)
    v_tensor = iso.v.reshape(dims + [c.dim_in])
    marginals = []
    for i in range(len(subsystem_dims)):
        # factor i is the output, every other factor is environment
        order = [ax for ax in range(n_factors) if ax != i] + [i, n_factors]
        elements = np.transpose(v_tensor, order).reshape(-1, dims[i], c.dim_in)
        marginals.append(Channel.from_elements(elements))
    return marginals


def broadcast_pointer(
    c: Channel,
    subsystem_dims: list[int],
    tol: Tolerance = DEFAULT_TOL,
    witnesses: list[DiscreteObservable] | None = None,
    seed: int = 0,
) -> PointerReport:
    """Sharp information preserved by every marginal of a channel into a
    tensor product of destination subsystems.

    Computes each marginal by tracing the dilated action down to one
    factor, takes the commutant of all their interaction spans (the
    algebra every marginal preserves), and reports it as a pointer
    structure.  When per-factor witness observables are given,
    the composite observable (Y_1 (x) ... (x) Y_n) o E is attached.
    """
    dims = [int(d) for d in subsystem_dims]
    if int(np.prod(dims)) != c.dim_out:
        raise DimMismatch(f"prod{tuple(dims)} != channel output {c.dim_out}")
    if len(dims) < 2:
        raise DimMismatch("broadcast needs at least two subsystems")
    report = _common_preserved(_marginal_channels(c, dims), tol, seed)
    if witnesses is None:
        return report
    if len(witnesses) != len(dims):
        raise DimMismatch("one witness observable per subsystem required")
    joint = witnesses[0].effects
    for w in witnesses[1:]:
        pairs = np.kron(joint[:, None], w.effects[None])  # [i, j] = joint_i (x) W_j
        joint = pairs.reshape(-1, *pairs.shape[2:])
    return replace(report, composite=DiscreteObservable.from_effects(apply_dual(c, joint)))


def dephasing_sweep(projectors, n_env: int, total_time: float, times) -> SweepResult:
    """Time-resolved dephasing driven by a cyclic-shift environment.

    The channel at time t has elements
    E_k(t) = N^(-1/2) sum_i exp(-i w k t l_i) P_i with w = 2 pi / N and
    level spacings l_i = i / T, i = 0, 1, ...; at t = T the action reduces
    to the projective pinch sum_i P_i rho P_i.  The weight gamma[i, m] is
    the coefficient of P_i in the environment-basis effect pulled back
    through the complementary channel.
    """
    projs = [asmatrix(p) for p in projectors]
    if not projs:
        raise BadProjectors("need at least one projector")
    d = projs[0].shape[0]
    total = sum(projs)
    if op_norm(total - np.eye(d)) > 1e-9:
        raise BadProjectors("projectors must sum to the identity")
    for i, p in enumerate(projs):
        for j, q in enumerate(projs):
            expect = p if i == j else np.zeros_like(p)
            if op_norm(p @ q - expect) > 1e-9:
                raise BadProjectors("projectors must be orthogonal idempotents")
    n_proj = len(projs)
    if n_env < n_proj:
        raise BadProjectors(f"environment size {n_env} < number of projectors {n_proj}")
    omega = 2 * np.pi / n_env
    lam = np.arange(n_proj) / total_time
    times = np.asarray(list(times), dtype=np.float64)
    snapshots = []
    gamma = np.zeros((times.size, n_proj, n_env))
    for t_idx, t in enumerate(times):
        elements = []
        for k in range(n_env):
            phases = np.exp(-1j * omega * k * t * lam)
            elements.append(sum(ph * p for ph, p in zip(phases, projs)) / np.sqrt(n_env))
        snapshots.append(Channel.from_elements(elements))
        ns = np.arange(n_env)
        for i in range(n_proj):
            for m in range(n_env):
                amp = np.exp(-1j * omega * ns * (t * lam[i] - m)).sum()
                gamma[t_idx, i, m] = (np.abs(amp) / n_env) ** 2
    return SweepResult(times=times, gamma=gamma, snapshots=tuple(snapshots))


def environment_pointer_weights(snapshot: Channel, projectors, n_env: int) -> np.ndarray:
    """Brute-force twin of the sweep's closed-form gamma.

    Pulls each shift-basis environment effect back through the
    complementary channel of the snapshot and decomposes it over the
    projector family.
    """
    projs = [asmatrix(p) for p in projectors]
    iso = dilate(snapshot)
    v = iso.v
    if iso.d_env != n_env:
        raise DimMismatch("snapshot has unexpected environment size")
    omega = 2 * np.pi / n_env
    ks = np.arange(n_env)
    gamma = np.zeros((len(projs), n_env))
    for m in range(n_env):
        # the element order of the dilation indexes the Fourier basis of the
        # environment; convert the shift-basis effect |phi_m><phi_m|
        phi = np.exp(-1j * omega * ks * m) / np.sqrt(n_env)
        q_m = np.outer(phi, phi.conj())
        pulled = dagger(v) @ np.kron(np.eye(snapshot.dim_out), q_m) @ v
        for i, p in enumerate(projs):
            tr_p = np.trace(p).real
            gamma[i, m] = float((np.trace(p @ pulled) / tr_p).real)
    return gamma


_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71,
           73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137, 139, 149, 151,
           157, 163, 167, 173, 179, 181, 191, 193, 197, 199, 211, 223, 227, 229, 233,
           239, 241, 251, 257, 263, 269, 271, 277, 281, 283, 293, 307, 311)


def effect_region_sample(c: Channel, grid: int) -> np.ndarray:
    """Coordinates (tr(A s_x), tr(A s_z), tr(A)) of preserved effects
    A = E*(B) over a deterministic grid of output effects B.

    Qubit outputs use a Bloch grid over (b_x, b_z, scale) with boundary
    densification; larger outputs grid the diagonal effect coefficients
    (a low-discrepancy Kronecker sequence plus binary vertices), which
    exhausts the dual image for rank-one element channels.  Each B is a
    coefficient row over a fixed operator basis, so by linearity only the
    basis images are pulled back through the dual.
    """
    if c.dim_in != 2:
        raise DimMismatch(f"region sampling needs a qubit input, got dim {c.dim_in}")
    d_out = c.dim_out
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    if d_out == 2:
        # rows (s, b_x, b_z) of B = (s 1 + b_x s_x + b_z s_z) / 2, in grid
        # order: the point itself when inside the slice, then its radial
        # projection onto the boundary
        bs = np.linspace(-1.0, 1.0, grid)
        ss = np.linspace(0.0, 2.0, grid)
        bx, bz, sc = (a.ravel() for a in np.meshgrid(bs, bs, ss, indexing="ij"))
        r = np.hypot(bx, bz)
        rmax = np.minimum(sc, 2.0 - sc)
        f = np.divide(rmax, r, out=np.zeros_like(r), where=r > 1e-12)
        rows = np.stack([np.column_stack([sc, bx, bz]), np.column_stack([sc, f * bx, f * bz])], axis=1)
        keep = np.column_stack([r <= rmax + 1e-12, (r > 1e-12) & (rmax > 0)])
        coeffs = rows[keep] / 2
        basis = np.array([np.eye(2), sx, sz])
    else:
        if d_out > len(_PRIMES):
            raise DimMismatch(f"region sampling supports outputs up to dim {len(_PRIMES)}, got {d_out}")
        n_pts = grid**3
        alphas = np.sqrt(np.array(_PRIMES[:d_out], dtype=np.float64))
        coeffs = np.mod(np.arange(n_pts)[:, None] * alphas, 1.0)
        if 2**d_out <= n_pts:
            vertices = (np.arange(2**d_out)[:, None] >> np.arange(d_out)) & 1
            coeffs = np.vstack([coeffs, vertices.astype(np.float64)])
        basis = np.eye(d_out, dtype=np.complex128)[:, :, None] * np.eye(d_out)[:, None, :]  # |b><b|
    images = apply_dual(c, basis)
    # (tr(A s_x), tr(A s_z), tr(A)) of each basis image
    coords = np.einsum("bij,kji->bk", images, np.array([sx, sz, np.eye(2)])).real
    return coeffs @ coords


def iterated_fixed_points(c: Channel, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Span of operators fixed by the dual map, ||E*(A) - A|| ~ 0.

    Found as the near-nullspace of (M - 1) for the dual superoperator M;
    borderline directions are disambiguated by iterating the dual
    ``FIXED_POINT_ITERATIONS`` times, which amplifies any drift away from
    eigenvalue one.
    """
    if c.dim_in != c.dim_out:
        raise NotEndomorphic(f"dual iteration needs dim_in == dim_out, got {c.dim_in}, {c.dim_out}")
    d = c.dim_in
    k = c.elements
    # row-major vec(E^dag A E) = sum_k (E_k^dag (x) E_k^T) vec(A)
    m = np.einsum("kba,kdc->acbd", k.conj(), k).reshape(d * d, d * d)
    _, sv, vh = np.linalg.svd(m - np.eye(d * d))
    candidates = vh[sv <= max(tol.abs_eps * 10, 1e-8)].conj().reshape(-1, d, d)
    drift = candidates
    for _ in range(FIXED_POINT_ITERATIONS):
        drift = apply_dual(c, drift)
    bound = max(tol.abs_eps * FIXED_POINT_ITERATIONS, 1e-7)
    kept = np.linalg.norm(drift - candidates, 2, axis=(1, 2)) <= bound
    return span_of(candidates[kept], dim=d)
