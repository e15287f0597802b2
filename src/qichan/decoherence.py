"""Information flow to the environment: pointer observables, classical
coarse-graining feasibility, broadcast analysis and the time-resolved
dephasing model.

The sampled classicality questions all reduce to one solver: is a target
observable a stochastic post-processing of a reference observable?  That
feasibility problem runs in real Hilbert-Schmidt coordinates through the
kernels in :mod:`qichan.kernels`.  The exact test needs no solver: the
facets of the zonotope of the reference's binary coarse-grainings decide
the binary observables, and for an independent reference, whose facet
normals are its dual frame, every observable.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from . import kernels
from .algebras import AlgebraStructure, OperatorBasisSet, structure_decompose
from .channels import (
    Channel,
    DiscreteObservable,
    apply,
    apply_dual,
    complement,
    require_trace_preserving,
)
from .correction import _preserved_carrier
from .errors import (
    BadProjectors,
    DimMismatch,
    Infeasible,
    NotEndomorphic,
)
from .numlin import (
    DEFAULT_TOL,
    Tolerance,
    above_cut,
    asstack,
    coords_to_herm,
    dagger,
    herm_to_coords,
    max_commutator_norm,
    norm_cut,
    null_cut,
    op_norm,
    op_norm_at_most,
)
from .rand import generator, random_povm, random_sharp_observable

FEASIBILITY_TOL = 1e-7
# the most entries, C(n, D - 1) D^2 for n effects spanning D dimensions, of
# exact_binary_classicality's SVD of its subsets (2^24 for D = n = 256)
FACET_SVD_ENTRIES = 1 << 24
# the most entries of the E(C) stack one eigvalsh call takes
_SUPPORT_ENTRIES = 1 << 18


@dataclass(frozen=True)
class StochasticMap:
    """Classical channel: nonnegative matrix with unit column sums."""

    entries: np.ndarray  # (outputs, inputs)

    @staticmethod
    def from_entries(entries, tol: Tolerance = DEFAULT_TOL) -> "StochasticMap":
        m = np.ascontiguousarray(entries, dtype=np.float64)
        if m.ndim != 2:
            raise DimMismatch("stochastic map must be a matrix")
        # a column sum adds rows entries, and the entries are often normalized by it
        cut = norm_cut(tol, m.shape[0])
        if m.min() < -cut:
            raise ValueError(f"negative entry {m.min():.3e}")
        sums = m.sum(axis=0)
        if np.max(np.abs(sums - 1.0)) > cut:
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


@dataclass(frozen=True)
class BinaryClassicality:
    """Whether every binary observable a channel preserves is a
    coarse-graining of Gamma: the largest ||E(Z)|| over a basis of the
    complement of span Gamma, the smallest margin h_Z(C) - h_R(C) over the
    facet normals C of Gamma's zonotope with the normal that attains it,
    the number of normals, and the largest residual that counts as zero."""

    range_residual: float
    facet_margin: float
    facet_normal: np.ndarray
    facet_normals: int
    cut: float

    @property
    def classical(self) -> bool:
        return self.range_residual <= self.cut and self.facet_margin >= -self.cut


def _common_preserved(channels: list[Channel], tol: Tolerance, seed: int) -> PointerReport:
    """Algebra preserved by every channel in ``channels`` (one commutant of
    all their Kraus products E_i^dag E_j), decomposed, with its central projectors
    as the pointer observable."""
    carrier = _preserved_carrier(channels, tol)
    structure = structure_decompose(carrier, seed=seed, tol=tol)
    return PointerReport(
        pointer_algebra=structure,
        # the algebra's read-only stack itself: the projectors are kept once
        pointer_effects=DiscreteObservable(structure.dim, effects=structure.central_projectors),
        commutativity_residual=max_commutator_norm(carrier.basis),
    )


def pointer_algebra(c: Channel, tol: Tolerance = DEFAULT_TOL, seed: int = 0) -> PointerReport:
    """Algebra preserved by both the channel and its complement: the
    commutant of their joint Kraus products E_i^dag E_j.  Commutative, with the
    central projectors as the sharp pointer observable."""
    return _common_preserved([c, complement(c)], tol, seed)


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


def _pointer_states(c: Channel, gamma: DiscreteObservable, tol: float) -> np.ndarray | None:
    """Unit output vector psi_i of each element E_i, when every element is
    rank one and ``gamma`` is the canonical pointer {E_i^dag E_i}, at ``tol``."""
    if c.n_elements != gamma.n_outcomes:
        return None
    k = c.elements
    u, s, _ = np.linalg.svd(k)
    if any(np.count_nonzero(above_cut(row, tol)) > 1 for row in s):
        return None
    if not op_norm_at_most(dagger(k) @ k - gamma.effects, tol):
        return None
    psis = u[:, :, 0]
    return psis / np.linalg.norm(psis, axis=1, keepdims=True)


def _combination_spectra(images: np.ndarray, weights: np.ndarray, cut: float) -> tuple[np.ndarray, float]:
    """The eigenvalues, in some order, of sum_a w_a A_a for each unit row w
    of ``weights``, given Hermitian A_a (D, d, d), and the most by which
    any sum of them may be off.

    When the A_a commute, the eigenvectors V of one generic combination
    diagonalize them all, and every spectrum comes from one product with
    the diagonals of V^dag A_a V.  Their off-diagonal parts, of joint
    Frobenius norm r, move each eigenvalue of a unit combination by at most
    r (Weyl), so a sum of d of them by at most d r; that route is taken
    when d r is within ``cut``.  Otherwise stacked ``eigvalsh`` calls give
    the spectra, off by rounding only (0 is returned).
    """
    d = images.shape[-1]
    _, v = np.linalg.eigh(np.tensordot(generator(0).standard_normal(len(images)), images, 1))
    rotated = dagger(v) @ images @ v
    diagonals = np.diagonal(rotated, axis1=1, axis2=2).real
    off = rotated.copy()
    off[:, np.arange(d), np.arange(d)] = 0
    spread = d * float(np.linalg.norm(off))
    if spread <= cut:
        return weights @ diagonals, spread
    step = max(1, _SUPPORT_ENTRIES // (d * d))
    chunks = [
        np.linalg.eigvalsh(np.tensordot(weights[i : i + step], images, 1)) for i in range(0, len(weights), step)
    ]
    return np.concatenate(chunks), 0.0


def _positive_sums(x: np.ndarray) -> np.ndarray:
    """The sums of the positive entries of each row of ``x``, then of -x:
    (sum |x| + sum x) / 2 and (sum |x| - sum x) / 2."""
    size, total = np.abs(x).sum(axis=1), x.sum(axis=1)
    return np.concatenate([size + total, size - total]) / 2


def exact_binary_classicality(
    c: Channel, gamma: DiscreteObservable, tol: Tolerance = DEFAULT_TOL
) -> BinaryClassicality | None:
    """Exact test that every binary observable preserved by ``c``,
    {E*(B), 1 - E*(B)} for 0 <= B <= 1, is a coarse-graining of ``gamma``,
    whether or not Gamma's effects are linearly independent.

    The binary coarse-grainings of Gamma form the zonotope
    Z = {sum_i pi_i Gamma_i : pi in [0, 1]^n} in span Gamma, and the
    preserved effects form R = E*([0, 1]).  R lies in Z exactly when E maps
    the complement of span Gamma to 0 (so R lies in span Gamma) and
    h_R(C) <= h_Z(C) for every facet normal C of Z, with the support
    functions h_Z(C) = sum_i max(0, tr Gamma_i C) and, by duality,
    h_R(C) = max_B tr(B E(C)), the sum of the positive eigenvalues of E(C).
    One SVD G = U S V^T of Gamma's coordinate matrix (n, d_in^2) splits the
    Hermitian operators into span Gamma, the first D rows of V^T (D the
    rank at ``numlin.above_cut``), and its complement, the rest; one
    forward ``apply`` maps both.  Each facet of Z is spanned by D - 1
    generators (McMullen, "On zonotopes", 1971), so the normals are both
    signs of the unit normal of every full-rank (D - 1)-subset of Gamma's
    coordinates U_D S_D (extra normals would only add valid inequalities),
    from one SVD of the stacked subsets.  Both signs come from one set of
    values: tr Gamma_i C and the spectrum of E(C)
    (:func:`_combination_spectra`, one product when the images of span
    Gamma commute).

    For independent Gamma, Z is a parallelotope whose normals are
    +-D_i / ||D_i||, with D_i the dual frame (tr Gamma_j D_i = delta_ij),
    and since tr sigma_i = 1 for sigma_i = E(D_i), the margins there say
    sigma_i >= 0: the margin is -(negative part of sigma_i) / ||D_i||.  So
    the test says whether E is measure-and-prepare through Gamma,
    E(rho) = sum_i tr(Gamma_i rho) sigma_i (Heinosaari and Ziman, 2012),
    and the verdict covers every observable, not only the binary ones:
    pi_ji = tr(sigma_i Y_j) coarse-grains each E*(Y).

    Returns None when the stacked SVD of the subsets would hold more than
    ``FACET_SVD_ENTRIES`` entries, C(n, D - 1) D^2; the cap is checked
    before ``apply``.  The cut is ``numlin.norm_cut`` over the element
    stack at the scale d_in, which bounds both support functions at a unit
    normal, plus the spread of the commuting route.
    """
    if gamma.dim != c.dim_in:
        raise DimMismatch(f"gamma dim {gamma.dim} != channel input {c.dim_in}")
    u, s, vt = np.linalg.svd(_coordinates(gamma.effects))
    dim = int(np.count_nonzero(above_cut(s, tol.rank_rel)))
    if comb(len(u), dim - 1) * dim * dim > FACET_SVD_ENTRIES:
        return None
    coords = u[:, :dim] * s[:dim]
    ops = coords_to_herm(vt, c.dim_in)
    images = apply(c, ops)
    # a subset's unit normal is its last right singular vector; it spans no
    # facet when its smallest singular value is within above_cut's rounding
    # floor of its largest (that normal would be noise), and at D = 1 the
    # one empty subset, with no singular values, keeps its normal
    rows = coords[np.array(list(combinations(range(len(coords)), dim - 1)), dtype=np.intp)]
    _, sv, right = np.linalg.svd(rows)
    full = np.all(sv > coords.size * np.finfo(np.float64).eps * sv[:, :1], axis=1)
    normals = right[full, -1]
    cut = norm_cut(tol, c.elements.size, c.dim_in)
    span = images[:dim]
    spectra, spread = _combination_spectra((span + dagger(span)) / 2, normals, cut)
    margins = _positive_sums(normals @ coords.T) - _positive_sums(spectra)
    worst = int(np.argmin(margins))
    sign = 1.0 if worst < len(normals) else -1.0
    return BinaryClassicality(
        range_residual=op_norm(images[dim:]),
        facet_margin=float(margins[worst]),
        facet_normal=np.tensordot(sign * normals[worst % len(normals)], ops[:dim], 1),
        facet_normals=len(margins),
        cut=cut + spread,
    )


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
    also scored by the same residual.  For a linearly independent ``gamma``,
    :func:`exact_binary_classicality` decides the same question without
    sampling, for every observable.
    """
    if gamma.dim != c.dim_in:
        raise DimMismatch(f"gamma dim {gamma.dim} != channel input {c.dim_in}")
    rng = generator(seed)
    psis = _pointer_states(c, gamma, tol)
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


def _marginal_channels(c: Channel, subsystem_dims: list[int], tol: Tolerance) -> list[Channel]:
    require_trace_preserving(c, tol)
    dims = list(subsystem_dims) + [c.n_elements]
    n_factors = len(dims)
    # the dilation V = sum_k E_k (x) |k>, one factor per subsystem, then the
    # environment, then the input
    v_tensor = c.elements.transpose(1, 0, 2).reshape(dims + [c.dim_in])
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
    seed: int = 0,
) -> PointerReport:
    """Sharp information preserved by every marginal of a channel into a
    tensor product of destination subsystems.

    Computes each marginal by tracing the dilated action down to one
    factor, takes the commutant of all their Kraus products (the
    algebra every marginal preserves), and reports it as a pointer
    structure.
    """
    dims = [int(d) for d in subsystem_dims]
    if int(np.prod(dims)) != c.dim_out:
        raise DimMismatch(f"prod{tuple(dims)} != channel output {c.dim_out}")
    if len(dims) < 2:
        raise DimMismatch("broadcast needs at least two subsystems")
    return _common_preserved(_marginal_channels(c, dims, tol), tol, seed)


def dephasing_sweep(projectors, n_env: int, total_time: float, times) -> SweepResult:
    """Time-resolved dephasing driven by a cyclic-shift environment.

    The channel at time t has elements
    E_k(t) = N^(-1/2) sum_i exp(-i w k t l_i) P_i with w = 2 pi / N and
    level spacings l_i = i / T, i = 0, 1, ...; at t = T the action reduces
    to the projective pinch sum_i P_i rho P_i.  The weight gamma[i, m] is
    the coefficient of P_i in the environment-basis effect pulled back
    through the complementary channel.
    """
    projs = asstack(projectors)
    n_proj, d, _ = projs.shape
    if not n_proj:
        raise BadProjectors("need at least one projector")
    if not op_norm_at_most(projs.sum(axis=0) - np.eye(d), norm_cut(DEFAULT_TOL, n_proj)):
        raise BadProjectors("projectors must sum to the identity")
    # P_i P_j - delta_ij P_i, one row i at a time: n d^2 entries, not n^2 d^2
    for i, p in enumerate(projs):
        deviation = p @ projs
        deviation[i] -= p
        if not op_norm_at_most(deviation, norm_cut(DEFAULT_TOL, d)):
            raise BadProjectors("projectors must be orthogonal idempotents")
    if n_env < n_proj:
        raise BadProjectors(f"environment size {n_env} < number of projectors {n_proj}")
    omega = 2 * np.pi / n_env
    lam = np.arange(n_proj) / total_time
    times = np.asarray(list(times), dtype=np.float64)
    ks = np.arange(n_env)
    # phases[t, i, k] = exp(-i w k t l_i) weighs P_i in the element E_k(t);
    # the amplitude of P_i on the shift-basis state m is its sum against
    # exp(i w k m) over k, one matrix product for every (t, i, m)
    phases = np.exp(-1j * omega * (times[:, None, None] * lam[None, :, None]) * ks)
    fourier = np.exp(1j * omega * (np.outer(ks, ks) % n_env))
    gamma = (np.abs(phases @ fourier) / n_env) ** 2
    elements = np.einsum("tik,iab->tkab", phases, projs) / np.sqrt(n_env)
    snapshots = tuple(Channel.from_elements(e) for e in elements)
    return SweepResult(times=times, gamma=gamma, snapshots=snapshots)


def environment_pointer_weights(snapshot: Channel, projectors, n_env: int) -> np.ndarray:
    """Brute-force twin of the sweep's closed-form gamma.

    Pulls each shift-basis environment effect back through the
    complementary channel of the snapshot and decomposes it over the
    projector family.
    """
    projs = asstack(projectors)
    require_trace_preserving(snapshot)
    if snapshot.n_elements != n_env:
        raise DimMismatch("snapshot has unexpected environment size")
    omega = 2 * np.pi / n_env
    ks = np.arange(n_env)
    # the element order indexes the Fourier basis of the environment; the
    # shift-basis effects |phi_m><phi_m|, one per m, pulled back together
    phi = np.exp(-1j * omega * ks * ks[:, None]) / np.sqrt(n_env)  # phi[m, k]
    pulled = apply_dual(complement(snapshot), phi[:, :, None] * phi.conj()[:, None, :])
    tr_p = np.trace(projs, axis1=1, axis2=2).real
    return np.trace(projs[:, None] @ pulled, axis1=2, axis2=3).real / tr_p[:, None]


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
    coefficient row over a fixed operator basis B_j, and by duality
    tr(E*(B_j) X) = tr(B_j E(X)), so one forward ``apply`` of s_x, s_z
    and 1 gives every coordinate.
    """
    if c.dim_in != 2:
        raise DimMismatch(f"region sampling needs a qubit input, got dim {c.dim_in}")
    d_out = c.dim_out
    if d_out > len(_PRIMES):
        raise DimMismatch(f"region sampling supports outputs up to dim {len(_PRIMES)}, got {d_out}")
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sz = np.diag([1.0, -1.0]).astype(np.complex128)
    images = apply(c, np.array([sx, sz, np.eye(2)]))  # E(X), X = s_x, s_z, 1
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
        coords = np.einsum("bij,kji->bk", np.array([np.eye(2), sx, sz]), images).real
    else:
        n_pts = grid**3
        alphas = np.sqrt(np.array(_PRIMES[:d_out], dtype=np.float64))
        coeffs = np.mod(np.arange(n_pts)[:, None] * alphas, 1.0)
        if 2**d_out <= n_pts:
            vertices = (np.arange(2**d_out)[:, None] >> np.arange(d_out)) & 1
            coeffs = np.vstack([coeffs, vertices.astype(np.float64)])
        # B_b = |b><b|, so tr(B_b E(X)) is the diagonal entry E(X)_bb
        coords = np.diagonal(images, axis1=1, axis2=2).T.real
    return coeffs @ coords


def iterated_fixed_points(c: Channel, tol: Tolerance = DEFAULT_TOL) -> OperatorBasisSet:
    """Span of operators fixed by the dual map, ||E*(A) - A|| ~ 0.

    Found as the nullspace of (M - 1) for the dual superoperator M: the
    right singular vectors whose singular values lie under
    ``numlin.null_cut`` at ``tol``, with the largest singular value s_0 of
    M - 1 on top and 1 + s_0, a bound on ||M||, as the scale.
    """
    if c.dim_in != c.dim_out:
        raise NotEndomorphic(f"dual iteration needs dim_in == dim_out, got {c.dim_in}, {c.dim_out}")
    d = c.dim_in
    k = c.elements
    # row-major vec(E^dag A E) = sum_k (E_k^dag (x) E_k^T) vec(A)
    m = np.einsum("kba,kdc->acbd", k.conj(), k).reshape(d * d, d * d)
    _, sv, vh = np.linalg.svd(m - np.eye(d * d))
    # rows of one unitary vh: already Hilbert-Schmidt orthonormal
    fixed = vh[sv <= null_cut(sv[0], 1 + sv[0], tol, d * d)].conj().reshape(-1, d, d)
    return OperatorBasisSet(dim=d, basis=fixed)
