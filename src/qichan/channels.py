"""Quantum channels and observables in element (Kraus) form.

A channel is stored as one read-only array of its element matrices,
shape (n, dim_out, dim_in), and an observable as one array of its effects,
shape (n, dim, dim); every computation over the elements is an array
expression on that stack.  No canonical form is imposed, so two channels
are compared by their action on a full operator basis (equivalently, by
their Choi matrices), never element-wise.

Every element list defines a completely positive map, since its Choi
matrix sum_k |E_k>><<E_k| is a Gram matrix, so a channel's validity is
its trace preservation alone; an eigenvalue check of the Choi matrix
could fail only on rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPSD, NotTracePreserving
from .numlin import DEFAULT_TOL, Tolerance, asmatrices, asmatrix, asstack, dagger, norm_cut, op_norm, psd_eig

# entries of the A [E_1 ... E_k] products _sandwich forms at once (16 B each)
SANDWICH_ENTRIES = 1 << 16


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _frozen_stack(mats, what: str) -> np.ndarray:
    """Finite matrices of one shape as one read-only array (n, rows, cols),
    copied, so that the caller's array cannot change it."""
    stack = asstack(mats)
    if not len(stack):
        raise DimMismatch(f"at least one {what} is needed")
    return _freeze(stack.copy())


@dataclass(frozen=True)
class Channel:
    """Completely positive map given by elements E_k, rho -> sum E_k rho E_k^dag."""

    dim_in: int
    dim_out: int
    elements: np.ndarray  # (n, dim_out, dim_in), read-only

    @staticmethod
    def from_elements(elements) -> "Channel":
        k = _frozen_stack(elements, "element")
        return Channel(dim_in=k.shape[2], dim_out=k.shape[1], elements=k)

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]


@dataclass(frozen=True)
class DiscreteObservable:
    """Finite-outcome observable: effects X_i summing to the identity."""

    dim: int
    effects: np.ndarray  # (n, dim, dim), read-only

    @staticmethod
    def from_effects(effects) -> "DiscreteObservable":
        x = _frozen_stack(effects, "effect")
        if x.shape[1] != x.shape[2]:
            raise DimMismatch(f"effect shape {x.shape[1:]} is not square")
        return DiscreteObservable(dim=x.shape[1], effects=x)

    @property
    def n_outcomes(self) -> int:
        return self.effects.shape[0]


@dataclass(frozen=True)
class ChannelReport:
    trace_preserving: bool
    tp_residual: float


@dataclass(frozen=True)
class ObservableReport:
    """Observable invariant residuals, and the first invariant violated
    with the amount by which it fails (None for a valid observable)."""

    residuals: dict[str, float]
    violation: tuple[str, float] | None


def _tp_check(c: Channel, tol: Tolerance) -> tuple[float, float]:
    """||sum E^dag E - 1||, the distance from trace preservation, and the
    largest one that counts as zero: ``numlin.norm_cut`` over the k dim_out
    dim_in entries of the element stack, since each entry of the sum adds
    k dim_out products and the operator norm of the dim_in x dim_in
    residual can reach dim_in times their rounding.  The sum is one product
    of the elements' rows stacked, R^dag R with R = [E_1; ...; E_k]."""
    rows = c.elements.reshape(-1, c.dim_in)
    return float(op_norm(dagger(rows) @ rows - np.eye(c.dim_in))), norm_cut(tol, rows.size)


def validate_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> ChannelReport:
    """Check trace preservation, sum E^dag E = 1.  Complete positivity needs
    no check: the Choi matrix of any element list is a Gram matrix."""
    residual, cut = _tp_check(c, tol)
    return ChannelReport(trace_preserving=bool(residual <= cut), tp_residual=residual)


def require_trace_preserving(c: Channel, tol: Tolerance = DEFAULT_TOL) -> None:
    residual, cut = _tp_check(c, tol)
    if residual > cut:
        raise NotTracePreserving(residual, cut)


def _operands(a, d: int, what: str) -> np.ndarray:
    """``a`` as one (d, d) matrix or a stack (..., d, d) of them."""
    a = asmatrices(a)
    if a.shape[-2:] != (d, d):
        raise DimMismatch(f"{what} shape {a.shape} != (..., {d}, {d})")
    return a


def side_by_side(elements: np.ndarray) -> np.ndarray:
    """The element stack (k, m, n) as one matrix [E_1 ... E_k] (m, k n)."""
    k, m, n = elements.shape
    return elements.transpose(1, 0, 2).reshape(m, k * n)


def _sandwich(elements: np.ndarray, a: np.ndarray) -> np.ndarray:
    """sum_k E_k^dag A E_k over the stack E (k, m, n), for A one matrix
    (m, m) or a stack (..., m, m).

    With S = [E_1 ... E_k], A S holds every A E_k side by side, and read as
    (m k, n) rows it meets S, read the same way, in one product:
    S^dag (A S) sums over the rows of every element at once.  The operands
    go through in chunks whose (chunk, m, k n) A S has at most
    ``SANDWICH_ENTRIES`` entries (one operand's when that is more).
    """
    k, m, n = elements.shape
    side = side_by_side(elements)
    rows = dagger(side.reshape(m * k, n))
    flat = a.reshape(-1, m, m)
    out = np.empty((flat.shape[0], n, n), dtype=np.complex128)
    step = max(1, SANDWICH_ENTRIES // side.size)
    for start in range(0, flat.shape[0], step):
        chunk = flat[start : start + step]
        count = chunk.shape[0]
        products = (chunk.reshape(count * m, m) @ side).reshape(count, m * k, n)
        np.matmul(rows, products, out=out[start : start + count])
    return out.reshape(*a.shape[:-2], n, n)


def apply(c: Channel, rho) -> np.ndarray:
    """Schroedinger picture: rho -> sum_k E_k rho E_k^dag, for one state
    (dim_in, dim_in) or a stack (..., dim_in, dim_in)."""
    rho = _operands(rho, c.dim_in, "state")
    return _sandwich(dagger(c.elements), rho)


def apply_dual(c: Channel, a) -> np.ndarray:
    """Heisenberg picture: A -> sum_k E_k^dag A E_k, for one effect
    (dim_out, dim_out) or a stack (..., dim_out, dim_out)."""
    a = _operands(a, c.dim_out, "effect")
    return _sandwich(c.elements, a)


def compose(c2: Channel, c1: Channel) -> Channel:
    """Channel running c1 first, then c2; elements are all products."""
    if c1.dim_out != c2.dim_in:
        raise DimMismatch(f"compose: {c1.dim_out} != {c2.dim_in}")
    products = c2.elements[None] @ c1.elements[:, None]  # [i, j] = E2_j E1_i
    return Channel.from_elements(products.reshape(-1, c2.dim_out, c1.dim_in))


def tensor(c1: Channel, c2: Channel) -> Channel:
    """Independent parallel action on a tensor product."""
    pairs = np.kron(c1.elements[:, None], c2.elements[None])  # [i, j] = E1_i (x) E2_j
    return Channel.from_elements(pairs.reshape(-1, *pairs.shape[2:]))


def identity_channel(d: int) -> Channel:
    return Channel.from_elements([np.eye(d)])


def choi_of(c: Channel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|); PSD exactly when the map is CP."""
    w = c.elements.swapaxes(1, 2).reshape(c.n_elements, -1)  # w[k, (i, o)] = E_k[o, i]
    return w.T @ w.conj()


def kraus_from_choi(j, dim_in: int, dim_out: int, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Recover a channel from its Choi matrix via spectral decomposition.

    The number of elements equals the numerical rank of the Choi matrix;
    raises NotPSD when an eigenvalue falls below the cut of ``numlin.psd_eig``.
    """
    j = asmatrix(j)
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimMismatch(f"Choi shape {j.shape} != {(dim_in * dim_out,) * 2}")
    w, u, support = psd_eig(j, tol)
    if not support.any():
        raise NotPSD(0.0, tol.abs_eps)
    vecs = (np.sqrt(w[support]) * u[:, support]).T  # one sqrt(lambda) v per row
    return Channel.from_elements(vecs.reshape(-1, dim_in, dim_out).swapaxes(1, 2))


def complement(c: Channel) -> Channel:
    """Channel to the environment of the dilation of ``c``.

    The elements stack into V = sum_k E_k (x) |k>, an isometry
    H_in -> H_out (x) H_env when ``c`` is trace preserving, with one
    environment basis vector per element in element order.  The
    complement has elements F_j = (<j| (x) 1) V, one per output basis
    vector of ``c``; it is fixed only up to a unitary on the environment,
    and this choice is the deterministic one induced by element order.
    """
    return Channel.from_elements(c.elements.transpose(1, 0, 2))


def channels_equal(c1: Channel, c2: Channel, eps: float = 1e-8) -> bool:
    """Equality of action on a full operator basis (Choi matrices match)."""
    if (c1.dim_in, c1.dim_out) != (c2.dim_in, c2.dim_out):
        return False
    return op_norm(choi_of(c1) - choi_of(c2)) <= eps


def povm_probabilities(x: DiscreteObservable, rho) -> np.ndarray:
    """Outcome distribution tr(rho X_i)."""
    rho = asmatrix(rho)
    if rho.shape != (x.dim, x.dim):
        raise DimMismatch(f"state shape {rho.shape} != {(x.dim, x.dim)}")
    return np.einsum("ab,kba->k", rho, x.effects).real


def validate_observable(x: DiscreteObservable, tol: Tolerance = DEFAULT_TOL) -> ObservableReport:
    """Residuals for the observable invariants (Hermitian effects in [0,1], summing to 1),
    each cut at ``numlin.norm_cut``: an effect's Hermiticity and spectrum at
    n = d^2, its size, and completeness at n = m d^2, the stack's size."""
    herm = op_norm(x.effects - dagger(x.effects))
    w = np.linalg.eigvalsh((x.effects + dagger(x.effects)) / 2)
    spec_low = min(0.0, float(w[:, 0].min()))
    spec_high = max(0.0, float(w[:, -1].max()))
    completeness = op_norm(x.effects.sum(axis=0) - np.eye(x.dim))
    effect_cut = norm_cut(tol, x.dim * x.dim)
    # (invariant, amount by which it fails, largest amount that is zero), in check order
    excess = (
        ("effects Hermitian", herm, effect_cut),
        ("effect spectrum >= 0", -spec_low, effect_cut),
        ("effect spectrum <= 1", spec_high - 1, effect_cut),
        ("sum X_i = 1", completeness, norm_cut(tol, x.effects.size)),
    )
    violation = next(((name, float(v)) for name, v, cut in excess if v > cut), None)
    return ObservableReport(
        residuals={
            "hermiticity": float(herm),
            "min_eigenvalue": spec_low,
            "max_eigenvalue": spec_high,
            "completeness": float(completeness),
        },
        violation=violation,
    )
