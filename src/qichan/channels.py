"""Quantum channels and observables in element (Kraus) form.

A channel is stored as one read-only array of its element matrices,
shape (n, dim_out, dim_in), and an observable as one array of its effects,
shape (n, dim, dim); every computation over the elements is an array
expression on that stack.  No canonical form is imposed, so two channels
are compared by their action on a full operator basis (equivalently, by
their Choi matrices), never element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPSD, NotTracePreserving
from .numlin import DEFAULT_TOL, Tolerance, asmatrices, asmatrix, dagger, op_norm, psd_eig


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


def _frozen_stack(mats, what: str) -> np.ndarray:
    """Finite matrices of one shape as one read-only array (n, rows, cols)."""
    mats = [asmatrix(m) for m in mats]
    if not mats:
        raise DimMismatch(f"at least one {what} is needed")
    for m in mats:
        if m.shape != mats[0].shape:
            raise DimMismatch(f"{what} shape {m.shape} != {mats[0].shape}")
    return _freeze(np.stack(mats))


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
class Isometry:
    """V: H_in -> H_out (x) H_env with V^dag V = 1."""

    v: np.ndarray
    d_out: int
    d_env: int

    @property
    def d_in(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class ChannelReport:
    trace_preserving: bool
    completely_positive: bool
    tp_residual: float
    cp_min_eigenvalue: float


@dataclass(frozen=True)
class ObservableReport:
    """Observable invariant residuals, and the first invariant violated
    with the amount by which it fails (None for a valid observable)."""

    residuals: dict[str, float]
    violation: tuple[str, float] | None


def _tp_residual(c: Channel) -> float:
    """||sum E^dag E - 1||, the distance from trace preservation."""
    k = c.elements
    return op_norm((dagger(k) @ k).sum(axis=0) - np.eye(c.dim_in))


def validate_channel(c: Channel, tol: Tolerance = DEFAULT_TOL) -> ChannelReport:
    """Check trace preservation (sum E^dag E = 1) and complete positivity (PSD Choi)."""
    tp_res = _tp_residual(c)
    w = np.linalg.eigvalsh(choi_of(c))
    min_eig = float(w[0]) if w.size else 0.0
    return ChannelReport(
        trace_preserving=bool(tp_res <= tol.abs_eps),
        completely_positive=bool(min_eig >= -tol.abs_eps),
        tp_residual=float(tp_res),
        cp_min_eigenvalue=min_eig,
    )


def require_trace_preserving(c: Channel, tol: Tolerance = DEFAULT_TOL) -> None:
    res = _tp_residual(c)
    if res > tol.abs_eps:
        raise NotTracePreserving(float(res), tol.abs_eps)


def _operands(a, d: int, what: str) -> np.ndarray:
    """``a`` as one (d, d) matrix or a stack (..., d, d) of them."""
    a = asmatrices(a)
    if a.shape[-2:] != (d, d):
        raise DimMismatch(f"{what} shape {a.shape} != (..., {d}, {d})")
    return a


def _sandwich(left: np.ndarray, a: np.ndarray, right: np.ndarray) -> np.ndarray:
    """sum_k L_k A R_k over the element stacks, for A one matrix or a stack;
    one term at a time, so a stack of S matrices never holds n S products."""
    out = left[0] @ a @ right[0]
    for lk, rk in zip(left[1:], right[1:]):
        out += lk @ a @ rk
    return out


def apply(c: Channel, rho) -> np.ndarray:
    """Schroedinger picture: rho -> sum_k E_k rho E_k^dag, for one state
    (dim_in, dim_in) or a stack (..., dim_in, dim_in)."""
    rho = _operands(rho, c.dim_in, "state")
    return _sandwich(c.elements, rho, dagger(c.elements))


def apply_dual(c: Channel, a) -> np.ndarray:
    """Heisenberg picture: A -> sum_k E_k^dag A E_k, for one effect
    (dim_out, dim_out) or a stack (..., dim_out, dim_out)."""
    a = _operands(a, c.dim_out, "effect")
    return _sandwich(dagger(c.elements), a, c.elements)


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


def unitary_channel(u) -> Channel:
    return Channel.from_elements([asmatrix(u)])


def choi_of(c: Channel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|); PSD exactly when the map is CP."""
    w = c.elements.swapaxes(1, 2).reshape(c.n_elements, -1)  # w[k, (i, o)] = E_k[o, i]
    return w.T @ w.conj()


def kraus_from_choi(j, dim_in: int, dim_out: int, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Recover a channel from its Choi matrix via spectral decomposition.

    The number of elements equals the numerical rank of the Choi matrix;
    raises NotPSD when an eigenvalue falls below ``-abs_eps``.
    """
    j = asmatrix(j)
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimMismatch(f"Choi shape {j.shape} != {(dim_in * dim_out,) * 2}")
    w, u, support = psd_eig(j, tol)
    if not support.any():
        raise NotPSD(0.0, tol.abs_eps)
    vecs = (np.sqrt(w[support]) * u[:, support]).T  # one sqrt(lambda) v per row
    return Channel.from_elements(vecs.reshape(-1, dim_in, dim_out).swapaxes(1, 2))


def dilate(c: Channel, tol: Tolerance = DEFAULT_TOL) -> Isometry:
    """Stack the elements into an isometry V with E_k = (1 (x) <k|) V.

    The environment dimension equals the number of elements and its basis
    order follows the element order.
    """
    n = c.n_elements
    v = c.elements.transpose(1, 0, 2).reshape(c.dim_out * n, c.dim_in)
    require_trace_preserving(c, tol)
    return Isometry(v=_freeze(v), d_out=c.dim_out, d_env=n)


def complement(c: Channel) -> Channel:
    """Channel to the environment of the dilation of ``c``.

    With V from :func:`dilate`, the complement has elements
    F_j = (<j| (x) 1) V, one per output basis vector of ``c``; it is
    fixed only up to a unitary on the environment, and this choice is
    the deterministic one induced by element order.
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
    """Residuals for the observable invariants (Hermitian effects in [0,1], summing to 1)."""
    herm = op_norm(x.effects - dagger(x.effects))
    w = np.linalg.eigvalsh((x.effects + dagger(x.effects)) / 2)
    spec_low = min(0.0, float(w[:, 0].min()))
    spec_high = max(0.0, float(w[:, -1].max()))
    completeness = op_norm(x.effects.sum(axis=0) - np.eye(x.dim))
    # (invariant, amount by which it fails), in the order they are checked
    excess = (
        ("effects Hermitian", herm),
        ("effect spectrum >= 0", -spec_low),
        ("effect spectrum <= 1", spec_high - 1),
        ("sum X_i = 1", completeness),
    )
    violation = next(((name, float(v)) for name, v in excess if v > tol.abs_eps), None)
    return ObservableReport(
        residuals={
            "hermiticity": float(herm),
            "min_eigenvalue": spec_low,
            "max_eigenvalue": spec_high,
            "completeness": float(completeness),
        },
        violation=violation,
    )
