"""Quantum channels and observables in element (Kraus) form.

A channel is stored as its list of element matrices; no canonical form is
imposed, so two channels are compared by their action on a full operator
basis (equivalently, by their Choi matrices), never element-wise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimMismatch, NotPSD, NotTracePreserving
from .numlin import DEFAULT_TOL, Tolerance, asmatrix, dagger, op_norm, psd_eig


def _freeze(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.complex128)
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Channel:
    """Completely positive map given by elements E_k, rho -> sum E_k rho E_k^dag."""

    dim_in: int
    dim_out: int
    elements: tuple[np.ndarray, ...]

    @staticmethod
    def from_elements(elements) -> "Channel":
        mats = tuple(_freeze(asmatrix(e)) for e in elements)
        if not mats:
            raise DimMismatch("a channel needs at least one element")
        d_out, d_in = mats[0].shape
        for e in mats:
            if e.shape != (d_out, d_in):
                raise DimMismatch(f"element shape {e.shape} != {(d_out, d_in)}")
        return Channel(dim_in=d_in, dim_out=d_out, elements=mats)

    def stacked(self) -> np.ndarray:
        """Elements as one (n, dim_out, dim_in) array."""
        return np.stack(self.elements)

    @property
    def n_elements(self) -> int:
        return len(self.elements)


@dataclass(frozen=True)
class DiscreteObservable:
    """Finite-outcome observable: effects X_i summing to the identity."""

    dim: int
    effects: tuple[np.ndarray, ...]

    @staticmethod
    def from_effects(effects) -> "DiscreteObservable":
        mats = tuple(_freeze(asmatrix(x)) for x in effects)
        if not mats:
            raise DimMismatch("an observable needs at least one effect")
        d = mats[0].shape[0]
        for x in mats:
            if x.shape != (d, d):
                raise DimMismatch(f"effect shape {x.shape} != {(d, d)}")
        return DiscreteObservable(dim=d, effects=mats)

    @property
    def n_outcomes(self) -> int:
        return len(self.effects)


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
    acc = np.zeros((c.dim_in, c.dim_in), dtype=np.complex128)
    for e in c.elements:
        acc += dagger(e) @ e
    return op_norm(acc - np.eye(c.dim_in))


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


def apply(c: Channel, rho) -> np.ndarray:
    """Schroedinger picture: rho -> sum_k E_k rho E_k^dag."""
    rho = asmatrix(rho)
    if rho.shape != (c.dim_in, c.dim_in):
        raise DimMismatch(f"state shape {rho.shape} != {(c.dim_in, c.dim_in)}")
    k = c.stacked()
    return (k @ rho @ k.conj().transpose(0, 2, 1)).sum(axis=0)


def apply_dual(c: Channel, a) -> np.ndarray:
    """Heisenberg picture: A -> sum_k E_k^dag A E_k."""
    a = asmatrix(a)
    if a.shape != (c.dim_out, c.dim_out):
        raise DimMismatch(f"effect shape {a.shape} != {(c.dim_out, c.dim_out)}")
    k = c.stacked()
    return (k.conj().transpose(0, 2, 1) @ a @ k).sum(axis=0)


def compose(c2: Channel, c1: Channel) -> Channel:
    """Channel running c1 first, then c2; elements are all products."""
    if c1.dim_out != c2.dim_in:
        raise DimMismatch(f"compose: {c1.dim_out} != {c2.dim_in}")
    elements = [e2 @ e1 for e1 in c1.elements for e2 in c2.elements]
    return Channel.from_elements(elements)


def tensor(c1: Channel, c2: Channel) -> Channel:
    """Independent parallel action on a tensor product."""
    elements = [np.kron(e1, e2) for e1 in c1.elements for e2 in c2.elements]
    return Channel.from_elements(elements)


def identity_channel(d: int) -> Channel:
    return Channel.from_elements([np.eye(d)])


def unitary_channel(u) -> Channel:
    return Channel.from_elements([asmatrix(u)])


def choi_of(c: Channel) -> np.ndarray:
    """Choi matrix sum_ij |i><j| (x) E(|i><j|); PSD exactly when the map is CP."""
    d_in, d_out = c.dim_in, c.dim_out
    j = np.zeros((d_in * d_out, d_in * d_out), dtype=np.complex128)
    for e in c.elements:
        w = e.T.reshape(-1)  # w[(i, o)] = E[o, i]
        j += np.outer(w, w.conj())
    return j


def kraus_from_choi(j, dim_in: int, dim_out: int, tol: Tolerance = DEFAULT_TOL) -> Channel:
    """Recover a channel from its Choi matrix via spectral decomposition.

    The number of elements equals the numerical rank of the Choi matrix;
    raises NotPSD when an eigenvalue falls below ``-abs_eps``.
    """
    j = asmatrix(j)
    if j.shape != (dim_in * dim_out, dim_in * dim_out):
        raise DimMismatch(f"Choi shape {j.shape} != {(dim_in * dim_out,) * 2}")
    w, u, support = psd_eig(j, tol)
    elements = []
    for lam, vec in zip(w[support], u[:, support].T):
        elements.append(np.sqrt(lam) * vec.reshape(dim_in, dim_out).T)
    if not elements:
        raise NotPSD(0.0, tol.abs_eps)
    return Channel.from_elements(elements)


def dilate(c: Channel, tol: Tolerance = DEFAULT_TOL) -> Isometry:
    """Stack the elements into an isometry V with E_k = (1 (x) <k|) V.

    The environment dimension equals the number of elements and its basis
    order follows the element order.
    """
    k = c.stacked()  # (n, d_out, d_in)
    n = k.shape[0]
    v = k.transpose(1, 0, 2).reshape(c.dim_out * n, c.dim_in)
    require_trace_preserving(c, tol)
    return Isometry(v=_freeze(v), d_out=c.dim_out, d_env=n)


def complement(c: Channel) -> Channel:
    """Channel to the environment of the dilation of ``c``.

    With V from :func:`dilate`, the complement has elements
    F_j = (<j| (x) 1) V, one per output basis vector of ``c``; it is
    fixed only up to a unitary on the environment, and this choice is
    the deterministic one induced by element order.
    """
    k = c.stacked()
    elements = [np.ascontiguousarray(k[:, j, :]) for j in range(c.dim_out)]
    return Channel.from_elements(elements)


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
    return np.array([float(np.trace(rho @ xi).real) for xi in x.effects])


def validate_observable(x: DiscreteObservable, tol: Tolerance = DEFAULT_TOL) -> ObservableReport:
    """Residuals for the observable invariants (Hermitian effects in [0,1], summing to 1)."""
    herm = max(op_norm(e - dagger(e)) for e in x.effects)
    spec_low = 0.0
    spec_high = 0.0
    for e in x.effects:
        w = np.linalg.eigvalsh((e + dagger(e)) / 2)
        spec_low = min(spec_low, float(w[0]))
        spec_high = max(spec_high, float(w[-1]))
    completeness = op_norm(sum(x.effects) - np.eye(x.dim))
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
