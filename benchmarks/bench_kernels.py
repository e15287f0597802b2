"""Time the two hot kernels on workloads shaped like the package's scans.

Feasibility: the two SIC containment grids of acceptance criterion 9
(alpha = 1/3, all feasible, and alpha = 0.5, mixed), each solved as one
batch; for each batch the table shows the iterations the batch ran and how
many problems stopped as feasible, certified infeasible, stalled or at the
iteration cap.  Capacity: alternating maximization on random 8x8 channels.

Usage:  python benchmarks/bench_kernels.py [--channels N]
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from qichan import kernels
from qichan.catalog import PAULI_X, PAULI_Y, PAULI_Z, shrinking_channel, sic_tetrahedron
from qichan.decoherence import _coordinates
from qichan.rand import generator, random_stochastic

HS_TOL = 0.5e-7


def _containment_grid(alpha: float) -> np.ndarray:
    """Targets {E, 1 - E} for the criterion-9 grid of output effects."""
    eye = np.eye(2, dtype=complex)
    k = np.array(shrinking_channel(alpha).elements)
    targets = []
    for theta in np.linspace(0, np.pi, 10):
        for phi in np.linspace(0, 2 * np.pi, 10, endpoint=False):
            n = (np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta))
            n_sigma = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
            for s in np.linspace(0.0, 2.0, 13):
                for f in np.linspace(0.0, 1.0, 8):
                    b = (s * eye + f * min(s, 2 - s) * n_sigma) / 2
                    eff = np.einsum("kji,jl,klm->im", k.conj(), b, k)
                    targets.append(_coordinates([eff, eye - eff]))
    return np.array(targets)


def _ba_workload(n_channels: int):
    rng = generator(11)
    return [random_stochastic(rng, 8, 8).T.copy() for _ in range(n_channels)]


def _time(fn, *args, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--channels", type=int, default=200,
                        help="capacity solves per run (default 200)")
    args = parser.parse_args()

    g = _coordinates(sic_tetrahedron().effects).T
    print("feasibility (numpy), one batch per criterion-9 grid")
    print(f"{'alpha':>6s}  {'problems':>8s}  {'time':>8s}  {'iters':>6s}  "
          f"{'feasible':>8s}  {'certified':>9s}  {'stalled':>7s}  {'capped':>6s}")
    for alpha in (1.0 / 3.0, 0.5):
        x = _containment_grid(alpha)
        t_feas = _time(kernels.solve_product_simplex_lsq, g, x, 20000, HS_TOL)
        _, iterations, stop = kernels._solve_simplex_lsq(g, x, 20000, HS_TOL)
        counts = np.bincount(stop, minlength=4)
        print(f"{alpha:6.3f}  {x.shape[0]:8d}  {t_feas:7.3f}s  {iterations.max():6d}  "
              f"{counts[kernels.STOP_FEASIBLE]:8d}  {counts[kernels.STOP_CERTIFIED]:9d}  "
              f"{counts[kernels.STOP_STALLED]:7d}  {counts[kernels.STOP_CAP]:6d}")

    pyx_list = _ba_workload(args.channels)
    t_ba = _time(lambda: [kernels.blahut_arimoto(p) for p in pyx_list])
    print(f"\ncapacity ({kernels.BACKEND}), {args.channels}x 8x8  {t_ba:8.3f}s")


if __name__ == "__main__":
    main()
