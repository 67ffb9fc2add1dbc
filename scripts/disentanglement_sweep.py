#!/usr/bin/env python3
"""Sweep ring radius: full cascaded solution vs the factorized mixture.

For each radius the source starts in an equal-weight ring of coherent
amplitudes feeding the qubit.  The full master-equation solution is compared
against the mixture of coherent-projector (x) conditional-target products
built from the deterministic decay paths.  Prints the worst trace distance
and the joint-state negativity along the way.
"""

import argparse

import numpy as np

from cascadesim import (
    CouplingConfig,
    DensityOperator,
    FockSpec,
    FreeDecayMixture,
    TimeGrid,
    adequate_n_max,
    build_L_ST,
    build_L_T,
    build_ansatz_state,
    classical_paths,
    coherent_state,
    evolve_master,
    negativity,
    qubit_state,
    solve_separated_target,
    trace_distance,
)
from cascadesim.hilbert import GROUND


def run_radius(radius, cfg, n_amps, t1, dt, store):
    spec = FockSpec(adequate_n_max(radius))
    amps = tuple((radius * np.exp(2j * np.pi * k / n_amps), 1.0 / n_amps)
                 for k in range(n_amps))
    model = FreeDecayMixture(amps)
    grid = TimeGrid(0.0, t1, dt)

    g = np.outer(qubit_state(GROUND).vec, qubit_state(GROUND).vec)
    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    for a0, w in amps:
        rho0 += w * np.kron(coherent_state(a0, spec, warn=False).projector(), g)
    L = build_L_T(cfg, spec) + build_L_ST(cfg, spec)
    full = evolve_master(DensityOperator(rho0), L, grid, store_every=store)

    rhoT0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
    paths = classical_paths(model, cfg, grid.times())
    conds = [solve_separated_target(p, cfg, rhoT0) for p in paths]
    ansatz = [build_ansatz_state(paths, conds, i * store, spec)
              for i in range(len(full))]
    worst_td = max(trace_distance(a, f) for a, f in zip(ansatz, full, strict=True))
    worst_neg = max(negativity(rho.mat) for rho in full)
    return spec.n_max, worst_td, worst_neg


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--radii", type=float, nargs="+", default=[0.5, 1.0, 1.5])
    ap.add_argument("--amplitudes", type=int, default=8)
    ap.add_argument("--t1", type=float, default=4.0)
    ap.add_argument("--dt", type=float, default=0.002)
    ap.add_argument("--store-every", type=int, default=200)
    args = ap.parse_args()
    if args.amplitudes < 1:
        ap.error(f"--amplitudes must be >= 1, got {args.amplitudes}")
    try:
        TimeGrid(0.0, args.t1, args.dt).stored_times(args.store_every)
    except ValueError as exc:
        ap.error(f"--t1, --dt and --store-every: {exc}")

    cfg = CouplingConfig(gamma_S=1.0, gamma_Tf=0.5, gamma_Ts=0.5)
    print(f"{'radius':>7} {'n_max':>6} {'max trace dist':>15} {'max negativity':>15}")
    for r in args.radii:
        n_max, td, neg = run_radius(r, cfg, args.amplitudes, args.t1, args.dt,
                                    args.store_every)
        print(f"{r:7.2f} {n_max:6d} {td:15.3e} {neg:15.3e}")


if __name__ == "__main__":
    main()
