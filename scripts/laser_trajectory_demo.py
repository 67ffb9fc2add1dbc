#!/usr/bin/env python3
"""Birth-death laser feeding a qubit: trajectory statistics at a glance.

Runs an ensemble of jump trajectories for the carrier-counter laser source,
then prints per-channel event counts, the conditional-state entanglement
range, the sector-confinement residual of a dense replay of the records, and
the ensemble photon number over time.
"""

import argparse
from collections import Counter

import numpy as np

from cascadesim import (
    BirthDeathLaser,
    CouplingConfig,
    FockSpec,
    TimeGrid,
    fock_state,
    number_operator,
    product_state,
    qubit_state,
    run_ensemble,
)
from cascadesim.acceptance import sector_residuals
from cascadesim.evolve import check_seeds, expectation
from cascadesim.hilbert import EXCITED, GROUND, SOURCE, TARGET, embed, partial_trace


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--trajectories", type=int, default=200)
    ap.add_argument("--pump-rate", type=float, default=1.0)
    ap.add_argument("--gain", type=float, default=0.5)
    ap.add_argument("--nonlasing-rate", type=float, default=0.5)
    ap.add_argument("--carriers", type=int, default=2)
    ap.add_argument("--photons", type=int, default=1)
    ap.add_argument("--n-max", type=int, default=14)
    ap.add_argument("--t1", type=float, default=4.0)
    ap.add_argument("--dt", type=float, default=0.0005)
    ap.add_argument("--seed-start", type=int, default=0)
    args = ap.parse_args()

    cfg = CouplingConfig(gamma_S=1.0, gamma_Tf=0.5, gamma_Ts=0.5)
    # every argument is checked before any trajectory runs
    try:
        model = BirthDeathLaser(args.pump_rate, args.gain, args.nonlasing_rate,
                                N0=args.carriers, n0=args.photons)
        spec = FockSpec(args.n_max)
        psi0 = product_state(fock_state(args.photons, spec), qubit_state(GROUND))
        grid = TimeGrid(0.0, args.t1, args.dt)
        seeds = check_seeds(range(args.seed_start, args.seed_start + args.trajectories))
    except ValueError as exc:
        ap.error(str(exc))
    store = max(1, grid.n_steps // 20)
    while grid.n_steps % store:
        store -= 1

    ens = run_ensemble(psi0, cfg, model, grid, seeds, store_every=store)

    counts = Counter()
    for rec in ens.records:
        for _, label in rec.events:
            counts[label] += 1
    print(f"{args.trajectories} trajectories, {grid.n_steps} steps each")
    print("mean events per trajectory:")
    for label in ("pump", "gain", "nonlasing", "forward_f", "side_s"):
        print(f"  {label:10s} {counts[label] / args.trajectories:8.3f}")

    ents = np.array(ens.max_schmidt_entropies)
    # the engine keeps only each trajectory's sector, so the records are
    # replayed densely to see whether any amplitude leaves it
    spans = sector_residuals(psi0, cfg, model, grid, ens.records)
    print(f"peak conditional entanglement entropy: "
          f"min {ents.min():.3f} / median {np.median(ents):.3f} / max {ents.max():.3f}")
    print(f"worst out-of-sector amplitude (dense replay of the records): {spans.max():.3e}")

    n_op = embed(number_operator(spec), SOURCE, spec)
    print(f"{'time':>7} {'<n> source':>11} {'P(excited)':>11}")
    for t, rho in zip(ens.times, ens.rho_avg):
        pe = partial_trace(rho, TARGET).mat[EXCITED, EXCITED].real
        print(f"{t:7.2f} {expectation(rho.mat, n_op).real:11.4f} {pe:11.4f}")


if __name__ == "__main__":
    main()
