"""Seeded inputs of the three workloads.

Every job's inputs follow from (workload, seed, job index, size) alone, so
the same seed gives the same inputs.  Pure Python: the parent process
generates inputs without importing numpy or the package.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("ansatz-mixture", "laser-ensemble", "cli-roundtrip")

# coupling of the A6 / A7 presets and of presets/coherent_drive.json
COUPLING = {"gamma_S": 1.0, "gamma_Tf": 0.5, "gamma_Ts": 0.5, "delta": 0.0}
# birth-death rates of presets/a7.json; with dt = 0.001 the step probability
# stays near 0.01, far below the hard 0.1 bound
BIRTH_DEATH = {"pump_rate": 1.0, "gain_per_carrier": 0.5, "nonlasing_rate": 0.5,
               "N0": 2, "n0": 1}

# Full-size jobs take about a second or less: on a shared host the fastest
# of many short jobs is the steadiest time (NOTES.md).
SIZES = {
    "full": {
        # A6 sizes (n_max 25, 8 amplitudes, dt 0.001, rare stores) on a
        # shorter horizon; radius <= 1.5 keeps n_max 25 within the adequacy
        # rule |a|^2 + 8|a| + 10
        "ansatz-mixture": {"n_max": 25, "amplitudes": 8, "dt": 0.001, "t1": 0.15,
                           "store_every": 50, "radius": (1.0, 1.5)},
        # A7 sizes (n_max 14, M 2000, dt 0.001, sparse stores)
        "laser-ensemble": {"n_max": 14, "trajectories": 2000, "dt": 0.001,
                           "t1": 0.1, "store_every": 50, "contract_seeds": 3},
        # presets/coherent_drive.json, but storing every step
        "cli-roundtrip": {"n_max": 12, "trajectories": 32, "dt": 0.01, "t1": 6.0,
                          "epsilon": 0.3},
    },
    "smoke": {
        "ansatz-mixture": {"n_max": 15, "amplitudes": 4, "dt": 0.001, "t1": 0.02,
                           "store_every": 10, "radius": (0.3, 0.5)},
        "laser-ensemble": {"n_max": 14, "trajectories": 50, "dt": 0.001,
                           "t1": 0.02, "store_every": 10, "contract_seeds": 2},
        "cli-roundtrip": {"n_max": 12, "trajectories": 4, "dt": 0.01, "t1": 0.2,
                          "epsilon": 0.3},
    },
}


def job_inputs(workload: str, seed: int, index: int, size: str) -> dict:
    """Parameters of job ``index`` of a run with ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    p = dict(SIZES[size][workload], coupling=dict(COUPLING))
    if workload == "ansatz-mixture":
        p["radius"] = rng.uniform(*p["radius"])
        p["phase"] = rng.uniform(0.0, 2.0 * math.pi / p["amplitudes"])
    elif workload == "laser-ensemble":
        p["source"] = dict(BIRTH_DEATH)
        p["seed_start"] = rng.randrange(10 ** 6)
    elif workload == "cli-roundtrip":
        eps = p.pop("epsilon") * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
        p["epsilon"] = [eps.real, eps.imag]
        p["seed_start"] = rng.randrange(10 ** 6)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return p


def cli_config(p: dict, output_dir: str) -> dict:
    """The experiment config that cli-roundtrip hands to ``cascadesim``.

    The source starts at the drive's steady amplitude 2 eps / gamma_S, so
    every conditional state stays a product (the A1 claim).
    """
    alpha = [2.0 * e / p["coupling"]["gamma_S"] for e in p["epsilon"]]
    return {
        "name": "perfbench-cli-roundtrip",
        "coupling": p["coupling"],
        "n_max": p["n_max"],
        "grid": {"t0": 0.0, "t1": p["t1"], "dt": p["dt"]},
        "source": {"kind": "coherent_drive", "epsilon": p["epsilon"]},
        "initial": {"kind": "coherent", "alpha": alpha, "qubit": "ground"},
        "store_every": 1,
        "seeds": {"start": p["seed_start"], "count": p["trajectories"]},
        "output_dir": output_dir,
    }
