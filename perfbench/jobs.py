"""One benchmark job: set-up, solve and correctness gates of one workload.

Run as ``python3 perfbench/jobs.py SPEC_FILE LAUNCHED`` by ``run.py``, in a
fresh process per job so that set-up time and peak memory are the job's
own.  ``LAUNCHED`` is the parent's ``time.monotonic()`` just before the
process was started.  Prints one JSON record as the last line of stdout.

Each job is composed from calls into the package's public functions; the
benchmark never edits ``src/``.  Set-up ends at the first integration call
(``evolve_master`` or ``run_ensemble``), and ``solve_s`` runs from there to
the job's last library call.  Gates run after the clock stops, and a job
that fails a gate contributes no timing.
"""

from __future__ import annotations

import csv
import ctypes
import json
import math
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cascadesim as cs  # noqa: E402
from cascadesim import cli  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

GROUND_RHO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
# the spans whose summed time is cli.write_s
WRITE_SPANS = ("cli.write_csv", "cli.write_json", "cli.state_dump", "cli._observable_rows")


def _coupling(p):
    c = p["coupling"]
    return cs.CouplingConfig(c["gamma_S"], c["gamma_Tf"], c["gamma_Ts"], c["delta"])


# --- solves: construction, then the first integration call ---------------

def solve_ansatz_mixture(p, workdir):
    """A6: full RK4 master equation against the factorized mixture."""
    cfg = _coupling(p)
    spec = cs.FockSpec(p["n_max"])
    grid = cs.TimeGrid(0.0, p["t1"], p["dt"])
    K = p["amplitudes"]
    amps = tuple((p["radius"] * np.exp(1j * (p["phase"] + 2.0 * np.pi * k / K)), 1.0 / K)
                 for k in range(K))
    model = cs.FreeDecayMixture(amps)
    rho0 = sum(w * np.kron(cs.coherent_state(a, spec).projector(), GROUND_RHO)
               for a, w in amps)
    L = cs.build_L_T(cfg, spec) + cs.build_L_ST(cfg, spec)
    # conditionals on the half-step grid, so central differences reuse them
    h = grid.dt / 2.0
    paths = cs.classical_paths(model, cfg, cs.TimeGrid(0.0, p["t1"], h).times())

    store = p["store_every"]
    full = cs.evolve_master(cs.DensityOperator(rho0), L, grid, store_every=store)
    conds = [cs.solve_separated_target(path, cfg, GROUND_RHO) for path in paths]
    worst_td = worst_res = 0.0
    for i, rho_full in enumerate(full):
        j = 2 * store * i
        rho_a = cs.build_ansatz_state(paths, conds, j, spec)
        worst_td = max(worst_td, cs.trace_distance(rho_a, rho_full))
        if 0 < i < len(full) - 1:
            ddt = (cs.build_ansatz_state(paths, conds, j + 1, spec).mat
                   - cs.build_ansatz_state(paths, conds, j - 1, spec).mat) / (2.0 * h)
            worst_res = max(worst_res, float(np.linalg.norm(ddt - cs.apply(L, rho_a.mat))))
    return {"trace_distance": worst_td, "residual": worst_res}


def solve_laser_ensemble(p, workdir):
    """A7: birth-death trajectories, then the support pattern of every average."""
    cfg = _coupling(p)
    spec = cs.FockSpec(p["n_max"])
    model = cs.BirthDeathLaser(**p["source"])
    psi0 = cs.product_state(cs.fock_state(model.n0, spec), cs.qubit_state(cs.GROUND))
    grid = cs.TimeGrid(0.0, p["t1"], p["dt"])
    seeds = range(p["seed_start"], p["seed_start"] + p["trajectories"])

    ens = cs.run_ensemble(psi0, cfg, model, grid, seeds,
                          store_every=p["store_every"], diagnostics=False)
    worst_amp = 0.0
    for rho in ens.rho_avg:
        _, offending = cs.support_pattern_check(rho, tol=0.0)
        worst_amp = max([worst_amp] + [v for _, _, v in offending])
    return {"ensemble": ens, "out_of_pattern": worst_amp,
            "rerun": (psi0, cfg, model, grid)}


def solve_cli_roundtrip(p, workdir):
    """The user's CLI path: run-master, then run-trajectories, in-process."""
    codes = {}
    for command in ("run-master", "run-trajectories"):
        config = os.path.join(workdir, f"{command}.json")
        with open(config, "w") as f:
            # relative to the job's working directory, so that the manifest,
            # and with it cli.bytes_written, does not depend on the checkout path
            json.dump(inputs.cli_config(p, command), f)
        codes[command] = cli.main([command, config])
    return {"codes": codes}


SOLVES = {
    "ansatz-mixture": solve_ansatz_mixture,
    "laser-ensemble": solve_laser_ensemble,
    "cli-roundtrip": solve_cli_roundtrip,
}


# --- gates: (label, measured, tolerance); a gate passes when measured <= tolerance

def gates_ansatz_mixture(p, out, workdir):
    return [("max trace distance to full solution", out["trace_distance"], 1e-6),
            ("max central-difference generator residual", out["residual"], 1e-6)]


def gates_laser_ensemble(p, out, workdir):
    ens = out["ensemble"]
    M = p["trajectories"]
    trace_dev = max(abs(np.trace(rho.mat) - 1.0) for rho in ens.rho_avg)
    # per-seed contract: a few seeds rerun on their own give the same records
    psi0, cfg, model, grid = out["rerun"]
    picks = sorted({ens.records[int(i * (M - 1) / max(1, p["contract_seeds"] - 1))].seed
                    for i in range(p["contract_seeds"])})
    alone = cs.run_ensemble(psi0, cfg, model, grid, picks,
                            store_every=p["store_every"], diagnostics=False)
    full = {r.seed: r.events for r in ens.records}
    mismatched = sum(1 for r in alone.records if r.events != full[r.seed])
    return [("max out-of-pattern ensemble element", out["out_of_pattern"], 5.0 / math.sqrt(M)),
            ("max |trace - 1| of stored averages", float(trace_dev), 1e-10),
            ("seeds whose records differ when run alone", mismatched, 0)]


def _read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def gates_cli_roundtrip(p, out, workdir):
    rows_expected = round(p["t1"] / p["dt"]) + 1
    bad_rows = 0
    for command in ("run-master", "run-trajectories"):
        path = os.path.join(workdir, command, "observables.csv")
        rows = _read_csv(path) if os.path.exists(path) else []
        bad_rows += abs(len(rows) - rows_expected)
        bad_rows += sum(1 for r in rows if not all(math.isfinite(float(v)) for v in r.values()))
    traj_dir = os.path.join(workdir, "run-trajectories")
    traj_csv = os.path.join(traj_dir, "trajectories.csv")
    traj = _read_csv(traj_csv) if os.path.exists(traj_csv) else []
    entropy = max((float(r["max_schmidt_entropy"]) for r in traj), default=math.inf)
    seeds = {f"record_{s}.csv" for s in range(p["seed_start"], p["seed_start"] + p["trajectories"])}
    rec_dir = os.path.join(traj_dir, "records")
    found = set(os.listdir(rec_dir)) if os.path.isdir(rec_dir) else set()
    return [("run-master exit code", out["codes"]["run-master"], 0),
            ("run-trajectories exit code", out["codes"]["run-trajectories"], 0),
            ("max Schmidt entropy in trajectories.csv", entropy, 1e-6),
            ("missing or non-finite observables rows", bad_rows, 0),
            ("record files not matching the seeds", len(seeds ^ found), 0)]


GATES = {
    "ansatz-mixture": gates_ansatz_mixture,
    "laser-ensemble": gates_laser_ensemble,
    "cli-roundtrip": gates_cli_roundtrip,
}


# --- counts and machine description ---------------------------------------

def _events_per_trajectory(workload, out, workdir):
    """Record events (jumps and carrier events) per trajectory; exact."""
    if workload == "laser-ensemble":
        records = out["ensemble"].records
        return sum(len(r.events) for r in records) / len(records)
    if workload == "cli-roundtrip":
        rows = _read_csv(os.path.join(workdir, "run-trajectories", "trajectories.csv"))
        return sum(int(r["events"]) for r in rows) / len(rows)
    return 0.0


def _bytes_written(workload, workdir):
    if workload != "cli-roundtrip":
        return 0
    return sum(os.path.getsize(os.path.join(d, f))
               for command in ("run-master", "run-trajectories")
               for d, _, files in os.walk(os.path.join(workdir, command)) for f in files)


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        with open("/proc/self/maps") as f:
            libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": blas.get("name"), "blas_version": blas.get("version"),
            "blas_threads": _blas_threads()}


# --- one job ----------------------------------------------------------------

def finish(spec: dict, out: dict, timings: dict) -> dict:
    """Gate a solved job; a job failing any gate carries no timings."""
    w, p = spec["workload"], spec["params"]
    gates = [{"label": label, "measured": float(m), "tolerance": tol,
              "passed": bool(m <= tol)}
             for label, m, tol in GATES[w](p, out, spec["workdir"])]
    ok = all(g["passed"] for g in gates)
    return {"ok": ok, "gates": gates, **(timings if ok else {})}


def run(spec: dict, launched: float) -> dict:
    """Set up, solve and gate one job; with spec["trace"] also record spans."""
    w, workdir = spec["workload"], spec["workdir"]
    os.makedirs(workdir, exist_ok=True)
    os.chdir(workdir)
    tracer = spans.Tracer(record=spec["trace"])
    with tracer.job():
        out = SOLVES[w](spec["params"], workdir)
    solved = spans.clock()
    # time.monotonic and perf_counter share CLOCK_MONOTONIC on Linux; the
    # offset below makes the launch time comparable in either case
    launched_pc = launched + (spans.clock() - time.monotonic())
    timings = {"setup_s": tracer.first_integration - launched_pc,
               "solve_s": solved - tracer.first_integration,
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    record = finish(spec, out, timings)
    if spec["trace"]:
        record["trace"] = {
            "wall_s": tracer.wall_s,
            "self_s": tracer.self_times(),
            "apply_calls": tracer.count("liouvillian.apply"),
            "build_calls": tracer.count("ansatz.build_ansatz_state"),
            "write_s": tracer.total(WRITE_SPANS),
            "bytes_written": _bytes_written(w, workdir),
            "jumps_per_traj": _events_per_trajectory(w, out, workdir),
            "spans": tracer.export(spec["job"]),
        }
    record["machine"] = machine()
    return record


def main(argv) -> int:
    spec_file, launched = argv[0], float(argv[1])
    with open(spec_file) as f:
        spec = json.load(f)
    try:
        record = run(spec, launched)
    except Exception:  # a crashed job is a failed job, reported to the parent
        record = {"ok": False, "error": traceback.format_exc(limit=4).strip().splitlines()[-1]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
