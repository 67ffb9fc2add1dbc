"""Micro-cases: public calls of one layer, timed at fixed sizes.

Run as ``python3 perfbench/micro.py SPEC_FILE LAUNCHED`` by ``run.py`` in
traced runs (the spec names the size and a work directory); prints one JSON
record with the per-layer metrics as the last stdout line.
The sizes are those of the workloads (and n_max 10/25/50 for ``apply``),
so a number means the same thing whichever workload's traced run made it.

Per trajectory-step costs are differences of two ensemble runs that differ
only in step count, so per-run set-up (operators, one RNG per seed) drops
out; diagnostics and store costs are differences against the same runs with
diagnostics off and a single store.
"""

from __future__ import annotations

import json
import os
import sys
import traceback
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import cascadesim as cs  # noqa: E402
from cascadesim import cli  # noqa: E402

import inputs  # noqa: E402
import spans  # noqa: E402

clock = spans.clock
# each case is repeated and the fastest repeat kept, as for solve_s
REPEATS = {"full": 5, "smoke": 1}
# calls per repeat at full size; smoke runs a twentieth of them
CALLS = {"check": 400, "coherent": 2000, "apply.n10": 400, "apply.n25": 150,
         "apply.n50": 40, "build": 20, "paths": 50, "master_steps": 100,
         "build_state": 50, "trace_distance": 200, "support": 500, "load_config": 100}
# steps of the shorter of the two runs whose difference gives a step cost
TRAJ_STEPS = {1: 200, 100: 40, 2000: 10}


def _random_density(dim, rng):
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = m @ m.conj().T
    return cs.DensityOperator(rho / np.trace(rho))


def _fastest(fn, repeats):
    return min(fn() for _ in range(repeats))


def _per_call(fn, calls, repeats):
    """Seconds per call, fastest of the repeats."""
    def block():
        t0 = clock()
        for _ in range(calls):
            fn()
        return (clock() - t0) / calls
    return _fastest(block, repeats)


def _coupling():
    return cs.CouplingConfig(**inputs.COUPLING)


def _trajectory_cases(size, n, repeats):
    """traj_step_us, diag_overhead_us and store_us from ensemble wall times."""
    cfg = _coupling()
    cli_p = inputs.SIZES[size]["cli-roundtrip"]
    laser_p = inputs.SIZES[size]["laser-ensemble"]
    coherent_spec = cs.FockSpec(cli_p["n_max"])
    eps = cli_p["epsilon"]
    bd_spec = cs.FockSpec(laser_p["n_max"])
    bd = cs.BirthDeathLaser(**inputs.BIRTH_DEATH)
    kinds = {
        "coherent": (cs.CoherentDrive(eps), cli_p["dt"], cs.product_state(
            cs.coherent_state(2.0 * eps / cfg.gamma_S, coherent_spec), cs.qubit_state(cs.GROUND))),
        "birth_death": (bd, laser_p["dt"], cs.product_state(
            cs.fock_state(bd.n0, bd_spec), cs.qubit_state(cs.GROUND))),
    }

    def wall(kind, M, steps, diagnostics=False, store_every=None):
        model, dt, psi0 = kinds[kind]
        grid = cs.TimeGrid(0.0, steps * dt, dt)
        t0 = clock()
        cs.run_ensemble(psi0, cfg, model, grid, range(M), diagnostics=diagnostics,
                        store_every=store_every or steps)
        return clock() - t0

    def step_cost(M, **run):
        """Per step of the longer run beyond the shorter one."""
        s = n(TRAJ_STEPS[M])
        return (_fastest(lambda: wall(steps=2 * s, M=M, **run), repeats)
                - _fastest(lambda: wall(steps=s, M=M, **run), repeats)) / s

    out = {}
    for kind in kinds:
        for M in TRAJ_STEPS:
            out[f"evolve.traj_step_us.{kind}.M{M}"] = step_cost(M, kind=kind) / M * 1e6
        on = step_cost(100, kind=kind, diagnostics=True)
        off = step_cost(100, kind=kind)
        out[f"evolve.diag_overhead_us.{kind}"] = (on - off) / 100 * 1e6
    # per stored step of the ensemble reduction: store every step vs once
    every = step_cost(100, kind="coherent", store_every=1)
    once = step_cost(100, kind="coherent")
    out["evolve.store_us.M100"] = (every - once) * 1e6
    return out


def measure(size: str, workdir: str) -> dict:
    repeats = REPEATS[size]

    def n(calls):
        return calls if size == "full" else max(1, calls // 20)

    rng = np.random.default_rng(2007)
    cfg = _coupling()
    ans = inputs.job_inputs("ansatz-mixture", 0, 0, size)
    spec = cs.FockSpec(ans["n_max"])
    cli_spec = cs.FockSpec(inputs.SIZES[size]["cli-roundtrip"]["n_max"])
    laser_spec = cs.FockSpec(inputs.SIZES[size]["laser-ensemble"]["n_max"])
    out = {}

    rho_cli = _random_density(cli_spec.dim, rng)
    out["hilbert.check_us"] = _per_call(rho_cli.check, n(CALLS["check"]), repeats) * 1e6
    alpha = ans["radius"] * np.exp(1j * ans["phase"])
    out["hilbert.coherent_state_us"] = _per_call(
        lambda: cs.coherent_state(alpha, spec), n(CALLS["coherent"]), repeats) * 1e6

    for n_max in (10, 25, 50):
        s = cs.FockSpec(n_max)
        L = cs.build_L_T(cfg, s) + cs.build_L_ST(cfg, s)
        rho = _random_density(s.dim, rng).mat
        out[f"liouvillian.apply_us.n{n_max}"] = _per_call(
            lambda: cs.apply(L, rho), n(CALLS[f"apply.n{n_max}"]), repeats) * 1e6

    def build_set():
        cs.build_L_T(cfg, spec)
        cs.build_L_ST(cfg, spec)
        cs.build_jump_ops(cfg, spec)
        cs.build_nonhermitian_H(cfg, spec)
    out["liouvillian.build_ms"] = _per_call(build_set, n(CALLS["build"]), repeats) * 1e3

    K = ans["amplitudes"]
    model = cs.FreeDecayMixture(tuple(
        (alpha * np.exp(2j * np.pi * k / K), 1.0 / K) for k in range(K)))
    fine = cs.TimeGrid(0.0, ans["t1"], ans["dt"] / 2.0).times()
    bd = cs.BirthDeathLaser(**inputs.BIRTH_DEATH)

    def build_paths():
        cs.classical_paths(model, cfg, fine)
        cs.source_jump_channels(bd, cfg, laser_spec)
    out["sources.paths_ms"] = _per_call(build_paths, n(CALLS["paths"]), repeats) * 1e3

    # RK4 step of evolve_master without its apply calls, from spans
    L = cs.build_L_T(cfg, spec) + cs.build_L_ST(cfg, spec)
    rho0 = cs.DensityOperator(np.kron(cs.coherent_state(alpha, spec).projector(),
                                      np.diag([1.0, 0.0])))
    steps = n(CALLS["master_steps"])

    def master_step():
        tracer = spans.Tracer()
        with tracer.job():
            cs.evolve_master(rho0, L, cs.TimeGrid(0.0, steps * ans["dt"], ans["dt"]),
                             store_every=steps)
        master = next(s for s in tracer.spans if s[0] == "evolve.evolve_master")
        in_apply = tracer.total(("liouvillian.apply",))
        return (master[2] - master[1] - in_apply) / steps
    out["evolve.master_step_us"] = _fastest(master_step, repeats) * 1e6

    out.update(_trajectory_cases(size, n, repeats))

    paths = cs.classical_paths(model, cfg, fine)
    rhoT0 = np.diag([1.0, 0.0]).astype(complex)
    out["ansatz.target_step_us"] = _per_call(
        lambda: cs.solve_separated_target(paths[0], cfg, rhoT0), 1, repeats) / (len(fine) - 1) * 1e6
    conds = [cs.solve_separated_target(p, cfg, rhoT0) for p in paths]
    out["ansatz.build_state_us"] = _per_call(
        lambda: cs.build_ansatz_state(paths, conds, len(fine) // 2, spec),
        n(CALLS["build_state"]), repeats) * 1e6

    a, b = _random_density(spec.dim, rng), _random_density(spec.dim, rng)
    out["analysis.trace_distance_us"] = _per_call(
        lambda: cs.trace_distance(a, b), n(CALLS["trace_distance"]), repeats) * 1e6
    # a state within the sector pattern, as the laser-ensemble averages are
    quanta = np.arange(laser_spec.dim) // 2 + np.arange(laser_spec.dim) % 2
    sector = cs.DensityOperator(_random_density(laser_spec.dim, rng).mat
                                * (quanta[:, None] == quanta[None, :]))
    out["analysis.support_check_us"] = _per_call(
        lambda: cs.support_pattern_check(sector, tol=0.0), n(CALLS["support"]), repeats) * 1e6

    config = os.path.join(workdir, "micro-config.json")
    cli_p = inputs.job_inputs("cli-roundtrip", 0, 0, size)
    with open(config, "w") as f:
        json.dump(inputs.cli_config(cli_p, os.path.join(workdir, "micro-out")), f)
    out["cli.load_config_ms"] = _per_call(
        lambda: cli.load_config(config), n(CALLS["load_config"]), repeats) * 1e3
    return out


def main(argv) -> int:
    with open(argv[0]) as f:
        spec = json.load(f)
    os.makedirs(spec["workdir"], exist_ok=True)
    try:
        with warnings.catch_warnings():
            # the step-probability advisory of the fixed-step scheme
            warnings.simplefilter("ignore")
            record = {"ok": True, "metrics": measure(spec["size"], spec["workdir"])}
    except Exception:  # reported to the parent as a failed job
        record = {"ok": False, "error": traceback.format_exc(limit=4).strip().splitlines()[-1]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
