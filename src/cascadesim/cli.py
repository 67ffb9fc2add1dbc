"""Batch front-end: JSON-configured runs with reproducible file outputs.

Subcommands:
  run-master        deterministic master-equation run -> CSV observables + state dump
  run-trajectories  stochastic ensemble run -> per-trajectory records + averages
  verify            run the numbered verification suite -> verdict table + JSON

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 invariant violation during a run, 4 any other (internal) error, reported
as one line on stderr instead of a traceback.

File formats: configs are JSON (one experiment per file); time series are CSV
with a header row, the time column first, and complex observables split into
re/im columns; state dumps are JSON with row-major nested arrays of [re, im]
pairs and an explicit basis-ordering field.  All files are written atomically
(temp file + rename) and are byte-identical for identical (config, seed).
The CASCADESIM_WORKERS environment variable, an integer >= 1, sets the trajectory
worker count; it changes only the wall time, and evolve.ENSEMBLE_BLOCK seeds or
fewer run in-process.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    InvariantViolationError,
    StepProbabilityError,
    UnsupportedSourceError,
)
from .evolve import (
    TimeGrid,
    check_seeds,
    evolve_master,
    run_ensemble,
    sector_amplitudes,
    workers_from_env,
)
from .hilbert import (
    EXCITED,
    GROUND,
    SOURCE,
    TARGET,
    DensityOperator,
    FockSpec,
    PureState,
    annihilation,
    coherent_state,
    embed,
    fock_state,
    product_state,
    qubit_lowering,
    qubit_state,
)
from .liouvillian import CouplingConfig, build_L_ST, build_L_T
from .sources import BirthDeathLaser, CoherentDrive, FreeDecayMixture, build_L_S

# stored states stacked per product in _observable_rows: 0.35 MB at n_max 12
OBSERVABLE_BLOCK = 32

BASIS_ORDERING = ("composite index 2*n + q over |n, q>; q=0 ground, q=1 excited; "
                  "matrix rows/columns in this order, entries as [re, im]")


class ConfigError(Exception):
    pass


@dataclass
class ExperimentConfig:
    coupling: CouplingConfig
    source: object
    initial_vec: np.ndarray
    spec: FockSpec
    grid: TimeGrid
    store_every: int
    seeds: list
    output_dir: str
    resolved: dict  # fully resolved config echoed into the manifest


def _require(doc: dict, key: str, context: str):
    if key not in doc:
        raise ConfigError(f"missing key {key!r} in {context}")
    return doc[key]


def _section(doc: dict, key: str, context: str, required: bool = True) -> dict:
    """The JSON object under ``key``; an empty one when it is absent and optional."""
    value = _require(doc, key, context) if required else doc.get(key, {})
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} in {context} must be an object, got {value!r}")
    return value


def _real(value, where: str):
    """value, which must be a finite JSON number: an int or a float, not a bool."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            if math.isfinite(value):
                return value
        except OverflowError:  # an int too large for a float
            pass
    raise ConfigError(f"{where} must be a finite real number, got {value!r}")


def _complex(parts, where: str) -> complex:
    """The complex number of a JSON [re, im] pair of finite reals."""
    if not (isinstance(parts, list) and len(parts) == 2):
        raise ConfigError(f"{where} must be a [re, im] pair, got {parts!r}")
    return complex(_real(parts[0], where), _real(parts[1], where))


def _parse_source(doc: dict):
    kind = _require(doc, "kind", "source")
    if kind == "coherent_drive":
        return CoherentDrive(_complex(_require(doc, "epsilon", "source"), "source.epsilon"))
    if kind == "free_decay":
        amps = tuple((_complex([re, im], "source.amplitudes"), _real(w, "source.amplitudes"))
                     for re, im, w in _require(doc, "amplitudes", "source"))
        return FreeDecayMixture(amps)
    if kind == "birth_death":
        rates = {key: _real(_require(doc, key, "source"), f"source.{key}")
                 for key in ("pump_rate", "gain_per_carrier", "nonlasing_rate")}
        return BirthDeathLaser(N0=_require(doc, "N0", "source"),
                               n0=_require(doc, "n0", "source"), **rates)
    raise ConfigError(f"unknown source kind {kind!r}")


def _parse_initial(doc: dict, spec: FockSpec) -> PureState:
    qubit_name = doc.get("qubit", "ground")
    if qubit_name not in ("ground", "excited"):
        raise ConfigError(f"initial.qubit must be 'ground' or 'excited', got {qubit_name!r}")
    qubit = qubit_state(GROUND if qubit_name == "ground" else EXCITED)
    kind = _require(doc, "kind", "initial")
    if kind == "fock":
        n = _require(doc, "n", "initial")
        if not _is_int(n):
            raise ConfigError(f"initial.n must be an integer, got {n!r}")
        return product_state(fock_state(n, spec), qubit)
    if kind == "coherent":
        alpha = _complex(_require(doc, "alpha", "initial"), "initial.alpha")
        return product_state(coherent_state(alpha, spec, warn=False), qubit)
    raise ConfigError(f"unknown initial state kind {kind!r}")


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def load_config(path: str) -> ExperimentConfig:
    try:
        with open(path) as f:
            doc = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"{path}:{e.lineno}:{e.colno}: {e.msg}") from e
    try:
        if not isinstance(doc, dict):
            raise ConfigError(f"{path}: the config must be a JSON object")
        cpl = _section(doc, "coupling", path, required=False)
        coupling = CouplingConfig(**{
            key: _real(cpl.get(key, default), f"coupling.{key}")
            for key, default in (("gamma_S", 1.0), ("gamma_Tf", 0.5),
                                 ("gamma_Ts", 0.5), ("delta", 0.0))})
        n_max = _require(doc, "n_max", path)
        if not _is_int(n_max):
            raise ConfigError(f"n_max must be an integer, got {n_max!r}")
        spec = FockSpec(n_max)
        g = _section(doc, "grid", path)
        grid = TimeGrid(_real(g.get("t0", 0.0), "grid.t0"),
                        _real(_require(g, "t1", "grid"), "grid.t1"),
                        _real(_require(g, "dt", "grid"), "grid.dt"))
        source = _parse_source(_section(doc, "source", path))
        initial = _parse_initial(_section(doc, "initial", path), spec)
        if isinstance(source, BirthDeathLaser):
            sector_amplitudes(initial.vec, source.n0)  # ValueError outside sector n0
        store_every = doc.get("store_every", 1)
        grid.stored_times(store_every)  # raises ValueError on a bad store_every
        s = doc.get("seeds", {"start": 0, "count": 1})
        if isinstance(s, list):
            seeds = list(s)
        elif isinstance(s, dict):
            start, count = s.get("start", 0), s["count"]
            if not (_is_int(start) and _is_int(count)):
                raise ConfigError(f"seeds start and count must be integers, got {s!r}")
            seeds = list(range(start, start + count))
        else:
            raise ConfigError(f"seeds must be a list or an object, got {s!r}")
        check_seeds(seeds)
        name = doc.get("name", os.path.splitext(os.path.basename(path))[0])
        output_dir = doc.get("output_dir", "out")
        for key, value in (("name", name), ("output_dir", output_dir)):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        resolved = {
            "name": name,
            "coupling": {"gamma_S": coupling.gamma_S, "gamma_Tf": coupling.gamma_Tf,
                         "gamma_Ts": coupling.gamma_Ts, "delta": coupling.delta},
            "source": doc["source"],
            "initial": doc["initial"],
            "n_max": spec.n_max,
            "grid": {"t0": grid.t0, "t1": grid.t1, "dt": grid.dt},
            "store_every": store_every,
            "seeds": seeds,
            "output_dir": output_dir,
            "basis_ordering": BASIS_ORDERING,
        }
        return ExperimentConfig(
            coupling=coupling, source=source,
            initial_vec=initial.vec, spec=spec, grid=grid,
            store_every=store_every, seeds=seeds,
            output_dir=resolved["output_dir"], resolved=resolved,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise ConfigError(f"{path}: {e}") from e


def atomic_write(path: str, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        f.write(text)
    os.replace(tmp, path)


def write_json(path: str, doc):
    atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")


def write_csv(path: str, header: list, rows: list):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v)
                              for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


def state_dump(rho: DensityOperator, spec: FockSpec, t: float) -> dict:
    return {
        "time": t,
        "n_max": spec.n_max,
        "dim": rho.dim,
        "basis_ordering": BASIS_ORDERING,
        "matrix": [[[float(v.real), float(v.imag)] for v in row]
                   for row in rho.mat],
    }


@lru_cache(maxsize=4)
def _observable_ops(spec: FockSpec):
    """a, a^dag a, b and b^dag b on the composite space, read-only.

    Cached, because a run builds observable rows once per block of states.
    """
    a = embed(annihilation(spec), SOURCE, spec).mat
    n = a.conj().T @ a
    b = embed(qubit_lowering(), TARGET, spec).mat
    pe = b.conj().T @ b
    for op in (a, n, b, pe):
        op.flags.writeable = False
    return a, n, b, pe


def _observable_rows(times, rhos, spec: FockSpec):
    """CSV header and rows: the observables and the purity of each stored state.

    The states are stacked in blocks of OBSERVABLE_BLOCK, so the stacked copy
    stays small however many states were stored; each block takes one
    product for the four expectations and one for the purities.  The run
    commands' observer (_Observables) receives each stored state from
    evolve_master or run_ensemble as it is formed and calls this once per
    OBSERVABLE_BLOCK of them, and once for the rest at the end.
    """
    # expectation(rho, op) = trace(op rho) = rho.ravel() . op.T.ravel()
    ops = np.stack([op.T.ravel() for op in _observable_ops(spec)], axis=1)
    table = np.empty((len(rhos), 8))
    table[:, 0] = times
    for start in range(0, len(rhos), OBSERVABLE_BLOCK):
        block = np.stack([rho.mat for rho in rhos[start:start + OBSERVABLE_BLOCK]])
        rows = table[start:start + len(block)]
        e = (block.reshape(len(block), -1) @ ops).view(float)
        # re/im of <a>, re <n>, re/im of <b>, re <b^dag b>
        rows[:, 1:7] = e[:, [0, 1, 2, 4, 5, 6]]
        rows[:, 7] = np.einsum("tij,tji->t", block, block).real
    header = ["time", "re_source_amp", "im_source_amp", "source_photons",
              "re_qubit_coherence", "im_qubit_coherence", "excited_population",
              "purity"]
    return header, table.tolist()


class _Observables:
    """Observer of a run's stored states that holds one block of them.

    Each OBSERVABLE_BLOCK states go through _observable_rows together, so its
    products have the shapes of one call over every state and give the same
    rows; of the states only the last is kept, for the state dump.
    """

    def __init__(self, times, spec: FockSpec):
        self.times, self.spec = times, spec
        self.block, self.rows, self.last = [], [], None

    def __call__(self, rho: DensityOperator):
        self.block.append(rho)
        self.last = rho
        if len(self.block) == OBSERVABLE_BLOCK:
            self._flush()

    def _flush(self):
        start = len(self.rows)
        self.header, rows = _observable_rows(
            self.times[start:start + len(self.block)], self.block, self.spec)
        self.rows += rows
        self.block = []

    def table(self):
        """CSV header and rows of every state observed."""
        if self.block:
            self._flush()
        return self.header, self.rows


def _write_run(cfg: ExperimentConfig, command: str, obs: _Observables, dump_name: str):
    """Write the files of every run command into cfg.output_dir: manifest.json,
    observables.csv and dump_name, the state dump of the last stored state."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(os.path.join(cfg.output_dir, "manifest.json"),
               {"command": command, **cfg.resolved})
    header, rows = obs.table()
    write_csv(os.path.join(cfg.output_dir, "observables.csv"), header, rows)
    write_json(os.path.join(cfg.output_dir, dump_name),
               state_dump(obs.last, cfg.spec, float(obs.times[-1])))


def cmd_run_master(cfg: ExperimentConfig) -> int:
    try:
        L = (build_L_S(cfg.source, cfg.spec)
             + build_L_T(cfg.coupling, cfg.spec)
             + build_L_ST(cfg.coupling, cfg.spec))
    except UnsupportedSourceError as e:
        raise ConfigError(str(e)) from e
    rho0 = DensityOperator(np.outer(cfg.initial_vec, cfg.initial_vec.conj()))
    obs = _Observables(cfg.grid.stored_times(cfg.store_every), cfg.spec)
    evolve_master(rho0, L, cfg.grid, store_every=cfg.store_every, observe=obs)
    _write_run(cfg, "run-master", obs, "final_state.json")
    return 0


def _workers() -> int:
    """CASCADESIM_WORKERS; a configuration error unless it is an integer >= 1."""
    try:
        return workers_from_env()
    except ValueError as e:
        raise ConfigError(str(e)) from e


def cmd_run_trajectories(cfg: ExperimentConfig) -> int:
    workers = _workers()
    obs = _Observables(cfg.grid.stored_times(cfg.store_every), cfg.spec)
    ens = run_ensemble(PureState(cfg.initial_vec), cfg.coupling, cfg.source,
                       cfg.grid, cfg.seeds, store_every=cfg.store_every, workers=workers,
                       observe=obs)
    _write_run(cfg, "run-trajectories", obs, "ensemble_state.json")
    rec_dir = os.path.join(cfg.output_dir, "records")
    os.makedirs(rec_dir, exist_ok=True)
    traj_rows = []
    for rec, ent in zip(ens.records, ens.max_schmidt_entropies):
        write_csv(os.path.join(rec_dir, f"record_{rec.seed}.csv"),
                  ["time", "channel"],
                  [[float(t), lab] for t, lab in rec.events])
        traj_rows.append([
            rec.seed, len(rec.events),
            rec.count("forward_f"), rec.count("side_s"),
            rec.count("pump"), rec.count("gain"), rec.count("nonlasing"),
            float(ent),
        ])
    write_csv(os.path.join(cfg.output_dir, "trajectories.csv"),
              ["seed", "events", "forward_f", "side_s", "pump", "gain",
               "nonlasing", "max_schmidt_entropy"],
              traj_rows)
    return 0


def cmd_verify(suite: str, out_dir: str) -> int:
    # the suite is loaded by the one command that runs it, not by every run
    from .acceptance import CRITERIA, run_suite

    if suite == "all":
        names = None  # run_suite's default: every criterion, in order
    elif suite.upper() in CRITERIA:
        names = [suite.upper()]
    else:
        print(f"error: unknown suite {suite!r}; choose 'all' or one of "
              f"{', '.join(sorted(CRITERIA))}", file=sys.stderr)
        return 2
    _workers()  # the suite's ensembles read it; refuse a bad value before they run
    results = run_suite(names)
    os.makedirs(out_dir, exist_ok=True)
    verdict = []
    for r in results:
        w = r.worst
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}  {status}  tolerance={w.tolerance:g}  "
              f"measured={w.measured:g}  [{r.seconds:.1f}s]  {r.description}")
        verdict.append({
            "name": r.name,
            "description": r.description,
            "passed": r.passed,
            "seconds": r.seconds,
            "checks": [{"label": c.label, "tolerance": c.tolerance,
                        "measured": c.measured, "passed": c.passed,
                        "larger_is_better": c.larger_is_better}
                       for c in r.checks],
        })
    write_json(os.path.join(out_dir, "verdict.json"),
               {"suite": suite, "passed": all(r.passed for r in results),
                "criteria": verdict})
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cascadesim",
        description="Cascaded source-qubit simulator: master-equation and "
                    "trajectory runs, plus the verification suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    pm = sub.add_parser("run-master", help="deterministic master-equation run")
    pm.add_argument("config", help="JSON experiment config")
    pt = sub.add_parser("run-trajectories", help="stochastic ensemble run")
    pt.add_argument("config", help="JSON experiment config")
    pv = sub.add_parser("verify", help="run the verification suite")
    pv.add_argument("--suite", default="all",
                    help="'all' or a single criterion name (A1..A9)")
    pv.add_argument("--out", default="verify-out",
                    help="directory for the verdict file")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return cmd_verify(args.suite, args.out)
        cfg = load_config(args.config)
        if args.command == "run-master":
            return cmd_run_master(cfg)
        return cmd_run_trajectories(cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 2
    except (InvariantViolationError, StepProbabilityError) as e:
        print(f"invariant violation: {e}", file=sys.stderr)
        return 3
    except Exception as e:
        msg = str(e).replace("\n", " ")
        print(f"internal error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
