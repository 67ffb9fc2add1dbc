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
The CASCADESIM_WORKERS environment variable, an integer >= 1, is the one setting
of the trajectory worker count; it changes only the wall time, and one worker, or
evolve.ENSEMBLE_BLOCK seeds or fewer, run in-process.  Both run commands take the
stored states as the integrators hand them on, in (times, stack) blocks, and take
each block's observables straight from the band entries of a, a^dag a, b and
b^dag b, with no matrix product: each row depends on its own state alone, so no
output byte depends on how the states arrive, and run-master's files do not
depend on the BLAS kernel.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
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
    DensityOperator,
    FockSpec,
    PureState,
    coherent_state,
    fock_state,
    product_state,
    qubit_state,
)
from .liouvillian import (MAX_GATHER_ENTRIES, CouplingConfig, adjoint, build_L_ST, build_L_T,
                          ladders, product)
from .sources import BirthDeathLaser, CoherentDrive, FreeDecayMixture, build_L_S

BASIS_ORDERING = ("composite index 2*n + q over |n, q>; q=0 ground, q=1 excited; "
                  "matrix rows/columns in this order, entries as [re, im]")


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


def _known(doc: dict, keys, context: str) -> dict:
    """doc, once every key of it is among keys: a misspelt key is refused,
    not read as its default."""
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r} in {context}")
    return doc


def _check_directory(path: str, where: str) -> None:
    """Refuse a path that cannot be made a directory: it, or its nearest
    existing ancestor, must be one.  Creates nothing."""
    if not path:
        raise ConfigError(f"{where} must name a directory, got ''")
    existing = os.path.abspath(path)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise ConfigError(f"{where} {path!r} cannot be a directory: {existing!r} is not one")


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
        _known(doc, ("kind", "epsilon"), "source")
        return CoherentDrive(_complex(_require(doc, "epsilon", "source"), "source.epsilon"))
    if kind == "free_decay":
        _known(doc, ("kind", "amplitudes"), "source")
        triples = _require(doc, "amplitudes", "source")
        if not (isinstance(triples, list)
                and all(isinstance(t, list) and len(t) == 3 for t in triples)):
            raise ConfigError("source.amplitudes must be a list of [re, im, weight] triples, "
                              f"got {triples!r}")
        amps = tuple((_complex([re, im], "source.amplitudes"), _real(w, "source.amplitudes"))
                     for re, im, w in triples)
        return FreeDecayMixture(amps)
    if kind == "birth_death":
        rate_keys = ("pump_rate", "gain_per_carrier", "nonlasing_rate")
        _known(doc, ("kind", "N0", "n0", *rate_keys), "source")
        rates = {key: _real(_require(doc, key, "source"), f"source.{key}") for key in rate_keys}
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
        _known(doc, ("kind", "qubit", "n"), "initial")
        n = _require(doc, "n", "initial")
        if not _is_int(n):
            raise ConfigError(f"initial.n must be an integer, got {n!r}")
        return product_state(fock_state(n, spec), qubit)
    if kind == "coherent":
        _known(doc, ("kind", "qubit", "alpha"), "initial")
        alpha = _complex(_require(doc, "alpha", "initial"), "initial.alpha")
        try:
            source = coherent_state(alpha, spec, warn=False)
        except (ValueError, InvariantViolationError) as e:
            # |alpha|^2 beyond a float, or every amplitude up to n_max underflows
            raise ConfigError(f"initial.alpha {alpha} gives no coherent state a float "
                              f"can hold at n_max {spec.n_max} ({e})") from e
        return product_state(source, qubit)
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
        _known(doc, ("name", "coupling", "n_max", "grid", "source", "initial", "store_every",
                     "seeds", "output_dir"), path)
        cpl = _known(_section(doc, "coupling", path, required=False),
                     [f.name for f in fields(CouplingConfig)], "coupling")
        coupling = CouplingConfig(**{
            f.name: _real(cpl.get(f.name, f.default), f"coupling.{f.name}")
            for f in fields(CouplingConfig)})
        n_max = _require(doc, "n_max", path)
        if not _is_int(n_max):
            raise ConfigError(f"n_max must be an integer, got {n_max!r}")
        spec = FockSpec(n_max)
        # every run command builds (d, d) operators; refuse them before the
        # initial state is built
        if spec.dim ** 2 > MAX_GATHER_ENTRIES:
            raise ConfigError(f"n_max {n_max}: its {spec.dim} x {spec.dim} operators are too "
                              f"large to hold in memory (at most {MAX_GATHER_ENTRIES} entries)")
        g = _known(_section(doc, "grid", path), ("t0", "t1", "dt"), "grid")
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
            _known(s, ("start", "count"), "seeds")
            start, count = s.get("start", 0), _require(s, "count", "seeds")
            if not (_is_int(start) and _is_int(count)):
                raise ConfigError(f"seeds start and count must be integers, got {s!r}")
            try:
                seeds = list(range(start, start + count))
            except MemoryError:  # raised with no text
                raise ConfigError(f"seeds.count {count} is too many to hold in memory") from None
        else:
            raise ConfigError(f"seeds must be a list or an object, got {s!r}")
        check_seeds(seeds)
        name = doc.get("name", os.path.splitext(os.path.basename(path))[0])
        output_dir = doc.get("output_dir", "out")
        for key, value in (("name", name), ("output_dir", output_dir)):
            if not isinstance(value, str):
                raise ConfigError(f"{key} must be a string, got {value!r}")
        _check_directory(output_dir, "output_dir")
        resolved = {
            "name": name,
            "coupling": asdict(coupling),
            "source": doc["source"],
            "initial": doc["initial"],
            "n_max": spec.n_max,
            "grid": asdict(grid),
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
    """header, then each row's values joined by commas: a float (numpy's
    included) as %.17g, anything else as str.  Each row is one % format,
    made once for every tuple of value types."""
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        types = tuple(map(type, row))
        fmt = formats.get(types)
        if fmt is None:
            fmt = formats[types] = ",".join(
                "%.17g" if issubclass(t, float) else "%s" for t in types)
        lines.append(fmt % tuple(row))
    atomic_write(path, "\n".join(lines) + "\n")


@lru_cache(maxsize=4)
def _matrix_format(dim: int) -> str:
    """The text json.dumps(indent=2) gives a top-level key's dim x dim
    nested list of [re, im] pairs, with %r in place of each number."""
    pair = "[\n        %r,\n        %r\n      ]"
    row = "[\n      " + ",\n      ".join([pair] * dim) + "\n    ]"
    return "[\n    " + ",\n    ".join([row] * dim) + "\n  ]"


def state_dump(rho: np.ndarray, spec: FockSpec, t: float) -> str:
    """The state dump's text of a (d, d) density matrix: json.dumps(doc,
    indent=2, sort_keys=True) and a newline.  A finite matrix is formatted
    in one pass, as repr of each float, which is what json writes for a
    finite float."""
    doc = {"time": t, "n_max": spec.n_max, "dim": len(rho), "basis_ordering": BASIS_ORDERING}
    if not np.isfinite(rho).all():
        doc["matrix"] = [[[float(v.real), float(v.imag)] for v in row] for row in rho]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    head, tail = json.dumps({**doc, "matrix": None}, indent=2,
                            sort_keys=True).split('"matrix": null')
    values = tuple(np.ascontiguousarray(rho, dtype=complex).view(float).ravel().tolist())
    return f'{head}"matrix": {_matrix_format(len(rho)) % values}{tail}\n'


def _observable_rows(times, stack, index, weight, starts):
    """CSV rows of the states of stack, a (B, d, d) array, at times: the
    observables from the band entries (index, weight, starts) of
    _Observables, and the purity.  Each row is taken from its own state's
    entries alone, so the rows do not depend on how the states are cut into
    blocks."""
    e = np.add.reduceat(stack.reshape(len(stack), -1).take(index, axis=1) * weight, starts,
                        axis=1).view(float)
    # time, re/im of <a>, re <n>, re/im of <b>, re <b^dag b>, purity
    return np.column_stack([times, e[:, [0, 1, 2, 4, 5, 6]],
                            np.einsum("tij,tji->t", stack, stack).real]).tolist()


class _Observables:
    """Observer of a run's stored states, called as observe(times, stack)
    with each block of them: it takes each block's rows at once, straight
    from the band entries of a, a^dag a, b and b^dag b; of the states only
    the last is kept, as (time, matrix), for the state dump.
    """

    def __init__(self, spec: FockSpec):
        a, b = ladders(spec)
        # tr(op rho) is the sum of v[i] rho[i + o, i] over the bands {o: v} of
        # op: the flat index in rho and the weight of each nonzero v[i], op
        # after op, and where each op's entries start; a^dag a is the
        # product, not the exact n: sqrt(n)^2 != n in the last bit
        index, weight, starts = [], [], []
        for op in (a, product(adjoint(a), a), b, product(adjoint(b), b)):
            starts.append(len(index))
            for o, v in op.items():
                i = np.flatnonzero(v)
                index += list((i + o) * spec.dim + i)
                weight += list(v[i])
        self.reads = np.array(index), np.array(weight), np.array(starts)
        self.rows, self.last = [], None

    def __call__(self, times, stack):
        self.rows += _observable_rows(times, stack, *self.reads)
        self.last = times[-1], stack[-1]

    def table(self):
        """CSV header and rows of every state observed."""
        return ["time", "re_source_amp", "im_source_amp", "source_photons",
                "re_qubit_coherence", "im_qubit_coherence", "excited_population",
                "purity"], self.rows


def _write_run(cfg: ExperimentConfig, command: str, obs: _Observables, dump_name: str):
    """Write the files of every run command into cfg.output_dir: manifest.json,
    observables.csv and dump_name, the state dump of the last stored state."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    write_json(os.path.join(cfg.output_dir, "manifest.json"),
               {"command": command, **cfg.resolved})
    header, rows = obs.table()
    write_csv(os.path.join(cfg.output_dir, "observables.csv"), header, rows)
    t, rho = obs.last
    atomic_write(os.path.join(cfg.output_dir, dump_name), state_dump(rho, cfg.spec, float(t)))


def cmd_run_master(cfg: ExperimentConfig) -> int:
    try:
        L = (build_L_S(cfg.source, cfg.spec)
             + build_L_T(cfg.coupling, cfg.spec)
             + build_L_ST(cfg.coupling, cfg.spec))
        # the gather form, refused here if too large; evolve_master reuses it
        L.compiled
    except (UnsupportedSourceError, DimensionMismatchError) as e:
        raise ConfigError(str(e)) from e
    rho0 = DensityOperator(np.outer(cfg.initial_vec, cfg.initial_vec.conj()))
    obs = _Observables(cfg.spec)
    evolve_master(rho0, L, cfg.grid, store_every=cfg.store_every, observe=obs)
    _write_run(cfg, "run-master", obs, "final_state.json")
    return 0


def cmd_run_trajectories(cfg: ExperimentConfig) -> int:
    obs = _Observables(cfg.spec)
    ens = run_ensemble(PureState(cfg.initial_vec), cfg.coupling, cfg.source,
                       cfg.grid, cfg.seeds, store_every=cfg.store_every, observe=obs)
    _write_run(cfg, "run-trajectories", obs, "ensemble_state.json")
    rec_dir = os.path.join(cfg.output_dir, "records")
    os.makedirs(rec_dir, exist_ok=True)
    channels = ("forward_f", "side_s", "pump", "gain", "nonlasing")
    traj_rows = []
    for rec, ent in zip(ens.records, ens.max_schmidt_entropies):
        write_csv(os.path.join(rec_dir, f"record_{rec.seed}.csv"),
                  ["time", "channel"],
                  [[float(t), lab] for t, lab in rec.events])
        traj_rows.append([rec.seed, len(rec.events), *map(rec.count, channels), float(ent)])
    write_csv(os.path.join(cfg.output_dir, "trajectories.csv"),
              ["seed", "events", *channels, "max_schmidt_entropy"], traj_rows)
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
    workers_from_env()  # the suite's ensembles read it; refuse a bad value before they run
    _check_directory(out_dir, "--out")
    results = run_suite(names)
    os.makedirs(out_dir, exist_ok=True)
    for r in results:
        w = r.worst
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name}  {status}  tolerance={w.tolerance:g}  "
              f"measured={w.measured:g}  [{r.seconds:.1f}s]  {r.description}")
        for c in r.checks:
            print(f"    {'pass' if c.passed else 'FAIL'}  measured={c.measured:g}  "
                  f"{'>' if c.larger_is_better else '<'} tolerance={c.tolerance:g}  {c.label}")
    verdict = [{**asdict(r), "passed": r.passed,
                "checks": [{**asdict(c), "passed": c.passed} for c in r.checks]}
               for r in results]
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
    except MemoryError as e:
        # numpy refuses at once an array beyond the address space, such as the
        # stored times of a grid of 1e14 steps
        print("config error: too large to hold in memory" + (f": {e}" if str(e) else ""),
              file=sys.stderr)
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
