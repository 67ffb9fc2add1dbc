"""cascadesim benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1 [--size smoke]

Runs jobs of one seeded workload (inputs.py, NOTES.md), each in a fresh
process (jobs.py), one at a time, for about ``--seconds`` seconds.  A job
whose result fails its correctness gates counts as failed and contributes
no timing.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json over the
run's verified jobs (STATISTIC says which statistic).  ``--trace 1`` is the separate traced run: it times the micro-cases
(micro.py), then runs the first job's inputs in pairs, one job untraced and
one with spans around every layer call, and reports the per-layer metrics.
Its spans go to ``perfbench/out/spans-<workload>-seed<N>.json``.

Report lines come first, with the machine header and sample counts; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

# The load comes from one process: single-threaded BLAS and in-process
# trajectories, fixed so that both sides of any comparison run alike.
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1", "CASCADESIM_WORKERS": "1"}
MIN_JOBS = 3
JOB_TIMEOUT_S = 120
# On a shared host other tenants' load only ever adds time, by up to 40 %
# here, and shifts from minute to minute: the median job of a 30 s run moved
# by a quarter between runs while the fastest moved by 5 %.  So times are
# the fastest verified job of the run (as timeit does); memory is the median.
STATISTIC = {"solve_s": min, "setup_s": min, "peak_rss_mb": statistics.median}
# exact counts that every traced job of one run must repeat
COUNTS = ("apply_calls", "build_calls", "jumps_per_traj", "bytes_written")


def spawn(script: str, spec: dict, work: Path, tag: str) -> dict:
    """Run one child (jobs.py or micro.py) on ``spec``; return its JSON record."""
    spec_file = work / f"spec-{tag}.json"
    spec_file.write_text(json.dumps(spec))
    env = dict(os.environ, **CHILD_ENV)
    launched = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / script), str(spec_file),
                               repr(launched)],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        record = {"ok": False, "error": f"timed out after {JOB_TIMEOUT_S} s"}
    else:
        try:
            record = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            record = {"ok": False, "error": f"exit {proc.returncode}: {tail[0]}"}
    record["wall"] = time.monotonic() - launched
    shutil.rmtree(spec["workdir"], ignore_errors=True)
    return record


def job(args, work: Path, index: int, trace: bool, run_no: int) -> dict:
    """Run no. ``run_no`` of this benchmark run, on the inputs of job ``index``."""
    tag = f"{run_no}-{'traced' if trace else 'plain'}"
    spec = {"workload": args.workload, "size": args.size, "job": tag, "trace": trace,
            "params": inputs.job_inputs(args.workload, args.seed, index, args.size),
            "workdir": str(work / "job")}
    return spawn("jobs.py", spec, work, tag)


def keep_going(records, t0, seconds, per_round=1) -> bool:
    """Start another job (or pair) while the typical one still fits the budget."""
    if len(records) < MIN_JOBS * per_round:
        return True
    typical = statistics.median(r["wall"] for r in records) * per_round
    return time.monotonic() - t0 + typical <= seconds


def end_to_end(args, work):
    records, t0 = [], time.monotonic()
    while keep_going(records, t0, args.seconds):
        records.append(job(args, work, len(records), False, len(records)))
    metrics, samples = end_to_end_metrics(records)
    return records, metrics, samples, []


def end_to_end_metrics(records):
    """Each metric's STATISTIC over the jobs that passed their gates, and the samples."""
    ok = [r for r in records if r["ok"]]
    samples = {name: [r[name] for r in ok] for name in STATISTIC} if ok else {}
    return {name: STATISTIC[name](v) for name, v in samples.items()}, samples


def traced(args, work):
    """Micro-cases, then untraced/traced pairs on the first job's inputs."""
    t0 = time.monotonic()
    micro = spawn("micro.py", {"size": args.size, "workdir": str(work / "micro")},
                  work, "micro")
    records, plain, spanned, problems = [micro], [], [], []
    while keep_going(plain + spanned, t0, args.seconds, per_round=2):
        # alternate which side of the pair runs first
        for trace in ((False, True) if len(plain) % 2 == 0 else (True, False)):
            (spanned if trace else plain).append(
                job(args, work, 0, trace, len(plain) + len(spanned)))
    records += plain + spanned
    plain_ok = [r for r in plain if r["ok"]]
    spanned_ok = [r for r in spanned if r["ok"]]
    if not (micro["ok"] and plain_ok and spanned_ok):
        return records, {}, {}, problems
    counts = {tuple(r["trace"][c] for c in COUNTS) for r in spanned_ok}
    if len(counts) > 1:
        problems.append(f"exact counts differ between traced jobs on the same inputs: {counts}")
    # self times of one job (the fastest traced one) sum to its wall time
    pick = min(spanned_ok, key=lambda r: r["trace"]["wall_s"])
    tr = pick["trace"]
    metrics = dict(micro["metrics"])
    metrics.update({f"{layer}.self_s": v for layer, v in tr["self_s"].items()})
    metrics.update({
        "liouvillian.apply_calls": tr["apply_calls"],
        "ansatz.build_calls": tr["build_calls"],
        "evolve.jumps_per_traj": tr["jumps_per_traj"],
        "cli.bytes_written": tr["bytes_written"],
        "cli.write_s": tr["write_s"],
        "trace.wall_s": tr["wall_s"],
        "trace.unattributed_s": tr["wall_s"] - sum(tr["self_s"].values()),
        "trace.overhead_frac": (min(r["solve_s"] for r in spanned_ok)
                                / min(r["solve_s"] for r in plain_ok) - 1.0),
    })
    (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "machine": pick.get("machine"),
         "spans": [s for r in spanned_ok for s in r["trace"]["spans"]]}))
    return records, metrics, {}, problems


def header(args, records) -> list:
    m = next((r["machine"] for r in records if "machine" in r), {})
    return [
        f"# cascadesim benchmark  workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds} trace={args.trace} size={args.size}",
        f"# machine  nproc={len(os.sched_getaffinity(0))} python={platform.python_version()} "
        f"numpy={m.get('numpy')} blas={m.get('blas')} {m.get('blas_version')} "
        f"blas_threads={m.get('blas_threads')} "
        f"CASCADESIM_WORKERS={CHILD_ENV['CASCADESIM_WORKERS']}",
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(inputs.SIZES), default="full",
                        help="'smoke' runs tiny jobs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cascadesim" / "__init__.py").is_file():
        print(f"error: no cascadesim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"]
                for m in declared["per_layer" if args.trace else "end_to_end"]}

    work = OUT / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        records, metrics, samples, problems = (traced if args.trace else end_to_end)(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = [r for r in records if not r["ok"]]
    if metrics and set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} do not match "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    for line in header(args, records):
        print(line)
    for name, unit in declared.items():
        if name in samples:
            q1, _, q3 = statistics.quantiles(samples[name], n=4) if len(samples[name]) > 1 \
                else samples[name] * 3
            print(f"{name:40s} {metrics[name]:.6g} {unit}  {STATISTIC[name].__name__} of "
                  f"n={len(samples[name])}; quartiles {q1:.6g} {statistics.median(samples[name]):.6g} "
                  f"{q3:.6g}")
        elif name in metrics:
            print(f"{name:40s} {metrics[name]:.6g} {unit}")
    print(f"failed_frac {len(failed)}/{len(records)} = {len(failed) / len(records):.3g}")
    for r in failed:
        reasons = r.get("error") or "; ".join(
            f"{g['label']}: {g['measured']:.3g} > {g['tolerance']:.3g}"
            for g in r.get("gates", []) if not g["passed"])
        print(f"failed job: {reasons}")
    for p in problems:
        print(f"error: {p}")
    res = result(records, metrics, declared, problems)
    print(json.dumps(res))
    return 0 if res["correct"] else 1


def result(records, metrics, declared, problems=()) -> dict:
    """The last stdout line; a failed job makes the run incorrect."""
    failed = sum(1 for r in records if not r["ok"])
    return {
        "correct": bool(metrics) and not failed and not problems,
        "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in declared.items() if name in metrics},
    }


if __name__ == "__main__":
    sys.exit(main())
