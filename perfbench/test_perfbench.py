"""Tests of the benchmark itself, at smoke size so they run in seconds.

    python -m pytest perfbench

They run every workload, every micro-case and the traced run end to end,
so the benchmark keeps working as the package's internals change.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

import cascadesim as cs  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
EXACT = ("liouvillian.apply_calls", "ansatz.build_calls", "evolve.jumps_per_traj",
         "cli.bytes_written")


def _bench(workload, trace, seed=3, cwd=run.ROOT, root=run.ROOT):
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def _result(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_smoke_run_reports_every_declared_metric(workload, trace):
    proc = _bench(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    res = _result(proc)
    assert sorted(res) == ["attempted", "correct", "failed", "metrics"]
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert [(k, v["unit"]) for k, v in res["metrics"].items()] == \
        [(m["name"], m["unit"]) for m in declared]
    assert proc.stdout.startswith("# cascadesim benchmark")
    assert "blas_threads=1" in proc.stdout and "CASCADESIM_WORKERS=1" in proc.stdout


def test_traced_counts_repeat_and_self_times_add_up():
    results = [_result(_bench("cli-roundtrip", 1)) for _ in range(2)]
    counts = [{k: r["metrics"][k]["value"] for k in EXACT} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["liouvillian.apply_calls"] > 0 and counts[0]["cli.bytes_written"] > 0
    m = {k: v["value"] for k, v in results[0]["metrics"].items()}
    layers = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers + m["trace.unattributed_s"] == pytest.approx(m["trace.wall_s"], abs=1e-12)
    assert m["trace.unattributed_s"] >= 0.0


def test_same_seed_same_inputs():
    for w in inputs.WORKLOADS:
        assert inputs.job_inputs(w, 5, 2, "full") == inputs.job_inputs(w, 5, 2, "full")
        assert inputs.job_inputs(w, 5, 2, "full") != inputs.job_inputs(w, 6, 2, "full")


def test_gate_rejects_perturbed_result_and_counts_it_as_failed(tmp_path):
    spec = {"workload": "laser-ensemble", "size": "smoke", "job": "t", "trace": False,
            "params": inputs.job_inputs("laser-ensemble", 0, 0, "smoke"),
            "workdir": str(tmp_path)}
    out = jobs.solve_laser_ensemble(spec["params"], spec["workdir"])
    timings = {"solve_s": 2.0, "setup_s": 0.2, "peak_rss_mb": 40.0}
    good = jobs.finish(spec, out, timings)
    assert good["ok"]

    rho = out["ensemble"].rho_avg[-1]
    rho.mat[0, 0] += 1e-6  # trace off by 1e-6: a fast but wrong result
    bad = jobs.finish(spec, out, {"solve_s": 0.5, "setup_s": 0.1, "peak_rss_mb": 30.0})
    assert not bad["ok"] and "solve_s" not in bad
    assert [g["label"] for g in bad["gates"] if not g["passed"]] == \
        ["max |trace - 1| of stored averages"]

    metrics, samples = run.end_to_end_metrics([good, bad])
    assert samples["solve_s"] == [2.0]  # the wrong job contributes no timing
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    res = run.result([good, bad], metrics, declared)
    assert (res["correct"], res["attempted"], res["failed"]) == (False, 2, 1)


def test_tracer_restores_the_package_and_nests_spans():
    cfg = cs.CouplingConfig()
    spec = cs.FockSpec(3)
    L = cs.build_L_T(cfg, spec) + cs.build_L_ST(cfg, spec)
    rho0 = cs.DensityOperator(np.kron(np.diag([1.0, 0, 0, 0]), np.diag([1.0, 0])))
    tracer = spans.Tracer()
    with tracer.job():
        cs.evolve_master(rho0, L, cs.TimeGrid(0.0, 0.01, 0.005))
    assert cs.evolve.apply is cs.liouvillian.apply is cs.apply
    assert not hasattr(cs.DensityOperator.check, "__wrapped__")
    assert tracer.count("liouvillian.apply") == 8
    assert tracer.count("hilbert.check") == 2
    for name, t0, t1, parent in tracer.spans[1:]:
        _, p0, p1, _ = tracer.spans[parent]
        assert p0 <= t0 <= t1 <= p1
    assert tracer.first_integration == next(
        s[1] for s in tracer.spans if s[0] == "evolve.evolve_master")


def test_fails_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("cli-roundtrip", 0, cwd=tmp_path, root=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
