import contextlib
import copy
import io
import json
import math
import os
import tempfile
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cascadesim.evolve as evolve
import cascadesim.liouvillian as liouvillian
from cascadesim.cli import (
    BASIS_ORDERING,
    OBSERVABLE_BLOCK,
    _Observables,
    _observable_rows,
    load_config,
    main,
    state_dump,
    write_csv,
)
from cascadesim.errors import ConfigError
from cascadesim.evolve import expectation
from cascadesim.hilbert import DensityOperator, FockSpec
from cascadesim.liouvillian import dense, ladders
from conftest import random_density


def load_preset_doc(name):
    with resources.files("cascadesim.presets").joinpath(name).open() as f:
        return json.load(f)


def write_config(tmp_path, doc, fname="config.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def read_csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.strip().split(",") for line in f if line.strip()]
    return header, rows


def column(header, rows, name, cast=float):
    i = header.index(name)
    return [cast(r[i]) for r in rows]


class TestRunMaster:
    def test_bare_cavity_decay_oracle(self, tmp_path):
        doc = load_preset_doc("bare_cavity.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-master", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "observables.csv")
        times = column(header, rows, "time")
        photons = column(header, rows, "source_photons")
        for t, n in zip(times, photons):
            assert abs(n - np.exp(-t)) < 1e-8
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["command"] == "run-master"
        assert manifest["n_max"] == doc["n_max"]
        dump = json.loads((tmp_path / "out" / "final_state.json").read_text())
        assert "basis_ordering" in dump
        assert len(dump["matrix"]) == dump["dim"]

    def test_zero_drive_is_constant(self, tmp_path):
        doc = {
            "coupling": {"gamma_S": 1.0, "gamma_Tf": 0.5, "gamma_Ts": 0.5},
            "source": {"kind": "free_decay", "amplitudes": [[0.0, 0.0, 1.0]]},
            "initial": {"kind": "fock", "n": 0, "qubit": "ground"},
            "n_max": 2,
            "grid": {"t0": 0.0, "t1": 1.0, "dt": 0.01},
            "store_every": 10,
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run-master", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "observables.csv")
        assert max(column(header, rows, "source_photons")) < 1e-12
        assert min(column(header, rows, "purity")) > 1 - 1e-10

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text('{\n  "n_max": 3,\n  oops\n}')
        assert main(["run-master", str(path)]) == 2
        err = capsys.readouterr().err
        assert "bad.json:3:" in err

    def test_missing_key_exits_2(self, tmp_path, capsys):
        doc = {"n_max": 3, "grid": {"t1": 1.0, "dt": 0.1}}
        assert main(["run-master", write_config(tmp_path, doc)]) == 2
        assert "source" in capsys.readouterr().err

    def test_birth_death_has_no_master_form(self, tmp_path):
        doc = load_preset_doc("birth_death.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-master", write_config(tmp_path, doc)]) == 2


class TestRunTrajectories:
    def test_reproducible_bytes(self, tmp_path):
        doc = load_preset_doc("birth_death.json")
        doc["seeds"] = {"start": 0, "count": 2}
        doc["grid"] = {"t0": 0.0, "t1": 1.0, "dt": 0.001}
        doc["output_dir"] = str(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert main(["run-trajectories", cfg]) == 0
        files = ["observables.csv", "trajectories.csv", "ensemble_state.json",
                 os.path.join("records", "record_0.csv")]
        first = {f: (tmp_path / "out" / f).read_bytes() for f in files}
        assert main(["run-trajectories", cfg]) == 0
        for f in files:
            assert (tmp_path / "out" / f).read_bytes() == first[f]

    @staticmethod
    def outputs_at_worker_counts(tmp_path, monkeypatch, doc):
        """Each output file's bytes at 1, 2 and 3 workers, in blocks of three seeds."""
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 3)
        outputs = []
        for workers in (1, 2, 3):
            monkeypatch.setenv("CASCADESIM_WORKERS", str(workers))
            out = tmp_path / f"out{workers}"
            doc["output_dir"] = str(out)
            assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0
            names = ["observables.csv", "trajectories.csv", "ensemble_state.json"]
            names += [os.path.join("records", f) for f in sorted(os.listdir(out / "records"))]
            outputs.append({f: (out / f).read_bytes() for f in names})
        return outputs

    def test_worker_count_does_not_change_bytes(self, tmp_path, monkeypatch):
        # ten seeds in blocks of three make four blocks, so the pool runs
        doc = load_preset_doc("birth_death.json")
        doc["grid"]["t1"] = 0.5
        assert doc["seeds"]["count"] == 10
        outputs = self.outputs_at_worker_counts(tmp_path, monkeypatch, doc)
        assert len(outputs[0]) == 13
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_worker_count_does_not_change_dense_row_bytes(self, tmp_path, monkeypatch):
        # ten seeds make blocks of 3, 3, 3 and 1.  In-process, a dense row's
        # BLAS products are taken per block, as on the pool: a one-row
        # product rounds unlike the same row in a larger one
        doc = load_preset_doc("coherent_drive.json")
        doc["seeds"]["count"] = 10
        outputs = self.outputs_at_worker_counts(tmp_path, monkeypatch, doc)
        assert len(outputs[0]) == 13
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_coherent_drive_entropy_column(self, tmp_path):
        doc = load_preset_doc("coherent_drive.json")
        doc["seeds"] = {"start": 0, "count": 4}
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert max(column(header, rows, "max_schmidt_entropy")) < 1e-6
        for seed in range(4):
            assert (tmp_path / "out" / "records" / f"record_{seed}.csv").exists()

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("preset", ["birth_death.json", "coherent_drive.json"])
    def test_trajectories_columns(self, tmp_path, preset):
        doc = load_preset_doc(preset)
        doc["seeds"] = {"start": 0, "count": 5}
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert header == ["seed", "events", "forward_f", "side_s", "pump", "gain",
                          "nonlasing", "max_schmidt_entropy"]
        assert [len(row) for row in rows] == [8] * 5

    def test_product_rows_write_no_negative_zero(self, tmp_path):
        # a Fock photon decaying from an uncoupled qubit's ground state: every
        # row is a product, so its largest entropy is an exact zero, written 0
        doc = load_preset_doc("bare_cavity.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert column(header, rows, "max_schmidt_entropy", str) == ["0"]
        assert not any("-0" in row for row in rows)

    def test_step_probability_violation_exits_3(self, tmp_path, capsys):
        doc = {
            "coupling": {"gamma_S": 1.0, "gamma_Tf": 0.0, "gamma_Ts": 0.0},
            "source": {"kind": "free_decay", "amplitudes": [[0.0, 0.0, 1.0]]},
            "initial": {"kind": "fock", "n": 5, "qubit": "ground"},
            "n_max": 6,
            "grid": {"t0": 0.0, "t1": 1.0, "dt": 0.05},
            "seeds": {"start": 0, "count": 1},
            "output_dir": str(tmp_path / "out"),
        }
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 3
        assert "reduce dt" in capsys.readouterr().err

    def test_carrier_beyond_int64_exits_3(self, tmp_path, capsys):
        # a pump on a carrier count of 2**63 - 1 would wrap the int64 around
        doc = short_preset("birth_death.json")
        doc["output_dir"] = str(tmp_path / "out")
        doc["source"].update(N0=2**63 - 1, pump_rate=50.0, gain_per_carrier=0.0,
                             nonlasing_rate=0.0)
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:") and "carrier count left int64" in err
        assert not (tmp_path / "out").exists()

    FAILING = {
        # the cavity fills until its emission crosses the hard step bound
        "dense_bound": {"source": {"kind": "coherent_drive", "epsilon": [1.5, 0.0]},
                        "n_max": 8, "grid": {"t0": 0.0, "t1": 4.0, "dt": 0.02}},
        # the carrier grows until pump and gain cross it
        "sector_bound": {"source": {"kind": "birth_death", "pump_rate": 5.0,
                                    "gain_per_carrier": 0.5, "nonlasing_rate": 0.0,
                                    "N0": 2, "n0": 1},
                         "grid": {"t0": 0.0, "t1": 4.0, "dt": 0.01}},
        # a detuning of 1e160 overflows the squared norm within a few steps
        "dense_non_finite": {"source": {"kind": "coherent_drive", "epsilon": [0.3, 0.0]},
                             "delta": 1e160},
        "sector_non_finite": {"source": {"kind": "birth_death", "pump_rate": 1.0,
                                         "gain_per_carrier": 0.5, "nonlasing_rate": 0.3,
                                         "N0": 2, "n0": 1},
                              "delta": 1e160},
    }

    @pytest.mark.filterwarnings("ignore:step probability", "ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failure_across_blocks_exits_3(self, tmp_path, capsys, monkeypatch, case, workers):
        # five seeds in blocks of two: three blocks, in-process or on a pool
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        monkeypatch.setenv("CASCADESIM_WORKERS", str(workers))
        doc = {
            "coupling": {"gamma_S": 1.0, "gamma_Tf": 0.5, "gamma_Ts": 0.5},
            "initial": {"kind": "fock", "n": 1, "qubit": "ground"},
            "n_max": 4,
            "grid": {"t0": 0.0, "t1": 0.1, "dt": 0.001},
            "seeds": {"start": 0, "count": 5},
            "output_dir": str(tmp_path / "out"),
        }
        spec = copy.deepcopy(self.FAILING[case])
        doc["coupling"]["delta"] = spec.pop("delta", 0.0)
        doc.update(spec)
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("invariant violation:")
        assert ("reduce dt" if case.endswith("bound") else "non-finite drift norm") in err

    # a count below one is refused too, not run in-process
    @pytest.mark.parametrize("value", ["abc", "0", "-2"])
    def test_malformed_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("CASCADESIM_WORKERS", value)
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "CASCADESIM_WORKERS" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", ["gamma_S", "gamma_Ts"])
    def test_nan_rate_exits_2(self, tmp_path, capsys, rate):
        doc = load_preset_doc("birth_death.json")
        doc["coupling"][rate] = float("nan")  # json writes the bare token NaN
        doc["output_dir"] = str(tmp_path / "out")
        path = write_config(tmp_path, doc)
        assert "NaN" in open(path).read()
        assert main(["run-trajectories", path]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestFreeDecayAmplitudes:
    @pytest.mark.parametrize("command", ["run-master", "run-trajectories"])
    def test_amplitudes_do_not_change_a_run(self, tmp_path, command):
        # a free_decay source's amplitudes feed only sources.classical_paths;
        # both run commands start from `initial`, so every file but the
        # manifest's echo of the config is the same
        doc = load_preset_doc("bare_cavity.json")
        doc["coupling"].update(gamma_Tf=0.5, gamma_Ts=0.5)
        doc["seeds"] = {"start": 0, "count": 3}
        outputs, manifests = [], []
        for i, amplitudes in enumerate([[[0.0, 0.0, 1.0]],
                                        [[1.5, 0.3, 0.5], [-1.5, -0.3, 0.5]]]):
            out = tmp_path / f"out{i}"
            doc["source"]["amplitudes"] = amplitudes
            doc["output_dir"] = str(out)
            assert main([command, write_config(tmp_path, doc)]) == 0
            names = sorted(os.path.relpath(os.path.join(root, f), out)
                           for root, _, files in os.walk(out) for f in files)
            outputs.append({f: (out / f).read_bytes() for f in names if f != "manifest.json"})
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["source"]["amplitudes"] == amplitudes
            del manifest["source"]["amplitudes"], manifest["output_dir"]
            manifests.append(manifest)
        assert len(outputs[0]) == (2 if command == "run-master" else 6)
        assert outputs[1] == outputs[0]
        assert manifests[1] == manifests[0]


class TestStoredTimes:
    @pytest.mark.filterwarnings("ignore:step probability")
    def test_run_commands_write_one_time_column(self, tmp_path):
        doc = load_preset_doc("coherent_drive.json")
        doc["seeds"] = {"start": 0, "count": 3}
        columns = []
        for command in ("run-master", "run-trajectories"):
            doc["output_dir"] = str(tmp_path / command)
            assert main([command, write_config(tmp_path, doc)]) == 0
            columns.append(column(*read_csv(tmp_path / command / "observables.csv"), "time"))
        assert columns[0] == columns[1]
        g, k = doc["grid"], doc["store_every"]
        steps = range(0, round((g["t1"] - g["t0"]) / g["dt"]) + 1, k)
        assert k > 1 and columns[0] == [g["t0"] + step * g["dt"] for step in steps]


class TestConfigValidation:
    @pytest.mark.parametrize("command, key, value", [
        ("run-master", "store_every", 0),
        ("run-master", "store_every", -2),
        ("run-master", "store_every", 2.0),
        ("run-trajectories", "seeds", [3, -1]),
        ("run-trajectories", "seeds", {"start": -5, "count": 2}),
        ("run-trajectories", "seeds", {"start": 0, "count": 0}),
        ("run-trajectories", "seeds", []),
        ("run-trajectories", "seeds", [3, 3]),
        ("run-trajectories", "seeds", [0, True]),
        ("run-trajectories", "seeds", {"start": 0, "count": True}),
        ("run-trajectories", "seeds", {"start": True, "count": 2}),
        # a bool is not a real number, though Python counts True as 1
        ("run-master", "coupling", {"gamma_S": True, "gamma_Tf": 0.5, "gamma_Ts": 0.5}),
        ("run-master", "coupling", {"delta": True}),
        ("run-master", "grid", {"t0": 0.0, "t1": True, "dt": 0.01}),
        ("run-master", "grid", {"t0": False, "t1": 0.1, "dt": 0.01}),
    ])
    def test_malformed_value_exits_2(self, tmp_path, capsys, command, key, value):
        doc = load_preset_doc("coherent_drive.json")
        doc["grid"] = {"t0": 0.0, "t1": 0.1, "dt": 0.01}
        doc[key] = value
        doc["output_dir"] = str(tmp_path / "out")
        assert main([command, write_config(tmp_path, doc)]) == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("rate", ["pump_rate", "gain_per_carrier", "nonlasing_rate"])
    def test_nan_birth_death_rate_exits_2(self, tmp_path, capsys, rate):
        doc = load_preset_doc("birth_death.json")
        doc["source"][rate] = float("nan")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 2
        assert "finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("preset, command, path, value", [
        ("coherent_drive.json", "run-master", ("coupling",), "x"),
        ("coherent_drive.json", "run-trajectories", ("grid",), None),
        ("coherent_drive.json", "run-trajectories", ("seeds",), 7),
        ("coherent_drive.json", "run-master", ("grid", "t0"), float("inf")),
        ("coherent_drive.json", "run-master", ("initial", "alpha", 0), float("nan")),
        ("coherent_drive.json", "run-trajectories", ("output_dir",), None),
        ("coherent_drive.json", "run-master", ("name",), float("nan")),
        ("birth_death.json", "run-trajectories", ("source", "N0"), float("nan")),
        ("birth_death.json", "run-trajectories", ("source", "N0"), True),
        ("birth_death.json", "run-trajectories", ("source", "n0"), True),
        ("bare_cavity.json", "run-master", ("source", "amplitudes", 0, 2), float("nan")),
        ("bare_cavity.json", "run-master", ("initial", "n"), 1.5),
        ("bare_cavity.json", "run-master", ("initial", "n"), True),
        ("coherent_drive.json", "run-master", ("n_max",), True),
        ("coherent_drive.json", "run-master", ("coupling", "gamma_Ts"), True),
        ("coherent_drive.json", "run-master", ("source", "epsilon", 0), True),
        ("coherent_drive.json", "run-master", ("source", "epsilon"), ["0.3"]),
        ("coherent_drive.json", "run-trajectories", ("initial", "alpha", 1), True),
        pytest.param("coherent_drive.json", "run-master", ("coupling", "gamma_S"), 10 ** 400,
                     id="gamma_S-int-beyond-float"),
        ("bare_cavity.json", "run-master", ("source", "amplitudes", 0, 0), True),
        ("bare_cavity.json", "run-master", ("source", "amplitudes", 0, 2), True),
        ("birth_death.json", "run-trajectories", ("source", "pump_rate"), True),
    ])
    def test_malformed_entry_exits_2(self, tmp_path, capsys, preset, command, path, value):
        doc = short_preset(preset)
        doc["output_dir"] = str(tmp_path / "out")
        mutate(doc, path, value)
        assert main([command, write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not (tmp_path / "out").exists()

    def test_seeds_without_count_exits_2(self, tmp_path, capsys):
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(tmp_path / "out")
        doc["seeds"] = {"start": 0}
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "config error: missing key 'count' in seeds\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("amplitudes", [[[0.0, 1.0]], [[0.0, 0.0, 1.0, 2.0]], [1], 1.0])
    def test_amplitudes_not_triples_exit_2(self, tmp_path, capsys, amplitudes):
        doc = short_preset("bare_cavity.json")
        doc["output_dir"] = str(tmp_path / "out")
        doc["source"]["amplitudes"] = amplitudes
        assert main(["run-master", write_config(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "config error: source.amplitudes must be a list of [re, im, weight] triples, "
            f"got {amplitudes!r}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("path, value", [
        (("initial",), {"kind": "coherent", "alpha": [0.5, 0.0]}),
        (("initial", "n"), 2),
        (("initial", "qubit"), "excited"),
        (("source", "n0"), 2),
    ])
    def test_birth_death_initial_outside_sector_exits_2(self, tmp_path, capsys, path, value):
        # the preset starts in |1, ground>, in the sector of n0 = 1
        doc = short_preset("birth_death.json")
        doc["output_dir"] = str(tmp_path / "out")
        mutate(doc, path, value)
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "quanta sector" in err
        assert not (tmp_path / "out").exists()

    def test_birth_death_initial_in_sector_runs(self, tmp_path):
        # |0, excited> is the other basis state of the sector of n0 = 1
        doc = short_preset("birth_death.json")
        doc["output_dir"] = str(tmp_path / "out")
        doc["initial"] = {"kind": "fock", "n": 0, "qubit": "excited"}
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0

    @pytest.mark.parametrize("preset, command, path, value, message", [
        ("bare_cavity.json", "run-master", ("grid",), {"t0": 0.0, "t1": 1e300, "dt": 1e-300},
         "is not finite"),
        ("coherent_drive.json", "run-trajectories", ("grid",),
         {"t0": -1e308, "t1": 1e308, "dt": 1.0}, "is not finite"),
        ("birth_death.json", "run-trajectories", ("source", "N0"), 2**63, "below 2**63"),
        ("birth_death.json", "run-trajectories", ("source", "N0"), 2**70, "below 2**63"),
        # 1e14 stored times, 728 TiB: beyond the address space, refused at once
        ("bare_cavity.json", "run-master", ("grid",), {"t0": 0.0, "t1": 1e15, "dt": 1.0},
         "too large to hold in memory"),
    ])
    def test_value_beyond_machine_range_exits_2(self, tmp_path, capsys, preset, command, path,
                                                 value, message):
        # a step count that overflows a float, or a carrier count beyond int64
        doc = short_preset(preset)
        doc["output_dir"] = str(tmp_path / "out")
        mutate(doc, path, value)
        assert main([command, write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("[1, 2]")
        assert main(["run-master", str(path)]) == 2
        assert "JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("preset, command, changes, message", [
        # |alpha|^2 overflows a float
        pytest.param("coherent_drive.json", "run-master",
                     {"initial": {"kind": "coherent", "alpha": [1e200, 0]}}, "initial.alpha",
                     id="alpha-overflows-master"),
        pytest.param("coherent_drive.json", "run-trajectories",
                     {"initial": {"kind": "coherent", "alpha": [1e200, 0]}}, "initial.alpha",
                     id="alpha-overflows-trajectories"),
        # every amplitude up to the cutoff underflows to zero
        pytest.param("coherent_drive.json", "run-master",
                     {"n_max": 12, "initial": {"kind": "coherent", "alpha": [40, 0]}},
                     "at n_max 12", id="alpha-beyond-cutoff"),
        # its (d, d) operators are refused as the config loads
        pytest.param("bare_cavity.json", "run-master", {"n_max": 5 * 10**6},
                     "too large to hold in memory", id="operators-beyond-memory"),
    ])
    def test_unrepresentable_config_exits_2(self, tmp_path, capsys, preset, command, changes,
                                            message):
        doc = short_preset(preset)
        doc["output_dir"] = str(tmp_path / "out")
        doc.update(changes)
        assert main([command, write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err
        assert not (tmp_path / "out").exists()

    def test_generator_beyond_gather_bound_exits_2(self, tmp_path, capsys, monkeypatch):
        # the generator's gather form is refused before anything is written;
        # at the real bound coherent_drive.json meets it at n_max 800
        monkeypatch.setattr(liouvillian, "MAX_GATHER_ENTRIES", 1000)
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-master", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "gather form" in err
        assert not (tmp_path / "out").exists()

    def test_generator_beyond_gather_bound_is_refused_cheaply(self, tmp_path, capsys):
        # at n_max 800 (d 1602) the band maps are refused while the gather
        # form's shifts are collected, before any (d, d) array exists: one
        # such array alone is 41 MB
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(tmp_path / "out")
        doc["n_max"] = 800
        path = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert main(["run-master", path]) == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "gather form" in err
        assert peak < 64 * 2**20
        assert not (tmp_path / "out").exists()

    def test_operators_beyond_the_gather_bound_are_refused_at_load(self, tmp_path):
        # d^2 exceeds liouvillian.MAX_GATHER_ENTRIES from n_max 2048 on; the
        # config is refused before its initial state is read, here a missing one
        doc = short_preset("bare_cavity.json")
        doc["n_max"] = 2047
        assert load_config(write_config(tmp_path, doc)).spec.n_max == 2047
        doc["n_max"] = 2048
        del doc["initial"]
        with pytest.raises(ConfigError, match="too large to hold in memory"):
            load_config(write_config(tmp_path, doc))

    @pytest.mark.parametrize("preset, path, value", [
        ("coherent_drive.json", ("coupling", "gamma_s"), 2.0),
        ("coherent_drive.json", ("store_evry",), 5),
        ("coherent_drive.json", ("source", "epsilonn"), [0.1, 0.0]),
        ("coherent_drive.json", ("grid", "DT"), 0.001),
        ("coherent_drive.json", ("initial", "qbit"), "excited"),
        ("coherent_drive.json", ("seeds", "stride"), 2),
        # keys of another kind of source or initial state
        ("bare_cavity.json", ("source", "epsilon"), [0.1, 0.0]),
        ("coherent_drive.json", ("initial", "n"), 1),
        ("birth_death.json", ("initial", "alpha"), [0.1, 0.0]),
    ], ids=["coupling.gamma_s", "store_evry", "source.epsilonn", "grid.DT", "initial.qbit",
            "seeds.stride", "free_decay-epsilon", "coherent-n", "fock-alpha"])
    def test_unknown_key_exits_2(self, tmp_path, capsys, preset, path, value):
        # a misspelt key must not be read as the default of the key it meant
        doc = short_preset(preset)
        doc["output_dir"] = str(tmp_path / "out")
        mutate(doc, path, value)
        config = write_config(tmp_path, doc)
        assert main(["run-master", config]) == 2
        section = path[0] if len(path) > 1 else config
        assert capsys.readouterr().err == (f"config error: unknown key {path[-1]!r} "
                                           f"in {section}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_output_dir_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, below):
        # refused as the config loads, before the run is computed
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(taken / "out" if below else taken)
        assert main(["run-master", write_config(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: output_dir") and "cannot be a directory" in err
        assert taken.read_text() == "kept\n"
        assert sorted(os.listdir(tmp_path)) == ["config.json", "taken"]

    def test_output_dir_below_missing_directories_runs(self, tmp_path):
        doc = short_preset("coherent_drive.json")
        doc["output_dir"] = str(tmp_path / "a" / "b")
        assert main(["run-master", write_config(tmp_path, doc)]) == 0
        assert (tmp_path / "a" / "b" / "observables.csv").is_file()

    @pytest.mark.parametrize("name", ["missing.json", "."])
    def test_unreadable_config_exits_2(self, tmp_path, capsys, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        assert main(["run-master", str(tmp_path / name)]) == 2
        assert capsys.readouterr().err.startswith("config error: cannot read")
        assert os.listdir(tmp_path) == []


class TestObservableRows:
    def test_matches_per_row_expectation(self, rng):
        spec = FockSpec(4)
        rhos = [random_density(spec.dim, rng) for _ in range(OBSERVABLE_BLOCK)]
        times = 0.1 * np.arange(len(rhos))
        rows = _observable_rows(times, np.stack([rho.mat for rho in rhos]),
                                _Observables(times, spec).ops)
        assert len(rows) == len(rhos)
        a, b = (dense(op, spec.dim) for op in ladders(spec))
        n, pe = a.conj().T @ a, b.conj().T @ b
        for t, rho, row in zip(times, rhos, rows):
            ea, eb = expectation(rho.mat, a), expectation(rho.mat, b)
            expected = [t, ea.real, ea.imag, expectation(rho.mat, n).real, eb.real, eb.imag,
                        expectation(rho.mat, pe).real, np.trace(rho.mat @ rho.mat).real]
            assert all(type(v) is float for v in row)
            assert np.max(np.abs(np.array(row) - expected)) <= 1e-14

    def test_observer_matches_one_call(self, rng):
        spec = FockSpec(4)
        # crosses two block boundaries
        rhos = [random_density(spec.dim, rng) for _ in range(2 * OBSERVABLE_BLOCK + 5)]
        times = 0.1 * np.arange(len(rhos))
        obs = _Observables(times, spec)
        for rho in rhos:
            obs(rho)
            assert obs.filled < OBSERVABLE_BLOCK
        stack = np.stack([rho.mat for rho in rhos])
        rows = []
        for start in range(0, len(rhos), OBSERVABLE_BLOCK):
            block = slice(start, start + OBSERVABLE_BLOCK)
            rows += _observable_rows(times[block], stack[block], obs.ops)
        header, table = obs.table()
        assert header == ["time", "re_source_amp", "im_source_amp", "source_photons",
                          "re_qubit_coherence", "im_qubit_coherence",
                          "excited_population", "purity"]
        assert table == rows
        assert obs.last is rhos[-1]


def per_value_csv(header, rows):
    """write_csv's text formatted one value at a time: the writer's oracle."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


# edge values of a float's text: signed zero, the smallest subnormal, the
# largest magnitudes, integral floats, and the non-finite ones
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0, 2.0**53, 1e16,
               math.nan, math.inf, -math.inf]


class TestWriters:
    """The run commands' writers give the bytes of the plain formatting."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(2, 30), seed=st.integers(0, 2**32 - 1),
           edges=st.lists(st.tuples(st.integers(0, 2 * 30 * 30 - 1), st.sampled_from(EDGE_FLOATS)),
                          max_size=6),
           t=st.floats())
    def test_state_dump_is_json_dumps(self, d, seed, edges, t):
        rng = np.random.default_rng(seed)
        # mantissas at every scale, and some integral values
        parts = rng.normal(size=2 * d * d) * 10.0 ** rng.integers(-320, 300, size=2 * d * d)
        integral = rng.random(2 * d * d) < 0.1
        parts[integral] = rng.integers(-1000, 1000, size=integral.sum())
        for i, v in edges:
            parts[i % len(parts)] = v
        mat = parts.view(complex).reshape(d, d)
        spec = FockSpec(max(1, d // 2 - 1))
        doc = {"time": t, "n_max": spec.n_max, "dim": d, "basis_ordering": BASIS_ORDERING,
               "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in mat]}
        text = state_dump(DensityOperator(mat), spec, t)
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    VALUES = st.one_of(st.floats(), st.sampled_from(EDGE_FLOATS), st.floats().map(np.float64),
                       st.integers(-2**70, 2**70), st.booleans(),
                       st.text("ab_-.", max_size=6))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(header=st.lists(st.text("ab_", max_size=6), min_size=1, max_size=8),
           rows=st.lists(st.lists(VALUES, max_size=8), max_size=12))
    def test_write_csv_is_the_per_value_format(self, header, rows):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "table.csv")
            write_csv(path, header, rows)
            with open(path, newline="") as f:
                assert f.read() == per_value_csv(header, rows)


class TestStreamedStates:
    # 601 stored states of dim 26: holding them all takes 601 * 26^2 * 16 bytes
    HELD = 601 * 26 ** 2 * 16

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("command", ["run-master", "run-trajectories"])
    def test_run_holds_one_block_of_states(self, tmp_path, command):
        doc = load_preset_doc("coherent_drive.json")
        doc["store_every"] = 1
        doc["seeds"] = {"start": 0, "count": 4}
        doc["output_dir"] = str(tmp_path / "out")
        assert (doc["n_max"], doc["grid"]["t1"] / doc["grid"]["dt"]) == (12, 600)
        cfg = write_config(tmp_path, doc)
        tracemalloc.start()
        try:
            assert main([command, cfg]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        _, rows = read_csv(tmp_path / "out" / "observables.csv")
        assert len(rows) == 601
        assert peak < self.HELD / 3


class TestVerify:
    def test_single_fast_suite(self, tmp_path, capsys):
        out = str(tmp_path / "verdict")
        assert main(["verify", "--suite", "A3", "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "A3  PASS" in stdout
        verdict = json.loads((tmp_path / "verdict" / "verdict.json").read_text())
        assert verdict["passed"] is True
        assert verdict["criteria"][0]["name"] == "A3"
        assert verdict["criteria"][0]["checks"][0]["passed"] is True

    def test_numpy_measured_suite(self, tmp_path, capsys):
        # A1 measures numpy floats; its verdict must still serialize
        out = str(tmp_path / "verdict")
        assert main(["verify", "--suite", "A1", "--out", out]) == 0
        verdict = json.loads((tmp_path / "verdict" / "verdict.json").read_text())
        assert verdict["passed"] is True
        assert all(c["passed"] is True for c in verdict["criteria"][0]["checks"])

    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        assert main(["verify", "--suite", "A17", "--out", str(tmp_path)]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_out_that_is_a_file_exits_2_before_the_suite_runs(self, tmp_path, capsys,
                                                              monkeypatch):
        import cascadesim.acceptance as acceptance

        monkeypatch.setattr(acceptance, "run_suite", lambda names: pytest.fail("suite ran"))
        taken = tmp_path / "taken"
        taken.write_text("kept\n")
        assert main(["verify", "--suite", "A3", "--out", str(taken)]) == 2
        assert capsys.readouterr().err.startswith("config error: --out")
        assert taken.read_text() == "kept\n"

    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_bad_worker_count_exits_2(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("CASCADESIM_WORKERS", value)
        assert main(["verify", "--suite", "A3", "--out", str(tmp_path / "v")]) == 2
        assert capsys.readouterr().err.startswith("config error: CASCADESIM_WORKERS")
        assert not (tmp_path / "v").exists()


class TestInternalError:
    def test_unexpected_exception_exits_4(self, tmp_path, capsys, monkeypatch):
        import cascadesim.cli as cli

        def broken(*args, **kwargs):
            raise RuntimeError("integrator exploded")

        monkeypatch.setattr(cli, "evolve_master", broken)
        doc = load_preset_doc("bare_cavity.json")
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-master", write_config(tmp_path, doc)]) == 4
        err = capsys.readouterr().err
        assert err == "internal error: RuntimeError: integrator exploded\n"
        assert "Traceback" not in err


RUNNABLE_PRESETS = ("bare_cavity.json", "birth_death.json", "coherent_drive.json")


def short_preset(name):
    """A runnable preset cut to t1 = 0.1 (whole stored steps for each) and at
    most two seeds, so that one run takes milliseconds."""
    doc = load_preset_doc(name)
    doc["grid"]["t1"] = 0.1
    doc["seeds"]["count"] = min(doc["seeds"]["count"], 2)
    doc["output_dir"] = "out"
    return doc


def key_paths(node, prefix=()):
    """Every key or list index path in a parsed JSON document."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


MISSING = object()
BAD_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.integers(-3, -1),
    st.floats(-10.0, -1e-3),
    st.sampled_from(["x", None, True, [], {}, [1.0, "y"]]),
    st.just(MISSING),
)


def mutate(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    if value is MISSING:
        del parent[path[-1]]
    else:
        # a copy, so that a later mutation inside it leaves the strategy's
        # own list or dict as it was
        parent[path[-1]] = copy.deepcopy(value)


class TestConfigProperty:
    """A malformed config ends in a documented exit code, never exit 4 or a
    traceback."""

    @settings(max_examples=300, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data(), name=st.sampled_from(RUNNABLE_PRESETS),
           command=st.sampled_from(["run-master", "run-trajectories"]))
    def test_mutated_preset_exits_0_2_or_3(self, data, name, command):
        doc = short_preset(name)
        for _ in range(data.draw(st.integers(1, 2), label="mutations")):
            path = data.draw(st.sampled_from(sorted(key_paths(doc), key=repr)), label="path")
            mutate(doc, path, data.draw(BAD_VALUES, label="value"))
        err = io.StringIO()
        cwd = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            os.chdir(work)
            try:
                with open("config.json", "w") as f:
                    json.dump(doc, f)
                with contextlib.redirect_stderr(err), warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    code = main([command, "config.json"])
            finally:
                os.chdir(cwd)
        assert code in (0, 2, 3), (code, err.getvalue())
        assert "Traceback" not in err.getvalue()

