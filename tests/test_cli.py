import json
import os
from importlib import resources

import numpy as np
import pytest

from cascadesim.cli import main


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

    def test_birth_death_span_column(self, tmp_path):
        doc = load_preset_doc("birth_death.json")
        doc["seeds"] = {"start": 0, "count": 5}
        doc["output_dir"] = str(tmp_path / "out")
        assert main(["run-trajectories", write_config(tmp_path, doc)]) == 0
        header, rows = read_csv(tmp_path / "out" / "trajectories.csv")
        assert max(column(header, rows, "max_span_residual")) < 1e-10

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


class TestConfigValidation:
    @pytest.mark.parametrize("command, key, value", [
        ("run-master", "store_every", 0),
        ("run-master", "store_every", -2),
        ("run-master", "store_every", 2.0),
        ("run-trajectories", "seeds", [3, -1]),
        ("run-trajectories", "seeds", {"start": -5, "count": 2}),
        ("run-trajectories", "seeds", {"start": 0, "count": 0}),
        ("run-trajectories", "seeds", []),
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
