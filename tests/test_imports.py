"""Every module of the package, every test file and every script uses each
name it imports, a run loads neither the process pool nor the verification
suite unless it uses them, and numpy.random never loads: the trajectory
engine computes its PCG64 streams itself.

No linter is a dependency, so the check is made here on the syntax tree.
The package's __init__.py is exempt: its imports are the package's re-exports.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "cascadesim"
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TESTS_AND_SCRIPTS = sorted(str(p.relative_to(ROOT)) for p in
                           [*ROOT.glob("tests/*.py"), *ROOT.glob("scripts/*.py")])


def unused_imports(source: str) -> list:
    """Names that source binds by an import statement and never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"line {line}: {name}" for name, line in imported.items()
                  if name not in used)


def test_checker_finds_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom math import pi, tau as t\n"
                          "print(sys.argv, t)\n") == ["line 1: os", "line 3: pi"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("path", TESTS_AND_SCRIPTS)
def test_no_unused_imports_in_tests_and_scripts(path):
    assert unused_imports((ROOT / path).read_text()) == []


# Two seed blocks at one worker: the multi-block branch runs, in-process.
COLD_RUN = """
import sys
import cascadesim
import cascadesim.cli
from cascadesim import evolve
from cascadesim.hilbert import GROUND, FockSpec, fock_state, product_state, qubit_state

evolve.ENSEMBLE_BLOCK = 2
psi0 = product_state(fock_state(1, FockSpec(4)), qubit_state(GROUND))
ens = evolve.run_ensemble(psi0, cascadesim.CouplingConfig(1.0, 0.5, 0.5),
                          cascadesim.BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1),
                          evolve.TimeGrid(0.0, 0.05, 0.001), range(4), store_every=10)
assert len(ens.records) == 4 and len(ens.rho_avg) == 6
print(sorted(m for m in ("multiprocessing", "concurrent.futures", "cascadesim.acceptance")
             if m in sys.modules))
"""


def run_cold(code: str, cwd=None) -> str:
    """Run code in a fresh interpreter on the package's source, in cwd; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_a_one_worker_run_loads_neither_pool_nor_suite(monkeypatch):
    monkeypatch.setenv("CASCADESIM_WORKERS", "1")
    assert run_cold(COLD_RUN) == "[]"


# An undriven master-equation run, as the ansatz-mixture benchmark makes, a
# trajectory ensemble, then the run-trajectories command on a bundled preset
# at one worker, writing into the working directory.
NO_NUMPY_RANDOM = """
import sys
import cascadesim
import cascadesim.cli
from cascadesim import evolve
from cascadesim.hilbert import GROUND, DensityOperator, FockSpec, fock_state, product_state, qubit_state

spec = FockSpec(4)
psi0 = product_state(fock_state(1, spec), qubit_state(GROUND))
cfg = cascadesim.CouplingConfig(1.0, 0.5, 0.5)
grid = evolve.TimeGrid(0.0, 0.05, 0.001)
L = cascadesim.build_L_T(cfg, spec) + cascadesim.build_L_ST(cfg, spec)
states = evolve.evolve_master(DensityOperator(psi0.projector()), L, grid, store_every=10)
assert len(states) == 6
print("numpy.random" in sys.modules)
evolve.run_ensemble(psi0, cfg, cascadesim.BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1),
                    grid, range(4), store_every=10)
print("numpy.random" in sys.modules)
assert cascadesim.cli.main(["run-trajectories", {preset!r}]) == 0
print("numpy.random" in sys.modules)
"""


def test_numpy_random_never_loads(tmp_path, monkeypatch):
    monkeypatch.setenv("CASCADESIM_WORKERS", "1")
    code = NO_NUMPY_RANDOM.format(preset=str(PACKAGE / "presets" / "birth_death.json"))
    assert run_cold(code, cwd=tmp_path).split() == ["False", "False", "False"]
    assert (tmp_path / "out" / "birth-death" / "records" / "record_0.csv").is_file()
