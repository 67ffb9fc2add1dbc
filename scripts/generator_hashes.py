#!/usr/bin/env python3
"""SHA-256 of the gather form of every generator the bundled presets build,
and of 24 generators at drawn rates, one line each.

    python scripts/generator_hashes.py

A line is a generator's name and the hash of its compiled (index, weight)
bytes.  The generators are built from band maps with no matrix product, so
no line may depend on the BLAS kernel: running this once at OpenBLAS's
default kernel and once under OPENBLAS_CORETYPE=Nehalem (no fused
multiply-add) must print the same lines.
"""

import hashlib
from importlib import resources

import numpy as np

from cascadesim import cli
from cascadesim.acceptance import load_preset
from cascadesim.hilbert import FockSpec
from cascadesim.liouvillian import CouplingConfig, build_L_ST, build_L_T, regroup
from cascadesim.sources import CoherentDrive, FreeDecayMixture, build_L_S

# drawn rate sets, each with a drawn n_max in 1..30
DRAWN = 24


def full(model, cfg, spec):
    return build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)


def generators():
    """(name, Superoperator) of each generator."""
    for name in ("bare_cavity", "coherent_drive"):
        with resources.as_file(resources.files("cascadesim.presets") / f"{name}.json") as path:
            cfg = cli.load_config(str(path))
        yield f"run-master {name}", full(cfg.source, cfg.coupling, cfg.spec)
    # A3 draws its configs as below, and regroups each generator
    p = load_preset("a3.json")
    spec = FockSpec(p["n_max"])
    rng = np.random.default_rng(p["seed"])
    for i in range(p["configs"]):
        cfg = CouplingConfig(*rng.uniform(0.2, 2.0, size=3), delta=rng.normal())
        if i % 2:
            model = FreeDecayMixture(((rng.normal() + 1j * rng.normal(), 1.0),))
        else:
            model = CoherentDrive(rng.normal() + 1j * rng.normal())
        L_S = build_L_S(model, spec)
        yield f"A3 config {i}", full(model, cfg, spec)
        for part, L in zip(("S", "T", "ST"), regroup(L_S, cfg)):
            yield f"A3 config {i} L'_{part}", L
    p = load_preset("a5.json")
    ident, red = p["identity"], p["reduced_target"]
    spec = FockSpec(ident["n_max"])
    yield "A5 L'_ST", regroup(build_L_S(FreeDecayMixture(((0.0, 1.0),)), spec),
                              CouplingConfig(**ident["coupling"]))[2]
    yield "A5 reduced target", full(CoherentDrive(complex(*red["epsilon"])),
                                    CouplingConfig(**red["coupling"]), FockSpec(red["n_max"]))
    # A6's generator is also perfbench ansatz-mixture's at its full size
    p = load_preset("a6.json")
    cfg, spec = CouplingConfig(**p["coupling"]), FockSpec(p["n_max"])
    yield "A6", build_L_T(cfg, spec) + build_L_ST(cfg, spec)
    p = load_preset("a8.json")
    yield "A8", full(CoherentDrive(complex(*p["epsilon"])), CouplingConfig(**p["coupling"]),
                     FockSpec(p["n_max"]))
    cav = load_preset("a9.json")["cavity"]
    yield "A9", build_L_ST(CouplingConfig(cav["gamma_S"], 0.0, 0.0), FockSpec(cav["n_max"]))
    rng = np.random.default_rng(2024)
    for i in range(DRAWN):
        # every third set without a forward channel, every fourth without a side one
        gS, gTf, gTs = rng.uniform(0.1, 2.0, size=3) * [1, i % 3 > 0, i % 4 > 0]
        cfg = CouplingConfig(gS, gTf, gTs, delta=rng.normal() * (i % 2))
        model = (CoherentDrive(complex(*rng.normal(size=2))) if i % 5
                 else FreeDecayMixture(((0.5, 1.0),)))
        yield f"drawn {i}", full(model, cfg, FockSpec(int(rng.integers(1, 31))))


def main():
    for name, L in generators():
        index, weight = L.compiled
        digest = hashlib.sha256(index.tobytes() + weight.tobytes()).hexdigest()
        print(f"{name}: {digest}")


if __name__ == "__main__":
    main()
