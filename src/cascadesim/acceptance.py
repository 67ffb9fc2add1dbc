"""Verification suite: nine numbered criteria with frozen tolerances.

Each criterion is a self-contained check of one structural claim about the
cascaded source-qubit system (operator identities, conditional-state
structure, ensemble consistency, closed-form oracles).  Parameters live in
the bundled preset files so the suite runs without user-authored configs.
"""

from __future__ import annotations

import json
import time
import warnings
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .analysis import (
    PhaseAveragedSpec,
    negativity,
    phase_averaged_state,
    support_pattern_check,
    trace_distance,
)
from .ansatz import build_ansatz_state, drive_hamiltonian, solve_separated_target
from .errors import TruncationWarning
from .evolve import TimeGrid, evolve_master, expectation, run_ensemble
from .hilbert import (
    GROUND,
    TARGET,
    DensityOperator,
    FockSpec,
    add_product,
    coherent_state,
    fock_state,
    partial_trace,
    product_state,
    qubit_state,
    total_quanta,
)
from .liouvillian import (
    CouplingConfig,
    apply,
    build_H_ST,
    build_H_T,
    build_jump_ops,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
    dense,
    regroup,
    to_matrix,
)
from .sources import (
    BirthDeathLaser,
    ClassicalPath,
    CoherentDrive,
    FreeDecayMixture,
    build_L_S,
    classical_paths,
    unraveling,
)

GROUND_RHO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


@dataclass(frozen=True)
class Check:
    label: str
    tolerance: float
    measured: float
    larger_is_better: bool = False

    @property
    def passed(self) -> bool:
        # a Python bool even when measured is a numpy scalar, so verdicts serialize
        if self.larger_is_better:
            return bool(self.measured > self.tolerance)
        return bool(self.measured < self.tolerance)


@dataclass
class CriterionResult:
    name: str
    description: str
    checks: list
    seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def worst(self) -> Check:
        """The binding check: smallest margin relative to its tolerance."""

        def margin(c):
            if c.larger_is_better:
                return c.tolerance / c.measured if c.measured else np.inf
            return c.measured / c.tolerance if c.tolerance else np.inf

        return max(self.checks, key=margin)


def load_preset(name: str) -> dict:
    with resources.files("cascadesim.presets").joinpath(name).open() as f:
        return json.load(f)


def criterion_a1() -> CriterionResult:
    """Coherent source: every conditional trajectory state stays a product."""
    p = load_preset("a1.json")
    cfg = CouplingConfig(**p["coupling"])
    spec = FockSpec(p["n_max"])
    model = CoherentDrive(complex(*p["epsilon"]))
    psi0 = product_state(coherent_state(complex(*p["epsilon"]) * 2 / cfg.gamma_S,
                                        spec, warn=False),
                         qubit_state(GROUND))
    seeds = range(p["seed_start"], p["seed_start"] + p["trajectories"])
    ens = run_ensemble(psi0, cfg, model, TimeGrid(**p["grid"]), seeds,
                       store_every=p["store_every"])
    worst = max(ens.max_schmidt_entropies)
    return CriterionResult(
        "A1", p["description"],
        [Check("max conditional Schmidt entropy", p["entropy_tolerance"], worst)],
    )


def replay_records(psi0, config: CouplingConfig, model: BirthDeathLaser,
                   grid: TimeGrid, records):
    """Every birth-death record replayed on the full space: yields (psi, n),
    the (M, d) normalized states of the M records and the (M,) sectors they
    are predicted in, at t0 and after every step.

    The trajectory engine keeps only the two amplitudes of each trajectory's
    quanta sector, so it cannot see amplitude leave the sector.  Here every
    record is replayed densely from psi0, all records in lockstep, and no
    random number is drawn: at a step where the record has a quantum event
    the state becomes C_k psi, and at every other step it takes the
    first-order no-jump map psi - i dt H psi - (dt/2) N g a a^dag psi.  The
    carrier count N and the predicted sector n follow the recorded events;
    sector n is span{|n-1, excited>, |n, ground>}.  n is updated in place,
    so read it before the next state is drawn.
    """
    spec = FockSpec(psi0.dim // 2 - 1)
    H, channels = unraveling(model, config, spec)
    channels = {ch.label: ch for ch in channels}
    gain = channels["gain"].operator
    damp = 0.5 * grid.dt * np.real(np.diag(gain.conj().T @ gain))
    no_jump = (np.eye(spec.dim) - 1j * grid.dt * H).T
    # the (row, label) events of each step; a record's time of step k is t0 + (k + 1) dt
    at_step = {}
    for row, rec in enumerate(records):
        for t, label in rec.events:
            at_step.setdefault(round((t - grid.t0) / grid.dt) - 1, []).append((row, label))

    psi = np.tile(psi0.normalized().vec, (len(records), 1))
    carrier = np.full(len(records), model.N0)
    n = np.full(len(records), model.n0)
    yield psi, n
    for step in range(grid.n_steps):
        nxt = psi @ no_jump - (carrier[:, None] * damp) * psi
        for row, label in at_step.get(step, ()):
            ch = channels[label]
            if ch.operator is not None:
                nxt[row] = ch.operator @ psi[row]
            carrier[row] += ch.carrier_delta
            n[row] += ch.quanta_delta
        psi = nxt / np.linalg.norm(nxt, axis=1)[:, None]
        yield psi, n


def sector_residuals(psi0, config: CouplingConfig, model: BirthDeathLaser,
                     grid: TimeGrid, records) -> np.ndarray:
    """Largest out-of-sector amplitude of each birth-death record over its
    dense replay (replay_records)."""
    sector = total_quanta(psi0.dim)
    worst = np.zeros(len(records))
    for psi, n in replay_records(psi0, config, model, grid, records):
        outside = np.where(sector == n[:, None], 0.0, np.abs(psi) ** 2)
        np.maximum(worst, np.sqrt(outside.sum(axis=1)), out=worst)
    return worst


def criterion_a2() -> CriterionResult:
    """Birth-death source: states confined to one quanta sector, yet entangled."""
    p = load_preset("a2.json")
    cfg = CouplingConfig(**p["coupling"])
    spec = FockSpec(p["n_max"])
    model = BirthDeathLaser(**p["source"])
    psi0 = product_state(fock_state(model.n0, spec), qubit_state(GROUND))
    seeds = range(p["seed_start"], p["seed_start"] + p["trajectories"])
    grid = TimeGrid(**p["grid"])
    ens = run_ensemble(psi0, cfg, model, grid, seeds, store_every=p["store_every"])
    return CriterionResult(
        "A2", p["description"],
        [Check("max out-of-sector amplitude", p["span_tolerance"],
               float(sector_residuals(psi0, cfg, model, grid, ens.records).max())),
         Check("min per-trajectory peak entropy", p["entropy_floor"],
               min(ens.max_schmidt_entropies), larger_is_better=True)],
    )


def criterion_a3() -> CriterionResult:
    """Regrouped generators sum to the original cascaded generator exactly."""
    p = load_preset("a3.json")
    spec = FockSpec(p["n_max"])
    rng = np.random.default_rng(p["seed"])
    worst = 0.0
    for i in range(p["configs"]):
        cfg = CouplingConfig(*rng.uniform(0.2, 2.0, size=3), delta=rng.normal())
        if i % 2:
            model = FreeDecayMixture(((rng.normal() + 1j * rng.normal(), 1.0),))
        else:
            model = CoherentDrive(rng.normal() + 1j * rng.normal())
        L_S = build_L_S(model, spec)
        lhs = sum(to_matrix(L) for L in
                  (L_S, build_L_T(cfg, spec), build_L_ST(cfg, spec)))
        rhs = sum(to_matrix(L) for L in regroup(L_S, cfg))
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return CriterionResult(
        "A3", p["description"],
        [Check("max generator-matrix deviation", p["tolerance"], worst)],
    )


def criterion_a4() -> CriterionResult:
    """Drift operator equals coupling Hamiltonian minus half the damping."""
    p = load_preset("a4.json")
    spec = FockSpec(p["n_max"])
    d = spec.dim
    rng = np.random.default_rng(p["seed"])
    worst = 0.0
    for _ in range(p["configs"]):
        cfg = CouplingConfig(*rng.uniform(0.2, 2.0, size=3), delta=rng.normal())
        f, s = (dense(C, d) for C in build_jump_ops(cfg, spec))
        assembled = (dense(build_H_T(cfg, spec), d) + dense(build_H_ST(cfg, spec), d)
                     - 0.5j * (s.conj().T @ s) - 0.5j * (f.conj().T @ f))
        dev = float(np.max(np.abs(assembled - dense(build_nonhermitian_H(cfg, spec), d))))
        worst = max(worst, dev)
    return CriterionResult(
        "A4", p["description"],
        [Check("max drift-operator deviation", p["tolerance"], worst)],
    )


def criterion_a5() -> CriterionResult:
    """Coupling generator on a coherent projector reduces to a classical drive."""
    p = load_preset("a5.json")

    ident = p["identity"]
    cfg = CouplingConfig(**ident["coupling"])
    spec = FockSpec(ident["n_max"])
    rng = np.random.default_rng(ident["seed"])
    _, _, Lp_ST = regroup(build_L_S(FreeDecayMixture(((0.0, 1.0),)), spec), cfg)
    worst_id = 0.0
    for _ in range(ident["samples"]):
        alpha = (rng.uniform(0, ident["alpha_max"])
                 * np.exp(2j * np.pi * rng.uniform()))
        M = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho_T = M @ M.conj().T
        rho_T /= np.trace(rho_T)
        P = coherent_state(alpha, spec).projector()
        Hd = drive_hamiltonian(alpha, cfg)
        lhs = apply(Lp_ST, np.kron(P, rho_T))
        rhs = np.kron(P, -1j * (Hd @ rho_T - rho_T @ Hd))
        worst_id = max(worst_id, float(np.linalg.norm(lhs - rhs)))

    red = p["reduced_target"]
    cfg2 = CouplingConfig(**red["coupling"])
    spec2 = FockSpec(red["n_max"])
    model = CoherentDrive(complex(*red["epsilon"]))
    grid = TimeGrid(**red["grid"])
    store = red["store_every"]
    rho0 = DensityOperator(
        product_state(fock_state(0, spec2), qubit_state(GROUND)).projector()
    )
    L = (build_L_S(model, spec2) + build_L_T(cfg2, spec2) + build_L_ST(cfg2, spec2))
    full = evolve_master(rho0, L, grid, store_every=store)
    (path,) = classical_paths(model, cfg2, grid.times(), alpha0=0.0)
    cond = solve_separated_target(path, cfg2, GROUND_RHO)
    worst_td = 0.0
    for i, rho in enumerate(full):
        rT_full = DensityOperator(partial_trace(rho.mat, TARGET))
        worst_td = max(worst_td, trace_distance(rT_full, DensityOperator(cond[i * store])))
    return CriterionResult(
        "A5", p["description"],
        [Check("max Frobenius identity deviation", ident["tolerance"], worst_id),
         Check("max reduced-target trace distance", red["tolerance"], worst_td)],
    )


def criterion_a6() -> CriterionResult:
    """Mixture-of-products solution reproduces the full master equation."""
    p = load_preset("a6.json")
    cfg = CouplingConfig(**p["coupling"])
    spec = FockSpec(p["n_max"])
    grid = TimeGrid(**p["grid"])
    store = p["store_every"]
    K = p["amplitudes"]
    amps = tuple((p["radius"] * np.exp(2j * np.pi * k / K), 1.0 / K)
                 for k in range(K))
    model = FreeDecayMixture(amps)

    rho0 = np.zeros((spec.dim, spec.dim), dtype=complex)
    g_rho = np.outer(qubit_state(GROUND).vec, qubit_state(GROUND).vec)
    for a0, w in amps:
        add_product(rho0, w, coherent_state(a0, spec).vec, g_rho)
    L = build_L_T(cfg, spec) + build_L_ST(cfg, spec)
    full = evolve_master(DensityOperator(rho0), L, grid, store_every=store)

    # conditionals on a half-step grid so the central-difference probes reuse
    # the same solutions
    h = grid.dt / 2.0
    fine = TimeGrid(grid.t0, grid.t1, h)
    paths = classical_paths(model, cfg, fine.times())
    conds = [solve_separated_target(path, cfg, GROUND_RHO) for path in paths]

    def ansatz_at(fine_index):
        return build_ansatz_state(paths, conds, fine_index, spec)

    worst_td = 0.0
    worst_res = 0.0
    stored_fine = 2 * store  # fine indices between stored master times
    for i, rho_full in enumerate(full):
        j = i * stored_fine
        rho_a = ansatz_at(j)
        worst_td = max(worst_td, trace_distance(rho_a, rho_full))
        if 0 < i < len(full) - 1:
            ddt = (ansatz_at(j + 1).mat - ansatz_at(j - 1).mat) / (2.0 * h)
            res = float(np.linalg.norm(ddt - apply(L, rho_a.mat)))
            worst_res = max(worst_res, res)
    return CriterionResult(
        "A6", p["description"],
        [Check("max trace distance to full solution", p["trace_tolerance"], worst_td),
         Check("max central-difference generator residual",
               p["residual_tolerance"], worst_res)],
    )


def criterion_a7() -> CriterionResult:
    """Averaged birth-death ensembles and phase-averaged products share the
    sector support pattern; the latter are separable."""
    p = load_preset("a7.json")
    cfg = CouplingConfig(**p["coupling"])
    spec = FockSpec(p["n_max"])
    model = BirthDeathLaser(**p["source"])
    psi0 = product_state(fock_state(model.n0, spec), qubit_state(GROUND))
    M = p["trajectories"]
    seeds = range(p["seed_start"], p["seed_start"] + M)
    ens = run_ensemble(psi0, cfg, model, TimeGrid(**p["grid"]), seeds,
                       store_every=p["store_every"], diagnostics=False)
    tol = 5.0 / np.sqrt(M)
    # np.max, not max, so that a NaN element propagates and fails the check
    worst_amp = 0.0
    for rho in ens.rho_avg:
        _, offending = support_pattern_check(rho, tol=0.0)
        worst_amp = float(np.max([worst_amp, *(v for _, _, v in offending)]))

    ph = p["phase"]
    pspec = PhaseAveragedSpec(tuple((r, w) for r, w in ph["radial_weights"]),
                              ph["a_prime"], ph["b_prime"], ph["phase_points"])
    rho_ph = phase_averaged_state(pspec, FockSpec(ph["n_max"]))
    _, off_ph = support_pattern_check(DensityOperator(rho_ph), tol=0.0)
    ph_amp = float(np.max([0.0, *(v for _, _, v in off_ph)]))
    return CriterionResult(
        "A7", p["description"],
        [Check("max out-of-pattern ensemble element", tol, worst_amp),
         Check("max out-of-pattern phase-averaged element", ph["tolerance"], ph_amp),
         Check("phase-averaged negativity", ph["tolerance"], negativity(rho_ph))],
    )


def criterion_a8() -> CriterionResult:
    """Trajectory average agrees with the deterministic master equation."""
    p = load_preset("a8.json")
    cfg = CouplingConfig(**p["coupling"])
    spec = FockSpec(p["n_max"])
    model = CoherentDrive(complex(*p["epsilon"]))
    grid = TimeGrid(**p["grid"])
    store = p["store_every"]
    psi0 = product_state(fock_state(0, spec), qubit_state(GROUND))
    M = p["trajectories"]
    seeds = range(p["seed_start"], p["seed_start"] + M)
    ens = run_ensemble(psi0, cfg, model, grid, seeds, store_every=store,
                       diagnostics=False)
    L = build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)
    exact = evolve_master(DensityOperator(psi0.projector()), L, grid,
                          store_every=store)
    worst = max(trace_distance(a, b) for a, b in zip(ens.rho_avg, exact))
    return CriterionResult(
        "A8", p["description"],
        [Check("max ensemble-vs-master trace distance", 5.0 / np.sqrt(M), worst)],
    )


def criterion_a9() -> CriterionResult:
    """Closed-form oracles: cavity decay, integrator order, driven-qubit
    steady state."""
    p = load_preset("a9.json")

    cav = p["cavity"]
    spec = FockSpec(cav["n_max"])
    bare = CouplingConfig(cav["gamma_S"], 0.0, 0.0)
    L = build_L_ST(bare, spec)
    rho0 = DensityOperator(
        product_state(fock_state(cav["n0"], spec), qubit_state(GROUND)).projector()
    )
    grid = TimeGrid(**cav["grid"])
    store = cav["store_every"]
    states = evolve_master(rho0, L, grid, store_every=store)
    # the exact photon number n of each index 2n + q
    n_op = dense({0: np.arange(spec.dim) // 2}, spec.dim)
    worst_dec = max(
        abs(expectation(rho.mat, n_op).real
            - cav["n0"] * np.exp(-cav["gamma_S"] * t))
        for t, rho in zip(grid.stored_times(store), states)
    )

    rich = cav["richardson"]
    errs = []
    for dt in rich["dts"]:
        rho1 = evolve_master(rho0, L, TimeGrid(0.0, rich["t1"], dt))[-1]
        exact = cav["n0"] * np.exp(-cav["gamma_S"] * rich["t1"])
        errs.append(abs(expectation(rho1.mat, n_op).real - exact))
    ratio = errs[0] / errs[1]

    bl = p["bloch"]
    cfg = CouplingConfig(**bl["coupling"])
    t = np.linspace(0.0, bl["t1"], bl["points"])
    path = ClassicalPath(t, np.full(len(t), bl["alpha"], dtype=complex), weight=1.0)
    sol = solve_separated_target(path, cfg, GROUND_RHO)
    W = 2.0 * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * abs(bl["alpha"])
    expected = (W ** 2 / 4) / (cfg.delta ** 2 + cfg.gamma_T ** 2 / 4 + W ** 2 / 2)
    pe = float(sol[-1][1, 1].real)
    return CriterionResult(
        "A9", p["description"],
        [Check("max cavity-decay oracle deviation", cav["tolerance"], worst_dec),
         Check("step-halving error ratio", rich["min_ratio"], ratio,
               larger_is_better=True),
         Check("steady-state population deviation", bl["tolerance"],
               abs(pe - expected))],
    )


CRITERIA = {
    "A1": criterion_a1,
    "A2": criterion_a2,
    "A3": criterion_a3,
    "A4": criterion_a4,
    "A5": criterion_a5,
    "A6": criterion_a6,
    "A7": criterion_a7,
    "A8": criterion_a8,
    "A9": criterion_a9,
}


def run_criterion(name: str) -> CriterionResult:
    if name not in CRITERIA:
        raise KeyError(f"unknown criterion {name!r}; choose from {sorted(CRITERIA)}")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationWarning)
        warnings.filterwarnings("ignore", message="step probability")
        t0 = time.perf_counter()
        result = CRITERIA[name]()
        result.seconds = time.perf_counter() - t0
    return result


def run_suite(names=None) -> list:
    """Run the selected criteria (default: all, in order) and collect results."""
    if names is None:
        names = sorted(CRITERIA)
    return [run_criterion(n) for n in names]
