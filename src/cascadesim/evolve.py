"""Time evolution: deterministic master-equation integration and Monte-Carlo
wavefunction trajectories with event records.

The trajectory scheme is fixed-step with at most one jump per step: jump
probabilities are computed from the current normalized state, one uniform
variate is drawn per step (plus one per jump for channel selection), and the
no-jump drift is the first-order non-Hermitian step (1 - i H dt) with
renormalization.  Each trajectory owns exactly one RNG stream, so results are
bit-reproducible given (config, seed).
"""

from __future__ import annotations

import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import (
    GridMismatchError,
    InvariantViolationError,
    StepProbabilityError,
)
from .hilbert import (
    COMPOSITE,
    SOURCE,
    DensityOperator,
    FockSpec,
    Operator,
    PureState,
    annihilation,
    embed,
)
from .liouvillian import (
    CouplingConfig,
    Superoperator,
    apply,
    build_jump_ops,
    build_nonhermitian_H,
)
from .sources import (
    BirthDeathLaser,
    CoherentDrive,
    JumpChannel,
    source_jump_channels,
)

SOFT_STEP_PROBABILITY = 0.01
HARD_STEP_PROBABILITY = 0.1


@dataclass(frozen=True)
class TimeGrid:
    t0: float
    t1: float
    dt: float

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError(f"dt must be > 0, got {self.dt}")
        n = (self.t1 - self.t0) / self.dt
        if abs(n - round(n)) > 1e-9 * max(1.0, abs(n)):
            raise ValueError(f"(t1 - t0)/dt = {n} is not integral")
        if round(n) < 1:
            raise ValueError("grid must contain at least one step")

    @property
    def n_steps(self) -> int:
        return int(round((self.t1 - self.t0) / self.dt))

    def times(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n_steps + 1)


@dataclass
class Record:
    """Time-ordered environmental record of one trajectory."""

    events: list  # of (time, label)
    seed: int

    def count(self, label: str) -> int:
        return sum(1 for _, lab in self.events if lab == label)


@dataclass
class TrajectoryResult:
    record: Record
    times: np.ndarray
    states: np.ndarray           # (n_stored, dim) normalized state vectors
    carriers: np.ndarray | None  # (n_stored,) classical carrier counts, or None
    max_schmidt_entropy: float | None = None
    max_span_residual: float | None = None


def expectation(rho, op) -> complex:
    """trace(op @ rho)."""
    m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    o = op.mat if isinstance(op, Operator) else np.asarray(op)
    if m.shape != o.shape:
        raise GridMismatchError(f"shapes {m.shape} and {o.shape} differ")
    return complex(np.sum(o.T * m))


def evolve_master(rho0: DensityOperator, L_total: Superoperator, grid: TimeGrid,
                  store_every: int = 1, check: bool = True) -> list:
    """Classical RK4 on d rho/dt = L rho; stored states are invariant-checked.

    Trace drift beyond 1e-8 or negativity below -1e-8 aborts with a diagnostic.
    """
    if grid.n_steps % store_every:
        raise ValueError("store_every must divide the number of steps")
    m = np.array(rho0.mat, dtype=complex)
    dt = grid.dt
    out = [DensityOperator(m.copy(), layout=rho0.layout)]
    for step in range(grid.n_steps):
        k1 = apply(L_total, m)
        k2 = apply(L_total, m + 0.5 * dt * k1)
        k3 = apply(L_total, m + 0.5 * dt * k2)
        k4 = apply(L_total, m + dt * k3)
        m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if (step + 1) % store_every == 0:
            rho = DensityOperator(m.copy(), layout=rho0.layout)
            if check:
                try:
                    rho.check(trace_tol=1e-8, herm_tol=1e-8, eig_tol=1e-8)
                except InvariantViolationError as exc:
                    raise InvariantViolationError(
                        f"master integration failed at t={grid.t0 + (step + 1) * dt:.6g}: {exc}"
                    ) from exc
            out.append(rho)
    return out


def _schmidt_eigs(psi: np.ndarray) -> tuple:
    """Eigenvalues of the 2x2 reduced target state of a composite pure state."""
    A = psi.reshape(-1, 2)
    G = A.conj().T @ A
    tr = G[0, 0].real + G[1, 1].real
    det = (G[0, 0] * G[1, 1] - G[0, 1] * G[1, 0]).real
    disc = max(tr * tr - 4.0 * det, 0.0) ** 0.5
    return (tr + disc) / 2.0, (tr - disc) / 2.0


def _entropy_from_eigs(lam1: float, lam2: float) -> float:
    s = 0.0
    for lam in (lam1, lam2):
        if lam > 1e-300:
            s -= lam * np.log2(lam)
    return max(s, 0.0)


def mcwf_run(psi0: PureState, config: CouplingConfig, source_model, grid: TimeGrid,
             seed: int, store_every: int = 1, order: int = 1,
             diagnostics: bool = True) -> TrajectoryResult:
    """One Monte-Carlo wavefunction trajectory with its environmental record.

    Jump channels are the forward (f) and side (s) detections plus, for the
    birth-death source, the pump / gain / non-lasing channels acting on the
    classical carrier counter.  The gain channel's no-jump back-action
    -(i/2) g N a a^dag is included in the drift so conditional amplitudes stay
    consistent with the record.
    """
    if grid.n_steps % store_every:
        raise ValueError("store_every must divide the number of steps")
    if order not in (1, 2):
        raise ValueError("order must be 1 or 2")
    dim = psi0.dim
    spec = FockSpec(dim // 2 - 1)
    f_op, s_op = build_jump_ops(config, spec)
    H = build_nonhermitian_H(config, spec).mat.copy()

    birth_death = isinstance(source_model, BirthDeathLaser)
    track_span = birth_death
    carrier = source_model.N0 if birth_death else 0
    n_pred = source_model.n0 if birth_death else 0

    channels = [
        JumpChannel("forward_f", operator=f_op.mat),
        JumpChannel("side_s", operator=s_op.mat),
    ]
    gain_damp = None
    if birth_death:
        channels += source_jump_channels(source_model, config, spec)
        gain_op = next(c.operator for c in channels if c.label == "gain")
        # diagonal of C^dag C for the gain channel (a a^dag is diagonal)
        gain_damp = np.real(np.diag(gain_op.conj().T @ gain_op))
    elif isinstance(source_model, CoherentDrive):
        a = embed(annihilation(spec), SOURCE, spec).mat
        H += 1j * (source_model.epsilon * a.conj().T
                   - np.conj(source_model.epsilon) * a)

    # n shifts per event label
    n_delta = {"forward_f": -1, "side_s": -1, "gain": +1, "pump": 0, "nonlasing": 0}

    rng = np.random.default_rng(seed)
    psi = psi0.normalized().vec.copy()
    dt = grid.dt
    n_stored = grid.n_steps // store_every + 1
    states = np.empty((n_stored, dim), dtype=complex)
    carriers = np.empty(n_stored, dtype=int) if birth_death else None
    states[0] = psi
    if birth_death:
        carriers[0] = carrier
    events = []
    soft_warned = False
    max_entropy = 0.0
    max_residual = 0.0

    def update_diagnostics(v):
        nonlocal max_entropy, max_residual
        l1, l2 = _schmidt_eigs(v)
        ent = _entropy_from_eigs(l1, l2)
        if ent > max_entropy:
            max_entropy = ent
        if track_span:
            out = np.abs(v) ** 2
            if 0 <= n_pred <= spec.n_max:
                out[2 * n_pred] = 0.0
            if n_pred >= 1:
                out[2 * n_pred - 1] = 0.0
            res = float(out.sum()) ** 0.5
            if res > max_residual:
                max_residual = res

    if diagnostics:
        update_diagnostics(psi)

    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        probs = np.empty(len(channels))
        jumped = [None] * len(channels)
        for k, ch in enumerate(channels):
            if ch.operator is None:
                rate = ch.rate * (carrier if ch.scales_with_carrier else 1.0)
                probs[k] = dt * rate
            else:
                v = ch.operator @ psi
                jumped[k] = v
                p = dt * float(np.real(np.vdot(v, v)))
                if ch.scales_with_carrier:
                    p *= carrier
                probs[k] = p
        p_tot = float(probs.sum())
        if p_tot > HARD_STEP_PROBABILITY:
            worst = channels[int(np.argmax(probs))].label
            raise StepProbabilityError(
                f"step probability {p_tot:.3g} > {HARD_STEP_PROBABILITY} at "
                f"t={t_next - dt:.6g} (largest channel: {worst}); reduce dt"
            )
        if p_tot > SOFT_STEP_PROBABILITY and not soft_warned:
            warnings.warn(
                f"step probability {p_tot:.3g} exceeds recommended "
                f"{SOFT_STEP_PROBABILITY}", stacklevel=2,
            )
            soft_warned = True

        u = rng.random()
        fired = None
        if u < p_tot:
            r = rng.random() * p_tot
            k = int(np.searchsorted(np.cumsum(probs), r, side="right"))
            k = min(k, len(channels) - 1)
            fired = channels[k]
        if fired is not None and fired.operator is not None:
            v = jumped[k]
            nrm = np.linalg.norm(v)
            if nrm == 0.0:
                raise InvariantViolationError(
                    f"jump {fired.label} annihilated the state at t={t_next:.6g}"
                )
            psi = v / nrm
        else:
            # no-jump drift; classical counter events leave the quantum
            # state on this same drift
            Hpsi = H @ psi
            if gain_damp is not None and carrier:
                Hpsi = Hpsi - 0.5j * carrier * (gain_damp * psi)
            v = psi - 1j * dt * Hpsi
            if order == 2:
                H2psi = H @ Hpsi
                if gain_damp is not None and carrier:
                    H2psi = H2psi - 0.5j * carrier * (gain_damp * Hpsi)
                v = v - 0.5 * dt * dt * H2psi
            psi = v / np.linalg.norm(v)
        if fired is not None:
            carrier += fired.carrier_delta
            n_pred += n_delta[fired.label]
            events.append((t_next, fired.label))

        if diagnostics:
            update_diagnostics(psi)
        if (step + 1) % store_every == 0:
            idx = (step + 1) // store_every
            states[idx] = psi
            if birth_death:
                carriers[idx] = carrier

    times = grid.t0 + grid.dt * store_every * np.arange(n_stored)
    return TrajectoryResult(
        record=Record(events=events, seed=seed),
        times=times,
        states=states,
        carriers=carriers,
        max_schmidt_entropy=max_entropy if diagnostics else None,
        max_span_residual=(max_residual if (diagnostics and track_span) else None),
    )


def ensemble_average(results: list, times: np.ndarray | None = None) -> list:
    """Mean projector over trajectories at each stored time."""
    if not results:
        raise ValueError("need at least one trajectory")
    ref = results[0].times if times is None else np.asarray(times)
    for r in results:
        if r.times.shape != ref.shape or not np.allclose(r.times, ref):
            raise GridMismatchError("trajectories stored on different time grids")
    dim = results[0].states.shape[1]
    out = []
    for i in range(len(ref)):
        acc = np.zeros((dim, dim), dtype=complex)
        for r in results:
            v = r.states[i]
            acc += np.outer(v, v.conj())
        out.append(DensityOperator(acc / len(results), layout=COMPOSITE))
    return out


@dataclass
class EnsembleResult:
    times: np.ndarray
    rho_avg: list                 # of DensityOperator
    records: list                 # of Record
    max_schmidt_entropies: list
    max_span_residuals: list


def _ensemble_chunk(args):
    """Advance one chunk of trajectories in lockstep (vectorized over seeds).

    Per-trajectory RNG stream consumption matches mcwf_run exactly: one
    uniform per step from each trajectory's stream, plus one per jump.
    """
    psi0_vec, config, source_model, grid, seeds, store_every, diagnostics = args
    M = len(seeds)
    dim = len(psi0_vec)
    spec = FockSpec(dim // 2 - 1)
    fock_dim = spec.fock_dim
    f_op, s_op = build_jump_ops(config, spec)
    H = build_nonhermitian_H(config, spec).mat.copy()

    birth_death = isinstance(source_model, BirthDeathLaser)
    channels = [
        JumpChannel("forward_f", operator=f_op.mat),
        JumpChannel("side_s", operator=s_op.mat),
    ]
    gain_damp = None
    if birth_death:
        channels += source_jump_channels(source_model, config, spec)
        gain_op = next(c.operator for c in channels if c.label == "gain")
        gain_damp = np.real(np.diag(gain_op.conj().T @ gain_op))
    elif isinstance(source_model, CoherentDrive):
        a = embed(annihilation(spec), SOURCE, spec).mat
        H += 1j * (source_model.epsilon * a.conj().T
                   - np.conj(source_model.epsilon) * a)
    n_delta = {"forward_f": -1, "side_s": -1, "gain": +1, "pump": 0, "nonlasing": 0}

    rngs = [np.random.default_rng(s) for s in seeds]
    v0 = np.asarray(psi0_vec, dtype=complex)
    psi = np.tile(v0 / np.linalg.norm(v0), (M, 1))
    carrier = np.full(M, source_model.N0 if birth_death else 0, dtype=int)
    n_pred = np.full(M, source_model.n0 if birth_death else 0, dtype=int)
    events = [[] for _ in range(M)]
    max_ent = np.zeros(M)
    max_span = np.zeros(M)
    soft_warned = False
    dt = grid.dt
    HT = np.ascontiguousarray(H.T)
    op_T = {k: np.ascontiguousarray(ch.operator.T)
            for k, ch in enumerate(channels) if ch.operator is not None}

    n_stored = grid.n_steps // store_every + 1
    acc = np.zeros((n_stored, dim, dim), dtype=complex)
    acc[0] = np.einsum("mi,mj->ij", psi, psi.conj())

    rows = np.arange(M)

    def update_diagnostics():
        nonlocal max_ent, max_span
        A = psi.reshape(M, fock_dim, 2)
        G00 = np.einsum("mf,mf->m", A[:, :, 0].conj(), A[:, :, 0]).real
        G11 = np.einsum("mf,mf->m", A[:, :, 1].conj(), A[:, :, 1]).real
        G01 = np.einsum("mf,mf->m", A[:, :, 0].conj(), A[:, :, 1])
        tr = G00 + G11
        det = G00 * G11 - np.abs(G01) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        ent = np.zeros(M)
        for lam in ((tr + disc) / 2.0, (tr - disc) / 2.0):
            pos = lam > 1e-300
            ent[pos] -= lam[pos] * np.log2(lam[pos])
        max_ent = np.maximum(max_ent, np.maximum(ent, 0.0))
        if birth_death:
            out = np.abs(psi) ** 2
            valid = (n_pred >= 0) & (n_pred <= spec.n_max)
            out[rows[valid], 2 * n_pred[valid]] = 0.0
            lower = n_pred >= 1
            out[rows[lower], 2 * n_pred[lower] - 1] = 0.0
            max_span = np.maximum(max_span, np.sqrt(out.sum(axis=1)))

    if diagnostics:
        update_diagnostics()

    probs = np.empty((M, len(channels)))
    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        jumped = {}
        for k, ch in enumerate(channels):
            if ch.operator is None:
                probs[:, k] = dt * ch.rate * (carrier if ch.scales_with_carrier else 1.0)
            else:
                v = psi @ op_T[k]
                jumped[k] = v
                p = dt * np.einsum("mi,mi->m", v.conj(), v).real
                if ch.scales_with_carrier:
                    p = p * carrier
                probs[:, k] = p
        p_tot = probs.sum(axis=1)
        worst = float(p_tot.max())
        if worst > HARD_STEP_PROBABILITY:
            m = int(p_tot.argmax())
            k = int(probs[m].argmax())
            raise StepProbabilityError(
                f"step probability {worst:.3g} > {HARD_STEP_PROBABILITY} at "
                f"t={t_next - dt:.6g} (largest channel: {channels[k].label}); reduce dt"
            )
        if worst > SOFT_STEP_PROBABILITY and not soft_warned:
            warnings.warn(
                f"step probability {worst:.3g} exceeds recommended "
                f"{SOFT_STEP_PROBABILITY}", stacklevel=2,
            )
            soft_warned = True

        u = np.array([r.random() for r in rngs])
        jumpers = np.nonzero(u < p_tot)[0]

        Hpsi = psi @ HT
        if gain_damp is not None:
            Hpsi = Hpsi - 0.5j * carrier[:, None] * (gain_damp[None, :] * psi)
        new_psi = psi - 1j * dt * Hpsi
        new_psi /= np.linalg.norm(new_psi, axis=1)[:, None]

        for m in jumpers:
            r = rngs[m].random() * p_tot[m]
            cum = 0.0
            k = len(channels) - 1
            for kk in range(len(channels)):
                cum += probs[m, kk]
                if r < cum:
                    k = kk
                    break
            ch = channels[k]
            if ch.operator is not None:
                v = jumped[k][m]
                nrm = np.linalg.norm(v)
                if nrm == 0.0:
                    raise InvariantViolationError(
                        f"jump {ch.label} annihilated the state at t={t_next:.6g} "
                        f"(seed {seeds[m]})"
                    )
                new_psi[m] = v / nrm
            carrier[m] += ch.carrier_delta
            n_pred[m] += n_delta[ch.label]
            events[m].append((t_next, ch.label))
        psi = new_psi

        if diagnostics:
            update_diagnostics()
        if (step + 1) % store_every == 0:
            acc[(step + 1) // store_every] = np.einsum("mi,mj->ij", psi, psi.conj())

    times = grid.t0 + grid.dt * store_every * np.arange(n_stored)
    records = [Record(events=e, seed=s) for e, s in zip(events, seeds)]
    ents = list(max_ent) if diagnostics else [None] * M
    spans = list(max_span) if (diagnostics and birth_death) else [None] * M
    return times, acc, records, ents, spans


def run_ensemble(psi0: PureState, config: CouplingConfig, source_model,
                 grid: TimeGrid, seeds, store_every: int = 1,
                 diagnostics: bool = True, workers: int | None = None) -> EnsembleResult:
    """Run trajectories for every seed and average their projectors online.

    Each trajectory is bit-reproducible from its seed alone, and the result is
    deterministic for a fixed worker count.  Changing the worker count
    regroups the floating-point reduction, so averages can differ at the
    rounding level (~1e-15) but nowhere beyond.
    """
    seeds = list(seeds)
    if workers is None:
        workers = int(os.environ.get("CASCADESIM_WORKERS", "1"))
    workers = max(1, min(workers, len(seeds)))
    chunks = [seeds] if workers == 1 else [seeds[i::workers] for i in range(workers)]
    args = [(psi0.vec, config, source_model, grid, c, store_every, diagnostics)
            for c in chunks if c]
    if workers == 1:
        results = [_ensemble_chunk(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_chunk, args))

    times = results[0][0]
    acc = np.zeros_like(results[0][1])
    by_seed = {}
    for _, a, recs, ents, ress in results:
        acc += a
        for rec, ent, resd in zip(recs, ents, ress):
            by_seed[rec.seed] = (rec, ent, resd)
    records, entropies, residuals = [], [], []
    for seed in seeds:
        rec, ent, resd = by_seed[seed]
        records.append(rec)
        entropies.append(ent)
        residuals.append(resd)
    acc /= len(seeds)
    rho_avg = [DensityOperator(acc[i], layout=COMPOSITE) for i in range(acc.shape[0])]
    return EnsembleResult(times, rho_avg, records, entropies, residuals)
