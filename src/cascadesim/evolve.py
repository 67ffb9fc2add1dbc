"""Time evolution: deterministic master-equation integration and Monte-Carlo
wavefunction trajectories with event records.

The trajectory scheme is fixed-step with at most one jump per step: jump
probabilities are computed from the current normalized state, one uniform
variate is drawn per step (plus one per jump for channel selection), and the
no-jump drift is the first-order non-Hermitian step (1 - i H dt) with
renormalization.  Each trajectory owns exactly one RNG stream, read in
fixed-width blocks, so results are bit-reproducible given (config, seed).
There is one trajectory engine, vectorized over seeds; a single trajectory
is its one-seed call.
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
    if store_every < 1 or grid.n_steps % store_every:
        raise ValueError("store_every must be a positive divisor of the number of steps")
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


def mcwf_run(psi0: PureState, config: CouplingConfig, source_model, grid: TimeGrid,
             seed: int, store_every: int = 1,
             diagnostics: bool = True) -> TrajectoryResult:
    """One Monte-Carlo wavefunction trajectory with its environmental record.

    Jump channels are the forward (f) and side (s) detections plus, for the
    birth-death source, the pump / gain / non-lasing channels acting on the
    classical carrier counter.  The gain channel's no-jump back-action
    -(i/2) g N a a^dag is included in the drift so conditional amplitudes stay
    consistent with the record.  This is the single-seed call of the ensemble
    engine, which then also returns the stored states and carrier counts.
    """
    times, _, records, ents, spans, (states, carriers) = _ensemble_chunk(
        (psi0.normalized().vec, config, source_model, grid, [seed], store_every,
         diagnostics, True))
    return TrajectoryResult(
        record=records[0],
        times=times,
        states=states[:, 0],
        carriers=None if carriers is None else carriers[:, 0],
        max_schmidt_entropy=ents[0],
        max_span_residual=spans[0],
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


# n shifts per event label
N_DELTA = {"forward_f": -1, "side_s": -1, "gain": +1, "pump": 0, "nonlasing": 0}
# uniforms drawn per refill of a trajectory's block; Generator.random(n)
# returns exactly the next n scalar draws of the stream
UNIFORM_BLOCK = 32


def _ensemble_chunk(args):
    """Advance one chunk of trajectories in lockstep (vectorized over seeds).

    Each trajectory owns the RNG stream of its seed and consumes one uniform
    per step plus one per jump, read in order from a fixed-width block that
    its own stream refills.  With the trailing ``keep`` flag set, the stored
    states and carrier counts of every trajectory are returned as well.
    """
    psi0_vec, config, source_model, grid, seeds, store_every, diagnostics, keep = args
    if store_every < 1 or grid.n_steps % store_every:
        raise ValueError("store_every must be a positive divisor of the number of steps")
    M = len(seeds)
    dim = len(psi0_vec)
    spec = FockSpec(dim // 2 - 1)
    fock_dim = spec.fock_dim
    dt = grid.dt
    f_op, s_op = build_jump_ops(config, spec)
    H = build_nonhermitian_H(config, spec).mat.copy()

    birth_death = isinstance(source_model, BirthDeathLaser)
    channels = [
        JumpChannel("forward_f", operator=f_op.mat),
        JumpChannel("side_s", operator=s_op.mat),
    ]
    if birth_death:
        channels += source_jump_channels(source_model, config, spec)
        gain_op = next(c.operator for c in channels if c.label == "gain")
        # diagonal of C^dag C for the gain channel (a a^dag is diagonal),
        # repeated for the real and imaginary parts of a real view
        gain_damp_f = np.repeat(np.real(np.diag(gain_op.conj().T @ gain_op)), 2)
    elif isinstance(source_model, CoherentDrive):
        a = embed(annihilation(spec), SOURCE, spec).mat
        H += 1j * (source_model.epsilon * a.conj().T
                   - np.conj(source_model.epsilon) * a)
    n_ch = len(channels)
    quantum = [k for k, ch in enumerate(channels) if ch.operator is not None]
    classical = [k for k, ch in enumerate(channels) if ch.operator is None]
    nq = len(quantum)
    rates = np.array([channels[k].rate for k in classical])
    scaled = [k for k, ch in enumerate(channels) if ch.scales_with_carrier]
    carrier_delta = np.array([ch.carrier_delta for ch in channels])
    n_delta = np.array([N_DELTA[ch.label] for ch in channels])

    # one product psi @ F gives every jump vector C_k psi and the
    # un-normalized drift (1 - i H dt) psi, each in its own column block
    F = np.concatenate([channels[k].operator.T for k in quantum]
                       + [(np.eye(dim) - 1j * dt * H).T], axis=1)
    Y = np.empty((M, (nq + 1) * dim), dtype=complex)
    Yf = Y.view(float)
    Yq = Yf[:, :2 * nq * dim].reshape(M, nq, 2 * dim)
    drift_f = Yf[:, 2 * nq * dim:]
    jump_vecs = {k: Y[:, j * dim:(j + 1) * dim] for j, k in enumerate(quantum)}

    rngs = [np.random.default_rng(s) for s in seeds]
    uniforms = np.empty((M, UNIFORM_BLOCK))
    cursor = np.full(M, UNIFORM_BLOCK)

    def draw(idx):
        """Next uniform of each trajectory in idx, from its own stream."""
        for m in idx[cursor[idx] == UNIFORM_BLOCK].tolist():
            rngs[m].random(out=uniforms[m])
            cursor[m] = 0
        u = uniforms[idx, cursor[idx]]
        cursor[idx] += 1
        return u

    v0 = np.asarray(psi0_vec, dtype=complex)
    psi = np.tile(v0 / np.linalg.norm(v0), (M, 1))
    psi_f = psi.view(float)
    carrier = np.full(M, source_model.N0 if birth_death else 0, dtype=int)
    n_pred = np.full(M, source_model.n0 if birth_death else 0, dtype=int)
    if birth_death:
        # per-row factor of the gain back-action; changes only with the carrier
        damp = np.outer(0.5 * dt * carrier, gain_damp_f)
    events = [[] for _ in range(M)]
    max_ent = np.zeros(M)
    max_span = np.zeros(M)
    soft_warned = False

    n_stored = grid.n_steps // store_every + 1
    acc = np.empty((n_stored, dim, dim), dtype=complex)
    np.matmul(psi.T, psi.conj(), out=acc[0])
    if keep:
        states = np.empty((n_stored, M, dim), dtype=complex)
        carriers = np.empty((n_stored, M), dtype=int)
        states[0], carriers[0] = psi, carrier

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

    probs = np.empty((M, n_ch))
    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        np.matmul(psi, F, out=Y)
        probs[:, quantum] = np.einsum("mkd,mkd->mk", Yq, Yq)
        probs[:, classical] = rates
        probs *= dt
        if scaled:
            probs[:, scaled] *= carrier[:, None]
        p_tot = probs.sum(axis=1)
        worst = p_tot.max()
        # negated so that NaN fails the bound too
        if not worst <= HARD_STEP_PROBABILITY:
            m = int(p_tot.argmax())
            if not np.isfinite(worst):
                raise InvariantViolationError(
                    f"non-finite step probability at t={t_next - dt:.6g} "
                    f"(seed {seeds[m]})"
                )
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

        jumpers = np.nonzero(draw(rows) < p_tot)[0]

        if birth_death:
            # gain back-action -i dt (-(i/2) N g a a^dag) psi, computed in
            # psi's buffer, which the normalized drift overwrites next
            psi_f *= damp
            drift_f -= psi_f
        norm = np.sqrt(np.einsum("md,md->m", drift_f, drift_f))
        if not np.isfinite(norm.sum()):  # any NaN or inf row makes the sum so
            m = int(np.argmin(np.isfinite(norm)))
            raise InvariantViolationError(
                f"non-finite drift norm at t={t_next:.6g} (seed {seeds[m]})"
            )
        np.divide(drift_f, norm[:, None], out=psi_f)

        if len(jumpers):
            r = draw(jumpers) * p_tot[jumpers]
            # first channel whose cumulative probability exceeds r
            passed = np.cumsum(probs[jumpers], axis=1) <= r[:, None]
            ks = np.minimum(passed.sum(axis=1), n_ch - 1)
            for m, k in zip(jumpers.tolist(), ks.tolist()):
                ch = channels[k]
                if ch.operator is not None:
                    v = jump_vecs[k][m]
                    nrm = np.linalg.norm(v)
                    if nrm == 0.0:
                        raise InvariantViolationError(
                            f"jump {ch.label} annihilated the state at t={t_next:.6g} "
                            f"(seed {seeds[m]})"
                        )
                    np.divide(v, nrm, out=psi[m])
                events[m].append((t_next, ch.label))
            carrier[jumpers] += carrier_delta[ks]
            n_pred[jumpers] += n_delta[ks]
            if birth_death:
                damp[jumpers] = np.outer(0.5 * dt * carrier[jumpers], gain_damp_f)

        if diagnostics:
            update_diagnostics()
        if (step + 1) % store_every == 0:
            idx = (step + 1) // store_every
            np.matmul(psi.T, psi.conj(), out=acc[idx])
            if keep:
                states[idx], carriers[idx] = psi, carrier

    times = grid.t0 + grid.dt * store_every * np.arange(n_stored)
    records = [Record(events=e, seed=s) for e, s in zip(events, seeds)]
    ents = [float(e) for e in max_ent] if diagnostics else [None] * M
    spans = [float(s) for s in max_span] if (diagnostics and birth_death) else [None] * M
    stored = (states, carriers if birth_death else None) if keep else None
    return times, acc, records, ents, spans, stored


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
    if not seeds:
        raise ValueError("need at least one seed")
    if workers is None:
        workers = int(os.environ.get("CASCADESIM_WORKERS", "1"))
    workers = max(1, min(workers, len(seeds)))
    chunks = [seeds] if workers == 1 else [seeds[i::workers] for i in range(workers)]
    args = [(psi0.vec, config, source_model, grid, c, store_every, diagnostics, False)
            for c in chunks if c]
    if workers == 1:
        results = [_ensemble_chunk(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_chunk, args))

    # the first chunk's sum is reused, so the reduction holds no second copy
    times, acc = results[0][0], results[0][1]
    for r in results[1:]:
        acc += r[1]
    by_seed = {}
    for _, _, recs, ents, ress, _ in results:
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
