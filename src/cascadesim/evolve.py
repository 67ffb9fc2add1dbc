"""Time evolution: deterministic master-equation integration and Monte-Carlo
wavefunction trajectories with event records.

The trajectory scheme is fixed-step with at most one jump per step.  A step
costs one d x d product per trajectory, Z = -i dt H psi, where H is the
non-Hermitian drift Hamiltonian.  Its anti-Hermitian part is -(i/2) times the
sum of C^dag C over the forward and side channels (checked once per run), so
their total jump probability dt <psi|sum C^dag C|psi> is -2 Re<psi|Z>; the
birth-death gain channel's back-action is folded into Z the same way, and the
classical channels add their rates.  The no-jump state is psi + Z,
renormalized.  Only the trajectories that jump compute the per-channel jump
vectors C_k psi, from their pre-step state, to pick the channel.  One uniform
variate is drawn per step, plus one per jump for the channel.  Each
trajectory owns exactly one RNG stream, read in fixed-width blocks, so
results are bit-reproducible given (config, seed).  There is one trajectory
engine, vectorized over seeds; a single trajectory is its one-seed call.
"""

from __future__ import annotations

import math
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
        if not all(math.isfinite(v) for v in (self.t0, self.t1, self.dt)):
            raise ValueError(f"grid times must be finite, got {(self.t0, self.t1, self.dt)}")
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
                  store_every: int = 1) -> list:
    """Classical RK4 on d rho/dt = L rho; stored states are invariant-checked.

    Trace drift beyond 1e-8 or negativity below -1e-8 aborts with a diagnostic.
    """
    if store_every < 1 or grid.n_steps % store_every:
        raise ValueError("store_every must be a positive divisor of the number of steps")
    m = np.array(rho0.mat, dtype=complex)
    dt = grid.dt
    out = [DensityOperator(m.copy(), layout=rho0.layout)]
    for step in range(grid.n_steps):
        # for a constant linear generator the classical RK4 step is the
        # degree-4 Taylor polynomial of exp(dt L), here in nested form
        # m + dt L(m + dt/2 L(m + dt/3 L(m + dt/4 L m)))
        k = apply(L_total, m)
        for c in (dt / 4.0, dt / 3.0, dt / 2.0):
            k *= c
            k += m
            k = apply(L_total, k)
        k *= dt
        m += k
        if (step + 1) % store_every == 0:
            rho = DensityOperator(m.copy(), layout=rho0.layout)
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
    times, _, records, ents, spans, max_p, (states, carriers) = _ensemble_chunk(
        (psi0.normalized().vec, config, source_model, grid, [seed], store_every,
         diagnostics, True))
    _warn_step_probability(max_p)
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


def _check_drift(H: np.ndarray, jump_ops):
    """Raise InvariantViolationError unless i(H - H^dag) equals the sum of
    C^dag C over jump_ops, the quantum channels not scaled by the carrier.

    The engine reads those channels' summed jump probability off the drift,
    so the identity must hold for the records to be right.
    """
    if not np.all(np.isfinite(H)):
        raise InvariantViolationError("non-finite drift Hamiltonian; check rates and detuning")
    K = 1j * (H - H.conj().T)
    for C in jump_ops:
        K -= C.conj().T @ C
    residual = np.abs(K).max()
    if not residual <= 1e-12 * max(1.0, np.abs(H).max()):
        raise InvariantViolationError(
            f"drift Hamiltonian does not match the jump operators: "
            f"max |i(H - H^dag) - sum C^dag C| = {residual:.3g}"
        )


def _ensemble_chunk(args):
    """Advance one chunk of trajectories in lockstep (vectorized over seeds).

    Each trajectory owns the RNG stream of its seed and consumes one uniform
    per step plus one per jump, read in order from a fixed-width block that
    its own stream refills.  Besides the records and the summed projectors,
    the largest step probability of the chunk is returned, so the caller can
    warn about it.  With the trailing ``keep`` flag set, the stored states and
    carrier counts of every trajectory are returned as well.
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
    if isinstance(source_model, CoherentDrive):
        a = embed(annihilation(spec), SOURCE, spec).mat
        H += 1j * (source_model.epsilon * a.conj().T
                   - np.conj(source_model.epsilon) * a)
    _check_drift(H, (f_op.mat, s_op.mat))

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
    n_ch = len(channels)
    quantum = [k for k, ch in enumerate(channels) if ch.operator is not None]
    classical = [k for k, ch in enumerate(channels) if ch.operator is None]
    rates = np.array([channels[k].rate for k in classical])
    scaled = [k for k, ch in enumerate(channels) if ch.scales_with_carrier]
    carrier_delta = np.array([ch.carrier_delta for ch in channels])
    n_delta = np.array([N_DELTA[ch.label] for ch in channels])

    HT = (-1j * dt * H).T
    # every C_k^T side by side: jump vectors of the rows that jump
    Fq = np.concatenate([channels[k].operator.T for k in quantum], axis=1)
    block = {k: slice(j * dim, (j + 1) * dim) for j, k in enumerate(quantum)}
    Z = np.empty((M, dim), dtype=complex)
    Z_f = Z.view(float)

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
        work = np.empty_like(damp)
    # summed rates of the classical channels, without and with the carrier factor
    rate_fixed = sum(channels[k].rate for k in classical if k not in scaled)
    rate_scaled = sum(channels[k].rate for k in classical if k in scaled)

    def channel_probs(idx):
        """Jump vectors C_k psi and per-channel step probabilities of rows idx."""
        Y = psi[idx] @ Fq
        Yq = Y.view(float).reshape(len(idx), len(quantum), 2 * dim)
        probs = np.empty((len(idx), n_ch))
        probs[:, quantum] = np.einsum("mkd,mkd->mk", Yq, Yq)
        probs[:, classical] = rates
        probs *= dt
        if scaled:
            probs[:, scaled] *= carrier[idx][:, None]
        return Y, probs

    events = [[] for _ in range(M)]
    max_ent = np.zeros(M)
    max_span = np.zeros(M)
    max_p = 0.0

    n_stored = grid.n_steps // store_every + 1
    acc = np.empty((n_stored, dim, dim), dtype=complex)
    np.matmul(psi.T, psi.conj(), out=acc[0])
    if keep:
        states = np.empty((n_stored, M, dim), dtype=complex)
        carriers = np.empty((n_stored, M), dtype=int)
        states[0], carriers[0] = psi, carrier

    rows = np.arange(M)
    cols = np.arange(dim)

    def update_diagnostics():
        # Gram matrix A^dag A of each row's Fock x qubit amplitude matrix A,
        # in one batched product; its eigenvalues are the squared Schmidt
        # coefficients
        At = psi.reshape(M, fock_dim, 2).transpose(0, 2, 1)
        G = np.vecdot(At[:, :, None, :], At[:, None, :, :])
        g00, g11 = G[:, 0, 0].real, G[:, 1, 1].real
        tr = g00 + g11
        det = g00 * g11 - np.abs(G[:, 0, 1]) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam = np.array((tr + disc, tr - disc))
        lam *= 0.5
        log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 1e-300)
        lam *= log_lam
        # max_ent starts at 0, so this also clips a negative rounding residue
        np.maximum(max_ent, -(lam[0] + lam[1]), out=max_ent)
        if birth_death:
            # weight outside the predicted sector: every column but 2n - 1
            # (|n-1, excited>) and 2n (|n, ground>)
            off = cols - 2 * n_pred[:, None]
            out = np.abs(psi) ** 2
            np.copyto(out, 0.0, where=(off == 0) | (off == -1))
            np.maximum(max_span, np.sqrt(out.sum(axis=1)), out=max_span)

    if diagnostics:
        update_diagnostics()

    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        # Z = -i dt H psi, minus the gain back-action (dt/2) N g a a^dag psi;
        # then -2 Re<psi|Z> = dt <psi| sum C^dag C |psi> over every quantum
        # channel, the Monte-Carlo wavefunction jump probability
        np.matmul(psi, HT, out=Z)
        if birth_death:
            np.multiply(psi_f, damp, out=work)
            Z_f -= work
        p_tot = np.einsum("md,md->m", psi_f, Z_f)
        p_tot *= -2.0
        if classical:
            p_tot += dt * (rate_fixed + rate_scaled * carrier)
        worst = p_tot.max()
        # negated so that NaN fails the bound too
        if not worst <= HARD_STEP_PROBABILITY:
            m = int(p_tot.argmax())
            if not np.isfinite(worst):
                raise InvariantViolationError(
                    f"non-finite step probability at t={t_next - dt:.6g} "
                    f"(seed {seeds[m]})"
                )
            k = int(channel_probs([m])[1][0].argmax())
            raise StepProbabilityError(
                f"step probability {worst:.3g} > {HARD_STEP_PROBABILITY} at "
                f"t={t_next - dt:.6g} (largest channel: {channels[k].label}); reduce dt"
            )
        max_p = max(max_p, float(worst))

        jumpers = np.nonzero(draw(rows) < p_tot)[0]
        if len(jumpers):
            # from the pre-step states, before the drift overwrites psi
            jump_vecs, probs = channel_probs(jumpers)

        Z += psi  # the no-jump state, before renormalization
        norm = np.sqrt(np.einsum("md,md->m", Z_f, Z_f))
        if not np.isfinite(norm.sum()):  # any NaN or inf row makes the sum so
            m = int(np.argmin(np.isfinite(norm)))
            raise InvariantViolationError(
                f"non-finite drift norm at t={t_next:.6g} (seed {seeds[m]})"
            )
        np.divide(Z_f, norm[:, None], out=psi_f)

        if len(jumpers):
            # scaled by the per-channel sum, which p_tot equals only to
            # rounding, so that r always falls inside the cumulative range;
            # the first channel whose cumulative probability exceeds r fires
            r = draw(jumpers) * probs.sum(axis=1)
            passed = np.cumsum(probs, axis=1) <= r[:, None]
            ks = np.minimum(passed.sum(axis=1), n_ch - 1)
            for v, m, k in zip(jump_vecs, jumpers.tolist(), ks.tolist()):
                ch = channels[k]
                if ch.operator is not None:
                    v = v[block[k]]
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
    return times, acc, records, ents, spans, max_p, stored


def _warn_step_probability(p: float):
    """Warn, at the line that called the public entry point, about a step
    probability above the recommended bound."""
    if p > SOFT_STEP_PROBABILITY:
        warnings.warn(
            f"step probability {p:.3g} exceeds recommended {SOFT_STEP_PROBABILITY}",
            stacklevel=3,
        )


def workers_from_env() -> int:
    """CASCADESIM_WORKERS as an int (default 1); a ValueError naming it otherwise."""
    value = os.environ.get("CASCADESIM_WORKERS", "1")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"CASCADESIM_WORKERS must be an integer, got {value!r}") from None


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
        workers = workers_from_env()
    workers = max(1, min(workers, len(seeds)))
    args = [(psi0.vec, config, source_model, grid, seeds[i::workers], store_every,
             diagnostics, False) for i in range(workers)]
    if workers == 1:
        results = [_ensemble_chunk(args[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_ensemble_chunk, args))

    # the first chunk's sum is reused, so the reduction holds no second copy
    times, acc = results[0][0], results[0][1]
    for r in results[1:]:
        acc += r[1]
    # chunk i holds seeds[i::workers]; its per-seed lists go back to those places
    records, entropies, residuals = ([None] * len(seeds) for _ in range(3))
    for i, (_, _, recs, ents, ress, _, _) in enumerate(results):
        records[i::workers], entropies[i::workers], residuals[i::workers] = recs, ents, ress
    acc /= len(seeds)
    rho_avg = [DensityOperator(acc[i], layout=COMPOSITE) for i in range(acc.shape[0])]
    _warn_step_probability(max(r[5] for r in results))
    return EnsembleResult(times, rho_avg, records, entropies, residuals)
