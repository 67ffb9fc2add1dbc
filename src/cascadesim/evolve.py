"""Time evolution: deterministic master-equation integration and Monte-Carlo
wavefunction trajectories with event records.

The trajectory scheme is fixed-step with at most one jump per step.  The
no-jump step is Z = psi - i dt H psi, where H is the non-Hermitian drift
Hamiltonian.  Its anti-Hermitian part is -(i/2) times the sum of C^dag C over
the forward and side channels (checked once per run), so their total jump
probability dt <psi|sum C^dag C|psi> / |psi|^2 is 2 (|psi|^2 - Re<psi|Z>) /
|psi|^2; the birth-death gain channel's back-action is folded into Z the same
way, and the classical channels add their rates.  For the coherent-drive and
free-decay sources a trajectory is the dense state and a step one d x d
product.  A birth-death trajectory stays in one total-quanta sector
span{|n-1, excited>, |n, ground>} between jumps, and each jump moves n by the
channel's quanta_delta, so it is two amplitudes and its sector n, and a step is
one 2 x 2 product (checked once per run by _sector_blocks).  The no-jump state is
not renormalized: each trajectory carries its squared norm |psi|^2 instead,
the norm-decay view of the method (Molmer, Castin & Dalibard, JOSA B 10, 524
(1993)).  A state is normalized when it jumps, before it is stored or its
diagnostics are taken, and every RENORMALIZE_EVERY steps.  Only the
trajectories that jump compute the per-channel jump vectors C_k psi, from
their pre-step state, to pick the channel.  One uniform variate is drawn per
step, plus one per jump for the channel.  Each trajectory owns exactly one RNG
stream, default_rng(seed)'s, read in fixed-width blocks, so results are
bit-reproducible given (config, seed).  There is one trajectory engine,
vectorized over seeds; a single trajectory is its one-seed call.  It hands
each stored time's dense rows to its caller's store callback and keeps none.
"""

from __future__ import annotations

import math
import os
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import (
    GridMismatchError,
    InvariantViolationError,
    StepProbabilityError,
)
from .hilbert import COMPOSITE, DensityOperator, FockSpec, Operator, PureState, check_states
from .liouvillian import CouplingConfig, Superoperator, apply, block_gather, gather
from .sources import BirthDeathLaser, unraveling

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

    def stored_times(self, store_every: int) -> np.ndarray:
        """Times of the states stored at t0 and every store_every steps, t0 + k dt
        after step k as in the records; the one check of store_every."""
        if (isinstance(store_every, bool) or not isinstance(store_every, (int, np.integer))
                or store_every < 1 or self.n_steps % store_every):
            raise ValueError(f"store_every must be an integer >= 1 dividing the "
                             f"{self.n_steps} steps, got {store_every!r}")
        return self.t0 + self.dt * np.arange(0, self.n_steps + 1, store_every)


def check_seeds(seeds) -> list:
    """seeds as a list; ValueError unless there is one or more and they are
    distinct integers >= 0, numpy integers included and bools not."""
    seeds = list(seeds)
    if not seeds:
        raise ValueError("seeds must name at least one seed")
    bad = [s for s in seeds if isinstance(s, bool)
           or not isinstance(s, (int, np.integer)) or s < 0]
    if bad:
        raise ValueError(f"seeds must be integers >= 0, got {bad[0]!r}")
    seen = set()
    for s in seeds:
        if s in seen:
            raise ValueError(f"seeds must be distinct; {s!r} repeats")
        seen.add(s)
    return seeds


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


def expectation(rho, op) -> complex:
    """trace(op @ rho)."""
    m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho)
    o = op.mat if isinstance(op, Operator) else np.asarray(op)
    if m.shape != o.shape:
        raise GridMismatchError(f"shapes {m.shape} and {o.shape} differ")
    return complex(np.sum(o.T * m))


# stored master states are checked and observed STORE_BLOCK at a time: at
# d 26 that took about 12 us a state against about 35 us one by one, larger
# blocks gained nothing measurable, and each temporary stays near 90 KB
STORE_BLOCK = 8
# trace drift, hermiticity residual and negativity that abort a master run
MASTER_TOLS = dict(trace_tol=1e-8, herm_tol=1e-8, eig_tol=1e-8)


def _observe_checked(states, times, layout, observe):
    """Observe a (B, d, d) stack of stored states in time order as
    DensityOperator views, up to the first that fails check_states, and
    raise at that one with its own time."""
    failure = check_states(states, **MASTER_TOLS)
    for m in states[:len(states) if failure is None else failure[0]]:
        observe(DensityOperator(m, layout=layout))
    if failure is not None:
        i, message = failure
        raise InvariantViolationError(f"master integration failed at t={times[i]:.6g}: {message}")


def evolve_master(rho0: DensityOperator, L_total: Superoperator, grid: TimeGrid,
                  store_every: int = 1, observe=None) -> list | None:
    """Classical RK4 on d rho/dt = L rho; stored states are invariant-checked.

    Trace drift beyond 1e-8 or negativity below -1e-8 aborts with a diagnostic
    that names the time of the first stored state to fail.  rho0 is checked
    and observed first, on its own.  The later states of
    grid.stored_times(store_every) are checked STORE_BLOCK at a time and go
    to observe(rho) in time order once their block has passed, each a
    DensityOperator view of its own matrix; the states before a failing one
    are observed and those after it are not.  Finiteness and trace are
    tested as each state is stored, so the run never steps on from a state
    that fails them.  Without an observer the stored states are returned as
    a list; with one, None is returned and no state is kept here.  If
    L_total keeps the k-blocks (liouvillian.block_gather), RK4 runs on the
    entries of the blocks rho0 occupies, and each later stored state holds
    zeros outside them; otherwise it runs on every entry through apply.
    """
    times = grid.stored_times(store_every)
    out = [] if observe is None else None
    observe = out.append if observe is None else observe
    d = L_total.dim

    m = np.array(rho0.mat, dtype=complex)
    _observe_checked(m.copy()[None], times, rho0.layout, observe)
    blocks = block_gather(L_total, m)
    if blocks is None:
        keep, v, derivative = slice(None), m, partial(apply, L_total)
    else:
        keep, index, weight = blocks
        v, derivative = m.ravel()[keep], partial(gather, index, weight)
    dt = grid.dt
    filled = 0  # states in the current block
    for step in range(grid.n_steps):
        # for a constant linear generator the classical RK4 step is the
        # degree-4 Taylor polynomial of exp(dt L), here in nested form
        # v + dt L(v + dt/2 L(v + dt/3 L(v + dt/4 L v)))
        k = derivative(v)
        for c in (dt / 4.0, dt / 3.0, dt / 2.0):
            k *= c
            k += v
            k = derivative(k)
        k *= dt
        v += k
        if (step + 1) % store_every:
            continue
        if filled == 0:
            block = np.zeros((STORE_BLOCK, d, d), dtype=complex)
        state = block[filled]
        state.ravel()[keep] = v.ravel()
        filled += 1
        s = (step + 1) // store_every
        # a state that is not finite or has lost its trace ends the run here;
        # hermiticity and positivity wait for the block to fill
        if (filled == STORE_BLOCK or s == len(times) - 1 or not np.isfinite(v).all()
                or not abs(state.trace() - 1.0) <= MASTER_TOLS["trace_tol"]):
            _observe_checked(block[:filled], times[s + 1 - filled:], rho0.layout, observe)
            filled = 0
    return out


def mcwf_run(psi0: PureState, config: CouplingConfig, source_model, grid: TimeGrid,
             seed: int, store_every: int = 1,
             diagnostics: bool = True) -> TrajectoryResult:
    """One Monte-Carlo wavefunction trajectory with its environmental record.

    Jump channels are the forward (f) and side (s) detections plus, for the
    birth-death source, the pump / gain / non-lasing channels acting on the
    classical carrier counter.  The gain channel's no-jump back-action
    -(i/2) g N a a^dag is included in the drift so conditional amplitudes stay
    consistent with the record.  A birth-death psi0 must lie in the quanta
    sector of source_model.n0 (sector_amplitudes); ValueError otherwise.  This
    is the single-seed call of the ensemble engine; its store callback copies
    the stored states and carrier counts.
    """
    seeds = check_seeds([seed])
    times = grid.stored_times(store_every)
    states = np.empty((len(times), len(psi0.vec)), dtype=complex)
    carriers = np.empty(len(times), dtype=int)

    def store(i, psi, carrier):
        states[i], carriers[i] = psi[0], carrier[0]

    records, ents, max_p = _ensemble_chunk(
        psi0.vec, config, source_model, grid, store_every, diagnostics, store, seeds)
    _warn_step_probability(max_p)
    return TrajectoryResult(
        record=records[0],
        times=times,
        states=states,
        carriers=carriers if isinstance(source_model, BirthDeathLaser) else None,
        max_schmidt_entropy=ents[0],
    )


@dataclass
class EnsembleResult:
    times: np.ndarray
    rho_avg: list | None          # of DensityOperator; None when observed instead
    records: list                 # of Record
    max_schmidt_entropies: list


# uniforms drawn per refill of a trajectory's block; Generator.random(n)
# returns exactly the next n scalar draws of the stream
UNIFORM_BLOCK = 64
# steps between renormalizations of every trajectory's state, which is
# otherwise normalized only where a jump, a store or the diagnostics need it
RENORMALIZE_EVERY = 64
# seeds per engine call in run_ensemble; a constant, so the sum's order follows the seeds
ENSEMBLE_BLOCK = 1024


def _check_drift(H: np.ndarray, channels):
    """Raise InvariantViolationError unless i(H - H^dag) equals the sum of
    C^dag C over the quantum channels not scaled by the carrier.

    The engine reads those channels' summed jump probability off the drift,
    so the identity must hold for the records to be right.
    """
    if not np.all(np.isfinite(H)):
        raise InvariantViolationError("non-finite drift Hamiltonian; check rates and detuning")
    K = 1j * (H - H.conj().T)
    for ch in channels:
        if ch.operator is not None and not ch.scales_with_carrier:
            K -= ch.operator.conj().T @ ch.operator
    residual = np.abs(K).max()
    if not residual <= 1e-12 * max(1.0, np.abs(H).max()):
        raise InvariantViolationError(
            f"drift Hamiltonian does not match the jump operators: "
            f"max |i(H - H^dag) - sum C^dag C| = {residual:.3g}"
        )


def sector_amplitudes(vec, n: int) -> np.ndarray:
    """The two amplitudes of vec in quanta sector n, span{|n-1, excited>, |n, ground>}.

    They sit in the dense columns 2n - 1 and 2n, so the sector of column c is
    (c + 1) // 2.  Padded with one zero column at each end, every one of the
    n_max + 2 sectors is two columns wide: the first amplitude of sector 0 and
    the second of sector n_max + 1 are that padding.  Raises ValueError
    unless vec is zero outside sector n.
    """
    sectors = np.pad(np.asarray(vec, dtype=complex), 1).reshape(-1, 2)
    if not 0 <= n < len(sectors) or np.delete(sectors, n, axis=0).any():
        raise ValueError(f"a birth-death initial state must lie in the quanta sector of "
                         f"n0 = {n}, span{{|n0-1, excited>, |n0, ground>}}")
    return sectors[n]


def _sector_blocks(op: np.ndarray, shift: int, name: str) -> np.ndarray:
    """The (n_max + 2, 2, 2) blocks of op that map quanta sector n to n + shift,
    in the padded two-column layout of sector_amplitudes; zero where n + shift
    falls outside the sectors.

    The birth-death engine keeps only these blocks, so an entry of op outside
    them would be dropped unseen: InvariantViolationError, naming op as name.
    """
    S = len(op) // 2 + 1
    blocks = np.pad(op, 1).reshape(S, 2, S, 2).transpose(0, 2, 1, 3)
    n = np.arange(S)
    # a NaN entry is left to the step's non-finite guards
    outside = np.abs(blocks[n[:, None] - n[None, :] != shift])
    if (outside > 0).any():
        raise InvariantViolationError(
            f"{name} does not keep the quanta sectors: largest entry outside "
            f"them {np.nanmax(outside):.3g}")
    inside = (n + shift >= 0) & (n + shift < S)
    out = np.zeros((S, 2, 2), dtype=complex)
    out[inside] = blocks[n[inside] + shift, n[inside]]
    return out


@cache
def _hash_consts(start: int, mult: int, n: int) -> np.ndarray:
    """start * mult**k mod 2**32 for k = 0..n, as an (n + 1, 1) uint32 column."""
    return np.array([start * mult**k % 2**32 for k in range(n + 1)], np.uint32)[:, None]


def _hashmix(v, c, j, n, into=None):
    """numpy SeedSequence's hashmix of v's n rows by c[j:]; mix(into, that), given into."""
    v = v ^ c[j:j + n]
    v *= c[j + 1:j + n + 1]
    v ^= v >> 16
    if into is not None:
        v = into * 0xCA01F9DD - v * 0x4973F715
        v ^= v >> 16
    return v


def seed_words(seeds) -> np.ndarray:
    """np.random.SeedSequence(s).generate_state(4, np.uint64) of each seed s
    >= 0, as (len(seeds), 4) rows: numpy's hash (numpy.random.bit_generator)
    of every seed's 32-bit words at once, in uint32 arithmetic."""
    try:
        s = np.array(seeds, dtype=np.uint64)
        words, n = np.stack([s, s >> 32, 0 * s, 0 * s]).astype(np.uint32), 4
    except OverflowError:  # a seed of 2**64 or more
        ints = [int(x) for x in seeds]
        counts = np.array([(x.bit_length() + 31) // 32 for x in ints])
        n = max(4, counts.max())
        words = np.array([[x >> 32 * k & 0xFFFFFFFF for x in ints] for k in range(n)], np.uint32)
    a = _hash_consts(0x43B0D7E5, 0x931E8875, 4 * n)
    # a pool of four takes a seed's first words (zeros past its last, as in numpy) and
    # mixes them into each other, then the words past four of the seeds that have them
    pool = _hashmix(words[:4], a, 0, 4)
    for src, dst in enumerate([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]]):
        pool[dst] = _hashmix(pool[src], a, 4 + 3 * src, 3, into=pool[dst])
    for src in range(4, n):
        live = counts > src
        pool[:, live] = _hashmix(words[src, live], a, 4 * src, 4, into=pool[:, live])
    out = _hashmix(np.tile(pool, (2, 1)), _hash_consts(0x8B51F9DD, 0x58F38DED, 8), 0, 8)
    return out.T.astype("<u4", order="C").view("<u8").astype(np.uint64, copy=False)


@cache
def _stream():
    """default_rng's stream of a row of seed_words; numpy.random loads here, not on import."""
    from numpy.random import PCG64, Generator
    from numpy.random.bit_generator import ISeedSequence

    @dataclass
    class Words(ISeedSequence):
        words: np.ndarray

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):  # PCG64's one request
                raise NotImplementedError(f"generate_state({n_words}, {dtype}): numpy changed")
            return self.words

    return lambda words: Generator(PCG64(Words(words)))


def _ensemble_chunk(psi0_vec, config, source_model, grid, store_every, diagnostics,
                    store, seeds):
    """Advance the trajectories of seeds in lockstep from psi0_vec, normalized.

    A row of psi holds one trajectory.  For the coherent-drive and free-decay
    sources it is the dense state, and a no-jump step is one d x d product.
    For the birth-death source it is the two amplitudes of the row's quanta
    sector n_pred (sector_amplitudes), which H keeps and each jump moves by
    its channel's quanta_delta: a no-jump step applies the row's 2 x 2 block
    of I - i dt H - (dt/2) N g a a^dag, rewritten only when the row has an
    event, and a jump applies its channel's block from sector n_pred.
    _sector_blocks makes sure that no amplitude is lost this way.

    Between jumps a row is the unnormalized no-jump state, and its squared
    norm is carried along; the rows are normalized before every store and
    diagnostics update and every RENORMALIZE_EVERY steps.  Each trajectory
    owns the RNG stream of its seed and consumes one uniform per step plus one
    per jump, read in order from a fixed-width block that its own stream
    refills.  At stored time i of grid.stored_times(store_every) it calls
    store(i, psi, carrier) with the normalized dense (M, d) rows and (M,)
    carrier counts, its working arrays, which store copies from as needed;
    birth-death rows are scattered into one reused dense buffer first.
    Returns the records, each trajectory's largest Schmidt entropy (None
    without diagnostics), and the largest step probability, so the caller can
    warn about it.
    """
    psi0 = PureState(psi0_vec).normalized().vec
    M, dim = len(seeds), len(psi0)
    spec = FockSpec(dim // 2 - 1)
    dt = grid.dt
    H, channels = unraveling(source_model, config, spec)
    _check_drift(H, channels)
    birth_death = isinstance(source_model, BirthDeathLaser)
    n_ch = len(channels)
    quantum = [k for k, ch in enumerate(channels) if ch.operator is not None]
    classical = [k for k, ch in enumerate(channels) if ch.operator is None]
    rates = np.array([channels[k].rate for k in classical])
    scaled = [k for k, ch in enumerate(channels) if ch.scales_with_carrier]
    carrier_delta = np.array([ch.carrier_delta for ch in channels])
    quanta_delta = np.array([ch.quanta_delta for ch in channels])
    # position of each quantum channel among a row's jump vectors
    slot = {k: j for j, k in enumerate(quantum)}

    rows = np.arange(M)
    carrier = np.full(M, source_model.N0 if birth_death else 0, dtype=int)
    if birth_death:
        # summed rates of the classical channels, without and with the carrier factor
        rate_fixed = sum(channels[k].rate for k in classical if k not in scaled)
        rate_scaled = sum(channels[k].rate for k in classical if k in scaled)
        # per sector: the block of I - i dt H, of every C_k, and of the gain
        # back-action (dt/2) g a a^dag without its carrier factor
        drift = np.eye(2) - 1j * dt * _sector_blocks(H, 0, "drift Hamiltonian")
        jumps = np.stack([_sector_blocks(channels[k].operator, quanta_delta[k],
                                         f"jump operator {channels[k].label}")
                          for k in quantum], axis=1)
        gain_op = next(ch.operator for ch in channels if ch.label == "gain")
        damp = 0.5 * dt * _sector_blocks(gain_op.conj().T @ gain_op, 0, "gain back-action")
        n_pred = np.full(M, source_model.n0)
        psi = np.tile(sector_amplitudes(psi0, source_model.n0), (M, 1))
        # the no-jump map of each row, column by column: row m's no-jump state
        # is K[0, m] psi[m, 0] + K[1, m] psi[m, 1]; and the classical channels'
        # step probability of each row
        K = np.empty((2, M, 2), dtype=complex)
        p_classical = np.empty(M)

        def set_no_jump(idx):
            n = n_pred[idx]
            blocks = drift[n] - carrier[idx][:, None, None] * damp[n]
            K[:, idx] = blocks.transpose(2, 0, 1)
            p_classical[idx] = dt * (rate_fixed + rate_scaled * carrier[idx])

        part = np.empty_like(psi)
        # stored rows, scattered into their sectors' columns; the middle d
        # columns of the padded buffer are the dense rows
        padded = np.zeros((M, dim + 2), dtype=complex)
        dense = padded[:, 1:-1]
        set_no_jump(rows)
    else:
        psi = np.tile(psi0, (M, 1))
        HT = (-1j * dt * H).T
        # every C_k^T side by side: jump vectors of the rows that jump
        Fq = np.concatenate([channels[k].operator.T for k in quantum], axis=1)
    Z = np.empty_like(psi)
    psi_f, Z_f = psi.view(float), Z.view(float)

    rngs = list(map(_stream(), seed_words(seeds)))
    uniforms = np.empty((M, UNIFORM_BLOCK))
    cursor = np.full(M, UNIFORM_BLOCK)
    # flat index of the first uniform of each row's block
    starts = rows * UNIFORM_BLOCK

    def refill(idx):
        """Refill the block of each trajectory in idx from its own stream."""
        for m in idx.tolist():
            rngs[m].random(out=uniforms[m])
            cursor[m] = 0

    def draw(idx):
        """Next uniform of each trajectory in idx."""
        refill(idx[cursor[idx] == UNIFORM_BLOCK])
        u = uniforms[idx, cursor[idx]]
        cursor[idx] += 1
        return u

    def draw_all():
        """Next uniform of every trajectory: draw(rows) with less indexing."""
        refill(rows[cursor == UNIFORM_BLOCK])
        u = uniforms.take(starts + cursor)
        np.add(cursor, 1, out=cursor)
        return u

    # squared norm of each row of psi: rows are normalized only when needed
    sq = np.ones(M)

    def channel_probs(idx):
        """Jump vectors C_k psi, (len(idx), quantum channels, row width), and
        per-channel step probabilities of rows idx."""
        if birth_death:
            Y = np.matmul(jumps[n_pred[idx]], psi[idx][:, None, :, None])
        else:
            Y = psi[idx] @ Fq
        Y = Y.reshape(len(idx), len(quantum), -1)
        Yq = Y.view(float)
        probs = np.empty((len(idx), n_ch))
        probs[:, quantum] = np.einsum("mkd,mkd->mk", Yq, Yq) / sq[idx][:, None]
        probs[:, classical] = rates
        probs *= dt
        if scaled:
            probs[:, scaled] *= carrier[idx][:, None]
        return Y, probs

    def schmidt_weights():
        """Squared Schmidt coefficients of the normalized rows, (2, M)."""
        if birth_death:
            # a|n-1, excited> + b|n, ground> is in Schmidt form already
            return np.square(psi_f).reshape(M, 2, 2).sum(axis=2).T
        # Gram matrix A^dag A of each row's Fock x qubit amplitude matrix A,
        # in one batched product; its eigenvalues are the squared Schmidt
        # coefficients
        At = psi.reshape(M, spec.fock_dim, 2).transpose(0, 2, 1)
        G = np.vecdot(At[:, :, None, :], At[:, None, :, :])
        g00, g11 = G[:, 0, 0].real, G[:, 1, 1].real
        tr = g00 + g11
        det = g00 * g11 - np.abs(G[:, 0, 1]) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam = np.array((tr + disc, tr - disc))
        lam *= 0.5
        return lam

    max_ent = np.zeros(M)

    def update_diagnostics():
        lam = schmidt_weights()
        log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 1e-300)
        lam *= log_lam
        # max_ent starts at 0, so this also clips a negative rounding residue
        np.maximum(max_ent, -(lam[0] + lam[1]), out=max_ent)

    def store_rows(i):
        if birth_death:
            padded.fill(0.0)
            padded.reshape(M, -1, 2)[rows, n_pred] = psi
            store(i, dense, carrier)
        else:
            store(i, psi, carrier)

    events = [[] for _ in range(M)]
    max_p = 0.0
    store_rows(0)
    if diagnostics:
        update_diagnostics()

    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        # Z becomes the no-jump state psi - i dt H psi - (dt/2) N g a a^dag psi;
        # dt <psi| sum C^dag C |psi> over every quantum channel is -2 Re<psi|Z>
        # before psi is added, and 2 (|psi|^2 - Re<psi|Z>) after; divided by
        # |psi|^2 it is the Monte-Carlo wavefunction jump probability
        if birth_death:
            # psi is part of K, at the price of a cancellation that leaves p
            # a few ulps of |psi|^2 off
            np.multiply(K[0], psi[:, :1], out=Z)
            np.multiply(K[1], psi[:, 1:], out=part)
            Z += part
            p_tot = np.einsum("md,md->m", psi_f, Z_f)
            np.subtract(sq, p_tot, out=p_tot)
            p_tot *= 2.0
            p_tot /= sq
            p_tot += p_classical
        else:
            np.matmul(psi, HT, out=Z)
            # read before psi is added, so a p exactly at a bound stays there
            p_tot = np.einsum("md,md->m", psi_f, Z_f)
            p_tot *= -2.0
            Z += psi
            p_tot /= sq
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

        jumpers = np.nonzero(draw_all() < p_tot)[0]
        if len(jumpers):
            # from the pre-step states, before psi takes the no-jump state
            jump_vecs, probs = channel_probs(jumpers)

        np.einsum("md,md->m", Z_f, Z_f, out=sq)
        if not np.isfinite(sq.sum()):  # any NaN or inf row makes the sum so
            m = int(np.argmin(np.isfinite(sq)))
            raise InvariantViolationError(
                f"non-finite drift norm at t={t_next:.6g} (seed {seeds[m]})"
            )
        psi, Z = Z, psi
        psi_f, Z_f = Z_f, psi_f

        if len(jumpers):
            # scaled by the per-channel sum, which p_tot equals only to
            # rounding, so that r always falls inside the cumulative range;
            # the first channel whose cumulative probability exceeds r fires
            r = draw(jumpers) * probs.sum(axis=1)
            passed = np.cumsum(probs, axis=1) <= r[:, None]
            ks = np.minimum(passed.sum(axis=1), n_ch - 1)
            for vecs, m, k in zip(jump_vecs, jumpers.tolist(), ks.tolist()):
                ch = channels[k]
                if ch.operator is not None:
                    v = vecs[slot[k]]
                    nrm = np.linalg.norm(v)
                    if nrm == 0.0:
                        raise InvariantViolationError(
                            f"jump {ch.label} annihilated the state at t={t_next:.6g} "
                            f"(seed {seeds[m]})"
                        )
                    np.divide(v, nrm, out=psi[m])
                    sq[m] = 1.0
                events[m].append((t_next, ch.label))
            carrier[jumpers] += carrier_delta[ks]
            if birth_death:
                n_pred[jumpers] += quanta_delta[ks]
                set_no_jump(jumpers)

        storing = (step + 1) % store_every == 0
        # without a jump a row's squared norm shrinks by about 1 - p a step,
        # and p <= HARD_STEP_PROBABILITY, so between renormalizations it stays
        # above about 0.9 ** RENORMALIZE_EVERY
        if diagnostics or storing or (step + 1) % RENORMALIZE_EVERY == 0:
            np.sqrt(sq, out=sq)
            np.divide(psi_f, sq[:, None], out=psi_f)
            sq.fill(1.0)
        if diagnostics:
            update_diagnostics()
        if storing:
            store_rows((step + 1) // store_every)

    records = [Record(events=e, seed=s) for e, s in zip(events, seeds)]
    ents = [float(e) for e in max_ent] if diagnostics else [None] * M
    return records, ents, max_p


def _warn_step_probability(p: float):
    """Warn, at the line that called the public entry point, about a step
    probability above the recommended bound."""
    if p > SOFT_STEP_PROBABILITY:
        warnings.warn(
            f"step probability {p:.3g} exceeds recommended {SOFT_STEP_PROBABILITY}",
            stacklevel=3,
        )


def workers_from_env() -> int:
    """CASCADESIM_WORKERS as an int >= 1 (default 1); a ValueError naming it otherwise."""
    value = os.environ.get("CASCADESIM_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ValueError(f"CASCADESIM_WORKERS must be an integer >= 1, got {value!r}")
    return workers


def _projector_sum(psi0_vec, config, source_model, grid, store_every, diagnostics, seeds):
    """One seed block of run_ensemble: its (n_stored, d, d) projector sum, then
    the engine's results."""
    d = len(psi0_vec)
    acc = np.empty((len(grid.stored_times(store_every)), d, d), dtype=complex)

    def store(i, psi, carrier):
        np.matmul(psi.T, psi.conj(), out=acc[i])

    return acc, *_ensemble_chunk(psi0_vec, config, source_model, grid, store_every,
                                 diagnostics, store, seeds)


def run_ensemble(psi0: PureState, config: CouplingConfig, source_model,
                 grid: TimeGrid, seeds, store_every: int = 1,
                 diagnostics: bool = True, workers: int | None = None,
                 observe=None) -> EnsembleResult:
    """Run trajectories for every seed and average their projectors online.

    The seeds are cut into consecutive blocks of at most ENSEMBLE_BLOCK, one
    engine call each, whose sums are added in block order.  So each trajectory
    depends on its seed alone and the result on the arguments alone: the
    worker count changes only the wall time.  workers is an integer >= 1 and
    defaults to CASCADESIM_WORKERS; a process pool starts only for more than
    one worker and more than one block.  At most ENSEMBLE_BLOCK seeds make one
    block, which runs in-process.

    Each stored time's average goes to observe(rho) as a DensityOperator, in
    time order.  With one block it is formed, passed on and dropped while the
    trajectories run, so no array of every stored average is held; with more
    blocks the observer is fed from the total once every block sum is in.
    Without an observer the averages are collected into ``rho_avg``; with
    one, ``rho_avg`` is None.  A birth-death psi0 must lie in the quanta
    sector of source_model.n0, as for mcwf_run.
    """
    seeds = check_seeds(seeds)
    times = grid.stored_times(store_every)
    rho_avg = [] if observe is None else None
    observe = rho_avg.append if observe is None else observe
    if workers is None:
        workers = workers_from_env()
    elif isinstance(workers, bool) or not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ValueError(f"workers must be an integer >= 1, got {workers!r}")
    blocks = [seeds[i:i + ENSEMBLE_BLOCK] for i in range(0, len(seeds), ENSEMBLE_BLOCK)]
    workers = min(workers, len(blocks))
    if len(blocks) == 1:
        def average(i, psi, carrier):
            observe(DensityOperator(psi.T @ psi.conj() / len(seeds), layout=COMPOSITE))

        records, entropies, max_p = _ensemble_chunk(
            psi0.vec, config, source_model, grid, store_every, diagnostics, average, seeds)
    else:
        chunk = partial(_projector_sum, psi0.vec, config, source_model, grid,
                        store_every, diagnostics)
        if workers > 1:
            # the pool pulls in multiprocessing, so only a run that uses one loads it
            from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) if workers > 1 else nullcontext() as pool:
            results = pool.map(chunk, blocks) if pool else map(chunk, blocks)
            # the first block's sum and lists grow in place: no second copy of the sum
            acc, records, entropies, max_p = next(results)
            for block_acc, recs, ents, p in results:
                acc += block_acc
                records += recs
                entropies += ents
                max_p = max(max_p, p)
        acc /= len(seeds)
        for mat in acc:
            observe(DensityOperator(mat, layout=COMPOSITE))
    _warn_step_probability(max_p)
    return EnsembleResult(times, rho_avg, records, entropies)
