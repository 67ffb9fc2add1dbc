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
one 2 x 2 product (checked once per run by _sector_blocks).  The engine keeps
the highest sector a row reached, and a run whose rows reach sector n_max,
from which on truncation suppresses a gain jump, warns once with a
TruncationWarning.  The no-jump state is not renormalized: each trajectory
carries its squared norm |psi|^2 instead,
the norm-decay view of the method (Molmer, Castin & Dalibard, JOSA B 10, 524
(1993)).  A state is normalized when it jumps, before it is stored or its
diagnostics are taken, and every RENORMALIZE_EVERY steps.  The diagnostics
copy each step's normalized rows into a history of steps, sized by
DIAGNOSTIC_LANES, and take the Schmidt entropies of all of its rows in one
pass when it is full and after the last step.  Only the
trajectories that jump compute the per-channel jump vectors C_k psi, from
their pre-step state, to pick the channel.  One uniform variate is drawn per
step, plus one per jump for the channel.  Each trajectory owns exactly one
stream of uniforms, default_rng(seed)'s, which it reads from a
streams.UniformRing, so results are bit-reproducible given (config, seed);
the streams module computes them without numpy.random.  There is one
trajectory engine, vectorized over seeds, and run_ensemble is its one entry
point; a single trajectory is its one-seed call.  It hands each stored
time's dense rows to its caller's store callback, one seed block at a time,
and keeps none.  evolve_master and
run_ensemble hand their stored states on as they are checked or averaged, to
an observer called as observe(times, stack) with a (B, d, d) stack of states
and their B stored times, by one block rule (_Blocks): at most STORE_BLOCK
states a call; without one they return DensityOperator lists.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (
    ConfigError,
    DimensionMismatchError,
    InvariantViolationError,
    StepProbabilityError,
    TruncationWarning,
)
from .hilbert import DensityOperator, FockSpec, PureState, check_states
from .liouvillian import CouplingConfig, Superoperator, block_gather, gather
from .sources import BirthDeathLaser, unraveling
from .streams import UniformRing

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
        if not math.isfinite(n):
            raise ValueError(f"(t1 - t0)/dt = {n} is not finite")
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
    # the common case in one pass: plain ints, none negative and none repeated
    if set(map(type, seeds)) == {int} and min(seeds) >= 0 and len(set(seeds)) == len(seeds):
        return seeds
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


def expectation(rho: np.ndarray, op: np.ndarray) -> complex:
    """trace(op @ rho) of two (d, d) arrays."""
    m, o = np.asarray(rho), np.asarray(op)
    if m.shape != o.shape:
        raise DimensionMismatchError(f"shapes {m.shape} and {o.shape} differ")
    return complex(np.sum(o.T * m))


# stored master states are checked and observed STORE_BLOCK at a time: at
# d 26 that took about 12 us a state against about 35 us one by one, larger
# blocks gained nothing measurable, and each temporary stays near 90 KB
STORE_BLOCK = 8
# trace drift, hermiticity residual and negativity that abort a master run
MASTER_TOLS = dict(trace_tol=1e-8, herm_tol=1e-8, eig_tol=1e-8)


def _observe_checked(observe, times, states):
    """Hand observe(times, stack), in one call, the states of a (B, d, d)
    block of stored states that come before the first to fail check_states,
    with their times; then raise at that one with its own time."""
    failure = check_states(states, **MASTER_TOLS)
    n = len(states) if failure is None else failure[0]
    if n:
        observe(times[:n], states[:n])
    if failure is not None:
        raise InvariantViolationError(
            f"master integration failed at t={times[n]:.6g}: {failure[1]}")


class _Blocks:
    """The one block rule of both integrators: add(t, state) holds a stored
    state and its time, and the states held go to hand_on(times, stack) in
    one call, as a fresh (B, d, d) stack and their times, once STORE_BLOCK
    are held, at once when add is called with now true, and at flush():
    after the last stored time and before a failure propagates."""

    def __init__(self, hand_on):
        self.hand_on, self.held = hand_on, []

    def add(self, t, state, now=False):
        self.held.append((t, state))
        if now or len(self.held) == STORE_BLOCK:
            self.flush()

    def flush(self):
        if self.held:
            times, states = zip(*self.held)
            self.held = []
            self.hand_on(np.array(times), np.stack(states))


def _collector():
    """The list that run results are returned in, and the observer that
    appends each state of its blocks to it as a DensityOperator view."""
    out = []
    return out, lambda times, stack: out.extend(map(DensityOperator, stack))


def evolve_master(rho0: DensityOperator, L_total: Superoperator, grid: TimeGrid,
                  store_every: int = 1, observe=None) -> list | None:
    """Classical RK4 on d rho/dt = L rho; stored states are invariant-checked.

    Trace drift beyond 1e-8 or negativity below -1e-8 aborts with a diagnostic
    that names the time of the first stored state to fail.  rho0 is checked
    and observed first, on its own.  The later states of
    grid.stored_times(store_every) are checked STORE_BLOCK at a time, by
    the block rule run_ensemble shares (_Blocks), and once a block has
    passed it goes to observe(times, stack) in one call:
    its stored times and its (B, d, d) stack, a fresh array that no later
    call writes to, so an observer may keep it.  The states before a failing
    one are observed and those after it are not.  Finiteness and trace are
    tested as each state is stored, so the run never steps on from a state
    that fails them.  Without an observer the stored states are returned as
    a list of DensityOperator views, square density matrices like rho0,
    which may be a composite state or one factor's; with one, None is
    returned and no state is kept here.  If L_total keeps the k-blocks and
    rho0 leaves some of them empty
    (liouvillian.block_gather), RK4 runs on the entries of the blocks rho0
    occupies, and each later stored state holds zeros outside them;
    otherwise it runs on every entry.  Either way each derivative is one
    liouvillian.gather call on the compiled form.
    """
    times = grid.stored_times(store_every)
    out, observe = _collector() if observe is None else (None, observe)
    d = L_total.dim

    m = np.array(rho0.mat, dtype=complex)
    _observe_checked(observe, times, m.copy()[None])
    blocks = block_gather(L_total, m)
    if blocks is None:
        keep, v, (index, weight) = slice(None), m.ravel(), L_total.compiled
    else:
        keep, index, weight = blocks
        v = m.ravel()[keep]
    derivative = partial(gather, index, weight)
    dt = grid.dt
    stored = _Blocks(partial(_observe_checked, observe))
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
        state = np.zeros((d, d), dtype=complex)
        state.ravel()[keep] = v
        # a state that is not finite or has lost its trace ends the run here;
        # hermiticity and positivity wait for the block to fill
        stored.add(times[(step + 1) // store_every], state, not np.isfinite(v).all()
                   or not abs(state.trace() - 1.0) <= MASTER_TOLS["trace_tol"])
    stored.flush()
    return out


@dataclass
class EnsembleResult:
    times: np.ndarray
    rho_avg: list | None          # of DensityOperator; None when observed instead
    records: list                 # of Record
    max_schmidt_entropies: list


# steps between renormalizations of every trajectory's state, which is
# otherwise normalized only where a jump, a store or the diagnostics need it
RENORMALIZE_EVERY = 64
# seeds per block of run_ensemble: the unit of its reduction, of a pool task and of
# a dense engine call; a constant, so the sum's order follows the seeds
ENSEMBLE_BLOCK = 1024
# bytes that one in-process engine call of sector rows may hold, at 64 bytes a
# row for its two amplitudes and their no-jump state, and ROW_BYTES more
# (tracemalloc put a row's bookkeeping, ring and seeding at 410-640 bytes);
# run_ensemble's window of sector rows is as many whole seed blocks as fit in
# it, and at least one
WINDOW_BYTES = 4 << 20
ROW_BYTES = 640
# amplitudes of the normalized rows that the diagnostics hold, a step's rows
# at a time, before their Schmidt entropies are taken in one pass: at most 64
# steps and 512 KB, and per step when fewer than two steps fit
DIAGNOSTIC_LANES = 32768


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
    in the padded two-column form of sector_amplitudes; zero where n + shift
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


def _pair_dots(rows: int):
    """A function dots(a, b, out) that writes the row dots of (rows, 4) float
    arrays a and b into out, (rows,), as (q0 + q2) + (q1 + q3) of q = a * b.

    That is the order of np.einsum("md,md->m") over two-lane vectors without
    fused multiply-add, so the bits are einsum's, but for the sign of a zero:
    four -0.0 products sum to -0.0 here and to +0.0 there.  A sum of squares
    has no -0.0 product, and a dot read as s - dot loses the zero's sign."""
    prod, lanes = np.empty((rows, 4)), np.empty((2, rows))
    # the pairs are added into rows-last scratch, so that numpy's inner loop
    # runs over the rows, not over a row's two lanes
    lo, hi = prod.T[:2], prod.T[2:]
    lane0, lane1 = lanes

    def dots(a, b, out):
        np.multiply(a, b, out=prod)
        np.add(lo, hi, out=lanes)
        return np.add(lane0, lane1, out=out)
    return dots


class _DenseRows:
    """Rows of the coherent-drive and free-decay sources: a row is the dense
    state, and a no-jump step is one d x d product.  A gemm row's rounding
    depends on how many rows share the call, so run_ensemble steps at most
    one seed block of dense rows per engine call, and each row gets the bits
    of a call on its block alone.  The carrier counts stay zero.

    _SectorRows has the same methods and attributes: initial, the (M,
    width) rows of psi0; carrier, the (M,) carrier counts; and top, the
    highest quanta sector any row reached and the first time one did, None
    here."""

    top = None

    def __init__(self, psi0, model, H, channels, spec, grid, M):
        self.initial = np.tile(psi0, (M, 1))
        self.carrier = np.zeros(M, dtype=int)
        self.fock_dim = spec.fock_dim
        self.HT = (-1j * grid.dt * H).T
        # every C_k^T side by side: jump vectors of the rows that jump
        self.Fq = np.hstack([ch.operator.T for ch in channels if ch.operator is not None])

    @staticmethod
    def dots(a, b, out):
        """The row dots of float views a and b, into out."""
        return np.einsum("md,md->m", a, b, out=out)

    def no_jump(self, psi, Z, psi_f, Z_f, sq):
        """Write the no-jump state of each row of psi into Z, and return its
        step probability given its squared norm sq; psi_f and Z_f are the
        float views of psi and Z."""
        np.matmul(psi, self.HT, out=Z)
        # read before psi is added, so a p exactly at a bound stays there
        p = self.dots(psi_f, Z_f, out=np.empty(len(sq)))
        p *= -2.0
        Z += psi
        p /= sq
        return p

    def jump_vectors(self, psi, idx):
        """The jump vectors C_k psi of rows idx, every quantum channel's."""
        return psi[idx] @ self.Fq

    def jumped(self, idx, carrier_delta, quanta_delta, t):
        """After rows idx jump at time t, by channels with these deltas; the
        first row whose carrier count left int64, or None.  A dense row holds
        its whole state, and these sources' channels move no carrier: nothing
        to update."""

    def schmidt_weights(self, states):
        """Squared Schmidt coefficients of normalized rows, (2, rows)."""
        # Gram matrix A^dag A of each row's Fock x qubit amplitude matrix A,
        # whose eigenvalues are the squared Schmidt coefficients: its two
        # diagonal entries and g01, each in one batched product
        At = states.reshape(len(states), self.fock_dim, 2).transpose(0, 2, 1)
        g00, g11 = (np.vecdot(At[:, q], At[:, q]).real for q in (0, 1))
        g01 = np.vecdot(At[:, 0], At[:, 1])
        tr = g00 + g11
        det = g00 * g11 - np.abs(g01) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam = np.array((tr + disc, tr - disc))
        lam *= 0.5
        return lam

    def block_rows(self, psi, b):
        """Block b's rows as dense (rows, d) states, and their carriers."""
        return psi[b], self.carrier[b]


class _SectorRows:
    """Rows of the birth-death source: a row is the two amplitudes of its
    quanta sector n_pred (sector_amplitudes), which H keeps and each jump
    moves by its channel's quanta_delta.  A no-jump step applies the row's
    2 x 2 block of I - i dt H - (dt/2) N g a a^dag, rewritten only when the
    row has an event, and a jump applies its channel's block from sector
    n_pred.  _sector_blocks makes sure that no amplitude is lost this way.
    The no-jump maps are held with rows last, so a step is two multiplies
    over every row's lanes, and the rows' dots are _pair_dots.  The work is
    elementwise or stacked 2 x 2 products, whose bits do not depend on the
    row count, so run_ensemble steps a window of several seed blocks in one
    call.  Stored rows are scattered into one reused dense buffer of at most
    ENSEMBLE_BLOCK rows."""

    def __init__(self, psi0, model, H, channels, spec, grid, M):
        classical = [ch for ch in channels if ch.operator is None]
        # summed rates of the classical channels, without and with the carrier factor
        self.rate_fixed = sum(ch.rate for ch in classical if not ch.scales_with_carrier)
        self.rate_scaled = sum(ch.rate for ch in classical if ch.scales_with_carrier)
        dt = self.dt = grid.dt
        # per sector: the block of I - i dt H, of every C_k, and of the gain
        # back-action (dt/2) g a a^dag without its carrier factor
        self.drift = np.eye(2) - 1j * dt * _sector_blocks(H, 0, "drift Hamiltonian")
        self.jumps = np.stack([_sector_blocks(ch.operator, ch.quanta_delta,
                                              f"jump operator {ch.label}")
                               for ch in channels if ch.operator is not None], axis=1)
        gain_op = next(ch.operator for ch in channels if ch.label == "gain")
        self.damp = 0.5 * dt * _sector_blocks(gain_op.conj().T @ gain_op, 0, "gain back-action")
        self.carrier = np.full(M, model.N0, dtype=int)
        self.n_pred = np.full(M, model.n0)
        self.initial = np.tile(sector_amplitudes(psi0, model.n0), (M, 1))
        # the no-jump map of every row, column by column and rows last: row
        # m's no-jump state is K[0, :, m] psi[m, 0] + K[1, :, m] psi[m, 1];
        # and the classical channels' step probability of each row
        self.K = np.empty((2, 2, M), dtype=complex)
        self.p_classical = np.empty(M)
        self.part = np.empty_like(self.initial)
        self.dots = _pair_dots(M)
        # a block's stored rows, scattered into their sectors' columns; the
        # middle d columns of the padded buffer are the dense rows
        self.padded = np.zeros((min(M, ENSEMBLE_BLOCK), spec.dim + 2), dtype=complex)
        self.top = (model.n0, grid.t0)
        self.jumped(np.arange(M), 0, 0, grid.t0)

    def no_jump(self, psi, Z, psi_f, Z_f, sq):
        # psi is part of K, at the price of a cancellation that leaves p
        # a few ulps of |psi|^2 off; each multiply runs over (2, M) lanes,
        # rows last as in K
        np.multiply(self.K[0], psi[:, 0], out=Z.T)
        np.multiply(self.K[1], psi[:, 1], out=self.part.T)
        Z += self.part
        p = self.dots(psi_f, Z_f, out=np.empty(len(sq)))
        np.subtract(sq, p, out=p)
        p *= 2.0
        p /= sq
        p += self.p_classical
        return p

    def jump_vectors(self, psi, idx):
        return np.matmul(self.jumps[self.n_pred[idx]], psi[idx][:, None, :, None])

    def jumped(self, idx, carrier_delta, quanta_delta, t):
        """Move rows idx by their channels' deltas at time t, raise top if
        one enters a sector above it, and rewrite their no-jump maps and
        classical step probabilities; the first row whose carrier count left
        int64, or None."""
        old = self.carrier[idx]
        N = old + carrier_delta
        # numpy's int64 add wraps: a count that moved against its delta left int64
        wrapped = (N < old) != (carrier_delta < 0)
        if wrapped.any():
            return int(idx[wrapped.argmax()])
        self.carrier[idx] = N
        self.n_pred[idx] += quanta_delta
        n = self.n_pred[idx]
        top = int(n.max())
        if top > self.top[0]:
            self.top = (top, t)
        maps = self.drift[n] - N[:, None, None] * self.damp[n]
        self.K[:, :, idx] = maps.transpose(2, 1, 0)
        self.p_classical[idx] = self.dt * (self.rate_fixed + self.rate_scaled * N)

    @staticmethod
    def schmidt_weights(states):
        # a|n-1, excited> + b|n, ground> is in Schmidt form already
        return np.square(states.view(float)).reshape(len(states), 2, 2).sum(axis=2).T

    def block_rows(self, psi, b):
        n = len(self.carrier[b])
        self.padded[:n].fill(0.0)
        self.padded[:n].reshape(n, -1, 2)[np.arange(n), self.n_pred[b]] = psi[b]
        return self.padded[:n, 1:-1], self.carrier[b]


def _ensemble_chunk(psi0_vec, config, source_model, grid, store_every, diagnostics,
                    store, seeds):
    """Advance the trajectories of seeds in lockstep from psi0_vec, normalized.

    A row of psi holds one trajectory: a _SectorRows row for the
    birth-death source and a _DenseRows row for the others.  The row kind
    owns the rows' carriers, the no-jump step, the jump vectors, the update
    after a jump, the Schmidt weights and the stored rows; this loop owns
    what both kinds share.

    Between jumps a row is the unnormalized no-jump state, and its squared
    norm is carried along; the rows are normalized before every store, at
    every step when diagnostics are on, and every RENORMALIZE_EVERY steps.
    The diagnosed rows wait in a history of min(64, DIAGNOSTIC_LANES // psi
    size) steps, or none when that is below two.  Each trajectory
    owns default_rng(seed)'s stream of uniforms and consumes one per step
    plus one per jump, read from one UniformRing over every row.

    Every row steps in lockstep.  The seeds are cut into consecutive blocks
    of at most ENSEMBLE_BLOCK rows, and at stored time i of
    grid.stored_times(store_every) it calls store(i, parts), where parts
    yields one (psi, carrier) pair per block, in block order: the block's
    normalized dense (rows, d) states and (rows,) carrier counts.  These are
    working arrays, so store consumes parts during the call and copies what
    it keeps.  Returns the records, each trajectory's largest Schmidt
    entropy (None without diagnostics), the largest step probability, and
    the rows' top (the highest quanta sector a sector row reached and the
    first time one did; None for dense rows), so the caller can warn about
    them.  A failure is raised at the earliest step where any row fails.
    The call holds every row of seeds at once,
    about 32 width + ROW_BYTES bytes a row; run_ensemble bounds that by
    calling it on one window of seed blocks at a time (_window).
    """
    psi0 = PureState(psi0_vec).normalized().vec
    M, dim = len(seeds), len(psi0)
    spec = FockSpec(dim // 2 - 1)
    dt = grid.dt
    H, channels = unraveling(source_model, config, spec)
    _check_drift(H, channels)
    rows = (_SectorRows if isinstance(source_model, BirthDeathLaser) else _DenseRows)(
        psi0, source_model, H, channels, spec, grid, M)
    n_ch = len(channels)
    # channel indices as intp arrays, which channel_probs indexes with as they are
    quantum = np.flatnonzero([ch.operator is not None for ch in channels])
    classical = np.flatnonzero([ch.operator is None for ch in channels])
    scaled = np.flatnonzero([ch.scales_with_carrier for ch in channels])
    rates = np.array([channels[k].rate for k in classical])
    carrier_delta = np.array([ch.carrier_delta for ch in channels])
    quanta_delta = np.array([ch.quanta_delta for ch in channels])
    # position of each quantum channel among a row's jump vectors
    slot = {k: j for j, k in enumerate(quantum.tolist())}

    blocks = [slice(lo, lo + ENSEMBLE_BLOCK) for lo in range(0, M, ENSEMBLE_BLOCK)]
    psi = rows.initial
    Z = np.empty_like(psi)
    psi_f, Z_f = psi.view(float), Z.view(float)

    uniforms = UniformRing(seeds)

    # squared norm of each row of psi: rows are normalized only when needed
    sq = np.ones(M)

    def channel_probs(idx):
        """Jump vectors C_k psi, (len(idx), quantum channels, row width), and
        per-channel step probabilities of rows idx."""
        Y = rows.jump_vectors(psi, idx).reshape(len(idx), len(quantum), -1)
        Yq = Y.view(float)
        probs = np.empty((len(idx), n_ch))
        probs[:, quantum] = np.einsum("mkd,mkd->mk", Yq, Yq) / sq[idx][:, None]
        probs[:, classical] = rates
        probs *= dt
        if len(scaled):
            probs[:, scaled] *= rows.carrier[idx][:, None]
        return Y, probs

    max_ent = np.zeros(M)

    def update_diagnostics(stack):
        """Fold the Schmidt entropies of a (steps, M, width) stack of
        normalized rows into max_ent; each row's arithmetic is elementwise
        and max is exact, so the stack's size changes no bit."""
        lam = rows.schmidt_weights(stack.reshape(-1, psi.shape[1]))
        log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 1e-300)
        lam *= log_lam
        # 0 - x, not -x, so that a product row's zero entropy is +0.0
        ent = 0.0 - (lam[0] + lam[1])
        # max_ent starts at 0, so this also clips a negative rounding residue
        np.maximum(max_ent, ent.reshape(len(stack), M).max(axis=0), out=max_ent)

    # the rows of each diagnosed step are copied into history, whose
    # entropies are taken once it is full and after the last step
    held, history = 0, None
    steps = min(64, DIAGNOSTIC_LANES // psi.size)
    if diagnostics and steps >= 2:
        history = np.empty((steps, *psi.shape), dtype=complex)

    def diagnose():
        nonlocal held
        if history is None:
            update_diagnostics(psi[None])
            return
        history[held] = psi
        held += 1
        if held == len(history):
            update_diagnostics(history)
            held = 0

    def store_rows(i):
        store(i, (rows.block_rows(psi, b) for b in blocks))

    events = [[] for _ in range(M)]
    max_p = 0.0
    store_rows(0)
    if diagnostics:
        diagnose()

    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        # Z becomes the no-jump state psi - i dt H psi - (dt/2) N g a a^dag psi;
        # dt <psi| sum C^dag C |psi> over every quantum channel is -2 Re<psi|Z>
        # before psi is added, and 2 (|psi|^2 - Re<psi|Z>) after; divided by
        # |psi|^2 it is the Monte-Carlo wavefunction jump probability
        p_tot = rows.no_jump(psi, Z, psi_f, Z_f, sq)
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

        jumpers = np.nonzero(uniforms.draw_all() < p_tot)[0]
        if len(jumpers):
            # from the pre-step states, before psi takes the no-jump state
            jump_vecs, probs = channel_probs(jumpers)

        rows.dots(Z_f, Z_f, out=sq)
        # any NaN or inf row makes the sum so, and so may an overflow of finite rows
        if not np.isfinite(sq.sum()) and not np.isfinite(sq).all():
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
            r = uniforms.draw(jumpers) * probs.sum(axis=1)
            passed = np.cumsum(probs, axis=1) <= r[:, None]
            ks = np.minimum(passed.sum(axis=1), n_ch - 1)
            for vecs, m, k in zip(jump_vecs, jumpers.tolist(), ks.tolist()):
                ch = channels[k]
                if ch.operator is not None:
                    v = vecs[slot[k]]
                    # the calls np.linalg.norm makes for a complex vector
                    nrm = math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))
                    if nrm == 0.0:
                        raise InvariantViolationError(
                            f"jump {ch.label} annihilated the state at t={t_next:.6g} "
                            f"(seed {seeds[m]})"
                        )
                    np.divide(v, nrm, out=psi[m])
                    sq[m] = 1.0
                events[m].append((t_next, ch.label))
            m = rows.jumped(jumpers, carrier_delta[ks], quanta_delta[ks], t_next)
            if m is not None:
                raise InvariantViolationError(
                    f"carrier count left int64 at t={t_next:.6g} (seed {seeds[m]})")

        storing = (step + 1) % store_every == 0
        # without a jump a row's squared norm shrinks by about 1 - p a step,
        # and p <= HARD_STEP_PROBABILITY, so between renormalizations it stays
        # above about 0.9 ** RENORMALIZE_EVERY
        if diagnostics or storing or (step + 1) % RENORMALIZE_EVERY == 0:
            np.sqrt(sq, out=sq)
            np.divide(psi_f, sq[:, None], out=psi_f)
            sq.fill(1.0)
        if diagnostics:
            diagnose()
        if storing:
            store_rows((step + 1) // store_every)

    if held:
        update_diagnostics(history[:held])
    records = [Record(events=e, seed=s) for e, s in zip(events, seeds)]
    ents = [float(e) for e in max_ent] if diagnostics else [None] * M
    return records, ents, max_p, rows.top


def _warn_run(parts, n_max: int):
    """Warn, at the line that called run_ensemble, once for a run whose
    engine calls returned parts: when its largest step probability is above
    the recommended bound, and when one of its rows reached quanta sector
    n_max or n_max + 1, where truncation drops a gain jump (in sector n_max,
    |n_max, ground>'s).  The warning names the highest sector the rows
    reached and the first time one did, the earliest of the parts that
    reached it."""
    p = max(p for _, _, p, _ in parts)
    if p > SOFT_STEP_PROBABILITY:
        warnings.warn(f"step probability {p:.3g} exceeds recommended {SOFT_STEP_PROBABILITY}",
                      stacklevel=3)
    tops = [top for *_, top in parts if top is not None]
    if tops:
        sector, first = min(tops, key=lambda top: (-top[0], top[1]))
        if sector >= n_max:
            warnings.warn(
                f"trajectories reached quanta sector {sector} (n_max={n_max}), first at "
                f"t={first:.6g}, where truncation suppresses a gain jump",
                TruncationWarning, stacklevel=3)


def workers_from_env() -> int:
    """CASCADESIM_WORKERS as an int >= 1 (default 1); a ConfigError naming it otherwise."""
    value = os.environ.get("CASCADESIM_WORKERS", "1")
    try:
        workers = int(value)
    except ValueError:
        workers = 0
    if workers < 1:
        raise ConfigError(f"CASCADESIM_WORKERS must be an integer >= 1, got {value!r}")
    return workers


def _window(source_model) -> int:
    """Seeds per in-process engine call of run_ensemble: one seed block of
    dense rows; of sector rows, as many whole seed blocks as WINDOW_BYTES
    holds, and at least one."""
    if not isinstance(source_model, BirthDeathLaser):
        return ENSEMBLE_BLOCK
    return max(1, WINDOW_BYTES // (ENSEMBLE_BLOCK * (64 + ROW_BYTES))) * ENSEMBLE_BLOCK


def _add_projectors(parts, total=None):
    """Add each block's projector sum psi.T @ psi.conj() of parts, store's
    (psi, carrier) pairs, into total in block order; without total, a new
    array that starts as the first block's sum.  Returns total."""
    for psi, _ in parts:
        if total is None:
            total = psi.T @ psi.conj()
        else:
            total += psi.T @ psi.conj()
    return total


def _projector_sum(psi0_vec, config, source_model, grid, store_every, diagnostics, seeds,
                   acc=None):
    """Step seeds, whole seed blocks, in one lockstep engine call and add each
    block's projector sum at each stored time into acc, (n_stored, d, d), in
    block order; a new acc, starting from the first block's sum, when None.
    Returns acc, then the engine's results.  A pool task is one block; an
    in-process window passes on the acc of the window before it."""
    fresh = acc is None
    if fresh:
        d = len(psi0_vec)
        acc = np.empty((len(grid.stored_times(store_every)), d, d), dtype=complex)

    def store(i, parts):
        acc[i] = _add_projectors(parts, None if fresh else acc[i])

    return acc, *_ensemble_chunk(psi0_vec, config, source_model, grid, store_every,
                                 diagnostics, store, seeds)


def run_ensemble(psi0: PureState, config: CouplingConfig, source_model,
                 grid: TimeGrid, seeds, store_every: int = 1,
                 diagnostics: bool = True, observe=None) -> EnsembleResult:
    """Run trajectories for every seed and average their projectors online.

    The seeds are cut into consecutive blocks of at most ENSEMBLE_BLOCK.  A
    block is the unit of the reduction: each stored time's average is the
    first block's projector sum, plus each later block's in block order,
    divided by the seed count.  So each trajectory depends on its seed alone
    and the result on the arguments alone: the worker count,
    CASCADESIM_WORKERS (workers_from_env), changes only the wall time.

    With one worker, or one block, the blocks run in-process, one lockstep
    engine call a window of seeds (_window): one block of dense rows, or as
    many whole blocks of sector rows as WINDOW_BYTES holds.  So the engine's
    memory does not grow with the seed count.  When every seed fits one
    window, each stored time's average is formed block by block and held
    only until it is handed on, while the trajectories run, so no array of
    every stored average is held.  With more windows (more than
    ENSEMBLE_BLOCK dense seeds, say), each adds its blocks' sums into one
    (n_stored, d, d) total.  With more workers a process pool runs one block
    a task, each of which returns its (n_stored, d, d) sum, added into the
    total in block order.

    The averages go to observe(times, stack) in time order, by evolve_master's
    block rule (_Blocks): when every seed fits one window, in blocks of at
    most STORE_BLOCK as they are formed, a block handed on when it is full,
    after the last stored time and before a failure propagates, so a failed
    run's observer holds every average before the failure; otherwise the
    whole total in one call once every block is in.  No later call writes to
    a stack an observer was given.  Without an observer the averages are
    collected into ``rho_avg`` as DensityOperator views of the composite
    averages; with one, ``rho_avg`` is None.  A birth-death psi0 must lie in
    the quanta sector of source_model.n0; ValueError otherwise.  A failure is the
    first failing window's, raised at the earliest step where any of its
    trajectories fails; for dense rows, and on a pool, that is the first
    failing block's.  A run that completes warns at most once of each kind,
    at the caller's line, whatever its windows or workers: a UserWarning
    when its largest step probability is above SOFT_STEP_PROBABILITY, and,
    for birth-death rows, a TruncationWarning when a row reached quanta
    sector n_max or above, naming the highest sector reached and the first
    time a row did.
    """
    seeds = check_seeds(seeds)
    times = grid.stored_times(store_every)
    rho_avg, observe = _collector() if observe is None else (None, observe)
    blocks = [seeds[i:i + ENSEMBLE_BLOCK] for i in range(0, len(seeds), ENSEMBLE_BLOCK)]
    workers = min(workers_from_env(), len(blocks))
    window = _window(source_model)
    if workers == 1 and len(seeds) <= window:
        averages = _Blocks(observe)

        def average(i, parts):
            averages.add(times[i], _add_projectors(parts) / len(seeds))

        try:
            parts = [_ensemble_chunk(psi0.vec, config, source_model, grid, store_every,
                                     diagnostics, average, seeds)]
        finally:
            averages.flush()
    else:
        chunk = partial(_projector_sum, psi0.vec, config, source_model, grid, store_every,
                        diagnostics)
        if workers == 1:
            acc, parts = None, []
            for lo in range(0, len(seeds), window):
                acc, *part = chunk(seeds[lo:lo + window], acc)
                parts.append(part)
        else:
            # the pool pulls in multiprocessing, so only a run that uses one loads it
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(workers) as pool:
                results = pool.map(chunk, blocks)
                acc, *part = next(results)
                parts = [part]
                for block_acc, *part in results:
                    acc += block_acc
                    parts.append(part)
        acc /= len(seeds)
        observe(times, acc)
    _warn_run(parts, len(psi0.vec) // 2 - 1)
    records = [r for recs, *_ in parts for r in recs]
    entropies = [e for _, ents, *_ in parts for e in ents]
    return EnsembleResult(times, rho_avg, records, entropies)
