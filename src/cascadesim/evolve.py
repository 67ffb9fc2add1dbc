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
diagnostics are taken, and every RENORMALIZE_EVERY steps.  The diagnostics
copy each step's normalized rows into a history of steps, sized by
DIAGNOSTIC_LANES, and take the Schmidt entropies of all of its rows in one
pass when it is full and after the last step.  Only the
trajectories that jump compute the per-channel jump vectors C_k psi, from
their pre-step state, to pick the channel.  One uniform variate is drawn per
step, plus one per jump for the channel.  Each trajectory owns exactly one
stream of uniforms, default_rng(seed)'s, so results are bit-reproducible given
(config, seed); the engine computes every stream's PCG64 states itself, in
numpy integer arithmetic over all rows at once, and never imports
numpy.random (the tests check each stream against numpy's own).  There is one
trajectory engine, vectorized over seeds; a single trajectory is its one-seed
call.  It hands each stored time's dense rows to its caller's store callback,
one seed block at a time, and keeps none.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import (
    GridMismatchError,
    InvariantViolationError,
    StepProbabilityError,
)
from .hilbert import COMPOSITE, DensityOperator, FockSpec, Operator, PureState, check_states
from .liouvillian import CouplingConfig, Superoperator, block_gather, gather
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
    L_total keeps the k-blocks and rho0 leaves some of them empty
    (liouvillian.block_gather), RK4 runs on the entries of the blocks rho0
    occupies, and each later stored state holds zeros outside them;
    otherwise it runs on every entry.  Either way each derivative is one
    liouvillian.gather call on the compiled form.
    """
    times = grid.stored_times(store_every)
    out = [] if observe is None else None
    observe = out.append if observe is None else observe
    d = L_total.dim

    m = np.array(rho0.mat, dtype=complex)
    _observe_checked(m.copy()[None], times, rho0.layout, observe)
    blocks = block_gather(L_total, m)
    if blocks is None:
        keep, v, (index, weight) = slice(None), m.ravel(), L_total.compiled
    else:
        keep, index, weight = blocks
        v = m.ravel()[keep]
    derivative = partial(gather, index, weight)
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
        state.ravel()[keep] = v
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

    def store(i, parts):
        (psi, carrier), = parts
        states[i], carriers[i] = psi[0], carrier[0]

    records, ents, max_p = _ensemble_chunk(
        psi0.vec, config, source_model, grid, store_every, diagnostics, store, seeds, 1)
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


# uniforms a refill adds to a trajectory's stream, a power of two: a row reads
# its uniforms from a ring of two such blocks, and a block goes to every row
# with room for it at once; default_rng(seed).random(n) is exactly the first n
# of the stream
UNIFORM_BLOCK = 64
# steps between renormalizations of every trajectory's state, which is
# otherwise normalized only where a jump, a store or the diagnostics need it
RENORMALIZE_EVERY = 64
# seeds per block of run_ensemble: the unit of its reduction, of a pool task and of
# a dense row's BLAS products; a constant, so the sum's order follows the seeds
ENSEMBLE_BLOCK = 1024
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


# PCG64 (O'Neill, HMC-CS-2014-0905), default_rng's bit generator: a 128-bit
# state that steps to state MULT + inc, held here as (high, low) uint64 words
PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# each row keeps S consecutive states, S the largest power of two that keeps a
# kernel call over every row within this many lanes; at 2000 rows wider calls
# fell out of cache and narrower ones paid more call overhead
PCG64_LANES = 16384


@cache
def _pcg64_jumps(n: int) -> np.ndarray:
    """Constants that take a state s k steps on, to A_k s + G_k inc mod 2**128,
    for k = 1..n: A_k = MULT**k and G_k = 1 + MULT + ... + MULT**(k - 1).  A
    (2, 4, n, 1) uint64 array: for A and G, the 32-bit halves of the low word,
    then the low and the high word."""
    consts, a, g = [], 1, 0
    for _ in range(n):
        a, g = a * PCG64_MULT % 2**128, (g * PCG64_MULT + 1) % 2**128
        consts.append([[x & 0xFFFFFFFF, x >> 32 & 0xFFFFFFFF, x % 2**64, x >> 64] for x in (a, g)])
    return np.array(consts, np.uint64).transpose(1, 2, 0)[..., None]


def _mul128(h, l, c, t):
    """(h, l) *= c mod 2**128 in place, c a multiplier's words as in
    _pcg64_jumps; t is four scratch arrays shaped like h.  The high word of
    l times c's low word comes from 32-bit half-products."""
    l0, l1, mid, x = t
    np.bitwise_and(l, 0xFFFFFFFF, out=l0)
    np.right_shift(l, 32, out=l1)
    np.multiply(l0, c[0], out=x)
    x >>= 32
    np.multiply(l1, c[0], out=mid)
    mid += x
    np.bitwise_and(mid, 0xFFFFFFFF, out=x)
    l0 *= c[1]
    x += l0
    x >>= 32
    mid >>= 32
    l1 *= c[1]
    l1 += mid
    l1 += x
    h *= c[2]
    h += l1
    np.multiply(l, c[3], out=x)
    h += x
    l *= c[2]


def _add128(h, l, dh, dl, carry):
    """(h, l) += (dh, dl) mod 2**128 in place; carry is scratch shaped like h."""
    l += dl
    np.less(l, dl, out=carry)
    h += dh
    h += carry


def _pcg64_seed(words, width: int) -> np.ndarray:
    """The PCG64 streams of seed_words rows (w0, w1, w2, w3), seeded as
    numpy's PCG64 seeds itself: inc = (w2 w3) << 1 | 1, and the state before
    the first draw is x MULT + inc, x = (w0 w1) + inc.

    Returns a (2, S + 1, rows) uint64 array of high and low words: its first
    S rows are the states of each stream's next S draws, its last is G_S inc,
    which with A_S takes them S steps on.  S is a power of two, at most width
    and at most PCG64_LANES / rows unless that is below one."""
    rows = len(words)
    S = min(width, 1 << max(0, (PCG64_LANES // rows).bit_length() - 1))
    w0, w1, w2, w3 = words.T
    # row k of x becomes A_{k+1} x + G_{k+1} inc, x stepped k + 1 times: the
    # state before the first draw, then the states of draws 1..S
    x, inc = np.empty((2, 2, S + 1, rows), np.uint64)
    x[0], x[1], inc[0], inc[1] = w0, w1, w2 << 1 | w3 >> 63, w3 << 1 | 1
    t = np.empty((4, S + 1, rows), np.uint64)
    A, G = _pcg64_jumps(S + 1)
    _add128(*x, *inc, t[0])
    _mul128(*x, A, t)
    _mul128(*inc, G, t)
    _add128(*x, *inc, t[0])
    return np.concatenate([x[:, 1:], inc[:, S - 1:S]], axis=1)


def _pcg64_fill(pcg, out, scratch):
    """Write the next n uniforms of the streams of pcg (_pcg64_seed's form,
    advanced in place) into out, (R, n), n a multiple of S.

    A uniform is default_rng's random(): the state steps, and the top 53 bits
    of its XSL-RR output rotr64(high ^ low, high >> 58) are scaled by 2**-53.
    All the work is done in place in scratch, four uint64 rows of at least
    S R lanes."""
    (sh, sl), (dh, dl) = pcg[:, :-1], pcg[:, -1]
    S, R = sh.shape
    A = _pcg64_jumps(S)[0, :, -1:]
    t = [row[:S * R].reshape(S, R) for row in scratch]
    x, r, y = t[:3]
    for j in range(0, out.shape[1], S):
        np.bitwise_xor(sh, sl, out=x)
        np.right_shift(sh, 58, out=r)
        np.right_shift(x, r, out=y)
        # x << (64 - r) as two shifts below 64, so r = 0 gives 0
        r ^= 63
        x <<= 1
        x <<= r
        x |= y
        x >>= 11
        np.multiply(x.view(np.int64), 2.0**-53, out=out[:, j:j + S].T)
        _mul128(sh, sl, A, t)
        _add128(sh, sl, dh, dl, t[0])


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


def _ensemble_chunk(psi0_vec, config, source_model, grid, store_every, diagnostics,
                    store, seeds, block):
    """Advance the trajectories of seeds in lockstep from psi0_vec, normalized.

    A row of psi holds one trajectory.  For the coherent-drive and free-decay
    sources it is the dense state, and a no-jump step is one d x d product.
    For the birth-death source it is the two amplitudes of the row's quanta
    sector n_pred (sector_amplitudes), which H keeps and each jump moves by
    its channel's quanta_delta: a no-jump step applies the row's 2 x 2 block
    of I - i dt H - (dt/2) N g a a^dag, rewritten only when the row has an
    event, and a jump applies its channel's block from sector n_pred.
    _sector_blocks makes sure that no amplitude is lost this way.  The
    no-jump maps are held with rows last, so a step is two multiplies over
    every row's lanes, and the rows' dots are _pair_dots.

    Between jumps a row is the unnormalized no-jump state, and its squared
    norm is carried along; the rows are normalized before every store, at
    every step when diagnostics are on, and every RENORMALIZE_EVERY steps.
    The diagnosed rows wait in a history of min(64, DIAGNOSTIC_LANES // psi
    size) steps, or none when that is below two.  Each trajectory
    owns default_rng(seed)'s stream of uniforms and consumes one per step
    plus one per jump, read in order from a ring of two UNIFORM_BLOCK blocks,
    lane-major: a (2 UNIFORM_BLOCK, rows) array, so that a step's draws and a
    refill of every row each touch contiguous lanes.
    Once some row has fewer than two unread, every row with a block's room
    gets one more block, from one _pcg64_fill call over those rows; a scalar
    countdown, which can only understate the fewest unread, says when to look.

    The seeds are cut into consecutive blocks of at most block rows.  Every
    row steps in lockstep, but a dense row's BLAS products (the no-jump
    psi @ HT and the jumpers' C_k psi) are taken block by block: a gemm row's
    rounding depends on how many rows the call has, so each row gets the bits
    of a call on its block alone.  Sector rows need no such split, as their
    work is elementwise or stacked 2 x 2 products.  At stored time i of
    grid.stored_times(store_every) it calls store(i, parts), where parts
    yields one (psi, carrier) pair per block, in block order: the block's
    normalized dense (rows, d) states and (rows,) carrier counts.  These are
    working arrays, and birth-death rows are scattered into one reused dense
    buffer of at most block rows, so store consumes parts during the call and
    copies what it keeps.  Returns the records, each trajectory's largest
    Schmidt entropy (None without diagnostics), and the largest step
    probability, so the caller can warn about it.  A failure is raised at the
    earliest step where any row fails.
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
    blocks = [slice(lo, lo + block) for lo in range(0, M, block)]
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
        # the no-jump map of every row, column by column and rows last: row
        # m's no-jump state is K[0, :, m] psi[m, 0] + K[1, :, m] psi[m, 1];
        # and the classical channels' step probability of each row
        K = np.empty((2, 2, M), dtype=complex)
        p_classical = np.empty(M)

        def set_no_jump(idx):
            n = n_pred[idx]
            maps = drift[n] - carrier[idx][:, None, None] * damp[n]
            K[:, :, idx] = maps.transpose(2, 1, 0)
            p_classical[idx] = dt * (rate_fixed + rate_scaled * carrier[idx])

        part = np.empty_like(psi)
        dots = _pair_dots(M)
        # a block's stored rows, scattered into their sectors' columns; the
        # middle d columns of the padded buffer are the dense rows
        padded = np.zeros((min(M, block), dim + 2), dtype=complex)
        dense = padded[:, 1:-1]
        set_no_jump(rows)

        def block_rows(b):
            n = len(carrier[b])
            padded[:n].fill(0.0)
            padded[:n].reshape(n, -1, 2)[rows[:n], n_pred[b]] = psi[b]
            return dense[:n], carrier[b]
    else:
        psi = np.tile(psi0, (M, 1))
        HT = (-1j * dt * H).T
        # every C_k^T side by side: jump vectors of the rows that jump
        Fq = np.concatenate([channels[k].operator.T for k in quantum], axis=1)
        # first row of every block after the first
        cuts = rows[block::block]

        def block_rows(b):
            return psi[b], carrier[b]

        def dots(a, b, out):
            return np.einsum("md,md->m", a, b, out=out)
    Z = np.empty_like(psi)
    psi_f, Z_f = psi.view(float), Z.view(float)

    # each row's stream, read in order from a ring of two blocks, ring position
    # first and row last; every row that has room for a block gets one at
    # once, in one kernel call
    pcg = _pcg64_seed(seed_words(seeds), UNIFORM_BLOCK)
    ring = np.empty((2 * UNIFORM_BLOCK, M))
    halves = ring.reshape(2, UNIFORM_BLOCK, M)
    scratch = np.empty((4, (pcg.shape[1] - 1) * M), np.uint64)
    cursor = np.zeros(M, dtype=np.int64)  # uniforms read from each stream
    filled = np.zeros(M, dtype=np.int64)  # uniforms written, whole blocks
    # each row's next uniform is at flat ring index cursor M + row modulo the
    # ring's size; pos holds that index, reduced at every refill call, and as
    # no row reads more than the ring holds in between, it stays below twice
    # the size, which take's wrap mode undoes with one subtraction
    pos = rows.copy()
    # never more than the fewest unread uniforms of any row: each draw_all
    # lowers that by exactly one and each draw by at most one
    countdown = 0

    def refill():
        """Once some row has fewer than two unread uniforms, a block more for
        every row with room; the fewest unread of any row after."""
        np.remainder(pos, ring.size, out=pos)
        unread = filled - cursor
        if unread.min() < 2:
            idx = np.nonzero(unread <= UNIFORM_BLOCK)[0]
            half = filled[idx] // UNIFORM_BLOCK % 2
            if len(idx) == M and half.min() == half.max():
                # every row, in step: straight into the ring
                _pcg64_fill(pcg, halves[half[0]].T, scratch)
            else:
                streams, block = pcg[..., idx], np.empty((UNIFORM_BLOCK, len(idx))).T
                _pcg64_fill(streams, block, scratch)
                pcg[..., idx], halves[half, :, idx] = streams, block
            filled[idx] += UNIFORM_BLOCK
            unread[idx] += UNIFORM_BLOCK
        return int(unread.min())

    def draw_all():
        """Next uniform of every trajectory, once a step, first in the step."""
        nonlocal countdown
        if countdown < 2:
            countdown = refill()
        countdown -= 1
        u = ring.take(pos, mode="wrap")
        np.add(pos, M, out=pos)
        np.add(cursor, 1, out=cursor)
        return u

    def draw(idx):
        """Next uniform of each trajectory in idx, after draw_all in its step."""
        nonlocal countdown
        countdown -= 1
        u = ring.take(pos[idx], mode="wrap")
        pos[idx] += M
        cursor[idx] += 1
        return u

    # squared norm of each row of psi: rows are normalized only when needed
    sq = np.ones(M)

    def channel_probs(idx):
        """Jump vectors C_k psi, (len(idx), quantum channels, row width), and
        per-channel step probabilities of rows idx."""
        if birth_death:
            Y = np.matmul(jumps[n_pred[idx]], psi[idx][:, None, :, None])
        else:
            # one product per block: idx is sorted, so each block's jumpers are a run
            Y = np.empty((len(idx), Fq.shape[1]), dtype=complex)
            ends = np.searchsorted(idx, cuts).tolist()
            for lo, hi in zip([0, *ends], [*ends, len(idx)]):
                if hi > lo:
                    np.matmul(psi[idx[lo:hi]], Fq, out=Y[lo:hi])
        Y = Y.reshape(len(idx), len(quantum), -1)
        Yq = Y.view(float)
        probs = np.empty((len(idx), n_ch))
        probs[:, quantum] = np.einsum("mkd,mkd->mk", Yq, Yq) / sq[idx][:, None]
        probs[:, classical] = rates
        probs *= dt
        if scaled:
            probs[:, scaled] *= carrier[idx][:, None]
        return Y, probs

    def schmidt_weights(states):
        """Squared Schmidt coefficients of normalized rows, (2, rows)."""
        R = len(states)
        if birth_death:
            # a|n-1, excited> + b|n, ground> is in Schmidt form already
            return np.square(states.view(float)).reshape(R, 2, 2).sum(axis=2).T
        # Gram matrix A^dag A of each row's Fock x qubit amplitude matrix A,
        # whose eigenvalues are the squared Schmidt coefficients: its two
        # diagonal entries and g01, each in one batched product
        At = states.reshape(R, spec.fock_dim, 2).transpose(0, 2, 1)
        g00, g11 = (np.vecdot(At[:, q], At[:, q]).real for q in (0, 1))
        g01 = np.vecdot(At[:, 0], At[:, 1])
        tr = g00 + g11
        det = g00 * g11 - np.abs(g01) ** 2
        disc = np.sqrt(np.maximum(tr * tr - 4.0 * det, 0.0))
        lam = np.array((tr + disc, tr - disc))
        lam *= 0.5
        return lam

    max_ent = np.zeros(M)

    def update_diagnostics(rows):
        """Fold the Schmidt entropies of a (steps, M, width) stack of
        normalized rows into max_ent; each row's arithmetic is elementwise
        and max is exact, so the stack's size changes no bit."""
        lam = schmidt_weights(rows.reshape(-1, psi.shape[1]))
        log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 1e-300)
        lam *= log_lam
        # 0 - x, not -x, so that a product row's zero entropy is +0.0
        ent = 0.0 - (lam[0] + lam[1])
        # max_ent starts at 0, so this also clips a negative rounding residue
        np.maximum(max_ent, ent.reshape(len(rows), M).max(axis=0), out=max_ent)

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
        store(i, map(block_rows, blocks))

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
        if birth_death:
            # psi is part of K, at the price of a cancellation that leaves p
            # a few ulps of |psi|^2 off
            # each over (2, M) lanes, rows last as in K
            np.multiply(K[0], psi[:, 0], out=Z.T)
            np.multiply(K[1], psi[:, 1], out=part.T)
            Z += part
            p_tot = dots(psi_f, Z_f, out=np.empty(M))
            np.subtract(sq, p_tot, out=p_tot)
            p_tot *= 2.0
            p_tot /= sq
            p_tot += p_classical
        else:
            for b in blocks:
                np.matmul(psi[b], HT, out=Z[b])
            # read before psi is added, so a p exactly at a bound stays there
            p_tot = dots(psi_f, Z_f, out=np.empty(M))
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

        dots(Z_f, Z_f, out=sq)
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
            r = draw(jumpers) * probs.sum(axis=1)
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
            diagnose()
        if storing:
            store_rows((step + 1) // store_every)

    if held:
        update_diagnostics(history[:held])
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
    """One seed block of run_ensemble, as a pool task: its (n_stored, d, d)
    projector sum, then the engine's results."""
    d = len(psi0_vec)
    acc = np.empty((len(grid.stored_times(store_every)), d, d), dtype=complex)

    def store(i, parts):
        (psi, _), = parts
        np.matmul(psi.T, psi.conj(), out=acc[i])

    return acc, *_ensemble_chunk(psi0_vec, config, source_model, grid, store_every,
                                 diagnostics, store, seeds, len(seeds))


def run_ensemble(psi0: PureState, config: CouplingConfig, source_model,
                 grid: TimeGrid, seeds, store_every: int = 1,
                 diagnostics: bool = True, workers: int | None = None,
                 observe=None) -> EnsembleResult:
    """Run trajectories for every seed and average their projectors online.

    The seeds are cut into consecutive blocks of at most ENSEMBLE_BLOCK.  A
    block is the unit of the reduction: each stored time's average is the
    first block's projector sum, plus each later block's in block order,
    divided by the seed count.  So each trajectory depends on its seed alone
    and the result on the arguments alone: the worker count changes only the
    wall time.  workers is an integer >= 1 and defaults to CASCADESIM_WORKERS.
    With one worker, or one block, a single lockstep engine call runs every
    block in-process and hands over each stored time block by block, whose
    average is formed, passed on and dropped while the trajectories run, so
    no array of every stored average is held.  With more workers a process
    pool runs one block a task, each of which returns its (n_stored, d, d)
    sum, and the observer is fed from the total once every block sum is in.

    Each stored time's average goes to observe(rho) as a DensityOperator, in
    time order.  Without an observer the averages are collected into
    ``rho_avg``; with one, ``rho_avg`` is None.  A birth-death psi0 must lie
    in the quanta sector of source_model.n0, as for mcwf_run.  In-process, a
    failure is raised at the earliest failing step over all blocks; on a pool,
    at the first failing block's.
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
    if workers == 1:
        def average(i, parts):
            psi, _ = next(parts)
            total = psi.T @ psi.conj()
            for psi, _ in parts:
                total += psi.T @ psi.conj()
            total /= len(seeds)
            observe(DensityOperator(total, layout=COMPOSITE))

        records, entropies, max_p = _ensemble_chunk(
            psi0.vec, config, source_model, grid, store_every, diagnostics, average, seeds,
            ENSEMBLE_BLOCK)
    else:
        # the pool pulls in multiprocessing, so only a run that uses one loads it
        from concurrent.futures import ProcessPoolExecutor

        chunk = partial(_projector_sum, psi0.vec, config, source_model, grid,
                        store_every, diagnostics)
        with ProcessPoolExecutor(workers) as pool:
            results = pool.map(chunk, blocks)
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
