"""Each trajectory's stream of uniforms: exactly default_rng(seed)'s.

seed_words hashes every seed into its PCG64 seed words at once, as numpy's
SeedSequence does, and _pcg64_seed and _pcg64_fill step the PCG64 bit
generator (O'Neill, HMC-CS-2014-0905) that default_rng builds on them, in
numpy integer arithmetic over all rows at once, so that no trajectory run
imports numpy.random (the tests check each stream against numpy's own).
UniformRing hands the trajectory engine each row's uniforms in order, from
a ring of blocks whose width _ring_width sets.
"""

from __future__ import annotations

from functools import cache

import numpy as np

# uniforms a refill adds to a trajectory's stream at most, a power of two: a
# row reads its uniforms from a ring of two such blocks, and a block goes to
# every row with room for it at once; default_rng(seed).random(n) is exactly
# the first n of the stream
UNIFORM_BLOCK = 64
# float64s that the rings of all rows of an engine call hold together: the
# block is halved until they fit (512 KB), but not below RING_FLOOR uniforms,
# where at 20 000 rows a step cost about as much as at 64 and 4 cost a third
# more
RING_LANES = 65536
RING_FLOOR = 8


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


def _ring_width(rows: int) -> int:
    """Uniforms a refill adds to each of rows streams: the largest power of
    two up to UNIFORM_BLOCK for which the rows' rings of two blocks fit
    RING_LANES float64s, or RING_FLOOR when that is larger.  A row reads at
    most two uniforms a step, so any width of two or more gives the same
    streams."""
    fit = 1 << max(0, (RING_LANES // (2 * rows)).bit_length() - 1)
    return min(UNIFORM_BLOCK, max(RING_FLOOR, fit))


class UniformRing:
    """The streams of seeds, one a row, each read in order: draw_all() takes
    every row's next uniform, once a step and first in the step, and
    draw(idx) the next of rows idx, at most once a step after draw_all.

    A row reads its stream from a ring of two blocks of width =
    _ring_width(rows) uniforms, lane-major: a (2 width, rows) array, ring
    position first and row last, so that a step's draws and a refill of
    every row each touch contiguous lanes.  Once some row has fewer than two
    unread, every row with a block's room gets one more block, from one
    _pcg64_fill call over those rows; a scalar countdown, which can only
    understate the fewest unread, says when to look."""

    def __init__(self, seeds):
        self.rows = rows = len(seeds)
        self.width = width = _ring_width(rows)
        self.pcg = _pcg64_seed(seed_words(seeds), width)
        self.ring = np.empty((2 * width, rows))
        self.halves = self.ring.reshape(2, width, rows)
        self.scratch = np.empty((4, (self.pcg.shape[1] - 1) * rows), np.uint64)
        self.cursor = np.zeros(rows, dtype=np.int64)  # uniforms read from each stream
        self.filled = np.zeros(rows, dtype=np.int64)  # uniforms written, whole blocks
        # each row's next uniform is at flat ring index cursor rows + row
        # modulo the ring's size; pos holds that index, reduced whenever a
        # block is added, and as no row reads more than the ring holds in
        # between, it stays below twice the size, which take's wrap mode
        # undoes with one subtraction
        self.pos = np.arange(rows)
        # never more than the fewest unread uniforms of any row: each draw_all
        # lowers that by exactly one and each draw by at most one
        self.countdown = 0

    def refill(self) -> int:
        """Once some row has fewer than two unread uniforms, a block more for
        every row with room; the fewest unread of any row after."""
        width, filled = self.width, self.filled
        unread = filled - self.cursor
        if unread.min() < 2:
            np.remainder(self.pos, self.ring.size, out=self.pos)
            if unread.max() <= width and filled.min() == filled.max():
                # every row, in step: straight into the ring, with no index
                _pcg64_fill(self.pcg, self.halves[filled[0] // width % 2].T, self.scratch)
                np.add(filled, width, out=filled)
                unread += width
            else:
                idx = np.nonzero(unread <= width)[0]
                half = filled[idx] // width % 2
                # take, not pcg[..., idx], whose rows-first strides slowed
                # every word operation of the fill about twofold
                streams, block = self.pcg.take(idx, axis=-1), np.empty((width, len(idx))).T
                _pcg64_fill(streams, block, self.scratch)
                self.pcg[..., idx], self.halves[half, :, idx] = streams, block
                filled[idx] += width
                unread[idx] += width
        return int(unread.min())

    def draw_all(self) -> np.ndarray:
        """Next uniform of every row, (rows,)."""
        if self.countdown < 2:
            self.countdown = self.refill()
        self.countdown -= 1
        u = self.ring.take(self.pos, mode="wrap")
        np.add(self.pos, self.rows, out=self.pos)
        np.add(self.cursor, 1, out=self.cursor)
        return u

    def draw(self, idx) -> np.ndarray:
        """Next uniform of each row in idx, distinct row indices."""
        self.countdown -= 1
        u = self.ring.take(self.pos[idx], mode="wrap")
        self.pos[idx] += self.rows
        self.cursor[idx] += 1
        return u
