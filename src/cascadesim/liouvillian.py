"""Generators of the cascaded source-qubit master equation.

Every operator of the model is banded: on the composite index 2n + q the
photon annihilation a has its entries on diagonal 2 and the qubit lowering b
on diagonal 1.  So operators are held as band maps {o: v}, v[i] = M[i, i + o]
(zero where i + o leaves the matrix), with a band for each diagonal that holds
a nonzero entry; the empty map is the zero operator.  ``ladders`` gives the
maps of a and b, ``adjoint``, ``product``, ``scaled`` and ``combine`` build
every other operator from them, and ``dense`` makes a (d, d) matrix only for
a caller that needs one (the trajectory engine, ``to_matrix``).

Superoperators are stored as lists of sandwich terms rho -> coeff * L rho R,
each side a band map or None for the identity, so both Lindblad generators
and the regrouped cross-coupling piece (which is not a dissipator on its own)
share one representation.  The dense matrix form uses column-stacking:
matrix(S) = sum coeff * kron(R^T, L).

``apply`` works on a gather form that ``Superoperator.compiled`` builds from
the terms on the first call.  Band o1 of L and band o2 of R move entry
(i + o1, j - o2) of rho to output entry (i, j), with a weight that depends on
(i, j); an identity side is band 0 with weight 1.  Terms with the same shift
share a slot, and slots whose weights cancel to exact zeros are dropped: of
its cross terms, -i H_ST - f^dag f / 2 keeps only a b^dag, the one-way
coupling of the cascade, so L_T + L_ST has width 7, not 9.  The width is
at most 13 for any bundled generator.  A form with more than
MAX_GATHER_ENTRIES entries (a dense generator has up to (2d - 1)^2 slots)
raises DimensionMismatchError while its shifts are collected, before any
array of d^2 entries exists.

``block_gather`` restricts that form to the coherence-order blocks of a
state.  An entry (i, j) of rho has excitation difference k = N_i - N_j, with
N = n + q the total quanta of a basis index.  Without a coherent drive every
term maps the block of each k into itself (a weak U(1) symmetry; Buca &
Prosen, New J. Phys. 14, 073007 (2012)), so only the blocks the initial state
occupies ever become nonzero.  A state that occupies every block, or a
driven generator, keeps the full form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import GROUND, FockSpec, total_quanta

# the largest dim to_matrix builds a dense d^2 x d^2 form for
MAX_DENSE_DIM = 64
# the most entries a compiled generator may hold: those of that dense form
MAX_GATHER_ENTRIES = MAX_DENSE_DIM ** 4
# a k-block of an initial state is left out of block_gather when its largest
# |entry| is at most this fraction of the state's largest |entry|
BLOCK_TOL = 1e-13


@dataclass(frozen=True)
class CouplingConfig:
    """Rates of the two-channel cascaded model.

    gamma_S: source output bandwidth; gamma_Tf / gamma_Ts: target forward and
    side channels; delta: target detuning (H_T = delta * b^dag b, resonant by
    default).  gamma_T = gamma_Tf + gamma_Ts.
    """

    gamma_S: float = 1.0
    gamma_Tf: float = 0.5
    gamma_Ts: float = 0.5
    delta: float = 0.0

    def __post_init__(self):
        rates = (self.gamma_S, self.gamma_Tf, self.gamma_Ts, self.delta)
        if not all(math.isfinite(r) for r in rates):
            raise ValueError(f"rates and detuning must be finite, got {rates}")
        if self.gamma_S <= 0:
            raise ValueError(f"gamma_S must be > 0, got {self.gamma_S}")
        if self.gamma_Tf < 0 or self.gamma_Ts < 0:
            raise ValueError("target rates must be >= 0")

    @property
    def gamma_T(self) -> float:
        return self.gamma_Tf + self.gamma_Ts


def _shift(v: np.ndarray, k: int) -> np.ndarray:
    """w[i] = v[i - k], zero where i - k falls outside v."""
    w = np.zeros(len(v), dtype=complex)
    w[max(k, 0):len(v) + min(k, 0)] = v[max(-k, 0):len(v) - max(k, 0)]
    return w


def _nonzero(bands: dict) -> dict:
    """The band map of bands without its all-zero bands, offsets ascending."""
    return {o: v for o, v in sorted(bands.items()) if v.any()}


def ladders(spec: FockSpec) -> tuple:
    """(a, b): band maps of the photon annihilation, <n-1| a |n> = sqrt(n)
    truncated at n_max, and of the qubit lowering, <-| b |+> = 1."""
    d = spec.dim
    a, b = np.zeros(d, dtype=complex), np.zeros(d, dtype=complex)
    # a[2n + q, 2n + 2 + q] = sqrt(n + 1), b[2n + GROUND, 2n + EXCITED] = 1
    a[0:d - 2:2] = a[1:d - 2:2] = np.sqrt(np.arange(1.0, spec.fock_dim))
    b[GROUND::2] = 1.0
    return {2: a}, {1: b}


def adjoint(M: dict) -> dict:
    """M^dag: band o of M, conjugated, is band -o, shifted down by o."""
    return _nonzero({-o: _shift(v.conj(), o) for o, v in M.items()})


def product(M: dict, N: dict) -> dict:
    """M N; each band adds its pieces in ascending offset of M, that is in
    ascending inner index, rounding each multiply and each add on its own."""
    return combine(*({o1 + o2: u * _shift(v, -o1)}
                     for o1, u in sorted(M.items()) for o2, v in N.items()))


def scaled(c: complex, M: dict) -> dict:
    """c M."""
    return _nonzero({o: c * v for o, v in M.items()})


def combine(*ops: dict) -> dict:
    """The sum of band maps; a band held by several adds them in the order given."""
    out = {}
    for M in ops:
        for o, v in M.items():
            out[o] = out[o] + v if o in out else v
    return _nonzero(out)


def dense(M: dict | None, d: int) -> np.ndarray:
    """The (d, d) matrix of a band map; the identity for None."""
    if M is None:
        return np.eye(d, dtype=complex)
    out = np.zeros((d, d), dtype=complex)
    for o, v in M.items():
        rows = np.arange(max(0, -o), min(d, d - o))
        out[rows, rows + o] = v[rows]
    return out


@dataclass
class SuperoperatorTerm:
    """rho -> coeff * left rho right; a side is a band map, or None for the
    identity.  An empty band map is the zero operator: the term adds nothing."""

    left: dict | None
    right: dict | None
    coeff: complex


@dataclass
class Superoperator:
    terms: list
    dim: int

    def __post_init__(self):
        shapes = {np.shape(v) for t in self.terms for side in (t.left, t.right)
                  for v in (side or {}).values()}
        if shapes - {(self.dim,)}:
            raise DimensionMismatchError(
                f"band shapes {sorted(shapes)} in a dim-{self.dim} superoperator")

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        return Superoperator(self.terms + other.terms, self.dim)

    @cached_property
    def compiled(self) -> tuple:
        """(index, weight): the gather form of ``terms``, two (width, d^2) arrays.

        Output entry p = i * d + j of apply is the sum over slots s of
        weight[s, p] * rho.ravel()[index[s, p]].  Cached on first use, so
        ``terms`` must not change after the first apply.
        """
        d = self.dim
        identity = {0: np.ones(d, dtype=complex)}
        # a slot is the shift (di, dj) that reads rho[i + di, j + dj]; each
        # term adds pieces u v^T to the slots of its shifts.  The guard runs
        # as shifts appear, before anything of size d^2 is built
        pieces = {}
        for t in self.terms:
            # only None is the identity; an empty band map adds no pieces
            left, right = (identity if side is None else side for side in (t.left, t.right))
            # right[j - o2, j] as a vector over j
            columns = [(-o2, _shift(v, o2)) for o2, v in right.items()]
            for o1, band in left.items():
                u = t.coeff * band
                for dj, v in columns:
                    pieces.setdefault((o1, dj), []).append((u, v))
                    if len(pieces) * d * d > MAX_GATHER_ENTRIES:
                        raise DimensionMismatchError(
                            f"the gather form of this dim-{d} generator needs more than "
                            f"{MAX_GATHER_ENTRIES} entries; it is too dense to apply"
                        )

        def slot_weight(shift, out):
            """The pieces of one shift summed into out, in term order."""
            out.fill(0.0)
            for u, v in pieces[shift]:
                out += np.outer(u, v)
            return out

        # terms that cancel leave shifts of exact zeros, which get no slot;
        # summing twice means no array is ever sized for the dropped slots
        scratch = np.empty((d, d), dtype=complex)
        shifts = [shift for shift in sorted(pieces) if slot_weight(shift, scratch).any()]
        weight = np.empty((len(shifts), d, d), dtype=complex)
        for s, shift in enumerate(shifts):
            slot_weight(shift, weight[s])
        index = np.empty((len(shifts), d, d), dtype=np.intp)
        k = np.arange(d)
        for s, (di, dj) in enumerate(shifts):
            # the weight is zero where i + di or j + dj leaves the matrix,
            # so those entries may read any in-range index
            rows = np.clip(k + di, 0, d - 1)
            cols = np.clip(k + dj, 0, d - 1)
            index[s] = rows[:, None] * d + cols
        return index.reshape(len(shifts), d * d), weight.reshape(len(shifts), d * d)


def commutator_terms(H: dict) -> list:
    """-i[H, .] as sandwich terms."""
    return [SuperoperatorTerm(H, None, -1j), SuperoperatorTerm(None, H, 1j)]


def dissipator_terms(C: dict, rate: float = 1.0) -> list:
    """(rate/2) * (2 C . C^dag - C^dag C . - . C^dag C) as sandwich terms."""
    Cd = adjoint(C)
    CdC = product(Cd, C)
    return [
        SuperoperatorTerm(C, Cd, rate),
        SuperoperatorTerm(CdC, None, -rate / 2.0),
        SuperoperatorTerm(None, CdC, -rate / 2.0),
    ]


def build_H_T(config: CouplingConfig, spec: FockSpec) -> dict:
    """Free qubit Hamiltonian delta * b^dag b."""
    _, b = ladders(spec)
    return scaled(config.delta, product(adjoint(b), b))


def _scaled_ops(config: CouplingConfig, spec: FockSpec) -> tuple:
    """(a, b, A, B): the ladder operators, A = sqrt(gS) a and B = sqrt(gTf) b.

    Building the cross terms and f from these same two band maps makes each
    product A^dag B come out bit for bit the same wherever it appears, so
    -i H_ST - f^dag f / 2 cancels its A^dag B part exactly at any rates.
    """
    a, b = ladders(spec)
    return a, b, scaled(np.sqrt(config.gamma_S), a), scaled(np.sqrt(config.gamma_Tf), b)


def build_H_ST(config: CouplingConfig, spec: FockSpec) -> dict:
    """One-way coupling Hamiltonian (i/2) (A^dag B - A B^dag) = (i/2) sqrt(gS gTf) (a^dag b - a b^dag)."""
    _, _, A, B = _scaled_ops(config, spec)
    return scaled(0.5j, combine(product(adjoint(A), B), scaled(-1.0, product(A, adjoint(B)))))


def build_jump_ops(config: CouplingConfig, spec: FockSpec) -> tuple:
    """Forward and side jump operators f = A + B = sqrt(gS) a + sqrt(gTf) b, s = sqrt(gTs) b."""
    _, b, A, B = _scaled_ops(config, spec)
    return combine(A, B), scaled(np.sqrt(config.gamma_Ts), b)


def build_L_T(config: CouplingConfig, spec: FockSpec) -> Superoperator:
    """Target generator: -i[H_T, .] plus the side-channel dissipator."""
    _, s = build_jump_ops(config, spec)
    terms = commutator_terms(build_H_T(config, spec)) + dissipator_terms(s)
    return Superoperator(terms, spec.dim)


def build_L_ST(config: CouplingConfig, spec: FockSpec) -> Superoperator:
    """Coupling generator: -i[H_ST, .] plus the forward-channel dissipator."""
    f, _ = build_jump_ops(config, spec)
    terms = commutator_terms(build_H_ST(config, spec)) + dissipator_terms(f)
    return Superoperator(terms, spec.dim)


def regroup(L_S: Superoperator, config: CouplingConfig) -> tuple:
    """Regroup L_S + L_T + L_ST into primed generators with all cross terms in the coupling.

    L'_S adds the output damping of the source mode to L_S, L'_T damps the
    qubit at the total rate gamma_T, and L'_ST is the pure cross piece
    A . B^dag + B . A^dag - B^dag A . - . A^dag B = sqrt(gS gTf) (a . b^dag +
    b . a^dag - b^dag a . - . a^dag b), with A and B as in _scaled_ops.
    """
    spec = FockSpec(L_S.dim // 2 - 1)
    a, b, A, B = _scaled_ops(config, spec)
    Ad, Bd = adjoint(A), adjoint(B)

    Lp_S = Superoperator(list(L_S.terms) + dissipator_terms(a, rate=config.gamma_S), spec.dim)
    Lp_T = Superoperator(
        commutator_terms(build_H_T(config, spec)) + dissipator_terms(b, rate=config.gamma_T),
        spec.dim,
    )
    Lp_ST = Superoperator(
        [
            SuperoperatorTerm(A, Bd, 1.0),
            SuperoperatorTerm(B, Ad, 1.0),
            SuperoperatorTerm(product(Bd, A), None, -1.0),
            SuperoperatorTerm(None, product(Ad, B), -1.0),
        ],
        spec.dim,
    )
    return Lp_S, Lp_T, Lp_ST


def build_nonhermitian_H(config: CouplingConfig, spec: FockSpec) -> dict:
    """Drift Hamiltonian of the trajectory unraveling.

    Equals H_T - i A B^dag - (i/2) A^dag A - (i/2) gT b^dag b, with A and B
    as in _scaled_ops; the non-Hermitian part coincides with
    H_ST - (i/2) s^dag s - (i/2) f^dag f.
    """
    _, b, A, B = _scaled_ops(config, spec)
    return combine(
        build_H_T(config, spec),
        scaled(-1j, product(A, adjoint(B))),
        scaled(-0.5j, product(adjoint(A), A)),
        scaled(-0.5j * config.gamma_T, product(adjoint(b), b)),
    )


def apply(superop: Superoperator, rho: np.ndarray) -> np.ndarray:
    """Apply the superoperator to a (d, d) density matrix; returns the raw derivative matrix."""
    m = np.asarray(rho, dtype=complex)
    d = superop.dim
    if m.shape != (d, d):
        raise DimensionMismatchError(f"rho shape {m.shape} != superoperator dim {d}")
    return gather(*superop.compiled, m.ravel()).reshape(d, d)


def gather(index: np.ndarray, weight: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Output p = sum over slots s of weight[s, p] * x[index[s, p]], as a new flat array."""
    out = x.take(index)
    out *= weight
    return np.add.reduce(out, 0)


def block_gather(superop: Superoperator, m: np.ndarray) -> tuple | None:
    """(keep, index, weight): the gather form on the k-blocks that m occupies,
    or None when every entry is needed.

    A block of m is dropped when its largest |entry| is at most BLOCK_TOL
    times m's largest.  If none is dropped, or if some read of ``compiled``
    with a nonzero weight leaves the k-block of its output entry (a coherent
    drive), returns None: the caller steps ``compiled`` on every entry.
    Otherwise keep holds the flat positions of the kept entries in row-major
    order, and index reads the vector m.ravel()[keep]; its zero-weight reads
    go to position 0.  m is a checked state, finite and nonzero.
    """
    if m.shape != (superop.dim, superop.dim):
        raise DimensionMismatchError(f"rho shape {m.shape} != superoperator dim {superop.dim}")
    N = total_quanta(superop.dim)
    # |k| <= d / 2 fits int16 at any dim within MAX_GATHER_ENTRIES, and keeps
    # the (width, d^2) read of k below small
    k = np.subtract.outer(N, N).ravel().astype(np.int16)
    # a block is kept if any of its entries is above the cut, k = -N[-1] .. N[-1]
    size = np.abs(m).ravel()
    kept = np.zeros(2 * N[-1] + 1, dtype=bool)
    kept[k[size > BLOCK_TOL * size.max()] + N[-1]] = True
    if kept.all():
        return None
    index, weight = superop.compiled
    if np.any((np.take(k, index) != k) & (weight != 0)):
        return None
    keep = np.flatnonzero(kept[k + N[-1]])
    position = np.zeros(len(k), dtype=index.dtype)
    position[keep] = np.arange(len(keep))
    return keep, position[index.take(keep, axis=1)], weight.take(keep, axis=1)


def to_matrix(superop: Superoperator) -> np.ndarray:
    """Dense matrix on column-stacked density operators: sum coeff * kron(R^T, L)."""
    d = superop.dim
    if d > MAX_DENSE_DIM:
        raise DimensionMismatchError(
            f"dim {d} exceeds {MAX_DENSE_DIM} for the d^2 x d^2 form"
        )
    out = np.zeros((d * d, d * d), dtype=complex)
    for t in superop.terms:
        out += t.coeff * np.kron(dense(t.right, d).T, dense(t.left, d))
    return out
