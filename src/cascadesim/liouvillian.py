"""Generators of the cascaded source-qubit master equation.

Superoperators are stored as lists of sandwich terms rho -> coeff * L rho R,
so both Lindblad generators and the regrouped cross-coupling piece (which is
not a dissipator on its own) share one representation.  The dense matrix form
uses column-stacking: matrix(S) = sum coeff * kron(R^T, L).

``apply`` works on a gather form that ``Superoperator.compiled`` builds from
the terms on the first call.  The operators are banded: diagonal o1 of L and
diagonal o2 of R move entry (i + o1, j - o2) of rho to output entry (i, j),
with a weight that depends on (i, j); an identity side is the offset-0
diagonal with weight 1.  Terms with the same shift share a slot, and slots
whose weights cancel to exact zeros are dropped: of its cross terms,
-i H_ST - f^dag f / 2 keeps only a b^dag, the one-way coupling of the
cascade, so L_T + L_ST has width 7, not 9.  The width is
at most 13 for any bundled generator.  A form with more than
MAX_GATHER_ENTRIES entries (a dense generator has up to (2d - 1)^2 slots)
raises DimensionMismatchError instead of exhausting memory.

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
from .hilbert import (
    SOURCE,
    TARGET,
    FockSpec,
    annihilation,
    embed,
    qubit_lowering,
    total_quanta,
)

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


@dataclass
class SuperoperatorTerm:
    left: np.ndarray
    right: np.ndarray
    coeff: complex

    def __post_init__(self):
        self.left = np.asarray(self.left, dtype=complex)
        self.right = np.asarray(self.right, dtype=complex)
        if self.left.shape != self.right.shape:
            raise DimensionMismatchError(
                f"left/right shapes differ: {self.left.shape} vs {self.right.shape}"
            )


@dataclass
class Superoperator:
    terms: list
    dim: int

    def __post_init__(self):
        for t in self.terms:
            if t.left.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"term dim {t.left.shape[0]} != superoperator dim {self.dim}"
                )

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
        # a slot is the shift (di, dj) that reads rho[i + di, j + dj]; each
        # term adds pieces u v^T to the slots of its shifts.  The guard runs
        # as shifts appear, before anything of size d^2 is built
        pieces = {}
        for t in self.terms:
            right_offsets = _diagonal_offsets(t.right)
            for o1 in _diagonal_offsets(t.left):
                u = t.coeff * _band(t.left, o1)
                for o2 in right_offsets:
                    # right[j - o2, j] as a vector over j
                    pieces.setdefault((o1, -o2), []).append((u, _band(t.right.T, -o2)))
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


def _diagonal_offsets(M: np.ndarray) -> list:
    """Offsets o of the diagonals M[i, i + o] that hold a nonzero entry."""
    rows, cols = np.nonzero(M)
    # a set, not np.unique: the first np.unique call of a process costs
    # about 1.2 MB of resident memory
    return sorted(set((cols - rows).tolist()))


def _band(M: np.ndarray, o: int) -> np.ndarray:
    """v[i] = M[i, i + o], zero where i + o falls outside the matrix."""
    v = np.zeros(M.shape[0], dtype=complex)
    diagonal = np.diagonal(M, o)
    start = max(0, -o)
    v[start:start + len(diagonal)] = diagonal
    return v


def commutator_terms(H: np.ndarray) -> list:
    """-i[H, .] as sandwich terms."""
    eye = np.eye(H.shape[0], dtype=complex)
    return [SuperoperatorTerm(H, eye, -1j), SuperoperatorTerm(eye, H, 1j)]


def dissipator_terms(C: np.ndarray, rate: float = 1.0) -> list:
    """(rate/2) * (2 C . C^dag - C^dag C . - . C^dag C) as sandwich terms."""
    Cd = C.conj().T
    CdC = Cd @ C
    eye = np.eye(C.shape[0], dtype=complex)
    return [
        SuperoperatorTerm(C, Cd, rate),
        SuperoperatorTerm(CdC, eye, -rate / 2.0),
        SuperoperatorTerm(eye, CdC, -rate / 2.0),
    ]


def build_H_T(config: CouplingConfig, spec: FockSpec) -> np.ndarray:
    """Free qubit Hamiltonian delta * b^dag b on the composite space."""
    b = qubit_lowering()
    return embed(config.delta * (b.conj().T @ b), TARGET, spec)


def _scaled_ops(config: CouplingConfig, spec: FockSpec) -> tuple:
    """(a, b, A, B): the embedded ladder operators, A = sqrt(gS) a and B = sqrt(gTf) b.

    Building the cross terms and f from these same two matrices makes each
    product A^dag B come out bit for bit the same wherever it appears, so
    -i H_ST - f^dag f / 2 cancels its A^dag B part exactly at any rates.
    """
    a = embed(annihilation(spec), SOURCE, spec)
    b = embed(qubit_lowering(), TARGET, spec)
    return a, b, np.sqrt(config.gamma_S) * a, np.sqrt(config.gamma_Tf) * b


def build_H_ST(config: CouplingConfig, spec: FockSpec) -> np.ndarray:
    """One-way coupling Hamiltonian (i/2) (A^dag B - A B^dag) = (i/2) sqrt(gS gTf) (a^dag b - a b^dag)."""
    _, _, A, B = _scaled_ops(config, spec)
    return 0.5j * (A.conj().T @ B - A @ B.conj().T)


def build_jump_ops(config: CouplingConfig, spec: FockSpec) -> tuple:
    """Forward and side jump operators f = A + B = sqrt(gS) a + sqrt(gTf) b, s = sqrt(gTs) b."""
    _, b, A, B = _scaled_ops(config, spec)
    return A + B, np.sqrt(config.gamma_Ts) * b


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
    Ad, Bd = A.conj().T, B.conj().T
    eye = np.eye(spec.dim, dtype=complex)

    Lp_S = Superoperator(list(L_S.terms) + dissipator_terms(a, rate=config.gamma_S), spec.dim)
    Lp_T = Superoperator(
        commutator_terms(build_H_T(config, spec)) + dissipator_terms(b, rate=config.gamma_T),
        spec.dim,
    )
    Lp_ST = Superoperator(
        [
            SuperoperatorTerm(A, Bd, 1.0),
            SuperoperatorTerm(B, Ad, 1.0),
            SuperoperatorTerm(Bd @ A, eye, -1.0),
            SuperoperatorTerm(eye, Ad @ B, -1.0),
        ],
        spec.dim,
    )
    return Lp_S, Lp_T, Lp_ST


def build_nonhermitian_H(config: CouplingConfig, spec: FockSpec) -> np.ndarray:
    """Drift Hamiltonian of the trajectory unraveling.

    Equals H_T - i A B^dag - (i/2) A^dag A - (i/2) gT b^dag b, with A and B
    as in _scaled_ops; the non-Hermitian part coincides with
    H_ST - (i/2) s^dag s - (i/2) f^dag f.
    """
    _, b, A, B = _scaled_ops(config, spec)
    return (
        build_H_T(config, spec)
        - 1j * (A @ B.conj().T)
        - 0.5j * (A.conj().T @ A)
        - 0.5j * config.gamma_T * (b.conj().T @ b)
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
    if superop.dim > MAX_DENSE_DIM:
        raise DimensionMismatchError(
            f"dim {superop.dim} exceeds {MAX_DENSE_DIM} for the d^2 x d^2 form"
        )
    d2 = superop.dim ** 2
    out = np.zeros((d2, d2), dtype=complex)
    for t in superop.terms:
        out += t.coeff * np.kron(t.right.T, t.left)
    return out
