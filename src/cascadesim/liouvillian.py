"""Generators of the cascaded source-qubit master equation.

Superoperators are stored as lists of sandwich terms rho -> coeff * L rho R,
so both Lindblad generators and the regrouped cross-coupling piece (which is
not a dissipator on its own) share one representation.  The dense matrix form
uses column-stacking: matrix(S) = sum coeff * kron(R^T, L).

``apply`` works on a folded form of the term list, built on first use and
cached on the superoperator: every term with an identity on its right side is
summed into one left operator, every term with an identity on its left side
into one right operator, and only the true sandwiches stay, so
apply(S, rho) = Lsum rho + rho Rsum + sum coeff * L rho R.  For a Lindblad
generator this is the "H_eff plus jump sandwich" form: L_T + L_ST needs six
matrix products instead of twenty.
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
    DensityOperator,
    FockSpec,
    Operator,
    annihilation,
    embed,
    qubit_lowering,
)


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
    label: str = ""

    def __post_init__(self):
        for t in self.terms:
            if t.left.shape[0] != self.dim:
                raise DimensionMismatchError(
                    f"term dim {t.left.shape[0]} != superoperator dim {self.dim}"
                )

    def __add__(self, other: "Superoperator") -> "Superoperator":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        return Superoperator(self.terms + other.terms, self.dim,
                             label=f"{self.label}+{other.label}")

    @cached_property
    def folded(self) -> tuple:
        """(Lsum, Rsum, [(coeff, L, R), ...]): identity-sided terms summed once.

        Cached on first use, so ``terms`` must not change after the first apply.
        """
        eye = np.eye(self.dim, dtype=complex)
        lsum = np.zeros((self.dim, self.dim), dtype=complex)
        rsum = np.zeros_like(lsum)
        sandwiches = []
        for t in self.terms:
            if np.array_equal(t.right, eye):
                lsum += t.coeff * t.left
            elif np.array_equal(t.left, eye):
                rsum += t.coeff * t.right
            else:
                sandwiches.append((t.coeff, t.left, t.right))
        return lsum, rsum, sandwiches


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


def build_H_T(config: CouplingConfig, spec: FockSpec) -> Operator:
    """Free qubit Hamiltonian delta * b^dag b on the composite space."""
    b = qubit_lowering()
    return embed(config.delta * (b.dag() @ b), TARGET, spec)


def build_H_ST(config: CouplingConfig, spec: FockSpec) -> Operator:
    """One-way coupling Hamiltonian (i/2) sqrt(gS gTf) (a^dag b - a b^dag)."""
    a = embed(annihilation(spec), SOURCE, spec)
    b = embed(qubit_lowering(), TARGET, spec)
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    return Operator(0.5j * g * (a.dag().mat @ b.mat - a.mat @ b.dag().mat), label="H_ST")


def build_jump_ops(config: CouplingConfig, spec: FockSpec) -> tuple:
    """Forward and side jump operators f = sqrt(gS) a + sqrt(gTf) b, s = sqrt(gTs) b."""
    a = embed(annihilation(spec), SOURCE, spec)
    b = embed(qubit_lowering(), TARGET, spec)
    f = Operator(np.sqrt(config.gamma_S) * a.mat + np.sqrt(config.gamma_Tf) * b.mat, label="f")
    s = Operator(np.sqrt(config.gamma_Ts) * b.mat, label="s")
    return f, s


def build_L_T(config: CouplingConfig, spec: FockSpec) -> Superoperator:
    """Target generator: -i[H_T, .] plus the side-channel dissipator."""
    _, s = build_jump_ops(config, spec)
    terms = commutator_terms(build_H_T(config, spec).mat) + dissipator_terms(s.mat)
    return Superoperator(terms, spec.dim, label="L_T")


def build_L_ST(config: CouplingConfig, spec: FockSpec) -> Superoperator:
    """Coupling generator: -i[H_ST, .] plus the forward-channel dissipator."""
    f, _ = build_jump_ops(config, spec)
    terms = commutator_terms(build_H_ST(config, spec).mat) + dissipator_terms(f.mat)
    return Superoperator(terms, spec.dim, label="L_ST")


def regroup(L_S: Superoperator, config: CouplingConfig) -> tuple:
    """Regroup L_S + L_T + L_ST into primed generators with all cross terms in the coupling.

    L'_S adds the output damping of the source mode to L_S, L'_T damps the
    qubit at the total rate gamma_T, and L'_ST is the pure cross piece
    sqrt(gS gTf) (a . b^dag + b . a^dag - b^dag a . - . a^dag b).
    """
    spec = FockSpec(L_S.dim // 2 - 1)
    a = embed(annihilation(spec), SOURCE, spec).mat
    b = embed(qubit_lowering(), TARGET, spec).mat
    ad, bd = a.conj().T, b.conj().T
    eye = np.eye(spec.dim, dtype=complex)

    Lp_S = Superoperator(
        list(L_S.terms) + dissipator_terms(a, rate=config.gamma_S), spec.dim, label="L'_S"
    )
    Lp_T = Superoperator(
        commutator_terms(build_H_T(config, spec).mat) + dissipator_terms(b, rate=config.gamma_T),
        spec.dim,
        label="L'_T",
    )
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    Lp_ST = Superoperator(
        [
            SuperoperatorTerm(a, bd, g),
            SuperoperatorTerm(b, ad, g),
            SuperoperatorTerm(bd @ a, eye, -g),
            SuperoperatorTerm(eye, ad @ b, -g),
        ],
        spec.dim,
        label="L'_ST",
    )
    return Lp_S, Lp_T, Lp_ST


def build_nonhermitian_H(config: CouplingConfig, spec: FockSpec) -> Operator:
    """Drift Hamiltonian of the trajectory unraveling.

    Equals H_T - i sqrt(gS gTf) a b^dag - (i/2) gS a^dag a - (i/2) gT b^dag b;
    the non-Hermitian part coincides with H_ST - (i/2) s^dag s - (i/2) f^dag f.
    """
    a = embed(annihilation(spec), SOURCE, spec).mat
    b = embed(qubit_lowering(), TARGET, spec).mat
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    H = (
        build_H_T(config, spec).mat
        - 1j * g * (a @ b.conj().T)
        - 0.5j * config.gamma_S * (a.conj().T @ a)
        - 0.5j * config.gamma_T * (b.conj().T @ b)
    )
    return Operator(H, label="H_nh")


def apply(superop: Superoperator, rho) -> np.ndarray:
    """Apply the superoperator to a density matrix; returns the raw derivative matrix."""
    m = rho.mat if isinstance(rho, DensityOperator) else np.asarray(rho, dtype=complex)
    if m.shape[0] != superop.dim:
        raise DimensionMismatchError(f"rho dim {m.shape[0]} != superoperator dim {superop.dim}")
    lsum, rsum, sandwiches = superop.folded
    out = lsum @ m + m @ rsum
    for coeff, left, right in sandwiches:
        out += coeff * (left @ m @ right)
    return out


def to_matrix(superop: Superoperator, max_dim: int = 64) -> np.ndarray:
    """Dense matrix on column-stacked density operators: sum coeff * kron(R^T, L)."""
    if superop.dim > max_dim:
        raise DimensionMismatchError(
            f"dim {superop.dim} exceeds max_dim={max_dim} for the d^2 x d^2 form"
        )
    d2 = superop.dim ** 2
    out = np.zeros((d2, d2), dtype=complex)
    for t in superop.terms:
        out += t.coeff * np.kron(t.right.T, t.left)
    return out
