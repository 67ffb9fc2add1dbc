"""Truncated Fock (x) qubit Hilbert space: operators, states, partial traces.

Basis ordering is fixed package-wide: the composite index is ``2*n + q``
with Fock index ``n`` and qubit index ``q``, where ``q = 0`` is the qubit
ground state |-> and ``q = 1`` the excited state |+>.  Composite operators
are therefore ``kron(fock_part, qubit_part)``.  Serialized matrices always
follow this ordering.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError, TruncationWarning

QUBIT_DIM = 2
GROUND = 0   # |->
EXCITED = 1  # |+>


@dataclass(frozen=True)
class FockSpec:
    """Photon-number truncation: states |0> .. |n_max> are kept."""

    n_max: int

    def __post_init__(self):
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")

    @property
    def fock_dim(self) -> int:
        return self.n_max + 1

    @property
    def dim(self) -> int:
        """Dimension of the composite source (x) target space."""
        return QUBIT_DIM * (self.n_max + 1)


def adequate_n_max(alpha: complex) -> int:
    """Smallest cutoff for which the Poisson tail of |alpha> is negligible (< 1e-12)."""
    a = abs(alpha)
    return math.ceil(a * a + 8.0 * a + 10.0)


@dataclass
class Operator:
    """Dense operator on a truncated space."""

    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise DimensionMismatchError(f"operator matrix must be square, got {self.mat.shape}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.mat.conj().T)

    def __matmul__(self, other: "Operator") -> "Operator":
        if self.dim != other.dim:
            raise DimensionMismatchError(f"dims {self.dim} and {other.dim}")
        return Operator(self.mat @ other.mat)

    def __mul__(self, scalar: complex) -> "Operator":
        return Operator(scalar * self.mat)

    __rmul__ = __mul__


@dataclass
class PureState:
    """State vector; `dim` is either the composite dim or a single-factor dim."""

    vec: np.ndarray

    def __post_init__(self):
        self.vec = np.asarray(self.vec, dtype=complex).ravel()

    @property
    def dim(self) -> int:
        return self.vec.shape[0]

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vec))

    def normalized(self) -> "PureState":
        n = self.norm
        if n == 0.0:
            raise InvariantViolationError("cannot normalize the zero vector")
        return PureState(self.vec / n)

    def projector(self) -> np.ndarray:
        return np.outer(self.vec, self.vec.conj())


# subsystem layout tags for DensityOperator
SOURCE = "source"
TARGET = "target"
COMPOSITE = "composite"


@dataclass
class DensityOperator:
    mat: np.ndarray
    layout: str = COMPOSITE

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {self.mat.shape}")
        if self.layout not in (SOURCE, TARGET, COMPOSITE):
            raise ValueError(f"unknown layout {self.layout!r}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    @property
    def trace(self) -> complex:
        return complex(np.trace(self.mat))

    def check(self, trace_tol: float = 1e-10, herm_tol: float = 1e-12, eig_tol: float = 1e-10):
        """Raise InvariantViolationError if trace/hermiticity/positivity are off.

        Positivity is first tried as a Cholesky factorization of the
        hermitized matrix plus (eig_tol / 2) I, which exists when the
        smallest eigenvalue is above -eig_tol / 2.  Only when it does not
        does eigvalsh decide, so the pass/fail boundary is that of the
        smallest eigenvalue against -eig_tol.
        """
        if not np.isfinite(self.mat).all():
            raise InvariantViolationError("non-finite entry in the density matrix")
        tr_err = abs(self.trace - 1.0)
        if not tr_err <= trace_tol:
            raise InvariantViolationError(f"trace deviates from 1 by {tr_err:.3e}")
        adj = self.mat.conj().T
        herm_err = float(np.max(np.abs(self.mat - adj)))
        if not herm_err <= herm_tol:
            raise InvariantViolationError(f"hermiticity residual {herm_err:.3e}")
        h = (self.mat + adj) / 2.0
        try:
            np.linalg.cholesky(h + (eig_tol / 2.0) * np.eye(self.dim))
        except np.linalg.LinAlgError:
            min_eig = float(np.linalg.eigvalsh(h).min())
            if not min_eig >= -eig_tol:
                raise InvariantViolationError(f"negative eigenvalue {min_eig:.3e}") from None
        return self


def total_quanta(dim: int) -> np.ndarray:
    """n + q of each composite basis index 2n + q: (index + 1) // 2."""
    return (np.arange(dim) + 1) // 2


def annihilation(spec: FockSpec) -> Operator:
    """Photon annihilation: <n-1| a |n> = sqrt(n), truncated at n_max."""
    d = spec.fock_dim
    return Operator(np.diag(np.sqrt(np.arange(1, d, dtype=float)), k=1))


def number_operator(spec: FockSpec) -> Operator:
    return Operator(np.diag(np.arange(spec.fock_dim, dtype=float)))


def qubit_lowering() -> Operator:
    """<-| b |+> = 1 in the (|->, |+>) ordering; b^2 = 0."""
    m = np.zeros((2, 2), dtype=complex)
    m[GROUND, EXCITED] = 1.0
    return Operator(m)


def identity(dim: int) -> Operator:
    return Operator(np.eye(dim, dtype=complex))


def embed(op: Operator, which: str, spec: FockSpec) -> Operator:
    """Tensor a single-factor operator with identity on the other factor."""
    if which == SOURCE:
        if op.dim != spec.fock_dim:
            raise DimensionMismatchError(f"source op dim {op.dim} != {spec.fock_dim}")
        return Operator(np.kron(op.mat, np.eye(QUBIT_DIM)))
    if which == TARGET:
        if op.dim != QUBIT_DIM:
            raise DimensionMismatchError(f"target op dim {op.dim} != {QUBIT_DIM}")
        return Operator(np.kron(np.eye(spec.fock_dim), op.mat))
    raise ValueError(f"which must be 'source' or 'target', got {which!r}")


def fock_state(n: int, spec: FockSpec) -> PureState:
    if not 0 <= n <= spec.n_max:
        raise ValueError(f"n={n} outside 0..{spec.n_max}")
    v = np.zeros(spec.fock_dim, dtype=complex)
    v[n] = 1.0
    return PureState(v)


def qubit_state(q: int) -> PureState:
    v = np.zeros(QUBIT_DIM, dtype=complex)
    v[q] = 1.0
    return PureState(v)


def product_state(source: PureState, target: PureState) -> PureState:
    return PureState(np.kron(source.vec, target.vec))


def coherent_state(alpha: complex, spec: FockSpec, warn: bool = True) -> PureState:
    """Truncated coherent state, renormalized after the cutoff.

    Warns when the cutoff is below the adequacy rule n_max >= |a|^2 + 8|a| + 10,
    which keeps the Poisson tail mass below ~1e-12.
    """
    if warn and spec.n_max < adequate_n_max(alpha):
        warnings.warn(
            f"n_max={spec.n_max} below the adequacy rule ({adequate_n_max(alpha)}) "
            f"for |alpha|={abs(alpha):.3g}",
            TruncationWarning,
            stacklevel=2,
        )
    if alpha == 0:
        v = np.zeros(spec.fock_dim, dtype=complex)
        v[0] = 1.0
        return PureState(v)
    n = np.arange(spec.fock_dim)
    # log-space to stay finite for larger n_max
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, spec.fock_dim)))))
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0)
    phase = np.exp(1j * n * np.angle(alpha))
    return PureState(mag * phase).normalized()


def partial_trace(rho: DensityOperator, keep: str) -> DensityOperator:
    """Trace out one factor of a composite density operator."""
    if rho.layout != COMPOSITE:
        raise DimensionMismatchError(f"partial_trace needs a composite state, got {rho.layout!r}")
    fock_dim = rho.dim // QUBIT_DIM
    r = rho.mat.reshape(fock_dim, QUBIT_DIM, fock_dim, QUBIT_DIM)
    if keep == SOURCE:
        return DensityOperator(np.einsum("nqmq->nm", r), layout=SOURCE)
    if keep == TARGET:
        return DensityOperator(np.einsum("nqnp->qp", r), layout=TARGET)
    raise ValueError(f"keep must be 'source' or 'target', got {keep!r}")
