"""Truncated Fock (x) qubit Hilbert space: states, partial traces and the
qubit lowering operator.

States are PureState and DensityOperator, a square density matrix with no
record of the space it lives on; partial_trace and the entanglement
measures take plain arrays, and the qubit lowering is a complex (2, 2)
ndarray.  A composite state is told from a (2, 2) target state by its shape
alone (composite_view): FockSpec keeps n_max >= 1, so its dimension is even
and at least 4.  The ladder operators of the composite space are band maps,
built by ``liouvillian.ladders``.

Basis ordering is fixed package-wide: the composite index is ``2*n + q``
with Fock index ``n`` and qubit index ``q``, where ``q = 0`` is the qubit
ground state |-> and ``q = 1`` the excited state |+>.  Composite operators
are therefore ``kron(fock_part, qubit_part)``.  Serialized matrices always
follow this ordering.
"""

from __future__ import annotations

import functools
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


# the factor that partial_trace keeps
SOURCE = "source"
TARGET = "target"


@dataclass
class DensityOperator:
    mat: np.ndarray

    def __post_init__(self):
        self.mat = np.asarray(self.mat, dtype=complex)
        if self.mat.ndim != 2 or self.mat.shape[0] != self.mat.shape[1]:
            raise DimensionMismatchError(f"density matrix must be square, got {self.mat.shape}")

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def check(self):
        """Raise InvariantViolationError if trace/hermiticity/positivity are off;
        the one-state call of check_states at its default tolerances."""
        failure = check_states(self.mat[None])
        if failure is not None:
            raise InvariantViolationError(failure[1])
        return self


def check_states(mats: np.ndarray, trace_tol: float = 1e-10, herm_tol: float = 1e-12,
                 eig_tol: float = 1e-10) -> tuple | None:
    """(index, message) of the first matrix of a (B, d, d) stack that is not a
    valid density matrix, or None if every one is.

    Each matrix is checked for finiteness, then trace, hermiticity and
    positivity, each only on the matrices that passed the checks before it,
    so no arithmetic touches a non-finite entry.  Positivity is first tried
    as one Cholesky factorization of the stack of hermitized matrices plus
    (eig_tol / 2) I, which exists when each smallest eigenvalue is above
    -eig_tol / 2.  Only when it does not does one batched eigvalsh of the
    hermitized stack decide, so the pass/fail boundary is that of the
    smallest eigenvalue against -eig_tol: a matrix whose smallest eigenvalue
    is below -eig_tol fails the shifted Cholesky too.
    """
    finite = np.isfinite(mats).all(axis=(1, 2))
    # n: the matrices before the first non-finite one; n_herm: those before
    # the first of them that fails the trace or the hermiticity check
    n = len(mats) if finite.all() else int(finite.argmin())
    ok = mats[:n]
    tr_err = np.abs(np.trace(ok, axis1=1, axis2=2) - 1.0)
    adj = ok.conj().swapaxes(1, 2)
    herm_err = np.abs(ok - adj).max(axis=(1, 2))
    bad = ~(tr_err <= trace_tol) | ~(herm_err <= herm_tol)
    n_herm = int(bad.argmax()) if bad.any() else n
    # (rho + rho^dag) / 2 + (eig_tol / 2) I; * 0.5 gives the bits of / 2
    # without a complex division
    shifted = ok[:n_herm] + adj[:n_herm]
    shifted *= 0.5
    d = mats.shape[-1]
    shifted.reshape(n_herm, d * d)[:, ::d + 1] += eig_tol / 2.0
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        min_eig = np.linalg.eigvalsh((ok[:n_herm] + adj[:n_herm]) * 0.5).min(axis=1)
        negative = ~(min_eig >= -eig_tol)
        if negative.any():
            i = int(negative.argmax())
            return i, f"negative eigenvalue {min_eig[i]:.3e}"
    if n_herm < n:
        if not tr_err[n_herm] <= trace_tol:
            return n_herm, f"trace deviates from 1 by {tr_err[n_herm]:.3e}"
        return n_herm, f"hermiticity residual {herm_err[n_herm]:.3e}"
    if n < len(mats):
        return n, "non-finite entry in the density matrix"
    return None


def total_quanta(dim: int) -> np.ndarray:
    """n + q of each composite basis index 2n + q: (index + 1) // 2."""
    return (np.arange(dim) + 1) // 2


def qubit_lowering() -> np.ndarray:
    """<-| b |+> = 1 in the (|->, |+>) ordering; b^2 = 0."""
    m = np.zeros((2, 2), dtype=complex)
    m[GROUND, EXCITED] = 1.0
    return m


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


@functools.lru_cache(maxsize=32)
def _log_factorials(fock_dim: int) -> tuple:
    """Read-only (n, log n!) for n < fock_dim; log space stays finite for large n."""
    n = np.arange(fock_dim)
    log_fact = np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, fock_dim)))))
    n.flags.writeable = log_fact.flags.writeable = False
    return n, log_fact


def coherent_state(alpha: complex, spec: FockSpec, warn: bool = True) -> PureState:
    """Truncated coherent state, renormalized after the cutoff.

    Warns when the cutoff is below the adequacy rule n_max >= |a|^2 + 8|a| + 10,
    which keeps the Poisson tail mass below ~1e-12.  Raises ValueError when
    |a|^2 is not a finite float (a NaN or infinite alpha, or |a| > ~1.3e154).
    """
    size = math.hypot(alpha.real, alpha.imag)
    if not math.isfinite(size * size):
        raise ValueError(f"alpha={alpha} has no finite |alpha|^2")
    if warn and spec.n_max < adequate_n_max(alpha):
        warnings.warn(
            f"n_max={spec.n_max} below the adequacy rule ({adequate_n_max(alpha)}) "
            f"for |alpha|={abs(alpha):.3g}",
            TruncationWarning,
            stacklevel=2,
        )
    if alpha == 0:
        return fock_state(0, spec)
    n, log_fact = _log_factorials(spec.fock_dim)
    mag = np.exp(-abs(alpha) ** 2 / 2.0 + n * np.log(abs(alpha)) - log_fact / 2.0)
    phase = np.exp(1j * n * np.angle(alpha))
    return PureState(mag * phase).normalized()


def add_product(acc: np.ndarray, weight: float, source: np.ndarray, target: np.ndarray) -> None:
    """In place acc += weight * kron(outer(source, source*), target), elementwise as
    the kron; acc must be C-contiguous, so that its 4-index reshape is a view."""
    src = source[:, None] * source.conj()
    view = acc.reshape(len(source), QUBIT_DIM, len(source), QUBIT_DIM)
    view += weight * (src[:, None, :, None] * target[None, :, None, :])


def composite_view(rho) -> np.ndarray:
    """A composite (d, d) matrix as its (d / 2, 2, d / 2, 2) view, indexed
    [n, q, m, p]; DimensionMismatchError unless it is square with an even
    d >= 4, the shape of a source (x) qubit state at n_max >= 1."""
    m = np.asarray(rho)
    d = m.shape[0] if m.ndim == 2 else 0
    if m.shape != (d, d) or d < 2 * QUBIT_DIM or d % QUBIT_DIM:
        raise DimensionMismatchError(
            f"need a source (x) qubit state, square of even dimension >= 4; got shape {m.shape}")
    return m.reshape(d // QUBIT_DIM, QUBIT_DIM, d // QUBIT_DIM, QUBIT_DIM)


def partial_trace(rho: np.ndarray, keep: str) -> np.ndarray:
    """Trace out one factor of a composite (d, d) density matrix."""
    r = composite_view(rho)
    if keep == SOURCE:
        return np.einsum("nqmq->nm", r)
    if keep == TARGET:
        return np.einsum("nqnp->qp", r)
    raise ValueError(f"keep must be 'source' or 'target', got {keep!r}")
