"""Entanglement and separability diagnostics for the source-qubit pair."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvariantViolationError
from .hilbert import (
    COMPOSITE,
    EXCITED,
    GROUND,
    QUBIT_DIM,
    DensityOperator,
    FockSpec,
    PureState,
    add_product,
    coherent_state,
    total_quanta,
)


def schmidt_entropy(psi: PureState) -> float:
    """Entanglement entropy (base 2) of a composite pure state."""
    if abs(psi.norm - 1.0) > 1e-10:
        raise InvariantViolationError(f"state not normalized: |psi| = {psi.norm}")
    A = psi.vec.reshape(-1, QUBIT_DIM)
    svals = np.linalg.svd(A, compute_uv=False)
    lam = svals ** 2
    lam = lam[lam > 1e-300]
    return float(max(-np.sum(lam * np.log2(lam)), 0.0))


def negativity(rho: DensityOperator) -> float:
    """Sum of |negative eigenvalues| of the partial transpose over the qubit."""
    if rho.layout != COMPOSITE:
        raise DimensionMismatchError("negativity needs a composite state")
    fock_dim = rho.dim // QUBIT_DIM
    r = rho.mat.reshape(fock_dim, QUBIT_DIM, fock_dim, QUBIT_DIM)
    pt = np.transpose(r, (0, 3, 2, 1)).reshape(rho.dim, rho.dim)
    eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2.0)
    return float(-eigs[eigs < 0].sum())


def trace_distance(rho1: DensityOperator, rho2: DensityOperator) -> float:
    """(1/2) ||rho1 - rho2||_1 via eigenvalues of the Hermitian difference."""
    if rho1.dim != rho2.dim:
        raise DimensionMismatchError(f"dims {rho1.dim} and {rho2.dim}")
    diff = rho1.mat - rho2.mat
    eigs = np.linalg.eigvalsh((diff + diff.conj().T) / 2.0)
    return float(0.5 * np.sum(np.abs(eigs)))


def support_pattern_check(rho: DensityOperator, tol: float) -> tuple:
    """Check that rho only populates matrix elements within a single
    total-quanta sector per row/column pair.

    Allowed elements connect basis states of equal total quanta
    n + q: the diagonal plus the |n,-> <-> |n-1,+> coherences.  Returns
    (passed, offending) where offending lists (i, j, |value|) of the
    elements outside them whose |value| is at or above tol, or not finite.
    """
    if rho.layout != COMPOSITE:
        raise DimensionMismatchError("support check needs a composite state")
    quanta = total_quanta(rho.dim)
    allowed = quanta[:, None] == quanta[None, :]
    # negated, so that a NaN entry is reported too
    i, j = np.nonzero((~allowed) & ~(np.abs(rho.mat) < tol))
    v = rho.mat[i, j]
    # hypot gives the bits of the scalar abs(); np.abs on an array may differ by an ulp
    offending = list(zip(i.tolist(), j.tolist(), np.hypot(v.real, v.imag).tolist()))
    return len(offending) == 0, offending


@dataclass(frozen=True)
class PhaseAveragedSpec:
    """Mixture over ring radii of phase-averaged coherent (x) qubit products.

    The qubit factor at phase phi is a' e^{-i phi/2} |-> + b' e^{i phi/2} |+>;
    its projector is 2pi-periodic, so a uniform K-point phase quadrature with
    K >= 4 n_max averages all surviving moments exactly.
    """

    radial_weights: tuple  # of (r >= 0, weight)
    a_prime: float
    b_prime: float
    phase_points: int

    def __post_init__(self):
        if abs(self.a_prime ** 2 + self.b_prime ** 2 - 1.0) > 1e-12:
            raise ValueError("a_prime^2 + b_prime^2 must equal 1")
        weights = [w for _, w in self.radial_weights]
        if any(w < 0 for w in weights) or abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError("radial weights must be >= 0 and sum to 1")
        if any(r < 0 for r, _ in self.radial_weights):
            raise ValueError("radii must be >= 0")
        if self.phase_points < 1:
            raise ValueError("phase_points must be >= 1")


def phase_averaged_state(spec: PhaseAveragedSpec, fock: FockSpec) -> DensityOperator:
    """Separable-by-construction state assembled from phase-correlated products."""
    if spec.phase_points < 4 * fock.n_max:
        raise ValueError(
            f"phase_points={spec.phase_points} < 4*n_max={4 * fock.n_max}: "
            "phase quadrature would alias"
        )
    K = spec.phase_points
    acc = np.zeros((fock.dim, fock.dim), dtype=complex)
    for r, w in spec.radial_weights:
        if w == 0.0:
            continue
        for k in range(K):
            phi = 2.0 * np.pi * k / K
            src = coherent_state(r * np.exp(1j * phi), fock).vec
            t = np.zeros(QUBIT_DIM, dtype=complex)
            t[GROUND] = spec.a_prime * np.exp(-0.5j * phi)
            t[EXCITED] = spec.b_prime * np.exp(0.5j * phi)
            add_product(acc, w / K, src, np.outer(t, t.conj()))
    return DensityOperator(acc, layout=COMPOSITE)
