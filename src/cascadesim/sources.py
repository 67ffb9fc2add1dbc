"""Concrete laser-source models.

Three variants: a coherently driven cavity mode, a free-decay mixture of
coherent amplitudes, and a birth-death laser whose carrier number is a
classical counter attached to each trajectory (the quantum register holds
only the photon mode).  The birth-death model has no closed superoperator
form here; its ensemble states come from trajectory averaging.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import UnsupportedSourceError
from .hilbert import SOURCE, FockSpec, annihilation, embed
from .liouvillian import (
    CouplingConfig,
    Superoperator,
    build_jump_ops,
    build_nonhermitian_H,
    commutator_terms,
)


@dataclass(frozen=True)
class CoherentDrive:
    """Classical drive of the source mode: H_S = i (eps a^dag - eps* a)."""

    epsilon: complex


@dataclass(frozen=True)
class FreeDecayMixture:
    """Undriven mode prepared in a weighted mixture of coherent amplitudes."""

    initial_amplitudes: tuple  # of (alpha0: complex, weight: float)

    def __post_init__(self):
        weights = [w for _, w in self.initial_amplitudes]
        if not all(math.isfinite(w) and w >= 0 for w in weights):
            raise ValueError(f"weights must be finite and >= 0, got {weights}")
        if abs(sum(weights) - 1.0) > 1e-12:
            raise ValueError(f"weights must sum to 1, got {sum(weights)}")


@dataclass(frozen=True)
class BirthDeathLaser:
    """Birth-death pumping: carrier count N fed at pump_rate, converted to
    photons at gain_per_carrier * N per photon-mode quantum, lost at
    nonlasing_rate * N."""

    pump_rate: float
    gain_per_carrier: float
    nonlasing_rate: float
    N0: int
    n0: int

    def __post_init__(self):
        rates = (self.pump_rate, self.gain_per_carrier, self.nonlasing_rate)
        if not all(math.isfinite(r) for r in rates):
            raise ValueError(f"rates must be finite, got {rates}")
        if min(rates) < 0:
            raise ValueError("rates must be >= 0")
        counts = (self.N0, self.n0)
        if not all(isinstance(c, numbers.Integral) and not isinstance(c, bool) and c >= 0
                   for c in counts):
            raise ValueError(f"initial counts must be integers >= 0, got {counts}")
        # the engine holds the carrier counts as int64
        if max(counts) >= 2**63:
            raise ValueError(f"initial counts must be below 2**63, got {counts}")


@dataclass
class ClassicalPath:
    """Complex amplitude samples alpha(t) on a time grid, with a statistical weight."""

    times: np.ndarray
    alphas: np.ndarray
    weight: float

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.alphas = np.asarray(self.alphas, dtype=complex)
        if self.times.shape != self.alphas.shape:
            raise ValueError("times and alphas must have equal length")
        if not (np.isfinite(self.times).all() and np.isfinite(self.alphas).all()):
            raise ValueError("times and alphas must be finite")
        if not self.weight >= 0:  # NaN too
            raise ValueError("weight must be >= 0")


@dataclass
class JumpChannel:
    """One trajectory event channel.

    Quantum channels carry an operator (probability dt * <C^dag C>, scaled by
    the carrier count when scales_with_carrier); classical channels carry a
    bare rate and never touch the quantum state.  carrier_delta is the update
    applied to the carrier counter on firing, quanta_delta the channel's shift
    of the total quanta n + q of the photon mode and the qubit.
    """

    label: str
    operator: np.ndarray | None = None
    rate: float = 0.0
    scales_with_carrier: bool = False
    carrier_delta: int = 0
    quanta_delta: int = 0


def steady_amplitude(model: CoherentDrive, config: CouplingConfig) -> complex:
    """Fixed point of d alpha/dt = eps - (gamma_S/2) alpha."""
    return 2.0 * model.epsilon / config.gamma_S


def _drive(model: CoherentDrive, spec: FockSpec) -> np.ndarray:
    """H_S = i (eps a^dag - eps* a) on the composite space."""
    a = embed(annihilation(spec), SOURCE, spec)
    return 1j * (model.epsilon * a.conj().T - np.conj(model.epsilon) * a)


def build_L_S(model, spec: FockSpec) -> Superoperator:
    """Source contribution to the unregrouped master equation (no output damping)."""
    if isinstance(model, FreeDecayMixture):
        return Superoperator([], spec.dim)
    if isinstance(model, CoherentDrive):
        return Superoperator(commutator_terms(_drive(model, spec)), spec.dim)
    raise UnsupportedSourceError(
        f"{type(model).__name__} has no superoperator form; it is trajectory-only"
    )


def source_jump_channels(model, config: CouplingConfig, spec: FockSpec) -> list:
    """Pump / gain / non-lasing channels of the birth-death model."""
    if not isinstance(model, BirthDeathLaser):
        raise UnsupportedSourceError(
            f"source jump channels are only defined for BirthDeathLaser, got {type(model).__name__}"
        )
    a_dag = embed(annihilation(spec), SOURCE, spec).conj().T
    return [
        JumpChannel("pump", rate=model.pump_rate, carrier_delta=+1),
        JumpChannel(
            "gain",
            operator=np.sqrt(model.gain_per_carrier) * a_dag,
            scales_with_carrier=True,
            carrier_delta=-1,
            quanta_delta=+1,
        ),
        JumpChannel(
            "nonlasing", rate=model.nonlasing_rate, scales_with_carrier=True, carrier_delta=-1
        ),
    ]


def unraveling(model, config: CouplingConfig, spec: FockSpec) -> tuple:
    """(H, channels) of the trajectories: the non-Hermitian drift, plus H_S for
    a CoherentDrive, and the forward and side detections, then a
    BirthDeathLaser's channels.  A jump picks its channel in this order, so
    the order fixes the records.  Any other model raises UnsupportedSourceError."""
    if not isinstance(model, (CoherentDrive, FreeDecayMixture, BirthDeathLaser)):
        raise UnsupportedSourceError(f"{type(model).__name__} has no trajectory unraveling")
    H = build_nonhermitian_H(config, spec)
    if isinstance(model, CoherentDrive):
        H += _drive(model, spec)
    f, s = build_jump_ops(config, spec)
    channels = [JumpChannel("forward_f", operator=f, quanta_delta=-1),
                JumpChannel("side_s", operator=s, quanta_delta=-1)]
    if isinstance(model, BirthDeathLaser):
        channels += source_jump_channels(model, config, spec)
    return H, channels


def classical_paths(model, config: CouplingConfig, t_grid: np.ndarray,
                    alpha0: complex | None = None) -> list:
    """Deterministic classical amplitude paths of the model.

    FreeDecayMixture: alpha0 * exp(-gamma_S t / 2) per mixture component.
    CoherentDrive: the single solution of d alpha/dt = eps - (gamma_S/2) alpha
    from alpha(0) = alpha0 (default: the steady amplitude).
    """
    t = np.asarray(t_grid, dtype=float)
    decay = np.exp(-config.gamma_S * t / 2.0)
    if isinstance(model, FreeDecayMixture):
        return [
            ClassicalPath(t, a0 * decay, weight=w) for a0, w in model.initial_amplitudes
        ]
    if isinstance(model, CoherentDrive):
        a_ss = steady_amplitude(model, config)
        if alpha0 is None:
            alpha0 = a_ss
        return [ClassicalPath(t, a_ss + (alpha0 - a_ss) * decay, weight=1.0)]
    raise UnsupportedSourceError(
        f"classical paths are not defined for {type(model).__name__}"
    )
