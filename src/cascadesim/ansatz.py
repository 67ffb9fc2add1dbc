"""Coherent-state disentanglement ansatz.

The target qubit is solved along each classical source path under a
classical-field drive, and the joint state is reassembled as a weighted
mixture of coherent-projector (x) conditional-target products for comparison
with the full cascaded master-equation solution.

The separated target equation is linear in rho_T, so on row-major 4-vectors
it reads dv/dt = M(alpha) v with M(alpha) = A0 + alpha A1 + alpha* A2.  One
classical RK4 step is then exactly a 4x4 propagator
P_n = I + dt/6 (K1 + 2 K2 + 2 K3 + K4), with K1 = M(alpha_n),
K2 = M(alpha_mid) (I + dt/2 K1), K3 = M(alpha_mid) (I + dt/2 K2) and
K4 = M(alpha_n+1) (I + dt K3).  The propagators are built in batched numpy
expressions, a block of steps at a time; only the product v <- P_n v runs
step by step.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError
from .hilbert import DensityOperator, FockSpec, add_product, coherent_state, qubit_lowering
from .liouvillian import CouplingConfig
from .sources import ClassicalPath

_B = qubit_lowering()
_BD = _B.conj().T
_NB = _BD @ _B
# RK4 steps whose propagators are held at once by solve_separated_target
_BLOCK_STEPS = 64


def drive_hamiltonian(alpha: complex, config: CouplingConfig) -> np.ndarray:
    """Classical-field drive i sqrt(gS gTf) (alpha* b - alpha b^dag), a 2x2 operator."""
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    return 1j * g * (np.conj(alpha) * _B - alpha * _BD)


_I2 = np.eye(2)
# the config-free 4x4 parts of the generator on row-major 4-vectors, built
# once: rho -> A rho is kron(A, I) and rho -> rho A is kron(I, A^T)
_COMMUTE_N, _COMMUTE_BD, _COMMUTE_B = (np.kron(A, _I2) - np.kron(_I2, A.T) for A in (_NB, _BD, _B))
_ANTI_N = np.kron(_NB, _I2) + np.kron(_I2, _NB.T)
_JUMP = np.kron(_B, _BD.T)


def _target_generator(config: CouplingConfig) -> tuple:
    """(A0, A1, A2) of d rho_T/dt = (A0 + alpha A1 + alpha* A2) rho_T.

    A0 is the detuning and the qubit damping at gamma_T; A1 and A2 are the
    two halves of the classical drive i sqrt(gS gTf) (alpha* b - alpha b^dag).
    """
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    gt = config.gamma_T
    A0 = -1j * config.delta * _COMMUTE_N + gt * _JUMP - 0.5 * gt * _ANTI_N
    return A0, -g * _COMMUTE_BD, g * _COMMUTE_B


def solve_separated_target(path: ClassicalPath, config: CouplingConfig,
                           rhoT0: np.ndarray) -> np.ndarray:
    """RK4 integration of the separated target equation along one path.

    Returns the conditional states rho_{T|alpha}(t) as a (T, 2, 2) complex
    array on path.times.

    alpha(t) is interpolated piecewise-linearly between the path samples, so
    both sides of any ansatz-vs-full comparison see identical drives.
    """
    rho = np.asarray(rhoT0, dtype=complex)
    if rho.shape != (2, 2):
        raise DimensionMismatchError(f"initial target state must be 2x2, got {rho.shape}")
    if abs(np.trace(rho) - 1.0) > 1e-10:
        raise ValueError("initial target state must have unit trace")
    t = path.times
    A0, A1, A2 = _target_generator(config)

    def generator(alpha):
        a = alpha[:, None, None]
        return A0 + a * A1 + a.conj() * A2

    out = np.empty((len(t), 4), dtype=complex)
    v = out[0] = rho.reshape(4)
    # propagators are built a block of steps at a time, so memory stays
    # bounded however long the path is
    for start in range(0, len(t) - 1, _BLOCK_STEPS):
        seg = slice(start, start + _BLOCK_STEPS + 1)
        dt = np.diff(t[seg])[:, None, None]
        a = path.alphas[seg]
        m = generator(a)  # M(alpha_n) for every sample of the block
        k1, m_end = m[:-1], m[1:]
        m_mid = generator(0.5 * (a[:-1] + a[1:]))
        k2 = m_mid + 0.5 * dt * (m_mid @ k1)
        k3 = m_mid + 0.5 * dt * (m_mid @ k2)
        k4 = m_end + dt * (m_end @ k3)
        props = np.eye(4) + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for i, P in enumerate(props, start=start + 1):
            v = out[i] = P.dot(v)
    return out.reshape(len(t), 2, 2)


def build_ansatz_state(paths: list, conditionals: list, t_index: int,
                       fock: FockSpec) -> DensityOperator:
    """Weighted mixture sum_m w_m |alpha_m(t)><alpha_m(t)| (x) rho_{T|m}(t).

    Each conditional is the (T, 2, 2) array of its path's target states on
    path.times, as solve_separated_target returns it.
    """
    if len(paths) != len(conditionals):
        raise ValueError("paths and conditionals must align one-to-one")
    total_w = sum(p.weight for p in paths)
    if abs(total_w - 1.0) > 1e-10:
        raise ValueError(f"path weights must sum to 1, got {total_w}")
    acc = np.zeros((fock.dim, fock.dim), dtype=complex)
    for path, cond in zip(paths, conditionals):
        n = len(path.times)
        if np.shape(cond) != (n, 2, 2):
            raise DimensionMismatchError(f"conditional shape {np.shape(cond)}, want {(n, 2, 2)}")
        if not 0 <= t_index < n:
            raise IndexError(f"t_index {t_index} outside 0..{n - 1}")
        add_product(acc, path.weight, coherent_state(path.alphas[t_index], fock).vec,
                    cond[t_index])
    return DensityOperator(acc)
