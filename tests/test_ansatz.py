import numpy as np
import pytest

from cascadesim.ansatz import (
    ConditionalTargetState,
    build_ansatz_state,
    compare_to_full,
    drive_hamiltonian,
    solve_separated_target,
)
from cascadesim.errors import GridMismatchError
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    DensityOperator,
    FockSpec,
    coherent_state,
    product_state,
    qubit_state,
)
from cascadesim.liouvillian import CouplingConfig, build_L_ST, build_L_T
from cascadesim.sources import ClassicalPath, FreeDecayMixture, classical_paths
from cascadesim.evolve import TimeGrid, evolve_master

GROUND_RHO = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)


def constant_path(alpha, t):
    return ClassicalPath(t, np.full(len(t), alpha, dtype=complex), weight=1.0)


def literal_target_rk4(path, cfg, rho0):
    """Per-step RK4 on 2x2 matrices: the reference for the propagator solver."""
    b = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |g><e|, GROUND = 0
    bd, nb = b.conj().T, b.conj().T @ b
    g = np.sqrt(cfg.gamma_S * cfg.gamma_Tf)

    def rhs(rho, alpha):
        H = cfg.delta * nb + 1j * g * (np.conj(alpha) * b - alpha * bd)
        return (-1j * (H @ rho - rho @ H) + cfg.gamma_T * (b @ rho @ bd)
                - 0.5 * cfg.gamma_T * (nb @ rho + rho @ nb))

    rho = np.asarray(rho0, dtype=complex)
    out = [rho]
    for i in range(len(path.times) - 1):
        dt = path.times[i + 1] - path.times[i]
        a0, a1 = path.alphas[i], path.alphas[i + 1]
        a_mid = 0.5 * (a0 + a1)
        k1 = rhs(rho, a0)
        k2 = rhs(rho + 0.5 * dt * k1, a_mid)
        k3 = rhs(rho + 0.5 * dt * k2, a_mid)
        k4 = rhs(rho + dt * k3, a1)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        out.append(rho)
    return np.array(out)


class TestDriveHamiltonian:
    def test_hermitian(self):
        H = drive_hamiltonian(0.4 + 0.3j, CouplingConfig(1.0, 0.8, 0.1)).mat
        assert np.max(np.abs(H - H.conj().T)) < 1e-15

    def test_coupling_element(self):
        cfg = CouplingConfig(2.0, 0.5, 0.0)
        alpha = 0.7 * np.exp(0.4j)
        H = drive_hamiltonian(alpha, cfg).mat
        g = np.sqrt(cfg.gamma_S * cfg.gamma_Tf)
        assert abs(H[EXCITED, GROUND] - (-1j) * g * alpha) < 1e-14

    def test_vanishes_without_forward_channel(self):
        assert np.allclose(drive_hamiltonian(1.0, CouplingConfig(1.0, 0.0, 0.5)).mat, 0.0)


class TestSeparatedTarget:
    def test_undriven_decay_oracle(self):
        # with the drive off, the excited population is exactly exponential
        # and the coherence decays at half the rate
        cfg = CouplingConfig(1.0, 0.0, 0.8)
        t = np.linspace(0.0, 4.0, 401)
        rho0 = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
        sol = solve_separated_target(constant_path(1.3, t), cfg, rho0)
        gt = cfg.gamma_T
        for ti, rho in zip(t, sol.rhos):
            assert abs(rho[EXCITED, EXCITED] - 0.6 * np.exp(-gt * ti)) < 1e-9
            assert abs(rho[GROUND, EXCITED] - 0.2 * np.exp(-gt * ti / 2)) < 1e-9

    def test_driven_steady_population(self):
        # resonant two-level steady state: P_e = (W^2/4)/(gamma^2/4 + W^2/2)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        alpha = 1.2
        W = 2.0 * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * abs(alpha)
        t = np.linspace(0.0, 40.0, 4001)
        sol = solve_separated_target(constant_path(alpha, t), cfg, GROUND_RHO)
        pe = sol.rhos[-1][EXCITED, EXCITED].real
        expected = (W ** 2 / 4) / (cfg.gamma_T ** 2 / 4 + W ** 2 / 2)
        assert abs(pe - expected) < 1e-6

    def test_detuned_steady_population(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5, delta=0.8)
        alpha = 0.9
        W = 2.0 * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * abs(alpha)
        t = np.linspace(0.0, 60.0, 6001)
        sol = solve_separated_target(constant_path(alpha, t), cfg, GROUND_RHO)
        pe = sol.rhos[-1][EXCITED, EXCITED].real
        expected = (W ** 2 / 4) / (cfg.delta ** 2 + cfg.gamma_T ** 2 / 4 + W ** 2 / 2)
        assert abs(pe - expected) < 1e-6

    def test_trace_preserved(self):
        cfg = CouplingConfig(1.0, 0.6, 0.2, delta=0.3)
        t = np.linspace(0.0, 5.0, 501)
        path = ClassicalPath(t, 0.8 * np.exp(-t / 2), weight=1.0)
        sol = solve_separated_target(path, cfg, GROUND_RHO)
        assert np.max(np.abs(np.trace(sol.rhos, axis1=1, axis2=2) - 1.0)) < 1e-10

    def test_matches_literal_rk4(self):
        cfg = CouplingConfig(1.3, 0.7, 0.2, delta=0.9)
        t = np.linspace(0.0, 3.0, 301)
        alphas = 1.2 * np.exp((-0.3 + 0.7j) * t + 0.2j) + 0.1j * np.sin(3.0 * t)
        path = ClassicalPath(t, alphas, weight=1.0)
        rho0 = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]], dtype=complex)
        sol = solve_separated_target(path, cfg, rho0)
        assert np.max(np.abs(sol.rhos - literal_target_rk4(path, cfg, rho0))) <= 1e-13

    def test_fourth_order(self):
        # alpha linear in t is reproduced exactly by the piecewise-linear
        # drive, so only the RK4 truncation error remains
        cfg = CouplingConfig(1.0, 0.8, 0.3, delta=0.5)

        def final_state(steps):
            t = np.linspace(0.0, 2.0, steps + 1)
            path = ClassicalPath(t, (0.9 - 0.3j) + (0.4 + 0.6j) * t, weight=1.0)
            return solve_separated_target(path, cfg, GROUND_RHO).rhos[-1]

        exact = final_state(1280)
        err = [np.max(np.abs(final_state(n) - exact)) for n in (20, 40)]
        assert err[0] / err[1] >= 12.0

    def test_rejects_bad_initial_state(self):
        t = np.linspace(0, 1, 11)
        with pytest.raises(ValueError):
            solve_separated_target(constant_path(0.0, t), CouplingConfig(),
                                   2.0 * GROUND_RHO)


class TestAnsatzAssembly:
    def test_single_product(self):
        fock = FockSpec(18)
        t = np.linspace(0, 1, 3)
        path = constant_path(0.8, t)
        cond = ConditionalTargetState(t, np.tile(GROUND_RHO, (3, 1, 1)))
        rho = build_ansatz_state([path], [cond], 1, fock)
        expect = product_state(coherent_state(0.8, fock), qubit_state(GROUND)).projector()
        assert np.max(np.abs(rho.mat - expect)) < 1e-12

    def test_weight_sum_enforced(self):
        fock = FockSpec(4)
        t = np.linspace(0, 1, 3)
        path = ClassicalPath(t, np.zeros(3, dtype=complex), weight=0.5)
        cond = ConditionalTargetState(t, np.tile(GROUND_RHO, (3, 1, 1)))
        with pytest.raises(ValueError):
            build_ansatz_state([path], [cond], 0, fock)

    def test_grid_mismatch(self):
        fock = FockSpec(4)
        path = constant_path(0.0, np.linspace(0, 1, 3))
        cond = ConditionalTargetState(np.linspace(0, 2, 3), np.tile(GROUND_RHO, (3, 1, 1)))
        with pytest.raises(GridMismatchError):
            build_ansatz_state([path], [cond], 0, fock)


class TestAgainstFullSolution:
    def test_free_decay_single_amplitude(self):
        # one decaying coherent amplitude: the factorized solution tracks the
        # full cascaded master equation to integration/truncation accuracy
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        model = FreeDecayMixture(((0.8, 1.0),))
        fock = FockSpec(18)
        grid = TimeGrid(0.0, 2.0, 0.002)
        store = 100
        t_stored = grid.times()[::store]

        L = build_L_T(cfg, fock) + build_L_ST(cfg, fock)
        rho0 = DensityOperator(
            product_state(coherent_state(0.8, fock), qubit_state(GROUND)).projector()
        )
        full = evolve_master(rho0, L, grid, store_every=store)

        (path,) = classical_paths(model, cfg, grid.times())
        cond = solve_separated_target(path, cfg, GROUND_RHO)
        ansatz = [build_ansatz_state([path], [cond], i * store, fock)
                  for i in range(len(t_stored))]
        report = compare_to_full(ansatz, full)
        assert report["trace_distance"].max() < 1e-4
        assert report["max_abs_deviation"].max() < 1e-4

    def test_length_mismatch(self):
        fock = FockSpec(3)
        rho = DensityOperator(
            product_state(coherent_state(0.0, fock, warn=False),
                          qubit_state(GROUND)).projector()
        )
        with pytest.raises(GridMismatchError):
            compare_to_full([rho], [rho, rho])
