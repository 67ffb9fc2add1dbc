import os
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesim.ansatz import (
    build_ansatz_state,
    drive_hamiltonian,
    solve_separated_target,
)
from cascadesim.analysis import trace_distance
from cascadesim.errors import DimensionMismatchError
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    TARGET,
    DensityOperator,
    FockSpec,
    PureState,
    adequate_n_max,
    coherent_state,
    product_state,
    qubit_lowering,
    qubit_state,
)
from cascadesim.liouvillian import CouplingConfig, build_L_ST, build_L_T
from cascadesim.sources import (
    ClassicalPath,
    CoherentDrive,
    FreeDecayMixture,
    build_L_S,
    classical_paths,
)
from cascadesim.evolve import TimeGrid, evolve_master, run_ensemble
from conftest import diffusing_ring, random_density

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


# The straightforward forms of the separated-target solve and the mixture
# build, kept literally: the kron-built generator, three generator calls per
# block, the `@` step and the kron sum.  The package's versions must agree
# with them bit for bit, not only to a tolerance.
_B = qubit_lowering()
_BD = _B.conj().T
_NB = _BD @ _B


def _left(A):
    return np.kron(A, np.eye(2))


def _right(A):
    return np.kron(np.eye(2), A.T)


def kron_target_generator(config):
    g = np.sqrt(config.gamma_S * config.gamma_Tf)
    gt = config.gamma_T
    A0 = (-1j * config.delta * (_left(_NB) - _right(_NB))
          + gt * np.kron(_B, _BD.T) - 0.5 * gt * (_left(_NB) + _right(_NB)))
    A1 = -g * (_left(_BD) - _right(_BD))
    A2 = g * (_left(_B) - _right(_B))
    return A0, A1, A2


def stepwise_separated_target(path, config, rhoT0, block_steps=64):
    t = path.times
    A0, A1, A2 = kron_target_generator(config)

    def generator(alpha):
        a = alpha[:, None, None]
        return A0 + a * A1 + a.conj() * A2

    out = np.empty((len(t), 4), dtype=complex)
    v = out[0] = np.asarray(rhoT0, dtype=complex).reshape(4)
    for start in range(0, len(t) - 1, block_steps):
        seg = slice(start, start + block_steps + 1)
        dt = np.diff(t[seg])[:, None, None]
        a0, a1 = path.alphas[seg][:-1], path.alphas[seg][1:]
        m_mid = generator(0.5 * (a0 + a1))
        k1 = generator(a0)
        k2 = m_mid + 0.5 * dt * (m_mid @ k1)
        k3 = m_mid + 0.5 * dt * (m_mid @ k2)
        m_end = generator(a1)
        k4 = m_end + dt * (m_end @ k3)
        props = np.eye(4) + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for i, P in enumerate(props, start=start + 1):
            v = out[i] = P @ v
    return out.reshape(len(t), 2, 2)


def kron_mixture(paths, conditionals, t_index, fock):
    acc = np.zeros((fock.dim, fock.dim), dtype=complex)
    for path, cond in zip(paths, conditionals):
        src = coherent_state(path.alphas[t_index], fock).projector()
        acc += path.weight * np.kron(src, cond[t_index])
    return acc


class TestDriveHamiltonian:
    def test_hermitian(self):
        H = drive_hamiltonian(0.4 + 0.3j, CouplingConfig(1.0, 0.8, 0.1))
        assert np.max(np.abs(H - H.conj().T)) < 1e-15

    def test_coupling_element(self):
        cfg = CouplingConfig(2.0, 0.5, 0.0)
        alpha = 0.7 * np.exp(0.4j)
        H = drive_hamiltonian(alpha, cfg)
        g = np.sqrt(cfg.gamma_S * cfg.gamma_Tf)
        assert abs(H[EXCITED, GROUND] - (-1j) * g * alpha) < 1e-14

    def test_vanishes_without_forward_channel(self):
        assert np.allclose(drive_hamiltonian(1.0, CouplingConfig(1.0, 0.0, 0.5)), 0.0)


class TestSeparatedTarget:
    def test_undriven_decay_oracle(self):
        # with the drive off, the excited population is exactly exponential
        # and the coherence decays at half the rate
        cfg = CouplingConfig(1.0, 0.0, 0.8)
        t = np.linspace(0.0, 4.0, 401)
        rho0 = np.array([[0.4, 0.2], [0.2, 0.6]], dtype=complex)
        sol = solve_separated_target(constant_path(1.3, t), cfg, rho0)
        gt = cfg.gamma_T
        for ti, rho in zip(t, sol):
            assert abs(rho[EXCITED, EXCITED] - 0.6 * np.exp(-gt * ti)) < 1e-9
            assert abs(rho[GROUND, EXCITED] - 0.2 * np.exp(-gt * ti / 2)) < 1e-9

    def test_driven_steady_population(self):
        # resonant two-level steady state: P_e = (W^2/4)/(gamma^2/4 + W^2/2)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        alpha = 1.2
        W = 2.0 * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * abs(alpha)
        t = np.linspace(0.0, 40.0, 4001)
        sol = solve_separated_target(constant_path(alpha, t), cfg, GROUND_RHO)
        pe = sol[-1][EXCITED, EXCITED].real
        expected = (W ** 2 / 4) / (cfg.gamma_T ** 2 / 4 + W ** 2 / 2)
        assert abs(pe - expected) < 1e-6

    def test_detuned_steady_population(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5, delta=0.8)
        alpha = 0.9
        W = 2.0 * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * abs(alpha)
        t = np.linspace(0.0, 60.0, 6001)
        sol = solve_separated_target(constant_path(alpha, t), cfg, GROUND_RHO)
        pe = sol[-1][EXCITED, EXCITED].real
        expected = (W ** 2 / 4) / (cfg.delta ** 2 + cfg.gamma_T ** 2 / 4 + W ** 2 / 2)
        assert abs(pe - expected) < 1e-6

    def test_trace_preserved(self):
        cfg = CouplingConfig(1.0, 0.6, 0.2, delta=0.3)
        t = np.linspace(0.0, 5.0, 501)
        path = ClassicalPath(t, 0.8 * np.exp(-t / 2), weight=1.0)
        sol = solve_separated_target(path, cfg, GROUND_RHO)
        assert np.max(np.abs(np.trace(sol, axis1=1, axis2=2) - 1.0)) < 1e-10

    def test_matches_literal_rk4(self):
        cfg = CouplingConfig(1.3, 0.7, 0.2, delta=0.9)
        t = np.linspace(0.0, 3.0, 301)
        alphas = 1.2 * np.exp((-0.3 + 0.7j) * t + 0.2j) + 0.1j * np.sin(3.0 * t)
        path = ClassicalPath(t, alphas, weight=1.0)
        rho0 = np.array([[0.6, 0.1 - 0.2j], [0.1 + 0.2j, 0.4]], dtype=complex)
        sol = solve_separated_target(path, cfg, rho0)
        assert np.max(np.abs(sol - literal_target_rk4(path, cfg, rho0))) <= 1e-13

    def test_fourth_order(self):
        # alpha linear in t is reproduced exactly by the piecewise-linear
        # drive, so only the RK4 truncation error remains
        cfg = CouplingConfig(1.0, 0.8, 0.3, delta=0.5)

        def final_state(steps):
            t = np.linspace(0.0, 2.0, steps + 1)
            path = ClassicalPath(t, (0.9 - 0.3j) + (0.4 + 0.6j) * t, weight=1.0)
            return solve_separated_target(path, cfg, GROUND_RHO)[-1]

        exact = final_state(1280)
        err = [np.max(np.abs(final_state(n) - exact)) for n in (20, 40)]
        assert err[0] / err[1] >= 12.0

    def test_bit_identical_to_stepwise_form_on_a_detuned_ring_path(self):
        # A6 rates and half step, a phase-diffusing ring, 300 steps: four
        # full propagator blocks and a partial one
        cfg = CouplingConfig(1.0, 0.5, 0.5, delta=0.7)
        t = np.arange(301) * 0.0005
        (path,) = diffusing_ring(1.5, 0.4, cfg.gamma_S, t, count=1, seed=3)
        rho0 = np.array([[0.7, 0.2 - 0.1j], [0.2 + 0.1j, 0.3]], dtype=complex)
        sol = solve_separated_target(path, cfg, rho0)
        assert np.array_equal(sol, stepwise_separated_target(path, cfg, rho0))

    def test_bit_identical_to_stepwise_form_on_a_non_uniform_grid(self):
        cfg = CouplingConfig(1.3, 0.7, 0.2, delta=-0.4)
        t = np.cumsum(np.concatenate(([0.0], 0.002 + 0.003 * np.sin(np.arange(150)) ** 2)))
        path = ClassicalPath(t, (0.9 - 0.4j) * np.exp((-0.5 + 2.0j) * t), weight=1.0)
        sol = solve_separated_target(path, cfg, GROUND_RHO)
        assert np.array_equal(sol, stepwise_separated_target(path, cfg, GROUND_RHO))

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
        cond = np.tile(GROUND_RHO, (3, 1, 1))
        rho = build_ansatz_state([path], [cond], 1, fock)
        expect = product_state(coherent_state(0.8, fock), qubit_state(GROUND)).projector()
        assert np.max(np.abs(rho.mat - expect)) < 1e-12

    def test_weight_sum_enforced(self):
        fock = FockSpec(4)
        t = np.linspace(0, 1, 3)
        path = ClassicalPath(t, np.zeros(3, dtype=complex), weight=0.5)
        cond = np.tile(GROUND_RHO, (3, 1, 1))
        with pytest.raises(ValueError):
            build_ansatz_state([path], [cond], 0, fock)

    @pytest.mark.parametrize("shape", [(4, 2, 2), (2, 2, 2), (3, 4), (3, 2, 3), (2, 2)])
    def test_shape_mismatch(self, shape):
        # a conditional holds one 2x2 state per sample of its path
        fock = FockSpec(4)
        path = constant_path(0.0, np.linspace(0, 1, 3))
        with pytest.raises(DimensionMismatchError):
            build_ansatz_state([path], [np.zeros(shape, dtype=complex)], 0, fock)

    def test_count_mismatch(self):
        fock = FockSpec(4)
        path = constant_path(0.0, np.linspace(0, 1, 3))
        cond = np.tile(GROUND_RHO, (3, 1, 1))
        with pytest.raises(ValueError, match="one-to-one"):
            build_ansatz_state([path], [cond, cond], 0, fock)

    @pytest.mark.parametrize("t_index", [-1, -3, 3, 10])
    def test_time_index_outside_grid_rejected(self, t_index):
        # a negative index would silently wrap round to the end of the grid
        fock = FockSpec(4)
        t = np.linspace(0, 1, 3)
        path = constant_path(0.5, t)
        cond = np.tile(GROUND_RHO, (3, 1, 1))
        with pytest.raises(IndexError):
            build_ansatz_state([path], [cond], t_index, fock)

    def test_bit_identical_to_kron_sum_on_solved_conditionals(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5, delta=0.7)
        fock = FockSpec(25)
        t = np.arange(301) * 0.0005
        # seven paths, so the weight 1/7 rounds and the product order shows
        paths = diffusing_ring(1.5, 0.4, cfg.gamma_S, t, count=7, seed=5)
        conds = [solve_separated_target(p, cfg, GROUND_RHO) for p in paths]
        for j in (0, 1, 150, 300):
            rho = build_ansatz_state(paths, conds, j, fock)
            assert np.array_equal(rho.mat, kron_mixture(paths, conds, j, fock))
            # one stacked (K, T, 2, 2) array serves as the conditionals too
            assert np.array_equal(build_ansatz_state(paths, np.stack(conds), j, fock).mat, rho.mat)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), K=st.integers(1, 5), n_max=st.integers(2, 8))
    def test_bit_identical_to_kron_sum(self, data, K, n_max):
        t = np.linspace(0.0, 1.0, 3)

        def floats(lo, hi, size):
            return np.array(data.draw(st.lists(st.floats(lo, hi), min_size=size, max_size=size)))

        weights = floats(0.01, 1.0, K)
        weights /= weights.sum()
        paths, conds = [], []
        for w in weights:
            re_im = floats(-2.0, 2.0, 2 * len(t))
            paths.append(ClassicalPath(t, re_im[::2] + 1j * re_im[1::2], weight=float(w)))
            re_im = floats(-1.0, 1.0, 8 * len(t)).reshape(len(t), 2, 2, 2)
            M = re_im[..., 0] + 1j * re_im[..., 1]
            rhos = M @ M.conj().transpose(0, 2, 1) + 1e-3 * np.eye(2)
            rhos /= np.trace(rhos, axis1=1, axis2=2)[:, None, None]
            conds.append(rhos)
        fock = FockSpec(n_max)
        j = data.draw(st.integers(0, len(t) - 1))
        rho = build_ansatz_state(paths, conds, j, fock)
        assert np.array_equal(rho.mat, kron_mixture(paths, conds, j, fock))


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
        pairs = list(zip(ansatz, full, strict=True))
        assert max(trace_distance(a, f) for a, f in pairs) < 1e-4
        assert max(np.max(np.abs(a.mat - f.mat)) for a, f in pairs) < 1e-4

    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(gamma_S=st.floats(0.2, 2.0), gamma_Tf=st.floats(0.0, 1.5),
           gamma_Ts=st.floats(0.0, 1.0), delta=st.floats(-1.0, 1.0),
           eps=st.floats(0.1, 1.0), alpha0=st.floats(0.0, 1.5),
           phases=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
           seed=st.integers(0, 2**32 - 1))
    def test_coherent_drive_factorizes_at_drawn_parameters(
            self, gamma_S, gamma_Tf, gamma_Ts, delta, eps, alpha0, phases, seed):
        # the paper's claim: from |alpha0><alpha0| (x) rho_T0 a coherent drive
        # keeps the state |alpha(t)><alpha(t)| (x) rho_T(t), with alpha(t) the
        # classical path and rho_T(t) the separated target's solution; the RK4
        # error scales as dt^2 here (3.1e-7 at dt 0.005, 7.7e-8 at dt 0.0025)
        cfg = CouplingConfig(gamma_S, gamma_Tf, gamma_Ts, delta)
        model = CoherentDrive(eps * np.exp(1j * phases[0]))
        alpha0 = alpha0 * np.exp(1j * phases[1])
        grid = TimeGrid(0.0, 1.0, 0.0025)
        store = 80  # every 0.2
        (path,) = classical_paths(model, cfg, grid.times(), alpha0=alpha0)
        fock = FockSpec(min(20, adequate_n_max(np.abs(path.alphas).max())))
        rho_T0 = random_density(2, np.random.default_rng(seed), layout=TARGET).mat
        rho0 = DensityOperator(np.kron(coherent_state(alpha0, fock).projector(), rho_T0))
        L = build_L_S(model, fock) + build_L_T(cfg, fock) + build_L_ST(cfg, fock)
        full = evolve_master(rho0, L, grid, store_every=store)
        cond = solve_separated_target(path, cfg, rho_T0)
        for i, rho in enumerate(full):
            factorized = build_ansatz_state([path], [cond], i * store, fock)
            assert trace_distance(rho, factorized) <= 1e-6

    # the largest max_schmidt_entropy / dt^2 measured over drawn cases (8 to
    # 40 draws at each dt from 0.005 to 0.000625) was 13.6; the bound keeps
    # more than 3x above it
    ENTROPY_PER_DT2 = 50.0

    @pytest.mark.filterwarnings("ignore:step probability")
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(gamma_S=st.floats(0.2, 2.0), gamma_Tf=st.floats(0.0, 1.5),
           gamma_Ts=st.floats(0.0, 1.0), delta=st.floats(-1.0, 1.0),
           eps=st.floats(0.1, 1.0), alpha0=st.floats(0.0, 1.5),
           phases=st.tuples(st.floats(0.0, 2 * np.pi), st.floats(0.0, 2 * np.pi)),
           seed=st.integers(0, 2**32 - 1))
    def test_coherent_drive_trajectories_stay_products_at_drawn_parameters(
            self, gamma_S, gamma_Tf, gamma_Ts, delta, eps, alpha0, phases, seed):
        # the trajectory half: from |alpha0> (x) |psi_T0> every record keeps a
        # product, since a|alpha> = alpha|alpha> makes each jump map a product
        # to a product.  The first-order no-jump step leaves out the dt^2
        # cross term of the two factors, and a later jump of f turns the
        # source factor's drift from a coherent state into entanglement, so
        # the entropy is about dt^2 (5.1e-6 at most here, at dt 0.00125)
        cfg = CouplingConfig(gamma_S, gamma_Tf, gamma_Ts, delta)
        model = CoherentDrive(eps * np.exp(1j * phases[0]))
        alpha0 = alpha0 * np.exp(1j * phases[1])
        grid = TimeGrid(0.0, 1.0, 0.00125)
        (path,) = classical_paths(model, cfg, grid.times(), alpha0=alpha0)
        fock = FockSpec(min(20, adequate_n_max(np.abs(path.alphas).max())))
        rng = np.random.default_rng(seed)
        psi_T0 = PureState(rng.normal(size=2) + 1j * rng.normal(size=2)).normalized()
        psi0 = product_state(coherent_state(alpha0, fock), psi_T0)
        with mock.patch.dict(os.environ, {"CASCADESIM_WORKERS": "1"}):
            ens = run_ensemble(psi0, cfg, model, grid, range(16), store_every=grid.n_steps)
        assert max(ens.max_schmidt_entropies) <= self.ENTROPY_PER_DT2 * grid.dt ** 2
