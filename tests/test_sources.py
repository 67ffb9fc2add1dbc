import numpy as np
import pytest

from cascadesim.errors import UnsupportedSourceError
from cascadesim.hilbert import (
    GROUND,
    SOURCE,
    DensityOperator,
    FockSpec,
    coherent_state,
    fock_state,
    partial_trace,
    product_state,
    qubit_state,
)
from cascadesim.liouvillian import (
    CouplingConfig,
    Superoperator,
    SuperoperatorTerm,
    adjoint,
    apply,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
    dense,
    ladders,
    product,
    regroup,
)
from cascadesim.sources import (
    BirthDeathLaser,
    ClassicalPath,
    CoherentDrive,
    FreeDecayMixture,
    build_L_S,
    classical_paths,
    source_jump_channels,
    steady_amplitude,
    unraveling,
)
from cascadesim.evolve import TimeGrid, evolve_master, expectation, run_ensemble
from conftest import diffusing_ring

SPEC = FockSpec(6)
CFG = CouplingConfig(1.0, 0.5, 0.5)


class TestModels:
    def test_mixture_weights_validated(self):
        with pytest.raises(ValueError):
            FreeDecayMixture(((1.0, 0.5), (2.0, 0.6)))
        with pytest.raises(ValueError):
            FreeDecayMixture(((1.0, -0.1), (2.0, 1.1)))

    def test_birth_death_validated(self):
        with pytest.raises(ValueError):
            BirthDeathLaser(-1.0, 1.0, 0.5, N0=1, n0=0)
        with pytest.raises(ValueError):
            BirthDeathLaser(1.0, 1.0, 0.5, N0=-1, n0=0)
        for counts in ({"N0": True, "n0": 0}, {"N0": 1, "n0": True}):
            with pytest.raises(ValueError, match="integers"):
                BirthDeathLaser(1.0, 1.0, 0.5, **counts)

    def test_birth_death_counts_fit_int64(self):
        # the engine holds each trajectory's carrier count as an int64
        for counts in ({"N0": 2**63, "n0": 0}, {"N0": 1, "n0": 2**70}):
            with pytest.raises(ValueError, match="below 2\\*\\*63"):
                BirthDeathLaser(1.0, 1.0, 0.5, **counts)
        assert BirthDeathLaser(1.0, 1.0, 0.5, N0=2**63 - 1, n0=0).N0 == 2**63 - 1

    @pytest.mark.parametrize("field", ["pump_rate", "gain_per_carrier", "nonlasing_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_birth_death_non_finite_rejected(self, field, value):
        rates = {"pump_rate": 1.0, "gain_per_carrier": 1.0, "nonlasing_rate": 0.5}
        rates[field] = value
        with pytest.raises(ValueError, match="finite"):
            BirthDeathLaser(**rates, N0=1, n0=0)


class TestSourceGenerator:
    def test_free_decay_is_empty(self):
        assert build_L_S(FreeDecayMixture(((1.0, 1.0),)), SPEC).terms == []

    def test_birth_death_has_no_superoperator(self):
        with pytest.raises(UnsupportedSourceError):
            build_L_S(BirthDeathLaser(1.0, 1.0, 0.5, N0=1, n0=0), SPEC)

    def test_drive_ehrenfest_from_vacuum(self):
        # d<a>/dt = eps - (gamma_S/2)<a>; from vacuum the damping term vanishes
        eps = 0.4
        Lp_S, _, _ = regroup(build_L_S(CoherentDrive(eps), SPEC), CFG)
        rho0 = product_state(fock_state(0, SPEC), qubit_state(GROUND)).projector()
        a = dense(ladders(SPEC)[0], SPEC.dim)
        d_a = expectation(apply(Lp_S, rho0), a)
        assert abs(d_a - eps) < 1e-12

    def test_steady_amplitude_is_ehrenfest_fixed_point(self):
        eps = 0.3 + 0.1j
        model = CoherentDrive(eps)
        a_ss = steady_amplitude(model, CFG)
        assert abs(eps - 0.5 * CFG.gamma_S * a_ss) < 1e-14
        assert abs(a_ss - 2 * eps / CFG.gamma_S) < 1e-14


class TestJumpChannels:
    BD = BirthDeathLaser(2.0, 1.0, 0.5, N0=3, n0=1)

    def test_only_birth_death_supported(self):
        with pytest.raises(UnsupportedSourceError):
            source_jump_channels(CoherentDrive(0.1), CFG, SPEC)

    def test_unknown_model_has_no_unraveling(self):
        # an unknown model once ran as an undriven free decay
        with pytest.raises(UnsupportedSourceError, match="object"):
            unraveling(object(), CFG, SPEC)
        psi0 = product_state(fock_state(0, SPEC), qubit_state(GROUND))
        with pytest.raises(UnsupportedSourceError):
            run_ensemble(psi0, CouplingConfig(), object(), TimeGrid(0, 0.1, 0.01), [0])

    def test_gain_jump_adds_photon(self):
        channels = {c.label: c for c in source_jump_channels(self.BD, CFG, SPEC)}
        gain = channels["gain"]
        assert gain.carrier_delta == -1
        psi = product_state(fock_state(2, SPEC), qubit_state(GROUND)).vec
        out = gain.operator @ psi
        expected = product_state(fock_state(3, SPEC), qubit_state(GROUND)).vec
        assert np.allclose(out / np.linalg.norm(out), expected)

    def test_gain_rate_from_fock(self):
        channels = {c.label: c for c in source_jump_channels(self.BD, CFG, SPEC)}
        g_op = channels["gain"].operator
        for n in range(SPEC.n_max):
            psi = product_state(fock_state(n, SPEC), qubit_state(GROUND)).vec
            v = g_op @ psi
            rate = self.BD.N0 * np.vdot(v, v).real
            assert abs(rate - self.BD.gain_per_carrier * self.BD.N0 * (n + 1)) < 1e-12

    def test_classical_channels(self):
        channels = {c.label: c for c in source_jump_channels(self.BD, CFG, SPEC)}
        assert channels["pump"].operator is None
        assert channels["pump"].rate == 2.0
        assert channels["pump"].carrier_delta == 1
        assert channels["nonlasing"].scales_with_carrier

    @pytest.mark.parametrize("model", [CoherentDrive(0.3), FreeDecayMixture(((1.0, 1.0),)), BD])
    def test_unraveling_channels(self, model):
        # a jump picks the first channel in this order whose cumulative
        # probability exceeds its draw, so the order fixes the records
        expected = [("forward_f", 0, -1, False), ("side_s", 0, -1, False)]
        if isinstance(model, BirthDeathLaser):
            expected += [("pump", +1, 0, False), ("gain", -1, +1, True),
                         ("nonlasing", -1, 0, True)]
        H, channels = unraveling(model, CFG, SPEC)
        assert [(ch.label, ch.carrier_delta, ch.quanta_delta, ch.scales_with_carrier)
                for ch in channels] == expected
        # only a coherent drive adds to the drift, and what it adds is Hermitian
        drive = H - dense(build_nonhermitian_H(CFG, SPEC), SPEC.dim)
        assert drive.any() == isinstance(model, CoherentDrive)
        assert np.array_equal(drive, drive.conj().T)


class TestClassicalPaths:
    def test_free_decay_halving(self):
        model = FreeDecayMixture(((2.0, 1.0),))
        t = np.array([0.0, 2 * np.log(2.0)])
        (path,) = classical_paths(model, CouplingConfig(1.0, 0.5, 0.5), t)
        assert abs(path.alphas[-1] - 1.0) < 1e-12

    def test_drive_fixed_point(self):
        model = CoherentDrive(0.75)
        t = np.linspace(0, 5, 11)
        (path,) = classical_paths(model, CFG, t)
        assert np.max(np.abs(path.alphas - steady_amplitude(model, CFG))) < 1e-12

    def test_mixture_count_and_weights(self):
        amps = tuple((0.5 * np.exp(2j * np.pi * k / 5), 0.2) for k in range(5))
        paths = classical_paths(FreeDecayMixture(amps), CFG, np.linspace(0, 1, 5))
        assert len(paths) == 5
        assert all(abs(p.weight - 0.2) < 1e-14 for p in paths)

    def test_birth_death_unsupported(self):
        with pytest.raises(UnsupportedSourceError):
            classical_paths(BirthDeathLaser(1, 1, 1, 1, 1), CFG, np.linspace(0, 1, 3))

    @pytest.mark.parametrize("field, value", [
        ("alphas", np.nan), ("alphas", complex(0.3, np.inf)), ("alphas", -np.inf),
        ("times", np.nan), ("times", np.inf),
    ])
    def test_non_finite_samples_rejected(self, field, value):
        # a NaN amplitude would otherwise run through the separated-target
        # solve and come back as NaN conditional states
        samples = {"times": np.linspace(0.0, 1.0, 4), "alphas": np.full(4, 0.5 + 0.1j)}
        samples[field] = samples[field].astype(complex if field == "alphas" else float)
        samples[field][2] = value
        with pytest.raises(ValueError, match="finite"):
            ClassicalPath(samples["times"], samples["alphas"], weight=1.0)

    def test_nan_weight_rejected(self):
        # a NaN weight would pass the mixture's weight-sum check, whose
        # comparison with NaN is False
        with pytest.raises(ValueError, match="weight"):
            ClassicalPath(np.linspace(0.0, 1.0, 3), np.zeros(3), weight=np.nan)


class TestCoherenceUnderMaster:
    def test_driven_source_stays_coherent(self):
        # decoupled from the target (gamma_Tf = 0), the source remains pure
        # coherent and <a> tracks the classical path
        cfg = CouplingConfig(1.0, 0.0, 0.5)
        spec = FockSpec(20)
        model = CoherentDrive(0.5)
        grid = TimeGrid(0.0, 4.0, 0.01)
        rho0 = DensityOperator(
            product_state(fock_state(0, spec), qubit_state(GROUND)).projector()
        )
        L = build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        states = evolve_master(rho0, L, grid, store_every=50)
        (path,) = classical_paths(model, cfg, grid.times()[::50], alpha0=0.0)
        a = np.diag(np.sqrt(np.arange(1, spec.fock_dim)), k=1)
        for rho, alpha in zip(states, path.alphas):
            rho_S = partial_trace(rho.mat, SOURCE)
            purity = np.trace(rho_S @ rho_S).real
            assert purity > 1 - 1e-8
            assert abs(expectation(rho_S, a) - alpha) < 1e-8


class TestPhaseDampingCrossCheck:
    def test_ring_ensemble_matches_dephasing_master(self):
        # Gaussian phase averaging of coherent projectors = number-basis
        # dephasing exp(-D t (m-n)^2) on top of amplitude decay
        r0, D, gamma_S, t1 = 1.0, 0.3, 1.0, 1.5
        spec = FockSpec(19)
        count = 2000
        t = np.linspace(0.0, t1, 31)
        paths = diffusing_ring(r0, D, gamma_S, t, count=count, seed=21)
        ensemble = np.zeros((spec.fock_dim, spec.fock_dim), dtype=complex)
        for p in paths:
            ensemble += p.weight * coherent_state(p.alphas[-1], spec).projector()

        # band maps of a and n on the Fock factor alone
        a = {1: np.append(np.sqrt(np.arange(1, spec.fock_dim)), 0.0).astype(complex)}
        n_op = {0: np.arange(spec.fock_dim, dtype=complex)}
        terms = (
            [SuperoperatorTerm(a, adjoint(a), gamma_S),
             SuperoperatorTerm(product(adjoint(a), a), None, -gamma_S / 2),
             SuperoperatorTerm(None, product(adjoint(a), a), -gamma_S / 2)]
            + [SuperoperatorTerm(n_op, n_op, 2 * D),
               SuperoperatorTerm(product(n_op, n_op), None, -D),
               SuperoperatorTerm(None, product(n_op, n_op), -D)]
        )
        L = Superoperator(terms, spec.fock_dim)
        rho0 = np.zeros_like(ensemble)
        K = 64
        for k in range(K):
            rho0 += coherent_state(r0 * np.exp(2j * np.pi * k / K), spec).projector() / K
        states = evolve_master(DensityOperator(rho0), L,
                               TimeGrid(0.0, t1, t1 / 300), store_every=300)
        from cascadesim.analysis import trace_distance

        td = trace_distance(DensityOperator(ensemble), states[-1])
        assert td < 3.0 / np.sqrt(count)
