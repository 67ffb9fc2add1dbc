import warnings
from collections import Counter

import numpy as np
import pytest

from cascadesim.analysis import schmidt_entropy, trace_distance
from cascadesim.errors import (
    GridMismatchError,
    InvariantViolationError,
    StepProbabilityError,
)
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    TARGET,
    DensityOperator,
    Operator,
    FockSpec,
    PureState,
    annihilation,
    coherent_state,
    embed,
    fock_state,
    number_operator,
    product_state,
    qubit_lowering,
    qubit_state,
    SOURCE,
)
from cascadesim.liouvillian import (
    CouplingConfig,
    Superoperator,
    apply,
    build_jump_ops,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
)
from cascadesim.sources import (
    BirthDeathLaser,
    CoherentDrive,
    FreeDecayMixture,
    JumpChannel,
    build_L_S,
    source_jump_channels,
)
import cascadesim.evolve as evolve
from cascadesim.evolve import (
    UNIFORM_BLOCK,
    TimeGrid,
    ensemble_average,
    evolve_master,
    expectation,
    mcwf_run,
    run_ensemble,
)

BARE = CouplingConfig(1.0, 0.0, 0.0)  # cavity only, qubit decoupled


def ket(n, q, spec):
    return product_state(fock_state(n, spec), qubit_state(q))


def scalar_mcwf(psi0, config, model, grid, seed, store_every):
    """A literal one-trajectory MCWF loop, independent of the engine.

    First-order drift (1 - i H dt) with renormalization, at most one jump per
    step, and one rng.random() call per step plus one per jump.  Returns the
    events, the stored states and the stored carrier counts.
    """
    spec = FockSpec(psi0.dim // 2 - 1)
    f_op, s_op = build_jump_ops(config, spec)
    H = build_nonhermitian_H(config, spec).mat.copy()
    channels = [JumpChannel("forward_f", operator=f_op.mat),
                JumpChannel("side_s", operator=s_op.mat)]
    damp = np.zeros(psi0.dim)
    carrier = 0
    if isinstance(model, BirthDeathLaser):
        carrier = model.N0
        channels += source_jump_channels(model, config, spec)
        gain = next(ch.operator for ch in channels if ch.label == "gain")
        damp = np.real(np.diag(gain.conj().T @ gain))
    elif isinstance(model, CoherentDrive):
        a = embed(annihilation(spec), SOURCE, spec).mat
        H += 1j * (model.epsilon * a.conj().T - np.conj(model.epsilon) * a)
    rng = np.random.default_rng(seed)
    dt = grid.dt
    psi = psi0.vec / np.linalg.norm(psi0.vec)
    events, states, carriers = [], [psi], [carrier]
    for step in range(grid.n_steps):
        t_next = grid.t0 + (step + 1) * dt
        probs = []
        for ch in channels:
            scale = carrier if ch.scales_with_carrier else 1.0
            if ch.operator is None:
                probs.append(dt * ch.rate * scale)
            else:
                v = ch.operator @ psi
                probs.append(dt * float(np.vdot(v, v).real) * scale)
        p_tot = sum(probs)
        fired = None
        if rng.random() < p_tot:
            r = rng.random() * p_tot
            cum = 0.0
            fired = channels[-1]
            for ch, p in zip(channels, probs):
                cum += p
                if r < cum:
                    fired = ch
                    break
        if fired is not None and fired.operator is not None:
            v = fired.operator @ psi
        else:
            Hpsi = H @ psi - 0.5j * carrier * damp * psi
            v = psi - 1j * dt * Hpsi
        psi = v / np.linalg.norm(v)
        if fired is not None:
            carrier += fired.carrier_delta
            events.append((t_next, fired.label))
        if (step + 1) % store_every == 0:
            states.append(psi)
            carriers.append(carrier)
    return events, np.array(states), np.array(carriers)


class TestTimeGrid:
    def test_steps_and_times(self):
        grid = TimeGrid(0.0, 1.0, 0.25)
        assert grid.n_steps == 4
        assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])

    def test_rejects_nonpositive_dt(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.0)

    def test_rejects_nonintegral_span(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 1.0, 0.3)


class TestMasterEquation:
    def test_zero_generator_is_constant(self, rng):
        from conftest import random_density

        spec = FockSpec(2)
        rho0 = random_density(spec.dim, rng)
        states = evolve_master(rho0, Superoperator([], spec.dim), TimeGrid(0, 1, 0.1))
        for s in states:
            assert np.allclose(s.mat, rho0.mat)

    def test_cavity_decay_oracle(self):
        # starting from |3>, <n>(t) = 3 exp(-gamma_S t) exactly
        spec = FockSpec(5)
        rho0 = DensityOperator(ket(3, GROUND, spec).projector())
        L = build_L_ST(BARE, spec)
        grid = TimeGrid(0.0, 1.0, 0.005)
        states = evolve_master(rho0, L, grid, store_every=20)
        n_op = embed(number_operator(spec), SOURCE, spec).mat
        for t, rho in zip(grid.times()[::20], states):
            assert abs(expectation(rho, n_op) - 3.0 * np.exp(-t)) < 1e-8

    def test_step_error_scales_fourth_order(self):
        spec = FockSpec(5)
        rho0 = DensityOperator(ket(3, GROUND, spec).projector())
        L = build_L_ST(BARE, spec)
        n_op = embed(number_operator(spec), SOURCE, spec).mat
        errs = []
        for dt in (0.08, 0.04):
            rho1 = evolve_master(rho0, L, TimeGrid(0.0, 0.8, dt))[-1]
            errs.append(abs(expectation(rho1, n_op) - 3.0 * np.exp(-0.8)))
        assert errs[0] / errs[1] > 12.0

    def test_matches_literal_rk4(self, rng):
        # the nested step against the four-stage classical RK4 sum
        from conftest import random_density

        spec = FockSpec(3)
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        L = (build_L_S(CoherentDrive(0.5 - 0.2j), spec)
             + build_L_T(cfg, spec) + build_L_ST(cfg, spec))
        rho0 = random_density(spec.dim, rng)
        dt = 0.01
        states = evolve_master(rho0, L, TimeGrid(0.0, 0.2, dt), store_every=5)
        m = rho0.mat.copy()
        expected = [m]
        for step in range(20):
            k1 = apply(L, m)
            k2 = apply(L, m + 0.5 * dt * k1)
            k3 = apply(L, m + 0.5 * dt * k2)
            k4 = apply(L, m + dt * k3)
            m = m + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            if (step + 1) % 5 == 0:
                expected.append(m)
        assert len(states) == len(expected)
        for rho, ref in zip(states, expected):
            assert np.max(np.abs(rho.mat - ref)) <= 1e-14

    def test_invariants_enforced(self):
        # an unnormalized initial state trips the trace check immediately
        from cascadesim.errors import InvariantViolationError

        spec = FockSpec(2)
        bad = DensityOperator(2.0 * ket(0, GROUND, spec).projector())
        with pytest.raises(InvariantViolationError):
            evolve_master(bad, Superoperator([], spec.dim), TimeGrid(0, 0.1, 0.1))


class TestSingleTrajectory:
    @pytest.mark.filterwarnings("ignore:step probability")
    def test_reproducible_given_seed(self):
        spec = FockSpec(4)
        psi0 = ket(2, GROUND, spec)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        grid = TimeGrid(0.0, 2.0, 0.01)
        model = FreeDecayMixture(((0.0, 1.0),))
        r1 = mcwf_run(psi0, cfg, model, grid, seed=7)
        r2 = mcwf_run(psi0, cfg, model, grid, seed=7)
        assert np.array_equal(r1.states, r2.states)
        assert r1.record.events == r2.record.events

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_quanta_bookkeeping(self):
        # frozen birth-death counters: every initial quantum must leave through
        # the forward or side channel, ending in the joint ground state
        spec = FockSpec(4)
        psi0 = ket(3, GROUND, spec)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        model = BirthDeathLaser(0.0, 0.0, 0.0, N0=0, n0=3)
        grid = TimeGrid(0.0, 30.0, 0.01)
        r = mcwf_run(psi0, cfg, model, grid, seed=3, store_every=300)
        n_f = r.record.count("forward_f")
        n_s = r.record.count("side_s")
        assert n_f + n_s == 3
        assert r.record.count("pump") == r.record.count("gain") == 0
        assert np.all(r.carriers == 0)
        assert r.max_span_residual == 0.0
        assert abs(abs(r.states[-1][0]) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_fock_state_emits_every_photon_forward(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        grid = TimeGrid(0.0, 25.0, 0.01)
        model = FreeDecayMixture(((0.0, 1.0),))
        r = mcwf_run(psi0, BARE, model, grid, seed=42, store_every=2500)
        assert r.record.count("forward_f") == 5
        assert r.record.count("side_s") == 0
        assert r.carriers is None

    def test_hard_probability_cap(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        with pytest.raises(StepProbabilityError, match="largest channel: forward_f"):
            mcwf_run(psi0, BARE, model, TimeGrid(0.0, 1.0, 0.05), seed=0)

    def test_soft_probability_warning(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        with pytest.warns(UserWarning, match="step probability"):
            mcwf_run(psi0, BARE, model, TimeGrid(0.0, 0.2, 0.004), seed=0)

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_soft_warning_points_at_caller(self, workers):
        # one warning for the whole run, at the caller's line, also when the
        # trajectories run in worker processes; None is the one-seed mcwf_run
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        grid = TimeGrid(0.0, 0.2, 0.004)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if workers is None:
                mcwf_run(psi0, BARE, model, grid, seed=0)
            else:
                run_ensemble(psi0, BARE, model, grid, range(4), workers=workers)
        soft = [w for w in caught if "step probability" in str(w.message)]
        assert len(soft) == 1
        assert soft[0].filename == __file__
        # the largest step probability of the run: dt * gamma_S * 5 photons
        assert f"step probability {0.004 * 5:.3g} " in str(soft[0].message)

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_forward_count_matches_steady_flux(self):
        # long-run forward click rate == steady-state <f^dag f> from the
        # deterministic master equation (Poisson 3-sigma window)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        spec = FockSpec(16)
        model = CoherentDrive(0.3)
        rho0 = DensityOperator(ket(0, GROUND, spec).projector())
        L = build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        rho_ss = evolve_master(rho0, L, TimeGrid(0, 20, 0.01), store_every=2000)[-1]
        f_op, _ = build_jump_ops(cfg, spec)
        flux = expectation(rho_ss, (f_op.dag() @ f_op).mat).real

        t_burn, t_end = 10.0, 90.0
        r = mcwf_run(ket(0, GROUND, spec), cfg, model, TimeGrid(0.0, t_end, 0.01),
                     seed=17, store_every=9000, diagnostics=False)
        clicks = sum(1 for t, lab in r.record.events
                     if lab == "forward_f" and t > t_burn)
        mean = flux * (t_end - t_burn)
        assert abs(clicks - mean) < 3.0 * np.sqrt(mean)


class TestEngineOracle:
    CFG = CouplingConfig(1.0, 0.5, 0.5)
    SPEC = FockSpec(5)
    CASES = {
        "birth_death": (BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=2),
                        ket(2, GROUND, SPEC), TimeGrid(0.0, 2.0, 0.005)),
        "coherent_drive": (CoherentDrive(0.5),
                           product_state(coherent_state(1.0, SPEC), qubit_state(GROUND)),
                           TimeGrid(0.0, 3.0, 0.01)),
    }

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle(self, case, seed):
        model, psi0, grid = self.CASES[case]
        # long enough to refill every uniform block several times
        assert grid.n_steps > 5 * UNIFORM_BLOCK
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=20)
        r = mcwf_run(psi0, self.CFG, model, grid, seed=seed, store_every=20)
        assert len(events) > 0
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        if r.carriers is not None:
            assert np.array_equal(r.carriers, carriers)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle_at_large_step_probability(self, seed):
        # birth-death with pump and non-lasing loss: the step probability
        # stays between 0.02 and 0.08, so a jump happens every few dozen
        # steps and the channel choice runs many times per seed
        model = BirthDeathLaser(1.0, 0.3, 1.0, N0=1, n0=1)
        psi0 = ket(1, GROUND, self.SPEC)
        grid = TimeGrid(0.0, 10.0, 0.01)
        assert grid.n_steps >= 300
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            r = mcwf_run(psi0, self.CFG, model, grid, seed=seed, store_every=20)
        (soft,) = [w for w in caught if "step probability" in str(w.message)]
        largest = float(str(soft.message).split()[2])
        assert 0.02 < largest < 0.08
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=20)
        labels = Counter(lab for _, lab in events)
        assert len(events) >= 10 and len(labels) >= 3
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        assert np.array_equal(r.carriers, carriers)

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_seed_alone_matches_batch(self):
        model, psi0, grid = self.CASES["birth_death"]
        batch = run_ensemble(psi0, self.CFG, model, grid, range(60), store_every=100)
        assert sum(len(r.events) for r in batch.records) > 60
        for seed in (0, 31, 59):
            alone = run_ensemble(psi0, self.CFG, model, grid, [seed], store_every=100)
            assert alone.records[0].events == batch.records[seed].events

    def test_empty_seed_list_rejected(self):
        model, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(ValueError, match="seed"):
            run_ensemble(psi0, self.CFG, model, grid, [])

    @pytest.mark.parametrize("rate", ["pump_rate", "gain_per_carrier", "nonlasing_rate"])
    def test_non_finite_step_probability_is_invariant_violation(self, rate):
        # bypasses the model's own validation to reach the engine's guard
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=2)
        object.__setattr__(model, rate, float("nan"))
        _, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(InvariantViolationError, match="non-finite step probability"):
            mcwf_run(psi0, self.CFG, model, grid, seed=0)

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_drift_is_invariant_violation(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        object.__setattr__(cfg, "delta", float("inf"))
        model, psi0, grid = self.CASES["coherent_drive"]
        with pytest.raises(InvariantViolationError, match="non-finite drift"):
            run_ensemble(psi0, cfg, model, grid, range(3))


class TestDriftIdentity:
    """The engine reads the forward and side channels' summed jump
    probability off the drift: i (H - H^dag) = f^dag f + s^dag s."""

    SPEC = FockSpec(6)
    CASES = {
        "coherent_drive": (CouplingConfig(1.0, 0.5, 0.5), CoherentDrive(0.3 - 0.2j)),
        "free_decay": (CouplingConfig(1.0, 0.5, 0.5), FreeDecayMixture(((1.0, 1.0),))),
        "birth_death": (CouplingConfig(1.0, 0.5, 0.5),
                        BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)),
        "detuned": (CouplingConfig(0.7, 0.4, 0.2, delta=1.3), FreeDecayMixture(((1.0, 1.0),))),
        "no_side_channel": (CouplingConfig(1.0, 0.8, 0.0), CoherentDrive(0.5)),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_identity(self, case):
        cfg, model = self.CASES[case]
        H = build_nonhermitian_H(cfg, self.SPEC).mat
        if isinstance(model, CoherentDrive):
            # the drive is Hermitian, so it leaves the identity alone
            a = embed(annihilation(self.SPEC), SOURCE, self.SPEC).mat
            H = H + 1j * (model.epsilon * a.conj().T - np.conj(model.epsilon) * a)
        f, s = build_jump_ops(cfg, self.SPEC)
        decay = (f.dag() @ f).mat + (s.dag() @ s).mat
        assert np.max(np.abs(1j * (H - H.conj().T) - decay)) < 1e-14
        # and the engine's own set-up check accepts it
        psi0 = ket(1, GROUND, self.SPEC)
        mcwf_run(psi0, cfg, model, TimeGrid(0.0, 0.05, 0.001), seed=0)

    @staticmethod
    def without_gamma_T(config, spec):
        """build_nonhermitian_H with its -(i/2) gamma_T b^dag b term left out."""
        b = embed(qubit_lowering(), TARGET, spec).mat
        H = build_nonhermitian_H(config, spec).mat
        return Operator(H + 0.5j * config.gamma_T * (b.conj().T @ b))

    def test_broken_drift_is_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(evolve, "build_nonhermitian_H", self.without_gamma_T)
        cfg, model = self.CASES["coherent_drive"]
        with pytest.raises(InvariantViolationError, match="does not match the jump operators"):
            mcwf_run(ket(1, GROUND, self.SPEC), cfg, model, TimeGrid(0.0, 0.1, 0.01), seed=0)

    def test_broken_drift_exits_3(self, monkeypatch, tmp_path, capsys):
        import json
        from importlib import resources

        from cascadesim.cli import main

        monkeypatch.setattr(evolve, "build_nonhermitian_H", self.without_gamma_T)
        with resources.files("cascadesim.presets").joinpath("coherent_drive.json").open() as f:
            doc = json.load(f)
        doc["seeds"] = {"start": 0, "count": 2}
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run-trajectories", str(path)]) == 3
        assert "does not match the jump operators" in capsys.readouterr().err


class TestDiagnostics:
    """The engine's per-step diagnostics against their definitions, evaluated
    on the states mcwf_run stores at every step."""

    CASES = {
        # an entangling start for the coherent drive; a start outside the
        # predicted sector for the birth-death source
        "coherent": (CoherentDrive(0.4 - 0.2j), lambda spec: ket(2, EXCITED, spec)),
        "birth_death": (BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1),
                        lambda spec: product_state(coherent_state(0.8, spec, warn=False),
                                                   qubit_state(GROUND))),
    }

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_match_stored_states(self, case):
        model, start = self.CASES[case]
        spec = FockSpec(8)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        dt = 0.005
        r = mcwf_run(start(spec), cfg, model, TimeGrid(0.0, 2.0, dt), seed=11)
        assert r.record.events
        entropies = [schmidt_entropy(PureState(v)) for v in r.states]
        assert max(entropies) > 0.1
        assert abs(r.max_schmidt_entropy - max(entropies)) <= 1e-12
        if case != "birth_death":
            assert r.max_span_residual is None
            return
        # predicted photon number n after each step, from the record; the
        # sector of n holds |n, ground> (column 2n) and |n-1, excited> (2n - 1)
        n = np.full(len(r.times), model.n0)
        for t, label in r.record.events:
            n[int(round(t / dt)):] += evolve.N_DELTA[label]
        residuals = [
            np.sqrt(sum(abs(v[c]) ** 2 for c in range(spec.dim) if c not in (2 * k - 1, 2 * k)))
            for v, k in zip(r.states, n)
        ]
        assert max(residuals) > 0.1
        assert abs(r.max_span_residual - max(residuals)) <= 1e-12


class TestEnsemble:
    CFG = CouplingConfig(1.0, 0.5, 0.5)

    def test_average_requires_common_grid(self):
        spec = FockSpec(3)
        psi0 = ket(1, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        r1 = mcwf_run(psi0, self.CFG, model, TimeGrid(0, 1, 0.01), seed=0)
        r2 = mcwf_run(psi0, self.CFG, model, TimeGrid(0, 2, 0.01), seed=1)
        with pytest.raises(GridMismatchError):
            ensemble_average([r1, r2])

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_run_ensemble_matches_scalar_loop(self):
        spec = FockSpec(5)
        psi0 = ket(2, GROUND, spec)
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=2)
        grid = TimeGrid(0.0, 1.0, 0.005)
        seeds = list(range(8))
        ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=20)
        singles = [mcwf_run(psi0, self.CFG, model, grid, seed=s, store_every=20)
                   for s in seeds]
        avg = ensemble_average(singles)
        for a, b in zip(ens.rho_avg, avg):
            assert np.max(np.abs(a.mat - b.mat)) < 1e-13
        for rec, single in zip(ens.records, singles):
            assert rec.events == single.record.events
        for e, s in zip(ens.max_schmidt_entropies, singles):
            assert abs(e - s.max_schmidt_entropy) < 1e-12

    def test_worker_count_does_not_change_result(self):
        spec = FockSpec(4)
        psi0 = ket(1, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        grid = TimeGrid(0.0, 0.5, 0.01)
        seeds = list(range(6))
        one = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=10, workers=1)
        two = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=10, workers=2)
        for a, b in zip(one.rho_avg, two.rho_avg):
            # reduction regrouping may differ at rounding level only
            assert np.max(np.abs(a.mat - b.mat)) < 1e-14
        assert [r.events for r in one.records] == [r.events for r in two.records]

        # an unsorted seed list on three workers, which deal out seeds[i::3]:
        # every per-seed result comes back in the order of the seed list
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        grid = TimeGrid(0.0, 0.5, 0.001)
        seeds = [5, 2, 9, 0, 7]
        one = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50, workers=1)
        three = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50, workers=3)
        for ens in (one, three):
            assert [r.seed for r in ens.records] == seeds
        assert [r.events for r in three.records] == [r.events for r in one.records]
        # distinct per seed, so that the order shows
        assert len({len(r.events) for r in one.records}) > 1
        assert len(set(one.max_schmidt_entropies)) == len(seeds)
        for field in ("max_schmidt_entropies", "max_span_residuals"):
            a, b = getattr(one, field), getattr(three, field)
            assert np.max(np.abs(np.subtract(a, b))) <= 1e-12

    def test_ensemble_converges_to_master(self):
        # driven cavity + qubit: 300-trajectory average vs deterministic
        # solution, statistical tolerance 5/sqrt(M)
        cfg = self.CFG
        spec = FockSpec(8)
        model = CoherentDrive(0.3)
        grid = TimeGrid(0.0, 2.0, 0.01)
        psi0 = ket(0, GROUND, spec)
        M = 300
        ens = run_ensemble(psi0, cfg, model, grid, range(M), store_every=50,
                           diagnostics=False)
        L = build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        exact = evolve_master(DensityOperator(psi0.projector()), L, grid, store_every=50)
        for a, b in zip(ens.rho_avg, exact):
            assert trace_distance(a, b) < 5.0 / np.sqrt(M)
