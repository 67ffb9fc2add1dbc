import hashlib
import math
import os
import re
import time
import tracemalloc
import warnings
from collections import Counter
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cascadesim.acceptance import load_preset, replay_records, sector_residuals
from cascadesim.analysis import schmidt_entropy, support_pattern_check, trace_distance
from cascadesim.errors import (
    DimensionMismatchError,
    InvariantViolationError,
    StepProbabilityError,
    TruncationWarning,
)
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    DensityOperator,
    FockSpec,
    PureState,
    check_states,
    coherent_state,
    fock_state,
    product_state,
    qubit_state,
    total_quanta,
)
from cascadesim.liouvillian import (
    BLOCK_TOL,
    CouplingConfig,
    Superoperator,
    SuperoperatorTerm,
    adjoint,
    apply,
    block_gather,
    build_jump_ops,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
    combine,
    dense,
    dissipator_terms,
    gather,
    ladders,
    product,
    scaled,
)
from cascadesim.sources import (
    BirthDeathLaser,
    CoherentDrive,
    FreeDecayMixture,
    build_L_S,
    source_jump_channels,
    unraveling,
)
import cascadesim.evolve as evolve
import cascadesim.sources as sources
# not "streams": TestStreams has a local variable of that name
import cascadesim.streams as streams_mod
from cascadesim.evolve import (
    MASTER_TOLS,
    RENORMALIZE_EVERY,
    STORE_BLOCK,
    TimeGrid,
    check_seeds,
    evolve_master,
    expectation,
    run_ensemble,
    sector_amplitudes,
    workers_from_env,
)
from cascadesim.streams import UNIFORM_BLOCK, UniformRing, seed_words

BARE = CouplingConfig(1.0, 0.0, 0.0)  # cavity only, qubit decoupled


def ket(n, q, spec):
    return product_state(fock_state(n, spec), qubit_state(q))


def ensemble_average(results: list) -> list:
    """Mean projector over trajectories at each stored time."""
    if not results:
        raise ValueError("need at least one trajectory")
    ref = results[0].times
    for r in results:
        if r.times.shape != ref.shape or not np.allclose(r.times, ref):
            raise ValueError("trajectories stored on different time grids")
    dim = results[0].states.shape[1]
    out = []
    for i in range(len(ref)):
        acc = np.zeros((dim, dim), dtype=complex)
        for r in results:
            v = r.states[i]
            acc += np.outer(v, v.conj())
        out.append(DensityOperator(acc / len(results)))
    return out


def scalar_mcwf(psi0, config, model, grid, seed, store_every):
    """A literal one-trajectory MCWF loop, independent of the engine.

    First-order drift (1 - i H dt) with renormalization, at most one jump per
    step, and one rng.random() call per step plus one per jump.  Returns the
    events, the stored states and the stored carrier counts.
    """
    spec = FockSpec(psi0.dim // 2 - 1)
    H, channels = unraveling(model, config, spec)
    damp = np.zeros(psi0.dim)
    carrier = 0
    if isinstance(model, BirthDeathLaser):
        carrier = model.N0
        gain = next(ch.operator for ch in channels if ch.label == "gain")
        damp = np.real(np.diag(gain.conj().T @ gain))
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


def one_trajectory(psi0, config, model, grid, seed, store_every=1, diagnostics=True):
    """One seed's engine call with a store callback that keeps what
    run_ensemble averages away: its record, the stored times, the
    (n_stored, d) normalized states, the (n_stored,) carrier counts (None
    but for birth-death) and the largest Schmidt entropy.  It warns of
    nothing; the warnings are run_ensemble's."""
    times = grid.stored_times(store_every)
    states = np.empty((len(times), psi0.dim), dtype=complex)
    carriers = np.empty(len(times), dtype=int)

    def store(i, parts):
        (psi, carrier), = parts
        states[i], carriers[i] = psi[0], carrier[0]

    (record,), (entropy,), *_ = evolve._ensemble_chunk(
        psi0.vec, config, model, grid, store_every, diagnostics, store, [seed])
    return SimpleNamespace(
        record=record, times=times, states=states,
        carriers=carriers if isinstance(model, BirthDeathLaser) else None,
        max_schmidt_entropy=entropy)


def predicted_sectors(record, model, times):
    """The quanta sector n that the record predicts at each of times."""
    shift = {"forward_f": -1, "side_s": -1, "gain": +1, "pump": 0, "nonlasing": 0}
    n = np.full(len(times), model.n0)
    for t, label in record.events:
        n[times >= t - 1e-9] += shift[label]
    return n


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

    @pytest.mark.parametrize("t0, t1, dt", [(0.0, math.inf, 0.1), (math.nan, 1.0, 0.1),
                                            (0.0, 1.0, math.inf)])
    def test_rejects_non_finite_times(self, t0, t1, dt):
        with pytest.raises(ValueError, match="grid times must be finite"):
            TimeGrid(t0, t1, dt)

    @pytest.mark.parametrize("t0, t1, dt", [(0.0, 1e300, 1e-300), (-1e308, 1e308, 1.0)])
    def test_rejects_overflowing_step_count(self, t0, t1, dt):
        # finite times whose step count overflows to inf
        with pytest.raises(ValueError, match="is not finite"):
            TimeGrid(t0, t1, dt)

    @pytest.mark.parametrize("store_every", [0, -2, 7, 2.0, True])
    def test_stored_times_reject_bad_store_every(self, store_every):
        with pytest.raises(ValueError, match="store_every"):
            TimeGrid(0.0, 6.0, 0.01).stored_times(store_every)


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
        n_op = dense({0: np.arange(spec.dim) // 2}, spec.dim)
        for t, rho in zip(grid.times()[::20], states):
            assert abs(expectation(rho.mat, n_op) - 3.0 * np.exp(-t)) < 1e-8

    def test_step_error_scales_fourth_order(self):
        spec = FockSpec(5)
        rho0 = DensityOperator(ket(3, GROUND, spec).projector())
        L = build_L_ST(BARE, spec)
        n_op = dense({0: np.arange(spec.dim) // 2}, spec.dim)
        errs = []
        for dt in (0.08, 0.04):
            rho1 = evolve_master(rho0, L, TimeGrid(0.0, 0.8, dt))[-1]
            errs.append(abs(expectation(rho1.mat, n_op) - 3.0 * np.exp(-0.8)))
        assert errs[0] / errs[1] > 12.0

    def test_expectation_rejects_operator_of_another_shape(self, rng):
        from conftest import random_density

        with pytest.raises(DimensionMismatchError, match="shapes"):
            expectation(random_density(4, rng).mat, np.eye(6))

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

    def test_observer_receives_the_stored_states(self, rng):
        from conftest import random_density

        spec = FockSpec(3)
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        L = (build_L_S(CoherentDrive(0.5 - 0.2j), spec)
             + build_L_T(cfg, spec) + build_L_ST(cfg, spec))
        rho0 = random_density(spec.dim, rng)
        grid = TimeGrid(0.0, 0.2, 0.01)
        seen = []
        assert evolve_master(rho0, L, grid, store_every=5,
                             observe=lambda times, stack: seen.extend(stack)) is None
        states = evolve_master(rho0, L, grid, store_every=5)
        assert len(seen) == len(states) == 5
        for a, b in zip(seen, states):
            assert np.array_equal(a, b.mat)
        # no two observed states share memory
        assert not any(np.shares_memory(a, b) for i, a in enumerate(seen) for b in seen[:i])

    def test_invariants_enforced(self):
        # an unnormalized initial state trips the trace check immediately
        from cascadesim.errors import InvariantViolationError

        spec = FockSpec(2)
        bad = DensityOperator(2.0 * ket(0, GROUND, spec).projector())
        with pytest.raises(InvariantViolationError):
            evolve_master(bad, Superoperator([], spec.dim), TimeGrid(0, 0.1, 0.1))


def nested_rk4(rho0, L, grid, store_every):
    """The stored states of the nested RK4 step on every entry, through apply."""
    m = np.array(rho0.mat, dtype=complex)
    out = [m.copy()]
    dt = grid.dt
    for step in range(grid.n_steps):
        k = apply(L, m)
        for c in (dt / 4.0, dt / 3.0, dt / 2.0):
            k = apply(L, m + c * k)
        m = m + dt * k
        if (step + 1) % store_every == 0:
            out.append(m.copy())
    return out


def excitation_difference(dim):
    """k = N_row - N_col of every entry, N = n + q of basis index 2n + q."""
    N = np.arange(dim) // 2 + np.arange(dim) % 2
    return N[:, None] - N[None, :]


class TestCoherenceBlocks:
    CFG = CouplingConfig(1.0, 0.6, 0.4, delta=0.3)
    GRID = TimeGrid(0.0, 0.4, 0.01)

    def undriven(self, spec):
        return build_L_T(self.CFG, spec) + build_L_ST(self.CFG, spec)

    def test_ring_keeps_its_blocks_bit_for_bit(self):
        # 8 coherent amplitudes on a ring occupy k = 0 mod 8; every other
        # block of rho0 holds rounding residue only
        spec = FockSpec(12)
        g = qubit_state(GROUND).projector()
        rho0 = sum(np.kron(coherent_state(1.5 * np.exp(2j * np.pi * j / 8), spec).projector(), g)
                   for j in range(8)) / 8
        on_ring = excitation_difference(spec.dim) % 8 == 0
        top = np.abs(rho0).max()
        assert np.abs(rho0[~on_ring]).max() > 0.0
        assert np.abs(rho0[~on_ring]).max() <= BLOCK_TOL * top

        L = self.undriven(spec)
        states = evolve_master(DensityOperator(rho0), L, self.GRID, store_every=10)
        reference = nested_rk4(DensityOperator(rho0), L, self.GRID, 10)
        assert len(states) == len(reference) == 5
        assert np.array_equal(states[0].mat, rho0)
        for rho, ref in zip(states[1:], reference[1:]):
            assert np.array_equal(rho.mat[on_ring], ref[on_ring])
            assert not rho.mat[~on_ring].any()
            assert np.abs(ref[~on_ring]).max() <= BLOCK_TOL * top

    def test_fock_decay_is_byte_identical(self):
        spec = FockSpec(6)
        rho0 = DensityOperator(ket(4, EXCITED, spec).projector())
        L = self.undriven(spec)
        keep, _, _ = block_gather(L, rho0.mat)
        assert len(keep) < spec.dim ** 2
        states = evolve_master(rho0, L, self.GRID, store_every=5)
        reference = nested_rk4(rho0, L, self.GRID, 5)
        assert [rho.mat.tobytes() for rho in states] == [m.tobytes() for m in reference]

    def test_drive_keeps_every_entry(self, monkeypatch):
        spec = FockSpec(6)
        rho0 = DensityOperator(ket(2, GROUND, spec).projector())
        L = build_L_S(CoherentDrive(0.4 - 0.1j), spec) + self.undriven(spec)
        assert block_gather(L, rho0.mat) is None
        # every entry is advanced through gather on the compiled form, four
        # calls a step
        calls = []
        monkeypatch.setattr(evolve, "gather", lambda *args: calls.append(1) or gather(*args))
        states = evolve_master(rho0, L, self.GRID, store_every=5)
        assert len(calls) == 4 * self.GRID.n_steps
        reference = nested_rk4(rho0, L, self.GRID, 5)
        assert [rho.mat.tobytes() for rho in states] == [m.tobytes() for m in reference]

    def test_full_state_keeps_the_compiled_form(self, monkeypatch):
        # a coherent source and a qubit superposition fill every k-block, so
        # the full form runs, on every entry, with no remap
        spec = FockSpec(25)
        qubit = PureState(np.array([1.0, 1.0j]) / np.sqrt(2.0))
        rho0 = DensityOperator(product_state(coherent_state(1.2, spec), qubit).projector())
        L = self.undriven(spec)
        assert block_gather(L, rho0.mat) is None
        index, weight = L.compiled
        calls = []

        def spy(*args):
            calls.append(args[0] is index and args[1] is weight)
            return gather(*args)
        monkeypatch.setattr(evolve, "gather", spy)
        states = evolve_master(rho0, L, self.GRID, store_every=10)
        assert calls == [True] * 4 * self.GRID.n_steps
        reference = nested_rk4(rho0, L, self.GRID, 10)
        assert [rho.mat.tobytes() for rho in states] == [m.tobytes() for m in reference]
        # the qubit's ground state alone leaves the two one-entry blocks
        # |0, g><n_max, e| and its adjoint empty
        ground = DensityOperator(product_state(coherent_state(1.2, spec),
                                               qubit_state(GROUND)).projector())
        keep, _, _ = block_gather(L, ground.mat)
        assert len(keep) == spec.dim ** 2 - 2

    def test_small_genuine_coherence_is_kept(self):
        spec = FockSpec(4)
        g0, g1 = ket(0, GROUND, spec).vec, ket(1, GROUND, spec).vec
        c = 0.5e-10
        rho0 = (0.5 * np.outer(g0, g0) + 0.5 * np.outer(g1, g1)
                + c * (np.outer(g0, g1) + np.outer(g1, g0)))
        L = self.undriven(spec)
        states = evolve_master(DensityOperator(rho0), L, self.GRID, store_every=10)
        reference = nested_rk4(DensityOperator(rho0), L, self.GRID, 10)
        for rho, ref in zip(states, reference):
            assert g0 @ rho.mat @ g1 != 0.0
            assert np.array_equal(rho.mat, ref)

    TARGET_RATE = st.one_of(st.just(0.0), st.floats(0.0, 1.5))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data(), n_max=st.integers(2, 6), above=st.booleans(),
           gamma_S=st.floats(0.1, 2.0), gamma_Tf=TARGET_RATE, gamma_Ts=TARGET_RATE,
           delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)), seed=st.integers(0, 2**32 - 1))
    def test_drawn_blocks_match_nested_rk4(self, data, n_max, above, gamma_S, gamma_Tf,
                                          gamma_Ts, delta, seed):
        # rho0 mixes a diagonal state with two pure states, each on one or two
        # quanta sectors, so it occupies k = 0 and at most two pairs +-k; one
        # empty block then gets a residue just above or just below BLOCK_TOL
        spec = FockSpec(n_max)
        N = (np.arange(spec.dim) + 1) // 2
        kdiff = excitation_difference(spec.dim)
        rng = np.random.default_rng(seed)
        rho0 = np.diag(rng.uniform(0.1, 1.0, spec.dim)).astype(complex)
        occupied = {0}
        for _ in range(2):
            sectors = data.draw(st.lists(st.integers(0, N[-1]), min_size=1, max_size=2,
                                         unique=True))
            psi = rng.normal(size=spec.dim) + 1j * rng.normal(size=spec.dim)
            psi[~np.isin(N, sectors)] = 0.0
            rho0 += np.outer(psi, psi.conj())
            occupied |= {abs(sectors[0] - sectors[-1])}
        rho0 /= np.trace(rho0)
        k0 = data.draw(st.sampled_from(sorted(set(range(1, N[-1] + 1)) - occupied)))
        i, j = data.draw(st.sampled_from(np.argwhere(kdiff == k0).tolist()))
        residue = BLOCK_TOL * np.abs(rho0).max() * (1.0 + 1e-6 if above else 1.0 - 1e-6)
        rho0[i, j] = residue * data.draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
        rho0[j, i] = np.conj(rho0[i, j])
        kept = np.isin(np.abs(kdiff), sorted(occupied | ({k0} if above else set())))

        cfg = CouplingConfig(gamma_S, gamma_Tf, gamma_Ts, delta)
        L = build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        blocks = block_gather(L, rho0)
        assert blocks is None if kept.all() else np.array_equal(blocks[0], np.flatnonzero(kept))
        # a step well inside the RK4 stability region of the largest rate
        rate = cfg.gamma_S * n_max + cfg.gamma_T + abs(delta)
        dt = data.draw(st.floats(0.1, 1.0)) * 0.1 / rate
        grid = TimeGrid(0.0, 12 * dt, dt)
        states = evolve_master(DensityOperator(rho0), L, grid, store_every=4)
        reference = nested_rk4(DensityOperator(rho0), L, grid, 4)
        assert len(states) == len(reference) == 4
        assert np.array_equal(states[0].mat, rho0)
        for rho, ref in zip(states[1:], reference[1:]):
            assert np.array_equal(rho.mat[kept], ref[kept])
            assert not rho.mat[~kept].any()

    @pytest.mark.parametrize("fill", [0.0, np.nan])
    def test_bad_rho0_raises_before_it_is_observed(self, fill):

        spec = FockSpec(3)
        rho0 = DensityOperator(np.full((spec.dim, spec.dim), fill, dtype=complex))
        seen = []
        with pytest.raises(InvariantViolationError, match="t=0:"):
            evolve_master(rho0, self.undriven(spec), self.GRID,
                          observe=lambda *block: seen.append(block))
        assert seen == []


class TestStoredStateChecks:
    """evolve_master checks its stored states STORE_BLOCK at a time, yet fails
    as a check of each state in turn would."""
    DT = 0.01
    STORED = 20  # stored states after rho0: two full blocks and a part

    def drifting(self, kind, spec, rate):
        """A generator whose trace (L = rate * identity) or smallest eigenvalue
        (the reversed cavity decay -rate D[a], from |1><1|) drifts like rate * t."""
        if kind == "trace":
            return Superoperator([SuperoperatorTerm(None, None, rate)], spec.dim)
        a, _ = ladders(spec)
        return Superoperator(dissipator_terms(a, rate=-rate), spec.dim)

    @pytest.mark.parametrize("kind", ["trace", "negativity"])
    @pytest.mark.parametrize("store_every", [1, 3])
    @pytest.mark.parametrize("where", [STORE_BLOCK + 1, STORE_BLOCK + STORE_BLOCK // 2,
                                       2 * STORE_BLOCK, STORED])
    def test_mid_run_failure_is_raised_at_its_own_time(self, monkeypatch, kind, store_every,
                                                        where):
        # block start, middle and end, and the final stored time
        spec = FockSpec(3)
        rho0 = DensityOperator(ket(1, GROUND, spec).projector())
        grid = TimeGrid(0.0, self.STORED * store_every * self.DT, self.DT)
        # the drift crosses 1e-8 halfway between stored states where - 1 and where
        L = self.drifting(kind, spec, 1e-8 / ((where - 0.5) * store_every * self.DT))
        reference = nested_rk4(rho0, L, grid, store_every)
        first_bad = next(i for i, m in enumerate(reference) if check_failure(m))
        assert first_bad == where
        seen, failure, steps = self.run_to_failure(monkeypatch, rho0, L, grid, store_every)
        t = grid.stored_times(store_every)[where]
        assert failure == (f"master integration failed at t={t:.6g}: "
                           f"{check_failure(reference[where])}")
        assert len(seen) == where
        for rho, ref in zip(seen, reference):
            assert np.array_equal(rho, ref)
        # a trace failure stops the run at once; the others are found when
        # their block is full
        block_end = min(-(-where // STORE_BLOCK) * STORE_BLOCK, self.STORED)
        assert steps == (where if kind == "trace" else block_end) * store_every

    @pytest.mark.parametrize("store_every", [1, 3])
    def test_non_finite_state_stops_the_run(self, monkeypatch, store_every):
        # a NaN generator makes the first stored state NaN with no warning;
        # stepping on from it is never tried
        spec = FockSpec(3)
        rho0 = DensityOperator(ket(1, GROUND, spec).projector())
        L = Superoperator([SuperoperatorTerm(None, None, np.nan)], spec.dim)
        grid = TimeGrid(0.0, self.STORED * store_every * self.DT, self.DT)
        seen, failure, steps = self.run_to_failure(monkeypatch, rho0, L, grid, store_every)
        t = grid.stored_times(store_every)[1]
        assert failure == (f"master integration failed at t={t:.6g}: "
                           "non-finite entry in the density matrix")
        assert len(seen) == 1 and steps == store_every

    @staticmethod
    def run_to_failure(monkeypatch, rho0, L, grid, store_every):
        """(observed states, each a (d, d) array, failure message, RK4 steps
        taken) of a run that must fail with no RuntimeWarning."""
        calls = []
        monkeypatch.setattr(evolve, "gather", lambda *args: calls.append(1) or gather(*args))
        seen = []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(InvariantViolationError) as failure:
                evolve_master(rho0, L, grid, store_every=store_every,
                              observe=lambda times, stack: seen.extend(stack))
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        return seen, str(failure.value), len(calls) // 4

    @pytest.mark.parametrize("store_every", [1, 7])
    def test_driven_states_match_nested_rk4_bit_for_bit(self, store_every):
        spec = FockSpec(6)
        cfg = CouplingConfig(1.0, 0.6, 0.4, delta=0.3)
        L = (build_L_S(CoherentDrive(0.4 - 0.1j), spec)
             + build_L_T(cfg, spec) + build_L_ST(cfg, spec))
        rho0 = DensityOperator(product_state(coherent_state(0.5, spec), qubit_state(GROUND))
                               .projector())
        assert block_gather(L, rho0.mat) is None
        # 63 steps: at store_every 1 seven full blocks and a part, at 7 one and a part
        grid = TimeGrid(0.0, 0.63, 0.01)
        states = evolve_master(rho0, L, grid, store_every=store_every)
        reference = nested_rk4(rho0, L, grid, store_every)
        assert len(states) == len(reference) == 63 // store_every + 1
        for rho, ref in zip(states, reference):
            assert np.array_equal(rho.mat, ref)


def check_failure(m):
    """The message of a one-state check at evolve_master's tolerances, or None."""
    failure = check_states(m[None], **MASTER_TOLS)
    return None if failure is None else failure[1]


class TestSingleTrajectory:
    @pytest.mark.filterwarnings("ignore:step probability")
    def test_reproducible_given_seed(self):
        spec = FockSpec(4)
        psi0 = ket(2, GROUND, spec)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        grid = TimeGrid(0.0, 2.0, 0.01)
        model = FreeDecayMixture(((0.0, 1.0),))
        r1 = one_trajectory(psi0, cfg, model, grid, seed=7)
        r2 = one_trajectory(psi0, cfg, model, grid, seed=7)
        assert np.array_equal(r1.states, r2.states)
        assert r1.record.events == r2.record.events

    def test_first_state_is_normalized_once(self):
        spec = FockSpec(3)
        psi0 = product_state(coherent_state(0.7, spec), qubit_state(GROUND))
        r = one_trajectory(psi0, BARE, FreeDecayMixture(((0.0, 1.0),)),
                           TimeGrid(0.0, 0.1, 0.01), seed=0)
        assert np.array_equal(r.states[0], psi0.vec / np.linalg.norm(psi0.vec))

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_quanta_bookkeeping(self):
        # frozen birth-death counters: every initial quantum must leave through
        # the forward or side channel, ending in the joint ground state
        spec = FockSpec(4)
        psi0 = ket(3, GROUND, spec)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        model = BirthDeathLaser(0.0, 0.0, 0.0, N0=0, n0=3)
        grid = TimeGrid(0.0, 30.0, 0.01)
        r = one_trajectory(psi0, cfg, model, grid, seed=3, store_every=300)
        n_f = r.record.count("forward_f")
        n_s = r.record.count("side_s")
        assert n_f + n_s == 3
        assert r.record.count("pump") == r.record.count("gain") == 0
        assert np.all(r.carriers == 0)
        assert abs(abs(r.states[-1][0]) - 1.0) < 1e-12

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_fock_state_emits_every_photon_forward(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        grid = TimeGrid(0.0, 25.0, 0.01)
        model = FreeDecayMixture(((0.0, 1.0),))
        r = one_trajectory(psi0, BARE, model, grid, seed=42, store_every=2500)
        assert r.record.count("forward_f") == 5
        assert r.record.count("side_s") == 0
        assert r.carriers is None

    def test_hard_probability_cap(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        with pytest.raises(StepProbabilityError, match="largest channel: forward_f"):
            run_ensemble(psi0, BARE, model, TimeGrid(0.0, 1.0, 0.05), [0])

    def test_soft_probability_warning(self):
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        with pytest.warns(UserWarning, match="step probability"):
            run_ensemble(psi0, BARE, model, TimeGrid(0.0, 0.2, 0.004), [0])

    @pytest.mark.parametrize("workers", [None, 1, 2])
    def test_soft_warning_points_at_caller(self, monkeypatch, workers):
        # one warning for the whole run, at the caller's line, also when the
        # trajectories run in worker processes; None is a one-seed run
        spec = FockSpec(6)
        psi0 = ket(5, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        grid = TimeGrid(0.0, 0.2, 0.004)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if workers is None:
                run_ensemble(psi0, BARE, model, grid, [0])
            else:
                monkeypatch.setenv("CASCADESIM_WORKERS", str(workers))
                run_ensemble(psi0, BARE, model, grid, range(4))
        soft = [w for w in caught if "step probability" in str(w.message)]
        assert len(soft) == 1
        assert soft[0].filename == __file__
        # the largest step probability of the run: dt * gamma_S * 5 photons
        assert f"step probability {0.004 * 5:.3g} " in str(soft[0].message)

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_kept_states_build_no_projector_sum(self):
        # the engine hands its store callback states, so a caller that keeps
        # one trajectory's 601 x 26 complex states (0.25 MB) pays for no
        # (601, 26, 26) projector sum, which would take 6.5 MB more
        spec = FockSpec(12)
        psi0 = product_state(coherent_state(0.6, spec), qubit_state(GROUND))
        tracemalloc.start()
        try:
            r = one_trajectory(psi0, CouplingConfig(1.0, 0.5, 0.5), CoherentDrive(0.3),
                               TimeGrid(0.0, 6.0, 0.01), seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.states.shape == (601, spec.dim)
        assert peak < 2e6

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
        f_op = dense(build_jump_ops(cfg, spec)[0], spec.dim)
        flux = expectation(rho_ss.mat, f_op.conj().T @ f_op).real

        t_burn, t_end = 10.0, 90.0
        (record,) = run_ensemble(ket(0, GROUND, spec), cfg, model, TimeGrid(0.0, t_end, 0.01),
                                 [17], store_every=9000, diagnostics=False).records
        clicks = sum(1 for t, lab in record.events
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
                           TimeGrid(0.0, 4.0, 0.01)),
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
        r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=20)
        assert len(events) > 0
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        if r.carriers is not None:
            assert np.array_equal(r.carriers, carriers)

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle_between_renormalizations(self, case, seed):
        # no diagnostics and one store at the end: the rows that do not jump
        # go unnormalized for RENORMALIZE_EVERY steps at a time
        model, psi0, grid = self.CASES[case]
        assert grid.n_steps > RENORMALIZE_EVERY
        assert grid.n_steps % RENORMALIZE_EVERY
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=grid.n_steps)
        r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=grid.n_steps,
                           diagnostics=False)
        assert len(events) > 0
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        if r.carriers is not None:
            assert np.array_equal(r.carriers, carriers)

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_multi_word_seeds_match_scalar_oracle(self):
        # seeds of 1, 2, 3 and 5 32-bit words in one call; only the last has
        # entropy past the four words of the hash pool
        model, psi0, grid = self.CASES["birth_death"]
        seeds = [7, 2**40 + 3, 2**70 + 11, 2**140 + 5]
        ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=grid.n_steps)
        for seed, record in zip(seeds, ens.records):
            events, _, _ = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                       store_every=grid.n_steps)
            assert len(events) > 0
            assert record.seed == seed and record.events == events

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
            run_ensemble(psi0, self.CFG, model, grid, [seed], store_every=20)
        (soft,) = [w for w in caught if "step probability" in str(w.message)]
        largest = float(str(soft.message).split()[2])
        assert 0.02 < largest < 0.08
        r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=20)
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=20)
        labels = Counter(lab for _, lab in events)
        assert len(events) >= 10 and len(labels) >= 3
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        assert np.array_equal(r.carriers, carriers)

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_oracle_down_to_sector_0(self, seed):
        # rows lose every quantum to |0, ground>, the one state of sector 0,
        # and the gain takes them back out
        model = BirthDeathLaser(0.5, 0.5, 0.5, N0=1, n0=1)
        psi0 = ket(1, GROUND, self.SPEC)
        grid = TimeGrid(0.0, 10.0, 0.005)
        r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=20)
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=20)
        n = predicted_sectors(r.record, model, r.times)
        assert n.min() == 0 and r.record.count("gain") > 0
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        assert np.array_equal(r.carriers, carriers)

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_scalar_oracle_up_to_the_top_sector(self, seed):
        # at n_max = 1 the gain takes |0, excited> to |1, excited>, the one
        # state of the top sector n_max + 1
        spec = FockSpec(1)
        model = BirthDeathLaser(1.0, 2.0, 0.5, N0=2, n0=1)
        psi0 = ket(1, GROUND, spec)
        grid = TimeGrid(0.0, 10.0, 0.005)
        r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=5)
        events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                               store_every=5)
        n = predicted_sectors(r.record, model, r.times)
        assert n.max() == spec.n_max + 1
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12
        assert np.array_equal(r.carriers, carriers)

    def test_gain_beyond_the_top_sector_is_invariant_violation(self, monkeypatch):
        # a jump of zero probability never fires, so the channel choice is
        # forced to gain: the first takes |1, excited> (sector n_max = 2) to
        # |2, excited> (sector 3), which the next annihilates
        spec = FockSpec(2)
        model = BirthDeathLaser(0.0, 1.0, 0.0, N0=5, n0=2)
        labels = ["forward_f", "side_s"] + [
            ch.label for ch in source_jump_channels(model, self.CFG, spec)]
        cumsum = np.cumsum

        def all_on_gain(probs, axis):
            # r = u * probs.sum(axis=1) < 1, so gain's cumulative 1 exceeds it first
            only = np.zeros_like(probs)
            only[:, labels.index("gain")] = 1.0
            return cumsum(only, axis=axis)

        monkeypatch.setattr(np, "cumsum", all_on_gain)
        with pytest.raises(InvariantViolationError,
                           match=r"jump gain annihilated the state at t=\S+ \(seed 0\)"):
            run_ensemble(ket(1, EXCITED, spec), self.CFG, model, TimeGrid(0.0, 5.0, 0.005), [0])

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_in_sector_superposition_matches_scalar_oracle(self):
        # both amplitudes of the sector of n0 = 2 set at the start
        model, _, grid = self.CASES["birth_death"]
        psi0 = PureState((ket(2, GROUND, self.SPEC).vec + 1j * ket(1, EXCITED, self.SPEC).vec)
                         / np.sqrt(2.0))
        r = one_trajectory(psi0, self.CFG, model, grid, seed=4, store_every=20)
        events, states, _ = scalar_mcwf(psi0, self.CFG, model, grid, 4, store_every=20)
        assert r.record.events == events
        assert np.max(np.abs(r.states - states)) < 1e-12

    @staticmethod
    @st.composite
    def drawn_runs(draw):
        """A source and its parameters, zero rates included, the couplings,
        n_max, an initial state (in the sector of n0 for birth-death), a grid
        and seeds."""
        rate = st.one_of(st.just(0.0), st.floats(0.05, 3.0))
        amplitude = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        cfg = CouplingConfig(draw(st.floats(0.1, 2.0)), draw(rate), draw(rate),
                             draw(st.floats(-1.0, 1.0)))
        spec = FockSpec(draw(st.integers(2, 6)))
        kind = draw(st.sampled_from(["birth_death", "coherent_drive", "free_decay"]))
        if kind == "birth_death":
            n0 = draw(st.integers(0, spec.n_max))
            model = BirthDeathLaser(draw(rate), draw(rate), draw(rate),
                                    N0=draw(st.integers(0, 4)), n0=n0)
            vec = draw(amplitude) * ket(n0, GROUND, spec).vec
            if n0 > 0:
                vec = vec + draw(amplitude) * ket(n0 - 1, EXCITED, spec).vec
        else:
            if kind == "coherent_drive":
                model = CoherentDrive(draw(amplitude))
            else:
                w = draw(st.floats(0.0, 1.0))
                model = FreeDecayMixture(((draw(amplitude), w), (draw(amplitude), 1.0 - w)))
            vec = np.array(draw(st.lists(amplitude, min_size=spec.dim, max_size=spec.dim)))
        assume(np.linalg.norm(vec) > 0.1)
        dt = draw(st.sampled_from([0.005, 0.01, 0.02]))
        store_every = draw(st.sampled_from([1, 7, 20]))
        grid = TimeGrid(0.0, dt * store_every * draw(st.integers(3, 15)), dt)
        seeds = draw(st.lists(st.integers(0, 2**70), min_size=1, max_size=3, unique=True))
        return cfg, model, PureState(vec), grid, store_every, seeds, draw(st.integers(1, 3))

    @pytest.mark.filterwarnings("ignore:step probability")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(run=drawn_runs())
    def test_drawn_inputs_match_scalar_oracle(self, run):
        # one lockstep engine call over every seed, cut into blocks of the
        # drawn size, against a scalar oracle run per seed
        cfg, model, psi0, grid, store_every, seeds, block = run
        states, carriers = [], []

        def store(i, parts):
            # each block's rows are working arrays, copied before the next
            psi, carrier = zip(*[(psi.copy(), carrier.copy()) for psi, carrier in parts])
            states.append(np.concatenate(psi))
            carriers.append(np.concatenate(carrier))

        try:
            with mock.patch.object(evolve, "ENSEMBLE_BLOCK", block):
                records, *_ = evolve._ensemble_chunk(psi0.vec, cfg, model, grid, store_every,
                                                     True, store, seeds)
        except StepProbabilityError:
            assume(False)
        times = grid.stored_times(store_every)
        for m, (seed, record) in enumerate(zip(seeds, records)):
            if isinstance(model, BirthDeathLaser):
                assume(predicted_sectors(record, model, times).max() <= FockSpec(
                    psi0.dim // 2 - 1).n_max)
            events, ref_states, ref_carriers = scalar_mcwf(psi0, cfg, model, grid, seed,
                                                           store_every)
            assert record.seed == seed and record.events == events
            assert np.max(np.abs(np.array(states)[:, m] - ref_states)) < 1e-12
            if isinstance(model, BirthDeathLaser):
                assert np.array_equal(np.array(carriers)[:, m], ref_carriers)

    @pytest.mark.parametrize("start", ["coherent", "fock_in_sector_1", "excited_in_sector_3"])
    def test_initial_state_outside_sector_rejected(self, start):
        # the birth-death case starts in the sector of n0 = 2
        model, _, grid = self.CASES["birth_death"]
        psi0 = {
            "coherent": product_state(coherent_state(0.8, self.SPEC, warn=False),
                                      qubit_state(GROUND)),
            "fock_in_sector_1": ket(1, GROUND, self.SPEC),
            "excited_in_sector_3": ket(2, EXCITED, self.SPEC),
        }[start]
        with pytest.raises(ValueError, match="quanta sector of n0 = 2"):
            run_ensemble(psi0, self.CFG, model, grid, [0])
        with pytest.raises(ValueError, match="quanta sector of n0 = 2"):
            run_ensemble(psi0, self.CFG, model, grid, range(3))

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_seed_alone_matches_batch(self):
        model, psi0, grid = self.CASES["birth_death"]
        batch = run_ensemble(psi0, self.CFG, model, grid, range(60), store_every=100)
        assert sum(len(r.events) for r in batch.records) > 60
        for seed in (0, 31, 59):
            alone = run_ensemble(psi0, self.CFG, model, grid, [seed], store_every=100)
            assert alone.records[0].events == batch.records[seed].events

    def test_zero_initial_state_rejected(self):
        model, psi0, grid = self.CASES["birth_death"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(InvariantViolationError, match="cannot normalize"):
                run_ensemble(PureState(np.zeros(psi0.dim)), self.CFG, model, grid, [0])

    def test_empty_seed_list_rejected(self):
        model, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(ValueError, match="seed"):
            run_ensemble(psi0, self.CFG, model, grid, [])

    def test_repeated_seed_rejected(self):
        # a repeated seed would count one trajectory twice in the average;
        # 2 is named, the first seed seen twice, though 3 repeats as often
        model, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(ValueError, match="; 2 repeats"):
            run_ensemble(psi0, self.CFG, model, grid, [1, 3, 2, 2, 3])

    def test_repeat_among_many_seeds_found_in_one_pass(self):
        # counting each seed's occurrences would take minutes here
        seeds = [*range(100_000), 50_000]
        start = time.perf_counter()
        with pytest.raises(ValueError, match="; 50000 repeats"):
            check_seeds(seeds)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("seed", [True, np.True_, 1.5, -1, "3", None])
    def test_non_integer_or_negative_seed_rejected(self, seed):
        # the one seed rule, for one seed and for several; a bool is not a
        # seed, though Python counts True as 1
        model, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(ValueError, match="seeds must be integers >= 0"):
            run_ensemble(psi0, self.CFG, model, grid, [0, seed])
        with pytest.raises(ValueError, match="seeds must be integers >= 0"):
            run_ensemble(psi0, self.CFG, model, grid, [seed])

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_numpy_integer_seeds_accepted(self):
        model, psi0, grid = self.CASES["birth_death"]
        seeds = np.arange(3, dtype=np.int64)
        ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=grid.n_steps)
        ref = run_ensemble(psi0, self.CFG, model, grid, range(3), store_every=grid.n_steps)
        assert [r.events for r in ens.records] == [r.events for r in ref.records]
        (record,) = run_ensemble(psi0, self.CFG, model, grid, [np.uint8(2)],
                                 store_every=grid.n_steps).records
        assert record.events == ref.records[2].events

    @pytest.mark.parametrize("rate", ["pump_rate", "gain_per_carrier", "nonlasing_rate"])
    def test_non_finite_step_probability_is_invariant_violation(self, rate):
        # bypasses the model's own validation to reach the engine's guard
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=2)
        object.__setattr__(model, rate, float("nan"))
        _, psi0, grid = self.CASES["birth_death"]
        with pytest.raises(InvariantViolationError, match="non-finite step probability"):
            run_ensemble(psi0, self.CFG, model, grid, [0])

    @pytest.mark.filterwarnings("ignore:invalid value")
    def test_non_finite_drift_is_invariant_violation(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        object.__setattr__(cfg, "delta", float("inf"))
        model, psi0, grid = self.CASES["coherent_drive"]
        with pytest.raises(InvariantViolationError, match="non-finite drift"):
            run_ensemble(psi0, cfg, model, grid, range(3))

    def test_carrier_beyond_int64_is_invariant_violation(self):
        # carriers are int64: seed 0's first pump, at t = 0.04, would wrap
        # 2**63 - 1 around to -2**63
        model = BirthDeathLaser(1.0, 0.0, 0.0, N0=2**63 - 1, n0=1)
        psi0 = ket(1, GROUND, FockSpec(4))
        with pytest.raises(InvariantViolationError,
                           match=re.escape("carrier count left int64 at t=0.04 (seed 0)")):
            run_ensemble(psi0, self.CFG, model, TimeGrid(0.0, 5.0, 0.01), [0])


def seed_sequence_words(seeds):
    return np.array([np.random.SeedSequence(int(s)).generate_state(4, np.uint64)
                     for s in seeds])


class TestSeedWords:
    """seed_words is numpy's SeedSequence hash, checked against numpy itself."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.one_of(st.integers(0, 2**64), st.integers(0, 2**200 - 1)),
                    min_size=1, max_size=12))
    def test_matches_seed_sequence(self, seeds):
        assert np.array_equal(seed_words(seeds), seed_sequence_words(seeds))

    @pytest.mark.parametrize("seeds", [
        # below 2**64: split into words by numpy
        [0, 2**32 - 1, 2**32, 2**64 - 1],
        # 2**64 and up: split by Python, entropy of up to 5 words
        [0, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**128 - 1, 2**128],
        [np.uint8(7), np.int64(9), np.uint64(2**63 + 5)],
        [np.uint8(7), np.int64(9), np.uint64(2**64 - 1), 2**64 + 5, 10**50],
    ])
    def test_word_boundaries_and_numpy_integers(self, seeds):
        words = seed_words(seeds)
        assert words.dtype == np.uint64 and words.shape == (len(seeds), 4)
        assert np.array_equal(words, seed_sequence_words(seeds))


# seeds at the edges of numpy's 32-bit word split and of PCG64's two 64-bit words
BOUNDARY_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64, 2**64 + 3, 2**128 - 1,
                  2**128, 10**40, 2**200]


class TestStreams:
    """The engine's PCG64 kernel gives each row default_rng(seed)'s uniforms,
    checked against numpy itself on whatever numpy runs the tests."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(seeds=st.lists(st.one_of(st.sampled_from(BOUNDARY_SEEDS), st.integers(0, 2**200)),
                          min_size=1, max_size=40, unique=True),
           width=st.sampled_from([1, 2, 8, 64]), lanes=st.sampled_from([1, 8, 64, 16384]),
           data=st.data())
    def test_lockstep_refills_draw_default_rng(self, seeds, width, lanes, data):
        # each refill gives one to three kernel chunks of S draws to a subset
        # of the rows, S set by the block width and the lane budget
        with mock.patch.object(streams_mod, "PCG64_LANES", lanes):
            pcg = streams_mod._pcg64_seed(seed_words(seeds), width)
        S = pcg.shape[1] - 1
        assert S <= width and (S == 1 or S * len(seeds) <= lanes)
        refills = data.draw(st.lists(st.tuples(
            st.sets(st.integers(0, len(seeds) - 1), min_size=1), st.integers(1, 3)),
            min_size=1, max_size=6))
        scratch = np.empty((4, S * len(seeds)), np.uint64)
        drawn = [[np.empty(0)] for _ in seeds]
        for rows, chunks in refills:
            idx = np.array(sorted(rows))
            streams, block = pcg[..., idx], np.empty((len(idx), chunks * S))
            streams_mod._pcg64_fill(streams, block, scratch)
            pcg[..., idx] = streams
            for m, u in zip(idx, block):
                drawn[m].append(u)
        for seed, parts in zip(seeds, drawn):
            u = np.concatenate(parts)
            assert np.array_equal(u, np.random.default_rng(seed).random(len(u)))

    @pytest.mark.parametrize("rows", [1, 2000])
    def test_engine_sized_refills(self, rows):
        # two blocks of A7's row count at the kernel's own lane budget
        seeds = [3 + 7919 * m for m in range(rows)]
        pcg = streams_mod._pcg64_seed(seed_words(seeds), UNIFORM_BLOCK)
        scratch = np.empty((4, (pcg.shape[1] - 1) * rows), np.uint64)
        u = np.empty((rows, 2, UNIFORM_BLOCK))
        for half in range(2):
            streams_mod._pcg64_fill(pcg, u[:, half], scratch)
        for m in sorted({0, rows // 2, rows - 1}):
            assert np.array_equal(u[m].ravel(),
                                  np.random.default_rng(seeds[m]).random(2 * UNIFORM_BLOCK))


class TestRowArithmetic:
    """The engine's explicit forms of a sector row's dots and a jumper's norm
    give numpy's own bits, so a numpy whose einsum or norm sums in another
    order, or fuses multiply-add, fails here by name."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pair_dots_are_einsums(self, seed):
        # rows over 200 binary orders of magnitude, about 30 % of the entries
        # zeros of either sign, and some rows zero throughout
        rng = np.random.default_rng(seed)
        a, b = rng.standard_normal((2, 6000, 4)) * 2.0 ** rng.integers(-100, 100, (2, 6000, 4))
        a[rng.random(a.shape) < 0.3] = 0.0
        b[rng.random(b.shape) < 0.3] = -0.0
        a[:200] = b[200:400] = 0.0
        for x, y in ((a, b), (a, a), (b, b), (a, -b)):
            ref = np.einsum("md,md->m", x, y)
            out = evolve._pair_dots(len(x))(x, y, np.empty(len(x)))
            # einsum starts its two lanes from +0.0, so the one difference is
            # a dot of four -0.0 products: -0.0 here, +0.0 there
            q = x * y
            negative_zeros = ((q == 0.0) & np.signbit(q)).all(axis=1)
            assert out[~negative_zeros].tobytes() == ref[~negative_zeros].tobytes()
            assert (out[negative_zeros] == 0.0).all() and np.signbit(out[negative_zeros]).all()
            assert not np.signbit(ref[negative_zeros]).any()
            # which a squared norm never has, and a dot read as s - dot loses
            assert (1.0 - out).tobytes() == (1.0 - ref).tobytes()
            if x is y:
                assert not negative_zeros.any()
            elif y is b:
                assert negative_zeros.sum() > 10

    @pytest.mark.parametrize("kind", ["birth_death", "coherent_drive"])
    def test_jumper_norm_is_linalg_norm(self, kind):
        # the jump vectors C_k psi of random states, as the engine forms them:
        # per channel, over sector blocks or the dense operators
        model, psi0, _ = TestEngineOracle.CASES[kind]
        spec = FockSpec(psi0.dim // 2 - 1)
        _, channels = unraveling(model, TestEngineOracle.CFG, spec)
        quantum = [ch for ch in channels if ch.operator is not None]
        rng = np.random.default_rng(7)
        psi = rng.standard_normal((200, psi0.dim)) + 1j * rng.standard_normal((200, psi0.dim))
        psi *= 10.0 ** rng.uniform(-100, 100, (200, 1))
        if kind == "birth_death":
            n = rng.integers(0, spec.n_max + 2, 200)
            vecs = np.stack([np.matmul(evolve._sector_blocks(ch.operator, ch.quanta_delta,
                                                             ch.label)[n], psi[:, :2, None])[..., 0]
                             for ch in quantum], axis=1)
        else:
            vecs = np.stack([psi @ ch.operator.T for ch in quantum], axis=1)
        for v in vecs.reshape(-1, vecs.shape[-1]):
            assert math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)) == np.linalg.norm(v)


class TestRowKinds:
    """Each row kind's operations on rows set up by hand, without the step loop."""

    CFG = CouplingConfig(1.0, 0.5, 0.5, 0.3)

    @staticmethod
    def make(model, spec, dt, M, block):
        """The row kind of model over M copies of an initial state, in seed
        blocks of block rows, and its channels."""
        H, channels = unraveling(model, TestRowKinds.CFG, spec)
        if isinstance(model, BirthDeathLaser):
            psi0, kind = ket(model.n0, GROUND, spec).vec, evolve._SectorRows
        else:
            psi0, kind = ket(0, GROUND, spec).vec, evolve._DenseRows
        with mock.patch.object(evolve, "ENSEMBLE_BLOCK", block):
            return kind(psi0, model, H, channels, spec, TimeGrid(0.0, dt, dt), M), channels

    @staticmethod
    def dense_rows(rows, psi):
        """The dense states of sector rows, scattered by hand."""
        padded = np.zeros((len(psi), 2 * len(rows.drift)), dtype=complex)
        for m, n in enumerate(rows.n_pred):
            padded[m, 2 * n:2 * n + 2] = psi[m]
        return padded[:, 1:-1]

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["birth_death", "coherent_drive", "free_decay"]),
           rates=st.lists(st.one_of(st.just(0.0), st.floats(0.05, 3.0)), min_size=3, max_size=3),
           n_max=st.integers(1, 6), M=st.integers(1, 9), block=st.integers(1, 4),
           dt=st.sampled_from([0.001, 0.01]), seed=st.integers(0, 2**32 - 1))
    def test_no_jump_probability_is_the_channels(self, kind, rates, n_max, M, block, dt, seed):
        # dt sum_k <psi|C_k^dag C_k|psi> / |psi|^2 over the quantum channels,
        # plus dt rate over the classical ones, each times the carrier count
        # where the channel scales with it
        rng = np.random.default_rng(seed)
        spec = FockSpec(n_max)
        model = {"birth_death": BirthDeathLaser(*rates, N0=2, n0=1),
                 "coherent_drive": CoherentDrive(rates[0] - 0.5j * rates[1]),
                 "free_decay": FreeDecayMixture(((rates[0], 1.0),))}[kind]
        rows, channels = self.make(model, spec, dt, M, block)
        psi = rng.standard_normal(rows.initial.shape) + 1j * rng.standard_normal(
            rows.initial.shape)
        psi *= 10.0 ** rng.uniform(-3, 3, (M, 1))
        if kind == "birth_death":
            # each row in its own sector, with its own carrier count
            n = rng.integers(0, n_max + 2, M)
            rows.jumped(np.arange(M), rng.integers(0, 6, M) - model.N0, n - model.n0, 0.0)
            psi[n == 0, 0] = psi[n == n_max + 1, 1] = 0.0
            vecs = self.dense_rows(rows, psi)
        else:
            vecs = psi
        sq = np.einsum("md,md->m", psi.view(float), psi.view(float))
        Z = np.empty_like(psi)
        p = rows.no_jump(psi, Z, psi.view(float), Z.view(float), sq)
        expected = np.zeros(M)
        for ch in channels:
            scale = rows.carrier if ch.scales_with_carrier else 1.0
            if ch.operator is None:
                expected += dt * ch.rate * scale
            else:
                C = vecs @ ch.operator.T
                expected += dt * scale * np.einsum("md,md->m", C.conj(), C).real / sq
        assert np.max(np.abs(p - expected)) <= 1e-12

    @pytest.mark.parametrize("M, block", [(1, 1), (7, 3), (5, 8)])
    def test_sector_block_rows_invert_sector_amplitudes(self, M, block):
        # every stored row is its sector's two amplitudes at dense columns
        # 2n - 1 and 2n, and zero elsewhere, block by block
        spec = FockSpec(4)
        rows, _ = self.make(BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1), spec, 0.01, M, block)
        rng = np.random.default_rng(M)
        n = np.arange(M) % (spec.n_max + 2)
        rows.jumped(np.arange(M), 0, n - 1, 0.0)
        psi = rng.standard_normal((M, 2)) + 1j * rng.standard_normal((M, 2))
        psi[n == 0, 0] = psi[n == spec.n_max + 1, 1] = 0.0
        stored = []
        for lo in range(0, M, block):
            dense, carrier = rows.block_rows(psi, slice(lo, lo + block))
            assert dense.shape == (len(carrier), spec.dim)
            stored += [row.copy() for row in dense]
        for m in range(M):
            assert sector_amplitudes(stored[m], n[m]).tobytes() == psi[m].tobytes()

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_dense_rows_run_one_block_a_call(self, monkeypatch):
        # a gemm row's rounding depends on how many rows share the call, so
        # seven dense seeds in blocks of two are four engine calls of at
        # most two rows, and give the bits of one call per block
        model, psi0 = TestLockstepBlocks.ROWS["coherent_drive"]
        grid = TimeGrid(0.0, 0.7, 0.005)
        seeds = [5, 2, 9, 0, 7, 11, 3]
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        monkeypatch.setenv("CASCADESIM_WORKERS", "1")
        with mock.patch.object(evolve, "_ensemble_chunk", wraps=evolve._ensemble_chunk) as chunk:
            ens = run_ensemble(psi0, TestLockstepBlocks.CFG, model, grid, seeds, store_every=20)
        assert [call.args[7] for call in chunk.call_args_list] == [[5, 2], [9, 0], [7, 11], [3]]
        avgs, records, entropies = per_block_reference(
            psi0, TestLockstepBlocks.CFG, model, grid, seeds, 20, True, 2)
        for a, b in zip(ens.rho_avg, avgs, strict=True):
            assert a.mat.tobytes() == b.tobytes()
        assert [(r.seed, r.events) for r in ens.records] == [(r.seed, r.events) for r in records]
        assert ens.max_schmidt_entropies == entropies


class TestPinnedRecords:
    """Every event of many seeds, pinned by a hash of the records.

    A rewrite of the engine's arithmetic may move the states by rounding,
    but a record moves only if a uniform falls within rounding of its step
    probability.  The hashes come from the engine that renormalized every
    row at every step.
    """

    @staticmethod
    def digest(records):
        return hashlib.sha256(repr([(r.seed, r.events) for r in records]).encode()).hexdigest()

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_birth_death_at_a7_rates(self):
        # the A7 preset's rates, sizes and seeds, 200 of its 2000 trajectories
        p = load_preset("a7.json")
        spec = FockSpec(p["n_max"])
        model = BirthDeathLaser(**p["source"])
        psi0 = product_state(fock_state(model.n0, spec), qubit_state(GROUND))
        grid = TimeGrid(0.0, 4.0, 0.001)
        seeds = range(p["seed_start"], p["seed_start"] + 200)
        ens = run_ensemble(psi0, CouplingConfig(**p["coupling"]), model, grid, seeds,
                           store_every=grid.n_steps, diagnostics=False)
        assert sum(len(r.events) for r in ens.records) == 2453
        assert self.digest(ens.records) == (
            "1b839d8fbde0c6a307369bc3e9ef2501b78588335ee4b83b188b69aa835310a3")

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_coherent_drive_preset(self):
        p = load_preset("coherent_drive.json")
        spec = FockSpec(p["n_max"])
        psi0 = product_state(coherent_state(complex(*p["initial"]["alpha"]), spec),
                             qubit_state(GROUND))
        grid = TimeGrid(p["grid"]["t0"], p["grid"]["t1"], p["grid"]["dt"])
        ens = run_ensemble(psi0, CouplingConfig(**p["coupling"]),
                           CoherentDrive(complex(*p["source"]["epsilon"])), grid, range(50),
                           store_every=grid.n_steps, diagnostics=False)
        assert sum(len(r.events) for r in ens.records) == 103
        assert self.digest(ens.records) == (
            "6758745588e44da70852d4af863e8f7b994014e1978acf5de0df28c8acc050f3")


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
        # the drift the engine uses; a coherent drive adds a Hermitian term
        H, channels = unraveling(model, cfg, self.SPEC)
        f, s = (ch.operator for ch in channels[:2])
        decay = f.conj().T @ f + s.conj().T @ s
        assert np.max(np.abs(1j * (H - H.conj().T) - decay)) < 1e-14
        # and the engine's own set-up check accepts it
        psi0 = ket(1, GROUND, self.SPEC)
        run_ensemble(psi0, cfg, model, TimeGrid(0.0, 0.05, 0.001), [0])

    @staticmethod
    def without_gamma_T(config, spec):
        """build_nonhermitian_H with its -(i/2) gamma_T b^dag b term left out."""
        _, b = ladders(spec)
        H = build_nonhermitian_H(config, spec)
        return combine(H, scaled(0.5j * config.gamma_T, product(adjoint(b), b)))

    def test_broken_drift_is_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(sources, "build_nonhermitian_H", self.without_gamma_T)
        cfg, model = self.CASES["coherent_drive"]
        with pytest.raises(InvariantViolationError, match="does not match the jump operators"):
            run_ensemble(ket(1, GROUND, self.SPEC), cfg, model, TimeGrid(0.0, 0.1, 0.01), [0])

    def test_broken_drift_exits_3(self, monkeypatch, tmp_path, capsys):
        import json
        from importlib import resources

        from cascadesim.cli import main

        monkeypatch.setattr(sources, "build_nonhermitian_H", self.without_gamma_T)
        with resources.files("cascadesim.presets").joinpath("coherent_drive.json").open() as f:
            doc = json.load(f)
        doc["seeds"] = {"start": 0, "count": 2}
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run-trajectories", str(path)]) == 3
        assert "does not match the jump operators" in capsys.readouterr().err


class TestSectorCheck:
    """The birth-death engine keeps two amplitudes per trajectory only if H
    keeps the quanta sectors and each jump moves them by its quanta_delta."""

    SPEC = FockSpec(4)

    @staticmethod
    def with_a_drive(config, spec):
        """build_nonhermitian_H plus the Hermitian a + a^dag, which mixes the
        sectors but leaves the drift identity alone."""
        a, _ = ladders(spec)
        return combine(build_nonhermitian_H(config, spec), scaled(0.1, combine(a, adjoint(a))))

    def test_out_of_sector_drift_is_invariant_violation(self, monkeypatch):
        monkeypatch.setattr(sources, "build_nonhermitian_H", self.with_a_drive)
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        with pytest.raises(InvariantViolationError,
                           match="drift Hamiltonian does not keep the quanta sectors"):
            run_ensemble(ket(1, GROUND, self.SPEC), CouplingConfig(), model,
                         TimeGrid(0.0, 0.1, 0.01), [0])

    def test_out_of_sector_drift_exits_3(self, monkeypatch, tmp_path, capsys):
        import json
        from importlib import resources

        from cascadesim.cli import main

        monkeypatch.setattr(sources, "build_nonhermitian_H", self.with_a_drive)
        with resources.files("cascadesim.presets").joinpath("birth_death.json").open() as f:
            doc = json.load(f)
        doc["seeds"] = {"start": 0, "count": 2}
        doc["output_dir"] = str(tmp_path / "out")
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["run-trajectories", str(path)]) == 3
        assert "does not keep the quanta sectors" in capsys.readouterr().err

    def test_jump_operators_must_move_by_their_shift(self):
        f_op = dense(build_jump_ops(CouplingConfig(), self.SPEC)[0], self.SPEC.dim)
        evolve._sector_blocks(f_op, -1, "jump operator forward_f")
        # f lowers the quanta by one; its adjoint raises them
        with pytest.raises(InvariantViolationError, match="jump operator forward_f"):
            evolve._sector_blocks(f_op.conj().T, -1, "jump operator forward_f")


class TestDiagnostics:
    """The engine's per-step diagnostics against their definitions, evaluated
    on one trajectory's states, stored at every step."""

    CASES = {
        # an entangling start for the coherent drive; the birth-death source
        # starts in the quanta sector of n0, where it stays
        "coherent": (CoherentDrive(0.4 - 0.2j), lambda spec: ket(2, EXCITED, spec)),
        "birth_death": (BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1),
                        lambda spec: ket(1, GROUND, spec)),
    }

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_match_stored_states(self, case):
        model, start = self.CASES[case]
        spec = FockSpec(8)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        dt = 0.005
        r = one_trajectory(start(spec), cfg, model, TimeGrid(0.0, 2.0, dt), seed=11)
        assert r.record.events
        entropies = [schmidt_entropy(v) for v in r.states]
        assert max(entropies) > 0.1
        assert abs(r.max_schmidt_entropy - max(entropies)) <= 1e-12
        if case != "birth_death":
            return
        # the engine keeps only the sector's two amplitudes; TestSectorReplay
        # measures the out-of-sector amplitude on the dense replay instead
        n = predicted_sectors(r.record, model, r.times)
        assert all(np.count_nonzero(v) <= 2 for v in r.states)
        assert all(not np.delete(v, [2 * k - 1, 2 * k]).any() for v, k in zip(r.states, n))

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_do_not_depend_on_stores(self, case):
        # with one store at the end, the rows are normalized for the
        # diagnostics alone
        model, start = self.CASES[case]
        spec = FockSpec(8)
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        grid = TimeGrid(0.0, 2.0, 0.005)
        every, once = (one_trajectory(start(spec), cfg, model, grid, seed=11, store_every=k)
                       for k in (1, grid.n_steps))
        assert once.record.events == every.record.events
        assert abs(once.max_schmidt_entropy - every.max_schmidt_entropy) <= 1e-12


class TestDiagnosticBlocks:
    """The engine takes the Schmidt entropies of DIAGNOSTIC_LANES // (M width)
    steps' rows in one pass, at most 64, and step by step when fewer than
    two fit; every history length gives the bits of one step at a time."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)
    SPEC = FockSpec(4)
    ROWS = {
        # |1, ground> entangles at once, and lies in the sector of n0 = 1
        "coherent": (CoherentDrive(0.4 - 0.2j), ket(1, GROUND, SPEC), SPEC.dim),
        "birth_death": (BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1), ket(1, GROUND, SPEC), 2),
    }
    GRIDS = {
        # 424 steps and t0: 425 diagnosed states, a multiple of none of 2, 3 and 7
        "long": TimeGrid(0.0, 2.12, 0.005),
        # 4 states whose entropies rise: the last, which a history of 2, 3
        # or 7 holds when the run ends, has the largest
        "short": TimeGrid(0.0, 0.015, 0.005),
    }

    def check(self, monkeypatch, kind, run, rows):
        """run(model, psi0), an engine call on rows trajectories, gives the
        entropies and records of one step at a time with lanes for 2, 3 and
        7 steps; the step-by-step entropies."""
        model, psi0, width = self.ROWS[kind]
        results = []
        for held in (1, 2, 3, 7):
            monkeypatch.setattr(evolve, "DIAGNOSTIC_LANES", held * rows * width)
            ents, records = run(model, psi0)
            results.append((np.array(ents), records))
        (step_ents, step_records), *held = results
        for ents, records in held:
            assert np.array_equal(ents, step_ents)
            # the signs of zero entropies too
            assert ents.tobytes() == step_ents.tobytes()
            assert records == step_records
        return step_ents

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_one_trajectory(self, monkeypatch, kind, grid):
        grid = self.GRIDS[grid]

        def run(model, psi0):
            r = one_trajectory(psi0, self.CFG, model, grid, seed=11)
            if grid.n_steps == 3:
                entropies = [schmidt_entropy(v) for v in r.states]
                assert np.argmax(entropies) == 3
            return [r.max_schmidt_entropy], r.record.events
        assert self.check(monkeypatch, kind, run, rows=1).min() > 0.0

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("grid", sorted(GRIDS))
    @pytest.mark.parametrize("kind", sorted(ROWS))
    def test_ensemble_of_several_blocks(self, monkeypatch, kind, grid):
        # three seed blocks, one lockstep engine call
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        monkeypatch.setenv("CASCADESIM_WORKERS", "1")

        def run(model, psi0):
            ens = run_ensemble(psi0, self.CFG, model, self.GRIDS[grid], [5, 2, 9, 0, 7])
            return ens.max_schmidt_entropies, [r.events for r in ens.records]
        assert self.check(monkeypatch, kind, run, rows=5).min() > 0.0

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("rows", [1, 5])
    def test_zero_entropies_keep_their_sign(self, monkeypatch, rows):
        # |2, excited> stays a product until a jump, so every entropy is a
        # zero, computed as 0.0 - 0.0 = +0.0, and every history length keeps
        # its sign
        monkeypatch.setenv("CASCADESIM_WORKERS", "1")

        def run(model, psi0):
            ens = run_ensemble(ket(2, EXCITED, self.SPEC), self.CFG, model, self.GRIDS["short"],
                               range(rows))
            assert not any(r.events for r in ens.records)
            return ens.max_schmidt_entropies, None
        assert not self.check(monkeypatch, "coherent", run, rows).any()

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_no_history_when_two_steps_do_not_fit(self, monkeypatch):
        # 400 dense rows of d 42 take more than half of the lanes, so the
        # entropies are taken step by step and no history is held; the same
        # run with two steps' lanes holds one of 2 x 269 KB
        spec = FockSpec(20)
        psi0 = product_state(coherent_state(1.0, spec), qubit_state(GROUND))
        M, width = 400, spec.dim
        assert 2 * M * width > evolve.DIAGNOSTIC_LANES

        def extra_peak(lanes):
            """Traced peak with diagnostics, less the peak without them."""
            monkeypatch.setattr(evolve, "DIAGNOSTIC_LANES", lanes)
            monkeypatch.setenv("CASCADESIM_WORKERS", "1")
            peaks = []
            for diagnostics in (True, False):
                tracemalloc.start()
                try:
                    run_ensemble(psi0, self.CFG, CoherentDrive(0.3), TimeGrid(0.0, 0.03, 0.01),
                                 range(M), store_every=3, diagnostics=diagnostics)
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
            return peaks[0] - peaks[1]

        step_rows = M * width * 16
        assert extra_peak(2 * M * width) >= 2 * step_rows
        monkeypatch.undo()
        assert extra_peak(evolve.DIAGNOSTIC_LANES) < step_rows


class TestTruncation:
    """A birth-death run warns once, at its caller's line, when a row
    reaches quanta sector n_max, where truncation drops |n_max, ground>'s
    gain jump, or n_max + 1; the warning names the highest sector the rows
    reached, n_max and the first time a row reached that sector."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)
    MODEL = BirthDeathLaser(2.0, 1.0, 0.0, N0=3, n0=2)

    @staticmethod
    def reached(records, sector):
        """The first time each record's sector reaches sector, where it does."""
        shift = {"forward_f": -1, "side_s": -1, "gain": +1, "pump": 0, "nonlasing": 0}
        times = []
        for record in records:
            n = TestTruncation.MODEL.n0
            for t, label in record.events:
                n += shift[label]
                if n == sector:
                    times.append(t)
                    break
        return times

    def run(self, n_max, seeds, t1):
        """The records of a run at n_max, and its TruncationWarnings."""
        psi0 = ket(self.MODEL.n0, GROUND, FockSpec(n_max))
        grid = TimeGrid(0.0, t1, 0.0005)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records = run_ensemble(psi0, self.CFG, self.MODEL, grid, seeds,
                                   store_every=grid.n_steps, diagnostics=False).records
        return records, [w for w in caught if w.category is TruncationWarning]

    def check_warning(self, records, caught, n_max):
        top = max(n for n in range(n_max + 2) if self.reached(records, n))
        first = min(self.reached(records, top))
        (w,) = caught
        assert w.filename == __file__
        assert str(w.message) == (
            f"trajectories reached quanta sector {top} (n_max={n_max}), first at "
            f"t={first:.6g}, where truncation suppresses a gain jump")

    def test_n_max_3_run_warns_once(self):
        # 112 of 200 rows reach sector 4; the run still returns every record
        records, caught = self.run(3, range(200), 2.0)
        assert len(records) == 200 and len(self.reached(records, 4)) == 112
        self.check_warning(records, caught, 3)

    @pytest.mark.parametrize("how", ["one seed", "one window", "windows", "pool"])
    def test_every_path_warns_once(self, monkeypatch, how):
        # seed 162 reaches sector 4 at t 0.048; of seeds 100..119 the first
        # is 118, at t 0.128.  Blocks of 4 seeds make five windows, or five
        # pool tasks, each with its own highest sector and first time: seeds
        # 112..115 stop at sector n_max = 3, first at t 0.0205, and the
        # warning still names sector 4 and t 0.128
        monkeypatch.setenv("CASCADESIM_WORKERS", "2" if how == "pool" else "1")
        if how in ("windows", "pool"):
            monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 4)
            monkeypatch.setattr(evolve, "WINDOW_BYTES", 0)
        if how == "one seed":
            records, caught = self.run(3, [162], 0.1)
        else:
            records, caught = self.run(3, range(100, 120), 0.5)
        self.check_warning(records, caught, 3)

    def test_warns_exactly_when_a_row_reaches_the_top_sector(self):
        # seeds 100..119 to t 0.5 reach sector 7 at n_max 12, sector n_max + 1
        # at n_max 3 and 4, and sector n_max but not n_max + 1 at n_max 5 and
        # 6, where truncation has already changed records; a run warns if and
        # only if its own records reach sector n_max
        warned = {}
        for n_max in (3, 4, 5, 6, 12):
            records, caught = self.run(n_max, range(100, 120), 0.5)
            warned[n_max] = bool(caught)
            if self.reached(records, n_max):
                self.check_warning(records, caught, n_max)
            else:
                assert not caught
        assert warned == {3: True, 4: True, 5: True, 6: True, 12: False}


class TestSectorReplay:
    """A2's out-of-sector amplitude, read off a dense replay of the records,
    against its definition on a literal one-record replay."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)
    MODEL = BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1)
    SPEC = FockSpec(8)
    GRID = TimeGrid(0.0, 2.0, 0.005)

    def records(self):
        ens = run_ensemble(ket(1, GROUND, self.SPEC), self.CFG, self.MODEL, self.GRID,
                           range(11, 14), store_every=self.GRID.n_steps)
        assert all(r.events for r in ens.records)
        return ens.records

    def literal(self, psi0, record):
        """The largest out-of-sector amplitude of one record, replayed step by step."""
        spec, dt, model = self.SPEC, self.GRID.dt, self.MODEL
        H, channels = unraveling(model, self.CFG, spec)
        channels = {ch.label: ch for ch in channels}
        gain = channels["gain"].operator
        labels = {int(round(t / dt)): label for t, label in record.events}

        def residual(v, n):
            # the sector of n holds |n, ground> (column 2n) and |n-1, excited> (2n - 1)
            return np.sqrt(sum(abs(v[c]) ** 2 for c in range(spec.dim)
                               if c not in (2 * n - 1, 2 * n)))

        psi = psi0.vec / np.linalg.norm(psi0.vec)
        carrier, n = model.N0, model.n0
        worst = residual(psi, n)
        for step in range(1, self.GRID.n_steps + 1):
            ch = channels.get(labels.get(step))
            if ch is not None and ch.operator is not None:
                v = ch.operator @ psi
            else:
                v = psi - 1j * dt * (H @ psi) - 0.5 * dt * carrier * (gain.conj().T @ gain @ psi)
            if ch is not None:
                carrier += ch.carrier_delta
                n += ch.quanta_delta
            psi = v / np.linalg.norm(v)
            worst = max(worst, residual(psi, n))
        return worst

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_in_sector_start_stays_in_sector(self):
        psi0 = ket(1, GROUND, self.SPEC)
        replayed = sector_residuals(psi0, self.CFG, self.MODEL, self.GRID, self.records())
        assert np.array_equal(replayed, np.zeros(3))

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_out_of_sector_start_matches_definition(self):
        # the records replayed from a coherent start, which spans every sector:
        # the replay must see that amplitude
        psi0 = product_state(coherent_state(0.8, self.SPEC, warn=False), qubit_state(GROUND))
        records = self.records()
        replayed = sector_residuals(psi0, self.CFG, self.MODEL, self.GRID, records)
        expected = [self.literal(psi0, r) for r in records]
        assert min(expected) > 0.1
        assert np.max(np.abs(replayed - expected)) <= 1e-12

    @pytest.mark.filterwarnings("ignore:step probability")
    @settings(max_examples=8, deadline=None, derandomize=True)
    @given(gamma_S=st.floats(0.2, 2.0), gamma_Tf=st.floats(0.0, 1.5),
           gamma_Ts=st.sampled_from([0.0, 0.4]), delta=st.sampled_from([0.0, 0.7]),
           pump=st.floats(0.0, 2.0), gain=st.floats(0.0, 1.0), loss=st.floats(0.0, 1.0),
           N0=st.integers(0, 5), n0=st.integers(0, 5))
    def test_records_stay_in_one_sector_at_drawn_parameters(
            self, gamma_S, gamma_Tf, gamma_Ts, delta, pump, gain, loss, N0, n0):
        # the paper's second claim: a birth-death state conditioned on its
        # whole record stays in one sector of known total quanta, and there it
        # can be entangled (cf. Molmer, Phys. Rev. A 55, 3195 (1997)).  The
        # engine keeps two amplitudes a row, so its records are replayed densely
        cfg = CouplingConfig(gamma_S, gamma_Tf, gamma_Ts, delta)
        model = BirthDeathLaser(pump, gain, loss, N0=N0, n0=n0)
        spec = FockSpec(n0 + 8)
        # a bound on a row's total jump rate up to t 1, where the carrier
        # count exceeds N0 + 10 with a chance below 1e-5 at pump rate <= 2;
        # dt keeps the step probability below 0.08, under the hard 0.1
        rate = (2 * (gamma_S * spec.n_max + gamma_Tf) + gamma_Ts + pump
                + (gain * spec.n_max + loss) * (N0 + 10))
        steps = 10 * math.ceil(max(400, rate / 0.08) / 10)
        grid = TimeGrid(0.0, 1.0, 1.0 / steps)
        psi0 = ket(n0, GROUND, spec)
        with mock.patch.dict(os.environ, {"CASCADESIM_WORKERS": "1"}):
            ens = run_ensemble(psi0, cfg, model, grid, range(16), store_every=steps // 10)
        sector = total_quanta(spec.dim)
        worst = np.zeros(16)
        entropy = np.zeros(16)
        for psi, n in replay_records(psi0, cfg, model, grid, ens.records):
            np.maximum(worst, np.abs(np.where(sector == n[:, None], 0.0, psi)).max(axis=1),
                       out=worst)
            # each row's Schmidt entropy in bits, as analysis.schmidt_entropy
            # takes it, for all rows in one call
            lam = np.linalg.svd(psi.reshape(16, -1, 2), compute_uv=False) ** 2
            log_lam = np.log2(lam, out=np.zeros_like(lam), where=lam > 1e-300)
            np.maximum(entropy, -(lam * log_lam).sum(axis=1), out=entropy)
        assert not worst.any()
        assert np.max(np.abs(entropy - ens.max_schmidt_entropies)) <= 1e-12
        # at tol 0 the check lists every entry outside the pattern, as for A7
        for rho in ens.rho_avg:
            _, offending = support_pattern_check(rho, 0.0)
            assert all(v == 0.0 for _, _, v in offending)


class TestEnsemble:
    CFG = CouplingConfig(1.0, 0.5, 0.5)

    def test_average_requires_common_grid(self):
        spec = FockSpec(3)
        psi0 = ket(1, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        r1 = one_trajectory(psi0, self.CFG, model, TimeGrid(0, 1, 0.01), seed=0)
        r2 = one_trajectory(psi0, self.CFG, model, TimeGrid(0, 2, 0.01), seed=1)
        with pytest.raises(ValueError):
            ensemble_average([r1, r2])

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_run_ensemble_matches_scalar_loop(self):
        spec = FockSpec(5)
        psi0 = ket(2, GROUND, spec)
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=2)
        grid = TimeGrid(0.0, 1.0, 0.005)
        seeds = list(range(8))
        ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=20)
        singles = [one_trajectory(psi0, self.CFG, model, grid, seed=s, store_every=20)
                   for s in seeds]
        avg = ensemble_average(singles)
        for a, b in zip(ens.rho_avg, avg):
            assert np.max(np.abs(a.mat - b.mat)) < 1e-13
        for rec, single in zip(ens.records, singles):
            assert rec.events == single.record.events
        for e, s in zip(ens.max_schmidt_entropies, singles):
            assert abs(e - s.max_schmidt_entropy) < 1e-12

    def test_worker_count_does_not_change_result(self, monkeypatch):
        spec = FockSpec(4)
        psi0 = ket(1, GROUND, spec)
        model = FreeDecayMixture(((0.0, 1.0),))
        grid = TimeGrid(0.0, 0.5, 0.01)
        seeds = list(range(6))
        one, two = (run_workers(monkeypatch, w, psi0, self.CFG, model, grid, seeds,
                                store_every=10) for w in (1, 2))
        for a, b in zip(one.rho_avg, two.rho_avg):
            # reduction regrouping may differ at rounding level only
            assert np.max(np.abs(a.mat - b.mat)) < 1e-14
        assert [r.events for r in one.records] == [r.events for r in two.records]

        # an unsorted seed list on three workers:
        # every per-seed result comes back in the order of the seed list
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        grid = TimeGrid(0.0, 0.5, 0.001)
        seeds = [5, 2, 9, 0, 7]
        one, three = (run_workers(monkeypatch, w, psi0, self.CFG, model, grid, seeds,
                                  store_every=50) for w in (1, 3))
        for ens in (one, three):
            assert [r.seed for r in ens.records] == seeds
        assert [r.events for r in three.records] == [r.events for r in one.records]
        # distinct per seed, so that the order shows
        assert len({len(r.events) for r in one.records}) > 1
        assert len(set(one.max_schmidt_entropies)) == len(seeds)
        a, b = one.max_schmidt_entropies, three.max_schmidt_entropies
        assert np.max(np.abs(np.subtract(a, b))) <= 1e-12

    @pytest.mark.parametrize("value", ["0", "-2", "1.5"])
    def test_worker_env_below_one_or_not_an_integer_rejected(self, monkeypatch, value):
        monkeypatch.setenv("CASCADESIM_WORKERS", value)
        with pytest.raises(ValueError, match="CASCADESIM_WORKERS must be an integer >= 1"):
            workers_from_env()

    @pytest.mark.parametrize("workers", [2, 3])
    def test_seed_blocks_give_one_result(self, monkeypatch, workers):
        # five unsorted seeds in blocks of two: three blocks on any worker count
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        psi0 = ket(1, GROUND, FockSpec(4))
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        grid = TimeGrid(0.0, 0.5, 0.001)
        seeds = [5, 2, 9, 0, 7]
        one, many = (run_workers(monkeypatch, w, psi0, self.CFG, model, grid, seeds,
                                 store_every=50) for w in (1, workers))
        assert [r.seed for r in many.records] == seeds
        for a, b in zip(one.rho_avg, many.rho_avg, strict=True):
            assert np.array_equal(a.mat, b.mat)
        assert [r.events for r in many.records] == [r.events for r in one.records]
        assert many.max_schmidt_entropies == one.max_schmidt_entropies

    @pytest.mark.parametrize("block", [None, 2])
    def test_observer_receives_the_averages(self, monkeypatch, block):
        # one block streams each average as it is formed; blocks of two make
        # three, whose total feeds the observer
        if block is not None:
            monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", block)
        psi0 = ket(1, GROUND, FockSpec(4))
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        grid = TimeGrid(0.0, 0.5, 0.001)
        seeds = [5, 2, 9, 0, 7]
        seen = []
        observed = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50,
                                observe=lambda times, stack: seen.extend(stack))
        collected = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50)
        assert observed.rho_avg is None
        assert len(seen) == len(collected.rho_avg) == len(collected.times) == 11
        for a, b in zip(seen, collected.rho_avg):
            assert np.array_equal(a, b.mat)
        assert np.array_equal(observed.times, collected.times)
        assert [r.events for r in observed.records] == [r.events for r in collected.records]
        assert observed.max_schmidt_entropies == collected.max_schmidt_entropies

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


def per_block_reference(psi0, config, model, grid, seeds, store_every, diagnostics, block):
    """run_ensemble's results built literally: one engine call per block of
    seeds, the blocks' projector sums added in block order, then divided."""
    total, records, entropies = None, [], []
    for lo in range(0, len(seeds), block):
        part = seeds[lo:lo + block]
        sums = []

        def store(i, parts):
            (psi, _), = parts
            sums.append(psi.T @ psi.conj())

        recs, ents, *_ = evolve._ensemble_chunk(psi0.vec, config, model, grid, store_every,
                                                diagnostics, store, part)
        if total is None:
            total = sums
        else:
            for acc, s in zip(total, sums, strict=True):
                acc += s
        records += recs
        entropies += ents
    for acc in total:
        acc /= len(seeds)
    return total, records, entropies


def run_workers(monkeypatch, workers, *args, **kwargs):
    """run_ensemble(*args, **kwargs) on CASCADESIM_WORKERS workers."""
    monkeypatch.setenv("CASCADESIM_WORKERS", str(workers))
    return run_ensemble(*args, **kwargs)


def failure_time(error) -> float:
    return float(re.search(r"at t=(\S+)", str(error)).group(1))


class TestLockstepBlocks:
    """One in-process engine call runs a window of seed blocks in lockstep,
    one block of dense rows or several of sector rows, and gives the bits of
    one call per block."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)
    SPEC = FockSpec(4)
    ROWS = {
        "birth_death": (BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1), ket(1, GROUND, SPEC)),
        "coherent_drive": (CoherentDrive(0.6), product_state(
            coherent_state(1.5, SPEC, warn=False), qubit_state(GROUND))),
        "free_decay": (FreeDecayMixture(((0.0, 1.0),)), ket(3, GROUND, SPEC)),
    }

    @pytest.mark.filterwarnings("ignore:step probability")
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(sorted(ROWS)), block=st.integers(1, 4),
           seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=9, unique=True),
           store_every=st.sampled_from([1, 7, 20, 140]), diagnostics=st.booleans())
    def test_matches_one_call_per_block(self, kind, block, seeds, store_every, diagnostics):
        model, psi0 = self.ROWS[kind]
        grid = TimeGrid(0.0, 0.7, 0.005)
        with (mock.patch.object(evolve, "ENSEMBLE_BLOCK", block),
              mock.patch.dict(os.environ, {"CASCADESIM_WORKERS": "1"})):
            ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=store_every,
                               diagnostics=diagnostics)
        avgs, records, entropies = per_block_reference(
            psi0, self.CFG, model, grid, seeds, store_every, diagnostics, block)
        for a, b in zip(ens.rho_avg, avgs, strict=True):
            assert np.array_equal(a.mat, b)
        assert [(r.seed, r.events) for r in ens.records] == [(r.seed, r.events) for r in records]
        assert ens.max_schmidt_entropies == entropies

    FAILING = {
        # the cavity fills until its emission crosses the hard step bound
        "dense_bound": (CFG, CoherentDrive(1.5), ket(0, GROUND, FockSpec(8)),
                        TimeGrid(0.0, 4.0, 0.02), StepProbabilityError),
        # the carrier grows until pump and gain cross it
        "sector_bound": (CFG, BirthDeathLaser(5.0, 0.5, 0.0, N0=2, n0=1), ket(1, GROUND, SPEC),
                         TimeGrid(0.0, 4.0, 0.01), StepProbabilityError),
        # a detuning of 1e160 overflows the squared norm within a few steps
        "dense_non_finite": (CouplingConfig(1.0, 0.5, 0.5, delta=1e160), CoherentDrive(0.3),
                             ket(1, GROUND, SPEC), TimeGrid(0.0, 0.1, 0.001),
                             InvariantViolationError),
        "sector_non_finite": (CouplingConfig(1.0, 0.5, 0.5, delta=1e160),
                              BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1), ket(1, GROUND, SPEC),
                              TimeGrid(0.0, 0.1, 0.001), InvariantViolationError),
    }

    @pytest.mark.filterwarnings("ignore:step probability", "ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("case", sorted(FAILING))
    def test_failure_across_blocks(self, monkeypatch, case):
        # in-process the failure is the earliest of any block's for sector
        # rows, which run in one window, and the first failing block's for
        # dense rows, which run one block a call; on a pool it is the first
        # failing block's.  The error class is the same
        cfg, model, psi0, grid, error = self.FAILING[case]
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        seeds = [5, 2, 9, 0, 7]
        raised = []
        for workers, part in [(1, seeds), (2, seeds), (1, seeds[:2]), (1, seeds[2:4]),
                              (1, seeds[4:])]:
            with pytest.raises(Exception) as info:
                run_workers(monkeypatch, workers, psi0, cfg, model, grid, part)
            assert type(info.value) is error
            raised.append(failure_time(info.value))
        lockstep, pool, *alone = raised
        assert lockstep == (min(alone) if case.startswith("sector") else alone[0])
        assert pool == alone[0]


class TestWindows:
    """In-process, run_ensemble steps the seed blocks a window at a time:
    one block of dense rows, or as many whole blocks of sector rows as
    WINDOW_BYTES holds.  Each engine call narrows its rows' rings of
    uniforms to RING_LANES; neither changes a bit, and the engine's memory
    stays bounded whatever the seed count."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("rows, width", [
        # A2's 20 rows and cli-roundtrip's 32 keep every uniform of a block
        (20, 64), (32, 64),
        # one block, as each of A8's two engine calls of dense rows
        (1024, 32),
        # A7 and laser-ensemble
        (2000, 16),
        (20000, streams_mod.RING_FLOOR),
    ])
    def test_ring_width(self, rows, width):
        assert streams_mod._ring_width(rows) == width
        assert 2 * width * rows <= streams_mod.RING_LANES or width == streams_mod.RING_FLOOR

    def test_bundled_ensembles_run_in_one_window(self):
        # A7's and laser-ensemble's 2000 sector rows stay one lockstep engine
        # call; A8's 2000 dense rows are two calls of one block each
        assert evolve._window(BirthDeathLaser(1.0, 0.5, 0.5, N0=2, n0=1)) == 5 * evolve.ENSEMBLE_BLOCK
        assert evolve._window(CoherentDrive(0.75)) == evolve.ENSEMBLE_BLOCK
        assert evolve._window(FreeDecayMixture(((0.5, 1.0),))) == evolve.ENSEMBLE_BLOCK

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("kind", ["birth_death", "coherent_drive"])
    def test_many_windows_give_one_window_bits(self, monkeypatch, kind):
        # seven seeds in blocks of two are four blocks: in-process, sector
        # rows run in one window of all four, two windows of two blocks or
        # four of one, and dense rows in four windows of one block whatever
        # WINDOW_BYTES is; on a pool, one block a task
        model, psi0 = TestLockstepBlocks.ROWS[kind]
        sector = isinstance(model, BirthDeathLaser)
        grid = TimeGrid(0.0, 0.7, 0.005)
        seeds = [5, 2, 9, 0, 7, 11, 3]
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        runs = {}
        for blocks, workers, calls in [(4, 1, 1), (2, 1, 2), (1, 1, 4), (1, 2, 0), (1, 3, 0)]:
            monkeypatch.setattr(evolve, "WINDOW_BYTES", blocks * 2 * (64 + evolve.ROW_BYTES))
            with mock.patch.object(evolve, "_ensemble_chunk", wraps=evolve._ensemble_chunk) as chunk:
                runs[blocks, workers] = run_workers(monkeypatch, workers, psi0, self.CFG,
                                                    model, grid, seeds, store_every=20)
            assert chunk.call_count == (calls if sector or workers > 1 else 4)
        one = runs[4, 1]
        assert max(one.max_schmidt_entropies) > 0.0 and len(one.rho_avg) == 8
        for ens in runs.values():
            assert [(r.seed, r.events) for r in ens.records] == \
                [(r.seed, r.events) for r in one.records]
            assert ens.max_schmidt_entropies == one.max_schmidt_entropies
            for a, b in zip(ens.rho_avg, one.rho_avg, strict=True):
                assert a.mat.tobytes() == b.mat.tobytes()

    @pytest.mark.filterwarnings("ignore:step probability", "ignore:overflow", "ignore:invalid value")
    @pytest.mark.parametrize("case", sorted(TestLockstepBlocks.FAILING))
    def test_failure_is_the_first_failing_windows(self, monkeypatch, case):
        # one block a window: in-process, the first failing window's error is
        # the first failing block's, as on a pool
        cfg, model, psi0, grid, error = TestLockstepBlocks.FAILING[case]
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        monkeypatch.setattr(evolve, "WINDOW_BYTES", 0)
        raised = []
        for workers in (1, 2):
            with pytest.raises(error) as info:
                run_workers(monkeypatch, workers, psi0, cfg, model, grid, [5, 2, 9, 0, 7])
            raised.append(str(info.value))
        assert raised[0] == raised[1]

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_memory_is_bounded_by_the_window(self, monkeypatch):
        # 20 000 seeds at A7's rates for 20 steps, diagnostics on: one window
        # of rows, the diagnostics history, and what the run returns for each
        # seed, a Record, its event list and its entropy, about 225 bytes
        # (tracemalloc); about 33 MB when every row was alive at once
        p = load_preset("a7.json")
        model = BirthDeathLaser(**p["source"])
        psi0 = ket(model.n0, GROUND, FockSpec(p["n_max"]))
        grid = TimeGrid(0.0, 20 * p["grid"]["dt"], p["grid"]["dt"])
        M = 20000
        bound = evolve.WINDOW_BYTES + 16 * evolve.DIAGNOSTIC_LANES + 320 * M
        monkeypatch.setenv("CASCADESIM_WORKERS", "1")
        tracemalloc.start()
        try:
            ens = run_ensemble(psi0, CouplingConfig(**p["coupling"]), model, grid, range(M),
                               store_every=grid.n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(ens.records) == M and len(ens.rho_avg) == 2
        assert peak <= bound


class Recorder:
    """An observer that keeps each (times, stack) block it is given, with a
    copy of the stack taken at the call."""

    def __init__(self):
        self.calls = []

    def __call__(self, times, stack):
        self.calls.append((times, stack, stack.copy()))

    def received(self, stored_times):
        """The states received, in order, once each block is checked: the
        blocks come in time order, each with the matching slice of
        stored_times, and no later call has written to a kept stack."""
        start = 0
        for times, stack, copy in self.calls:
            assert 0 < len(times) == len(stack)
            assert np.array_equal(times, stored_times[start:start + len(times)])
            assert stack.tobytes() == copy.tobytes()
            start += len(times)
        return [m for _, stack, _ in self.calls for m in stack]


class TestObserverContract:
    """Both integrators call observe(times, stack) with blocks of stored
    states in time order, each with its slice of grid.stored_times; no later
    call writes to a stack an observer kept, and a failure leaves the
    observer with exactly the states before it."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("store_every", [1, 3])
    def test_master_states(self, rng, store_every):
        from conftest import random_density

        spec = FockSpec(3)
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        L = (build_L_S(CoherentDrive(0.5 - 0.2j), spec)
             + build_L_T(cfg, spec) + build_L_ST(cfg, spec))
        rho0 = random_density(spec.dim, rng)
        # 20 stored states after rho0: two full blocks and a part
        grid = TimeGrid(0.0, 20 * store_every * 0.01, 0.01)
        seen = Recorder()
        assert evolve_master(rho0, L, grid, store_every=store_every, observe=seen) is None
        received = seen.received(grid.stored_times(store_every))
        assert [len(times) for times, _, _ in seen.calls] == \
            [1, STORE_BLOCK, STORE_BLOCK, 20 - 2 * STORE_BLOCK]
        states = evolve_master(rho0, L, grid, store_every=store_every)
        assert len(received) == len(states) == 21
        for a, b in zip(received, states):
            assert np.array_equal(a, b.mat)

    @pytest.mark.parametrize("kind", ["trace", "negativity"])
    def test_master_failure(self, monkeypatch, kind):
        # a trace failure is found as the state is stored, a negative
        # eigenvalue when its block is full
        checks = TestStoredStateChecks()
        spec = FockSpec(3)
        rho0 = DensityOperator(ket(1, GROUND, spec).projector())
        grid = TimeGrid(0.0, checks.STORED * checks.DT, checks.DT)
        where = STORE_BLOCK + STORE_BLOCK // 2
        L = checks.drifting(kind, spec, 1e-8 / ((where - 0.5) * checks.DT))
        seen = Recorder()
        with pytest.raises(InvariantViolationError):
            evolve_master(rho0, L, grid, observe=seen)
        received = seen.received(grid.stored_times(1))
        assert len(received) == where
        for a, b in zip(received, nested_rk4(rho0, L, grid, 1)):
            assert np.array_equal(a, b)

    @staticmethod
    def paths(monkeypatch, path):
        """Make run_ensemble take path: every seed in one window ("online"),
        one seed block of two a window ("windows"), or a pool ("pool")."""
        if path != "online":
            monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
            monkeypatch.setattr(evolve, "WINDOW_BYTES", 0)
        monkeypatch.setenv("CASCADESIM_WORKERS", "2" if path == "pool" else "1")

    @pytest.mark.parametrize("path", ["online", "windows", "pool"])
    def test_ensemble_averages(self, monkeypatch, path):
        # one block rule in one window, in several and on a pool: the
        # averages are handed on in time order, STORE_BLOCK at a time
        self.paths(monkeypatch, path)
        psi0 = ket(1, GROUND, FockSpec(4))
        model = BirthDeathLaser(1.0, 0.5, 0.3, N0=2, n0=1)
        grid = TimeGrid(0.0, 0.5, 0.001)
        seeds = [5, 2, 9, 0, 7]
        seen = Recorder()
        assert run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50,
                            observe=seen).rho_avg is None
        received = seen.received(grid.stored_times(50))
        assert [len(times) for times, _, _ in seen.calls] == [STORE_BLOCK, 11 - STORE_BLOCK]
        collected = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=50)
        assert len(received) == len(collected.rho_avg) == 11
        for a, b in zip(received, collected.rho_avg):
            assert np.array_equal(a, b.mat)

    @pytest.mark.filterwarnings("ignore:step probability")
    @pytest.mark.parametrize("path", ["online", "windows", "pool"])
    def test_ensemble_failure(self, monkeypatch, path):
        # the step from t fails after the average at t is formed, and the
        # averages held are handed on before the failure propagates; here a
        # seed of the first of two windows fails, before the last window
        # forms any average, and on a pool no average is whole before every
        # block is in, so the observer is not called
        cfg, model, psi0, grid, error = TestLockstepBlocks.FAILING["dense_bound"]
        self.paths(monkeypatch, path)
        seeds = [5, 2, 9]
        seen = Recorder()
        with pytest.raises(error) as info:
            run_ensemble(psi0, cfg, model, grid, seeds, observe=seen)
        received = seen.received(grid.stored_times(1))
        if path != "online":
            assert received == []
            return
        k = round(failure_time(info.value) / grid.dt)
        assert 0 < k < grid.n_steps
        before = run_ensemble(psi0, cfg, model, TimeGrid(0.0, k * grid.dt, grid.dt), seeds)
        for a, b in zip(received, before.rho_avg, strict=True):
            assert np.array_equal(a, b.mat)

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_failure_in_the_last_window(self, monkeypatch):
        # seed 11 alone crosses the hard step bound, at t=0.06: in two
        # windows, [0, 1] and [11], the last window fails after forming the
        # averages at 0 and 0.05 from the first window's total and its own
        # sums, the bits that one window of both blocks hands on
        psi0 = ket(1, GROUND, FockSpec(6))
        model = BirthDeathLaser(2.0, 0.5, 1.0, N0=2, n0=1)
        grid = TimeGrid(0.0, 1.0, 0.01)
        monkeypatch.setattr(evolve, "ENSEMBLE_BLOCK", 2)
        received = {}
        for window_bytes in (0, evolve.WINDOW_BYTES):
            monkeypatch.setattr(evolve, "WINDOW_BYTES", window_bytes)
            seen = Recorder()
            with pytest.raises(StepProbabilityError) as info:
                run_workers(monkeypatch, 1, psi0, self.CFG, model, grid, [0, 1, 11],
                            store_every=5, observe=seen)
            assert failure_time(info.value) == 0.06
            received[window_bytes] = seen.received(grid.stored_times(5))
        two, one = received.values()
        assert len(two) == len(one) == 2
        for a, b in zip(two, one):
            assert a.tobytes() == b.tobytes()


class TestUniformRing:
    """Each row reads its stream from a ring of two uniform blocks, and one
    kernel call refills every row with room; the records are the scalar
    oracle's and each seed's own, however far the rows' draws drift apart.
    A ring of two-uniform blocks refills on nearly every step and often
    skips rows."""

    CFG = CouplingConfig(1.0, 0.5, 0.5)
    # step probabilities up to about 0.097: rows jump on consecutive steps,
    # and so draw two uniforms on each of them
    NEAR_BOUND = {
        "birth_death": (BirthDeathLaser(1.0, 0.3, 1.0, N0=1, n0=1), ket(1, GROUND, FockSpec(5)),
                        TimeGrid(0.0, 8.4, 0.012), range(16)),
        "coherent_drive": (CoherentDrive(1.0), product_state(
            coherent_state(1.5, FockSpec(8), warn=False), qubit_state(GROUND)),
                           TimeGrid(0.0, 9.0, 0.015), range(8)),
    }

    def check_records(self, model, psi0, grid, seeds):
        """Assert that a lockstep run's records, and each seed's own
        trajectory, are the scalar oracle's; return the records."""
        ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=grid.n_steps,
                           diagnostics=False)
        for seed, record in zip(seeds, ens.records):
            events, states, carriers = scalar_mcwf(psi0, self.CFG, model, grid, seed,
                                                   store_every=20)
            r = one_trajectory(psi0, self.CFG, model, grid, seed=seed, store_every=20)
            assert len(events) > 0
            assert record.seed == seed and record.events == events
            assert r.record.events == events
            assert np.max(np.abs(r.states - states)) < 1e-12
            if r.carriers is not None:
                assert np.array_equal(r.carriers, carriers)
        return ens.records

    @pytest.mark.parametrize("block", [2, UNIFORM_BLOCK])
    @pytest.mark.parametrize("case", sorted(NEAR_BOUND))
    def test_jumps_on_consecutive_steps(self, monkeypatch, case, block):
        monkeypatch.setattr(streams_mod, "UNIFORM_BLOCK", block)
        model, psi0, grid, seeds = self.NEAR_BOUND[case]
        with warnings.catch_warnings(record=True) as caught, \
                mock.patch.object(streams_mod, "_pcg64_fill",
                                  wraps=streams_mod._pcg64_fill) as fill:
            warnings.simplefilter("always")
            records = self.check_records(model, psi0, grid, seeds)
        # every refill of every engine call was a block of the patched width
        assert {call.args[1].shape[1] for call in fill.call_args_list} == {block}
        largest = max(float(str(w.message).split()[2]) for w in caught
                      if "step probability" in str(w.message))
        assert 0.085 < largest <= evolve.HARD_STEP_PROBABILITY
        consecutive = sum(1 for r in records for (t0, _), (t1, _) in zip(r.events, r.events[1:])
                          if t1 - t0 < 1.5 * grid.dt)
        assert consecutive >= 8

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(block=st.sampled_from([2, 4, 8]),
           extra=st.lists(st.one_of(st.sampled_from(BOUNDARY_SEEDS[2:]), st.integers(6, 2**70)),
                          max_size=3, unique=True))
    def test_out_of_step_refills_draw_default_rng(self, block, extra):
        # seeds 0 and 5 of these 300 steps make 5 and 13 jumps, so rows drift
        # apart by more than a block: refills reach only some rows, into both
        # halves of the lane-major ring at once.  Every record is still its
        # seed's scalar oracle's, whatever seeds step beside them
        model = BirthDeathLaser(1.0, 0.3, 1.0, N0=1, n0=1)
        psi0, grid = ket(1, GROUND, FockSpec(5)), TimeGrid(0.0, 1.5, 0.005)
        seeds = [*range(6), *extra]
        with mock.patch.object(streams_mod, "UNIFORM_BLOCK", block), \
                mock.patch.object(streams_mod, "_pcg64_fill",
                                  wraps=streams_mod._pcg64_fill) as fill, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ens = run_ensemble(psi0, self.CFG, model, grid, seeds, store_every=grid.n_steps,
                               diagnostics=False)
            for seed, record in zip(seeds, ens.records):
                events, _, _ = scalar_mcwf(psi0, self.CFG, model, grid, seed, grid.n_steps)
                assert record.seed == seed and record.events == events
        assert [len(r.events) for r in ens.records[:6]] == [5, 2, 4, 3, 3, 13]
        assert any(len(call.args[1]) < len(seeds) for call in fill.call_args_list)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(width=st.sampled_from([2, 4, 8, 16, 32, 64]),
           seeds=st.lists(st.one_of(st.sampled_from(BOUNDARY_SEEDS), st.integers(0, 2**70)),
                          min_size=2, max_size=6, unique=True),
           data=st.data())
    def test_ring_alone_draws_default_rng(self, width, seeds, data):
        # the ring without the engine: each step draws every row's uniform,
        # then one more for a drawn set of rows, as for the step's jumpers.
        # Row 0 draws twice every step and row 1 once, so they drift more
        # than a block apart and refills reach only some rows
        M = len(seeds)
        steps = data.draw(st.integers(3 * width, 3 * width + 20))
        bits = data.draw(st.integers(0, 2 ** (steps * M) - 1))
        drawn = [[] for _ in seeds]
        with mock.patch.object(streams_mod, "UNIFORM_BLOCK", width), \
                mock.patch.object(streams_mod, "_pcg64_fill",
                                  wraps=streams_mod._pcg64_fill) as fill:
            ring = UniformRing(seeds)
            for step in range(steps):
                for m, u in enumerate(ring.draw_all()):
                    drawn[m].append(u)
                idx = np.array([0, *(m for m in range(2, M) if bits >> (step * M + m) & 1)])
                for m, u in zip(idx, ring.draw(idx)):
                    drawn[m].append(u)
        assert ring.width == width
        in_ring = [np.shares_memory(call.args[1], ring.ring) for call in fill.call_args_list]
        assert any(in_ring) and not all(in_ring)
        for seed, u in zip(seeds, drawn):
            assert np.array_equal(u, np.random.default_rng(seed).random(len(u)))

    @pytest.mark.filterwarnings("ignore:step probability")
    def test_more_than_five_ring_turns(self):
        model, psi0, _ = TestEngineOracle.CASES["birth_death"]
        grid = TimeGrid(0.0, 4.0, 0.005)
        assert grid.n_steps > 5 * 2 * UNIFORM_BLOCK
        self.check_records(model, psi0, grid, range(6))

    @pytest.mark.parametrize("block", [2, UNIFORM_BLOCK])
    def test_step_probability_error_mid_run(self, monkeypatch, block):
        # seed 5's carrier grows until the pump and the non-lasing loss cross
        # the bound, after its ring has turned; the message is pinned from a
        # run on numpy's own Generator streams
        monkeypatch.setattr(streams_mod, "UNIFORM_BLOCK", block)
        model = BirthDeathLaser(1.5, 0.3, 1.5, N0=1, n0=1)
        psi0, grid = ket(1, GROUND, FockSpec(5)), TimeGrid(0.0, 7.0, 0.01)
        message = "step probability 0.105 > 0.1 at t=1.48 (largest channel: nonlasing); reduce dt"
        assert 1.48 / grid.dt > 2 * UNIFORM_BLOCK
        with warnings.catch_warnings(), \
                mock.patch.object(streams_mod, "_pcg64_fill",
                                  wraps=streams_mod._pcg64_fill) as fill:
            warnings.simplefilter("ignore")
            with pytest.raises(StepProbabilityError) as info:
                run_ensemble(psi0, self.CFG, model, grid, range(16))
            assert str(info.value) == message
            with pytest.raises(StepProbabilityError) as info:
                run_ensemble(psi0, self.CFG, model, grid, [5])
            assert str(info.value) == message
            for seed in [*range(5), *range(6, 16)]:
                run_ensemble(psi0, self.CFG, model, grid, [seed], store_every=grid.n_steps,
                             diagnostics=False)
        assert {call.args[1].shape[1] for call in fill.call_args_list} == {block}
