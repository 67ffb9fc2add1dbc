import math

import numpy as np
import pytest

from cascadesim.analysis import (
    PhaseAveragedSpec,
    negativity,
    phase_averaged_state,
    schmidt_entropy,
    support_pattern_check,
    trace_distance,
)
from cascadesim.errors import DimensionMismatchError, InvariantViolationError
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    SOURCE,
    TARGET,
    DensityOperator,
    FockSpec,
    coherent_state,
    fock_state,
    partial_trace,
    product_state,
    qubit_state,
)

SPEC = FockSpec(3)


def ket(n, q, spec=SPEC):
    return product_state(fock_state(n, spec), qubit_state(q))


def binary_entropy(p):
    return -p * np.log2(p) - (1 - p) * np.log2(1 - p)


class TestSchmidtEntropy:
    def test_product_state_is_zero(self):
        assert schmidt_entropy(ket(2, EXCITED).vec) == 0.0

    def test_bell_state_is_one(self):
        v = (ket(1, GROUND).vec + ket(0, EXCITED).vec) / np.sqrt(2)
        assert abs(schmidt_entropy(v) - 1.0) < 1e-12

    def test_partial_entanglement(self):
        # weights 0.8 / 0.2 give the binary entropy h(0.2)
        v = np.sqrt(0.8) * ket(1, GROUND).vec + np.sqrt(0.2) * ket(0, EXCITED).vec
        assert abs(schmidt_entropy(v) - binary_entropy(0.2)) < 1e-12

    def test_rejects_unnormalized(self):
        with pytest.raises(InvariantViolationError):
            schmidt_entropy(2.0 * ket(0, GROUND).vec)

    def test_matches_reduced_state_entropy(self, rng):
        from conftest import random_state

        v = random_state(SPEC.dim, rng)
        rho_T = partial_trace(np.outer(v, v.conj()), TARGET)
        lam = np.linalg.eigvalsh(rho_T)
        lam = lam[lam > 1e-14]
        assert abs(schmidt_entropy(v) + np.sum(lam * np.log2(lam))) < 1e-10


class TestNegativity:
    def test_product_state_is_zero(self):
        assert negativity(ket(1, EXCITED).projector()) < 1e-12

    def test_bell_state_is_half(self):
        v = (ket(1, GROUND).vec + ket(0, EXCITED).vec) / np.sqrt(2)
        assert abs(negativity(np.outer(v, v.conj())) - 0.5) < 1e-12

    def test_separable_mixture_is_zero(self, rng):
        acc = np.zeros((SPEC.dim, SPEC.dim), dtype=complex)
        for n, q, w in ((0, GROUND, 0.3), (2, EXCITED, 0.5), (1, GROUND, 0.2)):
            acc += w * ket(n, q).projector()
        assert negativity(acc) < 1e-12



class TestCompositeShape:
    """A composite state is a square matrix of even dimension >= 4; a (2, 2)
    target state, an odd dimension and a non-square matrix are refused."""

    @pytest.mark.parametrize("mat", [np.eye(2) / 2, np.eye(5) / 5, np.ones((4, 6))],
                             ids=["target", "odd", "non-square"])
    @pytest.mark.parametrize("call", [
        lambda m: partial_trace(m, SOURCE),
        lambda m: partial_trace(m, TARGET),
        negativity,
        lambda m: support_pattern_check(DensityOperator(m), tol=0.0),
    ], ids=["partial_trace-source", "partial_trace-target", "negativity",
            "support_pattern_check"])
    def test_refused(self, call, mat):
        with pytest.raises(DimensionMismatchError):
            call(mat)


class TestTraceDistance:
    def test_identical_states(self, rng):
        from conftest import random_density

        rho = random_density(6, rng)
        assert trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        r1 = DensityOperator(ket(0, GROUND).projector())
        r2 = DensityOperator(ket(1, EXCITED).projector())
        assert abs(trace_distance(r1, r2) - 1.0) < 1e-12

    def test_classical_mixtures(self):
        # diagonal states reduce to half the l1 distance of the diagonals
        p = np.array([0.5, 0.3, 0.2, 0.0])
        q = np.array([0.25, 0.25, 0.25, 0.25])
        r1 = DensityOperator(np.diag(p).astype(complex))
        r2 = DensityOperator(np.diag(q).astype(complex))
        assert abs(trace_distance(r1, r2) - 0.5 * np.sum(np.abs(p - q))) < 1e-12

    def test_symmetry_and_triangle(self, rng):
        from conftest import random_density

        a, b, c = (random_density(6, rng) for _ in range(3))
        assert abs(trace_distance(a, b) - trace_distance(b, a)) < 1e-12
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


class TestSupportPattern:
    def test_sector_state_passes(self):
        v = (ket(2, GROUND).vec + ket(1, EXCITED).vec) / np.sqrt(2)
        ok, offending = support_pattern_check(
            DensityOperator(np.outer(v, v.conj())), tol=1e-12
        )
        assert ok and offending == []

    def test_injected_violation_reported(self):
        rho = 0.5 * (ket(2, GROUND).projector() + ket(1, EXCITED).projector())
        i = 2 * 2 + GROUND   # |2,->
        j = 2 * 0 + GROUND   # |0,->: different total quanta
        rho[i, j] = rho[j, i] = 1e-3
        ok, offending = support_pattern_check(DensityOperator(rho), tol=1e-4)
        assert not ok
        assert (i, j, 1e-3) in offending

    def test_tolerance_masks_small_leakage(self):
        rho = ket(1, GROUND).projector()
        rho[2 * 1 + GROUND, 2 * 0 + GROUND] = 1e-9
        ok, _ = support_pattern_check(DensityOperator(rho), tol=1e-8)
        assert ok

    def test_coherent_product_fails(self):
        # a coherent source state spreads across quanta sectors
        spec = FockSpec(19)
        rho = DensityOperator(
            product_state(coherent_state(1.0, spec), qubit_state(GROUND)).projector()
        )
        ok, offending = support_pattern_check(rho, tol=1e-6)
        assert not ok and len(offending) > 0

    @staticmethod
    def literal_check(rho, tol):
        """The support check as a loop over entries, with the scalar abs();
        the total quanta of |n, q> counted from the basis order n, q.  An
        entry is reported unless its |value| is below tol, so NaN is."""
        quanta = [i // 2 + (i % 2 == EXCITED) for i in range(rho.dim)]
        above = ~(np.abs(rho.mat) < tol)
        offending = [(i, j, float(abs(rho.mat[i, j])))
                     for i in range(rho.dim) for j in range(rho.dim)
                     if quanta[i] != quanta[j] and above[i, j]]
        return len(offending) == 0, offending

    @pytest.mark.parametrize("tol", [0.0, 0.25, 2.0])
    def test_matches_literal_loop(self, rng, tol):
        # d 30 of random entries, NaN and infinite ones among them, one
        # exactly at tol and one just below; repr compares the types and bits
        d = 30
        mat = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
        mat[0, 3] = mat[5, 2] = complex(np.nan, 1.0)
        mat[7, 0] = complex(np.inf, np.nan)
        mat[4, 9] = -np.inf
        mat[1, 10] = tol
        mat[2, 11] = np.nextafter(tol, 0.0) * 1j
        rho = DensityOperator(mat)
        got = support_pattern_check(rho, tol)
        assert repr(got) == repr(self.literal_check(rho, tol))
        assert (1, 10, tol) in got[1]
        assert any((i, j) == (2, 11) for i, j, _ in got[1]) == (tol == 0.0)

    @pytest.mark.parametrize("tol", [0.0, 1e-8])
    def test_nan_outside_the_pattern_is_reported(self, tol):
        # |0,-> and |1,-> lie in different sectors; a NaN coherence between
        # them is neither below nor at tol, and must not pass as small
        rho = ket(1, GROUND, FockSpec(2)).projector()
        rho[2, 0] = np.nan
        ok, offending = support_pattern_check(DensityOperator(rho), tol)
        assert not ok
        assert [(i, j) for i, j, v in offending if math.isnan(v)] == [(2, 0)]
        if tol > 0.0:
            assert len(offending) == 1


class TestPhaseAveraged:
    def test_spec_validation(self):
        with pytest.raises(ValueError):
            PhaseAveragedSpec(((1.0, 1.0),), 0.9, 0.9, 64)
        with pytest.raises(ValueError):
            PhaseAveragedSpec(((1.0, 0.7), (2.0, 0.7)), 1.0, 0.0, 64)

    def test_resolution_guard(self):
        spec = PhaseAveragedSpec(((1.0, 1.0),), 1.0, 0.0, 8)
        with pytest.raises(ValueError, match="alias"):
            phase_averaged_state(spec, FockSpec(12))

    def test_zero_radius_is_vacuum_product(self):
        # r = 0 removes all phase dependence from the source factor but the
        # qubit phases still average the +/- coherence to zero
        a, b = np.sqrt(0.7), np.sqrt(0.3)
        spec = PhaseAveragedSpec(((0.0, 1.0),), a, b, 16)
        fock = FockSpec(4)
        rho = phase_averaged_state(spec, fock)
        rho_T = partial_trace(rho, TARGET)
        assert abs(rho_T[EXCITED, EXCITED] - 0.3) < 1e-12
        assert abs(rho_T[GROUND, EXCITED]) < 1e-12
        rho_S = partial_trace(rho, SOURCE)
        assert abs(rho_S[0, 0] - 1.0) < 1e-12

    def test_ground_qubit_gives_ring_product(self):
        fock = FockSpec(6)
        spec = PhaseAveragedSpec(((0.8, 1.0),), 1.0, 0.0, 4 * fock.n_max)
        rho = phase_averaged_state(spec, fock)
        rho_S = partial_trace(rho, SOURCE)
        # exact uniform ring: Poissonian diagonal, no off-diagonals
        off = rho_S - np.diag(np.diag(rho_S))
        assert np.max(np.abs(off)) < 1e-12
        n = np.arange(fock.fock_dim)
        pois = np.exp(-0.64) * 0.64 ** n / np.array([math.factorial(int(k)) for k in n])
        assert np.max(np.abs(np.diag(rho_S).real - pois)) < 1e-4

    def test_supports_sector_pattern(self):
        # the half-angle qubit phases lock the mixture into the allowed
        # equal-quanta pattern even though every component is a product
        fock = FockSpec(5)
        spec = PhaseAveragedSpec(((0.6, 0.5), (1.0, 0.5)), np.sqrt(0.7), np.sqrt(0.3),
                                 4 * fock.n_max)
        rho = phase_averaged_state(spec, fock)
        ok, offending = support_pattern_check(DensityOperator(rho), tol=1e-10)
        assert ok, offending

    def test_bit_identical_to_kron_sum(self):
        # the straightforward form: sum of (w / K) kron(|alpha><alpha|, |t><t|)
        fock = FockSpec(6)
        spec = PhaseAveragedSpec(((0.0, 0.2), (0.6, 0.5), (1.1, 0.3)), np.sqrt(0.7),
                                 np.sqrt(0.3), 4 * fock.n_max + 3)
        K = spec.phase_points
        expect = np.zeros((fock.dim, fock.dim), dtype=complex)
        for r, w in spec.radial_weights:
            for k in range(K):
                phi = 2.0 * np.pi * k / K
                src = coherent_state(r * np.exp(1j * phi), fock).projector()
                t = np.array([spec.a_prime * np.exp(-0.5j * phi),
                              spec.b_prime * np.exp(0.5j * phi)])
                expect += (w / K) * np.kron(src, np.outer(t, t.conj()))
        assert np.array_equal(phase_averaged_state(spec, fock), expect)

    def test_unit_trace_and_positivity(self):
        fock = FockSpec(5)
        spec = PhaseAveragedSpec(((0.5, 1.0),), np.sqrt(0.5), np.sqrt(0.5),
                                 4 * fock.n_max)
        DensityOperator(phase_averaged_state(spec, fock)).check()
