import numpy as np
import pytest

from cascadesim.errors import DimensionMismatchError
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    FockSpec,
    coherent_state,
    fock_state,
    product_state,
    qubit_state,
)
from cascadesim.liouvillian import (
    CouplingConfig,
    Superoperator,
    SuperoperatorTerm,
    apply,
    block_gather,
    build_H_ST,
    build_H_T,
    build_jump_ops,
    build_L_ST,
    build_L_T,
    build_nonhermitian_H,
    regroup,
    to_matrix,
)
from cascadesim.sources import CoherentDrive, FreeDecayMixture, build_L_S
from cascadesim.ansatz import drive_hamiltonian
from conftest import random_density

SPEC = FockSpec(3)


def composite_ket(n, q, spec=SPEC):
    return product_state(fock_state(n, spec), qubit_state(q)).vec


def vec_col(m):
    """Column-stacking vectorization matching the to_matrix convention."""
    return m.flatten(order="F")


class TestConfig:
    def test_rates_validated(self):
        with pytest.raises(ValueError):
            CouplingConfig(gamma_S=0.0)
        with pytest.raises(ValueError):
            CouplingConfig(gamma_Tf=-1.0)

    @pytest.mark.parametrize("field", ["gamma_S", "gamma_Tf", "gamma_Ts", "delta"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            CouplingConfig(**{field: value})

    def test_total_rate(self):
        assert CouplingConfig(1.0, 0.3, 0.2).gamma_T == 0.5


class TestHamiltonians:
    def test_H_T_resonant_is_zero(self):
        assert np.allclose(build_H_T(CouplingConfig(delta=0.0), SPEC).mat, 0.0)

    def test_H_T_detuned(self):
        H = build_H_T(CouplingConfig(delta=1.0), SPEC).mat
        plus = composite_ket(0, EXCITED)
        assert abs(np.vdot(plus, H @ plus) - 1.0) < 1e-14
        assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_H_ST_decouples_without_forward_channel(self):
        assert np.allclose(build_H_ST(CouplingConfig(gamma_Tf=0.0), SPEC).mat, 0.0)

    def test_H_ST_matrix_element(self):
        # <0,+| H_ST |1,-> = -i/2 at unit rates, by direct evaluation
        cfg = CouplingConfig(gamma_S=1.0, gamma_Tf=1.0, gamma_Ts=0.5)
        H = build_H_ST(cfg, SPEC).mat
        el = np.vdot(composite_ket(0, EXCITED), H @ composite_ket(1, GROUND))
        assert abs(el - (-0.5j)) < 1e-14

    def test_H_ST_hermitian(self):
        H = build_H_ST(CouplingConfig(1.0, 0.7, 0.2), SPEC).mat
        assert np.max(np.abs(H - H.conj().T)) < 1e-15


class TestJumpOps:
    def test_side_vanishes(self):
        _, s = build_jump_ops(CouplingConfig(gamma_Ts=0.0), SPEC)
        assert np.allclose(s.mat, 0.0)

    def test_forward_cavity_only(self):
        f, _ = build_jump_ops(CouplingConfig(1.0, 0.0, 0.5), SPEC)
        out = f.mat @ composite_ket(1, GROUND)
        assert np.allclose(out, composite_ket(0, GROUND))

    def test_forward_qubit_only(self):
        f, _ = build_jump_ops(CouplingConfig(1.0, 4.0, 0.0), SPEC)
        # gamma_S multiplies a, which kills |0>; only the qubit term remains
        out = f.mat @ composite_ket(0, EXCITED)
        assert np.allclose(out, 2.0 * composite_ket(0, GROUND))


class TestTargetGenerator:
    def test_dark_state(self):
        rho = np.outer(composite_ket(0, GROUND), composite_ket(0, GROUND))
        out = apply(build_L_T(CouplingConfig(delta=0.0), SPEC), rho)
        assert np.max(np.abs(out)) < 1e-15

    def test_excited_decay_block(self):
        cfg = CouplingConfig(1.0, 0.5, 0.3)
        up = np.outer(composite_ket(0, EXCITED), composite_ket(0, EXCITED))
        down = np.outer(composite_ket(0, GROUND), composite_ket(0, GROUND))
        out = apply(build_L_T(cfg, SPEC), up)
        assert np.max(np.abs(out - cfg.gamma_Ts * (down - up))) < 1e-14

    def test_trace_free(self, rng):
        L = build_L_T(CouplingConfig(1.0, 0.4, 0.6, delta=0.3), SPEC)
        for _ in range(5):
            rho = random_density(SPEC.dim, rng)
            assert abs(np.trace(apply(L, rho))) < 1e-12


def literal_L_ST(cfg, spec, rho):
    """Independent oracle: term-by-term coupling generator built from scratch."""
    d = spec.fock_dim
    a = np.zeros((d, d), dtype=complex)
    for n in range(1, d):
        a[n - 1, n] = np.sqrt(n)
    a = np.kron(a, np.eye(2))
    b = np.kron(np.eye(d), np.array([[0, 1], [0, 0]], dtype=complex))
    H = 0.5j * np.sqrt(cfg.gamma_S * cfg.gamma_Tf) * (a.conj().T @ b - a @ b.conj().T)
    f = np.sqrt(cfg.gamma_S) * a + np.sqrt(cfg.gamma_Tf) * b
    fd = f.conj().T
    return (-1j * (H @ rho - rho @ H)
            + f @ rho @ fd - 0.5 * (fd @ f @ rho + rho @ fd @ f))


class TestCouplingGenerator:
    def test_trace_free(self, rng):
        L = build_L_ST(CouplingConfig(1.0, 0.5, 0.5), SPEC)
        for _ in range(5):
            assert abs(np.trace(apply(L, random_density(SPEC.dim, rng)))) < 1e-12

    def test_bare_cavity_decay(self):
        cfg = CouplingConfig(gamma_S=1.0, gamma_Tf=0.0, gamma_Ts=0.0)
        one = np.outer(composite_ket(1, GROUND), composite_ket(1, GROUND))
        zero = np.outer(composite_ket(0, GROUND), composite_ket(0, GROUND))
        out = apply(build_L_ST(cfg, SPEC), one)
        assert np.max(np.abs(out - (zero - one))) < 1e-14

    def test_matches_literal_oracle(self, rng):
        cfg = CouplingConfig(1.0, 1.0, 0.3)
        L = build_L_ST(cfg, SPEC)
        one = np.outer(composite_ket(1, GROUND), composite_ket(1, GROUND))
        assert np.max(np.abs(apply(L, one) - literal_L_ST(cfg, SPEC, one))) < 1e-14
        rho = random_density(SPEC.dim, rng).mat
        assert np.max(np.abs(apply(L, rho) - literal_L_ST(cfg, SPEC, rho))) < 1e-13


class TestRegrouping:
    def sum_matrix(self, parts):
        return sum(to_matrix(p) for p in parts)

    def test_identity_coherent_drive(self, rng):
        for _ in range(5):
            cfg = CouplingConfig(*rng.uniform(0.2, 2.0, size=3), delta=rng.normal())
            model = CoherentDrive(rng.normal() + 1j * rng.normal())
            L_S = build_L_S(model, SPEC)
            lhs = self.sum_matrix([L_S, build_L_T(cfg, SPEC), build_L_ST(cfg, SPEC)])
            rhs = self.sum_matrix(regroup(L_S, cfg))
            assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_identity_free_decay(self, rng):
        cfg = CouplingConfig(1.3, 0.8, 0.4)
        L_S = build_L_S(FreeDecayMixture(((1.0, 1.0),)), SPEC)
        lhs = self.sum_matrix([L_S, build_L_T(cfg, SPEC), build_L_ST(cfg, SPEC)])
        rhs = self.sum_matrix(regroup(L_S, cfg))
        assert np.max(np.abs(lhs - rhs)) < 1e-12

    def test_coupling_vanishes_without_forward_channel(self):
        cfg = CouplingConfig(1.0, 0.0, 0.5)
        _, _, Lp_ST = regroup(build_L_S(FreeDecayMixture(((0.5, 1.0),)), SPEC), cfg)
        assert np.max(np.abs(to_matrix(Lp_ST))) < 1e-15

    def test_coherent_projector_reduces_to_classical_drive(self, rng):
        # coupling acting on |alpha><alpha| (x) rho_T collapses to the
        # classical-field commutator on the target alone
        cfg = CouplingConfig(1.0, 0.8, 0.3)
        spec = FockSpec(20)
        alpha = 0.9
        _, _, Lp_ST = regroup(build_L_S(FreeDecayMixture(((0.0, 1.0),)), spec), cfg)
        P = coherent_state(alpha, spec).projector()
        rho_T = random_density(2, rng).mat
        Hd = drive_hamiltonian(alpha, cfg).mat
        lhs = apply(Lp_ST, np.kron(P, rho_T))
        rhs = np.kron(P, -1j * (Hd @ rho_T - rho_T @ Hd))
        assert np.linalg.norm(lhs - rhs) < 1e-7


class TestNonhermitianH:
    def test_operator_identity(self):
        for cfg in (CouplingConfig(1.0, 0.5, 0.5),
                    CouplingConfig(2.0, 1.3, 0.1, delta=0.7)):
            f, s = build_jump_ops(cfg, SPEC)
            lhs = (build_H_T(cfg, SPEC).mat + build_H_ST(cfg, SPEC).mat
                   - 0.5j * (s.dag().mat @ s.mat) - 0.5j * (f.dag().mat @ f.mat))
            assert np.max(np.abs(lhs - build_nonhermitian_H(cfg, SPEC).mat)) < 1e-13

    def test_matrix_element(self):
        cfg = CouplingConfig(1.0, 1.0, 0.0)
        H = build_nonhermitian_H(cfg, SPEC).mat
        el = np.vdot(composite_ket(0, EXCITED), H @ composite_ket(1, GROUND))
        assert abs(el - (-1j)) < 1e-14

    def test_norm_nonincreasing(self, rng):
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        H = build_nonhermitian_H(cfg, SPEC).mat
        dt = 0.001
        U = np.eye(SPEC.dim) - 1j * dt * H
        for _ in range(5):
            v = rng.normal(size=SPEC.dim) + 1j * rng.normal(size=SPEC.dim)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(U @ v) <= 1.0 + 1e-12


class TestSuperoperatorForm:
    def test_zero_superoperator(self, rng):
        L = Superoperator([], SPEC.dim)
        assert np.max(np.abs(apply(L, random_density(SPEC.dim, rng)))) == 0.0

    def test_identity_superoperator(self):
        eye = np.eye(4, dtype=complex)
        L = Superoperator([SuperoperatorTerm(eye, eye, 1.0)], 4)
        assert np.allclose(to_matrix(L), np.eye(16))

    def test_matrix_agrees_with_apply(self, rng):
        cfg = CouplingConfig(1.0, 0.6, 0.4, delta=0.2)
        L = build_L_T(cfg, SPEC) + build_L_ST(cfg, SPEC)
        M = to_matrix(L)
        for _ in range(20):
            rho = random_density(SPEC.dim, rng).mat
            direct = apply(L, rho)
            via_matrix = (M @ vec_col(rho)).reshape(SPEC.dim, SPEC.dim, order="F")
            assert np.max(np.abs(direct - via_matrix)) < 1e-12

    def test_trace_row_annihilated(self):
        cfg = CouplingConfig(1.0, 0.6, 0.4)
        M = to_matrix(build_L_ST(cfg, SPEC))
        eye_row = vec_col(np.eye(SPEC.dim, dtype=complex)).conj()
        assert np.max(np.abs(eye_row @ M)) < 1e-12

    def test_dimension_limit(self):
        spec = FockSpec(40)
        with pytest.raises(DimensionMismatchError):
            to_matrix(build_L_T(CouplingConfig(), spec))

    def test_apply_dimension_mismatch(self):
        L = build_L_T(CouplingConfig(), SPEC)
        with pytest.raises(DimensionMismatchError):
            apply(L, np.eye(4))


def literal_apply(superop, rho):
    """Term-by-term sandwich sum: the reference for the compiled apply."""
    out = np.zeros_like(rho)
    for t in superop.terms:
        out += t.coeff * (t.left @ rho @ t.right)
    return out


class TestFoldedGenerator:
    """Generators whose terms share slots (identity sides, sums), against the
    term-by-term sandwich sum."""

    def assert_matches_literal(self, L, rng, count=5):
        for _ in range(count):
            rho = random_density(L.dim, rng).mat
            assert np.max(np.abs(apply(L, rho) - literal_apply(L, rho))) <= 1e-13

    def test_full_generator(self, rng):
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        L = build_L_T(cfg, SPEC) + build_L_ST(cfg, SPEC)
        self.assert_matches_literal(L, rng)

    def test_regrouped_generators(self, rng):
        cfg = CouplingConfig(1.3, 0.8, 0.4, delta=-0.6)
        L_S = build_L_S(CoherentDrive(0.7 - 0.4j), SPEC)
        for L in regroup(L_S, cfg):
            self.assert_matches_literal(L, rng)

    def test_empty(self, rng):
        L = Superoperator([], SPEC.dim)
        self.assert_matches_literal(L, rng, count=1)

    def test_identity_term(self, rng):
        eye = np.eye(SPEC.dim, dtype=complex)
        L = Superoperator([SuperoperatorTerm(eye, eye, 0.5 - 0.25j)], SPEC.dim)
        rho = random_density(SPEC.dim, rng).mat
        assert np.max(np.abs(apply(L, rho) - (0.5 - 0.25j) * rho)) <= 1e-15
        self.assert_matches_literal(L, rng, count=1)

    def test_sum_compiles_its_own_terms(self, rng):
        cfg = CouplingConfig(1.0, 0.6, 0.4, delta=0.2)
        L_T, L_ST = build_L_T(cfg, SPEC), build_L_ST(cfg, SPEC)
        rho = random_density(SPEC.dim, rng).mat
        apply(L_T, rho)  # compiles L_T before the sum exists
        apply(L_ST, rho)
        L = L_T + L_ST
        assert L.compiled is not L_T.compiled and L.compiled is not L_ST.compiled
        assert len(L.terms) == len(L_T.terms) + len(L_ST.terms)
        self.assert_matches_literal(L, rng)


def random_superoperator(dim, rng, count=3):
    """Dense random sandwich terms, plus one with an identity on each side."""
    def dense():
        return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    eye = np.eye(dim, dtype=complex)
    terms = [SuperoperatorTerm(dense(), dense(), complex(*rng.normal(size=2)))
             for _ in range(count)]
    terms += [SuperoperatorTerm(dense(), eye, 0.3j), SuperoperatorTerm(eye, dense(), -0.7)]
    return Superoperator(terms, dim)


class TestCompiledGenerator:
    """The gather form of apply against the term-by-term sandwich sum."""

    def assert_matches_literal(self, L, rng, count=3):
        for _ in range(count):
            rho = random_density(L.dim, rng).mat
            assert np.max(np.abs(apply(L, rho) - literal_apply(L, rho))) <= 1e-13

    @pytest.mark.parametrize("n_max", [1, 12, 25])
    def test_full_coherent_generator(self, rng, n_max):
        spec = FockSpec(n_max)
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        undriven = build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        L = build_L_S(CoherentDrive(0.6 - 0.3j), spec) + undriven
        index, weight = L.compiled
        # take reads an intp index as it is, with no per-call conversion
        assert index.dtype == np.intp
        fock = product_state(fock_state(1, spec), qubit_state(EXCITED)).projector()
        assert block_gather(undriven, fock)[1].dtype == np.intp
        assert index.shape == weight.shape == (index.shape[0], spec.dim ** 2)
        assert index.shape[0] <= 13
        self.assert_matches_literal(L, rng)

    def test_regrouped_generators(self, rng):
        spec = FockSpec(12)
        cfg = CouplingConfig(1.3, 0.8, 0.4, delta=-0.6)
        for L in regroup(build_L_S(CoherentDrive(0.7 - 0.4j), spec), cfg):
            self.assert_matches_literal(L, rng)

    def test_empty(self, rng):
        L = Superoperator([], SPEC.dim)
        assert L.compiled[0].shape == (0, SPEC.dim ** 2)
        rho = random_density(SPEC.dim, rng).mat
        assert np.array_equal(apply(L, rho), np.zeros_like(rho))

    def test_identity_term(self, rng):
        eye = np.eye(SPEC.dim, dtype=complex)
        L = Superoperator([SuperoperatorTerm(eye, eye, 0.5 - 0.25j)], SPEC.dim)
        assert L.compiled[0].shape[0] == 1
        self.assert_matches_literal(L, rng)

    def test_dense_random(self, rng):
        L = random_superoperator(6, rng)
        assert L.compiled[0].shape[0] == 11 ** 2  # every shift of a dense 6 x 6
        self.assert_matches_literal(L, rng)

    def test_too_dense_raises(self, rng):
        # (2 * 50 - 1)^2 shifts of 50^2 entries each: more than 64^4
        L = random_superoperator(50, rng, count=1)
        with pytest.raises(DimensionMismatchError, match="too dense"):
            apply(L, np.eye(50))

    def test_non_square_rho_rejected(self):
        L = build_L_T(CouplingConfig(), SPEC)
        with pytest.raises(DimensionMismatchError):
            apply(L, np.zeros((SPEC.dim, SPEC.dim + 1)))


def width(L):
    return L.compiled[0].shape[0]


class TestCompiledWidth:
    """Slots whose weights cancel exactly are dropped from the gather form."""

    BENCH = CouplingConfig(1.0, 0.5, 0.5)

    @pytest.mark.parametrize("n_max", [3, 25])
    def test_cascade_cancels_its_cross_diagonal(self, n_max):
        # -i H_ST - f^dag f / 2 keeps only a b^dag (and the mirror image on
        # the right), so two of the nine shifts of L_T + L_ST vanish; at
        # n_max 25 this is the generator of A6
        spec = FockSpec(n_max)
        L = build_L_T(self.BENCH, spec) + build_L_ST(self.BENCH, spec)
        assert width(L) == 7
        L_S = build_L_S(CoherentDrive(0.3), spec)
        assert width(L_S + L) == 11

    def test_cancellation_holds_at_any_gamma_S(self):
        # H_ST, f and the drift share the products of A = sqrt(gS) a and
        # B = sqrt(gTf) b, so the a^dag b shifts cancel to exact zeros at
        # gamma_S != 1 too
        cfg = CouplingConfig(1.2, 0.7, 0.3, delta=0.4)
        spec = FockSpec(6)
        assert width(build_L_T(cfg, spec) + build_L_ST(cfg, spec)) == 7
        assert width(build_L_S(CoherentDrive(0.6 - 0.3j), spec)
                     + build_L_T(cfg, spec) + build_L_ST(cfg, spec)) == 11

    @pytest.mark.parametrize("rates, free, drive", [
        ((1.0, 0.5, 0.5, 0.0), 7, 11),
        ((1.2, 0.7, 0.3, 0.4), 7, 11),
        ((1.0, 0.0, 0.0, 0.0), 2, 6),
    ])
    def test_widths_are_bounded(self, rates, free, drive):
        # upper bounds on the width of each generator; the full one is 7 / 11
        # because its a^dag b shifts cancel exactly
        cfg = CouplingConfig(*rates)
        spec = FockSpec(6)
        for model, full, source in ((FreeDecayMixture(((0.5, 1.0),)), free, 2),
                                    (CoherentDrive(0.6 - 0.3j), drive, 6)):
            L_S = build_L_S(model, spec)
            assert width(L_S + build_L_T(cfg, spec) + build_L_ST(cfg, spec)) <= full
            Lp_S, Lp_T, Lp_ST = regroup(L_S, cfg)
            assert width(Lp_S) <= source and width(Lp_T) <= 2 and width(Lp_ST) <= 4

    def test_regroup_without_target_rates_is_empty(self, rng):
        cfg = CouplingConfig(1.0, 0.0, 0.0)
        _, Lp_T, Lp_ST = regroup(build_L_S(CoherentDrive(0.4), SPEC), cfg)
        rho = random_density(SPEC.dim, rng).mat
        for L in (Lp_T, Lp_ST):
            assert width(L) == 0
            assert np.array_equal(apply(L, rho), np.zeros_like(rho))
