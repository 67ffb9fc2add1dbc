import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesim.errors import DimensionMismatchError
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    FockSpec,
    coherent_state,
    fock_state,
    product_state,
    qubit_lowering,
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
    adjoint,
    build_nonhermitian_H,
    dense,
    gather,
    ladders,
    product,
    regroup,
    scaled,
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


class TestOperatorsAreArrays:
    def test_every_operator_function_returns_a_complex_ndarray(self):
        cfg = CouplingConfig(1.0, 0.5, 0.5, delta=0.3)
        bands = [*ladders(SPEC), build_H_T(cfg, SPEC), build_H_ST(cfg, SPEC),
                 *build_jump_ops(cfg, SPEC), build_nonhermitian_H(cfg, SPEC)]
        ops = [qubit_lowering(), *(dense(M, SPEC.dim) for M in bands),
               drive_hamiltonian(0.4 - 0.2j, cfg)]
        for op in ops:
            assert type(op) is np.ndarray and op.dtype == np.complex128


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
        assert np.allclose(dense(build_H_T(CouplingConfig(delta=0.0), SPEC), SPEC.dim), 0.0)

    def test_H_T_detuned(self):
        H = dense(build_H_T(CouplingConfig(delta=1.0), SPEC), SPEC.dim)
        plus = composite_ket(0, EXCITED)
        assert abs(np.vdot(plus, H @ plus) - 1.0) < 1e-14
        assert np.max(np.abs(H - H.conj().T)) == 0.0

    def test_H_ST_decouples_without_forward_channel(self):
        assert np.allclose(dense(build_H_ST(CouplingConfig(gamma_Tf=0.0), SPEC), SPEC.dim), 0.0)

    def test_H_ST_matrix_element(self):
        # <0,+| H_ST |1,-> = -i/2 at unit rates, by direct evaluation
        cfg = CouplingConfig(gamma_S=1.0, gamma_Tf=1.0, gamma_Ts=0.5)
        H = dense(build_H_ST(cfg, SPEC), SPEC.dim)
        el = np.vdot(composite_ket(0, EXCITED), H @ composite_ket(1, GROUND))
        assert abs(el - (-0.5j)) < 1e-14

    def test_H_ST_hermitian(self):
        H = dense(build_H_ST(CouplingConfig(1.0, 0.7, 0.2), SPEC), SPEC.dim)
        assert np.max(np.abs(H - H.conj().T)) < 1e-15


class TestJumpOps:
    def test_side_vanishes(self):
        _, s = build_jump_ops(CouplingConfig(gamma_Ts=0.0), SPEC)
        assert np.allclose(dense(s, SPEC.dim), 0.0)

    def test_forward_cavity_only(self):
        f, _ = build_jump_ops(CouplingConfig(1.0, 0.0, 0.5), SPEC)
        out = dense(f, SPEC.dim) @ composite_ket(1, GROUND)
        assert np.allclose(out, composite_ket(0, GROUND))

    def test_forward_qubit_only(self):
        f, _ = build_jump_ops(CouplingConfig(1.0, 4.0, 0.0), SPEC)
        # gamma_S multiplies a, which kills |0>; only the qubit term remains
        out = dense(f, SPEC.dim) @ composite_ket(0, EXCITED)
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
            rho = random_density(SPEC.dim, rng).mat
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
            assert abs(np.trace(apply(L, random_density(SPEC.dim, rng).mat))) < 1e-12

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
        Hd = drive_hamiltonian(alpha, cfg)
        lhs = apply(Lp_ST, np.kron(P, rho_T))
        rhs = np.kron(P, -1j * (Hd @ rho_T - rho_T @ Hd))
        assert np.linalg.norm(lhs - rhs) < 1e-7


class TestNonhermitianH:
    def test_operator_identity(self):
        for cfg in (CouplingConfig(1.0, 0.5, 0.5),
                    CouplingConfig(2.0, 1.3, 0.1, delta=0.7)):
            f, s = (dense(C, SPEC.dim) for C in build_jump_ops(cfg, SPEC))
            lhs = (dense(build_H_T(cfg, SPEC), SPEC.dim) + dense(build_H_ST(cfg, SPEC), SPEC.dim)
                   - 0.5j * (s.conj().T @ s) - 0.5j * (f.conj().T @ f))
            H = dense(build_nonhermitian_H(cfg, SPEC), SPEC.dim)
            assert np.max(np.abs(lhs - H)) < 1e-13

    def test_matrix_element(self):
        cfg = CouplingConfig(1.0, 1.0, 0.0)
        H = dense(build_nonhermitian_H(cfg, SPEC), SPEC.dim)
        el = np.vdot(composite_ket(0, EXCITED), H @ composite_ket(1, GROUND))
        assert abs(el - (-1j)) < 1e-14

    def test_norm_nonincreasing(self, rng):
        cfg = CouplingConfig(1.0, 0.5, 0.5)
        H = dense(build_nonhermitian_H(cfg, SPEC), SPEC.dim)
        dt = 0.001
        U = np.eye(SPEC.dim) - 1j * dt * H
        for _ in range(5):
            v = rng.normal(size=SPEC.dim) + 1j * rng.normal(size=SPEC.dim)
            v /= np.linalg.norm(v)
            assert np.linalg.norm(U @ v) <= 1.0 + 1e-12


class TestSuperoperatorForm:
    def test_zero_superoperator(self, rng):
        L = Superoperator([], SPEC.dim)
        assert np.max(np.abs(apply(L, random_density(SPEC.dim, rng).mat))) == 0.0

    def test_identity_superoperator(self):
        L = Superoperator([SuperoperatorTerm(None, None, 1.0)], 4)
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

    def test_band_of_wrong_length_rejected(self):
        a, _ = ladders(FockSpec(3))
        with pytest.raises(DimensionMismatchError):
            Superoperator([SuperoperatorTerm(a, None, 1.0)], FockSpec(4).dim)
        with pytest.raises(DimensionMismatchError):
            Superoperator([SuperoperatorTerm(None, {0: np.ones(7)}, 1.0)], 8)

    def test_apply_dimension_mismatch(self):
        L = build_L_T(CouplingConfig(), SPEC)
        with pytest.raises(DimensionMismatchError):
            apply(L, np.eye(4))


class TestLadders:
    """a and b of ladders(spec) on the composite basis states |n, q>."""

    def test_a_lowers_the_photon_number(self):
        spec = FockSpec(5)
        a = dense(ladders(spec)[0], spec.dim)
        for q in (GROUND, EXCITED):
            assert np.allclose(a @ composite_ket(4, q, spec), 2.0 * composite_ket(3, q, spec))
            assert np.allclose(a @ composite_ket(0, q, spec), 0.0)

    def test_b_lowers_the_qubit(self):
        spec = FockSpec(3)
        b = dense(ladders(spec)[1], spec.dim)
        assert np.allclose(b @ composite_ket(2, EXCITED, spec), composite_ket(2, GROUND, spec))
        assert np.allclose(b @ composite_ket(2, GROUND, spec), 0.0)

    def test_commutator_on_interior(self):
        # [a, a^dag] = 1 away from the truncation boundary n = n_max
        spec = FockSpec(8)
        a = dense(ladders(spec)[0], spec.dim)
        comm = (a @ a.conj().T - a.conj().T @ a)[:2 * spec.n_max, :2 * spec.n_max]
        assert np.max(np.abs(comm - np.eye(2 * spec.n_max))) < 1e-14

    def test_factors_commute(self):
        spec = FockSpec(4)
        a, b = (dense(op, spec.dim) for op in ladders(spec))
        assert np.max(np.abs(a @ b - b @ a)) < 1e-14

    def test_number_counts_photons(self):
        spec = FockSpec(6)
        a, _ = ladders(spec)
        n_op = dense(product(adjoint(a), a), spec.dim)
        for n in range(spec.fock_dim):
            v = composite_ket(n, EXCITED, spec)
            assert abs(np.vdot(v, n_op @ v) - n) < 1e-14


def kron_ladders(spec):
    """Dense a and b of the composite space, as kron of the factor operators."""
    a = np.kron(np.diag(np.sqrt(np.arange(1, spec.fock_dim)), k=1), np.eye(2)).astype(complex)
    return a, np.kron(np.eye(spec.fock_dim), qubit_lowering())


class TestBandAlgebra:
    """Each builder's band maps against dense kron / @ references: equal,
    but for the two-term diagonal of f^dag f, where a matrix product may fuse
    the second multiply-add (a BLAS kernel with FMA) and a band product
    rounds each piece."""

    RATE = st.one_of(st.just(0.0), st.floats(0.0, 2.0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(gamma_S=st.floats(0.1, 2.0), gamma_Tf=RATE, gamma_Ts=RATE,
           delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           epsilon=st.complex_numbers(max_magnitude=2.0), n_max=st.integers(1, 30))
    def test_builders_match_dense_references(self, gamma_S, gamma_Tf, gamma_Ts, delta, epsilon,
                                             n_max):
        spec = FockSpec(n_max)
        d = spec.dim
        cfg = CouplingConfig(gamma_S, gamma_Tf, gamma_Ts, delta)
        a, b = kron_ladders(spec)
        A, B = np.sqrt(gamma_S) * a, np.sqrt(gamma_Tf) * b
        ad, bd, Ad, Bd = (M.conj().T for M in (a, b, A, B))
        la, lb = ladders(spec)
        LA, LB = scaled(np.sqrt(gamma_S), la), scaled(np.sqrt(gamma_Tf), lb)
        f, s = build_jump_ops(cfg, spec)
        pairs = {
            "H_T": (build_H_T(cfg, spec), delta * (bd @ b)),
            "H_ST": (build_H_ST(cfg, spec), 0.5j * (Ad @ B - A @ Bd)),
            "f": (f, A + B),
            "s": (s, np.sqrt(gamma_Ts) * b),
            "drift": (build_nonhermitian_H(cfg, spec), delta * (bd @ b) - 1j * (A @ Bd)
                      - 0.5j * (Ad @ A) - 0.5j * cfg.gamma_T * (bd @ b)),
            "drive": (build_L_S(CoherentDrive(epsilon), spec).terms[0].left,
                      1j * (epsilon * ad - np.conj(epsilon) * a)),
            "a^dag a": (product(adjoint(la), la), ad @ a),
            "b^dag b": (product(adjoint(lb), lb), bd @ b),
            "A^dag B": (product(adjoint(LA), LB), Ad @ B),
            "B^dag A": (product(adjoint(LB), LA), Bd @ A),
            "A B^dag": (product(LA, adjoint(LB)), A @ Bd),
        }
        for name, (bands, ref) in pairs.items():
            assert np.array_equal(dense(bands, d), ref), name
        ffd, ref = dense(product(adjoint(f), f), d), (A + B).conj().T @ (A + B)
        for part in (np.real, np.imag):
            np.testing.assert_array_max_ulp(part(ffd), part(ref), maxulp=1)


def literal_apply(superop, rho):
    """Term-by-term sandwich sum: the reference for the compiled apply."""
    out = np.zeros_like(rho)
    d = superop.dim
    for t in superop.terms:
        out += t.coeff * (dense(t.left, d) @ rho @ dense(t.right, d))
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
        L = Superoperator([SuperoperatorTerm(None, None, 0.5 - 0.25j)], SPEC.dim)
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
    def full():
        """The band map of a dense random matrix: every diagonal."""
        M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        i, padded = np.arange(dim), np.pad(M, ((0, 0), (dim, dim)))
        return {o: padded[i, i + dim + o] for o in range(1 - dim, dim)}
    terms = [SuperoperatorTerm(full(), full(), complex(*rng.normal(size=2)))
             for _ in range(count)]
    terms += [SuperoperatorTerm(full(), None, 0.3j), SuperoperatorTerm(None, full(), -0.7)]
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
        L = Superoperator([SuperoperatorTerm(None, None, 0.5 - 0.25j)], SPEC.dim)
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

    TARGET_RATE = st.one_of(st.just(0.0), st.floats(0.0, 2.0))

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(rates=st.tuples(st.floats(0.1, 2.0), TARGET_RATE, TARGET_RATE),
           delta=st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
           drive=st.one_of(st.none(), st.complex_numbers(max_magnitude=2.0)),
           n_max=st.integers(1, 6), data=st.data(), seed=st.integers(0, 2**32 - 1))
    def test_drawn_generators_match_to_matrix(self, rates, delta, drive, n_max, data, seed):
        # a random rho on a drawn set of k-blocks; where block_gather keeps
        # some of them, the kept entries are the full gather's bit for bit
        # and the full gather is exactly zero outside them
        spec = FockSpec(n_max)
        cfg = CouplingConfig(*rates, delta=delta)
        model = FreeDecayMixture(((0.5, 1.0),)) if drive is None else CoherentDrive(drive)
        L = build_L_S(model, spec) + build_L_T(cfg, spec) + build_L_ST(cfg, spec)
        N = (np.arange(spec.dim) + 1) // 2
        k = np.subtract.outer(N, N)
        blocks = data.draw(st.lists(st.integers(-N[-1], N[-1]), min_size=1, unique=True))
        rng = np.random.default_rng(seed)
        rho = rng.normal(size=k.shape) + 1j * rng.normal(size=k.shape)
        rho[~np.isin(k, blocks)] = 0.0

        out = apply(L, rho)
        ref = to_matrix(L) @ vec_col(rho)
        assert np.max(np.abs(vec_col(out) - ref)) <= 1e-13 * np.abs(ref).max()
        kept = block_gather(L, rho)
        if kept is not None:
            keep, index, weight = kept
            assert np.array_equal(gather(index, weight, rho.ravel()[keep]), out.ravel()[keep])
            assert not np.delete(out.ravel(), keep).any()


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
