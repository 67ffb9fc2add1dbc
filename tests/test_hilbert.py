import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cascadesim import hilbert
from cascadesim.errors import DimensionMismatchError, InvariantViolationError, TruncationWarning
from cascadesim.hilbert import (
    EXCITED,
    GROUND,
    SOURCE,
    TARGET,
    DensityOperator,
    FockSpec,
    PureState,
    adequate_n_max,
    check_states,
    coherent_state,
    fock_state,
    partial_trace,
    product_state,
    qubit_lowering,
    qubit_state,
)
from conftest import random_density, random_state


class TestFockSpec:
    def test_dims(self):
        spec = FockSpec(5)
        assert spec.fock_dim == 6
        assert spec.dim == 12

    def test_rejects_bad_cutoff(self):
        with pytest.raises(ValueError):
            FockSpec(0)


class TestQubitLowering:
    def test_lowers_excited(self):
        b = qubit_lowering()
        assert np.allclose(b @ qubit_state(EXCITED).vec, qubit_state(GROUND).vec)

    def test_kills_ground(self):
        b = qubit_lowering()
        assert np.allclose(b @ qubit_state(GROUND).vec, 0.0)
        assert np.allclose(b @ b, 0.0)

    def test_number_is_excited_projector(self):
        b = qubit_lowering()
        proj = b.conj().T @ b
        expected = np.outer(qubit_state(EXCITED).vec, qubit_state(EXCITED).vec)
        assert np.allclose(proj, expected)


def fock_lowering(spec):
    """<n-1| a |n> = sqrt(n) on the Fock factor alone."""
    return np.diag(np.sqrt(np.arange(1, spec.fock_dim)), k=1)


class TestCoherentState:
    def test_vacuum(self):
        psi = coherent_state(0.0, FockSpec(5))
        assert np.allclose(psi.vec, fock_state(0, FockSpec(5)).vec)

    def test_poisson_mean(self):
        spec = FockSpec(25)
        psi = coherent_state(1.5, spec)
        n_op = np.diag(np.arange(spec.fock_dim))
        assert abs(np.vdot(psi.vec, n_op @ psi.vec) - 2.25) < 1e-8

    def test_eigenstate_residual(self):
        spec = FockSpec(20)
        psi = coherent_state(1.0, spec)
        a = fock_lowering(spec)
        assert np.linalg.norm(a @ psi.vec - 1.0 * psi.vec) < 1e-8

    def test_residual_decreases_with_cutoff(self):
        residuals = []
        for n_max in (10, 14, 18, 22):
            spec = FockSpec(n_max)
            psi = coherent_state(1.2, spec, warn=False)
            a = fock_lowering(spec)
            residuals.append(np.linalg.norm(a @ psi.vec - 1.2 * psi.vec))
        assert all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))

    def test_warns_on_inadequate_cutoff(self):
        assert adequate_n_max(1.5) == 25
        with pytest.warns(TruncationWarning):
            coherent_state(1.5, FockSpec(20))

    def test_complex_amplitude_phase(self):
        spec = FockSpec(20)
        alpha = 0.8 * np.exp(0.7j)
        psi = coherent_state(alpha, spec)
        a = fock_lowering(spec)
        assert np.linalg.norm(a @ psi.vec - alpha * psi.vec) < 1e-10

    @pytest.mark.parametrize("warn", [False, True])
    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), complex(0, -float("inf")),
                                       complex(float("nan"), 1.0), 1e160, 1e160j])
    def test_rejects_alpha_without_finite_square(self, alpha, warn):
        # |alpha|^2 is NaN or beyond a float: a ValueError naming alpha, never
        # an all-NaN state, whether or not the cutoff is checked first
        with pytest.raises(ValueError, match="alpha"):
            coherent_state(alpha, FockSpec(5), warn=warn)

    def test_shared_tables_are_read_only(self):
        # the (n, log n!) tables are cached per fock_dim and shared by every
        # call, so no caller may write into them
        coherent_state(0.9 - 0.4j, FockSpec(12))
        for table in hilbert._log_factorials(13):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 1.0


class TestPartialTrace:
    def test_product_state(self):
        spec = FockSpec(3)
        psi = product_state(fock_state(0, spec), qubit_state(GROUND))
        rho = DensityOperator(psi.projector())
        red = partial_trace(rho, SOURCE)
        assert np.allclose(red.mat, fock_state(0, spec).projector())

    def test_maximally_entangled(self):
        spec = FockSpec(2)
        v = (product_state(fock_state(0, spec), qubit_state(EXCITED)).vec
             + product_state(fock_state(1, spec), qubit_state(GROUND)).vec) / np.sqrt(2)
        rho = DensityOperator(np.outer(v, v.conj()))
        red = partial_trace(rho, TARGET)
        assert np.allclose(red.mat, np.eye(2) / 2)

    def test_layout_mismatch(self):
        rho = DensityOperator(np.eye(2) / 2, layout=TARGET)
        with pytest.raises(DimensionMismatchError):
            partial_trace(rho, TARGET)

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10**6), keep=st.sampled_from([SOURCE, TARGET]))
    def test_trace_and_positivity_preserved(self, seed, keep):
        rho = random_density(8, np.random.default_rng(seed))
        red = partial_trace(rho, keep)
        assert abs(np.trace(red.mat) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(red.mat).min() > -1e-12


class TestStates:
    def test_normalized(self, rng):
        psi = PureState(random_state(6, rng) * 3.0)
        assert abs(psi.normalized().norm - 1.0) < 1e-12

    def test_zero_vector_rejected(self):
        with pytest.raises(InvariantViolationError):
            PureState(np.zeros(4)).normalized()

    def test_density_check_flags_trace(self):
        with pytest.raises(InvariantViolationError):
            DensityOperator(np.eye(4)).check()

    def test_density_check_flags_negativity(self):
        m = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(InvariantViolationError):
            DensityOperator(m).check()

    @pytest.mark.parametrize("entries, value", [
        ([(1, 1)], np.nan),
        ([(0, 1)], np.nan),
        ([(0, 1), (1, 0)], np.inf),
    ])
    def test_density_check_flags_non_finite(self, entries, value):
        m = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
        for ij in entries:
            m[ij] = value
        with pytest.raises(InvariantViolationError):
            DensityOperator(m).check()

    def test_valid_density_passes(self, rng):
        random_density(6, rng).check()

    @staticmethod
    def _rotated(eigenvalues, rng):
        """U diag(eigenvalues) U^dag for a random unitary U."""
        q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2)
                            + 1j * rng.normal(size=(len(eigenvalues),) * 2))
        return (q * np.asarray(eigenvalues)) @ q.conj().T

    @pytest.mark.parametrize("scale", [0.4, 0.9])
    def test_density_check_keeps_eigenvalue_boundary(self, rng, scale):
        # the default eig_tol is 1e-10; the Cholesky shift of tol/2 passes
        # 0.4 tol at once, and leaves 0.9 tol to eigvalsh, which passes it
        tol = 1e-10
        m = self._rotated([0.6 + scale * tol, 0.4, -scale * tol, 0.0], rng)
        DensityOperator(m).check()

    def test_density_check_names_negative_eigenvalue(self, rng):
        tol = 1e-10
        m = self._rotated([0.6 + 1.1 * tol, 0.4, -1.1 * tol, 0.0], rng)
        with pytest.raises(InvariantViolationError, match=r"^negative eigenvalue -1\.100e-10$"):
            DensityOperator(m).check()

    def test_density_check_passes_projector_without_eigvalsh(self, rng, monkeypatch):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        v /= np.linalg.norm(v)

        def forbidden(*args, **kwargs):
            raise AssertionError("eigvalsh ran on a positive semidefinite state")

        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        DensityOperator(np.outer(v, v.conj())).check()


def rotated(eigenvalues, rng):
    """U diag(eigenvalues) U^dag for a random unitary U."""
    q, _ = np.linalg.qr(rng.normal(size=(len(eigenvalues),) * 2)
                        + 1j * rng.normal(size=(len(eigenvalues),) * 2))
    return (q * np.asarray(eigenvalues)) @ q.conj().T


def plant(kind, m, rng):
    """m, or a state of its dim that fails (or just passes) one check at the
    default tolerances (trace 1e-10, hermiticity 1e-12, eigenvalue 1e-10)."""
    d, tol = len(m), 1e-10
    if kind in ("nan", "inf"):
        m = m.copy()
        m[tuple(rng.integers(d, size=2))] = np.nan if kind == "nan" else np.inf
    elif kind == "trace":
        m = m.copy()
        m[0, 0] += 1e-9
    elif kind == "hermiticity":
        m = m.copy()
        m[0, 1] += 1e-9
    elif kind in ("eig_above", "eig_below"):
        # the smallest eigenvalue at 0.9 or 1.1 of -tol: past the Cholesky
        # shift of tol/2 either way, so eigvalsh decides
        x = (0.9 if kind == "eig_above" else 1.1) * tol
        m = rotated([0.6 + x, 0.4, -x] + [0.0] * (d - 3), rng)
    return m


class TestCheckStates:
    KINDS = ["nan", "inf", "trace", "hermiticity", "eig_above", "eig_below"]

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        size=st.integers(1, 9),
        dim=st.sampled_from([4, 6]),
        plants=st.lists(st.tuples(st.sampled_from(["first", "middle", "last"]),
                                  st.sampled_from(KINDS)), max_size=3),
        seed=st.integers(0, 2 ** 16),
    )
    def test_finds_the_first_failure_of_a_check_loop(self, size, dim, plants, seed):
        rng = np.random.default_rng(seed)
        mats = np.stack([random_density(dim, rng).mat for _ in range(size)])
        for where, kind in plants:
            i = {"first": 0, "middle": size // 2, "last": size - 1}[where]
            mats[i] = plant(kind, mats[i], rng)
        expected = None
        for i, m in enumerate(mats):
            try:
                DensityOperator(m).check()
            except InvariantViolationError as exc:
                expected = (i, str(exc))
                break
        assert check_states(mats) == expected

    @pytest.mark.parametrize("kind", KINDS)
    def test_each_planted_kind_is_named(self, rng, kind):
        mats = np.stack([random_density(4, rng).mat for _ in range(5)])
        mats[2] = plant(kind, mats[2], rng)
        found = check_states(mats)
        if kind == "eig_above":
            assert found is None
        else:
            word = {"nan": "non-finite", "inf": "non-finite", "trace": "trace",
                    "hermiticity": "hermiticity", "eig_below": "negative eigenvalue"}[kind]
            assert found[0] == 2 and found[1].startswith(word)

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(kinds=st.lists(st.sampled_from(["positive", "-0.3", "-0.6", "-2"]), min_size=1,
                          max_size=8),
           dim=st.integers(3, 8), eig_tol=st.sampled_from([1e-10, 1e-8]),
           seed=st.integers(0, 2 ** 16))
    def test_one_eigvalsh_agrees_with_the_cholesky_loop(self, kinds, dim, eig_tol, seed):
        # smallest eigenvalues of -0.3 tol pass the shifted Cholesky, -0.6 tol
        # fail it but pass eigvalsh, and -2 tol fail both
        rng = np.random.default_rng(seed)
        mats = []
        for kind in kinds:
            low = rng.uniform(0.0, 0.1) if kind == "positive" else float(kind) * eig_tol
            rest = rng.uniform(0.1, 1.0, dim - 1)
            rest *= (1.0 - low) / rest.sum()
            m = rotated([low, *rest], rng)
            mats.append((m + m.conj().T) * 0.5)
        mats = np.stack(mats)
        found = check_states(mats, eig_tol=eig_tol)
        assert found == looped_check_states(mats, eig_tol=eig_tol)
        first = kinds.index("-2") if "-2" in kinds else None
        assert (found and found[0]) == first
        if first is not None:
            assert found[1].startswith("negative eigenvalue -2.000e-")


def looped_check_states(mats, trace_tol=1e-10, herm_tol=1e-12, eig_tol=1e-10):
    """check_states with a Cholesky of each matrix in turn, and eigvalsh on
    each one that fails it, once the batched Cholesky fails: the reference
    for its one batched eigvalsh."""
    finite = np.isfinite(mats).all(axis=(1, 2))
    n = len(mats) if finite.all() else int(finite.argmin())
    ok = mats[:n]
    tr_err = np.abs(np.trace(ok, axis1=1, axis2=2) - 1.0)
    adj = ok.conj().swapaxes(1, 2)
    herm_err = np.abs(ok - adj).max(axis=(1, 2))
    bad = ~(tr_err <= trace_tol) | ~(herm_err <= herm_tol)
    n_herm = int(bad.argmax()) if bad.any() else n
    shifted = ok[:n_herm] + adj[:n_herm]
    shifted *= 0.5
    d = mats.shape[-1]
    shifted.reshape(n_herm, d * d)[:, ::d + 1] += eig_tol / 2.0
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        for i in range(n_herm):
            try:
                np.linalg.cholesky(shifted[i])
            except np.linalg.LinAlgError:
                min_eig = float(np.linalg.eigvalsh((ok[i] + adj[i]) * 0.5).min())
                if not min_eig >= -eig_tol:
                    return i, f"negative eigenvalue {min_eig:.3e}"
    if n_herm < n:
        if not tr_err[n_herm] <= trace_tol:
            return n_herm, f"trace deviates from 1 by {tr_err[n_herm]:.3e}"
        return n_herm, f"hermiticity residual {herm_err[n_herm]:.3e}"
    if n < len(mats):
        return n, "non-finite entry in the density matrix"
    return None
