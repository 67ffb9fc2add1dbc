"""Verification gate: every numbered criterion must pass at its frozen
tolerance.  Run with -v to get one line per criterion."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

import cascadesim.acceptance as acceptance
from cascadesim.acceptance import CRITERIA, run_criterion
from cascadesim.hilbert import GROUND, DensityOperator, FockSpec, fock_state, product_state, qubit_state


@pytest.mark.parametrize("name", sorted(CRITERIA))
def test_criterion(name):
    result = run_criterion(name)
    for check in result.checks:
        direction = ">" if check.larger_is_better else "<"
        status = "PASS" if check.passed else "FAIL"
        print(f"{result.name} {status}: {check.label} = {check.measured:.3g} "
              f"(required {direction} {check.tolerance:g}) [{result.seconds:.1f}s]")
    assert result.passed, (
        f"{result.name} failed: "
        + "; ".join(f"{c.label}={c.measured:.3g} vs tolerance {c.tolerance:g}"
                    for c in result.checks if not c.passed)
    )


def test_a7_fails_on_a_nan_outside_the_pattern(monkeypatch):
    # an average with a NaN coherence between sectors 2 and 0, listed after
    # exact zeros outside the pattern: the fold keeps the NaN, and A7 fails
    psi = product_state(fock_state(1, FockSpec(14)), qubit_state(GROUND))
    rho = psi.projector()
    rho[4, 0] = np.nan
    monkeypatch.setattr(acceptance, "run_ensemble", lambda *args, **kwargs: SimpleNamespace(
        rho_avg=[DensityOperator(rho)]))
    result = acceptance.criterion_a7()
    assert math.isnan(result.checks[0].measured) and not result.checks[0].passed
    assert not result.passed
