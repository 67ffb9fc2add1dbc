import numpy as np
import pytest

from cascadesim.hilbert import DensityOperator
from cascadesim.sources import ClassicalPath


def random_density(dim: int, rng: np.random.Generator) -> DensityOperator:
    """Random full-rank density operator (Wishart construction)."""
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = M @ M.conj().T
    return DensityOperator(rho / np.trace(rho))


def random_state(dim: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def diffusing_ring(r0, D, gamma_S, t, count, seed):
    """count equally weighted paths |alpha_t| = r0 exp(-gamma_S t / 2) whose
    phase is a Brownian path of variance 2 D dt a step from a uniform start."""
    rng = np.random.default_rng(seed)
    radius = r0 * np.exp(-gamma_S * t / 2.0)
    paths = []
    for _ in range(count):
        phi0 = rng.uniform(0.0, 2.0 * np.pi)
        steps = rng.normal(0.0, np.sqrt(2.0 * D * np.diff(t)))
        phi = phi0 + np.concatenate(([0.0], np.cumsum(steps)))
        paths.append(ClassicalPath(t, radius * np.exp(1j * phi), weight=1.0 / count))
    return paths


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
