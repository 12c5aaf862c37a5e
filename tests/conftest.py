import numpy as np
import pytest

from workcap import EnvironmentModel
from workcap.verify import load_bundled


@pytest.fixture(scope="session")
def fig5() -> EnvironmentModel:
    """Binary memoryless channel: action 0 echoes 0, action 1 gives a fair coin."""
    return load_bundled("fig5")


@pytest.fixture(scope="session")
def identity_env() -> EnvironmentModel:
    return load_bundled("identity")


@pytest.fixture(scope="session")
def golden_mean() -> EnvironmentModel:
    """Two-state source with no two consecutive ones; unifilar product."""
    return load_bundled("golden_mean")


@pytest.fixture(scope="session")
def flip_noise() -> EnvironmentModel:
    return load_bundled("flip_noise")


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(12345)


@pytest.fixture(scope="session")
def delayed_echo():
    """Factory of unifilar channels that emit a fair coin from z0 .. z{delay-1},
    stepping to the next state, and from z{delay} on echo the action forever:
    not product, though the first ``delay`` percepts ignore the actions."""
    def build(delay: int) -> EnvironmentModel:
        n = delay + 1
        phi = np.zeros((2, n, 2, n))
        for z in range(delay):
            phi[:, z, :, z + 1] = 0.5
        for a in range(2):
            phi[a, delay, a, delay] = 1.0
        return EnvironmentModel(("0", "1"), tuple(f"z{z}" for z in range(n)), phi,
                                np.eye(n)[0])
    return build
