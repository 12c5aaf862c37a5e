import importlib
import sys

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


@pytest.fixture()
def call_counts(monkeypatch):
    """Spy factory: ``call_counts("loop.work_rate", ...)`` wraps each named
    function, in every workcap module that binds it, with a call counter,
    and returns the counts by function name."""
    def spy(*qualified: str) -> dict[str, int]:
        counts = {}
        for qualified_name in qualified:
            module_name, name = qualified_name.rsplit(".", 1)
            original = getattr(importlib.import_module(f"workcap.{module_name}"), name)
            counts[name] = 0

            def counted(*args, _name=name, _original=original, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)
            for bound_in, module in list(sys.modules.items()):
                if bound_in.split(".")[0] == "workcap" and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts
    return spy
