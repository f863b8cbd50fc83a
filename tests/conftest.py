import tracemalloc

import numpy as np
import pytest

import tminfer as tm


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False,
                     help="run full-scale jobs")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="full-scale job; pass --runslow to include")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(scope="session")
def dims4():
    return tm.Dimensions(w=4)


@pytest.fixture(scope="session")
def channel4(dims4):
    """Well-conditioned w=4 ground truth used across tests."""
    return tm.build_random_tm(dims4, 0.25, seed=7)


@pytest.fixture(scope="session")
def data4_noisy(channel4):
    return tm.generate_dataset(channel4, 500, tm.NoiseSpec(sigma=0.1), seed=11)


@pytest.fixture(scope="session")
def data4_clean(channel4):
    return tm.generate_dataset(channel4, 500, tm.NoiseSpec(sigma=0.0), seed=11)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def traced_peak():
    """``traced_peak(fn)``: ``fn()`` and the peak of the memory it allocated,
    in bytes (tracemalloc)."""
    def measure(fn):
        tracemalloc.start()
        try:
            return fn(), tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return measure
