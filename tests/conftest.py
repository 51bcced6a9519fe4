import os
from pathlib import Path

import numpy as np
import pytest

from moduliflow.hyperbolic import FundamentalDomainBinning
from moduliflow.mesh import DomainGrid

SRC = Path(__file__).resolve().parents[1] / "src"


def pytest_configure(config):
    # pyproject.toml puts this checkout's src/ ahead of PYTHONPATH, so the
    # tests would import it, not another moduliflow that PYTHONPATH names.
    for entry in os.environ.get("PYTHONPATH", "").split(os.pathsep):
        if entry and (Path(entry) / "moduliflow").is_dir() and Path(entry).resolve() != SRC:
            raise pytest.UsageError(
                f"PYTHONPATH entry {entry} holds a moduliflow that these tests would not "
                f"test: they import {SRC / 'moduliflow'}; run them from that copy instead")


@pytest.fixture(scope="session")
def binning60():
    # The default measurement binning; built once, it is immutable.
    return FundamentalDomainBinning(60, 60, 10.0)


@pytest.fixture(scope="session")
def small_binning():
    return FundamentalDomainBinning(8, 8, 4.0)


@pytest.fixture
def grid64():
    return DomainGrid(64, 64)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
