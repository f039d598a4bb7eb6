import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

# Subprocesses that run `python -m ccxsim.cli` import the same sources as the
# tests themselves, whether or not the package is installed.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)

from ccxsim.machine import Machine
from ccxsim.runtime import HostRuntime

from helpers import small_config


@pytest.fixture
def machine() -> Machine:
    return Machine(small_config())

@pytest.fixture
def ccx_machine() -> Machine:
    return Machine(small_config(mode="ccx"))


@pytest.fixture
def runtime(machine) -> HostRuntime:
    return HostRuntime(machine)


@pytest.fixture
def fixture_dir(tmp_path_factory) -> Path:
    """Session-scoped directory of generated fixture manifests."""
    return tmp_path_factory.mktemp("fixtures")
