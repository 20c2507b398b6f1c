from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

from sumcol import Graph, load_dimacs

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"
MANIFEST_PATH = INSTANCE_DIR / "manifest.txt"
GENERATOR_PATH = INSTANCE_DIR.parent / "tools" / "make_instances.py"


def instance_path(name: str) -> Path:
    return INSTANCE_DIR / f"{name}.col"


def load_generator():
    """``tools/make_instances.py``, the instance generator, as a module."""
    spec = importlib.util.spec_from_file_location("make_instances", GENERATOR_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def require_instance(name: str) -> Graph:
    """Load a benchmark instance, skipping the test when its file is not
    shipped (only generator-reconstructible families are)."""
    path = instance_path(name)
    if not path.exists():
        pytest.skip(f"instance file {path.name} not shipped")
    return load_dimacs(str(path))


@pytest.fixture(scope="session")
def myciel3() -> Graph:
    return require_instance("myciel3")


@pytest.fixture(scope="session")
def myciel4() -> Graph:
    return require_instance("myciel4")


@pytest.fixture(scope="session")
def queen5_5() -> Graph:
    return require_instance("queen5_5")
