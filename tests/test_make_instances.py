"""The instance generator rebuilds every shipped constructible file exactly."""

import importlib.util
from pathlib import Path

import pytest

from sumcol.bench import load_manifest
from sumcol.graph import to_dimacs

from conftest import INSTANCE_DIR, MANIFEST_PATH

GENERATOR_PATH = Path(__file__).resolve().parent.parent / "tools" / "make_instances.py"


def load_generator():
    spec = importlib.util.spec_from_file_location("make_instances", GENERATOR_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GENERATOR = load_generator()


@pytest.mark.parametrize("stem, build, n, m", GENERATOR.FAMILIES, ids=[f[0] for f in GENERATOR.FAMILIES])
def test_generator_reproduces_shipped_instance(stem, build, n, m):
    path = INSTANCE_DIR / f"{stem}.col"
    text = to_dimacs(build(), comment=f"{stem}: generated by tools/make_instances.py")
    assert text.encode("ascii") == path.read_bytes()
    rows = [r for r in load_manifest(str(MANIFEST_PATH)) if Path(r.path).name == path.name]
    assert len(rows) == 1
    assert (rows[0].n, rows[0].m) == (n, m)
