"""The instance generator rebuilds every shipped constructible file exactly,
and its seeded random graphs are pinned."""

import hashlib
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


@pytest.mark.parametrize("p, m, digest", [
    (0.5, 15527, "90bc6c42dddd964784344d2361f6646f435ed150238862cca5843bfe82aae43f"),
    (0.1, 3163, "e7edbc9c53196ea210c5f31c0d1d2c8b71e26a53c3f66c25386316a7a2144680"),
])
def test_gnp_stand_in_is_pinned(p, m, digest):
    """The G(250, p) stand-ins for the DSJC rows draw the same graph on every
    run: a change to the draw order or the model shows here."""
    g = GENERATOR.gnp(250, p, 1)
    assert (g.n, g.edge_count) == (250, m)
    assert hashlib.sha256(to_dimacs(g).encode("ascii")).hexdigest() == digest
