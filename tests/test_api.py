import json
import os
import subprocess
import sys
from pathlib import Path

import sumcol

ROOT_API = [
    "Coloring",
    "Graph",
    "MemeticParams",
    "TabuSearchParams",
    "__version__",
    "is_proper",
    "load_coloring",
    "load_dimacs",
    "memetic_search",
    "run_instance",
    "run_seed",
    "save_coloring",
    "welch_t_test",
]

PROBE = """
import json, sys, types
import sumcol
print(json.dumps({
    "scipy_loaded": "scipy" in sys.modules,
    "modules": [isinstance(sumcol.tabu_search, types.ModuleType),
                isinstance(sumcol.tabucol, types.ModuleType)],
    "all": sorted(sumcol.__all__),
    "unresolved": [name for name in sumcol.__all__ if not hasattr(sumcol, name)],
}))
"""


def _fresh_interpreter(*args: str) -> subprocess.CompletedProcess:
    # A fresh interpreter, so nothing imported by other tests leaks in.
    src = str(Path(sumcol.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env, check=True)


def test_package_root_is_the_documented_api():
    proc = _fresh_interpreter("-c", PROBE)
    probe = json.loads(proc.stdout)
    assert probe["scipy_loaded"] is False
    assert probe["modules"] == [True, True]
    assert probe["all"] == ROOT_API
    assert probe["unresolved"] == []


def test_package_runs_as_a_module():
    proc = _fresh_interpreter("-m", "sumcol", "--help")
    assert "solve" in proc.stdout


def test_import_leaves_the_process_pool_unloaded():
    # run_instance imports it only when it spreads runs over processes
    proc = _fresh_interpreter("-c", "import sys, sumcol; print('concurrent.futures' in sys.modules)")
    assert proc.stdout.strip() == "False"


def test_import_leaves_dataclasses_and_inspect_unloaded():
    # no package class is generated by dataclasses: importing it would pull in
    # inspect, ast, dis and tokenize, and every sumcol process would pay for it
    probe = "import sys, sumcol, sumcol.cli; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    proc = _fresh_interpreter("-c", probe)
    assert proc.stdout.strip() == "[]"
