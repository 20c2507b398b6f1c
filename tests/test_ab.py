"""tools/ab.py compares two source trees run for run."""

import importlib.util
import json
import random
import subprocess
import sys
from pathlib import Path

from sumcol.bench import welch_t_test

ROOT = Path(__file__).resolve().parent.parent


def load_ab():
    spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_tree_against_itself_is_identical_on_every_seed(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"kept": 1}))
    subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab.py"), str(ROOT), str(ROOT), "--name", "myciel3",
         "--seeds", "1-2,5", "--out", str(out), "--", "instances/myciel3.col", "--mode", "dnts",
         "--param", "iteration_budget=200"],
        cwd=ROOT, check=True, capture_output=True, text=True, timeout=120,
    )
    stored = json.loads(out.read_text())
    assert stored["kept"] == 1
    result = stored["myciel3"]
    assert result["seeds"] == [1, 2, 5] and "pairs" not in result
    summary = result["summary"]
    assert summary["identical"] and summary["differing_seeds"] == [] and summary["welch"] is None
    assert summary["sum_mean"]["base"] == summary["sum_mean"]["change"] >= 21
    assert summary["cpu_s"]["pairs"] == 3


def test_summarize_takes_ratios_per_pair_and_tests_differing_sums():
    """Pair i has base time i and change time 0.8 i (0.9 i on every fifth
    pair, where the change is slower instead), and seeds 3 and 7 differ."""
    ab = load_ab()
    rng = random.Random(5)
    pairs = []
    for seed in range(1, 21):
        base = {"wall_s": seed, "cpu_s": seed, "sum": 100 + rng.randrange(5), "k": 5,
                "iterations": 10, "sha256": "a"}
        factor = 1.1 if seed % 5 == 0 else 0.8
        change = dict(base, wall_s=seed * factor, cpu_s=seed * factor)
        if seed in (3, 7):
            change.update(sum=base["sum"] - 3, sha256="b")
        pairs.append({"seed": seed, "base": base, "change": change})
    summary = ab.summarize(pairs)
    for metric in ("wall_s", "cpu_s"):
        assert summary[metric]["ratio"]["median"] == 0.8
        assert summary[metric]["change_faster_pairs"] == 16 and summary[metric]["pairs"] == 20
        assert summary[metric]["base"]["median"] == 10.5
    assert not summary["identical"] and summary["differing_seeds"] == [3, 7]
    sums = {side: [p[side]["sum"] for p in pairs] for side in ("base", "change")}
    expected = welch_t_test(sums["base"], sums["change"])
    assert summary["welch"]["p_value"] == expected.p_value
    assert abs(summary["welch"]["base_minus_change"] - 0.3) < 1e-9
    assert ab.summarize(pairs[:19])["welch"] is None
