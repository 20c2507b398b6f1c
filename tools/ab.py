"""A/B comparison of two source trees on one ``sumcol solve`` command.

Each tree runs in a child process of its own, started with ``python -I
-B`` (no ``PYTHONPATH``, no script or user directory on ``sys.path``, and
no ``__pycache__`` written into the tree, where it would change a later
import's cost) and then given only its own ``src/``; the child checks that
``sumcol`` was imported from there.  Each seed is one pair: one run in
each child, which of the two runs first alternating from pair to pair.  A run is one call of
``sumcol.cli.main(["solve", *ARGS, "--seed", SEED, "--runs", "1", ...])``,
timed in the child by ``perf_counter`` (wall) and ``process_time`` (CPU).
Each child first makes one untimed run, so imports and lazy set-up are
done before the pairs start.

Reported, for wall and CPU time: each side's median and quartiles, and the
median and quartiles of the per-pair ratio change / base, with the number
of pairs the change won.  The ratio is taken per pair because seed sets
alone move both medians by several percent.  Each seed's (sum, k,
iterations, SHA-256 of the saved best coloring) is compared between the
trees; when some differ and there are at least 20 seeds, the repository's
``welch_t_test`` compares the two samples of sums.  The result is stored
under ``--name`` in the JSON file ``--out``, which keeps its other entries;
the per-pair runs are not stored, since a rerun regenerates them.

Usage, from the repository root, with the base tree exported elsewhere:

    git archive HEAD~1 | tar -x -C ../base
    python tools/ab.py ../base . --name queen7_7 --seeds 1-200 --out BENCH.json \\
        -- instances/queen7_7.col --mode masc --target 196
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SIDES = ("base", "change")
MIN_WELCH_SEEDS = 20
ROOT = Path(__file__).resolve().parent.parent


def child(tree: str) -> int:
    """Serve runs of the tree's ``sumcol``: one JSON request per stdin line
    (``{"args": [...], "seed": N}``), one JSON reply per stdout line."""
    src = (Path(tree) / "src").resolve()
    sys.path.insert(0, str(src))
    from sumcol import cli

    imported = Path(cli.__file__).resolve().parent
    if imported != src / "sumcol":
        raise SystemExit(f"imported sumcol from {imported}, not from {src}")
    replies = sys.stdout
    with tempfile.TemporaryDirectory() as work:
        report, best = Path(work, "report.json"), Path(work, "best.col")
        for line in sys.stdin:
            request = json.loads(line)
            argv = ["solve", *request["args"], "--seed", str(request["seed"]), "--runs", "1",
                    "--jobs", "1", "--format", "json", "--out", str(report), "--save-best", str(best)]
            said = io.StringIO()
            with contextlib.redirect_stdout(said), contextlib.redirect_stderr(said):
                cpu0, wall0 = time.process_time(), time.perf_counter()
                code = cli.main(argv)
                wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
            if code != 0:
                raise SystemExit(f"sumcol solve exited {code} on seed {request['seed']}: "
                                 f"{said.getvalue()[-500:]}")
            row = json.loads(report.read_text())["reports"][0]["rows"][0]
            print(json.dumps({"wall_s": wall, "cpu_s": cpu, "sum": row["sum"], "k": row["k"],
                              "iterations": row["iterations"],
                              "sha256": hashlib.sha256(best.read_bytes()).hexdigest()}),
                  file=replies, flush=True)
    return 0


def parse_seeds(text: str) -> list[int]:
    """``1-30`` or ``1,4,9`` (or both, comma-separated) as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def source_digest(tree: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((tree / "src").rglob("*.py")):
        digest.update(path.relative_to(tree).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def summarize(pairs: list[dict]) -> dict:
    out: dict = {}
    for metric in ("wall_s", "cpu_s"):
        ratios = [p["change"][metric] / p["base"][metric] for p in pairs]
        out[metric] = {
            **{side: quartiles([p[side][metric] for p in pairs]) for side in SIDES},
            "ratio": quartiles(ratios),
            "change_faster_pairs": sum(p["change"][metric] < p["base"][metric] for p in pairs),
            "pairs": len(pairs),
        }
    key = ("sum", "k", "iterations", "sha256")
    differing = [p["seed"] for p in pairs
                 if [p["base"][f] for f in key] != [p["change"][f] for f in key]]
    sums = {side: [p[side]["sum"] for p in pairs] for side in SIDES}
    out["identical"] = not differing
    out["differing_seeds"] = differing
    out["sum_mean"] = {side: statistics.fmean(sums[side]) for side in SIDES}
    out["welch"] = None
    if differing and len(pairs) >= MIN_WELCH_SEEDS:
        sys.path.insert(0, str(ROOT / "src"))
        from sumcol.bench import welch_t_test

        result = welch_t_test(sums["base"], sums["change"])
        out["welch"] = dict(result._asdict(), base_minus_change=out["sum_mean"]["base"]
                            - out["sum_mean"]["change"])
    return out


def ask(proc: subprocess.Popen, args: list[str], seed: int) -> dict:
    proc.stdin.write(json.dumps({"args": args, "seed": seed}) + "\n")
    proc.stdin.flush()
    line = proc.stdout.readline()
    if not line:
        raise SystemExit(f"child for {proc.args[-1]} exited with {proc.wait()}")
    return json.loads(line)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="source tree of the parent")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--name", required=True, help="key of this comparison in --out")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-30"),
                        help="seeds, e.g. 1-30 or 1,4,9 (default 1-30)")
    parser.add_argument("--out", type=Path, required=True, help="JSON file to add the result to")
    parser.epilog = "After --: the arguments of `sumcol solve`, without --seed, --runs or --out."
    argv = sys.argv[1:] if argv is None else argv
    if "--" not in argv:
        parser.error("give the `sumcol solve` arguments after --")
    cut = argv.index("--")
    ns = parser.parse_args(argv[:cut])
    args = argv[cut + 1:]
    if len(ns.seeds) < 2:
        parser.error("give at least two seeds")
    trees = {"base": ns.base.resolve(), "change": ns.change.resolve()}
    procs = {side: subprocess.Popen([sys.executable, "-I", "-B", str(Path(__file__).resolve()), "--child",
                                     str(trees[side])],
                                    stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
             for side in SIDES}
    pairs = []
    try:
        for side in SIDES:
            ask(procs[side], args, ns.seeds[0])
        for index, seed in enumerate(ns.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            runs = {side: ask(procs[side], args, seed) for side in order}
            pairs.append({"seed": seed, **runs})
    finally:
        for proc in procs.values():
            proc.stdin.close()
        for proc in procs.values():
            try:
                proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    summary = summarize(pairs)
    result = {
        "args": args,
        "seeds": ns.seeds,
        "source_sha256": {side: source_digest(trees[side]) for side in SIDES},
        "machine": {"python": platform.python_version(), "platform": platform.platform(),
                    "cpus": os.cpu_count()},
        "summary": summary,
    }
    stored = json.loads(ns.out.read_text()) if ns.out.exists() else {}
    stored[ns.name] = result
    ns.out.write_text(json.dumps(stored, indent=1) + "\n")
    for metric in ("wall_s", "cpu_s"):
        s = summary[metric]
        print(f"{ns.name} {metric}: base median {s['base']['median']:.4f} "
              f"(q1 {s['base']['q1']:.4f}, q3 {s['base']['q3']:.4f}), "
              f"change median {s['change']['median']:.4f}; per-pair ratio median "
              f"{s['ratio']['median']:.3f} (IQR {s['ratio']['q1']:.3f}-{s['ratio']['q3']:.3f}), "
              f"change faster in {s['change_faster_pairs']}/{s['pairs']}")
    welch = summary["welch"]
    print(f"{ns.name}: results identical on every seed: {summary['identical']}"
          f" ({len(summary['differing_seeds'])} of {len(pairs)} differ); mean sum "
          f"{summary['sum_mean']['base']:.2f} -> {summary['sum_mean']['change']:.2f}"
          + (f"; Welch p = {welch['p_value']:.3g}, significant: {welch['significant']}" if welch else ""))
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        sys.exit(child(sys.argv[2]))
    sys.exit(main())
