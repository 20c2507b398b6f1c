"""sumcol benchmark: one workload, one seed, one measurement window.

Usage (from the repository root):
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Set-up is timed first: several fresh interpreters each import sumcol and
load the workload's instance, as every ``sumcol`` command does.  Then one
worker process runs solver runs through ``sumcol.cli.main`` until the
window is used up, checking every run's saved coloring.  With ``--trace 1``
each seed is run once untraced and twice traced, and the per-layer metrics
come from the traced runs.

Prints a readable summary, writes everything measured (per-run rows,
deterministic counters, environment stamp) to
``perfbench/out/<workload>-seed<N>-trace<T>.json``, and prints as its last
line the JSON result: the BENCHMARK.json ``end_to_end`` metrics with
``--trace 0`` and its ``per_layer`` metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from workloads import WORKLOADS

SETUP_REPS = 3          # fresh-interpreter set-ups; the median discards a cold-cache first one
DEADLINE_S = 170.0      # the whole benchmark must finish within 180 s
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def probe_setup(instance: Path) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe_setup.py"), str(ROOT / "src"), str(instance)],
        capture_output=True, text=True, timeout=60, cwd=ROOT,
    )
    if proc.returncode != 0:
        fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    setup = json.loads(proc.stdout.splitlines()[-1])
    if Path(setup["file"]).resolve().parent != (ROOT / "src" / "sumcol").resolve():
        fail(f"set-up probe imported sumcol from {setup['file']}")
    return setup


def package_version(name: str) -> str | None:
    try:
        return metadata.version(name)
    except metadata.PackageNotFoundError:
        return None


def source_stamp() -> dict:
    """Commit (when the tree is a git checkout) and a digest of the sources."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        commit = (ROOT / ".git" / head[5:]).read_text().strip() if head.startswith("ref: ") else head
    except OSError:
        pass
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def end_to_end(ops: list[dict], setup: list[dict], rss_mb: float) -> dict:
    scored = [op for op in ops if "sum" in op]
    return {
        "setup_s": statistics.median(s["import_s"] + s["load_s"] for s in setup),
        "wall_s": statistics.median(op["wall_s"] for op in ops),
        "cpu_s": statistics.median(op["cpu_s"] for op in ops),
        "sum_mean": statistics.fmean(op["sum"] for op in scored),
        "peak_rss_mb": rss_mb,
    }


def ungated(workload, ops: list[dict]) -> dict:
    """Time-to-target, hit rate and iteration rate: printed and saved, but
    too seed-dependent at this run length to gate on."""
    scored = [op for op in ops if "sum" in op]
    out = {"iters_per_s": sum(op["iterations"] for op in scored) / sum(op["wall_s"] for op in scored)}
    if workload.ttt_target is not None:
        # A run that misses the target, or fails its checks, never reaches it.
        ttt = [op["best_s"] if not op["problems"] and op.get("sum", math.inf) <= workload.ttt_target
               else math.inf for op in ops]
        out["ttt_s"] = statistics.median(ttt)
        out["ttt_samples"] = ttt
        out["hit_rate"] = sum(t < math.inf for t in ttt) / len(ttt)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {w["name"] for w in spec["workloads"]}
    if args.workload not in declared or args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; known: {sorted(declared)}")
    workload = WORKLOADS[args.workload]
    instance = ROOT / "instances" / workload.instance
    if not (ROOT / "src" / "sumcol" / "__init__.py").is_file():
        fail(f"no sumcol sources under {ROOT / 'src'}")
    if not instance.is_file():
        fail(f"instance file {instance} is missing")
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    prefix = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    out_path = Path(f"{prefix}.json")
    load_before = os.getloadavg()

    setup = [probe_setup(instance) for _ in range(SETUP_REPS)]
    worker_out = Path(f"{prefix}.worker.json")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(ROOT), args.workload, str(args.seed),
             str(args.seconds), str(args.trace), str(prefix)],
            capture_output=True, text=True, cwd=ROOT,
            timeout=max(1.0, DEADLINE_S - (time.monotonic() - started)),
        )
    except subprocess.TimeoutExpired:
        fail(f"worker did not finish within {DEADLINE_S:.0f} s")
    if proc.returncode != 0:
        fail(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(worker_out.read_text())
    worker_out.unlink()
    ops = result["ops"]
    if not any("sum" in op for op in ops):
        fail("no solver run produced a result: " + "; ".join(ops[0]["problems"]))

    info = ungated(workload, ops)
    if args.trace:
        values = dict(result["layers"])
        values["sumcol.import_s"] = statistics.median(s["import_s"] for s in setup)
        values["graph.load_s"] = statistics.median(s["load_s"] for s in setup)
        values["trace.overhead_ratio"] = (sum(op["traced"][0]["wall_s"] for op in ops)
                                          / sum(op["wall_s"] for op in ops))
    else:
        values = end_to_end(ops, setup, result["rss_mb"])
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        fail(f"metrics not computed: {missing}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    problems = [f"run {op['base_seed']}: {p}" for op in ops for p in op["problems"]]
    failed = sum(1 for op in ops if op["problems"])
    env = {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "python": platform.python_version(),
        "scipy": package_version("scipy"),
        **source_stamp(),
    }
    counters = [
        {"base_seed": op["base_seed"], **{f: op.get(f) for f in ("seed", "sum", "k", "iterations")},
         **(op["traced"][0].get("counters", {}) if args.trace else {})}
        for op in ops
    ]
    full = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "env": env, "setup": setup, "metrics": metrics, "ungated": info,
            "counters": counters, "problems": problems, "ops": ops, "spans": result.get("spans")}
    out_path.write_text(json.dumps(full, indent=1, default=str))

    print(f"{args.workload} seed={args.seed} runs={len(ops)} failed={failed} trace={args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for name in ("ttt_s", "hit_rate", "iters_per_s"):
        if name in info:
            print(f"  (ungated) {name:32s} {info[name]:14.6g}  over {len(ops)} runs")
    for row in counters:
        print("  counters " + " ".join(f"{k}={v}" for k, v in row.items()))
    print(f"  env {json.dumps(env)}")
    for problem in problems:
        print(f"  PROBLEM {problem}")
    print(f"  details: {out_path.relative_to(ROOT)}")
    print(json.dumps({"correct": not problems, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
