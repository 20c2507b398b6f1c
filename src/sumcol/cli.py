"""Command line front end.

Two subcommands: ``solve`` runs one instance file, ``bench`` runs every
instance of a manifest.  Both write the same CSV/JSON reports produced by
the library harness.
"""

from __future__ import annotations

import argparse
import os
import sys

from .bench import (
    MASC,
    MODES,
    InstanceRecord,
    default_params,
    load_instance,
    load_manifest,
    render_report,
    run_instance,
)
from .coloring import Coloring, load_coloring, save_coloring
from .graph import load_dimacs
from .memetic import MemeticParams
from .tabu_search import TabuSearchParams

# --param keys and where each lands inside MemeticParams: (section, field,
# cast).  Every int-valued attribute of a default-constructed parameter
# class is a key, cast by its default's type.
_PARAM_FIELDS = {
    name: (section, name, type(default))
    for section, params in (("", MemeticParams), ("tabu", TabuSearchParams))
    for name, default in vars(params()).items()
    if isinstance(default, int)
}


def _with(params, field: str, value):
    """A copy of a parameter set with one field changed, built (and so
    checked) by its class's constructor."""
    return type(params)(**{**vars(params), field: value})


def apply_param_overrides(params: MemeticParams, pairs: list[str]) -> MemeticParams:
    """Apply ``key=value`` strings from --param onto a parameter set."""
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            raise ValueError(f"--param expects key=value, got {pair!r}")
        if key not in _PARAM_FIELDS:
            known = ", ".join(sorted(_PARAM_FIELDS))
            raise ValueError(f"unknown parameter {key!r}; known: {known}")
        section, field, cast = _PARAM_FIELDS[key]
        try:
            value = cast(raw)
        except ValueError:
            raise ValueError(f"bad value {raw!r} for parameter {key!r}") from None
        if section:
            value = _with(getattr(params, section), field, value)
            field = section
        params = _with(params, field, value)
    return params


def _add_common_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=MODES, default=MASC)
    parser.add_argument("--runs", type=int, default=10, help="runs per instance (default 10)")
    parser.add_argument("--seed", type=int, default=1, help="base seed (default 1)")
    parser.add_argument("--param", action="append", default=[], metavar="KEY=VALUE",
                        help="override a search parameter; repeatable")
    parser.add_argument("--out", metavar="PATH", help="write the report here instead of stdout")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--jobs", type=int, default=1, help="parallel worker processes (default 1)")
    parser.add_argument("--times", action="store_true",
                        help="include wall-clock columns (breaks byte-for-byte determinism)")
    parser.add_argument("--validate", action="store_true",
                        help="run heavy internal consistency checks (slow)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sumcol",
                                     description="Minimum sum coloring solver and benchmark runner")
    commands = parser.add_subparsers(dest="command", required=True)

    solve = commands.add_parser("solve", help="solve one DIMACS instance file")
    solve.add_argument("file", help="DIMACS .col instance")
    _add_common_options(solve)
    solve.add_argument("--warm-start", metavar="PATH",
                       help="coloring file used as an initial solution")
    solve.add_argument("--target", type=int,
                       help="stop a run once its best sum reaches this value (masc only)")
    solve.add_argument("--best-known", type=int,
                       help="reference sum for the success-rate column")
    solve.add_argument("--save-best", metavar="PATH",
                       help="write the best coloring found to this file")

    bench = commands.add_parser("bench", help="run every instance in a manifest")
    bench.add_argument("manifest", help="manifest file listing instances")
    _add_common_options(bench)
    bench.add_argument("--skip-missing", action="store_true",
                       help="skip manifest instances whose files are absent")
    return parser


def _check_outputs(outputs: dict[str, str | None], inputs: list[str | None]) -> None:
    """Refuse the output paths before any run: a directory, a file whose
    parent directory does not exist, an input file of the command, or the
    path of another output."""
    taken = {os.path.realpath(path): f"input {path!r}" for path in inputs if path}
    for option, path in outputs.items():
        if path is None:
            continue
        if os.path.isdir(path):
            raise ValueError(f"{option} {path!r} is a directory")
        parent = os.path.dirname(path)
        if parent and not os.path.isdir(parent):
            raise ValueError(f"{option} {path!r}: no directory {parent!r}")
        real = os.path.realpath(path)
        if real in taken:
            raise ValueError(f"{option} {path!r} would overwrite {taken[real]}")
        taken[real] = option


def _emit(reports, args) -> None:
    text = render_report(reports, args.format, include_times=args.times)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _cmd_solve(args) -> int:
    _check_outputs({"--out": args.out, "--save-best": args.save_best},
                   [args.file, args.warm_start])
    graph = load_dimacs(args.file)
    name = os.path.splitext(os.path.basename(args.file))[0]
    record = InstanceRecord(
        name=name, path=args.file, n=graph.n, m=graph.edge_count,
        best_known=args.best_known,
    )
    warm = load_coloring(args.warm_start, graph) if args.warm_start else None
    params = apply_param_overrides(default_params(args.mode), args.param)
    report = run_instance(
        record, mode=args.mode, runs=args.runs, base_seed=args.seed,
        params=params, graph=graph, warm_start=warm, target=args.target,
        jobs=args.jobs, validate=args.validate,
    )
    print(f"{record.name}: n={record.n} m={record.m} mode={args.mode} runs={args.runs}",
          file=sys.stderr)
    print(f"best sum {report.sum_best} with {report.k_best} colors; "
          f"avg {report.average:.2f}, sigma {report.sigma:.2f}", file=sys.stderr)
    if report.success_rate is not None:
        print(f"success rate {report.success_rate:.2f} against {record.best_known}",
              file=sys.stderr)
    if args.save_best:
        save_coloring(args.save_best, Coloring.from_assignment(report.best_assignment))
    _emit([report], args)
    return 0


def _cmd_bench(args) -> int:
    records = load_manifest(args.manifest)
    _check_outputs({"--out": args.out}, [args.manifest] + [r.path for r in records])
    missing = [r for r in records if not os.path.exists(r.path)]
    if missing:
        names = ", ".join(r.name for r in missing)
        if not args.skip_missing:
            print(f"error: missing instance files: {names}", file=sys.stderr)
            return 1
        print(f"skipping missing instances: {names}", file=sys.stderr)
        records = [r for r in records if os.path.exists(r.path)]
    if not records:
        print("error: no instances to run", file=sys.stderr)
        return 1
    params = apply_param_overrides(default_params(args.mode), args.param)
    reports = []
    for record in records:
        graph = load_instance(record)
        report = run_instance(
            record, mode=args.mode, runs=args.runs, base_seed=args.seed,
            params=params, graph=graph, jobs=args.jobs, validate=args.validate,
        )
        print(f"{record.name}: best {report.sum_best} (k={report.k_best}), "
              f"avg {report.average:.2f}", file=sys.stderr)
        reports.append(report)
    _emit(reports, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        return _cmd_bench(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
