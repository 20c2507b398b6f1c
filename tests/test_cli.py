import json
import shutil

import pytest

from sumcol import MemeticParams, load_coloring, load_dimacs
from sumcol.cli import _PARAM_FIELDS, apply_param_overrides, build_parser, main

from conftest import instance_path

QUICK = [
    "--param", "iteration_budget=400",
    "--param", "exchange_idle_limit=40",
    "--param", "relocate_idle_limit=80",
    "--param", "stall_limit=200",
    "--param", "init_iteration_budget=20000",
]


def myciel3_path():
    path = instance_path("myciel3")
    if not path.exists():
        pytest.skip("instance file myciel3.col not shipped")
    return str(path)


def test_apply_param_overrides_reaches_every_section():
    params = apply_param_overrides(
        MemeticParams(),
        ["population_size=4", "max_generations=7",
         "replace_second_worst_probability=0.5",
         "iteration_budget=123", "stall_limit=45",
         "init_restarts=2", "init_iteration_budget=321"],
    )
    assert params.population_size == 4
    assert params.max_generations == 7
    assert params.replace_second_worst_probability == 0.5
    assert params.tabu.iteration_budget == 123
    assert params.tabu.stall_limit == 45
    assert params.init.restarts == 2
    assert params.init.iteration_budget == 321


def test_apply_param_overrides_rejects_bad_input():
    with pytest.raises(ValueError, match="key=value"):
        apply_param_overrides(MemeticParams(), ["population_size"])
    with pytest.raises(ValueError, match="unknown parameter"):
        apply_param_overrides(MemeticParams(), ["warp_factor=9"])
    with pytest.raises(ValueError, match="bad value"):
        apply_param_overrides(MemeticParams(), ["population_size=lots"])


@pytest.mark.parametrize("pair, message", [
    ("stall_limit=0", "stall_limit must be >= 1"),
    ("init_restarts=0", "iteration_budget and restarts must be >= 1"),
    ("replace_second_worst_probability=1.5", r"replace_second_worst_probability must be in \[0, 1\]"),
])
def test_apply_param_overrides_checks_each_changed_set(pair, message):
    with pytest.raises(ValueError, match=message):
        apply_param_overrides(MemeticParams(), [pair])


def test_parser_rejects_unknown_mode():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["solve", "x.col", "--mode", "simulated"])


def test_solve_writes_csv_report(tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["solve", myciel3_path(), "--runs", "2", "--seed", "3",
                 "--target", "21", "--best-known", "21",
                 "--out", str(out), *QUICK])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("name,n,m,best_known,lb,")
    assert lines[1].startswith("myciel3,11,20,21,15,masc,21,")
    err = capsys.readouterr().err
    assert "best sum 21" in err


def test_solve_writes_json_report_to_out(tmp_path):
    out = tmp_path / "report.json"
    code = main(["solve", myciel3_path(), "--runs", "1", "--seed", "2",
                 "--target", "21", "--format", "json", "--out", str(out), *QUICK])
    assert code == 0
    assert json.loads(out.read_text())["reports"][0]["name"] == "myciel3"


def test_solve_prints_report_to_stdout(capsys):
    code = main(["solve", myciel3_path(), "--runs", "1", "--seed", "2",
                 "--target", "21", "--format", "json", *QUICK])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reports"][0]["sum_best"] == 21


def test_solve_save_best_roundtrips(tmp_path):
    best = tmp_path / "best.txt"
    code = main(["solve", myciel3_path(), "--runs", "1", "--seed", "4",
                 "--target", "21", "--save-best", str(best), *QUICK])
    assert code == 0
    graph = load_dimacs(myciel3_path())
    coloring = load_coloring(str(best), graph)
    assert coloring.sum == 21


def test_solve_warm_start_accepts_saved_solution(tmp_path, capsys):
    best = tmp_path / "warm.txt"
    assert main(["solve", myciel3_path(), "--runs", "1", "--seed", "4",
                 "--target", "21", "--save-best", str(best), *QUICK]) == 0
    capsys.readouterr()
    code = main(["solve", myciel3_path(), "--mode", "dnts", "--runs", "1",
                 "--seed", "5", "--warm-start", str(best), *QUICK])
    assert code == 0
    out = capsys.readouterr().out
    assert out.splitlines()[1].split(",")[6] == "21"  # warm start bounds the sum


DEGENERATE_GRAPHS = {
    # name: (n, edges, minimum sum)
    "empty": (0, [], 0),
    "k1": (1, [], 1),
    "edgeless4": (4, [], 4),
    "k6": (6, [(u, v) for u in range(1, 7) for v in range(u + 1, 7)], 21),
}


@pytest.mark.parametrize("mode", ["dnts", "ts-n1", "ts-n2", "masc"])
@pytest.mark.parametrize("name", sorted(DEGENERATE_GRAPHS))
def test_solve_degenerate_graphs(tmp_path, capsys, name, mode):
    """One class (k = 1), or no relocation at all: the descent's coloring
    already meets the graph's clique-partition bound, so every mode reports
    the minimum sum without a tabu-search iteration, and masc builds no
    population beyond it.  The graph without vertices gets the empty
    coloring in every mode."""
    n, edges, expected = DEGENERATE_GRAPHS[name]
    path = tmp_path / f"{name}.col"
    path.write_text(f"p edge {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    code = main(["solve", str(path), "--mode", mode, "--runs", "2", "--validate", "--format", "json",
                 "--param", "iteration_budget=300", "--param", "max_generations=2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)["reports"][0]
    assert report["sum_best"] == expected
    assert report["lower_bound"] == expected
    assert [(row["sum"], row["iterations"]) for row in report["rows"]] == [(expected, 0)] * 2


def test_solve_reports_parse_errors(tmp_path, capsys):
    """A refused input file is named in front of the refused line: a graph
    given to solve or listed in a manifest, a warm start, a manifest, and
    a manifest holding a byte that is not UTF-8.  A listed graph whose
    size disagrees with its row is named too."""
    bad = tmp_path / "bad.col"
    bad.write_text("p edge 2 1\ne 1 5\n")
    good = tmp_path / "good.col"
    good.write_text("p edge 2 1\ne 1 2\n")
    warm = tmp_path / "warm.txt"
    warm.write_text("s 3 2\nv 1 1\nq\n")
    lists_bad = tmp_path / "lists_bad.txt"
    lists_bad.write_text(f"bad {bad} 2 1 -- -- --\n")
    malformed = tmp_path / "malformed.txt"
    malformed.write_text("# instances\nbad bad.col 2\n")
    lists_wrong_size = tmp_path / "lists_wrong_size.txt"
    lists_wrong_size.write_text(f"good {good} 3 1 -- -- --\n")
    undecodable = tmp_path / "undecodable.txt"
    undecodable.write_bytes(b"caf\xe9 good.col 2 1 -- -- --\n")
    cases = [
        (["solve", str(bad)], f"{bad}: line 2: endpoint outside 1..2 in 'e 1 5'"),
        (["bench", str(lists_bad)], f"{bad}: line 2: endpoint outside 1..2 in 'e 1 5'"),
        (["solve", str(good), "--warm-start", str(warm)], f"{warm}: line 3: unrecognized line 'q'"),
        (["bench", str(malformed)], f"{malformed}: line 2: expected 7 fields, got 3"),
        (["bench", str(lists_wrong_size)],
         f"{good}: instance good has n=2 m=1, manifest declares n=3 m=1"),
        (["bench", str(undecodable)], f"{undecodable}: line 1: byte 0xe9 is not valid utf-8"),
    ]
    for argv, message in cases:
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


def test_param_keys_are_read_from_the_parameter_classes():
    assert _PARAM_FIELDS == {
        "population_size": ("", "population_size", int),
        "max_generations": ("", "max_generations", int),
        "replace_second_worst_probability": ("", "replace_second_worst_probability", float),
        "exchange_idle_limit": ("tabu", "exchange_idle_limit", int),
        "relocate_idle_limit": ("tabu", "relocate_idle_limit", int),
        "stall_limit": ("tabu", "stall_limit", int),
        "iteration_budget": ("tabu", "iteration_budget", int),
        "init_iteration_budget": ("init", "iteration_budget", int),
        "init_restarts": ("init", "restarts", int),
    }


def test_solve_rejects_target_outside_masc(capsys):
    assert main(["solve", myciel3_path(), "--mode", "dnts", "--target", "21", *QUICK]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "target applies only to mode 'masc'" in err


@pytest.mark.parametrize("pair", ["init_tenure_base=9", "init_tenure_slope=0.6"])
def test_solve_rejects_the_fixed_tenure_keys(capsys, pair):
    """TABUCOL's tenure is a fixed rule, not a key: even its own values are
    refused, on one line and without a traceback."""
    argv = ["solve", myciel3_path(), "--runs", "1", "--param", pair]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: unknown parameter ")
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["missing", "solve", "bench", "--out", "--save-best", "--warm-start",
                                  "--out no-parent", "--save-best no-parent", "both", "bench --out"])
def test_solve_missing_file_fails_cleanly(tmp_path, capsys, case):
    """A missing file, or a directory where a file belongs, is an error
    reported on one line, without a traceback.  An output path that is a
    directory or lies in a missing directory is refused before the first
    run, so neither a report nor a run's progress lines are written."""
    no_parent = str(tmp_path / "no" / "x.csv")
    saved = tmp_path / "b.txt"
    if case == "missing":
        argv = ["solve", "/no/such/file.col"]
    elif case in ("solve", "bench"):
        argv = [case, str(tmp_path)]
    elif case == "bench --out":
        manifest = tmp_path / "m.txt"
        manifest.write_text(f"myciel3 {myciel3_path()} 11 20 21 exact 4\n")
        argv = ["bench", str(manifest), "--runs", "1", "--out", str(tmp_path), *QUICK]
    elif case == "both":
        argv = ["solve", myciel3_path(), "--runs", "1", "--target", "21",
                "--out", no_parent, "--save-best", str(saved), *QUICK]
    else:
        option, _, where = case.partition(" ")
        argv = ["solve", myciel3_path(), "--runs", "1", "--target", "21",
                option, no_parent if where else str(tmp_path), *QUICK]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err
    assert captured.out == ""
    assert not saved.exists()


@pytest.mark.parametrize("command, option, target", [
    ("solve", "--out", "instance"), ("solve", "--save-best", "instance"), ("solve", "--out", "warm"),
    ("solve", "--save-best", "warm"), ("solve", "--save-best", "report"),
    ("bench", "--out", "manifest"), ("bench", "--out", "instance"),
])
def test_outputs_never_overwrite_an_input_or_each_other(tmp_path, capsys, command, option, target):
    """An output path that names an input of the command, or the other
    output, is refused before the first run and leaves every file as it
    was, however the path is spelled."""
    graph = tmp_path / "g.col"
    shutil.copyfile(myciel3_path(), graph)
    warm = tmp_path / "warm.txt"
    manifest = tmp_path / "m.txt"
    manifest.write_text("g g.col 11 20 21 exact 4\n")
    assert main(["solve", str(graph), "--runs", "1", "--target", "21",
                 "--save-best", str(warm), *QUICK]) == 0
    capsys.readouterr()
    before = {path: path.read_bytes() for path in (graph, warm, manifest)}
    (tmp_path / "x").mkdir()
    spelled = {"instance": str(tmp_path / "." / "g.col"), "warm": str(tmp_path / "x" / ".." / "warm.txt"),
               "manifest": str(manifest), "report": str(tmp_path / "r.csv")}
    if command == "bench":
        argv = ["bench", str(manifest), "--runs", "1", option, spelled[target], *QUICK]
    else:
        argv = ["solve", str(graph), "--runs", "1", "--warm-start", str(warm),
                "--out", spelled["report"], option, spelled[target], *QUICK]
    assert main(argv) == 1
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and "would overwrite" in lines[0]
    assert captured.out == ""
    assert {path: path.read_bytes() for path in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.col", "m.txt", "warm.txt", "x"]


def test_bench_runs_manifest(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(f"myciel3 {myciel3_path()} 11 20 21 exact 4\n")
    out = tmp_path / "report.csv"
    code = main(["bench", str(manifest), "--runs", "1", "--seed", "6",
                 "--out", str(out), *QUICK])
    assert code == 0
    assert out.read_text().splitlines()[1].startswith("myciel3,")


def test_bench_missing_instances(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text(
        f"myciel3 {myciel3_path()} 11 20 21 exact 4\n"
        "ghost ghost.col 5 4 -- -- --\n"
    )
    assert main(["bench", str(manifest), "--runs", "1"]) == 1
    assert "missing instance files: ghost" in capsys.readouterr().err
    code = main(["bench", str(manifest), "--runs", "1", "--seed", "2",
                 "--skip-missing", *QUICK])
    assert code == 0
    captured = capsys.readouterr()
    assert "skipping missing instances: ghost" in captured.err
    assert "myciel3" in captured.out


def test_bench_empty_after_skipping(tmp_path, capsys):
    manifest = tmp_path / "m.txt"
    manifest.write_text("ghost ghost.col 5 4 -- -- --\n")
    assert main(["bench", str(manifest), "--runs", "1", "--skip-missing"]) == 1
    assert "no instances" in capsys.readouterr().err
