import codecs
import json
import math
import pickle

import pytest

from sumcol import (
    Coloring,
    MemeticParams,
    TabucolParams,
    TabuSearchParams,
    run_instance,
    run_seed,
    welch_t_test,
)
from sumcol.bench import (
    CSV_COLUMNS,
    InstanceRecord,
    RunReport,
    RunRow,
    default_params,
    load_instance,
    load_manifest,
    render_report,
)
from sumcol.graph import InputError

from conftest import instance_path


def quick_params(**tabu_overrides):
    tabu = dict(exchange_idle_limit=40, relocate_idle_limit=80,
                stall_limit=300, iteration_budget=600)
    tabu.update(tabu_overrides)
    return MemeticParams(
        tabu=TabuSearchParams(**tabu),
        init=TabucolParams(iteration_budget=20_000),
    )


def myciel3_record():
    return InstanceRecord("myciel3", str(instance_path("myciel3")), 11, 20, 21, True, 4)


# ---------------------------------------------------------------- seeds

def test_run_seed_matches_published_mixer_outputs():
    # first three outputs of the splitmix64 reference sequence for state 0
    assert run_seed(0, 0) == 0xE220A8397B1DCDAF
    assert run_seed(0, 1) == 0x6E789E6AA1B965F4
    assert run_seed(0, 2) == 0x06C45D188009454F


def test_run_seed_distinct_across_runs_and_bases():
    seeds = {run_seed(base, i) for base in (0, 1, 2, 42) for i in range(50)}
    assert len(seeds) == 200


# ------------------------------------------------------------- manifest

def test_load_manifest_roundtrip(tmp_path):
    text = (
        "# comment line\n"
        "\n"
        "tiny sub/tiny.col 4 3 7 exact 2\n"
        "open other.col 9 12 30 ub --\n"
        "blank third.col 5 4 -- -- --\n"
    )
    path = tmp_path / "manifest.txt"
    path.write_text(text)
    records = load_manifest(str(path))
    assert [r.name for r in records] == ["tiny", "open", "blank"]
    tiny, open_, blank = records
    assert tiny.path == str(tmp_path / "sub" / "tiny.col")
    assert (tiny.n, tiny.m, tiny.best_known, tiny.bound_exact, tiny.gcp_k) == (4, 3, 7, True, 2)
    assert open_.bound_exact is False and open_.gcp_k is None
    assert blank.best_known is None and blank.bound_exact is None


@pytest.mark.parametrize(
    "row,needle",
    [
        ("bad path.col 4 3 7 exact", "7 fields"),
        ("bad path.col x 3 7 exact 2", "vertex/edge"),
        ("bad path.col 4 3 7 maybe 2", "exact"),
        ("bad path.col 4 3 -- exact 2", "without a best"),
        ("bad path.col 4 3 7 exact two", "color count"),
        ("bad path.col 4 3 seven exact 2", "best value"),
    ],
)
def test_load_manifest_rejects_malformed_rows(tmp_path, row, needle):
    path = tmp_path / "manifest.txt"
    path.write_text(row + "\n")
    with pytest.raises(InputError, match=needle) as info:
        load_manifest(str(path))
    assert info.value.line_no == 1
    assert str(info.value).startswith(f"{path}: line 1: ")


def test_load_manifest_rejects_duplicate_names(tmp_path):
    path = tmp_path / "manifest.txt"
    path.write_text("a a.col 1 0 1 exact 1\na b.col 1 0 1 exact 1\n")
    with pytest.raises(InputError, match="duplicate") as info:
        load_manifest(str(path))
    assert info.value.line_no == 2


@pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
def test_load_manifest_names_the_line_of_an_undecodable_byte(tmp_path, newline):
    """A byte that is not UTF-8 is refused on its own line, counted as the
    rows are, whatever the line ending."""
    path = tmp_path / "manifest.txt"
    rows = [b"# caf\xc3\xa9", b"a a.col 1 0 1 exact 1", b"b b\xff.col 1 0 1 exact 1"]
    path.write_bytes(newline.join(rows) + newline)
    with pytest.raises(InputError) as info:
        load_manifest(str(path))
    assert info.value.line_no == 3
    assert str(info.value) == f"{path}: line 3: byte 0xff is not valid utf-8"


def test_load_manifest_drops_a_leading_byte_order_mark(tmp_path):
    """A manifest saved with a UTF-8 byte-order mark names its first
    instance without the mark, and a bad row keeps its line number."""
    path = tmp_path / "manifest.txt"
    path.write_bytes(codecs.BOM_UTF8 + b"myciel3 myciel3.col 11 20 21 exact 4\n")
    assert [r.name for r in load_manifest(str(path))] == ["myciel3"]
    path.write_bytes(codecs.BOM_UTF8 + b"# comment\nbad path.col 4 3 7 maybe 2\n")
    with pytest.raises(InputError, match="exact") as info:
        load_manifest(str(path))
    assert info.value.line_no == 2


def test_load_instance_checks_declared_sizes(tmp_path):
    col = tmp_path / "g.col"
    col.write_text("p edge 3 2\ne 1 2\ne 2 3\n")
    good = InstanceRecord("g", str(col), 3, 2)
    assert load_instance(good).n == 3
    with pytest.raises(InputError, match="declares") as info:
        load_instance(InstanceRecord("g", str(col), 3, 5))
    assert info.value.line_no is None


# ------------------------------------------------------------ statistics

def test_welch_t_test_frozen_example():
    # hand-derived: means 11 vs 21, both variances 1, three samples each
    # => t = -10 / sqrt(2/3) = -sqrt(150), df = 4 exactly
    result = welch_t_test([10, 12, 11], [20, 22, 21])
    assert result.statistic == pytest.approx(-math.sqrt(150))
    assert result.df == pytest.approx(4.0)
    assert result.p_value < 0.001
    assert result.significant and not result.degenerate


def test_welch_t_test_insignificant_example():
    # hand-derived: means 11 vs 12, variances 2, two samples each
    # => t = -1 / sqrt(2), df = 2, p ~ 0.55
    result = welch_t_test([10, 12], [11, 13])
    assert result.statistic == pytest.approx(-1 / math.sqrt(2))
    assert result.df == pytest.approx(2.0)
    assert 0.5 < result.p_value < 0.7
    assert not result.significant and not result.degenerate


def test_welch_t_test_degenerate_variances():
    equal = welch_t_test([5, 5], [5, 5])
    assert equal.degenerate and not equal.significant and equal.p_value == 1.0
    apart = welch_t_test([5, 5], [7, 7])
    assert apart.degenerate and not apart.significant
    assert apart.statistic == -math.inf and apart.p_value == 0.0


def test_welch_t_test_rejects_tiny_samples():
    with pytest.raises(ValueError):
        welch_t_test([1], [2, 3])


# ------------------------------------------------------ report summaries

def synthetic_report():
    rows = [
        RunRow(seed=101, sum=23, k=5, iterations=600, wall_seconds=1.0, best_seconds=0.4),
        RunRow(seed=102, sum=21, k=4, iterations=600, wall_seconds=1.0, best_seconds=0.6),
        RunRow(seed=103, sum=21, k=4, iterations=600, wall_seconds=1.0, best_seconds=1.2),
        RunRow(seed=104, sum=25, k=5, iterations=600, wall_seconds=1.0, best_seconds=0.1),
    ]
    record = InstanceRecord(name="toy", path="toy.col", n=11, m=20,
                            best_known=21, bound_exact=True)
    return RunReport(record=record, mode="masc", base_seed=9, rows=rows, lower_bound=15)


def test_report_summary_math():
    report = synthetic_report()
    assert report.runs == 4
    assert report.sum_best == 21
    assert report.k_best == 4
    assert report.success_rate == pytest.approx(0.5)
    assert report.average == pytest.approx(22.5)
    # population standard deviation of [23, 21, 21, 25]
    assert report.sigma == pytest.approx(math.sqrt(2.75))
    # mean of the two best-achieving rows' times, in minutes
    assert report.time_minutes == pytest.approx(0.9 / 60)
    assert report.sums() == [23, 21, 21, 25]


def test_report_without_reference_has_no_success_rate():
    report = synthetic_report()
    report = report._replace(record=report.record._replace(best_known=None))
    assert report.success_rate is None


def test_csv_report_layout():
    text = render_report([synthetic_report()], "csv")
    lines = text.splitlines()
    assert lines[0] == "name,n,m,best_known,lb,mode,sum_best,k_best,sr,avg,sigma,time_min,runs,seed"
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert lines[1] == "toy,11,20,21,15,masc,21,4,0.50,22.50,1.66,,4,9"
    with_times = render_report([synthetic_report()], "csv", include_times=True)
    assert with_times.splitlines()[1] == "toy,11,20,21,15,masc,21,4,0.50,22.50,1.66,0.01,4,9"


def test_json_report_layout():
    report = synthetic_report()
    payload = json.loads(render_report([report], "json"))
    (entry,) = payload["reports"]
    assert list(entry) == [
        "name", "n", "m", "best_known", "bound_exact", "lower_bound", "mode", "runs", "base_seed",
        "sum_best", "k_best", "success_rate", "average", "sigma", "time_minutes", "rows",
    ]
    assert list(entry["rows"][0]) == [
        "seed", "sum", "k", "iterations", "wall_seconds", "best_seconds",
    ]
    assert entry["name"] == "toy"
    assert entry["sum_best"] == 21 and entry["k_best"] == 4
    assert entry["lower_bound"] == 15
    assert entry["success_rate"] == pytest.approx(0.5)
    assert entry["time_minutes"] is None
    assert [r["sum"] for r in entry["rows"]] == [23, 21, 21, 25]
    assert all(r["wall_seconds"] is None for r in entry["rows"])
    timed = json.loads(render_report([report], "json", include_times=True))
    assert timed["reports"][0]["time_minutes"] == pytest.approx(0.9 / 60)
    assert timed["reports"][0]["rows"][0]["wall_seconds"] == pytest.approx(1.0)


def test_render_report_rejects_unknown_format():
    with pytest.raises(ValueError, match="format"):
        render_report([synthetic_report()], "xml")


# ------------------------------------------------------------- batch runs

def test_run_instance_masc_small(myciel3):
    record = myciel3_record()
    report = run_instance(record, runs=3, base_seed=5, params=quick_params(),
                          graph=myciel3, target=21)
    assert report.runs == 3
    assert [row.seed for row in report.rows] == [run_seed(5, i) for i in range(3)]
    assert report.sum_best == 21
    assert report.best_assignment is not None
    assert sum(report.best_assignment) == 21
    # iterations may be zero when the target is already met at population init
    assert all(row.iterations >= 0 for row in report.rows)
    assert all(row.best_seconds <= row.wall_seconds for row in report.rows)


@pytest.mark.parametrize("mode", ["dnts", "ts-n1", "ts-n2"])
def test_run_instance_single_solution_modes(myciel3, mode):
    record = myciel3_record()
    report = run_instance(record, mode=mode, runs=2, base_seed=3,
                          params=quick_params(), graph=myciel3)
    assert report.mode == mode
    assert all(row.iterations == 600 for row in report.rows)
    assert all(row.sum >= 21 for row in report.rows)


def test_run_instance_reports_identical_with_and_without_jobs(myciel3):
    record = myciel3_record()
    kwargs = dict(runs=2, base_seed=8, params=quick_params(), graph=myciel3, target=21)
    sequential = run_instance(record, **kwargs)
    parallel = run_instance(record, jobs=2, **kwargs)
    assert render_report([sequential], "json") == render_report([parallel], "json")


def test_what_workers_exchange_survives_pickling():
    """--jobs N pickles the parameters and record to each worker and the
    rows back, so every field must come through unchanged."""
    params = MemeticParams(
        population_size=4, max_generations=7, replace_second_worst_probability=0.5,
        tabu=TabuSearchParams(exchange_idle_limit=40, relocate_idle_limit=80,
                              stall_limit=45, iteration_budget=123),
        init=TabucolParams(iteration_budget=20_000, restarts=2),
    )
    copy = pickle.loads(pickle.dumps(params))
    assert type(copy) is MemeticParams
    assert (copy.population_size, copy.max_generations, copy.replace_second_worst_probability) == (4, 7, 0.5)
    assert type(copy.tabu) is TabuSearchParams and vars(copy.tabu) == vars(params.tabu)
    assert type(copy.init) is TabucolParams and vars(copy.init) == vars(params.init)
    record = myciel3_record()
    assert pickle.loads(pickle.dumps(record)) == record
    report = synthetic_report()
    copy = pickle.loads(pickle.dumps(report))
    assert type(copy) is RunReport and copy == report
    assert type(copy.record) is InstanceRecord and all(type(row) is RunRow for row in copy.rows)


def test_run_instance_starts_at_most_one_worker_per_run(myciel3, monkeypatch):
    """The pool is sized to the runs it has to spread, and a single run
    needs none.  A fake pool records its size and maps in-process."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    record = myciel3_record()
    kwargs = dict(base_seed=8, params=quick_params(), graph=myciel3, target=21)
    run_instance(record, runs=2, jobs=8, **kwargs)
    assert sizes == [2]
    run_instance(record, runs=1, jobs=4, **kwargs)
    assert sizes == [2]


def test_run_instance_stops_dnts_at_a_certified_optimum():
    """Every 7-coloring of queen7_7 sums to its clique-partition bound 196:
    at the default 500k budget, dnts returns the descent's coloring without
    a tabu-search iteration."""
    path = instance_path("queen7_7")
    if not path.exists():
        pytest.skip("instance file queen7_7.col not shipped")
    record = InstanceRecord("queen7_7", str(path), 49, 476, 196, True, 7)
    report = run_instance(record, mode="dnts", runs=2)
    assert report.lower_bound == 196
    assert [(row.sum, row.k, row.iterations) for row in report.rows] == [(196, 7, 0)] * 2


def test_run_instance_warm_start_bounds_result(myciel3):
    record = myciel3_record()
    base = run_instance(record, runs=1, base_seed=2, params=quick_params(),
                        graph=myciel3, target=21)
    warm = Coloring.from_assignment(base.best_assignment)
    report = run_instance(record, mode="dnts", runs=2, base_seed=4,
                          params=quick_params(), graph=myciel3, warm_start=warm)
    assert all(row.sum <= warm.sum for row in report.rows)


def test_run_instance_rejects_bad_arguments(myciel3):
    record = myciel3_record()
    with pytest.raises(ValueError, match="mode"):
        run_instance(record, mode="annealing", graph=myciel3)
    with pytest.raises(ValueError, match="runs"):
        run_instance(record, runs=0, graph=myciel3)
    with pytest.raises(ValueError, match="jobs"):
        run_instance(record, jobs=0, graph=myciel3)


@pytest.mark.parametrize("mode", ["dnts", "ts-n1", "ts-n2"])
def test_run_instance_rejects_target_outside_masc(myciel3, mode):
    with pytest.raises(ValueError, match="target applies only to mode 'masc'"):
        run_instance(myciel3_record(), mode=mode, graph=myciel3, target=21)


def test_default_params_widen_single_mode_budget():
    assert default_params("masc").tabu.iteration_budget == TabuSearchParams().iteration_budget
    for mode in ("dnts", "ts-n1", "ts-n2"):
        assert default_params(mode).tabu.iteration_budget == 500_000


def test_welch_t_test_on_report_sums():
    a = synthetic_report()
    b = synthetic_report()
    result = welch_t_test(a.sums(), b.sums())
    assert result.statistic == 0.0
    assert not result.significant
