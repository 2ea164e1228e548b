import csv
import io
import os
import signal
import subprocess
import sys

import pytest

from conftest import TWO_TRIANGLES_PWCNF, TWO_TRIANGLES_WCNF
from partmax import bench
from partmax.cli import main
from partmax.cnf import eliminate_pure_literals
from partmax.formats import parse_pwcnf

ALL_ALGS = ["lsu", "msu3", "oll", "wbo"]
ALL_STRATEGIES = ["none", "user", "vig", "cvig", "res", "random:16"]
SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def records_to_csv(records) -> str:
    buf = io.StringIO()
    bench.write_csv(records, buf)
    return buf.getvalue()


@pytest.fixture
def corpus_dir(tmp_path):
    d = tmp_path / "corpus"
    d.mkdir()
    (d / "two_triangles.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    return d


def test_parse_strategy_specs():
    assert bench.parse_strategy("random:4") == ("random", 4)
    assert bench.parse_strategy("random") == ("random", 16)
    assert bench.parse_strategy("vig") == ("vig", None)
    with pytest.raises(ValueError):
        bench.parse_strategy("random:0")
    for bad in ("zigzag", "randomly", "random16", "random:", "vig:3"):
        with pytest.raises(ValueError):
            bench.parse_strategy(bad)


def test_user_strategy_requires_pwcnf():
    from partmax.formats import detect_and_parse

    kind, parsed = detect_and_parse(TWO_TRIANGLES_WCNF)
    with pytest.raises(ValueError, match="pwcnf"):
        bench.apply_strategy(kind, parsed, "user")


def test_full_matrix_on_reference_instance(corpus_dir):
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf")],
        ALL_ALGS,
        ALL_STRATEGIES,
        timeout=30,
        jobs=1,
        seed=0,
    )
    assert len(records) == 24
    assert all(r.status == "optimum" for r in records)
    assert all(r.cost == 2 for r in records)


def test_parallel_jobs_match_serial(corpus_dir):
    args = ([str(corpus_dir / "two_triangles.pwcnf")], ["oll", "wbo"], ["none", "user"])
    serial = bench.run_benchmark(*args, timeout=30, jobs=1, seed=0)
    parallel = bench.run_benchmark(*args, timeout=30, jobs=2, seed=0)
    strip = lambda rs: [(r.instance, r.alg, r.strategy, r.status, r.cost) for r in rs]
    assert strip(serial) == strip(parallel)


def test_mem_limit_applies_at_one_job(corpus_dir, tmp_path, monkeypatch):
    resource = pytest.importorskip("resource")
    seen = tmp_path / "limits.txt"
    solve_file = bench.solve_file

    def spy(*args, **kwargs):
        with open(seen, "a") as fh:
            fh.write(f"{resource.getrlimit(resource.RLIMIT_AS)[0]}\n")
        return solve_file(*args, **kwargs)

    monkeypatch.setattr(bench, "solve_file", spy)
    own = resource.getrlimit(resource.RLIMIT_AS)
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf")], ["oll"], ["none"], jobs=1, mem_limit_mb=4096
    )
    assert [r.status for r in records] == ["optimum"]
    assert seen.read_text().split() == [str(4096 * 1024 * 1024)]
    assert resource.getrlimit(resource.RLIMIT_AS) == own


def test_empty_matrix_yields_empty_csv():
    records = bench.run_benchmark([], ALL_ALGS, ALL_STRATEGIES, jobs=1)
    assert records == []
    text = records_to_csv(records)
    assert text.strip() == ",".join(bench.CSV_COLUMNS)


def test_zero_timeout_records_timeouts(corpus_dir):
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf")], ["oll"], ["none"], timeout=0.0, jobs=1
    )
    assert [r.status for r in records] == ["timeout"]
    assert records[0].time_s < 5  # budget plus bounded grace


def test_crash_recorded_as_error(tmp_path):
    bad = tmp_path / "broken.pwcnf"
    bad.write_text("p pwcnf not a header\n")
    records = bench.run_benchmark([str(bad)], ["oll"], ["none"], jobs=1)
    assert [r.status for r in records] == ["error"]


# a worker that dies takes its run with it; run_benchmark must still return
DEAD_WORKER = """
import os, sys
from partmax import bench
bench.solve_file = lambda *args: os._exit(1)
records = bench.run_benchmark([sys.argv[1]], ["oll", "wbo"], ["none"], jobs=1)
print(",".join(r.status for r in records))
"""


def test_dead_worker_recorded_as_error(corpus_dir):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-c", DEAD_WORKER, str(corpus_dir / "two_triangles.pwcnf")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("run_benchmark did not return after its worker died")
    assert proc.returncode == 0, err
    assert out.split() == ["error,error"]


def test_python_m_partmax_solves(tmp_path):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "partmax", "solve", str(f)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "o 2" in proc.stdout.splitlines()
    assert "s OPTIMUM FOUND" in proc.stdout


def test_csv_schema_and_determinism(corpus_dir):
    paths = [str(corpus_dir / "two_triangles.pwcnf")]
    a = records_to_csv(bench.run_benchmark(paths, ["msu3"], ["vig", "none"], jobs=1))
    rows = list(csv.reader(io.StringIO(a)))
    assert rows[0] == ["instance", "alg", "strategy", "status", "cost", "time_s", "sat_calls", "cores"]
    b = records_to_csv(bench.run_benchmark(paths, ["msu3"], ["vig", "none"], jobs=1))
    cost_a = [r[4] for r in list(csv.reader(io.StringIO(a)))[1:]]
    cost_b = [r[4] for r in list(csv.reader(io.StringIO(b)))[1:]]
    assert cost_a == cost_b


def test_summary_counts_match_optimum_records(corpus_dir):
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf")], ["oll"], ["none", "user"], jobs=1
    )
    counts = bench.solved_counts(records)
    assert counts == {("oll", "none"): 1, ("oll", "user"): 1}
    table = bench.summary_table(records, ["oll"], ["none", "user"])
    assert "oll" in table and "1" in table


def test_cactus_rows_sorted(corpus_dir):
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf")], ["oll", "wbo"], ["none"], jobs=1
    )
    rows = bench.cactus_rows(records)
    per_cfg = {}
    for alg, strategy, rank, t in rows:
        per_cfg.setdefault((alg, strategy), []).append((rank, t))
    for seq in per_cfg.values():
        assert [r for r, _ in seq] == list(range(1, len(seq) + 1))
        times = [t for _, t in seq]
        assert times == sorted(times)


def test_scatter_rows_align_by_instance(corpus_dir, tmp_path):
    extra = tmp_path / "second.pwcnf"
    extra.write_text(TWO_TRIANGLES_PWCNF)
    records = bench.run_benchmark(
        [str(corpus_dir / "two_triangles.pwcnf"), str(extra)],
        ["oll"],
        ["none", "user"],
        jobs=1,
    )
    rows = bench.scatter_rows(records, ("oll", "none"), ("oll", "user"))
    assert [r[0] for r in rows] == sorted({"two_triangles.pwcnf", "second.pwcnf"})


# ------------------------------------------------------------------- cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_solve_user_strategy(tmp_path, capsys):
    f = tmp_path / "t.pwcnf"
    f.write_text(TWO_TRIANGLES_PWCNF)
    code, out, _ = run_cli(capsys, "solve", str(f), "--alg", "oll", "--strategy", "user")
    assert code == 0
    assert "o 2" in out.splitlines()
    assert "s OPTIMUM FOUND" in out
    assert "c partitions: 3" in out


def test_cli_solve_reports_parse_and_partition_seconds(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out, _ = run_cli(capsys, "solve", str(f), "--strategy", "vig")
    assert code == 0
    lines = out.splitlines()
    s_line = next(i for i, line in enumerate(lines) if line.startswith("s "))
    for name in ("parse_s", "partition_s"):
        (i,) = [i for i, line in enumerate(lines) if line.startswith(f"c {name}: ")]
        assert i < s_line
        assert float(lines[i].split(": ")[1]) >= 0


def test_cli_solve_res_strategy_reports_three_partitions(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out, _ = run_cli(capsys, "solve", str(f), "--alg", "msu3", "--strategy", "res")
    assert code == 0
    assert "c partitions: 3" in out
    assert "o 2" in out.splitlines()


def test_cli_random_one_equals_none(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out_none, _ = run_cli(capsys, "solve", str(f), "--strategy", "none")
    code2, out_r1, _ = run_cli(capsys, "solve", str(f), "--strategy", "random:1")
    cost = lambda s: next(l for l in s.splitlines() if l.startswith("o "))
    assert code == code2 == 0
    assert cost(out_none) == cost(out_r1) == "o 2"


def test_cli_user_on_wcnf_is_usage_error(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, _, err = run_cli(capsys, "solve", str(f), "--strategy", "user")
    assert code == 2
    assert "pwcnf" in err


def test_cli_unparsable_file_is_reported(tmp_path, capsys):
    f = tmp_path / "bad.wcnf"
    f.write_text("p wcnf zap\n")
    code, _, err = run_cli(capsys, "solve", str(f))
    assert code == 1
    assert "error" in err


def test_cli_short_header_is_reported(tmp_path, capsys):
    # the header line lacks the top weight; read from the first clause, it
    # would make this satisfiable file hard-unsatisfiable
    f = tmp_path / "short.wcnf"
    f.write_text("p wcnf 2 2\n1 1 0\n1 -1 2 0\n")
    code, out, err = run_cli(capsys, "solve", str(f))
    assert code == 1
    assert out == ""
    assert err == f"error: {f}: line 1: truncated header\n"


def test_cli_partition_vig(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out, _ = run_cli(capsys, "partition", str(f), "--strategy", "vig")
    assert code == 0
    pinst = parse_pwcnf(out)
    assert pinst.n_part == 2
    blocks = {frozenset(ids) for ids in pinst.blocks().values()}
    assert blocks == {frozenset({0, 1}), frozenset({2, 3})}


def test_cli_partition_res(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out, _ = run_cli(capsys, "partition", str(f), "--strategy", "res")
    assert code == 0
    assert parse_pwcnf(out).n_part == 3


@pytest.mark.parametrize("kind", ["vig", "cvig", "res"])
def test_cli_partition_keeps_every_clause_of_a_formula_with_pure_variables(
    tmp_path, capsys, kind
):
    out_dir = tmp_path / "g"
    code, _, _ = run_cli(
        capsys, "gen", "seating", "--count", "1", "--out-dir", str(out_dir), "--seed", "7",
        "--min-persons", "10", "--max-persons", "10",
    )
    assert code == 0
    (path,) = out_dir.glob("*.pwcnf")
    given = parse_pwcnf(path.read_text()).base
    kept, pure = eliminate_pure_literals(given.hard, given.n_vars, given.soft_vars())
    assert pure, "the generated instance has hard-only pure variables"
    code, out, _ = run_cli(capsys, "partition", str(path), "--strategy", kind)
    assert code == 0
    written = parse_pwcnf(out)
    assert written.base.hard == given.hard
    assert [s.lits for s in written.base.soft] == [s.lits for s in given.soft]
    dropped = set(range(len(given.hard))) - set(kept)
    assert dropped and all(written.hard_labels[i] == 1 for i in dropped)

    labelled = tmp_path / "labelled.pwcnf"
    labelled.write_text(out)
    cost = lambda s: next(l for l in s.splitlines() if l.startswith("o "))
    code, user, _ = run_cli(capsys, "solve", str(labelled), "--strategy", "user")
    code2, none, _ = run_cli(capsys, "solve", str(path), "--strategy", "none")
    assert code == code2 == 0
    assert cost(user) == cost(none)


def test_cli_partition_random_caps_at_soft_count(tmp_path, capsys):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    code, out, _ = run_cli(capsys, "partition", str(f), "--strategy", "random:16")
    assert code == 0
    assert parse_pwcnf(out).n_part <= 4


def test_cli_encode_msc_vertex_scheme(capsys):
    code, out, _ = run_cli(
        capsys,
        "encode", "msc",
        "--vertices", "4",
        "--edges", "1-2,1-3,2-3,3-4",
        "--colors", "4",
        "--scheme", "vertex",
    )
    assert code == 0
    pinst = parse_pwcnf(out)
    assert pinst.n_part == 4
    assert len(pinst.base.soft) == 16


def test_cli_encode_scheme_none_single_partition(capsys):
    code, out, _ = run_cli(
        capsys, "encode", "msc", "--vertices", "3", "--edges", "1-2", "--colors", "2"
    )
    assert code == 0
    assert parse_pwcnf(out).n_part == 1


def test_cli_encode_seating(capsys):
    code, out, _ = run_cli(
        capsys,
        "encode", "seating",
        "--persons", "A,B|C|B|C,A|A",
        "--tables", "2",
        "--min-per-table", "2",
        "--max-per-table", "3",
        "--scheme", "tags",
    )
    assert code == 0
    pinst = parse_pwcnf(out)
    assert pinst.n_part == 3
    assert len(pinst.base.soft) == 6


def test_cli_gen_deterministic_and_env_seed(tmp_path, capsys, monkeypatch):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    code, _, _ = run_cli(
        capsys, "gen", "msc", "--count", "3", "--out-dir", str(out1),
        "--seed", "5", "--min-vertices", "3", "--max-vertices", "5",
        "--min-colors", "2", "--max-colors", "3",
    )
    assert code == 0
    monkeypatch.setenv("UPMAX_SEED", "5")
    code, _, _ = run_cli(
        capsys, "gen", "msc", "--count", "3", "--out-dir", str(out2),
        "--min-vertices", "3", "--max-vertices", "5",
        "--min-colors", "2", "--max-colors", "3",
    )
    assert code == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_text() == (out2 / name).read_text()


def test_cli_gen_seating_tag_bounds_set_the_tag_universe(tmp_path, capsys):
    out = tmp_path / "g"
    code, _, _ = run_cli(
        capsys, "gen", "seating", "--count", "4", "--out-dir", str(out), "--seed", "3",
        "--min-persons", "6", "--max-persons", "8", "--min-tags", "2", "--max-tags", "2",
    )
    assert code == 0
    manifest = (out / "manifest.txt").read_text().splitlines()
    assert [line for line in manifest if line.startswith("tags=")] == ["tags=2"] * 4


@pytest.mark.parametrize(
    "argv, message",
    [
        (("msc", "--min-vertices", "6", "--max-vertices", "3"), "min_vertices (6) exceeds max_vertices (3)"),
        (("seating", "--min-persons", "0", "--max-persons", "0"), "min_persons must be at least 1, got 0"),
        (("msc", "--min-density", "1.5"), "min_density must be in [0, 1], got 1.5"),
    ],
)
def test_cli_gen_bad_generator_ranges_are_usage_errors(tmp_path, capsys, argv, message):
    out = tmp_path / "g"
    code, _, err = run_cli(capsys, "gen", *argv, "--count", "2", "--out-dir", str(out))
    assert code == 2
    assert err == f"error: {message}\n"
    assert not out.exists()


def test_cli_malformed_env_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    monkeypatch.setenv("UPMAX_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["partition", str(f), "--strategy", "vig"])
    assert exc.value.code == 2
    assert "UPMAX_SEED must be an integer, got 'abc'" in capsys.readouterr().err
    # an explicit --seed never reads the variable
    code, out, _ = run_cli(capsys, "partition", str(f), "--strategy", "vig", "--seed", "3")
    assert code == 0 and out.startswith("p pwcnf")


def test_cli_bench_end_to_end(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "one.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    out_dir = tmp_path / "results"
    code, out, _ = run_cli(
        capsys,
        "bench",
        "--corpus", str(corpus),
        "--algs", "oll,wbo",
        "--strategies", "none,user",
        "--timeout", "30",
        "--jobs", "1",
        "--out-dir", str(out_dir),
        "--scatter", "oll:none/oll:user",
    )
    assert code == 0
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "summary.txt").exists()
    assert (out_dir / "cactus.csv").exists()
    scatters = [f for f in os.listdir(out_dir) if f.startswith("scatter_")]
    assert len(scatters) == 1
    rows = list(csv.reader((out_dir / "results.csv").open()))
    assert rows[0] == bench.CSV_COLUMNS
    assert len(rows) == 1 + 4
    assert "oll" in out


def test_cli_bench_rejects_malformed_scatter_before_running(tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "one.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    out_dir = tmp_path / "r"
    code, _, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--algs", "oll", "--strategies", "none",
        "--jobs", "1", "--out-dir", str(out_dir), "--scatter", "oll-none/oll:user",
    )
    assert code == 2
    assert "bad scatter spec" in err
    assert not (out_dir / "results.csv").exists()


def test_cli_bench_rejects_unknown_algorithm(tmp_path, capsys):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "one.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    code, _, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--algs", "zap",
        "--out-dir", str(tmp_path / "r"),
    )
    assert code == 2
    assert "unknown algorithm" in err


def _bench_one_instance(tmp_path, capsys, *argv):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "one.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    out_dir = tmp_path / "r"
    code, _, err = run_cli(
        capsys, "bench", "--corpus", str(corpus), "--jobs", "1", "--out-dir", str(out_dir), *argv
    )
    return code, err, out_dir


def test_cli_bench_rejects_unknown_strategy_before_running(tmp_path, capsys):
    code, err, out_dir = _bench_one_instance(
        tmp_path, capsys, "--algs", "oll", "--strategies", "none,vgi"
    )
    assert code == 2
    assert "unknown strategy 'vgi'" in err
    assert not (out_dir / "results.csv").exists()


def test_cli_bench_scatter_names_random_strategy(tmp_path, capsys):
    code, _, out_dir = _bench_one_instance(
        tmp_path, capsys, "--algs", "oll", "--strategies", "none,random:2",
        "--scatter", "oll:random:2/oll:none",
    )
    assert code == 0
    rows = list(csv.reader((out_dir / "scatter_oll-random-2_vs_oll-none.csv").open()))
    assert [r[0] for r in rows] == ["instance", "one.pwcnf"]


def test_cli_bench_rejects_scatter_outside_matrix_before_running(tmp_path, capsys):
    code, err, out_dir = _bench_one_instance(
        tmp_path, capsys, "--algs", "oll", "--strategies", "none",
        "--scatter", "oll:vig/oll:none",
    )
    assert code == 2
    assert "'oll:vig' is not in" in err
    assert not (out_dir / "results.csv").exists()


def test_cli_missing_files_are_reported_without_traceback(tmp_path, capsys):
    missing = str(tmp_path / "nope.wcnf")
    code, _, err = run_cli(capsys, "solve", missing)
    assert code == 1
    assert err.startswith(f"error: {missing}: ") and "Traceback" not in err
    f = tmp_path / "t.wcnf"
    f.write_text(TWO_TRIANGLES_WCNF)
    out = str(tmp_path / "missing_dir" / "x.pwcnf")
    code, _, err = run_cli(capsys, "partition", str(f), "--strategy", "vig", "-o", out)
    assert code == 1
    assert err.startswith(f"error: {out}: ")
    out_dir = tmp_path / "o"
    code, _, err = run_cli(
        capsys, "bench", "--corpus", str(tmp_path / "no_corpus"), "--out-dir", str(out_dir)
    )
    assert code == 2
    assert "no_corpus" in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (("--algs", "oll,wbo,oll", "--strategies", "none"), "--algs lists oll more than once"),
        (("--algs", "oll", "--strategies", "none,none"), "--strategies lists none more than once"),
    ],
)
def test_cli_bench_rejects_duplicate_entries_before_running(tmp_path, capsys, argv, message):
    code, err, out_dir = _bench_one_instance(tmp_path, capsys, *argv)
    assert code == 2
    assert message in err
    assert not (out_dir / "results.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "{f}", "--timeout", "-1"],
        ["bench", "--corpus", "{c}", "--out-dir", "{o}", "--timeout", "-1"],
        ["bench", "--corpus", "{c}", "--out-dir", "{o}", "--timeout", "nan"],
        ["bench", "--corpus", "{c}", "--out-dir", "{o}", "--jobs", "0"],
        ["bench", "--corpus", "{c}", "--out-dir", "{o}", "--mem-limit-mb", "-5"],
        ["gen", "seating", "--count", "-2", "--out-dir", "{o}"],
        ["gen", "msc", "--count", "0", "--out-dir", "{o}"],
    ],
)
def test_cli_out_of_range_numbers_are_usage_errors(tmp_path, capsys, argv):
    corpus = tmp_path / "c"
    corpus.mkdir()
    (corpus / "one.pwcnf").write_text(TWO_TRIANGLES_PWCNF)
    paths = {"f": corpus / "one.pwcnf", "c": corpus, "o": tmp_path / "r"}
    with pytest.raises(SystemExit) as exc:
        main([a.format(**paths) for a in argv])
    assert exc.value.code == 2
    assert "must be >= " in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
