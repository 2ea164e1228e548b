"""Smoke runs of the experiment scripts under scripts/, at the smallest
sizes that still run every algorithm and print a result."""

import os
import runpy

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def run_script(name, argv):
    return runpy.run_path(os.path.join(SCRIPTS, name))["main"](argv)


def test_partition_trend_prints_the_trend(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run_script("partition_trend.py", ["--count", "3", "--alg", "oll", "--seed", "8000"]) == 0
    out = capsys.readouterr().out
    assert "oll on 3 seating instances, 60s timeout:" in out
    assert "trend (partitioned >= unpartitioned): holds" in out


def test_desk_bench_prints_solved_count_tables(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    argv = ["--out-dir", "out", "--count", "1", "--timeout", "0.3", "--jobs", "2", "--seed", "0"]
    assert run_script("desk_bench.py", argv) == 0
    out = capsys.readouterr().out
    for family in ("msc", "seating"):
        assert f"[{family}] solved-count table (timeout 0.3s):" in out
        table = (tmp_path / "out" / family / "summary.txt").read_text()
        assert table in out
        header, *rows = table.splitlines()
        assert header.split() == ["alg", "none", "user", "vig", "cvig", "res", "random:16"]
        assert [row.split()[0] for row in rows] == ["lsu", "msu3", "oll", "wbo"]


def test_scripts_reject_a_malformed_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("UPMAX_SEED", "abc")
    for name, argv in (("partition_trend.py", ["--count", "1"]), ("desk_bench.py", ["--out-dir", "out"])):
        with pytest.raises(SystemExit) as exc:
            run_script(name, argv)
        assert exc.value.code == 2, name
        assert "UPMAX_SEED must be an integer" in capsys.readouterr().err, name


@pytest.mark.parametrize(
    "name, argv, message",
    [
        ("desk_bench.py", ["--count", "1", "--jobs", "0"], "--jobs must be >= 1"),
        ("desk_bench.py", ["--count", "1", "--timeout", "-1"], "--timeout must be >= 0"),
        ("desk_bench.py", ["--count", "0"], "--count must be >= 1"),
        ("desk_bench.py", ["--count", "1", "--mem-limit-mb", "0"], "--mem-limit-mb must be >= 1"),
        ("partition_trend.py", ["--count", "2", "--timeout", "-1"], "--timeout must be >= 0"),
        ("partition_trend.py", ["--count", "-1"], "--count must be >= 1"),
    ],
)
def test_scripts_reject_out_of_range_numbers(tmp_path, monkeypatch, capsys, name, argv, message):
    monkeypatch.chdir(tmp_path)
    if name == "desk_bench.py":
        argv = ["--out-dir", "out", *argv]
    with pytest.raises(SystemExit) as exc:
        run_script(name, argv)
    assert exc.value.code == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
