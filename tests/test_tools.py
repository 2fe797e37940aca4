"""The report comparison in tools/report_diff.py, which gates report changes,
the checkout copy and pair summary of tools/bench_record.py, and their import
in a tree without BENCHMARK.json."""

import math
import pathlib
import subprocess
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from bench_record import copy_checkout, summarize, summary_lines  # noqa: E402
from report_diff import compare, diff_runs  # noqa: E402


def run(doc, csv="id,value\n", exit_status=0):
    return {"exit": exit_status, "json": doc, "csv": csv}


def compared(a, b):
    floats, other = [], []
    compare(a, b, "", floats, other)
    return floats, other


class TestCompare:
    def test_nan_equals_nan(self):
        assert compared({"x": [math.nan, 1.0]}, {"x": [math.nan, 1.0]}) == ([], [])

    def test_float_difference_is_relative(self):
        floats, other = compared({"x": 2.0}, {"x": 2.0 + 2.0 ** -51})
        assert other == []
        assert floats == [pytest.approx(2.0 ** -52)]

    def test_nan_against_number_is_infinite(self):
        assert compared([math.nan], [1.0]) == ([math.inf], [])

    def test_float_to_int_goes_to_other(self):
        floats, other = compared({"n": 1.0}, {"n": 1})
        assert floats == []
        assert other == ["/n: 1.0 -> 1"]

    def test_missing_key_goes_to_other(self):
        floats, other = compared({"a": 1.0, "b": {"c": "x"}}, {"a": 1.0, "b": {}})
        assert floats == []
        assert other == ["/b/c: only in the parent"]

    def test_length_change_goes_to_other(self):
        assert compared([1.0, 2.0], [1.0])[1] == [": [1.0, 2.0] -> [1.0]"]


class TestDiffRuns:
    def test_identical_runs(self):
        doc = {"entries": [{"verdict": "bounded", "n_emp": [0.5, 0.25]}]}
        assert diff_runs(run(doc), run(doc)) == ([], [])

    def test_exit_status_change_goes_to_other(self):
        doc = {"v": 1.0}
        floats, other = diff_runs(run(doc), run(doc, exit_status=1))
        assert floats == []
        assert other == ["exit status 0 -> 1"]

    def test_csv_alone_differing_is_flagged(self):
        doc = {"v": 1.0}
        floats, other = diff_runs(run(doc, "v\n1.0\n"), run(doc, "v\n1.00\n"))
        assert floats == []
        assert other == ["CSV differs while the JSON is identical"]

    def test_missing_report_goes_to_other(self):
        parent = run({"v": 1.0})
        change = {"exit": 1, "json": None, "csv": None, "stderr": "Traceback"}
        floats, other = diff_runs(parent, change)
        assert floats == []
        assert other == ["exit status 0 -> 1", "no report: Traceback"]

    def test_float_change_reported_with_json(self):
        floats, other = diff_runs(run({"v": 1.0}, "v\n1.0\n"), run({"v": 1.5}, "v\n1.5\n"))
        assert other == []
        assert floats == [pytest.approx(1.0 / 3.0)]


def test_checkout_copy_holds_the_disk_state_but_no_ignored_file(tmp_path):
    repo, dest = tmp_path / "repo", tmp_path / "copy"
    (repo / "src").mkdir(parents=True)
    dest.mkdir()

    def git(*args):
        subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c",
                        "commit.gpgsign=false", *args],
                       cwd=repo, check=True, capture_output=True)

    (repo / ".gitignore").write_text("ignored.txt\n")
    (repo / "src" / "mod.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")
    (repo / "src" / "mod.py").write_text("x = 2\n")
    (repo / "src" / "new.py").write_text("y = 3\n")
    (repo / "ignored.txt").write_text("build output\n")
    copy_checkout(str(repo), str(dest))
    assert (dest / "src" / "mod.py").read_text() == "x = 2\n"
    assert (dest / "src" / "new.py").read_text() == "y = 3\n"
    assert not (dest / "ignored.txt").exists()


def test_pair_change_is_not_split_by_a_host_speed_shift():
    # the host doubles its times halfway through ten pairs; the change is 1%
    # faster in every pair but the fifth, whose change run came after the
    # shift and its parent run before it.  That one pair moves the change's
    # median into the slow cluster, +32% over the parent's median, while the
    # median of the per-pair changes stays at -1%
    def pair(parent, change):
        return {side: {"metrics": {"wall_s": v}}
                for side, v in (("parent", parent), ("change", change))}

    pairs = [pair(base, 0.99 * base) for base in (0.1,) * 4 + (0.2,) * 5]
    pairs.insert(4, pair(0.1, 0.99 * 0.2))
    spec = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
    summary = summarize(pairs, [spec])
    got = summary["wall_s"]
    assert got["median_change"] == pytest.approx(0.198 / 0.15 - 1)
    assert got["median_pair_change"] == pytest.approx(-0.01)
    assert (got["change_wins"], got["change_losses"], got["ties"]) == (9, 1, 0)
    assert summary_lines("geometric", summary) == [
        "geometric wall_s: median 0.15 -> 0.198 s (median_change +32.0%, "
        "median_pair_change -1.0%), change won/lost/tied 9/1/0"]


def test_report_diff_imports_in_a_tree_without_benchmark_json(tmp_path):
    # a copied tree may hold tools/ alone; BENCHMARK.json is read only by
    # the benchmark runs that need it
    tools = pathlib.Path(__file__).resolve().parents[1] / "tools"
    copy = tmp_path / "tools"
    copy.mkdir()
    for path in tools.glob("*.py"):
        (copy / path.name).write_text(path.read_text())
    proc = subprocess.run([sys.executable, "-c", "import report_diff"], cwd=copy,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
