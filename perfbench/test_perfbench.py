"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

The main check is wrapper hygiene: on a small ladder of each workload the
report bytes are the same with the outside-in wrappers installed and after
they are removed, and none is left behind.
"""

from __future__ import annotations

import json
import os
import sys

import pytest

import run
import spans
import worker

sys.path.insert(0, run.SRC)

from sharpcheck import cli, harness                      # noqa: E402
from sharpcheck.calculus import box_grid                 # noqa: E402
from sharpcheck.operators import GeometricFamily, _shape_offsets  # noqa: E402

# each entry at the coarsest step of its workload ladder
SMALL = {"IDENTITIES": (20.0,)}


def _small_specs(workload: str, seed: int = 3):
    cfg = cli.load_suite(os.path.join(run.HERE, "workloads", f"{workload}.cfg"))
    specs = []
    for bid, params, ladder in cfg.blocks:
        ladder = SMALL.get(bid) or (ladder or harness.ENTRIES[bid].ladder)[:1]
        specs.append(harness.EstimateSpec(id=bid, params=params, ladder=ladder, seed=seed))
    return cfg.name, specs


def _report_bytes(name, specs, seed=3):
    reports = harness.run_suite(specs, jobs=1)
    return harness.suite_to_json(name, reports, seed), harness.suite_to_csv(reports)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_wrappers_leave_report_bytes_unchanged(workload):
    name, specs = _small_specs(workload)
    plain = _report_bytes(name, specs)
    recorder = spans.Recorder()
    with spans.installed(recorder):
        assert spans.leftover_wrappers()
        traced = _report_bytes(name, specs)
    assert spans.leftover_wrappers() == []
    assert traced == plain
    assert _report_bytes(name, specs) == plain
    entries = {s.counts["id"] for s in recorder.spans
               if s.metric == "harness.study.run_estimate_check"}
    assert entries == {s.id for s in specs}
    assert all(s.end >= s.start for s in recorder.spans)


def test_wrappers_removed_when_the_block_raises():
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Recorder()):
            raise RuntimeError("boom")
    assert spans.leftover_wrappers() == []


def test_geometric_calls_only_on_geometric_workload():
    seen = {}
    for workload in run.WORKLOADS:
        name, specs = _small_specs(workload)
        recorder = spans.Recorder()
        recorder.run = "p"
        with spans.installed(recorder):
            _report_bytes(name, specs)
        seen[workload] = spans.per_pass_metrics(recorder.spans, "p")
    assert seen["geometric"]["operators.geometric_maximal.calls"] > 0
    assert seen["geometric"]["operators.geometric_sharp.pairs"] > 0
    assert "operators.geometric_maximal.calls" not in seen["pde"]
    assert "operators.geometric_sharp.calls" not in seen["pde"]
    assert seen["pde"]["calculus.fd_derivatives.nodes"] > 0
    assert seen["pde"]["filtration.cz_stopping_time.calls"] == 3 * 20


def _span(name, metric, parent, start, end):
    return spans.Span(name, metric, parent, "p", {}, start, end)


def test_self_time_and_nested_metric_counted_once():
    recorded = [
        _span("a.f", "layer.f", -1, 0.0, 10.0),
        _span("a.g", "layer.g", 0, 1.0, 4.0),
        _span("b.f", "layer.f", 1, 2.0, 3.0),     # layer.f again, inside itself
        _span("a.g", "layer.g", 0, 5.0, 6.0),
    ]
    self_s = spans.self_times(recorded, "p")
    assert self_s == {"a.f": 6.0, "a.g": 3.0, "b.f": 1.0}
    per = spans.per_pass_metrics(recorded, "p")
    assert per["layer.f.s"] == 10.0 and per["layer.f.calls"] == 2
    assert per["layer.g.s"] == 4.0 and per["layer.g.calls"] == 2


@pytest.mark.parametrize("shape,lo,hi,n,time_axis", [
    ("ball", (-1.5, -1.5), (1.5, 1.5), (26, 26), False),
    ("ball", (-1.5, -1.5), (1.5, 1.5), (31, 17), False),
    ("cylinder", (0.0, -1.2, -1.2), (1.5, 1.2, 1.2), (9, 13, 13), True),
])
def test_shape_node_count_matches_operator_window(shape, lo, hi, n, time_axis):
    grid = box_grid(lo, hi, n, time_axis=time_axis)
    family = GeometricFamily(shape, (0.2, 0.35, 0.5, 0.71))
    for r in family.radii:
        assert spans._shape_nodes(grid, family, r) == int(_shape_offsets(grid, family, r).sum())


def test_output_problems_flags_inconsistent_reports():
    name, specs = _small_specs("pde")
    js, cs = _report_bytes(name, specs[:2])
    ids = [s.id for s in specs[:2]]
    assert worker.output_problems(js, cs, ids, 3) == []
    assert worker.output_problems(js, cs, ids, 4)
    assert worker.output_problems(js, cs, ids[:1], 3)
    assert worker.output_problems(js, cs.replace("bounded", "diverging"), ids, 3)


def test_benchmark_json_names_the_metrics_the_code_prints():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert set(run.ENTRY_IDS) == set(harness.ENTRY_IDS)
    assert set(run._FUNCTIONS) <= {f"{layer}.{func}" for layer, func, _ in spans.TARGETS}


def test_package_import_time_sums_outermost_modules():
    lazy = [(2, 0.3, "scipy.signal.windows._windows"), (1, 0.35, "scipy.signal.windows"),
            (1, 0.1, "scipy.signal._support"), (1, 0.02, "numpy.fft"),
            (0, 0.9, "sharpcheck.operators")]
    assert run._package_import_s(lazy, "scipy.signal") == pytest.approx(0.45)
    assert run._package_import_s(lazy, "sharpcheck") == pytest.approx(0.9)
    assert run._package_import_s(lazy, "scipy.ndimage") == 0.0
    eager = [(1, 0.2, "scipy.signal._a"), (0, 0.5, "scipy.signal")]
    assert run._package_import_s(eager, "scipy.signal") == pytest.approx(0.5)
