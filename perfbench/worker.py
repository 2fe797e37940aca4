"""Measuring process of the benchmark: one fresh interpreter per run.

    python3 perfbench/worker.py --src SRC --config CFG --seed N --seconds S \
        --trace 0|1 [--spans PATH]

Imports sharpcheck from ``SRC``, parses the workload config with
``cli.load_suite``, runs every entry once (the cold pass, which sets
``peak_rss_mb``), then repeats warm passes of ``run_suite`` +
``suite_to_json`` + ``suite_to_csv`` for ``S`` seconds.  With ``--trace 1``
half of the time runs untraced and half with the outside-in wrappers of
``spans.py`` installed.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time

MIN_PASSES = 3


def _import_sharpcheck(src: str):
    sys.path.insert(0, src)
    start = time.perf_counter()
    from sharpcheck import cli, harness
    elapsed = time.perf_counter() - start
    where = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    if os.path.realpath(where) != os.path.realpath(src):
        raise SystemExit(f"sharpcheck was imported from {where}, not from {src}")
    return cli, harness, elapsed


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def output_problems(js: str, cs: str, ids: list[str], seed: int) -> list[str]:
    """Consistency of one report pair: every workload entry present once,
    the seed recorded, and one CSV row per ladder step agreeing with the
    JSON on id and verdict."""
    doc = json.loads(js)
    problems = []
    got = [e["id"] for e in doc["entries"]]
    if got != sorted(ids):
        problems.append(f"report entries {got} != workload entries {sorted(ids)}")
    if doc["seed"] != seed:
        problems.append(f"report seed {doc['seed']} != {seed}")
    rows = list(csv.reader(io.StringIO(cs)))
    expected = [(e["id"], e["verdict"]) for e in doc["entries"] for _ in e["ladder"]]
    if [(r[0], r[-1]) for r in rows[1:]] != expected:
        problems.append("CSV rows disagree with the JSON entries")
    return problems


class Workload:
    def __init__(self, harness, cfg, seed: int):
        self.harness = harness
        self.name = cfg.name
        self.seed = seed
        self.specs = [harness.EstimateSpec(id=bid, params=params, ladder=ladder, seed=seed)
                      for bid, params, ladder in cfg.blocks]
        self.ids = [s.id for s in self.specs]
        self.digests: set[tuple[str, str]] = set()
        self.problems: list[str] = []
        self.attempted = 0
        self.report_bytes = 0

    def serialize(self, reports):
        # looked up on the package at call time, so tracing wrappers apply
        return (self.harness.suite_to_json(self.name, reports, self.seed),
                self.harness.suite_to_csv(reports))

    def record(self, js: str, cs: str):
        self.digests.add((_digest(js), _digest(cs)))
        self.report_bytes = len(js.encode("utf-8")) + len(cs.encode("utf-8"))
        for p in output_problems(js, cs, self.ids, self.seed):
            if p not in self.problems:
                self.problems.append(p)

    def cold_pass(self):
        """Each entry on its own, so one that raises is counted and the rest
        still run."""
        reports, errors = [], []
        for spec in self.specs:
            self.attempted += 1
            try:
                reports.extend(self.harness.run_suite([spec], jobs=1))
            except Exception as e:          # counted as a raised entry
                errors.append(f"{spec.id}: {type(e).__name__}: {e}")
        if not errors:
            self.record(*self.serialize(reports))
        return reports, errors

    def timed_pass(self) -> float:
        gc.collect()
        start = time.perf_counter()
        reports = self.harness.run_suite(self.specs, jobs=1)
        js, cs = self.serialize(reports)
        elapsed = time.perf_counter() - start
        self.attempted += len(self.specs)
        self.record(js, cs)
        return elapsed

    def timed_passes(self, seconds: float, before=None) -> list[float]:
        times, spent = [], 0.0
        while len(times) < MIN_PASSES or spent < seconds:
            if before is not None:
                before(len(times))
            times.append(self.timed_pass())
            spent += times[-1]
        return times


def run(args) -> dict:
    cli, harness, import_s = _import_sharpcheck(args.src)
    start = time.perf_counter()
    cfg = cli.load_suite(args.config)
    load_s = time.perf_counter() - start
    wl = Workload(harness, cfg, args.seed)

    reports, errors = wl.cold_pass()
    out = {
        "import_s": import_s,
        "load_suite_s": load_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "entries": len(wl.specs),
        "errors": errors,
        "checks_passed": sum(r.passed() for r in reports),
        "versions": _versions(),
    }
    if errors:
        out.update(attempted=wl.attempted, problems=wl.problems, digests=[])
        return out

    if not args.trace:
        out["wall_s"] = wl.timed_passes(args.seconds)
    else:
        import spans
        out["wall_s"] = wl.timed_passes(args.seconds / 2)
        recorder = spans.Recorder()

        def label(i):
            recorder.run = f"traced-{i}"
        with spans.installed(recorder):
            traced = wl.timed_passes(args.seconds / 2, before=label)
        leftover = spans.leftover_wrappers()
        if leftover:
            wl.problems.append(f"tracing wrappers left installed: {leftover}")
        runs = [f"traced-{i}" for i in range(len(traced))]
        out["traced_wall_s"] = traced
        out["per_layer"] = spans.median_metrics(
            [spans.per_pass_metrics(recorder.spans, r) for r in runs])
        out["self_s"] = spans.median_metrics([spans.self_times(recorder.spans, r)
                                              for r in runs])
        out["largest_grid"] = spans.largest_grid(recorder.spans)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump(recorder.to_json(), fh)
    out.update(attempted=wl.attempted, problems=wl.problems,
               digests=sorted(wl.digests), report_bytes=wl.report_bytes)
    return out


def _versions() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}"}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", default=None, help="write the traced spans here")
    args = ap.parse_args(argv)
    print(json.dumps(run(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
