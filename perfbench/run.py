"""sharpcheck benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload geometric|pde --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; sharpcheck is imported from its
``src/``.  With ``--trace 0`` it measures the end-to-end metrics:

* ``wall_s``: median warm time of ``run_suite`` (jobs=1) on the workload's
  specs until ``suite_to_json`` and ``suite_to_csv`` have returned;
* ``setup_s``: median, over fresh interpreters, of the time from process
  start until ``sharpcheck.cli`` is imported and the workload config is
  parsed by ``cli.load_suite``;
* ``peak_rss_mb``: ``ru_maxrss`` of the fresh measuring process after it
  ran every entry once;
* ``checks_passed``: entries whose ``report.passed()`` is true.

``error_rate`` (raised entries over entries attempted) is printed beside
them and carried by ``attempted``/``failed`` in the result line.  With
``--trace 1`` it measures the per-layer metrics of ``PER_LAYER`` from a
traced run of the outside-in wrappers in ``spans.py``, plus import times
from ``python -X importtime``.

Every report pair of a run is hashed.  Differing digests within the run, an
entry that raises, or reports that disagree with the workload make the run
incorrect and the exit code 1.  A digest that differs from the recorded
reference is printed as ``report_digest_changed`` and is not an error.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("geometric", "pde")
DEFAULT_SEED = 1
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 170
CHILD_TIMEOUT_S = 60

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "checks_passed": "count"}

_FUNCTIONS = {
    "operators.geometric_maximal": ("node_radii",),
    "operators.geometric_sharp": ("subsampled", "pairs"),
    "operators.dyadic_maximal": (),
    "operators.dyadic_sharp": (),
    "calculus.evaluate_operator": ("nodes",),
    "calculus.fd_derivatives": ("nodes",),
    "calculus.check_operator_class": (),
    "weights.mixed_norm": (),
    "weights.node_masses": (),
    "weights.cell_masses": (),
    "weights.beta_type_constant": (),
    "filtration.cz_stopping_time": (),
    "filtration.stopped_value": (),
    "harness.identity.exact_identity_suite": (),
    "harness.identity.check_instance": (),
}
ENTRY_IDS = (
    "APRIORI", "FS-LOCAL", "HS-DIRICHLET", "HS-DIRICHLET-MIXED", "HS-LOCAL",
    "HS-MIXED", "HS-SLAB", "HS-WEIGHTED", "IDENTITIES", "INTERP", "INTERP-LOCAL",
    "LOCAL-MIXED", "LOCAL-W2P", "MAX-LP", "MAX-WEAK", "MIXED", "NEG-EXP", "OSC",
    "OSC-P", "PARA-APRIORI", "PARA-GLOBAL", "PARA-HS", "PARA-HS-FULL",
    "PARA-HS-MIXED", "PARA-LOCAL-MIXED", "PARA-MIXED", "W2P-GLOBAL",
    "ZEROTH-1D",
)
PER_LAYER = {}
for _fn, _counts in _FUNCTIONS.items():
    PER_LAYER[f"{_fn}.s"] = "s"
    PER_LAYER[f"{_fn}.calls"] = "count"
    for _c in _counts:
        PER_LAYER[f"{_fn}.{_c}"] = "count"
for _eid in ENTRY_IDS:
    PER_LAYER[f"harness.study.entry.{_eid}.s"] = "s"
PER_LAYER.update({
    "harness.report.suite_to_json.s": "s",
    "harness.report.suite_to_csv.s": "s",
    "harness.report.bytes": "bytes",
    "cli.load_suite.s": "s",
    "import.sharpcheck.s": "s",
    "import.scipy.signal.s": "s",
    "trace.overhead_s": "s",
})


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def _run(cmd, timeout):
    """Run a child to completion; a timeout kills it and waits for it."""
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)


def measure_setup(config: str) -> float:
    """Seconds from spawning a fresh interpreter until the config is parsed.

    CLOCK_MONOTONIC is shared by all processes, so the child's reading after
    ``load_suite`` is comparable with the parent's reading before the spawn.
    """
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "from sharpcheck import cli; cli.load_suite(sys.argv[2]); "
            "print(time.monotonic())")
    start = time.monotonic()
    proc = _run([sys.executable, "-c", code, SRC, config], CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child failed: {proc.stderr.strip()[-400:]}")
    return float(proc.stdout.split()[-1]) - start


def import_breakdown() -> dict:
    """Cumulative import times, in s, from ``python -X importtime``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import sharpcheck.cli"
    proc = _run([sys.executable, "-X", "importtime", "-c", code, SRC], CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"import child failed: {proc.stderr.strip()[-400:]}")
    rows = []                                          # (depth, seconds, module)
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if line.startswith("import time:") and len(parts) == 3 and parts[1].strip().isdigit():
            raw = parts[2]
            rows.append(((len(raw) - len(raw.lstrip()) - 1) // 2, int(parts[1]) / 1e6,
                         raw.strip()))
    return {"import.sharpcheck.s": _package_import_s(rows, "sharpcheck"),
            "import.scipy.signal.s": _package_import_s(rows, "scipy.signal")}


def _package_import_s(rows, package: str) -> float:
    """Summed cumulative time of the outermost modules of ``package``.

    importtime prints a module when its import finishes, after the modules
    it imported and one level shallower, so a row's parent is the next row
    with a smaller depth.  A package loaded through ``importlib`` (scipy's
    lazy submodules) has no row of its own, so its outermost children are
    summed instead.
    """
    def inside(name):
        return name == package or name.startswith(package + ".")

    total = 0.0
    for i, (depth, seconds, name) in enumerate(rows):
        if not inside(name):
            continue
        nested, level = False, depth
        for d, _, other in rows[i + 1:]:
            if d < level:
                level = d
                if inside(other):
                    nested = True
                    break
        if not nested:
            total += seconds
    return total


def environment() -> dict:
    def getconf(name):
        try:
            out = _run(["getconf", name], 10).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            return None
        return int(out) if out.isdigit() else None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes_per_core": getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": getconf("LEVEL3_CACHE_SIZE"),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "blas_threads": {k: os.environ.get(k, "unset") for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def _reference(workload: str, seed: int):
    with open(os.path.join(HERE, "reference_digests.json"), encoding="utf-8") as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="sharpcheck benchmark (one run)")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=24.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sharpcheck", "__init__.py")):
        return _fail(f"no sharpcheck sources under {SRC}; run from a source checkout")
    config = os.path.join(HERE, "workloads", f"{args.workload}.cfg")
    os.makedirs(OUT_DIR, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = environment()

    extra = {}
    if args.trace:
        extra = import_breakdown()
    else:
        setup = [measure_setup(config) for _ in range(SETUP_RUNS)]
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--src", SRC,
           "--config", config, "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans", os.path.join(OUT_DIR, f"spans-{tag}.json")]
    try:
        proc = _run(cmd, WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return _fail(f"measuring process exceeded {WORKER_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        return _fail(f"measuring process exited with {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    failed = len(res["errors"])
    digests = res["digests"]
    problems = list(res["problems"])
    if len(digests) > 1:
        problems.append(f"report digests differ between passes: {digests}")
    correct = not failed and not problems and len(digests) == 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    wall = res.get("wall_s") or [0.0]
    q1, q3 = _quartiles(wall)
    metrics = {}
    if not args.trace:
        metrics = {
            "wall_s": statistics.median(wall),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "checks_passed": res["checks_passed"],
        }
        s1, s3 = _quartiles(setup)
        print(f"  wall_s         {metrics['wall_s']:.4f} s      median of {len(wall)} warm "
              f"passes; quartiles {q1:.4f} .. {q3:.4f}")
        print(f"  setup_s        {metrics['setup_s']:.4f} s      median of {len(setup)} fresh "
              f"interpreters; quartiles {s1:.4f} .. {s3:.4f}")
        print(f"  peak_rss_mb    {metrics['peak_rss_mb']:.1f} MB")
    else:
        traced = res.get("traced_wall_s") or [0.0]
        per_layer = {k: res.get("per_layer", {}).get(k, 0) for k in PER_LAYER}
        per_layer["harness.report.bytes"] = res.get("report_bytes", 0)
        per_layer["cli.load_suite.s"] = res["load_suite_s"]
        per_layer.update(extra)
        per_layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(wall)
        metrics = per_layer
        print(f"  wall_s         {statistics.median(wall):.4f} s      untraced, median of "
              f"{len(wall)}; traced {statistics.median(traced):.4f} s, median of {len(traced)}")
        geo = per_layer["operators.geometric_maximal.s"] + per_layer["operators.geometric_sharp.s"]
        print(f"  geometric operators cover {geo / max(statistics.median(traced), 1e-9):.1%} "
              f"of traced wall_s")
        for name, sec in sorted(res.get("self_s", {}).items(), key=lambda kv: -kv[1])[:12]:
            print(f"  self  {name:<44} {sec:.4f} s")
        grid = res.get("largest_grid", {})
        print(f"  largest grid   {grid.get('grid_nodes', 0)} nodes, "
              f"{grid.get('grid_bytes', 0)} bytes (L3 {env['l3_bytes']} bytes)")
    print(f"  checks_passed  {res['checks_passed']} count  of {res['entries']} entries")
    rate = failed / res["entries"]
    print(f"  error_rate     {rate:g} ratio  ({failed} of {res['entries']} entries raised)")
    for err in res["errors"]:
        print(f"  raised: {err}")
    for p in problems:
        print(f"  incorrect: {p}")
    if len(digests) == 1:
        js, cs = digests[0]
        print(f"  report_digest  json sha256:{js}  csv sha256:{cs}")
        ref = _reference(args.workload, args.seed)
        if ref is None:
            print(f"  report_digest_reference none recorded for seed {args.seed}")
        elif ref != {"json": js, "csv": cs}:
            print(f"  report_digest_changed  reference json sha256:{ref['json']}  "
                  f"csv sha256:{ref['csv']}")
        else:
            print("  report_digest matches the reference")
    v = res["versions"]
    print(f"  env  nproc {env['nproc']}  L2 {env['l2_bytes_per_core']} B/core  "
          f"L3 {env['l3_bytes']} B  RAM {env['ram_bytes']} B  Python {v['python']}  "
          f"numpy {v['numpy']}  scipy {v['scipy']}  BLAS {v['blas']}  "
          f"threads {env['blas_threads']}")

    units = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, env=env, worker=res, error_rate=rate,
                  setup_s=None if args.trace else setup)
    with open(os.path.join(OUT_DIR, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
