"""Report change between a parent revision and the checkout.

    python3 tools/report_diff.py --parent REV --seeds 0,1

Every catalog entry runs at its default parameters and ladder once per seed,
and every shipped suite in ``suites/`` runs once as it is, each as a fresh
``sharpcheck verify`` process, in ``git archive REV`` unpacked into a
temporary directory and in this checkout as it is on disk.  Per run the
script prints ``identical`` or the number of float values that differ and
their largest relative difference.  It exits 1 if anything else differs: a
verdict, a trend, a key, a string, an integer or a boolean, the process's
exit status, or the CSV while the JSON is identical.

    python3 tools/report_diff.py --write-golden

rewrites ``tests/golden/default_sweep.json``, the default sweep that
``tests/test_golden.py`` holds every report to, from this checkout.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import tempfile

from bench_record import ROOT, RUN_TIMEOUT_S, parse_seeds, unpack

GOLDEN = os.path.join(ROOT, "tests", "golden", "default_sweep.json")


def entry_ids(tree: str) -> list[str]:
    code = "from sharpcheck.harness.catalog import ENTRY_IDS; print(' '.join(ENTRY_IDS))"
    return _run(tree, ["-c", code]).stdout.split()


def _run(tree: str, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    return subprocess.run([sys.executable, *args], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=RUN_TIMEOUT_S)


def verify(tree: str, config: str, seed: int | None, out_dir: str) -> dict:
    """One ``sharpcheck verify`` run: exit status, JSON report and CSV text."""
    out = os.path.join(out_dir, "report.json")
    args = ["-m", "sharpcheck.cli", "verify", config, "--out", out]
    proc = _run(tree, args + (["--seed", str(seed)] if seed is not None else []))
    run = {"exit": proc.returncode, "json": None, "csv": None}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            run["json"] = json.load(fh)
        with open(out[:-5] + ".csv", encoding="utf-8") as fh:
            run["csv"] = fh.read()
        os.remove(out)
        os.remove(out[:-5] + ".csv")
    else:
        run["stderr"] = proc.stderr[-500:]
    return run


def compare(a, b, path: str, floats: list[float], other: list[str]) -> None:
    """Relative differences of float leaves go to ``floats``; every other
    difference (keys, lengths, types, non-float values) to ``other``."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(a.keys() | b.keys()):
            if key in a and key in b:
                compare(a[key], b[key], f"{path}/{key}", floats, other)
            else:
                other.append(f"{path}/{key}: only in the {'parent' if key in a else 'change'}")
    elif isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        for k, (x, y) in enumerate(zip(a, b)):
            compare(x, y, f"{path}[{k}]", floats, other)
    elif type(a) is float and type(b) is float:
        if a != b and not (math.isnan(a) and math.isnan(b)):
            finite = math.isfinite(a) and math.isfinite(b)
            floats.append(abs(a - b) / max(abs(a), abs(b)) if finite else math.inf)
    elif type(a) is not type(b) or a != b:
        other.append(f"{path}: {a!r} -> {b!r}")


def diff_runs(parent: dict, change: dict) -> tuple[list[float], list[str]]:
    floats, other = [], []
    if parent["exit"] != change["exit"]:
        other.append(f"exit status {parent['exit']} -> {change['exit']}")
    if parent["json"] is None or change["json"] is None:
        other.append("no report: " + (parent.get("stderr") or change.get("stderr") or ""))
        return floats, other
    compare(parent["json"], change["json"], "", floats, other)
    if not floats and not other and parent["csv"] != change["csv"]:
        other.append("CSV differs while the JSON is identical")
    return floats, other


def golden_sweep() -> dict:
    """Every catalog entry at seed 0, its defaults and its default ladder, in
    one ``run_suite``: per entry the verdict, ``passed()`` and the primary
    series' equation, lhs, rhs sum and n_emp per step, and under ``extras``
    the same four for each further series, in report order.  Floats keep
    their ``repr`` digits; an infinite or nan value is its ``repr`` string."""
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from sharpcheck.harness import ENTRY_IDS, EstimateSpec, run_suite

    def floats(values):
        return [v if math.isfinite(v) else repr(v) for v in map(float, values)]

    def series(s):
        return {"equation": s.equation, "lhs": floats(s.lhs),
                "rhs_sum": floats(sum(t) for t in s.rhs_terms), "n_emp": floats(s.n_emp)}

    return {r.id: {"verdict": r.verdict, "passed": r.passed(), **series(r.primary),
                   "extras": [series(s) for s in r.extras]}
            for r in run_suite([EstimateSpec(id=eid, seed=0) for eid in ENTRY_IDS])}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="report change against a parent revision")
    ap.add_argument("--parent", help="git revision of the parent tree")
    ap.add_argument("--seeds", default="0,1", help="seed range A-B or list A,B,C")
    ap.add_argument("--write-golden", action="store_true",
                    help=f"rewrite {os.path.relpath(GOLDEN, ROOT)} from this checkout")
    args = ap.parse_args(argv)
    if args.write_golden:
        with open(GOLDEN, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(golden_sweep(), sort_keys=True, indent=1) + "\n")
        return 0
    if args.parent is None:
        ap.error("--parent is required unless --write-golden is given")

    failed = False
    with tempfile.TemporaryDirectory(prefix="report-diff-") as tmp:
        parent_tree = os.path.join(tmp, "parent")
        os.mkdir(parent_tree)
        unpack(args.parent, parent_tree)
        runs = []
        for eid in sorted(set(entry_ids(parent_tree)) | set(entry_ids(ROOT))):
            config = os.path.join(tmp, f"{eid}.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(f"[suite]\nname = {eid}\nseed = 0\n\n[estimate:{eid}]\n")
            runs += [(f"{eid} seed {seed}", config, seed) for seed in parse_seeds(args.seeds)]
        for name in sorted(os.listdir(os.path.join(ROOT, "suites"))):
            runs.append((f"suites/{name}", os.path.join("suites", name), None))
        for label, config, seed in runs:
            floats, other = diff_runs(verify(parent_tree, config, seed, tmp),
                                      verify(ROOT, config, seed, tmp))
            if other:
                failed = True
                print(f"{label}: CHANGED " + "; ".join(other[:5])
                      + (f" (+{len(other) - 5} more)" if len(other) > 5 else ""))
            elif floats:
                print(f"{label}: {len(floats)} float values differ, "
                      f"largest relative difference {max(floats):.2g}")
            else:
                print(f"{label}: identical")
            sys.stdout.flush()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
