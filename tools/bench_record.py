"""Benchmark of record: alternating parent/change pairs of perfbench/run.py.

    python3 tools/bench_record.py --parent REV --seeds 2-11 --out BENCH_1.json

The parent tree is ``git archive REV`` unpacked into a temporary directory;
the change tree is a copy, in a second temporary directory, of the checkout
this script lives in as it is on disk: every file ``git ls-files --cached
--others --exclude-standard`` lists, so tracked edits and untracked files but
no ignored ones (it is identified by ``HEAD`` and a digest of its ``src/``
files, which must equal the checkout's).  Both sides thus run from fresh
directories alike.  For every workload in BENCHMARK.json and every seed the
script runs
``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0``,
S being BENCHMARK.json's ``run_seconds``, once in each tree, parent
first on even pair indices and change first on odd ones, so drift on the
host lands on both sides alike.  Neither tree's benchmark code is changed.

The output holds each run's end-to-end metrics, correctness and JSON/CSV
report digests; per metric and side the median and quartiles; the relative
change of the medians and the median of the per-pair relative changes,
which a host speed shift in the middle of a set does not split; the pairs
the change won, lost and tied; and the machine facts that bound the numbers:
nproc, RAM, Python, the numpy version and numpy's SIMD baseline, dispatch
targets and the CPU features it found active.  Report digests are only
comparable at one numpy build and dispatch level.  After each workload the
script prints one summary line per metric to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 600


def benchmark() -> dict:
    """The checkout's BENCHMARK.json, read when a run needs it, so the
    module imports in a tree without one."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def unpack(rev: str, dest: str) -> None:
    """``git archive rev`` unpacked into the directory ``dest``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def copy_checkout(root: str, dest: str) -> None:
    """The files of the git checkout ``root`` that ``git ls-files --cached
    --others --exclude-standard`` lists, as they are on disk, copied into the
    directory ``dest``; a tracked file deleted from disk is left out."""
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others",
                             "--exclude-standard"], cwd=root, check=True,
                            capture_output=True).stdout.decode().split("\0")
    for rel in filter(None, listed):
        path, copy = os.path.join(root, rel), os.path.join(dest, rel)
        if os.path.isfile(path):
            os.makedirs(os.path.dirname(copy), exist_ok=True)
            shutil.copy2(path, copy)


def parse_seeds(text: str) -> list[int]:
    """``"2-11"`` or ``"2,5,7"`` to a list of seeds."""
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def src_digest(tree: str) -> str:
    """SHA-256 over the paths and bytes of every ``.py`` file under ``src/``."""
    h = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(tree, "src"))):
        dirs.sort()
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(base, name)
            h.update(os.path.relpath(path, tree).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read() + b"\0")
    return h.hexdigest()


def machine() -> dict:
    from numpy._core import _multiarray_umath as umath
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "ram_bytes": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_cpu_baseline": list(umath.__cpu_baseline__),
        "numpy_cpu_dispatch": list(umath.__cpu_dispatch__),
        "numpy_cpu_features_active": [k for k, on in umath.__cpu_features__.items() if on],
        "npy_disable_cpu_features": os.environ.get("NPY_DISABLE_CPU_FEATURES", ""),
    }


def run_args(workload: str, seed) -> list[str]:
    return ["perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", f"{benchmark()['run_seconds']:g}", "--trace", "0"]


def run_once(tree: str, workload: str, seed: int) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its result line plus the
    report digests from the detail file it writes."""
    cmd = [sys.executable, *run_args(workload, seed)]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} printed nothing: {proc.stderr[-500:]}")
    result = json.loads(lines[-1])
    detail = os.path.join(tree, ".perfbench_out", f"result-{workload}-seed{seed}-trace0.json")
    with open(detail, encoding="utf-8") as fh:
        digests = json.load(fh)["worker"]["digests"]
    return {
        "exit": proc.returncode,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "digests": [{"json": js, "csv": cs} for js, cs in digests],
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], metrics: list[dict]) -> dict:
    """Per end-to-end metric: each side's median and quartiles, the relative
    change of the medians, the median of the per-pair relative changes, and
    the pairs the change won, lost and tied."""
    out = {}
    for spec in metrics:
        name, lower = spec["name"], spec["better"] == "lower"
        par = [p["parent"]["metrics"][name] for p in pairs]
        chg = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(par, chg))
        ties = sum(c == p for p, c in zip(par, chg))
        ps, cs = _spread(par), _spread(chg)
        base = ps["median"]
        per_pair = [(c - p) / p for p, c in zip(par, chg) if p]
        out[name] = {
            "unit": spec["unit"], "better": spec["better"], "bound": spec["bound"],
            "parent": ps, "change": cs,
            "median_change": (cs["median"] - base) / base if base else None,
            "median_pair_change": statistics.median(per_pair) if per_pair else None,
            "change_wins": wins, "change_losses": len(pairs) - wins - ties, "ties": ties,
            "pairs": len(pairs),
        }
    return out


def summary_lines(workload: str, summary: dict) -> list[str]:
    """One line per metric of ``summarize``'s output: medians, both relative
    changes and the change's wins, losses and ties."""
    def pct(v):
        return "n/a" if v is None else f"{100 * v:+.1f}%"
    return [f"{workload} {name}: median {m['parent']['median']:.4g} -> "
            f"{m['change']['median']:.4g} {m['unit']} (median_change {pct(m['median_change'])}, "
            f"median_pair_change {pct(m['median_pair_change'])}), change "
            f"won/lost/tied {m['change_wins']}/{m['change_losses']}/{m['ties']}"
            for name, m in summary.items()]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="alternating parent/change benchmark pairs")
    ap.add_argument("--parent", required=True, help="git revision of the parent tree")
    ap.add_argument("--seeds", default="2-11", help="seed range A-B or list A,B,C")
    ap.add_argument("--out", required=True, help="output JSON path")
    args = ap.parse_args(argv)

    seeds, bench = parse_seeds(args.seeds), benchmark()
    record = {
        "command": " ".join(["python3", *run_args("W", "N")]),
        "parent": {"rev": _git("rev-parse", args.parent)},
        "change": {"head": _git("rev-parse", "HEAD"),
                   "uncommitted_src": bool(_git("status", "--porcelain", "--", "src"))},
        "machine": machine(),
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as parent_tree, \
            tempfile.TemporaryDirectory(prefix="bench-change-") as change_tree:
        unpack(args.parent, parent_tree)
        copy_checkout(ROOT, change_tree)
        record["parent"]["src_sha256"] = src_digest(parent_tree)
        record["change"]["src_sha256"] = src_digest(change_tree)
        if record["change"]["src_sha256"] != src_digest(ROOT):
            raise RuntimeError(f"the copy of {ROOT} in {change_tree} differs from it under src/")
        for workload in (w["name"] for w in bench["workloads"]):
            pairs = []
            for k, seed in enumerate(seeds):
                order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    tree = parent_tree if side == "parent" else change_tree
                    pair[side] = run_once(tree, workload, seed)
                pair["digests_equal"] = pair["parent"]["digests"] == pair["change"]["digests"]
                pairs.append(pair)
                print(f"{workload} seed {seed}: " + "  ".join(
                    f"{side} wall_s {pair[side]['metrics']['wall_s']:.4f}"
                    for side in ("parent", "change")), file=sys.stderr)
            summary = summarize(pairs, bench["end_to_end"])
            print("\n".join(summary_lines(workload, summary)), file=sys.stderr)
            record["workloads"][workload] = {
                "seeds": seeds,
                "all_correct": all(p[s]["correct"] for p in pairs for s in ("parent", "change")),
                "digests_equal_pairs": sum(p["digests_equal"] for p in pairs),
                "metrics": summary,
                "pairs": pairs,
            }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if all(w["all_correct"] for w in record["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
