"""The default sweep against its golden file, ``tests/golden/default_sweep.json``.

All catalog entries run at seed 0 and their default ladders in one
``run_suite``.  Every series of every entry is held, the primary and each
of its extras: verdicts, ``passed()``, series counts and equation names must
match exactly, and every lhs, rhs sum and n_emp within 1e-12 relative,
above the last-bit drift of SIMD dispatch.  A change that moves a report rewrites the
file (``python3 tools/report_diff.py --write-golden``) in the same commit,
so the diff shows which numbers moved.
"""

import json
import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "tools"))

from report_diff import GOLDEN, golden_sweep  # noqa: E402

REL = 1e-12


def _close(want, got) -> bool:
    if isinstance(want, str) or isinstance(got, str):   # "inf", "nan"
        return want == got
    return got == want or abs(got - want) <= REL * max(abs(want), abs(got))


def _series_problems(label: str, want: dict, got: dict) -> list[str]:
    problems = []
    if got["equation"] != want["equation"]:
        problems.append(f"{label} equation: {want['equation']!r} -> {got['equation']!r}")
    for key in ("lhs", "rhs_sum", "n_emp"):
        if len(got[key]) != len(want[key]) or not all(map(_close, want[key], got[key])):
            problems.append(f"{label} {key}: {want[key]} -> {got[key]}")
    return problems


def test_default_sweep_matches_golden_file():
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    swept = golden_sweep()
    assert sorted(swept) == sorted(golden)
    problems = []
    for eid, want in sorted(golden.items()):
        got = swept[eid]
        for key in ("verdict", "passed"):
            if got[key] != want[key]:
                problems.append(f"{eid} {key}: {want[key]!r} -> {got[key]!r}")
        problems += _series_problems(eid, want, got)
        if len(got["extras"]) != len(want["extras"]):
            problems.append(f"{eid} extras: {len(want['extras'])} series -> "
                            f"{len(got['extras'])}")
        for k, (w, g) in enumerate(zip(want["extras"], got["extras"])):
            problems += _series_problems(f"{eid} extras[{k}]", w, g)
    assert not problems, "; ".join(problems)
