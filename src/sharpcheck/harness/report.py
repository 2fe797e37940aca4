"""Result containers, the empirical-constant convention, and serializers.

An estimate check evaluates every norm term of one inequality over a ladder
of grid spacings (or window sizes).  The empirical constant of a run is
``n_emp = lhs / sum(rhs_terms)`` with ``0/0 := 0`` and ``positive/0 :=
inf``; an a priori estimate is falsified by ``n_emp`` growing without bound
under refinement, so verdicts are trend based except where an analytic
constant exists.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

import numpy as np

SCHEMA_VERSION = 1

# trend labels
BOUNDED = "bounded"
DIVERGING = "diverging"
INCONCLUSIVE = "inconclusive"
EXACT_PASS = "exact-pass"
ERROR = "error"               # the run raised: notes["error"] says what

_BOUNDED_SPREAD = 1.25
_DIVERGING_GROWTH = 2.0


@dataclass(frozen=True)
class EstimateSpec:
    """One catalog entry instance: which inequality, with which knobs."""

    id: str
    params: dict = field(default_factory=dict)
    ladder: tuple[float, ...] = ()
    seed: int = 0


@dataclass
class TermSeries:
    """Ladder-indexed values for one inequality of an entry."""

    equation: str
    lhs: list[float]
    rhs_terms: list[list[float]]
    n_emp: list[float] = field(default_factory=list)
    trend: str = INCONCLUSIVE

    def finalize(self):
        self.n_emp = [empirical_constant(l, r) for l, r in zip(self.lhs, self.rhs_terms)]
        self.trend = classify_trend(self.n_emp, self.lhs)
        return self


@dataclass
class InequalityReport:
    id: str
    params: dict
    ladder: list[float]
    ladder_kind: str
    primary: TermSeries
    extras: list[TermSeries] = field(default_factory=list)
    verdict: str = INCONCLUSIVE
    expect_divergence: bool = False
    seed: int = 0
    notes: dict = field(default_factory=dict)

    @property
    def series(self) -> list[TermSeries]:
        return [self.primary] + list(self.extras)

    def passed(self) -> bool:
        """Divergence only counts against entries that do not expect it; an
        entry that raised never passes."""
        if self.verdict == ERROR:
            return False
        if self.expect_divergence:
            return any(s.trend == DIVERGING for s in self.series)
        bound = self.notes.get("analytic_bound")
        if bound is not None and not bound.get("satisfied", True):
            return False
        return self.verdict in (BOUNDED, EXACT_PASS)


def empirical_constant(lhs: float, rhs_terms) -> float:
    if any(t < 0 for t in rhs_terms):
        raise ValueError(f"negative right-hand side term in {rhs_terms}")
    total = float(sum(rhs_terms))
    if total == 0.0:
        return 0.0 if lhs == 0.0 else float("inf")
    return float(lhs) / total


def classify_trend(n_emp, lhs=None) -> str:
    """bounded: ladder spread below 1.25x; diverging: an infinite constant
    with mass on the left, or monotone growth beyond 2x overall."""
    vals = [float(v) for v in n_emp]
    if not vals:
        return INCONCLUSIVE
    if any(np.isinf(v) for v in vals):
        has_mass = True if lhs is None else any(l > 0 for l in lhs)
        return DIVERGING if has_mass else INCONCLUSIVE
    if all(v == 0.0 for v in vals):
        return BOUNDED
    top, bot = max(vals), min(vals)
    if bot > 0 and top / bot < _BOUNDED_SPREAD:
        return BOUNDED
    monotone = all(b >= a * (1 - 1e-12) for a, b in zip(vals, vals[1:]))
    if monotone and bot > 0 and vals[-1] / vals[0] > _DIVERGING_GROWTH:
        return DIVERGING
    return INCONCLUSIVE


def overall_verdict(report: InequalityReport) -> str:
    trends = [s.trend for s in report.series]
    if DIVERGING in trends:
        return DIVERGING
    if INCONCLUSIVE in trends:
        return INCONCLUSIVE
    return BOUNDED


# ---------------------------------------------------------------------------
# serialization

def _clean(obj):
    if isinstance(obj, dict):
        return {str(k): _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):    # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return "inf" if np.isinf(v) else v
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    return obj


def report_to_dict(r: InequalityReport) -> dict:
    def series(s: TermSeries) -> dict:
        return {
            "equation": s.equation,
            "lhs": _clean(s.lhs),
            "rhs_terms": _clean(s.rhs_terms),
            "n_emp": _clean(s.n_emp),
            "trend": s.trend,
        }

    return {
        "id": r.id,
        "params": _clean(r.params),
        "ladder": _clean(list(r.ladder)),
        "ladder_kind": r.ladder_kind,
        "primary": series(r.primary),
        "extras": [series(s) for s in r.extras],
        "verdict": r.verdict,
        "expect_divergence": bool(r.expect_divergence),
        "seed": int(r.seed),
        "notes": _clean(r.notes),
    }


def suite_to_json(suite_name: str, reports, seed: int) -> str:
    doc = {
        "schema_version": SCHEMA_VERSION,
        "suite": suite_name,
        "seed": int(seed),
        "entries": [report_to_dict(r) for r in sorted(reports, key=lambda r: r.id)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _doc_float(v) -> float:
    return float("inf") if v == "inf" else float(v)


def csv_from_doc(doc: dict) -> str:
    """CSV flattening of a parsed suite document: one row per ladder value
    of each entry's primary series."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["id", "spacing", "lhs", "rhs_sum", "n_emp", "trend", "verdict"])
    for e in doc["entries"]:
        s = e["primary"]
        for k, x in enumerate(e["ladder"]):
            rhs = sum(_doc_float(t) for t in s["rhs_terms"][k])
            writer.writerow([
                e["id"], repr(_doc_float(x)), repr(_doc_float(s["lhs"][k])),
                repr(float(rhs)), repr(_doc_float(s["n_emp"][k])),
                s["trend"], e["verdict"],
            ])
    return buf.getvalue()


def suite_to_csv(reports) -> str:
    return csv_from_doc(
        {"entries": [report_to_dict(r) for r in sorted(reports, key=lambda r: r.id)]})
