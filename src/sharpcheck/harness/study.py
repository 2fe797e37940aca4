"""Drivers that run catalog entries over refinement ladders.

``run_estimate_check`` executes one entry: it validates parameters, runs the
operator-class precondition when the entry uses an operator, evaluates every
equation at every ladder value, classifies the trends, and assembles an
:class:`InequalityReport`, with verdict ``error`` if a step raised.
``refinement_study`` is the same with an explicit spacing ladder of three
or more steps.  ``run_suite`` runs a list of specs one after another and
returns the reports in a deterministic order; its entries share their grid
fields (see ``catalog.shared_fields``).
"""

from __future__ import annotations

from .catalog import ENTRIES, CatalogEntry, operator_class_report, shared_fields
from .report import (
    BOUNDED,
    DIVERGING,
    ERROR,
    EXACT_PASS,
    EstimateSpec,
    InequalityReport,
    TermSeries,
    overall_verdict,
)

_EXACT_SLACK = 1e-9


def resolve_entry(estimate_id: str) -> CatalogEntry:
    try:
        return ENTRIES[estimate_id]
    except KeyError:
        known = ", ".join(sorted(ENTRIES))
        raise ValueError(f"unknown estimate id {estimate_id!r}; catalog ids: {known}") from None


def _class_precondition(entry: CatalogEntry, params: dict, seed: int) -> dict:
    """Reject operators that fail their sampled class membership check."""
    if "operator" not in params:
        return {}
    rep = operator_class_report(params, seed)
    note = {
        "operator_class": {
            "kind": params["operator"],
            "passed": bool(rep.passed),
            "ellipticity_range": [float(rep.ellipticity_range[0]),
                                  float(rep.ellipticity_range[1])],
            "max_lipschitz_ratio": float(rep.max_lipschitz_ratio),
        }
    }
    if not rep.passed:
        raise ValueError(
            f"operator {params['operator']!r} fails its class check: {rep.failures[:3]}")
    return note


def run_estimate_check(spec: EstimateSpec) -> InequalityReport:
    """Run one entry over its ladder.  A spec the entry cannot run (an
    unknown id, parameter or ladder value) raises ``ValueError``.  An
    exception in the operator's class check or in a ladder step ends the run
    there: the report keeps the steps completed before it, so its JSON and
    CSV agree row for row, its verdict is ``error`` and ``notes["error"]``
    reads ``"<Type>: <message>"``."""
    entry = resolve_entry(spec.id)
    params = entry.merged(spec.params)
    entry.validate(params)
    ladder = entry.check_ladder(spec.ladder or entry.ladder, params)

    notes, series, done, error = {}, {}, [], None
    try:
        notes.update(_class_precondition(entry, params, spec.seed))
        for x in ladder:
            rows = [(c.equation, float(c.lhs), [float(t) for t in c.rhs_terms], c.notes)
                    for c in entry.runner(params, x, spec.seed)]
            for equation, lhs, rhs_terms, step_notes in rows:
                s = series.setdefault(equation, TermSeries(equation, [], []))
                s.lhs.append(lhs)
                s.rhs_terms.append(rhs_terms)
                notes.update(step_notes)
            done.append(x)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    primary, *extras = [s.finalize() for s in series.values()] or [TermSeries("", [], [])]

    report = InequalityReport(
        id=entry.id,
        params=params,
        ladder=done,
        ladder_kind=entry.ladder_kind,
        primary=primary,
        extras=extras,
        expect_divergence=entry.expect_divergence,
        seed=spec.seed,
        notes=notes,
    )
    if error is not None:
        report.notes["error"] = error
        report.verdict = ERROR
        return report
    report.verdict = overall_verdict(report)
    if entry.exact_threshold is not None:
        margin = max(report.primary.n_emp)
        satisfied = margin <= entry.exact_threshold * (1.0 + _EXACT_SLACK)
        report.notes["analytic_bound"] = {
            "threshold": entry.exact_threshold,
            "max_n_emp": margin,
            "satisfied": bool(satisfied),
        }
        if satisfied and report.verdict != DIVERGING:
            report.verdict = EXACT_PASS
    return report


def refinement_study(spec: EstimateSpec, ladder) -> InequalityReport:
    """Run one entry over an explicit spacing ladder of three or more steps."""
    ladder = tuple(ladder)
    if len(ladder) < 3:
        raise ValueError("refinement ladders need at least 3 spacings")
    entry = resolve_entry(spec.id)
    if entry.ladder_kind != "spacing":
        raise ValueError(f"{entry.id} is not driven by a spacing ladder")
    return run_estimate_check(
        EstimateSpec(id=spec.id, params=dict(spec.params), ladder=ladder, seed=spec.seed))


def run_suite(specs, jobs: int = 1) -> list[InequalityReport]:
    """Run several estimate checks one after another.

    Reports come back sorted by estimate id with ties broken by input
    position.  An entry whose step raises gets an ``error`` report (see
    ``run_estimate_check``) and the others run on.  Entries with one recipe
    share their grid, input, operator image and derivative magnitudes at each
    ladder step, each held on the input's support box only: the call computes
    a set once, keeps the ladder of the most recently requested recipe only,
    and drops it on return.  Sets are read-only and a pure function of their
    recipe and spacing, so the reports are the same as from separate calls.
    ``jobs`` accepts only 1 and is kept for callers that still pass it.
    """
    if jobs != 1:
        raise ValueError(f"run_suite runs entries one after another; jobs must be 1, got {jobs!r}")
    with shared_fields():
        reports = [run_estimate_check(s) for s in specs]
    keyed = sorted(range(len(reports)), key=lambda i: (reports[i].id, i))
    return [reports[i] for i in keyed]
