"""Randomized verification of the exact stopping-time identities.

Every instance draws a filtration, an integrable field f, a nonnegative
field g, and a threshold above the coarsest average of g, then checks both
computation routes of each relation:

* conservation of the stopped average, with and without the finite-time
  indicator;
* the pointwise bound ``g|_tau <= N_0 lambda`` on the stopped set and the
  weak-type measure bound;
* equality of ``{max over levels > lambda}`` with ``{tau finite}``.

All relations are exact in floating point up to roundoff, so the tolerance
is absolute/relative 1e-12, not a discretization allowance.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..filtration import (
    DiscreteField,
    Filtration,
    cz_stopping_time,
    full_space,
    half_space,
    level_means,
    parabolic,
    stopped_value,
)
from ..operators import dyadic_maximal

IDENTITY_KEYS = (
    "stopped_conservation_finite",
    "stopped_conservation",
    "stopped_bound",
    "weak_type",
    "level_set_match",
)


@dataclass
class IdentityReport:
    n_instances: int
    tolerance: float
    max_residual: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    elapsed: float = 0.0
    seed: int = 0

    @property
    def passed(self) -> bool:
        return not self.failures

    def worst(self) -> float:
        return max(self.max_residual.values(), default=0.0)


def _random_filtration(rng, geometry: str) -> Filtration:
    n_min = int(rng.integers(-1, 1))
    n_max = n_min + int(rng.integers(2, 4))
    side = 2.0 ** (-n_min)
    if geometry == "full":
        d = int(rng.integers(1, 3))
        lo = tuple(-side * int(rng.integers(0, 2)) for _ in range(d))
        hi = tuple(l + side * int(rng.integers(1, 3)) for l in lo)
        return Filtration(full_space(d, n_min, n_max, lo, hi))
    if geometry == "half":
        d = int(rng.integers(1, 3))
        lo = (0.0,) + tuple(-side * int(rng.integers(0, 2)) for _ in range(d - 1))
        hi = tuple(l + side * int(rng.integers(1, 3)) for l in lo)
        return Filtration(half_space(d, n_min, n_max, lo, hi))
    if geometry == "parabolic":
        tside = 4.0 ** (-n_min)
        lo = (tside * int(rng.integers(0, 2)), -side * int(rng.integers(0, 2)))
        hi = (lo[0] + tside, lo[1] + side * int(rng.integers(1, 3)))
        return Filtration(parabolic(1, n_min, n_max, lo, hi))
    raise ValueError(f"unknown geometry {geometry!r}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _excess(lhs: float, rhs: float) -> float:
    return max(0.0, lhs - rhs) / max(1.0, abs(rhs))


def check_instance(filt: Filtration, f_vals, g: DiscreteField, lam: float) -> dict:
    """Residual of every identity on one concrete instance; the stopping
    time, the stopped values and the maximal function of ``g`` share its
    cached level means."""
    f = filt.field(f_vals)
    st = cz_stopping_time(g, lam)
    finite = st.finite_mask()
    vol = filt.finest_volume

    res = {}
    gf = stopped_value(g, st)
    ff = stopped_value(f, st)
    res["stopped_conservation_finite"] = _rel(
        float((ff.values * finite).sum() * vol), float((f.values * finite).sum() * vol))
    res["stopped_conservation"] = _rel(ff.integral(), f.integral())

    stopped_on_set = gf.values[finite] if finite.any() else np.zeros(1)
    bound = filt.spec.n_children * lam
    res["stopped_bound"] = max(_excess(float(stopped_on_set.max()), bound),
                               _excess(0.0, float(stopped_on_set.min())))
    measure = float(finite.sum()) * vol
    res["weak_type"] = _excess(measure, float((g.values * finite).sum()) * vol / lam)

    mismatch = ((dyadic_maximal(g).values > lam) != finite).sum()
    res["level_set_match"] = float(mismatch)
    return res


def exact_identity_suite(seed: int = 0, n_instances: int = 100,
                         tolerance: float = 1e-12) -> IdentityReport:
    """Run ``n_instances`` random instances on each geometry."""
    start = time.perf_counter()
    report = IdentityReport(n_instances=n_instances, tolerance=tolerance, seed=seed,
                            max_residual={k: 0.0 for k in IDENTITY_KEYS})
    for gi, geometry in enumerate(("full", "half", "parabolic")):
        for i in range(n_instances):
            rng = np.random.default_rng([seed, gi, i])
            filt = _random_filtration(rng, geometry)
            f_vals = rng.standard_normal(filt.shape)
            g = filt.field(rng.random(filt.shape))
            coarse_max = float(level_means(g, filt.spec.n_min).max())
            lam = coarse_max * float(rng.uniform(1.0, 1.8)) + 1e-12
            res = check_instance(filt, f_vals, g, lam)
            for key, val in res.items():
                report.max_residual[key] = max(report.max_residual[key], val)
                if val > tolerance:
                    report.failures.append(
                        {"geometry": geometry, "instance": i, "identity": key,
                         "residual": val, "seed": seed})
    report.elapsed = time.perf_counter() - start
    return report
