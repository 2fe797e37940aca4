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

Each instance draws one :class:`~sharpcheck.filtration.Filtration`.
Instances whose filtrations share ``(k, n_min, n_max, shape)``, so differ at
most in the box corner, which moves only the cell centres that no identity
reads, are checked together on the first one's filtration: their fields are
stacked along a leading batch axis and go through one call of each
stopping-time primitive, and every instance's residuals equal those of its
own one-instance batch bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..filtration import (
    DiscreteField,
    Filtration,
    cz_stopping_time,
    full_space,
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
    max_residual: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

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
        return full_space(d, n_min, n_max, lo, hi)
    if geometry == "half":        # a half space is a box with lo[0] = 0
        d = int(rng.integers(1, 3))
        lo = (0.0,) + tuple(-side * int(rng.integers(0, 2)) for _ in range(d - 1))
        hi = tuple(l + side * int(rng.integers(1, 3)) for l in lo)
        return full_space(d, n_min, n_max, lo, hi)
    if geometry == "parabolic":
        tside = 4.0 ** (-n_min)
        lo = (tside * int(rng.integers(0, 2)), -side * int(rng.integers(0, 2)))
        hi = (lo[0] + tside, lo[1] + side * int(rng.integers(1, 3)))
        return parabolic(1, n_min, n_max, lo, hi)
    raise ValueError(f"unknown geometry {geometry!r}")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _excess(lhs: float, rhs: float) -> float:
    return max(0.0, lhs - rhs) / max(1.0, abs(rhs))


def check_instance(filt: Filtration, f_vals, g: DiscreteField, lam) -> list[dict]:
    """Residual of every identity on each instance of one batch, in batch
    order: ``f_vals`` and ``g`` carry one leading instance axis and ``lam``
    holds one threshold per instance.  The stopping time, the stopped values
    and the maximal function of ``g`` share its cached level means."""
    f = filt.field(f_vals)
    lam = np.asarray(lam, dtype=np.float64)
    st = cz_stopping_time(g, lam)
    finite = st.finite_mask()
    cells = tuple(range(1, 1 + filt.ndim))
    vol = filt.finest_volume

    gf = stopped_value(g, st)
    ff = stopped_value(f, st)
    top = np.where(finite, gf.values, -np.inf).max(axis=cells)
    low = np.where(finite, gf.values, np.inf).min(axis=cells)
    mismatch = (dyadic_maximal(g).values > lam.reshape((-1,) + (1,) * filt.ndim)) != finite
    columns = zip(
        ((ff.values * finite).sum(axis=cells) * vol).tolist(),
        ((f.values * finite).sum(axis=cells) * vol).tolist(),
        ff.integral().tolist(), f.integral().tolist(), top.tolist(), low.tolist(),
        finite.sum(axis=cells).tolist(), (g.values * finite).sum(axis=cells).tolist(),
        mismatch.sum(axis=cells).tolist(), lam.tolist())

    out = []
    for ff_fin, f_fin, ff_int, f_int, top_i, low_i, count, mass, miss, lam_i in columns:
        bound = filt.n_children * lam_i
        out.append({
            "stopped_conservation_finite": _rel(ff_fin, f_fin),
            "stopped_conservation": _rel(ff_int, f_int),
            # an instance that never stopped has nothing to bound
            "stopped_bound": max(_excess(top_i, bound), _excess(0.0, low_i)) if count else 0.0,
            "weak_type": _excess(float(count) * vol, mass * vol / lam_i),
            "level_set_match": float(miss),
        })
    return out


def exact_identity_suite(seed: int = 0, n_instances: int = 100,
                         tolerance: float = 1e-12) -> IdentityReport:
    """Run ``n_instances`` random instances on each geometry, one
    :func:`check_instance` call per filtration shape."""
    report = IdentityReport(max_residual={k: 0.0 for k in IDENTITY_KEYS})
    for gi, geometry in enumerate(("full", "half", "parabolic")):
        groups = {}  # shape -> filtration, instance indices, f, g, threshold factors
        for i in range(n_instances):
            rng = np.random.default_rng([seed, gi, i])
            filt = _random_filtration(rng, geometry)
            key = (filt.k, filt.n_min, filt.n_max, filt.shape)
            filt, index, fs, gs, factors = groups.setdefault(key, (filt, [], [], [], []))
            index.append(i)
            fs.append(rng.standard_normal(filt.shape))
            gs.append(rng.random(filt.shape))
            factors.append(float(rng.uniform(1.0, 1.8)))
        residuals = [None] * n_instances
        for filt, index, fs, gs, factors in groups.values():
            g = filt.field(np.stack(gs))
            coarse = level_means(g, filt.n_min)
            coarse_max = coarse.max(axis=tuple(range(1, coarse.ndim)))
            lam = coarse_max * np.array(factors) + 1e-12
            for i, res in zip(index, check_instance(filt, np.stack(fs), g, lam)):
                residuals[i] = res
        for i, res in enumerate(residuals):
            for key, val in res.items():
                report.max_residual[key] = max(report.max_residual[key], val)
                if val > tolerance:
                    report.failures.append(
                        {"geometry": geometry, "instance": i, "identity": key,
                         "residual": val, "seed": seed})
    return report
