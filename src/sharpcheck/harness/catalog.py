"""Catalog of inequality checks runnable over a refinement ladder.

Each entry binds an id to a recipe that evaluates every norm term of one
inequality (or a small family sharing a setup) on a manufactured input, at
one ladder value ``x`` (a grid spacing, a window length, or an instance
count).  A runner returns one :class:`EquationCheck` per inequality; the
first one listed is the entry's primary equation.

Conventions shared by all entries:

* integral quantities are reported as the raw integrals (no ``1/p`` root)
  unless the entry works at the level of mixed norms, in which case both
  sides are norms;
* pointwise inequalities report the terms at the node maximizing
  ``lhs / sum(rhs)``, so the empirical constant equals the worst ratio;
* right-hand terms carry their displayed coefficients, so the empirical
  constant absorbs only the unspecified constant factors;
* integrals over unbounded regions are truncated to the grid box, which
  covers the manufactured support plus a collar.

The finite-difference entries take their grid, input samples, operator image
and derivative magnitudes from ``_fields``.  A set is computed on the input's
support box (``calculus.support_box``) and holds +0.0 at every other node:
the derivatives vanish there, and so does the operator image, since every
``build_operator`` kind is positively homogeneous, so ``F(0, x) = 0``.
Inside ``run_suite`` (see ``shared_fields``) entries with one recipe share
these sets: each is computed once, handed out read-only, and kept only while
its recipe is the most recently requested one.  A set depends on nothing but
its recipe and spacing, so a report is the same whether its sets were shared
or not.
"""

from __future__ import annotations

import contextvars
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from ..calculus import (
    GridFunction,
    bellman_operator,
    box_grid,
    check_delta,
    euclidean,
    evaluate_operator,
    fd_derivatives,
    frobenius,
    linear_operator,
    manufactured,
    power,
    pucci_operator,
    sum_of_squares,
    with_time_profile,
)
from ..filtration import Filtration, full_space, level_means
from ..operators import (
    dyadic_maximal,
    dyadic_sharp,
    family_for_grid,
    geometric_maximal,
    geometric_sharp,
)
from ..weights import (
    HattedPowerX1,
    MixedNormSpec,
    PowerX1,
    beta_type_constant,
    cell_masses,
    mixed_norm,
    node_masses,
)
from .identity import exact_identity_suite


@dataclass(frozen=True)
class EquationCheck:
    """One inequality evaluated at one ladder value."""

    equation: str
    lhs: float
    rhs_terms: tuple
    notes: dict = field(default_factory=dict)


@dataclass(frozen=True)
class CatalogEntry:
    id: str
    summary: str
    runner: Callable
    defaults: dict
    ladder: tuple
    ladder_kind: str = "spacing"
    expect_divergence: bool = False
    exact_threshold: float | None = None
    validate: Callable | None = None
    min_spacing: float = 1.0 / 512

    def check_ladder(self, ladder) -> tuple[float, ...]:
        """The ladder as floats; a step this entry cannot run raises
        ``ValueError``.  Spacings are finite and at least ``min_spacing``,
        windows finite and positive, instance counts positive integers."""
        ladder = tuple(float(x) for x in ladder)
        if not ladder:
            raise ValueError(f"empty ladder for {self.id}")
        for x in ladder:
            if self.ladder_kind == "spacing":
                ok, need = x >= self.min_spacing, \
                    f"finite and not below the supported resolution {self.min_spacing}"
            elif self.ladder_kind == "window":
                ok, need = x > 0, "finite and positive"
            else:
                ok, need = x >= 1 and x.is_integer(), "a positive integer"
            if not (ok and math.isfinite(x)):
                raise ValueError(f"{self.ladder_kind} ladder value {x} for {self.id} must be {need}")
        return ladder

    def merged(self, overrides: dict) -> dict:
        params = dict(self.defaults)
        for key, val in overrides.items():
            if key not in params:
                raise ValueError(f"unknown parameter {key!r} for entry {self.id}")
            params[key] = val
        return params


ENTRIES: dict[str, CatalogEntry] = {}


def _register(**kw):
    """Add an entry; one with an ``operator`` parameter also builds its
    operator when validated, so bad operator settings fail before a run, and
    one with a ``tau0`` parameter requires it finite and nonnegative."""
    shared = [check for key, check in (("operator", build_operator), ("tau0", _need_tau0))
              if key in kw["defaults"]]
    if shared:
        own = kw["validate"]
        kw["validate"] = lambda params: (own(params), *(check(params) for check in shared))

    def deco(fn):
        entry = CatalogEntry(runner=fn, **kw)
        ENTRIES[entry.id] = entry
        return fn
    return deco


def _need(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _need_tau0(p):
    _need(0 <= p["tau0"] < math.inf, f"tau0 must be finite and nonnegative, got {p['tau0']!r}")


# ---------------------------------------------------------------------------
# shared building blocks

def _dyadic_level(h: float) -> int:
    n = round(-math.log2(h))
    _need(abs(2.0 ** -n - h) <= 1e-9 * h, f"spacing {h} is not dyadic (2**-n)")
    return n


def _grid(lo, hi, h: float, **kw):
    shape = tuple(max(2, int(round((b - a) / h)) + 1) for a, b in zip(lo, hi))
    return box_grid(lo, hi, shape, **kw)


def build_operator(params: dict):
    """Operator factory shared by all PDE entries.  Every kind is positively
    homogeneous and returns +0.0 at the zero Hessian, the premise of
    evaluating operators on the support box only
    (``calculus.evaluate_operator``)."""
    kind = params["operator"]
    delta = float(params["delta"])
    check_delta(delta)
    d = int(params["d"])
    if kind == "linear":
        return linear_operator(np.eye(d), delta, k_f=math.sqrt(d))
    if kind == "pucci":
        return pucci_operator(delta, side="max", d=d)
    if kind == "bellman":
        eigs = np.array([delta if i % 2 else 1.0 / delta for i in range(d)])
        family = (np.eye(d), np.diag(eigs))
        return bellman_operator(family, delta, k_f=math.sqrt(float((eigs ** 2).sum())))
    raise ValueError(f"unknown operator {kind!r}; choose linear, pucci or bellman")


def _operator_image(params: dict, grid, mf):
    """Samples of ``mf`` on ``grid``, their finite differences and the
    operator image."""
    u = mf.on_grid(grid)
    derivs = fd_derivatives(u)
    return u, derivs, evaluate_operator(build_operator(params), u, derivs).values


class _FieldStore:
    """The ladder of field sets of the most recently requested recipe."""

    def __init__(self):
        self.lock = threading.Lock()
        self.recipe, self.ladder = None, {}

    def get(self, recipe, h: float, compute: Callable):
        with self.lock:
            if recipe != self.recipe:         # drop the last ladder before computing
                self.recipe, self.ladder = recipe, {}
            ladder = self.ladder
            if h in ladder:
                return ladder[h]
        fields = compute()                    # unlocked: a race computes a set twice
        with self.lock:
            return ladder.setdefault(h, fields)


# The store of the running ``shared_fields`` block, or None outside one.
_SHARED = contextvars.ContextVar("shared_fields", default=None)


@contextmanager
def shared_fields():
    """Share ``_fields`` sets among the runners called inside the block, as
    the module docstring says; nothing outlives the block.  Threads running
    in copies of the block's context share its store."""
    token = _SHARED.set(_FieldStore())
    try:
        yield
    finally:
        _SHARED.reset(token)


def _fields(params: dict, h: float, lo, hi, mf, time_axis=False, half_axis=None):
    """Grid, manufactured samples ``u``, operator image ``fv`` and the
    Hessian and gradient magnitudes ``d2`` and ``d1``, as read-only arrays;
    shared inside a ``shared_fields`` block."""
    store = _SHARED.get()
    compute = partial(_field_set, params, h, lo, hi, mf, time_axis, half_axis)
    if store is None or mf.key is None:
        return compute()
    recipe = (mf.key, tuple(lo), tuple(hi), time_axis, half_axis, params["operator"],
              float(params["delta"]), int(params["d"]))
    return store.get(recipe, h, compute)


def _field_set(params, h, lo, hi, mf, time_axis, half_axis):
    grid = _grid(lo, hi, h, time_axis=time_axis, half_axis=half_axis)
    u, derivs, fv = _operator_image(params, grid, mf)
    fields = (grid, u, fv) + _magnitudes(derivs)
    for arr in (u.values,) + fields[2:]:
        arr.flags.writeable = False
    return fields


def _magnitudes(derivs):
    """Hessian and gradient magnitudes, taken on the derivatives' support box;
    +0.0 at every other node."""
    return derivs.padded(frobenius(derivs.box_d2u)), derivs.padded(euclidean(derivs.box_du))


def _integral(arr, mass) -> float:
    return float((arr * mass).sum())


def _ball_mask(grid, center, radius: float) -> np.ndarray:
    c = np.asarray(center, dtype=np.float64)
    r2 = sum_of_squares(_axis_values(grid, ax) - c[ax] for ax in range(grid.ndim))
    return (r2 < radius ** 2).astype(np.float64)


def _cylinder_mask(grid, radius: float) -> np.ndarray:
    space = sum_of_squares(_axis_values(grid, ax) for ax in range(1, grid.ndim))
    return ((_axis_values(grid, 0) < radius ** 2) & (space < radius ** 2)).astype(np.float64)


def _axis_values(grid, axis: int) -> np.ndarray:
    shape = [1] * grid.ndim
    shape[axis] = grid.shape[axis]
    return grid.axis_nodes(axis).reshape(shape)


def _safe_div(num, den) -> np.ndarray:
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _stack(p: float, *arrs) -> np.ndarray:
    acc = np.zeros_like(arrs[0])
    for a in arrs:
        acc = acc + power(np.abs(a), p)
    return power(acc, 1.0 / p)


def _pointwise(equation: str, lhs, terms, extra=None) -> EquationCheck:
    """Report the node with the worst lhs / sum(terms) ratio."""
    den = np.zeros_like(lhs)
    for t in terms:
        den = den + t
    ratio = np.where(den > 0, lhs / np.where(den > 0, den, 1.0),
                     np.where(lhs > 0, np.inf, 0.0))
    k = int(np.argmax(ratio))
    notes = dict(extra or {})
    notes[f"{equation}_worst_ratio"] = float(ratio.flat[k])
    return EquationCheck(equation, float(lhs.flat[k]),
                         tuple(float(t.flat[k]) for t in terms), notes)


# ---------------------------------------------------------------------------
# inequality shapes shared by several entries; ``d2``, ``d1`` and ``uu`` are
# the nonnegative Hessian, gradient and function magnitudes, ``fv`` the
# operator image

def _absorbed(equation, p, mass, d2, d1, uu, defect, notes=None) -> EquationCheck:
    """All three derivative orders by the absorbed defect."""
    return EquationCheck(equation, _integral(power(d2, p) + power(d1, p) + power(uu, p), mass),
                         (_integral(power(np.abs(defect), p), mass),), notes or {})


def _gradient_pair(p, mass, d2, d1, fv, uu) -> EquationCheck:
    """Hessian and gradient by the operator image plus the function."""
    return EquationCheck("gradient_pair", _integral(power(d2, p) + power(d1, p), mass),
                         (_integral(power(np.abs(fv), p), mass),
                          _integral(power(uu, p), mass)))


def _collar_hessian(equation, p, mass, d2, fv, uu, collar, tau0, u_scale=1.0,
                    notes=None) -> EquationCheck:
    """Hessian by the operator image, the scaled function and the
    oscillation-budget collar term."""
    return EquationCheck(equation, _integral(power(d2, p), mass),
                         (_integral(power(np.abs(fv), p), mass),
                          u_scale * _integral(power(uu, p), mass),
                          tau0 ** p * _integral(collar, mass)), notes or {})


def _local_hessian(equation, p, inner, outer, d2, d1, fv, uu, gap) -> EquationCheck:
    """Hessian on the inner region by the operator image and the inverse-gap
    lower-order combination on the outer one."""
    return EquationCheck(equation, _integral(power(d2, p), inner),
                         (_integral(power(np.abs(fv), p), outer),
                          _integral(power(gap ** -1 * d1 + (gap ** -2 + 1.0) * uu, p), outer)))


def _gradient_interpolation(equation, p, inner, outer, d2, d1, uu, c2, c0,
                            notes=None) -> EquationCheck:
    """Gradient on the inner region between the Hessian and the function on
    the outer one, with displayed coefficients ``c2`` and ``c0``."""
    return EquationCheck(equation, _integral(power(d1, p), inner),
                         (c2 * _integral(power(d2, p), outer),
                          c0 * _integral(power(uu, p), outer)),
                         notes or {})


def _mixed_absorbed(equation, grid, spec, orders, defect, notes=None) -> EquationCheck:
    """Iterated norm of the derivative orders by that of the absorbed defect."""
    return EquationCheck(equation, mixed_norm(GridFunction(grid, orders), spec),
                         (mixed_norm(GridFunction(grid, defect), spec),),
                         notes or {})


def _mixed_pair(equation, grid, spec, e, d2, d1, fv, uu, inner, outer) -> EquationCheck:
    """Iterated norms: Hessian and gradient (stacked in l^e) inside by the
    operator image and the function outside."""
    lhs = mixed_norm(GridFunction(grid, _stack(e, d2, d1) * inner), spec)
    return EquationCheck(equation, lhs,
                         (mixed_norm(GridFunction(grid, np.abs(fv) * outer), spec),
                          mixed_norm(GridFunction(grid, uu * outer), spec)))


def _check_zero_trace(u: GridFunction):
    scale = max(1.0, float(np.abs(u.values).max()))
    trace = float(np.abs(u.boundary_trace()).max())
    _need(trace <= 1e-12 * scale,
          "manufactured input must vanish on the boundary hyperplane "
          f"(trace magnitude {trace:.3e})")


def _validate_power_range(q, lower: float, upper: float, label: str):
    if q is not None:
        _need(lower < float(q) < upper,
              f"power weight exponent must lie in ({lower}, {upper}) for {label}, got {q}")


def _axis_weight(q, axis: int = 0):
    return None if q is None else PowerX1(float(q), axis=axis)


# ---------------------------------------------------------------------------
# dyadic maximal bounds with analytic constants

def _indicator_maximal(params, h):
    """Finest volume, the indicator of [0, 1) on [0, extent) and its dyadic
    maximal function."""
    n_max = _dyadic_level(h)
    _need(n_max >= 0, "finest cells must align with the indicator endpoint")
    filt = Filtration(full_space(1, int(params["n_min"]), n_max,
                                (0.0,), (float(params["extent"]),)))
    g = filt.sample(lambda X: (X[:, 0] < 1.0).astype(np.float64))
    return filt.finest_volume, g.values, dyadic_maximal(g).values


@_register(
    id="MAX-LP",
    summary="Lp bound for the dyadic maximal function with the analytic "
            "constant p/(p-1) on a truncated indicator input.",
    defaults={"p": 2.0, "extent": 4.0, "n_min": -2},
    ladder=(0.25, 0.125, 0.0625),
    exact_threshold=1.0,
    validate=lambda p: (_need(p["p"] > 1, "the maximal Lp bound needs p > 1"),
                        _need(p["extent"] >= 2, "extent must cover the indicator")),
    min_spacing=2.0 ** -10,
)
def _run_max_lp(params, h, seed):
    p = float(params["p"])
    vol, g, mg = _indicator_maximal(params, h)
    lhs = float(((np.abs(mg) ** p).sum() * vol) ** (1.0 / p))
    gnorm = float(((np.abs(g) ** p).sum() * vol) ** (1.0 / p))
    bound = p / (p - 1.0) * gnorm
    return [EquationCheck("maximal_lp", lhs, (bound,),
                          {"doob_constant": p / (p - 1.0), "input_norm": gnorm})]


@_register(
    id="MAX-WEAK",
    summary="Weak-type level-set bound for the dyadic maximal function with "
            "constant one, swept over thresholds just below each attained "
            "average.",
    defaults={"extent": 4.0, "n_min": -2},
    ladder=(0.25, 0.125, 0.0625),
    exact_threshold=1.0,
    min_spacing=2.0 ** -10,
)
def _run_max_weak(params, h, seed):
    vol, g, mg = _indicator_maximal(params, h)
    worst = (0.0, (0.0,), 0.0)
    best_ratio = -1.0
    for v in np.unique(mg[mg > 0]):
        lam = float(v) * (1.0 - 1e-9)
        above = mg > lam
        measure = float(above.sum()) * vol
        bound = float((g * above).sum()) * vol / lam
        ratio = measure / bound if bound > 0 else (np.inf if measure > 0 else 0.0)
        if ratio > best_ratio:
            best_ratio = ratio
            worst = (measure, (bound,), lam)
    return [EquationCheck("weak_type", worst[0], worst[1],
                          {"worst_lambda": worst[2]})]


# ---------------------------------------------------------------------------
# local Fefferman-Stein bound on a dyadic filtration

@_register(
    id="FS-LOCAL",
    summary="Weighted bound of an Lp mass by the interpolation of the full "
            "maximal function against the level-floored sharp plus capped "
            "maximal combination.",
    defaults={"p": 2.0, "gamma": 1.0, "beta": 1.0, "m": 2, "q": 0.5,
              "radius": 0.45},
    ladder=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
    validate=lambda p: (
        _need(p["p"] > p["gamma"] * p["beta"], "the bound needs p > gamma*beta"),
        _need(0 < p["gamma"] <= 1, "gamma must lie in (0, 1]"),
        _need(0 < p["beta"] <= 1, "beta must lie in (0, 1]"),
        _need(p["q"] > -1, "the power weight must be integrable (q > -1)"),
    ),
    min_spacing=2.0 ** -9,
)
def _run_fs_local(params, h, seed):
    p, gamma, beta = (float(params[k]) for k in ("p", "gamma", "beta"))
    m = int(params["m"])
    n_max = _dyadic_level(h)
    _need(m <= n_max, "sharp-function floor level exceeds the finest level")
    filt = Filtration(full_space(2, 0, n_max, (0.0, 0.0), (1.0, 1.0)))
    mf = manufactured("bump", 2, center=(0.5, 0.5), radius=float(params["radius"]))
    u = filt.sample(mf.u)
    w = PowerX1(float(params["q"]), axis=0)
    mass = cell_masses(w, filt)

    big_m = dyadic_maximal(u).values
    sharp = dyadic_sharp(u, gamma, m).values
    capped = dyadic_maximal(filt.field(np.abs(u.values) ** gamma), m).values ** (1.0 / gamma)

    lhs = float((np.abs(u.values) ** p * mass).sum())
    i_term = float((big_m ** p * mass).sum())
    j_term = float(((sharp + capped) ** p * mass).sum())
    gb = gamma * beta
    rhs = i_term ** ((p - gb) / p) * j_term ** (gb / p)
    coarse = float(level_means(abs(u), filt.spec.n_min).max())
    notes = {
        "coarsest_average": coarse,
        "beta_type_constant": beta_type_constant(w, beta, filt),
        "interpolation_factors": {"maximal": i_term, "sharp_plus_capped": j_term},
    }
    return [EquationCheck("local_sharp_bound", lhs, (rhs,), notes)]


# ---------------------------------------------------------------------------
# pointwise oscillation bound for the Hessian sharp function

def _osc_radii(grid, rho: float) -> tuple:
    base = rho * np.array([0.25, 0.35, 0.5, 0.7, 1.0, 1.41, 2.0, 2.83, 4.0])
    cap = max(b - a for a, b in zip(grid.lo, grid.hi))
    return tuple(float(r) for r in base if r <= cap * (1 + 1e-9))


_OSC_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "nu": 2.0, "mu": 0.3,
                 "xi": 2.0, "gamma": 0.5, "r0": 1.0, "tau0": 0.0,
                 "pair_budget": 2048, "radius": 1.0}


def _osc_validate(p):
    _need(p["nu"] >= 2, "the scale split needs nu >= 2")
    _need(p["xi"] > 1, "the dual exponent needs xi > 1")
    _need(0 < p["gamma"] <= 1, "gamma must lie in (0, 1]")
    _need(p["mu"] > 0, "mu must be positive")
    _need(p["r0"] > 0, "r0 must be positive")
    b, cap = p["pair_budget"], 1 << 16  # pairs per radius; keeps pair arrays to tens of MB
    _need(isinstance(b, (int, np.integer)) and not isinstance(b, bool) and 0 < b <= cap,
          f"pair_budget must be an integer from 1 to {cap}, got {b!r}")


def _sharp_pointwise(params, h, seed, mf, lo, hi, e: int, amp_power: int, time_axis: bool):
    """Hessian sharp function by covering maximals of ``|F|^e`` and of the
    Hessian, amplified by ``nu ** (amp_power / gamma)``."""
    grid = _grid(lo, hi, h, time_axis=time_axis)
    _, derivs, fv = _operator_image(params, grid, mf)
    nu, mu, xi, gamma = (float(params[k]) for k in ("nu", "mu", "xi", "gamma"))
    rho = float(params["r0"]) / nu
    alpha = 0.5
    xip = xi / (xi - 1.0)
    family = family_for_grid(grid, radii=_osc_radii(grid, rho))

    d2u = derivs.d2u
    sharp = geometric_sharp(GridFunction(grid, d2u), family, gamma, rho,
                            pair_budget=int(params["pair_budget"]), seed=seed)
    amp = nu ** (amp_power / gamma)
    t_f = amp * geometric_maximal(
        GridFunction(grid, power(np.abs(fv), e)), family).values ** (1.0 / e)
    t_tau = np.full(grid.shape, float(params["tau0"]) * amp)
    ed = xip * e
    t_h = (mu * amp + nu ** -alpha) * geometric_maximal(
        GridFunction(grid, power(frobenius(d2u), ed)), family).values ** (1.0 / ed)
    extra = {"rho": rho, "subsampled_pairs": bool(sharp.subsampled)}
    return [_pointwise("sharp_pointwise", sharp.values, (t_f, t_tau, t_h), extra)]


@_register(
    id="OSC",
    summary="Pointwise bound of the Hessian sharp function over small balls "
            "by covering maximal functions of the operator image and the "
            "Hessian itself.",
    defaults=_OSC_DEFAULTS,
    ladder=(0.12, 0.06, 0.03),
    validate=_osc_validate,
    min_spacing=0.01,
)
def _run_osc(params, h, seed):
    d = int(params["d"])
    mf = manufactured("bump", d, radius=float(params["radius"]))
    return _sharp_pointwise(params, h, seed, mf, (-1.5,) * d, (1.5,) * d,
                            e=d, amp_power=d, time_axis=False)


@_register(
    id="OSC-P",
    summary="Space-time twin of the Hessian sharp bound over forward "
            "cylinders, with the time derivative folded into the operator "
            "image.",
    defaults=_OSC_DEFAULTS,
    ladder=(0.15, 0.1, 0.05),
    validate=_osc_validate,
    min_spacing=0.02,
)
def _run_osc_p(params, h, seed):
    d = int(params["d"])
    mf = with_time_profile(manufactured("bump", d, radius=float(params["radius"])),
                           t_center=0.7, t_radius=0.5)
    return _sharp_pointwise(params, h, seed, mf, (0.0,) + (-1.2,) * d, (1.5,) + (1.2,) * d,
                            e=d + 1, amp_power=d + 2, time_axis=True)


# ---------------------------------------------------------------------------
# interpolation between derivative orders through large-window maximals

@_register(
    id="INTERP",
    summary="Interpolation inequalities bounding gradients between the "
            "Hessian and the function through maximal functions over windows "
            "of at least a threshold radius, plus their weighted integral "
            "form.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "gamma": 0.5,
              "rho": 0.8, "p": 2.0, "q": 0.5, "sigma": 0.6,
              "geometry": "elliptic"},
    ladder=(0.125, 0.0625, 0.03125),
    validate=lambda p: (
        _need(0 < p["gamma"] <= 1, "gamma must lie in (0, 1]"),
        _need(p["rho"] > 0, "rho must be positive"),
        _need(p["p"] >= 1, "the maximal exponent needs p >= 1"),
        _need(p["geometry"] in ("elliptic", "parabolic"),
              "geometry must be elliptic or parabolic"),
        _validate_power_range(p["q"], -1.0, p["p"] - 1.0, "the weighted form"),
    ),
    min_spacing=0.01,
)
def _run_interp(params, h, seed):
    d = int(params["d"])
    parabolic = params["geometry"] == "parabolic"
    mf = manufactured("gaussian", d, sigma=float(params["sigma"]))
    if parabolic:
        mf = with_time_profile(mf, t_center=1.0, t_radius=0.8)
        lo, hi = (0.0,) + (-2.0,) * d, (2.0,) + (2.0,) * d
    else:
        lo, hi = (-2.0,) * d, (2.0,) * d
    grid, u, fv, d2, d1 = _fields(params, h, lo, hi, mf, time_axis=parabolic)
    rho, gamma, p = (float(params[k]) for k in ("rho", "gamma", "p"))
    ed = d + 1 if parabolic else d
    # three windows at and above the threshold radius keep the covering
    # maxima representative without quadratic footprint cost
    family = family_for_grid(grid, radii=(rho, 1.42 * rho, 2.02 * rho))

    def m_rho(arr, e):
        f = GridFunction(grid, np.abs(arr) ** e)
        return geometric_maximal(f, family, rho=rho, mode="at_least").values

    uu = np.abs(u.values)
    m_u = m_rho(uu, p)
    eq_a = _pointwise(
        "hessian_pointwise",
        m_rho(d2, gamma) ** (1.0 / gamma),
        (m_rho(fv, ed) ** (1.0 / ed),
         rho ** -1 * m_rho(d1, ed) ** (1.0 / ed),
         rho ** -2 * m_rho(uu, ed) ** (1.0 / ed)))
    eq_b = _pointwise(
        "gradient_pointwise",
        m_rho(d1, p),
        (np.sqrt(m_rho(d2, p) * m_u), rho ** -p * m_u))

    mass = node_masses(grid, _axis_weight(params["q"], axis=1 if parabolic else 0))
    eq_c = _gradient_interpolation("gradient_integral", p, mass, mass, d2, d1, uu,
                                   rho ** p, rho ** -p, {"rho": rho})
    return [eq_c, eq_a, eq_b]


@_register(
    id="INTERP-LOCAL",
    summary="Localized gradient interpolation on concentric balls, with the "
            "epsilon split between the Hessian and zeroth-order terms, and "
            "its two-radius corollary.",
    defaults={"d": 2, "p": 2.5, "q": 0.5, "rho": 0.9, "eps": 0.5,
              "r": 0.55, "R": 0.9, "sigma": 0.5},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p"] > 1, "the weighted estimate needs p > 1"),
        _need(0 < p["eps"] <= 1, "eps must lie in (0, 1]"),
        _need(0 < p["r"] < p["R"], "radii must satisfy 0 < r < R"),
        _need(p["rho"] > 0, "rho must be positive"),
        _validate_power_range(p["q"], -1.0, p["p"] - 1.0, "the weight class"),
    ),
    min_spacing=0.005,
)
def _run_interp_local(params, h, seed):
    d = int(params["d"])
    mf = manufactured("gaussian", d, sigma=float(params["sigma"]))
    grid = _grid((-1.0,) * d, (1.0,) * d, h)
    u = mf.on_grid(grid)
    d2, d1 = _magnitudes(fd_derivatives(u))
    uu = np.abs(u.values)
    p, q, rho, eps = (float(params[k]) for k in ("p", "q", "rho", "eps"))
    r, R = float(params["r"]), float(params["R"])
    mass = node_masses(grid, PowerX1(q, axis=0))
    origin = (0.0,) * d

    inner = _ball_mask(grid, origin, rho / 2) * mass
    outer = _ball_mask(grid, origin, rho) * mass
    eq_a = _gradient_interpolation("local_gradient", p, inner, outer, d2, d1, uu,
                                   eps * rho ** p, eps ** -1 * rho ** -p)

    small = _ball_mask(grid, origin, r) * mass
    big = _ball_mask(grid, origin, R) * mass
    gap = R - r
    eq_b = _gradient_interpolation("two_radius_gradient", p, small, big, d2, d1, uu,
                                   eps * gap ** p, (eps * gap) ** -p)
    return [eq_a, eq_b]


# ---------------------------------------------------------------------------
# global second-order bounds, full space

@_register(
    id="W2P-GLOBAL",
    summary="Global weighted Hessian bound for compactly supported inputs by "
            "the operator image, the function, and the oscillation-budget "
            "collar term.",
    defaults={"d": 2, "operator": "linear", "delta": 1.0, "p": 4.0,
              "q": None, "R": 1.0, "r0": 1.0, "tau0": 0.0, "radius": 0.9,
              "amplitude": 1.0},
    ladder=(0.025, 0.0125, 0.00625),
    min_spacing=1.0 / 1024,
    validate=lambda p: (
        _need(p["p"] > p["d"], "the global Hessian bound needs p > d"),
        _need(p["radius"] < p["R"], "the manufactured support must stay inside R"),
        _need(p["r0"] > 0, "r0 must be positive"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the A_{p/d} class"),
    ),
)
def _run_w2p_global(params, h, seed):
    d = int(params["d"])
    p = float(params["p"])
    R, r0, tau0 = (float(params[k]) for k in ("R", "r0", "tau0"))
    L = R + r0 + 0.25
    mf = manufactured("bump", d, radius=float(params["radius"]),
                      amplitude=float(params["amplitude"]))
    grid, u, fv, d2, _ = _fields(params, h, (-L,) * d, (L,) * d, mf)
    mass = node_masses(grid, _axis_weight(params["q"]))
    collar = _ball_mask(grid, (0.0,) * d, R + r0)
    scale = r0 ** (-2 * p)
    return [_collar_hessian("global_hessian", p, mass, d2, fv, np.abs(u.values), collar,
                            tau0, scale, {"u_term_scale": scale})]


@_register(
    id="ZEROTH-1D",
    summary="Weighted zeroth-order bound in one dimension with unit "
            "coefficient: the function is controlled by the defect of the "
            "second derivative minus the function, from analytic "
            "derivatives.",
    defaults={"p": 2.0, "q": 0.5, "sigma": 0.8, "extent": 6.0},
    ladder=(0.05, 0.025, 0.0125),
    validate=lambda p: (
        _need(p["p"] > 1, "the zeroth-order bound needs p > d = 1"),
        _validate_power_range(p["q"], -1.0, p["p"] - 1.0, "the A_p class"),
    ),
    min_spacing=0.002,
)
def _run_zeroth_1d(params, h, seed):
    p = float(params["p"])
    L = float(params["extent"])
    grid = _grid((-L,), (L,), h)
    mf = manufactured("gaussian", 1, sigma=float(params["sigma"]))
    X = grid.flat_nodes()
    u = mf.u(X).reshape(grid.shape)
    d2 = mf.d2u(X)[:, 0, 0].reshape(grid.shape)
    mass = node_masses(grid, _axis_weight(params["q"]))
    eq = EquationCheck(
        "zeroth_order",
        _integral(np.abs(u) ** p, mass),
        (_integral(np.abs(d2 - u) ** p, mass),),
        {"derivatives": "analytic"})
    return [eq]


_APRIORI_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0,
                     "q": None, "radius": 1.2, "extent": 2.5}


def _apriori_fields(params, h):
    d = int(params["d"])
    L = float(params["extent"])
    mf = manufactured("bump", d, radius=float(params["radius"]))
    return _fields(params, h, (-L,) * d, (L,) * d, mf)


def _apriori_pair(params, fields, axis: int):
    """Absorbed-defect form and gradient pair over the whole grid box."""
    p = float(params["p"])
    grid, u, fv, d2, d1 = fields
    mass = node_masses(grid, _axis_weight(params["q"], axis=axis))
    uu = np.abs(u.values)
    return [_absorbed("absorbed_zeroth", p, mass, d2, d1, uu, fv - u.values),
            _gradient_pair(p, mass, d2, d1, fv, uu)]


@_register(
    id="APRIORI",
    summary="Full-space weighted a priori bounds: Hessian and gradient by "
            "operator image plus function, and all three orders by the "
            "absorbed defect.",
    defaults=_APRIORI_DEFAULTS,
    ladder=(0.125, 0.0625, 0.03125),
    validate=lambda p: (
        _need(p["p"] > p["d"], "the a priori bound needs p > d"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the A_{p/d} class"),
    ),
)
def _run_apriori(params, h, seed):
    return _apriori_pair(params, _apriori_fields(params, h), axis=0)


@_register(
    id="MIXED",
    summary="Iterated-norm version of the absorbed a priori bound with one "
            "exponent per axis, innermost axis first.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0, "p2": 3.0,
              "radius": 1.2, "extent": 2.5},
    ladder=(0.125, 0.0625, 0.03125),
    validate=lambda p: (
        _need(p["d"] == 2, "the catalog recipe fixes two space dimensions"),
        _need(p["p1"] > p["d"] and p["p2"] > p["d"],
              "iterated-norm exponents must each exceed d"),
    ),
)
def _run_mixed(params, h, seed):
    p1, p2 = float(params["p1"]), float(params["p2"])
    grid, u, fv, d2, d1 = _apriori_fields(params, h)
    spec = MixedNormSpec(groups=((1,), (0,)), exponents=(p2, p1))
    return [_mixed_absorbed("mixed_triple", grid, spec, _stack(p1, d2, d1, u.values),
                            fv - u.values,
                            {"finiteness_hypothesis": "automatic on a truncated grid"})]


@_register(
    id="LOCAL-W2P",
    summary="Interior weighted Hessian and gradient bounds on concentric "
            "balls with the inverse-gap coefficients of the cutoff argument.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "r": 1.0, "R": 1.5, "sigma": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p"] > p["d"], "the interior bound needs p > d"),
        _need(0 < p["r"] < p["R"], "radii must satisfy 0 < r < R"),
        _need(p["r"] >= p["R"] - 1, "the two-radius form needs r >= R - 1"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the A_{p/d} class"),
    ),
)
def _run_local_w2p(params, h, seed):
    d = int(params["d"])
    p = float(params["p"])
    r, R = float(params["r"]), float(params["R"])
    L = R + 0.2
    mf = manufactured("gaussian", d, sigma=float(params["sigma"]))
    grid, u, fv, d2, d1 = _fields(params, h, (-L,) * d, (L,) * d, mf)
    mass = node_masses(grid, _axis_weight(params["q"]))
    origin = (0.0,) * d
    inner = _ball_mask(grid, origin, r) * mass
    outer = _ball_mask(grid, origin, R) * mass
    uu = np.abs(u.values)
    gap = R - r

    eq_a = _local_hessian("local_hessian", p, inner, outer, d2, d1, fv, uu, gap)
    f_int = _integral(np.abs(fv) ** p, outer)
    u_int = _integral(uu ** p, outer)
    eq_b = EquationCheck(
        "two_radius_hessian",
        _integral(d2 ** p, inner),
        (f_int, gap ** (-2 * p) * u_int))
    eq_c = EquationCheck(
        "two_radius_gradient",
        _integral(d1 ** p, inner),
        (gap ** p * f_int, gap ** -p * u_int))
    return [eq_a, eq_b, eq_c]


@_register(
    id="LOCAL-MIXED",
    summary="Interior iterated-norm bound: Hessian and gradient on the inner "
            "ball by the operator image and function on the outer ball.",
    defaults={"d": 2, "operator": "bellman", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "r": 1.0, "R": 1.4, "sigma": 0.55},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["d"] == 2, "the catalog recipe fixes two space dimensions"),
        _need(p["p1"] > p["d"] and p["p2"] > p["d"],
              "iterated-norm exponents must each exceed d"),
        _need(0 < p["r"] < p["R"], "radii must satisfy 0 < r < R"),
    ),
)
def _run_local_mixed(params, h, seed):
    d = int(params["d"])
    p1, p2 = float(params["p1"]), float(params["p2"])
    r, R = float(params["r"]), float(params["R"])
    L = R + 0.2
    mf = manufactured("gaussian", d, sigma=float(params["sigma"]))
    grid, u, fv, d2, d1 = _fields(params, h, (-L,) * d, (L,) * d, mf)
    origin = (0.0,) * d
    inner = _ball_mask(grid, origin, r)
    outer = _ball_mask(grid, origin, R)
    spec = MixedNormSpec(groups=((1,), (0,)), exponents=(p2, p1))
    return [_mixed_pair("local_mixed_pair", grid, spec, p1, d2, d1, fv, np.abs(u.values),
                        inner, outer)]


# ---------------------------------------------------------------------------
# half-space bounds without boundary conditions

_HS_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0,
                "q": 0.25, "n": 0, "eps": 0.5}


def _slab_fields(params, h, x1_extent=4.0, center=1.2, radii=(1.0, 1.6)):
    d = int(params["d"])
    lo = (0.0,) + (-2.0,) * (d - 1)
    hi = (x1_extent,) + (2.0,) * (d - 1)
    centers = (center,) + (0.0,) * (d - 1)
    rr = (radii[0],) + (radii[1],) * (d - 1)
    mf = manufactured("slab_bump", d, centers=centers, radii=rr)
    return _fields(params, h, lo, hi, mf, half_axis=0)


@_register(
    id="HS-SLAB",
    summary="Dyadic-slab bounds near the boundary: Hessian and gradient on a "
            "slab by the defect, gradient and function on the enlarged slab, "
            "plus their far-field versions.",
    defaults=_HS_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p"] > p["d"], "the slab bound needs p > d"),
        _need(0 < p["eps"] <= 1, "eps must lie in (0, 1]"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the half-space A_{p/d} class"),
    ),
)
def _run_hs_slab(params, h, seed):
    p = float(params["p"])
    n = int(params["n"])
    eps = float(params["eps"])
    grid, u, fv, d2, d1 = _slab_fields(params, h)
    mass = node_masses(grid, _axis_weight(params["q"]))
    x1 = _axis_values(grid, 0)
    uu = np.abs(u.values)
    defect = np.abs(fv - u.values)

    def pair(tag, inner, outer, hess, grad):
        # ``hess`` and ``grad`` are the displayed coefficients of the rhs
        # terms after the first; each outer integral is taken once
        i2, i1, i0 = (_integral(a ** p, outer) for a in (d2, d1, uu))
        return [EquationCheck(f"{tag}_hessian", _integral(d2 ** p, inner),
                              (_integral(defect ** p, outer), hess[0] * i1, hess[1] * i0)),
                EquationCheck(f"{tag}_gradient", _integral(d1 ** p, inner),
                              (grad[0] * i2, grad[1] * i1, grad[2] * i0))]

    s_lo, s_hi = 2.0 ** -n, 2.0 ** (-n + 1)
    slab = ((x1 >= s_lo) & (x1 <= s_hi)).astype(np.float64) * mass
    wide = ((x1 >= s_lo / 2) & (x1 <= 2 * s_hi)).astype(np.float64) * mass
    far = (x1 >= 2.0).astype(np.float64) * mass
    near = (x1 >= 1.0).astype(np.float64) * mass
    two_n = 2.0 ** (p * n)
    return (pair("slab", slab, wide, (two_n, two_n ** 2 + 1.0), (eps / two_n, eps, two_n / eps))
            + pair("far", far, near, (1.0, 1.0), (eps, eps, eps ** -1)))


@_register(
    id="HS-WEIGHTED",
    summary="Boundary-weighted second-order bound: the capped-distance "
            "factor multiplies the Hessian and the defect, and its inverse "
            "multiplies the function.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 1.0},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: _need(p["p"] > p["d"], "the weighted bound needs p > d"),
)
def _run_hs_weighted(params, h, seed):
    p = float(params["p"])
    q = float(params["q"])
    grid, u, fv, d2, d1 = _slab_fields(
        params, h, x1_extent=3.0, center=1.0, radii=(0.7, 1.5))
    mass = node_masses(grid, HattedPowerX1(q, axis=0))
    hat = np.minimum(_axis_values(grid, 0), 1.0)
    uu = np.abs(u.values)
    eq = EquationCheck(
        "hatted_second_order",
        _integral((hat * d2) ** p, mass) + _integral(d1 ** p, mass),
        (_integral((hat * np.abs(fv - u.values)) ** p, mass),
         _integral(_safe_div(uu, hat) ** p, mass)),
        {"support_gap": "input vanishes near the boundary plane"})
    return [eq]


@_register(
    id="HS-MIXED",
    summary="Iterated-norm version of the boundary-weighted bound: inner "
            "norm across the boundary-parallel axes, outer weighted norm in "
            "the distance axis.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "q": 1.0},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: _need(p["p1"] > p["d"] and p["p2"] > p["d"],
                             "iterated-norm exponents must each exceed d"),
)
def _run_hs_mixed(params, h, seed):
    d = int(params["d"])
    p1, p2 = float(params["p1"]), float(params["p2"])
    q = float(params["q"])
    grid, u, fv, d2, d1 = _slab_fields(
        params, h, x1_extent=3.0, center=1.0, radii=(0.7, 1.5))
    hat = np.minimum(_axis_values(grid, 0), 1.0)
    spec = MixedNormSpec(groups=((0,), tuple(range(1, d))), exponents=(p2, p1),
                         weights=(HattedPowerX1(q, axis=0), None))
    eq = EquationCheck(
        "hatted_mixed",
        mixed_norm(GridFunction(grid, hat * d2 + d1), spec),
        (mixed_norm(GridFunction(grid, hat * np.abs(fv - u.values)), spec),
         mixed_norm(GridFunction(grid, _safe_div(np.abs(u.values), hat)), spec)))
    return [eq]


# ---------------------------------------------------------------------------
# half-space bounds with a vanishing boundary trace

def _dirichlet_fields(params, h, radius, box, kind="odd_bump"):
    d = int(params["d"])
    lo = (0.0,) + (-box,) * (d - 1)
    hi = (box,) + (box,) * (d - 1)
    fields = _fields(params, h, lo, hi, manufactured(kind, d, radius=radius), half_axis=0)
    _check_zero_trace(fields[1])
    return fields


@_register(
    id="HS-DIRICHLET",
    summary="Half-space bounds for inputs vanishing on the boundary plane: "
            "compact-support Hessian bound with the collar term, the "
            "gradient pair, and the absorbed-defect form.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "R": 1.5, "r0": 1.0, "tau0": 0.0, "input": "odd_bump"},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p"] > p["d"], "the boundary bound needs p > d"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the half-space A_{p/d} class"),
        _need(p["input"] in ("odd_bump", "bump"),
              f"unknown manufactured input {p['input']!r} for a boundary entry"),
    ),
)
def _run_hs_dirichlet(params, h, seed):
    p = float(params["p"])
    R, r0, tau0 = (float(params[k]) for k in ("R", "r0", "tau0"))
    grid, u, fv, d2, d1 = _dirichlet_fields(params, h, R, R + 0.1, kind=params["input"])
    mass = node_masses(grid, _axis_weight(params["q"]))
    uu = np.abs(u.values)
    collar = _ball_mask(grid, (0.0,) * int(params["d"]), R + r0)
    return [_collar_hessian("support_hessian", p, mass, d2, fv, uu, collar, tau0),
            _gradient_pair(p, mass, d2, d1, fv, uu),
            _absorbed("absorbed_zeroth", p, mass, d2, d1, uu, fv - u.values)]


@_register(
    id="HS-DIRICHLET-MIXED",
    summary="Iterated-norm boundary bound for trace-zero inputs with a "
            "capped power weight in the distance axis, and the plain-power "
            "scaling variant for translation-invariant operators.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "q": 0.25, "radius": 1.5},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p1"] > p["d"] and p["p2"] > p["d"],
              "iterated-norm exponents must each exceed d"),
        _validate_power_range(p["q"], -1.0, p["p2"] / p["d"] - 1.0,
                              "the trace-zero weighted bound"),
    ),
)
def _run_hs_dirichlet_mixed(params, h, seed):
    d = int(params["d"])
    p1, p2, q = float(params["p1"]), float(params["p2"]), float(params["q"])
    radius = float(params["radius"])
    grid, u, fv, d2, d1 = _dirichlet_fields(params, h, radius, radius + 0.1)
    uu = np.abs(u.values)
    groups = ((0,), tuple(range(1, d)))

    hat_spec = MixedNormSpec(groups=groups, exponents=(p2, p1),
                             weights=(HattedPowerX1(q, axis=0), None))
    eq_a = _mixed_absorbed("hatted_triple", grid, hat_spec, d2 + d1 + uu, fv - u.values)

    plain_spec = MixedNormSpec(groups=groups, exponents=(p2, p1),
                               weights=(PowerX1(q, axis=0), None))
    eq_b = EquationCheck(
        "scaling_variant",
        mixed_norm(GridFunction(grid, d2), plain_spec),
        (mixed_norm(GridFunction(grid, np.abs(fv)), plain_spec),))
    return [eq_a, eq_b]


@_register(
    id="HS-LOCAL",
    summary="Interior-to-boundary localized Hessian bound on half balls with "
            "the inverse-gap lower-order combination.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "r": 1.0, "R": 1.5, "radius": 1.8},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["p"] > p["d"], "the localized bound needs p > d"),
        _need(0 < p["r"] < p["R"], "radii must satisfy 0 < r < R"),
        _validate_power_range(p["q"], -1.0, p["p"] / p["d"] - 1.0,
                              "the half-space A_{p/d} class"),
    ),
)
def _run_hs_local(params, h, seed):
    d = int(params["d"])
    p = float(params["p"])
    r, R = float(params["r"]), float(params["R"])
    grid, u, fv, d2, d1 = _dirichlet_fields(
        params, h, float(params["radius"]), max(R, float(params["radius"])) + 0.2)
    mass = node_masses(grid, _axis_weight(params["q"]))
    origin = (0.0,) * d
    inner = _ball_mask(grid, origin, r) * mass
    outer = _ball_mask(grid, origin, R) * mass
    return [_local_hessian("boundary_local_hessian", p, inner, outer, d2, d1, fv,
                           np.abs(u.values), R - r)]


# ---------------------------------------------------------------------------
# parabolic bounds

_PARA_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 4.0,
                  "q": None, "R": 1.2, "r0": 1.0, "tau0": 0.0, "radius": 1.0,
                  "t_center": 0.7, "t_radius": 0.6}


def _para_fields(params, h, box=1.4, t_extent=1.6):
    d = int(params["d"])
    mf = with_time_profile(
        manufactured("bump", d, radius=float(params["radius"])),
        t_center=float(params["t_center"]), t_radius=float(params["t_radius"]))
    lo = (0.0,) + (-box,) * d
    hi = (t_extent,) + (box,) * d
    return _fields(params, h, lo, hi, mf, time_axis=True)


def _para_validate(p):
    _need(p["p"] > p["d"] + 1, "parabolic bounds need p > d + 1")
    _validate_power_range(p.get("q"), -1.0, p["p"] / (p["d"] + 1) - 1.0,
                          "the parabolic weight class")


@_register(
    id="PARA-GLOBAL",
    summary="Space-time Hessian bound for inputs supported in a forward "
            "cylinder, by the heat-operator image, the function, and the "
            "collar term.",
    defaults=_PARA_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _para_validate(p),
        _need(p["radius"] < p["R"], "the space support must stay inside R"),
        _need(p["t_center"] + p["t_radius"] <= p["R"] ** 2,
              "the time support must stay inside the cylinder"),
    ),
)
def _run_para_global(params, h, seed):
    p = float(params["p"])
    R, r0, tau0 = (float(params[k]) for k in ("R", "r0", "tau0"))
    grid, u, fv, d2, d1 = _para_fields(params, h)
    mass = node_masses(grid, _axis_weight(params["q"], axis=1))
    collar = _cylinder_mask(grid, R + r0)
    return [_collar_hessian("parabolic_hessian", p, mass, d2, fv, np.abs(u.values), collar,
                            tau0)]


@_register(
    id="PARA-APRIORI",
    summary="Space-time a priori bounds on the forward half-line in time: "
            "the absorbed-defect form and the gradient pair.",
    defaults=_PARA_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: _para_validate(p),
)
def _run_para_apriori(params, h, seed):
    return _apriori_pair(params, _para_fields(params, h), axis=1)


@_register(
    id="PARA-MIXED",
    summary="Iterated-norm space-time bound with one exponent per axis, "
            "innermost in time.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p0": 4.0,
              "p1": 4.0, "p2": 4.0, "radius": 1.0, "t_center": 0.7,
              "t_radius": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["d"] == 2, "the catalog recipe fixes two space dimensions"),
        _need(min(p["p0"], p["p1"], p["p2"]) > p["d"] + 1,
              "iterated-norm exponents must each exceed d + 1"),
    ),
)
def _run_para_mixed(params, h, seed):
    p0, p1, p2 = (float(params[k]) for k in ("p0", "p1", "p2"))
    grid, u, fv, d2, d1 = _para_fields(params, h)
    spec = MixedNormSpec(groups=((2,), (1,), (0,)), exponents=(p2, p1, p0))
    return [_mixed_absorbed("mixed_triple", grid, spec, _stack(p0, d2, d1, u.values),
                            fv - u.values)]


@_register(
    id="PARA-LOCAL-MIXED",
    summary="Iterated-norm bound on nested forward cylinders: Hessian and "
            "gradient inside the small cylinder by the heat-operator image "
            "and function inside the large one.",
    defaults={"d": 2, "operator": "bellman", "delta": 0.5, "p0": 4.0,
              "p1": 4.0, "p2": 4.0, "r": 0.8, "R": 1.1, "radius": 0.9,
              "t_center": 0.3, "t_radius": 0.3},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["d"] == 2, "the catalog recipe fixes two space dimensions"),
        _need(min(p["p0"], p["p1"], p["p2"]) > p["d"] + 1,
              "iterated-norm exponents must each exceed d + 1"),
        _need(0 < p["r"] < p["R"], "cylinder radii must satisfy 0 < r < R"),
    ),
)
def _run_para_local_mixed(params, h, seed):
    p0, p1, p2 = (float(params[k]) for k in ("p0", "p1", "p2"))
    r, R = float(params["r"]), float(params["R"])
    grid, u, fv, d2, d1 = _para_fields(params, h, box=1.2, t_extent=1.0)
    inner = _cylinder_mask(grid, r)
    outer = _cylinder_mask(grid, R)
    spec = MixedNormSpec(groups=((2,), (1,), (0,)), exponents=(p2, p1, p0))
    return [_mixed_pair("local_mixed_pair", grid, spec, p0, d2, d1, fv, np.abs(u.values),
                        inner, outer)]


# ---------------------------------------------------------------------------
# parabolic half-space bounds with a vanishing boundary trace

_PARA_HS_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 4.0,
                     "q": 0.25, "R": 1.2, "r0": 1.0, "tau0": 0.0,
                     "radius": 1.1, "t_center": 0.7, "t_radius": 0.6}


def _para_hs_fields(params, h):
    d = int(params["d"])
    mf = with_time_profile(
        manufactured("odd_bump", d, radius=float(params["radius"])),
        t_center=float(params["t_center"]), t_radius=float(params["t_radius"]))
    lo = (0.0, 0.0) + (-1.3,) * (d - 1)
    hi = (1.6, 1.3) + (1.3,) * (d - 1)
    fields = _fields(params, h, lo, hi, mf, time_axis=True, half_axis=1)
    _check_zero_trace(fields[1])
    return fields


@_register(
    id="PARA-HS",
    summary="Space-time boundary Hessian bound for trace-zero inputs "
            "supported in a forward half-cylinder.",
    defaults=_PARA_HS_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _para_validate(p),
        _need(p["radius"] < p["R"], "the space support must stay inside R"),
        _need(p["t_center"] + p["t_radius"] <= p["R"] ** 2,
              "the time support must stay inside the cylinder"),
    ),
)
def _run_para_hs(params, h, seed):
    p = float(params["p"])
    R, r0, tau0 = (float(params[k]) for k in ("R", "r0", "tau0"))
    grid, u, fv, d2, d1 = _para_hs_fields(params, h)
    mass = node_masses(grid, _axis_weight(params["q"], axis=1))
    collar = _cylinder_mask(grid, R + r0)
    return [_collar_hessian("boundary_hessian", p, mass, d2, fv, np.abs(u.values), collar,
                            tau0)]


@_register(
    id="PARA-HS-FULL",
    summary="Space-time boundary bound of all three derivative orders by the "
            "absorbed defect for trace-zero inputs.",
    defaults=_PARA_HS_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: _para_validate(p),
)
def _run_para_hs_full(params, h, seed):
    p = float(params["p"])
    grid, u, fv, d2, d1 = _para_hs_fields(params, h)
    mass = node_masses(grid, _axis_weight(params["q"], axis=1))
    return [_absorbed("boundary_absorbed", p, mass, d2, d1, np.abs(u.values), fv - u.values)]


@_register(
    id="PARA-HS-MIXED",
    summary="Iterated-norm space-time boundary bounds for trace-zero inputs "
            "with a power weight in the wall distance: time-outer and "
            "space-outer cylinder forms plus the full triple form.",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 4.0,
              "p2": 4.0, "p3": 4.0, "q": 0.25, "r": 0.9, "R": 1.2,
              "radius": 1.1, "t_center": 0.7, "t_radius": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _need(p["d"] == 2, "the catalog recipe fixes two space dimensions"),
        _need(min(p["p1"], p["p2"], p["p3"]) > p["d"] + 1,
              "iterated-norm exponents must each exceed d + 1"),
        _need(-1.0 < p["q"] < p["p1"] / (p["d"] + 1) - 1.0,
              "the wall-distance power must lie in (-1, p1/(d+1) - 1)"),
        _need(0 < p["r"] < p["R"], "cylinder radii must satisfy 0 < r < R"),
    ),
)
def _run_para_hs_mixed(params, h, seed):
    d = int(params["d"])
    p1, p2, p3, q = (float(params[k]) for k in ("p1", "p2", "p3", "q"))
    r, R = float(params["r"]), float(params["R"])
    grid, u, fv, d2, d1 = _para_hs_fields(params, h)
    uu = np.abs(u.values)
    inner = _cylinder_mask(grid, r)
    outer = _cylinder_mask(grid, R)
    space = tuple(range(1, d + 1))
    wall = PowerX1(q, axis=1)

    t_outer = MixedNormSpec(groups=((0,), space), exponents=(p2, p1),
                            weights=(None, wall))
    x_outer = MixedNormSpec(groups=(space, (0,)), exponents=(p1, p2),
                            weights=(wall, None))
    triple = MixedNormSpec(groups=((0,), tuple(range(2, d + 1)), (1,)),
                           exponents=(p3, p2, p1), weights=(None, None, wall))
    return [
        _mixed_pair("cylinder_time_outer", grid, t_outer, p1, d2, d1, fv, uu, inner, outer),
        _mixed_pair("cylinder_space_outer", grid, x_outer, p2, d2, d1, fv, uu, inner, outer),
        _mixed_absorbed("weighted_triple", grid, triple, d2 + d1 + uu, fv - u.values)]


# ---------------------------------------------------------------------------
# documented counterexample

@_register(
    id="NEG-EXP",
    summary="Unbounded exponential input whose defect vanishes identically: "
            "the absorbed zeroth-order bound must fail, with the empirical "
            "constant infinite on every window.",
    defaults={"p": 2.0, "h": 0.01},
    ladder=(1.0, 2.0, 4.0, 8.0),
    ladder_kind="window",
    expect_divergence=True,
    validate=lambda p: (
        _need(p["p"] >= 1, "the norm exponent needs p >= 1"),
        _need(0 < p["h"] < math.inf, f"h must be finite and positive, got {p['h']!r}")),
    min_spacing=0.0,
)
def _run_neg_exp(params, L, seed):
    p = float(params["p"])
    h = float(params["h"])
    grid = _grid((0.0,), (float(L),), h)
    X = grid.flat_nodes()
    mf = manufactured("exp_growth", 1)
    u = mf.u(X).reshape(grid.shape)
    du = mf.du(X)[:, 0].reshape(grid.shape)
    d2 = mf.d2u(X)[:, 0, 0].reshape(grid.shape)
    notes = {"derivatives": "analytic",
             "defect": "second derivative minus function vanishes identically"}
    return [_absorbed("unbounded_zeroth", p, node_masses(grid), np.abs(d2), np.abs(du),
                      np.abs(u), d2 - u, notes)]


# ---------------------------------------------------------------------------
# exact-identity suite wrapped as a catalog entry

@_register(
    id="IDENTITIES",
    summary="Randomized exact stopping-time identities across all three "
            "filtration geometries; the worst residual must sit below the "
            "tolerance.",
    defaults={"tolerance": 1e-12},
    ladder=(100.0,),
    ladder_kind="instances",
    exact_threshold=1.0,
    min_spacing=0.0,
)
def _run_identities(params, x, seed):
    rep = exact_identity_suite(seed=seed, n_instances=int(x),
                               tolerance=float(params["tolerance"]))
    # wall-clock timing stays off the report; identical seeds must serialize
    # to identical bytes
    eq = EquationCheck(
        "exact_identities",
        rep.worst(),
        (float(params["tolerance"]),),
        {"per_identity_max": dict(rep.max_residual),
         "failures": len(rep.failures)})
    return [eq]


ENTRY_IDS = tuple(sorted(ENTRIES))
