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

The grid fixes three recurring objects: a power weight ``|x_1|^q``
(``_axis_weight``, plain or hatted) lies on its first space axis (FS-LOCAL's,
on a dyadic filtration, is the one built by hand); the region of radius ``r``
about the origin (``_origin_mask``) is the ball ``B_r``, or on a time grid the
forward cylinder ``[0, r^2) x B_r``; and the collar term (``_collar_hessian``)
is ``tau0^p`` times that region's weighted mass at radius ``R + r0``.  Only
an entry with a collar term takes all three of ``R``, ``r0`` and ``tau0``.

A finite-difference entry's input is one recipe ``(side, kind, wall, time,
shape)`` (``_sampled``): ``manufactured(kind, d, **shape)`` on [-side, side]^d,
with the first space axis [0, wall] when ``wall`` is set, behind a time axis
[0, T] with a bump time profile when ``time = (T, t_center, t_radius)`` is
set.  The wall is the box: a half-space recipe is one whose box starts at 0 on
the first space axis, and the grid carries no other mark of it.  An input with
no nonzero sample tests nothing, and is refused.  The entries take their grid,
input samples, operator image and derivative magnitudes from ``_fields``, as
one set per recipe and spacing (OSC, OSC-P and INTERP-LOCAL difference the
samples themselves); a set with a wall is checked once, when built, to vanish
on the wall's face.  A set is held only on the input's support box
(``calculus.support_box``), with its slices: elsewhere the derivatives vanish,
and so does the operator image, since every ``build_operator`` kind is
positively homogeneous, so ``F(0, x) = 0``.  The input is sampled on its
analytic support and the set built slab by slab
(``calculus.operator_fields``).  The runners form masses, masks and integrands
on the box from the grid's axis nodes, so every per-node value is the whole
grid's, bit for bit, and accumulate integrands one slab of axis-0 layers at a
time; the collar term, which does not vanish off the box, is summed over the
whole grid slab by slab, and only under a nonzero ``tau0^p``.
Inside ``run_suite`` (see ``shared_fields``) entries with one recipe share
these sets: each is computed once, handed out read-only, and kept only while
its recipe is the most recently requested one; each operator's class check
is kept for the whole call.  A set or check depends on nothing but its recipe,
spacing or seed, so a report is the same whether they were shared or not.
"""

from __future__ import annotations

import contextvars
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cache, partial
from typing import Callable

import numpy as np

from ..calculus import (
    GridFunction,
    axis0_slabs,
    bellman_operator,
    box_grid,
    check_delta,
    check_operator_class,
    check_scale,
    euclidean,
    evaluate_operator,
    fd_derivatives,
    frobenius,
    in_shape,
    linear_operator,
    manufactured,
    operator_fields,
    power,
    pucci_operator,
    with_time_profile,
)
from ..filtration import _aligned_count, full_space, level_means
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
    NodeMasses,
    PowerX1,
    beta_type_constant,
    box_mixed_norm,
    cell_masses,
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
    runner: Callable
    defaults: dict
    ladder: tuple
    ladder_kind: str = "spacing"
    expect_divergence: bool = False
    exact_threshold: float | None = None
    validate: Callable | None = None
    min_spacing: float = 1.0 / 512
    check_step: Callable | None = None    # (params, x): refuses a step params cannot run

    def check_ladder(self, ladder, params: dict) -> tuple[float, ...]:
        """The ladder as floats; a step this entry cannot run at ``params``
        raises ``ValueError``.  Spacings are finite and at least ``min_spacing``,
        windows finite and positive, instance counts positive integers, and
        each value passes ``check_step``; an integer past the float range is
        refused without its digits.  A spacing ladder strictly decreases
        and a window or instance ladder strictly increases: a repeated or
        reordered step refines nothing."""
        ladder = tuple(_float(x, f"{self.ladder_kind} ladder value for {self.id}")
                       for x in ladder)
        if not ladder:
            raise ValueError(f"empty ladder for {self.id}")
        spacing = self.ladder_kind == "spacing"
        for i, x in enumerate(ladder):
            if spacing:
                ok, need = x >= self.min_spacing, \
                    f"finite and not below the supported resolution {self.min_spacing}"
            elif self.ladder_kind == "window":
                ok, need = x > 0, "finite and positive"
            else:
                ok, need = x >= 1 and x.is_integer(), "a positive integer"
            if not (ok and math.isfinite(x)):
                raise ValueError(f"{self.ladder_kind} ladder value {x} for {self.id} must be {need}")
            if self.check_step is not None:
                self.check_step(params, x)
            if i and not (x < ladder[i - 1] if spacing else x > ladder[i - 1]):
                raise ValueError(f"{self.ladder_kind} ladder value {x} for {self.id} is repeated "
                                 "or out of order: the ladder must be strictly "
                                 f"{'de' if spacing else 'in'}creasing")
        return ladder

    def merged(self, overrides: dict) -> dict:
        """The defaults with ``overrides`` applied, each parameter in the type
        it runs and is reported in: a float default's as a ``float``, an int
        default's as an ``int`` (never truncated from a float), a ``None``
        default's as ``None`` or a ``float``, and a string default's as given.
        A bool is no number here.  An unknown key, a value of the wrong type
        or an integer past the float range raises ``ValueError`` naming the
        key."""
        params = dict(self.defaults)
        for key, val in overrides.items():
            if key not in params:
                raise ValueError(f"unknown parameter {key!r} for entry {self.id}")
            default = params[key]
            if not isinstance(default, str) and not (default is None and val is None):
                cast, types, what = _TYPES[type(default)]
                if not isinstance(val, types) or isinstance(val, bool):
                    raise ValueError(f"{key} must be {what}, got {val!r}")
                number = _float(val, key)
                val = int(val) if cast is int else number
            params[key] = val
        return params


ENTRIES: dict[str, CatalogEntry] = {}


def _register(**kw):
    """Add an entry.  Its ``validate`` runs on ``merged``'s typed parameters:
    first the rule of each name in ``_NAME_RULES``, then the entry's own
    validator.  An estimate's exponent and weight-class hypotheses are one
    ``_hypotheses`` rule, in its validator."""
    rules = [rule for key, rule in _NAME_RULES if key in kw["defaults"]]
    own = kw.get("validate") or (lambda params: None)
    kw["validate"] = lambda params: (*(rule(params) for rule in rules), own(params))

    def deco(fn):
        entry = CatalogEntry(runner=fn, **kw)
        ENTRIES[entry.id] = entry
        return fn
    return deco


def _need(cond: bool, msg: str):
    if not cond:
        raise ValueError(msg)


def _float(x, what: str) -> float:
    """``float(x)``, where an integer past the float range raises
    ``ValueError`` naming ``what``, not ``OverflowError``."""
    try:
        return float(x)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None


# By the type of a parameter's default: the type it runs in, the values it
# takes and their description.
_NUMBER = (int, float, np.integer, np.floating)
_TYPES = {int: (int, (int, np.integer), "an integer"),
          float: (float, _NUMBER, "a number"),
          type(None): (float, _NUMBER, "None or a number")}

# The rule of each parameter name, in the order they run (``d`` before the
# operator, ``R`` before ``r``); the operator is built, so bad operator
# settings fail before a run.
_NAME_RULES = [
    ("d", lambda p: _need(p["d"] >= 1, f"d must be at least 1, got {p['d']!r}")),
    ("operator", lambda p: build_operator(p)),
    ("tau0", lambda p: _need(0 <= p["tau0"] < math.inf,
                             f"tau0 must be finite and nonnegative, got {p['tau0']!r}")),
    *((key, lambda p, key=key: _need(p[key] is None or math.isfinite(p[key]),
                                     f"{key} must be finite, got {p[key]!r}"))
      for key in ("p", "p0", "p1", "p2", "p3", "q", "t_center")),
    *((key, lambda p, key=key: check_scale(key, p[key]))
      for key in ("radius", "sigma", "t_radius", "extent", "rho", "r0", "R", "mu", "h",
                  "tolerance", "nu", "xi")),
    *((key, lambda p, key=key: _need(0 < p[key] <= 1, f"{key} must lie in (0, 1], got {p[key]!r}"))
      for key in ("gamma", "beta", "eps")),
    ("r", lambda p: _need(0 < p["r"] < p["R"],
                          f"r must satisfy 0 < r < R, got r = {p['r']!r}, R = {p['R']!r}")),
]


# ---------------------------------------------------------------------------
# shared building blocks

def _dyadic_level(h: float) -> int:
    n = round(-math.log2(h))
    _need(abs(2.0 ** -n - h) <= 1e-9 * h, f"ladder spacing {h} is not dyadic (2**-n)")
    return n


def _grid(lo, hi, h: float, time_axis=False):
    shape = tuple(max(2, int(round((b - a) / h)) + 1) for a, b in zip(lo, hi))
    return box_grid(lo, hi, shape, time_axis)


def build_operator(params: dict):
    """Operator factory shared by all PDE entries.  Every kind is positively
    homogeneous and returns +0.0 at the zero Hessian, the premise of
    evaluating operators on the support box only
    (``calculus.evaluate_operator``)."""
    kind = params["operator"]
    delta = params["delta"]
    check_delta(delta)
    d = params["d"]
    if kind == "linear":
        return linear_operator(np.eye(d), delta, k_f=math.sqrt(d))
    if kind == "pucci":
        return pucci_operator(delta, d=d)
    if kind == "bellman":
        eigs = np.array([delta if i % 2 else 1.0 / delta for i in range(d)])
        family = (np.eye(d), np.diag(eigs))
        return bellman_operator(family, delta, k_f=math.sqrt(float((eigs ** 2).sum())))
    raise ValueError(f"unknown operator {kind!r}; choose linear, pucci or bellman")


class _FieldStore:
    """The field sets of the latest recipe, and every operator's class check."""

    def __init__(self):
        self.recipe, self.ladder, self.classes = None, {}, {}

    def get(self, recipe, h: float, compute: Callable):
        if recipe != self.recipe:             # drop the last ladder before computing
            self.recipe, self.ladder = recipe, {}
        return self.once(self.ladder, h, compute)

    def once(self, table: dict, key, compute: Callable):
        if key not in table:
            table[key] = compute()
        return table[key]


def operator_class_report(params: dict, seed: int):
    """The operator's ``check_operator_class``, once per ``shared_fields`` block."""
    key = (params["operator"], params["delta"], params["d"], seed)
    store = _SHARED.get()
    compute = lambda: check_operator_class(build_operator(params), key[2], budget=40, seed=seed)
    return compute() if store is None else store.once(store.classes, key, compute)


# The store of the running ``shared_fields`` block, or None outside one.
_SHARED = contextvars.ContextVar("shared_fields", default=None)


@contextmanager
def shared_fields():
    """Share ``_fields`` sets among the runners called inside the block, as
    the module docstring says; nothing outlives the block."""
    token = _SHARED.set(_FieldStore())
    try:
        yield
    finally:
        _SHARED.reset(token)


def _sampled(d: int, h: float, side: float, kind: str, wall=None, time=None, **shape):
    """``(grid, u)``: the grid of one input recipe and ``manufactured(kind, d,
    **shape)`` sampled on it.  The grid is [-side, side]^d, its first space
    axis [0, wall] when ``wall`` is set, behind a time axis [0, T] when
    ``time = (T, t_center, t_radius)`` is set, where the input takes a bump
    time profile centred at ``t_center`` of radius ``t_radius``."""
    mf = manufactured(kind, d, **shape)
    lo, hi = [-side] * d, [side] * d
    if wall is not None:
        lo[0], hi[0] = 0.0, wall
    if time is not None:
        t_end, t_center, t_radius = time
        mf = with_time_profile(mf, t_center=t_center, t_radius=t_radius)
        lo, hi = [0.0] + lo, [t_end] + hi
    grid = _grid(lo, hi, h, time_axis=time is not None)
    u = mf.on_grid(grid)
    _refuse_vacuous(u.values, kind, shape if time is None
                    else dict(shape, t_center=t_center, t_radius=t_radius), h)
    return grid, u


def _refuse_vacuous(values, kind: str, shape: dict, h: float):
    """Refuse the samples ``values`` of ``manufactured(kind, **shape)`` at
    spacing ``h`` when none is nonzero: every term is then 0, which passes
    any bound and tests nothing."""
    if not np.any(values):
        args = ", ".join(f"{k}={v!r}" for k, v in shape.items())
        raise ValueError(f"the input {kind}({args}) is 0 at every node at spacing {h}, "
                         "so it tests nothing")


def _fields(params: dict, h: float, side: float, kind: str, wall=None, time=None, **shape):
    """``(grid, box, u, fv, d2, d1)`` of the input recipe ``(side, kind, wall,
    time, shape)`` (see ``_sampled``): the grid, the input's support box and,
    as read-only arrays on it, samples, operator image and Hessian and
    gradient magnitudes, never padded.  Shared in a ``shared_fields`` block
    under the recipe, the operator, delta and d."""
    store = _SHARED.get()
    compute = partial(_field_set, params, h, side, kind, wall, time, shape)
    if store is None:
        return compute()
    recipe = (side, kind, wall, time, tuple(sorted(shape.items())), params["operator"],
              params["delta"], params["d"])
    return store.get(recipe, h, compute)


def _field_set(params, h, side, kind, wall, time, shape):
    """``_fields``' set, computed; a ``wall`` recipe's input is checked to
    vanish on the boundary face."""
    grid, u = _sampled(params["d"], h, side, kind, wall, time, **shape)
    box, *arrays = operator_fields(build_operator(params), u)
    for arr in arrays:
        arr.flags.writeable = False
    fields = (grid, box, *arrays)
    return fields if wall is None else _zero_trace(fields)


def _integral(arr, mass) -> float:
    return float((arr * mass).sum())


def _power_integral(p: float, mass, *terms) -> float:
    """``_integral`` of ``|t|^p`` summed over ``terms`` left to right (from
    +0.0, which adds exactly), in place one slab of axis-0 layers at a time;
    a callable term maps a slab to the term on it, formed only there."""
    acc = np.zeros(mass.shape)
    for s in axis0_slabs(mass.shape):
        for t in terms:
            np.add(acc[s], power(np.abs(t(s) if callable(t) else t[s]), p), out=acc[s])
        np.multiply(acc[s], mass[s], out=acc[s])
    return float(acc.sum())


def _collar(grid, w, radius: float) -> float:
    """The origin region's (``_origin_mask``) integral over the whole grid
    against ``w``'s node masses (``NodeMasses``), summed one slab of axis-0
    layers at a time."""
    masses = NodeMasses(grid, w)
    boxes = ((s,) + (slice(None),) * (grid.ndim - 1) for s in axis0_slabs(grid.shape))
    return sum(_integral(_origin_mask(grid, radius, box), masses[box[0]]) for box in boxes)


def _origin_mask(grid, radius: float, box=None) -> np.ndarray:
    """Indicator of the ball ``B_r`` about the origin, or on a time grid of the
    forward cylinder ``[0, r^2) x B_r``, on the nodes of ``box`` (the whole
    grid by default)."""
    x = grid.coordinates(box)
    space = (x[ax] for ax in grid.space_axes)
    return in_shape(radius, space, x[0] if grid.time_axis else None).astype(np.float64)


def _slab_hat(grid, box=None) -> np.ndarray:
    """The capped wall distance ``min(x_0, 1)`` on the nodes of ``box``."""
    return np.minimum(grid.coordinates(box)[0], 1.0)


def _safe_div(num, den) -> np.ndarray:
    out = np.zeros(np.broadcast(num, den).shape)
    np.divide(num, den, out=out, where=den > 0)
    return out


def _stack(p: float, *arrs) -> Callable:
    """Slab ``s`` -> the pointwise l^p stack of ``arrs`` on it."""
    return lambda s: power(sum(power(np.abs(a[s]), p) for a in arrs), 1.0 / p)


def _pointwise(equation: str, lhs, terms, notes=None) -> EquationCheck:
    """Report the node with the worst lhs / sum(terms) ratio."""
    den = np.zeros_like(lhs)
    for t in terms:
        den = den + t
    ratio = np.where(den > 0, lhs / np.where(den > 0, den, 1.0),
                     np.where(lhs > 0, np.inf, 0.0))
    k = int(np.argmax(ratio))
    return EquationCheck(equation, float(lhs.flat[k]),
                         tuple(float(t.flat[k]) for t in terms), notes or {})


# ---------------------------------------------------------------------------
# inequality shapes shared by several entries; ``d2`` and ``d1`` are the
# Hessian and gradient magnitudes, ``u`` the function and ``fv`` the operator
# image

def _absorbed(equation, p, mass, d2, d1, u, fv) -> EquationCheck:
    """All three derivative orders by the absorbed defect ``fv - u``."""
    return EquationCheck(equation, _power_integral(p, mass, d2, d1, u),
                         (_power_integral(p, mass, lambda s: fv[s] - u[s]),))


def _gradient_pair(p, mass, d2, d1, fv, u) -> EquationCheck:
    """Hessian and gradient by the operator image plus the function."""
    return EquationCheck("gradient_pair", _power_integral(p, mass, d2, d1),
                         (_power_integral(p, mass, fv),
                          _power_integral(p, mass, u)))


def _collar_hessian(equation, params, fields, u_scale=1.0) -> EquationCheck:
    """Hessian by the operator image, the function times ``u_scale`` and the
    collar term ``tau0^p * _collar(R + r0)``, weighted by ``q`` on the grid
    of ``fields``; the collar, finite and nonnegative, is not summed when
    ``tau0^p = 0``, where the term is +0.0."""
    p, q, R, r0, tau0 = (params[k] for k in ("p", "q", "R", "r0", "tau0"))
    grid, box, u, fv, d2, _ = fields
    w = _axis_weight(q, grid)
    mass = NodeMasses(grid, w, box)
    return EquationCheck(equation, _power_integral(p, mass, d2),
                         (_power_integral(p, mass, fv),
                          u_scale * _power_integral(p, mass, u),
                          tau0 ** p * _collar(grid, w, R + r0) if tau0 ** p else 0.0))


def _local_hessian(equation, p, inner, outer, d2, d1, fv, u, gap) -> EquationCheck:
    """Hessian on the inner region by the operator image and the inverse-gap
    lower-order combination on the outer one."""
    return EquationCheck(equation, _power_integral(p, inner, d2),
                         (_power_integral(p, outer, fv),
                          _power_integral(p, outer, lambda s: gap ** -1 * d1[s]
                                          + (gap ** -2 + 1.0) * np.abs(u[s]))))


def _gradient_interpolation(equation, p, inner, outer, d2, d1, u, c2, c0) -> EquationCheck:
    """Gradient on the inner region between the Hessian and the function on
    the outer one, with displayed coefficients ``c2`` and ``c0``."""
    return EquationCheck(equation, _power_integral(p, inner, d1),
                         (c2 * _power_integral(p, outer, d2),
                          c0 * _power_integral(p, outer, u)))


def _mixed_absorbed(equation, grid, box, spec, orders, u, fv) -> EquationCheck:
    """Iterated norm of the derivative orders (``orders``, a slab callable)
    by that of the absorbed defect ``fv - u``, both formed slab by slab."""
    norm = partial(box_mixed_norm, grid, box, spec)
    return EquationCheck(equation, norm(orders), (norm(lambda s: fv[s] - u[s]),))


def _mixed_pair(equation, grid, box, spec, e, d2, d1, fv, uu, inner, outer) -> EquationCheck:
    """Iterated norms: Hessian and gradient (stacked in l^e) inside by the
    operator image and the function outside."""
    norm = partial(box_mixed_norm, grid, box, spec)
    stack = _stack(e, d2, d1)
    return EquationCheck(equation, norm(lambda s: stack(s) * inner[s]), (
        norm(lambda s: np.abs(fv[s]) * outer[s]), norm(lambda s: uu[s] * outer[s])))


def _zero_trace(fields):
    """``fields`` once its input is checked to vanish on the boundary face."""
    grid, _, u = fields[:3]
    scale = max(1.0, float(np.abs(u).max(initial=0.0)))
    # the box's first layer is the face {x = 0}, or zeros of its halo
    face = (slice(None),) * grid.space_axes[0] + (slice(0, 1),)
    trace = float(np.abs(u[face]).max(initial=0.0))
    _need(trace <= 1e-12 * scale,
          "manufactured input must vanish on the boundary hyperplane "
          f"(trace magnitude {trace:.3e})")
    return fields


def _hypotheses(*exponents, dim: str = "d", weighted: str | None = None, plane: bool = False):
    """The rule of an estimate's hypotheses: with ``plane`` the recipe's d is
    2; each of ``exponents`` exceeds ``dim`` ("d", "d + 1" in space-time, or
    "1"); and a power weight ``|x_1|^q``, when ``weighted`` names its exponent
    p and q is set, is in the Muckenhoupt class A_{p/dim}: -1 < q < p/dim - 1."""
    label = {"1": "", "d": "/d", "d + 1": "/(d + 1)"}[dim]

    def rule(p):
        if plane:
            _need(p["d"] == 2, f"the catalog recipe fixes two space dimensions, got d = {p['d']!r}")
        n = 1 if dim == "1" else p["d"] + 1 if dim == "d + 1" else p["d"]
        for key in exponents:
            _need(p[key] > n, f"the estimate needs {key} > {dim}, got {key} = {p[key]!r}")
        q = p.get("q") if weighted else None
        if q is not None:
            top = p[weighted] / n - 1.0
            _need(-1.0 < q < top, f"power weight exponent q must lie in (-1, {top}) for "
                                  f"the class A_{{{weighted}{label}}}, got q = {q!r}")
    return rule


def _integrable_weight(p):
    """A weight ``|x_1|^q`` or ``min(x_1, 1)^q`` held to no Muckenhoupt class
    is still locally integrable at the wall: q > -1."""
    _need(p["q"] > -1, "weight exponent q must exceed -1, or the weight is not locally "
                       f"integrable at the wall, got q = {p['q']!r}")


_ELLIPTIC = _hypotheses("p", weighted="p")
_PARABOLIC = _hypotheses("p", dim="d + 1", weighted="p")


def _cylinder_support(p):
    """The input's support stays inside the cylinder of radius R and height R^2."""
    _need(p["radius"] < p["R"],
          f"the space support must stay inside R, got radius = {p['radius']!r}, R = {p['R']!r}")
    _need(p["t_center"] - p["t_radius"] >= 0,
          "the time support must start at t >= 0, got t_center - t_radius = "
          f"{p['t_center'] - p['t_radius']!r}")
    _need(p["t_center"] + p["t_radius"] <= p["R"] ** 2,
          f"the time support must stay inside the cylinder, ending by R^2 = {p['R'] ** 2!r}")


def _axis_weight(q, grid, kind=PowerX1):
    """The weight ``kind(q)`` on ``grid``'s first space axis, or None for no
    weight (``q`` None)."""
    return None if q is None else kind(q, axis=grid.space_axes[0])


# ---------------------------------------------------------------------------
# dyadic maximal bounds with analytic constants

def _indicator_maximal(params, h):
    """Finest volume, the indicator of [0, 1) on [0, extent) and its dyadic
    maximal function."""
    filt = full_space(1, params["n_min"], _dyadic_level(h), (0.0,), (params["extent"],))
    g = filt.sample(lambda X: (X[:, 0] < 1.0).astype(np.float64))
    return filt.finest_volume, g.values, dyadic_maximal(g).values


_INDICATOR_FINEST = 10  # finest supported level (spacing 2**-10)


def _indicator_validate(p):
    """n_min must be a level no finer than the finest supported one, and
    [0, extent) a whole number of coarsest cells (side 2**-n_min)."""
    n_min = p["n_min"]
    _need(n_min <= _INDICATOR_FINEST,
          f"n_min must be at most the finest supported level {_INDICATOR_FINEST}, got {n_min!r}")
    # under half a cell is refused before the side 2**-n_min can overflow
    _need(math.log2(p["extent"]) + n_min > -1,
          f"n_min = {n_min}: [0, {p['extent']}) holds under half a coarsest cell")
    _aligned_count(p["extent"], 2.0 ** -n_min, f"extent at n_min = {n_min!r}")


def _indicator_step(p, h):
    """A dyadic step of at most 1, so cells align with the indicator's
    endpoint, at a level not coarser than n_min."""
    n_max = _dyadic_level(h)
    _need(n_max >= 0, f"ladder spacing {h} exceeds 1, the indicator's endpoint")
    _need(p["n_min"] <= n_max, f"n_min = {p['n_min']} exceeds level {n_max} of ladder spacing {h}")


@_register(
    id="MAX-LP",
    defaults={"p": 2.0, "extent": 4.0, "n_min": -2},
    ladder=(0.25, 0.125, 0.0625),
    exact_threshold=1.0,
    validate=lambda p: (_need(p["p"] > 1, "the maximal Lp bound needs p > 1"),
                        _need(p["extent"] >= 2, "extent must cover the indicator"),
                        _indicator_validate(p)),
    min_spacing=2.0 ** -_INDICATOR_FINEST,
    check_step=_indicator_step,
)
def _run_max_lp(params, h, seed):
    """Lp bound for the dyadic maximal function with the analytic constant
    p/(p-1) on a truncated indicator input."""
    p = params["p"]
    vol, g, mg = _indicator_maximal(params, h)
    lhs = float(((np.abs(mg) ** p).sum() * vol) ** (1.0 / p))
    gnorm = float(((np.abs(g) ** p).sum() * vol) ** (1.0 / p))
    bound = p / (p - 1.0) * gnorm
    return [EquationCheck("maximal_lp", lhs, (bound,), {"input_norm": gnorm})]


@_register(
    id="MAX-WEAK",
    defaults={"extent": 4.0, "n_min": -2},
    ladder=(0.25, 0.125, 0.0625),
    exact_threshold=1.0,
    validate=_indicator_validate,
    min_spacing=2.0 ** -_INDICATOR_FINEST,
    check_step=_indicator_step,
)
def _run_max_weak(params, h, seed):
    """Weak-type level-set bound for the dyadic maximal function with constant
    one, swept over thresholds just below each attained average."""
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

def _fs_local_step(p, h):
    """The sharp function's floor level m is one of the filtration's levels."""
    n_max = _dyadic_level(h)
    _need(0 <= p["m"] <= n_max, f"m = {p['m']} must lie in [0, {n_max}], the levels "
                                f"at ladder spacing {h}")


@_register(
    id="FS-LOCAL",
    defaults={"p": 2.0, "gamma": 1.0, "beta": 1.0, "m": 2, "q": 0.5,
              "radius": 0.45},
    ladder=(2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
    validate=lambda p: (
        _need(p["p"] > p["gamma"] * p["beta"], "the bound needs p > gamma*beta"),
        _integrable_weight(p),
    ),
    min_spacing=2.0 ** -9,
    check_step=_fs_local_step,
)
def _run_fs_local(params, h, seed):
    """Weighted bound of an Lp mass by the interpolation of the full maximal
    function against the level-floored sharp plus capped maximal combination."""
    p, gamma, beta, m = (params[k] for k in ("p", "gamma", "beta", "m"))
    filt = full_space(2, 0, _dyadic_level(h), (0.0, 0.0), (1.0, 1.0))
    shape = {"center": (0.5, 0.5), "radius": params["radius"]}
    mf = manufactured("bump", 2, **shape)
    w = PowerX1(params["q"], axis=0)
    # each integrand is formed, and its array dropped, as soon as it exists
    thickness = beta_type_constant(w, beta, filt)
    u = filt.sample(mf.u)
    _refuse_vacuous(u.values, "bump", shape, h)
    mass = cell_masses(w, filt)
    lhs = _integral(np.abs(u.values) ** p, mass)
    i_term = _integral(dyadic_maximal(u).values ** p, mass)
    sharp = dyadic_sharp(u, gamma, m).values
    sharp = sharp + dyadic_maximal(filt.field(np.abs(u.values) ** gamma), m).values ** (1.0 / gamma)
    j_term = _integral(sharp ** p, mass)
    gb = gamma * beta
    rhs = i_term ** ((p - gb) / p) * j_term ** (gb / p)
    coarse = float(level_means(abs(u), filt.n_min).max())
    notes = {
        "coarsest_average": coarse,
        "beta_type_constant": thickness,
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
    b, cap = p["pair_budget"], 1 << 16  # pairs per radius; keeps pair arrays to tens of MB
    _need(b in range(1, cap + 1), f"pair_budget must be an integer from 1 to {cap}, got {b!r}")


def _sharp_pointwise(params, h, seed, side: float, time, e: int, amp_power: int):
    """Hessian sharp function of a bump (recipe ``side``, ``time``) by covering
    maximals of ``|F|^e`` and of the Hessian, amplified by
    ``nu ** (amp_power / gamma)``."""
    grid, u = _sampled(params["d"], h, side, "bump", time=time, radius=params["radius"])
    derivs = fd_derivatives(u)
    fv = evaluate_operator(build_operator(params), u, derivs)
    nu, mu, xi, gamma = (params[k] for k in ("nu", "mu", "xi", "gamma"))
    rho = params["r0"] / nu
    alpha = 0.5
    xip = xi / (xi - 1.0)
    family = family_for_grid(grid, radii=_osc_radii(grid, rho))

    box, d2u = derivs.box, derivs.box_d2u
    sharp = geometric_sharp(GridFunction(grid, d2u, box), family, gamma, rho,
                            pair_budget=params["pair_budget"], seed=seed)
    amp = nu ** (amp_power / gamma)
    t_f = amp * geometric_maximal(
        GridFunction(grid, power(np.abs(fv.values), e), box), family).values ** (1.0 / e)
    t_tau = np.full(grid.shape, params["tau0"] * amp)
    ed = xip * e
    t_h = (mu * amp + nu ** -alpha) * geometric_maximal(
        GridFunction(grid, power(frobenius(d2u), ed), box), family).values ** (1.0 / ed)
    return [_pointwise("sharp_pointwise", sharp.values, (t_f, t_tau, t_h),
                       {"subsampled_pairs": bool(sharp.subsampled)})]


@_register(
    id="OSC",
    defaults=_OSC_DEFAULTS,
    ladder=(0.12, 0.06, 0.03),
    validate=_osc_validate,
    min_spacing=0.01,
)
def _run_osc(params, h, seed):
    """Pointwise bound of the Hessian sharp function over small balls by
    covering maximal functions of the operator image and the Hessian itself."""
    d = params["d"]
    return _sharp_pointwise(params, h, seed, 1.5, None, e=d, amp_power=d)


@_register(
    id="OSC-P",
    defaults=_OSC_DEFAULTS,
    ladder=(0.15, 0.1, 0.05),
    validate=_osc_validate,
    min_spacing=0.02,
)
def _run_osc_p(params, h, seed):
    """Space-time twin of the Hessian sharp bound over forward cylinders, with
    the time derivative folded into the operator image."""
    d = params["d"]
    return _sharp_pointwise(params, h, seed, 1.2, (1.5, 0.7, 0.5), e=d + 1, amp_power=d + 2)


# ---------------------------------------------------------------------------
# interpolation between derivative orders through large-window maximals

@_register(
    id="INTERP",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "gamma": 0.5,
              "rho": 0.8, "p": 2.0, "q": 0.5, "sigma": 0.6,
              "geometry": "elliptic"},
    ladder=(0.125, 0.0625, 0.03125),
    validate=lambda p: (
        _need(p["p"] >= 1, "the maximal exponent needs p >= 1"),
        _need(p["geometry"] in ("elliptic", "parabolic"),
              "geometry must be elliptic or parabolic"),
        _hypotheses(dim="1", weighted="p")(p),
    ),
    min_spacing=0.01,
)
def _run_interp(params, h, seed):
    """Interpolation inequalities bounding gradients between the Hessian and the
    function through maximal functions over windows of at least a threshold
    radius, plus their weighted integral form."""
    d = params["d"]
    parabolic = params["geometry"] == "parabolic"
    grid, box, u, fv, d2, d1 = _fields(params, h, 2.0, "gaussian",
                                       time=(2.0, 1.0, 0.8) if parabolic else None,
                                       sigma=params["sigma"])
    rho, gamma, p = (params[k] for k in ("rho", "gamma", "p"))
    ed = d + 1 if parabolic else d
    # three windows at and above the threshold radius keep the covering
    # maxima representative without quadratic footprint cost
    family = family_for_grid(grid, radii=(rho, 1.42 * rho, 2.02 * rho))

    named = {"u": u, "fv": fv, "d2": d2, "d1": d1}

    @cache                                # p = ed at the defaults: 5 maxima, not 7
    def m_rho(name, e):
        f = GridFunction(grid, np.abs(named[name]) ** e, box)
        return geometric_maximal(f, family, rho=rho, mode="at_least").values

    m_u = m_rho("u", p)
    eq_a = _pointwise(
        "hessian_pointwise",
        m_rho("d2", gamma) ** (1.0 / gamma),
        (m_rho("fv", ed) ** (1.0 / ed),
         rho ** -1 * m_rho("d1", ed) ** (1.0 / ed),
         rho ** -2 * m_rho("u", ed) ** (1.0 / ed)))
    eq_b = _pointwise(
        "gradient_pointwise",
        m_rho("d1", p),
        (np.sqrt(m_rho("d2", p) * m_u), rho ** -p * m_u))

    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)
    eq_c = _gradient_interpolation("gradient_integral", p, mass, mass, d2, d1, u,
                                   rho ** p, rho ** -p)
    return [eq_c, eq_a, eq_b]


@_register(
    id="INTERP-LOCAL",
    defaults={"d": 2, "p": 2.5, "q": 0.5, "rho": 0.9, "eps": 0.5,
              "r": 0.55, "R": 0.9, "sigma": 0.5},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p", dim="1", weighted="p"),
    min_spacing=0.005,
)
def _run_interp_local(params, h, seed):
    """Localized gradient interpolation on concentric balls, with the epsilon
    split between the Hessian and zeroth-order terms, and its two-radius
    corollary."""
    # a gaussian: the samples span the grid
    grid, u = _sampled(params["d"], h, 1.0, "gaussian", sigma=params["sigma"])
    derivs = fd_derivatives(u)
    box = derivs.box
    u, d2, d1 = u.values[box], frobenius(derivs.box_d2u), euclidean(derivs.box_du)
    p, q, rho, eps, r, R = (params[k] for k in ("p", "q", "rho", "eps", "r", "R"))
    mass = NodeMasses(grid, _axis_weight(q, grid), box)[:]

    inner = _origin_mask(grid, rho / 2, box) * mass
    outer = _origin_mask(grid, rho, box) * mass
    eq_a = _gradient_interpolation("local_gradient", p, inner, outer, d2, d1, u,
                                   eps * rho ** p, eps ** -1 * rho ** -p)

    small = _origin_mask(grid, r, box) * mass
    big = _origin_mask(grid, R, box) * mass
    gap = R - r
    eq_b = _gradient_interpolation("two_radius_gradient", p, small, big, d2, d1, u,
                                   eps * gap ** p, (eps * gap) ** -p)
    return [eq_a, eq_b]


# ---------------------------------------------------------------------------
# global second-order bounds, full space

@_register(
    id="W2P-GLOBAL",
    defaults={"d": 2, "operator": "linear", "delta": 1.0, "p": 4.0,
              "q": None, "R": 1.0, "r0": 1.0, "tau0": 0.0, "radius": 0.9,
              "amplitude": 1.0},
    ladder=(0.025, 0.0125, 0.00625),
    min_spacing=1.0 / 1024,
    validate=lambda p: (
        _ELLIPTIC(p),
        _need(p["radius"] < p["R"], "the manufactured support must stay inside R"),
        _need(math.isfinite(p["amplitude"]) and p["amplitude"] != 0,
              f"amplitude must be finite and nonzero, got {p['amplitude']!r}"),
    ),
)
def _run_w2p_global(params, h, seed):
    """Global weighted Hessian bound for compactly supported inputs by the
    operator image, the function, and the oscillation-budget collar term."""
    r0 = params["r0"]
    fields = _fields(params, h, params["R"] + r0 + 0.25, "bump",
                     radius=params["radius"], amplitude=params["amplitude"])
    return [_collar_hessian("global_hessian", params, fields, r0 ** (-2 * params["p"]))]


@_register(
    id="ZEROTH-1D",
    defaults={"p": 2.0, "q": 0.5, "sigma": 0.8, "extent": 6.0},
    ladder=(0.05, 0.025, 0.0125),
    validate=_hypotheses("p", dim="1", weighted="p"),
    min_spacing=0.002,
)
def _run_zeroth_1d(params, h, seed):
    """Weighted zeroth-order bound in one dimension with unit coefficient: the
    function is controlled by the defect of the second derivative minus the
    function, from analytic derivatives."""
    p, L = params["p"], params["extent"]
    grid = _grid((-L,), (L,), h)
    mf = manufactured("gaussian", 1, sigma=params["sigma"])
    u = mf.on_grid(grid).values
    d2 = mf.derivatives(grid).box_d2u[:, 0, 0]
    mass = NodeMasses(grid, _axis_weight(params["q"], grid))[:]
    return [EquationCheck("zeroth_order", _integral(np.abs(u) ** p, mass),
                          (_integral(np.abs(d2 - u) ** p, mass),))]


_APRIORI_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0,
                     "q": None, "radius": 1.2, "extent": 2.5}


def _apriori_pair(params, fields):
    """Absorbed-defect form and gradient pair over the whole grid box."""
    p = params["p"]
    grid, box, u, fv, d2, d1 = fields
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)
    return [_absorbed("absorbed_zeroth", p, mass, d2, d1, u, fv),
            _gradient_pair(p, mass, d2, d1, fv, u)]


@_register(
    id="APRIORI",
    defaults=_APRIORI_DEFAULTS,
    ladder=(0.125, 0.0625, 0.03125),
    validate=_ELLIPTIC,
)
def _run_apriori(params, h, seed):
    """Full-space weighted a priori bounds: Hessian and gradient by operator
    image plus function, and all three orders by the absorbed defect."""
    fields = _fields(params, h, params["extent"], "bump", radius=params["radius"])
    return _apriori_pair(params, fields)


@_register(
    id="MIXED",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0, "p2": 3.0,
              "radius": 1.2, "extent": 2.5},
    ladder=(0.125, 0.0625, 0.03125),
    validate=_hypotheses("p1", "p2", plane=True),
)
def _run_mixed(params, h, seed):
    """Iterated-norm version of the absorbed a priori bound with one exponent
    per axis, innermost axis first."""
    p1, p2 = params["p1"], params["p2"]
    grid, box, u, fv, d2, d1 = _fields(params, h, params["extent"], "bump",
                                       radius=params["radius"])
    spec = MixedNormSpec(groups=((1,), (0,)), exponents=(p2, p1))
    return [_mixed_absorbed("mixed_triple", grid, box, spec, _stack(p1, d2, d1, u), u, fv)]


@_register(
    id="LOCAL-W2P",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "r": 1.0, "R": 1.5, "sigma": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _ELLIPTIC(p),
        _need(p["r"] >= p["R"] - 1, "the two-radius form needs r >= R - 1"),
    ),
)
def _run_local_w2p(params, h, seed):
    """Interior weighted Hessian and gradient bounds on concentric balls with
    the inverse-gap coefficients of the cutoff argument."""
    p, r, R = (params[k] for k in ("p", "r", "R"))
    grid, box, u, fv, d2, d1 = _fields(params, h, R + 0.2, "gaussian", sigma=params["sigma"])
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)[:]
    inner = _origin_mask(grid, r, box) * mass
    outer = _origin_mask(grid, R, box) * mass
    gap = R - r

    eq_a = _local_hessian("local_hessian", p, inner, outer, d2, d1, fv, u, gap)
    f_int = _power_integral(p, outer, fv)
    u_int = _power_integral(p, outer, u)
    eq_b = EquationCheck(
        "two_radius_hessian",
        _power_integral(p, inner, d2),
        (f_int, gap ** (-2 * p) * u_int))
    eq_c = EquationCheck(
        "two_radius_gradient",
        _power_integral(p, inner, d1),
        (gap ** p * f_int, gap ** -p * u_int))
    return [eq_a, eq_b, eq_c]


@_register(
    id="LOCAL-MIXED",
    defaults={"d": 2, "operator": "bellman", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "r": 1.0, "R": 1.4, "sigma": 0.55},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p1", "p2", plane=True),
)
def _run_local_mixed(params, h, seed):
    """Interior iterated-norm bound: Hessian and gradient on the inner ball by
    the operator image and function on the outer ball."""
    p1, p2, r, R = (params[k] for k in ("p1", "p2", "r", "R"))
    grid, box, u, fv, d2, d1 = _fields(params, h, R + 0.2, "gaussian", sigma=params["sigma"])
    inner = _origin_mask(grid, r, box)
    outer = _origin_mask(grid, R, box)
    spec = MixedNormSpec(groups=((1,), (0,)), exponents=(p2, p1))
    return [_mixed_pair("local_mixed_pair", grid, box, spec, p1, d2, d1, fv, np.abs(u),
                        inner, outer)]


# ---------------------------------------------------------------------------
# half-space bounds without boundary conditions

_HS_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0,
                "q": 0.25, "n": 0, "eps": 0.5}


def _slab_fields(params, h, wall=4.0, center=1.2, radii=(1.0, 1.6)):
    """A slab bump centred at ``center`` on the half axis [0, wall] and at 0 on
    the others, with radius ``radii[0]`` across the wall and ``radii[1]`` along it."""
    others = params["d"] - 1
    return _fields(params, h, 2.0, "slab_bump", wall, centers=(center,) + (0.0,) * others,
                   radii=(radii[0],) + (radii[1],) * others)


@_register(
    id="HS-SLAB",
    defaults=_HS_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _ELLIPTIC(p),
        _need(-1 <= p["n"] <= 3, "n must lie in [-1, 3], so that the slab [2^-n, 2^(1-n)] "
                                 f"meets the input's x_1 support (0.2, 2.2), got n = {p['n']!r}"),
    ),
    check_step=lambda p, h: _need(2.0 ** -p["n"] >= h, f"n = {p['n']}: the slab's width "
                                  f"2^-n is below ladder spacing {h}, so it may hold no node"),
)
def _run_hs_slab(params, h, seed):
    """Dyadic-slab bounds near the boundary: Hessian and gradient on a slab by
    the defect, gradient and function on the enlarged slab, plus their far-field
    versions."""
    p, n, eps = params["p"], params["n"], params["eps"]
    grid, box, u, fv, d2, d1 = _slab_fields(params, h)
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)[:]
    x1 = grid.coordinates(box)[0]

    def pair(tag, inner, outer, hess, grad):
        # ``hess`` and ``grad`` are the displayed coefficients of the rhs
        # terms after the first; each outer integral is taken once
        i2, i1, i0 = (_power_integral(p, outer, a) for a in (d2, d1, u))
        defect = _power_integral(p, outer, lambda s: fv[s] - u[s])
        return [EquationCheck(f"{tag}_hessian", _power_integral(p, inner, d2),
                              (defect, hess[0] * i1, hess[1] * i0)),
                EquationCheck(f"{tag}_gradient", _power_integral(p, inner, d1),
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
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 1.0},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (_hypotheses("p")(p), _integrable_weight(p)),
)
def _run_hs_weighted(params, h, seed):
    """Boundary-weighted second-order bound: the capped-distance factor
    multiplies the Hessian and the defect, and its inverse multiplies the
    function."""
    p, q = params["p"], params["q"]
    grid, box, u, fv, d2, d1 = _slab_fields(params, h, wall=3.0, center=1.0, radii=(0.7, 1.5))
    mass = NodeMasses(grid, _axis_weight(q, grid, HattedPowerX1), box)
    hat = _slab_hat(grid, box)
    return [EquationCheck(
        "hatted_second_order",
        _power_integral(p, mass, lambda s: hat[s] * d2[s]) + _power_integral(p, mass, d1),
        (_power_integral(p, mass, lambda s: hat[s] * np.abs(fv[s] - u[s])),
         _power_integral(p, mass, lambda s: _safe_div(np.abs(u[s]), hat[s]))))]


@_register(
    id="HS-MIXED",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "q": 1.0},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (_hypotheses("p1", "p2")(p), _integrable_weight(p)),
)
def _run_hs_mixed(params, h, seed):
    """Iterated-norm version of the boundary-weighted bound: inner norm across
    the boundary-parallel axes, outer weighted norm in the distance axis."""
    d, p1, p2, q = (params[k] for k in ("d", "p1", "p2", "q"))
    grid, box, u, fv, d2, d1 = _slab_fields(params, h, wall=3.0, center=1.0, radii=(0.7, 1.5))
    hat = _slab_hat(grid, box)
    spec = MixedNormSpec(groups=((0,), tuple(range(1, d))), exponents=(p2, p1),
                         weights=(_axis_weight(q, grid, HattedPowerX1), None))
    norm = partial(box_mixed_norm, grid, box, spec)
    return [EquationCheck("hatted_mixed", norm(hat * d2 + d1),
                          (norm(hat * np.abs(fv - u)), norm(_safe_div(np.abs(u), hat))))]


# ---------------------------------------------------------------------------
# half-space bounds with a vanishing boundary trace

@_register(
    id="HS-DIRICHLET",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "R": 1.5, "r0": 1.0, "tau0": 0.0, "input": "odd_bump"},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (
        _ELLIPTIC(p),
        _need(p["input"] in ("odd_bump", "bump"),
              f"unknown manufactured input {p['input']!r} for a boundary entry"),
    ),
)
def _run_hs_dirichlet(params, h, seed):
    """Half-space bounds for inputs vanishing on the boundary plane:
    compact-support Hessian bound with the collar term, the gradient pair, and
    the absorbed-defect form."""
    p, R = params["p"], params["R"]
    side = R + 0.1
    fields = _fields(params, h, side, params["input"], side, radius=R)
    grid, box, u, fv, d2, d1 = fields
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)
    return [_collar_hessian("support_hessian", params, fields),
            _gradient_pair(p, mass, d2, d1, fv, u),
            _absorbed("absorbed_zeroth", p, mass, d2, d1, u, fv)]


@_register(
    id="HS-DIRICHLET-MIXED",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 3.0,
              "p2": 3.0, "q": 0.25, "radius": 1.5},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p1", "p2", weighted="p2"),
)
def _run_hs_dirichlet_mixed(params, h, seed):
    """Iterated-norm boundary bound for trace-zero inputs with a capped power
    weight in the distance axis, and the plain-power scaling variant for
    translation-invariant operators."""
    d, p1, p2, q, radius = (params[k] for k in ("d", "p1", "p2", "q", "radius"))
    side = radius + 0.1
    grid, box, u, fv, d2, d1 = _fields(params, h, side, "odd_bump", side, radius=radius)
    uu = np.abs(u)
    groups = ((0,), tuple(range(1, d)))

    hat_spec = MixedNormSpec(groups=groups, exponents=(p2, p1),
                             weights=(_axis_weight(q, grid, HattedPowerX1), None))
    eq_a = _mixed_absorbed("hatted_triple", grid, box, hat_spec,
                           lambda s: d2[s] + d1[s] + uu[s], u, fv)

    plain_spec = MixedNormSpec(groups=groups, exponents=(p2, p1),
                               weights=(_axis_weight(q, grid), None))
    norm = partial(box_mixed_norm, grid, box, plain_spec)
    return [eq_a, EquationCheck("scaling_variant", norm(d2), (norm(np.abs(fv)),))]


@_register(
    id="HS-LOCAL",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p": 3.0, "q": 0.25,
              "r": 1.0, "R": 1.5, "radius": 1.8},
    ladder=(0.1, 0.05, 0.025),
    validate=_ELLIPTIC,
)
def _run_hs_local(params, h, seed):
    """Interior-to-boundary localized Hessian bound on half balls with the
    inverse-gap lower-order combination."""
    p, r, R, radius = (params[k] for k in ("p", "r", "R", "radius"))
    side = max(R, radius) + 0.2
    grid, box, u, fv, d2, d1 = _fields(params, h, side, "odd_bump", side, radius=radius)
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)[:]
    inner = _origin_mask(grid, r, box) * mass
    outer = _origin_mask(grid, R, box) * mass
    return [_local_hessian("boundary_local_hessian", p, inner, outer, d2, d1, fv, u, R - r)]


# ---------------------------------------------------------------------------
# parabolic bounds

_PARA_DEFAULTS = {"d": 2, "operator": "pucci", "delta": 0.5, "p": 4.0,
                  "q": None, "radius": 1.0, "t_center": 0.7, "t_radius": 0.6}
_PARA_COLLAR = {"R": 1.2, "r0": 1.0, "tau0": 0.0}   # of the entries with a collar term


def _para_fields(params, h, side=1.4, t_end=1.6, kind="bump", wall=None):
    """The input ``kind`` of the parameters' radius under their time profile,
    on [0, t_end] in time."""
    return _fields(params, h, side, kind, wall, (t_end, params["t_center"], params["t_radius"]),
                   radius=params["radius"])


@_register(
    id="PARA-GLOBAL",
    defaults={**_PARA_DEFAULTS, **_PARA_COLLAR},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (_PARABOLIC(p), _cylinder_support(p)),
)
def _run_para_global(params, h, seed):
    """Space-time Hessian bound for inputs supported in a forward cylinder, by
    the heat-operator image, the function, and the collar term."""
    return [_collar_hessian("parabolic_hessian", params, _para_fields(params, h))]


@_register(
    id="PARA-APRIORI",
    defaults=_PARA_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=_PARABOLIC,
)
def _run_para_apriori(params, h, seed):
    """Space-time a priori bounds on the forward half-line in time: the
    absorbed-defect form and the gradient pair."""
    return _apriori_pair(params, _para_fields(params, h))


@_register(
    id="PARA-MIXED",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p0": 4.0,
              "p1": 4.0, "p2": 4.0, "radius": 1.0, "t_center": 0.7,
              "t_radius": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p0", "p1", "p2", dim="d + 1", plane=True),
)
def _run_para_mixed(params, h, seed):
    """Iterated-norm space-time bound with one exponent per axis, innermost in
    time."""
    p0, p1, p2 = (params[k] for k in ("p0", "p1", "p2"))
    grid, box, u, fv, d2, d1 = _para_fields(params, h)
    spec = MixedNormSpec(groups=((2,), (1,), (0,)), exponents=(p2, p1, p0))
    return [_mixed_absorbed("mixed_triple", grid, box, spec, _stack(p0, d2, d1, u), u, fv)]


@_register(
    id="PARA-LOCAL-MIXED",
    defaults={"d": 2, "operator": "bellman", "delta": 0.5, "p0": 4.0,
              "p1": 4.0, "p2": 4.0, "r": 0.8, "R": 1.1, "radius": 0.9,
              "t_center": 0.3, "t_radius": 0.3},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p0", "p1", "p2", dim="d + 1", plane=True),
)
def _run_para_local_mixed(params, h, seed):
    """Iterated-norm bound on nested forward cylinders: Hessian and gradient
    inside the small cylinder by the heat-operator image and function inside the
    large one."""
    p0, p1, p2, r, R = (params[k] for k in ("p0", "p1", "p2", "r", "R"))
    grid, box, u, fv, d2, d1 = _para_fields(params, h, side=1.2, t_end=1.0)
    inner = _origin_mask(grid, r, box)
    outer = _origin_mask(grid, R, box)
    spec = MixedNormSpec(groups=((2,), (1,), (0,)), exponents=(p2, p1, p0))
    return [_mixed_pair("local_mixed_pair", grid, box, spec, p0, d2, d1, fv, np.abs(u),
                        inner, outer)]


# ---------------------------------------------------------------------------
# parabolic half-space bounds with a vanishing boundary trace

_PARA_HS_DEFAULTS = {**_PARA_DEFAULTS, "q": 0.25, "radius": 1.1}


@_register(
    id="PARA-HS",
    defaults={**_PARA_HS_DEFAULTS, **_PARA_COLLAR},
    ladder=(0.1, 0.05, 0.025),
    validate=lambda p: (_PARABOLIC(p), _cylinder_support(p)),
)
def _run_para_hs(params, h, seed):
    """Space-time boundary Hessian bound for trace-zero inputs supported in a
    forward half-cylinder."""
    fields = _para_fields(params, h, 1.3, kind="odd_bump", wall=1.3)
    return [_collar_hessian("boundary_hessian", params, fields)]


@_register(
    id="PARA-HS-FULL",
    defaults=_PARA_HS_DEFAULTS,
    ladder=(0.1, 0.05, 0.025),
    validate=_PARABOLIC,
)
def _run_para_hs_full(params, h, seed):
    """Space-time boundary bound of all three derivative orders by the absorbed
    defect for trace-zero inputs."""
    p = params["p"]
    grid, box, u, fv, d2, d1 = _para_fields(params, h, 1.3, kind="odd_bump", wall=1.3)
    mass = NodeMasses(grid, _axis_weight(params["q"], grid), box)
    return [_absorbed("boundary_absorbed", p, mass, d2, d1, u, fv)]


@_register(
    id="PARA-HS-MIXED",
    defaults={"d": 2, "operator": "pucci", "delta": 0.5, "p1": 4.0,
              "p2": 4.0, "p3": 4.0, "q": 0.25, "r": 0.9, "R": 1.2,
              "radius": 1.1, "t_center": 0.7, "t_radius": 0.6},
    ladder=(0.1, 0.05, 0.025),
    validate=_hypotheses("p1", "p2", "p3", dim="d + 1", weighted="p1", plane=True),
)
def _run_para_hs_mixed(params, h, seed):
    """Iterated-norm space-time boundary bounds for trace-zero inputs with a
    power weight in the wall distance: time-outer and space-outer cylinder forms
    plus the full triple form."""
    d, p1, p2, p3, q, r, R = (params[k] for k in ("d", "p1", "p2", "p3", "q", "r", "R"))
    grid, box, u, fv, d2, d1 = _para_fields(params, h, 1.3, kind="odd_bump", wall=1.3)
    uu = np.abs(u)
    inner = _origin_mask(grid, r, box)
    outer = _origin_mask(grid, R, box)
    space = tuple(range(1, d + 1))
    wall = _axis_weight(q, grid)

    t_outer = MixedNormSpec(groups=((0,), space), exponents=(p2, p1),
                            weights=(None, wall))
    x_outer = MixedNormSpec(groups=(space, (0,)), exponents=(p1, p2),
                            weights=(wall, None))
    triple = MixedNormSpec(groups=((0,), tuple(range(2, d + 1)), (1,)),
                           exponents=(p3, p2, p1), weights=(None, None, wall))
    return [
        _mixed_pair("cylinder_time_outer", grid, box, t_outer, p1, d2, d1, fv, uu, inner, outer),
        _mixed_pair("cylinder_space_outer", grid, box, x_outer, p2, d2, d1, fv, uu, inner, outer),
        _mixed_absorbed("weighted_triple", grid, box, triple,
                        lambda s: d2[s] + d1[s] + uu[s], u, fv)]


# ---------------------------------------------------------------------------
# documented counterexample

@_register(
    id="NEG-EXP",
    defaults={"p": 2.0, "h": 0.01},
    ladder=(1.0, 2.0, 4.0, 8.0),
    ladder_kind="window",
    expect_divergence=True,
    validate=lambda p: _need(p["p"] >= 1, "the norm exponent needs p >= 1"),
)
def _run_neg_exp(params, L, seed):
    """Unbounded exponential input whose defect vanishes identically: the
    absorbed zeroth-order bound must fail, with the empirical constant infinite
    on every window."""
    p, h = params["p"], params["h"]
    grid = _grid((0.0,), (float(L),), h)
    mf = manufactured("exp_growth", 1)
    u = mf.on_grid(grid).values
    derivs = mf.derivatives(grid)
    du, d2 = derivs.box_du[:, 0], derivs.box_d2u[:, 0, 0]
    return [_absorbed("unbounded_zeroth", p, NodeMasses(grid), np.abs(d2), np.abs(du), u, d2)]


# ---------------------------------------------------------------------------
# exact-identity suite wrapped as a catalog entry

@_register(
    id="IDENTITIES",
    defaults={"tolerance": 1e-12},
    ladder=(100.0,),
    ladder_kind="instances",
    exact_threshold=1.0,
)
def _run_identities(params, x, seed):
    """Randomized exact stopping-time identities across all three filtration
    geometries; the worst residual must sit below the tolerance."""
    rep = exact_identity_suite(seed=seed, n_instances=int(x),
                               tolerance=params["tolerance"])
    # wall-clock timing stays off the report; identical seeds must serialize
    # to identical bytes
    eq = EquationCheck(
        "exact_identities",
        rep.worst(),
        (params["tolerance"],),
        {"per_identity_max": dict(rep.max_residual),
         "failures": len(rep.failures)})
    return [eq]


ENTRY_IDS = tuple(sorted(ENTRIES))
