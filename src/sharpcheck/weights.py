"""Muckenhoupt weights, weighted norms, and mixed norms.

Weights come in three kinds: the power weight ``|x_axis|^q``, its hatted
variant ``min(|x_axis|, 1)^q``, and tabulated piecewise-constant densities on
a filtration.  Analytic masses are closed-form power integrals; whenever an
integral diverges at the degeneracy hyperplane the integrand is frozen below
a declared resolution, which models measuring the weight at a finite scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .calculus import Grid, GridFunction, power
from .filtration import DiscreteField, Filtration, cell_blocks


# ---------------------------------------------------------------------------
# weight kinds

@dataclass(frozen=True)
class PowerX1:
    """Density ``|x_axis|^q``; ``resolution`` floors divergent integrals."""

    q: float
    axis: int = 0
    resolution: float | None = None

    def _mass_1d(self, a: float, b: float) -> float:
        return _abs_power_mass(a, b, self.q, self.resolution)


@dataclass(frozen=True)
class HattedPowerX1:
    """Density ``min(|x_axis|, 1)^q``: the power profile saturates at 1."""

    q: float
    axis: int = 0
    resolution: float | None = None

    def _mass_1d(self, a: float, b: float) -> float:
        return _hatted_power_mass(a, b, self.q, self.resolution)


@dataclass
class TabulatedWeight:
    """Piecewise-constant density on the finest cells of a filtration."""

    filtration: Filtration
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.filtration.shape:
            raise ValueError(f"density shape {self.values.shape} does not match "
                             f"filtration {self.filtration.shape}")
        if np.any(self.values <= 0):
            raise ValueError("weight densities must be positive")


def tabulate(w, filt: Filtration) -> TabulatedWeight:
    """Sample an analytic weight at finest cell centers."""
    x = filt.cell_centers()[..., w.axis]
    if isinstance(w, PowerX1):
        dens = np.abs(x) ** w.q
    elif isinstance(w, HattedPowerX1):
        dens = np.minimum(np.abs(x), 1.0) ** w.q
    else:
        raise TypeError(f"cannot tabulate {type(w).__name__}")
    return TabulatedWeight(filt, dens)


def _conjugate(w, p: float):
    # the dual density w^(-1/(p-1)) stays inside the same family
    s = -1.0 / (p - 1.0)
    if isinstance(w, PowerX1):
        return PowerX1(w.q * s, w.axis, w.resolution)
    if isinstance(w, HattedPowerX1):
        return HattedPowerX1(w.q * s, w.axis, w.resolution)
    raise TypeError(f"no conjugate for {type(w).__name__}")


# ---------------------------------------------------------------------------
# 1-d power masses

def _power_mass_pos(a: float, b: float, q: float, res: float | None) -> float:
    # integral of x^q over [a, b] with 0 <= a < b
    if a >= b:
        return 0.0
    if q == -1.0 and a > 0:
        return float(np.log(b / a))
    if q > -1 or a > 0:
        return (b ** (q + 1) - a ** (q + 1)) / (q + 1)
    # q <= -1 with a == 0: freeze the density below the resolution scale
    if res is None:
        raise ValueError(f"integral of x^{q} touching 0 needs a resolution floor")
    h = min(res, b)
    tail = _power_mass_pos(h, b, q, None) if h < b else 0.0
    return tail + h * h ** q


def _abs_power_mass(a: float, b: float, q: float, res: float | None) -> float:
    if a >= b:
        return 0.0
    if a < 0.0 < b:
        return _power_mass_pos(0.0, -a, q, res) + _power_mass_pos(0.0, b, q, res)
    if b <= 0.0:
        return _power_mass_pos(-b, -a, q, res)
    return _power_mass_pos(a, b, q, res)


def _hatted_power_mass(a: float, b: float, q: float, res: float | None) -> float:
    if a >= b:
        return 0.0
    if a < 0.0 < b:
        return _hatted_power_mass(0.0, -a, q, res) + _hatted_power_mass(0.0, b, q, res)
    if b <= 0.0:
        a, b = -b, -a
    inner = _power_mass_pos(a, min(b, 1.0), q, res)
    outer = max(b - max(a, 1.0), 0.0)
    return inner + outer


# ---------------------------------------------------------------------------
# masses on filtrations and grids

def cell_masses(w, filt: Filtration) -> np.ndarray:
    """Weight mass of every finest cell, shape ``filtration.shape``."""
    if isinstance(w, TabulatedWeight):
        if w.filtration.spec != filt.spec:
            raise ValueError("tabulated weight lives on a different filtration")
        return w.values * filt.finest_volume
    sides = filt.spec.cell_sides(filt.spec.n_max)
    per_axis = []
    for ax, side in enumerate(sides):
        edges = filt.spec.lo[ax] + side * np.arange(filt.shape[ax] + 1)
        if ax == w.axis:
            res = w.resolution if w.resolution is not None else side
            wq = type(w)(w.q, w.axis, res)
            per_axis.append(np.array([wq._mass_1d(edges[i], edges[i + 1])
                                      for i in range(filt.shape[ax])]))
        else:
            per_axis.append(np.full(filt.shape[ax], side))
    out = per_axis[0]
    for arr in per_axis[1:]:
        out = np.multiply.outer(out, arr)
    return out


def _node_mass_1d(grid: Grid, ax: int, w=None) -> np.ndarray:
    # mass of [x - h/2, x + h/2] clipped to the box, per node
    h = grid.spacing(ax)
    x = grid.axis_nodes(ax)
    lo = np.maximum(x - h / 2, grid.lo[ax])
    hi = np.minimum(x + h / 2, grid.hi[ax])
    if w is None or ax != w.axis:
        return hi - lo
    res = w.resolution if w.resolution is not None else h
    wq = type(w)(w.q, w.axis, res)
    return np.array([wq._mass_1d(a, b) for a, b in zip(lo, hi)])


def node_masses(grid: Grid, w=None) -> np.ndarray:
    """Quadrature masses per node; ``w`` weights its declared axis."""
    if isinstance(w, TabulatedWeight):
        raise TypeError("tabulated weights pair with fields, not grid functions")
    out = _node_mass_1d(grid, 0, w)
    for ax in range(1, grid.ndim):
        out = np.multiply.outer(out, _node_mass_1d(grid, ax, w))
    return out


# ---------------------------------------------------------------------------
# Muckenhoupt functional

@dataclass(frozen=True)
class CubeFamily:
    """Axis-aligned cubes given as (lo, hi) corner pairs."""

    cubes: tuple[tuple[tuple[float, ...], tuple[float, ...]], ...]

    def __post_init__(self):
        if not self.cubes:
            raise ValueError("cube family is empty")


def cube_family(lo, hi, n_sizes: int = 4, anchors_per_axis: int = 4) -> CubeFamily:
    """Cubes of dyadically shrinking side anchored on a uniform lattice,
    keeping those fully inside the box."""
    lo = tuple(map(float, lo))
    hi = tuple(map(float, hi))
    d = len(lo)
    side0 = min(h - l for l, h in zip(lo, hi))
    cubes = []
    for j in range(n_sizes):
        side = side0 * 2.0 ** (-j)
        anchors = []
        for ax in range(d):
            span = hi[ax] - lo[ax] - side
            k = max(2, anchors_per_axis) if span > 0 else 1
            anchors.append(lo[ax] + span * np.linspace(0.0, 1.0, k))
        for corner in np.stack(np.meshgrid(*anchors, indexing="ij"), axis=-1).reshape(-1, d):
            cubes.append((tuple(corner), tuple(corner + side)))
    return CubeFamily(tuple(cubes))


def _analytic_cube_averages(w, p, lo, hi):
    vol = float(np.prod([b - a for a, b in zip(lo, hi)]))
    wmass = w._mass_1d(lo[w.axis], hi[w.axis])
    cmass = _conjugate(w, p)._mass_1d(lo[w.axis], hi[w.axis])
    cross = vol / (hi[w.axis] - lo[w.axis])
    return wmass * cross / vol, cmass * cross / vol


def _tabulated_cube_average(w: TabulatedWeight, power: float, lo, hi) -> float:
    filt = w.filtration
    sides = filt.spec.cell_sides(filt.spec.n_max)
    arr = (w.values ** power) * filt.finest_volume
    vol = 1.0
    for ax, side in enumerate(sides):
        edges = filt.spec.lo[ax] + side * np.arange(filt.shape[ax] + 1)
        frac = (np.minimum(edges[1:], hi[ax]) - np.maximum(edges[:-1], lo[ax])).clip(0.0) / side
        arr = np.tensordot(frac, arr, axes=(0, 0))
        vol *= hi[ax] - lo[ax]
    return float(arr) / vol


def ap_constant(w, p: float, family: CubeFamily) -> float:
    """Sup over family cubes of (avg w) * (avg w^(-1/(p-1)))^(p-1)."""
    if p <= 1:
        raise ValueError(f"the weight class needs p > 1, got {p}")
    best = 0.0
    for lo, hi in family.cubes:
        if isinstance(w, TabulatedWeight):
            aw = _tabulated_cube_average(w, 1.0, lo, hi)
            ac = _tabulated_cube_average(w, -1.0 / (p - 1.0), lo, hi)
        else:
            aw, ac = _analytic_cube_averages(w, p, lo, hi)
        best = max(best, aw * ac ** (p - 1.0))
    return best


def ap_divergence_ladder(w, p: float, d: int, base_side: float = 1.0,
                         n_steps: int = 6) -> tuple[float, ...]:
    """Functional on origin-anchored cubes of doubling side, at the weight's
    fixed resolution; unbounded growth flags the exponent as outside the
    admissible range."""
    if w.resolution is None:
        raise ValueError("divergence ladder needs an explicit resolution")
    out = []
    for j in range(n_steps):
        side = base_side * 2.0 ** j
        lo = tuple(0.0 if ax == w.axis else -side / 2 for ax in range(d))
        hi = tuple(side if ax == w.axis else side / 2 for ax in range(d))
        out.append(ap_constant(w, p, CubeFamily(((lo, hi),))))
    return tuple(out)


def even_extension(w, axis: int = 0):
    """Mirror a weight on ``{x_axis >= 0}`` across the hyperplane."""
    if isinstance(w, (PowerX1, HattedPowerX1)):
        return w
    filt = w.filtration
    ax = axis
    spec = filt.spec
    if spec.lo[ax] != 0.0:
        raise ValueError("even extension needs the box to start at 0 on the mirror axis")
    lo = list(spec.lo)
    lo[ax] = -spec.hi[ax]
    half_axes = tuple(a for a in spec.half_axes if a != ax)
    geometry = spec.geometry if ax not in spec.half_axes else "product"
    mirrored = replace(spec, geometry=geometry, lo=tuple(lo), half_axes=half_axes)
    values = np.concatenate([np.flip(w.values, axis=ax), w.values], axis=ax)
    return TabulatedWeight(Filtration(mirrored), values)


# ---------------------------------------------------------------------------
# thickness exponent

def beta_type_constant(w, beta: float, filt: Filtration | None = None) -> float:
    """Smallest C with  w(E)/w(Q) <= C (|E|/|Q|)^beta  over cells Q of every
    level and unions E of their finest subcells.

    For fixed |E| the extremal union collects the heaviest subcells, so the
    sup is attained on descending-prefix sums.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if isinstance(w, TabulatedWeight):
        filt = w.filtration
    elif filt is None:
        raise ValueError("analytic weights need a filtration argument")
    masses = cell_masses(w, filt)
    best = 0.0
    for n in filt.levels:
        blocks = cell_blocks(masses, filt, n)
        m = blocks.shape[1]
        pref = np.cumsum(np.sort(blocks, axis=1)[:, ::-1], axis=1)
        ratio = pref / pref[:, -1:]
        frac = (np.arange(1, m + 1) / m) ** beta
        best = max(best, float((ratio / frac).max()))
    return best


# ---------------------------------------------------------------------------
# weighted and mixed norms

def weighted_norm(f, p: float, w=None) -> float:
    """``L^p`` norm against the weight's mass; ``w=None`` is Lebesgue."""
    if p <= 0:
        raise ValueError(f"exponent must be positive, got {p}")
    if isinstance(f, DiscreteField):
        mass = cell_masses(w, f.filtration) if w is not None \
            else np.full(f.filtration.shape, f.filtration.finest_volume)
    elif isinstance(f, GridFunction):
        if f.channels:
            raise ValueError("weighted norms take scalar samples")
        mass = node_masses(f.grid, w)
    else:
        raise TypeError(f"unsupported sample type {type(f).__name__}")
    return float(((np.abs(f.values) ** p) * mass).sum() ** (1.0 / p))


@dataclass(frozen=True)
class MixedNormSpec:
    """Iterated norm: groups are listed outermost first and evaluated
    innermost first; each group may carry a weight on one of its axes."""

    groups: tuple[tuple[int, ...], ...]
    exponents: tuple[float, ...]
    weights: tuple[object, ...] | None = None

    def __post_init__(self):
        if len(self.groups) != len(self.exponents):
            raise ValueError("one exponent per axis group")
        if self.weights is not None and len(self.weights) != len(self.groups):
            raise ValueError("one weight slot per axis group")
        flat = [ax for g in self.groups for ax in g]
        if len(set(flat)) != len(flat):
            raise ValueError("axis groups overlap")
        if any(p < 1 for p in self.exponents):
            raise ValueError("mixed norms need exponents >= 1")


def mixed_norm(f: GridFunction, spec: MixedNormSpec) -> float:
    if f.channels:
        raise ValueError("mixed norms take scalar samples")
    grid = f.grid
    flat = [ax for g in spec.groups for ax in g]
    if sorted(flat) != list(range(grid.ndim)):
        raise ValueError(f"groups {spec.groups} do not partition {grid.ndim} axes")
    arr = np.abs(f.values)
    remaining = list(range(grid.ndim))
    for gi in range(len(spec.groups) - 1, -1, -1):
        p = float(spec.exponents[gi])
        w = spec.weights[gi] if spec.weights is not None else None
        if w is not None and w.axis not in spec.groups[gi]:
            raise ValueError(f"group {spec.groups[gi]} does not contain weight axis {w.axis}")
        tmp = power(arr, p)
        loc = sorted(remaining.index(ax) for ax in spec.groups[gi])
        for ax in spec.groups[gi]:
            mass = _node_mass_1d(grid, ax, w)
            shape = [1] * tmp.ndim
            shape[remaining.index(ax)] = mass.size
            tmp *= mass.reshape(shape)
        arr = power(tmp.sum(axis=tuple(loc)), 1.0 / p)
        for ax in spec.groups[gi]:
            remaining.remove(ax)
    return float(arr)
