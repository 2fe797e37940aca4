"""Muckenhoupt weights, weighted norms, and mixed norms.

Weights are the power weight ``|x_axis|^q`` and its hatted subclass
``min(|x_axis|, 1)^q``, which differ only in their mass on ``[0, inf)``.
Masses are closed-form power integrals; whenever an integral diverges at the
degeneracy hyperplane the integrand is frozen below a declared resolution,
which models measuring the weight at a finite scale.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .calculus import Grid, GridFunction, axis0_slabs, power
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
        return _even_mass(a, b, lambda a, b: _power_mass_pos(a, b, self.q, self.resolution))


class HattedPowerX1(PowerX1):
    """Density ``min(|x_axis|, 1)^q``: the power profile saturates at 1."""

    def _mass_1d(self, a: float, b: float) -> float:
        return _even_mass(a, b, lambda a, b: _power_mass_pos(a, min(b, 1.0), self.q,
                                                             self.resolution)
                          + max(b - max(a, 1.0), 0.0))


def _conjugate(w, p: float):
    # the dual density w^(-1/(p-1)) stays inside the same family
    s = -1.0 / (p - 1.0)
    return type(w)(w.q * s, w.axis, w.resolution)


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


def _even_mass(a: float, b: float, mass_pos) -> float:
    # mass of [a, b] under an even density, from ``mass_pos`` on [0, inf):
    # split at zero, and reflect what lies left of it
    if a >= b:
        return 0.0
    if a < 0.0 < b:
        return mass_pos(0.0, -a) + mass_pos(0.0, b)
    if b <= 0.0:
        return mass_pos(-b, -a)
    return mass_pos(a, b)


# ---------------------------------------------------------------------------
# masses on filtrations and grids

def _interval_masses(w, lo, hi, res: float) -> np.ndarray:
    # w's mass of each [lo_i, hi_i] on its axis, floored at ``res`` unless w
    # declares its own resolution
    w = type(w)(w.q, w.axis, w.resolution if w.resolution is not None else res)
    return np.array([w._mass_1d(a, b) for a, b in zip(lo, hi)])


def cell_masses(w, filt: Filtration) -> np.ndarray:
    """Weight mass of every finest cell, shape ``filtration.shape``."""
    sides = filt.cell_sides(filt.n_max)
    per_axis = [np.full(n, side) for n, side in zip(filt.shape, sides)]
    edges = filt.lo[w.axis] + sides[w.axis] * np.arange(filt.shape[w.axis] + 1)
    per_axis[w.axis] = _interval_masses(w, edges[:-1], edges[1:], sides[w.axis])
    return reduce(np.multiply.outer, per_axis)


class NodeMasses:
    """Quadrature masses of the nodes of ``box`` (default: the whole grid) as
    1-D factors built once, ``w`` weighting its axis; ``masses[s]`` forms those
    of the slab ``s`` of axis 0, bit for bit the whole box's."""

    def __init__(self, grid: Grid, w=None, box: tuple[slice, ...] | None = None):
        self.factors = []
        for ax, s in enumerate(box or (slice(None),) * grid.ndim):
            # a node's mass is that of [x - h/2, x + h/2] clipped to the grid
            h, x = grid.spacing(ax), grid.axis_nodes(ax)
            lo, hi = np.maximum(x - h / 2, grid.lo[ax]), np.minimum(x + h / 2, grid.hi[ax])
            weighted = w is not None and ax == w.axis
            self.factors.append((_interval_masses(w, lo, hi, h) if weighted else hi - lo)[s])
        self.shape = tuple(map(len, self.factors))

    def __getitem__(self, s: slice) -> np.ndarray:
        return reduce(np.multiply.outer, self.factors[1:], self.factors[0][s])


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


def ap_constant(w, p: float, family: CubeFamily) -> float:
    """Sup over family cubes of (avg w) * (avg w^(-1/(p-1)))^(p-1)."""
    if not p > 1:
        raise ValueError(f"the weight class needs p > 1, got {p}")
    best = 0.0
    for lo, hi in family.cubes:
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


# ---------------------------------------------------------------------------
# thickness exponent

def beta_type_constant(w, beta: float, filt: Filtration | None = None) -> float:
    """Smallest C with  w(E)/w(Q) <= C (|E|/|Q|)^beta  over cells Q of every
    level and unions E of their finest subcells.

    For fixed |E| the extremal union collects the heaviest subcells, so the
    sup is attained on descending-prefix sums.  Along axes where the masses
    equal their first slice (all but the weight's own) every block
    repeats its part in that slice, so only that part is sorted, then each
    value repeated: the whole block's sort, bit for bit.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must lie in (0, 1], got {beta}")
    if filt is None:
        raise ValueError("the thickness constant needs a filtration argument")
    masses = cell_masses(w, filt)
    profile = masses[tuple(slice(0, 1) if (masses == masses.take([0], axis=ax)).all()
                           else slice(None) for ax in range(filt.ndim))]
    best = 0.0
    for n in filt.levels:
        factors = filt.block_factors(n)
        m = math.prod(factors)
        blocks = np.sort(cell_blocks(profile, tuple(map(min, factors, profile.shape))), axis=1)
        pref = np.cumsum(np.repeat(blocks[:, ::-1], m // blocks.shape[1], axis=1), axis=1)
        pref /= pref[:, -1:]
        pref /= (np.arange(1, m + 1) / m) ** beta
        best = max(best, float(pref.max()))
    return best


# ---------------------------------------------------------------------------
# weighted and mixed norms

def weighted_norm(f, p: float, w=None) -> float:
    """``L^p`` norm against the weight's mass; ``w=None`` is Lebesgue."""
    if not p > 0:
        raise ValueError(f"exponent must be positive, got {p}")
    if isinstance(f, DiscreteField):
        mass = cell_masses(w, f.filtration) if w is not None \
            else np.full(f.filtration.shape, f.filtration.finest_volume)
    elif isinstance(f, GridFunction):
        if f.channels:
            raise ValueError("weighted norms take scalar samples")
        mass = NodeMasses(f.grid, w, f.box)[:]
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
        if not all(p >= 1 for p in self.exponents):
            raise ValueError("mixed norms need exponents >= 1")


def box_mixed_norm(grid: Grid, box: tuple[slice, ...], spec: MixedNormSpec, values) -> float:
    """Iterated norm of scalar ``values`` on ``box``'s nodes, an array or a
    callable mapping a slab of axis 0 to the values there.  Each group's
    ``|f|^p`` times masses is reduced one slab of axis-0 layers at a time: a
    group without axis 0 each layer alone; axis 0 alone (numpy sums it layer by
    layer given two nodes a layer) from its running sum as first layer; others whole."""
    if sorted(ax for g in spec.groups for ax in g) != list(range(grid.ndim)):
        raise ValueError(f"groups {spec.groups} do not partition {grid.ndim} axes")
    arr = values
    shape = tuple(len(range(n)[s]) for n, s in zip(grid.shape, box))
    remaining = list(range(grid.ndim))
    for gi in range(len(spec.groups) - 1, -1, -1):
        p = float(spec.exponents[gi])
        w = spec.weights[gi] if spec.weights is not None else None
        if w is not None and w.axis not in spec.groups[gi]:
            raise ValueError(f"group {spec.groups[gi]} does not contain weight axis {w.axis}")
        loc = tuple(sorted(remaining.index(ax) for ax in spec.groups[gi]))
        factors = NodeMasses(grid, w, box).factors
        masses = [np.broadcast_to(factors[ax].reshape(
            [-1 if i == remaining.index(ax) else 1 for i in range(len(shape))]), shape)
            for ax in spec.groups[gi]]
        by_layer = loc[0] > 0 or (loc == (0,) and math.prod(shape[1:]) > 1)
        acc = np.empty([n for i, n in enumerate(shape) if i not in loc]) if loc[0] else None
        for s in axis0_slabs(shape) if by_layer else (slice(None),):
            tmp = power(np.abs(arr(s) if callable(arr) else arr[s]), p)
            for mass in masses:
                tmp *= mass[s]
            if loc[0]:
                acc[s] = tmp.sum(axis=loc)
            else:
                acc = tmp.sum(axis=loc) if acc is None else \
                    np.concatenate([acc[None], tmp]).sum(axis=0)
        arr = power(acc, 1.0 / p)
        shape = np.shape(arr)
        for ax in spec.groups[gi]:
            remaining.remove(ax)
    return float(arr)
