"""Maximal and mean-oscillation operators, dyadic and geometric.

Dyadic variants act on piecewise-constant fields through exact block
averages, maxed over levels coarse to fine.  Geometric variants act on grid
functions: shape averages are node-counting quadratures over balls, half balls, forward-in-time cylinders
``[t, t + r^2) x B_r`` and half cylinders, with shapes clipped to the grid
box.  One chord reduction serves both window sums and covering maxima: each
mask row is a chord about the middle column, a running sum or max grows
chord by chord, and a cylinder's time interval is one running op along time
first.  Every term is an on-grid value, so a window sum of a nonnegative
field keeps its rounding error relative to the local sum, node counts are
exact integers, and the sup over shapes containing a node is exact.  A
family keeps, per grid and radius, the mask, the node counts and the
reduction plans of the mask and its reflection, so the calls that share it
check and plan each window once.  Sharp pair sums visit the offset
differences of all radii's pairs once each: every difference writes its
field once, over its whole overlap, into one zeroed buffer on a padded grid,
and each pair feeding a radius's padded accumulator is one flat slice add.
Sampled pairs are swapped to a lexicographically positive difference, so
``delta`` and ``-delta`` share one field; channels sum in a fixed order.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import Grid, GridFunction
from .filtration import DiscreteField, _block_expand, cell_blocks, level_means

# Cells per pairwise chunk in the generic double-average path.
_PAIR_CHUNK = 1 << 22
# Pair-node terms (destination nodes summed over pair windows) that one
# geometric_sharp call may add; OSC-P's finest default step takes 4.1e8.
_MAX_PAIR_TERMS = 2 ** 31


# ---------------------------------------------------------------------------
# dyadic operators

def dyadic_maximal(f: DiscreteField, m: int | None = None) -> DiscreteField:
    """Pointwise sup of ``|f|`` cell averages over levels ``<= m``
    (the whole materialized range when ``m`` is absent), per instance of a
    batched ``f``."""
    filt = f.filtration
    top = filt.n_max if m is None else min(m, filt.n_max)
    if top < filt.n_min:
        raise ValueError(f"level cap {m} lies below the coarsest level {filt.n_min}")
    absf = abs(f)
    return DiscreteField(filt, _coarse_to_fine(filt, filt.n_min, top, -np.inf,
                                               lambda n: level_means(absf, n)))


def _coarse_to_fine(filt, start: int, top: int, empty: float, level) -> np.ndarray:
    """Read-only finest-grid max of ``empty`` and the cell values ``level(n)``
    over levels ``start..top``, taken at each level's resolution: each finest
    cell sees a finest-grid loop's operands in its order, so the same bits."""
    step = tuple(2 ** k for k in filt.k)
    out = None
    for n in range(start, top + 1):
        values = level(n)
        out = np.full(values.shape, empty) if out is None else _block_expand(out, step)
        np.maximum(out, values, out=out)
    out = _block_expand(out, filt.block_factors(top))
    out.flags.writeable = False
    return out


def _pair_mean_sorted(blocks: np.ndarray) -> np.ndarray:
    # mean over ordered value pairs of |v_i - v_j|, via the sorted identity
    m = blocks.shape[1]
    v = np.sort(blocks, axis=1)
    coeff = 2.0 * np.arange(m) - (m - 1)
    return 2.0 * (v * coeff).sum(axis=1) / (m * m)


def _pair_mean_power(blocks: np.ndarray, gamma: float) -> np.ndarray:
    m = blocks.shape[1]
    out = np.empty(blocks.shape[0])
    step = max(1, _PAIR_CHUNK // (m * m))
    for a in range(0, blocks.shape[0], step):
        part = blocks[a:a + step]
        diff = np.abs(part[:, :, None] - part[:, None, :]) ** gamma
        out[a:a + step] = diff.sum(axis=(1, 2)) / (m * m)
    return out


def dyadic_sharp(u: DiscreteField, gamma: float, m: int) -> DiscreteField:
    """Largest mean oscillation over cells of levels ``>= m`` containing the
    point: per cell, the double average of ``|u(y) - u(z)|**gamma`` over its
    finest subcells, raised to ``1/gamma``."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    filt = u.filtration
    if m > filt.n_max:
        raise ValueError(f"level floor {m} lies above the finest level {filt.n_max}")

    def level(n):
        factors = filt.block_factors(n)
        blocks = cell_blocks(u.values, factors)
        per_cell = (_pair_mean_sorted(blocks) if gamma == 1.0
                    else _pair_mean_power(blocks, gamma) ** (1.0 / gamma))
        return per_cell.reshape([s // f for s, f in zip(filt.shape, factors)])

    return DiscreteField(filt, _coarse_to_fine(filt, max(m, filt.n_min),
                                               filt.n_max, 0.0, level))


# ---------------------------------------------------------------------------
# geometric shape families

_SHAPES = ("ball", "half_ball", "cylinder", "half_cylinder")


@dataclass(frozen=True)
class GeometricFamily:
    """Shapes centered at every grid node with radii from a finite ladder.

    The operators keep each radius's window mask and node counts on the
    family, per grid, so the calls that share a family count once."""

    shape: str
    radii: tuple[float, ...]
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not self.radii or not all(r > 0 for r in self.radii):
            raise ValueError("radius ladder must be nonempty and positive")


def family_for_grid(grid: Grid, radii) -> GeometricFamily:
    if grid.time_axis:
        shape = "half_cylinder" if grid.half_axis is not None else "cylinder"
    else:
        shape = "half_ball" if grid.half_axis is not None else "ball"
    return GeometricFamily(shape, tuple(radii))


def _shape_offsets(grid: Grid, family: GeometricFamily, r: float) -> np.ndarray:
    """Boolean window mask of index offsets, odd-sized and centered; for
    cylinders the time support sits on the forward side only."""
    cyl = family.shape in ("cylinder", "half_cylinder")
    if cyl and not grid.time_axis:
        raise ValueError("cylinder shapes need a time axis")
    if not cyl and grid.time_axis:
        raise ValueError("ball shapes cannot run on a time grid")
    sp = grid.space_axes
    ks = [int(np.floor(r / grid.spacing(ax) * (1 - 1e-12))) for ax in sp]
    if cyl:
        kt = int(np.ceil(r * r / grid.spacing(0) * (1 - 1e-12))) - 1
        kt = max(kt, 0)
        dims = [2 * kt + 1] + [2 * k + 1 for k in ks]
        grids = np.meshgrid(*(np.arange(-(s // 2), s // 2 + 1) for s in dims), indexing="ij")
        off_t = grids[0] * grid.spacing(0)
        space2 = sum((grids[1 + i] * grid.spacing(ax)) ** 2 for i, ax in enumerate(sp))
        mask = (space2 < r * r) & (off_t >= 0) & (off_t < r * r)
    else:
        dims = [2 * k + 1 for k in ks]
        grids = np.meshgrid(*(np.arange(-(s // 2), s // 2 + 1) for s in dims), indexing="ij")
        space2 = sum((grids[i] * grid.spacing(ax)) ** 2 for i, ax in enumerate(sp))
        mask = space2 < r * r
    return mask


def _window(grid: Grid, family: GeometricFamily, r: float):
    """Read-only mask and node counts of the shapes of radius ``r`` on
    ``grid``, computed once per family, with the reduction plans of the mask
    (window sums) and of the reflected mask (covering maxima: the max of
    ``per_center[c]`` over the centers ``c`` whose shape contains ``x`` has
    ``c - x`` ranging over the reflected mask)."""
    window = family._windows.get((grid, r))
    if window is None:
        mask = _shape_offsets(grid, family, r)
        plan = _reduce_plan(mask, grid.time_axis, grid.shape)
        counts = _reduce(np.ones(grid.shape), plan, np.add)
        mask.flags.writeable = counts.flags.writeable = False
        window = family._windows[(grid, r)] = (
            mask, counts, plan, _reduce_plan(np.flip(mask), grid.time_axis, grid.shape))
    return window


class _ReducePlan(NamedTuple):
    steps: list | None    # time offsets that reach the grid, on a time grid
    widest: int           # widest chord half-width that reaches the grid
    pads: np.ndarray      # output padding over the leading axes
    rows: list            # per chord half-width, the output slices of its rows


def _reduce_plan(mask: np.ndarray, time_axis: bool, shape) -> _ReducePlan:
    """Check that ``mask`` has the chord form ``_reduce`` takes and plan its
    reduction over a grid of ``shape``.

    Every mask row along the last axis is one chord ``[-a, a]`` about the
    middle column, or empty; on a time grid the mask is a time interval times
    a footprint.  The plan keeps the interval's steps, the widest chord and,
    per half-width ``a``, the slices of the padded output that its rows feed.
    """
    foot = mask.any(axis=0, keepdims=True) if time_axis else mask
    half = foot.sum(-1) // 2
    form = (np.abs(np.arange(mask.shape[-1]) - mask.shape[-1] // 2) <= half[..., None]) \
        & foot.any(-1, keepdims=True)
    steps = None
    if time_axis:
        on = mask.any(axis=tuple(range(1, mask.ndim)))
        hull = np.logical_or.accumulate(on) & np.logical_or.accumulate(on[::-1])[::-1]
        form = form & hull.reshape((-1,) + (1,) * (mask.ndim - 1))
        steps = [k for k in (np.flatnonzero(on) - mask.shape[0] // 2).tolist()
                 if abs(k) < shape[0]]
    if not np.array_equal(mask, form):
        raise ValueError("window mask must be a chord about the middle column in every row"
                         + (", times one time interval" if time_axis else ""))
    lead, n = tuple(shape[:-1]), shape[-1]
    widest = min(int(half.max()), n - 1)
    pads = np.minimum(np.array(foot.shape[:-1]) // 2, np.array(lead, dtype=int) - 1)
    offsets = np.argwhere(foot.any(-1)) - np.array(foot.shape[:-1]) // 2
    reach = (np.abs(offsets) < lead).all(axis=1)
    rows: list[list] = [[] for _ in range(widest + 1)]
    for a, start in zip(np.minimum(half[foot.any(-1)], widest)[reach].tolist(),
                        (pads - offsets[reach]).tolist()):
        rows[a].append(tuple(map(slice, start, np.add(start, lead))))
    return _ReducePlan(steps, widest, pads, rows)


def _reduce(values: np.ndarray, plan: _ReducePlan, op) -> np.ndarray:
    """``out[c] = op`` over the planned mask's offsets ``o`` of
    ``values[c + o]``, on-grid terms only; ``op`` is ``np.add`` or
    ``np.maximum``.

    One running array over the padded values grows from ``a = 0`` to the
    widest chord by two slice-ops per step, and each row of half-width ``a``
    is one slice-op into an output padded over the leading axes, so every
    term is an on-grid value and a nonnegative input keeps its rounding error
    relative to the local sum.  On a time grid the interval is one running op
    along axis 0 first.
    """
    empty = 0.0 if op is np.add else -np.inf
    if plan.steps is not None:
        n = len(values)
        padded = np.full((3 * n - 2,) + values.shape[1:], empty)
        padded[n - 1:2 * n - 1] = values
        values = np.full(values.shape, empty)
        for k in plan.steps:
            op(values, padded[n - 1 + k:2 * n - 1 + k], out=values)
    lead, n = values.shape[:-1], values.shape[-1]
    widest, pads = plan.widest, plan.pads
    # rows of n + widest columns after a lead of widest: a flat shift by at
    # most widest moves a grid column only into its own row or a pad gap
    padded = np.full(widest + math.prod(lead) * (n + widest), empty)
    padded[widest:].reshape(lead + (-1,))[..., :n] = values
    running = padded.copy()
    run, size = running[widest:].reshape(lead + (-1,)), padded.size
    out = np.full(tuple(np.add(lead, 2 * pads)) + (n + widest,), empty)
    for a, dsts in enumerate(plan.rows):
        if a:
            op(running[a:size - a], padded[:size - 2 * a], out=running[a:size - a])
            op(running[a:size - a], padded[2 * a:], out=running[a:size - a])
        for dst in dsts:
            view = out[dst]
            op(view, run, out=view)
    return out[tuple(map(slice, pads, np.add(pads, lead))) + (slice(n),)]


def _radius_subset(family: GeometricFamily, rho: float | None, mode: str) -> list[float]:
    if mode == "all":
        radii = list(family.radii)
    elif mode == "at_least":
        if rho is None:
            raise ValueError("mode 'at_least' needs a radius floor")
        radii = [r for r in family.radii if r >= rho * (1 - 1e-12)]
    elif mode == "at_most":
        if rho is None:
            raise ValueError("mode 'at_most' needs a radius cap")
        radii = [r for r in family.radii if r <= rho * (1 + 1e-12)]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    if not radii:
        raise ValueError(f"no family radii pass the {mode} filter at {rho}")
    return radii


def _whole_grid_values(h: GridFunction, what: str) -> np.ndarray:
    """``h.values``, refused unless they sample the whole grid."""
    box = h.values.shape[:h.grid.ndim]
    if box != h.grid.shape:
        raise ValueError(f"{what} needs whole-grid samples of shape {h.grid.shape}, got a field "
                         f"on a support box of shape {box}; pass GridFunction(grid, f.padded())")
    return h.values


def geometric_maximal(h: GridFunction, family: GeometricFamily, rho: float | None = None,
                      mode: str = "all") -> GridFunction:
    """Sup over shapes containing the node of the node-counting average of
    ``|h|``, for ``h`` sampled on the whole grid; ``mode='at_least'`` keeps
    only radii ``>= rho``."""
    if h.channels:
        raise ValueError("geometric maximal expects a scalar grid function")
    out = np.full(h.grid.shape, -np.inf)
    absv = np.abs(_whole_grid_values(h, "geometric maximal"))
    for r in _radius_subset(family, rho, mode):
        _, counts, plan, cover = _window(h.grid, family, r)
        np.maximum(out, _reduce(_reduce(absv, plan, np.add) / counts, cover, np.maximum),
                   out=out)
    return GridFunction(h.grid, out)


def _pair_windows(shape, a, b) -> np.ndarray:
    # int32 rows [b - a, lo, hi, lo + m, hi + m] per offset pair (a, b),
    # m = min(a, b), in a stable lexicographic sort by b - a: x in [lo, hi) has
    # x + a and x + b on the grid, and x + a is index x + m of the field of
    # b - a, which starts at y = max(0, a - b); pairs with no x drop.
    low = np.minimum(a, b)
    lo, hi = np.maximum(-low, 0), np.array(shape) - np.maximum(np.maximum(a, b), 0)
    rows = np.concatenate([b - a, lo, hi, lo + low, hi + low], axis=1)[(hi > lo).all(axis=1)]
    return rows[np.lexsort(rows[:, len(shape) - 1::-1].T)].astype(np.int32)


def _difference_field(vals: np.ndarray, delta, gamma: float) -> np.ndarray:
    """``|h(y) - h(y + delta)|**gamma`` at every ``y`` with both nodes on the
    grid, for ``vals`` of shape grid + (channels,), in the entrywise-l2
    metric; squared channels sum by halving, ``i + ceil(C/2)`` into ``i``,
    in an order that does not depend on numpy's build or CPU."""
    y = tuple(slice(max(0, -e), n - max(0, e)) for e, n in zip(delta, vals.shape))
    diff = vals[y] - vals[tuple(slice(s.start + e, s.stop + e) for s, e in zip(y, delta))]
    if diff.shape[-1] == 1:
        return np.abs(diff[..., 0]) ** gamma
    sq = list(np.moveaxis(np.multiply(diff, diff, out=diff), -1, 0))
    while len(sq) > 1:
        k = -(-len(sq) // 2)
        sq = [sq[i] + sq[i + k] for i in range(len(sq) - k)] + sq[len(sq) - k:k]
    return np.sqrt(sq[0]) ** gamma


def _box_counts(shape, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per node, the number of boxes ``[lo[i], hi[i])`` that contain it, as
    exact float64 integers: a difference array of the box indicators, with
    each box's signed corners added once, summed by ``cumsum`` per axis."""
    marks = np.zeros(tuple(n + 1 for n in shape), dtype=np.int64)
    for corner in itertools.product((0, 1), repeat=len(shape)):
        at = tuple((hi if c else lo)[:, ax] for ax, c in enumerate(corner))
        np.add.at(marks, at, -1 if sum(corner) % 2 else 1)
    for ax in range(len(shape)):
        np.cumsum(marks, axis=ax, out=marks)
    return marks[tuple(map(slice, shape))].astype(np.float64)


def _padded_layout(shape, pad) -> tuple[tuple[int, ...], np.ndarray]:
    """Shape and flat element strides of a grid of ``shape`` padded by
    ``pad[j]`` nodes on both sides of axis ``j``; refused when a flat index
    into it would not fit int32."""
    padded = tuple(int(n) + 2 * int(p) for n, p in zip(shape, pad))
    if math.prod(padded) > np.iinfo(np.int32).max:
        raise ValueError(f"geometric sharp's padded grid {padded} has over 2**31 - 1 nodes")
    return padded, np.cumprod((1,) + padded[:0:-1])[::-1]


def geometric_sharp(h: GridFunction, family: GeometricFamily, gamma: float,
                    rho: float, pair_budget: int = 4096, seed: int = 0) -> GridFunction:
    """Sup over shapes of radius ``<= rho`` containing the node of the double
    average of ``|h(y) - h(z)|**gamma`` over shape nodes, to the ``1/gamma``,
    for ``h`` sampled on the whole grid.

    Exact over all node pairs while the unordered pair count stays within
    ``pair_budget``; beyond that a seeded uniform pair sample is used.  Vector
    or matrix channels are compared in the entrywise-l2 metric.

    Accumulators and the field buffer share one padded layout: the grid
    padded on each axis by the largest kept window's half-width, clamped to
    the axis length minus one (no pair with an on-grid center reaches
    further).  There a pair with offsets ``(a, b)`` and center box
    ``[lo, hi)`` is one flat slice add ``acc[s:e] += field[s+o:e+o]``, with
    ``s`` and ``e - 1`` the flat indices of ``lo`` and ``hi - 1`` and ``o``
    that of ``a``.  Every center in the box gets its term; since ``|a_j|`` is
    at most the pad, no shift moves a grid node into another row, so every
    other grid node reads the zeroed buffer and gets ``+0.0``, which leaves
    its nonnegative sum's bits alone.

    First every radius draws its pairs, in radius order.  A sampled pair
    ``(a, b)`` with ``b - a <lex 0`` is swapped (exact pairs never are): the
    channel differences only change sign, so its term keeps its bits, and
    its center box is symmetric, so only the order of a center's adds moves.
    Each radius turns its ``_pair_windows`` rows, sorted stably by offset
    difference ``delta``, into int32 plans ``(s, e, s + o, e + o)`` indexed
    by ``delta``; sampled radii count their pairs per center in one exact
    pass (``_box_counts``).  A call whose pair-node terms exceed
    ``_MAX_PAIR_TERMS`` is refused here, before any field.  Then one pass
    visits the distinct ``delta`` in sorted order: it writes the field
    ``|h(y) - h(y + delta)|**gamma``, channels summed in
    ``_difference_field``'s halving order, into its region of the buffer,
    adds every radius's slices in plan order, so each center sums its terms
    in the order of a per-pair loop, and zeroes the region again.  Held at
    once: plans, one padded field, padded accumulators, and the pair counts
    of sampled radii.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if pair_budget < 1:
        raise ValueError("pair budget must be positive")
    grid = h.grid
    d = grid.ndim
    vals = _whole_grid_values(h, "geometric sharp").reshape(grid.shape + (-1,))
    kept = [(r, *_window(grid, family, r)) for r in _radius_subset(family, rho, "at_most")]
    pad = np.minimum(np.max([np.array(mask.shape) // 2 for _, mask, *_ in kept], axis=0),
                     np.array(grid.shape) - 1)
    padded, strides = _padded_layout(grid.shape, pad)
    rng = np.random.default_rng(seed)
    subsampled = False
    plans, cnts, terms, groups = [], [], [], {}
    for r, mask, counts, _, _ in kept:
        offsets = np.argwhere(mask) - (np.array(mask.shape) - 1) // 2
        m = len(offsets)
        exact = m * (m - 1) // 2 <= pair_budget
        if exact:
            ii, jj = np.triu_indices(m, 1)
        else:
            # uniform ordered pairs with replacement; the diagonal is excluded
            # by rejection and restored through the nondiag/ordered factor
            picks, need = [], pair_budget
            while need > 0:
                ii = rng.integers(0, m, size=2 * need)
                jj = rng.integers(0, m, size=2 * need)
                keep = ii != jj
                take = min(need, int(keep.sum()))
                picks.append(np.stack([ii[keep][:take], jj[keep][:take]], axis=1))
                need -= take
            ii, jj = np.concatenate(picks).T
            # offsets are sorted, so o_j - o_i >lex 0 iff j > i
            ii, jj = np.minimum(ii, jj), np.maximum(ii, jj)
            subsampled = True
        rows = _pair_windows(grid.shape, offsets[ii], offsets[jj])
        delta, lo, hi = rows[:, :d], rows[:, d:2 * d], rows[:, 2 * d:3 * d]
        new = np.ones(len(rows), dtype=bool)
        new[1:] = (delta[1:] != delta[:-1]).any(axis=1)
        starts = np.flatnonzero(new).tolist()
        for a, b in zip(starts, starts[1:] + [len(rows)]):
            groups.setdefault(tuple(delta[a].tolist()), []).append((len(plans), a, b))
        terms.append(int(np.prod(hi - lo, axis=1, dtype=np.int64).sum()))
        cnts.append(None if exact else _box_counts(grid.shape, lo, hi))
        # flat bounds of each box and the shift flat(a), a being the pair's
        # first offset: rows hold lo + min(a, b), and min(a, b) = a + min(0, delta)
        start = (lo + pad) @ strides
        stop = (hi - 1 + pad) @ strides + 1
        shift = (rows[:, 3 * d:4 * d] - lo - np.minimum(delta, 0)) @ strides
        plans.append(np.stack([start, stop, start + shift, stop + shift], axis=1)
                     .astype(np.int32))
    if sum(terms) > _MAX_PAIR_TERMS:
        worst = int(np.argmax(terms))
        spacing = ", ".join(f"{grid.spacing(ax):.3g}" for ax in range(d))
        raise ValueError(
            f"geometric sharp would add {sum(terms):.3g} pair-node terms, over the limit of "
            f"{_MAX_PAIR_TERMS:.3g}; radius {kept[worst][0]:g} alone takes {terms[worst]:.3g} "
            f"at grid spacing ({spacing}) with pair_budget {pair_budget}")
    size = math.prod(padded)
    accs = [np.zeros(size) for _ in kept]
    field = np.zeros(size)
    region = field.reshape(padded)
    for delta in sorted(groups):
        at = tuple(slice(p + max(0, -c), p + n - max(0, c))
                   for p, c, n in zip(pad.tolist(), delta, grid.shape))
        region[at] = _difference_field(vals, delta, gamma)
        for k, a, b in groups[delta]:
            acc = accs[k]
            for s, e, t, u in plans[k][a:b].tolist():
                view = acc[s:e]
                np.add(view, field[t:u], out=view)
        region[at] = 0.0
    inner = tuple(map(slice, pad, np.add(pad, grid.shape)))
    out = np.full(grid.shape, -np.inf)
    for (_, _, counts, _, cover), cnt, acc in zip(kept, cnts, accs):
        cnt = counts * (counts - 1) / 2 if cnt is None else cnt
        ordered = counts * counts
        nondiag = ordered - counts
        acc = acc.reshape(padded)[inner]
        with np.errstate(invalid="ignore", divide="ignore"):
            per_center = np.where(cnt > 0, acc / np.maximum(cnt, 1.0) * nondiag / ordered, 0.0)
        np.maximum(out, _reduce(per_center ** (1.0 / gamma), cover, np.maximum), out=out)
    result = GridFunction(grid, out)
    result.subsampled = subsampled
    return result
