"""Maximal and mean-oscillation operators, dyadic and geometric.

Dyadic variants act on piecewise-constant fields through exact block averages,
maxed over levels coarse to fine.  Geometric variants act on grid functions
(one held on a support box is padded with +0.0, so it reads as its whole-grid
twin): shape averages are node-counting quadratures over balls and
forward-in-time cylinders ``[t, t + r^2) x B_r``, with shapes clipped to the
grid box, so on a box whose first space axis starts at 0 they are the half
balls and half cylinders of a half space.  One chord reduction serves both window sums and
covering maxima: each mask row is a chord about the middle column, a running
sum or max grows chord by chord, and a cylinder's time interval is one running
op along time first.  Every term is an on-grid value, so a window sum of a
nonnegative field keeps its rounding error relative to the local sum, node
counts are exact integers, and the sup over shapes containing a node is exact.
A family keeps, per grid and radius, the mask, its node counts (summed
footprint row by footprint row, no reduction) and its one reduction plan, so
the calls that share it check and plan each window once; a covering max
reduces the reflected field with that plan and reflects the result back.
Sharp pair sums visit the offset differences of all radii's pairs once each:
every difference writes its field once, over its whole overlap and in place,
into one zeroed buffer whose rows each end in one gap, and each pair feeding
a radius's accumulator in that layout is one flat slice add.  Sampled pairs
are swapped to a lexicographically positive difference, so ``delta`` and
``-delta`` share one field; channels sum in a fixed order, and a symmetric
2x2 field is read on its three distinct channels with the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .calculus import Grid, GridFunction, in_shape
from .filtration import DiscreteField, _block_expand, cell_blocks, level_means

# Cells per pairwise chunk in the generic double-average path.
_PAIR_CHUNK = 1 << 22
# Pair-node terms (destination nodes summed over pair windows) that one
# geometric_sharp call may add; OSC-P's finest default step takes 4.1e8.
_MAX_PAIR_TERMS = 2 ** 31
# Pairs of one cell that dyadic_sharp forms as arrays below gamma = 1: three
# float64 copies are alive at once, 1.5 GiB at this cap, a fifth of a 7 GB host;
# all levels' pairs take _MAX_PAIR_TERMS, 15 s at 7 ns a pair on that host.
_MAX_CELL_PAIRS = 2 ** 26


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
    over levels ``start..top`` (none: ``empty``), taken at each level's resolution:
    each finest cell sees a finest-grid loop's operands in its order, so the same bits."""
    step = tuple(2 ** k for k in filt.k)
    out = None
    for n in range(start, top + 1):
        values = level(n)
        out = np.full(values.shape, empty) if out is None else _block_expand(out, step)
        np.maximum(out, values, out=out)
    out = np.full(filt.shape, empty) if out is None else _block_expand(out, filt.block_factors(top))
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


def check_dyadic_pairs(filt, gamma: float, m: int) -> None:
    """Refuse a ``dyadic_sharp(u, gamma, m)`` on ``filt`` whose pair arrays
    (``gamma < 1`` only) pass ``_MAX_CELL_PAIRS`` in one cell or
    ``_MAX_PAIR_TERMS`` in all, naming ``gamma`` and ``m``."""
    cells = [math.prod(filt.block_factors(n)) for n in range(max(m, filt.n_min), filt.n_max)]
    total, worst = math.prod(filt.shape) * sum(cells), max(cells, default=0) ** 2
    if gamma < 1 and (total > _MAX_PAIR_TERMS or worst > _MAX_CELL_PAIRS):
        raise ValueError(f"gamma = {gamma} < 1 with m = {m} forms {total:.3g} pairs below level "
                         f"{filt.n_max}, {worst:.3g} in one cell, past the limits "
                         f"{_MAX_PAIR_TERMS:.3g} and {_MAX_CELL_PAIRS:.3g}: raise m or gamma")


def dyadic_sharp(u: DiscreteField, gamma: float, m: int) -> DiscreteField:
    """Largest mean oscillation over cells of levels ``>= m`` containing the
    point: per cell, the double average of ``|u(y) - u(z)|**gamma`` over its
    finest subcells, raised to ``1/gamma``.  Finest cells give 0 and are skipped."""
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    filt = u.filtration
    if m > filt.n_max:
        raise ValueError(f"level floor {m} lies above the finest level {filt.n_max}")
    check_dyadic_pairs(filt, gamma, m)

    def level(n):
        factors = filt.block_factors(n)
        blocks = cell_blocks(u.values, factors)
        per_cell = (_pair_mean_sorted(blocks) if gamma == 1.0
                    else _pair_mean_power(blocks, gamma) ** (1.0 / gamma))
        return per_cell.reshape([s // f for s, f in zip(filt.shape, factors)])

    return DiscreteField(filt, _coarse_to_fine(filt, max(m, filt.n_min),
                                               filt.n_max - 1, 0.0, level))


# ---------------------------------------------------------------------------
# geometric shape families

_SHAPES = ("ball", "cylinder")


@dataclass(frozen=True)
class GeometricFamily:
    """Shapes centered at every grid node with radii from a finite ladder.

    The operators keep each radius's window mask, node counts and one
    reduction plan on the family, per grid, so the calls that share a family
    count and plan once; covering maxima reduce the reflected field with the
    mask's own plan."""

    shape: str
    radii: tuple[float, ...]
    _windows: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not self.radii or not all(r > 0 for r in self.radii):
            raise ValueError("radius ladder must be nonempty and positive")


def family_for_grid(grid: Grid, radii) -> GeometricFamily:
    return GeometricFamily("cylinder" if grid.time_axis else "ball", tuple(radii))


def _shape_offsets(grid: Grid, family: GeometricFamily, r: float) -> np.ndarray:
    """Boolean window mask of index offsets, odd-sized and centered, whose
    offsets lie in the shape (``calculus.in_shape``); for cylinders the time
    support sits on the forward side only."""
    cyl = family.shape == "cylinder"
    if cyl != grid.time_axis:
        raise ValueError(f"{family.shape} shapes need a grid {'with' if cyl else 'without'} "
                         "a time axis")
    ks = [int(np.floor(r / grid.spacing(ax) * (1 - 1e-12))) for ax in grid.space_axes]
    if cyl:
        ks.insert(0, max(int(np.ceil(r * r / grid.spacing(0) * (1 - 1e-12))) - 1, 0))
    off = np.meshgrid(*(np.arange(-k, k + 1) * grid.spacing(ax) for ax, k in enumerate(ks)),
                      indexing="ij", sparse=True)
    return in_shape(r, (off[ax] for ax in grid.space_axes), off[0] if cyl else None)


def _window(grid: Grid, family: GeometricFamily, r: float):
    """Read-only mask and node counts of the shapes of radius ``r`` on
    ``grid``, with the mask's reduction plan, computed once per family.  The
    one plan serves window sums and covering maxima alike (``_covering_max``
    reduces the reflected field with it)."""
    window = family._windows.get((grid, r))
    if window is None:
        mask = _shape_offsets(grid, family, r)
        plan = _reduce_plan(mask, grid.time_axis, grid.shape)
        counts = _node_counts(mask, grid.time_axis, grid.shape)
        mask.flags.writeable = counts.flags.writeable = False
        window = family._windows[(grid, r)] = (mask, counts, plan)
    return window


def _node_counts(mask: np.ndarray, time_axis: bool, shape) -> np.ndarray:
    """Per node of a grid of ``shape``, the number of offsets of the
    chord-form ``mask`` that land on the grid, as exact float64 integers
    (``_reduce`` of ones, without the reduction): each footprint row adds
    its lead nodes on the grid times its chord clipped to the last axis,
    summed by one matmul, and on a time grid that sum is multiplied by the
    time interval's on-grid steps."""
    per_step = None
    if time_axis:
        on = np.flatnonzero(mask.any(axis=tuple(range(1, mask.ndim)))) - mask.shape[0] // 2
        t = np.arange(shape[0])[:, None] + on
        per_step = ((t >= 0) & (t < shape[0])).sum(axis=1)
        mask, shape = mask.any(axis=0), tuple(shape[1:])
    rows = mask.any(-1)
    lead, n = shape[:-1], shape[-1]
    offsets = np.argwhere(rows) - np.array(rows.shape, dtype=int) // 2
    at = np.indices(lead).reshape(len(lead), math.prod(lead), 1) + offsets.T[:, None, :]
    inside = ((at >= 0) & (at < np.reshape(lead, (-1, 1, 1)))).all(axis=0)
    half = mask.sum(-1)[rows][:, None] // 2
    x = np.arange(n)
    chord = np.minimum(x + half, n - 1) - np.maximum(x - half, 0) + 1
    counts = (inside.astype(np.float64) @ chord.astype(np.float64)).reshape(shape)
    return counts if per_step is None else np.multiply.outer(per_step, counts)


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
    starts = pads - offsets[reach]
    rows: list[list] = [[] for _ in range(widest + 1)]
    for a, start, stop in zip(np.minimum(half[foot.any(-1)], widest)[reach].tolist(),
                              starts.tolist(), (starts + lead).tolist()):
        rows[a].append(tuple(map(slice, start, stop)))
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


def _covering_max(per_center: np.ndarray, plan: _ReducePlan) -> np.ndarray:
    """Per node ``x``, the max of ``per_center[c]`` over the on-grid centers
    ``c`` whose planned shape contains ``x``.  Those ``c - x`` range over the
    reflected mask, so this is the plan's max over the reflected field,
    reflected back; max is exact, so no order of terms shows in the bits."""
    return np.flip(_reduce(np.flip(per_center), plan, np.maximum))


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


def geometric_maximal(h: GridFunction, family: GeometricFamily, rho: float | None = None,
                      mode: str = "all") -> GridFunction:
    """Sup over shapes containing the node of the node-counting average of
    ``|h|``, read on the whole grid (``h.padded()``); ``mode='at_least'``
    keeps only radii ``>= rho``."""
    if h.channels:
        raise ValueError("geometric maximal expects a scalar grid function")
    out = np.full(h.grid.shape, -np.inf)
    absv = np.abs(h.padded())
    for r in _radius_subset(family, rho, mode):
        _, counts, plan = _window(h.grid, family, r)
        np.maximum(out, _covering_max(_reduce(absv, plan, np.add) / counts, plan), out=out)
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


def _difference_field(chans: np.ndarray, delta, gamma: float, out: np.ndarray,
                      symmetric: bool = False) -> tuple[slice, ...]:
    """Write ``|h(y) - h(y + delta)|**gamma`` into ``out[y]`` at every ``y``
    with both nodes on the grid, and return the region ``y``, for
    channel-first ``chans`` of shape (channels,) + grid and ``out`` of grid
    shape, in the entrywise-l2 metric.  Squared channels sum in place by
    halving, ``i + ceil(C/2)`` into ``i``, in an order that does not depend
    on numpy's build or CPU.  With ``symmetric``, ``chans`` holds the
    (0,0), (0,1) and (1,1) channels ``a, b, c`` of a symmetric 2x2 field, and
    one add over overlapping slices forms ``[a^2 + b^2, b^2 + c^2]``: the
    four-channel halving's first step with the repeated square reused, so the
    same bits."""
    y, z = [], []
    for e, n in zip(delta, out.shape):
        y.append(slice(0, n - e) if e >= 0 else slice(-e, n))
        z.append(slice(e, n) if e >= 0 else slice(0, n + e))
    y = tuple(y)
    a, b, region = chans[(slice(None), *y)], chans[(slice(None), *z)], out[y]
    if len(chans) == 1:
        np.abs(np.subtract(a[0], b[0], out=region), out=region)
    else:
        sq = np.subtract(a, b)
        np.multiply(sq, sq, out=sq)
        if symmetric:
            sq = sq[:2] + sq[1:]
        m = len(sq)
        while m > 1:
            k = -(-m // 2)
            np.add(sq[:m - k], sq[k:m], out=sq[:m - k])
            m = k
        np.sqrt(sq[0], out=region)
    region **= gamma
    return y


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
    """Shape and flat element strides of the one-gap layout of a grid of
    ``shape``: every row along axis ``j >= 1`` holds its ``shape[j]`` nodes
    followed by a gap of ``pad[j]`` slots, and axis 0 gets no gap, so node
    ``x`` sits at flat index ``x @ strides``; refused when a flat index into
    it would not fit int32."""
    rows = (int(shape[0]),) + tuple(int(n) + int(p) for n, p in zip(shape[1:], pad[1:]))
    if math.prod(rows) > np.iinfo(np.int32).max:
        raise ValueError(f"geometric sharp's padded grid {rows} has over 2**31 - 1 nodes")
    return rows, np.cumprod((1,) + rows[:0:-1])[::-1]


def geometric_sharp(h: GridFunction, family: GeometricFamily, gamma: float,
                    rho: float, pair_budget: int = 4096, seed: int = 0) -> GridFunction:
    """Sup over shapes of radius ``<= rho`` containing the node of the double
    average of ``|h(y) - h(z)|**gamma`` over shape nodes, to the ``1/gamma``,
    with ``h`` read on the whole grid (``h.padded()``).

    Exact over all node pairs while the unordered pair count stays within
    ``pair_budget``; beyond that a seeded uniform pair sample is used.  Vector
    or matrix channels are compared in the entrywise-l2 metric.

    Accumulators and the field buffer share one layout
    (``_padded_layout``): every row along an axis ``j >= 1`` ends in a gap
    of ``pad[j]`` slots, the largest kept window's half-width on that axis
    clamped to the axis length minus one (no pair with an on-grid center
    reaches further), and axis 0 needs none.  There a pair with offsets
    ``(a, b)`` and center box ``[lo, hi)`` is one flat slice add
    ``acc[s:e] += field[s+o:e+o]``, with ``s`` and ``e - 1`` the flat
    indices of ``lo`` and ``hi - 1`` and ``o`` that of ``a``; both slices lie
    in the layout, since ``lo + a >= 0`` and ``hi - 1 + a <= n - 1`` on
    every axis.  Every center in the box gets its term.  Any other node
    ``x`` in ``[s, e)`` reads ``x + a``: a node off the field's region, or,
    since ``|a_j| <= pad[j]``, a gap slot of its own row or of the row
    before, never a node of another row.  Both hold ``+0.0``, which leaves
    its nonnegative sum's bits alone.

    A (2, 2) field whose (0,1) and (1,0) channels are equal is copied
    channel-first as its (0,0), (0,1) and (1,1) channels only, and
    ``_difference_field`` reuses the repeated square, so its terms keep the
    bits of the four-channel halving sum; any other field copies every
    channel.

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
    ``_difference_field``'s halving order, into the grid nodes of its region
    ``y`` of the buffer, adds every radius's slices in plan order, so each
    center sums its terms in the order of a per-pair loop, and zeroes ``y``
    again.  Held at once: plans, one field and the accumulators in the
    layout, and the pair counts of sampled radii.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if pair_budget < 1:
        raise ValueError("pair budget must be positive")
    grid = h.grid
    d = grid.ndim
    vals = h.padded().reshape(grid.shape + (-1,))
    # a symmetric 2x2 field keeps channels (0,0), (0,1), (1,1); a signed zero
    # in (1,0) squares to the bits of its twin, so value equality suffices
    symmetric = h.channels == (2, 2) and np.array_equal(vals[..., 1], vals[..., 2])
    keep = [0, 1, 3] if symmetric else list(range(vals.shape[-1]))
    chans = np.moveaxis(vals, -1, 0)[keep]    # one channel-first copy
    kept = [(r, *_window(grid, family, r)) for r in _radius_subset(family, rho, "at_most")]
    pad = np.minimum(np.max([np.array(mask.shape) // 2 for _, mask, *_ in kept], axis=0),
                     np.array(grid.shape) - 1)
    layout, strides = _padded_layout(grid.shape, pad)
    rng = np.random.default_rng(seed)
    subsampled = False
    plans, cnts, terms, groups = [], [], [], {}
    for r, mask, counts, _ in kept:
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
        for key, a, b in zip(delta[new].tolist(), starts, starts[1:] + [len(rows)]):
            groups.setdefault(tuple(key), []).append((len(plans), a, b))
        terms.append(int(np.prod(hi - lo, axis=1, dtype=np.int64).sum()))
        cnts.append(None if exact else _box_counts(grid.shape, lo, hi))
        # flat bounds of each box and the shift flat(a), a being the pair's
        # first offset: rows hold lo + min(a, b), and min(a, b) = a + min(0, delta)
        start = lo @ strides
        stop = (hi - 1) @ strides + 1
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
    size = math.prod(layout)
    accs = [np.zeros(size) for _ in kept]
    field = np.zeros(size)
    inner = tuple(map(slice, grid.shape))
    nodes = field.reshape(layout)[inner]
    for delta in sorted(groups):
        y = _difference_field(chans, delta, gamma, nodes, symmetric)
        for k, a, b in groups[delta]:
            acc = accs[k]
            for s, e, t, u in plans[k][a:b].tolist():
                view = acc[s:e]
                view += field[t:u]
        nodes[y] = 0.0
    out = np.full(grid.shape, -np.inf)
    for (_, _, counts, plan), cnt, acc in zip(kept, cnts, accs):
        cnt = counts * (counts - 1) / 2 if cnt is None else cnt
        ordered = counts * counts
        nondiag = ordered - counts
        acc = acc.reshape(layout)[inner]
        with np.errstate(invalid="ignore", divide="ignore"):
            per_center = np.where(cnt > 0, acc / np.maximum(cnt, 1.0) * nondiag / ordered, 0.0)
        np.maximum(out, _covering_max(per_center ** (1.0 / gamma), plan), out=out)
    result = GridFunction(grid, out)
    result.subsampled = subsampled
    return result
