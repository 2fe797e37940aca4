"""Maximal and mean-oscillation operators, dyadic and geometric.

Dyadic variants act on piecewise-constant fields through exact block
averages.  Geometric variants act on grid functions: shape averages are
node-counting quadratures over balls, half balls, forward-in-time cylinders
``[t, t + r^2) x B_r`` and half cylinders, with shapes clipped to the grid
box.  For every radius the per-center averages come from one window sum
through ``numpy.fft``, so they match the brute-force definition up to FFT
rounding.  The sup over shapes containing a node is exact: the footprint is
cut into chords, each chord is one window maximum, and a cylinder's
forward time interval is one separable window maximum along time.  Sharp
pair sums share each offset difference's field, up to ``_FIELD_CACHE_BYTES``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import Grid, GridFunction
from .filtration import DiscreteField, _block_expand, cell_blocks, level_average_values

# Cells per pairwise chunk in the generic double-average path.
_PAIR_CHUNK = 1 << 22
# Bytes of |h(y) - h(y + delta)|**gamma fields kept per geometric_sharp radius.
_FIELD_CACHE_BYTES = 1 << 21


# ---------------------------------------------------------------------------
# dyadic operators

def dyadic_maximal(f: DiscreteField, m: int | None = None) -> DiscreteField:
    """Pointwise sup of ``|f|`` cell averages over levels ``<= m``
    (the whole materialized range when ``m`` is absent)."""
    filt = f.filtration
    top = filt.spec.n_max if m is None else min(m, filt.spec.n_max)
    if top < filt.spec.n_min:
        raise ValueError(f"level cap {m} lies below the coarsest level {filt.spec.n_min}")
    absf = abs(f)
    out = np.full(filt.shape, -np.inf)
    for n in range(filt.spec.n_min, top + 1):
        np.maximum(out, level_average_values(absf, n), out=out)
    return DiscreteField(filt, out)


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
    if m > filt.spec.n_max:
        raise ValueError(f"level floor {m} lies above the finest level {filt.spec.n_max}")
    start = max(m, filt.spec.n_min)
    out = np.zeros(filt.shape)
    for n in range(start, filt.spec.n_max + 1):
        blocks = cell_blocks(u.values, filt, n)
        if gamma == 1.0:
            per_cell = _pair_mean_sorted(blocks)
        else:
            per_cell = _pair_mean_power(blocks, gamma) ** (1.0 / gamma)
        factors = filt.block_factors(n)
        coarse = per_cell.reshape([s // f for s, f in zip(filt.shape, factors)])
        np.maximum(out, _block_expand(coarse, factors), out=out)
    return DiscreteField(filt, out)


# ---------------------------------------------------------------------------
# geometric shape families

_SHAPES = ("ball", "half_ball", "cylinder", "half_cylinder")


@dataclass(frozen=True)
class GeometricFamily:
    """Shapes centered at every grid node with radii from a finite ladder."""

    shape: str
    radii: tuple[float, ...]

    def __post_init__(self):
        if self.shape not in _SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not self.radii or any(r <= 0 for r in self.radii):
            raise ValueError("radius ladder must be nonempty and positive")


def default_radii(grid: Grid) -> tuple[float, ...]:
    """Geometric radius ladder from about two spacings up to the box size."""
    hi = max(grid.hi[ax] - grid.lo[ax] for ax in grid.space_axes)
    radii = []
    r = 2.05 * max(grid.spacing(ax) for ax in grid.space_axes)
    while r < hi * (1 + 1e-12):
        radii.append(r)
        r *= np.sqrt(2.0)
    if not radii:
        raise ValueError("empty radius ladder; box is smaller than two spacings")
    return tuple(radii)


def family_for_grid(grid: Grid, radii=None) -> GeometricFamily:
    if grid.time_axis:
        shape = "half_cylinder" if grid.half_axis is not None else "cylinder"
    else:
        shape = "half_ball" if grid.half_axis is not None else "ball"
    return GeometricFamily(shape, tuple(radii) if radii is not None else default_radii(grid))


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


def _fast_len(n: int) -> int:
    # smallest 2**a * 3**b * 5**c >= n, as scipy.fft.next_fast_len(n, True)
    best, p5 = 1 << (n - 1).bit_length(), 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _rfftn(x: np.ndarray, fshape, axes) -> np.ndarray:
    # scipy.fft.rfftn's pass order: real on the last axis, then complex ascending
    out = np.fft.rfft(x, fshape[-1], axes[-1])
    for a, n in zip(axes[:-1], fshape):
        out = np.fft.fft(out, n, a)
    return out


def _window_sum(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    # correlation: out[c] = sum over offsets o in mask of values[c + o], as a
    # "same"-mode FFT convolution with the reflected mask; axes where either
    # input has one node are plain broadcasting and take no transform.  The
    # 1-D passes run in pocketfft's multi-axis order and scale by 1/N last,
    # so the bits equal scipy.fft's.
    kernel = mask.astype(np.float64)[tuple(slice(None, None, -1) for _ in mask.shape)]
    axes = [a for a in range(values.ndim) if values.shape[a] != 1 and kernel.shape[a] != 1]
    full = [n + k - 1 if a in axes else max(n, k)
            for a, (n, k) in enumerate(zip(values.shape, kernel.shape))]
    if axes:
        fshape = [_fast_len(full[a]) for a in axes]
        spec = _rfftn(values, fshape, axes) * _rfftn(kernel, fshape, axes)
        for a, n in zip(axes[:-1], fshape):
            spec = np.fft.ifft(spec, n, a, norm="forward")
        ret = np.fft.irfft(spec, fshape[-1], axes[-1], norm="forward")
        ret *= 1.0 / np.prod(fshape)
    else:
        ret = values * kernel
    return ret[tuple(slice((f - n) // 2, (f - n) // 2 + n)
                     for f, n in zip(full, values.shape))].copy()


def _shift_max(out: np.ndarray, src: np.ndarray, shift) -> None:
    # out[x] = max(out[x], src[x + shift]) wherever x + shift is on the grid
    dst, tail = [], []
    for n, s in zip(out.shape, shift):
        if abs(s) >= n:
            return
        dst.append(slice(max(0, -s), n - max(0, s)))
        tail.append(slice(max(0, s), n - max(0, -s)))
    view = out[tuple(dst)]
    np.maximum(view, src[tuple(tail)], out=view)


def _window_maxima(values: np.ndarray, windows, axis: int):
    # Yield, per window (lo, hi) with lo <= hi, out[i] = max values[i + lo .. i + hi]
    # along axis, -inf off the grid.  One sparse table (Bender & Farach-Colton)
    # serves every window: level j holds the maxima of the -inf-padded values
    # over 2**j consecutive nodes, and a window is the max of two overlapping
    # slices of one level.  Clamping to [-n, n] keeps every on-grid node.
    vals = values.swapaxes(0, axis)
    n = len(vals)
    windows = [(min(max(lo, -n), n), min(max(hi, -n), n)) for lo, hi in windows]
    left, right = max([0] + [-lo for lo, _ in windows]), max([0] + [hi for _, hi in windows])
    levels = [np.full((left + n + right,) + vals.shape[1:], -np.inf)]
    levels[0][left:left + n] = vals
    for j in range(max([1] + [hi - lo + 1 for lo, hi in windows]).bit_length() - 1):
        levels.append(np.maximum(levels[-1][:-(1 << j)], levels[-1][1 << j:]))
    for lo, hi in windows:
        j = (hi - lo + 1).bit_length() - 1
        a, b = left + lo, left + hi + 1 - (1 << j)
        yield np.maximum(levels[j][a:a + n], levels[j][b:b + n]).swapaxes(0, axis)


def _covering_max(per_center: np.ndarray, mask: np.ndarray, time_axis: bool) -> np.ndarray:
    """Exact ``out[x] = max per_center[c]`` over centers ``c`` whose shape
    contains ``x``; ``c - x`` ranges over the reflected window ``foot``.

    Each row of ``foot`` along the last axis splits into contiguous chords
    (one per row for balls); every distinct chord is one window maximum,
    shifted into place over the leading axes.  On a time grid the mask is a
    forward time interval times a ball, so the interval is one window
    maximum along axis 0 first.
    """
    foot = mask[tuple(slice(None, None, -1) for _ in mask.shape)]
    vals = per_center
    if time_axis:
        steps = np.flatnonzero(foot.any(axis=tuple(range(1, foot.ndim)))) - foot.shape[0] // 2
        vals, = _window_maxima(per_center, [(int(steps[0]), int(steps[-1]))], 0)
        foot = foot.any(axis=0, keepdims=True)
    mid = [s // 2 for s in foot.shape]
    chords: dict[tuple[int, int], list[tuple[int, ...]]] = {}
    for lead in np.ndindex(foot.shape[:-1]):
        edges = np.flatnonzero(np.diff(np.concatenate(([0], foot[lead], [0]))))
        for lo, hi in zip(edges[::2], edges[1::2] - 1):
            shift = tuple(i - m for i, m in zip(lead, mid)) + (0,)
            chords.setdefault((int(lo) - mid[-1], int(hi) - mid[-1]), []).append(shift)
    out = np.full(per_center.shape, -np.inf)
    runs = _window_maxima(vals, chords, per_center.ndim - 1)
    for run, shifts in zip(runs, chords.values()):
        for shift in shifts:
            _shift_max(out, run, shift)
    return out


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
    ``|h|``; ``mode='at_least'`` keeps only radii ``>= rho``."""
    if h.channels:
        raise ValueError("geometric maximal expects a scalar grid function")
    out = np.full(h.grid.shape, -np.inf)
    absv = np.abs(h.values)
    ones = np.ones_like(absv)
    for r in _radius_subset(family, rho, mode):
        mask = _shape_offsets(h.grid, family, r)
        counts = np.rint(_window_sum(ones, mask))
        avg = np.maximum(_window_sum(absv, mask), 0.0) / counts
        np.maximum(out, _covering_max(avg, mask, h.grid.time_axis), out=out)
    return GridFunction(h.grid, out)


def _pair_windows(shape, a, b) -> np.ndarray:
    # Rows [b - a, lo, hi, lo + m, hi + m] per offset pair (a, b), m = min(a, b):
    # x in [lo, hi) has x + a and x + b on the grid, and x + a is index x + m of
    # the field of b - a, which starts at y = max(0, a - b); pairs with no x drop.
    low = np.minimum(a, b)
    lo, hi = np.maximum(-low, 0), np.array(shape) - np.maximum(np.maximum(a, b), 0)
    return np.concatenate([b - a, lo, hi, lo + low, hi + low], axis=1)[(hi > lo).all(axis=1)]


def geometric_sharp(h: GridFunction, family: GeometricFamily, gamma: float,
                    rho: float, pair_budget: int = 4096, seed: int = 0) -> GridFunction:
    """Sup over shapes of radius ``<= rho`` containing the node of the double
    average of ``|h(y) - h(z)|**gamma`` over shape nodes, to the ``1/gamma``.

    Exact over all node pairs while the unordered pair count stays within
    ``pair_budget``; beyond that a seeded uniform pair sample is used.  Vector
    or matrix channels are compared in the entrywise-l2 metric.
    Pairs with one offset difference ``delta`` share the field ``|h(y) -
    h(y + delta)|**gamma`` (per radius, up to ``_FIELD_CACHE_BYTES``) and add
    their slices in pair order, so each center sums terms in the same order.
    """
    if not 0 < gamma <= 1:
        raise ValueError(f"gamma must lie in (0, 1], got {gamma}")
    if pair_budget < 1:
        raise ValueError("pair budget must be positive")
    grid = h.grid
    vals = h.values.reshape(grid.shape + (-1,))
    nchan = vals.shape[-1]
    rng = np.random.default_rng(seed)
    out = np.full(grid.shape, -np.inf)
    ones = np.ones(grid.shape)
    subsampled = False
    for r in _radius_subset(family, rho, "at_most"):
        mask = _shape_offsets(grid, family, r)
        counts = np.rint(_window_sum(ones, mask))
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
            subsampled = True
        acc = np.zeros(grid.shape)
        cnt = counts * (counts - 1) / 2 if exact else np.zeros(grid.shape)
        fields, kept, d = {}, 0, grid.ndim
        for row in map(np.ndarray.tolist, _pair_windows(grid.shape, offsets[ii], offsets[jj])):
            delta = tuple(row[:d])
            x0, x1, y0, y1 = (row[k:k + d] for k in range(d, 5 * d, d))
            dst, win = tuple(map(slice, x0, x1)), tuple(map(slice, y0, y1))
            field = fields.get(delta)
            if field is None:
                y = tuple(slice(max(0, -e), n - max(0, e)) for e, n in zip(delta, grid.shape))
                if kept + 8 * math.prod(s.stop - s.start for s in y) > _FIELD_CACHE_BYTES:
                    # past the cap: compute only the window this pair reads
                    y, win = tuple(slice(s.start + w.start, s.start + w.stop)
                                   for s, w in zip(y, win)), ()
                diff = vals[y] - vals[tuple(slice(s.start + e, s.stop + e)
                                            for s, e in zip(y, delta))]
                mag = np.sqrt(np.einsum("...c,...c->...", diff, diff)) if nchan > 1 \
                    else np.abs(diff[..., 0])
                field = mag ** gamma
                if win:
                    fields[delta] = field
                    kept += field.nbytes
            acc[dst] += field[win]
            if not exact:
                cnt[dst] += 1.0
        ordered = counts * counts
        nondiag = ordered - counts
        with np.errstate(invalid="ignore", divide="ignore"):
            per_center = np.where(cnt > 0, acc / np.maximum(cnt, 1.0) * nondiag / ordered, 0.0)
        np.maximum(out, _covering_max(per_center ** (1.0 / gamma), mask, grid.time_axis),
                   out=out)
    result = GridFunction(grid, out)
    result.subsampled = subsampled
    return result
