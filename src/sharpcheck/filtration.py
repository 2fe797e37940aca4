"""Nested anisotropic dyadic partitions of boxes.

A filtration materializes, over a finite bounding box, the family of nested
partitions indexed by integer levels ``n_min..n_max``.  The level-``n`` cell
along axis ``i`` has side ``2**(-n * k[i])`` for a fixed tuple of positive
integer exponents ``k``; every level-``n`` cell is the disjoint union of
``N0 = 2**sum(k)`` level-``n+1`` cells.  Fields are piecewise constant on the
finest cells, so conditional averages, threshold stopping times and stopped
values are all exact block operations on the finest grid.  A field's values
are immutable, so it keeps each level's cell means once computed, and the
stopping time, the stopped values and the maximal function of one field
average each level once.

A filtration is one frozen value, :class:`Filtration` ``(k, n_min, n_max,
lo, hi)``, which checks its parameters and the box's alignment when built
and carries the finest grid they fix.  ``full_space`` builds the isotropic
kind, and ``parabolic`` the space-time kind, which refuses a box below ``0``
on its time axis.  A half space is no kind of its own: it is ``full_space``
on a box whose first axis starts at 0.  Equal parameters make equal
filtrations.

A field may carry leading batch axes, one instance per index, so that many
fields on one filtration go through a single call: the level means, the
stopping time, the stopped values and the maximal function act on the
trailing grid axes, and each instance's result equals its own call's bit
for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .calculus import sample_nodes

# Stopping-time value meaning "the threshold is never crossed".
TAU_INF = np.iinfo(np.int64).max

# Relative slack for box/lattice commensurability checks.
_ALIGN_RTOL = 1e-9


def _aligned_count(length: float, side: float, what: str) -> int:
    count = length / side
    rounded = round(count)
    if rounded == 0 or abs(count - rounded) > _ALIGN_RTOL * max(1.0, abs(count)):
        raise ValueError(f"{what}: {length} is not a whole number of cells of side {side}")
    return int(rounded)


@dataclass(frozen=True)
class Filtration:
    """Materialized partition stack of a box: its anisotropy exponents, level
    range and corners, and the finest grid they fix.

    Parameters
    ----------
    k : tuple of int
        Per-axis anisotropy exponents; cell side on axis ``i`` at level ``n``
        is ``2**(-n * k[i])``.
    n_min, n_max : int
        Coarsest and finest materialized levels, ``n_min <= n_max``.
    lo, hi : tuple of float
        Bounding box corners.  Each side must be a whole number of coarsest
        cells and ``lo`` must sit on the coarsest lattice.

    ``shape`` (finest cells per axis) and ``finest_volume`` follow from
    these; two filtrations are equal when their five parameters are.
    """

    k: tuple[int, ...]
    n_min: int
    n_max: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    finest_volume: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        lo, hi = tuple(map(float, self.lo)), tuple(map(float, self.hi))
        if not self.k or any(int(ki) != ki or ki < 1 for ki in self.k):
            raise ValueError(f"anisotropy exponents must be positive integers, got {self.k}")
        if self.n_min > self.n_max:
            raise ValueError(f"empty level range [{self.n_min}, {self.n_max}]")
        if not (len(self.k) == len(lo) == len(hi)):
            raise ValueError("k, lo, hi must have one entry per axis")
        coarse, finest, shape = self.cell_sides(self.n_min), self.cell_sides(self.n_max), []
        for ax, (a, b) in enumerate(zip(lo, hi)):
            if b <= a:
                raise ValueError(f"degenerate box on axis {ax}")
            _aligned_count(b - a, coarse[ax], f"axis {ax} box side")
            off = a / coarse[ax]
            if a != 0.0 and abs(off - round(off)) > _ALIGN_RTOL * max(1.0, abs(off)):
                raise ValueError(f"axis {ax}: lo={a} is off the level-{self.n_min} lattice")
            shape.append(_aligned_count(b - a, finest[ax], f"axis {ax}"))
        # sides are powers of two, so their product is exact in any order
        for name, value in (("lo", lo), ("hi", hi), ("shape", tuple(shape)),
                            ("finest_volume", math.prod(finest))):
            object.__setattr__(self, name, value)

    @property
    def ndim(self) -> int:
        return len(self.k)

    @property
    def n_children(self) -> int:
        """Number of children of a cell, ``2**sum(k)``."""
        return 2 ** sum(self.k)

    @property
    def levels(self) -> range:
        return range(self.n_min, self.n_max + 1)

    def cell_sides(self, n: int) -> tuple[float, ...]:
        return tuple(2.0 ** (-n * ki) for ki in self.k)

    def block_factors(self, n: int) -> tuple[int, ...]:
        """Finest cells per level-n cell, per axis."""
        if not self.n_min <= n <= self.n_max:
            raise ValueError(f"level {n} outside [{self.n_min}, {self.n_max}]")
        return tuple(2 ** ((self.n_max - n) * ki) for ki in self.k)

    def _center_axes(self) -> list[np.ndarray]:
        return [self.lo[ax] + (np.arange(self.shape[ax]) + 0.5) * side
                for ax, side in enumerate(self.cell_sides(self.n_max))]

    def cell_centers(self) -> np.ndarray:
        """Centers of the finest cells, shape ``(*grid_shape, ndim)``."""
        return np.stack(np.meshgrid(*self._center_axes(), indexing="ij"), axis=-1)

    def field(self, values: np.ndarray) -> "DiscreteField":
        return DiscreteField(self, np.asarray(values, dtype=np.float64))

    def sample(self, fn) -> "DiscreteField":
        """Field with values of ``fn`` at the finest cell centers, which it
        takes one slab of axis-0 layers at a time (``calculus.sample_nodes``),
        in one read-only array the field keeps uncopied."""
        values = sample_nodes(fn, self._center_axes())
        values.flags.writeable = False
        return DiscreteField(self, values)


def full_space(d: int, n_min: int, n_max: int, lo, hi) -> Filtration:
    """Isotropic filtration of a box in d-space; a half-space filtration is
    one on a box with ``lo[0] = 0``."""
    return Filtration((1,) * d, n_min, n_max, lo, hi)


def parabolic(d: int, n_min: int, n_max: int, lo, hi) -> Filtration:
    """Space-time filtration: axis 0 is time with exponent 2, cells
    (t, x) + [0, 4**-n) x [0, 2**-n)**d, domain {t >= 0}."""
    filt = Filtration((2,) + (1,) * d, n_min, n_max, lo, hi)
    if filt.lo[0] < 0:
        raise ValueError(f"axis 0 is constrained to >= 0 but lo[0] = {filt.lo[0]}")
    return filt


@dataclass
class DiscreteField:
    """Piecewise-constant function on the finest cells of a filtration.

    The field holds its values read-only, copied unless they come as a
    read-only array that owns its memory, so the caller's array is left as
    it was; it keeps each level's cell means once computed
    (:func:`level_means`).  The values have shape ``batch + grid``: leading
    batch axes, empty for a single field, hold independent instances."""

    filtration: Filtration
    values: np.ndarray
    _means: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        # a writable array, or a view of one, could change behind the means
        shared = values.flags.writeable or values.base is not None
        self.values = np.array(values, dtype=np.float64, copy=True if shared else None)
        _check_grid(self.values, self.filtration, "values")
        self.values.flags.writeable = False

    @property
    def batch_shape(self) -> tuple[int, ...]:
        return self.values.shape[:self.values.ndim - self.filtration.ndim]

    def integral(self):
        """Integral of each instance: a float, or an array of the batch shape."""
        grid = tuple(range(len(self.batch_shape), self.values.ndim))
        total = self.values.sum(axis=grid) * self.filtration.finest_volume
        return float(total) if np.ndim(total) == 0 else total

    def __abs__(self) -> "DiscreteField":
        """``|f|``: ``f`` itself, cached means included, when no value has its
        sign bit set."""
        if not np.signbit(self.values).any():
            return self
        return DiscreteField(self.filtration, np.abs(self.values))


def _check_grid(values: np.ndarray, filt: Filtration, what: str):
    if values.shape[max(values.ndim - filt.ndim, 0):] != filt.shape:
        raise ValueError(f"{what} shape {values.shape} does not match grid {filt.shape}")


def _block_mean(values: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    # the sum and the division of ndarray.mean, bit for bit, without its
    # wrapper, over blocks of the trailing axes
    lead = values.ndim - len(factors)
    shape = list(values.shape[:lead])
    for size, f in zip(values.shape[lead:], factors):
        shape.extend((size // f, f))
    view = values.reshape(shape)
    return np.add.reduce(view, axis=tuple(range(lead + 1, len(shape), 2))) / math.prod(factors)


def _block_expand(values: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    out = values
    for ax, f in enumerate(factors, values.ndim - len(factors)):
        if f > 1:
            out = np.repeat(out, f, axis=ax)
    return out


def level_means(f: DiscreteField, n: int) -> np.ndarray:
    """Read-only mean of ``f`` over each level-``n`` cell, one entry per cell
    and instance, computed once per field and level; ``f.values`` at the finest."""
    means = f._means.get(n)
    if means is None:
        factors = f.filtration.block_factors(n)
        means = f._means[n] = f.values if max(factors) == 1 else _block_mean(f.values, factors)
        means.flags.writeable = False
    return means


def level_average_values(f: DiscreteField, n: int) -> np.ndarray:
    """Raw array of the level-n conditional average, expanded to the finest
    grid (read-only at the finest level)."""
    return _block_expand(level_means(f, n), f.filtration.block_factors(n))


def cell_blocks(values: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    """Values grouped by blocks of ``factors`` cells per axis (a level's
    ``block_factors`` on the finest grid), shape ``(blocks, per_block)``,
    blocks in row-major order."""
    shape = []
    for size, fct in zip(values.shape, factors):
        shape.extend((size // fct, fct))
    perm = list(range(0, 2 * len(factors), 2)) + list(range(1, 2 * len(factors), 2))
    return values.reshape(shape).transpose(perm).reshape(-1, math.prod(factors))


@dataclass
class StoppingTime:
    """Level at which a scan stopped, per finest cell; ``TAU_INF`` = never.

    ``tau`` has the shape ``batch + grid`` of the scanned field.  In every
    instance ``{tau = n}`` is a union of level-``n`` cells.
    """

    filtration: Filtration
    tau: np.ndarray

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=np.int64)
        _check_grid(self.tau, self.filtration, "tau")

    def finite_mask(self) -> np.ndarray:
        return self.tau != TAU_INF


def cz_stopping_time(g: DiscreteField, lam: float) -> StoppingTime:
    """First level whose cell average of ``g`` exceeds ``lam`` (strictly).

    Scans the level range from the coarsest level.  Levels below the range
    are not scanned, so the stopped-average bound holds only when ``lam`` is
    at least every coarsest-level average (``level_means(g, n_min)``), which
    the caller checks.  ``lam`` is a scalar or holds one threshold per
    instance of a batched ``g``.
    """
    lam = np.asarray(lam, dtype=np.float64)
    if not (lam > 0).all():
        raise ValueError(f"threshold must be positive, got {lam}")
    if lam.shape not in ((), g.batch_shape):
        raise ValueError(f"threshold shape {lam.shape} does not match batch {g.batch_shape}")
    if not (g.values >= 0).all():
        raise ValueError("threshold scan expects a nonnegative field")
    filt = g.filtration
    lam = lam.reshape(lam.shape + (1,) * filt.ndim)
    tau = np.full(g.values.shape, TAU_INF, dtype=np.int64)
    # finest level first, so each cell ends with the coarsest level that hit
    for n in reversed(filt.levels):
        tau[_block_expand(level_means(g, n) > lam, filt.block_factors(n))] = n
    return StoppingTime(filt, tau)


def stopped_value(f: DiscreteField, st: StoppingTime) -> DiscreteField:
    """``f`` averaged at the stopping level; ``f`` itself where never stopped.
    ``f`` and ``st`` share one batch shape, and ``st`` stops only at levels
    of the filtration's range, each on a union of that level's cells."""
    if f.filtration != st.filtration:
        raise ValueError("fields live on different filtrations")
    if f.values.shape != st.tau.shape:
        raise ValueError(f"field shape {f.values.shape} does not match tau {st.tau.shape}")
    out = f.values.copy()
    for n in f.filtration.levels:
        mask = st.tau == n
        if mask.any():
            np.copyto(out, level_average_values(f, n), where=mask)
    out.flags.writeable = False  # owned, so the field keeps it without a copy
    return DiscreteField(f.filtration, out)
