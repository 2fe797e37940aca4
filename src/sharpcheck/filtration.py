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
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field

import numpy as np

# Stopping-time value meaning "the threshold is never crossed".
TAU_INF = np.iinfo(np.int64).max

_GEOMETRIES = ("full", "half", "parabolic", "product")

# Relative slack for box/lattice commensurability checks.
_ALIGN_RTOL = 1e-9


@dataclass(frozen=True)
class FiltrationSpec:
    """Geometry, anisotropy exponents, level range and bounding box.

    Parameters
    ----------
    geometry : str
        One of ``full``, ``half``, ``parabolic``, ``product``.
    k : tuple of int
        Per-axis anisotropy exponents; cell side on axis ``i`` at level ``n``
        is ``2**(-n * k[i])``.
    n_min, n_max : int
        Coarsest and finest materialized levels, ``n_min <= n_max``.
    lo, hi : tuple of float
        Bounding box corners.  Each side must be a whole number of coarsest
        cells and ``lo`` must sit on the coarsest lattice.
    half_axes : tuple of int
        Axes constrained to nonnegative coordinates (``half``: axis 0;
        ``parabolic``: the time axis 0, plus axis 1 when the spatial domain
        is a half space).
    """

    geometry: str
    k: tuple[int, ...]
    n_min: int
    n_max: int
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    half_axes: tuple[int, ...] = ()

    def __post_init__(self):
        if self.geometry not in _GEOMETRIES:
            raise ValueError(f"unknown geometry {self.geometry!r}")
        if not self.k or any(int(ki) != ki or ki < 1 for ki in self.k):
            raise ValueError(f"anisotropy exponents must be positive integers, got {self.k}")
        if self.n_min > self.n_max:
            raise ValueError(f"empty level range [{self.n_min}, {self.n_max}]")
        if not (len(self.k) == len(self.lo) == len(self.hi)):
            raise ValueError("k, lo, hi must have one entry per axis")
        for ax in self.half_axes:
            if self.lo[ax] < 0:
                raise ValueError(f"axis {ax} is constrained to >= 0 but lo[{ax}] = {self.lo[ax]}")
        for ax in range(len(self.k)):
            if self.hi[ax] <= self.lo[ax]:
                raise ValueError(f"degenerate box on axis {ax}")

    @property
    def ndim(self) -> int:
        return len(self.k)

    @property
    def n_children(self) -> int:
        """Number of children of a cell, ``2**sum(k)``."""
        return 2 ** sum(self.k)

    def cell_sides(self, n: int) -> tuple[float, ...]:
        return tuple(2.0 ** (-n * ki) for ki in self.k)

    def cell_volume(self, n: int) -> float:
        return float(np.prod(self.cell_sides(n)))


def full_space(d: int, n_min: int, n_max: int, lo, hi) -> FiltrationSpec:
    """Isotropic filtration of a box in d-space."""
    return FiltrationSpec("full", (1,) * d, n_min, n_max, tuple(map(float, lo)), tuple(map(float, hi)))


def half_space(d: int, n_min: int, n_max: int, lo, hi) -> FiltrationSpec:
    """Isotropic filtration of a box inside the half space {x_1 >= 0}."""
    return FiltrationSpec("half", (1,) * d, n_min, n_max, tuple(map(float, lo)),
                          tuple(map(float, hi)), half_axes=(0,))


def parabolic(d: int, n_min: int, n_max: int, lo, hi, space_half: bool = False) -> FiltrationSpec:
    """Space-time filtration: axis 0 is time with exponent 2, cells
    (t, x) + [0, 4**-n) x [0, 2**-n)**d, domain {t >= 0}."""
    half = (0, 1) if space_half else (0,)
    return FiltrationSpec("parabolic", (2,) + (1,) * d, n_min, n_max,
                          tuple(map(float, lo)), tuple(map(float, hi)), half_axes=half)


def product(k, n_min: int, n_max: int, lo, hi, half_axes=()) -> FiltrationSpec:
    """General anisotropic product filtration with per-axis exponents."""
    return FiltrationSpec("product", tuple(int(v) for v in k), n_min, n_max,
                          tuple(map(float, lo)), tuple(map(float, hi)),
                          half_axes=tuple(half_axes))


def _aligned_count(length: float, side: float, what: str) -> int:
    count = length / side
    rounded = round(count)
    if rounded == 0 or abs(count - rounded) > _ALIGN_RTOL * max(1.0, abs(count)):
        raise ValueError(f"{what}: {length} is not a whole number of cells of side {side}")
    return int(rounded)


class Filtration:
    """Materialized partition stack for a :class:`FiltrationSpec`."""

    def __init__(self, spec: FiltrationSpec):
        self.spec = spec
        coarse = spec.cell_sides(spec.n_min)
        for ax in range(spec.ndim):
            _aligned_count(spec.hi[ax] - spec.lo[ax], coarse[ax], f"axis {ax} box side")
            if spec.lo[ax] != 0.0:
                off = spec.lo[ax] / coarse[ax]
                if abs(off - round(off)) > _ALIGN_RTOL * max(1.0, abs(off)):
                    raise ValueError(
                        f"axis {ax}: lo={spec.lo[ax]} is off the level-{spec.n_min} lattice")
        finest = spec.cell_sides(spec.n_max)
        self.shape = tuple(
            _aligned_count(spec.hi[ax] - spec.lo[ax], finest[ax], f"axis {ax}")
            for ax in range(spec.ndim))
        self.finest_volume = spec.cell_volume(spec.n_max)

    @property
    def levels(self) -> range:
        return range(self.spec.n_min, self.spec.n_max + 1)

    @property
    def ndim(self) -> int:
        return self.spec.ndim

    def block_factors(self, n: int) -> tuple[int, ...]:
        """Finest cells per level-n cell, per axis."""
        if not self.spec.n_min <= n <= self.spec.n_max:
            raise ValueError(f"level {n} outside [{self.spec.n_min}, {self.spec.n_max}]")
        return tuple(2 ** ((self.spec.n_max - n) * ki) for ki in self.spec.k)

    def cell_count(self, n: int) -> int:
        return int(np.prod([s // b for s, b in zip(self.shape, self.block_factors(n))]))

    def cell_centers(self) -> np.ndarray:
        """Centers of the finest cells, shape ``(*grid_shape, ndim)``."""
        axes = [self.spec.lo[ax] + (np.arange(self.shape[ax]) + 0.5) * side
                for ax, side in enumerate(self.spec.cell_sides(self.spec.n_max))]
        return np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)

    def field(self, values: np.ndarray) -> "DiscreteField":
        return DiscreteField(self, np.asarray(values, dtype=np.float64))

    def sample(self, fn) -> "DiscreteField":
        """Field with values of ``fn`` at the finest cell centers."""
        centers = self.cell_centers().reshape(-1, self.ndim)
        return self.field(np.asarray(fn(centers), dtype=np.float64).reshape(self.shape))


@dataclass
class DiscreteField:
    """Piecewise-constant function on the finest cells of a filtration.

    The field holds its values read-only, copied unless they come as a
    read-only array that owns its memory, so the caller's array is left as
    it was; it keeps each level's cell means once computed
    (:func:`level_means`)."""

    filtration: Filtration
    values: np.ndarray
    _means: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        values = np.asarray(self.values)
        # a writable array, or a view of one, could change behind the means
        shared = values.flags.writeable or values.base is not None
        self.values = np.array(values, dtype=np.float64, copy=True if shared else None)
        if self.values.shape != self.filtration.shape:
            raise ValueError(
                f"values shape {self.values.shape} does not match grid {self.filtration.shape}")
        self.values.flags.writeable = False

    def integral(self) -> float:
        return float(self.values.sum() * self.filtration.finest_volume)

    def __abs__(self) -> "DiscreteField":
        """``|f|``: ``f`` itself, cached means included, when no value has its
        sign bit set."""
        if not np.signbit(self.values).any():
            return self
        return DiscreteField(self.filtration, np.abs(self.values))


def _require_same(a: Filtration, b: Filtration):
    if a is not b and a.spec != b.spec:
        raise ValueError("fields live on different filtrations")


def _block_mean(values: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    # the sum and the division of ndarray.mean, bit for bit, without its wrapper
    shape = []
    for size, f in zip(values.shape, factors):
        shape.extend((size // f, f))
    view = values.reshape(shape)
    return np.add.reduce(view, axis=tuple(range(1, 2 * len(factors), 2))) / math.prod(factors)

def _block_expand(values: np.ndarray, factors: tuple[int, ...]) -> np.ndarray:
    out = values
    for ax, f in enumerate(factors):
        if f > 1:
            out = np.repeat(out, f, axis=ax)
    return out


def level_means(f: DiscreteField, n: int) -> np.ndarray:
    """Read-only mean of ``f`` over each level-``n`` cell, one entry per cell;
    computed once per field and level."""
    means = f._means.get(n)
    if means is None:
        means = f._means[n] = _block_mean(f.values, f.filtration.block_factors(n))
        means.flags.writeable = False
    return means


def level_average_values(f: DiscreteField, n: int) -> np.ndarray:
    """Raw array of the level-n conditional average, expanded to the finest
    grid (read-only at the finest level)."""
    return _block_expand(level_means(f, n), f.filtration.block_factors(n))


def conditional_average(f: DiscreteField, n: int) -> DiscreteField:
    """Average of ``f`` over each level-``n`` cell, as a field constant on them."""
    return DiscreteField(f.filtration, level_average_values(f, n))


def cell_blocks(values: np.ndarray, filt: Filtration, n: int) -> np.ndarray:
    """Finest-grid values grouped by level-n cell, shape ``(cells, per_cell)``,
    cells in row-major order."""
    shape = []
    for size, fct in zip(values.shape, filt.block_factors(n)):
        shape.extend((size // fct, fct))
    perm = list(range(0, 2 * filt.ndim, 2)) + list(range(1, 2 * filt.ndim, 2))
    return values.reshape(shape).transpose(perm).reshape(filt.cell_count(n), -1)


@dataclass
class StoppingTime:
    """Level at which a scan stopped, per finest cell; ``TAU_INF`` = never.

    ``{tau = n}`` must be a union of level-``n`` cells; :meth:`is_valid`
    checks exactly that together with the range constraint.
    """

    filtration: Filtration
    tau: np.ndarray
    coarsest_average_max: float | None = None

    def __post_init__(self):
        self.tau = np.asarray(self.tau, dtype=np.int64)
        if self.tau.shape != self.filtration.shape:
            raise ValueError("tau shape does not match the filtration grid")

    def finite_mask(self) -> np.ndarray:
        return self.tau != TAU_INF

    def is_valid(self) -> bool:
        spec = self.filtration.spec
        finite = self.finite_mask()
        vals = self.tau[finite]
        if vals.size and (vals.min() < spec.n_min or vals.max() > spec.n_max):
            return False
        for n in np.unique(vals):
            mask = (self.tau == n).astype(np.float64)
            m = _block_mean(mask, self.filtration.block_factors(int(n)))
            if not np.all((m == 0.0) | (m == 1.0)):
                return False
        return True


def cz_stopping_time(g: DiscreteField, lam: float) -> StoppingTime:
    """First level whose cell average of ``g`` exceeds ``lam`` (strictly).

    Scans the level range ascending from the coarsest level.  Levels below
    the range are not scanned; the maximum coarsest-level average is recorded
    on the result so callers can check the truncation premise ``lam`` >= that
    value before relying on the stopped-average bound.
    """
    if lam <= 0:
        raise ValueError(f"threshold must be positive, got {lam}")
    if np.any(g.values < 0):
        raise ValueError("threshold scan expects a nonnegative field")
    filt = g.filtration
    tau = np.full(filt.shape, TAU_INF, dtype=np.int64)
    for n in filt.levels:
        hit = (level_average_values(g, n) > lam) & (tau == TAU_INF)
        tau[hit] = n
    coarse_max = float(level_means(g, filt.spec.n_min).max())
    return StoppingTime(filt, tau, coarsest_average_max=coarse_max)


def stopped_value(f: DiscreteField, st: StoppingTime) -> DiscreteField:
    """``f`` averaged at the stopping level; ``f`` itself where never stopped."""
    _require_same(f.filtration, st.filtration)
    out = f.values.copy()
    finite = st.finite_mask()
    for n in np.unique(st.tau[finite]):
        mask = st.tau == n
        out[mask] = level_average_values(f, int(n))[mask]
    return DiscreteField(f.filtration, out)


# ---------------------------------------------------------------------------
# serialization

def spec_to_config(spec: FiltrationSpec) -> dict[str, str]:
    cfg = {
        "geometry": spec.geometry,
        "d": str(spec.ndim),
        "k": ",".join(str(v) for v in spec.k),
        "n_min": str(spec.n_min),
        "n_max": str(spec.n_max),
        "box": ";".join(f"{lo!r}:{hi!r}" for lo, hi in zip(spec.lo, spec.hi)),
    }
    if spec.half_axes:
        cfg["half_axes"] = ",".join(str(a) for a in spec.half_axes)
    return cfg


def spec_from_config(cfg: dict[str, str]) -> FiltrationSpec:
    try:
        geometry = cfg["geometry"].strip()
        k = tuple(int(v) for v in cfg["k"].split(","))
        n_min = int(cfg["n_min"])
        n_max = int(cfg["n_max"])
        pairs = [part.split(":") for part in cfg["box"].split(";")]
        lo = tuple(float(p[0]) for p in pairs)
        hi = tuple(float(p[1]) for p in pairs)
    except (KeyError, IndexError, ValueError) as exc:
        raise ValueError(f"bad filtration config: {exc}") from exc
    half = ()
    if "half_axes" in cfg and cfg["half_axes"].strip():
        half = tuple(int(v) for v in cfg["half_axes"].split(","))
    elif geometry in ("half", "parabolic"):
        half = (0,)
    if int(cfg.get("d", len(k))) != len(k):
        raise ValueError("bad filtration config: d does not match k")
    return FiltrationSpec(geometry, k, n_min, n_max, lo, hi, half_axes=half)


def field_to_csv(f: DiscreteField) -> str:
    """CSV rows ``i0,...,i{d-1},value`` in row-major cell order."""
    buf = io.StringIO()
    ndim = f.filtration.ndim
    buf.write(",".join(f"i{ax}" for ax in range(ndim)) + ",value\n")
    for idx, val in zip(np.ndindex(*f.filtration.shape), f.values.flat):
        buf.write(",".join(str(i) for i in idx) + f",{float(val)!r}\n")
    return buf.getvalue()


def field_from_csv(filt: Filtration, text: str) -> DiscreteField:
    values = np.full(filt.shape, np.nan)
    lines = [ln for ln in text.splitlines() if ln.strip()]
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != filt.ndim + 1:
            raise ValueError(f"bad field row: {line!r}")
        idx = tuple(int(p) for p in parts[:-1])
        values[idx] = float(parts[-1])
    if np.any(np.isnan(values)):
        raise ValueError("field CSV does not cover every cell")
    return filt.field(values)


def field_to_binary(f: DiscreteField) -> bytes:
    """Raw little-endian float64 values in row-major cell order, no header.

    The shape comes from the accompanying filtration config block.
    """
    return np.ascontiguousarray(f.values, dtype="<f8").tobytes()


def field_from_binary(filt: Filtration, raw: bytes) -> DiscreteField:
    values = np.frombuffer(raw, dtype="<f8")
    expected = int(np.prod(filt.shape))
    if values.size != expected:
        raise ValueError(f"binary field holds {values.size} values, grid needs {expected}")
    return filt.field(values.reshape(filt.shape))
