"""Grid functions, finite differences, operator families, manufactured inputs.

Vertex-centered uniform grids over boxes, optionally with a leading time axis
(independent spacing); a half space is a box whose first space axis starts at
0.  Derivatives use second-order central stencils inside and second-order
one-sided stencils at faces, so they are exact on quadratics.  They are taken
only on the input's support box, its nonzero extent widened by a stencil halo, and are +0.0 at
every other node; the operator image there is +0.0 too, by the premise
``F(0, x) = 0`` that every positively homogeneous operator meets, and is
held on that box.  An operator is a callable on stacks of Hessians (and
their per-axis coordinates) with declared
ellipticity and Lipschitz bounds: linear trace forms, Bellman suprema over
coefficient families, the maximal Pucci operator with eigenvalue bounds
``[delta, 1/delta]``, and tabulated callables.  The oscillation functional
measures the averaged distance of an x-dependent operator from a given
x-independent model over a shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centered grid on a box.

    ``time_axis`` marks axis 0 as time (excluded from spatial derivatives).
    The box is the whole domain: a half space {x_1 >= 0} is a box whose
    first space axis starts at 0, and nothing else marks it.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]
    time_axis: bool = False

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise ValueError("lo, hi, shape must have one entry per axis")
        if any(n < 2 for n in self.shape):
            raise ValueError("grids need at least 2 nodes per axis")
        if not np.isfinite(self.lo + self.hi).all():
            raise ValueError(f"box corners must be finite, got lo={self.lo}, hi={self.hi}")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("degenerate box")
        if self.time_axis and self.lo[0] < 0:
            raise ValueError("time axis starts at t >= 0")

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def space_axes(self) -> tuple[int, ...]:
        return tuple(range(1, self.ndim)) if self.time_axis else tuple(range(self.ndim))

    @property
    def n_space(self) -> int:
        return len(self.space_axes)

    def spacing(self, axis: int) -> float:
        return (self.hi[axis] - self.lo[axis]) / (self.shape[axis] - 1)

    def axis_nodes(self, axis: int) -> np.ndarray:
        """Read-only ``np.linspace`` of ``axis``'s nodes, built once per grid."""
        return self._axes[axis]

    @cached_property
    def _axes(self) -> tuple[np.ndarray, ...]:
        axes = tuple(map(np.linspace, self.lo, self.hi, self.shape))
        for x in axes:
            x.flags.writeable = False
        return axes

    def coordinates(self, box: tuple[slice, ...] | None = None) -> tuple[np.ndarray, ...]:
        """Per axis, ``axis_nodes`` sliced to ``box`` (the whole grid by
        default) and shaped ``(1, ..., n, ..., 1)`` to broadcast to the box."""
        return tuple(self.axis_nodes(ax)[s].reshape((1,) * ax + (-1,) + (1,) * (self.ndim - 1 - ax))
                     for ax, s in enumerate(box or (slice(None),) * self.ndim))

    def nodes(self) -> np.ndarray:
        """Node coordinates, shape ``(*shape, ndim)``."""
        return np.stack(np.broadcast_arrays(*self.coordinates()), axis=-1)


def box_grid(lo, hi, shape, time_axis=False) -> Grid:
    return Grid(tuple(map(float, lo)), tuple(map(float, hi)), tuple(int(n) for n in shape),
                time_axis=time_axis)


@dataclass
class GridFunction:
    """Node samples of a function on a :class:`Grid`.

    ``values`` covers the nodes of ``box``, slices of the grid (the whole
    grid by default), and may carry trailing channel axes (vector or matrix
    valued samples); the function is +0.0 at every other node.  The geometric
    operators take either form and read it as :meth:`padded`.
    """

    grid: Grid
    values: np.ndarray
    box: tuple[slice, ...] | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        self.box = tuple(slice(*s.indices(n)[:2]) for s, n in
                         zip(self.box or (slice(None),) * self.grid.ndim, self.grid.shape))
        g = tuple(len(range(n)[s]) for n, s in zip(self.grid.shape, self.box))
        if self.values.shape[:len(g)] != g:
            raise ValueError(f"values shape {self.values.shape} does not start with box {g}")

    @property
    def channels(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.ndim:]

    def padded(self) -> np.ndarray:
        """``values`` on the whole grid, +0.0 off ``box``."""
        out = np.zeros(self.grid.shape + self.channels)
        out[self.box] = self.values
        return out


# ---------------------------------------------------------------------------
# finite differences

# How far past an input's nonzero values the differences are taken: a slab
# edge's one-sided second difference reads four nodes, so at this distance it
# reads only zeros, as the whole grid's central stencils there do.
_HALO = 4


def _diff1(values: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    o[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    o[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)


def _diff2(values: np.ndarray, axis: int, h: float, out: np.ndarray) -> None:
    v, o = np.moveaxis(values, axis, 0), np.moveaxis(out, axis, 0)
    o[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    if len(v) >= 4:
        o[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        o[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    else:
        o[0] = o[-1] = (v[0] - 2.0 * v[1] + v[2]) / (h * h)


def support_box(values: np.ndarray) -> tuple[slice, ...]:
    """Per axis, the nodes within ``_HALO`` of a nonzero value of ``values``,
    clipped to the grid; empty slices when every value is zero."""
    nonzero = values != 0
    box = []
    for ax, n in enumerate(values.shape):
        hit = np.flatnonzero(nonzero.any(axis=tuple(a for a in range(values.ndim) if a != ax)))
        box.append(slice(max(int(hit[0]) - _HALO, 0), min(int(hit[-1]) + _HALO + 1, n))
                   if hit.size else slice(0, 0))
    return tuple(box)


@dataclass
class Derivatives:
    """Gradient, Hessian and (optionally) time derivative on a grid.

    They are held on ``box``, slices of the grid (a support box, or a slab of
    its axis-0 layers in :func:`operator_fields`): ``box_du``, ``box_d2u`` and
    ``box_dt`` cover its nodes, and every other node's derivatives are +0.0."""

    box: tuple[slice, ...]
    box_du: np.ndarray           # (*box shape, n_space)
    box_d2u: np.ndarray          # (*box shape, n_space, n_space), exactly symmetric
    box_dt: np.ndarray | None    # (*box shape) on time grids


def _derivative_box(u: GridFunction) -> tuple[tuple[slice, ...], np.ndarray]:
    # the support box of u's samples, as slices of the grid, and the samples
    # on it; at a box edge inside the grid the widened support must fit
    if u.channels or min(u.grid.shape) < 3:
        raise ValueError("finite differences need scalar samples and at least 3 nodes per axis")
    for ax, (s, n) in enumerate(zip(u.box, u.grid.shape)):
        v = np.moveaxis(u.values, ax, 0)
        if (s.start > 0 and v[:_HALO].any()) or (s.stop < n and v[-_HALO:].any()):
            raise ValueError(f"box samples are nonzero within {_HALO} nodes of an edge of their "
                             "box inside the grid, so differencing them would not equal "
                             "differencing the whole grid")
    local = support_box(u.values)
    return tuple(slice(b.start + s.start, b.stop + s.start) if b.stop else b
                 for b, s in zip(local, u.box)), u.values[local]


def _difference(values: np.ndarray, g: Grid) -> tuple[np.ndarray, np.ndarray]:
    # gradient and Hessian of samples on consecutive nodes of ``g``; mixed
    # entries are nested first differences
    sp = g.space_axes
    du = np.empty(values.shape + (len(sp),))
    d2u = np.empty(du.shape + (len(sp),))
    for a, ax in enumerate(sp if values.size else ()):
        _diff1(values, ax, g.spacing(ax), du[..., a])
        _diff2(values, ax, g.spacing(ax), d2u[..., a, a])
        for b in range(a):
            _diff1(du[..., b], ax, g.spacing(ax), d2u[..., b, a])
            d2u[..., a, b] = d2u[..., b, a]
    return du, d2u


def fd_derivatives(u: GridFunction) -> Derivatives:
    """Second-order finite differences of a scalar grid function.

    Only the support box (:func:`support_box`) of ``u``'s samples, on the
    whole grid or a box of it, is differenced, as a slab with the grid's
    spacings.  The halo makes the slab's one-sided edge stencils read only
    zeros, as the whole grid's central stencils there do, so the values are
    those of differencing the whole grid, bit for bit, wherever the input's
    zeros are +0.0; box samples nonzero within the halo of a box edge inside
    the grid are refused.  Mixed entries are nested one-dimensional first
    differences, applied along distinct axes, so the Hessian is symmetric to
    the last bit.
    """
    g = u.grid
    box, slab = _derivative_box(u)
    du, d2u = _difference(slab, g)
    dt = np.empty(slab.shape) if g.time_axis else None
    if g.time_axis and slab.size:
        _diff1(slab, 0, g.spacing(0), dt)
    return Derivatives(box, du, d2u, dt)


_SLAB_NODES = 2 ** 14


def axis0_slabs(shape: tuple[int, ...]):
    """Consecutive slices of axis 0 of ``shape``, of about ``_SLAB_NODES``
    nodes (at least one layer) each."""
    step = max(1, _SLAB_NODES // max(1, int(np.prod(shape[1:]))))
    return (slice(a, min(a + step, shape[0])) for a in range(0, shape[0], step))


def by_slabs(fn: Callable, shape: tuple[int, ...]) -> np.ndarray:
    """The array of ``shape`` that holds ``fn(s)`` on each slab ``s`` of
    :func:`axis0_slabs`, so ``fn``'s temporaries never span the array."""
    out = np.empty(shape)
    for s in axis0_slabs(shape):
        out[s] = fn(s)
    return out


def sample_nodes(fn: Callable, axes, channels: tuple = ()) -> np.ndarray:
    """``fn`` on the product of the 1-D coordinate arrays ``axes``, trailed by
    ``channels``, given the flat point rows of one :func:`by_slabs` slab at a time."""
    def slab(s):
        X = np.stack(np.meshgrid(axes[0][s], *axes[1:], indexing="ij"), axis=-1)
        return np.asarray(fn(X.reshape(-1, len(axes)))).reshape(X.shape[:-1] + channels)
    return by_slabs(slab, tuple(map(len, axes)) + channels)


def frobenius(H: np.ndarray) -> np.ndarray:
    """Entrywise-l2 matrix magnitude over the trailing two axes."""
    return np.sqrt(np.einsum("...ij,...ij->...", H, H))


def sum_of_squares(parts) -> np.ndarray:
    """``p0 * p0 + p1 * p1 + ...`` over arrays that broadcast together, added
    in order: bit for bit numpy's sum of the stacked squares over a short
    trailing axis."""
    parts = iter(parts)
    first = next(parts)
    total = first * first
    for part in parts:
        total = total + part * part
    return total


def in_shape(r: float, space, t=None) -> np.ndarray:
    """Membership of offsets in the open ball ``|x|^2 < r*r`` (``space``: one
    offset array per space axis, broadcasting together) or, with time offsets
    ``t``, the forward cylinder ``[0, r*r) x B_r``: sharpcheck's one rule."""
    r2 = r * r
    inside = sum_of_squares(space) < r2
    return inside if t is None else inside & ((t >= 0) & (t < r2))


def euclidean(v: np.ndarray) -> np.ndarray:
    """Euclidean magnitude over the trailing axis, bit for bit
    ``np.linalg.norm(v, axis=-1)``."""
    return np.sqrt(sum_of_squares(np.moveaxis(v, -1, 0)))


def power(x, p: float):
    """``x ** p`` for ``x >= 0`` and ``p > 0``, bit for bit, with exact zeros
    filled in instead of raised: numpy's SIMD ``pow`` sends zeros down a slow
    special-value path, and they fill most nodes of a compactly supported
    input's grid.  0-d inputs (which numpy evaluates with libm) and the
    exponents numpy evaluates as ``sqrt`` and ``square`` go to ``**``."""
    if np.ndim(x) == 0 or p in (0.5, 2.0):
        return x ** p
    out = np.zeros(np.shape(x), np.result_type(x, p))
    if p % 2 == 1:                    # an odd power keeps the sign of -0.0
        np.copysign(out, x, out=out)
    return np.power(x, p, out=out, where=x != 0)


def symmetrize(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + np.swapaxes(H, -1, -2))


# ---------------------------------------------------------------------------
# operators on Hessians

# rows of a 2x2 stack per block of the closed-form eigenvalue kernel
_BLOCK_ROWS = 2 ** 14
# LAPACK's dsterf split tolerances, eps = dlamch('E') and eps**2
_EPS = 2.0 ** -53
_EPS2 = _EPS * _EPS


def check_delta(delta: float) -> None:
    """Reject an ellipticity bound outside ``(0, 1]`` before it divides."""
    if not 0 < delta <= 1:
        raise ValueError(f"delta must lie in (0, 1], got {delta}")


def check_scale(name: str, value) -> None:
    """Reject a radius or width (or array of them) unless finite and positive."""
    if not np.all((0 < np.asarray(value, dtype=np.float64)) & (np.asarray(value) < np.inf)):
        raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _eigvalsh_2x2(H: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two eigenvalues of each matrix of a ``(m, 2, 2)`` stack, bit for
    bit as ``np.linalg.eigvalsh`` returns them (in no particular order)."""
    a, b, c = H[:, 0, 0], H[:, 1, 0], H[:, 1, 1]
    aa, ac = np.abs(a), np.abs(c)
    big = np.maximum(np.maximum(aa, np.abs(b)), ac)
    unscaled = (big < 2.0 ** 400) & ((big > 2.0 ** -400) | (big == 0.0))
    with np.errstate(all="ignore"):
        # dsterf: an off-diagonal that passes either split test leaves a, c
        e = b * b
        split = ((np.abs(b) <= np.sqrt(aa) * np.sqrt(ac) * _EPS)
                 | (e <= _EPS2 * np.abs(a * c)))
        # dlae2(a, sqrt(e), c); unsplit rows have adf or ab nonzero
        rte = np.sqrt(e)
        sm = a + c
        adf = np.abs(a - c)
        ab = np.abs(rte + rte)
        hi, lo = np.maximum(adf, ab), np.minimum(adf, ab)
        ratio = lo / hi
        rt = hi * np.sqrt(1.0 + ratio * ratio)
        # sm = -0 takes dlae2's sm = 0 branch, rt1 = rt / 2, so not copysign
        rt1 = 0.5 * (sm + np.where(sm < 0.0, -rt, rt))
        a_big = aa > ac
        acmx, acmn = np.where(a_big, a, c), np.where(a_big, c, a)
        rt2 = np.where(sm == 0.0, -0.5 * rt, (acmx / rt1) * acmn - (rte / rt1) * rte)
    w1, w2 = np.where(split, a, rt1), np.where(split, c, rt2)
    if not unscaled.all():
        w = np.linalg.eigvalsh(H[~unscaled])
        w1[~unscaled], w2[~unscaled] = w[:, 0], w[:, 1]
    return w1, w2


def pucci_extremal(H: np.ndarray, delta: float) -> np.ndarray:
    """Maximal Pucci operator: the supremum of the trace form over
    coefficient matrices with eigenvalues in ``[delta, 1/delta]``, in closed
    form ``pos / delta + neg * delta`` through the sums of the positive and
    negative eigenvalues.

    The eigenvalues of 2x2 stacks come from a vectorised port of the path
    ``np.linalg.eigvalsh`` takes through LAPACK: ``dsyevd`` (lower
    triangle) reduces a 2x2 matrix to itself as a tridiagonal, ``dsterf``
    applies its two split tests to the off-diagonal ``H[..., 1, 0]``, and
    ``dlae2`` solves an unsplit matrix in closed form; the port keeps their
    operation order, so the values are bit-identical.  Rows whose largest
    entry lies outside ``(2**-400, 2**400)``, where LAPACK rescales, and
    non-finite rows go to ``eigvalsh``, as do all other matrix sizes.  The
    kernel runs over blocks of ``_BLOCK_ROWS`` rows, so its temporaries stay
    small beside the one output array.
    """
    check_delta(delta)
    H = np.asarray(H, dtype=np.float64)
    if H.shape[-2:] != (2, 2):
        w = np.linalg.eigvalsh(H)
        pos, neg = np.clip(w, 0.0, None).sum(axis=-1), np.clip(w, None, 0.0).sum(axis=-1)
        return pos / delta + neg * delta
    stack = H.reshape(-1, 2, 2)
    out = np.empty(stack.shape[0])
    for i in range(0, stack.shape[0], _BLOCK_ROWS):
        w1, w2 = _eigvalsh_2x2(stack[i:i + _BLOCK_ROWS])
        pos = np.clip(w1, 0.0, None) + np.clip(w2, 0.0, None)
        neg = np.clip(w1, None, 0.0) + np.clip(w2, None, 0.0)
        out[i:i + _BLOCK_ROWS] = pos / delta + neg * delta
    # [()] gives a scalar for a single matrix, as eigvalsh's path does
    return out.reshape(H.shape[:-2])[()]


def _trace_form(coeff, H: np.ndarray, x) -> np.ndarray:
    """``A(x) : H`` for a constant ``(ds, ds)`` coefficient or a callable of
    the coordinates ``x`` returning one matrix per Hessian of ``H``."""
    A = np.asarray(coeff(x) if callable(coeff) else coeff, dtype=np.float64)
    return np.einsum("...ij,...ij->...", np.broadcast_to(A, H.shape), H)


@dataclass
class Operator:
    """Second-order operator ``fn(H, x)`` on Hessian stacks, optionally
    x-dependent, with its ellipticity bound ``delta``, advertised Lipschitz
    bound ``k_f`` in the Frobenius metric and advertised positive
    1-homogeneity.
    ``H`` has shape ``(*rows, ds, ds)``, ``x`` is a tuple of per-axis
    coordinate arrays broadcasting to ``rows``; ``fn`` returns a new array."""

    fn: Callable
    delta: float
    k_f: float | None = None
    homogeneous: bool = True

    def __post_init__(self):
        check_delta(self.delta)
        if not callable(self.fn):
            raise ValueError("operator needs a callable")

    def __call__(self, H: np.ndarray, x=None) -> np.ndarray:
        """Evaluate at Hessians ``H`` and coordinates ``x`` (ignored by
        x-independent operators; the origin when omitted)."""
        H = np.asarray(H, dtype=np.float64)
        return np.asarray(self.fn(H, (0.0,) * H.shape[-1] if x is None else x), dtype=np.float64)


def linear_operator(coeff, delta: float, **kw) -> Operator:
    return Operator(lambda H, x: _trace_form(coeff, H, x), delta, **kw)


def bellman_operator(family, delta: float, **kw) -> Operator:
    family = tuple(family)
    if not family:
        raise ValueError("bellman operator needs a nonempty coefficient family")
    return Operator(lambda H, x: np.stack([_trace_form(c, H, x) for c in family]).max(axis=0),
                    delta, **kw)


def pucci_operator(delta: float, d: int | None = None, **kw) -> Operator:
    check_delta(delta)
    if "k_f" not in kw and d is not None:
        kw["k_f"] = d / delta
    return Operator(lambda H, x: pucci_extremal(H, delta), delta, **kw)


def tabulated_operator(fn: Callable, delta: float, **kw) -> Operator:
    return Operator(fn, delta, **kw)


def evaluate_operator(op: Operator, u: GridFunction, derivs: Derivatives) -> GridFunction:
    """``F(D2u, x)`` from ``u``'s derivatives ``derivs``; adds the time
    derivative on time grids.  Of ``u``, only ``u.grid`` is read.

    Returns a :class:`GridFunction` on ``derivs.box``, as the geometric
    operators take it: ``F`` takes the box's Hessians and axis coordinates
    (:meth:`Grid.coordinates`), not a point array.  Every other node holds
    +0.0 by the premise ``F(0, x) = 0`` that every positively homogeneous
    operator meets (the ``build_operator`` kinds of ``harness.catalog``
    do); an operator not flagged ``homogeneous`` is refused.
    """
    if not op.homogeneous:
        raise ValueError("operators are evaluated on the support box only, "
                         "which needs a positively homogeneous operator")
    g = u.grid
    vals = op(derivs.box_d2u, g.coordinates(derivs.box))
    if g.time_axis:
        vals += derivs.box_dt
    return GridFunction(g, vals, derivs.box)


def operator_fields(op: Operator, u: GridFunction):
    """``(box, values, image, hessian, gradient)``: :func:`fd_derivatives`'s
    box and on it the samples, :func:`evaluate_operator`'s image and the
    :func:`frobenius` and :func:`euclidean` magnitudes, bit for bit, built
    one slab of axis-0 layers at a time.  The time derivative, read across
    time layers, is differenced once, into the image; on a grid without time
    a slab is differenced in a window of at least four layers around it."""
    g = u.grid
    box, vals = _derivative_box(u)
    image, hessian, gradient = (np.empty(vals.shape) for _ in range(3))
    if g.time_axis and vals.size:
        _diff1(vals, 0, g.spacing(0), image)
    m, pad = vals.shape[0], 0 if g.time_axis else 1
    for s in axis0_slabs(vals.shape):
        lo, hi = max(min(s.start - pad, m - 4 * pad), 0), min(max(s.stop + pad, 4 * pad), m)
        du, d2u = (a[s.start - lo:s.stop - lo] for a in _difference(vals[lo:hi], g))
        rows = (slice(box[0].start + s.start, box[0].start + s.stop),) + box[1:]
        slab = Derivatives(rows, du, d2u, image[s] if g.time_axis else None)
        image[s] = evaluate_operator(op, u, slab).values
        hessian[s], gradient[s] = frobenius(d2u), euclidean(du)
    return box, vals.copy(), image, hessian, gradient


# ---------------------------------------------------------------------------
# sampled class membership

@dataclass
class ClassReport:
    """Outcome of sampled operator-class checks."""

    passed: bool
    max_lipschitz_ratio: float
    ellipticity_range: tuple[float, float]
    failures: list = field(default_factory=list)


def check_operator_class(op: Operator, d: int, budget: int = 200,
                         seed: int = 0) -> ClassReport:
    """Sampled verification, at points of ``[-1, 1]^d`` and to relative
    tolerance 1e-9, of Lipschitz bound, zero normalization, two-sided
    ellipticity quotients and (when advertised) homogeneity."""
    if budget < 1:
        raise ValueError("budget must be at least 1")
    rtol = 1e-9
    rng = np.random.default_rng(seed)
    x = tuple(rng.uniform(-1.0, 1.0, size=(budget, d)).T)
    M = symmetrize(rng.normal(size=(budget, d, d)) * rng.uniform(0.1, 10.0, size=(budget, 1, 1)))
    N = symmetrize(rng.normal(size=(budget, d, d)))
    failures = []

    fm, fn = op(M, x), op(N, x)
    lips = np.abs(fm - fn) / np.maximum(frobenius(M - N), 1e-300)
    max_lip = float(lips.max())
    if op.k_f is not None and max_lip > op.k_f * (1 + rtol):
        failures.append(("lipschitz", max_lip))

    zero = float(np.abs(op(np.zeros((budget, d, d)), x)).max())
    if zero > rtol:
        failures.append(("zero_value", zero))

    G = rng.normal(size=(budget, d, d))
    P = np.einsum("nij,nkj->nik", G, G)
    s = rng.uniform(0.1, 5.0, size=budget)
    quot = (op(M + s[:, None, None] * P, x) - fm) / (s * np.einsum("nii->n", P))
    emin, emax = float(quot.min()), float(quot.max())
    if emin < op.delta * (1 - rtol) - rtol or emax > (1 / op.delta) * (1 + rtol) + rtol:
        failures.append(("ellipticity", (emin, emax)))

    hom = 0.0
    if op.homogeneous:
        c = rng.uniform(0.25, 8.0, size=budget)
        hom = float(np.abs(op(c[:, None, None] * M, x) - c * fm).max()
                    / max(1.0, np.abs(fm).max()))
        if hom > rtol * 10:
            failures.append(("homogeneity", hom))

    return ClassReport(not failures, max_lip, (emin, emax), failures)


# ---------------------------------------------------------------------------
# oscillation distance to an x-independent model

def unit_hessian_directions(d: int, seed: int = 0) -> np.ndarray:
    """Unit-Frobenius symmetric matrices: coordinate directions, the
    normalized identity, and 16 seeded random rotations of random spectra."""
    dirs = []
    for i in range(d):
        E = np.zeros((d, d))
        E[i, i] = 1.0
        dirs.append(E)
        dirs.append(-E)
    for i in range(d):
        for j in range(i + 1, d):
            E = np.zeros((d, d))
            E[i, j] = E[j, i] = 1.0 / np.sqrt(2.0)
            dirs.append(E)
    dirs.append(np.eye(d) / np.sqrt(d))
    dirs.append(-np.eye(d) / np.sqrt(d))
    rng = np.random.default_rng(seed)
    for _ in range(16):
        q, _ = np.linalg.qr(rng.normal(size=(d, d)))
        s = rng.normal(size=d)
        s /= np.linalg.norm(s)
        dirs.append((q * s) @ q.T)
    return np.stack(dirs)


def shape_quadrature(center, radius: float, shape: str = "ball",
                     density: int = 24) -> np.ndarray:
    """Midpoint-lattice nodes inside a ball, half ball, forward-in-time
    cylinder ``[t, t + r^2) x B_r`` or half cylinder (``in_shape``); a half
    shape keeps the nodes whose first space coordinate is nonnegative."""
    if shape not in ("ball", "half_ball", "cylinder", "half_cylinder"):
        raise ValueError(f"unknown shape {shape!r}")
    center = np.asarray(center, dtype=np.float64)
    d = center.size
    cyl = int(shape.endswith("cylinder"))
    axes = [center[i] - radius + (np.arange(density) + 0.5) * (2 * radius / density)
            for i in range(cyl, d)]
    if cyl:
        axes.insert(0, center[0] + (np.arange(density) + 0.5) * (radius ** 2 / density))
    X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
    off = (X - center).T
    keep = in_shape(radius, off[cyl:], off[0] if cyl else None)
    if shape.startswith("half"):
        keep &= X[:, cyl] >= 0
    X = X[keep]
    if X.shape[0] == 0:
        raise ValueError("quadrature shape contains no nodes")
    return X


def tau_ladder(tau0: float) -> np.ndarray:
    """21-step geometric scan grid for the scale supremum; for ``tau0 = 0`` the
    base drops to ``2**-10`` so the scan still covers small and large scales."""
    base = tau0 if tau0 > 0 else 2.0 ** -10
    return base * 2.0 ** np.arange(21)


@dataclass
class ThetaResult:
    value: float
    per_direction: np.ndarray
    n_nodes: int
    taus: np.ndarray


def oscillation_theta(op: Operator, model: Callable, center, radius: float, *,
                      shape: str = "ball", tau0: float = 0.0, homogeneous: bool = False,
                      density: int = 24, seed: int = 0) -> ThetaResult:
    """Averaged worst-scale deviation of ``op`` from the x-independent
    ``model`` over a shape: max over unit Hessian directions of the shape
    average of ``sup_tau |F(tau u'', x) - model(tau u'')| / tau``.

    ``homogeneous=True`` drops the scale supremum and compares at scale 1.
    ``model`` maps a stack of Hessians to values.
    """
    X = shape_quadrature(center, radius, shape=shape, density=density)
    x = tuple(X.T)
    d_space = X.shape[1] - shape.endswith("cylinder")
    dirs = unit_hessian_directions(d_space, seed=seed)
    taus = np.array([1.0]) if homogeneous else tau_ladder(tau0)
    per_dir = np.zeros(len(dirs))
    for k, U in enumerate(dirs):
        worst = np.zeros(X.shape[0])
        for tau in taus:
            H = np.broadcast_to(tau * U, (X.shape[0], d_space, d_space))
            ref = float(model(tau * U[None])[0])
            dev = np.abs(op(H, x) - ref) / tau
            np.maximum(worst, dev, out=worst)
        per_dir[k] = worst.mean()
    return ThetaResult(float(per_dir.max()), per_dir, X.shape[0], taus)


def homogenized_model(model: Callable) -> Callable:
    """Large-scale limit ``u'' -> F(s u'') / s`` of a convex model at s = 2**20."""
    return lambda H: model(np.asarray(H) * 2.0 ** 20) / 2.0 ** 20


# ---------------------------------------------------------------------------
# manufactured inputs with analytic derivatives

@dataclass
class ManufacturedFunction:
    """Closed-form input: values plus analytic gradient/Hessian callbacks.

    Callbacks take flat coordinate rows ``(n, ndim)`` of the grid the
    function is sampled on.  A time product ``q(t) * u(x)`` (see
    :func:`with_time_profile`) holds the time factor and its derivative in
    ``time`` and the spatial factor's callbacks, and is sampled on time grids
    only, factor by factor: the time factor on the time-axis nodes, the
    callbacks on the nodes of the spatial axes, multiplied once by
    broadcasting; an input without ``time`` is sampled on grids without time
    only.  ``support`` holds a closed interval per grid axis outside which
    the function is 0 (``(-inf, inf)`` on an axis where it has no bound);
    :meth:`on_grid` samples only the nodes inside, widened by ``_HALO``.
    """

    u: Callable
    du: Callable
    d2u: Callable
    support: tuple[tuple[float, float], ...]
    time: tuple[Callable, Callable] | None = None

    def _sample(self, grid: Grid, fn: Callable, channels: tuple = (), order: int = 0,
                box: tuple[slice, ...] | None = None):
        """``fn`` on the nodes of ``box`` (default: all), trailed by ``channels``;
        for a time product, times the time factor's ``order``-th derivative."""
        if grid.time_axis != (self.time is not None):
            raise ValueError("a time product is sampled on time grids only" if self.time else
                             "a space-only input is sampled on grids without time only; "
                             "with_time_profile makes it a time product")
        axes = [grid.axis_nodes(ax)[s] for ax, s in enumerate(box or (slice(None),) * grid.ndim)]
        if self.time is None:
            return sample_nodes(fn, axes, channels)
        x = sample_nodes(fn, axes[1:], channels)
        return self.time[order](axes[0]).reshape((-1,) + (1,) * x.ndim) * x

    def on_grid(self, grid: Grid) -> GridFunction:
        """Samples on the support box; +0.0 at every other node."""
        box = tuple(support_box((x >= a) & (x <= b))[0]
                    for x, (a, b) in zip(map(grid.axis_nodes, range(grid.ndim)), self.support))
        return GridFunction(grid, self._sample(grid, self.u, box=box), box)

    def derivatives(self, grid: Grid) -> Derivatives:
        ds = grid.n_space
        du = self._sample(grid, self.du, (ds,))
        d2u = self._sample(grid, self.d2u, (ds, ds))
        dt = self._sample(grid, self.u, order=1) if grid.time_axis else None
        return Derivatives((slice(None),) * grid.ndim, du, d2u, dt)


def _bump_parts(s: np.ndarray):
    # g(s) = exp(-1/(1-s)) on s < 1, extended by 0, after its mask and 1 - s
    safe = s < 1.0 - 1e-8
    t = np.where(safe, 1.0 - s, 1.0)
    return safe, t, np.where(safe, np.exp(-1.0 / t), 0.0)


def _bump_profile(s: np.ndarray):
    # g with its first two derivatives
    safe, t, g = _bump_parts(s)
    g1 = np.where(safe, -g / t ** 2, 0.0)
    g2 = np.where(safe, g * (1.0 / t ** 4 - 2.0 / t ** 3), 0.0)
    return g, g1, g2


def _radial_bump(center, radius, amplitude):
    c = np.asarray(center, dtype=np.float64)
    R2 = float(radius) ** 2

    def scaled(X):
        Y = X - c
        return Y, sum_of_squares(Y.T) / R2

    def u(X):
        _, s = scaled(X)
        return amplitude * _bump_parts(s)[2]

    def du(X):
        Y, s = scaled(X)
        _, g1, _ = _bump_profile(s)
        return amplitude * g1[:, None] * (2.0 * Y / R2)

    def d2u(X):
        Y, s = scaled(X)
        _, g1, g2 = _bump_profile(s)
        ds = Y.shape[1]
        grad_s = 2.0 * Y / R2
        out = amplitude * g2[:, None, None] * grad_s[:, :, None] * grad_s[:, None, :]
        out += amplitude * g1[:, None, None] * (2.0 / R2) * np.eye(ds)
        return out

    return u, du, d2u


def _make_bump(d, center=None, radius=1.0, amplitude=1.0):
    center = np.zeros(d) if center is None else np.asarray(center, dtype=np.float64)
    u, du, d2u = _radial_bump(center, radius, amplitude)
    return ManufacturedFunction(u, du, d2u, support=tuple(zip(center - radius, center + radius)))


def _make_gaussian(d, sigma=1.0):
    s2 = float(sigma) ** 2

    def u(X):
        return np.exp(-sum_of_squares(X.T) / (2 * s2))

    def du(X):
        return -u(X)[:, None] * X / s2

    def d2u(X):
        base = u(X)[:, None, None]
        return base * (X[:, :, None] * X[:, None, :] / s2 ** 2 - np.eye(X.shape[1]) / s2)

    return ManufacturedFunction(u, du, d2u, support=((-np.inf, np.inf),) * d)


def _make_exp_growth(d):
    if d != 1:
        raise ValueError("the exponential-growth input is one dimensional")

    def u(X):
        return np.exp(X[:, 0])

    def du(X):
        return np.exp(X[:, 0])[:, None]

    def d2u(X):
        return np.exp(X[:, 0])[:, None, None]

    return ManufacturedFunction(u, du, d2u, support=((-np.inf, np.inf),) * d)


def _make_slab_bump(d, centers, radii):
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    if centers.size != d or radii.size != d:
        raise ValueError("slab bump needs one center and radius per axis")

    def parts(X):
        s = ((X - centers) / radii) ** 2
        g, g1, g2 = _bump_profile(s)
        dsdx = 2.0 * (X - centers) / radii ** 2
        b1 = g1 * dsdx
        b2 = g2 * dsdx ** 2 + g1 * (2.0 / radii ** 2)
        return g, b1, b2

    def u(X):
        g, _, _ = parts(X)
        return g.prod(axis=1)

    def _others(g, skip):
        rest = np.ones(g.shape[0])
        for a in range(g.shape[1]):
            if a not in skip:
                rest = rest * g[:, a]
        return rest

    def du(X):
        g, b1, _ = parts(X)
        n, ds = X.shape
        out = np.empty((n, ds))
        for i in range(ds):
            out[:, i] = b1[:, i] * _others(g, {i})
        return out

    def d2u(X):
        g, b1, b2 = parts(X)
        n, ds = X.shape
        out = np.empty((n, ds, ds))
        for i in range(ds):
            for j in range(ds):
                fac = b2[:, i] if i == j else b1[:, i] * b1[:, j]
                out[:, i, j] = fac * _others(g, {i, j})
        return out

    return ManufacturedFunction(u, du, d2u, support=tuple(zip(centers - radii, centers + radii)))


def _make_odd_bump(d, radius=1.0):
    # x_1 times a radial bump centered on the boundary plane: odd in x_1,
    # identically zero on {x_1 = 0}, supported in the centered ball
    b, db, d2b = _radial_bump(np.zeros(d), radius, 1.0)

    def u(X):
        return X[:, 0] * b(X)

    def du(X):
        out = X[:, 0][:, None] * db(X)
        out[:, 0] += b(X)
        return out

    def d2u(X):
        B1 = db(X)
        out = X[:, 0][:, None, None] * d2b(X)
        out[:, 0, :] += B1
        out[:, :, 0] += B1
        return out

    return ManufacturedFunction(u, du, d2u, support=((-radius, radius),) * d)


def manufactured(name: str, d: int, **params) -> ManufacturedFunction:
    """Library factory; ``d`` is the spatial dimension."""
    makers = {
        "bump": _make_bump,
        "gaussian": _make_gaussian,
        "exp_growth": _make_exp_growth,
        "slab_bump": _make_slab_bump,
        "odd_bump": _make_odd_bump,
    }
    if name not in makers:
        raise ValueError(f"unknown manufactured input {name!r}; library: {', '.join(makers)}")
    for key in sorted({"radius", "radii", "sigma"} & set(params)):
        check_scale(key, params[key])
    return makers[name](d, **params)


def with_time_profile(mf: ManufacturedFunction, t_center: float = 0.0,
                      t_radius: float = 1.0) -> ManufacturedFunction:
    """Space-time input ``q(t) * u(x)`` whose time factor ``q`` is the bump
    ``exp(-1/(1-s))``, ``s = ((t - t_center) / t_radius)**2``, supported on
    ``[t_center - t_radius, t_center + t_radius]``; its samples are evaluated
    factor by factor (see :class:`ManufacturedFunction`)."""
    check_scale("t_radius", t_radius)
    span = (t_center - t_radius, t_center + t_radius)

    def q(t):
        return _bump_parts(((t - t_center) / t_radius) ** 2)[2]

    def q1(t):
        s = ((t - t_center) / t_radius) ** 2
        _, g1, _ = _bump_profile(s)
        return g1 * 2.0 * (t - t_center) / t_radius ** 2

    return ManufacturedFunction(mf.u, mf.du, mf.d2u, support=(span,) + mf.support, time=(q, q1))
