"""Grid functions, finite differences, operator families, manufactured inputs.

Vertex-centered uniform grids over boxes, optionally with a leading time axis
(independent spacing) and a half-space axis clipped at 0.  Derivatives use
second-order central stencils inside and second-order one-sided stencils at
faces, so they are exact on quadratics.  They are taken only on the input's
support box, its nonzero extent widened by a stencil halo, and are +0.0 at
every other node; the operator image there is +0.0 too, by the premise
``F(0, x) = 0`` that every positively homogeneous operator meets.  An
operator is a callable on stacks of Hessians (and their points) with declared
ellipticity and Lipschitz bounds: linear trace forms, Bellman suprema over
coefficient families, the extremal operators with eigenvalue bounds
``[delta, 1/delta]``, and tabulated callables.  The oscillation functional
measures the averaged distance of an x-dependent operator from a given
x-independent model over a shape.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


# ---------------------------------------------------------------------------
# grids

@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centered grid on a box.

    ``time_axis`` marks axis 0 as time (excluded from spatial derivatives);
    ``half_axis`` marks the axis whose lower face lies on the boundary
    hyperplane {coordinate = 0}.
    """

    lo: tuple[float, ...]
    hi: tuple[float, ...]
    shape: tuple[int, ...]
    time_axis: bool = False
    half_axis: int | None = None

    def __post_init__(self):
        if not (len(self.lo) == len(self.hi) == len(self.shape)):
            raise ValueError("lo, hi, shape must have one entry per axis")
        if any(n < 2 for n in self.shape):
            raise ValueError("grids need at least 2 nodes per axis")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise ValueError("degenerate box")
        if self.half_axis is not None and self.lo[self.half_axis] < 0:
            raise ValueError("half-space grid must satisfy lo >= 0 on the clipped axis")
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
        return np.linspace(self.lo[axis], self.hi[axis], self.shape[axis])

    def nodes(self) -> np.ndarray:
        """All node coordinates, shape ``(*shape, ndim)``."""
        return _mesh([self.axis_nodes(ax) for ax in range(self.ndim)])

    def flat_nodes(self) -> np.ndarray:
        return self.nodes().reshape(-1, self.ndim)


def _mesh(axes) -> np.ndarray:
    """Coordinates of the tensor-product mesh of the 1-D ``axes``, shape
    ``(*lengths, len(axes))``, filled one axis at a time by broadcasting."""
    out = np.empty(tuple(len(a) for a in axes) + (len(axes),))
    for ax, a in enumerate(axes):
        out[..., ax] = a.reshape((-1,) + (1,) * (len(axes) - 1 - ax))
    return out


def box_grid(lo, hi, shape, time_axis=False, half_axis=None) -> Grid:
    return Grid(tuple(map(float, lo)), tuple(map(float, hi)), tuple(int(n) for n in shape),
                time_axis=time_axis, half_axis=half_axis)


@dataclass
class GridFunction:
    """Node samples of a function on a :class:`Grid`.

    ``values`` may carry trailing channel axes beyond the grid shape
    (vector or matrix valued samples).
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        g = self.grid.shape
        if self.values.shape[:len(g)] != g:
            raise ValueError(f"values shape {self.values.shape} does not start with grid {g}")

    @property
    def channels(self) -> tuple[int, ...]:
        return self.values.shape[self.grid.ndim:]

    def boundary_trace(self) -> np.ndarray:
        """Values on the clipped boundary face {coordinate = 0}."""
        ax = self.grid.half_axis
        if ax is None:
            raise ValueError("grid has no half-space axis")
        if self.grid.lo[ax] != 0.0:
            raise ValueError("grid does not touch the boundary hyperplane")
        return np.take(self.values, 0, axis=ax)


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

    They are held on ``box``, slices of the grid: ``box_du``, ``box_d2u`` and
    ``box_dt`` cover its nodes, and every other node's derivatives are +0.0.
    ``du``, ``d2u`` and ``dt`` are the same padded out to the whole grid, by
    :meth:`padded`, which pads any array taken on the box."""

    grid: Grid
    box: tuple[slice, ...]
    box_du: np.ndarray           # (*box shape, n_space)
    box_d2u: np.ndarray          # (*box shape, n_space, n_space), exactly symmetric
    box_dt: np.ndarray | None    # (*box shape) on time grids

    def padded(self, arr: np.ndarray | None) -> np.ndarray | None:
        """``arr``, given on ``box``, on the whole grid with +0.0 elsewhere."""
        if arr is None:
            return None
        out = np.zeros(self.grid.shape + arr.shape[self.grid.ndim:])
        out[self.box] = arr
        return out

    du = property(lambda self: self.padded(self.box_du))
    d2u = property(lambda self: self.padded(self.box_d2u))
    dt = property(lambda self: self.padded(self.box_dt))


def fd_derivatives(u: GridFunction) -> Derivatives:
    """Second-order finite differences of a scalar grid function.

    Only the input's support box (:func:`support_box`) is differenced, as a
    slab with the grid's spacings.  The halo makes the slab's one-sided edge
    stencils read only zeros, as the whole grid's central stencils there do,
    so the values are those of differencing the whole grid, bit for bit,
    wherever the input's zeros are +0.0.  Mixed entries are nested
    one-dimensional first differences, applied along distinct axes, so the
    Hessian is symmetric to the last bit.
    """
    if u.channels:
        raise ValueError("derivatives expect a scalar grid function")
    g = u.grid
    if min(g.shape) < 3:
        raise ValueError("finite differences need at least 3 nodes per axis")
    sp = g.space_axes
    ds = len(sp)
    box = support_box(u.values)
    slab = u.values[box]
    du = np.empty(slab.shape + (ds,))
    d2u = np.empty(slab.shape + (ds, ds))
    dt = np.empty(slab.shape) if g.time_axis else None
    if slab.size:
        for a, ax in enumerate(sp):
            _diff1(slab, ax, g.spacing(ax), du[..., a])
            _diff2(slab, ax, g.spacing(ax), d2u[..., a, a])
        for a in range(ds):
            for b in range(a + 1, ds):
                _diff1(du[..., a], sp[b], g.spacing(sp[b]), d2u[..., a, b])
                d2u[..., b, a] = d2u[..., a, b]
        if g.time_axis:
            _diff1(slab, 0, g.spacing(0), dt)
    return Derivatives(g, box, du, d2u, dt)


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


def _extremal(pos: np.ndarray, neg: np.ndarray, delta: float, side: str) -> np.ndarray:
    if side == "max":
        return pos / delta + neg * delta
    return pos * delta + neg / delta


def pucci_extremal(H: np.ndarray, delta: float, side: str = "max") -> np.ndarray:
    """Extremal value of the trace form over coefficient matrices with
    eigenvalues in ``[delta, 1/delta]``; closed form through eigenvalues.

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
    if side not in ("max", "min"):
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")
    H = np.asarray(H, dtype=np.float64)
    if H.shape[-2:] != (2, 2):
        w = np.linalg.eigvalsh(H)
        return _extremal(np.clip(w, 0.0, None).sum(axis=-1),
                         np.clip(w, None, 0.0).sum(axis=-1), delta, side)
    stack = H.reshape(-1, 2, 2)
    out = np.empty(stack.shape[0])
    for i in range(0, stack.shape[0], _BLOCK_ROWS):
        w1, w2 = _eigvalsh_2x2(stack[i:i + _BLOCK_ROWS])
        pos = np.clip(w1, 0.0, None) + np.clip(w2, 0.0, None)
        neg = np.clip(w1, None, 0.0) + np.clip(w2, None, 0.0)
        out[i:i + _BLOCK_ROWS] = _extremal(pos, neg, delta, side)
    # [()] gives a scalar for a single matrix, as eigvalsh's path does
    return out.reshape(H.shape[:-2])[()]


def _trace_form(coeff, H: np.ndarray, X: np.ndarray) -> np.ndarray:
    """``A(x) : H`` for a constant ``(ds, ds)`` coefficient or a callable
    returning one matrix per point."""
    ds = H.shape[-1]
    A = np.asarray(coeff(X) if callable(coeff) else coeff, dtype=np.float64)
    if A.shape == (ds, ds):
        A = np.broadcast_to(A, (X.shape[0], ds, ds))
    if A.shape != (X.shape[0], ds, ds):
        raise ValueError(f"coefficient evaluated to shape {A.shape}, expected (n, {ds}, {ds})")
    return np.einsum("nij,nij->n", A, H)


@dataclass
class Operator:
    """Second-order operator ``fn(H, X)`` on Hessian stacks, optionally
    x-dependent, with its ellipticity bound ``delta``, advertised Lipschitz
    bound ``k_f`` in the Frobenius metric, advertised positive 1-homogeneity,
    and the coefficient ``family`` of a Bellman operator (empty otherwise)."""

    fn: Callable
    delta: float
    k_f: float | None = None
    homogeneous: bool = True
    family: tuple = ()

    def __post_init__(self):
        check_delta(self.delta)
        if not callable(self.fn):
            raise ValueError("operator needs a callable")

    def __call__(self, H: np.ndarray, X: np.ndarray | None = None) -> np.ndarray:
        """Evaluate at Hessians ``H`` of shape ``(n, ds, ds)`` and points
        ``X`` of shape ``(n, ndim)`` (ignored by x-independent operators)."""
        H = np.asarray(H, dtype=np.float64)
        if X is None:
            X = np.zeros((H.shape[0], H.shape[-1]))
        return np.asarray(self.fn(H, X), dtype=np.float64)


def linear_operator(coeff, delta: float, **kw) -> Operator:
    return Operator(lambda H, X: _trace_form(coeff, H, X), delta, **kw)


def bellman_operator(family, delta: float, **kw) -> Operator:
    family = tuple(family)
    if not family:
        raise ValueError("bellman operator needs a nonempty coefficient family")
    return Operator(lambda H, X: np.stack([_trace_form(c, H, X) for c in family]).max(axis=0),
                    delta, family=family, **kw)


def pucci_operator(delta: float, side: str = "max", d: int | None = None, **kw) -> Operator:
    if side not in ("max", "min"):
        raise ValueError(f"side must be 'max' or 'min', got {side!r}")
    check_delta(delta)
    if "k_f" not in kw and d is not None:
        kw["k_f"] = d / delta
    return Operator(lambda H, X: pucci_extremal(H, delta, side), delta, **kw)


def tabulated_operator(fn: Callable, delta: float, **kw) -> Operator:
    return Operator(fn, delta, **kw)


def bellman_argmax(op: Operator, H: np.ndarray, X: np.ndarray | None = None) -> np.ndarray:
    """Index of the coefficient achieving the Bellman max at each point."""
    if not op.family:
        raise ValueError("argmax selection is only defined for bellman operators")
    H = np.asarray(H, dtype=np.float64)
    if X is None:
        X = np.zeros((H.shape[0], H.shape[-1]))
    return np.stack([_trace_form(c, H, X) for c in op.family]).argmax(axis=0)


def evaluate_operator(op: Operator, u: GridFunction,
                      derivs: Derivatives | None = None) -> GridFunction:
    """``F(D2u, x)`` on the grid; adds the time derivative on time grids.

    ``F`` runs on the rows of ``derivs.box`` only, with their points taken
    from the grid's axis nodes; every other node, where the derivatives are
    +0.0, holds +0.0.  That relies on the premise ``F(0, x) = 0``, which
    every positively homogeneous operator meets; the kinds of
    ``harness.catalog.build_operator`` return +0.0 there.  An operator not
    flagged ``homogeneous`` is refused.
    """
    if not op.homogeneous:
        raise ValueError("operators are evaluated on the support box only, "
                         "which needs a positively homogeneous operator")
    g = u.grid
    if derivs is None:
        derivs = fd_derivatives(u)
    box, H = derivs.box, derivs.box_d2u
    X = _mesh([g.axis_nodes(ax)[s] for ax, s in enumerate(box)]).reshape(-1, g.ndim)
    vals = derivs.padded(op(H.reshape(-1, g.n_space, g.n_space), X).reshape(H.shape[:-2]))
    if g.time_axis:
        vals[box] += derivs.box_dt
    return GridFunction(g, vals)


# ---------------------------------------------------------------------------
# sampled class membership

def sample_elliptic_matrix(rng: np.random.Generator, d: int, delta: float) -> np.ndarray:
    """Random symmetric matrix with eigenvalues in ``[delta, 1/delta]``."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    eigs = rng.uniform(delta, 1.0 / delta, size=d)
    return (q * eigs) @ q.T


@dataclass
class ClassReport:
    """Outcome of sampled operator-class checks."""

    passed: bool
    max_lipschitz_ratio: float
    ellipticity_range: tuple[float, float]
    max_at_zero: float
    homogeneity_defect: float
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
    X = rng.uniform(-1.0, 1.0, size=(budget, d))
    M = symmetrize(rng.normal(size=(budget, d, d)) * rng.uniform(0.1, 10.0, size=(budget, 1, 1)))
    N = symmetrize(rng.normal(size=(budget, d, d)))
    failures = []

    fm, fn = op(M, X), op(N, X)
    lips = np.abs(fm - fn) / np.maximum(frobenius(M - N), 1e-300)
    max_lip = float(lips.max())
    if op.k_f is not None and max_lip > op.k_f * (1 + rtol):
        failures.append(("lipschitz", max_lip))

    zero = float(np.abs(op(np.zeros((budget, d, d)), X)).max())
    if zero > rtol:
        failures.append(("zero_value", zero))

    G = rng.normal(size=(budget, d, d))
    P = np.einsum("nij,nkj->nik", G, G)
    s = rng.uniform(0.1, 5.0, size=budget)
    quot = (op(M + s[:, None, None] * P, X) - fm) / (s * np.einsum("nii->n", P))
    emin, emax = float(quot.min()), float(quot.max())
    if emin < op.delta * (1 - rtol) - rtol or emax > (1 / op.delta) * (1 + rtol) + rtol:
        failures.append(("ellipticity", (emin, emax)))

    hom = 0.0
    if op.homogeneous:
        c = rng.uniform(0.25, 8.0, size=budget)
        hom = float(np.abs(op(c[:, None, None] * M, X) - c * fm).max()
                    / max(1.0, np.abs(fm).max()))
        if hom > rtol * 10:
            failures.append(("homogeneity", hom))

    return ClassReport(not failures, max_lip, (emin, emax), zero, hom, failures)


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
    cylinder ``[t, t + r^2) x B_r`` or half cylinder."""
    center = np.asarray(center, dtype=np.float64)
    d = center.size
    if shape in ("ball", "half_ball"):
        axes = [center[i] - radius + (np.arange(density) + 0.5) * (2 * radius / density)
                for i in range(d)]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        keep = np.linalg.norm(X - center, axis=1) < radius
        if shape == "half_ball":
            keep &= X[:, 0] >= 0
    elif shape in ("cylinder", "half_cylinder"):
        taxis = center[0] + (np.arange(density) + 0.5) * (radius ** 2 / density)
        axes = [taxis] + [center[i] - radius + (np.arange(density) + 0.5)
                          * (2 * radius / density) for i in range(1, d)]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, d)
        keep = np.linalg.norm(X[:, 1:] - center[1:], axis=1) < radius
        if shape == "half_cylinder":
            keep &= X[:, 1] >= 0
    else:
        raise ValueError(f"unknown shape {shape!r}")
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
    d_space = X.shape[1] - (1 if shape in ("cylinder", "half_cylinder") else 0)
    dirs = unit_hessian_directions(d_space, seed=seed)
    taus = np.array([1.0]) if homogeneous else tau_ladder(tau0)
    per_dir = np.zeros(len(dirs))
    for k, U in enumerate(dirs):
        worst = np.zeros(X.shape[0])
        for tau in taus:
            H = np.broadcast_to(tau * U, (X.shape[0], d_space, d_space))
            ref = float(model(tau * U[None])[0])
            dev = np.abs(op(H, X) - ref) / tau
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
    broadcasting.  ``key`` is the call that built the function, recorded by
    :func:`manufactured` and :func:`with_time_profile` (``None`` otherwise):
    two functions with equal keys take equal values.
    """

    u: Callable
    du: Callable
    d2u: Callable
    time: tuple[Callable, Callable] | None = None
    key: tuple | None = None

    def _sample(self, grid: Grid, fn: Callable, channels: tuple = (), order: int = 0):
        """``fn`` on the grid's nodes, shape ``(*grid.shape, *channels)``; for a
        time product, times the time factor's ``order``-th derivative."""
        if self.time is None:
            return fn(grid.flat_nodes()).reshape(grid.shape + channels)
        if not grid.time_axis:
            raise ValueError("a time product is sampled on time grids only")
        space = Grid(grid.lo[1:], grid.hi[1:], grid.shape[1:])
        q = self.time[order](grid.axis_nodes(0))
        x = fn(space.flat_nodes()).reshape(space.shape + channels)
        return q.reshape((-1,) + (1,) * x.ndim) * x

    def on_grid(self, grid: Grid) -> GridFunction:
        return GridFunction(grid, self._sample(grid, self.u))

    def derivatives(self, grid: Grid) -> Derivatives:
        ds = grid.n_space
        du = self._sample(grid, self.du, (ds,))
        d2u = self._sample(grid, self.d2u, (ds, ds))
        dt = None
        if grid.time_axis:
            dt = np.zeros(grid.shape) if self.time is None else self._sample(grid, self.u, order=1)
        return Derivatives(grid, (slice(None),) * grid.ndim, du, d2u, dt)


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
    return ManufacturedFunction(u, du, d2u)


def _make_gaussian(d, center=None, sigma=1.0, amplitude=1.0):
    c = np.zeros(d) if center is None else np.asarray(center, dtype=np.float64)
    s2 = float(sigma) ** 2

    def u(X):
        Y = X - c
        return amplitude * np.exp(-sum_of_squares(Y.T) / (2 * s2))

    def du(X):
        Y = X - c
        return -u(X)[:, None] * Y / s2

    def d2u(X):
        Y = X - c
        base = u(X)[:, None, None]
        return base * (Y[:, :, None] * Y[:, None, :] / s2 ** 2 - np.eye(X.shape[1]) / s2)

    return ManufacturedFunction(u, du, d2u)


def _make_quadratic(d):
    def u(X):
        return 0.5 * sum_of_squares(X.T)

    def du(X):
        return X.copy()

    def d2u(X):
        return np.broadcast_to(np.eye(d), (X.shape[0], d, d)).copy()

    return ManufacturedFunction(u, du, d2u)


def _make_exp_growth(d):
    if d != 1:
        raise ValueError("the exponential-growth input is one dimensional")

    def u(X):
        return np.exp(X[:, 0])

    def du(X):
        return np.exp(X[:, 0])[:, None]

    def d2u(X):
        return np.exp(X[:, 0])[:, None, None]

    return ManufacturedFunction(u, du, d2u)


def _make_slab_bump(d, centers, radii, amplitude=1.0):
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
        return amplitude * g.prod(axis=1)

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
            out[:, i] = amplitude * b1[:, i] * _others(g, {i})
        return out

    def d2u(X):
        g, b1, b2 = parts(X)
        n, ds = X.shape
        out = np.empty((n, ds, ds))
        for i in range(ds):
            for j in range(ds):
                fac = b2[:, i] if i == j else b1[:, i] * b1[:, j]
                out[:, i, j] = amplitude * fac * _others(g, {i, j})
        return out

    return ManufacturedFunction(u, du, d2u)


def _make_odd_bump(d, radius=1.0, amplitude=1.0):
    # x_1 times a radial bump centered on the boundary plane: odd in x_1,
    # identically zero on {x_1 = 0}, supported in the centered ball
    b, db, d2b = _radial_bump(np.zeros(d), radius, 1.0)

    def u(X):
        return amplitude * X[:, 0] * b(X)

    def du(X):
        out = amplitude * X[:, 0][:, None] * db(X)
        out[:, 0] += amplitude * b(X)
        return out

    def d2u(X):
        B1 = db(X)
        out = amplitude * X[:, 0][:, None, None] * d2b(X)
        out[:, 0, :] += amplitude * B1
        out[:, :, 0] += amplitude * B1
        return out

    return ManufacturedFunction(u, du, d2u)


def manufactured(name: str, d: int, **params) -> ManufacturedFunction:
    """Library factory; ``d`` is the spatial dimension."""
    makers = {
        "bump": _make_bump,
        "gaussian": _make_gaussian,
        "quadratic": _make_quadratic,
        "exp_growth": _make_exp_growth,
        "slab_bump": _make_slab_bump,
        "odd_bump": _make_odd_bump,
    }
    if name not in makers:
        raise ValueError(f"unknown manufactured input {name!r}; library: {', '.join(makers)}")
    mf = makers[name](d, **params)
    mf.key = (name, d, tuple(sorted(params.items())))
    return mf


def with_time_profile(mf: ManufacturedFunction, profile: str = "bump",
                      t_center: float = 0.0, t_radius: float = 1.0) -> ManufacturedFunction:
    """Space-time input ``q(t) * u(x)`` with an analytic time factor; its
    samples are evaluated factor by factor (see :class:`ManufacturedFunction`)."""
    if profile == "const":
        q = lambda t: np.ones_like(t)
        q1 = lambda t: np.zeros_like(t)
    elif profile == "bump":
        def q(t):
            return _bump_parts(((t - t_center) / t_radius) ** 2)[2]

        def q1(t):
            s = ((t - t_center) / t_radius) ** 2
            _, g1, _ = _bump_profile(s)
            return g1 * 2.0 * (t - t_center) / t_radius ** 2
    else:
        raise ValueError(f"unknown time profile {profile!r}")
    key = None if mf.key is None else (mf.key, profile, t_center, t_radius)
    return ManufacturedFunction(mf.u, mf.du, mf.d2u, time=(q, q1), key=key)
