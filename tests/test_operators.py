"""Maximal and mean-oscillation operator tests.

Frozen values used below:

* f = 1_[0,1) on the dyadic filtration of [0, 2^K):  at a point x in
  [2^m, 2^(m+1)) the best ancestor average is 2^-(m+1), and on [0,1) it is 1,
  so the squared L2 norm of the maximal function is exactly
  1 + (1/4) * sum_{m<K} 2^-m = 3/2 - 2^-(K-1) / 4 = 3/2 - 2^(-K-1).
* u = 1_[0,1) on [0,2), gamma = 1:  the root cell splits its finest values
  half 1 half 0, so the double average of |u(y) - u(z)| is 1/2; subcells are
  constant, so the sharp function is identically 1/2.
"""

import math
import re
import time
import tracemalloc

import numpy as np
import pytest

from sharpcheck import operators
from sharpcheck.calculus import GridFunction, box_grid
from sharpcheck.filtration import (
    _block_expand,
    cell_blocks,
    cz_stopping_time,
    full_space,
    level_average_values,
    parabolic,
)
from sharpcheck.harness import EstimateSpec, run_estimate_check
from sharpcheck.operators import (
    GeometricFamily,
    dyadic_maximal,
    dyadic_sharp,
    family_for_grid,
    geometric_maximal,
    geometric_sharp,
    _box_counts,
    _difference_field,
    _padded_layout,
    _pair_windows,
    _radius_subset,
    _shape_offsets,
)


def lp_norm(field, p):
    return float((np.abs(field.values) ** p).sum() * field.filtration.finest_volume) ** (1 / p)


# ---------------------------------------------------------------------------
# dyadic maximal

class TestDyadicMaximal:

    def test_indicator_truncation_norm(self):
        K = 8
        filt = full_space(1, n_min=-K, n_max=2, lo=(0.0,), hi=(2.0 ** K,))
        centers = filt.cell_centers()[..., 0]
        f = filt.field((centers < 1.0).astype(float))
        M = dyadic_maximal(f)
        expected = 1.5 - 2.0 ** (-K - 1)
        assert abs(lp_norm(M, 2) ** 2 - expected) < 1e-12

        # pointwise profile: 2^-(m+1) on [2^m, 2^(m+1)), 1 on [0,1)
        x = centers
        want = np.where(x < 1.0, 1.0, 0.0)
        m = np.floor(np.log2(np.maximum(x, 1.0))).astype(int)
        want = np.where(x >= 1.0, 2.0 ** (-(m + 1.0)), want)
        np.testing.assert_allclose(M.values, want, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
    def test_doob_bound_random_fields(self, p):
        rng = np.random.default_rng(7)
        filt = parabolic(1, n_min=0, n_max=3, lo=(0.0, 0.0), hi=(1.0, 1.0))
        for _ in range(10):
            f = filt.field(rng.random(filt.shape))
            ratio = lp_norm(dyadic_maximal(f), p) / lp_norm(f, p)
            assert ratio <= p / (p - 1) + 1e-9

    def test_dominates_function_and_sublinear(self):
        rng = np.random.default_rng(3)
        filt = full_space(2, n_min=0, n_max=3, lo=(0.0, 0.0), hi=(1.0, 1.0))
        f = filt.field(rng.standard_normal(filt.shape))
        g = filt.field(rng.standard_normal(filt.shape))
        Mf, Mg = dyadic_maximal(f), dyadic_maximal(g)
        assert np.all(Mf.values >= np.abs(f.values) - 1e-12)
        Msum = dyadic_maximal(filt.field(f.values + g.values))
        assert np.all(Msum.values <= Mf.values + Mg.values + 1e-12)

    def test_level_cap_monotone(self):
        rng = np.random.default_rng(5)
        filt = full_space(1, n_min=-1, n_max=4, lo=(0.0,), hi=(2.0,))
        f = filt.field(rng.random(filt.shape))
        prev = dyadic_maximal(f, m=-1).values
        for m in range(0, 5):
            cur = dyadic_maximal(f, m=m).values
            assert np.all(cur >= prev - 1e-15)
            prev = cur
        np.testing.assert_array_equal(prev, dyadic_maximal(f).values)

    def test_weak_type_bound(self):
        rng = np.random.default_rng(11)
        filt = full_space(2, n_min=0, n_max=3, lo=(0.0, 0.0), hi=(1.0, 1.0))
        f = filt.field(rng.random(filt.shape))
        M = dyadic_maximal(f)
        for lam in (0.55, 0.7, 0.9):
            measure = (M.values > lam).sum() * filt.finest_volume
            assert measure <= f.integral() / lam + 1e-12

    def test_matches_stopping_level_sets(self):
        # {M g > lam} must agree with the set where the stopping time fires
        rng = np.random.default_rng(13)
        filt = full_space(1, n_min=0, n_max=5, lo=(0.0,), hi=(1.0,))
        g = filt.field(rng.random(filt.shape))
        lam = 0.8 * float(g.values.max())
        st = cz_stopping_time(g, lam)
        np.testing.assert_array_equal(dyadic_maximal(g).values > lam, st.finite_mask())

    def test_cap_below_coarsest_rejected(self):
        filt = full_space(1, n_min=0, n_max=2, lo=(0.0,), hi=(1.0,))
        with pytest.raises(ValueError, match="coarsest"):
            dyadic_maximal(filt.field(np.ones(filt.shape)), m=-1)


# ---------------------------------------------------------------------------
# dyadic sharp

def brute_dyadic_sharp(u, gamma, m):
    filt = u.filtration
    out = np.zeros(filt.shape)
    for n in range(max(m, filt.n_min), filt.n_max + 1):
        factors = filt.block_factors(n)
        counts = tuple(s // f for s, f in zip(filt.shape, factors))
        for idx in np.ndindex(*counts):
            sl = tuple(slice(i * f, (i + 1) * f) for i, f in zip(idx, factors))
            vals = u.values[sl].ravel()
            acc = 0.0
            for a in vals:
                for b in vals:
                    acc += abs(a - b) ** gamma
            score = (acc / len(vals) ** 2) ** (1 / gamma)
            out[sl] = np.maximum(out[sl], score)
    return out


class TestDyadicSharp:

    def test_indicator_worked_value(self):
        filt = full_space(1, n_min=-1, n_max=3, lo=(0.0,), hi=(2.0,))
        u = filt.field((filt.cell_centers()[..., 0] < 1.0).astype(float))
        sharp = dyadic_sharp(u, gamma=1.0, m=-1)
        np.testing.assert_allclose(sharp.values, 0.5, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_matches_brute_force(self, gamma):
        rng = np.random.default_rng(17)
        filt = full_space(2, n_min=0, n_max=2, lo=(0.0, 0.0), hi=(1.0, 1.0))
        u = filt.field(rng.standard_normal(filt.shape))
        got = dyadic_sharp(u, gamma=gamma, m=0).values
        np.testing.assert_allclose(got, brute_dyadic_sharp(u, gamma, 0), rtol=1e-10, atol=1e-12)

    def test_shift_and_scale(self):
        rng = np.random.default_rng(19)
        filt = parabolic(1, n_min=0, n_max=2, lo=(0.0, 0.0), hi=(1.0, 1.0))
        u = filt.field(rng.standard_normal(filt.shape))
        base = dyadic_sharp(u, gamma=0.5, m=0).values
        shifted = dyadic_sharp(filt.field(u.values + 3.7), gamma=0.5, m=0).values
        scaled = dyadic_sharp(filt.field(-2.0 * u.values), gamma=0.5, m=0).values
        np.testing.assert_allclose(shifted, base, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(scaled, 2.0 * base, rtol=1e-12, atol=1e-14)

    def test_level_floor_monotone_and_constant(self):
        rng = np.random.default_rng(23)
        filt = full_space(1, n_min=0, n_max=4, lo=(0.0,), hi=(1.0,))
        u = filt.field(rng.standard_normal(filt.shape))
        prev = dyadic_sharp(u, gamma=1.0, m=0).values
        for m in range(1, 5):
            cur = dyadic_sharp(u, gamma=1.0, m=m).values
            assert np.all(cur <= prev + 1e-15)
            prev = cur
        const = dyadic_sharp(filt.field(np.full(filt.shape, 2.5)), gamma=1.0, m=0)
        np.testing.assert_array_equal(const.values, 0.0)

    def test_validation(self):
        filt = full_space(1, n_min=0, n_max=2, lo=(0.0,), hi=(1.0,))
        u = filt.field(np.ones(filt.shape))
        with pytest.raises(ValueError, match="gamma"):
            dyadic_sharp(u, gamma=1.5, m=0)
        with pytest.raises(ValueError, match="finest"):
            dyadic_sharp(u, gamma=1.0, m=3)


# ---------------------------------------------------------------------------
# dyadic maxima coarse to fine

def level_by_level_maximal(f, m=None):
    # every level expanded to the finest grid, then maxed in
    filt = f.filtration
    top = filt.n_max if m is None else min(m, filt.n_max)
    absf = abs(f)
    out = np.full(f.values.shape, -np.inf)
    for n in range(filt.n_min, top + 1):
        np.maximum(out, level_average_values(absf, n), out=out)
    return out


def level_by_level_sharp(u, gamma, m):
    filt = u.filtration
    out = np.zeros(filt.shape)
    for n in range(max(m, filt.n_min), filt.n_max + 1):
        factors = filt.block_factors(n)
        blocks = cell_blocks(u.values, factors)
        if gamma == 1.0:
            per_cell = operators._pair_mean_sorted(blocks)
        else:
            per_cell = operators._pair_mean_power(blocks, gamma) ** (1.0 / gamma)
        coarse = per_cell.reshape([s // f for s, f in zip(filt.shape, factors)])
        np.maximum(out, _block_expand(coarse, factors), out=out)
    return out


def signed_values(rng, shape):
    # normals, signed zeros and a repeated negative value, so that some
    # blocks hold one value and oscillate by zero
    vals = rng.standard_normal(shape)
    kind = rng.integers(0, 4, size=shape)
    vals[kind == 1] = -0.0
    vals[kind == 2] = -1.5
    return vals


COARSE_TO_FINE = (
    full_space(2, 0, 3, (0.0, 0.0), (1.0, 1.0)),
    full_space(1, -2, 3, (-4.0,), (4.0,)),
    parabolic(1, -1, 1, (0.0, 0.0), (16.0, 4.0)),
)


class TestCoarseToFine:
    """The running max is taken at each level's resolution; the bits equal
    the level-by-level max on the finest grid, signed zeros included."""

    @pytest.mark.parametrize("filt", COARSE_TO_FINE)
    def test_maximal_equals_level_by_level(self, filt):
        rng = np.random.default_rng(29)
        for batch in ((), (3,)):
            f = filt.field(signed_values(rng, batch + filt.shape))
            for m in (None, filt.n_min, filt.n_min + 1, filt.n_max - 1, filt.n_max + 2):
                got = dyadic_maximal(f, m).values
                assert got.tobytes() == level_by_level_maximal(f, m).tobytes()

    @pytest.mark.parametrize("filt", COARSE_TO_FINE)
    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_sharp_equals_level_by_level(self, filt, gamma):
        rng = np.random.default_rng(31)
        for u in (filt.field(signed_values(rng, filt.shape)), filt.field(np.full(filt.shape, -1.5))):
            for m in (filt.n_min - 1, filt.n_min, filt.n_min + 1, filt.n_max):
                got = dyadic_sharp(u, gamma, m).values
                assert got.tobytes() == level_by_level_sharp(u, gamma, m).tobytes()


# ---------------------------------------------------------------------------
# geometric maximal

def brute_geometric_maximal(h, family, radii):
    grid = h.grid
    X = grid.nodes().reshape(-1, grid.ndim)
    v = np.abs(h.values).reshape(-1)
    out = np.full(X.shape[0], -np.inf)
    sp = grid.space_axes
    for c in X:
        d2 = sum((X[:, ax] - c[ax]) ** 2 for ax in sp)
        for r in radii:
            if family.shape == "cylinder":
                dt = X[:, 0] - c[0]
                mask = (d2 < r * r) & (dt >= 0) & (dt < r * r)
            else:
                mask = d2 < r * r
            avg = v[mask].mean()
            out[mask] = np.maximum(out[mask], avg)
    return out.reshape(grid.shape)


class TestGeometricMaximal:

    def test_matches_brute_force_balls(self):
        rng = np.random.default_rng(29)
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        h = GridFunction(grid, rng.standard_normal(grid.shape))
        fam = GeometricFamily("ball", (0.3, 0.46, 0.71))
        got = geometric_maximal(h, fam).values
        want = brute_geometric_maximal(h, fam, fam.radii)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_matches_brute_force_cylinders(self):
        rng = np.random.default_rng(31)
        grid = box_grid((0.0, -1.0), (0.5, 1.0), (9, 17), time_axis=True)
        h = GridFunction(grid, rng.standard_normal(grid.shape))
        fam = GeometricFamily("cylinder", (0.3, 0.46))
        got = geometric_maximal(h, fam).values
        want = brute_geometric_maximal(h, fam, fam.radii)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_matches_brute_force_half_ball(self):
        rng = np.random.default_rng(37)
        # a half space is a box whose first axis starts at 0; it clips the balls
        grid = box_grid((0.0, -1.0), (1.0, 1.0), (9, 17))
        h = GridFunction(grid, rng.standard_normal(grid.shape))
        fam = family_for_grid(grid, radii=(0.3, 0.46))
        assert fam.shape == "ball"
        got = geometric_maximal(h, fam).values
        want = brute_geometric_maximal(h, fam, fam.radii)
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-11)

    def test_constant_field(self):
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        h = GridFunction(grid, np.full(grid.shape, 2.5))
        out = geometric_maximal(h, family_for_grid(grid, (0.26, 0.51, 1.02))).values
        np.testing.assert_allclose(out, 2.5, rtol=1e-10)

    def test_radius_floor_mode(self):
        rng = np.random.default_rng(41)
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (33, 33))
        h = GridFunction(grid, rng.random(grid.shape))
        fam = family_for_grid(grid, (0.13, 0.18, 0.26, 0.36, 0.51))
        all_r = geometric_maximal(h, fam).values
        floored = geometric_maximal(h, fam, rho=fam.radii[2], mode="at_least").values
        assert np.all(floored <= all_r + 1e-12)
        assert np.all(floored >= 0.0)
        with pytest.raises(ValueError, match="at_least"):
            geometric_maximal(h, fam, rho=10 * fam.radii[-1], mode="at_least")

    def test_validation(self):
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        h = GridFunction(grid, np.ones(grid.shape + (2,)))
        with pytest.raises(ValueError, match="scalar"):
            geometric_maximal(h, GeometricFamily("ball", (0.3,)))
        hs = GridFunction(grid, np.ones(grid.shape))
        with pytest.raises(ValueError, match="time axis"):
            geometric_maximal(hs, GeometricFamily("cylinder", (0.3,)))
        with pytest.raises(ValueError, match="shape"):
            GeometricFamily("cube", (0.3,))
        with pytest.raises(ValueError, match="radius ladder"):
            GeometricFamily("ball", ())

    @pytest.mark.parametrize("channels", [(), (2, 2)])
    @pytest.mark.parametrize("grid,box,radii", [
        (box_grid((-1.0, -1.0), (1.0, 1.0), (21, 21)), (slice(5, 16), slice(0, 13)),
         (0.2, 0.4)),
        (box_grid((0.0, -1.0, -1.0), (0.5, 1.0, 1.0), (9, 15, 15), time_axis=True),
         (slice(0, 5), slice(3, 12), slice(8, 15)), (0.3, 0.5)),
    ], ids=["ball", "cylinder"])
    def test_support_box_field_equals_its_padded_twin(self, channels, grid, box, radii):
        # a field held on a support box (touching the grid's edge) gives the
        # bits of the same samples padded to the whole grid, in both modes of
        # the maximal and with exact and sampled sharp pairs
        fam = family_for_grid(grid, radii)
        shape = tuple(len(range(n)[s]) for n, s in zip(grid.shape, box))
        f = GridFunction(grid, np.random.default_rng(3).normal(size=shape + channels), box)
        twin = GridFunction(grid, f.padded())
        calls = [lambda h: geometric_sharp(h, fam, gamma=0.5, rho=radii[-1], pair_budget=10 ** 5),
                 lambda h: geometric_sharp(h, fam, gamma=0.5, rho=radii[-1], pair_budget=64)]
        if not channels:
            calls += [lambda h: geometric_maximal(h, fam),
                      lambda h: geometric_maximal(h, fam, rho=radii[-1], mode="at_least")]
        for call in calls:
            got, want = call(f), call(twin)
            assert got.values.tobytes() == want.values.tobytes()
        assert not calls[0](f).subsampled and calls[1](f).subsampled

    def test_nan_radius_rejected(self):
        with pytest.raises(ValueError, match="radius ladder must be nonempty and positive"):
            GeometricFamily("ball", (float("nan"), 0.1))


# ---------------------------------------------------------------------------
# exact primitives: one window reduction for covering maxima and window sums

def _window_reduce(values, mask, time_axis, op):
    # out[c] = op over offsets o in mask (about its middle node) of
    # values[c + o]: one plan and one reduction
    return operators._reduce(values, operators._reduce_plan(mask, time_axis, values.shape), op)


def brute_covering_max(per_center, mask):
    # out[x] = max of per_center[c] over the centers c whose shape c + mask
    # (offsets about the mask's middle node) contains x
    offsets = np.argwhere(mask) - np.array(mask.shape) // 2
    out = np.full(per_center.shape, -np.inf)
    for c in np.ndindex(per_center.shape):
        xs = offsets + c
        xs = xs[((xs >= 0) & (xs < per_center.shape)).all(axis=1)]
        np.maximum.at(out, tuple(xs.T), per_center[c])
    return out


def brute_window_sum(values, mask):
    # out[c] = math.fsum of values[c + o] over the offsets o in mask (about its
    # middle node) with c + o on the grid; off-grid terms read zeros from a
    # padded copy, one slab of centers along axis 0 at a time
    offsets = np.argwhere(mask) - np.array(mask.shape) // 2
    k = np.array(mask.shape) // 2
    padded = np.pad(values, [(h, h) for h in k])
    out = np.zeros(values.shape)
    for i in range(values.shape[0]):
        terms = np.zeros((len(offsets),) + values.shape[1:])
        for j, off in enumerate(offsets):
            terms[j] = padded[(i + k[0] + off[0],) + tuple(
                slice(h + o, h + o + n) for h, o, n in zip(k[1:], off[1:], values.shape[1:]))]
        rows = terms.reshape(len(offsets), math.prod(values.shape[1:])).T.copy()
        out[i] = np.reshape([math.fsum(memoryview(t)) for t in rows], values.shape[1:])
    return out


def brute_counts(shape, mask):
    # per center c, the number of offsets o in mask with c + o on the grid
    out = np.zeros(shape)
    for off in np.argwhere(mask) - np.array(mask.shape) // 2:
        inside = ((np.arange(n) + o >= 0) & (np.arange(n) + o < n) for n, o in zip(shape, off))
        out += math.prod(np.ix_(*(a.astype(int) for a in inside)))
    return out


def family_masks(ndim):
    # (mask, time_axis) for every shape family on a spacing-1/8 box; at
    # r = 0.3 a cylinder's time extent is one node (r^2 < dt)
    out = []
    for shape, time_axis in (("ball", False), ("cylinder", True)):
        if time_axis and ndim < 2:
            continue
        grid = box_grid((0.0,) * ndim, (1.0,) * ndim, (9,) * ndim, time_axis=time_axis)
        for r in (0.13, 0.3, 0.55):
            out.append((_shape_offsets(grid, GeometricFamily(shape, (r,)), r), grid.time_axis))
    return out


def chord_masks(rng, ndim, count):
    # random masks of the form the reduction takes: each row along the last
    # axis a chord [-a, a] about the middle column or empty (a = -1); on odd
    # draws with ndim >= 2, one random time interval times such a footprint
    out = []
    for k in range(count):
        dims = tuple(int(v) for v in 2 * rng.integers(0, 4, ndim) + 1)
        timed = bool(k % 2) and ndim >= 2
        half = rng.integers(-1, dims[-1] // 2 + 1, (1,) * timed + dims[timed:-1])
        mask = np.abs(np.arange(dims[-1]) - dims[-1] // 2) <= half[..., None]
        if timed:
            lo, hi = sorted(rng.integers(0, dims[0], 2))
            steps = np.zeros((dims[0],) + (1,) * (ndim - 1), dtype=bool)
            steps[lo:hi + 1] = True
            mask = steps & mask
        out.append((mask, timed))
    return out


def gaussian_case(shape, lo, hi, r, **kw):
    # exp(-40|x|^2) over the space axes: nine orders of magnitude and more
    # between the center and the edges of the box
    grid = box_grid(lo, hi, shape, **kw)
    x2 = sum(grid.nodes()[..., ax] ** 2 for ax in grid.space_axes)
    return np.exp(-40.0 * x2), _shape_offsets(grid, family_for_grid(grid, (r,)), r), grid.time_axis


PRIMITIVE_SHAPES = [(1,), (6,), (7,), (1, 5), (8, 1), (6, 7), (4, 5, 3), (1, 6, 5)]


class TestExactPrimitives:

    @pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
    def test_covering_max_matches_brute_force(self, shape):
        rng = np.random.default_rng(sum(shape) * 7 + len(shape))
        per_center = rng.standard_normal(shape)
        per_center[rng.random(shape) < 0.25] = -np.inf
        cases = family_masks(len(shape)) + chord_masks(rng, len(shape), 12)
        for mask, time_axis in cases:
            # the covering max is a max over the reflected mask
            got = _window_reduce(per_center, np.flip(mask), time_axis, np.maximum)
            np.testing.assert_array_equal(got, brute_covering_max(per_center, mask))

    def assert_window_sums(self, values, mask, time_axis):
        # per-node relative error against math.fsum, and exact counts
        got = _window_reduce(values, mask, time_axis, np.add)
        want = brute_window_sum(values, mask)
        assert got.shape == values.shape and np.all(got >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-14 * want)
        counts = _window_reduce(np.ones(values.shape), mask, time_axis, np.add)
        assert counts.tobytes() == brute_counts(values.shape, mask).tobytes()

    @pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
    def test_window_sum_matches_fsum(self, shape):
        rng = np.random.default_rng(sum(shape) * 11 + len(shape))
        values = rng.random(shape)
        for mask, time_axis in family_masks(len(shape)) + chord_masks(rng, len(shape), 12):
            self.assert_window_sums(values, mask, time_axis)

    @pytest.mark.parametrize("case", [
        ((97, 97), (-1.0, -1.0), (1.0, 1.0), 0.13, {}),
        ((31, 49, 49), (0.0, -1.0, -1.0), (0.3, 1.0, 1.0), 0.22, {"time_axis": True}),
    ], ids=["ball-97x97", "cylinder-31x49x49"])
    def test_window_sum_relative_on_a_gaussian(self, case):
        # the local sums span dozens of orders of magnitude; a sum whose error
        # scales with the global magnitude goes negative near the box edges
        shape, lo, hi, r, kw = case
        self.assert_window_sums(*gaussian_case(shape, lo, hi, r, **kw))

    @pytest.mark.parametrize("shape", PRIMITIVE_SHAPES)
    def test_node_counts_equal_reduction_of_ones(self, shape):
        # the node counts _window keeps, byte for byte against the reduction
        # of a grid of ones they replace: ball and cylinder masks of a
        # spacing-1/8 box, the widest (r = 1.3, 21 nodes across) wider than
        # every axis, and random chord-form masks
        rng = np.random.default_rng(sum(shape) * 13 + len(shape))
        cases = chord_masks(rng, len(shape), 12)
        for kind, time_axis in (("ball", False), ("cylinder", True)):
            if time_axis and len(shape) < 2:
                continue
            box = box_grid((0.0,) * len(shape), (1.0,) * len(shape), (9,) * len(shape),
                           time_axis=time_axis)
            cases += [(_shape_offsets(box, GeometricFamily(kind, (r,)), r), time_axis)
                      for r in (0.13, 0.3, 0.55, 1.3)]
        for mask, time_axis in cases:
            want = _window_reduce(np.ones(shape), mask, time_axis, np.add)
            got = operators._node_counts(mask, time_axis, shape)
            assert got.dtype == np.float64 and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [s for s in PRIMITIVE_SHAPES if len(s) > 1])
    def test_covering_max_of_reflected_field_on_forward_cylinders(self, shape):
        # a forward cylinder's mask is not symmetric in time, so a covering
        # max that read the field unreflected would differ
        rng = np.random.default_rng(sum(shape) * 17 + len(shape))
        per_center = rng.standard_normal(shape)
        per_center[rng.random(shape) < 0.25] = -np.inf
        box = box_grid((0.0,) * len(shape), (1.0,) * len(shape), (9,) * len(shape),
                       time_axis=True)
        for r in (0.55, 0.8, 1.3):
            mask = _shape_offsets(box, GeometricFamily("cylinder", (r,)), r)
            assert not np.array_equal(mask, np.flip(mask))
            got = operators._covering_max(per_center, operators._reduce_plan(mask, True, shape))
            np.testing.assert_array_equal(got, brute_covering_max(per_center, mask))

    @pytest.mark.parametrize("mask,time_axis", [
        ([[False, True, True]], False),
        ([[True, True, False], [False, True, False]], False),
        ([[False, True, False], [True, False, True]], False),
        ([[False, True, False], [False, False, False], [False, True, False]], True),
        ([[False, False, False], [False, True, False], [True, True, True]], True),
    ], ids=["off-centre", "left-chord", "two-chords", "time-gap", "not-a-product"])
    def test_mask_outside_the_chord_form_rejected(self, mask, time_axis):
        with pytest.raises(ValueError, match="chord about the middle column"):
            _window_reduce(np.ones((4, 5)), np.array(mask), time_axis, np.add)


# ---------------------------------------------------------------------------
# geometric sharp

def brute_geometric_sharp(h, family, gamma, radii):
    grid = h.grid
    X = grid.nodes().reshape(-1, grid.ndim)
    V = h.values.reshape(X.shape[0], -1)
    out = np.full(X.shape[0], -np.inf)
    sp = grid.space_axes
    for c in X:
        d2 = sum((X[:, ax] - c[ax]) ** 2 for ax in sp)
        for r in radii:
            if family.shape == "cylinder":
                dt = X[:, 0] - c[0]
                mask = (d2 < r * r) & (dt >= 0) & (dt < r * r)
            else:
                mask = d2 < r * r
            vv = V[mask]
            diff = vv[:, None, :] - vv[None, :, :]
            mag = np.sqrt((diff ** 2).sum(axis=-1))
            val = (mag ** gamma).mean() ** (1 / gamma) if len(vv) else 0.0
            out[mask] = np.maximum(out[mask], val)
    return out.reshape(grid.shape)


def _overlap_slices(shape, oi, oj):
    src_i, src_j, dst = [], [], []
    for size, a, b in zip(shape, oi, oj):
        lo = max(0, -a, -b)
        hi = min(size, size - a, size - b)
        if hi <= lo:
            return None
        src_i.append(slice(lo + a, hi + a))
        src_j.append(slice(lo + b, hi + b))
        dst.append(slice(lo, hi))
    return tuple(src_i), tuple(src_j), tuple(dst)


def halving_norm(diff):
    # entrywise-l2 norm over the last axis, the squared channels summed by
    # halving: channel i + ceil(n/2) added into channel i until one is left
    sq = [diff[..., c] * diff[..., c] for c in range(diff.shape[-1])]
    while len(sq) > 1:
        k = (len(sq) + 1) // 2
        sq = [sq[i] + sq[i + k] if i + k < len(sq) else sq[i] for i in range(k)]
    return np.sqrt(sq[0])


def reference_geometric_sharp(h, family, gamma, rho, pair_budget=4096, seed=0,
                              canonical=True):
    # the per-pair loop geometric_sharp ran before pairs were grouped by
    # offset difference, with its overlap helper above, visiting pairs in a
    # stable sort by offset difference; the bitwise reference.  canonical
    # swaps each sampled pair (i, j) whose difference o_j - o_i is
    # lexicographically negative and sums channels by halving;
    # canonical=False is the loop before that, unswapped and with einsum
    grid = h.grid
    vals = h.values.reshape(grid.shape + (-1,))
    nchan = vals.shape[-1]
    rng = np.random.default_rng(seed)
    out = np.full(grid.shape, -np.inf)
    ones = np.ones(grid.shape)
    subsampled = False
    for r in _radius_subset(family, rho, "at_most"):
        mask = _shape_offsets(grid, family, r)
        counts = _window_reduce(ones, mask, grid.time_axis, np.add)
        offsets = np.argwhere(mask) - (np.array(mask.shape) - 1) // 2
        m = len(offsets)
        if m * (m - 1) // 2 <= pair_budget:
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
        else:
            picks, need = [], pair_budget
            while need > 0:
                ii = rng.integers(0, m, size=2 * need)
                jj = rng.integers(0, m, size=2 * need)
                keep = ii != jj
                take = min(need, int(keep.sum()))
                picks.append(np.stack([ii[keep][:take], jj[keep][:take]], axis=1))
                need -= take
            pairs = np.concatenate(picks)
            if canonical:
                pairs = np.array([(j, i) if tuple(offsets[j] - offsets[i]) < (0,) * grid.ndim
                                  else (i, j) for i, j in pairs])
            subsampled = True
        # the same pairs in a stable sort by offset difference, lexicographic
        pairs = np.array(pairs, dtype=int).reshape(-1, 2)
        span = np.array(mask.shape) - 1
        delta = offsets[pairs[:, 1]] - offsets[pairs[:, 0]] + span
        pairs = pairs[np.argsort(np.ravel_multi_index(delta.T, 2 * span + 1), kind="stable")]
        acc = np.zeros(grid.shape)
        cnt = np.zeros(grid.shape)
        for i, j in pairs:
            sl = _overlap_slices(grid.shape, offsets[i], offsets[j])
            if sl is None:
                continue
            si, sj, dst = sl
            diff = vals[si] - vals[sj]
            if nchan == 1:
                mag = np.abs(diff[..., 0])
            elif canonical:
                mag = halving_norm(diff)
            else:
                mag = np.sqrt(np.einsum("...c,...c->...", diff, diff))
            acc[dst] += mag ** gamma
            cnt[dst] += 1.0
        ordered = counts * counts
        nondiag = ordered - counts
        with np.errstate(invalid="ignore", divide="ignore"):
            per_center = np.where(cnt > 0, acc / np.maximum(cnt, 1.0) * nondiag / ordered, 0.0)
        np.maximum(out, _window_reduce(per_center ** (1.0 / gamma), np.flip(mask),
                                       grid.time_axis, np.maximum), out=out)
    return out, subsampled


# (grid, shape, radii): every shape family on 1-, 2- and 3-D grids, and on
# half-space boxes (first space axis from 0); each ladder mixes radii under
# and over the sampled-case pair budget
SHARP_CASES = {
    "ball-1d": (box_grid((-1.0,), (1.0,), (23,)), "ball", (0.2, 0.5)),
    "ball-2d": (box_grid((-1.0, -1.0), (1.0, 1.0), (13, 11)), "ball", (0.2, 0.35, 0.5)),
    "half_ball-2d": (box_grid((0.0, -1.0), (1.0, 1.0), (7, 13)), "ball", (0.2, 0.4)),
    "ball-3d": (box_grid((-1.0,) * 3, (1.0,) * 3, (7, 8, 6)), "ball", (0.3, 0.6)),
    "cylinder-2d": (box_grid((0.0, -1.0), (0.5, 1.0), (9, 13), time_axis=True),
                    "cylinder", (0.2, 0.35)),
    "cylinder-3d": (box_grid((0.0, -1.0, -1.0), (0.5, 1.0, 1.0), (6, 9, 8), time_axis=True),
                    "cylinder", (0.25, 0.45)),
    "half_cylinder-3d": (box_grid((0.0, 0.0, -1.0), (0.5, 1.0, 1.0), (6, 6, 9),
                                  time_axis=True),
                         "cylinder", (0.25, 0.45)),
}


# (grid, family, rho, channels, gamma, budget): edge cases of the padded flat
# layout of geometric_sharp's accumulators and field buffer
PADDED_CASES = {
    # windows wider than the grid along an axis: the pad is clamped to the
    # axis, and pairs with an offset past it have an empty overlap
    "ball-window-over-axis": (box_grid((-0.2, -1.0), (0.2, 1.0), (3, 17)),
                              GeometricFamily("ball", (0.3, 0.9)), 0.9, (2, 2), 0.5, 10 ** 9),
    "cylinder-time-over-axis": (box_grid((0.0, -1.0, -1.0), (0.1, 1.0, 1.0), (3, 7, 7),
                                         time_axis=True),
                                GeometricFamily("cylinder", (0.35, 0.6)), 0.6, (), 0.5, 40),
    # the pad comes from the largest kept radius, not the family's largest
    "small-radii-of-a-larger-family": (SHARP_CASES["ball-2d"][0],
                                       GeometricFamily("ball", (0.2, 0.35, 0.5, 0.9)), 0.35,
                                       (2, 2), 0.5, 40),
    "scalar-gamma-1": (SHARP_CASES["ball-2d"][0], GeometricFamily("ball", (0.2, 0.35, 0.5)),
                       0.5, (), 1.0, 10 ** 9),
    # 11 offsets, 55 unordered pairs, 40 ordered draws with replacement
    "sampled-repeated-pairs": (SHARP_CASES["ball-2d"][0], GeometricFamily("ball", (0.35,)),
                               0.35, (2, 2), 0.5, 40),
    "ball-1d": (SHARP_CASES["ball-1d"][0], GeometricFamily("ball", (0.2, 0.5)), 0.5,
                (3,), 0.3, 40),
    "half_ball-2d": (SHARP_CASES["half_ball-2d"][0], GeometricFamily("ball", (0.2, 0.4)),
                     0.4, (3, 3), 0.3, 40),
    "half_cylinder-3d": (SHARP_CASES["half_cylinder-3d"][0],
                         GeometricFamily("cylinder", (0.25, 0.45)), 0.45, (2, 2), 1.0, 40),
    # the last axis's window is wider than the axis, so its row gap is clamped
    "ball-window-over-axis-1": (box_grid((-1.0, -0.2), (1.0, 0.2), (17, 3)),
                                GeometricFamily("ball", (0.3, 0.9)), 0.9, (2, 2), 0.5, 40),
    # windows one node wide along an axis: no row gap on the last axis, or
    # nothing to pad on the first
    "ball-one-node-window-axis-1": (box_grid((-1.0, -1.0), (1.0, 1.0), (25, 5)),
                                    GeometricFamily("ball", (0.3, 0.45)), 0.45, (), 0.3, 40),
    "ball-one-node-window-axis-0": (box_grid((-1.0, -1.0), (1.0, 1.0), (5, 25)),
                                    GeometricFamily("ball", (0.3, 0.45)), 0.45, (2, 2), 0.5,
                                    10 ** 9),
    # a time axis of one step: the small cylinder holds one time node, the
    # large one's interval reaches past the axis
    "cylinder-one-step-time-over-axis": (box_grid((0.0, -1.0, -1.0), (0.1, 1.0, 1.0),
                                                  (2, 9, 9), time_axis=True),
                                         GeometricFamily("cylinder", (0.3, 0.5)), 0.5, (2, 2),
                                         0.3, 40),
    "cylinder-one-node-window-axis-2": (box_grid((0.0, -1.0, -1.0), (0.5, 1.0, 0.2),
                                                 (6, 9, 2), time_axis=True),
                                        GeometricFamily("cylinder", (0.3, 0.5)), 0.5, (3,),
                                        1.0, 40),
}


class TestGeometricSharp:

    @pytest.mark.parametrize("gamma", [1.0, 0.5])
    def test_matches_brute_force(self, gamma):
        rng = np.random.default_rng(43)
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        h = GridFunction(grid, rng.standard_normal(grid.shape))
        fam = GeometricFamily("ball", (0.3, 0.46))
        got = geometric_sharp(h, fam, gamma=gamma, rho=0.5, pair_budget=10 ** 9)
        assert not got.subsampled
        want = brute_geometric_sharp(h, fam, gamma, (0.3, 0.46))
        np.testing.assert_allclose(got.values, want, rtol=1e-9, atol=1e-11)

    def test_matches_brute_force_cylinder(self):
        rng = np.random.default_rng(47)
        grid = box_grid((0.0, -1.0), (0.5, 1.0), (9, 17), time_axis=True)
        h = GridFunction(grid, rng.standard_normal(grid.shape))
        fam = GeometricFamily("cylinder", (0.3, 0.46))
        got = geometric_sharp(h, fam, gamma=1.0, rho=0.46, pair_budget=10 ** 9)
        want = brute_geometric_sharp(h, fam, 1.0, (0.3, 0.46))
        np.testing.assert_allclose(got.values, want, rtol=1e-9, atol=1e-11)

    def test_affine_oscillation_bound(self):
        # pair differences of an affine map are at most |a| * diameter
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (25, 25))
        a = np.array([0.8, -0.4])
        h = GridFunction(grid, grid.nodes() @ a + 1.3)
        rho = 0.5
        out = geometric_sharp(h, GeometricFamily("ball", (0.25, 0.5)), gamma=1.0, rho=rho)
        assert np.all(out.values <= np.linalg.norm(a) * 2 * rho + 1e-12)

    def test_constant_is_zero(self):
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        h = GridFunction(grid, np.full(grid.shape, -4.0))
        out = geometric_sharp(h, GeometricFamily("ball", (0.3,)), gamma=1.0, rho=0.3)
        np.testing.assert_allclose(out.values, 0.0, atol=1e-12)

    def test_budget_sampling_close_to_exact(self):
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (25, 25))
        nodes = grid.nodes()
        h = GridFunction(grid, np.sin(2 * nodes[..., 0]) * np.cos(nodes[..., 1]))
        fam = GeometricFamily("ball", (0.55,))
        exact = geometric_sharp(h, fam, gamma=1.0, rho=0.55, pair_budget=10 ** 9)
        sampled = geometric_sharp(h, fam, gamma=1.0, rho=0.55, pair_budget=4096, seed=5)
        assert not exact.subsampled
        assert sampled.subsampled
        scale = np.abs(exact.values).max()
        assert np.abs(sampled.values - exact.values).max() <= 0.1 * scale
        again = geometric_sharp(h, fam, gamma=1.0, rho=0.55, pair_budget=4096, seed=5)
        np.testing.assert_array_equal(sampled.values, again.values)

    def test_matrix_channels(self):
        rng = np.random.default_rng(53)
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        h = GridFunction(grid, rng.standard_normal(grid.shape + (2, 2)))
        fam = GeometricFamily("ball", (0.3,))
        got = geometric_sharp(h, fam, gamma=1.0, rho=0.3, pair_budget=10 ** 9)
        want = brute_geometric_sharp(h, fam, 1.0, (0.3,))
        np.testing.assert_allclose(got.values, want, rtol=1e-9, atol=1e-11)

    @pytest.mark.parametrize("case", sorted(SHARP_CASES))
    def test_equals_reference_loop_bitwise(self, case):
        grid, shape, radii = SHARP_CASES[case]
        fam = GeometricFamily(shape, radii)
        rng = np.random.default_rng(sum(map(ord, case)))
        for channels in ((), (2, 2), (3, 3)):
            h = GridFunction(grid, rng.standard_normal(grid.shape + channels))
            for gamma in (1.0, 0.5, 0.3):
                for budget in (10 ** 9, 40):
                    got = geometric_sharp(h, fam, gamma, radii[-1], pair_budget=budget, seed=7)
                    want, sub = reference_geometric_sharp(h, fam, gamma, radii[-1],
                                                          pair_budget=budget, seed=7)
                    where = f"{channels} gamma {gamma} budget {budget}"
                    assert got.values.tobytes() == want.tobytes(), where
                    assert got.subsampled == sub, where
                    # the swap and the channel order only reorder adds
                    old, _ = reference_geometric_sharp(h, fam, gamma, radii[-1],
                                                       pair_budget=budget, seed=7,
                                                       canonical=False)
                    np.testing.assert_allclose(got.values, old, rtol=1e-13, atol=0, err_msg=where)
            assert sub, "the small budget must sample some radius"

    def test_peak_memory_within_reference_plus_cache(self):
        # OSC's workload-sized call: a 51x51 grid of 2x2 Hessians on its radii
        grid = box_grid((-1.5, -1.5), (1.5, 1.5), (51, 51))
        h = GridFunction(grid, np.random.default_rng(3).standard_normal(grid.shape + (2, 2)))
        fam = GeometricFamily("ball", (0.125, 0.175, 0.25, 0.35, 0.5))
        budget = 2048
        peaks, outs = [], []
        tracemalloc.start()
        try:
            for fn in (reference_geometric_sharp, geometric_sharp):
                tracemalloc.reset_peak()
                outs.append(fn(h, fam, 0.5, 0.5, pair_budget=budget))
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert outs[1].values.tobytes() == outs[0][0].tobytes()
        # beyond the reference loop, one field with its diff (4 channels) and
        # magnitude temporaries, and the radius's pair rows (5 x 2 integers per
        # pair), which _pair_windows builds beside temporaries of twice their size
        field = 8 * math.prod(grid.shape) * (1 + 4 + 1)
        rows = 8 * budget * 5 * grid.ndim
        assert peaks[1] <= peaks[0] + field + 3 * rows

    @pytest.mark.parametrize("channels", [(), (2,), (3,), (2, 2), (3, 3)])
    def test_difference_field_channel_sum(self, channels):
        # 1, 2, 3, 4 and 9 channels: the field goes to out[y] only, y being
        # the returned region of nodes y with y + delta on the grid; the
        # halving order written out, bit for bit; numpy's norm within a few
        # ulps; and the field of -delta is the field of delta shifted by
        # delta, bit for bit (its region starts at max(0, delta), that of
        # delta at max(0, -delta)), the identity that lets geometric_sharp
        # swap a sampled pair
        rng = np.random.default_rng(len(channels) + sum(channels))
        for shape, deltas in (((12, 13), [(2, -3), (0, 1), (-1, 0)]),
                              ((5, 7, 6), [(1, -2, 0), (0, 0, -3), (2, 1, 1)])):
            vals = rng.standard_normal(shape + channels).reshape(shape + (-1,))
            chans = np.moveaxis(vals, -1, 0).copy()
            for delta in deltas:
                y = tuple(slice(max(0, -e), n - max(0, e)) for e, n in zip(delta, shape))
                diff = vals[y] - vals[tuple(slice(s.start + e, s.stop + e)
                                            for s, e in zip(y, delta))]
                for gamma in (1.0, 0.5, 0.3):
                    got, neg = np.full(shape, np.nan), np.full(shape, np.nan)
                    where = f"{shape} {delta} gamma {gamma}"
                    assert _difference_field(chans, delta, gamma, got) == y, where
                    outside = np.ones(shape, dtype=bool)
                    outside[y] = False
                    assert np.isnan(got[outside]).all(), where
                    assert got[y].tobytes() == (halving_norm(diff) ** gamma).tobytes(), where
                    np.testing.assert_array_max_ulp(
                        got[y], np.linalg.norm(diff, axis=-1) ** gamma, maxulp=4)
                    back = _difference_field(chans, tuple(-e for e in delta), gamma, neg)
                    assert neg[back].tobytes() == got[y].tobytes(), where

    @pytest.mark.parametrize("shape,deltas", [
        ((12, 13), [(2, -3), (0, 1), (-1, 0), (0, 0)]),
        ((5, 7, 6), [(1, -2, 0), (0, 0, -3), (2, 1, 1), (-4, 6, 5)]),
    ], ids=["2d", "3d"])
    def test_three_channel_difference_field_of_a_symmetric_field(self, shape, deltas):
        # a symmetric 2x2 field read through channels (0,0), (0,1), (1,1)
        # gives the four-channel halving sum (a^2 + b^2) + (b^2 + c^2) bit
        # for bit, and the shift identity of -delta holds on it too
        rng = np.random.default_rng(sum(shape))
        vals = rng.standard_normal(shape + (2, 2))
        vals[..., 1, 0] = vals[..., 0, 1]
        vals = vals.reshape(shape + (4,))
        three = np.moveaxis(vals, -1, 0)[[0, 1, 3]]
        for delta in deltas:
            y = tuple(slice(max(0, -e), n - max(0, e)) for e, n in zip(delta, shape))
            diff = vals[y] - vals[tuple(slice(s.start + e, s.stop + e)
                                        for s, e in zip(y, delta))]
            for gamma in (1.0, 0.5, 0.3):
                got, neg = np.full(shape, np.nan), np.full(shape, np.nan)
                where = f"{shape} {delta} gamma {gamma}"
                assert _difference_field(three, delta, gamma, got, symmetric=True) == y, where
                assert got[y].tobytes() == (halving_norm(diff) ** gamma).tobytes(), where
                back = _difference_field(three, tuple(-e for e in delta), gamma, neg,
                                         symmetric=True)
                assert neg[back].tobytes() == got[y].tobytes(), where

    @pytest.mark.parametrize("case", sorted(SHARP_CASES))
    def test_symmetric_hessian_takes_three_channels_with_the_same_bits(self, case,
                                                                       monkeypatch):
        # a (2, 2) field with equal off-diagonal channels runs on three
        # channels; one ulp apart at one node, on four; either way the bits of
        # the four-channel reference loop, exact and sampled
        grid, shape, radii = SHARP_CASES[case]
        fam = GeometricFamily(shape, radii)
        seen, difference_field = [], operators._difference_field

        def spy(chans, delta, gamma, out, symmetric=False):
            seen.append((len(chans), symmetric))
            return difference_field(chans, delta, gamma, out, symmetric)

        monkeypatch.setattr(operators, "_difference_field", spy)
        vals = np.random.default_rng(sum(map(ord, case))).standard_normal(grid.shape + (2, 2))
        vals[..., 1, 0] = vals[..., 0, 1]
        apart = vals.copy()
        node = tuple(n // 2 for n in grid.shape)
        apart[node + (1, 0)] = np.nextafter(apart[node + (0, 1)], np.inf)
        for values, want_path in ((vals, (3, True)), (apart, (4, False))):
            h = GridFunction(grid, values)
            for gamma in (1.0, 0.5, 0.3):
                for budget in (10 ** 9, 40):
                    seen.clear()
                    got = geometric_sharp(h, fam, gamma, radii[-1], pair_budget=budget, seed=7)
                    want, sub = reference_geometric_sharp(h, fam, gamma, radii[-1],
                                                          pair_budget=budget, seed=7)
                    where = f"{want_path} gamma {gamma} budget {budget}"
                    assert set(seen) == {want_path}, where
                    assert got.values.tobytes() == want.tobytes(), where
                    assert got.subsampled == sub, where

    @pytest.mark.parametrize("grid,shape,radii,budget,fields", [
        (box_grid((-1.5, -1.5), (1.5, 1.5), (51, 51)), "ball",
         (0.125, 0.175, 0.25, 0.35, 0.5), 2048, 343),
        (*SHARP_CASES["half_cylinder-3d"], 40, 30),
    ], ids=["osc-51x51", "half_cylinder-3d"])
    def test_each_difference_field_once_per_call(self, grid, shape, radii, budget, fields,
                                                  monkeypatch):
        # OSC's workload-sized call and a cylinder case, each with sampled
        # radii: every distinct offset difference among all radii's pair
        # windows computes its field once, in sorted order, though radii share
        # differences; each is >lex 0, so the fields are the +-delta classes
        # the pairs draw (608 and 35 fields with signed sampled differences)
        windows, difference_field = operators._pair_windows, operators._difference_field
        per_radius, computed = [], []

        def windows_spy(shape, a, b):
            rows = windows(shape, a, b)
            per_radius.append({tuple(row) for row in rows[:, :grid.ndim].tolist()})
            return rows

        def field_spy(chans, delta, gamma, out, symmetric=False):
            computed.append(tuple(delta))
            return difference_field(chans, delta, gamma, out, symmetric)

        monkeypatch.setattr(operators, "_pair_windows", windows_spy)
        monkeypatch.setattr(operators, "_difference_field", field_spy)
        h = GridFunction(grid, np.random.default_rng(5).standard_normal(grid.shape + (2, 2)))
        assert geometric_sharp(h, GeometricFamily(shape, radii), 0.5, radii[-1],
                               pair_budget=budget).subsampled
        assert len(per_radius) == len(radii)
        assert computed == sorted(set().union(*per_radius))
        assert len(computed) < sum(map(len, per_radius))
        zero = (0,) * grid.ndim
        assert all(delta > zero for delta in computed)
        classes = {max(delta, tuple(-e for e in delta)) for delta in set().union(*per_radius)}
        assert len(computed) == len(classes) == fields

    def test_cost_blow_up_refused_before_any_field(self, monkeypatch):
        # OSC-P at its finest default step with the largest pair budget its
        # validator allows would add 7.8e9 pair-node terms; the refused step
        # makes an error report with no steps
        computed = []
        monkeypatch.setattr(operators, "_difference_field", lambda *args: computed.append(args))
        start = time.perf_counter()
        rep = run_estimate_check(EstimateSpec(id="OSC-P", params={"pair_budget": 65536},
                                              ladder=(0.05,)))
        assert time.perf_counter() - start < 1.0
        assert computed == []
        assert rep.verdict == "error" and rep.ladder == [] and not rep.passed()
        assert re.fullmatch(r"ValueError: .*pair-node terms.*radius .* alone takes .* "
                            r"at grid spacing \(.*\) with pair_budget 65536", rep.notes["error"])

    @pytest.mark.parametrize("case", sorted(SHARP_CASES))
    def test_box_counts_equal_per_pair_loop(self, case):
        # sampled pair counts per center against the per-pair `cnt[dst] += 1.0`
        # loop, bit for bit, with repeated pairs and, through two offsets a
        # grid length away, pairs with no overlap window
        grid, shape, radii = SHARP_CASES[case]
        mask = _shape_offsets(grid, GeometricFamily(shape, radii), radii[-1])
        offsets = np.argwhere(mask) - (np.array(mask.shape) - 1) // 2
        offsets = np.concatenate([offsets, [grid.shape], [np.negative(grid.shape)]])
        rng = np.random.default_rng(sum(map(ord, case)))
        pairs = rng.integers(0, len(offsets), size=(300, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.concatenate([pairs, pairs[:40], [[len(offsets) - 1, 0]]])
        want = np.zeros(grid.shape)
        for i, j in pairs:
            sl = _overlap_slices(grid.shape, offsets[i], offsets[j])
            if sl is not None:
                want[sl[2]] += 1.0
        rows = _pair_windows(grid.shape, offsets[pairs[:, 0]], offsets[pairs[:, 1]])
        assert len(rows) < len(pairs)
        d = grid.ndim
        got = _box_counts(grid.shape, rows[:, d:2 * d], rows[:, 2 * d:3 * d])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("case", sorted(SHARP_CASES))
    def test_node_counts_once_per_family_and_grid(self, case, monkeypatch):
        # OSC's call chain, a sharp function and two maximal functions on one
        # family, counts each radius once, and its outputs equal those of a
        # fresh family per call; another grid counts again
        grid, shape, radii = SHARP_CASES[case]
        other = box_grid(grid.lo, grid.hi, tuple(n + 2 for n in grid.shape),
                          time_axis=grid.time_axis)
        counted = []
        node_counts = operators._node_counts

        def spy(mask, time_axis, shape):
            counted.append(tuple(shape))
            return node_counts(mask, time_axis, shape)

        fam = GeometricFamily(shape, radii)
        rng = np.random.default_rng(11)
        for g in (grid, other):
            hess = GridFunction(g, rng.standard_normal(g.shape + (2, 2)))
            f = GridFunction(g, rng.random(g.shape))
            chain = [lambda fam: geometric_sharp(hess, fam, 0.5, radii[-1], pair_budget=40),
                     lambda fam: geometric_maximal(f, fam),
                     lambda fam: geometric_maximal(GridFunction(g, f.values ** 2), fam)]
            want = [call(GeometricFamily(shape, radii)).values for call in chain]
            monkeypatch.setattr(operators, "_node_counts", spy)
            got = [call(fam).values for call in chain]
            monkeypatch.setattr(operators, "_node_counts", node_counts)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
        assert counted == [grid.shape] * len(radii) + [other.shape] * len(radii)

    @pytest.mark.parametrize("case", sorted(SHARP_CASES))
    def test_reduction_plans_once_per_family_and_grid(self, case, monkeypatch):
        # OSC's call chain on one family plans each radius's mask once per
        # grid, for window sums and covering maxima alike, and gives the
        # outputs of a fresh family per call; another grid plans again
        grid, shape, radii = SHARP_CASES[case]
        other = box_grid(grid.lo, grid.hi, tuple(n + 2 for n in grid.shape),
                         time_axis=grid.time_axis)
        planned = []
        plan = operators._reduce_plan

        def plan_spy(mask, time_axis, shape):
            planned.append((shape, mask.shape, mask.tobytes()))
            return plan(mask, time_axis, shape)

        fam = GeometricFamily(shape, radii)
        rng = np.random.default_rng(13)
        want_plans = []
        for g in (grid, other):
            hess = GridFunction(g, rng.standard_normal(g.shape + (2, 2)))
            f = GridFunction(g, rng.random(g.shape))
            chain = [lambda fam: geometric_sharp(hess, fam, 0.5, radii[-1], pair_budget=40),
                     lambda fam: geometric_maximal(f, fam),
                     lambda fam: geometric_maximal(GridFunction(g, f.values ** 2), fam)]
            want = [call(GeometricFamily(shape, radii)).values for call in chain]
            monkeypatch.setattr(operators, "_reduce_plan", plan_spy)
            got = [call(fam).values for call in chain]
            monkeypatch.setattr(operators, "_reduce_plan", plan)
            assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
            for r in radii:
                mask = _shape_offsets(g, fam, r)
                want_plans.append((g.shape, mask.shape, mask.tobytes()))
        assert planned == want_plans

    @pytest.mark.parametrize("case", sorted(PADDED_CASES))
    def test_padded_layout_edge_cases_equal_reference_loop_bitwise(self, case, monkeypatch):
        grid, fam, rho, channels, gamma, budget = PADDED_CASES[case]
        windows, drawn = operators._pair_windows, []

        def windows_spy(shape, a, b):
            drawn.append((len(a), windows(shape, a, b)))
            return drawn[-1][1]

        monkeypatch.setattr(operators, "_pair_windows", windows_spy)
        h = GridFunction(grid, np.random.default_rng(sum(map(ord, case)))
                         .standard_normal(grid.shape + channels))
        got = geometric_sharp(h, fam, gamma, rho, pair_budget=budget, seed=3)
        want, sub = reference_geometric_sharp(h, fam, gamma, rho, pair_budget=budget, seed=3)
        assert got.values.tobytes() == want.tobytes()
        assert got.subsampled == sub
        kept = _radius_subset(fam, rho, "at_most")
        assert len(drawn) == len(kept)
        if "-over-axis" in case:
            mask = _shape_offsets(grid, fam, kept[-1])
            assert any(s // 2 > n - 1 for s, n in zip(mask.shape, grid.shape))
            assert any(len(rows) < pairs for pairs, rows in drawn)
        if case == "small-radii-of-a-larger-family":
            assert len(kept) < len(fam.radii)
        if case == "sampled-repeated-pairs":
            assert sub and len(np.unique(drawn[0][1], axis=0)) < len(drawn[0][1])

    @pytest.mark.parametrize("case", sorted(PADDED_CASES))
    def test_padded_layout_edge_cases_on_box_held_symmetric_hessians(self, case, monkeypatch):
        # the same layouts with a symmetric 2x2 field held on a support box
        # that leaves out each axis's first third: three channels, and the
        # bits of the four-channel reference loop on the padded twin
        grid, fam, rho, _, gamma, budget = PADDED_CASES[case]
        seen, difference_field = set(), operators._difference_field

        def spy(chans, delta, gamma, out, symmetric=False):
            seen.add((len(chans), symmetric))
            return difference_field(chans, delta, gamma, out, symmetric)

        monkeypatch.setattr(operators, "_difference_field", spy)
        box = tuple(slice(n // 3, n) for n in grid.shape)
        shape = tuple(n - n // 3 for n in grid.shape)
        vals = np.random.default_rng(sum(map(ord, case))).standard_normal(shape + (2, 2))
        vals[..., 1, 0] = vals[..., 0, 1]
        h = GridFunction(grid, vals, box)
        got = geometric_sharp(h, fam, gamma, rho, pair_budget=budget, seed=3)
        want, sub = reference_geometric_sharp(GridFunction(grid, h.padded()), fam, gamma, rho,
                                              pair_budget=budget, seed=3)
        assert seen == {(3, True)}
        assert got.values.tobytes() == want.tobytes()
        assert got.subsampled == sub

    def test_padded_layout_refuses_int32_overflow(self):
        # shape and strides of the one-gap layout (a gap of pad[j] after each
        # row of axis j >= 1, none on axis 0), and the guard on layouts past
        # int32 flat indexing at its exact boundary, checked without
        # allocating the grid
        shape, strides = _padded_layout((3, 4, 5), (1, 2, 0))
        assert shape == (3, 6, 5) and strides.tolist() == [30, 5, 1]
        assert _padded_layout((2 ** 31 - 1,), (5,))[0] == (2 ** 31 - 1,)
        assert _padded_layout((2, 2 ** 30 - 2), (0, 1))[0] == (2, 2 ** 30 - 1)
        with pytest.raises(ValueError, match="padded grid"):
            _padded_layout((2, 2 ** 30 - 2), (0, 2))
        # one gap per row, not two: the two-sided layout refused this one
        assert _padded_layout((46339, 46339), (1, 1))[0] == (46339, 46340)
        with pytest.raises(ValueError, match="padded grid"):
            _padded_layout((46340, 46340), (1, 2))
        with pytest.raises(ValueError, match="padded grid"):
            _padded_layout((1300, 1300, 1300), (4, 4, 4))

    def test_validation(self):
        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        h = GridFunction(grid, np.ones(grid.shape))
        fam = GeometricFamily("ball", (0.3,))
        with pytest.raises(ValueError, match="gamma"):
            geometric_sharp(h, fam, gamma=0.0, rho=0.3)
        with pytest.raises(ValueError, match="budget"):
            geometric_sharp(h, fam, gamma=1.0, rho=0.3, pair_budget=0)
        with pytest.raises(ValueError, match="at_most"):
            geometric_sharp(h, fam, gamma=1.0, rho=0.01)


# ---------------------------------------------------------------------------
# dyadic vs geometric comparability

class TestComparability:

    def test_smooth_function_scales_agree(self):
        filt = full_space(2, n_min=0, n_max=4, lo=(-1.0, -1.0), hi=(1.0, 1.0))
        fn = lambda x: np.exp(-(x ** 2).sum(axis=-1))
        f = filt.sample(fn)
        Md = dyadic_maximal(f).values

        grid = box_grid((-1.0, -1.0), (1.0, 1.0), (17, 17))
        h = GridFunction(grid, fn(grid.nodes().reshape(-1, 2)).reshape(grid.shape))
        Mg = geometric_maximal(h, family_for_grid(grid, (0.26, 0.51, 1.02))).values

        lo, hi = float(np.exp(-2)), 1.0
        for arr in (Md, Mg):
            assert np.all(arr >= lo - 1e-9) and np.all(arr <= hi + 1e-9)
        ratio = Md.max() / Mg.max()
        assert 1 / 8 <= ratio <= 8
