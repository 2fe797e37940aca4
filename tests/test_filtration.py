"""Partition stack, conditional averages, threshold stopping times.

Frozen oracle for the worked stopping-time instance, d=1, levels [-2, 0],
box [0, 4), g = 4 * 1_[0,1), threshold 1:
  level -2 average = 1 (not > 1), level -1 averages = (2, 0), level 0 = g.
  So tau = -1 on [0, 2), never on [2, 4); stopped average = 2 on [0, 2);
  |{tau finite}| = 2 <= (1/1) * integral of g over {tau finite} = 4.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sharpcheck import calculus
from sharpcheck import filtration as fl

RTOL = 1e-12


def unit_line(n_min=-2, n_max=0, width=4.0):
    return fl.full_space(1, n_min, n_max, (0.0,), (width,))


def conditional_average(f, n):
    """Average of ``f`` over each level-``n`` cell, as a field constant on them."""
    return f.filtration.field(fl.level_average_values(f, n))


def is_valid(st_):
    """Every stopping level lies in the range, and in every instance
    ``{tau = n}`` is a union of level-``n`` cells."""
    filt = st_.filtration
    vals = st_.tau[st_.finite_mask()]
    if vals.size and (vals.min() < filt.n_min or vals.max() > filt.n_max):
        return False
    for n in np.unique(vals):
        m = fl._block_mean((st_.tau == n).astype(np.float64), filt.block_factors(int(n)))
        if not np.all((m == 0.0) | (m == 1.0)):
            return False
    return True


class TestSpecValidation:
    def test_children_count_isotropic(self):
        assert fl.full_space(2, 0, 3, (0, 0), (1, 1)).n_children == 4

    def test_children_count_parabolic(self):
        # time side 4**-n, one space side 2**-n: one parent splits into 8
        assert fl.parabolic(1, 0, 2, (0, 0), (1, 1)).n_children == 8

    def test_cell_sides_anisotropic(self):
        filt = fl.parabolic(1, 0, 2, (0, 0), (1, 1))
        assert filt.cell_sides(1) == (0.25, 0.5)

    def test_rejects_empty_level_range(self):
        with pytest.raises(ValueError, match="level range"):
            fl.full_space(1, 2, 1, (0,), (1,))

    def test_level_range_and_box_guards_at_their_boundaries(self):
        # one materialized level is a range; one level fewer is empty; a side
        # of zero length is a degenerate box, refused as such before it
        # could read as zero cells
        assert fl.full_space(1, 1, 1, (0.0,), (1.0,)).shape == (2,)
        with pytest.raises(ValueError, match="level range"):
            fl.full_space(1, 1, 0, (0.0,), (1.0,))
        with pytest.raises(ValueError, match="degenerate box on axis 1"):
            fl.full_space(2, 0, 1, (0.0, 0.0), (1.0, 0.0))

    @pytest.mark.parametrize("off,aligned", [(0.5, True), (0.9, True), (1.1, False),
                                             (2.0, False)])
    def test_aligned_count_tolerance_boundary(self, off, aligned):
        # a length off a whole number of cells by `off` times the stated
        # relative tolerance, 1e-9 (`_ALIGN_RTOL`): within it the count is
        # that whole number, past it refused
        length = 3.0 * (1.0 + off * 1e-9)
        if aligned:
            assert fl._aligned_count(length, 1.0, "side") == 3
        else:
            with pytest.raises(ValueError, match="whole number"):
                fl._aligned_count(length, 1.0, "side")

    def test_rejects_incommensurate_box(self):
        with pytest.raises(ValueError, match="whole number"):
            fl.full_space(1, -2, 0, (0.0,), (3.0,))

    def test_rejects_off_lattice_origin(self):
        with pytest.raises(ValueError, match="lattice"):
            fl.full_space(1, -2, 0, (2.0,), (6.0,))

    def test_rejects_fractional_exponent(self):
        with pytest.raises(ValueError, match="positive integers"):
            fl.Filtration((0,), 0, 1, (0.0,), (1.0,))

    def test_shape_counts_finest_cells(self):
        # finest time side 4**-1, space side 2**-1
        filt = fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0))
        assert filt.shape == (64, 8)


class TestConditionalAverage:
    def test_single_coarse_cell_is_plain_mean(self):
        filt = unit_line(-3, 0, 8.0)
        rng = np.random.default_rng(7)
        f = filt.field(rng.normal(size=8))
        avg = conditional_average(f, -3)
        assert np.allclose(avg.values, f.values.mean(), rtol=RTOL)

    def test_matches_bruteforce_blocks(self):
        filt = fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0))
        rng = np.random.default_rng(11)
        f = filt.field(rng.normal(size=filt.shape))
        got = conditional_average(f, -1).values
        for bi in range(2):
            for bj in range(2):
                block = f.values[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
                assert np.allclose(got[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2],
                                   block.mean(), rtol=RTOL)

    def test_projection_is_idempotent(self):
        filt = unit_line()
        f = filt.field(np.random.default_rng(3).normal(size=4))
        once = conditional_average(f, -1)
        twice = conditional_average(once, -1)
        assert np.array_equal(once.values, twice.values)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-3, -1))
    @settings(max_examples=40, deadline=None)
    def test_tower_property(self, seed, coarse):
        # averaging at a coarse level then finer equals averaging coarse only
        filt = unit_line(-3, 0, 8.0)
        f = filt.field(np.random.default_rng(seed).normal(size=8))
        coarse_avg = conditional_average(f, coarse)
        finer_then_coarse = conditional_average(conditional_average(f, coarse + 1), coarse)
        assert np.allclose(finer_then_coarse.values, coarse_avg.values, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conserves_integral(self, seed):
        filt = fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0))
        f = filt.field(np.random.default_rng(seed).normal(size=filt.shape))
        for n in filt.levels:
            avg = conditional_average(f, n)
            assert np.isclose(avg.integral(), f.integral(), rtol=1e-12, atol=1e-12)


class TestLevelCache:
    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_block_mean_equals_ndarray_mean_bitwise(self, seed):
        rng = np.random.default_rng(seed)
        factors = tuple(int(2 ** rng.integers(0, 3)) for _ in range(int(rng.integers(1, 4))))
        shape = tuple(f * int(rng.integers(1, 4)) for f in factors)
        vals = rng.normal(size=shape) * 10.0 ** rng.integers(-3, 4, size=shape)
        kind = rng.integers(0, 4, size=shape)
        vals[kind == 1] = -0.0
        vals[kind == 2] = rng.integers(-9, 10, size=int((kind == 2).sum())) * 5e-324
        view_shape = [v for size, f in zip(shape, factors) for v in (size // f, f)]
        want = vals.reshape(view_shape).mean(axis=tuple(range(1, 2 * len(shape), 2)))
        assert fl._block_mean(vals, factors).tobytes() == want.tobytes()

    def test_cached_means_equal_fresh_ones(self):
        filt = fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0))
        f = filt.field(np.random.default_rng(5).normal(size=filt.shape))
        for _ in range(2):
            for n in filt.levels:
                fresh = filt.field(f.values.copy())
                factors = filt.block_factors(n)
                want = fl._block_expand(fl._block_mean(f.values, factors), factors)
                assert fl.level_means(f, n) is fl.level_means(f, n)
                assert fl.level_average_values(f, n).tobytes() == want.tobytes()
                assert fl.level_average_values(fresh, n).tobytes() == want.tobytes()

    def test_abs_is_the_field_itself_unless_a_sign_bit_is_set(self):
        filt = unit_line()
        f = filt.field([0.0, 1.0, 2.0, 3.0])
        assert abs(f) is f
        for vals in ([0.0, -0.0, 2.0, 3.0], [0.0, 1.0, -2.0, 3.0]):
            g = filt.field(vals)
            a = abs(g)
            assert a is not g and not np.signbit(a.values).any()
            assert np.array_equal(a.values, np.abs(vals))

    def test_finest_means_are_the_values(self):
        # one-cell blocks: the means are the values themselves, not a copy
        for filt in BATCH_FILTRATIONS:
            f, _, _ = _random_batch(np.random.default_rng(6), filt, (2,))
            means = fl.level_means(f, filt.n_max)
            assert means is f.values and np.shares_memory(means, f.values)
            factors = filt.block_factors(filt.n_max)
            assert means.tobytes() == fl._block_mean(f.values, factors).tobytes()

    def test_fs_local_finest_step_averages_no_finest_array(self, monkeypatch):
        # FS-LOCAL at h = 2^-9 takes u's finest-level means for its maximal
        # function; they are u's values, so no 512 x 512 (2 MiB) block mean
        # is formed
        from sharpcheck.harness.catalog import ENTRIES
        block_mean, sizes = fl._block_mean, []

        def spy(values, factors):
            out = block_mean(values, factors)
            sizes.append(out.size)
            return out

        monkeypatch.setattr(fl, "_block_mean", spy)
        entry = ENTRIES["FS-LOCAL"]
        entry.runner(entry.merged({}), 2.0 ** -9, 0)
        assert sizes and max(sizes) < 512 * 512

    def test_values_and_means_are_read_only(self):
        filt = unit_line()
        f = filt.field(np.arange(4.0))
        with pytest.raises(ValueError, match="read-only"):
            f.values[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            fl.level_means(f, -1)[0] = 1.0

    def test_values_are_copied_unless_read_only_and_owned(self):
        # writing through the caller's array or its base leaves the field
        # and its means as they were
        filt = unit_line()
        base = np.arange(8.0)
        f = filt.field(base[:4])
        means = fl.level_means(f, -1).copy()
        base[:4] = 10.0
        assert base.flags.writeable and f.values.tolist() == [0.0, 1.0, 2.0, 3.0]
        assert fl.level_means(f, -1).tobytes() == means.tobytes()
        assert fl.level_means(filt.field(f.values.copy()), -1).tobytes() == means.tobytes()
        owned = np.arange(4.0)
        owned.flags.writeable = False
        assert filt.field(owned).values is owned

    @pytest.mark.parametrize("slab_nodes", [1, 2 ** 14])
    def test_sample_by_slab_equals_one_shot_sampling(self, monkeypatch, slab_nodes):
        # fn takes the center rows of one slab at a time; the values are those
        # of one call on every center, bit for bit, in an array the field keeps
        bump = calculus.manufactured("bump", 2, center=(0.5, 0.4), radius=0.45).u
        gauss = calculus.manufactured("gaussian", 3, sigma=0.3).u
        cases = [(fl.full_space(2, 0, 7, (0.0, 0.0), (1.0, 1.0)), bump),
                 (fl.full_space(2, 0, 5, (0.0, 0.0), (1.0, 1.0)), lambda X: X[:, 0] < 0.3),
                 (fl.parabolic(2, 0, 2, (0.0, -1.0, -1.0), (1.0, 1.0, 1.0)), gauss)]
        monkeypatch.setattr(calculus, "_SLAB_NODES", slab_nodes)
        for filt, fn in cases:
            want = np.asarray(fn(filt.cell_centers().reshape(-1, filt.ndim)), dtype=np.float64)
            tracemalloc.start()
            try:
                f = filt.sample(fn)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert f.values.tobytes() == want.reshape(filt.shape).tobytes()
            assert f.values.base is None and not f.values.flags.writeable
            if slab_nodes == 1:       # one-layer slabs: the values, and no copy of them
                assert peak < 1.5 * want.nbytes + 2 ** 14

    def test_identity_suite_averages_each_level_once_per_field(self, monkeypatch):
        # the stopping time, both stopped values, the maximal function of g
        # and the threshold's coarse maximum share each field's means: per
        # group of instances on filtrations of one shape (exponents, level
        # range, box sides), g is averaged on every level and f on each level
        # where some instance stopped, the finest level's means being the
        # values themselves
        from sharpcheck.harness import identity
        seed, n = 3, 20
        levels = {}
        for gi, geometry in enumerate(("full", "half", "parabolic")):
            for i in range(n):
                filt = identity._random_filtration(np.random.default_rng([seed, gi, i]), geometry)
                levels[gi, filt.k, filt.n_min, filt.n_max, filt.shape] = filt.n_max - filt.n_min
        block_mean, seen, stops = fl._block_mean, [], []
        cz = identity.cz_stopping_time

        def spy(values, factors):
            seen.append((values.tobytes(), factors))
            return block_mean(values, factors)

        def cz_spy(g, lam):
            st_ = cz(g, lam)
            stopped = np.unique(st_.tau[st_.finite_mask()])
            stops.append(int((stopped < g.filtration.n_max).sum()))
            return st_

        monkeypatch.setattr(fl, "_block_mean", spy)
        monkeypatch.setattr(identity, "cz_stopping_time", cz_spy)
        identity.exact_identity_suite(seed=seed, n_instances=n)
        assert len(stops) == len(levels)
        assert len(seen) == sum(levels.values()) + sum(stops)
        assert len(set(seen)) == len(seen)


class TestStoppingTime:
    def g_example(self):
        filt = unit_line()
        g = filt.field(np.array([4.0, 0.0, 0.0, 0.0]))
        return filt, g

    def test_worked_instance_tau(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 1.0)
        assert st_.tau.tolist() == [-1, -1, fl.TAU_INF, fl.TAU_INF]
        assert is_valid(st_)
        # the threshold is at least the coarsest average, the scan's premise
        assert fl.level_means(g, filt.n_min).max() == pytest.approx(1.0, rel=RTOL)

    def test_worked_instance_stopped_average_bound(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 1.0)
        gt = fl.stopped_value(g, st_)
        finite = st_.finite_mask()
        assert gt.values[finite].max() <= filt.n_children * 1.0 * (1 + RTOL)

    def test_worked_instance_weak_bound(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 1.0)
        finite = st_.finite_mask()
        measure = finite.sum() * filt.finest_volume
        mass = (g.values * finite).sum() * filt.finest_volume
        assert measure == pytest.approx(2.0, rel=RTOL)
        assert mass == pytest.approx(4.0, rel=RTOL)
        assert measure <= mass / 1.0 + RTOL

    def test_large_threshold_never_stops(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 5.0)
        assert not st_.finite_mask().any()

    def test_threshold_monotonicity(self):
        filt = fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0))
        rng = np.random.default_rng(23)
        for _ in range(20):
            g = filt.field(np.abs(rng.normal(size=filt.shape)))
            lam = float(np.abs(rng.normal())) + 0.05
            lo = fl.cz_stopping_time(g, lam)
            hi = fl.cz_stopping_time(g, 2.0 * lam)
            # raising the threshold can only delay the stop
            both = lo.finite_mask() & hi.finite_mask()
            assert np.all(hi.tau[both] >= lo.tau[both])
            assert np.all(lo.finite_mask() | ~hi.finite_mask())

    def test_level_sets_are_cell_unions(self):
        filt = fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0))
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = filt.field(np.abs(rng.normal(size=filt.shape)))
            st_ = fl.cz_stopping_time(g, 0.8)
            assert is_valid(st_)

    def test_rejects_negative_field(self):
        filt = unit_line()
        with pytest.raises(ValueError, match="nonnegative"):
            fl.cz_stopping_time(filt.field([-1.0, 0, 0, 0]), 1.0)

    def test_rejects_nonpositive_threshold(self):
        filt = unit_line()
        with pytest.raises(ValueError, match="positive"):
            fl.cz_stopping_time(filt.field([1.0, 0, 0, 0]), 0.0)

    def test_rejects_nan_threshold(self):
        filt = unit_line()
        g = filt.field([1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="positive"):
            fl.cz_stopping_time(g, float("nan"))
        batch = filt.field(np.ones((3, 4)))
        with pytest.raises(ValueError, match="positive"):
            fl.cz_stopping_time(batch, np.array([1.0, np.nan, 2.0]))
        with pytest.raises(ValueError, match="batch"):
            fl.cz_stopping_time(batch, np.ones(2))
        with pytest.raises(ValueError, match="nonnegative"):
            fl.cz_stopping_time(filt.field([np.nan, 1.0, 0, 0]), 0.5)


def _random_batch(rng, filt, batch):
    f = filt.field(rng.standard_normal(batch + filt.shape))
    g = filt.field(rng.random(batch + filt.shape))
    lam = rng.uniform(0.3, 1.2, size=batch)
    return f, g, lam


BATCH_FILTRATIONS = (
    fl.full_space(2, -1, 1, (0.0, -2.0), (4.0, 2.0)),
    fl.full_space(1, 0, 3, (0.0,), (2.0,)),          # a half space: lo[0] = 0
    fl.parabolic(1, -1, 1, (0.0, 0.0), (16.0, 4.0)),
)


class TestBatches:
    @pytest.mark.parametrize("batch", [(1,), (5,), (2, 3)])
    @pytest.mark.parametrize("filt", BATCH_FILTRATIONS, ids=["full", "half", "parabolic"])
    def test_batch_equals_each_instance(self, filt, batch):
        from sharpcheck.operators import dyadic_maximal
        f, g, lam = _random_batch(np.random.default_rng(11), filt, batch)
        st_ = fl.cz_stopping_time(g, lam)
        gs, fs, mg = fl.stopped_value(g, st_), fl.stopped_value(f, st_), dyadic_maximal(g)
        assert is_valid(st_)
        for idx in np.ndindex(*batch):
            f1, g1 = filt.field(f.values[idx]), filt.field(g.values[idx])
            one = fl.cz_stopping_time(g1, lam[idx])
            for n in filt.levels:
                assert fl.level_means(g, n)[idx].tobytes() == fl.level_means(g1, n).tobytes()
                assert fl.level_means(f, n)[idx].tobytes() == fl.level_means(f1, n).tobytes()
            assert st_.tau[idx].tobytes() == one.tau.tobytes()
            assert gs.values[idx].tobytes() == fl.stopped_value(g1, one).values.tobytes()
            assert fs.values[idx].tobytes() == fl.stopped_value(f1, one).values.tobytes()
            assert mg.values[idx].tobytes() == dyadic_maximal(g1).values.tobytes()
            assert f.integral()[idx] == f1.integral()

    def test_scalar_threshold_and_shape_checks(self):
        filt = BATCH_FILTRATIONS[0]
        f, g, lam = _random_batch(np.random.default_rng(12), filt, (4,))
        st_ = fl.cz_stopping_time(g, 0.7)
        assert st_.tau.tobytes() == fl.cz_stopping_time(g, np.full(4, 0.7)).tau.tobytes()
        with pytest.raises(ValueError, match="does not match grid"):
            filt.field(np.zeros((4, 3)))
        with pytest.raises(ValueError, match="does not match tau"):
            fl.stopped_value(filt.field(f.values[0]), st_)

    def test_identity_residuals_do_not_depend_on_the_batch(self):
        # permuting a batch permutes its residuals; changing one instance's
        # threshold leaves every other instance's residuals as they were
        from sharpcheck.harness.identity import check_instance
        for filt in BATCH_FILTRATIONS:
            f, g, lam = _random_batch(np.random.default_rng(13), filt, (6,))
            lam = lam + fl.level_means(g, filt.n_min).reshape(6, -1).max(axis=1)
            base = [_hexes(r) for r in check_instance(filt, f.values, g, lam)]
            perm = np.random.default_rng(14).permutation(6)
            moved = check_instance(filt, f.values[perm], filt.field(g.values[perm]), lam[perm])
            assert [_hexes(r) for r in moved] == [base[j] for j in perm]
            for scale in (0.5, 3.0):
                other = lam.copy()
                other[2] *= scale
                changed = check_instance(filt, f.values, filt.field(g.values), other)
                assert [_hexes(r) for k, r in enumerate(changed) if k != 2] == base[:2] + base[3:]

    def test_boxes_of_one_shape_batch_together(self):
        # the box corner moves only the cell centres: instances drawn on two
        # boxes of one shape give their own filtration's residuals, bit for
        # bit, when checked in one batch on the first box
        from sharpcheck.harness.identity import check_instance
        rng = np.random.default_rng(15)
        filts = [fl.full_space(1, 0, 2, (0,), (1,)),
                 fl.full_space(1, 0, 2, (-1,), (0,))] * 3
        f = rng.standard_normal((6,) + filts[0].shape)
        g = rng.random((6,) + filts[0].shape)
        lam = rng.uniform(0.3, 1.2, size=6)
        batched = check_instance(filts[0], f, filts[0].field(g), lam)
        for j, filt in enumerate(filts):
            alone = check_instance(filt, f[j:j + 1], filt.field(g[j:j + 1]), lam[j:j + 1])
            assert _hexes(batched[j]) == _hexes(alone[0])

    def test_identity_suite_matches_one_instance_batches(self, monkeypatch):
        from sharpcheck.harness import identity
        calls, check = [], identity.check_instance

        def spy(filt, f_vals, g, lam):
            res = check(filt, f_vals, g, lam)
            calls.append((filt, f_vals, g.values, lam, res))
            return res

        monkeypatch.setattr(identity, "check_instance", spy)
        for seed in range(3):
            identity.exact_identity_suite(seed=seed, n_instances=200)
        # space filtrations in one and two dimensions, and space-time ones
        assert {c[0].k for c in calls} == {(1,), (1, 1), (2, 1)}
        assert sum(len(c[4]) for c in calls) == 3 * 3 * 200
        for filt, f_vals, g_vals, lam, res in calls:
            for j, batched in enumerate(res):
                alone = check(filt, f_vals[j:j + 1], filt.field(g_vals[j:j + 1]), lam[j:j + 1])
                assert _hexes(batched) == _hexes(alone[0])


def _hexes(residuals: dict) -> dict:
    return {k: float(v).hex() for k, v in residuals.items()}


class TestStoppedValue:
    def test_never_stopped_returns_field(self):
        filt = unit_line()
        f = filt.field([1.0, -2.0, 3.0, 0.5])
        st_ = fl.StoppingTime(filt, np.full(4, fl.TAU_INF))
        assert np.array_equal(fl.stopped_value(f, st_).values, f.values)

    def test_conservation_under_cz_times(self):
        # stopped-value integral equals the plain integral, finite part included
        filt = fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0))
        rng = np.random.default_rng(17)
        for _ in range(25):
            f = filt.field(rng.normal(size=filt.shape))
            g = filt.field(np.abs(rng.normal(size=filt.shape)))
            st_ = fl.cz_stopping_time(g, 0.9)
            ft = fl.stopped_value(f, st_)
            assert np.isclose(ft.integral(), f.integral(), rtol=1e-12, atol=1e-12)
            finite = st_.finite_mask()
            lhs = (ft.values * finite).sum() * filt.finest_volume
            rhs = (f.values * finite).sum() * filt.finest_volume
            assert np.isclose(lhs, rhs, rtol=1e-12, atol=1e-12)

    def test_mismatched_filtrations_rejected(self):
        a = unit_line()
        b = fl.full_space(1, -2, 0, (0.0,), (8.0,))
        st_ = fl.StoppingTime(b, np.full(b.shape, fl.TAU_INF))
        with pytest.raises(ValueError, match="different filtrations"):
            fl.stopped_value(a.field([1, 2, 3, 4.0]), st_)
        # filtrations are values: one built apart with equal parameters is the same
        same = fl.StoppingTime(unit_line(), np.full(a.shape, fl.TAU_INF))
        assert fl.stopped_value(a.field([1, 2, 3, 4.0]), same).values.tolist() == [1, 2, 3, 4]
