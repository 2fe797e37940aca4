"""Partition stack, conditional averages, threshold stopping times.

Frozen oracle for the worked stopping-time instance, d=1, levels [-2, 0],
box [0, 4), g = 4 * 1_[0,1), threshold 1:
  level -2 average = 1 (not > 1), level -1 averages = (2, 0), level 0 = g.
  So tau = -1 on [0, 2), never on [2, 4); stopped average = 2 on [0, 2);
  |{tau finite}| = 2 <= (1/1) * integral of g over {tau finite} = 4.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sharpcheck import filtration as fl

RTOL = 1e-12


def unit_line(n_min=-2, n_max=0, width=4.0):
    return fl.Filtration(fl.full_space(1, n_min, n_max, (0.0,), (width,)))


class TestSpecValidation:
    def test_children_count_isotropic(self):
        assert fl.full_space(2, 0, 3, (0, 0), (1, 1)).n_children == 4

    def test_children_count_parabolic(self):
        # time side 4**-n, one space side 2**-n: one parent splits into 8
        assert fl.parabolic(1, 0, 2, (0, 0), (1, 1)).n_children == 8

    def test_cell_sides_anisotropic(self):
        spec = fl.parabolic(1, 0, 2, (0, 0), (1, 1))
        assert spec.cell_sides(1) == (0.25, 0.5)

    def test_rejects_empty_level_range(self):
        with pytest.raises(ValueError, match="level range"):
            fl.full_space(1, 2, 1, (0,), (1,))

    def test_rejects_negative_half_axis(self):
        with pytest.raises(ValueError, match=">= 0"):
            fl.half_space(1, 0, 1, (-1.0,), (1.0,))

    def test_rejects_incommensurate_box(self):
        with pytest.raises(ValueError, match="whole number"):
            fl.Filtration(fl.full_space(1, -2, 0, (0.0,), (3.0,)))

    def test_rejects_off_lattice_origin(self):
        with pytest.raises(ValueError, match="lattice"):
            fl.Filtration(fl.full_space(1, -2, 0, (2.0,), (6.0,)))

    def test_rejects_fractional_exponent(self):
        with pytest.raises(ValueError, match="positive integers"):
            fl.FiltrationSpec("full", (0,), 0, 1, (0.0,), (1.0,))

    def test_shape_counts_finest_cells(self):
        # finest time side 4**-1, space side 2**-1
        filt = fl.Filtration(fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0)))
        assert filt.shape == (64, 8)


class TestConditionalAverage:
    def test_single_coarse_cell_is_plain_mean(self):
        filt = unit_line(-3, 0, 8.0)
        rng = np.random.default_rng(7)
        f = filt.field(rng.normal(size=8))
        avg = fl.conditional_average(f, -3)
        assert np.allclose(avg.values, f.values.mean(), rtol=RTOL)

    def test_matches_bruteforce_blocks(self):
        filt = fl.Filtration(fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0)))
        rng = np.random.default_rng(11)
        f = filt.field(rng.normal(size=filt.shape))
        got = fl.conditional_average(f, -1).values
        for bi in range(2):
            for bj in range(2):
                block = f.values[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2]
                assert np.allclose(got[2 * bi:2 * bi + 2, 2 * bj:2 * bj + 2],
                                   block.mean(), rtol=RTOL)

    def test_projection_is_idempotent(self):
        filt = unit_line()
        f = filt.field(np.random.default_rng(3).normal(size=4))
        once = fl.conditional_average(f, -1)
        twice = fl.conditional_average(once, -1)
        assert np.array_equal(once.values, twice.values)

    @given(st.integers(0, 2 ** 31 - 1), st.integers(-3, -1))
    @settings(max_examples=40, deadline=None)
    def test_tower_property(self, seed, coarse):
        # averaging at a coarse level then finer equals averaging coarse only
        filt = unit_line(-3, 0, 8.0)
        f = filt.field(np.random.default_rng(seed).normal(size=8))
        coarse_avg = fl.conditional_average(f, coarse)
        finer_then_coarse = fl.conditional_average(fl.conditional_average(f, coarse + 1), coarse)
        assert np.allclose(finer_then_coarse.values, coarse_avg.values, rtol=1e-12, atol=1e-12)

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_conserves_integral(self, seed):
        filt = fl.Filtration(fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0)))
        f = filt.field(np.random.default_rng(seed).normal(size=filt.shape))
        for n in filt.levels:
            avg = fl.conditional_average(f, n)
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
        filt = fl.Filtration(fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0)))
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

    def test_identity_suite_averages_each_level_once_per_field(self, monkeypatch):
        # the stopping time, both stopped values, the maximal function of g
        # and the threshold's coarse maximum share each field's means
        from sharpcheck.harness.identity import exact_identity_suite
        block_mean, seen = fl._block_mean, []

        def spy(values, factors):
            seen.append((values.tobytes(), factors))
            return block_mean(values, factors)

        monkeypatch.setattr(fl, "_block_mean", spy)
        exact_identity_suite(seed=3, n_instances=20)
        assert len(seen) > 60 and len(set(seen)) == len(seen)


class TestStoppingTime:
    def g_example(self):
        filt = unit_line()
        g = filt.field(np.array([4.0, 0.0, 0.0, 0.0]))
        return filt, g

    def test_worked_instance_tau(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 1.0)
        assert st_.tau.tolist() == [-1, -1, fl.TAU_INF, fl.TAU_INF]
        assert st_.is_valid()
        assert st_.coarsest_average_max == pytest.approx(1.0, rel=RTOL)

    def test_worked_instance_stopped_average_bound(self):
        filt, g = self.g_example()
        st_ = fl.cz_stopping_time(g, 1.0)
        gt = fl.stopped_value(g, st_)
        finite = st_.finite_mask()
        assert gt.values[finite].max() <= filt.spec.n_children * 1.0 * (1 + RTOL)

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
        filt = fl.Filtration(fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0)))
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
        filt = fl.Filtration(fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0)))
        rng = np.random.default_rng(5)
        for _ in range(10):
            g = filt.field(np.abs(rng.normal(size=filt.shape)))
            st_ = fl.cz_stopping_time(g, 0.8)
            assert st_.is_valid()

    def test_rejects_negative_field(self):
        filt = unit_line()
        with pytest.raises(ValueError, match="nonnegative"):
            fl.cz_stopping_time(filt.field([-1.0, 0, 0, 0]), 1.0)

    def test_rejects_nonpositive_threshold(self):
        filt = unit_line()
        with pytest.raises(ValueError, match="positive"):
            fl.cz_stopping_time(filt.field([1.0, 0, 0, 0]), 0.0)


class TestStoppedValue:
    def test_never_stopped_returns_field(self):
        filt = unit_line()
        f = filt.field([1.0, -2.0, 3.0, 0.5])
        st_ = fl.StoppingTime(filt, np.full(4, fl.TAU_INF))
        assert np.array_equal(fl.stopped_value(f, st_).values, f.values)

    def test_conservation_under_cz_times(self):
        # stopped-value integral equals the plain integral, finite part included
        filt = fl.Filtration(fl.full_space(2, -2, 0, (0, 0), (4.0, 4.0)))
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
        b = fl.Filtration(fl.full_space(1, -2, 0, (0.0,), (8.0,)))
        st_ = fl.StoppingTime(b, np.full(b.shape, fl.TAU_INF))
        with pytest.raises(ValueError, match="different filtrations"):
            fl.stopped_value(a.field([1, 2, 3, 4.0]), st_)


class TestSerialization:
    def test_spec_roundtrip(self):
        spec = fl.parabolic(2, -1, 2, (0, 0, -2.0), (16.0, 4.0, 2.0), space_half=False)
        again = fl.spec_from_config(fl.spec_to_config(spec))
        assert again == spec

    def test_csv_roundtrip(self):
        filt = fl.Filtration(fl.full_space(2, -1, 1, (0, 0), (2.0, 2.0)))
        f = filt.field(np.random.default_rng(2).normal(size=filt.shape))
        again = fl.field_from_csv(filt, fl.field_to_csv(f))
        assert np.array_equal(again.values, f.values)

    def test_csv_missing_cell_rejected(self):
        filt = unit_line()
        text = "i0,value\n0,1.0\n"
        with pytest.raises(ValueError, match="cover every cell"):
            fl.field_from_csv(filt, text)

    def test_binary_roundtrip(self):
        filt = fl.Filtration(fl.parabolic(1, -1, 1, (0, 0), (16.0, 4.0)))
        f = filt.field(np.random.default_rng(4).normal(size=filt.shape))
        again = fl.field_from_binary(filt, fl.field_to_binary(f))
        assert np.array_equal(again.values, f.values)

    def test_binary_size_mismatch_rejected(self):
        filt = unit_line()
        with pytest.raises(ValueError, match="binary field"):
            fl.field_from_binary(filt, b"\x00" * 24)
