"""Weight, Muckenhoupt functional, and norm tests.

Frozen values used below:

* w(x) = x on [0, L] anchored at the origin, p = 3:  the averages are L/2
  and (1/L) * 2 sqrt(L) = 2/sqrt(L), so (avg w) (avg w^(-1/2))^2 = 2 at any
  anchored scale and smaller on interior cubes; the functional equals 2.
* w = 1 gives functional 1 at every p, and thickness constant 1 at any beta.
* f = 1_[0,1) against w(x) = x at p = 2:  squared norm is the mass of [0,1),
  exactly 1/2.
"""

import numpy as np
import pytest
from scipy import integrate, optimize

from sharpcheck.filtration import cell_blocks

from sharpcheck.calculus import GridFunction, box_grid
from sharpcheck.filtration import full_space, parabolic
from sharpcheck.weights import (
    CubeFamily,
    HattedPowerX1,
    MixedNormSpec,
    NodeMasses,
    PowerX1,
    ap_constant,
    ap_divergence_ladder,
    beta_type_constant,
    box_mixed_norm,
    cell_masses,
    cube_family,
    weighted_norm,
)


def quad_floored_power(a, b, q, res):
    """Independent route: numerically integrate the density that is frozen
    at value res**q below the resolution scale."""
    total = 0.0
    if a < 0 < b:
        return quad_floored_power(0, -a, q, res) + quad_floored_power(0, b, q, res)
    if b <= 0:
        a, b = -b, -a
    cut = min(res, b) if q <= -1 else a
    if q <= -1 and a < cut:
        total += (cut - a) * cut ** q
        a = cut
    if a < b:
        total += integrate.quad(lambda x: x ** q, a, b)[0]
    return total


class TestMasses:

    @pytest.mark.parametrize("q,a,b,res", [
        (0.5, 0.0, 0.7, None),
        (-0.5, 0.0, 1.3, None),
        (1.0, 0.2, 2.0, None),
        (0.5, -1.0, 0.3, None),
        (-1.5, 0.0, 1.0, 1e-3),
        (-1.0, 0.0, 0.5, 1e-2),
    ])
    def test_power_mass_against_quadrature(self, q, a, b, res):
        w = PowerX1(q, resolution=res)
        assert w._mass_1d(a, b) == pytest.approx(quad_floored_power(a, b, q, res), rel=1e-8)

    def test_hatted_mass_against_quadrature(self):
        w = HattedPowerX1(0.7)
        want = integrate.quad(lambda x: min(x, 1.0) ** 0.7, 0, 3, points=[1.0])[0]
        assert w._mass_1d(0.0, 3.0) == pytest.approx(want, rel=1e-8)
        w = HattedPowerX1(-0.5)
        want = integrate.quad(lambda x: min(x, 1.0) ** -0.5, 0.5, 2, points=[1.0])[0]
        assert w._mass_1d(0.5, 2.0) == pytest.approx(want, rel=1e-8)

    def test_divergent_mass_requires_resolution(self):
        with pytest.raises(ValueError, match="resolution"):
            PowerX1(-1.5)._mass_1d(0.0, 1.0)

    def test_cell_masses_total(self):
        filt = full_space(1, n_min=0, n_max=5, lo=(0.0,), hi=(1.0,))
        total = cell_masses(PowerX1(0.5), filt).sum()
        assert total == pytest.approx(2.0 / 3.0, abs=1e-12)

        para = parabolic(1, n_min=0, n_max=3, lo=(0.0, 0.0), hi=(1.0, 1.0))
        total = cell_masses(PowerX1(0.5, axis=1), para).sum()
        assert total == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_node_masses_total(self):
        grid = box_grid((0.0, 0.0), (1.0, 2.0), (33, 17))
        np.testing.assert_allclose(NodeMasses(grid)[:].sum(), 2.0, rtol=1e-12)
        weighted = NodeMasses(grid, PowerX1(1.0, axis=0))[:].sum()
        np.testing.assert_allclose(weighted, 0.5 * 2.0, rtol=1e-12)


class TestMuckenhoupt:

    def test_linear_weight_frozen_value(self):
        fam = cube_family((0.0,), (1.0,))
        assert ap_constant(PowerX1(1.0), 3.0, fam) == pytest.approx(2.0, abs=1e-12)

    def test_unit_weight(self):
        fam = cube_family((0.0, 0.0), (1.0, 1.0))
        for p in (1.5, 2.0, 4.0):
            assert ap_constant(PowerX1(0.0), p, fam) == pytest.approx(1.0, abs=1e-12)

    def test_single_cube_against_quadrature(self):
        p, q = 2.0, 0.5
        fam = CubeFamily((((0.0,), (0.7,)),))
        a = integrate.quad(lambda x: x ** q, 0, 0.7)[0] / 0.7
        b = integrate.quad(lambda x: x ** -q, 0, 0.7)[0] / 0.7
        assert ap_constant(PowerX1(q), p, fam) == pytest.approx(a * b, rel=1e-10)

    def test_scale_invariance_and_saturation(self):
        small = cube_family((0.0,), (1.0,))
        large = cube_family((0.0,), (16.0,))
        # pure power: anchored cubes score the same at every scale
        v_small = ap_constant(PowerX1(0.7), 2.0, small)
        v_large = ap_constant(PowerX1(0.7), 2.0, large)
        assert v_large == pytest.approx(v_small, rel=1e-9)
        # hatted: agrees with the power inside the unit box, and enlarging
        # the cubes past the saturation scale never increases the functional
        h_small = ap_constant(HattedPowerX1(0.7), 2.0, small)
        h_large = ap_constant(HattedPowerX1(0.7), 2.0, large)
        assert h_small == pytest.approx(v_small, rel=1e-12)
        assert h_large <= h_small + 1e-9

    @pytest.mark.parametrize("q", [-1.5, 1.5])
    def test_out_of_range_exponent_diverges(self, q):
        ladder = ap_divergence_ladder(PowerX1(q, resolution=1e-3), 2.0, d=1)
        arr = np.array(ladder)
        assert np.all(np.diff(arr) > 0)
        assert arr[-1] / arr[0] >= 2.0

    def test_in_range_exponent_stays_flat(self):
        ladder = ap_divergence_ladder(PowerX1(1.0, resolution=1e-3), 3.0, d=2)
        np.testing.assert_allclose(ladder, 2.0, rtol=1e-9)

    def test_validation(self):
        with pytest.raises(ValueError, match="p > 1"):
            ap_constant(PowerX1(0.5), 1.0, cube_family((0.0,), (1.0,)))
        with pytest.raises(ValueError, match="empty"):
            CubeFamily(())

    def test_nan_exponent_rejected(self):
        # refused by its own message before any mass is integrated
        with pytest.raises(ValueError, match="p > 1, got nan"):
            ap_constant(PowerX1(0.2), float("nan"), cube_family((0.0,), (1.0,)))


class TestBetaType:

    def test_unit_weight_is_one(self):
        filt = full_space(1, n_min=0, n_max=5, lo=(0.0,), hi=(1.0,))
        val = beta_type_constant(PowerX1(0.0), 0.5, filt)
        assert val == pytest.approx(1.0, abs=1e-12)

    def test_matches_exhaustive_subsets(self):
        filt = full_space(1, n_min=0, n_max=3, lo=(0.0,), hi=(1.0,))
        w = PowerX1(0.5)
        beta = 0.5
        masses = cell_masses(w, filt)
        best = 0.0
        for n in filt.levels:
            f = filt.block_factors(n)[0]
            for c in range(filt.shape[0] // f):
                block = masses[c * f:(c + 1) * f]
                total = block.sum()
                for sub in range(1, 2 ** f):
                    picks = [(sub >> i) & 1 for i in range(f)]
                    m = sum(picks)
                    score = (block[np.array(picks, bool)].sum() / total) / (m / f) ** beta
                    best = max(best, score)
        assert beta_type_constant(w, beta, filt) == pytest.approx(best, abs=1e-12)

    def test_root_weight_value_and_stability(self):
        # continuum sup of (1 - (1-f)^(3/2)) / sqrt(f) over (0, 1]
        opt = optimize.minimize_scalar(
            lambda f: -(1 - (1 - f) ** 1.5) / np.sqrt(f), bounds=(1e-6, 1.0), method="bounded")
        want = -opt.fun
        coarse = beta_type_constant(
            PowerX1(0.5), 0.5, full_space(1, 0, 6, (0.0,), (1.0,)))
        fine = beta_type_constant(
            PowerX1(0.5), 0.5, full_space(1, 0, 8, (0.0,), (1.0,)))
        assert coarse == pytest.approx(want, rel=0.01)
        assert fine == pytest.approx(coarse, rel=0.005)

    @staticmethod
    def full_grid_sort(w, beta, filt):
        # every level's blocks of the whole mass grid, each sorted
        masses = cell_masses(w, filt)
        best = 0.0
        for n in filt.levels:
            blocks = cell_blocks(masses, filt.block_factors(n))
            m = blocks.shape[1]
            pref = np.cumsum(np.sort(blocks, axis=1)[:, ::-1], axis=1)
            ratio = pref / pref[:, -1:]
            frac = (np.arange(1, m + 1) / m) ** beta
            best = max(best, float((ratio / frac).max()))
        return best

    @pytest.mark.parametrize("filt", [
        full_space(1, 0, 6, (-1.0,), (1.0,)),
        full_space(2, 0, 4, (-1.0, 0.0), (1.0, 2.0)),
        full_space(3, 0, 3, (0.0, -1.0, -1.0), (1.0, 1.0, 1.0)),
        full_space(2, -1, 3, (0.0, -2.0), (2.0, 2.0)),
        parabolic(1, 0, 2, (0.0, -1.0), (1.0, 1.0)),
    ], ids=["1d", "2d", "3d", "half", "parabolic"])
    def test_ranking_one_cell_per_position_equals_full_grid_sort(self, filt):
        # the masses are constant along every axis but the weight's, so one
        # cell per position is ranked; the constant is the full sort's, bit for bit
        for kind in (PowerX1, HattedPowerX1):
            for axis in range(filt.ndim):
                for q in (-0.5, 0.7, 2.0):
                    w = kind(q, axis=axis, resolution=0.05)
                    for beta in (1.0, 0.5, 0.3):
                        assert beta_type_constant(w, beta, filt) == \
                            self.full_grid_sort(w, beta, filt)

    def test_validation(self):
        filt = full_space(1, n_min=0, n_max=2, lo=(0.0,), hi=(1.0,))
        with pytest.raises(ValueError, match="beta"):
            beta_type_constant(PowerX1(0.5), 1.5, filt)
        with pytest.raises(ValueError, match="filtration"):
            beta_type_constant(PowerX1(0.5), 0.5)


class TestWeightedNorm:

    def test_indicator_frozen_value(self):
        filt = full_space(1, n_min=-1, n_max=4, lo=(0.0,), hi=(2.0,))
        f = filt.field((filt.cell_centers()[..., 0] < 1.0).astype(float))
        val = weighted_norm(f, 2.0, PowerX1(1.0))
        assert val ** 2 == pytest.approx(0.5, abs=1e-14)
        plain = weighted_norm(f, 2.0)
        assert plain ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_grid_route_converges(self):
        grid = box_grid((0.0,), (2.0,), (129,))
        f = GridFunction(grid, grid.axis_nodes(0))
        val = weighted_norm(f, 2.0, PowerX1(1.0))
        assert val ** 2 == pytest.approx(4.0, rel=1e-3)

    def test_validation(self):
        grid = box_grid((0.0,), (1.0,), (9,))
        f = GridFunction(grid, np.ones((9, 2)))
        with pytest.raises(ValueError, match="scalar"):
            weighted_norm(f, 2.0)
        with pytest.raises(ValueError, match="positive"):
            weighted_norm(GridFunction(grid, np.ones(9)), 0.0)

    def test_nan_exponent_rejected(self):
        grid = box_grid((0.0,), (1.0,), (9,))
        with pytest.raises(ValueError, match="positive"):
            weighted_norm(GridFunction(grid, np.ones(9)), float("nan"))


class TestMixedNorm:

    def test_weighted_frozen_value(self):
        grid = box_grid((0.0, 0.0), (1.0, 1.0), (33, 33))
        f = GridFunction(grid, np.ones(grid.shape))
        spec = MixedNormSpec(groups=((1,), (0,)), exponents=(4.0, 2.0),
                             weights=(None, PowerX1(1.0, axis=0)))
        assert box_mixed_norm(f.grid, f.box, spec, f.values) == \
            pytest.approx(np.sqrt(0.5), abs=1e-14)

    def test_factorizes_on_products(self):
        grid = box_grid((0.0, 0.0), (1.0, 2.0), (17, 25))
        x, y = grid.axis_nodes(0), grid.axis_nodes(1)
        g, h = np.sin(3 * x) + 1.5, np.exp(-y)
        f = GridFunction(grid, np.multiply.outer(g, h))
        p_out, p_in = 3.0, 1.5
        spec = MixedNormSpec(groups=((0,), (1,)), exponents=(p_out, p_in))
        mx = (np.abs(g) ** p_out * NodeMasses(box_grid((0.0,), (1.0,), (17,)))[:]).sum() \
            ** (1 / p_out)
        my = (np.abs(h) ** p_in * NodeMasses(box_grid((0.0,), (2.0,), (25,)))[:]).sum() \
            ** (1 / p_in)
        assert box_mixed_norm(f.grid, f.box, spec, f.values) == pytest.approx(mx * my, rel=1e-12)

    def test_equal_exponents_collapse(self):
        rng = np.random.default_rng(67)
        grid = box_grid((0.0, 0.0), (1.0, 1.0), (17, 17))
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        spec = MixedNormSpec(groups=((0,), (1,)), exponents=(2.5, 2.5))
        assert box_mixed_norm(f.grid, f.box, spec, f.values) == \
            pytest.approx(weighted_norm(f, 2.5), rel=1e-12)

    def test_three_axes_iterated_oracle(self):
        rng = np.random.default_rng(71)
        grid = box_grid((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), (9, 9, 9))
        f = GridFunction(grid, rng.random(grid.shape))
        spec = MixedNormSpec(groups=((0,), (1, 2)), exponents=(3.0, 2.0))
        m1 = NodeMasses(box_grid((0.0,), (1.0,), (9,)))[:]
        inner = np.einsum("txy,x,y->t", f.values ** 2.0, m1, m1) ** (1 / 2.0)
        want = ((inner ** 3.0) * m1).sum() ** (1 / 3.0)
        assert box_mixed_norm(f.grid, f.box, spec, f.values) == pytest.approx(want, rel=1e-12)

    def test_triangle_and_homogeneity(self):
        rng = np.random.default_rng(73)
        grid = box_grid((0.0, 0.0), (1.0, 1.0), (17, 17))
        f = GridFunction(grid, rng.standard_normal(grid.shape))
        g = GridFunction(grid, rng.standard_normal(grid.shape))
        spec = MixedNormSpec(groups=((1,), (0,)), exponents=(4.0, 1.5))
        fg, neg = (GridFunction(grid, v) for v in (f.values + g.values, -3.0 * f.values))
        nf, ng, nsum, nneg = (box_mixed_norm(x.grid, x.box, spec, x.values)
                              for x in (f, g, fg, neg))
        assert nsum <= nf + ng + 1e-12
        assert nneg == pytest.approx(3 * nf, rel=1e-12)

    def test_validation(self):
        grid = box_grid((0.0, 0.0), (1.0, 1.0), (9, 9))
        f = GridFunction(grid, np.ones(grid.shape))
        with pytest.raises(ValueError, match="overlap"):
            MixedNormSpec(groups=((0,), (0,)), exponents=(2.0, 2.0))
        with pytest.raises(ValueError, match="partition"):
            box_mixed_norm(f.grid, f.box, MixedNormSpec(groups=((0,),), exponents=(2.0,)), f.values)
        with pytest.raises(ValueError, match="weight axis"):
            box_mixed_norm(f.grid, f.box, MixedNormSpec(groups=((0,), (1,)), exponents=(2.0, 2.0),
                                                        weights=(None, PowerX1(1.0, axis=0))),
                           f.values)
        with pytest.raises(ValueError, match=">= 1"):
            MixedNormSpec(groups=((0,),), exponents=(0.5,))

    def test_nan_exponent_rejected(self):
        with pytest.raises(ValueError, match=">= 1"):
            MixedNormSpec(groups=((0,), (1,)), exponents=(2.0, float("nan")))
