"""Harness tests: trend classification, catalog recipes, drivers, reports.

Frozen values used below:

* indicator maximal oracle on [0, 4) with two coarser levels (n_min = -2):
  squared L2 norm of the maximal function is 3/2 - 2^-3 = 1.375, the same
  geometric series as in the operator tests.
* two-level weak-type instance on [0, 1): g = (2, 0) on the half cells gives
  running averages 1 (root) and 2 (left half), so the level-set bound is
  tight at thresholds just below either average.
* exponential window entry with p = 2: the left side is
  3 * (e^{2L} - 1) / 2 and the defect integrand is identically zero.
"""

import ast
import dataclasses
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from sharpcheck import calculus
from sharpcheck.calculus import (
    GridFunction,
    box_grid,
    evaluate_operator,
    fd_derivatives,
    manufactured,
    power,
    with_time_profile,
)
from sharpcheck.cli import load_suite
from sharpcheck.filtration import full_space
from sharpcheck.harness import (
    BOUNDED,
    DIVERGING,
    ENTRIES,
    ENTRY_IDS,
    ERROR,
    EstimateSpec,
    INCONCLUSIVE,
    classify_trend,
    empirical_constant,
    refinement_study,
    run_estimate_check,
    run_suite,
    suite_to_csv,
    suite_to_json,
)
from sharpcheck.harness import catalog
from sharpcheck.harness.report import csv_from_doc
from sharpcheck.operators import dyadic_maximal
from sharpcheck.weights import (
    HattedPowerX1,
    MixedNormSpec,
    NodeMasses,
    PowerX1,
    box_mixed_norm,
    weighted_norm,
)


EQUATION_LAYOUT = {
    "APRIORI": [("absorbed_zeroth", 1), ("gradient_pair", 2)],
    "FS-LOCAL": [("local_sharp_bound", 1)],
    "HS-DIRICHLET": [("support_hessian", 3), ("gradient_pair", 2), ("absorbed_zeroth", 1)],
    "HS-DIRICHLET-MIXED": [("hatted_triple", 1), ("scaling_variant", 1)],
    "HS-LOCAL": [("boundary_local_hessian", 2)],
    "HS-MIXED": [("hatted_mixed", 2)],
    "HS-SLAB": [("slab_hessian", 3), ("slab_gradient", 3), ("far_hessian", 3),
                ("far_gradient", 3)],
    "HS-WEIGHTED": [("hatted_second_order", 2)],
    "IDENTITIES": [("exact_identities", 1)],
    "INTERP": [("gradient_integral", 2), ("hessian_pointwise", 3), ("gradient_pointwise", 2)],
    "INTERP-LOCAL": [("local_gradient", 2), ("two_radius_gradient", 2)],
    "LOCAL-MIXED": [("local_mixed_pair", 2)],
    "LOCAL-W2P": [("local_hessian", 2), ("two_radius_hessian", 2), ("two_radius_gradient", 2)],
    "MAX-LP": [("maximal_lp", 1)],
    "MAX-WEAK": [("weak_type", 1)],
    "MIXED": [("mixed_triple", 1)],
    "NEG-EXP": [("unbounded_zeroth", 1)],
    "OSC": [("sharp_pointwise", 3)],
    "OSC-P": [("sharp_pointwise", 3)],
    "PARA-APRIORI": [("absorbed_zeroth", 1), ("gradient_pair", 2)],
    "PARA-GLOBAL": [("parabolic_hessian", 3)],
    "PARA-HS": [("boundary_hessian", 3)],
    "PARA-HS-FULL": [("boundary_absorbed", 1)],
    "PARA-HS-MIXED": [("cylinder_time_outer", 2), ("cylinder_space_outer", 2),
                      ("weighted_triple", 1)],
    "PARA-LOCAL-MIXED": [("local_mixed_pair", 2)],
    "PARA-MIXED": [("mixed_triple", 1)],
    "W2P-GLOBAL": [("global_hessian", 3)],
    "ZEROTH-1D": [("zeroth_order", 1)],
}

# The note keys of each equation, in EQUATION_LAYOUT's order; the equations of
# an entry not listed carry none.
EQUATION_NOTES = {
    "FS-LOCAL": [("beta_type_constant", "coarsest_average", "interpolation_factors")],
    "IDENTITIES": [("failures", "per_identity_max")],
    "MAX-LP": [("doob_constant", "input_norm")],
    "MAX-WEAK": [("worst_lambda",)],
    "OSC": [("rho", "subsampled_pairs")],
    "OSC-P": [("rho", "subsampled_pairs")],
    "W2P-GLOBAL": [("u_term_scale",)],
}


class ReadRecorder(dict):
    """Parameters that record each key read through ``[]`` or ``get``."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


def n_emp_of(chk) -> float:
    return empirical_constant(chk.lhs, chk.rhs_terms)


def run_entry(eid: str, x: float, seed: int = 0, **overrides):
    entry = ENTRIES[eid]
    params = entry.merged(overrides)
    if entry.validate is not None:
        entry.validate(params)
    return entry.runner(params, x, seed)


# ---------------------------------------------------------------------------
# trend classification and ratio conventions

class TestTrendClassifier:

    def test_small_spread_is_bounded(self):
        assert classify_trend([1.0, 1.1, 1.05]) == BOUNDED

    def test_monotone_doubling_diverges(self):
        assert classify_trend([1.0, 2.5, 7.0]) == DIVERGING

    def test_infinite_ratio_with_mass_diverges(self):
        assert classify_trend([1.0, float("inf")], lhs=[1.0, 2.0]) == DIVERGING

    def test_infinite_ratio_without_mass_is_inconclusive(self):
        assert classify_trend([0.0, float("inf")], lhs=[0.0, 0.0]) == INCONCLUSIVE

    def test_all_zero_is_bounded(self):
        assert classify_trend([0.0, 0.0, 0.0]) == BOUNDED

    def test_wide_nonmonotone_spread_is_inconclusive(self):
        assert classify_trend([1.0, 1.6, 1.2]) == INCONCLUSIVE

    def test_slow_monotone_growth_is_inconclusive(self):
        # grows, but stays under the x2 divergence gate and over the spread gate
        assert classify_trend([1.0, 1.3, 1.9]) == INCONCLUSIVE

    def test_empty_series_is_inconclusive(self):
        assert classify_trend([]) == INCONCLUSIVE

    def test_ratio_conventions(self):
        assert empirical_constant(0.0, [0.0, 0.0]) == 0.0
        assert empirical_constant(2.0, [0.0]) == float("inf")
        assert empirical_constant(3.0, [1.0, 2.0]) == 1.0

    def test_negative_term_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            empirical_constant(1.0, [1.0, -0.5])


# ---------------------------------------------------------------------------
# exact-constant entries

class TestMaximalEntries:

    def test_indicator_oracle_value(self):
        chk = run_entry("MAX-LP", 0.0625)[0]
        # truncation-corrected geometric series for two coarse levels
        assert chk.lhs ** 2 == pytest.approx(1.5 - 2.0 ** -3, abs=1e-12)
        assert chk.rhs_terms == (2.0,)

    def test_exact_pass_and_level_independence(self):
        r = run_estimate_check(EstimateSpec(id="MAX-LP"))
        assert r.verdict == "exact-pass" and r.passed()
        # adding finer levels cannot change the indicator's maximal function
        assert max(r.primary.n_emp) == pytest.approx(min(r.primary.n_emp), rel=1e-14)
        assert r.notes["analytic_bound"]["satisfied"]

    def test_random_fields_respect_doob_bound(self):
        filt = full_space(1, -2, 5, (0.0,), (4.0,))
        rng = np.random.default_rng(3)
        for p in (1.5, 2.0, 4.0):
            for _ in range(5):
                g = filt.field(rng.uniform(0.0, 1.0, filt.shape))
                mg = dyadic_maximal(g)
                lhs = float((np.abs(mg.values) ** p).sum()) ** (1 / p)
                rhs = float((np.abs(g.values) ** p).sum()) ** (1 / p)
                assert lhs <= p / (p - 1) * rhs * (1 + 1e-9)

    def test_weak_type_two_level_tightness(self):
        filt = full_space(1, 0, 1, (0.0,), (1.0,))
        g = filt.field(np.array([2.0, 0.0]))
        mg = dyadic_maximal(g).values
        vol = filt.finest_volume
        for avg in (1.0, 2.0):
            lam = avg * (1 - 1e-9)
            above = mg > lam
            measure = float(above.sum()) * vol
            flow = float((g.values * above).sum()) * vol
            ratio = lam * measure / flow
            assert ratio <= 1 + 1e-12
            assert ratio >= 1 - 1e-6

    def test_weak_type_entry_is_exact_pass(self):
        r = run_estimate_check(EstimateSpec(id="MAX-WEAK"))
        assert r.verdict == "exact-pass" and r.passed()
        assert max(r.primary.n_emp) <= 1 + 1e-9

    def test_zero_field_exercises_zero_convention(self):
        filt = full_space(1, 0, 3, (0.0,), (1.0,))
        mg = dyadic_maximal(filt.field(np.zeros(filt.shape)))
        assert not mg.values.any()
        assert empirical_constant(0.0, [0.0]) == 0.0


# ---------------------------------------------------------------------------
# catalog recipes

class TestCatalogRecipes:

    def test_fs_local_reports_hypothesis_quality(self):
        r = run_estimate_check(EstimateSpec(id="FS-LOCAL"))
        assert r.verdict == BOUNDED
        # coarsest average is the truncation stand-in for decay at coarse levels
        assert 0 < r.notes["coarsest_average"] < 1
        assert r.notes["beta_type_constant"] >= 1.0

    def test_homogeneous_scaling_leaves_ratio_invariant(self):
        base = n_emp_of(run_entry("W2P-GLOBAL", 0.05)[0])
        scaled = n_emp_of(run_entry("W2P-GLOBAL", 0.05, amplitude=3.7)[0])
        assert scaled == pytest.approx(base, rel=1e-9)

    def test_u_term_coefficient_scales_like_inverse_square(self):
        p = 4.0
        r0s = (1.0, 0.5, 0.25)
        terms = [run_entry("W2P-GLOBAL", 0.05, r0=r0)[0].rhs_terms[1] for r0 in r0s]
        coeff = np.array(terms) / terms[0]
        slope = np.polyfit(np.log(r0s), np.log(coeff), 1)[0]
        assert slope == pytest.approx(-2 * p, rel=0.15)

    def test_mixed_collapses_to_apriori_ratio(self):
        p = 3.0
        plain = n_emp_of(run_entry("APRIORI", 0.0625)[0])
        mixed = n_emp_of(run_entry("MIXED", 0.0625)[0])
        assert mixed == pytest.approx(plain ** (1 / p), rel=0.01)

    def test_epsilon_moves_displayed_coefficients(self):
        half = run_entry("INTERP-LOCAL", 0.1, eps=0.5)[0]
        full = run_entry("INTERP-LOCAL", 0.1, eps=1.0)[0]
        assert half.rhs_terms[0] == pytest.approx(0.5 * full.rhs_terms[0], rel=1e-12)
        assert half.rhs_terms[1] == pytest.approx(2.0 * full.rhs_terms[1], rel=1e-12)

    def test_slab_entry_produces_four_finite_equations(self):
        checks = run_entry("HS-SLAB", 0.1)
        assert [c.equation for c in checks] == [
            "slab_hessian", "slab_gradient", "far_hessian", "far_gradient"]
        for c in checks:
            assert math.isfinite(c.lhs)
            assert all(math.isfinite(t) and t >= 0 for t in c.rhs_terms)

    def test_pointwise_entry_reports_worst_node(self):
        chk = run_entry("OSC", 0.12)[0]
        assert chk.equation == "sharp_pointwise"
        assert n_emp_of(chk) < 1.0
        assert isinstance(chk.notes["subsampled_pairs"], bool)

    def test_dirichlet_entry_rejects_nonzero_trace(self):
        with pytest.raises(ValueError, match="vanish on the boundary"):
            run_entry("HS-DIRICHLET", 0.1, input="bump")

    def test_slab_bump_on_the_face_is_refused(self):
        # every set on a half grid has its trace checked, the slab bumps of
        # HS-SLAB, HS-WEIGHTED and HS-MIXED too: one centred on the face is
        # refused, and at its default centre the same recipe builds
        params = ENTRIES["HS-SLAB"].merged({})
        with pytest.raises(ValueError, match="vanish on the boundary"):
            catalog._slab_fields(params, 0.1, center=0.0)
        assert catalog._slab_fields(params, 0.1)[2].any()

    def test_zero_trace_reads_the_half_axis_face(self):
        # the trace is the box's first layer along the half axis: axis 0 in
        # space, axis 1 behind a time axis; the other faces are not read
        for grid in (box_grid((0, -1), (1, 1), (5, 5), half_axis=0),
                     box_grid((0, 0), (1, 1), (5, 5), time_axis=True, half_axis=1)):
            face = (slice(None),) * grid.half_axis + (0,)
            other = (slice(None),) * (1 - grid.half_axis) + (0,)
            u = np.arange(1.0, 26.0).reshape(5, 5)
            u[face] = 0.0
            assert catalog._zero_trace((grid, None, u))[2] is u
            u[face] = 1e-13 * u.max()
            catalog._zero_trace((grid, None, u))
            u[face], u[other] = 1e-6, 0.0
            with pytest.raises(ValueError, match="vanish on the boundary"):
                catalog._zero_trace((grid, None, u))

    def test_osc_radii_step_by_root_two_up_to_the_box(self):
        # rho is a rung (the floored maximal reads radii from rho on), the
        # rungs grow by 1.40 to 1.43 (about sqrt 2) from rho/4, and the box's longest side
        # caps them, a radius equal to that side kept
        for lo, hi in (((-1, -1), (1, 1)), ((0, -1), (4, 1))):
            grid = box_grid(lo, hi, (9, 9))
            cap = max(b - a for a, b in zip(lo, hi))
            for rho in (0.25, 0.5, 1.0, 2.0):
                radii = catalog._osc_radii(grid, rho)
                assert radii[0] == 0.25 * rho and rho in radii
                assert radii[-1] <= cap * (1 + 1e-9)
                ratios = np.divide(radii[1:], radii[:-1])
                assert np.all((ratios >= 1.4 - 1e-12) & (ratios <= 1.43))
                assert len(radii) == 9 or radii[-1] * 1.42 > cap
        assert catalog._osc_radii(box_grid((-1, -1), (1, 1), (9, 9)), 1.0)[-1] == 2.0

    def test_dirichlet_default_runs_all_forms(self):
        checks = run_entry("HS-DIRICHLET", 0.1)
        assert [c.equation for c in checks] == [
            "support_hessian", "gradient_pair", "absorbed_zeroth"]
        assert all(n_emp_of(c) < 1.0 for c in checks)

    @pytest.mark.parametrize("eid", ENTRY_IDS)
    def test_equation_layout_is_pinned(self, eid):
        # equation names in order with their rhs term counts and note keys,
        # at the coarsest ladder step (OSC-P at 0.2, IDENTITIES at 10
        # instances); the runner reads every parameter the entry takes, so
        # none is accepted, validated and echoed to no effect
        entry = ENTRIES[eid]
        x = {"OSC-P": 0.2, "IDENTITIES": 10.0}.get(eid, entry.ladder[0])
        params = entry.merged({})
        entry.validate(params)
        params = ReadRecorder(params)
        checks = entry.runner(params, x, 0)
        assert [(c.equation, len(c.rhs_terms)) for c in checks] == EQUATION_LAYOUT[eid]
        assert [tuple(sorted(c.notes)) for c in checks] == \
            EQUATION_NOTES.get(eid, [()] * len(checks))
        assert sorted(entry.defaults.keys() - params.read) == []

    def test_para_hs_mixed_space_outer_form_is_its_own_norm(self):
        # at the defaults p1 = p2 and the two cylinder forms coincide; with
        # p2 != p1 the space-outer iterated norm must differ
        def lhs(**kw):
            time_outer, space_outer, _ = run_entry("PARA-HS-MIXED", 0.1, **kw)
            return time_outer.lhs, space_outer.lhs

        t, x = lhs(p2=5.0)
        assert abs(t - x) > 1e-4 * abs(t)
        t, x = lhs()
        assert x == pytest.approx(t, rel=1e-12)

    def test_parabolic_entry_uses_time_derivative(self):
        # dropping the time term must change the operator image integral
        with_dt = run_entry("PARA-GLOBAL", 0.2)[0]
        frozen = run_entry("PARA-GLOBAL", 0.2, t_radius=0.61)[0]
        assert with_dt.rhs_terms[0] != pytest.approx(frozen.rhs_terms[0], rel=1e-6)
        assert n_emp_of(with_dt) < 1.0

    def test_covering_max_entries_bounded_at_default_ladders(self):
        # INTERP and OSC at their own ladders, within a generous budget;
        # OSC-P's default ladder takes 2.3-2.5 s on a 2-core host (seed 0,
        # inside a one-process sweep of all entries) and stays out of this run
        start = time.perf_counter()
        for eid in ("INTERP", "OSC"):
            r = run_estimate_check(EstimateSpec(id=eid))
            assert r.verdict == BOUNDED and r.passed(), eid
        assert time.perf_counter() - start < 20.0

    @pytest.mark.parametrize("p,calls", [(2.0, 5), (3.0, 7)])
    def test_interp_takes_each_covering_max_once(self, monkeypatch, p, calls):
        # seven (field, exponent) pairs; at p = 2 = d two of them repeat
        seen = []
        real = catalog.geometric_maximal
        monkeypatch.setattr(catalog, "geometric_maximal",
                            lambda *args, **kw: seen.append(args) or real(*args, **kw))
        run_entry("INTERP", 0.125, p=p)
        assert len(seen) == calls
        run_entry("INTERP", 0.0625, p=p)
        assert len(seen) == 2 * calls


# ---------------------------------------------------------------------------
# masks from axis vectors

def node_array(g):
    return np.stack(np.meshgrid(*(g.axis_nodes(ax) for ax in range(g.ndim)), indexing="ij"),
                    axis=-1)


class TestMasks:
    """The origin region, a ball on a space grid and a forward cylinder on a
    time grid, bit for bit against its definition on the materialized node
    array, including radii that land exactly on nodes."""

    @pytest.mark.parametrize("shape", [(5,), (9, 9), (10, 12), (9, 8, 11)])
    def test_ball_mask_matches_node_array_definition(self, shape):
        d = len(shape)
        g = box_grid((-1.0,) * d, (1.0,) * d, shape)
        nodes = node_array(g)
        on_node = float(g.axis_nodes(d - 1)[-2])
        for radius in (0.5, on_node, 1.0, 0.37):
            want = ((nodes ** 2).sum(axis=-1) < radius ** 2).astype(np.float64)
            got = catalog._origin_mask(g, radius)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("shape", [(5, 9), (5, 9, 9), (9, 17, 17), (6, 10, 12),
                                       (7, 8, 9, 6)])
    def test_cylinder_mask_matches_node_array_definition(self, shape):
        d = len(shape) - 1
        g = box_grid((0.0,) + (-1.0,) * d, (1.0,) + (1.0,) * d, shape, time_axis=True)
        nodes = node_array(g)
        space = (nodes[..., 1:] ** 2).sum(axis=-1)
        # r = 0.5: r^2 = 0.25 is a time node and 0.5 a space node on the odd shapes
        for radius in (0.5, float(np.sqrt(g.axis_nodes(0)[-2])), 0.8, 2.2):
            want = ((nodes[..., 0] < radius ** 2) & (space < radius ** 2)).astype(np.float64)
            got = catalog._origin_mask(g, radius)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_para_global_fine_step_peaks_below_one_node_array(self):
        # PARA-GLOBAL's finest default step, h = 0.025: a (65, 113, 113) grid
        prm = ENTRIES["PARA-GLOBAL"].defaults
        d = prm["d"]
        mf = with_time_profile(manufactured("bump", d, radius=prm["radius"]),
                               t_center=prm["t_center"], t_radius=prm["t_radius"])
        grid = catalog._grid((0.0,) + (-1.4,) * d, (1.6,) + (1.4,) * d, 0.025, time_axis=True)
        node_bytes = 8 * grid.ndim * math.prod(grid.shape)
        peaks = []
        tracemalloc.start()
        try:
            for call in (lambda: mf.on_grid(grid),
                         lambda: catalog._origin_mask(grid, prm["R"] + prm["r0"])):
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert grid.shape == (65, 113, 113)
        assert max(peaks) < node_bytes

    def test_para_global_operator_image_builds_no_point_array(self):
        # evaluate_operator at PARA-GLOBAL's h = 0.025 peaks below one point
        # array of the support box (8 * 3 * box nodes, half the grid's): the
        # operator reads the box's axis coordinates, and its image stays on
        # the box
        prm = ENTRIES["PARA-GLOBAL"].defaults
        mf = with_time_profile(manufactured("bump", prm["d"], radius=prm["radius"]),
                               t_center=prm["t_center"], t_radius=prm["t_radius"])
        grid = catalog._grid((0.0, -1.4, -1.4), (1.6, 1.4, 1.4), 0.025, time_axis=True)
        u = mf.on_grid(grid)
        derivs = fd_derivatives(u)
        op = catalog.build_operator(prm)
        tracemalloc.start()
        try:
            evaluate_operator(op, u, derivs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        box_nodes = derivs.box_dt.size
        assert 0.45 < box_nodes / math.prod(grid.shape) < 0.55
        assert peak < 8 * 3 * box_nodes


# ---------------------------------------------------------------------------
# masses, masks and integrals on a support box

BOX_GRIDS = {
    "ball": box_grid((-1.0, -1.0), (1.0, 1.0), (17, 21)),
    "time": box_grid((0.0, -1.2, -1.2), (1.6, 1.2, 1.2), (9, 13, 11), time_axis=True),
    "half": box_grid((0.0, -1.0), (2.0, 1.0), (15, 12), half_axis=0),
}


def grid_boxes(grid):
    """An interior box, boxes on the lower and on the upper faces, one that
    spans some axes whole, and the whole grid."""
    shape = grid.shape
    yield tuple(slice(2, n - 3) for n in shape)
    yield tuple(slice(0, n // 2 + 1) for n in shape)
    yield tuple(slice(n // 2, n) for n in shape)
    yield tuple(slice(0, n) if i % 2 else slice(1, n - 1) for i, n in enumerate(shape))
    yield tuple(slice(0, n) for n in shape)


def box_weights(grid):
    ax = 1 if grid.time_axis else 0
    return (None, PowerX1(0.5, axis=ax), PowerX1(-0.5, axis=ax), HattedPowerX1(1.0, axis=ax))


def whole_box_mixed_norm(grid, box, spec, values):
    """The iterated norm with each group's |f|^p times masses formed on the
    whole (reduced) box and reduced in one call."""
    arr = values
    remaining = list(range(grid.ndim))
    for gi in range(len(spec.groups) - 1, -1, -1):
        p = float(spec.exponents[gi])
        w = spec.weights[gi] if spec.weights is not None else None
        tmp = power(np.abs(arr), p)
        for ax in spec.groups[gi]:
            shape = [1] * tmp.ndim
            shape[remaining.index(ax)] = -1
            tmp *= NodeMasses(grid, w, box).factors[ax].reshape(shape)
        arr = power(tmp.sum(axis=tuple(sorted(remaining.index(ax) for ax in spec.groups[gi]))),
                    1.0 / p)
        for ax in spec.groups[gi]:
            remaining.remove(ax)
    return float(arr)


class TestBoxHelpers:
    """Masses, masks and the slab hat on a box are the whole grid's sliced to
    the box, bit for bit; integrals and mixed norms on the box differ from the
    whole grid's only by the order of summation."""

    @pytest.mark.parametrize("kind", sorted(BOX_GRIDS))
    def test_masses_equal_whole_grid_sliced(self, kind):
        grid = BOX_GRIDS[kind]
        for w in box_weights(grid):
            whole = NodeMasses(grid, w)[:]
            for box in grid_boxes(grid):
                got = NodeMasses(grid, w, box)[:]
                assert got.shape == whole[box].shape
                assert got.tobytes() == whole[box].tobytes()
                masses = NodeMasses(grid, w, box)
                for s in (slice(0, 1), slice(1, 4), slice(2, None)):
                    assert masses[s].tobytes() == got[s].tobytes()

    @pytest.mark.parametrize("kind", sorted(BOX_GRIDS))
    def test_masks_and_hat_equal_whole_grid_sliced(self, kind):
        grid = BOX_GRIDS[kind]
        on_node = float(grid.axis_nodes(grid.ndim - 1)[-3])
        wholes = {radius: catalog._origin_mask(grid, radius)
                  for radius in (0.5, on_node, 1.3, 2.2)}
        for box in grid_boxes(grid):
            for radius, whole in wholes.items():
                got = catalog._origin_mask(grid, radius, box)
                assert got.shape == whole[box].shape
                assert got.tobytes() == whole[box].tobytes()
            hat = np.broadcast_to(catalog._slab_hat(grid), grid.shape)[box]
            got = np.broadcast_to(catalog._slab_hat(grid, box), hat.shape)
            assert got.tobytes() == hat.tobytes()

    def test_catalog_support_boxes_equal_whole_grid_sliced(self):
        # the boxes two entries meet: PARA-GLOBAL's, inside the grid, and
        # PARA-HS's, on the boundary face of its half axis
        for fields in (catalog._para_fields(ENTRIES["PARA-GLOBAL"].defaults, 0.05),
                       catalog._para_fields(ENTRIES["PARA-HS"].defaults, 0.05, 1.3,
                                            kind="odd_bump", wall=1.3)):
            grid, box = fields[:2]
            assert 0 < fields[2].size < math.prod(grid.shape)
            for w in box_weights(grid):
                assert NodeMasses(grid, w, box)[:].tobytes() == \
                    NodeMasses(grid, w)[:][box].tobytes()
            for radius in (0.8, 1.1, 2.2):
                mask = catalog._origin_mask(grid, radius, box)
                assert mask.tobytes() == catalog._origin_mask(grid, radius)[box].tobytes()
        assert box[1].start == 0 and box[2].start > 0

    @pytest.mark.parametrize("kind", sorted(BOX_GRIDS))
    def test_integrals_and_mixed_norms_agree_with_whole_grid(self, kind):
        grid = BOX_GRIDS[kind]
        rng = np.random.default_rng(len(kind))
        nd = grid.ndim
        specs = [MixedNormSpec(groups=tuple((ax,) for ax in reversed(range(nd))),
                               exponents=tuple(2.0 + 0.5 * ax for ax in range(nd))),
                 MixedNormSpec(groups=((0,), tuple(range(1, nd))), exponents=(3.0, 2.5),
                               weights=(PowerX1(0.5, axis=0), None))]
        for box in grid_boxes(grid):
            whole = np.zeros(grid.shape)
            whole[box] = rng.random(whole[box].shape)
            on_box = whole[box].copy()
            for w in box_weights(grid):
                want = catalog._integral(whole, NodeMasses(grid, w)[:])
                got = catalog._integral(on_box, NodeMasses(grid, w, box)[:])
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
                want = weighted_norm(GridFunction(grid, whole), 2.5, w)
                got = weighted_norm(GridFunction(grid, on_box, box), 2.5, w)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)
            for spec in specs:
                want, got = (box_mixed_norm(f.grid, f.box, spec, f.values) for f in
                             (GridFunction(grid, whole), GridFunction(grid, on_box, box)))
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("slab_nodes", [1, 40, 2 ** 14])
    def test_slab_by_slab_integrands_equal_whole_box_formulas(self, monkeypatch, slab_nodes):
        # integrands and stacks formed one slab of axis-0 layers at a time,
        # against masses formed slab by slab, equal their whole-box formulas
        # bit for bit; the collar, summed slab by slab, differs from the
        # whole grid's sum only in order
        grid = BOX_GRIDS["time"]
        box = next(grid_boxes(grid))
        rng = np.random.default_rng(slab_nodes)
        shape = tuple(len(range(n)[s]) for n, s in zip(grid.shape, box))
        d2, d1 = rng.random(shape), rng.random(shape)
        u, fv = rng.normal(size=shape), rng.normal(size=shape)
        mass = NodeMasses(grid, PowerX1(0.5, axis=1), box)[:]
        monkeypatch.setattr(calculus, "_SLAB_NODES", slab_nodes)
        for p in (2.0, 3.0, 4.5):
            lhs = power(d2, p) + power(d1, p) + power(np.abs(u), p)
            for masses in (mass, NodeMasses(grid, PowerX1(0.5, axis=1), box)):
                got = catalog._power_integral(p, masses, d2, d1, u)
                assert got == catalog._integral(lhs, mass)
                assert catalog._power_integral(p, masses, lambda s: fv[s] - u[s]) == \
                    catalog._integral(power(np.abs(fv - u), p), mass)
            acc = np.zeros(shape)
            for a in (d2, d1, u):
                acc = acc + power(np.abs(a), p)
            stack = calculus.by_slabs(catalog._stack(p, d2, d1, u), shape)
            assert stack.tobytes() == power(acc, 1.0 / p).tobytes()
        for w in box_weights(grid):
            for radius in (0.5, 0.8, 2.2):
                mask = catalog._origin_mask(grid, radius)
                want = catalog._integral(mask, NodeMasses(grid, w)[:])
                got = catalog._collar(grid, w, radius)
                assert got == pytest.approx(want, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("slab_nodes", [1, 40, 2 ** 14])
    def test_slab_by_slab_mixed_norms_equal_whole_box_formula(self, monkeypatch, slab_nodes):
        # innermost groups of the axis-0 layers alone (the running sum carried
        # as a first layer), of space axes only (each layer on its own) and of
        # axis 0 with another axis (one piece), on arrays and slab callables,
        # with layers of more and of fewer nodes than numpy's 8192-element
        # buffer and than a slab
        time = BOX_GRIDS["time"]
        cases = [(time, box, spec) for box in (next(grid_boxes(time)), (slice(None),) * 3)
                 for spec in (
                     MixedNormSpec(groups=((2,), (1,), (0,)), exponents=(4.0, 3.0, 2.5)),
                     MixedNormSpec(groups=((1, 2), (0,)), exponents=(3.0, 2.0),
                                   weights=(PowerX1(0.5, axis=1), None)),
                     MixedNormSpec(groups=((0,), (1, 2)), exponents=(3.0, 2.5),
                                   weights=(None, PowerX1(0.5, axis=1))),
                     MixedNormSpec(groups=((0,), (2,), (1,)), exponents=(3.0, 2.5, 4.0),
                                   weights=(None, None, HattedPowerX1(1.0, axis=1))),
                     MixedNormSpec(groups=((2,), (0, 1)), exponents=(2.0, 3.5)))]
        wide = box_grid((0.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 97, 91), time_axis=True)
        cases += [(wide, (slice(None),) * 3, MixedNormSpec(groups=((2,), (1,), (0,)),
                                                          exponents=(4.0, 3.0, 2.5))),
                  (wide, (slice(1, 4), slice(None), slice(2, 90)),
                   MixedNormSpec(groups=((0,), (1, 2)), exponents=(2.0, 3.0)))]
        thin = BOX_GRIDS["ball"]
        cases += [(thin, (slice(None), slice(3, 4)), MixedNormSpec(groups=((1,), (0,)),
                                                                  exponents=(2.0, 3.0))),
                  (thin, (slice(2, 15), slice(None)), MixedNormSpec(groups=((0,), (1,)),
                                                                   exponents=(2.0, 3.0)))]
        monkeypatch.setattr(calculus, "_SLAB_NODES", slab_nodes)
        for i, (grid, box, spec) in enumerate(cases):
            shape = tuple(len(range(n)[s]) for n, s in zip(grid.shape, box))
            u = np.random.default_rng([slab_nodes, i]).normal(size=shape)
            want = whole_box_mixed_norm(grid, box, spec, u)
            assert box_mixed_norm(grid, box, spec, u) == want
            assert box_mixed_norm(grid, box, spec, lambda s: u[s]) == want

    def test_box_samples_pad_and_are_checked(self):
        grid = BOX_GRIDS["time"]
        box = next(grid_boxes(grid))
        whole = np.zeros(grid.shape)
        whole[box] = np.random.default_rng(4).random(whole[box].shape) + 1.0
        f = GridFunction(grid, whole[box].copy(), box)
        assert f.padded().tobytes() == whole.tobytes()
        assert GridFunction(grid, whole).box == tuple(slice(0, n) for n in grid.shape)
        with pytest.raises(ValueError, match="does not start with box"):
            GridFunction(grid, whole, box)
        with pytest.raises(ValueError, match="whole grid"):
            fd_derivatives(f)


# ---------------------------------------------------------------------------
# counterexample entry

class TestExponentialCounterexample:

    def test_windows_diverge_with_zero_defect(self):
        r = run_estimate_check(EstimateSpec(id="NEG-EXP"))
        assert r.verdict == DIVERGING
        assert r.passed()                      # divergence is the expected outcome
        assert all(v == float("inf") for v in r.primary.n_emp)
        # defect vanishes identically, so every window's right side is zero
        assert all(sum(t) == 0.0 for t in r.primary.rhs_terms)
        # the finite numerator keeps doubling across the window ladder
        lhs = r.primary.lhs
        assert all(b >= 2 * a for a, b in zip(lhs, lhs[1:]))

    def test_window_values_match_analytic_integral(self):
        p = 2.0
        for L in (1.0, 2.0):
            chk = run_entry("NEG-EXP", L)[0]
            want = 3.0 * (math.exp(p * L) - 1.0) / p
            assert chk.lhs == pytest.approx(want, rel=1e-3)


# ---------------------------------------------------------------------------
# study drivers

class TestStudyDrivers:

    def test_unknown_id_lists_catalog(self):
        with pytest.raises(ValueError, match="unknown estimate id 'W3P'"):
            run_estimate_check(EstimateSpec(id="W3P"))

    def test_unknown_parameter_names_entry(self):
        with pytest.raises(ValueError, match="unknown parameter 'bogus'"):
            run_estimate_check(EstimateSpec(id="MAX-LP", params={"bogus": 1}))

    @pytest.mark.parametrize("eid,params,needle", [
        ("MAX-LP", {"p": 1.0}, "p > 1"),
        ("FS-LOCAL", {"p": 0.5}, "gamma\\*beta"),
        ("W2P-GLOBAL", {"p": 1.5}, "p > d"),
        ("W2P-GLOBAL", {"q": 2.0}, "power weight exponent"),
        ("APRIORI", {"q": -1.5}, "power weight exponent"),
        ("INTERP", {"geometry": "spherical"}, "elliptic or parabolic"),
        ("OSC", {"nu": 1.5}, "nu >= 2"),
        ("PARA-GLOBAL", {"p": 2.5}, "p > d \\+ 1"),
        ("PARA-HS-MIXED", {"q": 0.5}, "power weight exponent"),
        ("LOCAL-W2P", {"r": 1.6}, "0 < r < R"),
    ])
    def test_constraint_rejections_name_the_constraint(self, eid, params, needle):
        with pytest.raises(ValueError, match=needle):
            run_estimate_check(EstimateSpec(id=eid, params=params, ladder=(0.1,)))

    def test_non_dyadic_spacing_rejected_for_dyadic_entries(self):
        with pytest.raises(ValueError, match="not dyadic"):
            run_estimate_check(EstimateSpec(id="MAX-LP", ladder=(0.3,)))

    @pytest.mark.parametrize("entry,ladder", [("IDENTITIES", (0.5,)), ("NEG-EXP", (1.0, -2.0)),
                                              ("MAX-LP", (0.25, float("nan")))])
    def test_ladder_values_an_entry_cannot_run_rejected(self, entry, ladder):
        with pytest.raises(ValueError, match=f"ladder value .* for {entry} must be"):
            run_estimate_check(EstimateSpec(id=entry, ladder=ladder))

    def test_refinement_ladder_guards(self):
        spec = EstimateSpec(id="ZEROTH-1D")
        with pytest.raises(ValueError, match="at least 3"):
            refinement_study(spec, (0.1, 0.05))
        with pytest.raises(ValueError, match="strictly decreasing"):
            refinement_study(spec, (0.05, 0.05, 0.025))
        with pytest.raises(ValueError, match="below the supported resolution"):
            refinement_study(spec, (0.1, 0.05, 1e-5))
        with pytest.raises(ValueError, match="not driven by a spacing ladder"):
            refinement_study(EstimateSpec(id="IDENTITIES"), (3.0, 2.0, 1.0))

    def test_refinement_study_runs_custom_ladder(self):
        r = refinement_study(EstimateSpec(id="ZEROTH-1D"), (0.1, 0.05, 0.025))
        assert r.ladder == [0.1, 0.05, 0.025]
        assert r.verdict == BOUNDED

    def test_identity_entry_exact_pass_and_threshold_failure(self):
        good = run_estimate_check(EstimateSpec(id="IDENTITIES", ladder=(30,)))
        assert good.verdict == "exact-pass" and good.passed()
        # an absurd tolerance flips the analytic gate without changing trends
        bad = run_estimate_check(
            EstimateSpec(id="IDENTITIES", params={"tolerance": 1e-18}, ladder=(30,)))
        assert bad.verdict == BOUNDED
        assert not bad.notes["analytic_bound"]["satisfied"]
        assert not bad.passed()

    def test_operator_class_note_attached(self):
        r = run_estimate_check(EstimateSpec(id="APRIORI", ladder=(0.125, 0.0833, 0.0625)))
        note = r.notes["operator_class"]
        # what the class check measured; the kind is params["operator"], and
        # an operator that fails the check raises before its note is kept
        assert sorted(note) == ["ellipticity_range", "max_lipschitz_ratio"]
        low, high = note["ellipticity_range"]
        assert 0 < low <= high and note["max_lipschitz_ratio"] > 0

    def test_raising_step_ends_only_its_entry(self, monkeypatch):
        # ZEROTH-1D raises at its second step: its report keeps the first
        # step, errs and fails; MAX-LP beside it is the report of a run alone
        entry = ENTRIES["ZEROTH-1D"]
        steps = []

        def runner(params, x, seed):
            steps.append(x)
            if len(steps) == 2:
                raise RuntimeError("boom")
            return entry.runner(params, x, seed)

        clean = run_suite([EstimateSpec(id="ZEROTH-1D"), EstimateSpec(id="MAX-LP")])
        monkeypatch.setitem(ENTRIES, "ZEROTH-1D", dataclasses.replace(entry, runner=runner))
        reports = run_suite([EstimateSpec(id="ZEROTH-1D"), EstimateSpec(id="MAX-LP")])
        max_lp, bad = reports
        assert bad.id == "ZEROTH-1D" and bad.verdict == ERROR and not bad.passed()
        assert bad.notes["error"] == "RuntimeError: boom"
        assert bad.ladder == [entry.ladder[0]]
        assert bad.primary.lhs == clean[1].primary.lhs[:1]
        assert bad.primary.n_emp == clean[1].primary.n_emp[:1]
        assert suite_to_json("s", [max_lp], 0) == suite_to_json("s", clean[:1], 0)
        rows = suite_to_csv(reports).splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == ["MAX-LP"] * 3 + ["ZEROTH-1D"]
        assert csv_from_doc(json.loads(suite_to_json("s", reports, 0))) == suite_to_csv(reports)

    def test_suite_order_does_not_matter(self):
        specs = [EstimateSpec(id="ZEROTH-1D"), EstimateSpec(id="MAX-LP"),
                 EstimateSpec(id="MAX-WEAK")]
        a = suite_to_json("s", run_suite(specs), seed=0)
        b = suite_to_json("s", run_suite(list(reversed(specs))), seed=0)
        assert a == b
        with pytest.raises(ValueError, match="jobs must be 1, got 2"):
            run_suite(specs, jobs=2)

    def test_repeated_ladder_value_is_refused(self):
        with pytest.raises(ValueError, match="spacing ladder value 0.2 for OSC-P is repeated"):
            run_estimate_check(EstimateSpec(id="OSC-P", ladder=(0.2, 0.2, 0.2)))

    @pytest.mark.parametrize("eid,ladder", [("ZEROTH-1D", (0.025, 0.1, 0.05)),
                                            ("MAX-LP", (0.0625, 0.25, 0.125))])
    def test_unordered_ladder_is_refused(self, eid, ladder):
        with pytest.raises(ValueError, match=f"value {ladder[1]} for {eid} is repeated or out "
                                             "of order: the ladder must be strictly decreasing"):
            run_estimate_check(EstimateSpec(id=eid, ladder=ladder))

    @pytest.mark.parametrize("eid,params,ladder,needle", [
        ("APRIORI", {"p": 10 ** 400}, (), "p is too large for a float"),
        ("APRIORI", {"q": 10 ** 400}, (), "q is too large for a float"),
        ("APRIORI", {}, (10 ** 400,), "spacing ladder value for APRIORI is too large"),
        ("IDENTITIES", {}, (10 ** 400,), "instances ladder value for IDENTITIES is too large"),
        ("APRIORI", {"p": 10 ** 5000}, (), "p is too large for a float"),
        ("APRIORI", {"d": 10 ** 5000}, (), "d is too large for a float"),
        ("APRIORI", {}, (10 ** 5000,), "spacing ladder value for APRIORI is too large"),
        ("IDENTITIES", {}, (10 ** 5000,), "instances ladder value for IDENTITIES is too large"),
    ], ids=["p", "q", "APRIORI-ladder", "IDENTITIES-ladder", "p-5000-digits", "d-5000-digits",
            "APRIORI-ladder-5000-digits", "IDENTITIES-ladder-5000-digits"])
    def test_integer_past_the_float_range_is_refused(self, eid, params, ladder, needle):
        # a ValueError naming the parameter or the ladder, not OverflowError,
        # and no integer's digits, which past 4300 of them Python refuses to
        # format
        with pytest.raises(ValueError, match=needle) as err:
            run_estimate_check(EstimateSpec(id=eid, params=params, ladder=ladder))
        assert "0000" not in str(err.value)
        if ladder and eid == "APRIORI":
            with pytest.raises(ValueError, match=needle):
                refinement_study(EstimateSpec(id=eid), ladder + (0.05, 0.025))


PDE_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "pde.cfg"

# One rule per parameter name, whichever entry has the name.
NAME_RULES = {
    **{key: f"{key} must be finite and positive" for key in (
        "radius", "sigma", "t_radius", "extent", "rho", "r0", "R", "mu", "h",
        "tolerance", "nu", "xi")},
    **{key: f"{key} must lie in (0, 1]" for key in ("gamma", "beta", "eps")},
    "r": "r must satisfy 0 < r < R",
}


@pytest.mark.parametrize("eid", [eid for eid in ENTRY_IDS
                                 if NAME_RULES.keys() & ENTRIES[eid].defaults.keys()])
def test_named_parameters_follow_one_rule(eid):
    entry = ENTRIES[eid]
    for key in NAME_RULES.keys() & entry.defaults.keys():
        bad = [0, -1, math.inf, math.nan, True]
        if key == "r":
            bad += [entry.defaults["R"], entry.defaults["R"] + 0.5]
        for value in bad:
            # a bool is refused by the float parameter's type rule
            need = f"{key} must be a number, got True" if value is True else NAME_RULES[key]
            with pytest.raises(ValueError) as exc:
                entry.validate(entry.merged({key: value}))
            assert str(exc.value).startswith(need), (key, value, str(exc.value))


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_merged_types_every_parameter(eid):
    # a float default's parameter runs as a float, a None default's number
    # too, and an int default's as an int, whatever number type it is given
    entry = ENTRIES[eid]
    numeric = {key: int if type(v) is int else float for key, v in entry.defaults.items()
               if not isinstance(v, str)}
    for value in (1, np.int64(1), np.float64(1.0)):
        for key, want in numeric.items():
            if want is int and isinstance(value, np.floating):
                continue
            got = entry.merged({key: value})[key]
            assert type(got) is want and got == 1, (key, value)
    for key in numeric:
        for value in (True, False, np.bool_(True)):
            with pytest.raises(ValueError, match=f"^{key} must be"):
                entry.merged({key: value})


def test_catalog_casts_no_parameter():
    # merged types every parameter once; a runner or validator reads it as is
    tree = ast.parse(pathlib.Path(catalog.__file__).read_text())
    casts = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("float", "int")
             and any(isinstance(arg, ast.Subscript) and getattr(arg.value, "id", None)
                     in ("params", "p") for arg in node.args)]
    assert casts == [], f"catalog.py casts a parameter at lines {casts}"


def test_catalog_draws_difference_inputs_through_the_recipe():
    # every finite-difference input is one recipe sampled by _sampled; only
    # FS-LOCAL (a dyadic filtration) and ZEROTH-1D and NEG-EXP (analytic
    # derivatives) draw their own
    tree = ast.parse(pathlib.Path(catalog.__file__).read_text())

    def draws(root):
        return {node.lineno for node in ast.walk(root) if isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) or getattr(node.func, "attr", None))
                in ("manufactured", "with_time_profile")}

    allowed = ("_sampled", "_run_fs_local", "_run_zeroth_1d", "_run_neg_exp")
    inside = set().union(*(draws(fn) for fn in ast.walk(tree)
                           if isinstance(fn, ast.FunctionDef) and fn.name in allowed))
    outside = sorted(draws(tree) - inside)
    assert outside == [], f"catalog.py draws an input outside the recipe at lines {outside}"


@pytest.mark.parametrize("eid", ["W2P-GLOBAL", "HS-DIRICHLET", "PARA-GLOBAL", "PARA-HS"])
def test_collar_is_summed_only_under_a_nonzero_coefficient(monkeypatch, eid):
    # the collar term is tau0^p times a finite nonnegative collar: +0.0
    # without summing it at tau0 = 0, and the product at tau0 = 0.5
    entry, collar, sums = ENTRIES[eid], catalog._collar, []

    def spy(*args):
        sums.append(collar(*args))
        return sums[-1]

    monkeypatch.setattr(catalog, "_collar", spy)
    for tau0 in (0.0, 0.5):
        params = entry.merged({"tau0": tau0})
        term = entry.runner(params, entry.ladder[0], 0)[0].rhs_terms[2]
        if tau0:
            assert len(sums) == 1 and sums[0] > 0
            assert term == tau0 ** params["p"] * sums[0]
        else:
            assert not sums and term == 0.0 and math.copysign(1.0, term) == 1.0


def suite_pair(name, reports):
    return suite_to_json(name, reports, seed=0), suite_to_csv(reports)


class TestSharedFields:
    """Entries of one ``run_suite`` call share their field sets; the reports
    equal those of separate calls."""

    @pytest.fixture(scope="class")
    def pde(self):
        cfg = load_suite(str(PDE_CONFIG))
        specs = [EstimateSpec(id=eid, params=prm, ladder=ladder, seed=0)
                 for eid, prm, ladder in cfg.blocks]
        return cfg.name, specs, suite_pair(cfg.name, run_suite(specs))

    def test_one_call_equals_a_call_per_entry(self, pde):
        name, specs, together = pde
        apart = sorted((r for s in specs for r in run_suite([s])), key=lambda r: r.id)
        assert suite_pair(name, apart) == together

    def test_one_class_check_per_operator_recipe(self, monkeypatch):
        # the 18 operator entries of the pde workload have 3 operator
        # recipes; the reports are those of one call per entry (above)
        cfg = load_suite(str(PDE_CONFIG))
        specs = [EstimateSpec(id=eid, params=prm, ladder=ladder, seed=0)
                 for eid, prm, ladder in cfg.blocks]
        merged = [ENTRIES[s.id].merged(dict(s.params)) for s in specs]
        recipes = {(p["operator"], float(p["delta"]), int(p["d"])) for p in merged
                   if "operator" in p}
        calls, check = [], catalog.check_operator_class

        def spy(op, d, **kw):
            calls.append(d)
            return check(op, d, **kw)

        monkeypatch.setattr(catalog, "check_operator_class", spy)
        run_suite(specs)
        assert sum("operator" in p for p in merged) == 18
        assert len(calls) == len(recipes) == 3
        run_suite([specs[0]])
        run_suite([specs[0]])
        assert len(calls) == 5                # nothing outlives a run_suite call

    # entries drawing one input on one box with one operator
    GROUPS = (("APRIORI", "MIXED"), ("HS-WEIGHTED", "HS-MIXED"),
              ("HS-DIRICHLET", "HS-DIRICHLET-MIXED"),
              ("PARA-GLOBAL", "PARA-APRIORI", "PARA-MIXED"),
              ("PARA-HS", "PARA-HS-FULL", "PARA-HS-MIXED"))

    def test_one_set_per_recipe_and_step(self, monkeypatch):
        # the pde workload builds 33 sets: the first entry of each group
        # builds its set at each step and the others are handed that set;
        # the trace of every set on a half grid is checked once, when built
        cfg = load_suite(str(PDE_CONFIG))
        leader = {eid: group[0] for group in self.GROUPS for eid in group}
        running, built, handed, lead_sets, traces = [None], [], [], {}, []
        field_set, fields, zero_trace = catalog._field_set, catalog._fields, catalog._zero_trace

        def build(params, h, side, kind, wall, time, shape):
            built.append((running[0], h, wall is not None))
            return field_set(params, h, side, kind, wall, time, shape)

        def hand(params, h, *recipe, **shape):
            out = fields(params, h, *recipe, **shape)
            eid = running[0]
            if leader.get(eid) == eid:
                lead_sets[h] = out            # held for the group's run only
            elif eid in leader:
                handed.append((eid, h, out is lead_sets[h]))
            return out

        def tracked(entry):
            def runner(params, x, seed):
                running[0] = entry.id
                return entry.runner(params, x, seed)
            return dataclasses.replace(entry, runner=runner)

        monkeypatch.setattr(catalog, "_field_set", build)
        monkeypatch.setattr(catalog, "_fields", hand)
        monkeypatch.setattr(catalog, "_zero_trace", lambda f: traces.append(1) or zero_trace(f))
        for eid, _, _ in cfg.blocks:
            monkeypatch.setitem(catalog.ENTRIES, eid, tracked(ENTRIES[eid]))
        reports = run_suite([EstimateSpec(id=eid, params=prm, ladder=ladder, seed=0)
                             for eid, prm, ladder in cfg.blocks])
        assert all(r.verdict != ERROR for r in reports)
        assert len(built) == 33
        assert len(traces) == sum(half for _, _, half in built) == 15
        for group in self.GROUPS:
            steps = ENTRIES[group[0]].ladder
            assert [h for eid, h, _ in built if eid == group[0]] == list(steps)
            assert [(eid, h) for eid, h, _ in handed if eid in group] == [
                (eid, h) for eid in group[1:] for h in steps]
        assert not any(eid in leader and leader[eid] != eid for eid, _, _ in built)
        assert all(same for _, _, same in handed)

    def test_sets_are_shared_read_only_and_kept_for_one_recipe(self):
        para = ENTRIES["PARA-GLOBAL"].merged({})
        with catalog.shared_fields():
            first = catalog._para_fields(para, 0.1)
            assert catalog._para_fields(dict(para), 0.1) is first
            assert catalog._para_fields(para, 0.05) is not first
            assert catalog._para_fields(para, 0.1) is first
            for arr in first[2:]:
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 1.0
            assert catalog._para_fields(dict(para, delta=0.4), 0.1) is not first
            assert catalog._para_fields(para, 0.1) is not first
        assert catalog._SHARED.get() is None
        assert catalog._para_fields(para, 0.1) is not catalog._para_fields(para, 0.1)

    def test_para_global_finest_set_peaks_below_3_1_node_arrays(self):
        # PARA-GLOBAL's set at h = 0.025, 65 x 113 x 113 nodes: the input
        # sampled on its support box (about half the grid) and u, fv, d2 and
        # d1 on that box, written one slab of time layers at a time, peak at
        # 2.60 node arrays (measured); the bound leaves half a node array of
        # margin.  Whole-grid samples and derivatives held on the whole box
        # at once peaked at 6.0, and differencing every node at 13
        para = ENTRIES["PARA-GLOBAL"].merged({})
        catalog._para_fields(para, 0.1)
        tracemalloc.start()
        try:
            grid = catalog._para_fields(para, 0.025)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (65, 113, 113)
        assert peak < 3.1 * 8 * math.prod(grid.shape)

    def test_para_global_finest_step_peaks_below_3_05_node_arrays(self):
        # PARA-GLOBAL's h = 0.025 step from its set to _collar_hessian: the
        # set (u, fv, d2 and d1 on the support box, about half the grid) is
        # 2 node arrays, the integrand on the box 0.5 more, and the slabs of
        # the masses and the integrands lift the peak to 2.55 (measured; the
        # collar, summed slab by slab only when tau0 > 0, does not move it); the bound leaves half a node array of margin.  Masses
        # held on the box peaked at 3.06, the whole-grid collar mask, masses
        # and product at 5.0, and padded whole-grid fields and integrands at 9.2
        para = ENTRIES["PARA-GLOBAL"].merged({})
        tracemalloc.start()
        try:
            with catalog.shared_fields():
                grid = catalog._para_fields(para, 0.025)[0]
                tracemalloc.reset_peak()
                catalog._run_para_global(para, 0.025, 0)
                peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (65, 113, 113)
        assert peak < 3.05 * 8 * math.prod(grid.shape)

    def test_w2p_global_finest_step_peaks_below_1_65_node_arrays(self):
        # W2P-GLOBAL at h = 0.00625, 721 x 721 nodes, from sampling its bump
        # to its report: the support box holds 17% of the nodes, sampled one
        # slab at a time, and the run peaks at 1.14 node arrays (measured);
        # the bound leaves half a node array of margin.  The bump's
        # temporaries on the whole box peaked at 1.37, and sampling through a
        # whole-grid point array at 8.1 (32.2 MiB)
        entry = ENTRIES["W2P-GLOBAL"]
        tracemalloc.start()
        try:
            entry.runner(entry.merged({}), 0.00625, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.65 * 8 * 721 * 721

    def test_fs_local_finest_step_peaks_below_eight_finest_arrays(self):
        # FS-LOCAL at h = 2^-9, 512 x 512 finest cells: u sampled one slab at
        # a time, its masses and cached level means, and each integrand formed
        # as soon as its maximal or sharp array exists, peak at 5.84 finest
        # arrays (measured), with the thickness constant ranking one cell per
        # position.  A copy of u as its finest means and copies of the maxima
        # peaked at 7.65; whole-grid sampling, every level's full sort and
        # all three arrays held to the end at 13.3
        entry = ENTRIES["FS-LOCAL"]
        tracemalloc.start()
        try:
            entry.runner(entry.merged({}), 2.0 ** -9, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 8 * 512 * 512

    def test_three_entries_in_one_call_peak_within_one_alone(self):
        # PARA-GLOBAL, PARA-APRIORI and PARA-MIXED share every set.  Together
        # they peak no higher than PARA-GLOBAL alone outside run_suite, where
        # each step drops its set, plus the coarser sets the store keeps (u,
        # fv, d2 and d1 on the support box at every step but the finest) and
        # 64 KB for the Python objects around them
        entry = ENTRIES["PARA-GLOBAL"]
        kept = sum(4 * 8 * catalog._para_fields(entry.defaults, h)[2].size
                   for h in entry.ladder[:-1])
        run_estimate_check(EstimateSpec(id="PARA-GLOBAL", ladder=(0.1,)))
        three = [EstimateSpec(id=eid) for eid in ("PARA-GLOBAL", "PARA-APRIORI", "PARA-MIXED")]
        peaks = []
        tracemalloc.start()
        try:
            for run in (lambda: run_estimate_check(EstimateSpec(id="PARA-GLOBAL")),
                        lambda: run_suite(three)):
                tracemalloc.reset_peak()
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0] + kept + 2 ** 16


# ---------------------------------------------------------------------------
# serialization

@pytest.fixture(scope="module")
def reports():
    return run_suite([EstimateSpec(id="MAX-LP"), EstimateSpec(id="NEG-EXP"),
                      EstimateSpec(id="ZEROTH-1D")])


class TestSerialization:

    def test_json_sorted_versioned_and_stable(self, reports):
        text = suite_to_json("probe", reports, seed=0)
        doc = json.loads(text)
        assert doc["schema_version"] == 1
        ids = [e["id"] for e in doc["entries"]]
        assert ids == sorted(ids)
        assert suite_to_json("probe", reports, seed=0) == text

    def test_infinities_serialize_as_strings(self, reports):
        doc = json.loads(suite_to_json("probe", reports, seed=0))
        neg = next(e for e in doc["entries"] if e["id"] == "NEG-EXP")
        assert set(neg["primary"]["n_emp"]) == {"inf"}

    def test_csv_flattens_primary_series_only(self, reports):
        lines = suite_to_csv(reports).splitlines()
        assert lines[0] == "id,spacing,lhs,rhs_sum,n_emp,trend,verdict"
        assert len(lines) == 1 + sum(len(r.ladder) for r in reports)

    def test_csv_from_document_is_byte_identical(self, reports):
        text = suite_to_json("probe", reports, seed=0)
        assert csv_from_doc(json.loads(text)) == suite_to_csv(reports)


GEOMETRIC_CONFIG = PDE_CONFIG.with_name("geometric.cfg")


def dispatch_probe():
    """JSON of id, verdict and per-series trend and n_emp for the geometric
    workload's entries at their coarse ladders and two cheap pde entries."""
    cfg = load_suite(str(GEOMETRIC_CONFIG))
    specs = [EstimateSpec(id=eid, params=prm, ladder=ladder, seed=0)
             for eid, prm, ladder in cfg.blocks]
    specs += [EstimateSpec(id="ZEROTH-1D"), EstimateSpec(id="APRIORI")]
    return json.dumps([[r.id, r.verdict, [[s.trend, s.n_emp] for s in r.series]]
                       for r in run_suite(specs)])


class TestDispatchLevel:

    def test_baseline_dispatch_keeps_verdicts_and_constants(self):
        # numpy's SIMD kernels round some results differently from its
        # baseline ones; a fresh interpreter with every dispatched CPU feature
        # switched off must reach the same verdicts, and constants within
        # 1e-13 relative
        from numpy._core import _multiarray_umath as umath
        off = [k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k)]
        here = pathlib.Path(__file__).resolve().parent
        paths = (str(pathlib.Path(catalog.__file__).resolve().parents[2]), str(here),
                 os.environ.get("PYTHONPATH"))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                   PYTHONPATH=os.pathsep.join(p for p in paths if p))
        code = ("from numpy._core import _multiarray_umath as umath\n"
                "from test_harness import dispatch_probe\n"
                "print([k for k in umath.__cpu_dispatch__ if umath.__cpu_features__[k]])\n"
                "print(dispatch_probe())")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        active, baseline = proc.stdout.split("\n")[:2]
        assert active == "[]"
        baseline, native = json.loads(baseline), json.loads(dispatch_probe())
        assert [(i, v, [t for t, _ in s]) for i, v, s in baseline] \
            == [(i, v, [t for t, _ in s]) for i, v, s in native]
        assert [i for i, _, _ in native] == ["APRIORI", "INTERP", "OSC", "OSC-P", "ZEROTH-1D"]
        for (i, _, bs), (_, _, ns) in zip(baseline, native):
            for (_, b), (_, n) in zip(bs, ns):
                assert len(b) == len(n) and all(math.isclose(x, y, rel_tol=1e-13)
                                                for x, y in zip(b, n)), i


# The exponent hypotheses each entry stated in its own validator before they
# became one rule, at the defaults (d = 2): the bound of each exponent, which
# it must exceed (True) or may reach (False), and the power weight's class
# A_{p/n} as (p's name, n), -1 < q < p/n - 1, where q has one.
EXPONENT_HYPOTHESES = {
    "MAX-LP": ({"p": (1, True)}, None),
    "FS-LOCAL": ({"p": (1, True)}, None),             # p > gamma * beta
    "NEG-EXP": ({"p": (1, False)}, None),
    "INTERP": ({"p": (1, False)}, ("p", 1)),
    "INTERP-LOCAL": ({"p": (1, True)}, ("p", 1)),
    "ZEROTH-1D": ({"p": (1, True)}, ("p", 1)),
    "W2P-GLOBAL": ({"p": (2, True)}, ("p", 2)),
    "APRIORI": ({"p": (2, True)}, ("p", 2)),
    "MIXED": ({"p1": (2, True), "p2": (2, True)}, None),
    "LOCAL-W2P": ({"p": (2, True)}, ("p", 2)),
    "LOCAL-MIXED": ({"p1": (2, True), "p2": (2, True)}, None),
    "HS-SLAB": ({"p": (2, True)}, ("p", 2)),
    "HS-WEIGHTED": ({"p": (2, True)}, None),
    "HS-MIXED": ({"p1": (2, True), "p2": (2, True)}, None),
    "HS-DIRICHLET": ({"p": (2, True)}, ("p", 2)),
    "HS-DIRICHLET-MIXED": ({"p1": (2, True), "p2": (2, True)}, ("p2", 2)),
    "HS-LOCAL": ({"p": (2, True)}, ("p", 2)),
    "PARA-GLOBAL": ({"p": (3, True)}, ("p", 3)),
    "PARA-APRIORI": ({"p": (3, True)}, ("p", 3)),
    "PARA-MIXED": ({"p0": (3, True), "p1": (3, True), "p2": (3, True)}, None),
    "PARA-LOCAL-MIXED": ({"p0": (3, True), "p1": (3, True), "p2": (3, True)}, None),
    "PARA-HS": ({"p": (3, True)}, ("p", 3)),
    "PARA-HS-FULL": ({"p": (3, True)}, ("p", 3)),
    "PARA-HS-MIXED": ({"p1": (3, True), "p2": (3, True), "p3": (3, True)}, ("p1", 3)),
}


def _hypotheses_hold(eid, params) -> bool:
    bounds, weight = EXPONENT_HYPOTHESES[eid]
    ok = all(params[k] > b if strict else params[k] >= b for k, (b, strict) in bounds.items())
    if weight is not None and params["q"] is not None:
        key, n = weight
        ok = ok and -1 < params["q"] < params[key] / n - 1
    return ok


@pytest.mark.parametrize("eid", ENTRY_IDS)
def test_exponent_hypotheses_accept_and_refuse_as_stated(eid):
    entry = ENTRIES[eid]
    exponents = {key for key in entry.defaults if re.fullmatch(r"p\d?", key)}
    if eid not in EXPONENT_HYPOTHESES:
        assert not exponents
        return
    bounds, weight = EXPONENT_HYPOTHESES[eid]
    assert bounds.keys() == exponents
    # each exponent just below, at and above its bound, and well above it
    cases = [{key: b + dv} for key, (b, _) in bounds.items() for dv in (-1e-9, 0.0, 1e-9, 1.0)]
    if weight is not None:
        top = entry.defaults[weight[0]] / weight[1] - 1
        cases += [{"q": end + dq} for end in (-1.0, top) for dq in (-1e-9, 0.0, 1e-9)]
    for case in cases:
        params = entry.merged(case)
        try:
            entry.validate(params)
            accepted = True
        except ValueError:
            accepted = False
        assert accepted == _hypotheses_hold(eid, params), case
