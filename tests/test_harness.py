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

import json
import math
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest

from sharpcheck.calculus import box_grid, manufactured, with_time_profile
from sharpcheck.cli import load_suite
from sharpcheck.filtration import Filtration, full_space
from sharpcheck.harness import (
    BOUNDED,
    DIVERGING,
    ENTRIES,
    ENTRY_IDS,
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
        filt = Filtration(full_space(1, -2, 5, (0.0,), (4.0,)))
        rng = np.random.default_rng(3)
        for p in (1.5, 2.0, 4.0):
            for _ in range(5):
                g = filt.field(rng.uniform(0.0, 1.0, filt.shape))
                mg = dyadic_maximal(g)
                lhs = float((np.abs(mg.values) ** p).sum()) ** (1 / p)
                rhs = float((np.abs(g.values) ** p).sum()) ** (1 / p)
                assert lhs <= p / (p - 1) * rhs * (1 + 1e-9)

    def test_weak_type_two_level_tightness(self):
        filt = Filtration(full_space(1, 0, 1, (0.0,), (1.0,)))
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
        filt = Filtration(full_space(1, 0, 3, (0.0,), (1.0,)))
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
        assert chk.notes["sharp_pointwise_worst_ratio"] == pytest.approx(
            n_emp_of(chk), rel=1e-12)

    def test_dirichlet_entry_rejects_nonzero_trace(self):
        with pytest.raises(ValueError, match="vanish on the boundary"):
            run_entry("HS-DIRICHLET", 0.1, input="bump")

    def test_dirichlet_default_runs_all_forms(self):
        checks = run_entry("HS-DIRICHLET", 0.1)
        assert [c.equation for c in checks] == [
            "support_hessian", "gradient_pair", "absorbed_zeroth"]
        assert all(n_emp_of(c) < 1.0 for c in checks)

    @pytest.mark.parametrize("eid", ENTRY_IDS)
    def test_equation_layout_is_pinned(self, eid):
        # equation names in order with their rhs term counts, at the coarsest
        # ladder step (OSC-P at 0.2, IDENTITIES at 10 instances)
        x = {"OSC-P": 0.2, "IDENTITIES": 10.0}.get(eid, ENTRIES[eid].ladder[0])
        checks = run_entry(eid, x)
        assert [(c.equation, len(c.rhs_terms)) for c in checks] == EQUATION_LAYOUT[eid]

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
        # OSC-P's default ladder takes 3.3-4.0 s on a 2-core host and stays
        # out of this run
        start = time.perf_counter()
        for eid in ("INTERP", "OSC"):
            r = run_estimate_check(EstimateSpec(id=eid))
            assert r.verdict == BOUNDED and r.passed(), eid
        assert time.perf_counter() - start < 20.0


# ---------------------------------------------------------------------------
# masks from axis vectors

def node_array(g):
    return np.stack(np.meshgrid(*(g.axis_nodes(ax) for ax in range(g.ndim)), indexing="ij"),
                    axis=-1)


class TestMasks:
    """Ball and cylinder masks bit for bit against their definitions on the
    materialized node array, including radii that land exactly on nodes."""

    @pytest.mark.parametrize("shape", [(5,), (9, 9), (10, 12), (9, 8, 11)])
    def test_ball_mask_matches_node_array_definition(self, shape):
        d = len(shape)
        g = box_grid((-1.0,) * d, (1.0,) * d, shape)
        nodes = node_array(g)
        on_node = float(g.axis_nodes(d - 1)[-2])
        for center in [(0.0,) * d, tuple(g.axis_nodes(0)[1:d + 1]), (0.3,) * d]:
            c = np.asarray(center)
            for radius in (0.5, on_node, 1.0, 0.37):
                want = (((nodes - c) ** 2).sum(axis=-1) < radius ** 2).astype(np.float64)
                got = catalog._ball_mask(g, center, radius)
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
            got = catalog._cylinder_mask(g, radius)
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
                         lambda: catalog._cylinder_mask(grid, prm["R"] + prm["r0"])):
                tracemalloc.reset_peak()
                call()
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert grid.shape == (65, 113, 113)
        assert max(peaks) < node_bytes


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
        ("PARA-HS-MIXED", {"q": 0.5}, "wall-distance"),
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
        assert note["kind"] == "pucci" and note["passed"]

    def test_suite_order_and_parallelism_do_not_matter(self):
        specs = [EstimateSpec(id="ZEROTH-1D"), EstimateSpec(id="MAX-LP"),
                 EstimateSpec(id="MAX-WEAK")]
        a = suite_to_json("s", run_suite(specs, jobs=1), seed=0)
        b = suite_to_json("s", run_suite(list(reversed(specs)), jobs=3), seed=0)
        assert a == b


PDE_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "workloads" / "pde.cfg"


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

    def test_worker_threads_equal_one_thread(self, pde):
        name, specs, together = pde
        assert suite_pair(name, run_suite(specs, jobs=2)) == together

    def test_many_threads_with_a_short_switch_interval(self):
        # more workers than cores, switching every microsecond, over entries
        # that share recipes and entries that do not: a set handed out for
        # another recipe or spacing would change a report
        ids = ("APRIORI", "PARA-GLOBAL", "PARA-HS", "HS-DIRICHLET", "MIXED", "PARA-MIXED",
               "PARA-HS-FULL", "HS-DIRICHLET-MIXED", "PARA-APRIORI")
        specs = [EstimateSpec(id=eid, ladder=(0.1, 0.05)) for eid in ids * 2]
        serial = suite_pair("s", run_suite(specs))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = suite_pair("s", run_suite(specs, jobs=(os.cpu_count() or 1) + 2))
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial

    def test_sets_are_shared_read_only_and_kept_for_one_recipe(self):
        para = ENTRIES["PARA-GLOBAL"].merged({})
        with catalog.shared_fields():
            first = catalog._para_fields(para, 0.1)
            assert catalog._para_fields(dict(para), 0.1) is first
            assert catalog._para_fields(para, 0.05) is not first
            assert catalog._para_fields(para, 0.1) is first
            for arr in (first[1].values,) + first[2:]:
                with pytest.raises(ValueError, match="read-only"):
                    arr[(0,) * arr.ndim] = 1.0
            assert catalog._para_fields(dict(para, delta=0.4), 0.1) is not first
            assert catalog._para_fields(para, 0.1) is not first
        assert catalog._SHARED.get() is None
        assert catalog._para_fields(para, 0.1) is not catalog._para_fields(para, 0.1)

    def test_para_global_finest_set_peaks_below_ten_node_arrays(self):
        # PARA-GLOBAL's set at h = 0.025, 65 x 113 x 113 nodes: the input, its
        # derivatives and the operator's points on the support box (about
        # half the grid) and the four arrays kept peak at 8 node arrays;
        # differencing and evaluating every node peaked at 13
        para = ENTRIES["PARA-GLOBAL"].merged({})
        catalog._para_fields(para, 0.1)
        tracemalloc.start()
        try:
            grid = catalog._para_fields(para, 0.025)[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.shape == (65, 113, 113)
        assert peak < 10 * 8 * math.prod(grid.shape)

    def test_three_entries_in_one_call_peak_within_one_alone(self):
        # PARA-GLOBAL, PARA-APRIORI and PARA-MIXED share every set.  Together
        # they peak no higher than PARA-GLOBAL alone outside run_suite, where
        # each step drops its set, plus the coarser sets the store keeps (u,
        # fv, d2 and d1 at every step but the finest) and 64 KB for the
        # Python objects around them
        entry = ENTRIES["PARA-GLOBAL"]
        kept = sum(4 * 8 * math.prod(catalog._para_fields(entry.defaults, h)[0].shape)
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
