"""Grids, finite differences, operator families, manufactured inputs.

Frozen closed-form values used below:
  extremal max of diag(1, -1) at delta = 1/2: 2*1 + (1/2)*(-1) = 3/2
  extremal max of the 2x2 identity at delta = 1/2: 2 + 2 = 4
  trace modulated by (1 + eps*sin(x_1)) against the plain trace: the
  oscillation value is eps * sqrt(d) * (ball average of |sin(x_1)|).
"""

import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sharpcheck import calculus as ca

RTOL = 1e-12


def brute_force_extremal(M, delta, n_haar=4000, rounds=3, seed=0):
    """Independent route: max of tr(aM) over sampled coefficient matrices
    with spectrum in [delta, 1/delta]; corner spectra, Haar rotations and
    shrinking local refinement around the best rotation."""
    rng = np.random.default_rng(seed)
    d = M.shape[0]
    corners = np.array(np.meshgrid(*[[delta, 1 / delta]] * d)).reshape(d, -1).T
    best = -np.inf
    best_q = np.eye(d)
    scale = 1.0
    for _ in range(rounds):
        qs = [best_q]
        for _ in range(n_haar):
            g = rng.normal(size=(d, d))
            q, _ = np.linalg.qr(best_q + scale * g)
            qs.append(q)
        for q in qs:
            # value is linear in the spectrum for fixed frame: corners suffice
            diag = np.einsum("ij,jk,ik->i", q.T, M, q.T)
            vals = corners @ diag
            v = vals.max()
            if v > best:
                best = v
                best_q = q
        scale *= 0.1
    return best


class TestGrid:
    def test_spacing_and_nodes(self):
        g = ca.box_grid((0, -1), (1, 1), (5, 9))
        assert g.spacing(0) == pytest.approx(0.25)
        assert g.spacing(1) == pytest.approx(0.25)
        assert g.axis_nodes(1)[0] == -1.0 and g.axis_nodes(1)[-1] == 1.0

    def test_time_axis_excluded_from_space(self):
        g = ca.box_grid((0, 0, -1), (1, 1, 1), (4, 5, 5), time_axis=True)
        assert g.space_axes == (1, 2)
        assert g.n_space == 2

    def test_boundary_trace(self):
        g = ca.box_grid((0, -1), (1, 1), (5, 5), half_axis=0)
        u = ca.GridFunction(g, np.arange(25, dtype=float).reshape(5, 5))
        assert np.array_equal(u.boundary_trace(), np.arange(5.0))

    def test_rejects_one_node_axis(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            ca.box_grid((0,), (1,), (1,))

    def test_rejects_negative_half_axis_box(self):
        with pytest.raises(ValueError, match="half-space"):
            ca.box_grid((-0.5,), (1,), (4,), half_axis=0)

    @pytest.mark.parametrize("lo,hi,shape,kw", [
        ((-1.0,), (1.0,), (7,), {}),
        ((0.0, -1.0), (2.0, 1.0), (9, 12), {}),
        ((0.0, -1.2, -1.2), (1.5, 1.2, 1.2), (8, 13, 10), {"time_axis": True}),
        ((0.0, 0.0, -1.3), (1.6, 1.3, 1.3), (7, 6, 11), {"time_axis": True, "half_axis": 1}),
        ((0.0, 0.1, -0.3, -1.0), (0.3, 0.9, 0.7, 1.0), (4, 5, 6, 3), {}),
    ])
    def test_nodes_match_meshgrid_stack(self, lo, hi, shape, kw):
        g = ca.box_grid(lo, hi, shape, **kw)
        got = g.nodes()
        assert got.shape == meshgrid_nodes(g).shape
        assert got.tobytes() == meshgrid_nodes(g).tobytes()
        assert g.flat_nodes().tobytes() == meshgrid_nodes(g).reshape(-1, g.ndim).tobytes()


def meshgrid_nodes(g):
    """The node array by its former definition: meshgrid, then stack."""
    return np.stack(np.meshgrid(*(g.axis_nodes(ax) for ax in range(g.ndim)), indexing="ij"),
                    axis=-1)


class TestSumOfSquares:
    """``sum_of_squares`` and ``euclidean`` bit for bit against the numpy
    reductions they replace, on values that stress rounding and IEEE cases."""

    @staticmethod
    def values(shape, seed):
        rng = np.random.default_rng(seed)
        scale = rng.choice([1e-310, 1e-160, 1e-8, 1.0, 3.0, 1e10, 1e155, 1e160], size=shape)
        v = rng.normal(size=shape) * scale
        special = [0.0, -0.0, 5e-324, -1e-310, 2.5e-308, np.inf, -np.inf, np.nan,
                   1.0, 1e-16, 1e-16, 1e300, -1e300, 0.0, np.nan, 7.0]
        n = min(v.size, len(special))
        v.reshape(-1)[:n] = special[:n]
        return v

    @pytest.mark.parametrize("ds", [1, 2, 3])
    @pytest.mark.parametrize("lead", [(1,), (257,), (9, 14), (5, 6, 7)])
    def test_euclidean_matches_linalg_norm(self, ds, lead):
        v = self.values(lead + (ds,), seed=ds)
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.linalg.norm(v, axis=-1)
            got = ca.euclidean(v)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("ds", [1, 2, 3])
    def test_sum_of_squares_matches_row_sum(self, ds):
        Y = self.values((4099, ds), seed=10 + ds)
        with np.errstate(over="ignore", invalid="ignore"):
            want = (Y ** 2).sum(axis=1)
            got = ca.sum_of_squares(Y.T)
        assert got.tobytes() == want.tobytes()

    def test_broadcast_parts_match_stacked_sum(self):
        parts = [self.values(shape, seed=20 + k)
                 for k, shape in enumerate([(6, 1, 1), (1, 7, 1), (1, 1, 8)])]
        stacked = np.stack(np.broadcast_arrays(*parts), axis=-1)
        with np.errstate(over="ignore", invalid="ignore"):
            want = (stacked ** 2).sum(axis=-1)
            got = ca.sum_of_squares(parts)
        assert got.tobytes() == want.tobytes()


# the exponents of the catalog's norms and their roots, and the ones numpy
# evaluates as sqrt, square and a copy
POWER_EXPONENTS = (3.0, 4.0, 2.5, 1.0 / 3.0, 0.25, 1.0 / 2.5, 0.5, 2.0, 1.0)
POWER_SHAPES = ((1,), (257,), (4099,), (9, 14), (65, 113), (5, 6, 7), (13, 17, 19))


def power_values(shape, seed):
    """Nonnegative values over many magnitudes with exact zeros in one run
    and scattered, and signed zeros, subnormals, inf and NaN up front."""
    rng = np.random.default_rng(seed)
    scale = rng.choice([5e-324, 1e-310, 1e-160, 1e-8, 1.0, 3.0, 1e10, 1e160], size=shape)
    x = rng.random(shape) * scale
    flat = x.reshape(-1)
    flat[rng.random(flat.size) < 0.3] = 0.0
    start = int(rng.integers(0, flat.size))
    flat[start:start + flat.size // 3] = 0.0
    special = [0.0, -0.0, 5e-324, 2.5e-308, np.inf, np.nan, 1.0, 1e300, -0.0]
    n = min(flat.size, len(special))
    flat[:n] = special[:n]
    return x


def power_mismatches(exponents=POWER_EXPONENTS, shapes=POWER_SHAPES) -> list:
    """(p, shape) of every array, transpose or strided view on which
    ``power`` and ``**`` differ in dtype, shape or bits."""
    bad = []
    with np.errstate(all="ignore"):
        for p in exponents:
            for shape in shapes:
                x = power_values(shape, len(shape))
                for view in (x, x.T, x[::2]):
                    got, want = ca.power(view, p), view ** p
                    if (got.dtype, got.shape, got.tobytes()) != \
                            (want.dtype, want.shape, want.tobytes()):
                        bad.append((p, shape))
    return bad


class TestPower:
    """``power`` bit for bit against ``x ** p``."""

    @pytest.mark.parametrize("p", POWER_EXPONENTS)
    def test_arrays_match_power_operator(self, p):
        assert power_mismatches(exponents=(p,)) == []

    @pytest.mark.parametrize("p", POWER_EXPONENTS)
    def test_all_zero_and_zero_free_arrays(self, p):
        for x in (np.zeros(100), -np.zeros((4, 5)), np.linspace(0.5, 3.0, 1000)):
            assert ca.power(x, p).tobytes() == (x ** p).tobytes()

    @pytest.mark.parametrize("p", POWER_EXPONENTS)
    def test_zero_dim_inputs_match(self, p):
        for v in (0.0, -0.0, 5e-324, 0.7, 3.0, np.inf):
            for x in (np.float64(v), np.array(v), v):
                got, want = ca.power(x, p), x ** p
                assert type(got) is type(want)
                assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        nan = ca.power(np.float64(np.nan), p)
        assert isinstance(nan, np.float64) and np.isnan(nan)

    def test_baseline_dispatch_in_a_fresh_interpreter(self):
        # numpy's SIMD pow and libm's disagree in the last bit on a few
        # percent of values, so the comparison reruns in a fresh interpreter
        # with every dispatched CPU feature switched off
        from numpy._core import _multiarray_umath as umath
        off = [k for k in umath.__cpu_dispatch__ if umath.__cpu_features__.get(k)]
        here = pathlib.Path(__file__).resolve().parent
        paths = (str(pathlib.Path(ca.__file__).resolve().parents[1]), str(here),
                 os.environ.get("PYTHONPATH"))
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(off),
                   PYTHONPATH=os.pathsep.join(p for p in paths if p))
        code = ("from numpy._core import _multiarray_umath as umath\n"
                "from test_calculus import power_mismatches\n"
                "print([k for k in umath.__cpu_dispatch__ if umath.__cpu_features__[k]])\n"
                "print(power_mismatches())")
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


class TestFiniteDifferences:
    def quad_fn(self, X):
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([0.3, -0.7])
        return 0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + 1.5, A, b

    def test_exact_on_quadratics(self):
        g = ca.box_grid((0, -1), (2, 1), (9, 7))
        X = g.flat_nodes()
        vals, A, b = self.quad_fn(X)
        d = ca.fd_derivatives(ca.GridFunction(g, vals.reshape(g.shape)))
        want_du = (X @ A + b).reshape(g.shape + (2,))
        assert np.allclose(d.du, want_du, rtol=0, atol=1e-12)
        assert np.allclose(d.d2u, A, rtol=0, atol=1e-12)

    def test_hessian_exactly_symmetric(self):
        g = ca.box_grid((0, 0), (1, 1), (12, 11))
        rng = np.random.default_rng(8)
        d = ca.fd_derivatives(ca.GridFunction(g, rng.normal(size=g.shape)))
        assert np.array_equal(d.d2u[..., 0, 1], d.d2u[..., 1, 0])

    @pytest.mark.parametrize("fn,d2", [
        (np.sin, lambda x: -np.sin(x)),
        (np.exp, np.exp),
    ])
    def test_second_order_convergence(self, fn, d2):
        errs = []
        for n in (17, 33, 65):
            g = ca.box_grid((0.0,), (1.0,), (n,))
            x = g.axis_nodes(0)
            der = ca.fd_derivatives(ca.GridFunction(g, fn(x)))
            errs.append(np.abs(der.d2u[:, 0, 0] - d2(x)).max())
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_time_derivative_second_order(self):
        errs = []
        for n in (17, 33):
            g = ca.box_grid((0.0, 0.0), (1.0, 1.0), (n, 5), time_axis=True)
            T = g.nodes()[..., 0]
            der = ca.fd_derivatives(ca.GridFunction(g, np.sin(3 * T)))
            errs.append(np.abs(der.dt - 3 * np.cos(3 * T)).max())
        assert 3.5 < errs[0] / errs[1] < 4.5

    def test_rejects_two_node_axis(self):
        g = ca.box_grid((0.0,), (1.0,), (2,))
        with pytest.raises(ValueError, match="at least 3 nodes"):
            ca.fd_derivatives(ca.GridFunction(g, np.zeros(2)))


# ---------------------------------------------------------------------------
# the support box against differencing the whole grid

def whole_grid_diff1(values, axis, h):
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    out[0] = (-3.0 * v[0] + 4.0 * v[1] - v[2]) / (2.0 * h)
    out[-1] = (3.0 * v[-1] - 4.0 * v[-2] + v[-3]) / (2.0 * h)
    return np.moveaxis(out, 0, axis)


def whole_grid_diff2(values, axis, h):
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / (h * h)
    if len(v) >= 4:
        out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / (h * h)
        out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / (h * h)
    else:
        out[0] = out[-1] = (v[0] - 2.0 * v[1] + v[2]) / (h * h)
    return np.moveaxis(out, 0, axis)


def whole_grid_derivatives(u):
    # (du, d2u, dt) with every node of the grid differenced
    g, sp = u.grid, u.grid.space_axes
    du = np.empty(g.shape + (len(sp),))
    d2u = np.empty(g.shape + (len(sp), len(sp)))
    for a, ax in enumerate(sp):
        du[..., a] = whole_grid_diff1(u.values, ax, g.spacing(ax))
        d2u[..., a, a] = whole_grid_diff2(u.values, ax, g.spacing(ax))
    for a in range(len(sp)):
        for b in range(a + 1, len(sp)):
            d2u[..., a, b] = d2u[..., b, a] = whole_grid_diff1(
                np.ascontiguousarray(du[..., a]), sp[b], g.spacing(sp[b]))
    dt = whole_grid_diff1(u.values, 0, g.spacing(0)) if g.time_axis else None
    return du, d2u, dt


def whole_grid_operator_image(op, u):
    # F at every node, with the grid's flat nodes, plus the time derivative
    g = u.grid
    _, d2u, dt = whole_grid_derivatives(u)
    fv = op(d2u.reshape(-1, g.n_space, g.n_space), g.flat_nodes()).reshape(g.shape)
    return fv if dt is None else dt + fv


def catalog_operators(d):
    from sharpcheck.harness.catalog import build_operator
    return [build_operator({"operator": kind, "delta": 0.4, "d": d})
            for kind in ("linear", "pucci", "bellman")]


def assert_whole_grid_bits(u):
    d = ca.fd_derivatives(u)
    du, d2u, dt = whole_grid_derivatives(u)
    assert d.du.tobytes() == du.tobytes()
    assert d.d2u.tobytes() == d2u.tobytes()
    assert (d.dt is None) == (dt is None)
    if dt is not None:
        assert d.dt.tobytes() == dt.tobytes()
    for op in catalog_operators(u.grid.n_space):
        got = ca.evaluate_operator(op, u, d).values
        assert got.tobytes() == whole_grid_operator_image(op, u).tobytes()
    return d


class TestSupportBox:

    @pytest.mark.parametrize("gap", range(7))
    def test_support_near_the_faces_equals_whole_grid(self, gap):
        # support gap nodes from the lower face of axis 0 and the upper face
        # of axis 1: up to 3 nodes away the faces' one-sided stencils read it
        g = ca.box_grid((0.0, -1.0), (1.0, 1.0), (20, 17))
        vals = np.zeros(g.shape)
        vals[gap:gap + 5, 17 - gap - 6:17 - gap] = np.random.default_rng(gap).normal(size=(5, 6))
        d = assert_whole_grid_bits(ca.GridFunction(g, vals))
        assert d.box == (slice(max(gap - 4, 0), gap + 9), slice(17 - gap - 10, min(21 - gap, 17)))

    def test_time_grid_equals_whole_grid(self):
        mf = ca.with_time_profile(ca.manufactured("bump", 2, radius=0.6), "bump",
                                  t_center=0.5, t_radius=0.3)
        g = ca.box_grid((0.0, -1.0, -1.0), (1.0, 1.0, 1.0), (21, 25, 25), time_axis=True)
        d = assert_whole_grid_bits(mf.on_grid(g))
        # support t in (0.2, 0.8), |x| < 0.6: nodes 5..15 and 5..19, widened by 4
        assert d.box == (slice(1, 20), slice(1, 24), slice(1, 24))
        assert d.box_d2u.shape == (19, 23, 23, 2, 2) and d.box_dt.shape == (19, 23, 23)

    def test_full_support_box_is_the_grid(self):
        g = ca.box_grid((-1.0, -1.0), (1.0, 1.0), (21, 25))
        d = assert_whole_grid_bits(ca.manufactured("gaussian", 2, sigma=0.5).on_grid(g))
        assert d.box == (slice(0, 21), slice(0, 25))

    @pytest.mark.parametrize("time_axis", [False, True])
    def test_zero_input_is_positive_zero_everywhere(self, time_axis):
        g = ca.box_grid((0.0, -1.0, -1.0), (1.0, 1.0, 1.0), (5, 6, 7), time_axis=time_axis)
        u = ca.GridFunction(g, np.zeros(g.shape))
        d = assert_whole_grid_bits(u)
        assert d.box == (slice(0, 0),) * 3 and d.box_d2u.size == 0
        arrays = [d.du, d.d2u] + ([d.dt] if time_axis else [])
        arrays += [ca.evaluate_operator(op, u, d).values for op in catalog_operators(g.n_space)]
        for arr in arrays:
            assert arr.shape[:3] == g.shape
            assert not arr.any() and not np.signbit(arr).any()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_catalog_operators_vanish_at_zero_hessians(self, d):
        # the premise of evaluating only the support box: F(0, x) = +0.0
        X = np.random.default_rng(d).uniform(-1.0, 1.0, size=(9, d))
        for op in catalog_operators(d):
            out = op(np.zeros((9, d, d)), X)
            assert out.shape == (9,) and not out.any() and not np.signbit(out).any()

    def test_non_homogeneous_operator_is_refused(self):
        # F(0, x) = 1 would be +0.0 off the support box instead
        g = ca.box_grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        u = ca.manufactured("bump", 2, radius=0.5).on_grid(g)
        op = ca.tabulated_operator(lambda H, X: 3.0 * np.einsum("nii->n", H) + 1.0,
                                   delta=0.5, homogeneous=False)
        with pytest.raises(ValueError, match="positively homogeneous"):
            ca.evaluate_operator(op, u)

    def test_field_sets_equal_whole_grid_reference(self, monkeypatch):
        # every _fields recipe of the catalog, at its entry's two coarsest
        # steps: u, fv, d2 and d1 as the whole-grid computation gives them
        from sharpcheck.harness import EstimateSpec, catalog, run_estimate_check
        calls = []
        field_set = catalog._field_set

        def spy(*args):
            calls.append((args, field_set(*args)))
            return calls[-1][1]

        monkeypatch.setattr(catalog, "_field_set", spy)
        for entry in catalog.ENTRIES.values():
            if entry.ladder_kind == "spacing":
                run_estimate_check(EstimateSpec(id=entry.id, ladder=entry.ladder[:2]))
        kinds = set()
        for (params, h, lo, hi, mf, time_axis, half_axis), fields in calls:
            grid, u, fv, d2, d1 = fields
            want = mf.on_grid(catalog._grid(lo, hi, h, time_axis=time_axis, half_axis=half_axis))
            du, d2u, _ = whole_grid_derivatives(want)
            assert u.values.tobytes() == want.values.tobytes()
            assert fv.tobytes() == whole_grid_operator_image(
                catalog.build_operator(params), want).tobytes()
            assert d2.tobytes() == ca.frobenius(d2u).tobytes()
            assert d1.tobytes() == ca.euclidean(du).tobytes()
            kinds.add((mf.key[0][0] if time_axis else mf.key[0], time_axis, half_axis))
        assert len(calls) >= 36 and len(kinds) >= 6
        assert {(t, hf is not None) for _, t, hf in kinds} == {
            (False, False), (False, True), (True, False), (True, True)}


class TestPucci:
    def test_frozen_indefinite_instance(self):
        M = np.diag([1.0, -1.0])
        assert ca.pucci_extremal(M, 0.5, "max") == pytest.approx(1.5, rel=RTOL)

    def test_frozen_identity_instance(self):
        assert ca.pucci_extremal(np.eye(2), 0.5, "max") == pytest.approx(4.0, rel=RTOL)

    def test_min_max_duality(self):
        rng = np.random.default_rng(3)
        M = ca.symmetrize(rng.normal(size=(10, 3, 3)))
        mx = ca.pucci_extremal(M, 0.4, "max")
        mn = ca.pucci_extremal(-M, 0.4, "min")
        assert np.allclose(mx, -mn, rtol=1e-12, atol=1e-12)

    def test_matches_bruteforce_small(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(3):
                M = ca.symmetrize(rng.normal(size=(d, d)) * 2.0)
                closed = ca.pucci_extremal(M, 0.5, "max")
                brute = brute_force_extremal(M, 0.5, n_haar=1500, seed=1)
                assert brute <= closed * (1 + 1e-9)
                assert abs(brute - closed) <= 1e-3 * abs(closed)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            ca.pucci_extremal(np.eye(2), 1.5)


def eigvalsh_extremal(H, delta, side):
    """The extremal operator through ``np.linalg.eigvalsh``: the definition
    the 2x2 kernel must reproduce bit for bit."""
    w = np.linalg.eigvalsh(H)
    pos = np.clip(w, 0.0, None).sum(axis=-1)
    neg = np.clip(w, None, 0.0).sum(axis=-1)
    return pos / delta + neg * delta if side == "max" else pos * delta + neg / delta


def assert_same_values(got, want):
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))


def _stack(a, b, c):
    H = np.empty((len(a), 2, 2))
    H[:, 0, 0], H[:, 1, 0], H[:, 0, 1], H[:, 1, 1] = a, b, b, c
    return H


def _kernel_class(name, n, rng):
    """``n`` 2x2 matrices of one input class; all symmetric except "lower",
    whose upper triangle the kernel must ignore, as LAPACK does."""
    g = lambda: rng.normal(size=n)
    sign = lambda: rng.choice([-1.0, 1.0], size=n)
    if name == "normal":
        return _stack(g(), g(), g())
    if name == "scaled_1e307":
        s = 10.0 ** rng.choice([-307, 307], size=n)
        return _stack(g() * s, g() * s, g() * s)
    if name == "band_edge":
        s = 2.0 ** (rng.integers(390, 491, size=n) * sign())
        return _stack(g() * s, g() * s, g() * s)
    if name == "near_diagonal":
        return _stack(g(), g() * 10.0 ** rng.uniform(-30, 0, size=n), g())
    if name == "a_pm_c":
        a = g()
        return _stack(a, g() * rng.choice([1.0, 1e-18], size=n), a * sign())
    if name == "integer":
        return _stack(*rng.integers(-3, 4, size=(3, n)).astype(float))
    if name == "split_edge":
        # off-diagonals on either side of dsterf's two split thresholds
        a, c = g(), g()
        first = np.sqrt(np.abs(a)) * np.sqrt(np.abs(c)) * 2.0 ** -53
        second = np.sqrt(2.0 ** -106 * np.abs(a * c))
        edge = np.where(rng.random(n) < 0.5, first, second)
        return _stack(a, edge * rng.choice([1 - 2.0 ** -52, 1.0, 1 + 2.0 ** -52], size=n), c)
    if name == "zero_diagonal":
        return _stack(np.zeros(n) * sign(), g() * rng.choice([0.0, 1.0], size=n),
                      g() * rng.choice([0.0, 1.0], size=n))
    if name == "subnormal":
        # 1e-160 squares to a subnormal, so sqrt(b * b) != |b|
        tiny = rng.choice([0.0, -0.0, 5e-324, 1e-310, 2e-308, 1e-160], size=(3, n)) * sign()
        return _stack(np.where(rng.random(n) < 0.5, tiny[0], g()), tiny[1], tiny[2])
    if name == "inf":
        vals = rng.choice([np.inf, -np.inf, np.nan, 1.0, 0.0], size=(3, n))
        return _stack(*vals)
    if name == "lower":
        return rng.normal(size=(n, 2, 2))
    raise ValueError(name)


_KERNEL_CLASSES = ("normal", "scaled_1e307", "band_edge", "near_diagonal", "a_pm_c",
                   "integer", "split_edge", "zero_diagonal", "subnormal", "inf", "lower")


class TestPucciKernel:
    """The closed-form 2x2 kernel against the ``eigvalsh`` definition."""

    @pytest.mark.parametrize("name", _KERNEL_CLASSES)
    def test_bit_identical_to_eigvalsh(self, name):
        rng = np.random.default_rng(_KERNEL_CLASSES.index(name))
        H = _kernel_class(name, ca._BLOCK_ROWS + 3, rng)   # crosses a block boundary
        # overflow and inf - inf belong to the definition on these inputs
        ieee = "ignore" if name in ("scaled_1e307", "inf") else "raise"
        for delta in (0.3, 0.5, 1.0):
            for side in ("max", "min"):
                with np.errstate(over=ieee, invalid=ieee):
                    want = eigvalsh_extremal(H, delta, side)
                    got = ca.pucci_extremal(H, delta, side)
                assert_same_values(got, want)
        with np.errstate(invalid=ieee):
            pairs = np.sort(np.stack(ca._eigvalsh_2x2(H), axis=-1), axis=-1)
        assert_same_values(pairs, np.sort(np.linalg.eigvalsh(H), axis=-1))

    def test_eigvalsh_only_for_rows_lapack_rescales(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda H: calls.append(len(H)) or eigvalsh(H))
        rng = np.random.default_rng(0)
        H = _kernel_class("normal", 100, rng)
        ca.pucci_extremal(H, 0.5)
        assert calls == []
        H[3, 1, 0] = 2.0 ** 400
        H[50] = -1e300
        H[70, 0, 0] = np.nan
        H[80] = 2.0 ** -401
        ca.pucci_extremal(H, 0.5)
        assert calls == [4]

    @pytest.mark.parametrize("shape", [(), (7,), (0,), (3, 5)])
    def test_stack_shapes(self, shape):
        rng = np.random.default_rng(1)
        H = ca.symmetrize(rng.normal(size=shape + (2, 2)))
        got = ca.pucci_extremal(H, 0.5, "max")
        assert np.shape(got) == shape
        assert_same_values(got, eigvalsh_extremal(H, 0.5, "max"))

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_sizes_keep_eigvalsh(self, d):
        rng = np.random.default_rng(d)
        H = ca.symmetrize(rng.normal(size=(50, d, d)))
        for side in ("max", "min"):
            assert_same_values(ca.pucci_extremal(H, 0.4, side), eigvalsh_extremal(H, 0.4, side))

    def test_peak_memory_no_higher_than_eigvalsh(self):
        H = ca.symmetrize(np.random.default_rng(2).normal(size=(2 ** 20, 2, 2)))
        peaks = []
        tracemalloc.start()
        try:
            for fn in (eigvalsh_extremal, ca.pucci_extremal):
                tracemalloc.reset_peak()
                fn(H, 0.5, "max")
                peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert peaks[1] <= peaks[0]


class TestOperators:
    def test_linear_constant_coefficient(self):
        op = ca.linear_operator(np.eye(2), delta=1.0)
        H = np.array([[[2.0, 1.0], [1.0, 3.0]]])
        assert op(H)[0] == pytest.approx(5.0, rel=RTOL)

    def test_linear_x_dependent(self):
        op = ca.linear_operator(
            lambda X: np.eye(2)[None] * (1 + 0.5 * np.sin(X[:, :1, None])), delta=0.4)
        H = np.broadcast_to(np.eye(2), (3, 2, 2))
        X = np.array([[0.0, 0.0], [np.pi / 2, 0.0], [-np.pi / 2, 0.0]])
        assert np.allclose(op(H, X), [2.0, 3.0, 1.0], rtol=1e-12)

    def test_linear_forms_equal_the_trace_einsum(self):
        rng = np.random.default_rng(4)
        H = ca.symmetrize(rng.normal(size=(30, 2, 2)))
        X = rng.normal(size=(30, 2))
        const = ca.sample_elliptic_matrix(rng, 2, 0.5)
        varying = lambda X: np.eye(2)[None] * (1 + 0.5 * np.sin(X[:, :1, None]))
        np.testing.assert_array_equal(ca.linear_operator(const, 0.5)(H, X),
                                      np.einsum("nij,nij->n", np.broadcast_to(const, H.shape), H))
        np.testing.assert_array_equal(ca.linear_operator(varying, 0.4)(H, X),
                                      np.einsum("nij,nij->n", varying(X), H))

    def test_bellman_is_the_max_of_its_trace_forms(self):
        rng = np.random.default_rng(5)
        fam = tuple(ca.sample_elliptic_matrix(rng, 3, 0.5) for _ in range(4))
        H = ca.symmetrize(rng.normal(size=(50, 3, 3)))
        forms = np.stack([np.einsum("nij,nij->n", np.broadcast_to(A, H.shape), H) for A in fam])
        np.testing.assert_array_equal(ca.bellman_operator(fam, 0.5)(H), forms.max(axis=0))

    def test_invalid_constructions_raise(self):
        with pytest.raises(ValueError, match="side"):
            ca.pucci_operator(0.5, "mx")
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            ca.pucci_operator(0.0, "max", d=2)
        with pytest.raises(ValueError, match="nonempty"):
            ca.bellman_operator((), 0.5)
        with pytest.raises(ValueError, match="callable"):
            ca.tabulated_operator(None, 0.5)
        with pytest.raises(ValueError, match="bellman"):
            ca.bellman_argmax(ca.pucci_operator(0.5, "max"), np.eye(2)[None])

    def test_pucci_sides_on_the_identity(self):
        H = np.eye(2)[None]
        assert ca.pucci_operator(0.5, "max")(H)[0] == 4.0
        assert ca.pucci_operator(0.5, "min")(H)[0] == 1.0

    def test_bellman_argmax_reproduces_value(self):
        rng = np.random.default_rng(9)
        fam = tuple(ca.sample_elliptic_matrix(rng, 2, 0.5) for _ in range(5))
        op = ca.bellman_operator(fam, delta=0.5)
        H = ca.symmetrize(rng.normal(size=(40, 2, 2)))
        idx = ca.bellman_argmax(op, H)
        direct = op(H)
        selected = np.einsum("nij,nij->n", np.stack([fam[i] for i in idx]), H)
        assert np.allclose(direct, selected, rtol=1e-12, atol=1e-12)
        for i in np.unique(idx):
            eigs = np.linalg.eigvalsh(fam[i])
            assert eigs.min() >= 0.5 - 1e-12 and eigs.max() <= 2.0 + 1e-12

    def test_evaluate_operator_on_grid(self):
        # Laplacian of |x|^2/2 is d, constant over the grid
        g = ca.box_grid((-1, -1), (1, 1), (9, 9))
        mf = ca.manufactured("quadratic", 2)
        u = mf.on_grid(g)
        out = ca.evaluate_operator(ca.linear_operator(np.eye(2), 1.0), u)
        assert np.allclose(out.values, 2.0, rtol=0, atol=1e-10)

    def test_parabolic_evaluation_adds_time_derivative(self):
        g = ca.box_grid((0, -1), (1, 1), (9, 9), time_axis=True)
        mf = ca.with_time_profile(ca.manufactured("quadratic", 1), "const")
        u = mf.on_grid(g)
        out = ca.evaluate_operator(ca.linear_operator(np.eye(1), 1.0), u)
        assert np.allclose(out.values, 1.0, rtol=0, atol=1e-9)

    def test_class_check_pucci_passes_with_stated_bound(self):
        d = 3
        op = ca.pucci_operator(0.5, "max", d=d)
        rep = ca.check_operator_class(op, d, budget=300, seed=2)
        assert rep.passed, rep.failures
        assert rep.max_lipschitz_ratio <= d / 0.5 + 1e-9
        lo, hi = rep.ellipticity_range
        assert lo >= 0.5 - 1e-9 and hi <= 2.0 + 1e-9

    def test_class_check_flags_violations(self):
        # zero-order shift breaks F(0) = 0; gradient 3 breaks delta = 1/2
        bad = ca.tabulated_operator(lambda H, X: 3.0 * np.einsum("nii->n", H) + 1.0,
                                    delta=0.5, homogeneous=False)
        rep = ca.check_operator_class(bad, 2, budget=100, seed=0)
        assert not rep.passed
        kinds = {k for k, _ in rep.failures}
        assert "zero_value" in kinds and "ellipticity" in kinds


class TestOscillation:
    def test_x_independent_operator_scores_zero(self):
        op = ca.pucci_operator(0.5, "max", d=2)
        model = lambda H: ca.pucci_extremal(H, 0.5, "max")
        res = ca.oscillation_theta(op, model, (0.0, 0.0), 0.7, density=10, seed=1)
        assert res.value <= 1e-12

    def test_modulated_trace_matches_quadrature(self):
        from scipy import integrate
        eps, r, z = 0.3, 0.8, np.array([0.4, -0.2])
        op = ca.tabulated_operator(
            lambda H, X: (1 + eps * np.sin(X[:, 0])) * np.einsum("nii->n", H),
            delta=0.5, homogeneous=False)
        model = lambda H: np.einsum("nii->n", np.asarray(H))
        res = ca.oscillation_theta(op, model, z, r, density=220, homogeneous=True, seed=3)
        integrand = lambda x: np.abs(np.sin(x)) * 2 * np.sqrt(r ** 2 - (x - z[0]) ** 2)
        avg, _ = integrate.quad(integrand, z[0] - r, z[0] + r)
        want = eps * np.sqrt(2) * avg / (np.pi * r ** 2)
        assert res.value == pytest.approx(want, rel=0.01)

    def test_monotone_in_tau0(self):
        eps = 0.2
        op = ca.tabulated_operator(
            lambda H, X: np.einsum("nii->n", H) + eps * np.tanh(ca.frobenius(H)) * X[:, 0],
            delta=0.5, homogeneous=False)
        model = lambda H: np.einsum("nii->n", np.asarray(H))
        vals = [ca.oscillation_theta(op, model, (0.5, 0.0), 0.4, tau0=t, density=8,
                                     seed=0).value for t in (0.5, 1.0, 2.0)]
        assert vals[0] >= vals[1] >= vals[2]

    def test_homogenized_model_scores_no_worse(self):
        # model differs from the operator at finite scales but shares its
        # large-scale limit; homogenizing removes the whole defect
        delta = 0.5

        def model(H):
            H = np.asarray(H)
            return ca.pucci_extremal(H, delta, "max") + 0.3 * np.tanh(
                np.einsum("...ii->...", H))

        op = ca.pucci_operator(delta, "max", d=2)
        th_raw = ca.oscillation_theta(op, model, (0, 0), 0.5, tau0=0.25, density=8, seed=0)
        th_hom = ca.oscillation_theta(op, ca.homogenized_model(model), (0, 0), 0.5,
                                      tau0=0.25, homogeneous=True, density=8, seed=0)
        assert th_raw.value > 1e-3
        assert th_hom.value <= 1e-6
        assert th_hom.value <= th_raw.value

    def test_empty_shape_rejected(self):
        # half ball centered deep in the excluded side holds no nodes
        op = ca.pucci_operator(0.5, "max", d=2)
        with pytest.raises(ValueError, match="no nodes"):
            ca.oscillation_theta(op, lambda H: ca.pucci_extremal(H, 0.5, "max"),
                                 (-5.0, 0.0), 0.5, shape="half_ball", density=8)


class TestManufactured:
    @pytest.mark.parametrize("name,kw", [
        ("bump", dict(radius=0.9)),
        ("gaussian", dict(sigma=0.5)),
        ("odd_bump", dict(radius=0.9)),
        ("slab_bump", dict(centers=(0.2, 0.0), radii=(0.5, 0.8))),
    ])
    def test_callbacks_match_refined_fd(self, name, kw):
        # mollifier profiles have large high-order derivatives near the
        # support edge, so only a factor-2 preasymptotic decay is demanded
        mf = ca.manufactured(name, 2, **kw)
        errs = []
        for n in (33, 65, 129):
            g = ca.box_grid((-1, -1), (1, 1), (n, n))
            fd = ca.fd_derivatives(mf.on_grid(g))
            an = mf.derivatives(g)
            errs.append(max(np.abs(fd.du - an.du).max(), np.abs(fd.d2u - an.d2u).max()))
        assert errs[1] < errs[0] / 2.0
        assert errs[2] < errs[1] / 2.0

    def test_bump_supported_in_ball(self):
        mf = ca.manufactured("bump", 2, radius=0.5)
        X = np.array([[0.6, 0.0], [0.0, 0.0], [0.49, 0.1]])
        u = mf.u(X)
        assert u[0] == 0.0 and u[1] > 0
        assert np.all(mf.d2u(X[:1]) == 0.0)

    def test_odd_bump_vanishes_on_boundary_exactly(self):
        mf = ca.manufactured("odd_bump", 2, radius=1.0)
        g = ca.box_grid((0, -1), (1, 1), (9, 9), half_axis=0)
        assert np.all(mf.on_grid(g).boundary_trace() == 0.0)

    def test_exp_growth_solves_zeroth_order_identity(self):
        mf = ca.manufactured("exp_growth", 1)
        X = np.linspace(0, 3, 50)[:, None]
        assert np.array_equal(mf.d2u(X)[:, 0, 0], mf.u(X))

    def test_time_profile_derivative(self):
        mf = ca.with_time_profile(ca.manufactured("gaussian", 1, sigma=0.6),
                                  "bump", t_center=0.0, t_radius=1.0)
        errs_t, errs_x = [], []
        for n in (33, 65):
            g = ca.box_grid((0, -1), (0.8, 1), (2 * n - 1, n), time_axis=True)
            fd = ca.fd_derivatives(mf.on_grid(g))
            an = mf.derivatives(g)
            errs_t.append(np.abs(fd.dt - an.dt).max())
            errs_x.append(np.abs(fd.d2u - an.d2u).max())
        assert errs_t[1] < errs_t[0] / 3.0
        assert errs_x[1] < errs_x[0] / 3.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="library"):
            ca.manufactured("mystery", 2)

    def test_time_product_needs_a_time_grid(self):
        mf = ca.with_time_profile(ca.manufactured("gaussian", 1))
        with pytest.raises(ValueError, match="time grids"):
            mf.on_grid(ca.box_grid((0, -1), (1, 1), (5, 5)))


def flat_row_product(mf, g):
    """Samples of a time product by the former flat-row definition,
    ``q(X[:, 0]) * mf.u(X[:, 1:])`` on the materialized node rows."""
    q, q1 = mf.time
    X = meshgrid_nodes(g).reshape(-1, g.ndim)
    t, x = X[:, 0], X[:, 1:]
    ds = g.n_space
    return ((q(t) * mf.u(x)).reshape(g.shape),
            (q(t)[:, None] * mf.du(x)).reshape(g.shape + (ds,)),
            (q(t)[:, None, None] * mf.d2u(x)).reshape(g.shape + (ds, ds)),
            (q1(t) * mf.u(x)).reshape(g.shape))


class TestTimeProduct:
    """Factor-by-factor samples of ``with_time_profile`` inputs, bit for bit
    against the flat-row product."""

    @staticmethod
    def grids(d):
        full = ca.box_grid((0.0,) + (-1.2,) * d, (1.5,) + (1.2,) * d,
                           (9,) + (11, 10, 7)[:d], time_axis=True)
        half = ca.box_grid((0.0, 0.0) + (-1.3,) * (d - 1), (1.6, 1.3) + (1.3,) * (d - 1),
                           (10, 7) + (12, 9)[:d - 1], time_axis=True, half_axis=1)
        return full, half

    @staticmethod
    def space_input(name, d):
        kw = {"bump": {"radius": 1.0}, "odd_bump": {"radius": 1.1},
              "gaussian": {"sigma": 0.6}, "quadratic": {}}[name]
        return ca.manufactured(name, d, **kw)

    @pytest.mark.parametrize("profile", ["bump", "const"])
    @pytest.mark.parametrize("name", ["bump", "odd_bump", "gaussian", "quadratic"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_samples_match_flat_row_product(self, d, name, profile):
        mf = ca.with_time_profile(self.space_input(name, d), profile,
                                  t_center=0.7, t_radius=0.5)
        for g in self.grids(d):
            u, du, d2u, dt = flat_row_product(mf, g)
            got = mf.derivatives(g)
            for have, want in [(mf.on_grid(g).values, u), (got.du, du), (got.d2u, d2u),
                               (got.dt, dt)]:
                assert have.shape == want.shape
                assert have.tobytes() == want.tobytes()
