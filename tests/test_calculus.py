"""Grids, finite differences, operator families, manufactured inputs.

Frozen closed-form values used below:
  extremal max of diag(1, -1) at delta = 1/2: 2*1 + (1/2)*(-1) = 3/2
  extremal max of the 2x2 identity at delta = 1/2: 2 + 2 = 4
  trace modulated by (1 + eps*sin(x_1)) against the plain trace: the
  oscillation value is eps * sqrt(d) * (ball average of |sin(x_1)|).
"""

import dataclasses
import os
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sharpcheck import calculus as ca

RTOL = 1e-12


def elliptic_matrix(rng, d, delta):
    """Random symmetric matrix with eigenvalues in ``[delta, 1/delta]``."""
    q, _ = np.linalg.qr(rng.normal(size=(d, d)))
    return (q * rng.uniform(delta, 1.0 / delta, size=d)) @ q.T


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

    @pytest.mark.parametrize("lo,hi,shape,kw", [
        ((-1.0,), (1.0,), (7,), {}),
        ((0.0, -1.2, -1.2), (1.5, 1.2, 1.2), (8, 13, 10), {"time_axis": True}),
        ((0.0, 0.1, -0.3, -1.0), (0.3, 0.9, 0.7, 1.0), (4, 5, 6, 3), {}),
    ])
    def test_axis_nodes_are_built_once_read_only(self, lo, hi, shape, kw):
        g = ca.box_grid(lo, hi, shape, **kw)
        for ax in range(g.ndim):
            x = g.axis_nodes(ax)
            assert x is g.axis_nodes(ax) and not x.flags.writeable
            assert x.tobytes() == np.linspace(lo[ax], hi[ax], shape[ax]).tobytes()
            with pytest.raises(ValueError, match="read-only"):
                x[0] = 0.0
        # the cached axes stay off the grid's value: equality and hashing
        assert g == ca.box_grid(lo, hi, shape, **kw)
        assert hash(g) == hash(ca.box_grid(lo, hi, shape, **kw))

    def test_time_axis_excluded_from_space(self):
        g = ca.box_grid((0, 0, -1), (1, 1, 1), (4, 5, 5), time_axis=True)
        assert g.space_axes == (1, 2)
        assert g.n_space == 2

    def test_rejects_one_node_axis(self):
        with pytest.raises(ValueError, match="at least 2 nodes"):
            ca.box_grid((0,), (1,), (1,))

    @pytest.mark.parametrize("lo,hi", [((np.nan,), (1.0,)), ((0.0,), (np.inf,)),
                                       ((-np.inf,), (1.0,)), ((0.0, 0.0), (1.0, np.nan))])
    def test_rejects_non_finite_corners(self, lo, hi):
        # NaN corners pass the ordering test and give NaN nodes
        with pytest.raises(ValueError, match="must be finite"):
            ca.Grid(lo, hi, (5,) * len(lo))

    @pytest.mark.parametrize("lo,hi,shape,kw", [
        ((-1.0,), (1.0,), (7,), {}),
        ((0.0, -1.0), (2.0, 1.0), (9, 12), {}),
        ((0.0, -1.2, -1.2), (1.5, 1.2, 1.2), (8, 13, 10), {"time_axis": True}),
        ((0.0, 0.0, -1.3), (1.6, 1.3, 1.3), (7, 6, 11), {"time_axis": True}),
        ((0.0, 0.1, -0.3, -1.0), (0.3, 0.9, 0.7, 1.0), (4, 5, 6, 3), {}),
    ])
    def test_nodes_match_meshgrid_stack(self, lo, hi, shape, kw):
        g = ca.box_grid(lo, hi, shape, **kw)
        got = g.nodes()
        assert got.shape == meshgrid_nodes(g).shape
        assert got.tobytes() == meshgrid_nodes(g).tobytes()
        for ax, x in enumerate(g.coordinates()):
            assert x.shape == tuple(n if a == ax else 1 for a, n in enumerate(g.shape))
            assert np.broadcast_to(x, g.shape).tobytes() == got[..., ax].copy().tobytes()


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


def padded_derivatives(g, d):
    """The gradient, Hessian and time derivative (``None`` on grids without
    time) of the derivatives ``d`` on every node of ``g``, +0.0 off ``d.box``."""
    return tuple(None if a is None else ca.GridFunction(g, a, d.box).padded()
                 for a in (d.box_du, d.box_d2u, d.box_dt))


class TestFiniteDifferences:
    def quad_fn(self, X):
        A = np.array([[2.0, 0.5], [0.5, -1.0]])
        b = np.array([0.3, -0.7])
        return 0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + 1.5, A, b

    def test_exact_on_quadratics(self):
        g = ca.box_grid((0, -1), (2, 1), (9, 7))
        X = g.nodes().reshape(-1, g.ndim)
        vals, A, b = self.quad_fn(X)
        d = ca.fd_derivatives(ca.GridFunction(g, vals.reshape(g.shape)))
        du, d2u, _ = padded_derivatives(g, d)
        want_du = (X @ A + b).reshape(g.shape + (2,))
        assert np.allclose(du, want_du, rtol=0, atol=1e-12)
        assert np.allclose(d2u, A, rtol=0, atol=1e-12)

    def test_hessian_exactly_symmetric(self):
        g = ca.box_grid((0, 0), (1, 1), (12, 11))
        rng = np.random.default_rng(8)
        d = ca.fd_derivatives(ca.GridFunction(g, rng.normal(size=g.shape)))
        assert np.array_equal(d.box_d2u[..., 0, 1], d.box_d2u[..., 1, 0])

    @pytest.mark.parametrize("fn,d2", [
        (np.sin, lambda x: -np.sin(x)),
        (np.exp, np.exp),
    ])
    def test_second_order_convergence(self, fn, d2):
        errs = []
        for n in (17, 33, 65):
            g = ca.box_grid((0.0,), (1.0,), (n,))
            x = g.axis_nodes(0)
            _, d2u, _ = padded_derivatives(g, ca.fd_derivatives(ca.GridFunction(g, fn(x))))
            errs.append(np.abs(d2u[:, 0, 0] - d2(x)).max())
        for a, b in zip(errs, errs[1:]):
            assert 3.5 < a / b < 4.5

    def test_time_derivative_second_order(self):
        errs = []
        for n in (17, 33):
            g = ca.box_grid((0.0, 0.0), (1.0, 1.0), (n, 5), time_axis=True)
            T = g.nodes()[..., 0]
            _, _, dt = padded_derivatives(g, ca.fd_derivatives(ca.GridFunction(g, np.sin(3 * T))))
            errs.append(np.abs(dt - 3 * np.cos(3 * T)).max())
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
    g, sp, values = u.grid, u.grid.space_axes, u.padded()
    du = np.empty(g.shape + (len(sp),))
    d2u = np.empty(g.shape + (len(sp), len(sp)))
    for a, ax in enumerate(sp):
        du[..., a] = whole_grid_diff1(values, ax, g.spacing(ax))
        d2u[..., a, a] = whole_grid_diff2(values, ax, g.spacing(ax))
    for a in range(len(sp)):
        for b in range(a + 1, len(sp)):
            d2u[..., a, b] = d2u[..., b, a] = whole_grid_diff1(
                np.ascontiguousarray(du[..., a]), sp[b], g.spacing(sp[b]))
    dt = whole_grid_diff1(values, 0, g.spacing(0)) if g.time_axis else None
    return du, d2u, dt


def whole_grid_samples(mf, g):
    """``mf`` sampled at every node of ``g``, its support ignored."""
    return dataclasses.replace(mf, support=((-np.inf, np.inf),) * g.ndim).on_grid(g)


def recipe_input(d, kind, time, shape):
    """The input of a catalog recipe, built apart from ``catalog._sampled``."""
    mf = ca.manufactured(kind, d, **shape)
    return mf if time is None else ca.with_time_profile(mf, t_center=time[1], t_radius=time[2])


def whole_grid_operator_image(op, u):
    # F at every node, on flat rows with the grid's flat coordinates, plus
    # the time derivative
    g = u.grid
    _, d2u, dt = whole_grid_derivatives(u)
    x = tuple(g.nodes().reshape(-1, g.ndim).T)
    fv = op(d2u.reshape(-1, g.n_space, g.n_space), x).reshape(g.shape)
    return fv if dt is None else dt + fv


def catalog_operators(d):
    from sharpcheck.harness.catalog import build_operator
    return [build_operator({"operator": kind, "delta": 0.4, "d": d})
            for kind in ("linear", "pucci", "bellman")]


def assert_whole_grid_bits(u):
    d = ca.fd_derivatives(u)
    for have, want in zip(padded_derivatives(u.grid, d), whole_grid_derivatives(u)):
        assert (have is None) == (want is None)
        if want is not None:
            assert have.tobytes() == want.tobytes()
    for op in catalog_operators(u.grid.n_space):
        got = ca.evaluate_operator(op, u, d)
        assert got.box == d.box
        assert got.padded().tobytes() == whole_grid_operator_image(op, u).tobytes()
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
        mf = ca.with_time_profile(ca.manufactured("bump", 2, radius=0.6),
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
        arrays = [a for a in padded_derivatives(g, d) if a is not None]
        assert len(arrays) == 2 + time_axis
        arrays += [ca.evaluate_operator(op, u, d).padded() for op in catalog_operators(g.n_space)]
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

    # the inputs the catalog draws, as the recipe (side, kind, wall, time,
    # shape) of an entry that draws it at dimension d, with their time products
    RECIPES = {
        "bump": (2, 2.25, "bump", None, None, {"radius": 0.9}),
        "odd_bump": (2, 1.6, "odd_bump", 1.6, None, {"radius": 1.5}),
        "slab_bump": (2, 2.0, "slab_bump", 4.0, None, {"centers": (1.2, 0.0),
                                                       "radii": (1.0, 1.6)}),
        "gaussian": (2, 1.7, "gaussian", None, None, {"sigma": 0.6}),
        "bump_3d": (3, 2.5, "bump", None, None, {"radius": 1.2}),
        "bump_t": (2, 1.4, "bump", None, (1.6, 0.7, 0.6), {"radius": 1.0}),
        "odd_bump_t": (2, 1.3, "odd_bump", 1.3, (1.6, 0.7, 0.6), {"radius": 1.1}),
        "gaussian_t": (2, 2.0, "gaussian", None, (2.0, 1.0, 0.8), {"sigma": 0.6}),
    }

    @pytest.mark.parametrize("recipe", sorted(RECIPES))
    @pytest.mark.parametrize("kind", ["linear", "pucci", "bellman"])
    @pytest.mark.parametrize("slab_nodes", [None, 1])
    def test_fields_equal_fd_derivatives_of_whole_grid_samples(self, monkeypatch, recipe, kind,
                                                               slab_nodes):
        # _fields samples the input's support box only and builds its set
        # slab by slab (one layer per slab with slab_nodes = 1, so windows
        # meet the box's faces); it equals differencing whole-grid samples,
        # bit for bit
        from sharpcheck.harness import catalog
        if slab_nodes:
            monkeypatch.setattr(ca, "_SLAB_NODES", slab_nodes)
        d, side, name, wall, time, shape = self.RECIPES[recipe]
        mf = recipe_input(d, name, time, shape)
        params = {"operator": kind, "delta": 0.5, "d": d}
        op = catalog.build_operator(params)
        for h in (0.2, 0.1) if d == 3 else (0.1, 0.05):
            grid, box, u, fv, d2, d1 = catalog._fields(params, h, (side, name, wall, time,
                                                                   shape))
            assert grid.time_axis == (time is not None)
            # the wall is the box: the first space axis starts at 0
            first = grid.ndim - d
            assert (grid.lo[first], grid.hi[first]) == ((-side, side) if wall is None
                                                        else (0.0, wall))
            whole = whole_grid_samples(mf, grid)
            want = ca.fd_derivatives(whole)
            assert box == want.box and box == ca.support_box(whole.values)
            for have, ref in [(u, whole.values[box]),
                              (fv, ca.evaluate_operator(op, whole, want).values),
                              (d2, ca.frobenius(want.box_d2u)), (d1, ca.euclidean(want.box_du))]:
                assert have.shape == ref.shape and have.tobytes() == ref.tobytes()

    # the recipes whose samples vanish near every face of the space axes, so
    # that summation by parts leaves no boundary term
    COMPACT = ("bump", "slab_bump", "bump_3d", "bump_t")

    @pytest.mark.parametrize("recipe", COMPACT)
    def test_summation_by_parts_identities(self, recipe):
        # with D_a the central first difference and D_a^2 = D_a D_a the wide
        # (2h) second difference, summation by parts is exact up to rounding:
        # sum (D_a D_b u)^2 = sum (D_a^2 u)(D_b^2 u) for the nested mixed
        # difference, and sum |D u|^2 = -sum u * sum_a D_a^2 u for the gradient
        from sharpcheck.harness import catalog
        d, side, name, wall, time, shape = self.RECIPES[recipe]
        for h in (0.2, 0.1) if d == 3 else (0.1, 0.05):
            grid, u = catalog._sampled(d, h, (side, name, wall, time, shape))
            v, sp = u.padded(), grid.space_axes
            for ax in sp:
                faces = np.moveaxis(v, ax, 0)
                assert not faces[:3].any() and not faces[-3:].any()
            du, d2u, _ = padded_derivatives(grid, ca.fd_derivatives(u))
            # the sample vanishes near the faces, so the roll wraps in zeros
            wide = [(np.roll(v, -2, ax) - 2.0 * v + np.roll(v, 2, ax)) / (4.0 * grid.spacing(ax) ** 2)
                    for ax in sp]
            for a in range(len(sp)):
                for b in range(a):
                    mixed = (d2u[..., b, a] ** 2).sum() / (wide[a] * wide[b]).sum()
                    assert abs(mixed - 1.0) <= 1e-12
            gradient = (du ** 2).sum() / -(v * sum(wide)).sum()
            assert abs(gradient - 1.0) <= 1e-12

    def test_box_samples_reaching_an_interior_box_edge_are_refused(self):
        g = ca.box_grid((0.0, -1.0), (1.0, 1.0), (20, 17))
        vals = np.zeros(g.shape)
        vals[6:11, 0:5] = np.random.default_rng(2).normal(size=(5, 5))
        whole = ca.GridFunction(g, vals)
        # the widened support is rows 2..14 and columns 0..8; a box edge
        # inside it is refused, and a grid edge never is
        for box, ok in [((slice(2, 15), slice(0, 9)), True),
                        ((slice(0, 20), slice(0, 12)), True),
                        ((slice(3, 15), slice(0, 9)), False),
                        ((slice(2, 14), slice(0, 17)), False),
                        ((slice(0, 20), slice(0, 8)), False)]:
            u = ca.GridFunction(g, vals[box].copy(), box)
            if ok:
                got, want = ca.fd_derivatives(u), ca.fd_derivatives(whole)
                assert got.box == want.box
                assert got.box_d2u.tobytes() == want.box_d2u.tobytes()
            else:
                with pytest.raises(ValueError, match="inside the grid"):
                    ca.fd_derivatives(u)
                with pytest.raises(ValueError, match="inside the grid"):
                    ca.operator_fields(catalog_operators(2)[0], u)

    def test_non_homogeneous_operator_is_refused(self):
        # F(0, x) = 1 would be +0.0 off the support box instead
        g = ca.box_grid((-1.0, -1.0), (1.0, 1.0), (9, 9))
        u = ca.manufactured("bump", 2, radius=0.5).on_grid(g)
        op = ca.tabulated_operator(lambda H, x: 3.0 * np.einsum("nii->n", H) + 1.0,
                                   delta=0.5, homogeneous=False)
        with pytest.raises(ValueError, match="positively homogeneous"):
            ca.evaluate_operator(op, u, ca.fd_derivatives(u))

    def test_field_sets_equal_whole_grid_reference(self, monkeypatch):
        # every _fields recipe of the catalog, at its entry's two coarsest
        # steps: u, fv, d2 and d1, held on the input's support box, padded
        # with +0.0 are the whole-grid computation's arrays
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
        for (params, h, (side, name, wall, time, shape)), fields in calls:
            grid, box, u, fv, d2, d1 = fields
            mf = recipe_input(params["d"], name, time, shape)
            want = whole_grid_samples(mf, grid)
            assert mf.on_grid(grid).padded().tobytes() == want.values.tobytes()
            du, d2u, _ = whole_grid_derivatives(want)
            assert box == ca.support_box(want.values)
            padded = lambda arr: ca.GridFunction(grid, arr, box).padded().tobytes()
            assert padded(u) == want.values.tobytes()
            assert padded(fv) == whole_grid_operator_image(
                catalog.build_operator(params), want).tobytes()
            assert padded(d2) == ca.frobenius(d2u).tobytes()
            assert padded(d1) == ca.euclidean(du).tobytes()
            kinds.add((name, time is not None, wall is not None))
        assert len(calls) >= 36 and len(kinds) >= 6
        assert {(t, half) for _, t, half in kinds} == {
            (False, False), (False, True), (True, False), (True, True)}


class TestPucci:
    def test_frozen_indefinite_instance(self):
        M = np.diag([1.0, -1.0])
        assert ca.pucci_extremal(M, 0.5) == pytest.approx(1.5, rel=RTOL)

    def test_frozen_identity_instance(self):
        assert ca.pucci_extremal(np.eye(2), 0.5) == pytest.approx(4.0, rel=RTOL)

    def test_matches_bruteforce_small(self):
        rng = np.random.default_rng(5)
        for d in (2, 3):
            for _ in range(3):
                M = ca.symmetrize(rng.normal(size=(d, d)) * 2.0)
                closed = ca.pucci_extremal(M, 0.5)
                brute = brute_force_extremal(M, 0.5, n_haar=1500, seed=1)
                assert brute <= closed * (1 + 1e-9)
                assert abs(brute - closed) <= 1e-3 * abs(closed)

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError, match="delta"):
            ca.pucci_extremal(np.eye(2), 1.5)


def eigvalsh_extremal(H, delta):
    """The maximal Pucci operator through ``np.linalg.eigvalsh``: the
    definition the 2x2 kernel must reproduce bit for bit."""
    w = np.linalg.eigvalsh(H)
    pos = np.clip(w, 0.0, None).sum(axis=-1)
    neg = np.clip(w, None, 0.0).sum(axis=-1)
    return pos / delta + neg * delta


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
            with np.errstate(over=ieee, invalid=ieee):
                want = eigvalsh_extremal(H, delta)
                got = ca.pucci_extremal(H, delta)
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
        got = ca.pucci_extremal(H, 0.5)
        assert np.shape(got) == shape
        assert_same_values(got, eigvalsh_extremal(H, 0.5))

    @pytest.mark.parametrize("d", [1, 3])
    def test_other_sizes_keep_eigvalsh(self, d):
        rng = np.random.default_rng(d)
        H = ca.symmetrize(rng.normal(size=(50, d, d)))
        assert_same_values(ca.pucci_extremal(H, 0.4), eigvalsh_extremal(H, 0.4))

    def test_peak_memory_no_higher_than_eigvalsh(self):
        H = ca.symmetrize(np.random.default_rng(2).normal(size=(2 ** 20, 2, 2)))
        peaks = []
        tracemalloc.start()
        try:
            for fn in (eigvalsh_extremal, ca.pucci_extremal):
                tracemalloc.reset_peak()
                fn(H, 0.5)
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
            lambda x: np.eye(2) * (1 + 0.5 * np.sin(x[0]))[..., None, None], delta=0.4)
        H = np.broadcast_to(np.eye(2), (3, 2, 2))
        x = (np.array([0.0, np.pi / 2, -np.pi / 2]), np.zeros(3))
        assert np.allclose(op(H, x), [2.0, 3.0, 1.0], rtol=1e-12)
        # per-axis coordinates broadcast to a grid of Hessians
        grid_x = (x[0].reshape(3, 1), np.zeros((1, 4)))
        assert np.allclose(op(np.broadcast_to(np.eye(2), (3, 4, 2, 2)), grid_x),
                           np.repeat([[2.0], [3.0], [1.0]], 4, axis=1), rtol=1e-12)
        with pytest.raises(ValueError, match="broadcast"):
            op(np.broadcast_to(np.eye(2), (5, 2, 2)), x)

    def test_linear_forms_equal_the_trace_einsum(self):
        rng = np.random.default_rng(4)
        H = ca.symmetrize(rng.normal(size=(30, 2, 2)))
        x = tuple(rng.normal(size=(2, 30)))
        const = elliptic_matrix(rng, 2, 0.5)
        varying = lambda x: np.eye(2) * (1 + 0.5 * np.sin(x[0]))[:, None, None]
        np.testing.assert_array_equal(ca.linear_operator(const, 0.5)(H, x),
                                      np.einsum("nij,nij->n", np.broadcast_to(const, H.shape), H))
        np.testing.assert_array_equal(ca.linear_operator(varying, 0.4)(H, x),
                                      np.einsum("nij,nij->n", varying(x), H))

    def test_bellman_is_the_max_of_its_trace_forms(self):
        rng = np.random.default_rng(5)
        fam = tuple(elliptic_matrix(rng, 3, 0.5) for _ in range(4))
        H = ca.symmetrize(rng.normal(size=(50, 3, 3)))
        forms = np.stack([np.einsum("nij,nij->n", np.broadcast_to(A, H.shape), H) for A in fam])
        np.testing.assert_array_equal(ca.bellman_operator(fam, 0.5)(H), forms.max(axis=0))

    def test_invalid_constructions_raise(self):
        with pytest.raises(ValueError, match=r"delta must lie in \(0, 1\]"):
            ca.pucci_operator(0.0, d=2)
        with pytest.raises(ValueError, match="nonempty"):
            ca.bellman_operator((), 0.5)
        with pytest.raises(ValueError, match="callable"):
            ca.tabulated_operator(None, 0.5)

    def test_pucci_sides_on_the_identity(self):
        H = np.eye(2)[None]
        assert ca.pucci_operator(0.5)(H)[0] == 4.0

    def test_evaluate_operator_on_grid(self):
        # Laplacian of |x|^2/2 is d, constant over the grid
        g = ca.box_grid((-1, -1), (1, 1), (9, 9))
        u = ca.GridFunction(g, 0.5 * (g.nodes() ** 2).sum(axis=-1))
        out = ca.evaluate_operator(ca.linear_operator(np.eye(2), 1.0), u, ca.fd_derivatives(u))
        assert np.allclose(out.values, 2.0, rtol=0, atol=1e-10)

    def test_parabolic_evaluation_adds_time_derivative(self):
        # u = t + x^2/2 has u_t = 1 and u_xx = 1, both differenced exactly
        # on these nodes, so the image is exactly 2 only with u_t added once
        g = ca.box_grid((0, -1), (1, 1), (9, 9), time_axis=True)
        t, x = g.coordinates()
        u = ca.GridFunction(g, t + 0.5 * x * x)
        out = ca.evaluate_operator(ca.linear_operator(np.eye(1), 1.0), u, ca.fd_derivatives(u))
        assert out.values.shape == g.shape
        assert np.all(out.values == 2.0)

    def test_class_check_pucci_passes_with_stated_bound(self):
        d = 3
        op = ca.pucci_operator(0.5, d=d)
        rep = ca.check_operator_class(op, d, budget=300, seed=2)
        assert rep.passed, rep.failures
        assert rep.max_lipschitz_ratio <= d / 0.5 + 1e-9
        lo, hi = rep.ellipticity_range
        assert lo >= 0.5 - 1e-9 and hi <= 2.0 + 1e-9

    def test_class_check_flags_violations(self):
        # zero-order shift breaks F(0) = 0; gradient 3 breaks delta = 1/2
        bad = ca.tabulated_operator(lambda H, x: 3.0 * np.einsum("nii->n", H) + 1.0,
                                    delta=0.5, homogeneous=False)
        rep = ca.check_operator_class(bad, 2, budget=100, seed=0)
        assert not rep.passed
        kinds = {k for k, _ in rep.failures}
        assert "zero_value" in kinds and "ellipticity" in kinds


class TestOscillation:
    def test_x_independent_operator_scores_zero(self):
        op = ca.pucci_operator(0.5, d=2)
        model = lambda H: ca.pucci_extremal(H, 0.5)
        res = ca.oscillation_theta(op, model, (0.0, 0.0), 0.7, density=10, seed=1)
        assert res.value <= 1e-12

    def test_modulated_trace_matches_quadrature(self):
        from scipy import integrate
        eps, r, z = 0.3, 0.8, np.array([0.4, -0.2])
        op = ca.tabulated_operator(
            lambda H, x: (1 + eps * np.sin(x[0])) * np.einsum("nii->n", H),
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
            lambda H, x: np.einsum("nii->n", H) + eps * np.tanh(ca.frobenius(H)) * x[0],
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
            return ca.pucci_extremal(H, delta) + 0.3 * np.tanh(
                np.einsum("...ii->...", H))

        op = ca.pucci_operator(delta, d=2)
        th_raw = ca.oscillation_theta(op, model, (0, 0), 0.5, tau0=0.25, density=8, seed=0)
        th_hom = ca.oscillation_theta(op, ca.homogenized_model(model), (0, 0), 0.5,
                                      tau0=0.25, homogeneous=True, density=8, seed=0)
        assert th_raw.value > 1e-3
        assert th_hom.value <= 1e-6
        assert th_hom.value <= th_raw.value

    @pytest.mark.parametrize("shape", ["ball", "half_ball", "cylinder", "half_cylinder"])
    def test_quadrature_nodes_match_norm_definition(self, shape):
        # the midpoint-lattice nodes whose space offset has norm below r, a
        # cylinder's time offset in [0, r^2) by construction, and a half
        # shape's first space coordinate nonnegative: in_shape's squares keep
        # the same nodes, in the same order
        center, r, n = np.array([0.3, -0.2, 0.1]), 0.7, 12
        cyl = int(shape.endswith("cylinder"))
        mid = np.arange(n) + 0.5
        axes = [center[0] + mid * (r ** 2 / n)] if cyl else []
        axes += [c - r + mid * (2 * r / n) for c in center[cyl:]]
        X = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        keep = np.linalg.norm(X[:, cyl:] - center[cyl:], axis=1) < r
        if shape.startswith("half"):
            keep &= X[:, cyl] >= 0
        got = ca.shape_quadrature(center, r, shape, density=n)
        assert got.tobytes() == X[keep].tobytes()

    def test_empty_shape_rejected(self):
        # half ball centered deep in the excluded side holds no nodes
        op = ca.pucci_operator(0.5, d=2)
        with pytest.raises(ValueError, match="no nodes"):
            ca.oscillation_theta(op, lambda H: ca.pucci_extremal(H, 0.5),
                                 (-5.0, 0.0), 0.5, shape="half_ball", density=8)


class TestManufactured:
    @pytest.mark.parametrize("name,d,kw,sizes", [
        ("bump", 2, dict(radius=0.9), (33, 65, 129)),
        ("gaussian", 2, dict(sigma=0.5), (33, 65, 129)),
        ("odd_bump", 2, dict(radius=0.9), (33, 65, 129)),
        ("slab_bump", 2, dict(centers=(0.2, 0.0), radii=(0.5, 0.8)), (33, 65, 129)),
        # one halving in d = 3, where the cross terms of three factors meet
        ("odd_bump", 3, dict(radius=0.9), (41, 81)),
        ("slab_bump", 3, dict(centers=(0.2, 0.0, -0.1), radii=(0.5, 0.8, 0.7)), (41, 81)),
    ])
    def test_callbacks_match_refined_fd(self, name, d, kw, sizes):
        # mollifier profiles have large high-order derivatives near the
        # support edge, so only a factor-2 preasymptotic decay per halving
        # of the spacing is demanded
        mf = ca.manufactured(name, d, **kw)
        errs = []
        for n in sizes:
            g = ca.box_grid((-1,) * d, (1,) * d, (n,) * d)
            fd_du, fd_d2u, _ = padded_derivatives(g, ca.fd_derivatives(mf.on_grid(g)))
            an_du, an_d2u, _ = padded_derivatives(g, mf.derivatives(g))
            errs.append(max(np.abs(fd_du - an_du).max(), np.abs(fd_d2u - an_d2u).max()))
        for coarse, fine in zip(errs, errs[1:]):
            assert fine < coarse / 2.0

    def test_bump_supported_in_ball(self):
        mf = ca.manufactured("bump", 2, radius=0.5)
        X = np.array([[0.6, 0.0], [0.0, 0.0], [0.49, 0.1]])
        u = mf.u(X)
        assert u[0] == 0.0 and u[1] > 0
        assert np.all(mf.d2u(X[:1]) == 0.0)

    def test_odd_bump_vanishes_on_boundary_exactly(self):
        mf = ca.manufactured("odd_bump", 2, radius=1.0)
        g = ca.box_grid((0, -1), (1, 1), (9, 9))
        assert np.all(mf.on_grid(g).padded()[0] == 0.0)

    def test_exp_growth_solves_zeroth_order_identity(self):
        # u = u' = u'' bit for bit, and the derivatives have their shapes
        mf = ca.manufactured("exp_growth", 1)
        X = np.linspace(0, 3, 50)[:, None]
        assert mf.du(X).shape == (50, 1) and mf.d2u(X).shape == (50, 1, 1)
        assert mf.du(X)[:, 0].tobytes() == mf.u(X).tobytes()
        assert mf.d2u(X)[:, 0, 0].tobytes() == mf.u(X).tobytes()

    def test_product_support_is_the_intersection(self):
        # a slab factor on [-0.25, 0.5] along x_1 times a ball of radius 0.25
        # about (0.5, 0): the product is 0 off [0.25, 0.5] x [-0.25, 0.25]
        f = ca._axis_factor(2, 0, *ca._bump_1d(0.125, 0.375), (-0.25, 0.5))
        g = ca.manufactured("bump", 2, center=(0.5, 0.0), radius=0.25)
        fg = ca._product(f, g)
        assert fg.support == ((0.25, 0.5), (-0.25, 0.25))
        X = np.random.default_rng(3).uniform(-1.0, 1.0, size=(400, 2))
        assert fg.u(X).tobytes() == (f.u(X) * g.u(X)).tobytes()
        lo, hi = np.array(fg.support).T
        assert not fg.u(X)[((X < lo) | (X > hi)).any(axis=1)].any()

    def test_product_hessian_is_symmetric(self):
        mf = ca.manufactured("slab_bump", 3, centers=(0.1, -0.2, 0.0), radii=(0.7, 0.9, 0.8))
        H = mf.d2u(np.random.default_rng(5).uniform(-0.8, 0.8, size=(500, 3)))
        assert H.tobytes() == np.swapaxes(H, 1, 2).tobytes()

    def test_factor_values_evaluate_no_derivatives(self, monkeypatch):
        def refuse(*_):
            raise AssertionError("a value callback evaluated a derivative")
        X = np.random.default_rng(7).uniform(-1.0, 1.0, size=(64, 2))
        f = ca._axis_factor(2, 1, np.sin, refuse, refuse)
        assert f.u(X).tobytes() == np.sin(X[:, 1]).tobytes()
        monkeypatch.setattr(ca, "_bump_profile", refuse)
        ca.manufactured("slab_bump", 2, centers=(0.0, 0.1), radii=(0.9, 0.8)).u(X)
        ca.manufactured("odd_bump", 2, radius=0.9).u(X)
        ca.with_time_profile(ca.manufactured("bump", 1)).time[0](X[:, 0])

    @pytest.mark.parametrize("dims", [(2, 3), (2, 1), (3, 2)])
    def test_rank_mismatch_is_refused(self, dims):
        # a 2-D input on a 3-D grid used to give (9, 9) values, which padded()
        # broadcast along the third axis, and on a 1-D grid shape (9,)
        d, n = dims
        mf = ca.manufactured("bump", d, radius=0.5)
        g = ca.box_grid((-1,) * n, (1,) * n, (9,) * n)
        for call in (mf.on_grid, mf.derivatives):
            with pytest.raises(ValueError, match=f"input on {d} axes .* grid of {n} axes"):
                call(g)
        with pytest.raises(ValueError, match=f"factors of {d} and {n} dimensions"):
            ca._product(mf, ca.manufactured("gaussian", n))

    def test_time_profile_derivative(self):
        mf = ca.with_time_profile(ca.manufactured("gaussian", 1, sigma=0.6),
                                  t_center=0.0, t_radius=1.0)
        errs_t, errs_x = [], []
        for n in (33, 65):
            g = ca.box_grid((0, -1), (0.8, 1), (2 * n - 1, n), time_axis=True)
            _, fd_d2u, fd_dt = padded_derivatives(g, ca.fd_derivatives(mf.on_grid(g)))
            _, an_d2u, an_dt = padded_derivatives(g, mf.derivatives(g))
            errs_t.append(np.abs(fd_dt - an_dt).max())
            errs_x.append(np.abs(fd_d2u - an_d2u).max())
        assert errs_t[1] < errs_t[0] / 3.0
        assert errs_x[1] < errs_x[0] / 3.0

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="library"):
            ca.manufactured("mystery", 2)

    @pytest.mark.parametrize("bad", [0.0, -1.2, np.nan, np.inf])
    def test_scales_must_be_finite_and_positive(self, bad):
        # a negative radius used to run as its absolute value, and a zero one
        # sampled an all-zero input
        for make, name in [(lambda: ca.manufactured("bump", 2, radius=bad), "radius"),
                           (lambda: ca.manufactured("odd_bump", 2, radius=bad), "radius"),
                           (lambda: ca.manufactured("gaussian", 2, sigma=bad), "sigma"),
                           (lambda: ca.manufactured("slab_bump", 2, centers=(0.0, 0.0),
                                                    radii=(1.0, bad)), "radii"),
                           (lambda: ca.with_time_profile(ca.manufactured("bump", 1),
                                                         t_radius=bad), "t_radius")]:
            with pytest.raises(ValueError, match=f"{name} must be finite and positive"):
                make()

    def test_on_grid_samples_the_support_box(self):
        # a bump of radius 0.5 at 0.2 on 21 nodes over [-1, 1] (spacing 0.1):
        # nodes 7..17 lie in [-0.3, 0.7], widened by the halo of 4
        g = ca.box_grid((-1.0, -1.0), (1.0, 1.0), (21, 21))
        u = ca.manufactured("bump", 2, center=(0.2, 0.0), radius=0.5).on_grid(g)
        assert u.box == (slice(3, 21), slice(1, 20))
        mf = ca.manufactured("gaussian", 2, sigma=0.5)
        assert mf.on_grid(g).box == (slice(0, 21), slice(0, 21))
        far = ca.manufactured("bump", 2, center=(3.0, 0.0), radius=0.5).on_grid(g)
        assert far.box == (slice(0, 0), slice(1, 20)) and far.values.size == 0
        assert ca.fd_derivatives(far).box == (slice(0, 0),) * 2

    def test_time_product_needs_a_time_grid(self):
        mf = ca.with_time_profile(ca.manufactured("gaussian", 1))
        with pytest.raises(ValueError, match="time grids"):
            mf.on_grid(ca.box_grid((0, -1), (1, 1), (5, 5)))

    @pytest.mark.parametrize("call", ["on_grid", "derivatives"])
    def test_space_only_input_needs_a_grid_without_time(self, call):
        # on_grid would zip the one-axis support with both grid axes and
        # sample 5 values for the 5x5 grid, and derivatives could not
        # reshape its samples to the grid
        mf = ca.manufactured("gaussian", 1, sigma=0.6)
        g = ca.box_grid((0, -1), (1, 1), (5, 5), time_axis=True)
        with pytest.raises(ValueError, match="with_time_profile makes it a time product"):
            getattr(mf, call)(g)


def parent_bump(s):
    """The mollifier ``exp(-1/(1-s))`` on ``s < 1`` and its first derivative,
    as the hand-written inputs formed them before the product rule."""
    safe = s < 1.0 - 1e-8
    t = np.where(safe, 1.0 - s, 1.0)
    g = np.where(safe, np.exp(-1.0 / t), 0.0)
    return g, np.where(safe, -g / t ** 2, 0.0)


def parent_values(name, X, **kw):
    """``u`` of each manufactured kind by its formula before the product rule."""
    if name == "exp_growth":
        return np.exp(X[:, 0])
    if name == "gaussian":
        return np.exp(-ca.sum_of_squares(X.T) / (2 * float(kw["sigma"]) ** 2))
    if name == "slab_bump":
        centers, radii = np.asarray(kw["centers"]), np.asarray(kw["radii"])
        return parent_bump(((X - centers) / radii) ** 2)[0].prod(axis=1)
    center = np.asarray(kw.get("center", np.zeros(X.shape[1])), dtype=np.float64)
    radial = kw.get("amplitude", 1.0) * parent_bump(
        ca.sum_of_squares((X - center).T) / float(kw["radius"]) ** 2)[0]
    return X[:, 0] * radial if name == "odd_bump" else radial


class TestParentFormulas:
    """Every kind's values, the exponential's derivatives and the time
    profile's (q, q') keep their bits through the one-axis factors and the
    product rule; only the slab and odd bumps' analytic derivatives, which
    no report reads, change association."""

    @staticmethod
    def points(d):
        rng = np.random.default_rng(d)
        X = rng.uniform(-1.3, 1.3, size=(3000, d))
        X[:40, 0] = 0.0                                    # the odd bump's zero plane
        X[40:80] = rng.choice([-0.9, -0.5, 0.0, 0.3, 0.7], size=(40, d))   # support edges
        return X

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_values_keep_their_bits(self, d):
        X = self.points(d)
        kinds = {"bump": dict(center=np.linspace(-0.2, 0.3, d), radius=0.9, amplitude=3.7),
                 "gaussian": dict(sigma=0.6), "odd_bump": dict(radius=0.9),
                 "slab_bump": dict(centers=np.linspace(0.2, -0.2, d), radii=(0.5, 0.7, 0.9)[:d])}
        if d == 1:
            kinds["exp_growth"] = {}
        for name, kw in kinds.items():
            got = ca.manufactured(name, d, **kw).u(X)
            assert got.tobytes() == parent_values(name, X, **kw).tobytes(), name

    def test_exp_growth_derivatives_keep_their_bits(self):
        X = self.points(1) * 3.0
        mf = ca.manufactured("exp_growth", 1)
        assert mf.du(X).tobytes() == np.exp(X[:, 0])[:, None].tobytes()
        assert mf.d2u(X).tobytes() == np.exp(X[:, 0])[:, None, None].tobytes()

    # radii that are no power of two, where dividing by r ** 2 rounds
    @pytest.mark.parametrize("window", [(0.7, 0.6), (1.3, 0.3), (0.75, 1.7), (0.0, 1.0)])
    def test_time_profile_keeps_its_bits(self, window):
        c, r = window
        t = np.concatenate([np.random.default_rng(11).uniform(-1.5, 3.0, 2000),
                            [c - r, c, c + r]])
        q, q1 = ca.with_time_profile(ca.manufactured("bump", 1), c, r).time
        g, g1 = parent_bump(((t - c) / r) ** 2)
        assert q(t).tobytes() == g.tobytes()
        assert q1(t).tobytes() == (g1 * 2.0 * (t - c) / r ** 2).tobytes()


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
                           (10, 7) + (12, 9)[:d - 1], time_axis=True)
        return full, half

    @staticmethod
    def space_input(name, d):
        kw = {"bump": {"radius": 1.0}, "odd_bump": {"radius": 1.1},
              "gaussian": {"sigma": 0.6}}[name]
        return ca.manufactured(name, d, **kw)

    # time supports inside the grids, cut by their last time node, and
    # wider than the grids on both sides
    @pytest.mark.parametrize("window", [(0.7, 0.5), (1.3, 0.5), (0.75, 2.0)],
                             ids=["inside", "cut", "wider"])
    @pytest.mark.parametrize("name", ["bump", "odd_bump", "gaussian"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_samples_match_flat_row_product(self, d, name, window):
        t_center, t_radius = window
        mf = ca.with_time_profile(self.space_input(name, d), t_center=t_center,
                                  t_radius=t_radius)
        for g in self.grids(d):
            u, du, d2u, dt = flat_row_product(mf, g)
            got = padded_derivatives(g, mf.derivatives(g))
            # on_grid samples its support box and writes +0.0 at every other
            # node, where the flat-row product of an odd input may give -0.0
            sampled = mf.on_grid(g)
            in_box = np.zeros_like(u)
            in_box[sampled.box] = u[sampled.box]
            np.testing.assert_array_equal(in_box, u)
            for have, want in zip((sampled.padded(), *got), (in_box, du, d2u, dt)):
                assert have.shape == want.shape
                assert have.tobytes() == want.tobytes()
