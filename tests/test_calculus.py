"""Grids, finite differences, operator families, manufactured inputs.

Frozen closed-form values used below:
  extremal max of diag(1, -1) at delta = 1/2: 2*1 + (1/2)*(-1) = 3/2
  extremal max of the 2x2 identity at delta = 1/2: 2 + 2 = 4
  trace modulated by (1 + eps*sin(x_1)) against the plain trace: the
  oscillation value is eps * sqrt(d) * (ball average of |sin(x_1)|).
"""

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
