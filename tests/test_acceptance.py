"""Acceptance gates for the toolkit, one test and one printed line per gate.

Each test aggregates its subchecks into a single [PASS]/[FAIL] line written
straight to the terminal, then asserts with the collected failure details.
Frozen oracles appearing below:

* indicator instance: squared L2 norm of the maximal function of 1_[0,1) on
  [0, 4) with two coarser levels is 3/2 - 2^-3, within 2^-3 of the full
  geometric-series limit 3/2.
* linear weight on anchored intervals: class constant exactly 2 at p = 3.
* extremal trace form of diag(1, -1) at delta = 1/2: 2 - 1/2 = 3/2.
* exponential windows: the defect integrand vanishes identically, so every
  empirical ratio is infinite while the numerator doubles per window.
"""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from sharpcheck import calculus as ca
from sharpcheck import cli
from sharpcheck.filtration import full_space
from sharpcheck.harness import (
    BOUNDED,
    DIVERGING,
    ENTRIES,
    EstimateSpec,
    empirical_constant,
    exact_identity_suite,
    refinement_study,
    run_estimate_check,
)
from sharpcheck.operators import dyadic_maximal
from sharpcheck.weights import (
    MixedNormSpec,
    NodeMasses,
    PowerX1,
    ap_constant,
    ap_divergence_ladder,
    box_mixed_norm,
    cube_family,
    weighted_norm,
)

ROOT = Path(__file__).resolve().parents[1]


def _report(capsys, num: int, desc: str, problems: list):
    with capsys.disabled():
        print(f"\n[{'FAIL' if problems else 'PASS'}] criterion {num}: {desc}")
    assert not problems, f"criterion {num}: " + "; ".join(problems)


def _check(problems: list, ok: bool, msg: str):
    if not ok:
        problems.append(msg)


def test_criterion_01_exact_stopping_time_identities(capsys):
    problems = []
    start = time.perf_counter()
    rep = exact_identity_suite(seed=0, n_instances=100, tolerance=1e-12)
    elapsed = time.perf_counter() - start
    _check(problems, rep.passed, f"{len(rep.failures)} identity residuals over 1e-12")
    _check(problems, rep.worst() <= 1e-12,
           f"worst residual {rep.worst():.3e} exceeds 1e-12")
    _check(problems, elapsed < 10.0, f"took {elapsed:.1f}s, budget 10s")
    _report(capsys, 1,
            "conservation/bound/weak-type/level-set identities exact to 1e-12 "
            "on 100 instances per geometry", problems)


def test_criterion_02_maximal_constant(capsys):
    problems = []
    filt = full_space(1, -2, 5, (0.0,), (4.0,))
    rng = np.random.default_rng(17)
    for p in (1.5, 2.0, 4.0):
        worst = 0.0
        for _ in range(30):
            g = filt.field(rng.uniform(0.0, 1.0, filt.shape))
            mg = dyadic_maximal(g)
            lhs = float((np.abs(mg.values) ** p).sum()) ** (1 / p)
            rhs = float((np.abs(g.values) ** p).sum()) ** (1 / p)
            worst = max(worst, lhs / (p / (p - 1) * rhs))
        _check(problems, worst <= 1 + 1e-9,
               f"p={p}: worst ratio {worst:.12f} breaches the p/(p-1) bound")

    # hand-computed indicator instance on two coarse levels (K = 2)
    ind = full_space(1, -2, 2, (0.0,), (4.0,))
    g = ind.field((ind.cell_centers()[..., 0] < 1.0).astype(float))
    sq = float((dyadic_maximal(g).values ** 2).sum()) * ind.finest_volume
    _check(problems, abs(sq - 1.375) <= 1e-12,
           f"indicator norm^2 {sq!r}, expected 1.375 exactly")
    _check(problems, abs(sq - 1.5) <= 2.0 ** -3 + 1e-12,
           f"indicator norm^2 {sq!r} misses 3/2 by more than the truncation 2^-3")
    _report(capsys, 2,
            "maximal bound with constant p/(p-1) on 30 random fields per "
            "exponent, plus the indicator instance", problems)


def test_criterion_03_weight_class_constants(capsys):
    problems = []
    start = time.perf_counter()
    fam = cube_family((0.0,), (1.0,))
    linear = ap_constant(PowerX1(1.0), 3.0, fam)
    _check(problems, abs(linear - 2.0) <= 0.02 * 2.0,
           f"linear-weight constant {linear:.6f}, expected 2 within 2%")
    for p in (1.5, 2.0, 4.0):
        unit = ap_constant(PowerX1(0.0), p, fam)
        _check(problems, abs(unit - 1.0) <= 1e-12,
               f"unit-weight constant at p={p} is {unit!r}, expected exactly 1")
    for q in (-1.5, 1.5):                 # both sit outside (-1, p-1) for p = 2
        ladder = np.array(ap_divergence_ladder(PowerX1(q, resolution=1e-3), 2.0, d=1))
        _check(problems, bool(np.all(np.diff(ladder) > 0)),
               f"q={q}: ladder is not monotone increasing")
        _check(problems, ladder[-1] / ladder[0] >= 2.0,
               f"q={q}: growth {ladder[-1] / ladder[0]:.3f} under x2 across 6 steps")
    elapsed = time.perf_counter() - start
    _check(problems, elapsed < 30.0, f"took {elapsed:.1f}s, budget 30s")
    _report(capsys, 3,
            "weight class constants: anchored linear weight = 2, unit weight = 1, "
            "out-of-range powers diverge", problems)


def _sampled_extremal(H: np.ndarray, delta: float, seed, n: int = 10000) -> float:
    """Brute-force route: max of tr(aH) over >= n sampled matrices with
    spectrum in [delta, 1/delta] (Haar frames, uniform and corner spectra)."""
    rng = np.random.default_rng(seed)
    d = H.shape[0]
    frames, _ = np.linalg.qr(rng.standard_normal((n, d, d)))
    rotated = np.einsum("nki,kl,nlj->nij", frames, H, frames)
    diag = np.stack([rotated[:, i, i] for i in range(d)], axis=1)
    best = float((diag * rng.uniform(delta, 1 / delta, (n, d))).sum(axis=1).max())
    corners = np.array(np.meshgrid(*[[delta, 1 / delta]] * d)).reshape(d, -1).T
    for c in corners:
        best = max(best, float((diag * c).sum(axis=1).max()))
    return best


def test_criterion_04_extremal_operator_oracle(capsys):
    problems = []
    delta = 0.5
    rng = np.random.default_rng(11)
    for d in (2, 3):
        for k in range(20):
            A = rng.standard_normal((d, d))
            H = (A + A.T) / 2
            closed = float(ca.pucci_extremal(H, delta))
            brute = _sampled_extremal(H, delta, seed=[5, d, k])
            _check(problems, brute <= closed + 1e-12 * abs(closed),
                   f"d={d} #{k}: a sample beat the closed form by {brute - closed:.3e}")
            _check(problems, brute >= closed - 1e-3 * abs(closed),
                   f"d={d} #{k}: sampling reached only {brute / closed:.6f} of closed form")
    exact = float(ca.pucci_extremal(np.diag([1.0, -1.0]), delta))
    _check(problems, abs(exact - 1.5) <= 1e-12,
           f"diag(1,-1) instance gave {exact!r}, expected 3/2")
    _report(capsys, 4,
            "extremal trace form matches sampled brute force to 1e-3 on 20 "
            "random 2x2 and 3x3 inputs, exact on diag(1,-1)", problems)


def test_criterion_05_finite_difference_orders(capsys):
    problems = []
    g = ca.box_grid((0.0, -1.0), (2.0, 1.0), (9, 7))
    X = g.nodes().reshape(-1, g.ndim)
    A = np.array([[2.0, 0.5], [0.5, -1.0]])
    b = np.array([0.3, -0.7])
    vals = 0.5 * np.einsum("ni,ij,nj->n", X, A, X) + X @ b + 1.5
    der = ca.fd_derivatives(ca.GridFunction(g, vals.reshape(g.shape)))
    du, d2u = (ca.GridFunction(g, a, der.box).padded() for a in (der.box_du, der.box_d2u))
    du_err = float(np.abs(du - (X @ A + b).reshape(g.shape + (2,))).max())
    d2_err = float(np.abs(d2u - A).max())
    _check(problems, du_err <= 1e-12, f"gradient error {du_err:.3e} on a quadratic")
    _check(problems, d2_err <= 1e-12, f"Hessian error {d2_err:.3e} on a quadratic")

    for fn, d2 in ((np.sin, lambda x: -np.sin(x)), (np.exp, np.exp)):
        errs = []
        for n in (17, 33, 65):
            g1 = ca.box_grid((0.0,), (1.0,), (n,))
            x = g1.axis_nodes(0)
            der = ca.fd_derivatives(ca.GridFunction(g1, fn(x)))
            d2u = ca.GridFunction(g1, der.box_d2u, der.box).padded()
            errs.append(float(np.abs(d2u[:, 0, 0] - d2(x)).max()))
        for a, bb in zip(errs, errs[1:]):
            _check(problems, 3.5 <= a / bb <= 4.5,
                   f"{fn.__name__}: halving ratio {a / bb:.2f} outside [3.5, 4.5]")
    _report(capsys, 5,
            "finite differences exact to 1e-12 on quadratics, second-order on "
            "sin/exp oracles", problems)


def test_criterion_06_oscillation_functional(capsys):
    problems = []
    op = ca.pucci_operator(0.5, d=2)
    model = lambda H: ca.pucci_extremal(H, 0.5)
    flat = ca.oscillation_theta(op, model, (0.0, 0.0), 0.7, density=10, seed=1).value
    _check(problems, flat <= 1e-12,
           f"frozen-coefficient functional is {flat:.3e}, expected 0 to 1e-12")

    eps, r, z = 0.3, 0.8, np.array([0.4, -0.2])
    mod = ca.tabulated_operator(
        lambda H, x: (1 + eps * np.sin(x[0])) * np.einsum("nii->n", H),
        delta=0.5, homogeneous=False)
    trace = lambda H: np.einsum("nii->n", np.asarray(H))
    got = ca.oscillation_theta(mod, trace, z, r, density=220, homogeneous=True,
                               seed=3).value
    integrand = lambda x: np.abs(np.sin(x)) * 2 * np.sqrt(r ** 2 - (x - z[0]) ** 2)
    avg, _ = integrate.quad(integrand, z[0] - r, z[0] + r)
    want = eps * np.sqrt(2) * avg / (np.pi * r ** 2)
    _check(problems, abs(got - want) <= 0.01 * want,
           f"modulated-trace functional {got:.6f} vs quadrature {want:.6f}")
    _report(capsys, 6,
            "coefficient-oscillation functional: zero when frozen, quadrature "
            "match within 1% when modulated", problems)


def test_criterion_07_boundedness_trends(capsys):
    problems = []
    ladders = {
        "FS-LOCAL": (2.0 ** -4, 2.0 ** -5, 2.0 ** -6, 2.0 ** -7),
        "INTERP": (0.25, 0.125, 0.0625, 0.03125),
        "W2P-GLOBAL": (0.025, 0.0125, 0.00625, 0.003125),
        "HS-WEIGHTED": (0.1, 0.05, 0.025, 0.0125),
        "PARA-GLOBAL": (0.2, 0.1, 0.05, 0.025),
    }
    start = time.perf_counter()
    for eid, ladder in ladders.items():
        rep = refinement_study(EstimateSpec(id=eid), ladder)
        series = np.array(rep.primary.n_emp)
        spread = float(series.max() / series.min())
        _check(problems, rep.verdict == BOUNDED,
               f"{eid}: verdict {rep.verdict}, expected bounded")
        _check(problems, spread < 1.25,
               f"{eid}: ratio spread {spread:.4f} is not under 25%")
        if eid == "W2P-GLOBAL":          # this entry promises the tighter 10%
            _check(problems, spread < 1.10,
                   f"W2P-GLOBAL: spread {spread:.4f} is not under 10%")
    elapsed = time.perf_counter() - start
    _check(problems, elapsed < 600.0, f"took {elapsed:.1f}s, budget 600s")
    _report(capsys, 7,
            "five estimate families classified bounded with ratio spread under "
            "25% across three spacing halvings", problems)


def test_criterion_08_negative_controls(capsys):
    problems = []
    rep = run_estimate_check(EstimateSpec(id="NEG-EXP"))
    _check(problems, rep.verdict == DIVERGING,
           f"window study verdict {rep.verdict}, expected diverging")
    _check(problems, all(v == float("inf") for v in rep.primary.n_emp),
           "zero-defect windows should give an infinite ratio at every step")
    lhs = rep.primary.lhs
    _check(problems, all(b >= 2 * a for a, b in zip(lhs, lhs[1:])),
           f"window numerators {lhs} do not double per step")

    entry = ENTRIES["HS-DIRICHLET"]
    try:
        entry.runner(entry.merged({"input": "bump"}), 0.1, 0)
        problems.append("boundary entry accepted an input with nonzero trace")
    except ValueError as e:
        _check(problems, "vanish on the boundary" in str(e),
               f"rejection happened, but with message {e!r}")
    _report(capsys, 8,
            "exponential windows diverge (numerator doubling, infinite ratios); "
            "boundary entry rejects nonzero trace", problems)


def test_criterion_09_iterated_norm_consistency(capsys):
    problems = []
    grid = ca.box_grid((0.0, -1.0), (1.0, 1.0), (41, 33))
    ax = np.exp(grid.axis_nodes(0))
    by = 1.0 + grid.axis_nodes(1) ** 2
    f = ca.GridFunction(grid, np.outer(ax, by))

    got = box_mixed_norm(f.grid, f.box, MixedNormSpec(groups=((0,), (1,)), exponents=(3.0, 2.0)),
                         f.values)
    mx = float((np.abs(ax) ** 3 * NodeMasses(ca.box_grid((0.0,), (1.0,), (41,)))[:]).sum()) \
        ** (1 / 3)
    my = float((np.abs(by) ** 2 * NodeMasses(ca.box_grid((-1.0,), (1.0,), (33,)))[:]).sum()) \
        ** (1 / 2)
    _check(problems, abs(got - mx * my) <= 1e-10 * mx * my,
           f"separable input: iterated norm {got!r} vs factor product {mx * my!r}")

    both = box_mixed_norm(f.grid, f.box, MixedNormSpec(groups=((0,), (1,)), exponents=(2.5, 2.5)),
                          f.values)
    plain = weighted_norm(f, 2.5)
    _check(problems, abs(both - plain) <= 1e-10 * plain,
           f"equal exponents: iterated {both!r} vs plain {plain!r}")

    p = 3.0
    apriori = ENTRIES["APRIORI"]
    chk_a = apriori.runner(apriori.merged({}), 0.0625, 0)[0]
    mixed = ENTRIES["MIXED"]
    chk_m = mixed.runner(mixed.merged({}), 0.0625, 0)[0]
    ratio_a = empirical_constant(chk_a.lhs, chk_a.rhs_terms) ** (1 / p)
    ratio_m = empirical_constant(chk_m.lhs, chk_m.rhs_terms)
    _check(problems, abs(ratio_m - ratio_a) <= 0.01 * ratio_a,
           f"iterated-vs-plain ratios {ratio_m:.6f} / {ratio_a:.6f} differ over 1%")
    _report(capsys, 9,
            "iterated norms: exact factorization, equal-exponent collapse, and "
            "ratio agreement with the plain-norm study", problems)


def test_criterion_10_byte_identical_reruns(capsys, tmp_path):
    problems = []
    cfg = str(ROOT / "suites" / "core.cfg")
    outs = []
    for name in ("first.json", "second.json"):
        out = tmp_path / name
        code = cli.main(["verify", cfg, "--out", str(out)])
        capsys.readouterr()
        _check(problems, code == 0, f"verify exited {code} for {name}")
        outs.append(out.read_bytes())
    _check(problems, outs[0] == outs[1], "rerun JSON differs byte-for-byte")
    doc = json.loads(outs[0])
    _check(problems, doc["seed"] == 1 and len(doc["entries"]) == 3,
           "core suite document lost its seed or entries")
    _report(capsys, 10,
            "two core-suite runs with the same seed emit byte-identical JSON",
            problems)
