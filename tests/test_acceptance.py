"""Acceptance suite: eight end-to-end criteria, one pass/fail line each.

Every expected number here is either an exact rational fixture, a closed
form evaluated independently, or a property with its tolerance stated
inline.  Run with -s to see the per-criterion lines also on success.
"""

import math
import time
from fractions import Fraction

import numpy as np

from conedeg.cli import EXIT_PASS, dispatch
from conedeg.envelopes import (
    GridFn,
    check_envelope_properties,
    dyadic_sharpness,
    lower_envelope,
    upper_envelope,
)
from conedeg.matcone import ConeSpec, SymMatrix, eigen_sym, parse_cone
from conedeg.operators import (
    FieldOracle,
    Jet2,
    OperatorSpec,
    conformal_hessian_u,
    consistency_check,
    eval_F,
    example_varying_quad,
    kelvin_transform,
)
from conedeg.perron import SolverConfig, perron_solve, radial_sandwich_problem, uniqueness_experiment
from conedeg.radial import (
    QuarticSpec,
    build_counterexample,
    cusp_family_operator,
    cusp_pair_values,
    monotone_interp_L,
    quartic_eval,
)
from conedeg.viscosity import (
    PROPAGATION_CONSISTENT,
    PROPAGATION_VIOLATED,
    first_variation_constants,
    first_variation_hat,
    first_variation_tilde,
    moving_sphere_check,
    touching_experiment,
)


def _report(num: int, name: str, checks: dict, extra: str = "") -> None:
    ok = all(checks.values())
    line = f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" [{extra}]"
    failed = [key for key, flag in checks.items() if not flag]
    if failed:
        line += " failing: " + ", ".join(failed)
    print(line)
    assert ok, line


def _random_jet(rng: np.random.Generator, s_bound: float, p_bound: float) -> Jet2:
    x = rng.uniform(-0.577, 0.577, 3)
    p = rng.uniform(-1.0, 1.0, 3)
    p *= rng.uniform(0.0, p_bound) / max(1e-12, float(np.linalg.norm(p)))
    a = rng.normal(size=(3, 3))
    return Jet2(x, rng.uniform(-s_bound, s_bound), p,
                SymMatrix.from_dense(0.5 * (a + a.T) * rng.uniform(0.0, 5.0)))


def test_criterion_1_exact_rational_reproduction():
    t0 = time.perf_counter()
    # 6400 t^4 + 32400 alpha t^2 + 729 t at alpha = -36/25
    q = QuarticSpec(Fraction(6400), 32400 * Fraction(-36, 25), Fraction(729), Fraction(0))
    checks = {
        "value_at_-2": quartic_eval(q, -2) == -85682,
        "value_at_-3": quartic_eval(q, -3) == 96309,
        "value_at_2": quartic_eval(q, 2) == -82766,
        "value_at_-8/5": quartic_eval(q, Fraction(-8, 5)) == Fraction(-1966568, 25),
        "value_at_8/5": quartic_eval(q, Fraction(8, 5)) == Fraction(-1908248, 25),
    }
    edge = Fraction(32, 45)
    checks["interp_lower_endpoint"] = (
        monotone_interp_L(Fraction(1), -edge) == Fraction(-245821, 364500)
    )
    checks["interp_upper_endpoint"] = (
        monotone_interp_L(Fraction(1), edge) == Fraction(238531, 364500)
    )
    elapsed = time.perf_counter() - t0
    checks["runtime_under_1s"] = elapsed < 1.0
    _report(1, "exact rationals", checks, f"{elapsed:.3f}s")


def test_criterion_2_counterexample_certificates():
    checks = {}
    times = []

    t0 = time.perf_counter()
    checks["cli_beta_sign_exit_0"] = (
        dispatch(["ctex", "--kind", "beta-sign", "--alpha", "-3",
                  "--out", "/tmp/acceptance_ctex.csv"]) == EXIT_PASS
    )
    cert = build_counterexample("beta_sign", rgrid=2001, alpha=-3.0)
    times.append(time.perf_counter() - t0)
    ts = [rb.t for rb in cert.roots]
    checks["beta_sign_verdict"] = cert.verdict == "pass"
    checks["beta_sign_four_roots"] = len(ts) == 4
    checks["beta_sign_interlacing"] = (
        len(ts) == 4 and ts[0] < -2 < ts[1] < 0 < ts[2] < 9 / 4 < ts[3]
    )
    checks["beta_sign_lam1_vanishes"] = (
        np.abs(cert.rows["mu_w"]).max() <= 1e-9 and len(cert.rows) == 2000
    )
    checks["beta_sign_eig_signs"] = cert.clauses["eig_sign_pattern"]
    checks["beta_sign_touching_r0"] = cert.touching == [2.0]

    t0 = time.perf_counter()
    cert = build_counterexample("nondec", rgrid=2001)
    times.append(time.perf_counter() - t0)
    ts = [rb.t for rb in cert.roots]
    checks["nondec_verdict"] = cert.verdict == "pass"
    checks["nondec_alpha"] = cert.params["alpha"] == -36 / 25
    checks["nondec_interlacing_across_8_5"] = (
        len(ts) == 4 and ts[0] < -2 < ts[1] < -8 / 5 and 8 / 5 < ts[2] < 2 < ts[3]
    )
    checks["nondec_lam1_vanishes"] = np.abs(cert.rows["mu_w"]).max() <= 1e-9
    checks["nondec_touching_r0"] = cert.touching == [2.0]

    t0 = time.perf_counter()
    cert = build_counterexample("bprime", rgrid=2001)
    times.append(time.perf_counter() - t0)
    checks["bprime_verdict"] = cert.verdict == "pass"
    checks["bprime_touching_r0"] = cert.touching == [2.0]
    checks["bprime_all_clauses"] = all(cert.clauses.values())

    checks["each_under_5s"] = all(t < 5.0 for t in times)
    _report(2, "counterexample certificates", checks,
            " ".join(f"{t:.2f}s" for t in times))


def _random_piecewise(rng: np.random.Generator) -> GridFn:
    n = int(rng.integers(60, 160))
    xs = np.linspace(-1.0, 1.0, n)
    edges = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6))))
    levels = rng.uniform(-2.0, 2.0, size=len(edges) + 1)
    return GridFn(((-1.0, 1.0),), levels[np.searchsorted(edges, xs)]
                  + rng.uniform(-0.5, 0.5) * xs)


def test_criterion_3_envelope_suite():
    t0 = time.perf_counter()
    checks = {"dyadic_sharpness": dyadic_sharpness().all_ok}
    eps_list = [1e-2, 1e-3, 1e-4]
    properties_ok = True
    duality_ok = True
    for seed in range(20):
        g = _random_piecewise(np.random.default_rng(1000 + seed))
        for side in ("lower", "upper"):
            properties_ok &= check_envelope_properties(g, eps_list, side).all_ok
        low = lower_envelope(g, 1e-3)
        upneg = upper_envelope(g.with_values(-g.values), 1e-3)
        duality_ok &= bool(np.array_equal(low.env.values, -upneg.env.values))
    checks["random_grids_properties"] = properties_ok
    checks["duality_exact"] = duality_ok
    elapsed = time.perf_counter() - t0
    checks["runtime_under_30s"] = elapsed < 30.0
    _report(3, "envelope suite", checks, f"{elapsed:.2f}s")


def test_criterion_4_operator_identities():
    rng = np.random.default_rng(20)
    checks = {}

    worst = 0.0
    for n in (3, 4, 5):
        for oracle in (FieldOracle.bubble(n), FieldOracle.harmonic_power(n),
                       FieldOracle.constant(0.8, n)):
            for _ in range(50):
                x = rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
                worst = max(worst, consistency_check(oracle, x, n, 1e-10).deviation)
    checks["triple_consistency_1e-10"] = worst <= 1e-10

    worst = 0.0
    for n in (3, 4, 5):
        oracle = FieldOracle.harmonic_power(n)
        for _ in range(50):
            x = rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
            a_u = conformal_hessian_u(oracle.jet(x), n).dense()
            worst = max(worst, float(np.max(np.abs(a_u))))
    checks["fundamental_singularity_annihilated"] = worst <= 1e-10

    x0 = np.array([0.2, 0.1, -0.3])
    lam = 0.9
    worst = 0.0
    for oracle in (FieldOracle.bubble(3), FieldOracle.constant(2.0, 3)):
        twice = kelvin_transform(kelvin_transform(oracle, x0, lam, 3), x0, lam, 3)
        for _ in range(50):
            y = x0 + rng.normal(size=3)
            if float(np.linalg.norm(y - x0)) < 1e-2:
                continue
            ref = oracle.value(y)
            worst = max(worst, abs(twice(y) - ref) / max(1.0, abs(ref)))
    checks["kelvin_involution_1e-10"] = worst <= 1e-10

    conformal = OperatorSpec.conformal()
    quad = OperatorSpec.quad_const(1.0, 0.5)
    same = True
    for _ in range(100):
        j = _random_jet(rng, 1.0, 10.0)
        same &= bool(np.array_equal(eval_F(j, conformal).dense(),
                                    eval_F(j, quad).dense()))
    checks["quad_1_half_is_conformal_exactly"] = same

    _report(4, "operator identities", checks)


def test_criterion_5_first_variation_gaps():
    t0 = time.perf_counter()
    F = example_varying_quad()
    P = first_variation_constants(F, M=1.0, R=1.0)
    rng = np.random.default_rng(12345)
    worst_up = worst_down = math.inf
    for _ in range(1000):
        j = _random_jet(rng, 1.0, 10.0)
        _, gap_up = first_variation_tilde(j, P, F)
        _, gap_down = first_variation_hat(j, P, F)
        worst_up = min(worst_up, eigen_sym(gap_up).min())
        worst_down = min(worst_down, eigen_sym(gap_down).min())
    elapsed = time.perf_counter() - t0
    checks = {
        "raise_gap_psd_1e-10": worst_up >= -1e-10,
        "lower_gap_psd_1e-10": worst_down >= -1e-10,
        "runtime_under_10s": elapsed < 10.0,
    }
    _report(5, "first-variation gaps", checks,
            f"{elapsed:.2f}s worst {min(worst_up, worst_down):.2e}")


def test_criterion_6_perron_solver():
    t0 = time.perf_counter()
    grids = (250, 500, 1000)
    errors, hs, flags, paths = [], [], [], []
    reference = None
    problems = {}
    for npts in grids:
        problem, exact = radial_sandwich_problem(npts, n=3)
        problems[npts] = problem
        h = problem.sub.h[0]
        if reference is None:
            reference = float(np.max(np.abs(exact)))  # sup of the boundary profile
        cfg = SolverConfig(tol=0.15 * h, max_sweeps=2_000_000)
        result = perron_solve(problem, cfg)
        errors.append(float(np.max(np.abs(result.u.values - exact))))
        hs.append(h)
        flags.append(result.solved and result.monotone_ok and result.sandwich_ok)
        paths.append(result.path)
    bounds = [2e-2 * h * reference for h in hs]
    orders = [math.log(errors[i] / errors[i + 1]) / math.log(hs[i] / hs[i + 1])
              for i in range(len(grids) - 1)]

    h500 = problems[500].sub.h[0]
    cfg500 = SolverConfig(tol=0.15 * h500, max_sweeps=2_000_000)
    uni = uniqueness_experiment(problems[500], cfg500)
    elapsed = time.perf_counter() - t0

    checks = {
        "errors_within_2e-2_h_ref": all(e <= b for e, b in zip(errors, bounds)),
        "order_at_least_0.9": all(o >= 0.9 for o in orders),
        "invariants_every_sweep": all(flags),
        "ascending_descending_agree_10tol": uni.passed,
        "runtime_under_20s": elapsed < 20.0,
    }
    detail = (f"{elapsed:.1f}s errors " + "/".join(f"{e:.1e}" for e in errors)
              + " orders " + "/".join(f"{o:.2f}" for o in orders)
              + " paths " + "/".join(paths + [r.path for r in uni.runs]))
    _report(6, "desk-scale solver", checks, detail)


def test_criterion_7_touching_propagation():
    checks = {}

    cert = build_counterexample("beta_sign", rgrid=501, alpha=-3.0)
    rr, wv, vv = cusp_pair_values(cert, 501)
    box = ((float(rr[0]), float(rr[-1])),)
    rep = touching_experiment(GridFn(box, wv), GridFn(box, vv),
                              cusp_family_operator("P4", -3.0),
                              parse_cone("one_pos"), 1e-12)
    checks["cusp_pair_violated"] = rep.verdict == PROPAGATION_VIOLATED
    checks["cusp_component_is_r0_only"] = (
        rep.components == [[250]] and float(rr[250]) == 2.0
    )

    F = OperatorSpec.quad_const(1.0, 0.7)
    U = ConeSpec.posdef()
    rng = np.random.default_rng(77)
    xs = np.linspace(0.0, 1.0, 64)
    consistent = True
    for _ in range(20):
        v = GridFn(((0.0, 1.0),), rng.normal(size=64))
        gap = rng.uniform(0.2, 2.0) * xs * (np.cos(rng.uniform(0.0, 1.0) * xs) + 1.1)
        pair = touching_experiment(GridFn(((0.0, 1.0),), v.values + gap), v, F, U, 1e-12)
        consistent &= pair.verdict == PROPAGATION_CONSISTENT
    checks["twenty_conforming_pairs_consistent"] = consistent

    w_o = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
    v_o = FieldOracle.log_singular(1.0, 0.0, 0.0, 3)
    trace_op = OperatorSpec.quad_const(1.0, 0.0)
    trace_cone = parse_cone("trace")
    gaps = []
    for rmin in (1e-1, 1e-2, 1e-3):
        rs = np.linspace(rmin, 1.0, 801)
        wvals = np.array([w_o.value(np.array([r, 0.0, 0.0])) for r in rs])
        vvals = np.array([v_o.value(np.array([r, 0.0, 0.0])) for r in rs])
        rep = touching_experiment(GridFn(((rmin, 1.0),), wvals),
                                  GridFn(((rmin, 1.0),), vvals),
                                  trace_op, trace_cone, 1e-9)
        checks[f"punctured_pair_consistent_rmin_{rmin:g}"] = (
            rep.verdict == PROPAGATION_CONSISTENT
        )
        gaps.append(rep.min_gap)
    checks["punctured_gap_shrinks_to_zero"] = (
        gaps[0] > gaps[1] > gaps[2] and gaps[2] < 1.1e-3
    )

    _report(7, "touching propagation", checks)


def test_criterion_8_moving_spheres():
    rng = np.random.default_rng(88)
    dirs = []
    while len(dirs) < 3:
        z = rng.normal(size=3)
        if float(np.linalg.norm(z)) > 1e-8:
            dirs.append(z / float(np.linalg.norm(z)))
    centers = [np.zeros(3), 0.5 * np.eye(3)[0], 0.25 * dirs[0], 0.5 * dirs[1],
               0.35 * dirs[2]]
    # admissible radii stop at the computed start radius (0.2 for this field)
    report = moving_sphere_check(FieldOracle.bubble(3), 3, centers,
                                 [0.05, 0.1, 0.15, 0.199], tol=1e-8, seed=88)
    checks = {
        "start_radius_near_0.2": abs(report.start_radius - 0.2) < 1e-6,
        "all_20_trials": len(report.trials) == len(centers) * 4,
        "inverted_below_plus_1e-8": all(t.max_excess <= 1e-8 for t in report.trials),
        "equality_on_sphere": all(t.sphere_gap <= 1e-12 for t in report.trials),
        "outer_shell_estimate": all(t.boundary_excess <= 1e-8 for t in report.trials),
    }
    _report(8, "moving spheres", checks,
            f"start radius {report.start_radius:.6g}")
