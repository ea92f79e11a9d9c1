"""Jet/grid verification, perturbations, envelopes, touching, moving spheres."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conedeg import viscosity
from conedeg.envelopes import GridFn, dyadic_w, lower_envelope, upper_envelope
from conedeg.matcone import (ConeClass, ConeSpec, SymMatrix, _margin_class, classify, cone_margin, eigen_sym,
                             parse_cone)
from conedeg.operators import (
    FieldOracle,
    Jet2,
    OperatorSpec,
    eval_F,
    eval_L,
    example_varying_quad,
    parse_operator,
)
from conedeg.perron import box_sandwich_problem, radial_sandwich_problem
from conedeg.radial import RadialProfile, build_counterexample, cusp_pair_values
from conedeg.viscosity import (
    PROPAGATION_CONSISTENT,
    PROPAGATION_VIOLATED,
    MovingSphereReport,
    PerturbationParams,
    _A_CAP,
    _first_variation,
    envelope_error_check,
    first_variation_constants,
    first_variation_hat,
    first_variation_tilde,
    grid_verify,
    jet_classify,
    moving_sphere_check,
    touching_experiment,
    verify_rows_csv,
)


def _jet(x, s, p, H) -> Jet2:
    return Jet2(np.asarray(x, dtype=float), s, np.asarray(p, dtype=float),
                SymMatrix.from_dense(np.asarray(H, dtype=float)))


def _radial_jet(r, s, d, dd, n=3) -> Jet2:
    x = np.zeros(n)
    x[0] = r
    p = np.zeros(n)
    p[0] = d
    diag = np.full(n, d / r)
    diag[0] = dd
    return _jet(x, s, p, np.diag(diag))


def _sampled(f, box, shape) -> GridFn:
    """f on the linspace grid of box, one call per node (f(x) or f(x, y))."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape)]
    if len(shape) == 1:
        return GridFn(tuple(box), np.array([f(x) for x in axes[0]]))
    return GridFn(tuple(box), np.array([[f(x, y) for y in axes[1]] for x in axes[0]]))


@pytest.fixture(scope="module")
def tanh_params() -> PerturbationParams:
    return first_variation_constants(example_varying_quad(), M=1.0, R=1.0)


# ---------------------------------------------------------------------------
# jet classification


def test_jet_classify_constant_field():
    j = _jet(np.zeros(3), 0.7, np.zeros(3), np.zeros((3, 3)))
    cls, margin = jet_classify(j, OperatorSpec.quad_const(2.0, 1.0), parse_cone("gamma_k:2"))
    assert cls is ConeClass.BOUNDARY
    assert margin == pytest.approx(0.0, abs=1e-15)


def test_jet_classify_identity_hessian():
    j = _jet(np.zeros(3), 0.0, np.zeros(3), np.eye(3))
    cls, _ = jet_classify(j, OperatorSpec.quad_const(0.0, 0.0), parse_cone("gamma_k:3"))
    assert cls is ConeClass.INTERIOR


def test_jet_classify_lipschitz_boundary_profile():
    # the gradient-power profile sits exactly on the one-positive boundary
    prof = RadialProfile.boundary_lip(3.0)
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -(t**3.0), name="cube")
    for r in (1.2, 1.5, 1.9):
        j = _radial_jet(r, prof.psi(r), prof.dpsi(r), prof.ddpsi(r))
        cls, _ = jet_classify(j, op, parse_cone("one_pos"))
        assert cls is ConeClass.BOUNDARY


def test_jet_classify_tol_validation():
    j = _jet(np.zeros(3), 0.0, np.zeros(3), np.eye(3))
    with pytest.raises(ValueError):
        jet_classify(j, OperatorSpec.conformal(), parse_cone("posdef"), tol=0.0)


def test_jet_classify_monotone_under_hessian_increase():
    rng = np.random.default_rng(3)
    F = OperatorSpec.quad_const(1.0, 0.5)
    cones = [parse_cone(c) for c in ("posdef", "trace", "one_pos", "gamma_k:2")]
    for _ in range(100):
        A = rng.normal(size=(3, 3))
        H = 0.5 * (A + A.T)
        j = _jet(rng.uniform(-1, 1, 3), rng.uniform(-1, 1), rng.uniform(-3, 3, 3), H)
        B = rng.normal(size=(3, 3))
        j2 = _jet(j.x, j.s, j.p, H + B @ B.T + 1e-6 * np.eye(3))
        for cone in cones:
            c1, _ = jet_classify(j, F, cone)
            c2, _ = jet_classify(j2, F, cone)
            assert c2.value >= c1.value


# ---------------------------------------------------------------------------
# grid verification


def test_grid_verify_singular_log_solution():
    oracle = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
    rs = np.linspace(0.5, 1.0, 401)
    g = GridFn(((0.5, 1.0),), np.array([oracle.value(np.array([r, 0, 0])) for r in rs]))
    rep = grid_verify(g, OperatorSpec.quad_const(1.0, 0.0), parse_cone("trace"), ambient_n=3)
    assert rep.consistent_solution
    assert rep.counts["BOUNDARY"] == 399
    assert not rep.skipped


def test_grid_verify_quadratic_bowl_interior():
    g = _sampled(lambda x, y: 0.5 * (x * x + y * y), ((-1, 1), (-1, 1)), (33, 33))
    rep = grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), ConeSpec("gamma_k", k=2, n=2))
    assert rep.counts["INTERIOR"] == 31 * 31
    assert rep.consistent_sub
    assert not rep.consistent_super
    assert rep.super_failures


def test_grid_verify_refuses_a_cone_order_above_the_matrix_dimension():
    # a 2D field against gamma_4 gave a report labelled gamma_k:4 that held
    # gamma_2 margins
    g = _sampled(lambda x, y: 0.5 * (x * x + y * y), ((-1, 1), (-1, 1)), (9, 9))
    with pytest.raises(ValueError, match="k=4 exceeds"):
        grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), ConeSpec.gamma(4))


def test_grid_verify_holder_pair_are_solutions():
    # the sublinear-gradient equation admits both the zero function and the
    # bent power profile; their sampled traces vanish at grid accuracy
    prof = RadialProfile.holder_solution(0.5, 3)
    op = OperatorSpec.rot_inv(
        lambda t: 0.0, lambda t: -(np.maximum(t, 0.0) ** 0.5) / 3.0, name="holder"
    )
    rs = np.linspace(0.25, 1.0, 501)
    g = GridFn(((0.25, 1.0),), np.array([prof.psi(float(r)) for r in rs]))
    rep = grid_verify(g, op, parse_cone("trace"), ambient_n=3)
    assert rep.consistent_solution
    zero = GridFn.constant(0.0, ((0.25, 1.0),), (501,))
    rep0 = grid_verify(zero, op, parse_cone("trace"), ambient_n=3)
    assert rep0.consistent_solution


def test_grid_verify_concave_profile_super_only():
    g = _sampled(lambda x: -0.5 * x * x, ((-1, 1),), (101,))
    rep = grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"))
    assert rep.consistent_super
    assert not rep.consistent_sub
    assert rep.sub_failures


def test_grid_verify_masked_interior_skipped():
    vals = np.zeros(51)
    vals[20] = np.inf
    g = GridFn(((-1.0, 1.0),), vals)
    rep = grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"))
    assert rep.skipped == [19, 20, 21]
    assert len(rep.rows) == 49 - 3


def test_grid_verify_radial_needs_positive_radii():
    g = GridFn.constant(0.0, ((-0.5, 1.0),), (11,))
    with pytest.raises(ValueError):
        grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), ambient_n=3)
    plane = GridFn.constant(0.0, ((0.0, 1.0), (0.0, 1.0)), (5, 5))
    with pytest.raises(ValueError, match="2D grids carry 2D jets"):
        grid_verify(plane, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), ambient_n=3)
    with pytest.raises(ValueError, match="ambient_n must be >= 1"):
        grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), ambient_n=0)


def _replay_jets(g: GridFn, ambient_n) -> list:
    """(node, Jet2) per interior node, one at a time; None where the stencil is masked."""
    vals = g.values
    jets = []
    if g.dim == 1:
        xs, h = g.axis_nodes(0), g.h[0]
        for i in range(1, len(xs) - 1):
            if not np.all(np.isfinite(vals[i - 1 : i + 2])):
                jets.append((i, None))
                continue
            d = float(vals[i + 1] - vals[i - 1]) / (2.0 * h)
            dd = float(vals[i + 1] - 2.0 * vals[i] + vals[i - 1]) / (h * h)
            if ambient_n:
                jets.append((i, _radial_jet(float(xs[i]), float(vals[i]), d, dd, ambient_n)))
            else:
                jets.append((i, _jet([xs[i]], float(vals[i]), [d], [[dd]])))
    else:
        (hx, hy), (n1, n2) = g.h, g.shape
        xs, ys = g.axis_nodes(0), g.axis_nodes(1)
        for i in range(1, n1 - 1):
            for k in range(1, n2 - 1):
                if not np.all(np.isfinite(vals[i - 1 : i + 2, k - 1 : k + 2])):
                    jets.append((i * n2 + k, None))
                    continue
                px = float(vals[i + 1, k] - vals[i - 1, k]) / (2.0 * hx)
                py = float(vals[i, k + 1] - vals[i, k - 1]) / (2.0 * hy)
                hxx = float(vals[i + 1, k] - 2.0 * vals[i, k] + vals[i - 1, k]) / (hx * hx)
                hyy = float(vals[i, k + 1] - 2.0 * vals[i, k] + vals[i, k - 1]) / (hy * hy)
                hxy = float(
                    vals[i + 1, k + 1] - vals[i + 1, k - 1] - vals[i - 1, k + 1] + vals[i - 1, k - 1]
                ) / (4.0 * hx * hy)
                jets.append((i * n2 + k, _jet([xs[i], ys[k]], float(vals[i, k]), [px, py],
                                              [[hxx, hxy], [hxy, hyy]])))
    return jets


def _class_of_margin(margin: float, tol: float) -> ConeClass:
    """The verdict for one margin: INTERIOR above tol, OUTSIDE below -tol."""
    if margin > tol:
        return ConeClass.INTERIOR
    if margin < -tol:
        return ConeClass.OUTSIDE
    return ConeClass.BOUNDARY


def test_margin_class_array_rule_at_the_band_edges():
    tol = 1e-6
    up, down = np.nextafter(tol, np.inf), np.nextafter(-tol, -np.inf)
    margins = np.array([0.0, -0.0, tol, -tol, up, down, np.inf, -np.inf, np.nan])
    B, I, O = ConeClass.BOUNDARY, ConeClass.INTERIOR, ConeClass.OUTSIDE
    want = [B, B, B, B, I, O, I, O, B]
    assert _margin_class(margins, tol).tolist() == [c.value for c in want]
    assert [_class_of_margin(m, tol) for m in margins.tolist()] == want


def _replay_grid_verify(g: GridFn, F: OperatorSpec, U: ConeSpec, tol: float, ambient_n):
    """grid_verify one node at a time: a Jet2 per interior node, its margin
    from jet_classify and its class from _class_of_margin."""
    heff = max(g.h)
    tol_eff = tol + 4.0 * heff * heff
    rows, skipped, sub, sup = [], [], [], []
    for idx, jet in _replay_jets(g, ambient_n):
        if jet is None:
            skipped.append(idx)
            continue
        _, margin = jet_classify(jet, F, U, tol_eff)
        rows.append((idx, _class_of_margin(margin, tol_eff), margin))
        if margin < -tol_eff:
            sub.append(idx)
        if margin > tol_eff:
            sup.append(idx)
    return rows, skipped, sub, sup


_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

_REPLAY_OPERATORS = ("quad:1:0", "quad:-0.5:0.75", "conformal", "genL:tanh_quad",
                     "genL:cubic_mix", "rotinv:pow(0.5,1.5):neg_t")


@st.composite
def _sampled_fields(draw, layout: str):
    """A 1D, radial (read in 3 dimensions) or 2D grid with unequal spacing,
    values of mixed scale and some nodes masked by +-inf."""
    shape = (draw(st.integers(3, 12)),) if layout != "2d" else (
        draw(st.integers(3, 9)), draw(st.integers(3, 9)))
    lo = draw(st.floats(0.1, 1.0))
    box = tuple((lo, lo + draw(st.floats(0.2, 3.0))) for _ in shape)
    vals = draw(hnp.arrays(np.float64, shape, elements=st.floats(-2.0, 2.0, width=32)))
    vals = vals * draw(st.sampled_from((1e-3, 1.0, 30.0)))
    masked = draw(hnp.arrays(np.bool_, shape, elements=st.sampled_from((False, False, False, True))))
    masked.flat[0] = False  # a grid needs one finite value
    vals[masked] = draw(st.sampled_from((np.inf, -np.inf)))
    return GridFn(box, vals)


@pytest.mark.parametrize("layout", ["1d", "radial", "2d"])
@_PROPERTY
@given(data=st.data(), op=st.sampled_from(_REPLAY_OPERATORS), pick=st.integers(0, 50))
def test_stacked_grid_verify_matches_per_node_replay_property(layout, data, op, pick):
    g = data.draw(_sampled_fields(layout))
    ambient_n = 3 if layout == "radial" else None
    n = ambient_n or g.dim
    cones = ["trace", "posdef", "one_pos", "neg:trace"]
    cones += [f"gamma_k:{k}" for k in range(1, n + 1)] + [f"neg_gamma_c:{k}" for k in range(1, n + 1)]
    F, U = parse_operator(op), parse_cone(cones[pick % len(cones)])
    rep = grid_verify(g, F, U, tol=1e-6, ambient_n=ambient_n)
    rows, skipped, sub, sup = _replay_grid_verify(g, F, U, 1e-6, ambient_n)
    # bitwise: float.hex tells -0.0 from 0.0 and every last bit
    assert [(idx, ConeClass(cls), margin.hex()) for idx, cls, margin in rep.rows.tolist()] == [
        (idx, cls, margin.hex()) for idx, cls, margin in rows
    ]
    assert (rep.skipped, rep.sub_failures, rep.super_failures) == (skipped, sub, sup)


def _pinned_verify_fields() -> list:
    """(field, ambient_n) pairs whose grid_verify rows are pinned by digest."""
    rng = np.random.default_rng(12)
    radial, _ = radial_sandwich_problem(41)
    box, _ = box_sandwich_problem(17)
    masked = rng.normal(size=(30, 30))
    masked[rng.random((30, 30)) < 0.08] = np.inf
    masked[12:15, 4:7] = -np.inf
    return [
        (radial.sup, 3), (radial.sub, 3), (box.sup, None), (box.sub, None),
        (GridFn(((0.0, 1.0),), rng.normal(size=40)), None),
        (GridFn(((0.0, 1.0), (-0.5, 0.5)), rng.normal(size=(23, 17))), None),
        (GridFn(((-1.0, 1.0), (-1.0, 1.0)), masked), None),
    ]


# sha256 of the rows below as the verifier wrote them before the solver came
# to share its centered-difference jet; any change of stencil rounding moves it
_VERIFY_DIGEST = "a71d557b5c3b1d2642745e634931254e08a1a841a7aa69e054899e6e169d308e"


def test_grid_verify_rows_pinned_by_digest():
    digest = hashlib.sha256()
    for g, ambient_n in _pinned_verify_fields():
        for op in ("quad:1:0.3", "genL:tanh_quad", "conformal"):
            for U in (ConeSpec("trace"), ConeSpec.posdef()):
                rep = grid_verify(g, parse_operator(op), U, ambient_n=ambient_n)
                for idx, cls, margin in rep.rows.tolist():
                    digest.update(f"{idx},{ConeClass(cls).name},{margin.hex()};".encode())
                digest.update(f"|{rep.skipped}\n".encode())
    assert digest.hexdigest() == _VERIFY_DIGEST


def test_verify_rows_csv_shape():
    g = _sampled(lambda x: x * x, ((-1, 1),), (21,))
    rep = grid_verify(g, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"))
    lines = verify_rows_csv(rep).strip().split("\n")
    assert lines[0] == "node_index,class,margin"
    assert len(lines) == 20
    assert lines[1].split(",")[1] == "INTERIOR"


# sha256 of verify_rows_csv over the pinned fields (quad:1:0.3, trace cone),
# taken while the rows were still one object per node
_VERIFY_CSV_DIGEST = "0f16883720d9a5bdb9f134cd8c3ac5c79c38cca85175d58b88230be1127b215e"


def test_verify_rows_csv_pinned_by_digest():
    digest = hashlib.sha256()
    for g, ambient_n in _pinned_verify_fields():
        rep = grid_verify(g, parse_operator("quad:1:0.3"), ConeSpec("trace"), ambient_n=ambient_n)
        digest.update(verify_rows_csv(rep).encode())
    assert digest.hexdigest() == _VERIFY_CSV_DIGEST


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", ["grid_verify", "jet_classify", "classify", "envelope_error_check",
                                   "touching_experiment", "moving_sphere_check"])
def test_verifiers_reject_a_tolerance_that_is_not_positive_and_finite(entry, tol):
    g = _sampled(lambda x: 5.0 * x * x, ((-1, 1),), (21,))
    F, U = OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace")
    calls = {
        "grid_verify": lambda: grid_verify(g, F, U, tol=tol),
        "jet_classify": lambda: jet_classify(_jet([0.0], 0.0, [0.0], [[1.0]]), F, U, tol=tol),
        "classify": lambda: classify(SymMatrix.eye(3), U, tol=tol),
        "envelope_error_check": lambda: envelope_error_check(g, 1e-2, F, U, 5.0, tol=tol),
        "touching_experiment": lambda: touching_experiment(g, g, tol),
        "moving_sphere_check": lambda: moving_sphere_check(FieldOracle.constant(3.0, 3), 3,
                                                           [np.zeros(3)], [0.1], tol=tol),
    }
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        calls[entry]()


# ---------------------------------------------------------------------------
# perturbation constants


def test_perturbation_params_validation():
    with pytest.raises(ValueError):
        PerturbationParams(mu=0.0, tau=0.0, alpha=1.0, beta=1.0, delta=1.0, K0=1.0, m=2.0, M=1.0)
    with pytest.raises(ValueError):
        PerturbationParams(mu=1e-3, tau=0.0, alpha=1.0, beta=1.0, delta=1.0, K0=1.0, m=1.0, M=1.0)
    with pytest.raises(ValueError):
        # normalization: mu beta e^{beta M} must stay <= 1/2
        PerturbationParams(mu=0.5, tau=0.0, alpha=1.0, beta=4.0, delta=1.0, K0=1.0, m=2.0, M=1.0)


def test_constants_cascade_structure(tanh_params):
    P = tanh_params
    for val in (P.mu, P.alpha, P.beta / 2.0, P.delta, P.K0):
        assert math.log2(val) == int(math.log2(val))  # dyadic by construction
    assert P.tau == 0.0
    assert P.beta >= 4.0
    assert P.mu * P.beta * math.exp(P.beta * P.M) <= 0.5
    inf_fp = P.beta * math.exp(-P.beta * P.M)
    assert P.K0 <= min(P.alpha, inf_fp / (P.beta / 2.0), 0.5 * P.beta * inf_fp)


def test_constants_cascade_rejects_bad_box():
    with pytest.raises(ValueError):
        first_variation_constants(example_varying_quad(), M=0.0, R=1.0)


def test_constants_cascade_rejects_an_overflowing_value_bound():
    # beta e^(beta M) leaves the float range at M = 400: a ValueError
    # naming M, not an OverflowError
    with pytest.raises(ValueError, match="M = 400"):
        first_variation_constants(example_varying_quad(), M=400.0, R=1.0)


@pytest.mark.parametrize("M,R", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0), (1.0, math.nan)])
def test_constants_cascade_rejects_non_finite_box_bounds(M, R):
    # an infinite R reached the probe's uniform draw and a NaN passed the
    # positivity test
    with pytest.raises(ValueError, match="positive finite working-box bounds"):
        first_variation_constants(example_varying_quad(), M=M, R=R)


def test_constants_cascade_skips_an_overflowing_weight_size():
    # e^(a R^2) overflows for the first candidate a = 2^6 at R = 4; the
    # cascade moves on to smaller sizes, which meet the bound
    P = first_variation_constants(example_varying_quad(), M=1.0, R=4.0)
    C = P.beta / 2.0
    inf_fp = P.beta * math.exp(-P.beta * P.M)
    assert P.alpha < 2.0**6
    assert P.alpha * math.exp(P.alpha * 16.0) * (1.0 / inf_fp + 1.0) <= 1.0 / C


def test_constants_cascade_rejects_an_unsettled_C(monkeypatch):
    # a coercivity fit that always asks for C = Lambda = 8 C: the cascade
    # never settles, and its last probe ran at the previous C's Lambda
    real = viscosity.probe_L_conditions
    lambdas = []

    def growing(F, *, R, Lambda, **kw):
        lambdas.append(Lambda)
        report = real(F, R=R, Lambda=Lambda, **kw)
        report.radial_coercive = dataclasses.replace(report.radial_coercive, fitted_C=Lambda)
        return report

    monkeypatch.setattr(viscosity, "probe_L_conditions", growing)
    with pytest.raises(ValueError, match="did not settle"):
        first_variation_constants(example_varying_quad(), M=1.0, R=1.0, samples=20)
    assert lambdas == [16.0 * 8.0**k for k in range(6)]


def test_constants_cascade_probes_the_value_range_of_its_gap_test(monkeypatch):
    # the gap inequalities are used on |s| <= M, and the probe's R bounds the
    # sampled values: the cascade passed the x radius R there instead
    real = viscosity.probe_L_conditions
    value_bounds = []

    def recording(F, *, R, **kw):
        value_bounds.append(R)
        return real(F, R=R, **kw)

    monkeypatch.setattr(viscosity, "probe_L_conditions", recording)
    first_variation_constants(example_varying_quad(), M=2.0, R=1.0, samples=20)
    assert value_bounds and set(value_bounds) == {2.0}


def test_tilde_gap_psd_on_random_jets(tanh_params):
    F = example_varying_quad()
    rng = np.random.default_rng(12345)
    worst = math.inf
    for _ in range(300):
        x = rng.uniform(-0.577, 0.577, 3)
        p = rng.uniform(-1, 1, 3)
        p *= rng.uniform(0, 10) / max(1e-12, float(np.linalg.norm(p)))
        A = rng.normal(size=(3, 3))
        j = _jet(x, rng.uniform(-1, 1), p, 0.5 * (A + A.T) * rng.uniform(0, 5))
        _, gap = first_variation_tilde(j, tanh_params, F)
        worst = min(worst, eigen_sym(gap).min())
    assert worst >= -1e-10


def test_hat_gap_psd_on_random_jets(tanh_params):
    F = example_varying_quad()
    rng = np.random.default_rng(54321)
    worst = math.inf
    for _ in range(300):
        x = rng.uniform(-0.577, 0.577, 3)
        p = rng.uniform(-1, 1, 3)
        p *= rng.uniform(0, 10) / max(1e-12, float(np.linalg.norm(p)))
        A = rng.normal(size=(3, 3))
        j = _jet(x, rng.uniform(-1, 1), p, 0.5 * (A + A.T) * rng.uniform(0, 5))
        _, gap = first_variation_hat(j, tanh_params, F)
        worst = min(worst, eigen_sym(gap).min())
    assert worst >= -1e-10


def test_tilde_gap_at_origin_jet(tanh_params):
    # p = 0, H = 0: the quadratic weight term alone must beat K0
    F = example_varying_quad()
    j = _jet([0.3, -0.2, 0.1], 0.4, np.zeros(3), np.zeros((3, 3)))
    jt, gap = first_variation_tilde(j, tanh_params, F)
    assert eigen_sym(gap).min() >= 0.0
    assert jt.s > j.s  # the perturbation pushes values up


def test_hat_moves_values_down(tanh_params):
    F = example_varying_quad()
    j = _jet([0.1, 0.0, -0.2], -0.3, [1.0, 0.0, 0.0], np.zeros((3, 3)))
    jh, gap = first_variation_hat(j, tanh_params, F)
    assert jh.s < j.s
    assert eigen_sym(gap).min() >= -1e-12


def test_tilde_richardson_mu_scaling(tanh_params):
    # at p = 0, H = 0 the gap is linear in mu to leading order
    F = example_varying_quad()
    j = _jet([0.3, -0.2, 0.1], 0.4, np.zeros(3), np.zeros((3, 3)))
    mu = tanh_params.mu / 64.0
    _, g1 = first_variation_tilde(j, dataclasses.replace(tanh_params, mu=mu), F)
    _, g2 = first_variation_tilde(j, dataclasses.replace(tanh_params, mu=2 * mu), F)
    resid = np.linalg.norm(g2.dense() - 2.0 * g1.dense()) / np.linalg.norm(g1.dense())
    assert resid < 1e-6


def test_tilde_gap_vanishes_with_mu(tanh_params):
    # the gap is O(mu): shrinking mu by 1e4 shrinks it by the same factor
    F = example_varying_quad()
    j = _jet([0.2, 0.1, 0.0], 0.5, [2.0, -1.0, 0.5], np.eye(3))
    _, g1 = first_variation_tilde(j, dataclasses.replace(tanh_params, mu=tanh_params.mu * 1e-2), F)
    _, g2 = first_variation_tilde(j, dataclasses.replace(tanh_params, mu=tanh_params.mu * 1e-6), F)
    frob1, frob2 = (float(np.linalg.norm(g.dense())) for g in (g1, g2))
    assert frob2 <= 2e-4 * frob1
    assert frob2 <= 1e-6


def test_working_set_precondition(tanh_params):
    F = example_varying_quad()
    j = _jet(np.zeros(3), 5.0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        first_variation_tilde(j, tanh_params, F)
    with pytest.raises(ValueError):
        first_variation_hat(j, tanh_params, F)
    # a large tau pushes the profile below -delta
    bad_tau = PerturbationParams(
        tanh_params.mu, 50.0, tanh_params.alpha, tanh_params.beta,
        tanh_params.delta, tanh_params.K0, tanh_params.m, tanh_params.M,
    )
    j2 = _jet(np.zeros(3), 0.0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        first_variation_tilde(j2, bad_tau, F)


def _loop_first_variation(j, P, F, sign):
    """(perturbed jet, gap) built one jet at a time, as the per-jet path did."""
    phi = math.exp(P.alpha * float(j.x @ j.x))
    es = math.exp(-P.beta * j.s)
    g = phi + es - P.tau
    dg = 2.0 * P.alpha * phi * j.x - P.beta * es * j.p
    ddg = (
        phi * (2.0 * P.alpha * np.eye(j.n) + 4.0 * P.alpha**2 * np.outer(j.x, j.x))
        - P.beta * es * j.H.dense()
        + P.beta**2 * es * np.outer(j.p, j.p)
    )
    if abs(j.s) > P.M or g < -P.delta:
        raise ValueError("jet outside the working set")
    pn = float(np.linalg.norm(j.p))
    bonus = P.mu * P.K0 * ((1.0 + pn**P.m) * np.eye(j.n) + np.outer(j.p, j.p))
    base = eval_F(j, F).dense()
    if sign > 0:
        jt = Jet2(j.x, j.s + P.mu * g, j.p + P.mu * dg, SymMatrix.from_dense(j.H.dense() + P.mu * ddg))
        gap = eval_F(jt, F).dense() - (1.0 - P.mu * P.beta * es) * base - bonus
    else:
        jt = Jet2(j.x, j.s - P.mu * g, j.p - P.mu * dg, SymMatrix.from_dense(j.H.dense() - P.mu * ddg))
        gap = (1.0 + P.mu * P.beta * es) * base - bonus - eval_F(jt, F).dense()
    return jt, SymMatrix.from_dense(gap)


def _hex(a) -> list[str]:
    return [float(v).hex() for v in np.ravel(a).tolist()]


_FV_OPERATORS = ["genL:tanh_quad", "conformal", "quad:2:-1", "rotinv:pow(1,2):neg_t", "genL:cubic_mix"]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    n=st.integers(1, 4),
    op=st.sampled_from(_FV_OPERATORS),
)
def test_stacked_first_variation_matches_per_jet_replay_property(tanh_params, seed, m, n, op):
    P, F = tanh_params, parse_operator(op)
    rng = np.random.default_rng(seed)
    x = rng.uniform(-0.577, 0.577, (m, n))
    s = rng.uniform(-P.M, P.M, m)
    p = rng.normal(size=(m, n)) * 10.0 ** rng.uniform(-3.0, 1.0, (m, 1))
    p[rng.random(m) < 0.2] = 0.0  # some flat jets
    a = rng.normal(size=(m, n, n))
    H = 0.5 * (a + np.swapaxes(a, 1, 2)) * rng.uniform(0.0, 5.0, (m, 1, 1))
    for sign, lone in ((1, first_variation_tilde), (-1, first_variation_hat)):
        s2, p2, H2, gap = _first_variation(x, s, p, H, P, F, sign)
        for i in range(m):
            j = _jet(x[i], s[i], p[i], H[i])
            jt, want = _loop_first_variation(j, P, F, sign)
            got = (s2[i], p2[i], H2[i], gap[i])
            assert [_hex(v) for v in got] == [_hex(v) for v in (jt.s, jt.p, jt.H.dense(), want.dense())]
            # the public one-jet call is the same row
            jl, gl = lone(j, P, F)
            assert [_hex(v) for v in (jl.s, jl.p, jl.H.dense(), gl.dense())] == [_hex(v) for v in got]
    # one row outside the working set fails the whole batch
    s_bad = s.copy()
    s_bad[rng.integers(m)] = 1.5 * P.M
    for sign in (1, -1):
        with pytest.raises(ValueError, match="working set"):
            _first_variation(x, s_bad, p, H, P, F, sign)


def _nan_across(r: float, sign: int):
    """A general L (tanh_quad's) that is NaN on the side of |p| = r the sign's
    step moves toward at x = 0: beyond r for sign=-1, inside r for sign=+1."""
    F = example_varying_quad()

    def L_fn(x, s, p):
        out = eval_L(F, x, s, p)
        far = sign * (np.linalg.norm(p, axis=-1) - r) < 0.0
        out[..., 0, 0][far] = math.nan
        return out

    return OperatorSpec.general_l(L_fn, m=2.0, name="nan_across")


@pytest.mark.parametrize("sign, lone", [(1, first_variation_tilde), (-1, first_variation_hat)])
def test_first_variation_rejects_a_non_finite_gap(tanh_params, sign, lone):
    # at x = 0 the step scales p by 1 - sign mu beta e^{-beta s}: the jet's L
    # is finite, the perturbed jet's NaN, so only the gap is not finite
    P, r, s = tanh_params, 100.0, 0.25
    p0 = r / (1.0 - 0.5 * sign * P.mu * P.beta * math.exp(-P.beta * s))
    F = _nan_across(r, sign)
    x, p, H = np.zeros((1, 3)), np.array([[p0, 0.0, 0.0]]), np.eye(3)[None]
    assert np.isfinite(eval_L(F, x, np.array([s]), p)).all()
    with pytest.raises(ValueError, match="finite"):
        _first_variation(x, np.array([s]), p, H, P, F, sign)
    with pytest.raises(ValueError, match="finite"):
        lone(_jet(x[0], s, p[0], H[0]), P, F)


def test_first_variation_rejects_an_asymmetric_or_nan_hessian(tanh_params):
    P, F = tanh_params, example_varying_quad()
    x, s, p = np.zeros((1, 3)), np.array([0.25]), np.ones((1, 3))
    skew = np.eye(3)
    skew[0, 1] = 1e-3
    nan = np.eye(3)
    nan[2, 2] = math.nan
    for sign, lone in ((1, first_variation_tilde), (-1, first_variation_hat)):
        with pytest.raises(ValueError, match="not symmetric"):
            _first_variation(x, s, p, skew[None], P, F, sign)
        with pytest.raises(ValueError, match="finite"):
            _first_variation(x, s, p, nan[None], P, F, sign)
        # SymMatrix itself checks only finiteness: the jet's H reaches the check
        with pytest.raises(ValueError, match="not symmetric"):
            lone(Jet2(x[0], 0.25, p[0], SymMatrix(skew)), P, F)


# ---------------------------------------------------------------------------
# envelope error bound


def test_envelope_error_smooth_supersolution():
    g = _sampled(lambda x: -0.5 * x * x, ((-1, 1),), (201,))
    rep = envelope_error_check(g, 1e-2, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), 1.0)
    assert rep.ok
    assert rep.fitted_a == 0.0
    assert rep.checked + rep.edge_attained == 199
    assert rep.skipped == 0


def test_envelope_error_smooth_subsolution_mirror():
    g = _sampled(lambda x: 0.5 * x * x, ((-1, 1),), (201,))
    rep = envelope_error_check(
        g, 1e-2, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), 1.0, side="sub"
    )
    assert rep.ok
    assert rep.fitted_a == 0.0


def test_envelope_error_annulus_eps_sweep_bounded():
    oracle = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
    rs = np.linspace(0.5, 1.0, 401)
    g = GridFn(((0.5, 1.0),), np.array([oracle.value(np.array([r, 0, 0])) for r in rs]))
    fitted = []
    for eps in (1e-2, 1e-3, 1e-4):
        rep = envelope_error_check(
            g, eps, OperatorSpec.quad_const(1.0, 0.0), parse_cone("trace"), 2.0, ambient_n=3
        )
        assert rep.ok
        fitted.append(rep.fitted_a)
    assert max(fitted) <= 1.0


def test_envelope_error_fitted_a_nonincreasing_under_refinement():
    oracle = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
    prev = math.inf
    for npts in (201, 401, 801):
        rs = np.linspace(0.5, 1.0, npts)
        g = GridFn(((0.5, 1.0),), np.array([oracle.value(np.array([r, 0, 0])) for r in rs]))
        rep = envelope_error_check(
            g, 1e-2, OperatorSpec.quad_const(1.0, 0.0), parse_cone("trace"), 2.0, ambient_n=3
        )
        assert rep.ok
        assert rep.fitted_a <= prev + 1e-12
        prev = rep.fitted_a


def test_envelope_error_dyadic_report():
    xs = np.linspace(-1.0, 1.0, 513)
    g = GridFn(((-1.0, 1.0),), np.array([dyadic_w(float(x)) for x in xs]))
    rep = envelope_error_check(g, 1e-3, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), 1.0)
    assert rep.checked + rep.edge_attained == 511
    assert rep.skipped == 0
    assert len(rep.rows)


def test_envelope_error_fits_positive_a_when_needed():
    # a convex bowl checked as a supersolution: contact nodes violate with
    # no workable a, displaced nodes get a finite positive requirement
    g = _sampled(lambda x: 0.5 * x * x, ((-1, 1),), (201,))
    rep = envelope_error_check(g, 5e-2, OperatorSpec.quad_const(0.0, 0.0), parse_cone("trace"), 1.0)
    assert not rep.ok
    a_req = rep.rows["a_required"]
    assert np.isinf(a_req).any()
    assert ((0.0 < a_req) & (a_req < math.inf)).any()
    assert rep.fitted_a > 0.0


def test_envelope_error_validation():
    g = _sampled(lambda x: math.sin(x), ((-1, 1),), (51,))
    F = OperatorSpec.quad_const(0.0, 0.0)
    with pytest.raises(ValueError):
        envelope_error_check(g, 1e-2, F, parse_cone("trace"), 0.5)  # |w| can reach 0.84
    with pytest.raises(ValueError):
        envelope_error_check(g, 1e-2, F, parse_cone("trace"), 1.0, side="above")


def _replay_envelope_error_check(w: GridFn, eps, F, U, M, side, tol, ambient_n):
    """envelope_error_check one node at a time: per-node penalty doubling and
    bisection on each node's own eval_F spectrum."""
    res = lower_envelope(w, eps) if side == "super" else upper_envelope(w, eps)
    heff = max(w.h)
    tol_eff = tol + 4.0 * heff * heff
    coords = res.env.node_coords()
    argpt = res.argpt.ravel()
    on_edge = np.zeros(w.shape, dtype=bool)
    for axis in range(w.dim):
        on_edge[(slice(None),) * axis + (0,)] = True
        on_edge[(slice(None),) * axis + (-1,)] = True
    on_edge = on_edge.ravel()
    want_out = side == "super"
    out = {"fitted_a": 0.0, "checked": 0, "skipped": 0, "edge_attained": 0,
           "violations": [], "rows": []}
    for idx, jet in _replay_jets(res.env, ambient_n):
        if jet is None:
            out["skipped"] += 1
            continue
        if on_edge[argpt[idx]]:
            out["edge_attained"] += 1
            continue
        out["checked"] += 1
        d = float(np.linalg.norm(coords[argpt[idx]] - coords[idx]))
        pn = float(np.linalg.norm(jet.p))
        cof = d * (1.0 + d / eps) * pn**F.m
        lam = eigen_sym(eval_F(jet, F)).values

        def feasible(a):
            mg = cone_margin(lam + (-a * cof if want_out else a * cof), U)
            return mg <= tol_eff if want_out else mg >= -tol_eff

        m0 = cone_margin(lam, U)
        if feasible(0.0):
            a_req = 0.0
        elif cof <= 0.0:
            a_req = math.inf
        else:
            hi = 1.0
            while hi <= _A_CAP and not feasible(hi):
                hi *= 2.0
            if hi > _A_CAP:
                a_req = math.inf
            else:
                lo = 0.0
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    if feasible(mid):
                        hi = mid
                    else:
                        lo = mid
                a_req = hi
        if math.isinf(a_req):
            out["violations"].append(idx)
        else:
            out["fitted_a"] = max(out["fitted_a"], a_req)
        out["rows"].append((idx, d.hex(), pn.hex(), m0.hex(), a_req.hex()))
    out["fitted_a"] = out["fitted_a"].hex()
    return out


@pytest.mark.parametrize("layout", ["1d", "radial", "2d"])
@pytest.mark.parametrize("side", ["super", "sub"])
@_PROPERTY
@given(data=st.data(), op=st.sampled_from(_REPLAY_OPERATORS), pick=st.integers(0, 50),
       eps=st.sampled_from((1e-3, 1e-2, 1e-1, 1.0)), flat=st.sampled_from((1.0, 1e-7)))
def test_stacked_envelope_error_check_matches_per_node_replay_property(layout, side, data, op, pick, eps,
                                                                       flat):
    # flat fields have tiny gradients, so some penalties pass _A_CAP
    w = data.draw(_sampled_fields(layout))
    w = w.with_values(w.values * flat)
    ambient_n = 3 if layout == "radial" else None
    n = ambient_n or w.dim
    cones = ["trace", "posdef", "one_pos", "neg:trace"]
    cones += [f"gamma_k:{k}" for k in range(1, n + 1)] + [f"neg_gamma_c:{k}" for k in range(1, n + 1)]
    F, U = parse_operator(op), parse_cone(cones[pick % len(cones)])
    M = float(np.abs(w.values[np.isfinite(w.values)]).max())
    rep = envelope_error_check(w, eps, F, U, M, side=side, tol=1e-6, ambient_n=ambient_n)
    got = {
        "fitted_a": rep.fitted_a.hex(), "checked": rep.checked, "skipped": rep.skipped,
        "edge_attained": rep.edge_attained, "violations": rep.violations,
        "rows": [(idx, d.hex(), pn.hex(), m0.hex(), a.hex()) for idx, d, pn, m0, a in rep.rows.tolist()],
    }
    assert got == _replay_envelope_error_check(w, eps, F, U, M, side, 1e-6, ambient_n)


# ---------------------------------------------------------------------------
# touching points


def test_touching_interior_only_violated():
    xs = np.linspace(-1, 1, 101)
    v = GridFn(((-1, 1),), np.zeros(101))
    w = GridFn(((-1, 1),), xs * xs)
    rep = touching_experiment(w, v, 1e-12)
    assert rep.verdict == PROPAGATION_VIOLATED
    assert rep.components == [[50]]
    assert rep.boundary_contact == [False]
    assert rep.interior_only == 1


def test_touching_boundary_contact_consistent():
    xs = np.linspace(0, 1, 101)
    v = GridFn(((0, 1),), np.zeros(101))
    w = GridFn(((0, 1),), xs * (1 - xs))  # vanishes on both boundary nodes
    rep = touching_experiment(w, v, 1e-12)
    assert rep.verdict == PROPAGATION_CONSISTENT
    assert len(rep.components) == 2
    assert all(rep.boundary_contact)


def test_touching_no_contact_consistent():
    v = GridFn(((0, 1),), np.zeros(21))
    w = GridFn(((0, 1),), np.full(21, 0.5))
    rep = touching_experiment(w, v, 1e-9)
    assert rep.verdict == PROPAGATION_CONSISTENT
    assert rep.components == []
    assert rep.min_gap == 0.5


def test_touching_validation():
    a = GridFn(((0, 1),), np.zeros(11))
    b = GridFn(((0, 2),), np.zeros(11))
    with pytest.raises(ValueError):
        touching_experiment(a, b, 1e-9)
    c = GridFn(((0, 1),), np.full(11, -1.0))
    with pytest.raises(ValueError):
        touching_experiment(c, a, 1e-9)  # ordering violated
    with pytest.raises(ValueError):
        touching_experiment(a, a, 0.0)
    left = GridFn(((0, 1),), np.array([0.0, np.inf, np.inf]))
    right = GridFn(((0, 1),), np.array([np.inf, 1.0, 1.0]))
    with pytest.raises(ValueError, match="no unmasked nodes to compare"):
        touching_experiment(right, left, 1e-9)


def test_touching_2d_components():
    vals = np.ones((11, 11))
    vals[5, 5] = 0.0  # interior touching point
    vals[0, 3] = 0.0  # boundary touching point
    w = GridFn(((0, 1), (0, 1)), vals)
    v = GridFn(((0, 1), (0, 1)), np.zeros((11, 11)))
    rep = touching_experiment(w, v, 1e-12)
    assert len(rep.components) == 2
    assert rep.interior_only == 1
    assert rep.verdict == PROPAGATION_CONSISTENT  # w = v at a boundary node


def test_touching_constant_shift_invariance():
    rng = np.random.default_rng(8)
    xs = np.linspace(-1, 1, 81)
    for _ in range(5):
        bump = rng.uniform(0.1, 1.0) * (xs * xs) * (0.5 + rng.uniform(0, 1))
        base = rng.normal(size=81)
        w = GridFn(((-1, 1),), base + bump)
        v = GridFn(((-1, 1),), base)
        shift = rng.uniform(-5, 5)
        r1 = touching_experiment(w, v, 1e-12)
        r2 = touching_experiment(
            GridFn(((-1, 1),), w.values + shift), GridFn(((-1, 1),), v.values + shift), 1e-12
        )
        assert r1.verdict == r2.verdict
        assert r1.components == r2.components


def test_touching_cusp_pair_violated():
    cert = build_counterexample("beta_sign", rgrid=501, alpha=-3.0)
    rr, wv, vv = cusp_pair_values(cert, 501)
    box = ((float(rr[0]), float(rr[-1])),)
    rep = touching_experiment(GridFn(box, wv), GridFn(box, vv), 1e-12)
    assert rep.verdict == PROPAGATION_VIOLATED
    assert rep.components == [[250]]  # the cusp node, dead center
    assert rep.boundary_gap > 0.1


def test_touching_random_conforming_pairs_consistent():
    rng = np.random.default_rng(77)
    xs = np.linspace(0.0, 1.0, 64)
    for _ in range(8):
        v = GridFn(((0, 1),), rng.normal(size=64))
        gap = rng.uniform(0.2, 2.0) * xs * (np.cos(rng.uniform(0, 1) * xs) + 1.1)
        w = GridFn(((0, 1),), v.values + gap)  # gap vanishes only at x = 0
        rep = touching_experiment(w, v, 1e-12)
        assert rep.verdict == PROPAGATION_CONSISTENT


def test_touching_punctured_log_pair_gap_shrinks():
    w_o = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
    v_o = FieldOracle.log_singular(1.0, 0.0, 0.0, 3)
    gaps = []
    for rmin in (1e-1, 1e-2, 1e-3):
        rs = np.linspace(rmin, 1.0, 801)
        wv = np.array([w_o.value(np.array([r, 0, 0])) for r in rs])
        vv = np.array([v_o.value(np.array([r, 0, 0])) for r in rs])
        rep = touching_experiment(GridFn(((rmin, 1.0),), wv), GridFn(((rmin, 1.0),), vv), 1e-9)
        assert rep.verdict == PROPAGATION_CONSISTENT
        assert rep.components == []
        gaps.append(rep.min_gap)
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1.1e-3  # ln(1 + r) ~ r at the inner rim


def test_touching_masked_nodes_excluded():
    wv = np.ones(21)
    wv[10] = np.inf  # masked: would otherwise touch
    vv = np.ones(21)
    w = GridFn(((0, 1),), wv)
    v = GridFn(((0, 1),), vv)
    rep = touching_experiment(w, v, 1e-12)
    # every unmasked node touches; the component reaches the boundary
    assert rep.verdict == PROPAGATION_CONSISTENT
    assert sum(len(c) for c in rep.components) == 20


# ---------------------------------------------------------------------------
# moving spheres


def test_moving_sphere_constant_field():
    rep = moving_sphere_check(FieldOracle.constant(3.0, 3), 3, [np.zeros(3)], [0.1, 0.25])
    assert rep.start_radius == pytest.approx(0.25)
    assert rep.all_ok
    for name in ("max_excess", "sphere_gap", "boundary_excess"):
        assert np.all(rep.trials[name] <= 1e-12)


def test_moving_sphere_bubble():
    bub = FieldOracle.bubble(3)
    xs = [np.zeros(3), np.array([0.3, 0.0, 0.0]), np.array([-0.25, 0.25, 0.25])]
    rep = moving_sphere_check(bub, 3, xs, [0.05, 0.1], tol=1e-8)
    assert rep.all_ok
    assert len(rep.trials) == 6
    assert rep.lipschitz_quotient > 0.0
    # the transform is the identity on the inversion sphere
    assert rep.trials["sphere_gap"].max() <= 1e-12


def test_moving_sphere_per_center_lambdas():
    bub = FieldOracle.bubble(3)
    xs = [np.zeros(3), np.array([0.2, 0.1, 0.0])]
    rep = moving_sphere_check(bub, 3, xs, [[0.05], [0.1, 0.15]])
    assert len(rep.trials) == 3
    assert rep.all_ok


def test_moving_sphere_validation():
    bub = FieldOracle.bubble(3)
    with pytest.raises(ValueError):
        moving_sphere_check(bub, 2, [np.zeros(2)], [0.1])
    with pytest.raises(ValueError):
        moving_sphere_check(bub, 3, [np.array([0.9, 0.0, 0.0])], [0.1])
    with pytest.raises(ValueError):
        moving_sphere_check(bub, 3, [np.zeros(3)], [0.9])  # beyond the start radius
    with pytest.raises(ValueError):
        moving_sphere_check(bub, 3, [np.zeros(3)], [-0.1])
    with pytest.raises(ValueError):
        moving_sphere_check(lambda y: -1.0, 3, [np.zeros(3)], [0.1])  # not positive


# per-point replay of moving_sphere_check: the scan the stacked trials replace


def _loop_unit_directions(rng, n, count):
    dirs = []
    while len(dirs) < count:
        z = rng.normal(size=n)
        nz = float(np.linalg.norm(z))
        if nz > 1e-8:
            dirs.append(z / nz)
    return dirs


def _loop_kelvin(val, x, lam, y, n):
    d = y - x
    r2 = float(d @ d)
    return float((lam**2 / r2) ** ((n - 2) / 2.0) * val(x + lam**2 * d / r2))


def _loop_moving_sphere_check(u, n, xs, lambdas, tol=1e-8, seed=0):
    """One kelvin and one value call per point, one direction and shell at a time."""
    if n < 3:
        raise ValueError("the inversion comparison needs n >= 3")
    val = u.value if isinstance(u, FieldOracle) else u
    centers = [np.asarray(x, dtype=float) for x in xs]
    for x in centers:
        if x.shape != (n,):
            raise ValueError("centers must be n-vectors")
        if float(np.linalg.norm(x)) > 0.5 + 1e-12:
            raise ValueError("centers must lie in the closed half-radius ball")
    if len(lambdas) == len(centers) and all(isinstance(ls, (list, tuple, np.ndarray)) for ls in lambdas):
        lam_lists = [[float(l) for l in ls] for ls in lambdas]
    else:
        lam_lists = [[float(l) for l in lambdas] for _ in centers]
    rng = np.random.default_rng(seed)
    dirs = _loop_unit_directions(rng, n, 48)
    cloud_dirs = _loop_unit_directions(rng, n, 2048)
    radii = 0.75 * rng.random(2048) ** (1.0 / n)
    cloud = [np.zeros(n)] + [0.75 * d for d in dirs] + [r * d for r, d in zip(radii, cloud_dirs)]
    vals = np.array([val(y) for y in cloud])
    if not np.all(np.isfinite(vals)) or np.min(vals) <= 0.0:
        raise ValueError("u must be positive and finite on the comparison ball")
    sup_u, inf_u = float(np.max(vals)), float(np.min(vals))
    R = 0.25 * (sup_u / inf_u) ** (-1.0 / (n - 2))
    quot = 0.0
    pts = np.array(cloud)
    for _ in range(4096):
        i, k = rng.integers(0, len(pts), size=2)
        dist = float(np.linalg.norm(pts[i] - pts[k]))
        if dist >= 1e-3:
            quot = max(quot, abs(float(vals[i] - vals[k])) / dist)
    trials = []
    for x, lams in zip(centers, lam_lists):
        xx = float(x @ x)
        for lam in lams:
            if lam <= 0.0:
                raise ValueError("lam must be positive")
            if lam > R * (1.0 + 1e-12):
                raise ValueError(f"lam={lam:g} exceeds the admissible start radius {R:g}")
            max_excess, sphere_gap, boundary_excess = -math.inf, 0.0, -math.inf
            for wdir in dirs:
                b = float(x @ wdir)
                reach = -b + math.sqrt(b * b + 0.5625 - xx)
                if reach < lam:
                    continue
                for rho in np.linspace(lam, reach, 16):
                    y = x + float(rho) * wdir
                    excess = _loop_kelvin(val, x, lam, y, n) - val(y)
                    max_excess = max(max_excess, excess)
                    if rho == lam:
                        sphere_gap = max(sphere_gap, abs(excess))
                yb = 0.75 * wdir
                if float(np.linalg.norm(yb - x)) >= lam:
                    boundary_excess = max(boundary_excess, _loop_kelvin(val, x, lam, yb, n) - inf_u)
            ok = max_excess <= tol and sphere_gap <= tol and boundary_excess <= tol
            trials.append((x, lam, max_excess, sphere_gap, boundary_excess, ok))
    return MovingSphereReport(n, sup_u, inf_u, R, quot, tol,
                              np.array(trials, viscosity._sphere_trial_row(n)))


def _wavy(n):
    """A positive, non-radial plain callable, evaluated one point at a time."""
    return lambda y: 2.0 + 0.5 * math.sin(3.0 * float(y[0]) - float(y[n - 1]))


def _sphere_outcome(check, u, n, xs, lambdas, seed):
    """The report with every float as hex, or the ValueError's message."""
    try:
        rep = check(u, n, xs, lambdas, seed=seed)
    except ValueError as exc:
        return ("raises", str(exc))
    rows = [[rep.n, rep.sup_u, rep.inf_u, rep.start_radius, rep.lipschitz_quotient, rep.tol]]
    tr = rep.trials
    rows += [[*center, *rest] for center, *rest in zip(
        tr["center"].tolist(), *(tr[name].tolist() for name in tr.dtype.names[1:]))]
    return [[float(v).hex() if isinstance(v, float) else v for v in row] for row in rows]


_SPHERE_FIELDS = {"bubble": FieldOracle.bubble, "constant": lambda n: FieldOracle.constant(1.5, n),
                  "callable": _wavy}


@pytest.mark.parametrize("field_name", sorted(_SPHERE_FIELDS))
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("per_center,seed", [(False, 0), (True, 1)])
def test_stacked_moving_sphere_matches_per_point_replay_property(field_name, n, per_center, seed):
    # seeded draws: 1-2 centers in the half-radius ball, 1-3 radii, some of
    # which exceed the start radius of some fields (0.16 for the callable
    # at n = 3, whose start radius is 0.15) and must raise
    rng = np.random.default_rng([seed, n, per_center])
    xs = []
    for _ in range(rng.integers(1, 3)):
        z = rng.normal(size=n)
        xs.append(0.5 * rng.random() * z / np.linalg.norm(z))
    pool = np.array([0.01, 0.02, 0.05, 0.1, 0.13, 0.16])
    lams = [rng.choice(pool, size=rng.integers(1, 4)).tolist() for _ in xs]
    lambdas = lams if per_center else lams[0]
    u = _SPHERE_FIELDS[field_name](n)
    got = _sphere_outcome(moving_sphere_check, u, n, xs, lambdas, seed)
    assert got == _sphere_outcome(_loop_moving_sphere_check, u, n, xs, lambdas, seed)


@pytest.mark.parametrize("field_name", sorted(_SPHERE_FIELDS))
@pytest.mark.parametrize("fault", ["far center", "bad shape", "negative field", 0.0, -0.05, 0.4])
def test_stacked_moving_sphere_raises_as_per_point_replay(field_name, fault):
    n = 3
    u = _SPHERE_FIELDS[field_name](n)
    xs = [np.zeros(n), np.array([0.2, -0.1, 0.3])]
    lambdas = [0.05, 0.1]
    if fault == "far center":
        xs.append(np.array([0.3, 0.3, 0.3]))
    elif fault == "bad shape":
        xs.append(np.zeros(n + 1))
    elif fault == "negative field":
        u = (dataclasses.replace(u, value=lambda x, f=u.value: -f(x)) if isinstance(u, FieldOracle)
             else lambda y, f=u: -f(y))
    else:
        lambdas = [[0.05], [0.1, fault]]
    got = _sphere_outcome(moving_sphere_check, u, n, xs, lambdas, 7)
    assert got[0] == "raises"
    assert got == _sphere_outcome(_loop_moving_sphere_check, u, n, xs, lambdas, 7)


def test_moving_sphere_evaluates_whole_stacks():
    # a return to per-point evaluation would make thousands of value calls
    # a trial: the check makes one for its sample cloud and three per trial
    bub = FieldOracle.bubble(3)
    calls = []

    def counted(x):
        calls.append(np.shape(x))
        return bub.value(x)

    xs = [np.zeros(3), np.array([0.3, 0.0, 0.0]), np.array([-0.25, 0.25, 0.25])]
    rep = moving_sphere_check(dataclasses.replace(bub, value=counted), 3, xs, [0.05, 0.1])
    assert len(rep.trials) == 6
    assert len(calls) <= 1 + 3 * len(rep.trials)
    again = moving_sphere_check(bub, 3, xs, [0.05, 0.1])
    assert dataclasses.replace(rep, trials=None) == dataclasses.replace(again, trials=None)
    assert rep.trials.tobytes() == again.trials.tobytes()
