import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conedeg import operators
from conedeg.matcone import ConeClass, ConeSpec, SymMatrix, classify, eigen_sym
from conedeg.operators import (
    _LEAD_SAMPLES,
    _fit_radial_coercive,
    _grad_x_L,
    _libm,
    FieldOracle,
    Jet2,
    OperatorSpec,
    conformal_A_psi,
    conformal_A_w,
    conformal_hessian_u,
    consistency_check,
    eval_F,
    eval_L,
    format_operator,
    kelvin,
    kelvin_transform,
    moving_sphere_radius,
    parse_operator,
    probe_L_conditions,
    u_to_psi_jet,
    u_to_w_jet,
)


def _jet(x, s, p, h):
    return Jet2(np.asarray(x, float), s, np.asarray(p, float), SymMatrix.from_dense(np.asarray(h, float)))


def _fd_jet(oracle: FieldOracle, x: np.ndarray, h: float = 1e-4):
    """Finite-difference jet of an oracle's value map; the independent route."""
    n = len(x)
    grad = np.zeros(n)
    hess = np.zeros((n, n))
    v0 = oracle.value(x)
    for i in range(n):
        ei = np.zeros(n)
        ei[i] = h
        vp, vm = oracle.value(x + ei), oracle.value(x - ei)
        grad[i] = (vp - vm) / (2 * h)
        hess[i, i] = (vp - 2 * v0 + vm) / h**2
        for j in range(i + 1, n):
            ej = np.zeros(n)
            ej[j] = h
            vpp = oracle.value(x + ei + ej)
            vpm = oracle.value(x + ei - ej)
            vmp = oracle.value(x - ei + ej)
            vmm = oracle.value(x - ei - ej)
            hess[i, j] = hess[j, i] = (vpp - vpm - vmp + vmm) / (4 * h**2)
    return v0, grad, hess


# ---------------------------------------------------------------------------
# field oracles agree with finite differences


def test_oracle_jets_match_finite_differences():
    rng = np.random.default_rng(2)
    oracles = [
        FieldOracle.constant(1.7, 3),
        FieldOracle.harmonic_power(3),
        FieldOracle.harmonic_power(5),
        FieldOracle.bubble(3),
        FieldOracle.bubble(4),
        FieldOracle.log_singular(2.0, 0.0, 1.0, 3),
        FieldOracle.polynomial({(2, 0, 0): 1.0, (0, 1, 1): -2.0, (1, 0, 0): 0.5, (0, 0, 0): 3.0}, 3),
    ]
    for oracle in oracles:
        for _ in range(5):
            x = rng.uniform(0.4, 1.2, size=oracle.n)  # away from singular points
            j = oracle.jet(x)
            v, g, h = _fd_jet(oracle, x)
            assert j.s == pytest.approx(v, rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(j.p, g, rtol=2e-6, atol=2e-6)
            np.testing.assert_allclose(j.H.dense(), h, rtol=2e-4, atol=2e-4)


def test_polynomial_oracle_rejects_bad_exponents():
    with pytest.raises(ValueError):
        FieldOracle.polynomial({(1, 2): 1.0}, 3)


# ---------------------------------------------------------------------------
# the three conformal writings


def test_conformal_u_constant_field():
    j = _jet([0.3, -0.2, 0.5], 2.5, np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(conformal_hessian_u(j, 3).dense(), 0.0, atol=1e-15)


def test_conformal_u_harmonic_power_is_flat():
    for n in (3, 4, 6):
        oracle = FieldOracle.harmonic_power(n)
        for x in (np.eye(n)[0], np.full(n, 0.7), np.linspace(0.2, 1.0, n)):
            a = conformal_hessian_u(oracle.jet(x), n).dense()
            assert np.max(np.abs(a)) <= 1e-12


def test_conformal_u_bubble_constant_curvature():
    # frozen fixture: the bubble's conformal Hessian is exactly 2I, every n, every x
    for n in (3, 4, 5):
        oracle = FieldOracle.bubble(n)
        for x in (np.zeros(n), 0.5 * np.eye(n)[0], np.full(n, -0.3)):
            a = conformal_hessian_u(oracle.jet(x), n).dense()
            np.testing.assert_allclose(a, 2.0 * np.eye(n), atol=1e-12)


def test_conformal_u_domain_errors():
    j = _jet([0.0, 0.0, 0.0], -1.0, np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        conformal_hessian_u(j, 3)
    j2 = _jet([0.0, 0.0], 1.0, np.zeros(2), np.zeros((2, 2)))
    with pytest.raises(ValueError):
        conformal_hessian_u(j2, 2)


def test_A_w_cases():
    j = _jet([1.0, 0.0, 0.0], 3.0, np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(conformal_A_w(j).dense(), 0.0, atol=1e-15)
    # w(x) = x1 at a point with x1 = 0: the w * Hess term vanishes, leaving -I/2
    j = _jet([0.0, 0.5, -0.1], 0.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
    np.testing.assert_allclose(conformal_A_w(j).dense(), -0.5 * np.eye(3), atol=1e-15)


def test_A_w_random_matches_hand_formula():
    rng = np.random.default_rng(8)
    for _ in range(20):
        h = rng.normal(size=(4, 4))
        j = _jet(rng.normal(size=4), rng.normal(), rng.normal(size=4), h + h.T)
        expect = j.s * j.H.dense() - 0.5 * (j.p @ j.p) * np.eye(4)
        np.testing.assert_allclose(conformal_A_w(j).dense(), expect, atol=1e-14)


def test_A_psi_cases():
    j = _jet([0.0, 0.0, 0.0], 1.0, np.zeros(3), np.zeros((3, 3)))
    np.testing.assert_allclose(conformal_A_psi(j).dense(), 0.0, atol=1e-15)
    j = _jet([0.0, 0.0, 0.0], 0.0, [1.0, 0.0, 0.0], np.zeros((3, 3)))
    expect = np.diag([1.0, 0.0, 0.0]) - 0.5 * np.eye(3)
    np.testing.assert_allclose(conformal_A_psi(j).dense(), expect, atol=1e-15)


def test_A_psi_of_log_field_is_flat():
    # psi = 2 ln|x| is the n=3 log-gauge of |x|^{-1}; its gauge Hessian vanishes
    oracle = FieldOracle.harmonic_power(3)
    j = u_to_psi_jet(oracle.jet(np.array([1.0, 0.0, 0.0])), 3)
    assert j.s == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(j.p, [2.0, 0.0, 0.0], atol=1e-14)
    np.testing.assert_allclose(conformal_A_psi(j).dense(), 0.0, atol=1e-13)


def test_consistency_check_bundled_fields():
    report = consistency_check(FieldOracle.constant(1.0, 3), np.array([0.1, 0.2, 0.3]), 3, 1e-10)
    assert report.passed and report.deviation == 0.0
    report = consistency_check(FieldOracle.harmonic_power(3), np.array([2.0, 0.0, 0.0]), 3, 1e-10)
    assert report.passed
    report = consistency_check(FieldOracle.bubble(4), np.array([0.5, 0.0, 0.0, 0.0]), 4, 1e-10)
    assert report.passed


def test_consistency_check_random_points_all_oracles():
    rng = np.random.default_rng(12)
    for n in (3, 4, 5):
        for oracle in (FieldOracle.bubble(n), FieldOracle.harmonic_power(n), FieldOracle.constant(0.8, n)):
            for _ in range(50):
                x = rng.uniform(0.3, 1.5, size=n) * rng.choice([-1.0, 1.0], size=n)
                report = consistency_check(oracle, x, n, 1e-10)
                assert report.passed, (oracle.name, x, report.deviation)


def test_consistency_check_rejects_nonpositive_u():
    oracle = FieldOracle.constant(-1.0, 3)
    with pytest.raises(ValueError):
        consistency_check(oracle, np.zeros(3), 3, 1e-10)


def test_w_jet_chain_rule_against_finite_differences():
    oracle = FieldOracle.bubble(3)
    x = np.array([0.4, -0.2, 0.6])
    jw = u_to_w_jet(oracle.jet(x), 3)
    w_oracle = FieldOracle(
        name="w", n=3,
        value=lambda y: oracle.value(y) ** (-2.0),
        grad=lambda y: np.zeros(3), hess=lambda y: np.zeros((3, 3)),
    )
    v, g, h = _fd_jet(w_oracle, x)
    assert jw.s == pytest.approx(v, rel=1e-12)
    np.testing.assert_allclose(jw.p, g, atol=2e-6)
    np.testing.assert_allclose(jw.H.dense(), h, atol=2e-4)


# ---------------------------------------------------------------------------
# eval_F


def test_eval_F_zero_gradient_returns_hessian():
    h = np.diag([1.0, -2.0, 0.5])
    j = _jet([0.0, 0.0, 0.0], 0.7, np.zeros(3), h)
    np.testing.assert_allclose(eval_F(j, OperatorSpec.quad_const(3.0, -1.0)).dense(), h, atol=1e-15)


def test_eval_F_quad_const_frozen():
    j = _jet([0.0, 0.0], 0.0, [1.0, 0.0], np.zeros((2, 2)))
    np.testing.assert_allclose(
        eval_F(j, OperatorSpec.quad_const(1.0, 1.0)).dense(), np.diag([0.0, -1.0]), atol=1e-15
    )


def test_conformal_equals_quad_one_half():
    rng = np.random.default_rng(21)
    conf = OperatorSpec.conformal()
    quad = OperatorSpec.quad_const(1.0, 0.5)
    for _ in range(100):
        h = rng.normal(size=(3, 3))
        j = _jet(rng.normal(size=3), rng.normal(), rng.normal(size=3), h + h.T)
        np.testing.assert_allclose(eval_F(j, conf).dense(), eval_F(j, quad).dense(), atol=1e-15)


def test_eval_F_linear_in_hessian():
    # dyadic data keeps every float operation exact, so equality is bitwise
    rng = np.random.default_rng(33)
    spec = OperatorSpec.quad_const(2.0, 0.5)
    for _ in range(20):
        h1 = rng.integers(-8, 9, size=(3, 3)).astype(float)
        h1 = h1 + h1.T
        h2 = rng.integers(-8, 9, size=(3, 3)).astype(float)
        h2 = h2 + h2.T
        x = rng.integers(-4, 5, size=3).astype(float)
        s = float(rng.integers(-4, 5))
        p = rng.integers(-4, 5, size=3).astype(float)
        f_sum = eval_F(_jet(x, s, p, h1 + h2), spec).dense()
        f_one = eval_F(_jet(x, s, p, h1), spec).dense()
        np.testing.assert_array_equal(f_sum - f_one, h2)


def test_degenerate_ellipticity_verdict_ordering():
    rng = np.random.default_rng(44)
    order = {ConeClass.OUTSIDE: 0, ConeClass.BOUNDARY: 1, ConeClass.INTERIOR: 2}
    spec = OperatorSpec.quad_const(1.0, 0.5)
    cones = [ConeSpec.posdef(), ConeSpec.gamma(2), ConeSpec.trace(), ConeSpec.one_pos()]
    for _ in range(30):
        h = rng.normal(size=(3, 3))
        j = _jet(rng.normal(size=3), rng.normal(), rng.normal(size=3), h + h.T)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        b = q @ np.diag(rng.uniform(0.1, 1.5, size=3)) @ q.T
        j_up = _jet(j.x, j.s, j.p, j.H.dense() + b)
        for cone in cones:
            v0, _ = classify(eval_F(j, spec), cone, tol=1e-9)
            v1, _ = classify(eval_F(j_up, spec), cone, tol=1e-9)
            assert order[v1] >= order[v0]


def test_rot_inv_eval():
    spec = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -t, name="rotinv:zero:neg_t")
    j = _jet([0.0, 0.0], 0.0, [3.0, 4.0], np.zeros((2, 2)))
    np.testing.assert_allclose(eval_F(j, spec).dense(), -5.0 * np.eye(2), atol=1e-14)


def test_general_l_shape_guard():
    bad = OperatorSpec.general_l(lambda x, s, p: np.zeros((2, 3)), m=2.0)
    with pytest.raises(ValueError):
        eval_L(bad, np.zeros(2), 0.0, np.ones(2))


def test_isotropic_kind_contract():
    with pytest.raises(ValueError, match="g_fn"):
        OperatorSpec("isotropic")
    calls = []

    def g(s, t2):
        calls.append((s.shape, t2.shape))
        return s * t2

    spec = OperatorSpec.isotropic(g, m=4.0, name="s_times_p2")
    got = eval_L(spec, np.zeros((4, 5, 3)), np.arange(5.0), np.ones((4, 5, 3)))
    # one call on the whole (4, 5) stack, the values broadcast to it
    assert calls == [((4, 5), (4, 5))]
    want = np.broadcast_to(3.0 * np.arange(5.0)[:, None, None] * np.eye(3), (4, 5, 3, 3))
    assert got.tobytes() == want.tobytes()
    assert eval_L(spec, np.zeros(2), 2.0, np.array([1.0, 1.0])).tolist() == [[4.0, 0.0], [0.0, 4.0]]
    assert format_operator(spec) == "genL:<custom:s_times_p2>"
    bad = OperatorSpec.isotropic(lambda s, t2: np.zeros(3), m=2.0)
    with pytest.raises(ValueError, match="g_fn returned shape"):
        eval_L(bad, np.zeros((4, 2)), np.zeros(4), np.ones((4, 2)))
    # isotropic L does not read x
    x, p = np.random.default_rng(1).normal(size=(2, 6, 3))
    assert not _grad_x_L(spec, x, np.ones(6), p).any()


# each callable kind: its callables' names, its spec made from {name: callable},
# and the argument shapes each callable sees on a (4, 5)-node stack in 3D
_CALLABLE_KINDS = {
    "quad_var": (("alpha_fn", "beta_fn"), lambda f: OperatorSpec.quad_var(f["alpha_fn"], f["beta_fn"]),
                 [(4, 5, 3), (4, 5)]),
    "rot_inv": (("a_fn", "b_fn"), lambda f: OperatorSpec.rot_inv(f["a_fn"], f["b_fn"]), [(4, 5)]),
    "general_l": (("L_fn",), lambda f: OperatorSpec.general_l(f["L_fn"], m=2.0), [(4, 5, 3), (4, 5), (4, 5, 3)]),
}


@pytest.mark.parametrize("kind", sorted(_CALLABLE_KINDS))
def test_callable_kinds_take_the_whole_stack(kind):
    names, build, shapes = _CALLABLE_KINDS[kind]
    calls = []

    def constant(name, value):
        def fn(*args):
            calls.append((name, [np.shape(a) for a in args]))
            return value
        return fn

    x, p = np.random.default_rng(2).normal(size=(2, 4, 5, 3))
    s = np.arange(5.0)  # one value per column, broadcast along the rows
    spec = build({name: constant(name, 2.0) for name in names})
    got = eval_L(spec, x, s, p)
    # one call per callable on the whole stack, the scalar broadcast to every node
    assert calls == [(name, shapes) for name in names]
    for idx in np.ndindex(4, 5):
        assert got[idx].tobytes() == _lone_L(spec, x[idx], s[idx[1]], p[idx]).tobytes()
    # the probe's p-gradient also calls each once, with p = 0 rows present
    calls.clear()
    p2 = p.reshape(20, 3).copy()
    p2[:3] = 0.0
    operators._grad_p_L(spec, x.reshape(20, 3), np.ones(20), p2)
    assert [name for name, _ in calls] == list(names)
    for bad in names:
        spec = build({name: (lambda *args: np.zeros(3)) if name == bad else constant(name, 1.0)
                      for name in names})
        with pytest.raises(ValueError, match=f"{bad} returned shape"):
            eval_L(spec, x, s, p)


def _at_node(fn, *args):
    """An OperatorSpec callable at one node: its arguments as arrays with no
    leading axes (x and p vectors, s and |p| 0-d), its value as a float or
    an (n, n) matrix.  The per-node oracles read the callables through it."""
    out = np.asarray(fn(*(np.asarray(a, dtype=float) for a in args)), dtype=float)
    return float(out) if out.ndim == 0 else out


def _fd1(f, t: float) -> float:
    """The central difference of a radial coefficient at one |p|."""
    h = 1e-7 * (1.0 + abs(t))
    return (_at_node(f, t + h) - _at_node(f, t - h)) / (2 * h)


def _lone_L(spec: OperatorSpec, x: np.ndarray, s: float, p: np.ndarray) -> np.ndarray:
    """L at one node, written out with np.outer and the vector dot p @ p."""
    n = len(p)
    pp = np.outer(p, p)
    p2 = float(p @ p)
    if spec.kind == "quad_const":
        return spec.alpha * pp - spec.beta * p2 * np.eye(n)
    if spec.kind == "quad_var":
        return _at_node(spec.alpha_fn, x, s) * pp - _at_node(spec.beta_fn, x, s) * p2 * np.eye(n)
    if spec.kind == "rot_inv":
        t = math.sqrt(p2)
        return _at_node(spec.a_fn, t) * pp + _at_node(spec.b_fn, t) * np.eye(n)
    if spec.kind == "isotropic":
        return _at_node(spec.g_fn, s, p2) * np.eye(n)
    out = np.broadcast_to(_at_node(spec.L_fn, x, s, p), (n, n))
    return 0.5 * (out + out.T)


_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@_PROPERTY
@given(
    shape=st.tuples(st.integers(0, 3), st.integers(1, 4), st.integers(1, 5)),
    data=st.data(),
)
def test_stacked_eval_L_matches_lone_nodes_property(shape, data):
    # two leading axes, and gradients spanning six decades of |p|
    x = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1.0, 1.0)))
    p = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
    s = data.draw(hnp.arrays(np.float64, shape[:-1], elements=st.floats(-2.0, 2.0)))
    skew = OperatorSpec.general_l(
        lambda x, s, p: x[..., :, None] * p[..., None, :] + s[..., None, None] * np.eye(p.shape[-1]), m=2.0)
    texts = ("conformal", "quad:1.5:-0.25", "genL:tanh_quad", "rotinv:pow(0.5,1.5):neg_t",
             "genL:cubic_mix")
    for spec in [parse_operator(t) for t in texts] + [skew]:
        got = eval_L(spec, x, s, p)
        assert got.shape == shape + (shape[-1],)
        for idx in np.ndindex(*shape[:-1]):
            want = _lone_L(spec, x[idx], float(s[idx]), p[idx])
            assert got[idx].tobytes() == want.tobytes(), (spec.kind, idx)


# ---------------------------------------------------------------------------
# Kelvin transform


def test_kelvin_of_constant_is_power():
    one = FieldOracle.constant(1.0, 3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        y = rng.normal(size=3)
        if np.linalg.norm(y) < 1e-3:
            continue
        got = kelvin(one, np.zeros(3), 1.0, y, 3)
        assert got == pytest.approx(float(np.linalg.norm(y) ** (-1.0)), rel=1e-13)


def test_kelvin_fixed_sphere():
    oracle = FieldOracle.bubble(3)
    x = np.array([0.3, -0.1, 0.2])
    lam = 0.7
    rng = np.random.default_rng(6)
    for _ in range(20):
        d = rng.normal(size=3)
        y = x + lam * d / np.linalg.norm(d)
        assert kelvin(oracle, x, lam, y, 3) == pytest.approx(oracle.value(y), rel=1e-13)


def test_kelvin_involution():
    rng = np.random.default_rng(7)
    for oracle in (FieldOracle.bubble(3), FieldOracle.constant(2.0, 3), FieldOracle.harmonic_power(3)):
        x = np.array([0.2, 0.1, -0.3])
        lam = 0.9
        once = kelvin_transform(oracle, x, lam, 3)
        twice = kelvin_transform(once, x, lam, 3)
        for _ in range(100):
            y = x + rng.normal(size=3)
            if np.linalg.norm(y - x) < 1e-2 or (oracle.name == "power" and np.linalg.norm(y) < 1e-2):
                continue
            # the inverted argument can also land on the power field's pole
            z = x + lam**2 * (y - x) / float((y - x) @ (y - x))
            if oracle.name == "power" and np.linalg.norm(z) < 1e-2:
                continue
            assert twice(y) == pytest.approx(oracle.value(y), rel=1e-10, abs=1e-12)


def test_kelvin_domain_errors():
    one = FieldOracle.constant(1.0, 3)
    with pytest.raises(ValueError):
        kelvin(one, np.zeros(3), 1.0, np.zeros(3), 3)
    with pytest.raises(ValueError):
        kelvin(one, np.zeros(3), -1.0, np.ones(3), 3)


# ---------------------------------------------------------------------------
# stacked values and Kelvin transforms against lone points


def _families(n: int) -> dict:
    """Each FieldOracle family with its lone-point closed form as it was
    written before value took stacks: the bitwise reference."""
    mono = {(2, 0, 0) + (0,) * (n - 3): 1.0, (0, 1, 1) + (0,) * (n - 3): -2.0,
            (1, 0, 0) + (1,) * (n - 3): 0.5, (0,) * n: 3.0}
    k = 1.0 / (1.3 - n * 0.1)
    return {
        "constant": (FieldOracle.constant(2.5, n), lambda x: float(2.5)),
        "bubble": (FieldOracle.bubble(n), lambda x: float((1.0 + x @ x) ** (-(n - 2) / 2.0))),
        "harmonic_power": (FieldOracle.harmonic_power(n),
                           lambda x: float(np.linalg.norm(x) ** (2 - n))),
        "log_singular": (FieldOracle.log_singular(1.3, 0.1, 0.7, n),
                         lambda x: k * math.log(float(x @ x) ** ((2 - n) / 2.0) + 0.7)),
        "polynomial": (FieldOracle.polynomial(mono, n),
                       lambda x: float(sum(c * np.prod(x ** np.array(e)) for e, c in mono.items()))),
    }


def _loop_kelvin(val, x, lam, y, n):
    """The Kelvin transform at one point, as a per-point loop computes it."""
    d = y - x
    r2 = float(d @ d)
    return float((lam**2 / r2) ** ((n - 2) / 2.0) * val(x + lam**2 * d / r2))


def _points(seed: int, n: int) -> np.ndarray:
    """(4, 9, n) points over five decades of |x|, none at the origin."""
    rng = np.random.default_rng(seed)
    return rng.normal(size=(4, 9, n)) * rng.choice([1e-3, 0.1, 0.5, 2.0, 50.0], size=(4, 9, 1))


@pytest.mark.parametrize("family", ["constant", "bubble", "harmonic_power", "log_singular", "polynomial"])
@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_stacked_value_and_kelvin_match_lone_points(family, n, seed):
    oracle, lone = _families(n)[family]
    pts = _points(seed, n)
    x = 0.4 * np.random.default_rng(seed + 10).normal(size=n)
    # lone points return the same float as the closed form always did
    want = [lone(y) for y in pts.reshape(-1, n)]
    got = [oracle.value(y) for y in pts.reshape(-1, n)]
    assert all(type(v) is float for v in got)
    assert _hexed(got) == _hexed(want)
    # a stack returns its shape, each entry bitwise its lone point's value
    for stack in (pts, pts[0], pts[:, :0]):
        out = oracle.value(stack)
        assert out.shape == stack.shape[:-1]
        assert _hexed(out.ravel().tolist()) == _hexed([oracle.value(y) for y in stack.reshape(-1, n)])
    for lam in (0.05, 0.3, 1.7):
        out = kelvin(oracle, x, lam, pts, n)
        assert out.shape == pts.shape[:-1]
        want = [_loop_kelvin(lone, x, lam, y, n) for y in pts.reshape(-1, n)]
        assert _hexed(out.ravel().tolist()) == _hexed(want)
        assert type(kelvin(oracle, x, lam, pts[0, 0], n)) is float


def test_stacked_kelvin_calls_a_plain_callable_per_point():
    seen = []

    def u(y):
        seen.append(y.shape)
        return 2.0 + math.sin(3.0 * y[0])

    pts = _points(5, 3)
    out = kelvin(u, np.array([0.1, 0.0, -0.2]), 0.4, pts, 3)
    assert out.shape == (4, 9)
    assert seen == [(3,)] * 36
    want = [_loop_kelvin(u, np.array([0.1, 0.0, -0.2]), 0.4, y, 3) for y in pts.reshape(-1, 3)]
    assert _hexed(out.ravel().tolist()) == _hexed(want)
    with pytest.raises(ValueError, match="undefined at y = x"):
        kelvin(u, np.zeros(3), 0.4, np.stack([np.ones(3), np.zeros(3)]), 3)


def test_moving_sphere_radius():
    assert moving_sphere_radius(3.0, 3.0, 5) == pytest.approx(0.25)
    assert moving_sphere_radius(16.0, 1.0, 4) == pytest.approx(1.0 / 16.0)
    radii = [moving_sphere_radius(r, 1.0, 3) for r in (1.0, 2.0, 5.0, 100.0)]
    assert all(a >= b for a, b in zip(radii, radii[1:]))
    with pytest.raises(ValueError):
        moving_sphere_radius(1.0, 2.0, 3)
    with pytest.raises(ValueError):
        moving_sphere_radius(1.0, 0.0, 3)


# ---------------------------------------------------------------------------
# structural-condition probes


def test_probe_varying_quad_family_passes():
    spec = parse_operator("genL:tanh_quad")
    report = probe_L_conditions(spec, R=2.0, Lambda=8.0, m=2.0, samples=80, seed=0)
    assert report.all_ok(), report
    assert report.grad_x_bound.fitted_C is not None
    assert report.s_growth.fitted_C is not None and report.s_growth.fitted_C < 10.0
    assert report.radial_coercive.fitted_C is not None
    assert report.radial_coercive.fitted_theta_bar > 0.0
    # the mirrored super-unit regime cannot hold alongside the sub-unit one
    assert not report.radial_coercive_sup.ok
    assert report.radial_coercive_sup.witness["violation"] < 0.0


def test_probe_positive_beta_quad_passes_coercivity():
    report = probe_L_conditions(OperatorSpec.quad_const(1.0, 1.0), R=1.0, Lambda=8.0,
                                m=2.0, samples=80, seed=1)
    assert report.radial_coercive.ok
    assert report.s_monotone.ok


def test_probe_negative_beta_fails_coercivity():
    report = probe_L_conditions(OperatorSpec.quad_const(1.0, -1.0), R=1.0, Lambda=8.0,
                                m=2.0, samples=60, seed=2)
    assert not report.radial_coercive.ok
    w = report.radial_coercive.witness
    assert w is not None and w["violation"] < 0.0
    # the mirrored variant is what negative-beta operators satisfy instead
    assert report.radial_coercive_sup.ok


def test_probe_cubic_mix_monotonicity_fails():
    spec = parse_operator("genL:cubic_mix")
    report = probe_L_conditions(spec, R=3.0, Lambda=8.0, m=10.0, samples=120, seed=3)
    assert not report.s_monotone.ok
    w = report.s_monotone.witness
    assert w is not None and w["min_eig"] < 0.0
    # replay the witness: the matrix ordering genuinely fails there
    x, p = np.array(w["x"]), np.array(w["p"])
    diff = eval_L(spec, x, w["s_prime"], p) - eval_L(spec, x, w["s"], p)
    assert np.min(np.linalg.eigvalsh(diff)) < 0.0


def _probe_points(seed: int, samples: int, n: int = 3, R: float = 1.0) -> list:
    """(x, s, s', p) samples with log-spaced |p| up to 1e3, plus the p = 0 corner."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(samples):
        s_lo, s_hi = np.sort(rng.uniform(-R, R, size=2))
        d = rng.normal(size=n)
        p = 10.0 ** rng.uniform(-3.0, 3.0) * d / np.linalg.norm(d)
        pts.append((rng.uniform(-1.0, 1.0, size=n), float(s_lo), float(s_hi), p))
    pts.append((np.zeros(n), 0.0, min(R, 1.0), np.zeros(n)))
    return pts


def _stack(pts) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(x, s, p) sample stacks of a point list, s the lower value."""
    x, s, _, p = (np.array(col, dtype=float) for col in zip(*pts))
    return x, s, p


def _fit_radial_coercive_per_matrix(spec, pts, Lambda, m, sign, eps):
    """The same (C, theta_bar) search with one eigen_sym call per gap matrix."""
    prepared = []
    for x, s, _, p in pts:
        gp = _loop_grad_p_L(spec, x, s, p)
        m0 = np.einsum("k,kij->ij", p, gp) - eval_L(spec, x, s, p)
        prepared.append((p, 0.5 * (m0 + m0.T), float(np.sqrt(np.sum(gp * gp)))))

    def feasible(c, thetas):
        for p, m0, g in prepared:
            pm = float(np.linalg.norm(p)) ** m
            base = c * np.outer(p, p) - (pm / c) * np.eye(len(p)) - sign * m0
            scale = 1.0 + abs(pm) + float(np.max(np.abs(m0)))
            for theta in thetas:
                v = eigen_sym(base - theta * (Lambda * g - 1.0) * np.eye(len(p))).min()
                if v < -eps * scale:
                    return {"p": p.tolist(), "theta": theta, "C": c, "violation": v}
        return None

    thetas = [2.0**-j for j in range(40, -1, -1)]
    witness = None
    for c in [2.0**j for j in range(-2, 22)]:
        witness = feasible(c, [0.0, thetas[0]])
        if witness is None:
            break
    else:
        return False, None, None, witness
    best = thetas[0]
    for t in thetas[1:]:
        if feasible(c, [t]) is not None:
            break
        best = t
    guard = feasible(c, [0.0, best] + [t for t in thetas if t < best])
    if guard is not None:
        return False, None, None, guard
    return True, c, best, None


@pytest.mark.parametrize("text", ["genL:tanh_quad", "quad:1:1", "quad:1:-1"])
@pytest.mark.parametrize("sign", [1, -1])
def test_stacked_coercivity_fit_matches_per_matrix_loop(text, sign):
    spec = parse_operator(text)
    pts = _probe_points(seed=5, samples=60, R=2.0)
    got = _fit_radial_coercive(spec, *_stack(pts), 8.0, 2.0, sign=sign, eps=1e-9)
    ok, c, theta_bar, witness = _fit_radial_coercive_per_matrix(spec, pts, 8.0, 2.0, sign, 1e-9)
    assert got.ok == ok
    assert got.fitted_C == c and got.fitted_theta_bar == theta_bar
    if witness is None:
        assert got.witness is None
    else:
        for key in ("p", "theta", "C"):
            assert got.witness[key] == witness[key], key
        assert got.witness["violation"] == pytest.approx(witness["violation"], rel=1e-12)


def _padded_points():
    # 40 copies of the p = 0 corner, feasible at every C, ahead of the samples
    pts = _probe_points(seed=5, samples=60, R=2.0)
    return pts[-1:] * 40 + pts


# points, operator, sign, whether the fit passes, the witness sample: the
# probe-L seed-7 points break the theta_bar scan of the tanh_quad fit at
# sample 107; the mirrored fit fails at sample 0 for every C; the padded
# stack's first violation is sample 40
_COERCIVE_EXIT_CASES = {
    "theta-break-past-lead": (lambda: _probe_L_points(2.0, 400, 7), "genL:tanh_quad", 1, True, None),
    "fails-at-sample-0": (lambda: _probe_L_points(2.0, 400, 7), "genL:tanh_quad", -1, False, 0),
    "witness-past-lead": (_padded_points, "genL:tanh_quad", -1, False, 40),
    "passes": (lambda: _probe_points(seed=3, samples=100, R=1.0), "quad:1:1", 1, True, None),
}


@pytest.mark.parametrize("case", sorted(_COERCIVE_EXIT_CASES))
def test_coercivity_fit_early_exit_matches_per_matrix_loop(case):
    make_points, text, sign, ok, first = _COERCIVE_EXIT_CASES[case]
    spec, pts = parse_operator(text), make_points()
    got = _fit_radial_coercive(spec, *_stack(pts), 8.0, 2.0, sign=sign, eps=1e-9)
    want = _fit_radial_coercive_per_matrix(spec, pts, 8.0, 2.0, sign, 1e-9)
    assert _hexed((got.ok, got.fitted_C, got.fitted_theta_bar, got.witness)) == _hexed(want)
    assert got.ok == ok
    if first is not None:
        assert got.witness["p"] == pts[first][3].tolist()
    if case == "theta-break-past-lead":
        # the leading block alone admits a larger theta_bar
        lead = _fit_radial_coercive_per_matrix(spec, pts[:_LEAD_SAMPLES], 8.0, 2.0, sign, 1e-9)
        assert lead[2] > want[2]


def test_coercivity_fits_eigen_solve_each_gap_matrix_once(monkeypatch):
    # each gap matrix at most once, and most checks stop within the leading
    # block: 14,095 matrices for this probe, against 45,313 with whole stacks
    # and the fitted pair solved again
    counted, inside = [0], [False]
    real_eig, real_fit = operators._sym_eigvals, operators._fit_radial_coercive

    def eig(m):
        counted[0] += int(np.prod(np.shape(m)[:-2])) if inside[0] else 0
        return real_eig(m)

    def fit(*args, **kw):
        inside[0] = True
        try:
            return real_fit(*args, **kw)
        finally:
            inside[0] = False

    monkeypatch.setattr(operators, "_sym_eigvals", eig)
    monkeypatch.setattr(operators, "_fit_radial_coercive", fit)
    report = probe_L_conditions(parse_operator("genL:tanh_quad"), R=2.0, Lambda=8.0, m=2.0, samples=400, seed=7)
    assert report.radial_coercive.ok and not report.radial_coercive_sup.ok
    assert 0 < counted[0] < 15_000


# ---------------------------------------------------------------------------
# per-sample replay of probe_L_conditions: the loops the stacked passes
# replaced, kept as their reference


def _loop_grad_x_L(spec, x, s, p, h=1e-6):
    n = len(x)
    if spec.kind in ("quad_const", "rot_inv"):
        return np.zeros((n, n, n))
    step = h * np.eye(n)
    return (eval_L(spec, x + step, s, p) - eval_L(spec, x - step, s, p)) / (2 * h)


def _loop_grad_p_L(spec, x, s, p):
    n = len(p)
    out = np.zeros((n, n, n))
    eye = np.eye(n)
    if spec.kind in ("quad_const", "quad_var"):
        if spec.kind == "quad_const":
            al, be = spec.alpha, spec.beta
        else:
            al, be = _at_node(spec.alpha_fn, x, s), _at_node(spec.beta_fn, x, s)
        for k in range(n):
            out[k] = al * (np.outer(eye[k], p) + np.outer(p, eye[k])) - 2.0 * be * p[k] * eye
        return out
    t = float(np.linalg.norm(p))
    if spec.kind == "rot_inv" and t != 0.0:
        da, db, a = _fd1(spec.a_fn, t), _fd1(spec.b_fn, t), _at_node(spec.a_fn, t)
        for k in range(n):
            out[k] = (
                a * (np.outer(eye[k], p) + np.outer(p, eye[k]))
                + da * (p[k] / t) * np.outer(p, p)
                + db * (p[k] / t) * eye
            )
        return out
    h = 1e-6 * (1.0 + t)
    return (eval_L(spec, x, s, p + h * eye) - eval_L(spec, x, s, p - h * eye)) / (2 * h)


def _loop_fit_radial_coercive(spec, pts, Lambda, m, sign, eps):
    """The coercivity fit with its m0 pass one sample at a time."""
    ps, m0s, gs = [], [], []
    for x, s, _, p in pts:
        gp = _loop_grad_p_L(spec, x, s, p)
        m0 = np.einsum("k,kij->ij", p, gp) - eval_L(spec, x, s, p)
        ps.append(p)
        m0s.append(0.5 * (m0 + m0.T))
        gs.append(float(np.sqrt(np.sum(gp * gp))))
    p_arr, m0_arr = np.array(ps), np.array(m0s)
    pp = p_arr[:, :, None] * p_arr[:, None, :]
    pm = np.array([float(np.linalg.norm(p)) ** m for p in ps])
    floor = -eps * (1.0 + np.abs(pm) + np.abs(m0_arr).max(axis=(1, 2)))
    slope = Lambda * np.array(gs) - 1.0
    eye = np.eye(p_arr.shape[1])

    def feasible(c, thetas):
        base = c * pp - (pm / c)[:, None, None] * eye - sign * m0_arr
        shift = np.array(thetas)[None, :] * slope[:, None]
        low = np.linalg.eigvalsh(base[:, None] - shift[:, :, None, None] * eye)[..., 0]
        bad = np.argwhere(low < floor[:, None])
        if len(bad) == 0:
            return None
        i, t = bad[0]
        return {"p": ps[i].tolist(), "theta": thetas[t], "C": c, "violation": float(low[i, t])}

    thetas = [2.0**-j for j in range(40, -1, -1)]
    witness = None
    for c in [2.0**j for j in range(-2, 22)]:
        witness = feasible(c, [0.0, thetas[0]])
        if witness is None:
            break
    else:
        return (False, None, None, witness)
    best = thetas[0]
    for t in thetas[1:]:
        if feasible(c, [t]) is not None:
            break
        best = t
    guard = feasible(c, [0.0, best] + [t for t in thetas if t < best])
    if guard is not None:
        return (False, None, None, guard)
    return (True, c, best, None)


def _probe_L_points(R, samples, seed, n=3) -> list:
    """The (x, s, s', p) samples probe_L_conditions draws, plus its p = 0 corner."""
    rng = np.random.default_rng(seed)
    pts = []
    for _ in range(samples):
        x = rng.uniform(-1.0, 1.0, size=n)
        s_lo, s_hi = np.sort(rng.uniform(-R, R, size=2))
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        mag = 10.0 ** rng.uniform(-3.0, 3.0)
        pts.append((x, float(s_lo), float(s_hi), mag * direction))
    pts.append((np.zeros(n), 0.0, min(R, 1.0), np.zeros(n)))
    return pts


def _loop_probe(spec, R, Lambda, m, samples, seed, n=3) -> dict:
    """probe_L_conditions one sample at a time: condition -> (ok, C, theta_bar, witness)."""
    pts = _probe_L_points(R, samples, seed, n)
    eps = 1e-9
    out = {}

    worst, witness = 0.0, None
    for x, s, _, p in pts:
        gx = _loop_grad_x_L(spec, x, s, p)
        norm = float(np.sqrt(np.sum(gx * gx)))
        pm = float(np.linalg.norm(p)) ** m
        if pm < 1e-300:
            if norm > 1e-6:
                witness = {"x": x.tolist(), "s": s, "p": p.tolist(), "grad_norm": norm}
                break
            continue
        worst = max(worst, norm / pm)
    out["grad_x_bound"] = (False, None, None, witness) if witness else (True, worst, None, None)

    worst, witness, mono = 0.0, None, None
    for x, s_lo, s_hi, p in pts:
        if s_hi <= s_lo:
            continue
        diff = eval_L(spec, x, s_hi, p) - eval_L(spec, x, s_lo, p)
        scale = 1.0 + float(np.max(np.abs(diff)))
        eig = eigen_sym(diff)
        if eig.min() < -eps * scale and mono is None:
            mono = {"x": x.tolist(), "s": s_lo, "s_prime": s_hi, "p": p.tolist(), "min_eig": eig.min()}
        denom = (s_hi - s_lo) * float(np.linalg.norm(p)) ** m
        if denom < 1e-300:
            if eigen_sym(np.abs(diff)).max() > 1e-6:
                witness = {"x": x.tolist(), "s": s_lo, "s_prime": s_hi, "p": p.tolist()}
            continue
        worst = max(worst, eig.max() / denom)
    out["s_monotone"] = (False, None, None, mono) if mono else (True, None, None, None)
    witness = (witness or mono) if mono is not None else witness
    out["s_growth"] = (False, None, None, witness) if witness else (True, worst, None, None)
    out["radial_coercive"] = _loop_fit_radial_coercive(spec, pts, Lambda, m, +1, eps)
    out["radial_coercive_sup"] = _loop_fit_radial_coercive(spec, pts, Lambda, m, -1, eps)
    return out


def _hexed(v):
    """Floats as hex strings, through witness dicts and lists: bitwise comparison."""
    if isinstance(v, dict):
        return {k: _hexed(u) for k, u in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hexed(u) for u in v]
    return float(v).hex() if isinstance(v, float) else v


def _x_dependent_quad():
    return OperatorSpec.quad_var(lambda x, s: 1.0 + 0.3 * _libm(math.sin, x[..., 0] + s),
                                 lambda x, s: 0.5 + 0.2 * x[..., 1] * x[..., 2], name="x_quad")


def _x_dependent_general():
    # grad_x L = I != 0 at p = 0, and L grows in s at p = 0: both witnesses fire
    def L_fn(x, s, p):
        return (x[..., 0] + s)[..., None, None] * np.eye(p.shape[-1]) + p[..., :, None] * p[..., None, :]

    return OperatorSpec.general_l(L_fn, m=2.0, name="x_general")


_PROBE_SPECS = {
    "conformal": OperatorSpec.conformal,
    "quad:1:1": lambda: parse_operator("quad:1:1"),
    "quad:1:-1": lambda: parse_operator("quad:1:-1"),
    "genL:tanh_quad": lambda: parse_operator("genL:tanh_quad"),
    "x_quad": _x_dependent_quad,
    "rotinv:pow(1,2):neg_t": lambda: parse_operator("rotinv:pow(1,2):neg_t"),
    "rotinv:zero:pow(-1,1.5)": lambda: parse_operator("rotinv:zero:pow(-1,1.5)"),
    "genL:cubic_mix": lambda: parse_operator("genL:cubic_mix"),
    "x_general": _x_dependent_general,
}


@pytest.mark.parametrize(
    "name, seed, samples, R, m",
    [(name, *case) for name in sorted(_PROBE_SPECS) for case in ((0, 30, 2.0, 2.0), (7, 45, 3.0, 10.0))]
    # five samples with |p|^m < 1e-300 besides p = 0: the grad-x witness is the
    # first of them, the s-growth witness the last
    + [("x_general", 2, 400, 1.0, 102.0)],
)
def test_stacked_probe_matches_per_sample_replay(name, seed, samples, R, m):
    spec = _PROBE_SPECS[name]()
    got = probe_L_conditions(spec, R=R, Lambda=8.0, m=m, samples=samples, seed=seed)
    want = _loop_probe(spec, R, 8.0, m, samples, seed)
    for cond, expect in want.items():
        res = getattr(got, cond)
        assert _hexed((res.ok, res.fitted_C, res.fitted_theta_bar, res.witness)) == _hexed(expect), cond


def _nan_beyond_100(x, s, p):
    out = _libm(math.tanh, s)[..., None, None] * (p[..., :, None] * p[..., None, :])
    out[..., 0, 0][np.linalg.norm(p, axis=-1) > 100.0] = math.nan  # LAPACK returns zeros for such a matrix
    return out


def test_probe_rejects_non_finite_L():
    spec = OperatorSpec.general_l(_nan_beyond_100, m=2.0, name="nan_beyond_100")
    with pytest.raises(ValueError, match="finite"):
        probe_L_conditions(spec, R=1.0, Lambda=8.0, m=2.0, samples=40, seed=0)
    # the stacked coercivity check refuses the same matrices on its own
    pts = _probe_points(seed=0, samples=40)
    assert any(np.linalg.norm(p) > 100.0 for *_, p in pts)
    with pytest.raises(ValueError, match="finite"):
        _fit_radial_coercive(spec, *_stack(pts), 8.0, 2.0, sign=1, eps=1e-9)


@pytest.mark.parametrize("sign", [1, -1])
def test_coercivity_fit_rejects_non_finite_L_past_the_leading_block(sign):
    spec = OperatorSpec.general_l(_nan_beyond_100, m=2.0, name="nan_beyond_100")
    # |p| ascending: the NaN samples come last, and every check fails within
    # the leading block, so no eigen-solve ever reaches them
    pts = sorted(_probe_points(seed=0, samples=40), key=lambda q: float(np.linalg.norm(q[3])))
    assert all(np.linalg.norm(q[3]) <= 100.0 for q in pts[:_LEAD_SAMPLES])
    with pytest.raises(ValueError, match="finite"):
        _fit_radial_coercive(spec, *_stack(pts), 8.0, 2.0, sign=sign, eps=1e-9)


def test_probe_rejects_zero_samples():
    with pytest.raises(ValueError):
        probe_L_conditions(OperatorSpec.conformal(), 1.0, 1.0, 2.0, 0, 0)


# ---------------------------------------------------------------------------
# textual forms


def test_operator_text_roundtrip():
    for text in ["conformal", "quad:1:0.5", "quad:-3:2", "genL:cubic_mix", "genL:tanh_quad"]:
        spec = parse_operator(text)
        assert format_operator(spec) == text
    spec = parse_operator("rotinv:zero:neg_t")
    assert format_operator(spec) == "rotinv:zero:neg_t"
    spec = parse_operator("rotinv:zero:pow(-0.3333,0.5)")
    assert spec.b_fn(4.0) == pytest.approx(-0.3333 * 2.0)
    with pytest.raises(ValueError):
        parse_operator("junk")
    with pytest.raises(ValueError):
        parse_operator("genL:nope")
