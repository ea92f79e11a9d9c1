"""Crossing solves, sandwich sweeps, uniqueness and gradient-bound reports."""

import dataclasses
import math

import numpy as np
import pytest

import conedeg.perron as perron_mod
from conedeg.envelopes import GridFn
from conedeg.matcone import (
    ConeClass, ConeSpec, SymMatrix, classify, cone_margin, eigen_sym, parse_cone,
)
from conedeg.operators import Jet2, OperatorSpec, _radial_jets, _sq_norm, eval_F
from conedeg.perron import (
    DirichletProblem,
    SolverConfig,
    box_sandwich_problem,
    perron_solve,
    radial_sandwich_problem,
    solution_csv,
    translation_gradient_bound,
    uniqueness_experiment,
)
from conedeg.viscosity import grid_verify

TRACE = ConeSpec("trace")
LAPLACE = OperatorSpec.quad_const(0.0, 0.0)


def _interval_problem(npts, lo_val, hi_val, F=LAPLACE, U=TRACE, fill=None):
    xs = np.linspace(0.0, 1.0, npts)
    lower = np.full(npts, min(lo_val, hi_val) - 1.0 if fill is None else fill[0])
    upper = np.full(npts, max(lo_val, hi_val) + 1.0 if fill is None else fill[1])
    for arr in (lower, upper):
        arr[0] = lo_val
        arr[-1] = hi_val
    return DirichletProblem(F, U, GridFn(((0.0, 1.0),), lower), GridFn(((0.0, 1.0),), upper)), xs


def _box_problem(F, exact_fn, shape=(17, 17), box=((0.55, 0.95), (0.55, 0.95))):
    # exact field on the box with the product bump of box_sandwich_problem
    (x0, x1), (y0, y1) = box
    X, Y = np.meshgrid(np.linspace(x0, x1, shape[0]), np.linspace(y0, y1, shape[1]),
                       indexing="ij")
    exact = exact_fn(X, Y)
    bump = 2.0 * (X - x0) * (x1 - X) * (Y - y0) * (y1 - Y)
    return DirichletProblem(F, ConeSpec.gamma(1), GridFn(box, exact - bump),
                            GridFn(box, exact + bump), ambient_n=2)


def _fill_box_problem(npts, F):
    # boundary data x + y/2 on the unit square, constant fills inside: the
    # fill nodes away from the edge sit on the cone boundary, so the damped
    # side has no slack there and falls back to a crossing sweep
    xs = np.linspace(0.0, 1.0, npts)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    edge = np.zeros(X.shape, dtype=bool)
    edge[[0, -1], :] = edge[:, [0, -1]] = True
    lower = np.where(edge, X + 0.5 * Y, -1.0)
    upper = np.where(edge, X + 0.5 * Y, 2.5)
    box = ((0.0, 1.0), (0.0, 1.0))
    return DirichletProblem(F, ConeSpec.gamma(1), GridFn(box, lower), GridFn(box, upper))


def _log_box_field(X, Y):
    return np.log(1.0 - np.log(np.hypot(X, Y)))


# ---------------------------------------------------------------------------
# the crossing of one node by bisection: the independent reference for the
# closed-form crossings of the sweep engine and the Newton path


def _stencil_jet(
    center: float,
    neighbors: tuple[tuple[float, float], ...],
    x: np.ndarray,
    spacing: tuple[float, ...],
    mixed: float,
    ambient_n: int | None,
    s: float,
) -> Jet2:
    if len(neighbors) == 1:
        (lo, hi), = neighbors
        h = spacing[0]
        d = (hi - lo) / (2.0 * h)
        dd = (lo + hi - 2.0 * center) / (h * h)
        r = float(x[0])
        if ambient_n not in (None, 1) and r <= 0.0:
            raise ValueError("radial stencils need a positive radius")
        pos, p, H = _radial_jets(r, d, dd, ambient_n or 1)
        return Jet2(pos, s, p, SymMatrix.from_dense(H))
    (w, e), (so, no) = neighbors
    hx, hy = spacing
    p = np.array([(e - w) / (2.0 * hx), (no - so) / (2.0 * hy)])
    H = np.array(
        [
            [(w + e - 2.0 * center) / (hx * hx), mixed],
            [mixed, (so + no - 2.0 * center) / (hy * hy)],
        ]
    )
    return Jet2(x[:2], s, p, SymMatrix.from_dense(H))


def pointwise_root(
    neighbors,
    F: OperatorSpec,
    U: ConeSpec,
    bracket: tuple[float, float],
    *,
    x=None,
    spacing=1.0,
    mixed: float = 0.0,
    ambient_n: int | None = None,
    s_init: float | None = None,
    depth: int = 60,
    tol: float = 1e-9,
) -> float:
    """Center value at which the discrete operator crosses the cone boundary.

    neighbors: (lo, hi) for one axis, or a pair of such pairs for a 2D
    stencil (mixed carries the cross second difference, which does not
    involve the center).  The bracket endpoints must classify on opposite
    sides of the cone; raising the center lowers the discrete Hessian, so
    the crossing is unique and bisection to `depth` finds it.  For operators
    whose lower-order term depends on the field value, the value argument is
    frozen, re-frozen after two fixed-point passes, then bisected once more.
    """
    nb = tuple(neighbors)
    if len(nb) == 2 and np.isscalar(nb[0]):
        nb = (tuple(float(v) for v in nb),)
    else:
        nb = tuple((float(a), float(b)) for a, b in nb)
    if len(nb) not in (1, 2):
        raise ValueError("neighbors must cover one or two axes")
    if len(nb) == 2 and ambient_n not in (None, 2):
        raise ValueError("2D stencils are ambient: ambient_n must be 2 or omitted")
    sp = (float(spacing),) * len(nb) if np.isscalar(spacing) else tuple(float(h) for h in spacing)
    if len(sp) != len(nb) or any(h <= 0 for h in sp):
        raise ValueError("spacing must give one positive step per axis")
    pos = np.zeros(2) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ValueError("bracket must satisfy lo < hi")

    def margin(c: float, s: float) -> float:
        j = _stencil_jet(c, nb, pos, sp, mixed, ambient_n, s)
        return cone_margin(eigen_sym(eval_F(j, F)), U)

    def bisect(s: float) -> float:
        m_lo = margin(lo, s)
        m_hi = margin(hi, s)
        if m_lo < -tol or m_hi > tol:
            raise ValueError(
                "bracket endpoints must straddle the cone boundary "
                f"(margins {m_lo:.3g} and {m_hi:.3g})"
            )
        a, b = lo, hi
        for _ in range(depth):
            mid = 0.5 * (a + b)
            if margin(mid, s) >= 0.0:
                a = mid
            else:
                b = mid
        return 0.5 * (a + b)

    if F.kind in ("quad_var", "isotropic", "general_l"):
        s = 0.5 * (lo + hi) if s_init is None else float(s_init)
        for _ in range(2):
            s = bisect(s)
        return bisect(s)
    return bisect(0.0)


# ---------------------------------------------------------------------------
# pointwise crossing


def test_root_laplace_midpoint():
    c = pointwise_root((0.2, 0.8), LAPLACE, TRACE, (0.0, 1.0))
    assert c == pytest.approx(0.5, abs=1e-12)


def test_root_quad_scalar_closed_form():
    a, b, h, alpha, beta = 0.3, 0.9, 0.05, 1.0, 0.25
    p = (b - a) / (2 * h)
    want = 0.5 * (a + b) + 0.5 * h * h * (alpha - beta) * p * p
    got = pointwise_root(
        (a, b), OperatorSpec.quad_const(alpha, beta), TRACE, (-5.0, 5.0), spacing=h
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_root_radial_closed_form():
    a, b, h, r = 0.61, 0.58, 1e-3, 0.75
    p = (b - a) / (2 * h)
    want = 0.5 * (a + b) + 0.5 * h * h * (2 * p / r + p * p)
    got = pointwise_root(
        (a, b), OperatorSpec.quad_const(1.0, 0.0), TRACE, (0.0, 1.0),
        x=r, spacing=h, ambient_n=3,
    )
    assert got == pytest.approx(want, abs=1e-10)


def test_root_center_classifies_boundary():
    F = OperatorSpec.quad_const(1.0, 0.5)
    c = pointwise_root((0.2, 0.9), F, TRACE, (-4.0, 4.0), spacing=0.1)
    h = 0.1
    j = _stencil_jet(c, ((0.2, 0.9),), np.zeros(1), (h,), 0.0, None, 0.0)
    cls, _ = classify(eval_F(j, F), TRACE, tol=1e-6)
    assert cls is ConeClass.BOUNDARY


def test_root_monotone_in_neighbors():
    F = OperatorSpec.quad_const(1.0, 0.3)
    base = pointwise_root((0.4, 0.6), F, TRACE, (-5.0, 5.0), spacing=0.05)
    for bump in (1e-3, 1e-2, 0.1):
        up_a = pointwise_root((0.4 + bump, 0.6), F, TRACE, (-5.0, 5.0), spacing=0.05)
        up_b = pointwise_root((0.4, 0.6 + bump), F, TRACE, (-5.0, 5.0), spacing=0.05)
        assert up_a >= base - 1e-12
        assert up_b >= base - 1e-12


def test_root_2d_stencil():
    # Laplace crossing: (W+E)/hx^2 + (S+N)/hy^2 = 2c (1/hx^2 + 1/hy^2)
    W, E, S, N = 0.1, 0.5, 0.2, 0.6
    hx, hy = 0.1, 0.2
    want = ((W + E) / hx**2 + (S + N) / hy**2) / (2 / hx**2 + 2 / hy**2)
    got = pointwise_root(((W, E), (S, N)), LAPLACE, TRACE, (-5.0, 5.0), spacing=(hx, hy))
    assert got == pytest.approx(want, abs=1e-10)


def test_root_value_dependent_term_fixed_point():
    # L = s I in one variable: crossing solves (a+b-2c)/h^2 + c = 0
    h, a, b = 0.1, 0.3, 0.7
    F = OperatorSpec.general_l(lambda x, s, p: np.array([[s]]), m=2.0)
    got = pointwise_root((a, b), F, TRACE, (-10.0, 10.0), spacing=h)
    assert got == pytest.approx((a + b) / (2.0 - h * h), rel=1e-6)


def test_root_bracket_error():
    with pytest.raises(ValueError):
        pointwise_root((0.2, 0.8), LAPLACE, TRACE, (0.9, 1.5))  # both outside
    with pytest.raises(ValueError):
        pointwise_root((0.2, 0.8), LAPLACE, TRACE, (1.0, 0.0))  # lo >= hi


def test_root_input_validation():
    with pytest.raises(ValueError):
        pointwise_root((0.2, 0.8), LAPLACE, TRACE, (0.0, 1.0), spacing=0.0)
    with pytest.raises(ValueError):
        pointwise_root(((0, 1), (0, 1)), LAPLACE, TRACE, (0.0, 1.0), ambient_n=3)
    with pytest.raises(ValueError):
        pointwise_root((0.2, 0.8), LAPLACE, TRACE, (0.0, 1.0), x=0.0, ambient_n=3)


# ---------------------------------------------------------------------------
# problem and config validation


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(tol=0.0)
    with pytest.raises(ValueError):
        SolverConfig(max_sweeps=0)


def test_problem_validation():
    xs = np.linspace(0, 1, 11)
    lo = GridFn(((0, 1),), xs)
    hi = GridFn(((0, 1),), xs + 0.5)
    with pytest.raises(ValueError):  # boundary values disagree
        DirichletProblem(LAPLACE, TRACE, lo, hi)
    hi2 = np.array(xs)
    hi2[1:-1] += 1.0
    bad_order = np.array(xs)
    bad_order[5] += 2.0
    with pytest.raises(ValueError):  # sub above sup
        DirichletProblem(LAPLACE, TRACE, GridFn(((0, 1),), bad_order), GridFn(((0, 1),), hi2))
    with pytest.raises(ValueError):  # different boxes
        DirichletProblem(LAPLACE, TRACE, lo, GridFn(((0, 2),), xs))
    masked = np.array(xs)
    masked[4] = np.inf
    with pytest.raises(ValueError):  # masks must match
        DirichletProblem(LAPLACE, TRACE, GridFn(((0, 1),), masked), GridFn(((0, 1),), hi2))
    with pytest.raises(ValueError):  # radial grid must stay off the origin
        DirichletProblem(
            LAPLACE, TRACE, GridFn(((0.0, 1.0),), xs), GridFn(((0.0, 1.0),), hi2), ambient_n=3
        )
    with pytest.raises(ValueError):  # cone pinned to the wrong dimension
        DirichletProblem(LAPLACE, ConeSpec.gamma(1, n=3), lo, GridFn(((0, 1),), hi2))
    walled = GridFn(((0, 1),), np.array([0.0, np.inf, 0.0]))
    with pytest.raises(ValueError, match="the domain has no interior nodes"):
        DirichletProblem(LAPLACE, TRACE, walled, walled)


def test_problem_roles_with_mask():
    vals = np.zeros((7, 7))
    vals[3, 3] = np.inf
    g = GridFn(((0, 1), (0, 1)), vals)
    P = DirichletProblem(LAPLACE, TRACE, g, g.with_values(vals.copy()))
    assert not P.interior_mask[3, 3]
    assert P.boundary_mask[3, 2] and P.boundary_mask[2, 3]
    assert P.interior_mask[1, 1]
    assert P.sup.values[P.boundary_mask].shape[0] == 24 + 4


# ---------------------------------------------------------------------------
# solving


def test_solve_1d_laplace_linear():
    P, xs = _interval_problem(41, 0.0, 1.0)
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=100_000))
    assert res.converged and res.monotone_ok and res.sandwich_ok
    assert np.abs(res.u.values - xs).max() <= 1e-10
    assert res.residual.consistent_solution
    assert res.sweeps > 0


def test_solve_ascending_matches():
    P, xs = _interval_problem(41, 0.0, 1.0)
    cfg = SolverConfig(tol=1e-9, max_sweeps=100_000)
    up = perron_solve(P, cfg, direction="ascending")
    assert up.converged and up.monotone_ok
    assert np.abs(up.u.values - xs).max() <= 1e-10
    with pytest.raises(ValueError):
        perron_solve(P, cfg, direction="down")


def test_newton_matches_sweeps(monkeypatch):
    # the Newton path against the reference red-black sweeps, b = alpha - n beta
    # positive (radial, 2D boxes) and negative (interval), so both step rules
    # run, and on 2D fills whose damped side falls back to a sweep; the
    # second box has unequal sides, node counts and spacings
    radial, _ = radial_sandwich_problem(101)
    interval, _ = _interval_problem(41, 0, 1, F=OperatorSpec.quad_const(0.0, 1.0))
    box, _ = box_sandwich_problem(33)
    oblong = _box_problem(OperatorSpec.quad_const(1.0, 0.0), _log_box_field,
                          shape=(21, 13), box=((0.55, 0.95), (0.6, 0.8)))
    fill_up = _fill_box_problem(17, OperatorSpec.quad_const(1.0, 0.0))
    fill_down = _fill_box_problem(17, OperatorSpec.quad_const(0.0, 0.5))
    cfg = SolverConfig(tol=1e-6, max_sweeps=20_000)
    runs = [(P, d) for P in (radial, interval, box, oblong) for d in ("descending", "ascending")]
    runs += [(fill_up, "descending"), (fill_down, "ascending")]
    fast = [perron_solve(P, cfg, direction=d) for P, d in runs]
    assert [r.path for r in fast[4:]] == ["newton"] * 4 + ["newton+sweep"] * 2
    monkeypatch.setattr(perron_mod, "_newton_applies", lambda *args: False)
    for (P, d), newton in zip(runs, fast):
        sweep = perron_solve(P, cfg, direction=d)
        assert sweep.path == "sweep"
        assert newton.converged and sweep.converged
        assert newton.monotone_ok and sweep.monotone_ok
        assert newton.sweeps < sweep.sweeps  # the Newton path did run
        assert np.abs(newton.u.values - sweep.u.values).max() <= 10 * cfg.tol


@pytest.mark.parametrize("direction, path", [("descending", "newton+sweep"),
                                             ("ascending", "newton")])
def test_conformal_newton_matches_quad_one_half(direction, path):
    # the conformal operator on the Newton path, b = 1 - 1/2 > 0: the named
    # operator and quad_const(1, 1/2) take the same steps to the same field
    xs = np.linspace(0.0, 1.0, 41)
    bump = 0.5 * xs * (1.0 - xs)
    runs = []
    for F in (OperatorSpec.conformal(), OperatorSpec.quad_const(1.0, 0.5)):
        P = DirichletProblem(F, TRACE, GridFn(((0.0, 1.0),), xs - bump),
                             GridFn(((0.0, 1.0),), xs + bump))
        runs.append(perron_solve(P, SolverConfig(tol=1e-8), direction=direction))
    conf, quad = runs
    assert conf.path == quad.path == path
    assert conf.sweeps == quad.sweeps
    assert conf.converged and quad.converged
    assert conf.monotone_ok == quad.monotone_ok and conf.sandwich_ok == quad.sandwich_ok
    assert conf.u.values.tobytes() == quad.u.values.tobytes()
    assert conf.last_update.hex() == quad.last_update.hex()
    assert conf.residual.rows.tobytes() == quad.residual.rows.tobytes()


def _rising_annulus(npts):
    # the radial annulus turned upside down: the profile rises, so the
    # tangent entries p_0 / r are positive and the positive cone does not
    # send every node to the lower field
    P, _ = radial_sandwich_problem(npts)
    return dataclasses.replace(P, sub=P.sup.with_values(-P.sup.values),
                               sup=P.sub.with_values(-P.sub.values))


# geometry -> (the problem for a given operator, sweep cap)
CALLABLE_SWEEP_PROBLEMS = {
    "interval": (lambda F: _interval_problem(41, 0, 1, F=F)[0], 40),
    "radial": (lambda F: dataclasses.replace(_rising_annulus(41), F=F), 40),
    "box": (lambda F: _fill_box_problem(17, F), 10),
}


@pytest.mark.parametrize("cone", ["trace", "posdef"])
@pytest.mark.parametrize("which", sorted(CALLABLE_SWEEP_PROBLEMS))
def test_callable_kinds_sweep_like_quad_const(monkeypatch, which, cone):
    # every operator kind reaches the crossing through eval_L: quad_var and
    # general_l operators equal to quad_const(alpha, beta) give bitwise its
    # field, sweep count and last move; rot_inv forms |p|^2 as a squared
    # square root, so it agrees within 10 tol.  The runs are capped to keep
    # them cheap, and most nodes are still strictly inside
    # the sandwich there, so the crossings, not the clamps, set the field
    monkeypatch.setattr(perron_mod, "_newton_applies", lambda *args: False)
    alpha, beta = 1.0, 0.25

    def L_fn(x, s, p):
        pp, p2 = p[..., :, None] * p[..., None, :], _sq_norm(p)[..., None, None]
        return alpha * pp - beta * p2 * np.eye(p.shape[-1])

    build, cap = CALLABLE_SWEEP_PROBLEMS[which]
    U = TRACE if cone == "trace" else ConeSpec.posdef()
    cfg = SolverConfig(tol=1e-6, max_sweeps=cap)

    def solve(F):
        return perron_solve(dataclasses.replace(build(F), U=U), cfg)

    ref = solve(OperatorSpec.quad_const(alpha, beta))
    assert ref.path == "sweep" and ref.sweeps == cap
    if which == "interval" and cone == "posdef":
        # 1 x 1 matrices: the positive cone sweeps as the trace cone, bitwise,
        # so the twins would replay [interval-trace]
        tr = perron_solve(build(OperatorSpec.quad_const(alpha, beta)), cfg)
        assert (tr.sweeps, tr.converged, tr.last_update.hex()) == (ref.sweeps, ref.converged,
                                                                   ref.last_update.hex())
        assert tr.u.values.tobytes() == ref.u.values.tobytes()
        return
    P = build(OperatorSpec.quad_const(alpha, beta))
    inside = (ref.u.values > P.sub.values) & (ref.u.values < P.sup.values)
    assert inside[P.interior_mask].mean() >= 0.25
    twins = [OperatorSpec.quad_var(lambda x, s: alpha, lambda x, s: beta)]
    if not (which == "radial" and cone == "posdef"):  # rejected, see below
        twins.append(OperatorSpec.general_l(L_fn, 2.0))
    for F in twins:
        res = solve(F)
        assert (res.sweeps, res.converged, res.last_update) == (ref.sweeps, ref.converged,
                                                                 ref.last_update), F.kind
        assert np.array_equal(res.u.values, ref.u.values), F.kind
    res = solve(OperatorSpec.rot_inv(lambda t: alpha, lambda t: -beta * t * t))
    assert res.sweeps == ref.sweeps
    assert np.abs(res.u.values - ref.u.values).max() <= 10 * cfg.tol


def _replay_sweep(P: DirichletProblem, u: np.ndarray) -> np.ndarray:
    """One red-black sweep of u, node by node: each node of a group moves to
    the pointwise_root crossing of its stencil in the field before that
    group, started from its own value, and is clamped into the sandwich.  On
    a radial grid in the positive cone a node none of whose centers is in the
    cone (a tangent entry negative for the value of some pass) goes to the
    lower field."""
    u = u.copy()
    h = P.sub.h
    nodes = np.argwhere(P.interior_mask)
    for parity in (1, 0):
        moved = []
        for node in nodes[nodes.sum(axis=1) % 2 == parity]:
            i = tuple(node)
            if u.ndim == 1:
                nb, mixed = (u[i[0] - 1], u[i[0] + 1]), 0.0
            else:
                a, b = i
                nb = ((u[a - 1, b], u[a + 1, b]), (u[a, b - 1], u[a, b + 1]))
                mixed = (u[a + 1, b + 1] + u[a - 1, b - 1] - u[a - 1, b + 1]
                         - u[a + 1, b - 1]) * (0.25 / (h[0] * h[1]))
            try:
                root = pointwise_root(nb, P.F, P.U, (-50.0, 50.0), x=P.sub.node_coords()[
                    np.ravel_multi_index(i, u.shape)], spacing=h, mixed=mixed,
                    ambient_n=P.ambient_n, s_init=u[i])
            except ValueError as err:
                if not (u.ndim == 1 and P.ambient_n > 1 and "straddle" in str(err)):
                    raise
                root = -np.inf
            moved.append((i, min(max(root, P.sub.values[i]), P.sup.values[i])))
        for i, value in moved:
            u[i] = value
    return u


# operators whose lower-order term reads the field value, and the geometries
# and cones their capped runs are replayed on
VALUE_DEPENDENT = {
    "quad_var": OperatorSpec.quad_var(lambda x, s: 1.0 + np.tanh(s), lambda x, s: 0.25),
    "isotropic": OperatorSpec.isotropic(lambda s, t2: s * np.sqrt(1.0 + t2), m=1.0),
    # +inf at s = +-inf: a node sent to -inf and then evaluated there would
    # jump to the upper field
    "isotropic_even": OperatorSpec.isotropic(lambda s, t2: (s * s - 1.2) * np.sqrt(1.0 + t2),
                                             m=1.0),
}
VALUE_REPLAY_PROBLEMS = {
    "interval": lambda F: _interval_problem(17, 0, 1, F=F)[0],
    "box": lambda F: _fill_box_problem(7, F),
    "box_posdef": lambda F: dataclasses.replace(_fill_box_problem(7, F), U=ConeSpec.posdef()),
    "radial_posdef": lambda F: dataclasses.replace(_rising_annulus(21), F=F,
                                                   U=ConeSpec.posdef()),
}


@pytest.mark.parametrize("kind, which", [("quad_var", "interval"), ("quad_var", "box_posdef"),
                                         ("isotropic", "interval"), ("isotropic", "box"),
                                         ("isotropic_even", "radial_posdef")])
def test_value_dependent_sweeps_replay_pointwise_roots(kind, which):
    # the second sweep of a run capped at two, from a random field inside
    # the sandwich, replayed node by node: the value read by L is taken from
    # the node, then from the crossing twice, as pointwise_root does it.  The
    # field is far from its limit, so fewer fixed-point passes would land
    # visibly elsewhere.  On the radial grid in the positive cone some nodes
    # have a negative tangent entry and go to -inf, where they must stay
    P = VALUE_REPLAY_PROBLEMS[which](VALUE_DEPENDENT[kind])
    rng = np.random.default_rng(5)
    lo, hi = P.sub.values, P.sup.values
    start = P.sub.with_values(lo + rng.uniform(0.1, 0.9, lo.shape) * (hi - lo))
    first, second = (perron_solve(P, SolverConfig(tol=1e-12, max_sweeps=cap), start=start)
                     for cap in (1, 2))
    assert second.path == "sweep" and second.sweeps == 2 and not second.converged
    want = _replay_sweep(P, first.u.values)
    assert np.abs(second.u.values - want).max() <= 1e-10
    # the sweep moved the field by far more than that
    assert np.abs(want - first.u.values).max() > 1e-2


def test_radial_positive_cone_rejects_general_l():
    # a general lower-order term need not keep the radial jet diagonal, so
    # the positive cone's radial crossing would be wrong: the solve raises
    P = _rising_annulus(41)
    F = OperatorSpec.general_l(lambda x, s, p: np.outer(p, p), 2.0)
    for U in (ConeSpec.posdef(), ConeSpec.gamma(3)):
        with pytest.raises(ValueError, match="not supported on radial grids"):
            perron_solve(dataclasses.replace(P, F=F, U=U), SolverConfig())


@pytest.mark.parametrize("direction", ["descending", "ascending"])
@pytest.mark.parametrize("which", ["radial", "interval"])
def test_newton_nodes_are_pointwise_crossings(which, direction):
    # each interior node of a converged Newton run is the crossing of its own
    # two neighbours, found independently by bisection over the sandwich;
    # b = alpha - n beta is 1 on the radial problem and -1 on the interval
    if which == "radial":
        P, _ = radial_sandwich_problem(101)
    else:
        P, _ = _interval_problem(41, 0, 1, F=OperatorSpec.quad_const(0.0, 1.0))
    cfg = SolverConfig(tol=1e-8, max_sweeps=200_000)
    assert perron_mod._newton_applies(P, "trace")
    res = perron_solve(P, cfg, direction=direction)
    assert res.converged
    u, xs, h = res.u.values, P.sub.axis_nodes(0), P.sub.h[0]
    bound = cfg.tol / perron_mod._margin_slope(P) + 1e-12
    for i in range(1, len(u) - 1):
        root = pointwise_root(
            (u[i - 1], u[i + 1]), P.F, P.U, (P.sub.values[i], P.sup.values[i]),
            x=xs[i], spacing=h, ambient_n=P.ambient_n,
        )
        assert abs(u[i] - root) <= bound, i


@pytest.mark.parametrize("alpha, beta", [(1.0, 0.0), (0.0, 1.0), (0.0, 0.0)])
@pytest.mark.parametrize("direction, side", [("descending", 1.0), ("ascending", -1.0)])
def test_newton_iterates_stay_on_their_side(alpha, beta, direction, side):
    # capped runs replay the iterates: each must be a discrete supersolution
    # (descending, margin <= 0) or subsolution (ascending, margin >= 0) and
    # lie on the run's side of the previous one, for b = alpha - beta of
    # either sign and zero
    P, _ = _interval_problem(41, 0, 1, F=OperatorSpec.quad_const(alpha, beta))
    prev = P.sup.values if direction == "descending" else P.sub.values
    for cap in range(1, 200):
        res = perron_solve(P, SolverConfig(tol=1e-6, max_sweeps=cap), direction=direction)
        margins = grid_verify(res.u, P.F, P.U).rows["margin"]
        assert (side * margins).max() <= 1e-9
        assert (side * (res.u.values - prev)).max() <= perron_mod._MONOTONE_SLACK
        prev = res.u.values
        if res.converged:
            break
    assert res.converged


@pytest.mark.parametrize("which, path", [
    ("box9", "newton"), ("radial41", "newton"), ("box9_posdef", "sweep"),
])
def test_ascending_run_from_the_top_is_not_monotone(which, path):
    # started at sup, an ascending run can only move down: the monotone check
    # of the ascending branch must see it, on the Newton and the sweep path
    P = {
        "box9": lambda: box_sandwich_problem(9)[0],
        "radial41": lambda: radial_sandwich_problem(41)[0],
        "box9_posdef": lambda: dataclasses.replace(box_sandwich_problem(9)[0], U=ConeSpec.posdef()),
    }[which]()
    res = perron_solve(P, SolverConfig(), direction="ascending", start=P.sup)
    assert res.path.startswith(path)
    assert not res.monotone_ok


NEWTON_2D_PROBLEMS = {
    # b = alpha - 2 beta: exp(u) and exp(-2 u) are log-harmonic, u is harmonic
    "b_pos": lambda: box_sandwich_problem(17)[0],
    "b_neg": lambda: _box_problem(OperatorSpec.quad_const(0.0, 1.0),
                                  lambda X, Y: -0.5 * _log_box_field(X, Y)),
    "b_zero": lambda: _box_problem(LAPLACE, lambda X, Y: X * X - Y * Y),
    "fill_b_pos": lambda: _fill_box_problem(17, OperatorSpec.quad_const(1.0, 0.0)),
    "fill_b_neg": lambda: _fill_box_problem(17, OperatorSpec.quad_const(0.0, 0.5)),
}


@pytest.mark.parametrize("which", sorted(NEWTON_2D_PROBLEMS))
@pytest.mark.parametrize("direction, side", [("descending", 1.0), ("ascending", -1.0)])
def test_newton_iterates_stay_on_their_side_2d(which, direction, side):
    # the 2D replay: every capped iterate is a discrete supersolution
    # (descending) or subsolution (ascending) and lies on the run's side of
    # the previous one; the fills take the sweep fallback on the damped side
    P = NEWTON_2D_PROBLEMS[which]()
    assert grid_verify(P.sup, P.F, P.U).consistent_super
    assert grid_verify(P.sub, P.F, P.U).consistent_sub
    assert perron_mod._newton_applies(P, "trace")
    prev = P.sup.values if direction == "descending" else P.sub.values
    for cap in range(1, 200):
        res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=cap), direction=direction)
        margins = grid_verify(res.u, P.F, P.U).rows["margin"]
        assert (side * margins).max() <= 2e-12
        assert (side * (res.u.values - prev)).max() <= perron_mod._MONOTONE_SLACK
        prev = res.u.values
        if res.converged:
            break
    assert res.converged and res.path in ("newton", "newton+sweep")


@pytest.mark.parametrize("which", ["b_pos", "b_neg"])
def test_trace_crossing_step_identity_2d(which):
    # along a Newton direction d, G(u + t d) = (1 - t) G(u) - b t^2 |p(d)|^2 / S
    # holds exactly on the 5-point stencil; the damped step is the largest t
    # that keeps half of every node's slack, checked against the curvature of
    # G measured by a second difference along d and along a random direction
    P = NEWTON_2D_PROBLEMS[which]()
    tc = perron_mod._TraceCrossing(P)
    S = perron_mod._margin_slope(P)
    rng = np.random.default_rng(0)
    for u, side in ((P.sup.values, 1.0), (P.sub.values, -1.0)):
        g = tc.residual(u)
        d, _ = tc.newton_direction(u, g)
        pd2 = sum(pa * pa for pa in tc.slopes(d))
        for t in (0.25, 0.5, 1.0):
            want = (1.0 - t) * g - tc.b * t * t * pd2 / S
            np.testing.assert_allclose(tc.residual(u + t * d), want, rtol=0, atol=1e-13)
        slack = np.maximum(side * g, 0.0)
        noise = np.zeros_like(u)
        noise[1:-1, 1:-1] = rng.normal(size=g.shape) * np.abs(d).max()
        for e in (d, noise):
            quad = np.abs(tc.residual(u + e) + tc.residual(u - e) - 2.0 * g) / 2.0
            # the positive root of quad t^2 + slack t / 2 - slack / 2 per node
            roots = slack / (0.5 * slack + np.sqrt(0.25 * slack * slack + 2.0 * quad * slack))
            assert tc.damped_step(e, slack) == pytest.approx(min(1.0, roots.min()), rel=1e-9)


def _solve_block_tridiagonal(lower, upper, rhs):
    """x with x + sum_a (lower[a] x_-a + upper[a] x_+a) = rhs on an (m0, m1) grid.

    The dense-solve oracle for the 2D Newton direction.  x_-a and x_+a are
    the neighbours along axis a; couplings that reach past the grid multiply
    nothing.  Block Thomas elimination over the axis-0 lines: each diagonal
    block is tridiagonal (the axis-1 couplings), each off-diagonal block is
    diagonal (the axis-0 couplings), and each line is one LAPACK solve with
    m1 + 1 right-hand sides.  A singular block yields NaN.
    """
    (lo0, lo1), (up0, up1) = lower, upper
    m0, m1 = rhs.shape
    # after the forward pass line i reads x_i + ratio[i] x_(i+1) = x[i]
    ratio = np.empty((m0, m1, m1))
    x = np.empty((m0, m1))
    k = np.arange(m1)
    block_rhs = np.zeros((m1, m1 + 1))
    for i in range(m0):
        if i:
            block = lo0[i][:, None] * -ratio[i - 1]
            block_rhs[:, m1] = rhs[i] - lo0[i] * x[i - 1]
        else:
            block = np.zeros((m1, m1))
            block_rhs[:, m1] = rhs[0]
        block[k, k] += 1.0
        block[k[1:], k[:-1]] += lo1[i, 1:]
        block[k[:-1], k[1:]] += up1[i, :-1]
        block_rhs[k, k] = up0[i]
        try:
            sol = np.linalg.solve(block, block_rhs)
        except np.linalg.LinAlgError:
            return np.full((m0, m1), np.nan)
        ratio[i] = sol[:, :m1]
        x[i] = sol[:, m1]
    for i in range(m0 - 2, -1, -1):
        x[i] -= ratio[i] @ x[i + 1]
    return x


def _block_thomas_direction(tc, u, g):
    # the 2D Newton direction by the oracle, its couplings formed from the
    # slopes of u as the solver formed them before its Krylov solve, and the
    # error e = G'(u) d + g that the run charges
    lower, upper = [], []
    for pa, h, wt in zip(tc.slopes(u), tc.h, tc.weight):
        k = 0.5 * h * wt * 2.0 * tc.b * pa
        lower.append(k - wt)
        upper.append(-wt - k)
    d = np.zeros_like(u)
    d[1:-1, 1:-1] = _solve_block_tridiagonal(lower, upper, -g)
    return d, tc.jacobian(d[1:-1, 1:-1]) + g


def _oblong_problem():
    return _box_problem(OperatorSpec.quad_const(1.0, 0.0), _log_box_field,
                        shape=(21, 13), box=((0.55, 0.95), (0.6, 0.8)))


def test_block_tridiagonal_solve_matches_dense():
    # the oracle against a dense LAPACK solve of the same 5-point system on a
    # non-square grid; a singular line block yields NaN
    rng = np.random.default_rng(3)
    m0, m1 = 6, 4
    lo0, lo1, up0, up1 = (rng.uniform(-0.3, 0.3, (m0, m1)) for _ in range(4))
    rhs = rng.normal(size=(m0, m1))
    dense = np.eye(m0 * m1)
    for i in range(m0):
        for j in range(m1):
            row = i * m1 + j
            for (di, dj), coef in (((-1, 0), lo0), ((1, 0), up0), ((0, -1), lo1), ((0, 1), up1)):
                if 0 <= i + di < m0 and 0 <= j + dj < m1:
                    dense[row, (i + di) * m1 + j + dj] = coef[i, j]
    want = np.linalg.solve(dense, rhs.ravel()).reshape(m0, m1)
    got = _solve_block_tridiagonal((lo0, lo1), (up0, up1), rhs)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12)
    lo1[0, 1], up1[0, 0] = 1.0, 1.0  # first line block [[1, 1], [1, 1], ...]
    lo1[0, 2:], up1[0, 1:] = 0.0, 0.0
    lo0[0] = 0.0
    singular = _solve_block_tridiagonal((lo0, lo1), (up0, up1), rhs)
    assert np.isnan(singular).all()


def test_dst1_matches_the_sine_sum():
    # the rfft route against the defining sum, on an odd and an even length
    rng = np.random.default_rng(5)
    for m in (7, 12):
        x = rng.normal(size=(3, m))
        j = np.arange(1, m + 1)
        want = x @ np.sin(np.pi * np.outer(j, j) / (m + 1))
        np.testing.assert_allclose(perron_mod._dst1(x), want, rtol=0, atol=1e-13)
        np.testing.assert_allclose(perron_mod._dst1(perron_mod._dst1(x)), 0.5 * (m + 1) * x,
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("which", ["box33", "box65", "box129", "oblong"])
def test_krylov_direction_matches_block_thomas(which):
    # the first Newton systems of both runs, solved by GMRES with the DST-I
    # preconditioner and by block-Thomas elimination; the oblong box has
    # h_0 != h_1 and unequal node counts
    P = _oblong_problem() if which == "oblong" else box_sandwich_problem(int(which[3:]))[0]
    tc = perron_mod._TraceCrossing(P)
    for u in (P.sup.values, P.sub.values):
        g = tc.residual(u)
        d, _ = tc.newton_direction(u, g)
        want, _ = _block_thomas_direction(tc, u, g)
        assert np.abs(d - want).max() <= 1e-10 * np.abs(want).max()


def _count_matvecs(tc):
    calls = []
    jacobian = tc.jacobian

    def counted(x):
        calls.append(1)
        return jacobian(x)

    tc.jacobian = counted
    return calls


def test_krylov_iterations_do_not_grow_with_the_grid():
    # the DST-I preconditioner inverts the Laplacian part exactly, so the
    # Krylov solve takes as many matrix-vector products at 257^2 as at 33^2
    counts = []
    for npts in (33, 257):
        P = box_sandwich_problem(npts)[0]
        tc = perron_mod._TraceCrossing(P)
        g = tc.residual(P.sup.values)
        calls = _count_matvecs(tc)
        d, e = tc.newton_direction(P.sup.values, g)
        assert np.isfinite(d).all()
        assert np.linalg.norm(e) <= perron_mod._KRYLOV_TOL * np.linalg.norm(d) * (1.0 + 1e-6)
        counts.append(len(calls))
    assert max(counts) <= 12 and counts[1] <= counts[0] + 1


@pytest.mark.parametrize("which, side, bare_breaks", [("b_pos", 1.0, True),
                                                     ("b_neg", -1.0, False)])
def test_truncated_krylov_step_keeps_half_the_slack(monkeypatch, which, side, bare_breaks):
    # on the damped side a solve stopped far short of its target still gives
    # a step t that keeps (1 - t) / 2 of every node's slack: damped_step
    # charges t |e| for the error e = G'(u) d + g.  Left uncharged, the step
    # breaks that bound where e points off the run's side (b_pos here)
    monkeypatch.setattr(perron_mod, "_KRYLOV_TOL", 1e-3)
    P = NEWTON_2D_PROBLEMS[which]()
    tc = perron_mod._TraceCrossing(P)
    u = P.sup.values if side > 0 else P.sub.values
    g = tc.residual(u)
    assert side * tc.b > 0.0
    d, e = tc.newton_direction(u, g)
    slack = np.maximum(side * g, 0.0)
    assert np.abs(e).max() > 1e-3 * slack.max()  # far from exact
    t = tc.damped_step(d, slack, np.abs(e))
    assert 0.0 < t < 1.0
    kept = side * tc.residual(u + t * d)
    assert np.all(kept >= 0.5 * (1.0 - t) * slack - 1e-15)
    bare = tc.damped_step(d, slack)
    broken = side * tc.residual(u + bare * d) < 0.5 * (1.0 - bare) * slack - 1e-15
    assert broken.any() == bare_breaks


@pytest.mark.parametrize("which, direction, side", [("b_pos", "ascending", -1.0),
                                                    ("b_neg", "descending", 1.0)])
def test_truncated_krylov_undamped_side_takes_shortened_steps(monkeypatch, which, direction, side):
    # on the undamped side a solve error that leaves the run's side by more
    # than eps max|u| shortens the step rather than refusing it: the capped
    # runs take Newton steps shorter than 1 and no sweep, and each iterate
    # stays on its side and on the run's side of the previous one
    monkeypatch.setattr(perron_mod, "_KRYLOV_TOL", 1e-3)
    steps, step = [], perron_mod._shortened_step
    monkeypatch.setattr(perron_mod, "_shortened_step", lambda *args: steps.append(step(*args)) or steps[-1])
    P = NEWTON_2D_PROBLEMS[which]()
    prev = P.sup.values if direction == "descending" else P.sub.values
    for cap in range(1, 20):
        res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=cap), direction=direction)
        assert res.path == "newton" and res.monotone_ok
        assert (side * grid_verify(res.u, P.F, P.U).rows["margin"]).max() <= 2e-12
        assert (side * (res.u.values - prev)).max() <= perron_mod._MONOTONE_SLACK
        prev = res.u.values
        if res.converged:
            break
    assert res.converged
    assert perron_mod._MIN_NEWTON_STEP <= min(steps) and max(steps) < 1.0


@pytest.mark.parametrize("which", ["box33", "fill_b_pos", "fill_b_neg"])
def test_krylov_error_is_the_directions_exact_residual(which):
    # the first Newton systems of both runs: the error newton_direction
    # returns is the residual G'(u) d + g of the d it returns, bit for bit,
    # so the step charges the error of the direction it takes
    P = box_sandwich_problem(33)[0] if which == "box33" else NEWTON_2D_PROBLEMS[which]()
    tc = perron_mod._TraceCrossing(P)
    for u in (P.sup.values, P.sub.values):
        g = tc.residual(u)
        d, e = tc.newton_direction(u, g)
        assert np.isfinite(d).all()
        assert np.array_equal(e, tc.jacobian(d[tc.inner]) + g)


def test_krylov_cap_returns_a_charged_direction(monkeypatch):
    # a direction solve cut off by the cap returns a finite d with its exact
    # residual e rather than NaN, and capped runs that charge e stay
    # monotone and inside the sandwich
    monkeypatch.setattr(perron_mod, "_KRYLOV_CAP", 3)
    P = box_sandwich_problem(17)[0]
    tc = perron_mod._TraceCrossing(P)
    g = tc.residual(P.sup.values)
    d, e = tc.newton_direction(P.sup.values, g)
    assert np.isfinite(d).all()
    assert np.array_equal(e, tc.jacobian(d[tc.inner]) + g)
    assert np.linalg.norm(e) > perron_mod._KRYLOV_TOL * np.linalg.norm(d)  # inexact
    assert np.linalg.norm(e) < 1e-2 * np.linalg.norm(g)
    for direction, start in (("descending", P.sup.values), ("ascending", P.sub.values)):
        res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=4), direction=direction)
        assert res.monotone_ok and res.sandwich_ok
        assert np.any(res.u.values != start)


def test_solve_breakdowns_yield_nan():
    # a zero pivot in the Thomas algorithm, and a Krylov space that closes
    # on a zero pivot (the zero map), give NaN rather than a direction
    x = perron_mod._solve_tridiagonal(np.array([0.0, 1.0]), np.array([1.0, 0.0]), np.ones(2))
    assert np.isnan(x).all()
    x, r = perron_mod._gmres(np.zeros_like, lambda v: v, np.ones((3, 4)))
    assert np.isnan(x).all() and np.isnan(r).all()


@pytest.mark.parametrize("direction, alpha, beta", [("ascending", 1.0, 0.0),
                                                    ("descending", 0.0, 0.5)])
def test_undamped_fill_65_takes_few_iterations(direction, alpha, beta):
    # the undamped side of the 65^2 fill box: GMRES restarted from its true
    # residual keeps the run to 10 (ascending) and 7 (descending) iterations;
    # a solve that gave up after its first window took 37 and 38
    P = _fill_box_problem(65, OperatorSpec.quad_const(alpha, beta))
    res = perron_solve(P, SolverConfig(tol=1e-6, max_sweeps=20_000), direction=direction)
    assert res.converged and res.monotone_ok and res.sandwich_ok
    assert res.sweeps <= 12


@pytest.mark.parametrize("direction", ["descending", "ascending"])
def test_krylov_runs_match_block_thomas_runs(monkeypatch, direction):
    # whole 2D Newton runs with either direction solve take the same steps:
    # iteration count, path and flags agree, and the fields to 1e-11
    problems = [box_sandwich_problem(33)[0], _oblong_problem()]
    cfgs = [SolverConfig(tol=tol) for tol in (1e-6, 1e-9, 0.15 * problems[0].sub.h[0])]
    krylov = [perron_solve(P, cfg, direction=direction) for P in problems for cfg in cfgs]
    monkeypatch.setattr(perron_mod._TraceCrossing, "newton_direction", _block_thomas_direction)
    for (P, cfg), fast in zip([(P, cfg) for P in problems for cfg in cfgs], krylov):
        ref = perron_solve(P, cfg, direction=direction)
        assert (fast.sweeps, fast.path, fast.converged) == (ref.sweeps, ref.path, ref.converged)
        assert fast.monotone_ok and ref.monotone_ok and fast.sandwich_ok
        assert np.abs(fast.u.values - ref.u.values).max() <= 1e-11


def test_box_log_33_takes_newton_steps():
    # the `perron --problem box-log --grid 33` solve: a few Newton steps, no
    # crossing sweep (the sweep engine took 635)
    P, exact = box_sandwich_problem(33)
    res = perron_solve(P, SolverConfig(tol=0.15 * P.sub.h[0], max_sweeps=2_000_000))
    assert res.path == "newton" and res.sweeps <= 5
    assert res.solved and res.monotone_ok and res.sandwich_ok


def test_solve_2d_box_129():
    # the 2D layer at 129^2: a 16 s sweep solve, now a few Newton steps
    P, exact = box_sandwich_problem(129)
    h = P.sub.h[0]
    res = perron_solve(P, SolverConfig(tol=0.15 * h, max_sweeps=2_000_000))
    assert res.path == "newton"
    assert res.solved and res.monotone_ok and res.sandwich_ok
    assert np.abs(res.u.values - exact).max() <= 2e-2 * h * np.abs(exact).max()


def test_solve_radial_annulus_benchmark():
    P, exact = radial_sandwich_problem(250)
    h = P.sub.h[0]
    res = perron_solve(P, SolverConfig(tol=0.15 * h, max_sweeps=500_000))
    assert res.converged and res.monotone_ok and res.sandwich_ok
    err = np.abs(res.u.values - exact).max()
    assert err <= 2e-2 * h * math.log(3.0)
    assert res.residual.consistent_solution
    assert res.solved


def test_newton_stall_ends_unconverged():
    # at N = 1000 a 1e-9 margin sits below the rounding floor: within a few
    # dozen iterations the descending step moves no node, a fixed point
    # that used to repeat until max_sweeps (200,000 iterations, 103 s)
    P, _ = radial_sandwich_problem(1000)
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=200_000))
    assert not res.converged and not res.solved
    assert res.sweeps < 100
    assert res.last_update == 0.0


def test_newton_stall_and_fallback_share_one_crossing():
    # the Newton residual is minus the sweep's move, bit for bit, so at the
    # rounding floor a fallback sweep sees the margin the Newton test saw:
    # the descending run at N = 1000 and tol 1e-9 ends on a zero move within
    # a few iterations (61 while the two rounded the crossing differently)
    P, _ = radial_sandwich_problem(1000)
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=200_000))
    assert not res.converged and res.last_update == 0.0
    assert res.sweeps <= 20


@pytest.mark.parametrize("direction", ["descending", "ascending"])
@pytest.mark.parametrize("tol", [1e-6, 1e-9])
def test_converged_newton_margins_within_tol(tol, direction):
    # the Newton stop test reads grid_verify's trace margin, so a converged
    # run leaves every interior margin within tol itself, not only within
    # the verifier's tol + 4 h^2
    oblong = _box_problem(OperatorSpec.quad_const(1.0, 0.0), _log_box_field,
                          shape=(21, 13), box=((0.55, 0.95), (0.6, 0.8)))
    cfg = SolverConfig(tol=tol)
    for P in (radial_sandwich_problem(101)[0], box_sandwich_problem(33)[0], oblong):
        res = perron_solve(P, cfg, direction=direction)
        assert res.converged and res.path == "newton"
        margins = res.residual.rows["margin"]
        assert len(margins) == P.interior_mask.sum()
        assert np.abs(margins).max() <= cfg.tol * (1.0 + 1e-12)


def test_newton_creep_ends_unconverged():
    # ascending, every step still moves some node by about 3e-13, but the
    # scaled margin sits at 1.77e-9 from the fifth iteration on: the run
    # ends once it has set no new minimum for _NEWTON_STALL iterations,
    # where it used to creep to max_sweeps
    P, _ = radial_sandwich_problem(1000)
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=200_000), direction="ascending")
    assert not res.converged and not res.solved
    assert res.sweeps < 20
    assert res.path == "newton" and res.last_update > 0.0


def test_radial_sandwich_is_certified():
    P, _ = radial_sandwich_problem(250)
    sup_rep = grid_verify(P.sup, P.F, P.U, ambient_n=3)
    sub_rep = grid_verify(P.sub, P.F, P.U, ambient_n=3)
    assert sup_rep.consistent_super and not sup_rep.consistent_sub
    assert sub_rep.consistent_sub and not sub_rep.consistent_super


@pytest.mark.parametrize("npts", [21, 81])
@pytest.mark.parametrize("direction", ["descending", "ascending"])
def test_solve_posdef_1d(npts, direction):
    # with 1 x 1 matrices lambda_min = trace: the trace cone's Newton path
    P, xs = _interval_problem(npts, 0.0, 1.0, U=ConeSpec.posdef())
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=50_000), direction=direction)
    assert res.path == "newton"
    assert res.solved and res.monotone_ok and res.sandwich_ok
    assert np.abs(res.u.values - xs).max() <= 1e-9


def test_solve_posdef_radial():
    # the identity profile r has jet (0, 1/r, 1/r): on the positive-cone
    # boundary for the bare Hessian operator
    rs = np.linspace(0.5, 1.0, 101)
    bump = 0.2 * (rs - 0.5) * (1.0 - rs)
    P = DirichletProblem(
        LAPLACE, ConeSpec.posdef(),
        GridFn(((0.5, 1.0),), rs - bump), GridFn(((0.5, 1.0),), rs + bump),
        ambient_n=3,
    )
    res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=100_000))
    assert res.converged
    assert np.abs(res.u.values - rs).max() <= 1e-8
    assert res.residual.consistent_solution


def test_solve_posdef_radial_falling_profile():
    # the annulus profile falls (p_0 < 0), so the tangent entries p_0 / r of
    # every discrete jet are negative and no center value reaches the
    # positive cone's boundary: the descending run drops to the lower field
    P, _ = radial_sandwich_problem(41)
    P = dataclasses.replace(P, U=ConeSpec.posdef())
    res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=100))
    assert res.converged and res.path == "sweep"
    assert np.array_equal(res.u.values, P.sub.values)


def test_solve_2d_box_exact():
    P, exact = box_sandwich_problem(33)
    res = perron_solve(P, SolverConfig(tol=1e-7, max_sweeps=100_000))
    assert res.converged and res.monotone_ok and res.sandwich_ok
    assert np.abs(res.u.values - exact).max() <= 1e-4
    assert res.residual.consistent_solution


def test_box_sandwich_is_certified():
    P, _ = box_sandwich_problem(33)
    assert grid_verify(P.sup, P.F, P.U).consistent_super
    assert grid_verify(P.sub, P.F, P.U).consistent_sub


def _solve_posdef_square(exact):
    # the unit square, the bare Hessian and the positive cone, exact +- 0.05
    interior = np.zeros_like(exact, dtype=bool)
    interior[1:-1, 1:-1] = True
    bump = np.where(interior, 0.05, 0.0)
    P = DirichletProblem(
        LAPLACE, ConeSpec.posdef(),
        GridFn(((0, 1), (0, 1)), exact - bump), GridFn(((0, 1), (0, 1)), exact + bump),
    )
    res = perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=100_000))
    assert res.converged and res.path == "sweep"
    assert np.abs(res.u.values - exact).max() <= 1e-7
    assert res.residual.consistent_solution


def test_solve_2d_posdef():
    # one flat direction: u = x^2/2 has Hessian diag(1, 0), on the boundary
    xs = np.linspace(0.0, 1.0, 17)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    _solve_posdef_square(0.5 * X * X)


def test_solve_2d_posdef_diagonal_flat_direction():
    # u = (x + y)^2/4 has Hessian [[1, 1], [1, 1]] / 2: its flat direction is
    # diagonal, so the crossing needs the cross difference
    xs = np.linspace(0.0, 1.0, 17)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    _solve_posdef_square(0.25 * (X + Y) ** 2)


def test_solve_masked_annulus():
    npts = 41
    xs = np.linspace(-1.0, 1.0, npts)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    R = np.hypot(X, Y)
    exact = np.log(1.0 - np.log(np.where(R > 0, R, 1.0)))
    exact[R < 0.35] = np.inf
    fin = np.isfinite(exact)
    from conedeg.perron import _node_roles

    interior, boundary = _node_roles(fin)
    bump = np.where(interior, 2.0 * (R - 0.35) * (1.45 - R) * (1 - X * X) * (1 - Y * Y), 0.0)
    bump[~fin] = 0.0
    P = DirichletProblem(
        OperatorSpec.quad_const(1.0, 0.0), ConeSpec.gamma(1),
        GridFn(((-1, 1), (-1, 1)), exact - bump), GridFn(((-1, 1), (-1, 1)), exact + bump),
        ambient_n=2,
    )
    res = perron_solve(P, SolverConfig(tol=1e-6, max_sweeps=200_000))
    assert res.converged
    err = np.abs(res.u.values[interior] - exact[interior]).max()
    assert err <= 2e-3
    assert res.residual.consistent_solution


def test_masked_posdef_2d_rejects_masked_diagonal_neighbours():
    # the positive cone's 2D crossing reads the cross difference, so a node
    # whose diagonal neighbour is masked has no finite crossing (it used to
    # be sent to the lower field while the run reported convergence); the
    # trace cone reads no diagonal and keeps solving (test_solve_masked_annulus)
    from conedeg.perron import _node_roles

    xs = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    exact = 0.5 * X * X
    exact[np.hypot(X, Y) < 0.35] = np.inf
    interior, _ = _node_roles(np.isfinite(exact))
    bump = np.where(interior, 0.05, 0.0)
    box = ((-1, 1), (-1, 1))
    P = DirichletProblem(LAPLACE, ConeSpec.posdef(), GridFn(box, exact - bump),
                         GridFn(box, exact + bump))
    for direction in ("descending", "ascending"):
        with pytest.raises(ValueError, match="diagonal neighbours"):
            perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=10), direction=direction)
    res = perron_solve(dataclasses.replace(P, U=TRACE), SolverConfig(tol=1e-8, max_sweeps=10))
    assert res.path == "sweep" and np.isfinite(res.u.values[interior]).all()


def test_masked_solution_csv_is_pinned():
    # sha256 of solution_csv when it picked each node's role with a per-node
    # branch; the masked 41^2 disc fixture above carries all six row classes
    # (200 FIXED, 145 MASKED, 16 SKIPPED, plus INTERIOR, BOUNDARY, OUTSIDE)
    import hashlib

    from conedeg.perron import _node_roles

    xs = np.linspace(-1.0, 1.0, 41)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    exact = 0.5 * X * X
    exact[np.hypot(X, Y) < 0.35] = np.inf
    interior, _ = _node_roles(np.isfinite(exact))
    bump = np.where(interior, 0.05, 0.0)
    box = ((-1, 1), (-1, 1))
    P = DirichletProblem(LAPLACE, TRACE, GridFn(box, exact - bump), GridFn(box, exact + bump))
    text = solution_csv(perron_solve(P, SolverConfig(tol=1e-8, max_sweeps=10)), P)
    classes = [line.rsplit(",", 1)[1] for line in text.splitlines()[1:]]
    counts = {name: classes.count(name) for name in ("FIXED", "MASKED", "SKIPPED")}
    assert counts == {"FIXED": 200, "MASKED": 145, "SKIPPED": 16}
    assert {"INTERIOR", "BOUNDARY", "OUTSIDE"} <= set(classes)
    digest = hashlib.sha256(text.encode()).hexdigest()
    assert digest == "fb86a25109aa6ad02093bdb2b275e85435a0d21f6ad1c8697037b3777d2f7fd0"


def test_solve_start_validation():
    P, xs = _interval_problem(11, 0.0, 1.0)
    cfg = SolverConfig(tol=1e-8)
    with pytest.raises(ValueError):
        perron_solve(P, cfg, start=GridFn(((0, 2),), np.zeros(11)))
    too_high = P.sup.values + 1.0
    too_high[0], too_high[-1] = 0.0, 1.0
    with pytest.raises(ValueError):
        perron_solve(P, cfg, start=GridFn(((0, 1),), too_high))
    holed = P.sub.values.copy()
    holed[5] = np.inf
    with pytest.raises(ValueError, match="start must mask the same nodes as the sandwich"):
        perron_solve(P, cfg, start=GridFn(((0, 1),), holed))


def test_solve_non_converged_flagged():
    P, _ = _interval_problem(41, 0.0, 1.0)
    res = perron_solve(P, SolverConfig(tol=1e-12, max_sweeps=1))
    assert not res.converged
    assert res.sweeps == 1


def test_unsupported_cone_rejected():
    P, _ = _interval_problem(11, 0.0, 1.0, U=parse_cone("one_pos"))
    with pytest.raises(ValueError):
        perron_solve(P, SolverConfig())


def test_comparison_of_boundary_data():
    cfg = SolverConfig(tol=1e-9, max_sweeps=100_000)
    P1, _ = _interval_problem(41, 0.0, 1.0)
    P2, _ = _interval_problem(41, 0.0, 0.6)
    u1 = perron_solve(P1, cfg).u.values
    u2 = perron_solve(P2, cfg).u.values
    assert np.all(u1 >= u2 - 10 * cfg.tol)


# ---------------------------------------------------------------------------
# experiments


def test_uniqueness_linear_inits():
    P, xs = _interval_problem(41, 0.0, 1.0)
    cfg = SolverConfig(tol=1e-10, max_sweeps=200_000)
    inits = [
        GridFn(((0, 1),), np.clip(f(xs), P.sub.values, P.sup.values))
        for f in (lambda x: x, lambda x: x**2, lambda x: np.sqrt(x))
    ]
    for g in inits:  # boundary rows must match the data exactly
        g.values[0], g.values[-1] = 0.0, 1.0
    rep = uniqueness_experiment(P, cfg, inits)
    assert rep.passed
    assert rep.max_distance <= 1e-9
    assert len(rep.runs) == 5


def test_uniqueness_annulus_two_sided():
    P, _ = radial_sandwich_problem(250)
    cfg = SolverConfig(tol=0.15 * P.sub.h[0], max_sweeps=500_000)
    rep = uniqueness_experiment(P, cfg)
    assert rep.verdict == "pass"
    assert rep.max_distance <= 10 * cfg.tol


def test_uniqueness_inconclusive_when_not_converged():
    P, _ = _interval_problem(41, 0.0, 1.0)
    rep = uniqueness_experiment(P, SolverConfig(tol=1e-12, max_sweeps=1))
    assert rep.verdict == "inconclusive"
    assert math.isnan(rep.max_distance)


def test_translation_bound_linear_equality():
    g = GridFn(((0, 1),), np.linspace(0, 1, 21))
    band = np.zeros(21, dtype=bool)
    band[1] = band[-2] = True
    rep = translation_gradient_bound(g, band)
    assert rep.ok
    assert rep.interior_max == pytest.approx(rep.band_max, rel=1e-12)


def test_translation_bound_annulus():
    P, exact = radial_sandwich_problem(250)
    res = perron_solve(P, SolverConfig(tol=0.15 * P.sub.h[0], max_sweeps=500_000))
    band = np.zeros(250, dtype=bool)
    band[1:6] = True
    band[-6:-1] = True
    rep = translation_gradient_bound(res.u, band)
    assert rep.ok  # the gradient peaks at the inner rim, inside the band
    assert rep.interior_max <= rep.band_max + rep.slack


def test_translation_bound_validation():
    g = GridFn(((0, 1),), np.linspace(0, 1, 21))
    with pytest.raises(ValueError):
        translation_gradient_bound(g, np.zeros(20, dtype=bool))
    with pytest.raises(ValueError):
        translation_gradient_bound(g, np.zeros(21, dtype=bool))


def test_solution_csv_shape():
    P, xs = _interval_problem(11, 0.0, 1.0)
    res = perron_solve(P, SolverConfig(tol=1e-9, max_sweeps=50_000))
    lines = solution_csv(res, P).strip().split("\n")
    assert lines[0] == "node,x,u,residual_class"
    assert len(lines) == 12
    assert lines[1].endswith("FIXED")
    assert lines[2].split(",")[-1] == "BOUNDARY"
