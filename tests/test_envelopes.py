"""Envelope machinery: exact discrete properties, sharpness, stability."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conedeg.envelopes import (
    EnvelopeResult,
    GridFn,
    check_envelope_properties,
    dyadic_sharpness,
    dyadic_w,
    envelope_to_csv,
    grid_from_csv,
    grid_to_csv,
    lower_envelope,
    lower_envelope_separable,
    stability_check,
    upper_envelope,
    upper_envelope_separable,
)

RNG = np.random.default_rng(7)


def _sampled(f, box, shape) -> GridFn:
    """f on the linspace grid of box, one call per node (f(x) or f(x, y))."""
    axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape)]
    if len(shape) == 1:
        return GridFn(tuple(box), np.array([f(x) for x in axes[0]]))
    return GridFn(tuple(box), np.array([[f(x, y) for y in axes[1]] for x in axes[0]]))


def _random_piecewise(rng, n=None) -> GridFn:
    n = n or int(rng.integers(60, 160))
    xs = np.linspace(-1.0, 1.0, n)
    vals = np.zeros(n)
    # a few constant plateaus with jumps, plus a ramp
    edges = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6))))
    levels = rng.uniform(-2.0, 2.0, size=len(edges) + 1)
    idx = np.searchsorted(edges, xs)
    vals = levels[idx] + rng.uniform(-0.5, 0.5) * xs
    return GridFn(((-1.0, 1.0),), vals)


# ---------------------------------------------------------------------------
# grid container


def test_gridfn_validation():
    with pytest.raises(ValueError):
        GridFn(((0.0, 1.0),), np.array([1.0, 2.0]))  # too few nodes
    with pytest.raises(ValueError):
        GridFn(((1.0, 0.0),), np.zeros(5))  # bad box
    with pytest.raises(ValueError):
        GridFn(((0.0, 1.0),), np.array([np.nan, 0.0, 1.0]))
    with pytest.raises(ValueError):
        GridFn(((0.0, 1.0),), np.full(5, -np.inf))  # nothing finite
    with pytest.raises(ValueError):
        GridFn(((0.0, 1.0),), np.zeros((3, 3, 3)))


def test_gridfn_geometry():
    g = GridFn(((0.0, 1.0), (-1.0, 1.0)), np.zeros((5, 9)))
    assert g.dim == 2
    assert g.h == (0.25, 0.25)
    assert np.allclose(g.axis_nodes(1), np.linspace(-1, 1, 9))
    coords = g.node_coords()
    assert coords.shape == (45, 2)
    assert tuple(coords[0]) == (0.0, -1.0)
    assert tuple(coords[-1]) == (1.0, 1.0)


# ---------------------------------------------------------------------------
# envelopes


def test_constant_envelope_is_identity():
    g = GridFn.constant(3.5, ((-1.0, 1.0),), (21,))
    for eps in (1.0, 0.01):
        up = upper_envelope(g, eps)
        lo = lower_envelope(g, eps)
        assert np.array_equal(up.env.values, g.values)
        assert np.array_equal(lo.env.values, g.values)
        # the maximizer is the node itself
        assert np.array_equal(up.argpt, np.arange(21))


def test_upper_envelope_of_negative_abs():
    # closed form: env(0) = 0 and env(x) = -|x| + eps/4 away from the kink
    n = 2001
    g = _sampled(lambda x: -abs(x), ((-1.0, 1.0),), (n,))
    eps = 0.2
    res = upper_envelope(g, eps)
    xs = g.axis_nodes(0)
    h = g.h[0]
    assert res.env.values[n // 2] == pytest.approx(0.0, abs=2 * h)
    sel = (np.abs(xs) >= eps / 2) & (np.abs(xs) <= 1 - eps / 2)
    assert np.allclose(res.env.values[sel], -np.abs(xs[sel]) + eps / 4, atol=2 * h)


def test_envelope_monotone_in_eps():
    g = _random_piecewise(np.random.default_rng(1))
    small = upper_envelope(g, 0.05).env.values
    big = upper_envelope(g, 0.5).env.values
    assert np.all(small <= big + 1e-12)
    assert np.all(small >= g.values - 1e-12)


def test_envelope_duality_exact():
    for rng_seed in range(3):
        g = _random_piecewise(np.random.default_rng(rng_seed))
        eps = 0.1
        lo = lower_envelope(g, eps)
        neg = GridFn(g.box, -g.values)
        up = upper_envelope(neg, eps)
        assert np.array_equal(lo.env.values, -up.env.values)


def test_envelope_idempotent_bound():
    g = _random_piecewise(np.random.default_rng(2))
    eps = 0.1
    once = upper_envelope(g, eps)
    twice = upper_envelope(once.env, eps)
    assert np.all(twice.env.values >= once.env.values - 1e-12)


def test_envelope_contact_nodes():
    g = _random_piecewise(np.random.default_rng(3))
    res = upper_envelope(g, 0.05)
    self_idx = np.flatnonzero(res.argpt == np.arange(len(g.values)))
    assert self_idx.size > 0
    assert np.array_equal(res.env.values[self_idx], g.values[self_idx])


def test_semiconcavity_tight_at_kink():
    # near the kink the envelope is the parabola cap with curvature -2/eps
    n = 2001
    g = _sampled(lambda x: -abs(x), ((-1.0, 1.0),), (n,))
    eps = 0.2
    env = upper_envelope(g, eps).env.values
    h = g.h[0]
    i = n // 2
    d2 = (env[i + 1] - 2 * env[i] + env[i - 1]) / h**2
    assert d2 == pytest.approx(-2.0 / eps, rel=1e-6)


def test_masked_nodes_excluded_as_candidates():
    vals = np.array([0.0, -np.inf, 5.0, 0.0, 0.0])
    g = GridFn(((-1.0, 1.0),), vals)
    res = upper_envelope(g, 10.0)
    # the masked node still gets a value, from the unmasked candidates
    assert np.isfinite(res.env.values[1])
    assert res.argpt[1] == 2
    # +inf nodes are excluded too, never propagated
    g2 = GridFn(((-1.0, 1.0),), np.array([1.0, np.inf, np.inf]))
    res2 = upper_envelope(g2, 1.0)
    assert np.all(np.isfinite(res2.env.values))
    assert np.all(res2.argpt == 0)


def test_envelope_eps_validation():
    g = _random_piecewise(np.random.default_rng(4))
    with pytest.raises(ValueError):
        upper_envelope(g, 0.0)
    with pytest.raises(ValueError):
        lower_envelope(g, -1.0)


# ---------------------------------------------------------------------------
# the two-pass envelope against the exhaustive search


def _exhaustive(src: GridFn, eps: float, sign: float):
    """Reference oracle: every node against every candidate node, O(N^4) in 2D.

    Returns the envelope, the first maximizer in row-major candidate order,
    and the objective table (node, candidate) in the maximized orientation,
    with the penalty subtracted axis by axis in the package's float order.
    """
    work = src.values if sign > 0 else -src.values
    cand = np.where(np.isfinite(work), work, -np.inf)
    pen = []
    for a in range(src.dim):
        nodes = src.axis_nodes(a)
        diff = nodes[:, None] - nodes[None, :]
        pen.append(diff * diff / eps)
    if src.dim == 1:
        objective = cand[None, :] - pen[0]  # (i, k)
    else:
        # (i, j, k, l): (cand(k, l) - d1(i, k)) - d2(j, l)
        stage = cand[None, None, :, :] - pen[0][:, None, :, None]
        objective = (stage - pen[1][None, :, None, :]).reshape(cand.size, cand.size)
    best = objective.max(axis=1)
    env = best if sign > 0 else -best
    return env.reshape(src.shape), objective.argmax(axis=1).reshape(src.shape), objective


def _assert_matches_exhaustive(res, src: GridFn, eps: float, sign: float) -> int:
    """Values bitwise; argpt attains the objective and equals the oracle's
    maximizer wherever that is unique.  Returns the number of such nodes."""
    env, arg, objective = _exhaustive(src, eps, sign)
    assert np.array_equal(res.env.values, env)
    flat = res.argpt.ravel()
    attained = objective[np.arange(flat.size), flat]
    assert np.array_equal(attained, sign * res.env.values.ravel())
    unique = np.sum(objective == objective.max(axis=1, keepdims=True), axis=1) == 1
    assert np.array_equal(flat[unique], arg.ravel()[unique])
    return int(np.sum(unique))


def test_separable_agrees_1d():
    for seed in range(4):
        g = _random_piecewise(np.random.default_rng(seed))
        for eps in (0.5, 0.02):
            assert _assert_matches_exhaustive(upper_envelope(g, eps), g, eps, +1.0) > 0
            assert _assert_matches_exhaustive(lower_envelope(g, eps), g, eps, -1.0) > 0
            # the former names run the same path
            assert np.array_equal(upper_envelope_separable(g, eps).argpt, upper_envelope(g, eps).argpt)


def test_separable_agrees_2d():
    rng = np.random.default_rng(11)
    vals = rng.normal(size=(17, 23))
    vals[3, 5] = -np.inf
    g = GridFn(((-1.0, 1.0), (0.0, 2.0)), vals)
    lo_src = g.with_values(np.where(np.isfinite(vals), vals, np.inf))
    for eps in (0.3, 0.05):
        assert _assert_matches_exhaustive(upper_envelope(g, eps), g, eps, +1.0) > 0
        assert _assert_matches_exhaustive(lower_envelope(lo_src, eps), lo_src, eps, -1.0) > 0
        assert np.array_equal(lower_envelope_separable(lo_src, eps).env.values,
                              lower_envelope(lo_src, eps).env.values)


def test_exact_tie_takes_smallest_second_axis_index():
    # at node (i, j) the raised neighbours (i+1, j) and (i, j+1) tie exactly:
    # one penalty is h^2/eps on axis 0, the other the same on axis 1 (h = 1/4
    # keeps every node difference exact)
    n, i, j = 9, 2, 3
    vals = np.zeros((n, n))
    vals[i + 1, j] = vals[i, j + 1] = 1.0
    g = GridFn(((-1.0, 1.0), (-1.0, 1.0)), vals)
    eps = 0.5
    res = upper_envelope(g, eps)
    _assert_matches_exhaustive(res, g, eps, +1.0)
    _, first, objective = _exhaustive(g, eps, +1.0)
    node = i * n + j
    assert objective[node, (i + 1) * n + j] == objective[node, i * n + j + 1] == res.env.values[i, j]
    assert res.env.values[i, j] > 0.0
    assert res.argpt[i, j] == (i + 1) * n + j  # smallest second-axis index
    assert first[i, j] == i * n + j + 1  # row-major search takes the other one
    low = lower_envelope(g.with_values(-vals), eps)
    assert low.argpt[i, j] == (i + 1) * n + j


# hypothesis: 50 derandomized examples, so a run repeats
_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)


@st.composite
def _masked_grids(draw):
    dim = draw(st.integers(1, 2))
    shape = tuple(draw(st.integers(3, 8)) for _ in range(dim))
    box = tuple((lo, lo + width) for lo, width in (
        (draw(st.sampled_from([-1.0, 0.0, 0.5])), draw(st.sampled_from([0.5, 1.0, 2.0, 3.0])))
        for _ in range(dim)))
    # repeated levels make exact ties; +-inf nodes are masked candidates
    entry = st.one_of(st.floats(-2.0, 2.0), st.sampled_from([0.0, 1.0, -np.inf, np.inf]))
    vals = draw(hnp.arrays(np.float64, shape, elements=entry))
    vals.flat[draw(st.integers(0, vals.size - 1))] = draw(st.floats(-2.0, 2.0))
    return GridFn(box, vals)


@_PROPERTY
@given(g=_masked_grids(), eps=st.sampled_from([1e-3, 0.05, 0.3, 2.0, 50.0]))
def test_two_pass_matches_exhaustive_property(g, eps):
    up = upper_envelope(g, eps)
    low = lower_envelope(g, eps)
    _assert_matches_exhaustive(up, g, eps, +1.0)
    _assert_matches_exhaustive(low, g, eps, -1.0)
    dual = upper_envelope(g.with_values(-g.values), eps)
    assert np.array_equal(low.env.values, -dual.env.values)
    assert np.array_equal(low.argpt, dual.argpt)


# ---------------------------------------------------------------------------
# property suite


def test_properties_smooth_gaussian():
    g = _sampled(lambda x: math.exp(-8 * x * x), ((-1.0, 1.0),), (2001,))
    rep = check_envelope_properties(g, [0.1, 0.01], side="upper", lipschitz_K=4.0)
    assert rep.all_ok
    assert rep.rows[0].lipschitz_ok
    assert rep.approach_worst < 0.05


def test_lipschitz_constant_must_be_finite_and_nonnegative():
    # inf passed the check vacuously, nan failed it silently, -1 hit a math domain error
    g = _sampled(lambda x: math.exp(-8 * x * x), ((-1.0, 1.0),), (201,))
    for bad in (math.inf, math.nan, -1.0):
        with pytest.raises(ValueError, match="lipschitz_K must be nonnegative and finite"):
            check_envelope_properties(g, [0.1], side="lower", lipschitz_K=bad)
    assert check_envelope_properties(g, [0.1], side="lower", lipschitz_K=0.0).rows[0].lipschitz_ok is not None


def test_properties_step_function():
    g = _sampled(lambda x: 1.0 if x > 0 else 0.0, ((-1.0, 1.0),), (801,))
    for side in ("upper", "lower"):
        rep = check_envelope_properties(g, [0.2, 0.05, 0.01], side=side)
        assert rep.all_ok, [r for r in rep.rows if not r.ok]


def test_properties_random_piecewise_both_sides():
    for seed in range(5):
        g = _random_piecewise(np.random.default_rng(100 + seed))
        for side in ("upper", "lower"):
            rep = check_envelope_properties(g, [0.3, 0.03], side=side)
            assert rep.all_ok


def test_properties_2d():
    rng = np.random.default_rng(12)
    g = GridFn(((-1.0, 1.0), (-1.0, 1.0)), rng.uniform(-1, 1, size=(25, 25)))
    rep = check_envelope_properties(g, [0.5, 0.1], side="upper")
    assert rep.all_ok


def test_properties_eps_list_validation():
    g = _random_piecewise(np.random.default_rng(5))
    with pytest.raises(ValueError):
        check_envelope_properties(g, [0.01, 0.1], side="upper")
    with pytest.raises(ValueError):
        check_envelope_properties(g, [0.1], side="sideways")


# ---------------------------------------------------------------------------
# dyadic sharpness


def test_dyadic_w_values():
    assert dyadic_w(0.0) == 0.0
    assert dyadic_w(0.25) == 1.0
    assert dyadic_w(-0.5) == 1.0
    assert dyadic_w(0.75) == 0.5
    assert dyadic_w(1.0) == 0.0
    with pytest.raises(ValueError):
        dyadic_w(1.5)


def test_dyadic_sharpness_bounds():
    rep = dyadic_sharpness()
    assert len(rep.rows) == 5
    assert rep.all_ok
    for row in rep.rows:
        # the minimizer jumps to the origin: value exactly x_k^2/eps_k = 1/16
        assert row.env_value == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert row.displacement == pytest.approx(row.x, abs=1e-15)
        assert row.displacement >= row.displacement_bound
        assert row.displacement == pytest.approx(2.0 * row.displacement_bound, rel=1e-12)
        assert row.window_min == 1.0


# ---------------------------------------------------------------------------
# stability


def test_stability_continuous_source():
    g = _sampled(lambda x: math.sin(3 * x), ((-1.0, 1.0),), (401,))
    rep = stability_check(g, "upper", trials=8, seed=3)
    assert rep.all_ok
    # on-node trials converge exactly
    assert min(abs(r.slack) for r in rep.rows) < 1e-12


def test_stability_step_source():
    g = _sampled(lambda x: 1.0 if x <= 0 else 0.0, ((-1.0, 1.0),), (401,))
    rep = stability_check(g, "upper", trials=5, seed=1)
    assert rep.all_ok
    assert all(r.slack >= -rep.tolerance for r in rep.rows)


def test_stability_spike_positive_slack():
    # a spike one node away never leaks into the tail: the penalty wins and
    # the limit sits strictly below the spike value
    vals = np.zeros(401)
    vals[137] = 5.0
    g = GridFn(((-1.0, 1.0),), vals)
    rep = stability_check(g, "upper", trials=4, seed=5)
    assert rep.all_ok
    assert max(r.slack for r in rep.rows) > 4.0


def test_stability_dyadic_lower():
    xs = np.linspace(-1.0, 1.0, 513)
    g = GridFn(((-1.0, 1.0),), np.array([dyadic_w(float(x)) for x in xs]))
    rep = stability_check(g, "lower", trials=6, seed=2)
    assert rep.all_ok
    # the source is nonnegative, so every lower-envelope value is too
    res = lower_envelope(g, 1e-3)
    assert np.all(res.env.values >= 0.0)


def test_stability_validation():
    g = _random_piecewise(np.random.default_rng(6))
    with pytest.raises(ValueError):
        stability_check(g, "upper", trials=0)
    with pytest.raises(ValueError):
        stability_check(g, "diagonal")


# ---------------------------------------------------------------------------
# CSV plumbing


def test_grid_csv_roundtrip_1d():
    vals = np.array([1.0, -np.inf, 2.5, 0.0, np.inf])
    g = GridFn(((-1.0, 1.0),), vals)
    text = grid_to_csv(g)
    back = grid_from_csv(text)
    assert back.box == g.box
    assert np.array_equal(back.values, g.values)


def test_grid_csv_roundtrip_2d():
    rng = np.random.default_rng(13)
    g = GridFn(((0.0, 1.0), (0.0, 2.0)), rng.normal(size=(4, 5)))
    back = grid_from_csv(grid_to_csv(g))
    assert back.box == g.box
    assert np.allclose(back.values, g.values, atol=1e-11)


def _csv(head, rows) -> str:
    return "\n".join([head] + [",".join(map(str, r)) for r in rows]) + "\n"


_MALFORMED_GRIDS = {
    # the nodes of a 3 x 3 grid, y running slowest: would read transposed
    "y_major": _csv("x,y,value", [(x, y, 10 * x + y) for y in (0, 1, 2) for x in (0, 1, 2)]),
    # would read as the nodes 0, 0.5, 1
    "non_uniform": _csv("x,value", [(0, 1), (0.1, 2), (1, 3)]),
    # would keep file order
    "unsorted": _csv("x,value", [(0, 1), (1, 2), (0.5, 3)]),
    "duplicated": _csv("x,value", [(0, 1), (0.5, 2), (0.5, 2), (1, 3)]),
    "ragged": _csv("x,y,value", [(0, 0, 1), (0, 1)]),
    "no_rows": "x,value\n",
    "infinite_node": _csv("x,value", [(0, 1), (0.5, 2), ("inf", 3)]),
}


@pytest.mark.parametrize("name", sorted(_MALFORMED_GRIDS))
def test_grid_from_csv_refuses_malformed_grids(name):
    with pytest.raises(ValueError):
        grid_from_csv(_MALFORMED_GRIDS[name])


def test_grid_from_csv_reads_printed_coordinates():
    # 12 printed digits of thirds and sevenths still name their nodes; a
    # row-major file with masked values reads back node for node
    for box in (((0.0, 1.0), (-1.0, 2.0 / 7.0)), ((1e6, 1e6 + 1.0 / 3.0), (-3.0, 3.0))):
        vals = np.arange(7 * 4, dtype=float).reshape(7, 4)
        vals[2, 1] = -np.inf
        g = GridFn(box, vals)
        back = grid_from_csv(grid_to_csv(g))
        assert np.array_equal(back.values, g.values)
        assert np.allclose(back.box, g.box, rtol=1e-11, atol=0.0)


_SPECIAL_1D = GridFn(((-1.0, 1.0),), [0.25, np.inf, -0.0, -np.inf, 1 / 3, 2.5e-13, 1e20])
_SPECIAL_2D = GridFn(((-0.3, 0.7), (0.0, 1.0)), [
    [1 / 3, -0.0, np.inf, 0.1, -2.0],
    [np.inf, -np.inf, 5e-7, 0.0, 7.0],
    [-0.0, 3.0, -1e-300, np.inf, 2 / 3],
    [1e15, -np.inf, 0.5, -0.0, 9.0],
])


@pytest.mark.parametrize("g,grid_digest,env_digest", [
    (_SPECIAL_1D, "5de8aa9ba3cb43c46455c5b058a0016e2bc7d7d8c78990ebbd7f0625e020fe60",
     "d2d731c0e3dce75f248826b446da5f10ef621c9b11e0737852da0161024590e6"),
    (_SPECIAL_2D, "2be7f0c7fe8c3beec326796cba1f47040f8444e18a8b3699bebe3c4632b81cc2",
     "41db4de85e3f1282bc2421bbbf9b362332c542354219aeaa9e93f38e3039b2e5"),
])
def test_grid_csv_bytes_are_pinned(g, grid_digest, env_digest):
    # sha256 of the text written when each value went through its own
    # inf/-inf special case: +-inf print as inf/-inf, -0.0 as -0
    import hashlib

    res = EnvelopeResult(g, np.arange(g.values.size)[::-1].reshape(g.shape), 0.1)
    assert hashlib.sha256(grid_to_csv(g).encode()).hexdigest() == grid_digest
    assert hashlib.sha256(envelope_to_csv(res).encode()).hexdigest() == env_digest


def test_envelope_csv_columns():
    g = _random_piecewise(np.random.default_rng(14), n=61)
    res = upper_envelope(g, 0.1)
    lines = envelope_to_csv(res).strip().split("\n")
    assert lines[0] == "x,env,argpt_index"
    assert len(lines) == 62
    assert len(lines[1].split(",")) == 3
