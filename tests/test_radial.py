"""Radial reduction, quartic certificates, and the counterexample gallery."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conedeg import radial
from conedeg.operators import FieldOracle, OperatorSpec, eval_L, format_operator, parse_operator
from conedeg.radial import (
    CtexCertificate,
    QuarticSpec,
    RadialProfile,
    build_counterexample,
    cbrt,
    certificate_roots_csv,
    certificate_rows_csv,
    cusp_family_operator,
    cusp_pair_values,
    interp_L_slope_scan,
    interpolated_L_operator,
    lambda12_t,
    log_singular_check,
    monotone_interp_L,
    quartic_eval,
    quartic_roots,
    radial_F_eigs,
)

RNG = np.random.default_rng(20260819)


def _power_two_thirds(t: float, r0: float, half_width: float = 1.0) -> RadialProfile:
    """psi(r) = t^{1/3} |r - r0|^{2/3}; cusp (vertical tangent) at r0."""
    c = cbrt(t)

    def psi(r):
        return c * abs(r - r0) ** (2.0 / 3.0)

    def dpsi(r):
        rho = r - r0
        return (2.0 / 3.0) * c * abs(rho) ** (-1.0 / 3.0) * math.copysign(1.0, rho)

    def ddpsi(r):
        return -(2.0 / 9.0) * c * abs(r - r0) ** (-4.0 / 3.0)

    return RadialProfile(f"power23:t={t:g}", r0 - half_width, r0 + half_width, psi, dpsi, ddpsi,
                         excluded=(r0,))


# ---------------------------------------------------------------------------
# profiles


def test_cbrt_real_branch():
    assert cbrt(-8.0) == -2.0
    assert cbrt(27.0) == 3.0
    assert cbrt(0.0) == 0.0


def test_power23_values():
    prof = _power_two_thirds(8.0, 2.0)
    assert prof.psi(3.0) == pytest.approx(2.0, abs=1e-14)
    assert prof.dpsi(3.0) == pytest.approx(4.0 / 3.0, abs=1e-14)
    assert prof.ddpsi(3.0) == pytest.approx(-4.0 / 9.0, abs=1e-14)
    # odd slope across the cusp, negative second derivative on both sides
    assert prof.dpsi(1.0) == pytest.approx(-4.0 / 3.0, abs=1e-14)
    assert prof.ddpsi(1.0) < 0.0
    # the cusp itself is excluded from the profile's domain
    assert prof.excluded == (2.0,)
    assert prof.r_lo < 2.5 < prof.r_hi


def _fd_check(prof, rs, rel=2e-6):
    for r in rs:
        h = 1e-6 * max(1.0, abs(r))
        d_fd = (prof.psi(r + h) - prof.psi(r - h)) / (2 * h)
        dd_fd = (prof.dpsi(r + h) - prof.dpsi(r - h)) / (2 * h)
        assert prof.dpsi(r) == pytest.approx(d_fd, rel=rel, abs=1e-9)
        assert prof.ddpsi(r) == pytest.approx(dd_fd, rel=rel, abs=1e-9)


def test_profile_derivatives_match_finite_differences():
    _fd_check(_power_two_thirds(-3.0, 2.0), [1.3, 1.8, 2.2, 2.9])
    _fd_check(RadialProfile.tanh_bump(0.5, 2.0), [1.1, 1.9, 2.0, 2.7])
    _fd_check(RadialProfile.holder_solution(0.5, 3), [0.2, 0.6, 0.95])
    _fd_check(RadialProfile.boundary_lip(3.0), [1.2, 1.5, 1.9])


def test_profile_parameter_validation():
    with pytest.raises(ValueError):
        RadialProfile.holder_solution(0.0, 3)
    with pytest.raises(ValueError):
        RadialProfile.holder_solution(1.0, 3)
    with pytest.raises(ValueError):
        RadialProfile.boundary_lip(2.0)


def test_boundary_lip_profile_solves_exactly():
    # psi'' = |psi'|^m by construction
    for m in (2.5, 3.0, 5.0):
        prof = RadialProfile.boundary_lip(m)
        for r in (1.05, 1.3, 1.7, 1.95):
            lhs = prof.ddpsi(r)
            rhs = abs(prof.dpsi(r)) ** m
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_sampled_profile_lookup():
    r = np.array([1.0, 1.5, 2.0])
    prof = RadialProfile.sampled(r, r**2, 2 * r, np.full(3, 2.0))
    assert prof.psi(1.5) == 2.25
    assert prof.dpsi(2.0) == 4.0
    with pytest.raises(ValueError):
        prof.psi(1.7)
    with pytest.raises(ValueError):
        RadialProfile.sampled(np.array([1.0, 1.0, 2.0]), np.zeros(3), np.zeros(3), np.zeros(3))


# ---------------------------------------------------------------------------
# radial eigenvalues


def test_radial_eigs_rot_inv_hand_values():
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -t)
    mu, nu = radial_F_eigs(2.0, 0.3, -0.1, op)
    assert mu == pytest.approx(-0.4, abs=1e-14)
    assert nu == pytest.approx(-0.15, abs=1e-14)


def test_radial_eigs_zero_slope_gives_b_at_zero():
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: 1.0 - t)
    mu, nu = radial_F_eigs(1.5, 0.0, 0.0, op)
    assert mu == pytest.approx(1.0)
    assert nu == pytest.approx(1.0)


def test_radial_eigs_domain_error():
    op = OperatorSpec.conformal()
    with pytest.raises(ValueError):
        radial_F_eigs(0.0, 1.0, 1.0, op)
    with pytest.raises(ValueError):
        radial_F_eigs(-1.0, 1.0, 1.0, op)


def test_radial_eigs_boundary_lip_family():
    # mu vanishes identically for the steep boundary profile
    for m in (2.5, 3.0, 5.0):
        prof = RadialProfile.boundary_lip(m)
        op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t, m=m: -(t**m))
        for r in (1.1, 1.5, 1.9):
            mu, nu = radial_F_eigs(r, prof.dpsi(r), prof.ddpsi(r), op)
            scale = 1.0 + abs(prof.ddpsi(r))
            assert abs(mu) <= 1e-10 * scale
            assert nu < 0.0


# ---------------------------------------------------------------------------
# quartics


def test_quartic_frozen_values_main_family():
    q = QuarticSpec.p4_shifted(Fraction(-3))
    assert quartic_eval(q, -2) == -28015
    assert quartic_eval(q, 0) == 6561
    assert quartic_eval(q, Fraction(9, 4)) == -6561
    assert isinstance(quartic_eval(q, Fraction(9, 4)), Fraction)


def test_quartic_frozen_values_scaled_family():
    # 6400 t^4 + 32400 alpha t^2 + 729 t at alpha = -36/25
    q = QuarticSpec(Fraction(6400), 32400 * Fraction(-36, 25), Fraction(729), Fraction(0))
    assert quartic_eval(q, -2) == -85682
    assert quartic_eval(q, -3) == 96309
    assert quartic_eval(q, 2) == -82766
    assert quartic_eval(q, Fraction(-8, 5)) == Fraction(-1966568, 25)
    assert quartic_eval(q, Fraction(8, 5)) == Fraction(-1908248, 25)


def test_quartic_float_path_matches_exact():
    q = QuarticSpec.p4_shifted(Fraction(-3))
    for t in (-2.5, -0.5, 1.25, 3.0):
        exact = quartic_eval(q, Fraction(t))
        assert quartic_eval(q, t) == pytest.approx(float(exact), rel=1e-14)


def test_quartic_requires_leading_coefficient():
    with pytest.raises(ValueError):
        QuarticSpec(0, 1, 1, 1)


def test_quartic_roots_main_family():
    q = QuarticSpec.p4_shifted(Fraction(-3))
    roots = quartic_roots(q)
    assert len(roots) == 4
    expected = (
        -4.146008327483273,
        -0.6221146840135188,
        1.5381626518682436,
        3.2299603596285476,
    )
    ts = roots["t"].tolist()
    assert ts == pytest.approx(expected, abs=1e-9)
    for t, lo, hi in roots.tolist():
        assert lo <= t <= hi or (hi - lo) < 1e-11
        assert abs(float(quartic_eval(q, t))) < 1e-8
    assert ts[0] < -2.0 < ts[1] < 0.0 < ts[2] < 9.0 / 4.0 < ts[3]


def test_quartic_roots_polish_residual():
    # Newton polish should reach evaluation-noise level, far below the
    # bisection width; the certificates rely on this headroom
    for q in (QuarticSpec.p4_shifted(Fraction(-3)), QuarticSpec.p4_tilde_shifted(Fraction(-36, 25))):
        for t in quartic_roots(q)["t"].tolist():
            assert abs(float(quartic_eval(q, t))) < 1e-9


def test_quartic_roots_degenerate_count_is_reported():
    # alpha = -2 leaves only two real roots; no roots are invented
    assert len(quartic_roots(QuarticSpec.p4_shifted(Fraction(-2)))) == 2


def test_quartic_roots_exact_grid_hit():
    # (t^2 - 1)(t^2 - 4) has roots on probe points for a 1024-point grid? not
    # necessarily; use a quartic with a root exactly at an endpoint instead
    q = QuarticSpec(1, 0, 0, -10000)  # t^4 = 10^4, roots at -10 and 10
    roots = quartic_roots(q)
    assert len(roots) == 2
    assert roots["t"][0] == pytest.approx(-10.0, abs=1e-12)
    assert roots["t"][-1] == pytest.approx(10.0, abs=1e-12)


# ---------------------------------------------------------------------------
# closed-form eigenvalues


def test_lambda12_frozen_value():
    # t = 1, r = 3, r0 = 2, alpha = -3: inner polynomial 64 - 972 + 729 = -179,
    # so lambda1 = -2 (8(-179) + 6561)/59049 = -10258/59049
    lam1, _ = lambda12_t(1.0, 3.0, 2.0, -3.0, "P4")
    assert lam1 == pytest.approx(float(Fraction(-10258, 59049)), rel=1e-13)


def test_lambda12_domain_errors():
    with pytest.raises(ValueError):
        lambda12_t(1.0, 2.0, 2.0, -3.0, "P4")
    with pytest.raises(ValueError):
        lambda12_t(1.0, -1.0, 2.0, -3.0, "P4")
    with pytest.raises(ValueError):
        lambda12_t(1.0, 3.0, 2.0, -3.0, "P5")


def test_lambda12_matches_jet_pipeline():
    # closed forms against the generic matrix assembly, both variants
    for variant, alpha in (("P4", -3.0), ("P4tilde", -1.44)):
        op = cusp_family_operator(variant, alpha)
        count = 0
        while count < 500:
            t = float(RNG.uniform(-5.0, 5.0))
            r = float(RNG.uniform(1.0, 3.0))
            if abs(r - 2.0) < 1e-3 or abs(t) < 1e-6:
                continue
            count += 1
            lam1, lam2 = lambda12_t(t, r, 2.0, alpha, variant)
            c = cbrt(t)
            rho = r - 2.0
            s = c * abs(rho) ** (2.0 / 3.0)
            dp = (2.0 / 3.0) * c * abs(rho) ** (-1.0 / 3.0) * math.copysign(1.0, rho)
            ddp = -(2.0 / 9.0) * c * abs(rho) ** (-4.0 / 3.0)
            mu, nu = radial_F_eigs(r, dp, ddp, op, s=s)
            scale = 1.0 + max(abs(lam1), abs(lam2))
            assert abs(mu - lam1) <= 1e-9 * scale
            assert abs(nu - lam2) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# interpolated coefficient


def test_interp_endpoint_values_exact():
    one = Fraction(1)
    edge = Fraction(32, 45)
    assert monotone_interp_L(one, -edge) == Fraction(-245821, 364500)
    assert monotone_interp_L(one, edge) == Fraction(238531, 364500)
    # the same endpoints scale like |p|^4 under p -> 3p/2
    p = Fraction(3, 2)
    scale = p**4
    assert monotone_interp_L(p, -edge / p**2) == Fraction(-245821, 364500) * scale
    assert monotone_interp_L(p, edge / p**2) == Fraction(238531, 364500) * scale


def test_interp_outside_strip_is_polynomial():
    val = monotone_interp_L(Fraction(1), Fraction(2))
    assert val == -(Fraction(8) + Fraction(-36, 25) * 2 + Fraction(1, 100))
    assert val == Fraction(-513, 100)
    neg = monotone_interp_L(Fraction(1), Fraction(-2))
    assert neg == -(Fraction(-8) + Fraction(-36, 25) * -2 + Fraction(1, 100))


def test_interp_interior_stays_rational():
    val = monotone_interp_L(Fraction(1), Fraction(1, 10))
    assert isinstance(val, Fraction)


def test_interp_seam_is_c1():
    p = 1.3
    edge = float(Fraction(32, 45)) / p**2
    slope_target = float(Fraction(-52, 675)) * p**6
    h = 1e-7
    for s0 in (-edge, edge):
        slope = (monotone_interp_L(p, s0 + h) - monotone_interp_L(p, s0 - h)) / (2 * h)
        assert slope == pytest.approx(slope_target, rel=1e-5)
    # value continuity across both seams
    for s0 in (-edge, edge):
        gap = monotone_interp_L(p, s0 + 1e-12) - monotone_interp_L(p, s0 - 1e-12)
        assert abs(gap) < 1e-9


def test_interp_edge_cases():
    assert monotone_interp_L(0.0, 5.0) == 0.0
    assert monotone_interp_L(Fraction(0), Fraction(5)) == 0
    with pytest.raises(ValueError):
        monotone_interp_L(-1.0, 0.0)
    with pytest.raises(ValueError):
        monotone_interp_L(1.0, 0.0, alpha=-1.0)


def test_interp_slope_scan_is_truthful():
    # non-increasing away from the strip, but the strip interior must rise
    # (the boundary values force it), and the scan says so
    report = interp_L_slope_scan()
    assert report.nonpos_outside
    assert report.rise_witness is not None
    assert report.rise_witness["inside_strip"]
    assert report.rise_witness["slope"] > 0.0
    assert 0.0 < report.nonpos_fraction < 1.0


def test_interp_operator_matches_polynomial_outside_strip():
    op_interp = interpolated_L_operator()
    op_poly = cusp_family_operator("P4tilde", -1.44)
    for t in (-3.0, -1.7, 1.7, 2.1):
        r = 2.37
        c = cbrt(t)
        rho = r - 2.0
        s = c * rho ** (2.0 / 3.0)
        dp = (2.0 / 3.0) * c * rho ** (-1.0 / 3.0)
        ddp = -(2.0 / 9.0) * c * rho ** (-4.0 / 3.0)
        mu_i, nu_i = radial_F_eigs(r, dp, ddp, op_interp, s=s)
        mu_p, nu_p = radial_F_eigs(r, dp, ddp, op_poly, s=s)
        scale = 1.0 + abs(mu_p) + abs(nu_p)
        assert abs(mu_i - mu_p) <= 1e-9 * scale
        assert abs(nu_i - nu_p) <= 1e-9 * scale


# ---------------------------------------------------------------------------
# the isotropic operators against their per-node references
#
# The closures below are the per-node L_fn of the cusp, interpolated and
# cubic_mix operators from before those became the isotropic kind, and
# _scalar_interp_g is the float branch monotone_interp_L had then.  They
# are kept as the bitwise reference for the array forms, called once per
# node through _node_by_node.


def _node_by_node(L_fn):
    """A general_l L_fn on whole stacks from one that takes a lone node (x and
    p vectors, s a float): called once per node, in row order."""

    def stacked(x, s, p):
        lead, n = p.shape[:-1], p.shape[-1]
        nodes = zip(x.reshape(-1, n), s.ravel().tolist(), p.reshape(-1, n))
        return np.array([L_fn(*node) for node in nodes], dtype=float).reshape(lead + (n, n))

    return stacked


def _scalar_interp_g(p_norm, s):
    a, hole = float(Fraction(-36, 25)), float(Fraction(32, 45))
    p_norm, s = float(p_norm), float(s)
    p2 = p_norm * p_norm
    prod = s * p2
    if p_norm == 0:
        return 0.0
    if prod <= -hole or prod >= hole:
        return -(s**3 * p2**5 + a * s * p2**3 + p2**2 / 100.0)
    p4 = p2 * p2
    s_lo, s_hi = -hole / p2, hole / p2
    width = s_hi - s_lo
    y_lo = float(Fraction(-245821, 364500)) * p4
    y_hi = float(Fraction(238531, 364500)) * p4
    d = float(Fraction(-52, 675)) * p4 * p2
    tau = (s - s_lo) / width
    h00 = (1 + 2 * tau) * (1 - tau) ** 2
    h10 = tau * (1 - tau) ** 2
    h01 = tau * tau * (3 - 2 * tau)
    h11 = tau * tau * (tau - 1)
    return h00 * y_lo + h10 * width * d + h01 * y_hi + h11 * width * d


def _per_node_cusp_operator(variant, alpha):
    q4 = 1.0 if variant == "P4" else 100.0

    def L_fn(x, s, p):
        t2 = float(p @ p)
        val = -(s**3 * t2**5 + alpha * s * t2**3 + t2**2 / q4)
        return val * np.eye(len(p))

    return OperatorSpec.general_l(_node_by_node(L_fn), m=10.0, name=f"cusp:{variant}:{alpha:g}")


def _per_node_interp_operator():
    def L_fn(x, s, p):
        return _scalar_interp_g(float(np.linalg.norm(p)), float(s)) * np.eye(len(p))

    return OperatorSpec.general_l(_node_by_node(L_fn), m=10.0, name="interp_strip")


def _per_node_cubic_mix(coef=-36.0 / 25.0):
    def L_fn(x, s, p):
        t2 = float(p @ p)
        val = -(s**3 * t2**5 + coef * s * t2**3 + t2**2)
        return val * np.eye(len(p))

    return OperatorSpec.general_l(_node_by_node(L_fn), m=10.0, name="cubic_mix")


_ISOTROPIC_BUILTINS = {
    "P4": (lambda: cusp_family_operator("P4", -3.0), lambda: _per_node_cusp_operator("P4", -3.0)),
    "P4tilde": (lambda: cusp_family_operator("P4tilde", -1.44),
                lambda: _per_node_cusp_operator("P4tilde", -1.44)),
    "interp_strip": (interpolated_L_operator, _per_node_interp_operator),
    "cubic_mix": (lambda: parse_operator("genL:cubic_mix"), _per_node_cubic_mix),
}


def _isotropic_stack(rng, m, n):
    """(x, s, p) with |p| from 1e-3 to 1e3, p = 0 rows, s = 0 rows, and s on
    and next to both strip edges |s| |p|^2 = 32/45, from either side."""
    direction = rng.normal(size=(m, n))
    direction /= np.linalg.norm(direction, axis=1)[:, None]
    p = direction * 10.0 ** rng.uniform(-3.0, 3.0, m)[:, None]
    p[:20] = 0.0
    s = rng.uniform(-3.0, 3.0, m)
    s[20:40] = 0.0
    p2 = np.array([float(np.linalg.norm(q)) ** 2 for q in p[40:]])
    edge = float(Fraction(32, 45)) / p2
    k = len(edge) // 8
    s[40:40 + k] = edge[:k]
    s[40 + k:40 + 2 * k] = -edge[k:2 * k]
    s[40 + 2 * k:40 + 3 * k] = np.nextafter(edge[2 * k:3 * k], 0.0)
    s[40 + 3 * k:40 + 4 * k] = np.nextafter(-edge[3 * k:4 * k], 0.0)
    s[40 + 4 * k:40 + 5 * k] = np.nextafter(edge[4 * k:5 * k], np.inf)
    s[40 + 5 * k:40 + 7 * k] = rng.uniform(-1.5, 1.5, 2 * k) * edge[5 * k:7 * k]
    return rng.normal(size=(m, n)), s, p


@pytest.mark.parametrize("name", sorted(_ISOTROPIC_BUILTINS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_isotropic_builtins_match_per_node_reference(name, n):
    iso, ref = (make() for make in _ISOTROPIC_BUILTINS[name])
    assert iso.kind == "isotropic" and ref.kind == "general_l"
    rng = np.random.default_rng(100 * n + len(name))
    x, s, p = _isotropic_stack(rng, 1200, n)
    assert eval_L(iso, x, s, p).tobytes() == eval_L(ref, x, s, p).tobytes()
    # two leading axes, a value shared along one of them, and a lone node
    x2, s2, p2 = x[:600].reshape(20, 30, n), s[:30], p[:600].reshape(20, 30, n)
    assert eval_L(iso, x2, s2, p2).tobytes() == eval_L(ref, x2, s2, p2).tobytes()
    assert eval_L(iso, x[50], s[50], p[50]).tobytes() == eval_L(ref, x[50], s[50], p[50]).tobytes()


def test_monotone_interp_L_floats_match_scalar_reference():
    rng = np.random.default_rng(3)
    _, s, p = _isotropic_stack(rng, 1000, 1)
    pn = np.abs(p[:, 0])
    for pi, si in zip(pn.tolist(), s.tolist()):
        got = monotone_interp_L(pi, si)
        assert type(got) is float
        assert got.hex() == _scalar_interp_g(pi, si).hex()
    got = radial._interp_strip_g(s, pn)
    assert got.tobytes() == np.array([_scalar_interp_g(a, b) for a, b in zip(pn, s)]).tobytes()


def _replay_interp_L_slope_scan(n_s=40, n_p=25):
    """interp_L_slope_scan one grid point at a time, as it was written before
    the scan became one array evaluation."""
    total = nonpos = 0
    outside_ok, witness = True, None
    hole = float(Fraction(32, 45))
    for p in np.geomspace(0.25, 4.0, n_p):
        p = float(p)
        s_edge = hole / p**2
        for s in np.linspace(-2.5 * s_edge, 2.5 * s_edge, n_s):
            s = float(s)
            h = 1e-7 * s_edge
            slope = (_scalar_interp_g(p, s + h) - _scalar_interp_g(p, s - h)) / (2 * h)
            total += 1
            inside = abs(s * p**2) < hole
            if slope <= 1e-9 * (1.0 + abs(slope)):
                nonpos += 1
            else:
                outside_ok = outside_ok and inside
                if witness is None:
                    witness = {"p_norm": p, "s": s, "slope": float(slope), "inside_strip": inside}
    return radial.SlopeScanReport(outside_ok, nonpos / total, witness)


@pytest.mark.parametrize("n_s, n_p", [(40, 25), (7, 3), (101, 9), (1, 1), (2, 60)])
def test_stacked_slope_scan_matches_per_point_replay(n_s, n_p):
    got = interp_L_slope_scan(n_s, n_p)
    assert _bits(got) == _bits(_replay_interp_L_slope_scan(n_s, n_p))


def test_isotropic_format_keeps_generic_text():
    assert format_operator(parse_operator("genL:cubic_mix")) == "genL:cubic_mix"
    assert format_operator(cusp_family_operator("P4", -3.0)) == "genL:<custom:cusp:P4:-3>"
    assert format_operator(interpolated_L_operator()) == "genL:<custom:interp_strip>"


# ---------------------------------------------------------------------------
# singular log family


def test_log_singular_trace_residual_vanishes():
    for mu, alpha, beta, n in ((1.0, -1.0, -1.0, 3), (0.5, 2.0, 0.25, 4)):
        for _ in range(5):
            x = RNG.normal(size=n)
            x /= np.linalg.norm(x) / float(RNG.uniform(0.3, 1.0))
            res, spec, min_eig = log_singular_check(mu, alpha, beta, n, x)
            assert abs(res) < 1e-10
            assert min_eig <= 1e-10
            assert spec.n == n


def test_log_singular_value_gap_at_unit_radius():
    # difference between the mu=1 and mu=0 members at |x|=1 is ln 2 / (alpha - n beta)
    alpha, beta, n = -1.0, -1.0, 3
    k = alpha - n * beta
    p1 = FieldOracle.log_singular(alpha, beta, 1.0, n)
    p0 = FieldOracle.log_singular(alpha, beta, 0.0, n)
    x = np.array([1.0, 0.0, 0.0])
    assert p1.value(x) - p0.value(x) == pytest.approx(math.log(2.0) / k, rel=1e-14)


def test_log_singular_domain_errors():
    with pytest.raises(ValueError):
        log_singular_check(1.0, -1.0, -1.0, 3, np.zeros(3))
    with pytest.raises(ValueError):
        log_singular_check(1.0, 1.0, 1.0, 3, np.ones(3))


# ---------------------------------------------------------------------------
# certificates


@pytest.fixture(scope="module")
def beta_sign_cert() -> CtexCertificate:
    return build_counterexample("beta_sign", alpha=-3.0)


@pytest.fixture(scope="module")
def nondec_cert() -> CtexCertificate:
    return build_counterexample("nondec")


def test_beta_sign_certificate_passes(beta_sign_cert):
    cert = beta_sign_cert
    assert cert.verdict == "pass"
    assert all(cert.clauses.values()), cert.clauses
    assert len(cert.roots) == 4
    assert cert.params["t0"] == -4.5
    assert cert.params["delta"] == 0.25
    assert cert.touching == [2.0]
    # 2001 grid points minus the puncture at r0
    assert len(cert.rows) == 2000
    assert cert.rows["ok"].all()


def test_beta_sign_eigenvalue_bounds(beta_sign_cert):
    # radial eigenvalue of the root profiles vanishes to 1e-9 absolutely,
    # even where the 4/3-power of the distance to the cusp amplifies noise
    rows = beta_sign_cert.rows
    assert np.abs(rows["mu_w"]).max() <= 1e-9
    right = rows["r"] > 2.0
    assert np.all(rows["nu_w"][right] > 0.0) and np.all(rows["nu_v"][right] > 0.0)
    left = rows[~right]
    assert np.all(left["nu_w"] < 0.0) and np.all(left["mu_v"] > 0.0) and np.all(left["nu_v"] > 0.0)


def test_beta_sign_ordering_strict(beta_sign_cert):
    gaps = beta_sign_cert.rows["w"] - beta_sign_cert.rows["v"]
    assert gaps.min() > 1e-9
    assert beta_sign_cert.params["min_gap_over_rho23"] > 0.1


def test_beta_sign_out_of_range_alpha_is_unresolved():
    cert = build_counterexample("beta_sign", alpha=-2.0)
    assert cert.verdict == "unresolved"
    assert cert.clauses["roots_resolved"] is False
    assert len(cert.rows) == 0


def test_nondec_certificate_passes(nondec_cert):
    cert = nondec_cert
    assert cert.verdict == "pass"
    assert all(cert.clauses.values()), cert.clauses
    assert cert.params["t0"] == -3.0
    ts = cert.roots["t"].tolist()
    assert ts[0] < -2.0 < ts[1] < -1.6
    assert 1.6 < ts[2] < 2.0 < ts[3]
    assert cert.clauses["profiles_in_interp_region"]
    assert cert.clauses["interp_L_matches_on_profiles"]
    assert np.abs(cert.rows["mu_w"]).max() <= 1e-9


def test_nondec_rejects_other_alpha():
    with pytest.raises(ValueError):
        build_counterexample("nondec", alpha=-2.0)


def test_bprime_certificate_passes():
    cert = build_counterexample("bprime")
    assert cert.verdict == "pass"
    assert all(cert.clauses.values()), cert.clauses
    assert cert.touching == [2.0]
    # the bump is smooth, the grid is not punctured, and the touching radius
    # is an actual grid point with w = v = 0 there
    assert len(cert.rows) == 2001
    mid = cert.rows[np.argmin(np.abs(cert.rows["r"] - 2.0))]
    assert abs(mid["w"]) < 1e-12
    assert abs(mid["nu_w"]) < 1e-12
    assert cert.rows["w"][0] > 0.0 and cert.rows["w"][-1] > 0.0


def test_holder_certificate_passes():
    cert = build_counterexample("holder", rgrid=501)
    assert cert.verdict == "pass"
    assert all(cert.clauses.values()), cert.clauses
    assert cert.touching == [0.0]
    assert cert.rows["ok"].all()
    assert np.all(cert.rows["w"] > 0.0)


@pytest.mark.parametrize("n", [0, -5, 0.5])
def test_holder_refuses_dimension_below_one(n):
    # n = 0 raised ZeroDivisionError while naming the operator, and n = -5
    # certified a fail verdict for a dimension that does not exist
    with pytest.raises(ValueError, match="dimension n must be at least 1"):
        build_counterexample("holder", rgrid=9, n=n)
    with pytest.raises(ValueError, match="dimension n must be at least 1"):
        RadialProfile.holder_solution(0.5, n)


def test_build_counterexample_validation():
    with pytest.raises(ValueError):
        build_counterexample("nope")
    with pytest.raises(ValueError):
        build_counterexample("beta_sign", rgrid=4)


def test_certificate_csv_shape(beta_sign_cert):
    rows_csv = certificate_rows_csv(beta_sign_cert)
    lines = rows_csv.strip().split("\n")
    # the table alone: the CLI writes the report header
    assert lines[0] == "r,w,v,mu_w,nu_w,mu_v,nu_v,verdict"
    assert not any(line.startswith("#") for line in lines)
    assert beta_sign_cert.verdict == "pass"
    assert len(lines) == 1 + len(beta_sign_cert.rows)
    assert lines[1].endswith(",ok")
    roots_csv = certificate_roots_csv(beta_sign_cert)
    rlines = roots_csv.strip().split("\n")
    assert rlines[0] == "i,t_i,bracket_lo,bracket_hi"
    assert len(rlines) == 5


def test_certificate_csv_deterministic():
    a = certificate_rows_csv(build_counterexample("bprime", rgrid=101))
    b = certificate_rows_csv(build_counterexample("bprime", rgrid=101))
    assert a == b


# ---------------------------------------------------------------------------
# stacked radial eigenvalues (hypothesis): 50 derandomized examples

_PROPERTY = settings(max_examples=50, deadline=None, derandomize=True, database=None)

# one of each operator kind, the callable ones included
_KIND_OPERATORS = {
    "conformal": OperatorSpec.conformal(),
    "quad_const": OperatorSpec.quad_const(1.5, -0.25),
    "quad_var": parse_operator("genL:tanh_quad"),
    "rot_inv": parse_operator("rotinv:pow(0.5,1.5):neg_t"),
    "isotropic": cusp_family_operator("P4", -3.0),
    "general_l": _per_node_cusp_operator("P4", -3.0),
}


@_PROPERTY
@given(
    jets=st.integers(0, 12).flatmap(
        lambda m: st.tuples(*(
            hnp.arrays(np.float64, m, elements=st.floats(lo, hi))
            for lo, hi in ((1e-3, 3.0), (-2.0, 2.0), (-5.0, 5.0), (-1.5, 1.5))
        ))
    ),
    n=st.integers(2, 4),
)
def test_stacked_radial_F_eigs_match_per_radius_calls_property(jets, n):
    r, d, dd, s = jets
    for kind, op in _KIND_OPERATORS.items():
        mu, nu = radial_F_eigs(r, d, dd, op, s=s, n=n)
        assert mu.shape == nu.shape == r.shape, kind
        lone = [radial_F_eigs(*args, op, s=si, n=n) for *args, si in zip(r, d, dd, s)]
        assert mu.tobytes() == np.array([pair[0] for pair in lone]).tobytes(), kind
        assert nu.tobytes() == np.array([pair[1] for pair in lone]).tobytes(), kind
        assert all(type(v) is float for pair in lone for v in pair)


# ---------------------------------------------------------------------------
# stacked cusp-pair certificates against the per-radius replay
#
# The functions below are the per-radius evaluation the certificates used
# before their radius scans became array operations, kept as the bitwise
# reference: each lambda12_t call takes one radius through Python's pow.


def _replay_p(t, alpha, variant):
    if variant == "P4":
        return 64.0 * t**4 + 324.0 * alpha * t**2 + 729.0 * t
    return 6400.0 * t**4 + 32400.0 * alpha * t**2 + 729.0 * t


def _replay_lambda12_t(t, r, r0, alpha, variant):
    if r <= 0.0:
        raise ValueError("radius must be positive")
    rho = r - r0
    if rho == 0.0:
        raise ValueError("profile is not twice differentiable at r = r0")
    if variant == "P4":
        d, k, b, tt = 59049.0, 8.0, 6561.0, 19683.0
    elif variant == "P4tilde":
        d, k, b, tt = 1476225.0, 2.0, 164025.0, 492075.0
    else:
        raise ValueError(f"unknown variant {variant!r}")
    p = _replay_p(t, alpha, variant)
    t13 = cbrt(t)
    denom = abs(rho) ** (4.0 / 3.0)
    lam1 = -(2.0 / d) * t13 * (k * p + b) / denom
    lam2 = -(2.0 / d) * t13 * (k * p - tt * rho / r) / denom
    return lam1, lam2


def _replay_quartic_roots(q, lo=-10.0, hi=10.0, probes=1024, width=1e-12):
    ts = np.linspace(lo, hi, probes + 1)
    vals = [float(quartic_eval(q, float(t))) for t in ts]
    roots = []
    for i in range(probes):
        a, b = float(ts[i]), float(ts[i + 1])
        fa, fb = vals[i], vals[i + 1]
        if fa == 0.0:
            roots.append((a, a, a))
            continue
        if fa * fb >= 0.0:
            continue
        while b - a > width:
            mid = 0.5 * (a + b)
            fm = float(quartic_eval(q, mid))
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        t_hat = 0.5 * (a + b)
        for _ in range(4):
            f = float(quartic_eval(q, t_hat))
            df = float(4 * q.c4) * t_hat**3 + float(2 * q.c2) * t_hat + float(q.c1)
            if df == 0.0 or not math.isfinite(f / df):
                break
            t_new = t_hat - f / df
            if not (ts[i] <= t_new <= ts[i + 1]):
                break
            t_hat = t_new
        roots.append((t_hat, a, b))
    if vals[-1] == 0.0:
        roots.append((float(ts[-1]), float(ts[-1]), float(ts[-1])))
    return np.array(roots, radial._ROOT_ROW)


def _replay_sign_scan_delta(variant, alpha, roots, t0, r0):
    t2, t3, t4 = roots[1], roots[2], roots[3]
    for j in range(2, 10):
        delta = 2.0**-j
        ok = True
        for r in np.linspace(r0 - delta, r0 + delta, 257):
            r = float(r)
            if abs(r - r0) < 1e-12:
                continue
            for t in (t2, t3, t4):
                _, lam2 = _replay_lambda12_t(t, r, r0, alpha, variant)
                if t * lam2 <= 0.0:
                    ok = False
                    break
            if not ok:
                break
            lam1, lam2 = _replay_lambda12_t(t0, r, r0, alpha, variant)
            if lam1 <= 0.0 or lam2 <= 0.0:
                ok = False
                break
        if ok:
            return delta
    return None


def _replay_build_cusp_pair(kind, alpha, rgrid):
    variant = "P4" if kind == "beta_sign" else "P4tilde"
    r0 = 2.0
    if kind == "beta_sign":
        q = QuarticSpec.p4_shifted(Fraction(alpha).limit_denominator(10**9))
        fences = [-2.0, 0.0, 9.0 / 4.0]
    else:
        q = QuarticSpec.p4_tilde_shifted(radial._ALPHA_FIXED)
        fences = [-2.0, -8.0 / 5.0, 8.0 / 5.0, 2.0]
    cert = CtexCertificate(kind=kind, params={"alpha": alpha, "r0": r0, "variant": variant})

    cert.roots = _replay_quartic_roots(q)
    if len(cert.roots) != 4:
        cert.clauses["roots_resolved"] = False
        cert.notes.append(f"expected 4 simple roots, found {len(cert.roots)} at probe resolution")
        return cert
    cert.clauses["roots_resolved"] = True
    ts = cert.roots["t"].tolist()
    if kind == "beta_sign":
        interlace = ts[0] < -2.0 < ts[1] < 0.0 < ts[2] < 9.0 / 4.0 < ts[3]
    else:
        interlace = ts[0] < -2.0 < ts[1] < -8.0 / 5.0 and 8.0 / 5.0 < ts[2] < 2.0 < ts[3]
    cert.clauses["interlacing"] = bool(interlace)
    cert.params["fences"] = fences
    cert.params["roots"] = ts
    if kind == "nondec":
        in_n = all(abs(t) >= 8.0 / 5.0 for t in (ts[1], ts[2], ts[3]))
        cert.clauses["profiles_in_interp_region"] = in_n

    t0_seed = -3.0 if kind == "nondec" else None
    delta = None
    t0 = None
    for attempt_delta in (0.25, 0.125, 0.0625):
        t0 = t0_seed if t0_seed is not None else radial._search_t0(
            q, variant, alpha, ts[0], r0, attempt_delta)
        if t0 is None:
            continue
        q_val = float(quartic_eval(q, t0))
        k, tt = (8.0, 19683.0) if variant == "P4" else (2.0, 492075.0)
        p_val = _replay_p(t0, alpha, variant)
        if q_val > 0.0 and k * p_val > tt * attempt_delta / (r0 + attempt_delta):
            delta = attempt_delta
            break
    if t0 is None or delta is None:
        cert.clauses["t0_found"] = False
        cert.notes.append("no valid interior-positive profile parameter below t1")
        return cert
    cert.clauses["t0_found"] = True
    scan_delta = _replay_sign_scan_delta(variant, alpha, [ts[0], ts[1], ts[2], ts[3]], t0, r0)
    if scan_delta is not None:
        delta = min(delta, scan_delta)
    cert.params.update({"t0": t0, "delta": delta})

    w_right, w_left = ts[3], ts[1]
    v_right, v_left = ts[2], t0

    def profile(t, r):
        c = cbrt(t)
        rho = r - r0
        arho = abs(rho)
        return (
            c * arho ** (2.0 / 3.0),
            (2.0 / 3.0) * c * arho ** (-1.0 / 3.0) * math.copysign(1.0, rho),
            -(2.0 / 9.0) * c * arho ** (-4.0 / 3.0),
        )

    w_ok = True
    v_ok = True
    sign_ok = True
    min_gap_scaled = math.inf
    w_jets = []
    rows = []
    for r in np.linspace(r0 - delta, r0 + delta, rgrid):
        r = float(r)
        if abs(r - r0) < 1e-12:
            continue
        tw = w_right if r > r0 else w_left
        tv = v_right if r > r0 else v_left
        mu_w, nu_w = _replay_lambda12_t(tw, r, r0, alpha, variant)
        mu_v, nu_v = _replay_lambda12_t(tv, r, r0, alpha, variant)
        w_val, w_d, w_dd = profile(tw, r)
        v_val = profile(tv, r)[0]
        row_w = abs(mu_w) <= radial._EIG_TOL and min(mu_w, nu_w) <= radial._EIG_TOL
        if r > r0:
            branch_sign = nu_w > 0.0 and nu_v > 0.0
            row_v = abs(mu_v) <= radial._EIG_TOL and min(mu_v, nu_v) >= -radial._EIG_TOL
        else:
            branch_sign = nu_w < 0.0 and mu_v > 0.0 and nu_v > 0.0
            row_v = min(mu_v, nu_v) >= -radial._EIG_TOL
        sign_ok &= branch_sign
        scale = 1.0 + max(abs(mu_w), abs(nu_w), abs(mu_v), abs(nu_v))
        w_jets.append((r, w_val, w_d, w_dd, mu_w, nu_w, scale))
        gap = w_val - v_val
        min_gap_scaled = min(min_gap_scaled, gap / abs(r - r0) ** (2.0 / 3.0))
        w_ok &= row_w
        v_ok &= row_v
        rows.append((r, w_val, v_val, mu_w, nu_w, mu_v, nu_v, row_w and row_v))
    cert.rows = np.array(rows, dtype=radial._CERT_ROW)

    r, w_val, w_d, w_dd, mu_w, nu_w, scale = np.array(w_jets).T
    tol = 1e-9 * scale

    def matches(op):
        mu_g, nu_g = radial_F_eigs(r, w_d, w_dd, op, s=w_val)
        return not np.any((np.abs(mu_g - mu_w) > tol) | (np.abs(nu_g - nu_w) > tol))

    cross_ok = matches(_per_node_cusp_operator(variant, alpha))
    interp_agree = kind == "nondec" and matches(_per_node_interp_operator())
    cert.clauses["w_supersolution"] = w_ok and sign_ok
    cert.clauses["v_subsolution"] = v_ok and sign_ok
    cert.clauses["eig_sign_pattern"] = sign_ok
    cert.clauses["closed_form_matches_jets"] = cross_ok
    if kind == "nondec":
        cert.clauses["interp_L_matches_on_profiles"] = interp_agree
    cert.clauses["ordering"] = min_gap_scaled > 0.0
    gaps = [w - v for _, w, v, *_ in rows]
    cert.clauses["touching_only_at_r0"] = all(gap > radial._EIG_TOL for gap in gaps)
    cert.clauses["boundary_gap"] = gaps[0] > 0.0 and gaps[-1] > 0.0
    cert.touching = [r0]
    cert.params["min_gap_over_rho23"] = min_gap_scaled
    cert.notes.append(
        "profiles meet with value 0 at r0 with vertical tangents; the cusp makes "
        "touching test functions impossible there, so the grid is punctured at r0"
    )
    return cert


def _replay_build_counterexample(kind, rgrid=2001, **params):
    if rgrid < 9:
        raise ValueError("rgrid too small to certify anything")
    if kind == "beta_sign":
        return _replay_build_cusp_pair("beta_sign", params.get("alpha", -3.0), rgrid)
    if "alpha" in params and Fraction(params["alpha"]).limit_denominator(10**6) != radial._ALPHA_FIXED:
        raise ValueError("the non-monotone-free family is fixed at alpha = -36/25")
    return _replay_build_cusp_pair("nondec", float(radial._ALPHA_FIXED), rgrid)


def _replay_cusp_pair_values(cert, rgrid=None):
    if cert.kind not in ("beta_sign", "nondec"):
        raise ValueError("only the cusp-profile certificates carry a (w, v) pair")
    if not cert.clauses.get("roots_resolved") or "t0" not in cert.params:
        raise ValueError("certificate is unresolved; no profile pair available")
    ts = cert.params["roots"]
    t0 = float(cert.params["t0"])
    r0 = float(cert.params["r0"])
    delta = float(cert.params["delta"])
    if rgrid is None:
        rgrid = len(cert.rows) + 1
    radii = np.linspace(r0 - delta, r0 + delta, rgrid)
    w = np.empty(rgrid)
    v = np.empty(rgrid)
    for i, r in enumerate(radii):
        rho = abs(float(r) - r0)
        tw = ts[3] if r > r0 else ts[1]
        tv = ts[2] if r > r0 else t0
        w[i] = cbrt(tw) * rho ** (2.0 / 3.0)
        v[i] = cbrt(tv) * rho ** (2.0 / 3.0)
    return radii, w, v


# the smooth-profile certificates before their rows became columns: one
# radial_F_eigs call and one libm profile call per radius

_HOLDER_NOTE = ("both fields solve the trace equation exactly; the lower-order term is "
                "only Holder continuous in the gradient, which is what permits touching")


def _replay_radial_row(prof, op, r):
    mu_w, nu_w = radial_F_eigs(r, prof.dpsi(r), prof.ddpsi(r), op)
    mu_v, nu_v = radial_F_eigs(r, 0.0, 0.0, op)
    return prof.psi(r), mu_w, nu_w, mu_v, nu_v


def _replay_bprime(rgrid, r0=2.0, delta=0.5):
    cert = CtexCertificate(
        kind="bprime",
        params={"r0": r0, "delta": delta, "a": "0", "b": "-t", "domain": (r0 - 1.0, r0 + 1.0)},
    )
    prof = RadialProfile.tanh_bump(delta, r0)
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -t, name="rotinv:zero:neg_t")
    slopes = np.linspace(1e-4, delta * 0.499, 64)
    cert.clauses["slope_radius_margin"] = all(r0 > s / abs(-s) for s in slopes)
    all_ok, touching, rows = True, [], []
    for r in np.linspace(r0 - 1.0, r0 + 1.0, rgrid).tolist():
        w_val, mu_w, nu_w, mu_v, nu_v = _replay_radial_row(prof, op, r)
        scale = 1.0 + max(abs(mu_w), abs(nu_w))
        row_ok = nu_w <= radial._EIG_TOL * scale
        row_ok &= abs(mu_v) <= radial._EIG_TOL and abs(nu_v) <= radial._EIG_TOL
        all_ok &= row_ok
        if abs(w_val) <= 1e-12:
            touching.append(r)
        rows.append((r, w_val, 0.0, mu_w, nu_w, mu_v, nu_v, row_ok))
    cert.rows = np.array(rows, dtype=radial._CERT_ROW)
    cert.clauses["w_supersolution"] = all_ok
    cert.clauses["v_subsolution"] = True
    cert.clauses["nu_zero_at_r0"] = abs(radial_F_eigs(r0, prof.dpsi(r0), prof.ddpsi(r0), op)[1]) <= 1e-12
    cert.clauses["touching_only_at_r0"] = touching == [r0] or (
        len(touching) == 1 and abs(touching[0] - r0) < 1e-9
    )
    cert.clauses["boundary_gap"] = rows[0][1] > 0.0 and rows[-1][1] > 0.0
    cert.touching = [r0]
    return cert


def _replay_holder(rgrid, gamma=0.5, n=3):
    cert = CtexCertificate(kind="holder", params={"gamma": gamma, "n": n, "lam": 1.0 / (1.0 - gamma)})
    prof = RadialProfile.holder_solution(gamma, n)
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -(float(t) ** gamma) / n if t > 0.0 else 0.0)
    all_ok, rows = True, []
    for r in np.geomspace(1e-6, 1.0, rgrid).tolist():
        w_val, mu_w, nu_w, mu_v, nu_v = _replay_radial_row(prof, op, r)
        trace_res = mu_w + (n - 1) * nu_w
        scale = 1.0 + abs(mu_w) + abs(nu_w)
        row_ok = abs(trace_res) <= 1e-10 * scale and abs(mu_v) <= 1e-14 and abs(nu_v) <= 1e-14
        all_ok &= row_ok
        rows.append((r, w_val, 0.0, mu_w, nu_w, mu_v, nu_v, row_ok))
    cert.rows = np.array(rows, dtype=radial._CERT_ROW)
    cert.clauses["w_exact_solution"] = all_ok
    cert.clauses["v_exact_solution"] = True
    cert.clauses["ordering"] = all(row[1] > 0.0 for row in rows)
    cert.clauses["touching_only_at_origin"] = rows[0][1] < 1e-8 and rows[-1][1] > 1e-3
    cert.touching = [0.0]
    cert.notes.append(_HOLDER_NOTE)
    return cert


def _bits(obj):
    """obj with every float as (type, hex) and every container unfolded."""
    if isinstance(obj, float):
        return (type(obj).__name__, obj.hex())
    if isinstance(obj, (bool, int, str, type(None))):
        return (type(obj).__name__, obj)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return ("dict", tuple((k, _bits(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, tuple(_bits(v) for v in obj))
    fields = dataclasses.fields(obj)
    return (type(obj).__name__, tuple((f.name, _bits(getattr(obj, f.name))) for f in fields))


def _outcome(fn, *args, **kwargs):
    try:
        return ("ok", _bits(fn(*args, **kwargs)))
    except (ValueError, TypeError, ArithmeticError) as exc:
        return (type(exc).__name__, str(exc))


# alphas with a passing certificate, unresolved ones (too few roots in
# [-10, 10]), one whose w rows fail (-19.45) and values at the transitions
_CUSP_ALPHAS = (-3.0, -2.5, -4.0, -3.7, -1.0, 0.0, -2.5001, -2.9, -12.5, -19.45, -20.0, -7.25)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    kind=st.sampled_from(("beta_sign", "nondec")),
    alpha=st.one_of(st.sampled_from(_CUSP_ALPHAS), st.floats(-21.0, 1.0)),
    rgrid=st.one_of(st.sampled_from((9, 10, 11, 101, 500, 501, 2001, 4001)), st.integers(9, 700)),
    values_grid=st.one_of(st.none(), st.integers(0, 300)),
)
@example(kind="beta_sign", alpha=-19.45, rgrid=2001, values_grid=None)  # verdict fail
@example(kind="beta_sign", alpha=-3.0, rgrid=4001, values_grid=2001)
@example(kind="nondec", alpha=-3.0, rgrid=4001, values_grid=None)
@example(kind="beta_sign", alpha=-2.5, rgrid=10, values_grid=11)  # unresolved
@example(kind="nondec", alpha=-3.0, rgrid=10, values_grid=0)
def test_stacked_cusp_certificate_matches_per_radius_replay_property(kind, alpha, rgrid,
                                                                     values_grid):
    params = {"alpha": alpha} if kind == "beta_sign" else {}
    cert = build_counterexample(kind, rgrid=rgrid, **params)
    ref = _replay_build_counterexample(kind, rgrid=rgrid, **params)
    assert _bits(cert) == _bits(ref)
    assert cert.verdict == ref.verdict
    assert (_outcome(cusp_pair_values, cert, values_grid)
            == _outcome(_replay_cusp_pair_values, ref, values_grid))


@pytest.mark.parametrize("kind,params", [
    ("beta_sign", {"alpha": -3.0}), ("beta_sign", {"alpha": -2.5}),
    ("nondec", {}), ("nondec", {"alpha": -1.44}), ("nondec", {"alpha": -2.0}),
    ("beta_sign", {"alpha": float("nan")}), ("beta_sign", {"alpha": float("inf")}),
])
@pytest.mark.parametrize("rgrid", [8, 9, 10])
def test_stacked_cusp_certificate_raises_as_per_radius_replay(kind, params, rgrid):
    assert (_outcome(build_counterexample, kind, rgrid=rgrid, **params)
            == _outcome(_replay_build_counterexample, kind, rgrid=rgrid, **params))


def test_cusp_pair_values_raise_as_per_radius_replay():
    bad = [build_counterexample("bprime", rgrid=11), build_counterexample("beta_sign", alpha=-2.5)]
    good = build_counterexample("beta_sign", rgrid=11)
    for cert, grid in [(c, None) for c in bad] + [(good, -1), (good, 2.5), (good, 0)]:
        assert _outcome(cusp_pair_values, cert, grid) == _outcome(_replay_cusp_pair_values, cert, grid)


@pytest.mark.parametrize("rgrid", [9, 10, 101, 2001])
@pytest.mark.parametrize("kind,params", [
    ("bprime", {}), ("bprime", {"r0": 3.5, "delta": 0.8}), ("bprime", {"r0": 1.25, "delta": 0.1}),
    ("bprime", {"r0": 0.9}),  # radii below zero: radial_F_eigs raises
    ("holder", {}), ("holder", {"gamma": 0.25, "n": 2}), ("holder", {"gamma": 0.8, "n": 5}),
    ("holder", {"gamma": 1.5}),  # holder_solution raises
])
def test_column_certificates_match_per_radius_replay(kind, params, rgrid):
    replay = _replay_bprime if kind == "bprime" else _replay_holder
    assert (_outcome(build_counterexample, kind, rgrid=rgrid, **params)
            == _outcome(replay, rgrid, **params))


def test_build_counterexample_refuses_parameters_of_other_kinds():
    for kind, name in [("bprime", "alpha"), ("holder", "alpha"), ("beta_sign", "r0"),
                       ("nondec", "gamma"), ("holder", "delta"), ("bprime", "n")]:
        with pytest.raises(ValueError, match=f"the {kind} family takes no parameter '{name}'"):
            build_counterexample(kind, **{name: 1.0})


@_PROPERTY
@given(
    t=st.floats(-10.0, 10.0),
    r=hnp.arrays(np.float64, st.integers(0, 40), elements=st.floats(1e-6, 6.0)),
    alpha=st.floats(-10.0, 2.0),
    variant=st.sampled_from(("P4", "P4tilde")),
)
def test_stacked_lambda12_t_matches_per_radius_calls_property(t, r, alpha, variant):
    r0 = 2.0
    r = r[r != r0]
    lam1, lam2 = lambda12_t(t, r, r0, alpha, variant)
    lone = [_replay_lambda12_t(t, float(ri), r0, alpha, variant) for ri in r]
    assert lam1.tobytes() == np.array([pair[0] for pair in lone]).tobytes()
    assert lam2.tobytes() == np.array([pair[1] for pair in lone]).tobytes()
    for ri, pair in zip(r.tolist(), lone):
        one = lambda12_t(t, ri, r0, alpha, variant)
        assert all(type(v) is float for v in one)
        assert _bits(one) == _bits(pair)


def test_stacked_lambda12_t_raises_as_per_radius_calls():
    for r in ([3.0, 0.0], [3.0, -1.0], [2.5, 2.0], [[1.5, 2.0], [-1.0, 3.0]]):
        with pytest.raises(ValueError) as stacked:
            lambda12_t(1.0, np.array(r), 2.0, -3.0, "P4")
        # one of the errors the per-radius calls raise
        lone = [_outcome(_replay_lambda12_t, 1.0, ri, 2.0, -3.0, "P4")
                for ri in np.ravel(r).tolist()]
        assert ("ValueError", str(stacked.value)) in lone
    for r in (2.0, 0.0, -1.0, 3.0):
        for variant in ("P4", "P5"):
            assert (_outcome(lambda12_t, 1.0, r, 2.0, -3.0, variant)
                    == _outcome(_replay_lambda12_t, 1.0, r, 2.0, -3.0, variant))
    with pytest.raises(ValueError, match="unknown variant"):
        lambda12_t(1.0, np.array([3.0]), 2.0, -3.0, "P5")


def test_stacked_sign_scan_matches_per_radius_replay():
    # roots spread around the fences reach most dyadic deltas and the
    # no-delta outcome
    rng = np.random.default_rng(7)
    outcomes = set()
    for _ in range(150):
        roots = [rng.uniform(lo, hi) for lo, hi in ((-6, -2), (-2, 0), (0, 2.25), (2.25, 6))]
        alpha, t0 = rng.uniform(-8.0, -2.6), rng.uniform(-8.0, -2.0)
        variant = ("P4", "P4tilde")[int(rng.integers(2))]
        delta = radial._sign_scan_delta(variant, alpha, roots, t0, 2.0)
        assert delta == _replay_sign_scan_delta(variant, alpha, roots, t0, 2.0)
        outcomes.add(delta)
    assert None in outcomes and len(outcomes) >= 5


@pytest.mark.parametrize("q", [
    QuarticSpec.p4_shifted(Fraction(-3)), QuarticSpec.p4_shifted(Fraction(-2)),
    QuarticSpec.p4_tilde_shifted(Fraction(-36, 25)), QuarticSpec(1, 0, 0, -10000),
    QuarticSpec(Fraction(1, 3), Fraction(-7, 2), 1, Fraction(5, 7)), QuarticSpec(1, -5, 0, 4),
])
def test_stacked_quartic_probes_match_per_probe_replay(q):
    assert _bits(quartic_roots(q)) == _bits(_replay_quartic_roots(q))
    ts = np.linspace(-10.0, 10.0, 1025)
    assert _bits(quartic_eval(q, ts).tolist()) == _bits([quartic_eval(q, float(t)) for t in ts])


def test_cusp_certificate_evaluates_whole_radius_arrays(monkeypatch):
    # the certificate makes a handful of lambda12_t calls, not one per radius
    calls = []
    inner = radial.lambda12_t

    def counting(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(radial, "lambda12_t", counting)
    assert build_counterexample("beta_sign").verdict == "pass"
    assert 0 < len(calls) <= 64
