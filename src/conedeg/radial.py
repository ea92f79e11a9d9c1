"""Radial profiles, quartic root isolation, and the counterexample gallery.

Rotationally invariant operators F[psi] = Hess psi + L(psi, grad psi) reduce
on radial functions psi(|x|) to two eigenvalues,

    mu = psi'' + (L-part along the radius),   nu = psi'/r + (L-part across),

and the bundled counterexample families are built and certified entirely in
this reduction: closed-form profiles, certified quartic root brackets, and a
per-radius sign scan that becomes a pass/fail certificate.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .envelopes import _format_rows
from .matcone import eigen_sym
from .operators import FieldOracle, OperatorSpec, _cusp_g, _libm, _radial_jets, _where_positive, eval_F, eval_L

__all__ = [
    "RadialProfile",
    "QuarticSpec",
    "CtexCertificate",
    "cbrt",
    "radial_F_eigs",
    "lambda12_t",
    "quartic_eval",
    "quartic_roots",
    "build_counterexample",
    "cusp_pair_values",
    "monotone_interp_L",
    "interp_L_slope_scan",
    "log_singular_check",
    "certificate_rows_csv",
    "certificate_roots_csv",
]


def cbrt(t: float) -> float:
    """Real cube root, negative branch for negative input."""
    return math.copysign(abs(t) ** (1.0 / 3.0), t)


# ---------------------------------------------------------------------------
# radial profiles


@dataclass(frozen=True)
class RadialProfile:
    """Closed-form or sampled radial function with exact derivatives."""

    name: str
    r_lo: float
    r_hi: float
    psi: Callable[[float], float]
    dpsi: Callable[[float], float]
    ddpsi: Callable[[float], float]
    excluded: tuple[float, ...] = ()

    @classmethod
    def tanh_bump(cls, delta: float, r0: float) -> "RadialProfile":
        """w(r) = (delta/2) ln cosh(r - r0); w' ranges in (-delta/2, delta/2)."""
        half = 0.5 * delta

        def psi(r):
            return half * math.log(math.cosh(r - r0))

        def dpsi(r):
            return half * math.tanh(r - r0)

        def ddpsi(r):
            return half / math.cosh(r - r0) ** 2

        return cls(f"tanh_bump:{delta:g}", r0 - 1.0, r0 + 1.0, psi, dpsi, ddpsi)

    @classmethod
    def holder_solution(cls, gamma: float, n: int, r_hi: float = 1.0) -> "RadialProfile":
        """psi(r) = r^{lam+1} / ((lam+1)(lam+n-1)^lam), lam = 1/(1-gamma).

        Classical solution of (Laplacian psi) = |grad psi|^gamma; the scaling
        constant makes both sides match exactly.
        """
        if not 0.0 < gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not n >= 1:
            raise ValueError("the dimension n must be at least 1")
        lam = 1.0 / (1.0 - gamma)
        c = 1.0 / ((lam + 1.0) * (lam + n - 1.0) ** lam)

        def psi(r):
            return c * r ** (lam + 1.0)

        def dpsi(r):
            return c * (lam + 1.0) * r**lam

        def ddpsi(r):
            return c * (lam + 1.0) * lam * r ** (lam - 1.0)

        return cls(f"holder:{gamma:g}:{n}", 0.0, r_hi, psi, dpsi, ddpsi, excluded=(0.0,))

    @classmethod
    def boundary_lip(cls, m: float, a: float = 2.0) -> "RadialProfile":
        """psi(r) = -(m-1)^{(m-2)/(m-1)} (m-2)^{-1} (r-1)^{(m-2)/(m-1)} on (1, a).

        Satisfies psi'' = |psi'|^m exactly; the gradient blows up at r = 1,
        so the solution is continuous up to the boundary but not Lipschitz.
        """
        if m <= 2.0:
            raise ValueError("m must exceed 2")
        kappa = (m - 2.0) / (m - 1.0)
        c = (m - 1.0) ** kappa / (m - 2.0)

        def psi(r):
            return -c * (r - 1.0) ** kappa

        def dpsi(r):
            return -c * kappa * (r - 1.0) ** (kappa - 1.0)

        def ddpsi(r):
            return -c * kappa * (kappa - 1.0) * (r - 1.0) ** (kappa - 2.0)

        return cls(f"boundary_lip:{m:g}", 1.0, a, psi, dpsi, ddpsi, excluded=(1.0,))

    @classmethod
    def sampled(cls, r: np.ndarray, psi: np.ndarray, dpsi: np.ndarray, ddpsi: np.ndarray) -> "RadialProfile":
        r = np.asarray(r, dtype=float)
        if np.any(np.diff(r) <= 0.0):
            raise ValueError("sample radii must be strictly increasing")
        arrays = [np.asarray(a, dtype=float) for a in (psi, dpsi, ddpsi)]
        if any(a.shape != r.shape for a in arrays):
            raise ValueError("sample arrays must match the radius grid")

        def make(vals):
            def f(rq: float) -> float:
                i = int(np.argmin(np.abs(r - rq)))
                if abs(r[i] - rq) > 1e-9 * (1.0 + abs(rq)):
                    raise ValueError(f"r={rq} is not a sample node")
                return float(vals[i])

            return f

        return cls("sampled", float(r[0]), float(r[-1]), make(arrays[0]), make(arrays[1]), make(arrays[2]))


# ---------------------------------------------------------------------------
# radial eigenvalues


def radial_F_eigs(r, dpsi, ddpsi, spec: OperatorSpec, s=0.0, n: int = 2):
    """The two distinct eigenvalues (mu, nu) of F at radial jets.

    mu is the eigenvalue along the radius, nu the (n-1)-fold one across it;
    computed by assembling the full matrices at x = r e_1 and reading the
    diagonal, which is exact for every rotationally invariant kind.  Scalars
    give two floats; arrays (broadcast together) two arrays of those floats.
    """
    r, dpsi, ddpsi, s = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, dpsi, ddpsi, s)))
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    x, p, h = _radial_jets(r, dpsi, ddpsi, n)
    f = h + eval_L(spec, x, s, p)
    if not np.all(np.isfinite(f)):
        raise ValueError("matrix entries must be finite")
    mu, nu = f[..., 0, 0], f[..., 1, 1]
    return (float(mu), float(nu)) if r.ndim == 0 else (mu, nu)


class _CuspVariant(namedtuple("_CuspVariant", "p4 p2 p1 d k b tt q4")):
    """One cusp-profile variant: P(t) = p4 t^4 + p2 alpha t^2 + p1 t, the
    constants (D, K, B, T) of its radial eigenvalues (see lambda12_t) and the
    |p|^4 divisor q4 of L = -(s^3|p|^10 + alpha s|p|^6 + |p|^4 / q4) I."""

    def p(self, t: float, alpha: float) -> float:
        return self.p4 * t**4 + self.p2 * alpha * t**2 + self.p1 * t


_CUSP_VARIANTS = {
    "P4": _CuspVariant(64.0, 324.0, 729.0, 59049.0, 8.0, 6561.0, 19683.0, 1.0),
    "P4tilde": _CuspVariant(6400.0, 32400.0, 729.0, 1476225.0, 2.0, 164025.0, 492075.0, 100.0),
}


def _cusp_variant(variant: str) -> _CuspVariant:
    if variant not in _CUSP_VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    return _CUSP_VARIANTS[variant]


def lambda12_t(t: float, r, r0: float, alpha: float, variant: str):
    """Closed-form eigenvalues of the cusp-profile family at radius r.

    variant "P4":     operator Hess - (s^3|p|^10 + alpha s|p|^6 + |p|^4) I
    variant "P4tilde": same with |p|^4 divided by its q4
    Both reduce on psi_t = t^{1/3}|r-r0|^{2/3} to
        lambda1 = -(2/D) t^{1/3} (K P(t) + B) / |r-r0|^{4/3}
        lambda2 = -(2/D) t^{1/3} (K P(t) - T (r-r0)/r) / |r-r0|^{4/3}
    with P and (D, K, B, T) the variant's entry in _CUSP_VARIANTS.

    t is one parameter; r is a radius (two floats back) or an array of radii
    (two arrays, each entry bitwise the float a lone call gives).  Any r <= 0
    or r == r0 raises.  |r-r0|^{4/3} goes through libm pow (see _libm).
    """
    r = np.asarray(r, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radius must be positive")
    rho = r - r0
    if np.any(rho == 0.0):
        raise ValueError("profile is not twice differentiable at r = r0")
    c = _cusp_variant(variant)
    p = c.p(t, alpha)
    t13 = cbrt(t)
    denom = _libm(math.pow, np.abs(rho), 4.0 / 3.0)
    lam1 = -(2.0 / c.d) * t13 * (c.k * p + c.b) / denom
    lam2 = -(2.0 / c.d) * t13 * (c.k * p - c.tt * rho / r) / denom
    return (float(lam1), float(lam2)) if r.ndim == 0 else (lam1, lam2)


def cusp_family_operator(variant: str, alpha: float) -> OperatorSpec:
    """The isotropic operator whose radial reduction lambda12_t evaluates."""
    q4 = _cusp_variant(variant).q4
    return OperatorSpec.isotropic(_cusp_g(alpha, q4), m=10.0, name=f"cusp:{variant}:{alpha:g}")


# ---------------------------------------------------------------------------
# quartics with certified roots


@dataclass(frozen=True)
class QuarticSpec:
    """c4 t^4 + c2 t^2 + c1 t + c0 with exact rational coefficients."""

    c4: Fraction
    c2: Fraction
    c1: Fraction
    c0: Fraction

    def __post_init__(self) -> None:
        for name in ("c4", "c2", "c1", "c0"):
            object.__setattr__(self, name, Fraction(getattr(self, name)))
        if self.c4 == 0:
            raise ValueError("quartic needs c4 != 0")
        if max(abs(self.c4), abs(self.c2), abs(self.c1), abs(self.c0)) > np.finfo(float).max:
            raise ValueError("a quartic coefficient overflows a float")

    @classmethod
    def p4_shifted(cls, alpha: Fraction | float) -> "QuarticSpec":
        """K P(t) + B of the P4 variant, whose sign is that of lambda1."""
        return cls._cusp_shifted("P4", alpha)

    @classmethod
    def p4_tilde_shifted(cls, alpha: Fraction | float) -> "QuarticSpec":
        """K P(t) + B of the P4tilde variant."""
        return cls._cusp_shifted("P4tilde", alpha)

    @classmethod
    def _cusp_shifted(cls, variant: str, alpha: Fraction | float) -> "QuarticSpec":
        # exact: every table entry is an integer-valued float
        a = Fraction(alpha) if not isinstance(alpha, float) else Fraction(alpha).limit_denominator(10**9)
        c = _CUSP_VARIANTS[variant]
        k = Fraction(c.k)
        try:
            return cls(k * Fraction(c.p4), k * Fraction(c.p2) * a, k * Fraction(c.p1), Fraction(c.b))
        except ValueError as exc:  # alpha scales the t^2 coefficient
            raise ValueError(f"alpha = {float(a):g}: {exc}") from None


def quartic_eval(q: QuarticSpec, t: "Fraction | int | float"):
    """Evaluate the quartic; exact Fraction arithmetic for exact inputs.

    Rational inputs stay rational (no rounding anywhere); floats use plain
    Horner evaluation, which is adequate at the moderate magnitudes here.  A
    float array is evaluated entrywise in the same operation order.
    """
    if isinstance(t, (Fraction, int)):
        tq = Fraction(t)
        return ((q.c4 * tq * tq + q.c2) * tq + q.c1) * tq + q.c0
    tf = t.astype(float) if isinstance(t, np.ndarray) else float(t)
    return ((float(q.c4) * tf * tf + float(q.c2)) * tf + float(q.c1)) * tf + float(q.c0)


# a certified root t and its bisection bracket [lo, hi]; a root's index is its row
_ROOT_ROW = np.dtype([("t", np.float64), ("lo", np.float64), ("hi", np.float64)])

# the probe window, its probe intervals, and the bisection's bracket width
_ROOT_LO, _ROOT_HI, _ROOT_PROBES, _ROOT_WIDTH = -10.0, 10.0, 1024, 1e-12


def quartic_roots(q: QuarticSpec) -> np.ndarray:
    """All simple real roots in [-10, 10] by sign-change bracketing + bisection,
    as _ROOT_ROW rows in ascending order.

    A double root produces no sign change at the probe resolution and is
    therefore missing from the rows; callers that expect a fixed count
    treat a shortfall as "unresolved" rather than inventing roots.
    """
    ts = np.linspace(_ROOT_LO, _ROOT_HI, _ROOT_PROBES + 1)
    vals = quartic_eval(q, ts)
    # a probe value of 0 is a root; otherwise a sign change (or a NaN product)
    # is bisected
    f0, f1 = vals[:-1], vals[1:]
    starts = np.flatnonzero((f0 == 0.0) | ~(f0 * f1 >= 0.0)).tolist()
    roots = np.empty(len(starts) + int(vals[-1] == 0.0), _ROOT_ROW)
    for row, i in enumerate(starts):
        a, b = float(ts[i]), float(ts[i + 1])
        fa = float(vals[i])
        if fa == 0.0:
            roots[row] = a, a, a
            continue
        while b - a > _ROOT_WIDTH:
            mid = 0.5 * (a + b)
            fm = float(quartic_eval(q, mid))
            if fm == 0.0:
                a = b = mid
                break
            if fa * fm < 0.0:
                b = mid
            else:
                a, fa = mid, fm
        # Newton polish: the bracket fixes ~1e-12, the polish pushes the
        # residual down to evaluation noise, which the eigenvalue
        # certificates need because a 4/3-power of the radius amplifies it
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
        roots[row] = t_hat, a, b
    if vals[-1] == 0.0:
        roots[-1] = (ts[-1],) * 3
    return roots


# ---------------------------------------------------------------------------
# the interpolated lower-order coefficient


_ALPHA_FIXED = Fraction(-36, 25)
_HOLE = Fraction(32, 45)  # |s| |p|^2 below this is the interpolation strip
_VAL_LO = Fraction(-245821, 364500)
_VAL_HI = Fraction(238531, 364500)
_SLOPE = Fraction(-52, 675)


def monotone_interp_L(p_norm, s, alpha=_ALPHA_FIXED):
    """Scalar coefficient g(s, |p|) of the interpolated operator L = g I.

    Outside the strip {|s| |p|^2 < 32/45} this is exactly
    -(s^3|p|^10 + alpha s|p|^6 + |p|^4 / q4), the P4tilde cusp coefficient
    (q4 from _CUSP_VARIANTS); inside, a cubic Hermite in s matching values
    and s-slopes at the strip boundary.  Accepts Fraction arguments and then
    evaluates in exact rational arithmetic; floats go through the array form
    _interp_strip_g.

    Note the two boundary values: -(245821/364500)|p|^4 at the lower end and
    +(238531/364500)|p|^4 at the upper end.  The coefficient rises across
    the strip while both end slopes are negative, so no interpolation is
    monotone in s there; interp_L_slope_scan reports the actual sign
    pattern.
    """
    if alpha is not _ALPHA_FIXED and Fraction(alpha).limit_denominator(10**6) != _ALPHA_FIXED:
        raise ValueError("the interpolated family is defined only for alpha = -36/25")
    if not (isinstance(p_norm, (Fraction, int)) and isinstance(s, (Fraction, int))):
        if float(p_norm) < 0:
            raise ValueError("p_norm must be nonnegative")
        return float(_interp_strip_g(float(s), float(p_norm)))
    p_norm, s = Fraction(p_norm), Fraction(s)
    if p_norm < 0:
        raise ValueError("p_norm must be nonnegative")
    p2 = p_norm * p_norm
    prod = s * p2
    if p_norm == 0:
        return Fraction(0)
    if prod <= -_HOLE or prod >= _HOLE:
        return -(s**3 * p2**5 + _ALPHA_FIXED * s * p2**3 + p2**2 / Fraction(_CUSP_VARIANTS["P4tilde"].q4))
    p4 = p2 * p2
    s_lo, s_hi = -_HOLE / p2, _HOLE / p2
    width = s_hi - s_lo
    y_lo, y_hi = _VAL_LO * p4, _VAL_HI * p4
    d = _SLOPE * p4 * p2
    tau = (s - s_lo) / width
    h00 = (1 + 2 * tau) * (1 - tau) ** 2
    h10 = tau * (1 - tau) ** 2
    h01 = tau * tau * (3 - 2 * tau)
    h11 = tau * tau * (tau - 1)
    return h00 * y_lo + h10 * width * d + h01 * y_hi + h11 * width * d


def _interp_strip_g(s, p_norm) -> np.ndarray:
    """monotone_interp_L on float arrays s and |p| (broadcast together).

    The same operations in the same order as the scalar formula, and each
    power through libm pow (see _libm), so every entry is bitwise the float
    that formula gives for its own pair.
    """
    s, pn = np.broadcast_arrays(np.asarray(s, dtype=float), np.asarray(p_norm, dtype=float))
    shape, s, pn = s.shape, s.ravel(), pn.ravel()
    hole = float(_HOLE)
    p2 = pn * pn
    prod = s * p2
    out = np.zeros(s.shape)
    outer = (pn != 0.0) & ((prod <= -hole) | (prod >= hole))
    inner = (pn != 0.0) & ~outer
    so, q = s[outer], p2[outer]
    out[outer] = -(_libm(math.pow, so, 3) * _libm(math.pow, q, 5)
                   + float(_ALPHA_FIXED) * so * _libm(math.pow, q, 3)
                   + _libm(math.pow, q, 2) / _CUSP_VARIANTS["P4tilde"].q4)
    si, q = s[inner], p2[inner]
    p4 = q * q
    s_lo, s_hi = -hole / q, hole / q
    width = s_hi - s_lo
    y_lo, y_hi = float(_VAL_LO) * p4, float(_VAL_HI) * p4
    d = float(_SLOPE) * p4 * q
    tau = (si - s_lo) / width
    sq = _libm(math.pow, 1 - tau, 2)
    h00 = (1 + 2 * tau) * sq
    h10 = tau * sq
    h01 = tau * tau * (3 - 2 * tau)
    h11 = tau * tau * (tau - 1)
    out[inner] = h00 * y_lo + h10 * width * d + h01 * y_hi + h11 * width * d
    return out.reshape(shape)


@dataclass
class SlopeScanReport:
    grid_points: int
    nonpos_outside: bool
    nonpos_fraction: float
    rise_witness: dict | None


def interp_L_slope_scan(n_s: int = 40, n_p: int = 25) -> SlopeScanReport:
    """Finite-difference sign scan of d/ds of the interpolated coefficient.

    Outside the strip the coefficient is non-increasing in s (that is what
    the strip boundary 32/45 encodes); inside, it must rise from the lower
    boundary value to the larger upper one, so the scan genuinely finds
    positive slopes and reports a witness instead of a clean verdict.  The
    (|p|, s) grid is one array evaluation; the witness is the first rising
    point in |p|-major order.
    """
    p = np.geomspace(0.25, 4.0, n_p)
    p2 = _libm(math.pow, p, 2)[:, None]
    s_edge = float(_HOLE) / p2
    s = np.linspace(-2.5 * s_edge, 2.5 * s_edge, n_s, axis=1)[..., 0]
    h = 1e-7 * s_edge
    p = p[:, None]
    slope = (_interp_strip_g(s + h, p) - _interp_strip_g(s - h, p)) / (2 * h)
    inside = np.abs(s * p2) < float(_HOLE)
    rises = ~(slope <= 1e-9 * (1.0 + np.abs(slope)))
    witness = None
    if rises.any():
        i, j = np.argwhere(rises)[0]
        witness = {"p_norm": float(p[i, 0]), "s": float(s[i, j]), "slope": float(slope[i, j]),
                   "inside_strip": bool(inside[i, j])}
    return SlopeScanReport(
        grid_points=slope.size,
        nonpos_outside=not (rises & ~inside).any(),
        nonpos_fraction=int((~rises).sum()) / slope.size,
        rise_witness=witness,
    )


def interpolated_L_operator() -> OperatorSpec:
    """Operator built from the interpolated coefficient (matches the cusp
    family operator wherever |s| |p|^2 >= 32/45)."""
    return OperatorSpec.isotropic(lambda s, t2: _interp_strip_g(s, np.sqrt(t2)), m=10.0,
                                  name="interp_strip")


# ---------------------------------------------------------------------------
# counterexample certificates


# one row per certified radius: the pair w, v and F's radial eigenvalues mu, nu at each
_CERT_ROW = np.dtype([(name, np.float64) for name in ("r", "w", "v", "mu_w", "nu_w", "mu_v", "nu_v")]
                     + [("ok", np.bool_)])


@dataclass
class CtexCertificate:
    kind: str
    params: dict
    roots: np.ndarray = field(default_factory=lambda: np.empty(0, _ROOT_ROW))  # quartic_roots rows
    # _CERT_ROW rows by ascending radius; none when the build stops before its scan
    rows: np.ndarray = field(default_factory=lambda: np.empty(0, _CERT_ROW))
    touching: list[float] = field(default_factory=list)
    clauses: dict[str, bool] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        if not self.clauses or self.clauses.get("roots_resolved") is False:
            return "unresolved"
        return "pass" if all(self.clauses.values()) else "fail"


_EIG_TOL = 1e-9
_MIN_RGRID = 9  # the smallest radial grid a certificate is built on

# the parameters each kind takes; anything else is refused
_CTEX_PARAMS = {"beta_sign": ("alpha",), "nondec": ("alpha",), "bprime": ("r0", "delta"),
                "holder": ("gamma", "n")}


def build_counterexample(kind: str, rgrid: int = 2001, **params) -> CtexCertificate:
    """Construct and certify one of the bundled propagation counterexamples.

    kind: "beta_sign", "nondec" (both take alpha), "bprime" (r0, delta) or
    "holder" (gamma, n).  Certification is a per-radius eigenvalue sign scan
    on an rgrid-point grid (punctured at the cusp radius where the profiles
    are not twice differentiable; there the vertical tangent makes the
    touching-test-function conditions vacuous).
    """
    if rgrid < _MIN_RGRID:
        raise ValueError("rgrid too small to certify anything")
    if kind not in _CTEX_PARAMS:
        raise ValueError(f"unknown counterexample kind {kind!r}")
    for name in params:
        if name not in _CTEX_PARAMS[kind]:
            raise ValueError(f"the {kind} family takes no parameter {name!r} "
                             f"(it takes {', '.join(_CTEX_PARAMS[kind])})")
    if kind == "beta_sign":
        return _build_cusp_pair("beta_sign", params.get("alpha", -3.0), rgrid)
    if kind == "nondec":
        if "alpha" in params and Fraction(params["alpha"]).limit_denominator(10**6) != _ALPHA_FIXED:
            raise ValueError("the non-monotone-free family is fixed at alpha = -36/25")
        return _build_cusp_pair("nondec", float(_ALPHA_FIXED), rgrid)
    if kind == "bprime":
        return _build_bprime(rgrid, r0=params.get("r0", 2.0), delta=params.get("delta", 0.5))
    return _build_holder(rgrid, gamma=params.get("gamma", 0.5), n=params.get("n", 3))


def _sign_scan_delta(variant: str, alpha: float, roots: list[float], t0: float,
                     r0: float) -> float | None:
    """Largest dyadic delta <= 1/4 whose coarse sign scan passes."""
    for j in range(2, 10):
        delta = 2.0**-j
        r = np.linspace(r0 - delta, r0 + delta, 257)
        r = r[~(np.abs(r - r0) < 1e-12)]
        # t lambda2 > 0 on the root profiles, both eigenvalues > 0 at t0
        signs = [t * lambda12_t(t, r, r0, alpha, variant)[1] for t in roots[1:4]]
        signs += lambda12_t(t0, r, r0, alpha, variant)
        if not any(np.any(x <= 0.0) for x in signs):
            return delta
    return None


def _interior_positive(q: QuarticSpec, variant: str, alpha: float, t: float, r0: float, delta: float) -> bool:
    """Both eigenvalues of the t < 0 profile positive on |r-r0| <= delta: lambda1
    > 0 is Q(t) > 0, lambda2 > 0 is K P(t) > T sup (r-r0)/r = T delta/(r0+delta)."""
    c = _CUSP_VARIANTS[variant]
    return float(quartic_eval(q, t)) > 0.0 and c.k * c.p(t, alpha) > c.tt * delta / (r0 + delta)


def _search_t0(q: QuarticSpec, variant: str, alpha: float, t1: float,
               r0: float, delta: float) -> float | None:
    """First half-integer below t1 whose profile has both eigenvalues positive."""
    t = 0.5 * math.floor(2.0 * t1)
    if t >= t1:
        t -= 0.5
    for _ in range(200):
        if _interior_positive(q, variant, alpha, t, r0, delta):
            return t
        t -= 0.5
    return None


def _cusp_pair_at(r: np.ndarray, r0: float, ts: list[float], t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Values of a cusp certificate's pair at radii r: cbrt(t)|r - r0|^{2/3}
    per branch, w with parameter ts[3] right of r0 and ts[1] elsewhere, v
    with ts[2] and t0."""
    right = r > r0
    rho23 = _libm(math.pow, np.abs(r - r0), 2.0 / 3.0)
    return np.where(right, cbrt(ts[3]), cbrt(ts[1])) * rho23, np.where(right, cbrt(ts[2]), cbrt(t0)) * rho23


def _build_cusp_pair(kind: str, alpha: float, rgrid: int) -> CtexCertificate:
    variant = "P4" if kind == "beta_sign" else "P4tilde"
    r0 = 2.0
    if kind == "beta_sign":
        q = QuarticSpec.p4_shifted(Fraction(alpha).limit_denominator(10**9))
        fences = [-2.0, 0.0, 9.0 / 4.0]
    else:
        q = QuarticSpec.p4_tilde_shifted(_ALPHA_FIXED)
        fences = [-2.0, -8.0 / 5.0, 8.0 / 5.0, 2.0]
    cert = CtexCertificate(kind=kind, params={"alpha": alpha, "r0": r0, "variant": variant})

    cert.roots = quartic_roots(q)
    if len(cert.roots) != 4:
        cert.clauses["roots_resolved"] = False
        cert.notes.append(f"expected 4 simple roots, found {len(cert.roots)} at probe resolution")
        return cert
    cert.clauses["roots_resolved"] = True
    ts = cert.roots["t"].tolist()

    # interlacing against the fence values (whose quartic signs certify it)
    if kind == "beta_sign":
        interlace = ts[0] < -2.0 < ts[1] < 0.0 < ts[2] < 9.0 / 4.0 < ts[3]
    else:
        interlace = ts[0] < -2.0 < ts[1] < -8.0 / 5.0 and 8.0 / 5.0 < ts[2] < 2.0 < ts[3]
    cert.clauses["interlacing"] = bool(interlace)
    cert.params["fences"] = fences
    cert.params["roots"] = ts

    if kind == "nondec":
        # the cusp profiles carry s|p|^2 = 4t/9; membership in the region
        # where the interpolated L agrees with the polynomial one is |t| >= 8/5
        cert.clauses["profiles_in_interp_region"] = all(abs(t) >= 8.0 / 5.0 for t in (ts[1], ts[2], ts[3]))

    # t0 (left subsolution branch): searched (fixed for nondec) at the
    # widest delta that admits one, then delta narrowed by dyadic sign scan
    t0 = delta = None
    for attempt_delta in (0.25, 0.125, 0.0625):
        if kind == "nondec":
            t0 = -3.0 if _interior_positive(q, variant, alpha, -3.0, r0, attempt_delta) else None
        else:
            t0 = _search_t0(q, variant, alpha, ts[0], r0, attempt_delta)
        if t0 is not None:
            delta = attempt_delta
            break
    if t0 is None:
        cert.clauses["t0_found"] = False
        cert.notes.append("no valid interior-positive profile parameter below t1")
        return cert
    cert.clauses["t0_found"] = True
    scan_delta = _sign_scan_delta(variant, alpha, [ts[0], ts[1], ts[2], ts[3]], t0, r0)
    if scan_delta is not None:
        delta = min(delta, scan_delta)
    cert.params.update({"t0": t0, "delta": delta})

    r = np.linspace(r0 - delta, r0 + delta, rgrid)
    r = r[~(np.abs(r - r0) < 1e-12)]
    right = r > r0
    arho = np.abs(r - r0)
    w_val, v_val = _cusp_pair_at(r, r0, ts, t0)
    w_d, w_dd, mu_w, nu_w, mu_v, nu_v = np.empty((6, len(r)))
    # right branch: parameters ts[3] (w) and ts[2] (v); left: ts[1] and t0
    for sel, tw, tv, sign in ((right, ts[3], ts[2], 1.0), (~right, ts[1], t0, -1.0)):
        cw = cbrt(tw)
        w_d[sel] = (2.0 / 3.0) * cw * _libm(math.pow, arho[sel], -1.0 / 3.0) * sign
        w_dd[sel] = -(2.0 / 9.0) * cw * _libm(math.pow, arho[sel], -4.0 / 3.0)
        mu_w[sel], nu_w[sel] = lambda12_t(tw, r[sel], r0, alpha, variant)
        mu_v[sel], nu_v[sel] = lambda12_t(tv, r[sel], r0, alpha, variant)
    # w branches use root parameters: radial eigenvalue vanishes and the
    # transverse one carries the sign of t, so the matrix sits on the cone
    # boundary (right) or strictly outside (left): supersolution.  Right,
    # both v and w params are positive; left, the w param is negative
    # (transverse eigenvalue negative) and the v param gives a strictly
    # positive-definite matrix
    row_w = (np.abs(mu_w) <= _EIG_TOL) & (np.minimum(mu_w, nu_w) <= _EIG_TOL)
    row_v = (np.minimum(mu_v, nu_v) >= -_EIG_TOL) & (~right | (np.abs(mu_v) <= _EIG_TOL))
    branch_sign = np.where(right, (nu_w > 0.0) & (nu_v > 0.0),
                           (nu_w < 0.0) & (mu_v > 0.0) & (nu_v > 0.0))
    sign_ok = bool(branch_sign.all())
    w_ok, v_ok = bool(row_w.all()), bool(row_v.all())
    gap = w_val - v_val
    min_gap_scaled = float(np.fmin.reduce(gap / _libm(math.pow, arho, 2.0 / 3.0), initial=math.inf))
    cert.rows = np.empty(len(r), _CERT_ROW)
    for name, column in zip(_CERT_ROW.names, (r, w_val, v_val, mu_w, nu_w, mu_v, nu_v, row_w & row_v)):
        cert.rows[name] = column

    # cross-check the closed forms against the generic jet pipeline
    scale = 1.0 + np.maximum.reduce([np.abs(mu_w), np.abs(nu_w), np.abs(mu_v), np.abs(nu_v)])
    tol = 1e-9 * scale

    def matches(op: OperatorSpec) -> bool:
        mu_g, nu_g = radial_F_eigs(r, w_d, w_dd, op, s=w_val)
        return not np.any((np.abs(mu_g - mu_w) > tol) | (np.abs(nu_g - nu_w) > tol))

    cross_ok = matches(cusp_family_operator(variant, alpha))
    interp_agree = kind == "nondec" and matches(interpolated_L_operator())

    cert.clauses["w_supersolution"] = w_ok and sign_ok
    cert.clauses["v_subsolution"] = v_ok and sign_ok
    cert.clauses["eig_sign_pattern"] = sign_ok
    cert.clauses["closed_form_matches_jets"] = cross_ok
    if kind == "nondec":
        cert.clauses["interp_L_matches_on_profiles"] = interp_agree
    cert.clauses["ordering"] = min_gap_scaled > 0.0
    cert.clauses["touching_only_at_r0"] = bool(np.all(gap > _EIG_TOL))
    cert.clauses["boundary_gap"] = bool(gap[0] > 0.0 and gap[-1] > 0.0)
    cert.touching = [r0]
    cert.params["min_gap_over_rho23"] = min_gap_scaled
    cert.notes.append(
        "profiles meet with value 0 at r0 with vertical tangents; the cusp makes "
        "touching test functions impossible there, so the grid is punctured at r0"
    )
    return cert


def _radial_rows(prof: RadialProfile, op: OperatorSpec, radii: np.ndarray) -> np.ndarray:
    """_CERT_ROW rows of w the profile (one libm call per radius) and v = 0;
    ok is left for the caller."""
    rs = radii.tolist()
    rows = np.zeros(len(rs), _CERT_ROW)
    rows["r"] = radii
    rows["mu_w"], rows["nu_w"] = radial_F_eigs(rs, [prof.dpsi(r) for r in rs],
                                               [prof.ddpsi(r) for r in rs], op)
    rows["mu_v"], rows["nu_v"] = radial_F_eigs(rs, 0.0, 0.0, op)
    rows["w"] = [prof.psi(r) for r in rs]
    return rows


def _build_bprime(rgrid: int, r0: float, delta: float) -> CtexCertificate:
    cert = CtexCertificate(
        kind="bprime",
        params={"r0": r0, "delta": delta, "a": "0", "b": "-t", "domain": (r0 - 1.0, r0 + 1.0)},
    )
    prof = RadialProfile.tanh_bump(delta, r0)
    op = OperatorSpec.rot_inv(lambda t: 0.0, lambda t: -t, name="rotinv:zero:neg_t")
    # the slope-to-radius inequality that drives the sign of nu: every slope
    # s the profile attains must satisfy r0 > s / |b(s)|
    slopes = np.linspace(1e-4, delta * 0.499, 64)
    cert.clauses["slope_radius_margin"] = bool(np.all(r0 > slopes / np.abs(op.b_fn(slopes))))

    rows = cert.rows = _radial_rows(prof, op, np.linspace(r0 - 1.0, r0 + 1.0, rgrid))
    mu_w, nu_w, w = rows["mu_w"], rows["nu_w"], rows["w"]
    # supersolution: smallest eigenvalue <= 0; v = 0 solves exactly
    rows["ok"] = ((nu_w <= _EIG_TOL * (1.0 + np.maximum(np.abs(mu_w), np.abs(nu_w))))
                  & (np.abs(rows["mu_v"]) <= _EIG_TOL) & (np.abs(rows["nu_v"]) <= _EIG_TOL))
    touching = rows["r"][np.abs(w) <= 1e-12].tolist()
    cert.clauses["w_supersolution"] = bool(rows["ok"].all())
    cert.clauses["v_subsolution"] = True  # v = 0: F[v] = 0 sits on the cone boundary
    cert.clauses["nu_zero_at_r0"] = abs(radial_F_eigs(r0, prof.dpsi(r0), prof.ddpsi(r0), op)[1]) <= 1e-12
    cert.clauses["touching_only_at_r0"] = touching == [r0] or (
        len(touching) == 1 and abs(touching[0] - r0) < 1e-9
    )
    cert.clauses["boundary_gap"] = bool(w[0] > 0.0 and w[-1] > 0.0)
    cert.touching = [r0]
    return cert


def _build_holder(rgrid: int, gamma: float, n: int) -> CtexCertificate:
    prof = RadialProfile.holder_solution(gamma, n)
    cert = CtexCertificate(kind="holder", params={"gamma": gamma, "n": n, "lam": 1.0 / (1.0 - gamma)})
    # trace-normalized so that the trace of F is exactly (Laplacian - |grad|^gamma)
    op = OperatorSpec.rot_inv(
        lambda t: 0.0, lambda t: _where_positive(t, lambda tp: -_libm(math.pow, tp, gamma) / n),
        name=f"rotinv:zero:pow({-1.0/n:g},{gamma:g})",
    )
    rows = cert.rows = _radial_rows(prof, op, np.geomspace(1e-6, 1.0, rgrid))
    mu_w, nu_w, w = rows["mu_w"], rows["nu_w"], rows["w"]
    rows["ok"] = ((np.abs(mu_w + (n - 1) * nu_w) <= 1e-10 * (1.0 + np.abs(mu_w) + np.abs(nu_w)))
                  & (np.abs(rows["mu_v"]) <= 1e-14) & (np.abs(rows["nu_v"]) <= 1e-14))
    cert.clauses["w_exact_solution"] = bool(rows["ok"].all())
    cert.clauses["v_exact_solution"] = True
    cert.clauses["ordering"] = bool(np.all(w > 0.0))
    cert.clauses["touching_only_at_origin"] = bool(w[0] < 1e-8 and w[-1] > 1e-3)
    cert.touching = [0.0]
    cert.notes.append(
        "both fields solve the trace equation exactly; the lower-order term is "
        "only Holder continuous in the gradient, which is what permits touching"
    )
    return cert


def cusp_pair_values(cert: CtexCertificate, rgrid: int | None = None):
    """Node values (radii, w, v) of a cusp certificate's profile pair.

    Unlike the eigenvalue rows, the value grid keeps the meeting node at r0:
    both profiles vanish there (with vertical tangents), and that node is
    exactly the touching point the certificate is about.  An odd rgrid puts
    one node on r0.
    """
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
    return (radii, *_cusp_pair_at(radii, r0, ts, t0))


# ---------------------------------------------------------------------------
# the singular log family


def log_singular_check(mu: float, alpha: float, beta: float, n: int, x: np.ndarray):
    """Residual report for psi_mu = ln(|x|^{2-n} + mu)/(alpha - n beta).

    Returns (trace_residual, spectrum, min_eig).  The trace of F[psi_mu]
    equals Laplacian + (alpha - n beta)|grad|^2, which vanishes identically
    because |x|^{2-n} + mu is harmonic away from the origin.
    """
    x = np.asarray(x, dtype=float)
    if float(x @ x) == 0.0:
        raise ValueError("the field is singular at the origin")
    if alpha - n * beta <= 0.0:
        raise ValueError("need alpha - n*beta > 0")
    oracle = FieldOracle.log_singular(alpha, beta, mu, n)
    j = oracle.jet(x)
    lap = j.H.trace()
    p2 = float(j.p @ j.p)
    trace_res = lap + (alpha - n * beta) * p2
    f = eval_F(j, OperatorSpec.quad_const(alpha, beta))
    spec = eigen_sym(f)
    return float(trace_res), spec, spec.min()


# ---------------------------------------------------------------------------
# CSV serialization


def certificate_rows_csv(cert: CtexCertificate) -> str:
    """The per-radius table; the report header is the caller's to write."""
    rows = cert.rows
    return _format_rows(",".join(["%.12g"] * 7 + ["%s"]), *(rows[name] for name in _CERT_ROW.names[:-1]),
                        np.where(rows["ok"], "ok", "violation"), header="r,w,v,mu_w,nu_w,mu_v,nu_v,verdict")


def certificate_roots_csv(cert: CtexCertificate) -> str:
    roots = cert.roots
    return _format_rows("%d,%.15g,%.15g,%.15g", range(len(roots)), roots["t"], roots["lo"], roots["hi"],
                        header="i,t_i,bracket_lo,bracket_hi")
