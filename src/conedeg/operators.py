"""Second-order jets, conformal Hessian operators, Kelvin transforms, and
numeric probes of the structural conditions on the lower-order term L.

Operators act on jets (x, s, p, H) and return symmetric matrices; the
equation under study is F[psi] in dU where F[psi] = Hess psi + L(x, psi,
grad psi).  Three conformally equivalent writings of the same operator are
implemented (in terms of u > 0, of w = u^{-2/(n-2)}, and of psi =
-(2/(n-2)) ln u) together with a consistency check that they agree after
the e^{2 psi} change of gauge.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from itertools import repeat
from typing import Callable

import numpy as np

from .matcone import SymMatrix, _sym_eigvals

__all__ = [
    "Jet2",
    "OperatorSpec",
    "FieldOracle",
    "conformal_hessian_u",
    "conformal_A_w",
    "conformal_A_psi",
    "u_to_psi_jet",
    "u_to_w_jet",
    "eval_F",
    "eval_L",
    "consistency_check",
    "kelvin",
    "kelvin_transform",
    "moving_sphere_radius",
    "probe_L_conditions",
    "parse_operator",
    "format_operator",
]


@dataclass(frozen=True)
class Jet2:
    """Second-order jet: point, value, gradient, Hessian."""

    x: np.ndarray
    s: float
    p: np.ndarray
    H: SymMatrix

    def __post_init__(self) -> None:
        x = np.asarray(self.x, dtype=float)
        p = np.asarray(self.p, dtype=float)
        if x.shape != p.shape or x.ndim != 1:
            raise ValueError("x and p must be vectors of equal length")
        if self.H.n != len(x):
            raise ValueError(f"Hessian dimension {self.H.n} != point dimension {len(x)}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "s", float(self.s))

    @property
    def n(self) -> int:
        return len(self.x)


# ---------------------------------------------------------------------------
# operator specifications


@dataclass(frozen=True)
class OperatorSpec:
    """F[psi] = Hess psi + L(x, psi, grad psi), by kind.

    kind       | L(x, s, p)
    -----------|------------------------------------------------------
    quad_const | alpha p (x) p - beta |p|^2 I, alpha/beta constants;
               | conformal() is the point (1, 1/2), named "conformal"
    quad_var   | alpha(x,s) p (x) p - beta(x,s) |p|^2 I
    rot_inv    | a(|p|) p (x) p + b(|p|) I
    isotropic  | g(s, |p|^2) I
    general_l  | arbitrary callable (x, s, p) -> symmetric matrices

    Every callable takes a whole stack in one call: x and p carry its
    leading axes and the point axis last, s, |p| and |p|^2 the leading axes
    alone.  It returns one value (one (n, n) matrix for L_fn) per node; a
    scalar is broadcast, and any other shape raises ValueError naming it.
    """

    kind: str
    alpha: float = 0.0
    beta: float = 0.0
    alpha_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    beta_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    a_fn: Callable[[np.ndarray], np.ndarray] | None = None
    b_fn: Callable[[np.ndarray], np.ndarray] | None = None
    g_fn: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    L_fn: Callable[[np.ndarray, np.ndarray, np.ndarray], np.ndarray] | None = None
    m: float = 2.0
    name: str = ""

    _KINDS = ("quad_const", "quad_var", "rot_inv", "isotropic", "general_l")

    def __post_init__(self) -> None:
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown operator kind {self.kind!r}")
        if self.kind == "quad_var" and (self.alpha_fn is None or self.beta_fn is None):
            raise ValueError("quad_var needs alpha_fn and beta_fn")
        if self.kind == "rot_inv" and (self.a_fn is None or self.b_fn is None):
            raise ValueError("rot_inv needs a_fn and b_fn")
        if self.kind == "isotropic" and self.g_fn is None:
            raise ValueError("isotropic needs g_fn")
        if self.kind == "general_l" and self.L_fn is None:
            raise ValueError("general_l needs L_fn")

    @classmethod
    def conformal(cls) -> "OperatorSpec":
        return cls("quad_const", alpha=1.0, beta=0.5, name="conformal")

    @classmethod
    def quad_const(cls, alpha: float, beta: float) -> "OperatorSpec":
        return cls("quad_const", alpha=float(alpha), beta=float(beta))

    @classmethod
    def quad_var(cls, alpha_fn, beta_fn, m: float = 2.0, name: str = "") -> "OperatorSpec":
        return cls("quad_var", alpha_fn=alpha_fn, beta_fn=beta_fn, m=m, name=name)

    @classmethod
    def rot_inv(cls, a_fn, b_fn, name: str = "") -> "OperatorSpec":
        return cls("rot_inv", a_fn=a_fn, b_fn=b_fn, name=name)

    @classmethod
    def isotropic(cls, g_fn, m: float, name: str = "") -> "OperatorSpec":
        return cls("isotropic", g_fn=g_fn, m=m, name=name)

    @classmethod
    def general_l(cls, L_fn, m: float, name: str = "") -> "OperatorSpec":
        return cls("general_l", L_fn=L_fn, m=m, name=name)


def eval_L(spec: OperatorSpec, x: np.ndarray, s, p: np.ndarray) -> np.ndarray:
    """The lower-order term L(x, s, p) as dense symmetric matrices, (..., n, n).

    x and p (broadcast together) hold points and gradients on their last
    axis, s the values on the leading axes; one node has none.  Every kind
    is evaluated on the whole stack, each callable of the spec in one call
    (see OperatorSpec), so each node gets the values a lone call gives it.
    """
    x, p = np.asarray(x, dtype=float), np.asarray(p, dtype=float)
    if x.shape != p.shape:
        x, p = np.broadcast_arrays(x, p)
    lead, n = p.shape[:-1], p.shape[-1]
    eye = _identity(n)
    p2 = _sq_norm(p)
    if spec.kind == "quad_const":
        return spec.alpha * (p[..., :, None] * p[..., None, :]) - spec.beta * p2[..., None, None] * eye
    s = np.broadcast_to(np.asarray(s, dtype=float), lead)
    if spec.kind == "isotropic":
        return _stack_call(spec, "g_fn", lead, s, p2)[..., None, None] * eye
    if spec.kind == "general_l":
        out = _stack_call(spec, "L_fn", lead + (n, n), x, s, p)
        return 0.5 * (out + np.swapaxes(out, -1, -2))
    pp = p[..., :, None] * p[..., None, :]
    if spec.kind == "quad_var":
        return (_stack_call(spec, "alpha_fn", lead, x, s)[..., None, None] * pp
                - _stack_call(spec, "beta_fn", lead, x, s)[..., None, None] * p2[..., None, None] * eye)
    t = np.sqrt(p2)
    a, b = _stack_call(spec, "a_fn", lead, t), _stack_call(spec, "b_fn", lead, t)
    return a[..., None, None] * pp + b[..., None, None] * eye


def _stack_call(spec: OperatorSpec, name: str, shape: tuple, *args) -> np.ndarray:
    """spec's callable `name` called once on the stacked args, as a float array
    of the given shape: a scalar return is broadcast, any other shape raises."""
    out = np.asarray(getattr(spec, name)(*args), dtype=float)
    if out.ndim and out.shape != shape:
        raise ValueError(f"{name} returned shape {out.shape}, expected {shape}")
    return np.broadcast_to(out, shape)


@functools.cache
def _identity(n: int) -> np.ndarray:
    """np.eye(n), read-only and built once: eval_L runs once per sweep group."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def _dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a . b over the last axis (broadcast), by batched matmul: bitwise each row's a @ b."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return np.matmul(a[..., None, :], b[..., :, None])[..., 0, 0]


def _sq_norm(p: np.ndarray) -> np.ndarray:
    """p . p over the last axis, by batched matmul: bitwise each row's p @ p."""
    return _dot(p, p)


def _libm(fn: Callable[..., float], a, *args: float) -> np.ndarray:
    """fn(entry, *args) for every entry of a, same shape, through libm.

    fn is a math function (pow, log, tanh).  Array ufuncs can differ from
    libm by an ulp (SIMD kernels), so the stacked closed forms map the scalar
    function instead: each entry is bitwise the float a lone call gives.
    """
    a = np.asarray(a, dtype=float)
    flat = a.ravel().tolist()
    return np.fromiter(map(fn, flat, *map(repeat, args)), float, len(flat)).reshape(a.shape)


def _radial_jets(r, d, dd, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jets (x, p, H) of a radial profile psi(|x|) at x = r e_1 in n dimensions.

    d, dd = psi'(r), psi''(r), broadcast with r: p = d e_1 and H = diag(dd,
    d/r, ..., d/r), d/r on the tangent space.  n = 1 is the plain 1D jet.
    """
    r, d, dd = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (r, d, dd)))
    x = np.zeros(r.shape + (n,))
    x[..., 0] = r
    p = np.zeros(r.shape + (n,))
    p[..., 0] = d
    H = np.zeros(r.shape + (n, n))
    if n > 1:
        tangent = np.arange(1, n)
        H[..., tangent, tangent] = (d / r)[..., None]
    H[..., 0, 0] = dd
    return x, p, H


def eval_F(j: Jet2, spec: OperatorSpec) -> SymMatrix:
    """F[psi] = Hess + L at the jet."""
    return SymMatrix.from_dense(j.H.dense() + eval_L(spec, j.x, j.s, j.p))


# ---------------------------------------------------------------------------
# the three conformal writings


def conformal_hessian_u(j: Jet2, n: int) -> SymMatrix:
    """Conformal Hessian of a positive field u, in the u-variables.

    A^u = -(2/(n-2)) u^{-(n+2)/(n-2)} Hess u
          + (2n/(n-2)^2) u^{-2n/(n-2)} grad u (x) grad u
          - (2/(n-2)^2) u^{-2n/(n-2)} |grad u|^2 I
    """
    if n < 3:
        raise ValueError("conformal Hessian needs n >= 3")
    if j.s <= 0.0:
        raise ValueError(f"u must be positive, got {j.s}")
    u, p, h = j.s, j.p, j.H.dense()
    c1 = -(2.0 / (n - 2)) * u ** (-(n + 2.0) / (n - 2))
    c2 = (2.0 * n / (n - 2) ** 2) * u ** (-2.0 * n / (n - 2))
    c3 = -(2.0 / (n - 2) ** 2) * u ** (-2.0 * n / (n - 2))
    return SymMatrix.from_dense(c1 * h + c2 * np.outer(p, p) + c3 * (p @ p) * np.eye(j.n))


def conformal_A_w(j: Jet2) -> SymMatrix:
    """A_w = w Hess w - (1/2) |grad w|^2 I."""
    return SymMatrix.from_dense(j.s * j.H.dense() - 0.5 * (j.p @ j.p) * np.eye(j.n))


def conformal_A_psi(j: Jet2) -> SymMatrix:
    """A[psi] = Hess psi + grad psi (x) grad psi - (1/2)|grad psi|^2 I."""
    return eval_F(j, OperatorSpec.conformal())


def u_to_psi_jet(j: Jet2, n: int) -> Jet2:
    """Chain rule for psi = -(2/(n-2)) ln u."""
    if j.s <= 0.0:
        raise ValueError(f"u must be positive, got {j.s}")
    c = -2.0 / (n - 2)
    u, p, h = j.s, j.p, j.H.dense()
    psi = c * math.log(u)
    grad = c * p / u
    hess = c * (h / u - np.outer(p, p) / u**2)
    return Jet2(j.x, psi, grad, SymMatrix.from_dense(hess))


def u_to_w_jet(j: Jet2, n: int) -> Jet2:
    """Chain rule for w = u^{-2/(n-2)}."""
    if j.s <= 0.0:
        raise ValueError(f"u must be positive, got {j.s}")
    g = -2.0 / (n - 2)
    u, p, h = j.s, j.p, j.H.dense()
    w = u**g
    grad = g * u ** (g - 1) * p
    hess = g * u ** (g - 1) * h + g * (g - 1) * u ** (g - 2) * np.outer(p, p)
    return Jet2(j.x, w, grad, SymMatrix.from_dense(hess))


@dataclass(frozen=True)
class ConsistencyReport:
    x: np.ndarray
    n: int
    deviation: float
    tol: float
    passed: bool


def consistency_check(u_oracle: "FieldOracle", x: np.ndarray, n: int, tol: float) -> ConsistencyReport:
    """Check A^u = A_w = e^{2 psi} A[psi] at a point, via three routes.

    Each route differentiates a different change of variables of the same
    field; agreement is a stringent end-to-end test of all the chain rules.
    """
    x = np.asarray(x, dtype=float)
    ju = u_oracle.jet(x)
    a_u = conformal_hessian_u(ju, n).dense()
    jw = u_to_w_jet(ju, n)
    a_w = conformal_A_w(jw).dense()
    jpsi = u_to_psi_jet(ju, n)
    a_psi = math.exp(2.0 * jpsi.s) * conformal_A_psi(jpsi).dense()
    dev = max(
        float(np.max(np.abs(a_u - a_w))),
        float(np.max(np.abs(a_u - a_psi))),
        float(np.max(np.abs(a_w - a_psi))),
    )
    return ConsistencyReport(x=x, n=n, deviation=dev, tol=tol, passed=dev <= tol)


# ---------------------------------------------------------------------------
# Kelvin transform and the moving-sphere radius


def kelvin(u_value: "FieldOracle | Callable[[np.ndarray], float]", x: np.ndarray,
           lam: float, y: np.ndarray, n: int) -> "float | np.ndarray":
    """Kelvin transform of u about the sphere of radius lam at x, at the points y.

    u_{x,lam}(y) = (lam/|y-x|)^{n-2} u(x + lam^2 (y-x)/|y-x|^2).

    y holds points on its last axis, (..., n) -> (...); a lone (n,) point
    gives a float.  A FieldOracle's value is called once on the whole stack
    of inverted points, a plain callable once per point.  Every entry is
    bitwise what a lone point gives: |y-x|^2 is a per-row dot product
    (_sq_norm) and the power goes through libm pow, not array np.power
    (see _libm).
    """
    if n < 3:
        raise ValueError("Kelvin transform needs n >= 3")
    if lam <= 0.0:
        raise ValueError("lam must be positive")
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    d = y - x
    r2 = _sq_norm(d)
    if np.any(r2 == 0.0):
        raise ValueError("Kelvin transform undefined at y = x")
    z = x + lam**2 * d / r2[..., None]
    out = _libm(math.pow, lam**2 / r2, (n - 2) / 2.0) * _point_values(u_value, z)
    return float(out) if y.ndim == 1 else out


def _point_values(u: "FieldOracle | Callable[[np.ndarray], float]", y: np.ndarray) -> np.ndarray:
    """u at the points y, (..., n) -> (...).

    A FieldOracle evaluates the whole stack in one value call; a plain
    callable keeps its per-point contract and is called once per point, in
    row order.
    """
    if isinstance(u, FieldOracle):
        return np.asarray(u.value(y), dtype=float)
    return np.array([u(q) for q in y.reshape(-1, y.shape[-1])], dtype=float).reshape(y.shape[:-1])


def kelvin_transform(u_value: "FieldOracle | Callable[[np.ndarray], float]",
                     x: np.ndarray, lam: float, n: int) -> Callable[[np.ndarray], float]:
    """The transformed function y -> u_{x,lam}(y), for composing transforms."""
    return lambda y: kelvin(u_value, x, lam, y, n)


def moving_sphere_radius(sup_u: float, inf_u: float, n: int) -> float:
    """Starting radius R = (1/4) (sup u / inf u)^{-1/(n-2)}."""
    if not 0.0 < inf_u <= sup_u:
        raise ValueError("need 0 < inf_u <= sup_u")
    if n < 3:
        raise ValueError("need n >= 3")
    return 0.25 * (sup_u / inf_u) ** (-1.0 / (n - 2))


# ---------------------------------------------------------------------------
# analytic field oracles


def _stacked(closed_form: Callable[[np.ndarray], np.ndarray]) -> Callable:
    """A FieldOracle value from a closed form on (..., n) point stacks: the
    points become a float array, and a lone (n,) point gives a float."""

    def value(x):
        x = np.asarray(x, dtype=float)
        out = closed_form(x)
        return float(out) if x.ndim == 1 else out

    return value


@dataclass(frozen=True)
class FieldOracle:
    """Closed-form scalar field with exact jets.

    value takes points on its last axis, (..., n) -> (...), and gives a float
    for a lone (n,) point; every entry of a stack is bitwise the float its
    point gives alone.  The named families evaluate whole stacks: dot
    products are per-row (_sq_norm) and non-integer powers and logs go
    through libm (math.pow, math.log), because array np.power can differ
    from libm pow by an ulp.  grad and hess take one point.  Jets come from
    hand differentiation of the named families, never from finite
    differences (those are kept as an independent cross-check in the tests).
    """

    name: str
    n: int
    value: Callable[[np.ndarray], "float | np.ndarray"]
    grad: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]

    def jet(self, x: np.ndarray) -> Jet2:
        x = np.asarray(x, dtype=float)
        return Jet2(x, self.value(x), self.grad(x), SymMatrix.from_dense(self.hess(x)))

    # -- named families ------------------------------------------------

    @classmethod
    def constant(cls, c: float, n: int) -> "FieldOracle":
        return cls(
            name=f"const:{c}",
            n=n,
            value=_stacked(lambda x: np.full(x.shape[:-1], float(c))),
            grad=lambda x: np.zeros(n),
            hess=lambda x: np.zeros((n, n)),
        )

    @classmethod
    def harmonic_power(cls, n: int) -> "FieldOracle":
        """u(x) = |x|^{2-n}, the fundamental singularity; u > 0 away from 0.

        value raises ValueError at the pole x = 0 (a libm domain error).
        """

        @_stacked
        def value(x):
            return _libm(math.pow, np.sqrt(_sq_norm(x)), 2 - n)

        def grad(x):
            r2 = float(x @ x)
            return (2 - n) * r2 ** (-n / 2.0) * x

        def hess(x):
            r2 = float(x @ x)
            return (2 - n) * (r2 ** (-n / 2.0) * np.eye(n) - n * r2 ** (-n / 2.0 - 1) * np.outer(x, x))

        return cls(name="power", n=n, value=value, grad=grad, hess=hess)

    @classmethod
    def bubble(cls, n: int) -> "FieldOracle":
        """u(x) = (1+|x|^2)^{-(n-2)/2}; its conformal Hessian is 2I everywhere."""

        @_stacked
        def value(x):
            return _libm(math.pow, 1.0 + _sq_norm(x), -(n - 2) / 2.0)

        def grad(x):
            return -(n - 2) * (1.0 + x @ x) ** (-n / 2.0) * x

        def hess(x):
            q = 1.0 + float(x @ x)
            return -(n - 2) * (q ** (-n / 2.0) * np.eye(n) - n * q ** (-n / 2.0 - 1) * np.outer(x, x))

        return cls(name="bubble", n=n, value=value, grad=grad, hess=hess)

    @classmethod
    def log_singular(cls, alpha: float, beta: float, mu: float, n: int) -> "FieldOracle":
        """psi(x) = ln(|x|^{2-n} + mu) / (alpha - n beta), singular at 0 for mu >= 0.

        value raises ValueError at x = 0 (a libm domain error).
        """
        k = 1.0 / (alpha - n * beta)
        power = cls.harmonic_power(n)  # |x|^{2-n}, whose jet the log composes with

        def parts(x):
            return float(x @ x) ** ((2 - n) / 2.0) + mu, power.grad(x), power.hess(x)

        @_stacked
        def value(x):
            return k * _libm(math.log, _libm(math.pow, _sq_norm(x), (2 - n) / 2.0) + mu)

        def grad(x):
            g, dg, _ = parts(x)
            return k * dg / g

        def hess(x):
            g, dg, hg = parts(x)
            return k * (hg / g - np.outer(dg, dg) / g**2)

        return cls(name=f"log_singular:{alpha}:{beta}:{mu}", n=n, value=value, grad=grad, hess=hess)

    @classmethod
    def polynomial(cls, monomials: dict[tuple[int, ...], float], n: int) -> "FieldOracle":
        """Multivariate polynomial from {exponent tuple: coefficient}."""
        for expo in monomials:
            if len(expo) != n or any(e < 0 for e in expo):
                raise ValueError(f"bad exponent tuple {expo} for n={n}")

        @_stacked
        def value(x):
            return sum((c * np.prod(x ** np.array(e), axis=-1) for e, c in monomials.items()),
                       np.zeros(x.shape[:-1]))

        def grad(x):
            g = np.zeros(n)
            for e, c in monomials.items():
                for i in range(n):
                    if e[i] == 0:
                        continue
                    de = list(e)
                    de[i] -= 1
                    g[i] += c * e[i] * np.prod(x ** np.array(de))
            return g

        def hess(x):
            h = np.zeros((n, n))
            for e, c in monomials.items():
                for i in range(n):
                    if e[i] == 0:
                        continue
                    for jj in range(n):
                        de = list(e)
                        de[i] -= 1
                        if de[jj] == 0:
                            continue
                        fac = e[i] * de[jj]
                        de[jj] -= 1
                        h[i, jj] += c * fac * np.prod(x ** np.array(de))
            return 0.5 * (h + h.T)

        return cls(name="poly", n=n, value=value, grad=grad, hess=hess)


# ---------------------------------------------------------------------------
# structural-condition probes


@dataclass
class ConditionResult:
    ok: bool = False
    fitted_C: float | None = None
    fitted_theta_bar: float | None = None
    witness: dict | None = None


@dataclass
class LProbeReport:
    """Sample-based verdicts on the structural conditions for L.

    Fitted constants are sample-feasible, not proved; witnesses are genuine
    disproofs (a concrete (x, s, p, theta) violating the inequality).
    The gradient cap |p| <= 1e3 bounds the search space.
    """

    operator: str
    R: float
    Lambda: float
    m: float
    samples: int
    p_cap: float
    grad_x_bound: ConditionResult = field(default_factory=ConditionResult)  # |grad_x L| <= C|p|^m
    s_growth: ConditionResult = field(default_factory=ConditionResult)      # 0 <= dL <= C ds |p|^m I
    radial_coercive: ConditionResult = field(default_factory=ConditionResult)      # sub-unit scaling regime
    radial_coercive_sup: ConditionResult = field(default_factory=ConditionResult)  # super-unit mirror
    s_monotone: ConditionResult = field(default_factory=ConditionResult)    # L non-decreasing in s

    def all_ok(self) -> bool:
        return all(
            r.ok
            for r in (self.grad_x_bound, self.s_growth, self.radial_coercive, self.s_monotone)
        )


_P_CAP = 1e3
_LEAD_SAMPLES = 32  # coercivity checks mostly fail within the first few samples


def _grad_x_L(spec: OperatorSpec, x: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d/dx of L on (m, n), (m,), (m, n) stacks: (m, n, n, n), index order (row,
    k, i, j); central differences with step 1e-6."""
    m, n = x.shape
    if spec.kind in ("quad_const", "rot_inv", "isotropic"):
        return np.zeros((m, n, n, n))  # x-independent by construction
    h = 1e-6
    step = h * np.eye(n)  # row k moves x along e_k
    ends = eval_L(spec, np.stack([x[:, None] + step, x[:, None] - step]), s[:, None], p[:, None])
    return (ends[0] - ends[1]) / (2 * h)


def _grad_p_L(spec: OperatorSpec, x: np.ndarray, s: np.ndarray, p: np.ndarray) -> np.ndarray:
    """d/dp of L on (m, n), (m,), (m, n) stacks: (m, n, n, n), index order (row, k, i, j).

    Exact for the quadratic kinds and for the rotationally invariant kind
    off p = 0 (a' and b' by central differences in |p|); central differences
    in p with a relative step for general L and for rot_inv at p = 0, where
    a(|p|) and b(|p|) may have a kink.  Each callable is called once.
    """
    m, n = p.shape
    eye = np.eye(n)
    sym = eye[:, :, None] * p[:, None, None, :] + p[:, None, :, None] * eye[:, None, :]  # e_k(x)p + p(x)e_k
    if spec.kind in ("quad_const", "quad_var"):
        if spec.kind == "quad_const":
            al, be = np.array([spec.alpha]), np.array([spec.beta])
        else:
            al, be = _stack_call(spec, "alpha_fn", (m,), x, s), _stack_call(spec, "beta_fn", (m,), x, s)
        return al[:, None, None, None] * sym - (2.0 * be[:, None] * p)[:, :, None, None] * eye
    out = np.empty((m, n, n, n))
    t = np.sqrt(_sq_norm(p))
    fd = (spec.kind != "rot_inv") | (t == 0.0)  # central differences in p; the rest closed form
    h = 1e-6 * (1.0 + t[fd])  # row k of h I moves p along e_k
    step, pk = h[:, None, None] * eye, p[fd][:, None]
    ends = np.stack([pk + step, pk - step])  # (2, rows, k, n): p +- h e_k
    if spec.kind == "rot_inv":
        live = ~fd
        tl, dt = t[live], 1e-7 * (1.0 + t[live])
        # a at |p|, a and b at |p| +- dt and at the ends' |p +- h e_k|
        tt = np.concatenate([tl, tl + dt, tl - dt, np.sqrt(_sq_norm(ends)).ravel()])
        cuts = np.arange(1, 4) * len(tl)
        a, a_hi, a_lo, a_ends = np.split(_stack_call(spec, "a_fn", tt.shape, tt), cuts)
        _, b_hi, b_lo, b_ends = np.split(_stack_call(spec, "b_fn", tt.shape, tt), cuts)
        da, db = (a_hi - a_lo) / (2 * dt), (b_hi - b_lo) / (2 * dt)
        q, pl = p[live] / tl[:, None], p[live]  # q_k = p_k / |p|
        out[live] = (a[:, None, None, None] * sym[live]
                     + (da[:, None] * q)[:, :, None, None] * (pl[:, None, :, None] * pl[:, None, None, :])
                     + (db[:, None] * q)[:, :, None, None] * eye)
        cell = ends.shape[:-1] + (1, 1)
        L_ends = a_ends.reshape(cell) * (ends[..., :, None] * ends[..., None, :]) + b_ends.reshape(cell) * eye
    else:
        L_ends = eval_L(spec, x[fd][:, None], s[fd][:, None], ends)
    out[fd] = (L_ends[0] - L_ends[1]) / (2 * h)[:, None, None, None]
    return out


def probe_L_conditions(
    spec: OperatorSpec,
    R: float,
    Lambda: float,
    m: float,
    samples: int,
    seed: int,
    n: int = 3,
) -> LProbeReport:
    """Sample-based falsification/fitting of the structural conditions on L.

    For each sampled (x, s <= s', p): fits the smallest constants making the
    gradient bound, the s-growth bound, and the radial coercivity inequality
    hold on the whole sample (reporting the largest workable theta_bar for
    the coercivity one), or reports a violating witness.  Monotonicity in s
    is checked as a matrix ordering.  Sampling caps |p| at 1e3; constants are
    sample-feasible only, witnesses are disproofs.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    report = LProbeReport(
        operator=format_operator(spec), R=R, Lambda=Lambda, m=m,
        samples=samples, p_cap=_P_CAP,
    )

    # sample jets: |p| log-spaced to hit both the small- and large-gradient
    # regimes, which stress different terms of the inequalities
    pts = []
    for _ in range(samples):
        x = rng.uniform(-1.0, 1.0, size=n)
        s_lo, s_hi = np.sort(rng.uniform(-R, R, size=2))
        direction = rng.normal(size=n)
        direction /= np.linalg.norm(direction)
        mag = 10.0 ** rng.uniform(-3.0, math.log10(_P_CAP))
        pts.append((x, s_lo, s_hi, mag * direction))
    pts.append((np.zeros(n), 0.0, min(R, 1.0), np.zeros(n)))  # p = 0 corner case
    xs, s_lo, s_hi, ps = (np.array(col, dtype=float) for col in zip(*pts))
    pm = _libm(math.pow, np.sqrt(_sq_norm(ps)), m)

    eps = 1e-9

    # --- gradient-in-x bound: the first witness in sample order -----------
    gx = _grad_x_L(spec, xs, s_lo, ps)
    norm = np.sqrt(np.sum((gx * gx).reshape(len(ps), -1), axis=1))
    tiny = pm < 1e-300
    bad = np.flatnonzero(tiny & (norm > 1e-6))
    if len(bad):
        i = bad[0]
        report.grad_x_bound = ConditionResult(ok=False, witness={
            "x": xs[i].tolist(), "s": float(s_lo[i]), "p": ps[i].tolist(), "grad_norm": float(norm[i]),
        })
    else:
        report.grad_x_bound = ConditionResult(ok=True, fitted_C=max([0.0, *(norm[~tiny] / pm[~tiny]).tolist()]))

    # --- growth in s: the first monotonicity witness, the last growth one --
    idx = np.flatnonzero(s_hi > s_lo)
    x, p, lo, hi = xs[idx], ps[idx], s_lo[idx], s_hi[idx]
    diff = eval_L(spec, x, hi, p) - eval_L(spec, x, lo, p)
    scale = 1.0 + np.abs(diff).max(axis=(1, 2))
    eig = _sym_eigvals(diff)
    mono = np.flatnonzero(eig[:, 0] < -eps * scale)
    mono_witness = None
    if len(mono):
        i = mono[0]
        mono_witness = {
            "x": x[i].tolist(), "s": float(lo[i]), "s_prime": float(hi[i]), "p": p[i].tolist(),
            "min_eig": float(eig[i, 0]),
        }
    denom = (hi - lo) * pm[idx]
    tiny = denom < 1e-300
    witness = None
    grows = np.flatnonzero(tiny)[_sym_eigvals(np.abs(diff[tiny]))[:, -1] > 1e-6]
    if len(grows):
        i = grows[-1]
        witness = {"x": x[i].tolist(), "s": float(lo[i]), "s_prime": float(hi[i]), "p": p[i].tolist()}
    report.s_monotone = ConditionResult(ok=mono_witness is None, witness=mono_witness)
    witness = witness or mono_witness
    report.s_growth = (
        ConditionResult(ok=False, witness=witness)
        if witness
        else ConditionResult(ok=True, fitted_C=max([0.0, *(eig[~tiny, -1] / denom[~tiny]).tolist()]))
    )

    # --- radial coercivity: the sub-unit regime is the verdict; the
    # mirrored super-unit regime excludes it and is reported for reference
    report.radial_coercive, report.radial_coercive_sup = _fit_radial_coercive(
        spec, xs, s_lo, ps, pm, Lambda, eps)
    return report


def _fit_radial_coercive(spec, x, s, p, pm, Lambda, eps) -> tuple[ConditionResult, ConditionResult]:
    """Fit (C, theta_bar) for the radial coercivity inequality on (m, n),
    (m,), (m, n) sample stacks and their |p|^m: the sign=+1 and -1 results.

    sign=+1: p.grad_p L - L + theta Lambda |grad_p L| I - theta I
             <= C p(x)p - (1/C)|p|^m I,  for all theta in [0, theta_bar].
    sign=-1 is the mirrored variant with reversed inequality:
             p.grad_p L - L - theta Lambda |grad_p L| I + theta I
             >= -C p(x)p + (1/C)|p|^m I.

    Both share grad_p L, m0 = p.grad_p L - L, p(x)p, the floor and the slope,
    built and checked finite (ValueError) once.  Both grids are bisected, as
    feasibility is monotone in each: d/dC of the gap, p(x)p + |p|^m/C^2 I, is
    PSD, and the gap is affine in theta and feasible at theta = 0.  Each gap
    matrix is eigen-solved at most once, the leading _LEAD_SAMPLES rows first
    (400-sample genL:tanh_quad probe: 22 ms, 28 ms with whole stacks), and a
    witness is the first violation in sample-major order.
    """
    gp = _grad_p_L(spec, x, s, p)
    m0 = np.einsum("rk,rkij->rij", p, gp) - eval_L(spec, x, s, p)
    m0_arr = 0.5 * (m0 + np.swapaxes(m0, 1, 2))
    pp = p[:, :, None] * p[:, None, :]
    floor = -eps * (1.0 + np.abs(pm) + np.abs(m0_arr).max(axis=(1, 2)))
    slope = Lambda * np.sqrt(np.sum((gp * gp).reshape(len(p), -1), axis=1)) - 1.0
    # checked here for every sample, as a check may stop before the last one
    if not all(np.isfinite(a).all() for a in (pp, pm, m0_arr, slope)):
        raise ValueError("gap matrix entries must be finite at every sample")
    eye = np.eye(p.shape[1])

    c_grid = [2.0**j for j in range(-2, 22)]
    theta_grid = [2.0**-j for j in range(40, -1, -1)]  # ascending, up to 1

    def feasible(sign: int, c: float, thetas: list[float]) -> dict | None:
        # gap(theta) = C p(x)p - (|p|^m/C) I - sign*m0 - theta(Lambda g - 1) I,
        # required PSD for both variants after folding the signs, solved as
        # (samples, thetas, n, n) stacks, the rest only if the lead block passes
        for rows in (slice(0, _LEAD_SAMPLES), slice(_LEAD_SAMPLES, None)):
            base = c * pp[rows] - (pm[rows] / c)[:, None, None] * eye - sign * m0_arr[rows]
            shift = np.array(thetas)[None, :] * slope[rows, None]
            low = _sym_eigvals(base[:, None] - shift[:, :, None, None] * eye)[..., 0]
            bad = np.argwhere(low < floor[rows, None])
            if len(bad):
                i, t = bad[0]
                return {"p": p[rows][i].tolist(), "theta": thetas[t], "C": c, "violation": float(low[i, t])}
        return None

    def fit(sign: int) -> ConditionResult:
        # the smallest feasible C at vanishing theta_bar, then the first theta_bar
        # above it that fails; when no C passes, the largest was tried last
        tried = {}  # C -> its witness, None if feasible
        k = bisect.bisect_left(c_grid, True, key=lambda c: tried.setdefault(
            c, feasible(sign, c, [0.0, theta_grid[0]])) is None)
        if k == len(c_grid):
            return ConditionResult(ok=False, witness=tried[c_grid[-1]])
        c = c_grid[k]
        t = bisect.bisect_left(theta_grid, True, 1, key=lambda th: feasible(sign, c, [th]) is not None)
        return ConditionResult(ok=True, fitted_C=c, fitted_theta_bar=theta_grid[t - 1])

    return fit(+1), fit(-1)


# ---------------------------------------------------------------------------
# textual forms


def example_varying_quad() -> OperatorSpec:
    """Variable-coefficient quadratic family with non-decreasing alpha and
    non-increasing beta bounded below: alpha = tanh(s), beta = 2 - tanh(s)."""
    return OperatorSpec.quad_var(
        alpha_fn=lambda x, s: _libm(math.tanh, s),
        beta_fn=lambda x, s: 2.0 - _libm(math.tanh, s),
        m=2.0,
        name="tanh_quad",
    )


def _cusp_g(alpha: float, q4: float = 1.0) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    """g(s, |p|^2) = -(s^3 |p|^10 + alpha s |p|^6 + |p|^4 / q4), the cusp-family
    coefficient, on whole arrays.  Each power goes through libm pow (see
    _libm), so every entry is bitwise the float the scalar formula gives."""

    def g(s, t2):
        return -(_libm(math.pow, s, 3) * _libm(math.pow, t2, 5) + alpha * s * _libm(math.pow, t2, 3)
                 + _libm(math.pow, t2, 2) / q4)

    return g


def cubic_mix_L(coef: float = -36.0 / 25.0) -> OperatorSpec:
    """L(s, p) = -(s^3 |p|^10 + coef * s |p|^6 + |p|^4) I; not monotone in s."""
    return OperatorSpec.isotropic(_cusp_g(coef), m=10.0, name="cubic_mix")


_GENL_BUILTINS: dict[str, Callable[[], OperatorSpec]] = {
    "cubic_mix": cubic_mix_L,
    "tanh_quad": example_varying_quad,
}


def _parse_radial_coeff(text: str) -> Callable[[np.ndarray], np.ndarray]:
    if text == "zero":
        return lambda t: 0.0
    if text == "neg_t":
        return lambda t: -t
    if text.startswith("pow(") and text.endswith(")"):
        coef_s, gamma_s = text[4:-1].split(",")
        coef, gamma = float(coef_s), float(gamma_s)
        return lambda t: _where_positive(t, lambda tp: coef * _libm(math.pow, tp, gamma))
    raise ValueError(f"unknown radial coefficient {text!r}")


def _where_positive(t, fn: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """fn on the entries t > 0 and 0.0 elsewhere, where libm pow may fail."""
    t = np.asarray(t, dtype=float)
    out = np.zeros(t.shape)
    out[t > 0.0] = fn(t[t > 0.0])
    return out


def parse_operator(text: str) -> OperatorSpec:
    """Parse the textual operator form used by the CLI and problem files."""
    text = text.strip()
    if text == "conformal":
        return OperatorSpec.conformal()
    if text.startswith("quad:"):
        _, a, b = text.split(":")
        return OperatorSpec.quad_const(float(a), float(b))
    if text.startswith("rotinv:"):
        _, a, b = text.split(":", 2)
        return OperatorSpec.rot_inv(_parse_radial_coeff(a), _parse_radial_coeff(b),
                                    name=f"rotinv:{a}:{b}")
    if text.startswith("genL:"):
        name = text.split(":", 1)[1]
        if name not in _GENL_BUILTINS:
            raise ValueError(f"unknown built-in L {name!r}; have {sorted(_GENL_BUILTINS)}")
        return _GENL_BUILTINS[name]()
    raise ValueError(f"cannot parse operator spec {text!r}")


def format_operator(spec: OperatorSpec) -> str:
    if spec.kind == "quad_const":
        return spec.name or f"quad:{spec.alpha:g}:{spec.beta:g}"
    if spec.kind == "rot_inv":
        return spec.name or "rotinv:<custom>"
    if spec.kind == "quad_var":
        return f"genL:{spec.name}" if spec.name in _GENL_BUILTINS else f"quadvar:{spec.name or '<custom>'}"
    return f"genL:{spec.name}" if spec.name in _GENL_BUILTINS else f"genL:<custom:{spec.name}>"
