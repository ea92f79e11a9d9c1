"""Quadratic-penalty envelopes of grid-sampled semi-continuous functions.

The upper envelope of v at penalty scale eps is max_y { v(y) - |y-x|^2/eps },
the lower envelope of w is min_y { w(y) + |y-x|^2/eps }.  On a finite grid
the extremum ranges over the nodes, which keeps every structural property
(one-sided Hessian bound, displacement bound, gradient bound) an exact
finite-dimensional statement rather than a limit.

The penalty separates by axis, so an envelope is built in two passes of a
1D max-plus transform (along axis 0, then axis 1): O(N^3) work on an N x N
grid instead of the O(N^4) search over every node pair, with bitwise the
same values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

__all__ = [
    "GridFn",
    "EnvelopeResult",
    "upper_envelope",
    "lower_envelope",
    "upper_envelope_separable",
    "lower_envelope_separable",
    "check_envelope_properties",
    "dyadic_sharpness",
    "stability_check",
    "dyadic_w",
    "grid_to_csv",
    "grid_from_csv",
    "envelope_to_csv",
]


@dataclass(frozen=True)
class GridFn:
    """Uniform grid sample on a box; values may be +-inf on masked nodes."""

    box: tuple[tuple[float, float], ...]
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "box", tuple((float(a), float(b)) for a, b in self.box))
        if vals.ndim not in (1, 2):
            raise ValueError("only 1D and 2D grids are supported")
        if len(self.box) != vals.ndim:
            raise ValueError("box must have one (lo, hi) pair per axis")
        for (lo, hi), size in zip(self.box, vals.shape):
            if not (hi > lo):
                raise ValueError("box bounds must satisfy lo < hi")
            if size < 3:
                raise ValueError("need at least 3 nodes per axis")
        if np.any(np.isnan(vals)):
            raise ValueError("NaN values are not allowed (use +-inf to mask)")
        if not np.any(np.isfinite(vals)):
            raise ValueError("grid must carry at least one finite value")

    @property
    def dim(self) -> int:
        return self.values.ndim

    @property
    def shape(self) -> tuple[int, ...]:
        return self.values.shape

    @property
    def h(self) -> tuple[float, ...]:
        return tuple((hi - lo) / (size - 1) for (lo, hi), size in zip(self.box, self.shape))

    def axis_nodes(self, axis: int) -> np.ndarray:
        lo, hi = self.box[axis]
        return np.linspace(lo, hi, self.shape[axis])

    def node_coords(self) -> np.ndarray:
        """All node coordinates, flattened row-major, shape (N, dim)."""
        axes = [self.axis_nodes(i) for i in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    def with_values(self, vals: np.ndarray) -> "GridFn":
        return GridFn(self.box, vals)

    @classmethod
    def from_callable(cls, f: Callable[..., float], box, shape) -> "GridFn":
        axes = [np.linspace(lo, hi, n) for (lo, hi), n in zip(box, shape)]
        if len(shape) == 1:
            vals = np.array([f(x) for x in axes[0]])
        else:
            vals = np.array([[f(x, y) for y in axes[1]] for x in axes[0]])
        return cls(tuple(box), vals)

    @classmethod
    def constant(cls, c: float, box, shape) -> "GridFn":
        return cls(tuple(box), np.full(shape, float(c)))


@dataclass(frozen=True)
class EnvelopeResult:
    env: GridFn
    # flat (row-major) index of a candidate node attaining env at each node;
    # exact ties go to the smallest second-axis index, then the smallest
    # first-axis index that maximizes the first pass
    argpt: np.ndarray
    eps: float

    def argpt_coords(self) -> np.ndarray:
        return self.env.node_coords()[self.argpt.ravel()].reshape(self.argpt.shape + (self.env.dim,))


def _penalties(src: GridFn, eps: float):
    """Per-axis squared-distance penalty tables d_a(i, j) = (x_i - y_j)^2/eps."""
    tables = []
    for a in range(src.dim):
        nodes = src.axis_nodes(a)
        diff = nodes[:, None] - nodes[None, :]
        tables.append(diff * diff / eps)
    return tables


def _max_plus(cand: np.ndarray, pen: np.ndarray):
    """One pass along axis 0: out[x, l] = max_k cand[k, l] - pen[x, k].

    Returns the values and the first maximizing k.  Lines are taken one at
    a time, so a single (n, n) score table is live.
    """
    n, m = cand.shape
    out = np.empty((n, m))
    arg = np.empty((n, m), dtype=np.int64)
    rows = np.arange(n)
    for l in range(m):
        scores = cand[None, :, l] - pen  # (x, k)
        a = np.argmax(scores, axis=1)
        arg[:, l] = a
        out[:, l] = scores[rows, a]
    return out, arg


def _envelope(src: GridFn, eps: float, sign: float) -> EnvelopeResult:
    # sign=+1: upper (max of v - penalty); sign=-1: lower (min of w + penalty)
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    work = src.values if sign > 0 else -src.values
    cand = np.where(np.isfinite(work), work, -np.inf)
    if not np.any(np.isfinite(cand)):
        raise ValueError("no finite candidate values")
    pen = _penalties(src, eps)
    if src.dim == 1:
        env, arg = _max_plus(cand[:, None], pen[0])
        env, arg = env[:, 0], arg[:, 0]
    else:
        # stage(i, l) = max_k cand(k, l) - d1(i, k); env(i, j) = max_l stage(i, l) - d2(j, l)
        stage, arg1 = _max_plus(cand, pen[0])
        env_t, arg2 = _max_plus(stage.T, pen[1])
        env, l = np.ascontiguousarray(env_t.T), np.ascontiguousarray(arg2.T)
        arg = np.take_along_axis(arg1, l, axis=1) * src.shape[1] + l
    env = env if sign > 0 else -env
    return EnvelopeResult(src.with_values(env), arg, eps)


def upper_envelope(v: GridFn, eps: float) -> EnvelopeResult:
    """Discrete upper envelope, one max-plus pass per axis; masked (+-inf)
    nodes are skipped as candidates but still receive an envelope value.

    Values equal the exhaustive search over all nodes bitwise: the penalty
    is subtracted axis by axis and fl(max_k a_k - c) = max_k fl(a_k - c).
    ``argpt`` attains the same float objective; among exact ties it takes
    the smallest second-axis index, then the smallest first-axis index.
    """
    return _envelope(v, eps, +1.0)


def lower_envelope(w: GridFn, eps: float) -> EnvelopeResult:
    """Discrete lower envelope: ``-upper_envelope(-w)``, values and argpt."""
    return _envelope(w, eps, -1.0)


# Former names of the two-pass variant, kept for callers (perfbench).  They
# are separate function objects so that a span recorder wrapping each public
# name counts one build once.
def upper_envelope_separable(v: GridFn, eps: float) -> EnvelopeResult:
    return _envelope(v, eps, +1.0)


def lower_envelope_separable(w: GridFn, eps: float) -> EnvelopeResult:
    return _envelope(w, eps, -1.0)


# ---------------------------------------------------------------------------
# property suite


@dataclass
class PropertyRow:
    eps: float
    monotone_ok: bool
    curvature_ok: bool
    curvature_worst: float
    displacement_ok: bool
    displacement_worst: float
    gradient_ok: bool
    gradient_worst: float
    lipschitz_ok: bool | None = None

    @property
    def ok(self) -> bool:
        checks = [self.monotone_ok, self.curvature_ok, self.displacement_ok, self.gradient_ok]
        if self.lipschitz_ok is not None:
            checks.append(self.lipschitz_ok)
        return all(checks)


@dataclass
class PropertyReport:
    side: str
    rows: list[PropertyRow] = field(default_factory=list)
    approach_worst: float = math.nan

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _second_differences(env: np.ndarray, h: tuple[float, ...]):
    """Per-axis centered second differences at interior nodes."""
    out = []
    if env.ndim == 1:
        out.append((env[2:] - 2 * env[1:-1] + env[:-2]) / h[0] ** 2)
    else:
        out.append((env[2:, :] - 2 * env[1:-1, :] + env[:-2, :]) / h[0] ** 2)
        out.append((env[:, 2:] - 2 * env[:, 1:-1] + env[:, :-2]) / h[1] ** 2)
    return out


def _first_differences(env: np.ndarray, h: tuple[float, ...]):
    out = []
    if env.ndim == 1:
        out.append((env[1:] - env[:-1]) / h[0])
    else:
        out.append((env[1:, :] - env[:-1, :]) / h[0])
        out.append((env[:, 1:] - env[:, :-1]) / h[1])
    return out


def _interior_mask(shape) -> np.ndarray:
    m = np.zeros(shape, dtype=bool)
    if len(shape) == 1:
        m[1:-1] = True
    else:
        m[1:-1, 1:-1] = True
    return m


def check_envelope_properties(src: GridFn, eps_list: list, side: str,
                              lipschitz_K: float | None = None) -> PropertyReport:
    """Executable versions of the envelope properties at fixed (h, eps).

    (a) monotonicity in eps and approach toward the source, (b) the
    one-sided curvature bound 2/eps on discrete second differences, (c) the
    displacement bound |argpt - x|^2 <= eps (range above/below x), (d) the
    gradient bound 2 eps^{-1/2} range^{1/2} plus an h/eps slack.  All are
    exact discrete statements; the tolerances only absorb rounding.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])) or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must be positive and strictly decreasing")
    up = side == "upper"
    compute = upper_envelope if up else lower_envelope
    h = src.h
    hmax = max(h)
    finite = np.isfinite(src.values)
    vmax = float(np.max(src.values[finite]))
    vmin = float(np.min(src.values[finite]))
    interior = _interior_mask(src.shape)
    win_finite = finite & interior
    # range constant entering the gradient bound: global extremum on the
    # favorable side, window extremum on the other
    if up:
        grad_range = vmax - float(np.min(src.values[win_finite]))
    else:
        grad_range = float(np.max(src.values[win_finite])) - vmin

    report = PropertyReport(side=side)
    prev = None
    coords = src.node_coords()
    sup_abs = max(abs(vmax), abs(vmin))
    for eps in eps_list:
        res = compute(src, eps)
        env = res.env.values
        # (a) one-sided position and monotonicity in eps
        mono = bool(np.all(env >= src.values - 1e-12) if up else np.all(env <= src.values + 1e-12))
        if prev is not None:
            mono &= bool(np.all(env <= prev + 1e-12) if up else np.all(env >= prev - 1e-12))
        prev = env
        # (b) curvature bound with slack 4h
        bound = 2.0 / eps + 4.0 * hmax
        worst_curv = 0.0
        curv_ok = True
        for d2 in _second_differences(env, h):
            d2 = d2[np.isfinite(d2)]
            if d2.size == 0:
                continue
            extreme = float(np.min(d2)) if up else float(np.max(d2))
            signed = -extreme if up else extreme
            worst_curv = max(worst_curv, signed)
            curv_ok &= signed <= bound
        # (c) displacement bound, exact
        ycoords = coords[res.argpt.ravel()]
        d2_all = np.sum((ycoords - coords) ** 2, axis=1).reshape(src.shape)
        lhs = d2_all[finite]
        rhs = eps * ((vmax - src.values[finite]) if up else (src.values[finite] - vmin))
        worst_disp = max(0.0, float(np.max(lhs - rhs)))
        disp_ok = bool(np.all(lhs <= rhs + 1e-9 * (1.0 + rhs)))
        # (d) gradient bound with h/eps slack
        gbound = 2.0 / math.sqrt(eps) * math.sqrt(max(grad_range, 0.0)) + hmax / eps
        grad_ok = True
        worst_grad = 0.0
        for d1 in _first_differences(env, h):
            d1 = np.abs(d1[np.isfinite(d1)])
            if d1.size == 0:
                continue
            worst_grad = max(worst_grad, float(np.max(d1)))
            grad_ok &= float(np.max(d1)) <= gbound + 1e-9 * (1.0 + gbound)
        row = PropertyRow(eps, mono, curv_ok, worst_curv, disp_ok, worst_disp, grad_ok, worst_grad)
        # optional modulus refinement for Lipschitz sources
        if lipschitz_K is not None:
            lip_bound = math.sqrt(eps * lipschitz_K * math.sqrt(2.0 * eps * sup_abs))
            disp = np.sqrt(d2_all[finite])
            row.lipschitz_ok = bool(np.all(disp <= lip_bound + 1e-9 * (1.0 + lip_bound)))
        report.rows.append(row)
    report.approach_worst = float(np.max(np.abs(prev - src.values)[finite]))
    return report


# ---------------------------------------------------------------------------
# the dyadic sharpness example


def dyadic_w(y: float) -> float:
    """Piecewise source whose lower-envelope minimizer jumps to the origin.

    Value 0 at the origin, 1 on the inner dyadic shells, and a ramp 2 - 2|y|
    on the outermost band (1/2, 1].  The first matching case wins where the
    shell and ramp descriptions overlap.
    """
    a = abs(y)
    if a == 0.0:
        return 0.0
    if a > 1.0:
        raise ValueError("outside [-1, 1]")
    if a <= 0.5:
        return 1.0
    return 2.0 - 2.0 * a


@dataclass
class DyadicRow:
    k: int
    eps: float
    x: float
    env_value: float
    value_bound: float
    displacement: float
    displacement_bound: float
    window_min: float

    @property
    def ok(self) -> bool:
        return (
            self.env_value <= self.value_bound
            and self.displacement >= self.displacement_bound
            and self.window_min > 0.5
        )


@dataclass
class DyadicReport:
    rows: list[DyadicRow] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def dyadic_sharpness() -> DyadicReport:
    """The displacement bound is sharp: at eps_k = 2^{-2(2k+1)} and
    x_k = 2^{-(2k+3)}, the lower-envelope minimizer sits at the origin,
    a distance 2^{-(2k+3)} = 2 * (sqrt(eps_k)/8) away, while every node in
    the punctured window of radius sqrt(eps_k)/8 carries value > 1/2."""
    report = DyadicReport()
    for k in range(2, 7):
        eps = 2.0 ** (-2 * (2 * k + 1))
        xk = 2.0 ** -(2 * k + 3)
        root = math.sqrt(eps)
        # dyadic-refined candidate set: exact dyadic radii, a local cluster
        # resolving the window around x_k, and a coarse global grid
        cands = {0.0}
        cands.update(s * 2.0**-j for j in range(0, 23) for s in (1.0, -1.0))
        cands.update(s / 64.0 for s in range(-64, 65))
        step = root / 64.0
        cands.update(xk + i * step for i in range(-128, 129))
        ys = np.array(sorted(c for c in cands if -1.0 <= c <= 1.0))
        wvals = np.array([dyadic_w(y) for y in ys])
        scores = wvals + (ys - xk) ** 2 / eps
        imin = int(np.argmin(scores))
        window = (np.abs(ys - xk) < root / 8.0) & (np.abs(ys - xk) > 0.0)
        report.rows.append(
            DyadicRow(
                k=k,
                eps=eps,
                x=xk,
                env_value=float(scores[imin]),
                value_bound=1.0 / 16.0,
                displacement=abs(float(ys[imin]) - xk),
                displacement_bound=root / 8.0,
                window_min=float(np.min(wvals[window])),
            )
        )
    return report


# ---------------------------------------------------------------------------
# stability of envelopes under eps_j -> 0, x_j -> x


@dataclass
class StabilityRow:
    node_index: int
    target_value: float
    tail_extreme: float
    slack: float
    ok: bool


@dataclass
class StabilityReport:
    side: str
    tolerance: float
    rows: list[StabilityRow] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(row.ok for row in self.rows)


def _point_envelope(src: GridFn, eps: float, x: np.ndarray, sign: float) -> float:
    work = src.values if sign > 0 else -src.values
    cand = np.where(np.isfinite(work), work, -np.inf).ravel()
    coords = src.node_coords()
    scores = cand.copy()
    for a in range(src.dim):
        d = coords[:, a] - x[a]
        scores = scores - d * d / eps
    best = float(np.max(scores))
    return best if sign > 0 else -best


def stability_check(src: GridFn, side: str, trials: int = 10, seed: int = 0) -> StabilityReport:
    """Envelope values along eps_j -> 0, x_j -> x stay on the right side of
    the target value, within a sqrt(h) tolerance.

    Half the trials land the sequence exactly on the target node (the tail
    is then the shrinking-eps limit at x itself); the rest approach a local
    extremum from one node away, the grid analogue of approaching a
    semi-continuity point from the unfavorable side.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    if trials < 1:
        raise ValueError("need at least one trial")
    rng = np.random.default_rng(seed)
    up = side == "upper"
    sign = +1.0 if up else -1.0
    h = max(src.h)
    tol = 4.0 * math.sqrt(h)
    vals = src.values
    finite_idx = np.flatnonzero(np.isfinite(vals).ravel())
    coords = src.node_coords()
    report = StabilityReport(side=side, tolerance=tol)
    # the tail must reach eps small enough that a one-node penalty h^2/eps
    # dominates the value range; only then is the discrete limit exact
    vrange = float(np.ptp(vals[np.isfinite(vals)])) + 1.0
    hmin = min(src.h)
    eps_tail = 0.25 * hmin * hmin / vrange
    depth = max(10, math.ceil(math.log(0.5 / eps_tail) / math.log(4.0)) + 4)
    for trial in range(trials):
        onto = trial % 2 == 0
        if onto:
            i = int(rng.choice(finite_idx))
        else:
            # pick a local extremum so that the one-node-away approach comes
            # from the unfavorable side
            flat = np.where(np.isfinite(vals), vals, -sign * np.inf).ravel()
            i = int(np.argmax(sign * flat))
        x = coords[i]
        target = float(vals.ravel()[i])
        tail = []
        for j in range(depth):
            eps_j = 0.5 * 4.0**-j
            if onto:
                offset = max(h, 0.25 * 2.0**-j) if j < depth - 4 else 0.0
            else:
                offset = max(h, 0.25 * 2.0**-j)
            xj = x.copy()
            xj[0] = min(max(xj[0] + offset, src.box[0][0]), src.box[0][1])
            # snap to the grid
            k = round((xj[0] - src.box[0][0]) / src.h[0])
            xj[0] = src.box[0][0] + k * src.h[0]
            val = _point_envelope(src, eps_j, xj, sign)
            if j >= depth - 4:
                tail.append(val)
        extreme = max(tail) if up else min(tail)
        slack = (target - extreme) if up else (extreme - target)
        report.rows.append(StabilityRow(i, target, extreme, slack, slack >= -tol))
    return report


# ---------------------------------------------------------------------------
# CSV plumbing


def grid_to_csv(g: GridFn) -> str:
    lines = ["x,value"] if g.dim == 1 else ["x,y,value"]
    coords = g.node_coords()
    flat = g.values.ravel()
    for i in range(len(flat)):
        cs = ",".join(f"{c:.12g}" for c in coords[i])
        lines.append(f"{cs},{_fmt_val(flat[i])}")
    return "\n".join(lines) + "\n"


def envelope_to_csv(res: EnvelopeResult) -> str:
    g = res.env
    lines = ["x,env,argpt_index"] if g.dim == 1 else ["x,y,env,argpt_index"]
    coords = g.node_coords()
    flat = g.values.ravel()
    args = res.argpt.ravel()
    for i in range(len(flat)):
        cs = ",".join(f"{c:.12g}" for c in coords[i])
        lines.append(f"{cs},{_fmt_val(flat[i])},{args[i]}")
    return "\n".join(lines) + "\n"


def _fmt_val(v: float) -> str:
    if v == np.inf:
        return "inf"
    if v == -np.inf:
        return "-inf"
    return f"{v:.12g}"


def grid_from_csv(text: str) -> GridFn:
    rows = [ln.split(",") for ln in text.strip().split("\n") if ln and not ln.startswith("#")]
    header = rows[0]
    data = rows[1:]
    ncols = len(header)
    if ncols == 2:
        xs = np.array([float(r[0]) for r in data])
        vals = np.array([float(r[1]) for r in data])
        ux = np.unique(xs)
        return GridFn(((float(ux[0]), float(ux[-1])),), vals)
    xs = np.array([float(r[0]) for r in data])
    ys = np.array([float(r[1]) for r in data])
    vals = np.array([float(r[2]) for r in data])
    ux, uy = np.unique(xs), np.unique(ys)
    grid = vals.reshape(len(ux), len(uy))
    return GridFn(((float(ux[0]), float(ux[-1])), (float(uy[0]), float(uy[-1]))), grid)
