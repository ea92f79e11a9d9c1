"""Quadratic-penalty envelopes of grid-sampled semi-continuous functions.

The upper envelope of v at penalty scale eps is max_y { v(y) - |y-x|^2/eps },
the lower envelope of w is min_y { w(y) + |y-x|^2/eps }.  On a finite grid
the extremum ranges over the nodes, which keeps every structural property
(one-sided Hessian bound, displacement bound, gradient bound) an exact
finite-dimensional statement rather than a limit.

The penalty separates by axis, so an envelope is built in two passes of a
1D max-plus transform (along axis 0, then axis 1).  Each pass scores only
the offsets that can win, at most D ~ sqrt(eps * oscillation) / h nodes
away: O(N^2 D) work on an N x N grid instead of the O(N^4) search over
every node pair, with bitwise the same values.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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
    def constant(cls, c: float, box, shape) -> "GridFn":
        return cls(tuple(box), np.full(shape, float(c)))


def _boundary_mask(shape: tuple[int, ...]) -> np.ndarray:
    """The grid-edge nodes: first or last index on some axis."""
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = shape[axis] - 1
        mask[tuple(sl)] = True
    return mask


@dataclass(frozen=True)
class EnvelopeResult:
    env: GridFn
    # flat (row-major) index of a candidate node attaining env at each node;
    # exact ties go to the smallest second-axis index, then the smallest
    # first-axis index that maximizes the first pass
    argpt: np.ndarray


def _penalties(src: GridFn, eps: float):
    """Per-axis squared-distance penalty tables d_a(i, j) = (x_i - y_j)^2/eps."""
    tables = []
    for a in range(src.dim):
        nodes = src.axis_nodes(a)
        # in place: one (n, n) table instead of three
        diff = nodes[:, None] - nodes[None, :]
        diff *= diff
        diff /= eps
        tables.append(diff)
    return tables


def _reach(cand: np.ndarray, pen: np.ndarray) -> int:
    """D for _max_plus: the largest |k - x| with fl(top[k] - pen[x, k]) >=
    low[x], where top and low are the row maximum and minimum of cand."""
    n = len(pen)
    admit = cand.max(axis=1) - pen >= cand.min(axis=1)[:, None]  # (x, k); admits k = x
    rows = np.arange(n)
    first = admit.argmax(axis=1)
    last = n - 1 - admit[:, ::-1].argmax(axis=1)
    return int(max((rows - first).max(), (last - rows).max()))


def _max_plus(cand: np.ndarray, pen: np.ndarray):
    """One pass along axis 0: out[x, l] = max_k cand[k, l] - pen[x, k].

    Returns the values and the first maximizing k, bitwise those of scoring
    every k.  Only offsets d = k - x with |d| <= D = _reach(cand, pen) are
    scored.  That is exact: the k = x term has penalty exactly 0, so out[x, l]
    >= cand[x, l] >= low[x] = min_l cand[x, l]; rounding is monotone, so
    cand[k, l] - pen[x, k] <= fl(top[k] - pen[x, k]) with top[k] =
    max_l cand[k, l], and where that bound is below low[x], k can neither
    win nor tie at x on any line.  A -inf in cand[x] admits every k.

    The pass takes the shorter loop.  When 2D + 1 < m it loops over the
    offsets -D..D in increasing k, on whole (n, m) slices, and replaces an
    entry only on a strict gain, which keeps the first maximizer.  Otherwise
    it builds one (n, n) score table per line: in 1D (m = 1), at wide eps,
    and on masked lines (a -inf in cand[x] makes D >= (n - 1)/2).  Both
    score the same float cand[k, l] - pen[x, k].  The cost is O(n m D) on
    the offset loop and O(n^2 m) on the line loop: O(N^2 D) per pass on an
    N x N grid.
    """
    n, m = cand.shape
    reach = _reach(cand, pen) if m > 1 else n - 1
    if 2 * reach + 1 >= m:
        lines = np.ascontiguousarray(cand.T)  # (l, k)
        arg = np.empty((m, n), dtype=np.int64)
        for l in range(m):
            np.argmax(lines[l] - pen, axis=1, out=arg[l])  # over the (x, k) scores
        # the winning scores, formed again from the same two operands
        out = np.take_along_axis(lines, arg, axis=1) - pen[np.arange(n), arg]
        return out.T, arg.T
    cand = np.ascontiguousarray(cand)
    rows = np.arange(n)[:, None]
    out = np.full((n, m), -np.inf)
    # the offset d = k - x of the maximizer until the end; an all -inf line
    # keeps k = 0, as argmax does
    arg = np.repeat(-rows, m, axis=1)
    score = np.empty((n, m))
    gain = np.empty((n, m), dtype=bool)
    for d in range(-reach, reach + 1):
        r = n - abs(d)
        x = slice(max(0, -d), max(0, -d) + r)
        k = slice(max(0, d), max(0, d) + r)
        # np.diagonal(pen, d) lists pen[x, x + d] in the order of these slices
        s = np.subtract(cand[k], np.diagonal(pen, d)[:, None], out=score[:r])
        g = np.greater(s, out[x], out=gain[:r])
        np.copyto(out[x], s, where=g)
        np.copyto(arg[x], d, where=g)
    arg += rows
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
    return EnvelopeResult(src.with_values(env), arg)


def upper_envelope(v: GridFn, eps: float) -> EnvelopeResult:
    """Discrete upper envelope, one max-plus pass per axis; masked (+-inf)
    nodes are skipped as candidates but still receive an envelope value.

    Values equal the exhaustive search over all nodes bitwise: the penalty
    is subtracted axis by axis and fl(max_k a_k - c) = max_k fl(a_k - c).
    ``argpt`` attains the same float objective; among exact ties it takes
    the smallest second-axis index, then the smallest first-axis index.

    Each pass scores only the offsets that can reach or tie its maximum
    (_max_plus), at most D nodes away, where (D h)^2 / eps stays within the
    oscillation of the finite values.  On an N x N grid a build costs
    O(N^2 D), so it gets cheaper as eps shrinks; wide eps and masked
    lines cost O(N^3), as scoring every node does.
    """
    return _envelope(v, eps, +1.0)


def lower_envelope(w: GridFn, eps: float) -> EnvelopeResult:
    """Discrete lower envelope: ``-upper_envelope(-w)``, values and argpt."""
    return _envelope(w, eps, -1.0)


# Former names of the two-pass variant.  The benchmark still calls
# upper_envelope_separable and compares it bitwise with upper_envelope, and
# its tracer wraps both names, so they stay until the benchmark drops them.
# They are separate function objects so that a span recorder wrapping each
# public name counts one build once.
def upper_envelope_separable(v: GridFn, eps: float) -> EnvelopeResult:
    return _envelope(v, eps, +1.0)


def lower_envelope_separable(w: GridFn, eps: float) -> EnvelopeResult:
    return _envelope(w, eps, -1.0)


# ---------------------------------------------------------------------------
# property suite


_PROPERTY_ROW = np.dtype([("eps", np.float64), ("monotone_ok", np.bool_), ("curvature_ok", np.bool_),
                          ("curvature_worst", np.float64), ("displacement_ok", np.bool_),
                          ("displacement_worst", np.float64), ("gradient_ok", np.bool_),
                          ("gradient_worst", np.float64), ("lipschitz_ok", np.bool_), ("ok", np.bool_)])


@dataclass
class PropertyReport:
    """rows is a _PROPERTY_ROW structured array, one row per eps in the given
    order; lipschitz_ok reads true when no Lipschitz constant was given, and
    ok is the conjunction of the row's checks."""

    rows: np.ndarray
    approach_worst: float

    @property
    def all_ok(self) -> bool:
        return bool(self.rows["ok"].all())


def _on(axis: int, start: int | None, stop: int | None) -> tuple[slice, ...]:
    """The index taking start:stop along axis and every node along the other axes."""
    return (slice(None),) * axis + (slice(start, stop),)


def _second_differences(env: np.ndarray, h: tuple[float, ...]):
    """Per-axis centered second differences at interior nodes."""
    return [(env[_on(a, 2, None)] - 2 * env[_on(a, 1, -1)] + env[_on(a, None, -2)]) / ha ** 2
            for a, ha in enumerate(h)]


def _first_differences(env: np.ndarray, h: tuple[float, ...]):
    return [(env[_on(a, 1, None)] - env[_on(a, None, -1)]) / ha for a, ha in enumerate(h)]


def check_envelope_properties(src: GridFn, eps_list: list, side: str,
                              lipschitz_K: float | None = None) -> PropertyReport:
    """Executable versions of the envelope properties at fixed (h, eps).

    (a) monotonicity in eps and approach toward the source, (b) the
    one-sided curvature bound 2/eps on discrete second differences, (c) the
    displacement bound |argpt - x|^2 <= eps (range above/below x), (d) the
    gradient bound 2 eps^{-1/2} range^{1/2} plus an h/eps slack.  All are
    exact discrete statements; the tolerances only absorb rounding.  The
    range in (d) reads the finite interior nodes: ValueError if there are
    none.
    """
    if side not in ("upper", "lower"):
        raise ValueError("side must be 'upper' or 'lower'")
    eps_list = [float(e) for e in eps_list]
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])) or any(e <= 0 for e in eps_list):
        raise ValueError("eps_list must be positive and strictly decreasing")
    if lipschitz_K is not None and not 0.0 <= lipschitz_K < math.inf:
        raise ValueError("lipschitz_K must be nonnegative and finite")
    up = side == "upper"
    compute = upper_envelope if up else lower_envelope
    h = src.h
    hmax = max(h)
    finite = np.isfinite(src.values)
    vmax = float(np.max(src.values[finite]))
    vmin = float(np.min(src.values[finite]))
    interior = ~_boundary_mask(src.shape)
    win_finite = finite & interior
    if not win_finite.any():
        raise ValueError("the grid has no finite interior node to bound the gradient range")
    # range constant entering the gradient bound: global extremum on the
    # favorable side, window extremum on the other
    if up:
        grad_range = vmax - float(np.min(src.values[win_finite]))
    else:
        grad_range = float(np.max(src.values[win_finite])) - vmin

    # check (a) compares the envelope with the source on its finite nodes only
    source = np.where(finite, src.values, -math.inf if up else math.inf)
    rows = np.empty(len(eps_list), _PROPERTY_ROW)
    prev = None
    coords = src.node_coords()
    sup_abs = max(abs(vmax), abs(vmin))
    for i, eps in enumerate(eps_list):
        res = compute(src, eps)
        env = res.env.values
        # (a) one-sided position and monotonicity in eps
        mono = bool(np.all(env >= source - 1e-12) if up else np.all(env <= source + 1e-12))
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
        # optional modulus refinement for Lipschitz sources
        lip_ok = True
        if lipschitz_K is not None:
            lip_bound = math.sqrt(eps * lipschitz_K * math.sqrt(2.0 * eps * sup_abs))
            disp = np.sqrt(d2_all[finite])
            lip_ok = bool(np.all(disp <= lip_bound + 1e-9 * (1.0 + lip_bound)))
        ok = mono and curv_ok and disp_ok and grad_ok and lip_ok
        rows[i] = eps, mono, curv_ok, worst_curv, disp_ok, worst_disp, grad_ok, worst_grad, lip_ok, ok
    return PropertyReport(rows, float(np.max(np.abs(prev - src.values)[finite])))


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


_DYADIC_ROW = np.dtype([("k", np.int64), ("eps", np.float64), ("x", np.float64), ("env_value", np.float64),
                        ("value_bound", np.float64), ("displacement", np.float64),
                        ("displacement_bound", np.float64), ("window_min", np.float64), ("ok", np.bool_)])


def dyadic_sharpness() -> np.ndarray:
    """The displacement bound is sharp: at eps_k = 2^{-2(2k+1)} and
    x_k = 2^{-(2k+3)}, the lower-envelope minimizer sits at the origin,
    a distance 2^{-(2k+3)} = 2 * (sqrt(eps_k)/8) away, while every node in
    the punctured window of radius sqrt(eps_k)/8 carries value > 1/2.

    Returns one _DYADIC_ROW per k = 2..6; ok holds when the value stays
    within its bound, the minimizer jumps at least the displacement bound
    and the window minimum exceeds 1/2."""
    ks = range(2, 7)
    rows = np.empty(len(ks), _DYADIC_ROW)
    for row, k in enumerate(ks):
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
        value, disp, window_min = float(scores[imin]), abs(float(ys[imin]) - xk), float(np.min(wvals[window]))
        ok = value <= 1.0 / 16.0 and disp >= root / 8.0 and window_min > 0.5
        rows[row] = k, eps, xk, value, 1.0 / 16.0, disp, root / 8.0, window_min, ok
    return rows


# ---------------------------------------------------------------------------
# stability of envelopes under eps_j -> 0, x_j -> x


_STABILITY_ROW = np.dtype([("node_index", np.int64), ("target_value", np.float64),
                           ("tail_extreme", np.float64), ("slack", np.float64), ("ok", np.bool_)])


@dataclass
class StabilityReport:
    """rows is a _STABILITY_ROW structured array, one row per trial; ok holds
    when the slack is at least -tolerance."""

    tolerance: float
    rows: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.rows["ok"].all())


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
    rows = np.empty(trials, _STABILITY_ROW)
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
        rows[trial] = i, target, extreme, slack, slack >= -tol
    return StabilityReport(tol, rows)


# ---------------------------------------------------------------------------
# CSV plumbing


def _format_rows(fmt: str, *columns, header: str = "") -> str:
    """One fmt line per row of the equal-length columns (each an array,
    read row-major, or a sequence of cells), below header when one is given;
    every line ends in a newline.  The whole table is one %-format over the
    chained cells, which is quicker than one per row.  fmt may span lines,
    for a multi-line row."""
    cols = [c.ravel().tolist() if isinstance(c, np.ndarray) else c for c in columns]
    body = (fmt + "\n") * len(cols[0]) % tuple(itertools.chain.from_iterable(zip(*cols)))
    return f"{header}\n{body}" if header else body


def _node_table(g: GridFn, *columns: tuple[str, str, object], numbered: bool = False) -> str:
    """CSV text over the nodes of g, row-major: a header, then per node its
    index (when numbered), its coordinates x[,y] in %.12g, and one value from
    each (name, %-format, values) column."""
    names = ["node"] * numbered + ["x", "y"][:g.dim] + [name for name, _, _ in columns]
    fmt = ",".join(["%d"] * numbered + ["%.12g"] * g.dim + [f for _, f, _ in columns])
    cols = [range(g.values.size)] * numbered + g.node_coords().T.tolist()
    return _format_rows(fmt, *cols, *(vals for _, _, vals in columns), header=",".join(names))


def grid_to_csv(g: GridFn) -> str:
    return _node_table(g, ("value", "%.12g", g.values))


def envelope_to_csv(res: EnvelopeResult) -> str:
    return _node_table(res.env, ("env", "%.12g", res.env.values), ("argpt_index", "%d", res.argpt))


def grid_from_csv(text: str) -> GridFn:
    """The grid written by grid_to_csv: columns x[,y],value, one row per node.

    ValueError unless the coordinates are the row-major nodes of the uniform
    grid they span, each within 1e-6 spacings (plus 1e-11 of the largest
    coordinate, which covers their 12 printed digits).
    """
    rows = [ln.split(",") for ln in text.strip().split("\n") if ln and not ln.startswith("#")]
    dim = len(rows[0]) - 1 if rows else 0
    if dim not in (1, 2) or len(rows) < 2 or any(len(r) != dim + 1 for r in rows[1:]):
        raise ValueError("expected a header and rows of x[,y],value")
    table = np.array(rows[1:], dtype=float)
    coords = table[:, :dim]
    if not np.isfinite(coords).all():
        raise ValueError("node coordinates must be finite")
    axes = [np.unique(coords[:, a]) for a in range(dim)]
    shape = tuple(len(u) for u in axes)
    if math.prod(shape) != len(table):
        raise ValueError("the coordinates do not form a full grid, one row per node")
    g = GridFn(tuple((u[0], u[-1]) for u in axes), table[:, dim].reshape(shape))
    tol = 1e-6 * np.array(g.h) + 1e-11 * np.abs(coords).max()
    if not np.all(np.abs(g.node_coords() - coords) <= tol):
        raise ValueError("the coordinates are not the row-major nodes of a uniform grid")
    return g
