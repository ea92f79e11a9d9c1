"""Dirichlet solving by monotone iteration between a sub/super pair.

The solver realizes the infimum-over-supersolutions construction on a grid:
a descending run starts from the upper field and passes only through discrete
supersolutions, an ascending run starts from the lower field and passes only
through subsolutions.  Two iterations realize it.

Crossing sweeps (the reference): every sweep moves each interior node to the
center value at which the discrete operator matrix crosses the cone boundary,
clamped into the sandwich, red nodes (odd coordinate sum) then black ones.
Each group reads the centered-difference jet (s, p, H) that grid_verify
classifies (viscosity._Stencil), and one eval_L call gives L for every
operator kind.  Moving the center value by t lowers H by t diag(2 / h_a^2),
so each node's move to its crossing is one expression per cone mode:
tr(H + L) / S for the trace cone (S = sum_a 2 / h_a^2), the root of the
smallest eigenvalue for the positive cone.  The move is monotone in the
field, so each descending sweep maps a discrete supersolution to a smaller
one.  The sweep count grows like the square of the node count.  Sweeps run
for the positive cone on radial and 2D grids, callable operators and masked
grids, and one sweep is the Newton path's fallback step.

Monotone Newton (trace cone on 1D, radial or 2D grids, and the positive cone
on a 1D interval, where lambda_min = trace; constant-coefficient quadratic
operator such as the conformal one, no masked nodes): the run solves
G(u) = u - c(u) = 0 by Newton steps, G being minus the sweep's trace-cone move
(so the stop test reads grid_verify's margin, and a fallback sweep the same
crossing): c(u) = (sum_a w_a (u_-a + u_+a) + a p_0 + b |p|^2) / S with
w_a = 1 / h_a^2, S = sum_a 2 w_a, b = alpha - n beta and a = (n - 1) / r on
radial grids (0 otherwise).  The Jacobian couples each node to its two
neighbours per axis (an M-matrix for small h): a tridiagonal system in 1D
(Thomas algorithm).  In 2D it is x - sum_a (w_a / S)(x_-a + x_+a) plus a
first-order term, solved matrix-free by restarted GMRES (Saad & Schultz
1986) right-preconditioned by the constant-coefficient part, which a DST-I
along each axis diagonalizes (Buzbee, Golub & Nielson 1970); the step
charges the true residual the last window leaves.
G is concave for b > 0 and convex for b < 0, and
G(u + t d) = (1 - t) G(u) + t e - b t^2 |p(d)|^2 / S holds exactly along a
direction d, e = G'(u) d + G(u) being the solve's error (0 for an exact
Newton direction).  So the full step keeps the sign of G on the side where
the quadratic term helps (ascending for b >= 0, descending for b <= 0), and
is taken there when e keeps that side up to rounding; on the other side the
step is shortened in closed form until every node keeps half its margin,
with t |e| charged against it.  A node already on the cone boundary admits
no shortened step; when the step would be that short (below
_MIN_NEWTON_STEP) or the solve breaks down, the iteration takes one crossing
sweep instead, whose last group moves only halfway, which keeps the run's
side and leaves every moved node strictly inside.  No run looks at the
other end of the bracket except to clamp into it.

Supported cones: the trace-positive cone (margin affine in the center value,
crossing in closed form) and the positive-definite cone / its full k = n
elementary-symmetric equivalent (smallest-eigenvalue margin; closed form in
1D, radial, and 2D).  The tests keep a bisection on the cone margin of each
node's jet as the independent reference for these closed forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .envelopes import GridFn, _boundary_mask, _node_table
from .matcone import ConeSpec, _check_tol
from .operators import OperatorSpec, eval_L
from .viscosity import _CLASS_NAMES, GridVerifyReport, _Stencil, _ambient_dim, grid_verify

__all__ = [
    "SolverConfig",
    "DirichletProblem",
    "PerronResult",
    "perron_solve",
    "UniquenessReport",
    "uniqueness_experiment",
    "TranslationBoundReport",
    "translation_gradient_bound",
    "solution_csv",
    "radial_sandwich_problem",
    "box_sandwich_problem",
]

# nodewise monotonicity is recorded against this absolute slack
_MONOTONE_SLACK = 1e-11


@dataclass(frozen=True)
class SolverConfig:
    """Solver-loop knobs.

    tol is a margin tolerance, so converged means every interior node
    classifies BOUNDARY within roughly tol.  The crossing sweeps stop once
    the sweep's largest crossing move, scaled by the center-value slope of
    the margin, drops below it; the Newton path (trace cone, 1D and 2D)
    stops once the largest margin itself does.  max_sweeps caps the
    iterations: red-black crossing sweeps, or Newton iterations on the
    Newton path (each a margin check followed, if it fails, by one step: a
    tridiagonal solve in 1D, a preconditioned Krylov solve in 2D).  A Newton step
    that moves no node ends the run unconverged before the cap: every later
    step would repeat it.  So do 8 iterations in a row whose margin sets no
    new minimum: the run creeps at the rounding floor.
    """

    tol: float = 1e-8
    max_sweeps: int = 50_000

    def __post_init__(self) -> None:
        _check_tol(self.tol)
        if self.max_sweeps < 1:
            raise ValueError("max_sweeps must be at least 1")


def _node_roles(finite: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Split finite nodes into interior and boundary (edge or mask-adjacent)."""
    boundary = _boundary_mask(finite.shape)
    for ax in range(finite.ndim):
        lo = [slice(None)] * finite.ndim
        hi = [slice(None)] * finite.ndim
        lo[ax] = slice(None, -1)
        hi[ax] = slice(1, None)
        # finite node next to a masked one acts as Dirichlet data
        boundary[tuple(lo)] |= ~finite[tuple(hi)]
        boundary[tuple(hi)] |= ~finite[tuple(lo)]
    boundary &= finite
    interior = finite & ~boundary
    return interior, boundary


@dataclass(frozen=True)
class DirichletProblem:
    """Sandwiched boundary-value data: lower field, upper field, operator, cone.

    The two fields must share the grid, carry the same mask, be ordered
    lower <= upper, and agree on boundary nodes (grid edge or mask-adjacent);
    that shared trace is the Dirichlet data.  No solution signature of the
    fields themselves is verified here: run grid_verify to certify a sandwich.
    """

    F: OperatorSpec
    U: ConeSpec
    sub: GridFn
    sup: GridFn
    ambient_n: int | None = None

    def __post_init__(self) -> None:
        if self.sub.box != self.sup.box or self.sub.shape != self.sup.shape:
            raise ValueError("sub and sup must share box and shape")
        fin_lo = np.isfinite(self.sub.values)
        fin_hi = np.isfinite(self.sup.values)
        if not np.array_equal(fin_lo, fin_hi):
            raise ValueError("sub and sup must mask the same nodes")
        if np.any(self.sub.values[fin_lo] > self.sup.values[fin_lo] + 1e-12):
            raise ValueError("need sub <= sup on every unmasked node")
        interior, boundary = _node_roles(fin_lo)
        if not interior.any():
            raise ValueError("the domain has no interior nodes")
        gap = np.abs(self.sub.values[boundary] - self.sup.values[boundary])
        if gap.size and gap.max() > 1e-9:
            raise ValueError("sub and sup must agree on boundary nodes")
        amb = self.matrix_dim
        if self.U.n and self.U.n != amb:
            raise ValueError(f"cone expects dimension {self.U.n}, problem has {amb}")
        object.__setattr__(self, "_interior", interior)
        object.__setattr__(self, "_boundary", boundary)

    @property
    def matrix_dim(self) -> int:
        return _ambient_dim(self.sub, self.ambient_n)

    @property
    def interior_mask(self) -> np.ndarray:
        return self._interior

    @property
    def boundary_mask(self) -> np.ndarray:
        return self._boundary


# ---------------------------------------------------------------------------
# vectorized crossing sweeps


def _crossing_mode(U: ConeSpec, amb: int) -> str:
    # with 1 x 1 matrices lambda_min(M) = tr M: the positive cone is the trace cone
    if U.kind == "trace" or (U.kind == "gamma_k" and U.k == 1) or (U.kind == "posdef" and amb == 1):
        return "trace"
    if U.kind == "posdef" or (U.kind == "gamma_k" and U.k == amb):
        return "mineig"
    raise ValueError(
        "the sweep solver supports the trace cone (k = 1) and the positive "
        f"cone (k = n), not {U.kind!r} with k={U.k}"
    )


# operators whose lower-order term reads the field value
_VALUE_KINDS = ("quad_var", "isotropic", "general_l")


def _moves(
    u: np.ndarray, st: _Stencil, problem: DirichletProblem, mode: str
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(s, p, t): the nodes' values, slopes and moves to the crossing, given the flat field u.

    The jet (s, p, H) is the one grid_verify classifies, and one eval_L
    gives M = H + L(x, s, p).  Moving the center value by t lowers H by
    t diag(2 / h_a^2), so t is one expression per cone mode: tr M / S
    with S = sum_a 2 / h_a^2 for the trace cone; for the positive cone the
    root of lambda_min in t, which is _mineig_crossing_2d in 2D and M_00 / S
    on radial grids where the tangent entries of M are nonnegative (-inf
    elsewhere; an isotropic L keeps the radial jet diagonal).  Value-dependent
    operators take s from u and then from the crossing s + t, three passes
    in all; a node sent to -inf keeps its value argument, so it stays there.
    """
    F = problem.F
    s, p, H = st.jet(u)
    arg = s
    for _ in range(3 if F.kind in _VALUE_KINDS else 1):
        M = H + eval_L(F, st.x, arg, p)
        if mode == "trace":
            t = np.einsum("kii->k", M) / _margin_slope(problem)
        elif len(st.center) == 2:
            t = _mineig_crossing_2d(M[:, 0, 0], M[:, 1, 1], M[:, 0, 1], *st.center)
        else:
            tangent = np.diagonal(M, axis1=1, axis2=2)[:, 1:].min(axis=1)
            t = np.where(tangent >= 0.0, M[:, 0, 0] / st.center[0], -np.inf)
        if F.kind not in _VALUE_KINDS:
            break
        arg = np.where(t > -np.inf, s + t, arg)
    return s, p, t


def _mineig_crossing_2d(a0, d0, b, sx: float, sy: float) -> np.ndarray:
    """Root of lambda_min([[a0 - sx t, b], [b, d0 - sy t]]) in t.

    Both eigenvalues decrease strictly in t, so the smaller one crosses zero
    first: the smaller root of the determinant quadratic.
    """
    A = sx * sy
    B = a0 * sy + d0 * sx
    C = a0 * d0 - b * b
    disc = np.maximum(B * B - 4.0 * A * C, 0.0)
    return (B - np.sqrt(disc)) / (2.0 * A)


def _margin_slope(problem: DirichletProblem) -> float:
    """S = sum_a 2 / h_a^2: an upper bound on |d margin / d center|, the
    residual scale of one move, and the trace cone's exact slope."""
    return 2.0 * sum(1.0 / (h * h) for h in problem.sub.h)


def _make_groups(problem: DirichletProblem, mode: str) -> list[tuple[_Stencil, np.ndarray, np.ndarray]]:
    """(stencils, sub, sup) of the red and the black interior nodes, odd
    coordinate sum first.

    Raises ValueError where the positive cone's crossing cannot read a
    group: a masked diagonal neighbour in 2D (the cross difference would not
    be finite), or a general L on a radial grid (it need not keep the radial
    jet diagonal).
    """
    interior = problem.interior_mask
    flat = np.flatnonzero(interior.ravel())
    coords = np.array(np.unravel_index(flat, interior.shape))
    parity = coords.sum(axis=0) % 2
    lo, hi = problem.sub.values.ravel(), problem.sup.values.ravel()
    groups = []
    for par in (1, 0):
        sel = flat[parity == par]
        if not sel.size:
            continue
        # the trace of M reads no off-diagonal entry: no cross difference
        st = _Stencil(problem.sub, sel, problem.matrix_dim, mode == "mineig")
        if st.corners is not None and not np.isfinite(lo[np.concatenate(st.corners)]).all():
            raise ValueError("the positive cone's 2D crossing needs finite diagonal neighbours")
        if mode == "mineig" and st.radii is not None and problem.F.kind == "general_l":
            raise ValueError(
                "eigenvalue cones with a general lower-order term "
                "are not supported on radial grids"
            )
        groups.append((st, lo[sel], hi[sel]))
    return groups


def _sweep(
    flat: np.ndarray,
    groups: list[tuple[_Stencil, np.ndarray, np.ndarray]],
    problem: DirichletProblem,
    mode: str,
    last_weight: float = 1.0,
) -> tuple[float, float]:
    """One red-black crossing sweep of the flat field, in place.

    Each group's nodes add their move (_moves) to their value, clamped into
    the sandwich; the second group moves only last_weight of the way.
    Returns the most negative and the most positive clamped move (0.0 when
    none is).
    """
    moves = []
    for weight, (st, lo, hi) in zip((1.0, last_weight), groups):
        s, _, t = _moves(flat, st, problem, mode)
        # np.minimum/np.maximum: the same values as np.clip, at half its call cost
        c = np.minimum(np.maximum(s + t, lo), hi)
        diff = c - s
        flat[st.idx] = c if weight == 1.0 else s + weight * diff
        moves.append(diff)
    moves = np.concatenate(moves)
    return float(moves.min(initial=0.0)), float(moves.max(initial=0.0))


# ---------------------------------------------------------------------------
# monotone Newton solve of the trace crossing

# below this fraction of the full Newton step the iteration takes a crossing
# sweep instead: the shortened step stalls next to nodes on the cone boundary
_MIN_NEWTON_STEP = 1e-2

# a Newton run ends, unconverged, after this many iterations in a row whose
# scaled margin set no new minimum: it creeps at the rounding floor
_NEWTON_STALL = 8


def _newton_applies(problem: DirichletProblem, mode: str) -> bool:
    return (
        mode == "trace"
        and problem.F.kind == "quad_const"
        and bool(np.isfinite(problem.sub.values).all())
    )


def _solve_tridiagonal(lower: np.ndarray, upper: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """x with x[i] + lower[i] x[i-1] + upper[i] x[i+1] = rhs[i] (Thomas algorithm).

    lower[0] and upper[-1] multiply nothing.  A vanishing pivot yields NaN.
    """
    lo, up, r = lower.tolist(), upper.tolist(), rhs.tolist()
    n = len(r)
    ratio = [0.0] * n
    x = [0.0] * n
    c = y = 0.0
    for i in range(n):
        pivot = 1.0 - lo[i] * c
        if pivot == 0.0:
            return np.full(n, np.nan)
        c = up[i] / pivot
        y = (r[i] - lo[i] * y) / pivot
        ratio[i] = c
        x[i] = y
    for i in range(n - 2, -1, -1):
        x[i] -= ratio[i] * x[i + 1]
    return np.array(x)


# GMRES restarts from the true residual while |G'(u) d + g|_2 > _KRYLOV_TOL
# |d|_2 (a backward error of about 4.5 rounding units, above the floor a
# float64 d sets: about 2.5e-16 at every grid size from 17^2 to 513^2), in
# windows of _KRYLOV_WINDOW iterations, _KRYLOV_CAP in all
_KRYLOV_TOL = 1e-15
_KRYLOV_WINDOW = 20
_KRYLOV_CAP = 60


def _dst1(x: np.ndarray) -> np.ndarray:
    """DST-I along the last axis: sum_j x_j sin(pi j k / (m + 1)), j, k = 1..m.

    The rfft of the odd extension (0, x, 0, -reversed x) has -2 times it as
    its imaginary part.  Applied twice it is (m + 1) / 2 times the identity.
    """
    m = x.shape[-1]
    ext = np.zeros(x.shape[:-1] + (2 * m + 2,))
    ext[..., 1 : m + 1] = x
    ext[..., m + 2 :] = -x[..., ::-1]
    return -0.5 * np.fft.rfft(ext)[..., 1 : m + 1].imag


def _gmres(apply, precondition, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(x, r = b - apply(x)) for apply(x) = b: restarted GMRES (Saad & Schultz 1986).

    Right-preconditioned; apply and precondition map arrays shaped like b.
    Arnoldi runs on flat vectors with classical Gram-Schmidt done twice, and
    Givens rotations track the residual norm.  A window ends once that
    estimate drops below _KRYLOV_TOL max(|x|_2, |M^-1 b|_2), after
    _KRYLOV_WINDOW iterations, or when the Krylov space closes; x then takes
    its correction and r is formed.  Windows restart from r while |r|_2 >
    _KRYLOV_TOL |x|_2, within _KRYLOV_CAP iterations; the caller charges r.
    x and r are NaN only on a zero pivot.
    """
    shape = b.shape
    x, r = np.zeros(b.size), b.ravel()
    iterations = 0
    while iterations < _KRYLOV_CAP:
        beta = float(np.linalg.norm(r))
        size = min(_KRYLOV_WINDOW, _KRYLOV_CAP - iterations)
        basis = np.empty((size + 1, b.size))
        basis[0] = r / beta
        tri = np.zeros((size, size))
        rotations, rhs = [], [beta]
        for j in range(size):
            z = precondition(basis[j].reshape(shape))
            if j == 0:
                scale = max(float(np.linalg.norm(x)), beta * float(np.linalg.norm(z)))
            w = apply(z).ravel()
            h = basis[: j + 1] @ w
            w -= h @ basis[: j + 1]
            again = basis[: j + 1] @ w
            w -= again @ basis[: j + 1]
            col = (h + again).tolist()
            sub = float(np.linalg.norm(w))
            for i, (c, s) in enumerate(rotations):
                col[i], col[i + 1] = c * col[i] + s * col[i + 1], c * col[i + 1] - s * col[i]
            diag = math.hypot(col[j], sub)
            if diag == 0.0:
                return np.full(shape, np.nan), np.full(shape, np.nan)
            c, s = col[j] / diag, sub / diag
            col[j] = diag
            tri[: j + 1, j] = col
            rotations.append((c, s))
            rhs.append(-s * rhs[j])
            rhs[j] *= c
            if abs(rhs[-1]) <= _KRYLOV_TOL * scale or sub == 0.0:
                break
            basis[j + 1] = w / sub
        k = len(rotations)
        iterations += k
        y = np.linalg.solve(tri[:k, :k], rhs[:k])
        x += precondition((y @ basis[:k]).reshape(shape)).ravel()
        r = b.ravel() - apply(x.reshape(shape)).ravel()
        if np.linalg.norm(r) <= _KRYLOV_TOL * np.linalg.norm(x):
            break
    return x.reshape(shape), r.reshape(shape)


class _TraceCrossing:
    """G(u) = -(trace-cone move) on the interior of an unmasked grid, quadratic F.

    One stencil group holds every interior node, and G is minus _moves on
    it, bit for bit: -tr(H + L) / S, grid_verify's trace margin over
    S = sum_a 2 w_a with w_a = 1 / h_a^2.  So G >= 0 marks a discrete
    supersolution and G <= 0 a subsolution.  For the quadratic operators
    tr L = b |p|^2 with b = alpha - n beta, and the radial tangent entries
    add a p_0 to tr H with a = (n - 1) / r (0 off radial grids): the
    Jacobian and the damped step read these, the weights w_a / S and the
    slopes p of the shared jet.  residual(u) also linearizes G at u from
    the slopes of its own jet: newton_direction and jacobian read that
    G'(u), x + sum_a (lower_a x_-a + upper_a x_+a).
    """

    def __init__(self, problem: DirichletProblem):
        g = problem.sub
        amb = problem.matrix_dim
        self.problem = problem
        self.group = _Stencil(g, np.flatnonzero(problem.interior_mask.ravel()), amb, False)
        self.shape = tuple(size - 2 for size in g.shape)
        self.h = g.h
        total = _margin_slope(problem)
        self.weight = [1.0 / (h * h) / total for h in g.h]
        # 1 / S as (w_0 / S) h_0^2: in 1D the factor is 0.5 h^2 bit for bit
        self.scale = self.weight[0] * g.h[0] * g.h[0]
        self.b = problem.F.alpha - amb * problem.F.beta
        self.a = 0.0 if self.group.radii is None else (amb - 1.0) / self.group.radii
        self.inner = (slice(1, -1),) * g.dim
        if g.dim == 2:
            # the k = 0 part x - sum_a (w_a / S)(x_-a + x_+a) of G'(u) has the
            # DST-I eigenvalues 1 - sum_a 2 (w_a / S) cos(pi j_a / (m_a + 1)),
            # and 2 / (m_a + 1) per axis undoes the two DST-I passes
            (m0, m1), (w0, w1) = self.shape, self.weight
            c0, c1 = (np.cos(np.pi * np.arange(1, m + 1) / (m + 1)) for m in self.shape)
            eig = 1.0 - 2.0 * w0 * c0[:, None] - 2.0 * w1 * c1
            self.inv_eig = 4.0 / ((m0 + 1) * (m1 + 1)) / eig

    def slopes(self, u: np.ndarray) -> list[np.ndarray]:
        """The centered gradient on the interior, one array per grid axis."""
        p = self.group.jet(u.ravel())[1]
        return [p[:, ax].reshape(self.shape) for ax in range(len(self.h))]

    def residual(self, u: np.ndarray) -> np.ndarray:
        _, p, t = _moves(u.ravel(), self.group, self.problem, "trace")
        self.lower, self.upper = [], []
        for ax, (h, wt) in enumerate(zip(self.h, self.weight)):
            # (w_a / S) / (2 h_a) = 1 / (2 h_a S), which is 0.25 h in 1D
            pa = p[:, ax].reshape(self.shape)
            k = 0.5 * h * wt * ((self.a if ax == 0 else 0.0) + 2.0 * self.b * pa)
            self.lower.append(k - wt)
            self.upper.append(-wt - k)
        return -t.reshape(self.shape)

    def newton_direction(self, u: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray | float]:
        """(d, e): G'(u) d ~ -g on the interior, d = 0 on the grid edge, e = G'(u) d + g.

        u is the field of the last residual call.  The Thomas algorithm solves
        the 1D system (e counts as 0.0); in 2D, GMRES preconditioned by the
        DST-I inverse of G'(u)'s k = 0 part gives e = -r.  NaN on a zero pivot.
        """
        d = np.zeros_like(u)
        if u.ndim == 1:
            d[self.inner] = _solve_tridiagonal(self.lower[0], self.upper[0], -g)
            return d, 0.0
        d[self.inner], r = _gmres(self.jacobian, self.precondition, -g)
        return d, -r

    def jacobian(self, x: np.ndarray) -> np.ndarray:
        """G'(u) x for x on the 2D interior, zero beyond it."""
        pad = np.zeros(tuple(m + 2 for m in x.shape))
        pad[self.inner] = x
        (lo0, lo1), (up0, up1) = self.lower, self.upper
        return (x + lo0 * pad[:-2, 1:-1] + up0 * pad[2:, 1:-1]
                + lo1 * pad[1:-1, :-2] + up1 * pad[1:-1, 2:])

    def precondition(self, r: np.ndarray) -> np.ndarray:
        """The inverse of x - sum_a (w_a / S)(x_-a + x_+a), applied to r."""
        x = _dst1(_dst1(r).T).T * self.inv_eig
        return _dst1(_dst1(x).T).T

    def damped_step(self, d: np.ndarray, slack: np.ndarray, err=0.0) -> float:
        """_shortened_step with the quadratic term |b| |p(d)|^2 / S of the damped side."""
        return _shortened_step(slack, err, self.scale * abs(self.b) * sum(pa * pa for pa in self.slopes(d)))


def _shortened_step(slack: np.ndarray, err, quad) -> float:
    """Largest t in [0, 1] with (1 - t) slack / 2 >= t err + quad t^2 at every node.

    slack is the margin on the run's own side, s G(u) >= 0, err what the
    error e = G'(u) d + G(u) of an inexact direction takes off it, and quad
    what the quadratic term takes.  Along d, s G(u + t d) = (1 - t) slack
    + t s e - s b t^2 |p(d)|^2 / S exactly, so with err >= -s e and quad >=
    s b |p(d)|^2 / S the step keeps at least half of every node's slack.
    """
    half = 0.5 * slack
    lin = half + err
    root = lin + np.sqrt(lin * lin + 4.0 * quad * half)
    steep = (quad > 0.0) | (err > 0.0)
    t = np.where(steep, 2.0 * half / np.where(root > 0.0, root, 1.0), 1.0)
    return float(min(1.0, t.min(initial=1.0)))


def _newton_trace(
    problem: DirichletProblem, cfg: SolverConfig, u: np.ndarray, ascending: bool
) -> tuple[int, bool, bool, float, str]:
    """Monotone Newton iterations on u in place.

    Returns (iterations, converged, monotone, last move, path).  Each
    iteration checks the largest margin against cfg.tol and, if it is
    larger, takes one step: the closed-form shortened Newton step, which is
    the full step unless the direction's error, or on the damped side (s b >
    0, s = +1 descending, -1 ascending) the quadratic term, would leave the
    run's side; or one crossing sweep whose last group moves halfway, when
    that step is shorter than _MIN_NEWTON_STEP or the Jacobian solve breaks
    down (a damped run with a zero-slack node sweeps without solving); path is
    "newton+sweep" once such a sweep ran.
    Every step is clamped into the sandwich.  A step that moves no node is a
    fixed point (every later step repeats it), so the run ends there,
    unconverged; so does a run whose scaled margin sets no new minimum for
    _NEWTON_STALL iterations in a row (a fallback sweep restarts that count).
    """
    tc = _TraceCrossing(problem)
    lo = problem.sub.values
    hi = problem.sup.values
    side = -1.0 if ascending else 1.0
    damped = side * tc.b > 0.0
    scoef = _margin_slope(problem)
    groups = None
    swept = False
    iterations, converged, monotone, last = 0, False, True, 0.0
    best, stalled = math.inf, 0
    while iterations < cfg.max_sweeps:
        iterations += 1
        g = tc.residual(u)
        margin = float(np.abs(g).max()) * scoef
        if margin <= cfg.tol:
            converged = True
            break
        if margin < best:
            best, stalled = margin, 0
        else:
            stalled += 1
            if stalled >= _NEWTON_STALL:
                break
        if damped and np.any(side * g <= 0.0):
            # a node with zero slack admits no shortened step: sweep unsolved
            t = 0.0
        else:
            # G(u + t d) = (1 - t) g + t e - b t^2 |p(d)|^2 / S with e = G'(u) d + g
            # the Krylov solve's error (the 1D Thomas solve counts as exact).  e
            # off the run's side within eps max|u|, what writing the field rounds
            # G by, is let pass; the step is charged for the rest, and for the
            # quadratic term on the damped side only
            d, e = tc.newton_direction(u, g)
            err = np.maximum(-side * e - np.finfo(float).eps * np.abs(u).max(), 0.0)
            slack = np.maximum(side * g, 0.0)
            t = tc.damped_step(d, slack, err) if damped else _shortened_step(slack, err, 0.0)
        if t >= _MIN_NEWTON_STEP and np.isfinite(d).all():
            new = np.clip(u + t * d, lo, hi)
        else:
            groups = groups or _make_groups(problem, "trace")
            new = u.copy()
            _sweep(new.reshape(-1), groups, problem, "trace", 0.5)
            swept, stalled = True, 0
        move = new - u
        if ascending:
            if move.min() < -_MONOTONE_SLACK:
                monotone = False
        elif move.max() > _MONOTONE_SLACK:
            monotone = False
        last = float(np.abs(move).max())
        if last == 0.0:
            break
        u[:] = new
    return iterations, converged, monotone, last, "newton+sweep" if swept else "newton"


@dataclass(frozen=True)
class PerronResult:
    """One solver run: the final field plus convergence bookkeeping.

    sweeps counts crossing sweeps, or Newton iterations on the Newton path;
    last_update is the largest nodal move of the last step taken.  path
    names what the run did: "newton" (Newton steps only), "newton+sweep"
    (Newton iterations of which at least one fell back to a crossing
    sweep) or "sweep" (the crossing-sweep engine).
    """

    u: GridFn
    sweeps: int
    converged: bool
    monotone_ok: bool
    sandwich_ok: bool
    last_update: float
    residual: GridVerifyReport
    path: str

    @property
    def solved(self) -> bool:
        return self.converged and self.residual.consistent_solution


def perron_solve(
    problem: DirichletProblem,
    cfg: SolverConfig,
    *,
    direction: str = "descending",
    start: GridFn | None = None,
) -> PerronResult:
    """Monotone iteration from the upper field (or lower, ascending).

    With the trace cone (or posdef on a 1D interval, the same cone there), a
    constant-coefficient quadratic operator (the conformal one among them) and
    no masked nodes, on a 1D, radial or 2D grid, the run takes monotone Newton
    steps (module docstring): each solves the Jacobian system, tridiagonal in
    1D and by DST-preconditioned GMRES in 2D, and `sweeps` counts Newton
    iterations; it stops once the largest margin falls below cfg.tol.
    Everywhere else each red-black sweep replaces every interior node by the
    cone-boundary crossing of its discrete jet, clamped into [sub, sup], and
    the run stops once the largest move, scaled by the margin slope, falls
    below cfg.tol.  The result's path names which of the two ran, and whether
    a Newton run fell back to a sweep.  Either way monotone_ok records whether
    every nodal move went the run's way within _MONOTONE_SLACK, and the
    residual report then re-classifies every interior node with the same
    centered stencils.
    """
    if direction not in ("descending", "ascending"):
        raise ValueError("direction must be 'descending' or 'ascending'")
    amb = problem.matrix_dim
    mode = _crossing_mode(problem.U, amb)
    if start is None:
        base = problem.sup if direction == "descending" else problem.sub
        u = base.values.copy()
    else:
        if start.box != problem.sub.box or start.shape != problem.sub.shape:
            raise ValueError("start must share the problem grid")
        fin = np.isfinite(problem.sub.values)
        vals = start.values
        if not np.array_equal(np.isfinite(vals), fin):
            raise ValueError("start must mask the same nodes as the sandwich")
        below = vals[fin] < problem.sub.values[fin] - 1e-12
        above = vals[fin] > problem.sup.values[fin] + 1e-12
        if below.any() or above.any():
            raise ValueError("start must lie inside the sandwich")
        u = np.clip(vals, problem.sub.values, problem.sup.values)

    ascending = direction == "ascending"
    if _newton_applies(problem, mode):
        sweeps, converged, monotone, last, path = _newton_trace(problem, cfg, u, ascending)
    else:
        path = "sweep"
        flat = u.ravel()
        scoef = _margin_slope(problem)
        groups = _make_groups(problem, mode)
        monotone, converged, last, sweeps = True, False, math.inf, 0
        while sweeps < cfg.max_sweeps:
            down, up = _sweep(flat, groups, problem, mode)
            if (-down if ascending else up) > _MONOTONE_SLACK:
                monotone = False
            sweeps += 1
            last = max(up, -down)
            if last * scoef <= cfg.tol:
                converged = True
                break

    fin = np.isfinite(problem.sub.values)
    sandwich = bool(
        np.all(u[fin] >= problem.sub.values[fin] - 1e-12)
        and np.all(u[fin] <= problem.sup.values[fin] + 1e-12)
    )
    out = GridFn(problem.sub.box, u)
    residual = grid_verify(
        out, problem.F, problem.U, tol=cfg.tol, ambient_n=problem.ambient_n
    )
    return PerronResult(
        u=out,
        sweeps=sweeps,
        converged=converged,
        monotone_ok=monotone,
        sandwich_ok=sandwich,
        last_update=last,
        residual=residual,
        path=path,
    )


# ---------------------------------------------------------------------------
# experiments on top of the solver


@dataclass(frozen=True)
class UniquenessReport:
    """Sup-distance between solver runs started from different fields."""

    verdict: str  # pass | fail | inconclusive
    max_distance: float
    runs: tuple[PerronResult, ...]

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"


def uniqueness_experiment(
    problem: DirichletProblem,
    cfg: SolverConfig,
    inits: Sequence[GridFn] = (),
) -> UniquenessReport:
    """Descend from the top, ascend from the bottom, descend from each init.

    All converged runs should land on the same field; the report carries the
    maximum pairwise sup-distance and passes at 10 * cfg.tol.  Any run that
    does not converge (it exhausts max_sweeps, or a Newton run stalls) makes
    the experiment inconclusive.
    """
    runs = [
        perron_solve(problem, cfg, direction="descending"),
        perron_solve(problem, cfg, direction="ascending"),
    ]
    for init in inits:
        runs.append(perron_solve(problem, cfg, direction="descending", start=init))
    fin = np.isfinite(problem.sub.values)
    if not all(r.converged for r in runs):
        return UniquenessReport("inconclusive", math.nan, tuple(runs))
    dist = 0.0
    for i in range(len(runs)):
        for j in range(i + 1, len(runs)):
            d = float(np.abs(runs[i].u.values[fin] - runs[j].u.values[fin]).max())
            dist = max(dist, d)
    verdict = "pass" if dist <= 10.0 * cfg.tol else "fail"
    return UniquenessReport(verdict, dist, tuple(runs))


@dataclass(frozen=True)
class TranslationBoundReport:
    """Interior gradient bound against a near-boundary band."""

    interior_max: float
    band_max: float
    slack: float

    @property
    def ok(self) -> bool:
        return self.interior_max <= self.band_max + self.slack


def translation_gradient_bound(psi: GridFn, band: np.ndarray) -> TranslationBoundReport:
    """Check max interior |grad| <= max over the band, with slack h_max.

    band marks the near-boundary nodes expected to carry the largest
    gradient; it must intersect the interior, since gradients are formed
    from centered differences at interior nodes only.
    """
    band = np.asarray(band, dtype=bool)
    if band.shape != psi.shape:
        raise ValueError("band mask must match the grid shape")
    fin = np.isfinite(psi.values)
    interior, _ = _node_roles(fin)
    if not (band & interior).any():
        raise ValueError("band does not intersect the interior")
    idx = np.flatnonzero(interior.ravel())
    p = _Stencil(psi, idx, psi.dim, False).jet(psi.values.ravel())[1]
    mag = np.sqrt((p * p).sum(axis=1))
    interior_max = float(mag.max())
    band_max = float(mag[band.ravel()[idx]].max())
    return TranslationBoundReport(interior_max, band_max, max(psi.h))


# a node's role by boundary + 2 * interior: neither (masked), boundary, interior
_ROLE_NAMES = np.array(["MASKED", "FIXED", "SKIPPED"], dtype=object)


def solution_csv(result: PerronResult, problem: DirichletProblem) -> str:
    """Rows `node,x[,y],u,residual_class` over every grid node.

    A checked node carries its verifier class; the rest are FIXED (Dirichlet
    data), MASKED, or SKIPPED (interior, but its stencil is not finite).
    """
    roles = _ROLE_NAMES[problem.boundary_mask + 2 * problem.interior_mask].ravel()
    rows = result.residual.rows
    roles[rows["node_index"]] = _CLASS_NAMES[rows["cls"]]
    return _node_table(problem.sub, ("u", "%.12g", result.u.values),
                       ("residual_class", "%s", roles), numbered=True)


# ---------------------------------------------------------------------------
# reference problems with known exact solutions


def radial_sandwich_problem(npts: int, *, n: int = 3) -> tuple[DirichletProblem, np.ndarray]:
    """Radial annulus 1/2 <= r <= 1 with the singular-log solution and a quadratic sandwich.

    The exact field ln(r^(2-n) + 1) solves the trace equation of the
    gradient-square operator; adding +-(r - 1/2)(1 - r)/4 gives a strict
    super/subsolution pair agreeing with it on the rim.  Returns the problem
    and the exact nodal values.
    """
    rs = np.linspace(0.5, 1.0, npts)
    exact = np.log(rs ** (2.0 - n) + 1.0)
    bump = 0.25 * (rs - 0.5) * (1.0 - rs)
    problem = DirichletProblem(
        F=OperatorSpec.quad_const(1.0, 0.0),
        U=ConeSpec("trace"),
        sub=GridFn(((0.5, 1.0),), exact - bump),
        sup=GridFn(((0.5, 1.0),), exact + bump),
        ambient_n=n,
    )
    return problem, exact


def box_sandwich_problem(npts: int) -> tuple[DirichletProblem, np.ndarray]:
    """Box [0.55, 0.95]^2 with the exact field ln(1 - ln r) and a product-bump sandwich.

    exp of the field is log-harmonic, so the trace equation of the
    gradient-square operator holds exactly; the bump
    2 (x - 0.55)(0.95 - x)(y - 0.55)(0.95 - y) vanishes on the box edge and
    keeps the sandwich strict inside.
    """
    xs = np.linspace(0.55, 0.95, npts)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    R = np.hypot(X, Y)
    exact = np.log(1.0 - np.log(R))
    bump = 2.0 * (X - 0.55) * (0.95 - X) * (Y - 0.55) * (0.95 - Y)
    box = ((0.55, 0.95), (0.55, 0.95))
    problem = DirichletProblem(
        F=OperatorSpec.quad_const(1.0, 0.0),
        U=ConeSpec.gamma(1),
        sub=GridFn(box, exact - bump),
        sup=GridFn(box, exact + bump),
        ambient_n=2,
    )
    return problem, exact
