"""Sub/supersolution verification at jet and grid level, plus experiments.

Grid-level checks test the centered-difference jet at each interior node.
Those jets are one family of candidate touching quadratics, so a clean run
means the sample is *consistent with* the claimed signature; nothing here
certifies a viscosity property on a finite grid.  On top of that sit the
value-monotone jet perturbations that strictify the cone inequality, the
penalized error bound for envelope regularizations, the propagation of
touching points, and the moving-sphere comparison.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .envelopes import GridFn, _boundary_mask, _format_rows, lower_envelope, upper_envelope
from .matcone import (
    ConeClass,
    ConeSpec,
    SymMatrix,
    _check_tol,
    _margin_class,
    _sym_eigvals,
    _symmetrized,
    classify,
    cone_margin,
)
from .operators import (
    FieldOracle,
    Jet2,
    OperatorSpec,
    _dot,
    _libm,
    _point_values,
    _sq_norm,
    eval_F,
    eval_L,
    kelvin,
    moving_sphere_radius,
    probe_L_conditions,
)

__all__ = [
    "PerturbationParams",
    "GridVerifyReport",
    "EnvelopeErrorReport",
    "TouchReport",
    "MovingSphereReport",
    "PROPAGATION_CONSISTENT",
    "PROPAGATION_VIOLATED",
    "jet_classify",
    "grid_verify",
    "first_variation_constants",
    "first_variation_tilde",
    "first_variation_hat",
    "envelope_error_check",
    "touching_experiment",
    "moving_sphere_check",
    "verify_rows_csv",
]


# ---------------------------------------------------------------------------
# jet-level classification


def jet_classify(j: Jet2, F: OperatorSpec, U: ConeSpec, tol: float = 1e-8):
    """Cone verdict and margin of F at a single jet."""
    return classify(eval_F(j, F), U, tol)


# ---------------------------------------------------------------------------
# discrete jets on grids


class _Stencil:
    """Centered-difference stencils at a set of nodes of one grid.

    idx holds flat row-major indices of nodes off the grid edge; the
    neighbour indices are formed once (idx -+ stride per axis and, on 2D
    grids unless mixed is unset, the four diagonal ones).  x holds the
    ambient positions, r e_1 on a 1D grid read as a radial profile in n >= 2
    dimensions (radii holds r then, None otherwise); center holds 2 / h_a^2,
    the drop of each second difference per unit rise of the center value.
    """

    def __init__(self, g: GridFn, idx: np.ndarray, n: int, mixed: bool = True):
        self.idx = idx
        self.h = g.h
        self.center = tuple(2.0 / (h * h) for h in g.h)
        strides = (1,) if g.dim == 1 else (g.shape[1], 1)
        self.nbrs = [(idx - st, idx + st) for st in strides]
        # offsets (1, 1), (1, -1), (-1, 1), (-1, -1)
        w, e = self.nbrs[0]
        self.corners = (e + 1, e - 1, w + 1, w - 1) if g.dim == 2 and mixed else None
        coords = g.node_coords()[idx]
        self.x = np.zeros((idx.size, n))
        self.x[:, : g.dim] = coords
        self.radii = coords[:, 0] if g.dim == 1 and n >= 2 else None

    def jet(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(s, p, H) of the flat field u at the nodes, (m,), (m, n), (m, n, n).

        p and diag H are the centered first and second differences, the
        radial tangent entries of H are p_0 / r, and the 2D cross difference
        fills H_01 (zero when mixed is unset).  The one place conedeg forms a
        discrete jet: the verifier classifies it, the solver iterates on it.
        """
        m, n = self.x.shape
        s = u[self.idx]
        twice = 2.0 * s
        p = np.zeros((m, n))
        H = np.zeros((m, n, n))
        for a, ((lo, hi), h) in enumerate(zip(self.nbrs, self.h)):
            lo, hi = u[lo], u[hi]
            p[:, a] = (hi - lo) / (2.0 * h)
            H[:, a, a] = (hi - twice + lo) / (h * h)
        if self.radii is not None:
            tangent = p[:, 0] / self.radii
            for a in range(1, n):
                H[:, a, a] = tangent
        if self.corners is not None:
            pp, pm, mp, mm = (u[c] for c in self.corners)
            hx, hy = self.h
            H[:, 0, 1] = H[:, 1, 0] = (pp - pm - mp + mm) / (4.0 * hx * hy)
        return s, p, H


def _ambient_dim(g: GridFn, ambient_n: int | None) -> int:
    """Matrix dimension of the jets of g: g.dim unless ambient_n is given.

    A 1D grid with ambient_n >= 2 is a radial profile psi(r) in that many
    dimensions (radii > 0); a 2D grid carries 2D jets.
    """
    n_amb = g.dim if ambient_n is None else int(ambient_n)
    if g.dim == 2 and n_amb != 2:
        raise ValueError("2D grids carry 2D jets; ambient_n must be 2 or omitted")
    if n_amb < 1:
        raise ValueError("ambient_n must be >= 1")
    if g.dim == 1 and n_amb > 1 and g.box[0][0] <= 0.0:
        raise ValueError("radial interpretation needs radii > 0")
    return n_amb


def _interior_jets(g: GridFn, ambient_n: int | None):
    """Centered-difference jets at every interior node, stacked.

    Returns (nodes, ok, x, s, p, H): the flat row-major index of every
    interior node, a mask of those whose stencil is all finite, and their
    jets, shaped (m, n), (m,), (m, n), (m, n, n), n = _ambient_dim.
    """
    n_amb = _ambient_dim(g, ambient_n)
    nodes = np.flatnonzero(~_boundary_mask(g.shape))
    center = np.array(np.unravel_index(nodes, g.shape))
    fin = np.isfinite(g.values)
    ok = np.ones(nodes.shape, dtype=bool)
    for offset in itertools.product((-1, 0, 1), repeat=g.dim):
        ok &= fin[tuple(center + np.array(offset)[:, None])]
    st = _Stencil(g, nodes[ok], n_amb)
    return (nodes, ok, st.x, *st.jet(g.values.ravel()))


_VERDICT_ROW = np.dtype([("node_index", np.int64), ("cls", np.int8), ("margin", np.float64)])
_CLASS_NAMES = np.array([c.name for c in ConeClass], dtype=object)  # by ConeClass value


@dataclass
class GridVerifyReport:
    """Per-node cone verdicts for a grid-sampled function.

    rows is a _VERDICT_ROW structured array, one row per checked node in
    ascending order: node_index, cls (a ConeClass value) and margin, classed
    against the effective tolerance of grid_verify.  skipped lists the
    interior nodes with a non-finite stencil.  Read off the rows: counts,
    sub_failures (OUTSIDE: F leaves the closed cone, against a subsolution)
    and super_failures (INTERIOR: F lies inside, against a supersolution).
    """

    rows: np.ndarray
    skipped: list[int]

    @property
    def counts(self) -> dict[str, int]:
        tally = np.bincount(self.rows["cls"], minlength=len(ConeClass)).tolist()
        return {c.name: tally[c.value] for c in ConeClass}

    @property
    def sub_failures(self) -> list[int]:
        return self.rows["node_index"][self.rows["cls"] == ConeClass.OUTSIDE.value].tolist()

    @property
    def super_failures(self) -> list[int]:
        return self.rows["node_index"][self.rows["cls"] == ConeClass.INTERIOR.value].tolist()

    @property
    def consistent_sub(self) -> bool:
        return not self.sub_failures

    @property
    def consistent_super(self) -> bool:
        return not self.super_failures

    @property
    def consistent_solution(self) -> bool:
        return self.consistent_sub and self.consistent_super


def _effective_tol(g: GridFn, tol: float) -> float:
    """tol + 4 h^2, h the largest grid step: the verifiers' tolerance, which
    absorbs the truncation error of the centered stencil on fields with
    bounded fourth derivatives."""
    heff = max(g.h)
    return tol + 4.0 * heff * heff


def grid_verify(
    psi: GridFn,
    F: OperatorSpec,
    U: ConeSpec,
    tol: float = 1e-6,
    *,
    ambient_n: int | None = None,
) -> GridVerifyReport:
    """Classify the discrete F at every interior node of a sampled function,
    against the effective tolerance tol + 4 h^2 (_effective_tol)."""
    _check_tol(tol)
    tol_eff = _effective_tol(psi, tol)
    nodes, ok, x, s, p, H = _interior_jets(psi, ambient_n)
    margins = cone_margin(_sym_eigvals(H + eval_L(F, x, s, p)), U)
    rows = np.empty(margins.size, _VERDICT_ROW)
    rows["node_index"], rows["cls"], rows["margin"] = nodes[ok], _margin_class(margins, tol_eff), margins
    return GridVerifyReport(rows, nodes[~ok].tolist())


def verify_rows_csv(report: GridVerifyReport) -> str:
    """node_index,class,margin: one "%d,%s,%.12g" row per checked node."""
    rows = report.rows
    return _format_rows("%d,%s,%.12g", rows["node_index"], _CLASS_NAMES[rows["cls"]], rows["margin"],
                        header="node_index,class,margin")


# ---------------------------------------------------------------------------
# value-monotone perturbations


@dataclass(frozen=True)
class PerturbationParams:
    """Constants for the jet perturbations along e^{alpha|x|^2} + e^{-beta s}.

    The normalization mu * beta * e^{beta M} <= 1/2 keeps the base-term
    weight 1 -+ mu beta e^{-beta s} inside [1/2, 3/2] on the working band
    |s| <= M, which is what lets the gradient rescaling stay in the regime
    the structural conditions cover.
    """

    mu: float
    tau: float
    alpha: float
    beta: float
    delta: float
    K0: float
    m: float
    M: float

    def __post_init__(self) -> None:
        for name in ("mu", "alpha", "beta", "delta", "K0"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.m > 1.0:
            raise ValueError("m must exceed 1")
        if not self.M > 0.0:
            raise ValueError("M must be positive")
        if self.mu * self.beta * math.exp(self.beta * self.M) > 0.5 * (1.0 + 1e-12):
            raise ValueError("normalization mu * beta * e^{beta M} <= 1/2 violated")


def _dyadic(x: float, rounding=math.floor) -> float:
    """2^rounding(log2 x): the largest power of two <= x, or with math.ceil
    the smallest >= x."""
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError("need a positive finite bound")
    return 2.0 ** rounding(math.log2(x))


def first_variation_constants(
    F: OperatorSpec,
    *,
    M: float,
    R: float,
    samples: int = 400,
) -> PerturbationParams:
    """Deterministic constant cascade for the perturbation inequalities.

    C is the dyadic ceiling of the probe-fitted structural constants (at
    least 2); each later constant is the largest dyadic value satisfying
    its bound on the working box |x| <= R, |s| <= M.  The weight size alpha
    is additionally capped so the coercivity headroom it consumes stays
    within the probe-fitted budget.  The tuple is a searched fixture with
    rounding slack, not a sharp set of constants.
    """
    if not (0.0 < M < math.inf and 0.0 < R < math.inf):
        raise ValueError("need positive finite working-box bounds M and R")
    mm = float(F.m)
    C = 2.0
    for _ in range(6):
        # the probe's R bounds the sampled values: the gap test's |s| <= M
        probe = probe_L_conditions(F, R=M, Lambda=8.0 * C, m=mm, samples=samples, seed=0)
        if not probe.all_ok():
            raise ValueError("operator fails the structural probes on the working box")
        fits = [
            res.fitted_C
            for res in (probe.grad_x_bound, probe.s_growth, probe.radial_coercive)
            if res.fitted_C is not None
        ]
        c_new = _dyadic(max([2.0, *fits]), math.ceil)
        if c_new == C:
            break
        C = c_new
    else:
        # the last probe ran at Lambda = 8 C for the previous C: its theta cap
        # does not hold for this one
        raise ValueError(f"the structural constant C did not settle within 6 probes (last fit {C:g})")
    beta = 2.0 * C
    inf_fp = beta * math.exp(-beta * M)  # weight f' = beta e^{-beta s} on |s| <= M
    try:
        sup_fp = beta * math.exp(beta * M)
    except OverflowError:
        raise ValueError(f"the weight bound beta e^(beta M) overflows for the value bound "
                         f"M = {M:g} (beta = {beta:g})") from None
    theta_caps = [
        res.fitted_theta_bar
        for res in (probe.radial_coercive, probe.radial_coercive_sup)
        if res.fitted_theta_bar is not None
    ]
    theta_cap = min(theta_caps) if theta_caps else None
    alpha = None
    for k in range(6, -200, -1):
        a = 2.0**k
        try:
            sup_phi = math.exp(a * R * R)
        except OverflowError:
            continue  # past the float range the bound below fails anyway
        if a * sup_phi * (1.0 / inf_fp + 1.0) > 1.0 / C:
            continue
        if theta_cap is not None and a * sup_phi / (8.0 * inf_fp) > theta_cap:
            continue
        alpha = a
        break
    if alpha is None:
        raise ValueError("no dyadic quadratic-weight size fits the cascade")
    delta = _dyadic(inf_fp / (2.0 * C))
    mu0 = _dyadic(min(0.5 / sup_fp, 1.0 / (C * (1.0 + sup_fp))))
    K0 = _dyadic(min(alpha, inf_fp / C, 0.5 * beta * inf_fp))
    return PerturbationParams(
        mu=mu0, tau=0.0, alpha=alpha, beta=beta, delta=delta, K0=K0, m=mm, M=M
    )


def _first_variation(
    x: np.ndarray, s: np.ndarray, p: np.ndarray, H: np.ndarray,
    P: PerturbationParams, F: OperatorSpec, sign: int,
):
    """Perturbed jets and gap matrices of a jet stack; sign=+1 raises, -1 lowers.

    x, s, p, H are (m, n), (m,), (m, n), (m, n, n).  Returns the perturbed
    (s, p, H) and the gaps, each row bitwise what a lone first_variation_tilde/_hat
    call gives it.  H is checked as SymMatrix.from_dense checks it; the perturbed
    Hessians and the gaps, symmetric by construction, are checked once, for
    finiteness.  ValueError if a check fails or a row leaves the working set.
    """
    H = _symmetrized(np.asarray(H, dtype=float))
    # exact chain-rule jet (g, dg, ddg) of e^{alpha|x|^2} + e^{-beta psi} - tau
    phi = _libm(math.exp, P.alpha * _sq_norm(x))
    es = _libm(math.exp, -P.beta * s)
    g = phi + es - P.tau
    if np.any((np.abs(s) > P.M) | (g < -P.delta)):
        raise ValueError("jet outside the working set (|s| <= M and profile >= -delta)")
    eye = np.eye(x.shape[-1])
    pp = p[:, :, None] * p[:, None, :]
    dg = (2.0 * P.alpha * phi)[:, None] * x - (P.beta * es)[:, None] * p
    ddg = (
        phi[:, None, None] * (2.0 * P.alpha * eye + 4.0 * P.alpha**2 * (x[:, :, None] * x[:, None, :]))
        - (P.beta * es)[:, None, None] * H
        + (P.beta**2 * es)[:, None, None] * pp
    )
    step = sign * P.mu
    s2, p2, H2 = s + step * g, p + step * dg, H + step * ddg
    # (1 -+ mu beta e^{-beta s}) F[j], F[perturbed] and mu K0 [(1 + |p|^m) I + p (x) p]
    scaled = (1.0 - step * P.beta * es)[:, None, None] * (H + eval_L(F, x, s, p))
    moved = H2 + eval_L(F, x, s2, p2)
    bonus = P.mu * P.K0 * ((1.0 + _libm(math.pow, np.sqrt(_sq_norm(p)), P.m))[:, None, None] * eye + pp)
    gap = moved - scaled - bonus if sign > 0 else scaled - bonus - moved
    # a non-finite entry of F[j] or F[perturbed] leaves its gap entry non-finite
    if not (np.isfinite(H2).all() and np.isfinite(gap).all()):
        raise ValueError("matrix entries must be finite")
    return s2, p2, H2, gap


def _one_jet(j: Jet2, P: PerturbationParams, F: OperatorSpec, sign: int):
    s, p, H, gap = _first_variation(j.x[None], np.array([j.s]), j.p[None], j.H.dense()[None], P, F, sign)
    return Jet2(j.x, s[0], p[0], SymMatrix(H[0])), SymMatrix(gap[0])


def first_variation_tilde(j: Jet2, P: PerturbationParams, F: OperatorSpec):
    """Upward perturbation of a jet and its strictified-inequality gap.

    Returns (perturbed jet, gap) where the perturbed jet is the exact jet
    of psi + mu (e^{alpha|x|^2} + e^{-beta psi} - tau) and

        gap = F[perturbed] - (1 - mu beta e^{-beta s}) F[j]
              - mu K0 [(1 + |p|^m) I + p (x) p].

    The claimed inequality holds at this jet iff the gap is PSD up to
    tolerance.  Raises when the jet leaves the working set.
    """
    return _one_jet(j, P, F, +1)


def first_variation_hat(j: Jet2, P: PerturbationParams, F: OperatorSpec):
    """Downward mirror of first_variation_tilde (sign-flipped inequality).

    gap = (1 + mu beta e^{-beta s}) F[j] - mu K0 [(1 + |p|^m) I + p (x) p]
          - F[perturbed], PSD iff the mirrored inequality holds here.
    """
    return _one_jet(j, P, F, -1)


# ---------------------------------------------------------------------------
# envelope regularization error


_ENVELOPE_ROW = np.dtype([("node_index", np.int64), ("displacement", np.float64), ("grad_norm", np.float64),
                          ("margin", np.float64), ("a_required", np.float64)])


@dataclass
class EnvelopeErrorReport:
    """Penalty fit of envelope_error_check.

    rows is an _ENVELOPE_ROW structured array, one row per checked node in
    ascending order: margin is the cone margin before any penalty, a_required
    the smallest workable penalty coefficient (inf if none).  skipped counts
    nodes with a non-finite stencil, edge_attained those whose envelope is
    attained at a boundary node.  Read off the rows: checked, violations
    (infinite a_required) and fitted_a (largest finite a_required, or 0.0).
    """

    skipped: int
    edge_attained: int
    rows: np.ndarray

    @property
    def checked(self) -> int:
        return len(self.rows)

    @property
    def violations(self) -> list[int]:
        return self.rows["node_index"][np.isinf(self.rows["a_required"])].tolist()

    @property
    def fitted_a(self) -> float:
        a_req = self.rows["a_required"]
        return float(a_req[np.isfinite(a_req)].max(initial=0.0))

    @property
    def ok(self) -> bool:
        return not self.violations


_A_CAP = 2.0**40


def envelope_error_check(
    w: GridFn,
    eps: float,
    F: OperatorSpec,
    U: ConeSpec,
    M: float,
    *,
    side: str = "super",
    tol: float = 1e-6,
    ambient_n: int | None = None,
) -> EnvelopeErrorReport:
    """Penalized cone check for an envelope-regularized function.

    side="super" regularizes from below (lower envelope) and requires

        F[w_eps](x) - a d (1 + d/eps) |grad w_eps(x)|^m I  to leave the cone

    at every resolved interior node, where d is the distance from x to the
    node attaining the envelope; side="sub" mirrors this with the upper
    envelope and the penalty added.  The smallest coefficient a feasible at
    all nodes simultaneously is fitted and reported.  a is empirical: only
    its boundedness as the grid refines carries meaning.

    Nodes whose envelope is attained at a grid-boundary node are skipped
    and counted (edge_attained): there the extremum transports no interior
    information and the clipped parabola carries curvature 2/eps with a
    vanishing gradient, which no gradient-weighted penalty can cover.
    """
    if side not in ("super", "sub"):
        raise ValueError("side must be 'super' or 'sub'")
    _check_tol(tol)
    finite = np.isfinite(w.values)
    if np.any(np.abs(w.values[finite]) > M):
        raise ValueError("amplitude bound violated: need |w| <= M")
    res = lower_envelope(w, eps) if side == "super" else upper_envelope(w, eps)
    tol_eff = _effective_tol(w, tol)
    nodes, ok, x, s, p, H = _interior_jets(res.env, ambient_n)
    argpt = res.argpt.ravel()
    edge = _boundary_mask(w.shape).ravel()[argpt[nodes[ok]]]
    idx = nodes[ok][~edge]
    x, s, p, H = x[~edge], s[~edge], p[~edge], H[~edge]
    coords = res.env.node_coords()
    dist = np.sqrt(_sq_norm(coords[argpt[idx]] - coords[idx]))
    pn = np.sqrt(_sq_norm(p))
    cof = dist * (1.0 + dist / eps) * _libm(math.pow, pn, F.m)
    lam = _sym_eigvals(H + eval_L(F, x, s, p))
    want_out = side == "super"

    # the smallest feasible penalty per node: doubling up to _A_CAP, then 60
    # bisection steps, all nodes at once
    def margin_at(a: np.ndarray, sel: np.ndarray) -> np.ndarray:
        return cone_margin(lam[sel] + ((-a) * cof[sel] if want_out else a * cof[sel])[:, None], U)

    def feasible(mg: np.ndarray) -> np.ndarray:
        return mg <= tol_eff if want_out else mg >= -tol_eff

    m0 = cone_margin(lam, U)
    search = ~feasible(m0) & (cof > 0.0)
    hi = np.ones(len(idx))
    grow = search.copy()
    while grow.any():
        grow[grow] = ~feasible(margin_at(hi[grow], grow))
        hi[grow] *= 2.0
        grow &= hi <= _A_CAP
    bisect = search & (hi <= _A_CAP)
    lo = np.zeros(len(idx))
    for _ in range(60):
        mid = 0.5 * (lo[bisect] + hi[bisect])
        good = feasible(margin_at(mid, bisect))
        hi[bisect] = np.where(good, mid, hi[bisect])
        lo[bisect] = np.where(good, lo[bisect], mid)
    rows = np.empty(len(idx), _ENVELOPE_ROW)
    rows["node_index"], rows["displacement"], rows["grad_norm"], rows["margin"] = idx, dist, pn, m0
    rows["a_required"] = np.where(feasible(m0), 0.0, np.where(bisect, hi, math.inf))
    return EnvelopeErrorReport(int(np.count_nonzero(~ok)), int(np.count_nonzero(edge)), rows)


# ---------------------------------------------------------------------------
# touching points


PROPAGATION_CONSISTENT = "PropagationConsistent"
PROPAGATION_VIOLATED = "PropagationViolated"


@dataclass
class TouchReport:
    """Connected components of the near-touching set {w - v <= tol}.

    The verdict is geometric: Violated iff w stays above v on the whole
    (unmasked) grid boundary yet some touching component never reaches it.
    Components use 2*dim-neighbor adjacency, flat row-major node indices.
    """

    components: list[list[int]] = field(default_factory=list)
    boundary_contact: list[bool] = field(default_factory=list)
    verdict: str = PROPAGATION_CONSISTENT
    boundary_gap: float = math.inf
    min_gap: float = math.inf

    @property
    def interior_only(self) -> int:
        return sum(1 for bc in self.boundary_contact if not bc)


def touching_experiment(w: GridFn, v: GridFn, tol: float) -> TouchReport:
    """Locate where an ordered pair nearly touches and judge propagation.

    Masked nodes (non-finite in either grid) are excluded from the touching
    set, the gap statistics, and the boundary test.  The verdict is a
    statement about the pair's geometry alone, so no operator or cone enters.
    """
    if w.box != v.box or w.shape != v.shape:
        raise ValueError("grids mismatched: w and v must share box and shape")
    _check_tol(tol)
    mask = np.isfinite(w.values) & np.isfinite(v.values)
    if not np.any(mask):
        raise ValueError("no unmasked nodes to compare")
    gap = np.where(mask, w.values - v.values, np.inf)
    if np.any(gap[mask] < -tol):
        raise ValueError("ordering violated: need w >= v - tol nodewise")
    shape = w.shape
    boundary = _boundary_mask(shape)
    report = TouchReport()
    report.min_gap = float(np.min(gap[mask]))
    if np.any(mask & boundary):
        report.boundary_gap = float(np.min(gap[mask & boundary]))
    touching = (mask & (gap <= tol)).ravel()
    labels = np.full(touching.shape, -1, dtype=np.int64)
    for start in np.flatnonzero(touching):
        if labels[start] >= 0:
            continue
        label = len(report.components)
        labels[start] = label
        stack = [int(start)]
        members: list[int] = []
        while stack:
            cur = stack.pop()
            members.append(cur)
            idx = np.unravel_index(cur, shape)
            for axis in range(len(shape)):
                for step in (-1, 1):
                    nb = list(idx)
                    nb[axis] += step
                    if not 0 <= nb[axis] < shape[axis]:
                        continue
                    flat = int(np.ravel_multi_index(nb, shape))
                    if touching[flat] and labels[flat] < 0:
                        labels[flat] = label
                        stack.append(flat)
        report.components.append(sorted(members))
        report.boundary_contact.append(bool(boundary.ravel()[members].any()))
    strictly_above_on_boundary = report.boundary_gap > tol
    if strictly_above_on_boundary and report.interior_only > 0:
        report.verdict = PROPAGATION_VIOLATED
    return report


# ---------------------------------------------------------------------------
# moving spheres


def _sphere_trial_row(n: int) -> np.dtype:
    """One moving-sphere trial in dimension n: the center, the radius, the
    three excesses and the verdict."""
    return np.dtype([("center", np.float64, (n,)), ("lam", np.float64),
                     ("max_excess", np.float64),  # max of (transformed - original) off the sphere
                     ("sphere_gap", np.float64),  # max |transformed - original| on the sphere itself
                     ("boundary_excess", np.float64),  # max of (transformed - inf u) on the outer shell
                     ("ok", np.bool_)])


@dataclass
class MovingSphereReport:
    """trials is a _sphere_trial_row(n) structured array, one row per
    (center, radius) pair in the order they were given."""

    n: int
    sup_u: float
    inf_u: float
    start_radius: float
    lipschitz_quotient: float
    tol: float
    trials: np.ndarray

    @property
    def all_ok(self) -> bool:
        return bool(self.trials.size) and bool(self.trials["ok"].all())


_SPHERE_DIRS = 48  # rays per (center, lam) trial
_SPHERE_SHELLS = 16  # points per ray, from the inversion sphere to the 3/4-ball's edge
_CLOUD = 2048  # uniform sample of the ball for sup u, inf u and the Lipschitz quotient
_PAIRS = 4096  # sample pairs for the Lipschitz quotient


def _unit_directions(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """count unit vectors, (count, n), from normal draws.

    A draw of norm <= 1e-8 is rejected and the deficit redrawn, in order, so
    the vectors and the RNG stream are those of one draw at a time.
    """
    dirs = np.empty((0, n))
    while len(dirs) < count:
        z = rng.normal(size=(count - len(dirs), n))
        nz = np.sqrt(_sq_norm(z))
        keep = nz > 1e-8
        dirs = np.concatenate([dirs, z[keep] / nz[keep, None]])
    return dirs


def _normalize_lambdas(xs: Sequence[np.ndarray], lambdas) -> list[list[float]]:
    if len(lambdas) == len(xs) and all(
        isinstance(ls, (list, tuple, np.ndarray)) for ls in lambdas
    ):
        return [[float(l) for l in ls] for ls in lambdas]
    flat = [float(l) for l in lambdas]
    return [list(flat) for _ in xs]


def moving_sphere_check(
    u: "FieldOracle | Callable[[np.ndarray], float]",
    n: int,
    xs: Sequence,
    lambdas,
    *,
    tol: float = 1e-8,
    seed: int = 0,
) -> MovingSphereReport:
    """Inversion comparison on the ball of radius 3/4.

    u is evaluated through its closed form (callable or oracle), keeping the
    check about the inequality itself rather than interpolation error.  For
    each admissible center x (|x| <= 1/2) and radius lam, the transformed
    function is compared with u on 16 radial shells along 48 random rays,
    from the inversion sphere out to the shell |y| = 3/4: it must not
    exceed u anywhere, must agree on the inversion sphere (the transform is
    the identity there), and must stay below inf u on the outer shell.
    lambdas is one list per center, or a single flat list reused for every
    center.  Also reports an empirical Lipschitz quotient of u over
    well-separated sample pairs.

    Each trial evaluates its whole (rays, shells, n) point stack at once: a
    FieldOracle sees one value call for the sample cloud and three per
    trial, a plain callable is called once per point.  The report is
    bitwise that of a point-by-point scan (the tests keep one).
    """
    if n < 3:
        raise ValueError("the inversion comparison needs n >= 3")
    _check_tol(tol)
    centers = [np.asarray(x, dtype=float) for x in xs]
    for x in centers:
        if x.shape != (n,):
            raise ValueError("centers must be n-vectors")
        if float(np.linalg.norm(x)) > 0.5 + 1e-12:
            raise ValueError("centers must lie in the closed half-radius ball")
    lam_lists = _normalize_lambdas(centers, lambdas)
    rng = np.random.default_rng(seed)
    dirs = _unit_directions(rng, n, _SPHERE_DIRS)
    outer = 0.75 * dirs  # the outer shell |y| = 3/4
    # sup/inf sample: origin, the outer shell (where radial profiles bottom
    # out), and a uniform cloud in the ball
    cloud_dirs = _unit_directions(rng, n, _CLOUD)
    radii = 0.75 * rng.random(_CLOUD) ** (1.0 / n)
    pts = np.concatenate([np.zeros((1, n)), outer, radii[:, None] * cloud_dirs])
    vals = _point_values(u, pts)
    if not np.all(np.isfinite(vals)) or np.min(vals) <= 0.0:
        raise ValueError("u must be positive and finite on the comparison ball")
    sup_u, inf_u = float(np.max(vals)), float(np.min(vals))
    R = moving_sphere_radius(sup_u, inf_u, n)
    i, k = rng.integers(0, len(pts), size=(_PAIRS, 2)).T
    dist = np.sqrt(_sq_norm(pts[i] - pts[k]))
    apart = dist >= 1e-3
    quot = float(np.max(np.abs(vals[i[apart]] - vals[k[apart]]) / dist[apart], initial=0.0))
    trials = np.empty(sum(map(len, lam_lists)), _sphere_trial_row(n))
    row = 0
    shells = np.arange(_SPHERE_SHELLS, dtype=float)
    for x, lams in zip(centers, lam_lists):
        b = _dot(dirs, x)
        reach = -b + np.sqrt(b * b + 0.5625 - float(x @ x))  # exit of the 3/4-ball
        clear = np.sqrt(_sq_norm(outer - x))
        for lam in lams:
            if lam <= 0.0:
                raise ValueError("lam must be positive")
            if lam > R * (1.0 + 1e-12):
                raise ValueError(f"lam={lam:g} exceeds the admissible start radius {R:g}")
            live = reach >= lam
            # np.linspace(lam, reach, _SPHERE_SHELLS) on each live ray
            rho = lam + shells * ((reach[live] - lam) / (_SPHERE_SHELLS - 1))[:, None]
            rho[:, -1] = reach[live]
            y = x + rho[..., None] * dirs[live, None, :]
            excess = kelvin(u, x, lam, y, n) - _point_values(u, y)
            rim = kelvin(u, x, lam, outer[live & (clear >= lam)], n) - inf_u
            # fmax skips a NaN, as max() does in the point-by-point scan
            max_excess = float(np.fmax.reduce(excess, axis=None, initial=-math.inf))
            sphere_gap = float(np.fmax.reduce(np.abs(excess[rho == lam]), initial=0.0))
            boundary_excess = float(np.fmax.reduce(rim, initial=-math.inf))
            ok = max_excess <= tol and sphere_gap <= tol and boundary_excess <= tol
            trials[row] = x, lam, max_excess, sphere_gap, boundary_excess, ok
            row += 1
    return MovingSphereReport(n, sup_u, inf_u, R, quot, tol, trials)
