"""Reference values the benchmark computes itself, and the checkers that use them.

Nothing here calls conedeg.  Each checker returns a list of problems (empty
when the output is right).  ``negative_controls`` feeds every checker a
deliberately wrong input and reports any checker that still passes, so a
check that accepts anything cannot go unnoticed.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

# ---------------------------------------------------------------------------
# closed forms of the two Dirichlet problems

RADIAL_BOX = (0.5, 1.0)   # annulus radii of `perron --problem annulus-psi1`
BOX_SIDE = (0.55, 0.95)   # square side of `perron --problem box-log`
TOL_SCALE = 0.15          # the CLI's default --tol-scale


def radial_exact(r: np.ndarray) -> np.ndarray:
    """ln(r^{2-n} + 1) at n = 3, the annulus solution."""
    return np.log(1.0 / r + 1.0)


def box_exact(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """ln(1 - ln r), the box solution."""
    return np.log(1.0 - np.log(np.hypot(x, y)))


def radial_nodes(npts: int) -> np.ndarray:
    return np.linspace(*RADIAL_BOX, npts)


def box_axis(npts: int) -> np.ndarray:
    return np.linspace(*BOX_SIDE, npts)


def spacing(side: tuple[float, float], npts: int) -> float:
    return (side[1] - side[0]) / (npts - 1)


# ---------------------------------------------------------------------------
# the certified quartics, coefficients and values derived by hand

# Q(t) = 8 P4(t) + 6561 with P4 = 64 t^4 + 324 alpha t^2 + 729 t at alpha = -3
BETA_SIGN_Q = (Fraction(512), Fraction(-7776), Fraction(5832), Fraction(6561))
BETA_SIGN_VALUES = {Fraction(-2): Fraction(-28015), Fraction(0): Fraction(6561),
                    Fraction(9, 4): Fraction(-6561), Fraction(1): Fraction(5129)}
# roots interlace the fences: t0 < -2 < t1 < 0 < t2 < 9/4 < t3
BETA_SIGN_FENCES = ((None, Fraction(-2)), (Fraction(-2), Fraction(0)),
                    (Fraction(0), Fraction(9, 4)), (Fraction(9, 4), None))

# Q(t) = 2 P4~(t) + 164025 with P4~ = 6400 t^4 + 32400 alpha t^2 + 729 t at alpha = -36/25
NONDEC_Q = (Fraction(12800), Fraction(-93312), Fraction(1458), Fraction(164025))
NONDEC_VALUES = {Fraction(-2): Fraction(-7339), Fraction(-8, 5): Fraction(167489, 25),
                 Fraction(0): Fraction(164025), Fraction(8, 5): Fraction(284129, 25),
                 Fraction(2): Fraction(-1507), Fraction(1): Fraction(84971)}
# t0 < -2 < t1 < -8/5 and 8/5 < t2 < 2 < t3
NONDEC_FENCES = ((None, Fraction(-2)), (Fraction(-2), Fraction(-8, 5)),
                 (Fraction(8, 5), Fraction(2)), (Fraction(2), None))


def quartic_value(coeffs, t: Fraction) -> Fraction:
    c4, c2, c1, c0 = coeffs
    return ((c4 * t * t + c2) * t + c1) * t + c0


# ---------------------------------------------------------------------------
# report parsing


def report_rows(text: str) -> list[dict[str, str]]:
    """The CSV body of a conedeg report (first non-comment line is the header)."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    if not lines:
        return []
    head = lines[0].split(",")
    return [dict(zip(head, ln.split(","))) for ln in lines[1:]]


def report_tags(text: str, tag: str) -> list[str]:
    prefix = f"# {tag}: "
    return [ln[len(prefix):] for ln in text.splitlines() if ln.startswith(prefix)]


def claim_field(text: str, key: str) -> str | None:
    claims = report_tags(text, "claim")
    m = re.search(rf"\b{key}=(\S+)", claims[0]) if claims else None
    return m.group(1) if m else None


# ---------------------------------------------------------------------------
# checkers; each returns a list of problems


def check_sup_error(u: np.ndarray, exact: np.ndarray, h: float, ref: float) -> tuple[float, list[str]]:
    """Sup error against the closed form, bound 2e-2 * h * sup|exact|."""
    err = float(np.max(np.abs(u - exact)))
    bound = 2e-2 * h * ref
    return err, ([] if err <= bound else [f"sup error {err:.3e} > {bound:.3e}"])


def check_order(err_coarse: float, err_fine: float, h_coarse: float, h_fine: float) -> list[str]:
    if not (err_coarse > 0.0 and err_fine > 0.0):
        return ["order undefined: an error is missing or zero"]
    order = math.log(err_coarse / err_fine) / math.log(h_coarse / h_fine)
    return [] if order >= 0.9 else [f"empirical order {order:.3f} < 0.9"]


def check_solve_row(row: dict[str, str]) -> list[str]:
    return [f"{key} is not true" for key in ("converged", "all_boundary", "monotone", "sandwich", "ok")
            if row.get(key) != "true"]


def check_radial_dump(text: str, npts: int) -> tuple[float, list[str]]:
    """Solution CSV of the annulus run against ln(1/r + 1) on interior nodes."""
    rows = report_rows(text)
    r = radial_nodes(npts)
    if len(rows) != npts:
        return math.inf, [f"dump has {len(rows)} nodes, expected {npts}"]
    x = np.array([float(row["x"]) for row in rows])
    u = np.array([float(row["u"]) for row in rows])
    problems = [] if np.allclose(x, r, rtol=0, atol=1e-11) else ["dump radii off the grid"]
    exact = radial_exact(r)
    err, more = check_sup_error(u[1:-1], exact[1:-1], spacing(RADIAL_BOX, npts), float(np.max(np.abs(exact))))
    return err, problems + more


def check_box_dump(text: str, npts: int) -> list[str]:
    """Solution CSV of the box run against ln(1 - ln r) on every node."""
    rows = report_rows(text)
    if len(rows) != npts * npts:
        return [f"dump has {len(rows)} nodes, expected {npts * npts}"]
    xs = box_axis(npts)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    x = np.array([float(row["x"]) for row in rows])
    y = np.array([float(row["y"]) for row in rows])
    u = np.array([float(row["u"]) for row in rows])
    problems = []
    if not (np.allclose(x, gx.ravel(), rtol=0, atol=1e-11)
            and np.allclose(y, gy.ravel(), rtol=0, atol=1e-11)):
        problems.append("dump coordinates off the grid")
    exact = box_exact(gx, gy).ravel()
    _, more = check_sup_error(u, exact, spacing(BOX_SIDE, npts), float(np.max(np.abs(exact))))
    return problems + more


def check_uniqueness_row(row: dict[str, str], npts: int) -> list[str]:
    allowance = 10.0 * TOL_SCALE * spacing(RADIAL_BOX, npts)
    problems = [] if row.get("verdict") == "pass" else [f"verdict {row.get('verdict')}"]
    if row.get("runs") != "2":
        problems.append(f"{row.get('runs')} runs, expected 2")
    if not float(row.get("max_distance", "inf")) <= allowance:
        problems.append(f"limits {row.get('max_distance')} apart, allowance {allowance:.3e}")
    return problems


def check_exact_values(got: dict, want: dict) -> list[str]:
    return [f"Q({t}) = {got.get(t)}, expected {v}" for t, v in want.items() if got.get(t) != v]


def check_root_brackets(brackets: list[tuple[float, float]], coeffs, fences) -> list[str]:
    """Exact sign change across each bracket, and brackets between the fences."""
    if len(brackets) != len(fences):
        return [f"{len(brackets)} roots, expected {len(fences)}"]
    problems = []
    for i, ((lo, hi), (left, right)) in enumerate(zip(brackets, fences)):
        a, b = Fraction(lo), Fraction(hi)
        if not a <= b:
            problems.append(f"root {i}: empty bracket")
        if quartic_value(coeffs, a) * quartic_value(coeffs, b) > 0:
            problems.append(f"root {i}: no exact sign change on [{lo!r}, {hi!r}]")
        if (left is not None and not left < a) or (right is not None and not b < right):
            problems.append(f"root {i}: bracket [{lo!r}, {hi!r}] outside ({left}, {right})")
    return problems


def parse_root_brackets(text: str) -> list[tuple[float, float]]:
    out = []
    for tag in report_tags(text, "root"):
        m = re.search(r"bracket=\[([^,\]]+),([^\]]+)\]", tag)
        if m:
            out.append((float(m.group(1)), float(m.group(2))))
    return out


def check_certificate(text: str, touching: str) -> list[str]:
    problems = [f"clause {c}" for c in report_tags(text, "clause") if not c.endswith("=true")]
    if not report_tags(text, "clause"):
        problems.append("no clauses")
    if claim_field(text, "verdict") != "pass":
        problems.append(f"verdict {claim_field(text, 'verdict')}")
    if claim_field(text, "touching") != touching:
        problems.append(f"touching set {claim_field(text, 'touching')}, expected {touching}")
    return problems


def check_eigs(ours: np.ndarray, ref: np.ndarray) -> list[str]:
    """Sorted eigenvalues against numpy.linalg.eigvalsh, relative 1e-9."""
    scale = 1.0 + float(np.max(np.abs(ref)))
    dev = float(np.max(np.abs(np.sort(ours) - ref)))
    return [] if dev <= 1e-9 * scale else [f"eigenvalues off eigvalsh by {dev:.3e}"]


def check_gap_rows(rows: list[dict[str, str]], jets: int) -> list[str]:
    problems = []
    for want in ("raise", "lower"):
        row = next((r for r in rows if r.get("direction") == want), None)
        if row is None:
            problems.append(f"no {want} row")
            continue
        if row.get("jets") != str(jets):
            problems.append(f"{want}: {row.get('jets')} jets")
        if not float(row["worst_gap_min_eig"]) >= -1e-10 or row.get("ok") != "true":
            problems.append(f"{want}: worst gap eigenvalue {row['worst_gap_min_eig']}")
    return problems


def check_all_true(rows: list[dict[str, str]], key: str, count: int) -> list[str]:
    problems = [] if len(rows) == count else [f"{len(rows)} rows, expected {count}"]
    return problems + [f"row {i} {key}={r.get(key)}" for i, r in enumerate(rows) if r.get(key) != "true"]


PROBE_VERDICT = ("grad_x_bound", "s_growth", "radial_coercive", "s_monotone")


def check_probe_rows(rows: list[dict[str, str]]) -> list[str]:
    """The four conditions of the verdict hold, and the mirrored regime fails with a witness.

    The two radial regimes exclude each other.  With M0 = p.grad_p L - L
    and a unit v orthogonal to p (n >= 2), the sub-unit regime asks
    v.M0 v <= -|p|^m / C1 and the mirror asks v.M0 v >= |p|^m / C2 (theta
    = 0, C1, C2 > 0).  Both hold on a sample only if |p|^m (1/C1 + 1/C2)
    is within the probe's 1e-9 relative tolerance, which the sampled
    |p| in [1e-3, 1e3] exceed.  So once radial_coercive holds with a fitted
    C, radial_coercive_sup must be false with a negative violation.
    """
    by_name = {r.get("condition"): r for r in rows}
    problems = [] if len(rows) == 5 and "radial_coercive_sup" in by_name else ["missing conditions"]
    problems += [f"{name} does not hold" for name in PROBE_VERDICT
                 if by_name.get(name, {}).get("ok") != "true"]
    if not by_name.get("radial_coercive", {}).get("fitted_C"):
        problems.append("radial_coercive has no fitted C")
    sup = by_name.get("radial_coercive_sup", {})
    witness = dict(kv.split("=", 1) for kv in sup.get("witness", "").split(";") if "=" in kv)
    if sup.get("ok") != "false" or not float(witness.get("violation", "0")) < 0.0:
        problems.append(f"radial_coercive_sup ok={sup.get('ok')} witness={sup.get('witness')!r}, "
                        "but it excludes radial_coercive")
    return problems


def check_verify_counts(counts: dict[str, int], skipped: int, consistent: bool, interior: int) -> list[str]:
    """A closed-form solution classifies every interior node on the boundary."""
    problems = [] if consistent else ["not a consistent solution"]
    if skipped:
        problems.append(f"{skipped} nodes skipped")
    if counts.get("BOUNDARY") != interior or sum(counts.values()) != interior:
        problems.append(f"classes {counts}, expected {interior} BOUNDARY")
    return problems


def check_cusp_touch(row: dict[str, str]) -> list[str]:
    problems = []
    if row.get("verdict") != "PropagationViolated":
        problems.append(f"verdict {row.get('verdict')}")
    if row.get("components") != "1" or row.get("interior_only") != "1":
        problems.append(f"{row.get('components')} components, {row.get('interior_only')} interior")
    if not float(row.get("boundary_gap", "0")) > 0.0:
        problems.append("touches the boundary")
    return problems


def check_random_touch(rows: list[dict[str, str]], trials: int) -> list[str]:
    problems = [] if len(rows) == trials else [f"{len(rows)} trials, expected {trials}"]
    return problems + [f"trial {i}: {r.get('verdict')}" for i, r in enumerate(rows)
                       if r.get("verdict") != "PropagationConsistent"]


def check_dyadic(rows: list[dict[str, str]]) -> list[str]:
    """eps_k = 2^{-2(2k+1)}, x_k = 2^{-(2k+3)}: value <= 1/16, jump >= sqrt(eps)/8."""
    problems = [] if [r.get("k") for r in rows] == ["2", "3", "4", "5", "6"] else ["rows are not k=2..6"]
    for r in rows:
        k = int(r["k"])
        eps, x = 2.0 ** (-2 * (2 * k + 1)), 2.0 ** -(2 * k + 3)
        if not (math.isclose(float(r["eps"]), eps, rel_tol=1e-11)
                and math.isclose(float(r["x"]), x, rel_tol=1e-11)):
            problems.append(f"k={k}: eps/x off the dyadic scale")
        if not float(r["env_value"]) <= 1.0 / 16.0:
            problems.append(f"k={k}: value {r['env_value']} above 1/16")
        if not float(r["displacement"]) >= math.sqrt(eps) / 8.0 * (1 - 1e-11):
            problems.append(f"k={k}: jump {r['displacement']} below sqrt(eps)/8")
        if not float(r["window_min"]) > 0.5:
            problems.append(f"k={k}: window minimum {r['window_min']}")
    return problems


def check_bitwise(a: np.ndarray, b: np.ndarray, what: str) -> list[str]:
    return [] if a.shape == b.shape and np.array_equal(a, b) else [f"{what} differ"]


# ---------------------------------------------------------------------------
# negative controls


def negative_controls() -> list[str]:
    """Names of checkers that accepted a deliberately wrong input."""
    r = radial_nodes(125)
    exact = radial_exact(r)
    h = spacing(RADIAL_BOX, 125)
    good_row = {"converged": "true", "all_boundary": "true", "monotone": "true",
                "sandwich": "true", "ok": "true"}
    box_n = 9
    xs = box_axis(box_n)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    shifted_box = "\n".join(
        ["node,x,y,u,residual_class"]
        + [f"{i},{x!r},{y!r},{u + 1e-3!r},BOUNDARY" for i, (x, y, u) in
           enumerate(zip(gx.ravel().tolist(), gy.ravel().tolist(), box_exact(gx, gy).ravel().tolist()))]
    )
    beta_brackets = [(-4.2, -4.1), (-0.7, -0.6), (1.5, 1.6), (3.2, 3.3)]
    mat = np.diag([1.0, 2.0, 3.0])
    claims = "# clause: ordering=true\n# claim: verdict=pass touching=[2,2.5]\n"
    dyadic_rows = [{"k": str(k), "eps": repr(2.0 ** (-2 * (2 * k + 1))), "x": repr(2.0 ** -(2 * k + 3)),
                    "env_value": "0.0625", "displacement": repr(2.0 ** -(2 * k + 5)),
                    "window_min": "1"} for k in range(2, 7)]
    env = np.linspace(0.0, 1.0, 7)
    cases = {
        "sup_error": check_sup_error(exact + 1e-3, exact, h, float(np.max(exact)))[1],
        "order": check_order(1e-5, 1e-5, 2 * h, h),
        "solve_row": check_solve_row({**good_row, "monotone": "false"}),
        "box_dump": check_box_dump(shifted_box, box_n),
        "uniqueness": check_uniqueness_row(
            {"verdict": "pass", "runs": "2", "max_distance": str(20 * TOL_SCALE * h)}, 125),
        "exact_values": check_exact_values(
            {t: quartic_value(BETA_SIGN_Q[:3] + (Fraction(6562),), t) for t in BETA_SIGN_VALUES},
            BETA_SIGN_VALUES),
        "root_brackets": check_root_brackets(
            [(lo + 0.5, hi + 0.5) for lo, hi in beta_brackets], BETA_SIGN_Q, BETA_SIGN_FENCES),
        "root_interlacing": check_root_brackets(
            [beta_brackets[1], beta_brackets[0]] + beta_brackets[2:], BETA_SIGN_Q, BETA_SIGN_FENCES),
        "certificate": check_certificate(claims, "[2]"),
        "eigs": check_eigs(np.linalg.eigvalsh(mat) + 1e-6, np.linalg.eigvalsh(mat)),
        "gap_rows": check_gap_rows(
            [{"direction": "raise", "jets": "10", "worst_gap_min_eig": "-1e-9", "ok": "true"},
             {"direction": "lower", "jets": "10", "worst_gap_min_eig": "0", "ok": "true"}], 10),
        "all_true": check_all_true([{"ok": "true"}, {"ok": "false"}], "ok", 2),
        "probe_rows": check_probe_rows(
            [{"condition": c, "ok": "true", "fitted_C": "1"} for c in PROBE_VERDICT[:3]]
            + [{"condition": "s_monotone", "ok": "false", "witness": "s=0"},
               {"condition": "radial_coercive_sup", "ok": "false", "witness": "violation=-1"}]),
        "probe_sup_holds": check_probe_rows(
            [{"condition": c, "ok": "true", "fitted_C": "1"} for c in PROBE_VERDICT]
            + [{"condition": "radial_coercive_sup", "ok": "true", "fitted_C": "1"}]),
        "verify_counts": check_verify_counts({"BOUNDARY": 8, "INTERIOR": 1}, 0, True, 9),
        "cusp_touch": check_cusp_touch({"verdict": "PropagationViolated", "components": "2",
                                        "interior_only": "1", "boundary_gap": "0.1"}),
        "random_touch": check_random_touch([{"verdict": "PropagationViolated"}], 1),
        "dyadic": check_dyadic(dyadic_rows),
        "bitwise": check_bitwise(env, np.nextafter(env, 2.0), "envelopes"),
    }
    return [name for name, problems in cases.items() if not problems]
