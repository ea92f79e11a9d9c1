"""Command-line surface: certification runs, envelope studies, solver
benchmarks, and CSV reports binding the library modules together.

Every report starts with sorted ``# config:`` lines echoing the fully
resolved run (flags over config-file entries over defaults) and a single
``# claim:`` line stating, in plain words, what the run checked and how it
came out.  Identical configuration and seed produce byte-identical output:
all randomness is seeded, nothing is timestamped.

Each flag's accepted values are stated once, as its argparse type.  A
--config file becomes --key=value tokens that the same subparser reads
before the command line's own flags, whose later occurrences win.

Exit codes: 0 when the expected outcome holds (including a counterexample
certificate that resolves as designed), 2 when the run certifies a
violation that is itself the expected deliverable (the cusp pair whose
touching point never reaches the boundary), 64 when a value lies outside
its flag's domain (from a flag or a config file) or a combination of
flags is refused, 1 when the run failed.  CI should treat only 1 as a
regression.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys
from dataclasses import fields
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .envelopes import (
    GridFn,
    check_envelope_properties,
    dyadic_sharpness,
    dyadic_w,
    grid_from_csv,
)
from .matcone import _MAX_N, _sym_eigvals, axiom_check, cone_margin, parse_cone
from .operators import (
    FieldOracle,
    OperatorSpec,
    example_varying_quad,
    kelvin_transform,
    parse_operator,
    probe_L_conditions,
)
from .perron import (
    DirichletProblem,
    SolverConfig,
    box_sandwich_problem,
    perron_solve,
    radial_sandwich_problem,
    solution_csv,
    uniqueness_experiment,
)
from .radial import (
    _MIN_RGRID,
    build_counterexample,
    certificate_rows_csv,
    cusp_family_operator,
    cusp_pair_values,
)
from .viscosity import (
    PROPAGATION_CONSISTENT,
    PROPAGATION_VIOLATED,
    _first_variation,
    first_variation_constants,
    moving_sphere_check,
    touching_experiment,
)

__all__ = ["UsageError", "dispatch", "main"]

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_EXPECTED_VIOLATION = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Bad arguments or config file; dispatch turns this into exit 64."""


def _fmt_value(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _b(flag) -> str:
    return "true" if flag else "false"


def _squash(d: dict) -> str:
    """One CSV cell from a small dict; ';' between pairs, '|' inside lists."""
    parts = []
    for key in sorted(d):
        v = d[key]
        if isinstance(v, (list, tuple, np.ndarray)):
            v = "[" + "|".join(f"{float(t):.6g}" for t in v) + "]"
        elif isinstance(v, float):
            v = f"{v:.6g}"
        parts.append(f"{key}={v}")
    return ";".join(parts)


# ---------------------------------------------------------------------------
# argument parsing


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):
        raise UsageError(message)


def _domain(parse: Callable, ok: Callable = lambda v: True, says: str = "",
            keep_text: bool = False) -> Callable:
    """An argparse type: parse(text) if ok accepts it, else a usage error that
    says why (the parse error itself when says is empty).  keep_text returns
    the text, so a list, cone or operator flag echoes as it was given."""

    def convert(text: str):
        try:
            value = parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"{says}, got {text!r}" if says else str(exc))
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{says}, got {text!r}")
        return text if keep_text else value

    return convert


def _integer(low: int, high: float = math.inf) -> Callable:
    bound = f">= {low}" if high == math.inf else f"from {low} to {high}"
    return _domain(int, lambda v: low <= v <= high, f"must be an integer {bound}")


def _floats(text: str) -> list[float]:
    """The values of a comma-separated list; empty items are skipped."""
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _all_positive(vals: list[float]) -> bool:
    return bool(vals) and all(0.0 < v < math.inf for v in vals)  # NaN is not positive


_COUNT = _integer(1)
_SEED = _integer(0)
_GRID = _integer(3)
_DIM = _integer(1, _MAX_N)
_POSITIVE = _domain(float, lambda v: 0.0 < v < math.inf, "must be positive and finite")
_NONNEGATIVE = _domain(float, lambda v: 0.0 <= v < math.inf, "must be nonnegative and finite")
_FINITE = _domain(float, math.isfinite, "must be finite")
_POSITIVE_LIST = _domain(_floats, _all_positive, "must list positive finite values", True)
_DECREASING_LIST = _domain(
    _floats, lambda vs: _all_positive(vs) and all(b < a for a, b in zip(vs, vs[1:])),
    "must list positive finite values, strictly decreasing", True)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help="write the report to this file instead of stdout")
    sub.add_argument("--config", help="key=value file merged beneath the flags")
    sub.add_argument("--seed", type=_SEED, default=0, help="seed for every random draw")


@functools.cache
def build_parser() -> tuple[argparse.ArgumentParser, dict[str, list[argparse.Action]]]:
    """The argument parser and each subcommand's actions, built once per process.

    Parsing never writes to the parser, so one parser serves every dispatch
    call.
    """
    parser = _Parser(prog="conedeg", allow_abbrev=False,
                     description="certification runs, envelope studies, and solver benchmarks")
    subs = parser.add_subparsers(dest="command", metavar="command")
    registry: dict[str, list[argparse.Action]] = {}

    def command(name: str, help_text: str) -> argparse.ArgumentParser:
        sub = subs.add_parser(name, help=help_text, allow_abbrev=False)
        _add_common(sub)
        registry[name] = sub._actions
        return sub

    p = command("cone-axioms", "sample the closure axioms of a matrix cone")
    p.add_argument("--cone", type=_domain(parse_cone, keep_text=True), default="gamma_k:2",
                   help="cone text, e.g. gamma_k:2 or posdef")
    p.add_argument("--n", type=_DIM, default=3, help="matrix dimension")
    p.add_argument("--samples", type=_COUNT, default=200)

    p = command("ctex", "build and certify a radial counterexample family")
    p.add_argument("--kind", required=True,
                   choices=("beta-sign", "nondec", "bprime", "holder"))
    p.add_argument("--alpha", type=_FINITE, default=None,
                   help="family parameter; omitted means the family default")
    p.add_argument("--rgrid", type=_integer(_MIN_RGRID), default=2001,
                   help="punctured radial grid size")

    p = command("envelope", "property suite for quadratic-penalty envelopes")
    p.add_argument("--side", choices=("lower", "upper"), default="lower")
    p.add_argument("--eps", type=_DECREASING_LIST, default="1e-2,1e-3,1e-4",
                   help="comma-separated widths, strictly decreasing")
    p.add_argument("--grid", type=_GRID, default=401)
    p.add_argument("--source", choices=("gaussian", "step", "dyadic", "random", "file"),
                   default="gaussian")
    p.add_argument("--input", default=None, help="grid CSV, for --source file")
    p.add_argument("--lipschitz", type=_NONNEGATIVE, default=None,
                   help="known Lipschitz constant, enables the gradient cap check")

    command("dyadic", "sharpness of the envelope displacement bound at dyadic scales")

    p = command("first-variation", "positive-semidefiniteness of the perturbation gap")
    p.add_argument("--s-bound", type=_POSITIVE, default=1.0, help="bound on the candidate value")
    p.add_argument("--p-bound", type=_POSITIVE, default=1.0,
                   help="gradient scale; jets are drawn with |p| <= 10 * this")
    p.add_argument("--jets", type=_COUNT, default=1000)

    p = command("perron", "solve a bracketed Dirichlet problem by monotone iteration")
    p.add_argument("--problem", choices=("annulus-psi1", "box-log", "interval-linear"),
                   default="annulus-psi1")
    p.add_argument("--grid", type=_GRID, default=250, help="nodes per axis")
    p.add_argument("--n", type=_DIM, default=3, help="ambient dimension of the radial problem")
    p.add_argument("--tol-scale", type=_POSITIVE, default=0.15,
                   help="margin tolerance as a multiple of the grid spacing")
    p.add_argument("--max-sweeps", type=_COUNT, default=2_000_000)
    p.add_argument("--dump", default=None, help="also write the full solution CSV here")

    p = command("uniqueness", "compare solver limits from opposite ends of the bracket")
    p.add_argument("--problem", choices=("annulus-psi1", "box-log", "interval-linear"),
                   default="interval-linear")
    p.add_argument("--grid", type=_GRID, default=64)
    p.add_argument("--n", type=_DIM, default=3)
    p.add_argument("--tol-scale", type=_POSITIVE, default=0.15)
    p.add_argument("--max-sweeps", type=_COUNT, default=2_000_000)

    p = command("kelvin", "inversion involution and the inverted-family comparison")
    p.add_argument("--field", choices=("bubble", "constant", "harmonic"), default="bubble")
    p.add_argument("--n", type=_integer(3), default=3)
    p.add_argument("--samples", type=_COUNT, default=40, help="involution sample points")
    p.add_argument("--centers", type=_COUNT, default=3, help="inversion centers to try")
    p.add_argument("--lambdas", type=_POSITIVE_LIST, default="0.05,0.1",
                   help="inversion radii, comma-separated")

    p = command("touching", "locate near-touching sets and judge their propagation")
    p.add_argument("--pair", choices=("cusp", "logpair", "random"), default="cusp")
    p.add_argument("--alpha", type=_FINITE, default=-3.0, help="cusp family parameter")
    p.add_argument("--grid", type=_GRID, default=501)
    p.add_argument("--trials", type=_COUNT, default=20, help="seeded pairs, for --pair random")

    p = command("probe-L", "sample the structural conditions on a gradient part")
    p.add_argument("--operator", type=_domain(parse_operator, keep_text=True),
                   default="genL:tanh_quad", help="operator text")
    p.add_argument("--x-radius", type=_POSITIVE, default=2.0,
                   help="bound R on the sampled values |s|, not on the points")
    p.add_argument("--s-bound", type=_POSITIVE, default=8.0,
                   help="Lambda of the radial coercivity condition")
    p.add_argument("--growth", type=_NONNEGATIVE, default=2.0,
                   help="gradient growth exponent")
    p.add_argument("--samples", type=_COUNT, default=200)

    return parser, registry


def _config_tokens(path: str, actions: Sequence[argparse.Action]) -> list[str]:
    """A key=value config file as --key=value tokens for one subcommand."""
    flags = {a.dest: a.option_strings[0] for a in actions if a.dest not in ("help", "config")}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    tokens = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        flag = flags.get(key.strip().replace("-", "_"))
        if flag is None:
            raise UsageError(f"{path}:{lineno}: unknown key {key.strip()!r}")
        tokens.append(f"{flag}={value.strip()}")
    return tokens


# ---------------------------------------------------------------------------
# subcommands; each returns (claim, body lines, exit code)


def _cmd_cone_axioms(ns) -> tuple[str, list[str], int]:
    spec = parse_cone(ns.cone)
    try:
        cone_margin(np.zeros(ns.n), spec)  # refuses a gamma_k order above n
    except ValueError as exc:
        raise UsageError(f"--cone {ns.cone} in dimension --n {ns.n}: {exc}")
    report = axiom_check(spec, samples=ns.samples, seed=ns.seed, n=ns.n)
    body = ["axiom,ok,witness"]
    for name, (ok, witness) in report.results.items():
        body.append(f"{name},{_b(ok)},{_squash(witness) if witness else ''}")
    claim = (
        f"{report.samples} random members of cone {report.cone} in dimension "
        f"{report.n} stay inside under positive-definite bumps and positive "
        f"scaling and carry positive trace"
    )
    return claim, body, EXIT_PASS if report.ok() else EXIT_FAIL


def _cmd_ctex(ns) -> tuple[str, list[str], int]:
    params = {} if ns.alpha is None else {"alpha": ns.alpha}
    try:
        cert = build_counterexample(ns.kind.replace("-", "_"), rgrid=ns.rgrid, **params)
    except (TypeError, ValueError) as exc:
        raise UsageError(str(exc))
    body = []
    for rb in cert.roots:
        body.append(f"# root: i={rb.index} t={rb.t:.15g} bracket=[{rb.lo:.15g},{rb.hi:.15g}]")
    for name in sorted(cert.clauses):
        body.append(f"# clause: {name}={_b(cert.clauses[name])}")
    for note in cert.notes:
        body.append(f"# note: {note}")
    body.extend(certificate_rows_csv(cert).splitlines())
    touching = ",".join(f"{t:.12g}" for t in cert.touching)
    claim = (
        f"the {ns.kind} profile family behaves as designed on a {ns.rgrid}-node "
        f"punctured radial grid: root brackets, eigenvalue signs, and the "
        f"touching set all check out; verdict={cert.verdict} touching=[{touching}]"
    )
    return claim, body, EXIT_PASS if cert.verdict == "pass" else EXIT_FAIL


def _random_piecewise(rng: np.random.Generator, n: int) -> GridFn:
    # constant plateaus with jumps, plus a ramp; the stress case for envelopes
    xs = np.linspace(-1.0, 1.0, n)
    edges = np.sort(rng.uniform(-1.0, 1.0, size=int(rng.integers(2, 6))))
    levels = rng.uniform(-2.0, 2.0, size=len(edges) + 1)
    vals = levels[np.searchsorted(edges, xs)] + rng.uniform(-0.5, 0.5) * xs
    return GridFn(((-1.0, 1.0),), vals)


def _envelope_source(ns) -> GridFn:
    xs = np.linspace(-1.0, 1.0, ns.grid)
    if ns.source == "gaussian":
        return GridFn(((-1.0, 1.0),), np.exp(-8.0 * xs * xs))
    if ns.source == "step":
        return GridFn(((-1.0, 1.0),), np.where(xs > 0.0, 1.0, 0.0))
    if ns.source == "dyadic":
        return GridFn(((-1.0, 1.0),), np.array([dyadic_w(x) for x in xs]))
    if ns.source == "random":
        return _random_piecewise(np.random.default_rng(ns.seed), ns.grid)
    if not ns.input:
        raise UsageError("--source file needs --input")
    try:
        return grid_from_csv(Path(ns.input).read_text())
    except OSError as exc:
        raise UsageError(f"cannot read input grid: {exc}")
    except ValueError as exc:
        raise UsageError(f"bad --input grid: {exc}")


def _cmd_envelope(ns) -> tuple[str, list[str], int]:
    src = _envelope_source(ns)
    report = check_envelope_properties(src, _floats(ns.eps), ns.side, lipschitz_K=ns.lipschitz)
    body = [
        "eps,monotone_ok,curvature_ok,curvature_worst,displacement_ok,"
        "displacement_worst,gradient_ok,gradient_worst,lipschitz_ok,row_ok"
    ]
    for row in report.rows:
        lip = "" if row.lipschitz_ok is None else _b(row.lipschitz_ok)
        body.append(
            f"{row.eps:.12g},{_b(row.monotone_ok)},{_b(row.curvature_ok)},"
            f"{row.curvature_worst:.12g},{_b(row.displacement_ok)},"
            f"{row.displacement_worst:.12g},{_b(row.gradient_ok)},"
            f"{row.gradient_worst:.12g},{lip},{_b(row.ok)}"
        )
    claim = (
        f"{ns.side} quadratic-penalty envelopes of the {ns.source} source are "
        f"monotone in the width, keep one-sided curvature within 2/eps plus "
        f"grid slack, move their extremizer at most the penalty radius, and "
        f"approach the source (worst approach gap {report.approach_worst:.6g})"
    )
    return claim, body, EXIT_PASS if report.all_ok else EXIT_FAIL


def _cmd_dyadic(ns) -> tuple[str, list[str], int]:
    report = dyadic_sharpness()
    body = ["k,eps,x,env_value,value_bound,displacement,displacement_bound,window_min,ok"]
    for row in report.rows:
        body.append(
            f"{row.k},{row.eps:.12g},{row.x:.12g},{row.env_value:.12g},"
            f"{row.value_bound:.12g},{row.displacement:.12g},"
            f"{row.displacement_bound:.12g},{row.window_min:.12g},{_b(row.ok)}"
        )
    claim = (
        "lower envelopes of the shell-and-ramp source at five dyadic widths "
        "stay within the 1/16 value cap at the probe node while the minimizer "
        "jumps at least an eighth of the penalty radius: the displacement "
        "bound is sharp in order"
    )
    return claim, body, EXIT_PASS if report.all_ok else EXIT_FAIL


def _cmd_first_variation(ns) -> tuple[str, list[str], int]:
    F = example_varying_quad()
    try:
        P = first_variation_constants(F, M=ns.s_bound, R=ns.p_bound)
    except ValueError as exc:  # the weight bound overflows for a large M
        raise UsageError(str(exc))
    rng = np.random.default_rng(ns.seed)
    jets = []
    for _ in range(ns.jets):
        x = rng.uniform(-0.577, 0.577, 3)
        p = rng.uniform(-1.0, 1.0, 3)
        p *= rng.uniform(0.0, 10.0 * ns.p_bound) / max(1e-12, float(np.linalg.norm(p)))
        a = rng.normal(size=(3, 3))
        jets.append((x, rng.uniform(-ns.s_bound, ns.s_bound), p, 0.5 * (a + a.T) * rng.uniform(0.0, 5.0)))
    x, s, p, H = (np.array(col, dtype=float) for col in zip(*jets))
    worst_up, worst_down = (
        float(_sym_eigvals(_first_variation(x, s, p, H, P, F, sign)[3])[:, 0].min()) for sign in (1, -1)
    )
    bound = -1e-10
    consts = " ".join(f"{f.name}={getattr(P, f.name):.12g}" for f in fields(P))
    body = [
        f"# constants: {consts}",
        "direction,jets,worst_gap_min_eig,bound,ok",
        f"raise,{ns.jets},{worst_up:.12g},{bound:.12g},{_b(worst_up >= bound)}",
        f"lower,{ns.jets},{worst_down:.12g},{bound:.12g},{_b(worst_down >= bound)}",
    ]
    claim = (
        f"perturbing candidates up or down by the searched constants keeps "
        f"the operator gap matrix positive semidefinite to 1e-10 over "
        f"{ns.jets} random jets of the varying-coefficient quadratic family"
    )
    code = EXIT_PASS if min(worst_up, worst_down) >= bound else EXIT_FAIL
    return claim, body, code


def _perron_problem(ns):
    """Problem, closed-form node values, and the error reference constant."""
    if ns.problem == "annulus-psi1":
        problem, exact = radial_sandwich_problem(ns.grid, n=ns.n)
    elif ns.problem == "box-log":
        problem, exact = box_sandwich_problem(ns.grid)
    else:  # interval-linear: u = x on [0, 1]
        xs = np.linspace(0.0, 1.0, ns.grid)
        bump = 0.5 * xs * (1.0 - xs)
        problem = DirichletProblem(
            F=OperatorSpec.quad_const(0.0, 0.0),
            U=parse_cone("trace"),
            sub=GridFn(((0.0, 1.0),), xs - bump),
            sup=GridFn(((0.0, 1.0),), xs + bump),
        )
        exact = xs
    return problem, exact, float(np.max(np.abs(exact)))


def _solver_config(ns, h: float) -> SolverConfig:
    """--tol-scale (a multiple of the grid spacing h) and --max-sweeps."""
    return SolverConfig(tol=ns.tol_scale * h, max_sweeps=ns.max_sweeps)


def _cmd_perron(ns) -> tuple[str, list[str], int]:
    problem, exact, ref = _perron_problem(ns)
    h = max(problem.sub.h)
    cfg = _solver_config(ns, h)
    result = perron_solve(problem, cfg)
    err = float(np.max(np.abs(result.u.values - exact)[problem.interior_mask]))
    bound = 2e-2 * h * ref
    ok = (result.solved and result.monotone_ok and result.sandwich_ok
          and err <= bound)
    body = [
        "problem,grid,h,sweeps,converged,all_boundary,monotone,sandwich,"
        "sup_error,bound,ok",
        f"{ns.problem},{ns.grid},{h:.12g},{result.sweeps},{_b(result.converged)},"
        f"{_b(result.residual.consistent_solution)},{_b(result.monotone_ok)},"
        f"{_b(result.sandwich_ok)},{err:.12g},{bound:.12g},{_b(ok)}",
    ]
    if ns.dump:
        Path(ns.dump).write_text(solution_csv(result, problem))
    claim = (
        f"monotone iteration between the certified bracket pair solves "
        f"the {ns.problem} problem: every interior node classifies on the "
        f"cone boundary and the iterate lands within 2e-2 * h * "
        f"(sup of the closed form) of the closed-form solution"
    )
    return claim, body, EXIT_PASS if ok else EXIT_FAIL


def _cmd_uniqueness(ns) -> tuple[str, list[str], int]:
    problem, _, _ = _perron_problem(ns)
    cfg = _solver_config(ns, max(problem.sub.h))
    report = uniqueness_experiment(problem, cfg)
    body = [
        "problem,grid,runs,max_distance,allowance,verdict",
        f"{ns.problem},{ns.grid},{len(report.runs)},{report.max_distance:.12g},"
        f"{10.0 * cfg.tol:.12g},{report.verdict}",
    ]
    claim = (
        f"solver limits reached from the two ends of the bracket agree within "
        f"ten margin tolerances on the {ns.problem} problem, the grid "
        f"analogue of uniqueness"
    )
    return claim, body, EXIT_PASS if report.passed else EXIT_FAIL


def _cmd_kelvin(ns) -> tuple[str, list[str], int]:
    makers = {
        "bubble": FieldOracle.bubble,
        "harmonic": FieldOracle.harmonic_power,
        "constant": lambda n: FieldOracle.constant(2.0, n),
    }
    oracle = makers[ns.field](ns.n)
    lams = _floats(ns.lambdas)
    rng = np.random.default_rng(ns.seed)
    tol = 1e-10

    x0 = np.zeros(ns.n)
    x0[0] = 0.2
    lam0 = 0.9
    once = kelvin_transform(oracle, x0, lam0, ns.n)
    twice = kelvin_transform(once, x0, lam0, ns.n)
    worst = 0.0
    checked = 0
    while checked < ns.samples:
        y = x0 + rng.normal(size=ns.n)
        z = x0 + lam0**2 * (y - x0) / float((y - x0) @ (y - x0) + 1e-300)
        # keep clear of the inversion center and, for the singular field,
        # of the pole at the origin on both sides of the transform
        if float(np.linalg.norm(y - x0)) < 1e-2:
            continue
        if ns.field == "harmonic" and min(np.linalg.norm(y), np.linalg.norm(z)) < 1e-2:
            continue
        ref = oracle.value(y)
        worst = max(worst, abs(twice(y) - ref) / max(1.0, abs(ref)))
        checked += 1
    body = ["check,detail,value,bound,ok"]
    body.append(f"involution,samples={ns.samples},{worst:.12g},{tol:.12g},{_b(worst <= tol)}")
    all_ok = worst <= tol

    if ns.field in ("bubble", "constant"):
        centers = [np.zeros(ns.n)]
        while len(centers) < ns.centers:
            z = rng.normal(size=ns.n)
            centers.append(0.45 * z / max(1e-12, float(np.linalg.norm(z))))
        try:
            report = moving_sphere_check(oracle, ns.n, centers, lams, seed=ns.seed)
        except ValueError as exc:  # a radius above the admissible start radius
            raise UsageError(str(exc))
        for t in report.trials:
            where = "(" + ";".join(f"{c:.4g}" for c in t.center) + f") lam={t.lam:g}"
            body.append(f"inversion_excess,{where},{t.max_excess:.12g},"
                        f"{report.tol:.12g},{_b(t.max_excess <= report.tol)}")
            body.append(f"sphere_identity,{where},{t.sphere_gap:.12g},"
                        f"{report.tol:.12g},{_b(t.sphere_gap <= report.tol)}")
            body.append(f"outer_shell,{where},{t.boundary_excess:.12g},"
                        f"{report.tol:.12g},{_b(t.boundary_excess <= report.tol)}")
        body.append(f"# start_radius: {report.start_radius:.12g}")
        body.append(f"# lipschitz_quotient: {report.lipschitz_quotient:.12g}")
        all_ok = all_ok and report.all_ok
        claim = (
            f"inversion through a sphere applied twice returns the {ns.field} "
            f"field, and for every admissible center and radius the inverted "
            f"field stays below the original, agrees on the inversion sphere, "
            f"and stays below the field minimum on the outer shell"
        )
    else:
        claim = (
            f"inversion through a sphere applied twice returns the {ns.field} "
            f"field to relative error 1e-10 at {ns.samples} sample points"
        )
    return claim, body, EXIT_PASS if all_ok else EXIT_FAIL


def _touch_row(tag: str, grid: int, rep) -> str:
    return (
        f"{tag},{grid},{len(rep.components)},{rep.interior_only},"
        f"{rep.boundary_gap:.12g},{rep.min_gap:.12g},{rep.verdict}"
    )


def _cmd_touching(ns) -> tuple[str, list[str], int]:
    body = ["pair,grid,components,interior_only,boundary_gap,min_gap,verdict"]
    if ns.pair == "cusp":
        try:
            cert = build_counterexample("beta_sign", rgrid=ns.grid, alpha=ns.alpha)
            rr, wv, vv = cusp_pair_values(cert, ns.grid)
        except ValueError as exc:  # --grid below the radial minimum, or no certified pair
            raise UsageError(str(exc))
        box = ((float(rr[0]), float(rr[-1])),)
        rep = touching_experiment(
            GridFn(box, wv), GridFn(box, vv),
            cusp_family_operator("P4", ns.alpha), parse_cone("one_pos"), 1e-12,
        )
        body.append(_touch_row("cusp", ns.grid, rep))
        expected = (rep.verdict == PROPAGATION_VIOLATED
                    and rep.interior_only == len(rep.components) == 1)
        claim = (
            "the ordered cusp pair meets only at the interior radius and that "
            "touching component never reaches the boundary: propagation fails "
            "for this operator, which is the certified outcome"
        )
        return claim, body, EXIT_EXPECTED_VIOLATION if expected else EXIT_FAIL

    if ns.pair == "logpair":
        w_o = FieldOracle.log_singular(1.0, 0.0, 1.0, 3)
        v_o = FieldOracle.log_singular(1.0, 0.0, 0.0, 3)
        F = OperatorSpec.quad_const(1.0, 0.0)
        U = parse_cone("trace")
        gaps = []
        consistent = True
        for rmin in (1e-1, 1e-2, 1e-3):
            pts = np.zeros((ns.grid, 3))
            pts[:, 0] = np.linspace(rmin, 1.0, ns.grid)
            wv, vv = w_o.value(pts), v_o.value(pts)
            rep = touching_experiment(
                GridFn(((rmin, 1.0),), wv), GridFn(((rmin, 1.0),), vv), F, U, 1e-9
            )
            body.append(_touch_row(f"logpair:{rmin:g}", ns.grid, rep))
            gaps.append(rep.min_gap)
            consistent = consistent and rep.verdict == PROPAGATION_CONSISTENT
        ok = consistent and all(a > b for a, b in zip(gaps, gaps[1:]))
        claim = (
            "the punctured-ball profile pair never touches, and its infimum "
            "gap shrinks toward zero as the puncture tightens: ordering "
            "without a positive gap, consistent with propagation"
        )
        return claim, body, EXIT_PASS if ok else EXIT_FAIL

    F = OperatorSpec.quad_const(1.0, 0.7)
    U = parse_cone("posdef")
    rng = np.random.default_rng(ns.seed)
    xs = np.linspace(0.0, 1.0, 64)
    ok = True
    for i in range(ns.trials):
        v = GridFn(((0.0, 1.0),), rng.normal(size=64))
        gap = rng.uniform(0.2, 2.0) * xs * (np.cos(rng.uniform(0.0, 1.0) * xs) + 1.1)
        rep = touching_experiment(GridFn(((0.0, 1.0),), v.values + gap), v, F, U, 1e-12)
        body.append(_touch_row(f"random:{i}", 64, rep))
        ok = ok and rep.verdict == PROPAGATION_CONSISTENT
    claim = (
        f"{ns.trials} seeded ordered pairs whose gap vanishes only at the "
        f"boundary all carry their touching set to the boundary: propagation "
        f"holds on every conforming trial"
    )
    return claim, body, EXIT_PASS if ok else EXIT_FAIL


def _cmd_probe_l(ns) -> tuple[str, list[str], int]:
    report = probe_L_conditions(parse_operator(ns.operator), R=ns.x_radius, Lambda=ns.s_bound,
                                m=ns.growth, samples=ns.samples, seed=ns.seed)
    body = ["condition,ok,fitted_C,fitted_theta_bar,witness"]
    for name in ("grad_x_bound", "s_growth", "radial_coercive",
                 "radial_coercive_sup", "s_monotone"):
        c = getattr(report, name)
        fit_c = "" if c.fitted_C is None else f"{c.fitted_C:.12g}"
        fit_t = "" if c.fitted_theta_bar is None else f"{c.fitted_theta_bar:.12g}"
        body.append(f"{name},{_b(c.ok)},{fit_c},{fit_t},"
                    f"{_squash(c.witness) if c.witness else ''}")
    claim = (
        f"sampled structural conditions for the gradient part of "
        f"{report.operator}: space-gradient cap, growth and monotonicity in "
        f"the value variable, and radial coercivity in the sub-unit scaling "
        f"regime, with sample-fitted constants (witnesses are genuine "
        f"disproofs); the mirrored super-unit row cannot hold with it and is "
        f"reported for reference only"
    )
    return claim, body, EXIT_PASS if report.all_ok() else EXIT_FAIL


_COMMANDS: dict[str, Callable] = {
    "cone-axioms": _cmd_cone_axioms,
    "ctex": _cmd_ctex,
    "envelope": _cmd_envelope,
    "dyadic": _cmd_dyadic,
    "first-variation": _cmd_first_variation,
    "perron": _cmd_perron,
    "uniqueness": _cmd_uniqueness,
    "kelvin": _cmd_kelvin,
    "touching": _cmd_touching,
    "probe-L": _cmd_probe_l,
}


def dispatch(argv: Sequence[str]) -> int:
    parser, registry = build_parser()
    argv = list(argv)
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "command", None):
            raise UsageError("a subcommand is required")
        if ns.config:
            # the file's tokens go before the command line's own flags, whose
            # later occurrences win
            at = argv.index(ns.command) + 1
            tokens = _config_tokens(ns.config, registry[ns.command])
            try:
                ns = parser.parse_args(argv[:at] + tokens + argv[at:])
            except UsageError as exc:
                raise UsageError(f"{ns.config}: {exc}")
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help prints and leaves through argparse
        return int(exc.code or 0)

    try:
        claim, body, code = _COMMANDS[ns.command](ns)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # the CLI boundary reports failures, not tracebacks
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL

    # the header echoes the resolved run, so a saved report pins down the
    # exact run that produced it; no command writes to ns
    rows = {key: value for key, value in vars(ns).items() if key != "config"}
    rows["out"] = ns.out or "-"
    header = [f"# config: {key}={_fmt_value(rows[key])}" for key in sorted(rows)]
    text = "\n".join(header + [f"# claim: {claim}"] + body) + "\n"
    if ns.out:
        Path(ns.out).write_text(text)
    else:
        sys.stdout.write(text)
    return code


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
