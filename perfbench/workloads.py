"""The three workloads: their inputs, their operations, and the checks.

A workload is built once per process from its seed (that is the set-up
the benchmark times).  A round runs every operation once, in order.  An
operation is one README command run in-process through
``conedeg.cli.dispatch`` with ``--out`` to a scratch file, or one call into
the public API for paths no command reaches.  ``run`` is the timed
program work; ``check`` is the benchmark's own verification and is not
timed.  Library calls go through module attributes (``viscosity.grid_verify``
rather than an imported name) so a traced round sees them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from conedeg import cli, envelopes, matcone, operators, radial, viscosity

import oracles as orc


class OpFailed(Exception):
    """The program did not complete the operation (unexpected exit code)."""


@dataclass
class Op:
    name: str
    stage: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    # stage name -> (metric name, unit, value from the stage's median seconds)
    stages: dict[str, tuple[str, str, Callable[[float], float]]]
    controls: Callable[[], list[str]] = lambda: []
    state: dict = field(default_factory=dict)


def _seeds(seed: int, count: int) -> list[int]:
    """Per-operation seeds derived from the workload seed."""
    return [int(s) for s in np.random.default_rng(seed).integers(0, 2**31 - 1, size=count)]


def _seconds(name: str) -> tuple[str, str, Callable[[float], float]]:
    return name, "s", lambda t: t


class _Cli:
    """Builds CLI operations that write their report into the scratch dir."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir

    def op(self, name: str, stage: str, argv: list[str], check: Callable[[str], list[str]],
           expect: int = cli.EXIT_PASS) -> Op:
        out = self.workdir / f"{name}.csv"
        full = argv + ["--out", str(out)]

        def run() -> str:
            code = cli.dispatch(full)
            if code != expect:
                raise OpFailed(f"conedeg {' '.join(argv)} exited {code}, expected {expect}")
            return out.read_text()

        return Op(name, stage, run, check)

    def path(self, name: str) -> Path:
        return self.workdir / name


# ---------------------------------------------------------------------------
# dirichlet: crossing sweeps between a sub/super pair


def dirichlet(seed: int, workdir: Path) -> Workload:
    """Deterministic: the seed is not used."""
    c = _Cli(workdir)
    state: dict = {}

    def radial_op(npts: int) -> Op:
        dump = c.path(f"radial_{npts}_u.csv")

        def check(text: str) -> list[str]:
            problems = orc.check_solve_row(orc.report_rows(text)[0])
            err, more = orc.check_radial_dump(dump.read_text(), npts)
            state[npts] = err
            if npts == 250:
                more += orc.check_order(state.get(125, math.nan), err,
                                        orc.spacing(orc.RADIAL_BOX, 125),
                                        orc.spacing(orc.RADIAL_BOX, 250))
            return problems + more

        return c.op(f"perron_radial_{npts}", "radial",
                    ["perron", "--problem", "annulus-psi1", "--n", "3", "--grid", str(npts),
                     "--dump", str(dump)], check)

    def box_op(npts: int) -> Op:
        dump = c.path(f"box_{npts}_u.csv")

        def check(text: str) -> list[str]:
            return (orc.check_solve_row(orc.report_rows(text)[0])
                    + orc.check_box_dump(dump.read_text(), npts))

        return c.op(f"perron_box_{npts}", "box",
                    ["perron", "--problem", "box-log", "--grid", str(npts), "--dump", str(dump)],
                    check)

    ops = [
        radial_op(125),
        radial_op(250),
        c.op("uniqueness_250", "uniqueness",
             ["uniqueness", "--problem", "annulus-psi1", "--n", "3", "--grid", "250"],
             lambda text: orc.check_uniqueness_row(orc.report_rows(text)[0], 250)),
        box_op(33),
        box_op(65),
    ]
    stages = {"radial": _seconds("radial_solve_s"), "uniqueness": _seconds("uniqueness_s"),
              "box": _seconds("box_solve_s")}
    return Workload("dirichlet", ops, stages, state=state)


# ---------------------------------------------------------------------------
# jets: pointwise jet and grid checks against a cone

FV_JETS = 1000
GAP_SAMPLES = 100
BOX_VERIFY = 65
RADIAL_VERIFY = 1000


def _random_jets(rng: np.random.Generator, count: int) -> list:
    """Jets drawn like `first-variation` draws them: |s| <= 1, |p| <= 10."""
    jets = []
    for _ in range(count):
        x = rng.uniform(-0.577, 0.577, 3)
        p = rng.uniform(-1.0, 1.0, 3)
        p *= rng.uniform(0.0, 10.0) / max(1e-12, float(np.linalg.norm(p)))
        a = rng.normal(size=(3, 3))
        h = matcone.SymMatrix.from_dense(0.5 * (a + a.T) * rng.uniform(0.0, 5.0))
        jets.append(operators.Jet2(x, rng.uniform(-1.0, 1.0), p, h))
    return jets


def _box_field(npts: int, bump: float = 0.0) -> envelopes.GridFn:
    xs = orc.box_axis(npts)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    lo, hi = orc.BOX_SIDE
    vals = orc.box_exact(gx, gy) + bump * (gx - lo) * (hi - gx) * (gy - lo) * (hi - gy)
    return envelopes.GridFn((orc.BOX_SIDE, orc.BOX_SIDE), vals)


def _radial_field(npts: int) -> envelopes.GridFn:
    return envelopes.GridFn((orc.RADIAL_BOX,), orc.radial_exact(orc.radial_nodes(npts)))


def _verify(field: envelopes.GridFn, cone: matcone.ConeSpec, amb: int):
    return viscosity.grid_verify(field, operators.OperatorSpec.quad_const(1.0, 0.0), cone,
                                 tol=orc.TOL_SCALE * max(field.h), ambient_n=amb)


def _verify_problems(report, interior: int) -> list[str]:
    return orc.check_verify_counts(report.counts, len(report.skipped),
                                   report.consistent_solution, interior)


def jets(seed: int, workdir: Path) -> Workload:
    c = _Cli(workdir)
    fv_seed, probe_seed, gap_seed = _seeds(seed, 3)
    quad = operators.example_varying_quad()
    sample = _random_jets(np.random.default_rng(gap_seed), GAP_SAMPLES)
    box = _box_field(BOX_VERIFY)
    ring = _radial_field(RADIAL_VERIFY)
    state: dict = {}

    def check_fv(text: str) -> list[str]:
        consts = dict(kv.split("=") for kv in orc.report_tags(text, "constants")[0].split())
        state["P"] = viscosity.PerturbationParams(**{k: float(v) for k, v in consts.items()})
        return orc.check_gap_rows(orc.report_rows(text), FV_JETS)

    def run_gaps() -> list[tuple[np.ndarray, np.ndarray]]:
        if "P" not in state:
            raise OpFailed("no constants from first-variation in this round")
        P = state.pop("P")
        out = []
        for j in sample:
            for step in (viscosity.first_variation_tilde, viscosity.first_variation_hat):
                _, gap = step(j, P, quad)
                out.append((gap.dense(), matcone.eigen_sym(gap).values))
        return out

    def check_gaps(pairs) -> list[str]:
        problems = []
        for dense, ours in pairs:
            ref = np.linalg.eigvalsh(dense)
            problems += orc.check_eigs(ours, ref)
            if ref[0] < -1e-10:
                problems.append(f"sampled gap eigenvalue {ref[0]:.3e} < -1e-10")
        return problems[:5]

    ops = [
        c.op("first_variation", "first_variation",
             ["first-variation", "--jets", str(FV_JETS), "--seed", str(fv_seed)], check_fv),
        Op("gap_eigvalsh", "gaps", run_gaps, check_gaps),
        c.op("probe_L", "probe_l",
             ["probe-L", "--operator", "genL:tanh_quad", "--samples", "400",
              "--seed", str(probe_seed)],
             lambda text: orc.check_probe_rows(orc.report_rows(text))),
        Op("verify_box_65", "verify", lambda: _verify(box, matcone.ConeSpec.gamma(1), 2),
           lambda rep: _verify_problems(rep, (BOX_VERIFY - 2) ** 2)),
        Op("verify_radial_1000", "verify", lambda: _verify(ring, matcone.ConeSpec.trace(), 3),
           lambda rep: _verify_problems(rep, RADIAL_VERIFY - 2)),
    ]
    nodes = (BOX_VERIFY - 2) ** 2 + RADIAL_VERIFY - 2
    stages = {
        "first_variation": _seconds("first_variation_s"),
        "probe_l": _seconds("probe_l_s"),
        "verify": ("verify_node_rate", "1/s", lambda t: nodes / t),
    }

    def controls() -> list[str]:
        # a bumped box field is a strict subsolution, not a solution
        bumped = _verify(_box_field(17, bump=50.0), matcone.ConeSpec.gamma(1), 2)
        return [] if _verify_problems(bumped, 15 * 15) else ["verify_counts(bumped field)"]

    return Workload("jets", ops, stages, controls, state)


# ---------------------------------------------------------------------------
# certify: counterexample certificates, touching sets, envelopes

ENV_NODES = 101
ENV_EPS = (1e-1, 1e-2, 1e-3)
TOUCH_TRIALS = 20


def piecewise_2d(rng: np.random.Generator, npts: int) -> envelopes.GridFn:
    """Plateaus cut by random half-planes on [-1, 1]^2, plus a ramp."""
    xs = np.linspace(-1.0, 1.0, npts)
    gx, gy = np.meshgrid(xs, xs, indexing="ij")
    vals = rng.uniform(-0.5, 0.5) * gx + rng.uniform(-0.5, 0.5) * gy
    for _ in range(int(rng.integers(3, 7))):
        normal = rng.normal(size=2)
        cut = gx * normal[0] + gy * normal[1] > rng.uniform(-0.7, 0.7)
        vals = vals + rng.uniform(-1.0, 1.0) * cut
    return envelopes.GridFn(((-1.0, 1.0), (-1.0, 1.0)), vals)


def certify(seed: int, workdir: Path) -> Workload:
    c = _Cli(workdir)
    touch_seed, env_seed, src_seed = _seeds(seed, 3)
    src = piecewise_2d(np.random.default_rng(src_seed), ENV_NODES)
    neg = src.with_values(-src.values)

    def ctex_check(touching: str, quartic=None) -> Callable[[str], list[str]]:
        def check(text: str) -> list[str]:
            problems = orc.check_certificate(text, touching)
            if quartic is not None:
                problems += orc.check_root_brackets(orc.parse_root_brackets(text), *quartic)
            return problems
        return check

    def run_quartics() -> tuple[dict, dict]:
        beta = radial.QuarticSpec.p4_shifted(Fraction(-3))
        nondec = radial.QuarticSpec.p4_tilde_shifted(Fraction(-36, 25))
        return ({t: radial.quartic_eval(beta, t) for t in orc.BETA_SIGN_VALUES},
                {t: radial.quartic_eval(nondec, t) for t in orc.NONDEC_VALUES})

    def suite(side: str) -> Op:
        return Op(f"envelope_{side}_2d", "envelope",
                  lambda: envelopes.check_envelope_properties(src, list(ENV_EPS), side),
                  lambda rep: ([] if rep.all_ok and len(rep.rows) == len(ENV_EPS)
                               else [f"{side} envelope suite fails"]))

    def run_duality():
        return (envelopes.lower_envelope(src, ENV_EPS[1]), envelopes.upper_envelope(neg, ENV_EPS[1]),
                envelopes.upper_envelope_separable(neg, ENV_EPS[1]))

    def check_duality(res) -> list[str]:
        low, up, sep = res
        return (orc.check_bitwise(low.env.values, -up.env.values, "lower and -upper(-w)")
                + orc.check_bitwise(low.argpt, up.argpt, "lower and upper(-w) argpt")
                + orc.check_bitwise(up.env.values, sep.env.values, "brute and separable")
                + orc.check_bitwise(up.argpt, sep.argpt, "brute and separable argpt"))

    ops = [
        c.op("ctex_beta_sign", "certificate", ["ctex", "--kind", "beta-sign", "--alpha", "-3"],
             ctex_check("[2]", (orc.BETA_SIGN_Q, orc.BETA_SIGN_FENCES))),
        c.op("ctex_nondec", "certificate", ["ctex", "--kind", "nondec"],
             ctex_check("[2]", (orc.NONDEC_Q, orc.NONDEC_FENCES))),
        c.op("ctex_bprime", "certificate", ["ctex", "--kind", "bprime"], ctex_check("[2]")),
        c.op("ctex_holder", "certificate", ["ctex", "--kind", "holder"], ctex_check("[0]")),
        Op("quartic_exact", "certificate", run_quartics,
           lambda got: (orc.check_exact_values(got[0], orc.BETA_SIGN_VALUES)
                        + orc.check_exact_values(got[1], orc.NONDEC_VALUES))),
        c.op("touching_cusp", "certificate", ["touching", "--pair", "cusp"],
             lambda text: orc.check_cusp_touch(orc.report_rows(text)[0]),
             expect=cli.EXIT_EXPECTED_VIOLATION),
        c.op("touching_random", "certificate",
             ["touching", "--pair", "random", "--trials", str(TOUCH_TRIALS),
              "--seed", str(touch_seed)],
             lambda text: orc.check_random_touch(orc.report_rows(text), TOUCH_TRIALS)),
        c.op("dyadic", "certificate", ["dyadic"],
             lambda text: orc.check_dyadic(orc.report_rows(text))
             + orc.check_all_true(orc.report_rows(text), "ok", 5)),
        c.op("kelvin_bubble", "certificate", ["kelvin", "--field", "bubble"],
             lambda text: orc.check_all_true(orc.report_rows(text), "ok", 19)),
        c.op("envelope_random", "envelope",
             ["envelope", "--source", "random", "--seed", str(env_seed), "--eps", "1e-2,1e-3"],
             lambda text: orc.check_all_true(orc.report_rows(text), "row_ok", 2)),
        suite("upper"),
        suite("lower"),
        Op("envelope_duality_2d", "envelope", run_duality, check_duality),
    ]
    stages = {"certificate": _seconds("certificate_s"), "envelope": _seconds("envelope_s")}
    return Workload("certify", ops, stages)


WORKLOADS = {"dirichlet": dirichlet, "jets": jets, "certify": certify}
