"""conedeg benchmark: one workload per process, checked outputs, one JSON result.

    python3 perfbench/run.py --workload dirichlet|jets|certify|all \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  The package is imported from ``src/``.
``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones and, once the run has ended, writes its spans to
``.perfbench-spans-<workload>.jsonl`` in the root (see README.md).  The
last line of standard output is the result.
"""

from __future__ import annotations

import os

# BLAS pinned to one thread, before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("dirichlet", "jets", "certify")
SETUP_PROBES = 11

def _args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0,
                    help="keep starting whole rounds while they are due to end near this time")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "conedeg" / "__init__.py").is_file():
        _fail(f"no conedeg package under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import conedeg.cli  # noqa: F401  (pulls in every library module)
    import workloads
    return workloads


def env_stamp() -> dict:
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        import numba  # noqa: F401
        numba_ok = True
    except Exception:
        numba_ok = False
    head = ROOT / ".git" / "HEAD"
    commit = "unknown"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy_version,
        "numba_imports": numba_ok,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {v: os.environ.get(v) for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                                        "MKL_NUM_THREADS")},
        "commit": commit,
    }


def setup_seconds(args) -> float:
    """Median wall time of fresh processes that import conedeg and build the inputs."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, stdout=subprocess.DEVNULL)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_round(wl, tracer=None) -> dict:
    """Run every operation once; time the program work, then check it."""
    times: dict[str, float] = {}
    failed: list[str] = []
    problems: list[str] = []
    wl.state.clear()
    for i, op in enumerate(wl.ops):
        try:
            if tracer is None:
                t0 = perf_counter()
                out = op.run()
                times[op.name] = perf_counter() - t0
            else:
                tracer.op = i
                t0 = perf_counter()
                with tracer.span(f"bench.op.{op.name}"):
                    out = op.run()
                times[op.name] = perf_counter() - t0
        except Exception as exc:  # noqa: BLE001  an op that does not complete counts as failed
            failed.append(f"{op.name}: {exc}")
            continue
        problems += [f"{op.name}: {p}" for p in op.check(out)]
    return {"times": times, "failed": failed, "problems": problems,
            "wall": sum(times.values())}


def traced_round(wl) -> tuple[dict, list]:
    import tracing
    tracer = tracing.Tracer()
    tracer.install()
    try:
        rec = run_round(wl, tracer)
    finally:
        tracer.remove()
    return rec, tracer.spans


def measure(wl, args) -> tuple[list[dict], list[dict], list[list]]:
    """Whole rounds (traced and untraced in turn with --trace 1) for about --seconds.

    Another round starts while it is due to end no later than half a round
    past --seconds, so a run ends within half a round of it.
    """
    plain, traced, spans = [], [], []
    t_start = perf_counter()
    while True:
        t0 = perf_counter()
        plain.append(run_round(wl))
        if args.trace:
            rec, round_spans = traced_round(wl)
            traced.append(rec)
            spans.append(round_spans)
        step = perf_counter() - t0
        if perf_counter() - t_start + 0.5 * step > args.seconds:
            return plain, traced, spans


def op_medians(rounds: list[dict]) -> dict[str, float]:
    """Each operation's median time over the rounds in which no operation failed."""
    clean = [r for r in rounds if not r["failed"]] or rounds
    names = {op for r in clean for op in r["times"]}
    return {op: statistics.median(r["times"][op] for r in clean if op in r["times"])
            for op in names}


def stage_metrics(wl, med: dict[str, float]) -> dict:
    """Workload-specific figures from the per-operation medians of the stages that ran."""
    stage_of = {op.name: op.stage for op in wl.ops}
    out = {}
    for stage, (name, unit, value) in wl.stages.items():
        t = sum(t for op, t in med.items() if stage_of[op] == stage)
        if t > 0.0:
            out[name] = {"value": value(t), "unit": unit}
    return out


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        sys.stdout.write("".join(f"[{name}] {ln}\n" for ln in lines[:-1]))
        if proc.returncode != 0 or not lines:
            _fail(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        print(f"[{name}] {lines[-1]}", flush=True)
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items() for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    args = _args(argv)
    if args.workload == "all":
        _import_program()
        return run_all(args)
    workloads = _import_program()
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_only:
            return 0
        setup = None if args.trace else setup_seconds(args)
        import oracles
        lax = oracles.negative_controls() + wl.controls()
        plain, traced, spans = measure(wl, args)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = plain + traced
    problems = [p for r in rounds for p in r["problems"]]
    failures = [f for r in rounds for f in r["failed"]]
    for msg in [f"checker accepts a wrong input: {n}" for n in lax] + problems[:20] + failures[:20]:
        print(f"perfbench: {msg}", file=sys.stderr)

    if args.trace:
        import tracing
        per_round = [tracing.layer_metrics(s, r["wall"]) for s, r in zip(spans, traced)]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace_overhead_s"] = (statistics.median(r["wall"] for r in traced)
                                      - statistics.median(r["wall"] for r in plain))
        metrics = {k: {"value": values[k], "unit": u} for k, u in tracing.PER_LAYER.items()}
        tracing.write_spans(spans, ROOT / f".perfbench-spans-{args.workload}.jsonl")
    else:
        med = op_medians(plain)
        metrics = {
            "setup_s": {"value": setup, "unit": "s"},
            "wall_s": {"value": sum(med.values()), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        for name, m in stage_metrics(wl, med).items():
            print(f"# stage: {name}={m['value']:.6g} {m['unit']}")
    print(f"# rounds: {len(plain)} untraced, {len(traced)} traced; {len(wl.ops)} ops per round")
    print(f"# env: {json.dumps(env_stamp(), sort_keys=True)}")
    print(json.dumps({
        "correct": not lax and not problems and not failures,
        "attempted": len(rounds) * len(wl.ops),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
