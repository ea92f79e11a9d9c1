"""Reference figures for jobs too long to repeat in every benchmark run.

    python3 perfbench/reference.py

Times, with BLAS pinned to one thread as in run.py and the same output
checks: the README's ``conedeg perron --problem annulus-psi1 --n 3 --grid
1000`` through ``cli.dispatch``; acceptance criterion 6 (the radial
solves at 250/500/1000 through the API); and one 3x3 ``eigen_sym`` call
(median of 2000).  Prints one line per figure.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import run  # noqa: E402


def main() -> int:
    run._import_program()
    import numpy as np
    from conedeg import cli, matcone, perron

    import oracles as orc

    rng = np.random.default_rng(0)
    mats = [matcone.SymMatrix.from_dense(0.5 * (a + a.T)) for a in rng.normal(size=(2000, 3, 3))]
    calls = []
    for m in mats:
        t0 = perf_counter()
        matcone.eigen_sym(m)
        calls.append(perf_counter() - t0)
    print(f"eigen_sym_3x3_us={1e6 * statistics.median(calls):.1f}")

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT))
    try:
        dump, out = workdir / "u.csv", workdir / "report.csv"
        t0 = perf_counter()
        code = cli.dispatch(["perron", "--problem", "annulus-psi1", "--n", "3", "--grid", "1000",
                             "--dump", str(dump), "--out", str(out)])
        elapsed = perf_counter() - t0
        problems = orc.check_solve_row(orc.report_rows(out.read_text())[0])
        problems += orc.check_radial_dump(dump.read_text(), 1000)[1]
        print(f"perron_grid_1000_s={elapsed:.2f} exit={code} problems={problems}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    t0 = perf_counter()
    errors, cfgs, problems = [], {}, {}
    for npts in (250, 500, 1000):
        problems[npts], _ = perron.radial_sandwich_problem(npts, n=3)
        cfgs[npts] = perron.SolverConfig(tol=orc.TOL_SCALE * problems[npts].sub.h[0],
                                         max_sweeps=2_000_000)
        result = perron.perron_solve(problems[npts], cfgs[npts])
        exact = orc.radial_exact(orc.radial_nodes(npts))
        errors.append(float(np.max(np.abs(result.u.values - exact))))
    agree = perron.uniqueness_experiment(problems[500], cfgs[500]).passed
    elapsed = perf_counter() - t0
    print(f"criterion_6_s={elapsed:.2f} errors={[f'{e:.2e}' for e in errors]} agree={agree}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
