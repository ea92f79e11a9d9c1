"""In-memory spans at conedeg's module boundaries, and the per-layer numbers.

A traced round swaps each wrapped public function for a recording shim in
every ``conedeg`` module that holds a binding to it (the defining module
included, so calls made inside that module are seen too), and wraps
``SymMatrix.from_dense`` on the class.  A span is ``[name, start, end,
parent, op, count]``: ``parent`` is the index of the enclosing span (-1 at
the top), ``op`` the id of the benchmark operation that caused it, and
``count`` the amount of work the call reports (sweeps for ``perron_solve``,
grid nodes for ``grid_verify``).  Spans stay in memory; ``write_spans``
is called only once the traced run has ended.
"""

from __future__ import annotations

import functools
import json
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name, work count read off the return value)
WRAPPED = (
    ("cli", "dispatch", "cli.dispatch", None),
    ("perron", "perron_solve", "perron.perron_solve", lambda r: r.sweeps),
    ("perron", "uniqueness_experiment", "perron.uniqueness_experiment", None),
    ("viscosity", "grid_verify", "viscosity.grid_verify",
     lambda r: len(r.rows) + len(r.skipped)),
    ("viscosity", "first_variation_constants", "viscosity.first_variation_constants", None),
    ("viscosity", "first_variation_tilde", "viscosity.first_variation_tilde", None),
    ("viscosity", "first_variation_hat", "viscosity.first_variation_hat", None),
    ("viscosity", "touching_experiment", "viscosity.touching_experiment", None),
    ("operators", "eval_F", "operators.eval_F", None),
    ("operators", "eval_L", "operators.eval_L", None),
    ("operators", "probe_L_conditions", "operators.probe_L_conditions", None),
    ("matcone", "eigen_sym", "matcone.eigen_sym", None),
    ("matcone", "classify", "matcone.classify", None),
    ("radial", "build_counterexample", "radial.build_counterexample", None),
    ("radial", "quartic_roots", "radial.quartic_roots", None),
    ("envelopes", "upper_envelope", "envelopes.upper_envelope", None),
    ("envelopes", "lower_envelope", "envelopes.lower_envelope", None),
    ("envelopes", "upper_envelope_separable", "envelopes.upper_envelope_separable", None),
    ("envelopes", "lower_envelope_separable", "envelopes.lower_envelope_separable", None),
    ("envelopes", "check_envelope_properties", "envelopes.check_envelope_properties", None),
)
FROM_DENSE = "matcone.from_dense"
ENVELOPE_BUILDS = {
    "envelopes.upper_envelope", "envelopes.lower_envelope",
    "envelopes.upper_envelope_separable", "envelopes.lower_envelope_separable",
}
LAYERS = ("perron", "viscosity", "operators", "matcone", "radial", "envelopes", "cli", "bench")

# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER = {
    "perron.sweeps": "count",
    "perron.iterate_s": "s",
    "perron.us_per_sweep": "us",
    "perron.verify_s": "s",
    "viscosity.grid_verify.calls": "count",
    "viscosity.grid_verify.us_per_node": "us",
    "viscosity.first_variation.us_per_jet": "us",
    "viscosity.first_variation_constants_s": "s",
    "viscosity.touching_s": "s",
    "operators.eval_F.calls": "count",
    "operators.eval_F.us_per_call": "us",
    "operators.eval_L.calls": "count",
    "operators.eval_L.us_per_call": "us",
    "operators.probe_L_conditions_s": "s",
    "matcone.eigen_sym.calls": "count",
    "matcone.eigen_sym.us_per_call": "us",
    "matcone.from_dense.calls": "count",
    "matcone.from_dense.us_per_call": "us",
    "radial.build_counterexample_s": "s",
    "radial.quartic_roots_s": "s",
    "envelopes.construct_s": "s",
    "envelopes.check_s": "s",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    "trace.wall_s": "s",
    "trace.unaccounted_s": "s",
    "trace_overhead_s": "s",
}


class Tracer:
    """Span recorder; ``install`` rebinds the wrapped names, ``remove`` undoes it."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _shim(self, fn, name: str, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if count is not None:
                rec[5] = count(out)
            return out
        return traced

    def _rebind(self, owner, attr: str, new) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def install(self) -> None:
        mods = [m for key, m in sys.modules.items()
                if m is not None and (key == "conedeg" or key.startswith("conedeg."))]
        for modname, attr, name, count in WRAPPED:
            orig = getattr(sys.modules[f"conedeg.{modname}"], attr)
            shim = self._shim(orig, name, count)
            for mod in mods:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._rebind(mod, key, shim)
        sym = sys.modules["conedeg.matcone"].SymMatrix
        orig_cm = sym.__dict__["from_dense"]
        self._rebind(sym, "from_dense", classmethod(self._shim(orig_cm.__func__, FROM_DENSE, None)))

    def remove(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    out = [rec[2] - rec[1] for rec in spans]
    for rec in spans:
        if rec[3] >= 0:
            out[rec[3]] -= rec[2] - rec[1]
    return out


def layer_metrics(spans: list[list], wall: float) -> dict[str, float]:
    """Per-layer numbers for one traced round whose operations took ``wall`` s."""
    selfs = self_times(spans)
    total: dict[str, float] = {}
    calls: dict[str, int] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for rec, own in zip(spans, selfs):
        name = rec[0]
        total[name] = total.get(name, 0.0) + (rec[2] - rec[1])
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer if layer in layer_self else "bench"] += own

    sweeps = sum(rec[5] for rec in spans if rec[0] == "perron.perron_solve")
    nodes = sum(rec[5] for rec in spans if rec[0] == "viscosity.grid_verify")
    verify_in_solve = sum(
        (rec[2] - rec[1] for rec in spans
        if rec[0] == "viscosity.grid_verify" and rec[3] >= 0
        and spans[rec[3]][0] == "perron.perron_solve"),
        0.0,
    )
    iterate = total.get("perron.perron_solve", 0.0) - verify_in_solve

    def per(num: float, den: float) -> float:
        return 1e6 * num / den if den else 0.0

    jets = calls.get("viscosity.first_variation_tilde", 0)
    fv = (total.get("viscosity.first_variation_tilde", 0.0)
          + total.get("viscosity.first_variation_hat", 0.0))
    out = {
        "perron.sweeps": float(sweeps),
        "perron.iterate_s": iterate,
        "perron.us_per_sweep": per(iterate, sweeps),
        "perron.verify_s": verify_in_solve,
        "viscosity.grid_verify.calls": float(calls.get("viscosity.grid_verify", 0)),
        "viscosity.grid_verify.us_per_node": per(total.get("viscosity.grid_verify", 0.0), nodes),
        "viscosity.first_variation.us_per_jet": per(fv, jets),
        "viscosity.first_variation_constants_s":
            total.get("viscosity.first_variation_constants", 0.0),
        "viscosity.touching_s": total.get("viscosity.touching_experiment", 0.0),
        "operators.probe_L_conditions_s": total.get("operators.probe_L_conditions", 0.0),
        "radial.build_counterexample_s": total.get("radial.build_counterexample", 0.0),
        "radial.quartic_roots_s": total.get("radial.quartic_roots", 0.0),
        "envelopes.construct_s": sum(total.get(n, 0.0) for n in ENVELOPE_BUILDS),
        "envelopes.check_s": sum(
            own for rec, own in zip(spans, selfs)
            if rec[0] == "envelopes.check_envelope_properties"
        ),
        **{f"{layer}.self_s": t for layer, t in layer_self.items()},
        "trace.wall_s": wall,
        "trace.unaccounted_s": wall - sum(selfs),
    }
    for name in ("operators.eval_F", "operators.eval_L", "matcone.eigen_sym", FROM_DENSE):
        n = calls.get(name, 0)
        out[f"{name}.calls"] = float(n)
        out[f"{name}.us_per_call"] = per(total.get(name, 0.0), n)
    return out


def write_spans(rounds: list[list[list]], path) -> None:
    """One JSON object per span, ids and parents local to the traced round.

    Called after the traced run has ended.
    """
    with open(path, "w") as fh:
        for r, spans in enumerate(rounds):
            for i, (name, t0, t1, parent, op, count) in enumerate(spans):
                fh.write(json.dumps({"round": r, "id": i, "name": name, "start": t0, "end": t1,
                                     "parent": parent, "op": op, "count": count}) + "\n")
