"""In-memory span tracing of lntlab's layers, and the per-layer metrics.

``instrument`` wraps each layer's public functions where other modules bind
them (``lntlab.singular.integrate_adaptive``, ``lntlab.shooting.shoot``, the
CLI handler table, ...), so no file of the package changes. A span records
its name, layer, start, end, parent span and a few counts taken from the
call's arguments or result. Spans stay in memory until ``write`` saves them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
from collections import defaultdict
from time import perf_counter

LAYERS = ("params", "ode", "singular", "shooting", "exponents", "spectral", "cli", "reports")
ORIGIN_RADIUS = 1e-3  # steps ending below this radius count as collapse-layer steps


class Tracer:
    """Spans as lists [name, layer, start, end, parent index, info]."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, layer: str, info=None):
        name = f"{layer}.{fn.__name__}"
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[3] = perf_counter()
                stack.pop()
            if info is not None:
                rec[5] = info(args, kwargs, out)
            return out

        return traced

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run_id": self.run_id, "fields": ["name", "layer", "start", "end",
                                                         "parent", "info"],
                       "spans": self.spans}, fh)
            fh.write("\n")


def _steps_info(args, kwargs, traj):
    r = traj.r
    return {"steps": int(r.size - 1),
            "origin": int((r[1:] < ORIGIN_RADIUS).sum()),
            "probe": not kwargs.get("events", True)}


def _bytes_info(args, kwargs, out):
    return {"bytes": os.path.getsize(args[1])}


_INFO = {
    "ode.integrate_adaptive": _steps_info,
    "spectral.assemble_operator": lambda a, k, op: {"nodes": int(op.form.diag.size)},
    "spectral.morse_scan": lambda a, k, res: {"cutoffs": len(res.reports)},
    "reports.to_csv": _bytes_info,
    "reports.to_json": _bytes_info,
    "reports.save": _bytes_info,
}


def instrument(tracer: Tracer) -> None:
    """Wrap every layer's public functions in all lntlab namespaces."""
    mods = {layer: importlib.import_module(f"lntlab.{layer}") for layer in LAYERS}
    originals = {}  # id(original) -> (original, layer)
    for layer, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr)
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                originals[id(obj)] = (obj, layer)
    # radius evaluations of the root finder go through this private helper
    helper = mods["exponents"]._critical_radius_and_crossings
    originals[id(helper)] = (helper, "exponents")
    originals[id(mods["cli"].main)] = (mods["cli"].main, "cli")
    wrapped = {key: tracer.wrap(fn, layer, _INFO.get(f"{layer}.{fn.__name__}"))
               for key, (fn, layer) in originals.items()}

    namespaces = [vars(m) for name, m in sys.modules.items()
                  if name == "lntlab" or name.startswith("lntlab.")]
    for ns in namespaces:
        for key, value in list(ns.items()):
            if id(value) in wrapped and value is originals[id(value)][0]:
                ns[key] = wrapped[id(value)]
    for k, handler in mods["cli"]._HANDLERS.items():
        mods["cli"]._HANDLERS[k] = tracer.wrap(handler, "cli", lambda a, kw, o: {"handler": 1})

    traj = mods["ode"].RadialTrajectory
    traj.sample = tracer.wrap(traj.sample, "ode")
    traj.to_csv = tracer.wrap(traj.to_csv, "reports", _bytes_info)
    traj.to_json = tracer.wrap(traj.to_json, "reports", _bytes_info)
    bundle = mods["reports"].ReportBundle
    bundle.save = tracer.wrap(bundle.save, "reports", _bytes_info)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], first: int, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of the spans from index ``first`` on (one round)."""
    dur = {k: s[3] - s[2] for k, s in enumerate(spans) if k >= first}
    child = defaultdict(float)
    for k in dur:
        if spans[k][4] >= 0:
            child[spans[k][4]] += dur[k]
    self_s = defaultdict(float)
    count = defaultdict(int)
    incl = defaultdict(float)
    info = defaultdict(float)
    under_shoot_steps = 0
    under_scan_assemblies = 0
    for k, d in dur.items():
        name, layer, _, _, parent, extra = spans[k]
        self_s[layer] += d - child[k]
        count[name] += 1
        incl[name] += d
        if extra:
            for key, v in extra.items():
                info[f"{name}:{key}"] += v
            if "handler" in extra:
                info["handler_s"] += d
        if extra and name in ("ode.integrate_adaptive", "spectral.assemble_operator"):
            ancestors = set()
            while parent >= 0:
                ancestors.add(spans[parent][0])
                parent = spans[parent][4]
            if name == "ode.integrate_adaptive":
                if extra["probe"]:
                    info["probe_s"] += d
                if "shooting.shoot" in ancestors:
                    under_shoot_steps += extra["steps"]
            elif "spectral.morse_scan" in ancestors:
                under_scan_assemblies += 1
            if name == "spectral.assemble_operator":
                info["max_nodes"] = max(info["max_nodes"], extra["nodes"])
    steps = info["ode.integrate_adaptive:steps"]
    layer_total = sum(self_s[layer] for layer in LAYERS)
    return {
        "ode.calls": count["ode.integrate_adaptive"],
        "ode.steps": steps,
        "ode.steps_origin": info["ode.integrate_adaptive:origin"],
        "ode.self_s": self_s["ode"],
        "ode.us_per_step": 1e6 * _ratio(incl["ode.integrate_adaptive"], steps),
        "singular.solves": count["singular.solve_singular"],
        "singular.seed_probes": info["ode.integrate_adaptive:probe"],
        "singular.seed_probe_s": info["probe_s"],
        "singular.solves_per_radius": _ratio(count["singular.solve_singular"],
                                             count["singular.solve_with_criticals"]),
        "singular.self_s": self_s["singular"],
        "shooting.shots": count["shooting.shoot"],
        "shooting.steps_per_shot": _ratio(under_shoot_steps, count["shooting.shoot"]),
        "shooting.self_s": self_s["shooting"],
        "exponents.radius_evals": _ratio(count["exponents._critical_radius_and_crossings"],
                                         count["exponents.find_exponent"]),
        "exponents.self_s": self_s["exponents"],
        "spectral.assemblies": count["spectral.assemble_operator"],
        "spectral.nodes": info["spectral.assemble_operator:nodes"],
        "spectral.max_nodes": info["max_nodes"],
        "spectral.tries_per_cutoff": _ratio(under_scan_assemblies,
                                            info["spectral.morse_scan:cutoffs"]),
        "spectral.assemble_s": incl["spectral.assemble_operator"],
        "spectral.inertia_s": incl["spectral.negative_count"],
        "spectral.eig_s": incl["spectral.smallest_eigenvalues"],
        "spectral.self_s": self_s["spectral"],
        "params.self_s": self_s["params"],
        "cli.handler_s": info["handler_s"],
        "cli.self_s": self_s["cli"],
        "reports.write_s": incl["reports.to_csv"] + incl["reports.to_json"]
        + incl["reports.save"],
        "reports.bytes": info["reports.to_csv:bytes"] + info["reports.to_json:bytes"]
        + info["reports.save:bytes"],
        "reports.self_s": self_s["reports"],
        "trace.wall_s": wall_s,
        "trace.coverage": _ratio(layer_total, wall_s),
    }
