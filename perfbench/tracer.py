"""Span tracing around the calls into maniafem's modules, from outside them.

``instrument(tracer)`` swaps public entry points for timing wrappers in the
namespace of the module that calls them (``experiments`` and ``optimize``
import names directly, so patching the defining module alone would miss
those calls) and restores the originals on exit.  Nothing under ``src/`` is
edited.

Every wrapped call records a span: name, start, end, parent and a few
attributes read from its arguments and result.  The energy and gradient
closures returned by ``fe_objective`` run about a million times on the
paper ladder, so they are aggregated per closure kind instead of stored as
spans; their time still counts as covered time of the enclosing span, so
self times stay exact.  Spans are kept in memory and written out at the end.
"""

from __future__ import annotations

import contextlib
import json
import statistics
from pathlib import Path
from time import perf_counter_ns

from maniafem import experiments, fractional, functionals, optimize, studies
from maniafem.mesh import FeFunction, Mesh1D

NAME, START, END, PARENT, COVERED, ATTRS = range(6)


class Tracer:
    """In-memory span store for one single-threaded process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        # (layer name, caller module) -> [calls, ns, elements]
        self.leaves: dict[tuple[str, str], list[int]] = {}

    def span(self, name, fn, attrs=None):
        """Wrap ``fn`` so each call records a span named ``name``."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0, 0, parent, 0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[END] = perf_counter_ns()
                stack.pop()
                if parent >= 0:
                    spans[parent][COVERED] += rec[END] - rec[START]
            if attrs is not None:
                rec[ATTRS] = attrs(args, kwargs, result)
            return result

        return wrapper

    def leaf(self, name, source, fn, elements):
        """Wrap a high-frequency closure: count and time it without spans."""
        stat = self.leaves.setdefault((name, source), [0, 0, 0])
        spans, stack = self.spans, self._stack

        def wrapper(x):
            t0 = perf_counter_ns()
            result = fn(x)
            dt = perf_counter_ns() - t0
            stat[0] += 1
            stat[1] += dt
            stat[2] += elements
            if stack:
                spans[stack[-1]][COVERED] += dt
            return result

        return wrapper

    def write(self, path: Path):
        """Dump spans (times in ns, relative to the first span) as JSON."""
        t0 = self.spans[0][START] if self.spans else 0
        records = [
            {"id": i, "name": s[NAME], "start_ns": s[START] - t0, "end_ns": s[END] - t0,
             "parent": s[PARENT], "self_ns": s[END] - s[START] - s[COVERED],
             "attrs": s[ATTRS]}
            for i, s in enumerate(self.spans)
        ]
        leaves = [{"name": n, "caller": c, "calls": k, "ns": ns, "elements": el}
                  for (n, c), (k, ns, el) in sorted(self.leaves.items())]
        path.write_text(json.dumps({"spans": records, "leaves": leaves}) + "\n")


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _solve_attrs(args, kwargs, result):
    config = _arg(args, kwargs, 2, "config") or optimize.SolveConfig()
    return {"iters": result.iters, "converged": bool(result.converged),
            "grad_norm": float(result.grad_norm), "max_iters": config.max_iters}


def _seminorm_attrs(args, kwargs, result):
    n = args[0].mesh.n_elements
    return {"pairs": n * (n - 1) // 2}


def _cells_attrs(args, kwargs, result):
    return {"cells": len(args[2]) - 1}


def _points_attrs(args, kwargs, result):
    return {"points": int(getattr(args[1], "size", 1))}


def _mc_attrs(args, kwargs, result):
    return {"samples": int(_arg(args, kwargs, 3, "n_samples"))}


def _objective(tracer, source, original):
    def fe_objective(mesh, *args, **kwargs):
        energy, gradient = original(mesh, *args, **kwargs)
        n = mesh.n_elements
        return (tracer.leaf("energy", source, energy, n),
                tracer.leaf("grad", source, gradient, n))

    return fe_objective


STUDY_TERMS = ("interp_error", "value_mismatch_term", "slope_mismatch_term", "recovery_gap")
RUNNERS = ("run_gap_demo", "run_min_convergence", "run_interp_rates",
           "run_inverse_study", "run_split_rates", "run_recovery", "run_all")


def _patches(tracer):
    """(owner, attribute, replacement) for every wrapped entry point."""
    solve = tracer.span("optimize.minimize_from", optimize.minimize_from, _solve_attrs)
    patches = [
        (experiments, "minimize_from", solve),
        (optimize, "minimize_from", solve),
        (optimize, "fe_objective", _objective(tracer, "optimize", optimize.fe_objective)),
        (functionals, "fe_objective",
         _objective(tracer, "functionals", functionals.fe_objective)),
        (experiments, "seminorm_w1sp",
         tracer.span("fractional.seminorm_w1sp", experiments.seminorm_w1sp, _seminorm_attrs)),
        (experiments, "norm_wkp", tracer.span("fractional.norm_wkp", experiments.norm_wkp)),
        (studies, "norm_wkp", tracer.span("fractional.norm_wkp", studies.norm_wkp)),
        (fractional, "gagliardo_oracle_mc",
         tracer.span("fractional.gagliardo_oracle_mc", fractional.gagliardo_oracle_mc,
                     _mc_attrs)),
        (fractional, "integrate_cells",
         tracer.span("quadrature.integrate_cells", fractional.integrate_cells, _cells_attrs)),
        (studies, "integrate_cells",
         tracer.span("quadrature.integrate_cells", studies.integrate_cells, _cells_attrs)),
        (experiments, "graded_grid",
         tracer.span("quadrature.graded_grid", experiments.graded_grid)),
        (studies, "graded_grid", tracer.span("quadrature.graded_grid", studies.graded_grid)),
        (FeFunction, "evaluate", tracer.span("mesh.evaluate", FeFunction.evaluate)),
        (FeFunction, "slope_at", tracer.span("mesh.slope_at", FeFunction.slope_at)),
        (Mesh1D, "element_indices",
         tracer.span("mesh.element_indices", Mesh1D.element_indices, _points_attrs)),
    ]
    patches += [(experiments, name, tracer.span(f"studies.{name}", getattr(experiments, name)))
                for name in STUDY_TERMS]
    patches += [(experiments, name, tracer.span(f"experiments.{name}", getattr(experiments, name)))
                for name in RUNNERS]
    return patches


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Route calls into the package's modules through ``tracer``."""
    patches = _patches(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, bodies: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics per workload body, as {name: (value, unit)}."""
    groups: dict[str, list[list]] = {}
    for s in tracer.spans:
        groups.setdefault(s[NAME], []).append(s)

    def spans(*names):
        return [s for n in names for s in groups.get(n, ())]

    def total_s(*names):
        return sum(s[END] - s[START] for s in spans(*names)) * 1e-9

    def self_s(*names):
        return sum(s[END] - s[START] - s[COVERED] for s in spans(*names)) * 1e-9

    def attr_sum(name, key):
        return sum(s[ATTRS][key] for s in spans(name) if s[ATTRS])

    def leaf(name, source=None):
        rows = [v for (n, c), v in tracer.leaves.items()
                if n == name and source in (None, c)]
        return [sum(r[i] for r in rows) for i in range(3)]

    per = 1.0 / bodies
    solves = [s[ATTRS] for s in spans("optimize.minimize_from") if s[ATTRS]]
    iters = sum(a["iters"] for a in solves)
    solver_energy_calls = leaf("energy", "optimize")[0]
    energy_calls, energy_ns, energy_el = leaf("energy")
    grad_calls, grad_ns, grad_el = leaf("grad")
    seminorm_s = total_s("fractional.seminorm_w1sp")
    mc_s = total_s("fractional.gagliardo_oracle_mc")
    mc_samples = attr_sum("fractional.gagliardo_oracle_mc", "samples")
    integrate_s = total_s("quadrature.integrate_cells")
    cells = attr_sum("quadrature.integrate_cells", "cells")
    lookup_s = total_s("mesh.element_indices")
    points = attr_sum("mesh.element_indices", "points")
    terms = tuple(f"studies.{name}" for name in STUDY_TERMS)

    m = {
        "optimize.solves": (len(solves) * per, "count"),
        "optimize.solve_s": (total_s("optimize.minimize_from") * per, "s"),
        "optimize.iters": (iters * per, "count"),
        "optimize.converged_frac": (_ratio(sum(a["converged"] for a in solves), len(solves)),
                                    "frac"),
        "optimize.budget_hits": (sum(a["iters"] >= a["max_iters"] for a in solves) * per,
                                 "count"),
        "optimize.zero_iter_solves": (sum(a["iters"] == 0 for a in solves) * per, "count"),
        "optimize.final_grad_max": (max((a["grad_norm"] for a in solves), default=0.0), "1"),
        # every solver energy call after a solve's first is a line-search trial
        "optimize.step_accept_frac": (_ratio(iters, solver_energy_calls - len(solves)), "frac"),
        "functionals.energy_evals": (energy_calls * per, "count"),
        "functionals.grad_evals": (grad_calls * per, "count"),
        "functionals.energy_s": (energy_ns * 1e-9 * per, "s"),
        "functionals.grad_s": (grad_ns * 1e-9 * per, "s"),
        "functionals.energy_ns_per_element": (_ratio(energy_ns, energy_el), "ns/element"),
        "functionals.grad_ns_per_element": (_ratio(grad_ns, grad_el), "ns/element"),
        "fractional.seminorm_calls": (len(spans("fractional.seminorm_w1sp")) * per, "count"),
        "fractional.seminorm_s": (seminorm_s * per, "s"),
        "fractional.seminorm_pairs_per_s": (
            _ratio(attr_sum("fractional.seminorm_w1sp", "pairs"), seminorm_s), "pairs/s"),
        "fractional.norm_calls": (len(spans("fractional.norm_wkp")) * per, "count"),
        "fractional.norm_s": (total_s("fractional.norm_wkp") * per, "s"),
        "fractional.mc_samples": (mc_samples * per, "count"),
        "fractional.mc_s": (mc_s * per, "s"),
        "fractional.mc_samples_per_s": (_ratio(mc_samples, mc_s), "samples/s"),
        "quadrature.integrate_calls": (len(spans("quadrature.integrate_cells")) * per, "count"),
        "quadrature.cells": (cells * per, "count"),
        "quadrature.integrate_s": (integrate_s * per, "s"),
        "quadrature.integrate_self_s": (self_s("quadrature.integrate_cells") * per, "s"),
        "quadrature.cells_per_s": (_ratio(cells, integrate_s), "cells/s"),
        "quadrature.grid_s": (total_s("quadrature.graded_grid") * per, "s"),
        "mesh.lookups": (len(spans("mesh.element_indices")) * per, "count"),
        "mesh.points": (points * per, "count"),
        "mesh.lookup_s": (lookup_s * per, "s"),
        "mesh.points_per_s": (_ratio(points, lookup_s), "points/s"),
        "mesh.evaluate_s": (total_s("mesh.evaluate", "mesh.slope_at") * per, "s"),
        "studies.terms_s": (total_s(*terms) * per, "s"),
        "studies.terms_self_s": (self_s(*terms) * per, "s"),
    }
    for name in RUNNERS[:-1]:
        key = name.removeprefix("run_")
        m[f"experiments.{key}_s"] = (total_s(f"experiments.{name}") * per, "s")
    # run_all's own work: pass predicates plus CSV and summary.json writing
    m["experiments.write_s"] = (self_s("experiments.run_all") * per, "s")
    return m


def calibrate_overhead(calls: int = 20_000) -> tuple[float, float]:
    """Seconds one span wrapper and one leaf wrapper add per call."""

    def noop(*_):
        return None

    def cost(fn):
        times = []
        for _ in range(5):
            t0 = perf_counter_ns()
            for _ in range(calls):
                fn(None)
            times.append(perf_counter_ns() - t0)
        return statistics.median(times) * 1e-9 / calls

    probe = Tracer()
    bare = cost(noop)
    return (max(cost(probe.span("probe", noop)) - bare, 0.0),
            max(cost(probe.leaf("probe", "probe", noop, 1)) - bare, 0.0))


def overhead_estimate(tracer: Tracer, traced_s: float) -> float:
    """Estimated traced/untraced wall time minus 1, from calibrated costs."""
    span_cost, leaf_cost = calibrate_overhead()
    leaf_calls = sum(v[0] for v in tracer.leaves.values())
    added = span_cost * len(tracer.spans) + leaf_cost * leaf_calls
    return _ratio(added, traced_s - added)
