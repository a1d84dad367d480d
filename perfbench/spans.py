"""In-memory span tracing around the public names of the rsmerton modules.

`Tracer.install()` replaces each traced function in every rsmerton module that
bound it (a `from ... import` binds a copy, so `rk4_solve` lives in both
`ode_engine` and `equilibrium`), plus two methods on their classes;
`Tracer.uninstall()` puts the originals back. Spans are kept in a list as
(name, start, end, parent, op, attrs) and written out once the run ends. The
ODE right-hand sides are not wrapped: they run 4 times per RK4 step, so their
count is 4 x steps and wrapping them would swamp the sweep being measured.

Counts come from call arguments and return values only, so they repeat exactly
for the same inputs. Kernel times (`sweep_s`, `interp_by_state_s`,
`residual_s`, `sample_s`, `walk_s`) are self times; times of API calls
(`solve_s`, `picard_s`, `estimate_J_s`, `fk_s`, `slope_s`, `cli.*`) include
their children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

import rsmerton
from rsmerton import cli, core_model, ctmc, equilibrium, ode_engine, reporting, simulate

MODULES = (rsmerton, ode_engine, equilibrium, ctmc, simulate, cli, core_model, reporting)

# (defining module, function name, span name)
FUNCTIONS = (
    (ode_engine, "rk4_solve", "ode_engine.rk4_solve"),
    (ode_engine, "solve_terminal_ode", "ode_engine.solve_terminal_ode"),
    (ode_engine, "interp_by_state", "ode_engine.interp_by_state"),
    (ode_engine, "residual_norm", "ode_engine.residual_norm"),
    (equilibrium, "solve_g", "equilibrium.solve_g"),
    (equilibrium, "solve_log", "equilibrium.solve_log"),
    (equilibrium, "solve_market_ode", "equilibrium.solve_market_ode"),
    (equilibrium, "picard_apply", "equilibrium.picard_apply"),
    (ctmc, "sample_skeletons", "ctmc.sample_skeletons"),
    (simulate, "estimate_J", "simulate.estimate_J"),
    (simulate, "feynman_kac_value", "simulate.feynman_kac_value"),
    (cli, "run", "cli.run"),
    (cli, "reproduce_fig1", "cli.reproduce_fig1"),
    (cli, "slope_certificate", "cli.slope_certificate"),
)
METHODS = (
    (simulate.SlopeOracle, "slope", "simulate.SlopeOracle.slope"),
    (equilibrium.ConsumptionCurve, "to_csv", "equilibrium.ConsumptionCurve.to_csv"),
)
WALK = "ctmc.iter_cells.next"


class Tracer:
    """Spans of one operation (one workload body), numbered `op`."""

    def __init__(self, op: int):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self.op = op

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, attrs: dict | None = None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[5] = attrs
        self._stack.pop()

    def _wrap(self, fn, name: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            self.spans[idx][5] = _attrs(name, args, kwargs, out)
            return out

        return traced

    def _wrap_iter_cells(self, fn):
        @functools.wraps(fn)
        def traced(skel, edges):
            gen = fn(skel, edges)
            while True:
                idx = self._open(WALK)
                try:
                    item = next(gen)
                except StopIteration:
                    self._close(idx, {"paths": skel.n_paths, "cells": 0})
                    return
                corr = item[3]
                self._close(idx, {
                    "paths": skel.n_paths,
                    "cells": 1,
                    "rounds": 0 if corr is None else len(corr[1]),
                })
                yield item

        return traced

    def install(self):
        """Replace every binding of the traced names; uninstall() restores them.

        A name the package no longer defines is skipped, and its metrics read 0.
        """
        targets = [(fn, self._wrap(fn, name)) for mod, fname, name in FUNCTIONS
                   if (fn := getattr(mod, fname, None)) is not None]
        if hasattr(ctmc, "iter_cells"):
            targets.append((ctmc.iter_cells, self._wrap_iter_cells(ctmc.iter_cells)))
        for original, wrapped in targets:
            for mod in MODULES:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapped)
        for cls, meth, name in METHODS:
            original = cls.__dict__.get(meth)
            if original is not None:
                self._saved.append((cls, meth, original))
                setattr(cls, meth, self._wrap(original, name))

    def uninstall(self):
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def write(self, f):
        """Spans as JSON lines: name, start, end, parent (index within the op), op, attrs."""
        for name, t0, t1, parent, op, attrs in self.spans:
            f.write(json.dumps({"name": name, "start": t0, "end": t1,
                                "parent": parent, "op": op, "attrs": attrs}) + "\n")


def _attrs(name: str, args, kwargs, out) -> dict | None:
    """Counts read from a call's arguments and its return value."""
    if name == "ode_engine.rk4_solve":
        return {"steps": int(_arg(args, kwargs, 1, "n_steps"))}
    if name == "ode_engine.solve_terminal_ode":
        return {"steps": int(out.grid.size - 1)}
    if name == "ctmc.sample_skeletons":
        return {"paths": int(_arg(args, kwargs, 4, "n_paths")),
                "jumps": int(np.isfinite(out.jump_times).sum())}
    if name == "equilibrium.solve_market_ode":
        return {"window": _arg(args, kwargs, 7, "horizon") is not None}
    return None


def _arg(args, kwargs, pos: int, key: str, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def unit_of(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric == "ctmc.jumps_per_path":
        return "jumps/path"
    if metric.endswith("_frac"):
        return "ratio"
    return "count"


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-layer counts and times of one operation's spans (see README.md)."""
    own = self_times(spans)
    names = [s[0] for s in spans]

    def ancestor(i: int, wanted: tuple) -> str | None:
        p = spans[i][3]
        while p >= 0:
            if names[p] in wanted:
                return names[p]
            p = spans[p][3]
        return None

    tot = defaultdict(float)  # inclusive time per span name
    slf = defaultdict(float)  # self time per span name
    calls = defaultdict(int)
    for i, (name, t0, t1, _p, _op, _a) in enumerate(spans):
        tot[name] += t1 - t0
        slf[name] += own[i]
        calls[name] += 1

    steps = swept_in_solves = useful = doublings = 0
    paths = jumps = cells = corrected = rounds = 0
    picard_cells = ej_cells = picard_starts = windows = tails = 0
    for i, (name, _t0, _t1, parent, _op, a) in enumerate(spans):
        if name == "ode_engine.rk4_solve":
            steps += a["steps"]
            if parent >= 0 and names[parent] == "ode_engine.solve_terminal_ode":
                swept_in_solves += a["steps"]
                doublings += 1
        elif name == "ode_engine.solve_terminal_ode":
            useful += a["steps"]
            doublings -= 1  # the first sweep of each solve is not a doubling
        elif name == "ctmc.sample_skeletons":
            paths += a["paths"]
            jumps += a["jumps"]
            if ancestor(i, ("equilibrium.picard_apply",)):
                picard_starts += 1
        elif name == WALK and a["cells"]:
            cells += 1
            corrected += a["rounds"] > 0
            rounds += a["rounds"]
            owner = ancestor(i, ("equilibrium.picard_apply", "simulate.estimate_J"))
            if owner == "equilibrium.picard_apply":
                picard_cells += a["paths"]
            elif owner == "simulate.estimate_J":
                ej_cells += a["paths"]
        elif name == "equilibrium.solve_market_ode" and ancestor(
            i, ("simulate.SlopeOracle.slope",)
        ):
            if a["window"]:
                windows += 1
            else:
                tails += 1

    def rate(num, secs):
        return num / secs if secs > 0 else 0.0

    sweep_s = slf["ode_engine.rk4_solve"]
    sample_s = slf["ctmc.sample_skeletons"]
    return {
        "ode_engine.sweep_s": sweep_s,
        "ode_engine.steps": steps,
        "ode_engine.steps_per_s": rate(steps, sweep_s),
        "ode_engine.rhs_evals": 4 * steps,
        "ode_engine.useful_step_frac": useful / swept_in_solves if swept_in_solves else 0.0,
        "ode_engine.doublings": doublings,
        "ode_engine.interp_by_state_s": slf["ode_engine.interp_by_state"],
        "ode_engine.interp_by_state_calls": calls["ode_engine.interp_by_state"],
        "ode_engine.residual_s": slf["ode_engine.residual_norm"],
        "equilibrium.solve_s": tot["equilibrium.solve_g"] + tot["equilibrium.solve_log"],
        "equilibrium.solves": calls["equilibrium.solve_g"] + calls["equilibrium.solve_log"],
        "equilibrium.picard_s": tot["equilibrium.picard_apply"],
        "equilibrium.picard_starts": picard_starts,
        "equilibrium.picard_path_cells": picard_cells,
        "equilibrium.picard_path_cells_per_s": rate(picard_cells, tot["equilibrium.picard_apply"]),
        "ctmc.sample_s": sample_s,
        "ctmc.paths": paths,
        "ctmc.paths_per_s": rate(paths, sample_s),
        "ctmc.jumps_per_path": jumps / paths if paths else 0.0,
        "ctmc.walk_s": slf[WALK],
        "ctmc.cells": cells,
        "ctmc.corrected_cell_frac": corrected / cells if cells else 0.0,
        "ctmc.correction_rounds": rounds,
        "simulate.estimate_J_s": tot["simulate.estimate_J"],
        "simulate.path_cells": ej_cells,
        "simulate.path_cells_per_s": rate(ej_cells, tot["simulate.estimate_J"]),
        "simulate.fk_s": tot["simulate.feynman_kac_value"],
        "simulate.fk_solves": calls["simulate.feynman_kac_value"],
        "simulate.slope_s": tot["simulate.SlopeOracle.slope"],
        "simulate.window_solves": windows,
        "simulate.tail_cache_hit_frac": 1.0 - tails / windows if windows else 0.0,
        "cli.fig1_s": tot["cli.reproduce_fig1"],
        "cli.slope_certificate_s": tot["cli.slope_certificate"],
        "cli.run_s": tot["cli.run"],
        "cli.csv_s": tot["equilibrium.ConsumptionCurve.to_csv"],
        "trace.spans": len(spans),
    }
