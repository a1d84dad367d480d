"""The names the benchmark reaches into must keep existing.

perfbench/spans.py wraps the functions and methods it lists by name and skips
a name the package no longer defines, so the metrics built on that name read 0
without a word; it also tells a slope window from a tail solve by the
`horizon` argument of `solve_market_ode`. perfbench/workloads.py reads two
attributes of the results.
"""

import importlib.util
from pathlib import Path

import pytest

from rsmerton.cli import benchmark_spec
from rsmerton.equilibrium import solve_g
from rsmerton.ode_engine import SolutionTable
from rsmerton.simulate import (
    ProportionalStrategy,
    SlopeOracle,
    feynman_kac_value,
    perturbation_menu,
)

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load("spans")


@pytest.mark.parametrize("module, name, span", spans.FUNCTIONS, ids=[s for *_, s in spans.FUNCTIONS])
def test_traced_function_exists(module, name, span):
    assert callable(getattr(module, name, None)), f"{span}: {module.__name__}.{name} is gone"


@pytest.mark.parametrize("cls, name, span", spans.METHODS, ids=[s for *_, s in spans.METHODS])
def test_traced_method_exists(cls, name, span):
    assert callable(cls.__dict__.get(name)), f"{span}: {cls.__name__}.{name} is gone"


def test_workload_reads_exist():
    _load("workloads")  # imports the package names the workloads call
    spec = benchmark_spec(-1.0)
    sol = solve_g(spec, n_steps=64, tol=1e-4)
    assert isinstance(sol.g_table, SolutionTable)
    fk = feynman_kac_value(ProportionalStrategy.from_policy(sol), float(spec.rho[0]), spec)
    assert isinstance(fk.value(0.0, 1.0, 0), float)


def test_tracer_tells_windows_from_tails():
    # One slope: three window widths, each priced under the base policy and
    # the perturbation (6 window solves) over 3 distinct tails.
    spec = benchmark_spec(-1.0)
    sol = solve_g(spec, n_steps=64, tol=1e-4)
    consumption_x2 = perturbation_menu(sol)["consumption_x2"]
    tracer = spans.Tracer(op=0)
    tracer.install()
    try:
        oracle = SlopeOracle(spec, sol, n_steps_tail=64, n_steps_window=16)
        oracle.slope(0.3, 1.0, 1, consumption_x2)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["simulate.window_solves"] == 6
    assert metrics["simulate.tail_cache_hit_frac"] == 0.5
