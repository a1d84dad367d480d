"""The g-system's Newton sweep (ode_engine.newton_rk4_solve) against RK4's stage loop.

Newton on the step map finds the stage loop's table to rounding; wherever it
fails (an iterate not finite, no convergence, an accepted table outside the
domain) it sweeps rk4_solve instead, so the table and every error are the
stage loop's bits.
"""

from dataclasses import replace

import numpy as np
import pytest

from rsmerton import equilibrium, ode_engine
from rsmerton.cli import benchmark_spec
from rsmerton.core_model import RegimeGenerator
from rsmerton.equilibrium import G_POSITIVITY_FLOOR, NEWTON_MAX_STATES, rhs_factory, solve_g
from rsmerton.ode_engine import (
    OdeDomainError,
    OdeSystem,
    _affine_scan,
    newton_rk4_solve,
    rk4_solve,
)
from tests.test_golden_mc import regime_market


def g_system(spec):
    """The spec's g-system over its horizon, as _solve_branch builds each leg."""
    coefficients = spec.r, spec.mu, spec.sigma
    return OdeSystem(spec.states, rhs_factory(spec)(*coefficients), np.ones(spec.states),
                     spec.horizon, positivity_floor=G_POSITIVITY_FLOOR,
                     jacobian=rhs_factory(spec, jacobian=True)(*coefficients))


def same_bits(a, b) -> bool:
    return a.grid.tobytes() == b.grid.tobytes() and a.values.tobytes() == b.values.tobytes()


MARKETS = [(f"benchmark gamma={g:g}", benchmark_spec(g)) for g in (0.7, -0.5, -1.0, -5.0)]
MARKETS += [(f"{s} regimes", regime_market(20260811, 20.0, states=s)) for s in (2, 3, 4)]


class TestAgreement:
    @pytest.mark.parametrize("n", [2048, 4096])
    @pytest.mark.parametrize("name, spec", MARKETS, ids=[m[0] for m in MARKETS])
    def test_table_is_the_stage_loops_to_rounding(self, name, spec, n):
        system = g_system(spec)
        newton, stage = newton_rk4_solve(system, n), rk4_solve(system, n)
        assert newton.stats["sweep"] == "newton"
        assert (newton.grid == stage.grid).all() and (newton.values[-1] == 1.0).all()
        assert np.abs(newton.values - stage.values).max() <= 1e-13 * np.abs(stage.values).max()

    def test_scan_is_the_serial_recursion(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(37, 3, 3)) / 2, rng.normal(size=(37, 3))
        x, serial = np.zeros(3), []
        for aj, bj in zip(a, b):
            x = aj @ x + bj
            serial.append(x)
        assert np.allclose(_affine_scan(a, b), serial, rtol=1e-13, atol=1e-13)


class TestFallbacks:
    """Each returns, or raises, exactly what rk4_solve does."""

    def test_no_convergence_gives_the_stage_loops_bits(self, monkeypatch):
        system = g_system(benchmark_spec(-1.0))
        monkeypatch.setattr(ode_engine, "NEWTON_MAX_ITERATIONS", 1)
        table = newton_rk4_solve(system, 2048)
        assert table.stats["sweep"] == "stage" and same_bits(table, rk4_solve(system, 2048))

    def test_non_finite_iterate_gives_the_stage_loops_bits(self):
        def jacobian(times, ys):  # a Jacobian that sends the first update to infinity
            return np.full((ys.shape[0], 1, 1), 1e308)

        system = OdeSystem(1, lambda t, y: -y, np.ones(1), 1.0, jacobian=jacobian)
        table = newton_rk4_solve(system, 64)
        assert table.stats["sweep"] == "stage" and same_bits(table, rk4_solve(system, 64))

    def test_accepted_table_below_the_floor_raises_the_stage_loops_error(self):
        # y' = 1 from y(1) = 1: Newton solves the linear map in one update,
        # and the table falls below the floor 0.5 before t = 0.5
        system = OdeSystem(1, lambda t, y: np.ones_like(y), np.ones(1), 1.0, positivity_floor=0.5,
                           jacobian=lambda times, ys: np.zeros((ys.shape[0], 1, 1)))
        with pytest.raises(OdeDomainError) as newton:
            newton_rk4_solve(system, 64)
        with pytest.raises(OdeDomainError) as stage:
            rk4_solve(system, 64)
        assert str(newton.value) == str(stage.value)

    def test_stiff_generator_raises_the_stage_loops_error(self, monkeypatch):
        base = benchmark_spec(-1.0)
        spec = replace(base, generator=RegimeGenerator(base.generator.rates * 1000))
        with pytest.raises(OdeDomainError) as newton:
            solve_g(spec)
        monkeypatch.setattr(equilibrium, "NEWTON_MAX_STATES", 0)
        with pytest.raises(OdeDomainError) as stage:
            solve_g(spec)
        assert str(newton.value) == str(stage.value)
        assert str(newton.value).endswith("use at least 6083 steps")

    def test_needs_a_batched_rhs(self):
        with pytest.raises(ValueError, match="jacobian"):
            newton_rk4_solve(OdeSystem(1, lambda t, y: -y, np.ones(1), 1.0), 16)


class TestRouting:
    def test_above_the_crossover_runs_the_stage_loop(self, monkeypatch):
        spec = regime_market(20260811, 20.0, states=NEWTON_MAX_STATES + 1)
        table = solve_g(spec).table
        assert [leg["sweep"] for leg in table.stats["legs"]] == ["stage"]
        monkeypatch.setattr(equilibrium, "NEWTON_MAX_STATES", 0)
        assert same_bits(table, solve_g(spec).table)

    def test_solver_statistics_per_leg(self):
        legs = solve_g(benchmark_spec(-1.0)).table.stats["legs"]
        assert len(legs) == 1
        leg = legs[0]
        assert (leg["sweep"], leg["steps"], leg["rounds"], leg["t_start"], leg["horizon"]) == (
            "newton", 4096, 1, 0.0, 1.0)
        assert 0.0 < leg["error"] <= 1e-9 and 1 <= leg["newton_iterations"] <= 8
