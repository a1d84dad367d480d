"""Piecewise-constant-in-time market coefficients through every solver route."""

import json
from dataclasses import replace

import numpy as np
import pytest

from rsmerton.cli import spec_hash
from rsmerton.core_model import (
    PiecewiseCoefficients,
    SpecValidationError,
    market_spec_from_json,
    market_spec_to_json,
)
from rsmerton.ctmc import RngSpec
from rsmerton.equilibrium import growth_rate, merton_eta, picard_apply, solve_g
from rsmerton.ode_engine import OdeSystem, rk4_solve
from rsmerton.simulate import ProportionalStrategy, feynman_kac_value, sample_terminal_wealth
from tests.conftest import make_spec


def constant_override(r=0.05, alpha=0.2, sigma=0.25, n_states=2):
    shape = (1, n_states)
    return PiecewiseCoefficients(
        breakpoints=np.array([]),
        r=np.full(shape, r),
        alpha=np.full(shape, alpha),
        sigma=np.full(shape, sigma),
    )


def two_phase_override():
    """Riskless rate and drift step up halfway through the horizon."""
    return PiecewiseCoefficients(
        breakpoints=np.array([0.5]),
        r=np.array([[0.05, 0.05], [0.10, 0.10]]),
        alpha=np.array([[0.20, 0.20], [0.18, 0.18]]),
        sigma=np.array([[0.25, 0.25], [0.30, 0.30]]),
    )


def overridden(spec, override):
    return replace(spec, override=override)


def override_violations(breakpoints=(0.5,), **rows):
    """The construction error of the bench spec under a two-interval override."""
    values = {"r": np.full((2, 2), 0.05), "alpha": np.full((2, 2), 0.2),
              "sigma": np.full((2, 2), 0.25), **rows}
    ov = PiecewiseCoefficients(breakpoints=np.array(breakpoints), **values)
    with pytest.raises(SpecValidationError) as err:
        overridden(make_spec(), ov)
    return str(err.value)


class TestValidation:
    def test_breakpoints_must_increase(self, bench_spec):
        ov = PiecewiseCoefficients(
            breakpoints=np.array([0.5, 0.25]),
            r=np.full((3, 2), 0.05),
            alpha=np.full((3, 2), 0.2),
            sigma=np.full((3, 2), 0.25),
        )
        with pytest.raises(SpecValidationError, match="increasing"):
            overridden(bench_spec, ov)

    def test_row_count_must_match(self, bench_spec):
        ov = PiecewiseCoefficients(
            breakpoints=np.array([0.5]),
            r=np.full((1, 2), 0.05),
            alpha=np.full((2, 2), 0.2),
            sigma=np.full((2, 2), 0.25),
        )
        with pytest.raises(SpecValidationError, match="one row per interval"):
            overridden(bench_spec, ov)

    def test_non_finite_value_named_by_field_path(self):
        r = np.array([[np.nan, 0.05], [0.10, 0.10]])
        assert "override.r[0][0] must be finite" in override_violations(r=r)

    def test_column_count_must_match_states(self):
        msg = override_violations(alpha=np.full((2, 3), 0.2))
        assert "override.alpha must have shape (2, 2)" in msg and "got (2, 3)" in msg

    def test_one_dimensional_rows_rejected(self):
        msg = override_violations(r=np.array([0.05, 0.10]))
        assert "override.r must have shape (2, 2)" in msg and "got (2,)" in msg

    def test_non_finite_breakpoint_rejected(self):
        assert "override.breakpoints[0] must be finite" in override_violations([np.nan])

    def test_breakpoint_past_horizon_rejected(self):
        assert "override.breakpoints must lie inside (0, 1.0)" in override_violations([1.5])

    def test_violations_join_the_spec_violations(self):
        with pytest.raises(SpecValidationError) as err:
            replace(make_spec(), sigma=np.full(2, -0.25), override=replace(
                two_phase_override(), sigma=np.array([[0.25, 0.0], [0.3, 0.3]])))
        assert any(v.startswith("sigma must be positive") for v in err.value.violations)
        assert any(v.startswith("override.sigma must be positive") for v in err.value.violations)

    def test_right_continuous_lookup(self, bench_spec):
        spec = overridden(bench_spec, two_phase_override())
        nodes, r, _, _ = spec.coefficients_on(np.array([0.0, 0.49, 1.0]))
        np.testing.assert_array_equal(nodes, [0.0, 0.49, 0.5, 1.0])
        assert r[1][0] == 0.05  # [0.49, 0.5)
        assert r[2][0] == 0.10  # [0.5, 1.0): the breakpoint opens the new interval

    def test_coefficients_on_joins_breakpoints(self, bench_spec):
        # One breakpoint inside the grid, one equal to a node, one outside it.
        ov = PiecewiseCoefficients(
            breakpoints=np.array([0.25, 0.5, 0.75]),
            r=np.array([[0.01] * 2, [0.02] * 2, [0.03] * 2, [0.04] * 2]),
            alpha=np.full((4, 2), 0.2),
            sigma=np.full((4, 2), 0.25),
        )
        spec = overridden(bench_spec, ov)
        nodes, r, mu, sigma = spec.coefficients_on(np.array([0.0, 0.5, 0.6]))
        np.testing.assert_array_equal(nodes, [0.0, 0.25, 0.5, 0.6])
        np.testing.assert_array_equal(r[:, 0], [0.01, 0.02, 0.03])
        np.testing.assert_array_equal(mu, 0.2 - r)
        assert sigma.shape == (3, 2)

    def test_no_override_broadcasts_the_spec(self, bench_spec):
        grid = np.array([0.0, 0.3, 1.0])
        nodes, r, mu, sigma = bench_spec.coefficients_on(grid)
        np.testing.assert_array_equal(nodes, grid)
        for rows, v in ((r, bench_spec.r), (mu, bench_spec.mu), (sigma, bench_spec.sigma)):
            np.testing.assert_array_equal(rows, [v, v])

    def test_closed_form_refuses_an_override(self):
        spec = overridden(make_spec(rho=(0.9, 0.9)), constant_override())
        with pytest.raises(ValueError, match="override"):
            merton_eta(spec)


class TestJson:
    def test_round_trip_keeps_the_override(self, bench_spec):
        spec = overridden(bench_spec, two_phase_override())
        back = market_spec_from_json(json.dumps(market_spec_to_json(spec)))
        for name in ("breakpoints", "r", "alpha", "sigma"):
            np.testing.assert_array_equal(
                getattr(back.override, name), getattr(spec.override, name)
            )
        assert market_spec_to_json(back) == market_spec_to_json(spec)

    def test_spec_hash_tells_the_override(self, bench_spec):
        assert "override" not in market_spec_to_json(bench_spec)
        assert spec_hash(overridden(bench_spec, two_phase_override())) != spec_hash(bench_spec)

    @pytest.mark.parametrize("override, message", [
        (5, "override must be an object with keys"),
        ({"breakpoints": [0.5], "r": [[0.05, 0.05]]}, "override must be an object with keys"),
        ({"breakpoints": 0.5, "r": [[0.05, 0.05], [0.1, 0.1]], "alpha": [[0.2, 0.2]] * 2,
          "sigma": [[0.25, 0.25]] * 2}, "override.breakpoints must be a list of numbers"),
        ({"breakpoints": [0.5], "r": [[0.05, 0.05], [0.1, 0.1]], "alpha": [[0.2, 0.2]] * 2,
          "sigma": [[0.25, 0.25], [0.3]]}, "override.sigma must be a list of lists of numbers"),
    ])
    def test_malformed_override_named(self, bench_spec, override, message):
        doc = {**market_spec_to_json(bench_spec), "override": override}
        with pytest.raises(SpecValidationError, match=message):
            market_spec_from_json(doc)


class TestSolversHonorOverrides:
    def test_constant_override_is_a_no_op(self, bench_spec):
        base = solve_g(bench_spec)
        with_ov = solve_g(overridden(bench_spec, constant_override()))
        np.testing.assert_array_equal(base.g_table.values, with_ov.g_table.values)

    def test_two_phase_solve_matches_leg_by_leg_reference(self, bench_spec):
        # Reference: solve each constant-coefficient leg separately, splicing
        # at the breakpoint; the single override solve must agree.
        spec = bench_spec
        ov = two_phase_override()
        sol = solve_g(overridden(spec, ov))

        def leg_system(interval, t_lo, t_hi, terminal):
            r = ov.r[interval]
            mu = ov.alpha[interval] - r
            sigma = ov.sigma[interval]
            g = spec.gamma
            q = g * r + mu**2 * g / (2 * sigma**2 * (1 - g))

            def rhs(t, y):
                return -(
                    (q - spec.rho) * y
                    + spec.generator.rates @ y
                    + (1 - g) * np.power(y, g / (g - 1))
                )

            return OdeSystem(
                dimension=2, rhs=rhs, terminal_values=terminal,
                horizon=t_hi, t_start=t_lo,
            )

        tail = rk4_solve(leg_system(1, 0.5, 1.0, np.ones(2)), 8192)
        head = rk4_solve(leg_system(0, 0.0, 0.5, tail.values[0]), 8192)
        np.testing.assert_allclose(
            sol.g_table.interpolate(0.0), head.values[0], atol=1e-6
        )
        np.testing.assert_allclose(
            sol.g_table.interpolate(0.5), tail.values[0], atol=1e-6
        )

    def test_growth_rate_tracks_override(self, bench_spec):
        spec = overridden(bench_spec, two_phase_override())
        _, r, mu, sigma = spec.coefficients_on(np.array([0.0, 1.0]))
        early, late = growth_rate(spec.gamma, r, mu, sigma)  # [0, 0.5) and [0.5, 1)
        assert not np.allclose(early, late)


class TestSimulationHonorsOverrides:
    def test_constant_override_reproduces_base_wealth(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.8, 0.5, 1.0, n_states=2)
        rng = RngSpec(seed=21)
        base = sample_terminal_wealth(strat, 1.0, 0, bench_spec, 200, rng, n_grid=64)
        spec = overridden(bench_spec, constant_override())
        with_ov = sample_terminal_wealth(strat, 1.0, 0, spec, 200, rng, n_grid=64)
        np.testing.assert_allclose(base, with_ov, rtol=1e-12)

    def test_two_phase_deterministic_growth(self):
        # No risky exposure, no consumption: X(T) = exp(int r) with the
        # stepped rate, integrated exactly.
        spec = make_spec(mu=0.0, r=0.05, generator=[[0.0, 0.0], [0.0, 0.0]])
        ov = PiecewiseCoefficients(
            breakpoints=np.array([0.5]),
            r=np.array([[0.05, 0.05], [0.10, 0.10]]),
            alpha=np.array([[0.05, 0.05], [0.10, 0.10]]),
            sigma=np.array([[0.25, 0.25], [0.25, 0.25]]),
        )
        strat = ProportionalStrategy.from_constants(0.0, 0.0, 1.0, n_states=2)
        xt = sample_terminal_wealth(
            strat, 1.0, 0, overridden(spec, ov), 4, RngSpec(seed=1), n_grid=64
        )
        np.testing.assert_allclose(xt, np.exp(0.5 * 0.05 + 0.5 * 0.10), rtol=1e-12)

    def test_feynman_kac_with_override_matches_plain_constant_case(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.6, 0.4, 1.0, n_states=2)
        base = feynman_kac_value(strat, 0.9, bench_spec)
        with_ov = feynman_kac_value(strat, 0.9, overridden(bench_spec, constant_override()))
        np.testing.assert_array_equal(base.table.values, with_ov.table.values)

    def test_picard_with_override_stays_fixed_point(self, bench_spec):
        spec = overridden(bench_spec, constant_override())
        sol = solve_g(spec)
        est = picard_apply(
            spec, sol.g_table, 20_000, RngSpec(seed=42), eval_times=np.linspace(0.0, 1.0, 5),
        )
        dev = est.deviation_from(sol.g_table)
        assert (dev <= np.maximum(3 * est.stderr, 3e-3)).all()
