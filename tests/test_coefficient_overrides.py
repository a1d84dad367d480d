"""Piecewise-constant-in-time market coefficients through every solver route."""

import numpy as np
import pytest

from rsmerton.core_model import PiecewiseCoefficients
from rsmerton.ctmc import RngSpec
from rsmerton.equilibrium import picard_apply, solve_g, growth_exponent
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


class TestValidation:
    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            PiecewiseCoefficients(
                breakpoints=np.array([0.5, 0.25]),
                r=np.full((3, 2), 0.05),
                alpha=np.full((3, 2), 0.2),
                sigma=np.full((3, 2), 0.25),
            )

    def test_row_count_must_match(self):
        with pytest.raises(ValueError, match="one row per interval"):
            PiecewiseCoefficients(
                breakpoints=np.array([0.5]),
                r=np.full((1, 2), 0.05),
                alpha=np.full((2, 2), 0.2),
                sigma=np.full((2, 2), 0.25),
            )

    def test_right_continuous_lookup(self):
        ov = two_phase_override()
        assert ov.at(0.49)[0][0] == 0.05
        assert ov.at(0.5)[0][0] == 0.10


class TestSolversHonorOverrides:
    def test_constant_override_is_a_no_op(self, bench_spec):
        base = solve_g(bench_spec)
        with_ov = solve_g(bench_spec, coeffs=constant_override())
        np.testing.assert_array_equal(base.g_table.values, with_ov.g_table.values)

    def test_two_phase_solve_matches_leg_by_leg_reference(self, bench_spec):
        # Reference: solve each constant-coefficient leg separately, splicing
        # at the breakpoint; the single override solve must agree.
        spec = bench_spec
        ov = two_phase_override()
        sol = solve_g(spec, coeffs=ov)

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

    def test_growth_exponent_tracks_override(self, bench_spec):
        ov = two_phase_override()
        early = growth_exponent(bench_spec, 0.2, ov)
        late = growth_exponent(bench_spec, 0.8, ov)
        assert not np.allclose(early, late)


class TestSimulationHonorsOverrides:
    def test_constant_override_reproduces_base_wealth(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.8, 0.5, 1.0, n_states=2)
        rng = RngSpec(seed=21)
        base = sample_terminal_wealth(strat, 1.0, 0, bench_spec, 200, rng, n_grid=64)
        with_ov = sample_terminal_wealth(
            strat, 1.0, 0, bench_spec, 200, rng, n_grid=64, coeffs=constant_override()
        )
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
        xt = sample_terminal_wealth(strat, 1.0, 0, spec, 4, RngSpec(seed=1), n_grid=64, coeffs=ov)
        np.testing.assert_allclose(xt, np.exp(0.5 * 0.05 + 0.5 * 0.10), rtol=1e-12)

    def test_feynman_kac_with_override_matches_plain_constant_case(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.6, 0.4, 1.0, n_states=2)
        base = feynman_kac_value(strat, 0.9, bench_spec)
        with_ov = feynman_kac_value(strat, 0.9, bench_spec, coeffs=constant_override())
        np.testing.assert_array_equal(base.table.values, with_ov.table.values)

    def test_picard_with_override_stays_fixed_point(self, bench_spec):
        sol = solve_g(bench_spec, coeffs=constant_override())
        est = picard_apply(
            bench_spec, sol.g_table, 20_000, RngSpec(seed=42),
            eval_times=np.linspace(0.0, 1.0, 5), coeffs=constant_override(),
        )
        dev = est.deviation_from(sol.g_table)
        assert (dev <= np.maximum(3 * est.stderr, 3e-3)).all()
