from dataclasses import replace

import numpy as np
import pytest

from rsmerton.core_model import Preferences, utility
from rsmerton.ctmc import RngSpec
from rsmerton.equilibrium import (
    G_POSITIVITY_FLOOR,
    merton_closed_form,
    merton_eta,
    picard_apply,
    rhs_factory,
    solve,
    solve_g,
    solve_log,
    solve_market_ode,
    value_at,
)
from rsmerton.ode_engine import OdeDomainError, OdeSystem, SolutionTable, residual_norm
from rsmerton.simulate import ProportionalStrategy
from tests.conftest import BENCH_GENERATOR, make_spec
from tests.test_golden_mc import regime_market
from tests.test_ode_engine import per_stage_rk4


def closed_form_rate(spec, t):
    """Independent evaluation of the single-regime consumption rate."""
    g = spec.gamma
    mu, sigma, r, rho = spec.mu[0], spec.sigma[0], spec.r[0], spec.rho[0]
    eta = (rho - g * (mu**2 / (2 * sigma**2 * (1 - g)) + r)) / (1 - g)
    return eta / (1 + (eta - 1) * np.exp(eta * (np.asarray(t) - spec.horizon)))


def per_stage_reference(spec, n_steps=2048):
    """solve's legs and step halving with per-stage RK4 on rhs_factory's system."""
    terminal = spec.prefs.terminal(spec.states)
    floor = np.full(terminal.size, -np.inf)
    floor[: spec.states] = G_POSITIVITY_FLOOR
    return solve_market_ode(rhs_factory(spec), spec, terminal, n_steps, 1e-9,
                            positivity_floor=floor, sweep=per_stage_rk4)


class TestStiffGenerator:
    """A 6,000/yr generator puts h * rho(generator) at 5.86 for 2,048 steps, beyond RK4's 2.785."""

    NOTE = ("; step 0.000488281 times the generator's spectral radius 12000 is 5.86, beyond "
            "explicit RK4's stability limit 2.785: use at least 4309 steps")

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_domain_failure_names_the_stability_limit(self, gamma):
        spec = make_spec(gamma=gamma, generator=[[-6000.0, 6000.0], [6000.0, -6000.0]])
        with pytest.raises(OdeDomainError) as got:
            solve(spec)
        e = got.value
        with pytest.raises(OdeDomainError) as ref:
            per_stage_reference(spec)
        assert (type(e), e.reason, e.t, e.component) == (
            OdeDomainError, "state fell below positivity floor", 1.0 - 3.5 / 2048, 0)
        assert (ref.value.reason, ref.value.t, ref.value.component) == (e.reason, e.t, e.component)
        assert e.value == pytest.approx(ref.value.value, rel=1e-9)
        assert str(e) == (f"state fell below positivity floor at t=0.998291, component 0 "
                          f"(value {e.value:.6g})" + self.NOTE)

    def test_no_note_within_the_stability_limit(self):
        spec = make_spec(gamma=-1.0)  # h * rho(generator) = 0.0083 at 2,048 steps
        with pytest.raises(OdeDomainError) as got:
            solve_market_ode(lambda r, mu, sigma: lambda t, y: np.full(2, np.nan), spec,
                             np.ones(2), 2048, None)
        assert str(got.value) == "non-finite derivative at t=1, component 0 (value nan)"


class TestSolveG:
    def test_terminal_condition_exact(self, bench_spec):
        sol = solve_g(bench_spec)
        assert (sol.g_table.values[-1] == 1.0).all()

    def test_positive_everywhere(self, bench_spec):
        sol = solve_g(bench_spec)
        assert (sol.g_table.values > 0).all()

    def test_constant_rho_collapses_states_and_matches_closed_form(self, const_rho_spec):
        sol = solve_g(const_rho_spec)
        curve = sol.consumption_curve()
        assert np.abs(curve.rates[:, 0] - curve.rates[:, 1]).max() <= 1e-9
        ref = closed_form_rate(const_rho_spec, curve.grid)
        assert np.abs(curve.rates[:, 0] - ref).max() <= 1e-6

    def test_residual_against_defining_equations(self, bench_spec):
        sol = solve_g(bench_spec)
        spec = bench_spec
        g = spec.gamma
        q = g * spec.r + spec.mu**2 * g / (2 * spec.sigma**2 * (1 - g))

        def rhs(t, y):
            return -(
                (q - spec.rho) * y
                + spec.generator.rates @ y
                + (1 - g) * np.power(y, g / (g - 1))
            )

        system = OdeSystem(
            dimension=2, rhs=rhs, terminal_values=np.ones(2), horizon=spec.horizon
        )
        assert residual_norm(system, sol.g_table) <= 1e-5

    def test_high_discount_state_consumes_more(self, bench_spec):
        curve = solve_g(bench_spec).consumption_curve()
        assert (curve.rates[:-1, 0] > curve.rates[:-1, 1]).all()

    def test_rejects_log_branch(self):
        with pytest.raises(ValueError, match="power branch"):
            solve_g(make_spec(gamma=0.0))

    def test_three_state_market(self):
        gen = [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [1.0, 2.0, -3.0]]
        spec = make_spec(gamma=-0.5, rho=(0.9, 0.5, 0.2), generator=gen)
        sol = solve_g(spec)
        assert sol.g_table.dimension == 3
        assert (sol.g_table.values > 0).all()
        assert (sol.g_table.values[-1] == 1.0).all()


class TestSolveLog:
    """The log branch's table holds h in its first S columns, then l."""

    def test_constant_rho_h_closed_form(self):
        spec = make_spec(gamma=0.0, rho=(0.3, 0.3))
        sol = solve_log(spec)
        ref = np.exp(-0.3) + (1 - np.exp(-0.3)) / 0.3
        assert sol.table.values[0, 0] == pytest.approx(ref, abs=1e-9)
        assert sol.table.values[0, 0] == pytest.approx(1.604757, abs=1e-6)

    def test_terminal_conditions_exact(self):
        sol = solve_log(make_spec(gamma=0.0))
        assert (sol.table.values[-1, :2] == 1.0).all()
        assert (sol.table.values[-1, 2:] == 0.0).all()

    def test_discount_ordering_of_h(self):
        # rho_0 > rho_1 pushes h(t, 0) strictly below h(t, 1) before T.
        sol = solve_log(make_spec(gamma=0.0))
        h = sol.table.values[:, :2]
        assert (h[:-1, 0] < h[:-1, 1]).all()

    @pytest.mark.parametrize("market", ["benchmark", "generator x100", "32 regimes"])
    def test_h_is_the_closed_form(self, market):
        # h' = B h - 1 with B = diag(rho) - rates and h(T) = 1, so
        # h(t) = e^{-(T-t)B} 1 + B^{-1} (I - e^{-(T-t)B}) 1
        linalg = pytest.importorskip("scipy.linalg")
        spec = {
            "benchmark": lambda: make_spec(gamma=0.0),
            "generator x100": lambda: make_spec(gamma=0.0,
                                                generator=100 * np.array(BENCH_GENERATOR)),
            "32 regimes": lambda: replace(regime_market(20260811, 20.0), gamma=0.0),
        }[market]()
        table = solve_log(spec).table
        B, ones = np.diag(spec.rho) - spec.generator.rates, np.ones(spec.states)
        for t, h in zip(table.grid, table.values[:, : spec.states]):
            decay = linalg.expm(-(spec.horizon - t) * B)
            exact = decay @ ones + np.linalg.solve(B, ones - decay @ ones)
            assert np.abs(h - exact).max() <= 1e-11

    def test_joint_system_residual(self):
        spec = make_spec(gamma=0.0)
        sol = solve_log(spec)
        rhs = rhs_factory(spec)(spec.r, spec.mu, spec.sigma)
        system = OdeSystem(4, rhs, np.array([1.0, 1.0, 0.0, 0.0]), spec.horizon)
        assert residual_norm(system, sol.table) <= 1e-5

    def test_rejects_power_branch(self):
        with pytest.raises(ValueError, match="log branch"):
            solve_log(make_spec(gamma=0.5))

    def test_affine_sweeps_match_per_stage_rk4_of_the_joint_system(self):
        # Same legs, step counts and step-halving rule; rhs_factory states
        # the joint (h, l) system independently of the solve's coefficients.
        spec = make_spec(gamma=0.0)
        sol = solve_log(spec)
        ref = per_stage_reference(spec)
        assert sol.table.grid.size - 1 == ref.grid.size - 1 == 4096
        assert np.abs(sol.table.values - ref.values).max() <= 1e-12

    def test_dispatch(self):
        assert solve(make_spec(gamma=0.0)).table.dimension == 4  # h then l
        assert solve(make_spec(gamma=-1.0)).table.dimension == 2  # g


class TestPolicy:
    """The feedback policy as tabulated by ProportionalStrategy.from_policy."""

    def test_investment_example(self):
        spec = make_spec(gamma=0.5)
        invest_frac, _ = ProportionalStrategy.from_policy(solve_g(spec)).values_at(0.3)
        invest = invest_frac[0] * 100.0
        assert invest == pytest.approx(0.15 * 100 / (0.25**2 * 0.5))
        assert invest == pytest.approx(480.0)

    def test_log_constant_rho_consumption(self):
        spec = make_spec(gamma=0.0, rho=(0.3, 0.3))
        _, consume_frac = ProportionalStrategy.from_policy(solve_log(spec)).values_at(0.0)
        ref = 1.0 / (np.exp(-0.3) + (1 - np.exp(-0.3)) / 0.3)
        assert consume_frac[0] == pytest.approx(ref, abs=1e-9)
        assert consume_frac[0] == pytest.approx(0.623147, abs=1e-6)

    def test_policy_maximizes_local_objective(self, bench_spec):
        # The feedback pair is the argmax of the concave local objective
        # built from the ansatz derivatives; a surrounding grid search must
        # not beat it.
        spec = bench_spec
        sol = solve_g(spec)
        policy = ProportionalStrategy.from_policy(sol)
        gamma = spec.gamma
        prefs = Preferences.from_gamma(gamma)
        for t in (0.0, 0.4, 0.8):
            invest_frac, consume_frac = policy.values_at(t)
            for x in (0.5, 1.0, 3.0):
                for i in range(2):
                    g = float(sol.g_table.interpolate(t)[i])
                    v_x = g * x ** (gamma - 1)
                    v_xx = (gamma - 1) * g * x ** (gamma - 2)
                    mu, s2 = spec.mu[i], spec.sigma[i] ** 2

                    def objective(pi, c):
                        return (mu * pi - c) * v_x + 0.5 * s2 * pi**2 * v_xx + utility(c, prefs)

                    f1, f2 = invest_frac[i] * x, consume_frac[i] * x
                    best = objective(f1, f2)
                    for fp in (-1.0, 0.0, 0.5, 0.9, 1.1, 2.0):
                        for fc in (0.25, 0.5, 0.9, 1.1, 2.0, 4.0):
                            assert objective(f1 * fp, f2 * fc) <= best + 1e-12


class TestValueAt:
    def test_terminal_value_is_utility(self, bench_spec):
        sol = solve_g(bench_spec)
        for x in (0.5, 1.0, 7.0):
            assert value_at(sol, bench_spec.horizon, x, 0) == pytest.approx(
                x**-1.0 / -1.0, rel=1e-12
            )

    def test_homothety(self, bench_spec):
        sol = solve_g(bench_spec)
        gamma = bench_spec.gamma
        v1 = value_at(sol, 0.3, 1.7, 1)
        v2 = value_at(sol, 0.3, 3.4, 1)
        assert v2 == pytest.approx(2.0**gamma * v1, rel=1e-12)

    def test_log_terminal(self):
        sol = solve_log(make_spec(gamma=0.0))
        assert value_at(sol, 1.0, 2.0, 0) == pytest.approx(np.log(2.0), abs=1e-12)

    def test_constant_rho_matches_frozen_oracle(self, const_rho_spec):
        # With a common discount rate the frozen-discount value of the policy
        # reproduces the ansatz exactly (one effective discounting).
        from rsmerton.simulate import feynman_kac_value

        sol = solve_g(const_rho_spec)
        strategy = ProportionalStrategy.from_policy(sol)
        fk = feynman_kac_value(strategy, 0.9, const_rho_spec)
        for i in range(2):
            assert value_at(sol, 0.0, 1.0, i) == pytest.approx(
                fk.value(0.0, 1.0, i), abs=1e-6
            )

    def test_domain_errors(self, bench_spec):
        sol = solve_g(bench_spec)
        with pytest.raises(ValueError):
            value_at(sol, 0.5, 0.0, 0)
        with pytest.raises(ValueError):
            value_at(sol, 2.0, 1.0, 0)


class TestMertonClosedForm:
    def test_eta_value(self, const_rho_spec):
        # eta = (0.9 - (-1) * (0.0225 / 0.25 + 0.05)) / 2 = 1.04 / 2
        assert merton_eta(const_rho_spec) == pytest.approx(0.52, abs=1e-15)

    def test_rate_at_zero(self, const_rho_spec):
        eta = 0.52
        ref = eta / (1 + (eta - 1) * np.exp(-eta))
        assert merton_closed_form(const_rho_spec, 0.0) == pytest.approx(ref, rel=1e-14)
        assert merton_closed_form(const_rho_spec, 0.0) == pytest.approx(0.727649, abs=1e-6)

    def test_terminal_rate_is_one(self, const_rho_spec):
        assert merton_closed_form(const_rho_spec, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_consumption_increases_with_discount_rate(self):
        # Centered finite differences of the closed form in rho.
        for t in (0.0, 0.5, 0.9):
            for rho in np.arange(0.1, 1.2001, 0.1):
                up = merton_closed_form(make_spec(rho=(rho + 1e-4,) * 2), t)
                dn = merton_closed_form(make_spec(rho=(rho - 1e-4,) * 2), t)
                assert (up - dn) / 2e-4 > 0.0

    def test_degenerate_eta_uses_continuous_extension(self):
        spec = make_spec(gamma=0.5, mu=0.0, r=0.05, rho=(0.025, 0.025))
        assert merton_eta(spec) == pytest.approx(0.0, abs=1e-15)
        ts = np.array([0.0, 0.5, 1.0])
        np.testing.assert_allclose(merton_closed_form(spec, ts), 1.0 / (2.0 - ts))
        # nearby eta is continuous
        near = make_spec(gamma=0.5, mu=0.0, r=0.05, rho=(0.025 + 1e-9,) * 2)
        assert merton_closed_form(near, 0.0) == pytest.approx(0.5, abs=1e-8)

    def test_requires_single_effective_regime(self, bench_spec):
        with pytest.raises(ValueError, match="state-independent"):
            merton_closed_form(bench_spec, 0.0)


class TestPicard:
    def test_solution_is_fixed_point(self, bench_spec):
        sol = solve_g(bench_spec)
        est = picard_apply(
            bench_spec, sol.g_table, 20_000, RngSpec(seed=42),
            eval_times=np.linspace(0.0, 1.0, 9),
        )
        dev = est.deviation_from(sol.g_table)
        tol = np.maximum(3.0 * est.stderr, 3e-3)
        assert (dev <= tol).all()

    def test_single_effective_regime_matches_closed_form(self, const_rho_spec):
        # Under a common discount rate the fixed point is the closed-form
        # coefficient C(t)^(gamma-1).
        sol = solve_g(const_rho_spec)
        times = np.linspace(0.0, 1.0, 5)
        est = picard_apply(
            const_rho_spec, sol.g_table, 20_000, RngSpec(seed=7), eval_times=times
        )
        ref = closed_form_rate(const_rho_spec, times)[:, None] ** (
            const_rho_spec.gamma - 1.0
        )
        assert (np.abs(est.values - ref) <= np.maximum(3 * est.stderr, 3e-3)).all()

    def test_iteration_contracts_toward_solution(self, bench_spec):
        # Iterating the operator from the constant table 1 with a fixed path
        # ensemble shrinks the sup-distance to the solved table monotonically.
        sol = solve_g(bench_spec)
        times = np.linspace(0.0, 1.0, 33)
        ref = sol.g_table.interpolate(times)
        candidate = SolutionTable(grid=times, values=np.ones((times.size, 2)))
        rng = RngSpec(seed=99)
        dists = [np.abs(candidate.values - ref).max()]
        for _ in range(5):
            est = picard_apply(bench_spec, candidate, 15_000, rng, eval_times=times)
            candidate = SolutionTable(grid=times, values=est.values)
            dists.append(np.abs(candidate.values - ref).max())
        assert all(d1 < d0 for d0, d1 in zip(dists, dists[1:]))

    def test_rejects_nonpositive_candidate(self, bench_spec):
        sol = solve_g(bench_spec)
        bad = SolutionTable(
            grid=sol.g_table.grid, values=np.zeros_like(sol.g_table.values)
        )
        with pytest.raises(ValueError, match="positive"):
            picard_apply(bench_spec, bad, 2000, RngSpec(seed=1))

    @pytest.mark.parametrize("t", [-0.5, 1.5, np.nan])
    def test_rejects_eval_time_outside_horizon(self, bench_spec, t):
        flat = SolutionTable(grid=np.array([0.0, 1.0]), values=np.ones((2, 2)))
        with pytest.raises(ValueError, match=f"eval time {t} outside"):
            picard_apply(bench_spec, flat, 2000, RngSpec(seed=1), eval_times=[t])


class TestGammaContinuity:
    def test_tiny_gamma_matches_log_branch(self):
        log_curve = solve_log(make_spec(gamma=0.0)).consumption_curve()
        for gamma in (1e-4, -1e-4):
            curve = solve_g(make_spec(gamma=gamma)).consumption_curve()
            assert np.abs(curve.rates - log_curve.rates).max() <= 1e-3


class TestConsumptionCurve:
    def test_csv_has_metadata_and_columns(self, bench_spec):
        curve = solve_g(bench_spec).consumption_curve()
        text = curve.to_csv(meta={"spec_hash": "abc", "grid": 2048})
        lines = text.strip().splitlines()
        assert lines[0].startswith("# spec_hash=abc")
        assert lines[1] == "t,C0,C1"
        assert len(lines) == 2 + curve.grid.size

    def test_terminal_rate_is_one(self, bench_spec):
        curve = solve_g(bench_spec).consumption_curve()
        np.testing.assert_allclose(curve.rates[-1], 1.0, atol=1e-12)
