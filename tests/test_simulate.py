from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from rsmerton.cli import benchmark_spec
from rsmerton.ctmc import DIFFUSION_SUBSTREAM, RngSpec, sample_skeletons
from rsmerton.equilibrium import (
    merton_closed_form, solve, solve_g, solve_log, solve_market_ode, value_at,
)
from rsmerton.ode_engine import OdeSystem, rk4_solve
from rsmerton.simulate import (
    ProportionalStrategy,
    SlopeOracle,
    _fk_solve,
    estimate_J,
    feynman_kac_value,
    perturbation_menu,
    sample_terminal_wealth,
)
from tests.conftest import make_spec
from tests.test_coefficient_overrides import two_phase_override
from tests.test_golden_mc import regime_market
from tests.test_ode_engine import per_stage_rk4

FROZEN_CHAIN = [[0.0, 0.0], [0.0, 0.0]]


def euler_terminal_wealth(strategy, x0, spec, n_grid, n_paths, rng):
    """Euler scheme in state 0 of a chain that never jumps, on n_grid uniform cells.

    It draws the normals sample_terminal_wealth draws for the same ensemble,
    one (cell, path) array from the diffusion substream, so the two schemes
    share their driving noise.
    """
    z = rng.generator(DIFFUSION_SUBSTREAM).standard_normal((n_grid, n_paths))
    edges = np.linspace(0.0, spec.horizon, n_grid + 1)
    r, mu, sigma = spec.r[0], spec.mu[0], spec.sigma[0]
    x = np.full(n_paths, float(x0))
    for k, dt in enumerate(np.diff(edges)):
        a, b = (v[0] for v in strategy.values_at(edges[k]))
        x = x * (1.0 + (r + mu * a - b) * dt + sigma * a * np.sqrt(dt) * z[k])
    return x


class TestProportionalStrategy:
    def test_from_constants_broadcasts(self):
        s = ProportionalStrategy.from_constants(0.5, 0.1, horizon=1.0, n_states=3)
        assert s.invest_frac.shape == (2, 3)
        a, b = s.values_at(0.7)
        np.testing.assert_allclose(a, 0.5)
        np.testing.assert_allclose(b, 0.1)

    @pytest.mark.parametrize("grid", [
        np.linspace(0.0, 0.7, 301),  # uniform, step not a power of two
        np.linspace(0.0, 1.0, 2049),  # dyadic, as a solve grid on [0, 1]
        np.unique(np.concatenate([[0.0, 1.0], np.random.default_rng(4).uniform(0, 1, 300)])),
    ], ids=["uniform-0.7", "dyadic", "non-uniform"])
    def test_values_at_is_np_interp_bit_for_bit(self, grid):
        g = np.random.default_rng(11)
        a = np.cumsum(g.standard_normal((grid.size, 3)), axis=0)
        b = np.abs(np.cumsum(g.standard_normal((grid.size, 3)), axis=0))
        s = ProportionalStrategy(grid, a, b)
        # random times (some past either end), every node and both ends
        t = np.concatenate([g.uniform(grid[0] - 0.05, grid[-1] + 0.05, 40_000), grid,
                            grid[[0, -1]]])
        got_a, got_b = s.values_at(t)
        for got, tab in ((got_a, a), (got_b, b)):
            ref = np.stack([np.interp(t, grid, tab[:, j]) for j in range(3)], axis=1)
            np.testing.assert_array_equal(got, ref)

    def test_from_policy_matches_solution(self, bench_spec):
        sol = solve_g(bench_spec)
        s = ProportionalStrategy.from_policy(sol)
        assert s.grid.size == sol.g_table.grid.size
        np.testing.assert_allclose(
            s.consume_frac[0], sol.consumption_curve().rates[0], atol=1e-14
        )
        np.testing.assert_allclose(s.invest_frac[:, 0], 0.15 / (0.0625 * 2.0))

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ProportionalStrategy.from_constants(0.0, -0.1, horizon=1.0, n_states=2)

    @pytest.mark.parametrize("a, b, message", [
        (np.zeros((3, 2)), np.zeros((3, 2)), "matching the grid"),
        (np.zeros((2, 2)), np.zeros((2, 3)), "matching the grid"),
        (np.full((2, 2), np.nan), np.zeros((2, 2)), "must be finite"),
    ], ids=["rows", "columns", "non-finite"])
    def test_tables_rejected_with_their_messages(self, a, b, message):
        with pytest.raises(ValueError, match=message):
            ProportionalStrategy([0.0, 1.0], a, b)

    def test_scaled(self):
        s = ProportionalStrategy.from_constants(1.0, 0.4, horizon=1.0, n_states=2)
        s2 = s.scaled(invest=-1.0, consume=2.0)
        np.testing.assert_allclose(s2.invest_frac, -1.0)
        np.testing.assert_allclose(s2.consume_frac, 0.8)


class TestSimulateWealth:
    """The exact log-space scheme, through sample_terminal_wealth."""

    def test_deterministic_growth_exact(self):
        # No risky holdings, no consumption, no jumps: X(T) = x0 e^{rT} exactly.
        spec = make_spec(mu=0.0, r=0.05, generator=FROZEN_CHAIN)
        strat = ProportionalStrategy.from_constants(0.0, 0.0, 1.0, n_states=2)
        xt = sample_terminal_wealth(strat, 2.0, 0, spec, 4, RngSpec(seed=1), n_grid=64)
        np.testing.assert_allclose(xt, 2.0 * np.exp(0.05), rtol=1e-14)

    def test_jump_times_are_grid_breakpoints(self):
        # Riskless growth at 0.05 until the one jump, then at 0.10 in the
        # absorbing state: exact only if each path's jump time splits its cell.
        spec = make_spec(mu=0.0, r=(0.05, 0.10), generator=[[-2.0, 2.0], [0.0, 0.0]])
        strat = ProportionalStrategy.from_constants(0.0, 0.0, 1.0, n_states=2)
        rng = RngSpec(seed=2)
        tau = np.minimum(sample_skeletons(spec.generator, 0, 0.0, 1.0, 50, rng).jump_times[0], 1.0)
        assert ((tau > 0.0) & (tau < 1.0)).sum() > 10
        xt = sample_terminal_wealth(strat, 1.0, 0, spec, 50, rng, n_grid=16)
        np.testing.assert_allclose(xt, np.exp(0.05 * tau + 0.10 * (1.0 - tau)), rtol=1e-12)

    def test_exact_scheme_keeps_wealth_positive(self, bench_spec):
        strat = ProportionalStrategy.from_constants(2.0, 5.0, 1.0, n_states=2)
        xt = sample_terminal_wealth(strat, 1.0, 0, bench_spec, 1000, RngSpec(seed=3), n_grid=128)
        assert (xt > 0).all()

    def test_euler_flags_nonpositive_wealth(self):
        # Consuming 50x wealth a year makes every Euler factor 1 + (r - 50) dt
        # negative at dt = 1 and at dt = 1/9, so an odd number of steps ends
        # below zero; the exact scheme stays positive on the same noise.
        spec = make_spec(mu=0.0, r=0.05, generator=FROZEN_CHAIN)
        strat = ProportionalStrategy.from_constants(0.0, 50.0, 1.0, n_states=2)
        rng = RngSpec(seed=4)
        assert (euler_terminal_wealth(strat, 1.0, spec, 1, 4, rng) <= 0).all()
        assert (euler_terminal_wealth(strat, 1.0, spec, 9, 4, rng) <= 0).all()
        assert (sample_terminal_wealth(strat, 1.0, 0, spec, 4, rng, n_grid=9) > 0).all()

    def test_reproducible(self, bench_spec):
        strat = ProportionalStrategy.from_constants(1.0, 0.5, 1.0, n_states=2)
        a = sample_terminal_wealth(strat, 1.0, 0, bench_spec, 200, RngSpec(seed=5), n_grid=64)
        b = sample_terminal_wealth(strat, 1.0, 0, bench_spec, 200, RngSpec(seed=5), n_grid=64)
        np.testing.assert_array_equal(a, b)

    def test_euler_strong_order_one_half(self):
        # Deviation between Euler and the exact scheme on the same driving
        # noise shrinks like the square root of the step count.
        spec = make_spec(mu=0.15, r=0.05, generator=FROZEN_CHAIN)
        strat = ProportionalStrategy.from_constants(1.2, 0.7, 1.0, n_states=2)
        ns = np.array([64, 128, 256, 512])
        devs = []
        for n in ns:
            rng = RngSpec(seed=6)
            euler = euler_terminal_wealth(strat, 1.0, spec, n, 200, rng)
            exact = sample_terminal_wealth(strat, 1.0, 0, spec, 200, rng, n_grid=n)
            devs.append(np.abs(euler - exact).mean())
        slope = np.polyfit(np.log(ns), np.log(devs), 1)[0]
        assert -0.65 <= slope <= -0.35


class TestTerminalWealthEnsemble:
    def test_mean_matches_first_moment_system(self, bench_spec):
        # E[X(T)] from the ensemble vs the forward moment equations
        # m_i' = (r_i + mu_i a_i - b_i(t)) m_i + sum_j rates[j,i] m_j,
        # solved by time reversal with the same integrator.
        sol = solve_g(bench_spec)
        strat = ProportionalStrategy.from_policy(sol)
        spec = bench_spec
        T = spec.horizon
        a0 = strat.invest_frac[0]

        def forward_rhs(t, m):
            _, b = strat.values_at(t)
            growth = spec.r + spec.mu * a0 - b
            return growth * m + spec.generator.rates.T @ m

        reversed_sys = OdeSystem(
            dimension=2,
            rhs=lambda t, y: -forward_rhs(T - t, y),
            terminal_values=np.array([1.0, 0.0]),  # X(0)=1, started in state 0
            horizon=T,
        )
        m_T = rk4_solve(reversed_sys, 2048).values[0]
        ref = m_T.sum()
        xt = sample_terminal_wealth(strat, 1.0, 0, spec, 100_000, RngSpec(seed=8))
        se = xt.std(ddof=1) / np.sqrt(xt.size)
        assert abs(xt.mean() - ref) <= 3 * se

    def test_all_terminal_wealth_positive(self, bench_spec):
        sol = solve_g(bench_spec)
        strat = ProportionalStrategy.from_policy(sol)
        xt = sample_terminal_wealth(strat, 1.0, 1, bench_spec, 5000, RngSpec(seed=9))
        assert (xt > 0).all()


class TestEstimateJ:
    def test_at_horizon_returns_utility_with_zero_variance(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.5, 0.5, 1.0, n_states=2)
        rep = estimate_J(strat, 1.0, 2.0, 0, bench_spec, 1000, RngSpec(seed=1))
        assert rep.estimate == pytest.approx(2.0**-1 / -1.0)
        assert rep.stderr == 0.0

    def test_deterministic_reduction_matches_quadrature(self):
        # State-independent market, no risky holdings, constant consumption:
        # wealth is deterministic and the functional reduces to a plain
        # integral, evaluated independently with adaptive quadrature.
        spec = make_spec(gamma=-1.0, mu=0.0, r=0.05, rho=(0.3, 0.3))
        b = 0.8
        strat = ProportionalStrategy.from_constants(0.0, b, 1.0, n_states=2)

        def integrand(s):
            x_s = np.exp((0.05 - b) * s)
            return np.exp(-0.3 * s) * (-1.0 / (b * x_s))

        ref = quad(integrand, 0.0, 1.0, epsabs=1e-12)[0] + np.exp(-0.3) * (
            -np.exp(-(0.05 - b))
        )
        rep = estimate_J(strat, 0.0, 1.0, 0, spec, 1000, RngSpec(seed=2))
        assert rep.stderr <= 1e-12
        assert rep.estimate == pytest.approx(ref, abs=1e-8)

    def test_matches_frozen_discount_oracle_power(self, bench_spec):
        sol = solve_g(bench_spec)
        strat = ProportionalStrategy.from_policy(sol)
        for i in range(2):
            target = feynman_kac_value(strat, float(bench_spec.rho[i]), bench_spec).value(
                0.0, 1.0, i
            )
            rep = estimate_J(
                strat, 0.0, 1.0, i, bench_spec, 30_000,
                RngSpec(seed=2024, stream=i), n_grid=1024, target=target,
            )
            assert abs(rep.z_score) < 3.0

    def test_matches_frozen_discount_oracle_log(self):
        spec = make_spec(gamma=0.0)
        strat = ProportionalStrategy.from_policy(solve_log(spec))
        for i in range(2):
            target = feynman_kac_value(strat, float(spec.rho[i]), spec).value(0.0, 1.0, i)
            rep = estimate_J(
                strat, 0.0, 1.0, i, spec, 30_000,
                RngSpec(seed=2024, stream=10 + i), n_grid=1024, target=target,
            )
            assert abs(rep.z_score) < 3.0

    def test_utility_domain_error_before_sampling(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.5, 0.0, 1.0, n_states=2)
        with pytest.raises(ValueError, match="diverges"):
            estimate_J(strat, 0.0, 1.0, 0, bench_spec, 1000, RngSpec(seed=3))


class TestFeynmanKac:
    def test_single_regime_constant_strategy_closed_form(self):
        spec = make_spec(gamma=-1.0, mu=0.15, r=0.05, rho=(0.3, 0.3))
        a, b = 0.9, 0.6
        strat = ProportionalStrategy.from_constants(a, b, 1.0, n_states=2)
        fk = feynman_kac_value(strat, 0.3, spec)
        g = spec.gamma
        k = g * (0.05 + 0.15 * a - b) + 0.5 * g * (g - 1) * 0.0625 * a**2
        kappa = 0.3 - k
        ts = fk.table.grid
        ref = b**g / kappa + (1 - b**g / kappa) * np.exp(kappa * (ts - 1.0))
        assert np.abs(fk.table.values[:, 0] - ref).max() <= 1e-8

    def test_equilibrium_diagonal_reproduces_g_under_common_discount(self, const_rho_spec):
        # With a single discount rate the policy's frozen-discount value has
        # the solved g as its coefficient, regime coupling and all.
        sol = solve_g(const_rho_spec)
        strat = ProportionalStrategy.from_policy(sol)
        fk = feynman_kac_value(strat, 0.9, const_rho_spec)
        dev = np.abs(fk.table.values - sol.g_table.interpolate(fk.table.grid))
        assert dev.max() <= 1e-6

    def test_state_symmetric_inputs_give_state_symmetric_table(self):
        spec = make_spec(gamma=-0.5, rho=(0.4, 0.4))
        strat = ProportionalStrategy.from_constants(0.7, 0.5, 1.0, n_states=2)
        fk = feynman_kac_value(strat, 0.4, spec)
        # symmetric up to matmul roundoff (BLAS fused multiply-add)
        np.testing.assert_allclose(
            fk.table.values[:, 0], fk.table.values[:, 1], rtol=0, atol=1e-12
        )

    def test_reproduces_single_regime_benchmark_value(self, const_rho_spec):
        # Frozen oracle against the closed-form consumption benchmark:
        # the implied coefficient is C(t)^(gamma-1).
        sol = solve_g(const_rho_spec)
        strat = ProportionalStrategy.from_policy(sol)
        fk = feynman_kac_value(strat, 0.9, const_rho_spec)
        ts = fk.table.grid
        ref = merton_closed_form(const_rho_spec, ts) ** (const_rho_spec.gamma - 1.0)
        assert np.abs(fk.table.values[:, 0] - ref).max() <= 1e-6

    def test_log_wealth_coefficient_is_strategy_free_closed_form(self):
        # For log preferences the coefficient of log x under a frozen
        # discount depends on nothing but the rate and the clock.
        spec = make_spec(gamma=0.0)
        for a, b in ((0.0, 0.3), (1.5, 0.9)):
            strat = ProportionalStrategy.from_constants(a, b, 1.0, n_states=2)
            fk = feynman_kac_value(strat, 0.9, spec)
            ts = fk.table.grid
            ref = np.exp(-0.9 * (1.0 - ts)) + (1 - np.exp(-0.9 * (1.0 - ts))) / 0.9
            assert np.abs(fk.table.values[:, :2] - ref[:, None]).max() <= 1e-9

    def test_frozen_discount_value_departs_from_ansatz_when_rho_varies(self):
        # With regime-dependent discounting, the frozen-discount value of the
        # solved policy is NOT the ansatz coefficient table: the log-wealth
        # coefficient has a strategy-free closed form, and it sits well below
        # the coupled h in the high-discount regime. See the frozen-discount
        # note in the README.
        spec = make_spec(gamma=0.0)  # rho = (0.9, 0.3)
        sol = solve_log(spec)
        h_coupled = sol.table.values[0, 0]
        h_frozen = np.exp(-0.9) + (1 - np.exp(-0.9)) / 0.9
        assert h_coupled - h_frozen > 0.1

    def test_domain_check(self, bench_spec):
        strat = ProportionalStrategy.from_constants(0.5, 0.0, 1.0, n_states=2)
        with pytest.raises(ValueError, match="diverges"):
            feynman_kac_value(strat, 0.9, bench_spec)


def per_stage_fk_rhs(strategy, frozen_rho, spec):
    """Leg-wise right-hand side of the frozen-discount value system, the strategy read per stage."""
    S, rates, gamma = spec.states, spec.generator.rates, spec.gamma

    def make_rhs(r, mu, sigma):
        def rhs(t, y):
            a, b = strategy.values_at(t)
            if spec.prefs.is_log:
                h, low = y[:S], y[S:]
                dh = -(1.0 - frozen_rho * h + rates @ h)
                drift = r + mu * a - b - 0.5 * sigma**2 * a**2
                return np.concatenate([dh, -(drift * h + np.log(b) - frozen_rho * low + rates @ low)])
            coef = gamma * (r + mu * a - b) + 0.5 * gamma * (gamma - 1.0) * sigma**2 * a**2
            return -((coef - frozen_rho) * y + rates @ y + np.power(b, gamma))

        return rhs

    return make_rhs


class TestAffineFeynmanKac:
    """The affine sweep of the frozen-discount system against per-stage RK4 on the same legs."""

    @staticmethod
    def policy(spec):
        return ProportionalStrategy.from_policy(solve(spec, n_steps=64, tol=1e-4))

    def assert_matches_per_stage(self, strategy, spec, terminal, n_steps, **window):
        rho = float(spec.rho[0])
        got = _fk_solve(strategy, rho, spec, terminal, n_steps, **window)
        ref = solve_market_ode(per_stage_fk_rhs(strategy, rho, spec), spec, terminal, n_steps,
                               tol=None, sweep=per_stage_rk4, **window)
        np.testing.assert_array_equal(got.grid, ref.grid)
        assert np.abs(got.values - ref.values).max() <= 1e-12

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_benchmark_both_branches(self, gamma):
        spec = benchmark_spec(gamma)
        self.assert_matches_per_stage(self.policy(spec), spec, spec.prefs.terminal(2), 2048)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_two_leg_override_market(self, gamma):
        spec = replace(benchmark_spec(gamma), override=two_phase_override())
        self.assert_matches_per_stage(self.policy(spec), spec, spec.prefs.terminal(2), 512)

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_window_across_a_breakpoint(self, gamma):
        spec = replace(benchmark_spec(gamma), override=two_phase_override())
        terminal = spec.prefs.terminal(2)
        boundary = terminal + 0.1 * np.arange(1, terminal.size + 1)
        perturbed = self.policy(spec).scaled(invest=2.0, consume=0.5)
        self.assert_matches_per_stage(perturbed, spec, boundary, 64, t_start=0.45, horizon=0.55)

    def test_32_regimes_with_a_partial_block(self):
        spec = regime_market(20260811, 20.0)
        strategy = ProportionalStrategy.from_constants(
            np.linspace(0.5, 1.5, 32), np.linspace(0.8, 1.6, 32), 1.0, n_states=32)
        # blocks of 32 steps, the one at the horizon holding the last 4
        self.assert_matches_per_stage(strategy, spec, np.ones(32), 100)


class TestEquilibriumSlope:
    def test_identity_perturbation_has_exactly_zero_slope(self, bench_spec):
        sol = solve_g(bench_spec)
        base = ProportionalStrategy.from_policy(sol)
        res = SlopeOracle(bench_spec, solution=sol).slope(0.5, 1.0, 0, base)
        assert (res.slopes == 0.0).all()
        assert res.extrapolated == 0.0

    def test_doubled_consumption_slope_nonnegative(self, bench_spec):
        sol = solve_g(bench_spec)
        menu = perturbation_menu(sol)
        res = SlopeOracle(bench_spec, solution=sol).slope(0.5, 1.0, 0, menu["consumption_x2"])
        assert res.extrapolated >= -1e-6
        assert res.extrapolated == pytest.approx(0.536644, abs=1e-4)

    def test_zero_investment_slope_nonnegative(self, bench_spec):
        sol = solve_g(bench_spec)
        menu = perturbation_menu(sol)
        oracle = SlopeOracle(bench_spec, solution=sol)
        for i in range(2):
            res = oracle.slope(0.3, 1.0, i, menu["investment_zero"])
            assert res.extrapolated > 0.0

    def test_slope_scales_homothetically(self, bench_spec):
        sol = solve_g(bench_spec)
        menu = perturbation_menu(sol)
        oracle = SlopeOracle(bench_spec, solution=sol)
        r1 = oracle.slope(0.5, 1.0, 0, menu["consumption_x2"])
        r2 = oracle.slope(0.5, 2.0, 0, menu["consumption_x2"])
        assert r2.extrapolated == pytest.approx(2.0**bench_spec.gamma * r1.extrapolated, rel=1e-9)

    def test_improving_consumption_direction_exists_for_high_gamma(self):
        # At gamma = 0.7 the menu's halved-consumption perturbation has a
        # strictly negative first-order slope in the low-discount regime:
        # the solved policy's consumption is not a stationary point of the
        # frozen-discount functional there. See the frozen-discount note in
        # the README.
        spec = make_spec(gamma=0.7)
        sol = solve_g(spec)
        menu = perturbation_menu(sol)
        res = SlopeOracle(spec, solution=sol).slope(0.25, 1.0, 1, menu["consumption_half"])
        assert res.extrapolated < -0.02
        assert res.extrapolated == pytest.approx(-0.04934, abs=5e-4)

    def test_window_bounds_checked(self, bench_spec):
        sol = solve_g(bench_spec)
        base = ProportionalStrategy.from_policy(sol)
        with pytest.raises(ValueError, match="window widths"):
            SlopeOracle(bench_spec, solution=sol).slope(0.9, 1.0, 0, base, epsilons=[0.5])

    def test_menu_contains_six_perturbations(self, bench_spec):
        menu = perturbation_menu(solve_g(bench_spec))
        assert sorted(menu) == [
            "both_x2",
            "consumption_half",
            "consumption_x2",
            "investment_flip",
            "investment_x2",
            "investment_zero",
        ]


class TestPointChecks:
    """A state outside [0, S), wealth that is not finite and positive, or a time off the
    table is refused at every point entry, on either branch, instead of answering."""

    @pytest.fixture(scope="class", params=[0.0, -1.0], ids=["log", "power"])
    def solved(self, request):
        spec = benchmark_spec(request.param)
        return spec, solve(spec, n_steps=256)

    @pytest.mark.parametrize("i", [-1, 2])
    def test_state_outside_refused(self, solved, i):
        spec, sol = solved
        strategy = ProportionalStrategy.from_policy(sol)
        with pytest.raises(IndexError, match=f"state {i} outside"):
            value_at(sol, 0.0, 2.0, i)
        with pytest.raises(IndexError, match=f"state {i} outside"):
            feynman_kac_value(strategy, float(spec.rho[0]), spec, n_steps=64).value(0.0, 2.0, i)
        with pytest.raises(IndexError, match=f"state {i} outside"):
            estimate_J(strategy, 0.0, 1.0, i, spec, 10, RngSpec(seed=1), n_grid=16)
        with pytest.raises(IndexError, match=f"state {i} outside"):
            sample_terminal_wealth(strategy, 1.0, i, spec, 10, RngSpec(seed=1), n_grid=16)
        oracle = SlopeOracle(spec, solution=sol, n_steps_tail=64, n_steps_window=32)
        with pytest.raises(IndexError, match=f"state {i} outside"):
            oracle.slope(0.3, 1.0, i, perturbation_menu(sol)["consumption_x2"])
        assert oracle._tails == {} and oracle._eq_windows == {}  # refused before any solve

    @pytest.mark.parametrize("i", [-1, 2])
    def test_state_outside_refused_at_the_horizon(self, solved, i):
        spec, sol = solved
        strategy = ProportionalStrategy.from_policy(sol)
        with pytest.raises(IndexError, match=rf"state {i} outside \[0, 2\)"):
            estimate_J(strategy, spec.horizon, 1.0, i, spec, 10, RngSpec(seed=1), n_grid=16)

    @pytest.mark.parametrize("x", [np.nan, np.inf])
    def test_wealth_not_finite_refused(self, solved, x):
        spec, sol = solved
        strategy = ProportionalStrategy.from_policy(sol)
        with pytest.raises(ValueError, match="wealth must be finite and positive"):
            value_at(sol, 0.0, x, 0)
        with pytest.raises(ValueError, match="wealth must be finite and positive"):
            estimate_J(strategy, 0.0, x, 0, spec, 10, RngSpec(seed=1), n_grid=16)
        with pytest.raises(ValueError, match="wealth must be finite and positive"):
            sample_terminal_wealth(strategy, x, 0, spec, 10, RngSpec(seed=1), n_grid=16)

    @pytest.mark.parametrize("t", [5.0, -3.0, np.nan])
    def test_frozen_value_refuses_time_off_the_table(self, solved, t):
        spec, sol = solved
        fk = feynman_kac_value(ProportionalStrategy.from_policy(sol), float(spec.rho[0]), spec,
                               n_steps=64)
        with pytest.raises(ValueError, match=rf"t={t} outside \[0, 1.0\]"):
            fk.value(t, 1.0, 0)
        with pytest.raises(ValueError, match=rf"t={t} outside \[0, 1.0\]"):
            value_at(sol, t, 1.0, 0)
