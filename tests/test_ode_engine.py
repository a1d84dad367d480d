import numpy as np
import pytest
from scipy.linalg import expm

from rsmerton.ode_engine import (
    OdeConvergenceError,
    OdeDomainError,
    OdeSystem,
    SolutionTable,
    interp_by_state,
    residual_norm,
    rk4_solve,
    solve_terminal_ode,
    step_cumulative,
)


def scalar_discount_system(rho=0.3, T=1.0):
    """f' - rho f + 1 = 0 backward from f(T) = 1."""
    return OdeSystem(
        dimension=1,
        rhs=lambda t, y: rho * y - 1.0,
        terminal_values=np.array([1.0]),
        horizon=T,
    )


def scalar_closed_form(ts, rho=0.3, T=1.0):
    e = np.exp(-rho * (T - ts))
    return e + (1.0 - e) / rho


class TestSolve:
    def test_scalar_discount_closed_form(self):
        table = solve_terminal_ode(scalar_discount_system())
        ref = scalar_closed_form(table.grid)
        assert np.abs(table.values[:, 0] - ref).max() <= 1e-9
        assert table.values[0, 0] == pytest.approx(1.6047574851, abs=1e-9)

    def test_zero_rhs_is_constant(self):
        sys0 = OdeSystem(
            dimension=2,
            rhs=lambda t, y: np.zeros(2),
            terminal_values=np.array([3.0, -1.0]),
            horizon=2.0,
        )
        table = solve_terminal_ode(sys0, n_steps=16)
        assert (table.values == np.array([3.0, -1.0])).all()

    def test_linear_system_matches_matrix_exponential(self):
        A = np.array([[-0.8, 0.5], [0.3, -0.2]])
        sysA = OdeSystem(
            dimension=2,
            rhs=lambda t, y: A @ y,
            terminal_values=np.array([1.0, 1.0]),
            horizon=1.0,
        )
        table = solve_terminal_ode(sysA)
        for k in range(0, table.grid.size, 256):
            t = table.grid[k]
            ref = expm(A * (t - 1.0)) @ np.ones(2)
            assert np.abs(table.values[k] - ref).max() <= 1e-8

    def test_terminal_node_exact(self):
        table = solve_terminal_ode(scalar_discount_system(), n_steps=16)
        assert table.values[-1, 0] == 1.0

    def test_fourth_order_convergence(self):
        sys_ = scalar_discount_system(rho=2.0)
        errs = []
        for n in (32, 64):
            t = rk4_solve(sys_, n)
            errs.append(np.abs(t.values[:, 0] - scalar_closed_form(t.grid, rho=2.0)).max())
        assert errs[0] / errs[1] >= 12.0

    def test_deterministic_bit_identical(self):
        a = solve_terminal_ode(scalar_discount_system())
        b = solve_terminal_ode(scalar_discount_system())
        assert np.array_equal(a.values, b.values)
        assert np.array_equal(a.grid, b.grid)

    def test_minimum_step_count(self):
        with pytest.raises(ValueError, match="at least 16"):
            solve_terminal_ode(scalar_discount_system(), n_steps=8)

    def test_sub_interval_domain(self):
        sys_ = OdeSystem(
            dimension=1,
            rhs=lambda t, y: 0.3 * y - 1.0,
            terminal_values=np.array([1.0]),
            horizon=1.0,
            t_start=0.25,
        )
        table = rk4_solve(sys_, 512)
        assert table.grid[0] == 0.25
        ref = scalar_closed_form(table.grid)
        assert np.abs(table.values[:, 0] - ref).max() <= 1e-9


class TestDomainGuards:
    def test_positivity_floor_reports_time_and_component(self):
        sys_ = OdeSystem(
            dimension=2,
            rhs=lambda t, y: np.array([0.0, 1.0]),  # component 1 sinks backward
            terminal_values=np.array([1.0, 0.5]),
            horizon=1.0,
            positivity_floor=1e-12,
        )
        with pytest.raises(OdeDomainError, match="component 1"):
            rk4_solve(sys_, 64)

    def test_nonfinite_rhs_reported(self):
        sys_ = OdeSystem(
            dimension=1,
            rhs=lambda t, y: np.array([np.nan if y[0] < 2.0 else 0.0]),
            terminal_values=np.array([1.0]),
            horizon=1.0,
        )
        with pytest.raises(OdeDomainError, match="non-finite"):
            rk4_solve(sys_, 32)

    def test_convergence_cap(self):
        with pytest.raises(OdeConvergenceError):
            solve_terminal_ode(scalar_discount_system(), n_steps=16, tol=0.0, max_steps=64)


class TestResidual:
    def test_solved_table_has_small_residual(self):
        sys_ = scalar_discount_system()
        table = solve_terminal_ode(sys_)
        assert residual_norm(sys_, table) <= 1e-5

    def test_constant_solution_zero_residual(self):
        sys0 = OdeSystem(
            dimension=1, rhs=lambda t, y: np.zeros(1),
            terminal_values=np.array([2.0]), horizon=1.0,
        )
        table = solve_terminal_ode(sys0, n_steps=16)
        assert residual_norm(sys0, table) == 0.0

    def test_detects_single_point_perturbation(self):
        sys_ = scalar_discount_system()
        table = solve_terminal_ode(sys_, n_steps=64)
        values = table.values.copy()
        k = values.shape[0] // 2
        values[k, 0] += 1e-2
        bumped = SolutionTable(grid=table.grid, values=values)
        step = table.grid[1] - table.grid[0]
        assert residual_norm(sys_, bumped) >= 0.5 * 1e-2 / (2 * step)

    def test_needs_three_points(self):
        sys_ = scalar_discount_system()
        tiny = SolutionTable(grid=np.array([0.0, 1.0]), values=np.ones((2, 1)))
        with pytest.raises(ValueError, match="3 grid points"):
            residual_norm(sys_, tiny)


class TestTableHelpers:
    def test_interpolation_exact_at_nodes_linear_between(self):
        grid = np.array([0.0, 0.5, 1.0])
        vals = np.array([[0.0, 1.0], [1.0, 3.0], [4.0, 5.0]])
        table = SolutionTable(grid=grid, values=vals)
        np.testing.assert_array_equal(table.interpolate(0.5), vals[1])
        np.testing.assert_allclose(table.interpolate(0.25), [0.5, 2.0])

    def test_csv_layout(self):
        table = SolutionTable(grid=np.array([0.0, 1.0]), values=np.array([[1.0], [2.0]]))
        lines = table.to_csv(header_meta={"grid": 1}).strip().splitlines()
        assert lines[0] == "# grid=1"
        assert lines[1] == "t,y0"
        assert lines[2] == "0,1"

    def test_step_cumulative(self):
        nodes = np.array([0.0, 1.0, 3.0])
        ivals = np.array([[2.0], [5.0]])
        cum = step_cumulative(nodes, ivals)
        np.testing.assert_allclose(cum[:, 0], [0.0, 2.0, 12.0])

    def test_interp_by_state(self):
        grid = np.array([0.0, 1.0])
        table = np.array([[0.0, 10.0], [1.0, 20.0]])
        t = np.array([0.5, 0.25])
        state = np.array([0, 1])
        np.testing.assert_allclose(interp_by_state(grid, table, t, state), [0.5, 12.5])

    def test_interp_by_state_matches_np_interp_bit_for_bit(self):
        g = np.random.default_rng(3)
        grid = np.unique(np.concatenate([[0.0, 1.0], g.uniform(0.0, 1.0, 40)]))
        table = np.cumsum(g.standard_normal((grid.size, 5)), axis=0)
        # Random times, every node, and times past both ends.
        t = np.concatenate([g.uniform(-0.1, 1.1, 2000), grid])
        state = g.integers(0, 5, t.size)
        ref = np.array([np.interp(tk, grid, table[:, s]) for tk, s in zip(t, state)])
        np.testing.assert_array_equal(interp_by_state(grid, table, t, state), ref)
        cols = np.stack([np.interp(t, grid, table[:, j]) for j in range(5)], axis=1)
        np.testing.assert_array_equal(interp_by_state(grid, table, t[:, None], np.arange(5)), cols)

    def test_interp_by_state_rejects_states_outside_the_table(self):
        grid = np.array([0.0, 1.0])
        table = np.array([[0.0, 10.0], [1.0, 20.0]])
        with pytest.raises(IndexError, match=r"state 5 outside \[0, 2\)"):
            interp_by_state(grid, table, np.array([0.5, 0.5]), np.array([5, 7]))
        with pytest.raises(IndexError, match="state -1"):
            interp_by_state(grid, table, np.array([0.5]), np.array([-1]))
