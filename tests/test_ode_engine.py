from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from rsmerton.ode_engine import (
    BLOCK_ELEMENTS,
    BLOCK_STEPS,
    OdeConvergenceError,
    OdeDomainError,
    OdeSystem,
    SolutionTable,
    affine_pair_solve,
    affine_rk4_solve,
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


def per_stage_rk4(system, n_steps):
    """Reference RK4 sweep: rhs per stage, each stage's input and derivative checked in turn.

    Raises the OdeDomainError of the first failing stage; otherwise returns
    the table, terminal node stored exactly.
    """
    h = (system.horizon - system.t_start) / n_steps
    ts = np.linspace(system.t_start, system.horizon, n_steps + 1)

    def check(t, v, what, floor):
        if floor is not None and (v < floor).any():
            j = int(np.argmax(v < floor))
            raise OdeDomainError(t, j, float(v[j]), f"{what} fell below positivity floor")
        if not np.isfinite(v).all():
            j = int(np.argmax(~np.isfinite(v)))
            raise OdeDomainError(t, j, float(v[j]), f"non-finite {what}")

    def f(t, v):
        check(t, v, "state", system.positivity_floor)
        d = system.rhs(t, v)
        check(t, d, "derivative", None)
        return d

    out = np.empty((n_steps + 1, system.dimension))
    out[n_steps] = y = system.terminal_values.copy()
    with np.errstate(all="ignore"):
        for k in range(n_steps, 0, -1):
            t = ts[k]
            k1 = f(t, y)
            k2 = f(t - h / 2, y - (h / 2) * k1)
            k3 = f(t - h / 2, y - (h / 2) * k2)
            k4 = f(t - h, y - h * k3)
            out[k - 1] = y = y - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
    check(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out)


def per_stage_error(system, n_steps):
    """The OdeDomainError of an RK4 sweep that checks each stage's input and derivative in turn."""
    try:
        per_stage_rk4(system, n_steps)
    except OdeDomainError as e:
        return e
    return None


class TestBlockCheck:
    """rk4_solve checks a block of steps at once but reports what a per-stage check would."""

    N = 2 * BLOCK_STEPS + 44  # two full blocks, then a partial one
    H = 1.0 / N
    TS = np.linspace(0.0, 1.0, N + 1)

    def kicked(self, t_hit, kick):
        """Two components from y(1) = (1, 1) above a 0.5 floor; rhs is kick(y) near t_hit, else 0."""
        near = lambda t: abs(t - t_hit) < self.H / 4  # noqa: E731
        return OdeSystem(
            dimension=2,
            rhs=lambda t, y: kick(y) if near(t) else np.zeros(2),
            terminal_values=np.ones(2),
            horizon=1.0,
            positivity_floor=0.5,
        )

    def mid(self, step):
        """Time of the k2 and k3 stages of the step-th step of the sweep (1 is the first)."""
        return self.TS[self.N - step + 1] - self.H / 2

    def assert_same_error(self, system, message, t):
        ref = per_stage_error(system, self.N)
        with pytest.raises(OdeDomainError) as got:
            rk4_solve(system, self.N)
        e = got.value
        assert (str(e), e.t, e.component) == (str(ref), ref.t, ref.component)
        np.testing.assert_equal(e.value, ref.value)
        assert str(e).startswith(message)
        assert e.t == t

    def test_floor_crossing_at_a_k3_stage_input(self):
        # k2 = 360 at the middle stages sends the k3 input 0.6 down, to 0.4
        sys_ = self.kicked(self.mid(200), lambda y: np.array([0.0, 0.6 / (self.H / 2)]))
        self.assert_same_error(sys_, "state fell below positivity floor", self.mid(200))

    def test_non_finite_derivative_at_a_middle_stage(self):
        sys_ = self.kicked(self.mid(150), lambda y: np.array([np.nan, 0.0]))
        self.assert_same_error(sys_, "non-finite derivative", self.mid(150))

    def test_state_failure_wins_over_derivative_failure_at_one_stage(self):
        # The k3 input falls below the floor, and rhs gives NaN there: the
        # state is checked before its derivative.
        def kick(y):
            return np.array([0.0, 0.6 / (self.H / 2) if y[1] >= 0.5 else np.nan])

        self.assert_same_error(
            self.kicked(self.mid(140), kick), "state fell below positivity floor", self.mid(140)
        )

    def test_failure_in_the_first_step(self):
        # k1 at t = 1 sends the k2 input of the first step below the floor
        sys_ = self.kicked(1.0, lambda y: np.array([0.0, 0.6 / (self.H / 2)]))
        self.assert_same_error(sys_, "state fell below positivity floor", self.mid(1))

    def test_failure_in_the_last_partial_block(self):
        sys_ = self.kicked(0.0, lambda y: np.array([0.0, np.inf]))
        self.assert_same_error(sys_, "non-finite derivative", self.TS[1] - self.H)

    def test_failure_of_the_final_state(self):
        # Only k4 of the last step kicks, so only the state at t = 0 is below the floor
        sys_ = self.kicked(0.0, lambda y: np.array([0.0, 0.6 / (self.H / 6)]))
        self.assert_same_error(sys_, "state fell below positivity floor", 0.0)


def linear_pair(d, seed=5, kick=None):
    """A time-dependent linear system of dimension d and a linear follower fed by log of its state.

    lead: y' = A(t) y + f(t), follower: z' = B z + C(t) y + log y. Returns the
    affine coefficients (rhs(times, lead stages) as affine_rk4_solve reads it)
    and, for the per-stage reference, the right-hand sides of the lead and of
    the joint 2d system. kick(t) adds to the lead's forcing, to drive it
    through a floor.
    """
    g = np.random.default_rng(seed)
    A0 = -np.eye(d) - 0.3 * g.exponential(1.0, (d, d)) / d  # -A0 is Metzler: y stays positive
    B = -0.5 * np.eye(d) + 0.2 * g.standard_normal((d, d)) / np.sqrt(d)
    f0, c0 = g.uniform(0.5, 1.5, (2, d))
    kick = kick or (lambda t: 0.0)

    def A(t):
        return np.multiply.outer(1.0 + 0.5 * np.sin(3 * t), A0)

    def forcing(t):  # negative, so the lead grows backward from y(1) = 1
        return np.multiply.outer(kick(t) - 1.0 - t, np.ones(d)) * f0

    def coefficients(times, lead):
        stage = [0, 1, 1, 2]
        if lead is None:
            return A(times), forcing(times)[stage, ..., None]
        c = np.multiply.outer(np.cos(times), c0)[stage, ..., None]
        return np.broadcast_to(B, (3, d, d)), c * lead + np.log(lead)

    def lead_rhs(t, y):
        return A(t) @ y + forcing(t)

    def joint(t, yz):
        y, z = yz[:d], yz[d:]
        return np.concatenate([lead_rhs(t, y), B @ z + np.cos(t) * c0 * y + np.log(y)])

    return coefficients, lead_rhs, joint


class TestAffineSweep:
    """affine_rk4_solve and affine_pair_solve against the per-stage RK4 sweep of the same system."""

    def lead_system(self, d, coefficients, **kw):
        return OdeSystem(d, lambda times, lead: coefficients(times, None), np.ones(d), 1.0, **kw)

    @pytest.mark.parametrize("d, n", [(2, 2 * (BLOCK_ELEMENTS // 16) + 5),
                                      (32, 3 * (BLOCK_ELEMENTS // 32**2) + 5)])
    def test_time_dependent_system_matches_per_stage_sweep(self, d, n):
        # blocks of 2048 (d = 2) and 32 (d = 32) steps, the one at the horizon holding the last 5
        coefficients, lead_rhs, _ = linear_pair(d)
        system = self.lead_system(d, coefficients, t_start=0.25)
        ref = per_stage_rk4(replace(system, rhs=lead_rhs), n)
        got = affine_rk4_solve(system, n)
        np.testing.assert_array_equal(got.grid, ref.grid)
        assert got.values[-1].tolist() == [1.0] * d
        assert np.abs(got.values - ref.values).max() <= 1e-12

    @pytest.mark.parametrize("d, n", [(2, 200), (32, 70)])
    def test_pair_matches_per_stage_sweep_of_the_joint_system(self, d, n):
        coefficients, _, joint = linear_pair(d)
        terminal = np.concatenate([np.ones(d), np.zeros(d)])
        system = OdeSystem(2 * d, coefficients, terminal, 1.0)
        ref = per_stage_rk4(replace(system, rhs=joint), n)
        got = affine_pair_solve(system, n)
        assert np.abs(got.values - ref.values).max() <= 1e-12

    def test_pair_floor_failure_is_the_per_stage_one(self):
        # The lead's forcing jumps near t = 0.6 and drives it below the floor;
        # the follower's log h fails there too, but the state is checked first.
        # The pair floors its lead alone; the joint reference floors the same
        # components with a per-component floor of its own.
        coefficients, _, joint = linear_pair(2, kick=lambda t: 400.0 * (np.abs(t - 0.6) < 0.01))
        system = OdeSystem(4, coefficients, np.array([1.0, 1.0, 0.0, 0.0]), 1.0,
                           positivity_floor=1e-12)
        floor = np.array([1e-12, 1e-12, -np.inf, -np.inf])
        ref = per_stage_error(replace(system, rhs=joint, positivity_floor=floor), 256)
        with pytest.raises(OdeDomainError) as got:
            affine_pair_solve(system, 256)
        e = got.value
        assert ref is not None and str(ref).startswith("state fell below positivity floor")
        assert (e.reason, e.t, e.component) == (ref.reason, ref.t, ref.component)
        assert e.value == pytest.approx(ref.value, rel=1e-9)

    def test_non_finite_follower_names_its_component_in_the_whole_state(self):
        coefficients, _, _ = linear_pair(2)

        def broken(times, lead):
            A, f = coefficients(times, lead)
            return (A, f) if lead is None else (A, np.where(times[[0, 1, 1, 2], :, None, None]
                                                            < 0.3, np.nan, f))

        system = OdeSystem(4, broken, np.array([1.0, 1.0, 0.0, 0.0]), 1.0)
        with pytest.raises(OdeDomainError) as got:
            affine_pair_solve(system, 64)
        assert got.value.reason == "non-finite derivative"
        assert got.value.component == 2
        assert got.value.t < 0.3


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
