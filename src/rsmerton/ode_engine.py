"""Backward (terminal-value) integrator for coupled per-regime ODE systems.

The scheme is classical fixed-step fourth-order Runge-Kutta swept from the
horizon down to 0, with step-halving error control: the sweep is repeated at
twice the resolution until the two grids agree to tolerance. Fixed steps keep
results bit-stable across runs and platforms. On a linear system the scheme is
one affine map per step, y(t - h) = M y(t) + v (Hairer, Norsett & Wanner,
Solving ODEs I), which affine_rk4_solve builds for a block of steps at once.

Domain errors (a stage input below the positivity floor or not finite, or a
derivative not finite) are found once per block of steps by one vectorised
test, so rhs may see the rest of a block past a failure. A failing block is
rescanned in sweep order and raises the OdeDomainError (stage time, component,
value, reason) a check of each stage in turn would raise.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

DEFAULT_STEPS = 2048
DEFAULT_TOL = 1e-9
MAX_STEPS = 2**20
BLOCK_STEPS = 128  # steps whose stages rk4_solve checks with one test
# Entries of one block's arrays (affine_rk4_solve's step maps, ctmc.cell_blocks'
# (cells, paths) arrays): amortises per-block work, keeps temporaries small.
BLOCK_ELEMENTS = 2**15


class OdeDomainError(RuntimeError):
    """Raised when the state leaves the admissible domain during integration."""

    def __init__(self, t: float, component: int, value: float, reason: str, note: str = ""):
        self.t, self.component, self.value, self.reason = t, component, value, reason
        msg = f"{reason} at t={t:.6g}, component {component} (value {value:.6g})"
        super().__init__(msg + (f"; {note}" if note else ""))


class OdeConvergenceError(RuntimeError):
    """Raised when step doubling hits the cap before meeting the tolerance."""


@dataclass(frozen=True)
class OdeSystem:
    """Terminal-value problem y'(t) = rhs(t, y) on [t_start, horizon], y(horizon) given.

    rhs must be deterministic and side-effect free and return a float array.
    If positivity_floor is set, integration aborts once any component drops
    below it (affine_pair_solve floors its lead alone). affine_rk4_solve reads
    rhs as the coefficients of a linear system instead (see there).
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    terminal_values: np.ndarray
    horizon: float
    positivity_floor: float | None = None
    t_start: float = 0.0

    def __post_init__(self):
        tv = np.asarray(self.terminal_values, dtype=float)
        if tv.shape != (self.dimension,):
            raise ValueError(f"terminal_values must have shape ({self.dimension},)")
        if not self.horizon > self.t_start:
            raise ValueError("horizon must exceed t_start")
        object.__setattr__(self, "terminal_values", tv)


@dataclass(frozen=True)
class SolutionTable:
    """Dense grid values of a vector function of time; piecewise-linear between nodes."""

    grid: np.ndarray
    values: np.ndarray  # (n_nodes, dimension)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if not (np.diff(g) > 0).all():
            raise ValueError("grid must be strictly increasing")
        if v.shape[0] != g.size:
            raise ValueError("values must have one row per grid node")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)

    @property
    def dimension(self) -> int:
        return self.values.shape[1]

    def interpolate(self, t) -> np.ndarray:
        """All components at time(s) t; exact at grid nodes."""
        t = np.asarray(t, dtype=float)
        return interp_by_state(self.grid, self.values, t[..., None], np.arange(self.dimension))

    def to_csv(self, header_meta: dict | None = None, column: str = "y") -> str:
        lines = ["# " + " ".join(f"{k}={v}" for k, v in header_meta.items())] if header_meta else []
        lines.append("t," + ",".join(f"{column}{j}" for j in range(self.dimension)))
        for t, row in zip(self.grid, self.values):
            lines.append(f"{t:.12g}," + ",".join(f"{v:.12g}" for v in row))
        return "\n".join(lines) + "\n"


def _check_domain(t: float, v: np.ndarray, what: str, floor=None):
    if floor is not None and (v < floor).any():
        j = int(np.argmax(v < floor))
        raise OdeDomainError(t, j, float(v[j]), f"{what} fell below positivity floor")
    if not np.isfinite(v).all():
        j = int(np.argmax(~np.isfinite(v)))
        raise OdeDomainError(t, j, float(v[j]), f"non-finite {what}")


def _check_block(system: OdeSystem, block: np.ndarray, times: np.ndarray):
    """Check (stage input, derivative) pairs, shape (-1, 2, dimension), in sweep order, at once.

    On a failure the stages are rechecked in turn, input before derivative,
    and the first failing one raises; times is the block's (3, m) stage times.
    """
    floor = system.positivity_floor
    if np.isfinite(block).all() and (floor is None or (block[:, 0] >= floor).all()):
        return
    for t, (y, d) in zip(times[[0, 1, 1, 2], ::-1].T.ravel(), block):
        _check_domain(t, y, "state", floor)
        _check_domain(t, d, "derivative")


def _rk4_step(A, f, y, h):
    """RK4 step back from column stack y on y' = A y + f: ([y, k1, ..., y4, k4], next y).

    A is at the stage times t, t - h/2, t - h, f at the four stages.
    """
    (A1, A2, A4), (f1, f2, f3, f4) = A, f
    k1 = A1 @ y + f1
    y2 = y - (h / 2) * k1
    k2 = A2 @ y2 + f2
    y3 = y - (h / 2) * k2
    k3 = A2 @ y3 + f3
    y4 = y - h * k3
    k4 = A4 @ y4 + f4
    return [y, k1, y2, k2, y3, k3, y4, k4], y - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """One fixed-step RK4 sweep from the terminal condition down to t=0.

    Low level: no error control. The terminal node is stored exactly. The
    block's stage inputs and derivatives are checked at the end of each block
    of BLOCK_STEPS steps, the state at t_start last (see the module docstring).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    h = (system.horizon - system.t_start) / n_steps
    ts = np.linspace(system.t_start, system.horizon, n_steps + 1)
    out = np.empty((n_steps + 1, system.dimension))
    y = system.terminal_values.copy()
    out[n_steps] = y
    rhs = system.rhs
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(((n_steps - 1) // BLOCK_STEPS) * BLOCK_STEPS, -1, -BLOCK_STEPS):
            # column i: the stage times of the step ts[lo + i + 1] -> ts[lo + i]
            block = np.stack([ts[lo + 1 : lo + 1 + BLOCK_STEPS] - d for d in (0.0, h / 2, h)])
            a1, a2, a4 = block
            stages = []
            for i in range(block.shape[1] - 1, -1, -1):
                k1 = rhs(a1[i], y)
                y2 = y - (h / 2) * k1
                k2 = rhs(a2[i], y2)
                y3 = y - (h / 2) * k2
                k3 = rhs(a2[i], y3)
                y4 = y - h * k3
                k4 = rhs(a4[i], y4)
                stages += (y, k1, y2, k2, y3, k3, y4, k4)
                y = y - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
                out[lo + i] = y
            _check_block(system, np.concatenate(stages).reshape(-1, 2, system.dimension), block)
    _check_domain(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out)


def affine_rk4_solve(system: OdeSystem, n_steps: int, lead=None) -> SolutionTable:
    """rk4_solve's sweep of a linear system y' = A y + f, one affine map per step.

    system.rhs(times, None) gives A and f at a block's (3, m) stage times t,
    t - h/2, t - h: A broadcasting to (3, m, d, d), f to (4, m, d, 1), one
    column per stage. A lead table on the grid solves that system, and y's
    coefficients are rhs(times, the lead's stage inputs). Blocks of steps are
    checked as rk4_solve checks its own.
    """
    d, h = system.dimension, (system.horizon - system.t_start) / n_steps
    ts = np.linspace(system.t_start, system.horizon, n_steps + 1)
    out = np.empty((n_steps + 1, d))
    out[n_steps] = y = system.terminal_values
    width = max(1, BLOCK_ELEMENTS // (d * max(d, 8)))  # entries of a step's matrix or stages
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(((n_steps - 1) // width) * width, -1, -width):
            hi = min(lo + width, n_steps)
            times = np.stack([ts[lo + 1 : hi + 1] - s for s in (0.0, h / 2, h)])
            A, f = system.rhs(times, None)
            if lead is not None:
                stages = _rk4_step(A, f, lead.values[lo + 1 : hi + 1, :, None], h)[0]
                A, f = system.rhs(times, np.stack(np.broadcast_arrays(*stages[::2])))
            M = np.broadcast_to(_rk4_step(A, (0.0,) * 4, np.eye(d), h)[1], (hi - lo, d, d))
            v = np.broadcast_to(_rk4_step(A, f, np.zeros((d, 1)), h)[1][..., 0], (hi - lo, d))
            for i in range(hi - lo - 1, -1, -1):
                y = M[i].dot(y) + v[i]
                out[lo + i] = y
            if system.positivity_floor is not None or not np.isfinite(out[lo : hi + 1]).all():
                stages = _rk4_step(A, f, out[lo + 1 : hi + 1, :, None], h)[0]
                block = np.stack(np.broadcast_arrays(*stages), axis=1)[::-1]
                _check_block(system, block.reshape(-1, 2, d), times)
    _check_domain(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out)


def affine_pair_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """Sweep the floored first half of the state (the log branch's h), then the rest fed by it."""
    S, tv = system.dimension // 2, system.terminal_values
    lead = affine_rk4_solve(replace(system, dimension=S, terminal_values=tv[:S]), n_steps)
    try:
        rest = affine_rk4_solve(replace(system, dimension=S, terminal_values=tv[S:],
                                        positivity_floor=None), n_steps, lead)
    except OdeDomainError as e:
        raise OdeDomainError(e.t, S + e.component, e.value, e.reason) from None
    return SolutionTable(grid=lead.grid, values=np.hstack([lead.values, rest.values]))


def solve_terminal_ode(
    system: OdeSystem,
    n_steps: int = DEFAULT_STEPS,
    tol: float = DEFAULT_TOL,
    max_steps: int = MAX_STEPS,
) -> SolutionTable:
    """RK4 sweep with step-halving error control.

    Solves at n and 2n steps and accepts the finer grid once the two sweeps
    agree within tol at the shared nodes; otherwise the step count doubles,
    up to max_steps.
    """
    return step_halving(lambda n: rk4_solve(system, n), n_steps, tol, max_steps)


def step_halving(sweep, n_steps: int, tol: float = DEFAULT_TOL, max_steps: int = MAX_STEPS):
    """solve_terminal_ode's error control around sweep(n_steps) -> SolutionTable."""
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")
    coarse = sweep(n_steps)
    while True:
        fine = sweep(2 * n_steps)
        err = float(np.abs(fine.values[::2] - coarse.values).max())
        if err <= tol:
            return fine
        n_steps *= 2
        if 2 * n_steps > max_steps:
            raise OdeConvergenceError(
                f"step-halving error {err:.3e} > {tol:.1e} at cap {max_steps} steps"
            )
        coarse = fine


def residual_norm(system: OdeSystem, table: SolutionTable) -> float:
    """Max-norm defect of a table against its defining equations.

    Centered finite differences on interior nodes versus rhs, each component
    scaled by max(1, its sup-norm on the table).
    """
    ts, vs = table.grid, table.values
    if ts.size < 3:
        raise ValueError("residual_norm needs at least 3 grid points")
    fd = (vs[2:] - vs[:-2]) / (ts[2:] - ts[:-2])[:, None]
    rhs = np.array([system.rhs(t, v) for t, v in zip(ts[1:-1], vs[1:-1])], dtype=float)
    return float((np.abs(fd - rhs) / np.maximum(1.0, np.abs(vs).max(axis=0))).max())


def interp_by_state(grid: np.ndarray, table: np.ndarray, t: np.ndarray, state: np.ndarray):
    """table[:, state] interpolated at per-element times t, bit for bit as np.interp.

    One searchsorted over the grid and a gather into the flattened table, with
    np.interp's arithmetic and its end rules: the last node and anything past
    either end take the end values. t and state broadcast against each other
    and the search runs over t alone, so a (k, n) state against n times costs
    one search. A state outside [0, S) raises IndexError.
    """
    t = np.asarray(t, dtype=float)
    state = np.asarray(state)
    S = table.shape[1]
    if state.size and (state.min() < 0 or state.max() >= S):
        bad = state[(state < 0) | (state >= S)]
        raise IndexError(f"state {bad.flat[0]} outside [0, {S}) of the table")
    last = grid.size - 1
    j = np.searchsorted(grid, t, side="right") - 1
    np.clip(j, 0, last - 1, out=j)
    flat = j * S + state
    lo = np.take(table, flat)
    out = (np.take(table, flat + S) - lo) / (grid[j + 1] - grid[j]) * (t - grid[j]) + lo
    ends = (t < grid[0]) | (t >= grid[last])
    if ends.any():
        out = np.where(ends, np.take(table, np.where(t < grid[0], 0, last) * S + state), out)
    return out


def running_sum(start: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """[start, start + rows[0], (start + rows[0]) + rows[1], ...], added one row at a time.

    For a few long rows this is much faster than np.cumsum along the first axis.
    """
    out = np.empty((rows.shape[0] + 1,) + np.shape(start))
    out[0] = start
    for b, row in enumerate(rows):
        np.add(out[b], row, out=out[b + 1])
    return out


def step_cumulative(nodes: np.ndarray, interval_values: np.ndarray) -> np.ndarray:
    """Cumulative integral at nodes of per-state rates constant on each internode interval.

    interval_values has shape (len(nodes) - 1, S); the result is exact and
    piecewise-linear, so np.interp between nodes reproduces it everywhere.
    """
    widths = np.diff(nodes)[:, None]
    out = np.empty((nodes.size, interval_values.shape[1]))
    out[0] = 0.0
    np.cumsum(interval_values * widths, axis=0, out=out[1:])
    return out

