"""Backward (terminal-value) integrator for coupled per-regime ODE systems.

The scheme is classical fixed-step fourth-order Runge-Kutta swept from the
horizon down to 0, with step-halving error control: the sweep is repeated at
twice the resolution until the two grids agree to tolerance. Fixed steps keep
results bit-stable across runs and platforms; the systems solved here are
small and non-stiff.

Domain errors (a stage input below the positivity floor or not finite, or a
derivative not finite) are found once per block of steps by one vectorised
test, so rhs may see the rest of a block past a failure. A failing block is
rescanned in sweep order and raises the OdeDomainError (stage time, component,
value, reason) a check of each stage in turn would raise.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable

import numpy as np

DEFAULT_STEPS = 2048
DEFAULT_TOL = 1e-9
MAX_STEPS = 2**20
BLOCK_STEPS = 128  # steps whose stages rk4_solve checks with one test


class OdeDomainError(RuntimeError):
    """Raised when the state leaves the admissible domain during integration."""

    def __init__(self, t: float, component: int, value: float, reason: str):
        self.t = t
        self.component = component
        self.value = value
        super().__init__(f"{reason} at t={t:.6g}, component {component} (value {value:.6g})")


class OdeConvergenceError(RuntimeError):
    """Raised when step doubling hits the cap before meeting the tolerance."""


@dataclass(frozen=True)
class OdeSystem:
    """Terminal-value problem y'(t) = rhs(t, y) on [t_start, horizon], y(horizon) given.

    rhs must be deterministic and side-effect free and return a float array.
    If positivity_floor is set, integration aborts once any component drops
    below it (scalar floor or one per component). If rhs has a tabulate
    attribute, tabulate(times) gives a row per time, once per block of steps,
    and rhs takes a time's row in place of the time.
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    terminal_values: np.ndarray
    horizon: float
    positivity_floor: float | np.ndarray | None = None
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

    def to_csv(self, header_meta: dict | None = None) -> str:
        buf = io.StringIO()
        if header_meta:
            buf.write("# " + " ".join(f"{k}={v}" for k, v in header_meta.items()) + "\n")
        buf.write("t," + ",".join(f"y{j}" for j in range(self.dimension)) + "\n")
        for k in range(self.grid.size):
            row = ",".join(f"{v:.12g}" for v in self.values[k])
            buf.write(f"{self.grid[k]:.12g},{row}\n")
        return buf.getvalue()


def _check_domain(t: float, v: np.ndarray, what: str, floor=None):
    if floor is not None and (v < floor).any():
        j = int(np.argmax(v < floor))
        raise OdeDomainError(t, j, float(v[j]), f"{what} fell below positivity floor")
    if not np.isfinite(v).all():
        j = int(np.argmax(~np.isfinite(v)))
        raise OdeDomainError(t, j, float(v[j]), f"non-finite {what}")


def _check_block(system: OdeSystem, stages: list, times: np.ndarray):
    """Check stage inputs and derivatives (alternating, in sweep order) with one test.

    On a failure the stages are rechecked in turn, input before derivative,
    and the first failing one raises; times is the block's (3, m) stage times.
    """
    block = np.concatenate(stages).reshape(-1, 2, system.dimension)
    floor = system.positivity_floor
    if np.isfinite(block).all() and (floor is None or (block[:, 0] >= floor).all()):
        return
    for t, (y, d) in zip(times[[0, 1, 1, 2], ::-1].T.ravel(), block):
        _check_domain(t, y, "state", floor)
        _check_domain(t, d, "derivative")


def rk4_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """One fixed-step RK4 sweep from the terminal condition down to t=0.

    Low level: no error control. The terminal node is stored exactly. The
    sweep runs in blocks of BLOCK_STEPS steps: a tabulating rhs tabulates the
    block's stage times, and the block's stage inputs and derivatives are
    checked at its end, the state at t_start last (see the module docstring).
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    h = (system.horizon - system.t_start) / n_steps
    ts = np.linspace(system.t_start, system.horizon, n_steps + 1)
    out = np.empty((n_steps + 1, system.dimension))
    y = system.terminal_values.copy()
    out[n_steps] = y
    rhs, tabulate = system.rhs, getattr(system.rhs, "tabulate", None)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(((n_steps - 1) // BLOCK_STEPS) * BLOCK_STEPS, -1, -BLOCK_STEPS):
            # column i: the stage times of the step ts[lo + i + 1] -> ts[lo + i]
            block = np.stack([ts[lo + 1 : lo + 1 + BLOCK_STEPS] - d for d in (0.0, h / 2, h)])
            a1, a2, a4 = block if tabulate is None else tabulate(block)
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
            _check_block(system, stages, block)
    _check_domain(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out)


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
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")
    coarse = rk4_solve(system, n_steps)
    while True:
        fine = rk4_solve(system, 2 * n_steps)
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
    tabulate = getattr(system.rhs, "tabulate", None)
    args = ts if tabulate is None else tabulate(ts)
    scale = np.maximum(1.0, np.abs(vs).max(axis=0))
    worst = 0.0
    for k in range(1, ts.size - 1):
        fd = (vs[k + 1] - vs[k - 1]) / (ts[k + 1] - ts[k - 1])
        res = np.abs(fd - np.asarray(system.rhs(args[k], vs[k]), dtype=float)) / scale
        worst = max(worst, float(res.max()))
    return worst


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

