"""Backward (terminal-value) integrator for coupled per-regime ODE systems.

The scheme is classical fixed-step fourth-order Runge-Kutta swept from the
horizon down to 0, with step-halving error control: the sweep is repeated at
twice the resolution until the two grids agree to tolerance. Fixed steps keep
results bit-stable across runs and platforms. One function, _rk4_step, writes
the four stages, and one, _grid, lays out the steps. rk4_solve steps one state
at a time. On a linear system the scheme is one affine map per step,
y(t - h) = M y(t) + v (Hairer, Norsett & Wanner, Solving ODEs I), which
affine_rk4_solve steps from the identity and zero for a block of steps at once.

Domain errors (a stage input below the positivity floor or not finite, or a
derivative not finite) are found by one vectorised test, _check_block, of every
sweep's stages, once per block, so rhs may see the rest of a block past a
failure. A failing block is rescanned in sweep order and raises the
OdeDomainError (stage time, component, value, reason) a check of each stage in
turn would raise.

The two sweeps of a step-halving round do not depend on each other, so
step_halving runs the finer one in a forked child (Forked, as ctmc.ensemble_map
does) where that pays and is safe (can_fork_worker), with the serial loop's
tables and errors; where no child can be had, Forked runs the call here.

On a small nonlinear system, newton_rk4_solve finds the same table for every
step at once: it is the fixed point of RK4's step map, taken from every node at
once, and Newton's update solves an affine recursion by a doubling scan (Lim et
al., "Parallelizing non-linear sequential models over the sequence length",
ICLR 2024).
"""

from __future__ import annotations

import itertools
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable

import numpy as np

DEFAULT_STEPS = 2048
DEFAULT_TOL = 1e-9
MAX_STEPS = 2**20
BLOCK_STEPS = 128  # steps whose stages rk4_solve checks with one test
# Entries of one block's arrays (affine_rk4_solve's step maps, ctmc.cell_blocks'
# (cells, paths) arrays): amortises per-block work, keeps temporaries small.
BLOCK_ELEMENTS = 2**15
# Steps of this process's own sweep from which step_halving forks a child to
# sweep the next grid beside it: the fastest sweep per step (the log branch's
# affine pair) loses at 512 steps and gains at 1024 on 2 CPUs (README,
# "Independent ensembles").
HALVING_MIN_STEPS = 1024
# newton_rk4_solve: iterations before it sweeps rk4_solve instead, and the
# largest update, relative to each component's scale, after which it accepts.
NEWTON_MAX_ITERATIONS = 16
NEWTON_TOL = 1e-10

_in_worker = False  # set in a forked child, which never forks again


class OdeDomainError(RuntimeError):
    """Raised when the state leaves the admissible domain during integration."""

    def __init__(self, t: float, component: int, value: float, reason: str, note: str = ""):
        self.t, self.component, self.value = t, component, value
        self.reason, self.note = reason, note
        msg = f"{reason} at t={t:.6g}, component {component} (value {value:.6g})"
        super().__init__(msg + (f"; {note}" if note else ""))

    def __reduce__(self):  # rebuilt from the fields, so it survives a worker's pickle
        return type(self), (self.t, self.component, self.value, self.reason, self.note)


class OdeConvergenceError(RuntimeError):
    """Raised when step doubling hits the cap before meeting the tolerance."""


@dataclass(frozen=True)
class OdeSystem:
    """Terminal-value problem y'(t) = rhs(t, y) on [t_start, horizon], y(horizon) given.

    rhs must be deterministic and side-effect free and return a float array.
    newton_rk4_solve calls it on a stack of rows, shape (m, dimension), at
    the rows' m times, and reads jacobian(times, ys), rhs's Jacobian in y at
    each row, (m, dimension, dimension). affine_rk4_solve reads rhs(times,
    lead) as a linear system's A and f at a block's stage times instead (see
    there). If positivity_floor is set, integration aborts once any
    component drops below it (affine_pair_solve floors its lead alone).
    """

    dimension: int
    rhs: Callable[[float, np.ndarray], np.ndarray]
    terminal_values: np.ndarray
    horizon: float
    positivity_floor: float | None = None
    t_start: float = 0.0
    jacobian: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None

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
    # how the table was solved: the sweep's name, its Newton iterations, and
    # step_halving's rounds and accepted error (solve_market_ode: {"legs": [...]})
    stats: dict = field(default_factory=dict, compare=False)

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


def _grid(system: OdeSystem, n_steps: int):
    """A sweep's step h, its n_steps + 1 nodes, and each step's (3, n_steps) stage times.

    Column i holds the times t, t - h/2, t - h of the step from node i + 1 to node i.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be positive")
    h = (system.horizon - system.t_start) / n_steps
    ts = np.linspace(system.t_start, system.horizon, n_steps + 1)
    return h, ts, np.stack([ts[1:] - s for s in (0.0, h / 2, h)])


def _rk4_step(rhs, args, y, h):
    """RK4's step back from y: ([y, k1, y2, k2, y3, k3, y4, k4], next y).

    The stage derivatives are rhs(arg, stage input) at the four args, in
    stage order. y may be one state, a column stack or a stack of rows.
    """
    a1, a2, a3, a4 = args
    k1 = rhs(a1, y)
    y2 = y - (h / 2) * k1
    k2 = rhs(a2, y2)
    y3 = y - (h / 2) * k2
    k3 = rhs(a3, y3)
    y4 = y - h * k3
    k4 = rhs(a4, y4)
    return [y, k1, y2, k2, y3, k3, y4, k4], y - (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)


def rk4_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """One fixed-step RK4 sweep from the terminal condition down to t=0.

    Low level: no error control. The terminal node is stored exactly. The
    block's stage inputs and derivatives are checked at the end of each block
    of BLOCK_STEPS steps, the state at t_start last (see the module docstring).
    """
    h, ts, times = _grid(system, n_steps)
    out = np.empty((n_steps + 1, system.dimension))
    out[n_steps] = y = system.terminal_values.copy()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(((n_steps - 1) // BLOCK_STEPS) * BLOCK_STEPS, -1, -BLOCK_STEPS):
            block = times[:, lo : lo + BLOCK_STEPS]
            stages = []
            for i, args in reversed(list(enumerate(zip(*block[[0, 1, 1, 2]])))):
                step, y = _rk4_step(system.rhs, args, y, h)
                stages += step
                out[lo + i] = y
            _check_block(system, np.concatenate(stages).reshape(-1, 2, system.dimension), block)
    _check_domain(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out, stats={"sweep": "stage"})


def affine_rk4_solve(system: OdeSystem, n_steps: int, lead=None) -> SolutionTable:
    """rk4_solve's sweep of a linear system y' = A y + f, one affine map per step.

    system.rhs(times, None) gives A and f at a block's (3, m) stage times t,
    t - h/2, t - h: A broadcasting to (3, m, d, d), f to (4, m, d, 1), one
    column per stage. A lead table on the grid solves that system, and y's
    coefficients are rhs(times, the lead's stage inputs). Blocks of steps are
    checked as rk4_solve checks its own.
    """
    d = system.dimension
    h, ts, all_times = _grid(system, n_steps)
    out = np.empty((n_steps + 1, d))
    out[n_steps] = y = system.terminal_values
    width = max(1, BLOCK_ELEMENTS // (d * max(d, 8)))  # entries of a step's matrix or stages

    def step(A, f, y):  # RK4's step on y' = A y + f: each stage's arg is its (A, f)
        return _rk4_step(lambda Af, y: Af[0] @ y + Af[1], zip((A[0], A[1], A[1], A[2]), f),
                         y, h)

    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for lo in range(((n_steps - 1) // width) * width, -1, -width):
            hi = min(lo + width, n_steps)
            times = all_times[:, lo:hi]
            A, f = system.rhs(times, None)
            if lead is not None:
                inputs = step(A, f, lead.values[lo + 1 : hi + 1, :, None])[0][::2]
                A, f = system.rhs(times, np.stack(np.broadcast_arrays(*inputs)))
            M = np.broadcast_to(step(A, (0.0,) * 4, np.eye(d))[1], (hi - lo, d, d))
            v = np.broadcast_to(step(A, f, np.zeros((d, 1)))[1][..., 0], (hi - lo, d))
            for i in range(hi - lo - 1, -1, -1):
                y = M[i].dot(y) + v[i]
                out[lo + i] = y
            if system.positivity_floor is not None or not np.isfinite(out[lo : hi + 1]).all():
                stages = np.broadcast_arrays(*step(A, f, out[lo + 1 : hi + 1, :, None])[0])
                _check_block(system, np.stack(stages, axis=1)[::-1].reshape(-1, 2, d), times)
    _check_domain(system.t_start, y, "state", system.positivity_floor)
    return SolutionTable(grid=ts, values=out, stats={"sweep": "affine"})


def affine_pair_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """Sweep the floored first half of the state (the log branch's h), then the rest fed by it."""
    S, tv = system.dimension // 2, system.terminal_values
    lead = affine_rk4_solve(replace(system, dimension=S, terminal_values=tv[:S]), n_steps)
    try:
        rest = affine_rk4_solve(replace(system, dimension=S, terminal_values=tv[S:],
                                        positivity_floor=None), n_steps, lead)
    except OdeDomainError as e:
        raise OdeDomainError(e.t, S + e.component, e.value, e.reason) from None
    return SolutionTable(lead.grid, np.hstack([lead.values, rest.values]), lead.stats)


def newton_rk4_solve(system: OdeSystem, n_steps: int) -> SolutionTable:
    """rk4_solve's table, found for every step at once as the fixed point of RK4's step map.

    The table solves y_i = Phi(y_{i+1}) for the backward step map Phi, with
    the terminal row at the horizon. Newton starts from the terminal row at
    every node; each iteration takes one RK4 step from every node at once,
    chains system.jacobian through its stages into Phi's Jacobian, and solves
    the linearised recursion for the update by a doubling scan
    (_affine_scan). An iterate is accepted once the update that made it is
    within NEWTON_TOL of each component's scale, max(1, sup |y|), so its own
    error, of the order of that update squared, is at rounding level; and
    once its stages pass rk4_solve's domain test. An iterate that is not
    finite, one that fails that test, or none accepted within
    NEWTON_MAX_ITERATIONS, sweeps rk4_solve instead, so every error, and the
    table where Newton fails, is the stage loop's.
    """
    h, ts, times = _grid(system, n_steps)
    if system.jacobian is None:
        raise ValueError("newton_rk4_solve needs the system's jacobian")
    args = times[[0, 1, 1, 2]]
    ys = np.tile(system.terminal_values, (n_steps + 1, 1))
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for iterations in range(1, NEWTON_MAX_ITERATIONS + 1):
            stages, step = _rk4_step(system.rhs, args, ys[1:], h)
            j1, j2, j3, j4 = map(system.jacobian, args, stages[::2])
            d2 = j2 - (h / 2) * (j2 @ j1)  # d k2 / d y, and so on
            d3 = j3 - (h / 2) * (j3 @ d2)
            d4 = j4 - h * (j4 @ d3)
            jac = np.eye(system.dimension) - (h / 6) * (j1 + 2 * d2 + 2 * d3 + d4)
            update = _affine_scan(jac[::-1], (step - ys[:-1])[::-1])[::-1]
            ys[:-1] += update
            if not np.isfinite(ys).all():
                break
            if (np.abs(update) <= NEWTON_TOL * np.maximum(1.0, np.abs(ys).max(axis=0))).all():
                try:
                    stages = np.stack(_rk4_step(system.rhs, args, ys[1:], h)[0], axis=1)[::-1]
                    _check_block(system, stages.reshape(-1, 2, system.dimension), times)
                    _check_domain(system.t_start, ys[0], "state", system.positivity_floor)
                except OdeDomainError:
                    break
                return SolutionTable(ts, ys, {"sweep": "newton", "newton_iterations": iterations})
    return rk4_solve(system, n_steps)


def _affine_scan(a, b):
    """x_j = a_j x_{j-1} + b_j for every j, from x_{-1} = 0, by recursive doubling.

    After the round at distance s, row j holds the composition of the maps
    j - 2s + 1, ..., j, so ceil(log2 m) rounds of batched products (Hillis &
    Steele's scan, Blelloch 1990) leave every x_j in b.
    """
    a, b = a.copy(), b.copy()
    s = 1
    while s < len(b):
        b[s:] += np.einsum("mij,mj->mi", a[s:], b[:-s])
        if 2 * s < len(b):
            a[s:] = a[s:] @ a[:-s]
        s *= 2
    return b


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
    """solve_terminal_ode's error control around sweep(n_steps) -> SolutionTable.

    The serial loop sweeps n, 2n, 4n, ... and compares each grid with the one
    before. Where this process's own sweep has HALVING_MIN_STEPS steps, the
    sweep is not partial(newton_rk4_solve, system) (forked, it lost to the
    serial loop at every S it runs) and a worker may be forked
    (can_fork_worker), a forked child sweeps the next grid beside it: 2n
    beside n, then, after each failed comparison, the level after next beside
    the next (here, in its turn, where Forked has no child). A child whose
    level the serial loop would not reach is killed. The result, and any
    error, is the serial loop's: an error from this process's sweep comes
    first, a child's is raised only where the serial loop would sweep that
    level, and no level beyond max_steps but the first two is swept. Every
    child is reaped before the call returns or raises. The accepted table's
    stats gain the rounds compared and the accepted error.
    """
    if n_steps < 16:
        raise ValueError("n_steps must be at least 16")

    def fork(level):  # a child sweeping level while this process sweeps level // 2
        if (level // 2 < HALVING_MIN_STEPS or getattr(sweep, "func", None) is newton_rk4_solve
                or not can_fork_worker()):
            return None
        return Forked(partial(sweep, level))

    child = fork(2 * n_steps)
    try:
        coarse = sweep(n_steps)
        for rounds in itertools.count(1):
            if child is None:
                child = fork(4 * n_steps) if 4 * n_steps <= max_steps else None
                fine = sweep(2 * n_steps)
            else:
                fine, child = child.result(), None
            err = float(np.abs(fine.values[::2] - coarse.values).max())
            if err <= tol:
                return replace(fine, stats={**fine.stats, "rounds": rounds, "error": err})
            n_steps *= 2
            if 2 * n_steps > max_steps:
                raise OdeConvergenceError(
                    f"step-halving error {err:.3e} > {tol:.1e} at cap {max_steps} steps"
                )
            coarse = fine
    finally:
        if child is not None:
            child.kill()


def can_fork_worker() -> bool:
    """Whether a forked worker can run beside this process, safely.

    It needs at least 2 available CPUs, no other thread alive (forking a
    threaded process is unsafe), the fork start method, and a process that is
    not itself a worker: not a Forked child, not a daemonic multiprocessing
    process. Shared by step_halving and ctmc.ensemble_map.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    if _in_worker or affinity is None or len(affinity(0)) < 2 or threading.active_count() > 1:
        return False
    import multiprocessing

    return not multiprocessing.current_process().daemon and (
        "fork" in multiprocessing.get_all_start_methods()
    )


class Forked:
    """fn() in a forked child, which inherits fn and pickles back its value or exception.

    The child never forks again (can_fork_worker). Where no process or pipe
    is to be had, there is no child: result() runs fn here, and kill() has
    nothing to do.
    """

    def __init__(self, fn):
        self.fn, self.pipe, fds = fn, None, ()
        try:
            fds = read, write = os.pipe()
            self.pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            return
        if self.pid:
            os.close(write)
            self.pipe = os.fdopen(read, "rb")
            return
        try:  # the child: never returns into the caller's code
            global _in_worker
            _in_worker = True
            os.close(read)
            with os.fdopen(write, "wb") as f:
                try:
                    out = True, fn()
                except BaseException as e:
                    out = False, e
                pickle.dump(out, f, pickle.HIGHEST_PROTOCOL)  # streamed: no second copy either side
        finally:
            os._exit(0)

    def result(self):
        """fn()'s value, or its exception raised here, once the child is reaped.

        Where there is no child, or it leaves no result that loads whole (it
        was killed, say, or pickle cannot carry what fn gave), fn runs here
        instead.
        """
        if self.pipe is None:
            return self.fn()
        try:
            ok, value = pickle.load(self.pipe)
        except Exception:  # whatever the stream's fault, a serial caller would run fn here
            ok = value = None
        finally:
            self.kill()
        if ok is False:
            raise value
        return value if ok else self.fn()

    def kill(self):
        """Kill and reap the child, and close its pipe; a no-op once done or without a child."""
        if self.pipe is not None and not self.pipe.closed:
            os.kill(self.pid, signal.SIGKILL)
            os.waitpid(self.pid, 0)
            self.pipe.close()


def residual_norm(system: OdeSystem, table: SolutionTable) -> float:
    """Max-norm defect of a table against its defining equations.

    At each interior node of a uniform grid, with 2h the span of its two
    neighbours, Simpson's fourth-order defect ((y_{i+1} - y_{i-1}) - (h/3)
    (f_{i-1} + 4 f_i + f_{i+1})) / 2h of f = rhs, each component scaled by
    max(1, its sup-norm on the table). A centred difference alone would
    measure the grid's O(h^2) error rather than the table's.
    """
    ts, vs = table.grid, table.values
    if ts.size < 3:
        raise ValueError("residual_norm needs at least 3 grid points")
    f = np.array([system.rhs(t, v) for t, v in zip(ts, vs)], dtype=float)
    span = (ts[2:] - ts[:-2])[:, None]
    defect = ((vs[2:] - vs[:-2]) - (span / 6) * (f[:-2] + 4 * f[1:-1] + f[2:])) / span
    return float((np.abs(defect) / np.maximum(1.0, np.abs(vs).max(axis=0))).max())


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

