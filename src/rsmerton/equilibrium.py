"""Coupled coefficient systems for the feedback policies, closed forms, Picard oracle.

Power utility: the value ansatz v(t,x,i) = g(t,i) x^gamma / gamma leads to a
coupled nonlinear terminal-value system for g, one component per regime:

    dg/dt(t,i) + [gamma r + mu^2 gamma / (2 sigma^2 (1-gamma)) - rho_i] g(t,i)
        + sum_j rates[i,j] g(t,j) + (1-gamma) g^(gamma/(gamma-1))(t,i) = 0,

with g(T,i) = 1. The feedback maps are linear in wealth: invest
mu x / (sigma^2 (1-gamma)), consume g^(1/(gamma-1)) x.

Log utility: v = h(t,i) log x + l(t,i); h solves the linear system
dh/dt - rho_i h + sum_j rates[i,j] h(.,j) + 1 = 0 with h(T,i) = 1, and l a
linear system fed by h with l(T,i) = 0, each one affine RK4 sweep per leg
(ode_engine.affine_pair_solve). Policies: invest mu x / sigma^2, consume x / h.

The Picard operator of the fixed-point characterization

    g(t,i) = E_t^i[K(T)] + (1-gamma) E_t^i int_t^T K(v) g^(gamma/(gamma-1))(v,J_v) dv,
    K(v) = exp{ int_t^v [gamma r + mu^2 gamma/(2 sigma^2 (1-gamma)) - rho_J(u)] du }

is implemented by Monte-Carlo over chain paths and serves as an independent
oracle for the ODE route (note the discount rate inside K follows the chain).
The (t, i) ensembles are independent, so ctmc.ensemble_map may run them in
forked workers.
Each block of the walk (ctmc.cell_blocks) is settled by one loop over its
cells in order, a cell's jumps segment by segment.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from rsmerton.core_model import MarketSpec
from rsmerton.ctmc import CHAIN_SUBSTREAM, RngSpec, cell_blocks, ensemble_map, sample_skeletons
from rsmerton.ode_engine import (
    OdeDomainError,
    OdeSystem,
    SolutionTable,
    affine_pair_solve,
    interp_by_state,
    newton_rk4_solve,
    rk4_solve,
    solve_terminal_ode,
    step_cumulative,
    step_halving,
)

G_POSITIVITY_FLOOR = 1e-12
RK4_STABILITY_LIMIT = 2.785  # largest stable h * |lambda| of explicit RK4 on the real axis
PICARD_EVAL_POINTS = 17
PICARD_QUAD_CELLS = 128
# Most regimes whose g-system is solved by Newton on RK4's step map
# (newton_rk4_solve); wider systems run the stage loop (README, "Solver").
NEWTON_MAX_STATES = 8


def growth_rate(gamma: float, r, mu, sigma):
    """Per-state coefficient gamma*r + mu^2*gamma/(2 sigma^2 (1-gamma)) of the g-system."""
    return gamma * r + mu**2 * gamma / (2 * sigma**2 * (1 - gamma))


def solve_market_ode(
    make_rhs,
    spec: MarketSpec,
    terminal: np.ndarray,
    n_steps: int,
    tol: float | None,
    *,
    t_start: float = 0.0,
    horizon: float | None = None,
    positivity_floor=None,
    sweep=None,
    make_batched=None,
) -> SolutionTable:
    """Composite backward solve over the market's constant-coefficient legs.

    make_rhs(r, mu, sigma) builds the leg's right-hand side with coefficients
    pinned, so each leg is smooth and coefficient discontinuities always land
    on leg boundaries; make_batched, where given, builds its batched_rhs the
    same way. sweep=None runs RK4's stage loop, else a sweep of ode_engine
    reads the system as it documents. tol=None does one fixed-step sweep per
    leg. A domain failure notes a leg step beyond RK4's stability limit. The
    table's stats hold each leg's, earliest first.
    """
    horizon = spec.horizon if horizon is None else horizon
    cuts, r, mu, sigma = spec.coefficients_on([t_start, horizon])
    total = horizon - t_start
    term = np.asarray(terminal, dtype=float)
    tables, legs = [], []
    for k in reversed(range(cuts.size - 1)):
        lo, hi = float(cuts[k]), float(cuts[k + 1])
        steps = max(16, int(round(n_steps * (hi - lo) / total)))
        system = OdeSystem(
            dimension=term.size,
            rhs=make_rhs(r[k], mu[k], sigma[k]),
            terminal_values=term,
            horizon=hi,
            t_start=lo,
            positivity_floor=positivity_floor,
            batched_rhs=make_batched(r[k], mu[k], sigma[k]) if make_batched else None,
        )
        run = partial(sweep or rk4_solve, system)
        try:
            if tol is not None and sweep is None:
                table = solve_terminal_ode(system, n_steps=steps, tol=tol)
            else:
                table = run(steps) if tol is None else step_halving(run, steps, tol)
        except OdeDomainError as e:
            h, radius = (hi - lo) / steps, np.abs(np.linalg.eigvals(spec.generator.rates)).max()
            if h * radius <= RK4_STABILITY_LIMIT:
                raise
            raise OdeDomainError(e.t, e.component, e.value, e.reason, (
                f"step {h:.6g} times the generator's spectral radius {radius:.6g} is "
                f"{h * radius:.3g}, beyond explicit RK4's stability limit {RK4_STABILITY_LIMIT}: "
                f"use at least {int(np.ceil((hi - lo) * radius / RK4_STABILITY_LIMIT))} steps"
            )) from None
        tables.append(table)
        legs.append({"t_start": lo, "horizon": hi, "steps": table.grid.size - 1, **table.stats})
        term = table.values[0]
    tables.reverse()
    grid = np.concatenate([tables[0].grid] + [t.grid[1:] for t in tables[1:]])
    values = np.vstack([tables[0].values] + [t.values[1:] for t in tables[1:]])
    return SolutionTable(grid=grid, values=values, stats={"legs": legs[::-1]})


@dataclass(frozen=True)
class EquilibriumSolution:
    """Solved coefficient table for one market spec: g(t, i), or h(t, i) then l(t, i).

    spec.prefs maps a row of the table to values and consumption.
    """

    spec: MarketSpec
    table: SolutionTable

    @property
    def g_table(self) -> SolutionTable:
        """The table under the power branch's name, as picard_apply reads it."""
        return self.table

    def consumption_curve(self) -> "ConsumptionCurve":
        rates = self.spec.prefs.consumption(self.table.values, self.spec.states)
        return ConsumptionCurve(grid=self.table.grid, rates=rates)


@dataclass(frozen=True)
class ConsumptionCurve:
    """Per-regime consumption rate C(t, i) on a dense time grid."""

    grid: np.ndarray
    rates: np.ndarray  # (n_nodes, S)

    def to_csv(self, meta: dict | None = None) -> str:
        return SolutionTable(grid=self.grid, values=self.rates).to_csv(meta, column="C")


def solve_g(spec: MarketSpec, n_steps: int = 2048, tol: float = 1e-9) -> EquilibriumSolution:
    """Solve the coupled nonlinear g-system backward from g(T, i) = 1 (power branch)."""
    if spec.prefs.is_log:
        raise ValueError("solve_g is the power branch; use solve_log for gamma = 0")
    return _solve_branch(spec, n_steps, tol)


def solve_log(spec: MarketSpec, n_steps: int = 2048, tol: float = 1e-9) -> EquilibriumSolution:
    """Solve the linear h- and l-systems backward from h(T)=1, l(T)=0 (log branch)."""
    if not spec.prefs.is_log:
        raise ValueError("solve_log is the log branch; use solve_g for gamma != 0")
    return _solve_branch(spec, n_steps, tol)


def _solve_branch(spec, n_steps, tol) -> EquilibriumSolution:
    """The one solve behind solve_g and solve_log; g, or h (the pair's lead), stays positive."""
    terminal = spec.prefs.terminal(spec.states)
    if spec.prefs.is_log:
        make_rhs, route = _log_coefficients(spec), dict(sweep=affine_pair_solve)
    elif spec.states <= NEWTON_MAX_STATES:
        make_rhs = rhs_factory(spec)
        route = dict(sweep=newton_rk4_solve, make_batched=rhs_factory(spec, batched=True))
    else:
        make_rhs, route = rhs_factory(spec), {}
    table = solve_market_ode(make_rhs, spec, terminal, n_steps, tol,
                             positivity_floor=G_POSITIVITY_FLOOR, **route)
    return EquilibriumSolution(spec=spec, table=table)


def _log_coefficients(spec: MarketSpec):
    """Leg-wise A and f of the h-system, then of the l-system fed by h (affine_pair_solve)."""
    A = np.broadcast_to(np.diag(spec.rho) - spec.generator.rates, (3, spec.states, spec.states))

    def make_rhs(r, mu, sigma):
        drive = (r + mu**2 / (2 * sigma**2))[:, None]
        return lambda times, h: (A, (-1.0,) * 4 if h is None else np.log(h) - drive * h + 1.0)

    return make_rhs


def rhs_factory(spec: MarketSpec, batched: bool = False):
    """Leg-wise right-hand side of the spec's coefficient system: g, or h then l.

    The l equation carries -log h(t,i) from substituting the log ansatz into
    the verification PDE (the running utility of consuming x/h contributes
    log x - log h). The log solve runs on _log_coefficients; this statement of
    the (h, l) system serves the residual check. batched=True gives the g
    system's right-hand side at a stack of states and its Jacobian, as
    OdeSystem.batched_rhs (newton_rk4_solve) reads them.
    """
    g, S, rates, rho = spec.gamma, spec.states, spec.generator.rates, spec.rho
    power = g / (g - 1.0)

    def make_rhs(r, mu, sigma):
        if not spec.prefs.is_log:
            q_rho = growth_rate(g, r, mu, sigma) - rho
            if batched:
                linear, diag = -(np.diag(q_rho) + rates), np.arange(S)

                def rhs_and_jacobian(times, ys):
                    jac = np.repeat(linear[None], ys.shape[0], axis=0)
                    jac[:, diag, diag] -= ((1 - g) * power) * np.power(ys, power - 1.0)
                    # a matrix-vector product per row, as in rhs: the same bits
                    coupling = (rates @ ys[..., None])[..., 0]
                    return -(q_rho * ys + coupling + (1 - g) * np.power(ys, power)), jac

                return rhs_and_jacobian
            return lambda t, y: -(q_rho * y + rates @ y + (1 - g) * np.power(y, power))
        drive = r + mu**2 / (2 * sigma**2)

        def rhs(t, y):
            h, low = y[:S], y[S:]
            dh = -(-rho * h + rates @ h + 1.0)
            return np.concatenate([dh, -(drive * h - np.log(h) - rho * low + rates @ low - 1.0)])

        return rhs

    return make_rhs


def solve(spec: MarketSpec, **kwargs) -> EquilibriumSolution:
    """Dispatch to the power or log branch based on the spec's preferences."""
    return solve_log(spec, **kwargs) if spec.prefs.is_log else solve_g(spec, **kwargs)


def value_at(solution: EquilibriumSolution, t: float, x: float, i: int) -> float:
    """Value-ansatz evaluation: g(t,i) x^gamma/gamma, or h(t,i) log x + l(t,i)."""
    spec = solution.spec
    if not 0.0 <= t <= spec.horizon:
        raise ValueError(f"t={t} outside [0, {spec.horizon}]")
    return spec.prefs.value(solution.table.interpolate(t), x, i)


def merton_eta(spec: MarketSpec) -> float:
    """Exponent eta = (rho - gamma [mu^2/(2 sigma^2 (1-gamma)) + r]) / (1-gamma).

    Requires a single effective regime: state-independent coefficients and a
    common discount rate.
    """
    _require_single_regime(spec)
    g = spec.gamma
    mu, sigma, r, rho = spec.mu[0], spec.sigma[0], spec.r[0], spec.rho[0]
    return float((rho - g * (mu**2 / (2 * sigma**2 * (1 - g)) + r)) / (1 - g))


def merton_closed_form(spec: MarketSpec, t):
    """Closed-form consumption rate eta / (1 + (eta - 1) e^{eta (t - T)}).

    The eta = 0 degeneracy is the continuous extension C(t) = 1/(1 + T - t).
    """
    eta = merton_eta(spec)
    t = np.asarray(t, dtype=float)
    T = spec.horizon
    if abs(eta) < 1e-12:
        out = 1.0 / (1.0 + T - t)
    else:
        out = eta / (1.0 + (eta - 1.0) * np.exp(eta * (t - T)))
    return out if out.ndim else float(out)


def _require_single_regime(spec: MarketSpec):
    if spec.override is not None:
        raise ValueError("closed form needs constant coefficients; the spec has an override")
    for name in ("r", "alpha", "sigma", "rho"):
        v = getattr(spec, name)
        if not np.allclose(v, v[0], rtol=0, atol=0):
            raise ValueError(f"closed form needs state-independent {name}, got {v.tolist()}")


@dataclass(frozen=True)
class PicardEstimate:
    """Monte-Carlo image of a candidate table under the fixed-point operator."""

    eval_times: np.ndarray
    values: np.ndarray  # (n_times, S)
    stderr: np.ndarray  # (n_times, S)
    n_paths: int
    algorithm: str
    seed: int
    stream: int

    def deviation_from(self, table: SolutionTable) -> np.ndarray:
        """Pointwise |operator output - table| on the evaluation grid."""
        ref = table.interpolate(self.eval_times)
        return np.abs(self.values - ref)


def picard_apply(
    spec: MarketSpec,
    g_candidate: SolutionTable,
    n_paths: int,
    rng: RngSpec,
    eval_times: np.ndarray | None = None,
    quad_cells: int = PICARD_QUAD_CELLS,
) -> PicardEstimate:
    """Apply the integral fixed-point operator to a candidate g by Monte Carlo.

    For each evaluation point (t, i), chain paths are sampled from state i at
    time t and the operator E[K(T)] + (1-gamma) E int K g^(gamma/(gamma-1))
    is integrated by trapezoid along each path, with jump times inserted as
    breakpoints (the exponent of K is integrated exactly segment by segment,
    since the discount rate rides the chain).
    """
    if spec.prefs.is_log:
        raise ValueError("the fixed-point operator applies to the power branch")
    if (g_candidate.values <= 0).any():
        raise ValueError("candidate table must be strictly positive")
    gamma = spec.gamma
    T = spec.horizon
    S = spec.states
    if eval_times is None:
        eval_times = np.linspace(0.0, T, PICARD_EVAL_POINTS)
    eval_times = np.asarray(eval_times, dtype=float)
    outside = eval_times[~((eval_times >= 0.0) & (eval_times <= T))]  # NaN included
    if outside.size:
        raise ValueError(f"eval time {outside[0]} outside [0, {T}]")
    gp_grid = g_candidate.grid
    gp_tab = np.power(g_candidate.values, gamma / (gamma - 1.0))

    points, jobs, path_cells = [], [], []  # one independent ensemble per (t, i) before T
    for pt, t0 in enumerate(eval_times):
        if t0 >= T:
            continue
        n_cells = max(8, int(round(quad_cells * (T - t0) / T)))
        edges = np.linspace(t0, T, n_cells + 1)
        for i in range(S):
            points.append((pt, i))
            jobs.append((spec, gamma, gp_grid, gp_tab, i, t0, edges, n_paths, rng,
                         (CHAIN_SUBSTREAM, pt * S + i)))
            path_cells.append(n_paths * n_cells)
    values = np.ones((eval_times.size, S))  # K(T)=1, empty integral
    stderr = np.zeros((eval_times.size, S))
    for (pt, i), samples in zip(points, ensemble_map(_picard_path_values, jobs, path_cells)):
        values[pt, i] = samples.mean()
        stderr[pt, i] = samples.std(ddof=1) / np.sqrt(n_paths)
    return PicardEstimate(
        eval_times=eval_times,
        values=values,
        stderr=stderr,
        n_paths=n_paths,
        algorithm=rng.algorithm,
        seed=rng.seed,
        stream=rng.stream,
    )


def _picard_path_values(
    spec, gamma, gp_grid, gp_tab, initial, t0, edges, n_paths, rng, substream
):
    """Per-path K(T) + (1-gamma) * int K g^(gamma/(gamma-1)) dv from (t0, initial)."""
    skel = sample_skeletons(
        spec.generator, initial, t0, spec.horizon, n_paths, rng, substream=substream
    )
    # Exact per-state cumulative of the exponent rate (a step function in t).
    nodes, r, mu, sigma = spec.coefficients_on(edges)
    cq = step_cumulative(nodes, growth_rate(gamma, r, mu, sigma) - spec.rho)
    S = spec.states
    gp_edges = interp_by_state(gp_grid, gp_tab, edges[:, None], np.arange(S)).ravel()
    dt = np.diff(edges)
    expo = np.zeros(n_paths)  # running log K
    integral = np.zeros(n_paths)
    f_prev = np.full(n_paths, gp_edges[initial])  # K g^(gamma/(gamma-1)) at the lower edge
    for blk in cell_blocks(skel, edges, ((nodes, cq), (gp_grid, gp_tab))):
        run, pair_integrals = _picard_block(blk, expo)
        k = blk.start + np.arange(1, run.shape[0])[:, None]
        # At an upper edge in the exit state; a cell without jumps exits in
        # its entry state, and a cell with jumps takes its pair integral.
        f = np.exp(run[1:]) * np.take(gp_edges, k * S + blk.exit)
        contrib = 0.5 * (np.concatenate([f_prev[None], f[:-1]]) + f) * dt[k - 1]
        contrib[blk.pair_cell, blk.pair_path] = pair_integrals
        for row in contrib:
            integral += row
        expo, f_prev = run[-1], f[-1]
    return np.exp(expo) + (1.0 - gamma) * integral


def _picard_block(blk, expo):
    """log K at the block's edges, from expo at its first, and each pair's integral.

    One loop settles the cells in order. A path without a jump in cell c adds
    the cell's rise of log K. A pair of cell c starts from e0, its log K at
    the cell's lower edge, and adds its segments in order to e, taking the
    trapezoid of K g^(gamma/(gamma-1)) over each. Its log K at the upper edge
    is then e0 + (e - e0), not e: the walk adds one rise per cell to the
    running log K, and these are the bits of that sum, which the golden
    values pin.
    """
    d_expo = blk.increments[0]
    (cq_lo, cq_hi), (g_lo, g_hi) = blk.seg_values
    de, width = cq_hi - cq_lo, np.diff(blk.knots, axis=0)
    bounds = np.searchsorted(blk.pair_cell, np.arange(d_expo.shape[0] + 1))  # pairs in cell order
    run = np.concatenate([expo[None], d_expo])  # row c + 1: rise, then log K
    out = np.zeros(blk.pair_cell.size)
    for c, (a, b) in enumerate(zip(bounds[:-1], bounds[1:])):
        run[c + 1] += run[c]
        cols = blk.pair_path[a:b]
        e0 = run[c, cols]
        e = e0.copy()
        for lo, hi, w, de_r in zip(g_lo[:, a:b], g_hi[:, a:b], width[:, a:b], de[:, a:b]):
            out[a:b] += 0.5 * (np.exp(e) * lo + np.exp(e + de_r) * hi) * w
            e += de_r
        run[c + 1, cols] = e0 + (e - e0)
    return run, out
