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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from rsmerton.core_model import MarketSpec, validate_spec
from rsmerton.ctmc import CHAIN_SUBSTREAM, RngSpec, cell_blocks, sample_skeletons
from rsmerton.ode_engine import (
    OdeDomainError,
    OdeSystem,
    SolutionTable,
    affine_pair_solve,
    interp_by_state,
    rk4_solve,
    running_sum,
    solve_terminal_ode,
    step_cumulative,
    step_halving,
)

G_POSITIVITY_FLOOR = 1e-12
RK4_STABILITY_LIMIT = 2.785  # largest stable h * |lambda| of explicit RK4 on the real axis
PICARD_EVAL_POINTS = 17
PICARD_QUAD_CELLS = 128


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
) -> SolutionTable:
    """Composite backward solve over the market's constant-coefficient legs.

    make_rhs(r, mu, sigma) builds the leg's right-hand side with coefficients
    pinned, so each leg is smooth and coefficient discontinuities always land
    on leg boundaries. sweep=None runs RK4's stage loop, else an affine sweep
    of ode_engine reads rhs as it documents. tol=None does one fixed-step sweep
    per leg. A domain failure notes a leg step beyond RK4's stability limit.
    """
    horizon = spec.horizon if horizon is None else horizon
    cuts, r, mu, sigma = spec.coefficients_on([t_start, horizon])
    total = horizon - t_start
    term = np.asarray(terminal, dtype=float)
    tables = []
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
        term = table.values[0]
    tables.reverse()
    grid = np.concatenate([tables[0].grid] + [t.grid[1:] for t in tables[1:]])
    values = np.vstack([tables[0].values] + [t.values[1:] for t in tables[1:]])
    return SolutionTable(grid=grid, values=values)


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
    if validate_spec(spec).prefs.is_log:
        raise ValueError("solve_g is the power branch; use solve_log for gamma = 0")
    return _solve_branch(spec, n_steps, tol)


def solve_log(spec: MarketSpec, n_steps: int = 2048, tol: float = 1e-9) -> EquilibriumSolution:
    """Solve the linear h- and l-systems backward from h(T)=1, l(T)=0 (log branch)."""
    if not validate_spec(spec).prefs.is_log:
        raise ValueError("solve_log is the log branch; use solve_g for gamma != 0")
    return _solve_branch(spec, n_steps, tol)


def _solve_branch(spec, n_steps, tol) -> EquilibriumSolution:
    """The one solve behind solve_g and solve_log; g, or h (the pair's lead), stays positive."""
    terminal = spec.prefs.terminal(spec.states)
    log = spec.prefs.is_log
    table = solve_market_ode((_log_coefficients if log else rhs_factory)(spec), spec, terminal,
                             n_steps, tol, positivity_floor=G_POSITIVITY_FLOOR,
                             sweep=affine_pair_solve if log else None)
    return EquilibriumSolution(spec=spec, table=table)


def _log_coefficients(spec: MarketSpec):
    """Leg-wise A and f of the h-system, then of the l-system fed by h (affine_pair_solve)."""
    A = np.broadcast_to(np.diag(spec.rho) - spec.generator.rates, (3, spec.states, spec.states))

    def make_rhs(r, mu, sigma):
        drive = (r + mu**2 / (2 * sigma**2))[:, None]
        return lambda times, h: (A, (-1.0,) * 4 if h is None else np.log(h) - drive * h + 1.0)

    return make_rhs


def rhs_factory(spec: MarketSpec):
    """Leg-wise right-hand side of the spec's coefficient system: g, or h then l.

    The l equation carries -log h(t,i) from substituting the log ansatz into
    the verification PDE (the running utility of consuming x/h contributes
    log x - log h). The log solve runs on _log_coefficients; this statement of
    the (h, l) system serves the residual check.
    """
    g, S, rates, rho = spec.gamma, spec.states, spec.generator.rates, spec.rho
    power = g / (g - 1.0)

    def make_rhs(r, mu, sigma):
        if not spec.prefs.is_log:
            q_rho = growth_rate(g, r, mu, sigma) - rho
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
    validate_spec(spec)
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
    gp_grid = g_candidate.grid
    gp_tab = np.power(g_candidate.values, gamma / (gamma - 1.0))

    values = np.zeros((eval_times.size, S))
    stderr = np.zeros((eval_times.size, S))
    for pt, t0 in enumerate(eval_times):
        for i in range(S):
            if t0 >= T:
                values[pt, i] = 1.0  # K(T)=1, empty integral
                continue
            n_cells = max(8, int(round(quad_cells * (T - t0) / T)))
            edges = np.linspace(t0, T, n_cells + 1)
            samples = _picard_path_values(
                spec, gamma, gp_grid, gp_tab, i, t0, edges, n_paths, rng,
                substream=(CHAIN_SUBSTREAM, pt * S + i),
            )
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
        d_expo = blk.increments[0]
        pair_integrals = _picard_pairs(blk, d_expo, expo)
        run = running_sum(expo, d_expo)  # log K at the block's edges
        k = blk.start + np.arange(1, d_expo.shape[0] + 1)[:, None]
        # At an upper edge in the exit state; a cell without jumps exits in
        # its entry state, and a cell with jumps takes its pair integral.
        f = np.exp(run[1:]) * np.take(gp_edges, k * S + blk.exit)
        contrib = 0.5 * (np.concatenate([f_prev[None], f[:-1]]) + f) * dt[k - 1]
        contrib[blk.pair_cell, blk.pair_path] = pair_integrals
        for row in contrib:
            integral += row
        expo, f_prev = run[-1], f[-1]
    return np.exp(expo) + (1.0 - gamma) * integral


def _picard_pairs(blk, d_expo, expo):
    """Trapezoid of K g^(gamma/(gamma-1)) over the segments of each cell with a jump.

    Returns one integral per (cell, path) pair of the block and sets d_expo
    there to the pair's log K at the upper edge minus its log K at the lower
    edge. That start value depends on the path's earlier pairs in the block,
    so pairs are settled in layers: layer l holds every path's l-th pair.
    """
    cell, path = blk.pair_cell, blk.pair_path
    (cq_lo, cq_hi), (g_lo, g_hi) = blk.seg_values
    de = cq_hi - cq_lo
    width = np.diff(blk.knots, axis=0)
    by_path = np.argsort(path, kind="stable")  # pairs come in cell order
    new_path = np.append(True, path[by_path][1:] != path[by_path][:-1])
    heads = np.flatnonzero(new_path)
    layer = np.empty(cell.size, dtype=np.int64)
    layer[by_path] = np.arange(cell.size) - heads[np.cumsum(new_path) - 1]
    out = np.zeros(cell.size)
    for lay in range(layer.max(initial=-1) + 1):
        sel = np.flatnonzero(layer == lay)
        cols = path[sel]
        e0 = running_sum(expo[cols], d_expo[:, cols])[cell[sel], np.arange(sel.size)]
        e = e0.copy()
        c = np.zeros(sel.size)
        for r in range(de.shape[0]):
            de_r = de[r, sel]
            c += 0.5 * (np.exp(e) * g_lo[r, sel] + np.exp(e + de_r) * g_hi[r, sel]) * width[r, sel]
            e += de_r
        d_expo[cell[sel], cols] = e - e0
        out[sel] = c
    return out
