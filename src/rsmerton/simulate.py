"""Wealth simulation, expected-utility functionals, and slope certificates.

The wealth SDE under a proportional feedback strategy (invest a(t,i)x,
consume b(t,i)x) is linear, so the exact scheme integrates it in log space:
log X gains int (r + mu a - b - sigma^2 a^2 / 2) ds + sigma a dW over each
constant-state segment, which keeps wealth strictly positive.

The expected-utility functional discounts the whole remaining horizon at the
rate rho_i of the state occupied at the evaluation time, even after the chain
moves. Its deterministic counterpart is the frozen-discount Feynman-Kac
table: one affine RK4 sweep of a coupled linear system per frozen rate, read
at the matching row. The slope certificate perturbs a strategy on a shrinking
window [t, t + eps], prices both strategies with that oracle, and Richardson
extrapolates the first-order utility deficit to eps -> 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rsmerton.core_model import MarketSpec, Preferences, utility, validate_spec
from rsmerton.ctmc import DIFFUSION_SUBSTREAM, RngSpec, cell_blocks, sample_skeletons
from rsmerton.equilibrium import EquilibriumSolution, solve, solve_market_ode
from rsmerton.ode_engine import SolutionTable, affine_pair_solve, affine_rk4_solve, interp_by_state
from rsmerton.reporting import MCReport

DEFAULT_PATH_GRID = 2048
# Relative window lengths used for the Richardson extrapolation of slopes.
SLOPE_EPSILONS = (0.1, 0.05, 0.025)


@dataclass(frozen=True, init=False)
class ProportionalStrategy:
    """Feedback strategy proportional to wealth: a(t,i) then b(t,i) in one SolutionTable.

    invest_frac is the risky fraction pi/x (dimensionless), consume_frac the
    consumption rate c/x (1/year, nonnegative); one lookup interpolates both
    linearly in t between grid nodes, bit for bit as np.interp.
    """

    table: SolutionTable  # (n_nodes, 2S): a, then b

    def __init__(self, grid, invest_frac, consume_frac):
        a, b = np.asarray(invest_frac, dtype=float), np.asarray(consume_frac, dtype=float)
        if a.ndim != 2 or a.shape != b.shape or a.shape[0] != np.size(grid):
            raise ValueError("strategy tables must be (n_nodes, S) matching the grid")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise ValueError("strategy tables must be finite")
        if (b < 0).any():
            raise ValueError("consumption fraction must be nonnegative")
        object.__setattr__(self, "table", SolutionTable(grid, np.hstack([a, b])))

    @property
    def n_states(self) -> int:
        return self.table.dimension // 2

    @property
    def grid(self) -> np.ndarray:
        return self.table.grid

    @property
    def invest_frac(self) -> np.ndarray:
        return self.table.values[:, : self.n_states]

    @property
    def consume_frac(self) -> np.ndarray:
        return self.table.values[:, self.n_states :]

    @classmethod
    def from_constants(
        cls, invest, consume, horizon: float, n_states: int | None = None
    ) -> "ProportionalStrategy":
        S = n_states or max(np.size(invest), np.size(consume))
        a, b = (np.broadcast_to(np.asarray(v, dtype=float), (2, S)) for v in (invest, consume))
        return cls(np.array([0.0, horizon]), a, b)

    @classmethod
    def from_policy(cls, solution: EquilibriumSolution) -> "ProportionalStrategy":
        """Tabulate the solved feedback policy on its own solve grid.

        The solve grid holds every override breakpoint, so its intervals are
        the coefficient intervals; the horizon node keeps the last one's.
        """
        spec = solution.spec
        grid = solution.table.grid
        _, _, mu, sigma = spec.coefficients_on(grid)
        a = spec.prefs.investment(mu, sigma)
        b = spec.prefs.consumption(solution.table.values, spec.states)
        return cls(grid, np.vstack([a, a[-1:]]), b)

    def values_at(self, t) -> tuple[np.ndarray, np.ndarray]:
        """Per-state (a, b) at time(s) t, each of shape t.shape + (S,)."""
        ab = self.table.interpolate(t)
        return ab[..., : self.n_states], ab[..., self.n_states :]

    def scaled(self, invest: float = 1.0, consume: float = 1.0) -> "ProportionalStrategy":
        a, b = self.invest_frac * invest, self.consume_frac * consume
        return ProportionalStrategy(self.grid, a, b)


def _utility_domain_check(strategy: ProportionalStrategy, spec: MarketSpec):
    needs_positive = spec.prefs.is_log or spec.gamma < 0
    if needs_positive and strategy.consume_frac.min() <= 0.0:
        raise ValueError(
            "running utility diverges: consumption fraction must be positive "
            "for log or negative-power preferences"
        )


def _cumulative_tables(strategy: ProportionalStrategy, spec: MarketSpec):
    """Exact per-state running integrals of the log-wealth drift and variance.

    Market coefficients are constant on each cell of the merged grid (override
    breakpoints are nodes) and the strategy is piecewise linear on it, so the
    cell integrals of r + mu a - b - sigma^2 a^2 / 2 and of sigma^2 a^2 are
    closed forms: linear terms by trapezoid, the a^2 term by the exact
    quadratic rule.
    """
    tg, r_c, mu_c, sigma_c = spec.coefficients_on(strategy.grid)
    s2_c = sigma_c**2
    S = strategy.n_states
    a_tab, b_tab = strategy.values_at(tg)
    dt = np.diff(tg)[:, None]
    a_lo, a_hi = a_tab[:-1], a_tab[1:]
    b_lo, b_hi = b_tab[:-1], b_tab[1:]
    int_a = 0.5 * (a_lo + a_hi) * dt
    int_b = 0.5 * (b_lo + b_hi) * dt
    int_a2 = (a_lo**2 + a_lo * a_hi + a_hi**2) / 3.0 * dt
    inc_d = r_c * dt + mu_c * int_a - int_b - 0.5 * s2_c * int_a2
    inc_v = s2_c * int_a2
    cd = np.vstack([np.zeros((1, S)), np.cumsum(inc_d, axis=0)])
    cv = np.vstack([np.zeros((1, S)), np.cumsum(inc_v, axis=0)])
    return tg, cd, cv, b_tab


def estimate_J(
    strategy: ProportionalStrategy,
    t: float,
    x: float,
    i: int,
    spec: MarketSpec,
    n_paths: int,
    rng: RngSpec,
    n_grid: int = DEFAULT_PATH_GRID,
    target: float | None = None,
) -> MCReport:
    """Monte-Carlo estimate of the expected-utility functional.

    Estimates E[int_t^T e^{-rho_i (s-t)} U(c(s)) ds + e^{-rho_i (T-t)} U(X_T)]
    from (t, x, i), with the discount rate frozen at the queried state's
    rho_i. Paths use the exact log-space scheme; the running utility is
    integrated by trapezoid on the uniform grid.
    """
    validate_spec(spec)
    if x <= 0:
        raise ValueError("wealth must be positive")
    if not 0.0 <= t <= spec.horizon:
        raise ValueError(f"t={t} outside [0, {spec.horizon}]")
    prefs = spec.prefs
    if t >= spec.horizon:
        u = float(utility(x, prefs))
        return MCReport(
            estimate=u, stderr=0.0, n_paths=n_paths, algorithm=rng.algorithm,
            seed=rng.seed, stream=rng.stream, target=target,
            z_score=None if target is None else (0.0 if u == target else float("inf")),
        )
    _utility_domain_check(strategy, spec)
    T = spec.horizon
    rho_i = spec.rho[i]
    gamma = spec.gamma
    skel = sample_skeletons(spec.generator, i, t, T, n_paths, rng)
    zgen = rng.generator(DIFFUSION_SUBSTREAM)
    edges = np.linspace(t, T, n_grid + 1)
    dt = np.diff(edges)
    tg, cd, cv, b_tab = _cumulative_tables(strategy, spec)
    S = spec.states
    # log(b x) at the edges, flat by edge * S + state
    log_bx = np.log(interp_by_state(tg, b_tab, edges[:, None], np.arange(S)).ravel() * x)
    disc = np.exp(-rho_i * (edges - t))

    def flow(log_c, log_wealth, disc_k):
        # e^{-rho_i (s-t)} U(c) evaluated stably in log space
        if prefs.is_log:
            return disc_k * (log_c + log_wealth)
        return disc_k * np.exp(gamma * (log_c + log_wealth)) / gamma

    log_x = np.zeros(n_paths)
    quad = np.zeros(n_paths)
    f_prev = flow(np.full(n_paths, log_bx[i]), log_x, disc[0])
    for blk in cell_blocks(skel, edges, ((tg, cd), (tg, cv))):
        rows = _log_wealth_rows(log_x, blk, zgen)
        k = blk.start + np.arange(1, rows.shape[0] + 1)[:, None]  # upper edges
        f = flow(np.take(log_bx, k * S + blk.exit), rows, disc[k])
        trap = 0.5 * (np.concatenate([f_prev[None], f[:-1]]) + f) * dt[k - 1]
        for row in trap:
            quad += row
        log_x, f_prev = rows[-1], f[-1]
    return MCReport.from_samples(quad + flow(np.log(x), log_x, disc[-1]), rng, target=target)


def _log_wealth_rows(log_x: np.ndarray, blk, zgen: np.random.Generator) -> np.ndarray:
    """Log wealth at the upper edge of each cell of a block, shape (B, P).

    Per cell the drift increment is added first, then the noise term, as a
    cell-by-cell walk adds them; the normals come from the one diffusion
    stream as a (B, P) draw, in the order such a walk draws them.
    """
    d, v = blk.increments
    noise = np.clip(v, 0.0, None)
    np.sqrt(noise, out=noise)
    noise *= zgen.standard_normal(d.shape)
    out = np.empty(d.shape)
    for b in range(d.shape[0]):
        log_x = np.add(log_x, d[b], out=out[b])
        log_x += noise[b]
    return out


def sample_terminal_wealth(
    strategy: ProportionalStrategy,
    x0: float,
    i: int,
    spec: MarketSpec,
    n_paths: int,
    rng: RngSpec,
    n_grid: int = DEFAULT_PATH_GRID,
) -> np.ndarray:
    """Terminal wealth X(T) for an ensemble started at (0, x0, i), exact scheme."""
    validate_spec(spec)
    if x0 <= 0:
        raise ValueError("initial wealth must be positive")
    T = spec.horizon
    skel = sample_skeletons(spec.generator, i, 0.0, T, n_paths, rng)
    zgen = rng.generator(DIFFUSION_SUBSTREAM)
    edges = np.linspace(0.0, T, n_grid + 1)
    tg, cd, cv, _b_tab = _cumulative_tables(strategy, spec)
    log_x = np.full(n_paths, np.log(x0))
    for blk in cell_blocks(skel, edges, ((tg, cd), (tg, cv))):
        log_x = _log_wealth_rows(log_x, blk, zgen)[-1]
    return np.exp(log_x)


@dataclass(frozen=True)
class FrozenValueTable:
    """Deterministic value of a proportional strategy under a frozen discount rate.

    table holds f(t, row), with J(t, x, row) = f x^gamma / gamma, or h(t, row)
    then l(t, row), with J = h log x + l. The functional J(t, x, i) of the
    state-rho_i discount convention is read at row i from the table computed
    with frozen_rho = rho_i.
    """

    frozen_rho: float
    prefs: Preferences
    table: SolutionTable

    def value(self, t: float, x: float, row: int) -> float:
        return self.prefs.value(self.table.interpolate(t), x, row)


def _fk_solve(strategy, frozen_rho, spec, terminal, n_steps, t_start=0.0, horizon=None):
    """The frozen-discount value system (see feynman_kac_value), one affine sweep per leg."""
    S, rates, gamma, eye = spec.states, spec.generator.rates, spec.gamma, np.eye(spec.states)
    A_log = np.broadcast_to(frozen_rho * eye - rates, (3, S, S))
    stage = [0, 1, 1, 2]  # the stage-time row of each RK4 stage

    def make_rhs(r, mu, sigma):
        def coefficients(times, lead):  # h's, then l's fed by h on the log branch
            if spec.prefs.is_log and lead is None:
                return A_log, (-1.0,) * 4
            a, b = strategy.values_at(times)
            if spec.prefs.is_log:
                drift = (r + mu * a - b - 0.5 * sigma**2 * a**2)[stage, ..., None]
                return A_log, -(drift * lead + np.log(b)[stage, ..., None])
            coef = gamma * (r + mu * a - b) + 0.5 * gamma * (gamma - 1.0) * sigma**2 * a**2
            A = (frozen_rho - coef)[..., None] * eye
            A -= rates
            return A, -np.power(b, gamma)[stage, ..., None]

        return coefficients

    return solve_market_ode(
        make_rhs, spec, terminal, n_steps, tol=None, t_start=t_start, horizon=horizon,
        sweep=affine_pair_solve if spec.prefs.is_log else affine_rk4_solve,
    )


def feynman_kac_value(
    strategy: ProportionalStrategy,
    frozen_rho: float,
    spec: MarketSpec,
    n_steps: int = 2048,
) -> FrozenValueTable:
    """Solve the frozen-discount value system of a proportional strategy.

    Power branch: df/dt + [gamma(r + mu a - b) + gamma(gamma-1) sigma^2 a^2/2
    - frozen_rho] f + sum_j rates[i,j] f(., j) + b^gamma = 0, f(T, .) = 1.
    The log branch solves the (h, l) analogue with h(T)=1, l(T)=0.
    """
    validate_spec(spec)
    _utility_domain_check(strategy, spec)
    table = _fk_solve(strategy, frozen_rho, spec, spec.prefs.terminal(spec.states), n_steps)
    return FrozenValueTable(frozen_rho=frozen_rho, prefs=spec.prefs, table=table)


@dataclass(frozen=True)
class SlopeResult:
    """First-order utility deficit of a window perturbation, extrapolated to zero width."""

    t: float
    state: int
    x: float
    epsilons: np.ndarray
    slopes: np.ndarray
    extrapolated: float


class SlopeOracle:
    """Prices window perturbations of a solved policy with the frozen oracle.

    The tail solve on [t + eps, T] and the unperturbed window value depend
    only on (state, t, eps), so they are cached and shared across a whole
    perturbation menu.
    """

    def __init__(
        self,
        spec: MarketSpec,
        solution: EquilibriumSolution | None = None,
        n_steps_tail: int = 2048,
        n_steps_window: int = 256,
    ):
        validate_spec(spec)
        self.spec = spec
        self.solution = solution if solution is not None else solve(spec)
        self.base = ProportionalStrategy.from_policy(self.solution)
        self.n_steps_tail = n_steps_tail
        self.n_steps_window = n_steps_window
        self._terminal = spec.prefs.terminal(spec.states)
        self._tails: dict = {}
        self._eq_windows: dict = {}

    def _boundary(self, i: int, t_hi: float) -> np.ndarray:
        key = (i, t_hi)
        if key not in self._tails:
            self._tails[key] = self._terminal if t_hi >= self.spec.horizon else _fk_solve(
                self.base, float(self.spec.rho[i]), self.spec, self._terminal,
                self.n_steps_tail, t_start=t_hi).values[0]
        return self._tails[key]

    def _window_f0(self, strategy, t: float, i: int, eps: float) -> np.ndarray:
        boundary = self._boundary(i, t + eps)
        return _fk_solve(strategy, float(self.spec.rho[i]), self.spec, boundary,
                         self.n_steps_window, t_start=t, horizon=t + eps).values[0]

    def slope(
        self,
        t: float,
        x: float,
        i: int,
        perturbation: ProportionalStrategy,
        epsilons=None,
    ) -> SlopeResult:
        T = self.spec.horizon
        if not 0.0 <= t < T:
            raise ValueError(f"t={t} must lie in [0, T)")
        if epsilons is None:
            epsilons = np.array(SLOPE_EPSILONS) * (T - t)
        epsilons = np.asarray(sorted(epsilons, reverse=True), dtype=float)
        if (epsilons <= 0).any() or (epsilons > T - t).any():
            raise ValueError("window widths must lie in (0, T - t]")
        slopes = []
        for eps in epsilons:
            key = (i, t, eps)
            if key not in self._eq_windows:
                self._eq_windows[key] = self._window_f0(self.base, t, i, eps)
            j_eq = self.spec.prefs.value(self._eq_windows[key], x, i)
            j_pert = self.spec.prefs.value(self._window_f0(perturbation, t, i, eps), x, i)
            slopes.append((j_eq - j_pert) / eps)
        slopes = np.asarray(slopes)
        if epsilons.size >= 2:
            A = np.vstack([np.ones_like(epsilons), epsilons]).T
            coef, *_ = np.linalg.lstsq(A, slopes, rcond=None)
            extrapolated = float(coef[0])
        else:
            extrapolated = float(slopes[0])
        return SlopeResult(
            t=t, state=i, x=x, epsilons=epsilons, slopes=slopes, extrapolated=extrapolated
        )


def perturbation_menu(solution: EquilibriumSolution) -> dict[str, ProportionalStrategy]:
    """The six bounded perturbations used by the slope certificate."""
    base = ProportionalStrategy.from_policy(solution)
    return {
        "consumption_x2": base.scaled(consume=2.0),
        "consumption_half": base.scaled(consume=0.5),
        "investment_zero": base.scaled(invest=0.0),
        "investment_x2": base.scaled(invest=2.0),
        "both_x2": base.scaled(invest=2.0, consume=2.0),
        "investment_flip": base.scaled(invest=-1.0),
    }
