"""Golden values of the Monte-Carlo path walks, pinned to the last bit.

Every number here was captured from the per-cell walk that preceded the
blocked kernel (`ctmc.cell_blocks`) and must be reproduced exactly: the
kernel changes how paths are walked, not what is computed. A pin may only
ever be tightened, never loosened. Each case covers a different corner:
the power and log branches, a piecewise override whose breakpoint is not a
cell edge, a late start whose edges miss the strategy grid, and a 32-regime
market at 20 jumps a year, where many cells carry several jumps.

One solver change is sanctioned: solver version rk4-2 solves the log
branch's h and l as affine RK4 sweeps, so the gamma = 0 policy behind the
"log" estimate moved in its last digits, and that estimate with it, from
0.24856397685014797 to 0.24856397685014758 (stderr unchanged). Every other
pin here was reproduced exactly.

A second is sanctioned: solver version rk4-3 solves the g-system at S <= 8
by Newton on RK4's step map, which finds the stage loop's table to rounding,
not bit for bit. Three pins moved, each in its last bits: the "override"
estimate's stderr by one ulp (0.007660202336082836 to ...837); picard "bench"
in 4 of its 16 numbers, by at most 4.4e-16; picard "override" in both
stderrs, by at most 1.7e-18 (3.3e-16 relative). Every other pin, the
32-regime and log-branch ones among them, was reproduced exactly.
"""

import functools
import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rsmerton import ctmc
from rsmerton.cli import benchmark_spec
from rsmerton.core_model import MarketSpec, PiecewiseCoefficients, RegimeGenerator
from rsmerton.ctmc import RngSpec
from rsmerton.equilibrium import picard_apply, solve
from rsmerton.ode_engine import SolutionTable
from rsmerton.simulate import ProportionalStrategy, estimate_J, sample_terminal_wealth
from tests.test_coefficient_overrides import two_phase_override


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


def mid_cell_override():
    """Riskless rate and drift step up at t = 0.3, which is no cell edge."""
    return PiecewiseCoefficients(
        breakpoints=np.array([0.3]),
        r=np.array([[0.05, 0.05], [0.10, 0.10]]),
        alpha=np.array([[0.20, 0.20], [0.18, 0.18]]),
        sigma=np.array([[0.25, 0.25], [0.30, 0.30]]),
    )


def regime_market(seed: int, exit_rate: float, states: int = 32) -> MarketSpec:
    """A random S-regime market whose every state leaves at `exit_rate` per year.

    Off-diagonal rates are exponential weights rescaled to the exit rate;
    r, alpha - r, sigma and rho take S evenly spaced values in narrow bands;
    state 0 takes the middle values and the rest are dealt in a random order.
    A copy of the benchmark's generator, kept here so the pins cannot move
    with the benchmark.
    """
    g = np.random.default_rng([seed, int(exit_rate)])
    rates = g.exponential(1.0, (states, states))
    np.fill_diagonal(rates, 0.0)
    rates *= exit_rate / rates.sum(axis=1, keepdims=True)
    np.fill_diagonal(rates, -rates.sum(axis=1))

    def band(lo, hi):
        values = np.linspace(lo, hi, states)
        mid = states // 2
        return np.concatenate([values[mid:mid + 1], g.permutation(np.delete(values, mid))])

    r = band(0.035, 0.045)
    return MarketSpec(
        states=states, r=r, alpha=r + band(0.115, 0.135), sigma=band(0.22, 0.24),
        generator=RegimeGenerator(rates), rho=band(0.45, 0.55), gamma=-1.0, horizon=1.0,
    )


@functools.lru_cache(maxsize=None)
def _bench(gamma, override=None):
    """The bench spec under its coefficient override and a coarse solution, solved once."""
    overrides = {None: None, "two_phase": two_phase_override(), "mid_cell": mid_cell_override()}
    spec = replace(benchmark_spec(gamma), override=overrides[override])
    return spec, solve(spec, n_steps=64, tol=1e-4)


def _policy(gamma, override=None):
    spec, sol = _bench(gamma, override)
    return spec, ProportionalStrategy.from_policy(sol)


def _regime_strategy(spec):
    """Constant per-state fractions: no solve, so the case stays fast."""
    S = spec.states
    invest = np.linspace(0.5, 1.5, S)
    consume = np.linspace(0.8, 1.6, S)[::-1]
    return ProportionalStrategy.from_constants(invest, consume, spec.horizon, n_states=S)


def _estimate(case):
    if case == "power":
        spec, strategy = _policy(-1.0)
        return estimate_J(strategy, 0.0, 1.0, 0, spec, 2000, RngSpec(seed=31, stream=4),
                          n_grid=256)
    if case == "power_late_start":
        spec, strategy = _policy(-1.0)
        return estimate_J(strategy, 0.37, 1.3, 1, spec, 2000, RngSpec(seed=32, stream=5),
                          n_grid=100)
    if case == "log":
        spec, strategy = _policy(0.0)
        return estimate_J(strategy, 0.0, 2.0, 1, spec, 2000, RngSpec(seed=33, stream=6),
                          n_grid=256)
    if case in ("override", "override_mid_cell"):
        spec, strategy = _policy(-1.0, "two_phase" if case == "override" else "mid_cell")
        return estimate_J(strategy, 0.0, 1.0, 0, spec, 2000,
                          RngSpec(seed=34, stream=7), n_grid=256)
    if case == "regimes32":
        spec = regime_market(20260811, 20.0)
        return estimate_J(_regime_strategy(spec), 0.0, 1.0, 0, spec, 1000,
                          RngSpec(seed=35, stream=8), n_grid=128)
    raise KeyError(case)


ESTIMATE_J = {
    # case: (estimate, stderr)
    "power": (-1.9006764457565868, 0.00904860749235894),
    "power_late_start": (-1.634680941168097, 0.007190019157712868),
    "log": (0.24856397685014758, 0.015954250038791324),
    "override": (-1.886917503469223, 0.007660202336082837),
    "override_mid_cell": (-1.8967124959839212, 0.006722146206642982),
    "regimes32": (-3.064678555183695, 0.019001121886664828),
}


@pytest.mark.parametrize("case", sorted(ESTIMATE_J))
def test_estimate_J_is_pinned(case):
    rep = _estimate(case)
    assert (rep.estimate, rep.stderr) == ESTIMATE_J[case]


TERMINAL_WEALTH = {
    "stats": (0.24348511326087946, 1.2655199393203111, 518.8274514193041),
    "sha256": "00f4a2afbb4919079d851c333de02207bf9516389c139fe3b86e71a91380d605",
}


def _terminal_wealth():
    spec = regime_market(7919, 20.0)
    return sample_terminal_wealth(_regime_strategy(spec), 1.5, 3, spec, 1000,
                                  RngSpec(seed=36, stream=9), n_grid=64)


def test_sample_terminal_wealth_is_pinned():
    xt = _terminal_wealth()
    assert xt.shape == (1000,)
    assert (float(xt.min()), float(xt.max()), float(xt.sum())) == TERMINAL_WEALTH["stats"]
    assert _sha(xt) == TERMINAL_WEALTH["sha256"]


def _picard(case):
    if case == "bench":
        spec, sol = _bench(-1.0)
        return picard_apply(spec, sol.g_table, 500, RngSpec(seed=37, stream=10),
                            eval_times=np.array([0.0, 0.5, 0.9, 1.0]), quad_cells=32)
    if case == "override":
        spec, sol = _bench(-1.0, "mid_cell")
        return picard_apply(spec, sol.g_table, 400, RngSpec(seed=38, stream=11),
                            eval_times=np.array([0.1]), quad_cells=16)
    if case == "regimes32":
        spec = regime_market(20260811, 20.0)
        grid = np.linspace(0.0, 1.0, 65)
        values = 1.0 + np.outer(1.0 - grid, np.linspace(0.2, 0.6, spec.states))
        return picard_apply(spec, SolutionTable(grid, values), 200, RngSpec(seed=39, stream=12),
                            eval_times=np.array([0.5]), quad_cells=32)
    raise KeyError(case)


PICARD = {
    # case: (values, stderr) as nested lists, or sha256 of both for wide tables
    "bench": (
        [[2.1832561952473206, 2.243390470486019], [1.586063637367549, 1.6359071818809843],
         [1.1074885477093435, 1.1368342750211036], [1.0, 1.0]],
        [[0.005300110530001785, 0.005665062173255651],
         [0.0032749789512813675, 0.003280104529698001],
         [0.0007643164689307666, 0.0009413254134471821], [0.0, 0.0]],
    ),
    "override": (
        [[2.0803413251730047, 2.1489901906740188]],
        [[0.005221006638452501, 0.0055561215485529815]],
    ),
    "regimes32": "ee2ffd3f602b3727f478ef55e4067a31b0284759af23efd21801451a1601eed7",
}


@pytest.mark.parametrize("case", sorted(PICARD))
def test_picard_apply_is_pinned(case):
    est = _picard(case)
    pinned = PICARD[case]
    if isinstance(pinned, str):
        assert _sha(np.concatenate([est.values.ravel(), est.stderr.ravel()])) == pinned
    else:
        assert (est.values.tolist(), est.stderr.tolist()) == pinned


def _regime_walks():
    """The 32-regime picard_apply, estimate_J and sample_terminal_wealth cases, end to end."""
    est, rep = _picard("regimes32"), _estimate("regimes32")
    return np.concatenate([est.values.ravel(), est.stderr.ravel(), [rep.estimate, rep.stderr],
                           _terminal_wealth()])


@pytest.mark.parametrize("block_elements", [1, 3001, 2**20])
def test_block_width_does_not_move_a_bit(monkeypatch, block_elements):
    # 1: a cell per block; 3001: 15 cells at 200 paths and 3 at 1000, with a
    # shorter last block; 2**20: the whole walk in one block.
    default = _regime_walks()
    monkeypatch.setattr(ctmc, "BLOCK_ELEMENTS", block_elements)
    assert _regime_walks().tobytes() == default.tobytes()
