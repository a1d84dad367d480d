"""Golden values of the deterministic ODE routes, pinned to the last bit.

Every digest here was captured before the power/log branch was described
once on `Preferences`, and must be reproduced exactly: that change moves
where each branch's terminal row, value map and consumption map live, not
what they compute. A pin may only ever be tightened, never loosened.

One solver change is sanctioned: solver version rk4-2 solves the linear
systems (the frozen-discount Feynman-Kac system, slope windows and tails, the
log branch's h and l) as one affine map per RK4 step. It is the same scheme
on the same grids, with floating-point operations in another order, so these
pins moved: every fig1 CSV through its metadata line and the gamma = 0 one
also by at most 1.0e-12, the gamma = 0 solve (5.5e-14), both Feynman-Kac
tables (6.4e-15 at gamma = -1, 4.0e-14 at gamma = 0) and the slope row
(1.3e-13). The g-system's pins, SOLVE[-1.0] and G_TABLE, did not move.

A second is sanctioned: solver version rk4-3 solves the power branch's
g-system, at S <= 8 regimes, by Newton on RK4's step map for every step at
once (ode_engine.newton_rk4_solve). It finds the stage loop's table to
rounding, not bit for bit, so these pins moved, each measured against
rk4-2: every fig1 CSV through its metadata line, and the three power ones
also in their last printed digit (at most 1.0e-12 absolute; 12, 6 and 4
numbers at gamma = 0.7, -0.5 and -1); SOLVE[-1.0] by at most 5.1e-15
relative (1.1e-14 absolute) and G_TABLE by the same, its g values; the
gamma = -1 Feynman-Kac table by at most 6.7e-16 (3.8e-16 relative); the
slope row in 4 of its 42 numbers, by at most 3.2e-15 (2.7e-14 relative).
The gamma = 0 solve and Feynman-Kac pins, and the gamma = 0 fig1 CSV's
numbers, did not move.

The tables are read through the public maps (the consumption curve, the
value ansatz and the frozen-discount value), which reach every coefficient:
at x = 1 the log branch's value is its intercept l, and the consumption
curve is 1/h there and g^(1/(gamma-1)) on the power branch.
"""

import functools
import hashlib
from pathlib import Path

import numpy as np
import pytest

from rsmerton.cli import BENCHMARK_GAMMAS, benchmark_spec, reproduce_fig1
from rsmerton.equilibrium import solve, value_at
from rsmerton.simulate import (
    ProportionalStrategy,
    SlopeOracle,
    feynman_kac_value,
    perturbation_menu,
)

WEALTHS = (1.0, 2.0)


def _sha(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype="<f8").tobytes()).hexdigest()


@functools.lru_cache(maxsize=None)
def _solved(gamma):
    spec = benchmark_spec(gamma)
    return spec, solve(spec)


FIG1_CSV = {
    "0.7": "deba398bd6612aa2409fb2e56f204c5e0d67d7f506523760b82e02527bc8d010",
    "0": "77c0d8698c8a72453e90a67a02e3d1d785f9849932e1d69e29fd10fecfa75ce4",
    "-0.5": "f464be760990b6fee3bd2556b87b6ce2eea1339ed42260f7fa9143751fe799c7",
    "-1": "3da5e4b649136b72a5515cf944b7eeeafe0c6e6a5c90e0d7bf94f7e1ca3176ab",
}


def test_fig1_csvs_are_pinned(tmp_path):
    summary = reproduce_fig1(str(tmp_path), grid=2048)
    digests = {tag: hashlib.sha256(Path(p).read_bytes()).hexdigest()
               for tag, p in summary["files"].items()}
    assert sorted(digests) == sorted(f"{g:g}" for g in BENCHMARK_GAMMAS)
    assert digests == FIG1_CSV


SOLVE = {
    # gamma: sha256 of the grid, the consumption curve and the value ansatz
    # at every node, each wealth and each state
    -1.0: "f37f10f1bd3fac8007cfabea0cccc2e0f119a33ec967b2386f5d82b192d6063d",
    0.0: "d41093ab603053306c7e3936f61fba0fa3daca6c92cc708a3d897641a018447e",
}
G_TABLE = "0e509955afd4fd5704613412d5abd52b45b1409ad0bf4c3d9faf4657beede975"


def _solve_numbers(gamma):
    _, sol = _solved(gamma)
    curve = sol.consumption_curve()
    values = [value_at(sol, float(t), x, i)
              for t in curve.grid for x in WEALTHS for i in range(2)]
    return np.concatenate([curve.grid, curve.rates.ravel(), values])


@pytest.mark.parametrize("gamma", sorted(SOLVE))
def test_solve_tables_are_pinned(gamma):
    assert _sha(_solve_numbers(gamma)) == SOLVE[gamma]


def test_g_table_is_pinned():
    _, sol = _solved(-1.0)
    assert _sha(np.concatenate([sol.g_table.grid, sol.g_table.values.ravel()])) == G_TABLE


FEYNMAN_KAC = {
    # gamma: sha256 of the frozen-discount value (rho_0) of the solved policy
    # at every node of its 2048-step grid, each wealth and each state
    -1.0: "e2a4aef9c195849251629393641597f6b2339da4b08630f08acb7ce5ca8c485e",
    0.0: "efce2e22858d8557340f0705a0617079ca9e02ebc565feaf7a81744feb5d8244",
}


@pytest.mark.parametrize("gamma", sorted(FEYNMAN_KAC))
def test_feynman_kac_tables_are_pinned(gamma):
    spec, sol = _solved(gamma)
    fk = feynman_kac_value(ProportionalStrategy.from_policy(sol), float(spec.rho[0]), spec)
    values = [fk.value(float(t), x, i)
              for t in np.linspace(0.0, spec.horizon, 2049) for x in WEALTHS for i in range(2)]
    assert _sha(values) == FEYNMAN_KAC[gamma]


# The six perturbations at (t, x, state) = (0.3, 1.7, 1), gamma = -1, on
# coarse tail and window grids so the row stays fast.
SLOPE_ROW = "99fe5d9ad2e3c3a93c831d76fd171bf8a06915f8347114d4147f69b9720eb351"


def test_slope_row_is_pinned():
    spec, sol = _solved(-1.0)
    oracle = SlopeOracle(spec, solution=sol, n_steps_tail=512, n_steps_window=64)
    numbers = []
    for _, pert in sorted(perturbation_menu(sol).items()):
        res = oracle.slope(0.3, 1.7, 1, pert)
        numbers += [*res.epsilons, *res.slopes, res.extrapolated]
    assert _sha(numbers) == SLOPE_ROW
