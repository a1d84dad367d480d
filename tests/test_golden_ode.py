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
    "0.7": "cf54e0e523fe040c766b11071775edcba433f42e5dacf1fc4ba86385d874f4cf",
    "0": "18b00f8b2d89b07a368c086407b88606fb740ffbe427b7819adab782c67795a1",
    "-0.5": "917019d93743756ea2e2ba6fbb91f55906bbbf670fca1e91d3a7b78616ca5914",
    "-1": "066dffe1f918aca8af1c7265004410bd9fc13f0a81fbba2b9ec7f0222524fc3c",
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
    -1.0: "ac29bec34bf163f29534bc7115d3877248dfaa5189a5fec0918aeeeeeb8964f5",
    0.0: "d41093ab603053306c7e3936f61fba0fa3daca6c92cc708a3d897641a018447e",
}
G_TABLE = "d65d8132b4ba043dd13a5d078ee27a687cb929a412170f6de3412406a31232c9"


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
    -1.0: "8d663e90f0fa58c2ed5f8f4c1d469530449e08e8e2d9d62542faf03028918c74",
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
SLOPE_ROW = "fae74c881cbbdb1021fd3cb030faf906db1ad1e30a79ba27771c21c171d59f34"


def test_slope_row_is_pinned():
    spec, sol = _solved(-1.0)
    oracle = SlopeOracle(spec, solution=sol, n_steps_tail=512, n_steps_window=64)
    numbers = []
    for _, pert in sorted(perturbation_menu(sol).items()):
        res = oracle.slope(0.3, 1.7, 1, pert)
        numbers += [*res.epsilons, *res.slopes, res.extrapolated]
    assert _sha(numbers) == SLOPE_ROW
