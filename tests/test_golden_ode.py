"""Golden values of the deterministic ODE routes, pinned to the last bit.

Every digest here was captured before the power/log branch was described
once on `Preferences`, and must be reproduced exactly: that change moves
where each branch's terminal row, value map and consumption map live, not
what they compute. A pin may only ever be tightened, never loosened.

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
    "0.7": "6517fe5524ffbd03dd6cd16ec4169e57619f8730855ad228b6942cc41530ee93",
    "0": "bd92eec1efbfda190e0a0232cde3bfd88e3c8ac4bb1304dfa825364ee5ecff97",
    "-0.5": "e293bbd9e622ca722d4591293fee063c05e3588dd709797c83876672e2cb1403",
    "-1": "d6a1cf3f53cc95537a95eb218dfcf8c9b0a64622b268d0b81b3f1cd9cd018d1c",
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
    0.0: "912ed554c5f56085670545154ff7e55a47a8956c0ce4825ee9a622abcfab5a34",
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
    -1.0: "40f1b85039c9ec35d441c3bdfc5e7ff1e33c84092a4f9f775958cd964f8a8f73",
    0.0: "ead3983cac1dcf0b038597dfc1cc656115187ab339b5e768c634afccff64c570",
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
SLOPE_ROW = "169ca2bb9a69238a4cb4d8f8eafd779de1a7f6e813488c7c3a0f110295b6d809"


def test_slope_row_is_pinned():
    spec, sol = _solved(-1.0)
    oracle = SlopeOracle(spec, solution=sol, n_steps_tail=512, n_steps_window=64)
    numbers = []
    for _, pert in sorted(perturbation_menu(sol).items()):
        res = oracle.slope(0.3, 1.7, 1, pert)
        numbers += [*res.epsilons, *res.slopes, res.extrapolated]
    assert _sha(numbers) == SLOPE_ROW
