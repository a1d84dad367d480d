"""Acceptance suite: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. Criterion 7 checks the value identity (the Monte-Carlo
utility functional of the solved policy reproduces the value ansatz) on a
market with switching coefficients and one common discount rate, where the
two discount conventions coincide (see the frozen-discount note in the
README). Its line also records how far the ansatz departs from the
frozen-discount value on the benchmark, whose discount rates differ.
"""

import time

import numpy as np

from rsmerton.cli import benchmark_spec, reproduce_fig1, slope_certificate
from rsmerton.core_model import RegimeGenerator
from rsmerton.ctmc import RngSpec, dynkin_check, ensemble_map, stationary_distribution
from rsmerton.equilibrium import (
    merton_closed_form,
    picard_apply,
    solve,
    solve_g,
    solve_log,
    value_at,
)
from rsmerton.simulate import DEFAULT_PATH_GRID, ProportionalStrategy, estimate_J, feynman_kac_value
from tests.conftest import make_spec

BENCH_GAMMAS = (0.7, 0.0, -0.5, -1.0)


def report(num, passed, desc, detail=""):
    mark = "PASS" if passed else "FAIL"
    print(f"CRITERION {num:2d} [{mark}] {desc}  {detail}")
    return passed


class Clock:
    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.t0


def test_criterion_1_constant_rho_closed_form():
    spec = make_spec(gamma=-1.0, rho=(0.9, 0.9))
    with Clock() as c:
        sol = solve_g(spec, n_steps=2048)
        curve = sol.consumption_curve()
        ref = merton_closed_form(spec, curve.grid)
        maxdev = float(np.abs(curve.rates - ref[:, None]).max())
    detail = (f"max|C_ode - C_closed| = {maxdev:.2e} over {curve.grid.size} nodes, "
              f"C(0) = {curve.rates[0, 0]:.6f}, {c.elapsed:.2f}s")
    ok = report(1, maxdev <= 1e-6 and c.elapsed < 1.0, "constant-discount closed form", detail)
    assert ok


def test_criterion_2_terminal_conditions():
    devs = []
    for gamma in BENCH_GAMMAS:
        spec = benchmark_spec(gamma)
        sol = solve(spec)
        terminal = sol.table.values[-1]  # g, or h then l
        assert (terminal[: spec.states] == 1.0).all()
        assert (terminal[spec.states:] == 0.0).all()
        devs.append(float(np.abs(sol.consumption_curve().rates[-1] - 1.0).max()))
    worst = max(devs)
    ok = report(2, worst <= 1e-6, "terminal coefficient and consumption",
                f"max|C(T)-1| = {worst:.2e}")
    assert ok


def test_criterion_3_log_discount_ordering():
    with Clock() as c:
        sol = solve_log(benchmark_spec(0.0))
        h = sol.table.values[:, :2]
        curve = sol.consumption_curve().rates
        strict_h = bool((h[:-1, 0] < h[:-1, 1]).all())
        strict_c = bool((curve[:-1, 0] > curve[:-1, 1]).all())
    ok = report(3, strict_h and strict_c and c.elapsed < 1.0,
                "log-utility ordering h(t,0) < h(t,1)",
                f"strict at all {h.shape[0] - 1} interior nodes, {c.elapsed:.2f}s")
    assert ok


def test_criterion_4_closed_form_discount_sensitivity():
    with Clock() as c:
        worst = np.inf
        for t in (0.0, 0.5, 0.9):
            for rho in np.arange(0.1, 1.2001, 0.1):
                up = merton_closed_form(make_spec(rho=(rho + 1e-4,) * 2), t)
                dn = merton_closed_form(make_spec(rho=(rho - 1e-4,) * 2), t)
                worst = min(worst, (up - dn) / 2e-4)
    ok = report(4, worst > 0.0 and c.elapsed < 1.0,
                "consumption increases with the discount rate",
                f"min dC/drho = {worst:.4f}, {c.elapsed:.2f}s")
    assert ok


def test_criterion_5_benchmark_experiment_qualitative(tmp_path):
    with Clock() as c:
        summary = reproduce_fig1(str(tmp_path))
    checks = summary["checks"]
    ok = report(
        5,
        checks["higher_rho_higher_consumption"]
        and checks["terminal_within_1e-6"]
        and c.elapsed < 5.0,
        "two-regime experiment: ordering and terminal value for all four gammas",
        f"{c.elapsed:.2f}s",
    )
    assert ok


def test_criterion_6_fixed_point_oracle():
    spec = make_spec(gamma=-1.0)
    with Clock() as c:
        sol = solve_g(spec)
        est = picard_apply(spec, sol.g_table, 100_000, RngSpec(seed=20260811))
        dev = est.deviation_from(sol.g_table)
        tol = np.maximum(3.0 * est.stderr, 2e-3)
        worst = float((dev / np.maximum(tol, 1e-300)).max())
    ok = report(6, bool((dev <= tol).all()) and c.elapsed < 60.0,
                "integral fixed-point oracle at 1e5 chain paths",
                f"max dev/tol = {worst:.2f}, max dev = {dev.max():.2e}, {c.elapsed:.0f}s")
    assert ok


# Common discount rate, switching riskless rate and volatility: the coupling
# term of the g-system acts, and the two states keep distinct values.
SWITCHING_MARKET = dict(rho=(0.9, 0.9), r=(0.05, 0.02), sigma=(0.25, 0.35))


def test_criterion_7_value_identity():
    # The value ansatz x^gamma g(0,i)/gamma prices the chain-riding discount
    # e^{-int rho(J_u) du}; estimate_J freezes the discount at rho_i. The two
    # coincide when all regimes share one rate, so the identity is checked on
    # such a market: deterministically (frozen Feynman-Kac table == g) and by
    # Monte Carlo (J within 3 stderr of the ansatz in both states). The four
    # estimate_J ensembles are independent, so ensemble_map may fork them.
    def value_identity(gamma, i, strat, spec, target):
        rep = estimate_J(strat, 0.0, 1.0, i, spec, 100_000,
                         RngSpec(seed=20260811, stream=40 + i), target=target)
        return gamma, i, rep.estimate, rep.stderr, target, rep.z_score

    jobs = []
    fk_dev = 0.0
    distinct = True
    with Clock() as c:
        for gamma in (0.7, -1.0):
            spec = make_spec(gamma=gamma, **SWITCHING_MARKET)
            sol = solve_g(spec)
            strat = ProportionalStrategy.from_policy(sol)
            fk = feynman_kac_value(strat, 0.9, spec)
            fk_dev = max(fk_dev, float(np.abs(
                fk.table.values - sol.g_table.interpolate(fk.table.grid)).max()))
            targets = [value_at(sol, 0.0, 1.0, i) for i in range(2)]
            distinct &= abs(targets[0] - targets[1]) > 1e-3 * abs(targets[0])
            jobs += [(gamma, i, strat, spec, targets[i]) for i in range(2)]
        rows = ensemble_map(value_identity, jobs, [100_000 * DEFAULT_PATH_GRID] * len(jobs))
    worst = max(abs(r[5]) for r in rows)
    # With regime-dependent rates the identity does not hold: on the
    # benchmark the ansatz and the frozen-discount value part by over 10%.
    gaps = []
    for gamma in (0.7, -1.0):
        spec = benchmark_spec(gamma)
        sol = solve_g(spec)
        strat = ProportionalStrategy.from_policy(sol)
        for i in range(2):
            ansatz = value_at(sol, 0.0, 1.0, i)
            frozen = feynman_kac_value(strat, spec.rho[i], spec).value(0.0, 1.0, i)
            gaps.append((gamma, i, ansatz, frozen, abs(frozen - ansatz) / abs(ansatz)))
    min_gap = min(g[4] for g in gaps)
    detail = "; ".join(
        f"gamma={g} state={i}: J={e:.4f}+-{s:.4f} ansatz={v:.4f} z={z:+.2f}"
        for g, i, e, s, v, z in rows
    )
    detail += f"; max|f_frozen - g| = {fk_dev:.1e}; benchmark ansatz vs frozen: " + "; ".join(
        f"gamma={g} state={i}: {a:.3f} vs {f:.3f} ({100 * d:.0f}%)"
        for g, i, a, f, d in gaps
    )
    report(7, worst <= 3.0 and fk_dev <= 1e-6 and distinct and min_gap > 0.1
           and c.elapsed < 120.0,
           "MC utility functional vs value ansatz (common discount rate)",
           f"{detail}, {c.elapsed:.0f}s")
    assert c.elapsed < 120.0
    assert distinct, "states collapsed: the switching market degenerated to one regime"
    assert fk_dev <= 1e-6, "frozen Feynman-Kac table departs from g: %.2e" % fk_dev
    assert worst <= 3.0, (
        "MC utility functional does not reproduce the value ansatz under a "
        "common discount rate; worst |z| = %.2f" % worst
    )
    assert min_gap > 0.1, (
        "benchmark ansatz and frozen-discount value no longer part by 10%% "
        "(smallest gap %.1f%%)" % (100 * min_gap)
    )


def test_criterion_8_slope_certificate():
    spec = benchmark_spec(-1.0)
    with Clock() as c:
        cert = slope_certificate(spec, n_interior_points=5)
    ok = report(8, cert["passed"] and c.elapsed < 30.0,
                "slope certificate over the six-perturbation menu",
                f"worst slope = {cert['worst_slope']:.3e} over {len(cert['cells'])} cells, "
                f"{c.elapsed:.0f}s")
    assert ok


DYNKIN_FIXTURES = {
    "benchmark": [[-6.04, 6.04], [10.9, -10.9]],
    "symmetric": [[-1.0, 1.0], [1.0, -1.0]],
    "asymmetric": [[-2.0, 2.0], [1.0, -1.0]],
    "three_state": [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [1.0, 2.0, -3.0]],
    "slow": [[-0.2, 0.2], [0.05, -0.05]],
}


def test_criterion_9_generator_correctness():
    zs = {}
    for name, rates in DYNKIN_FIXTURES.items():
        gen = RegimeGenerator(rates)
        G = np.arange(gen.n_states, dtype=float)
        rep = dynkin_check(gen, G, 1.0, 100_000, RngSpec(seed=31, stream=7))
        zs[name] = rep.z_score
    pi = stationary_distribution(RegimeGenerator(DYNKIN_FIXTURES["benchmark"]))
    pi_dev = float(np.abs(pi - np.array([10.9, 6.04]) / 16.94).max())
    worst = max(abs(z) for z in zs.values())
    ok = report(9, worst < 3.0 and pi_dev <= 1e-10,
                "chain martingale and stationary distribution",
                f"max |z| = {worst:.2f}, stationary dev = {pi_dev:.1e}")
    assert ok


def test_criterion_10_gamma_continuity():
    log_curve = solve_log(benchmark_spec(0.0)).consumption_curve()
    worst = 0.0
    for gamma in (1e-4, -1e-4):
        curve = solve_g(make_spec(gamma=gamma)).consumption_curve()
        worst = max(worst, float(np.abs(curve.rates - log_curve.rates).max()))
    ok = report(10, worst <= 1e-3, "power branch joins the log branch as gamma -> 0",
                f"max gap at |gamma|=1e-4: {worst:.2e}")
    assert ok
