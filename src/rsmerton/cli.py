"""Batch front end: solve, validate, reproduce the bundled experiment, certify slopes.

Config files are JSON:

    {
      "market":  {"states": 2, "r": [...], "alpha": [...], "sigma": [...],
                  "generator": [[...]], "rho": [...], "gamma": -1.0, "horizon": 1.0},
      "gammas":  [0.7, 0.0, -0.5, -1.0],          # optional, defaults to market.gamma
      "outputs": ["curves", "validation"],        # curves|tables|validation|fixed_point|mc|slopes
      "grid": 2048, "paths": 100000, "seed": 20260811, "out_dir": "out"
    }

Exit status is nonzero iff any requested validation fails; config errors are
reported with field paths and never crash.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from rsmerton.core_model import (
    MarketSpec,
    SpecValidationError,
    market_spec_from_json,
    market_spec_to_json,
)
from rsmerton.ctmc import RngSpec, ensemble_map
from rsmerton.equilibrium import picard_apply, rhs_factory, solve, value_at
from rsmerton.ode_engine import OdeSystem, SolutionTable, residual_norm
from rsmerton.simulate import (
    ProportionalStrategy,
    SlopeOracle,
    estimate_J,
    feynman_kac_value,
    perturbation_menu,
)

SOLVER_VERSION = "rk4-3"
SLOPE_TOLERANCE = -1e-6

# Built-in two-regime benchmark market: excess return 0.15 and volatility 0.25
# in both regimes, riskless rate 0.05, discount rates (0.9, 0.3), horizon 1.
BENCHMARK_MARKET = {
    "states": 2,
    "r": [0.05, 0.05],
    "alpha": [0.20, 0.20],
    "sigma": [0.25, 0.25],
    "generator": [[-6.04, 6.04], [10.9, -10.9]],
    "rho": [0.9, 0.3],
    "horizon": 1.0,
}
BENCHMARK_GAMMAS = (0.7, 0.0, -0.5, -1.0)


def benchmark_spec(gamma: float) -> MarketSpec:
    return market_spec_from_json({**BENCHMARK_MARKET, "gamma": gamma})


@dataclass
class ExperimentConfig:
    market: dict
    gammas: list[float]
    outputs: list[str] = field(default_factory=lambda: ["curves"])
    grid: int = 2048
    paths: int = 100_000
    seed: int = 20260811
    out_dir: str = "out"


_CONFIG_KEYS = {"market", "gammas", "outputs", "grid", "paths", "seed", "out_dir"}
_OUTPUT_KINDS = {"curves", "tables", "validation", "fixed_point", "mc", "slopes"}


class ConfigError(ValueError):
    pass


def _non_finite_paths(value, path: str) -> list[str]:
    """Field paths of the NaN and infinite numbers in a parsed JSON document."""
    if isinstance(value, float):
        return [] if np.isfinite(value) else [path]
    if isinstance(value, dict):
        items = [(f"{path}.{k}", v) for k, v in value.items()]
    elif isinstance(value, list):
        items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
    else:
        return []
    return [p for sub, v in items for p in _non_finite_paths(v, sub)]


def _integer(value, path: str, minimum: int) -> int:
    """An integer field of at least `minimum`; floats and booleans are refused, not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: must be an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
    return value


def _typed(value, path: str, kind: type, what: str):
    """value itself if it is a `kind`; a wrong JSON shape is refused, not coerced."""
    if not isinstance(value, kind):
        raise ConfigError(f"{path}: must be {what}, got {value!r}")
    return value


def _parse(doc: str | dict) -> dict:
    """A config document as a fresh dict; ConfigError unless it is a JSON object."""
    try:
        data = json.loads(doc) if isinstance(doc, str) else doc
    except json.JSONDecodeError as e:
        raise ConfigError(f"config: not valid JSON ({e})") from e
    if not isinstance(data, dict):
        raise ConfigError("config: must be a JSON object")
    return dict(data)


def load_config(doc: str | dict) -> ExperimentConfig:
    """Parse and validate an experiment config; errors carry field paths."""
    data = _parse(doc)
    bad = _non_finite_paths(data, "config")
    if bad:
        raise ConfigError("; ".join(f"{path}: must be finite" for path in bad))
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"config: unknown keys {sorted(unknown)}")
    if "market" not in data:
        raise ConfigError("config.market: missing")
    market = dict(_typed(data["market"], "config.market", dict, "a JSON object"))
    gammas = data.get("gammas")
    if gammas is None:
        if "gamma" not in market:
            raise ConfigError("config.gammas: missing and config.market.gamma not set")
        gammas = [market["gamma"]]
    if not isinstance(gammas, list) or not gammas:
        raise ConfigError(f"config.gammas: must be a non-empty list, got {gammas!r}")
    for k, g in enumerate(gammas):
        if isinstance(g, bool) or not isinstance(g, (int, float)) or not g < 1:
            raise ConfigError(f"config.gammas[{k}]: must be a number below 1, got {g!r}")
    try:
        market_spec_from_json({**market, "gamma": gammas[0]})
    except SpecValidationError as e:
        raise ConfigError(
            "; ".join(f"config.market: {v}" for v in e.violations)
        ) from e
    outputs = _typed(data.get("outputs", ["curves"]), "config.outputs", list, "a list")
    bad = {str(kind) for kind in outputs} - _OUTPUT_KINDS
    if bad:
        raise ConfigError(f"config.outputs: unknown kinds {sorted(bad)}")
    return ExperimentConfig(
        market=market,
        gammas=[float(g) for g in gammas],
        outputs=list(outputs),
        grid=_integer(data.get("grid", 2048), "config.grid", 16),
        paths=_integer(data.get("paths", 100_000), "config.paths", 1000),
        seed=_integer(data.get("seed", 20260811), "config.seed", 0),
        out_dir=_typed(data.get("out_dir", "out"), "config.out_dir", str, "a string"),
    )


def spec_hash(spec: MarketSpec) -> str:
    blob = json.dumps(market_spec_to_json(spec), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _gamma_tag(gamma: float) -> str:
    return f"{gamma:g}"


def _curve_meta(spec: MarketSpec, cfg_seed, grid: int) -> dict:
    meta = {"spec_hash": spec_hash(spec), "grid": grid, "solver": SOLVER_VERSION,
            "gamma": f"{spec.gamma:g}"}
    if cfg_seed is not None:
        meta["seed"] = cfg_seed
    return meta


def _consumption_checks(rates, rho) -> dict:
    """Qualitative checks on a consumption-curve table."""
    terminal_dev = float(np.abs(rates[-1] - 1.0).max())
    interior = rates[:-1]
    ordered = True
    for i in range(len(rho)):
        for j in range(len(rho)):
            if rho[i] > rho[j]:
                ordered = ordered and bool((interior[:, i] > interior[:, j]).all())
    diffs = np.diff(rates, axis=0)
    if (diffs >= 0).all():
        direction = "nondecreasing"
    elif (diffs <= 0).all():
        direction = "nonincreasing"
    else:
        direction = "mixed"
    gap = 0.0
    if len(rho) >= 2:
        hi = int(np.argmax(rho))
        lo = int(np.argmin(rho))
        gap = float((rates[:, hi] - rates[:, lo]).max())
    return {
        "terminal_deviation": terminal_dev,
        "terminal_within_1e-6": terminal_dev <= 1e-6,
        "higher_rho_higher_consumption": ordered,
        "monotonicity_in_t": direction,
        "max_state_gap": gap,
    }


def run(config: ExperimentConfig) -> int:
    """Solve every requested gamma, write artifacts, return the exit status."""
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    failures: list[str] = []
    report: dict = {"config_seed": config.seed, "runs": {}}
    for gamma in config.gammas:
        tag = _gamma_tag(gamma)
        entry: dict = {}
        try:
            spec = market_spec_from_json({**config.market, "gamma": gamma})
            solution = solve(spec, n_steps=config.grid)
        except Exception as e:  # solver/domain errors reported per run, others continue
            entry["error"] = f"{type(e).__name__}: {e}"
            failures.append(f"gamma={tag}: {entry['error']}")
            report["runs"][tag] = entry
            continue
        entry["solver"] = solution.table.stats["legs"]  # per leg: sweep, steps, rounds, error
        curve = solution.consumption_curve()
        if "curves" in config.outputs:
            path = out / f"consumption_g{tag}.csv"
            path.write_text(curve.to_csv(meta=_curve_meta(spec, config.seed, config.grid)))
            entry["curve_csv"] = str(path)
        if "tables" in config.outputs:
            # the whole coefficient table: g, or h then l
            path = out / f"coefficients_g{tag}.csv"
            meta = _curve_meta(spec, config.seed, config.grid)
            path.write_text(solution.table.to_csv(header_meta=meta))
            entry["table_csv"] = str(path)
        if "validation" in config.outputs:
            entry["validation"] = _validate_solution(spec, solution, curve)
            if not entry["validation"]["passed"]:
                failures.append(f"gamma={tag}: validation failed")
        if "fixed_point" in config.outputs and not spec.prefs.is_log:
            fp = _fixed_point_check(spec, solution, config)
            entry["fixed_point"] = fp
            if not fp["passed"]:
                failures.append(f"gamma={tag}: fixed-point check failed")
        if "mc" in config.outputs:
            mc = _mc_value_check(spec, solution, config)
            entry["mc_value"] = mc
            if not mc["passed"]:
                failures.append(f"gamma={tag}: MC value identity failed")
        if "slopes" in config.outputs:
            sc = slope_certificate(spec, solution)
            entry["slopes"] = sc
            if not sc["passed"]:
                failures.append(f"gamma={tag}: slope certificate failed")
        report["runs"][tag] = entry
    report["failures"] = failures
    (out / "validation_report.json").write_text(json.dumps(report, indent=2))
    return 1 if failures else 0


def _validate_solution(spec, solution, curve) -> dict:
    """Residual, terminal and ordering checks; the residual is the worst coefficient leg's.

    Each leg is checked on its own nodes (a breakpoint is in both) with its own coefficients.
    """
    make_rhs, terminal = rhs_factory(spec), spec.prefs.terminal(spec.states)
    cuts, r, mu, sigma = spec.coefficients_on([0.0, spec.horizon])
    grid, values = solution.table.grid, solution.table.values
    legs = []
    for k in range(cuts.size - 1):
        on = (grid >= cuts[k]) & (grid <= cuts[k + 1])
        system = OdeSystem(terminal.size, make_rhs(r[k], mu[k], sigma[k]), terminal,
                           cuts[k + 1], t_start=cuts[k])
        legs.append(residual_norm(system, SolutionTable(grid[on], values[on])))
    res = float(np.max(legs))  # a NaN leg stays NaN and fails the gate
    checks = _consumption_checks(curve.rates, spec.rho)
    passed = (
        res <= 1e-5
        and checks["terminal_within_1e-6"]
        and checks["higher_rho_higher_consumption"]
    )
    return {"residual_norm": res, **checks, "passed": bool(passed)}


def _fixed_point_check(spec, solution, config) -> dict:
    est = picard_apply(spec, solution.table, config.paths, RngSpec(seed=config.seed, stream=11))
    dev = est.deviation_from(solution.table)
    tol = np.maximum(3.0 * est.stderr, 2e-3)
    return {
        "max_deviation": float(dev.max()),
        "max_stderr": float(est.stderr.max()),
        "points": int(dev.size),
        "passed": bool((dev <= tol).all()),
    }


def _mc_value_check(spec, solution, config) -> dict:
    """MC utility functional vs the value ansatz and vs the frozen-discount oracle.

    The gate follows the ansatz identity; both z-scores are reported because
    they diverge whenever the discount rate is genuinely state-dependent (see
    the frozen-discount note in the README).
    """
    strategy = ProportionalStrategy.from_policy(solution)
    jobs = [(strategy, spec, i, config.paths, config.grid, config.seed) for i in range(spec.states)]
    path_cells = [config.paths * config.grid] * spec.states
    rows = []
    passed = True
    for i, (frozen, rep) in enumerate(ensemble_map(_mc_state, jobs, path_cells)):
        ansatz = value_at(solution, 0.0, 1.0, i)
        z_ansatz = (rep.estimate - ansatz) / rep.stderr if rep.stderr else 0.0
        z_frozen = (rep.estimate - frozen) / rep.stderr if rep.stderr else 0.0
        rows.append(
            {
                "state": i,
                "estimate": rep.estimate,
                "stderr": rep.stderr,
                "ansatz_value": ansatz,
                "frozen_oracle_value": frozen,
                "z_vs_ansatz": z_ansatz,
                "z_vs_frozen_oracle": z_frozen,
            }
        )
        passed = passed and abs(z_ansatz) <= 3.0
    return {"rows": rows, "passed": bool(passed)}


def _mc_state(strategy, spec, i, paths, grid, seed):
    """State i's frozen-discount oracle value and MC estimate: one independent ensemble."""
    frozen = feynman_kac_value(strategy, float(spec.rho[i]), spec).value(0.0, 1.0, i)
    rng = RngSpec(seed=seed, stream=20 + i)
    return frozen, estimate_J(strategy, 0.0, 1.0, i, spec, paths, rng, n_grid=grid)


def slope_certificate(
    spec: MarketSpec,
    solution=None,
    n_interior_points: int = 5,
) -> dict:
    """Slope test over the six-perturbation menu at interior (t, state) points, at wealth 1."""
    oracle = SlopeOracle(spec, solution=solution)
    menu = perturbation_menu(oracle.solution)
    ts = np.linspace(0.1, 0.9, n_interior_points) * spec.horizon
    cells = [
        {"t": float(t), "state": k % spec.states, "perturbation": name,
         "slope": oracle.slope(float(t), 1.0, k % spec.states, pert).extrapolated}
        for k, t in enumerate(ts) for name, pert in menu.items()
    ]
    worst = float(np.min([c["slope"] for c in cells], initial=np.inf))  # a NaN cell fails
    return {
        "cells": cells,
        "worst_slope": worst,
        "tolerance": SLOPE_TOLERANCE,
        "passed": bool(worst >= SLOPE_TOLERANCE),
    }


def reproduce_fig1(out_dir: str, seed: int | None = None, grid: int = 2048) -> dict:
    """Solve the built-in benchmark for its four risk aversions and write artifacts.

    One consumption-curve CSV per gamma plus a summary of the qualitative
    checks: every curve ends at 1 and the high-discount regime consumes more
    at every interior time. Monotonicity in t and how the regime gap varies
    with gamma are measured and reported, not asserted.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary: dict = {"gammas": list(BENCHMARK_GAMMAS), "files": {}, "checks": {}, "reported": {}}
    all_ordered = True
    all_terminal = True
    gaps = {}
    for gamma in BENCHMARK_GAMMAS:
        tag = _gamma_tag(gamma)
        spec = benchmark_spec(gamma)
        solution = solve(spec, n_steps=grid)
        curve = solution.consumption_curve()
        path = out / f"consumption_g{tag}.csv"
        path.write_text(curve.to_csv(meta=_curve_meta(spec, seed, grid)))
        summary["files"][tag] = str(path)
        checks = _consumption_checks(curve.rates, spec.rho)
        all_ordered = all_ordered and checks["higher_rho_higher_consumption"]
        all_terminal = all_terminal and checks["terminal_within_1e-6"]
        gaps[tag] = checks["max_state_gap"]
        summary["reported"].setdefault("monotonicity_in_t", {})[tag] = checks[
            "monotonicity_in_t"
        ]
    summary["checks"]["higher_rho_higher_consumption"] = all_ordered
    summary["checks"]["terminal_within_1e-6"] = all_terminal
    summary["reported"]["max_state_gap_by_gamma"] = gaps
    ordered_gammas = sorted(gaps, key=lambda k: float(k))
    gap_seq = [gaps[k] for k in ordered_gammas]
    summary["reported"]["gap_direction_in_gamma"] = (
        "increasing" if all(np.diff(gap_seq) > 0) else
        "decreasing" if all(np.diff(gap_seq) < 0) else "mixed"
    )
    (out / "fig1_summary.json").write_text(json.dumps(summary, indent=2))
    return summary


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rsmerton", description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--config", type=Path, help="experiment config JSON")
        sp.add_argument("--out", type=str, default=None, help="output directory")
        sp.add_argument("--seed", type=int, default=None)
        sp.add_argument("--paths", type=int, default=None)
        sp.add_argument("--grid", type=int, default=None)

    common(sub.add_parser("solve", help="solve and write consumption curves"))
    common(sub.add_parser("validate", help="solve plus validation report"))
    f1 = sub.add_parser("fig1", help="reproduce the bundled two-regime experiment")
    f1.add_argument("--out", type=str, default="fig1_out")
    f1.add_argument("--seed", type=int, default=None)
    f1.add_argument("--grid", type=int, default=2048)
    sc = sub.add_parser("slope-cert", help="slope certificate over the perturbation menu")
    sc.add_argument("--config", type=Path, default=None)
    sc.add_argument("--gamma", type=float, default=-1.0)
    sc.add_argument("--out", type=str, default="slope_out")
    return p


def _config_from_args(args, default_outputs) -> ExperimentConfig:
    """The config file (or the built-in benchmark) with the flags laid over it, validated once."""
    if args.config is not None:
        doc = _parse(Path(args.config).read_text())
    else:
        doc = {"market": dict(BENCHMARK_MARKET), "gammas": list(BENCHMARK_GAMMAS),
               "outputs": list(default_outputs)}
    flags = vars(args)
    laid = {"out_dir": flags["out"], "seed": flags.get("seed"), "paths": flags.get("paths"),
            "grid": flags.get("grid"), "gammas": [flags["gamma"]] if "gamma" in flags else None}
    doc.update({key: value for key, value in laid.items() if value is not None})
    return load_config(doc)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "solve":
            cfg = _config_from_args(args, ["curves"])
            return run(cfg)
        if args.verb == "validate":
            cfg = _config_from_args(args, ["curves", "validation"])
            if "validation" not in cfg.outputs:
                cfg.outputs.append("validation")
            return run(cfg)
        if args.verb == "fig1":
            grid = _integer(args.grid, "--grid", 16)
            summary = reproduce_fig1(args.out, seed=args.seed, grid=grid)
            ok = all(summary["checks"].values())
            print(json.dumps(summary["checks"]))
            return 0 if ok else 1
        if args.verb == "slope-cert":
            cfg = _config_from_args(args, ["slopes"])
            cert = slope_certificate(market_spec_from_json({**cfg.market, "gamma": cfg.gammas[0]}))
            out = Path(cfg.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            (out / "slope_certificate.json").write_text(json.dumps(cert, indent=2))
            print(f"worst slope {cert['worst_slope']:.3e} "
                  f"({'PASS' if cert['passed'] else 'FAIL'})")
            return 0 if cert["passed"] else 1
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
