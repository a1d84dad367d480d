import json
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rsmerton import cli
from rsmerton.cli import (
    BENCHMARK_MARKET,
    ConfigError,
    benchmark_spec,
    load_config,
    main,
    reproduce_fig1,
    run,
    slope_certificate,
    spec_hash,
)
from rsmerton.core_model import market_spec_to_json
from rsmerton.ctmc import RngSpec, dynkin_check, stationary_distribution
from rsmerton.equilibrium import rhs_factory, solve, value_at
from rsmerton.ode_engine import OdeSystem, SolutionTable, residual_norm
from tests.test_coefficient_overrides import two_phase_override


def minimal_config(out_dir, **extra):
    return {
        "market": {**BENCHMARK_MARKET, "gamma": -1.0},
        "outputs": ["curves"],
        "grid": 256,
        "out_dir": str(out_dir),
        **extra,
    }


# Values a bare int() would crash on ("fine", and -5 inside numpy's seeding)
# or quietly truncate or coerce (300.7 to 300, True to seed 1).
BAD_INTEGERS = [
    ("grid", "fine"), ("grid", 300.7), ("grid", 4), ("paths", 2000.9), ("paths", 1),
    ("seed", True), ("seed", -5),
]
# JSON shapes that used to escape as a TypeError or IndexError, split a
# string into letters, or coerce a number to a directory name.
BAD_SHAPES = [
    ("market", 5), ("market", [1, 2]), ("gammas", 0.5), ("gammas", []),
    ("outputs", "curves"), ("out_dir", 5),
]


class TestConfigParsing:
    def test_minimal_config(self, tmp_path):
        cfg = load_config(json.dumps(minimal_config(tmp_path)))
        assert cfg.gammas == [-1.0]
        assert cfg.outputs == ["curves"]

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown keys"):
            load_config(minimal_config(tmp_path, typo=1))

    def test_missing_market(self):
        with pytest.raises(ConfigError, match="config.market"):
            load_config({"gammas": [0.5]})

    def test_bad_gamma_reported_with_index(self, tmp_path):
        with pytest.raises(ConfigError, match=r"config.gammas\[1\]"):
            load_config(minimal_config(tmp_path, gammas=[0.5, 1.2]))

    def test_corrupted_generator_is_config_error_with_field_path(self, tmp_path):
        doc = minimal_config(tmp_path)
        doc["market"]["generator"] = [[-1.0, 2.0], [1.0, -1.0]]
        with pytest.raises(ConfigError, match="config.market: row 0 sums to 1"):
            load_config(doc)

    def test_non_finite_json_literals_rejected_with_field_paths(self, tmp_path):
        text = json.dumps(minimal_config(tmp_path, grid=256, paths=1000))
        text = text.replace('"sigma": [0.25, 0.25]', '"sigma": [0.25, NaN]')
        text = text.replace('"horizon": 1.0', '"horizon": Infinity')
        text = text.replace('"paths": 1000', '"paths": -Infinity')
        with pytest.raises(ConfigError) as e:
            load_config(text)
        assert str(e.value) == (
            "config.market.sigma[1]: must be finite; config.market.horizon: must be finite; "
            "config.paths: must be finite"
        )

    def test_bad_output_kind(self, tmp_path):
        with pytest.raises(ConfigError, match="unknown kinds"):
            load_config(minimal_config(tmp_path, outputs=["plots"]))

    def test_not_json(self):
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config("{nope")


class TestRun:
    def test_minimal_run_writes_curve_csv(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path))
        assert run(cfg) == 0
        text = (tmp_path / "consumption_g-1.csv").read_text()
        lines = text.strip().splitlines()
        assert lines[0].startswith("# spec_hash=")
        assert lines[1] == "t,C0,C1"
        rows = [line.split(",") for line in lines[2:]]
        assert all(len(r) == 3 for r in rows)  # t plus one column per state
        assert len(rows) >= cfg.grid + 1  # step-halving may refine the grid
        assert float(rows[0][0]) == 0.0
        assert float(rows[-1][0]) == 1.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path))
        run(cfg)
        first = (tmp_path / "consumption_g-1.csv").read_bytes()
        run(cfg)
        assert (tmp_path / "consumption_g-1.csv").read_bytes() == first

    def test_validation_passes_on_benchmark(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path, outputs=["curves", "validation"]))
        assert run(cfg) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        v = report["runs"]["-1"]["validation"]
        assert v["passed"]
        assert v["residual_norm"] <= 1e-5
        # one leg: the whole table against the spec's own coefficients, bit for bit
        spec = benchmark_spec(-1.0)
        rhs = rhs_factory(spec)(spec.r, spec.mu, spec.sigma)
        whole = residual_norm(OdeSystem(2, rhs, np.ones(2), 1.0), solve(spec, n_steps=256).table)
        assert v["residual_norm"] == whole

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_validation_passes_on_a_fast_market(self, tmp_path, gamma):
        # The benchmark's generator x5. A centred difference in place of
        # Simpson's defect read 1.19e-5 at gamma = -1 and 2.20e-5 at 0.
        fast = 5 * np.array(BENCHMARK_MARKET["generator"])
        market = {**BENCHMARK_MARKET, "generator": fast.tolist()}
        doc = minimal_config(tmp_path, market=market, gammas=[gamma], grid=2048,
                             outputs=["validation"])
        assert run(load_config(doc)) == 0

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_a_bumped_table_fails_the_residual_gate(self, gamma):
        spec = benchmark_spec(gamma)
        table = solve(spec).table
        bumped = SolutionTable(table.grid, table.values + 1e-4 * np.sin(7 * table.grid)[:, None])
        terminal = spec.prefs.terminal(spec.states)
        system = OdeSystem(terminal.size, rhs_factory(spec)(spec.r, spec.mu, spec.sigma), terminal,
                           spec.horizon)
        assert residual_norm(system, bumped) > 1e-4 and residual_norm(system, table) <= 1e-11

    def test_report_carries_each_legs_solver_statistics(self, tmp_path):
        market = market_spec_to_json(replace(benchmark_spec(-1.0), override=two_phase_override()))
        run(load_config(minimal_config(tmp_path, market=market, gammas=[-1.0, 0.0])))
        report = json.loads((tmp_path / "validation_report.json").read_text())
        for tag, sweep in (("-1", "newton"), ("0", "affine")):
            legs = report["runs"][tag]["solver"]
            assert [(leg["sweep"], leg["t_start"], leg["horizon"]) for leg in legs] == [
                (sweep, 0.0, 0.5), (sweep, 0.5, 1.0)]
            for leg in legs:
                assert leg["steps"] >= 128 and leg["rounds"] >= 1 and 0.0 < leg["error"] <= 1e-9
                assert ("newton_iterations" in leg) == (sweep == "newton")

    @pytest.mark.parametrize("gamma", [-1.0, 0.0])
    def test_validation_passes_on_an_override_market(self, tmp_path, gamma):
        # Each leg is checked against its own coefficients; the spec's base
        # coefficients over the whole table gave 1.6e-2 at gamma = -1.
        market = market_spec_to_json(replace(benchmark_spec(gamma), override=two_phase_override()))
        doc = minimal_config(tmp_path, market=market, gammas=[gamma], grid=2048,
                             outputs=["validation"])
        assert run(load_config(doc)) == 0
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert report["runs"][f"{gamma:g}"]["validation"]["residual_norm"] <= 2e-6

    def test_mc_identity_gate_fails_with_state_dependent_discount(self, tmp_path):
        # The MC gate compares the utility functional with the value ansatz;
        # with regime-dependent discounting these disagree (frozen-discount
        # note in the README), so the validation exits nonzero and the report
        # carries both z-scores.
        cfg = load_config(
            minimal_config(tmp_path, outputs=["mc"], paths=2000, grid=256)
        )
        assert run(cfg) == 1
        report = json.loads((tmp_path / "validation_report.json").read_text())
        rows = report["runs"]["-1"]["mc_value"]["rows"]
        assert any(abs(r["z_vs_ansatz"]) > 3 for r in rows)
        assert all(abs(r["z_vs_frozen_oracle"]) < 5 for r in rows)

    def test_log_tables_carry_h_then_l(self, tmp_path):
        cfg = load_config(minimal_config(tmp_path, gammas=[0.0], outputs=["tables"], grid=64))
        assert run(cfg) == 0
        lines = (tmp_path / "coefficients_g0.csv").read_text().splitlines()
        assert lines[1] == "t,y0,y1,y2,y3"  # h then l, one column each per state
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[2:]])
        np.testing.assert_array_equal(rows[-1, 1:], [1.0, 1.0, 0.0, 0.0])
        sol = solve(benchmark_spec(0.0), n_steps=64)
        at_one = [[value_at(sol, t, 1.0, i) for i in range(2)] for t in rows[:, 0]]
        np.testing.assert_allclose(rows[:, 3:], at_one, rtol=1e-11, atol=1e-14)

    def test_per_gamma_error_does_not_abort_other_runs(self, tmp_path):
        doc = minimal_config(tmp_path, gammas=[-1.0, 0.999999])
        cfg = load_config(doc)
        status = run(cfg)
        report = json.loads((tmp_path / "validation_report.json").read_text())
        assert "curve_csv" in report["runs"]["-1"]
        assert status == 1
        assert "error" in report["runs"]["0.999999"]


class TestMain:
    def test_solve_roundtrip_via_files(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path / "out")))
        assert main(["solve", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "out" / "consumption_g-1.csv").exists()

    def test_config_error_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        doc = minimal_config(tmp_path)
        doc["market"]["generator"] = [[-1.0, 2.0], [1.0, -1.0]]
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "row 0 sums to 1" in err
        assert "Traceback" not in err

    def test_non_finite_config_returns_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        text = json.dumps(minimal_config(tmp_path))
        cfg_path.write_text(text.replace('"rho": [0.9, 0.3]', '"rho": [NaN, 0.3]'))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "config.market.rho[0]: must be finite" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", BAD_INTEGERS + [("gammas", [False])] + BAD_SHAPES)
    def test_bad_config_value_returns_2(self, tmp_path, capsys, field, value):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**minimal_config(tmp_path), field: value}))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: config.{field}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("states", "two"), ("r", "abc"), ("generator", 5), ("horizon", [1.0]),
    ])
    def test_wrong_market_field_type_returns_2(self, tmp_path, capsys, field, value):
        doc = minimal_config(tmp_path)
        doc["market"][field] = value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(doc))
        assert main(["solve", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: config.market: {field} must be" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, path", [
        (["validate", "--paths", "1"], "config.paths"),
        (["solve", "--grid", "4"], "config.grid"),
        (["solve", "--seed", "-5"], "config.seed"),
        (["fig1", "--grid", "4"], "--grid"),
    ])
    def test_flags_pass_the_config_checks(self, tmp_path, capsys, argv, path):
        # An unchecked flag lets `validate --paths 1` pass its Monte-Carlo
        # gate on a zero stderr and `solve --grid 4` stamp grid=4 on a CSV.
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert f"{path}: must be >= " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_flags_override_the_config_file(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(minimal_config(tmp_path / "ignored")))
        assert main(["solve", "--config", str(cfg_path), "--grid", "128", "--seed", "5",
                     "--out", str(tmp_path / "out")]) == 0
        head = (tmp_path / "out" / "consumption_g-1.csv").read_text().splitlines()[0]
        assert "grid=128" in head and "seed=5" in head

    def test_fig1_small_grid(self, tmp_path, capsys):
        assert main(["fig1", "--out", str(tmp_path), "--grid", "256"]) == 0
        out = capsys.readouterr().out
        assert "higher_rho_higher_consumption" in out


class TestFig1:
    def test_artifacts_and_checks(self, tmp_path):
        summary = reproduce_fig1(str(tmp_path), grid=512)
        files = list(tmp_path.glob("consumption_g*.csv"))
        assert len(files) == 4
        assert (tmp_path / "fig1_summary.json").exists()
        assert summary["checks"]["higher_rho_higher_consumption"]
        assert summary["checks"]["terminal_within_1e-6"]

    def test_curves_rise_toward_terminal_one_at_benchmark_parameters(self, tmp_path):
        # Measured behavior at the bundled parameter set: every curve ends at
        # 1 from below, including gamma = 0.7 (the regime-averaged discount
        # is too small for consumption to start above 1).
        summary = reproduce_fig1(str(tmp_path), grid=512)
        text = (tmp_path / "consumption_g0.7.csv").read_text()
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in text.splitlines()[2:]]
        )
        assert rows[0, 1] < 1.0  # C(0, state 0) below the terminal value
        assert rows[-1, 1] == pytest.approx(1.0, abs=1e-9)
        assert summary["reported"]["monotonicity_in_t"]["0"] == "nondecreasing"

    def test_state_gap_grows_with_gamma_here(self, tmp_path):
        # Reported, not asserted as a model property: with these parameters
        # the regime gap in consumption widens as gamma rises.
        summary = reproduce_fig1(str(tmp_path), grid=512)
        gaps = summary["reported"]["max_state_gap_by_gamma"]
        assert gaps["0.7"] > gaps["-1"]
        assert summary["reported"]["gap_direction_in_gamma"] == "increasing"

    def test_seed_recorded_when_given(self, tmp_path):
        reproduce_fig1(str(tmp_path), seed=77, grid=256)
        head = (tmp_path / "consumption_g-1.csv").read_text().splitlines()[0]
        assert "seed=77" in head


class TestSlopeCertificate:
    def test_benchmark_gamma_minus_one_passes(self):
        cert = slope_certificate(benchmark_spec(-1.0), n_interior_points=1)
        assert cert["passed"]
        assert cert["worst_slope"] >= -1e-6
        assert len(cert["cells"]) == 6

    def test_nan_cell_fails(self, monkeypatch):
        slopes = iter([np.nan] + [1.0] * 5)
        monkeypatch.setattr(cli.SlopeOracle, "slope",
                            lambda self, *a: SimpleNamespace(extrapolated=next(slopes)))
        cert = slope_certificate(benchmark_spec(-1.0), n_interior_points=1)
        assert np.isnan(cert["worst_slope"]) and not cert["passed"]

    @pytest.mark.parametrize("gamma", ["1.5", "nan"])
    def test_bad_gamma_returns_2(self, tmp_path, capsys, gamma):
        assert main(["slope-cert", "--gamma", gamma, "--out", str(tmp_path)]) == 2
        assert "config.gammas[0]" in capsys.readouterr().err

    def test_market_only_config_passes(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"market": BENCHMARK_MARKET}))
        argv = ["slope-cert", "--config", str(cfg_path), "--gamma", "-1", "--out", str(tmp_path)]
        assert main(argv) == 0
        assert json.loads((tmp_path / "slope_certificate.json").read_text())["passed"]


class TestDiagnostics:
    def test_generator_diagnostics(self):
        spec = benchmark_spec(-1.0)
        pi = stationary_distribution(spec.generator)
        np.testing.assert_allclose(pi, np.array([10.9, 6.04]) / 16.94, atol=1e-10)
        G = np.arange(spec.states, dtype=float)
        rep = dynkin_check(spec.generator, G, spec.horizon, 5000, RngSpec(seed=3, stream=3))
        assert abs(rep.z_score) < 3.0

    def test_spec_hash_stable_and_sensitive(self):
        a = spec_hash(benchmark_spec(-1.0))
        b = spec_hash(benchmark_spec(-1.0))
        c = spec_hash(benchmark_spec(-0.5))
        assert a == b
        assert a != c
