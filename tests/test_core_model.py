import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from rsmerton.core_model import (
    Preferences,
    SpecValidationError,
    inverse_marginal_utility,
    market_spec_from_json,
    market_spec_to_json,
    utility,
)
from tests.conftest import make_spec


class TestValidation:
    def test_benchmark_generator_valid(self):
        spec = make_spec(generator=[[-6.04, 6.04], [10.9, -10.9]])
        assert spec.violations() == []

    def test_symmetric_generator_valid(self):
        assert make_spec(generator=[[-1.0, 1.0], [1.0, -1.0]]).violations() == []

    def test_row_sum_violation_named(self):
        with pytest.raises(SpecValidationError, match="row 0 sums to 1"):
            make_spec(generator=[[-1.0, 2.0], [1.0, -1.0]])

    def test_negative_off_diagonal_rejected(self):
        with pytest.raises(SpecValidationError, match=r"\(0,1\)"):
            make_spec(generator=[[1.0, -1.0], [1.0, -1.0]])

    @pytest.mark.parametrize(
        "corruption",
        [
            dict(sigma=0.0),
            dict(sigma=-0.25),
            dict(rho=(0.0, 0.3)),
            dict(rho=(-0.9, 0.3)),
            dict(horizon=0.0),
            dict(horizon=-1.0),
            dict(gamma=1.0),
            dict(gamma=1.5),
            dict(generator=[[-1.0, 2.0], [1.0, -1.0]]),
            dict(generator=[[1.0, -1.0], [1.0, -1.0]]),
        ],
    )
    def test_single_field_corruptions_rejected(self, corruption):
        with pytest.raises(SpecValidationError):
            make_spec(**corruption)

    @pytest.mark.parametrize(
        "corruption, path",
        [
            (dict(generator=[[-6.04, np.nan], [10.9, -10.9]]), r"generator\[0\]\[1\]"),
            (dict(generator=[[-np.inf, np.inf], [10.9, -10.9]]), r"generator\[0\]\[0\]"),
            (dict(r=(0.05, np.nan)), r"r\[1\]"),
            (dict(mu=(np.inf, 0.15)), r"alpha\[0\]"),
            (dict(horizon=np.inf), "horizon"),
            (dict(gamma=-np.inf), "gamma"),
        ],
    )
    def test_non_finite_values_rejected_with_field_path(self, corruption, path):
        with pytest.raises(SpecValidationError, match=path + " must be finite"):
            make_spec(**corruption)

    def test_all_violations_reported_together(self):
        with pytest.raises(SpecValidationError) as e:
            make_spec(sigma=-1.0, horizon=-2.0, gamma=3.0)
        assert len(e.value.violations) == 3

    @pytest.mark.parametrize("corruption, message", [
        (dict(rho=(0.0, 0.0)), "rho must be positive"),
        (dict(horizon=-1.0), "horizon must be positive"),
        (dict(gamma=1.5), "gamma must be below 1"),
    ])
    def test_single_regime_specs_refused_when_built(self, corruption, message):
        # specs merton_closed_form used to answer for: C(0) = 0.527, 7.84, 0.143
        with pytest.raises(SpecValidationError, match=message):
            make_spec(**{"rho": (0.9, 0.9), **corruption})

    def test_replace_rechecks(self, bench_spec):
        with pytest.raises(SpecValidationError, match="sigma must be positive"):
            replace(bench_spec, sigma=np.array([0.25, 0.0]))

    def test_spec_arrays_read_only(self, bench_spec):
        with pytest.raises(ValueError):
            bench_spec.r[0] = 1.0


class TestUtility:
    def test_power_half(self):
        assert utility(1.0, Preferences.from_gamma(0.5)) == pytest.approx(2.0)

    def test_log_at_one(self):
        assert utility(1.0, Preferences.from_gamma(0.0)) == 0.0

    def test_negative_power(self):
        assert utility(2.0, Preferences.from_gamma(-1.0)) == pytest.approx(-0.5)

    def test_zero_consumption_diverges_for_log_and_negative_power(self):
        for gamma in (0.0, -1.0):
            with pytest.raises(ValueError):
                utility(0.0, Preferences.from_gamma(gamma))

    def test_zero_consumption_allowed_for_positive_power(self):
        assert utility(0.0, Preferences.from_gamma(0.5)) == 0.0

    def test_negative_consumption_rejected(self):
        with pytest.raises(ValueError):
            utility(-1.0, Preferences.from_gamma(0.5))

    @given(
        c=st.floats(0.01, 50.0),
        scale=st.floats(1.01, 4.0),
        gamma=st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.3, 0.7]),
    )
    def test_strictly_increasing_and_midpoint_concave(self, c, scale, gamma):
        prefs = Preferences.from_gamma(gamma)
        a, b = c, c * scale
        ua, ub = utility(a, prefs), utility(b, prefs)
        assert ua < ub
        assert utility(0.5 * (a + b), prefs) > 0.5 * (ua + ub)


class TestInverseMarginalUtility:
    def test_one_is_fixed_point_for_any_gamma(self):
        for gamma in (-2.0, -1.0, 0.0, 0.5, 0.9):
            assert inverse_marginal_utility(1.0, Preferences.from_gamma(gamma)) == 1.0

    def test_power_example(self):
        assert inverse_marginal_utility(4.0, Preferences.from_gamma(0.5)) == pytest.approx(
            0.0625
        )

    def test_log_reciprocal(self):
        assert inverse_marginal_utility(2.0, Preferences.from_gamma(0.0)) == pytest.approx(0.5)

    def test_nonpositive_rejected(self):
        for y in (0.0, -1.0):
            with pytest.raises(ValueError):
                inverse_marginal_utility(y, Preferences.from_gamma(0.5))

    @given(
        c=st.floats(1e-3, 1e3),
        gamma=st.one_of(st.floats(-3.0, 0.95), st.just(0.0)),
    )
    def test_inverts_marginal_utility(self, c, gamma):
        prefs = Preferences.from_gamma(gamma)
        marginal = 1.0 / c if prefs.is_log else c ** (prefs.gamma - 1.0)  # U'(c)
        back = inverse_marginal_utility(marginal, prefs)
        assert back == pytest.approx(c, rel=1e-12)


class TestExcessReturn:
    """The per-state excess return alpha - r, MarketSpec.mu."""

    def test_benchmark_value(self):
        spec = make_spec(mu=0.15, r=0.05)
        assert spec.mu[0] == pytest.approx(0.15)

    def test_zero_when_alpha_equals_r(self):
        spec = make_spec(mu=0.0, r=0.05)
        assert spec.mu[1] == 0.0

    def test_negative_excess_return_permitted(self):
        spec = make_spec(mu=-0.02, r=0.05)
        assert spec.mu[0] == pytest.approx(-0.02)

    def test_state_out_of_range(self, bench_spec):
        with pytest.raises(IndexError):
            bench_spec.mu[2]


class TestJsonInterface:
    def test_round_trip(self, bench_spec):
        doc = json.dumps(market_spec_to_json(bench_spec))
        spec = market_spec_from_json(doc)
        assert spec.states == bench_spec.states
        np.testing.assert_array_equal(spec.rho, bench_spec.rho)
        np.testing.assert_array_equal(spec.generator.rates, bench_spec.generator.rates)

    def test_unknown_key_rejected(self, bench_spec):
        doc = market_spec_to_json(bench_spec)
        doc["smoothing"] = 3
        with pytest.raises(SpecValidationError, match="unknown key: smoothing"):
            market_spec_from_json(doc)

    def test_missing_key_rejected(self, bench_spec):
        doc = market_spec_to_json(bench_spec)
        del doc["rho"]
        with pytest.raises(SpecValidationError, match="missing key: rho"):
            market_spec_from_json(doc)

    @pytest.mark.parametrize("field, value, message", [
        ("states", "two", "states must be an integer, got 'two'"),
        ("r", "abc", "r must be a list of numbers, got 'abc'"),
        ("generator", 5, "generator must be a list of lists of numbers, got 5"),
        ("horizon", [1.0], r"horizon must be a number, got \[1.0\]"),
    ])
    def test_wrong_json_type_named(self, bench_spec, field, value, message):
        doc = {**market_spec_to_json(bench_spec), field: value}
        with pytest.raises(SpecValidationError, match=message):
            market_spec_from_json(doc)

    def test_invalid_payload_rejected(self, bench_spec):
        doc = market_spec_to_json(bench_spec)
        doc["sigma"] = [0.25, -0.25]
        with pytest.raises(SpecValidationError):
            market_spec_from_json(doc)


class TestPreferences:
    def test_tiny_gamma_is_log(self):
        assert Preferences.from_gamma(1e-12).is_log
        assert Preferences.from_gamma(-1e-12).is_log

    def test_is_log_follows_gamma(self):
        assert Preferences(gamma=0.0).is_log and not Preferences(gamma=0.5).is_log
        with pytest.raises(TypeError):
            Preferences(gamma=0.5, is_log=True)

    def test_value_refuses_state_outside_row(self):
        row = np.array([1.0, 2.0, 0.0, 0.5])
        for prefs, bad in ((Preferences(gamma=0.0), 2), (Preferences(gamma=-1.0), 4)):
            for i in (-1, bad):
                with pytest.raises(IndexError, match=f"state {i} outside"):
                    prefs.value(row, 1.0, i)

    @pytest.mark.parametrize("x", [np.nan, np.inf, 0.0, -1.0])
    def test_value_refuses_wealth_not_finite_and_positive(self, x):
        with pytest.raises(ValueError, match="wealth must be finite and positive"):
            Preferences(gamma=-1.0).value(np.ones(2), x, 0)

    def test_small_but_meaningful_gamma_is_power(self):
        prefs = Preferences.from_gamma(1e-4)
        assert not prefs.is_log
        assert prefs.gamma == 1e-4
