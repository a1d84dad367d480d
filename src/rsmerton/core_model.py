"""Problem data: market coefficients, regime generator, preferences, CRRA primitives.

All containers are frozen dataclasses holding read-only numpy arrays; a
MarketSpec is checked when built, so any spec is valid and freely shareable.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

import numpy as np

ROW_SUM_TOL = 1e-12

# |gamma| below this is treated as logarithmic utility (removable singularity
# of c^gamma/gamma at gamma=0).
LOG_GAMMA_EPS = 1e-10


class SpecValidationError(ValueError):
    """Raised when a spec violates its invariants; carries every violation."""

    def __init__(self, violations: list[str]):
        self.violations = violations
        super().__init__("; ".join(violations))

    def __reduce__(self):  # rebuilt from the list, so it survives a worker's pickle
        return type(self), (self.violations,)


def _non_finite(name: str, value) -> list[str]:
    """One violation per NaN or infinite entry, named by its index path."""
    v = np.asarray(value, dtype=float)
    return [
        f"{name}{''.join(f'[{i}]' for i in idx)} must be finite, got {v[tuple(idx)]}"
        for idx in np.argwhere(~np.isfinite(v))
    ]


def _readonly(a) -> np.ndarray:
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class RegimeGenerator:
    """Transition-rate matrix of the driving chain (rows sum to zero)."""

    rates: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rates", _readonly(self.rates))

    @property
    def n_states(self) -> int:
        return self.rates.shape[0]

    def violations(self) -> list[str]:
        errs = []
        m = self.rates
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            return [f"generator must be square, got shape {m.shape}"]
        if not np.isfinite(m).all():  # sums and signs of such rows mean nothing
            return _non_finite("generator", m)
        if m.shape[0] < 2:
            errs.append(f"need at least 2 regimes, got {m.shape[0]}")
        for i in range(m.shape[0]):
            for j in range(m.shape[1]):
                if i != j and m[i, j] < 0:
                    errs.append(f"negative off-diagonal rate at ({i},{j}): {m[i, j]}")
            s = m[i].sum()
            if abs(s) > ROW_SUM_TOL:
                errs.append(f"row {i} sums to {s:.6g}")
        return errs

    def holding_rates(self) -> np.ndarray:
        """Per-state exit rates (minus the diagonal)."""
        return -np.diag(self.rates)


@dataclass(frozen=True)
class Preferences:
    """CRRA risk preferences; exactly one of power (gamma != 0) or log applies.

    Both branches share one value ansatz, linear in the coefficients of a
    table row: v = y_i x^gamma / gamma on the power branch (S columns) and
    v = h_i log x + l_i on the log branch (h then l, 2S columns). Consumption
    inverts marginal utility at the first S columns, and the risky fraction
    is mu / (sigma^2 (1 - gamma)) with gamma = 0 on the log branch.
    """

    gamma: float

    @classmethod
    def from_gamma(cls, gamma: float) -> "Preferences":
        return cls(gamma=0.0 if abs(gamma) < LOG_GAMMA_EPS else float(gamma))

    @property
    def is_log(self) -> bool:
        return self.gamma == 0.0

    def terminal(self, states: int) -> np.ndarray:
        """Coefficient row at the horizon: y = 1, or h = 1 then l = 0."""
        if self.is_log:
            return np.concatenate([np.ones(states), np.zeros(states)])
        return np.ones(states)

    def value(self, row: np.ndarray, x: float, i: int) -> float:
        """Value ansatz at wealth x in state i from one coefficient row."""
        if not 0 < x < np.inf:
            raise ValueError(f"wealth must be finite and positive, got {x}")
        S = row.size // 2 if self.is_log else row.size
        if not 0 <= i < S:
            raise IndexError(f"state {i} outside [0, {S}) of the row")
        if self.is_log:
            return float(row[i] * np.log(x) + row[S + i])
        return float(row[i] * x**self.gamma / self.gamma)

    def consumption(self, values: np.ndarray, states: int) -> np.ndarray:
        """Consumption per unit wealth: U'^-1 of the first `states` columns."""
        return inverse_marginal_utility(values[..., :states], self)

    def investment(self, mu, sigma):
        """Risky fraction of wealth, mu / (sigma^2 (1 - gamma))."""
        return mu / (sigma**2 * (1.0 - self.gamma))


@dataclass(frozen=True)
class PiecewiseCoefficients:
    """Piecewise-constant-in-time override of r, alpha, sigma.

    Interval k is [breakpoints[k-1], breakpoints[k]) with breakpoints strictly
    increasing inside (0, horizon); value arrays have shape (m+1, S) for m
    breakpoints. MarketSpec.violations checks it against the spec.
    """

    breakpoints: np.ndarray
    r: np.ndarray
    alpha: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        for name in ("breakpoints", "r", "alpha", "sigma"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))

    def violations(self, states: int, horizon: float) -> list[str]:
        bp = self.breakpoints
        if bp.ndim != 1:
            return [f"override.breakpoints must be one-dimensional, got shape {bp.shape}"]
        errs = _non_finite("override.breakpoints", bp)
        if not errs and not (np.diff(bp) > 0).all():
            errs.append(f"override.breakpoints must be strictly increasing, got {bp.tolist()}")
        if not errs and bp.size and not (0 < bp[0] and bp[-1] < horizon):
            errs.append(f"override.breakpoints must lie inside (0, {horizon}), got {bp.tolist()}")
        shape = (bp.size + 1, states)
        for name in ("r", "alpha", "sigma"):
            v = getattr(self, name)
            if v.shape != shape:
                errs.append(
                    f"override.{name} must have shape {shape} (one row per interval, "
                    f"one entry per state), got {v.shape}"
                )
            errs += _non_finite(f"override.{name}", v)
        if self.sigma.shape == shape and not (self.sigma > 0).all():
            errs.append(f"override.sigma must be positive, got {self.sigma.tolist()}")
        return errs


@dataclass(frozen=True)
class MarketSpec:
    """Per-regime market coefficients, generator, discounting and preferences.

    Coefficients are constant per regime unless an override makes r, alpha
    and sigma piecewise constant in time as well. Units: rates are 1/year,
    sigma is 1/sqrt(year), horizon is years. Construction (dataclasses.replace
    included) raises SpecValidationError with every violation.
    """

    states: int
    r: np.ndarray
    alpha: np.ndarray
    sigma: np.ndarray
    generator: RegimeGenerator
    rho: np.ndarray
    gamma: float
    horizon: float
    override: PiecewiseCoefficients | None = None
    prefs: Preferences = field(init=False)

    def __post_init__(self):
        for name in ("r", "alpha", "sigma", "rho"):
            object.__setattr__(self, name, _readonly(getattr(self, name)))
        object.__setattr__(self, "prefs", Preferences.from_gamma(self.gamma))
        if errs := self.violations():
            raise SpecValidationError(errs)

    @property
    def mu(self) -> np.ndarray:
        """Per-state excess return alpha - r."""
        return self.alpha - self.r

    def coefficients_on(self, grid):
        """(nodes, r, mu, sigma): grid joined with the override's breakpoints inside it.

        Row k of each (len(nodes) - 1, S) array holds the per-state
        coefficients in force on [nodes[k], nodes[k+1]), right-continuous at a
        breakpoint. Without an override the nodes are the grid and every row
        is the spec's own r, mu, sigma.
        """
        grid = np.asarray(grid, dtype=float)
        ov = self.override
        if ov is None:
            rows = (grid.size - 1, self.states)
            return (grid, *(np.broadcast_to(v, rows) for v in (self.r, self.mu, self.sigma)))
        bp = ov.breakpoints
        nodes = np.unique(np.concatenate([grid, bp[(bp > grid[0]) & (bp < grid[-1])]]))
        k = np.searchsorted(bp, nodes[:-1], side="right")
        return nodes, ov.r[k], ov.alpha[k] - ov.r[k], ov.sigma[k]

    def violations(self) -> list[str]:
        errs = list(self.generator.violations())
        n = self.states
        if self.generator.n_states != n:
            errs.append(
                f"generator is {self.generator.n_states}x{self.generator.n_states} "
                f"but states={n}"
            )
        for name in ("r", "alpha", "sigma", "rho"):
            v = getattr(self, name)
            if v.shape != (n,):
                errs.append(f"{name} must have one entry per state, got shape {v.shape}")
            errs += _non_finite(name, v)
        errs += _non_finite("horizon", self.horizon) + _non_finite("gamma", self.gamma)
        if self.sigma.shape == (n,) and not (self.sigma > 0).all():
            errs.append(f"sigma must be positive, got {self.sigma.tolist()}")
        if self.rho.shape == (n,) and not (self.rho > 0).all():
            errs.append(f"rho must be positive, got {self.rho.tolist()}")
        if not self.horizon > 0:
            errs.append(f"horizon must be positive, got {self.horizon}")
        if not self.gamma < 1:
            errs.append(f"gamma must be below 1, got {self.gamma}")
        if self.override is not None:
            errs += self.override.violations(n, self.horizon)
        return errs


# List depth of each JSON field (0: a number); states must be an integer.
_JSON_NDIM = {"states": 0, "r": 1, "alpha": 1, "sigma": 1, "generator": 2, "rho": 1,
              "gamma": 0, "horizon": 0}
_OVERRIDE_NDIM = {"breakpoints": 1, "r": 2, "alpha": 2, "sigma": 2}
_NDIM_NAMES = ("a number", "a list of numbers", "a list of lists of numbers")


def _shape_violations(data: dict, ndims: dict, prefix: str = "") -> list[str]:
    """One violation per field that is not a number, or lists of numbers as deep as ndims."""
    errs = []
    for name, ndim in ndims.items():
        try:
            arr = np.asarray(data[name])
        except ValueError:  # ragged lists
            arr = np.asarray(None)
        if arr.ndim != ndim or arr.dtype.kind not in ("iu" if name == "states" else "iuf"):
            what = "an integer" if name == "states" else _NDIM_NAMES[ndim]
            errs.append(f"{prefix}{name} must be {what}, got {data[name]!r}")
    return errs


def market_spec_from_json(doc: str | dict[str, Any]) -> MarketSpec:
    """Build a MarketSpec, override included, from JSON (unknown keys rejected)."""
    data = json.loads(doc) if isinstance(doc, str) else dict(doc)
    unknown = set(data) - set(_JSON_NDIM) - {"override"}
    if unknown:
        raise SpecValidationError([f"unknown key: {k}" for k in sorted(unknown)])
    missing = set(_JSON_NDIM) - set(data)
    if missing:
        raise SpecValidationError([f"missing key: {k}" for k in sorted(missing)])
    errs = _shape_violations(data, _JSON_NDIM)
    ov = data.get("override")
    if ov is not None and (not isinstance(ov, dict) or set(ov) != set(_OVERRIDE_NDIM)):
        errs.append(f"override must be an object with keys {sorted(_OVERRIDE_NDIM)}, got {ov!r}")
    elif ov is not None:
        errs += _shape_violations(ov, _OVERRIDE_NDIM, "override.")
    if errs:
        raise SpecValidationError(errs)
    return MarketSpec(
        **{k: data[k] for k in ("r", "alpha", "sigma", "rho")},
        states=int(data["states"]), gamma=float(data["gamma"]), horizon=float(data["horizon"]),
        generator=RegimeGenerator(data["generator"]),
        override=None if ov is None else PiecewiseCoefficients(**ov),
    )


def market_spec_to_json(spec: MarketSpec) -> dict[str, Any]:
    """The JSON document of a spec; the "override" key only when it has one."""
    doc = {k: np.asarray(getattr(spec, k)).tolist() for k in _JSON_NDIM if k != "generator"}
    doc["generator"] = spec.generator.rates.tolist()
    if spec.override is not None:
        doc["override"] = {k: getattr(spec.override, k).tolist() for k in _OVERRIDE_NDIM}
    return doc


def utility(c, prefs: Preferences):
    """CRRA utility: c^gamma/gamma for the power branch, ln c for the log branch.

    c = 0 is allowed only when 0 < gamma < 1 (where U(0) = 0).
    """
    c = np.asarray(c, dtype=float)
    if (c < 0).any():
        raise ValueError("consumption must be nonnegative")
    if prefs.is_log:
        if (c == 0).any():
            raise ValueError("log utility diverges at zero consumption")
        return np.log(c) if c.ndim else float(np.log(c))
    g = prefs.gamma
    if g < 0 and (c == 0).any():
        raise ValueError("negative-power utility diverges at zero consumption")
    out = np.power(c, g) / g
    return out if c.ndim else float(out)


def inverse_marginal_utility(y, prefs: Preferences):
    """Inverse of U': y^(1/(gamma-1)) for power utility, 1/y for log."""
    y = np.asarray(y, dtype=float)
    if (y <= 0).any():
        raise ValueError("marginal utility values must be positive")
    out = 1.0 / y if prefs.is_log else np.power(y, 1.0 / (prefs.gamma - 1.0))
    return out if y.ndim else float(out)
