"""Equilibrium investment-consumption policies in a regime-switching market.

The market (riskless rate, stock drift and volatility) and the investor's
discount rate are driven by a finite-state continuous-time Markov chain.
The package solves the coupled terminal-value ODE systems that characterize
the feedback policies for CRRA utility, exposes the closed-form single-regime
benchmark, and ships Monte-Carlo / Feynman-Kac machinery to validate every
piece against independent oracles.

Layout
------
core_model   problem data (market coefficients, generator, preferences)
ctmc         chain sampling, stationary distribution, martingale diagnostics
ode_engine   deterministic backward RK4 integrator with dense output
equilibrium  the g- and (h,l)-systems, value ansatz, closed forms, Picard oracle
simulate     policies as strategies, wealth simulation, utility functionals, slope certificates
cli          batch front end (solve / validate / fig1 / slope-cert)
"""

from rsmerton.core_model import (
    MarketSpec,
    Preferences,
    RegimeGenerator,
    SpecValidationError,
    market_spec_from_json,
)
from rsmerton.equilibrium import solve_g, solve_log

__all__ = [
    "MarketSpec",
    "Preferences",
    "RegimeGenerator",
    "SpecValidationError",
    "market_spec_from_json",
    "solve_g",
    "solve_log",
]

__version__ = "0.1.0"
