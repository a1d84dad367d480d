"""Step halving with each round's sweeps at once (ode_engine.step_halving): the serial loop's bits and errors.

The shared fixtures (conftest) force each path: forked moves the break-even,
HALVING_MIN_STEPS, to 16, pins the available CPUs to two and records each
forked call, no_fork fails the test if anything forks, and a huge break-even
keeps every sweep in this process.
"""

import importlib.util
import json
import multiprocessing
import os
import signal
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rsmerton import equilibrium, ode_engine
from rsmerton.cli import benchmark_spec
from rsmerton.core_model import market_spec_from_json
from rsmerton.equilibrium import solve_g
from rsmerton.ode_engine import (
    OdeConvergenceError,
    OdeDomainError,
    OdeSystem,
    SolutionTable,
    can_fork_worker,
    rk4_solve,
    step_halving,
)
from tests.conftest import assert_no_child_left

SERIAL = 2**62


def _workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def levels(calls):
    """The grid each forked child sweeps: step_halving forks partial(sweep, level)."""
    return [fn.args[0] for fn in calls]


def serially(monkeypatch, fn):
    with monkeypatch.context() as m:
        m.setattr(ode_engine, "HALVING_MIN_STEPS", SERIAL)
        return fn()


def same_table(a: SolutionTable, b: SolutionTable) -> bool:
    return a.grid.tobytes() == b.grid.tobytes() and a.values.tobytes() == b.values.tobytes()


class FakeSweep:
    """sweep(n): a constant table of 1/n, so the round (n, 2n) errs by 1/(2n).

    A level in `fail` raises an OdeDomainError naming it; `swept` lists the
    levels this process swept, in order (a forked child's record stays there).
    """

    def __init__(self, fail=()):
        self.fail, self.swept = set(fail), []

    def __call__(self, n):
        self.swept.append(n)
        if n in self.fail:
            raise OdeDomainError(0.5, n, -1.0, "state fell below positivity floor", f"level {n}")
        return SolutionTable(np.linspace(0.0, 1.0, n + 1), np.full((n + 1, 1), 1.0 / n))


def outcome(fn):
    """fn()'s table, or its exception as (type, message, fields); repr, as a field may be NaN."""
    try:
        return fn()
    except (OdeDomainError, OdeConvergenceError) as e:
        return type(e), str(e), repr(vars(e))


class TestSameBits:
    def test_benchmark_at_gamma_minus_one(self, forked, monkeypatch):
        spec = benchmark_spec(-1.0)
        newton = solve_g(spec).table  # S = 2: Newton's sweep, which is never forked
        assert levels(forked) == [] and newton.grid.size == 4097
        assert newton.stats["legs"][0]["sweep"] == "newton"
        monkeypatch.setattr(equilibrium, "NEWTON_MAX_STATES", 0)  # the stage loop
        fork = solve_g(spec).table
        assert levels(forked) == [4096]
        here = serially(monkeypatch, lambda: solve_g(spec).table)
        assert levels(forked) == [4096]
        assert fork.grid.size == 4097 and same_table(fork, here)
        assert_no_child_left()

    def test_fast_32_regime_market(self, forked, monkeypatch):
        doc = _workloads().regime_market(20260811, 1400.0)
        spec = market_spec_from_json(json.dumps(doc))
        fork = solve_g(spec).table
        # 2048 here beside 4096 forked, then 8192 here beside 16384 forked
        assert levels(forked) == [4096, 16384]
        here = serially(monkeypatch, lambda: solve_g(spec).table)
        assert fork.grid.size == 16385 and same_table(fork, here)
        assert_no_child_left()

    def test_cancelled_speculation(self, forked, monkeypatch):
        sweep = FakeSweep()
        fork = step_halving(sweep, 16, tol=0.02)  # (16, 32) errs by 1/32, (32, 64) by 1/64
        assert levels(forked) == [32, 128] and sweep.swept == [16, 64]
        assert_no_child_left()
        here = serially(monkeypatch, lambda: step_halving(FakeSweep(), 16, tol=0.02))
        assert fork.grid.size == 65 and same_table(fork, here)


    def test_a_killed_childs_level_is_swept_here(self, forked, monkeypatch):
        fake = FakeSweep()

        def sweep(n):
            if ode_engine._in_worker:  # the forked child dies before it writes
                os.kill(os.getpid(), signal.SIGKILL)
            return fake(n)

        fork = step_halving(sweep, 16, tol=0.02)
        assert levels(forked) == [32, 128] and fake.swept == [16, 32, 64]
        assert_no_child_left()
        here = serially(monkeypatch, lambda: step_halving(FakeSweep(), 16, tol=0.02))
        assert same_table(fork, here)

    def test_a_failed_fork(self, second_fork_fails, monkeypatch):
        # the child at 32 forks, then no fork can be had: 64 and 128 are swept here
        sweep = FakeSweep()
        fork = step_halving(sweep, 16, tol=0.01)
        assert levels(second_fork_fails) == [32] and sweep.swept == [16, 64, 128]
        assert_no_child_left()
        here = serially(monkeypatch, lambda: step_halving(FakeSweep(), 16, tol=0.01))
        assert fork.grid.size == 129 and same_table(fork, here)


class TestSameErrors:
    @pytest.mark.parametrize("fail, expected_level", [
        ({16, 32}, 16),  # both sweeps of the first round fail: the coarse one's error
        ({16}, 16),
        ({32}, 32),  # the fine sweep alone fails, in the child
        ({64, 128}, 64),  # this process's sweep fails beside a speculative child's
        ({128}, 128),  # a speculative child's failure, at a level the serial loop reaches
    ])
    def test_domain_error_is_the_serial_loops(self, forked, monkeypatch, fail, expected_level):
        fork = outcome(lambda: step_halving(FakeSweep(fail), 16, tol=1e-3))
        here = serially(monkeypatch, lambda: outcome(lambda: step_halving(FakeSweep(fail), 16,
                                                                           tol=1e-3)))
        assert fork == here and f"'component': {expected_level}," in fork[2]
        assert_no_child_left()

    def test_speculative_failure_unreached_is_not_raised(self, forked):
        # (32, 64) passes, so the serial loop never sweeps 128
        table = step_halving(FakeSweep({128}), 16, tol=0.02)
        assert levels(forked) == [32, 128] and table.grid.size == 65
        assert_no_child_left()

    def test_rk4_domain_errors_in_the_coarse_and_the_fine_sweep(self, forked, monkeypatch):
        def system(bad_time):
            return OdeSystem(dimension=1, terminal_values=np.array([1.0]), horizon=1.0,
                             rhs=lambda t, y: np.array([np.nan]) if t == bad_time else -y)

        # 31/32 is a stage time of both grids, 63/64 of the 32-step grid alone
        for bad_time, steps in ((31 / 32, 16), (63 / 64, 32)):
            with pytest.raises(OdeDomainError) as serial_error:
                rk4_solve(system(bad_time), steps)
            fork = outcome(lambda: step_halving(lambda n: rk4_solve(system(bad_time), n), 16))
            here = serially(monkeypatch, lambda: outcome(
                lambda: step_halving(lambda n: rk4_solve(system(bad_time), n), 16)))
            assert fork == here
            assert fork[1] == str(serial_error.value)
        assert levels(forked) == [32, 32]
        assert_no_child_left()

    def test_convergence_message_at_the_cap(self, forked, monkeypatch):
        fork = outcome(lambda: step_halving(FakeSweep(), 16, tol=1e-6, max_steps=128))
        here = serially(monkeypatch, lambda: outcome(
            lambda: step_halving(FakeSweep(), 16, tol=1e-6, max_steps=128)))
        assert fork == here
        assert fork[1] == "step-halving error 7.812e-03 > 1.0e-06 at cap 128 steps"
        assert max(levels(forked)) <= 128  # no level beyond the cap is swept
        assert_no_child_left()

    def test_rk4_convergence_message_at_the_cap(self, forked, monkeypatch):
        system = OdeSystem(dimension=1, rhs=lambda t, y: 0.3 * y - 1.0,
                           terminal_values=np.array([1.0]), horizon=1.0)
        fork = outcome(lambda: ode_engine.solve_terminal_ode(system, 16, tol=0.0, max_steps=64))
        here = serially(monkeypatch, lambda: outcome(
            lambda: ode_engine.solve_terminal_ode(system, 16, tol=0.0, max_steps=64)))
        assert fork == here and fork[0] is OdeConvergenceError
        assert levels(forked) == [32]  # 128 is beyond the cap, so 64 is swept here alone
        assert_no_child_left()


class TestSerialFallbacks:
    """Each fallback sweeps n, 2n, 4n, ... here, in order, and forks nothing."""

    def sweeps_in_order(self):
        sweep = FakeSweep()
        assert step_halving(sweep, 16, tol=0.01).grid.size == 129
        assert sweep.swept == [16, 32, 64, 128]

    def test_below_the_break_even(self, no_fork, monkeypatch):
        monkeypatch.setattr(ode_engine, "HALVING_MIN_STEPS", 129)  # above every sweep here
        self.sweeps_in_order()

    def test_second_thread_alive(self, no_fork):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            self.sweeps_in_order()
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_inside_a_daemonic_worker(self, no_fork, monkeypatch):
        monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
        self.sweeps_in_order()

    def test_inside_a_forked_sweep(self, no_fork, monkeypatch):
        monkeypatch.setattr(ode_engine, "_in_worker", True)
        self.sweeps_in_order()

    def test_one_cpu(self, no_fork, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        self.sweeps_in_order()

    def test_a_forked_child_cannot_fork(self, forked):
        def sweep(n):  # 1.0 where a worker may be forked, 0.0 where not
            return SolutionTable(np.linspace(0.0, 1.0, n + 1),
                                 np.full((n + 1, 1), float(can_fork_worker())))

        table = step_halving(sweep, 16, tol=np.inf)
        assert levels(forked) == [32] and (table.values == 0.0).all()
        assert can_fork_worker()
        assert_no_child_left()
