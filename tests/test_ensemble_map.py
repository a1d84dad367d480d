"""Independent ensembles in forked workers (ctmc.ensemble_map): same bits, no worker left.

Each path is forced by moving the break-even, POOL_MIN_PATH_CELLS: 0 pools
any work, a huge value keeps it in this process. The pooled tests pin the
available CPUs to two, so they fork at most two small workers on any machine.
"""

import concurrent.futures
import multiprocessing
import os
import pickle
import threading
from types import SimpleNamespace

import numpy as np
import pytest

from rsmerton import cli, ctmc, ode_engine
from rsmerton.cli import ExperimentConfig, benchmark_spec
from rsmerton.core_model import SpecValidationError
from rsmerton.ctmc import RngSpec, ensemble_map
from rsmerton.equilibrium import picard_apply, solve_g
from rsmerton.ode_engine import OdeDomainError

SERIAL = 2**62


def _pid(k):
    return k, os.getpid()


def _can_fork(k):
    return k, ode_engine.can_fork_worker()


def _raise_at_one(k, exc):
    if k == 1:
        raise exc
    return k


@pytest.fixture
def pooled(monkeypatch):
    """Pool any work on two workers, and record each pool the helper starts."""
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the platform cannot fork")
    started = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    return started


@pytest.fixture
def no_pool(monkeypatch):
    """Fail the test if the helper starts a pool."""

    class Refused:
        def __init__(self, *args, **kwargs):
            raise AssertionError("a pool was started")

    monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Refused)


@pytest.fixture(scope="module")
def solved():
    spec = benchmark_spec(-1.0)
    return spec, solve_g(spec, n_steps=256)


class TestSameBits:
    def test_picard_estimate(self, solved, pooled, monkeypatch):
        spec, sol = solved
        args = (spec, sol.g_table, 400, RngSpec(seed=17, stream=3))
        kwargs = dict(eval_times=np.array([0.5, 1.0, 0.0, 0.75]), quad_cells=32)
        fork = picard_apply(*args, **kwargs)
        assert pooled == [2]
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        here = picard_apply(*args, **kwargs)
        assert pooled == [2]
        assert fork.values.tobytes() == here.values.tobytes()
        assert fork.stderr.tobytes() == here.stderr.tobytes()
        assert (fork.values[1] == 1.0).all() and (fork.stderr[1] == 0.0).all()

    def test_mc_value_check_rows(self, solved, pooled, monkeypatch):
        spec, sol = solved
        config = ExperimentConfig(market={}, gammas=[-1.0], grid=64, paths=300, seed=5)
        fork = cli._mc_value_check(spec, sol, config)
        assert pooled == [2]
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        assert cli._mc_value_check(spec, sol, config) == fork

    def test_each_jobs_fixed_cost_counts_toward_the_break_even(self, pooled, monkeypatch):
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 3 * ctmc.POOL_JOB_PATH_CELLS)
        out = ensemble_map(_pid, [(k,) for k in range(3)], 0)
        assert pooled == [2]
        assert os.getpid() not in {pid for _, pid in out}

    def test_jobs_run_in_workers_in_job_order(self, pooled):
        out = ensemble_map(_pid, [(k,) for k in range(5)], 1)
        assert [k for k, _ in out] == list(range(5))
        assert os.getpid() not in {pid for _, pid in out}

    def test_a_worker_cannot_fork(self, pooled):
        # two CPUs and no other thread in the worker too: its mark alone says no
        assert ensemble_map(_can_fork, [(k,) for k in range(2)], 1) == [(0, False), (1, False)]
        assert pooled == [2] and ode_engine.can_fork_worker()


class TestNoWorkerLeft:
    def test_after_a_normal_call(self, pooled):
        ensemble_map(_pid, [(k,) for k in range(3)], 1)
        assert pooled == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("exc", [
        OdeDomainError(0.25, 1, -3.0, "fell below positivity floor", "use at least 9 steps"),
        SpecValidationError(["rho[0] must be positive", "sigma[1] must be positive"]),
    ], ids=["ode_domain", "spec_validation"])
    def test_a_raising_job_reaches_the_caller_as_serially(self, exc, pooled, monkeypatch):
        jobs = [(k, exc) for k in range(4)]
        with pytest.raises(type(exc)) as fork:
            ensemble_map(_raise_at_one, jobs, 1)
        assert pooled == [2]
        assert multiprocessing.active_children() == []
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        with pytest.raises(type(exc)) as here:
            ensemble_map(_raise_at_one, jobs, 1)
        assert pooled == [2]
        assert type(fork.value) is type(here.value)
        assert str(fork.value) == str(here.value)
        assert fork.value.args == here.value.args
        assert vars(fork.value) == vars(here.value)


class TestWorkerCount:
    """A fake executor records the count it is asked for; no process is started."""

    @pytest.fixture
    def asked(self, monkeypatch):
        asked = []

        class Fake:
            def __init__(self, max_workers, **kwargs):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables, chunksize):
                assert chunksize == 1
                return map(fn, *iterables)

            def shutdown(self, wait=True, *, cancel_futures=False):
                pass

        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Fake)
        return asked

    @pytest.mark.parametrize("n_jobs, workers", [(5, 5), (64, 64), (100, 64)])
    def test_min_of_cpus_and_jobs(self, asked, n_jobs, workers):
        assert ensemble_map(_pid, [(k,) for k in range(n_jobs)], 1) == [
            (k, os.getpid()) for k in range(n_jobs)]
        assert asked == [workers]


class TestSerialFallbacks:
    """Each fallback runs the same jobs here, in order, and starts no pool."""

    JOBS = [(k,) for k in range(3)]
    HERE = [(k, os.getpid()) for k in range(3)]

    def test_below_the_break_even(self, no_pool, monkeypatch):
        # the work is the path-cells plus each job's fixed cost
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 10 + 3 * ctmc.POOL_JOB_PATH_CELLS)
        assert ensemble_map(_pid, self.JOBS, 9) == self.HERE

    def test_one_job(self, no_pool):
        assert ensemble_map(_pid, self.JOBS[:1], 1) == self.HERE[:1]

    def test_one_cpu(self, no_pool, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ensemble_map(_pid, self.JOBS, 1) == self.HERE

    def test_second_thread_alive(self, no_pool):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert ensemble_map(_pid, self.JOBS, 1) == self.HERE
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_daemonic_process(self, no_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
        assert ensemble_map(_pid, self.JOBS, 1) == self.HERE

    def test_no_fork_start_method(self, no_pool, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert ensemble_map(_pid, self.JOBS, 1) == self.HERE

    def test_no_sched_getaffinity(self, no_pool, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ensemble_map(_pid, self.JOBS, 1) == self.HERE


class TestExceptionsPickle:
    """A worker's exception comes back through pickle with its type, message and fields."""

    def test_ode_domain_error(self):
        e = OdeDomainError(0.125, 3, 1e-13, "fell below positivity floor", "use at least 9 steps")
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is OdeDomainError
        assert str(back) == str(e)
        assert (back.t, back.component, back.value, back.reason, back.note) == (
            0.125, 3, 1e-13, "fell below positivity floor", "use at least 9 steps")

    def test_ode_domain_error_without_note(self):
        e = OdeDomainError(0.5, 0, float("nan"), "non-finite state")
        back = pickle.loads(pickle.dumps(e))
        assert str(back) == str(e) and back.note == ""

    def test_spec_validation_error(self):
        e = SpecValidationError(["a", "b"])
        back = pickle.loads(pickle.dumps(e))
        assert type(back) is SpecValidationError
        assert str(back) == "a; b"
        assert back.violations == ["a", "b"]
