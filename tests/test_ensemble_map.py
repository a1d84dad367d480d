"""Independent ensembles in forked children (ctmc.ensemble_map): same bits, no child left.

The shared fixtures (conftest) force each path: forked forks any work on two
CPUs and records each forked thunk, no_fork fails the test if anything forks,
and a huge POOL_MIN_PATH_CELLS keeps the work in this process. The pooled
tests fork at most two small children on any machine.
"""

import errno
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
from tests.conftest import assert_no_child_left

SERIAL = 2**62


def _pid(k):
    return k, os.getpid()


def _can_fork(k):
    return k, ode_engine.can_fork_worker()


def _raise_at_one(k, exc):
    if k == 1:
        raise exc
    return k


class Unloadable(Exception):
    """Pickles, but its pickle cannot be loaded: __init__ takes two arguments, args holds one."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def _unpicklable():
    e = ValueError("carries a lambda")
    e.hook = lambda: None
    return e


def shares(calls):
    """The jobs of each forked share: ensemble_map forks partial(run, share)."""
    return [fn.args[0] for fn in calls]


@pytest.fixture(scope="module")
def solved():
    spec = benchmark_spec(-1.0)
    return spec, solve_g(spec, n_steps=256)


class TestSameBits:
    def test_picard_estimate(self, solved, forked, monkeypatch):
        spec, sol = solved
        args = (spec, sol.g_table, 400, RngSpec(seed=17, stream=3))
        kwargs = dict(eval_times=np.array([0.5, 1.0, 0.0, 0.75]), quad_cells=32)
        fork = picard_apply(*args, **kwargs)
        assert len(forked) == 2
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        here = picard_apply(*args, **kwargs)
        assert len(forked) == 2
        assert fork.values.tobytes() == here.values.tobytes()
        assert fork.stderr.tobytes() == here.stderr.tobytes()
        assert (fork.values[1] == 1.0).all() and (fork.stderr[1] == 0.0).all()

    def test_mc_value_check_rows(self, solved, forked, monkeypatch):
        spec, sol = solved
        config = ExperimentConfig(market={}, gammas=[-1.0], grid=64, paths=300, seed=5)
        fork = cli._mc_value_check(spec, sol, config)
        assert len(forked) == 2
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        assert cli._mc_value_check(spec, sol, config) == fork

    def test_each_jobs_fixed_cost_counts_toward_the_break_even(self, forked, monkeypatch):
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 3 * ctmc.POOL_JOB_PATH_CELLS)
        out = ensemble_map(_pid, [(k,) for k in range(3)], [0] * 3)
        assert len(forked) == 2
        assert os.getpid() not in {pid for _, pid in out}

    def test_jobs_run_in_workers_in_job_order(self, forked):
        out = ensemble_map(_pid, [(k,) for k in range(5)], [1] * 5)
        assert [k for k, _ in out] == list(range(5))
        assert os.getpid() not in {pid for _, pid in out}  # this process runs no share
        assert shares(forked) == [[(0,), (1,)], [(2,), (3,), (4,)]]

    def test_no_input_is_pickled(self, forked):
        # a closure as fn and a lambda inside each job: neither could be pickled
        offset = 10
        out = ensemble_map(lambda k, f: (f(k) + offset, os.getpid()),
                           [(k, lambda x: x * x) for k in range(3)], [1] * 3)
        assert [v for v, _ in out] == [10, 11, 14]
        assert len(forked) == 2 and os.getpid() not in {pid for _, pid in out}

    def test_a_worker_cannot_fork(self, forked):
        # two CPUs and no other thread in the child too: its mark alone says no
        out = ensemble_map(_can_fork, [(k,) for k in range(2)], [1] * 2)
        assert out == [(0, False), (1, False)]
        assert len(forked) == 2 and ode_engine.can_fork_worker()


class TestNoWorkerLeft:
    def test_after_a_normal_call(self, forked):
        ensemble_map(_pid, [(k,) for k in range(3)], [1] * 3)
        assert len(forked) == 2
        assert_no_child_left()

    @pytest.mark.parametrize("exc", [
        OdeDomainError(0.25, 1, -3.0, "fell below positivity floor", "use at least 9 steps"),
        SpecValidationError(["rho[0] must be positive", "sigma[1] must be positive"]),
        FileNotFoundError(errno.ENOENT, "no such file", "config.json"),
        Unloadable("no table", "t = 0.5"),
        _unpicklable(),
    ], ids=["ode_domain", "spec_validation", "os_error", "unloadable", "unpicklable"])
    def test_a_raising_job_reaches_the_caller_as_serially(self, exc, forked, monkeypatch):
        jobs = [(k, exc) for k in range(4)]
        with pytest.raises(type(exc)) as fork:
            ensemble_map(_raise_at_one, jobs, [1] * 4)
        assert len(forked) == 2
        assert_no_child_left()
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", SERIAL)
        with pytest.raises(type(exc)) as here:
            ensemble_map(_raise_at_one, jobs, [1] * 4)
        assert len(forked) == 2
        assert type(fork.value) is type(here.value)
        assert str(fork.value) == str(here.value)
        assert fork.value.args == here.value.args
        assert vars(fork.value) == vars(here.value)

    @pytest.mark.parametrize("raising", [{3}, {1, 3}, {0, 1, 2, 3}])
    def test_the_first_raising_job_in_job_order_wins(self, forked, raising):
        def job(k):
            if k in raising:
                raise ValueError(f"job {k}")
            return k

        with pytest.raises(ValueError, match=f"^job {min(raising)}$"):
            ensemble_map(job, [(k,) for k in range(4)], [1] * 4)
        assert shares(forked) == [[(0,), (1,)], [(2,), (3,)]]
        assert_no_child_left()


@pytest.fixture
def cut(monkeypatch):
    """cut(path_cells, cpus): the job count of each share, from an in-process fake; no fork."""
    calls = []

    class InProcess:  # a fake of ode_engine.Forked: fn runs here when its result is asked for
        def __init__(self, fn):
            calls.append(fn)
            self.fn = fn

        def result(self):
            return self.fn()

        def kill(self):
            pass

    def cut(path_cells, cpus):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        jobs = [(k,) for k in range(len(path_cells))]
        calls.clear()
        assert ensemble_map(_pid, jobs, path_cells) == [(k, os.getpid()) for k in range(len(jobs))]
        assert sum(shares(calls), []) == jobs
        return [len(share) for share in shares(calls)]

    monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 0)
    monkeypatch.setattr(ode_engine, "Forked", InProcess)
    return cut


class TestWorkerCount:
    @pytest.mark.parametrize("n_jobs, workers", [(5, 5), (64, 64), (100, 64)])
    def test_min_of_cpus_and_jobs(self, cut, n_jobs, workers):
        sizes = cut([1] * n_jobs, 64)
        assert len(sizes) == workers and min(sizes) >= 1 and max(sizes) - min(sizes) <= 1


class TestShares:
    def test_about_equal_work(self, cut):
        J = ctmc.POOL_JOB_PATH_CELLS
        # work 8J, then 7 times J: half of 15J is nearest the first job's 8J
        assert cut([7 * J] + [0] * 7, 2) == [1, 7]
        # the validate verb's Picard call at 1e4 paths: 16 times, 2 states, 128 cells down to 8
        times = np.linspace(0, 1, 17)[:-1]
        picard = [10_000 * max(8, round(128 * (1 - t))) for t in times for _ in range(2)]
        assert cut(picard, 2) == [10, 22]

    def test_no_share_is_empty(self, cut):
        # one job holds nearly all the work, so every target falls in it
        assert cut([100 * ctmc.POOL_JOB_PATH_CELLS, 0, 0], 3) == [1, 1, 1]
        assert cut([0, 0, 100 * ctmc.POOL_JOB_PATH_CELLS], 3) == [1, 1, 1]


class TestSerialFallbacks:
    """Each fallback runs the same jobs here, in order, and leaves no child."""

    JOBS = [(k,) for k in range(3)]
    HERE = [(k, os.getpid()) for k in range(3)]

    def test_below_the_break_even(self, no_fork, monkeypatch):
        # the work is the path-cells plus each job's fixed cost
        monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 10 + 3 * ctmc.POOL_JOB_PATH_CELLS)
        assert ensemble_map(_pid, self.JOBS, [3] * 3) == self.HERE

    def test_one_job(self, no_fork):
        assert ensemble_map(_pid, self.JOBS[:1], [1]) == self.HERE[:1]

    def test_one_cpu(self, no_fork, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE

    def test_second_thread_alive(self, no_fork):
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()

    def test_daemonic_process(self, no_fork, monkeypatch):
        monkeypatch.setattr(multiprocessing, "current_process", lambda: SimpleNamespace(daemon=True))
        assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE

    def test_no_fork_start_method(self, no_fork, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE

    def test_no_sched_getaffinity(self, no_fork, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity")
        assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE

    def test_a_failed_fork(self, second_fork_fails):
        # the first share's child is killed, and every job runs here
        assert ensemble_map(_pid, self.JOBS, [1] * 3) == self.HERE
        assert len(second_fork_fails) == 1
        assert_no_child_left()


class TestExceptionsPickle:
    """A child's exception comes back through pickle with its type, message and fields."""

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
