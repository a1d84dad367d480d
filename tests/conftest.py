import errno
import multiprocessing
import os

import numpy as np
import pytest

from rsmerton import ctmc, ode_engine
from rsmerton.core_model import MarketSpec, RegimeGenerator

BENCH_GENERATOR = [[-6.04, 6.04], [10.9, -10.9]]


def make_spec(
    gamma=-1.0,
    rho=(0.9, 0.3),
    r=0.05,
    mu=0.15,
    sigma=0.25,
    horizon=1.0,
    generator=None,
    states=2,
):
    """Two-regime (or wider) spec with scalar-broadcast coefficients."""
    gen = RegimeGenerator(BENCH_GENERATOR if generator is None else generator)
    states = gen.n_states
    as_vec = lambda v: list(np.broadcast_to(np.asarray(v, dtype=float), (states,)))
    return MarketSpec(
        states=states,
        r=as_vec(r),
        alpha=as_vec(np.asarray(mu) + np.asarray(r)),
        sigma=as_vec(sigma),
        generator=gen,
        rho=as_vec(rho),
        gamma=gamma,
        horizon=horizon,
    )


@pytest.fixture
def bench_spec():
    """The bundled two-regime benchmark at gamma = -1."""
    return make_spec()


@pytest.fixture
def const_rho_spec():
    """Same market with a common discount rate (subgame and optimal coincide)."""
    return make_spec(rho=(0.9, 0.9))


def assert_no_child_left():
    """No child of this process is left, reaped or not; a raw os.fork child counts too."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _fork_anything(monkeypatch, forked_class):
    """Both fork sites fork whatever their work, on two available CPUs, through forked_class."""
    monkeypatch.setattr(ctmc, "POOL_MIN_PATH_CELLS", 0)
    monkeypatch.setattr(ode_engine, "HALVING_MIN_STEPS", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(ode_engine, "Forked", forked_class)


@pytest.fixture
def forked(monkeypatch):
    """Fork any work on two CPUs; the list of the thunks the children run, in fork order.

    step_halving forks partial(sweep, level), ensemble_map partial(run, share).
    """
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("the platform cannot fork")
    calls = []

    class Recording(ode_engine.Forked):
        def __init__(self, fn):
            calls.append(fn)
            super().__init__(fn)

    _fork_anything(monkeypatch, Recording)
    return calls


@pytest.fixture
def no_fork(monkeypatch):
    """As forked would, but fail the test if anything forks."""

    class Refused:
        def __init__(self, fn):
            raise AssertionError("a call was forked")

    _fork_anything(monkeypatch, Refused)


@pytest.fixture
def second_fork_fails(forked, monkeypatch):
    """forked, but every os.fork after the first fails as a full process table makes it fail.

    A thunk whose fork failed has no child to run it, so it leaves the list.
    """
    fork = os.fork

    def first_only():
        if len(forked) > 1:
            forked.pop()
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return fork()

    monkeypatch.setattr(os, "fork", first_only)
    return forked


@pytest.fixture
def no_pipe(forked, monkeypatch):
    """forked, but os.pipe fails as it does in a process out of file descriptors."""

    def emfile():
        raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))

    monkeypatch.setattr(os, "pipe", emfile)
    return forked
