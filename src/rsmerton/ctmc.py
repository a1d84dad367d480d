"""Continuous-time Markov chain sampling and generator diagnostics.

Paths are sampled Gillespie style: the holding time in state i is
Exponential(-lambda_ii) and the next state is drawn with probability
lambda_ij / (-lambda_ii). Chain noise and diffusion noise elsewhere in the
package come from separately derived substreams of one master seed, so the
chain and the Brownian motion are independent by construction. Every
ensemble derives its generators from its own (seed, stream, substream), so
independent ensembles can run in forked children (ensemble_map) and give the
same bits as a run in this process.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import partial, reduce
from typing import ClassVar

import numpy as np

from rsmerton.core_model import RegimeGenerator, SpecValidationError
from rsmerton import ode_engine
from rsmerton.ode_engine import BLOCK_ELEMENTS, can_fork_worker, interp_by_state
from rsmerton.reporting import MCReport

CHAIN_SUBSTREAM = 0
DIFFUSION_SUBSTREAM = 1
# Work, in path-cells, from which ensemble_map forks. Two children save at most
# half the serial time, so forking pays from twice its fixed cost at the fastest
# walk (2.5e7 path-cells/s): 2^21 covers 21 ms with a 2x margin, and two forks
# cost at most 8 ms. Each job also costs a fixed time before its first
# path-cell (sampling set-up, per-state tables), at most 1.8 ms, counted as 4.5e4
# path-cells, rounded up (README, "Independent ensembles").
POOL_MIN_PATH_CELLS = 2**21
POOL_JOB_PATH_CELLS = 2**16


@dataclass(frozen=True)
class RngSpec:
    """Seedable random source: same (seed, stream) reproduces bits.

    The bit generator is always "pcg64" (numpy's default); the name is
    recorded in every Monte-Carlo report so results stay attributable.
    """

    seed: int
    stream: int = 0
    algorithm: ClassVar[str] = "pcg64"

    def generator(self, substream: int | tuple = CHAIN_SUBSTREAM) -> np.random.Generator:
        """Derived generator; substream may be an int or a tuple of ints.

        Substream 0 is reserved for chain noise and 1 for diffusion noise so
        the two sources are independent by construction.
        """
        key = substream if isinstance(substream, tuple) else (substream,)
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream, *key))
        return np.random.Generator(np.random.PCG64(ss))


def ensemble_map(fn, jobs: list, path_cells: list) -> list:
    """[fn(*job) for job in jobs], in job order, in forked children when the work pays.

    Each job derives its random generators from its own arguments, so both
    paths give the same bits. From POOL_MIN_PATH_CELLS of work, path_cells[k]
    plus POOL_JOB_PATH_CELLS for each job k, the jobs are cut into min(available
    CPUs, jobs) contiguous shares of about equal work, none empty, each run by
    a forked child (ode_engine.Forked) that inherits fn and the jobs. Collected
    in job order, the first share that raises holds the serial loop's error;
    every child is killed and reaped on every exit. The jobs run here below the
    break-even, for one job, or where can_fork_worker says no; a share whose
    fork fails runs here when its turn to be collected comes.
    """

    def run(share):
        return [fn(*job) for job in share]

    work = np.asarray(path_cells) + POOL_JOB_PATH_CELLS
    if len(jobs) < 2 or work.sum() < POOL_MIN_PATH_CELLS or not can_fork_worker():
        return run(jobs)
    n, m = len(jobs), min(len(os.sched_getaffinity(0)), len(jobs))
    done, a, children = np.cumsum(work), 0, []
    try:  # this process runs no share that a child could
        for w in range(1, m + 1):  # a share up to the job whose running work is nearest w / m of it
            b = int(np.abs(done - done[-1] * w / m).argmin()) + 1
            b = min(max(b, a + 1), n - m + w)  # no share empty
            children.append(ode_engine.Forked(partial(run, jobs[a:b])))
            a = b
        return [value for child in children for value in child.result()]
    finally:
        for child in children:
            child.kill()


def _checked(generator: RegimeGenerator) -> RegimeGenerator:
    """The generator, or SpecValidationError listing every one of its violations."""
    if errs := generator.violations():
        raise SpecValidationError(errs)
    return generator


def _transition_tables(generator: RegimeGenerator):
    rates = generator.rates
    hold = generator.holding_rates()
    S = rates.shape[0]
    probs = np.zeros((S, S))
    for i in range(S):
        if hold[i] > 0:
            probs[i] = rates[i] / hold[i]
            probs[i, i] = 0.0
    return hold, np.cumsum(probs, axis=1)


@dataclass(frozen=True)
class JumpSkeletons:
    """Ensemble of chain trajectories as inf-padded (max_jumps, n_paths) arrays."""

    initial_state: int
    t_start: float
    horizon: float
    jump_times: np.ndarray
    states_after: np.ndarray

    @property
    def n_paths(self) -> int:
        return self.jump_times.shape[1]

    @property
    def max_jumps(self) -> int:
        return self.jump_times.shape[0]

    def final_states(self) -> np.ndarray:
        return self.state_at(np.full(self.n_paths, self.horizon))

    def state_at(self, t: np.ndarray) -> np.ndarray:
        """Per-path state at per-path times t (right-continuous)."""
        n = (self.jump_times <= t[None, :]).sum(axis=0)
        out = np.full(self.n_paths, self.initial_state, dtype=np.int64)
        has = n > 0
        cols = np.nonzero(has)[0]
        if cols.size:
            out[cols] = self.states_after[n[cols] - 1, cols]
        return out


def sample_skeletons(
    generator: RegimeGenerator,
    initial: int,
    t_start: float,
    horizon: float,
    n_paths: int,
    rng: RngSpec,
    substream: int | tuple = CHAIN_SUBSTREAM,
) -> JumpSkeletons:
    """Vectorized Gillespie sampling of n_paths trajectories on [t_start, horizon].

    Draw order is fixed (one exponential round, one uniform round per jump
    level across all paths), so results are reproducible per RngSpec. A
    generator with violations() is refused with SpecValidationError, here and
    in stationary_distribution and dynkin_check.
    """
    hold, pcum = _transition_tables(_checked(generator))
    S = pcum.shape[0]
    if not 0 <= initial < S:
        raise IndexError(f"state {initial} outside [0, {S}) of the generator")
    g = rng.generator(substream)
    t = np.full(n_paths, float(t_start))
    s = np.full(n_paths, int(initial), dtype=np.int64)
    jt_rows, st_rows = [], []
    alive = np.ones(n_paths, dtype=bool)
    while alive.any():
        e = g.exponential(1.0, n_paths)
        hr = hold[s]
        dt = np.where(hr > 0, e / np.where(hr > 0, hr, 1.0), np.inf)
        t = t + dt
        alive = t < horizon
        if not alive.any():
            break
        u = g.random(n_paths)
        nxt = np.minimum((u[:, None] > pcum[s]).sum(axis=1), S - 1)
        s = np.where(alive, nxt, s)
        jt_rows.append(np.where(alive, t, np.inf))
        st_rows.append(s.copy())
    if jt_rows:
        jt = np.array(jt_rows)
        st = np.array(st_rows)
    else:
        jt = np.full((0, n_paths), np.inf)
        st = np.full((0, n_paths), int(initial), dtype=np.int64)
    return JumpSkeletons(
        initial_state=int(initial),
        t_start=float(t_start),
        horizon=float(horizon),
        jump_times=jt,
        states_after=st,
    )


@dataclass(frozen=True)
class CellBlock:
    """B consecutive cells of an ensemble walk over a time grid (see cell_blocks).

    Cell k is [edges[k], edges[k+1]]; a jump at an edge belongs to the later
    cell, whose first segment is then empty. Pairs are the (cell, path) pairs
    with a jump inside the cell, ordered by cell, then path. Jumps split pair
    j's cell into segments r = 0, 1, ... from knots[r, j] to knots[r + 1, j]
    in state seg_state[r, j]. Rows past a pair's last jump are empty segments
    at the upper edge, so a sum over the rows in order adds exact zeros.
    """

    start: int  # index of the block's first cell
    entry: np.ndarray  # (B, P) state at each cell's lower edge
    exit: np.ndarray  # (B, P) state at each cell's upper edge
    increments: tuple  # per table, (B, P) rise over each cell, segments summed in order
    pair_cell: np.ndarray  # block-relative cell of each pair
    pair_path: np.ndarray
    knots: np.ndarray  # (R + 1, n_pairs)
    seg_state: np.ndarray  # (R, n_pairs)
    seg_values: tuple  # per table, (R, n_pairs) values at segment starts and ends


def cell_blocks(skel: JumpSkeletons, edges: np.ndarray, tables=()):
    """Walk an ensemble over the cells of a time grid, a block of cells at a time.

    edges must run from skel.t_start to skel.horizon. tables holds (grid,
    table) pairs, each table (n_nodes, S) and read per state as np.interp
    reads it, bit for bit; increments are meaningful for tables cumulative
    in time.
    """
    edges = np.asarray(edges, dtype=float)
    if edges[0] != skel.t_start or edges[-1] != skel.horizon:
        raise ValueError("edges must run from the ensemble's t_start to its horizon")
    n_cells = edges.size - 1
    width = max(1, BLOCK_ELEMENTS // skel.n_paths)
    # Every jump placed in its cell once. Jumps come path by path in time
    # order, so a stable sort by cell orders them by (cell, path, time); the
    # index arrays are narrowed and reordered one at a time to save memory.
    path, level = np.nonzero(np.isfinite(skel.jump_times.T))
    times = skel.jump_times[level, path]
    cell = np.searchsorted(edges, times, side="right").astype(np.int32) - 1
    order = np.argsort(cell, kind="stable")
    cell = cell[order]
    times = times[order]
    path = path[order].astype(np.int32)
    targets = skel.states_after[level[order], path]
    del level, order
    at_edges = [interp_by_state(g, tab, edges[:, None], np.arange(tab.shape[1])) for g, tab in tables]
    per_cell = [np.diff(v, axis=0).ravel() for v in at_edges]  # flat by cell * S + state
    S = tables[0][1].shape[1] if tables else 0  # every table has one column per state
    walked = np.full((1, skel.n_paths), skel.initial_state, dtype=np.int64)
    starts = np.arange(0, n_cells, width)
    for k0, a, b in zip(starts, *np.searchsorted(cell, [starts, np.append(starts[1:], n_cells)])):
        B = min(width, n_cells - k0)
        c, p, tau, target = cell[a:b] - k0, path[a:b], times[a:b], targets[a:b]
        first = np.ones(c.size, dtype=bool)
        first[1:] = (c[1:] != c[:-1]) | (p[1:] != p[:-1])
        last = np.roll(first, -1)  # last jump of its pair
        pair = np.cumsum(first) - 1
        heads = np.flatnonzero(first)
        row = np.arange(c.size) - heads[pair] + 1  # knot row of each jump
        pair_cell, pair_path = c[heads], p[heads]
        # States at the edges: each pair's last target, carried forward.
        walked = np.vstack([walked[-1:], np.empty((B, skel.n_paths), dtype=np.int64)])
        last_p, last_target = p[last], target[last]
        ends = np.searchsorted(c[last], np.arange(B + 1))
        for k in range(B):
            walked[k + 1] = walked[k]
            walked[k + 1, last_p[ends[k]:ends[k + 1]]] = last_target[ends[k]:ends[k + 1]]
        R = int(row.max(initial=0)) + 1
        lower, upper = k0 + pair_cell, k0 + 1 + pair_cell  # edge indices
        knots = np.tile(edges[upper], (R + 1, 1))
        knots[0] = edges[lower]
        knots[row, pair] = tau
        seg_state = np.tile(walked[pair_cell + 1, pair_path], (R, 1))
        seg_state[0] = walked[pair_cell, pair_path]
        seg_state[row, pair] = target
        at_entry = np.arange(k0, k0 + B)[:, None] * S + walked[:-1]
        increments, seg_values = [], []
        for (grid, table), on_edges, rise in zip(tables, at_edges, per_cell):
            # Each jump time is searched once, for the states on both sides of it.
            v_before, v_after = interp_by_state(
                grid, table, tau, np.stack([seg_state[row - 1, pair], target])
            )
            lo = np.tile(on_edges[upper, seg_state[-1]], (R, 1))
            hi = lo.copy()
            lo[0] = on_edges[lower, seg_state[0]]
            lo[row, pair] = v_after
            hi[row - 1, pair] = v_before
            inc = np.take(rise, at_entry)
            inc[pair_cell, pair_path] = reduce(np.add, hi - lo, np.zeros(heads.size))  # rows in order
            increments.append(inc)
            seg_values.append((lo, hi))
        yield CellBlock(
            int(k0), walked[:-1], walked[1:], tuple(increments), pair_cell, pair_path,
            knots, seg_state, tuple(seg_values),
        )


def occupation_times(skel: JumpSkeletons, n_states: int | None = None) -> np.ndarray:
    """Per-state occupation time over [t_start, horizon], shape (n_states, n_paths)."""
    S = n_states or int(max(skel.initial_state, skel.states_after.max(initial=0))) + 1
    P = skel.n_paths
    occ = np.zeros((S, P))
    tprev = np.full(P, skel.t_start)
    sprev = np.full(P, skel.initial_state, dtype=np.int64)
    for k in range(skel.max_jumps):
        tk = np.minimum(skel.jump_times[k], skel.horizon)
        dur = np.maximum(tk - tprev, 0.0)
        np.add.at(occ, (sprev, np.arange(P)), dur)
        hit = skel.jump_times[k] < skel.horizon
        sprev = np.where(hit, skel.states_after[k], sprev)
        tprev = np.maximum(tprev, tk)
    np.add.at(occ, (sprev, np.arange(P)), np.maximum(skel.horizon - tprev, 0.0))
    return occ


def stationary_distribution(generator: RegimeGenerator) -> np.ndarray:
    """Probability vector pi with pi @ rates = 0 (within 1e-10) for an irreducible chain."""
    closed = _closed_classes(_checked(generator))
    S = generator.n_states
    if closed is not None:
        raise ValueError(
            f"generator is reducible: states {sorted(closed)} form an absorbing class"
        )
    A = np.vstack([generator.rates.T, np.ones((1, S))])
    b = np.zeros(S + 1)
    b[-1] = 1.0
    pi, *_ = np.linalg.lstsq(A, b, rcond=None)
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    resid = np.abs(pi @ generator.rates).max()
    if resid > 1e-10:
        raise ValueError(f"stationary solve residual {resid:.3e} exceeds 1e-10")
    return pi


def _closed_classes(generator: RegimeGenerator):
    """Return a proper closed communicating class if one exists, else None."""
    S = generator.n_states
    adj = (generator.rates > 0).astype(np.int8)
    np.fill_diagonal(adj, 1)
    reach = adj.copy()
    for _ in range(S):
        reach = ((reach @ adj) > 0).astype(np.int8) | reach
    reach = reach > 0
    mutual = reach & reach.T
    for i in range(S):
        cls = set(np.nonzero(mutual[i])[0].tolist())
        leaves = any(
            reach[j, k] for j in cls for k in range(S) if k not in cls
        )
        if not leaves and len(cls) < S:
            return cls
    return None


def dynkin_check(
    generator: RegimeGenerator,
    test_fn: np.ndarray,
    horizon: float,
    n_paths: int,
    rng: RngSpec,
    initial: int = 0,
) -> MCReport:
    """Zero-mean test of the chain martingale built from a per-state function G.

    Along each path, M(T) = G(J_T) - G(J_0) - integral of (rates @ G)(J_u) du.
    The sample mean of M(T) is reported against target 0.
    """
    _checked(generator)
    if n_paths < 1000:
        raise ValueError("dynkin_check needs at least 1e3 paths")
    G = np.asarray(test_fn, dtype=float)
    skel = sample_skeletons(generator, initial, 0.0, horizon, n_paths, rng)
    occ = occupation_times(skel, n_states=generator.n_states)
    drift = generator.rates @ G
    comp = (occ * drift[:, None]).sum(axis=0)
    m_T = G[skel.final_states()] - G[initial] - comp
    return MCReport.from_samples(m_T, rng, target=0.0)
