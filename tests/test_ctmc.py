import numpy as np
import pytest
from scipy.linalg import expm

from rsmerton import ctmc
from rsmerton.core_model import RegimeGenerator
from rsmerton.ctmc import (
    JumpSkeletons,
    RngSpec,
    cell_blocks,
    dynkin_check,
    occupation_times,
    sample_skeletons,
    stationary_distribution,
)

BENCH = RegimeGenerator([[-6.04, 6.04], [10.9, -10.9]])


class TestJumpPath:
    """Single chain trajectories, as columns of a JumpSkeletons ensemble."""

    def test_state_at_is_right_continuous(self):
        p = _hand_built([[0.4, 0.7]], [[1, 0]])
        at = lambda t: int(p.state_at(np.array([t]))[0])
        assert at(0.0) == 0
        assert at(0.4) == 1  # state after the jump, at the jump time
        assert at(0.69) == 1
        assert at(0.7) == 0

    def test_invariants_enforced(self):
        # Sampled paths: jump times strictly increasing inside (t_start,
        # horizon), inf padding after the last jump, and no self-jumps.
        gen = RegimeGenerator([[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [1.0, 2.0, -3.0]])
        for g, initial in ((BENCH, 0), (gen, 2)):
            skel = sample_skeletons(g, initial, 0.25, 1.0, 2000, RngSpec(seed=14))
            jt = skel.jump_times
            live = np.isfinite(jt)
            assert (jt[live] > 0.25).all() and (jt[live] < 1.0).all()
            assert (live[:-1] >= live[1:]).all()  # no finite time after inf padding
            assert (jt[1:][live[1:]] > jt[:-1][live[1:]]).all()
            before = np.vstack([np.full((1, skel.n_paths), initial), skel.states_after[:-1]])
            assert (skel.states_after[live] != before[live]).all()


class TestSamplePath:
    def test_zero_generator_never_jumps(self):
        gen = RegimeGenerator([[0.0, 0.0], [0.0, 0.0]])
        skel = sample_skeletons(gen, 1, 0.0, 5.0, 10, RngSpec(seed=3))
        assert skel.max_jumps == 0
        assert (skel.state_at(np.full(10, 4.99)) == 1).all()

    def test_absorbing_row_stops_jumping(self):
        gen = RegimeGenerator([[-2.0, 2.0], [0.0, 0.0]])
        skel = sample_skeletons(gen, 0, 0.0, 50.0, 10, RngSpec(seed=4))
        assert skel.max_jumps == 1
        assert (skel.states_after[0] == 1).all()

    def test_reproducible_per_rng_spec(self):
        a = sample_skeletons(BENCH, 0, 0.0, 1.0, 50, RngSpec(seed=11, stream=2))
        b = sample_skeletons(BENCH, 0, 0.0, 1.0, 50, RngSpec(seed=11, stream=2))
        c = sample_skeletons(BENCH, 0, 0.0, 1.0, 50, RngSpec(seed=11, stream=3))
        np.testing.assert_array_equal(a.jump_times, b.jump_times)
        np.testing.assert_array_equal(a.states_after, b.states_after)
        assert not np.array_equal(a.jump_times[0], c.jump_times[0])

    def test_holding_time_law(self):
        # First holding time in state 0 is Exponential(6.04); use a horizon
        # long enough that truncation is below the Monte-Carlo resolution.
        skel = sample_skeletons(BENCH, 0, 0.0, 5.0, 100_000, RngSpec(seed=5))
        first = skel.jump_times[0]
        first = first[np.isfinite(first)]
        mean = first.mean()
        se = first.std(ddof=1) / np.sqrt(first.size)
        assert abs(mean - 1 / 6.04) <= 3 * se


class TestEnsembleMachinery:
    def test_skeleton_states_alternate_for_two_states(self):
        skel = sample_skeletons(BENCH, 0, 0.0, 1.0, 500, RngSpec(seed=6))
        alive = skel.jump_times[0] < 1.0
        assert (skel.states_after[0][alive] == 1).all()

    def test_cell_blocks_reconstruct_occupation_times(self, monkeypatch):
        # One cumulative table per state: column s grows at rate 1 in state s
        # only, so the kernel's increments are per-cell occupation times.
        skel = sample_skeletons(BENCH, 0, 0.0, 1.0, 400, RngSpec(seed=7))
        edges = np.linspace(0.0, 1.0, 33)
        grid = np.array([0.0, 1.0])
        tables = [(grid, np.outer(grid, np.eye(2)[s])) for s in range(2)]
        ref = occupation_times(skel, n_states=2)
        for block_elements in (400 * 3, ctmc.BLOCK_ELEMENTS):  # 11 blocks, then one
            monkeypatch.setattr(ctmc, "BLOCK_ELEMENTS", block_elements)
            occ = np.zeros((2, 400))
            cells = 0
            for blk in cell_blocks(skel, edges, tables):
                assert blk.start == cells
                cells += blk.entry.shape[0]
                occ += np.array([blk.increments[s].sum(axis=0) for s in range(2)])
            assert cells == 32
            np.testing.assert_allclose(occ, ref, rtol=0, atol=1e-12)

    def test_final_states_match_marginal_law(self):
        # Ensemble marginal at several times vs the matrix-exponential law.
        T = 1.0
        n = 100_000
        skel = sample_skeletons(BENCH, 0, 0.0, T, n, RngSpec(seed=8))
        for t in (T / 4, T / 2, T):
            states = skel.state_at(np.full(n, t))
            p_hat = states.mean()
            p_ref = expm(BENCH.rates * t)[0, 1]
            se = np.sqrt(p_ref * (1 - p_ref) / n)
            assert abs(p_hat - p_ref) <= 3 * se


def segments(blk, j=0):
    """(lo, hi, state) of each segment row of pair j."""
    k, st = blk.knots[:, j].tolist(), blk.seg_state[:, j].tolist()
    return list(zip(k[:-1], k[1:], st))


def _hand_built(jump_times, states_after, initial=0):
    """Two-state ensemble from per-path jump lists, inf-padded."""
    width = max(len(t) for t in jump_times)
    jt = np.full((width, len(jump_times)), np.inf)
    st = np.full((width, len(jump_times)), initial, dtype=np.int64)
    for p, (times, states) in enumerate(zip(jump_times, states_after)):
        jt[: len(times), p] = times
        st[: len(states), p] = states
    return JumpSkeletons(initial, 0.0, 1.0, jt, st)


class TestCellBlocks:
    """Hand-built ensembles on four cells of width 0.25, one block."""

    EDGES = np.linspace(0.0, 1.0, 5)
    CLOCK = (np.array([0.0, 1.0]), np.array([[0.0, 0.0], [1.0, 1.0]]))  # dt in any state

    def walk(self, skel):
        (blk,) = cell_blocks(skel, self.EDGES, [self.CLOCK])
        return blk

    def test_jump_on_an_edge_belongs_to_the_later_cell(self):
        blk = self.walk(_hand_built([[0.5]], [[1]]))
        np.testing.assert_array_equal(blk.entry[:, 0], [0, 0, 0, 1])
        np.testing.assert_array_equal(blk.exit[:, 0], [0, 0, 1, 1])
        assert blk.pair_cell.tolist() == [2] and blk.pair_path.tolist() == [0]
        assert segments(blk) == [(0.5, 0.5, 0), (0.5, 0.75, 1)]  # empty first segment
        np.testing.assert_array_equal(blk.increments[0][:, 0], np.full(4, 0.25))

    def test_two_jumps_in_one_cell(self):
        blk = self.walk(_hand_built([[0.3, 0.4]], [[1, 0]]))
        np.testing.assert_array_equal(blk.entry[:, 0], [0, 0, 0, 0])
        assert blk.pair_cell.tolist() == [1]
        assert segments(blk) == [(0.25, 0.3, 0), (0.3, 0.4, 1), (0.4, 0.5, 0)]
        at_lo, at_hi = blk.seg_values[0]
        np.testing.assert_array_equal(at_lo, blk.knots[:-1])
        np.testing.assert_array_equal(at_hi, blk.knots[1:])
        assert blk.increments[0][1, 0] == (0.3 - 0.25) + (0.4 - 0.3) + (0.5 - 0.4)

    def test_path_without_jumps(self):
        skel = _hand_built([[0.3, 0.4], []], [[1, 0], []])
        blk = self.walk(skel)
        np.testing.assert_array_equal(blk.entry[:, 1], [0, 0, 0, 0])
        np.testing.assert_array_equal(blk.exit[:, 1], [0, 0, 0, 0])
        assert 1 not in blk.pair_path.tolist()
        np.testing.assert_array_equal(blk.increments[0][:, 1], np.full(4, 0.25))

    def test_shorter_pairs_are_padded_with_empty_segments(self):
        blk = self.walk(_hand_built([[0.3, 0.4], [0.35]], [[1, 0], [1]]))
        assert blk.pair_path.tolist() == [0, 1]
        assert segments(blk, 1) == [(0.25, 0.35, 0), (0.35, 0.5, 1), (0.5, 0.5, 1)]
        at_lo, at_hi = blk.seg_values[0]
        assert at_lo[2, 1] == at_hi[2, 1] == 0.5
        np.testing.assert_array_equal(blk.increments[0][1], [0.25, 0.25])

    def test_ensemble_without_jumps_has_no_pairs(self):
        (blk,) = cell_blocks(_hand_built([[], []], [[], []]), self.EDGES)
        assert blk.pair_cell.size == 0 and blk.seg_values == ()
        assert (blk.entry == 0).all() and (blk.exit == 0).all()

    def test_edges_must_span_the_ensemble(self):
        with pytest.raises(ValueError, match="t_start to its horizon"):
            next(cell_blocks(_hand_built([[]], [[]]), np.linspace(0.0, 0.5, 3)))


class TestStationaryDistribution:
    def test_symmetric(self):
        pi = stationary_distribution(RegimeGenerator([[-1.0, 1.0], [1.0, -1.0]]))
        np.testing.assert_allclose(pi, [0.5, 0.5], atol=1e-12)

    def test_two_one(self):
        # pi is proportional to (rate into 0, rate into 1) = (1, 2)
        pi = stationary_distribution(RegimeGenerator([[-2.0, 2.0], [1.0, -1.0]]))
        np.testing.assert_allclose(pi, [1 / 3, 2 / 3], atol=1e-12)
        assert np.abs(pi @ np.array([[-2.0, 2.0], [1.0, -1.0]])).max() < 1e-10

    def test_benchmark_generator(self):
        pi = stationary_distribution(BENCH)
        np.testing.assert_allclose(pi, np.array([10.9, 6.04]) / 16.94, atol=1e-10)

    def test_three_state(self):
        gen = RegimeGenerator(
            [[-3.0, 2.0, 1.0], [0.5, -1.5, 1.0], [1.0, 2.0, -3.0]]
        )
        pi = stationary_distribution(gen)
        assert pi.sum() == pytest.approx(1.0)
        assert np.abs(pi @ gen.rates).max() < 1e-10

    def test_reducible_names_absorbing_class(self):
        with pytest.raises(ValueError, match=r"\[1\].*absorbing"):
            stationary_distribution(RegimeGenerator([[-1.0, 1.0], [0.0, 0.0]]))


class TestDynkinCheck:
    def test_zero_generator_is_exactly_zero(self):
        gen = RegimeGenerator([[0.0, 0.0], [0.0, 0.0]])
        rep = dynkin_check(gen, np.array([0.0, 1.0]), 1.0, 2000, RngSpec(seed=9))
        assert rep.estimate == 0.0
        assert rep.stderr == 0.0
        assert rep.z_score == 0.0

    def test_two_state_zero_mean(self):
        rep = dynkin_check(BENCH, np.array([0.0, 1.0]), 1.0, 100_000, RngSpec(seed=10))
        assert abs(rep.z_score) < 3.0

    def test_nonindicator_test_function(self):
        rep = dynkin_check(
            BENCH, np.array([2.0, -0.7]), 1.0, 50_000, RngSpec(seed=12), initial=1
        )
        assert abs(rep.z_score) < 3.0

    def test_needs_enough_paths(self):
        with pytest.raises(ValueError, match="1e3"):
            dynkin_check(BENCH, np.array([0.0, 1.0]), 1.0, 500, RngSpec(seed=1))

    @pytest.mark.parametrize("initial", [-1, 2])
    def test_state_outside_generator_refused(self, initial):
        with pytest.raises(IndexError, match=rf"state {initial} outside \[0, 2\)"):
            dynkin_check(BENCH, np.array([0.0, 1.0]), 1.0, 2000, RngSpec(seed=13), initial=initial)
        with pytest.raises(IndexError, match=f"state {initial}"):
            sample_skeletons(BENCH, initial, 0.0, 1.0, 10, RngSpec(seed=13))

    def test_algorithm_is_fixed(self):
        assert RngSpec(seed=1).algorithm == "pcg64"
        with pytest.raises(TypeError):
            RngSpec(1, 0, "mt19937")

    def test_report_metadata(self):
        rep = dynkin_check(BENCH, np.array([0.0, 1.0]), 1.0, 2000, RngSpec(seed=13, stream=4))
        assert rep.algorithm == "pcg64"
        assert rep.seed == 13
        assert rep.stream == 4
        assert rep.n_paths == 2000
