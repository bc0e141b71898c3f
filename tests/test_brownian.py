"""Matrix Brownian sampling: determinism, key checks, moments, refinement."""

import sys
import threading

import numpy as np
import pytest

from matrixdiff import brownian
from matrixdiff.brownian import (
    BrownianPath,
    TimeGrid,
    coarsen_path,
    sample_path,
)
from reference import path_generator


class TestTimeGrid:
    def test_basic(self):
        grid = TimeGrid(horizon=2.0, steps=4)
        assert grid.dt == 0.5
        np.testing.assert_allclose(grid.times, [0.0, 0.5, 1.0, 1.5, 2.0])

    def test_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(horizon=0.0, steps=4)
        with pytest.raises(ValueError):
            TimeGrid(horizon=1.0, steps=0)
        for horizon in (float("inf"), float("nan"), True, np.True_):
            with pytest.raises(ValueError, match="positive and finite"):
                TimeGrid(horizon=horizon, steps=4)

    def test_value_equality(self):
        assert TimeGrid(1.0, 8) == TimeGrid(1.0, 8)
        assert TimeGrid(1.0, 8) != TimeGrid(1.0, 16)

    @pytest.mark.parametrize("steps", [2.5, True, np.True_, np.float64(2.0), "2", None, 0, -1])
    def test_steps_must_be_an_integer_of_at_least_one(self, steps):
        with pytest.raises(ValueError, match="^steps must be a positive integer$"):
            TimeGrid(1.0, steps)

    def test_numpy_integer_steps_are_taken_as_int(self):
        grid = TimeGrid(1.0, np.int64(4))
        assert type(grid.steps) is int and grid == TimeGrid(1.0, 4)
        assert grid.sqrt_dt == np.sqrt(0.25)


class TestSampling:
    def test_single_step_shape(self):
        path = sample_path(TimeGrid(1.0, 1), dim=3, seed=1)
        assert path.increments.shape == (1, 3, 3)

    def test_bitwise_determinism(self):
        grid = TimeGrid(1.0, 32)
        a = sample_path(grid, 2, seed=99, path_index=5)
        b = sample_path(grid, 2, seed=99, path_index=5)
        assert (a.increments == b.increments).all()

    def test_distinct_streams_differ(self):
        grid = TimeGrid(1.0, 8)
        a = sample_path(grid, 2, seed=99, path_index=0)
        b = sample_path(grid, 2, seed=99, path_index=1)
        c = sample_path(grid, 2, seed=100, path_index=0)
        assert not (a.increments == b.increments).all()
        assert not (a.increments == c.increments).all()

    def test_entry_variance_at_horizon(self):
        # E[B_1(i,j)^2] = 1 for every entry, 3 SE band at 1e5 paths
        n_paths = 100_000
        grid = TimeGrid(1.0, 1)
        b1 = np.empty((n_paths, 2, 2))
        for i in range(n_paths):
            b1[i] = sample_path(grid, 2, seed=12, path_index=i).increments[0]  # B_1
        mean_sq = (b1 * b1).mean(axis=0)
        band = 3.0 * np.sqrt(2.0) / np.sqrt(n_paths)
        assert np.abs(mean_sq - 1.0).max() < band

    def test_entry_independence(self):
        n_paths = 10_000
        grid = TimeGrid(1.0, 1)
        pairs = np.empty((n_paths, 2))
        for i in range(n_paths):
            b = sample_path(grid, 2, seed=21, path_index=i).increments[0]  # B_1
            pairs[i] = (b[0, 0], b[0, 1])
        corr = np.corrcoef(pairs.T)[0, 1]
        assert abs(corr) < 3.3 / np.sqrt(n_paths)

    def test_quadratic_variation(self):
        # per-entry sum of squared increments concentrates on the horizon
        n, n_paths = 256, 200
        grid = TimeGrid(1.0, n)
        qv = np.empty((n_paths, 2, 2))
        for i in range(n_paths):
            inc = sample_path(grid, 2, seed=33, path_index=i).increments
            qv[i] = (inc * inc).sum(axis=0)
        mean = qv.mean()
        se = np.sqrt(2.0 / n) / np.sqrt(n_paths * 4)
        assert abs(mean - 1.0) < 3.0 * se
        # per-path relative scatter is O(1/sqrt(n))
        assert 0.5 * np.sqrt(2.0 / n) < qv.std() < 2.0 * np.sqrt(2.0 / n)


def _fresh_increments(grid, dim, seed, index):
    """The reference stream: a newly built Philox generator per path."""
    return path_generator(seed, index).standard_normal((grid.steps, dim, dim)) * np.sqrt(grid.dt)


class TestScaledDraw:
    @pytest.mark.parametrize("scale", [1e-320, 5e-324, 0.3, 1.0])
    def test_negative_zero_loc_keeps_the_scaled_bits(self, scale):
        # sample_path draws normal(-0.0, sqrt(dt)), which numpy computes as
        # -0.0 + sqrt(dt) * z: the bits of z * sqrt(dt), signed zeros included.
        # At the two subnormal scales products underflow to zeros of both
        # signs, and a +0.0 loc would turn each -0.0 into +0.0
        drawn = np.random.Generator(np.random.Philox(key=[7, 3])).normal(-0.0, scale, 10 ** 5)
        scaled = np.random.Generator(np.random.Philox(key=[7, 3])).standard_normal(10 ** 5) * scale
        if scale < 1e-300:
            assert np.signbit(scaled[scaled == 0.0]).any()
        assert drawn.tobytes() == scaled.tobytes()


class TestReKeyedStream:
    # interleaved keys, a repeated key, and the extreme keys 0, 2^63, 2^64 - 1
    KEYS = [(0, 0), (7, 3), (2 ** 63, 0), (7, 3), (2 ** 64 - 1, 2 ** 64 - 1),
            (0, 2 ** 63), (8, 3), (7, 4), (2 ** 64 - 1, 0)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_equals_fresh_generator(self, dim):
        # steps * dim^2 draws: 1, 5 and 7 steps leave Philox's 4-word buffer
        # part used; at horizons 0.3 and 2.5 sqrt(dt) is inexact
        for horizon in (1.0, 0.3, 2.5):
            for steps in (1, 5, 7, 16):
                grid = TimeGrid(horizon, steps)
                for seed, index in self.KEYS:
                    drawn = sample_path(grid, dim, seed, index).increments
                    assert drawn.tobytes() == _fresh_increments(grid, dim, seed, index).tobytes()
                # numpy integer keys take the general key check: the same stream
                drawn = sample_path(grid, dim, np.uint64(2 ** 64 - 1), np.int64(7)).increments
                assert drawn.tobytes() == sample_path(grid, dim, 2 ** 64 - 1, 7).increments.tobytes()
                assert drawn.tobytes() == _fresh_increments(grid, dim, 2 ** 64 - 1, 7).tobytes()

    def test_after_a_partly_consumed_stream(self):
        grid = TimeGrid(1.0, 3)
        for leftover in (1, 3, 6):
            # 32-bit draws also leave a half-used word behind
            sample_path(grid, 2, 11, 12)
            brownian._streams.philox[0].random(leftover, dtype=np.float32)
            drawn = sample_path(grid, 2, 11, 12).increments
            assert drawn.tobytes() == _fresh_increments(grid, 2, 11, 12).tobytes()

    @pytest.mark.parametrize("bad", [1.5, True, -1, 2 ** 64, np.True_, np.float64(3.0)])
    def test_refused_keys_leave_no_trace(self, bad):
        # a refusal happens before the thread's key list is written, so the
        # next path is still exactly its fresh stream
        grid = TimeGrid(1.0, 5)
        for name, key in (("seed", (bad, 3)), ("path_index", (7, bad))):
            sample_path(grid, 2, 7, 3)
            with pytest.raises(ValueError, match=f"^{name} must be an integer in \\[0, 2\\^64\\)"):
                sample_path(grid, 2, *key)
            for seed, index in ((7, 3), (8, 4)):
                drawn = sample_path(grid, 2, seed, index).increments
                assert drawn.tobytes() == _fresh_increments(grid, 2, seed, index).tobytes()

    @pytest.mark.parametrize("dim", [2.0, True, np.True_, np.float64(2.0), "2", None, 0, -1])
    def test_refused_dims_leave_no_trace(self, dim):
        grid = TimeGrid(1.0, 5)
        sample_path(grid, 2, 7, 3)
        with pytest.raises(ValueError, match="^dim must be a positive integer$"):
            sample_path(grid, dim, 8, 4)
        drawn = sample_path(grid, 2, 8, 4).increments
        assert drawn.tobytes() == _fresh_increments(grid, 2, 8, 4).tobytes()
        # a numpy integer dimension is the same draw
        assert sample_path(grid, np.int64(2), 8, 4).increments.tobytes() == drawn.tobytes()

    def test_each_path_owns_a_fresh_read_only_array(self):
        grid = TimeGrid(1.0, 4)
        first = sample_path(grid, 2, 5, 0).increments
        kept = first.copy()
        second = sample_path(grid, 2, 5, 1).increments
        assert not first.flags.writeable and not second.flags.writeable
        assert not np.shares_memory(first, second)
        assert first.tobytes() == kept.tobytes()

    def test_parallel_threads_match_serial(self):
        # long draws release the interpreter lock, so one generator shared
        # across threads would be re-keyed mid-draw and fail this
        grid, dim, seed, n_threads = TimeGrid(1.0, 257), 3, 2024, 4
        indices = [list(range(t, 64 * n_threads, n_threads)) for t in range(n_threads)]
        drawn = [dict() for _ in range(n_threads)]

        def work(t):
            for index in indices[t]:
                drawn[t][index] = sample_path(grid, dim, seed, index).increments.tobytes()

        threads = [threading.Thread(target=work, args=(t,)) for t in range(n_threads)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        for t in range(n_threads):
            assert sorted(drawn[t]) == indices[t]
            for index in indices[t]:
                assert drawn[t][index] == sample_path(grid, dim, seed, index).increments.tobytes()


class TestValueAt:
    """B_{t_k}, the running sum of a path's increments."""

    def test_zeros_path(self):
        path = BrownianPath(TimeGrid(1.0, 4), np.zeros((4, 3, 3)))
        np.testing.assert_array_equal(np.cumsum(path.increments, axis=0)[3], np.zeros((3, 3)))

    def test_rejects_bad_shapes(self):
        grid = TimeGrid(1.0, 4)
        with pytest.raises(ValueError):
            BrownianPath(grid, np.zeros((3, 2, 2)))
        with pytest.raises(ValueError):
            BrownianPath(grid, np.full((4, 2, 2), np.nan))


class TestRefinement:
    def test_coarsen_shapes_and_sums(self):
        path = sample_path(TimeGrid(1.0, 64), 2, seed=8)
        coarse = coarsen_path(path, 2)
        assert coarse.grid.steps == 32
        np.testing.assert_allclose(np.cumsum(coarse.increments, axis=0)[31],
                                   np.cumsum(path.increments, axis=0)[63], atol=1e-14)
        np.testing.assert_allclose(coarse.increments[0], path.increments[:2].sum(axis=0), atol=1e-15)

    def test_coarsen_validation(self):
        path = sample_path(TimeGrid(1.0, 6), 2, seed=8)
        with pytest.raises(ValueError):
            coarsen_path(path, 4)

    @pytest.mark.parametrize("factor, message", [
        (2.0, "factor must be a positive integer"), (True, "factor must be a positive integer"),
        (np.True_, "factor must be a positive integer"), ("2", "factor must be a positive integer"),
        (0, "factor 0 must divide the step count 6"), (-2, "factor -2 must divide the step count 6"),
    ])
    def test_factor_must_be_an_integer_of_at_least_one(self, factor, message):
        path = sample_path(TimeGrid(1.0, 6), 2, seed=8)
        with pytest.raises(ValueError) as raised:
            coarsen_path(path, factor)
        assert str(raised.value) == message

    def test_numpy_integer_factor_is_taken(self):
        path = sample_path(TimeGrid(1.0, 6), 2, seed=8)
        coarse = coarsen_path(path, np.int64(3))
        assert type(coarse.grid.steps) is int
        np.testing.assert_array_equal(coarse.increments, coarsen_path(path, 3).increments)

    def test_coarsened_variance_matches_direct(self):
        # squared coarse increments estimate the coarse step size either way
        n_paths, n = 400, 64
        grid = TimeGrid(1.0, n)
        coarse_sq, direct_sq = [], []
        for i in range(n_paths):
            fine = sample_path(grid, 2, seed=77, path_index=i)
            coarse_sq.append((coarsen_path(fine, 2).increments ** 2).mean())
            direct = sample_path(TimeGrid(1.0, n // 2), 2, seed=78, path_index=i)
            direct_sq.append((direct.increments ** 2).mean())
        dt_coarse = 2.0 / n
        samples = n_paths * (n // 2) * 4
        band = 3.0 * np.sqrt(2.0) * dt_coarse / np.sqrt(samples)
        assert abs(np.mean(coarse_sq) - dt_coarse) < band
        assert abs(np.mean(direct_sq) - dt_coarse) < band

