"""Inequality checkers, the lemma-beta estimator, Monte Carlo identity checks."""

import fcntl
import functools
import os
import signal
import time
import warnings

import numpy as np
import pytest

from matrixdiff import checks
from matrixdiff.brownian import TimeGrid, sample_path
from matrixdiff.checks import (
    CheckReport,
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    mc_isometry,
    mc_trace_moment,
    random_symmetric_stack,
    random_unit_stack,
    run_inequality_suite,
)
from matrixdiff.sde import SdeModel, euler_solve_paths, wishart_model
from matrixdiff.symmat import (
    SymmetricMatrix,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
)


def random_psd_stack(rng: np.random.Generator, count: int, d: int, scale: float = 1.0) -> np.ndarray:
    raw = rng.standard_normal((count, d, d))
    gram = np.einsum("mki,mkj->mij", raw, raw) * scale
    return 0.5 * (gram + gram.transpose(0, 2, 1))


class TestSamplers:
    def test_symmetric_stack(self):
        stack = random_symmetric_stack(np.random.default_rng(0), 10, 4)
        assert stack.shape == (10, 4, 4)
        assert stack.tobytes() == stack.transpose(0, 2, 1).copy().tobytes()

    def test_symmetric_stack_law(self):
        # N(0, 1) on the diagonal, N(0, 1/2) off it, independent entries, each
        # statistic within 4 SE at a fixed seed: a mean of N values of N(0, v)
        # has SE sqrt(v / N), their variance v sqrt(2 / (N - 1)), and a
        # correlation of independent entries about 1 / sqrt(N)
        count, d = 20000, 4
        stack = random_symmetric_stack(np.random.default_rng(17), count, d)
        rows, cols = np.triu_indices(d)
        entries = stack[:, rows, cols]
        expected = np.where(rows == cols, 1.0, 0.5)
        assert (np.abs(entries.mean(axis=0)) <= 4.0 * np.sqrt(expected / count)).all()
        gap = np.abs(entries.var(axis=0, ddof=1) - expected)
        assert (gap <= 4.0 * expected * np.sqrt(2.0 / (count - 1))).all()
        corr = np.corrcoef(entries, rowvar=False)[np.triu_indices(rows.size, 1)]
        assert (np.abs(corr) <= 4.0 / np.sqrt(count)).all()

    @pytest.mark.parametrize("count, d", [(0, 3), (1, 1), (7, 2), (5, 3), (3, 8)])
    def test_symmetric_stack_draws_one_normal_per_free_entry(self, count, d):
        rng, twin = np.random.default_rng(23), np.random.default_rng(23)
        random_symmetric_stack(rng, count, d)
        twin.standard_normal(count * d * (d + 1) // 2)
        assert rng.standard_normal(4).tobytes() == twin.standard_normal(4).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_random_images_law(self, d):
        # given x, A_k x ~ N(0, (I + x x^T)/2) and the steps are independent:
        # A_k x, every entry of A_k x (A_k x)^T - (I + x x^T)/2, (x . A_k x)^2 - 1
        # and every entry of A_1 x (A_2 x)^T have mean 0 within 4 SE at a fixed seed
        count = 20000
        rng = np.random.default_rng(29)
        x = random_unit_stack(rng, count, d)
        ax = checks._random_images(rng, x, 2)
        cov = 0.5 * (np.eye(d) + x[:, :, None] * x[:, None, :])
        stats = [ax, ax[..., :, None] * ax[..., None, :] - cov[:, None],
                 np.einsum("mi,mki->mk", x, ax) ** 2 - 1.0,
                 ax[:, 0, :, None] * ax[:, 1, None, :]]
        for values in stats:
            values = values.reshape(count, -1)
            se = values.std(axis=0, ddof=1) / np.sqrt(count)
            assert (np.abs(values.mean(axis=0)) <= 4.0 * se).all()

    @pytest.mark.parametrize("count, n, d", [(1, 1, 1), (7, 3, 2), (5, 32, 8)])
    def test_random_images_draw_d_normals_per_vector(self, count, n, d):
        rng, twin = np.random.default_rng(31), np.random.default_rng(31)
        checks._random_images(rng, random_unit_stack(rng, count, d), n)
        twin.standard_normal(count * d + count * n * d)
        assert rng.standard_normal(4).tobytes() == twin.standard_normal(4).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8, 13, 31])
    @pytest.mark.parametrize("count, n", [(1, 1), (7, 3), (5, 32), (1024, 32)])
    def test_random_images_keep_the_broadcast_bits(self, count, n, d):
        # the images in one (count, n, d) broadcast, from a twin generator
        rng, twin = np.random.default_rng(37), np.random.default_rng(37)
        ax = checks._random_images(rng, random_unit_stack(rng, count, d), n)
        x = random_unit_stack(twin, count, d)
        w = twin.standard_normal((count, n, d))
        along = (1.0 - np.sqrt(0.5)) * np.einsum("mki,mi->mk", w, x)
        assert ax.tobytes() == (np.sqrt(0.5) * w + along[..., None] * x[:, None, :]).tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_symmetric_stack_is_c_contiguous(self, d):
        # check_inq2's BLAS products take their bits from this layout: a fancy-index
        # gather `upper[:, position]` returns F-ordered strides and moved verify's bytes
        stack = random_symmetric_stack(np.random.default_rng(41), 6, d)
        assert stack.shape == (6, d, d)
        assert stack.flags.c_contiguous

    def test_psd_stack(self):
        stack = random_psd_stack(np.random.default_rng(0), 10, 4)
        assert (np.linalg.eigvalsh(stack) > -1e-12).all()

    def test_unit_stack(self):
        xs = random_unit_stack(np.random.default_rng(0), 10, 5)
        np.testing.assert_allclose(np.linalg.norm(xs, axis=1), np.ones(10), atol=1e-12)


class TestInequalitySuites:
    def test_inq2_boundary_is_equality(self):
        # A = B makes the gap exactly zero
        a = np.eye(2)
        gap = 2 * a @ a + 2 * a @ a - (a + a) @ (a + a)
        assert np.abs(gap).max() == 0.0

    def test_inq2_orthogonal_projectors(self):
        a, b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
        gap = 2 * a @ a + 2 * b @ b - (a + b) @ (a + b)
        np.testing.assert_array_equal(gap, np.eye(2))

    def test_inq2_random(self):
        rep = check_inq2(2000, 5, seed=42)
        assert rep.passed
        assert rep.worst_violation <= 1e-10
        assert rep.samples == 2000

    def test_inq_nice_equality_on_eigenvectors(self):
        a = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        quad = x @ a.entries @ x
        square = x @ a.entries @ a.entries @ x
        assert abs(quad * quad - square) < 1e-14

    def test_inq_nice_random(self):
        rep = check_inq_nice(2000, 4, seed=43)
        assert rep.passed
        assert rep.worst_violation <= 1e-12

    def test_prop_cauchy_constant_process_reduces_to_inq_nice(self):
        # constant A: t * sum x'A^2x dt - (sum x'Ax dt)^2 = t^2 (x'A^2x - (x'Ax)^2)
        rng = np.random.default_rng(3)
        a = random_symmetric_stack(rng, 1, 3)[0]
        x = random_unit_stack(rng, 1, 3)[0]
        t, n = 1.0, 16
        dt = t / n
        lin = sum(x @ a @ x * dt for _ in range(n))
        sq = sum(x @ a @ a @ x * dt for _ in range(n))
        lhs = t * sq - lin * lin
        direct = t * t * (x @ a @ a @ x - (x @ a @ x) ** 2)
        assert abs(lhs - direct) < 1e-12
        assert lhs >= -1e-12

    def test_prop_cauchy_single_step_boundary(self):
        rep = check_prop_cauchy(500, 2, n=1, seed=44)
        assert rep.passed

    def test_prop_cauchy_random(self):
        rep = check_prop_cauchy(1000, 3, n=32, seed=45)
        assert rep.passed
        assert rep.worst_violation <= 1e-10

    @pytest.mark.parametrize("d, inq_nice, prop_cauchy", [
        (1, "0x0.0p+0", "-0x1.c8a93778b8515p-2"),
        (2, "-0x1.53f3400000000p-34", "-0x1.6e94652802ec3p-1"),
        (8, "-0x1.a761a7eb9cfbdp-5", "-0x1.a084a17ee79d4p+1"),
    ])
    def test_cauchy_family_bits(self, d, inq_nice, prop_cauchy):
        # one full block plus one sample each: 4,096 + 1 at n = 1, 1,024 + 1 at n = 32
        assert check_inq_nice(4097, d, seed=7).worst_violation.hex() == inq_nice
        assert check_prop_cauchy(1025, d, n=32, seed=7).worst_violation.hex() == prop_cauchy

    def test_suite_runner(self):
        reports = run_inequality_suite(500, [2, 3], seed=46)
        assert len(reports) == 6
        assert all(rep.passed for rep in reports)


class TestLipschitzEstimator:
    def test_scalar_sqrt_matches_closed_form(self):
        # d = 1: the ratio is 1 / (sqrt(a) + sqrt(b))^2
        spec = clipped_sqrt_fn(1e6)
        rng = np.random.default_rng(5)
        for _ in range(50):
            a, b = rng.uniform(1e-6, 4.0, size=2)
            num = (np.sqrt(a) - np.sqrt(b)) ** 2
            den = (a - b) ** 2
            if den < 1e-14:
                continue
            g1 = spec.map_eigenvalues(np.array([a]))[0]
            g2 = spec.map_eigenvalues(np.array([b]))[0]
            assert abs((g1 - g2) ** 2 / den - num / den) < 1e-12


class TestMcIsometry:
    def test_identity_matches_horizon(self):
        ident = SymmetricMatrix.identity(2)
        x = np.array([1.0, 0.0])
        rep = mc_isometry(ident, ident, x, x, paths=20000, grid=TimeGrid(1.0, 4), seed=11)
        assert rep.passed
        assert abs(rep.details["rhs"] - 1.0) < 1e-14

    def test_orthogonal_vectors_mean_zero(self):
        ident = SymmetricMatrix.identity(2)
        rep = mc_isometry(ident, ident, [1.0, 0.0], [0.0, 1.0],
                          paths=20000, grid=TimeGrid(1.0, 4), seed=12)
        assert rep.passed
        assert rep.details["rhs"] == 0.0

    def test_weighted_case(self):
        a = SymmetricMatrix.diagonal([1.0, 2.0])
        ident = SymmetricMatrix.identity(2)
        e2 = [0.0, 1.0]
        rep = mc_isometry(a, ident, e2, e2, paths=20000, grid=TimeGrid(1.0, 8), seed=13)
        assert rep.passed
        assert abs(rep.details["rhs"] - 4.0) < 1e-14

    def test_deterministic_given_seed(self):
        ident = SymmetricMatrix.identity(2)
        r1 = mc_isometry(ident, ident, [1, 0], [1, 0], 2000, TimeGrid(1.0, 4), seed=14)
        r2 = mc_isometry(ident, ident, [1, 0], [1, 0], 2000, TimeGrid(1.0, 4), seed=14)
        assert r1.details["mean"] == r2.details["mean"]


class TestLemmaBeta:
    def test_scalar_case_exactly_two(self):
        ident = SymmetricMatrix.identity(1)
        beta = estimate_lemma_beta(ident, ident, 5000, TimeGrid(1.0, 8), [1.0], seed=21)
        assert abs(beta - 2.0) < 1e-12

    def test_scaling_invariance(self):
        ident = SymmetricMatrix.identity(2)
        x = [1.0, 0.0]
        b1 = estimate_lemma_beta(ident, ident, 3000, TimeGrid(1.0, 8), x, seed=22)
        twice = SymmetricMatrix(2.0 * np.eye(2))
        b2 = estimate_lemma_beta(twice, twice, 3000, TimeGrid(1.0, 8), x, seed=22)
        assert abs(b1 - b2) < 1e-12

    def test_zero_direction_has_no_beta(self):
        ident = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError, match="numerically zero"):
            estimate_lemma_beta(ident, ident, 16, TimeGrid(1.0, 4), [0.0, 0.0], seed=24)

    @pytest.mark.parametrize("paths", [0, 1])
    def test_needs_two_paths(self, paths):
        ident = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError, match="at least 2 paths"):
            estimate_lemma_beta(ident, ident, paths, TimeGrid(1.0, 4), [1.0, 0.0], seed=25)

    def test_identity_anchor_dimension_two(self):
        ident = SymmetricMatrix.identity(2)
        beta = estimate_lemma_beta(ident, ident, 40000, TimeGrid(1.0, 16), [1.0, 0.0], seed=23)
        assert abs(beta - 3.0) < 0.3

    def test_matches_a_per_path_loop(self):
        # the stacked quadratic forms against plain products, one path and one
        # grid time at a time; summation order differs, hence the 1e-12
        rng = np.random.default_rng(45)
        a = SymmetricMatrix(random_symmetric_stack(rng, 1, 3)[0])
        c = SymmetricMatrix(random_psd_stack(rng, 1, 3)[0])
        x = random_unit_stack(rng, 1, 3)[0]
        grid, paths = TimeGrid(1.0, 6), 20
        num, m2 = np.zeros(grid.steps), np.zeros(grid.steps)
        for i in range(paths):
            path = sample_path(grid, 3, 46, i)
            for k in range(grid.steps):
                m = a.entries @ np.cumsum(path.increments, axis=0)[k] @ c.entries
                num[k] += x @ (m + m.T) @ (m + m.T) @ x
                m2[k] += x @ m @ m @ x
        expected = (num / (2.0 * np.abs(m2))).max()
        beta = estimate_lemma_beta(a, c, paths, grid, x, seed=46)
        assert abs(beta - expected) <= 1e-12 * expected


class TestTraceMoment:
    def test_zero_drift_preserves_trace(self):
        model = wishart_model(1, 0.0, x0=SymmetricMatrix([[2.0]]))
        rep = mc_trace_moment(model, 3000, TimeGrid(0.5, 32), seed=31)
        assert rep.passed
        assert rep.details["expected"] == 2.0

    def test_squared_bessel_case(self):
        model = wishart_model(1, 2.0, x0=SymmetricMatrix([[1.0]]))
        rep = mc_trace_moment(model, 3000, TimeGrid(0.5, 64), seed=32)
        assert rep.passed
        assert rep.details["expected"] == 2.0

    def test_deterministic_paths_are_refused(self):
        # X stays 0 on every path, so the standard error is 0 and certifies nothing
        with pytest.raises(ValueError, match="standard error is 0"):
            mc_trace_moment(wishart_model(1, 0.0), 100, TimeGrid(1.0, 4), seed=34)

    def test_requires_constant_drift(self):
        # the second drift reads -1 at every point below 99, so probing b at a
        # few small points would take it for a constant
        probe = clipped_affine_fn(1.0, -100.0, 1.0).map_eigenvalues(np.array([0.0, 1.0, 7.5]))
        np.testing.assert_array_equal(probe, -1.0)
        for drift in (clipped_affine_fn(1.0, 0.0, 10.0), clipped_affine_fn(1.0, -100.0, 1.0)):
            model = SdeModel(g=constant_fn(0.0), f=constant_fn(0.0), b=drift,
                             x0=SymmetricMatrix.identity(2))
            with pytest.raises(ValueError, match="constant drift"):
                mc_trace_moment(model, 10, TimeGrid(1.0, 4), seed=33)


class TestBlockSizeIndependence:
    def test_mc_reports_do_not_depend_on_block_size(self, monkeypatch):
        # per-path values are reduced once over all paths, so the block size,
        # which only bounds memory, must not move a single bit of a report
        rng = np.random.default_rng(41)
        a = SymmetricMatrix(random_symmetric_stack(rng, 1, 3)[0])
        c = SymmetricMatrix(random_psd_stack(rng, 1, 3)[0])
        x, y = random_unit_stack(rng, 2, 3)
        model = wishart_model(3, 4.0, x0=SymmetricMatrix.identity(3))
        grid = TimeGrid(1.0, 8)
        outcomes = []
        for block in (1, 7, 1000, 2048):
            monkeypatch.setattr(checks, "_PATH_BLOCK", block)
            outcomes.append((mc_isometry(a, c, x, y, 2500, grid, seed=42).to_dict(),
                             mc_trace_moment(model, 2500, grid, seed=43).to_dict(),
                             estimate_lemma_beta(a, c, 2500, grid, x, seed=44)))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_mc_reports_match_per_path_computation(self, monkeypatch):
        # blocks of 7 over 20 paths end in a short block; each path drawn and
        # solved alone must give the same bits
        monkeypatch.setattr(checks, "_PATH_BLOCK", 7)
        grid, paths = TimeGrid(1.0, 8), 20
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2))
        alone = [euler_solve_paths(model, [sample_path(grid, 2, 43, i)])[0] for i in range(paths)]
        traces = np.array([np.trace(solution.states[-1]) for solution in alone])
        expected = checks._three_se_report("trace_moment", traces, "expected", 8.0, 43)
        assert mc_trace_moment(model, paths, grid, seed=43).to_dict() == expected.to_dict()

        rng = np.random.default_rng(41)
        a = SymmetricMatrix(random_symmetric_stack(rng, 1, 3)[0])
        c = SymmetricMatrix(random_psd_stack(rng, 1, 3)[0])
        x, y = random_unit_stack(rng, 2, 3)
        values = []
        for i in range(paths):
            m = a.entries @ sample_path(grid, 3, 42, i).increments.sum(axis=0) @ c.entries
            values.append(((m * (m * x).sum(axis=-1)).sum(axis=-1) * y).sum())  # y . M (M x)
        report = mc_isometry(a, c, x, y, paths, grid, seed=42)
        assert report.details["mean"] == float(np.array(values).mean())

    @staticmethod
    def _mc_runs(paths: int) -> dict:
        """seed: the Monte Carlo check run with that seed at d = 3 over `paths` paths"""
        rng = np.random.default_rng(41)
        a = SymmetricMatrix(random_symmetric_stack(rng, 1, 3)[0])
        c = SymmetricMatrix(random_psd_stack(rng, 1, 3)[0])
        x, y = random_unit_stack(rng, 2, 3)
        model = wishart_model(3, 4.0, x0=SymmetricMatrix.identity(3))
        grid = TimeGrid(1.0, 8)
        return {
            42: lambda: mc_isometry(a, c, x, y, paths, grid, seed=42).to_dict(),
            43: lambda: mc_trace_moment(model, paths, grid, seed=43).to_dict(),
            44: lambda: estimate_lemma_beta(a, c, paths, grid, x, seed=44),
        }

    @pytest.mark.parametrize("block", [7, 2048])
    def test_reports_do_not_depend_on_the_cpu_count(self, monkeypatch, block):
        # the blocks and dimensions run in 1, 2 or 3 processes: the reports
        # are reduced from the same rows in the same order, bit for bit
        runs = self._mc_runs(2500)
        outcomes = []
        for cpus in (1, 2, 3):
            monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(checks, "_PATH_BLOCK", block)
            outcomes.append(([run() for run in runs.values()],
                             [r.to_dict() for r in run_inequality_suite(300, (2, 3, 5), seed=45)]))
        assert all(outcome == outcomes[0] for outcome in outcomes[1:])

    def test_suite_reports_keep_the_order_of_dims(self, monkeypatch):
        # handed to the fan-out largest first, returned in the caller's order,
        # with the bits of each dimension run alone in one process
        monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
        alone = {d: [r.to_dict() for r in run_inequality_suite(300, (d,), seed=46)]
                 for d in (2, 3, 5, 8)}
        for cpus in (1, 2, 3):
            monkeypatch.setattr(checks, "_usable_cpus", lambda: cpus)
            reports = [r.to_dict() for r in run_inequality_suite(300, (3, 8, 2, 5), seed=46)]
            assert reports == [report for d in (3, 8, 2, 5) for report in alone[d]], cpus

    def test_one_sample_path_call_per_path_in_order(self, monkeypatch):
        # blocks of 7 and chunks of 3 over 70 paths: chunks end part-full in
        # every block (7 = 3 + 3 + 1), and the benchmark counts these calls;
        # on one CPU every call is made in this process
        grid, paths = TimeGrid(1.0, 8), 70
        runs = self._mc_runs(paths)
        plain = {seed: run() for seed, run in runs.items()}
        calls = []

        def spy(*args):
            calls.append(args)
            return sample_path(*args)

        monkeypatch.setattr(checks, "_usable_cpus", lambda: 1)
        monkeypatch.setattr(checks, "_PATH_BLOCK", 7)
        monkeypatch.setattr(checks, "_FILL", 3)
        monkeypatch.setattr(checks, "sample_path", spy)
        for seed, run in runs.items():
            calls.clear()
            assert run() == plain[seed], seed
            assert calls == [(grid, 3, seed, i) for i in range(paths)], seed

    def test_fanned_out_paths_are_drawn_once_in_order_per_process(self, monkeypatch, tmp_path):
        # the ten blocks run in three processes, which append their draws to one file
        paths = 70
        runs = self._mc_runs(paths)
        plain = {seed: run() for seed, run in runs.items()}
        log = tmp_path / "draws"

        def spy(grid, dim, seed, i):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            return sample_path(grid, dim, seed, i)

        monkeypatch.setattr(checks, "_usable_cpus", lambda: 3)
        monkeypatch.setattr(checks, "_PATH_BLOCK", 7)
        monkeypatch.setattr(checks, "_FILL", 3)
        monkeypatch.setattr(checks, "sample_path", spy)
        for seed, run in runs.items():
            log.write_text("")
            assert run() == plain[seed], seed
            draws = [tuple(map(int, line.split())) for line in log.read_text().splitlines()]
            assert sorted(i for _, i in draws) == list(range(paths)), seed
            by_process = {}
            for pid, i in draws:
                by_process.setdefault(pid, []).append(i)
            assert len(by_process) == 3 and os.getpid() in by_process, seed
            assert all(drawn == sorted(drawn) for drawn in by_process.values()), seed


class TestFanOut:
    @pytest.fixture(autouse=True)
    def bounded_and_reaped(self):
        # a test that would wait on a child for a minute fails instead, and
        # every test leaves no child behind, running or unreaped, and no pipe open
        opened = sorted(os.listdir("/proc/self/fd"))

        def expire(signum, frame):
            raise TimeoutError("the fan-out did not return within 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        assert sorted(os.listdir("/proc/self/fd")) == opened

    @staticmethod
    def _cpus(monkeypatch, count):
        monkeypatch.setattr(checks, "_usable_cpus", lambda: count)

    def test_results_come_back_in_task_order(self, monkeypatch, tmp_path):
        # child j runs task j - 1 first and this process task 2; then every
        # process claims tasks from the queue, each once, in ascending order
        self._cpus(monkeypatch, 3)
        real_fork, children = os.fork, []

        def fork():
            pid = real_fork()
            if pid:
                children.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", fork)
        log = tmp_path / "runs"

        def task(i):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()} {i}\n")
            return i

        assert checks._fan_out([functools.partial(task, i) for i in range(8)]) == list(range(8))
        runs = {}  # the tasks each process ran, in its order
        for line in log.read_text().splitlines():
            pid, i = map(int, line.split())
            runs.setdefault(pid, []).append(i)
        assert sorted(i for ran in runs.values() for i in ran) == list(range(8))
        assert len(children) == 2 and set(runs) == {*children, os.getpid()}
        assert [runs[pid][0] for pid in (*children, os.getpid())] == [0, 1, 2]
        assert all(ran == sorted(ran) for ran in runs.values())

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_one_task_or_one_cpu_runs_here(self, monkeypatch, cpus):
        self._cpus(monkeypatch, cpus)
        here = os.getpid()
        tasks = [lambda: os.getpid() == here] * (5 if cpus == 1 else 1)
        assert checks._fan_out(tasks) == [True] * len(tasks)

    @pytest.mark.parametrize("failing", ["queue pipe", "report pipe", "second report pipe",
                                         "fork", "second fork"])
    def test_tasks_of_unstarted_children_run_here(self, monkeypatch, failing):
        # a process or descriptor limit: with no queue pipe, no report pipe for
        # child 1 or no child every task runs here; with child 1 alone, this
        # process runs task 1, which child 2 would have run first, and the two
        # claim the others
        self._cpus(monkeypatch, 3)
        real_fork, forks = os.fork, []
        real_pipe, pipes = os.pipe, []

        def fork():
            forks.append(None)
            if failing == "fork" or len(forks) == 2:
                raise OSError("no more processes")
            return real_fork()

        def pipe():
            # the queue's pipe first, then each child's report pipe
            pipes.append(None)
            if len(pipes) == ["queue pipe", "report pipe", "second report pipe"].index(failing) + 1:
                raise OSError("no more descriptors")
            return real_pipe()

        if failing.endswith("pipe"):
            monkeypatch.setattr(os, "pipe", pipe)
        else:
            monkeypatch.setattr(os, "fork", fork)
        here = os.getpid()
        results = checks._fan_out([lambda i=i: (i, os.getpid()) for i in range(7)])
        assert [i for i, _ in results] == list(range(7))
        ran = {pid for _, pid in results}
        if failing.startswith("second"):
            assert results[0][1] != here and results[1][1] == here and len(ran) == 2
        else:
            assert ran == {here}

    def test_a_child_that_dies_without_a_report_is_named(self, monkeypatch):
        # child 1 kills itself at task 0; child 2 would sleep for two minutes at
        # task 1, and is killed when the parent raises instead of being waited for
        self._cpus(monkeypatch, 3)
        here = os.getpid()

        def die():
            if os.getpid() != here:  # never the test's own process
                os.kill(os.getpid(), signal.SIGKILL)

        def sleep():
            if os.getpid() != here:
                time.sleep(120)

        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"ended without a report \(killed by signal 9\)"):
            checks._fan_out([die, sleep, lambda: 0])
        assert time.monotonic() - start < 30

    @pytest.mark.parametrize("failing, raised", [((0, 1), 0), ((1, 2), 1)])
    def test_the_first_failure_in_task_order_wins(self, monkeypatch, failing, raised):
        # on 2 CPUs, child task 0 against parent task 1, and parent task 1 against
        # task 2, which the child claims
        kinds = [ValueError, KeyError, ZeroDivisionError]

        def task(i):
            if i in failing:
                raise kinds[i](f"task {i} failed")
            return i

        tasks = [lambda i=i: task(i) for i in range(3)]
        for cpus in (1, 2):
            self._cpus(monkeypatch, cpus)
            with pytest.raises(kinds[raised]) as caught:
                checks._fan_out(tasks)
            assert str(caught.value) == str(kinds[raised](f"task {raised} failed"))

    def test_a_childs_warning_is_issued_here(self, monkeypatch):
        # child 1 runs task 0
        self._cpus(monkeypatch, 2)

        def warn():
            warnings.warn(f"from process {os.getpid()}", UserWarning)
            return 1

        with pytest.warns(UserWarning) as caught:
            assert checks._fan_out([warn, lambda: 0]) == [1, 0]
        (message,) = [str(w.message) for w in caught]
        assert message.startswith("from process ") and int(message.split()[-1]) != os.getpid()

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_warnings_are_issued_in_task_order(self, monkeypatch, cpus):
        # whichever process ran a task, and in whatever order they finished; a
        # warning every task repeats from one line shows once, as in one process
        self._cpus(monkeypatch, cpus)

        def warn(i):
            warnings.warn(f"task {i}", UserWarning)
            warnings.warn("every task", UserWarning)
            return i

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            assert checks._fan_out([functools.partial(warn, i) for i in range(4)]) == [0, 1, 2, 3]
        assert [str(w.message) for w in caught] == ["task 0", "every task", "task 1", "task 2",
                                                    "task 3"]

    @pytest.mark.parametrize("held", [False, True])
    def test_a_queue_larger_than_its_pipe_runs_in_full(self, monkeypatch, held):
        # 2,997 indices to queue (11,988 bytes) in pipes shrunk to one page,
        # 4,096 bytes: 1,024 are queued and the rest run here after the queue.
        # Held: both children wait at their first task until this process runs
        # the last one, so it runs every other task itself
        self._cpus(monkeypatch, 3)
        real_pipe, here = os.pipe, os.getpid()
        gate, opened = real_pipe()

        def pipe():
            read, write = real_pipe()
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, 4096)
            return read, write

        def task(i):
            if held and i < 2 and os.getpid() != here:
                os.read(gate, 1)
            if held and i == 2999:
                os.write(opened, b"go")
            return i, os.getpid() == here

        monkeypatch.setattr(os, "pipe", pipe)
        try:
            results = checks._fan_out([functools.partial(task, i) for i in range(3000)])
        finally:
            os.close(gate)
            os.close(opened)
        assert [i for i, _ in results] == list(range(3000))
        assert all(here for _, here in results[3 + 1024:])
        if held:
            assert [here for _, here in results[:3 + 1024]] == [False, False] + [True] * 1025


    @pytest.mark.parametrize("fault", ["twice", "lost"])
    def test_a_task_not_run_exactly_once_is_refused(self, monkeypatch, fault):
        # a faulty queue gives each claimed index twice, or drops it: on 2 CPUs
        # task 2 is the one queued
        self._cpus(monkeypatch, 2)
        real = checks._claims

        def faulty(queue):
            for i in real(queue):
                yield from [i, i] if fault == "twice" else []

        monkeypatch.setattr(checks, "_claims", faulty)
        with pytest.raises(RuntimeError, match="did not run exactly once"):
            checks._fan_out([lambda i=i: i for i in range(3)])

class TestWorstCase:
    # one NaN, which max() would pass over for the first block's worst, or a
    # block of -inf, whose worst is no violation measured
    @pytest.mark.parametrize("bad, where", [(np.nan, 3), (-np.inf, slice(None))])
    def test_a_block_without_a_finite_worst_raises(self, bad, where):
        blocks = []

        def violations(rng, count):  # the second of three blocks is bad
            out = np.zeros(count)
            blocks.append(count)
            if len(blocks) == 2:
                out[where] = bad
            return out

        with pytest.raises(ValueError, match="demo: a block's worst violation is not finite"):
            checks._worst_case("demo", 0.0, 30, 1, {}, violations, block=10)
        assert blocks == [10, 10]


class TestCheckReport:
    def test_dict_keys(self):
        rep = CheckReport(name="demo", samples=10, worst_violation=0.0,
                          tolerance=0.0, passed=True, details={"dim": 2})
        d = rep.to_dict()
        assert set(d) == {"name", "samples", "worst_violation", "tolerance", "pass", "details"}
        assert d["details"] == {"dim": 2}

    def test_pass_consistency(self):
        rep = check_inq_nice(100, 2, seed=9)
        assert rep.passed == (rep.worst_violation <= rep.tolerance)
