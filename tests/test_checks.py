"""Inequality checkers, Lipschitz/beta estimators, Monte Carlo identity checks."""

import numpy as np
import pytest

from matrixdiff import checks, sde
from matrixdiff.brownian import TimeGrid
from matrixdiff.checks import (
    CheckReport,
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    estimate_lipschitz,
    mc_isometry,
    mc_trace_moment,
    random_psd_stack,
    random_symmetric_stack,
    random_unit_stack,
    run_inequality_suite,
)
from matrixdiff.sde import SdeModel, wishart_model
from matrixdiff.symmat import (
    ScalarFunctionSpec,
    SymmetricMatrix,
    affine_fn,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
    identity_fn,
)


class TestSamplers:
    def test_symmetric_stack(self):
        stack = random_symmetric_stack(np.random.default_rng(0), 10, 4)
        assert stack.shape == (10, 4, 4)
        assert (stack == stack.transpose(0, 2, 1)).all()

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

    def test_suite_runner(self):
        reports = run_inequality_suite(500, [2, 3], seed=46)
        assert len(reports) == 6
        assert all(rep.passed for rep in reports)


class TestLipschitzEstimator:
    def test_identity_ratio_is_one(self):
        est = estimate_lipschitz(identity_fn(), 500, 3, seed=1)
        assert abs(est.sampled_ratio_max - 1.0) <= 1e-9
        assert est.sample_count == 500
        assert est.dims == [3]

    def test_affine_ratio_is_slope_squared(self):
        est = estimate_lipschitz(affine_fn(3.0, -2.0), 500, 3, seed=2)
        assert abs(est.sampled_ratio_max - 9.0) <= 1e-9

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

    def test_sqrt_ratio_blows_up_near_zero(self):
        spec = clipped_sqrt_fn(1e6)
        small = estimate_lipschitz(spec, 2000, 1, seed=6, psd=True, scale=1e-6)
        large = estimate_lipschitz(spec, 2000, 1, seed=6, psd=True, scale=1.0)
        assert small.sampled_ratio_max > 100.0 * large.sampled_ratio_max

    def test_degenerate_pairs_error(self):
        with pytest.raises(ValueError, match="degenerate"):
            estimate_lipschitz(identity_fn(), 100, 2, seed=7, scale=0.0)

    def test_monotone_in_sample_count(self):
        spec = clipped_sqrt_fn(1e6)
        estimates = [
            estimate_lipschitz(spec, n, 2, seed=8, psd=True, scale=0.1).sampled_ratio_max
            for n in (50, 200, 800, 3000)
        ]
        assert all(b >= a for a, b in zip(estimates, estimates[1:]))


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
        b2 = estimate_lemma_beta(2.0 * ident, 2.0 * ident, 3000, TimeGrid(1.0, 8), x, seed=22)
        assert abs(b1 - b2) < 1e-12

    def test_identity_anchor_dimension_two(self):
        ident = SymmetricMatrix.identity(2)
        beta = estimate_lemma_beta(ident, ident, 40000, TimeGrid(1.0, 16), [1.0, 0.0], seed=23)
        assert abs(beta - 3.0) < 0.3


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
        for mc_block, euler_block in ((7, 7), (1000, 1000), (checks._BLOCK, sde._EULER_BLOCK)):
            monkeypatch.setattr(checks, "_BLOCK", mc_block)
            monkeypatch.setattr(sde, "_EULER_BLOCK", euler_block)
            outcomes.append((mc_isometry(a, c, x, y, 2500, grid, seed=42).to_dict(),
                             mc_trace_moment(model, 2500, grid, seed=43).to_dict()))
        assert outcomes[0] == outcomes[1] == outcomes[2]


class TestCheckReport:
    def test_json_round_trip(self):
        rep = CheckReport(name="demo", samples=10, worst_violation=-1.5e-12,
                          tolerance=1e-10, passed=True, details={"dim": 3})
        back = CheckReport.from_json(rep.to_json())
        assert back == rep

    def test_dict_keys(self):
        rep = CheckReport(name="demo", samples=10, worst_violation=0.0,
                          tolerance=0.0, passed=True)
        d = rep.to_dict()
        assert set(d) == {"name", "samples", "worst_violation", "tolerance", "pass"}

    def test_pass_consistency(self):
        rep = check_inq_nice(100, 2, seed=9)
        assert rep.passed == (rep.worst_violation <= rep.tolerance)
