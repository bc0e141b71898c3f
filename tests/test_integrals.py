"""Grid Ito integrals: oracle equivalence, algebraic identities, moment checks."""

import numpy as np
import pytest

from matrixdiff.brownian import TimeGrid, BrownianPath, sample_path
from matrixdiff.integrals import MatrixProcess, isometry_rhs, ito_integral
from matrixdiff.symmat import SymmetricMatrix
from reference import entrywise_ito


def value_at(path, k):
    """B_{t_k} for k >= 1, the sum of the path's first k increments."""
    return np.cumsum(path.increments, axis=0)[k - 1]


def random_process(rng, grid, d, scale=1.0):
    raw = rng.standard_normal((grid.steps + 1, d, d))
    return MatrixProcess(grid, scale * 0.5 * (raw + raw.transpose(0, 2, 1)))


class TestMatrixProcess:
    def test_constant(self):
        grid = TimeGrid(1.0, 4)
        proc = MatrixProcess.constant(grid, SymmetricMatrix.diagonal([1.0, 2.0]))
        assert proc.values.shape == (5, 2, 2)
        np.testing.assert_array_equal(proc.values[3], np.diag([1.0, 2.0]))

    def test_rejects_asymmetric_values(self):
        grid = TimeGrid(1.0, 1)
        bad = np.zeros((2, 2, 2))
        bad[0, 0, 1] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            MatrixProcess(grid, bad)

    @pytest.mark.parametrize("values", [
        # an asymmetry of 1e-9 in matrices of scale 1e-9: the bound is relative
        np.stack([1e-9 * np.array([[0.0, 1.0], [0.0, 0.0]])] * 2),
        # each matrix is judged at its own scale, not at the process's largest
        np.stack([1e6 * np.eye(2), np.array([[0.0, 1e-3], [0.0, 0.0]])]),
    ])
    def test_rejects_asymmetry_relative_to_each_matrix(self, values):
        with pytest.raises(ValueError, match="not symmetric"):
            MatrixProcess(TimeGrid(1.0, 1), values)

    def test_keeps_symmetric_values_near_the_float_limit(self):
        # (M + M^T) / 2 would overflow to inf here
        values = np.stack([np.array([[1.0, 1.7e308], [1.7e308, 1.0]])] * 2)
        assert MatrixProcess(TimeGrid(1.0, 1), values).values.tobytes() == values.tobytes()

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            MatrixProcess(TimeGrid(1.0, 4), np.zeros((4, 2, 2)))


class TestItoIntegral:
    def test_identity_integrands_telescope(self):
        grid = TimeGrid(1.0, 16)
        path = sample_path(grid, 3, seed=1)
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(3))
        np.testing.assert_allclose(ito_integral(ident, path, ident), value_at(path, 16), atol=1e-13)
        cut = BrownianPath(TimeGrid(7 / 16, 7), path.increments[:7])
        ident7 = MatrixProcess.constant(cut.grid, SymmetricMatrix.identity(3))
        np.testing.assert_allclose(ito_integral(ident7, cut, ident7), value_at(path, 7), atol=1e-13)

    def test_scalar_constants_commute(self):
        grid = TimeGrid(1.0, 8)
        path = sample_path(grid, 2, seed=2)
        a = MatrixProcess.constant(grid, SymmetricMatrix(2.0 * np.eye(2)))
        c = MatrixProcess.constant(grid, SymmetricMatrix(-3.0 * np.eye(2)))
        np.testing.assert_allclose(ito_integral(a, path, c), -6.0 * value_at(path, 8), atol=1e-12)

    def test_dimension_one_reduces_to_scalar_sum(self):
        grid = TimeGrid(1.0, 10)
        path = sample_path(grid, 1, seed=3)
        rng = np.random.default_rng(4)
        a_vals = rng.standard_normal((11, 1, 1))
        c_vals = rng.standard_normal((11, 1, 1))
        a = MatrixProcess(grid, a_vals)
        c = MatrixProcess(grid, c_vals)
        expected = sum(
            a_vals[m, 0, 0] * c_vals[m, 0, 0] * path.increments[m, 0, 0] for m in range(10)
        )
        assert abs(ito_integral(a, path, c)[0, 0] - expected) < 1e-14

    def test_grid_mismatch_raises(self):
        path = sample_path(TimeGrid(1.0, 4), 2, seed=6)
        proc = MatrixProcess.constant(TimeGrid(1.0, 8), SymmetricMatrix.identity(2))
        with pytest.raises(ValueError, match="grid mismatch"):
            ito_integral(proc, path, proc)

    def test_dimension_mismatch_raises(self):
        grid = TimeGrid(1.0, 4)
        proc = MatrixProcess.constant(grid, SymmetricMatrix.identity(3))
        with pytest.raises(ValueError, match="dimension mismatch"):
            ito_integral(proc, sample_path(grid, 2, seed=6), proc)

    def test_entrywise_oracle_equivalence(self):
        rng = np.random.default_rng(101)
        for trial in range(200):
            d = int(rng.integers(1, 5))
            n = int(rng.integers(1, 17))
            grid = TimeGrid(float(rng.uniform(0.25, 2.0)), n)
            path = sample_path(grid, d, seed=500, path_index=trial)
            a = random_process(rng, grid, d)
            c = random_process(rng, grid, d)
            fast = ito_integral(a, path, c)
            slow = entrywise_ito(a.values, c.values, path.increments)
            assert np.abs(fast - slow).max() < 1e-12

    def test_linearity(self):
        rng = np.random.default_rng(9)
        grid = TimeGrid(1.0, 8)
        path = sample_path(grid, 3, seed=10)
        a1 = random_process(rng, grid, 3)
        a2 = random_process(rng, grid, 3)
        c = random_process(rng, grid, 3)
        combo = MatrixProcess(grid, 2.0 * a1.values - 0.5 * a2.values)
        lhs = ito_integral(combo, path, c)
        rhs = 2.0 * ito_integral(a1, path, c) - 0.5 * ito_integral(a2, path, c)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_martingale_mean_zero(self):
        rng = np.random.default_rng(11)
        grid = TimeGrid(1.0, 8)
        a = random_process(rng, grid, 2)
        c = random_process(rng, grid, 2)
        n_paths = 4000
        acc = np.zeros((2, 2))
        acc_sq = np.zeros((2, 2))
        for i in range(n_paths):
            val = ito_integral(a, sample_path(grid, 2, seed=600, path_index=i), c)
            acc += val
            acc_sq += val * val
        mean = acc / n_paths
        se = np.sqrt(np.maximum(acc_sq / n_paths - mean**2, 0.0) / n_paths)
        assert (np.abs(mean) <= 3.0 * se + 1e-12).all()


def symmetrized(a, path, c):
    """The SDE's symmetric noise term M + M^T, with M the plain integral."""
    m = ito_integral(a, path, c)
    return m + m.T


class TestSymmetrizedDiffusion:
    def test_identity_case(self):
        grid = TimeGrid(1.0, 6)
        path = sample_path(grid, 2, seed=13)
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(2))
        b = value_at(path, 6)
        np.testing.assert_allclose(symmetrized(ident, path, ident), b + b.T, atol=1e-13)

    def test_zero_integrand(self):
        grid = TimeGrid(1.0, 6)
        path = sample_path(grid, 2, seed=14)
        zero = MatrixProcess.constant(grid, SymmetricMatrix.zeros(2))
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(2))
        np.testing.assert_array_equal(symmetrized(zero, path, ident), np.zeros((2, 2)))

    def test_single_step_hand_case(self):
        # A = I, C = diag(1, 0), one increment: M = dB @ C keeps only column 1
        grid = TimeGrid(1.0, 1)
        db = np.array([[[0.3, -0.7], [1.1, 0.4]]])
        path = BrownianPath(grid, db)
        a = MatrixProcess.constant(grid, SymmetricMatrix.identity(2))
        c = MatrixProcess.constant(grid, SymmetricMatrix.diagonal([1.0, 0.0]))
        expected = np.array([[2 * 0.3, 1.1], [1.1, 0.0]])
        np.testing.assert_allclose(symmetrized(a, path, c), expected, atol=1e-15)


class TestIsometryRhs:
    def test_identity_unit_vectors(self):
        grid = TimeGrid(2.0, 8)
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(3))
        x = np.array([1.0, 0.0, 0.0])
        assert abs(isometry_rhs(ident, ident, x, x) - 2.0) < 1e-14
        half = MatrixProcess.constant(TimeGrid(1.0, 4), SymmetricMatrix.identity(3))
        assert abs(isometry_rhs(half, half, x, x) - 1.0) < 1e-14

    def test_orthogonal_vectors_vanish(self):
        grid = TimeGrid(1.0, 8)
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(2))
        assert isometry_rhs(ident, ident, [1.0, 0.0], [0.0, 1.0]) == 0.0

    def test_diagonal_weights(self):
        grid = TimeGrid(1.0, 4)
        a = MatrixProcess.constant(grid, SymmetricMatrix.diagonal([1.0, 2.0]))
        ident = MatrixProcess.constant(grid, SymmetricMatrix.identity(2))
        e2 = [0.0, 1.0]
        assert abs(isometry_rhs(a, ident, e2, e2) - 4.0) < 1e-14

    @pytest.mark.parametrize("grid, d", [
        (TimeGrid(1.0, 4), 3),
        (TimeGrid(2.0, 4), 2),
        (TimeGrid(1.0, 8), 2),
    ])
    def test_processes_must_share_grid_and_dimension(self, grid, d):
        a = MatrixProcess.constant(TimeGrid(1.0, 4), SymmetricMatrix.identity(2))
        c = MatrixProcess.constant(grid, SymmetricMatrix.identity(d))
        with pytest.raises(ValueError, match="share grid and dimension"):
            isometry_rhs(a, c, [1.0, 0.0], [1.0, 0.0])

