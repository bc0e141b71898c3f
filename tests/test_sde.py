"""Euler and Picard solvers: stepping identities, contraction, consistency."""

import math
import warnings

import numpy as np
import pytest

from matrixdiff.brownian import BrownianPath, TimeGrid, coarsen_path, sample_path
from matrixdiff.sde import (
    PathSolution,
    SdeModel,
    WallachSetWarning,
    _advance,
    _increment,
    _lift_gfb,
    default_test_vectors,
    euler_final_states,
    euler_solve_paths,
    fit_contraction_rate,
    in_wallach_set,
    picard_solve,
    wishart_model,
)
from matrixdiff.symmat import (
    ScalarFunctionSpec,
    SymmetricMatrix,
    apply_scalar_fn,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
    min_eigenvalues_stack,
)
from reference import entrywise_ito, product_2x2


def drift_only_model(x0, drift_value=1.0):
    return SdeModel(
        g=constant_fn(0.0),
        f=constant_fn(0.0),
        b=constant_fn(drift_value),
        x0=x0,
    )


class TestModelValidation:
    def test_requires_declared_bounds(self):
        identity = ScalarFunctionSpec(fn=lambda x: np.asarray(x, dtype=np.float64).copy())
        with pytest.raises(ValueError, match="bound"):
            SdeModel(g=identity, f=constant_fn(1.0), b=constant_fn(0.0),
                     x0=SymmetricMatrix.identity(2))

    def test_psd_start_enforced_when_claimed(self):
        with pytest.raises(ValueError, match="semidefinite"):
            wishart_model(2, 1.0, x0=SymmetricMatrix.diagonal([1.0, -1.0]))

    def test_start_of_another_dimension_refused_before_the_wallach_test(self):
        # alpha = 1.5 is outside the Wallach set at d = 3 but inside it at d = 2,
        # so a warning here would judge alpha against the wrong dimension
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^dimension mismatch: model d=3 vs x0 d=2$"):
                wishart_model(3, 1.5, x0=SymmetricMatrix.identity(2))

    def test_only_the_wishart_model_requires_a_psd_start(self):
        # the Wishart model refuses starts below the cone at every scale; a model
        # built directly takes them, here with the same clipped root for g
        small = SymmetricMatrix.diagonal([1e-12, -1e-12])
        for x0 in (small, SymmetricMatrix.diagonal([1e308] * 4 + [-1e308])):
            with pytest.raises(ValueError, match="^initial state must be positive semidefinite "
                                                 "for this model$"):
                wishart_model(x0.dim, float(x0.dim), x0=x0)
        model = SdeModel(g=clipped_sqrt_fn(1e6), f=constant_fn(1.0), b=constant_fn(2.0), x0=small)
        assert model.x0 is small

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e308])
    def test_psd_start_enforced_where_the_norm_overflows(self, scale):
        # ||X0||_F of 1e308 diag(1, 1, 1, 1, -1) overflows, so a tolerance
        # taken at X0's scale would be inf and pass -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="semidefinite"):
                wishart_model(5, 5.0, x0=SymmetricMatrix.diagonal([scale] * 4 + [-scale]))
            wishart_model(5, 5.0, x0=SymmetricMatrix.diagonal([scale] * 5))

    @pytest.mark.parametrize("scale", [1e-150, 1e-12, 1.0, 1e12, 1e150])
    def test_psd_start_keeps_zero_and_gram_matrices_at_every_scale(self, scale):
        # rounding may leave a Gram matrix a few ulps of its own scale outside
        # the cone, which an absolute tolerance refuses at large scales
        wishart_model(2, 1.0, x0=SymmetricMatrix.zeros(2))
        rng = np.random.default_rng(19)
        for d in (2, 3, 5):
            for rank in range(1, d + 1):
                g = rng.standard_normal((rank, d))
                wishart_model(d, float(d), x0=SymmetricMatrix(scale * (g.T @ g)))

    def test_wallach_membership(self):
        assert in_wallach_set(1.0, 2)
        assert in_wallach_set(5.0, 3)
        assert in_wallach_set(2.0, 3)
        assert not in_wallach_set(1.5, 3)
        assert not in_wallach_set(0.0, 2)
        assert in_wallach_set(0.0, 1)

    def test_wallach_warning_emitted(self):
        with pytest.warns(WallachSetWarning):
            wishart_model(3, 1.5)
        with pytest.warns(WallachSetWarning):
            wishart_model(2, 0.0)

    def test_valid_alpha_no_warning(self):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            wishart_model(2, 1.0)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            wishart_model(0, 1.0)
        for clip in (0.0, -1.0):
            with pytest.raises(ValueError, match="bound"):
                wishart_model(2, 1.0, sqrt_clip_bound=clip)

    @pytest.mark.parametrize("d", [2.0, True, np.True_, "2", 0, -1])
    def test_d_must_be_an_integer_of_at_least_one(self, d):
        with pytest.raises(ValueError, match="^d must be a positive integer$"):
            wishart_model(d, 3.0)

    def test_numpy_integer_d_is_taken(self):
        model = wishart_model(np.int64(2), 3.0)
        assert type(model.dim) is int and model.dim == 2
        np.testing.assert_array_equal(model.x0.entries, np.zeros((2, 2)))

    @pytest.mark.parametrize("clip", [float("inf"), 1e999, float("nan")])
    def test_infinite_sqrt_clip_refused(self, clip):
        with pytest.raises(ValueError, match="bound"):
            wishart_model(2, 1.0, sqrt_clip_bound=clip)

    @pytest.mark.parametrize("alpha", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_alpha_refused(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            in_wallach_set(alpha, 2)
        with pytest.raises(ValueError, match="alpha"):
            wishart_model(2, alpha)


def _scaled_identities(lifts, shape):
    """The lifts as the c * I matrices a float coefficient stands for."""
    return [np.broadcast_to(c * np.eye(shape[-1]), shape) if isinstance(c, float) else c
            for c in lifts]


def _matmul_increment(g_x, f_x, b_x, db, dt):
    """The increment with every coefficient a matrix, as plain matmuls: the
    kernel's written-out entries at d = 2, and `@` for d >= 3."""
    times = product_2x2 if db.shape[-1] == 2 else np.matmul
    m = times(times(g_x, db), f_x)
    return (m + m.transpose(0, 2, 1)) + b_x * dt


class TestCoefficientLift:
    def test_constant_lift_is_exactly_scaled_identity(self):
        # a constant coefficient lifts to its exact value, standing for value * I:
        # the increment built from it has the bits of the product with value * I
        model = SdeModel(g=constant_fn(0.7), f=constant_fn(-1.3), b=clipped_sqrt_fn(5.0),
                         x0=SymmetricMatrix.identity(3))
        rng = np.random.default_rng(1)
        stack = rng.standard_normal((6, 3, 3))
        stack = stack @ stack.transpose(0, 2, 1)
        g_x, f_x, b_x = _lift_gfb(model, stack)
        for lifted, value in ((g_x, 0.7), (f_x, -1.3)):
            assert type(lifted) is float and lifted == value
        assert b_x.shape == (6, 3, 3)
        db = rng.standard_normal((6, 3, 3))
        expected = _matmul_increment(*_scaled_identities((g_x, f_x, b_x), stack.shape), db, 0.1)
        assert _increment(g_x, f_x, b_x, db, 0.1).tobytes() == expected.tobytes()


def _constant_models(c):
    """Models with the constant c in each coefficient slot the kernel treats apart."""
    def start(d):
        return SymmetricMatrix(np.diag(np.arange(2.0, 2.0 + d)) + 0.25)

    return [
        SdeModel(g=clipped_sqrt_fn(10.0), f=constant_fn(c), b=constant_fn(c), x0=start(2)),
        SdeModel(g=constant_fn(c), f=clipped_affine_fn(0.5, 1.0, 4.0),
                 b=clipped_affine_fn(-0.5, 1.0, 10.0), x0=start(3)),
        SdeModel(g=constant_fn(c), f=constant_fn(c), b=constant_fn(c), x0=start(3)),
    ]


class TestScalarConstants:
    """Constant coefficients enter the Euler kernel as scalars, with the bits of
    the product with c * I: the plain-loop product at d = 2, `@` at d >= 3."""

    @pytest.mark.parametrize("c", [1.0, -1.3, 0.0])
    def test_advance_matches_scaled_identity_product(self, c):
        rng = np.random.default_rng(21)
        for model in _constant_models(c):
            d = model.dim
            x = rng.standard_normal((64, d, d))
            x = x @ x.transpose(0, 2, 1) + 0.1
            db = 0.1 * rng.standard_normal((64, d, d))
            lifts = _lift_gfb(model, x)
            expected = x + _matmul_increment(*_scaled_identities(lifts, x.shape), db, 0.01)
            for layout in (db, np.asfortranarray(db), db.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
                nxt = _advance(model, x, layout, 0.01)
                assert nxt.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("c", [1.0, -1.3, 0.0])
    def test_picard_sweep_matches_scaled_identity_product(self, c):
        grid = TimeGrid(1.0, 16)
        for model in _constant_models(c):
            d, n = model.dim, grid.steps
            path = sample_path(grid, d, seed=4)
            sol, diag = picard_solve(model, path, max_iter=2)
            prev = np.broadcast_to(model.x0.entries, (n + 1, d, d))
            for _ in range(diag.iterates_kept):
                lifts = _scaled_identities(_lift_gfb(model, prev)[:3], prev.shape)
                steps = _matmul_increment(*(lift[:n] for lift in lifts), path.increments, grid.dt)
                nxt = np.zeros((n + 1, d, d))
                np.cumsum(steps, axis=0, out=nxt[1:])
                nxt += model.x0.entries
                prev = nxt
            assert sol.states.tobytes() == prev.tobytes()


def euler_solve(model, path):
    """The Euler solution of one path: `euler_solve_paths` on a one-path list."""
    return euler_solve_paths(model, [path])[0]


def one_step(model, db, dt):
    """X_{t_1} of `model` from its x0: the Euler solve of the one increment db over dt."""
    path = BrownianPath(TimeGrid(dt, 1), np.asarray(db, dtype=np.float64)[None])
    return euler_solve(model, path).states[1]


class TestEulerStep:
    def test_pure_drift(self):
        model = drift_only_model(SymmetricMatrix.diagonal([1.0, 2.0]))
        out = one_step(model, np.zeros((2, 2)), 0.25)
        np.testing.assert_allclose(out, np.diag([1.25, 2.25]), atol=1e-14)

    def test_symmetrized_noise_only(self):
        # g = 1/2, f = 1, b = 0 adds (dB + dB^T)/2
        model = SdeModel(g=constant_fn(0.5), f=constant_fn(1.0), b=constant_fn(0.0),
                         x0=SymmetricMatrix.zeros(2))
        db = np.array([[0.2, -0.4], [0.6, 0.1]])
        out = one_step(model, db, 0.1)
        np.testing.assert_allclose(out, 0.5 * (db + db.T), atol=1e-14)

    def test_wishart_step_from_identity(self):
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2))
        db = np.array([[0.1, 0.2], [-0.3, 0.4]])
        dt = 0.01
        out = one_step(model, db, dt)
        expected = np.eye(2) + db + db.T + 3.0 * dt * np.eye(2)
        np.testing.assert_allclose(out, expected, atol=1e-10)

    def test_exact_symmetry(self):
        model = wishart_model(3, 3.0, x0=SymmetricMatrix.identity(3))
        db = np.random.default_rng(0).standard_normal((3, 3))
        out = one_step(model, db, 0.05)
        assert (out == out.T).all()


class TestEulerSolve:
    def test_zero_noise_pure_drift(self):
        grid = TimeGrid(1.0, 64)
        model = drift_only_model(SymmetricMatrix.zeros(2))
        sol = euler_solve(model, BrownianPath(grid, np.zeros((grid.steps, 2, 2))))
        np.testing.assert_array_equal(sol.states[0], np.zeros((2, 2)))
        np.testing.assert_allclose(sol.states[-1], np.eye(2), atol=1e-12)

    def test_states_exactly_symmetric(self):
        grid = TimeGrid(1.0, 32)
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2))
        sol = euler_solve(model, sample_path(grid, 2, seed=1))
        assert (sol.states == sol.states.transpose(0, 2, 1)).all()

    def test_min_eigenvalue_telemetry(self):
        grid = TimeGrid(1.0, 16)
        model = drift_only_model(SymmetricMatrix.zeros(2))
        sol = euler_solve(model, BrownianPath(grid, np.zeros((grid.steps, 2, 2))))
        assert sol.min_eigenvalues.shape == (17,)
        np.testing.assert_allclose(sol.min_eigenvalues, grid.times, atol=1e-12)

    def test_dimension_mismatch(self):
        model = drift_only_model(SymmetricMatrix.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            euler_solve(model, sample_path(TimeGrid(1.0, 4), 3, seed=2))

    def test_solution_needs_one_state_per_grid_point(self):
        with pytest.raises(ValueError, match="one matrix per grid point"):
            PathSolution(TimeGrid(1.0, 4), np.zeros((4, 2, 2)))

    def test_self_refinement_strong_convergence(self):
        # halving the step shrinks the gap to the next refinement level
        model = wishart_model(2, 3.0, x0=SymmetricMatrix(4.0 * np.eye(2)), sqrt_clip_bound=100.0)
        # one stacked solve per grid: each path's states are those of the path
        # solved alone (TestEulerStack::test_stack_matches_each_path_alone)
        fine = [sample_path(TimeGrid(1.0, 128), 2, seed=909, path_index=i) for i in range(100)]
        sols = {n: [sol.states[-1] for sol in euler_solve_paths(
                    model, [coarsen_path(path, 128 // n) if n != 128 else path for path in fine])]
                for n in (32, 64, 128)}
        gaps = {n: [np.linalg.norm(a - b) for a, b in zip(sols[n], sols[2 * n])] for n in (32, 64)}
        assert np.median(gaps[64]) < np.median(gaps[32])

    def test_trace_moment_small_run(self):
        model = wishart_model(2, 3.0)
        grid = TimeGrid(1.0, 64)
        paths = [sample_path(grid, 2, seed=404, path_index=i) for i in range(500)]
        traces = np.array([np.trace(sol.states[-1]) for sol in euler_solve_paths(model, paths)])
        se = traces.std(ddof=1) / math.sqrt(len(traces))
        assert abs(traces.mean() - 6.0) <= 3.0 * se

    def test_batch_matches_per_path(self):
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2))
        grid = TimeGrid(1.0, 32)
        paths = [sample_path(grid, 2, seed=31, path_index=i) for i in range(5)]
        finals = euler_final_states(model, grid, np.stack([path.increments for path in paths], axis=1))
        for path, final in zip(paths, finals):
            assert np.array_equal(final, euler_solve(model, path).states[-1])

    @pytest.mark.parametrize("shape", [(8, 3, 2, 2), (16, 3, 3, 3), (16, 3, 2, 3), (16, 2, 2)])
    def test_final_states_refuse_a_block_of_another_shape(self, shape):
        model = wishart_model(2, 3.0)
        with pytest.raises(ValueError, match="increments must have shape"):
            euler_final_states(model, TimeGrid(1.0, 16), np.zeros(shape))


def _stepwise_euler(model, path):
    """States and min eigenvalues of one path stepped one state at a time: the
    reference for the stacked solve."""
    n, dt = path.grid.steps, path.grid.dt
    states = np.empty((n + 1, model.dim, model.dim))
    states[0] = model.x0.entries
    for k in range(n):
        states[k + 1] = _advance(model, states[k:k + 1], path.increments[k:k + 1], dt)[0]
    return states, np.array([min_eigenvalues_stack(states[k:k + 1])[0] for k in range(n + 1)])


def _stack_model(kind, d):
    if kind == "wishart":
        return wishart_model(d, 3.0, x0=SymmetricMatrix.identity(d))
    return SdeModel(g=clipped_affine_fn(0.5, 1.0, 4.0), f=clipped_sqrt_fn(10.0), b=constant_fn(0.3),
                    x0=SymmetricMatrix(np.diag(np.arange(2.0, 2.0 + d)) + 0.25))


class TestEulerStack:
    """`euler_solve_paths` steps all its paths as one stack, with the bits of
    each path stepped alone."""

    @pytest.mark.parametrize("kind", ["wishart", "custom"])
    @pytest.mark.parametrize("n_paths", [1, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_stack_matches_each_path_alone(self, d, n_paths, kind):
        model = _stack_model(kind, d)
        grid = TimeGrid(1.0, 16)
        paths = [sample_path(grid, d, seed=52, path_index=i) for i in range(n_paths)]
        solutions = euler_solve_paths(model, paths)
        assert len(solutions) == n_paths
        for path, sol in zip(paths, solutions):
            states, min_eigs = _stepwise_euler(model, path)
            alone = euler_solve(model, path)
            assert sol.states.tobytes() == alone.states.tobytes() == states.tobytes()
            assert sol.min_eigenvalues.tobytes() == alone.min_eigenvalues.tobytes() \
                == min_eigs.tobytes()
        finals = euler_final_states(model, grid, np.stack([path.increments for path in paths], axis=1))
        assert finals.tobytes() == np.stack([sol.states[-1] for sol in solutions]).tobytes()

    @pytest.mark.parametrize("other, match", [
        (None, "at least one path"),
        ((TimeGrid(2.0, 8), 2), "grid"),
        ((TimeGrid(1.0, 4), 2), "grid"),
        ((TimeGrid(1.0, 8), 3), "dimension"),
    ])
    def test_refusals(self, other, match):
        model = drift_only_model(SymmetricMatrix.zeros(2))
        path = sample_path(TimeGrid(1.0, 8), 2, seed=2)
        paths = [] if other is None else [path, sample_path(*other, seed=2, path_index=1)]
        with pytest.raises(ValueError, match=match):
            euler_solve_paths(model, paths)


class TestPicard:
    def test_pure_drift_fixed_point_after_one_iteration(self):
        grid = TimeGrid(1.0, 16)
        model = drift_only_model(SymmetricMatrix.zeros(2))
        sol, diag = picard_solve(model, BrownianPath(grid, np.zeros((grid.steps, 2, 2))))
        assert diag.converged
        assert diag.iterates_kept == 2
        assert diag.d_n[-1] == 0.0
        np.testing.assert_allclose(sol.states, grid.times[:, None, None] * np.eye(2), atol=1e-12)

    def test_state_independent_coefficients_fixed_point(self):
        grid = TimeGrid(1.0, 8)
        model = SdeModel(g=constant_fn(0.7), f=constant_fn(1.3), b=constant_fn(-0.2),
                         x0=SymmetricMatrix.identity(2))
        _, diag = picard_solve(model, sample_path(grid, 2, seed=3))
        assert diag.converged
        assert diag.iterates_kept == 2
        # constant coefficients lift to exact multiples of I, so the second
        # iterate repeats the first bit for bit
        assert diag.d_n[1] == 0.0

    def test_iterate_built_from_module_integrals(self):
        # one Picard iterate from the constant start equals X0 plus a plain
        # left-point drift sum plus the loop-built Ito integral M + M^T
        grid = TimeGrid(1.0, 8)
        model = wishart_model(2, 2.0, x0=SymmetricMatrix(4.0 * np.eye(2)))
        path = sample_path(grid, 2, seed=5)
        sol, diag = picard_solve(model, path, max_iter=1)

        g0 = apply_scalar_fn(model.g, model.x0).entries
        f0 = apply_scalar_fn(model.f, model.x0).entries
        b0 = apply_scalar_fn(model.b, model.x0).entries
        for k in (0, 3, 8):
            drift = np.zeros((2, 2))
            for _ in range(k):
                drift += b0 * grid.dt
            m = entrywise_ito([g0] * k, [f0] * k, path.increments[:k])
            expected = model.x0.entries + drift + m + m.T
            np.testing.assert_allclose(sol.states[k], expected, atol=1e-12)

    def test_squared_bessel_contracts_factorially(self):
        # scalar clipped-sqrt model: distances fall super-geometrically
        model = wishart_model(1, 2.0, x0=SymmetricMatrix([[4.0]]), sqrt_clip_bound=10.0)
        path = sample_path(TimeGrid(1.0, 128), 1, seed=6)
        _, diag = picard_solve(model, path)
        assert diag.converged
        s = diag.d_n
        assert all(s[i + 1] < s[i] for i in range(2, len(s) - 1))
        fit = diag.rate_fit
        assert fit is not None and fit.beta > 0
        # fitted factorial-decay envelope stays close to the data
        worst = max(
            math.log(v) - (math.log(fit.c) + k * math.log(fit.beta) - math.lgamma(k + 1))
            for k, v in enumerate(s, start=1)
            if v > 0 and k > 2
        )
        assert math.exp(worst) < 10.0

    def test_matches_euler_on_same_grid(self):
        # the discrete integral equation's fixed point is the Euler recursion
        grid = TimeGrid(1.0, 64)
        model = wishart_model(2, 3.0, x0=SymmetricMatrix(16.0 * np.eye(2)), sqrt_clip_bound=10.0)
        path = sample_path(grid, 2, seed=7)
        pic, diag = picard_solve(model, path)
        assert diag.converged
        eul = euler_solve(model, path)
        assert np.abs(pic.states - eul.states).max() < 1e-8

    def test_states_exactly_symmetric(self):
        grid = TimeGrid(1.0, 32)
        model = wishart_model(2, 3.0, x0=SymmetricMatrix(9.0 * np.eye(2)), sqrt_clip_bound=10.0)
        sol, _ = picard_solve(model, sample_path(grid, 2, seed=8))
        assert (sol.states == sol.states.transpose(0, 2, 1)).all()

    def test_dimension_mismatch(self):
        model = drift_only_model(SymmetricMatrix.zeros(2))
        with pytest.raises(ValueError, match="dimension mismatch"):
            picard_solve(model, sample_path(TimeGrid(1.0, 4), 3, seed=2))

    def test_non_convergence_reported_not_raised(self):
        grid = TimeGrid(1.0, 32)
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2), sqrt_clip_bound=10.0)
        _, diag = picard_solve(model, sample_path(grid, 2, seed=9), max_iter=2)
        assert not diag.converged
        assert diag.iterates_kept == 2

    @pytest.mark.parametrize("max_iter, stop_tol", [
        (0, 1e-10), (-1, 1e-10),
        (25, 0.0), (25, -1e-10), (25, float("nan")), (25, float("inf")),
    ])
    def test_settings_without_an_answer_refused(self, max_iter, stop_tol):
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2), sqrt_clip_bound=10.0)
        path = sample_path(TimeGrid(1.0, 4), 2, seed=9)
        with pytest.raises(ValueError, match="max_iter" if max_iter < 1 else "stop_tol"):
            picard_solve(model, path, max_iter=max_iter, stop_tol=stop_tol)

    @pytest.mark.parametrize("max_iter, message", [
        (2.5, "max_iter must be a positive integer"), (2.0, "max_iter must be a positive integer"),
        (True, "max_iter must be a positive integer"), (np.True_, "max_iter must be a positive integer"),
        (0, "max_iter must be at least 1, got 0"), (np.int64(-1), "max_iter must be at least 1, got -1"),
    ])
    def test_max_iter_must_be_an_integer_of_at_least_one(self, max_iter, message):
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2), sqrt_clip_bound=10.0)
        path = sample_path(TimeGrid(1.0, 4), 2, seed=9)
        with pytest.raises(ValueError) as raised:
            picard_solve(model, path, max_iter=max_iter)
        assert str(raised.value) == message

    def test_numpy_integer_max_iter_is_taken(self):
        model = wishart_model(2, 3.0, x0=SymmetricMatrix.identity(2), sqrt_clip_bound=10.0)
        path = sample_path(TimeGrid(1.0, 4), 2, seed=9)
        sol, diag = picard_solve(model, path, max_iter=np.int32(2))
        again, _ = picard_solve(model, path, max_iter=2)
        assert diag.iterates_kept == 2
        np.testing.assert_array_equal(sol.states, again.states)

    def test_overflowing_iterate_refused_at_once(self):
        # a constant drift of 1e308 overflows the first iterate; the huge
        # max_iter shows the solve stops there instead of iterating on
        model = drift_only_model(SymmetricMatrix(1e308 * np.eye(2)), drift_value=1e308)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(ValueError, match="Picard iterate 1 is not finite"):
            picard_solve(model, sample_path(TimeGrid(1.0, 4), 2, seed=9), max_iter=2 ** 62)

    def test_drift_only_matches_closed_form_ode(self):
        # b(x) = 1 - x/2 drives each eigenvalue along l(t) = 2 + (l0 - 2) e^{-t/2}
        n = 512
        grid = TimeGrid(1.0, n)
        x0 = SymmetricMatrix.diagonal([0.5, 3.0])
        model = SdeModel(
            g=constant_fn(0.0),
            f=constant_fn(0.0),
            b=clipped_affine_fn(-0.5, 1.0, bound=50.0),
            x0=x0,
        )
        sol, diag = picard_solve(model, BrownianPath(grid, np.zeros((grid.steps, 2, 2))))
        assert diag.converged
        closed = np.diag([2.0 + (v - 2.0) * math.exp(-0.5) for v in (0.5, 3.0)])
        assert np.abs(sol.states[-1] - closed).max() < 5.0 / n

    def test_custom_test_vectors(self):
        tv = default_test_vectors(3)
        assert tv.shape == (11, 3)
        np.testing.assert_array_equal(tv[:3], np.eye(3))
        np.testing.assert_allclose(np.linalg.norm(tv, axis=1), np.ones(11), atol=1e-12)
        np.testing.assert_array_equal(tv, default_test_vectors(3))
        # built once per dimension: every call returns the same read-only array
        assert default_test_vectors(3) is tv
        assert not tv.flags.writeable
        with pytest.raises(ValueError):
            tv[0, 0] = 2.0
        raw = np.random.default_rng(0).standard_normal((8, 3))
        seeded = np.vstack([np.eye(3), raw / np.linalg.norm(raw, axis=1, keepdims=True)])
        assert tv.tobytes() == seeded.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_sweep_distance_keeps_the_stacked_sum_bits(self, d):
        # the k-th distance, from the iterates after k - 1 and k sweeps, equals
        # the sum over the length-d axis that numpy takes in one reduction
        model = wishart_model(d, float(d), x0=SymmetricMatrix(16.0 * np.eye(d)),
                              sqrt_clip_bound=10.0)
        path = sample_path(TimeGrid(1.0, 64), d, seed=4)
        tv = default_test_vectors(d)
        before, _ = picard_solve(model, path, max_iter=1)
        for k in range(2, 7):
            after, diag = picard_solve(model, path, max_iter=k)
            assert not diag.converged and diag.iterates_kept == k
            diff = after.states - before.states
            quad = (diff.reshape(-1, d) @ tv.T).reshape(len(diff), d, -1) * tv.T
            assert diag.d_n[k - 1] == float(np.abs(quad.sum(axis=1)).max()), k
            before = after


class TestRateFit:
    def test_recovers_planted_rate(self):
        c, beta, horizon = 0.5, 4.0, 1.0
        seq = [c * (beta * horizon) ** k / math.factorial(k) for k in range(1, 15)]
        fit = fit_contraction_rate(seq, horizon)
        assert fit is not None
        assert abs(fit.beta - beta) < 1e-8
        assert abs(fit.c - c) < 1e-8
        assert abs(fit.bound_at(5, horizon) - seq[4]) < 1e-12

    def test_too_few_points(self):
        assert fit_contraction_rate([1.0, 0.5], 1.0) is None
        assert fit_contraction_rate([0.0, 0.0, 0.0, 0.0], 1.0) is None
