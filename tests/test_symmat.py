"""Core symmetric-matrix layer: decomposition, functional calculus, the PSD predicate."""

import math
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from matrixdiff import sde, symmat
from matrixdiff.brownian import TimeGrid, sample_path
from matrixdiff.integrals import MatrixProcess
from matrixdiff.symmat import (
    EigensolverError,
    NonFiniteValueError,
    ScalarFunctionSpec,
    SymmetricMatrix,
    apply_scalar_fn,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
    is_psd,
    matrix_sqrt,
    min_eigenvalues_stack,
    spectral_decompose,
    spectral_decompose_stack,
)
from matrixdiff.sde import picard_solve, wishart_model
from reference import frobenius_max_scaled, jacobi_lift, jacobi_stack


IDENTITY = ScalarFunctionSpec(fn=lambda x: np.asarray(x, dtype=np.float64).copy(), name="identity")


def random_symmetric(rng, d, scale=1.0):
    raw = rng.standard_normal((d, d))
    return SymmetricMatrix(scale * 0.5 * (raw + raw.T))


def _spy_rescaled(monkeypatch):
    """The stacks that reach the reconstruction guard's rescaled branch, one
    per guard call: the `_unit` calls that `_check_reconstruction` makes."""
    unit, seen = symmat._unit, []

    def spy(a):
        if sys._getframe(1).f_code.co_name == "_check_reconstruction":
            seen.append(a.copy())
        return unit(a)

    monkeypatch.setattr(symmat, "_unit", spy)
    return seen


def reassemble(dec):
    """Q diag(lambda) Q^T of a `SpectralDecomposition`, as a plain array."""
    return (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.T


class TestConstruction:
    def test_symmetrizes_float_drift(self):
        m = np.array([[1.0, 2.0 + 1e-12], [2.0, 3.0]])
        a = SymmetricMatrix(m)
        assert (a.entries == a.entries.T).all()

    def test_rejects_genuinely_asymmetric(self):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[1.0, 2.0], [0.5, 3.0]])

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="finite"):
            SymmetricMatrix([[np.inf, 0.0], [0.0, 1.0]])

    def test_rejects_an_asymmetry_that_overflows(self):
        # M - M^T overflows to inf, and its norm to NaN: refused, not read as 0
        with pytest.raises(ValueError, match="not symmetric: .* = inf exceeds"):
            SymmetricMatrix([[0.0, 1e308], [-1e308, 0.0]])

    @pytest.mark.parametrize("value", [1.5e-323, 5e-324])
    def test_keeps_subnormal_entries(self, value):
        # halving and re-adding would round them to an even number of ulps
        assert SymmetricMatrix([[value, value], [value, value]]).entries[0, 0] == value
        assert SymmetricMatrix([[value]]).entries[0, 0] == value

    @pytest.mark.parametrize("shape", [(2, 3), (0, 0)])
    def test_rejects_non_square(self, shape):
        with pytest.raises(ValueError, match="square"):
            SymmetricMatrix(np.ones(shape))

    def test_entries_read_only(self):
        a = SymmetricMatrix.identity(3)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_zero_matrix_accepted(self):
        a = SymmetricMatrix.zeros(4)
        assert a.frobenius_norm() == 0.0


class TestSpectralDecompose:
    def test_already_diagonal(self):
        dec = spectral_decompose(SymmetricMatrix.diagonal([3.0, 1.0]))
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-14)
        # columns are signed permutation vectors
        np.testing.assert_allclose(np.abs(dec.eigenvectors), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    def test_identity_degenerate(self):
        a = SymmetricMatrix.identity(4)
        dec = spectral_decompose(a)
        np.testing.assert_allclose(dec.eigenvalues, np.ones(4), atol=1e-14)
        np.testing.assert_allclose(reassemble(dec), np.eye(4), atol=1e-12)

    def test_two_by_two_hand_case(self):
        # characteristic polynomial of [[2,1],[1,2]] gives 1 and 3
        a = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        dec = spectral_decompose(a)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors),
                                   np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-12)
        np.testing.assert_allclose(reassemble(dec), a.entries, atol=1e-12)

    def test_round_trip_many(self):
        rng = np.random.default_rng(101)
        for d in (2, 3, 5, 8):
            for _ in range(125):
                a = random_symmetric(rng, d, scale=rng.uniform(0.1, 10.0))
                dec = spectral_decompose(a)
                tol = 1e-8 * max(1.0, a.frobenius_norm())
                assert np.linalg.norm(reassemble(dec) - a.entries) <= tol
                assert (np.diff(dec.eigenvalues) >= 0).all()
                q = dec.eigenvectors
                assert np.linalg.norm(q.T @ q - np.eye(d)) <= 1e-10

    def test_matches_lapack_eigenvalues(self):
        # independent oracle: LAPACK via numpy
        rng = np.random.default_rng(55)
        for d in (2, 3, 5, 8):
            stack = rng.standard_normal((64, d, d))
            stack = 0.5 * (stack + stack.transpose(0, 2, 1))
            lam, _ = spectral_decompose_stack(stack)
            expected = np.linalg.eigvalsh(stack)
            np.testing.assert_allclose(lam, expected, atol=1e-10)

    def test_stack_matches_single(self):
        rng = np.random.default_rng(7)
        stack = rng.standard_normal((5, 3, 3))
        stack = 0.5 * (stack + stack.transpose(0, 2, 1))
        lam, vec = spectral_decompose_stack(stack)
        for i in range(5):
            dec = spectral_decompose(SymmetricMatrix(stack[i]))
            np.testing.assert_allclose(lam[i], dec.eigenvalues, atol=1e-12)

    def test_guard_rejects_perturbed_decomposition(self, monkeypatch):
        solve = symmat._eig_stack

        def perturbed(stack):
            lam, vec = solve(stack)
            return lam * (1.0 + 1e-6), vec

        monkeypatch.setattr(symmat, "_eig_stack", perturbed)
        rng = np.random.default_rng(8)
        for d in (1, 2, 3, 5):
            for scale in (1.0, 1e160, 1e-160):
                stack = scale * (rng.standard_normal((4, d, d)) + 3.0 * np.eye(d))
                stack = 0.5 * (stack + stack.transpose(0, 2, 1))
                with pytest.raises(EigensolverError, match="reconstruction residual"):
                    spectral_decompose_stack(stack)

    def test_picard_from_zero_checks_only_its_zero_states(self, monkeypatch):
        # a zero matrix is one the plain sums cannot vouch for (its ||A||^2 is
        # below _SUMSQ_LOW); it alone takes the rescaled branch, not the
        # stack of every Picard sweep, which keeps X0 = 0 at t = 0
        lift, lifted = sde.lift_2x2, []
        rescaled = _spy_rescaled(monkeypatch)

        def recording(stack, specs):
            lifted.append(np.array(stack))
            return lift(stack, specs)

        model = wishart_model(2, 3.0)
        path = sample_path(TimeGrid(1.0, 64), 2, seed=5, path_index=0)
        monkeypatch.setattr(sde, "lift_2x2", recording)
        _, diag = picard_solve(model, path, max_iter=25, stop_tol=1e-300)
        assert diag.iterates_kept == len(lifted) == 25
        zeros = sum(int((~stack.reshape(len(stack), -1).any(axis=1)).sum())
                    for stack in lifted)
        assert zeros > len(lifted)  # the first sweep's whole stack, and one per sweep
        assert sum(len(stack) for stack in rescaled) == zeros
        assert not any(stack.any() for stack in rescaled)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_check_takes_only_the_matrices_the_first_stage_is_unsure_of(self, d, monkeypatch):
        # ||A||^2 of the zero matrix and of the one at 1e-160 lies below
        # _SUMSQ_LOW, so the plain sums cannot vouch for them; the moderate
        # matrices around them reconstruct well inside the bound
        rescaled = _spy_rescaled(monkeypatch)
        raw = np.random.default_rng(d).standard_normal((6, d, d))
        stack = raw + raw.transpose(0, 2, 1)
        stack[1] = 0.0
        stack[4] *= 1e-160
        spectral_decompose_stack(stack)
        assert len(rescaled) == 1
        np.testing.assert_array_equal(rescaled[0], stack[[1, 4]])

    def test_error_names_the_first_refused_matrix(self, monkeypatch):
        # only the tiny matrix is refused, over its own scale; the error words
        # its own residual and bound, not the stack's largest of each
        solve = symmat._eig_stack

        def perturbed(stack):
            lam, vec = solve(stack)
            return np.where(np.abs(lam) < 1e-100, lam * (1.0 + 1e-6), lam), vec

        monkeypatch.setattr(symmat, "_eig_stack", perturbed)
        stack = np.array([[[3.0, 0.0], [0.0, 2.0]], [[3e-200, 1e-200], [1e-200, 2e-200]]])
        lam, vec = perturbed(stack)
        lift = np.einsum("mik,mk,mjk->mij", vec, lam, vec)
        resid = frobenius_max_scaled(lift - stack)[1]
        bound = symmat.RECONSTRUCTION_RTOL * frobenius_max_scaled(stack)[1]
        with pytest.raises(EigensolverError) as raised:
            spectral_decompose_stack(stack)
        assert str(raised.value) == (f"eigendecomposition reconstruction residual "
                                     f"{resid:.3e} exceeds tolerance {bound:.3e} (matrix 1 of 2)")
        assert str(raised.value).startswith("eigendecomposition reconstruction residual "
                                            "3.873e-206 exceeds tolerance 3.873e-208")

    @pytest.mark.parametrize("case", ["passes", "holds a zero matrix", "is refused"])
    def test_each_matrix_is_lifted_once(self, case, monkeypatch):
        # one lift of the whole stack judges every matrix, whether the plain
        # sums vouch for it, it is rescaled, or it is refused
        lift, calls = symmat._lift, []

        def counting(vec, vals):
            calls.append(len(vec))
            return lift(vec, vals)

        stack = np.array([[[3.0, 1.0], [1.0, 2.0]], [[3e-200, 1e-200], [1e-200, 2e-200]]])
        if case == "holds a zero matrix":
            stack[1] = 0.0
        elif case == "is refused":
            solve = symmat._eig_stack
            monkeypatch.setattr(symmat, "_eig_stack",
                                lambda arr: (solve(arr)[0] * (1.0 + 1e-6), solve(arr)[1]))
        else:
            stack[1] *= 1e200
        monkeypatch.setattr(symmat, "_lift", counting)
        try:
            spectral_decompose_stack(stack)
        except EigensolverError:
            assert case == "is refused"
        assert calls == [2]

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("scale", [1e-315, 1e-320])
    def test_subnormal_stacks_decompose(self, d, scale):
        # the relative guard keeps a floor at the smallest normal double, so
        # subnormal stacks, which reconstruct to ~1e-322 absolute, still pass
        stack = np.random.default_rng(9).standard_normal((16, d, d))
        stack = scale * (stack + stack.transpose(0, 2, 1))
        lam, _ = spectral_decompose_stack(stack)
        assert np.isfinite(lam).all()

    def test_rejects_non_finite_stack(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(EigensolverError, match="non-finite"):
                spectral_decompose_stack(np.array([[[1.0, bad], [bad, 1.0]]]))

    def test_min_eigenvalues_stack(self):
        stack = np.stack([np.diag([2.0, -3.0]), np.eye(2)])
        np.testing.assert_allclose(min_eigenvalues_stack(stack), [-3.0, 1.0], atol=1e-14)

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_returns_sorted_eigenvalues_and_orthonormal_columns(self, d):
        rng = np.random.default_rng(40 + d)
        raw = rng.standard_normal((48, d, d))
        stack = raw + raw.transpose(0, 2, 1)
        stack[:16] *= 10.0 ** rng.integers(-150, 151, 16)[:, None, None]
        stack[16:20] = np.eye(d)  # one eigenvalue d times
        stack[20:24] = np.diag(np.repeat([-1.0, 2.0], d)[:d])
        lam, vec = spectral_decompose_stack(stack)
        gram = vec.transpose(0, 2, 1) @ vec - np.eye(d)
        assert (np.diff(lam, axis=1) >= 0.0).all()
        assert (np.linalg.norm(gram, axis=(1, 2)) <= 1e-10).all()
        for matrix in stack[::7]:
            dec = spectral_decompose(SymmetricMatrix(matrix))
            assert (np.diff(dec.eigenvalues) >= 0.0).all()
            assert np.linalg.norm(dec.eigenvectors.T @ dec.eigenvectors - np.eye(d)) <= 1e-10

    def test_one_by_one_keeps_the_entrys_bits(self):
        # at d = 1 the eigenvalue is the entry and the eigenvector +1.0, bit for
        # bit, whether the matrix is alone or in a stack: signed zero,
        # subnormals, the smallest normal and the largest doubles included
        entries = np.array([-0.0, 5e-324, -5e-324, 2.2e-308, 1.0, -3.5,
                            1.7976931348623157e308, -1.7976931348623157e308])
        one = np.ones((1, 1)).tobytes()
        stack = entries[:, None, None]
        lam, vec = spectral_decompose_stack(stack)
        assert lam.tobytes() == entries.tobytes() and lam.shape == (entries.size, 1)
        assert vec.tobytes() == one * entries.size and vec.shape == stack.shape
        assert min_eigenvalues_stack(stack).tobytes() == entries.tobytes()
        for k, entry in enumerate(entries):
            alone = stack[k:k + 1]
            lam, vec = spectral_decompose_stack(alone)
            assert lam.tobytes() == entry.tobytes() and vec.tobytes() == one
            dec = spectral_decompose(SymmetricMatrix(alone[0]))
            assert dec.eigenvalues.tobytes() == entry.tobytes()
            assert dec.eigenvectors.tobytes() == one
            assert min_eigenvalues_stack(alone).tobytes() == entry.tobytes()


class TestMinEigenvalues:
    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_no_false_alarm_at_any_scale(self, d):
        # the guard's power sums are taken on A / max |A_ij|: nothing overflows
        # at 1e300 or underflows at 1e-300, and a zero or subnormal A passes
        rng = np.random.default_rng(60 + d)
        raw = rng.standard_normal((4, d, d))
        unit = (raw + raw.transpose(0, 2, 1)) / 8.0
        scales = 10.0 ** np.arange(-300, 301, 50)
        stacks = [np.zeros((2, d, d)), np.round(unit * 64.0) * 5e-324, np.full((1, d, d), 5e-324)]
        stacks += [scale * unit for scale in scales]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lam = [min_eigenvalues_stack(stack) for stack in stacks]
            mixed = min_eigenvalues_stack(np.concatenate(stacks))
        assert mixed.tobytes() == np.concatenate(lam).tobytes()
        assert (lam[0] == 0.0).all() and np.isfinite(mixed).all()
        ref, norms = min_eigenvalues_stack(unit), frobenius_max_scaled(unit)
        for scale, got in zip(scales, lam[-len(scales):]):
            assert (np.abs(got / scale - ref) <= 1e-12 * norms).all()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_refuses_non_finite_entries(self, bad):
        with pytest.raises(EigensolverError, match="non-finite"):
            min_eigenvalues_stack(np.array([[[1.0, 0.0, 0.0], [0.0, bad, 0.0], [0.0, 0.0, 1.0]]]))


class TestExtremeScales:
    # squaring 1e160 entries overflows and 1e-160 entries underflows, so
    # norms that square unscaled entries blind every guard at these scales
    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_two_by_two_eigenvalues(self, scale):
        a = SymmetricMatrix([[scale, 2 * scale], [2 * scale, scale]])
        dec = spectral_decompose(a)
        np.testing.assert_allclose(dec.eigenvalues, [-scale, 3 * scale], rtol=1e-14)
        assert not is_psd(a)
        np.testing.assert_allclose(a.frobenius_norm(), np.sqrt(10.0) * scale, rtol=1e-14)

    @pytest.mark.parametrize("d", [3, 5])
    def test_entries_whose_double_overflows(self, d):
        # R + R^T of the lift overflows past 8.99e307, but A's norm stays
        # finite: 1e308 on three diagonal entries, and A = Q diag(lam) Q^T with
        # lam_max = 1.7e308 and Q near I, symmetric from its upper triangle
        rng = np.random.default_rng(90 + d)
        q = np.linalg.qr(np.eye(d) + 0.01 * rng.standard_normal((4, d, d)))[0]
        lam = np.sort(np.concatenate(
            [rng.uniform(-1e306, 1e306, (4, d - 1)), np.full((4, 1), 1.7e308)], axis=1), axis=1)
        r = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
        stack = np.triu(r) + np.triu(r, 1).transpose(0, 2, 1)
        diag = np.diag([1e308] * 3 + [0.0] * (d - 3))[None]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, vec = spectral_decompose_stack(np.concatenate([diag, stack]))
            lifted = symmat._lift(vec, got)
        assert got[0].tobytes() == np.array([0.0] * (d - 3) + [1e308] * 3).tobytes()
        assert (np.abs(got[1:] - lam) <= 1e-12 * 1.7e308).all()
        assert np.isfinite(lifted).all()
        assert lifted.tobytes() == np.ascontiguousarray(lifted.transpose(0, 2, 1)).tobytes()

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_rejects_asymmetric(self, scale):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[scale, 2 * scale], [-5 * scale, scale]])

    @pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300, 1e308])
    def test_rejects_asymmetric_where_the_norm_overflows(self, scale):
        # at 1e308 ||M||_F = 2.24e308 overflows; the asymmetry, 6.3e-4 of it,
        # is judged over M's own scale and refused as at every other scale
        m = scale * np.eye(5)
        m[0, 1] = 1e-3 * scale
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="not symmetric: .* = 1.414e"):
                SymmetricMatrix(m)

    def test_guard_rejects_perturbed_decomposition_where_the_norm_overflows(self, monkeypatch):
        # ||A||_F of 1e308 I_5 overflows, so a bound taken at A's scale would
        # be inf and pass eigenvalues moved by 1e302
        solve = symmat._eig_stack

        def perturbed(stack):
            lam, vec = solve(stack)
            return lam * (1.0 + 1e-6), vec

        monkeypatch.setattr(symmat, "_eig_stack", perturbed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EigensolverError, match=r"residual 2\.236e\+302 exceeds "
                                                       r"tolerance 2\.236e\+300"):
                spectral_decompose_stack(1e308 * np.eye(5)[None])
            monkeypatch.setattr(symmat, "_eig_stack", solve)
            lam, _ = spectral_decompose_stack(1e308 * np.eye(5)[None])
        assert (lam == 1e308).all()

    def test_symmetrizes_near_the_float_limit(self):
        a = SymmetricMatrix([[1.0, 1e308], [1e308, 1.0]])
        np.testing.assert_array_equal(a.entries, [[1.0, 1e308], [1e308, 1.0]])

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_larger_dimensions(self, scale):
        lam = np.array([-2.0, 0.5, 1.0, 4.0])
        q, _ = np.linalg.qr(np.random.default_rng(4).standard_normal((4, 4)))
        a = SymmetricMatrix(scale * (q * lam) @ q.T)
        np.testing.assert_allclose(spectral_decompose(a).eigenvalues, scale * lam, rtol=1e-12)
        assert not is_psd(a)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_frobenius_matches_max_scaled_reference(self, d):
        # an unscaled sum of squares would overflow at 1e308 and underflow at
        # 1e-150 and below; the max-scaled norm stays relative at every scale
        rng = np.random.default_rng(11)
        unit = rng.standard_normal((8, d, d))
        unit /= np.linalg.norm(unit, axis=(1, 2), keepdims=True)  # so 1e308 * unit has a finite norm
        scales = (1.0, 1e150, 1e-150, 1e308, 1e-315, 1e-320, 0.0)
        mixed = np.concatenate([scale * unit[:2] for scale in scales])
        lopsided = unit.copy()
        lopsided[:, 0, 0] = 1e200
        lopsided[:, -1, -1] = 1e-200
        for stack in [scale * unit for scale in scales] + [mixed, lopsided, -lopsided]:
            norms, ref = symmat._frobenius(stack), frobenius_max_scaled(stack)
            assert norms.shape == ref.shape
            assert (np.abs(norms - ref) <= 1e-15 * ref).all()
            for i in range(0, stack.shape[0], 5):
                assert symmat._frobenius(stack[i]) == norms[i]


class TestFunctionalCalculus:
    def test_identity_fn_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 4)
        out = apply_scalar_fn(IDENTITY, a)
        np.testing.assert_allclose(out.entries, a.entries, atol=1e-10)

    def test_sqrt_on_diagonal(self):
        a = SymmetricMatrix.diagonal([1.0, 4.0])
        out = apply_scalar_fn(clipped_sqrt_fn(1e6), a)
        np.testing.assert_allclose(out.entries, np.diag([1.0, 2.0]), atol=1e-12)

    def test_sqrt_hand_case(self):
        # closed form for [[2,1],[1,2]]: entries (sqrt(3) +/- 1)/2
        a = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        out = matrix_sqrt(a)
        r3 = np.sqrt(3.0)
        expected = np.array([[(r3 + 1) / 2, (r3 - 1) / 2], [(r3 - 1) / 2, (r3 + 1) / 2]])
        np.testing.assert_allclose(out.entries, expected, atol=1e-10)
        np.testing.assert_allclose(out.entries @ out.entries, a.entries, atol=1e-8)

    def test_matrix_sqrt_edges(self):
        np.testing.assert_array_equal(matrix_sqrt(SymmetricMatrix.zeros(3)).entries, np.zeros((3, 3)))
        np.testing.assert_allclose(matrix_sqrt(SymmetricMatrix.identity(3)).entries, np.eye(3), atol=1e-12)
        np.testing.assert_allclose(
            matrix_sqrt(SymmetricMatrix.diagonal([4.0, 9.0])).entries, np.diag([2.0, 3.0]), atol=1e-12
        )

    def test_sqrt_clips_negative_eigenvalues(self):
        a = SymmetricMatrix.diagonal([-1.0, 4.0])
        out = matrix_sqrt(a)
        np.testing.assert_allclose(out.entries, np.diag([0.0, 2.0]), atol=1e-12)
        assert is_psd(out, tol=1e-12)

    def test_result_commutes_with_input(self):
        rng = np.random.default_rng(17)
        a = random_symmetric(rng, 5)
        out = apply_scalar_fn(ScalarFunctionSpec(fn=np.tanh, name="tanh"), a)
        comm = out.entries @ a.entries - a.entries @ out.entries
        assert np.linalg.norm(comm) <= 1e-8

    def test_spectral_mapping_multiset(self):
        rng = np.random.default_rng(23)
        spec = ScalarFunctionSpec(fn=lambda x: np.exp(-x * x), name="gauss")
        for d in (2, 3, 5):
            a = random_symmetric(rng, d)
            lam = spectral_decompose(a).eigenvalues
            out_lam = spectral_decompose(apply_scalar_fn(spec, a)).eigenvalues
            np.testing.assert_allclose(np.sort(out_lam), np.sort(spec.fn(lam)), atol=1e-8)

    def test_square_lift_agrees_with_product(self):
        rng = np.random.default_rng(31)
        spec = ScalarFunctionSpec(fn=lambda x: x * x, name="square")
        for _ in range(20):
            raw = rng.standard_normal((4, 4))
            a = SymmetricMatrix(raw @ raw.T)
            lifted = apply_scalar_fn(spec, a)
            np.testing.assert_allclose(lifted.entries, a.entries @ a.entries, atol=1e-8)

    def test_clip_policy_is_default_for_wishart_sqrt(self):
        spec = clipped_sqrt_fn(10.0)
        assert spec.bound == 10.0
        np.testing.assert_allclose(spec.map_eigenvalues(np.array([-4.0, 144.0, 4.0])),
                                   [0.0, 10.0, 2.0])

    def test_square_roots_clamp_their_own_domain_bit_for_bit(self):
        # pinned bytes, which a clamp taken as a step of its own before sqrt gives
        # too: -inf, negatives and -0.0 all map to +0.0
        lam = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 4.0, 144.0, 1e308])
        assert clipped_sqrt_fn(10.0).map_eigenvalues(lam).tobytes() == bytes.fromhex(
            "00" * 40 + "000000000000601e" "0000000000000040" "0000000000002440" "0000000000002440")
        assert matrix_sqrt(SymmetricMatrix.diagonal([4.0, -1.0])).entries.tobytes() \
            == bytes.fromhex("0000000000000040" + "00" * 24)
        assert matrix_sqrt(SymmetricMatrix([[-0.0, 0.0], [0.0, 1.0]])).entries.tobytes() \
            == bytes.fromhex("00" * 24 + "000000000000f03f")

    def test_constant_and_affine_factories(self):
        lam = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_array_equal(constant_fn(3.0).map_eigenvalues(lam), [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(clipped_affine_fn(2.0, -1.0, 10.0).map_eigenvalues(lam),
                                      [-3.0, -1.0, 4.0])

    @pytest.mark.parametrize("bound", [0.0, -1.0, float("nan"), float("inf"), 1e999])
    def test_declared_bound_must_be_positive_and_finite(self, bound):
        # json reads 1e999 as inf: an infinite bound declares nothing bounded
        with pytest.raises(ValueError, match="bound"):
            ScalarFunctionSpec(fn=np.tanh, bound=bound)
        with pytest.raises(ValueError, match="bound"):
            clipped_sqrt_fn(bound)
        with pytest.raises(ValueError, match="bound"):
            clipped_affine_fn(1.0, 0.0, bound)

    def test_constant_declaration(self):
        assert constant_fn(3.0).constant and constant_fn(3.0).constant_value == 3.0
        one = ScalarFunctionSpec(fn=lambda x: 0.0 * np.asarray(x, dtype=np.float64) + 1.0)
        for spec in (IDENTITY, one, clipped_affine_fn(1.0, -100.0, 1.0), clipped_sqrt_fn(2.0)):
            assert not spec.constant
            with pytest.raises(ValueError, match="not declared constant"):
                spec.constant_value


class TestOrderPredicates:
    def test_is_psd_examples(self):
        assert is_psd(SymmetricMatrix.identity(3), tol=0.0)
        assert not is_psd(SymmetricMatrix.diagonal([1.0, -1.0]), tol=0.0)
        assert is_psd(SymmetricMatrix.diagonal([-1e-12, 1.0]), tol=1e-10)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf")])
    def test_is_psd_rejects_negative_tol(self, tol):
        # a NaN tolerance would read every matrix as not PSD, and an infinite
        # one diag(1, -1) as PSD
        with pytest.raises(ValueError, match="^tol must be finite and non-negative$"):
            is_psd(SymmetricMatrix.diagonal([1.0, -1.0]), tol=tol)

    def test_psd_iff_quadratic_forms_nonnegative(self):
        rng = np.random.default_rng(2718)
        for d in (2, 4):
            raw = rng.standard_normal((d, d))
            psd = SymmetricMatrix(raw @ raw.T)
            indef = random_symmetric(rng, d, scale=2.0)
            xs = rng.standard_normal((1000, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            psd_forms = np.array([x @ psd.entries @ x for x in xs])
            assert psd_forms.min() >= -1e-10
            assert is_psd(psd, tol=1e-10)
            if not is_psd(indef, tol=0.0):
                indef_forms = np.array([x @ indef.entries @ x for x in xs])
                assert indef_forms.min() < -1e-10


@pytest.mark.parametrize("call, error, match", [
    pytest.param(lambda: ScalarFunctionSpec(fn=np.sum).map_eigenvalues(np.ones(3)),
                 ValueError, "elementwise", id="not-elementwise"),
    pytest.param(lambda: ScalarFunctionSpec(fn=lambda x: np.full_like(x, np.inf))
                 .map_eigenvalues(np.ones(3)), NonFiniteValueError, "non-finite", id="non-finite"),
])
def test_refusals_name_their_cause(call, error, match):
    with pytest.raises(error, match=match):
        call()


# every finite magnitude, from the smallest subnormal to near the float limit
_ENTRIES = st.floats(-1.7e308, 1.7e308, allow_nan=False, allow_infinity=False)


@st.composite
def square_stacks(draw, mirrored_only=False):
    """Stacks of 2 to 4 (d, d) matrices, d in {1, 2, 3}, each either mirrored
    (exactly symmetric) or with its lower triangle moved off the mirror: by
    one ulp, by a relative 5e-9 to 2e-8 around the refusal threshold, or freely."""
    d = draw(st.sampled_from((1, 2, 3)))
    m = draw(st.integers(2, 4))
    raw = np.array(draw(st.lists(_ENTRIES, min_size=m * d * d, max_size=m * d * d)))
    raw = raw.reshape(m, d, d)
    lower = np.tril(np.ones((d, d), dtype=bool), -1)
    stack = np.where(lower, raw.transpose(0, 2, 1), raw)  # mirrored bit for bit
    kinds = ("mirror",) if mirrored_only else ("mirror", "ulp", "relative", "free")
    for k in range(m):
        kind = draw(st.sampled_from(kinds))
        upper = stack[k].T[lower]
        if kind == "ulp":
            stack[k][lower] = np.nextafter(upper, np.inf)
        elif kind == "relative":
            stack[k][lower] = upper * (1.0 + draw(st.sampled_from((5e-9, 1e-8, 2e-8))))
        elif kind == "free":
            stack[k][lower] = raw[k][lower]
    return stack


def _refused(make):
    try:
        return make(), False
    except ValueError:
        return None, True


@settings(max_examples=300, deadline=None)
@given(square_stacks(mirrored_only=True))
def test_exactly_symmetric_input_is_kept_bit_for_bit(stack):
    # RuntimeWarnings are errors under pytest, so none escapes construction
    grid = TimeGrid(1.0, stack.shape[0] - 1)
    assert MatrixProcess(grid, stack).values.tobytes() == stack.tobytes()
    for matrix in stack:
        assert SymmetricMatrix(matrix).entries.tobytes() == matrix.tobytes()


@settings(max_examples=400, deadline=None)
@given(square_stacks())
def test_process_refuses_exactly_when_a_matrix_is_refused(stack):
    grid = TimeGrid(1.0, stack.shape[0] - 1)
    singles = [_refused(lambda: SymmetricMatrix(matrix).entries) for matrix in stack]
    values, refused = _refused(lambda: MatrixProcess(grid, stack).values)
    assert refused == any(single_refused for _, single_refused in singles)
    if not refused:
        assert values.tobytes() == np.stack([entries for entries, _ in singles]).tobytes()
        assert (values == values.transpose(0, 2, 1)).all()


@st.composite
def symmetric_matrices(draw, dims=(2, 3)):
    d = draw(st.sampled_from(dims))
    flat = draw(st.lists(st.floats(-5.0, 5.0), min_size=d * d, max_size=d * d))
    raw = np.array(flat).reshape(d, d)
    return SymmetricMatrix(0.5 * (raw + raw.T))


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_round_trip_property(a):
    dec = spectral_decompose(a)
    tol = 1e-8 * max(1.0, a.frobenius_norm())
    assert np.linalg.norm(reassemble(dec) - a.entries) <= tol


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_spectral_mapping_property(a):
    spec = ScalarFunctionSpec(fn=lambda x: np.cos(x), name="cos")
    lam = spectral_decompose(a).eigenvalues
    lifted = apply_scalar_fn(spec, a)
    np.testing.assert_allclose(
        np.sort(spectral_decompose(lifted).eigenvalues), np.sort(np.cos(lam)), atol=1e-8
    )


@st.composite
def spectra(draw, dims=(1, 2, 3, 5, 8), sizes=st.integers(1, 4)):
    """Stacks Q diag(lambda) Q^T with random, repeated, near-repeated or zero spectra."""
    d = draw(st.sampled_from(dims))
    m = draw(sizes)
    kind = draw(st.sampled_from(("random", "repeated", "near_repeated", "zero")))
    scale = 10.0 ** draw(st.sampled_from((-150, 0, 150)))
    return spectrum_stack(d, m, kind, scale, draw(st.integers(0, 2**32 - 1)))


def spectrum_stack(d, m, kind, scale, seed):
    """The `spectra` stack of these draws."""
    rng = np.random.default_rng(seed)
    if kind == "random":
        lam = rng.standard_normal((m, d))
    elif kind == "repeated":
        lam = rng.choice(rng.standard_normal(2), size=(m, d))
    elif kind == "near_repeated":
        lam = rng.standard_normal((m, 1)) + 1e-9 * rng.standard_normal((m, d))
    else:
        lam = np.zeros((m, d))
    q, _ = np.linalg.qr(rng.standard_normal((m, d, d)))
    stack = scale * ((q * lam[:, None, :]) @ q.transpose(0, 2, 1))
    return 0.5 * (stack + stack.transpose(0, 2, 1))


@settings(max_examples=300, deadline=None)
@given(spectra())
# largest entries 3.8e-155 and 9.4e-151: off-diagonal squares underflow
# unless the oracle scales the matrix up first
@example(spectrum_stack(5, 1, "near_repeated", 1e-150, 117))
@example(spectrum_stack(5, 1, "repeated", 1e-150, 80))
def test_seam_matches_jacobi_oracle(stack):
    lam, vec = spectral_decompose_stack(stack)
    ref_lam, ref_vec = jacobi_stack(stack)
    tol = 1e-12 * np.linalg.norm(stack, axis=(1, 2))
    assert (np.abs(lam - ref_lam).max(axis=1) <= tol).all()
    recon = (vec * lam[:, None, :]) @ vec.transpose(0, 2, 1)
    ref_recon = (ref_vec * ref_lam[:, None, :]) @ ref_vec.transpose(0, 2, 1)
    assert (np.linalg.norm(recon - ref_recon, axis=(1, 2)) <= tol).all()
    assert (np.linalg.norm(recon - stack, axis=(1, 2)) <= tol).all()


# multiples of I, where r = 0 and theta = 0, and diagonal matrices either way round
_FLAT_AND_DIAGONAL = np.array([np.zeros((2, 2)), 3.0 * np.eye(2), -0.0 * np.eye(2),
                               np.diag([1.0, 4.0]), np.diag([4.0, 1.0]), np.diag([-0.0, 1.0])])


@settings(max_examples=100, deadline=None)
@given(spectra(dims=(2,), sizes=st.sampled_from((1, 2048))), st.integers(0, 2**32 - 1))
@example(_FLAT_AND_DIAGONAL, 0)
def test_two_by_two_lift_matches_matmul(stack, seed):
    # one d = 2 closed form: the public decomposition, the minimum eigenvalues
    # and `_rotation_2x2` share its eigenvalue bits.  The d = 2 lift is written
    # out from the rotation's products, those of the public eigenvectors or
    # those `_rotation_2x2` takes from the double angle; the matmul of the
    # public eigenvectors is the oracle of both, on the eigenvalues and on
    # values that differ where the eigenvalues do not
    lam, vec = spectral_decompose_stack(stack)
    double_lam, products = symmat._rotation_2x2(stack)
    assert double_lam.tobytes() == lam.tobytes()
    assert min_eigenvalues_stack(stack).tobytes() == lam[:, 0].tobytes()
    other = np.random.default_rng(seed).standard_normal(lam.shape) * (np.abs(lam).max() or 1.0)
    for vals in (lam, other):
        ref = (vec * vals[:, None, :]) @ vec.transpose(0, 2, 1)
        tol = 1e-15 * np.abs(vals).max(axis=1)
        for basis in (vec, products):
            lifted = symmat._lift(basis, vals)
            assert lifted.shape == ref.shape
            assert (np.abs(lifted - ref).max(axis=(1, 2)) <= tol).all()


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_diagonal_matrices_lift_to_their_diagonal(d):
    # halves of small integers, so that the d = 2 closed form's eigenvalues
    # mid -+ r are exact too: the lift is exactly diag(g(a_ii)), and the
    # eigenvectors a signed permutation, whichever way round the entries lie
    rng = np.random.default_rng(70 + d)
    diagonals = [rng.integers(-16, 17, d) / 2.0 for _ in range(6)]
    diagonals += [np.arange(1.0, d + 1.0), np.arange(d, 0.0, -1.0), np.full(d, -0.0)]
    specs = (IDENTITY, clipped_sqrt_fn(2.0), ScalarFunctionSpec(fn=np.tanh, name="tanh"))
    for values in diagonals:
        a = SymmetricMatrix.diagonal(values)
        for spec in specs:
            assert np.array_equal(apply_scalar_fn(spec, a).entries, np.diag(spec.fn(values)))
        vec = spectral_decompose(a).eigenvectors
        assert np.isin(np.abs(vec), (0.0, 1.0)).all()
        assert np.array_equal(np.abs(vec) @ np.abs(vec).T, np.eye(d))
    if d == 2:
        stack = np.array([np.diag(values) for values in diagonals])
        for spec, lifted in zip(specs, symmat.lift_2x2(stack, specs)):
            assert np.array_equal(lifted, [np.diag(spec.fn(values)) for values in diagonals])


@pytest.mark.parametrize("scale", [1.0, 1e150, 1e-150])
def test_near_diagonal_eigenvectors_keep_their_small_factor(scale):
    # cos sin = b / (lam1 - lam0): the factor of order b comes from cs divided
    # by the larger one, not from the square root of a product that cancels
    off = np.array([1e-9, -1e-9, 3e-13, -2e-17])
    stack = np.zeros((2 * len(off), 2, 2))
    stack[:len(off), 0, 0] = 1.0  # [[1, b], [b, 0]]
    stack[len(off):, 1, 1] = 1.0  # [[0, b], [b, 1]]
    stack[:, 0, 1] = stack[:, 1, 0] = np.tile(off, 2)
    stack *= scale
    lam, vec = spectral_decompose_stack(stack)
    expected = stack[:, 0, 1] / (lam[:, 1] - lam[:, 0])
    cos_sin = vec[:, 0, 1] * vec[:, 1, 1]
    assert (np.abs(cos_sin - expected) <= 1e-14 * np.abs(expected)).all()


def _jacobi_cases():
    """d = 2 matrices at unit scale: multiples of I (r = 0, the zero matrix
    included), r << |mid|, eigenvalues a clamp maps to 0, and general ones."""
    rng = np.random.default_rng(34)
    raw = rng.standard_normal((6, 2, 2))
    sym = raw + raw.transpose(0, 2, 1)
    q = np.linalg.qr(rng.standard_normal((4, 2, 2)))[0]
    lam = np.array([[-1.0, 4.0], [-3.0, -0.5], [-0.25, 2.0], [0.5, 3.0]])
    rotated = (q * lam[:, None, :]) @ q.transpose(0, 2, 1)
    close = [5.0 * np.eye(2) + 1e-9 * sym[0], -4.0 * np.eye(2) + 1e-12 * sym[1],
             np.eye(2) + 1e-15 * sym[2]]
    stack = np.concatenate([[np.zeros((2, 2)), 3.0 * np.eye(2), -2.0 * np.eye(2)], close,
                            rotated, sym[3:]])
    return np.triu(stack) + np.triu(stack, 1).transpose(0, 2, 1)


# a scalar function g as an array function and a float function, and its
# degree p: g(2^k x) = 2^(k p) g(x) for every even k
_HOMOGENEOUS = {
    "identity": (IDENTITY, lambda v: v, 1.0),
    "clamp": (ScalarFunctionSpec(fn=lambda x: np.maximum(x, 0.0), name="clamp"),
              lambda v: max(v, 0.0), 1.0),
    "sqrt": (ScalarFunctionSpec(fn=lambda x: np.sqrt(np.maximum(x, 0.0)), name="sqrt"),
             lambda v: math.sqrt(max(v, 0.0)), 0.5),
}


@pytest.mark.parametrize("k", [0, 498, -498, 996, -996])  # 2^k near 1, 1e+-150 and 1e+-300
@pytest.mark.parametrize("name", sorted(_HOMOGENEOUS))
def test_two_by_two_lift_matches_the_jacobi_lift(name, k):
    # the reference takes matrices below about 1e150, so it lifts A / 2^k
    # (exact, as A's subnormal entries only scale up) and the result is
    # scaled back by 2^(k p); the lift is within 8 ulps of the largest |g(lam)|
    spec, fn, degree = _HOMOGENEOUS[name]
    stack = _jacobi_cases() * 2.0 ** k
    unit = stack * 2.0 ** -k
    ref = jacobi_lift(unit, fn) * 2.0 ** (k * degree)
    lifted, = symmat.lift_2x2(stack, [spec])
    lam, _ = spectral_decompose_stack(stack)
    tol = 8.0 * np.finfo(np.float64).eps * np.abs(spec.fn(lam)).max(axis=1)
    assert (np.abs(lifted - ref).max(axis=(1, 2)) <= tol).all()
    assert lifted.tobytes() == np.ascontiguousarray(lifted.transpose(0, 2, 1)).tobytes()
    assert not lifted[0].any()  # g(0) = 0 lifts the zero matrix to exact zeros


def test_lift_2x2_lifts_each_matrix_as_it_would_alone():
    # r comes from the plain sum h^2 + b^2 or, where that sum leaves its range,
    # from np.hypot, matrix by matrix: a stack that mixes both gives each
    # matrix the bits it has alone
    raw = np.random.default_rng(35).standard_normal((3, 2, 2))
    unit = raw + raw.transpose(0, 2, 1)
    stack = np.concatenate([unit, 1e300 * unit, 1e-300 * unit, [np.zeros((2, 2)), 16.0 * np.eye(2)],
                            [np.diag([1e-170, 2e-170]), np.eye(2) + 1e-170 * unit[0]]])
    specs = (IDENTITY, clipped_sqrt_fn(1e300))
    lifts = symmat.lift_2x2(stack, specs)
    for k in range(len(stack)):
        alone = symmat.lift_2x2(stack[k:k + 1], specs)
        assert all(a.tobytes() == b[k:k + 1].tobytes() for a, b in zip(alone, lifts))


@pytest.mark.parametrize("scale", [1.0, 1e160, 1e-160])
@pytest.mark.parametrize("entry", ["lift_2x2", "apply_scalar_fn", "euler_final_states"])
def test_lift_path_refuses_perturbed_eigenvalues_naming_the_matrix(entry, scale, monkeypatch):
    # one matrix's eigenvalues moved by 1e-6 of themselves, on the path that
    # takes the rotation from the double angle
    rotation = symmat._rotation_2x2

    def perturbed(stack):
        lam, products = rotation(stack)
        lam = lam.copy()
        lam[-1] *= 1.0 + 1e-6
        return lam, products

    raw = np.random.default_rng(12).standard_normal((4, 2, 2))
    stack = scale * (raw + raw.transpose(0, 2, 1) + 6.0 * np.eye(2))
    monkeypatch.setattr(symmat, "_rotation_2x2", perturbed)
    calls = {
        "lift_2x2": lambda: symmat.lift_2x2(stack, [IDENTITY]),
        "apply_scalar_fn": lambda: apply_scalar_fn(IDENTITY, SymmetricMatrix(stack[0])),
        "euler_final_states": lambda: sde.euler_final_states(
            sde.SdeModel(g=clipped_affine_fn(1.0, 0.0, 10.0), f=constant_fn(1.0),
                         b=constant_fn(1.0), x0=SymmetricMatrix(stack[0])),
            TimeGrid(1.0, 1), np.zeros((1, 4, 2, 2))),
    }
    where = "matrix 0 of 1" if entry == "apply_scalar_fn" else "matrix 3 of 4"
    with pytest.raises(EigensolverError, match=rf"^eigendecomposition reconstruction residual "
                                               rf".* \({where}\)$"):
        calls[entry]()


@pytest.mark.parametrize("entry", [
    lambda stack: symmat.lift_2x2(stack, [IDENTITY]), spectral_decompose_stack,
    min_eigenvalues_stack], ids=["lift_2x2", "spectral_decompose_stack", "min_eigenvalues_stack"])
def test_lift_2x2_takes_only_finite_two_by_two_stacks(entry):
    # one shape rule for the three stack entries, an (m, d, d) stack with
    # d >= 1, and lift_2x2 asks for d = 2
    for shape in ((2, 2), (4, 2, 3), (3, 0, 0), (2, 2, 2, 2)):
        with pytest.raises(ValueError, match=r"expected an \(m, d, d\) stack with d >= 1"):
            entry(np.ones(shape))
    for bad in (np.nan, np.inf):
        with pytest.raises(EigensolverError, match="non-finite"):
            entry(np.array([[[1.0, bad], [bad, 1.0]]]))
    for shape in ((3, 3, 3), (1, 1, 1)):
        with pytest.raises(ValueError, match=r"expected an \(m, 2, 2\) stack"):
            symmat.lift_2x2(np.ones(shape), [IDENTITY])


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
def test_lift_is_exactly_symmetric(d):
    # the one lift: its own transpose bit for bit at every d, and at d >= 3
    # the plain matmul R averaged with R^T
    rng = np.random.default_rng(80 + d)
    raw = rng.standard_normal((64, d, d))
    _, vec = spectral_decompose_stack(raw + raw.transpose(0, 2, 1))
    vals = rng.standard_normal((64, d)) * 10.0 ** rng.integers(-150, 151, (64, 1))
    lifted = symmat._lift(vec, vals)
    assert lifted.tobytes() == np.ascontiguousarray(lifted.transpose(0, 2, 1)).tobytes()
    if d >= 3:
        r = (vec * vals[:, None, :]) @ vec.transpose(0, 2, 1)
        assert lifted.tobytes() == (0.5 * (r + r.transpose(0, 2, 1))).tobytes()
        # near the largest double: the same bits where R + R^T is finite,
        # 0.5 R + 0.5 R^T where it overflowed
        huge = np.abs(vals) / np.abs(vals).max(axis=1, keepdims=True) * 1.7e308
        r = (vec * huge[:, None, :]) @ vec.transpose(0, 2, 1)
        with np.errstate(over="ignore"):
            plain = 0.5 * (r + r.transpose(0, 2, 1))
        split = 0.5 * r + 0.5 * r.transpose(0, 2, 1)
        assert np.isinf(plain).any()
        assert symmat._lift(vec, huge).tobytes() == np.where(np.isinf(plain), split, plain).tobytes()


@settings(max_examples=100, deadline=None)
@given(spectra())
def test_min_eigenvalues_are_the_seams_or_jacobis(stack):
    # d <= 2 has the seam's bits; d >= 3 (LAPACK eigvalsh) agrees with the
    # Jacobi oracle; either way a matrix alone has its bits in the stack
    lam = min_eigenvalues_stack(stack)
    if stack.shape[-1] <= 2:
        assert lam.tobytes() == spectral_decompose_stack(stack)[0][:, 0].tobytes()
    else:
        tol = 1e-12 * np.linalg.norm(stack, axis=(1, 2))
        assert (np.abs(lam - jacobi_stack(stack)[0][:, 0]) <= tol).all()
    for k, matrix in enumerate(stack):
        assert min_eigenvalues_stack(matrix[None]).tobytes() == lam[k:k + 1].tobytes()
