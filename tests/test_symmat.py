"""Core symmetric-matrix layer: decomposition, functional calculus, order predicates."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matrixdiff import symmat
from matrixdiff.symmat import (
    DomainPolicyError,
    EigensolverError,
    ScalarFunctionSpec,
    SymmetricMatrix,
    affine_fn,
    apply_scalar_fn,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
    identity_fn,
    is_psd,
    loewner_leq,
    matrix_sqrt,
    min_eigenvalues_stack,
    quadratic_form,
    spectral_decompose,
    spectral_decompose_stack,
    unit_vector,
)
from reference import jacobi_stack


def random_symmetric(rng, d, scale=1.0):
    raw = rng.standard_normal((d, d))
    return SymmetricMatrix(scale * 0.5 * (raw + raw.T))


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

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            SymmetricMatrix(np.ones((2, 3)))

    def test_entries_read_only(self):
        a = SymmetricMatrix.identity(3)
        with pytest.raises(ValueError):
            a.entries[0, 0] = 5.0

    def test_zero_matrix_accepted(self):
        a = SymmetricMatrix.zeros(4)
        assert a.frobenius_norm() == 0.0

    def test_arithmetic(self):
        a = SymmetricMatrix.diagonal([1.0, 2.0])
        b = SymmetricMatrix.identity(2)
        np.testing.assert_array_equal((a + b).entries, np.diag([2.0, 3.0]))
        np.testing.assert_array_equal((a - b).entries, np.diag([0.0, 1.0]))
        np.testing.assert_array_equal((2.0 * a).entries, np.diag([2.0, 4.0]))
        np.testing.assert_array_equal((-a).entries, np.diag([-1.0, -2.0]))


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
        np.testing.assert_allclose(dec.reassemble(), np.eye(4), atol=1e-12)

    def test_two_by_two_hand_case(self):
        # characteristic polynomial of [[2,1],[1,2]] gives 1 and 3
        a = SymmetricMatrix([[2.0, 1.0], [1.0, 2.0]])
        dec = spectral_decompose(a)
        np.testing.assert_allclose(dec.eigenvalues, [1.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(dec.eigenvectors),
                                   np.full((2, 2), 1.0 / np.sqrt(2.0)), atol=1e-12)
        np.testing.assert_allclose(dec.reassemble(), a.entries, atol=1e-12)

    def test_round_trip_many(self):
        rng = np.random.default_rng(101)
        for d in (2, 3, 5, 8):
            for _ in range(125):
                a = random_symmetric(rng, d, scale=rng.uniform(0.1, 10.0))
                dec = spectral_decompose(a)
                tol = 1e-8 * max(1.0, a.frobenius_norm())
                assert np.linalg.norm(dec.reassemble() - a.entries) <= tol
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

    @pytest.mark.parametrize("scale", [1e160, 1e-160])
    def test_rejects_asymmetric(self, scale):
        with pytest.raises(ValueError, match="not symmetric"):
            SymmetricMatrix([[scale, 2 * scale], [-5 * scale, scale]])

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


class TestFunctionalCalculus:
    def test_identity_fn_round_trip(self):
        rng = np.random.default_rng(3)
        a = random_symmetric(rng, 4)
        out = apply_scalar_fn(identity_fn(), a)
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

    def test_reject_policy_reports_eigenvalue(self):
        spec = ScalarFunctionSpec(fn=np.sqrt, domain_policy="reject_outside_domain")
        a = SymmetricMatrix.diagonal([-2.0, 1.0])
        with pytest.raises(DomainPolicyError, match="-2"):
            apply_scalar_fn(spec, a)

    def test_clip_policy_is_default_for_wishart_sqrt(self):
        spec = clipped_sqrt_fn(10.0)
        assert spec.domain_policy == "clip_negative_to_zero"
        assert spec.bound == 10.0
        np.testing.assert_allclose(spec.map_eigenvalues(np.array([-4.0, 144.0, 4.0])),
                                   [0.0, 10.0, 2.0])

    def test_bound_spot_check(self):
        assert clipped_sqrt_fn(5.0).bound_holds(-10.0, 100.0)
        assert clipped_affine_fn(2.0, 1.0, 3.0).bound_holds(-50.0, 50.0)
        lying = ScalarFunctionSpec(fn=lambda x: 10.0 * np.asarray(x), bound=1.0, name="liar")
        assert not lying.bound_holds(-5.0, 5.0)

    def test_constant_and_affine_factories(self):
        lam = np.array([-1.0, 0.0, 2.5])
        np.testing.assert_array_equal(constant_fn(3.0).map_eigenvalues(lam), [3.0, 3.0, 3.0])
        np.testing.assert_array_equal(affine_fn(2.0, -1.0).map_eigenvalues(lam), [-3.0, -1.0, 4.0])

    def test_constant_declaration(self):
        assert constant_fn(3.0).constant and constant_fn(3.0).constant_value() == 3.0
        for spec in (identity_fn(), affine_fn(0.0, 1.0), clipped_affine_fn(1.0, -100.0, 1.0),
                     clipped_sqrt_fn(2.0)):
            assert not spec.constant
            with pytest.raises(ValueError, match="not declared constant"):
                spec.constant_value()


class TestOrderPredicates:
    def test_is_psd_examples(self):
        assert is_psd(SymmetricMatrix.identity(3), tol=0.0)
        assert not is_psd(SymmetricMatrix.diagonal([1.0, -1.0]), tol=0.0)
        assert is_psd(SymmetricMatrix.diagonal([-1e-12, 1.0]), tol=1e-10)

    def test_is_psd_rejects_negative_tol(self):
        with pytest.raises(ValueError):
            is_psd(SymmetricMatrix.identity(2), tol=-1.0)

    def test_loewner_examples(self):
        i2 = SymmetricMatrix.identity(2)
        assert loewner_leq(i2, 2.0 * i2)
        assert not loewner_leq(2.0 * i2, i2)
        rng = np.random.default_rng(5)
        a = random_symmetric(rng, 3)
        assert loewner_leq(a, a, tol=1e-12)

    def test_loewner_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension"):
            loewner_leq(SymmetricMatrix.identity(2), SymmetricMatrix.identity(3))

    def test_loewner_antisymmetric_up_to_tol(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            a = random_symmetric(rng, 3)
            shift = rng.uniform(0.1, 1.0)
            b = a + shift * SymmetricMatrix.identity(3)
            assert loewner_leq(a, b)
            assert not loewner_leq(b, a)

    def test_psd_iff_quadratic_forms_nonnegative(self):
        rng = np.random.default_rng(2718)
        for d in (2, 4):
            raw = rng.standard_normal((d, d))
            psd = SymmetricMatrix(raw @ raw.T)
            indef = random_symmetric(rng, d, scale=2.0)
            xs = rng.standard_normal((1000, d))
            xs /= np.linalg.norm(xs, axis=1, keepdims=True)
            psd_forms = np.array([quadratic_form(x, psd) for x in xs])
            assert psd_forms.min() >= -1e-10
            assert is_psd(psd, tol=1e-10)
            if not is_psd(indef, tol=0.0):
                indef_forms = np.array([quadratic_form(x, indef) for x in xs])
                assert indef_forms.min() < -1e-10


class TestQuadraticForm:
    def test_canonical_vector_picks_entry(self):
        a = SymmetricMatrix([[3.0, 1.0], [1.0, -2.0]])
        assert quadratic_form([1.0, 0.0], a) == 3.0

    def test_off_diagonal_expansion(self):
        a = SymmetricMatrix([[0.0, 1.0], [1.0, 0.0]])
        x = np.array([1.0, 1.0]) / np.sqrt(2.0)
        assert abs(quadratic_form(x, a) - 1.0) <= 1e-14

    def test_identity_gives_one(self):
        x = unit_vector([3.0, -4.0, 12.0])
        assert abs(quadratic_form(x, SymmetricMatrix.identity(3)) - 1.0) <= 1e-12

    def test_rejects_zero_and_non_unit(self):
        a = SymmetricMatrix.identity(2)
        with pytest.raises(ValueError, match="zero vector"):
            quadratic_form([0.0, 0.0], a)
        with pytest.raises(ValueError, match="unit"):
            quadratic_form([1.0, 1.0], a)

    def test_unit_vector_normalizes(self):
        v = unit_vector([0.0, 5.0])
        np.testing.assert_array_equal(v, [0.0, 1.0])
        with pytest.raises(ValueError):
            unit_vector([0.0, 0.0])


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
    assert np.linalg.norm(dec.reassemble() - a.entries) <= tol


@settings(max_examples=60, deadline=None)
@given(symmetric_matrices())
def test_spectral_mapping_property(a):
    spec = ScalarFunctionSpec(fn=lambda x: np.cos(x), name="cos")
    lam = spectral_decompose(a).eigenvalues
    lifted = apply_scalar_fn(spec, a)
    np.testing.assert_allclose(
        np.sort(spectral_decompose(lifted).eigenvalues), np.sort(np.cos(lam)), atol=1e-8
    )


@settings(max_examples=40, deadline=None)
@given(symmetric_matrices())
def test_loewner_reflexive_property(a):
    assert loewner_leq(a, a, tol=1e-12)


@st.composite
def spectra(draw):
    """Stacks Q diag(lambda) Q^T with random, repeated, near-repeated or zero spectra."""
    d = draw(st.sampled_from((1, 2, 3, 5, 8)))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(("random", "repeated", "near_repeated", "zero")))
    scale = 10.0 ** draw(st.sampled_from((-150, 0, 150)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
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
def test_seam_matches_jacobi_oracle(stack):
    lam, vec = spectral_decompose_stack(stack)
    ref_lam, ref_vec = jacobi_stack(stack)
    tol = 1e-12 * np.linalg.norm(stack, axis=(1, 2))
    assert (np.abs(lam - ref_lam).max(axis=1) <= tol).all()
    recon = (vec * lam[:, None, :]) @ vec.transpose(0, 2, 1)
    ref_recon = (ref_vec * ref_lam[:, None, :]) @ ref_vec.transpose(0, 2, 1)
    assert (np.linalg.norm(recon - ref_recon, axis=(1, 2)) <= tol).all()
    assert (np.linalg.norm(recon - stack, axis=(1, 2)) <= tol).all()
