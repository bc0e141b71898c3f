"""Fast kernels against slow twins from `reference.py`, checked by property.

* Euler and Picard solves agree with `euler_reference` at 1e-12 relative, at
  d = 1, 2, 3, 5, with constant and state-dependent coefficients, and every
  Picard sweep, converged or cut short, with `picard_reference`: its distance,
  its iterate and the sweep count.
* At d = 2 one Euler step, `_advance`, has the bits of the step written with
  plain-loop products, whatever the stack around a matrix.  The d = 2 bits of
  the decomposition, the minimum eigenvalue and both solvers do not depend on
  the memory layout of their inputs, and the d = 2 kernels write contiguous
  entry planes.
* `_symmetric`, the symmetry rule, refuses and symmetrizes as its plain-loop
  twin does, matrix by matrix, from 1e-150 to 1e150.
* `spectral_decompose_stack` raises exactly when a reconstruction check built
  on `frobenius_max_scaled` fails, from 1e-300 to 1e300, on subnormal stacks,
  off-diagonals one ulp or more apart and perturbed eigenvalues, at d = 5 and
  8 for residuals planted in the eigenvalues at 0.99 and 1.01 times the bound,
  and at d = 1, 2, 3, 5, 8 for residuals planted alike in eigenvector column 0.
* The three inequality checks report the worst violation that their plain-loop
  twins find on the same samples, at d = 2, 3, 5.
* The Monte Carlo checks report the mean, and the lemma its beta, that their
  plain-loop row twins give on the same paths, at d = 1, 2, 3, and
  `isometry_rhs` the time integral of its plain-loop twin, at d = 1, 2, 3, 5.
* `min_eigenvalues_stack` refuses a LAPACK `eigvalsh` that moves one
  eigenvalue by 1e-6 ||A||_F, returns a NaN, reverses the order, rolls the
  results by one matrix, negates them, spreads the extremes apart or returns
  the largest double, from 1e-300 to 1e300, at d = 3, 5, 8.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from matrixdiff import symmat
from matrixdiff.brownian import BrownianPath, TimeGrid, sample_path
from matrixdiff.checks import (
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    mc_isometry,
    mc_trace_moment,
    random_symmetric_stack,
    random_unit_stack,
)
from matrixdiff.integrals import MatrixProcess, isometry_rhs
from matrixdiff.sde import (
    SdeModel,
    _advance,
    _increment,
    _lift_gfb,
    euler_final_states,
    euler_solve_paths,
    picard_solve,
)
from matrixdiff.symmat import (
    EigensolverError,
    SymmetricMatrix,
    clipped_affine_fn,
    clipped_sqrt_fn,
    constant_fn,
    min_eigenvalues_stack,
    spectral_decompose_stack,
)
from reference import (
    euler_final_trace,
    euler_reference,
    frobenius_max_scaled,
    inq2_violation,
    inq_nice_violation,
    isometry_rhs_reference,
    isometry_row,
    lemma_forms,
    picard_reference,
    prop_cauchy_violation,
    product_2x2,
    symmetric_reference,
)


def _clip(lo, hi):
    return lambda v: min(max(v, lo), hi)


def _models(d):
    """Pairs of a model and its coefficients as plain scalar functions."""
    start = SymmetricMatrix(np.diag(np.arange(4.0, 4.0 + d)) + 0.5)
    return {
        "wishart": (SdeModel(g=clipped_sqrt_fn(10.0), f=constant_fn(1.0), b=constant_fn(d + 1.0),
                             x0=start),
                    (lambda v: min(math.sqrt(max(v, 0.0)), 10.0), lambda v: 1.0,
                     lambda v: d + 1.0)),
        # Lipschitz everywhere: states leave the cone, where a root's error grows
        "state-dependent": (SdeModel(g=clipped_affine_fn(0.5, 1.0, 4.0),
                                     f=clipped_affine_fn(-0.25, 2.0, 3.0),
                                     b=clipped_affine_fn(-0.5, 1.0, 10.0), x0=start),
                            (lambda v: _clip(-4.0, 4.0)(0.5 * v + 1.0),
                             lambda v: _clip(-3.0, 3.0)(-0.25 * v + 2.0),
                             lambda v: _clip(-10.0, 10.0)(-0.5 * v + 1.0))),
        "constant": (SdeModel(g=constant_fn(0.7), f=constant_fn(-1.3), b=constant_fn(0.3),
                              x0=start),
                     (lambda v: 0.7, lambda v: -1.3, lambda v: 0.3)),
    }


@pytest.mark.parametrize("kind", ["wishart", "state-dependent", "constant"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_solvers_match_the_reference(d, kind):
    model, (g, f, b) = _models(d)[kind]
    grid = TimeGrid(0.25, 6)
    paths = [sample_path(grid, d, seed=61, path_index=i) for i in range(3)]
    inc = np.stack([path.increments for path in paths], axis=1)
    finals = euler_final_states(model, grid, inc)
    for path, solution, final in zip(paths, euler_solve_paths(model, paths), finals):
        expected = euler_reference(g, f, b, model.x0.entries, path.increments, grid.dt)
        scale = np.abs(expected).max()
        # Picard's iterate k is the Euler path up to t_k, so it is a fixed point by k = n + 1
        picard, diag = picard_solve(model, path, max_iter=grid.steps + 2, stop_tol=1e-300)
        assert diag.converged
        for states in (solution.states, picard.states, final[None]):
            assert np.abs(states - expected[-len(states):]).max() <= 1e-12 * scale


@pytest.mark.parametrize("kind", ["wishart", "state-dependent", "constant"])
@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_picard_sweeps_match_the_reference(d, kind):
    model, coefficients = _models(d)[kind]
    grid = TimeGrid(0.25, 6)
    path = sample_path(grid, d, seed=63, path_index=0)
    # sweep n + 1 repeats sweep n, the Euler path, so a distance of exactly 0 ends the sweeps
    iterates, distances = picard_reference(*coefficients, model.x0.entries, path.increments,
                                           grid.dt, max_iter=grid.steps + 2, stop_tol=1e-300)
    tol = 1e-12 * np.abs(iterates[-1]).max()
    assert distances[-1] == 0.0
    # no distance is within the tolerance of stop_tol, so both stop after the same sweep
    stop_tol = 1e-10
    assert all(abs(value - stop_tol) > tol for value in distances)
    for max_iter in (2, 3, 25):  # cut short, then to convergence
        kept = next((k for k, value in enumerate(distances[:max_iter], start=1)
                     if value < stop_tol), max_iter)
        solution, diag = picard_solve(model, path, max_iter=max_iter, stop_tol=stop_tol)
        assert (diag.iterates_kept, diag.converged) == (kept, distances[kept - 1] < stop_tol)
        assert np.abs(diag.d_n - distances[:kept]).max() <= tol
        assert np.abs(solution.states - iterates[kept - 1]).max() <= tol


def _plain_step(lifts, x, db, dt):
    """X + g dB f + (g dB f)^T + b dt of 2 x 2 matrices with plain-loop products;
    a float coefficient c enters as c * I, whose products have the bits of the
    kernel's scaling up to the sign of a zero."""
    g, f, b = (c * np.eye(2) if isinstance(c, float) else c for c in lifts)
    m = product_2x2(product_2x2(g, db), f)
    return ((m + m.transpose(0, 2, 1)) + b * dt) + x


@pytest.mark.parametrize("kind", ["wishart", "state-dependent", "constant"])
def test_two_by_two_step_is_the_plain_loop_step_in_any_stack(kind):
    model, _ = _models(2)[kind]
    rng = np.random.default_rng(62)
    x = rng.standard_normal((2048, 2, 2))
    x = x @ x.transpose(0, 2, 1) + 0.1 * np.eye(2)
    db = 0.1 * rng.standard_normal((2048, 2, 2))
    expected = _plain_step(_lift_gfb(model, x), x, db, 0.01)
    for rows in (slice(0, 1), slice(5, 12), slice(0, 2048), slice(2047, 2048)):
        assert _advance(model, x[rows], db[rows], 0.01).tobytes() == expected[rows].tobytes()


def _layouts(a):
    """`a`, matrices on its last two axes, C-ordered, entry-plane-major,
    Fortran-ordered, and as every other matrix of a stack twice as long."""
    planes = np.empty(a.shape[-2:] + a.shape[:-2]).transpose(*range(2, a.ndim), 0, 1)
    every_other = np.empty(a.shape[:-3] + (2 * a.shape[-3],) + a.shape[-2:])[..., ::2, :, :]
    planes[...] = every_other[...] = a
    return [np.ascontiguousarray(a), planes, np.asfortranarray(a), every_other]


def _states(seed, count):
    """`count` random positive definite 2 x 2 matrices."""
    raw = np.random.default_rng(seed).standard_normal((count, 2, 2))
    return raw @ raw.transpose(0, 2, 1) + 0.1 * np.eye(2)


@pytest.mark.parametrize("kind", ["wishart", "state-dependent", "constant"])
def test_two_by_two_bits_do_not_depend_on_layout(kind):
    model, _ = _models(2)[kind]
    grid = TimeGrid(0.25, 6)
    inc = 0.5 * np.random.default_rng(64).standard_normal((grid.steps, 5, 2, 2))
    path_inc = sample_path(grid, 2, seed=64, path_index=0).increments
    outputs = set()
    for stack, block, steps in zip(_layouts(_states(64, 33)), _layouts(inc), _layouts(path_inc)):
        path = object.__new__(BrownianPath)
        path.grid, path._increments = grid, steps  # as laid out, where the constructor would copy
        solution, diag = picard_solve(model, path)
        outputs.add(b"".join(out.tobytes() for out in (
            *spectral_decompose_stack(stack), min_eigenvalues_stack(stack),
            euler_final_states(model, grid, block), solution.states, diag.d_n)))
    assert len(outputs) == 1


def test_two_by_two_kernels_write_contiguous_entry_planes():
    x, db = _states(65, 64), 0.1 * np.random.default_rng(65).standard_normal((64, 2, 2))
    lam, vec = spectral_decompose_stack(x)
    stacks = [vec]
    for kind in ("wishart", "state-dependent"):  # float and lifted coefficients
        model, _ = _models(2)[kind]
        stacks.append(_increment(*_lift_gfb(model, x), db, 0.01))
        stacks.append(euler_final_states(model, TimeGrid(0.25, 2), np.stack([db, db])))
    planes = [lam[:, 0], lam[:, 1], min_eigenvalues_stack(x)]
    planes += [a[:, i, j] for a in stacks for i in range(2) for j in range(2)]
    assert all(plane.flags.c_contiguous for plane in planes)


# The guard's verdict is compared where the reference's residual-to-bound
# ratio is not within this of 1.  The reference's lift and the guard's round
# differently, by about 1e-16 ||A||, which is 1e-8 of the bound: closer to 1,
# rounding decides either way.
_RATIO_EXCLUSION = 1e-7
# Residuals planted as multiples of the bound: none, either side of it, close
# to it (where only rounding decides, as the guard has no margin) and far past it.
_TARGETS = st.sampled_from([0.0, 1e3]) | st.floats(0.5, 2.0) | st.floats(1 - 1e-5, 1 + 1e-5)


def _bounds(stack):
    """The reconstruction bound of every matrix, from `frobenius_max_scaled`."""
    tiny = np.finfo(np.float64).tiny
    return symmat.RECONSTRUCTION_RTOL * np.maximum(frobenius_max_scaled(stack), tiny)


def _reference_ratios(stack, lam, vec):
    """Residual over bound of every matrix, with a plain-loop Q diag(lam) Q^T."""
    d = stack.shape[-1]
    lift = np.array([[[sum(float(v[i, l]) * float(w[l]) * float(v[j, l]) for l in range(d))
                       for j in range(d)] for i in range(d)] for w, v in zip(lam, vec)])
    with np.errstate(over="ignore"):  # a residual that overflows only exceeds
        return frobenius_max_scaled(lift - stack) / _bounds(stack)


@st.composite
def _cases(draw):
    """A stack of 1 to 4 symmetric matrices at a scale from 1e-300 to 1e300 or
    subnormal, perhaps with one off-diagonal an ulp or a planted residual off
    its partner, and per matrix the residual to plant by moving eigenvalues."""
    d = draw(st.sampled_from([1, 2, 2, 2, 3]))
    count = draw(st.integers(1, 4))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = np.array(draw(st.lists(unit, min_size=count * d * d, max_size=count * d * d)))
    stack = raw.reshape(count, d, d)
    stack = stack + stack.transpose(0, 2, 1)
    scale = draw(st.sampled_from(["moderate", "extreme", "subnormal"]))
    if scale == "subnormal":  # integer multiples of the smallest subnormal
        stack = np.round(stack * 64.0) * 5e-324
    else:
        stack = stack * 10.0 ** draw(st.integers(-300, 300) if scale == "extreme"
                                     else st.integers(-20, 20))
    shifts = [draw(_TARGETS) for _ in range(count)]
    asymmetry = draw(st.sampled_from(["none", "ulp", "planted"])) if d > 1 else "none"
    k = draw(st.integers(0, count - 1))
    if asymmetry == "ulp":
        stack[k, 1, 0] = np.nextafter(stack[k, 0, 1], draw(st.sampled_from([-np.inf, np.inf])))
    elif asymmetry == "planted":  # the asymmetry alone makes the residual
        stack[k, 1, 0] = stack[k, 0, 1] + shifts[k] * _bounds(stack[k])
        shifts[k] = 0.0
    return stack, np.array(shifts)


def _guard_verdict(stack, plant):
    """Whether `spectral_decompose_stack` raises when `plant(arr, lam, vec)`
    rewrites what `_eig_stack` returns, and the reference's ratios for what
    the guard was given."""
    solve, seen = symmat._eig_stack, []

    def planted(arr):
        seen.append(plant(arr, *solve(arr)))
        return seen[-1]

    with mock.patch.object(symmat, "_eig_stack", planted):
        try:
            spectral_decompose_stack(stack)
            raised = False
        except EigensolverError as exc:
            assert "reconstruction residual" in str(exc)
            raised = True
    return raised, _reference_ratios(stack, *seen[0])


@settings(max_examples=400, deadline=None)
@given(case=_cases())
def test_guard_raises_exactly_when_the_reference_check_fails(case):
    stack, shifts = case

    def plant(arr, lam, vec):  # every eigenvalue moved by shift * bound / sqrt(d)
        return lam + (shifts * _bounds(arr) / math.sqrt(arr.shape[-1]))[:, None], vec

    raised, ratios = _guard_verdict(stack, plant)
    assume(not (np.abs(ratios - 1.0) < _RATIO_EXCLUSION).any())
    assert raised == bool((ratios > 1.0).any())


def _planted_stack(d, scale):
    # at scale 1 the plain sums decide, at 1e+-300 ||A||^2 leaves their range
    # and the scaled check does
    raw = np.random.default_rng(d).standard_normal((3, d, d))
    return scale * (raw + raw.transpose(0, 2, 1))


@pytest.mark.parametrize("d", [5, 8])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("target", [0.99, 1.01])
def test_guard_raises_exactly_when_a_planted_residual_exceeds_the_bound(d, scale, target):
    def plant(arr, lam, vec):  # every eigenvalue moved by target * bound / sqrt(d)
        return lam + (target * _bounds(arr) / math.sqrt(d))[:, None], vec

    raised, ratios = _guard_verdict(_planted_stack(d, scale), plant)
    assert ((ratios > 1.0) == (target > 1.0)).all()
    assert raised == bool((ratios > 1.0).any())


@pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
@pytest.mark.parametrize("scale", [1e-300, 1.0, 1e300])
@pytest.mark.parametrize("target", [0.99, 1.01])
def test_guard_raises_exactly_when_a_planted_eigenvector_residual_exceeds_the_bound(
        d, scale, target):
    # column 0 of Q scaled by 1 + eps leaves the residual |lam_0| ((1 + eps)^2 - 1)
    # q_0 q_0^T, whose norm is target * bound for eps = sqrt(1 + target *
    # bound / |lam_0|) - 1: the guard must read column 0 too, at d = 2 as well
    def plant(arr, lam, vec):
        eps = np.sqrt(1.0 + target * _bounds(arr) / np.abs(lam[:, 0])) - 1.0
        vec = vec.copy()
        vec[:, :, 0] *= (1.0 + eps)[:, None]
        return lam, vec

    raised, ratios = _guard_verdict(_planted_stack(d, scale), plant)
    assert ((ratios > 1.0) == (target > 1.0)).all()
    assert raised == bool((ratios > 1.0).any())


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_entries_keep_their_own_refusal(d, bad):
    stack = np.broadcast_to(np.eye(d), (3, d, d)).copy()
    stack[1, 0, -1] = bad
    with pytest.raises(EigensolverError, match="non-finite"):
        spectral_decompose_stack(stack)


@st.composite
def _near_symmetric(draw):
    """A stack of 1 to 3 d x d matrices, d = 1 to 4, each at a scale from
    1e-150 to 1e150, symmetric, an ulp off, with an asymmetry planted at a
    multiple of the symmetry rule's bound, or with a non-finite entry."""
    d, count = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    unit = st.floats(-1.0, 1.0, allow_subnormal=False)
    raw = np.array(draw(st.lists(unit, min_size=count * d * d, max_size=count * d * d)))
    stack = raw.reshape(count, d, d)
    stack = stack + stack.transpose(0, 2, 1)
    for m in stack:
        m *= 10.0 ** draw(st.integers(-150, 150))
        kind = draw(st.sampled_from(["none", "ulp", "planted", "planted", "planted", "non-finite"]
                                    if d > 1 else ["none", "non-finite"]))
        i = draw(st.integers(0, d - 2)) if d > 1 else 0
        j = draw(st.integers(i + 1, d - 1)) if d > 1 else 0
        if kind == "ulp":
            m[j, i] = np.nextafter(m[i, j], draw(st.sampled_from([-np.inf, np.inf])))
        elif kind == "planted":  # ||M - M^T||_F = sqrt(2) |M_ji - M_ij|
            m[j, i] = m[i, j] + draw(_TARGETS) * 1e-8 * frobenius_max_scaled(m) / math.sqrt(2.0)
        elif kind == "non-finite":
            m[i, j] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return stack


@settings(max_examples=150, deadline=None)
@given(stack=_near_symmetric())
def test_symmetry_rule_matches_its_twin(stack):
    try:
        twins = [symmetric_reference(m) for m in stack]
    except ValueError:
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            symmat._symmetric(stack)
        return
    # the twin's norms round differently, so a ratio this close to 1 decides nothing
    assume(all(abs(ratio - 1.0) >= _RATIO_EXCLUSION for _, ratio in twins))
    if any(sym is None for sym, _ in twins):
        with pytest.raises(ValueError, match="matrix is not symmetric"):
            symmat._symmetric(stack)
    else:
        assert symmat._symmetric(stack).tobytes() == np.array([sym for sym, _ in twins]).tobytes()


def _shifted(lam, stack):
    lam[0, -1] += 1e-6 * frobenius_max_scaled(stack[0])
    return lam


def _nan(lam, stack):
    lam[-1, 0] = np.nan
    return lam


def _spread(lam, stack):  # the sum stays, the sum of squares grows
    step = 1e-6 * frobenius_max_scaled(stack[0])
    lam[0, 0] -= step
    lam[0, -1] += step
    return lam


def _huge(lam, stack):  # its square overflows, unless the matrix is near 1e300
    lam[0, -1] = np.finfo(np.float64).max
    return lam


# What a LAPACK eigvalsh gone wrong could return, made from its own result on
# a stack of 4 matrices, and how many of the 4 it makes wrong.  "negated"
# keeps every sum of squares and "spread" every sum, so each power sum is
# checked on its own.
_EIGVALSH_MUTANTS = {
    "shifted": (_shifted, 1),
    "nan": (_nan, 1),
    "reversed": (lambda lam, stack: lam[:, ::-1], 4),
    "rolled": (lambda lam, stack: np.roll(lam, 1, axis=0), 4),
    "negated": (lambda lam, stack: -lam[:, ::-1], 4),
    "spread": (_spread, 1),
    "huge": (_huge, 1),
}


@pytest.mark.parametrize("mutant", sorted(_EIGVALSH_MUTANTS))
@pytest.mark.parametrize("d", [3, 5, 8])
def test_min_eigenvalue_guard_refuses_a_wrong_eigvalsh(monkeypatch, d, mutant):
    rng = np.random.default_rng(90 + d)
    stacks = []
    for scale in (1e-300, 1.0, 1e300):
        raw = rng.standard_normal((4, d, d))
        stacks.append(scale * (raw + raw.transpose(0, 2, 1)))
        min_eigenvalues_stack(stacks[-1])  # passes as it is
    eigvalsh, (wrong, count) = np.linalg.eigvalsh, _EIGVALSH_MUTANTS[mutant]
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda stack: wrong(eigvalsh(stack), stack))
    for stack in stacks:
        with pytest.raises(EigensolverError, match=f"eigenvalues of {count} of 4 matrices"):
            min_eigenvalues_stack(stack)


# The twins sum in another order than the stacked kernels; on O(1) samples the
# worst violations seen differ by at most 1.5e-15 (d = 5, seeds 71 to 73).
_VIOLATION_ATOL = 1e-13


@pytest.mark.parametrize("d", [2, 3, 5])
def test_inequality_kernels_match_their_twins(d):
    # fewer samples than one block, so each check draws them as below
    samples, seed, n = 100, 71, 32
    rng = np.random.default_rng(seed)
    a, b = random_symmetric_stack(rng, samples, d), random_symmetric_stack(rng, samples, d)
    twins = {"inq2": max(map(inq2_violation, a, b))}

    def drawn(steps):  # each sample's x and its `steps` symmetric A, drawn as the checks draw
        # x, then per A the d normals w; the symmetric A = sqrt(1/2) (w x^T + x w^T)
        # + (1 - sqrt(2)) (w . x) x x^T has the drawn A x = sqrt(1/2) w + (1 - sqrt(1/2)) (w . x) x
        rng = np.random.default_rng(seed)
        x = random_unit_stack(rng, samples, d)
        w = rng.standard_normal((samples, steps, d))
        a = (np.sqrt(0.5) * (np.einsum("mki,mj->mkij", w, x) + np.einsum("mi,mkj->mkij", x, w))
             + ((1.0 - np.sqrt(2.0)) * np.einsum("mki,mi->mk", w, x))[..., None, None]
             * np.einsum("mi,mj->mij", x, x)[:, None])
        return a, x

    a, x = drawn(1)
    twins["inq_nice"] = max(map(inq_nice_violation, a[:, 0], x))
    a, x = drawn(n)
    twins["prop_cauchy"] = max(prop_cauchy_violation(steps, v, 1.0 / n) for steps, v in zip(a, x))
    for report in (check_inq2(samples, d, seed), check_inq_nice(samples, d, seed),
                   check_prop_cauchy(samples, d, n, seed)):
        assert abs(report.worst_violation - twins[report.name]) <= _VIOLATION_ATOL, report.name


@pytest.mark.parametrize("d", [1, 2, 3])
def test_monte_carlo_rows_match_their_twins(d):
    rng = np.random.default_rng(80 + d)
    a, c = (SymmetricMatrix(m) for m in random_symmetric_stack(rng, 2, d))
    x, y = random_unit_stack(rng, 2, d)
    grid, paths, seed = TimeGrid(0.75, 4), 5, 81
    increments = [sample_path(grid, d, seed, i).increments for i in range(paths)]

    rows = [isometry_row(a.entries, c.entries, inc, x, y) for inc in increments]
    mean = mc_isometry(a, c, x, y, paths, grid, seed).details["mean"]
    assert abs(mean - sum(rows) / paths) <= 1e-12 * max(map(abs, rows))

    forms = np.array([lemma_forms(a.entries, c.entries, inc, x) for inc in increments])
    num, m2 = forms.mean(axis=0).T
    twin = (num / (2.0 * np.abs(m2))).max()
    assert abs(estimate_lemma_beta(a, c, paths, grid, x, seed) - twin) <= 1e-12 * twin

    model, coefficients = _models(d)["wishart"]
    traces = [euler_final_trace(*coefficients, model.x0.entries, inc, grid.dt)
              for inc in increments]
    mean = mc_trace_moment(model, paths, grid, seed).details["mean"]
    assert abs(mean - sum(traces) / paths) <= 1e-12 * max(map(abs, traces))


@pytest.mark.parametrize("d", [1, 2, 3, 5])
def test_isometry_rhs_matches_its_twin(d):
    rng = np.random.default_rng(100 + d)
    grid = TimeGrid(0.75, 6)
    x, y = random_unit_stack(rng, 2, d)
    a, c = (random_symmetric_stack(rng, grid.steps + 1, d) for _ in range(2))
    # processes that move, and the constant ones that `mc_isometry` builds
    constant = (np.broadcast_to(a[0], a.shape), np.broadcast_to(c[0], c.shape))
    for a_values, c_values in ((a, c), constant):
        rhs = isometry_rhs(MatrixProcess(grid, a_values), MatrixProcess(grid, c_values), x, y)
        twin = isometry_rhs_reference(a_values, c_values, x, y, grid.dt)
        size = isometry_rhs_reference(np.abs(a_values), np.abs(c_values), np.abs(x), np.abs(y),
                                      grid.dt)
        assert abs(rhs - twin) <= 1e-12 * size
