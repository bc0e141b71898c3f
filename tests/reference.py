"""Naive reference implementations used as independent oracles in tests."""

import math
import struct
import sys

import numpy as np

JACOBI_MAX_SWEEPS = 50
JACOBI_REL_TOL = 1e-12


def path_generator(seed, path_index):
    """A fresh Philox generator for the stream keyed by (seed, path_index)."""
    key = np.array([seed, path_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def entrywise_ito(a_values, c_values, increments):
    """I(i,j) = sum_k sum_r sum_m A_m(i,k) C_m(r,j) dB_m(k,r), by explicit loops."""
    n, d = increments.shape[0], increments.shape[1]
    out = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            total = 0.0
            for k in range(d):
                for r in range(d):
                    for m in range(n):
                        total += a_values[m][i, k] * c_values[m][r, j] * increments[m][k, r]
            out[i, j] = total
    return out


def jacobi_stack(stack):
    """Cyclic Jacobi diagonalization of a stack of symmetric matrices.

    Sweeps rotate every (p, q) plane in fixed cyclic order until the
    off-diagonal Frobenius norm of every matrix falls below
    1e-12 * ||A||_F, or the 50-sweep budget is exhausted (an AssertionError).
    Returns (eigenvalues sorted non-decreasing, matching eigenvector columns).
    Norms square the entries, so a matrix whose largest |entry| is below 1 is
    first multiplied by the power of two that brings it into [1, 2): scaling
    up by a power of two is exact, so the sweeps see exactly the given matrix,
    and no square underflows at scales such as 1e-154, where the stopping test
    would read an underflowed off-diagonal norm of 0 and stop early.  Larger
    matrices are not scaled (scaling down could round tiny entries), so inputs
    must stay below about 1e150.
    """
    a = np.array(stack, dtype=np.float64)
    m, d = a.shape[0], a.shape[1]
    v = np.broadcast_to(np.eye(d), (m, d, d)).copy()
    if d == 1:
        return a[:, :, 0].copy(), v
    scale = np.minimum(np.ldexp(1.0, np.frexp(np.abs(a).max(axis=(1, 2)))[1] - 1), 1.0)
    a /= scale[:, None, None]

    thresh = JACOBI_REL_TOL * np.sqrt((a * a).sum(axis=(1, 2)))
    off_mask = ~np.eye(d, dtype=bool)

    def off_norms(mat):
        return np.sqrt((mat[:, off_mask] ** 2).sum(axis=1))

    for _ in range(JACOBI_MAX_SWEEPS):
        if (off_norms(a) <= thresh).all():
            break
        for p in range(d - 1):
            for q in range(p + 1, d):
                apq = a[:, p, q]
                rotate = np.abs(apq) > 0.0
                if not rotate.any():
                    continue
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    tau = (a[:, q, q] - a[:, p, p]) / (2.0 * apq)
                    sgn = np.where(tau >= 0.0, 1.0, -1.0)
                    t = sgn / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t = np.where(rotate & np.isfinite(t), t, 0.0)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                cc, ss = c[:, None], s[:, None]

                colp, colq = a[:, :, p].copy(), a[:, :, q].copy()
                a[:, :, p] = cc * colp - ss * colq
                a[:, :, q] = ss * colp + cc * colq
                rowp, rowq = a[:, p, :].copy(), a[:, q, :].copy()
                a[:, p, :] = cc * rowp - ss * rowq
                a[:, q, :] = ss * rowp + cc * rowq
                # the rotation annihilates the (p, q) entry analytically
                a[:, p, q] = np.where(rotate, 0.0, a[:, p, q])
                a[:, q, p] = np.where(rotate, 0.0, a[:, q, p])

                vp, vq = v[:, :, p].copy(), v[:, :, q].copy()
                v[:, :, p] = cc * vp - ss * vq
                v[:, :, q] = ss * vp + cc * vq
    assert (off_norms(a) <= thresh).all(), "Jacobi sweeps exhausted"

    lam = np.einsum("mii->mi", a) * scale[:, None]
    order = np.argsort(lam, axis=1, kind="stable")
    lam = np.take_along_axis(lam, order, axis=1)
    v = np.take_along_axis(v, order[:, None, :], axis=2)
    return lam, v


def frobenius_max_scaled(stack):
    """Frobenius norms of a stack, each matrix divided by its largest |entry|
    before squaring, so no square overflows or underflows."""
    a = np.asarray(stack, dtype=np.float64)
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    unit = a / scale[..., None, None]
    return scale * np.sqrt((unit * unit).sum(axis=(-2, -1)))


def product_2x2(a, b):
    """a @ b of two (m, 2, 2) stacks, one entry at a time as a_i0 b_0j + a_i1 b_1j
    in plain IEEE arithmetic (no fused multiply-add)."""
    a, b = np.broadcast_arrays(a, b)
    out = np.empty(a.shape)
    for k in range(a.shape[0]):
        for i in range(2):
            for j in range(2):
                out[k, i, j] = float(a[k, i, 0]) * float(b[k, 0, j]) \
                    + float(a[k, i, 1]) * float(b[k, 1, j])
    return out


def _matrix(a):
    """A (d, d) array as nested lists of floats."""
    return [[float(v) for v in row] for row in np.asarray(a, dtype=np.float64)]


def _norm_over_largest(a):
    """Frobenius norm of nested lists, every entry divided by the largest
    |entry| before squaring; 0.0 for a zero matrix."""
    largest = max(abs(v) for row in a for v in row)
    if largest == 0.0:
        return 0.0
    return largest * math.sqrt(sum((v / largest) ** 2 for row in a for v in row))


def symmetric_reference(a):
    """The symmetry rule on one (d, d) matrix M, in plain loops: None where it
    refuses M, else M exactly symmetric, with its ratio of asymmetry to bound.

    M / s, s = max(max |M_ij|, smallest normal double), is refused when
    ||M / s - (M / s)^T||_F exceeds 1e-8 ||M / s||_F, both norms taken over
    their own largest entry.  An accepted entry with the bits of its
    transpose partner stays, any other becomes 0.5 M_ij + 0.5 M_ji.  Raises
    ValueError on a non-finite entry.
    """
    a = _matrix(a)
    d = len(a)
    if not all(math.isfinite(v) for row in a for v in row):
        raise ValueError("matrix entries must be finite")
    scale = max(max(abs(v) for row in a for v in row), sys.float_info.min)
    unit = [[v / scale for v in row] for row in a]
    skew = _norm_over_largest([[unit[i][j] - unit[j][i] for j in range(d)] for i in range(d)])
    bound = 1e-8 * _norm_over_largest(unit)
    ratio = skew / bound if bound > 0.0 else 0.0  # a zero bound is a zero M
    if skew > bound:
        return None, ratio
    same = [[struct.pack("<d", a[i][j]) == struct.pack("<d", a[j][i]) for j in range(d)]
            for i in range(d)]
    return [[a[i][j] if same[i][j] else 0.5 * a[i][j] + 0.5 * a[j][i] for j in range(d)]
            for i in range(d)], ratio


def _product(a, b):
    d = len(a)
    return [[sum(a[i][k] * b[k][j] for k in range(d)) for j in range(d)] for i in range(d)]


def _apply(a, x):
    return [sum(a_ij * x_j for a_ij, x_j in zip(row, x)) for row in a]


def inq2_violation(a, b):
    """-lambda_min(2A^2 + 2B^2 - (A + B)^2) of one pair of symmetric matrices:
    products in plain loops, the gap symmetrized, its smallest eigenvalue from
    `jacobi_stack`."""
    a, b = _matrix(a), _matrix(b)
    d = len(a)
    s = [[a[i][j] + b[i][j] for j in range(d)] for i in range(d)]
    aa, bb, ss = _product(a, a), _product(b, b), _product(s, s)
    gap = [[2.0 * aa[i][j] + 2.0 * bb[i][j] - ss[i][j] for j in range(d)] for i in range(d)]
    sym = [[0.5 * (gap[i][j] + gap[j][i]) for j in range(d)] for i in range(d)]
    lam, _ = jacobi_stack(np.array([sym]))
    return -float(lam[0, 0])


def inq_nice_violation(a, x):
    """(x^T A x)^2 - x^T A^2 x of one symmetric matrix and unit vector, with
    x^T A^2 x summed as |A x|^2."""
    x = [float(v) for v in x]
    ax = _apply(_matrix(a), x)
    quad = sum(x_i * v for x_i, v in zip(x, ax))
    return quad * quad - sum(v * v for v in ax)


def prop_cauchy_violation(a_steps, x, dt):
    """(sum_k x^T A_k x dt)^2 - sum_k x^T A_k^2 x dt of one piecewise-constant
    process A_1, ..., A_n and unit vector x, one step at a time."""
    x = [float(v) for v in x]
    lin = square = 0.0
    for a in a_steps:
        ax = _apply(_matrix(a), x)
        lin += sum(x_i * v for x_i, v in zip(x, ax)) * dt
        square += sum(v * v for v in ax) * dt
    return lin * lin - square


def _transpose(a):
    return [list(col) for col in zip(*a)]


def _partial_sums(increments):
    """B_{t_1}, ..., B_{t_n} of one path's (n, d, d) increments, as nested lists."""
    d = len(increments[0])
    running = [[0.0] * d for _ in range(d)]
    for db in increments:
        running = [[running[i][j] + float(db[i, j]) for j in range(d)] for i in range(d)]
        yield running


def isometry_row(a, c, increments, x, y):
    """y^T M (M x) of one path, M = A B_tau C with B_tau the sum of the path's
    increments, in plain loops."""
    *_, total = _partial_sums(increments)
    m = _product(_product(_matrix(a), total), _matrix(c))
    mmx = _apply(m, _apply(m, [float(v) for v in x]))
    return sum(float(y_i) * v for y_i, v in zip(y, mmx))


def isometry_rhs_reference(a_values, c_values, x, y, dt):
    """sum_k x^T C_k^T C_k A_k A_k^T y dt over the left points k = 0, ..., n - 1
    of two processes given as their (n + 1, d, d) values, one step at a time in
    plain loops, as (C_k x) . (C_k A_k A_k^T y)."""
    x, y = [float(v) for v in x], [float(v) for v in y]
    total = 0.0
    for a, c in zip(a_values[:-1], c_values[:-1]):
        a, c = _matrix(a), _matrix(c)
        right = _apply(c, _apply(a, _apply(_transpose(a), y)))
        total += sum(u * v for u, v in zip(_apply(c, x), right)) * dt
    return total


def lemma_forms(a, c, increments, x):
    """(x^T (M + M^T)^2 x, x^T M^2 x) of one path at each grid time t_1, ..., t_n,
    M = A B_t C, as |M x + M^T x|^2 and (M^T x) . (M x)."""
    a, c, x = _matrix(a), _matrix(c), [float(v) for v in x]
    forms = []
    for prefix in _partial_sums(increments):
        m = _product(_product(a, prefix), c)
        mx, mtx = _apply(m, x), _apply(_transpose(m), x)
        forms.append((sum((u + v) ** 2 for u, v in zip(mx, mtx)),
                      sum(u * v for u, v in zip(mtx, mx))))
    return forms


def euler_final_trace(g, f, b, x0, increments, dt):
    """Trace of one path's last `euler_reference` state, summed in a plain loop."""
    final = euler_reference(g, f, b, x0, increments, dt)[-1]
    return sum(float(final[i, i]) for i in range(len(final)))


def _lift_reference(lam, vec, fn):
    """sum_l fn(lam_l) v_l v_l^T of one matrix, upper triangle mirrored."""
    d = len(lam)
    out = [[0.0] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            out[i][j] = out[j][i] = sum(fn(float(lam[l])) * float(vec[i, l]) * float(vec[j, l])
                                        for l in range(d))
    return out


def jacobi_lift(stack, fn):
    """fn lifted over each matrix of a stack through `jacobi_stack`'s eigenpairs,
    one matrix at a time by `_lift_reference`."""
    lam, vec = jacobi_stack(stack)
    return np.array([_lift_reference(w, v, fn) for w, v in zip(lam, vec)])


def _increment_reference(g, f, b, x, db, dt):
    """g dB f + (g dB f)^T + b dt of one state x (nested lists) and increment
    dB, its coefficients lifted through the eigenpairs of `jacobi_stack`."""
    d = len(x)
    lam, vec = jacobi_stack(np.array([x]))
    gx, fx, bx = (_lift_reference(lam[0], vec[0], fn) for fn in (g, f, b))
    gdb = [[sum(gx[i][k] * float(db[k, j]) for k in range(d)) for j in range(d)]
           for i in range(d)]
    m = [[sum(gdb[i][k] * fx[k][j] for k in range(d)) for j in range(d)] for i in range(d)]
    return [[(m[i][j] + m[j][i]) + bx[i][j] * dt for j in range(d)] for i in range(d)]


def euler_reference(g, f, b, x0, increments, dt):
    """Euler states X_0, ..., X_n of dX = g dB f + f dB^T g + b dt, one step of
    one matrix at a time in plain loops.

    `g`, `f` and `b` are scalar functions of a float, lifted through the
    eigenpairs of `jacobi_stack`; `x0` is a (d, d) start and `increments` the
    (n, d, d) Brownian increments of one path.  Returns an (n + 1, d, d) array.
    """
    x = _matrix(x0)
    d = len(x)
    states = [x]
    for db in np.asarray(increments, dtype=np.float64):
        inc = _increment_reference(g, f, b, x, db, dt)
        x = [[x[i][j] + inc[i][j] for j in range(d)] for i in range(d)]
        states.append(x)
    return np.array(states)


def _test_vectors(d):
    """e_1, ..., e_d, then 8 standard normal draws of seed 0, each over its length."""
    vectors = [[float(i == j) for j in range(d)] for i in range(d)]
    for row in np.random.default_rng(0).standard_normal((8, d)):
        length = math.sqrt(sum(float(v) * float(v) for v in row))
        vectors.append([float(v) / length for v in row])
    return vectors


def picard_reference(g, f, b, x0, increments, dt, max_iter, stop_tol):
    """Picard sweeps for dX = g dB f + f dB^T g + b dt on one path, one matrix
    at a time in plain loops.

    From the constant path x0, each sweep rebuilds the path from the last
    iterate X as Y_0 = x0 and Y_j = x0 + the sum over i < j of the increment
    `_increment_reference` takes at X_i with the i-th Brownian increment.  Its
    distance is the largest |x^T (Y_j - X_j) x| over grid times j and test
    vectors x: the canonical basis and 8 unit vectors drawn by seed 0.  Sweeps
    stop after the first distance below `stop_tol`, or after `max_iter`.

    Returns (iterates, distances): each sweep's (n + 1, d, d) states and its
    distance, in sweep order.
    """
    x0 = _matrix(x0)
    d = len(x0)
    vectors = _test_vectors(d)
    increments = np.asarray(increments, dtype=np.float64)
    prev = [x0] * (len(increments) + 1)
    iterates, distances = [], []
    while len(distances) < max_iter:
        running = [[0.0] * d for _ in range(d)]
        nxt = [x0]
        for x, db in zip(prev, increments):
            inc = _increment_reference(g, f, b, x, db, dt)
            running = [[running[i][j] + inc[i][j] for j in range(d)] for i in range(d)]
            nxt.append([[running[i][j] + x0[i][j] for j in range(d)] for i in range(d)])
        distances.append(max(
            abs(sum(v[i] * (new[i][j] - old[i][j]) * v[j] for i in range(d) for j in range(d)))
            for new, old in zip(nxt, prev) for v in vectors))
        iterates.append(np.array(nxt))
        prev = nxt
        if distances[-1] < stop_tol:
            break
    return iterates, distances
