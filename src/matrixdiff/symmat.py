"""Symmetric matrices, spectral decomposition, and scalar functional calculus.

The state space throughout the package is the set of real symmetric d x d
matrices.  A scalar function g is lifted to a matrix argument through the
spectral decomposition A = Q diag(lambda) Q^T as g(A) = Q diag(g(lambda)) Q^T,
with eigenvalues kept in non-decreasing order and checked by one
reconstruction guard at every d, which lifts every eigenvector column it is
given.  At d = 2 one closed form, with no trigonometry, gives every eigenvalue
and eigenvector: the eigenvalues mid -+ r and the products cos^2, sin^2 and
cos sin of the eigenvector rotation, from the double angle.  A lift needs only
those products; the public decomposition reads cos and sin from them.  The PSD
predicate `is_psd` and the stacked minimum eigenvalue round out the
deterministic substrate used by the stochastic layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EigensolverError",
    "NonFiniteValueError",
    "SymmetricMatrix",
    "SpectralDecomposition",
    "ScalarFunctionSpec",
    "constant_fn",
    "clipped_affine_fn",
    "clipped_sqrt_fn",
    "spectral_decompose",
    "spectral_decompose_stack",
    "lift_2x2",
    "apply_scalar_fn",
    "matrix_sqrt",
    "is_psd",
    "min_eigenvalues_stack",
]

# `_symmetric` refuses a matrix whose asymmetry exceeds this relative threshold;
# anything below is treated as floating-point drift and symmetrized away.
SYMMETRY_REJECT_RTOL = 1e-8

RECONSTRUCTION_RTOL = 1e-8

# `_check_reconstruction` trusts a plain sum of squares ||A||^2 that lands here:
# no square overflowed, and the squares that underflowed are negligible against it
_SUMSQ_LOW = np.finfo(np.float64).tiny * 2.0 ** 53
_SUMSQ_HIGH = np.finfo(np.float64).max


class EigensolverError(RuntimeError):
    """Raised when an eigendecomposition fails or does not reconstruct its input."""


class NonFiniteValueError(ValueError):
    """Raised when a scalar function returns a non-finite value (NaN or an
    infinity) on an eigenvalue."""


def _unit(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The one scale rule: a / s and s = max(max |a_ij|, tiny) for each matrix
    over the trailing two axes, so that no square of an entry of a / s
    overflows, and none that matters underflows."""
    s = np.maximum(np.abs(a).max(axis=(-2, -1), initial=0.0), np.finfo(np.float64).tiny)
    return a / s[..., None, None], s


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm s ||a / s||_F over the trailing two axes, by `_unit`, so
    the norm stays relative at every scale."""
    unit, s = _unit(a)
    return s * np.sqrt(np.einsum("...ij,...ij->...", unit, unit))


def _symmetric(arr: np.ndarray) -> np.ndarray:
    """The (..., d, d) float array `arr` read-only and exactly symmetric, or a
    `ValueError`: the one symmetry rule, applied to each matrix M on its own.

    Non-finite entries refuse M, and so does an asymmetry ||M - M^T||_F above
    SYMMETRY_REJECT_RTOL * ||M||_F, judged over M's scale s of `_unit` so that
    neither side overflows.  An entry with the bits of its transpose partner
    is kept; any other becomes 0.5 M + 0.5 M^T, which cannot overflow.
    """
    if not np.isfinite(arr).all():
        raise ValueError("matrix entries must be finite")
    unit, scale = _unit(arr)
    skew = _frobenius(unit - np.swapaxes(unit, -1, -2))
    refused = skew > SYMMETRY_REJECT_RTOL * _frobenius(unit)
    if refused.any():
        with np.errstate(over="ignore"):
            worst = np.max(scale * skew, where=refused, initial=0.0)
        raise ValueError(
            f"matrix is not symmetric: ||M - M^T||_F = {worst:.3e} "
            f"exceeds {SYMMETRY_REJECT_RTOL:.0e} * ||M||_F"
        )
    flip = np.swapaxes(arr, -1, -2)
    sym = np.where(arr.view(np.int64) == flip.view(np.int64), arr, 0.5 * arr + 0.5 * flip)
    sym.setflags(write=False)
    return sym


class SymmetricMatrix:
    """Immutable real symmetric matrix, checked and symmetrized by `_symmetric`."""

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        self._entries = _symmetric(arr)

    @property
    def dim(self) -> int:
        return self._entries.shape[0]

    @property
    def entries(self) -> np.ndarray:
        """Read-only (d, d) array view."""
        return self._entries

    @classmethod
    def identity(cls, d: int) -> "SymmetricMatrix":
        return cls(np.eye(d))

    @classmethod
    def zeros(cls, d: int) -> "SymmetricMatrix":
        return cls(np.zeros((d, d)))

    @classmethod
    def diagonal(cls, values) -> "SymmetricMatrix":
        return cls(np.diag(np.asarray(values, dtype=np.float64)))

    def trace(self) -> float:
        return float(np.trace(self._entries))

    def frobenius_norm(self) -> float:
        return float(_frobenius(self._entries))

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in non-decreasing order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar function together with its optional bound.

    `fn` must act elementwise on float arrays and is evaluated on every
    eigenvalue as it is: a function defined on part of the line clamps its own
    argument, as `clipped_sqrt_fn` takes sqrt(max(x, 0)).  A non-finite value
    of `fn` raises `NonFiniteValueError`.  `bound`, when set, declares
    sup |fn| <= bound on the whole line; the SDE solver requires it.
    `constant` declares that fn takes one value everywhere, so its lift is
    that value times the identity and needs no eigendecomposition.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    bound: Optional[float] = None
    name: str = field(default="", compare=False)
    constant: bool = False

    def __post_init__(self) -> None:
        if self.bound is not None and not (self.bound > 0 and math.isfinite(self.bound)):
            raise ValueError(f"bound must be positive and finite when set, got {self.bound!r}")

    def map_eigenvalues(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.float64)
        out = np.asarray(self.fn(lam), dtype=np.float64)
        if out.shape != lam.shape:
            raise ValueError("scalar function must evaluate elementwise")
        if np.count_nonzero(np.isfinite(out)) != out.size:
            raise NonFiniteValueError(
                f"scalar function {self.name or self.fn!r} returned non-finite values")
        return out

    @cached_property
    def constant_value(self) -> float:
        """The value of a function declared constant, evaluated once per spec:
        the Euler kernel reads it every step."""
        if not self.constant:
            raise ValueError(f"scalar function {self.name or self.fn!r} is not declared constant")
        return float(self.map_eigenvalues(np.zeros(1))[0])


def constant_fn(value: float) -> ScalarFunctionSpec:
    value = float(value)
    # any positive M bounds the zero function
    return ScalarFunctionSpec(
        fn=lambda x: np.full_like(np.asarray(x, dtype=np.float64), value),
        bound=abs(value) if value != 0.0 else 1.0,
        name=f"constant({value})",
        constant=True,
    )


def clipped_affine_fn(a: float, b: float, bound: float) -> ScalarFunctionSpec:
    """a*x + b clamped to [-bound, bound]: a bounded Lipschitz coefficient."""
    return ScalarFunctionSpec(
        fn=lambda x: np.clip(a * np.asarray(x, dtype=np.float64) + b, -bound, bound),
        bound=float(bound),
        name=f"clipped_affine({a},{b},{bound})",
    )


def clipped_sqrt_fn(clip: float) -> ScalarFunctionSpec:
    """min(sqrt(max(x, 0)), clip): the bounded square root used by the Wishart model."""
    return ScalarFunctionSpec(
        fn=lambda x: np.minimum(np.sqrt(np.maximum(x, 0.0)), clip),
        bound=float(clip),
        name=f"clipped_sqrt({clip})",
    )


def _empty_2x2(m: int) -> np.ndarray:
    """An unfilled (m, 2, 2) stack laid out entry-plane-major, so that each entry
    plane a[:, i, j] is contiguous: the d = 2 kernels read and write whole planes."""
    return np.empty((2, 2, m)).transpose(2, 0, 1)


def _lift(basis, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q^T for every matrix of a stack, exactly symmetric.  `basis`
    is the products (cc, ss, cs) of `_rotation_2x2`, whose entry planes
    ss l0 + cc l1, cs (l1 - l0) = (1, 0) and cc l0 + ss l1 are written into a
    stack of `_empty_2x2` so that no two eigenvalues are summed, or an (m, d, d)
    stack of eigenvector columns Q at any d, whose matmul R is averaged with
    R^T as 0.5 (R + R^T), or as 0.5 R + 0.5 R^T where R + R^T overflowed."""
    if isinstance(basis, tuple):
        cc, ss, cs = basis
        lo, hi = vals[:, 0], vals[:, 1]
        out = _empty_2x2(len(vals))
        a00, a01, a11 = out[:, 0, 0], out[:, 0, 1], out[:, 1, 1]
        np.multiply(ss, lo, out=a00)  # each plane computed in place
        a00 += cc * hi
        np.subtract(hi, lo, out=a01)
        a01 *= cs
        out[:, 1, 0] = a01
        np.multiply(cc, lo, out=a11)
        a11 += ss * hi
        return out
    # stacked matmul runs about twice as fast on a contiguous Q^T as on the view
    out = (basis * vals[:, None, :]) @ np.ascontiguousarray(basis.transpose(0, 2, 1))
    flip = out.transpose(0, 2, 1)
    # halving before adding can round a subnormal entry, so only where the sum overflowed
    with np.errstate(over="ignore"):
        sym = 0.5 * (out + flip)
    return np.where(np.isinf(sym), 0.5 * out + 0.5 * flip, sym)


def _eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors: LAPACK (for d = 1 the entry and
    +1.0, bit for bit), or for d = 2 the eigenvalues of `_rotation_2x2` and
    the rotation [[-sin, cos], [cos, sin]] in a stack of `_empty_2x2`, read
    from its products: the larger of cos^2 and sin^2, at least 1/2, gives its
    factor by a square root, cos = sqrt(cc) or sin = sqrt(ss), and the other
    is cs divided by it, so that nothing cancels.  cos > 0 where cc >= ss
    (a >= c) and sin > 0 elsewhere, so that a diagonal matrix gets a signed
    permutation."""
    if stack.shape[-1] != 2:
        return np.linalg.eigh(stack)
    lam, (cc, ss, cs) = _rotation_2x2(stack)
    wide = cc >= ss
    big = np.sqrt(np.maximum(cc, ss))
    small = cs / big
    cos, sin = np.where(wide, big, small), np.where(wide, small, big)
    vec = _empty_2x2(stack.shape[0])
    vec[:, 0, 0], vec[:, 1, 0] = -sin, cos  # eigenvector of mid - r
    vec[:, 0, 1], vec[:, 1, 1] = cos, sin   # eigenvector of mid + r
    return lam, vec


def _rotation_2x2(stack: np.ndarray) -> tuple[np.ndarray, tuple]:
    """The d = 2 closed form: ascending eigenvalues mid -+ r of a stack, as an
    (m, 2) array whose two columns are contiguous, and the products
    (cc, ss, cs) of the eigenvector rotation by theta, from the double angle
    without trigonometry: with h = (a - c)/2, halved before subtracting so
    that it stays finite, cos 2 theta = h / r and sin 2 theta = b / r give
    cc = 1/2 + h / (2 r), ss = 1/2 - h / (2 r) and cs = b / (2 r), and
    theta = 0 where r = 0.

    r = sqrt(h^2 + b^2) wherever that sum lies in [_SUMSQ_LOW, _SUMSQ_HIGH],
    so that no square overflowed and none that matters underflowed, and
    `np.hypot` elsewhere: exact where b = 0, so that a diagonal matrix gets
    exact zeros and ones.
    """
    half_a, half_c = 0.5 * stack[:, 0, 0], 0.5 * stack[:, 1, 1]
    half_gap, off = half_a - half_c, stack[:, 0, 1]
    with np.errstate(over="ignore"):  # an overflowed sum is out of range
        sumsq = half_gap * half_gap
        sumsq += off * off
    radius = divisor = np.sqrt(sumsq)
    if np.maximum.reduce(sumsq, initial=0.0) > _SUMSQ_HIGH:  # a square overflowed
        np.hypot(half_gap, off, out=radius, where=sumsq > _SUMSQ_HIGH)
    if np.minimum.reduce(sumsq, initial=np.inf) < _SUMSQ_LOW:  # one underflowed, or h = b = 0
        np.hypot(half_gap, off, out=radius, where=sumsq < _SUMSQ_LOW)
        flat = radius == 0.0  # h = b = 0: the angle of h = 1, b = 0 there, theta = 0
        half_gap, divisor = half_gap + flat, radius + flat
    mid = half_a + half_c
    lam = np.empty((2, len(stack))).T
    np.subtract(mid, radius, out=lam[:, 0])
    np.add(mid, radius, out=lam[:, 1])
    half_cos = half_gap / divisor
    half_cos *= 0.5
    cs = off / divisor
    cs *= 0.5
    cc = 0.5 + half_cos
    ss = np.subtract(0.5, half_cos, out=half_cos)
    return lam, (cc, ss, cs)


def _check_reconstruction(stack: np.ndarray, lam: np.ndarray, basis) -> None:
    """The reconstruction guard, one lift per matrix A of a stack, from the
    basis its entry returns (`lift_2x2`'s products, or every column Q of
    `spectral_decompose_stack`): each residual R = _lift(basis, lam) - A must
    have ||R||_F <= RECONSTRUCTION_RTOL * max(||A||_F, tiny), so a not exactly
    symmetric A is judged against its symmetric lift.  Where ||A||^2 lies in
    [_SUMSQ_LOW, _SUMSQ_HIGH] plain sums decide, ||R||^2 <= RTOL^2 ||A||^2; the
    residual's sum needs no lower end, as a square that underflowed errs by at
    most 2^-1075.  Every other A, and its R, is divided by its scale s of
    `_unit` and judged by the same sums against RTOL^2 max(||A / s||^2, 1),
    which cannot overflow.  The first A refused raises `EigensolverError` with
    its own residual, bound and index.
    """
    rtol2 = RECONSTRUCTION_RTOL ** 2
    with np.errstate(over="ignore"):  # an overflowed sum is out of range, or refused
        resid = _lift(basis, lam) - stack
        rr = np.einsum("mij,mij->m", resid, resid)
        aa = np.einsum("mij,mij->m", stack, stack)
        fits = (aa >= _SUMSQ_LOW) & (aa <= _SUMSQ_HIGH) & (rr <= rtol2 * aa)
        if np.count_nonzero(fits) == fits.size:
            return
        out = (aa < _SUMSQ_LOW) | (aa > _SUMSQ_HIGH)
        scale = np.ones_like(aa)
        unit, scale[out] = _unit(stack[out])
        resid = resid[out] / scale[out, None, None]
        rr[out] = np.einsum("mij,mij->m", resid, resid)
        aa[out] = np.maximum(np.einsum("mij,mij->m", unit, unit), 1.0)
        fits[out] = rr[out] <= rtol2 * aa[out]
    if np.count_nonzero(fits) != fits.size:
        i = int(np.argmin(fits))
        s = float(scale[i])
        raise EigensolverError(
            f"eigendecomposition reconstruction residual {s * math.sqrt(rr[i]):.3e} exceeds "
            f"tolerance {s * RECONSTRUCTION_RTOL * math.sqrt(aa[i]):.3e} (matrix {i} of {fits.size})"
        )


def _finite(stack) -> np.ndarray:
    """`stack` as a float array: `ValueError` unless it is an (m, d, d) stack
    with d >= 1, and `EigensolverError` if an entry is not finite."""
    stack = np.asarray(stack, dtype=np.float64)
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] == 0:
        raise ValueError(f"expected an (m, d, d) stack with d >= 1, got shape {stack.shape}")
    if np.count_nonzero(np.isfinite(stack)) != stack.size:
        raise EigensolverError("cannot decompose a matrix with non-finite entries")
    return stack


def spectral_decompose_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a stack of symmetric matrices; returns (eigenvalues, eigenvectors).

    Eigenvalues come back as (m, d) sorted non-decreasing per matrix, with
    eigenvector columns (m, d, d) in matching order.  Every matrix is checked
    once by `_check_reconstruction`, which lifts every column returned, both
    at d = 2: non-finite input, or a residual above 1e-8 * max(||A||_F, tiny),
    raises `EigensolverError`.  `tiny`, the smallest normal double, keeps the
    relative bound positive for zero and subnormal A.  The error names the
    first matrix refused.  Any shape but (m, d, d) with d >= 1 raises
    `ValueError`.
    """
    stack = _finite(stack)
    lam, vec = _eig_stack(stack)
    _check_reconstruction(stack, lam, vec)
    return lam, vec


def spectral_decompose(a: SymmetricMatrix) -> SpectralDecomposition:
    """Spectral decomposition A = Q diag(lambda) Q^T with lambda non-decreasing."""
    lam, vec = spectral_decompose_stack(a.entries[None, :, :])
    return SpectralDecomposition(eigenvalues=lam[0], eigenvectors=vec[0])


def lift_2x2(stack: np.ndarray, specs) -> tuple[np.ndarray, ...]:
    """The lifts g(A) = Q diag(g(lambda)) Q^T of each spec g in `specs` over
    every matrix A of an (m, 2, 2) stack, in the order of `specs`, from one
    decomposition of the stack.

    The rotation Q enters only through its products cos^2, sin^2 and cos sin,
    taken from the double angle by `_rotation_2x2`, with no trigonometry; so a
    diagonal A lifts to exactly diag(g(a_ii)).  The decomposition is checked
    as `spectral_decompose_stack` checks its own, and refused alike.  Each
    lift is exactly symmetric and laid out plane by plane; a stack of another
    shape raises `ValueError`.
    """
    stack = _finite(stack)
    if stack.shape[1] != 2:
        raise ValueError(f"expected an (m, 2, 2) stack, got shape {stack.shape}")
    lam, products = _rotation_2x2(stack)
    _check_reconstruction(stack, lam, products)
    return tuple(_lift(products, spec.map_eigenvalues(lam)) for spec in specs)


def apply_scalar_fn(spec: ScalarFunctionSpec, a: SymmetricMatrix) -> SymmetricMatrix:
    """Evaluate the lifted scalar function: g(A) = Q diag(g(lambda)) Q^T, by
    `lift_2x2` at d = 2."""
    stack = a.entries[None, :, :]
    if a.dim == 2:
        return SymmetricMatrix(lift_2x2(stack, (spec,))[0][0])
    lam, vec = spectral_decompose_stack(stack)
    return SymmetricMatrix(_lift(vec, spec.map_eigenvalues(lam))[0])


def matrix_sqrt(a: SymmetricMatrix) -> SymmetricMatrix:
    """PSD square root: the spectral lift of sqrt(max(x, 0)), whose own clamp
    gives paths that drift slightly outside the PSD cone a well-defined root."""
    spec = ScalarFunctionSpec(fn=lambda x: np.sqrt(np.maximum(x, 0.0)), name="sqrt")
    return apply_scalar_fn(spec, a)


def min_eigenvalues_stack(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix A of a stack, from its eigenvalues lam
    alone: `_rotation_2x2`'s for d = 2, so the decomposition's bits, LAPACK
    `eigvalsh` otherwise.  A shape other than (m, d, d) with d >= 1 raises
    `ValueError`.  Non-finite A raises `EigensolverError`, as does a lam that is
    not non-decreasing or misses a power sum tr A^p (p = 1, 2) by more than
    RECONSTRUCTION_RTOL * n^p, n = max(||A||_F, tiny); a non-finite lam misses.
    The sums are taken on A and lam over the scale s of `_unit`, so no square
    overflows or underflows."""
    stack = _finite(stack)
    lam = _rotation_2x2(stack)[0] if stack.shape[-1] == 2 else np.linalg.eigvalsh(stack)
    unit, scale = _unit(stack)
    sumsq = np.einsum("mij,mij->m", unit, unit)
    norm = np.maximum(np.sqrt(sumsq), 1.0)  # n / s: ||A / s||_F >= 1 once max |A_ij| >= tiny
    with np.errstate(over="ignore", invalid="ignore"):  # a wrong lam only fails
        mu = lam / scale[:, None]
        trace_gap = np.abs(np.einsum("mi->m", mu) - np.einsum("mii->m", unit)) / norm
        square_gap = np.abs(np.einsum("mi,mi->m", mu, mu) - sumsq) / (norm * norm)
        ok = (trace_gap <= RECONSTRUCTION_RTOL) & (square_gap <= RECONSTRUCTION_RTOL) \
            & (mu[:, 1:] >= mu[:, :-1]).all(axis=1)
    if np.count_nonzero(ok) != ok.size:
        raise EigensolverError(f"eigenvalues of {int((~ok).sum())} of {ok.size} matrices are not "
                               "sorted, or miss tr A or ||A||_F^2")
    return lam[:, 0]


def is_psd(a: SymmetricMatrix, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue is >= -tol, for a finite tol >= 0."""
    if not 0 <= tol < math.inf:
        raise ValueError("tol must be finite and non-negative")
    return bool(min_eigenvalues_stack(a.entries[None, :, :])[0] >= -tol)

