"""Symmetric matrices, spectral decomposition, and scalar functional calculus.

The state space throughout the package is the set of real symmetric d x d
matrices.  A scalar function g is lifted to a matrix argument through the
spectral decomposition A = Q diag(lambda) Q^T as g(A) = Q diag(g(lambda)) Q^T,
with eigenvalues kept in non-decreasing order.  The Loewner order predicates
(`is_psd`, `loewner_leq`) and the quadratic form x^T A x round out the
deterministic substrate used by the stochastic layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

__all__ = [
    "EigensolverError",
    "DomainPolicyError",
    "SymmetricMatrix",
    "SpectralDecomposition",
    "ScalarFunctionSpec",
    "DOMAIN_POLICIES",
    "constant_fn",
    "identity_fn",
    "affine_fn",
    "clipped_affine_fn",
    "clipped_sqrt_fn",
    "spectral_decompose",
    "spectral_decompose_stack",
    "apply_scalar_fn",
    "apply_scalar_fn_stack",
    "matrix_sqrt",
    "is_psd",
    "min_eigenvalues_stack",
    "loewner_leq",
    "quadratic_form",
    "unit_vector",
]

# Construction rejects inputs whose asymmetry exceeds this relative threshold;
# anything below is treated as floating-point drift and symmetrized away.
SYMMETRY_REJECT_RTOL = 1e-8

ORTHOGONALITY_TOL = 1e-10
RECONSTRUCTION_RTOL = 1e-8


class EigensolverError(RuntimeError):
    """Raised when an eigendecomposition fails or does not reconstruct its input."""


class DomainPolicyError(ValueError):
    """Raised when an eigenvalue falls outside a scalar function's domain."""


def _frobenius(a: np.ndarray) -> np.ndarray:
    """Frobenius norm over the trailing two axes, scaled by each matrix's
    largest |entry| so that squaring neither overflows nor underflows."""
    scale = np.abs(a).max(axis=(-2, -1), initial=0.0)
    scale = np.where(scale > 0.0, scale, 1.0)
    unit = a / scale[..., None, None]
    return scale * np.sqrt((unit * unit).sum(axis=(-2, -1)))


class SymmetricMatrix:
    """Immutable real symmetric matrix.

    Inputs are symmetrized as (M + M^T)/2; genuinely asymmetric data
    (relative asymmetry above 1e-8) and non-finite entries are rejected.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries) -> None:
        arr = np.array(entries, dtype=np.float64)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError("matrix entries must be finite")
        skew = _frobenius(arr - arr.T)
        if skew > SYMMETRY_REJECT_RTOL * _frobenius(arr):
            raise ValueError(
                f"matrix is not symmetric: ||M - M^T||_F = {skew:.3e} "
                f"exceeds {SYMMETRY_REJECT_RTOL:.0e} * ||M||_F"
            )
        sym = 0.5 * arr + 0.5 * arr.T
        sym.setflags(write=False)
        self._entries = sym

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

    def __add__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        return SymmetricMatrix(self._entries + other._entries)

    def __sub__(self, other: "SymmetricMatrix") -> "SymmetricMatrix":
        return SymmetricMatrix(self._entries - other._entries)

    def __mul__(self, scalar: float) -> "SymmetricMatrix":
        return SymmetricMatrix(self._entries * float(scalar))

    __rmul__ = __mul__

    def __neg__(self) -> "SymmetricMatrix":
        return SymmetricMatrix(-self._entries)

    def __repr__(self) -> str:
        return f"SymmetricMatrix(dim={self.dim})"


@dataclass(frozen=True)
class SpectralDecomposition:
    """Eigenvalues in non-decreasing order with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self) -> None:
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        q = np.asarray(self.eigenvectors, dtype=np.float64)
        if (np.diff(lam) < 0).any():
            raise ValueError("eigenvalues must be sorted non-decreasing")
        gram = q.T @ q - np.eye(q.shape[0])
        resid = float(_frobenius(gram))
        if resid > ORTHOGONALITY_TOL:
            raise ValueError(f"eigenvector columns not orthonormal: residual {resid:.3e}")
        object.__setattr__(self, "eigenvalues", lam)
        object.__setattr__(self, "eigenvectors", q)

    def reassemble(self) -> np.ndarray:
        """Return Q diag(lambda) Q^T as a plain array."""
        return (self.eigenvectors * self.eigenvalues) @ self.eigenvectors.T


DOMAIN_POLICIES = ("total", "clip_negative_to_zero", "reject_outside_domain")


@dataclass(frozen=True)
class ScalarFunctionSpec:
    """A scalar function together with its domain policy and optional bound.

    `fn` must act elementwise on float arrays.  The domain policies treat the
    negative half-line as the only restricted region: `clip_negative_to_zero`
    replaces negative eigenvalues by zero before evaluation, while
    `reject_outside_domain` raises on any negative eigenvalue.  `bound`, when
    set, declares sup |fn| <= bound on the admitted domain; the SDE solver
    requires it and `bound_holds` spot-checks it by sampling.  `constant`
    declares that fn takes one value everywhere, so its lift is that value
    times the identity and needs no eigendecomposition.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    domain_policy: str = "total"
    bound: Optional[float] = None
    name: str = field(default="", compare=False)
    constant: bool = False

    def __post_init__(self) -> None:
        if self.domain_policy not in DOMAIN_POLICIES:
            raise ValueError(f"unknown domain policy {self.domain_policy!r}")
        if self.bound is not None and not self.bound > 0:
            raise ValueError("bound must be positive when set")

    def map_eigenvalues(self, lam: np.ndarray) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.float64)
        if self.domain_policy == "clip_negative_to_zero":
            lam = np.maximum(lam, 0.0)
        elif self.domain_policy == "reject_outside_domain":
            if (lam < 0.0).any():
                worst = float(lam.min())
                raise DomainPolicyError(
                    f"eigenvalue {worst!r} outside the admitted domain [0, inf)"
                )
        out = np.asarray(self.fn(lam), dtype=np.float64)
        if out.shape != lam.shape:
            raise ValueError("scalar function must evaluate elementwise")
        if not np.isfinite(out).all():
            raise DomainPolicyError(f"scalar function {self.name or self.fn!r} returned non-finite values")
        return out

    def constant_value(self) -> float:
        """The value of a function declared constant."""
        if not self.constant:
            raise ValueError(f"scalar function {self.name or self.fn!r} is not declared constant")
        return float(self.map_eigenvalues(np.zeros(1))[0])

    def bound_holds(self, low: float, high: float, samples: int = 1000, seed: int = 0) -> bool:
        """Spot-check |fn| <= bound on `samples` points of [low, high]."""
        if self.bound is None:
            raise ValueError("no bound declared")
        rng = np.random.default_rng(seed)
        pts = rng.uniform(low, high, size=samples)
        vals = self.map_eigenvalues(pts)
        return bool((np.abs(vals) <= self.bound).all())


def constant_fn(value: float, name: str = "") -> ScalarFunctionSpec:
    value = float(value)
    # any positive M bounds the zero function
    return ScalarFunctionSpec(
        fn=lambda x: np.full_like(np.asarray(x, dtype=np.float64), value),
        domain_policy="total",
        bound=abs(value) if value != 0.0 else 1.0,
        name=name or f"constant({value})",
        constant=True,
    )


def identity_fn() -> ScalarFunctionSpec:
    return ScalarFunctionSpec(fn=lambda x: np.asarray(x, dtype=np.float64).copy(), name="identity")


def affine_fn(a: float, b: float) -> ScalarFunctionSpec:
    return ScalarFunctionSpec(fn=lambda x: a * np.asarray(x, dtype=np.float64) + b, name=f"affine({a},{b})")


def clipped_affine_fn(a: float, b: float, bound: float) -> ScalarFunctionSpec:
    """a*x + b clamped to [-bound, bound]: a bounded Lipschitz coefficient."""
    if not bound > 0:
        raise ValueError("bound must be positive")
    return ScalarFunctionSpec(
        fn=lambda x: np.clip(a * np.asarray(x, dtype=np.float64) + b, -bound, bound),
        domain_policy="total",
        bound=float(bound),
        name=f"clipped_affine({a},{b},{bound})",
    )


def clipped_sqrt_fn(clip: float) -> ScalarFunctionSpec:
    """min(sqrt(max(x, 0)), clip): the bounded square root used by the Wishart model."""
    if not clip > 0:
        raise ValueError("clip bound must be positive")
    return ScalarFunctionSpec(
        fn=lambda x: np.minimum(np.sqrt(x), clip),
        domain_policy="clip_negative_to_zero",
        bound=float(clip),
        name=f"clipped_sqrt({clip})",
    )


def _lift(vec: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Q diag(vals) Q^T for every matrix of a stack."""
    # stacked matmul runs about twice as fast on a contiguous Q^T as on the view
    return (vec * vals[:, None, :]) @ np.ascontiguousarray(vec.transpose(0, 2, 1))


def _eig_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and eigenvectors: the entry for d = 1, the closed
    form mid -+ hypot((a - c)/2, b) rotated by atan2(b, (a - c)/2)/2 for d = 2
    (halved before subtracting, so it stays finite), LAPACK for d >= 3."""
    m, d = stack.shape[0], stack.shape[1]
    if d == 1:
        return stack[:, 0, :].copy(), np.ones((m, 1, 1))
    if d == 2:
        a, b, c = stack[:, 0, 0], stack[:, 0, 1], stack[:, 1, 1]
        half_gap = 0.5 * a - 0.5 * c
        mid = 0.5 * a + 0.5 * c
        radius = np.hypot(half_gap, b)
        theta = 0.5 * np.arctan2(b, half_gap)
        cos, sin = np.cos(theta), np.sin(theta)
        lam = np.stack([mid - radius, mid + radius], axis=1)
        vec = np.stack([np.stack([-sin, cos], axis=1), np.stack([cos, sin], axis=1)], axis=2)
        return lam, vec
    return np.linalg.eigh(stack)


def spectral_decompose_stack(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Decompose a stack of symmetric matrices; returns (eigenvalues, eigenvectors).

    Eigenvalues come back as (m, d) sorted non-decreasing per matrix, with
    eigenvector columns (m, d, d) in matching order.  Reconstruction residuals
    are verified for the whole stack; non-finite input, or a residual above
    1e-8 * max(||A||_F, tiny), raises `EigensolverError`.  `tiny`, the smallest
    normal double, keeps the relative bound positive for zero and subnormal A.
    """
    stack = np.asarray(stack, dtype=np.float64)
    if not np.isfinite(stack).all():
        raise EigensolverError("cannot decompose a matrix with non-finite entries")
    lam, vec = _eig_stack(stack)
    resid = _frobenius(_lift(vec, lam) - stack)
    bound = RECONSTRUCTION_RTOL * np.maximum(_frobenius(stack), np.finfo(np.float64).tiny)
    if not (resid <= bound).all():
        raise EigensolverError(
            f"eigendecomposition reconstruction residual {float(resid.max()):.3e} "
            f"exceeds tolerance {float(bound.max()):.3e}"
        )
    return lam, vec


def spectral_decompose(a: SymmetricMatrix) -> SpectralDecomposition:
    """Spectral decomposition A = Q diag(lambda) Q^T with lambda non-decreasing."""
    lam, vec = spectral_decompose_stack(a.entries[None, :, :])
    return SpectralDecomposition(eigenvalues=lam[0], eigenvectors=vec[0])


def apply_scalar_fn_stack(spec: ScalarFunctionSpec, stack: np.ndarray) -> np.ndarray:
    """Lift `spec` over a stack of symmetric matrices; exactly symmetric output."""
    lam, vec = spectral_decompose_stack(stack)
    out = _lift(vec, spec.map_eigenvalues(lam))
    return 0.5 * (out + out.transpose(0, 2, 1))


def apply_scalar_fn(spec: ScalarFunctionSpec, a: SymmetricMatrix) -> SymmetricMatrix:
    """Evaluate the lifted scalar function: g(A) = Q diag(g(lambda)) Q^T."""
    return SymmetricMatrix(apply_scalar_fn_stack(spec, a.entries[None, :, :])[0])


def matrix_sqrt(a: SymmetricMatrix) -> SymmetricMatrix:
    """PSD square root via the spectral lift of sqrt(max(x, 0)).

    Negative eigenvalues are clipped to zero so that discretized paths which
    drift slightly outside the PSD cone still have a well-defined square root.
    """
    spec = ScalarFunctionSpec(fn=np.sqrt, domain_policy="clip_negative_to_zero", name="sqrt")
    return apply_scalar_fn(spec, a)


def min_eigenvalues_stack(stack: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each matrix in a stack."""
    lam, _ = spectral_decompose_stack(stack)
    return lam[:, 0]


def is_psd(a: SymmetricMatrix, tol: float = 0.0) -> bool:
    """True iff the smallest eigenvalue is >= -tol."""
    if tol < 0:
        raise ValueError("tol must be non-negative")
    lam, _ = spectral_decompose_stack(a.entries[None, :, :])
    return bool(lam[0, 0] >= -tol)


def loewner_leq(a: SymmetricMatrix, b: SymmetricMatrix, tol: float = 0.0) -> bool:
    """Loewner order A <= B, i.e. B - A is PSD up to tol."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return is_psd(b - a, tol)


def unit_vector(v) -> np.ndarray:
    """Normalize to unit Euclidean length; rejects the zero vector."""
    arr = np.asarray(v, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("cannot normalize the zero vector")
    return arr / norm


def quadratic_form(x, a: SymmetricMatrix) -> float:
    """x^T A x for a unit vector x (norm within 1e-12 of 1)."""
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    norm = float(np.linalg.norm(arr))
    if norm == 0.0:
        raise ValueError("zero vector is not a direction")
    if abs(norm - 1.0) > 1e-12:
        raise ValueError(f"expected a unit vector, got norm {norm!r}")
    if arr.shape[0] != a.dim:
        raise ValueError(f"vector length {arr.shape[0]} does not match dim {a.dim}")
    return float(arr @ a.entries @ arr)
