"""Simulation and numerical verification of diffusions on symmetric matrices."""

from .symmat import (
    DomainPolicyError,
    EigensolverError,
    ScalarFunctionSpec,
    SpectralDecomposition,
    SymmetricMatrix,
    affine_fn,
    apply_scalar_fn,
    clipped_sqrt_fn,
    constant_fn,
    identity_fn,
    is_psd,
    loewner_leq,
    matrix_sqrt,
    quadratic_form,
    spectral_decompose,
    unit_vector,
)
from .brownian import (
    BrownianPath,
    TimeGrid,
    coarsen_path,
    sample_path,
)
from .integrals import (
    MatrixProcess,
    isometry_rhs,
    ito_integral,
    ito_integral_transposed,
    symmetrized_diffusion,
    time_integral,
)
from .sde import (
    PathSolution,
    PicardDiagnostics,
    SdeModel,
    WallachSetWarning,
    euler_solve,
    euler_solve_paths,
    euler_step,
    in_wallach_set,
    picard_solve,
    wishart_model,
)
from .checks import (
    CheckReport,
    LipschitzEstimate,
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    estimate_lipschitz,
    mc_isometry,
    mc_trace_moment,
)

__version__ = "0.1.0"
