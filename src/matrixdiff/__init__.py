"""Simulation and numerical verification of diffusions on symmetric matrices."""

from .symmat import (
    EigensolverError,
    NonFiniteValueError,
    ScalarFunctionSpec,
    SpectralDecomposition,
    SymmetricMatrix,
    apply_scalar_fn,
    clipped_sqrt_fn,
    constant_fn,
    is_psd,
    matrix_sqrt,
    spectral_decompose,
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
)
from .sde import (
    PathSolution,
    PicardDiagnostics,
    SdeModel,
    WallachSetWarning,
    euler_solve_paths,
    in_wallach_set,
    picard_solve,
    wishart_model,
)
from .checks import (
    CheckReport,
    check_inq2,
    check_inq_nice,
    check_prop_cauchy,
    estimate_lemma_beta,
    mc_isometry,
    mc_trace_moment,
)

__version__ = "0.1.0"
