"""Condensed-trace eigenvalue solver for second-order elliptic operators.

A hybridized discontinuous Galerkin discretization of the Dirichlet
eigenproblem for -div(alpha grad u): element-interior unknowns are
eliminated through local lifts, the remaining trace unknowns satisfy a
nonlinear eigenproblem, solved for all modes at once on the discrete
source-solution operator (Lanczos from a fixed vector, or LOBPCG from a
block of approximate eigenfields such as a coarser mesh's), and local
postprocessing upgrades both eigenfunctions and eigenvalues.
"""

from .assembly import (
    CondensedSystem,
    assemble_condensed,
    assemble_m_of_lambda,
    solve_source,
)
from .basis import QuadratureRule, edge_quadrature, triangle_quadrature
from .eigensolve import (
    EigenPair,
    OracleSpectrum,
    oracle_full_eig,
    search_space,
    solve_condensed_nonlinear,
    solve_linear_surrogate,
    solve_modes,
    surrogate_values,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    EigenSolveError,
    HdgError,
    LocalSolveError,
    NumericalError,
    UnsupportedModeError,
)
from .localsolve import MaterialSpec, SpaceConfig, TauSpec
from .mesh import Mesh, build_lshape_mesh, build_square_mesh, refine
from .recovery import (
    PostprocessedFields,
    RecoveredFields,
    eig_residuals,
    postprocess,
    postprocess_q,
    postprocess_u,
    qstar_normal_jumps,
    rayleigh_eigenvalue,
    recover_fields,
    source_residuals,
)
from .study import (
    ConvergenceReport,
    ExactMode,
    StudyConfig,
    eigenfunction_error,
    emit_table,
    estimate_order,
    exact_lshape_values,
    exact_square_spectrum,
    run_convergence_study,
)

__version__ = "0.1.0"
