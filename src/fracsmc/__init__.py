"""Spectral Monte Carlo solvers for fractional Poisson and parabolic problems."""

from .basis import (
    ContractError,
    GjfGrid,
    Interpolant1D,
    SpaceTimeInterpolant,
    TimeGrid,
    eval_interpolant,
    eval_jacobi_series,
    eval_st_interpolant,
    frac_diag_factor,
    frac_laplacian_modal,
    gjf_eval,
    interpolate,
    make_grid,
    make_time_grid,
    st_frac_laplacian,
    st_interpolate,
    st_operator,
    st_time_derivative,
)
from .oracles import (
    FracLapOracleConfig,
    GalerkinSolution,
    QuadratureFailure,
    euler_stable_exit,
    frac_laplacian_direct,
    galerkin_solve,
    jump_law_ks,
    normalization_constant,
    sample_symmetric_stable,
)
from .parabolic import ParabolicConfig, stsmc_solve
from .poisson import (
    IterationReport,
    PoissonConfig,
    Solution,
    empirical_contraction,
    smc_solve,
)
from .presets import (
    ParabolicPreset,
    SteadyPreset,
    parabolic_poly_preset,
    parabolic_sine_preset,
    poly_preset,
    sin_source_preset,
    sine_preset,
)
from .rng import RngStream
from .specfun import DomainError, JacobiIndex, QuadratureRule, jacobi_gauss
from .walks import (
    BallGeometry,
    CappedWalkError,
    PathFunctionalSpec,
    WalkBatch,
    fixed_radius,
    greens_q,
    occupation_zeta,
    parabolic_walks,
    poisson_walks,
    sample_interior,
    zeta_closed,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
