"""silab: a numerical laboratory for online spherical-gradient learning of
Gaussian single-index models, its learning-rate phase transitions, and the
accompanying Hermite/complexity machinery."""

from .hermite import (
    DegreeOverflowError,
    ExponentReport,
    HermiteExpansion,
    MonomialPoly,
    expand,
    exponent_report,
    gauss_hermite_coeff,
    hermite_eval,
    hermite_poly,
)
from .model import (
    NetworkSpec,
    NoiseSpec,
    SeedTree,
    TeacherSpec,
    alignment,
    draw_batch,
    init_network,
)
from .oracles import (
    MuTable,
    OracleSpec,
    Psi,
    StepResult,
    check_sign_assumption,
    effective_psi,
    alignment_gain_moments,
    expected_alignment_gain,
    mu_integrand_moments,
    mu_monte_carlo,
    mu_table,
)
from .dynamics import (
    AuditReport,
    RidgeConfig,
    RunConfig,
    Trajectory,
    normalization_error_audit,
    ridge_fit,
    run,
    weak_recovery_sample_size,
)
from .theory import (
    LemmaReport,
    PhaseBoundary,
    Prediction,
    bihari_lasalle_check,
    gamma_auto,
    gamma_max,
    gronwall_check,
    phase_boundaries,
    predict_T,
    recursion_oracle,
)
from .harness import (
    SweepResult,
    SweepSpec,
    emit,
    fit_boundary_slope,
    knee_eta,
    log_grid,
    int_log_grid,
    sweep,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
