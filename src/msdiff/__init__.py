"""Multicomponent diffusion on the torus: batched force-flux inversion,
finite-volume time integration, entropy functionals with twin-stability
certificates, space-time mollification studies, and certification suites.
"""

from .flux import (
    DeltaOutOfRange,
    DiffusionMatrix,
    SingularComposition,
    StabilityConstants,
    solve_fluxes_batch,
    solve_fluxes_lstsq,
    stability_constants,
)
from .grid import (
    ConcentrationState,
    GridMismatch,
    PeriodicGrid,
    gradient,
    integrate,
    l2_norm,
)
from .entropy import (
    DeltaNonpositive,
    ErrorTerms,
    GronwallReport,
    IdentityResidual,
    MeshMismatch,
    RenormFunction,
    dissipation,
    error_terms,
    gronwall_certificate,
    identity_renorm,
    identity_residual,
    identity_series,
    log_shift_renorm,
    quadratic_log_gap,
    regularized_relative_entropy,
    square_renorm,
)
from .mollify import (
    EpsilonTooSmallForGrid,
    bump_profile,
    fit_loglog,
    initial_pairing,
    initial_trace_mollification,
    mollify_spacetime,
    plain_pairing,
    rate_study,
)
from .sim import (
    CflViolation,
    Perturbation,
    PositivityFailure,
    Scenario,
    Trajectory,
    apply_positivity,
    bump_test_function,
    exact_binary_mode,
    max_stable_dt,
    run,
    run_lockstep,
    step,
    weak_form_residual,
)
from .config import ParseError, RunConfig, ValidationError, load_config, parse_config
from .suites import SuiteResult, execute

__version__ = "0.1.0"
