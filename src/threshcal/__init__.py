"""Measurement-count-aware calibration of safety test thresholds.

The toolkit turns a true danger threshold and a tolerated exceedance
probability into a count-dependent test-threshold schedule, and ships a
seeded Monte Carlo harness that demonstrates why a fixed test threshold
punishes whoever measures more than a standard requires.
"""

from .calibration import (
    CalibrationResult,
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    calibrate_schedule,
    calibrate_threshold,
    conditional_exceedance,
    marginal_exceedance,
    next_exceeds_max_probability,
    threshold_schedule,
)
from .errors import (
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    IntegrationError,
    SolverError,
    UnboundedSolutionError,
)
from .gaussian import (
    SeededStream,
    integrate,
    log_cdf_power,
    log_std_normal_cdf,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_quantile_log,
    std_normal_sf,
)
from .paradox import (
    EULER_GAMMA,
    DesignScenario,
    ParadoxPoint,
    SimulationReport,
    estimate_conditional_exceedance,
    euler_gamma_partial,
    expected_max_asymptotic,
    expected_max_exact,
    expected_max_monte_carlo,
    paradox_curve,
    simulate_compliance,
    simulate_minimal_effort,
)

__version__ = "0.1.0"

__all__ = [
    "CalibrationResult",
    "DesignScenario",
    "DomainError",
    "EULER_GAMMA",
    "InfeasibilityError",
    "InfeasibleConditioningError",
    "IntegrationError",
    "ParadoxPoint",
    "SafetySpec",
    "SeededStream",
    "SigmaPrior",
    "SimulationReport",
    "SolverError",
    "StandardRule",
    "UnboundedSolutionError",
    "acceptance_probability",
    "calibrate_schedule",
    "calibrate_threshold",
    "conditional_exceedance",
    "estimate_conditional_exceedance",
    "euler_gamma_partial",
    "expected_max_asymptotic",
    "expected_max_exact",
    "expected_max_monte_carlo",
    "integrate",
    "log_cdf_power",
    "log_std_normal_cdf",
    "marginal_exceedance",
    "next_exceeds_max_probability",
    "paradox_curve",
    "simulate_compliance",
    "simulate_minimal_effort",
    "std_normal_cdf",
    "std_normal_pdf",
    "std_normal_quantile",
    "std_normal_quantile_log",
    "std_normal_sf",
    "threshold_schedule",
]
