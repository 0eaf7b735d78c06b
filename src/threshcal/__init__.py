"""Measurement-count-aware calibration of safety test thresholds.

The toolkit turns a true danger threshold and a tolerated exceedance
probability into a count-dependent test-threshold schedule, and ships a
seeded Monte Carlo harness that demonstrates why a fixed test threshold
punishes whoever measures more than a standard requires.

The names of __all__ that the imports below do not bind are those of
threshcal.paradox (the Monte Carlo kernels and their reports, the
expected-maximum routes, EULER_GAMMA and std_normal_quantile_log).  They
load lazily (PEP 562): the first access imports that module, and numpy
with it.  Importing the package, or calibrating with it, loads neither.
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
    std_normal_sf,
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


def __getattr__(name):
    # Only names the imports above left unbound get here: the paradox ones.
    if name in __all__:
        from . import paradox

        return getattr(paradox, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
