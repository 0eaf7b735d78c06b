"""Exception types shared across the package."""


class DomainError(ValueError):
    """Input outside a function's documented domain (non-finite, wrong sign, ...)."""


class IntegrationError(RuntimeError):
    """Adaptive quadrature ran out of subdivision budget before converging.

    Carries the best available estimate and its error bound so callers can
    decide whether the partial result is still usable.
    """

    def __init__(self, message: str, estimate: float, error_bound: float):
        super().__init__(message)
        self.estimate = estimate
        self.error_bound = error_bound


class InfeasibleConditioningError(RuntimeError):
    """The conditioning event has negligible probability under the prior."""


class InfeasibilityError(RuntimeError):
    """No test threshold can satisfy the exceedance constraint."""


class SolverError(RuntimeError):
    """Threshold bracketing failed to enclose a solution."""


class ConfigurationError(ValueError):
    """Inconsistent rule or scenario configuration."""
