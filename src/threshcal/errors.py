"""Exception types shared across the package, with the command line's exit
code for each: DomainError 1; InfeasibilityError, InfeasibleConditioningError,
SolverError (UnboundedSolutionError included) and IntegrationError 2."""


class DomainError(ValueError):
    """Bad input, the package's one input-error type: an argument outside a
    function's documented domain, an inconsistent threshold schedule, or a
    malformed job file, schedule file or command line."""


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
    """The threshold search failed: bracketing did not enclose a solution,
    or a probe that stopped its quadrature early turned out above p0 at
    full tolerance."""


class UnboundedSolutionError(SolverError):
    """The exceedance constraint holds at every threshold tried, so there is
    no finite uncapped solution."""
