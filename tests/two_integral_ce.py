"""Conditional exceedance as two separate scalar integrals: the reference.

The library integrates the numerator and the denominator of the
posterior-predictive exceedance in one pass on a shared partition, with
its own inlined weight.  This module keeps the formulation that preceded
it: two independent adaptive integrals over ln(sigma), each on its own
partition, with the weight built from the public log-CDF.  The two agree
to far below the quadrature tolerance wherever both converge, so tests
hold the fused path to it.
"""

import math

from threshcal.calibration import SafetySpec, SigmaPrior, marginal_exceedance
from threshcal.errors import InfeasibleConditioningError
from threshcal.gaussian import integrate, log_std_normal_cdf, std_normal_sf

_LOG_UNDERFLOW_FLOOR = math.log(1e-300)


def conditional_exceedance(spec: SafetySpec, threshold: float, n: int,
                           prior: SigmaPrior, rel_tol: float = 1e-10) -> float:
    """P(next draw > q0 | max of n draws <= threshold), two integrals."""
    if prior.kind == "point":
        return marginal_exceedance(spec, prior.sigma_lo)

    t_lo = math.log(prior.sigma_lo)
    t_hi = math.log(prior.sigma_hi)
    width = t_hi - t_lo

    def log_weight(t: float) -> float:
        return n * log_std_normal_cdf(threshold * math.exp(-t))

    shift = max(log_weight(t_lo), log_weight(t_hi))

    def weight(t: float) -> float:
        return math.exp(log_weight(t) - shift)

    def numerator(t: float) -> float:
        return std_normal_sf(spec.q0 * math.exp(-t)) * weight(t)

    denom = integrate(weight, t_lo, t_hi, rel_tol=rel_tol)
    if denom <= 0.0 or shift + math.log(denom / width) < _LOG_UNDERFLOW_FLOOR:
        raise InfeasibleConditioningError(
            f"the event max <= {threshold} with n = {n} has negligible probability")
    numer = integrate(numerator, t_lo, t_hi, rel_tol=rel_tol)
    return numer / denom
