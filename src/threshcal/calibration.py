"""Test-threshold calibration against a conditional exceedance target.

A safety standard pins a true danger threshold q0 and a tolerated
probability p0 for a future observation exceeding q0.  When the measurement
scale sigma is known, conditioning on "all n observed values stayed below a
test threshold" says nothing about an independent future draw, so the
conditional exceedance collapses to the plain tail probability.  The scale
is therefore modeled as unknown with a prior; passing the test then shifts
the posterior toward smaller scales, and

    P(next > q0 | max of n observations <= t)

becomes a posterior-predictive quantity that the test threshold t controls.
Calibration finds the largest t whose conditional exceedance stays within
p0, and a standard publishes t as a function of the measurement count.

Numerically, each exceedance is a ratio of two integrals over ln(sigma)
that share the acceptance weight Phi(t/sigma)**n.  They are computed as
one pair-valued adaptive quadrature, so both see the same nodes and each
node's weight is computed once.  Calibration bisects on that ratio and
only ever returns a threshold whose computed exceedance is at most p0.
For t > 0 the exceedance falls as n grows, so an uncapped schedule row
resumes the bracket doubling where the row before it left off
(calibrate_threshold's warm_start), with the same result.
"""

from __future__ import annotations

import bisect as _bisect
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    InsufficientDataError,
    IntegrationError,
    SolverError,
)
from .gaussian import (
    _INV_SQRT2,
    _require_count,
    _require_counts,
    _require_finite,
    _require_positive,
    integrate,
    log_cdf_power,
    log_std_normal_cdf,
    std_normal_sf,
)

# Conditioning events with posterior-predictive probability below this are
# treated as impossible rather than conditioned on.
_LOG_UNDERFLOW_FLOOR = math.log(1e-300)

_MAX_EXPANSIONS = 64
_MAX_CONTRACTIONS = 200
_MAX_BISECTIONS = 200
_STOP_REASONS = ("capped", "tol", "resolution", "bisection_cap")


@dataclass(frozen=True)
class SafetySpec:
    """True danger threshold q0 and tolerated future-exceedance probability p0.

    Measurements are assumed mean-centered by the caller, so a meaningful
    danger threshold lies strictly above zero.
    """

    q0: float
    p0: float

    def __post_init__(self):
        object.__setattr__(self, "q0", _require_positive("q0", self.q0))
        object.__setattr__(self, "p0", _require_finite("p0", self.p0))
        if not 0.0 < self.p0 < 0.5:
            raise DomainError(f"p0 must lie in (0, 0.5), got {self.p0!r}")


@dataclass(frozen=True)
class SigmaPrior:
    """Uncertainty model for the unknown measurement scale.

    kind = "log_uniform": sigma is log-uniform on [sigma_lo, sigma_hi].
    kind = "point":       sigma is known exactly (sigma_lo == sigma_hi);
                          kept so the known-scale vacuity is explicit and
                          testable.
    """

    kind: str
    sigma_lo: float
    sigma_hi: float

    def __post_init__(self):
        if self.kind not in ("log_uniform", "point"):
            raise DomainError(f"unknown prior kind {self.kind!r}")
        object.__setattr__(self, "sigma_lo", _require_finite("sigma_lo", self.sigma_lo))
        object.__setattr__(self, "sigma_hi", _require_finite("sigma_hi", self.sigma_hi))
        if not 0.0 < self.sigma_lo <= self.sigma_hi:
            raise DomainError(
                f"need 0 < sigma_lo <= sigma_hi, got [{self.sigma_lo}, {self.sigma_hi}]")
        if (self.kind == "point") != (self.sigma_lo == self.sigma_hi):
            raise DomainError("kind 'point' requires sigma_lo == sigma_hi, and vice versa")

    @classmethod
    def log_uniform(cls, sigma_lo: float, sigma_hi: float) -> "SigmaPrior":
        return cls("log_uniform", sigma_lo, sigma_hi)

    @classmethod
    def point(cls, sigma: float) -> "SigmaPrior":
        return cls("point", sigma, sigma)

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw scales from the prior."""
        if self.kind == "point":
            return np.full(count, self.sigma_lo)
        return np.exp(rng.uniform(math.log(self.sigma_lo), math.log(self.sigma_hi), size=count))


@dataclass(frozen=True)
class StandardRule:
    """A published standard: its threshold schedule t(n').

    The first entry is the required count with its test threshold; the
    later entries extend it to practitioners who measure more.  The counts
    are integers in [1, 2**36], strictly increasing, and the thresholds
    finite and non-decreasing; any other schedule raises ConfigurationError.
    """

    schedule: tuple[tuple[int, float], ...]

    def __post_init__(self):
        try:
            counts = _require_counts("schedule counts", [n for n, _ in self.schedule])
            thresholds = [_require_finite("schedule threshold", t) for _, t in self.schedule]
        except DomainError as exc:
            raise ConfigurationError(str(exc)) from exc
        if any(a > b for a, b in zip(thresholds, thresholds[1:])):
            raise ConfigurationError(
                f"schedule thresholds must be non-decreasing, got {thresholds}")
        object.__setattr__(self, "schedule", tuple(zip(counts, thresholds)))

    @property
    def n_required(self) -> int:
        """The count of the first schedule entry: the measurements required."""
        return self.schedule[0][0]

    @property
    def threshold(self) -> float:
        """The test threshold of the first schedule entry, at n_required."""
        return self.schedule[0][1]

    def entry_for(self, n_prime: int) -> tuple[int, float]:
        """Schedule entry applied to n_prime measurements: the exact entry,
        or the entry for the largest tabulated count below it (conservative,
        since thresholds are non-decreasing)."""
        n_prime = _require_count("n_prime", n_prime)
        ns = [n for n, _ in self.schedule]
        idx = _bisect.bisect_right(ns, n_prime) - 1
        if idx < 0:
            raise ConfigurationError(
                f"no schedule entry at or below n' = {n_prime} (first entry is {ns[0]})")
        return self.schedule[idx]


@dataclass(frozen=True)
class CalibrationResult:
    """Calibrated threshold plus solver diagnostics.

    stop_reason says why the search ended: "capped" (cap_at_q0 was asked
    for and q0 itself is feasible, so the threshold is q0, achieved is the
    exceedance at q0, and no root was searched for: iterations is 0 and
    the bracket is (q0, q0)), "tol" (a feasible midpoint came within tol
    of p0), "resolution" (the bracket shrank to 1e-9 * q0) or
    "bisection_cap" (the bisection step limit was reached first).
    """

    threshold: float
    achieved: float
    iterations: int
    bracket: tuple[float, float]
    stop_reason: str

    @property
    def capped(self) -> bool:
        """True when the threshold is q0 because q0 itself is feasible."""
        return self.stop_reason == "capped"

    def __post_init__(self):
        if not 0.0 <= self.achieved <= 1.0:
            raise DomainError(f"achieved must be a probability, got {self.achieved}")
        if self.iterations < 0:
            raise DomainError("iterations must be >= 0")
        lo, hi = self.bracket
        if not lo <= self.threshold <= hi:
            raise DomainError(
                f"threshold {self.threshold} outside bracket [{lo}, {hi}]")
        if self.stop_reason not in _STOP_REASONS:
            raise DomainError(
                f"stop_reason must be one of {', '.join(_STOP_REASONS)}, "
                f"got {self.stop_reason!r}")


@dataclass(frozen=True)
class ComplianceDecision:
    """Outcome of checking measurements against a standard."""

    safe: bool
    applied_n: int
    applied_threshold: float
    n_measurements: int
    observed_max: float


def next_exceeds_max_probability(n: int) -> float:
    """Probability that one further exchangeable continuous draw exceeds the
    maximum of n prior draws: exactly 1/(n+1)."""
    n = _require_count("n", n)
    return 1.0 / (n + 1)


def marginal_exceedance(spec: SafetySpec, sigma: float) -> float:
    """P(next draw > q0) under a known scale: 1 - Phi(q0/sigma)."""
    return std_normal_sf(spec.q0 / _require_positive("sigma", sigma))


def conditional_exceedance(spec: SafetySpec, threshold: float, n: int,
                           prior: SigmaPrior) -> float:
    """P(next draw > q0 | max of n draws <= threshold), prior-averaged.

    Under a point prior the conditioning event is independent of the next
    draw and the value collapses to marginal_exceedance.  Otherwise the
    denominator (the acceptance weight Phi(threshold/sigma)**n) and the
    numerator (the weight times 1 - Phi(q0/sigma)) are integrated over
    ln(sigma) in one pass, each to relative tolerance 1e-10: one partition,
    each node's weight computed once and shared by both.  The weight is
    evaluated in log space and shifted by its maximum so the ratio survives
    draw counts up to 1e6; where it underflows to 0 the numerator's tail
    probability is not computed.
    """
    threshold = _require_finite("threshold", threshold)
    n = _require_count("n", n)
    if prior.kind == "point":
        return marginal_exceedance(spec, prior.sigma_lo)

    t_lo = math.log(prior.sigma_lo)
    t_hi = math.log(prior.sigma_hi)
    # Per node e = 1/sigma; the log-weight n ln Phi(threshold e) is monotone
    # in ln(sigma), so its maximum, the shift, sits at an endpoint.
    exp, erfc, log1p = math.exp, math.erfc, math.log1p
    b = spec.q0 * _INV_SQRT2
    if threshold > 0.0:
        # the x > 0 branch of log_std_normal_cdf, inlined: ln Phi(x) = log1p(-erfc(x/sqrt 2)/2)
        a = threshold * _INV_SQRT2
        shift = n * max(log1p(-0.5 * erfc(a * exp(-t_lo))), log1p(-0.5 * erfc(a * exp(-t_hi))))

        def weights(t: float) -> tuple[float, float]:
            e = exp(-t)
            w = exp(n * log1p(-0.5 * erfc(a * e)) - shift)
            if w == 0.0:
                return 0.0, 0.0
            return w, 0.5 * erfc(b * e) * w
    else:
        shift = n * max(log_std_normal_cdf(threshold * exp(-t_lo)),
                        log_std_normal_cdf(threshold * exp(-t_hi)))

        def weights(t: float) -> tuple[float, float]:
            e = exp(-t)
            w = exp(n * log_std_normal_cdf(threshold * e) - shift)
            if w == 0.0:
                return 0.0, 0.0
            return w, 0.5 * erfc(b * e) * w

    failure = None
    try:
        denom, numer = integrate(weights, t_lo, t_hi, rel_tol=1e-10)
    except IntegrationError as exc:
        # an event too rare to condition on is reported as such even where
        # the integrals do not converge
        failure = exc
        denom, numer = exc.estimate
    if denom <= 0.0 or shift + math.log(denom / (t_hi - t_lo)) < _LOG_UNDERFLOW_FLOOR:
        raise InfeasibleConditioningError(
            f"the event max <= {threshold} with n = {n} has negligible "
            f"probability under the prior [{prior.sigma_lo}, {prior.sigma_hi}]")
    if failure is not None:
        raise failure
    return numer / denom


def acceptance_probability(sigma_true: float, threshold: float, n: int) -> float:
    """P(max of n draws at scale sigma_true <= threshold) = Phi(t/sigma)**n."""
    sigma_true = _require_positive("sigma_true", sigma_true)
    threshold = _require_finite("threshold", threshold)
    return math.exp(log_cdf_power(threshold / sigma_true, n))


def calibrate_threshold(spec: SafetySpec, n: int, prior: SigmaPrior,
                        cap_at_q0: bool = True, tol: float = 1e-4, *,
                        warm_start: float | None = None) -> CalibrationResult:
    """Largest test threshold whose conditional exceedance stays within p0.

    With cap_at_q0, the published threshold is min(root, q0), so the answer
    is known as soon as q0 is feasible: the result is then threshold q0,
    stop_reason "capped", 0 iterations and bracket (q0, q0), and the root
    above q0 is not searched for.  Ask for it with cap_at_q0=False; that
    raises SolverError where the constraint holds at every threshold tried
    (always, under a point prior).

    Otherwise root-finding is bisection on the rising branch of the
    threshold map, anchored at q0: the bracket expands upward by doubling
    while the exceedance at the top is still below p0, or contracts
    downward by halving while it is above.  Bisection stops at threshold
    resolution 1e-9 * q0, at the first midpoint whose exceedance lies
    within tol below p0 (tol is an absolute probability), or after
    _MAX_BISECTIONS steps, whichever comes first; stop_reason names which.
    The result is always the feasible end of the bracket, so achieved <= p0.

    warm_start saves doubling calls and leaves the result as it is.  It is
    a threshold >= q0 whose doubling points q0 * 2^j are known feasible at
    n: q0 just shown feasible at n, or the uncapped threshold at a smaller
    count (for t > 0 the exceedance falls as n grows).  The expansion
    resumes above the largest such point, whose exceedance is computed only
    if it is the result; if that exceeds p0, the search reruns cold.  It is
    ignored below q0 and with cap_at_q0.
    """
    n = _require_count("n", n)
    tol = _require_finite("tol", tol)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol!r}")
    resolution = 1e-9 * spec.q0

    def capped(achieved: float) -> CalibrationResult:
        return CalibrationResult(threshold=spec.q0, achieved=achieved, iterations=0,
                                 bracket=(spec.q0, spec.q0), stop_reason="capped")

    marg_lo = marginal_exceedance(spec, prior.sigma_lo)
    if marg_lo > spec.p0:
        raise InfeasibilityError(
            f"infeasible: even the smallest prior scale sigma_lo = {prior.sigma_lo} "
            f"gives exceedance {marg_lo:.6g} > p0 = {spec.p0:.6g}; "
            f"no test threshold can fix that")

    if prior.kind == "point":
        # Conditioning is vacuous: the constraint holds at every threshold.
        if cap_at_q0:
            return capped(marg_lo)
        raise SolverError(
            "the exceedance constraint holds at every threshold under this point "
            "prior; there is no finite uncapped solution (enable cap_at_q0)")

    lo, ce_lo, doublings = spec.q0, None, 0
    if cap_at_q0 or warm_start is None or not warm_start >= spec.q0:
        ce_lo = conditional_exceedance(spec, spec.q0, n, prior)
        if ce_lo <= spec.p0 and cap_at_q0:
            return capped(ce_lo)
    else:
        # the doubling points up to warm_start are known feasible
        while doublings < _MAX_EXPANSIONS and 2.0 * lo <= warm_start:
            lo, doublings = 2.0 * lo, doublings + 1
    if ce_lo is None or ce_lo <= spec.p0:
        hi = None
        trial = 2.0 * lo
        for _ in range(_MAX_EXPANSIONS - doublings):
            ce_trial = conditional_exceedance(spec, trial, n, prior)
            if ce_trial > spec.p0:
                hi = trial
                break
            lo, ce_lo = trial, ce_trial
            trial *= 2.0
        if hi is None:
            raise SolverError(
                f"bracket expansion failed: conditional exceedance stayed below "
                f"p0 = {spec.p0} up to threshold {lo}")
    else:
        hi = spec.q0
        lo = None
        trial = 0.5 * spec.q0
        for _ in range(_MAX_CONTRACTIONS):
            try:
                ce_trial = conditional_exceedance(spec, trial, n, prior)
            except InfeasibleConditioningError:
                break
            if ce_trial <= spec.p0:
                lo, ce_lo = trial, ce_trial
                break
            hi = trial
            trial *= 0.5
        if lo is None:
            raise InfeasibilityError(
                f"infeasible: conditional exceedance stays above p0 = {spec.p0} "
                f"for every threshold below q0 = {spec.q0}; prior mass up to "
                f"sigma_hi = {prior.sigma_hi} is too heavy for n = {n}")

    iterations = 0
    stop_reason = "resolution"
    while hi - lo > resolution:
        if iterations == _MAX_BISECTIONS:
            stop_reason = "bisection_cap"
            break
        mid = 0.5 * (lo + hi)
        ce_mid = conditional_exceedance(spec, mid, n, prior)
        iterations += 1
        if ce_mid > spec.p0:
            hi = mid
            continue
        lo, ce_lo = mid, ce_mid
        if spec.p0 - ce_mid <= tol:
            stop_reason = "tol"
            break
    if ce_lo is None:
        ce_lo = conditional_exceedance(spec, lo, n, prior)
        if ce_lo > spec.p0:
            return calibrate_threshold(spec, n, prior, cap_at_q0=False, tol=tol)
    return CalibrationResult(threshold=lo, achieved=ce_lo, iterations=iterations,
                             bracket=(lo, hi), stop_reason=stop_reason)


def calibrate_schedule(spec: SafetySpec, prior: SigmaPrior, n_list: Sequence[int],
                       cap_at_q0: bool = True, tol: float = 1e-4
                       ) -> tuple[StandardRule, tuple[CalibrationResult, ...]]:
    """Calibrate a threshold for every count in n_list.

    Returns the StandardRule whose required count is the first entry, and
    the CalibrationResult of every row in n_list order.  A row that cannot
    be calibrated raises with its count named in the message.  Each
    uncapped row warm-starts from the threshold of the row before it, so
    it does not repeat that row's doubling calls.
    """
    counts = _require_counts("n_list", n_list)
    results = []
    for n_prime in counts:
        try:
            results.append(calibrate_threshold(
                spec, n_prime, prior, cap_at_q0=cap_at_q0, tol=tol,
                warm_start=results[-1].threshold if results else None))
        except (InfeasibilityError, SolverError) as exc:
            raise type(exc)(f"schedule entry n' = {n_prime}: {exc}") from exc
    rule = StandardRule(tuple((n, r.threshold) for n, r in zip(counts, results)))
    return rule, tuple(results)


def threshold_schedule(spec: SafetySpec, prior: SigmaPrior, n_list: Sequence[int],
                       cap_at_q0: bool = True, tol: float = 1e-4) -> StandardRule:
    """The StandardRule of calibrate_schedule, without the per-row diagnostics."""
    return calibrate_schedule(spec, prior, n_list, cap_at_q0=cap_at_q0, tol=tol)[0]


def evaluate_compliance(rule: StandardRule, measurements: Iterable[float]) -> ComplianceDecision:
    """Apply a standard to observed measurements.

    The threshold applied is the schedule entry for the measurement count,
    falling back to the largest tabulated count below it.  Safe means the
    observed maximum does not exceed that threshold.
    """
    values = np.asarray(list(measurements), dtype=float)
    if values.size == 0:
        raise InsufficientDataError("measurements must not be empty")
    if not np.all(np.isfinite(values)):
        raise DomainError("measurements must all be finite")
    n_prime = int(values.size)
    if n_prime < rule.n_required:
        raise InsufficientDataError(
            f"{n_prime} measurements but the standard requires at least {rule.n_required}")
    applied_n, applied_t = rule.entry_for(n_prime)
    observed_max = float(values.max())
    return ComplianceDecision(safe=observed_max <= applied_t,
                              applied_n=applied_n,
                              applied_threshold=applied_t,
                              n_measurements=n_prime,
                              observed_max=observed_max)
