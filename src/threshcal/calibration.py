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
(calibrate_threshold's warm_start): the doubling points it skips are taken
as feasible without being evaluated.  It also probes a guess just above
its root, scaled from the row before by the median maximum of n normals,
and takes every point above an infeasible guess as infeasible unevaluated.
"""

from __future__ import annotations

import bisect as _bisect
import math
import sys
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    IntegrationError,
    SolverError,
    UnboundedSolutionError,
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
    median_of_max,
    std_normal_sf,
)

# Conditioning events with posterior-predictive probability below this are
# treated as impossible rather than conditioned on.
_LOG_UNDERFLOW_FLOOR = math.log(1e-300)
_LOG_FLOAT_MAX = math.log(math.nextafter(math.inf, 0.0))   # math.exp overflows above it

# A probe compared only with cuts stops its quadrature once its cut lies this
# many error estimates away from the value (conditional_exceedance's `above`
# and `below`).
_SETTLE_MARGIN = 1000.0

# A warm schedule row's guess scales the previous threshold by the growth of
# the median maximum, z(n') / z(n_prev), which undershoots the demo job's
# roots by 1-2%; the margin puts the guess just above the root.
_GUESS_MARGIN = 1.04

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


@dataclass(frozen=True)
class StandardRule:
    """A published standard: its threshold schedule t(n').

    The first entry is the required count with its test threshold; the
    later entries extend it to practitioners who measure more.  The counts
    are integers in [1, 2**36], strictly increasing, and the thresholds
    finite and non-decreasing; any other schedule raises DomainError.
    """

    schedule: tuple[tuple[int, float], ...]

    def __post_init__(self):
        counts = _require_counts("schedule counts", [n for n, _ in self.schedule])
        thresholds = [_require_finite("schedule threshold", t) for _, t in self.schedule]
        if any(a > b for a, b in zip(thresholds, thresholds[1:])):
            raise DomainError(
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
            raise DomainError(
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


def next_exceeds_max_probability(n: int) -> float:
    """Probability that one further exchangeable continuous draw exceeds the
    maximum of n prior draws: exactly 1/(n+1)."""
    n = _require_count("n", n)
    return 1.0 / (n + 1)


def marginal_exceedance(spec: SafetySpec, sigma: float) -> float:
    """P(next draw > q0) under a known scale: 1 - Phi(q0/sigma)."""
    z = spec.q0 / _require_positive("sigma", sigma)
    return std_normal_sf(z) if z < math.inf else 0.0


def _require_invertible_sigma_lo(prior: SigmaPrior) -> None:
    """DomainError naming sigma_lo where a log-uniform prior's 1/sigma_lo overflows."""
    if prior.kind == "log_uniform" and -math.log(prior.sigma_lo) > _LOG_FLOAT_MAX:
        raise DomainError(f"sigma_lo = {prior.sigma_lo!r} is too small: 1/sigma_lo "
                          f"must be a finite float (sigma_lo >= about 5.6e-309)")


def conditional_exceedance(spec: SafetySpec, threshold: float, n: int,
                           prior: SigmaPrior, *, above: float | None = None,
                           below: float | None = None) -> float:
    """P(next draw > q0 | max of n draws <= threshold), prior-averaged.

    Under a point prior the conditioning event is independent of the next
    draw and the value collapses to marginal_exceedance.  Otherwise the
    denominator D (the acceptance weight Phi(threshold/sigma)**n) and the
    numerator N (the weight times 1 - Phi(q0/sigma)) are integrated over
    ln(sigma) in one pass: one partition, each node's weight computed once
    and shared by both.  The weight is evaluated in log space and shifted
    by its maximum so the ratio survives draw counts up to 1e6; where it
    underflows to 0 the numerator's tail probability is not computed.  A
    log-uniform sigma_lo whose 1/sigma_lo overflows raises DomainError.

    Both integrals run to relative tolerance 1e-10, unless a cut is given:
    a caller that only compares the value with the cuts above and below
    lets the quadrature stop once its Gauss-Kronrod error estimates eD and
    eN, widened K = _SETTLE_MARGIN times, put the value above `above`
    (N - K eN > above (D + K eD)) or below `below` (N + K eN <
    below (D - K eD)).  Either way D - K eD must pass the conditioning
    check, so a probe that stops early would not have raised
    InfeasibleConditioningError, and N - K eN must be positive (the above
    side implies it): where the nodes missed most of N, its error estimate
    is as large as N itself, and a value below `below` would mean nothing.
    The estimates are not bounds, so the margin is a heuristic, backed by
    the differential properties of tests/test_calibration.py's
    TestSettledProbes.  The check is a function of D, N, eD and eN alone,
    and integrate asks it again on exact sums before it ends refinement.
    A probe that settles returns only its side: math.inf above `above`,
    -math.inf below `below`.  Every finite value has run to the full
    1e-10: a value between the cuts (inclusive), and every value on the
    side of a cut that is not a normal float (the cut times D would lose
    its bits), never settles.
    """
    threshold = _require_finite("threshold", threshold)
    n = _require_count("n", n)
    if prior.kind == "point":
        return marginal_exceedance(spec, prior.sigma_lo)

    _require_invertible_sigma_lo(prior)
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

    def conditionable(denom: float) -> bool:
        """Whether the acceptance probability exp(shift) * denom / width clears the floor."""
        mean = denom / (t_hi - t_lo) if denom > 0.0 else 0.0
        return mean > 0.0 and shift + math.log(mean) >= _LOG_UNDERFLOW_FLOOR

    # below the smallest normal float, a cut times D underflows
    above = above if above is not None and above >= sys.float_info.min else math.inf
    below = below if below is not None and below >= sys.float_info.min else 0.0
    stop = settled = None   # settled: math.inf above `above`, -math.inf below `below`
    if above < math.inf or below > 0.0:
        def stop(denom: float, numer: float, err_d: float, err_n: float) -> bool:
            nonlocal settled
            n_lo, n_hi = numer - _SETTLE_MARGIN * err_n, numer + _SETTLE_MARGIN * err_n
            d_lo, d_hi = denom - _SETTLE_MARGIN * err_d, denom + _SETTLE_MARGIN * err_d
            side = math.inf if n_lo > above * d_hi else -math.inf if n_hi < below * d_lo else None
            # the floor last, since it takes a log
            settled = side if side is not None and n_lo > 0.0 and conditionable(d_lo) else None
            return settled is not None

    failure = None
    try:
        denom, numer = integrate(weights, t_lo, t_hi, rel_tol=1e-10, stop=stop)
    except IntegrationError as exc:
        # an event too rare to condition on is reported as such even where
        # the integrals do not converge
        failure = exc
        denom, numer = exc.estimate
    if not conditionable(denom):
        raise InfeasibleConditioningError(
            f"the event max <= {threshold} with n = {n} has negligible "
            f"probability under the prior [{prior.sigma_lo}, {prior.sigma_hi}]")
    if failure is not None:
        raise failure
    return numer / denom if settled is None else settled


def acceptance_probability(sigma_true: float, threshold: float, n: int) -> float:
    """P(max of n draws at scale sigma_true <= threshold) = Phi(t/sigma)**n."""
    sigma_true = _require_positive("sigma_true", sigma_true)
    threshold = _require_finite("threshold", threshold)
    return math.exp(log_cdf_power(threshold / sigma_true, n))


def calibrate_threshold(spec: SafetySpec, n: int, prior: SigmaPrior,
                        cap_at_q0: bool = True, tol: float = 1e-4, *,
                        warm_start: float | None = None,
                        guess: float | None = None) -> CalibrationResult:
    """Largest test threshold whose conditional exceedance stays within p0.

    With cap_at_q0, the published threshold is min(root, q0), so the answer
    is known as soon as q0 is feasible: the result is then threshold q0,
    stop_reason "capped", 0 iterations and bracket (q0, q0), and the root
    above q0 is not searched for.  Ask for it with cap_at_q0=False; that
    raises UnboundedSolutionError, a SolverError, where the constraint holds
    at every threshold tried (always, under a point prior).  A log-uniform sigma_lo whose 1/sigma_lo
    overflows raises DomainError first, whatever q0 and p0 are.

    Otherwise root-finding is bisection on the rising branch of the threshold
    map, anchored at q0: the bracket expands upward by doubling while the
    exceedance at the top is still below p0 (uncapped, also past an
    InfeasibleConditioningError at q0 or at a doubling point), or contracts
    downward by halving while it is above.  Bisection stops at threshold resolution 1e-9 * q0, at the
    first midpoint whose exceedance lies within tol below p0 (tol is an
    absolute probability), or after _MAX_BISECTIONS steps, whichever comes
    first; stop_reason names which.  The result is always the feasible end of
    the bracket, so achieved <= p0.

    Each probe asks conditional_exceedance for no more than the comparisons
    its value goes into, so its quadrature stops once its error estimates,
    widened _SETTLE_MARGIN times, put the exceedance on one side of a cut.
    A doubling or halving probe, and the uncapped probe at q0, has the cuts
    p0 and p0; a bisection probe has p0 and p0 - tol (a midpoint at or
    above p0 - tol ends the search and is published; with p0 <= tol every
    feasible midpoint does, so it has no lower cut); a capped row's probe at
    q0 has only the upper cut p0, since a value at or below it is published.
    A probe that settles returns only its side (math.inf or -math.inf), and
    every finite value it returns has run to full tolerance.  So a row
    publishes lo's probe value where it is finite, and asks for one more
    call at full tolerance only where lo has no final value: lo settled
    below its lower cut, or lo was taken as feasible past an
    InfeasibleConditioningError.  That the margin keeps every comparison,
    and every quadrature failure, the one a full-tolerance probe would make
    is shown by TestSettledProbes' differential properties, not proven; where
    a settled lo turns out above p0 at full tolerance, SolverError is
    raised.

    warm_start saves doubling calls: its doubling points q0 * 2^j are taken
    as feasible at n unevaluated, so it is q0 just shown feasible at n or
    the uncapped threshold at a smaller count (for t > 0 the exceedance
    falls as n grows).  The expansion resumes above the largest such point;
    if that point is the result and exceeds p0, the search reruns cold.  It
    is ignored below q0 and with cap_at_q0.

    guess, with a warm_start, saves the calls above the root: it is probed
    once, with the cuts p0 and p0, after the warm start's doubling points.
    Where that probe lies above p0, every later doubling point and midpoint
    at or above guess is taken as infeasible without a call, and still
    counts as a step or an iteration.  A guess found feasible, or whose
    probe raises InfeasibleConditioningError or IntegrationError, is
    dropped, and so is one not above warm_start or not finite.  Only the
    skips rest on the guess, never lo, so the promise does not; that the
    result equals the cold one rests on the exceedance rising with the
    threshold above warm_start, which tests/test_calibration.py's
    TestWarmStart property checks but nothing proves.
    """
    n = _require_count("n", n)
    tol = _require_finite("tol", tol)
    if not 0.0 < tol < 1.0:
        raise DomainError(f"tol must lie in (0, 1), got {tol!r}")
    resolution = 1e-9 * spec.q0

    def capped(achieved: float) -> CalibrationResult:
        return CalibrationResult(threshold=spec.q0, achieved=achieved, iterations=0,
                                 bracket=(spec.q0, spec.q0), stop_reason="capped")

    _require_invertible_sigma_lo(prior)
    marg_lo = marginal_exceedance(spec, prior.sigma_lo)
    if marg_lo > spec.p0:
        raise InfeasibilityError(
            f"even the smallest prior scale sigma_lo = {prior.sigma_lo} "
            f"gives exceedance {marg_lo:.6g} > p0 = {spec.p0:.6g}; "
            f"no test threshold can fix that")

    if prior.kind == "point":
        # Conditioning is vacuous: the constraint holds at every threshold.
        if cap_at_q0:
            return capped(marg_lo)
        raise UnboundedSolutionError(
            "the exceedance constraint holds at every threshold under this point "
            "prior; there is no finite uncapped solution (enable cap_at_q0)")

    # ce_lo is the exceedance at lo: None at a warm-start point, which is not
    # evaluated, and -inf where lo is taken as feasible without a final value;
    # steps counts the doublings from q0, or the halvings; every probe at or
    # above ceiling is taken as infeasible without a call
    lo, ce_lo, hi, steps, ceiling = spec.q0, None, None, 0, math.inf
    if cap_at_q0 or warm_start is None or not warm_start >= spec.q0:
        try:
            ce_lo = conditional_exceedance(spec, spec.q0, n, prior, above=spec.p0,
                                           below=None if cap_at_q0 else spec.p0)
        except InfeasibleConditioningError:
            if cap_at_q0:
                raise
            ce_lo = -math.inf   # q0 is taken as feasible, and the doubling goes on
        if cap_at_q0 and ce_lo <= spec.p0:
            return capped(ce_lo)
        if ce_lo > spec.p0:
            lo, hi = None, spec.q0
    else:
        # the doubling points up to warm_start are known feasible
        while steps < _MAX_EXPANSIONS and 2.0 * lo <= warm_start:
            lo, steps = 2.0 * lo, steps + 1
        if guess is not None and warm_start < guess < math.inf:
            try:
                if conditional_exceedance(spec, guess, n, prior,
                                          above=spec.p0, below=spec.p0) > spec.p0:
                    ceiling = guess
            except (InfeasibleConditioningError, IntegrationError):
                pass   # the guess is dropped, and the row runs without it
    # double the feasible end until a probe is infeasible, or halve the
    # infeasible one until a probe is feasible
    limit = _MAX_EXPANSIONS if hi is None else _MAX_CONTRACTIONS
    while (lo is None or hi is None) and steps < limit:
        trial = 2.0 * lo if hi is None else 0.5 * hi
        if trial == math.inf:   # the doubling overflowed: no larger threshold
            break
        try:
            ce_trial = math.inf if trial >= ceiling else conditional_exceedance(
                spec, trial, n, prior, above=spec.p0, below=spec.p0)
        except InfeasibleConditioningError:
            if hi is not None:
                break   # no threshold below a halving probe can be conditioned on
            ce_trial = -math.inf   # taken as feasible, as at q0, and the doubling goes on
        steps += 1
        if ce_trial > spec.p0:
            hi = trial
        else:
            lo, ce_lo = trial, ce_trial
    if hi is None:
        raise UnboundedSolutionError(
            f"bracket expansion failed: conditional exceedance stayed below "
            f"p0 = {spec.p0} up to threshold {lo}")
    if lo is None:
        raise InfeasibilityError(
            f"conditional exceedance stays above p0 = {spec.p0} "
            f"for every threshold below q0 = {spec.q0}; prior mass up to "
            f"sigma_hi = {prior.sigma_hi} is too heavy for n = {n}")

    # a feasible midpoint at or above cut ends the search and is published;
    # with p0 <= tol every feasible midpoint does, so none may settle
    cut = spec.p0 - tol if spec.p0 > tol else None
    iterations = 0
    stop_reason = "resolution"
    while hi - lo > resolution:
        if iterations == _MAX_BISECTIONS:
            stop_reason = "bisection_cap"
            break
        mid = 0.5 * (lo + hi)
        if mid == math.inf:   # lo + hi overflowed; halving each first is exact up here
            mid = 0.5 * lo + 0.5 * hi
        ce_mid = math.inf if mid >= ceiling else conditional_exceedance(
            spec, mid, n, prior, above=spec.p0, below=cut)
        iterations += 1
        if ce_mid > spec.p0:
            hi = mid
            continue
        lo, ce_lo = mid, ce_mid
        if cut is None or ce_mid >= cut:
            stop_reason = "tol"
            break
    achieved = ce_lo
    if ce_lo is None or ce_lo == -math.inf:
        achieved = conditional_exceedance(spec, lo, n, prior)
        if achieved > spec.p0:
            if ce_lo is None:
                return calibrate_threshold(spec, n, prior, cap_at_q0=False, tol=tol)
            raise SolverError(
                f"the probe at threshold {lo} settled at most p0 = {spec.p0}, "
                f"but its full-tolerance conditional exceedance is {achieved}")
    return CalibrationResult(threshold=lo, achieved=achieved, iterations=iterations,
                             bracket=(lo, hi), stop_reason=stop_reason)


def calibrate_schedule(spec: SafetySpec, prior: SigmaPrior, n_list: Sequence[int],
                       cap_at_q0: bool = True, tol: float = 1e-4
                       ) -> tuple[StandardRule, tuple[CalibrationResult, ...]]:
    """Calibrate a threshold for every count in n_list.

    Returns the StandardRule whose required count is the first entry, and
    the CalibrationResult of every row in n_list order.  A row that cannot
    be calibrated raises with its count named in the message.  Each
    uncapped row warm-starts from the threshold t of the row before it, at
    count n, so it does not repeat that row's doubling calls.  It also
    guesses its threshold at n' from the growth of the median maximum of
    n' normals, gaussian.median_of_max: 1.04 t z(n') / z(n) (no guess
    after n = 1, where z is 0).  The guess lands just above the root, and
    its one probe saves the probes above it: the uncapped demo schedule
    (n' = 40 to 640) makes 31 conditional_exceedance calls, not 42.  Every
    row equals its cold calibration.
    """
    counts = _require_counts("n_list", n_list)
    results = []
    for n_prev, n_prime in zip((None, *counts), counts):
        warm_start = guess = None
        if results:
            warm_start = results[-1].threshold
            if not cap_at_q0 and n_prev > 1:   # z(1) = 0
                guess = (_GUESS_MARGIN * warm_start * median_of_max(n_prime)
                         / median_of_max(n_prev))
        try:
            results.append(calibrate_threshold(
                spec, n_prime, prior, cap_at_q0=cap_at_q0, tol=tol,
                warm_start=warm_start, guess=guess))
        except (InfeasibilityError, SolverError) as exc:
            raise type(exc)(f"schedule entry n' = {n_prime}: {exc}") from exc
    rule = StandardRule(tuple((n, r.threshold) for n, r in zip(counts, results)))
    return rule, tuple(results)


def threshold_schedule(spec: SafetySpec, prior: SigmaPrior, n_list: Sequence[int],
                       cap_at_q0: bool = True, tol: float = 1e-4) -> StandardRule:
    """The StandardRule of calibrate_schedule, without the per-row diagnostics."""
    return calibrate_schedule(spec, prior, n_list, cap_at_q0=cap_at_q0, tol=tol)[0]
