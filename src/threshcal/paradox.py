"""Seeded Monte Carlo demonstrations of the over-measurement effect.

The simulations here are the empirical counterpart of the calibration
module: they reproduce the 1/(n+1) exceedance law for a minimal-effort
designer, show how rejection rates climb with extra measurements under a
fixed test threshold, and cross-check the conditional-exceedance integrals
by rejection sampling.

No kernel draws a whole sample.  The maximum of n iid standard normals has
the law Phi^-1(U^(1/n)) for a single uniform U (Renyi 1953; Devroye 1986,
Non-Uniform Random Variate Generation, ch. 2), so every trial draws ln U
once and compares its row maximum against cutoffs:

* at a fixed scale, "max * sigma <= t" is exactly ln U <= n ln Phi(t/sigma),
  one scalar cutoff per threshold;
* "one further draw exceeds the maximum of n" is exactly n ln V > ln U for
  a second uniform V, a Bernoulli(1/(n+1)) event;
* where the value of the maximum is needed (a random scale, a mean, a
  ratio of two maxima) it is std_normal_quantile_log(ln U / n).

At a random scale, estimate_conditional_exceedance squeezes that
quantile (Marsaglia 1977): per cell of ln sigma, two cutoffs of the first
kind, moved outward by a margin wider than the quantile's error, decide
all but about 1/_SCREEN_CELLS of the trials exactly as the quantile
would, and only the trials between them evaluate it.

A trial therefore costs a fixed number of draws whatever the count.  Every
simulation runs over a fixed plan of _BLOCK_TRIALS-trial blocks: block b
draws from the substream stream.generator(b) and reduces to integer counts
or correctly-rounded partial sums.  The blocks are independent, so they
run on every core the process may use (_WORKERS, read from its CPU
affinity; there is no setting).  Every generator is made on the calling
thread in block order, and the reductions are exact, so neither the
thread count nor the order in which blocks finish can change a bit: the
result is bit-identical for a fixed seed.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calibration import SafetySpec, SigmaPrior, StandardRule
from .errors import ConfigurationError, DomainError, InfeasibleConditioningError
from .gaussian import (
    _ARRAY_SLICE,
    SeededStream,
    _log_std_normal_cdf,
    _require_count,
    _require_counts,
    _require_finite,
    _require_positive,
    integrate,
    log_cdf_power,
    log_std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile_log,
)

# Euler-Mascheroni constant, the limit of euler_gamma_partial.
EULER_GAMMA = 0.5772156649015329

# Trials per block of the fixed block plan; a block's temporaries stay at a
# few arrays of this length whatever the measurement count.
_BLOCK_TRIALS = 1 << 16

# Threads that run the blocks of one simulation, at most one per block:
# the cores this process may run on.
try:
    _WORKERS = len(os.sched_getaffinity(0))
except AttributeError:   # no CPU affinity on this platform
    _WORKERS = os.cpu_count() or 1

# Blocks whose generators (about 1 KB each) are made and held at once, so
# the largest plan (2^20 blocks) does not hold a million of them.
_WAVE_BLOCKS = 256

# _exact_sum bins the values by frexp exponent plus the bias: 2^-1074 has
# exponent -1073, the largest float 1024.
_EXPONENT_BIAS = 1073
_EXPONENT_BINS = _EXPONENT_BIAS + 1025

# Floor on the standard exponential behind ln U.  The generator can return
# exactly 0 (ln U = 0, an infinite maximum); every other value it returns
# lies far above this floor, so the floor only keeps U inside (0, 1).
_MIN_EXPONENTIAL = 2.0 ** -100

# Equal cells of the prior's ln-sigma range in the acceptance screen of
# estimate_conditional_exceedance.  About 1/_SCREEN_CELLS of the trials
# fall between their cell's two bounds and need the quantile.
_SCREEN_CELLS = 256

# The screen's margin on x = threshold / sigma is 1e-6 |x| + 1e-12; the
# condition it must meet is in estimate_conditional_exceedance.
_SCREEN_REL_MARGIN = 1e-6
_SCREEN_ABS_MARGIN = 1e-12

# |x| is clipped here before the bounds are taken: n ln Phi is already
# -inf at -_SCREEN_X_CLIP and 0 at +_SCREEN_X_CLIP, so no bound changes.
_SCREEN_X_CLIP = 1e300

# Below this scale peak * sigma can round to a subnormal, whose rounding
# error is not relative, so a prior reaching below it decides no run by
# the screen (and 1 / sigma stays finite above it).
_SCREEN_MIN_SIGMA = 2.0 ** -900

_MODES = ("fixed_sigma", "minimal_effort")
_RULE_KINDS = ("fixed_threshold", "schedule")


@dataclass(frozen=True)
class DesignScenario:
    """A designer being tested under a standard.

    fixed_sigma draws every sample at the true scale sigma_true.
    minimal_effort models a designer who relaxes mitigation until the
    maximum of the required first n_required measurements sits exactly on
    the standard's base threshold (sigma_true is ignored).
    """

    mode: str
    sigma_true: float
    rule: StandardRule
    n_performed: int
    trials: int
    stream: SeededStream

    def __post_init__(self):
        if self.mode not in _MODES:
            raise DomainError(f"mode must be one of {_MODES}, got {self.mode!r}")
        _require_positive("sigma_true", self.sigma_true)
        _require_count("n_performed", self.n_performed)
        _require_count("trials", self.trials)
        if self.n_performed < self.rule.n_required:
            raise DomainError(
                f"n_performed = {self.n_performed} is below the required count "
                f"{self.rule.n_required}")


@dataclass(frozen=True)
class SimulationReport:
    """A binomial Monte Carlo estimate with its uncertainty."""

    estimate: float
    standard_error: float
    trials: int
    accepted_runs: int

    def __post_init__(self):
        if not 0.0 <= self.estimate <= 1.0:
            raise DomainError(f"estimate must be a probability, got {self.estimate}")
        if self.standard_error < 0.0:
            raise DomainError("standard_error must be >= 0")
        _require_count("trials", self.trials)
        if not 0 <= self.accepted_runs <= self.trials:
            raise DomainError(
                f"accepted_runs must lie in [0, trials], got {self.accepted_runs}")


@dataclass(frozen=True)
class ParadoxPoint:
    """One measurement count with its rejection rate under both rule readings."""

    n_prime: int
    rejection_fixed: float
    rejection_schedule: float


def _binomial_report(successes: int, trials: int, accepted_runs: int) -> SimulationReport:
    est = successes / trials
    se = math.sqrt(est * (1.0 - est) / trials)
    return SimulationReport(estimate=est, standard_error=se,
                            trials=trials, accepted_runs=accepted_runs)


def _block_plan(trials: int) -> list[int]:
    """Trial counts of the fixed block plan: full blocks, then the remainder."""
    full, rest = divmod(trials, _BLOCK_TRIALS)
    return [_BLOCK_TRIALS] * full + ([rest] if rest else [])


def _map_blocks(stream: SeededStream, trials: int,
                block_fn: Callable[[np.random.Generator, int], tuple]) -> list[tuple]:
    """block_fn(stream.generator(b), size) for every block b of the plan, in order.

    The generators are made here, on the calling thread, in block order,
    _WAVE_BLOCKS at a time.  Each wave's blocks then run on
    min(_WORKERS, blocks) threads: the calling thread is one of them,
    thread w takes the wave's blocks w, w + workers, ..., and with one
    worker no thread is started.  The numpy calls in a block release the
    GIL, so the threads overlap.  A failing block stops its own thread;
    once every thread of the wave has finished, the exception of the
    lowest failing block is raised, which is the one a plain loop would
    raise.
    """
    plan = _block_plan(trials)
    results: list = [None] * len(plan)
    failures: list[tuple[int, BaseException]] = []

    def run(first: int, gens: list, workers: int, w: int) -> None:
        for b in range(first + w, first + len(gens), workers):
            try:
                results[b] = block_fn(gens[b - first], plan[b])
            except BaseException as exc:   # re-raised on the calling thread
                failures.append((b, exc))
                return

    for first in range(0, len(plan), _WAVE_BLOCKS):
        gens = [stream.generator(b) for b in range(first, min(first + _WAVE_BLOCKS, len(plan)))]
        workers = min(_WORKERS, len(gens))
        threads = [threading.Thread(target=run, args=(first, gens, workers, w))
                   for w in range(1, workers)]
        for thread in threads:
            thread.start()
        run(first, gens, workers, 0)
        for thread in threads:
            thread.join()
        if failures:
            raise min(failures, key=lambda failure: failure[0])[1]
    return results


def _exact_sum(x: np.ndarray) -> float:
    """math.fsum(x.tolist()), bit for bit, for up to 2^26 finite floats.

    Each value is m 2^e with 1/2 <= |m| < 1 (frexp); its 53-bit integer
    mantissa splits into two halves below 2^27.  Summing the halves per
    exponent (bincount) is then exact in float64, and one Python int
    carries the exact total to a single correctly-rounded division.  The
    work runs in slices of _ARRAY_SLICE elements, in place, so its
    temporaries stay small (in one pass, an expected-max block's peak
    allocation would grow from 1.3 to 2.8 MB).  Where only math.fsum's
    partial sums would overflow, the result is the finite total.
    """
    sum_high = np.zeros(_EXPONENT_BINS)
    sum_low = np.zeros(_EXPONENT_BINS)
    for start in range(0, x.size, _ARRAY_SLICE):
        mant, exp = np.frexp(x[start:start + _ARRAY_SLICE])
        np.ldexp(mant, 26, out=mant)
        high = np.trunc(mant)
        np.subtract(mant, high, out=mant)
        np.ldexp(mant, 27, out=mant)
        exp += _EXPONENT_BIAS
        sum_high += np.bincount(exp, weights=high, minlength=_EXPONENT_BINS)
        sum_low += np.bincount(exp, weights=mant, minlength=_EXPONENT_BINS)
    total = 0
    for k in np.flatnonzero((sum_high != 0.0) | (sum_low != 0.0)).tolist():
        total += ((int(sum_high[k]) << 27) + int(sum_low[k])) << k
    # value = (high 2^27 + low) 2^(e - 53), and bin k holds e = k - bias
    return total / (1 << (_EXPONENT_BIAS + 53))


def _log_uniform(gen: np.random.Generator, size: int) -> np.ndarray:
    """ln U for size uniforms U on the open interval (0, 1)."""
    log_u = gen.standard_exponential(size)
    np.maximum(log_u, _MIN_EXPONENTIAL, out=log_u)
    return np.negative(log_u, out=log_u)


def _count_maxima_above(stream: SeededStream, trials: int,
                        cutoffs: Sequence[float]) -> list[int]:
    """Per cutoff c, the number of trials whose row maximum exceeds it.

    Each trial draws one ln U, shared by every cutoff; with
    c = n ln Phi(t/sigma), "ln U > c" is "max of n draws at scale sigma
    exceeds t".
    """
    def block(gen, size):
        log_u = _log_uniform(gen, size)
        return tuple(int(np.count_nonzero(log_u > c)) for c in cutoffs)

    return [sum(col) for col in zip(*_map_blocks(stream, trials, block))]


def simulate_minimal_effort(n: int, trials: int, stream: SeededStream) -> SimulationReport:
    """Exceedance frequency for the minimal-effort designer.

    Each trial takes the maximum of n variates, rescales the sample so the
    maximum sits exactly on the test threshold, then takes one further
    variate at the same scale and records whether it crosses the
    threshold.  Rescaling by a positive factor preserves order, so the
    event reduces to "the extra raw draw exceeds the raw sample maximum"
    and the threshold value drops out; the expected frequency is the
    exchangeability law 1/(n+1).  With the maximum as Phi^-1(U^(1/n)) and
    the extra draw as Phi^-1(V), the event is n ln V > ln U.
    """
    n = _require_count("n", n)
    trials = _require_count("trials", trials)

    def block(gen, size):
        log_u = _log_uniform(gen, size)
        log_v = _log_uniform(gen, size)
        log_v *= n
        return (int(np.count_nonzero(log_v > log_u)),)

    exceed = sum(p[0] for p in _map_blocks(stream, trials, block))
    return _binomial_report(exceed, trials, accepted_runs=trials)


def simulate_compliance(scenario: DesignScenario, rule_kind: str) -> SimulationReport:
    """Rejection frequency of a designer tested under a standard.

    rule_kind "fixed_threshold" applies the base threshold t(n_required)
    no matter how many measurements were actually taken (the naive reading
    of a published standard); "schedule" applies the entry for the
    performed count.  accepted_runs counts the safe verdicts.
    """
    if rule_kind not in _RULE_KINDS:
        raise DomainError(f"rule_kind must be one of {_RULE_KINDS}, got {rule_kind!r}")
    rule = scenario.rule
    if rule_kind == "fixed_threshold":
        applied_t = rule.threshold
    else:
        _, applied_t = rule.entry_for(scenario.n_performed)

    if scenario.mode == "fixed_sigma":
        cutoff = log_cdf_power(applied_t / scenario.sigma_true, scenario.n_performed)
        rejected = _count_maxima_above(scenario.stream, scenario.trials, [cutoff])[0]
    else:
        n_req = rule.n_required
        if rule.threshold <= 0.0:
            raise ConfigurationError(
                "minimal_effort mode needs a positive base threshold to pin the "
                f"observed maximum to, got {rule.threshold}")
        # Pinning max of the first n_req draws at the base threshold and
        # testing the rest against applied_t is scale-free: reject exactly
        # when max(extras) > max(first n_req) * (applied_t / base_t).
        ratio = applied_t / rule.threshold
        n_extra = scenario.n_performed - n_req

        def block(gen, size):
            m_req = std_normal_quantile_log(_log_uniform(gen, size) / n_req)
            m_extra = std_normal_quantile_log(_log_uniform(gen, size) / n_extra)
            return (int(np.count_nonzero(m_extra > m_req * ratio)),)

        rejected = 0 if n_extra == 0 else sum(
            p[0] for p in _map_blocks(scenario.stream, scenario.trials, block))
    return _binomial_report(rejected, scenario.trials,
                            accepted_runs=scenario.trials - rejected)


def paradox_curve(sigma_true: float, rule: StandardRule, n_list: Sequence[int],
                  trials: int, stream: SeededStream) -> list[ParadoxPoint]:
    """Rejection rates against measurement count, under both rule readings.

    One simulated sample maximum at scale sigma_true per trial and count,
    scored against both the fixed threshold rule.threshold (which rejects
    more as n' grows: more chances to cross the same bar) and the
    count-matched schedule entry.  The two readings share their draws, so
    they coincide exactly where the thresholds do.  Every count must lie
    within the schedule's tabulated range.

    Row r draws from stream.child(r).
    """
    sigma_true = _require_positive("sigma_true", sigma_true)
    trials = _require_count("trials", trials)
    counts = _require_counts("n_list", n_list)
    max_tabulated = rule.schedule[-1][0]
    for n_prime in counts:
        if not rule.n_required <= n_prime <= max_tabulated:
            raise ConfigurationError(
                f"n' = {n_prime} outside the schedule's tabulated range "
                f"[{rule.n_required}, {max_tabulated}]")

    points = []
    for row, n_prime in enumerate(counts):
        thresholds = (rule.threshold, rule.entry_for(n_prime)[1])
        cutoffs = [log_cdf_power(t / sigma_true, n_prime) for t in thresholds]
        fixed, sched = _count_maxima_above(stream.child(row), trials, cutoffs)
        points.append(ParadoxPoint(n_prime=n_prime,
                                   rejection_fixed=fixed / trials,
                                   rejection_schedule=sched / trials))
    return points


def _screen_table(threshold: float, n: int, prior: SigmaPrior
                  ) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Bounds on ln U that decide "max of n at scale sigma <= threshold".

    The prior's range [ln sigma_lo, ln sigma_hi] splits into _SCREEN_CELLS
    equal cells (one where the range is a single float, as for a point
    prior).  Over a cell, x = threshold / sigma runs between its values
    x_k, x_k+1 at the two edges; a threshold <= 0 reverses which edge
    gives the smaller x, hence the min and max.  With the margin
    m(x) = 1e-6 |x| + 1e-12,

        low[k]  = n ln Phi(min(x_k, x_k+1) - m)   (ln U <= low[k]: accepted)
        high[k] = n ln Phi(max(x_k, x_k+1) + m)   (ln U > high[k]: rejected)

    Returns (ln sigma_lo, cells per unit of ln sigma, low, high).  A prior
    reaching below _SCREEN_MIN_SIGMA gets one cell that decides nothing.
    """
    v_lo, v_hi = math.log(prior.sigma_lo), math.log(prior.sigma_hi)
    if prior.sigma_lo < _SCREEN_MIN_SIGMA:
        return v_lo, 0.0, np.array([-math.inf]), np.array([math.inf])
    cells = _SCREEN_CELLS if v_hi > v_lo else 1
    edges = np.linspace(v_lo, v_hi, cells + 1)
    with np.errstate(over="ignore"):   # to +-inf, the bounds' own limits
        x = np.clip(threshold * np.exp(-edges), -_SCREEN_X_CLIP, _SCREEN_X_CLIP)
        x_min = np.minimum(x[:-1], x[1:])
        x_max = np.maximum(x[:-1], x[1:])
        x_min -= _SCREEN_REL_MARGIN * np.abs(x_min) + _SCREEN_ABS_MARGIN
        x_max += _SCREEN_REL_MARGIN * np.abs(x_max) + _SCREEN_ABS_MARGIN
        low = np.array([_log_std_normal_cdf(v) for v in x_min.tolist()]) * n
        high = np.array([_log_std_normal_cdf(v) for v in x_max.tolist()]) * n
    scale = cells / (v_hi - v_lo) if cells > 1 else 0.0
    return v_lo, scale, low, high


def _accepted(log_u: np.ndarray, sigma: np.ndarray, threshold: float, n: int,
              table: tuple[float, float, np.ndarray, np.ndarray]) -> np.ndarray:
    """std_normal_quantile_log(log_u / n) * sigma <= threshold, bit for bit.

    A trial falls in cell int((ln sigma - ln sigma_lo) * scale) of the
    _screen_table bounds: int() truncates a rounding just below
    ln sigma_lo to cell 0, and np.take's clip mode maps ln sigma_hi (and a
    rounding just past it) to the last cell.  The bounds
    decide every trial outside (low, high] of its cell; the quantile runs
    only on the rest.  The work runs in _ARRAY_SLICE slices, so the
    temporaries beyond the two boolean results stay slice-sized.
    """
    v_lo, scale, low, high = table
    accepted = np.empty(log_u.size, dtype=bool)
    undecided = np.empty(log_u.size, dtype=bool)
    bound = np.empty(min(log_u.size, _ARRAY_SLICE))
    for start in range(0, log_u.size, _ARRAY_SLICE):
        part = slice(start, start + _ARRAY_SLICE)
        lu, acc, und = log_u[part], accepted[part], undecided[part]
        b = bound[:lu.size]
        cell = np.log(sigma[part])
        cell -= v_lo
        cell *= scale
        cell = cell.astype(np.intp)
        np.less_equal(lu, np.take(low, cell, out=b, mode="clip"), out=acc)
        np.less_equal(lu, np.take(high, cell, out=b, mode="clip"), out=und)
        und &= ~acc
    rows = np.flatnonzero(undecided)
    accepted[rows] = std_normal_quantile_log(log_u[rows] / n) * sigma[rows] <= threshold
    return accepted


def estimate_conditional_exceedance(spec: SafetySpec, threshold: float, n: int,
                                    prior: SigmaPrior, trials: int,
                                    stream: SeededStream) -> SimulationReport:
    """Rejection-sampling estimate of the conditional exceedance.

    Draw a scale from the prior and the maximum of n variates at that
    scale, keep the run when the maximum stays within the threshold, and
    report the fraction of kept runs whose one further draw exceeds q0.
    This is the sampling counterpart of conditional_exceedance and shares
    no code with its quadrature; the standard error is binomial over the
    kept runs.

    A run is kept when std_normal_quantile_log(ln U / n) * sigma <=
    threshold.  That test is decided first against a table of bounds on
    ln U, per cell of ln sigma (_screen_table): ln U at or below the cell's
    low bound is kept, above its high bound dropped, and only the runs
    between the two, about 1/_SCREEN_CELLS of them, evaluate the quantile.
    The bounds are n ln Phi at x = threshold / sigma, moved outward by the
    margin m(x) = 1e-6 |x| + 1e-12.  They decide a run as the computed test
    does under one condition: read on the scale of x, the computed test
    "peak <= x" must differ from the true "max <= x" by less than m(x).
    It holds with room to spare: Acklam's error is 1.2e-9 |x|, and the
    rounding of exp, log, ln U / n, the bounds and peak * sigma adds a few
    1e-16 (|x| + 1).  A prior reaching below _SCREEN_MIN_SIGMA, where
    peak * sigma can round to a subnormal with an absolute error, is never
    screened.  So every kept run is the one the quantile alone would keep,
    and the result is bit for bit the unscreened one.
    """
    threshold = _require_finite("threshold", threshold)
    n = _require_count("n", n)
    trials = _require_count("trials", trials)
    table = _screen_table(threshold, n, prior)

    def block(gen, size):
        sigma = prior.sample(gen, size)
        accepted = _accepted(_log_uniform(gen, size), sigma, threshold, n, table)
        extra = gen.standard_normal(size)
        extra *= sigma
        exceed = (extra > spec.q0) & accepted
        return int(np.count_nonzero(accepted)), int(np.count_nonzero(exceed))

    parts = _map_blocks(stream, trials, block)
    kept = sum(p[0] for p in parts)
    exceed = sum(p[1] for p in parts)
    if kept == 0:
        raise InfeasibleConditioningError(
            f"no accepted runs in {trials} trials: the event max <= {threshold} "
            f"with n = {n} is effectively impossible under the prior")
    est = exceed / kept
    se = math.sqrt(est * (1.0 - est) / kept)
    return SimulationReport(estimate=est, standard_error=se,
                            trials=trials, accepted_runs=kept)


def expected_max_asymptotic(n: int, sigma: float = 1.0) -> float:
    """The gamma-prefactor growth shorthand: EULER_GAMMA * sqrt(2 ln n) * sigma.

    Kept exactly in this form for side-by-side comparison; the exact mean
    grows like sqrt(2 ln n) alone, so this shorthand undershoots it (see
    expected_max_exact for the reference values).
    """
    n = _require_count("n", n)
    if n < 2:
        raise DomainError("the asymptotic form needs n >= 2 (ln n must be positive)")
    sigma = _require_positive("sigma", sigma)
    return EULER_GAMMA * math.sqrt(2.0 * math.log(n)) * sigma


def expected_max_exact(n: int, sigma: float = 1.0) -> float:
    """Mean of the maximum of n draws, by quadrature of x n phi(x) Phi(x)^(n-1)
    to relative tolerance 1e-11 (absolute 1e-13, for n = 1, whose mean is 0)."""
    n = _require_count("n", n)
    sigma = _require_positive("sigma", sigma)
    window = math.sqrt(2.0 * math.log(max(n, 2))) + 9.0

    def integrand(x: float) -> float:
        return n * x * std_normal_pdf(x) * math.exp((n - 1) * log_std_normal_cdf(x))

    return sigma * integrate(integrand, -window, window, rel_tol=1e-11, abs_tol=1e-13)


def expected_max_monte_carlo(n: int, sigma: float, trials: int,
                             stream: SeededStream) -> tuple[float, float]:
    """Mean of per-trial maxima with its standard error."""
    n = _require_count("n", n)
    sigma = _require_positive("sigma", sigma)
    trials = _require_count("trials", trials)
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")

    def block(gen, size):
        log_u = _log_uniform(gen, size)
        log_u /= n
        m = std_normal_quantile_log(log_u)
        total = _exact_sum(m)
        m *= m
        return total, _exact_sum(m)

    parts = _map_blocks(stream, trials, block)
    total = math.fsum(p[0] for p in parts)
    total_sq = math.fsum(p[1] for p in parts)
    mean = total / trials
    var = max(0.0, (total_sq - trials * mean * mean) / (trials - 1))
    return sigma * mean, sigma * math.sqrt(var / trials)


def euler_gamma_partial(n: int) -> float:
    """Partial sum sum_{k=1..n} 1/k - ln n.

    Decreases monotonically to EULER_GAMMA with tail about 1/(2n);
    compensated summation keeps the millionth partial sum exact to the
    last bit.
    """
    n = _require_count("n", n)
    return math.fsum(1.0 / k for k in range(1, n + 1)) - math.log(n)
