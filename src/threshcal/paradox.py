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
  one cutoff per threshold; a count of exceedances is one binomial draw;
* "one further draw exceeds the maximum of n" is exactly a
  Bernoulli(1/(n+1)) event, so its count is one binomial draw too;
* where the value of the maximum is needed (a random scale, a mean, a
  ratio of two maxima) it is std_normal_quantile_log(ln U / n).

At a random scale, estimate_conditional_exceedance squeezes that
quantile (Marsaglia 1977): per cell of ln sigma, two cutoffs of the first
kind, moved outward by a margin wider than the quantile's error, decide
all but about 1/_SCREEN_CELLS of the trials as the quantile would, and two
bounds on 1 - Phi(q0 / sigma) decide most of the kept trials' next draws.
The decided trials are counted by binomial draws per cell (thinning), and
only the trials between the bounds are simulated, so a row's cost grows
with that undecided share of its trials, not with all of them.

Every simulated trial costs a fixed number of draws whatever the count.
One driver, _map_blocks, runs every simulated kernel over a fixed plan of
_BLOCK_TRIALS-trial blocks, its trials lying cell after cell (the screen's
cells of ln sigma, or one cell): block b draws from stream.generator(b)
and reduces to integer counts or to float sums that depend only on the
block's own values.  The blocks run one after another, in block order,
and their results are combined in that order, so the result is
bit-identical per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .calibration import SafetySpec, SigmaPrior, StandardRule
from .errors import DomainError, InfeasibleConditioningError
from .gaussian import (
    _INV_SQRT2,
    SeededStream,
    _log_std_normal_cdf,
    _quantile_log_in_place,
    _require_count,
    _require_counts,
    _require_finite,
    _require_positive,
    integrate,
    log_cdf_power,
    log_std_normal_cdf,
    std_normal_pdf,
)

# Euler-Mascheroni constant, the limit of euler_gamma_partial.
EULER_GAMMA = 0.5772156649015329

# Trials per block of the fixed block plan; a block's temporaries stay at a
# few arrays of this length whatever the measurement count.
_BLOCK_TRIALS = 1 << 16

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
# -inf at -_SCREEN_X_CLIP and 0 at +_SCREEN_X_CLIP, and 1 - Phi is 0 there,
# so no bound changes.
_SCREEN_X_CLIP = 1e300

# Below this scale peak * sigma can round to a subnormal, whose rounding
# error is not relative, so a prior reaching below it decides no run by
# the screen (and 1 / sigma stays finite above it).
_SCREEN_MIN_SIGMA = 2.0 ** -900

_RULE_KINDS = ("fixed_threshold", "schedule")


@dataclass(frozen=True)
class DesignScenario:
    """A designer tested under a standard, every sample drawn at sigma_true;
    its rejections are one binomial draw, outside the block driver."""

    sigma_true: float
    rule: StandardRule
    n_performed: int
    trials: int
    stream: SeededStream

    def __post_init__(self):
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


def _map_blocks(stream: SeededStream, counts: Sequence[int],
                block_fn: Callable[[np.random.Generator, np.ndarray, int], tuple]) -> list[tuple]:
    """block_fn(stream.generator(b), block counts, size) for every block b, in order.

    The sum(counts) trials lie cell after cell, counts[k] of them in cell
    k, and run in blocks of _BLOCK_TRIALS, the last holding the remainder.
    A block's counts are how many of its size trials each cell holds; a
    kernel without cells passes one cell, [trials].

    Block b's generator, stream.generator(b), is made just before the
    block runs.
    """
    bounds = np.concatenate(([0], np.cumsum(counts)))
    total = int(bounds[-1])
    results = []
    for b, start in enumerate(range(0, total, _BLOCK_TRIALS)):
        stop = min(start + _BLOCK_TRIALS, total)
        results.append(block_fn(stream.generator(b), np.diff(np.clip(bounds, start, stop)),
                                stop - start))
    return results


def _log_uniform(gen: np.random.Generator, size: int) -> np.ndarray:
    """ln U for size uniforms U on the open interval (0, 1)."""
    log_u = gen.standard_exponential(size)
    np.maximum(log_u, _MIN_EXPONENTIAL, out=log_u)
    return np.negative(log_u, out=log_u)


def _draw_exceedance_counts(stream: SeededStream, trials: int,
                            cutoffs: Sequence[float]) -> list[int]:
    """Per cutoff c, a draw of the number of trials whose ln U exceeds it,
    from stream.generator(), as if every cutoff scored the same ln U: with
    p = 1 - e^c, in ascending order of c, Binomial(trials, p) and then
    Binomial(previous count, p / previous p); equal cutoffs, equal counts."""
    gen, counts = stream.generator(), [0] * len(cutoffs)
    left, p_left = trials, 1.0
    for i in sorted(range(len(cutoffs)), key=cutoffs.__getitem__):
        p = -math.expm1(cutoffs[i])
        if left and p < p_left:
            left = int(gen.binomial(left, p / p_left))
        counts[i], p_left = left, p
    return counts


def simulate_minimal_effort(n: int, trials: int, stream: SeededStream) -> SimulationReport:
    """Exceedance frequency for the minimal-effort designer.

    Each trial takes the maximum of n variates, rescales the sample so the
    maximum sits exactly on the test threshold, then takes one further
    variate at the same scale and records whether it crosses the
    threshold.  Rescaling by a positive factor preserves order, so the
    event reduces to "the extra raw draw exceeds the raw sample maximum"
    and the threshold value drops out; the expected frequency is the
    exchangeability law 1/(n+1).  The count of exceedances is one
    Binomial(trials, 1/(n+1)) draw from stream.generator().
    """
    n = _require_count("n", n)
    trials = _require_count("trials", trials)
    exceed = _draw_exceedance_counts(stream, trials, [-math.log1p(1.0 / n)])[0]
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
    applied_t = (rule.threshold if rule_kind == "fixed_threshold"
                 else rule.entry_for(scenario.n_performed)[1])
    cutoff = log_cdf_power(applied_t / scenario.sigma_true, scenario.n_performed)
    rejected = _draw_exceedance_counts(scenario.stream, scenario.trials, [cutoff])[0]
    return _binomial_report(rejected, scenario.trials,
                            accepted_runs=scenario.trials - rejected)


def paradox_curve(sigma_true: float, rule: StandardRule, n_list: Sequence[int],
                  trials: int, stream: SeededStream) -> list[ParadoxPoint]:
    """Rejection rates against measurement count, under both rule readings.

    One simulated sample maximum at scale sigma_true per trial and count,
    scored against both the fixed threshold rule.threshold (which rejects
    more as n' grows: more chances to cross the same bar) and the
    count-matched schedule entry.  The two counts are drawn jointly, as if
    from shared maxima, so they coincide exactly where the thresholds do.
    Every count must lie within the schedule's tabulated range.

    Row r draws from the one generator stream.child(r).generator().
    """
    sigma_true = _require_positive("sigma_true", sigma_true)
    trials = _require_count("trials", trials)
    counts = _require_counts("n_list", n_list)
    max_tabulated = rule.schedule[-1][0]
    for n_prime in counts:
        if not rule.n_required <= n_prime <= max_tabulated:
            raise DomainError(
                f"n' = {n_prime} outside the schedule's tabulated range "
                f"[{rule.n_required}, {max_tabulated}]")

    points = []
    for row, n_prime in enumerate(counts):
        thresholds = (rule.threshold, rule.entry_for(n_prime)[1])
        cutoffs = [log_cdf_power(t / sigma_true, n_prime) for t in thresholds]
        fixed, sched = _draw_exceedance_counts(stream.child(row), trials, cutoffs)
        points.append(ParadoxPoint(n_prime, fixed / trials, sched / trials))
    return points


def _screen_table(q0: float, threshold: float, n: int, prior: SigmaPrior
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Per cell of ln sigma, bounds that decide most trials of a verify row.

    The prior's range [ln sigma_lo, ln sigma_hi] splits into _SCREEN_CELLS
    equal cells (one where the range is a single float, as for a point
    prior).  Over a cell, x = threshold / sigma runs between its values
    x_k, x_k+1 at the two edges; a threshold <= 0 reverses which edge
    gives the smaller x, hence the min and max.  With the margin
    m(x) = 1e-6 |x| + 1e-12,

        low[k]  = n ln Phi(min(x_k, x_k+1) - m)   (ln U <= low[k]: kept)
        high[k] = n ln Phi(max(x_k, x_k+1) + m)   (ln U > high[k]: dropped)

    and, with y = q0 / sigma and sf(y) = 1 - Phi(y),

        s_lo[k] = sf(max(y_k, y_k+1) + m)   (a uniform V < s_lo[k]: exceeds q0)
        s_hi[k] = sf(min(y_k, y_k+1) - m)   (V >= s_hi[k]: does not)

    Returns (edges, low, high, s_lo, s_hi), with the cells + 1 edges in
    ln sigma.  A prior reaching below _SCREEN_MIN_SIGMA gets one cell whose
    ln U bounds decide nothing.
    """
    v_lo, v_hi = math.log(prior.sigma_lo), math.log(prior.sigma_hi)
    unscreened = prior.sigma_lo < _SCREEN_MIN_SIGMA
    cells = _SCREEN_CELLS if v_hi > v_lo and not unscreened else 1
    edges = np.linspace(v_lo, v_hi, cells + 1)
    with np.errstate(over="ignore"):   # to +inf, the bounds' own limit
        inverse = np.exp(-edges)
        y_min, y_max = _widened(q0 * inverse)
        if unscreened:
            low, high = np.array([-math.inf]), np.array([math.inf])
        else:
            x_min, x_max = _widened(threshold * inverse)
            low = np.array([_log_std_normal_cdf(v) for v in x_min]) * n
            high = np.array([_log_std_normal_cdf(v) for v in x_max]) * n
    s_lo = np.array([0.5 * math.erfc(v * _INV_SQRT2) for v in y_max])
    s_hi = np.array([0.5 * math.erfc(v * _INV_SQRT2) for v in y_min])
    return edges, low, high, s_lo, s_hi


def _widened(x: np.ndarray) -> tuple[list[float], list[float]]:
    """Per cell, the smaller of x at its two edges less the margin, and the
    larger plus it.  |x| is clipped to _SCREEN_X_CLIP first."""
    x = np.clip(x, -_SCREEN_X_CLIP, _SCREEN_X_CLIP)
    x_min = np.minimum(x[:-1], x[1:])
    x_max = np.maximum(x[:-1], x[1:])
    x_min -= _SCREEN_REL_MARGIN * np.abs(x_min) + _SCREEN_ABS_MARGIN
    x_max += _SCREEN_REL_MARGIN * np.abs(x_max) + _SCREEN_ABS_MARGIN
    return x_min.tolist(), x_max.tolist()


def _share(part: np.ndarray, whole: np.ndarray) -> np.ndarray:
    """part / whole as a probability, 0 where whole is 0."""
    share = np.divide(part, whole, out=np.zeros_like(part), where=whole > 0.0)
    return np.clip(share, 0.0, 1.0, out=share)


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
    threshold, and its next draw exceeds q0 with probability
    sf(q0 / sigma) = 1 - Phi(q0 / sigma).  Only the runs that
    _screen_table's bounds leave undecided are simulated.  The rest are
    counted by binomial draws from stream.generator() (thinning, Devroye
    1986), which keeps the joint law of (kept, exceed) that of simulating
    every run:

    * the trials fall into the cells as Multinomial(trials, 1 / cells), the
      probability the log-uniform prior gives each cell;
    * of the m_k trials in cell k, Binomial(m_k, e^low[k]) are kept for
      sure, and of the rest Binomial(., (e^top - e^low[k]) / (1 - e^low[k]))
      are undecided, with top = min(high[k], 0); the others are dropped;
    * of the K sure ones, Binomial(K, s_lo[k]) exceed for sure, and of the
      rest Binomial(., (s_hi[k] - s_lo[k]) / (1 - s_lo[k])) may exceed.

    An undecided run draws ln U from the exponential law truncated to
    (low[k], top] (through log1p and expm1, so ln U keeps its digits near
    0) and sigma log-uniform within its cell (sigma_lo itself for a point
    prior); the quantile test keeps it, and a normal draw times sigma
    exceeds q0 or not.  Within a cell a sure run's scale is independent of
    its being kept, so a run that may exceed draws a fresh sigma in its
    cell and V uniform on [s_lo[k], s_hi[k]), and exceeds when
    V < sf(q0 / sigma).  The undecided runs go through _map_blocks, cell by
    cell, on stream.child(0), the runs that may exceed on stream.child(1).

    The bounds hold for every scale a cell's draws can reach.  For sf the
    margin m(y) = 1e-6 y + 1e-12 dwarfs the rounding of q0 / sigma and
    erfc.  For the quantile test it needs one condition: read on the scale
    of x, the computed test "peak <= x" must differ from the true
    "max <= x" by less than m(x).  It holds with room to spare: Acklam's
    error is 1.2e-9 |x|, and the rounding of exp, log, ln U / n, the bounds
    and peak * sigma adds a few 1e-16 (|x| + 1).  A prior reaching below
    _SCREEN_MIN_SIGMA, where peak * sigma can round to a subnormal with an
    absolute error, is never screened: all its runs are undecided.
    Otherwise about 1/_SCREEN_CELLS of the runs are, and a row costs about
    that share of simulating every run.
    """
    threshold = _require_finite("threshold", threshold)
    n = _require_count("n", n)
    trials = _require_count("trials", trials)
    edges, low, high, s_lo, s_hi = _screen_table(spec.q0, threshold, n, prior)
    top = np.minimum(high, 0.0)
    with np.errstate(invalid="ignore"):   # nan only in cells no trial reaches
        depth = -np.expm1(low - top)   # 1 - P(ln U <= low | ln U <= top)

    gen = stream.generator()
    in_cell = gen.multinomial(trials, np.full(low.size, 1.0 / low.size))
    sure = gen.binomial(in_cell, np.exp(low))
    undecided = gen.binomial(in_cell - sure,
                             _share(np.expm1(top) - np.expm1(low), -np.expm1(low)))
    sure_exceed = gen.binomial(sure, s_lo)
    maybe = gen.binomial(sure - sure_exceed, _share(s_hi - s_lo, 1.0 - s_lo))

    def scales(gen, counts, size):
        if prior.kind == "point":
            return np.full(size, prior.sigma_lo)
        sigma = gen.random(size)
        sigma *= np.repeat(np.diff(edges), counts)
        sigma += np.repeat(edges[:-1], counts)
        return np.exp(sigma, out=sigma)

    def undecided_block(gen, counts, size):
        log_u = gen.random(size)
        log_u *= np.repeat(-depth, counts)
        np.log1p(log_u, out=log_u)
        log_u += np.repeat(top, counts)
        log_u /= n
        peak = _quantile_log_in_place(log_u)
        sigma = scales(gen, counts, size)
        peak *= sigma
        kept = peak <= threshold
        del log_u, peak   # one array, freed before the next draw
        extra = gen.standard_normal(size)
        extra *= sigma
        return int(np.count_nonzero(kept)), int(np.count_nonzero((extra > spec.q0) & kept))

    def maybe_block(gen, counts, size):
        sigma = scales(gen, counts, size)
        v = gen.random(size)
        v *= np.repeat(s_hi - s_lo, counts)
        v += np.repeat(s_lo, counts)
        with np.errstate(over="ignore"):   # q0 / sigma = inf: sf is 0
            z = np.divide(spec.q0, sigma, out=sigma)
        z *= _INV_SQRT2
        sf = np.fromiter(map(math.erfc, z), float, size)
        sf *= 0.5
        return (int(np.count_nonzero(v < sf)),)

    parts = _map_blocks(stream.child(0), undecided, undecided_block)
    kept = int(sure.sum()) + sum(p[0] for p in parts)
    exceed = int(sure_exceed.sum()) + sum(p[1] for p in parts) + sum(
        p[0] for p in _map_blocks(stream.child(1), maybe, maybe_block))
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
    """Mean of per-trial maxima with its standard error; a block's sums are
    ndarray.sum's (pairwise, not BLAS), added by math.fsum in block order."""
    n = _require_count("n", n)
    sigma = _require_positive("sigma", sigma)
    trials = _require_count("trials", trials)
    if trials < 2:
        raise DomainError("need at least 2 trials for a standard error")

    def block(gen, _, size):
        log_u = _log_uniform(gen, size)
        log_u /= n
        m = _quantile_log_in_place(log_u)
        total = float(m.sum())
        m *= m
        return total, float(m.sum())

    parts = _map_blocks(stream, [trials], block)
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
