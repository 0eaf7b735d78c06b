"""Tests for the Monte Carlo harness.

Closed forms (the 1/(n+1) exchangeability law, acceptance probabilities
Phi(t/sigma)**n, the order-statistic mean integral) serve as oracles for
the simulations, and the simulations in turn cross-check the calibration
quadrature through an independent sampling route.
"""

import math
import sys
import threading
import time
import tracemalloc
from fractions import Fraction

import bruteforce
import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from threshcal import paradox

from threshcal.calibration import (
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    conditional_exceedance,
    threshold_schedule,
)
from threshcal.errors import ConfigurationError, DomainError, InfeasibleConditioningError
from threshcal.gaussian import (
    SeededStream,
    log_std_normal_cdf,
    std_normal_quantile,
    std_normal_quantile_log,
)
from threshcal.paradox import (
    _BLOCK_TRIALS,
    EULER_GAMMA,
    DesignScenario,
    SimulationReport,
    _accepted,
    _exact_sum,
    _log_uniform,
    _map_blocks,
    _screen_table,
    estimate_conditional_exceedance,
    euler_gamma_partial,
    expected_max_asymptotic,
    expected_max_exact,
    expected_max_monte_carlo,
    paradox_curve,
    simulate_compliance,
    simulate_minimal_effort,
)

DEMO = SafetySpec(q0=1.0, p0=0.01)
DEMO_PRIOR = SigmaPrior.log_uniform(0.01, 10.0)


def within(report, p, k=4.0):
    return abs(report.estimate - p) <= k * max(report.standard_error, 1e-12)


@pytest.fixture(scope="module")
def uncapped_rule():
    return threshold_schedule(DEMO, DEMO_PRIOR, [40, 80, 160, 320, 640],
                              cap_at_q0=False, tol=1e-6)


class TestSimulateMinimalEffort:
    def test_two_draw_symmetry(self):
        report = simulate_minimal_effort(1, 100_000, SeededStream(seed=11, stream_index=2))
        assert within(report, 0.5)
        assert report.accepted_runs == report.trials == 100_000

    def test_forty_measurements_danger_level(self):
        report = simulate_minimal_effort(40, 100_000, SeededStream(seed=12, stream_index=2))
        assert within(report, 1.0 / 41.0)

    @pytest.mark.parametrize("n", [1, 5, 40])
    def test_law_product(self, n):
        report = simulate_minimal_effort(n, 100_000, SeededStream(seed=13, stream_index=2))
        band = 4.0 * report.standard_error * (n + 1)
        assert abs(report.estimate * (n + 1) - 1.0) <= band

    def test_deterministic_and_follows_block_plan(self):
        stream = SeededStream(seed=99, stream_index=2)
        trials = _BLOCK_TRIALS + 1_234
        a = simulate_minimal_effort(40, trials, stream)
        b = simulate_minimal_effort(40, trials, stream)
        assert a == b
        # block b draws ln U (the maximum) then ln V (the extra draw) from
        # stream.generator(b); the last block holds the remainder
        exceed = 0
        for block, size in enumerate([_BLOCK_TRIALS, 1_234]):
            gen = stream.generator(block)
            log_u = -gen.standard_exponential(size)
            log_v = -gen.standard_exponential(size)
            exceed += int(np.count_nonzero(40 * log_v > log_u))
        assert a.estimate == exceed / trials


class TestSimulateCompliance:
    def _scenario(self, rule, n_performed, sigma, seed=5, trials=20_000):
        return DesignScenario(mode="fixed_sigma", sigma_true=sigma, rule=rule,
                              n_performed=n_performed, trials=trials,
                              stream=SeededStream(seed=seed, stream_index=3))

    def test_tiny_scale_never_rejects(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40, 80])
        for kind in ("fixed_threshold", "schedule"):
            report = simulate_compliance(self._scenario(rule, 80, sigma=0.01), kind)
            assert report.estimate <= 1e-3

    def test_matches_closed_form(self, uncapped_rule):
        sigma = uncapped_rule.threshold / std_normal_quantile(0.9 ** (1 / 40))
        for n_prime in (40, 640):
            for kind in ("fixed_threshold", "schedule"):
                scenario = self._scenario(uncapped_rule, n_prime, sigma, seed=6 + n_prime)
                report = simulate_compliance(scenario, kind)
                t = uncapped_rule.threshold if kind == "fixed_threshold" \
                    else uncapped_rule.entry_for(n_prime)[1]
                expected = 1.0 - acceptance_probability(sigma, t, n_prime)
                assert within(report, expected)

    def test_fixed_rule_rejection_grows_with_count(self, uncapped_rule):
        sigma = uncapped_rule.threshold / std_normal_quantile(0.9 ** (1 / 40))
        low = simulate_compliance(self._scenario(uncapped_rule, 40, sigma, seed=21), "fixed_threshold")
        high = simulate_compliance(self._scenario(uncapped_rule, 640, sigma, seed=22), "fixed_threshold")
        gap = 4.0 * (low.standard_error + high.standard_error)
        assert high.estimate - low.estimate > gap

    def test_minimal_effort_at_required_count_always_passes(self, uncapped_rule):
        scenario = DesignScenario(mode="minimal_effort", sigma_true=1.0, rule=uncapped_rule,
                                  n_performed=40, trials=5_000,
                                  stream=SeededStream(seed=7, stream_index=3))
        report = simulate_compliance(scenario, "fixed_threshold")
        assert report.estimate == 0.0

    def test_minimal_effort_fixed_rule_matches_exchangeability(self, uncapped_rule):
        # doubling the count: extras carry the overall max half the time
        scenario = DesignScenario(mode="minimal_effort", sigma_true=1.0, rule=uncapped_rule,
                                  n_performed=80, trials=50_000,
                                  stream=SeededStream(seed=8, stream_index=3))
        report = simulate_compliance(scenario, "fixed_threshold")
        assert within(report, 0.5)

    def test_minimal_effort_schedule_rejects_less(self, uncapped_rule):
        kwargs = dict(mode="minimal_effort", sigma_true=1.0, rule=uncapped_rule,
                      n_performed=640, trials=50_000)
        fixed = simulate_compliance(
            DesignScenario(**kwargs, stream=SeededStream(seed=9, stream_index=3)),
            "fixed_threshold")
        sched = simulate_compliance(
            DesignScenario(**kwargs, stream=SeededStream(seed=10, stream_index=3)),
            "schedule")
        assert sched.estimate < fixed.estimate

    def test_rejects_bad_rule_kind(self, uncapped_rule):
        with pytest.raises(DomainError):
            simulate_compliance(self._scenario(uncapped_rule, 40, 1.0), "nearest")

    def test_scenario_validation(self, uncapped_rule):
        with pytest.raises(DomainError):
            DesignScenario(mode="fixed_sigma", sigma_true=1.0, rule=uncapped_rule,
                           n_performed=39, trials=10, stream=SeededStream(seed=0))
        with pytest.raises(DomainError):
            DesignScenario(mode="fixed_sigma", sigma_true=-1.0, rule=uncapped_rule,
                           n_performed=40, trials=10, stream=SeededStream(seed=0))


class TestParadoxCurve:
    def test_anchor_point_regimes_coincide(self, uncapped_rule):
        sigma = uncapped_rule.threshold / std_normal_quantile(0.9 ** (1 / 40))
        points = paradox_curve(sigma, uncapped_rule, [40],
                               trials=40_000, stream=SeededStream(seed=14, stream_index=4))
        assert len(points) == 1
        # both readings score the same simulated maxima against the same threshold
        assert points[0].rejection_fixed == points[0].rejection_schedule

    def test_demo_curve_shape(self, uncapped_rule):
        sigma = uncapped_rule.threshold / std_normal_quantile(0.9 ** (1 / 40))
        points = paradox_curve(sigma, uncapped_rule,
                               [40, 160, 640], trials=20_000,
                               stream=SeededStream(seed=15, stream_index=4))
        fixed = [p.rejection_fixed for p in points]
        assert fixed[0] < fixed[1] < fixed[2]
        for p in points:
            t = uncapped_rule.entry_for(p.n_prime)[1]
            expected = 1.0 - acceptance_probability(sigma, t, p.n_prime)
            se = math.sqrt(max(expected * (1 - expected), 1e-9) / 20_000)
            assert abs(p.rejection_schedule - expected) <= 4 * se
            assert p.rejection_schedule <= p.rejection_fixed + 4 * se

    def test_rejects_counts_outside_schedule(self, uncapped_rule):
        with pytest.raises(ConfigurationError):
            paradox_curve(0.5, uncapped_rule, [40, 1280],
                          trials=10, stream=SeededStream(seed=0))


class TestEstimateConditionalExceedance:
    def test_agrees_with_quadrature(self):
        quad_val = conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR)
        report = estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR,
                                                 trials=200_000,
                                                 stream=SeededStream(seed=16, stream_index=1))
        assert abs(report.estimate - quad_val) <= 3.0 * report.standard_error
        assert 0 < report.accepted_runs < report.trials

    def test_deterministic_and_follows_block_plan(self):
        stream = SeededStream(seed=17, stream_index=1)
        trials = 2 * _BLOCK_TRIALS + 777
        a = estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR, trials, stream)
        b = estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR, trials, stream)
        assert a == b
        # block b draws the scale, ln U for the maximum, then the extra draw
        kept = exceed = 0
        for block, size in enumerate([_BLOCK_TRIALS, _BLOCK_TRIALS, 777]):
            gen = stream.generator(block)
            sigma = np.exp(gen.uniform(math.log(0.01), math.log(10.0), size))
            peak = std_normal_quantile_log(-gen.standard_exponential(size) / 40)
            accepted = peak * sigma <= 1.0
            kept += int(np.count_nonzero(accepted))
            exceed += int(np.count_nonzero(accepted & (gen.standard_normal(size) * sigma > 1.0)))
        assert a.accepted_runs == kept
        assert a.estimate == exceed / kept

    def test_impossible_event_raises(self):
        with pytest.raises(InfeasibleConditioningError):
            estimate_conditional_exceedance(DEMO, -10.0, 40, DEMO_PRIOR, trials=1_000,
                                            stream=SeededStream(seed=18, stream_index=1))


# The acceptance screen of estimate_conditional_exceedance: thresholds of
# both signs, 0 and within rounding of 0, counts across the whole range,
# wide, narrow and point priors.  Thresholds whose boundary
# x = threshold / sigma sits on Acklam's branch switches (Phi(x) = 0.02425
# and 1 - 0.02425) are given as x, for the point prior's sigma.
SCREEN_THRESHOLDS = [-0.5, -0.05, -1e-15, 0.0, 1e-13, 0.3, 1.0, 2.0, 50.0]
SCREEN_COUNTS = [1, 2, 40, 2**20, 2**36]
SCREEN_PRIORS = {
    "wide": SigmaPrior.log_uniform(0.01, 10.0),
    "unit": SigmaPrior.log_uniform(0.01, 1.0),
    "narrow": SigmaPrior.log_uniform(0.5, 0.6),
    "point": SigmaPrior.point(0.7),
}
BRANCH_SWITCH_X = [std_normal_quantile(0.02425), std_normal_quantile(1.0 - 0.02425)]
# two blocks, the last one partial
SCREEN_PLAN = [_BLOCK_TRIALS, 5_000]
SCREEN_TRIALS = sum(SCREEN_PLAN)


def screen_cases(prior_name):
    """(threshold, n) pairs for one prior of SCREEN_PRIORS."""
    thresholds = list(SCREEN_THRESHOLDS)
    if prior_name == "point":
        thresholds += [x * SCREEN_PRIORS["point"].sigma_lo for x in BRANCH_SWITCH_X]
    return [(t, n) for t in thresholds for n in SCREEN_COUNTS]


def unscreened(threshold, n, prior, stream):
    """(accepted_runs, estimate) of estimate_conditional_exceedance over
    SCREEN_TRIALS, with every run decided by the quantile itself; (0, None)
    without kept runs."""
    kept = exceed = 0
    for block, size in enumerate(SCREEN_PLAN):
        gen = stream.generator(block)
        sigma = prior.sample(gen, size)
        peak = std_normal_quantile_log(-gen.standard_exponential(size) / n)
        accepted = peak * sigma <= threshold
        kept += int(np.count_nonzero(accepted))
        exceed += int(np.count_nonzero(
            accepted & (gen.standard_normal(size) * sigma > DEMO.q0)))
    return kept, (exceed / kept if kept else None)


def screened(threshold, n, prior, stream):
    try:
        report = estimate_conditional_exceedance(DEMO, threshold, n, prior, SCREEN_TRIALS,
                                                 stream)
    except InfeasibleConditioningError:
        return 0, None
    return report.accepted_runs, report.estimate


def boundary_trials(threshold, n, prior):
    """(ln U, sigma) pairs packed around the acceptance boundary.

    The scales are cell edges of the screen, the prior's ends and the
    floats a few ulps past them (which ln and exp can round a draw to).
    For each, ln U runs over a grid about n ln Phi(threshold / sigma), in
    steps of one ulp (the rounding of the test itself), in relative steps
    of 1e-11 (finer than the gap between Acklam's boundary and the true
    one) and of 1e-6 (across the margin).
    """
    lo, hi = prior.sigma_lo, prior.sigma_hi
    edges = np.exp(np.linspace(math.log(lo), math.log(hi), paradox._SCREEN_CELLS + 1))
    ulps = np.arange(4)
    sigmas = np.concatenate([edges[::16], lo * (1.0 - ulps * 2.0**-53),
                             hi * (1.0 + ulps * 2.0**-52)])
    steps = np.concatenate([np.arange(-1000, 1001) * 1e-11, np.arange(-100, 101) * 1e-6])
    ulps_around = np.arange(-64, 65)
    log_u, sigma = [], []
    for s in sigmas.tolist():
        boundary = n * log_std_normal_cdf(threshold / s)
        if not -math.inf < boundary < 0.0:
            continue
        grid = np.concatenate([boundary * (1.0 + steps),
                               boundary + ulps_around * np.spacing(boundary)])
        grid = grid[grid <= -2.0**-100]   # ln U of a draw lies below this
        log_u.append(grid)
        sigma.append(np.full(grid.size, s))
    if not log_u:
        return np.empty(0), np.empty(0)
    return np.concatenate(log_u), np.concatenate(sigma)


class TestAcceptanceScreen:
    """The screen decides every run as the quantile test would, bit for bit."""

    @pytest.mark.parametrize("prior_name", SCREEN_PRIORS)
    def test_matches_unscreened_estimate(self, prior_name):
        prior = SCREEN_PRIORS[prior_name]
        stream = SeededStream(seed=51, stream_index=1)
        mismatches = [(t, n) for t, n in screen_cases(prior_name)
                      if screened(t, n, prior, stream) != unscreened(t, n, prior, stream)]
        assert mismatches == []

    @pytest.mark.parametrize("prior_name", SCREEN_PRIORS)
    def test_matches_quantile_at_the_boundary(self, prior_name):
        prior = SCREEN_PRIORS[prior_name]
        mismatches = []
        for t, n in screen_cases(prior_name):
            log_u, sigma = boundary_trials(t, n, prior)
            expected = std_normal_quantile_log(log_u / n) * sigma <= t
            if not np.array_equal(_accepted(log_u, sigma, t, n, _screen_table(t, n, prior)),
                                  expected):
                mismatches.append((t, n))
        assert mismatches == []

    def test_matches_unscreened_estimate_at_subnormal_scales(self):
        # peak * sigma rounds to subnormals here, where rounding is absolute
        prior = SigmaPrior.log_uniform(5e-324, 1e-300)
        stream = SeededStream(seed=54, stream_index=1)
        for t in (0.0, 5e-324, -5e-324, 1e-305):
            for n in (1, 40):
                assert screened(t, n, prior, stream) == unscreened(t, n, prior, stream)

    @pytest.mark.parametrize("prior_name", SCREEN_PRIORS)
    def test_quantile_runs_on_under_one_percent(self, prior_name, monkeypatch):
        prior = SCREEN_PRIORS[prior_name]
        evaluated = []
        quantile = paradox.std_normal_quantile_log

        def counting_quantile(log_p):
            evaluated.append(log_p.size)
            return quantile(log_p)

        monkeypatch.setattr(paradox, "std_normal_quantile_log", counting_quantile)
        for t in (-0.05, 0.3, 1.0):
            evaluated.clear()
            estimate_conditional_exceedance(DEMO, t, 1, prior, SCREEN_TRIALS,
                                            SeededStream(seed=52, stream_index=1))
            assert sum(evaluated) <= 0.01 * SCREEN_TRIALS


# tracemalloc peak of one _BLOCK_TRIALS block on one thread, in MiB: the
# value measured with numpy 2.4 (in parentheses) plus about 10%.
BLOCK_PEAK_MIB = {
    "estimate_conditional_exceedance": 1.45,   # (1.32)
    "estimate_conditional_exceedance-point": 1.45,   # (1.32)
    "simulate_minimal_effort": 1.17,   # (1.07)
    "simulate_compliance-fixed_sigma": 0.62,   # (0.57)
    "simulate_compliance-minimal_effort": 1.94,   # (1.76)
    "paradox_curve": 0.62,   # (0.57)
    "expected_max_monte_carlo": 1.39,   # (1.26)
}


def one_block_calls(rule):
    """Per name of BLOCK_PEAK_MIB, a call that runs one _BLOCK_TRIALS block."""
    stream = SeededStream(seed=53, stream_index=1)

    def compliance(mode):
        scenario = DesignScenario(mode=mode, sigma_true=1.0, rule=rule, n_performed=40,
                                  trials=_BLOCK_TRIALS, stream=stream)
        return lambda: simulate_compliance(scenario, "schedule")

    def exceedance(prior):
        return lambda: estimate_conditional_exceedance(DEMO, 1.0, 40, prior,
                                                       _BLOCK_TRIALS, stream)

    return {
        "estimate_conditional_exceedance": exceedance(DEMO_PRIOR),
        "estimate_conditional_exceedance-point": exceedance(SigmaPrior.point(0.3)),
        "simulate_minimal_effort": lambda: simulate_minimal_effort(40, _BLOCK_TRIALS, stream),
        "simulate_compliance-fixed_sigma": compliance("fixed_sigma"),
        "simulate_compliance-minimal_effort": compliance("minimal_effort"),
        "paradox_curve": lambda: paradox_curve(1.0, rule, [40],
                                               _BLOCK_TRIALS, stream),
        "expected_max_monte_carlo": lambda: expected_max_monte_carlo(40, 1.0, _BLOCK_TRIALS,
                                                                     stream),
    }


class TestBlockMemory:
    @pytest.mark.parametrize("name", BLOCK_PEAK_MIB)
    def test_block_peak_stays_bounded(self, name, wide_rule, monkeypatch):
        monkeypatch.setattr(paradox, "_WORKERS", 1)
        run = one_block_calls(wide_rule)[name]
        run()   # numpy's first-call allocations are not the block's
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= BLOCK_PEAK_MIB[name] * 2**20


class TestExpectedMax:
    def test_exact_single_draw_is_zero(self):
        assert abs(expected_max_exact(1)) <= 1e-10

    def test_exact_two_draws_closed_form(self):
        assert expected_max_exact(2) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)

    def test_exact_hundred_against_mpmath(self):
        mpmath.mp.dps = 25
        n = 100
        integrand = lambda x: (n * x * mpmath.npdf(x) * mpmath.ncdf(x) ** (n - 1))
        expected = float(mpmath.quad(integrand, mpmath.linspace(-10, 10, 9)))
        assert expected == pytest.approx(2.5075936364, abs=1e-9)
        assert expected_max_exact(100) == pytest.approx(expected, rel=1e-9)

    def test_asymptotic_form(self):
        assert expected_max_asymptotic(100) == pytest.approx(
            EULER_GAMMA * math.sqrt(2 * math.log(100)), rel=1e-15)
        assert expected_max_asymptotic(100) == pytest.approx(1.752, abs=5e-4)
        with pytest.raises(DomainError):
            expected_max_asymptotic(1)

    def test_asymptotic_undershoots_exact(self):
        # the shorthand sits well below the exact mean; both are reported
        assert expected_max_asymptotic(100) < expected_max_exact(100)

    def test_monte_carlo_agrees_with_exact(self):
        mean, se = expected_max_monte_carlo(10, 1.0, 40_000,
                                            SeededStream(seed=19, stream_index=5))
        assert abs(mean - expected_max_exact(10)) <= 4 * se

    def test_monte_carlo_follows_block_plan(self):
        stream = SeededStream(seed=20, stream_index=5)
        trials = _BLOCK_TRIALS + 5
        a = expected_max_monte_carlo(100, 2.0, trials, stream)
        b = expected_max_monte_carlo(100, 2.0, trials, stream)
        assert a == b
        # block b draws one ln U per trial and sums the maxima it maps to
        sums, squares = [], []
        for block, size in enumerate([_BLOCK_TRIALS, 5]):
            m = std_normal_quantile_log(-stream.generator(block).standard_exponential(size) / 100)
            sums.append(math.fsum(m))
            squares.append(math.fsum(m * m))
        mean = math.fsum(sums) / trials
        var = (math.fsum(squares) - trials * mean * mean) / (trials - 1)
        assert a == (2.0 * mean, 2.0 * math.sqrt(var / trials))

    def test_growth_ratio_increasing_toward_one(self):
        ratios = [expected_max_exact(n) / math.sqrt(2 * math.log(n))
                  for n in (100, 1_000, 10_000)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(0.8 < r < 1.0 for r in ratios)

    def test_sigma_scaling(self):
        assert expected_max_exact(50, sigma=2.5) == pytest.approx(
            2.5 * expected_max_exact(50), rel=1e-12)


class TestEulerGammaPartial:
    def test_first_term(self):
        assert euler_gamma_partial(1) == 1.0

    def test_converges_from_above(self):
        val = euler_gamma_partial(10_000)
        assert 0.0 < val - EULER_GAMMA <= 1e-4

    def test_monotone_decreasing(self):
        ns = [1, 2, 5, 10, 100, 1_000, 10_000]
        vals = [euler_gamma_partial(n) for n in ns]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestSimulationReport:
    def test_validation(self):
        with pytest.raises(DomainError):
            SimulationReport(estimate=1.5, standard_error=0.0, trials=10, accepted_runs=5)
        with pytest.raises(DomainError):
            SimulationReport(estimate=0.5, standard_error=0.0, trials=10, accepted_runs=11)
        with pytest.raises(DomainError):
            SimulationReport(estimate=0.5, standard_error=-1.0, trials=10, accepted_runs=5)


class _ZeroExponentials:
    """Generator stand-in whose standard exponentials are all exactly 0."""

    def standard_exponential(self, size):
        return np.zeros(size)


class TestLogUniform:
    def test_zero_exponential_stays_inside_open_interval(self):
        # an exponential draw of exactly 0 would mean U = 1 and an infinite maximum
        log_u = _log_uniform(_ZeroExponentials(), 4)
        assert np.all(log_u < 0.0)
        for n in (1, 640, 10**6):
            assert np.all(np.isfinite(std_normal_quantile_log(log_u / n)))


# Counts of the equivalence tests: the same distributions as drawing every
# sample in full, at both ends of the count range.
COUNTS = [1, 2, 40, 640]
LIBRARY_TRIALS = 100_000
BRUTE_TRIALS = 30_000


def agree(estimate, se, oracle):
    """Within 4 combined standard errors of a brute-force estimate."""
    return abs(estimate - oracle.value) <= 4.0 * math.hypot(se, oracle.standard_error)


def binomial_se(p, trials):
    return math.sqrt(p * (1.0 - p) / trials)


@pytest.fixture(scope="module")
def wide_rule():
    """A rule tabulated at every count of COUNTS, required count 1."""
    return StandardRule(schedule=((1, 3.0), (2, 3.1), (40, 3.3), (640, 3.6)))


class TestBruteForceEquivalence:
    @pytest.mark.parametrize("n", COUNTS)
    def test_minimal_effort(self, n):
        report = simulate_minimal_effort(n, LIBRARY_TRIALS,
                                         SeededStream(seed=31, stream_index=2))
        oracle = bruteforce.minimal_effort(n, BRUTE_TRIALS, np.random.default_rng(1000 + n))
        assert agree(report.estimate, report.standard_error, oracle)

    @pytest.mark.parametrize("n", COUNTS)
    def test_fixed_sigma_compliance(self, wide_rule, n):
        sigma = 1.0
        oracles = bruteforce.fixed_sigma_rejections(
            n, sigma, [wide_rule.threshold, wide_rule.entry_for(n)[1]], BRUTE_TRIALS,
            np.random.default_rng(2000 + n))
        for kind, oracle in zip(("fixed_threshold", "schedule"), oracles):
            scenario = DesignScenario(mode="fixed_sigma", sigma_true=sigma, rule=wide_rule,
                                      n_performed=n, trials=LIBRARY_TRIALS,
                                      stream=SeededStream(seed=32, stream_index=3))
            report = simulate_compliance(scenario, kind)
            assert agree(report.estimate, report.standard_error, oracle)

    @pytest.mark.parametrize("n", COUNTS[1:])
    def test_minimal_effort_compliance(self, wide_rule, n):
        for kind in ("fixed_threshold", "schedule"):
            scenario = DesignScenario(mode="minimal_effort", sigma_true=1.0, rule=wide_rule,
                                      n_performed=n, trials=LIBRARY_TRIALS,
                                      stream=SeededStream(seed=33, stream_index=3))
            report = simulate_compliance(scenario, kind)
            applied = wide_rule.threshold if kind == "fixed_threshold" \
                else wide_rule.entry_for(n)[1]
            oracle = bruteforce.minimal_effort_rejections(
                1, n, applied / wide_rule.threshold, BRUTE_TRIALS,
                np.random.default_rng(3000 + n))
            assert agree(report.estimate, report.standard_error, oracle)

    def test_paradox_curve(self, wide_rule):
        sigma = 1.0
        points = paradox_curve(sigma, wide_rule, COUNTS, LIBRARY_TRIALS,
                               SeededStream(seed=34, stream_index=4))
        assert [p.n_prime for p in points] == COUNTS
        for p in points:
            fixed, sched = bruteforce.fixed_sigma_rejections(
                p.n_prime, sigma, [wide_rule.threshold, wide_rule.entry_for(p.n_prime)[1]],
                BRUTE_TRIALS, np.random.default_rng(4000 + p.n_prime))
            assert agree(p.rejection_fixed,
                         binomial_se(p.rejection_fixed, LIBRARY_TRIALS), fixed)
            assert agree(p.rejection_schedule,
                         binomial_se(p.rejection_schedule, LIBRARY_TRIALS), sched)

    @pytest.mark.parametrize("n", COUNTS)
    def test_conditional_exceedance(self, n):
        report = estimate_conditional_exceedance(DEMO, 1.0, n, DEMO_PRIOR, LIBRARY_TRIALS,
                                                 SeededStream(seed=35, stream_index=1))
        oracle = bruteforce.conditional_exceedance(
            DEMO.q0, 1.0, n, DEMO_PRIOR.sigma_lo, DEMO_PRIOR.sigma_hi, BRUTE_TRIALS,
            np.random.default_rng(5000 + n))
        assert agree(report.estimate, report.standard_error, oracle)

    @pytest.mark.parametrize("n", COUNTS)
    def test_expected_max(self, n):
        mean, se = expected_max_monte_carlo(n, 1.5, LIBRARY_TRIALS,
                                            SeededStream(seed=36, stream_index=5))
        oracle = bruteforce.expected_max(n, 1.5, BRUTE_TRIALS, np.random.default_rng(6000 + n))
        assert agree(mean, se, oracle)


# Four blocks, the last one partial: with 2 or 3 threads some thread runs
# more than one block.
INVARIANCE_TRIALS = 3 * _BLOCK_TRIALS + 777
INVARIANCE_BLOCKS = 4


def every_entry_point(rule):
    """The result of every Monte Carlo entry point at INVARIANCE_TRIALS."""
    stream = SeededStream(seed=41, stream_index=1)
    results = [simulate_minimal_effort(40, INVARIANCE_TRIALS, stream)]
    for mode in ("fixed_sigma", "minimal_effort"):
        for kind in ("fixed_threshold", "schedule"):
            scenario = DesignScenario(mode=mode, sigma_true=1.0, rule=rule, n_performed=40,
                                      trials=INVARIANCE_TRIALS, stream=stream)
            results.append(simulate_compliance(scenario, kind))
    results.append(paradox_curve(1.0, rule, [2, 40, 640],
                                 INVARIANCE_TRIALS, stream))
    results.append(estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR,
                                                   INVARIANCE_TRIALS, stream))
    results.append(expected_max_monte_carlo(40, 1.5, INVARIANCE_TRIALS, stream))
    return results


class _BlockFailure(Exception):
    pass


def block_index(stream):
    """Block index by the first draw of the block's generator."""
    return {stream.generator(b).random(): b for b in range(INVARIANCE_BLOCKS)}


def call_with_deadline(fn, seconds=60.0):
    """fn() on a daemon thread; its exception or result, or a failure after seconds."""
    outcome = {}

    def target():
        try:
            outcome["result"] = fn()
        except BaseException as exc:
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), f"no result within {seconds} s"
    if "error" in outcome:
        raise outcome["error"]
    return outcome["result"]


class TestWorkerCountInvariance:
    """The thread count changes neither a result nor an exception."""

    def test_every_entry_point_is_identical(self, wide_rule, monkeypatch):
        results = []
        for workers, wave in ((1, 256), (2, 256), (3, 256), (2, 3)):
            monkeypatch.setattr(paradox, "_WORKERS", workers)
            monkeypatch.setattr(paradox, "_WAVE_BLOCKS", wave)
            results.append(every_entry_point(wide_rule))
        assert results[0] == results[1] == results[2] == results[3]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_results_come_back_in_block_order(self, monkeypatch, workers):
        monkeypatch.setattr(paradox, "_WORKERS", workers)
        stream = SeededStream(seed=42)
        index = block_index(stream)
        assert _map_blocks(stream, INVARIANCE_TRIALS,
                           lambda gen, size: (index[gen.random()], size)) == [
            (0, _BLOCK_TRIALS), (1, _BLOCK_TRIALS), (2, _BLOCK_TRIALS), (3, 777)]

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing", [(1,), (1, 2), (1, 3)])
    def test_failing_block_raises_its_own_exception(self, monkeypatch, workers, failing):
        # the lowest failing block's exception, as a plain loop would raise
        monkeypatch.setattr(paradox, "_WORKERS", workers)
        stream = SeededStream(seed=42)
        index = block_index(stream)

        def block(gen, size):
            b = index[gen.random()]
            if b in failing:
                raise _BlockFailure(b)
            return (b,)

        threads_before = threading.active_count()
        with pytest.raises(_BlockFailure) as exc:
            call_with_deadline(lambda: _map_blocks(stream, INVARIANCE_TRIALS, block))
        assert exc.value.args == (1,)
        assert threading.active_count() == threads_before

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_exception_waits_for_every_thread(self, monkeypatch, workers):
        # block 0 fails at once; the other threads' blocks are slow
        monkeypatch.setattr(paradox, "_WORKERS", workers)
        stream = SeededStream(seed=42)
        index = block_index(stream)
        finished = []

        def block(gen, size):
            b = index[gen.random()]
            if b == 0:
                raise _BlockFailure(b)
            time.sleep(0.05)
            finished.append(b)
            return (b,)

        with pytest.raises(_BlockFailure):
            call_with_deadline(lambda: _map_blocks(stream, INVARIANCE_TRIALS, block))
        assert sorted(finished) == [b for b in range(INVARIANCE_BLOCKS) if b % workers]

    def test_stress_more_threads_than_cores(self, monkeypatch):
        # 201 tiny blocks in four waves on 8 threads, with thread switches
        # forced as often as the interpreter allows
        monkeypatch.setattr(paradox, "_BLOCK_TRIALS", 16)
        monkeypatch.setattr(paradox, "_WAVE_BLOCKS", 64)
        stream = SeededStream(seed=43)
        trials = 16 * 200 + 5

        def block(gen, size):
            draw = gen.random()
            if draw in failing:
                raise _BlockFailure(failing[draw])
            return (draw, size)

        failing = {}
        monkeypatch.setattr(paradox, "_WORKERS", 1)
        expected = _map_blocks(stream, trials, block)
        failing = {expected[b][0]: b for b in (150, 38, 37)}
        monkeypatch.setattr(paradox, "_WORKERS", 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with pytest.raises(_BlockFailure) as exc:
                call_with_deadline(lambda: _map_blocks(stream, trials, block))
            failing = {}
            results = call_with_deadline(lambda: _map_blocks(stream, trials, block))
        finally:
            sys.setswitchinterval(interval)
        assert exc.value.args == (37,)
        assert len(expected) == 201 and expected[-1][1] == 5
        assert results == expected

    def test_generators_are_made_on_the_calling_thread_in_block_order(
            self, wide_rule, monkeypatch):
        calls = []
        make_generator = SeededStream.generator

        def generator(stream, *path):
            calls.append((threading.get_ident(), stream.path, path))
            return make_generator(stream, *path)

        monkeypatch.setattr(SeededStream, "generator", generator)
        monkeypatch.setattr(paradox, "_WORKERS", 3)
        monkeypatch.setattr(paradox, "_WAVE_BLOCKS", 3)
        every_entry_point(wide_rule)
        assert {ident for ident, _, _ in calls} == {threading.get_ident()}
        # ten runs of the block plan: seven simulations and three curve rows,
        # row r on stream.child(r)
        plan = [(b,) for b in range(INVARIANCE_BLOCKS)]
        assert [path for _, _, path in calls] == plan * 10
        assert [row for _, row, _ in calls if row] == [(r,) for r in range(3) for _ in plan]


def assert_same_float(actual, expected):
    assert actual.hex() == expected.hex()


def exact_oracle(values):
    """math.fsum, or, where its partial sums overflow, the correctly-rounded
    exact total (float() of a Fraction rounds correctly)."""
    try:
        return math.fsum(values)
    except OverflowError:
        return float(sum(map(Fraction, values)))


class TestExactSum:
    """_exact_sum is math.fsum bit for bit."""

    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1,
                    max_size=300))
    def test_matches_fsum(self, values):
        try:
            expected = exact_oracle(values)
        except OverflowError:
            with pytest.raises(OverflowError):
                _exact_sum(np.array(values))
            return
        assert_same_float(_exact_sum(np.array(values)), expected)

    @staticmethod
    def _fixed_cases():
        rng = np.random.default_rng(9)
        tiny = 5e-324
        big = rng.standard_normal(1_000) * 1e300
        return {
            "subnormals": rng.integers(-2**40, 2**40, 5_000) * tiny,
            "mixed-signs": rng.standard_normal(10_000) * 10.0 ** rng.integers(-5, 5, 10_000),
            "whole-exponent-range": np.ldexp(rng.uniform(-1.0, 1.0, 20_000),
                                             rng.integers(-1074, 1000, 20_000)),
            "heavy-cancellation": np.concatenate([big, [1.0, tiny, -1e-300], -big[::-1]]),
            "all-zeros": np.zeros(1_000),
            "negative-zeros": np.full(7, -0.0),
            "one-element": np.array([-0.1]),
            "one-subnormal": np.array([tiny]),
            "a-block-of-maxima": std_normal_quantile_log(
                -rng.standard_exponential(_BLOCK_TRIALS) / 40),
            "a-block-of-squares": std_normal_quantile_log(
                -rng.standard_exponential(_BLOCK_TRIALS) / 2) ** 2,
            "halfway-rounding": np.array([1.0, 2.0**-53, 2.0**-106]),
            "largest-floats": np.array([1.7e308, 1e308, -1.7e308]),
            # one exponent whose high-half and low-half sums cancel: the
            # total (2^27 - 1) 2^-53 is in neither half alone
            "halves-that-cancel": np.ldexp([(2**25 + 1) * 2**27 + 5, -(2**52 + 6)], -53),
        }

    @pytest.mark.parametrize("name", [
        "subnormals", "mixed-signs", "whole-exponent-range", "heavy-cancellation",
        "all-zeros", "negative-zeros", "one-element", "one-subnormal", "a-block-of-maxima",
        "a-block-of-squares", "halfway-rounding", "largest-floats", "halves-that-cancel"])
    def test_fixed_cases(self, name):
        x = self._fixed_cases()[name]
        assert_same_float(_exact_sum(x), exact_oracle(x.tolist()))
