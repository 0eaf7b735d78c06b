"""Tests for the Monte Carlo harness.

Closed forms (the 1/(n+1) exchangeability law, acceptance probabilities
Phi(t/sigma)**n, the order-statistic mean integral) serve as oracles for
the simulations, and the simulations in turn cross-check the calibration
quadrature through an independent sampling route.
"""

import itertools
import math
import tracemalloc

import bruteforce
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcal import paradox

from threshcal.calibration import (
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    conditional_exceedance,
    marginal_exceedance,
    threshold_schedule,
)
from threshcal.errors import DomainError, InfeasibleConditioningError
from threshcal.gaussian import (
    SeededStream,
    integrate,
    log_std_normal_cdf,
    std_normal_quantile,
)
from threshcal.paradox import (
    _BLOCK_TRIALS,
    EULER_GAMMA,
    DesignScenario,
    SimulationReport,
    _draw_exceedance_counts,
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
    std_normal_quantile_log,
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

    def test_deterministic_and_one_binomial_draw(self):
        stream = SeededStream(seed=99, stream_index=2)
        trials = _BLOCK_TRIALS + 1_234
        a = simulate_minimal_effort(40, trials, stream)
        b = simulate_minimal_effort(40, trials, stream)
        assert a == b
        # one Binomial(trials, 1/41) draw from stream.generator(), whatever
        # the block plan
        exceed = stream.generator().binomial(trials, -math.expm1(-math.log1p(1 / 40)))
        assert a.estimate == exceed / trials


class TestSimulateCompliance:
    def _scenario(self, rule, n_performed, sigma, seed=5, trials=20_000):
        return DesignScenario(sigma_true=sigma, rule=rule,
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

    def test_rejects_bad_rule_kind(self, uncapped_rule):
        with pytest.raises(DomainError):
            simulate_compliance(self._scenario(uncapped_rule, 40, 1.0), "nearest")

    def test_scenario_validation(self, uncapped_rule):
        with pytest.raises(DomainError):
            DesignScenario(sigma_true=1.0, rule=uncapped_rule,
                           n_performed=39, trials=10, stream=SeededStream(seed=0))
        with pytest.raises(DomainError):
            DesignScenario(sigma_true=-1.0, rule=uncapped_rule,
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
        with pytest.raises(DomainError):
            paradox_curve(0.5, uncapped_rule, [40, 1280],
                          trials=10, stream=SeededStream(seed=0))


@st.composite
def nested_schedules(draw):
    """Up to five counts in [1, 2**36] with non-decreasing thresholds, some
    of them equal to the first."""
    counts = sorted(draw(st.sets(st.integers(1, 2**36), min_size=1, max_size=5)))
    steps = draw(st.lists(st.sampled_from([0.0, 0.01, 0.5, 3.0]),
                          min_size=len(counts) - 1, max_size=len(counts) - 1))
    thresholds = itertools.accumulate([draw(st.floats(-3.0, 5.0)), *steps])
    return StandardRule(tuple(zip(counts, thresholds)))


TRIAL_COUNTS = st.integers(1, 2**36) | st.just(2**36)


class TestNestedCounts:
    @settings(max_examples=60, deadline=None)
    @given(rule=nested_schedules(), sigma=st.floats(0.05, 5.0), trials=TRIAL_COUNTS,
           seed=st.integers(0, 2**64 - 1))
    def test_schedule_reading_never_rejects_more(self, rule, sigma, trials, seed):
        counts = [n for n, _ in rule.schedule]
        points = paradox_curve(sigma, rule, counts, trials, SeededStream(seed, 3))
        for point in points:
            rates = (point.rejection_fixed, point.rejection_schedule)
            fixed, sched = (round(rate * trials) for rate in rates)
            assert (fixed / trials, sched / trials) == rates
            assert 0 <= sched <= fixed <= trials
            if rule.entry_for(point.n_prime)[1] == rule.threshold:
                assert sched == fixed

    @settings(max_examples=60, deadline=None)
    @given(cutoffs=st.lists(st.floats(max_value=0.0, allow_nan=False), min_size=1, max_size=5),
           trials=TRIAL_COUNTS, seed=st.integers(0, 2**64 - 1))
    def test_counts_are_nested_integers_in_input_order(self, cutoffs, trials, seed):
        counts = _draw_exceedance_counts(SeededStream(seed), trials, cutoffs)
        assert all(type(k) is int and 0 <= k <= trials for k in counts)
        for (c, k), (c2, k2) in itertools.product(zip(cutoffs, counts), repeat=2):
            assert c > c2 or k >= k2   # a higher cutoff never counts more


def verify_row_by_recipe(threshold, n, prior, trials, stream, block_trials):
    """(accepted runs, exceeding runs) of estimate_conditional_exceedance,
    drawn by its recipe: the per-cell binomial counts from
    stream.generator(), then the undecided runs in blocks of block_trials
    on stream.child(0) and the runs that may exceed on stream.child(1),
    each decided by the reference rules."""
    edges, low, high, s_lo, s_hi = _screen_table(DEMO.q0, threshold, n, prior)
    cells = low.size
    top = np.minimum(high, 0.0)
    gen = stream.generator()
    in_cell = gen.multinomial(trials, [1.0 / cells] * cells)
    sure = gen.binomial(in_cell, np.exp(low))
    rest = -np.expm1(low)
    band = np.expm1(top) - np.expm1(low)
    undecided = gen.binomial(in_cell - sure, [min(1.0, b / r) if r > 0.0 else 0.0
                                              for b, r in zip(band, rest)])
    sure_exceed = gen.binomial(sure, s_lo)
    maybe = gen.binomial(sure - sure_exceed, np.minimum(1.0, (s_hi - s_lo) / (1.0 - s_lo)))

    def scales(gen, cell):
        if prior.kind == "point":
            return np.full(cell.size, prior.sigma_lo)
        return np.exp(gen.random(cell.size) * (edges[cell + 1] - edges[cell]) + edges[cell])

    kept, exceed = int(sure.sum()), int(sure_exceed.sum())
    cells_of = np.repeat(np.arange(cells), undecided)
    for b, start in enumerate(range(0, cells_of.size, block_trials)):
        cell = cells_of[start:start + block_trials]
        gen = stream.child(0, b).generator()
        # ln U from the exponential law truncated to (low, top]
        log_u = np.log1p(gen.random(cell.size) * -(-np.expm1(low[cell] - top[cell]))) + top[cell]
        peak = std_normal_quantile_log(log_u / n)
        sigma = scales(gen, cell)
        accepted = peak * sigma <= threshold
        kept += int(np.count_nonzero(accepted))
        exceed += int(np.count_nonzero(accepted & (gen.standard_normal(cell.size) * sigma
                                                   > DEMO.q0)))
    cells_of = np.repeat(np.arange(cells), maybe)
    for b, start in enumerate(range(0, cells_of.size, block_trials)):
        cell = cells_of[start:start + block_trials]
        gen = stream.child(1, b).generator()
        sigma = scales(gen, cell)
        v = gen.random(cell.size) * (s_hi - s_lo)[cell] + s_lo[cell]
        exceed += sum(x < marginal_exceedance(DEMO, s) for x, s in zip(v, sigma.tolist()))
    return kept, exceed


class TestEstimateConditionalExceedance:
    def test_agrees_with_quadrature(self):
        quad_val = conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR)
        report = estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR,
                                                 trials=200_000,
                                                 stream=SeededStream(seed=16, stream_index=1))
        assert abs(report.estimate - quad_val) <= 3.0 * report.standard_error
        assert 0 < report.accepted_runs < report.trials

    def test_deterministic_and_follows_block_plan(self, monkeypatch):
        # blocks of 64 trials, so the undecided runs fill several
        monkeypatch.setattr(paradox, "_BLOCK_TRIALS", 64)
        stream = SeededStream(seed=17, stream_index=1)
        trials = 2 * _BLOCK_TRIALS + 777
        # the last prior makes a third of the sure runs exceed for sure
        for prior, threshold in ((DEMO_PRIOR, 1.0), (SigmaPrior.point(0.3), 1.0),
                                 (SigmaPrior.log_uniform(0.5, 5.0), 5.0)):
            a = estimate_conditional_exceedance(DEMO, threshold, 40, prior, trials, stream)
            b = estimate_conditional_exceedance(DEMO, threshold, 40, prior, trials, stream)
            assert a == b
            kept, exceed = verify_row_by_recipe(threshold, 40, prior, trials, stream, 64)
            assert a.accepted_runs == kept
            assert a.estimate == exceed / kept

    def test_impossible_event_raises(self):
        with pytest.raises(InfeasibleConditioningError):
            estimate_conditional_exceedance(DEMO, -10.0, 40, DEMO_PRIOR, trials=1_000,
                                            stream=SeededStream(seed=18, stream_index=1))

    # The bench priors at n' = 2, 32, 40 and 640, at thresholds near their
    # calibrated ones.
    @pytest.mark.parametrize("prior,threshold,n", [
        (SigmaPrior.log_uniform(0.01, 1.0), 1.0, 2),
        (SigmaPrior.log_uniform(0.01, 1.0), 1.0, 32),
        (DEMO_PRIOR, 1.8, 40),
        (DEMO_PRIOR, 2.7, 640),
    ], ids=["few-2", "few-32", "demo-40", "demo-640"])
    def test_law_over_seeds(self, prior, threshold, n):
        # over LAW_SEEDS independent rows, the estimates centre on the
        # quadrature and spread as a binomial proportion over the kept runs
        exact = conditional_exceedance(DEMO, threshold, n, prior)
        reports = [estimate_conditional_exceedance(DEMO, threshold, n, prior, LAW_TRIALS,
                                                   SeededStream(seed, 1))
                   for seed in range(LAW_SEEDS)]
        estimates = np.array([r.estimate for r in reports])
        kept = np.mean([r.accepted_runs for r in reports])
        spread = float(estimates.std(ddof=1))
        assert abs(estimates.mean() - exact) <= 4.0 * spread / math.sqrt(LAW_SEEDS)
        assert 0.9 <= spread / math.sqrt(exact * (1.0 - exact) / kept) <= 1.1


# Rows of test_law_over_seeds: with 600 seeds the spread's own relative
# error is about 3%, so the [0.9, 1.1] band is about 3.4 of them wide.
LAW_SEEDS = 600
LAW_TRIALS = 100_000


# The sampler against the quadrature across the job space: SWEEP_JOBS
# random jobs of SWEEP_TRIALS trials each, job i drawn from and seeded by i.
SWEEP_JOBS = 300
SWEEP_TRIALS = 2_000_000


def sweep_job(index):
    """(spec, threshold, n, prior): q0 log-uniform on [1e-3, 1e3], sigma_lo
    from 1e-4 q0 to 3 q0, one prior in seven a point and the others up to
    1e4 wide, n log-uniform up to 2^20 and the threshold from -q0 to 4 q0."""
    rng = np.random.default_rng(index)
    q0 = 10.0 ** rng.uniform(-3.0, 3.0)
    sigma_lo = q0 * 10.0 ** rng.uniform(-4.0, 0.5)
    prior = (SigmaPrior.point(sigma_lo) if rng.random() < 1 / 7 else
             SigmaPrior.log_uniform(sigma_lo, sigma_lo * 10.0 ** rng.uniform(0.01, 4.0)))
    n = int(2.0 ** rng.uniform(0.0, 20.0))
    return SafetySpec(q0=q0, p0=0.01), q0 * rng.uniform(-1.0, 4.0), n, prior


def prior_acceptance(threshold, n, prior):
    """P(max of n draws <= threshold), averaged over the prior."""
    if prior.kind == "point":
        return acceptance_probability(prior.sigma_lo, threshold, n)
    lo, hi = math.log(prior.sigma_lo), math.log(prior.sigma_hi)
    return integrate(lambda t: acceptance_probability(math.exp(t), threshold, n),
                     lo, hi, rel_tol=1e-6) / (hi - lo)


def test_sampler_agrees_with_quadrature_across_the_job_space():
    # a row's exceeding runs lie within 5 binomial SEs (at the quadrature's
    # value, and at least one run) of kept * ce, or a side that refuses to
    # condition has its documented reason
    outcomes = {"compared": 0, "both refuse": 0, "sampler refuses": 0}
    for index in range(SWEEP_JOBS):
        spec, threshold, n, prior = sweep_job(index)
        try:
            ce = conditional_exceedance(spec, threshold, n, prior)
        except InfeasibleConditioningError as exc:
            assert "has negligible probability" in str(exc)
            ce = None
        try:
            report = estimate_conditional_exceedance(spec, threshold, n, prior, SWEEP_TRIALS,
                                                     SeededStream(seed=index, stream_index=7))
        except InfeasibleConditioningError as exc:
            assert "no accepted runs" in str(exc)
            report = None
        if ce is None:
            # the acceptance probability is below 1e-300: no run can be kept
            assert report is None, index
            outcomes["both refuse"] += 1
        elif report is None:
            # no run kept, which takes an acceptance probability of about
            # 1 / trials or less (30 / trials leaves it e^-30 likely)
            assert prior_acceptance(threshold, n, prior) * SWEEP_TRIALS < 30.0, index
            outcomes["sampler refuses"] += 1
        else:
            kept = report.accepted_runs
            exceeding = round(report.estimate * kept)
            se = max(math.sqrt(kept * ce * (1.0 - ce)), 1.0)
            assert abs(exceeding - kept * ce) <= 5.0 * se, index
            outcomes["compared"] += 1
    assert outcomes["compared"] >= 200 and min(outcomes.values()) >= 10, outcomes


# The screen of estimate_conditional_exceedance: thresholds of both signs,
# 0 and within rounding of 0, counts across the whole range, wide, narrow
# and point priors.  Thresholds whose boundary x = threshold / sigma sits
# on Acklam's branch switches (Phi(x) = 0.02425 and 1 - 0.02425) are given
# as x, for the point prior's sigma.  Under the wide prior, q0 / sigma
# reaches 100, where sf(q0 / sigma) underflows to 0.
SCREEN_THRESHOLDS = [-0.5, -0.05, -1e-15, 0.0, 1e-13, 0.3, 1.0, 2.0, 50.0]
SCREEN_COUNTS = [1, 2, 40, 2**20, 2**36]
SCREEN_PRIORS = {
    "wide": SigmaPrior.log_uniform(0.01, 10.0),
    "unit": SigmaPrior.log_uniform(0.01, 1.0),
    "narrow": SigmaPrior.log_uniform(0.5, 0.6),
    "point": SigmaPrior.point(0.7),
}
# priors reaching below _SCREEN_MIN_SIGMA: one cell, no ln U bound decides
UNSCREENED_PRIORS = {
    "subnormal": SigmaPrior.log_uniform(5e-324, 1e-300),
    "wide-subnormal": SigmaPrior.log_uniform(5e-324, 10.0),
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
    """(kept, exceeding) runs of SCREEN_TRIALS, every run simulated: a scale
    from the prior, the quantile test and a normal extra draw."""
    kept = exceed = 0
    for block, size in enumerate(SCREEN_PLAN):
        gen = stream.child(block).generator()
        if prior.kind == "point":
            sigma = np.full(size, prior.sigma_lo)
        else:
            sigma = np.exp(gen.uniform(math.log(prior.sigma_lo), math.log(prior.sigma_hi), size))
        peak = std_normal_quantile_log(-gen.standard_exponential(size) / n)
        accepted = peak * sigma <= threshold
        kept += int(np.count_nonzero(accepted))
        exceed += int(np.count_nonzero(
            accepted & (gen.standard_normal(size) * sigma > DEMO.q0)))
    return kept, exceed


def screened(threshold, n, prior, stream):
    try:
        report = estimate_conditional_exceedance(DEMO, threshold, n, prior, SCREEN_TRIALS,
                                                 stream)
    except InfeasibleConditioningError:
        return 0, 0
    return report.accepted_runs, round(report.estimate * report.accepted_runs)


def same_proportion(a, b, trials=SCREEN_TRIALS, k=5.0):
    """a and b successes of trials each agree within k standard errors of
    their difference; a pooled rate of 0 or 1 needs a == b."""
    p = (a + b) / (2 * trials)
    return abs(a - b) <= k * math.sqrt(2 * trials * p * (1.0 - p))


def mismatches_with_unscreened(cases, prior, stream):
    """The (threshold, n) cases whose kept or exceeding share differs from
    simulating every run."""
    mismatches = []
    for t, n in cases:
        (kept, exceed), (kept_ref, exceed_ref) = (screened(t, n, prior, stream),
                                                  unscreened(t, n, prior, stream))
        if not (same_proportion(kept, kept_ref) and same_proportion(exceed, exceed_ref)):
            mismatches.append((t, n))
    return mismatches


def cell_scales(edges):
    """(cell, sigma) pairs for every 16th cell and the last: the scales a
    cell's draws can reach, its two edges and the floats a few ulps either
    side (which ln and exp can round a draw to)."""
    ulps = np.arange(-3, 4) * 2.0**-52
    for cell in [*range(0, edges.size - 1, 16), edges.size - 2]:
        for s in (np.exp(edges[cell:cell + 2])[:, None] * (1.0 + ulps)).ravel().tolist():
            yield cell, s


def boundary_trials(threshold, n, edges):
    """(ln U, sigma, cell) triples packed around the acceptance boundary.

    For each of cell_scales, ln U runs over a grid about
    n ln Phi(threshold / sigma), in steps of one ulp (the rounding of the
    test itself), in relative steps of 1e-11 (finer than the gap between
    Acklam's boundary and the true one) and of 1e-6 (across the margin).
    """
    steps = np.concatenate([np.arange(-1000, 1001) * 1e-11, np.arange(-100, 101) * 1e-6])
    ulps_around = np.arange(-64, 65)
    log_u, sigma, cells = [np.empty(0)], [np.empty(0)], [np.empty(0, dtype=int)]
    for cell, s in cell_scales(edges):
        x = threshold / s
        boundary = n * log_std_normal_cdf(x) if math.isfinite(x) else 0.0
        if not -math.inf < boundary < 0.0:
            continue   # every ln U is kept, or none
        grid = np.concatenate([boundary * (1.0 + steps),
                               boundary + ulps_around * np.spacing(boundary)])
        grid = grid[grid < 0.0]   # ln U lies below 0
        log_u.append(grid)
        sigma.append(np.full(grid.size, s))
        cells.append(np.full(grid.size, cell))
    return np.concatenate(log_u), np.concatenate(sigma), np.concatenate(cells)


def table_violations(threshold, n, prior):
    """How often a bound of _screen_table decides otherwise than the
    reference rules: the quantile test for keeping a run (on
    boundary_trials), sf(q0 / sigma) for its next draw exceeding q0 (on
    cell_scales)."""
    edges, low, high, s_lo, s_hi = _screen_table(DEMO.q0, threshold, n, prior)
    log_u, sigma, cell = boundary_trials(threshold, n, edges)
    kept = std_normal_quantile_log(log_u / n) * sigma <= threshold
    wrong = int(np.count_nonzero(((log_u <= low[cell]) & ~kept) | ((log_u > high[cell]) & kept)))
    return wrong + sum(not s_lo[cell] <= marginal_exceedance(DEMO, s) <= s_hi[cell]
                       for cell, s in cell_scales(edges))


class TestAcceptanceScreen:
    """The screen's bounds decide every run as the reference rules would,
    and the thinned row keeps the law of simulating every run."""

    @pytest.mark.parametrize("prior_name", SCREEN_PRIORS)
    def test_matches_unscreened_estimate(self, prior_name):
        prior = SCREEN_PRIORS[prior_name]
        stream = SeededStream(seed=51, stream_index=1)
        assert mismatches_with_unscreened(screen_cases(prior_name), prior, stream) == []

    @pytest.mark.parametrize("prior_name", [*SCREEN_PRIORS, *UNSCREENED_PRIORS])
    def test_matches_quantile_at_the_boundary(self, prior_name):
        prior = {**SCREEN_PRIORS, **UNSCREENED_PRIORS}[prior_name]
        cases = screen_cases(prior_name) if prior_name in SCREEN_PRIORS else [
            (t, n) for t in (0.0, 5e-324, -5e-324, 1e-305, 1.0) for n in SCREEN_COUNTS]
        assert [(t, n) for t, n in cases if table_violations(t, n, prior)] == []

    def test_matches_unscreened_estimate_at_subnormal_scales(self):
        # peak * sigma rounds to subnormals here, where rounding is absolute
        prior = UNSCREENED_PRIORS["subnormal"]
        stream = SeededStream(seed=54, stream_index=1)
        cases = [(t, n) for t in (0.0, 5e-324, -5e-324, 1e-305) for n in (1, 40)]
        assert mismatches_with_unscreened(cases, prior, stream) == []

    @pytest.mark.parametrize("prior_name", SCREEN_PRIORS)
    def test_quantile_runs_on_under_one_percent(self, prior_name, monkeypatch):
        prior = SCREEN_PRIORS[prior_name]
        evaluated = []
        quantile = paradox._quantile_log_in_place

        def counting_quantile(log_p):
            evaluated.append(log_p.size)
            return quantile(log_p)

        monkeypatch.setattr(paradox, "_quantile_log_in_place", counting_quantile)
        for t in (-0.05, 0.3, 1.0):
            evaluated.clear()
            estimate_conditional_exceedance(DEMO, t, 1, prior, SCREEN_TRIALS,
                                            SeededStream(seed=52, stream_index=1))
            assert sum(evaluated) <= 0.01 * SCREEN_TRIALS


# tracemalloc peak of one _BLOCK_TRIALS block, in MiB: the value measured
# with numpy 2.4 (in parentheses) plus about 10%, except that the mean of
# the maximum of n draws keeps one bound at every n (n = 40 where the name
# gives none).  A verify row of that
# many trials simulates only its undecided runs, a few hundred, except
# under a prior too small to screen, where every run is undecided.  Minimal
# effort and the fixed-scale counts draw no trials, so their bound is a
# small constant, far below one block's arrays (0.5 MiB per float array).
BLOCK_PEAK_MIB = {
    "estimate_conditional_exceedance": 0.055,   # (0.050)
    "estimate_conditional_exceedance-point": 0.019,   # (0.017)
    "estimate_conditional_exceedance-undecided": 1.65,   # (1.51)
    "simulate_minimal_effort": 0.05,   # (0.002)
    "simulate_compliance-fixed_sigma": 0.05,   # (0.002)
    "paradox_curve": 0.05,   # (0.002)
    "expected_max_monte_carlo": 0.95,   # (0.85)
    "expected_max_monte_carlo-n=1": 0.95,   # (0.85)
    "expected_max_monte_carlo-n=2": 0.95,   # (0.85)
    "expected_max_monte_carlo-n=1000": 0.95,   # (0.78)
}


def one_block_calls(rule):
    """Per name of BLOCK_PEAK_MIB, a call that runs one _BLOCK_TRIALS block."""
    stream = SeededStream(seed=53, stream_index=1)

    scenario = DesignScenario(sigma_true=1.0, rule=rule, n_performed=40,
                              trials=_BLOCK_TRIALS, stream=stream)

    def exceedance(prior):
        return lambda: estimate_conditional_exceedance(DEMO, 1.0, 40, prior,
                                                       _BLOCK_TRIALS, stream)

    def expected_max(n):
        return lambda: expected_max_monte_carlo(n, 1.0, _BLOCK_TRIALS, stream)

    return {
        "estimate_conditional_exceedance": exceedance(DEMO_PRIOR),
        "estimate_conditional_exceedance-point": exceedance(SigmaPrior.point(0.3)),
        # below _SCREEN_MIN_SIGMA nothing is screened: a full block of undecided runs
        "estimate_conditional_exceedance-undecided": exceedance(
            SigmaPrior.log_uniform(5e-324, 1e-300)),
        "simulate_minimal_effort": lambda: simulate_minimal_effort(40, _BLOCK_TRIALS, stream),
        "simulate_compliance-fixed_sigma": lambda: simulate_compliance(scenario, "schedule"),
        "paradox_curve": lambda: paradox_curve(1.0, rule, [40],
                                               _BLOCK_TRIALS, stream),
        # the quantile's minority branches: deferred (n = 1, 2), run with
        # each slice (40), or empty (1000)
        "expected_max_monte_carlo": expected_max(40),
        "expected_max_monte_carlo-n=1": expected_max(1),
        "expected_max_monte_carlo-n=2": expected_max(2),
        "expected_max_monte_carlo-n=1000": expected_max(1000),
    }


class TestBlockMemory:
    def test_verify_row_memory_does_not_grow_with_trials(self):
        # 2**30 trials: about 4.2e6 undecided runs in 65 blocks and 1e5 that
        # may exceed in 2, one block at a time
        stream = SeededStream(seed=55, stream_index=1)
        estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR, _BLOCK_TRIALS, stream)
        tracemalloc.start()
        try:
            report = estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR, 2**30, stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.trials == 2**30
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("name", BLOCK_PEAK_MIB)
    def test_block_peak_stays_bounded(self, name, wide_rule):
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
        n = 100
        integrand = lambda x: (n * x * mpmath.npdf(x) * mpmath.ncdf(x) ** (n - 1))
        with mpmath.workdps(25):
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
            draws = stream.child(block).generator().standard_exponential(size)
            m = std_normal_quantile_log(-draws / 100)
            sums.append(np.sum(m))
            squares.append(np.sum(m * m))
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
        for n in (1, 640, 10**6):
            log_u = _log_uniform(_ZeroExponentials(), 4, n)
            assert np.all(log_u < 0.0)
            assert np.all(np.isfinite(std_normal_quantile_log(log_u)))


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
            scenario = DesignScenario(sigma_true=sigma, rule=wide_rule,
                                      n_performed=n, trials=LIBRARY_TRIALS,
                                      stream=SeededStream(seed=32, stream_index=3))
            report = simulate_compliance(scenario, kind)
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
            # the share the fixed threshold rejects and the scheduled one
            # accepts: the brute force scores both on the same samples
            gap, oracle_gap = p.rejection_fixed - p.rejection_schedule, fixed.value - sched.value
            assert agree(gap, binomial_se(gap, LIBRARY_TRIALS), bruteforce.Estimate(
                oracle_gap, binomial_se(oracle_gap, BRUTE_TRIALS)))

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


# Four blocks, the last one partial.
PLAN_TRIALS = 3 * _BLOCK_TRIALS + 777
PLAN_BLOCKS = 4


def every_entry_point(rule):
    """Call every Monte Carlo entry point at PLAN_TRIALS."""
    stream = SeededStream(seed=41, stream_index=1)
    simulate_minimal_effort(40, PLAN_TRIALS, stream)
    for kind in ("fixed_threshold", "schedule"):
        scenario = DesignScenario(sigma_true=1.0, rule=rule, n_performed=40,
                                  trials=PLAN_TRIALS, stream=stream)
        simulate_compliance(scenario, kind)
    paradox_curve(1.0, rule, [2, 40, 640], PLAN_TRIALS, stream)
    estimate_conditional_exceedance(DEMO, 1.0, 40, DEMO_PRIOR, PLAN_TRIALS, stream)
    expected_max_monte_carlo(40, 1.5, PLAN_TRIALS, stream)


@st.composite
def cells_near_block_edges(draw):
    """A block size and cell counts whose cell edges fall on, just before or
    just after a block edge; repeated edges make cells of no trials."""
    block = draw(st.integers(1, 8))
    edge = st.builds(lambda k, d: max(0, k * block + d),
                     st.integers(0, 6), st.sampled_from([-1, 0, 1]))
    edges = sorted(draw(st.lists(edge, min_size=1, max_size=10)))
    return block, np.diff([0, *edges]).tolist()


class _BlockFailure(Exception):
    pass


def block_index(stream, blocks=PLAN_BLOCKS):
    """Block index by the first draw of the block's generator."""
    return {stream.child(b).generator().random(): b for b in range(blocks)}


class TestWorkerCountInvariance:
    """_map_blocks runs the block plan on one worker, the calling thread: its
    results and the first failing block's exception are those of a plain
    loop over the blocks, in block order."""

    @pytest.mark.parametrize("full_blocks", [1, 2, 3])
    def test_results_come_back_in_block_order(self, full_blocks):
        stream = SeededStream(seed=42)
        index = block_index(stream, full_blocks + 1)
        trials = full_blocks * _BLOCK_TRIALS + 777
        assert _map_blocks(stream, [trials],
                           lambda gen, _, size: (index[gen.random()], size)) == [
            *((b, _BLOCK_TRIALS) for b in range(full_blocks)), (full_blocks, 777)]

    @pytest.mark.parametrize("stream_index", [1, 2, 3])
    @settings(max_examples=150, deadline=None)
    @given(cells=cells_near_block_edges())
    def test_block_counts_split_the_cells(self, stream_index, cells):
        block, counts = cells
        stream = SeededStream(seed=45, stream_index=stream_index)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(paradox, "_BLOCK_TRIALS", block)
            parts = _map_blocks(stream, counts, lambda gen, block_counts, size: (
                gen.random(), block_counts.tolist(), size))
        total = sum(counts)
        assert [size for _, _, size in parts] == [
            min(block, total - start) for start in range(0, total, block)]
        assert all(sum(block_counts) == size for _, block_counts, size in parts)
        # the trials lie cell after cell: the blocks' cell labels, read in
        # block order, are the cells' labels in order
        assert [cell for _, block_counts, _ in parts
                for cell, count in enumerate(block_counts) for _ in range(count)] == [
            cell for cell, count in enumerate(counts) for _ in range(count)]
        assert [draw for draw, _, _ in parts] == [
            stream.child(b).generator().random() for b in range(len(parts))]

    @pytest.mark.parametrize("full_blocks", [1, 2, 3])
    @pytest.mark.parametrize("failing", [(1,), (1, 2), (1, 3)])
    def test_failing_block_raises_its_own_exception(self, failing, full_blocks):
        # the first failing block's exception; no later block runs
        stream = SeededStream(seed=42)
        index = block_index(stream, full_blocks + 1)
        ran = []

        def block(gen, _, size):
            b = index[gen.random()]
            if b in failing:
                raise _BlockFailure(b)
            ran.append(b)
            return (b,)

        with pytest.raises(_BlockFailure) as exc:
            _map_blocks(stream, [full_blocks * _BLOCK_TRIALS + 777], block)
        assert exc.value.args == (1,)
        assert ran == [0]


class TestBlockPlan:
    """Every Monte Carlo entry point makes its generators in block order."""

    def test_generators_are_made_in_block_order(self, wide_rule, monkeypatch):
        calls = []
        make_generator = SeededStream.generator

        def generator(stream):
            calls.append(stream.path)
            return make_generator(stream)

        monkeypatch.setattr(SeededStream, "generator", generator)
        every_entry_point(wide_rule)
        # minimal effort, the two compliance simulations and the three
        # curve rows make one generator each, row r on stream.child(r); the
        # verify row makes one for its counts, then its undecided blocks on
        # stream.child(0) and the blocks of runs that may exceed on
        # stream.child(1); expected-max runs the block plan
        plan = [(b,) for b in range(PLAN_BLOCKS)]
        verify = calls[6:-len(plan)]
        undecided = sum(path[:1] == (0,) for path in verify)
        maybe = len(verify) - 1 - undecided
        assert undecided >= 1
        assert calls == (
            [()] * 3 + [(r,) for r in range(3)]
            + [()] + [(0, b) for b in range(undecided)]
            + [(1, b) for b in range(maybe)] + plan)
