"""Tests for threshold calibration.

Oracles used here are independent of the implementation path:

* mpmath quadrature of the posterior-predictive integrals at 30 digits
  (the implementation uses its own float GK15 engine and erfc branches);
* a self-contained numpy rejection-sampling simulation (draw a scale from
  the prior, draw the sample, keep runs whose maximum clears the threshold,
  look at the extra draw);
* values frozen from an offline high-precision run are marked as such.
"""

import math
import pickle
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import two_integral_ce
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcal import calibration
from threshcal.calibration import (
    CalibrationResult,
    ComplianceDecision,
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    calibrate_schedule,
    calibrate_threshold,
    conditional_exceedance,
    evaluate_compliance,
    marginal_exceedance,
    next_exceeds_max_probability,
    threshold_schedule,
)
from threshcal.errors import (
    ConfigurationError,
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    InsufficientDataError,
    IntegrationError,
    SolverError,
)
from threshcal.gaussian import std_normal_quantile

mpmath.mp.dps = 30

DEMO = SafetySpec(q0=1.0, p0=0.01)
DEMO_PRIOR = SigmaPrior.log_uniform(0.01, 10.0)


def mp_conditional_exceedance(q0, threshold, n, sigma_lo, sigma_hi):
    """Posterior-predictive exceedance by arbitrary-precision quadrature."""
    t_lo, t_hi = mpmath.log(sigma_lo), mpmath.log(sigma_hi)
    weight = lambda t: mpmath.ncdf(threshold * mpmath.exp(-t)) ** n
    numer = lambda t: (1 - mpmath.ncdf(q0 * mpmath.exp(-t))) * weight(t)
    panels = mpmath.linspace(t_lo, t_hi, 17)
    return float(mpmath.quad(numer, panels) / mpmath.quad(weight, panels))


def mc_conditional_exceedance(q0, threshold, n, prior, trials, seed):
    """Rejection-sampling estimate: fraction of accepted runs whose extra
    draw exceeds q0.  Returns (estimate, standard_error)."""
    rng = np.random.default_rng(seed)
    kept = 0
    exceed = 0
    chunk = max(1, 4_000_000 // (n + 1))
    remaining = trials
    while remaining > 0:
        m = min(chunk, remaining)
        remaining -= m
        sigma = prior.sample(rng, m)
        z = rng.standard_normal((m, n + 1))
        accepted = z[:, :n].max(axis=1) * sigma <= threshold
        kept += int(accepted.sum())
        exceed += int(((z[:, n] * sigma > q0) & accepted).sum())
    est = exceed / kept
    return est, math.sqrt(est * (1.0 - est) / kept)


class TestNextExceedsMax:
    def test_two_draws(self):
        assert next_exceeds_max_probability(1) == 0.5

    def test_forty(self):
        # the exchangeability law gives 1/41, the ~2.5% danger level
        assert next_exceeds_max_probability(40) == 1.0 / 41.0
        assert next_exceeds_max_probability(40) == pytest.approx(0.02439, abs=5e-6)

    def test_ninety_nine(self):
        assert next_exceeds_max_probability(99) == 0.01

    @given(st.integers(min_value=1, max_value=10**9))
    def test_correctly_rounded(self, n):
        # float product (n+1)*p can land one ulp off 1.0, so the exactness
        # statement is that p is the correctly rounded value of 1/(n+1)
        assert next_exceeds_max_probability(n) == float(Fraction(1, n + 1))

    @pytest.mark.parametrize("n", [5, 40, 99])
    def test_monte_carlo_law(self, n):
        rng = np.random.default_rng(31337 + n)
        trials = 100_000
        z = rng.standard_normal((trials, n + 1))
        freq = float((z[:, n] > z[:, :n].max(axis=1)).mean())
        p = 1.0 / (n + 1)
        band = 4.0 * math.sqrt(p * (1 - p) / trials)
        assert abs(freq - p) <= band

    def test_rejects_zero(self):
        with pytest.raises(DomainError):
            next_exceeds_max_probability(0)


class TestMarginalExceedance:
    def test_threshold_at_mean_limit(self):
        spec = SafetySpec(q0=1e-12, p0=0.01)
        assert marginal_exceedance(spec, 1.0) == pytest.approx(0.5, abs=1e-9)

    def test_definitional_identity(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - DEMO.p0)
        assert marginal_exceedance(DEMO, sigma) == pytest.approx(DEMO.p0, abs=1e-12)

    def test_against_quadrature_oracle(self):
        spec = SafetySpec(q0=2.0, p0=0.01)
        density = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
        expected = float(mpmath.quad(density, [2, mpmath.inf]))
        assert expected == pytest.approx(0.02275013194817921, abs=1e-15)
        assert marginal_exceedance(spec, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_rejects_bad_sigma(self):
        with pytest.raises(DomainError):
            marginal_exceedance(DEMO, 0.0)
        with pytest.raises(DomainError):
            marginal_exceedance(DEMO, -1.0)


class TestConditionalExceedance:
    def test_point_prior_vacuity_grid(self):
        rng = np.random.default_rng(7)
        for sigma in [0.05, 0.3, 1.0, 2.5, 9.0]:
            prior = SigmaPrior.point(sigma)
            expected = marginal_exceedance(DEMO, sigma)
            for _ in range(4):
                threshold = float(rng.uniform(0.05, 3.0))
                n = int(rng.integers(1, 500))
                got = conditional_exceedance(DEMO, threshold, n, prior)
                assert abs(got - expected) <= 1e-10

    def test_mixture_bounds(self):
        val = conditional_exceedance(DEMO, 0.5, 40, DEMO_PRIOR)
        assert 0.0 < val < marginal_exceedance(DEMO, 10.0)

    def test_against_mpmath_oracle(self):
        for threshold, n in [(1.0, 40), (0.5, 40), (2.0, 160)]:
            expected = mp_conditional_exceedance(1.0, threshold, n, 0.01, 10.0)
            got = conditional_exceedance(DEMO, threshold, n, DEMO_PRIOR)
            assert got == pytest.approx(expected, rel=1e-6)

    def test_decreasing_in_n(self):
        values = [conditional_exceedance(DEMO, 0.5, n, DEMO_PRIOR) for n in (10, 40, 160)]
        assert values[0] > values[1] > values[2]

    def test_decreasing_in_n_against_sampling_oracle(self):
        for n in (10, 40):
            quad_val = conditional_exceedance(DEMO, 0.5, n, DEMO_PRIOR)
            est, se = mc_conditional_exceedance(1.0, 0.5, n, DEMO_PRIOR,
                                                trials=400_000, seed=910 + n)
            assert abs(est - quad_val) <= 3.0 * max(se, 1e-12)

    def test_monotone_in_threshold_on_calibration_branch(self):
        for n in (10, 40, 160):
            grid = np.linspace(0.1, 3.0, 25)
            vals = [conditional_exceedance(DEMO, float(t), n, DEMO_PRIOR) for t in grid]
            assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_infeasible_conditioning(self):
        with pytest.raises(InfeasibleConditioningError):
            conditional_exceedance(DEMO, 0.001, 100_000, DEMO_PRIOR)
        with pytest.raises(InfeasibleConditioningError):
            two_integral_ce.conditional_exceedance(DEMO, 0.001, 100_000, DEMO_PRIOR)

    @staticmethod
    def _both(threshold, n, prior):
        """(one-pass, two-integral reference), None where conditioning is infeasible."""
        values = []
        for ce in (conditional_exceedance, two_integral_ce.conditional_exceedance):
            try:
                values.append(ce(DEMO, threshold, n, prior))
            except InfeasibleConditioningError:
                values.append(None)
        return values

    @pytest.mark.parametrize("sigma_lo, sigma_hi", [(0.01, 10.0), (0.01, 1.0), (0.5, 0.6)])
    def test_one_pass_matches_two_integral_reference(self, sigma_lo, sigma_hi):
        prior = SigmaPrior.log_uniform(sigma_lo, sigma_hi)
        compared = 0
        for n in (1, 2, 40, 640, 40960, 1310720):
            for threshold in np.linspace(0.05, 4.0, 16):
                got, expected = self._both(float(threshold), n, prior)
                assert (got is None) == (expected is None), (threshold, n)
                if expected is not None:
                    assert got == pytest.approx(expected, rel=1e-11, abs=0.0), (threshold, n)
                    compared += 1
        assert compared >= 60

    @pytest.mark.parametrize("threshold, n", [(0.0137, 1350), (0.015, 1350), (0.0127, 1400)])
    def test_subnormal_numerator_matches_reference(self, threshold, n):
        # the numerator is below 1e-307 here, so its tolerance underflows to
        # 0: the shared refinement must still reach it rather than split
        # denominator panels until the budget runs out
        got, expected = self._both(threshold, n, DEMO_PRIOR)
        assert 0.0 < expected < 1e-307
        assert got == expected

    def test_threshold_at_or_below_zero_matches_reference(self):
        for threshold in (0.0, -0.5, -3.0, -25.0):
            for n in (1, 40):
                got, expected = self._both(threshold, n, DEMO_PRIOR)
                assert expected is not None
                assert got == pytest.approx(expected, rel=1e-11, abs=0.0), (threshold, n)

    # frozen before the quadrature engine became one loop: (prior, n, threshold, value)
    PINNED = [
        ((0.01, 10.0), 1, 0.75, "0x1.73c1f6007eb8ep-4"),
        ((0.01, 10.0), 2, -0.5, "0x1.5f53779f2fd6dp-2"),
        ((0.01, 10.0), 2, 0.0, "0x1.02feeab00748dp-3"),
        ((0.01, 10.0), 40, 1.0, "0x1.513276076ed74p-10"),
        ((0.01, 10.0), 640, 2.5, "0x1.febe049b63ac2p-8"),
        ((0.01, 10.0), 20480, 1.25, "0x1.51bdf12a28557p-16"),
        ((0.01, 10.0), 1310720, 6.0, "0x1.4de4ee8f79845p-6"),
        ((0.01, 1.0), 1, -1.0, "0x1.8d074d60b29b1p-4"),
        ((0.01, 1.0), 40, 0.3, "0x1.6dbaf23b2d76dp-24"),
        ((0.01, 1.0), 20480, 3.75, "0x1.6e42f70e200e5p-7"),
        ((0.01, 1.0), 1310720, 0.5, "0x1.55d01f55e61e4p-75"),
        ((0.5, 0.6), 1, -0.25, "0x1.1b480fd26d428p-5"),
        ((0.5, 0.6), 2, 1.5, "0x1.19897cd343b28p-5"),
        ((0.5, 0.6), 640, 2.0, "0x1.15a2647001344p-5"),
        ((0.5, 0.6), 1310720, 4.0, "0x1.19b3deed05497p-5"),
    ]

    def test_pair_engine_results_are_pinned(self):
        got = [conditional_exceedance(DEMO, t, n, SigmaPrior.log_uniform(*prior)).hex()
               for prior, n, t, _ in self.PINNED]
        assert got == [h for *_, h in self.PINNED]


class TestCalibrateThreshold:
    def test_point_prior_satisfying_caps(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - 0.005)  # marginal = 0.005 < p0
        result = calibrate_threshold(DEMO, 40, SigmaPrior.point(sigma))
        assert result.capped is True
        assert result.threshold == DEMO.q0
        assert result.achieved == pytest.approx(0.005, abs=1e-12)

    def test_point_prior_violating_is_infeasible(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - 0.05)  # marginal = 0.05 > p0
        with pytest.raises(InfeasibilityError):
            calibrate_threshold(DEMO, 40, SigmaPrior.point(sigma))

    def test_point_prior_uncapped_has_no_finite_solution(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - 0.005)
        with pytest.raises(SolverError):
            calibrate_threshold(DEMO, 40, SigmaPrior.point(sigma), cap_at_q0=False)

    def test_demo_uncapped_fixed_point(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-6)
        assert result.capped is False
        # frozen from an offline high-precision root solve on the oracle CE
        assert result.threshold == pytest.approx(1.799742, abs=1e-3)
        assert conditional_exceedance(DEMO, result.threshold, 40, DEMO_PRIOR) == \
            pytest.approx(DEMO.p0, abs=1e-6)
        assert result.bracket[0] <= result.threshold <= result.bracket[1]
        assert result.iterations > 0

    def test_demo_uncapped_fixed_point_against_sampling_oracle(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-6)
        est, se = mc_conditional_exceedance(1.0, result.threshold, 40, DEMO_PRIOR,
                                            trials=400_000, seed=424242)
        assert abs(est - DEMO.p0) <= 3.0 * se

    def test_demo_capped_at_q0(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=True)
        assert result.capped is True
        assert result.threshold == DEMO.q0
        # a capped result does not search for the root above q0; the
        # uncapped call does.  Default tol=1e-4 lets bisection stop early,
        # so allow the probability tolerance translated through the local
        # CE slope
        uncapped = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False)
        assert uncapped.threshold == pytest.approx(1.799742, abs=0.02)
        assert result.achieved < DEMO.p0

    def test_heavy_tail_prior_is_infeasible(self):
        # almost all prior mass on scales far above q0, too few measurements
        prior = SigmaPrior.log_uniform(5.0, 50.0)
        with pytest.raises(InfeasibilityError) as exc:
            calibrate_threshold(DEMO, 2, prior)
        assert "sigma" in str(exc.value)

    def test_rejects_bad_tol(self):
        with pytest.raises(DomainError):
            calibrate_threshold(DEMO, 40, DEMO_PRIOR, tol=0.0)

    @pytest.mark.parametrize("cap", [True, False])
    @pytest.mark.parametrize("p0", [1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    def test_solution_keeps_its_promise(self, p0, cap):
        # the default tol of 1e-4 is coarse against small p0: the early exit
        # must still only ever stop on a feasible midpoint
        spec = SafetySpec(q0=1.0, p0=p0)
        for n in (40, 80, 640, 40960, 1310720):
            result = calibrate_threshold(spec, n, DEMO_PRIOR, cap_at_q0=cap)
            assert result.achieved <= p0, n
            assert conditional_exceedance(spec, result.threshold, n, DEMO_PRIOR) <= p0, n

    def test_tol_exit_stops_on_the_feasible_side(self):
        spec = SafetySpec(q0=1.0, p0=1e-5)
        result = calibrate_threshold(spec, 80, DEMO_PRIOR, cap_at_q0=False)
        assert result.threshold == 0.5625
        assert 0.0 < result.achieved <= spec.p0
        assert result.bracket[0] == result.threshold


class TestStopReason:
    def test_capped(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=True)
        assert result.stop_reason == "capped"
        assert result.capped is True
        assert (result.threshold, result.iterations, result.bracket) == (DEMO.q0, 0, (1.0, 1.0))

    def test_point_prior_is_capped_with_a_known_uncapped_solution(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - 0.005)
        result = calibrate_threshold(DEMO, 40, SigmaPrior.point(sigma))
        assert result.stop_reason == "capped"
        # the known uncapped solution is "every threshold": no finite root
        with pytest.raises(SolverError):
            calibrate_threshold(DEMO, 40, SigmaPrior.point(sigma), cap_at_q0=False)

    def test_tol(self):
        spec = SafetySpec(q0=1.0, p0=1e-5)
        result = calibrate_threshold(spec, 80, DEMO_PRIOR, cap_at_q0=False)
        assert result.stop_reason == "tol"
        assert spec.p0 - result.achieved <= 1e-4

    def test_resolution(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-15)
        assert result.stop_reason == "resolution"
        assert result.bracket[1] - result.bracket[0] <= 1e-9 * DEMO.q0
        assert result.capped is False

    def test_bisection_cap(self, monkeypatch):
        monkeypatch.setattr(calibration, "_MAX_BISECTIONS", 3)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-15)
        assert result.stop_reason == "bisection_cap"
        assert result.iterations == 3
        assert result.achieved <= DEMO.p0
        assert result.bracket[1] - result.bracket[0] > 1e-9 * DEMO.q0

    def test_default_and_validation(self):
        # stop_reason has no default: every result names why it stopped
        with pytest.raises(TypeError):
            CalibrationResult(threshold=1.0, achieved=0.01, iterations=1, bracket=(1.0, 2.0))
        with pytest.raises(DomainError):
            CalibrationResult(threshold=1.0, achieved=0.01, iterations=1, bracket=(1.0, 2.0),
                              stop_reason="gave_up")


class TestCappedShortcut:
    """A capped row needs only ce(q0): the root above q0 is never published."""

    @staticmethod
    def _count_calls(monkeypatch):
        calls = []
        real = calibration.conditional_exceedance

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration, "conditional_exceedance", counting)
        return calls

    def test_capped_row_makes_one_call(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=True)
        assert result.capped is True
        assert calls == [(DEMO, DEMO.q0, 40, DEMO_PRIOR)]

    def test_capped_schedule_makes_one_call_per_row(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        counts = [40, 80, 160, 320, 640]
        _, results = calibrate_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=True)
        assert all(r.capped for r in results)
        assert len(calls) == len(counts)

    def test_capped_results_equal_their_pickle_copy(self):
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=True)
        _, results = calibrate_schedule(DEMO, DEMO_PRIOR, [40, 80, 160], cap_at_q0=True)
        assert result.capped and all(r.capped for r in results)
        assert pickle.loads(pickle.dumps(result)) == result
        assert pickle.loads(pickle.dumps(results)) == results

    @settings(max_examples=40, deadline=None)
    @given(p0=st.floats(1e-6, 0.2), n=st.integers(1, 2**20))
    def test_capped_rows_hold_and_match_the_uncapped_root(self, p0, n):
        spec = SafetySpec(q0=1.0, p0=p0)
        try:
            capped = calibrate_threshold(spec, n, DEMO_PRIOR, cap_at_q0=True)
        except InfeasibilityError:
            with pytest.raises(InfeasibilityError):
                calibrate_threshold(spec, n, DEMO_PRIOR, cap_at_q0=False)
            return
        try:
            uncapped = calibrate_threshold(spec, n, DEMO_PRIOR, cap_at_q0=False)
        except SolverError:     # the constraint held at every threshold tried
            uncapped = None
        if capped.capped:
            assert capped.achieved == conditional_exceedance(spec, spec.q0, n, DEMO_PRIOR)
            assert capped.achieved <= p0
            assert uncapped is None or uncapped.threshold >= spec.q0
        else:
            assert capped == uncapped
            assert capped.threshold < spec.q0


class TestWarmStart:
    """Uncapped schedule rows resume the doubling where the row before left it."""

    @settings(max_examples=30, deadline=None)
    @given(p0=st.floats(1e-6, 0.2),
           counts=st.sets(st.integers(1, 2**20), min_size=2, max_size=6).map(sorted),
           prior=st.sampled_from([(0.01, 10.0), (0.01, 1.0), (0.5, 0.6)]),
           cap=st.booleans())
    def test_schedule_rows_equal_cold_rows(self, p0, counts, prior, cap):
        spec, prior = SafetySpec(q0=1.0, p0=p0), SigmaPrior.log_uniform(*prior)
        cold, failure = [], None
        for n in counts:
            try:
                cold.append(calibrate_threshold(spec, n, prior, cap_at_q0=cap))
            except (InfeasibilityError, SolverError) as exc:
                failure = type(exc), f"schedule entry n' = {n}: {exc}"
                break
            except (InfeasibleConditioningError, IntegrationError) as exc:
                failure = type(exc), str(exc)
                break
        if failure is None:
            assert calibrate_schedule(spec, prior, counts, cap_at_q0=cap)[1] == tuple(cold)
            return
        with pytest.raises(failure[0]) as exc:
            calibrate_schedule(spec, prior, counts, cap_at_q0=cap)
        assert type(exc.value) is failure[0] and str(exc.value) == failure[1]

    def test_uncapped_demo_schedule_skips_the_proven_doublings(self, monkeypatch):
        calls = TestCappedShortcut._count_calls(monkeypatch)
        counts = [40, 80, 160, 320, 640]
        calibrate_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=False)
        assert len(calls) == 42        # 49 when every row starts at q0
        assert [n for _, t, n, _ in calls if t == DEMO.q0] == [40]

    @pytest.mark.parametrize("warm_start", [1.0, 2.0**10, 2.0**64, 2.0**70, math.inf])
    def test_expansion_limit_counts_from_q0(self, monkeypatch, warm_start):
        # the exceedance stays below p0 at every threshold under this prior
        spec, prior = SafetySpec(q0=1.0, p0=0.1), SigmaPrior.log_uniform(0.5, 0.6)
        with pytest.raises(SolverError) as cold:
            calibrate_threshold(spec, 40, prior, cap_at_q0=False)
        calls = TestCappedShortcut._count_calls(monkeypatch)
        with pytest.raises(SolverError) as warm:
            calibrate_threshold(spec, 40, prior, cap_at_q0=False, warm_start=warm_start)
        assert str(warm.value) == str(cold.value)
        assert str(2.0**calibration._MAX_EXPANSIONS) in str(cold.value)
        assert len(calls) == calibration._MAX_EXPANSIONS - min(math.log2(warm_start), 64)

    @pytest.mark.parametrize("warm_start", [0.5, 1e6])
    def test_unusable_warm_start_gives_the_cold_result(self, warm_start):
        # below q0 it is ignored; 1e6 is not feasible at n = 40, which shows
        # once no midpoint moves the bracket's low end, and the search reruns
        cold = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False)
        assert calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False,
                                   warm_start=warm_start) == cold

    def test_capped_rows_ignore_the_warm_start(self, monkeypatch):
        calls = TestCappedShortcut._count_calls(monkeypatch)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, warm_start=4.0)
        assert result == calibrate_threshold(DEMO, 40, DEMO_PRIOR)
        assert len(calls) == 2


class TestThresholdSchedule:
    def test_singleton_matches_calibrate(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40], cap_at_q0=False, tol=1e-6)
        single = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-6)
        assert rule.n_required == 40
        assert rule.schedule == ((40, single.threshold),)

    def test_demo_schedule_capped(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40, 80, 160, 320, 640])
        ts = [t for _, t in rule.schedule]
        assert all(t <= DEMO.q0 for t in ts)
        assert all(a <= b for a, b in zip(ts, ts[1:]))

    def test_demo_schedule_uncapped_values(self):
        # frozen from an offline high-precision run of the oracle CE roots
        expected = [1.799742, 2.072355, 2.312949, 2.531028, 2.732097]
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40, 80, 160, 320, 640],
                                  cap_at_q0=False, tol=1e-6)
        ts = [t for _, t in rule.schedule]
        assert ts == pytest.approx(expected, abs=2e-3)
        increments = [b - a for a, b in zip(ts, ts[1:])]
        assert all(a > b for a, b in zip(increments, increments[1:]))

    def test_point_prior_constant_schedule(self):
        sigma = DEMO.q0 / std_normal_quantile(1.0 - 0.005)
        rule = threshold_schedule(DEMO, SigmaPrior.point(sigma), [10, 20, 40])
        assert [t for _, t in rule.schedule] == [DEMO.q0] * 3

    def test_error_names_failing_entry(self):
        prior = SigmaPrior.log_uniform(5.0, 50.0)
        with pytest.raises(InfeasibilityError) as exc:
            threshold_schedule(DEMO, prior, [2, 4])
        assert "n' = 2" in str(exc.value)

    def test_rejects_unsorted_n_list(self):
        with pytest.raises(DomainError):
            threshold_schedule(DEMO, DEMO_PRIOR, [40, 40])
        with pytest.raises(DomainError):
            threshold_schedule(DEMO, DEMO_PRIOR, [])

    @pytest.mark.parametrize("cap", [True, False])
    def test_calibrate_schedule_returns_every_row(self, cap):
        counts = [40, 80, 160]
        rule, results = calibrate_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=cap)
        assert rule == threshold_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=cap)
        assert results == tuple(calibrate_threshold(DEMO, n, DEMO_PRIOR, cap_at_q0=cap)
                                for n in counts)
        assert rule.schedule == tuple((n, r.threshold) for n, r in zip(counts, results))

    def test_calibrate_schedule_names_failing_entry(self):
        with pytest.raises(InfeasibilityError) as exc:
            calibrate_schedule(DEMO, SigmaPrior.log_uniform(5.0, 50.0), [2, 4])
        assert "n' = 2" in str(exc.value)


class TestAcceptanceProbability:
    def test_median_single_draw(self):
        assert acceptance_probability(1.0, 0.0, 1) == pytest.approx(0.5, rel=1e-15)

    def test_doubling_squares(self):
        base = acceptance_probability(0.7, 0.9, 35)
        doubled = acceptance_probability(0.7, 0.9, 70)
        assert doubled == pytest.approx(base * base, rel=1e-12)

    def test_reference_value(self):
        expected = float(mpmath.ncdf(mpmath.mpf("3.2")) ** 40)
        assert expected == pytest.approx(0.9729, abs=5e-5)
        assert acceptance_probability(0.25, 0.8, 40) == pytest.approx(expected, rel=1e-12)

    def test_grid_monotonicity(self):
        ns = [1, 5, 25, 125]
        sigmas = [0.2, 0.5, 1.0, 2.0]
        ts = [0.1, 0.5, 1.0, 2.0]
        for s in sigmas:
            for t in ts:
                vals = [acceptance_probability(s, t, n) for n in ns]
                assert all(a >= b for a, b in zip(vals, vals[1:]))
        for n in ns:
            for t in ts:
                vals = [acceptance_probability(s, t, n) for s in sigmas]
                assert all(a >= b for a, b in zip(vals, vals[1:]))
            for s in sigmas:
                vals = [acceptance_probability(s, t, n) for t in ts]
                assert all(a <= b for a, b in zip(vals, vals[1:]))


class TestEvaluateCompliance:
    def _uncapped_rule(self):
        return threshold_schedule(DEMO, DEMO_PRIOR, [40, 80, 160, 320, 640],
                                  cap_at_q0=False)

    def test_far_below_is_safe(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40])
        decision = evaluate_compliance(rule, [-0.5] * 40)
        assert decision.safe is True
        assert decision.applied_n == 40

    def test_above_q0_is_unsafe_under_capped_schedule(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40, 80])
        values = [0.0] * 79 + [DEMO.q0 + 0.1]
        assert evaluate_compliance(rule, values).safe is False

    def test_paradox_in_one_call_pair(self):
        rule = self._uncapped_rule()
        t40 = rule.threshold
        t640 = dict(rule.schedule)[640]
        fixed_rule = StandardRule(schedule=((40, t40),))
        planted = 0.5 * (t40 + t640)  # between the two thresholds
        values = [0.0] * 639 + [planted]
        scheduled = evaluate_compliance(rule, values)
        naive = evaluate_compliance(fixed_rule, values)
        assert scheduled.safe is True
        assert scheduled.applied_n == 640
        assert naive.safe is False
        assert naive.applied_threshold == t40

    def test_fallback_to_largest_tabulated_below(self):
        rule = self._uncapped_rule()
        decision = evaluate_compliance(rule, [0.0] * 100)
        assert decision.applied_n == 80
        assert decision.applied_threshold == dict(rule.schedule)[80]

    def test_insufficient_data(self):
        rule = threshold_schedule(DEMO, DEMO_PRIOR, [40])
        with pytest.raises(InsufficientDataError):
            evaluate_compliance(rule, [0.0] * 39)
        with pytest.raises(InsufficientDataError):
            evaluate_compliance(rule, [])


class TestDomainTypes:
    def test_safety_spec_validation(self):
        with pytest.raises(DomainError):
            SafetySpec(q0=-1.0, p0=0.01)
        with pytest.raises(DomainError):
            SafetySpec(q0=1.0, p0=0.5)
        with pytest.raises(DomainError):
            SafetySpec(q0=1.0, p0=0.0)

    def test_sigma_prior_validation(self):
        with pytest.raises(DomainError):
            SigmaPrior.log_uniform(2.0, 1.0)
        with pytest.raises(DomainError):
            SigmaPrior.log_uniform(1.0, 1.0)  # degenerate range must be a point prior
        with pytest.raises(DomainError):
            SigmaPrior("point", 1.0, 2.0)
        with pytest.raises(DomainError):
            SigmaPrior("gamma", 1.0, 2.0)
        assert SigmaPrior.point(2.0).kind == "point"

    def test_standard_rule_validation(self):
        with pytest.raises(ConfigurationError):
            StandardRule(schedule=((40, 1.0), (30, 1.1)))
        with pytest.raises(ConfigurationError):
            StandardRule(schedule=((40, 1.0), (80, 0.9)))
        # every entry is checked, not only the first
        for schedule in (((40, 1.0), (80, math.nan)),
                         ((40, 1.0), (80, math.inf)),
                         ((40, 1.0), (80.9, 1.1)),
                         ((True, 1.0), (80, 1.1)),
                         ((40, 1.0), (2**40, 1.1))):
            with pytest.raises(ConfigurationError, match="schedule"):
                StandardRule(schedule=schedule)

    def test_calibration_result_validation(self):
        with pytest.raises(DomainError):
            CalibrationResult(threshold=2.0, achieved=0.01, iterations=1,
                              bracket=(0.0, 1.0), stop_reason="tol")

    @pytest.mark.parametrize("make", [
        lambda: SafetySpec(q0="2", p0=0.01),
        lambda: SafetySpec(q0=1.0, p0="0.01"),
        lambda: SafetySpec(q0=10**400, p0=0.01),
        lambda: SafetySpec(q0=True, p0=0.01),
        lambda: SigmaPrior("log_uniform", "0.01", "10"),
        lambda: SigmaPrior.log_uniform(0.01, 10**400),
        lambda: SigmaPrior.point(b"1"),
    ], ids=["q0-str", "p0-str", "q0-huge", "q0-bool", "prior-str", "prior-huge",
            "point-bytes"])
    def test_number_fields_reject_non_numbers(self, make):
        with pytest.raises(DomainError):
            make()

    def test_number_fields_are_stored_as_floats(self):
        spec = SafetySpec(q0=2, p0=np.float64(0.01))
        prior = SigmaPrior("log_uniform", 1, np.float32(30.0))
        assert [type(v) for v in (spec.q0, spec.p0, prior.sigma_lo, prior.sigma_hi)] == [float] * 4
        assert spec == SafetySpec(q0=2.0, p0=0.01)


class TestScheduleCounts:
    @pytest.mark.parametrize("n_list,message", [
        ([80, 40], "n_list must be strictly increasing"),
        ([0, 40], "n_list entry must be >= 1"),
        ([40, 80.0], "n_list entry must be an integer"),
    ])
    def test_calibrate_schedule_rejects_bad_counts(self, n_list, message):
        with pytest.raises(DomainError, match=message):
            calibrate_schedule(DEMO, DEMO_PRIOR, n_list)

    def test_numpy_counts_are_accepted(self):
        rule, _ = calibrate_schedule(DEMO, DEMO_PRIOR, np.array([40, 80]))
        assert [type(n) for n, _ in rule.schedule] == [int, int]
        assert rule == threshold_schedule(DEMO, DEMO_PRIOR, [40, 80])
