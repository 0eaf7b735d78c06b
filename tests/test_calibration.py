"""Tests for threshold calibration.

Oracles used here are independent of the implementation path:

* mpmath quadrature of the posterior-predictive integrals at 30 digits
  (the implementation uses its own float GK15 engine and erfc branches),
  on uniform panels over a narrow prior, and over any prior on panels
  placed where the integrands live (tests/bump_oracle.py);
* a self-contained numpy rejection-sampling simulation (draw a scale from
  the prior, draw the sample, keep runs whose maximum clears the threshold,
  look at the extra draw);
* values frozen from an offline high-precision run are marked as such.
"""

import math
import pickle
import sys
from fractions import Fraction

import bump_oracle
import mpmath
import numpy as np
import pytest
import two_integral_ce
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from threshcal import calibration
from threshcal.calibration import (
    CalibrationResult,
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    calibrate_schedule,
    calibrate_threshold,
    conditional_exceedance,
    marginal_exceedance,
    next_exceeds_max_probability,
    threshold_schedule,
)
from threshcal.errors import (
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    IntegrationError,
    SolverError,
)
from threshcal.gaussian import median_of_max, std_normal_quantile

# Working precision of the mpmath oracles, set inside each one so that no
# test module's choice leaks into another's.
ORACLE_DPS = 30

DEMO = SafetySpec(q0=1.0, p0=0.01)
DEMO_PRIOR = SigmaPrior.log_uniform(0.01, 10.0)


@mpmath.workdps(ORACLE_DPS)
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
        sigma = np.exp(rng.uniform(math.log(prior.sigma_lo), math.log(prior.sigma_hi), m))
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
        with mpmath.workdps(ORACLE_DPS):
            expected = float(mpmath.quad(density, [2, mpmath.inf]))
        assert expected == pytest.approx(0.02275013194817921, abs=1e-15)
        assert marginal_exceedance(spec, 1.0) == pytest.approx(expected, rel=1e-12)

    def test_zero_where_q0_over_sigma_overflows(self):
        assert marginal_exceedance(DEMO, 1e-320) == 0.0
        assert marginal_exceedance(SafetySpec(q0=1e300, p0=0.01), 1e-10) == 0.0

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

    # (q0, threshold, n, sigma_lo, sigma_hi) on priors 60 to 600 decades wide;
    # 17 uniform panels over the first miss its value by 15%
    WIDE_PRIOR_POINTS = [(1.0, 0.5, 2**20, 1e-300, 1e300), (1.0, 3.0, 40, 1e-200, 1e50),
                         (1e100, 2e100, 1000, 1e-200, 1e200)]

    def test_against_mpmath_oracle(self):
        for threshold, n in [(1.0, 40), (0.5, 40), (2.0, 160)]:
            expected = mp_conditional_exceedance(1.0, threshold, n, 0.01, 10.0)
            got = conditional_exceedance(DEMO, threshold, n, DEMO_PRIOR)
            assert got == pytest.approx(expected, rel=1e-6, abs=0.0)
        for q0, threshold, n, sigma_lo, sigma_hi in self.WIDE_PRIOR_POINTS:
            expected = bump_oracle.conditional_exceedance(q0, threshold, n, sigma_lo, sigma_hi)
            got = conditional_exceedance(SafetySpec(q0=q0, p0=0.01), threshold, n,
                                         SigmaPrior.log_uniform(sigma_lo, sigma_hi))
            assert got == pytest.approx(expected, rel=1e-6, abs=0.0)

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

    @pytest.mark.parametrize("cap", [True, False])
    def test_unconditionable_halving_probe_ends_the_search(self, monkeypatch, cap):
        # infeasible from q0 down to q0 / 4, and too rare to condition on
        # below: the halving stops at q0 / 8 and no threshold is feasible
        probed = []

        def probe(spec, threshold, n, prior, **cuts):
            probed.append(threshold)
            if threshold < DEMO.q0 / 4:
                raise InfeasibleConditioningError("negligible")
            return math.inf

        monkeypatch.setattr(calibration, "conditional_exceedance", probe)
        with pytest.raises(InfeasibilityError, match="for every threshold below q0 = 1.0"):
            calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=cap)
        assert probed == [1.0, 0.5, 0.25, 0.125]

    def test_unconditionable_doubling_probe_is_taken_as_feasible(self, monkeypatch):
        # too rare to condition on up to 2 q0, feasible at 4 q0 and
        # infeasible from 8 q0: the doubling goes on past q0 and 2 q0 alike
        probed = []

        def probe(spec, threshold, n, prior, **cuts):
            probed.append(threshold)
            if threshold <= 2 * DEMO.q0:
                raise InfeasibleConditioningError("negligible")
            return math.inf if threshold >= 8 * DEMO.q0 else DEMO.p0 - 5e-5

        monkeypatch.setattr(calibration, "conditional_exceedance", probe)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False)
        assert probed == [1.0, 2.0, 4.0, 8.0, 6.0]
        assert (result.threshold, result.stop_reason) == (6.0, "tol")

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
        """Each conditional_exceedance call's positional arguments, then its
        cuts `above` and `below` (None for a side that never settles)."""
        calls = []
        real = calibration.conditional_exceedance

        def counting(*args, **kwargs):
            calls.append((*args, kwargs.get("above"), kwargs.get("below")))
            return real(*args, **kwargs)

        monkeypatch.setattr(calibration, "conditional_exceedance", counting)
        return calls

    def test_capped_row_makes_one_call(self, monkeypatch):
        calls = self._count_calls(monkeypatch)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=True)
        assert result.capped is True
        # a value above p0 would be discarded, so q0's probe may settle there
        assert calls == [(DEMO, DEMO.q0, 40, DEMO_PRIOR, DEMO.p0, None)]

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
    """Uncapped schedule rows resume the doubling where the row before left
    it, and take every probe at or above an infeasible guess as infeasible."""

    # Each row must equal its cold row.  Beyond the proven warm start, that
    # rests on the exceedance rising with the threshold above the previous
    # row's threshold, which this property checks: the guess's skips are
    # sound only where it holds.
    @settings(max_examples=30, deadline=None)
    @given(p0=st.floats(1e-6, 0.2),
           counts=st.sets(st.integers(1, 2**20), min_size=2, max_size=6).map(sorted),
           prior=st.sampled_from([(0.01, 10.0), (0.01, 1.0), (0.5, 0.6), (1e-3, 1e3),
                                  (0.1, 100.0)]),
           cap=st.booleans())
    # at 29739, q0 raises InfeasibleConditioningError; the warm-started row
    # never evaluates it, and the cold one doubles on past it
    @example(p0=0.03125, counts=[63, 29739], prior=(0.5, 0.6), cap=False)
    # after a row at n = 1 there is no guess: z(1) = 0
    @example(p0=0.125, counts=[1, 2], prior=(0.01, 10.0), cap=False)
    # at 258738 and 687007 the doubling probe 2.0 raises InfeasibleConditioningError;
    # the warm rows skip it, and the cold ones double on past it, as past q0
    @example(p0=0.11180534767791545, counts=[2532, 258738, 687007],
             prior=(0.7984650369309796, 1.490543595831068), cap=False)
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
        # 42 without the guesses, 49 when every row starts at q0
        assert len(calls) == 31
        assert [n for _, t, n, *_ in calls if t == DEMO.q0] == [40]
        # uncapped, q0's probe too is only compared with p0; a bisection
        # probe also with p0 - tol, where the search ends
        assert {above for *_, above, _ in calls} == {DEMO.p0}
        assert {below for *_, below in calls} == {DEMO.p0, DEMO.p0 - 1e-4}

    @staticmethod
    def _guesses(rows, counts):
        """Each warm row's guess, keyed by its count, from the rows before."""
        return {n: calibration._GUESS_MARGIN * row.threshold * median_of_max(n)
                / median_of_max(n_prev)
                for n_prev, n, row in zip(counts, counts[1:], rows)}

    def test_no_probe_at_or_above_an_infeasible_guess(self, monkeypatch):
        counts = [40, 80, 160, 320, 640]
        rows = [calibrate_threshold(DEMO, n, DEMO_PRIOR, cap_at_q0=False) for n in counts]
        guesses = self._guesses(rows, counts)
        calls = TestCappedShortcut._count_calls(monkeypatch)
        assert calibrate_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=False)[1] == tuple(rows)
        for n, guess in guesses.items():
            assert conditional_exceedance(DEMO, guess, n, DEMO_PRIOR) > DEMO.p0
            assert [t for _, t, m, *_ in calls if m == n and t >= guess] == [guess]

    @pytest.mark.parametrize("error", [
        IntegrationError("budget exhausted", estimate=(1.0, 1.0), error_bound=(1.0, 1.0)),
        InfeasibleConditioningError("negligible probability")])
    def test_a_guess_whose_probe_raises_is_dropped(self, monkeypatch, error):
        counts = [40, 80, 160, 320, 640]
        rows = [calibrate_threshold(DEMO, n, DEMO_PRIOR, cap_at_q0=False) for n in counts]
        guesses = set(self._guesses(rows, counts).items())
        raised = []
        real = calibration.conditional_exceedance

        def failing(spec, threshold, n, *args, **kwargs):
            if (n, threshold) in guesses:
                raised.append(n)
                raise error
            return real(spec, threshold, n, *args, **kwargs)

        monkeypatch.setattr(calibration, "conditional_exceedance", failing)
        assert calibrate_schedule(DEMO, DEMO_PRIOR, counts, cap_at_q0=False)[1] == tuple(rows)
        assert raised == counts[1:]

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


# p0 log-uniform over the normal floats up to 0.2
LOG_P0 = st.floats(math.log10(sys.float_info.min), math.log10(0.2)).map(lambda e: 10.0 ** e)
# the job fields a job file accepts, log-uniform over their whole range
JOB_Q0 = st.floats(-307.0, 308.0).map(lambda e: 10.0 ** e)
JOB_P0 = st.floats(math.log10(sys.float_info.min), math.log10(0.5),
                   exclude_max=True).map(lambda e: 10.0 ** e)
JOB_SIGMA = st.floats(math.log10(6e-309), 308.0).map(lambda e: 10.0 ** e)
JOB_TOL = st.floats(-15.0, math.log10(0.4)).map(lambda e: 10.0 ** e)
# the errors the command line maps to its documented exit codes
DOCUMENTED_ERRORS = (DomainError, InfeasibilityError, InfeasibleConditioningError,
                     IntegrationError, SolverError)


# an uncapped n = 1820 job with the prior log_uniform(3.5e10, 1e308), as
# TestSettledProbes.test_schedule_equals_full_tolerance_probes draws it
GRID_MISS_JOB = dict(lo=math.log10(3.5e10 / 1.7e308), decades=math.log10(1e308 / 3.5e10),
                     counts=[1820], cap=False, tol=1e-4)
# the uncapped demo schedule, as the same property draws it
DEMO_JOB = dict(q0=1.0, p0=0.01, lo=-2.0, decades=3.0, counts=[40, 80, 160, 320, 640],
                cap=False)


class TestSettledProbes:
    """A probe compared only with cuts (p0, and p0 - tol for a bisection
    probe) stops its quadrature once its error estimates, widened
    _SETTLE_MARGIN times, put the exceedance on one side of a cut; no
    published value, diagnostic or error moves."""

    @staticmethod
    def _schedule(spec, prior, counts, cap, tol=1e-4):
        """calibrate_schedule's rule and rows, or its error's type and message."""
        try:
            return calibrate_schedule(spec, prior, counts, cap_at_q0=cap, tol=tol)
        except (DomainError, InfeasibilityError, InfeasibleConditioningError,
                IntegrationError, SolverError) as exc:
            return type(exc), str(exc)

    def _settled_and_full(self, spec, prior, counts, cap, tol=1e-4):
        """_schedule as it runs, and with every probe to full tolerance."""
        settled = self._schedule(spec, prior, counts, cap, tol)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(calibration, "_SETTLE_MARGIN", math.inf)   # never settles
            full = self._schedule(spec, prior, counts, cap, tol)
        return settled, full

    @settings(max_examples=60, deadline=None)
    @given(q0=st.floats(1e-3, 1e3), p0=st.one_of(LOG_P0, st.just(5e-324)),
           lo=st.floats(-4.0, 1.0), decades=st.floats(0.01, 4.0),
           counts=st.sets(st.integers(1, 2**20), min_size=1, max_size=5).map(sorted),
           cap=st.booleans(),
           tol=st.floats(-15.0, math.log10(0.4)).map(lambda e: 10.0 ** e))
    # the initial grid misses this job's numerator at thresholds near 1e307,
    # where a split weight fixed on that grid ran the full quadrature out of
    # budget: at every p0 a probe there must reach the full one's verdict
    @example(q0=1.7e308, p0=5e-324, **GRID_MISS_JOB)
    @example(q0=1.7e308, p0=sys.float_info.min, **GRID_MISS_JOB)
    @example(q0=1.7e308, p0=1e-300, **GRID_MISS_JOB)
    @example(q0=1.7e308, p0=1e-200, **GRID_MISS_JOB)
    # the lower cut p0 - tol: dropped at tol == p0, one ulp of p0 when tol is
    # one ulp below it, and below every value (rows end on resolution) at 1e-15
    @example(**DEMO_JOB, tol=0.01)
    @example(**DEMO_JOB, tol=math.nextafter(0.01, 0.0))
    @example(**DEMO_JOB, tol=1e-15)
    def test_schedule_equals_full_tolerance_probes(self, q0, p0, lo, decades, counts, cap, tol):
        spec = SafetySpec(q0=q0, p0=p0)
        sigma_lo = q0 * 10.0 ** lo
        prior = SigmaPrior.log_uniform(sigma_lo, sigma_lo * 10.0 ** decades)
        settled, full = self._settled_and_full(spec, prior, counts, cap, tol)
        assert settled == full

    @settings(max_examples=100, deadline=None)
    @given(q0=JOB_Q0, p0=JOB_P0, ends=st.tuples(JOB_SIGMA, JOB_SIGMA),
           counts=st.sets(st.integers(1, 2**20), min_size=1, max_size=2).map(sorted),
           cap=st.booleans(), tol=JOB_TOL)
    # jobs with a probe whose running totals rounding can wipe out: the
    # second settles below p0 where integrate ends refinement on running
    # totals without asking again on exact sums, and the other two did so
    # where a re-key of the split weight kept the running totals
    @example(q0=1.9601452791047444e214, p0=4.53666158376848e-90,
             ends=(4.291245239755969e-134, 1.0122354623675289e241), counts=[493296, 892221],
             cap=True, tol=2.297714702976261e-10)
    @example(q0=7.685658411751e77, p0=2.2230404358726787e-190,
             ends=(1.9431043935754626e-39, 2.29022594580601e87), counts=[17177, 536461],
             cap=False, tol=6.845596396033656e-05)
    @example(q0=4.392025073907438e48, p0=4.54489562463556e-208,
             ends=(6.996642537170008e-65, 2.2219811429051513e303), counts=[210853],
             cap=False, tol=0.29511675428859435)
    def test_schedule_equals_full_tolerance_probes_over_the_job_range(self, q0, p0, ends, counts,
                                                                     cap, tol):
        assume(ends[0] != ends[1])
        spec = SafetySpec(q0=q0, p0=p0)
        prior = SigmaPrior.log_uniform(*sorted(ends))
        settled, full = self._settled_and_full(spec, prior, counts, cap, tol)
        assert settled == full

    @pytest.mark.parametrize("q0, p0, sigma_lo, sigma_hi, threshold, n, value", [
        (1.9601452791047444e214, 4.53666158376848e-90, 4.291245239755969e-134,
         1.0122354623675289e241, 5.512908597482093e213, 493296, 4.46e-57),
        (7.685658411751e77, 2.2230404358726787e-190, 1.9431043935754626e-39,
         2.29022594580601e87, 1.0807957141524844e77, 536461, 1.32e-181),
    ])
    def test_rounding_does_not_settle_a_probe_below_p0(self, q0, p0, sigma_lo, sigma_hi,
                                                        threshold, n, value):
        # after a split, the running N and eN can hold only the rounding of
        # a large panel that was split (on the second probe they read
        # -1.9e-267 and -3.9e-267), which puts the value below p0; summed
        # exactly, the totals keep it above
        spec, prior = SafetySpec(q0=q0, p0=p0), SigmaPrior.log_uniform(sigma_lo, sigma_hi)
        full = conditional_exceedance(spec, threshold, n, prior)
        assert full > p0 and full == pytest.approx(value, rel=1e-2, abs=0.0)
        assert conditional_exceedance(spec, threshold, n, prior, above=p0, below=p0) == math.inf

    def test_a_grid_that_overestimates_n_finds_the_job_infeasible(self):
        # at threshold q0 / 4 the initial grid overestimates N 1e13 times; the
        # split weight follows the totals, so the full quadrature converges,
        # and the bump oracle agrees that q0, q0 / 2 and q0 / 4 (2.9e-8,
        # 5.3e-22, 5.7e-69) lie above p0 = 6.5e-158 and q0 / 8 is too rare
        # to condition on
        spec = SafetySpec(q0=7.479403722609009e-196, p0=6.488583800185976e-158)
        prior = SigmaPrior.log_uniform(2.684980109437552e-197, 7.97304619507821e268)
        settled, full = self._settled_and_full(spec, prior, [807051], True)
        assert settled == full and settled[0] is InfeasibilityError

    def test_a_grid_that_misses_n_publishes_the_oracle_value(self):
        # at the halving probe 29.72 the initial grid sees N / D = 1.4e-286,
        # far below p0, with eN = N: the nodes missed most of N, whose full
        # quadrature finds 1e52 times more; the probe must not settle below
        # p0 on the grid's view, and the published row matches the oracle
        spec = SafetySpec(q0=237.78851830727578, p0=6.217995042921271e-90)
        ends = (8.555287478608488e-49, 1.2234461400584793e+30)
        settled, full = self._settled_and_full(spec, SigmaPrior.log_uniform(*ends), [873402],
                                               False, spec.p0)
        assert settled == full
        (row,) = settled[1]
        assert f"{row.threshold:.12g}" == "44.5853471826"
        oracle = bump_oracle.conditional_exceedance(spec.q0, row.threshold, 873402, *ends)
        assert row.achieved == pytest.approx(oracle, rel=1e-9, abs=0.0)

    def test_a_settled_lo_is_published_at_full_tolerance(self, monkeypatch):
        # one bisection step: the midpoint 1.5 is feasible but not within tol
        # of p0, so its probe settles and the row stops on bisection_cap
        monkeypatch.setattr(calibration, "_MAX_BISECTIONS", 1)
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False)
        with monkeypatch.context() as patch:
            patch.setattr(calibration, "_SETTLE_MARGIN", math.inf)
            full = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False)
        assert result.stop_reason == "bisection_cap" and result == full
        assert result.achieved.hex() == full.achieved.hex()
        settled = conditional_exceedance(DEMO, result.threshold, 40, DEMO_PRIOR,
                                         above=DEMO.p0, below=DEMO.p0 - 1e-4)
        assert settled == -math.inf

    @pytest.mark.parametrize("tol", [1e-4, 1e-9, 1e-15])
    @pytest.mark.parametrize("cap", [True, False])
    @pytest.mark.parametrize("p0", [1e-2, 1e-3, 1e-5])
    def test_a_final_value_is_not_probed_again(self, monkeypatch, p0, cap, tol):
        # a finite probe value is final, so no row (each has its own count)
        # integrates that threshold a second time, not even to publish it
        real = calibration.conditional_exceedance
        final, repeated = set(), set()

        def recording(spec, threshold, n, prior, **cuts):
            if (threshold, n) in final:
                repeated.add(n)
            value = real(spec, threshold, n, prior, **cuts)
            if math.isfinite(value):
                final.add((threshold, n))
            return value

        monkeypatch.setattr(calibration, "conditional_exceedance", recording)
        counts = [40, 80, 160, 320, 640, 1280]
        rows = calibrate_schedule(SafetySpec(q0=1.0, p0=p0), DEMO_PRIOR, counts,
                                  cap_at_q0=cap, tol=tol)[1]
        assert len(rows) == len(counts) and repeated == set()

    @pytest.mark.parametrize("cap, n, p0, warm_start, runs", [
        (False, 40, 0.01, None, 1),   # doubling, then a midpoint that settles
        (False, 80, 0.01, 1.0, 1),    # warm-started at q0, lo moved by a probe
        (False, 40, 0.01, 1e6, 2),    # lo stays the warm point: one cold rerun
        (True, 80, 1e-5, None, 1),    # capped, halving below an infeasible q0
    ])
    def test_a_contradicted_settled_probe_raises(self, monkeypatch, cap, n, p0,
                                                 warm_start, runs):
        # every probe runs as it would, but lo's full-tolerance value, asked
        # for at the end of the row, lands above p0; one bisection step ends
        # each row with lo settled below its cut or a warm point, never a
        # final value, which would not be asked for again
        monkeypatch.setattr(calibration, "_MAX_BISECTIONS", 1)
        spec = SafetySpec(q0=1.0, p0=p0)
        real_ce, real_calibrate = calibration.conditional_exceedance, calibrate_threshold
        calls = []

        def contradicting(*args, above=None, below=None):
            if above is None and below is None:
                return 2.0 * p0
            return real_ce(*args, above=above, below=below)

        def counting(*args, **kwargs):
            calls.append(args)
            return real_calibrate(*args, **kwargs)

        monkeypatch.setattr(calibration, "conditional_exceedance", contradicting)
        monkeypatch.setattr(calibration, "calibrate_threshold", counting)
        with pytest.raises(SolverError, match="settled at most p0"):
            counting(spec, n, DEMO_PRIOR, cap_at_q0=cap, tol=1e-15, warm_start=warm_start)
        assert len(calls) == runs

    @settings(max_examples=100, deadline=None)
    @given(threshold=st.floats(-1.0, 8.0), n=st.integers(1, 2**20),
           cut=st.one_of(LOG_P0, st.just(5e-324)),
           near=st.sampled_from([None, -1e-6, -1e-9, 1e-9, 1e-6]),
           side=st.sampled_from(["above", "below"]))
    @example(threshold=1.0, n=40, cut=sys.float_info.min, near=None, side="above")
    @example(threshold=1.0, n=40, cut=1e-300, near=None, side="above")
    @example(threshold=1.0, n=40, cut=0.01, near=None, side="below")
    @example(threshold=1.0, n=40, cut=0.0, near=-1e-6, side="below")
    @example(threshold=1.0, n=40, cut=0.0, near=1e-6, side="below")
    def test_settled_value_sits_on_the_same_side(self, threshold, n, cut, near, side):
        # the cut, `above` or `below`, is drawn, or sits a relative distance
        # `near` from the value
        try:
            full = conditional_exceedance(DEMO, threshold, n, DEMO_PRIOR)
        except InfeasibleConditioningError:
            with pytest.raises(InfeasibleConditioningError):
                conditional_exceedance(DEMO, threshold, n, DEMO_PRIOR, **{side: cut})
            return
        if near is not None:
            cut = full * (1.0 + near)
        settled = conditional_exceedance(DEMO, threshold, n, DEMO_PRIOR, **{side: cut})
        # a settled probe returns only its side, and a finite value is final
        if math.isfinite(settled):
            assert settled.hex() == full.hex()
        elif side == "above":
            assert settled == math.inf and full > cut >= sys.float_info.min
        else:
            assert settled == -math.inf and full < cut and cut >= sys.float_info.min

    @pytest.mark.parametrize("n", [2000, 20000])
    @pytest.mark.parametrize("sigma_lo, sigma_hi", [(0.5, 5.0), (0.4, 1.0)])
    def test_settling_keeps_the_conditioning_verdict(self, sigma_lo, sigma_hi, n):
        # at the thresholds where the conditioning event's probability
        # crosses the floor, a settled probe refuses exactly where the full
        # one does
        prior = SigmaPrior.log_uniform(sigma_lo, sigma_hi)

        def refuses(threshold, **cut):
            try:
                conditional_exceedance(DEMO, threshold, n, prior, **cut)
            except InfeasibleConditioningError:
                return True
            return False

        lo, hi = 0.0, 2.0 * sigma_hi
        assert refuses(lo) and not refuses(hi)
        while math.nextafter(lo, hi) < hi:
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if refuses(mid) else (lo, mid)
        for threshold in (math.nextafter(lo, 0.0), lo, hi, math.nextafter(hi, 9.0)):
            for cut in ({"above": 1e-6}, {"above": 1e-3}, {"below": 1e-3}, {"below": 0.4}):
                assert refuses(threshold, **cut) == refuses(threshold), (threshold, cut)

    @staticmethod
    def _evaluations(monkeypatch, margin):
        """Integrand evaluations of the uncapped demo schedule, and its rows."""
        evals = [0]
        real = calibration.integrate

        def counting(f, *args, **kwargs):
            def counted(x):
                evals[0] += 1
                return f(x)
            return real(counted, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(calibration, "integrate", counting)
            patch.setattr(calibration, "_SETTLE_MARGIN", margin)
            _, rows = calibrate_schedule(DEMO, DEMO_PRIOR, [40, 80, 160, 320, 640],
                                         cap_at_q0=False)
        return evals[0], rows

    def test_settling_saves_evaluations(self, monkeypatch):
        settled, rows = self._evaluations(monkeypatch, calibration._SETTLE_MARGIN)
        full, full_rows = self._evaluations(monkeypatch, math.inf)
        assert rows == full_rows
        assert settled < 0.8 * full


class TestPromiseOverTheJobRange:
    """Every published row keeps its promise, by an oracle that first locates
    the integrands and then integrates there with mpmath, so it does not
    share a uniform grid's blind spot on a prior hundreds of decades wide."""

    # (q0, threshold, n, sigma_lo, sigma_hi, value): probes whose numerator
    # falls between the library's initial nodes, valued by mpmath over a
    # hand-placed bump
    REFERENCES = [
        (1.7e308, 1.0625e307, 1820, 3.5e10, 1e308, 8.06431508569297e-181),
        (7.479403722609009e-196, 7.479403722609009e-196 / 4, 807051,
         2.684980109437552e-197, 7.97304619507821e268, 5.69236832648602e-69),
        (237.78851830727578, 237.78851830727578 / 8, 873402,
         8.555287478608488e-49, 1.2234461400584793e+30, 1.95799147768221e-234),
    ]

    def test_references_converge_at_full_tolerance(self, monkeypatch):
        # a split weight fixed on the initial grid ran each of these out of
        # the 1e6-evaluation budget; tracked with the totals, each takes 750-840
        evals = []
        real = calibration.integrate

        def counting(f, *args, **kwargs):
            evals.append(0)

            def counted(x):
                evals[-1] += 1
                return f(x)
            return real(counted, *args, **kwargs)

        monkeypatch.setattr(calibration, "integrate", counting)
        for q0, threshold, n, sigma_lo, sigma_hi, value in self.REFERENCES:
            ce = conditional_exceedance(SafetySpec(q0=q0, p0=0.01), threshold, n,
                                        SigmaPrior.log_uniform(sigma_lo, sigma_hi))
            assert ce == pytest.approx(value, rel=1e-9, abs=0.0)
            assert evals[-1] <= 2000

    def test_oracle_reproduces_wide_prior_references(self):
        for *job, value in self.REFERENCES:
            assert bump_oracle.conditional_exceedance(*job) == \
                pytest.approx(value, rel=1e-12, abs=0.0)
        for threshold, n in [(1.0, 40), (0.5, 40), (2.0, 160)]:
            assert bump_oracle.conditional_exceedance(1.0, threshold, n, 0.01, 10.0) == \
                pytest.approx(mp_conditional_exceedance(1.0, threshold, n, 0.01, 10.0),
                              rel=1e-12, abs=0.0)

    # 31 published rows a run, each checked in 0.1-0.6 s; derandomized, so
    # that the suite stays reproducible while the violations pinned below stand
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(q0=JOB_Q0, p0=JOB_P0, ends=st.tuples(JOB_SIGMA, JOB_SIGMA),
           counts=st.sets(st.integers(1, 2**20), min_size=1, max_size=2).map(sorted),
           cap=st.booleans(), tol=JOB_TOL)
    # the jobs whose probes REFERENCES holds, each of which ran out of
    # budget while the split weight stayed fixed on the initial grid
    @example(q0=1.7e308, p0=1e-200, ends=(3.5e10, 1e308), counts=[1820], cap=False, tol=1e-4)
    @example(q0=7.479403722609009e-196, p0=6.488583800185976e-158,
             ends=(2.684980109437552e-197, 7.97304619507821e268), counts=[807051], cap=True,
             tol=1e-4)
    @example(q0=237.78851830727578, p0=6.217995042921271e-90,
             ends=(8.555287478608488e-49, 1.2234461400584793e+30), counts=[873402], cap=False,
             tol=6.217995042921271e-90)
    def test_every_published_row_keeps_its_promise(self, q0, p0, ends, counts, cap, tol):
        sigma_lo, sigma_hi = sorted(ends)
        try:
            spec = SafetySpec(q0=q0, p0=p0)
            prior = SigmaPrior.log_uniform(sigma_lo, sigma_hi)
            rows = calibrate_schedule(spec, prior, counts, cap_at_q0=cap, tol=tol)[1]
        except DOCUMENTED_ERRORS:
            return
        for n, row in zip(counts, rows):
            ce = bump_oracle.conditional_exceedance(q0, row.threshold, n, sigma_lo, sigma_hi)
            assert ce is not None and ce <= p0 * (1.0 + 1e-6), (n, row, ce)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: no node of the published probe's quadrature sees the numerator, "
        "which reads 0.0, so a threshold whose exceedance is above p0 is published"))
    @pytest.mark.parametrize("q0, p0, n, ends, tol", [
        # the numerator's bump, about 0.05 wide in ln(sigma) where q0 / sigma
        # is near 26, falls between the nodes of a prior 900 decades wide:
        # the exceedance is 1.5e-178, 4e75 times p0
        (1.4199607666551786e-115, 3.6174424187935006e-254, 209411,
         (1.1185987149720425e-266, 7.790917063277676e+132), 3.963995337198601e-10),
        # the numerator lives within 0.01 of the prior's upper end, where
        # q0 / sigma = 31.6, and 1 - Phi underflows at every node nearer
        # the middle: the exceedance is 2.45e-225, 2.45 times p0
        (1.0, 1e-225, 1, (1e-160, 10.0 ** -1.5), 0.1),
    ])
    def test_a_numerator_between_the_nodes_breaks_the_promise(self, q0, p0, n, ends, tol):
        # found by random runs of the property above
        row = calibrate_threshold(SafetySpec(q0=q0, p0=p0), n, SigmaPrior.log_uniform(*ends),
                                  tol=tol)
        ce = bump_oracle.conditional_exceedance(q0, row.threshold, n, *ends)
        assert ce <= p0 * (1.0 + 1e-6), (row, ce)

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "known defect: the initial grid sees only part of the numerator, and the "
        "quadrature converges 2.5e-5 below the value without an error"))
    def test_a_partly_seen_numerator_is_off_its_tolerance(self):
        # found by random runs of the property above; hand-placed mpmath
        # panels agree with the oracle's 9.826717050851664e-38 to 4e-14
        q0, threshold, n = 3.3778507622373294e-143, 1.2666940358389986e-143, 933356
        ends = (3.2413816712674817e-223, 1.0123383495700157e+283)
        ce = conditional_exceedance(SafetySpec(q0=q0, p0=0.01), threshold, n,
                                    SigmaPrior.log_uniform(*ends))
        assert ce == pytest.approx(bump_oracle.conditional_exceedance(q0, threshold, n, *ends),
                                   rel=1e-6, abs=0.0)


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
        with mpmath.workdps(ORACLE_DPS):
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


class TestEntryFor:
    RULE = StandardRule(schedule=((40, 1.5), (80, 1.75), (160, 2.0)))

    def test_exact_count_gets_its_own_entry(self):
        assert self.RULE.entry_for(80) == (80, 1.75)

    def test_count_between_entries_gets_the_floor_entry(self):
        assert self.RULE.entry_for(100) == (80, 1.75)
        assert self.RULE.entry_for(159) == (80, 1.75)

    def test_count_past_the_last_entry_gets_the_last_entry(self):
        assert self.RULE.entry_for(10**6) == (160, 2.0)

    def test_count_below_the_first_entry_is_rejected(self):
        with pytest.raises(DomainError, match="no schedule entry"):
            self.RULE.entry_for(39)


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
        with pytest.raises(DomainError):
            StandardRule(schedule=((40, 1.0), (30, 1.1)))
        with pytest.raises(DomainError):
            StandardRule(schedule=((40, 1.0), (80, 0.9)))
        # every entry is checked, not only the first
        for schedule in (((40, 1.0), (80, math.nan)),
                         ((40, 1.0), (80, math.inf)),
                         ((40, 1.0), (80.9, 1.1)),
                         ((True, 1.0), (80, 1.1)),
                         ((40, 1.0), (2**40, 1.1))):
            with pytest.raises(DomainError, match="schedule"):
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
