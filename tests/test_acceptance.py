"""Acceptance suite: the contract-level checks, one test per criterion.

Each test prints a single PASS line with its key numbers once its
assertions hold (run with -s to see them on success; pytest -v also gives
one line per criterion).  Statistical checks run at fixed seeds with
4-standard-error bands (3 for the calibration fixed point), so they are
deterministic.
"""

import math
import time

import numpy as np
import pytest

from threshcal.calibration import (
    SafetySpec,
    SigmaPrior,
    StandardRule,
    acceptance_probability,
    calibrate_threshold,
    conditional_exceedance,
    marginal_exceedance,
    threshold_schedule,
)
from threshcal.cli import main
from threshcal.gaussian import SeededStream, log_cdf_power, std_normal_quantile
from threshcal.paradox import (
    EULER_GAMMA,
    estimate_conditional_exceedance,
    euler_gamma_partial,
    expected_max_asymptotic,
    expected_max_exact,
    expected_max_monte_carlo,
    paradox_curve,
    simulate_minimal_effort,
)

DEMO = SafetySpec(q0=1.0, p0=0.01)
DEMO_PRIOR = SigmaPrior.log_uniform(0.01, 10.0)
N_LIST = [40, 80, 160, 320, 640]


@pytest.fixture(scope="module")
def capped_rule():
    return threshold_schedule(DEMO, DEMO_PRIOR, N_LIST, cap_at_q0=True)


class _Clock:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def test_criterion_1_minimal_effort_danger_figure():
    """One further measurement crosses the pinned maximum ~2.5% of the time at n=40."""
    p = 1.0 / 41.0
    with _Clock() as clock:
        report = simulate_minimal_effort(40, 10**6, SeededStream(seed=0, stream_index=2))
    band = 4.0 * report.standard_error
    assert abs(report.estimate - p) <= band
    assert band <= 7e-4  # the stated +/- 0.0006 scale
    assert clock.elapsed < 60.0
    print(f"PASS criterion 1: estimate {report.estimate:.5f} vs 1/41 = {p:.5f} "
          f"(band {band:.2e}, {clock.elapsed:.1f}s)")


def test_criterion_2_exchangeability_law():
    """estimate * (n+1) stays within 4 standard errors of 1 for n in {1, 5, 40, 99}."""
    with _Clock() as clock:
        results = {}
        for n in (1, 5, 40, 99):
            report = simulate_minimal_effort(n, 10**5, SeededStream(seed=0, stream_index=2))
            product = report.estimate * (n + 1)
            band = 4.0 * report.standard_error * (n + 1)
            assert abs(product - 1.0) <= band
            results[n] = product
    assert clock.elapsed < 30.0
    shown = ", ".join(f"n={n}: {v:.4f}" for n, v in results.items())
    print(f"PASS criterion 2: {shown} ({clock.elapsed:.1f}s)")


def test_criterion_3_vacuity_theorem():
    """Known-scale priors make the conditional equal the marginal exceedance."""
    rng = np.random.default_rng(2024)
    with _Clock() as clock:
        worst = 0.0
        for sigma in (0.05, 0.25, 1.0, 3.0, 8.0):
            prior = SigmaPrior.point(sigma)
            expected = marginal_exceedance(DEMO, sigma)
            for _ in range(20):
                threshold = float(rng.uniform(0.02, 4.0))
                n = int(rng.integers(1, 2000))
                gap = abs(conditional_exceedance(DEMO, threshold, n, prior) - expected)
                worst = max(worst, gap)
                assert gap <= 1e-10
    assert clock.elapsed < 5.0
    print(f"PASS criterion 3: worst |conditional - marginal| = {worst:.1e} "
          f"({clock.elapsed:.1f}s)")


def test_criterion_4_calibration_fixed_point():
    """The sampling oracle confirms the calibrated threshold hits p0 (uncapped solve:
    the capped demo threshold sits at q0 where the exceedance is already below p0)."""
    with _Clock() as clock:
        result = calibrate_threshold(DEMO, 40, DEMO_PRIOR, cap_at_q0=False, tol=1e-6)
        assert result.capped is False
        report = estimate_conditional_exceedance(
            DEMO, result.threshold, 40, DEMO_PRIOR, 10**6,
            SeededStream(seed=0, stream_index=1))
    gap = abs(report.estimate - DEMO.p0)
    assert gap <= 3.0 * report.standard_error
    assert clock.elapsed < 120.0
    print(f"PASS criterion 4: threshold {result.threshold:.6f}, oracle estimate "
          f"{report.estimate:.5f} = p0 within {gap / report.standard_error:.2f} SE "
          f"over {report.accepted_runs} kept runs ({clock.elapsed:.1f}s)")


def test_criterion_5_schedule_monotonicity(capped_rule):
    """Published thresholds never decrease with the count, stay capped at q0,
    and their increments shrink."""
    with _Clock() as clock:
        capped_ts = [t for _, t in capped_rule.schedule]
        assert all(a <= b for a, b in zip(capped_ts, capped_ts[1:]))
        assert all(t <= DEMO.q0 for t in capped_ts)
        capped_inc = [b - a for a, b in zip(capped_ts, capped_ts[1:])]
        assert all(a >= b for a, b in zip(capped_inc, capped_inc[1:]))
        # the uncapped solve shows the shrinking increments non-trivially
        uncapped = threshold_schedule(DEMO, DEMO_PRIOR, N_LIST, cap_at_q0=False, tol=1e-6)
        ts = [t for _, t in uncapped.schedule]
        inc = [b - a for a, b in zip(ts, ts[1:])]
        assert all(a < b for a, b in zip(ts, ts[1:]))
        assert all(a > b for a, b in zip(inc, inc[1:]))
    assert clock.elapsed < 60.0
    print(f"PASS criterion 5: capped {capped_ts}, uncapped increments "
          f"{[round(i, 4) for i in inc]} ({clock.elapsed:.1f}s)")


def test_criterion_6_paradox_reproduction(capped_rule):
    """Extra measurements inflate rejections under a fixed threshold while the
    schedule rule tracks its closed-form rejection rate."""
    trials = 10**5
    with _Clock() as clock:
        t40 = capped_rule.threshold
        sigma_true = t40 / std_normal_quantile(0.9 ** (1.0 / 40.0))
        assert acceptance_probability(sigma_true, t40, 40) == pytest.approx(0.9, abs=1e-9)
        points = paradox_curve(sigma_true, capped_rule, N_LIST,
                               trials, SeededStream(seed=0, stream_index=3))
        by_n = {p.n_prime: p for p in points}
        acc40 = 1.0 - by_n[40].rejection_fixed
        assert abs(acc40 - 0.9) <= 0.02

        def se(rate):
            return math.sqrt(max(rate * (1.0 - rate), 1e-12) / trials)

        r40, r640 = by_n[40].rejection_fixed, by_n[640].rejection_fixed
        excess = r640 - r40
        assert excess >= 0.2
        assert excess > 4.0 * (se(r40) + se(r640))
        for p in points:
            t = capped_rule.entry_for(p.n_prime)[1]
            expected = 1.0 - acceptance_probability(sigma_true, t, p.n_prime)
            assert abs(p.rejection_schedule - expected) <= 4.0 * se(expected)
    assert clock.elapsed < 120.0
    print(f"PASS criterion 6: fixed-rule rejection {r40:.3f} -> {r640:.3f} "
          f"(excess {excess:.3f}), schedule rule matches closed form "
          f"({clock.elapsed:.1f}s)")


def test_criterion_7_expected_max_cross_validation():
    """Quadrature, simulation, and the growth-rate shorthand agree where they
    should and document their divergence where they do not."""
    with _Clock() as clock:
        exact2 = expected_max_exact(2)
        assert abs(exact2 - 1.0 / math.sqrt(math.pi)) <= 1e-9
        for n in (10, 100, 1000):
            mean, se = expected_max_monte_carlo(n, 1.0, 10**5,
                                                SeededStream(seed=0, stream_index=4))
            assert abs(mean - expected_max_exact(n)) <= 4.0 * se
        ratios = [expected_max_exact(n) / math.sqrt(2.0 * math.log(n))
                  for n in (100, 1000, 10000)]
        assert ratios[0] < ratios[1] < ratios[2]
        assert all(0.8 < r < 1.0 for r in ratios)
        asym100 = expected_max_asymptotic(100)
        assert asym100 == EULER_GAMMA * math.sqrt(2.0 * math.log(100))
        deviation = expected_max_exact(100) - asym100
    assert clock.elapsed < 60.0
    print(f"PASS criterion 7: exact(2) = {exact2:.9f}, ratios {[round(r, 4) for r in ratios]}, "
          f"gamma-prefactor form {asym100:.4f} undershoots exact by {deviation:.4f} "
          f"({clock.elapsed:.1f}s)")


def test_criterion_8_euler_constant():
    """The harmonic partial sums reach the Euler-Mascheroni constant."""
    with _Clock() as clock:
        value = euler_gamma_partial(10**6)
    assert abs(value - 0.5772156649) <= 1e-6
    assert clock.elapsed < 5.0
    print(f"PASS criterion 8: partial sum {value:.10f} vs {EULER_GAMMA:.10f} "
          f"({clock.elapsed:.1f}s)")


def test_criterion_9_determinism(tmp_path, capsys):
    """Every command is byte-identical under reruns, and the paradox curve
    follows its recipe: row r draws its nested binomial counts from
    stream.child(r).generator()."""
    job = tmp_path / "job.json"
    job.write_text('{"n_list": [40, 80, 160], "trials": 20000, "seed": 0}')
    sched = tmp_path / "schedule.csv"

    def run(*argv):
        code = main(list(argv))
        out = capsys.readouterr().out
        return code, out

    with _Clock() as clock:
        commands = [
            ("calibrate", "--job", str(job)),
            ("schedule", "--job", str(job), "--out", str(sched)),
            ("verify", "--job", str(job), "--schedule", str(sched)),
            ("simulate", "minimal_effort", "--job", str(job)),
            ("simulate", "paradox", "--job", str(job)),
            ("expected-max", "--n", "100", "--trials", "20000"),
        ]
        for argv in commands:
            code_a, out_a = run(*argv)
            code_b, out_b = run(*argv)
            assert code_a == code_b == 0, f"{argv} exited {code_a}/{code_b}"
            assert out_a == out_b, f"{argv} not byte-identical across reruns"

        # the paradox curve recomputed by hand: per row, the fixed count is
        # Binomial(trials, p_fixed) and the schedule count, nested in it,
        # Binomial(fixed, p_sched / p_fixed), with no draw where the two
        # thresholds coincide (row 0)
        trials = 123_457
        stream = SeededStream(seed=0, stream_index=3)
        rule = StandardRule(schedule=((40, 0.8), (80, 0.9)))
        sigma_true = 0.3
        points = paradox_curve(sigma_true, rule, [40, 80], trials, stream)
        assert points == paradox_curve(sigma_true, rule, [40, 80],
                                       trials, stream)
        for row, point in enumerate(points):
            p_fixed, p_sched = [-math.expm1(log_cdf_power(t / sigma_true, point.n_prime))
                                for t in (rule.threshold, rule.entry_for(point.n_prime)[1])]
            gen = stream.child(row).generator()
            fixed = int(gen.binomial(trials, p_fixed))
            sched = fixed if p_sched == p_fixed else int(gen.binomial(fixed, p_sched / p_fixed))
            assert (p_sched == p_fixed) == (row == 0)
            assert (point.rejection_fixed, point.rejection_schedule) == \
                (fixed / trials, sched / trials)
    print(f"PASS criterion 9: {len(commands)} commands byte-identical, paradox rows "
          f"digit-identical to the nested-binomial recipe ({clock.elapsed:.1f}s)")
