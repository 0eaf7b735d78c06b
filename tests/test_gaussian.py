"""Tests for the standard-normal primitives and the quadrature engine.

Expected values tagged as oracle-derived are computed here with mpmath at
high working precision, through routes independent of the implementation
(arbitrary-precision quadrature of the density, bisection on that oracle
CDF), never by calling the code under test.
"""

import math

import bruteforce
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threshcal.errors import DomainError, IntegrationError
from threshcal.gaussian import (
    _ACK_LOG_P_HIGH,
    _ACK_LOG_P_LOW,
    _MAX_COUNT,
    _ARRAY_SLICE,
    SeededStream,
    _quantile_log_in_place,
    _quantile_log_slice,
    _require_count,
    _require_counts,
    _require_finite,
    _require_positive,
    integrate,
    log_cdf_power,
    log_std_normal_cdf,
    std_normal_cdf,
    std_normal_pdf,
    std_normal_quantile,
    std_normal_quantile_log,
    std_normal_sf,
)

# Working precision of the mpmath oracles, set inside each one so that no
# test module's choice leaks into another's.
ORACLE_DPS = 40


@mpmath.workdps(ORACLE_DPS)
def oracle_cdf(x):
    """Phi(x) by arbitrary-precision quadrature of the density."""
    density = lambda t: mpmath.exp(-t * t / 2) / mpmath.sqrt(2 * mpmath.pi)
    return mpmath.quad(density, [-mpmath.inf, x])


@mpmath.workdps(ORACLE_DPS)
def oracle_quantile(p, lo=-40, hi=40):
    """Bisection for Phi(z) = p against the quadrature oracle, to a bracket
    of 2**-60, far inside the 1e-12 its callers compare at."""
    p = mpmath.mpf(p)
    lo, hi = mpmath.mpf(lo), mpmath.mpf(hi)
    while hi - lo > mpmath.mpf(2) ** -60:
        mid = (lo + hi) / 2
        if oracle_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


class TestStdNormalCdf:
    def test_median(self):
        assert std_normal_cdf(0.0) == 0.5

    def test_value_at_one_against_quadrature_oracle(self):
        expected = oracle_cdf(1.0)
        assert float(expected) == pytest.approx(0.8413447460685429, abs=1e-15)
        assert abs(std_normal_cdf(1.0) - float(expected)) <= 1e-14

    def test_oracle_grid(self):
        for x in [-8.0, -3.5, -1.0, -0.1, 0.3, 2.0, 5.0, 8.0]:
            assert abs(std_normal_cdf(x) - float(oracle_cdf(x))) <= 1e-14

    @given(st.floats(min_value=-40.0, max_value=40.0))
    def test_reflection(self, x):
        assert abs(std_normal_cdf(x) + std_normal_cdf(-x) - 1.0) <= 1e-14

    def test_monotone_on_random_grid(self):
        rng = np.random.default_rng(20240811)
        xs = np.sort(rng.uniform(-12, 12, size=4000))
        vals = [std_normal_cdf(float(x)) for x in xs]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            std_normal_cdf(float("nan"))
        with pytest.raises(DomainError):
            std_normal_cdf(float("inf"))

    def test_sf_complements_cdf(self):
        for x in [-5.0, -0.7, 0.0, 1.3, 9.0]:
            assert std_normal_sf(x) == std_normal_cdf(-x)
        # deep upper tail keeps relative accuracy instead of rounding to 0;
        # 1 - oracle_cdf(30) cannot hold 1 - Phi(30) ~ 5e-198 at 40 digits
        with mpmath.workdps(ORACLE_DPS):
            expected = float(mpmath.ncdf(-30))
        assert std_normal_sf(30.0) == pytest.approx(expected, rel=1e-12, abs=0.0)


class TestStdNormalQuantile:
    def test_median(self):
        assert std_normal_quantile(0.5) == 0.0

    def test_roundtrip_point(self):
        assert std_normal_quantile(std_normal_cdf(1.3)) == pytest.approx(1.3, abs=1e-10)

    def test_p975_against_bisection_oracle(self):
        expected = float(oracle_quantile(0.975))
        assert expected == pytest.approx(1.959963984540054, abs=1e-12)
        assert std_normal_quantile(0.975) == pytest.approx(expected, abs=1e-12)

    def test_probability_residual_bound(self):
        ps = [1e-300, 1e-30, 1e-12, 0.001, 0.02425, 0.3, 0.5, 0.7, 0.99, 1 - 1e-12, 1 - 1e-15]
        for p in ps:
            z = std_normal_quantile(p)
            assert abs(std_normal_cdf(z) - p) <= 1e-12

    def test_roundtrip_band(self):
        for x in np.linspace(-6, 6, 241):
            x = float(x)
            assert abs(std_normal_quantile(std_normal_cdf(x)) - x) <= 1e-8

    @pytest.mark.parametrize("p", [0.0, 1.0, -0.1, 1.5, float("nan")])
    def test_rejects_out_of_range(self, p):
        with pytest.raises(DomainError):
            std_normal_quantile(p)


class TestStdNormalQuantileLog:
    """The vectorised quantile over log-probabilities, checked by residuals:
    the accurate (log-)CDF at the result, against the target, over the pdf.
    Comparing against std_normal_quantile(exp(log_p)) would lose the digits
    of 1 - p near p = 1."""

    @staticmethod
    def x_error(x, log_p):
        """First-order error of x as the quantile of exp(log_p)."""
        if x > 0.0:
            return (std_normal_sf(x) + math.expm1(log_p)) / std_normal_pdf(x)
        log_cdf = log_std_normal_cdf(x)
        log_pdf = -0.5 * x * x - 0.5 * math.log(2.0 * math.pi)
        return (log_cdf - log_p) / math.exp(log_pdf - log_cdf)

    def test_relative_error_over_log_p_range(self):
        log_p = -np.logspace(math.log10(700.0), -15.0, 4001)
        x = std_normal_quantile_log(log_p)
        worst = max(abs(self.x_error(float(xi), float(lp))) / abs(float(xi))
                    for xi, lp in zip(x, log_p))
        assert worst <= 2e-9
        assert np.all(np.diff(x) > 0.0)

    def test_reference_points(self):
        log_p = np.log([1e-300, 0.001, 0.025, 0.5, 0.975])
        expected = [std_normal_quantile(p) for p in (1e-300, 0.001, 0.025, 0.5, 0.975)]
        assert std_normal_quantile_log(log_p) == pytest.approx(expected, rel=2e-9, abs=1e-15)

    def test_maximum_of_a_million_keeps_its_digits(self):
        # the median of the maximum of 1e6 draws: 1 - p is about 6.9e-7
        x = float(std_normal_quantile_log(math.log(0.5) / 10**6))
        assert abs(self.x_error(x, math.log(0.5) / 10**6)) <= 2e-9 * x

    def test_endpoints(self):
        x = std_normal_quantile_log(np.array([-np.inf, 0.0, -0.0]))
        assert x[0] == -np.inf
        assert x[1] == np.inf and x[2] == np.inf

    def test_extreme_finite_log_p_stays_finite(self):
        x = std_normal_quantile_log(np.array([-1e300, -1e-300]))
        assert np.all(np.isfinite(x))
        assert x[0] < -1e149 and x[1] > 37.0

    def test_slicing_leaves_every_value_unchanged(self):
        # all three branches and both ends, over a length that is not a
        # multiple of the slice
        rng = np.random.default_rng(8)
        size = 3 * _ARRAY_SLICE + 1_234
        log_p = -rng.standard_exponential(size) * 10.0 ** rng.uniform(-12, 2, size)
        log_p[[0, 5, size - 1]] = [-np.inf, 0.0, -1e-300]
        x = std_normal_quantile_log(log_p)
        whole = log_p.copy()
        _quantile_log_slice(whole, *np.empty((2, size)))   # one pass over the whole array
        assert x.tobytes() == whole.tobytes()
        # slices that straddle the evaluation's own slice boundaries
        for start in range(0, size, 5_000):
            part = std_normal_quantile_log(log_p[start:start + 5_000])
            assert part.tobytes() == x[start:start + 5_000].tobytes()
        assert std_normal_quantile_log(log_p.reshape(2, -1)).tobytes() == x.tobytes()
        assert std_normal_quantile_log(-1.0).shape == ()

    @pytest.mark.parametrize("background", [math.log(0.5), -1e-3])
    def test_in_place_kernel_overwrites_its_argument(self, background):
        # all three branches and both ends, in slices whose majority is the
        # central branch or the upper tail
        rng = np.random.default_rng(9)
        size = 3 * _ARRAY_SLICE + 1_234
        log_p = np.full(size, background)
        spread = rng.choice(size, size // 3, replace=False)
        scale = 10.0 ** rng.uniform(-12, 2, spread.size)
        log_p[spread] = -rng.standard_exponential(spread.size) * scale
        log_p[[0, 5, 6, 7, size - 1]] = [-np.inf, 0.0, -0.0, -1e-300, -1e-300]
        expected = std_normal_quantile_log(log_p)
        x = log_p.copy()
        assert _quantile_log_in_place(x) is x
        assert x.tobytes() == expected.tobytes()
        # a Fortran-ordered argument is copied into C order, then overwritten
        grid = log_p.reshape(2, -1).T
        assert np.array_equal(std_normal_quantile_log(grid), expected.reshape(2, -1).T)


class TestQuantileLogMatchesMaskedOracle:
    """The slice kernel runs its majority branch (central or upper tail) on
    every element and then overwrites the others; every value must equal
    the masked evaluation bit for bit."""

    # a central and an upper-tail log-probability, for slices where that
    # branch is the majority
    BACKGROUNDS = (math.log(0.5), -1e-3)

    @staticmethod
    def assert_same_bits(log_p):
        log_p = np.asarray(log_p, dtype=float)
        expected = bruteforce.masked_quantile_log(log_p)
        assert std_normal_quantile_log(log_p).tobytes() == expected.tobytes()
        whole = log_p.copy()
        _quantile_log_slice(whole, *np.empty((2, log_p.size)))
        assert whole.tobytes() == expected.tobytes()

    def assert_same_bits_in_both_majorities(self, points):
        self.assert_same_bits(points)
        for background in self.BACKGROUNDS:
            log_p = np.full(1_000, background)
            log_p[::97] = np.resize(points, log_p[::97].size)
            self.assert_same_bits(log_p)

    @pytest.mark.parametrize("n", [1, 2, 32, 640, 2**20])
    def test_maxima_of_n_draws(self, n):
        # ln U / n is the log-probability the Monte Carlo kernels invert
        rng = np.random.default_rng(n)
        self.assert_same_bits(np.log(rng.random(3 * _ARRAY_SLICE + 77)) / n)

    def test_ends_and_extremes(self):
        self.assert_same_bits_in_both_majorities(
            [-np.inf, 0.0, -0.0, -1e-300, -5e-324, -1e300])

    def test_branch_boundaries_and_neighbours(self):
        edges = []
        for edge in (_ACK_LOG_P_LOW, _ACK_LOG_P_HIGH):
            below = np.nextafter(edge, -np.inf)
            above = np.nextafter(edge, np.inf)
            edges += [np.nextafter(below, -np.inf), below, edge, above,
                      np.nextafter(above, np.inf)]
        self.assert_same_bits_in_both_majorities(edges)

    @pytest.mark.parametrize("upper", [499, 500, 501])
    def test_either_side_of_the_majority_switch(self, upper):
        log_p = np.full(1_000, math.log(0.5))
        log_p[:upper] = -1e-3
        log_p[-50:] = -10.0
        self.assert_same_bits(np.random.default_rng(upper).permutation(log_p))


class TestLogCdfPower:
    def test_single_draw_at_median(self):
        assert log_cdf_power(0.0, 1) == pytest.approx(math.log(0.5), abs=1e-15)

    def test_no_underflow_regime_crosscheck(self):
        assert log_cdf_power(2.0, 40) == pytest.approx(40 * math.log(std_normal_cdf(2.0)), abs=1e-12)

    def test_deep_tail_against_extended_precision(self):
        # 100 * ln Phi(-8), where Phi(-8)^100 is far below the float range
        with mpmath.workdps(ORACLE_DPS):
            expected = float(100 * mpmath.log(mpmath.ncdf(-8)))
        got = log_cdf_power(-8.0, 100)
        assert math.isfinite(got)
        assert got == pytest.approx(expected, rel=1e-13)

    def test_asymptotic_branch_against_extended_precision(self):
        for x in [-20.5, -25.0, -40.0, -100.0]:
            with mpmath.workdps(ORACLE_DPS):
                expected = float(mpmath.log(mpmath.ncdf(x)))
            assert log_std_normal_cdf(x) == pytest.approx(expected, rel=1e-13)

    def test_exp_identity_where_representable(self):
        for x in [-8.0, -3.0, -1.0, 0.0, 0.5, 2.0]:
            for n in [1, 7, 40, 1000]:
                direct = std_normal_cdf(x) ** n
                if direct >= 1e-300:
                    assert math.exp(log_cdf_power(x, n)) == pytest.approx(direct, rel=1e-10)

    def test_large_n_positive_x(self):
        # Phi(5)**1e6 is representable; the log route must match it closely
        with mpmath.workdps(ORACLE_DPS):
            expected = float(mpmath.ncdf(5) ** 1_000_000)
        assert math.exp(log_cdf_power(5.0, 1_000_000)) == pytest.approx(expected, rel=1e-9)

    def test_rejects_bad_n(self):
        with pytest.raises(DomainError):
            log_cdf_power(0.0, 0)
        with pytest.raises(DomainError):
            log_cdf_power(0.0, 2.5)


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: 1.0, 0.0, 1.0) == pytest.approx(1.0, rel=1e-13)

    def test_normal_density_normalization(self):
        val = integrate(std_normal_pdf, -10.0, 10.0, rel_tol=1e-12)
        assert abs(val - 1.0) <= 1e-10

    def test_polynomial(self):
        assert integrate(lambda x: x * x, 0.0, 1.0, rel_tol=1e-12) == pytest.approx(1.0 / 3.0, rel=1e-12)

    def test_empty_interval(self):
        assert integrate(lambda x: 5.0, 2.0, 2.0) == 0.0

    def test_deterministic(self):
        f = lambda x: math.exp(-x) * math.sin(7 * x)
        a = integrate(f, 0.0, 20.0, rel_tol=1e-11)
        b = integrate(f, 0.0, 20.0, rel_tol=1e-11)
        assert a == b

    def test_budget_exhaustion_carries_estimate(self):
        # endpoint singularity: integrable but needs ever-deeper bisection
        with pytest.raises(IntegrationError) as exc:
            integrate(lambda x: x ** -0.5, 0.0, 1.0, rel_tol=1e-13, max_evals=400)
        assert math.isfinite(exc.value.estimate)
        assert exc.value.estimate == pytest.approx(2.0, rel=1e-2)
        assert exc.value.error_bound > 0.0

    def test_rejects_reversed_interval(self):
        with pytest.raises(DomainError):
            integrate(lambda x: 1.0, 1.0, 0.0)

    def test_rejects_non_finite_integrand(self):
        with pytest.raises(DomainError):
            integrate(lambda x: float("nan"), 0.0, 1.0)

    def test_sharp_peak_converges(self):
        # bump two orders narrower than the range, off any panel midpoint
        val = integrate(lambda x: math.exp(-0.5 * ((x - 0.37) / 0.01) ** 2), 0.0, 1.0,
                        rel_tol=1e-10)
        assert val == pytest.approx(0.01 * math.sqrt(2 * math.pi), rel=1e-9)

    def test_scalar_results_are_pinned(self):
        # frozen from the scalar engine before tuple-valued integrands were
        # added; the scalar refinement order and sums must not move
        from threshcal.paradox import expected_max_exact

        pinned = [
            (expected_max_exact(2), "0x1.20dd750429b6dp-1"),
            (expected_max_exact(1000), "0x1.9ee75e0641a10p+1"),
            (expected_max_exact(10**6), "0x1.3739b660c0ebdp+2"),
            (integrate(std_normal_pdf, -10.0, 10.0, rel_tol=1e-12), "0x1.0000000000000p+0"),
            (integrate(lambda x: math.exp(-x) * math.sin(7 * x), 0.0, 20.0, rel_tol=1e-11),
             "0x1.1eb851ec17c6bp-3"),
            (integrate(lambda x: math.exp(-0.5 * ((x - 0.37) / 0.01) ** 2), 0.0, 1.0),
             "0x1.9aaf9c282c14fp-6"),
        ]
        assert [value.hex() for value, _ in pinned] == [h for _, h in pinned]
        with pytest.raises(IntegrationError) as exc:
            integrate(lambda x: x ** -0.5, 0.0, 1.0, rel_tol=1e-13, max_evals=400)
        assert exc.value.estimate.hex() == "0x1.ffd139adc440fp+0"
        assert exc.value.error_bound.hex() == "0x1.20902033c0890p-10"

    def test_quadratic_needs_only_the_initial_grid(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x

        assert integrate(f, 0.0, 1.0) == pytest.approx(1.0 / 3.0, rel=1e-15)
        assert len(calls) == 8 * 15
        assert 0.0 not in calls and 1.0 not in calls


def _bump(x):
    return math.exp(-0.5 * ((x - 0.37) / 0.01) ** 2)


class TestIntegrateVector:
    def test_result_is_a_tuple(self):
        val = integrate(lambda x: (1.0, x), 0.0, 1.0, rel_tol=1e-12)
        assert isinstance(val, tuple) and len(val) == 2
        assert val == pytest.approx((1.0, 0.5), rel=1e-13)
        # a pair is the only tuple taken, on an empty interval too
        for width in (1, 3):
            for hi in (1.0, 0.0):
                with pytest.raises(DomainError, match=f"tuple of width {width}$"):
                    integrate(lambda x: (x,) * width, 0.0, hi)

    def test_empty_interval_keeps_the_shape(self):
        assert integrate(lambda x: (5.0, 6.0), 2.0, 2.0) == (0.0, 0.0)

    def test_one_evaluation_per_node_for_all_components(self):
        calls = []

        def f(x):
            calls.append(x)
            return x * x, x

        integrate(f, 0.0, 1.0)
        assert len(calls) == 8 * 15

    @pytest.mark.parametrize("width", [2, 3])
    def test_equal_components_refine_like_a_scalar(self, width):
        # equal components carry equal weights, so the partition and every
        # sum match the scalar run bit for bit; a pair is the only tuple taken
        f = lambda x: math.exp(-x) * math.sin(7 * x)
        if width != 2:
            with pytest.raises(DomainError, match=f"tuple of width {width}$"):
                integrate(lambda x: (f(x),) * width, 0.0, 20.0, rel_tol=1e-11)
            return
        scalar = integrate(f, 0.0, 20.0, rel_tol=1e-11)
        assert integrate(lambda x: (f(x),) * width, 0.0, 20.0, rel_tol=1e-11) == \
            (scalar,) * width

    @pytest.mark.parametrize("small_first", [False, True])
    def test_each_component_meets_its_own_tolerance(self, small_first):
        # a smooth component and a sharp one 1e-12 times smaller: the small
        # one must still converge relative to itself
        exact = (math.sin(3.0) / 3.0, 1e-12 * 0.01 * math.sqrt(2 * math.pi))

        def f(x):
            pair = (math.cos(3.0 * x), 1e-12 * _bump(x))
            return pair[::-1] if small_first else pair

        val = integrate(f, 0.0, 1.0, rel_tol=1e-10)
        if small_first:
            val = val[::-1]
        assert val[0] == pytest.approx(exact[0], rel=1e-10)
        assert val[1] == pytest.approx(exact[1], rel=1e-9)

    def test_zero_component_converges(self):
        val = integrate(lambda x: (math.cos(x), 0.0), 0.0, 1.0)
        assert val == (pytest.approx(math.sin(1.0), rel=1e-12), 0.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_component_raises(self, bad):
        with pytest.raises(DomainError):
            integrate(lambda x: (1.0, bad), 0.0, 1.0)
        # a component that turns non-finite only where refinement looks
        with pytest.raises(DomainError):
            integrate(lambda x: (_bump(x), bad if abs(x - 0.37) < 1e-3 else 0.0), 0.0, 1.0)

    def test_budget_exhaustion_carries_every_component(self):
        # the first node is a panel center, never lo, so x = 0 is not probed
        with pytest.raises(IntegrationError) as exc:
            integrate(lambda x: (x ** -0.5, 1.0), 0.0, 1.0, rel_tol=1e-13, max_evals=400)
        estimate, bound = exc.value.estimate, exc.value.error_bound
        assert isinstance(estimate, tuple) and isinstance(bound, tuple)
        assert estimate == (pytest.approx(2.0, rel=1e-2), pytest.approx(1.0, rel=1e-15))
        assert bound[0] > 0.0 and 0.0 <= bound[1] < 1e-15

    def test_pair_results_are_pinned(self):
        # frozen before the quadrature engine became one loop
        with pytest.raises(IntegrationError) as exc:
            integrate(lambda x: (x ** -0.5, math.exp(-x) * math.sin(7 * x)), 0.0, 1.0,
                      rel_tol=1e-13, max_evals=400)
        assert [v.hex() for v in exc.value.estimate] == ["0x1.ffd139adc440fp+0",
                                                          "0x1.8a998cda7de35p-4"]
        assert [v.hex() for v in exc.value.error_bound] == ["0x1.20902033c0890p-10",
                                                             "0x1.2804400000000p-55"]

    def test_ragged_values_are_rejected(self):
        with pytest.raises((TypeError, ValueError)):
            integrate(lambda x: (1.0, 2.0) if x < 0.5 else (1.0,), 0.0, 1.0)


class TestSeededStream:
    def test_identical_streams_identical_draws(self):
        a = SeededStream(seed=42, stream_index=3).generator().standard_normal(1000)
        b = SeededStream(seed=42, stream_index=3).generator().standard_normal(1000)
        assert np.array_equal(a, b)

    def test_distinct_stream_indices_differ(self):
        a = SeededStream(seed=42, stream_index=0).generator().standard_normal(1000)
        b = SeededStream(seed=42, stream_index=1).generator().standard_normal(1000)
        assert not np.array_equal(a, b)

    def test_derived_paths_differ_from_root(self):
        s = SeededStream(seed=7, stream_index=0)
        root = s.generator().standard_normal(8)
        sub = s.generator(0).standard_normal(8)
        assert not np.array_equal(root, sub)

    @pytest.mark.parametrize("seed,index", [(-1, 0), (2**64, 0), (0, -1), (1.5, 0), (0, 0.5)])
    def test_rejects_bad_addresses(self, seed, index):
        with pytest.raises(DomainError):
            SeededStream(seed=seed, stream_index=index)

    @pytest.mark.parametrize("entry", [1.9, True, "x", -1, np.float64(1.0)])
    def test_rejects_bad_path_entries(self, entry):
        # int() would truncate 1.9 and True to the address of path entry 1
        stream = SeededStream(seed=3, stream_index=1)
        message = "path entry must be >= 0" if entry == -1 else "path entry must be an integer"
        for make in (lambda: SeededStream(3, 1, (entry,)), lambda: stream.child(entry),
                     lambda: stream.generator(entry), lambda: stream.child(0).generator(entry)):
            with pytest.raises(DomainError, match=message):
                make()


class TestStreamContract:
    """The draws a stream address gives are part of the output format."""

    @pytest.mark.parametrize("seed,index,path,sub", [
        (0, 0, (), ()), (42, 3, (), (7,)), (2**64 - 1, 4, (2, 5), (0,)), (91, 1, (4,), (1, 2)),
        (91, 1, (np.int64(4),), (np.uint8(1), 2)),
    ])
    def test_generator_is_sfc64_on_the_spawn_key(self, seed, index, path, sub):
        rng = SeededStream(seed, index, path).generator(*sub)
        key = np.random.SeedSequence(seed, spawn_key=(index, *path, *sub))
        by_hand = np.random.Generator(np.random.SFC64(key))
        assert isinstance(rng.bit_generator, np.random.SFC64)
        assert rng.random(64).tobytes() == by_hand.random(64).tobytes()
        assert rng.standard_exponential(64).tobytes() == by_hand.standard_exponential(64).tobytes()
        assert rng.standard_normal(64).tobytes() == by_hand.standard_normal(64).tobytes()

    def test_blocks_of_one_stream_are_uncorrelated(self):
        stream = SeededStream(seed=5, stream_index=1).child(3)
        u = np.array([stream.generator(b).random(4096) for b in range(64)])
        assert np.unique(u[:, 0]).size == 64
        corr = np.corrcoef(u)
        off_diagonal = corr[~np.eye(64, dtype=bool)]
        assert np.max(np.abs(off_diagonal)) <= 5.0 / math.sqrt(4096)


@settings(max_examples=200)
@given(st.floats(min_value=-37.0, max_value=8.0), st.integers(min_value=1, max_value=10**6))
def test_log_cdf_power_is_n_linear(x, n):
    assert log_cdf_power(x, n) == pytest.approx(n * log_std_normal_cdf(x), rel=1e-15)


class TestRequireHelpers:
    """The package's shared argument checks."""

    @pytest.mark.parametrize("value", [True, "1.0", b"1.0", None, [1.0], 10**400,
                                       float("nan"), -float("inf")])
    def test_finite_rejects_non_numbers(self, value):
        with pytest.raises(DomainError, match="^x must be"):
            _require_finite("x", value)

    def test_finite_leaves_unprintable_ints_out_of_the_message(self):
        with pytest.raises(DomainError) as exc:
            _require_finite("x", 10**5000)
        assert "int given does not convert" in str(exc.value)

    def test_finite_returns_a_float(self):
        for value in (3, np.int64(3), np.float32(3.0), 3.0):
            assert type(_require_finite("x", value)) is float

    @pytest.mark.parametrize("value", [0.0, -1e-300, -2])
    def test_positive_rejects_zero_and_below(self, value):
        with pytest.raises(DomainError, match="^s must be positive"):
            _require_positive("s", value)

    def test_count_bound(self):
        assert _require_count("c", _MAX_COUNT) == 2**36
        for value in (_MAX_COUNT + 1, 10**400):
            with pytest.raises(DomainError, match=r"^c must be at most 2\*\*36"):
                _require_count("c", value)

    def test_counts_returns_a_tuple_of_ints(self):
        assert _require_counts("c", np.array([1, 5, 9])) == (1, 5, 9)
        assert [type(n) for n in _require_counts("c", [np.int64(2), 3])] == [int, int]

    @pytest.mark.parametrize("values,message", [
        ([], "c must not be empty"),
        ([3, 3], "c must be strictly increasing"),
        ([0, 1], "c entry must be >= 1"),
        ([True], "c entry must be an integer"),
    ])
    def test_counts_rejects(self, values, message):
        with pytest.raises(DomainError, match=message):
            _require_counts("c", values)

    def test_quantile_rejects_huge_int(self):
        with pytest.raises(DomainError):
            std_normal_quantile(10**400)
