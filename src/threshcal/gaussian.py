"""Standard-normal primitives, adaptive quadrature, and seeded random streams.

Everything downstream (threshold calibration, Monte Carlo verification) sits
on the handful of numerically careful routines in this module.  Three
constraints shape the implementation:

* CDF powers Phi(x)**n are needed for sample sizes up to 1e6, far past the
  point where naive powering underflows, so the log-CDF carries a dedicated
  asymptotic branch in the deep left tail.
* Simulation results must be bit-reproducible for a fixed seed, so all
  randomness flows through SFC64 generators seeded by a SeedSequence
  whose spawn key is (stream_index, *path); the spawn key, not the
  generator, keeps streams independent.
* Integrals that share a costly factor (the calibration's numerator and
  denominator share the CDF power) are cheapest on shared nodes, so the
  quadrature also takes pair-valued integrands.
"""

from __future__ import annotations

import heapq
import math
import numbers
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from .errors import DomainError, IntegrationError

if TYPE_CHECKING:
    import numpy as np

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# erfc keeps full relative accuracy down to Phi(-37) ~ 5e-300; switch to the
# Mills-ratio series with lots of margin before denormals appear.
_TAIL_SWITCH = -20.0

_U64_MAX = 2**64 - 1
_FLOAT_MAX = sys.float_info.max


def _require_finite(name: str, x: float) -> float:
    """x as a finite float.  bool, str and bytes are refused; a value float()
    cannot take (such as an int too large for a float) raises DomainError
    without its repr, since an int of over 4,300 digits cannot be printed."""
    if isinstance(x, (bool, str, bytes)):
        raise DomainError(f"{name} must be a number, got {x!r}")
    try:
        x = float(x)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{name} must be a finite number; the {type(x).__name__} "
                          "given does not convert to a float") from None
    if not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {x!r}")
    return x


def _require_positive(name: str, x: float) -> float:
    """x as a finite, strictly positive float: a scale or a danger threshold."""
    x = _require_finite(name, x)
    if x <= 0.0:
        raise DomainError(f"{name} must be positive, got {x}")
    return x


# Largest count any routine takes (measurement counts and trial counts
# alike): float arithmetic on it stays exact and finite, and a simulation
# of this many trials is a plan of 2^20 blocks.
_MAX_COUNT = 2**36


def _require_count(name: str, n: int) -> int:
    """n as an int in [1, _MAX_COUNT]."""
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {n!r}")
    n = int(n)
    if n < 1:
        raise DomainError(f"{name} must be >= 1, got {n}")
    if n > _MAX_COUNT:
        raise DomainError(f"{name} must be at most 2**36 = {_MAX_COUNT}")
    return n


def _require_counts(name: str, values) -> tuple[int, ...]:
    """values as a non-empty, strictly increasing tuple of counts >= 1."""
    counts = tuple(_require_count(f"{name} entry", v) for v in values)
    if not counts:
        raise DomainError(f"{name} must not be empty")
    if any(a >= b for a, b in zip(counts, counts[1:])):
        raise DomainError(f"{name} must be strictly increasing, got {list(counts)}")
    return counts


def std_normal_pdf(x: float) -> float:
    """Density of the standard normal at x."""
    x = _require_finite("x", x)
    return _INV_SQRT_2PI * math.exp(-0.5 * x * x)


def std_normal_cdf(x: float) -> float:
    """Phi(x), with absolute error well below 1e-14.

    The branch split keeps full relative accuracy in the left tail and makes
    Phi(x) + Phi(-x) round-trip to 1 within an ulp.
    """
    x = _require_finite("x", x)
    if x <= 0.0:
        return 0.5 * math.erfc(-x * _INV_SQRT2)
    return 1.0 - 0.5 * math.erfc(x * _INV_SQRT2)


def std_normal_sf(x: float) -> float:
    """Upper-tail probability 1 - Phi(x) = Phi(-x), precise for large x."""
    x = _require_finite("x", x)
    return std_normal_cdf(-x)


def log_std_normal_cdf(x: float) -> float:
    """ln Phi(x), finite and accurate for every finite x.

    For x above the tail switch, erfc supplies Phi directly (log1p on the
    positive half so the result stays accurate when Phi is within an ulp of
    1).  Deeper in the left tail Phi itself underflows, so the value comes
    from the Mills-ratio asymptotic expansion:

        ln Phi(x) = -x^2/2 - ln(sqrt(2 pi) z) + ln S(z),   z = -x,
        S(z) = 1 - 1/z^2 + 3/z^4 - 15/z^6 + ...

    The series terms fall below 1e-17 by the tenth term once z >= 20.
    """
    return _log_std_normal_cdf(_require_finite("x", x))


def _log_std_normal_cdf(x: float) -> float:
    """log_std_normal_cdf of a float already known to be finite."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x * _INV_SQRT2))
    if x > _TAIL_SWITCH:
        return math.log(0.5 * math.erfc(-x * _INV_SQRT2))
    z = -x
    zz = z * z
    s = 1.0
    term = 1.0
    for k in range(1, 40):
        term *= -(2 * k - 1) / zz
        if abs(term) < 1e-17:
            break
        s += term
    return -0.5 * zz - math.log(z) - _LOG_SQRT_2PI + math.log(s)


def log_cdf_power(x: float, n: int) -> float:
    """n * ln Phi(x): the log-probability that all n draws fall below x.

    Stays finite where Phi(x)**n underflows; exp of the result matches the
    naive power to 1e-10 relative whenever that power is representable.
    """
    n = _require_count("n", n)
    return n * log_std_normal_cdf(x)


# Acklam's rational approximation to the inverse normal CDF (~1.15e-9
# relative accuracy).  The tail ratio is evaluated in r = 1/q, which is the
# same rational function but cannot overflow for any finite q.
_ACK_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
          1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_ACK_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
          6.680131188771972e+01, -1.328068155288572e+01)
_ACK_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
          -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_ACK_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
          3.754408661907416e+00)
_ACK_P_LOW = 0.02425
_ACK_LOG_P_LOW = math.log(_ACK_P_LOW)
_ACK_LOG_P_HIGH = math.log1p(-_ACK_P_LOW)


def _acklam_tail(q: float) -> float:
    """Lower-tail branch at q = sqrt(-2 ln p)."""
    c, d = _ACK_C, _ACK_D
    r = 1.0 / q
    num = ((((c[5] * r + c[4]) * r + c[3]) * r + c[2]) * r + c[1]) * r + c[0]
    den = (((r + d[3]) * r + d[2]) * r + d[1]) * r + d[0]
    return q * num / den


def _acklam_central(q: float) -> float:
    """Central branch at q = p - 1/2."""
    a, b = _ACK_A, _ACK_B
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))


def _acklam(p: float) -> float:
    if p < _ACK_P_LOW:
        return _acklam_tail(math.sqrt(-2.0 * math.log(p)))
    if p > 1.0 - _ACK_P_LOW:
        return -_acklam_tail(math.sqrt(-2.0 * math.log1p(-p)))
    return _acklam_central(p - 0.5)


def std_normal_quantile(p: float) -> float:
    """Inverse of std_normal_cdf on (0, 1); |Phi(result) - p| <= 1e-12."""
    p = _require_finite("p", p)
    if not (0.0 < p < 1.0):
        raise DomainError(f"p must lie strictly inside (0, 1), got {p!r}")
    x = _acklam(p)
    # One Halley step against the accurate CDF brings the residual from
    # ~1e-9 down to the precision of the CDF itself.
    err = std_normal_cdf(x) - p
    pdf = std_normal_pdf(x)
    if pdf > 0.0 and err != 0.0:
        u = err / pdf
        x -= u / (1.0 + 0.5 * x * u)
    return x


def median_of_max(n: int) -> float:
    """Median z_n of the maximum of n standard normals: Phi(z_n)**n = 1/2.

    z_n = -Phi^-1(1 - 2^(-1/n)), with the upper tail 1 - 2^(-1/n) taken
    through expm1 so that counts up to 2**36 keep its digits; z_1 = 0.
    """
    n = _require_count("n", n)
    return -std_normal_quantile(-math.expm1(-math.log(2.0) / n))


# Gauss-Kronrod (7, 15) nodes and weights on [-1, 1]; positive half only.
# Kronrod points at odd indices 1, 3, 5 plus the center form the Gauss-7 rule.
_XGK = (0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245)
_WGK = (0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649)
_WGK_CENTER = 0.209482141084727828012999174891714
_WG = (0.129484966168869693270611432679082,
       0.279705391489276667901467771423780,
       0.381830050505118944950369775488975)
_WG_CENTER = 0.417959183673469387755102040816327


# Equal panels of the fixed grid that integrate() evaluates before refining.
_INITIAL_PANELS = 8


def _is_pair(value) -> bool:
    """Whether an integrand value is a pair; a tuple of another width is refused."""
    if isinstance(value, tuple) and len(value) != 2:
        raise DomainError("integrand must return a float or a pair, "
                          f"got a tuple of width {len(value)}")
    return isinstance(value, tuple)


def integrate(f: Callable, lo: float, hi: float,
              rel_tol: float = 1e-10, abs_tol: float = 0.0,
              max_evals: int = 1_000_000, *, stop: Callable | None = None):
    """Globally adaptive Gauss-Kronrod quadrature with interval bisection.

    The range starts as a fixed grid of 8 equal panels (so features
    narrower than a single panel's node spacing are not silently missed),
    then the panel with the largest error estimate is split until the summed
    error falls within rel_tol of the integral (or below abs_tol, when one
    is given).  The refinement order is fixed, so identical inputs always
    produce the identical result.

    f may return a float or a pair of floats (a tuple of any other width
    raises DomainError); its value at the first node (the center of the
    first panel) sets the shape, and the result has the same shape.  The
    two components of a pair-valued f share one partition and one
    evaluation budget, so every node is evaluated once for both.
    Refinement runs until each component meets its own tolerance, and the
    panel split next is the one with the largest error measured in units
    of each component's tolerance on the initial grid.  A scalar f runs as
    the pair (value, 0.0), whose second component has zero error and so
    never sets the refinement order or the stop: scalar results keep the
    refinement order and the value they always had.

    stop, when given, is called as stop(total_w, total_u, err_w, err_u) on
    the running totals of both components and their error bounds (a scalar
    f's second component is 0.0 with error 0.0) before each split: first
    on the initial grid's totals, then after each split that leaves the
    tolerance unmet.
    Once it returns true, refinement ends and the estimate so far is
    returned, so a caller that needs only a bound on the integrals stops
    as soon as the error bounds settle it.  It is asked before the budget
    is.  Without stop, refinement runs to the tolerance.

    Raises IntegrationError, carrying the best estimate and its error
    bound (pairs for a pair-valued f), if the evaluation budget runs out
    first.  The budget gates subdivision; the initial grid is always
    evaluated.
    """
    lo = _require_finite("lo", lo)
    hi = _require_finite("hi", hi)
    if lo > hi:
        raise DomainError(f"lo must be <= hi, got [{lo}, {hi}]")
    if lo == hi:
        return (0.0, 0.0) if _is_pair(f(lo)) else 0.0
    if not rel_tol > 0.0:
        raise DomainError(f"rel_tol must be positive, got {rel_tol!r}")

    edges = [lo + (hi - lo) * k / _INITIAL_PANELS for k in range(_INITIAL_PANELS)] + [hi]
    spans = [(a, b) for a, b in zip(edges, edges[1:]) if a != b]
    first = f(0.5 * (spans[0][0] + spans[0][1]))
    pair = _is_pair(first)
    if not pair:
        scalar, first = f, (first, 0.0)
        f = lambda x: (scalar(x), 0.0)

    def panel(a, b, center, x=_XGK, w=(_WGK_CENTER, *_WGK, _WG_CENTER, *_WG)):
        """Both components' integral and error estimate on [a, b] from f at
        its 15 Kronrod nodes: the center (given), then the symmetric pairs
        from the outside in.  The sums run left to right: their order is
        part of the result."""
        c = 0.5 * (a + b)
        h = 0.5 * (b - a)
        x0, x1, x2, x3, x4, x5, x6 = x
        d0, d1, d2, d3, d4, d5, d6 = h * x0, h * x1, h * x2, h * x3, h * x4, h * x5, h * x6
        fc, uc = center
        (l0, m0), (r0, s0) = f(c - d0), f(c + d0)
        (l1, m1), (r1, s1) = f(c - d1), f(c + d1)
        (l2, m2), (r2, s2) = f(c - d2), f(c + d2)
        (l3, m3), (r3, s3) = f(c - d3), f(c + d3)
        (l4, m4), (r4, s4) = f(c - d4), f(c + d4)
        (l5, m5), (r5, s5) = f(c - d5), f(c + d5)
        (l6, m6), (r6, s6) = f(c - d6), f(c + d6)
        kc, k0, k1, k2, k3, k4, k5, k6, gc, g1, g3, g5 = w
        p1, p3, p5 = l1 + r1, l3 + r3, l5 + r5
        wk = (kc * fc + k0 * (l0 + r0) + k1 * p1 + k2 * (l2 + r2) + k3 * p3
              + k4 * (l4 + r4) + k5 * p5 + k6 * (l6 + r6))
        wg = gc * fc + g1 * p1 + g3 * p3 + g5 * p5
        p1, p3, p5 = m1 + s1, m3 + s3, m5 + s5
        uk = (kc * uc + k0 * (m0 + s0) + k1 * p1 + k2 * (m2 + s2) + k3 * p3
              + k4 * (m4 + s4) + k5 * p5 + k6 * (m6 + s6))
        ug = gc * uc + g1 * p1 + g3 * p3 + g5 * p5
        return h * wk, h * uk, abs(h * (wk - wg)), abs(h * (uk - ug))

    isfinite = math.isfinite
    evals = 0
    total_w = total_u = err_w = err_u = 0.0
    panels = []
    for a, b in spans:
        wi, ui, we, ue = panel(a, b, f(0.5 * (a + b)) if panels else first)
        if not (isfinite(wi) and isfinite(ui)):
            raise DomainError(f"integrand returned a non-finite value on [{a}, {b}]")
        evals += 15
        panels.append((a, b, wi, ui, we, ue))
        total_w, total_u, err_w, err_u = total_w + wi, total_u + ui, err_w + we, err_u + ue

    # Weight of the second component's errors, in units of the first one's
    # tolerance (not formed: it underflows for a subnormal component).  A far
    # smaller or zero component gets the largest finite weight, so its errors
    # are never starved by the first one's.
    scale_w = max(abs(total_w), abs_tol / rel_tol)
    scale_u = max(abs(total_u), abs_tol / rel_tol)
    weight = (1.0 if scale_w == 0.0 else min(scale_w / scale_u, _FLOAT_MAX) if scale_u > 0.0
              else _FLOAT_MAX)
    heap = [(-max(we, ue * weight), counter, a, b, wi, ui, we, ue)
            for counter, (a, b, wi, ui, we, ue) in enumerate(panels)]
    heapq.heapify(heap)
    counter = len(heap)

    def fail(message: str, pending: tuple | None = None) -> IntegrationError:
        best = [math.fsum(seg[j] for seg in heap) for j in (4, 5)]
        if pending is not None:
            best = [s + p for s, p in zip(best, pending)]
        best, err = (tuple(best), (err_w, err_u)) if pair else (best[0], err_w)
        return IntegrationError(f"{message}; best estimate {best!r} with error bound {err!r}",
                                estimate=best, error_bound=err)

    while err_w > max(rel_tol * abs(total_w), abs_tol) or \
            err_u > max(rel_tol * abs(total_u), abs_tol):
        if stop is not None and stop(total_w, total_u, err_w, err_u):
            break
        if evals + 30 > max_evals:
            raise fail(f"quadrature budget of {max_evals} evaluations exhausted")
        _, _, a, b, wi, ui, we, ue = heapq.heappop(heap)
        m = 0.5 * (a + b)
        if not (a < m < b):
            raise fail(f"interval [{a}, {b}] cannot be split further", (wi, ui))
        lw, lu, lwe, lue = panel(a, m, f(0.5 * (a + m)))
        rw, ru, rwe, rue = panel(m, b, f(0.5 * (m + b)))
        evals += 30
        if not (isfinite(lw) and isfinite(lu) and isfinite(rw) and isfinite(ru)):
            raise DomainError(f"integrand returned a non-finite value on [{a}, {b}]")
        total_w, total_u = total_w + (lw + rw - wi), total_u + (lu + ru - ui)
        err_w, err_u = err_w + (lwe + rwe - we), err_u + (lue + rue - ue)
        heapq.heappush(heap, (-max(lwe, lue * weight), counter, a, m, lw, lu, lwe, lue))
        heapq.heappush(heap, (-max(rwe, rue * weight), counter + 1, m, b, rw, ru, rwe, rue))
        counter += 2

    best = math.fsum(seg[4] for seg in heap)
    return (best, math.fsum(seg[5] for seg in heap)) if pair else best


def _require_index(name: str, i: int) -> int:
    """i as an int >= 0: a stream index or a stream path entry."""
    if isinstance(i, bool) or not isinstance(i, numbers.Integral):
        raise DomainError(f"{name} must be an integer, got {i!r}")
    if i < 0:
        raise DomainError(f"{name} must be >= 0, got {i}")
    return int(i)


@dataclass(frozen=True)
class SeededStream:
    """Address of a reproducible random stream.

    The same (seed, stream_index) always yields the same draw sequence;
    distinct stream indices yield statistically independent sequences.
    Monte Carlo code derives per-row and per-block substreams through
    child() paths.
    """

    seed: int
    stream_index: int = 0
    path: tuple[int, ...] = ()

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, numbers.Integral):
            raise DomainError(f"seed must be an integer, got {self.seed!r}")
        if not 0 <= int(self.seed) <= _U64_MAX:
            raise DomainError(f"seed must fit in an unsigned 64-bit integer, got {self.seed}")
        _require_index("stream_index", self.stream_index)
        object.__setattr__(self, "path", tuple(_require_index("path entry", p) for p in self.path))

    def child(self, *path: int) -> "SeededStream":
        """Substream address extended by the given derivation path."""
        return SeededStream(self.seed, self.stream_index, self.path + path)

    def generator(self) -> np.random.Generator:
        """Generator for this stream; child(*path).generator() for a substream.

        SeedSequence(seed, spawn_key=(stream_index, *path)) hashes the
        address into SFC64's state, so distinct addresses get independent
        streams without a keyed (counter-based) generator.  SFC64 draws
        are cheaper than Philox's (a uniform costs about half), and
        nothing here jumps or advances a stream, the one thing SFC64
        cannot do.
        """
        import numpy as np   # only here, so that calibration loads without numpy

        key = np.random.SeedSequence(entropy=int(self.seed),
                                     spawn_key=(int(self.stream_index), *self.path))
        return np.random.Generator(np.random.SFC64(key))

