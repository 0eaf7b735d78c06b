"""Conditional exceedance by mpmath quadrature placed on the integrands' bumps.

The library integrates over ln(sigma) from a uniform initial grid, which
misses a numerator bump far narrower than a panel on a prior hundreds of
decades wide.  A reference that spreads its panels the same way shares
that blind spot.  This one first locates each integrand, then integrates
where it lives:

1. It scans ln w (w = Phi(threshold / sigma)**n, the denominator's
   integrand) and ln w + ln sf(q0 / sigma) (the numerator's) in floats at
   2,001 points evenly spaced in ln(sigma).  The logarithms stay finite
   where the integrands underflow a float.
2. Each integrand's bump is where its logarithm lies within _CUT of its
   largest scanned value, widened by one scan step on each side.  A bump
   that spans fewer than _RESOLVED steps is scanned again across itself.
3. Inside the bump, the stretch where the logarithm still changes (by
   more than _FLAT from its level at either end of the scan) gets 40
   equal panels; flat stretches before and after it get one panel each.
4. mpmath integrates each component over its own panels at ORACLE_DPS
   digits by Gauss-Legendre, shifted by its scanned peak, and the oracle
   asserts that mpmath's error estimate is within 1e-15 of the value.

It uses no code of the library, and costs about 0.1-0.6 s per value.
"""

import math

import mpmath

ORACLE_DPS = 30
SCAN_POINTS = 2001
BUMP_PANELS = 40
# Integrand values this far (in ln) below the scanned peak are left out: 1e-40 relative.
_CUT = 92.0
# A bump that spans fewer scan steps than this is scanned again, across the
# bump alone, until it spans more or its width nears a float's resolution in ln(sigma).
_RESOLVED = 200
_MAX_ZOOMS = 12
# A stretch whose ln integrand stays this close to its level at the scan's ends is flat.
_FLAT = 1e-12
# A numerator this far (in ln) below the denominator underflows the ratio to 0.0.
_NEGLIGIBLE = -1000.0
# Beyond this |x|, ln Phi(x) comes from its tail series: mpmath's erfc
# overflows a float sizing its own series near |x| = 1e154.
_ASYMPTOTIC = 1e6
# Gauss-Legendre up to 3 * 2**7 nodes a panel, to an estimated relative error of 1e-15.
_MAX_DEGREE = 8
_REL_ERROR = 1e-15
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)


def _log_ncdf(x):
    """ln Phi(x) in mpmath, accurate in both tails."""
    if x > _ASYMPTOTIC:     # -sf(x) is below -1e-(10^11)
        return mpmath.mpf(0)
    if x < -_ASYMPTOTIC:    # the tail series of ln sf(-x), good to 15 / x**6
        y2 = x * x
        return (-y2 / 2 - mpmath.log(-x * mpmath.sqrt(2 * mpmath.pi))
                + mpmath.log1p(-1 / y2 + 3 / y2**2))
    if x > 0:
        return mpmath.log1p(-mpmath.ncdf(-x))
    return mpmath.log(mpmath.ncdf(x))


def _float_log_ncdf(x):
    """ln Phi(x) in floats, for the scan; -inf where x * x overflows."""
    if x > 0.0:
        return math.log1p(-0.5 * math.erfc(x / _SQRT2))
    if x > -30.0:
        return math.log(0.5 * math.erfc(-x / _SQRT2))
    return -0.5 * x * x - math.log(-x * _SQRT2PI) + math.log1p(-1.0 / (x * x))


def _scaled(c, t):
    """c / exp(t) in floats, where c / exp(t) itself may overflow."""
    if c == 0.0:
        return 0.0
    return math.copysign(math.exp(min(math.log(abs(c)) - t, 709.0)), c)


def _bump(log_f, t_lo, t_hi):
    """The scanned peak of log_f on [t_lo, t_hi] and panel edges over its bump;
    None where log_f is -inf at every scan point."""
    lo, hi = t_lo, t_hi
    for _ in range(_MAX_ZOOMS):
        ts = [lo + (hi - lo) * k / (SCAN_POINTS - 1) for k in range(SCAN_POINTS)]
        logs = [log_f(t) for t in ts]
        top = max(logs)
        if top == -math.inf:
            return None
        bump = [i for i, v in enumerate(logs) if v >= top - _CUT]
        start, end = max(bump[0] - 1, 0), min(bump[-1] + 1, SCAN_POINTS - 1)
        if end - start >= _RESOLVED or ts[end] - ts[start] <= 1e-12 * max(1.0, abs(lo)):
            break
        lo, hi = ts[start], ts[end]
    varying = [i for i in range(start, end + 1)
               if abs(logs[i] - logs[0]) > _FLAT and abs(logs[i] - logs[-1]) > _FLAT]
    if not varying:
        return top, [ts[start], ts[end]]
    first, last = max(varying[0] - 1, start), min(varying[-1] + 1, end)
    edges = [ts[start]] if first > start else []
    edges += [ts[first] + (ts[last] - ts[first]) * k / BUMP_PANELS for k in range(BUMP_PANELS)]
    return top, edges + [ts[last]] + ([ts[end]] if last < end else [])


def _log_integral(log_f, top, edges):
    """ln of the integral of exp(log_f) across the panel edges: mpmath's
    Gauss-Legendre on the integrand shifted by its scanned peak top, held
    to its own error estimate."""
    value, error = mpmath.quad(lambda t: mpmath.exp(log_f(t) - top),
                               [mpmath.mpf(t) for t in edges], method="gauss-legendre",
                               maxdegree=_MAX_DEGREE, error=True)
    assert error <= _REL_ERROR * value, (value, error)
    return top + mpmath.log(value)


def conditional_exceedance(q0, threshold, n, sigma_lo, sigma_hi):
    """P(next > q0 | max of n draws <= threshold), sigma log-uniform on
    [sigma_lo, sigma_hi], as a float; None where ln w is -inf at every scan
    point, so that the conditioning event is impossible in floats."""
    t_lo, t_hi = math.log(sigma_lo), math.log(sigma_hi)

    def scan_w(t):
        return n * _float_log_ncdf(_scaled(threshold, t))

    w_bump = _bump(scan_w, t_lo, t_hi)
    if w_bump is None:
        return None
    n_bump = _bump(lambda t: scan_w(t) + _float_log_ncdf(-_scaled(q0, t)), t_lo, t_hi)
    if n_bump is None or n_bump[0] - w_bump[0] < _NEGLIGIBLE:
        return 0.0
    with mpmath.workdps(ORACLE_DPS):
        mp_q0, mp_threshold = mpmath.mpf(q0), mpmath.mpf(threshold)

        def log_w(t):
            return n * _log_ncdf(mp_threshold * mpmath.exp(-t))

        def log_numer(t):
            return log_w(t) + _log_ncdf(-mp_q0 * mpmath.exp(-t))

        return float(mpmath.exp(_log_integral(log_numer, *n_bump)
                                - _log_integral(log_w, *w_bump)))
