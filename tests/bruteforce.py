"""Brute-force Monte Carlo oracles: every trial draws its whole sample.

These kernels draw all n' normals of a trial and take the row maximum
explicitly.  They share no code with the library's order-statistic
kernels or with its quadrature, so tests use them as independent
references for the distributions the library samples.  Each returns an
Estimate whose standard error is binomial (for frequencies) or the
standard error of the mean.

masked_quantile_log is a bit-level reference rather than a statistical
one: the vectorised quantile evaluated branch by branch under boolean
masks, the straightforward form of the library's slice kernel.
"""

import math
from typing import NamedTuple

import numpy as np

from threshcal.gaussian import _ACK_A, _ACK_B, _ACK_C, _ACK_D, _ACK_LOG_P_HIGH, _ACK_LOG_P_LOW

# Normals held in memory at once.
_CHUNK_FLOATS = 1 << 21


class Estimate(NamedTuple):
    value: float
    standard_error: float


def _frequency(hits: int, trials: int) -> Estimate:
    p = hits / trials
    return Estimate(p, math.sqrt(p * (1.0 - p) / trials))


def _chunks(trials: int, width: int):
    size = max(1, _CHUNK_FLOATS // width)
    for start in range(0, trials, size):
        yield min(size, trials - start)


def minimal_effort(n: int, trials: int, rng: np.random.Generator) -> Estimate:
    """Share of trials where one further draw exceeds the maximum of n."""
    hits = 0
    for size in _chunks(trials, n + 1):
        z = rng.standard_normal((size, n + 1))
        hits += int((z[:, n] > z[:, :n].max(axis=1)).sum())
    return _frequency(hits, trials)


def fixed_sigma_rejections(n: int, sigma: float, thresholds, trials: int,
                           rng: np.random.Generator) -> list[Estimate]:
    """Per threshold, the share of trials whose maximum of n draws at scale
    sigma exceeds it; all thresholds score the same samples."""
    hits = [0] * len(thresholds)
    for size in _chunks(trials, n):
        peak = rng.standard_normal((size, n)).max(axis=1) * sigma
        for i, t in enumerate(thresholds):
            hits[i] += int((peak > t).sum())
    return [_frequency(h, trials) for h in hits]


def conditional_exceedance(q0: float, threshold: float, n: int, sigma_lo: float,
                           sigma_hi: float, trials: int,
                           rng: np.random.Generator) -> Estimate:
    """Rejection sampling under a log-uniform scale: among runs whose
    maximum of n draws stays within the threshold, the share whose one
    further draw exceeds q0."""
    kept = exceed = 0
    for size in _chunks(trials, n + 1):
        sigma = np.exp(rng.uniform(math.log(sigma_lo), math.log(sigma_hi), size))
        z = rng.standard_normal((size, n + 1))
        accepted = z[:, :n].max(axis=1) * sigma <= threshold
        kept += int(accepted.sum())
        exceed += int((accepted & (z[:, n] * sigma > q0)).sum())
    return _frequency(exceed, kept)


def expected_max(n: int, sigma: float, trials: int, rng: np.random.Generator) -> Estimate:
    """Mean of the maximum of n draws at scale sigma."""
    total = total_sq = 0.0
    for size in _chunks(trials, n):
        m = rng.standard_normal((size, n)).max(axis=1) * sigma
        total += float(m.sum())
        total_sq += float((m * m).sum())
    mean = total / trials
    var = (total_sq - trials * mean * mean) / (trials - 1)
    return Estimate(mean, math.sqrt(max(var, 0.0) / trials))


def _acklam_tail(q):
    c, d = _ACK_C, _ACK_D
    r = 1.0 / q
    num = ((((c[5] * r + c[4]) * r + c[3]) * r + c[2]) * r + c[1]) * r + c[0]
    den = (((r + d[3]) * r + d[2]) * r + d[1]) * r + d[0]
    return q * num / den


def _acklam_central(q):
    a, b = _ACK_A, _ACK_B
    r = q * q
    return ((((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q
            / (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0))


def masked_quantile_log(lp: np.ndarray) -> np.ndarray:
    """Phi^-1(exp(lp)) for a 1-d lp: Acklam's branches, written out with
    the library's coefficients, each evaluated on its own masked elements
    only."""
    out = np.empty_like(lp)
    low = lp < _ACK_LOG_P_LOW
    high = lp > _ACK_LOG_P_HIGH
    mid = ~(low | high)
    with np.errstate(divide="ignore"):
        out[low] = _acklam_tail(np.sqrt(-2.0 * lp[low]))
        out[high] = -_acklam_tail(np.sqrt(-2.0 * np.log(-np.expm1(lp[high]))))
    out[mid] = _acklam_central(np.exp(lp[mid]) - 0.5)
    return out
