"""Brute-force Monte Carlo oracles: every trial draws its whole sample.

These kernels draw all n' normals of a trial and take the row maximum
explicitly.  They share no code with the library's order-statistic
kernels or with its quadrature, so tests use them as independent
references for the distributions the library samples.  Each returns an
Estimate whose standard error is binomial (for frequencies) or the
standard error of the mean.
"""

import math
from typing import NamedTuple

import numpy as np

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


def minimal_effort_rejections(n_required: int, n_performed: int, ratio: float,
                              trials: int, rng: np.random.Generator) -> Estimate:
    """Share of trials where the maximum of the extra draws exceeds ratio
    times the maximum of the first n_required."""
    hits = 0
    for size in _chunks(trials, n_performed):
        z = rng.standard_normal((size, n_performed))
        hits += int((z[:, n_required:].max(axis=1)
                     > z[:, :n_required].max(axis=1) * ratio).sum())
    return _frequency(hits, trials)


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
