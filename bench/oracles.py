"""Checks of every CLI output row against an independent reference.

Each output row is one operation.  A row fails when its value breaks the
property the paper promises for it:

* calibrate / schedule: achieved > p0 (the guarantee is one-sided), an
  achieved value that disagrees with the quadrature at the printed
  threshold, or a threshold below the previous row's;
* verify: the estimate is more than Z standard errors from the quadrature
  conditional exceedance at the same threshold;
* simulate minimal_effort: more than Z SE from 1/(n+1);
* simulate paradox: either rate more than Z SE from
  1 - acceptance_probability(sigma_true, t, n');
* expected-max: the Monte Carlo mean more than Z SE from the quadrature
  mean, or a closed-form row that disagrees with its formula.

The standard errors come from the reference value and the trial count,
not from the printed ones.  An invocation that raises, exits with a code
its output does not explain, prints a malformed table or prints something
else than the reference pass fails all of its rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from threshcal.calibration import (
    acceptance_probability,
    conditional_exceedance,
    threshold_schedule,
)
from threshcal.cli import JobSpec
from threshcal.gaussian import integrate, log_std_normal_cdf, std_normal_pdf, std_normal_quantile
from threshcal.paradox import EULER_GAMMA, expected_max_exact

from workloads import Step

Z = 4.0
# The CLI picks sigma_true so the fixed rule accepts this share of runs at
# the required count (see `threshcal simulate paradox`).
PARADOX_ANCHOR_ACCEPTANCE = 0.9
# Printed numbers carry 12 significant digits; achieved values are
# recomputed at a rounded threshold, hence the looser tolerance.
EXACT_RTOL = 1e-9
ACHIEVED_RTOL = 1e-6

_HEADERS = {
    "calibrate": ["threshold", "achieved", "capped", "iterations",
                  "uncapped_threshold", "bracket_lo", "bracket_hi"],
    "schedule": ["n_prime", "threshold", "achieved", "capped"],
    "verify": ["n_prime", "threshold", "estimate", "standard_error",
               "accepted_runs", "pass"],
    "minimal_effort": ["n", "estimate", "standard_error", "expected"],
    "paradox": ["n_prime", "rejection_fixed", "rejection_schedule"],
    "expected_max": ["method", "value", "standard_error"],
}


@dataclass(frozen=True)
class Invocation:
    """What one CLI call returned."""

    code: int | None            # None when main() raised
    stdout: str
    out_text: str | None        # content of the --out file, if the step has one
    stderr: str
    seconds: float

    @property
    def output(self) -> tuple:
        """Everything that must repeat byte for byte at one seed."""
        return (self.code, self.stdout, self.out_text)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def _within(estimate: float, p: float, count: int) -> bool:
    """A binomial share estimate within Z SE of its reference probability."""
    return abs(estimate - p) <= Z * math.sqrt(p * (1.0 - p) / count)


def parse_table(kind: str, text: str) -> list[dict[str, str]]:
    header, *lines = text.splitlines() or [""]
    if header.split(",") != _HEADERS[kind]:
        raise ValueError(f"{kind}: unexpected header {header!r}")
    rows = [line.split(",") for line in lines]
    if any(len(fields) != len(header.split(",")) for fields in rows):
        raise ValueError(f"{kind}: row with a wrong field count")
    return [dict(zip(_HEADERS[kind], fields)) for fields in rows]


def expected_exit(kind: str, rows: list[dict[str, str]]) -> int:
    """verify exits 3 exactly when it prints a failing row; the rest exit 0."""
    if kind == "verify" and any(row["pass"] != "true" for row in rows):
        return 3
    return 0


def _achieved_ok(job: JobSpec, threshold: float, n: int, achieved: float) -> bool:
    return (achieved <= job.spec.p0 and _close(
        achieved, conditional_exceedance(job.spec, threshold, n, job.prior), ACHIEVED_RTOL))


def _max_second_moment(n: int) -> float:
    window = math.sqrt(2.0 * math.log(max(n, 2))) + 9.0

    def integrand(x: float) -> float:
        return n * x * x * std_normal_pdf(x) * math.exp((n - 1) * log_std_normal_cdf(x))

    return integrate(integrand, -window, window, rel_tol=1e-11, abs_tol=1e-13)


def grade_rows(step: Step, job: JobSpec, rows: list[dict[str, str]]) -> list[bool]:
    """One verdict per output row; True means the row holds."""
    kind = step.kind
    if kind == "calibrate":
        (row,) = rows
        return [_achieved_ok(job, float(row["threshold"]), job.n_required,
                             float(row["achieved"]))]
    if kind == "schedule":
        verdicts, previous = [], -math.inf
        for row, n_prime in zip(rows, job.n_list, strict=True):
            t = float(row["threshold"])
            verdicts.append(int(row["n_prime"]) == n_prime and t >= previous
                            and _achieved_ok(job, t, n_prime, float(row["achieved"])))
            previous = t
        return verdicts
    if kind == "verify":
        verdicts = []
        for row in rows:
            kept = int(row["accepted_runs"])
            ce = conditional_exceedance(job.spec, float(row["threshold"]),
                                        int(row["n_prime"]), job.prior)
            verdicts.append(kept > 0 and _within(float(row["estimate"]), ce, kept))
        return verdicts
    if kind == "minimal_effort":
        (row,) = rows
        p = 1.0 / (job.n_required + 1)
        return [int(row["n"]) == job.n_required and _close(float(row["expected"]), p, EXACT_RTOL)
                and _within(float(row["estimate"]), p, job.trials)]
    if kind == "paradox":
        rule = threshold_schedule(job.spec, job.prior, job.n_list,
                                  cap_at_q0=job.cap_at_q0, tol=job.tol)
        sigma = rule.threshold / std_normal_quantile(
            PARADOX_ANCHOR_ACCEPTANCE ** (1.0 / rule.n_required))
        verdicts = []
        for row, (n_prime, t) in zip(rows, rule.schedule, strict=True):
            fixed = 1.0 - acceptance_probability(sigma, rule.threshold, n_prime)
            sched = 1.0 - acceptance_probability(sigma, t, n_prime)
            verdicts.append(int(row["n_prime"]) == n_prime
                            and _within(float(row["rejection_fixed"]), fixed, job.trials)
                            and _within(float(row["rejection_schedule"]), sched, job.trials))
        return verdicts
    if kind == "expected_max":
        n = step.max_n
        exact = expected_max_exact(n)
        asym = EULER_GAMMA * math.sqrt(2.0 * math.log(n))
        se = math.sqrt(max(0.0, _max_second_moment(n) - exact * exact) / job.trials)
        values = {row["method"]: float(row["value"]) for row in rows}
        if list(values) != ["asymptotic", "exact", "monte_carlo", "exact_over_asymptotic"]:
            raise ValueError(f"expected-max: unexpected methods {list(values)}")
        return [_close(values["asymptotic"], asym, EXACT_RTOL),
                _close(values["exact"], exact, EXACT_RTOL),
                abs(values["monte_carlo"] - exact) <= Z * se,
                _close(values["exact_over_asymptotic"], exact / asym, EXACT_RTOL)]
    raise ValueError(f"unknown step kind {kind!r}")


def check(step: Step, job: JobSpec, inv: Invocation,
          reference: Invocation | None = None) -> tuple[int, str | None]:
    """Grade one invocation: (failed rows, integrity problem or None).

    reference is the same step's invocation in the first pass; any
    difference from it fails every row.
    """
    if reference is not None and inv.output != reference.output:
        return step.rows, "output differs from the reference pass"
    if inv.code is None:
        return step.rows, "raised: " + inv.stderr.strip().splitlines()[-1]
    text = inv.out_text if step.out is not None else inv.stdout
    try:
        rows = parse_table(step.kind, text or "")
        if len(rows) != step.rows:
            raise ValueError(f"{step.kind}: {len(rows)} rows, expected {step.rows}")
        verdicts = grade_rows(step, job, rows)
    except (ValueError, KeyError) as exc:
        return step.rows, f"malformed output: {exc}"
    if inv.code != expected_exit(step.kind, rows):
        return step.rows, f"exit code {inv.code}, expected {expected_exit(step.kind, rows)}"
    return verdicts.count(False), None
