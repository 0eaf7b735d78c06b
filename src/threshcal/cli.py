"""Batch command-line surface for standards authors.

Subcommands
    calibrate     calibrate the test threshold for the required count
    schedule      emit the count-dependent threshold schedule t(n')
    verify        Monte Carlo check of a schedule against the target p0
    simulate      minimal_effort or paradox demonstration runs
    expected-max  growth of the expected sample maximum with the count

Job file (JSON, all fields optional, unknown fields rejected):

    {
      "q0": 1.0,              true danger threshold (> 0)
      "p0": 0.01,             tolerated exceedance probability (0, 0.5)
      "n": 40,                required measurement count
      "n_list": [40, ...],    schedule counts; first entry must equal n
      "prior": {"type": "log_uniform", "sigma_lo": 0.01, "sigma_hi": 10.0},
      "cap_at_q0": true,      cap published thresholds at q0
      "tol": 1e-4,            calibration probability tolerance
      "trials": 100000,       Monte Carlo trials
      "seed": 0               master seed (unsigned 64-bit)
    }

Defaults: q0 = 1, p0 = 0.01, n = 40, n_list doubles from n to 16 n, the
prior is log-uniform on [q0/100, 10 q0], cap_at_q0 = true, tol = 1e-4,
trials = 100000, seed = 0.  Command-line flags override file fields.

All randomness flows from the single job seed through fixed stream indices:
verify uses stream 1 (one child per schedule row), simulate minimal_effort
stream 2, simulate paradox stream 3 (one child per n_list row, whose
simulated maxima are scored against both the fixed and the scheduled
threshold), expected-max stream 4.  For a given release, repeated runs with
the same inputs are byte-identical.

Tables go to standard output as CSV with a header row and 12-significant-
digit numbers; diagnostics go to standard error.  Exit codes:

    0  success
    1  input error, including a job or schedule file that cannot be read
       or decoded (UTF-8, and JSON for a job), a count (n, an n_list entry,
       trials, --n) above 2**36, and an --out path that cannot be written
    2  infeasibility (no threshold can meet the target), or a quadrature
       that exhausts its budget before converging
    3  verification failure: a verify row whose estimate exceeds p0 by
       more than four standard errors, whose conditioning event never
       accepts, or that is underpowered
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace

from .calibration import (
    SafetySpec,
    SigmaPrior,
    calibrate_schedule,
    calibrate_threshold,
    next_exceeds_max_probability,
    threshold_schedule,
)
from .errors import (
    ConfigurationError,
    DomainError,
    InfeasibilityError,
    InfeasibleConditioningError,
    InsufficientDataError,
    IntegrationError,
    SolverError,
)
from .gaussian import (
    SeededStream,
    _require_count,
    _require_counts,
    _require_finite,
    std_normal_quantile,
)
from .paradox import (
    estimate_conditional_exceedance,
    expected_max_asymptotic,
    expected_max_exact,
    expected_max_monte_carlo,
    paradox_curve,
    simulate_minimal_effort,
)

EXIT_OK = 0
EXIT_INPUT_ERROR = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

STREAM_VERIFY = 1
STREAM_MINIMAL_EFFORT = 2
STREAM_PARADOX = 3
STREAM_EXPECTED_MAX = 4

# fixed-rule acceptance probability the paradox demo anchors at n_required
_PARADOX_ANCHOR_ACCEPTANCE = 0.9

_JOB_FIELDS = ("q0", "p0", "n", "n_list", "prior", "cap_at_q0", "tol", "trials", "seed")
_PRIOR_FIELDS = ("type", "sigma_lo", "sigma_hi")


class JobError(ValueError):
    """Malformed job file or schedule input."""


@dataclass(frozen=True)
class JobSpec:
    """A fully resolved batch job; a field failing a library check raises JobError."""

    spec: SafetySpec
    prior: SigmaPrior
    n_required: int
    n_list: tuple[int, ...]
    cap_at_q0: bool
    tol: float
    trials: int
    seed: int

    def __post_init__(self):
        try:
            _require_count("n", self.n_required)
            object.__setattr__(self, "n_list", _require_counts("n_list", self.n_list))
            object.__setattr__(self, "tol", _require_finite("tol", self.tol))
            _require_count("trials", self.trials)
            SeededStream(seed=self.seed)
        except DomainError as exc:
            raise JobError(str(exc)) from exc
        if self.n_list[0] != self.n_required:
            raise JobError(
                f"the first n_list entry must equal n ({self.n_required}), "
                f"got {self.n_list[0]}")
        if not 0.0 < self.tol < 1.0:
            raise JobError(f"tol must lie in (0, 1), got {self.tol!r}")

    def to_dict(self) -> dict:
        return {
            "q0": self.spec.q0,
            "p0": self.spec.p0,
            "n": self.n_required,
            "n_list": list(self.n_list),
            "prior": {"type": self.prior.kind,
                      "sigma_lo": self.prior.sigma_lo,
                      "sigma_hi": self.prior.sigma_hi},
            "cap_at_q0": self.cap_at_q0,
            "tol": self.tol,
            "trials": self.trials,
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "JobSpec":
        if not isinstance(data, dict):
            raise JobError(f"job file must hold a JSON object, got {type(data).__name__}")
        unknown = sorted(set(data) - set(_JOB_FIELDS))
        if unknown:
            raise JobError(f"unknown job fields: {', '.join(unknown)}")
        n_list = data.get("n_list")
        if not isinstance(n_list, (list, type(None))):
            raise JobError("n_list must be a list of integers")
        prior_data = data.get("prior", {})
        if not isinstance(prior_data, dict):
            raise JobError("prior must be an object")
        unknown = sorted(set(prior_data) - set(_PRIOR_FIELDS))
        if unknown:
            raise JobError(f"unknown prior fields: {', '.join(unknown)}")
        cap = data.get("cap_at_q0", True)
        if not isinstance(cap, bool):
            raise JobError(f"cap_at_q0 must be a boolean, got {cap!r}")
        try:
            spec = SafetySpec(q0=data.get("q0", 1.0), p0=data.get("p0", 0.01))
            # n is checked here, before the default n_list is built from it
            n = _require_count("n", data.get("n", 40))
            prior = SigmaPrior(prior_data.get("type", "log_uniform"),
                               prior_data.get("sigma_lo", spec.q0 / 100.0),
                               prior_data.get("sigma_hi", 10.0 * spec.q0))
        except DomainError as exc:
            raise JobError(str(exc)) from exc
        return cls(spec=spec, prior=prior, n_required=n,
                   n_list=[n * 2**k for k in range(5)] if n_list is None else n_list,
                   cap_at_q0=cap, tol=data.get("tol", 1e-4),
                   trials=data.get("trials", 100_000), seed=data.get("seed", 0))

    @classmethod
    def from_file(cls, path: str) -> "JobSpec":
        text = _read_text(path, "job file")
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:   # also too many digits or too deep
            raise JobError(f"job file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise JobError(f"cannot read {what} {path}: {exc}") from exc


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def _csv(rows: list[list[str]]) -> str:
    return "\n".join(",".join(row) for row in rows) + "\n"


def _flag(value: bool) -> str:
    return "true" if value else "false"


def cmd_calibrate(job: JobSpec) -> tuple[int, str]:
    """Single calibration at the required count.

    A capped calibration does not search for the root above q0, so for a
    capped row the uncapped_threshold and iterations columns come from a
    second, uncapped calibration: its threshold and bisection steps, or
    inf and 0 when it raises SolverError because the exceedance stays
    below p0 at every threshold (always, under a point prior).  It
    warm-starts at q0, which the capped one just showed feasible.
    """
    result = calibrate_threshold(job.spec, job.n_required, job.prior,
                                 cap_at_q0=job.cap_at_q0, tol=job.tol)
    iterations, uncapped = result.iterations, result.threshold
    if result.capped:
        try:
            root = calibrate_threshold(job.spec, job.n_required, job.prior,
                                       cap_at_q0=False, tol=job.tol, warm_start=job.spec.q0)
            iterations, uncapped = root.iterations, root.threshold
        except SolverError:
            iterations, uncapped = 0, math.inf
    rows = [["threshold", "achieved", "capped", "iterations",
             "uncapped_threshold", "bracket_lo", "bracket_hi"],
            [_fmt(result.threshold), _fmt(result.achieved), _flag(result.capped),
             str(iterations), _fmt(uncapped),
             _fmt(result.bracket[0]), _fmt(result.bracket[1])]]
    return EXIT_OK, _csv(rows)


def cmd_schedule(job: JobSpec) -> tuple[int, str]:
    """Threshold schedule over the job's n_list, one row per count."""
    _, results = calibrate_schedule(job.spec, job.prior, job.n_list,
                                    cap_at_q0=job.cap_at_q0, tol=job.tol)
    rows = [["n_prime", "threshold", "achieved", "capped"]]
    for n_prime, result in zip(job.n_list, results):
        rows.append([str(n_prime), _fmt(result.threshold),
                     _fmt(result.achieved), _flag(result.capped)])
    return EXIT_OK, _csv(rows)


def _parse_schedule_csv(text: str) -> list[tuple[int, float]]:
    lines = [line.strip() for line in text.splitlines() if line.strip()]
    if len(lines) < 2:
        raise JobError("schedule input needs a header row and at least one entry")
    header = [h.strip() for h in lines[0].split(",")]
    if "n_prime" not in header or "threshold" not in header:
        raise JobError("schedule header must name n_prime and threshold columns")
    i_n = header.index("n_prime")
    i_t = header.index("threshold")
    rows = []
    for line in lines[1:]:
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != len(header):
            raise JobError(f"schedule row has {len(parts)} fields, expected {len(header)}: {line}")
        try:
            rows.append((int(parts[i_n]), float(parts[i_t])))
        except ValueError as exc:
            raise JobError(f"unparseable schedule row: {line}") from exc
    _require_counts("n_prime", [n for n, _ in rows])
    return rows


def cmd_verify(job: JobSpec, schedule_text: str) -> tuple[int, str]:
    """Monte Carlo check of each schedule row against the target p0.

    A row fails ("false") when its estimated conditional exceedance exceeds
    p0 by more than four standard errors (the guarantee is one-sided; a
    capped threshold may sit well below the target).  A row whose
    conditioning event never accepts is reported as nan and fails.  A row
    that does not fail but kept fewer than 32 (1 - 2 p0) / p0 runs is
    "underpowered": there, four standard errors at a 2x violation reach p0,
    so it could not have caught one.  It does not pass, and stderr names
    the kept runs it needs.  Every other row passes ("true").
    """
    entries = _parse_schedule_csv(schedule_text)
    base = SeededStream(seed=job.seed, stream_index=STREAM_VERIFY)
    rows = [["n_prime", "threshold", "estimate", "standard_error",
             "accepted_runs", "pass"]]
    p0 = job.spec.p0
    runs_needed = math.ceil(32.0 * (1.0 - 2.0 * p0) / p0)
    failures = 0
    for row_index, (n_prime, threshold) in enumerate(entries):
        try:
            report = estimate_conditional_exceedance(
                job.spec, threshold, n_prime, job.prior, job.trials,
                base.child(row_index))
        except InfeasibleConditioningError:
            failures += 1
            rows.append([str(n_prime), _fmt(threshold), "nan", "nan", "0", "false"])
            continue
        ok = report.estimate - p0 <= 4.0 * report.standard_error
        verdict = _flag(ok)
        if ok and report.accepted_runs < runs_needed:
            ok, verdict = False, "underpowered"
            print(f"verify: row n' = {n_prime} is underpowered: {report.accepted_runs} "
                  f"kept runs, {runs_needed} needed to resolve a 2x violation of p0",
                  file=sys.stderr)
        failures += 0 if ok else 1
        rows.append([str(n_prime), _fmt(threshold), _fmt(report.estimate),
                     _fmt(report.standard_error), str(report.accepted_runs), verdict])
    print(f"verify: {len(entries) - failures}/{len(entries)} rows passed", file=sys.stderr)
    return (EXIT_OK if failures == 0 else EXIT_VERIFY_FAILED), _csv(rows)


def cmd_simulate(job: JobSpec, mode: str) -> tuple[int, str]:
    """Demonstration runs; see the module docstring for the two modes."""
    if mode == "minimal_effort":
        stream = SeededStream(seed=job.seed, stream_index=STREAM_MINIMAL_EFFORT)
        report = simulate_minimal_effort(job.n_required, job.trials, stream)
        rows = [["n", "estimate", "standard_error", "expected"],
                [str(job.n_required), _fmt(report.estimate),
                 _fmt(report.standard_error), _fmt(next_exceeds_max_probability(job.n_required))]]
        return EXIT_OK, _csv(rows)

    # paradox mode: build the schedule, then pick the true scale so the
    # fixed-rule acceptance at the required count is the anchor value
    rule = threshold_schedule(job.spec, job.prior, job.n_list,
                              cap_at_q0=job.cap_at_q0, tol=job.tol)
    sigma_true = rule.threshold / std_normal_quantile(
        _PARADOX_ANCHOR_ACCEPTANCE ** (1.0 / rule.n_required))
    print(f"paradox: sigma_true = {_fmt(sigma_true)} anchors fixed-rule acceptance "
          f"{_fmt(_PARADOX_ANCHOR_ACCEPTANCE)} at n = {rule.n_required}", file=sys.stderr)
    stream = SeededStream(seed=job.seed, stream_index=STREAM_PARADOX)
    points = paradox_curve(sigma_true, rule, job.n_list, job.trials, stream)
    rows = [["n_prime", "rejection_fixed", "rejection_schedule"]]
    for point in points:
        rows.append([str(point.n_prime), _fmt(point.rejection_fixed),
                     _fmt(point.rejection_schedule)])
    return EXIT_OK, _csv(rows)


def cmd_expected_max(n: int, sigma: float, method: str, trials: int,
                     seed: int) -> tuple[int, str]:
    """Expected-maximum estimates; method 'all' compares the three routes."""
    stream = SeededStream(seed=seed, stream_index=STREAM_EXPECTED_MAX)
    if method == "asymptotic":
        return EXIT_OK, _fmt(expected_max_asymptotic(n, sigma)) + "\n"
    if method == "exact":
        return EXIT_OK, _fmt(expected_max_exact(n, sigma)) + "\n"
    if method == "monte_carlo":
        return EXIT_OK, _fmt(expected_max_monte_carlo(n, sigma, trials, stream)[0]) + "\n"
    asym = expected_max_asymptotic(n, sigma)
    exact = expected_max_exact(n, sigma)
    mc_mean, mc_se = expected_max_monte_carlo(n, sigma, trials, stream)
    rows = [["method", "value", "standard_error"],
            ["asymptotic", _fmt(asym), ""],
            ["exact", _fmt(exact), ""],
            ["monte_carlo", _fmt(mc_mean), _fmt(mc_se)],
            ["exact_over_asymptotic", _fmt(exact / asym), ""]]
    return EXIT_OK, _csv(rows)


class _Parser(argparse.ArgumentParser):
    """argparse maps usage errors to exit 2; this surface reserves 2 for
    infeasibility, so usage errors are rethrown as input errors."""

    def error(self, message):
        raise JobError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="threshcal",
                     description="calibrate and verify count-dependent safety test thresholds")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--job", metavar="PATH", help="JSON job file (defaults apply without it)")
        p.add_argument("--seed", type=int, help="override the job seed")
        p.add_argument("--trials", type=int, help="override the job trial count")
        p.add_argument("--out", metavar="PATH", help="write the table to a file instead of stdout")

    add_common(sub.add_parser("calibrate", help="calibrate the threshold at the required count"))
    add_common(sub.add_parser(
        "schedule", help="emit the threshold schedule over the job's n_list"))

    p_verify = sub.add_parser("verify", help="Monte Carlo check of a schedule table")
    add_common(p_verify)
    p_verify.add_argument("--schedule", metavar="PATH", required=True,
                          help="schedule CSV with n_prime and threshold columns")

    p_sim = sub.add_parser("simulate", help="run a demonstration")
    add_common(p_sim)
    p_sim.add_argument("mode", choices=["minimal_effort", "paradox"])

    p_em = sub.add_parser("expected-max", help="expected sample maximum by count")
    add_common(p_em)
    p_em.add_argument("--n", type=int, required=True, help="sample size")
    p_em.add_argument("--sigma", type=float, default=1.0, help="scale (default 1.0)")
    p_em.add_argument("--method", choices=["asymptotic", "exact", "monte_carlo", "all"],
                      default="all")
    return parser


def _load_job(args) -> JobSpec:
    job = JobSpec.from_file(args.job) if args.job else JobSpec.from_dict({})
    if args.seed is not None:
        job = replace(job, seed=args.seed)
    if args.trials is not None:
        job = replace(job, trials=args.trials)
    return job


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    try:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise JobError(f"cannot write output file {out_path}: {exc}") from exc


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "expected-max":
            job = _load_job(args)
            code, text = cmd_expected_max(args.n, args.sigma, args.method,
                                          job.trials, job.seed)
        elif args.command == "calibrate":
            code, text = cmd_calibrate(_load_job(args))
        elif args.command == "schedule":
            code, text = cmd_schedule(_load_job(args))
        elif args.command == "verify":
            schedule_text = _read_text(args.schedule, "schedule file")
            code, text = cmd_verify(_load_job(args), schedule_text)
        else:
            code, text = cmd_simulate(_load_job(args), args.mode)
        _emit(text, args.out)
    except (JobError, DomainError, ConfigurationError, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    except (InfeasibilityError, InfeasibleConditioningError, SolverError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except IntegrationError as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    return code


if __name__ == "__main__":
    sys.exit(main())
