"""The benchmark's workloads: job files and CLI steps, generated from a seed.

Each workload is a fixed list of `threshcal` CLI invocations that run one
after another in one process (a closed loop with one client).  The seed
becomes the job `seed`; the program sees only the job files and schedule
CSVs written here.  README.md gives the reason for each workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

# A copy of demos/demo_job.json, kept here so the workload stays fixed when
# the demo changes.
DEMO_JOB = {
    "q0": 1.0, "p0": 0.01, "n": 40, "n_list": [40, 80, 160, 320, 640],
    "prior": {"type": "log_uniform", "sigma_lo": 0.01, "sigma_hi": 10.0},
    "cap_at_q0": False, "tol": 1e-4, "trials": 100000,
}
FEW_JOB = {
    "q0": 1.0, "p0": 0.01, "n": 2, "n_list": [2, 4, 8, 16, 32],
    "prior": {"type": "log_uniform", "sigma_lo": 0.01, "sigma_hi": 1.0},
    "cap_at_q0": True, "trials": 1000000,
}
SWEEP_P0 = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)
SWEEP_N_LIST = [40 * 2**k for k in range(16)]

# Per subcommand kind: the name of its summed wall-time metric.
KIND_METRIC = {
    "calibrate": "calibrate_s",
    "schedule": "schedule_s",
    "verify": "verify_s",
    "minimal_effort": "simulate_minimal_effort_s",
    "paradox": "simulate_paradox_s",
    "expected_max": "expected_max_s",
}
CALIBRATION_KINDS = ("calibrate", "schedule")
WORKLOADS = ("demo-pipeline", "few-measurements", "schedule-sweep")


@dataclass(frozen=True)
class Step:
    """One CLI invocation and what its output must hold."""

    kind: str                   # a key of KIND_METRIC
    argv: tuple[str, ...]
    job: str                    # name of the job file the step reads
    rows: int                   # output rows, each one graded operation
    trial_rows: int = 0         # Monte Carlo trials x rows (see README.md)
    out: str | None = None      # --out path: the step's output is this file
    max_n: int | None = None    # expected-max --n


def pipeline_steps(name: str, job: dict, job_path: str, csv_path: str, max_n: int,
                   max_trials: list[str]) -> list[Step]:
    """calibrate, schedule to csv_path, verify it, both simulations, expected-max."""
    rows = len(job["n_list"])
    trials = job["trials"]
    common = ("--job", job_path)
    return [
        Step("calibrate", ("calibrate",) + common, name, 1),
        Step("schedule", ("schedule",) + common + ("--out", csv_path), name, rows,
             out=csv_path),
        Step("verify", ("verify",) + common + ("--schedule", csv_path), name, rows,
             trial_rows=trials * rows),
        Step("minimal_effort", ("simulate", "minimal_effort") + common, name, 1,
             trial_rows=trials),
        Step("paradox", ("simulate", "paradox") + common, name, rows,
             trial_rows=2 * trials * rows),
        Step("expected_max", ("expected-max",) + common + ("--n", str(max_n),
                                                          *max_trials),
             name, 4, trial_rows=trials, max_n=max_n),
    ]


def build(workload: str, seed: int, workdir: Path) -> tuple[dict[str, dict], list[Step]]:
    """Write the workload's job files into workdir; return them and the steps."""
    jobs: dict[str, dict] = {}
    steps: list[Step] = []

    def add_job(name: str, job: dict) -> str:
        job = dict(job, seed=seed)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(job, indent=1), encoding="utf-8")
        jobs[name] = job
        return str(path)

    if workload == "demo-pipeline":
        path = add_job("demo", DEMO_JOB)
        steps = pipeline_steps("demo", DEMO_JOB, path, str(workdir / "demo_schedule.csv"),
                               1000, [])
    elif workload == "few-measurements":
        path = add_job("few", FEW_JOB)
        steps = pipeline_steps("few", FEW_JOB, path, str(workdir / "few_schedule.csv"),
                               2, ["--trials", str(FEW_JOB["trials"])])
    elif workload == "schedule-sweep":
        for p0 in SWEEP_P0:
            for cap in (True, False):
                name = f"p0_{p0:g}_{'capped' if cap else 'uncapped'}"
                path = add_job(name, {"p0": p0, "n": 40, "n_list": SWEEP_N_LIST,
                                      "cap_at_q0": cap})
                steps.append(Step("calibrate", ("calibrate", "--job", path), name, 1))
                steps.append(Step("schedule", ("schedule", "--job", path), name,
                                  len(SWEEP_N_LIST)))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return jobs, steps
