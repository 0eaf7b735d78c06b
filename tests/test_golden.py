"""Exact output bytes of `calibrate`, `schedule`, `simulate`, `verify` and
`expected-max`.

The expected exit code, stdout and stderr of every case are stored in
golden_cli.json.  They were recorded at commit 72f3a2e, before a capped
calibration stopped searching for the root above q0, so these tests pin
that the shortcut changes no printed byte.  The six `simulate paradox`
cases were re-recorded once, when each paradox row became one nested
binomial draw (a new stream format for that command only); the
`calibrate` and `schedule` cases are the original recording.  The jobs are the schedule-sweep
benchmark's (the default prior, n = 40), capped and uncapped at three
p0, with its n_list thinned to six counts and few Monte Carlo trials to
keep the run short.  `calibrate` also runs at n = 20480, where the capped
job is capped at every p0, so its uncapped diagnostic columns come from
the second, uncapped calibration.

Three more cases run Monte Carlo commands at trial counts of several
_BLOCK_TRIALS blocks: `verify` of the default job's schedule at 2 * 10**7
trials, whose undecided runs fill more than one block per row, and
`simulate minimal_effort` and `expected-max --n 40` at 3 * 2**16 + 777
trials.  They were recorded at commit 809c8fc, before the block drivers
were merged into one, so they pin that the merge moves no byte, nor the
later change of that driver from threads to a plain loop.  The
`simulate minimal_effort` case was re-recorded once, when its count of
exceedances became one Binomial(trials, 1/(n+1)) draw that runs no
blocks (a new stream format for that command only).

Two more `expected-max` cases, at n = 2 and n = 1000 with the same
3 * 2**16 + 777 trials, were recorded before the vector quantile ran its
rare branches once per call instead of once per slice.  At n = 2 the
upper and lower tails of every block are deferred; at n = 1000 the
central and lower branches are empty in every slice and run nothing.
They pin that the deferral moves no byte.

Seven input-error cases pin exit 1 and the exact stderr of a bad job, a
bad flag, a bad schedule, an unknown subcommand and a missing job file.
They were recorded at commit f5e44c8, while the CLI still re-raised the
library's DomainError as a CLI-only input-error type, so they pin that
one input-error type moves no byte.  The unknown-subcommand message is
argparse's own wording, recorded under Python 3.11.  They run in a temporary working directory with
relative paths, so no message names a machine-specific path.

Every Monte Carlo case (paradox, and the three block-plan cases) holds
the bytes of one numpy version's generators: a numpy release that changes
a sampling routine changes them, and they are then recorded again.
"""

import json
from pathlib import Path

import pytest

from threshcal.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
P0S = (1e-2, 1e-4, 1e-6)
N_LIST = [40, 320, 2560, 20480, 163840, 1310720]
TRIALS = 4000
SEED = 11
COMMANDS = {"calibrate": ("calibrate",), "schedule": ("schedule",),
            "paradox": ("simulate", "paradox")}
CASES = [(kind, n, p0, cap) for kind in COMMANDS
         for n in ((40, 20480) if kind == "calibrate" else (40,))
         for p0 in P0S for cap in (True, False)]

# the default job's published schedule: every row is capped at q0 = 1
DEFAULT_SCHEDULE = "n_prime,threshold\n40,1\n80,1\n160,1\n320,1\n640,1\n"
MULTI_BLOCK_TRIALS = str(3 * 2**16 + 777)
DRIVER_CASES = {
    "verify-default-trials=20000000":
        ("verify", "--schedule", "{schedule}", "--trials", str(2 * 10**7)),
    f"minimal_effort-default-trials={MULTI_BLOCK_TRIALS}":
        ("simulate", "minimal_effort", "--trials", MULTI_BLOCK_TRIALS),
    f"expected-max-n=40-trials={MULTI_BLOCK_TRIALS}":
        ("expected-max", "--n", "40", "--trials", MULTI_BLOCK_TRIALS),
    f"expected-max-n=2-trials={MULTI_BLOCK_TRIALS}":
        ("expected-max", "--n", "2", "--trials", MULTI_BLOCK_TRIALS),
    f"expected-max-n=1000-trials={MULTI_BLOCK_TRIALS}":
        ("expected-max", "--n", "1000", "--trials", MULTI_BLOCK_TRIALS),
}

# name: (job file fields, or None for no job file; schedule CSV; argv)
ERROR_CASES = {
    "calibrate-unknown-job-field":
        ({"colour": "red"}, DEFAULT_SCHEDULE, ("calibrate", "--job", "job.json")),
    "calibrate-trials=0": (None, DEFAULT_SCHEDULE, ("calibrate", "--trials", "0")),
    "schedule-decreasing-n_list":
        ({"n_list": [40, 20]}, DEFAULT_SCHEDULE, ("schedule", "--job", "job.json")),
    "calibrate-gamma-prior":
        ({"prior": {"type": "gamma"}}, DEFAULT_SCHEDULE, ("calibrate", "--job", "job.json")),
    "verify-no-threshold-column":
        (None, "n_prime,t\n40,1\n", ("verify", "--schedule", "s.csv")),
    "unknown-subcommand": (None, DEFAULT_SCHEDULE, ("frobnicate",)),
    "calibrate-missing-job-file": (None, DEFAULT_SCHEDULE, ("calibrate", "--job", "missing.json")),
}


def case_id(kind: str, n: int, p0: float, cap: bool) -> str:
    return f"{kind}-n={n}-p0={p0:g}-{'capped' if cap else 'uncapped'}"


def job_fields(n: int, p0: float, cap: bool) -> dict:
    return {"p0": p0, "n": n, "n_list": N_LIST[N_LIST.index(n):], "cap_at_q0": cap,
            "trials": TRIALS, "seed": SEED}


def run_case(kind: str, n: int, p0: float, cap: bool, job_path: Path, capsys) -> dict:
    job_path.write_text(json.dumps(job_fields(n, p0, cap)), encoding="utf-8")
    code = main([*COMMANDS[kind], "--job", str(job_path)])
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case(golden):
    assert sorted(golden) == sorted([*(case_id(*case) for case in CASES), *DRIVER_CASES,
                                     *ERROR_CASES])


@pytest.mark.parametrize("kind,n,p0,cap", CASES, ids=[case_id(*case) for case in CASES])
def test_output_bytes_match_golden(kind, n, p0, cap, golden, tmp_path, capsys):
    assert run_case(kind, n, p0, cap, tmp_path / "job.json", capsys) == \
        golden[case_id(kind, n, p0, cap)]


@pytest.mark.parametrize("name", DRIVER_CASES)
def test_block_driver_bytes_match_golden(name, golden, tmp_path, capsys):
    schedule = tmp_path / "s.csv"
    schedule.write_text(DEFAULT_SCHEDULE, encoding="utf-8")
    code = main([arg.format(schedule=schedule) for arg in DRIVER_CASES[name]])
    captured = capsys.readouterr()
    assert {"code": code, "stdout": captured.out, "stderr": captured.err} == golden[name]


def run_error_case(name: str, workdir: Path, monkeypatch, capsys) -> dict:
    fields, schedule, argv = ERROR_CASES[name]
    monkeypatch.chdir(workdir)
    if fields is not None:
        Path("job.json").write_text(json.dumps(fields), encoding="utf-8")
    Path("s.csv").write_text(schedule, encoding="utf-8")
    code = main(list(argv))
    captured = capsys.readouterr()
    return {"code": code, "stdout": captured.out, "stderr": captured.err}


@pytest.mark.parametrize("name", ERROR_CASES)
def test_input_error_bytes_match_golden(name, golden, tmp_path, monkeypatch, capsys):
    result = run_error_case(name, tmp_path, monkeypatch, capsys)
    assert result["code"] == 1
    assert result == golden[name]
