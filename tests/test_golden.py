"""Exact output bytes of `calibrate`, `schedule` and `simulate paradox`.

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
    assert sorted(golden) == sorted(case_id(*case) for case in CASES)


@pytest.mark.parametrize("kind,n,p0,cap", CASES, ids=[case_id(*case) for case in CASES])
def test_output_bytes_match_golden(kind, n, p0, cap, golden, tmp_path, capsys):
    assert run_case(kind, n, p0, cap, tmp_path / "job.json", capsys) == \
        golden[case_id(kind, n, p0, cap)]
