"""Tests of the benchmark's own checkers: real output passes, and each
oracle rejects a fabricated bad output, so the gate cannot pass vacuously.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from threshcal import cli  # noqa: E402
from threshcal.calibration import conditional_exceedance  # noqa: E402

import oracles  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# The default job (capped, p0 = 0.01, n' 40..640) keeps its guarantee on
# every row, so every oracle should pass on its real output.
SMALL_JOB = {"trials": 4000, "seed": 7}


def _fmt(x: float) -> str:
    return format(x, ".12g")


def _edit(text: str, row: int, column: str, value: str) -> str:
    """The CSV text with one field replaced (row 0 is the first data row)."""
    lines = text.splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    fields[header.index(column)] = value
    lines[row + 1] = ",".join(fields)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline")
    job_path = workdir / "small.json"
    job_path.write_text(json.dumps(SMALL_JOB), encoding="utf-8")
    job = cli.JobSpec.from_dict(SMALL_JOB)
    steps = workloads.pipeline_steps("small", job.to_dict(), str(job_path),
                                     str(workdir / "schedule.csv"), 1000, [])
    invocations = run.run_pass(cli, oracles, steps)
    return job, steps, invocations


def _by_kind(pipeline, kind):
    job, steps, invocations = pipeline
    i = next(i for i, s in enumerate(steps) if s.kind == kind)
    return job, steps[i], invocations[i]


def _text(step, inv):
    return inv.out_text if step.out is not None else inv.stdout


def _with_text(step, inv, text):
    if step.out is not None:
        return replace(inv, out_text=text)
    return replace(inv, stdout=text)


def test_real_output_passes_every_oracle(pipeline):
    job, steps, invocations = pipeline
    for step, inv in zip(steps, invocations):
        assert oracles.check(step, job, inv) == (0, None), step.argv


def test_calibrate_row_above_p0_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "calibrate")
    threshold = 2.0 * job.spec.q0
    achieved = conditional_exceedance(job.spec, threshold, job.n_required, job.prior)
    assert achieved > job.spec.p0
    text = _edit(_edit(_text(step, inv), 0, "threshold", _fmt(threshold)),
                 0, "achieved", _fmt(achieved))
    assert oracles.check(step, job, _with_text(step, inv, text)) == (1, None)


def test_schedule_row_above_p0_or_decreasing_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "schedule")
    above = _edit(_text(step, inv), 2, "achieved", _fmt(1.001 * job.spec.p0))
    assert oracles.check(step, job, _with_text(step, inv, above)) == (1, None)
    decreasing = _edit(_text(step, inv), 3, "threshold", _fmt(0.5 * job.spec.q0))
    failed, problem = oracles.check(step, job, _with_text(step, inv, decreasing))
    assert failed >= 1 and problem is None


def test_verify_estimate_five_se_from_quadrature_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "verify")
    row = oracles.parse_table("verify", inv.stdout)[1]
    ce = conditional_exceedance(job.spec, float(row["threshold"]), int(row["n_prime"]),
                                job.prior)
    se = math.sqrt(ce * (1.0 - ce) / int(row["accepted_runs"]))
    for shift, failed in ((3.0, 0), (5.0, 1)):
        text = _edit(inv.stdout, 1, "estimate", _fmt(ce + shift * se))
        assert oracles.check(step, job, _with_text(step, inv, text)) == (failed, None)


def test_minimal_effort_off_the_exchangeability_law_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "minimal_effort")
    text = _edit(inv.stdout, 0, "estimate", _fmt(2.0 / (job.n_required + 1)))
    assert oracles.check(step, job, _with_text(step, inv, text)) == (1, None)


def test_paradox_rate_off_the_closed_form_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "paradox")
    row = oracles.parse_table("paradox", inv.stdout)[2]
    for column in ("rejection_fixed", "rejection_schedule"):
        text = _edit(inv.stdout, 2, column, _fmt(float(row[column]) + 0.1))
        assert oracles.check(step, job, _with_text(step, inv, text)) == (1, None)


def test_expected_max_monte_carlo_off_the_quadrature_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "expected_max")
    exact = float(oracles.parse_table("expected_max", inv.stdout)[1]["value"])
    text = _edit(inv.stdout, 2, "value", _fmt(exact + 0.1))
    assert oracles.check(step, job, _with_text(step, inv, text)) == (1, None)


def test_output_that_differs_from_the_reference_pass_fails(pipeline):
    job, step, inv = _by_kind(pipeline, "paradox")
    traced = replace(inv, stdout=inv.stdout + "\n")
    failed, problem = oracles.check(step, job, traced, reference=inv)
    assert failed == step.rows and "differs" in problem
    assert oracles.check(step, job, inv, reference=inv) == (0, None)


@pytest.mark.parametrize("code", [1, 2, 3, None])
def test_unexpected_exit_or_traceback_fails_every_row(pipeline, code):
    job, step, inv = _by_kind(pipeline, "schedule")
    bad = replace(inv, code=code, stderr="Traceback ...\nRuntimeError: boom\n")
    failed, problem = oracles.check(step, job, bad)
    assert failed == step.rows and problem is not None


def test_verify_exit_3_must_match_a_failing_row(pipeline):
    job, step, inv = _by_kind(pipeline, "verify")
    flagged = _edit(inv.stdout, 0, "pass", "false")
    assert oracles.check(step, job, replace(inv, code=3, stdout=flagged)) == (0, None)
    failed, problem = oracles.check(step, job, replace(inv, code=0, stdout=flagged))
    assert failed == step.rows and "exit code" in problem


def test_malformed_table_fails_every_row(pipeline):
    job, step, inv = _by_kind(pipeline, "verify")
    failed, problem = oracles.check(step, job, replace(inv, stdout=inv.stdout.replace(",", ";")))
    assert failed == step.rows and "malformed" in problem


def test_tracer_counts_work_and_restores_the_library():
    from threshcal import calibration, gaussian, paradox

    before = (calibration.integrate, paradox.simulate_compliance,
              gaussian.SeededStream.__dict__["generator"])
    stream = gaussian.SeededStream(seed=3, stream_index=2)
    untraced = paradox.simulate_minimal_effort(4, 1000, stream)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = paradox.simulate_minimal_effort(4, 1000, stream)
        # GK15 integrates a quadratic exactly, so the 8 initial panels suffice
        calibration.integrate(lambda x: x * x, 0.0, 1.0)
    finally:
        tracer.uninstall()
    assert traced == untraced
    m = tracing.layer_metrics(tracer.spans)
    assert m["paradox.simulate_minimal_effort.draws"] == 1000 * 5
    assert m["paradox.simulate_minimal_effort.blocks"] == 1
    assert m["gaussian.SeededStream.generator.calls"] == 1
    assert m["gaussian.integrate.calibration.evals"] == 8 * 15
    assert (calibration.integrate, paradox.simulate_compliance,
            gaussian.SeededStream.__dict__["generator"]) == before
