"""Tests for the command-line surface: job schema, CSV contracts, exit codes."""

import contextlib
import io
import json
import math
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threshcal import calibration, cli
from threshcal.calibration import calibrate_schedule
from threshcal.cli import (
    EXIT_INFEASIBLE,
    EXIT_INPUT_ERROR,
    EXIT_OK,
    EXIT_VERIFY_FAILED,
    JobSpec,
    main,
)
from threshcal.errors import DomainError, IntegrationError
from threshcal.gaussian import std_normal_quantile


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_job(tmp_path, name="job.json", **fields):
    path = tmp_path / name
    path.write_text(json.dumps(fields))
    return str(path)


class TestJobSpec:
    def test_defaults(self):
        job = JobSpec.from_dict({})
        assert job.spec.q0 == 1.0
        assert job.spec.p0 == 0.01
        assert job.n_required == 40
        assert job.n_list == (40, 80, 160, 320, 640)
        assert job.prior.kind == "log_uniform"
        assert (job.prior.sigma_lo, job.prior.sigma_hi) == (0.01, 10.0)
        assert job.cap_at_q0 is True
        assert job.tol == 1e-4
        assert job.trials == 100_000
        assert job.seed == 0

    def test_round_trip(self):
        job = JobSpec.from_dict({"q0": 2.5, "p0": 0.003, "n": 17,
                                 "n_list": [17, 30, 100],
                                 "prior": {"type": "log_uniform",
                                           "sigma_lo": 0.07, "sigma_hi": 3.3},
                                 "cap_at_q0": False, "tol": 1e-5,
                                 "trials": 12345, "seed": 99})
        assert JobSpec.from_dict(job.to_dict()) == job

    def test_prior_defaults_follow_q0(self):
        job = JobSpec.from_dict({"q0": 4.0})
        assert (job.prior.sigma_lo, job.prior.sigma_hi) == (0.04, 40.0)

    def test_unknown_fields_rejected(self):
        with pytest.raises(DomainError, match="unknown job fields: sigma_true"):
            JobSpec.from_dict({"sigma_true": 1.0})
        with pytest.raises(DomainError, match="unknown prior fields"):
            JobSpec.from_dict({"prior": {"type": "point", "width": 2}})

    def test_type_errors(self):
        with pytest.raises(DomainError):
            JobSpec.from_dict({"n": 40.5})
        with pytest.raises(DomainError):
            JobSpec.from_dict({"cap_at_q0": "yes"})
        with pytest.raises(DomainError):
            JobSpec.from_dict({"n_list": "40,80"})

    def test_n_list_must_start_at_n(self):
        with pytest.raises(DomainError):
            JobSpec.from_dict({"n": 40, "n_list": [80, 160]})

    def test_invalid_spec_values(self):
        with pytest.raises(DomainError):
            JobSpec.from_dict({"q0": -1.0})
        with pytest.raises(DomainError):
            JobSpec.from_dict({"p0": 0.6})


class TestCalibrateCommand:
    def test_default_demo_caps_at_q0(self, capsys):
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "threshold,achieved,capped,iterations,uncapped_threshold,bracket_lo,bracket_hi"
        fields = lines[1].split(",")
        assert fields[0] == "1"
        assert fields[2] == "true"
        assert float(fields[1]) < 0.01

    def test_point_prior_satisfying_is_vacuous(self, capsys, tmp_path):
        sigma = 1.0 / std_normal_quantile(1.0 - 0.005)
        path = write_job(tmp_path, prior={"type": "point", "sigma_lo": sigma,
                                          "sigma_hi": sigma})
        code, out, _ = run_cli(capsys, "calibrate", "--job", path)
        assert code == EXIT_OK
        fields = out.splitlines()[1].split(",")
        assert fields[0] == "1"
        assert fields[2] == "true"
        assert fields[4] == "inf"

    def test_point_prior_violating_is_infeasible(self, capsys, tmp_path):
        sigma = 1.0 / std_normal_quantile(1.0 - 0.05)
        path = write_job(tmp_path, prior={"type": "point", "sigma_lo": sigma,
                                          "sigma_hi": sigma})
        code, out, err = run_cli(capsys, "calibrate", "--job", path)
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert err.startswith("infeasible: even the smallest prior scale")

    def test_uncapped_search_doubles_past_unconditionable_q0(self, capsys, tmp_path):
        # max <= q0 has negligible probability at this count, so q0 has no
        # conditional exceedance; the search goes on upward from it
        path = write_job(tmp_path, p0=0.03125, n=29739, cap_at_q0=False,
                         prior={"type": "log_uniform", "sigma_lo": 0.5, "sigma_hi": 0.6})
        code, out, _ = run_cli(capsys, "calibrate", "--job", path)
        assert code == EXIT_OK
        assert out.splitlines()[1].split(",")[0] == "2.28125"

    def test_malformed_job_is_input_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run_cli(capsys, "calibrate", "--job", str(bad))
        assert code == EXIT_INPUT_ERROR
        assert "error" in err

    def test_capped_row_evaluates_q0_once(self, capsys, monkeypatch):
        # the second, uncapped calibration starts from the q0 just shown feasible
        thresholds = []
        real = calibration.conditional_exceedance

        def counting(spec, threshold, n, prior, **kwargs):
            thresholds.append(threshold)
            return real(spec, threshold, n, prior, **kwargs)

        monkeypatch.setattr(calibration, "conditional_exceedance", counting)
        code, out, _ = run_cli(capsys, "calibrate")
        assert code == EXIT_OK and out.splitlines()[1].split(",")[2] == "true"
        assert thresholds.count(1.0) == 1

    def test_contradicted_settled_probe_exits_2(self, capsys, monkeypatch, tmp_path):
        # one bisection step leaves the uncapped root's lo settled below its
        # cut, so its value is asked for at full tolerance; patched to land
        # above p0, that is a failed search (exit 2), not a root at infinity
        monkeypatch.setattr(calibration, "_MAX_BISECTIONS", 1)
        real = calibration.conditional_exceedance

        def contradicting(spec, threshold, n, prior, **cuts):
            if not cuts:
                return 2.0 * spec.p0
            return real(spec, threshold, n, prior, **cuts)

        monkeypatch.setattr(calibration, "conditional_exceedance", contradicting)
        path = write_job(tmp_path, tol=1e-15)
        code, out, err = run_cli(capsys, "calibrate", "--job", path)
        assert code == EXIT_INFEASIBLE and out == ""
        assert err.startswith("infeasible: the probe at threshold")

    def test_deterministic_output(self, capsys):
        _, out1, _ = run_cli(capsys, "calibrate")
        _, out2, _ = run_cli(capsys, "calibrate")
        assert out1 == out2


class TestScheduleCommand:
    def test_demo_schedule_rows(self, capsys, tmp_path):
        path = write_job(tmp_path, n=40, n_list=[40, 80, 160])
        code, out, _ = run_cli(capsys, "schedule", "--job", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n_prime,threshold,achieved,capped"
        assert len(lines) == 4
        thresholds = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(a <= b for a, b in zip(thresholds, thresholds[1:]))
        assert all(t <= 1.0 for t in thresholds)

    def test_singleton_matches_calibrate(self, capsys, tmp_path):
        path = write_job(tmp_path, n=40, n_list=[40], cap_at_q0=False)
        _, sched_out, _ = run_cli(capsys, "schedule", "--job", path)
        _, cal_out, _ = run_cli(capsys, "calibrate", "--job", path)
        sched_t = sched_out.splitlines()[1].split(",")[1]
        cal_t = cal_out.splitlines()[1].split(",")[0]
        assert sched_t == cal_t

    def test_byte_identical_reruns(self, capsys, tmp_path):
        path = write_job(tmp_path, n=40, n_list=[40, 80], cap_at_q0=False)
        _, out1, _ = run_cli(capsys, "schedule", "--job", path)
        _, out2, _ = run_cli(capsys, "schedule", "--job", path)
        assert out1 == out2

    def test_out_flag_writes_same_bytes(self, capsys, tmp_path):
        path = write_job(tmp_path, n_list=[40, 80])
        _, stdout_text, _ = run_cli(capsys, "schedule", "--job", path)
        out_file = tmp_path / "schedule.csv"
        code, piped, _ = run_cli(capsys, "schedule", "--job", path, "--out", str(out_file))
        assert code == EXIT_OK
        assert piped == ""
        assert out_file.read_text() == stdout_text

    def test_rows_are_the_schedule_calibrations(self, capsys, tmp_path):
        path = write_job(tmp_path, n=40, n_list=[40, 80, 160], cap_at_q0=False)
        _, out, _ = run_cli(capsys, "schedule", "--job", path)
        job = JobSpec.from_file(path)
        _, results = calibrate_schedule(job.spec, job.prior, job.n_list, cap_at_q0=False)
        expected = [f"{n},{r.threshold:.12g},{r.achieved:.12g},false"
                    for n, r in zip(job.n_list, results)]
        assert out.splitlines()[1:] == expected

    def test_small_p0_rows_stay_within_p0(self, capsys, tmp_path):
        path = write_job(tmp_path, p0=1e-5, cap_at_q0=False)
        code, out, _ = run_cli(capsys, "schedule", "--job", path)
        assert code == EXIT_OK
        achieved = [float(line.split(",")[2]) for line in out.splitlines()[1:]]
        assert len(achieved) == 5
        assert all(a <= 1e-5 for a in achieved)

    def test_failing_entry_is_infeasible_and_named(self, capsys, tmp_path):
        path = write_job(tmp_path, n=2, n_list=[2, 4],
                         prior={"type": "log_uniform", "sigma_lo": 5.0, "sigma_hi": 50.0})
        code, out, err = run_cli(capsys, "schedule", "--job", path)
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert err.startswith("infeasible: schedule entry n' = 2: even the smallest")


class TestVerifyCommand:
    def _schedule_file(self, capsys, tmp_path, **job_fields):
        job = write_job(tmp_path, **job_fields)
        out_file = tmp_path / "schedule.csv"
        code, _, _ = run_cli(capsys, "schedule", "--job", job, "--out", str(out_file))
        assert code == EXIT_OK
        return job, out_file

    def test_own_schedule_passes(self, capsys, tmp_path):
        job, sched = self._schedule_file(capsys, tmp_path, n_list=[40, 80],
                                         cap_at_q0=False, trials=30_000)
        code, out, err = run_cli(capsys, "verify", "--job", job, "--schedule", str(sched))
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n_prime,threshold,estimate,standard_error,accepted_runs,pass"
        assert all(line.endswith("true") for line in lines[1:])
        assert "2/2 rows passed" in err

    def test_inflated_schedule_fails(self, capsys, tmp_path):
        job, sched = self._schedule_file(capsys, tmp_path, n_list=[40],
                                         cap_at_q0=False, trials=150_000)
        rows = sched.read_text().splitlines()
        header = rows[0].split(",")
        i_t = header.index("threshold")
        inflated_rows = [rows[0]]
        for line in rows[1:]:
            parts = line.split(",")
            parts[i_t] = repr(float(parts[i_t]) * 1.1)
            inflated_rows.append(",".join(parts))
        inflated = tmp_path / "inflated.csv"
        inflated.write_text("\n".join(inflated_rows) + "\n")
        code, out, _ = run_cli(capsys, "verify", "--job", job, "--schedule", str(inflated))
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert len(lines) == 2  # failing rows are still printed
        assert lines[1].endswith("false")

    def test_underpowered_rows_do_not_pass(self, capsys, tmp_path):
        # at p0 = 1e-5, 4 SE at a 2x violation stay above p0 below
        # 32 (1 - 2 p0) / p0 = 3,199,936 kept runs; 1e5 trials keep fewer
        job, sched = self._schedule_file(capsys, tmp_path, p0=1e-5, trials=100_000)
        code, out, err = run_cli(capsys, "verify", "--job", job, "--schedule", str(sched))
        assert code == EXIT_VERIFY_FAILED
        lines = out.splitlines()
        assert len(lines) == 6
        assert all(line.endswith(",underpowered") for line in lines[1:])
        assert "row n' = 40 is underpowered" in err
        assert "3199936 needed" in err
        assert "0/5 rows passed" in err

    def test_never_accepting_row_fails(self, capsys, tmp_path):
        # the event max <= -30 of 40 draws is too rare to condition on,
        # so the row's conditioning event never accepts: nan, and it fails
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("n_prime,threshold\n40,-30\n")
        code, out, err = run_cli(capsys, "verify", "--schedule", str(schedule))
        assert code == EXIT_VERIFY_FAILED
        assert out.splitlines()[1:] == ["40,-30,nan,nan,0,false"]
        assert "0/1 rows passed" in err and "Traceback" not in err

    def test_empty_schedule_is_input_error(self, capsys, tmp_path):
        job = write_job(tmp_path)
        empty = tmp_path / "empty.csv"
        empty.write_text("n_prime,threshold\n")
        code, _, err = run_cli(capsys, "verify", "--job", job, "--schedule", str(empty))
        assert code == EXIT_INPUT_ERROR
        assert "error" in err

    def test_missing_columns_is_input_error(self, capsys, tmp_path):
        job = write_job(tmp_path)
        bad = tmp_path / "bad.csv"
        bad.write_text("count,t\n40,1.0\n")
        code, _, _ = run_cli(capsys, "verify", "--job", job, "--schedule", str(bad))
        assert code == EXIT_INPUT_ERROR

    def test_byte_identical_reruns(self, capsys, tmp_path):
        job, sched = self._schedule_file(capsys, tmp_path, n_list=[40], trials=20_000)
        _, out1, _ = run_cli(capsys, "verify", "--job", job, "--schedule", str(sched))
        _, out2, _ = run_cli(capsys, "verify", "--job", job, "--schedule", str(sched))
        assert out1 == out2


class TestSimulateCommand:
    def test_minimal_effort_row(self, capsys, tmp_path):
        path = write_job(tmp_path, trials=100_000)
        code, out, _ = run_cli(capsys, "simulate", "minimal_effort", "--job", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n,estimate,standard_error,expected"
        n, est, se, expected = lines[1].split(",")
        assert n == "40"
        assert float(expected) == pytest.approx(1.0 / 41.0, rel=1e-11)
        assert abs(float(est) - 1.0 / 41.0) <= 4.0 * float(se)

    def test_minimal_effort_seed_changes_estimate(self, capsys):
        _, out_a, _ = run_cli(capsys, "simulate", "minimal_effort", "--trials", "20000")
        _, out_b, _ = run_cli(capsys, "simulate", "minimal_effort", "--trials", "20000",
                              "--seed", "7")
        assert out_a != out_b

    def test_paradox_table(self, capsys, tmp_path):
        path = write_job(tmp_path, n_list=[40, 80, 160], trials=20_000)
        code, out, err = run_cli(capsys, "simulate", "paradox", "--job", path)
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "n_prime,rejection_fixed,rejection_schedule"
        fixed = [float(line.split(",")[1]) for line in lines[1:]]
        assert fixed[0] < fixed[1] < fixed[2]
        assert "sigma_true" in err

    def test_paradox_byte_identical_reruns(self, capsys, tmp_path):
        path = write_job(tmp_path, n_list=[40, 80], trials=10_000)
        _, out1, _ = run_cli(capsys, "simulate", "paradox", "--job", path)
        _, out2, _ = run_cli(capsys, "simulate", "paradox", "--job", path)
        assert out1 == out2

    def test_bad_mode_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "simulate", "nearest")
        assert code == EXIT_INPUT_ERROR


class TestExpectedMaxCommand:
    def test_exact_two(self, capsys):
        code, out, _ = run_cli(capsys, "expected-max", "--n", "2", "--method", "exact")
        assert code == EXIT_OK
        assert out == "0.564189583548\n"
        assert float(out) == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-9)

    def test_asymptotic_hundred(self, capsys):
        code, out, _ = run_cli(capsys, "expected-max", "--n", "100",
                               "--method", "asymptotic")
        assert code == EXIT_OK
        assert float(out) == pytest.approx(1.752, abs=5e-4)

    def test_all_reports_three_routes_and_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "expected-max", "--n", "100", "--trials", "20000")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "method,value,standard_error"
        table = {line.split(",")[0]: line.split(",")[1:] for line in lines[1:]}
        assert set(table) == {"asymptotic", "exact", "monte_carlo", "exact_over_asymptotic"}
        assert float(table["exact"][0]) == pytest.approx(2.5075936364, abs=1e-6)
        ratio = float(table["exact"][0]) / float(table["asymptotic"][0])
        assert float(table["exact_over_asymptotic"][0]) == pytest.approx(ratio, rel=1e-10)

    def test_asymptotic_rejects_n_below_two(self, capsys):
        code, _, err = run_cli(capsys, "expected-max", "--n", "1",
                               "--method", "asymptotic")
        assert code == EXIT_INPUT_ERROR
        assert "error" in err

    def test_monte_carlo_deterministic(self, capsys):
        args = ("expected-max", "--n", "10", "--method", "monte_carlo",
                "--trials", "20000", "--seed", "3")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestFailureExitCodes:
    def test_unwritable_out_path_is_input_error(self, capsys, tmp_path):
        target = tmp_path / "missing_dir" / "schedule.csv"
        code, out, err = run_cli(capsys, "calibrate", "--out", str(target))
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "cannot write output file" in err
        assert not target.exists()

    def test_quadrature_failure_exits_2(self, capsys, monkeypatch):
        def exhausted(*args, **kwargs):
            raise IntegrationError("quadrature budget exhausted", estimate=0.5,
                                   error_bound=0.1)

        monkeypatch.setattr(cli, "calibrate_threshold", exhausted)
        code, out, err = run_cli(capsys, "calibrate")
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "quadrature did not converge" in err


# every positive finite float, subnormals included
POSITIVE_FLOATS = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


class TestMainNeverRaises:
    """Every job the schema admits ends in a documented exit code, not a traceback."""

    @pytest.mark.parametrize("command", [["calibrate"], ["schedule"], ["simulate", "paradox"]])
    @pytest.mark.parametrize("sigma_lo,q0", [(4e-309, 0.5), (1e-320, 1.0)])
    def test_too_small_sigma_lo_is_named(self, capsys, tmp_path, command, sigma_lo, q0):
        # 1/sigma_lo overflows a float, so the quadrature over ln(sigma) cannot run
        path = write_job(tmp_path, q0=q0, prior={"type": "log_uniform",
                                                 "sigma_lo": sigma_lo, "sigma_hi": 10.0})
        code, out, err = run_cli(capsys, *command, "--job", path)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert "sigma_lo" in err

    @pytest.mark.parametrize("command", ["calibrate", "schedule"])
    def test_doubling_past_the_largest_float_is_a_solver_error(self, capsys, tmp_path,
                                                                command):
        # uncapped, the exceedance stays below p0 at every finite threshold
        # from q0 = 1e300 up, so the bracket's doubling runs out of floats
        path = write_job(tmp_path, q0=1e300, cap_at_q0=False,
                         prior={"type": "log_uniform", "sigma_lo": 1e-10, "sigma_hi": 1e-9})
        code, out, err = run_cli(capsys, command, "--job", path)
        assert code == EXIT_INFEASIBLE
        assert out == ""
        assert "bracket expansion failed" in err

    @pytest.mark.parametrize("command", ["calibrate", "schedule"])
    @settings(max_examples=60, deadline=None)
    @given(q0=POSITIVE_FLOATS,
           p0=st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
           scales=st.lists(POSITIVE_FLOATS, min_size=2, max_size=2).map(sorted),
           n=st.integers(1, 2**20), cap=st.booleans())
    @example(q0=0.5, p0=0.01, scales=[4e-309, 10.0], n=40, cap=True)
    @example(q0=0.5, p0=0.01, scales=[5e-324, 10.0], n=1, cap=False)
    @example(q0=5e-324, p0=5e-324, scales=[5e-324, 10.0], n=1, cap=False)
    @example(q0=1.872597015481579e306, p0=0.37109375,
             scales=[1.8725970154814152e306, 2.890514518756931e307], n=1, cap=False)
    # a calibration probe of this job runs out of quadrature budget (exit 2);
    # one stopped early as soon as it was above p0 went on to a decreasing
    # schedule (exit 1) at the smallest normal p0
    @example(q0=1.7e308, p0=sys.float_info.min, scales=[3.5e10, 1e308], n=1820, cap=False)
    @example(q0=1.7e308, p0=1e-300, scales=[3.5e10, 1e308], n=1820, cap=False)
    @example(q0=1.7e308, p0=1e-200, scales=[3.5e10, 1e308], n=1820, cap=False)
    def test_exits_with_a_documented_code(self, tmp_path_factory, command, q0, p0,
                                          scales, n, cap):
        # every field is valid except where 1/sigma_lo overflows or the
        # log-uniform range is a single value: exactly those are input
        # errors, and they name the field
        path = tmp_path_factory.getbasetemp() / f"never_raises_{command}.json"
        path.write_text(json.dumps({"q0": q0, "p0": p0, "n": n, "cap_at_q0": cap,
                                    "prior": {"type": "log_uniform", "sigma_lo": scales[0],
                                              "sigma_hi": scales[1]}}))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([command, "--job", str(path)])
        assert code in (EXIT_OK, EXIT_INPUT_ERROR, EXIT_INFEASIBLE)
        breaks_input_rule = 1.0 / scales[0] == math.inf or scales[0] == scales[1]
        assert (code == EXIT_INPUT_ERROR) == breaks_input_rule
        if breaks_input_rule:
            assert "sigma_lo" in err.getvalue()


class TestArgumentHandling:
    def test_unknown_command_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == EXIT_INPUT_ERROR

    def test_missing_required_flag_is_input_error(self, capsys):
        code, _, _ = run_cli(capsys, "expected-max")
        assert code == EXIT_INPUT_ERROR

    def test_bad_seed_flag(self, capsys):
        code, _, _ = run_cli(capsys, "calibrate", "--seed", "-5")
        assert code == EXIT_INPUT_ERROR

    def test_the_shared_parser_survives_rejected_arguments(self, capsys, tmp_path):
        """main() reuses one parser; after three rejected command lines the
        next ones print their golden bytes.  The job is golden_cli.json's
        uncapped p0 = 0.01 case (the demo job's q0, p0, n, prior and cap)."""
        assert cli.build_parser() is cli.build_parser()
        for argv in (["verify"], ["nonsense"], ["calibrate", "--seed", "-1"]):
            assert main(argv) == EXIT_INPUT_ERROR
        capsys.readouterr()
        golden = json.loads((Path(__file__).parent / "golden_cli.json").read_text("utf-8"))
        job = write_job(tmp_path, p0=0.01, n=40, n_list=[40, 320, 2560, 20480, 163840, 1310720],
                        cap_at_q0=False, trials=4000, seed=11)
        for name, argv in (("calibrate", ["calibrate"]), ("schedule", ["schedule"]),
                           ("paradox", ["simulate", "paradox"])):
            code, out, err = run_cli(capsys, *argv, "--job", job)
            expected = golden[f"{name}-n=40-p0=0.01-uncapped"]
            assert {"code": code, "stdout": out, "stderr": err} == expected


class TestJobFieldRejection:
    """Every malformed job field, in a file or on the command line, is an input error."""

    @pytest.mark.parametrize("fields,flags,message", [
        ({"n": 40.5}, (), "n must be an integer"),
        ({"n": 0}, (), "error: n must be >= 1, got 0"),
        ({"q0": "1"}, (), "q0 must be a number"),
        ({"q0": 10**400}, (), "q0 must be a finite number"),
        ({"tol": True}, (), "tol must be a number"),
        ({"tol": 10**400}, (), "tol must be a finite number"),
        ({"seed": -1}, (), "seed must fit in an unsigned 64-bit integer"),
        ({"seed": 1.0}, (), "seed must be an integer"),
        ({"trials": 0}, (), "trials must be >= 1"),
        ({"n_list": [40, 40]}, (), "n_list must be strictly increasing"),
        ({"n_list": []}, (), "n_list must not be empty"),
        ({}, ("--seed", "-5"), "seed must fit in an unsigned 64-bit integer"),
        ({}, ("--trials", "0"), "trials must be >= 1"),
        ({"n": 10**400}, (), "n must be at most 2**36"),
        ({"trials": 10**400}, (), "trials must be at most 2**36"),
        ({}, ("--trials", "100000000000000000000"), "trials must be at most 2**36"),
        ({"n_list": [40, 2**36 + 1]}, (), "n_list entry must be at most 2**36"),
        ({"tol": 1.5}, (), "tol must lie in (0, 1), got 1.5"),
        ({"prior": 3}, (), "prior must be an object"),
    ], ids=["n-float", "n-zero", "q0-string", "q0-huge", "tol-bool", "tol-huge",
            "seed-negative", "seed-float", "trials-zero", "n_list-repeated", "n_list-empty",
            "seed-flag", "trials-flag", "n-huge", "trials-huge", "trials-flag-huge",
            "n_list-huge", "tol-above-one", "prior-number"])
    def test_rejected_as_input_error(self, capsys, tmp_path, fields, flags, message):
        path = write_job(tmp_path, **fields)
        code, out, err = run_cli(capsys, "calibrate", "--job", path, *flags)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ")
        assert message in err


class TestByteOrderMark:
    """A UTF-8 file that starts with a byte order mark, as Excel's "CSV UTF-8"
    and PowerShell 5's UTF-8 output write it, reads as the same file without."""

    @pytest.mark.parametrize("argv,option,text", [
        (("calibrate",), "--job", '{"trials": 1000}'),
        (("verify", "--trials", "1000"), "--schedule", "n_prime,threshold\n40,1\n"),
    ], ids=["job", "schedule"])
    def test_leading_bom_changes_no_byte(self, capsys, tmp_path, argv, option, text):
        plain, marked = tmp_path / "plain", tmp_path / "marked"
        plain.write_bytes(text.encode("utf-8"))
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        expected = run_cli(capsys, *argv, option, str(plain))
        assert "error" not in expected[2]
        assert run_cli(capsys, *argv, option, str(marked)) == expected


class TestUnreadableInputs:
    """Job and schedule files that cannot be decoded are input errors, not tracebacks."""

    def _assert_input_error(self, capsys, *argv, message):
        code, out, err = run_cli(capsys, *argv)
        assert code == EXIT_INPUT_ERROR
        assert out == ""
        assert err.startswith("error: ")
        assert message in err
        assert "Traceback" not in err

    def test_job_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_bytes(b'{"n": 40}\xff')
        self._assert_input_error(capsys, "calibrate", "--job", str(path),
                                 message="cannot read job file")

    def test_schedule_file_that_is_not_utf8(self, capsys, tmp_path):
        schedule = tmp_path / "schedule.csv"
        schedule.write_bytes(b"n_prime,threshold\n40,0.5\xff\n")
        self._assert_input_error(capsys, "verify", "--schedule", str(schedule),
                                 message="cannot read schedule file")

    def test_job_file_that_is_not_an_object(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("[]")
        self._assert_input_error(capsys, "calibrate", "--job", str(path),
                                 message="job file must hold a JSON object, got list")

    def test_job_integer_past_the_digit_limit(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text('{"n": ' + "1" * 5000 + "}")
        self._assert_input_error(capsys, "calibrate", "--job", str(path),
                                 message="is not valid JSON")

    def test_job_nested_past_the_recursion_limit(self, capsys, tmp_path):
        path = tmp_path / "job.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        self._assert_input_error(capsys, "calibrate", "--job", str(path),
                                 message="is not valid JSON")

    @pytest.mark.parametrize("rows,message", [
        ("80,0.6\n40,0.5\n", "n_prime must be strictly increasing"),
        ("0,0.5\n", "n_prime entry must be >= 1"),
        ("+40,1\n-80,1\n", "n_prime entry must be >= 1, got -80"),
    ], ids=["unsorted", "zero", "signed"])
    def test_schedule_counts_are_checked(self, capsys, tmp_path, rows, message):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("n_prime,threshold\n" + rows)
        self._assert_input_error(capsys, "verify", "--schedule", str(schedule),
                                 message=message)

    def test_schedule_row_with_a_missing_field(self, capsys, tmp_path):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("n_prime,threshold\n40,1\n80\n")
        self._assert_input_error(capsys, "verify", "--schedule", str(schedule),
                                 message="schedule row has 1 fields, expected 2: 80")

    @pytest.mark.parametrize("rows", [
        "4_0,1.0\n", "40,1_2.5\n", "٤٠,1\n", "40,١.5\n",
    ], ids=["count-underscore", "threshold-underscore", "arabic-indic-count",
            "arabic-indic-threshold"])
    def test_schedule_numbers_must_be_ascii_decimals(self, capsys, tmp_path, rows):
        # int() and float() alone take these, as 40 and 12.5 and 1.5
        schedule = tmp_path / "schedule.csv"
        schedule.write_text("n_prime,threshold\n" + rows, encoding="utf-8")
        self._assert_input_error(capsys, "verify", "--schedule", str(schedule),
                                 message=f"unparseable schedule row: {rows.strip()}")

    @pytest.mark.parametrize("value", ["nan", "inf", "-Infinity"])
    def test_non_finite_threshold_fails_before_any_row_runs(self, capsys, tmp_path, value):
        schedule = tmp_path / "schedule.csv"
        schedule.write_text(f"n_prime,threshold\n40,1\n80,{value}\n")
        code, out, err = run_cli(capsys, "verify", "--trials", "1000",
                                 "--schedule", str(schedule))
        assert (code, out) == (EXIT_INPUT_ERROR, "")
        assert err == f"error: threshold must be finite, got {float(value)!r}\n"
