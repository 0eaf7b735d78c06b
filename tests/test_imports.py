"""The import boundary: `calibrate` and `schedule` run without numpy.

numpy and `threshcal.paradox` load only when a Monte Carlo name or command
is first used.  This test process imported both long ago, so one fresh
interpreter walks through the steps below and reports what it saw after
each; the tests read that report.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import threshcal

SRC = Path(threshcal.__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
MINIMAL_EFFORT = "minimal_effort-default-trials=197385"

CHILD = """
import contextlib, io, json, sys

def loaded():
    return sorted(m for m in ("numpy", "threshcal.paradox") if m in sys.modules)

def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}

report = {}
import threshcal
report["import threshcal"] = loaded()
from threshcal import cli
report["calibration runs"] = [run(["calibrate"])["code"], run(["schedule"])["code"]]
report["calibrate and schedule"] = loaded()
from threshcal import paradox
report["from threshcal import paradox"] = paradox.__name__
report["minimal_effort"] = run(["simulate", "minimal_effort", "--trials", "197385"])
star = {}
exec("from threshcal import *", star)
report["unresolved"] = sorted(set(threshcal.__all__) - set(star))
report["served from paradox"] = star["simulate_minimal_effort"] is paradox.simulate_minimal_effort
report["not in dir"] = sorted(set(threshcal.__all__) - set(dir(threshcal)))
try:
    threshcal.no_such_name
    report["missing name"] = "resolved"
except AttributeError as exc:
    report["missing name"] = str(exc)
print(json.dumps(report))
"""


@pytest.fixture(scope="module")
def report():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_importing_the_package_loads_neither(report):
    assert report["import threshcal"] == []


def test_calibrate_and_schedule_load_neither(report):
    assert report["calibration runs"] == [0, 0]
    assert report["calibrate and schedule"] == []


def test_every_exported_name_resolves_and_is_listed(report):
    assert report["from threshcal import paradox"] == "threshcal.paradox"
    assert report["unresolved"] == []
    assert report["served from paradox"] is True
    assert report["not in dir"] == []
    assert report["missing name"] == "module 'threshcal' has no attribute 'no_such_name'"


def test_a_later_monte_carlo_command_prints_its_golden_bytes(report):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert report["minimal_effort"] == golden[MINIMAL_EFFORT]
