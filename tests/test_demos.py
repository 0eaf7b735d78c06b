"""Smoke tests for the scripts in demos/: each runs to the end and prints its table.

Each demo runs as a script would (runpy, as __main__) with stdout captured.
Its table is the block of lines after the header line up to the first blank
line; the first column holds the counts the demo tabulates.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# demo script -> (a header cell, the counts in the table's first column)
TABLES = {
    "expected_max_growth.py": ("exact/sqrt(2 ln n)", [2, 10, 100, 1000, 10000]),
    "minimal_effort_danger.py": ("1/(n+1)", [1, 5, 10, 40, 99, 400]),
    "over_measurement_paradox.py": ("rejected (schedule)", [40, 80, 160, 320, 640]),
    "threshold_schedule_demo.py": ("cond. exceedance at published t", [40, 80, 160, 320, 640]),
}


@pytest.mark.parametrize("script", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_prints_its_table(script, capsys):
    header, counts = TABLES[script]   # a demo missing from TABLES fails here
    runpy.run_path(str(DEMOS / script), run_name="__main__")
    lines = capsys.readouterr().out.splitlines()
    start = next(i for i, line in enumerate(lines) if header in line) + 1
    end = lines.index("", start) if "" in lines[start:] else len(lines)
    table = [line.split() for line in lines[start:end]]
    assert [int(row[0]) for row in table] == counts
    assert all(len(row) == len(table[0]) > 1 for row in table)
