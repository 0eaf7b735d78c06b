"""Every library name the benchmark's tracer patches must exist and come back intact.

`bench/tracing.py` replaces functions of `threshcal.cli`, `calibration`,
`gaussian` and `paradox` by name, so a rename in the library breaks the
traced benchmark run (`bench/run.py --trace 1`) without failing any other
test.  This test installs the tracer and uninstalls it again.
"""

from pathlib import Path

from threshcal import calibration, cli, gaussian, paradox

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_patches_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    owners = (cli, calibration, gaussian, paradox, gaussian.SeededStream)
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {attr for owner, old in zip(owners, before)
                   for attr, value in vars(owner).items() if old.get(attr) is not value}
    finally:
        tracer.uninstall()
    assert patched >= {
        "cmd_calibrate", "cmd_schedule", "cmd_verify", "cmd_simulate", "cmd_expected_max",
        "calibrate_threshold", "conditional_exceedance", "threshold_schedule", "integrate",
        "paradox_curve", "expected_max_exact", "generator", *tracing.MC_FUNCTIONS}
    after = [dict(vars(owner)) for owner in owners]
    for old, new in zip(before, after):
        assert new.keys() == old.keys()
        assert all(new[key] is old[key] for key in old)
