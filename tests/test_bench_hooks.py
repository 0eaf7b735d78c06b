"""Every library name the benchmark's tracer patches must exist and come back intact.

`bench/tracing.py` replaces functions of `threshcal.cli`, `calibration`,
`gaussian` and `paradox` by name, so a rename in the library breaks the
traced benchmark run (`bench/run.py --trace 1`) without failing any other
test.  The first test installs the tracer and uninstalls it again; the
second checks that its draw and block counts stay exact.
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


def test_tracer_counts_stay_exact(monkeypatch, capsys, tmp_path):
    """On the few-measurements workload, run twice, every block and every
    draw is counted, and both runs count the same.

    expected_max_monte_carlo draws ln U for every trial, in blocks of
    _BLOCK_TRIALS; simulate_minimal_effort draws one binomial count per
    call, from one generator.  A verify row (estimate_conditional_exceedance)
    draws per-cell counts and simulates only the runs its screen leaves
    undecided, so its draws are a small share of its trials."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing
    import workloads

    _, steps = workloads.build("few-measurements", 5, tmp_path)
    runs = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            for step in steps:
                assert cli.main(list(step.argv)) == 0
        finally:
            tracer.uninstall()
        capsys.readouterr()
        metrics = tracing.layer_metrics(tracer.spans)
        name = "paradox.expected_max_monte_carlo"
        spans = [s for s in tracer.spans if s.name == name]
        assert spans and metrics[f"{name}.trials"] > paradox._BLOCK_TRIALS
        assert metrics[f"{name}.draws"] == metrics[f"{name}.trials"]
        assert metrics[f"{name}.blocks"] == sum(
            -(-s.attrs["trials"] // paradox._BLOCK_TRIALS) for s in spans)
        name = "paradox.simulate_minimal_effort"
        calls = metrics[f"{name}.calls"]
        assert calls > 0 and metrics[f"{name}.trials"] > paradox._BLOCK_TRIALS
        assert metrics[f"{name}.draws"] == metrics[f"{name}.blocks"] == calls
        verify = "paradox.estimate_conditional_exceedance"
        assert 0 < metrics[f"{verify}.draws"] < 0.05 * metrics[f"{verify}.trials"]
        assert metrics[f"{verify}.blocks"] > metrics[f"{verify}.calls"]
        runs.append(tracing.count_metrics(metrics))
    assert runs[0] == runs[1]
