"""Every library name the benchmark's tracer patches must exist and come back intact.

`bench/tracing.py` replaces functions of `threshcal.cli`, `calibration`,
`gaussian` and `paradox` by name, so a rename in the library breaks the
traced benchmark run (`bench/run.py --trace 1`) without failing any other
test.  The first test installs the tracer and uninstalls it again; the
second checks that its counts stay exact while simulation blocks run on
several threads.
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


# Draws per trial of the traced Monte Carlo kernels that draw every trial:
# ln U and ln V; ln U.  A verify row (estimate_conditional_exceedance)
# draws per-cell counts and simulates only the runs its screen leaves
# undecided, so its draws are a small share of its trials.
DRAWS_PER_TRIAL = {"simulate_minimal_effort": 2, "expected_max_monte_carlo": 1}


def test_tracer_counts_stay_exact_with_block_threads(monkeypatch, capsys, tmp_path):
    """On the few-measurements workload, run twice with two threads, every
    block and every draw is counted.

    This relies on behaviour nothing guarantees: CountingGenerator bumps
    attrs["draws"] from the worker threads with an unlocked +=, which reads
    the old count before it calls np.size, where the interpreter may switch
    threads and lose the other thread's update.  That needs a forced switch
    inside that call and has not been seen, but until the tracer counts
    under a lock or per thread (ROADMAP item 9) a failure here can be that
    race rather than a fault in the library."""
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.setattr(paradox, "_WORKERS", 2)
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
        for fn, per_trial in DRAWS_PER_TRIAL.items():
            name = f"paradox.{fn}"
            spans = [s for s in tracer.spans if s.name == name]
            assert spans and metrics[f"{name}.trials"] > paradox._BLOCK_TRIALS
            assert metrics[f"{name}.draws"] == per_trial * metrics[f"{name}.trials"]
            assert metrics[f"{name}.blocks"] == sum(
                -(-s.attrs["trials"] // paradox._BLOCK_TRIALS) for s in spans)
        verify = "paradox.estimate_conditional_exceedance"
        assert 0 < metrics[f"{verify}.draws"] < 0.05 * metrics[f"{verify}.trials"]
        assert metrics[f"{verify}.blocks"] > metrics[f"{verify}.calls"]
        runs.append(tracing.count_metrics(metrics))
    assert runs[0] == runs[1]
