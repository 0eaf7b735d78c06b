"""Benchmark of the threshcal CLI: one workload, untraced or traced.

    python3 bench/run.py --workload demo-pipeline --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  The run

1. writes the workload's job files (seeded by --seed) under
   bench/.work/ and calls `threshcal.cli.main` on each step, in process,
   one after another, pass after pass, until --seconds have passed;
2. between passes, starts fresh interpreters that import `threshcal.cli`
   and build its parser, and reports the fastest as `setup_s`;
3. grades every output row against the oracles in oracles.py, outside the
   timed region, and checks that every pass printed the same bytes.

With --trace 1 the run alternates untraced and traced passes (at least two
traced ones), checks that traced output matches untraced output and that
the layer counts repeat exactly, and reports the per-layer metrics instead
of the end-to-end ones.  README.md documents every metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The full record, with run
metadata and, when traced, every span, goes to bench/.work/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

SETUP_SAMPLES = 9
# The gated timings are the fastest sample of the run (best of N): the
# machine alternates fast and slow spells, and the fastest sample tracks
# the program's own cost, where the median jumps with the share of the
# run that fell in slow spells.  The other timings are medians.
BEST_OF = ("wall_s", "setup_s")
MIN_TRACED_PASSES = 2
CHILD_TIMEOUT_S = 60

# A fresh interpreter reports when numpy, then threshcal.cli with its
# parser, are ready.  time.monotonic() reads the same system-wide clock in
# both processes, so the parent can time the child from its launch.
_SETUP_CHILD = """\
import time
t0 = time.monotonic()
import numpy
t1 = time.monotonic()
import threshcal.cli
threshcal.cli.build_parser()
t2 = time.monotonic()
print(repr(t1 - t0), repr(t2 - t1), repr(t2))
"""


def declared_metrics(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics BENCHMARK.json declares for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


class SetupSampler:
    """Fresh interpreters that import threshcal.cli and build its parser.

    Each sample is (setup_s, numpy import s, threshcal import + parser s).
    The samples are spread over the run, so a slow spell of the machine
    affects only some of them; the first start warms the caches and is
    dropped.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, float]] = []
        self._env = dict(os.environ)
        self._env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(SRC), self._env.get("PYTHONPATH")]))
        self._sample()
        self.samples.clear()

    def _sample(self) -> None:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD], cwd=ROOT, env=self._env,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=True)
        numpy_s, threshcal_s, ready = map(float, proc.stdout.split())
        self.samples.append((ready - start, numpy_s, threshcal_s))

    def top_up(self, share: float) -> None:
        """Take samples until their count matches the share of the run gone by."""
        due = min(SETUP_SAMPLES, 1 + math.ceil(SETUP_SAMPLES * share))
        while len(self.samples) < due:
            self._sample()


def run_pass(cli, oracles, steps, tracer=None) -> list:
    """Call cli.main once per step; returns one Invocation per step."""
    results = []
    for index, step in enumerate(steps):
        if step.out is not None:
            Path(step.out).unlink(missing_ok=True)
        if tracer is not None:
            tracer.invocation = index
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                if tracer is None:
                    code = cli.main(list(step.argv))
                else:
                    span = tracer.begin("cli.main")
                    try:
                        code = cli.main(list(step.argv))
                    finally:
                        tracer.end(span)
        except Exception:    # a traceback fails the step; the run goes on
            code = None
            stderr.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        out_text = None
        if step.out is not None and Path(step.out).exists():
            out_text = Path(step.out).read_text(encoding="utf-8")
        results.append(oracles.Invocation(code, stdout.getvalue(), out_text,
                                          stderr.getvalue(), seconds))
    return results


def pass_metrics(steps, invocations) -> dict[str, float]:
    """Wall time of one pass, in all and per subcommand, and its throughputs."""
    m = {"wall_s": sum(inv.seconds for inv in invocations)}
    for step, inv in zip(steps, invocations):
        name = workloads.KIND_METRIC[step.kind]
        m[name] = m.get(name, 0.0) + inv.seconds
    cal_s = sum(inv.seconds for s, inv in zip(steps, invocations)
                if s.kind in workloads.CALIBRATION_KINDS)
    m["calibration_rows_per_s"] = (
        sum(s.rows for s in steps if s.kind in workloads.CALIBRATION_KINDS) / cal_s)
    mc_s = sum(inv.seconds for s, inv in zip(steps, invocations) if s.trial_rows)
    if mc_s:
        m["mc_trial_rows_per_s"] = sum(s.trial_rows for s in steps) / mc_s
    return m


def distribution(samples: list[float]) -> dict:
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples)}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    """HEAD of the checkout's own .git, if it has one (never a parent repo's)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed: int, specs: dict) -> dict:
    import numpy as np

    sources = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "seed": seed,
        "jobs": {name: spec.to_dict() for name, spec in specs.items()},
    }


def command_line(step) -> str:
    """The step's arguments, with paths relative to the checkout."""
    return " ".join(step.argv).replace(str(ROOT) + os.sep, "")


def grade(steps, specs, oracles, passes) -> tuple[int, int, list[str]]:
    """Grade every pass against the oracles: (attempted, failed, problems).

    passes is a list of (label, invocations); the first one is the
    reference that every other pass must repeat byte for byte.  Each
    distinct output is graded once.
    """
    reference = passes[0][1]
    verdicts: dict[tuple, tuple[int, str | None]] = {}
    attempted = failed = 0
    problems: list[str] = []
    for label, invocations in passes:
        for i, (step, inv) in enumerate(zip(steps, invocations)):
            key = (i, inv.output)
            if key not in verdicts:
                verdicts[key] = oracles.check(step, specs[step.job], inv, reference[i])
            rows_failed, problem = verdicts[key]
            attempted += step.rows
            failed += rows_failed
            if problem is not None:
                problems.append(f"{label} step {i} ({command_line(step)}): {problem}")
    return attempted, failed, problems


def traced_metrics(tracing, tracers, steps, problems) -> tuple[dict, dict]:
    """Per-layer metrics over the traced passes, and the counts of each step.

    Counts must repeat exactly between traced passes; times are medians.
    """
    layers = [tracing.layer_metrics(t.spans) for t in tracers]
    counts = [tracing.count_metrics(m) for m in layers]
    differing = sorted(k for k in counts[0] if any(c[k] != counts[0][k] for c in counts))
    if differing:
        problems.append(f"layer counts differ between traced passes: {differing}")
    metrics = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
    metrics.update(counts[0])
    first = tracers[0].spans
    by_step = {i: {k: v for k, v in tracing.count_metrics(tracing.layer_metrics(
                   [s for s in first if s.invocation == i])).items() if v}
               for i in range(len(steps))}
    return metrics, by_step


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    if not (SRC / "threshcal" / "cli.py").is_file():
        print(f"error: no threshcal sources under {SRC}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(SRC))
    from threshcal import cli

    import oracles
    import tracing

    workdir = BENCH_DIR / ".work" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    declared = declared_metrics(args.trace)
    units = {**declared_metrics(0), **declared_metrics(1)}
    setup = SetupSampler()
    jobs, steps = workloads.build(args.workload, args.seed, workdir)
    specs = {name: cli.JobSpec.from_dict(job) for name, job in jobs.items()}

    # Timed passes.  Traced passes (when asked for) alternate with untraced ones.
    untraced, traced, tracers = [], [], []
    start = time.monotonic()
    while (not untraced or time.monotonic() - start < args.seconds
           or (args.trace and len(traced) < MIN_TRACED_PASSES)):
        setup.top_up((time.monotonic() - start) / args.seconds)
        gc.collect()
        untraced.append(run_pass(cli, oracles, steps))
        if args.trace:
            gc.collect()
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced.append(run_pass(cli, oracles, steps, tracer))
            finally:
                tracer.uninstall()
            tracers.append(tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup.top_up(1.0)

    # Grading, outside the timed region.
    attempted, failed, problems = grade(
        steps, specs, oracles,
        [(f"untraced pass {p}", invs) for p, invs in enumerate(untraced)]
        + [(f"traced pass {p}", invs) for p, invs in enumerate(traced)])

    # Every timing is the median of its samples in the run, or the fastest
    # for BEST_OF.
    per_pass = [pass_metrics(steps, invs) for invs in untraced]
    spread = {name: distribution([m[name] for m in per_pass]) for name in per_pass[0]}
    spread["setup_s"] = distribution([s[0] for s in setup.samples])
    spread["peak_rss_mb"] = distribution([peak_rss_mb])
    metrics = {name: d["min" if name in BEST_OF else "median"] for name, d in spread.items()}
    record = {"workload": args.workload, "trace": args.trace, "seconds": args.seconds,
              "metadata": metadata(args.seed, specs), "spread": spread,
              "steps": [command_line(s) for s in steps],
              "passes": {"untraced": [[inv.seconds for inv in invs] for invs in untraced],
                         "traced": [[inv.seconds for inv in invs] for invs in traced]}}
    if args.trace:
        layer, record["step_counts"] = traced_metrics(tracing, tracers, steps, problems)
        metrics.update(layer)
        metrics["cli.stdout_bytes"] = sum(len((inv.stdout + (inv.out_text or "")).encode())
                                          for inv in untraced[0])
        metrics["import.numpy_s"] = statistics.median(s[1] for s in setup.samples)
        metrics["import.threshcal_s"] = statistics.median(s[2] for s in setup.samples)
        metrics["failed_share"] = failed / attempted
        for name in [*workloads.KIND_METRIC.values(), "calibration_rows_per_s",
                     "mc_trial_rows_per_s"]:
            metrics.setdefault(name, 0.0)    # subcommands the workload does not run
        metrics["trace.overhead_ratio"] = (
            statistics.median(sum(inv.seconds for inv in invs) for invs in traced)
            / spread["wall_s"]["median"])
        spans = [dict(span, traced_pass=p) for p, t in enumerate(tracers)
                 for span in t.to_records()]
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")
    result = {name: {"value": metrics[name], "unit": unit}
              for name, unit in declared.items()}
    record.update(metrics=result, attempted=attempted, failed=failed, problems=problems)
    (workdir / "record.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {len(untraced)} untraced, {len(traced)} traced  "
          f"setups {len(setup.samples)}")
    print(f"{'metric':<50}{'median':>13}{'min':>13}{'max':>13}{'n':>5}  unit")
    for name, unit in units.items():
        if name in spread:
            d = spread[name]
            print(f"{name:<50}{d['median']:>13.6g}{d['min']:>13.6g}{d['max']:>13.6g}"
                  f"{d['n']:>5}  {unit}")
        elif name in metrics:
            print(f"{name:<50}{metrics[name]:>13.6g}{'':>31}  {unit}")
    print(f"failed_share {failed / attempted:.4f} ({failed}/{attempted} rows)")
    for problem in problems:
        print(f"problem: {problem}")
    print(f"record: {workdir.relative_to(ROOT) / 'record.json'}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
