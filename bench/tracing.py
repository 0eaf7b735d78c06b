"""Outside-in tracing of the threshcal layers.

The tracer replaces public functions of `threshcal.cli`,
`threshcal.calibration`, `threshcal.gaussian` and `threshcal.paradox`, in
the namespace of each caller, with wrappers that record a span per call:
name, start, end, parent span and the CLI invocation it belongs to.  It
also counts work at the same boundaries:

* integrand evaluations, by wrapping the integrand handed to `integrate`;
* bisection steps, from each `CalibrationResult.iterations`;
* Monte Carlo draws and blocks, through a proxy around every generator
  `SeededStream.generator` returns: the proxy adds up the size of each
  array the generator hands out, so the count stays right whatever the
  kernels draw.

Spans stay in memory until the run ends.  Nothing in `src/` changes, and
`uninstall` puts every original function back.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

MC_FUNCTIONS = ("estimate_conditional_exceedance", "simulate_compliance",
                "simulate_minimal_effort", "expected_max_monte_carlo")
_MC_SPANS = frozenset(f"paradox.{fn}" for fn in MC_FUNCTIONS)


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    invocation: int | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class CountingGenerator:
    """Forwards to a numpy Generator and tallies the size of every array it returns."""

    def __init__(self, gen: np.random.Generator, owner: Span):
        self._gen = gen
        self._owner = owner

    def __getattr__(self, name):
        attr = getattr(self._gen, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self._owner.attrs["draws"] += int(np.size(out))
            return out

        return counted


class Tracer:
    """Spans and counters for one traced pass over a workload."""

    def __init__(self):
        self.spans: list[Span] = []
        self.invocation: int | None = None
        self._stack: list[Span] = []
        self._originals: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.invocation, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, on_result=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.begin(name)
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(span, args, kwargs, result)
                return result
            finally:
                self.end(span)

        return traced

    def _wrap_integrate(self, fn, name):
        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            span = self.begin(name)
            span.attrs["evals"] = 0

            def counted(x):
                span.attrs["evals"] += 1
                return f(x)

            try:
                return fn(counted, *args, **kwargs)
            finally:
                self.end(span)

        return traced

    def _patch(self, owner, attr, replacement) -> None:
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        from threshcal import calibration, cli, gaussian, paradox

        for cmd in ("cmd_calibrate", "cmd_schedule", "cmd_verify", "cmd_simulate",
                    "cmd_expected_max"):
            self._patch(cli, cmd, self._wrap(getattr(cli, cmd), f"cli.{cmd}"))

        def iterations(span, args, kwargs, result):
            span.attrs["iterations"] = result.iterations

        calibrate = self._wrap(calibration.calibrate_threshold,
                               "calibration.calibrate_threshold", iterations)
        self._patch(cli, "calibrate_threshold", calibrate)
        self._patch(calibration, "calibrate_threshold", calibrate)
        self._patch(calibration, "conditional_exceedance",
                    self._wrap(calibration.conditional_exceedance,
                               "calibration.conditional_exceedance"))
        self._patch(cli, "threshold_schedule",
                    self._wrap(calibration.threshold_schedule,
                               "calibration.threshold_schedule"))
        self._patch(calibration, "integrate",
                    self._wrap_integrate(gaussian.integrate, "gaussian.integrate.calibration"))
        self._patch(paradox, "integrate",
                    self._wrap_integrate(gaussian.integrate, "gaussian.integrate.paradox"))

        def mc_result(span, args, kwargs, result):
            if isinstance(result, paradox.SimulationReport):
                span.attrs["trials"] = result.trials
                span.attrs["kept"] = result.accepted_runs
            else:   # expected_max_monte_carlo(n, sigma, trials, stream, ...)
                span.attrs["trials"] = kwargs.get("trials", args[2] if len(args) > 2 else None)

        for fn in MC_FUNCTIONS + ("paradox_curve", "expected_max_exact"):
            wrapped = self._wrap(getattr(paradox, fn), f"paradox.{fn}",
                                 mc_result if fn in MC_FUNCTIONS else None)
            for module in (cli, paradox):
                if fn in module.__dict__:
                    self._patch(module, fn, wrapped)

        make_generator = gaussian.SeededStream.generator

        def generator(stream, *path):
            span = self.begin("gaussian.SeededStream.generator")
            try:
                gen = make_generator(stream, *path)
            finally:
                self.end(span)
            owner = next((s for s in reversed(self._stack) if s.name in _MC_SPANS), None)
            if owner is None:
                return gen
            owner.attrs["blocks"] = owner.attrs.get("blocks", 0) + 1
            owner.attrs.setdefault("draws", 0)
            return CountingGenerator(gen, owner)

        self._patch(gaussian.SeededStream, "generator", generator)

    def uninstall(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def to_records(self) -> list[dict]:
        return [{"id": s.id, "name": s.name, "parent": s.parent, "invocation": s.invocation,
                 "start": s.start, "end": s.end, **s.attrs} for s in self.spans]


# Per-layer metrics whose values are counts: they must repeat exactly at
# one seed, and a difference between two traced passes is a failure.
COUNT_SUFFIXES = (".calls", ".evals", ".draws", ".blocks", ".trials", ".per_row",
                  ".evals_per_call", ".draws_per_trial", "bisection_steps_per_row",
                  ".kept_ratio")


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """The per-layer metrics of one traced pass, computed from its spans."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.end - s.start
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name):
        return sum(s.end - s.start for s in by_name[name])

    def self_time(name):
        return sum(s.end - s.start - child_time[s.id] for s in by_name[name])

    def attr(name, key):
        return sum(s.attrs.get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    main = "cli.main"
    m["cli.main.calls"] = calls(main)
    m["cli.main.self_s"] = self_time(main)

    cal = "calibration.calibrate_threshold"
    rows = calls(cal)
    row_ms = [1e3 * (s.end - s.start) for s in by_name[cal]] or [0.0]
    m[f"{cal}.calls"] = rows
    m[f"{cal}.self_s"] = self_time(cal)
    m[f"{cal}.row_ms.p50"] = float(np.percentile(row_ms, 50))
    m[f"{cal}.row_ms.p90"] = float(np.percentile(row_ms, 90))
    m["calibration.bisection_steps_per_row"] = _ratio(attr(cal, "iterations"), rows)
    ce = "calibration.conditional_exceedance"
    m[f"{ce}.calls"] = calls(ce)
    m[f"{ce}.per_row"] = _ratio(calls(ce), rows)
    m[f"{ce}.self_s"] = self_time(ce)
    ts = "calibration.threshold_schedule"
    m[f"{ts}.calls"] = calls(ts)
    m[f"{ts}.s"] = total(ts)

    ic = "gaussian.integrate.calibration"
    m[f"{ic}.calls"] = calls(ic)
    m[f"{ic}.evals"] = attr(ic, "evals")
    m[f"{ic}.evals_per_call"] = _ratio(attr(ic, "evals"), calls(ic))
    m[f"{ic}.self_s"] = self_time(ic)
    ip = "gaussian.integrate.paradox"
    m[f"{ip}.calls"] = calls(ip)
    m[f"{ip}.evals"] = attr(ip, "evals")
    gen = "gaussian.SeededStream.generator"
    m[f"{gen}.calls"] = calls(gen)
    m[f"{gen}.s"] = total(gen)

    for fn in MC_FUNCTIONS:
        name = f"paradox.{fn}"
        trials = attr(name, "trials")
        draws = attr(name, "draws")
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = total(name)
        m[f"{name}.trials"] = trials
        m[f"{name}.draws"] = draws
        m[f"{name}.draws_per_trial"] = _ratio(draws, trials)
        m[f"{name}.ns_per_trial"] = _ratio(1e9 * total(name), trials)
        m[f"{name}.blocks"] = attr(name, "blocks")
    ece = "paradox.estimate_conditional_exceedance"
    m[f"{ece}.kept_ratio"] = _ratio(attr(ece, "kept"), attr(ece, "trials"))
    m["paradox.paradox_curve.self_s"] = self_time("paradox.paradox_curve")
    m["paradox.expected_max_exact.s"] = total("paradox.expected_max_exact")
    return m


def count_metrics(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if k.endswith(COUNT_SUFFIXES)}
