"""Span tracing of spinkick's layers from outside the package.

install() replaces each traced function at the module attributes through
which spinkick's own modules call it (and the benchmark calls it), so the
library source is untouched.  Every call records a span: layer name, start,
end, parent span and job id.  Spans stay in memory in flat arrays and are
written out when the run ends.  A layer's self time is its span time minus
the time of its child spans, so the self times of all spans of a job add up
to the job's time.
"""
from __future__ import annotations

import functools
import importlib
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np


def _windows_of_propagation(tracer, args, kwargs, result):
    tracer.count("flux.windows", len(result.times) - 1)


def _csv_bytes(tracer, args, kwargs, result):
    tracer.count("flux.csv_mb", len(result) / 1e6)


def _evolve_effort(tracer, args, kwargs, result):
    times, states = result
    tracer.count("oracle.windows", len(times) - 1)
    tracer.count("oracle.states_mb", states.nbytes / 1e6)


def _final_state_windows(tracer, args, kwargs, result):
    # final_state(psi0, schedule, read_time=None, ...) steps the grid up to read_time
    schedule = args[1] if len(args) > 1 else kwargs["schedule"]
    read_time = args[2] if len(args) > 2 else kwargs.get("read_time")
    if read_time is None:
        read_time = schedule.total_time
    tracer.count("oracle.windows", int(np.count_nonzero(tracer.last_grid < read_time)))


def _keep_grid(tracer, args, kwargs, result):
    tracer.last_grid = result


# layer -> (targets as (module, attribute) or (module, class, method), after-call hook)
LAYERS = {
    "graph.build": ([("spinkick.cli", "build_graph"), ("spinkick.cli", "generator_matrices"),
                     ("spinkick.fidelity", "build_graph"), ("spinkick.fidelity", "generator_matrices"),
                     ("spinkick.graph", "build_graph")], None),
    "pulses.schedule": ([(m, f) for m in ("spinkick.cli", "spinkick.fidelity")
                         for f in ("sin_power_schedule", "square_schedule", "ideal_schedule")]
                        + [("spinkick.pulses", "sin_power_schedule"),
                           ("spinkick.oracle", "ideal_schedule")], None),
    "pulses.average": ([("spinkick.pulses", c, "average_amplitudes") for c in
                        ("SinPowerSchedule", "SquareDeltaSchedule", "IdealKickSchedule")], None),
    "pulses.grid": ([("spinkick.flux", "step_grid"), ("spinkick.oracle", "step_grid")], _keep_grid),
    "flux.expm": ([("spinkick.flux", "expm_series")], None),
    "flux.propagate": ([("spinkick.cli", "propagate"), ("spinkick.fidelity", "propagate")],
                       _windows_of_propagation),
    "flux.peak": ([("spinkick.flux", "max_alpha"), ("spinkick.fidelity", "max_alpha"),
                   ("spinkick.cli", "max_alpha")], None),
    "flux.csv": ([("spinkick.cli", "series_csv")], _csv_bytes),
    "flux.info_flux": ([("spinkick.cli", "information_flux")], None),
    "fidelity.sweep": ([("spinkick.cli", "run_sweep")], None),
    "fidelity.read_time": ([("spinkick.cli", "transfer_read_time"),
                            ("spinkick.fidelity", "transfer_read_time")], None),
    "oracle.final_state": ([("spinkick.oracle", "final_state")], _final_state_windows),
    "oracle.evolve_state": ([("spinkick.oracle", "evolve_state")], _evolve_effort),
    "oracle.expectation": ([("spinkick.cli", "heisenberg_expectation")], None),
    "oracle.sampling": ([("spinkick.cli", "monte_carlo_average_fidelity")], None),
    "oracle.ghz": ([("spinkick.cli", "ghz_compare")], None),
    "cli.main": ([("spinkick.cli", "main")], None),
}
JOB = "job"

# per-layer metric -> (layer, what): "self" seconds, "calls", or a counter name
METRICS = {
    "graph.build_s": ("graph.build", "self"),
    "graph.build_calls": ("graph.build", "calls"),
    "pulses.schedule_s": ("pulses.schedule", "self"),
    "pulses.average_s": ("pulses.average", "self"),
    "pulses.average_calls": ("pulses.average", "calls"),
    "pulses.grid_s": ("pulses.grid", "self"),
    "flux.expm_s": ("flux.expm", "self"),
    "flux.expm_calls": ("flux.expm", "calls"),
    "flux.propagate_self_s": ("flux.propagate", "self"),
    "flux.propagations": ("flux.propagate", "calls"),
    "flux.windows": ("flux.propagate", "flux.windows"),
    "flux.peak_s": ("flux.peak", "self"),
    "flux.csv_s": ("flux.csv", "self"),
    "flux.csv_mb": ("flux.csv", "flux.csv_mb"),
    "flux.info_flux_s": ("flux.info_flux", "self"),
    "fidelity.sweep_self_s": ("fidelity.sweep", "self"),
    "fidelity.read_time_self_s": ("fidelity.read_time", "self"),
    "oracle.final_state_s": ("oracle.final_state", "self"),
    "oracle.final_state_calls": ("oracle.final_state", "calls"),
    "oracle.evolve_state_s": ("oracle.evolve_state", "self"),
    "oracle.windows": ("oracle.evolve_state", "oracle.windows"),
    "oracle.expectation_s": ("oracle.expectation", "self"),
    "oracle.sampling_s": ("oracle.sampling", "self"),
    "oracle.ghz_self_s": ("oracle.ghz", "self"),
    "oracle.states_mb": ("oracle.evolve_state", "oracle.states_mb"),
    "cli.self_s": ("cli.main", "self"),
    "trace.job_self_s": (JOB, "self"),
}


class Tracer:
    """In-memory span recorder; one instance per traced worker."""

    def __init__(self):
        self.names = [JOB] + list(LAYERS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.layer = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.job_id = -1
        self.counters = defaultdict(float)
        self.absent = set()
        self.last_grid = None

    def count(self, name: str, amount: float):
        self.counters[name] += amount

    def _open(self, layer_id: int) -> int:
        idx = len(self.layer)
        self.layer.append(layer_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.job.append(self.job_id)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self.stack.pop()

    def run_job(self, fn, *args):
        """Run one job under a root span with a fresh job id."""
        self.job_id += 1
        idx = self._open(0)
        try:
            return fn(*args)
        finally:
            self._close(idx)

    def _wrap(self, layer: str, fn, after):
        layer_id = self._ids[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(layer_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if after is not None:
                after(self, args, kwargs, result)
            return result
        return traced

    def install(self):
        """Wrap every reachable target; a layer with no target left is absent."""
        for layer, (targets, after) in LAYERS.items():
            found = 0
            for target in targets:
                owner = importlib.import_module(target[0])
                for part in target[1:-1]:
                    owner = getattr(owner, part, None)
                attr = target[-1]
                original = owner.__dict__.get(attr) if owner is not None else None
                if original is None:
                    continue
                setattr(owner, attr, self._wrap(layer, original, after))
                found += 1
            if not found:
                self.absent.add(layer)

    def self_times(self) -> tuple:
        """(layer ids, self seconds) of every span recorded so far."""
        layer = np.frombuffer(self.layer, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(dur))
        return layer, dur - child

    def layer_metrics(self, rounds: int) -> dict:
        """Per-layer metrics per round; None for a layer whose function is gone."""
        layer, self_s = self.self_times()
        totals = np.bincount(layer, weights=self_s, minlength=len(self.names))
        calls = np.bincount(layer, minlength=len(self.names))
        out = {}
        for metric, (name, what) in METRICS.items():
            if name in self.absent:
                out[metric] = None
            elif what == "self":
                out[metric] = float(totals[self._ids[name]]) / rounds
            elif what == "calls":
                out[metric] = float(calls[self._ids[name]]) / rounds
            else:
                out[metric] = self.counters[what] / rounds
        out["trace.span_cost_s"] = len(self.layer) * self.span_cost() / rounds
        return out

    def span_cost(self, calls: int = 100_000) -> float:
        """Seconds one traced call adds, timed on a no-op in a separate tracer."""
        def noop():
            return None
        spare = Tracer()
        traced = spare._wrap("cli.main", noop, None)
        t0 = time.perf_counter()
        for _ in range(calls):
            noop()
        t1 = time.perf_counter()
        for _ in range(calls):
            traced()
        t2 = time.perf_counter()
        return ((t2 - t1) - (t1 - t0)) / calls

    def save(self, path: Path):
        np.savez_compressed(
            path, names=np.array(self.names), layer=np.frombuffer(self.layer, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            job=np.frombuffer(self.job, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float), end=np.frombuffer(self.end, dtype=float))
