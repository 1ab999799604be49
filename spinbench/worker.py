"""Benchmark worker: one fresh process that imports spinkick and runs one
workload's jobs, timing each call into spinkick's public entry points.

Started by run.py with PYTHONPATH pointing at the checkout's src/.  It talks
to run.py over its standard streams, one JSON object per line: "ready" once
set up, one "job" message per timed job (then it waits for a line on stdin,
while run.py checks that job's outputs), and "done" at the end.  spinkick's
own writes to standard output go to standard error instead.

    python3 worker.py --workload NAME --seed N --seconds S --out DIR --mode setup|run|trace
"""
from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import SWEEPS, build_jobs, warmup_job  # noqa: E402


class Channel:
    def __init__(self):
        self.out = sys.stdout
        sys.stdout = sys.stderr

    def send(self, **message):
        self.out.write(json.dumps(message) + "\n")
        self.out.flush()

    def wait(self):
        if sys.stdin.readline().strip() != "go":
            raise SystemExit(1)


def run_job(spinkick, job: dict, out_dir: Path) -> dict:
    """One call into spinkick; file outputs go to out_dir/<slot>.*"""
    try:
        return _call(spinkick, job, out_dir)
    except Exception as exc:  # reported to run.py, which marks the run incorrect
        return {"error": f"{type(exc).__name__}: {exc}"}


def _call(spinkick, job: dict, out_dir: Path) -> dict:
    if job["kind"] == "read_time":
        s = job["schedule"]
        schedule = spinkick.pulses.sin_power_schedule(s["n_sites"], s["m"])
        return {"read_time": list(spinkick.fidelity.transfer_read_time(schedule))}
    prefix = out_dir / job.get("slot", "warmup")
    argv = [a.format(out=prefix, dir=out_dir) for a in job["argv"]]
    return {"rc": spinkick.cli.main(argv)}


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    args = p.parse_args()
    channel = Channel()

    t0 = time.perf_counter()
    import spinkick  # noqa: F401  (the package import is part of set-up)
    import spinkick.cli
    import_s = time.perf_counter() - t0
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    jobs = build_jobs(args.workload, args.seed)
    if args.workload == "transfer-scan":
        for name, spec in SWEEPS.items():
            (out_dir / f"sweep-{name}.json").write_text(json.dumps(spec))
    channel.send(type="ready", import_s=import_s)
    if args.mode == "setup":
        return 0

    run_job(spinkick, warmup_job(args.workload), out_dir)

    tracer = None
    round_walls = {"untraced": [], "traced": []}
    if args.mode == "trace":
        from spans import Tracer
        tracer = Tracer()
    phases = [False, True] if tracer else [False]
    for traced in phases:
        if traced:
            tracer.install()
        elapsed = 0.0
        # whole rounds until the run's seconds are used; the untraced round of a
        # traced run is a single baseline round
        while elapsed < args.seconds:
            wall = 0.0
            for job in jobs:
                start = time.perf_counter()
                result = tracer.run_job(run_job, spinkick, job, out_dir) if traced \
                    else run_job(spinkick, job, out_dir)
                seconds = time.perf_counter() - start
                wall += seconds
                channel.send(type="job", slot=job["slot"], seconds=seconds, traced=traced,
                             result=result)
                channel.wait()
            round_walls["traced" if traced else "untraced"].append(wall)
            elapsed += wall
            if tracer and not traced:
                break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    done = {"peak_rss_mb": peak_rss_mb, "round_walls": round_walls}
    if tracer:
        rounds = len(round_walls["traced"])
        done["layers"] = tracer.layer_metrics(rounds)
        done["layers"]["trace.overhead_s"] = (statistics.median(round_walls["traced"])
                                             - statistics.median(round_walls["untraced"]))
        tracer.save(out_dir / f"trace-seed{args.seed}.npz")
    channel.send(type="done", **done)
    return 0


if __name__ == "__main__":
    sys.exit(main())
