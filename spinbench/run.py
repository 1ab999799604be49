"""spinkick benchmark: one workload, one seed, one fresh worker process.

    python3 spinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; spinkick is imported from its src/.  The
run first starts SETUP_RUNS - 1 set-up-only workers (interpreter start,
`import spinkick`, the workload's inputs), then the measuring worker, which
runs one untimed warm-up job and then whole rounds of the workload's jobs
until S seconds of job time have passed.  Each job's outputs are checked
here after its timed span, while the worker waits.  The last line of
standard output is one JSON object: correct, attempted, failed and the
metrics (end-to-end with --trace 0, per-layer with --trace 1).
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from checks import check_job  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402

SETUP_RUNS = 7
DEADLINE_S = 170.0
END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {"_s": "s", "_mb": "MB"}


class Worker:
    """One worker process speaking the line protocol of worker.py."""

    def __init__(self, args, mode: str, out_dir: Path):
        env = dict(os.environ)
        src = str(ROOT / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--out", str(out_dir), "--mode", mode]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=env, cwd=str(ROOT))

    def receive(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker ended early (exit code {self.proc.wait()})")
        return json.loads(line)

    def go(self):
        self.proc.stdin.write("go\n")
        self.proc.stdin.flush()

    def close(self) -> int:
        for stream in (self.proc.stdin, self.proc.stdout):
            stream.close()
        return self.proc.wait()


def _start(args, mode: str, out_dir: Path, workers: list) -> tuple:
    """Launch a worker and wait until it is ready: (worker, set-up seconds, message)."""
    t0 = time.perf_counter()
    worker = Worker(args, mode, out_dir)
    workers.append(worker)
    ready = worker.receive()
    return worker, time.perf_counter() - t0, ready


def measure(args) -> dict:
    out_dir = ROOT / ".spinbench" / args.workload
    reference = json.loads((HERE / "reference.json").read_text())
    jobs = {job["slot"]: job for job in build_jobs(args.workload, args.seed)}
    workers: list = []
    timer = threading.Timer(DEADLINE_S, lambda: [w.proc.kill() for w in workers])
    timer.daemon = True
    timer.start()
    try:
        setups, imports = [], []
        for _ in range(SETUP_RUNS - 1):
            worker, setup_s, ready = _start(args, "setup", out_dir, workers)
            if worker.close() != 0:
                raise RuntimeError("set-up worker failed")
            setups.append(setup_s)
            imports.append(ready["import_s"])
        mode = "trace" if args.trace else "run"
        worker, setup_s, ready = _start(args, mode, out_dir, workers)
        setups.append(setup_s)
        imports.append(ready["import_s"])

        attempted = failed = 0
        problems = []
        job_times = []
        while True:
            msg = worker.receive()
            if msg["type"] == "done":
                break
            job = jobs[msg["slot"]]
            for outcome in check_job(job, out_dir / msg["slot"], msg["result"], reference):
                attempted += 1
                if outcome.problems:
                    problems.append(f"{outcome.what}: {'; '.join(outcome.problems)}")
                elif outcome.sign_fault:
                    failed += 1
            if not msg["traced"]:
                job_times.append(msg["seconds"])
            print(f"  {msg['slot']} {job['kind']:9s} {msg['seconds']:8.3f} s"
                  f"{' traced' if msg['traced'] else ''}")
            worker.go()
        if worker.close() != 0:
            raise RuntimeError("measuring worker failed")
    finally:
        timer.cancel()
        for w in workers:
            if w.proc.poll() is None:
                w.proc.kill()
            w.proc.wait()

    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    untraced = msg["round_walls"]["untraced"]
    print(f"set-up {[round(s, 3) for s in setups]} s")
    print(f"{args.workload} seed={args.seed}: {len(untraced)} untraced round(s) "
          f"{[round(w, 3) for w in untraced]} s, {len(job_times)} timed jobs, "
          f"{attempted} operations, {failed} failed (sign convention), {len(problems)} wrong")
    if args.trace:
        metrics = {"setup.import_s": statistics.median(imports), **msg["layers"]}
        print(f"traced rounds {[round(w, 3) for w in msg['round_walls']['traced']]} s")
        for name, value in metrics.items():
            print(f"  {name:28s} {value}")
        values = {name: {"value": value, "unit": _unit(name)} for name, value in metrics.items()}
    else:
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(untraced),
            "job_p50_s": statistics.median(job_times),
            "peak_rss_mb": msg["peak_rss_mb"],
        }
        values = {name: {"value": v, "unit": END_TO_END[name]} for name, v in values.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": values}


def _unit(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    if not (ROOT / "src" / "spinkick" / "__init__.py").is_file():
        print(f"error: no spinkick sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = measure(args)
    except (RuntimeError, OSError, ValueError, KeyError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
