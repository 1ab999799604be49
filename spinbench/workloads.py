"""The benchmark's workloads: job lists built from a seed, and the schedules
the reference covers.

Plain data only, so the parent process can build the same job list as the
worker without importing spinkick.  The seed sets the Monte-Carlo sampling
seeds and the GHZ input states.  It never changes which schedules run, or
the job order (the order moves the worker's peak memory by several per
cent), so every seed attempts the same operations in the same sequence.
"""
from __future__ import annotations

import random

WORKLOADS = ("simulate-n25", "transfer-scan", "oracle-xcheck")

SIM_SITES = 25
SIM_SCHEDULES = (
    {"family": "sin_power", "n_sites": SIM_SITES, "m": 6},
    {"family": "square_delta", "n_sites": SIM_SITES, "delta": 16},
    {"family": "square_delta", "n_sites": SIM_SITES, "delta": 20},
    {"family": "ideal_kicks", "n_sites": SIM_SITES, "scheme": "JxJy"},
    {"family": "ideal_kicks", "n_sites": SIM_SITES, "scheme": "JxB"},
)

SWEEPS = {
    "square": {"family": "square_delta", "sweep": "delta",
               "values": list(range(5, 21)), "fixed": {"n_sites": 5}},
    "sin": {"family": "sin_power", "sweep": "m", "values": [2, 4, 6, 8],
            "fixed": {"n_sites": 7}},
    "ideal-JxJy": {"family": "ideal_kicks", "sweep": "n_sites",
                   "values": list(range(2, 15)), "fixed": {"scheme": "JxJy"}},
    "ideal-JxB": {"family": "ideal_kicks", "sweep": "n_sites",
                  "values": list(range(2, 17)), "fixed": {"scheme": "JxB"}},
}
# transfer_read_time at N = 15 three times per round.  Three jobs of the round
# are faster (N = 9, the JxJy and the sin^m sweeps) and two slower (the JxB
# and the square sweeps), so the job median is the mean of two N = 15 jobs,
# never a value between two kinds of job.
READ_TIME_SITES = (9, 15, 15, 15)

ORACLE_COMPARE_SITES = 8
ORACLE_FIDELITY_SITES = 7
ORACLE_SAMPLES = 2000
# five GHZ jobs at N = 12 hold the middle of the job-time ranking: the N = 3
# fidelity, N = 10 GHZ and compare jobs are faster, the N = 7 fidelity slower
GHZ_SITES = (10, 12, 12, 12, 12, 12)


def schedule_key(s: dict) -> str:
    """Reference key of a non-ideal schedule, e.g. 'square_delta:n=5:delta=7'."""
    param = "m" if s["family"] == "sin_power" else "delta"
    return f"{s['family']}:n={s['n_sites']}:{param}={s[param]:g}"


def sweep_schedules(spec: dict) -> list:
    """The schedule of every row of a sweep spec, in row order."""
    return [{"family": spec["family"], **spec["fixed"], spec["sweep"]: v} for v in spec["values"]]


def reference_schedules():
    """(key, family, params, needs a read-time window) for every non-ideal schedule."""
    windows = {(n, 6) for n in READ_TIME_SITES} | {(ORACLE_FIDELITY_SITES, 6)}
    candidates = [s for s in SIM_SCHEDULES if s["family"] != "ideal_kicks"]
    candidates += sweep_schedules(SWEEPS["square"]) + sweep_schedules(SWEEPS["sin"])
    candidates += [{"family": "sin_power", "n_sites": n, "m": m} for n, m in sorted(windows)]
    unique = {schedule_key(s): s for s in candidates}
    return [(key, s["family"], s, s["family"] == "sin_power" and (s["n_sites"], s["m"]) in windows)
            for key, s in unique.items()]


def _ghz_sites(rng: random.Random, n: int) -> list:
    """Mirror-symmetric product input: X+/X- at both ends, X or Z tokens inside."""
    left = [rng.choice(("X+", "X-"))]
    left += [rng.choice(("0", "1", "X+", "X-")) for _ in range(n // 2 - 1)]
    middle = [rng.choice(("0", "1"))] if n % 2 else []
    return left + middle + left[::-1]


def build_jobs(workload: str, seed: int) -> list:
    """One round of jobs.  Output paths are relative to the run's output directory."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(seed)
    jobs = []
    if workload == "simulate-n25":
        for s in SIM_SCHEDULES:
            flag = {"sin_power": ["--sin-m", str(s.get("m"))],
                    "square_delta": ["--square-delta", str(s.get("delta"))],
                    "ideal_kicks": ["--scheme", s.get("scheme", "")]}[s["family"]]
            jobs.append({"kind": "simulate", "schedule": s,
                         "argv": ["simulate", "--n-sites", str(s["n_sites"]), *flag,
                                  "--out", "{out}.csv", "--summary", "{out}.json"]})
    elif workload == "transfer-scan":
        for name in SWEEPS:
            jobs.append({"kind": "sweep", "sweep": name, "spec": SWEEPS[name],
                         "argv": ["sweep", f"{{dir}}/sweep-{name}.json", "--out", "{out}.csv"]})
        for n in READ_TIME_SITES:
            jobs.append({"kind": "read_time", "schedule": {"family": "sin_power", "n_sites": n, "m": 6}})
    else:
        jobs.append({"kind": "compare",
                     "argv": ["oracle", "compare", "--n-sites", str(ORACLE_COMPARE_SITES),
                              "--sin-m", "6", "--out", "{out}.json"]})
        jobs.append({"kind": "fidelity",
                     "schedule": {"family": "sin_power", "n_sites": ORACLE_FIDELITY_SITES, "m": 6},
                     "argv": ["oracle", "fidelity", "--n-sites", str(ORACLE_FIDELITY_SITES),
                              "--sin-m", "6", "--samples", str(ORACLE_SAMPLES),
                              "--seed", str(rng.randrange(1 << 31)), "--read-time", "auto",
                              "--out", "{out}.json"]})
        jobs.append({"kind": "fidelity",
                     "schedule": {"family": "ideal_kicks", "n_sites": 3, "scheme": "JxJy"},
                     "argv": ["oracle", "fidelity", "--n-sites", "3", "--scheme", "JxJy",
                              "--samples", str(ORACLE_SAMPLES), "--seed", str(rng.randrange(1 << 31)),
                              "--read-time", "end", "--out", "{out}.json"]})
        for n in GHZ_SITES:
            sites = _ghz_sites(rng, n)
            jobs.append({"kind": "ghz", "sites": sites,
                         "argv": ["oracle", "ghz", "--sites", *sites, "--scheme", "JxJy",
                                  "--dump-state", "{out}.state.json", "--out", "{out}.json"]})
    for i, job in enumerate(jobs):
        job["slot"] = f"job{i:02d}"
    return jobs


def warmup_job(workload: str) -> dict:
    """A small untimed job on the workload's code paths, run once per worker."""
    if workload == "simulate-n25":
        return {"kind": "simulate", "argv": ["simulate", "--n-sites", "9", "--sin-m", "6",
                                             "--out", "{out}.csv", "--summary", "{out}.json"]}
    if workload == "transfer-scan":
        return {"kind": "read_time", "schedule": {"family": "sin_power", "n_sites": 9, "m": 6}}
    return {"kind": "compare", "argv": ["oracle", "compare", "--n-sites", "6", "--sin-m", "6",
                                        "--out", "{out}.json"]}
