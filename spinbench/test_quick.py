"""Quick test of the benchmark itself, about half a minute:

    python3 -m pytest -q spinbench/test_quick.py

Runs one small job per workload through the worker's job runner, checks that
each check accepts the real output, and that it rejects a perturbed one: a
scaled alpha column, a shifted t_star, a moved transfer amplitude, a GHZ
state with one amplitude flipped, a wrong closed form.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import spinkick  # noqa: E402
import spinkick.cli  # noqa: E402
from checks import check_job, ghz_targets  # noqa: E402
from workloads import WORKLOADS, build_jobs  # noqa: E402
from worker import run_job  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())


def _run(tmp_path, job):
    job = {**job, "slot": "job00"}
    result = run_job(spinkick, job, tmp_path)
    return job, tmp_path / "job00", result


def _problems(job, prefix, result):
    return [p for o in check_job(job, prefix, result, REFERENCE) for p in o.problems]


def _rewrite_csv(path: Path, column: str, fn):
    lines = path.read_text().splitlines()
    start = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[start].split(",").index(column)
    for i in range(start + 1, len(lines)):
        if lines[i].startswith("#"):
            continue
        cells = lines[i].split(",")
        cells[col] = repr(fn(float(cells[col])))
        lines[i] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_simulate_norm_check_rejects_scaled_alpha_column(tmp_path):
    job = {"kind": "simulate", "schedule": {"family": "ideal_kicks", "n_sites": 5, "scheme": "JxJy"},
           "argv": ["simulate", "--n-sites", "5", "--scheme", "JxJy",
                    "--out", "{out}.csv", "--summary", "{out}.json"]}
    job, prefix, result = _run(tmp_path, job)
    assert _problems(job, prefix, result) == []
    _rewrite_csv(Path(f"{prefix}.csv"), "alpha_3", lambda v: v * (1 + 1e-6))
    assert any("norm drift" in p for p in _problems(job, prefix, result))


def test_sweep_checks_reject_shifted_t_star_and_scaled_alpha(tmp_path):
    spec = {"family": "square_delta", "sweep": "delta", "values": [5], "fixed": {"n_sites": 5}}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    job = {"kind": "sweep", "spec": spec, "argv": ["sweep", "{dir}/spec.json", "--out", "{out}.csv"]}
    job, prefix, result = _run(tmp_path, job)
    assert _problems(job, prefix, result) == []
    csv = Path(f"{prefix}.csv")
    original = csv.read_text()
    _rewrite_csv(csv, "t_star", lambda v: v + 0.01)
    assert any("t_star" in p for p in _problems(job, prefix, result))
    csv.write_text(original)
    _rewrite_csv(csv, "max_alpha", lambda v: v * 1.001)
    assert any("max_alpha" in p for p in _problems(job, prefix, result))


def test_read_time_check_rejects_moved_amplitude(tmp_path):
    job = {"kind": "read_time", "schedule": {"family": "sin_power", "n_sites": 9, "m": 6}}
    job, prefix, result = _run(tmp_path, job)
    assert _problems(job, prefix, result) == []
    t, a, b = result["read_time"]
    assert any("alpha_xx" in p for p in _problems(job, prefix, {"read_time": [t, a - 1e-3, b]}))
    assert _problems(job, prefix, {"read_time": [t + 1.0, a, b]})


def test_ghz_check_rejects_flipped_amplitude(tmp_path):
    sites = ["X+", "0", "1", "1", "0", "X+"]
    job = {"kind": "ghz", "sites": sites,
           "argv": ["oracle", "ghz", "--sites", *sites, "--dump-state", "{out}.state.json",
                    "--out", "{out}.json"]}
    job, prefix, result = _run(tmp_path, job)
    assert _problems(job, prefix, result) == []
    state = Path(f"{prefix}.state.json")
    entries = json.loads(state.read_text())
    entries[0][1], entries[0][2] = -entries[0][1], -entries[0][2]
    state.write_text(json.dumps(entries))
    assert any("overlaps" in p for p in _problems(job, prefix, result))


def test_ghz_targets_are_normalised_and_distinct():
    a, b = ghz_targets(["X-", "1", "X+", "X+", "1", "X-"])
    assert np.vdot(a, a).real == pytest.approx(1.0)
    assert abs(np.vdot(a, b)) < 1e-12


def test_fidelity_sign_fault_is_counted_not_hidden(tmp_path):
    job = {"kind": "fidelity", "schedule": {"family": "ideal_kicks", "n_sites": 3, "scheme": "JxJy"},
           "argv": ["oracle", "fidelity", "--n-sites", "3", "--scheme", "JxJy", "--samples", "200",
                    "--read-time", "end", "--out", "{out}.json"]}
    job, prefix, result = _run(tmp_path, job)
    (outcome,) = check_job(job, prefix, result, REFERENCE)
    assert outcome.problems == [] and outcome.sign_fault   # alpha_N(T) = -1 at N = 3
    path = Path(f"{prefix}.json")
    report = json.loads(path.read_text())
    report["closed_form"], report["difference"] = 0.9, report["monte_carlo_mean"] - 0.9
    path.write_text(json.dumps(report))
    assert any("closed_form" in p for p in _problems(job, prefix, result))


def test_compare_check_rejects_large_deviation(tmp_path):
    job = {"kind": "compare", "argv": ["oracle", "compare", "--n-sites", "4", "--sin-m", "6",
                                       "--steps", "400", "--out", "{out}.json"]}
    job, prefix, result = _run(tmp_path, job)
    assert _problems(job, prefix, result) == []
    path = Path(f"{prefix}.json")
    report = json.loads(path.read_text())
    report["max_deviation"] = 1e-5
    path.write_text(json.dumps(report))
    assert _problems(job, prefix, result)


def test_job_lists_depend_on_the_seed_only_through_order_and_inputs():
    for workload in WORKLOADS:
        a, b = build_jobs(workload, 1), build_jobs(workload, 2)
        assert build_jobs(workload, 1) == a
        assert sorted(j["kind"] for j in a) == sorted(j["kind"] for j in b)


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "spinbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "spinbench/run.py", "--workload", "simulate-n25",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout.strip() == ""
