"""Command-line front end: graph export, simulation runs, sweeps, oracle
cross-checks, and amplitude calibration.

Batch tool: plain CSV/JSON outputs with embedded parameter metadata, no
interactive mode.  Exit codes: 0 success, 2 usage, 3 numerical contract
violation, 4 resource cap.  `sweep` writes every row, failed ones as NaN
rows with a comment line, and then exits with the code of the first failed
row's error (2, 3 or 4), or 0 when every row succeeded.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import Iterable, Union

import numpy as np

from . import __version__
from .exceptions import NumericalContractError, ResourceCapError
from .fidelity import SweepSpec, _sweep_table, average_fidelity, joint_read_time, run_sweep, summary
# series_csv stays importable here: spinbench's traced run wraps spinkick.cli.series_csv
from .flux import _series_table, information_flux, propagate, series_csv  # noqa: F401
from .graph import build_graph, export_dot, graph_json
from .oracle import (SiteAssignment, _check_cap, dump_state_json, ghz_compare,
                     heisenberg_expectation, monte_carlo_average_fidelity, product_state)
from .pulses import (QUARTER_TURN, boxcar_shape, calibrate_amplitude,
                     default_steps, ideal_schedule, schedule_from_json, sin_power_hump,
                     sin_power_schedule, square_schedule)


def _write(path: str, *texts: Union[str, Iterable[str]]):
    """Write the texts in turn to path, or to stdout for '-', without joining them first.

    A text is a str or an iterable of str pieces, such as the pass-by-pass
    CSV of _series_table; each piece is written as it arrives, so only the
    piece at hand is held.  Each piece goes out in slices of 2^20
    characters, so no encoded copy of a whole piece is made: a large one
    would grow the heap by its size.
    """
    pieces = (piece for text in texts for piece in ((text,) if isinstance(text, str) else text))
    slices = (piece[at:at + 2 ** 20] for piece in pieces for at in range(0, len(piece), 2 ** 20))
    if path == "-":
        sys.stdout.writelines(slices)
        return
    with open(path, "w") as f:
        f.writelines(slices)


def _meta_lines(command: str, params: dict) -> str:
    pairs = " ".join(f"{k}={v}" for k, v in params.items())
    return f"# spinkick {command} version={__version__}\n# {pairs}\n"


def _schedule_params(schedule) -> dict:
    d = schedule.to_json()
    d.pop("slots", None)
    return d


def _make_schedule(args) -> object:
    chosen = [x for x in ("scheme", "sin_m", "square_delta", "schedule")
              if getattr(args, x) is not None]
    if len(chosen) != 1:
        raise ValueError("choose exactly one of --scheme, --sin-m, --square-delta, --schedule")
    if args.schedule is not None:
        schedule = schedule_from_json(json.loads(Path(args.schedule).read_text()))
        if args.n_sites is not None and args.n_sites != schedule.n_sites:
            raise ValueError(f"--n-sites {args.n_sites} conflicts with schedule file "
                             f"(N={schedule.n_sites})")
        return schedule
    if args.n_sites is None:
        raise ValueError("--n-sites is required")
    if args.scheme is not None:
        return ideal_schedule(args.n_sites, args.scheme, args.kick_duration)
    if args.sin_m is not None:
        return sin_power_schedule(args.n_sites, args.sin_m)
    return square_schedule(args.n_sites, args.square_delta)


def _steps_for(args, schedule) -> int:
    if args.steps is not None:
        return args.steps
    return default_steps(schedule, args.steps_per_pi)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _add_schedule_flags(p: argparse.ArgumentParser):
    p.add_argument("--n-sites", type=int, help="chain length N")
    p.add_argument("--scheme", choices=["JxJy", "JxB"], help="ideal kick scheme")
    p.add_argument("--kick-duration", type=float, default=1.0)
    p.add_argument("--sin-m", type=int, help="sin^m/cos^m schedule with this even m")
    p.add_argument("--square-delta", type=float, help="square-pulse schedule sharpness")
    p.add_argument("--schedule", help="JSON schedule file")
    p.add_argument("--steps", type=_positive_int, help="explicit step count")
    p.add_argument("--steps-per-pi", type=_positive_int,
                   help="steps per pi of total time (default: 200 for --sin-m, else 400)")


def cmd_graph(args) -> int:
    channels = tuple(args.channels.split(","))
    g = build_graph(args.n_sites, channels)
    if args.format == "dot":
        _write(args.out, export_dot(g))
    else:
        _write(args.out, json.dumps(graph_json(g), indent=2) + "\n")
    return 0


def cmd_simulate(args) -> int:
    schedule = _make_schedule(args)
    n = schedule.n_sites
    n_steps = _steps_for(args, schedule)
    seed = 1 if args.seed_node == "X" else n + 1
    result = propagate(schedule, n_steps, seed=seed)
    meta = {"n_steps": n_steps, "seed_node": args.seed_node, **_schedule_params(schedule)}
    _write(args.out, _meta_lines("simulate", meta), _series_table(result))
    report = {"meta": meta, **summary(result)}
    text = json.dumps(report, indent=2) + "\n"
    if args.summary:
        _write(args.summary, text)
    elif args.out != "-":
        sys.stdout.write(text)
    return 0


def _number_or_text(val: str):
    """A key=value spec value: an int or float where it parses as one, else the text (e.g. a scheme)."""
    try:
        num = float(val)
    except ValueError:
        return val
    return int(num) if num.is_integer() else num


def _parse_sweep_file(path: str) -> SweepSpec:
    """The spec of a JSON or key=value sweep file; a whole-number float steps_per_pi is an int."""
    raw = Path(path).read_text()
    if raw.lstrip().startswith("{"):
        data = json.loads(raw)
    else:
        data = {"fixed": {}}
        for line in raw.splitlines():
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            key, _, val = line.partition("=")
            key, val = key.strip(), val.strip()
            if key == "values":
                data["values"] = [float(v) for v in val.split(",") if v.strip()]
            elif key.startswith("fixed."):
                data["fixed"][key[6:]] = _number_or_text(val)
            elif key == "steps_per_pi":
                data["steps_per_pi"] = _number_or_text(val)
            else:
                data[key] = val
    steps = data.get("steps_per_pi")
    return SweepSpec(
        schedule_family=data.get("schedule_family", data.get("family", "")),
        swept_parameter=data.get("swept_parameter", data.get("sweep", "")),
        values=tuple(data.get("values", ())),
        fixed=dict(data.get("fixed", {})),
        steps_per_pi=int(steps) if isinstance(steps, float) and steps.is_integer() else steps,
    )


def cmd_sweep(args) -> int:
    spec = _parse_sweep_file(args.spec_file)
    rows = run_sweep(spec)
    meta = {"family": spec.schedule_family, "sweep": spec.swept_parameter,
            "fixed": json.dumps(spec.fixed, sort_keys=True),
            "steps_per_pi": spec.steps_per_pi}
    failures = [r for r in rows if r.error is not None]
    notes = "".join(f"# row {r.param_value:g} failed: {type(r.error).__name__}: {r.error}\n"
                    for r in failures)
    _write(args.out, _meta_lines("sweep", meta), _sweep_table(rows), notes)
    if failures:
        raise failures[0].error
    return 0


def cmd_oracle_compare(args) -> int:
    schedule = _make_schedule(args)
    n = schedule.n_sites
    _check_cap(n)  # before the coefficient run, which ran over 5 minutes at N = 1000
    n_steps = _steps_for(args, schedule)
    result = propagate(schedule, n_steps, series=False)
    rest = SiteAssignment.uniform(n - 1, "Z", 1)
    predicted = information_flux(result, rest)[("X", "X")]
    psi0 = product_state(SiteAssignment([("X", 1)] + [("Z", 1)] * (n - 1)))
    times, measured = heisenberg_expectation("X", psi0, schedule, n_steps)
    if len(times) != len(result.times) or np.max(np.abs(times - result.times)) > 1e-12:
        raise NumericalContractError("flux and oracle grids do not match")
    deviation = float(np.max(np.abs(predicted - measured)))
    report = {
        "meta": {"n_steps": n_steps, **_schedule_params(schedule)},
        "max_deviation": deviation,
        "grid_points": len(times),
    }
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_oracle_fidelity(args) -> int:
    schedule = _make_schedule(args)
    n = schedule.n_sites
    _check_cap(n)  # before the coefficient run, which ran over 5 minutes at N = 1000
    n_steps = _steps_for(args, schedule)
    result = propagate(schedule, n_steps, series=False)
    if args.read_time == "end":
        read_time = schedule.total_time
    elif args.read_time == "auto":
        read_time, _, _ = joint_read_time(result)
    else:
        read_time = float(args.read_time)
    alpha_at_read = float(np.interp(read_time, result.times, result.alpha_series(n)))
    closed_form = average_fidelity(alpha_at_read)
    mean, stderr = monte_carlo_average_fidelity(
        schedule, args.samples, args.seed, read_time=read_time, n_steps=n_steps)
    report = {
        "meta": {"n_steps": n_steps, "samples": args.samples, "seed": args.seed,
                 **_schedule_params(schedule)},
        "read_time": read_time,
        "monte_carlo_mean": mean,
        "monte_carlo_stderr": stderr,
        "closed_form": closed_form,
        "difference": mean - closed_form,
    }
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_oracle_ghz(args) -> int:
    assignment = SiteAssignment.parse(" ".join(args.sites))
    schedule = ideal_schedule(assignment.n_sites, args.scheme, args.kick_duration)
    report = ghz_compare(assignment, schedule)
    out = {
        "meta": {"sites": str(assignment), "scheme": args.scheme},
        "n_sites": assignment.n_sites,
        "phase_index": report.phase_index,
        "fidelity": report.fidelity,
    }
    if args.dump_state:
        _write(args.dump_state, dump_state_json(report.evolved) + "\n")
    _write(args.out, json.dumps(out, indent=2) + "\n")
    return 0


def cmd_calibrate(args) -> int:
    if (args.sin_m is None) == (args.boxcar_width is None):
        raise ValueError("choose exactly one of --sin-m, --boxcar-width")
    if args.sin_m is not None:
        area, window = sin_power_hump(args.sin_m)
        name = f"sin^{args.sin_m}"
    else:
        area, window = boxcar_shape(args.boxcar_width)
        name = f"boxcar({args.boxcar_width:g})"
    amplitude = calibrate_amplitude(area, args.target_area)
    report = {
        "meta": {"shape": name, "target_area": args.target_area},
        "amplitude": amplitude,
        "window": list(window),
    }
    _write(args.out, json.dumps(report, indent=2) + "\n")
    return 0


@functools.cache  # built on the first call, not at import; one tree serves every main() call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinkick",
        description="Kicked-coupling spin chain transfer toolkit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="export the operator graph")
    p.add_argument("n_sites", type=int)
    p.add_argument("--channels", default="Jx,Jy,B")
    p.add_argument("--format", choices=["dot", "json"], default="dot")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_graph)

    p = sub.add_parser("simulate", help="propagate the coefficient vector")
    _add_schedule_flags(p)
    p.add_argument("--seed-node", choices=["X", "Y"], default="X")
    p.add_argument("--out", default="-", help="CSV destination ('-' for stdout)")
    p.add_argument("--summary", help="JSON summary destination")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep", help="run a parameter sweep from a spec file")
    p.add_argument("spec_file")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_sweep)

    po = sub.add_parser("oracle", help="exact state-vector cross-checks")
    osub = po.add_subparsers(dest="oracle_command", required=True)

    p = osub.add_parser("compare", help="flux prediction vs exact <X_N(t)>")
    _add_schedule_flags(p)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle_compare)

    p = osub.add_parser("fidelity", help="Monte-Carlo average fidelity vs closed form")
    _add_schedule_flags(p)
    p.add_argument("--samples", type=int, default=2000)
    p.add_argument("--seed", type=int, default=20260825)
    p.add_argument("--read-time", default="auto",
                   help="'auto' (best joint transfer), 'end', or a time")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle_fidelity)

    p = osub.add_parser("ghz", help="verify entangled-state generation under ideal kicks")
    p.add_argument("--sites", required=True, nargs="+",
                   help="per-site tokens, e.g. X+ Z+ Z+ X+ (aliases 0,1,+,-)")
    p.add_argument("--scheme", choices=["JxJy", "JxB"], default="JxJy")
    p.add_argument("--kick-duration", type=float, default=1.0)
    p.add_argument("--dump-state", help="write the evolved state as JSON")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_oracle_ghz)

    p = sub.add_parser("calibrate", help="pulse amplitude for a target area")
    p.add_argument("--sin-m", type=int)
    p.add_argument("--boxcar-width", type=float)
    p.add_argument("--target-area", type=float, default=QUARTER_TURN)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_calibrate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ResourceCapError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except NumericalContractError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
