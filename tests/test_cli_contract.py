"""Contract fuzzing of the command line.

Hypothesis builds argv lists for `simulate`, `oracle compare`, `oracle fidelity`,
`calibrate` and `graph` from their documented flags, with edge values: 0,
negatives, +-inf, nan, 1e308, whole-number floats, N = 2 and both parities of N.
Each case runs through cli.main in-process, and every case keeps the contract:

- the exit code is 0, 2, 3 or 4, and no warning is raised;
- a failure prints no traceback, and the last line of stderr is its one
  `error:` line (argparse's usage errors end in `spinkick ...: error: ...`);
- a success's output parses: CSV rows of floats, strict JSON or a DOT digraph;
- a case past a resource cap exits 4 within a second.

Cases stay small (N <= 8, at most 64 steps or 8 steps per pi), apart from the
cases just past each cap, which must be refused before any work.
"""
import contextlib
import functools
import io
import json
import re
import time
import warnings
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from spinkick import cli, flux
from spinkick.exceptions import ResourceCapError
from spinkick.oracle import RESOURCE_CAP_SITES
from spinkick.pulses import MAX_STEPS, ideal_schedule, sin_power_schedule, square_schedule

EDGE_FLOATS = ["0", "-1", "-0.5", "inf", "-inf", "nan", "1e308", "-1e308", "2.0"]
EDGE_INTS = ["0", "-1", "-2", "inf", "nan", "1e308", "4.0"]


def _mostly(common, rare):
    """Draws from common seven times in eight, else from rare."""
    return st.integers(0, 7).flatmap(lambda k: common if k else rare)


def _value(valid, edges):
    """A flag value: one of the valid ones seven times in eight, else an edge value."""
    return _mostly(st.sampled_from(valid), st.sampled_from(edges))


def _float_value(valid):
    """A float flag value: as _value with the float edges, or one time in eight any float."""
    return _mostly(_value(valid, EDGE_FLOATS), st.floats().map(repr))


_n_sites = _value(["2", "3", "4", "5", "7", "8"], ["1"] + EDGE_INTS)
_steps = st.one_of(
    st.tuples(st.just("--steps"), _mostly(st.integers(1, 64).map(str), st.sampled_from(EDGE_INTS))),
    st.tuples(st.just("--steps-per-pi"), _value(["1", "2", "8"], EDGE_INTS)))
_schedule_choice = st.one_of(
    st.tuples(st.just("--scheme"), _value(["JxJy", "JxB"], ["jxb", "Jy", ""])),
    st.tuples(st.just("--sin-m"), _value(["2", "4", "6", "8"], ["3", "1000"] + EDGE_INTS)),
    st.tuples(st.just("--square-delta"), _float_value(["5", "8", "16", "20", "7.3", "1.5", "1e6"])),
    st.tuples(st.just("--schedule"), _value(["square", "sin", "ideal"],
                                            ["mislabelled", "nan", "late", "garbled", "missing"])))

# schedule files, by name; each is written once into a temporary directory
SCHEDULE_FILES = {
    "square": {"variant": "square_delta", "n_sites": 3, "delta": 8, "j_const": 0.1333,
               "b_max": 2, "pulse_width": 0.3927},
    "sin": {"variant": "sin_power", "n_sites": 4, "m": 6, "j_max": 0.8, "b_max": 0.8},
    "ideal": {"variant": "ideal_kicks", "n_sites": 2,
              "slots": [{"channel": "Jx", "start": 0, "duration": 1, "amplitude": 0.785}]},
    "mislabelled": {"variant": "square_delta", "n_sites": 3, "delta": 8, "j_const": 0.1333,
                    "b_max": 2, "pulse_width": 0.1},
    "nan": {"variant": "sin_power", "n_sites": 3, "m": 6, "j_max": float("nan"), "b_max": 0.8},
    "late": {"variant": "ideal_kicks", "n_sites": 3,
             "slots": [{"channel": "Jx", "start": 1e306, "duration": 1, "amplitude": 1}]},
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("contract")
    for name, payload in SCHEDULE_FILES.items():
        (root / f"{name}.json").write_text(json.dumps(payload))
    (root / "garbled.json").write_text('{"variant": "sin_power", "n_sites": ')
    return root


def _schedule_flags(draw, root):
    argv = []
    if draw(st.integers(0, 9)):  # sometimes no --n-sites
        argv += ["--n-sites", draw(_n_sites)]
    one = st.lists(_schedule_choice, min_size=1, max_size=1)
    for flag, value in draw(_mostly(one, st.lists(_schedule_choice, max_size=2))):
        argv += [flag, str(root / f"{value}.json") if flag == "--schedule" else value]
    if draw(st.booleans()):
        # no arbitrary floats here: with --steps-per-pi a long kick would mean a long grid
        argv += ["--kick-duration", draw(_value(["1", "0.5", "3"], EDGE_FLOATS))]
    return argv + list(draw(_steps))


def _joined(argv):
    """argv with each value that starts with '-' given as --flag=value: argparse would take
    -inf or -1e308 for an option of its own."""
    out = []
    for token in argv:
        if token.startswith("-") and not token.startswith("--") and out and out[-1].startswith("--"):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


@st.composite
def _argvs(draw, root):
    command = draw(st.sampled_from(["simulate", "compare", "fidelity", "calibrate", "graph"]))
    if command == "graph":
        argv = ["graph", draw(_n_sites)]
        if draw(st.booleans()):
            argv += ["--channels", draw(_value(["Jx,Jy,B", "Jx,Jy", "Jx", "B", "Jy,B"],
                                               ["Jx,Jx", "Jx,Q", ""]))]
        return argv + ["--format", draw(_value(["dot", "json"], ["xml"]))]
    if command == "calibrate":
        argv = ["calibrate"]
        shape = draw(st.sampled_from([["--sin-m"], ["--boxcar-width"], [], ["--sin-m", "--boxcar-width"]]))
        if "--sin-m" in shape:
            argv += ["--sin-m", draw(_value(["2", "6", "1", "3", "1000"], EDGE_INTS))]
        if "--boxcar-width" in shape:
            argv += ["--boxcar-width", draw(_float_value(["0.5", "3"]))]
        if draw(st.booleans()):
            argv += ["--target-area", draw(_float_value(["0.785", "1"]))]
        return argv
    argv = ["simulate"] if command == "simulate" else ["oracle", command]
    argv += _schedule_flags(draw, root)
    if command == "simulate":
        argv += ["--seed-node", draw(_value(["X", "Y"], ["Z"]))]
        if draw(st.booleans()):
            argv += ["--summary", str(root / "summary.json")]
    if command == "fidelity":
        argv += ["--samples", draw(_value(["1", "2", "50"], ["0", "-1", "1e308", "50.0"])),
                 "--seed", draw(_value(["0", "7"], ["-1", str(2 ** 64)])),
                 "--read-time", draw(_float_value(["auto", "end", "1.5"]))]
    return argv


def _run(argv):
    """(exit code, stdout, stderr, warnings, seconds) of one in-process cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse's usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue(), caught, time.perf_counter() - start


def _strict_json(text):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


def _check_output(argv, out, summary):
    if argv[0] == "graph":
        if argv[-1] == "json":
            assert _strict_json(out)["nodes"]
        else:
            assert out.startswith("digraph") and out.rstrip().endswith("}")
    elif argv[0] == "simulate":
        header, *rows = [line for line in out.splitlines() if not line.startswith("#")]
        width = len(header.split(","))
        assert header.startswith("t,") and rows
        assert all(len([float(v) for v in row.split(",")]) == width for row in rows)
        if "--summary" in argv:
            assert set(_strict_json(summary.read_text())) >= {"meta", "max_alpha_N", "t_star"}
    elif argv[0] == "sweep":
        _check_sweep_csv(out)
    else:
        assert isinstance(_strict_json(out), dict)


def _check(argv, files):
    summary = files / "summary.json"
    summary.unlink(missing_ok=True)
    rc, out, err, caught, seconds = _run(argv)
    assert rc in (0, 2, 3, 4), (argv, rc, err)
    assert not caught, (argv, [str(w.message) for w in caught])  # no numpy warning either
    if rc == 0:
        _check_output(argv, out, summary)
        return rc, out
    assert "Traceback" not in err, (argv, err)
    lines = err.rstrip("\n").split("\n")
    assert re.fullmatch(r"(spinkick[\w ]*: )?error: .+", lines[-1]), (argv, err)
    assert sum("error:" in line for line in lines) == 1, (argv, err)
    if rc == 4:
        assert seconds < 1.0, (argv, seconds)
    return rc, out


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_every_small_case_keeps_the_contract(files, data):
    _check(_joined(data.draw(_argvs(files), label="argv")), files)


# each sweep family's parameters with their valid values; "scheme" and "kick_duration" are
# optional for ideal kicks, and any other family takes them as extra keys
_N_VALUES = ["2", "3", "4", "5", "7", "8"]
_SWEEP_PARAMS = {
    "sin_power": {"n_sites": _N_VALUES, "m": ["2", "4", "6", "8"]},
    "square_delta": {"n_sites": _N_VALUES, "delta": ["5", "8", "16", "7.3", "1.5"]},
    "ideal_kicks": {"n_sites": _N_VALUES, "scheme": ["JxJy", "JxB"], "kick_duration": ["1", "0.5"]},
}
_REQUIRED = {"sin_power": ("n_sites", "m"), "square_delta": ("n_sites", "delta"),
             "ideal_kicks": ("n_sites",)}


def _number(text):
    """A spec value as JSON writes it: an int or float where the text parses as one, else the text."""
    try:
        value = float(text)
    except ValueError:
        return text
    return int(value) if value.is_integer() else value


def _one_in(k):
    """True one time in k; hypothesis's favoured 0 draws False."""
    return st.integers(0, k - 1).map(lambda i: i == k - 1)


@st.composite
def _sweep_specs(draw):
    """A sweep spec as a dict of its keys' texts, None for a key left out, both aliases drawn."""
    family = draw(_value(list(_SWEEP_PARAMS), ["", "sin", "ideal"]))
    params = _SWEEP_PARAMS.get(family, _SWEEP_PARAMS["sin_power"])
    swept = draw(_value(list(_REQUIRED.get(family, ("n_sites",))), ["scheme", "kick_duration", "t"]))
    valid = params.get(swept, _N_VALUES)
    values = draw(st.lists(_value(valid, EDGE_FLOATS), min_size=int(not draw(_one_in(16))), max_size=3))
    if not draw(_one_in(4)):  # mostly increasing, as the spec asks
        values = sorted(set(values), key=lambda v: (isinstance(_number(v), str), _number(v)))
    fixed = {k: draw(_value(v, EDGE_FLOATS)) for k, v in params.items()
             if k != swept and (k in _REQUIRED.get(family, ()) or draw(st.booleans()))
             and not draw(_one_in(16))}  # a required key goes missing one time in 16
    if draw(_one_in(8)):
        fixed[draw(st.sampled_from(["scheme", "m", "bogus"]))] = draw(_value(["JxB", "4"], EDGE_FLOATS))
    steps = draw(st.one_of(st.none(), _value(["1", "2", "8"], EDGE_INTS)))
    keys = {draw(st.sampled_from(["family", "schedule_family"])): family,
            draw(st.sampled_from(["sweep", "swept_parameter"])): swept}
    spec = {k: v for k, v in keys.items() if not draw(_one_in(16))}
    if draw(_one_in(16)):
        spec[draw(st.sampled_from(["extra", "fixed.extra"]))] = "1"
    return {**spec, "values": values, "fixed": fixed, "steps_per_pi": steps}


def _spec_text(spec, as_json):
    """The spec file in the JSON grammar or the key=value one."""
    if as_json:
        data = {k: v for k, v in spec.items() if k not in ("values", "fixed", "steps_per_pi")}
        data["values"] = [_number(v) for v in spec["values"]]
        data["fixed"] = {k: _number(v) for k, v in spec["fixed"].items()}
        if spec["steps_per_pi"] is not None:
            data["steps_per_pi"] = _number(spec["steps_per_pi"])
        return json.dumps(data)
    lines = [f"{k} = {v}" for k, v in spec.items() if k not in ("values", "fixed", "steps_per_pi")]
    lines.append("values = " + ",".join(spec["values"]))
    lines += [f"fixed.{k} = {v}" for k, v in spec["fixed"].items()]
    if spec["steps_per_pi"] is not None:
        lines.append(f"steps_per_pi = {spec['steps_per_pi']}")
    return "\n".join(lines) + "\n"


def _check_sweep_csv(out):
    lines = out.splitlines()
    body = [line for line in lines if not line.startswith("#")]
    assert body[0] == "param,max_alpha,t_star,fidelity_max,fidelity_at_tau", out
    for row in body[1:]:
        assert len([float(v) for v in row.split(",")]) == 5, out  # floats or nan
    notes = [line for line in lines[2:] if line.startswith("#")]  # after the two meta lines
    assert all(line.startswith("# row ") for line in notes), out


@settings(max_examples=100, deadline=None)
@given(spec=_sweep_specs(), as_json=st.booleans())
def test_every_small_sweep_keeps_the_contract_and_repeats_its_bytes(files, spec, as_json):
    path = files / "sweep-spec.txt"
    path.write_text(_spec_text(spec, as_json))
    argv = ["sweep", str(path), "--out", "-"]
    rc, out = _check(argv, files)
    if out:  # a failed row's sweep writes every row before it exits
        _check_sweep_csv(out)
    if rc == 0:
        assert "# row" not in out
        assert _run(argv)[1] == out


@pytest.mark.parametrize("argv", [["calibrate", "--boxcar-width", "0.5", "--target-area", "1e308"],
                                  ["calibrate", "--sin-m", "1000", "--target-area", "1e308"]])
def test_an_amplitude_past_the_float_range_exits_2(argv, files):
    # the quotient overflows: printed, it would be "amplitude": Infinity, which is not JSON
    assert _check(argv, files)[0] == 2


class _Admitted(Exception):
    """Raised in place of building the generator, once the caps have let a run through."""


@functools.cache
def _first_refused_n(flag, value):
    """The smallest N whose default-grid run the table or step cap refuses, found without
    propagating: the generator is never built, so an admitted run stops at once."""
    make = {"--sin-m": lambda n: sin_power_schedule(n, int(value)),
            "--square-delta": lambda n: square_schedule(n, float(value)),
            "--scheme": lambda n: ideal_schedule(n, value)}[flag]

    def refused(n):
        with mock.patch.object(flux, "chain", side_effect=_Admitted):
            try:
                flux.propagate(make(n))
            except ResourceCapError:
                return True
            except _Admitted:
                return False

    lo, hi = 2, 8192  # refused(hi), not refused(lo)
    assert refused(hi) and not refused(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if refused(mid) else (mid, hi)
    return hi


_FAMILIES = [("--sin-m", "6"), ("--square-delta", "16"), ("--scheme", "JxJy"), ("--scheme", "JxB")]


@pytest.mark.parametrize("argv", [
    *(["oracle", command, "--n-sites", str(n), flag, value]
      for command in ("compare", "fidelity") for n in (RESOURCE_CAP_SITES + 1, RESOURCE_CAP_SITES + 2)
      for flag, value in _FAMILIES),
    # refused before the coefficient run, which takes minutes at N = 1000
    *(["oracle", command, "--n-sites", "1000", "--sin-m", "6"] for command in ("compare", "fidelity")),
    *([*command, "--n-sites", "5", "--sin-m", "6", "--steps", str(MAX_STEPS + 1)]
      for command in (["simulate"], ["oracle", "compare"], ["oracle", "fidelity"])),
    ["simulate", "--n-sites", "4", "--scheme", "JxB", "--steps-per-pi", "1000000000"],
    ["simulate", "--n-sites", "4", "--square-delta", "8", "--steps-per-pi", str(10 ** 400)],
    # just past the label cap: its 2N labels would take 2N^2 bytes before any output
    *(["graph", "5793", "--format", form] for form in ("dot", "json")),
    ["graph", "40000", "--format", "json"],
])
def test_past_a_cap_exits_4_within_a_second(argv, files):
    assert _check(argv, files)[0] == 4


def test_a_transfer_only_run_past_the_label_cap_exits_4_within_a_second(files):
    # one kick grid step per pi: the table cap admits it, and chain(8000) is refused
    spec = files / "jxjy-8000.txt"
    spec.write_text("family = ideal_kicks\nsweep = n_sites\nvalues = 8000\nfixed.scheme = JxJy\n"
                    "steps_per_pi = 1\n")
    assert _check(["sweep", str(spec)], files)[0] == 4


@pytest.mark.parametrize("flag,value", _FAMILIES)
@pytest.mark.parametrize("past", [0, 1], ids=["first", "next"])  # both parities of N
def test_simulate_just_past_the_table_cap_exits_4_within_a_second(flag, value, past, files):
    n = _first_refused_n(flag, value) + past
    assert _check(["simulate", "--n-sites", str(n), flag, value], files)[0] == 4
