import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import spinkick
from spinkick import cli
from spinkick.cli import main
from spinkick.flux import propagate, series_csv
from spinkick.pulses import ideal_schedule, sin_power_schedule


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestExitCodes:
    def test_usage_error_from_bad_chain_length(self, capsys):
        rc, _, err = run(capsys, "graph", "1")
        assert rc == 2
        assert "error:" in err

    def test_usage_error_from_conflicting_schedule_flags(self, capsys):
        rc, _, err = run(capsys, "simulate", "--n-sites", "3",
                         "--scheme", "JxJy", "--sin-m", "4")
        assert rc == 2
        assert "exactly one" in err

    def test_usage_error_from_missing_n_sites(self, capsys):
        rc, _, err = run(capsys, "simulate", "--sin-m", "4")
        assert rc == 2
        assert "--n-sites" in err

    def test_usage_error_from_missing_schedule_file(self, capsys):
        rc, _, _ = run(capsys, "simulate", "--schedule", "/no/such/file.json")
        assert rc == 2

    def test_resource_cap_exit(self, capsys):
        rc, _, err = run(capsys, "oracle", "ghz", "--sites", *(["0"] * 16))
        assert rc == 4
        assert "error:" in err

    # 10^12 steps would need 8 TB for the grid alone: refused before any array exists
    @pytest.mark.parametrize("command", [["simulate"], ["oracle", "compare"]])
    def test_step_count_past_the_cap_exits_4(self, capsys, command):
        rc, out, err = run(capsys, *command, "--n-sites", "5", "--sin-m", "6",
                           "--steps", "1000000000000")
        assert rc == 4
        assert out == ""
        assert err == "error: 1000000000000 steps exceed the cap of 4194304\n"

    def test_step_count_of_a_late_slot_is_short(self, capsys, tmp_path):
        # a slot at t = 1e300 asks for a 303-digit step count: printed in %.3g form
        path = tmp_path / "late.json"
        path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": [
            {"channel": "Jx", "start": 1e300, "duration": 1, "amplitude": 1}]}))
        rc, out, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 4
        assert out == ""
        assert err == "error: 1.27e+302 steps exceed the cap of 4194304\n"

    # 400 * total_time / pi, or a 400-digit --steps-per-pi, is past the float range:
    # a step-cap error before any grid exists, not an OverflowError
    @pytest.mark.parametrize("command", [["simulate"], ["oracle", "compare"],
                                         ["oracle", "fidelity"]])
    @pytest.mark.parametrize("late_slot", [True, False])
    def test_step_count_past_the_float_range_exits_4(self, capsys, tmp_path, monkeypatch,
                                                     command, late_slot):
        for module in (spinkick.flux, spinkick.oracle):
            monkeypatch.setattr(module, "step_grid", lambda *a: pytest.fail("built a grid"))
        if late_slot:
            path = tmp_path / "late.json"
            path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": [
                {"channel": "Jx", "start": 1e306, "duration": 1, "amplitude": 1}]}))
            argv = ["--schedule", str(path)]
        else:
            argv = ["--n-sites", "3", "--sin-m", "6", "--steps-per-pi", "9" * 400]
        rc, out, err = run(capsys, *command, *argv)
        assert rc == 4
        assert out == ""
        assert err == "error: a step count past the float range exceeds the cap of 4194304\n"

    @pytest.mark.parametrize("amplitude,norm", [(1e30, "1.5625e+28"), (1e308, "1.5625e+306")])
    def test_huge_kick_exits_3_with_its_window_norm(self, capsys, tmp_path, amplitude, norm):
        path = tmp_path / "kick.json"
        path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": [
            {"channel": "Jx", "start": 0, "duration": 1, "amplitude": amplitude}]}))
        rc, out, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 3
        assert out == ""
        assert err == f"error: step generator norm {norm} too large\n"

    def test_coefficient_table_past_the_cap_exits_4(self, capsys, monkeypatch):
        # 600,001 times x 3000 coefficients: refused before the operator graph is built
        monkeypatch.setattr(spinkick.flux, "chain", lambda n: pytest.fail("built the generator"))
        rc, out, err = run(capsys, "simulate", "--n-sites", "1500", "--sin-m", "6")
        assert rc == 4
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 600001 times x 3000")
        assert "Traceback" not in err

    def test_running_product_counts_against_the_cap(self, capsys, monkeypatch):
        # 5001 times x 10000 coefficients fit the table alone, not with the 10000 x 10000
        # product: refused before the operator graph is built
        monkeypatch.setattr(spinkick.flux, "chain", lambda n: pytest.fail("built the generator"))
        rc, out, err = run(capsys, "simulate", "--n-sites", "5000", "--scheme", "JxJy",
                           "--steps", "1")
        assert rc == 4
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: 5001 times x 10000")
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["fidelity", "ghz"])
    def test_huge_oracle_kick_exits_3(self, capsys, tmp_path, monkeypatch, command):
        # each window's bound passes the 2^20-substep cap: refused before the run is merged
        import spinkick.cli
        from spinkick.pulses import IdealKickSchedule, KickSlot

        slots = [KickSlot("Jx", 0.0, 1.0, 0.5), KickSlot("Jy", 1.0, 1.0, 1e9)]
        if command == "fidelity":
            path = tmp_path / "huge.json"
            path.write_text(json.dumps(IdealKickSchedule(3, slots).to_json()))
            argv = ["--schedule", str(path), "--samples", "10", "--read-time", "end"]
        else:
            monkeypatch.setattr(spinkick.cli, "ideal_schedule",
                                lambda n, *args: IdealKickSchedule(n, slots))
            argv = ["--sites", "X+", "0", "X+"]
        rc, out, err = run(capsys, "oracle", command, *argv)
        assert rc == 3
        assert out == ""
        assert err.startswith("error: state-vector step bound") and "substeps" in err

    def test_usage_errors_exit_2_on_every_call(self, capsys):
        for _ in range(2):  # the second call reuses the parser the first one built
            with pytest.raises(SystemExit) as exc:
                main(["simulate", "--n-sites", "3", "--no-such-flag"])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "usage:" in err and "Traceback" not in err

    def test_parser_is_built_once(self, capsys):
        import spinkick.cli

        run(capsys, "calibrate", "--sin-m", "6")
        parser = spinkick.cli.build_parser()
        run(capsys, "graph", "3")
        assert spinkick.cli.build_parser() is parser

    def test_schedule_file_missing_key_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "sin_power", "n_sites": 5}))
        rc, _, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 2
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("argv,message", [
        (["--n-sites", "3", "--sin-m", "0"], "m must be a positive even integer, got 0"),
        (["--n-sites", "3", "--square-delta", "0"], "delta must exceed 1"),
        (["--n-sites", "0", "--sin-m", "4"], "need at least 2 sites"),
        (["--n-sites", "3", "--scheme", "JxJy", "--sin-m", "0"], "choose exactly one"),
        (["--n-sites", "3", "--square-delta", "inf"], "delta must exceed 1"),
        (["--n-sites", "3", "--square-delta", "nan"], "delta must exceed 1"),
    ])
    def test_zero_valued_flags_reach_their_own_check(self, capsys, argv, message):
        rc, out, err = run(capsys, "simulate", *argv)
        assert rc == 2
        assert out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize("spec,message", [
        ("family = ideal_kicks\nsweep = n_sites\nvalues = 3\nfixed.scheme = 1\n",
         "unknown scheme 1"),
        ("family = sin_power\nsweep = m\nvalues = 2.5,4\nfixed.n_sites = 3\n",
         "m must be a positive even integer, got 2.5"),
        ("family = sin_power\nsweep = n_sites\nvalues = 3.7\nfixed.m = 6\n",
         "need at least 2 sites, got n_sites=3.7"),
        (["calibrate", "--sin-m", "6", "--target-area", "nan"],
         "target_area must be positive and finite"),
        (["calibrate", "--boxcar-width", "inf"], "boxcar width must be positive and finite"),
        # each of these printed a traceback (OverflowError)
        ('{"family": "sin_power", "sweep": "m", "values": [2], "fixed": {"n_sites": 3}, '
         '"steps_per_pi": Infinity}', "steps_per_pi must be a positive integer, got inf"),
        (["simulate", "--n-sites", "3", "--sin-m", "1024"], "m = 1024 exceeds 1022"),
        (["calibrate", "--sin-m", "1" + "0" * 400], "passes the float range"),
    ], ids=["scheme-1", "m-2.5", "n_sites-3.7", "target-nan", "boxcar-inf", "steps-inf", "m-1024",
            "m-1e400"])
    def test_malformed_values_are_usage_errors(self, capsys, tmp_path, spec, message):
        # spec: the text of a sweep spec file, or a whole command line
        argv = spec
        if isinstance(spec, str):
            text = spec if spec[0] == "{" else spec + "steps_per_pi = 20\n"  # JSON sets its own
            (tmp_path / "spec.txt").write_text(text)
            argv = ["sweep", str(tmp_path / "spec.txt")]
        rc, _, err = run(capsys, *argv)
        assert rc == 2
        assert len(err.splitlines()) == 1 and err.startswith("error:")
        assert message in err

    @pytest.mark.parametrize("delta", [1e15, 1e17])
    def test_square_pulses_lost_to_rounding_are_usage_errors(self, capsys, tmp_path, delta):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "square_delta", "n_sites": 3, "delta": delta,
                                    "j_const": 0.125, "b_max": 0.25 * delta,
                                    "pulse_width": 3.141592653589793 / delta}))
        for argv in (["--schedule", str(path)], ["--n-sites", "3", "--square-delta", str(delta)]):
            rc, out, err = run(capsys, "simulate", *argv)
            assert rc == 2
            assert out == ""
            assert len(err.splitlines()) == 1 and "too narrow for pulse centres" in err

    def test_square_file_with_another_delta_is_a_usage_error(self, capsys, tmp_path):
        # pulses of width 0.1 are delta = 31.4, not the file's delta 8
        path = tmp_path / "s.json"
        path.write_text('{"variant": "square_delta", "n_sites": 3, "delta": 8, "j_const": 0.1333, '
                        '"b_max": 2, "pulse_width": 0.1}')
        rc, out, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and "pulse_width 0.1 is not pi/delta for delta 8: delta * pulse_width / pi = 0.254648" in err

    def test_schedule_file_slot_missing_key_is_named(self, capsys, tmp_path):
        slots = [{"channel": "Jx", "start": 0.0, "duration": 1.0, "amplitude": 0.7},
                 {"channel": "Jy", "start": 1.0, "duration": 1.0}]
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": slots}))
        rc, out, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 2
        assert out == ""
        assert err == "error: slot 1 is missing amplitude\n"

    # 1e308 over one window overflows the generator to inf: the error line must come alone,
    # with no numpy warning ahead of it
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("amplitude,steps", [(1e30, []), (1e308, ["--steps", "1"])])
    @pytest.mark.parametrize("command", [["simulate"], ["oracle", "compare"]])
    def test_huge_kick_is_numerical_error(self, capsys, tmp_path, command, amplitude, steps):
        slot = {"channel": "Jx", "start": 0.0, "duration": 1.0, "amplitude": amplitude}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": [slot]}))
        rc, out, err = run(capsys, *command, "--schedule", str(path), *steps)
        assert rc == 3
        assert out == ""
        assert "Traceback" not in err
        assert sum(line.startswith("error:") for line in err.splitlines()) == 1

    # a window average past the float range must also end in one error line
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("command", [["simulate"], ["oracle", "compare"]])
    def test_overflowing_window_average_is_numerical_error(self, capsys, tmp_path, command):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "sin_power", "n_sites": 3, "m": 2,
                                    "j_max": 1.7e308, "b_max": 1.0}))
        rc, out, err = run(capsys, *command, "--schedule", str(path), "--steps", "1")
        assert rc == 3
        assert out == ""
        assert err == "error: non-finite amplitudes from t = 0.0\n"

    def test_schedule_file_bad_slot_is_usage_error(self, capsys, tmp_path):
        slot = {"channel": "Q", "start": 0.0, "duration": -1, "amplitude": 1.0}
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"variant": "ideal_kicks", "n_sites": 3, "slots": [slot]}))
        rc, out, err = run(capsys, "simulate", "--schedule", str(path))
        assert rc == 2
        assert out == ""

    @pytest.mark.parametrize("flag", ["--steps", "--steps-per-pi"])
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_non_positive_step_counts_rejected(self, capsys, flag, value):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--n-sites", "3", "--scheme", "JxJy", flag, value])
        assert exc.value.code == 2
        assert "positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("shape,default", [(["--sin-m", "6"], 1200), (["--square-delta", "8"], 2400)])
    def test_steps_per_pi_defaults_to_the_family(self, capsys, tmp_path, shape, default):
        # N = 3 runs over 6 pi: 200 steps per pi for sin^m, 400 for boxcar families; an
        # explicit density wins over either
        for flags, want in (([], default), (["--steps-per-pi", "400"], 2400)):
            summary = tmp_path / "s.json"
            rc, _, _ = run(capsys, "simulate", "--n-sites", "3", *shape, *flags,
                           "--out", str(tmp_path / "s.csv"), "--summary", str(summary))
            assert rc == 0 and json.loads(summary.read_text())["meta"]["n_steps"] == want
        sweep = "sin_power\nsweep = m\nvalues = 2" if shape[0] == "--sin-m" else \
            "square_delta\nsweep = delta\nvalues = 8"
        (tmp_path / "spec.txt").write_text(f"family = {sweep}\nfixed.n_sites = 3\n")
        rc, out, _ = run(capsys, "sweep", str(tmp_path / "spec.txt"))
        assert rc == 0 and f" steps_per_pi={default // 6}\n" in out

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0

    def test_missing_subcommand(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2


class TestGraphCommand:
    def test_dot_output(self, capsys):
        rc, out, _ = run(capsys, "graph", "3")
        assert rc == 0
        assert out.startswith("digraph operator_graph")
        assert out.count("->") == 3 * 3 - 2

    def test_json_output(self, capsys):
        rc, out, _ = run(capsys, "graph", "4", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 8
        channels = {e["channel"] for node in data["nodes"] for e in node["edges"]}
        assert channels == {"B", "Jx", "Jy"}

    def test_channel_restriction(self, capsys):
        rc, out, _ = run(capsys, "graph", "5", "--channels", "B", "--format", "json")
        assert rc == 0
        data = json.loads(out)
        assert len(data["nodes"]) == 2

    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "graph.dot"
        rc, out, _ = run(capsys, "graph", "3", "--out", str(target))
        assert rc == 0
        assert out == ""
        assert target.read_text().startswith("digraph operator_graph")


class TestSimulateCommand:
    def test_csv_to_stdout(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--n-sites", "3",
                         "--scheme", "JxJy", "--steps", "6")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0].startswith("# spinkick simulate version=")
        assert "scheme=JxJy" in lines[1]
        assert lines[2] == "t," + ",".join(f"alpha_{i}" for i in range(1, 7)) + ",norm"
        assert len(lines) == 3 + 7

    def test_summary_file_and_csv_file(self, capsys, tmp_path):
        csv_path = tmp_path / "run.csv"
        summary_path = tmp_path / "run.json"
        rc, out, _ = run(capsys, "simulate", "--n-sites", "3", "--scheme", "JxJy",
                         "--steps", "6", "--out", str(csv_path),
                         "--summary", str(summary_path))
        assert rc == 0
        report = json.loads(summary_path.read_text())
        assert abs(report["max_alpha_N"]) == pytest.approx(1.0, abs=1e-9)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["meta"]["n_steps"] == 6
        assert csv_path.read_text().count("\n") == 3 + 7

    def test_y_seed(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--n-sites", "3", "--scheme", "JxJy",
                         "--steps", "6", "--seed-node", "Y")
        assert rc == 0
        assert "seed_node=Y" in out


class TestSweepCommand:
    JSON_SPEC = {
        "schedule_family": "sin_power",
        "swept_parameter": "m",
        "values": [2, 4],
        "fixed": {"n_sites": 3},
        "steps_per_pi": 60,
    }
    KEYVALUE_SPEC = """\
# sin-power sweep over the pulse exponent
family = sin_power
sweep = m
values = 2,4
fixed.n_sites = 3
steps_per_pi = 60
"""

    def test_json_and_keyvalue_specs_agree(self, capsys, tmp_path):
        json_file = tmp_path / "spec.json"
        json_file.write_text(json.dumps(self.JSON_SPEC))
        kv_file = tmp_path / "spec.txt"
        kv_file.write_text(self.KEYVALUE_SPEC)
        rc1, out1, _ = run(capsys, "sweep", str(json_file))
        rc2, out2, _ = run(capsys, "sweep", str(kv_file))
        assert rc1 == rc2 == 0
        assert out1 == out2
        lines = out1.splitlines()
        assert lines[2] == "param,max_alpha,t_star,fidelity_max,fidelity_at_tau"
        assert len(lines) == 3 + 2

    def test_keyvalue_text_value_is_kept(self, capsys, tmp_path):
        kv_file = tmp_path / "spec.txt"
        kv_file.write_text("family = ideal_kicks\nsweep = n_sites\nvalues = 3,4\n"
                           "fixed.scheme = JxB\n")
        json_file = tmp_path / "spec.json"
        json_file.write_text(json.dumps({"family": "ideal_kicks", "sweep": "n_sites",
                                         "values": [3, 4], "fixed": {"scheme": "JxB"}}))
        rc1, out1, err = run(capsys, "sweep", str(kv_file))
        rc2, out2, _ = run(capsys, "sweep", str(json_file))
        assert rc1 == rc2 == 0 and err == ""
        assert out1 == out2
        assert '"scheme": "JxB"' in out1

    def test_unknown_family_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**self.JSON_SPEC, "schedule_family": "nope"}))
        rc, _, err = run(capsys, "sweep", str(bad))
        assert rc == 2
        assert "family" in err

    def test_failed_row_sets_exit_code_after_full_csv(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("family = sin_power\nsweep = m\nvalues = 3,4\n"
                        "fixed.n_sites = 5\nsteps_per_pi = 20\n")
        rc, out, err = run(capsys, "sweep", str(spec))
        assert rc == 2
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert len(rows) == 1 + 2
        assert rows[1].startswith("3,nan")
        assert "# row 3 failed: ValueError" in out
        assert "even" in err

    def test_step_count_past_the_float_range_is_a_failed_row(self, capsys, tmp_path):
        spec = tmp_path / "spec.txt"
        spec.write_text("family = ideal_kicks\nsweep = n_sites\nvalues = 2,3\n"
                        "fixed.scheme = JxJy\nfixed.kick_duration = 1e306\n")
        rc, out, err = run(capsys, "sweep", str(spec))
        assert rc == 4
        rows = [line for line in out.splitlines() if not line.startswith("#")]
        assert rows[1:] == ["2,nan,nan,nan,nan", "3,nan,nan,nan,nan"]
        assert "# row 3 failed: ResourceCapError: a step count past the float range" in out
        assert err == "error: a step count past the float range exceeds the cap of 4194304\n"

    def test_missing_family_parameter_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**self.JSON_SPEC, "fixed": {}}))
        rc, _, err = run(capsys, "sweep", str(bad))
        assert rc == 2
        assert "n_sites" in err

    def test_malformed_json_is_usage_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, _ = run(capsys, "sweep", str(bad))
        assert rc == 2


class TestOracleCommands:
    def test_compare_reports_tiny_deviation(self, capsys):
        rc, out, _ = run(capsys, "oracle", "compare", "--n-sites", "3",
                         "--scheme", "JxJy", "--steps", "12")
        assert rc == 0
        report = json.loads(out)
        assert report["max_deviation"] < 1e-6
        assert report["grid_points"] == 13

    def test_fidelity_report_shape(self, capsys):
        rc, out, _ = run(capsys, "oracle", "fidelity", "--n-sites", "2",
                         "--scheme", "JxJy", "--steps", "8",
                         "--samples", "50", "--seed", "7", "--read-time", "end")
        assert rc == 0
        report = json.loads(out)
        assert report["read_time"] == pytest.approx(2.0)
        assert 0.0 <= report["monte_carlo_mean"] <= 1.0
        assert report["meta"]["samples"] == 50

    def test_fidelity_numeric_read_time(self, capsys):
        rc, out, _ = run(capsys, "oracle", "fidelity", "--n-sites", "2",
                         "--scheme", "JxJy", "--steps", "8",
                         "--samples", "20", "--read-time", "1.0")
        assert rc == 0
        assert json.loads(out)["read_time"] == pytest.approx(1.0)

    @pytest.mark.parametrize("shape", [["--scheme", "JxJy"], ["--sin-m", "4"]])
    def test_fidelity_at_read_time_zero(self, capsys, shape):
        rc, out, _ = run(capsys, "oracle", "fidelity", "--n-sites", "3", *shape,
                         "--samples", "20", "--read-time", "0")
        assert rc == 0
        assert json.loads(out)["read_time"] == 0.0

    @pytest.mark.parametrize("n_sites,scheme", [("3", "JxJy"), ("4", "JxB")])
    def test_fidelity_closed_form_at_negative_alpha(self, capsys, n_sites, scheme):
        # both kick sequences end with alpha_N = -1, a perfect transfer up to
        # a receiver rotation
        rc, out, _ = run(capsys, "oracle", "fidelity", "--n-sites", n_sites,
                         "--scheme", scheme, "--steps", "40", "--samples", "50",
                         "--read-time", "end")
        assert rc == 0
        report = json.loads(out)
        assert report["closed_form"] == pytest.approx(1.0, abs=1e-9)
        assert report["monte_carlo_mean"] == pytest.approx(1.0, abs=1e-9)

    def test_fidelity_auto_read_time(self, capsys, monkeypatch):
        import spinkick.cli

        calls = []
        real = spinkick.cli.propagate
        monkeypatch.setattr(spinkick.cli, "propagate",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        rc, out, _ = run(capsys, "oracle", "fidelity", "--n-sites", "3",
                         "--scheme", "JxB", "--steps", "30", "--samples", "50")
        assert rc == 0
        assert len(calls) == 1  # one propagation serves both receiver seeds
        report = json.loads(out)
        assert report["read_time"] == pytest.approx(5.0)
        assert report["closed_form"] == pytest.approx(1.0, abs=1e-9)

    def test_ghz_fidelity_and_state_dump(self, capsys, tmp_path):
        dump = tmp_path / "state.json"
        rc, out, _ = run(capsys, "oracle", "ghz",
                         "--sites", "X+", "0", "0", "X+",
                         "--dump-state", str(dump))
        assert rc == 0
        report = json.loads(out)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-9)
        assert report["n_sites"] == 4
        entries = json.loads(dump.read_text())
        assert all(len(bits) == 4 for bits, _, _ in entries)
        total = sum(re * re + im * im for _, re, im in entries)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_ghz_comma_tokens(self, capsys):
        rc, out, _ = run(capsys, "oracle", "ghz", "--sites", "X+,0,0,X+")
        assert rc == 0
        assert json.loads(out)["fidelity"] == pytest.approx(1.0, abs=1e-9)


class TestCalibrateCommand:
    def test_sin_power_amplitude(self, capsys):
        rc, out, _ = run(capsys, "calibrate", "--sin-m", "6")
        assert rc == 0
        report = json.loads(out)
        assert report["amplitude"] == pytest.approx(0.8, abs=1e-12)

    def test_boxcar_amplitude(self, capsys):
        rc, out, _ = run(capsys, "calibrate", "--boxcar-width", "0.5")
        assert rc == 0
        import math
        assert json.loads(out)["amplitude"] == pytest.approx(math.pi / 2, abs=1e-12)

    @pytest.mark.parametrize("m", ["3", "12", "14", "16"])
    def test_any_non_negative_m(self, capsys, m):
        rc, out, _ = run(capsys, "calibrate", "--sin-m", m)
        assert rc == 0
        assert json.loads(out)["amplitude"] > 0

    def test_negative_m_is_usage_error(self, capsys):
        rc, _, err = run(capsys, "calibrate", "--sin-m", "-2")
        assert rc == 2
        assert "error:" in err

    def test_sharp_sin_power_simulates(self, capsys):
        rc, out, _ = run(capsys, "simulate", "--n-sites", "5", "--sin-m", "14",
                         "--steps", "200")
        assert rc == 0
        assert "m=14" in out

    def test_requires_exactly_one_shape(self, capsys):
        rc, _, _ = run(capsys, "calibrate")
        assert rc == 2
        rc, _, _ = run(capsys, "calibrate", "--sin-m", "4", "--boxcar-width", "1.0")
        assert rc == 2


class TestDeterminism:
    def test_simulate_is_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["simulate", "--n-sites", "4", "--sin-m", "4", "--steps", "100"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        assert main(argv + ["--out", "-"]) == 0  # meta lines and series, written in turn
        assert capsys.readouterr().out == a.read_text()

    @pytest.mark.parametrize("texts", [("a" * (2 ** 20 + 7),), ("",), ("# meta\n", "", "x" * 2 ** 21, "y\n"),
                                       ("# meta\n", ("h\n", "", "x" * (2 ** 20 + 3), "y\n"), "# end\n")],
                             ids=["one-slice-more", "empty", "several", "generator"])
    def test_write_gives_the_joined_text_in_slices(self, monkeypatch, tmp_path, texts):
        # a tuple stands for a generator of its pieces, which checks before it yields each
        # piece that everything ahead of it is written: a writer that collects first fails
        joined = "".join("".join(text) for text in texts)
        files = []
        monkeypatch.setattr(cli, "open", lambda *a: files.append(open(*a)) or files[-1], raising=False)
        target = tmp_path / "out.csv"
        cli._write(str(target), *_lazy(texts, lambda: files[0].tell()))
        assert target.read_bytes() == joined.encode()
        sizes = []  # each write encodes one slice, never a whole text

        class Out(io.StringIO):
            def write(self, text):
                sizes.append(len(text))
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", Out())
        cli._write("-", *_lazy(texts, lambda: len(sys.stdout.getvalue())))
        assert sys.stdout.getvalue() == joined and max(sizes, default=0) <= 2 ** 20

    def test_monte_carlo_is_seed_deterministic(self, capsys):
        argv = ["oracle", "fidelity", "--n-sites", "2", "--scheme", "JxJy",
                "--steps", "8", "--samples", "40", "--seed", "9",
                "--read-time", "end"]
        _, out1, _ = run(capsys, *argv)
        _, out2, _ = run(capsys, *argv)
        assert out1 == out2


def _lazy(texts, written):
    """texts with each tuple of pieces made a generator that asserts, before it yields a
    piece, that written() counts every character ahead of that piece."""
    def pieces(parts, ahead):
        for part in parts:
            assert written() == ahead
            ahead += len(part)
            yield part

    out, ahead = [], 0
    for text in texts:
        out.append(text if isinstance(text, str) else pieces(text, ahead))
        ahead += len("".join(text))
    return out


def test_simulate_streams_its_csv_without_holding_the_text(tmp_path):
    # sin^6 at N = 25: a 23.9 MB CSV over an 8.8 MB FluxResult.  Joined passes hold the text
    # twice, a peak about 2 CSVs above the result; written pass by pass it is about 0.35
    csv_path, summary_path = tmp_path / "s25.csv", tmp_path / "s25.json"
    series_csv(propagate(ideal_schedule(3, "JxJy"), 1))  # the tables are built
    tracemalloc.start()
    try:
        assert main(["simulate", "--n-sites", "25", "--sin-m", "6",
                     "--out", str(csv_path), "--summary", str(summary_path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    r = propagate(sin_power_schedule(25, 6))
    text = series_csv(r)
    meta = json.loads(summary_path.read_text())["meta"]
    assert csv_path.read_bytes() == (cli._meta_lines("simulate", meta) + text).encode()
    result_bytes, csv_bytes = r.times.nbytes + r.alphas.nbytes + r.transfer.nbytes, len(text)
    assert peak < result_bytes + csv_bytes / 2


def _fresh_python(code: str) -> str:
    """Stdout of code run in a new interpreter that imports this checkout's spinkick."""
    paths = [str(Path(spinkick.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60, check=True)
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    # nor builds the export's lookup tables, which the first export builds, nor imports fractions
    code = ("import sys, spinkick.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'fractions')), "
            "spinkick.flux._format_tables.cache_info().currsize)")
    assert _fresh_python(code) == "[] 0"


def test_cli_import_builds_no_parser():
    code = "import spinkick.cli; print(spinkick.cli.build_parser.cache_info().currsize)"
    assert _fresh_python(code) == "0"
