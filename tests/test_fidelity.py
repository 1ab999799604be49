import inspect
import json
import math

import numpy as np
import pytest

from spinkick.cli import main
from spinkick.pulses import FAMILIES
from spinkick import (SweepRow, SweepSpec, average_fidelity, joint_average_fidelity,
                      run_sweep, sweep_csv, transfer_read_time, ideal_schedule)
from spinkick.exceptions import NumericalContractError


class TestAverageFidelity:
    @pytest.mark.parametrize("alpha,expected", [
        (1.0, 1.0),
        (0.0, 0.5),
        (-1.0, 1.0),
        (-0.96, 0.9736),
        (0.96, 0.9736),
        (0.5, 0.5 * (1.0 + 0.5 * (2.0 / 3.0 + 0.5 / 3.0))),
    ])
    def test_closed_form_values(self, alpha, expected):
        assert average_fidelity(alpha) == pytest.approx(expected, abs=1e-15)

    def test_strictly_increasing(self):
        # increasing in |alpha| and even in alpha: the sign is a receiver-frame choice
        grid = np.linspace(0.0, 1.0, 101)
        vals = [average_fidelity(a) for a in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))
        assert [average_fidelity(-a) for a in grid] == vals

    def test_clamps_rounding_noise(self):
        assert average_fidelity(1.0 + 5e-10) == 1.0
        assert average_fidelity(-1.0 - 5e-10) == 1.0

    def test_rejects_unphysical_values(self):
        with pytest.raises(NumericalContractError):
            average_fidelity(1.0 + 1e-8)
        with pytest.raises(NumericalContractError):
            average_fidelity(-1.1)


class TestJointAverageFidelity:
    def test_reduces_to_single_channel_on_diagonal(self):
        for a in np.linspace(-1.0, 1.0, 21):
            assert joint_average_fidelity(a, a) == pytest.approx(average_fidelity(a))

    def test_perfect_and_null(self):
        assert joint_average_fidelity(1.0, 1.0) == pytest.approx(1.0)
        assert joint_average_fidelity(0.0, 0.0) == pytest.approx(0.5)

    def test_signs_do_not_matter(self):
        for a, b in ((-1.0, 1.0), (1.0, -1.0), (-1.0, -1.0)):
            assert joint_average_fidelity(a, b) == pytest.approx(1.0)
        assert joint_average_fidelity(-0.5, 0.8) == joint_average_fidelity(0.5, 0.8)

    def test_vectorized(self):
        a = np.array([0.0, 0.5, 1.0])
        b = np.array([0.0, 0.5, 1.0])
        out = joint_average_fidelity(a, b)
        assert out.shape == (3,)
        assert out[2] == pytest.approx(1.0)


class TestSweepSpec:
    def test_valid(self):
        spec = SweepSpec("sin_power", "m", (2.0, 4.0, 6.0), {"n_sites": 5})
        assert spec.steps_per_pi == 200  # the family's default density
        assert SweepSpec("square_delta", "delta", (8.0,), {"n_sites": 5}).steps_per_pi == 400
        assert SweepSpec("sin_power", "m", (2.0,), {"n_sites": 5}, steps_per_pi=400).steps_per_pi == 400

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            SweepSpec("gaussian", "m", (2.0,), {})

    def test_rejects_unknown_parameter(self):
        with pytest.raises(ValueError):
            SweepSpec("sin_power", "width", (2.0,), {})

    def test_rejects_empty_values(self):
        with pytest.raises(ValueError):
            SweepSpec("sin_power", "m", (), {"n_sites": 5})

    def test_rejects_non_increasing_values(self):
        with pytest.raises(ValueError):
            SweepSpec("sin_power", "m", (4.0, 2.0), {"n_sites": 5})
        with pytest.raises(ValueError):
            SweepSpec("sin_power", "m", (4.0, 4.0), {"n_sites": 5})
        for values in ((5.0, math.nan, 3.0), (math.nan, 2.0), (2.0, math.nan)):  # no order holds
            with pytest.raises(ValueError, match="strictly increasing"):
                SweepSpec("sin_power", "n_sites", values, {"m": 6})

    def test_rejects_bad_steps(self):
        for steps in (0, 2.5, math.inf, math.nan, "8"):
            with pytest.raises(ValueError, match="steps_per_pi must be a positive integer"):
                SweepSpec("sin_power", "m", (2.0,), {"n_sites": 5}, steps_per_pi=steps)

    @pytest.mark.parametrize("family,swept,fixed", [
        ("sin_power", "m", {}),
        ("sin_power", "n_sites", {"delta": 8.0}),
        ("square_delta", "n_sites", {"m": 6}),
        ("ideal_kicks", "scheme", {"n_sites": 3}),
        ("square_delta", "m", {"n_sites": 5, "delta": 8.0}),
    ])
    def test_rejects_parameter_neither_fixed_nor_swept(self, family, swept, fixed):
        with pytest.raises(ValueError):
            SweepSpec(family, swept, (2.0,), fixed)

    @pytest.mark.parametrize("family,swept,fixed,key", [
        ("sin_power", "m", {"n_sites": 5, "bogus": 1}, "bogus"),
        ("sin_power", "m", {"n_sites": 5, "scheme": "JxB"}, "scheme"),
        ("square_delta", "n_sites", {"delta": 8.0, "m": 6}, "m"),
        ("ideal_kicks", "n_sites", {"scheme": "JxB", "delta": 8.0}, "delta"),
    ])
    def test_rejects_unknown_fixed_key(self, family, swept, fixed, key):
        takes = ", ".join(FAMILIES[family].params + FAMILIES[family].options)
        with pytest.raises(ValueError, match=f"unknown fixed parameter '{key}' .* takes {takes}$"):
            SweepSpec(family, swept, (2.0,), fixed)

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_fixed_keys_are_the_factory_keywords(self, family):
        f = FAMILIES[family]
        assert f.params + f.options == tuple(inspect.signature(f.factory).parameters)

    @pytest.mark.parametrize("text", [
        "family = sin_power\nsweep = m\nvalues = 2,4\nfixed.n_sites = 5\nfixed.bogus = 1\n",
        json.dumps({"family": "sin_power", "sweep": "m", "values": [2, 4],
                    "fixed": {"n_sites": 5, "bogus": 1}}),
    ], ids=["key=value", "json"])
    def test_unknown_fixed_key_is_a_usage_error_before_any_row(self, capsys, tmp_path, text):
        spec = tmp_path / "spec.txt"
        spec.write_text(text)
        assert main(["sweep", str(spec)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: unknown fixed parameter 'bogus' for family sin_power: "
                       "it takes n_sites, m\n")


class TestRunSweep:
    def test_ideal_chain_length_sweep(self):
        spec = SweepSpec("ideal_kicks", "n_sites", (3.0, 5.0), {"scheme": "JxJy"},
                         steps_per_pi=20)
        rows = run_sweep(spec)
        assert [r.param_value for r in rows] == [3.0, 5.0]
        for r in rows:
            assert r.error is None
            assert abs(r.max_alpha) == pytest.approx(1.0, abs=1e-9)
            assert r.fidelity_max == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    def test_ideal_sweeps_transfer_exactly(self, scheme):
        # the paper's perfect transfer: each kick is one exact rotation, the peak a kick boundary
        spec = SweepSpec("ideal_kicks", "n_sites", tuple(range(2, 17)), {"scheme": scheme})
        for r in run_sweep(spec):
            assert r.error is None
            assert abs(abs(r.max_alpha) - 1.0) <= 1e-14, r
            assert abs(r.t_star - round(r.t_star)) <= 1e-9, r

    def test_sin_sharpness_sweep_improves_fidelity(self):
        spec = SweepSpec("sin_power", "m", (2.0, 4.0, 6.0), {"n_sites": 3},
                         steps_per_pi=60)
        rows = run_sweep(spec)
        fids = [r.fidelity_max for r in rows]
        assert all(b > a for a, b in zip(fids, fids[1:]))
        # the transfer peak happens before the end of the drive
        for r in rows:
            assert r.t_star < 6.0 * math.pi
            assert r.fidelity_at_tau <= r.fidelity_max

    def test_failed_row_is_reported_not_raised(self):
        spec = SweepSpec("square_delta", "delta", (0.5, 8.0), {"n_sites": 3},
                         steps_per_pi=40)
        rows = run_sweep(spec)
        assert rows[0].error is not None
        assert math.isnan(rows[0].max_alpha)
        assert rows[1].error is None

    def test_whole_number_floats_run_as_ints(self):
        # spec files write 5.0; the row runs at N = 5 and keeps its value
        spec = SweepSpec("sin_power", "n_sites", (5.0,), {"m": 4.0}, steps_per_pi=20)
        row, = run_sweep(spec)
        assert row.error is None
        assert row.param_value == 5.0

    @pytest.mark.parametrize("family,swept,value,fixed,message", [
        ("sin_power", "m", 2.5, {"n_sites": 3}, "m must be a positive even integer"),
        ("sin_power", "n_sites", 3.7, {"m": 6}, "need at least 2 sites"),
        ("square_delta", "n_sites", 3.7, {"delta": 8.0}, "need at least 2 sites"),
        ("ideal_kicks", "n_sites", 3.7, {"scheme": "JxJy"}, "need at least 2 sites"),
        ("ideal_kicks", "n_sites", 3.0, {"scheme": 1}, "unknown scheme 1"),
        ("square_delta", "delta", math.inf, {"n_sites": 3}, "delta must exceed 1"),
    ])
    def test_values_are_rejected_not_truncated(self, family, swept, value, fixed, message):
        row, = run_sweep(SweepSpec(family, swept, (value,), fixed, steps_per_pi=20))
        assert isinstance(row.error, ValueError) and message in str(row.error)
        assert math.isnan(row.max_alpha)

    def test_programming_errors_are_raised(self):
        spec = SweepSpec("ideal_kicks", "n_sites", (3.0,), {"kick_duration": None})
        with pytest.raises(TypeError):
            run_sweep(spec)

    def test_fidelity_at_tau_uses_magnitude(self):
        # ideal JxJy at N = 3 ends with alpha_N = -1: a perfect transfer
        spec = SweepSpec("ideal_kicks", "n_sites", (3.0,), {"scheme": "JxJy"},
                         steps_per_pi=20)
        row, = run_sweep(spec)
        assert row.fidelity_at_tau == pytest.approx(1.0, abs=1e-9)

    def test_sweep_csv_format(self):
        spec = SweepSpec("ideal_kicks", "n_sites", (3.0,), {"scheme": "JxJy"},
                         steps_per_pi=10)
        text = sweep_csv(run_sweep(spec))
        lines = text.strip().split("\n")
        assert lines[0] == "param,max_alpha,t_star,fidelity_max,fidelity_at_tau"
        assert len(lines) == 2
        values = [float(v) for v in lines[1].split(",")]
        assert values[0] == 3.0
        assert abs(values[1]) == pytest.approx(1.0, abs=1e-9)

    def test_sweep_csv_matches_per_value_format(self):
        rows = [SweepRow(2.5, -1.0 / 3.0, 1e-300, 0.75, -0.0),
                SweepRow(3.0, math.nan, math.nan, math.inf, 0.1)]
        expected = [",".join(format(v, ".17g") for v in (
            r.param_value, r.max_alpha, r.t_star, r.fidelity_max, r.fidelity_at_tau)) for r in rows]
        assert sweep_csv(rows).splitlines()[1:] == expected


class TestTransferReadTime:
    def test_ideal_jxb_arrives_with_positive_signs(self):
        read_time, a, b = transfer_read_time(ideal_schedule(3, "JxB"), 30)
        assert read_time == pytest.approx(5.0)
        assert a == pytest.approx(1.0, abs=1e-9)
        assert b == pytest.approx(1.0, abs=1e-9)
        assert joint_average_fidelity(a, b) == pytest.approx(1.0, abs=1e-9)

    def test_one_propagation_serves_both_seeds(self, monkeypatch):
        from spinkick import fidelity

        calls = []
        real = fidelity.propagate
        monkeypatch.setattr(fidelity, "propagate",
                            lambda *args, **kw: calls.append(args) or real(*args, **kw))
        _, a, b = transfer_read_time(ideal_schedule(4, "JxB"), 40)
        assert len(calls) == 1
        assert (abs(a), abs(b)) == pytest.approx((1.0, 1.0), abs=1e-9)

    def test_read_time_attains_joint_grid_maximum(self):
        from spinkick import propagate

        s = ideal_schedule(4, "JxB")
        read_time, a, b = transfer_read_time(s, 40)
        rx = propagate(s, 40)
        ry = propagate(s, 40, seed=5)
        x_node = next(i + 1 for i, p in enumerate(rx.nodes) if p[0] == "X")
        y_node = next(i + 1 for i, p in enumerate(rx.nodes) if p[0] == "Y")
        joint = joint_average_fidelity(rx.alpha_series(x_node), ry.alpha_series(y_node))
        i = int(np.argmin(np.abs(rx.times - read_time)))
        assert joint[i] == pytest.approx(np.max(joint), abs=1e-12)
        assert rx.alpha_series(x_node)[i] == pytest.approx(a)
        assert ry.alpha_series(y_node)[i] == pytest.approx(b)
