import math

import numpy as np
import pytest
from scipy import integrate

from spinkick import (IdealKickSchedule, KickSlot, PulseSchedule, SinPowerSchedule,
                      SiteAssignment, SquareDeltaSchedule, calibrate_amplitude, chain,
                      evolve_state, ideal_schedule, product_state, propagate,
                      schedule_from_json, sin_power_schedule, square_schedule, step_grid,
                      window_amplitudes)
from spinkick import flux, oracle
from spinkick.exceptions import NumericalContractError
from spinkick.pulses import QUARTER_TURN, boxcar_shape, sin_power_hump


class TestCalibration:
    def test_sin6_amplitude(self):
        area, _ = sin_power_hump(6)
        assert calibrate_amplitude(area) == pytest.approx(0.8, abs=1e-12)

    def test_sin4_amplitude(self):
        area, _ = sin_power_hump(4)
        assert calibrate_amplitude(area) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_boxcar_amplitude(self):
        area, window = boxcar_shape(math.pi / 8)
        assert window == (0.0, math.pi / 8)
        assert calibrate_amplitude(area) == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("m", range(1, 17))
    def test_calibrated_area_is_quarter_turn(self, m):
        area, window = sin_power_hump(m)
        assert window == (0.0, math.pi)
        amp = calibrate_amplitude(area)
        # quadrature is the reference here only: its value stays accurate even
        # where its error estimate is loose (m >= 11)
        quad_area, _ = integrate.quad(lambda t: amp * math.sin(t) ** m, *window, limit=200)
        assert quad_area == pytest.approx(QUARTER_TURN, abs=1e-10)
        if m % 2 == 0:
            # the constant term of the cosine series is the hump's mean height
            c0 = SinPowerSchedule(2, m, 1.0, 1.0)._coeffs[0]
            assert amp == pytest.approx(1.0 / (4.0 * c0), rel=1e-14)
            assert sin_power_schedule(2, m).j_max == amp

    def test_custom_target_area(self):
        area, _ = boxcar_shape(2.0)
        assert calibrate_amplitude(area, 1.0) == pytest.approx(0.5)

    def test_zero_shape_rejected(self):
        with pytest.raises(ValueError):
            calibrate_amplitude(0.0)
        with pytest.raises(ValueError):
            calibrate_amplitude(-1.0)

    def test_bad_target_rejected(self):
        with pytest.raises(ValueError):
            calibrate_amplitude(1.0, target_area=0.0)

    def test_boxcar_width_validation(self):
        with pytest.raises(ValueError):
            boxcar_shape(0.0)

    def test_negative_m_rejected(self):
        with pytest.raises(ValueError):
            sin_power_hump(-1)


class TestIdealSchedule:
    def test_jxjy_n5_channel_order(self):
        s = ideal_schedule(5, "JxJy")
        assert [slot.channel for slot in s.slots] == ["Jx", "Jy", "Jx", "Jy", "Jx"]
        assert s.total_time == 5.0
        assert s.scheme == "JxJy"

    def test_jxjy_n2(self):
        s = ideal_schedule(2, "JxJy")
        assert len(s.slots) == 2
        assert all(slot.amplitude == pytest.approx(QUARTER_TURN) for slot in s.slots)

    @pytest.mark.parametrize("n_sites,n_kicks", [(3, 5), (5, 9), (7, 13), (4, 8), (6, 12)])
    def test_jxb_kick_counts(self, n_sites, n_kicks):
        # 2N-1 kicks for odd N, 2N for even N
        s = ideal_schedule(n_sites, "JxB")
        assert len(s.slots) == n_kicks

    def test_kick_duration_scales_amplitude(self):
        s = ideal_schedule(3, "JxJy", kick_duration=0.5)
        assert s.total_time == pytest.approx(1.5)
        assert all(slot.amplitude == pytest.approx(math.pi / 2) for slot in s.slots)

    def test_every_kick_area_is_quarter_turn(self):
        for scheme in ("JxJy", "JxB"):
            s = ideal_schedule(4, scheme, kick_duration=0.7)
            for slot in s.slots:
                channel_index = {"Jx": 0, "Jy": 1, "B": 2}[slot.channel]
                area, _ = integrate.quad(
                    lambda t: s.amplitudes(t)[channel_index], slot.start, slot.end)
                assert area == pytest.approx(QUARTER_TURN, abs=1e-9)

    def test_pointwise_amplitudes(self):
        s = ideal_schedule(5, "JxJy")
        assert s.amplitudes(1.5) == (0.0, QUARTER_TURN, 0.0)
        assert s.amplitudes(4.999) == (QUARTER_TURN, 0.0, 0.0)
        assert s.amplitudes(5.1) == (0.0, 0.0, 0.0)

    def test_window_average_splits_across_slots(self):
        s = ideal_schedule(5, "JxJy")
        jx, jy, b = s.average_amplitudes(0.5, 1.5)
        assert jx == pytest.approx(QUARTER_TURN / 2)
        assert jy == pytest.approx(QUARTER_TURN / 2)
        assert b == 0.0

    def test_discontinuities_are_slot_boundaries(self):
        s = ideal_schedule(3, "JxJy")
        assert s.discontinuities() == (0.0, 1.0, 2.0, 3.0)

    def test_overlapping_slots_rejected(self):
        slots = [KickSlot("Jx", 0.0, 1.0, 1.0), KickSlot("Jy", 0.5, 1.0, 1.0)]
        with pytest.raises(ValueError):
            IdealKickSchedule(3, slots)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            ideal_schedule(3, "JyB")
        with pytest.raises(ValueError):
            ideal_schedule(3, "JxJy", kick_duration=0.0)


class TestSinPowerSchedule:
    def test_amplitude_values(self):
        s = sin_power_schedule(5, 6)
        assert s.j_max == pytest.approx(0.8, abs=1e-12)
        assert s.b_max == pytest.approx(0.8, abs=1e-12)
        assert s.total_time == pytest.approx(10 * math.pi)

    def test_pointwise_shape(self):
        s = sin_power_schedule(3, 4)
        t = 0.3
        jx, jy, b = s.amplitudes(t)
        assert jy == 0.0
        assert jx == pytest.approx(s.j_max * math.sin(t + math.pi / 4) ** 4)
        assert b == pytest.approx(s.b_max * math.cos(t + math.pi / 4) ** 4)

    def test_coupling_and_field_quarter_phase(self):
        # B is the coupling waveform advanced by half a hump
        s = sin_power_schedule(3, 6)
        for t in np.linspace(0.0, 4.0, 17):
            assert s.amplitudes(t)[2] == pytest.approx(
                s.amplitudes(t + math.pi / 2)[0], abs=1e-12)

    def test_window_averages_match_quadrature(self):
        s = sin_power_schedule(3, 6)
        rng = np.random.default_rng(3)
        for _ in range(25):
            t0 = float(rng.uniform(0.0, s.total_time - 0.5))
            t1 = t0 + float(rng.uniform(1e-3, 0.5))
            jx, jy, b = s.average_amplitudes(t0, t1)
            want_jx, _ = integrate.quad(lambda t: s.amplitudes(t)[0], t0, t1)
            want_b, _ = integrate.quad(lambda t: s.amplitudes(t)[2], t0, t1)
            assert jx == pytest.approx(want_jx / (t1 - t0), abs=1e-11)
            assert b == pytest.approx(want_b / (t1 - t0), abs=1e-11)
            assert jy == 0.0

    def test_overlap_decreases_with_m(self):
        # sharper humps overlap less, the mechanism behind the m=6 gain
        overlaps = []
        for m in (2, 4, 6, 8):
            s = sin_power_schedule(3, m)
            val, _ = integrate.quad(
                lambda t: s.amplitudes(t)[0] * s.amplitudes(t)[2], 0.0, math.pi)
            overlaps.append(val)
        assert all(a > b for a, b in zip(overlaps, overlaps[1:]))

    def test_odd_m_rejected(self):
        with pytest.raises(ValueError):
            sin_power_schedule(5, 5)
        with pytest.raises(ValueError):
            SinPowerSchedule(5, 0, 1.0, 1.0)

    def test_no_discontinuities(self):
        assert sin_power_schedule(3, 2).discontinuities() == ()


class TestSquareDeltaSchedule:
    def test_delta8_parameters(self):
        s = square_schedule(5, 8.0)
        assert s.pulse_width == pytest.approx(math.pi / 8)
        assert s.b_max == pytest.approx(2.0)
        assert s.j_const == pytest.approx(QUARTER_TURN / (2 * math.pi - math.pi / 8))
        assert s.total_time == pytest.approx(10 * math.pi)
        assert len(s.centers) == 4

    def test_pulse_centers_on_period_marks(self):
        s = square_schedule(4, 10.0)
        np.testing.assert_allclose(s.centers, [2 * math.pi, 4 * math.pi, 6 * math.pi])

    def test_pointwise_values(self):
        s = square_schedule(5, 8.0)
        c = s.centers[0]
        assert s.amplitudes(c)[2] == pytest.approx(s.b_max)
        assert s.amplitudes(c + s.pulse_width)[2] == 0.0
        # coupling stays on throughout, including inside the B pulse
        assert s.amplitudes(c)[0] == pytest.approx(s.j_const)
        assert s.amplitudes(0.0)[0] == pytest.approx(s.j_const)

    def test_pulse_area_is_quarter_turn(self):
        s = square_schedule(5, 12.0)
        assert s.b_max * s.pulse_width == pytest.approx(QUARTER_TURN, abs=1e-12)

    def test_gap_coupling_area_is_quarter_turn(self):
        s = square_schedule(5, 12.0)
        gap = s.period - s.pulse_width
        assert s.j_const * gap == pytest.approx(QUARTER_TURN, abs=1e-12)

    def test_overlap_fraction_is_half_inverse_delta(self):
        # both fields are on during a fraction 1/(2*delta) of each period
        for delta in (5.0, 8.0, 16.0):
            s = square_schedule(5, delta)
            assert s.pulse_width / s.period == pytest.approx(1.0 / (2.0 * delta))

    def test_window_averages_match_quadrature(self):
        s = square_schedule(3, 6.0)
        rng = np.random.default_rng(5)
        windows = [(c - 1.0, c + 0.1) for c in s.centers]
        windows += [tuple(sorted(rng.uniform(0.0, s.total_time, 2))) for _ in range(10)]
        for t0, t1 in windows:
            if t1 - t0 < 1e-6:
                continue
            jx, jy, b = s.average_amplitudes(t0, t1)
            want_b, _ = integrate.quad(
                lambda t: s.amplitudes(t)[2], t0, t1,
                points=[d for d in s.discontinuities() if t0 < d < t1], limit=200)
            assert b == pytest.approx(want_b / (t1 - t0), abs=1e-9)
            assert jx == pytest.approx(s.j_const)
            assert jy == 0.0

    def test_discontinuities_at_pulse_edges(self):
        s = square_schedule(3, 8.0)
        w = s.pulse_width
        expected = []
        for c in s.centers:
            expected.extend([c - w / 2, c + w / 2])
        np.testing.assert_allclose(s.discontinuities(), sorted(expected))

    def test_delta_validation(self):
        with pytest.raises(ValueError):
            square_schedule(5, 1.0)
        with pytest.raises(ValueError):
            square_schedule(1, 8.0)


class TestJsonRoundTrip:
    @pytest.mark.parametrize("make", [
        lambda: ideal_schedule(4, "JxB", kick_duration=0.5),
        lambda: sin_power_schedule(3, 6),
        lambda: square_schedule(4, 9.0),
    ])
    def test_roundtrip_preserves_amplitudes(self, make):
        s = make()
        rebuilt = schedule_from_json(s.to_json())
        assert rebuilt.n_sites == s.n_sites
        assert rebuilt.total_time == pytest.approx(s.total_time)
        rng = np.random.default_rng(9)
        for t in rng.uniform(0.0, s.total_time, 20):
            np.testing.assert_allclose(rebuilt.amplitudes(t), s.amplitudes(t))

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            schedule_from_json({"variant": "trapezoid"})
        with pytest.raises(ValueError):
            schedule_from_json([1, 2])

    @pytest.mark.parametrize("data", [
        {"variant": "sin_power", "n_sites": 5},
        {"variant": "square_delta", "n_sites": 5, "delta": 8.0},
        {"variant": "ideal_kicks", "n_sites": 3},
        {"variant": "sin_power", "n_sites": 1, "m": 6, "j_max": 0.8, "b_max": 0.8},
        {"variant": "sin_power", "n_sites": 2.5, "m": 6, "j_max": 0.8, "b_max": 0.8},
        {"variant": "sin_power", "n_sites": 3, "m": 6, "j_max": math.nan, "b_max": 0.8},
        {"variant": "square_delta", "n_sites": 3, "delta": 8.0, "j_const": 0.1,
         "b_max": math.inf, "pulse_width": 0.4, "period": 6.3},
        {"variant": "ideal_kicks", "n_sites": 3, "slots": []},
    ])
    def test_missing_keys_and_short_chains_rejected(self, data):
        with pytest.raises(ValueError):
            schedule_from_json(data)


class TestKickSlotValidation:
    @pytest.mark.parametrize("slot", [
        ("Q", 0.0, 1.0, 1.0),
        ("Jx", -0.5, 1.0, 1.0),
        ("Jx", 0.0, 0.0, 1.0),
        ("Jx", 0.0, -1.0, 1.0),
        ("Jx", 0.0, math.inf, 1.0),
        ("Jx", math.nan, 1.0, 1.0),
        ("B", 0.0, 1.0, math.nan),
    ])
    def test_rejected(self, slot):
        with pytest.raises(ValueError):
            KickSlot(*slot)

    def test_json_slot_rejected(self):
        data = ideal_schedule(3, "JxJy").to_json()
        data["slots"][1]["channel"] = "Q"
        with pytest.raises(ValueError):
            schedule_from_json(data)

    @pytest.mark.parametrize("key", ["channel", "start", "duration", "amplitude"])
    def test_json_slot_missing_key_named(self, key):
        data = ideal_schedule(3, "JxJy").to_json()
        del data["slots"][2][key]
        with pytest.raises(ValueError, match=f"slot 2 is missing {key}"):
            schedule_from_json(data)

    def test_json_slot_not_an_object(self):
        data = ideal_schedule(3, "JxJy").to_json()
        data["slots"][0] = [0.0, 1.0]
        with pytest.raises(ValueError, match="slot 0 is missing channel, start, duration"):
            schedule_from_json(data)


class TestStepGrid:
    def test_includes_discontinuities(self):
        s = square_schedule(3, 8.0)
        grid = step_grid(s, 7)
        for d in s.discontinuities():
            assert np.min(np.abs(grid - d)) == 0.0

    def test_endpoints_and_monotonicity(self):
        s = sin_power_schedule(3, 4)
        grid = step_grid(s, 13)
        assert grid[0] == 0.0
        assert grid[-1] == pytest.approx(s.total_time)
        assert np.all(np.diff(grid) > 0)
        assert len(grid) == 14

    def test_validation(self):
        with pytest.raises(ValueError):
            step_grid(sin_power_schedule(3, 4), 0)


class _ScalarXY(PulseSchedule):
    """Constant Jx = Jy coupling whose averages come back as plain scalars."""

    def __init__(self, n_sites, j, total_time):
        self.n_sites, self.j, self.total_time = n_sites, j, total_time

    def average_amplitudes(self, t0, t1):
        return self.j, self.j, 0.0


class _LateNaN(PulseSchedule):
    """Finite field except in the last window, where the average is NaN."""

    n_sites = 3
    total_time = 1.0

    def average_amplitudes(self, t0, t1):
        return 0.5, 0.0, np.where(t1 > 0.9, np.nan, 0.2)


class TestWindowAmplitudes:
    @pytest.mark.parametrize("schedule", [
        sin_power_schedule(4, 6), sin_power_schedule(3, 2),
        square_schedule(4, 8.0), square_schedule(3, 16.5),
        ideal_schedule(5, "JxJy", 0.7), ideal_schedule(4, "JxB"),
        _ScalarXY(3, 0.8, 4.0),
    ], ids=lambda s: type(s).__name__)
    def test_matches_per_window_scalar_averages(self, schedule):
        # a coarse grid puts window edges inside pulses and on every discontinuity
        grid = step_grid(schedule, 37)
        expected = np.array([schedule.average_amplitudes(float(t0), float(t1))
                             for t0, t1 in zip(grid[:-1], grid[1:])])
        table = window_amplitudes(schedule, grid)
        assert table.shape == (len(grid) - 1, 3)
        assert np.array_equal(table, expected)

    def test_non_finite_window_named(self):
        grid = np.linspace(0.0, 1.0, 11)
        with pytest.raises(NumericalContractError, match="from t = 0.9"):
            window_amplitudes(_LateNaN(), grid)

    def test_both_engines_reject_before_any_step(self, monkeypatch):
        def no_step(*args):
            raise AssertionError("stepped a window")
        monkeypatch.setattr(flux, "expm_series", no_step)
        monkeypatch.setattr(oracle._ChainAction, "step", no_step)
        with pytest.raises(NumericalContractError):
            propagate(chain(3), _LateNaN(), 10)
        with pytest.raises(NumericalContractError):
            evolve_state(product_state(SiteAssignment.parse("+,0,0")), _LateNaN(), 10)
