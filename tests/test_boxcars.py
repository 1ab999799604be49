"""The boxcar table against the per-slot and per-centre loops it replaced.

Ideal kicks and square trains are one table: a constant base plus boxcars in
start order.  Their window averages visit only the boxcars a window overlaps.
The loops below visit every slot or pulse centre for every window; they are
the slow reference.  Ideal kick averages must match them bit for bit, because
the oracle merges only bitwise-equal amplitude rows into one kick.  The old
square formula was b_max * sum(overlap) / dt, so square windows match it to
rounding, and bit for bit on the default grids of integer delta.
"""
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spinkick import (IdealKickSchedule, KickSlot, default_steps, ideal_schedule,
                      square_schedule, step_grid, window_amplitudes)


def slot_averages(slots, t0, t1):
    """Every slot, in start order, adds amplitude * (overlap / dt) to its channel."""
    acc = {"Jx": 0.0, "Jy": 0.0, "B": 0.0}
    dt = t1 - t0
    for s in sorted(slots, key=lambda s: s.start):
        overlap = np.minimum(t1, s.end) - np.maximum(t0, s.start)
        acc[s.channel] += s.amplitude * (np.maximum(overlap, 0.0) / dt)
    return acc["Jx"], acc["Jy"], acc["B"]


def slot_amplitudes(slots, t):
    """The first slot in start order that holds t sets its channel; the rest read 0."""
    for s in sorted(slots, key=lambda s: s.start):
        if s.start <= t < s.end:
            return tuple(s.amplitude if s.channel == c else 0.0 for c in ("Jx", "Jy", "B"))
    return 0.0, 0.0, 0.0


def centre_averages(schedule, t0, t1):
    """B is b_max times the summed overlap with every pulse, over dt."""
    w = schedule.pulse_width
    overlap = 0.0
    for c in schedule.centers:
        overlap += np.maximum(0.0, np.minimum(t1, c + w / 2) - np.maximum(t0, c - w / 2))
    return schedule.j_const, 0.0, schedule.b_max * overlap / (t1 - t0)


def reference_table(averages, grid):
    out = np.empty((len(grid) - 1, 3))
    for j, column in enumerate(averages(grid[:-1], grid[1:])):
        out[:, j] = column
    return out


def default_grid(schedule):
    return step_grid(schedule, default_steps(schedule))


@pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
@pytest.mark.parametrize("n", range(2, 26))
def test_ideal_default_grids_are_bitwise_the_per_slot_loop(scheme, n):
    s = ideal_schedule(n, scheme)
    grid = default_grid(s)
    want = reference_table(lambda t0, t1: slot_averages(s.slots, t0, t1), grid)
    assert np.array_equal(window_amplitudes(s, grid), want)


@pytest.mark.parametrize("delta", range(5, 21))
@pytest.mark.parametrize("n", [5, 25])
def test_square_default_grids_are_bitwise_the_per_centre_loop(delta, n):
    s = square_schedule(n, float(delta))
    grid = default_grid(s)
    want = reference_table(lambda t0, t1: centre_averages(s, t0, t1), grid)
    assert np.array_equal(window_amplitudes(s, grid), want)


@st.composite
def slot_lists(draw):
    """Kicks with gaps, back-to-back kicks, and kicks inside the 1e-12 overlap slack."""
    slots, t = [], 0.0
    for _ in range(draw(st.integers(1, 8))):
        gap = draw(st.sampled_from(["touch", "gap", "slack"]))
        if slots and gap == "gap":
            t += draw(st.floats(1e-3, 2.0))
        elif slots and gap == "slack":  # still after the previous start
            t -= draw(st.floats(0.0, 0.9)) * min(9e-13, slots[-1].duration)
        # a duration below the slack makes this kick end before the one it overlaps
        duration = draw(st.one_of(st.floats(0.05, 3.0), st.floats(1e-14, 9e-13)))
        slots.append(KickSlot(draw(st.sampled_from(["Jx", "Jy", "B"])), t, duration,
                              draw(st.floats(-3.0, 3.0))))
        t += duration
    return slots


@st.composite
def windows(draw, edges, total):
    """Window edges at slot edges and at random times, spanning one slot or several."""
    points = st.one_of(st.sampled_from(edges), st.floats(0.0, total))
    pairs = draw(st.lists(st.tuples(points, points), min_size=1, max_size=20))
    pairs = [(min(a, b), max(a, b)) for a, b in pairs if a != b]
    pairs.append((0.0, total))
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@settings(max_examples=200, deadline=None)
@given(data=st.data(), slots=slot_lists())
def test_ideal_windows_are_bitwise_the_per_slot_loop(data, slots):
    s = IdealKickSchedule(2, slots)
    edges = sorted({e for slot in slots for e in (slot.start, slot.end)})
    t0, t1 = data.draw(windows(edges, s.total_time), label="windows")
    fast = s.average_amplitudes(t0, t1)
    slow = slot_averages(slots, t0, t1)
    for got, want in zip(fast, slow):
        assert np.array_equal(np.broadcast_to(got, t0.shape), np.broadcast_to(want, t0.shape))
    for a, b in zip(t0, t1):
        assert s.average_amplitudes(float(a), float(b)) == slot_averages(slots, float(a), float(b))
    for t in edges + [float(t) for t in t0 + (t1 - t0) / 3]:
        assert s.amplitudes(t) == slot_amplitudes(slots, t)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(2, 6), delta=st.floats(1.5, 1e3))
def test_square_windows_match_the_per_centre_loop(data, n, delta):
    s = square_schedule(n, delta)
    t0, t1 = data.draw(windows(list(s.discontinuities()), s.total_time), label="windows")
    jx, jy, b = s.average_amplitudes(t0, t1)
    want_jx, want_jy, want_b = centre_averages(s, t0, t1)
    assert (jx, jy) == (want_jx, want_jy)
    # sum(b_max * (overlap / dt)) against b_max * sum(overlap) / dt
    np.testing.assert_allclose(b, want_b, rtol=1e-15, atol=0)


def test_first_slot_wins_inside_the_overlap_slack():
    # the Jx kick ends 8e-13 after the B kick starts and after the B kick ends
    slots = [KickSlot("Jx", 0.0, 1.0 + 8e-13, 0.5), KickSlot("B", 1.0, 1e-13, 2.0),
             KickSlot("Jy", 1.0 + 1e-13, 1.0, 0.25)]
    s = IdealKickSchedule(2, slots)
    for t in (1.0, 1.0 + 5e-14, 1.0 + 2e-13):
        assert s.amplitudes(t) == (0.5, 0.0, 0.0) == slot_amplitudes(slots, t)
    assert s.amplitudes(1.0 + 8e-13) == (0.0, 0.25, 0.0) == slot_amplitudes(slots, 1.0 + 8e-13)
    edges = np.array([0.0, 0.5, 1.0, 1.0 + 1e-13, 1.0 + 8e-13, 1.5, s.total_time])
    t0, t1 = np.meshgrid(edges, edges)
    t0, t1 = t0[t0 < t1], t1[t0 < t1]
    for got, want in zip(s.average_amplitudes(t0, t1), slot_averages(slots, t0, t1)):
        assert np.array_equal(got, want)


def test_a_window_of_no_width_reads_nan_as_the_per_slot_loop():
    s = ideal_schedule(3, "JxB")
    t = np.array([0.5, 1.0, 7.0])
    with np.errstate(invalid="ignore"):
        want = slot_averages(s.slots, t, t)
        got = s.average_amplitudes(t, t)
    assert np.isnan(got[0]).all() and np.isnan(got[2]).all() and np.isnan(want[0]).all()
    assert got[1] == want[1] == 0.0
