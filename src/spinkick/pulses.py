"""Pulse schedules for the kicked chain and amplitude calibration.

All schedules map time to the channel amplitude triple (J_x, J_y, B) in units
of a reference coupling (hbar = 1).  Window averages are exact: boxcar
overlaps are computed in closed form and the sin^m / cos^m family is averaged
through its finite cosine series, so kick areas are preserved no matter how
step boundaries fall.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from .pauli import CHANNELS

QUARTER_TURN = math.pi / 4  # per-kick pulse area for a full coefficient swap

DEFAULT_STEPS_PER_PI = 400

SCHEMES = ("JxJy", "JxB")


class PulseSchedule:
    """Common interface: pointwise amplitudes, exact window averages, breakpoints."""

    n_sites: int
    total_time: float

    def amplitudes(self, t: float) -> Tuple[float, float, float]:
        raise NotImplementedError

    def average_amplitudes(self, t0: float, t1: float) -> Tuple[float, float, float]:
        raise NotImplementedError

    def discontinuities(self) -> Tuple[float, ...]:
        """Interior times where an amplitude jumps; step grids must include these."""
        return ()

    def to_json(self) -> dict:
        raise NotImplementedError


@dataclass(frozen=True)
class KickSlot:
    channel: str
    start: float
    duration: float
    amplitude: float

    def __post_init__(self):
        numbers = (self.start, self.duration, self.amplitude)
        if (self.channel not in CHANNELS or not all(math.isfinite(v) for v in numbers)
                or self.start < 0 or self.duration <= 0):
            raise ValueError(f"invalid {self}: needs a channel in {CHANNELS}, finite "
                             "numbers, start >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


class IdealKickSchedule(PulseSchedule):
    """Sequence of non-overlapping single-channel boxcar kicks."""

    def __init__(self, n_sites: int, slots: Sequence[KickSlot], scheme: str = ""):
        slots = tuple(sorted(slots, key=lambda s: s.start))
        if not slots:
            raise ValueError("need at least one kick slot")
        for a, b in zip(slots, slots[1:]):
            if b.start < a.end - 1e-12:
                raise ValueError(f"overlapping kick slots at t={b.start}")
        self.n_sites = n_sites
        self.slots = slots
        self.scheme = scheme
        self.total_time = slots[-1].end

    def amplitudes(self, t):
        for s in self.slots:
            if s.start <= t < s.end:
                jx = s.amplitude if s.channel == "Jx" else 0.0
                jy = s.amplitude if s.channel == "Jy" else 0.0
                b = s.amplitude if s.channel == "B" else 0.0
                return jx, jy, b
        return 0.0, 0.0, 0.0

    def average_amplitudes(self, t0, t1):
        acc = {"Jx": 0.0, "Jy": 0.0, "B": 0.0}
        for s in self.slots:
            overlap = min(t1, s.end) - max(t0, s.start)
            if overlap > 0:
                acc[s.channel] += s.amplitude * overlap
        dt = t1 - t0
        return acc["Jx"] / dt, acc["Jy"] / dt, acc["B"] / dt

    def discontinuities(self):
        out = []
        for s in self.slots:
            out.extend((s.start, s.end))
        return tuple(sorted(set(out)))

    def to_json(self):
        return {
            "variant": "ideal_kicks",
            "n_sites": self.n_sites,
            "scheme": self.scheme,
            "total_time": self.total_time,
            "slots": [
                {"channel": s.channel, "start": s.start,
                 "duration": s.duration, "amplitude": s.amplitude}
                for s in self.slots
            ],
        }


class SinPowerSchedule(PulseSchedule):
    """J_x = j_max*sin(t+pi/4)^m, B = b_max*cos(t+pi/4)^m, J_y = 0, m even."""

    def __init__(self, n_sites: int, m: int, j_max: float, b_max: float):
        if m < 2 or m % 2 != 0:
            raise ValueError(f"m must be a positive even integer, got {m}")
        self.n_sites = n_sites
        self.m = m
        self.j_max = j_max
        self.b_max = b_max
        self.total_time = 2.0 * n_sites * math.pi
        # sin^m x = c_0 + sum_j c_j cos(2jx); finite series, exact averages
        half = m // 2
        coeffs = [math.comb(m, half) / 2 ** m]
        coeffs += [2.0 / 2 ** m * (-1) ** j * math.comb(m, half - j) for j in range(1, half + 1)]
        self._coeffs = np.array(coeffs)

    def _antiderivative(self, x: float) -> float:
        c = self._coeffs
        v = c[0] * x
        for j in range(1, len(c)):
            v += c[j] * math.sin(2 * j * x) / (2 * j)
        return v

    def amplitudes(self, t):
        jx = self.j_max * math.sin(t + QUARTER_TURN) ** self.m
        b = self.b_max * math.cos(t + QUARTER_TURN) ** self.m
        return jx, 0.0, b

    def average_amplitudes(self, t0, t1):
        dt = t1 - t0
        x0, x1 = t0 + QUARTER_TURN, t1 + QUARTER_TURN
        jx = self.j_max * (self._antiderivative(x1) - self._antiderivative(x0)) / dt
        # cos^m x = sin^m (x + pi/2)
        b = self.b_max * (
            self._antiderivative(x1 + math.pi / 2) - self._antiderivative(x0 + math.pi / 2)
        ) / dt
        return jx, 0.0, b

    def to_json(self):
        return {
            "variant": "sin_power",
            "n_sites": self.n_sites,
            "m": self.m,
            "j_max": self.j_max,
            "b_max": self.b_max,
            "total_time": self.total_time,
        }


class SquareDeltaSchedule(PulseSchedule):
    """Constant J_x with a train of square B pulses, one per 2*pi period.

    The sharpness parameter delta sets the pulse width w = pi/delta.  Pulses
    are centered on the period boundaries t = 2*pi*k (k = 1..N-1), B amplitude
    carries area pi/4 per pulse, and J_x is calibrated so the coupling area
    accumulated between consecutive pulses is pi/4.
    """

    def __init__(self, n_sites: int, delta: float, j_const: float, b_max: float,
                 pulse_width: float, period: float = 2.0 * math.pi):
        self.n_sites = n_sites
        self.delta = delta
        self.j_const = j_const
        self.b_max = b_max
        self.pulse_width = pulse_width
        self.period = period
        self.total_time = n_sites * period
        self.centers = tuple(period * k for k in range(1, n_sites))

    def amplitudes(self, t):
        w = self.pulse_width
        b = 0.0
        for c in self.centers:
            if c - w / 2 <= t < c + w / 2:
                b = self.b_max
                break
        return self.j_const, 0.0, b

    def average_amplitudes(self, t0, t1):
        w = self.pulse_width
        overlap = 0.0
        for c in self.centers:
            overlap += max(0.0, min(t1, c + w / 2) - max(t0, c - w / 2))
        dt = t1 - t0
        return self.j_const, 0.0, self.b_max * overlap / dt

    def discontinuities(self):
        w = self.pulse_width
        out = []
        for c in self.centers:
            out.extend((c - w / 2, c + w / 2))
        return tuple(sorted(out))

    def to_json(self):
        return {
            "variant": "square_delta",
            "n_sites": self.n_sites,
            "delta": self.delta,
            "j_const": self.j_const,
            "b_max": self.b_max,
            "pulse_width": self.pulse_width,
            "period": self.period,
            "total_time": self.total_time,
        }


def calibrate_amplitude(area: float, target_area: float = QUARTER_TURN) -> float:
    """Amplitude a with a * area = target_area, for a pulse shape of the given area."""
    if target_area <= 0:
        raise ValueError("target_area must be positive")
    if not area > 0:
        raise ValueError("pulse shape has zero integral over its window")
    return target_area / area


def sin_power_hump(m: int) -> Tuple[float, Tuple[float, float]]:
    """Area and window of one non-negative hump of sin^m, the half-period (0, pi).

    The area is Wallis' integral sqrt(pi) * Gamma((m+1)/2) / Gamma(m/2 + 1),
    which is pi * C(m, m/2) / 2^m for even m.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    area = math.sqrt(math.pi) * math.exp(math.lgamma((m + 1) / 2) - math.lgamma(m / 2 + 1))
    return area, (0.0, math.pi)


def boxcar_shape(width: float) -> Tuple[float, Tuple[float, float]]:
    """Area and window of a unit boxcar: the width itself, over (0, width)."""
    if width <= 0:
        raise ValueError("boxcar width must be positive")
    return width, (0.0, width)


def ideal_schedule(n_sites: int, scheme: str = "JxJy", kick_duration: float = 1.0) -> IdealKickSchedule:
    """Back-to-back boxcar kicks of area pi/4 implementing perfect transfer.

    Each kick swaps coefficients across one operator-graph edge.  The path
    from X_N to the site-1 node in the scheme's two channels, led by one kick
    of the other channel that starts the partner coefficient seeded at Y_N,
    alternates the channels from Jx: N kicks for JxJy, 2N-1 (odd N) or 2N
    (even N) for JxB.
    """
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if kick_duration <= 0:
        raise ValueError("kick_duration must be positive")
    key = scheme.lower()
    if key == "jxjy":
        channels, count = ("Jx", "Jy"), n_sites
    elif key == "jxb":
        channels, count = ("Jx", "B"), 2 * n_sites - n_sites % 2
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    order = [channels[k % 2] for k in range(count)]
    amplitude = QUARTER_TURN / kick_duration
    slots = [
        KickSlot(channel=ch, start=k * kick_duration, duration=kick_duration, amplitude=amplitude)
        for k, ch in enumerate(order)
    ]
    return IdealKickSchedule(n_sites, slots, scheme="JxJy" if key == "jxjy" else "JxB")


def sin_power_schedule(n_sites: int, m: int) -> SinPowerSchedule:
    """Smooth schedule over [0, 2*N*pi] with both amplitudes set by the pi/4 rule."""
    area, _ = sin_power_hump(m)
    amp = calibrate_amplitude(area)
    return SinPowerSchedule(n_sites, m, j_max=amp, b_max=amp)


def square_schedule(n_sites: int, delta: float) -> SquareDeltaSchedule:
    """Square-pulse schedule over [0, 2*N*pi] with sharpness delta > 1."""
    if n_sites < 2:
        raise ValueError("need at least 2 sites")
    if delta <= 1:
        raise ValueError("delta must exceed 1 (pulse narrower than a half-period)")
    period = 2.0 * math.pi
    width = math.pi / delta
    b_max = QUARTER_TURN / width
    j_const = QUARTER_TURN / (period - width)
    return SquareDeltaSchedule(n_sites, delta, j_const=j_const, b_max=b_max,
                               pulse_width=width, period=period)


_JSON_KEYS = {
    "ideal_kicks": ("n_sites", "slots"),
    "sin_power": ("n_sites", "m", "j_max", "b_max"),
    "square_delta": ("n_sites", "delta", "j_const", "b_max", "pulse_width", "period"),
}


def schedule_from_json(data: dict) -> PulseSchedule:
    """Rebuild a schedule from its to_json() payload."""
    variant = data.get("variant") if isinstance(data, dict) else None
    if variant not in _JSON_KEYS:
        raise ValueError(f"unknown schedule variant {variant!r}")
    missing = [k for k in _JSON_KEYS[variant] if k not in data]
    if missing:
        raise ValueError(f"{variant} schedule is missing {', '.join(missing)}")
    n = data["n_sites"]
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"n_sites must be an integer >= 2, got {n!r}")
    if not all(math.isfinite(data[k]) for k in _JSON_KEYS[variant] if k != "slots"):
        raise ValueError(f"non-finite number in {variant} schedule")
    if variant == "ideal_kicks":
        slots = [KickSlot(d["channel"], d["start"], d["duration"], d["amplitude"])
                 for d in data["slots"]]
        return IdealKickSchedule(n, slots, scheme=data.get("scheme", ""))
    if variant == "sin_power":
        return SinPowerSchedule(n, data["m"], data["j_max"], data["b_max"])
    return SquareDeltaSchedule(n, data["delta"], data["j_const"],
                               data["b_max"], data["pulse_width"], data["period"])


def default_steps(schedule: PulseSchedule, steps_per_pi: int = DEFAULT_STEPS_PER_PI) -> int:
    """Uniform step count for a schedule: steps_per_pi per pi of total time."""
    return max(1, math.ceil(steps_per_pi * schedule.total_time / math.pi))


def step_grid(schedule: PulseSchedule, n_steps: int) -> np.ndarray:
    """Uniform grid over [0, total_time] merged with schedule discontinuities."""
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    base = np.linspace(0.0, schedule.total_time, n_steps + 1)
    interior = [d for d in schedule.discontinuities() if 0.0 < d < schedule.total_time]
    return np.unique(np.concatenate([base, np.asarray(interior)]))
