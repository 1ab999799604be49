"""Pulse schedules for the kicked chain and amplitude calibration.

All schedules map time to the channel amplitude triple (J_x, J_y, B) in units
of a reference coupling (hbar = 1).  Window averages are exact: boxcar
overlaps are computed in closed form and the sin^m / cos^m family is averaged
through its finite cosine series, so kick areas are preserved no matter how
step boundaries fall.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError
from .pauli import CHANNELS

QUARTER_TURN = math.pi / 4  # per-kick pulse area for a full coefficient swap

DEFAULT_STEPS_PER_PI = 400

SCHEMES = ("JxJy", "JxB")


class PulseSchedule:
    """Common interface: pointwise amplitudes, exact window averages, breakpoints.

    The families are dataclasses whose fields are their JSON payload, checked
    in __post_init__ however the schedule is built.
    """

    variant: ClassVar[str]
    n_sites: int
    total_time: float

    def __post_init__(self):
        _check_sites(self.n_sites)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")

    def amplitudes(self, t: float) -> Tuple[float, float, float]:
        raise NotImplementedError

    def average_amplitudes(self, t0, t1) -> Tuple:
        """Averages (jx, jy, b) over [t0, t1], elementwise on arrays; a channel may be a scalar."""
        raise NotImplementedError

    def discontinuities(self) -> Tuple[float, ...]:
        """Interior times where an amplitude jumps; step grids must include these."""
        return ()

    def periodicity(self) -> Optional[Tuple[float, float, int]]:
        """(t0, period, count): the amplitudes over [t0, t0 + count*period] repeat every period.

        None when the schedule declares no such structure.  `flux.propagate`
        checks the declaration against the step grid and the window averages
        before it relies on it.
        """
        return None

    def to_json(self) -> dict:
        return {"variant": self.variant, **asdict(self), "total_time": self.total_time}


def _check_sites(n_sites) -> None:
    if not isinstance(n_sites, numbers.Integral) or n_sites < 2:
        raise ValueError(f"need at least 2 sites, got n_sites={n_sites!r}")


@dataclass(frozen=True)
class KickSlot:
    channel: str
    start: float
    duration: float
    amplitude: float

    def __post_init__(self):
        values = (self.start, self.duration, self.amplitude)
        if (self.channel not in CHANNELS or not all(math.isfinite(v) for v in values)
                or self.start < 0 or self.duration <= 0):
            raise ValueError(f"invalid {self}: needs a channel in {CHANNELS}, finite "
                             "numbers, start >= 0 and duration > 0")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass
class IdealKickSchedule(PulseSchedule):
    """Sequence of non-overlapping single-channel boxcar kicks."""

    variant: ClassVar[str] = "ideal_kicks"
    n_sites: int
    slots: Sequence[KickSlot]
    scheme: str = ""

    def __post_init__(self):
        super().__post_init__()
        self.slots = sorted(self.slots, key=lambda s: s.start)
        if not self.slots:
            raise ValueError("need at least one kick slot")
        for a, b in zip(self.slots, self.slots[1:]):
            if b.start < a.end - 1e-12:
                raise ValueError(f"overlapping kick slots at t={b.start}")
        self.total_time = self.slots[-1].end

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
            overlap = np.minimum(t1, s.end) - np.maximum(t0, s.start)
            acc[s.channel] += s.amplitude * np.maximum(overlap, 0.0)
        dt = t1 - t0
        return acc["Jx"] / dt, acc["Jy"] / dt, acc["B"] / dt

    def discontinuities(self):
        out = []
        for s in self.slots:
            out.extend((s.start, s.end))
        return tuple(sorted(set(out)))


@dataclass
class SinPowerSchedule(PulseSchedule):
    """J_x = j_max*sin(t+pi/4)^m, B = b_max*cos(t+pi/4)^m, J_y = 0, m even."""

    variant: ClassVar[str] = "sin_power"
    n_sites: int
    m: int
    j_max: float
    b_max: float

    def __post_init__(self):
        super().__post_init__()
        m = self.m
        if not isinstance(m, numbers.Integral) or m < 2 or m % 2 != 0:
            raise ValueError(f"m must be a positive even integer, got {m}")
        self.total_time = 2.0 * self.n_sites * math.pi
        # sin^m x = c_0 + sum_j c_j cos(2jx); finite series, exact averages
        half = m // 2
        coeffs = [math.comb(m, half) / 2 ** m]
        coeffs += [2.0 / 2 ** m * (-1) ** j * math.comb(m, half - j) for j in range(1, half + 1)]
        self._coeffs = np.array(coeffs)

    def _antiderivative(self, x):
        c = self._coeffs
        v = c[0] * x
        for j in range(1, len(c)):
            v += c[j] * np.sin(2 * j * x) / (2 * j)
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

    def periodicity(self):
        return 0.0, math.pi, 2 * self.n_sites


@dataclass
class SquareDeltaSchedule(PulseSchedule):
    """Constant J_x with a train of square B pulses, one per 2*pi period.

    The sharpness parameter delta sets the pulse width w = pi/delta.  Pulses
    are centered on the period boundaries t = 2*pi*k (k = 1..N-1), B amplitude
    carries area pi/4 per pulse, and J_x is calibrated so the coupling area
    accumulated between consecutive pulses is pi/4.
    """

    variant: ClassVar[str] = "square_delta"
    n_sites: int
    delta: float
    j_const: float
    b_max: float
    pulse_width: float
    period: float = 2.0 * math.pi

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.pulse_width < self.period:
            raise ValueError(f"need 0 < pulse_width < period, got {self.pulse_width} "
                             f"and {self.period}")
        self.total_time = self.n_sites * self.period
        self.centers = tuple(self.period * k for k in range(1, self.n_sites))

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
            overlap += np.maximum(0.0, np.minimum(t1, c + w / 2) - np.maximum(t0, c - w / 2))
        dt = t1 - t0
        return self.j_const, 0.0, self.b_max * overlap / dt

    def discontinuities(self):
        w = self.pulse_width
        out = []
        for c in self.centers:
            out.extend((c - w / 2, c + w / 2))
        return tuple(sorted(out))

    def periodicity(self):
        # J-only half period, N - 1 periods centred on the pulses, J-only half period
        return self.period / 2, self.period, self.n_sites - 1


def calibrate_amplitude(area: float, target_area: float = QUARTER_TURN) -> float:
    """Amplitude a with a * area = target_area, for a pulse shape of the given area."""
    if not 0 < target_area < math.inf:
        raise ValueError(f"target_area must be positive and finite, got {target_area}")
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
    if not 0 < width < math.inf:
        raise ValueError(f"boxcar width must be positive and finite, got {width}")
    return width, (0.0, width)


def ideal_schedule(n_sites: int, scheme: str = "JxJy", kick_duration: float = 1.0) -> IdealKickSchedule:
    """Back-to-back boxcar kicks of area pi/4 implementing perfect transfer.

    Each kick swaps coefficients across one operator-graph edge.  The path
    from X_N to the site-1 node in the scheme's two channels, led by one kick
    of the other channel that starts the partner coefficient seeded at Y_N,
    alternates the channels from Jx: N kicks for JxJy, 2N-1 (odd N) or 2N
    (even N) for JxB.  Each kick starts where the previous one ends.
    """
    _check_sites(n_sites)  # the kick count needs a whole N before the schedule exists
    if kick_duration <= 0:
        raise ValueError("kick_duration must be positive")
    scheme = {s.lower(): s for s in SCHEMES}.get(str(scheme).lower(), scheme)
    if scheme == "JxJy":
        channels, count = ("Jx", "Jy"), n_sites
    elif scheme == "JxB":
        channels, count = ("Jx", "B"), 2 * n_sites - n_sites % 2
    else:
        raise ValueError(f"unknown scheme {scheme!r}, expected one of {SCHEMES}")
    amplitude = QUARTER_TURN / kick_duration
    slots = []
    for k in range(count):
        start = slots[-1].end if slots else 0.0
        slots.append(KickSlot(channels[k % 2], start, kick_duration, amplitude))
    return IdealKickSchedule(n_sites, slots, scheme)


def sin_power_schedule(n_sites: int, m: int) -> SinPowerSchedule:
    """Smooth schedule over [0, 2*N*pi] with both amplitudes set by the pi/4 rule."""
    area, _ = sin_power_hump(m)
    amp = calibrate_amplitude(area)
    return SinPowerSchedule(n_sites, m, j_max=amp, b_max=amp)


def square_schedule(n_sites: int, delta: float) -> SquareDeltaSchedule:
    """Square-pulse schedule over [0, 2*N*pi] with sharpness 1 < delta < inf."""
    if not 1 < delta < math.inf:
        raise ValueError(f"delta must exceed 1 and be finite (pulse narrower than a "
                         f"half-period), got {delta}")
    period = 2.0 * math.pi
    width = math.pi / delta
    b_max = QUARTER_TURN / width
    j_const = QUARTER_TURN / (period - width)
    return SquareDeltaSchedule(n_sites, delta, j_const=j_const, b_max=b_max,
                               pulse_width=width, period=period)


class Family(NamedTuple):
    schedule: type            # the dataclass a JSON payload of this variant rebuilds
    factory: Callable         # calibrated schedule from the family's parameters
    params: Tuple[str, ...]   # the parameters a sweep must set, fixed or swept


FAMILIES = {family.schedule.variant: family for family in (
    Family(IdealKickSchedule, ideal_schedule, ("n_sites",)),
    Family(SinPowerSchedule, sin_power_schedule, ("n_sites", "m")),
    Family(SquareDeltaSchedule, square_schedule, ("n_sites", "delta")),
)}


def schedule_from_json(data: dict) -> PulseSchedule:
    """Rebuild a schedule from its to_json() payload: the variant and the class's fields."""
    variant = data.get("variant") if isinstance(data, dict) else None
    family = FAMILIES.get(variant)
    if family is None:
        raise ValueError(f"unknown schedule variant {variant!r}")
    keys = fields(family.schedule)
    missing = [f.name for f in keys if f.default is MISSING and f.name not in data]
    if missing:
        raise ValueError(f"{variant} schedule is missing {', '.join(missing)}")
    kwargs = {f.name: data[f.name] for f in keys if f.name in data}
    if "slots" in kwargs:
        kwargs["slots"] = [_slot_from_json(i, d) for i, d in enumerate(kwargs["slots"])]
    return family.schedule(**kwargs)


def _slot_from_json(i: int, d) -> KickSlot:
    keys = [f.name for f in fields(KickSlot)]
    missing = [k for k in keys if not isinstance(d, dict) or k not in d]
    if missing:
        raise ValueError(f"slot {i} is missing {', '.join(missing)}")
    return KickSlot(*(d[k] for k in keys))


def default_steps(schedule: PulseSchedule, steps_per_pi: int = DEFAULT_STEPS_PER_PI) -> int:
    """Uniform step count for a schedule: steps_per_pi per pi of total time.

    Float noise is dropped before the ceiling: 400 * (2*17*pi) / pi is
    13600.000000000002, which must give 13600 steps, not 13601.
    """
    return max(1, math.ceil(steps_per_pi * schedule.total_time / math.pi * (1 - 1e-12)))


def step_grid(schedule: PulseSchedule, n_steps: int) -> np.ndarray:
    """Uniform grid over [0, total_time] merged with schedule discontinuities.

    A uniform point within tol = 1e-12 * total_time of a discontinuity gives
    way to it, and a discontinuity within tol of an end or of the previous one
    is dropped, so no window is narrower than tol.  Averages are exact over
    any window, so a point moved by less than tol changes results only at
    rounding level.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be >= 1")
    total = schedule.total_time
    tol = 1e-12 * total
    base = np.linspace(0.0, total, n_steps + 1)
    interior = np.unique([d for d in schedule.discontinuities() if tol < d < total - tol])
    if interior.size:
        interior = interior[np.append(True, np.diff(interior) > tol)]
        nearest = np.rint(interior * (n_steps / total)).astype(int)
        base = np.delete(base, nearest[np.abs(base[nearest] - interior) <= tol])
    return np.unique(np.concatenate([base, interior]))


def window_amplitudes(schedule: PulseSchedule, grid: np.ndarray) -> np.ndarray:
    """(W, 3) table of the window averages (jx, jy, b) over the W windows of a grid."""
    out = np.empty((len(grid) - 1, 3))
    for j, column in enumerate(schedule.average_amplitudes(grid[:-1], grid[1:])):
        out[:, j] = column
    bad = np.flatnonzero(~np.isfinite(out).all(axis=1))
    if bad.size:
        raise NumericalContractError(f"non-finite amplitudes from t = {grid[bad[0]]}")
    return out
