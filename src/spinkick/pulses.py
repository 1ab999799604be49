"""Pulse schedules for the kicked chain and amplitude calibration.

All schedules map time to the channel amplitude triple (J_x, J_y, B) in units
of a reference coupling (hbar = 1).  Ideal kicks and square trains are one
boxcar table, a constant base plus single-channel boxcars, whose window
averages are exact: overlaps are computed in closed form, so kick areas are
preserved no matter how step boundaries fall.

window_stages owns the window rule that both engines step: a boxcar window is
one stage, its exact average, and a sin^m / cos^m window the two stages of
the fourth-order commutator-free rule CF4, read pointwise at its Gauss
points.  That family's exact window averages (average_amplitudes, through
its finite cosine series) are read by no engine.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from typing import Callable, ClassVar, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError, ResourceCapError

CHANNELS = ("Jx", "Jy", "B")  # the order of every (jx, jy, b) amplitude triple

QUARTER_TURN = math.pi / 4  # per-kick pulse area for a full coefficient swap

# 26x the boxcar default grid of N = 200 (160,000 steps); holds the grid to 32 MiB and the
# (W, 3) amplitude table to 96 MiB, and is refused before either exists
MAX_STEPS = 2 ** 22
# bytes of the operator graph's 2N node labels, N characters each (2N^2): 64 MiB, so chains
# up to N = 5792 are built, and a larger N is refused before its schedule or its first label
MAX_LABEL_BYTES = 2 ** 26

SCHEMES = ("JxJy", "JxB")
MAX_SIN_M = 1022  # the largest even m whose 2^m is a finite double: sin^m's series divides by it
# CF4 (Blanes and Moan, Appl. Numer. Math. 56, 1519, 2006): the Gauss-Legendre nodes of a window
# as fractions of its width, and 2*alpha_1, 2*alpha_2 with alpha_1,2 = 1/4 -+ sqrt(3)/6
_GAUSS = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4 = (0.5 - math.sqrt(3.0) / 3.0, 0.5 + math.sqrt(3.0) / 3.0)


class PulseSchedule:
    """Common interface: pointwise amplitudes, exact window averages, breakpoints.

    The families are dataclasses whose fields are their JSON payload, checked
    in __post_init__ however the schedule is built.
    """

    variant: ClassVar[str]
    steps_per_pi: ClassVar[int] = 400  # default_steps' grid density for the family
    smooth: ClassVar[bool] = False  # window_stages: CF4 stages of pointwise amplitudes, else averages
    n_sites: int
    total_time: float
    _base = (0.0, 0.0, 0.0)
    _channel = _start = _end = _amplitude = np.empty(0)

    def __post_init__(self):
        _check_sites(self.n_sites)
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not (isinstance(value, numbers.Real) and math.isfinite(value)):
                raise ValueError(f"{f.name} must be a finite number, got {value!r}")

    def _set_boxcars(self, boxcars, base=(0.0, 0.0, 0.0)):
        """Hold (channel, start, end, amplitude) boxcars in start order over a base (jx, jy, b)."""
        channel, *columns = zip(*boxcars)
        self._base, self._channel = base, np.array([CHANNELS.index(c) for c in channel])
        self._start, self._end, self._amplitude = np.array(columns, dtype=float)

    def amplitudes(self, t: float) -> Tuple[float, float, float]:
        out = np.array(self._base, dtype=float)
        for k in np.flatnonzero((self._start <= t) & (t < self._end))[:1]:  # the first holding t
            out[self._channel[k]] += self._amplitude[k]
        return tuple(out.tolist())

    def average_amplitudes(self, t0, t1) -> Tuple:
        """Averages (jx, jy, b) over [t0, t1], elementwise on arrays; a channel may be a scalar."""
        t0, t1 = np.broadcast_arrays(np.asarray(t0, dtype=float), np.asarray(t1, dtype=float))
        shape, t0, t1 = t0.shape, t0.ravel(), t1.ravel()
        dt = t1 - t0
        out = list(self._base)  # a channel without boxcars is its base scalar
        for c in set(self._channel.tolist()):
            start, end, amplitude = (v[self._channel == c]
                                     for v in (self._start, self._end, self._amplitude))
            acc = np.full(dt.size, self._base[c], dtype=float)
            # kicks may overlap by up to 1e-12, so an end can fall below the one before it
            k = np.searchsorted(np.maximum.accumulate(end), t0, side="right")
            stop = np.searchsorted(start, t1)
            w = np.flatnonzero(k < stop)
            k, stop = k[w], stop[w]
            while w.size:  # each window's next boxcar adds amplitude * (overlap / dt)
                overlap = np.minimum(t1[w], end[k]) - np.maximum(t0[w], start[k])
                acc[w] += amplitude[k] * (np.maximum(overlap, 0.0) / dt[w])
                more = k + 1 < stop
                w, k, stop = w[more], k[more] + 1, stop[more]
            acc[(dt == 0) | np.isnan(dt)] = np.nan  # 0/0, as in a sum over every boxcar
            out[c] = acc.reshape(shape)[()]
        return tuple(out)

    def discontinuities(self) -> Tuple[float, ...]:
        """Interior times where an amplitude jumps; step grids must include these."""
        return tuple(np.unique(np.concatenate([self._start, self._end])).tolist())

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
    """A chain length both engines take: a whole N from 2 up to the label cap."""
    if not isinstance(n_sites, numbers.Integral) or n_sites < 2:
        raise ValueError(f"need at least 2 sites, got n_sites={n_sites!r}")
    if 2 * int(n_sites) ** 2 > MAX_LABEL_BYTES:
        raise ResourceCapError(f"N={n_sites}: the 2N node labels of N characters exceed the cap "
                               f"of {MAX_LABEL_BYTES} bytes")


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
        self._set_boxcars([(s.channel, s.start, s.end, s.amplitude) for s in self.slots])

    # a family's own attribute: spinbench's span tracer wraps only what a class dict holds
    average_amplitudes = PulseSchedule.average_amplitudes


@dataclass
class SinPowerSchedule(PulseSchedule):
    """J_x = j_max*sin(t+pi/4)^m, B = b_max*cos(t+pi/4)^m, J_y = 0, m even.

    Its windows are stepped by CF4 (window_stages), whose fourth-order error
    lets the default grid take 200 steps per pi.
    """

    variant: ClassVar[str] = "sin_power"
    steps_per_pi: ClassVar[int] = 200
    smooth: ClassVar[bool] = True
    n_sites: int
    m: int
    j_max: float
    b_max: float

    def __post_init__(self):
        super().__post_init__()
        m = self.m
        if not isinstance(m, numbers.Integral) or m < 2 or m % 2 != 0:
            raise ValueError(f"m must be a positive even integer, got {m}")
        if m > MAX_SIN_M:  # before the series, whose binomials alone would not end at m = 1e308
            raise ValueError(f"m = {m} exceeds {MAX_SIN_M}: sin^m's cosine series divides by 2^m, "
                             "past the float range")
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
        """Pointwise (jx, jy, b), elementwise on an array of times; jy is the scalar 0.0.

        m is even, so the powers take |sin| and |cos|: pow is about 15x as fast
        on a non-negative base."""
        x = np.add(t, QUARTER_TURN)
        return (self.j_max * np.abs(np.sin(x)) ** self.m, 0.0,
                self.b_max * np.abs(np.cos(x)) ** self.m)

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

    The sharpness parameter delta sets the pulse width w = pi/delta, to
    within 1e-3 of it however the schedule is built.  Pulses
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
        w = self.pulse_width
        self._set_boxcars([("B", c - w / 2, c + w / 2, self.b_max) for c in self.centers],
                          (self.j_const, 0.0, 0.0))
        widths = [e - s for s, e in zip(self._start.tolist(), self._end.tolist())]
        if not all(abs(width / w - 1) <= 1e-6 for width in widths):  # a NaN width fails too
            raise ValueError(f"pulse_width {w} is too narrow for pulse centres up to t = "
                             f"{self.centers[-1]}: rounding its edges moves it by over 1e-6 of it")
        ratio = self.delta * w / math.pi
        if not abs(ratio - 1) <= 1e-3:
            raise ValueError(f"pulse_width {w} is not pi/delta for delta {self.delta}: "
                             f"delta * pulse_width / pi = {ratio:.6g}, not 1 to within 1e-3")

    # a family's own attribute: spinbench's span tracer wraps only what a class dict holds
    average_amplitudes = PulseSchedule.average_amplitudes

    def periodicity(self):
        # J-only half period, N - 1 periods centred on the pulses, J-only half period
        return self.period / 2, self.period, self.n_sites - 1


def calibrate_amplitude(area: float, target_area: float = QUARTER_TURN) -> float:
    """Amplitude a with a * area = target_area, for a pulse shape of the given area."""
    if not 0 < target_area < math.inf:
        raise ValueError(f"target_area must be positive and finite, got {target_area}")
    if not area > 0:
        raise ValueError("pulse shape has zero integral over its window")
    if not target_area / area < math.inf:
        raise ValueError(f"target_area {target_area:g} over the shape's area {area:g} "
                         "passes the float range")
    return target_area / area


def sin_power_hump(m: int) -> Tuple[float, Tuple[float, float]]:
    """Area and window of one non-negative hump of sin^m, the half-period (0, pi).

    The area is Wallis' integral sqrt(pi) * Gamma((m+1)/2) / Gamma(m/2 + 1),
    which is pi * C(m, m/2) / 2^m for even m.
    """
    if m < 0:
        raise ValueError(f"m must be non-negative, got {m}")
    try:
        area = math.sqrt(math.pi) * math.exp(math.lgamma((m + 1) / 2) - math.lgamma(m / 2 + 1))
    except OverflowError:  # m/2 past the float range, or past lgamma's
        raise ValueError(f"m = {m} passes the float range") from None
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
    options: Tuple[str, ...] = ()  # the factory's other keywords, which a sweep may fix


FAMILIES = {family.schedule.variant: family for family in (
    Family(IdealKickSchedule, ideal_schedule, ("n_sites",), ("scheme", "kick_duration")),
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


def default_steps(schedule: PulseSchedule, steps_per_pi: Optional[int] = None) -> int:
    """Uniform step count for a schedule: steps_per_pi per pi of total time.

    steps_per_pi defaults to the family's own density, schedule.steps_per_pi:
    400 for boxcar families and 200 for sin^m, whose CF4 stages meet 1e-6
    against the pointwise equations of motion on that grid up to N = 25.
    Float noise is dropped before the ceiling: 400 * (2*17*pi) / pi is
    13600.000000000002, which must give 13600 steps, not 13601.  A count past
    the float range is refused here as a step-cap error.
    """
    if steps_per_pi is None:
        steps_per_pi = schedule.steps_per_pi
    try:
        return max(1, math.ceil(steps_per_pi * schedule.total_time / math.pi * (1 - 1e-12)))
    except OverflowError:
        raise ResourceCapError("a step count past the float range exceeds the cap of "
                               f"{MAX_STEPS}") from None


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
    if n_steps > MAX_STEPS:
        count = n_steps
        if n_steps >= 10 ** 15:  # 16 digits or more in %.3g form, also past the float range
            import decimal  # here, not at the top: importing it adds 0.3 MB of resident memory
            count = f"{decimal.Decimal(str(n_steps)).normalize():.3g}"
        raise ResourceCapError(f"{count} steps exceed the cap of {MAX_STEPS}")
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
    columns = schedule.average_amplitudes(grid[:-1], grid[1:])  # before the table: a lower peak
    out = np.empty((len(grid) - 1, 3))
    for j, column in enumerate(columns):
        out[:, j] = column
    return _finite(out, grid)


def window_stages(schedule: PulseSchedule, grid: np.ndarray) -> np.ndarray:
    """(W, S, 3) table of the (jx, jy, b) stages of the W windows of a grid, in time order.

    Both engines step window k of width dt as its S stages in turn, stage s
    holding table[k, s] for dt/S.  A boxcar family's window (S = 1) is its
    exact average, window_amplitudes bit for bit, so a piecewise-constant
    schedule is integrated without time-stepping error.  A smooth family's
    window (schedule.smooth, S = 2) takes the two stages of CF4, the
    fourth-order commutator-free Gauss-Legendre rule: with a(t1), a(t2) the
    pointwise amplitudes at the window's Gauss points t1 < t2 and
    alpha_1,2 = 1/4 -+ sqrt(3)/6, the map over dt of alpha_2 a(t1) +
    alpha_1 a(t2), then that of alpha_1 a(t1) + alpha_2 a(t2), which over
    dt/2 are held at twice those sums.  The stages are summed one channel at
    a time into the table, so no other (W, 2, 3) array is made.
    """
    if not schedule.smooth:
        return window_amplitudes(schedule, grid)[:, None, :]
    start, width = grid[:-1], np.diff(grid)
    out = np.zeros((len(width), 2, 3))
    for node, weights in zip(_GAUSS, (_CF4[::-1], _CF4)):  # a(t1) leads the first stage
        for j, column in enumerate(schedule.amplitudes(start + node * width)):
            out[:, :, j] += np.multiply.outer(column, weights)
    return _finite(out, grid)


def _finite(table: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """The table of the grid's windows, or NumericalContractError naming the first non-finite one."""
    bad = np.flatnonzero(~np.isfinite(table).all(axis=tuple(range(1, table.ndim))))
    if bad.size:
        raise NumericalContractError(f"non-finite amplitudes from t = {grid[bad[0]]}")
    return table
