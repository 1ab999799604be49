"""Exact state-vector simulator for the open XY chain.

Works directly on the 2^N amplitude vector with matrix-free Hamiltonian
application: the Z field is diagonal, XX flips a bond, and YY flips a bond
with a configuration-dependent sign.  Site 1 is the most significant bit of
the basis index, site N the least significant.  Serves as the independent
cross-check for the operator-graph propagation.  One loop steps the windows
and streams the states, so final_state and heisenberg_expectation hold one at
a time.  Each window is stepped as its stages from pulses.window_stages, the
rule the coefficient engine steps too: a boxcar window is its exact average,
a sin^m window the two stages of the fourth-order CF4 rule, and the states
are read only at grid times.  A stage with one channel on is a product of
commuting two-level rotations, applied in closed form; any other stage is a
Taylor series whose depth and degree a norm bound fixes up front (1e-13 per
stage), planned for all stages at once.  Each XX or YY term flips two bits
and Z is diagonal, so H conserves the parity prod Z: after every window the
loop checks the norm of the state and of its odd-parity half, and
monte_carlo_average_fidelity carries its two basis columns, one in each
sector, in one state.  Up to 10 sites each Taylor stage keeps H in ELL form,
the chain's column table of the N index maps and a value table built once
per stage, and applies it with one gather; larger chains apply H bond by
bond, where the ELL temporaries outgrow the cache.  The chain's tables are
built once per N and shared, read-only, by the runs on it; only the most
recent N's are kept.  Runs that report every grid time (evolve_state,
heisenberg_expectation) step every window; an end-state run (final_state)
steps each run of equal single-channel windows as one kick.  Inputs are
products of X/Y/Z eigenstates (SiteAssignment).
"""
from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError, ResourceCapError
from .pulses import PulseSchedule, default_steps, ideal_schedule, step_grid, window_stages

RESOURCE_CAP_SITES = 14  # 2^14 amplitudes
# amplitudes evolve_state stores, times x 2^N: 512 MiB of complex values, as the flux table
# cap; sin^6 on its default grid is stored up to N = 12 (4,801 x 4,096 = 19.7 M) and refused
# from 13 (5,201 x 8,192 = 42.6 M)
MAX_STATE_AMPLITUDES = 2 ** 25

_NORM_TOL = 1e-10
_MAX_DEPTH = 20  # at most 2^20 Taylor substeps per window
_THETA = np.array([[(1e-13 / 2 ** d * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(18)]
                   for d in range(_MAX_DEPTH + 1)])  # [depth, degree] -> largest substep bound
_MAX_BOUND = 0.4 * 2 ** _MAX_DEPTH  # the largest window bound the Taylor path subdivides
_GATHER_MAX_SITES = 10  # Taylor windows apply H by one gather up to here, bond by bond above


def _check_cap(n_sites: int):
    if n_sites > RESOURCE_CAP_SITES:
        raise ResourceCapError(f"N={n_sites} exceeds the cap of {RESOURCE_CAP_SITES} sites")


_EIGENVECTORS = {
    ("Z", +1): np.array([1.0, 0.0], dtype=complex),
    ("Z", -1): np.array([0.0, 1.0], dtype=complex),
    ("X", +1): np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0),
    ("X", -1): np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0),
    ("Y", +1): np.array([1.0, 1.0j], dtype=complex) / np.sqrt(2.0),
    ("Y", -1): np.array([1.0, -1.0j], dtype=complex) / np.sqrt(2.0),
}


class SiteAssignment:
    """Per-site X/Y/Z eigenstates, site 1 first: (basis, sign) pairs like ('Z', +1).

    Any other entry, an explicit 2-vector included, raises ValueError.
    """

    def __init__(self, entries: Sequence[Tuple[str, int]]):
        parsed = []
        for e in entries:
            pair = isinstance(e, tuple) and len(e) == 2 and isinstance(e[0], str)
            key = (e[0].upper(), int(e[1])) if pair else None
            if key not in _EIGENVECTORS:
                raise ValueError(f"bad eigenstate entry {e!r}: entries are pairs like ('Z', 1)")
            parsed.append(key)
        self.entries = parsed

    @classmethod
    def parse(cls, text: str) -> "SiteAssignment":
        """Parse comma/whitespace separated tokens like 'X+,Z+,Z-,X-'.

        Aliases: 0 -> Z+, 1 -> Z-, + -> X+, - -> X-.
        """
        alias = {"0": ("Z", 1), "1": ("Z", -1), "+": ("X", 1), "-": ("X", -1)}
        entries = []
        for tok in text.replace(",", " ").split():
            t = tok.strip().upper()
            if t in alias:
                entries.append(alias[t])
            elif len(t) == 2 and t[0] in "XYZ" and t[1] in "+-":
                entries.append((t[0], 1 if t[1] == "+" else -1))
            else:
                raise ValueError(f"cannot parse site token {tok!r}")
        if not entries:
            raise ValueError("empty site assignment")
        return cls(entries)

    @classmethod
    def uniform(cls, n_sites: int, basis: str = "Z", sign: int = 1) -> "SiteAssignment":
        return cls([(basis, sign)] * n_sites)

    @property
    def n_sites(self) -> int:
        return len(self.entries)

    def site_vector(self, site: int) -> np.ndarray:
        """Single-site state vector at a 1-based site."""
        return _EIGENVECTORS[self.entries[site - 1]]

    def __str__(self) -> str:
        return ",".join(f"{basis}{'+' if sign > 0 else '-'}" for basis, sign in self.entries)


def product_state(assignment: SiteAssignment) -> np.ndarray:
    """State vector of the product of per-site states, site 1 leftmost."""
    _check_cap(assignment.n_sites)
    psi = np.array([1.0 + 0.0j])
    for site in range(1, assignment.n_sites + 1):
        psi = np.kron(psi, assignment.site_vector(site))
    return psi


def _step_bound(n_sites: int, dt, jx, jy, b):
    """theta = dt*((|jx|+|jy|)(N-1) + |b|N) >= dt*||H|| of one window, or elementwise of arrays."""
    return dt * ((abs(jx) + abs(jy)) * (n_sites - 1) + abs(b) * n_sites)


class _ChainAction:
    """Matrix-free H = jx*sum XX + jy*sum YY + b*sum Z on the 2^N amplitudes.

    Each bond term flips two bits of the basis index.  Row k of the column table columns
    (N, 2^N) is the index map of bond k (flips is rows 1..N-1), row 0 the identity; row
    k - 1 of yy_signs is the sign that YY adds to bond k's flip; diag_z is sum Z.  apply()
    and kick() add the terms bond by bond over row views of these tables, two or three numpy
    calls per bond, as fast as with one array per bond (a sin^6 column to t = 2*pi, best of
    7 interleaved runs on 2 cores: 0.428 against 0.417 s at N = 11, 0.764 against 0.771 s
    at N = 12, 1.631 against 1.642 s at N = 13).

    Taylor stages on at most _GATHER_MAX_SITES sites use the ELL form instead: the column
    table and a complex value table of the same shape whose row 0 is b*diag_z and row k is
    jx + jy*yy_signs.  taylor() builds the value table once per stage, and gather()
    applies H as (values * psi[columns]).sum(axis=0), three numpy calls whatever N.  The
    rows are summed in apply()'s order, so with jx or jy zero the two agree bit for bit.

    On small chains Python dispatch sets the cost: a whole sin^6 column takes half as
    long with the gather at N = 8 and 9, and 0.63 as long at N = 10.  From 11 sites the
    (N, 2^N) temporaries leave the cache, and the column takes 1.18x as long at N = 11
    and 1.5x at N = 12, so larger chains keep apply().  Per application alone the gather
    still reads faster at N = 11 and 12, so that measure does not decide the rule.
    """

    def __init__(self, n_sites: int):
        self.n_sites = n_sites
        idx = np.arange(1 << n_sites)
        masks = 1 << np.arange(n_sites - 1, -1, -1)[:, None]  # row i: the bit of site i + 1
        bits = (idx & masks) != 0
        self.diag_z = (1.0 - 2.0 * bits).sum(axis=0)  # sums of +-1, exact in any order
        self.columns = np.vstack([idx, idx ^ (masks[:-1] | masks[1:])])
        self.flips = self.columns[1:]
        # <flip of s|YY|s> = -1 when the bond bits of s agree, +1 otherwise
        self.yy_signs = np.where(bits[:-1] == bits[1:], -1.0, 1.0)
        for table in (self.diag_z, self.columns, self.flips, self.yy_signs):
            table.setflags(write=False)  # shared by every run on N sites (_chain_action)

    def apply(self, psi: np.ndarray, jx: float, jy: float, b: float) -> np.ndarray:
        out = b * self.diag_z * psi if b else np.zeros_like(psi)
        for flip, sign in zip(self.flips, self.yy_signs):
            if jx:
                out = out + jx * psi[flip]
            if jy:
                out = out + jy * (sign * psi)[flip]
        return out

    def values(self, jx: float, jy: float, b: float) -> np.ndarray:
        """The ELL value table of H for gather().

        A bond flip keeps the agreement of the bond bits, so yy_signs is the same at s
        and at its flip, and row k may carry jx + jy*sign for both terms of bond k."""
        values = np.empty(self.columns.shape, dtype=complex)  # cast once, not per product
        values[0] = b * self.diag_z
        values[1:] = jx + jy * self.yy_signs
        return values

    def gather(self, psi: np.ndarray, values: np.ndarray) -> np.ndarray:
        """H psi from the value table of H: one gather of psi for every term at once."""
        terms = psi[self.columns]
        terms *= values
        return np.add.reduce(terms, axis=0)

    def kick(self, psi: np.ndarray, dt: float, jx: float, jy: float, b: float) -> np.ndarray:
        """exp(-i*dt*H) psi in closed form when one channel is on.

        The terms of one channel commute: a B window is the phase exp(-i*dt*b*diag_z), a Jx
        (Jy) window the product over bonds of cos(a) - i*sin(a)*XX (YY) with a = dt*jx (dt*jy).
        Each bond adds (cos(a) - 1)*psi - i*sin(a)*XX psi to psi, with cos(a) - 1 formed as
        -2*sin(a/2)^2, so rounding does not drift the norm one way window after window.
        """
        if b:
            return np.exp((-1j * dt * b) * self.diag_z) * psi
        a = dt * (jx or jy)
        c, s = -2.0 * math.sin(a / 2) ** 2, -1j * math.sin(a)
        for flip, sign in zip(self.flips, self.yy_signs):
            kicked = (psi if jx else sign * psi)[flip]
            kicked *= s
            kicked += c * psi
            psi = psi + kicked
        return psi

    def taylor(self, psi: np.ndarray, dt: float, jx: float, jy: float, b: float,
               depth: int, degree: int) -> np.ndarray:
        """exp(-i*dt*H) psi by 2^depth Taylor substeps of the given degree (_plan).

        Each substep is in Horner form, psi + h/1 (psi + h/2 (... (psi + h/m psi))), with
        h = -i*sub*H; each level updates the fresh H application in place, the same
        arithmetic as psi + c*H(out)."""
        sub = dt / (1 << depth)
        if self.n_sites <= _GATHER_MAX_SITES:
            h = functools.partial(self.gather, values=self.values(jx, jy, b))
        else:
            h = functools.partial(self.apply, jx=jx, jy=jy, b=b)
        for _ in range(1 << depth):
            out = psi
            for l in range(degree, 0, -1):
                out = h(out)
                out *= -1j * sub / l
                out += psi
            psi = out
        return psi


# the read-only tables of H on N sites, shared by the runs on N sites; only the most recent
# N's are kept, so resident memory does not grow with the chain lengths run
_chain_action = functools.lru_cache(maxsize=1)(_ChainAction)


def _windows(psi0: np.ndarray, schedule: PulseSchedule, n_steps: Optional[int],
             read_time: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The step grid up to read_time, its (W, S, 3) stage table and the (W, S) stage bounds.

    pulses.window_stages owns the window rule: stage s of a window of width dt
    holds its amplitudes for dt/S, as in the coefficient engine.  Every stage's
    bound is checked in one pass, so a stage past the substep cap (an infinite
    or NaN bound too) fails before any is stepped.
    """
    n = schedule.n_sites
    if len(psi0) != (1 << n):
        raise ValueError(f"state has {len(psi0)} amplitudes, schedule expects {1 << n}")
    _check_cap(n)
    grid = step_grid(schedule, default_steps(schedule) if n_steps is None else n_steps)
    grid = np.append(grid[grid < read_time], read_time)
    stages = window_stages(schedule, grid)
    with np.errstate(over="ignore"):
        theta = _step_bound(n, np.diff(grid)[:, None] / stages.shape[1], *np.moveaxis(stages, -1, 0))
    bad = np.flatnonzero(~(theta <= _MAX_BOUND))
    if bad.size:
        raise NumericalContractError(f"state-vector step bound {theta.flat[bad[0]]:g} needs more "
                                     f"than 2^{_MAX_DEPTH} substeps")
    return grid, stages, theta


def _merge_runs(n_sites: int, grid: np.ndarray, stages: np.ndarray,
                theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The windows of _windows with each run of equal windows, at most one channel on, as one.

    A window joins a run when its stages are all one row with at most one channel on.
    One channel's terms commute, so exp(-i*dt1*H) exp(-i*dt2*H) = exp(-i*(dt1+dt2)*H) is
    exact for its run, and kick() steps it in closed form; an all-zero run is the identity.
    Mixed windows stay as they are.  A run whose merged bound would pass the substep cap
    keeps its windows, so no step passes the bound _windows checked.  A grid with
    no windows (read_time 0) is returned as it is.
    """
    if not len(stages):
        return grid, stages, theta
    single = np.count_nonzero(stages[:, 0], axis=1) <= 1
    single &= (stages == stages[:, :1]).all(axis=(1, 2))  # and every stage the same
    start = np.append(True, ~single[1:] | (stages[1:] != stages[:-1]).any(axis=(1, 2)))
    width = np.diff(grid[np.append(start, True)])[:, None] / stages.shape[1]
    merged = _step_bound(n_sites, width, *np.moveaxis(stages[start], -1, 0))
    merged = merged[np.cumsum(start) - 1]  # per window: the bounds of its whole run
    kept = ~(merged <= _MAX_BOUND).all(axis=1)
    start |= kept
    return grid[np.append(start, True)], stages[start], np.where(kept[:, None], theta, merged)[start]


def _plan(amplitudes: np.ndarray, theta: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per stage of (S, 3) amplitude rows: whether one channel alone is on (a kick), and its
    Taylor depth and degree.

    With theta = dt*((|jx|+|jy|)(N-1) + |b|N) >= dt*||H|| over the stage's dt, the Taylor
    path takes 2^depth Horner-form substeps of bound s = theta/2^depth <= 0.4, each to the
    first degree m with 2^depth * s^(m+1)/(m+1)! <= 1e-13 (_THETA), so the stage meets
    1e-13.  The bound is not checked here: _windows refuses every stage past _MAX_BOUND
    before the first step, and _merge_runs merges no run past it.
    """
    single = np.count_nonzero(amplitudes, axis=1) == 1
    depth = np.zeros(len(theta), dtype=int)
    big = np.flatnonzero(theta > 0.4)
    depth[big] = [math.ceil(math.log2(x / 0.4)) for x in theta[big].tolist()]
    scaled = theta / 2.0 ** depth
    degree = np.empty(len(theta), dtype=int)
    for d in np.unique(depth).tolist():  # the count of _THETA[d] entries below each scaled bound
        at = depth == d
        degree[at] = np.searchsorted(_THETA[d], scaled[at])
    return single, depth, degree


def _odd_parity(n_sites: int) -> np.ndarray:
    """Mask of the basis states of parity prod Z = -1, those with an odd number of sites flipped.

    Each XX or YY term flips two bits and Z is diagonal, so H conserves the parity."""
    odd = np.zeros(1, dtype=bool)
    for _ in range(n_sites):
        odd = np.concatenate([odd, ~odd])  # a new leading bit set flips every parity
    return odd


def _norm(psi: np.ndarray) -> float:
    return math.sqrt(np.vdot(psi, psi).real)


def _step_windows(psi0: np.ndarray, grid: np.ndarray, stages: np.ndarray,
                  theta: np.ndarray) -> Iterator[Tuple[float, np.ndarray]]:
    """The window loop of evolve_state, final_state and heisenberg_expectation.

    Yields (t, state) at every time of the grid, psi0 first, each state after its norm
    check: the state keeps unit norm, and its odd-parity half the norm it starts with.
    Each window steps its S stages in turn, each for 1/S of the window, by the plan that
    _plan makes for all of them up front.  The caller keeps what it reads.
    """
    n = len(psi0).bit_length() - 1
    chain = _chain_action(n)
    odd = np.flatnonzero(_odd_parity(n))
    times = grid.tolist()
    per = stages.shape[1]
    rows = stages.reshape(-1, 3)
    # flat columns: a list of W rows of three floats would hold 1 MB at W = 6400
    plan = zip(*rows.T.tolist(), *(column.tolist() for column in _plan(rows, theta.ravel())))
    psi = np.array(psi0, dtype=complex)
    odd_norm = _norm(psi.take(odd))
    for i, t in enumerate(times):
        if i:
            dt = (t - times[i - 1]) / per
            for _ in range(per):
                jx, jy, b, single, depth, degree = next(plan)
                if single:
                    psi = chain.kick(psi, dt, jx, jy, b)
                else:
                    psi = chain.taylor(psi, dt, jx, jy, b, depth, degree)
        drift = abs(_norm(psi) - 1.0)
        if not drift <= _NORM_TOL:
            raise NumericalContractError(f"state norm off 1 by {drift:g} at t = {t:g}")
        drift = abs(_norm(psi.take(odd)) - odd_norm)
        if not drift <= _NORM_TOL:
            raise NumericalContractError(f"odd-parity half's norm off its start {odd_norm:g} "
                                         f"by {drift:g} at t = {t:g}")
        yield t, psi


def evolve_state(psi0: np.ndarray, schedule: PulseSchedule,
                 n_steps: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Evolve under the schedule; returns (times, states) with one row per time.

    Step boundaries include all schedule discontinuities and each window is
    stepped as its stages (pulses.window_stages), mirroring the coefficient
    propagation; the states are those at the grid times.
    The states fill one (times, 2^N) array; a series past MAX_STATE_AMPLITUDES
    is refused before the first window.
    """
    windows = _windows(psi0, schedule, n_steps, schedule.total_time)
    grid = windows[0]
    if len(grid) * len(psi0) > MAX_STATE_AMPLITUDES:
        raise ResourceCapError(f"{len(grid)} times x {len(psi0)} amplitudes exceed the cap of "
                               f"{MAX_STATE_AMPLITUDES} stored amplitudes")
    states = np.empty((len(grid), len(psi0)), dtype=complex)
    for i, (_, psi) in enumerate(_step_windows(psi0, *windows)):
        states[i] = psi
    return grid, states


def final_state(psi0: np.ndarray, schedule: PulseSchedule,
                read_time: Optional[float] = None,
                n_steps: Optional[int] = None) -> np.ndarray:
    """State at read_time (default: end of schedule) without storing the series.

    Each run of equal single-channel windows is stepped as one kick (_merge_runs).
    """
    if read_time is None:
        read_time = schedule.total_time
    if not 0.0 <= read_time <= schedule.total_time:
        raise ValueError(f"read_time {read_time} outside [0, {schedule.total_time}]")
    windows = _windows(psi0, schedule, n_steps, read_time)
    for _, psi in _step_windows(psi0, *_merge_runs(schedule.n_sites, *windows)):
        pass
    return psi


def heisenberg_expectation(op_site_n: str, psi0: np.ndarray, schedule: PulseSchedule,
                           n_steps: Optional[int] = None) -> Tuple[np.ndarray, np.ndarray]:
    """<O_N(t)> for O in {X, Y}: the receiver's Bloch component at every grid time,
    measured as each state arrives, so no series of states is kept.

    <X_N> + i<Y_N> = 2 <psi[0::2]|psi[1::2]>, the pairs of amplitudes that differ
    in site N's bit alone, so each time costs one vdot."""
    op = op_site_n.upper()
    if op not in ("X", "Y"):
        raise ValueError("receiver operator must be X or Y")
    windows = _windows(psi0, schedule, n_steps, schedule.total_time)
    times, overlaps = zip(*((t, np.vdot(psi[0::2], psi[1::2]))
                            for t, psi in _step_windows(psi0, *windows)))
    overlaps = np.array(overlaps)
    return np.array(times), 2.0 * (overlaps.real if op == "X" else overlaps.imag)


def receiver_density(psi: np.ndarray) -> np.ndarray:
    """Reduced density matrix of site N (the least significant bit)."""
    m = psi.reshape(-1, 2)
    return m.T @ m.conj()


def _bloch(rho: np.ndarray, axis: Optional[int] = None) -> np.ndarray:
    """Bloch vectors of one or a stack of (..., 2, 2) density matrices, or only their
    component `axis` (0 x, 1 y, 2 z), without forming the other two."""
    if axis is None:
        return np.stack([_bloch(rho, a) for a in range(3)], axis=-1)
    if axis == 0:
        return 2.0 * np.real(rho[..., 0, 1])
    if axis == 1:
        return 2.0 * np.imag(rho[..., 1, 0])
    return np.real(rho[..., 0, 0] - rho[..., 1, 1])


def _receiver_correction(blocks: np.ndarray) -> np.ndarray:
    """Rotation aligning the received Bloch frame with the sender frame.

    blocks[i, j] = Tr_rest |u_i><u_j| of the evolved inputs |0 0...0> and |1 0...0>.
    Probes with inputs |0> and |+> locate the images of the z and x axes; the
    correction is input-independent because both transported operator strings
    act on site 1 with the same Z tail.  Falls back to the identity when the
    probe directions are degenerate (no transfer at all).
    """
    rz = _bloch(blocks[0, 0])
    rx = _bloch(blocks.sum(axis=(0, 1)) / 2.0)  # |+> = (|0> + |1>)/sqrt(2)
    if np.linalg.norm(rz) < 1e-9:
        return np.eye(3)
    axis_z = rz / np.linalg.norm(rz)
    perp = rx - (rx @ axis_z) * axis_z
    if np.linalg.norm(perp) < 1e-9:
        return np.eye(3)
    axis_x = perp / np.linalg.norm(perp)
    return np.vstack([axis_x, np.cross(axis_z, axis_x), axis_z])


def monte_carlo_average_fidelity(schedule: PulseSchedule, n_samples: int, seed: int,
                                 read_time: Optional[float] = None,
                                 n_steps: Optional[int] = None) -> Tuple[float, float]:
    """Receiver fidelity averaged over uniform pure inputs at site 1.

    The rest of the chain starts in |0...0>.  Because the dynamics is linear,
    every input a|0> + b|1> evolves to a u0 + b u1 of two evolved basis
    columns, so its receiver state is a combination of the four 2x2 blocks
    Tr_rest |u_i><u_j|, formed once.  One pass evolves both columns: H conserves
    the parity prod Z, and |0 0...0> and |1 0...0> lie in its even and odd
    sectors, so the X+ sender on |0...0> evolves to (u0 + u1)/sqrt 2, whose even
    and odd halves are u0/sqrt 2 and u1/sqrt 2, and the blocks are exactly 2x
    those of the halves.  The documented local receiver correction
    is computed once per schedule from the same blocks and applied before
    fidelity evaluation.  Returns (mean, standard error).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = schedule.n_sites
    sender = product_state(SiteAssignment([("X", 1)] + [("Z", 1)] * (n - 1)))
    psi = final_state(sender, schedule, read_time, n_steps)
    odd = _odd_parity(n)
    halves = np.where([~odd, odd], psi, 0.0).reshape(2, -1, 2)  # u0/sqrt 2 and u1/sqrt 2
    blocks = 2.0 * np.einsum("irc,jrd->ijcd", halves, halves.conj())  # Tr_rest |u_i><u_j|
    correction = _receiver_correction(blocks)

    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n_samples, 4))
    a = draws[:, 0] + 1j * draws[:, 1]
    b = draws[:, 2] + 1j * draws[:, 3]
    scale = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    c = np.stack([a / scale, b / scale], axis=1)
    r_in = _bloch(np.einsum("si,sj->sij", c, c.conj()))
    r_out = _bloch(np.einsum("si,sj,ijcd->scd", c, c.conj(), blocks))
    fids = 0.5 * (1.0 + np.sum(r_in * (r_out @ correction.T), axis=1))
    # Bloch-vector roundoff can leak ~1e-16 past the physical range.
    np.clip(fids, 0.0, 1.0, out=fids)
    mean = float(np.mean(fids))
    stderr = float(np.std(fids, ddof=1) / math.sqrt(n_samples)) if n_samples > 1 else 0.0
    return mean, stderr


def mirror_state(psi: np.ndarray, n_sites: int) -> np.ndarray:
    """Site permutation i <-> N+1-i, i.e. bit reversal of the basis index."""
    if len(psi) != (1 << n_sites):
        raise ValueError("state length does not match n_sites")
    idx = np.arange(len(psi))
    perm = np.zeros_like(idx)
    for k in range(n_sites):
        perm |= ((idx >> k) & 1) << (n_sites - 1 - k)
    return psi[perm]  # bit reversal is its own inverse


@dataclass(frozen=True)
class GhzReport:
    predicted: np.ndarray
    evolved: np.ndarray
    phase_index: int
    fidelity: float


def _ghz_candidates(assignment: SiteAssignment):
    """The two branches mirror((P +- i*Z_S P)/sqrt 2), P the product input, S its non-Z sites.

    A branch carries Y at the mirror site of an X input site and X at that of a Y site.
    The JxJy quarter-turn kicks send each such input letter to its mirror site (with a Z
    string): as the other letter for even N, as the same letter for odd N.  So for odd N
    the phase gate diag(1, -i) on every mirror site of S turns the letter back, and for
    even N no site takes it.  diag(1, +i) on every such site would only swap the two
    branches, because the gates differ by Z on the mirror of S.
    """
    n = assignment.n_sites
    non_z = [s for s, (basis, _) in enumerate(assignment.entries, 1) if basis != "Z"]
    bases = {basis for basis, _ in assignment.entries} - {"Z"}
    if len(bases) > 1:
        raise ValueError("non-Z sites must all use the same basis (X or Y)")
    p1 = product_state(assignment)
    if not non_z:
        return [mirror_state(p1, n)]
    idx = np.arange(len(p1))
    zphase = np.ones(len(p1))
    for s in non_z:
        bit = (idx >> (n - s)) & 1
        zphase = zphase * (1.0 - 2.0 * bit)
    p2 = zphase * p1
    reversal = mirror_state(idx, n)
    candidates = [((p1 + 1j * (-1) ** l * p2) / math.sqrt(2.0))[reversal] for l in (0, 1)]
    if n % 2:  # bit s - 1 is site N + 1 - s, the mirror of s
        gate = np.prod([np.where(idx & (1 << (s - 1)), -1j, 1.0) for s in non_z], axis=0)
        candidates = [gate * c for c in candidates]
    return candidates


def ghz_compare(assignment: SiteAssignment, schedule: Optional[PulseSchedule] = None,
                n_steps: Optional[int] = None) -> GhzReport:
    """Predicted post-kick state vs exact evolution, with the phase index
    resolved numerically (the two-branch relative phase is +-i; which one
    depends on the input and is picked by overlap)."""
    n = assignment.n_sites
    if schedule is None:
        schedule = ideal_schedule(n, "JxJy")
    if schedule.n_sites != n:
        raise ValueError("schedule and assignment disagree on N")
    psi0 = product_state(assignment)
    evolved = final_state(psi0, schedule, None, n_steps)
    candidates = _ghz_candidates(assignment)
    fids = [abs(np.vdot(c, evolved)) ** 2 for c in candidates]
    best = int(np.argmax(fids))
    return GhzReport(predicted=candidates[best], evolved=evolved,
                     phase_index=best, fidelity=float(fids[best]))


def dump_state_json(psi: np.ndarray, threshold: float = 1e-12) -> str:
    """JSON list of [bitstring, re, im] for amplitudes above threshold."""
    n = int(round(math.log2(len(psi))))
    if (1 << n) != len(psi):
        raise ValueError("state length is not a power of two")
    psi = np.asarray(psi)
    idx = np.flatnonzero(np.abs(psi) > threshold)
    return json.dumps([[format(i, f"0{n}b"), re, im] for i, re, im in
                       zip(idx.tolist(), psi.real[idx].tolist(), psi.imag[idx].tolist())])
