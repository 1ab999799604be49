"""Exact state-vector simulator for the open XY chain.

Works directly on the 2^N amplitude vector with matrix-free Hamiltonian
application: the Z field is diagonal, XX flips a bond, and YY flips a bond
with a configuration-dependent sign.  Site 1 is the most significant bit of
the basis index, site N the least significant.  Serves as the independent
cross-check for the operator-graph propagation.  One loop steps the windows,
each by a Taylor series whose depth and degree a norm bound fixes up front, and
streams the states, so final_state and heisenberg_expectation hold one at a time.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterator, Optional, Tuple

import numpy as np

from .exceptions import NumericalContractError, ResourceCapError
from .pauli import SiteAssignment
from .pulses import PulseSchedule, default_steps, ideal_schedule, step_grid, window_amplitudes

RESOURCE_CAP_SITES = 14  # 2^14 amplitudes by default; override explicitly

_NORM_TOL = 1e-10
_MAX_DEPTH = 20  # at most 2^20 Taylor substeps per window
_THETA = np.array([[(1e-13 / 2 ** d * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(18)]
                   for d in range(_MAX_DEPTH + 1)])  # [depth, degree] -> largest substep bound


def _check_cap(n_sites: int, allow_large: bool):
    if n_sites > RESOURCE_CAP_SITES and not allow_large:
        raise ResourceCapError(
            f"N={n_sites} exceeds the default cap of {RESOURCE_CAP_SITES} sites; "
            "pass allow_large=True to override")


def product_state(assignment: SiteAssignment, allow_large: bool = False) -> np.ndarray:
    """State vector of the product of per-site states, site 1 leftmost."""
    _check_cap(assignment.n_sites, allow_large)
    psi = np.array([1.0 + 0.0j])
    for site in range(1, assignment.n_sites + 1):
        psi = np.kron(psi, assignment.site_vector(site))
    return psi


class _ChainAction:
    """Precomputed index maps for matrix-free H application."""

    def __init__(self, n_sites: int):
        self.n_sites = n_sites
        dim = 1 << n_sites
        idx = np.arange(dim)
        self.diag_z = np.zeros(dim)
        for i in range(n_sites):
            bit = (idx >> (n_sites - 1 - i)) & 1
            self.diag_z += 1.0 - 2.0 * bit
        self.flips = []
        self.yy_signs = []
        for i in range(n_sites - 1):
            mask = (1 << (n_sites - 1 - i)) | (1 << (n_sites - 2 - i))
            self.flips.append(idx ^ mask)
            b1 = (idx >> (n_sites - 1 - i)) & 1
            b2 = (idx >> (n_sites - 2 - i)) & 1
            # <s^mask|YY|s> = -1 when the bond bits of s agree, +1 otherwise
            self.yy_signs.append(np.where(b1 == b2, -1.0, 1.0))

    def apply(self, psi: np.ndarray, jx: float, jy: float, b: float) -> np.ndarray:
        out = b * self.diag_z * psi if b else np.zeros_like(psi)
        for flip, sign in zip(self.flips, self.yy_signs):
            if jx:
                out = out + jx * psi[flip]
            if jy:
                out = out + jy * (sign * psi)[flip]
        return out

    def step(self, psi: np.ndarray, dt: float, jx: float, jy: float, b: float) -> np.ndarray:
        """exp(-i*dt*H) psi: with theta = dt*((|jx|+|jy|)(N-1) + |b|N) >= dt*||H||, 2^depth
        Horner-form Taylor substeps of bound s = theta/2^depth <= 0.4, each to the first
        degree m with 2^depth * s^(m+1)/(m+1)! <= 1e-13 (_THETA), so the window meets 1e-13."""
        theta = dt * ((abs(jx) + abs(jy)) * (self.n_sites - 1) + abs(b) * self.n_sites)
        if not theta <= 0.4 * 2 ** _MAX_DEPTH:  # also an infinite or NaN bound
            raise NumericalContractError(
                f"state-vector step bound {theta:g} needs more than 2^{_MAX_DEPTH} substeps")
        depth = 0
        if theta > 0.4:
            depth = int(math.ceil(math.log2(theta / 0.4)))
        sub = dt / (1 << depth)
        degree = int(np.searchsorted(_THETA[depth], theta / (1 << depth)))
        for _ in range(1 << depth):
            out = psi
            for l in range(degree, 0, -1):  # psi + h/1 (psi + h/2 (... (psi + h/m psi)))
                out = psi + (-1j * sub / l) * self.apply(out, jx, jy, b)
            psi = out
        return psi


def _step_windows(psi0: np.ndarray, schedule: PulseSchedule, n_steps: Optional[int],
                  allow_large: bool, read_time: float) -> Iterator[Tuple[float, np.ndarray]]:
    """The window loop of evolve_state, final_state and heisenberg_expectation.

    Yields (t, state) at every time of the step grid up to read_time, psi0
    first, each state after its unit-norm check; the caller keeps what it reads.
    """
    n = schedule.n_sites
    if len(psi0) != (1 << n):
        raise ValueError(f"state has {len(psi0)} amplitudes, schedule expects {1 << n}")
    _check_cap(n, allow_large)
    grid = step_grid(schedule, default_steps(schedule) if n_steps is None else n_steps)
    grid = np.append(grid[grid < read_time], read_time)
    amplitudes = window_amplitudes(schedule, grid).tolist()
    chain = _ChainAction(n)
    times = grid.tolist()
    psi = np.array(psi0, dtype=complex)
    for i, t in enumerate(times):
        if i:
            psi = chain.step(psi, t - times[i - 1], *amplitudes[i - 1])
        drift = abs(np.linalg.norm(psi) - 1.0)
        if drift > _NORM_TOL:
            raise NumericalContractError(f"state norm off 1 by {drift:g} at t = {t:g}")
        yield t, psi


def evolve_state(psi0: np.ndarray, schedule: PulseSchedule,
                 n_steps: Optional[int] = None,
                 allow_large: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """Evolve under the schedule; returns (times, states) with one row per time.

    Step boundaries include all schedule discontinuities and each window uses
    the window-averaged amplitudes, mirroring the coefficient propagation.
    """
    times, states = zip(*_step_windows(psi0, schedule, n_steps, allow_large, schedule.total_time))
    return np.array(times), np.stack(states)


def final_state(psi0: np.ndarray, schedule: PulseSchedule,
                read_time: Optional[float] = None,
                n_steps: Optional[int] = None,
                allow_large: bool = False) -> np.ndarray:
    """State at read_time (default: end of schedule) without storing the series."""
    if read_time is None:
        read_time = schedule.total_time
    if not 0.0 <= read_time <= schedule.total_time:
        raise ValueError(f"read_time {read_time} outside [0, {schedule.total_time}]")
    for _, psi in _step_windows(psi0, schedule, n_steps, allow_large, read_time):
        pass
    return psi


def pauli_expectation(psi: np.ndarray, label: str) -> float:
    """<psi| P |psi> for a Pauli string given as text, site 1 leftmost."""
    n = len(label)
    if len(psi) != (1 << n):
        raise ValueError(f"state has {len(psi)} amplitudes, label names {n} sites")
    idx = np.arange(len(psi))
    flip_mask = 0
    phase = np.ones(len(psi), dtype=complex)
    for i, c in enumerate(label.upper()):
        bitpos = n - 1 - i
        bit = (idx >> bitpos) & 1
        if c == "X":
            flip_mask |= 1 << bitpos
        elif c == "Y":
            flip_mask |= 1 << bitpos
            phase = phase * np.where(bit == 0, 1j, -1j)
        elif c == "Z":
            phase = phase * (1.0 - 2.0 * bit)
        elif c != "I":
            raise ValueError(f"bad Pauli label {c!r}")
    out = np.empty_like(psi)
    out[idx ^ flip_mask] = phase * psi
    return float(np.real(np.vdot(psi, out)))


def heisenberg_expectation(op_site_n: str, psi0: np.ndarray, schedule: PulseSchedule,
                           n_steps: Optional[int] = None,
                           allow_large: bool = False) -> Tuple[np.ndarray, np.ndarray]:
    """<O_N(t)> for O in {X, Y}: the receiver's Bloch component at every grid time,
    measured as each state arrives, so no series of states is kept."""
    op = op_site_n.upper()
    if op not in ("X", "Y"):
        raise ValueError("receiver operator must be X or Y")
    axis = "XY".index(op)
    times, values = zip(*((t, _bloch(receiver_density(psi))[axis]) for t, psi in
                          _step_windows(psi0, schedule, n_steps, allow_large, schedule.total_time)))
    return np.array(times), np.array(values)


def receiver_density(psi: np.ndarray) -> np.ndarray:
    """Reduced density matrix of site N (the least significant bit)."""
    m = psi.reshape(-1, 2)
    return m.T @ m.conj()


def _bloch(rho: np.ndarray) -> np.ndarray:
    """Bloch vectors of one or a stack of (..., 2, 2) density matrices."""
    return np.stack([
        2.0 * np.real(rho[..., 0, 1]),
        2.0 * np.imag(rho[..., 1, 0]),
        np.real(rho[..., 0, 0] - rho[..., 1, 1]),
    ], axis=-1)


def _receiver_correction(u0: np.ndarray, u1: np.ndarray) -> np.ndarray:
    """Rotation aligning the received Bloch frame with the sender frame.

    Probes with inputs |0> and |+> locate the images of the z and x axes; the
    correction is input-independent because both transported operator strings
    act on site 1 with the same Z tail.  Falls back to the identity when the
    probe directions are degenerate (no transfer at all).
    """
    rz = _bloch(receiver_density(u0))
    plus = (u0 + u1) / math.sqrt(2.0)
    rx = _bloch(receiver_density(plus))
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
                                 n_steps: Optional[int] = None,
                                 allow_large: bool = False) -> Tuple[float, float]:
    """Receiver fidelity averaged over uniform pure inputs at site 1.

    The rest of the chain starts in |0...0>.  Because the dynamics is linear,
    every input evolves inside the span of two evolved basis columns; sampling
    is a cheap linear combination.  The documented local receiver correction
    is computed once per schedule and applied before fidelity evaluation.
    Returns (mean, standard error).
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    n = schedule.n_sites
    _check_cap(n, allow_large)
    dim = 1 << n
    e0 = np.zeros(dim, dtype=complex)
    e0[0] = 1.0
    e1 = np.zeros(dim, dtype=complex)
    e1[1 << (n - 1)] = 1.0  # site 1 flipped
    u0 = final_state(e0, schedule, read_time, n_steps, allow_large)
    u1 = final_state(e1, schedule, read_time, n_steps, allow_large)
    correction = _receiver_correction(u0, u1)

    rng = np.random.default_rng(seed)
    draws = rng.normal(size=(n_samples, 4))
    a = draws[:, 0] + 1j * draws[:, 1]
    b = draws[:, 2] + 1j * draws[:, 3]
    scale = np.sqrt(np.abs(a) ** 2 + np.abs(b) ** 2)
    a, b = a / scale, b / scale
    r_in = np.stack([
        2.0 * np.real(np.conj(a) * b),
        2.0 * np.imag(np.conj(a) * b),
        np.abs(a) ** 2 - np.abs(b) ** 2,
    ], axis=1)

    fids = np.empty(n_samples)
    batch = max(1, (1 << 22) // dim)
    for lo in range(0, n_samples, batch):
        hi = min(lo + batch, n_samples)
        psi = a[lo:hi, None] * u0[None, :] + b[lo:hi, None] * u1[None, :]
        psi = psi.reshape(hi - lo, dim // 2, 2)
        r_out = _bloch(np.einsum("src,srd->scd", psi, psi.conj()))
        fids[lo:hi] = 0.5 * (1.0 + np.sum(r_in[lo:hi] * (r_out @ correction.T), axis=1))
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
    if not assignment.is_eigenbasis():
        raise ValueError("GHZ assignments must use X/Y/Z eigenstate entries")
    n = assignment.n_sites
    non_z = [s for s in range(1, n + 1) if assignment.basis_at(s) != "Z"]
    bases = {assignment.basis_at(s) for s in non_z}
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
    return [
        mirror_state((p1 + 1j * (-1) ** l * p2) / math.sqrt(2.0), n)
        for l in (0, 1)
    ]


def ghz_compare(assignment: SiteAssignment, schedule: Optional[PulseSchedule] = None,
                n_steps: Optional[int] = None, allow_large: bool = False) -> GhzReport:
    """Predicted post-kick state vs exact evolution, with the phase index
    resolved numerically (the two-branch relative phase is +-i; which one
    depends on the input and is picked by overlap)."""
    n = assignment.n_sites
    if schedule is None:
        schedule = ideal_schedule(n, "JxJy")
    if schedule.n_sites != n:
        raise ValueError("schedule and assignment disagree on N")
    psi0 = product_state(assignment, allow_large)
    evolved = final_state(psi0, schedule, None, n_steps, allow_large)
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
    entries = [
        [format(i, f"0{n}b"), float(np.real(amp)), float(np.imag(amp))]
        for i, amp in enumerate(psi)
        if abs(amp) > threshold
    ]
    return json.dumps(entries)
