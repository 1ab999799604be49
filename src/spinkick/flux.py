"""Coefficient propagation on the operator graph.

The receiver operator evolves in the Heisenberg picture, so time composes in
reverse: with per-window maps M_k = exp(2*dt_k*K_k), the coefficient vector at
step k is the column (M_0 M_1 ... M_{k-1}) e_seed with the EARLIEST window
leftmost.  The running matrix product keeps that order; a naive chronological
update alpha <- M_k alpha composes the windows backwards and is wrong whenever
the generators of different windows fail to commute.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .exceptions import NumericalContractError, ResourceCapError
from .graph import GeneratorMatrix, chain
from .pauli import SiteAssignment, string_expectation
from .pulses import PulseSchedule, default_steps, step_grid, window_amplitudes

_MAX_SCALE_DEPTH = 60
_MAX_NORM = 0.5 * 2.0 ** _MAX_SCALE_DEPTH
# floats in the (times, dim) coefficient table: 512 MiB, so N = 200 on its default grid
# (160,001 x 400 = 64.0 M) still runs and a larger table is refused before allocation
MAX_TABLE_FLOATS = 2 ** 26
_THETA = np.array([(2.0 ** -53 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(18)])


def expm_series(a: np.ndarray) -> np.ndarray:
    """exp(a) by truncated Taylor series with binary step subdivision.

    The matrix is halved until its 1-norm theta is at most 0.5 (each halving
    is one subdivision of the time step, undone by squaring).  The Horner-form
    sum stops at the first degree m with theta^(m+1)/(m+1)! <= 2^-53 (_THETA).
    """
    norm = np.linalg.norm(a, 1)
    _check_norm(norm)
    depth = 0
    if norm > 0.5:
        depth = int(math.ceil(math.log2(norm / 0.5)))
    b = a / 2 ** depth
    degree = int(np.searchsorted(_THETA, norm / 2 ** depth))
    dim = a.shape[0]
    out = np.eye(dim)
    for l in range(degree, 0, -1):  # I + b/1 (I + b/2 (... (I + b/m)))
        out = b @ out / l
        out.flat[::dim + 1] += 1.0
    for _ in range(depth):
        out = out @ out
    return out


def rotation_map(k: GeneratorMatrix, channel: int, angle: float) -> np.ndarray:
    """exp(angle * K_ch) in closed form for channel 0, 1 or 2 (Jx, Jy, B).

    K_ch is a matching, so the exponential is the identity with the rotation
    [[cos, s*sin], [-s*sin, cos]] on the nodes (a, b) of each edge of sign s.
    Its 1-norm |angle| meets the bound of expm_series.
    """
    _check_norm(abs(angle))
    a, b, sign = k.matchings[channel]
    out = np.eye(k.dim)
    out[a, a] = out[b, b] = math.cos(angle)
    out[a, b] = sign * math.sin(angle)
    out[b, a] = -out[a, b]
    return out


def _check_norm(norm: float) -> None:
    if not norm <= _MAX_NORM:  # also an infinite or NaN norm
        raise NumericalContractError(f"step generator norm {norm:g} too large")


@dataclass(frozen=True)
class FluxResult:
    """Time series of the coefficient vector for one seeded propagation."""

    times: np.ndarray          # shape (T,)
    alphas: np.ndarray         # shape (T, dim), row per stored time
    transfer: np.ndarray       # shape (T, 2, 2), site-1 X, Y rows of the X_N, Y_N columns
    seed: int                  # 1-based canonical node index
    nodes: Tuple               # canonical PauliString labels
    n_sites: int

    def alpha_series(self, node: int) -> np.ndarray:
        """Coefficient history of a 1-based node index."""
        if not 1 <= node <= self.alphas.shape[1]:
            raise ValueError(f"node {node} outside 1..{self.alphas.shape[1]}")
        return self.alphas[:, node - 1]

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.alphas, axis=1)


def propagate(schedule: PulseSchedule, n_steps: Optional[int] = None, seed: int = 1) -> FluxResult:
    """Propagate the coefficient vector of canonical node `seed` (1-based) on chain(N).

    Channel amplitudes are averaged exactly over each window and every
    schedule discontinuity is a window boundary, so piecewise-constant
    schedules are integrated without time-stepping error.  A window with at
    most one channel on takes its map from rotation_map, any other window
    from expm_series.

    Where the schedule's periodicity holds on the grid (see _period_windows),
    one period of window maps is exponentiated: with Q_j the product of its
    first j maps and M = Q_n the period map, the column at window j of period
    p is P M^p Q_j e_seed, P being the product of the windows before the
    first period.  Windows before and after the periods are stepped one by one.

    The step cap (step_grid) and the table cap are checked before the
    generator is built, so a refused run never builds the operator graph.
    """
    dim = 2 * schedule.n_sites  # the closure of X_N has 2N strings
    if not 1 <= seed <= dim:
        raise ValueError(f"seed {seed} outside 1..{dim}")
    if n_steps is None:
        n_steps = default_steps(schedule)
    grid = step_grid(schedule, n_steps)
    if len(grid) * dim > MAX_TABLE_FLOATS:
        raise ResourceCapError(f"{len(grid)} times x {dim} coefficients exceed the cap of "
                               f"{MAX_TABLE_FLOATS} floats in the coefficient table")
    k = chain(schedule.n_sites)
    # site-1 rows found by operator: their canonical indices swap with the parity of N
    rows = [next(i for i, p in enumerate(k.nodes) if p.op_at(1) == op) for op in "XY"]
    cols = [seed - 1, 0, k.n_sites]  # the seed's column, then the X_N and Y_N seeds
    alphas = np.zeros((len(grid), dim))
    alphas[0, seed - 1] = 1.0
    transfer = np.zeros((len(grid), 2, 2))  # at t = 0 both seeds sit on site N

    def window_map(i):
        scale = 2.0 * (grid[i + 1] - grid[i])
        if channel[i] < 0:
            return expm_series(scale * k.combined(*amps[i]))
        return rotation_map(k, channel[i], scale * amps[i, channel[i]])

    def record(at, columns):  # product[:, cols] at time index `at`, or a stack for a slice
        alphas[at] = columns[..., 0]
        transfer[at] = columns[..., rows, 1:]

    def walk(product, windows):
        for i in windows:
            product = product @ window_map(i)
            record(i + 1, product[:, cols])
        return product

    # window_amplitudes rejects a non-finite amplitude, both maps an inf or NaN norm
    with np.errstate(over="ignore", invalid="ignore"):
        amps = window_amplitudes(schedule, grid)
        on = amps != 0.0
        channel = np.where(on.sum(axis=1) <= 1, on.argmax(axis=1), -1)  # the one channel on, else -1
        first, n, count = _period_windows(schedule, grid, amps)
        product = walk(np.eye(dim), range(first))
        period_map = np.eye(dim)
        partial = np.empty((n, dim, len(cols)))  # Q_j[:, cols], never the (n, dim, dim) stack
        for j in range(n):
            period_map = period_map @ window_map(first + j)
            partial[j] = period_map[:, cols]
        for p in range(count):
            at = first + p * n + 1
            record(slice(at, at + n), product @ partial)
            product = product @ period_map
        walk(product, range(first + count * n, len(amps)))
    return FluxResult(times=grid, alphas=alphas, transfer=transfer, seed=seed,
                      nodes=k.nodes, n_sites=k.n_sites)


def _period_windows(schedule: PulseSchedule, grid: np.ndarray, amps: np.ndarray) -> Tuple[int, int, int]:
    """(first, n, count): window first + p*n + j repeats window first + j for p < count.

    The schedule's declared periodicity is used only where it holds on this
    grid: each period's points equal period 0's shifted by p*period to within
    the grid's own 1e-12*T, and its amplitude rows equal period 0's to within
    1e-9*max|amp| (cancellation in the sin^m antiderivative lets later periods
    drift by about 1e-12).  Otherwise count is 0 and every window is stepped.
    """
    none = len(amps), 0, 0
    structure = schedule.periodicity()
    if structure is None:
        return none
    t0, period, count = structure
    tol = 1e-12 * schedule.total_time
    first, last = np.searchsorted(grid, [t0 - tol, t0 + period - tol])
    n = last - first
    end = first + count * n
    if min(n, count) < 1 or end >= len(grid) or abs(grid[first] - t0) > tol:
        return none
    points = grid[first:end].reshape(count, n) - period * np.arange(count)[:, None]
    rows = amps[first:end].reshape(count, n, 3)
    if (np.abs(points - points[0]).max() > tol or abs(grid[end] - t0 - count * period) > tol
            or np.abs(rows - rows[0]).max() > 1e-9 * np.abs(amps).max()):
        return none
    return first, n, count


def max_alpha(result: FluxResult, node: int) -> Tuple[float, float]:
    """Peak coefficient of a node: (t_star, signed value at the |alpha| max).

    The grid maximum of |alpha| is refined by concave parabolas fitted to the
    sample triplets around it.  One-sided triplets are included because pulse
    edges put derivative kinks in the series: a fit straddling the kink
    flattens the peak, while a fit on the smooth side recovers it.  Degenerate
    (flat or boundary) peaks fall back to the grid point.
    """
    series = result.alpha_series(node)
    magnitude = np.abs(series)
    i = int(np.argmax(magnitude))
    t = result.times
    if i == 0 or i == len(series) - 1:
        return float(t[i]), float(series[i])
    sign = 1.0 if series[i] >= 0 else -1.0
    best_t, best_v = float(t[i]), float(magnitude[i])
    for lo in (i - 2, i - 1, i):
        hi = lo + 2
        if lo < 0 or hi >= len(series):
            continue
        ts = t[lo:hi + 1] - t[i]
        if np.min(np.diff(ts)) < 1e-9:
            continue
        ys = sign * series[lo:hi + 1]
        coeff = np.polyfit(ts, ys, 2)
        if coeff[0] >= -1e-300:
            continue
        vertex = min(max(-coeff[1] / (2.0 * coeff[0]), ts[0]), ts[2])
        # The coefficient vector keeps unit norm (antisymmetric generator), so
        # any single coefficient is bounded by 1; near-plateau fits overshoot.
        value = min(float(np.polyval(coeff, vertex)), 1.0)
        if value > best_v:
            best_t, best_v = float(t[i] + vertex), value
    return best_t, float(sign * best_v)


def information_flux(result: FluxResult, rest_state: SiteAssignment) -> Dict[Tuple[str, str], np.ndarray]:
    """Flux coefficients I^{OO'}(t) linking receiver operator O to sender O'.

    rest_state assigns sites 2..N.  Each node with a leading operator on
    site 1 contributes its coefficient history weighted by the expectation of
    its site-2..N Z tail in the rest state.
    """
    n = result.n_sites
    if rest_state.n_sites != n - 1:
        raise ValueError(f"rest_state must assign sites 2..{n} ({n - 1} entries)")
    seed_node = result.nodes[result.seed - 1]
    seed_op = next(op for op in seed_node.labels if op != "I")
    flux: Dict[Tuple[str, str], np.ndarray] = {}
    for j, node in enumerate(result.nodes):
        lead = node.op_at(1)
        if lead == "I":
            continue
        # site 1 in the +1 eigenstate of its own operator leaves the tail's weight
        weight = string_expectation(node, SiteAssignment([(lead, 1)] + rest_state.entries))
        flux[(seed_op, lead)] = weight * result.alphas[:, j]
    return flux


def series_csv(result: FluxResult) -> str:
    """CSV export: t, alpha_1..alpha_dim, norm."""
    dim = result.alphas.shape[1]
    header = "t," + ",".join(f"alpha_{j + 1}" for j in range(dim)) + ",norm\n"
    row = ",".join(["%.17g"] * (dim + 2)) + "\n"
    norms = result.norms()
    return header + "".join(row % (t, *alphas.tolist(), norm) for t, alphas, norm in
                            zip(result.times, result.alphas, norms))
