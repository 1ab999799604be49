"""Coefficient propagation on the operator graph.

The receiver operator evolves in the Heisenberg picture, so time composes in
reverse: with per-stage maps M_k = exp(2*dt_k*K_k), the coefficient vector at
step k is the column (M_0 M_1 ... M_{k-1}) e_seed with the EARLIEST stage
leftmost.  The running matrix product keeps that order; a naive chronological
update alpha <- M_k alpha composes the stages backwards and is wrong whenever
the generators of different stages fail to commute.

pulses.window_stages sets the window rule: a boxcar window is one stage, its
exact average, and a sin^m window the two stages of the fourth-order CF4 rule,
the one weighted toward the earlier Gauss point leftmost.  The product steps
every stage and records the columns only at grid times, after a window's last
stage.

Stages with one channel on commute with each other when they share the
channel: each channel's generator is a matching, so a run of such stages is
one plane rotation per edge at the summed angle (rotate_run), and the running
product advances in place by one Givens rotation per matched column pair.
Only stages that mix channels take a dense exponential: a run of them is
cut into blocks of about _BLOCK_FLOATS floats of maps, each block's
generators are scattered as one (W, dim, dim) stack and exponentiated by one
expm_series call, and the product then advances stage by stage.

Both kinds of run seed X_N or Y_N (nodes 1 and N + 1) and step those two
columns, the ones whose site-1 entries are the transfer block.  Every step
acts on the product from the right, so it works on any block of its rows:
with R selecting rows, R Q_{k+1} = (R Q_k) M_k.  A run that keeps the whole
series advances the (dim, dim) product and records its seed's column; a
transfer-only run advances only R Q for the two site-1 rows, a (2, dim)
block, and keeps no (T, dim) table.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError, ResourceCapError
from .graph import Matching, chain
from .pulses import PulseSchedule, default_steps, step_grid, window_stages

if TYPE_CHECKING:
    from .oracle import SiteAssignment

_MAX_SCALE_DEPTH = 60
_MAX_NORM = 0.5 * 2.0 ** _MAX_SCALE_DEPTH
# floats propagate holds at once, its tables (times x (dim + 4) with the series, times x 4
# without) plus the running product, and with period reuse the period map and one period's
# two column stacks: 512 MiB, so N = 200 on its default grid (square delta 8 with the series:
# 160,001 x 404 + 400 x 400 + (400 + 4 x 800) x 400 = 66.24 M; sin^6 on its 200 steps per pi
# 80,001 x 404 + 400 x 400 + (400 + 4 x 200) x 400 = 32.96 M) still runs and anything larger
# is refused before allocation
MAX_TABLE_FLOATS = 2 ** 26
# floats of window maps one block of mixed windows holds (max(1, _BLOCK_FLOATS // dim**2)
# windows), and of each temporary of rotate_run's row chunks: 128 KiB
_BLOCK_FLOATS = 2 ** 14
# values per pass of _format_table: a pass's two dozen temporaries of this length stay in cache
_FORMAT_CHUNK = 2 ** 13
# k = floor(log10|x|) of a finite nonzero double, -324 to 308, one correction step either way
_K = range(-325, 310)
_SPLIT = 2.0 ** 27 + 1  # Veltkamp's constant: c = x*_SPLIT splits x into c - (c - x) and the rest
_TINY = np.finfo(float).tiny  # the smallest normal double: period tables are flushed below it
_THETA = np.array([(2.0 ** -53 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(18)])


def expm_series(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a (..., d, d) stack: Taylor series with binary step subdivision.

    A matrix is halved until its 1-norm theta is at most 0.5 (each halving
    is one subdivision of the time step, undone by squaring).  The Horner-form
    sum stops at the first degree m with theta^(m+1)/(m+1)! <= 2^-53 (_THETA).
    Every norm is checked before any map is computed; the matrices that share
    a (depth, degree) pair are then summed and squared together, in place.  A
    2-D input is a stack of one.
    """
    a = np.asarray(a, dtype=float)
    stack = a.reshape((-1,) + a.shape[-2:])
    norms = np.linalg.norm(stack, 1, axis=(-2, -1))
    bad = ~(norms <= _MAX_NORM)  # also an infinite or NaN norm
    if bad.any():
        _check_norm(norms[bad.argmax()])
    # math.log2 per norm: a vector log2 may round differently next to a power of two
    depths = np.array([math.ceil(math.log2(x / 0.5)) if x > 0.5 else 0 for x in norms.tolist()],
                      dtype=int)
    degrees = np.searchsorted(_THETA, np.ldexp(norms, -depths))
    dim = stack.shape[-1]
    out = np.empty(stack.shape)
    for depth, degree in sorted(set(zip(depths.tolist(), degrees.tolist()))):
        group = np.flatnonzero((depths == depth) & (degrees == degree))
        b = stack[group]
        b /= 2 ** depth
        x, y = np.zeros_like(b), np.empty_like(b)
        x_diag, y_diag = (m.reshape(len(group), -1)[:, ::dim + 1] for m in (x, y))
        x_diag += 1.0
        for l in range(degree, 0, -1):  # I + b/1 (I + b/2 (... (I + b/m)))
            np.matmul(b, x, out=y)
            y /= l
            y_diag += 1.0
            x, y, x_diag, y_diag = y, x, y_diag, x_diag
        for _ in range(depth):
            np.matmul(x, x, out=y)
            x, y = y, x
        out[group] = x
    return out.reshape(a.shape)


def rotate_run(product: np.ndarray, matching: Matching, angles: np.ndarray,
               cols: Sequence[int]) -> Tuple[np.ndarray, np.ndarray]:
    """A run of windows on one channel in closed form: (weights, basis); product advances in place.

    The channel's generator K is a matching, so the window maps exp(angle_k*K)
    commute and compose to one plane rotation per edge at the summed angle
    phi_j.  The product P is any (rows, dim) block of rows.  Columns `cols`
    of the product after window j are weights[j] @ basis, contracted over
    the first axis of the (3, rows, len(cols)) basis: P cos(phi_j) +
    P K sin(phi_j) on matched nodes, P on the others.  The product then
    becomes P exp(phi*K) at the run's whole angle: one Givens rotation of
    each matched column pair, taken in chunks of rows so that no temporary
    exceeds _BLOCK_FLOATS floats.  Every angle is checked against the
    expm_series bound before anything is computed.
    """
    bad = ~(np.abs(angles) <= _MAX_NORM)  # also an infinite or NaN angle
    if bad.any():
        _check_norm(abs(angles[bad.argmax()]))
    a, b, s = matching
    partner, sign = np.arange(product.shape[1]), np.zeros(product.shape[1])
    partner[a], partner[b] = b, a
    sign[a], sign[b] = -s, s  # column j of P @ K is sign[j] * P[:, partner[j]]
    phi = np.cumsum(angles)
    matched = sign[cols] != 0
    now = product[:, cols]
    basis = np.stack([now * ~matched, now * matched, product[:, partner[cols]] * sign[cols]])
    weights = np.column_stack([np.ones(len(phi)), np.cos(phi), np.sin(phi)])
    _, cos, sin = weights[-1]
    rows = max(1, _BLOCK_FLOATS // len(a))
    for lo in range(0, len(product), rows):
        block = product[lo:lo + rows]
        pa, pb = block[:, a], block[:, b]
        block[:, a] = pa * cos + pb * (sign[a] * sin)
        block[:, b] = pb * cos + pa * (sign[b] * sin)
    if np.signbit(sin):  # unmatched columns are P*1 + P*(0*sin): P, but -0.0 becomes +0.0
        product[:, sign == 0] += 0.0
    return weights, basis


def _check_norm(norm: float) -> None:
    if not norm <= _MAX_NORM:  # also an infinite or NaN norm
        raise NumericalContractError(f"step generator norm {norm:g} too large")


def _site1_rows(n_sites: int) -> list:
    """0-based indices of the site-1 X and Y nodes: nodes N and 2N, X first for odd N, Y for even N."""
    return [n_sites - 1, 2 * n_sites - 1] if n_sites % 2 else [2 * n_sites - 1, n_sites - 1]


@dataclass(frozen=True)
class FluxResult:
    """Time series of one seeded propagation: the coefficient vector, or only its site-1 block."""

    times: np.ndarray          # shape (T,)
    alphas: Optional[np.ndarray]  # shape (T, dim), row per stored time; None for a transfer-only run
    transfer: np.ndarray       # shape (T, 2, 2), site-1 X, Y rows of the X_N, Y_N columns
    seed: int                  # 1 for X_N, N + 1 for Y_N: the column alphas holds
    nodes: Tuple[str, ...]     # canonical node strings, site 1 first
    n_sites: int

    def alpha_series(self, node: int) -> np.ndarray:
        """Coefficient history of a 1-based node index.

        A transfer-only run keeps nodes N and 2N, the site-1 rows of its
        seed's column of transfer; any other node raises ValueError.
        """
        if self.alphas is None:
            site1, dim = _site1_rows(self.n_sites), 2 * self.n_sites
            if node - 1 not in site1:
                raise ValueError(f"node {node}: a transfer-only run keeps nodes {self.n_sites} and "
                                 f"{dim}, not the coefficient table")
            return self.transfer[:, site1.index(node - 1), int(self.seed != 1)]
        if not 1 <= node <= self.alphas.shape[1]:
            raise ValueError(f"node {node} outside 1..{self.alphas.shape[1]}")
        return self.alphas[:, node - 1]

    def norms(self) -> np.ndarray:
        """Row norms in blocks of about _BLOCK_FLOATS floats: each row is reduced on its own,
        so this is np.linalg.norm(alphas, axis=1) bit for bit, without its (T, dim) squares."""
        if self.alphas is None:
            raise ValueError("norms need the coefficient table, which a transfer-only run does not keep")
        out = np.empty(len(self.alphas))
        rows = max(1, _BLOCK_FLOATS // self.alphas.shape[1])
        for lo in range(0, len(out), rows):
            out[lo:lo + rows] = np.linalg.norm(self.alphas[lo:lo + rows], axis=1)
        return out


def propagate(schedule: PulseSchedule, n_steps: Optional[int] = None, seed: int = 1,
              series: bool = True) -> FluxResult:
    """Propagate the coefficient vectors of X_N and Y_N on chain(N); seed (1 or N + 1) picks one.

    Every run steps the two seed columns [0, N] and records their site-1
    rows as the (T, 2, 2) transfer block; a full run also records the
    seed's column as alphas.  With series=False the run is transfer-only: it
    advances R Q, the two site-1 rows of the product (a (2, dim) block), and
    leaves alphas None, so it allocates no (T, dim) table.  Every step is
    the same on either block, R Q_{k+1} = (R Q_k) M_k, so both kinds of run
    share one loop.  A seed other than 1 or N + 1 raises ValueError.

    Each window is stepped as its stages (pulses.window_stages), stage s of
    a window of width dt held for dt/S: a boxcar family's window is its exact
    average, so piecewise-constant schedules, whose every discontinuity is a
    window boundary, are integrated without time-stepping error, and a sin^m
    window the two stages of CF4, fourth order in dt.  The columns are
    recorded only after a window's last stage, at the grid times.

    The stages are stepped by runs.  A run is a maximal stretch of stages
    with the same single channel on (an all-zero stage counts as one with
    angle 0), or a maximal stretch of stages with two or more channels on,
    whose maps come from expm_series in blocks of max(1, _BLOCK_FLOATS //
    dim**2) stages, one call per block.  A channel's generator K_c is a
    matching, so its edges commute and the maps of a run with stage angles
    theta_k = 2*dt_k*amp_k compose to exp(phi*K_c), one plane rotation per
    edge at the summed angle phi.  With P the product (or its row block)
    before the run, the columns after stage j are P cos(phi_j) + P K_c
    sin(phi_j) on matched nodes and P on the others, those that end a window
    written straight into the output rows; the product then advances in
    place by one Givens update at the run's whole angle.

    Where the schedule's periodicity holds on the grid (see _period_windows),
    one period of windows is stepped from the identity, full columns on
    either kind of run: with Q_j the product of its first j maps and M = Q_n
    the period map, the column at window j of period p is P M^p Q_j e_seed,
    P being the product (or its row block) of the windows before the first
    period.  Entries of M and of the stacked columns Q_j[:, cols] (partial)
    below the smallest normal double are set to zero, keeping their sign:
    far outside the light cone they would otherwise be subnormal and slow
    every product of the loop.  Runs end at the head, period and tail
    boundaries.

    The step cap (step_grid) and the table cap are checked before the
    generator is built, so a refused run never builds the operator graph;
    chain(N) checks the label cap before its first label.
    The table cap counts what the run holds: its tables (times x (dim + 4)
    with the series, times x 4 without) and the running product (dim or 2
    rows of dim), and where the grid repeats a period (_period_grid) also
    the period map and one period's two column stacks, partial and
    product @ partial.
    """
    dim = 2 * schedule.n_sites  # the closure of X_N has 2N strings
    if seed not in (1, schedule.n_sites + 1):
        raise ValueError(f"seed {seed}: propagate seeds X_N or Y_N (1 or {schedule.n_sites + 1})")
    if n_steps is None:
        n_steps = default_steps(schedule)
    grid = step_grid(schedule, n_steps)
    _, n, count = period = _period_grid(schedule, grid)
    rows = dim if series else 2  # product rows
    held = len(grid) * (series * dim + 4) + rows * dim  # the tables and the running product
    what = f"{len(grid)} times x {dim} coefficients and" if series else f"{len(grid)} times x"
    what += f" 4 transfer entries, the {rows} x {dim} product"
    if count:  # the period map, partial and product @ partial
        held += dim * dim + n * (dim + rows) * 2
        what += f", the period map and the {n} x {dim} x 2 and {n} x {rows} x 2 column stacks"
    if held > MAX_TABLE_FLOATS:
        raise ResourceCapError(f"{what} exceed the cap of {MAX_TABLE_FLOATS} floats")
    k = chain(schedule.n_sites)
    site1 = _site1_rows(k.n_sites)
    cols = [0, k.n_sites]  # the X_N and Y_N seeds
    take = site1 if series else slice(None)  # their site-1 rows of the product
    per_block = max(1, _BLOCK_FLOATS // dim ** 2)  # maps per expm_series call
    transfer = np.zeros((len(grid), 2, 2))  # at t = 0 both seeds sit on site N
    # output targets: (2-D view, the part of a (..., rows, len(cols)) column stack its rows keep)
    history = [(transfer.reshape(-1, 4), lambda s: s[..., take, :].reshape(s.shape[:-2] + (4,)))]
    alphas = None
    if series:
        alphas = np.zeros((len(grid), dim))
        alphas[0, seed - 1] = 1.0
        history.insert(0, (alphas, lambda s: s[..., int(seed != 1)]))

    def put(out, at, columns):
        for view, keep in out:
            view[at] = keep(columns)

    def width(lo, hi):
        """The lengths of stages lo..hi-1: each of a window's stages lasts 1/stages of it."""
        w = slice(lo // stages, (hi - 1) // stages + 1)
        each = (grid[1:][w] - grid[:-1][w]) / stages
        return np.repeat(each, stages)[lo % stages:hi - lo + lo % stages]

    def step(product, lo, hi, out, shift):
        """product times the maps of stages lo..hi-1, by runs; window w's columns to row w+shift.

        Stage i is stage i % stages of window i // stages, so a window's columns are
        those after its last stage."""
        c = channel[lo:hi]
        starts = np.flatnonzero(c != np.r_[-2, c[:-1]]) + lo
        for i, j in zip(starts, np.r_[starts[1:], hi]):
            if channel[i] >= 0:
                angles = 2.0 * width(i, j) * amps[i:j, channel[i]]
                weights, basis = rotate_run(product, k.matchings[channel[i]], angles, cols)
                ends = weights[stages - 1 - i % stages::stages]  # the stages that end a window
                for view, keep in out:  # those windows' rows, with no stacked temporary
                    np.matmul(ends, keep(basis), out=view[i // stages + shift:j // stages + shift])
                continue
            for at in range(i, j, per_block):  # mixed stages: one expm_series call per block
                to = min(at + per_block, j)
                scale = 2.0 * width(at, to)  # into the amplitudes: signs are +-1
                maps = expm_series(k.combined(*(scale[:, None] * amps[at:to]).T))
                columns = np.empty((to // stages - at // stages, len(product), len(cols)))
                for w in range(at, to):
                    product = product @ maps[w - at]
                    if w % stages == stages - 1:
                        columns[w // stages - at // stages] = product[:, cols]
                put(out, slice(at // stages + shift, to // stages + shift), columns)
                del maps  # one block of maps at a time
        return product

    # window_stages rejects non-finite amplitudes, rotate_run and expm_series inf or NaN norms
    with np.errstate(over="ignore", invalid="ignore"):
        table = window_stages(schedule, grid)
        first, n, count = _period_windows(period, table)
        stages = table.shape[1]
        amps = table.reshape(-1, 3)  # one row per stage
        on = amps != 0.0
        channel = np.where(on.sum(axis=1) <= 1, on.argmax(axis=1), -1)  # the channel on, else -1
        # a transfer-only run starts from the two site-1 rows of the identity, not the whole of
        # it; the start goes in unnamed, so the first new product frees it
        product = step(np.eye(dim) if series else np.equal.outer(site1, np.arange(dim)) + 0.0,
                       0, first * stages, history, 1)
        if count:  # with no period reused, no period map: it would be an idle identity
            partial = np.empty((n, dim, len(cols)))  # Q_j[:, cols], never the (n, dim, dim) stack
            flat = dim * len(cols)
            period = [(partial.reshape(n, flat), lambda s: s.reshape(s.shape[:-2] + (flat,)))]
            period_map = step(np.eye(dim), first * stages, (first + n) * stages, period, -first)
            _flush_subnormals(partial)
            _flush_subnormals(period_map)
            for p in range(count):
                at = first + p * n + 1
                put(history, slice(at, at + n), product @ partial)
                product = product @ period_map
        step(product, (first + count * n) * stages, len(amps), history, 1)
    return FluxResult(times=grid, alphas=alphas, transfer=transfer, seed=seed,
                      nodes=k.nodes, n_sites=k.n_sites)


def _flush_subnormals(table: np.ndarray) -> None:
    """Entries of magnitude below the smallest normal double become zeros of their sign, in place."""
    np.multiply(table, 0.0, out=table, where=np.abs(table) < _TINY)


def _period_windows(period: Tuple[int, int, int], amps: np.ndarray) -> Tuple[int, int, int]:
    """(first, n, count): window first + p*n + j repeats window first + j for p < count.

    The schedule's declared periodicity is used only where it holds on this
    grid: period is _period_grid's (first, n, count), whose grid points repeat,
    and each period's amplitude rows (window_stages' (W, S, 3) table) must equal
    period 0's to within 1e-9*max|amp| (rounding in the sin^m antiderivative or
    its Gauss points lets later periods drift by about 1e-12).  Otherwise count
    is 0 and every window is stepped.
    """
    first, n, count = period
    if count:
        rows = amps[first:first + count * n].reshape(count, -1)
        if np.abs(rows - rows[0]).max() > 1e-9 * np.abs(amps).max():
            count = 0
    return (first, n, count) if count else (len(amps), 0, 0)


def _period_grid(schedule: PulseSchedule, grid: np.ndarray) -> Tuple[int, int, int]:
    """(first, n, count) of _period_windows from the grid alone, before any amplitude."""
    none = len(grid) - 1, 0, 0
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
    if np.abs(points - points[0]).max() > tol or abs(grid[end] - t0 - count * period) > tol:
        return none
    return int(first), int(n), count


def max_alpha(result: FluxResult, node: int) -> Tuple[float, float]:
    """Peak coefficient of a node: (t_star, signed value at the |alpha| max).

    The peak grid point is the first whose |alpha| is within 1e-12 (relative)
    of the grid maximum.  A flat top, where the next point is in that band
    too, and a peak on the first or last point read the grid point as it is.
    Any other peak is refined by concave parabolas fitted to the sample
    triplets around it.  One-sided triplets are included because pulse edges
    put derivative kinks in the series: a fit straddling the kink flattens
    the peak, while a fit on the smooth side recovers it.
    """
    series = result.alpha_series(node)
    magnitude = np.abs(series)
    top = magnitude >= (1.0 - 1e-12) * np.max(magnitude)
    i = int(np.argmax(top))
    t = result.times
    if i == 0 or i == len(series) - 1 or top[i + 1]:
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

    rest_state assigns sites 2..N in X/Y/Z eigenstates.  Only nodes N and 2N
    lead at site 1, and both carry Z on every later site, so each contributes
    its coefficient history weighted by the rest state's Z parity: the
    product of its signs, or 0 when any rest site is an X or Y eigenstate.
    """
    n = result.n_sites
    if rest_state.n_sites != n - 1:
        raise ValueError(f"rest_state must assign sites 2..{n} ({n - 1} entries)")
    parity = math.prod(sign if basis == "Z" else 0 for basis, sign in rest_state.entries)
    seed_op = "X" if result.seed == 1 else "Y"
    return {(seed_op, result.nodes[j][0]): parity * result.alpha_series(j + 1) for j in (n - 1, 2 * n - 1)}


def series_csv(result: FluxResult) -> str:
    """CSV export: t, alpha_1..alpha_dim, norm, each value as CPython's '%.17g' prints it.

    The text is byte for byte what '%.17g' gives value by value.  The 17
    digits of a finite nonzero x are the integer nearest |x|*10^(16-k), with
    k = floor(log10|x|) moved once if that product lands off [1e16, 1e17).
    The product is formed as an unevaluated double-double (_scaled) whose
    error is below 1e-14 units of the 17th digit, so the rounded integer is
    certain unless the product's fraction lies within 1e-12 of 1/2.  Such
    near-ties (true ties included), digits still off the decade after the
    one correction, and inf or NaN are printed by CPython's own '%.17g'.

    This joins the pieces of _series_table into one str; the CLI writes
    those pieces to its file as they come and never holds the whole text.
    """
    return "".join(_series_table(result))


def _series_table(result: FluxResult) -> Iterator[str]:
    """The pieces of series_csv's text in order: its header, then one str per pass."""
    norms = result.norms()  # a transfer-only run has no table to print
    dim = result.alphas.shape[1]
    header = "t," + ",".join(f"alpha_{j + 1}" for j in range(dim)) + ",norm\n"
    return _format_table(header, result.times, result.alphas, norms)


def _format_table(header: str, *columns: np.ndarray) -> Iterator[str]:
    """Yield header, then the columns side by side as CSV rows of '%.17g' values (see series_csv).

    Each column is a (rows,) or (rows, m) array.  A row whose values after
    the first are bitwise those of the row above (compared as uint64, so
    -0.0 and each NaN payload count as their own) reuses that row's text:
    only its first value is printed, and one str.replace appends the text
    after the previous line's first comma.  The values to print are
    formatted in passes of whole rows and about _FORMAT_CHUNK values counted
    over the whole table, one _format_values call each, and a pass is cut
    into one str per stretch of reused or changed rows.  Each str is yielded
    as soon as it is made, so a caller that writes the pieces as they come
    holds one pass's texts and the piece at hand; "".join of the pieces is
    the whole text.
    """
    rows = len(columns[0])
    width = sum(1 if c.ndim == 1 else c.shape[1] for c in columns)
    same = np.zeros(rows, bool)
    same[1:] = width > 1
    for j, c in enumerate(columns):
        bits = (c[:, None] if c.ndim == 1 else c)[:, int(j == 0):].view(np.uint64)
        same[1:] &= (bits[1:] == bits[:-1]).all(axis=1)
    done = np.zeros(rows + 1, np.intp)  # values printed before each row
    np.cumsum(np.where(same, 1, width), out=done[1:])
    passes = [0]
    while passes[-1] < rows:
        at = passes[-1]
        passes.append(max(at + 1, int(np.searchsorted(done, done[at] + _FORMAT_CHUNK, "right")) - 1))
    cuts = np.union1d(np.flatnonzero(same != np.r_[True, same[:-1]]), passes).tolist()  # and stretch starts
    piece, i = header, 0
    yield piece
    for hi in passes[1:]:
        j = cuts.index(hi, i)
        bounds, i = cuts[i:j + 1], j
        for a, text in zip(bounds, _pass_texts(columns, same, done, bounds)):
            if same[a]:  # append the text after the first comma of the line above
                line = piece[piece.rfind("\n", 0, -1) + 1:]
                text = text.replace("\n", line[line.index(","):])
            piece = text
            yield piece


def _pass_texts(columns: tuple, same: np.ndarray, done: np.ndarray, bounds: list) -> list:
    """The texts of one pass over rows bounds[0]..bounds[-1], one per stretch between bounds.

    A reused row's text is its first value and a newline; a changed row's is the whole row.
    """
    lo, hi = bounds[0], bounds[-1]
    first = columns[0] if columns[0].ndim == 1 else columns[0][:, 0]
    parts = [first[a:b] if same[a] else np.column_stack([c[a:b] for c in columns]).ravel()
             for a, b in zip(bounds, bounds[1:])]
    newline = np.zeros(done[hi] - done[lo], bool)
    newline[done[lo + 1:hi + 1] - done[lo] - 1] = True  # each row's last value
    record = _format_values(np.concatenate(parts) if len(parts) > 1 else parts[0], newline)
    return [record[done[a] - done[lo]:done[b] - done[lo]].tobytes().translate(None, b"\0").decode("ascii")
            for a, b in zip(bounds, bounds[1:])]


def _format_values(values: np.ndarray, newline: np.ndarray) -> np.ndarray:
    """(len(values), 10) uint32 records: '%.17g' of each value and ',' or, where newline is set, a newline.

    A record's bytes other than NUL are its text.  ±0.0 is '0' or '-0' and
    its separator; only the other values take the digit route (_records).
    """
    if np.count_nonzero(values) == len(values):
        return _records(values, newline)
    at = np.flatnonzero(values)
    rest = _records(values[at], newline[at])
    heads, tails = _format_tables()[4:]
    record = np.zeros((len(values), 10), np.uint32)
    record[:, 2] = ord("0")
    wide = record.view(np.uint64)
    wide[:, 0] = heads.take(np.signbit(values))
    wide[:, 4] = tails.take(newline)
    record[at] = rest
    return record


def _records(values: np.ndarray, newline: np.ndarray) -> np.ndarray:
    """_format_values' records from lookup tables.

    A record holds the sign with any '0.000' head (two words), six words of
    three digits (the last holds two and a dropped zero), each carrying the
    decimal point if it falls there, and the exponent with the separator
    (two words).  Unused bytes are NUL.  A fallback value's CPython text
    overwrites its record.
    """
    _, words, blocks, zeros, heads, tails = _format_tables()
    n, k, fallback = _digits(values)
    group = np.empty((6, len(n)), np.int16)  # digits 0-2, 3-5, ..., 15-16 and a zero
    top = n // 10 ** 8
    for at, part, unit in ((0, top, 1000), (3, n - 10 ** 8 * top, 100)):  # 9 and 8 digits
        mid = part // unit
        group[at + 2] = (part - unit * mid) * (1000 // unit)
        group[at] = mid // 1000
        group[at + 1] = mid - 1000 * group[at]
    # trailing zero digits of n, less the padding zero
    trailing, run = zeros.take(group[5]) - 1, group[5] == 0
    for j in range(4, -1, -1):
        trailing += run * zeros.take(group[j])
        run &= group[j] == 0
    fixed = (k >= -4) & (k < 17)  # %g's choice of notation
    last = np.where(fixed & (k > 0), k, 0)  # the last digit before the point
    point = np.where(fixed & (k < 0), 17, last)  # the digit the point follows; 17: in the head
    mode = 18 * point + np.maximum(17 - trailing, last + 1)  # and the first digit dropped
    record = np.empty((len(n), 10), np.uint32)
    for j in range(6):
        record[:, 2 + j] = words.take(group[j] + blocks[j].take(mode))
    wide = record.view(np.uint64)
    wide[:, 0] = heads.take(np.signbit(values) + 2 * np.where(fixed & (k < 0), -k, 0))
    wide[:, 4] = tails.take(2 * np.where(fixed, 0, k - _K.start + 1) + newline)
    raw = record.view(np.uint8)
    for i in np.flatnonzero(fallback).tolist():
        text = b"%.17g" % values[i]
        raw[i, :32] = 0
        raw[i, :len(text)] = np.frombuffer(text, np.uint8)
    return record


def _digits(values: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, k, fallback): |x| rounds to n*10^(k-16), n a 17-digit integer, unless x is in fallback.

    k = floor(log10|x|) is moved once where |x|*10^(16-k) (_scaled) lies
    off [1e16, 1e17) (_off_decade), and n is that product rounded to an
    integer, or 10^16 with k one up where it rounds to 10^17.  A value is in
    fallback where the product's fraction lies within 1e-12 of 1/2, where
    the product is still off the decade, and where it is inf or NaN.  Zero
    has n = 0 and k = 0, as have the fallback values.
    """
    scale = _format_tables()[0]
    a = np.abs(values)
    finite = np.isfinite(a)
    rounded = finite & (a > 0)
    a = np.where(rounded, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, k, scale)
    off = _off_decade(hi, lo)
    moved = np.flatnonzero(off)
    k[moved] += off[moved]
    hi[moved], lo[moved] = _scaled(a[moved], k[moved], scale)
    off[moved] = _off_decade(hi[moved], lo[moved])
    whole = np.floor(lo + 0.5)
    fallback = ~finite | (off != 0) | (np.abs(lo - whole) > 0.5 - 1e-12)
    n = hi.astype(np.int64) + whole.astype(np.int64)  # hi is a whole number above 2^53
    carry = n == 10 ** 17  # rounded up into the next decade: its first digits
    n[carry] = 10 ** 16
    k += carry
    n[~rounded | fallback] = 0
    k[~rounded | fallback] = 0
    return n, k, fallback


def _scaled(a: np.ndarray, k: np.ndarray, scale: tuple) -> Tuple[np.ndarray, np.ndarray]:
    """a*10^(16-k) as an unevaluated sum hi + lo, to within 1e-14 while it is below 2e17.

    With 10^(16-k) = 2^e (h + l) from the tables, b = a*2^e is exact, and
    Dekker's two-product (Numer. Math. 18, 224, 1971) splits b and h into
    26-bit halves, so that b*h is exactly hi plus the first part of lo.  The
    rest of the error is b*l (|l| <= 2^-53) rounded once and added once,
    below 2e-15 and 4e-15, and b times the part that h + l leaves out of
    10^(16-k)/2^e, below 3e-15.
    """
    exps, parts = scale
    i = k - _K.start
    h, l, hh, hl = parts.take(i, axis=1)
    b = np.ldexp(a, exps.take(i))
    c = b * _SPLIT
    bh = c - (c - b)
    bl = b - bh
    hi = b * h
    lo = ((bh * hh - hi) + bh * hl + bl * hh) + bl * hl + b * l
    return hi, lo


def _off_decade(hi: np.ndarray, lo: np.ndarray) -> np.ndarray:
    """-1, 0 or 1 as hi + lo lies below 1e16, within the decade or above 1e17, by a margin of 1e-12.

    The margin lies far above the error of hi + lo, and far below the 0.05
    by which a product just under 1e16 must fall short before its 17 digits
    one decade down differ from 1e16.  So a product taken into the decade
    from within the margin rounds to the right digits: 1e16 from below, and
    from either side of 1e17 the carry to 1e16 one decade up.
    """
    return ((hi - 1e17) + lo >= 1e-12).astype(np.intp) - ((hi - 1e16) + lo < -1e-12)


@functools.cache  # built on the first export, not at import
def _format_tables() -> tuple:
    """The lookup tables of _format_values.

    scale: for each k of _K, e and (h, l, Veltkamp's halves of h) with
    10^(16-k) = 2^e (h + l), h in [1, 2] correctly rounded and l the correctly
    rounded rest, both from exact integers.
    words: a 3-digit group's 4 bytes, indexed by (digits dropped from its
    end, byte of its point or 0, group).
    blocks: per group, the offset of its words for each mode, that is
    18 * (the digit the point follows) + (the first digit dropped).
    zeros: trailing zero digits of each group (000 has 3).
    heads and tails: the sign with any '0.000', and the exponent with the separator.
    """
    exps, parts = [], []
    for k in _K:
        p = 16 - k
        num, den = (10 ** p, 1) if p >= 0 else (1, 10 ** -p)
        e = num.bit_length() - den.bit_length()
        num, den = (num, den << e) if e >= 0 else (num << -e, den)
        if num < den:
            e, num = e - 1, num << 1  # num / den = 10^p / 2^e in [1, 2)
        h = num / den  # an int quotient is correctly rounded
        parts.append((h, (num * 2 ** 52 - int(h * 2 ** 52) * den) / (den * 2 ** 52)))
        exps.append(e)
    h, l = np.array(parts).T
    c = h * _SPLIT
    hh = c - (c - h)
    scale = np.array(exps, dtype=np.intc), np.array([h, l, hh, h - hh])
    text = np.frombuffer(b"".join(b"%03d" % g for g in range(1000)), np.uint8).reshape(1000, 3)
    words = np.zeros((4, 4, 1000, 4), np.uint8)
    for dropped in range(4):
        kept = text.copy()
        kept[:, 3 - dropped:] = 0
        for at in range(4):
            words[dropped, at][:, [b for b in range(4) if b != at]] = kept
            if at:
                words[dropped, at][:, at] = ord(".")
    j, point, drop = np.ogrid[:6, :18, :18]
    at = point + 1 - 3 * j  # byte of group j's word that the point takes
    shown = (point < 17) & (drop > point + 1) & (at >= 1) & (at <= 3)  # a digit follows it
    dropped = np.clip(3 * j + 3 - drop, 0, 3)
    blocks = ((dropped * 4 + np.where(shown, at, 0)) * 1000).reshape(6, -1)
    zeros = np.logical_and.accumulate(text[:, ::-1] == ord("0"), axis=1).sum(axis=1)
    heads = [sign + (b"0." + b"0" * (x - 1) if x else b"") for x in range(5) for sign in (b"", b"-")]
    tails = [x + sep for x in [b""] + [b"e%+03d" % k for k in _K] for sep in (b",", b"\n")]
    return scale, words.view(np.uint32).ravel(), blocks, zeros, _packed(heads, 8), _packed(tails, 8)


def _packed(texts, width: int) -> np.ndarray:
    """Byte strings NUL-padded to width bytes each, one unsigned integer per string."""
    return np.frombuffer(b"".join(t.ljust(width, b"\0") for t in texts), f"u{width}")
