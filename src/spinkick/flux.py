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

from .exceptions import NumericalContractError
from .graph import GeneratorMatrix
from .pauli import SiteAssignment, string_expectation
from .pulses import PulseSchedule, default_steps, step_grid, window_amplitudes

_MAX_SCALE_DEPTH = 60
_THETA = np.array([(2.0 ** -53 * math.factorial(m + 1)) ** (1.0 / (m + 1)) for m in range(18)])


def expm_series(a: np.ndarray) -> np.ndarray:
    """exp(a) by truncated Taylor series with binary step subdivision.

    The matrix is halved until its 1-norm theta is at most 0.5 (each halving
    is one subdivision of the time step, undone by squaring).  The Horner-form
    sum stops at the first degree m with theta^(m+1)/(m+1)! <= 2^-53 (_THETA).
    """
    norm = np.linalg.norm(a, 1)
    if not norm <= 0.5 * 2.0 ** _MAX_SCALE_DEPTH:  # also an infinite or NaN norm
        raise NumericalContractError(f"step generator norm {norm:g} too large")
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


def propagate(k: GeneratorMatrix, schedule: PulseSchedule,
              n_steps: Optional[int] = None, seed: int = 1) -> FluxResult:
    """Propagate the coefficient vector of canonical node `seed` (1-based).

    Channel amplitudes are averaged exactly over each window and every
    schedule discontinuity is a window boundary, so piecewise-constant
    schedules are integrated without time-stepping error.
    """
    if k.n_sites != schedule.n_sites:
        raise ValueError(
            f"generator is for N={k.n_sites}, schedule for N={schedule.n_sites}")
    dim = k.dim
    if not 1 <= seed <= dim:
        raise ValueError(f"seed {seed} outside 1..{dim}")
    if n_steps is None:
        n_steps = default_steps(schedule)
    grid = step_grid(schedule, n_steps)
    # site-1 rows found by operator: their canonical indices swap with the parity of N
    rows = [next(i for i, p in enumerate(k.nodes) if p.op_at(1) == op) for op in "XY"]
    block = np.ix_(rows, [0, k.n_sites])
    alphas = np.zeros((len(grid), dim))
    alphas[0, seed - 1] = 1.0
    transfer = np.zeros((len(grid), 2, 2))  # at t = 0 both seeds sit on site N
    product = np.eye(dim)
    with np.errstate(over="ignore", invalid="ignore"):  # expm_series rejects an inf or NaN norm
        for i, (jx, jy, b) in enumerate(window_amplitudes(schedule, grid)):
            generator = 2.0 * (grid[i + 1] - grid[i]) * k.combined(jx, jy, b)
            product = product @ expm_series(generator)
            alphas[i + 1] = product[:, seed - 1]
            transfer[i + 1] = product[block]
    return FluxResult(times=grid, alphas=alphas, transfer=transfer, seed=seed,
                      nodes=k.nodes, n_sites=k.n_sites)


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


def summary(result: FluxResult) -> dict:
    """Transfer summary for the canonical sender-end node (index N)."""
    from .fidelity import average_fidelity

    t_star, value = max_alpha(result, result.n_sites)
    return {
        "max_alpha_N": value,
        "t_star": t_star,
        "fidelity": average_fidelity(value),
    }
