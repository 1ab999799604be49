"""Average transfer fidelity and parameter sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError, SpinkickError
from .flux import FluxResult, max_alpha, propagate
from .graph import chain
from .pulses import (DEFAULT_STEPS_PER_PI, default_steps, ideal_schedule,
                     sin_power_schedule, square_schedule)

# required schedule parameters of each family; each is fixed or swept
FAMILY_PARAMS = {
    "sin_power": ("n_sites", "m"),
    "square_delta": ("n_sites", "delta"),
    "ideal_kicks": ("n_sites",),
}

_CLAMP_TOL = 1e-9


def average_fidelity(alpha_n: float) -> float:
    """Bose's average fidelity 1/2 + |a|/3 + |a|^2/6 of the transfer coefficient a."""
    a = abs(float(alpha_n))
    if a > 1.0 + _CLAMP_TOL:
        raise NumericalContractError(f"transfer coefficient {alpha_n} outside [-1, 1]")
    a = min(1.0, a)
    return 0.5 * (1.0 + a * (2.0 / 3.0 + a / 3.0))


def joint_average_fidelity(a, b):
    """Average fidelity (1 + (|a| + |b| + |ab|)/3)/2 of the X and Y coefficients a, b.

    The receiver Bloch map is diag(a, b, ab); a local receiver rotation removes
    its signs, hence the magnitudes.  With b = a this reduces to
    average_fidelity(a).  Accepts scalars or numpy arrays.
    """
    a = np.abs(np.asarray(a, dtype=float))
    b = np.abs(np.asarray(b, dtype=float))
    return 0.5 * (1.0 + (a + b + a * b) / 3.0)


@dataclass(frozen=True)
class SweepSpec:
    """One-parameter sweep over a schedule family."""

    schedule_family: str
    swept_parameter: str
    values: Tuple
    fixed: Dict = field(default_factory=dict)
    steps_per_pi: int = DEFAULT_STEPS_PER_PI

    def __post_init__(self):
        params = FAMILY_PARAMS.get(self.schedule_family)
        if params is None:
            raise ValueError(f"unknown family {self.schedule_family!r}")
        if self.swept_parameter not in params:
            raise ValueError(f"unknown swept parameter {self.swept_parameter!r} "
                             f"for family {self.schedule_family}")
        missing = [p for p in params if p != self.swept_parameter and p not in self.fixed]
        if missing:
            raise ValueError(f"{self.schedule_family} sweep needs fixed {', '.join(missing)}")
        if len(self.values) == 0:
            raise ValueError("sweep needs at least one value")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ValueError("sweep values must be strictly increasing")
        if self.steps_per_pi < 1:
            raise ValueError("steps_per_pi must be >= 1")


@dataclass(frozen=True)
class SweepRow:
    param_value: float
    max_alpha: float
    t_star: float
    fidelity_max: float
    fidelity_at_tau: float
    error: Optional[Exception] = None  # what stopped the row, traceback dropped


def _build_schedule(family: str, params: Dict):
    if family == "sin_power":
        return sin_power_schedule(int(params["n_sites"]), int(params["m"]))
    if family == "square_delta":
        return square_schedule(int(params["n_sites"]), float(params["delta"]))
    return ideal_schedule(int(params["n_sites"]),
                          params.get("scheme", "JxJy"),
                          float(params.get("kick_duration", 1.0)))


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """One row per swept value; schedule and numerical failures are recorded, not raised."""
    rows = []
    for value in spec.values:
        params = dict(spec.fixed)
        params[spec.swept_parameter] = value
        try:
            schedule = _build_schedule(spec.schedule_family, params)
            n = schedule.n_sites
            result = propagate(chain(n), schedule, default_steps(schedule, spec.steps_per_pi))
            t_star, alpha = max_alpha(result, n)
            rows.append(SweepRow(
                param_value=float(value),
                max_alpha=alpha,
                t_star=t_star,
                fidelity_max=average_fidelity(alpha),
                fidelity_at_tau=average_fidelity(result.alphas[-1, n - 1]),
            ))
        except (SpinkickError, ValueError) as exc:  # keep sweeping, report the row as failed
            rows.append(SweepRow(
                param_value=float(value),
                max_alpha=math.nan, t_star=math.nan,
                fidelity_max=math.nan, fidelity_at_tau=math.nan,
                error=exc.with_traceback(None),
            ))
    return rows


def sweep_csv(rows: Sequence[SweepRow]) -> str:
    lines = ["param,max_alpha,t_star,fidelity_max,fidelity_at_tau"]
    for r in rows:
        lines.append(",".join(format(v, ".17g") for v in (
            r.param_value, r.max_alpha, r.t_star, r.fidelity_max, r.fidelity_at_tau)))
    return "\n".join(lines) + "\n"


def joint_read_time(result_x: FluxResult, result_y: FluxResult) -> Tuple[float, float, float]:
    """Grid time of the best joint read-out from the X- and Y-seeded propagations.

    Forms the joint average fidelity from the two site-1 transfer channels and
    returns (read_time, alpha_xx, alpha_yy) at its grid maximum.
    """
    x_node = next(i + 1 for i, p in enumerate(result_x.nodes) if p.op_at(1) == "X")
    y_node = next(i + 1 for i, p in enumerate(result_y.nodes) if p.op_at(1) == "Y")
    a = result_x.alpha_series(x_node)
    b = result_y.alpha_series(y_node)
    i = int(np.argmax(joint_average_fidelity(a, b)))
    return float(result_x.times[i]), float(a[i]), float(b[i])


def transfer_read_time(schedule, n_steps: Optional[int] = None) -> Tuple[float, float, float]:
    """Best joint read-out time predicted by propagating both receiver operators."""
    n = schedule.n_sites
    k = chain(n)
    return joint_read_time(propagate(k, schedule, n_steps),
                           propagate(k, schedule, n_steps, seed=n + 1))
