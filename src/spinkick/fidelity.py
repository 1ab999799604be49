"""Average transfer fidelity and parameter sweeps."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .exceptions import NumericalContractError, SpinkickError
from .flux import FluxResult, _format_table, max_alpha, propagate
from .pulses import DEFAULT_STEPS_PER_PI, FAMILIES, default_steps

_CLAMP_TOL = 1e-9


def average_fidelity(alpha_n: float) -> float:
    """Bose's average fidelity 1/2 + |a|/3 + |a|^2/6 of the transfer coefficient a."""
    a = abs(float(alpha_n))
    if a > 1.0 + _CLAMP_TOL:
        raise NumericalContractError(f"transfer coefficient {alpha_n} outside [-1, 1]")
    a = min(1.0, a)
    return 0.5 * (1.0 + a * (2.0 / 3.0 + a / 3.0))


def summary(result: FluxResult) -> dict:
    """Transfer summary for the canonical sender-end node (index N)."""
    t_star, value = max_alpha(result, result.n_sites)
    return {"max_alpha_N": value, "t_star": t_star, "fidelity": average_fidelity(value)}


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
        family = FAMILIES.get(self.schedule_family)
        if family is None:
            raise ValueError(f"unknown family {self.schedule_family!r}")
        params = family.params
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


def run_sweep(spec: SweepSpec) -> List[SweepRow]:
    """One row per swept value; schedule and numerical failures are recorded, not raised.

    Each row's parameters go to the family's factory, whole-number floats as
    ints (spec files write 5.0), so a value like 2.5 for an integer parameter
    is rejected there, not truncated.
    """
    factory = FAMILIES[spec.schedule_family].factory
    rows = []
    for value in spec.values:
        params = {k: int(v) if isinstance(v, float) and v.is_integer() else v
                  for k, v in {**spec.fixed, spec.swept_parameter: value}.items()}
        try:
            schedule = factory(**params)
            result = propagate(schedule, default_steps(schedule, spec.steps_per_pi))
            peak = summary(result)
            rows.append(SweepRow(
                param_value=float(value),
                max_alpha=peak["max_alpha_N"],
                t_star=peak["t_star"],
                fidelity_max=peak["fidelity"],
                fidelity_at_tau=average_fidelity(result.alphas[-1, schedule.n_sites - 1]),
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
    """CSV export of sweep rows, each value as '%.17g' prints it (failed rows read nan).

    This joins the pieces of _sweep_table; the CLI writes those pieces as they come.
    """
    return "".join(_sweep_table(rows))


def _sweep_table(rows: Sequence[SweepRow]) -> Iterator[str]:
    """The pieces of sweep_csv's text in order: its header, then one str per pass."""
    table = np.array([(r.param_value, r.max_alpha, r.t_star, r.fidelity_max, r.fidelity_at_tau)
                      for r in rows], dtype=float).reshape(-1, 5)
    return _format_table("param,max_alpha,t_star,fidelity_max,fidelity_at_tau\n", table)


def joint_read_time(result: FluxResult) -> Tuple[float, float, float]:
    """Grid time of the best joint read-out of both receiver seeds.

    Forms the joint average fidelity from the site-1 transfer block and
    returns (read_time, alpha_xx, alpha_yy) at its grid maximum.
    """
    a, b = result.transfer[:, 0, 0], result.transfer[:, 1, 1]
    i = int(np.argmax(joint_average_fidelity(a, b)))
    return float(result.times[i]), float(a[i]), float(b[i])


def transfer_read_time(schedule, n_steps: Optional[int] = None) -> Tuple[float, float, float]:
    """Best joint read-out time predicted by one propagation for both receiver seeds."""
    return joint_read_time(propagate(schedule, n_steps))
