"""Kicked-coupling spin chain transfer toolkit.

Simulates end-to-end state transfer in an open XY chain driven by temporally
kicked couplings.  The working representation is the 2N-node operator graph
obtained by commutator closure of the receiver operator; an exact 2^N
state-vector simulator cross-checks every prediction.
"""

__version__ = "0.1.0"

from .exceptions import NumericalContractError, ResourceCapError, SpinkickError
from .graph import GeneratorMatrix, OperatorGraph, build_graph, chain, export_dot, graph_json
from .pulses import IdealKickSchedule, KickSlot, PulseSchedule, SinPowerSchedule, \
    SquareDeltaSchedule, calibrate_amplitude, default_steps, ideal_schedule, \
    schedule_from_json, sin_power_schedule, square_schedule, step_grid, window_amplitudes, \
    window_stages
from .flux import FluxResult, information_flux, max_alpha, propagate, series_csv
from .fidelity import SweepRow, SweepSpec, average_fidelity, joint_average_fidelity, \
    joint_read_time, run_sweep, summary, sweep_csv, transfer_read_time
from .oracle import GhzReport, SiteAssignment, dump_state_json, evolve_state, final_state, \
    ghz_compare, heisenberg_expectation, mirror_state, monte_carlo_average_fidelity, \
    product_state, receiver_density

__all__ = [
    "__version__",
    "SpinkickError", "NumericalContractError", "ResourceCapError",
    "SiteAssignment",
    "OperatorGraph", "GeneratorMatrix", "build_graph", "chain",
    "export_dot", "graph_json",
    "PulseSchedule", "KickSlot", "IdealKickSchedule", "SinPowerSchedule",
    "SquareDeltaSchedule", "ideal_schedule", "calibrate_amplitude",
    "sin_power_schedule", "square_schedule", "schedule_from_json", "step_grid",
    "FluxResult", "propagate", "max_alpha", "information_flux", "default_steps",
    "window_amplitudes", "window_stages", "series_csv", "summary",
    "SweepSpec", "SweepRow", "average_fidelity", "joint_average_fidelity", "transfer_read_time",
    "joint_read_time", "run_sweep", "sweep_csv",
    "evolve_state", "final_state", "heisenberg_expectation",
    "product_state", "receiver_density", "monte_carlo_average_fidelity",
    "mirror_state", "GhzReport", "ghz_compare", "dump_state_json",
]
