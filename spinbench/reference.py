"""Independent reference values for the benchmark's output checks.

Solves the chain's Jordan-Wigner (Majorana) equations at high accuracy from
the schedule's pointwise amplitudes, without spinkick's coefficient engine or
operator graph.  With the strings running towards the receiver,

    a_j = X_j Z_{j+1} ... Z_N,    b_j = Y_j Z_{j+1} ... Z_N,

the chain terms are X_j X_{j+1} = i a_j b_{j+1}, Y_j Y_{j+1} = -i b_j a_{j+1}
and Z_j = -i a_j b_j, so H(t) = i sum_{p<q} M_pq(t) c_p c_q with a real M.
A Heisenberg-evolved Majorana is c_l(t) = sum_p W_lp(t) c_p with
dW/dt = 2 A(t) W, A = M - M^T.  The transfer amplitude from the sender
string s to the receiver Majorana r is W_rs(t), so one column ODE per sender
string gives every receiver entry at once.  The mapping is verified against a
dense 2^N Hamiltonian before anything is written.

Run from the repository root to regenerate the stored values:

    PYTHONPATH=src python3 spinbench/reference.py

It writes spinbench/reference.json.
"""
from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import minimize_scalar

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import reference_schedules  # noqa: E402
from spinkick import pulses  # noqa: E402  (schedules only: no flux, no graph)

RTOL = 1e-12
ATOL = 1e-14
SCAN_STEP = 1e-3
WINDOW_HALF = 0.25    # read-time window stored on each side of the joint optimum
WINDOW_STEP = 1.0 / 256


def majorana_generator(n: int, jx: float, jy: float, b: float) -> np.ndarray:
    """A = M - M^T for H = i sum_{p<q} M_pq c_p c_q, order (a_1, b_1, a_2, b_2, ...)."""
    m = np.zeros((2 * n, 2 * n))
    for j in range(n - 1):
        m[2 * j, 2 * j + 3] += jx       # a_j b_{j+1}
        m[2 * j + 1, 2 * j + 2] -= jy   # b_j a_{j+1}
    for j in range(n):
        m[2 * j, 2 * j + 1] -= b        # a_j b_j
    return m - m.T


def _dense_selfcheck(n: int = 4) -> float:
    """Max difference between W_rs and Tr(O_r(t) S_s)/2^n from a dense 2^n evolution."""
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]])
    z = np.diag([1.0 + 0j, -1.0])
    one = np.eye(2, dtype=complex)

    def site_op(ops):
        out = np.array([[1.0 + 0j]])
        for o in ops:
            out = np.kron(out, o)
        return out

    def majorana(j, op):
        return site_op([one] * j + [op] + [z] * (n - 1 - j))

    windows = [(0.7, 0.3, -0.2, 0.9), (0.4, 0.0, 1.1, 0.35), (-0.5, 0.8, 0.6, 1.3)]
    u = np.eye(1 << n, dtype=complex)
    w = np.eye(2 * n)
    for jx, jy, b, dt in windows:
        h = sum(jx * site_op([one] * j + [x, x] + [one] * (n - 2 - j))
                + jy * site_op([one] * j + [y, y] + [one] * (n - 2 - j)) for j in range(n - 1))
        h = h + sum(b * site_op([one] * j + [z] + [one] * (n - 1 - j)) for j in range(n))
        u = expm(-1j * dt * h) @ u
        w = expm(2.0 * dt * majorana_generator(n, jx, jy, b)) @ w
    majoranas = [majorana(j, op) for j in range(n) for op in (x, y)]
    worst = 0.0
    for r, c_r in enumerate(majoranas):
        evolved = u.conj().T @ c_r @ u
        for s, c_s in enumerate(majoranas):
            coeff = np.trace(evolved @ c_s).real / (1 << n)
            worst = max(worst, abs(coeff - w[r, s]))
    return worst


class ChainSolution:
    """Columns W e_{a_1} and W e_{b_1} over [0, T], solved piecewise between jumps."""

    def __init__(self, schedule):
        self.schedule = schedule
        self.n = n = schedule.n_sites
        self.total_time = schedule.total_time
        cuts = [d for d in schedule.discontinuities() if 0.0 < d < self.total_time]
        self.edges = [0.0] + sorted(cuts) + [self.total_time]
        u = np.zeros(4 * n)
        u[0] = 1.0            # column for sender string a_1
        u[2 * n + 1] = 1.0    # column for sender string b_1
        self.pieces = []
        for t0, t1 in zip(self.edges, self.edges[1:]):
            # evaluate amplitudes inside the open segment so jumps never leak in
            sol = solve_ivp(self._rhs, (t0, t1), u, method="DOP853", rtol=RTOL, atol=ATOL,
                            dense_output=True, args=(t0, t1))
            if not sol.success:
                raise RuntimeError(sol.message)
            self.pieces.append((t0, t1, sol.sol))
            u = sol.y[:, -1]

    def _rhs(self, t, u, t0, t1):
        tt = min(max(t, t0 + 1e-15 * (1 + abs(t0))), t1 - 1e-15 * (1 + abs(t1)))
        jx, jy, b = self.schedule.amplitudes(tt)
        a = majorana_generator(self.n, jx, jy, b)
        n2 = 2 * self.n
        return np.concatenate([2.0 * a @ u[:n2], 2.0 * a @ u[n2:]])

    def entries(self, t: np.ndarray) -> dict:
        """alpha_XX, alpha_YY and the X-family end alpha_N at the times t."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        n, n2 = self.n, 2 * self.n
        out = np.empty((len(t), 4 * n))
        for k, (t0, t1, sol) in enumerate(self.pieces):
            last = k == len(self.pieces) - 1
            mask = (t >= t0) & ((t <= t1) if last else (t < t1))
            if np.any(mask):
                out[mask] = sol(t[mask]).T
        a_n, b_n = 2 * (n - 1), 2 * (n - 1) + 1
        xx = out[:, a_n]            # a_N <- a_1
        yy = out[:, n2 + b_n]        # b_N <- b_1
        # spinkick's X-seeded family ends on X_1 for odd N and on Y_1 for even N
        end = out[:, a_n] if n % 2 == 1 else out[:, n2 + a_n]
        return {"xx": xx, "yy": yy, "alpha_n": end}

    def _refine(self, f, t_grid, i, lo_bound, hi_bound):
        lo = max(t_grid[max(i - 1, 0)], lo_bound)
        hi = min(t_grid[min(i + 1, len(t_grid) - 1)], hi_bound)
        if hi - lo < 1e-12:
            return t_grid[i]
        res = minimize_scalar(lambda s: -f(s), bounds=(lo, hi), method="bounded",
                              options={"xatol": 1e-11})
        return res.x if -res.fun >= f(t_grid[i]) else t_grid[i]

    def peak(self) -> tuple:
        """(t_star, signed alpha_N) at the maximum of |alpha_N| over [0, T]."""
        best = (0.0, 0.0)
        for t0, t1, _ in self.pieces:
            ts = np.linspace(t0, t1, max(3, int(math.ceil((t1 - t0) / SCAN_STEP)) + 1))
            vals = np.abs(self.entries(ts)["alpha_n"])
            i = int(np.argmax(vals))
            t = self._refine(lambda s: abs(self.entries(s)["alpha_n"][0]), ts, i, t0, t1)
            v = float(self.entries(t)["alpha_n"][0])
            if abs(v) > abs(best[1]):
                best = (float(t), v)
        return best

    def joint_optimum(self) -> float:
        """Time of the largest (1 + (|a| + |b| + |ab|)/3)/2 over [0, T]."""
        def joint(s):
            e = self.entries(s)
            a, b = np.abs(e["xx"]), np.abs(e["yy"])
            return 0.5 * (1.0 + (a + b + a * b) / 3.0)
        ts = np.arange(0.0, self.total_time, SCAN_STEP)
        vals = joint(ts)
        i = int(np.argmax(vals))
        return float(self._refine(lambda s: float(joint(s)[0]), ts, i, 0.0, self.total_time))


def reference_entry(schedule, with_window: bool) -> dict:
    sol = ChainSolution(schedule)
    t_star, value = sol.peak()
    end = sol.entries(schedule.total_time)
    entry = {
        "total_time": schedule.total_time,
        "max_abs_alpha_n": abs(value),
        "alpha_n_at_peak": value,
        "t_star": t_star,
        "alpha_n_end": float(end["alpha_n"][0]),
    }
    if with_window:
        t_joint = sol.joint_optimum()
        t0 = max(0.0, t_joint - WINDOW_HALF)
        ts = t0 + WINDOW_STEP * np.arange(int(round(2 * WINDOW_HALF / WINDOW_STEP)) + 1)
        ts = ts[ts <= schedule.total_time]
        e = sol.entries(ts)
        entry["read_window"] = {
            "t_joint": t_joint, "t0": float(ts[0]), "step": WINDOW_STEP,
            "xx": [float(v) for v in e["xx"]], "yy": [float(v) for v in e["yy"]],
            "alpha_n": [float(v) for v in e["alpha_n"]],
        }
    return entry


def main() -> int:
    drift = _dense_selfcheck()
    if drift > 1e-12:
        print(f"Majorana mapping disagrees with the dense evolution by {drift:g}", file=sys.stderr)
        return 1
    out = {"method": "Jordan-Wigner Majorana ODE, DOP853 rtol=1e-12 atol=1e-14, "
                     "piecewise between schedule discontinuities",
           "dense_selfcheck_max_error": drift, "schedules": {}}
    for key, family, params, with_window in reference_schedules():
        if family == "sin_power":
            schedule = pulses.sin_power_schedule(params["n_sites"], params["m"])
        else:
            schedule = pulses.square_schedule(params["n_sites"], params["delta"])
        out["schedules"][key] = reference_entry(schedule, with_window)
        print(key, json.dumps({k: v for k, v in out["schedules"][key].items()
                               if k != "read_window"}), flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
