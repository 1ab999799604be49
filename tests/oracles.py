"""Dense-matrix reference implementations used to cross-check the package.

Everything here works on explicit 2^N x 2^N matrices with scipy's expm, fully
independent of the bitmask state-vector code and of the operator-graph
propagation; ``dense_closure`` derives the operator graph from dense
commutators, independent of its closed form.  Slow on purpose; only used for
small N.  The exceptions are the Jordan-Wigner referees at the end, which
work on the chain's 2N Majorana operators, so they reach N where no 2^N
matrix fits; they are built from the Jordan-Wigner formulas, not from the
operator graph.  majorana_columns steps the engines' window rule, and
majorana_pointwise integrates the pointwise ODE with no window rule at all.
The window rule is written out again here from its definition
(window_stages), not read from the package.
"""
import itertools
import math

import numpy as np
from scipy.linalg import expm

SINGLE = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def string_matrix(labels):
    """Kronecker product of single-site operators, site 1 leftmost."""
    out = np.eye(1, dtype=complex)
    for c in labels:
        out = np.kron(out, SINGLE[c])
    return out


def site_matrix(n_sites, site, op):
    labels = ["I"] * n_sites
    labels[site - 1] = op
    return string_matrix(labels)


def bond_matrix(n_sites, bond, op):
    labels = ["I"] * n_sites
    labels[bond - 1] = op
    labels[bond] = op
    return string_matrix(labels)


def chain_hamiltonian(n_sites, jx, jy, b):
    dim = 2 ** n_sites
    h = np.zeros((dim, dim), dtype=complex)
    for i in range(1, n_sites):
        h = h + jx * bond_matrix(n_sites, i, "X") + jy * bond_matrix(n_sites, i, "Y")
    for i in range(1, n_sites + 1):
        h = h + b * site_matrix(n_sites, i, "Z")
    return h


def channel_hamiltonian(n_sites, channel):
    """The chain Hamiltonian with one channel ("Jx", "Jy" or "B") at amplitude 1."""
    return chain_hamiltonian(n_sites, *(float(c == channel) for c in ("Jx", "Jy", "B")))


def commutator(a, b):
    return a @ b - b @ a


def dense_closure(n_sites, channels):
    """Close X_N under dense commutators with each channel's Hamiltonian.

    A worklist from X_N: every commutator [H_c, p] of a reached string p is
    expanded in all 4^N strings by its traces, and must be 2i*sign times
    exactly one string q.  Returns the reached label tuples and a dict
    {(p, q, channel): sign}, with both directions of every edge.
    """
    dim = 2 ** n_sites
    labels = list(all_label_tuples(n_sites))
    basis = np.array([string_matrix(q) for q in labels])
    hamiltonians = {c: channel_hamiltonian(n_sites, c) for c in channels}
    seed = ("I",) * (n_sites - 1) + ("X",)
    reached, work, edges = {seed}, [seed], {}
    while work:
        p = work.pop()
        dense_p = string_matrix(p)
        for channel, h in hamiltonians.items():
            comm = commutator(h, dense_p)
            if not comm.any():
                continue
            traces = np.einsum("kij,ji->k", basis, comm) / dim
            hits = np.flatnonzero(traces)
            assert len(hits) == 1 and traces[hits[0]] in (2j, -2j), (p, channel, traces[hits])
            hit = hits[0]
            q, sign = labels[hit], int((traces[hit] / 2j).real)
            np.testing.assert_array_equal(comm, 2j * sign * basis[hit])
            edges[(p, q, channel)] = sign
            if q not in reached:
                reached.add(q)
                work.append(q)
    return reached, edges


def all_label_tuples(n_sites):
    return itertools.product("IXYZ", repeat=n_sites)


def pauli_expectation(psi, labels):
    return float(np.real(np.vdot(psi, string_matrix(labels) @ psi)))


def window_stages(schedule, t0, t1):
    """(dt, (jx, jy, b)) of each stage of the window [t0, t1] in time order: the engines' rule.

    A boxcar family's window is one stage, its average over the window.  A
    smooth family's (schedule.smooth: sin^m) is the two stages of CF4 (Blanes
    and Moan 2006), each over the whole window: alpha_2 a(t1) + alpha_1 a(t2),
    then alpha_1 a(t1) + alpha_2 a(t2), with a the pointwise amplitudes at the
    Gauss points t1,2 = t0 + (1/2 -+ sqrt(3)/6) dt and alpha_1,2 = 1/4 -+ sqrt(3)/6.
    """
    dt = t1 - t0
    if not schedule.smooth:
        return [(dt, schedule.average_amplitudes(t0, t1))]
    r = math.sqrt(3.0) / 6.0
    early, late = (np.array(schedule.amplitudes(t0 + (0.5 + x) * dt), dtype=float) for x in (-r, r))
    return [(dt, tuple((0.25 + r) * early + (0.25 - r) * late)),
            (dt, tuple((0.25 - r) * early + (0.25 + r) * late))]


def evolve_windows(psi0, schedule, grid):
    """Schroedinger evolution, one dense expm per stage of each grid window (window_stages).

    Uses the same window rule as the package so results are comparable to
    machine precision; the exponentials themselves come from scipy.
    """
    n = schedule.n_sites
    psi = np.asarray(psi0, dtype=complex)
    out = [psi]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        for dt, amps in window_stages(schedule, t0, t1):
            psi = expm(-1j * dt * chain_hamiltonian(n, *amps)) @ psi
        out.append(psi)
    return np.array(out)


def heisenberg_coefficients(schedule, grid, nodes):
    """Project U(t)^dag X_N U(t) onto dense node strings, one row per time."""
    n = schedule.n_sites
    dim = 2 ** n
    x_n = site_matrix(n, n, "X")
    mats = [string_matrix(str(p)) for p in nodes]
    u = np.eye(dim, dtype=complex)
    rows = []
    for i in range(len(grid)):
        for dt, amps in window_stages(schedule, grid[i - 1], grid[i]) if i else ():
            u = expm(-1j * dt * chain_hamiltonian(n, *amps)) @ u
        heis = u.conj().T @ x_n @ u
        rows.append([np.real(np.trace(m @ heis)) / dim for m in mats])
    return np.array(rows)


def majorana_generator(n_sites, jx, jy, b):
    """A = M - M^T for the chain H = i sum_{p<q} M_pq c_p c_q in Jordan-Wigner Majoranas.

    The Majoranas carry their Z strings towards the receiver,
    a_j = X_j Z_{j+1} ... Z_N and b_j = Y_j Z_{j+1} ... Z_N, in the order
    (a_1, b_1, ..., a_N, b_N).  Multiplying out the strings gives
    X_j X_{j+1} = i a_j b_{j+1}, Y_j Y_{j+1} = -i b_j a_{j+1} and Z_j = -i a_j b_j,
    and from {c_p, c_q} = 2 delta_pq a Majorana evolves as
    dc_l/dt = i[H, c_l] = 2 sum_p A_lp c_p.
    """
    terms = [(2 * j, 2 * j + 3, jx) for j in range(n_sites - 1)]        # a_j b_{j+1}
    terms += [(2 * j + 1, 2 * j + 2, -jy) for j in range(n_sites - 1)]  # b_j a_{j+1}
    terms += [(2 * j, 2 * j + 1, -b) for j in range(n_sites)]           # a_j b_j
    a = np.zeros((2 * n_sites, 2 * n_sites))
    for p, q, m in terms:
        a[p, q] += m
        a[q, p] -= m
    return a


def majorana_index(label):
    """Position of a Majorana string, e.g. "IIXZ" (a_3 of 4 sites), in majorana_generator's order."""
    site = len(label) - len(label.lstrip("I"))
    lead = label[site:site + 1]
    assert lead in ("X", "Y") and label[site + 1:] == "Z" * (len(label) - site - 1), label
    return 2 * site + (lead == "Y")


def majorana_columns(schedule, grid, seeds):
    """Heisenberg coefficients of the Majoranas `seeds` on all 2N, one (2N, len(seeds)) slab per time.

    One scipy expm of the generator per stage of each window (window_stages).
    With c_l(t) = sum_p W_lp(t) c_p, dW/dt = 2 A W, so W advances as
    W <- expm(2 dt A) W, and the coefficients of c_s are the row W[s], here
    kept as column s of W^T, which advances by expm(2 dt A^T) = expm(2 dt A)^T.
    The exponential of the C-ordered A^T is taken rather than the transposed
    exponential: with threaded BLAS, multiplying by the transposed view
    after each expm took 15x as long at N = 50 on 2 cores.
    """
    n = schedule.n_sites
    w_t = np.eye(2 * n)
    out = [w_t[:, seeds]]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        for dt, amps in window_stages(schedule, t0, t1):
            w_t = w_t @ expm(2.0 * dt * majorana_generator(n, *amps).T)
        out.append(w_t[:, seeds])
    return np.array(out)


def majorana_pointwise(schedule, times):
    """The site-1 Majorana columns by the pointwise ODE, in the layout of FluxResult.transfer.

    The referee for the engine's window rule: dW/dt = 2 A(t) W with
    A(t) = majorana_generator(N, *schedule.amplitudes(t)), no window average
    anywhere.  solve_ivp (DOP853, rtol 1e-12, atol 1e-14) integrates the
    first two columns of W from the identity's, one piece between each pair
    of schedule.discontinuities(); a piece reads its own amplitudes up to its
    right end, where a boxcar would already have switched.  Returns
    out[k, i, c] = W(times[k])[seed_c, i], the seeds a_N and b_N (X_N, Y_N)
    and the columns a_1 and b_1 (X_1, Y_1); times run from 0 upwards.
    majorana_generator is linear in the amplitudes, so A(t) is summed from
    the three channel generators rather than rebuilt at every evaluation.
    """
    from scipy.integrate import solve_ivp

    n = schedule.n_sites
    dim = 2 * n
    channels = np.array([majorana_generator(n, *row) for row in np.eye(3)])
    times = np.asarray(times, dtype=float)
    cuts = [t for t in schedule.discontinuities() if times[0] < t < times[-1]]
    seeds = [dim - 2, dim - 1]
    w = np.eye(dim)[:, :2]
    out = [w[seeds].T]
    for lo, hi in zip([times[0], *cuts], [*cuts, times[-1]]):
        last = np.nextafter(hi, lo)  # the piece's own amplitudes, up to its right end

        def rhs(t, y, last=last):
            a = np.tensordot(schedule.amplitudes(min(t, last)), channels, axes=1)
            return 2.0 * (a @ y.reshape(dim, 2)).ravel()

        at = times[(times > lo) & (times <= hi)]
        sol = solve_ivp(rhs, (lo, hi), w.ravel(), method="DOP853", t_eval=np.union1d(at, hi),
                        rtol=1e-12, atol=1e-14)
        states = sol.y.T.reshape(-1, dim, 2)
        out += [state[seeds].T for state in states[:len(at)]]
        w = states[-1]
    return np.array(out)
