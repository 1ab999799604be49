"""Dense-matrix reference implementations used to cross-check the package.

Everything here works on explicit 2^N x 2^N matrices with scipy's expm, fully
independent of the bitmask state-vector code and of the operator-graph
propagation; ``dense_closure`` derives the operator graph from dense
commutators, independent of its closed form.  Slow on purpose; only used for
small N.
"""
import itertools

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


def evolve_windows(psi0, schedule, grid):
    """Schroedinger evolution, one dense expm per grid window.

    Uses the same window-averaged amplitudes as the package so results are
    comparable to machine precision; the exponentials themselves come from
    scipy.
    """
    n = schedule.n_sites
    psi = np.asarray(psi0, dtype=complex)
    out = [psi]
    for t0, t1 in zip(grid[:-1], grid[1:]):
        jx, jy, b = schedule.average_amplitudes(t0, t1)
        u = expm(-1j * (t1 - t0) * chain_hamiltonian(n, jx, jy, b))
        psi = u @ psi
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
        if i > 0:
            jx, jy, b = schedule.average_amplitudes(grid[i - 1], grid[i])
            u = expm(-1j * (grid[i] - grid[i - 1]) * chain_hamiltonian(n, jx, jy, b)) @ u
        heis = u.conj().T @ x_n @ u
        rows.append([np.real(np.trace(m @ heis)) / dim for m in mats])
    return np.array(rows)
