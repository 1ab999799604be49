"""Acceptance gate: one test per shipped guarantee, one verdict line each.

Every test prints "criterion <n> (<name>): PASS/FAIL (<runtime>)" through the
capture-disabled channel so a plain pytest run shows the per-criterion status.
Expensive coefficient propagations are cached at module scope and shared;
criterion 2 audits the norms of everything the other criteria produce, so its
budget covers building any result not already cached.
"""
import math
import time

import numpy as np
import pytest

from spinkick import (SiteAssignment, average_fidelity, build_graph, chain,
                      default_steps, ghz_compare,
                      heisenberg_expectation, ideal_schedule, information_flux,
                      max_alpha, mirror_state, monte_carlo_average_fidelity,
                      product_state, propagate, sin_power_schedule, square_schedule,
                      transfer_read_time)

import oracles

IDEAL_SIZES = (3, 5, 7, 9, 15, 25)
ODD_TO_25 = tuple(range(3, 26, 2))
ODD_TO_15 = tuple(range(3, 16, 2))
SQUARE_DELTAS = tuple(float(d) for d in range(5, 21))


_RESULTS = {}


def _ideal(n, scheme):
    key = ("ideal", scheme, n)
    if key not in _RESULTS:
        # kick amplitudes are piecewise constant, so one step per window is exact
        _RESULTS[key] = propagate(ideal_schedule(n, scheme), 1)
    return _RESULTS[key]


def _sin(n, m):
    key = ("sin", m, n)
    if key not in _RESULTS:
        _RESULTS[key] = propagate(sin_power_schedule(n, m))
    return _RESULTS[key]


def _square(n, delta):
    key = ("square", delta, n)
    if key not in _RESULTS:
        _RESULTS[key] = propagate(square_schedule(n, delta))
    return _RESULTS[key]


def _gate(capsys, number, name, budget, body):
    start = time.perf_counter()
    error = None
    try:
        body()
    except BaseException as exc:
        error = exc
    elapsed = time.perf_counter() - start
    status = "PASS" if error is None and elapsed <= budget else "FAIL"
    with capsys.disabled():
        print(f"criterion {number} ({name}): {status} ({elapsed:.2f} s)")
    if error is not None:
        raise error
    assert elapsed <= budget, f"runtime {elapsed:.2f} s exceeds {budget} s budget"


def test_criterion_1_ideal_transfer(capsys):
    def body():
        for n in IDEAL_SIZES:
            for scheme in ("JxJy", "JxB"):
                result = _ideal(n, scheme)
                alpha_end = float(result.alphas[-1, n - 1])
                assert abs(alpha_end) == pytest.approx(1.0, abs=1e-9), (n, scheme)
                fid = average_fidelity(abs(alpha_end))
                assert fid == pytest.approx(1.0, abs=1e-9), (n, scheme)

    _gate(capsys, 1, "ideal kick transfer", 1.0, body)


def test_criterion_2_norm_audit(capsys):
    def body():
        for n in IDEAL_SIZES:
            _ideal(n, "JxJy")
            _ideal(n, "JxB")
        for n in ODD_TO_25:
            _sin(n, 4)
            _sin(n, 6)
        for d in SQUARE_DELTAS:
            _square(5, d)
        for n in ODD_TO_15:
            _square(n, 16.0)
        _square(25, 20.0)
        for key, result in sorted(_RESULTS.items()):
            norms = result.norms()
            assert norms.min() >= 1.0 - 1e-9, key
            assert norms.max() <= 1.0 + 1e-9, key
        assert {k[0] for k in _RESULTS} == {"ideal", "sin", "square"}
        assert max(r.n_sites for r in _RESULTS.values()) == 25

    _gate(capsys, 2, "coefficient norm audit", 300.0, body)


def test_criterion_3_operator_graph(capsys):
    expected_nodes = ["IIIIX", "IIIYZ", "IIXZZ", "IYZZZ", "XZZZZ",
                      "IIIIY", "IIIXZ", "IIYZZ", "IXZZZ", "YZZZZ"]

    def body():
        g = build_graph(5)
        assert [str(p) for p in g.nodes] == expected_nodes
        k = chain(5)
        k_jx, k_jy, k_b = k.combined(1, 0, 0), k.combined(0, 1, 0), k.combined(0, 0, 1)
        assert k_b[0, 5] == 1.0 and k_b[5, 0] == -1.0
        assert k_jy[0, 1] == -1.0 and k_jy[1, 0] == 1.0
        assert not np.any(k_jx[0]) and not np.any(k_jx[:, 0])
        # every edge, every size up to 5, against dense commutators
        for n in range(2, 6):
            gn = build_graph(n)
            dense_nodes = [oracles.string_matrix(str(p)) for p in gn.nodes]
            dim = 2 ** n
            for channel in ("Jx", "Jy", "B"):
                h = oracles.channel_hamiltonian(n, channel)
                want = np.zeros((len(dense_nodes), len(dense_nodes)), dtype=complex)
                for e in gn.edges:
                    if e.channel == channel:
                        want[e.b, e.a] = 2j * e.sign
                        want[e.a, e.b] = -2j * e.sign
                for i, p in enumerate(dense_nodes):
                    comm = oracles.commutator(h, p)
                    for j, q in enumerate(dense_nodes):
                        coeff = np.trace(q @ comm) / dim
                        assert coeff == pytest.approx(want[j, i], abs=1e-12), (n, channel, i, j)

    _gate(capsys, 3, "operator graph structure", 1.0, body)


def test_criterion_4_smooth_pulse_floor(capsys):
    def body():
        assert sin_power_schedule(5, 6).j_max == pytest.approx(0.8, abs=1e-12)
        assert sin_power_schedule(5, 4).j_max == pytest.approx(2.0 / 3.0, abs=1e-12)
        for n in ODD_TO_25:
            best6 = abs(max_alpha(_sin(n, 6), n)[1])
            best4 = abs(max_alpha(_sin(n, 4), n)[1])
            fid6 = average_fidelity(best6)
            fid4 = average_fidelity(best4)
            assert fid6 > 0.984, (n, fid6)
            assert fid6 >= fid4 - 1e-12, (n, fid6, fid4)

    _gate(capsys, 4, "smooth pulse fidelity floor", 60.0, body)


def test_criterion_5_square_pulse_family(capsys):
    def body():
        peaks = [abs(max_alpha(_square(5, d), 5)[1]) for d in SQUARE_DELTAS]
        for lo, hi in zip(peaks, peaks[1:]):
            assert hi >= lo - 1e-6, peaks
        assert average_fidelity(abs(max_alpha(_square(5, 8.0), 5)[1])) >= 0.98
        for n in ODD_TO_15:
            assert abs(max_alpha(_square(n, 16.0), n)[1]) >= 0.94, n
        fid25 = average_fidelity(abs(max_alpha(_square(25, 20.0), 25)[1]))
        assert fid25 == pytest.approx(0.947, abs=0.02)

    _gate(capsys, 5, "square pulse family", 300.0, body)


def test_criterion_6_flux_vs_exact_oracle(capsys):
    def body():
        for n in (3, 4, 5):
            for schedule in (ideal_schedule(n, "JxB"),
                             sin_power_schedule(n, 6),
                             square_schedule(n, 8.0)):
                n_steps = default_steps(schedule)
                result = propagate(schedule, n_steps)
                rest = SiteAssignment.uniform(n - 1, "Z", 1)
                predicted = information_flux(result, rest)[("X", "X")]
                psi0 = product_state(SiteAssignment([("X", 1)] + [("Z", 1)] * (n - 1)))
                times, measured = heisenberg_expectation("X", psi0, schedule, n_steps)
                assert len(times) == len(result.times)
                assert np.max(np.abs(times - result.times)) < 1e-12
                deviation = float(np.max(np.abs(predicted - measured)))
                assert deviation < 1e-6, (n, type(schedule).__name__, deviation)

    _gate(capsys, 6, "flux vs exact oracle", 30.0, body)


def test_criterion_7_monte_carlo_vs_closed_form(capsys):
    def body():
        schedule = sin_power_schedule(5, 6)
        read_time, _, _ = transfer_read_time(schedule)
        result = _sin(5, 6)
        idx = int(np.argmin(np.abs(np.asarray(result.times) - read_time)))
        closed = average_fidelity(result.alpha_series(5)[idx])
        n_samples = 2000
        mean, stderr = monte_carlo_average_fidelity(
            schedule, n_samples, seed=20260825, read_time=read_time)
        assert abs(mean - closed) < 3e-3, (mean, closed, stderr)

    _gate(capsys, 7, "monte carlo vs closed form", 60.0, body)


def test_criterion_8_entangled_state_generation(capsys):
    symmetric = [
        SiteAssignment.parse("X+,0,0,X+"),
        SiteAssignment.parse("X-,0,0,X-"),
        SiteAssignment.parse("X+,X+,X+,X+"),
        SiteAssignment.parse("X+,0,0,0,0,X+"),
        SiteAssignment.parse("X+,X+,0,0,X+,X+"),
    ]
    all_z = [SiteAssignment.parse("1,0,0,1"), SiteAssignment.parse("1,0,0,0,0,0")]
    odd = [SiteAssignment.parse(",".join(["X+"] + ["0"] * (n - 2) + ["X+"])) for n in (3, 5, 7, 13)]

    def body():
        for assignment in symmetric:
            report = ghz_compare(assignment)
            assert report.fidelity == pytest.approx(1.0, abs=1e-9), str(assignment)
            assert report.phase_index in (0, 1)
        for assignment in odd:
            for scheme in ("JxJy", "JxB"):
                report = ghz_compare(assignment, ideal_schedule(assignment.n_sites, scheme))
                assert report.fidelity == pytest.approx(1.0, abs=1e-9), (str(assignment), scheme)
                assert report.phase_index in (0, 1)
        for assignment in all_z:
            report = ghz_compare(assignment)
            n = assignment.n_sites
            mirrored = mirror_state(product_state(assignment), n)
            overlap = abs(np.vdot(mirrored, report.evolved)) ** 2
            assert overlap == pytest.approx(1.0, abs=1e-9), str(assignment)
            assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    _gate(capsys, 8, "entangled state generation", 10.0, body)


def test_criterion_9_step_doubling_stability(capsys):
    def body():
        coarse = abs(max_alpha(_sin(5, 6), 5)[1])
        schedule = sin_power_schedule(5, 6)
        doubled = propagate(schedule, 2 * default_steps(schedule))
        fine = abs(max_alpha(doubled, 5)[1])
        assert abs(fine - coarse) < 1e-6, (coarse, fine)

    _gate(capsys, 9, "step doubling stability", 10.0, body)
