import inspect
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from spinkick import oracle
from spinkick import (IdealKickSchedule, KickSlot, PulseSchedule, SiteAssignment,
                      SinPowerSchedule, dump_state_json, evolve_state, final_state,
                      ghz_compare, heisenberg_expectation,
                      ideal_schedule, mirror_state, monte_carlo_average_fidelity,
                      product_state, receiver_density, sin_power_schedule)
from spinkick.exceptions import NumericalContractError, ResourceCapError
from spinkick.pulses import CHANNELS, schedule_from_json, square_schedule

import oracles


def _zero_schedule(n_sites, total=2.0):
    s = SinPowerSchedule(n_sites, 2, 0.0, 0.0)
    s.total_time = total
    return s


def _field_only(n_sites, amplitude, duration=1.0):
    return IdealKickSchedule(n_sites, [KickSlot("B", 0.0, duration, amplitude)])


class _UniformXY(PulseSchedule):
    """Constant Jx = Jy coupling, used to probe conservation laws."""

    def __init__(self, n_sites, j, total_time):
        self.n_sites = n_sites
        self.j = j
        self.total_time = total_time

    def amplitudes(self, t):
        return self.j, self.j, 0.0

    def average_amplitudes(self, t0, t1):
        return self.j, self.j, 0.0

    def to_json(self):
        return {"variant": "test_uniform_xy", "n_sites": self.n_sites}


class TestSiteAssignment:
    def test_parse_aliases(self):
        a = SiteAssignment.parse("0,1,+,-")
        assert a.entries == [("Z", 1), ("Z", -1), ("X", 1), ("X", -1)]
        assert str(a) == "Z+,Z-,X+,X-"

    def test_parse_whitespace(self):
        a = SiteAssignment.parse("X+ Z+  y-")
        assert a.entries == [("X", 1), ("Z", 1), ("Y", -1)]

    def test_parse_rejects_garbage(self):
        with pytest.raises(ValueError):
            SiteAssignment.parse("X+,Q-")
        with pytest.raises(ValueError):
            SiteAssignment.parse("")

    def test_uniform(self):
        a = SiteAssignment.uniform(3, "Z", -1)
        assert a.n_sites == 3
        assert a.entries == [("Z", -1)] * 3

    def test_site_vectors(self):
        a = SiteAssignment.parse("Z+,Z-,X+,Y-")
        np.testing.assert_allclose(a.site_vector(1), [1, 0])
        np.testing.assert_allclose(a.site_vector(2), [0, 1])
        np.testing.assert_allclose(a.site_vector(3), np.array([1, 1]) / np.sqrt(2))
        np.testing.assert_allclose(a.site_vector(4), np.array([1, -1j]) / np.sqrt(2))

    @pytest.mark.parametrize("entry", [[0.6, 0.8], np.array([0.6, 0.8j]), (0.6, 0.8), [0.0, 0.0],
                                       [3.0, 4.0j]])
    def test_2_vector_entries_refused(self, entry):
        # sites hold X/Y/Z eigenstates only; a superposition sender is built with np.kron
        with pytest.raises(ValueError, match="bad eigenstate entry"):
            SiteAssignment([("Z", 1), entry])

    def test_bad_eigen_entry(self):
        with pytest.raises(ValueError):
            SiteAssignment([("Q", 1)])
        with pytest.raises(ValueError):
            SiteAssignment([("X", 2)])


class TestProductState:
    def test_computational_basis(self):
        np.testing.assert_array_equal(
            product_state(SiteAssignment.parse("0,0")), [1, 0, 0, 0])
        np.testing.assert_array_equal(
            product_state(SiteAssignment.parse("1,1")), [0, 0, 0, 1])
        # site 1 is the most significant bit
        np.testing.assert_array_equal(
            product_state(SiteAssignment.parse("1,0")), [0, 0, 1, 0])

    def test_superposition_site(self):
        psi = product_state(SiteAssignment.parse("+,0"))
        np.testing.assert_allclose(psi, np.array([1, 0, 1, 0]) / math.sqrt(2))


class TestPauliExpectation:
    """Product-state Pauli values, read with the dense reference oracles.pauli_expectation."""

    def test_frozen_values(self):
        zz = product_state(SiteAssignment.parse("0,0"))
        assert oracles.pauli_expectation(zz, "ZI") == pytest.approx(1.0)
        assert oracles.pauli_expectation(zz, "IZ") == pytest.approx(1.0)
        assert oracles.pauli_expectation(zz, "XI") == pytest.approx(0.0)
        plus = product_state(SiteAssignment.parse("+,0"))
        assert oracles.pauli_expectation(plus, "XI") == pytest.approx(1.0)
        assert oracles.pauli_expectation(plus, "IX") == pytest.approx(0.0)
        yplus = product_state(SiteAssignment([("Y", 1), ("Z", -1)]))
        assert oracles.pauli_expectation(yplus, "YI") == pytest.approx(1.0)
        assert oracles.pauli_expectation(yplus, "IZ") == pytest.approx(-1.0)


class TestEvolveState:
    def test_zero_schedule_is_identity(self):
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        times, states = evolve_state(psi0, _zero_schedule(3), 10)
        assert len(times) == 11
        for s in states:
            np.testing.assert_allclose(s, psi0, atol=1e-13)

    def test_field_only_single_site_rotation(self):
        # each site precesses independently: <X_1>(t) = cos(2 b t) on |+>
        b = 0.4
        psi0 = product_state(SiteAssignment.parse("+,0"))
        times, states = evolve_state(psi0, _field_only(2, b), 8)
        for t, s in zip(times, states):
            assert oracles.pauli_expectation(s, "XI") == pytest.approx(math.cos(2 * b * t), abs=1e-12)
            assert oracles.pauli_expectation(s, "YI") == pytest.approx(math.sin(2 * b * t), abs=1e-12)
            assert oracles.pauli_expectation(s, "ZI") == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("make,n_steps", [
        (lambda: ideal_schedule(3, "JxJy"), 30),
        (lambda: ideal_schedule(3, "JxB"), 30),
        (lambda: sin_power_schedule(3, 4), 120),
    ])
    def test_against_dense_expm(self, make, n_steps):
        """The bitmask stepper must agree with scipy expm on the same windows,
        amplitude for amplitude and phase for phase."""
        s = make()
        psi0 = product_state(SiteAssignment.parse("+,0,0"))
        times, states = evolve_state(psi0, s, n_steps)
        dense = oracles.evolve_windows(psi0, s, times)
        assert np.max(np.abs(states - dense)) < 1e-9

    def test_unitarity(self):
        psi0 = product_state(SiteAssignment.parse("+,0,0,0"))
        _, states = evolve_state(psi0, sin_power_schedule(4, 6), 300)
        np.testing.assert_allclose(np.linalg.norm(states, axis=1), 1.0, atol=1e-10)

    def test_rejects_unnormalized_input(self):
        psi0 = np.ones(8, dtype=complex)
        with pytest.raises(NumericalContractError):
            evolve_state(psi0, _zero_schedule(3), 4)

    def test_rejects_size_mismatch(self):
        psi0 = product_state(SiteAssignment.parse("0,0"))
        with pytest.raises(ValueError):
            evolve_state(psi0, _zero_schedule(3), 4)


class TestWindowStep:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 6),
           jx=st.floats(-3.0, 3.0), jy=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           dt=st.floats(1e-3, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_scipy(self, n, jx, jy, b, dt, seed):
        # norm bounds up to 4*(6*5 + 3*6) = 192, so up to 9 subdivisions
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = psi / np.linalg.norm(psi)
        got = _one_window(psi, dt, jx, jy, b)
        want = expm(-1j * dt * oracles.chain_hamiltonian(n, jx, jy, b)) @ psi
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 6), channel=st.sampled_from(["Jx", "Jy", "B"]),
           magnitude=st.floats(1e-3, 3.0), negative=st.booleans(),
           dt=st.floats(1e-3, 4.0), seed=st.integers(0, 2 ** 32 - 1))
    def test_single_channel_kick_matches_the_taylor_path(self, n, channel, magnitude, negative,
                                                         dt, seed):
        rng = np.random.default_rng(seed)
        psi = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        psi = psi / np.linalg.norm(psi)
        amps = [(-magnitude if negative else magnitude) if c == channel else 0.0
                for c in ("Jx", "Jy", "B")]
        with pytest.MonkeyPatch.context() as mp:  # the Taylor reference below needs the real ones
            for name in ("apply", "gather", "values"):
                mp.setattr(oracle._ChainAction, name, lambda *args, **kwargs: pytest.fail(
                    "a single-channel window applied H or built its value table"))
            got = _one_window(psi, dt, *amps)
        want = expm(-1j * dt * oracles.chain_hamiltonian(n, *amps)) @ psi
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-13)
        # the plan of a mixed window with the same bound steps this one by Taylor substeps
        theta = oracle._step_bound(n, np.array([dt]), *amps)
        _, depth, degree = oracle._plan(np.ones((1, 3)), theta)
        taylor = oracle._ChainAction(n).taylor(psi, dt, *amps, int(depth[0]), int(degree[0]))
        np.testing.assert_allclose(got, taylor, rtol=0, atol=1e-13)

    @pytest.mark.parametrize("run", [
        lambda psi0, s: final_state(psi0, s, n_steps=1),
        lambda psi0, s: evolve_state(psi0, s, 1),
        lambda psi0, s: monte_carlo_average_fidelity(s, 10, seed=1, n_steps=1),
    ], ids=["final_state", "evolve_state", "monte_carlo"])
    def test_huge_kick_raises_instead_of_hanging(self, monkeypatch, run):
        calls = []
        for name in ("apply", "gather"):  # both forms of an H application
            def counted(self, *args, _method=getattr(oracle._ChainAction, name), **kwargs):
                calls.append(None)
                if len(calls) > 1000:
                    raise AssertionError("the step kept subdividing past 1000 H applications")
                return _method(self, *args, **kwargs)
            monkeypatch.setattr(oracle._ChainAction, name, counted)
        kick = IdealKickSchedule(2, [KickSlot("Jx", 0.0, 1.0, 1e30)])
        with pytest.raises(NumericalContractError, match="substeps"):
            run(product_state(SiteAssignment.parse("+,0")), kick)
        assert not calls


_couplings = st.one_of(st.just(0.0), st.floats(-3.0, 3.0))


def _per_window_rule(amps, theta):
    """(single, depth, degree) of one window, as the stepper worked them out window by window."""
    single = tuple(amps).count(0) == 2
    depth = 0
    if theta > 0.4:
        depth = int(math.ceil(math.log2(theta / 0.4)))
    return single, depth, int(np.searchsorted(oracle._THETA[depth], theta / (1 << depth)))


class TestPlan:
    """_plan's vectorised (single, depth, degree) against the per-window rule."""

    @staticmethod
    def _check(amplitudes, theta):
        got = list(zip(*(column.tolist() for column in oracle._plan(amplitudes, theta))))
        assert got == [_per_window_rule(a, t) for a, t in zip(amplitudes.tolist(), theta.tolist())]

    @settings(max_examples=100, deadline=None)
    @given(windows=st.lists(st.tuples(_couplings, _couplings, _couplings,
                                      st.floats(0.0, oracle._MAX_BOUND)), max_size=40))
    def test_matches_the_per_window_rule(self, windows):
        table = np.array(windows, dtype=float).reshape(-1, 4)
        self._check(table[:, :3], table[:, 3])

    def test_depth_and_degree_edges(self):
        # theta = 0.4*2^d ends depth d; theta = 2^d*_THETA[d, m] ends degree m at depth d
        scale = 2.0 ** np.arange(oracle._MAX_DEPTH + 1)
        edges = np.concatenate([0.4 * scale, (oracle._THETA * scale[:, None]).ravel(),
                                [0.0, 5e-324]])
        theta = np.concatenate([np.nextafter(edges, -np.inf), edges, np.nextafter(edges, np.inf)])
        theta = theta[(theta >= 0) & (theta <= oracle._MAX_BOUND)]
        rows = np.resize([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, -2.0, 0.0], [0.0, 0.0, 3.0],
                          [1.0, 1.0, 0.0], [0.5, 0.0, 0.5], [1.0, 1.0, 1.0]], (len(theta), 3))
        self._check(rows, theta)
        assert oracle._MAX_BOUND in theta.tolist()

    def test_refusal_past_the_largest_bound_is_up_front(self):
        # one Jx window of unit length on two sites has bound equal to its amplitude
        def windows(amplitude):
            s = IdealKickSchedule(2, [KickSlot("Jx", 0.0, 1.0, amplitude)])
            return oracle._windows(product_state(SiteAssignment.parse("+,0")), s, 1, 1.0)
        assert windows(oracle._MAX_BOUND)[2].tolist() == [[oracle._MAX_BOUND]]  # one stage
        with pytest.raises(NumericalContractError, match="substeps"):
            windows(np.nextafter(oracle._MAX_BOUND, np.inf))


class TestChainAction:
    """One read-only table set per N, shared by the runs on N sites; only the latest N kept."""

    def test_runs_share_the_tables_of_the_latest_n(self):
        s = sin_power_schedule(6, 6)
        psi0 = product_state(SiteAssignment.parse("+,0,0,0,0,0"))
        first = final_state(psi0, s, n_steps=120)
        chain = oracle._chain_action(6)
        assert final_state(psi0, s, n_steps=120).tobytes() == first.tobytes()
        assert oracle._chain_action(6) is chain
        for table in (chain.columns, chain.flips, chain.yy_signs, chain.diag_z):
            assert not table.flags.writeable
        oracle._chain_action(5)
        assert oracle._chain_action.cache_info().currsize == 1
        assert oracle._chain_action(6) is not chain  # the N = 6 tables were dropped

    def test_results_match_fresh_tables(self, monkeypatch):
        s = square_schedule(5, 16.0)
        psi0 = product_state(SiteAssignment.parse("+,0,0,0,0"))
        shared = heisenberg_expectation("X", psi0, s)[1], final_state(psi0, s)
        monkeypatch.setattr(oracle, "_chain_action", oracle._ChainAction)  # a new set per call
        fresh = heisenberg_expectation("X", psi0, s)[1], final_state(psi0, s)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(shared, fresh))


class TestGather:
    """The one-gather H application against the per-bond apply() it replaces."""

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 11), coupling=_couplings, b=_couplings,
           yy=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_one_coupling_is_bit_identical(self, n, coupling, b, yy, seed):
        jx, jy = (0.0, coupling) if yy else (coupling, 0.0)
        chain = oracle._ChainAction(n)
        psi = _random_state(n, seed)
        np.testing.assert_array_equal(chain.gather(psi, chain.values(jx, jy, b)),
                                      chain.apply(psi, jx, jy, b))

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 11), jx=_couplings, jy=_couplings, b=_couplings,
           seed=st.integers(0, 2 ** 32 - 1))
    def test_any_couplings_agree(self, n, jx, jy, b, seed):
        chain = oracle._ChainAction(n)
        psi = _random_state(n, seed)
        np.testing.assert_allclose(chain.gather(psi, chain.values(jx, jy, b)),
                                   chain.apply(psi, jx, jy, b), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n,used,unused", [(2, "gather", "apply"), (10, "gather", "apply"),
                                               (11, "apply", "gather")])
    def test_the_state_size_picks_the_form(self, monkeypatch, n, used, unused):
        calls = _count_calls(monkeypatch, "apply", "gather", "values")
        _one_window(_random_state(n, n), 0.05, 0.3, 0.2, 0.5)
        assert calls[used] > 0 and calls[unused] == 0
        assert (calls["values"] == 0) == (used == "apply")  # a value table only for the gather


class TestConservationLaws:
    def test_field_conserves_every_z(self):
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        _, states = evolve_state(psi0, _field_only(3, 0.7), 12)
        for label in ("ZII", "IZI", "IIZ"):
            ref = oracles.pauli_expectation(states[0], label)
            for s in states:
                assert oracles.pauli_expectation(s, label) == pytest.approx(ref, abs=1e-12)

    def test_balanced_coupling_conserves_total_z(self):
        # [XX + YY, Z_i + Z_{i+1}] = 0, so Jx = Jy preserves total magnetization
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        _, states = evolve_state(psi0, _UniformXY(3, 0.8, 4.0), 60)
        total0 = sum(oracles.pauli_expectation(states[0], l) for l in ("ZII", "IZI", "IIZ"))
        for s in states[::6]:
            total = sum(oracles.pauli_expectation(s, l) for l in ("ZII", "IZI", "IIZ"))
            assert total == pytest.approx(total0, abs=1e-10)

    def test_unbalanced_coupling_does_not_conserve_total_z(self):
        psi0 = product_state(SiteAssignment.parse("0,0,0"))
        _, states = evolve_state(psi0, sin_power_schedule(3, 4), 200)
        totals = [sum(oracles.pauli_expectation(s, l) for l in ("ZII", "IZI", "IIZ"))
                  for s in states]
        assert np.max(np.abs(np.array(totals) - totals[0])) > 1e-3


class TestHeisenbergExpectation:
    def test_initial_value(self):
        psi0 = product_state(SiteAssignment.parse("+,0,0"))
        times, values = heisenberg_expectation("X", psi0, ideal_schedule(3, "JxJy"), 12)
        assert times[0] == 0.0
        assert values[0] == pytest.approx(0.0, abs=1e-12)

    def test_perfect_transfer_endpoint(self):
        # the ideal sequence maps <X_3(T)> onto the sender value, up to sign
        psi0 = product_state(SiteAssignment.parse("+,0,0"))
        _, values = heisenberg_expectation("X", psi0, ideal_schedule(3, "JxJy"), 30)
        assert abs(values[-1]) == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("op", ["X", "Y"])
    @pytest.mark.parametrize("make,n_steps", [
        (lambda: sin_power_schedule(4, 6), None),
        (lambda: ideal_schedule(5, "JxB"), 50),
    ], ids=["sin6-N4", "JxB-N5"])
    def test_streamed_matches_pauli_expectation(self, op, make, n_steps):
        """The streamed Bloch component equals the dense <I...I O> on the stored series."""
        s = make()
        sender = np.array([1.0, np.exp(0.25j * np.pi)]) / math.sqrt(2.0)  # <X> = <Y> = 0.71
        psi0 = np.kron(sender, product_state(SiteAssignment.uniform(s.n_sites - 1)))
        times, values = heisenberg_expectation(op, psi0, s, n_steps)
        ref_times, states = evolve_state(psi0, s, n_steps)
        label = "I" * (s.n_sites - 1) + op
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_allclose(values, [oracles.pauli_expectation(p, label) for p in states],
                                   rtol=0, atol=1e-14)
        overlaps = np.array([np.vdot(p[0::2], p[1::2]) for p in states])  # one vdot per state
        np.testing.assert_array_equal(values, 2.0 * (overlaps.real if op == "X" else overlaps.imag))
        assert np.max(np.abs(values)) > 0.5

    def test_rejects_bad_operator(self):
        psi0 = product_state(SiteAssignment.parse("+,0"))
        with pytest.raises(ValueError):
            heisenberg_expectation("Z", psi0, _zero_schedule(2), 4)


class TestFinalState:
    def test_matches_dense_at_interior_read_time(self):
        s = sin_power_schedule(3, 4)
        psi0 = product_state(SiteAssignment.parse("+,0,0"))
        read = 0.37 * s.total_time
        got = final_state(psi0, s, read_time=read, n_steps=200)
        grid = np.append(np.array([t for t in np.linspace(0, s.total_time, 201)
                                   if t < read]), read)
        dense = oracles.evolve_windows(psi0, s, grid)[-1]
        assert np.max(np.abs(got - dense)) < 1e-9

    def test_end_state_equals_last_evolved_state(self):
        s = sin_power_schedule(3, 4)
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        _, states = evolve_state(psi0, s, 90)
        np.testing.assert_array_equal(final_state(psi0, s, n_steps=90), states[-1])

    def test_rejects_unnormalized_input(self):
        with pytest.raises(NumericalContractError):
            final_state(np.ones(4, dtype=complex), _zero_schedule(2), n_steps=4)

    def test_read_time_validation(self):
        psi0 = product_state(SiteAssignment.parse("0,0"))
        with pytest.raises(ValueError):
            final_state(psi0, _zero_schedule(2), read_time=3.0)
        with pytest.raises(ValueError):
            final_state(psi0, _zero_schedule(2), read_time=-0.1)


def _one_window(psi, dt, jx, jy, b):
    """exp(-i*dt*H) psi by the planned window loop, over a grid of one window of one stage."""
    grid, stages = np.array([0.0, dt]), np.array([[[jx, jy, b]]])
    theta = oracle._step_bound(len(psi).bit_length() - 1, np.diff(grid)[:, None], jx, jy, b)
    return list(oracle._step_windows(psi, grid, stages, theta))[-1][1]


def _random_state(n_sites, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=1 << n_sites) + 1j * rng.normal(size=1 << n_sites)
    return psi / np.linalg.norm(psi)


def _every_window(psi0, schedule, n_steps, read_time):
    """The last state of the window-by-window loop up to read_time, nothing merged."""
    windows = oracle._windows(psi0, schedule, n_steps, read_time)
    return list(oracle._step_windows(psi0, *windows))[-1][1]


def _count_calls(monkeypatch, *methods):
    calls = {name: 0 for name in methods}
    for name in methods:
        def counted(self, *args, _name=name, _method=getattr(oracle._ChainAction, name),
                    **kwargs):
            calls[_name] += 1
            return _method(self, *args, **kwargs)
        monkeypatch.setattr(oracle._ChainAction, name, counted)
    return calls


class TestEndStateMerge:
    """final_state steps each run of equal single-channel windows as one kick."""

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 8), scheme=st.sampled_from(["JxJy", "JxB"]),
           duration=st.floats(0.2, 3.0), n_steps=st.one_of(st.none(), st.integers(1, 300)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_ideal_kicks(self, n, scheme, duration, n_steps, seed):
        s = ideal_schedule(n, scheme, duration)
        psi0 = _random_state(n, seed)
        _, states = evolve_state(psi0, s, n_steps)
        np.testing.assert_allclose(final_state(psi0, s, n_steps=n_steps), states[-1],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 5), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_square_delta_on_and_off_the_grid(self, n, data, seed):
        if data.draw(st.booleans(), label="pulse edges on grid points"):
            spp = data.draw(st.integers(8, 60), label="steps per pi")
            j = data.draw(st.integers(1, (spp - 1) // 2), label="grid steps per half pulse")
            delta, n_steps = spp / (2 * j), 2 * n * spp
        else:
            delta = data.draw(st.floats(1.5, 20.0), label="delta")
            n_steps = data.draw(st.integers(20, 400).filter(lambda k: k % (2 * n)),
                                label="steps, not a multiple of 2N")
        s = square_schedule(n, delta)
        psi0 = _random_state(n, seed)
        _, states = evolve_state(psi0, s, n_steps)
        np.testing.assert_allclose(final_state(psi0, s, n_steps=n_steps), states[-1],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), data=st.data(), seed=st.integers(0, 2 ** 32 - 1))
    def test_json_ideal_schedule_with_gaps(self, n, data, seed):
        slots, t = [], 0.0
        for _ in range(data.draw(st.integers(1, 5), label="slots")):
            t += data.draw(st.sampled_from([0.0, 0.3, 1.7]), label="gap")
            duration = data.draw(st.floats(0.1, 2.0), label="duration")
            slots.append({"channel": data.draw(st.sampled_from(["Jx", "Jy", "B"]), label="channel"),
                          "start": t, "duration": duration,
                          "amplitude": data.draw(st.floats(-2.0, 2.0).filter(bool), label="amp")})
            t += duration
        s = schedule_from_json(json.loads(json.dumps(
            {"variant": "ideal_kicks", "n_sites": n, "slots": slots})))
        psi0 = _random_state(n, seed)
        n_steps = data.draw(st.one_of(st.none(), st.integers(1, 200)), label="steps")
        _, states = evolve_state(psi0, s, n_steps)
        np.testing.assert_allclose(final_state(psi0, s, n_steps=n_steps), states[-1],
                                   rtol=0, atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(n=st.integers(2, 6), scheme=st.sampled_from(["JxJy", "JxB"]), data=st.data(),
           n_steps=st.one_of(st.none(), st.integers(1, 300)), seed=st.integers(0, 2 ** 32 - 1))
    def test_read_time_inside_a_kick(self, n, scheme, data, n_steps, seed):
        s = ideal_schedule(n, scheme)
        slot = data.draw(st.sampled_from(s.slots), label="kick")
        read = slot.start + data.draw(st.floats(0.01, 0.99), label="fraction") * slot.duration
        psi0 = _random_state(n, seed)
        np.testing.assert_allclose(final_state(psi0, s, read, n_steps),
                                   _every_window(psi0, s, n_steps, read), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make", [lambda: ideal_schedule(3, "JxJy"),
                                      lambda: sin_power_schedule(3, 4)], ids=["ideal", "sin4"])
    def test_read_time_zero_is_the_initial_state(self, make):
        # the grid up to t = 0 has no window, so there is nothing to merge or step
        psi0 = _random_state(3, 11)
        np.testing.assert_array_equal(final_state(psi0, make(), read_time=0.0), psi0)

    def test_ghz_n12_is_twelve_kicks(self, monkeypatch):
        calls = _count_calls(monkeypatch, "kick", "taylor")
        report = ghz_compare(SiteAssignment.parse(",".join(["X+"] + ["0"] * 10 + ["X+"])))
        assert calls == {"kick": 12, "taylor": 0}
        assert report.fidelity == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    @pytest.mark.parametrize("n", range(2, 15))
    def test_ghz_is_one_kick_per_slot(self, monkeypatch, n, scheme):
        # every window inside a slot averages to the slot amplitude bit for bit, so no kick splits
        s = ideal_schedule(n, scheme)
        calls = _count_calls(monkeypatch, "kick", "taylor")
        ghz_compare(SiteAssignment.parse(",".join(["X+"] + ["0"] * (n - 2) + ["X+"])), s)
        assert calls == {"kick": len(s.slots), "taylor": 0}

    def test_square_pulse_windows_keep_one_taylor_step_each(self, monkeypatch):
        # one kick per J-only stretch (head, N - 2 between pulses, tail), the pulses as before
        s = square_schedule(4, 16.0)
        grid = oracle.step_grid(s, oracle.default_steps(s))
        pulse_windows = int(np.sum(np.count_nonzero(oracle.window_stages(s, grid)[:, 0], axis=1) > 1))
        calls = _count_calls(monkeypatch, "kick", "taylor")
        final_state(product_state(SiteAssignment.parse("+,0,0,0")), s)
        assert calls == {"kick": 4, "taylor": pulse_windows}

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 4), (4, 6), (5, 8)])
    def test_sin_power_is_bit_identical(self, monkeypatch, n, m):
        # sin^m windows all mix Jx and B: nothing merges, so the end state and
        # the Monte-Carlo columns are the window-by-window results bit for bit
        s = sin_power_schedule(n, m)
        psi0 = _random_state(n, n)
        _, states = evolve_state(psi0, s, 40 * n)
        np.testing.assert_array_equal(final_state(psi0, s, n_steps=40 * n), states[-1])
        merged = monte_carlo_average_fidelity(s, 300, seed=5, read_time=2.5, n_steps=40 * n)
        monkeypatch.setattr(oracle, "_merge_runs", lambda n_sites, *windows: windows)
        assert merged == monte_carlo_average_fidelity(s, 300, seed=5, read_time=2.5, n_steps=40 * n)

    def test_run_past_the_substep_cap_keeps_its_windows(self):
        # each of the 10 windows has bound 100 * 1000 = 1e5 < 0.4 * 2^20; the whole kick 1e6
        s = IdealKickSchedule(2, [KickSlot("Jx", 0.0, 1000.0, 1000.0)])
        psi0 = product_state(SiteAssignment.parse("+,0"))
        _, states = evolve_state(psi0, s, 10)
        np.testing.assert_array_equal(final_state(psi0, s, n_steps=10), states[-1])

    @pytest.mark.parametrize("run", [
        lambda psi0, s: final_state(psi0, s, n_steps=40),
        lambda psi0, s: ghz_compare(SiteAssignment.parse("X+,0,X+"), s, n_steps=40),
    ], ids=["final_state", "ghz_compare"])
    def test_huge_amplitude_is_refused_before_any_step(self, monkeypatch, run):
        # the whole kick would step in closed form; its windows' bounds are still checked,
        # all of them before the first window is stepped
        s = IdealKickSchedule(3, [KickSlot("Jx", 0.0, 1.0, 0.5), KickSlot("Jy", 1.0, 1.0, 1e9)])
        calls = _count_calls(monkeypatch, "kick", "taylor")
        with pytest.raises(NumericalContractError, match="substeps"):
            run(product_state(SiteAssignment.parse("+,0,0")), s)
        assert calls == {"kick": 0, "taylor": 0}


class TestReceiverDensity:
    def test_pure_product(self):
        phi = np.array([0.6, 0.8j])
        rho = receiver_density(np.kron(product_state(SiteAssignment.parse("0,0")), phi))
        np.testing.assert_allclose(rho, np.outer(phi, phi.conj()), atol=1e-15)

    def test_maximally_mixed_from_bell_pair(self):
        bell = np.array([1, 0, 0, 1]) / math.sqrt(2)
        rho = receiver_density(bell)
        np.testing.assert_allclose(rho, np.eye(2) / 2, atol=1e-15)


class TestMonteCarloFidelity:
    def test_zero_schedule_gives_one_half(self):
        # the receiver never leaves |0>, so each sample contributes |<phi|0>|^2
        mean, stderr = monte_carlo_average_fidelity(_zero_schedule(3), 2000, seed=5)
        assert abs(mean - 0.5) < 4 * stderr
        assert mean == pytest.approx(0.5, abs=0.05)

    def test_ideal_transfer_is_perfect_after_correction(self):
        # arrival signs are a local frame change, absorbed by the correction
        mean, stderr = monte_carlo_average_fidelity(
            ideal_schedule(3, "JxJy"), 500, seed=11, n_steps=30)
        assert mean == pytest.approx(1.0, abs=1e-9)
        mean, _ = monte_carlo_average_fidelity(
            ideal_schedule(4, "JxB"), 500, seed=11, n_steps=40)
        assert mean == pytest.approx(1.0, abs=1e-9)

    def test_seed_reproducibility(self):
        s = sin_power_schedule(3, 4)
        a = monte_carlo_average_fidelity(s, 200, seed=3, n_steps=120)
        b = monte_carlo_average_fidelity(s, 200, seed=3, n_steps=120)
        c = monte_carlo_average_fidelity(s, 200, seed=4, n_steps=120)
        assert a == b
        assert a != c

    @pytest.mark.parametrize("schedule,read_time", [
        (sin_power_schedule(5, 6), None), (sin_power_schedule(4, 4), 9.0),
        (ideal_schedule(4, "JxB"), 3.5),
    ])
    def test_blocks_match_per_sample_states(self, schedule, read_time):
        # reference: each sample's 2^N state a u0 + b u1 and its own partial trace
        n, samples, seed = schedule.n_sites, 300, 17
        mean, stderr = monte_carlo_average_fidelity(schedule, samples, seed, read_time, 80)
        e0, e1 = np.zeros(1 << n, complex), np.zeros(1 << n, complex)
        e0[0], e1[1 << (n - 1)] = 1.0, 1.0
        u0, u1 = (final_state(e, schedule, read_time, 80) for e in (e0, e1))
        plus = (u0 + u1) / math.sqrt(2.0)
        rz, rx = (oracle._bloch(receiver_density(u)) for u in (u0, plus))
        correction = np.eye(3)  # the documented fallback: no transfer, no probe direction
        if np.linalg.norm(rz) >= 1e-9:  # ideal JxB at 3.5 leaves the receiver fully mixed
            axis_z = rz / np.linalg.norm(rz)
            axis_x = rx - (rx @ axis_z) * axis_z
            axis_x /= np.linalg.norm(axis_x)
            correction = np.vstack([axis_x, np.cross(axis_z, axis_x), axis_z])
        draws = np.random.default_rng(seed).normal(size=(samples, 4))
        fids = []
        for d in draws:
            a, b = d[0] + 1j * d[1], d[2] + 1j * d[3]
            a, b = np.array([a, b]) / math.sqrt(abs(a) ** 2 + abs(b) ** 2)
            ab = np.conj(a) * b
            r_in = np.array([2.0 * ab.real, 2.0 * ab.imag, abs(a) ** 2 - abs(b) ** 2])
            r_out = correction @ oracle._bloch(receiver_density(a * u0 + b * u1))
            fids.append(min(1.0, max(0.0, 0.5 * (1.0 + r_in @ r_out))))
        assert mean == pytest.approx(np.mean(fids), abs=1e-13)
        assert stderr == pytest.approx(np.std(fids, ddof=1) / math.sqrt(samples), abs=1e-13)

    def test_single_sample_has_zero_stderr(self):
        _, stderr = monte_carlo_average_fidelity(_zero_schedule(2), 1, seed=1)
        assert stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_average_fidelity(_zero_schedule(2), 0, seed=1)


class _Boxcars(PulseSchedule):
    """Boxcars on any channels over [0, total_time]; where they overlap, windows are mixed."""

    def __init__(self, n_sites, boxcars, total_time):
        self.n_sites = n_sites
        self.total_time = total_time
        self._set_boxcars(boxcars)


class TestParity:
    """H conserves prod Z: one pass of the X+ sender carries both Monte-Carlo columns."""

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(2, 12),
           boxcars=st.lists(st.tuples(st.sampled_from(CHANNELS), st.floats(0.0, 3.0), st.floats(0.1, 1.5),
                                      st.floats(-1.0, 1.0).filter(bool)), min_size=1, max_size=5),
           n_steps=st.integers(3, 12), read_time=st.floats(0.0, 3.0))
    @example(n=9, boxcars=[("Jx", 0.0, 0.125, 0.75), ("Jx", 0.1875, 1.0, 0.25),
                           ("B", 0.109375, 1.5, 0.9930312613259735)], n_steps=3, read_time=2.0)
    def test_one_pass_halves_are_the_two_columns(self, n, boxcars, n_steps, read_time):
        # N = 2..10 apply H by the gather, 11 and 12 bond by bond.  The sectors never mix, so
        # each half is its column's own pass started from 1/sqrt(2) in place of 1: the same
        # operations on a scaled input, which differ from the column's only in rounding.  A
        # kick or a Taylor level (2^depth * degree per window) rounds each entry about 4N times,
        # a complex product and a sum per bond or term of H, half an ulp each: 2N ulps per
        # level in each of the two passes, and sqrt(2) * half adds one ulp
        s = _Boxcars(n, [(c, t0, t0 + d, a) for c, t0, d, a in boxcars], 3.0)
        psi = final_state(product_state(SiteAssignment.parse(",".join(["+"] + ["0"] * (n - 1)))),
                          s, read_time, n_steps)
        _, stages, theta = oracle._merge_runs(n, *oracle._windows(psi, s, n_steps, read_time))
        single, depth, degree = oracle._plan(stages.reshape(-1, 3), theta.ravel())
        ulps = 1 + 2 * 2 * n * int(np.where(single, 1, degree << depth).sum())
        odd = oracle._odd_parity(n)
        for column, half in ((0, ~odd), (1 << (n - 1), odd)):
            e = np.zeros(1 << n, dtype=complex)
            e[column] = 1.0
            got, want = math.sqrt(2.0) * np.where(half, psi, 0.0), final_state(e, s, read_time, n_steps)
            assert not want[~half].any()
            scale = np.spacing(max(np.abs(got).max(), np.abs(want).max()))
            np.testing.assert_allclose(got, want, rtol=0, atol=ulps * scale)

    @pytest.mark.parametrize("n", [3, 12])
    def test_odd_parity_counts_flipped_sites(self, n):
        idx = np.arange(1 << n)
        np.testing.assert_array_equal(oracle._odd_parity(n),
                                      [bin(i).count("1") % 2 == 1 for i in idx.tolist()])

    def test_weight_moved_between_sectors_is_refused(self, monkeypatch):
        # a unit-norm state all in the even sector passes the whole-state check, not the
        # odd half's: the one-pass Monte-Carlo keeps a norm check per column
        def to_even(self, psi, *args):
            out = np.zeros_like(psi)
            out[0] = 1.0
            return out
        monkeypatch.setattr(oracle._ChainAction, "taylor", to_even)
        with pytest.raises(NumericalContractError, match="odd-parity half"):
            monte_carlo_average_fidelity(sin_power_schedule(4, 6), 10, seed=1)


class TestMirrorState:
    def test_basis_states(self):
        psi = np.zeros(4)
        psi[1] = 1.0  # |01>
        out = mirror_state(psi, 2)
        expected = np.zeros(4)
        expected[2] = 1.0  # |10>
        np.testing.assert_array_equal(out, expected)

    def test_involution(self):
        rng = np.random.default_rng(23)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = psi / np.linalg.norm(psi)
        np.testing.assert_allclose(mirror_state(mirror_state(psi, 3), 3), psi)

    def test_length_validation(self):
        with pytest.raises(ValueError):
            mirror_state(np.zeros(6), 3)

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_string_reversal(self, n):
        psi = np.arange(1 << n) + 0.5j
        expected = np.empty_like(psi)
        for i in range(1 << n):
            expected[int(format(i, f"0{n}b")[::-1], 2)] = psi[i]
        np.testing.assert_array_equal(mirror_state(psi, n), expected)


class TestGhz:
    @pytest.mark.parametrize("tokens", ["X+,0,0,X+", "X-,0,0,X-", "X+,X+,X+,X+"])
    def test_two_x_sites_n4(self, tokens):
        report = ghz_compare(SiteAssignment.parse(tokens))
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        assert report.phase_index in (0, 1)

    def test_six_sites(self):
        report = ghz_compare(SiteAssignment.parse("X+,0,0,0,0,X+"))
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_y_basis_assignment(self):
        a = SiteAssignment([("Y", 1), ("Z", 1), ("Z", 1), ("Y", 1)])
        report = ghz_compare(a)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    def test_all_z_is_exact_mirror_product(self):
        a = SiteAssignment.parse("1,0,0,1")
        report = ghz_compare(a)
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)
        mirrored = mirror_state(product_state(a), 4)
        np.testing.assert_allclose(np.abs(report.predicted), np.abs(mirrored), atol=1e-12)
        overlap = abs(np.vdot(report.predicted, report.evolved)) ** 2
        assert overlap == pytest.approx(1.0, abs=1e-9)

    def test_equal_weight_two_branch_structure(self):
        # the evolved state splits evenly over the branch and its Z-flip
        a = SiteAssignment.parse("X+,0,0,X+")
        report = ghz_compare(a)
        p1 = mirror_state(product_state(a), 4)
        flipped = SiteAssignment([("X", -1), ("Z", 1), ("Z", 1), ("X", -1)])
        p2 = mirror_state(product_state(flipped), 4)
        assert abs(np.vdot(p1, report.evolved)) ** 2 == pytest.approx(0.5, abs=1e-9)
        assert abs(np.vdot(p2, report.evolved)) ** 2 == pytest.approx(0.5, abs=1e-9)

    def test_jxb_scheme(self):
        a = SiteAssignment.parse("X+,0,0,X+")
        report = ghz_compare(a, ideal_schedule(4, "JxB"))
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    @pytest.mark.parametrize("tokens", [
        "X+,0,X+", "X-,1,X-", "Y+,0,Y+", "X+,X+,X+", "X+,0,0,0,X+", "Y-,1,0,1,Y-",
        "X+,X-,0,X-,X+", "X+,0,X+,1,X+,0,X+", ",".join(["X+"] + ["0"] * 11 + ["X+"])])
    def test_odd_n(self, tokens, scheme):
        # the kicks keep X (Y) at the mirror site for odd N, so the branches take a phase gate
        a = SiteAssignment.parse(tokens)
        report = ghz_compare(a, ideal_schedule(a.n_sites, scheme))
        assert report.fidelity == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n", range(2, 9))
    def test_kicks_keep_the_letter_at_the_mirror_site_for_odd_n(self, n):
        # the rule behind the GHZ phase gate, against the dense conjugation by the JxJy
        # quarter-turn kicks: X_s (Y_s) lands on site N + 1 - s as the same letter for odd N
        # and as the other letter for even N, for every site s
        u = np.eye(1 << n)
        for slot in ideal_schedule(n, "JxJy").slots:
            jx, jy = (1.0, 0.0) if slot.channel == "Jx" else (0.0, 1.0)
            u = expm(-0.25j * np.pi * oracles.chain_hamiltonian(n, jx, jy, 0.0)) @ u

        def letter_at(image, site):
            # a Pauli string's letter at a site: which of X and Z there it anticommutes with
            anti = []
            for q in (oracles.site_matrix(n, site, op) for op in "XZ"):
                anti.append(np.allclose(image @ q, -q @ image, atol=1e-9))
                assert anti[-1] or np.allclose(image @ q, q @ image, atol=1e-9)
            return {(False, False): "I", (False, True): "X", (True, True): "Y", (True, False): "Z"}[
                tuple(anti)]

        for site in range(1, n + 1):
            for letter in "XY":
                image = u @ oracles.site_matrix(n, site, letter) @ u.conj().T
                want = letter if n % 2 else {"X": "Y", "Y": "X"}[letter]
                assert letter_at(image, n + 1 - site) == want, (site, letter)

    def test_mixed_bases_rejected(self):
        a = SiteAssignment([("X", 1), ("Z", 1), ("Z", 1), ("Y", 1)])
        with pytest.raises(ValueError):
            ghz_compare(a)

    def test_schedule_size_mismatch(self):
        with pytest.raises(ValueError):
            ghz_compare(SiteAssignment.parse("0,0,0"), ideal_schedule(4, "JxJy"))


class TestResourceCap:
    def test_product_state_capped(self):
        with pytest.raises(ResourceCapError):
            product_state(SiteAssignment.uniform(16))

    def test_cap_is_fourteen_sites(self):
        assert len(product_state(SiteAssignment.uniform(14))) == 2 ** 14
        with pytest.raises(ResourceCapError, match=r"^N=15 exceeds the cap of 14 sites$"):
            product_state(SiteAssignment.uniform(15))

    def test_cap_has_no_override(self):
        for fn in (product_state, evolve_state, final_state, heisenberg_expectation,
                   monte_carlo_average_fidelity, ghz_compare):
            assert "allow_large" not in inspect.signature(fn).parameters, fn.__name__

    def test_evolution_capped(self):
        with pytest.raises(ResourceCapError):
            monte_carlo_average_fidelity(_zero_schedule(16), 10, seed=1)

    def test_evolve_state_caps_the_stored_states(self, monkeypatch):
        psi0 = product_state(SiteAssignment.parse("+,0,0"))
        s = sin_power_schedule(3, 6)
        times, states = evolve_state(psi0, s, 40)
        monkeypatch.setattr(oracle, "MAX_STATE_AMPLITUDES", len(times) * 8)
        np.testing.assert_array_equal(evolve_state(psi0, s, 40)[1], states)  # at the cap
        monkeypatch.setattr(oracle, "MAX_STATE_AMPLITUDES", len(times) * 8 - 1)
        monkeypatch.setattr(oracle, "_step_windows", lambda *args: pytest.fail("stepped"))
        with pytest.raises(ResourceCapError, match=f"^{len(times)} times x 8 amplitudes exceed"):
            evolve_state(psi0, s, 40)

    def test_sin6_default_grid_is_stored_up_to_twelve_sites(self, monkeypatch):
        monkeypatch.setattr(oracle, "_step_windows", lambda *args: pytest.fail("stepped"))
        psi0 = product_state(SiteAssignment.uniform(13))
        tracemalloc.start()
        try:
            with pytest.raises(ResourceCapError, match="^5201 times x 8192 amplitudes exceed the "
                                                       f"cap of {2 ** 25} stored amplitudes$"):
                evolve_state(psi0, sin_power_schedule(13, 6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20  # the grid and its stage table, not the 682 MB series
        assert 4801 * 2 ** 12 <= oracle.MAX_STATE_AMPLITUDES  # N = 12 on its default grid


class TestDumpStateJson:
    def test_plus_state(self):
        psi = product_state(SiteAssignment.parse("+,0"))
        entries = json.loads(dump_state_json(psi))
        assert entries == [["00", pytest.approx(1 / math.sqrt(2)), 0.0],
                           ["10", pytest.approx(1 / math.sqrt(2)), 0.0]]

    def test_threshold_drops_small_amplitudes(self):
        psi = np.array([1.0, 1e-13, 0.0, 0.0], dtype=complex)
        entries = json.loads(dump_state_json(psi))
        assert entries == [["00", 1.0, 0.0]]

    def test_length_validation(self):
        with pytest.raises(ValueError):
            dump_state_json(np.zeros(3))

    @pytest.mark.parametrize("n", [2, 4, 9])
    def test_matches_the_per_amplitude_loop(self, n):
        rng = np.random.default_rng(n)
        psi = (rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)) * rng.choice(
            [0.0, 1e-13, 1.0], size=1 << n)
        threshold = 1e-12
        psi[:3] = [threshold, threshold * 1j, -threshold]  # exactly at the threshold: dropped
        psi[-1] = np.nextafter(threshold, 1.0)
        for state in (psi, psi / np.linalg.norm(psi), psi.real.copy()):
            entries = [[format(i, f"0{n}b"), float(np.real(amp)), float(np.imag(amp))]
                       for i, amp in enumerate(state) if abs(amp) > threshold]
            assert dump_state_json(state, threshold) == json.dumps(entries)
