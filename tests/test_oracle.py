import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spinkick import oracle
from spinkick import (IdealKickSchedule, KickSlot, PulseSchedule, SiteAssignment,
                      SinPowerSchedule, dump_state_json, evolve_state, final_state,
                      ghz_compare, heisenberg_expectation,
                      ideal_schedule, mirror_state, monte_carlo_average_fidelity,
                      pauli_expectation, product_state, receiver_density,
                      sin_power_schedule)
from spinkick.exceptions import NumericalContractError, ResourceCapError

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

    def test_explicit_entries(self):
        a = SiteAssignment([[0.6, 0.8], ("Z", 1)])
        np.testing.assert_allclose(product_state(a), [0.6, 0, 0.8, 0], atol=1e-15)


class TestPauliExpectation:
    def test_frozen_values(self):
        zz = product_state(SiteAssignment.parse("0,0"))
        assert pauli_expectation(zz, "ZI") == pytest.approx(1.0)
        assert pauli_expectation(zz, "IZ") == pytest.approx(1.0)
        assert pauli_expectation(zz, "XI") == pytest.approx(0.0)
        plus = product_state(SiteAssignment.parse("+,0"))
        assert pauli_expectation(plus, "XI") == pytest.approx(1.0)
        assert pauli_expectation(plus, "IX") == pytest.approx(0.0)
        yplus = product_state(SiteAssignment([("Y", 1), ("Z", -1)]))
        assert pauli_expectation(yplus, "YI") == pytest.approx(1.0)
        assert pauli_expectation(yplus, "IZ") == pytest.approx(-1.0)

    @pytest.mark.parametrize("n_sites", [2, 3])
    def test_against_dense_on_random_states(self, n_sites):
        rng = np.random.default_rng(17)
        for _ in range(20):
            psi = rng.normal(size=2 ** n_sites) + 1j * rng.normal(size=2 ** n_sites)
            psi = psi / np.linalg.norm(psi)
            for labels in oracles.all_label_tuples(n_sites):
                got = pauli_expectation(psi, "".join(labels))
                want = oracles.pauli_expectation(psi, labels)
                assert got == pytest.approx(want, abs=1e-12)

    def test_validation(self):
        psi = product_state(SiteAssignment.parse("0,0"))
        with pytest.raises(ValueError):
            pauli_expectation(psi, "ZZZ")
        with pytest.raises(ValueError):
            pauli_expectation(psi, "ZQ")


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
            assert pauli_expectation(s, "XI") == pytest.approx(math.cos(2 * b * t), abs=1e-12)
            assert pauli_expectation(s, "YI") == pytest.approx(math.sin(2 * b * t), abs=1e-12)
            assert pauli_expectation(s, "ZI") == pytest.approx(0.0, abs=1e-12)

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
        got = oracle._ChainAction(n).step(psi, dt, jx, jy, b)
        want = expm(-1j * dt * oracles.chain_hamiltonian(n, jx, jy, b)) @ psi
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)
        assert abs(np.linalg.norm(got) - 1.0) <= 1e-12

    @pytest.mark.parametrize("amplitude", [1e30, np.inf, np.nan])
    def test_depth_guard(self, amplitude):
        psi = product_state(SiteAssignment.parse("+,0"))
        with pytest.raises(NumericalContractError, match="substeps"):
            oracle._ChainAction(2).step(psi, 1.0, amplitude, 0.0, 0.0)

    @pytest.mark.parametrize("run", [
        lambda psi0, s: final_state(psi0, s, n_steps=1),
        lambda psi0, s: evolve_state(psi0, s, 1),
        lambda psi0, s: monte_carlo_average_fidelity(s, 10, seed=1, n_steps=1),
    ], ids=["final_state", "evolve_state", "monte_carlo"])
    def test_huge_kick_raises_instead_of_hanging(self, monkeypatch, run):
        apply = oracle._ChainAction.apply
        calls = []

        def counted(self, *args):
            calls.append(None)
            if len(calls) > 1000:
                raise AssertionError("the step kept subdividing past 1000 H applications")
            return apply(self, *args)

        monkeypatch.setattr(oracle._ChainAction, "apply", counted)
        kick = IdealKickSchedule(2, [KickSlot("Jx", 0.0, 1.0, 1e30)])
        with pytest.raises(NumericalContractError, match="substeps"):
            run(product_state(SiteAssignment.parse("+,0")), kick)
        assert not calls


class TestConservationLaws:
    def test_field_conserves_every_z(self):
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        _, states = evolve_state(psi0, _field_only(3, 0.7), 12)
        for label in ("ZII", "IZI", "IIZ"):
            ref = pauli_expectation(states[0], label)
            for s in states:
                assert pauli_expectation(s, label) == pytest.approx(ref, abs=1e-12)

    def test_balanced_coupling_conserves_total_z(self):
        # [XX + YY, Z_i + Z_{i+1}] = 0, so Jx = Jy preserves total magnetization
        psi0 = product_state(SiteAssignment.parse("+,0,1"))
        _, states = evolve_state(psi0, _UniformXY(3, 0.8, 4.0), 60)
        total0 = sum(pauli_expectation(states[0], l) for l in ("ZII", "IZI", "IIZ"))
        for s in states[::6]:
            total = sum(pauli_expectation(s, l) for l in ("ZII", "IZI", "IIZ"))
            assert total == pytest.approx(total0, abs=1e-10)

    def test_unbalanced_coupling_does_not_conserve_total_z(self):
        psi0 = product_state(SiteAssignment.parse("0,0,0"))
        _, states = evolve_state(psi0, sin_power_schedule(3, 4), 200)
        totals = [sum(pauli_expectation(s, l) for l in ("ZII", "IZI", "IIZ"))
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
        """The streamed Bloch component equals pauli_expectation on the stored series."""
        s = make()
        sender = np.array([1.0, np.exp(0.25j * np.pi)]) / math.sqrt(2.0)  # <X> = <Y> = 0.71
        psi0 = product_state(SiteAssignment([sender] + [("Z", 1)] * (s.n_sites - 1)))
        times, values = heisenberg_expectation(op, psi0, s, n_steps)
        ref_times, states = evolve_state(psi0, s, n_steps)
        label = "I" * (s.n_sites - 1) + op
        np.testing.assert_array_equal(times, ref_times)
        np.testing.assert_allclose(values, [pauli_expectation(p, label) for p in states],
                                   rtol=0, atol=1e-14)
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


class TestReceiverDensity:
    def test_pure_product(self):
        phi = np.array([0.6, 0.8j])
        a = SiteAssignment([("Z", 1), ("Z", 1), phi])
        rho = receiver_density(product_state(a))
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

    def test_single_sample_has_zero_stderr(self):
        _, stderr = monte_carlo_average_fidelity(_zero_schedule(2), 1, seed=1)
        assert stderr == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_average_fidelity(_zero_schedule(2), 0, seed=1)


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

    def test_mixed_bases_rejected(self):
        a = SiteAssignment([("X", 1), ("Z", 1), ("Z", 1), ("Y", 1)])
        with pytest.raises(ValueError):
            ghz_compare(a)

    def test_explicit_vectors_rejected(self):
        a = SiteAssignment([[1.0, 0.0], ("Z", 1)])
        with pytest.raises(ValueError):
            ghz_compare(a)

    def test_schedule_size_mismatch(self):
        with pytest.raises(ValueError):
            ghz_compare(SiteAssignment.parse("0,0,0"), ideal_schedule(4, "JxJy"))


class TestResourceCap:
    def test_product_state_capped(self):
        with pytest.raises(ResourceCapError):
            product_state(SiteAssignment.uniform(16))

    def test_override(self):
        psi = product_state(SiteAssignment.uniform(15), allow_large=True)
        assert len(psi) == 2 ** 15

    def test_evolution_capped(self):
        with pytest.raises(ResourceCapError):
            monte_carlo_average_fidelity(_zero_schedule(16), 10, seed=1)


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
