import copy
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spinkick import (FluxResult, IdealKickSchedule, KickSlot, SiteAssignment,
                      SinPowerSchedule, build_graph, chain, generator_matrices,
                      information_flux, max_alpha, propagate, series_csv,
                      sin_power_schedule, square_schedule, summary, ideal_schedule)
from spinkick.exceptions import NumericalContractError
from spinkick import flux
from spinkick.flux import default_steps, expm_series
from spinkick.pulses import step_grid, window_amplitudes

import oracles


def _gen(n_sites):
    return generator_matrices(build_graph(n_sites))


def _field_only(n_sites, amplitude, duration=1.0):
    return IdealKickSchedule(n_sites, [KickSlot("B", 0.0, duration, amplitude)])


class TestExpmSeries:
    def test_identity_for_zero(self):
        np.testing.assert_array_equal(expm_series(np.zeros((4, 4))), np.eye(4))

    @pytest.mark.parametrize("dim", [2, 6, 20, 50])
    def test_matches_scipy_on_antisymmetric(self, dim):
        rng = np.random.default_rng(dim)
        a = rng.normal(size=(dim, dim))
        a = a - a.T
        np.testing.assert_allclose(expm_series(a), expm(a), atol=1e-12)

    def test_orthogonality_preserved(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(10, 10))
        a = 3.0 * (a - a.T)
        u = expm_series(a)
        np.testing.assert_allclose(u @ u.T, np.eye(10), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 10),
           jx=st.floats(-3.0, 3.0), jy=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
           dt=st.floats(1e-3, 4.0))
    def test_window_maps_match_scipy(self, n, jx, jy, b, dt):
        # window generators of every chain length, 1-norms up to ~70 (depth up to 8)
        a = 2.0 * dt * chain(n).combined(jx, jy, b)
        u = expm_series(a)
        np.testing.assert_allclose(u, expm(a), rtol=0, atol=1e-12)
        np.testing.assert_allclose(u @ u.T, np.eye(2 * n), rtol=0, atol=1e-12)

    def test_squaring_is_exercised(self):
        a = 2.0 * 4.0 * chain(10).combined(3.0, -3.0, 3.0)
        assert np.linalg.norm(a, 1) > 32.0  # at least six halvings
        np.testing.assert_allclose(expm_series(a), expm(a), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e30, np.inf, np.nan])
    def test_depth_guard(self, scale):
        a = np.array([[0.0, scale], [-scale, 0.0]])
        with pytest.raises(NumericalContractError, match="too large"):
            expm_series(a)


class TestPropagate:
    def test_zero_schedule_is_constant(self):
        s = SinPowerSchedule(3, 2, 0.0, 0.0)
        r = propagate(_gen(3), s, 16)
        assert np.all(r.alphas[:, 0] == 1.0)
        assert np.max(np.abs(r.alphas[:, 1:])) == 0.0

    def test_field_only_rotation(self):
        """A pure field rotates the receiver pair: X_N picks up cos(2*beta)
        and Y_N picks up -sin(2*beta), with beta the accumulated field area."""
        beta_rate = math.pi / 4
        s = _field_only(5, beta_rate)
        r = propagate(_gen(5), s, 8)
        beta = beta_rate * r.times
        np.testing.assert_allclose(r.alpha_series(1), np.cos(2 * beta), atol=1e-12)
        np.testing.assert_allclose(r.alpha_series(6), -np.sin(2 * beta), atol=1e-12)
        others = np.delete(r.alphas, [0, 5], axis=1)
        assert np.max(np.abs(others)) == 0.0

    def test_field_only_sign_against_dense_heisenberg(self):
        # same quantity from first principles: project U^dag X_N U on Y_N
        s = _field_only(2, 0.3, duration=1.0)
        grid = np.array([0.0, 0.5, 1.0])
        dense = oracles.heisenberg_coefficients(s, grid, build_graph(2).nodes)
        np.testing.assert_allclose(dense[:, 0], np.cos(2 * 0.3 * grid), atol=1e-12)
        np.testing.assert_allclose(dense[:, 2], -np.sin(2 * 0.3 * grid), atol=1e-12)

    @pytest.mark.parametrize("n_sites,schedule_maker", [
        (2, lambda n: ideal_schedule(n, "JxJy")),
        (3, lambda n: ideal_schedule(n, "JxB")),
        (3, lambda n: sin_power_schedule(n, 4)),
        (4, lambda n: square_schedule(n, 6.0)),
    ])
    def test_full_series_against_dense_heisenberg(self, n_sites, schedule_maker):
        """Every coefficient at every stored time must equal the projection of
        the dense Heisenberg-evolved receiver operator onto the node strings.
        Same window discretization on both sides, independent algebra."""
        s = schedule_maker(n_sites)
        n_steps = 40
        r = propagate(_gen(n_sites), s, n_steps)
        dense = oracles.heisenberg_coefficients(s, r.times, r.nodes)
        np.testing.assert_allclose(r.alphas, dense, atol=1e-10)

    def test_y_seed_against_dense(self):
        # seeding the Y_N node propagates the partner family
        n = 3
        s = ideal_schedule(n, "JxJy")
        r = propagate(_gen(n), s, 24, seed=n + 1)
        g = build_graph(n)
        y_n = oracles.site_matrix(n, n, "Y")
        mats = [oracles.string_matrix(str(p)) for p in g.nodes]
        u = np.eye(2 ** n, dtype=complex)
        for i in range(1, len(r.times)):
            jx, jy, b = s.average_amplitudes(r.times[i - 1], r.times[i])
            h = oracles.chain_hamiltonian(n, jx, jy, b)
            u = expm(-1j * (r.times[i] - r.times[i - 1]) * h) @ u
        heis = u.conj().T @ y_n @ u
        dense = [np.real(np.trace(m @ heis)) / 2 ** n for m in mats]
        np.testing.assert_allclose(r.alphas[-1], dense, atol=1e-10)

    @pytest.mark.parametrize("n_sites,scheme,expected", [
        (3, "JxJy", -1.0), (5, "JxJy", 1.0), (7, "JxJy", -1.0),
        (3, "JxB", 1.0), (5, "JxB", 1.0), (4, "JxB", -1.0), (6, "JxB", -1.0),
    ])
    def test_ideal_transfer_signs(self, n_sites, scheme, expected):
        s = ideal_schedule(n_sites, scheme)
        r = propagate(_gen(n_sites), s, 1)
        assert r.alphas[-1, n_sites - 1] == pytest.approx(expected, abs=1e-12)

    def test_norms_conserved(self):
        r = propagate(_gen(4), sin_power_schedule(4, 6), 400)
        np.testing.assert_allclose(r.norms(), 1.0, atol=1e-12)

    def test_kick_confinement(self):
        # a single Jy kick only moves weight between the seed and its partner
        n = 4
        s = IdealKickSchedule(n, [KickSlot("Jy", 0.0, 1.0, 0.3)])
        r = propagate(_gen(n), s, 10)
        active = {0, 1}
        others = [j for j in range(2 * n) if j not in active]
        assert np.max(np.abs(r.alphas[:, others])) == 0.0

    def test_convergence_is_second_order(self):
        """Window-averaged stepping has O(h^2) error for smooth drives, so
        halving the step should cut the error at a fixed time by about 4."""
        n = 3
        s = sin_power_schedule(n, 4)
        k = _gen(n)
        values = []
        for n_steps in (40, 80, 160):
            r = propagate(k, s, n_steps)
            mid = len(r.times) // 2  # nested grids, common midpoint
            values.append(r.alphas[mid, n - 1])
        ratio = (values[0] - values[1]) / (values[1] - values[2])
        assert 3.0 < ratio < 5.0

    def test_validation(self):
        k = _gen(3)
        with pytest.raises(ValueError):
            propagate(k, sin_power_schedule(4, 4))
        with pytest.raises(ValueError):
            propagate(k, sin_power_schedule(3, 4), seed=7)
        with pytest.raises(ValueError):
            propagate(k, sin_power_schedule(3, 4), seed=0)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    def test_ideal_kicks_transfer_exactly_for_every_length(self, scheme):
        # the closed-form kick order must follow the graph path for odd and even N
        for n in range(2, 13):
            r = propagate(_gen(n), ideal_schedule(n, scheme), 1)
            assert abs(r.alphas[-1, n - 1]) == pytest.approx(1.0, abs=1e-9), n

    @pytest.mark.parametrize("n_sites", range(2, 8))
    @pytest.mark.parametrize("make", [
        lambda n: sin_power_schedule(n, 6), lambda n: square_schedule(n, 8.0),
        lambda n: ideal_schedule(n, "JxJy"), lambda n: ideal_schedule(n, "JxB"),
    ], ids=["sin6", "square8", "JxJy", "JxB"])
    def test_transfer_block_matches_both_seeded_runs(self, n_sites, make):
        s, k = make(n_sites), _gen(n_sites)
        rx = propagate(k, s, 60, seed=1)
        ry = propagate(k, s, 60, seed=n_sites + 1)
        # the site-1 X node is canonical index N for odd N and 2N for even N
        x1 = n_sites if n_sites % 2 else 2 * n_sites
        y1 = 2 * n_sites if n_sites % 2 else n_sites
        assert rx.nodes[x1 - 1].op_at(1) == "X" and rx.nodes[y1 - 1].op_at(1) == "Y"
        for result in (rx, ry):  # either seed's run records the block of both
            assert result.transfer.shape == (len(result.times), 2, 2)
            for row, node in enumerate((x1, y1)):
                for col, seeded in enumerate((rx, ry)):
                    np.testing.assert_allclose(result.transfer[:, row, col],
                                               seeded.alpha_series(node), rtol=0, atol=1e-12)

    def test_default_steps_scale(self):
        s = sin_power_schedule(5, 6)  # total time 10*pi
        assert default_steps(s) == 4000
        assert default_steps(s, 3) == 30
        assert default_steps(ideal_schedule(3, "JxJy"), 1) == 1

    def test_default_steps_are_whole_periods(self):
        # 400 * (2*17*pi) / pi is 13600.000000000002: float noise must not add a window
        for n in range(2, 201):
            assert default_steps(sin_power_schedule(n, 6)) == 800 * n, n
            assert default_steps(square_schedule(n, 8.0)) == 800 * n, n


def _window_loop(schedule):
    """A copy of the schedule that declares no periodicity: every window is stepped."""
    schedule = copy.copy(schedule)
    schedule.periodicity = lambda: None
    return schedule


def _reused_periods(schedule, n_steps):
    grid = step_grid(schedule, n_steps)
    return flux._period_windows(schedule, grid, window_amplitudes(schedule, grid))[2]


class _Ramped(SinPowerSchedule):
    """Inherits the sin^m periodicity but breaks it with a slow rise of J_x."""

    def average_amplitudes(self, t0, t1):
        jx, jy, b = super().average_amplitudes(t0, t1)
        return jx * (1.0 + 0.01 * (t0 + t1)), jy, b


class TestPeriodReuse:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), n=st.integers(2, 6), square=st.booleans(),
           steps_per_pi=st.one_of(st.just(400), st.integers(8, 120)),
           off_multiple=st.booleans())
    def test_matches_the_window_loop(self, data, n, square, steps_per_pi, off_multiple):
        if square:
            # edges on the uniform grid (delta = steps_per_pi / 2j) or anywhere between
            j = data.draw(st.integers(1, steps_per_pi // 4), label="j")
            delta = data.draw(st.one_of(st.just(steps_per_pi / (2 * j)), st.floats(1.1, 25.0)),
                              label="delta")
            s = square_schedule(n, delta)
        else:
            s = sin_power_schedule(n, data.draw(st.sampled_from([2, 4, 6, 8, 12]), label="m"))
        n_steps = default_steps(s, steps_per_pi)
        if off_multiple:  # no grid point at the head's end or between periods
            n_steps += data.draw(st.integers(1, 2 * n - 1), label="offset")
        seed = data.draw(st.integers(1, 2 * n), label="seed")
        periods = (n - 1) if square else 2 * n
        assert _reused_periods(s, n_steps) == (0 if off_multiple else periods)
        k = chain(n)
        r = propagate(k, s, n_steps, seed)
        ref = propagate(k, _window_loop(s), n_steps, seed)
        assert np.array_equal(r.times, ref.times)
        np.testing.assert_allclose(r.alphas, ref.alphas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(r.transfer, ref.transfer, rtol=0, atol=1e-12)

    def test_subclass_breaking_the_period_falls_back(self, monkeypatch):
        s = _Ramped(4, 6, 0.8, 0.8)
        assert s.periodicity() == (0.0, math.pi, 8)
        assert _reused_periods(s, 320) == 0
        calls = []
        monkeypatch.setattr(flux, "expm_series", lambda a: calls.append(1) or expm_series(a))
        r = propagate(chain(4), s, 320)
        assert len(calls) == 320
        ref = propagate(chain(4), _window_loop(s), 320)
        assert np.array_equal(r.alphas, ref.alphas) and np.array_equal(r.transfer, ref.transfer)

    def test_one_period_of_exponentials(self, monkeypatch):
        calls = []
        monkeypatch.setattr(flux, "expm_series", lambda a: calls.append(1) or expm_series(a))
        r = propagate(chain(25), sin_power_schedule(25, 6))
        assert len(r.times) == 20001
        assert len(calls) == 400


class TestMaxAlpha:
    def test_zero_series(self):
        s = SinPowerSchedule(3, 2, 0.0, 0.0)
        r = propagate(_gen(3), s, 8)
        t_star, value = max_alpha(r, 3)
        assert t_star == 0.0
        assert value == 0.0

    def test_plateau_capped_at_unit(self):
        # coarse ideal grid: samples 0.707, 1, 1 around the peak would fit a
        # parabola above 1, which is outside the reachable range
        r = propagate(_gen(3), ideal_schedule(3, "JxJy"), 6)
        t_star, value = max_alpha(r, 3)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert 2.0 <= t_star <= 2.5

    def test_refinement_beats_grid(self):
        r = propagate(_gen(3), sin_power_schedule(3, 6), 300)
        t_star, value = max_alpha(r, 3)
        grid_best = np.max(np.abs(r.alpha_series(3)))
        assert abs(value) >= grid_best
        assert abs(value) <= 1.0
        fine = propagate(_gen(3), sin_power_schedule(3, 6), 6000)
        _, fine_value = max_alpha(fine, 3)
        assert value == pytest.approx(fine_value, abs=1e-5)

    def test_earliest_tie(self):
        nodes = build_graph(2).nodes
        times = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        alphas = np.zeros((5, 4))
        alphas[:, 0] = [0.0, 0.6, 0.0, 0.6, 0.0]
        r = FluxResult(times=times, alphas=alphas, transfer=np.zeros((5, 2, 2)), seed=1,
                       nodes=nodes, n_sites=2)
        t_star, value = max_alpha(r, 1)
        assert t_star == pytest.approx(1.0)
        assert value == pytest.approx(0.6)

    def test_boundary_peak_returns_grid_point(self):
        # quarter field kick: |alpha_Y| still rising when the window ends
        r = propagate(_gen(3), _field_only(3, math.pi / 8), 4)
        t_star, value = max_alpha(r, 4)
        assert t_star == pytest.approx(1.0)
        assert value == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_node_range_checked(self):
        r = propagate(_gen(3), ideal_schedule(3, "JxJy"), 1)
        with pytest.raises(ValueError):
            max_alpha(r, 7)


class TestInformationFlux:
    @pytest.mark.parametrize("n_sites", [3, 4, 5])
    def test_rest_in_ground_reproduces_alpha(self, n_sites):
        # which family holds the leading-X node alternates with N
        r = propagate(_gen(n_sites), sin_power_schedule(n_sites, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", 1))
        x_node = next(i + 1 for i, p in enumerate(r.nodes) if p.op_at(1) == "X")
        y_node = next(i + 1 for i, p in enumerate(r.nodes) if p.op_at(1) == "Y")
        expected_x = n_sites if n_sites % 2 == 1 else 2 * n_sites
        assert x_node == expected_x
        np.testing.assert_array_equal(flux[("X", "X")], r.alpha_series(x_node))
        np.testing.assert_array_equal(flux[("X", "Y")], r.alpha_series(y_node))

    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_rest_all_excited_flips_parity(self, n_sites):
        # the Z tail over N-1 flipped spins contributes (-1)^(N-1)
        r = propagate(_gen(n_sites), sin_power_schedule(n_sites, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", -1))
        ground = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", 1))
        parity = (-1.0) ** (n_sites - 1)
        np.testing.assert_array_equal(flux[("X", "X")], parity * ground[("X", "X")])

    def test_rest_in_x_basis_blocks_z_tails(self):
        n = 3
        r = propagate(_gen(n), sin_power_schedule(n, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n - 1, "X", 1))
        assert np.max(np.abs(flux[("X", "X")])) == 0.0

    def test_validation(self):
        r = propagate(_gen(3), sin_power_schedule(3, 4), 10)
        with pytest.raises(ValueError):
            information_flux(r, SiteAssignment.uniform(3, "Z", 1))
        with pytest.raises(ValueError):
            information_flux(r, SiteAssignment([("Z", 1), [1.0, 0.0]]))


class TestReporting:
    def test_series_csv_shape(self):
        r = propagate(_gen(2), ideal_schedule(2, "JxJy"), 4)
        text = series_csv(r)
        lines = text.strip().split("\n")
        assert lines[0] == "t,alpha_1,alpha_2,alpha_3,alpha_4,norm"
        assert len(lines) == 1 + len(r.times)
        parsed = np.loadtxt(text.splitlines(), delimiter=",", skiprows=1)
        np.testing.assert_allclose(parsed[:, 0], r.times)
        np.testing.assert_allclose(parsed[:, 1:5], r.alphas)
        np.testing.assert_allclose(parsed[:, 5], r.norms())

    def test_series_csv_matches_per_value_format(self):
        # the row template must print what format(v, ".17g") printed value by value
        r = propagate(_gen(3), sin_power_schedule(3, 4), 30)
        alphas = r.alphas.copy()
        alphas[1, :3] = [-0.0, 1e-300, 1.0 / 3.0]
        r = FluxResult(times=r.times, alphas=alphas, transfer=r.transfer, seed=1,
                       nodes=r.nodes, n_sites=3)
        rows = [",".join(format(v, ".17g") for v in (t, *a, norm))
                for t, a, norm in zip(r.times, r.alphas, r.norms())]
        assert series_csv(r).splitlines()[1:] == rows

    def test_summary_ideal(self):
        r = propagate(_gen(3), ideal_schedule(3, "JxJy"), 1)
        report = summary(r)
        assert set(report) == {"max_alpha_N", "t_star", "fidelity"}
        assert report["max_alpha_N"] == pytest.approx(-1.0, abs=1e-12)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)
