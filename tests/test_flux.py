import copy
import decimal
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from spinkick import (FluxResult, IdealKickSchedule, KickSlot, SiteAssignment,
                      SinPowerSchedule, build_graph, chain,
                      information_flux, max_alpha, propagate, series_csv,
                      sin_power_schedule, square_schedule, summary, ideal_schedule)
from spinkick.exceptions import NumericalContractError, ResourceCapError
from spinkick import flux
from spinkick.flux import default_steps, expm_series, rotate_run
from spinkick.pulses import MAX_STEPS, step_grid, window_amplitudes

import oracles


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

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), rng_seed=st.integers(0, 2 ** 32 - 1),
           norms=st.lists(st.one_of(st.just(0.0), st.sampled_from([0.5 * 2.0 ** k for k in range(9)]),
                                    st.floats(0.0, 128.0)), min_size=1, max_size=12))
    def test_each_slice_of_a_stack_is_its_matrix_alone(self, n, rng_seed, norms):
        # 1-norms up to 128 mix scaling depths 0..8 and Horner degrees in one stack
        rng = np.random.default_rng(rng_seed)
        stack = []
        for norm in norms:
            a = rng.normal(size=(2 * n, 2 * n))
            a = a - a.T
            stack.append(a * (norm / np.linalg.norm(a, 1)))
        stack = np.array(stack)
        got = expm_series(stack)
        assert got.shape == stack.shape
        for member, u in zip(stack, got):
            assert np.array_equal(u, expm_series(member))

    @pytest.mark.parametrize("n", [2, 7, 25])
    def test_a_matrix_maps_as_the_single_matrix_rule(self, n):
        # window generators and dense antisymmetric matrices at depths 0..8, and zero
        rng = np.random.default_rng(n)
        a = rng.normal(size=(2 * n, 2 * n))
        mats = [np.zeros((2 * n, 2 * n))] + [
            m * scale for m in (chain(n).combined(0.8, -0.3, 1.1), a - a.T)
            for scale in (1e-3, 0.02, 0.4, 3.0, 40.0, 128.0 / np.linalg.norm(m, 1))]
        for m in mats:
            u = expm_series(m)
            assert u.shape == m.shape
            assert np.array_equal(u, _single_matrix_expm(m))

    @pytest.mark.parametrize("scale", [1e30, np.inf, np.nan])
    def test_one_bad_member_of_a_stack_is_named_before_any_map(self, monkeypatch, scale):
        good = 0.3 * chain(2).combined(1.0, -1.0, 0.5)
        bad = np.zeros((4, 4))
        bad[0, 1], bad[1, 0] = scale, -scale
        stack = np.array([good, 20.0 * good, bad, good])
        norm = np.linalg.norm(bad, 1)
        monkeypatch.setattr(np, "matmul", lambda *args, **kwargs: pytest.fail("computed a map"))
        with pytest.raises(NumericalContractError, match=re.escape(f"norm {norm:g} too large")):
            expm_series(stack)


def _single_matrix_expm(a):
    """expm_series's scaling, Horner sum and squaring written for one matrix."""
    norm = np.linalg.norm(a, 1)
    depth = int(math.ceil(math.log2(norm / 0.5))) if norm > 0.5 else 0
    b = a / 2 ** depth
    degree = int(np.searchsorted(flux._THETA, norm / 2 ** depth))
    out = np.eye(len(a))
    for l in range(degree, 0, -1):
        out = b @ out / l
        out.flat[::len(a) + 1] += 1.0
    for _ in range(depth):
        out = out @ out
    return out


class TestRotateRun:
    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(2, 12), channel=st.integers(0, 2), rng_seed=st.integers(0, 2 ** 32 - 1),
           angles=st.lists(st.one_of(st.just(0.0), st.floats(-60.0, 60.0)), min_size=1, max_size=50))
    def test_matches_the_expm_series_product(self, n, channel, rng_seed, angles):
        k = chain(n)
        a = np.random.default_rng(rng_seed).normal(size=(2 * n, 2 * n))
        start = expm_series(a - a.T)  # an orthogonal product before the run
        cols = np.arange(2 * n)  # record every column
        product = start.copy()  # advanced in place
        weights, basis = rotate_run(product, k.matchings[channel], np.array(angles), cols)
        generator = k.combined(*np.eye(3)[channel])
        ref = start
        for w, angle in zip(weights, angles):
            ref = ref @ expm_series(angle * generator)
            np.testing.assert_allclose(np.tensordot(w, basis, 1), ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(product, ref, rtol=0, atol=1e-12)
        np.testing.assert_allclose(product @ product.T, np.eye(2 * n), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("angle", [1e30, np.inf, np.nan])
    def test_depth_guard(self, angle):
        with pytest.raises(NumericalContractError, match="too large"):
            rotate_run(np.eye(6), chain(3).matchings[0], np.array([0.5, angle]), [0])

    @pytest.mark.parametrize("n", [2, 5, 40, 300])
    @pytest.mark.parametrize("channel", [0, 1, 2])
    @pytest.mark.parametrize("angle", [0.7, -0.7, 2.5, -2.5, 0.0, -0.0])
    def test_in_place_update_is_the_whole_matrix_formula_bit_for_bit(self, n, channel, angle):
        # P cos + P K sin on matched columns and P*1 + P*(0*sin) on the others, signed zeros
        # included; N = 300 takes several row chunks
        rng = np.random.default_rng(n)
        start = rng.normal(size=(2 * n, 2 * n))
        start[rng.random(start.shape) < 0.3] = -0.0
        start[rng.random(start.shape) < 0.1] = 0.0
        a, b, s = chain(n).matchings[channel]
        partner, sign = np.arange(2 * n), np.zeros(2 * n)
        partner[a], partner[b] = b, a
        sign[a], sign[b] = -s, s
        cos, sin = np.cos(angle), np.sin(angle)
        want = start * np.where(sign != 0, cos, 1.0) + start[:, partner] * (sign * sin)
        product = start.copy()
        rotate_run(product, chain(n).matchings[channel], np.array([angle]), [0])
        assert product.tobytes() == want.tobytes()


def _expm_loop(k, schedule, seed):
    """(alphas, transfer) with one expm_series map per window, products in time order."""
    grid = step_grid(schedule, default_steps(schedule))
    amps = window_amplitudes(schedule, grid)
    site1 = [next(i for i, p in enumerate(k.nodes) if p[0] == op) for op in "XY"]
    product = np.eye(k.dim)
    columns = [product[:, [seed - 1, 0, k.n_sites]]]
    for dt, row in zip(np.diff(grid), amps):
        product = product @ expm_series(2.0 * dt * k.combined(*row))
        columns.append(product[:, [seed - 1, 0, k.n_sites]])
    columns = np.array(columns)
    return columns[:, :, 0], columns[:, site1, 1:]


def _gapped(n):
    """Ideal kicks with an idle gap before each slot after the first."""
    return IdealKickSchedule(n, [KickSlot(slot.channel, slot.start + 0.37 * i, slot.duration,
                                          slot.amplitude)
                                 for i, slot in enumerate(ideal_schedule(n, "JxB").slots)])


def _same_channel_steps(n):
    """Back-to-back Jx slots of different amplitudes, then B and Jy: one run of varying angles."""
    amps = (0.3, -1.1, 0.7, 2.0)
    slots = [KickSlot("Jx", 0.5 * i, 0.5, a) for i, a in enumerate(amps)]
    return IdealKickSchedule(n, slots + [KickSlot("B", 2.0, 0.6, 0.9), KickSlot("Jy", 2.6, 0.4, -0.8)])


def _count_expm(monkeypatch):
    """Stack lengths of the expm_series calls: their sum is the number of matrices exponentiated."""
    calls = []
    monkeypatch.setattr(flux, "expm_series",
                        lambda a: calls.append(math.prod(a.shape[:-2])) or expm_series(a))
    return calls


class TestClosedFormWindows:
    @pytest.mark.parametrize("n", [2, 5, 8])
    @pytest.mark.parametrize("make", [
        lambda n: ideal_schedule(n, "JxJy"),
        lambda n: ideal_schedule(n, "JxB"),
        lambda n: square_schedule(n, 16.0),
        lambda n: square_schedule(n, 7.3),
        _gapped,
        _same_channel_steps,
        lambda n: sin_power_schedule(n, 8),
        lambda n: sin_power_schedule(n, 12),
    ], ids=["JxJy", "JxB", "square-16", "square-7.3", "gapped", "same-channel", "sin8", "sin12"])
    def test_matches_the_expm_series_loop(self, n, make):
        # single-channel windows inside the stepped period: sin^12 at every N, sin^8 at N = 11
        # and 15; elsewhere sin^8's appear in later periods, which reuse period 0's maps
        s = make(n)
        for seed in (1, n + 1):
            r = propagate(s, seed=seed)
            alphas, transfer = _expm_loop(chain(n), s, seed)
            np.testing.assert_allclose(r.alphas, alphas, rtol=0, atol=1e-12)
            np.testing.assert_allclose(r.transfer, transfer, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    def test_ideal_kicks_need_no_series(self, monkeypatch, scheme):
        calls = _count_expm(monkeypatch)
        propagate(ideal_schedule(25, scheme))
        assert not calls

    @pytest.mark.parametrize("delta,mixed", [(16.0, 26), (20.0, 20)])
    def test_square_trains_exponentiate_one_period_of_pulse_windows(self, monkeypatch, delta, mixed):
        # the J-only head, tail and gaps are rotations; only windows under a B pulse are mixed
        calls = _count_expm(monkeypatch)
        s = square_schedule(25, delta)
        propagate(s)
        grid = step_grid(s, default_steps(s))
        amps = window_amplitudes(s, grid)
        first, n, _ = flux._period_windows(s, grid, amps)
        assert np.count_nonzero(amps[first:first + n, 2]) == mixed
        assert sum(calls) == mixed


class _Admitted(Exception):
    """Raised in place of building the generator, once the caps have let a run through."""


def _admitted(n_sites):
    raise _Admitted(n_sites)


class TestResourceCap:
    def test_table_cap_refuses_before_allocating(self, monkeypatch):
        # 10 times x 10 coefficients and the 10 x 10 running product
        monkeypatch.setattr(flux, "MAX_TABLE_FLOATS", (10 + 10) * 10)
        assert len(propagate(sin_power_schedule(5, 6), 9).times) == 10  # at the cap
        monkeypatch.setattr(flux, "window_amplitudes", lambda *args: pytest.fail("allocated"))
        with pytest.raises(ResourceCapError, match="11 times x 10 coefficients"):
            propagate(sin_power_schedule(5, 6), 10)

    def test_caps_are_checked_before_the_generator_is_built(self, monkeypatch):
        monkeypatch.setattr(flux, "chain", lambda n: pytest.fail("built the generator"))
        s = sin_power_schedule(1500, 6)
        with pytest.raises(ResourceCapError, match="1200001 times x 3000 coefficients"):
            propagate(s)
        with pytest.raises(ResourceCapError, match=f"{MAX_STEPS + 1} steps exceed the cap"):
            propagate(s, MAX_STEPS + 1)

    @pytest.mark.parametrize("make", [lambda: sin_power_schedule(200, 6),
                                      lambda: square_schedule(200, 8.0),
                                      lambda: ideal_schedule(200, "JxB")])
    def test_n200_default_grid_fits(self, make, monkeypatch):
        # sin^6 holds 65.28 M floats with its period stacks, square 66.24 M: propagate
        # passes both caps and goes on to build the generator
        monkeypatch.setattr(flux, "chain", _admitted)
        with pytest.raises(_Admitted):
            propagate(make())

    def test_table_cap_counts_the_period_map_and_stacks(self, monkeypatch):
        s = sin_power_schedule(5, 6)
        grid = step_grid(s, default_steps(s))
        dim, (_, n, count) = 10, flux._period_grid(s, grid)
        assert count > 0
        held = (len(grid) + dim) * dim + (dim + 2 * n * 3) * dim
        monkeypatch.setattr(flux, "MAX_TABLE_FLOATS", held)
        assert len(propagate(s).times) == len(grid)  # at the cap
        monkeypatch.setattr(flux, "MAX_TABLE_FLOATS", held - 1)
        monkeypatch.setattr(flux, "chain", _admitted)
        with pytest.raises(ResourceCapError, match=f"the period map and two {n} x 10 x 3 column"):
            propagate(s)


class TestPropagate:
    def test_zero_schedule_is_constant(self):
        s = SinPowerSchedule(3, 2, 0.0, 0.0)
        r = propagate(s, 16)
        assert np.all(r.alphas[:, 0] == 1.0)
        assert np.max(np.abs(r.alphas[:, 1:])) == 0.0

    def test_field_only_rotation(self):
        """A pure field rotates the receiver pair: X_N picks up cos(2*beta)
        and Y_N picks up -sin(2*beta), with beta the accumulated field area."""
        beta_rate = math.pi / 4
        s = _field_only(5, beta_rate)
        r = propagate(s, 8)
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
        r = propagate(s, n_steps)
        dense = oracles.heisenberg_coefficients(s, r.times, r.nodes)
        np.testing.assert_allclose(r.alphas, dense, atol=1e-10)

    def test_y_seed_against_dense(self):
        # seeding the Y_N node propagates the partner family
        n = 3
        s = ideal_schedule(n, "JxJy")
        r = propagate(s, 24, seed=n + 1)
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
        r = propagate(s, 1)
        assert r.alphas[-1, n_sites - 1] == pytest.approx(expected, abs=1e-12)

    def test_norms_conserved(self):
        r = propagate(sin_power_schedule(4, 6), 400)
        np.testing.assert_allclose(r.norms(), 1.0, atol=1e-12)

    def test_kick_confinement(self):
        # a single Jy kick only moves weight between the seed and its partner
        n = 4
        s = IdealKickSchedule(n, [KickSlot("Jy", 0.0, 1.0, 0.3)])
        r = propagate(s, 10)
        active = {0, 1}
        others = [j for j in range(2 * n) if j not in active]
        assert np.max(np.abs(r.alphas[:, others])) == 0.0

    def test_convergence_is_second_order(self):
        """Window-averaged stepping has O(h^2) error for smooth drives, so
        halving the step should cut the error at a fixed time by about 4."""
        n = 3
        s = sin_power_schedule(n, 4)
        values = []
        for n_steps in (40, 80, 160):
            r = propagate(s, n_steps)
            mid = len(r.times) // 2  # nested grids, common midpoint
            values.append(r.alphas[mid, n - 1])
        ratio = (values[0] - values[1]) / (values[1] - values[2])
        assert 3.0 < ratio < 5.0

    def test_validation(self):
        with pytest.raises(ValueError):
            propagate(sin_power_schedule(3, 4), seed=7)
        with pytest.raises(ValueError):
            propagate(sin_power_schedule(3, 4), seed=0)

    @pytest.mark.parametrize("scheme", ["JxJy", "JxB"])
    def test_ideal_kicks_transfer_exactly_for_every_length(self, scheme):
        # the closed-form kick order must follow the graph path for odd and even N
        for n in range(2, 13):
            r = propagate(ideal_schedule(n, scheme), 1)
            assert abs(r.alphas[-1, n - 1]) == pytest.approx(1.0, abs=1e-9), n

    @pytest.mark.parametrize("n_sites", range(2, 8))
    @pytest.mark.parametrize("make", [
        lambda n: sin_power_schedule(n, 6), lambda n: square_schedule(n, 8.0),
        lambda n: ideal_schedule(n, "JxJy"), lambda n: ideal_schedule(n, "JxB"),
    ], ids=["sin6", "square8", "JxJy", "JxB"])
    def test_transfer_block_matches_both_seeded_runs(self, n_sites, make):
        s = make(n_sites)
        rx = propagate(s, 60, seed=1)
        ry = propagate(s, 60, seed=n_sites + 1)
        # the site-1 X node is canonical index N for odd N and 2N for even N
        x1 = n_sites if n_sites % 2 else 2 * n_sites
        y1 = 2 * n_sites if n_sites % 2 else n_sites
        assert rx.nodes[x1 - 1][0] == "X" and rx.nodes[y1 - 1][0] == "Y"
        for result in (rx, ry):  # either seed's run records the block of both
            assert result.transfer.shape == (len(result.times), 2, 2)
            for row, node in enumerate((x1, y1)):
                for col, seeded in enumerate((rx, ry)):
                    np.testing.assert_allclose(result.transfer[:, row, col],
                                               seeded.alpha_series(node), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("make,bound", [
        (lambda: ideal_schedule(25, "JxJy"), 1e-15), (lambda: ideal_schedule(25, "JxB"), 1e-15),
        (lambda: square_schedule(25, 16.0), 1e-13), (lambda: square_schedule(25, 20.0), 1e-13),
    ], ids=["JxJy", "JxB", "square-16", "square-20"])
    def test_norm_drift_at_25_sites(self, make, bound):
        # one rotation per run: the product takes no per-window rounding on single-channel stretches
        assert np.abs(propagate(make()).norms() - 1.0).max() <= bound

    def test_peak_memory_is_the_output(self):
        # rows are written per run into the result, never staged as a (windows, dim, 3) stack
        s = ideal_schedule(25, "JxB")
        propagate(s)  # build chain(25) outside the measurement
        tracemalloc.start()
        try:
            r = propagate(s)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * (r.times.nbytes + r.alphas.nbytes + r.transfer.nbytes)

    @pytest.mark.parametrize("make,n_steps,periodic", [
        (lambda: ideal_schedule(300, "JxJy"), 1, False),  # runs only: rotate_run's row chunks
        (lambda: sin_power_schedule(64, 6), 300, False),  # 2N = 128: one map per block, every window stepped
        (lambda: sin_power_schedule(64, 6), 2560, True),  # 128 periods of 20 windows reused
    ], ids=["JxJy-300", "sin6-64", "sin6-64-periodic"])
    def test_peak_is_the_table_two_products_and_one_block(self, make, n_steps, periodic):
        s = make()
        dim = 2 * s.n_sites
        assert max(1, flux._BLOCK_FLOATS // dim ** 2) == 1
        propagate(s, 1)  # build chain(N) outside the measurement
        tracemalloc.start()
        try:
            r = propagate(s, n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        _, n, count = flux._period_windows(s, r.times, window_amplitudes(s, r.times))
        assert (count > 0) == periodic
        # per time: t, alphas and the transfer block; per window: amplitudes and channel
        table = len(r.times) * (1 + dim + 4 + 3 + 1) * 8
        products = 2 * dim * dim * 8  # the running product and its successor (or the period map)
        # with periods reused, the table cap's count: a third product, and one period's
        # column stacks partial and product @ partial (3.81 MB here, against 3.72 MB without)
        period = (dim + 2 * n * 3) * dim * 8 if periodic else 0
        # one block: its generators, maps, scaled copy and two series buffers, or the
        # temporaries of one row chunk of rotate_run, each at most _BLOCK_FLOATS floats
        block = 5 * flux._BLOCK_FLOATS * 8
        assert peak <= table + products + period + block

    def test_no_period_map_without_a_reused_period(self):
        # ideal kicks reuse no period, so no idle identity stands in as the period map: the
        # table, one product and rotate_run's temporaries, 5.12 MB against 7.24 MB with it
        s = ideal_schedule(300, "JxJy")
        dim = 2 * s.n_sites
        propagate(s, 1)  # build chain(N) outside the measurement
        tracemalloc.start()
        try:
            r = propagate(s, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = len(r.times) * (1 + dim + 4 + 3 + 1) * 8
        # a row chunk's five temporaries, and as much again for the (dim, 3) column arrays
        block = 2 * 5 * flux._BLOCK_FLOATS * 8
        assert peak <= table + dim * dim * 8 + block  # 5.66 MB

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
        r = propagate(s, n_steps, seed)
        ref = propagate(_window_loop(s), n_steps, seed)
        assert np.array_equal(r.times, ref.times)
        np.testing.assert_allclose(r.alphas, ref.alphas, rtol=0, atol=1e-12)
        np.testing.assert_allclose(r.transfer, ref.transfer, rtol=0, atol=1e-12)

    def test_subclass_breaking_the_period_falls_back(self, monkeypatch):
        s = _Ramped(4, 6, 0.8, 0.8)
        assert s.periodicity() == (0.0, math.pi, 8)
        assert _reused_periods(s, 320) == 0
        calls = _count_expm(monkeypatch)
        r = propagate(s, 320)
        assert sum(calls) == 320
        ref = propagate(_window_loop(s), 320)
        assert np.array_equal(r.alphas, ref.alphas) and np.array_equal(r.transfer, ref.transfer)

    def test_one_period_of_exponentials(self, monkeypatch):
        calls = _count_expm(monkeypatch)
        r = propagate(sin_power_schedule(25, 6))
        assert len(r.times) == 20001
        assert sum(calls) == 400


class TestMaxAlpha:
    def test_zero_series(self):
        s = SinPowerSchedule(3, 2, 0.0, 0.0)
        r = propagate(s, 8)
        t_star, value = max_alpha(r, 3)
        assert t_star == 0.0
        assert value == 0.0

    def test_plateau_capped_at_unit(self):
        # coarse ideal grid: samples 0.707, 1, 1 around the peak would fit a
        # parabola above 1, which is outside the reachable range
        r = propagate(ideal_schedule(3, "JxJy"), 6)
        t_star, value = max_alpha(r, 3)
        assert value == pytest.approx(-1.0, abs=1e-12)
        assert 2.0 <= t_star <= 2.5

    def test_refinement_beats_grid(self):
        r = propagate(sin_power_schedule(3, 6), 300)
        t_star, value = max_alpha(r, 3)
        grid_best = np.max(np.abs(r.alpha_series(3)))
        assert abs(value) >= grid_best
        assert abs(value) <= 1.0
        fine = propagate(sin_power_schedule(3, 6), 6000)
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
        r = propagate(_field_only(3, math.pi / 8), 4)
        t_star, value = max_alpha(r, 4)
        assert t_star == pytest.approx(1.0)
        assert value == pytest.approx(-math.sin(math.pi / 4), abs=1e-12)

    def test_node_range_checked(self):
        r = propagate(ideal_schedule(3, "JxJy"), 1)
        with pytest.raises(ValueError):
            max_alpha(r, 7)


class TestInformationFlux:
    @pytest.mark.parametrize("n_sites", [3, 4, 5])
    def test_rest_in_ground_reproduces_alpha(self, n_sites):
        # which family holds the leading-X node alternates with N
        r = propagate(sin_power_schedule(n_sites, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", 1))
        x_node = next(i + 1 for i, p in enumerate(r.nodes) if p[0] == "X")
        y_node = next(i + 1 for i, p in enumerate(r.nodes) if p[0] == "Y")
        expected_x = n_sites if n_sites % 2 == 1 else 2 * n_sites
        assert x_node == expected_x
        np.testing.assert_array_equal(flux[("X", "X")], r.alpha_series(x_node))
        np.testing.assert_array_equal(flux[("X", "Y")], r.alpha_series(y_node))

    @pytest.mark.parametrize("n_sites", [3, 4])
    def test_rest_all_excited_flips_parity(self, n_sites):
        # the Z tail over N-1 flipped spins contributes (-1)^(N-1)
        r = propagate(sin_power_schedule(n_sites, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", -1))
        ground = information_flux(r, SiteAssignment.uniform(n_sites - 1, "Z", 1))
        parity = (-1.0) ** (n_sites - 1)
        np.testing.assert_array_equal(flux[("X", "X")], parity * ground[("X", "X")])

    @pytest.mark.parametrize("rest, sign", [("1,0,0", -1), ("0,1,0", -1), ("0,0,1", -1),
                                            ("1,0,1", 1)])
    def test_flipped_rest_spins_set_the_sign(self, rest, sign):
        # every rest site enters the Z parity: each excited spin negates both leads
        r = propagate(sin_power_schedule(4, 4), 50)
        ground = information_flux(r, SiteAssignment.parse("0,0,0"))
        flux = information_flux(r, SiteAssignment.parse(rest))
        assert list(flux) == list(ground)
        for key in ground:
            np.testing.assert_array_equal(flux[key], sign * ground[key])

    @pytest.mark.parametrize("op", ["X", "Y"])
    def test_one_transverse_rest_site_blocks_every_key(self, op):
        # a single X or Y eigenstate among Z rest sites zeroes both Z tails
        r = propagate(sin_power_schedule(4, 4), 50)
        flux = information_flux(r, SiteAssignment([("Z", 1), (op, -1), ("Z", -1)]))
        assert list(flux) == list(information_flux(r, SiteAssignment.parse("0,0,0")))
        for series in flux.values():
            assert np.max(np.abs(series)) == 0.0

    def test_rest_in_x_basis_blocks_z_tails(self):
        n = 3
        r = propagate(sin_power_schedule(n, 4), 50)
        flux = information_flux(r, SiteAssignment.uniform(n - 1, "X", 1))
        assert np.max(np.abs(flux[("X", "X")])) == 0.0

    @pytest.mark.parametrize("n_sites", [2, 3, 4, 5])
    def test_against_dense_expectations(self, n_sites):
        # each node leading at site 1 is weighted by its dense expectation in the
        # product state: site 1 in the +1 eigenstate of that lead, then the rest state
        rng = np.random.default_rng(n_sites)
        s = sin_power_schedule(n_sites, 4)
        for seed, seed_op in ((1, "X"), (n_sites + 1, "Y")):
            r = propagate(s, 20, seed=seed)
            for _ in range(25):
                rest = SiteAssignment([("XYZ"[int(rng.integers(3))], int(rng.choice([-1, 1])))
                                       for _ in range(n_sites - 1)])
                want = {}
                for j, node in enumerate(r.nodes):
                    if node[0] == "I":
                        continue
                    site1 = SiteAssignment([(node[0], 1)] + rest.entries)
                    psi = np.eye(1, dtype=complex)[0]
                    for site in range(1, n_sites + 1):
                        psi = np.kron(psi, site1.site_vector(site))
                    weight = oracles.pauli_expectation(psi, node)
                    want[(seed_op, node[0])] = weight * r.alphas[:, j]
                got = information_flux(r, rest)
                assert list(got) == list(want)
                for key in want:
                    np.testing.assert_allclose(got[key], want[key], rtol=0, atol=1e-12)

    def test_validation(self):
        r = propagate(sin_power_schedule(3, 4), 10)
        with pytest.raises(ValueError):
            information_flux(r, SiteAssignment.uniform(3, "Z", 1))
        with pytest.raises(ValueError):
            information_flux(r, SiteAssignment([("Z", 1), [1.0, 0.0]]))


class TestReporting:
    def test_series_csv_shape(self):
        r = propagate(ideal_schedule(2, "JxJy"), 4)
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
        r = propagate(sin_power_schedule(3, 4), 30)
        alphas = r.alphas.copy()
        alphas[1, :3] = [-0.0, 1e-300, 1.0 / 3.0]
        r = FluxResult(times=r.times, alphas=alphas, transfer=r.transfer, seed=1,
                       nodes=r.nodes, n_sites=3)
        rows = [",".join(format(v, ".17g") for v in (t, *a, norm))
                for t, a, norm in zip(r.times, r.alphas, r.norms())]
        assert series_csv(r).splitlines()[1:] == rows

    def test_summary_ideal(self):
        r = propagate(ideal_schedule(3, "JxJy"), 1)
        report = summary(r)
        assert set(report) == {"max_alpha_N", "t_star", "fidelity"}
        assert report["max_alpha_N"] == pytest.approx(-1.0, abs=1e-12)
        assert report["fidelity"] == pytest.approx(1.0, abs=1e-12)


def _printf_rows(table):
    """The reference export: CPython's format(v, '.17g') value by value."""
    return "".join(",".join(format(v, ".17g") for v in row) + "\n" for row in table.tolist())


def _mismatches(text, expected):
    """The first differing lines of two texts, so that a failure does not diff megabytes."""
    got, want = text.split("\n"), expected.split("\n")
    return [(a, b) for a, b in zip(got, want) if a != b][:3] + [len(got) - len(want)] * (len(got) != len(want))


def _row_route(result):
    """series_csv as it was formatted row by row: the reference for its text and its memory."""
    dim = result.alphas.shape[1]
    header = "t," + ",".join(f"alpha_{j + 1}" for j in range(dim)) + ",norm\n"
    row = ",".join(["%.17g"] * (dim + 2)) + "\n"
    return header + "".join(row % (t, *alphas.tolist(), norm) for t, alphas, norm in
                            zip(result.times, result.alphas, result.norms()))


def _edge_values():
    """Finite nonzero doubles at the formatter's edges, both signs."""
    tiny = 2.2250738585072014e-308  # the smallest normal double
    values = [5e-324, np.nextafter(5e-324, 1), tiny, np.nextafter(tiny, 0), np.nextafter(tiny, 1),
              1.7976931348623157e308, 1.0 / 3.0, 2.0 / 3.0, 0.1, 123456789.0, 2.0 ** 53 + 2]
    # powers of ten and their neighbours: log10 rounds to the wrong decade next to them;
    # 1e-4/1e-5 and 1e16/1e17 are %g's switch points, 1e99/1e100 its exponent widths
    for k in [*range(-30, 31), -300, 300, 308, -308, -99, -100, 99, 100, -323]:
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0), np.nextafter(p, np.inf), np.nextafter(np.nextafter(p, 0), 0)]
    values += [9.9999999999999995e-5, 1.0000000000000001e-4, 9999999999999998.0, 99999999999999984.0]
    values = np.array(values)
    return np.concatenate([values, -values])


def _ties():
    """Exact ties at 17 digits: doubles m*2^-e whose 18 significant digits end in 5."""
    ties = []
    for e in range(3, 26):
        five = 5 ** e
        lo = -(-10 ** 17 // five) | 1  # m*5^e has 18 digits; odd m ends it in 5
        for m in range(lo, min(10 ** 18 // five, 2 ** 53), 2)[:6]:
            if m % 5:
                ties.append(m * 2.0 ** -e)
    ties = np.array(ties)
    return np.concatenate([ties, -ties])


# bit patterns for tables with many equal rows: +-0.0, NaNs of four payloads, +-inf,
# subnormals, a tie at 17 digits and two plain values.  _TWIN swaps +0.0 with -0.0 and
# pairs the NaNs: twins are equal as floats (or both NaN) but differ in their bits.
_ZEROS = [0x0, 0x8000000000000000]
_NANS = [0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000, 0x7FF0000000000001]
_POOL_BITS = [*_ZEROS, *_NANS, *np.array([np.inf, -np.inf, 5e-324, -2.225073858507201e-308,
                                          _ties()[0], 1.0 / 3.0, -0.5]).view(np.uint64).tolist()]
_TWIN = {**{b: b for b in _POOL_BITS}, **dict(zip(_ZEROS, _ZEROS[::-1])), **dict(zip(_NANS, _NANS[::-1]))}


def _is_tie(value):
    """Whether a double lies exactly halfway between two 17-digit decimals."""
    digits = decimal.Decimal(abs(value)).normalize().as_tuple().digits
    return len(digits) == 18 and digits[-1] == 5


class TestFormatTable:
    @settings(max_examples=300, deadline=None)
    @given(bits=st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64), width=st.integers(1, 7))
    def test_matches_cpython_on_any_bit_pattern(self, bits, width):
        # NaN, +-inf, subnormals and +-0.0 included
        values = np.array(bits, dtype=np.uint64).view(np.float64)
        table = values[:len(values) // width * width].reshape(-1, width)
        assert not _mismatches("".join(flux._format_table("h\n", table)), "h\n" + _printf_rows(table))

    @pytest.mark.parametrize("values", [_edge_values(), _ties(), np.array([0.0, -0.0, np.inf, -np.inf, np.nan])],
                             ids=["edges", "ties", "zero-inf-nan"])
    def test_matches_cpython_at_the_edges(self, values):
        table = values.reshape(-1, 1)
        assert not _mismatches("".join(flux._format_table("", table)), _printf_rows(table))
        assert not _mismatches("".join(flux._format_table("", table.T)), _printf_rows(table.T))

    @settings(max_examples=300, deadline=None)
    @given(width=st.integers(1, 7), data=st.data())
    def test_repeated_rows_match_cpython(self, width, data):
        # rows take their values after the first from at most three patterns or their twins,
        # so equal rows are common, and so are rows that differ only in +-0.0 or a NaN payload
        bit = st.sampled_from(_POOL_BITS)
        tails = data.draw(st.lists(st.lists(bit, min_size=width - 1, max_size=width - 1),
                                   min_size=1, max_size=3))
        picks = data.draw(st.lists(st.tuples(bit, st.integers(0, len(tails) - 1), st.booleans()),
                                   max_size=64))
        bits = np.array([[first, *(_TWIN[b] if twin else b for b in tails[i])]
                         for first, i, twin in picks], dtype=np.uint64)
        table = bits.reshape(-1, width).view(np.float64)
        expected = "h\n" + _printf_rows(table)
        assert not _mismatches("".join(flux._format_table("h\n", table)), expected)
        assert not _mismatches("".join(flux._format_table("h\n", table[:, 0], table[:, 1:])), expected)

    def test_square_export_reuses_repeated_rows(self, monkeypatch):
        # X_N commutes with the XX bonds: only the B pulses move the coefficients, and 19,400
        # of the 20,049 rows repeat the row above after t
        r = propagate(square_schedule(25, 16.0))
        given = []
        format_values = flux._format_values
        monkeypatch.setattr(flux, "_format_values", lambda v, nl: given.append(len(v)) or format_values(v, nl))
        assert not _mismatches(series_csv(r), _row_route(r))
        assert r.alphas.size + 2 * len(r.times) == 1_042_548
        assert sum(given) <= 60_000

    def test_matches_cpython_on_a_random_sample(self):
        rng = np.random.default_rng(20261019)
        bits = rng.integers(0, 2 ** 64, 50_000, dtype=np.uint64).view(np.float64)
        scaled = rng.standard_normal(50_000) * 10.0 ** rng.integers(-40, 40, 50_000)
        table = np.concatenate([bits, scaled]).reshape(-1, 50)  # several passes of _FORMAT_CHUNK
        assert not _mismatches("".join(flux._format_table("", table)), _printf_rows(table))

    def test_digits_are_exact_and_only_ties_fall_back(self):
        # the digit route itself, not the fallback, prints every edge value: k's correction
        # lands each on its decade, and only exact ties are left to CPython
        values = np.concatenate([_edge_values(), _ties()])
        n, k, fallback = flux._digits(values)
        ties = [_is_tie(v) for v in values.tolist()]
        assert fallback.tolist() == ties and all(ties[len(_edge_values()):])
        exact = [format(abs(v), ".16e").split("e") for v, tie in zip(values.tolist(), ties) if not tie]
        assert n[~fallback].tolist() == [int(m.replace(".", "")) for m, _ in exact]
        assert k[~fallback].tolist() == [int(x) for _, x in exact]

    def test_sin6_export_is_the_row_route_with_no_fallback_and_a_lower_peak(self):
        r = propagate(sin_power_schedule(25, 6))
        table = np.column_stack([r.times, r.alphas, r.norms()])
        assert not flux._digits(table.ravel())[2].any()
        series_csv(propagate(ideal_schedule(3, "JxJy"), 1))  # the tables are built
        texts, peaks = [], []
        for export in (series_csv, _row_route):
            tracemalloc.start()
            try:
                texts.append(export(r))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert not _mismatches(*texts)
        # 47.98 MB against 48.93 MB: the passes and their joined text, no third copy
        assert peaks[0] <= peaks[1]
