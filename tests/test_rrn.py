import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from kinex import (
    InvalidParameter,
    RngStream,
    build_lattice,
    node_current_residuals,
    relax_sweep,
    run_rrn_relaxation,
    solve_kirchhoff_dense,
)
from kinex.errors import ShapeError
from kinex import relaxation, rrn
from kinex.rrn import LATTICE_INITS, ResistorLattice, _realization_series
from kinex.streams import map_stream_blocks


def roll_neighbor_sum(cond_h, cond_v, V):
    """The np.roll form of the stencil, the reference for the buffered sweep."""
    inner = V[1:-1, :]
    gh = cond_h[1:-1, :]
    return (
        cond_v[:-1, :] * V[:-2, :]
        + cond_v[1:, :] * V[2:, :]
        + gh * np.roll(inner, -1, axis=1)
        + np.roll(gh, 1, axis=1) * np.roll(inner, 1, axis=1)
    )


def roll_weight_sum(cond_h, cond_v):
    gh = cond_h[1:-1, :]
    return cond_v[:-1, :] + cond_v[1:, :] + gh + np.roll(gh, 1, axis=1)


def roll_sweep(cond_h, cond_v, V):
    """Reference Jacobi sweep on plain arrays; updates V in place and returns the
    mean |dV|, its sum taken strictly in row-major order, left to right."""
    new_inner = roll_neighbor_sum(cond_h, cond_v, V) / roll_weight_sum(cond_h, cond_v)
    d = np.abs(new_inner - V[1:-1, :]).ravel()
    x = float(np.add.accumulate(d)[-1] / d.size)
    V[1:-1, :] = new_inner
    return x


def roll_residuals(cond_h, cond_v, V):
    return roll_neighbor_sum(cond_h, cond_v, V) - roll_weight_sum(cond_h, cond_v) * V[1:-1, :]


def assert_matches_roll_oracle(lat, sweeps=1000):
    """Per-sweep x, final potentials and node residuals equal the reference byte for byte."""
    assert lat.weight_sum.tobytes() == roll_weight_sum(lat.cond_h, lat.cond_v).tobytes()
    cond_h, cond_v, V = lat.cond_h.copy(), lat.cond_v.copy(), lat.potential.copy()
    xs, ref = np.empty(sweeps), np.empty(sweeps)
    for t in range(sweeps):
        xs[t] = relax_sweep(lat)
        ref[t] = roll_sweep(cond_h, cond_v, V)
        if t % 250 == 0:
            # taking the residuals between sweeps must not change the next sweep
            got = node_current_residuals(lat)
            assert got.tobytes() == roll_residuals(cond_h, cond_v, V).tobytes()
    assert xs.tobytes() == ref.tobytes()
    assert lat.potential.tobytes() == V.tobytes()
    assert node_current_residuals(lat).tobytes() == roll_residuals(cond_h, cond_v, V).tobytes()


def relax_to_convergence(lat, threshold=1e-12, max_sweeps=100_000):
    for _ in range(max_sweeps):
        if relax_sweep(lat) < threshold:
            return lat
    raise AssertionError("lattice did not converge")


class TestBuildLattice:
    def test_homogeneous_window_relaxes_to_ramp(self):
        lat = build_lattice(9, (1.0, 1.0 + 1e-12), RngStream(2), init="half")
        relax_to_convergence(lat)
        ramp = (1.0 - np.arange(9) / 8.0)[:, None] * np.ones((9, 9))
        assert np.abs(lat.potential - ramp).max() < 1e-6

    def test_bond_statistics(self):
        lat = build_lattice(100, (0.0, 1.0), RngStream(4))
        bonds = np.concatenate([lat.cond_h.ravel(), lat.cond_v.ravel()])
        assert bonds.min() > 0.0
        assert bonds.mean() == pytest.approx(0.5, abs=0.01)

    @pytest.mark.parametrize("window", [(0.0, 1.0), (0.5, 1.0), (0.9, 1.0), (0.2, 3.0)])
    def test_bonds_at_the_largest_draw_stay_at_or_above_the_floor(self, window):
        """At the largest u numpy draws, g_max - u (g_max - lo) rounds to lo
        itself for (0.5, 1) and (0.9, 1): the window's lower end is closed."""
        largest = SimpleNamespace(gen=SimpleNamespace(random=lambda shape: np.full(shape, 1.0 - 2.0**-53)))
        lat = build_lattice(4, window, largest)
        lo = max(window[0], rrn.G_FLOOR)
        bonds = np.concatenate([lat.cond_h.ravel(), lat.cond_v.ravel()])
        assert bonds.min() >= lo > 0.0
        if window in ((0.5, 1.0), (0.9, 1.0)):
            assert np.all(bonds == lo)

    def test_degenerate_size_rejected(self):
        with pytest.raises(InvalidParameter):
            build_lattice(2, (0.0, 1.0), RngStream(0))

    def test_invalid_window_rejected(self):
        with pytest.raises(InvalidParameter):
            build_lattice(5, (1.0, 0.5), RngStream(0))
        with pytest.raises(InvalidParameter):
            build_lattice(5, (-0.1, 1.0), RngStream(0))

    def test_boundaries_pinned(self):
        lat = build_lattice(6, (0.2, 1.0), RngStream(3), init="random")
        for _ in range(50):
            relax_sweep(lat)
        assert np.all(lat.potential[0] == 1.0)
        assert np.all(lat.potential[-1] == 0.0)


class TestRelaxSweep:
    @pytest.mark.parametrize("init", LATTICE_INITS)
    @pytest.mark.parametrize("L", [3, 4, 7, 100])
    def test_matches_roll_stencil_bytewise(self, L, init):
        assert_matches_roll_oracle(build_lattice(L, (0.0, 1.0), RngStream(11, L), init=init))

    def test_direct_lattice_matches_roll_stencil_bytewise(self):
        g = np.random.default_rng(5)
        L = 6
        lat = ResistorLattice(
            side=L,
            potential=g.random((L, L)),
            cond_h=g.uniform(1e-3, 2.0, (L, L)),
            cond_v=g.uniform(1e-3, 2.0, (L - 1, L)),
            g_window=(1e-3, 2.0),
        )
        lat.potential[0] = 1.0
        lat.potential[-1] = 0.0
        assert_matches_roll_oracle(lat)

    def test_fixed_order_sum_is_within_rounding_of_numpys_mean(self):
        # The sweep sums |dV| in row-major order; numpy's mean sums pairwise,
        # so the two may differ in their last bits, and only there.
        lat = build_lattice(100, (0.0, 1.0), RngStream(11, 100), init="random")
        xs, means = np.empty(300), np.empty(300)
        for t in range(300):
            old = lat.potential[1:-1, :].copy()
            xs[t] = relax_sweep(lat)
            means[t] = np.abs(lat.potential[1:-1, :] - old).mean()
        np.testing.assert_allclose(xs, means, rtol=1e-14, atol=0)

    def test_two_resistor_divider(self):
        # unit vertical bonds, vanishing horizontal bonds: each interior node is
        # a divider between its boundary neighbors and lands at 0.5 in one sweep
        L = 3
        lat = ResistorLattice(
            side=L,
            potential=np.full((L, L), 0.2),
            cond_h=np.full((L, L), 1e-9),
            cond_v=np.ones((L - 1, L)),
            g_window=(0.0, 1.0),
        )
        lat.potential[0] = 1.0
        lat.potential[-1] = 0.0
        x = relax_sweep(lat)
        assert lat.potential[1] == pytest.approx(0.5, abs=1e-8)
        assert x == pytest.approx(0.3, abs=1e-8)

    def test_ramp_is_fixed_point(self):
        L = 5
        ramp = (1.0 - np.arange(L) / (L - 1))[:, None] * np.ones((L, L))
        lat = ResistorLattice(
            side=L,
            potential=ramp.copy(),
            cond_h=np.ones((L, L)),
            cond_v=np.ones((L - 1, L)),
            g_window=(1.0, 1.0),
        )
        assert relax_sweep(lat) == 0.0

    def test_jacobi_zeroes_node_current_against_old_neighbors(self):
        lat = build_lattice(8, (0.1, 1.0), RngStream(7), init="random")
        V_old = lat.potential.copy()
        relax_sweep(lat)
        inflow = roll_neighbor_sum(lat.cond_h, lat.cond_v, V_old)
        residual = inflow - lat.weight_sum * lat.potential[1:-1, :]
        assert np.abs(residual).max() < 1e-12

    def test_maximum_principle(self):
        for seed in (0, 1, 2):
            lat = build_lattice(10, (0.0, 1.0), RngStream(seed), init="random")
            for _ in range(300):
                relax_sweep(lat)
                assert lat.potential.min() >= 0.0
                assert lat.potential.max() <= 1.0

    def test_observable_decays_to_zero(self):
        lat = build_lattice(10, (0.0, 1.0), RngStream(9))
        xs = [relax_sweep(lat) for _ in range(3000)]
        assert xs[-1] < 1e-9
        assert xs[-1] < xs[10] < xs[0]

    @pytest.mark.parametrize("sweeps", [1, 2, 3])
    def test_potentials_written_between_sweeps_are_honoured(self, sweeps):
        # The caller may write potential in place between kernel calls,
        # boundary rows too; the next call must read what was written, whatever
        # the previous call left in the lattice's second buffer.
        lat = build_lattice(9, (0.0, 1.0), RngStream(23), init="random")
        V = lat.potential.copy()
        for step in range(4):
            xs = rrn._relax(lat, sweeps)
            want = [roll_sweep(lat.cond_h, lat.cond_v, V) for _ in range(sweeps)]
            assert xs.tobytes() == np.array(want).tobytes()
            assert lat.potential.tobytes() == V.tobytes()
            for a in (lat.potential, V):
                a[0, :] = 1.0 - 0.1 * step
                a[-1, :3] = 0.05 * step
                a[4, :] = 0.25
                a[2, 5] = 0.9
        assert relax_sweep(lat) == roll_sweep(lat.cond_h, lat.cond_v, V)
        assert lat.potential.tobytes() == V.tobytes()


def lattice_arrays(L=5):
    g = np.random.default_rng(3)
    potential = g.random((L, L))
    potential[0], potential[-1] = 1.0, 0.0
    return {
        "side": L,
        "potential": potential,
        "cond_h": g.uniform(0.1, 1.0, (L, L)),
        "cond_v": g.uniform(0.1, 1.0, (L - 1, L)),
        "g_window": (0.1, 1.0),
    }


def read_only(a):
    a.flags.writeable = False
    return a


class TestLatticeRefusesWhatTheKernelWouldMisread:
    @pytest.mark.parametrize(
        "name,bad",
        [
            ("potential", lambda a: a[:-1]),
            ("potential", lambda a: a.ravel()),
            ("cond_h", lambda a: a[:, :-1]),
            ("cond_v", lambda a: np.vstack([a, a[:1]])),
            ("cond_v", lambda a: a.T),
        ],
        ids=["potential_rows", "potential_flat", "cond_h_columns", "cond_v_rows", "cond_v_transposed"],
    )
    def test_wrong_shapes(self, name, bad):
        arrays = lattice_arrays()
        arrays[name] = bad(arrays[name])
        with pytest.raises(ShapeError, match=name):
            ResistorLattice(**arrays)

    @pytest.mark.parametrize(
        "name,bad",
        [
            ("potential", np.asfortranarray),
            ("potential", lambda a: a.astype(np.int64)),
            ("potential", lambda a: a.astype(np.float32)),
            ("potential", lambda a: a.tolist()),
            ("potential", read_only),
            ("cond_h", np.asfortranarray),
            ("cond_v", lambda a: np.repeat(a, 2, axis=1)[:, ::2]),
            ("cond_v", lambda a: a.astype(np.float32)),
        ],
        ids=["potential_fortran", "potential_int", "potential_float32", "potential_list",
             "potential_read_only", "cond_h_fortran", "cond_v_strided", "cond_v_float32"],
    )
    def test_wrong_layouts(self, name, bad):
        arrays = lattice_arrays()
        arrays[name] = bad(arrays[name])
        with pytest.raises(InvalidParameter, match=name):
            ResistorLattice(**arrays)

    def test_a_lattice_without_interior_rows(self):
        with pytest.raises(InvalidParameter, match="no interior rows"):
            ResistorLattice(**lattice_arrays(2))

    @pytest.mark.parametrize("g", [0.0, -1.0, np.nan])
    def test_a_node_without_positive_conductance(self, g):
        arrays = lattice_arrays()
        arrays["cond_v"][1, 2] = arrays["cond_v"][2, 2] = g
        arrays["cond_h"][2, 1] = arrays["cond_h"][2, 2] = g
        with pytest.raises(InvalidParameter, match="positive sum of conductances"):
            ResistorLattice(**arrays)

    @pytest.mark.parametrize("name", ["potential", "cond_h", "cond_v", "weight_sum", "side"])
    def test_attributes_cannot_be_reassigned(self, name):
        lat = ResistorLattice(**lattice_arrays())
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(lat, name, getattr(lat, name))


class TestKirchhoffOracle:
    def test_converged_potentials_match_dense_solve(self):
        for seed in (0, 1):
            lat = build_lattice(10, (0.0, 1.0), RngStream(seed))
            relax_to_convergence(lat)
            exact = solve_kirchhoff_dense(lat)
            assert np.abs(lat.potential[1:-1, :] - exact).max() < 1e-8

    def test_fixed_point_has_no_net_node_current(self):
        lat = build_lattice(12, (0.2, 1.0), RngStream(5))
        relax_to_convergence(lat)
        assert np.abs(node_current_residuals(lat)).max() < 1e-9

    def test_oracle_at_l12(self):
        lat = build_lattice(12, (0.5, 1.0), RngStream(8))
        relax_to_convergence(lat)
        exact = solve_kirchhoff_dense(lat)
        assert np.abs(lat.potential[1:-1, :] - exact).max() < 1e-8


class TestRunRrnRelaxation:
    @pytest.mark.parametrize("t_max", [1, 2, 399, 400])
    @pytest.mark.parametrize("init", LATTICE_INITS)
    @pytest.mark.parametrize("L", [3, 8, 100])
    def test_realization_series_is_t_max_roll_sweeps(self, monkeypatch, L, init, t_max):
        # A run relaxes each realization in one kernel call (kx_relax), which
        # alternates between two buffers and copies back after an odd t_max:
        # its series and final potentials are those of t_max reference sweeps.
        built = []

        def build_and_keep(*args, **kwargs):
            built.append(build_lattice(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(rrn, "build_lattice", build_and_keep)
        got = _realization_series(L, (0.0, 1.0), t_max, init, RngStream(17, L))
        fresh = build_lattice(L, (0.0, 1.0), RngStream(17, L), init=init)
        V = fresh.potential.copy()
        want = np.array([roll_sweep(fresh.cond_h, fresh.cond_v, V) for _ in range(t_max)])
        assert got.tobytes() == want.tobytes()
        assert built[0].potential.tobytes() == V.tobytes()

    def test_homogeneous_ramp_start_is_silent(self):
        s = run_rrn_relaxation(8, (1.0, 1.0 + 1e-12), 30, 3, master_seed=1, init="ramp")
        assert np.all(s.x_mean < 1e-9)

    def test_deterministic_and_worker_invariant(self):
        a = run_rrn_relaxation(8, (0.0, 1.0), 50, 6, master_seed=13, workers=1)
        b = run_rrn_relaxation(8, (0.0, 1.0), 50, 6, master_seed=13, workers=4)
        assert np.array_equal(a.x_mean, b.x_mean)

    def test_series_metadata(self):
        s = run_rrn_relaxation(8, (0.2, 1.0), 20, 2, master_seed=0)
        assert s.n_agents == 6 * 8  # interior nodes
        assert s.t[0] == 1 and len(s) == 20
        assert np.all(s.x_mean >= 0.0)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_window_sweep_is_each_windows_own_run_from_one_fan_out(self, monkeypatch, workers):
        # every window builds realization c from a fresh stream (master_seed, c),
        # so sharing one fan-out moves no bit of any window's series
        windows = ((0.5, 1.0), (1.0, 1.0 + 1e-12), (0.0, 1.0))
        own = [run_rrn_relaxation(8, w, 40, 7, 11, workers, "random") for w in windows]
        fan_outs = []

        def counted(*args, **kwargs):
            fan_outs.append(args)
            return map_stream_blocks(*args, **kwargs)

        monkeypatch.setattr(relaxation, "map_stream_blocks", counted)
        swept = run_rrn_relaxation(8, windows, 40, 7, 11, workers, "random")
        assert len(fan_outs) == 1
        assert [s.spec for s in swept] == [s.spec for s in own]
        assert [s.x_mean.tobytes() for s in swept] == [s.x_mean.tobytes() for s in own]
        assert [(s.n_configs, s.n_agents, s.master_seed) for s in swept] == [(7, 48, 11)] * 3

    def test_one_window_returns_one_series(self):
        s = run_rrn_relaxation(8, (0.2, 1.0), 20, 2, master_seed=0)
        assert isinstance(s, relaxation.RelaxationSeries)
        assert s.spec == "rrn-L8-g0.2-1"
        [only] = run_rrn_relaxation(8, ((0.2, 1.0),), 20, 2, master_seed=0)
        assert only.x_mean.tobytes() == s.x_mean.tobytes()
