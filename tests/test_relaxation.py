import numpy as np
import pytest

from kinex import (
    InsufficientData,
    InvalidParameter,
    ModelSpec,
    RelaxationSeries,
    equilibrium_window_stats,
    fit_pure,
    read_series_csv,
    run_relaxation,
    write_series_csv,
)


def synthetic_series(x, t=None, **kw):
    x = np.asarray(x, dtype=float)
    t = np.arange(1, len(x) + 1) if t is None else np.asarray(t)
    defaults = dict(n_configs=1, n_agents=1, master_seed=0)
    defaults.update(kw)
    return RelaxationSeries(t=t, x_mean=x, **defaults)


class TestEquilibriumWindow:
    def test_constant_series(self):
        s = synthetic_series(np.full(40, 3.25))
        for tf in (0.1, 0.25, 0.5):
            assert equilibrium_window_stats(s, tf)[0] == pytest.approx(3.25)

    def test_synthetic_tail_average(self):
        t = np.arange(1, 201)
        s = synthetic_series(0.5 - 0.3 * np.exp(-t / 10.0), t)
        # closed form: tail average differs from 0.5 by ~1.7e-8
        assert equilibrium_window_stats(s, 0.25)[0] == pytest.approx(0.5, abs=1e-4)

    def test_toy_increasing_series(self):
        s = synthetic_series(np.arange(1.0, 101.0))
        assert equilibrium_window_stats(s, 0.1)[0] == pytest.approx(95.5)

    def test_too_short(self):
        with pytest.raises(InsufficientData):
            equilibrium_window_stats(synthetic_series(np.ones(5)), 0.25)[0]

    def test_bad_fraction(self):
        s = synthetic_series(np.ones(40))
        for tf in (0.0, 0.6, -0.1):
            with pytest.raises(InvalidParameter):
                equilibrium_window_stats(s, tf)[0]

    def test_stats_sem(self):
        g = np.random.default_rng(0)
        s = synthetic_series(1.0 + 0.01 * g.standard_normal(400))
        mean, sem = equilibrium_window_stats(s, 0.25)
        assert mean == pytest.approx(1.0, abs=0.005)
        assert sem == pytest.approx(0.01 / np.sqrt(100), rel=0.5)


class TestRunRelaxation:
    def test_deterministic_replay(self):
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
        a = run_relaxation(spec, 30, 40, 8, master_seed=12)
        b = run_relaxation(spec, 30, 40, 8, master_seed=12)
        assert np.array_equal(a.x_mean, b.x_mean)

    def test_worker_count_is_invisible(self):
        spec = ModelSpec(rule="pure_gambling")
        a = run_relaxation(spec, 25, 30, 12, master_seed=3, workers=1)
        b = run_relaxation(spec, 25, 30, 12, master_seed=3, workers=4)
        assert np.array_equal(a.x_mean, b.x_mean)

    def test_identity_dynamics_is_silent(self):
        spec = ModelSpec(rule="general", eps1_window=(1.0, 1.0), eps2_window=(0.0, 0.0))
        s = run_relaxation(spec, 20, 25, 5, master_seed=1)
        assert np.all(s.x_mean == 0.0)

    def test_near_total_saving_freezes_exchange(self):
        spec = ModelSpec(rule="fixed_saving", lambda_fixed=0.999)
        s = run_relaxation(spec, 50, 30, 10, master_seed=2)
        assert np.all(s.x_mean < 0.005)

    def test_wealth_scale_homogeneity_is_exact(self):
        # all rules are homogeneous of degree 1: doubling the initial total
        # doubles every sample bitwise for the same seeds
        base = dict(rule="distributed_saving", lambda_window=(0.0, 1.0), init="uniform_random")
        a = run_relaxation(ModelSpec(init_total=100.0, **base), 50, 20, 3, master_seed=9)
        b = run_relaxation(ModelSpec(init_total=200.0, **base), 50, 20, 3, master_seed=9)
        assert np.array_equal(2.0 * a.x_mean, b.x_mean)

    def test_balanced_split_decays_monotonically(self):
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=0.5)
        s = run_relaxation(spec, 100, 60, 400, master_seed=8)
        ma = np.convolve(s.x_mean, np.ones(3) / 3, mode="valid")
        assert np.all(np.diff(ma[2:]) <= 1e-3)
        # the initial stretch is near-linear on a semi-log plot
        assert fit_pure(s, (2, 15)).r_squared > 0.9

    def test_split_parameter_symmetry_of_plateau(self):
        # eps -> 1 - eps relabels the roles inside every pair exchange, so the
        # stationary law is identical; matched seeds give near-identical plateaus
        def plateau(eps):
            spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0), eps_fixed=eps)
            s = run_relaxation(spec, 100, 120, 200, master_seed=6)
            return equilibrium_window_stats(s)

        (m_lo, sem_lo), (m_hi, sem_hi) = plateau(0.45), plateau(0.55)
        assert abs(m_lo - m_hi) < 3.0 * (sem_lo + sem_hi)

    def test_time_axis_and_lengths(self):
        s = run_relaxation(ModelSpec(), 10, 15, 2, master_seed=0)
        assert s.t[0] == 1 and s.t[-1] == 15
        assert len(s.t) == len(s.x_mean)
        assert np.all(s.x_mean >= 0.0)

    def test_rejects_degenerate_runs(self):
        with pytest.raises(InvalidParameter):
            run_relaxation(ModelSpec(), 10, 1, 2, master_seed=0)
        with pytest.raises(InvalidParameter):
            run_relaxation(ModelSpec(), 10, 10, 0, master_seed=0)


class TestSeriesCsv:
    def test_round_trip(self, tmp_path):
        spec = ModelSpec(rule="pure_gambling")
        s = run_relaxation(spec, 12, 20, 3, master_seed=77)
        path = tmp_path / "series.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert np.array_equal(back.t, s.t)
        assert np.array_equal(back.x_mean, s.x_mean)
        assert back.n_agents == 12
        assert back.n_configs == 3
        assert back.master_seed == 77
        assert back.spec == spec.digest()

    def test_round_trip_keeps_every_bit(self, tmp_path):
        """Compared as bytes: np.array_equal takes -0.0 for 0.0 and nan for unequal to itself."""
        x = np.array([-0.0, 0.0, 5e-324, 1e16, 1.0 / 3.0, np.nan, -np.inf, 2.0**-1074 * 3])
        s = synthetic_series(x, master_seed=3, spec="edge")
        path = tmp_path / "edge.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
        assert back.x_mean.tobytes() == x.tobytes()
        assert back.t.tobytes() == np.arange(1, len(x) + 1, dtype=np.int64).tobytes()
        assert (back.spec, back.master_seed) == ("edge", 3)

    def test_bytes_are_deterministic(self, tmp_path):
        s = run_relaxation(ModelSpec(), 10, 12, 2, master_seed=5)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_series_csv(s, p1, extra={"tag": "x"})
        write_series_csv(s, p2, extra={"tag": "x"})
        assert p1.read_bytes() == p2.read_bytes()
