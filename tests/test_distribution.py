import numpy as np
import pytest

from kinex import ModelSpec
from kinex.distribution import (
    fit_histogram_slope,
    lambda_binned_means,
    run_equilibrium,
    wealth_histogram,
)
from kinex.errors import InvalidParameter


class TestWealthHistogram:
    def test_counts_and_density_normalize(self):
        g = np.random.default_rng(0)
        values = g.exponential(1.0, 20_000)
        edges, counts, density = wealth_histogram(values, 40)
        assert counts.sum() == 20_000
        width = edges[1] - edges[0]
        assert (density * width).sum() == pytest.approx(1.0)

    def test_exponential_sample_slope(self):
        # independent oracle: exponential(T) samples must fit slope -1/T
        g = np.random.default_rng(1)
        T = 2.0
        values = g.exponential(T, 50_000)
        edges, counts, _ = wealth_histogram(values, 50)
        slope, r2 = fit_histogram_slope(edges, counts)
        assert slope == pytest.approx(-1.0 / T, rel=0.05)
        assert r2 > 0.98

    def test_empty_input_rejected(self):
        with pytest.raises(InvalidParameter):
            wealth_histogram(np.array([]))
        with pytest.raises(InvalidParameter):
            wealth_histogram(np.zeros(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_samples_are_named(self, bad):
        # a diverging general-rule run: no range holds them, and min/max with
        # a nan would read as an empty range
        values = np.array([1.0, bad, 2.0, bad])
        with pytest.raises(InvalidParameter, match="2 of 4 samples are not finite"):
            wealth_histogram(values)

    def test_negative_samples_are_counted(self):
        values = np.array([-2.0, -0.5, 0.0, 1.0, 3.0])
        edges, counts, _ = wealth_histogram(values, 5)
        assert (edges[0], edges[-1]) == (-2.0, 3.0)
        assert counts.tolist() == [1, 1, 1, 1, 1]
        edges, counts, _ = wealth_histogram(np.array([-2.0, -0.5, -1.0]), 4)
        assert (edges[0], edges[-1]) == (-2.0, 0.0)
        assert counts.tolist() == [1, 0, 1, 1]


class TestLambdaBins:
    def test_handmade_binning(self):
        lams = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
        w = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        lo, hi, means = lambda_binned_means(lams, w, n_bins=5, window=(0.0, 1.0))
        assert np.allclose(means, [1.0, 2.0, 3.0, 4.0, 5.0])
        assert lo[0] == 0.0 and hi[-1] == 1.0

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(InvalidParameter):
            lambda_binned_means(np.ones(3), np.ones(4))


class TestStationaryShapes:
    def test_fixed_saving_histogram_is_humped(self):
        # saving pushes the stationary distribution off zero: the modal bin sits
        # away from the origin, unlike the pure-gambling exponential
        spec = ModelSpec(rule="fixed_saving", lambda_fixed=0.5)
        pool = run_equilibrium(spec, 100, 150, 0, 200, master_seed=2, workers=2)
        edges, counts, _ = wealth_histogram(pool.wealth, 30)
        mode_bin = int(np.argmax(counts))
        assert mode_bin > 0
        assert counts[0] < counts[mode_bin]


class TestRunEquilibrium:
    def test_shapes_and_determinism(self):
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0))
        a = run_equilibrium(spec, 20, 10, 5, 4, master_seed=3)
        b = run_equilibrium(spec, 20, 10, 5, 4, master_seed=3, workers=2)
        assert a.wealth.shape == (80,)
        assert np.array_equal(a.wealth, b.wealth)
        assert np.array_equal(a.wealth_time_avg, b.wealth_time_avg)

    def test_conservation_of_pooled_wealth(self):
        spec = ModelSpec(rule="pure_gambling")
        pool = run_equilibrium(spec, 25, 20, 0, 8, master_seed=1)
        # each config starts from 25 units of total wealth
        assert pool.wealth.reshape(8, 25).sum(axis=1) == pytest.approx(np.full(8, 25.0), rel=1e-9)
