import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex import (
    InsufficientData,
    InvalidParameter,
    LogDomainError,
    NoDecayWindow,
    NotDecaying,
    RelaxationSeries,
    WindowContainsCrossing,
    auto_window,
    fit_pure,
    fit_shifted,
)
from kinex.expfit import FORM_PURE, FORM_SHIFTED


def series_from(x, t=None):
    x = np.asarray(x, dtype=float)
    t = np.arange(1, len(x) + 1) if t is None else np.asarray(t)
    return RelaxationSeries(t=t, x_mean=x, n_configs=1, n_agents=1, master_seed=0)


def shifted_synthetic(x0, amp, tau, n=200, t=None):
    t = np.arange(1, n + 1) if t is None else np.asarray(t)
    return series_from(x0 - amp * np.exp(-t / tau), t)


class TestFitShifted:
    def test_exact_recovery(self):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=60)
        fit = fit_shifted(s, (1, 60), 0.5)
        assert fit.tau == pytest.approx(10.0, rel=1e-9)
        assert fit.amplitude == pytest.approx(0.3, rel=1e-9)
        assert fit.r_squared > 0.999999
        assert fit.form == FORM_SHIFTED

    def test_noisy_recovery(self):
        g = np.random.default_rng(4)
        t = np.arange(1, 61)
        x = 0.5 - 0.3 * np.exp(-t / 10.0) + g.uniform(-1e-3, 1e-3, 60)
        # stop at t=40 where the signal still clears the noise band
        fit = fit_shifted(series_from(x, t), (1, 40), 0.5)
        assert fit.tau == pytest.approx(10.0, abs=0.5)

    def test_constant_series_is_not_decaying(self):
        s = series_from(np.full(40, 0.2))
        with pytest.raises(NotDecaying):
            fit_shifted(s, (1, 40), 0.5)

    def test_crossing_window_rejected(self):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=60)
        with pytest.raises(WindowContainsCrossing):
            fit_shifted(s, (1, 60), 0.3)  # x rises through 0.3 near t=4

    def test_exact_touch_rejected(self):
        s = series_from(np.array([0.5, 0.4, 0.3, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8]))
        with pytest.raises(WindowContainsCrossing):
            fit_shifted(s, (1, 10), 0.2)

    def test_window_too_small(self):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=60)
        with pytest.raises(InvalidParameter):
            fit_shifted(s, (1, 5), 0.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_not_decaying(self, bad):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=60)
        s.x_mean[20] = bad
        with pytest.raises(NotDecaying, match="not finite"):
            fit_shifted(s, (1, 60), 0.5)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_non_finite_plateau_is_not_decaying(self, x0):
        # a diverging run's plateau: x0 - x would be non-finite everywhere, and
        # its fit would read tau = nan with r^2 = 1
        with pytest.raises(NotDecaying, match="not finite"):
            fit_shifted(shifted_synthetic(0.5, 0.3, 10.0, n=60), (1, 60), x0)

    def test_approach_from_above(self):
        t = np.arange(1, 80)
        s = series_from(0.1 + 0.4 * np.exp(-t / 15.0), t)
        fit = fit_shifted(s, (2, 70), 0.1)
        assert fit.tau == pytest.approx(15.0, rel=1e-9)


class TestFitPure:
    def test_exact_recovery(self):
        t = np.arange(1, 101)
        s = series_from(2.0 * np.exp(-t / 25.0), t)
        fit = fit_pure(s, (1, 100))
        assert fit.tau == pytest.approx(25.0, rel=1e-9)
        assert fit.amplitude == pytest.approx(2.0, rel=1e-9)
        assert fit.x0 == 0.0
        assert fit.form == FORM_PURE

    def test_constant_is_not_decaying(self):
        with pytest.raises(NotDecaying):
            fit_pure(series_from(np.ones(30)), (1, 30))

    def test_log_domain_error(self):
        x = 2.0 * np.exp(-np.arange(1, 31) / 5.0)
        x[10] = 0.0
        with pytest.raises(LogDomainError):
            fit_pure(series_from(x), (1, 30))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_sample_is_not_decaying(self, bad):
        x = 2.0 * np.exp(-np.arange(1, 31) / 5.0)
        x[10] = bad
        with pytest.raises(NotDecaying, match="not finite"):
            fit_pure(series_from(x), (1, 30))

    def test_two_regime_windowing(self):
        # decay then flat floor: a fit restricted to the decay region recovers
        # tau; the full-window fit is visibly worse
        t = np.arange(1, 161)
        x = np.maximum(2.0 * np.exp(-t / 12.0), 0.05)
        s = series_from(x, t)
        good = fit_pure(s, (1, 40))
        bad = fit_pure(s, (1, 160))
        assert good.tau == pytest.approx(12.0, rel=1e-6)
        assert good.r_squared > 0.999999
        assert bad.r_squared < good.r_squared


class TestAutoWindow:
    def test_noisy_tail_crossing_point(self):
        g = np.random.default_rng(12)
        t = np.arange(1, 201)
        x = 0.5 - 0.3 * np.exp(-t / 10.0) + g.normal(0.0, 1e-4, 200)
        s = series_from(x, t)
        lo, hi = auto_window(s, 0.5)
        assert lo == 2
        # crossing of 0.3 exp(-t/10) = 3 * sigma_tail is near t = 10 ln(1000) ~ 69
        assert 55 <= hi <= 85
        # direct-scan oracle: hi is the last sample before the first threshold hit
        sigma = x[-50:].std(ddof=1)
        scan = 0
        for k in range(1, 200):
            if abs(x[k] - 0.5) <= 3 * sigma:
                break
            scan = k
        assert hi == t[scan]

    def test_pure_noise_has_no_window(self):
        g = np.random.default_rng(3)
        s = series_from(1.0 + 1e-3 * g.standard_normal(100))
        with pytest.raises(NoDecayWindow):
            auto_window(s, 1.0)

    def test_noiseless_window_matches_direct_scan(self):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=200)
        lo, hi = auto_window(s, 0.5)
        assert lo == 2
        # direct scan with the distinguishability rule applied by hand
        sigma = s.x_mean[-50:].std(ddof=1)
        scan = 0
        for k in range(1, 200):
            if abs(s.x_mean[k] - 0.5) <= 3 * sigma:
                break
            scan = k
        assert hi == s.t[scan]

    def test_flat_tail_keeps_whole_series_distinguishable(self):
        x = np.concatenate([0.5 - 0.3 * np.exp(-np.arange(1, 101) / 10.0), np.full(100, 0.49)])
        lo, hi = auto_window(series_from(x), 0.5)
        # exactly constant tail: zero threshold, every sample qualifies
        assert (lo, hi) == (2, 200)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_tail_has_no_window(self, bad):
        # a diverging run's tail: its spread is not finite, so every sample
        # would otherwise clear the threshold and the window span the series
        s = shifted_synthetic(0.5, 0.3, 10.0, n=200)
        s.x_mean[-10:] = bad
        with pytest.raises(NoDecayWindow, match="not finite"):
            auto_window(s, 0.5)

    @pytest.mark.parametrize("x0", [np.nan, np.inf, -np.inf])
    def test_non_finite_plateau_has_no_window(self, x0):
        with pytest.raises(NoDecayWindow, match="not finite"):
            auto_window(shifted_synthetic(0.5, 0.3, 10.0, n=200), x0)

    def test_short_series_rejected(self):
        s = shifted_synthetic(0.5, 0.3, 5.0, n=15)
        with pytest.raises(InsufficientData):
            auto_window(s, 0.5)


class TestFitProperties:
    @given(
        st.floats(min_value=2.0, max_value=100.0),
        st.floats(min_value=1e-3, max_value=1e3),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=60)
    def test_noiseless_recovery_anywhere(self, tau, amp, x0):
        # window ends at ~10 tau so the shifted residual stays well above the
        # float resolution of x0
        end = int(10 * tau)
        t = np.arange(1, end + 11)
        s = series_from(x0 - amp * np.exp(-t / tau), t)
        fit = fit_shifted(s, (2, end), x0)
        assert fit.tau == pytest.approx(tau, rel=1e-6)
        assert fit.amplitude == pytest.approx(amp, rel=1e-6)

    def test_shift_equivalence_is_exact(self):
        s = shifted_synthetic(0.5, 0.3, 10.0, n=120)
        flipped = series_from(0.5 - s.x_mean, s.t)
        a = fit_shifted(s, (2, 100), 0.5)
        b = fit_pure(flipped, (2, 100))
        assert a.tau == b.tau
        assert a.amplitude == b.amplitude
        assert a.r_squared == b.r_squared

    def test_time_relabeling_scales_tau_exactly(self):
        t1 = np.arange(1, 101)
        x = 2.0 * np.exp(-t1 / 25.0)
        a = fit_pure(series_from(x, t1), (2, 100))
        b = fit_pure(series_from(x, 2 * t1), (4, 200))
        assert b.tau == 2.0 * a.tau

    def test_tau_stderr_tracks_noise(self):
        g = np.random.default_rng(5)
        t = np.arange(1, 101)
        clean = fit_pure(series_from(2.0 * np.exp(-t / 20.0), t), (2, 90))
        noisy = fit_pure(
            series_from(2.0 * np.exp(-t / 20.0) * np.exp(g.normal(0, 0.05, 100)), t), (2, 90)
        )
        assert clean.tau_stderr < noisy.tau_stderr
        assert noisy.tau == pytest.approx(20.0, rel=0.15)
