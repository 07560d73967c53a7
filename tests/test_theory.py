import math
from types import SimpleNamespace

import numpy as np
import pytest

from kinex import (
    GeneralParams,
    InvalidParameter,
    decay_rate,
    exchange_fixed_saving,
    k_positive_for_half,
    map_random_saving,
    predict,
    solution_from_first_two,
)
from kinex import theory


class TestMapping:
    def test_no_saving_reduces_to_pure_gambling_coeffs(self):
        for eps in (0.0, 0.3, 0.5, 1.0):
            p = map_random_saving(0.0, 0.0, eps)
            assert (p.eps1, p.eps2) == (eps, eps)

    def test_direct(self):
        p = map_random_saving(0.5, 0.5, 0.5)
        assert p.eps1 == pytest.approx(0.75)
        assert p.eps2 == pytest.approx(0.25)

    def test_saver_keeps_wealth_in_the_limit(self):
        p = map_random_saving(1.0 - 1e-12, 0.3, 0.7)
        assert p.eps1 == pytest.approx(1.0, abs=1e-11)

    def test_range_validation(self):
        with pytest.raises(InvalidParameter):
            map_random_saving(1.0, 0.5, 0.5)
        with pytest.raises(InvalidParameter):
            map_random_saving(0.5, 0.5, 1.5)

    def test_nonfinite_params_rejected(self):
        with pytest.raises(InvalidParameter):
            GeneralParams(float("nan"), 0.0)


class TestDecayRate:
    def test_identity_dynamics_has_zero_rate(self):
        assert decay_rate(GeneralParams(1.0, 0.0)) == 0.0

    def test_direct(self):
        assert decay_rate(GeneralParams(0.75, 0.25)) == pytest.approx(0.5)

    def test_balanced_split_formula(self):
        # at eps = 1/2 the rate collapses to 1 - (lam_i + lam_j)/2
        g = np.random.default_rng(6)
        for li, lj in zip(g.random(500), g.random(500)):
            k = decay_rate(map_random_saving(li, lj, 0.5))
            assert k == pytest.approx(1.0 - 0.5 * (li + lj), rel=1e-12, abs=1e-12)


class TestPositivity:
    def test_full_window(self):
        assert k_positive_for_half((0.0, 1.0), n_samples=100_000) is True

    def test_high_saving_window(self):
        assert k_positive_for_half((0.7, 1.0), n_samples=100_000) is True
        # rates for this window live in (0, 0.3]
        g = np.random.default_rng(0)
        li = 0.7 + 0.3 * g.random(10_000)
        lj = 0.7 + 0.3 * g.random(10_000)
        k = 1.0 - 0.5 * (li + lj)
        assert k.min() > 0.0
        assert k.max() <= 0.3

    @pytest.mark.parametrize("window", [(0.5, 1.0), (0.7, 1.0)])
    def test_largest_draw_keeps_the_rate_positive(self, monkeypatch, window):
        """lo + (hi - lo) u rounds to 1.0 at the largest u numpy draws for these
        windows; the propensities are drawn below the window's end, as the
        model draws them, so the rate stays positive."""
        largest = SimpleNamespace(random=lambda n: np.full(n, 1.0 - 2.0**-53))
        monkeypatch.setattr(theory, "RngStream", lambda seed: SimpleNamespace(gen=largest))
        assert k_positive_for_half(window, n_samples=4) is True

    def test_degenerate_no_saving_rate(self):
        assert decay_rate(map_random_saving(0.0, 0.0, 0.5)) == 1.0

    def test_window_validation(self):
        with pytest.raises(InvalidParameter):
            k_positive_for_half((0.5, 1.2))
        with pytest.raises(InvalidParameter):
            k_positive_for_half((-0.1, 0.5))


class TestPredict:
    def test_initial_value(self):
        assert predict(2.0, 3.0, 0.7, 0.0) == pytest.approx(5.0)

    def test_asymptote(self):
        assert predict(1.0, -0.5, 0.5, 1e9) == pytest.approx(1.0)

    def test_growth_case(self):
        assert predict(0.0, 1.0, -0.1, 10.0) == pytest.approx(math.e, rel=1e-12)

    def test_monotone_with_sign_of_b_times_k(self):
        t = np.linspace(0.0, 50.0, 200)
        for a, b, k in [(1.0, 1.0, 0.2), (1.0, -1.0, 0.2), (0.0, 2.0, -0.05)]:
            vals = predict(a, b, k, t)
            diffs = np.diff(vals)
            if b * k > 0:
                assert np.all(diffs <= 0)
            else:
                assert np.all(diffs >= 0)

    def test_solution_from_first_two_pins_endpoints(self):
        sol = solution_from_first_two(2.0, 1.5, 0.25)
        assert sol.value(0.0) == pytest.approx(2.0)
        assert sol.value(1.0) == pytest.approx(1.5)


class TestDeterministicPairConsistency:
    def test_two_agent_balanced_split_follows_prediction(self):
        # two agents under the fixed-saving rule with a balanced split form an
        # exactly linear map; near lam -> 1 the continuum rate k = 1 - lam
        # reproduces each step's increment to better than 1e-6
        lam = 0.999
        w = [1.6, 0.4]
        traj = [w[0]]
        for _ in range(200):
            w = list(exchange_fixed_saving(w[0], w[1], lam, 0.5))
            traj.append(w[0])
        traj = np.asarray(traj)
        sol = solution_from_first_two(traj[0], traj[1], k=1.0 - lam)
        pred = np.asarray([sol.value(float(t)) for t in range(201)])
        step_errors = np.abs(np.diff(pred) - np.diff(traj))
        assert step_errors.max() < 1e-6
        # the map contracts toward the even split
        assert traj[-1] == pytest.approx(1.0, abs=abs(traj[0] - 1.0))
