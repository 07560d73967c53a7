from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kinex import (
    InvalidParameter,
    InvalidSize,
    ModelSpec,
    RngStream,
    TopologyMismatch,
    exchange_distributed_saving,
    exchange_fixed_saving,
    exchange_general,
    exchange_pure_gambling,
    init_ensemble,
    run_time_step,
)
from kinex.exchange import _lattice_neighbors, _partners

wealth = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)
lam = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
eps = st.floats(min_value=0.0, max_value=1.0)


class TestScalarRules:
    def test_pure_gambling_direct(self):
        a, b = exchange_pure_gambling(1.0, 1.0, 0.3)
        assert a == pytest.approx(0.6, rel=1e-15)
        assert b == pytest.approx(1.4, rel=1e-15)

    def test_pure_gambling_symmetric_split(self):
        for wi, wj in [(1.0, 1.0), (3.0, 5.0), (0.1, 7.3)]:
            a, b = exchange_pure_gambling(wi, wj, 0.5)
            assert a == b == 0.5 * (wi + wj)

    def test_pure_gambling_zero_case(self):
        assert exchange_pure_gambling(0.0, 0.0, 0.77) == (0.0, 0.0)

    def test_pure_gambling_rejects_bad_eps(self):
        with pytest.raises(InvalidParameter):
            exchange_pure_gambling(1.0, 1.0, 1.5)
        with pytest.raises(InvalidParameter):
            exchange_pure_gambling(1.0, 1.0, -0.1)

    def test_fixed_saving_symmetric_fixed_point(self):
        assert exchange_fixed_saving(1.0, 1.0, 0.5, 0.5) == (1.0, 1.0)

    def test_fixed_saving_direct(self):
        a, b = exchange_fixed_saving(1.0, 0.0, 0.5, 0.5)
        assert a == pytest.approx(0.75)
        assert b == pytest.approx(0.25)

    def test_fixed_saving_rejects_bad_params(self):
        with pytest.raises(InvalidParameter):
            exchange_fixed_saving(1.0, 1.0, 1.0, 0.5)
        with pytest.raises(InvalidParameter):
            exchange_fixed_saving(1.0, 1.0, 0.5, -0.2)

    def test_distributed_direct(self):
        a, b = exchange_distributed_saving(1.0, 1.0, 0.2, 0.8, 0.5)
        assert a == pytest.approx(0.7)
        assert b == pytest.approx(1.3)

    def test_distributed_direct_asymmetric(self):
        a, b = exchange_distributed_saving(1.0, 2.0, 0.9, 0.1, 0.5)
        assert a == pytest.approx(1.85)
        assert b == pytest.approx(1.15)

    def test_general_identity_map(self):
        assert exchange_general(1.0, 1.0, 1.0, 0.0) == (1.0, 1.0)

    def test_general_symmetry(self):
        assert exchange_general(1.0, 1.0, 0.5, 0.5) == (1.0, 1.0)

    def test_general_allows_negative_output(self):
        a, b = exchange_general(2.0, 1.0, -0.5, 0.25)
        assert a == pytest.approx(-0.75)
        assert b == pytest.approx(3.75)


class TestDegeneracies:
    """Each richer rule collapses to the simpler one at the degenerate parameter."""

    def _random_inputs(self, n=1000, seed=7):
        g = np.random.default_rng(seed)
        return g.uniform(0, 10, n), g.uniform(0, 10, n), g.uniform(0, 0.999, n), g.random(n)

    def test_fixed_saving_lam_zero_is_pure_gambling(self):
        wi, wj, _, ee = self._random_inputs()
        for k in range(len(wi)):
            a1, b1 = exchange_fixed_saving(wi[k], wj[k], 0.0, ee[k])
            a2, b2 = exchange_pure_gambling(wi[k], wj[k], ee[k])
            assert a1 == pytest.approx(a2, rel=1e-12)
            assert b1 == pytest.approx(b2, rel=1e-12)

    def test_distributed_equal_lams_is_fixed_saving(self):
        wi, wj, ll, ee = self._random_inputs()
        for k in range(len(wi)):
            a1, b1 = exchange_distributed_saving(wi[k], wj[k], ll[k], ll[k], ee[k])
            a2, b2 = exchange_fixed_saving(wi[k], wj[k], ll[k], ee[k])
            assert a1 == pytest.approx(a2, rel=1e-12, abs=1e-12)
            assert b1 == pytest.approx(b2, rel=1e-12, abs=1e-12)

    def test_general_equal_coeffs_is_pure_gambling(self):
        wi, wj, _, ee = self._random_inputs()
        for k in range(len(wi)):
            a1, b1 = exchange_general(wi[k], wj[k], ee[k], ee[k])
            a2, b2 = exchange_pure_gambling(wi[k], wj[k], ee[k])
            assert a1 == pytest.approx(a2, rel=1e-12)
            assert b1 == pytest.approx(b2, rel=1e-12)


class TestPairProperties:
    @given(wealth, wealth, eps)
    def test_pure_gambling_conserves_and_stays_nonneg(self, wi, wj, e):
        a, b = exchange_pure_gambling(wi, wj, e)
        assert a >= 0.0 and b >= 0.0
        assert a + b == pytest.approx(wi + wj, rel=1e-12, abs=1e-12)

    @given(wealth, wealth, lam, lam, eps)
    @settings(max_examples=200)
    def test_distributed_conserves_and_stays_nonneg(self, wi, wj, li, lj, e):
        a, b = exchange_distributed_saving(wi, wj, li, lj, e)
        assert a >= 0.0 and b >= 0.0
        assert a + b == pytest.approx(wi + wj, rel=1e-12, abs=1e-12)

    @given(
        wealth,
        wealth,
        st.floats(-2, 2, allow_nan=False),
        st.floats(-2, 2, allow_nan=False),
    )
    def test_general_conserves(self, wi, wj, e1, e2):
        a, b = exchange_general(wi, wj, e1, e2)
        assert a + b == pytest.approx(wi + wj, rel=1e-12, abs=1e-9)


class TestInitEnsemble:
    def test_equal_unit(self):
        ens = init_ensemble(ModelSpec(init="equal_unit"), 4, RngStream(1))
        assert ens.wealth.tolist() == [1.0, 1.0, 1.0, 1.0]
        assert ens.total_wealth() == 4.0

    def test_delta_one_agent(self):
        spec = ModelSpec(init="delta_one_agent", init_total=100.0)
        ens = init_ensemble(spec, 100, RngStream(1))
        assert np.count_nonzero(ens.wealth) == 1
        assert ens.wealth.max() == 100.0
        assert ens.total_wealth() == 100.0

    def test_uniform_random_total(self):
        spec = ModelSpec(init="uniform_random", init_total=50.0)
        ens = init_ensemble(spec, 10, RngStream(3))
        assert ens.wealth.min() >= 0.0
        assert ens.total_wealth() == pytest.approx(50.0, rel=1e-12)

    def test_draws_wealth_first_then_propensities(self):
        # The block maps its init draws with init_ensemble's own arithmetic, so
        # the oracle's draws are pinned here to the Generator, written out.
        spec = ModelSpec(rule="distributed_saving", init="uniform_random", init_total=50.0,
                         lambda_window=(0.2, 0.9))
        ens = init_ensemble(spec, 10, RngStream(3, 1))
        g = RngStream(3, 1).gen
        u = g.random(10)
        lam = 0.2 + (0.9 - 0.2) * g.random(10)
        assert ens.wealth.tobytes() == (u * (50.0 / u.sum())).tobytes()
        assert ens.saving.tobytes() == lam.tobytes()

    def test_distributed_lambdas_land_in_window(self):
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.5, 1.0))
        ens = init_ensemble(spec, 1000, RngStream(11))
        assert ens.saving.min() >= 0.5
        assert ens.saving.max() < 1.0
        # law-of-large-numbers check on the stream
        assert ens.saving.mean() == pytest.approx(0.75, abs=0.02)

    def test_distributed_lambdas_stay_below_a_window_end_they_round_to(self):
        # lo + (hi - lo) * u rounds up to hi = 1 for half of all u when hi - lo
        # is one ulp, and at the largest u for the window (0.5, 1); the saving
        # rules need every lambda below 1.
        edge = ModelSpec(rule="distributed_saving", lambda_window=(0.9999999999999999, 1.0))
        assert (init_ensemble(edge, 1000, RngStream(11)).saving < 1.0).all()
        largest_u = SimpleNamespace(gen=SimpleNamespace(random=lambda shape: np.full(shape, 1.0 - 2.0**-53)))
        half = ModelSpec(rule="distributed_saving", lambda_window=(0.5, 1.0))
        assert init_ensemble(half, 3, largest_u).saving.tolist() == [np.nextafter(1.0, 0.0)] * 3

    def test_distributed_lambdas_below_the_window_end_keep_their_bits(self):
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.2, 0.9))
        got = init_ensemble(spec, 1000, RngStream(5)).saving
        assert got.tobytes() == (0.2 + (0.9 - 0.2) * RngStream(5).gen.random(1000)).tobytes()

    def test_too_small_ensemble(self):
        with pytest.raises(InvalidSize):
            init_ensemble(ModelSpec(), 1, RngStream(0))

    def test_lattice_side_mismatch(self):
        spec = ModelSpec(pairing="lattice2d", lattice_side=10)
        with pytest.raises(TopologyMismatch):
            init_ensemble(spec, 99, RngStream(0))

    def test_invalid_spec_fields(self):
        with pytest.raises(InvalidParameter):
            ModelSpec(rule="fixed_saving", lambda_fixed=1.0).validate()
        with pytest.raises(InvalidParameter):
            ModelSpec(rule="distributed_saving", lambda_window=(0.8, 0.2)).validate()
        with pytest.raises(InvalidParameter):
            ModelSpec(eps_fixed=1.2).validate()
        with pytest.raises(InvalidParameter):
            ModelSpec(pairing="lattice2d").validate()

    @pytest.mark.parametrize("field", ["eps1_window", "eps2_window"])
    def test_general_window_whose_width_overflows(self, field):
        # Both bounds are finite, but hi - lo is not: the draws lo + (hi - lo) * u
        # would be nan or inf.  A window whose width a double holds still runs.
        spec = ModelSpec(rule="general", **{field: (-1e308, 1e308)})
        with pytest.raises(InvalidParameter, match=f"{field}=.*wider than a double holds"):
            spec.validate()
        with pytest.raises(InvalidParameter, match=field):
            init_ensemble(spec, 4, RngStream(0))
        wide = ModelSpec(rule="general", **{field: (-8e307, 8e307)})
        ens = init_ensemble(wide, 4, RngStream(0))
        run_time_step(ens, wide, RngStream(0))


class TestRngStream:
    def test_equal_streams_replay(self):
        a = RngStream(42, 3).gen.random(10)
        b = RngStream(42, 3).gen.random(10)
        assert np.array_equal(a, b)

    def test_distinct_streams_differ(self):
        a = RngStream(42, 0).gen.random(10)
        b = RngStream(42, 1).gen.random(10)
        assert not np.array_equal(a, b)


class TestRunTimeStep:
    def test_symmetric_eps_two_agents_is_static(self):
        spec = ModelSpec(rule="pure_gambling", eps_fixed=0.5)
        ens = init_ensemble(spec, 2, RngStream(0))
        delta = run_time_step(ens, spec, RngStream(0, 1))
        assert delta == 0.0
        assert ens.wealth.tolist() == [1.0, 1.0]

    @pytest.mark.parametrize(
        "spec",
        [
            ModelSpec(rule="pure_gambling"),
            ModelSpec(rule="fixed_saving", lambda_fixed=0.4),
            ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0)),
            ModelSpec(rule="general", eps1_window=(0.0, 1.0), eps2_window=(0.0, 1.0)),
        ],
    )
    def test_conservation_over_steps(self, spec):
        rng = RngStream(99, 0)
        ens = init_ensemble(spec, 50, rng)
        total0 = ens.total_wealth()
        for _ in range(200):
            run_time_step(ens, spec, rng)
        assert ens.total_wealth() == pytest.approx(total0, rel=1e-9)

    def test_full_run_positivity_scan(self):
        # 5000 steps of the distributed model: no wealth ever drops below zero
        spec = ModelSpec(rule="distributed_saving", lambda_window=(0.0, 1.0))
        rng = RngStream(17, 0)
        ens = init_ensemble(spec, 100, rng)
        for _ in range(5000):
            run_time_step(ens, spec, rng)
            assert ens.wealth.min() >= 0.0

    def test_lattice_pairing_runs_and_conserves(self):
        spec = ModelSpec(
            rule="distributed_saving",
            lambda_window=(0.0, 1.0),
            pairing="lattice2d",
            lattice_side=6,
        )
        rng = RngStream(5, 0)
        ens = init_ensemble(spec, 36, rng)
        for _ in range(100):
            run_time_step(ens, spec, rng)
        assert ens.total_wealth() == pytest.approx(36.0, rel=1e-9)

    def test_abs_delta_matches_snapshots(self):
        spec = ModelSpec(rule="pure_gambling")
        rng = RngStream(21, 0)
        ens = init_ensemble(spec, 30, rng)
        before = ens.wealth.copy()
        delta = run_time_step(ens, spec, rng)
        assert delta == pytest.approx(np.abs(ens.wealth - before).sum(), rel=1e-15)


def test_lattice_neighbor_table():
    nbr = _lattice_neighbors(4)
    # site (1, 2) -> index 6; von Neumann neighbors with wraparound
    assert sorted(nbr[6].tolist()) == sorted([2, 10, 5, 7])
    # corner (0, 0) wraps both directions
    assert sorted(nbr[0].tolist()) == sorted([12, 4, 3, 1])
    # _partners maps every (agent, raw draw) pair: on a 3x3 lattice direction d
    # is the table's neighbor d; in mean field at n = 5 a draw in [0, n - 1)
    # never names i itself and reaches each of the other agents once
    lattice = ModelSpec(pairing="lattice2d", lattice_side=3)
    ii, raw = np.divmod(np.arange(9 * 4), 4)
    assert _partners(lattice, ii, raw).tolist() == _lattice_neighbors(3).ravel().tolist()
    ii, raw = np.divmod(np.arange(5 * 4), 4)
    jj = _partners(ModelSpec(), ii, raw).reshape(5, 4)
    assert [sorted(row) for row in jj.tolist()] == [[j for j in range(5) if j != i] for i in range(5)]
