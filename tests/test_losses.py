"""Hazard likelihood terms, debiased competing-events losses, auxiliaries."""

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import autodiff as ad
from survformer import losses as L
from survformer.data import TimeGrid

from oracles import assert_grads_match, fd_gradients, pch_oracle, probe


def grid123():
    return TimeGrid(np.array([1.0, 2.0, 3.0]))


class TestPchLoss:
    def test_censored_with_vanishing_hazard_vanishes(self):
        loss = L.pch_loss(np.full(3, 1e-12), 2.5, 0, grid123())
        assert 0.0 <= loss < 1e-10

    def test_event_first_bin_full_fraction(self):
        # t at the first cut: kappa=1, rho=1, hazard 1 -> -log(1) + 1 = 1
        grid = TimeGrid(np.array([2.0]))
        assert L.pch_loss(np.array([1.0]), 2.0, 1, grid) == pytest.approx(1.0, rel=1e-12)

    def test_censored_third_bin_half_fraction(self):
        # rho = 0.5 in bin 3, hazard 2 everywhere: 2*0.5 + (2 + 2) = 5
        loss = L.pch_loss(np.full(3, 2.0), 2.5, 0, grid123())
        assert loss == pytest.approx(5.0, rel=1e-12)

    def test_nonpositive_hazard_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            L.pch_loss(np.array([1.0, 0.0, 1.0]), 2.5, 0, grid123())

    def test_bad_event_indicator_rejected(self):
        with pytest.raises(ValueError, match="indicator"):
            L.pch_loss(np.ones(3), 1.0, 2, grid123())

    def test_gradient_in_current_bin_is_rho_minus_e_over_hazard(self):
        grid = grid123()
        h = 1e-6
        for e in (0, 1):
            hazards = np.array([0.5, 1.7, 0.9])
            t = 2.5  # bin 3, rho 0.5
            up = L.pch_loss(hazards + np.array([0, 0, h]), t, e, grid)
            dn = L.pch_loss(hazards - np.array([0, 0, h]), t, e, grid)
            fd = (up - dn) / (2 * h)
            expected = 0.5 - e / hazards[2]
            assert fd == pytest.approx(expected, rel=1e-6)

    def test_censored_always_nonnegative(self):
        rng = np.random.default_rng(0)
        grid = grid123()
        for _ in range(200):
            hazards = rng.uniform(1e-6, 5.0, size=3)
            t = rng.uniform(0.0, 3.0)
            assert L.pch_loss(hazards, t, 0, grid) >= 0.0


@st.composite
def pch_cases(draw):
    """Hazards, grid, and durations at 0, on cut points, inside bins and
    past the last cut, with event indicators and a cotangent per record."""
    m = draw(st.integers(1, 4))
    cuts = np.cumsum(draw(st.lists(st.floats(0.1, 2.0), min_size=m, max_size=m)))
    B = draw(st.integers(1, 4))
    hazards = np.array(draw(st.lists(st.floats(0.05, 3.0), min_size=B * m, max_size=B * m)))
    duration = st.one_of(
        st.just(0.0),
        st.sampled_from(cuts.tolist()),
        st.floats(0.0, float(cuts[-1])),
        st.floats(float(cuts[-1]) * 1.001, float(cuts[-1]) * 3.0),
    )
    t = np.array(draw(st.lists(duration, min_size=B, max_size=B)))
    e = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=B, max_size=B)))
    g = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=B, max_size=B)))
    g *= np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=B, max_size=B)))
    return TimeGrid(cuts), hazards.reshape(B, m), t, e, g


class TestPchTerms:
    @given(pch_cases())
    @settings(max_examples=150, deadline=None)
    def test_value_and_gradient_match_oracles(self, case):
        grid, hazards, t, e, g = case
        got, vjp = L.pch_terms(hazards, grid, t, e)
        for i in range(len(t)):
            want = pch_oracle(hazards[i], grid.cuts, t[i], e[i])
            assert got[i] == pytest.approx(want, rel=1e-12, abs=1e-12)

        h = ad.Tensor(hazards.copy())  # a holder whose data the differences perturb
        fd = fd_gradients(lambda: float((g * L.pch_terms(h.data, grid, t, e)[0]).sum()), [h])
        # atol covers the roundoff of a loss near 100 divided by the 1e-6 step
        assert_grads_match([vjp(g)], fd, atol=1e-7)

    def test_nonpositive_hazard_in_duration_bin_raises_before_log(self):
        grid = grid123()
        hazards = np.array([[1.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="positive"):
                L.pch_terms(hazards, grid, np.array([1.5, 0.5]), np.zeros(2))
            # a zero hazard after the duration's bin never enters the term
            L.pch_terms(hazards, grid, np.array([0.5, 1.5]), np.ones(2))


def hand_naive(losses_matrix, events):
    """Direct enumeration of the observed-event average."""
    total = 0.0
    count = 0
    for i, e in enumerate(events):
        for k in range(losses_matrix.shape[1]):
            if e == k + 1:
                total += losses_matrix[i, k]
                count += 1
    return total / count


class TestNaiveCompetingLoss:
    def test_single_record_single_indicator(self):
        grid = grid123()
        hazards = np.array([[[0.5, 0.5, 0.5], [2.0, 2.0, 2.0]]])  # (1, 2, 3)
        got = L.naive_competing_loss(hazards, np.array([1.5]), np.array([1]), grid)
        want = L.pch_loss(hazards[0, 0], 1.5, 1, grid)
        assert got == pytest.approx(want, rel=1e-12)

    def test_duplicated_records_leave_ratio_unchanged(self):
        grid = grid123()
        rng = np.random.default_rng(1)
        hazards = rng.uniform(0.1, 2.0, size=(1, 2, 3))
        t = np.array([1.2])
        e = np.array([2])
        single = L.naive_competing_loss(hazards, t, e, grid)
        tripled = L.naive_competing_loss(
            np.repeat(hazards, 3, axis=0), np.repeat(t, 3), np.repeat(e, 3), grid
        )
        assert tripled == pytest.approx(single, rel=1e-12)

    def test_three_records_match_hand_enumeration(self):
        grid = grid123()
        hazards = np.array([
            [[0.2, 0.4, 0.6], [1.0, 1.0, 1.0]],
            [[0.5, 0.5, 0.5], [0.3, 0.9, 2.7]],
            [[2.0, 1.0, 0.5], [0.7, 0.7, 0.7]],
        ])
        t = np.array([0.5, 1.5, 3.0])
        e = np.array([1, 2, 1])
        matrix = L.event_loss_matrix(hazards, t, grid)
        for i in range(3):
            for k in range(2):
                want = L.pch_loss(hazards[i, k], t[i], 1, grid)
                assert matrix[i, k] == pytest.approx(want, rel=1e-12)
        got = L.naive_competing_loss(hazards, t, e, grid)
        assert got == pytest.approx(hand_naive(matrix, e), rel=1e-12)

    def test_all_censored_batch_rejected(self):
        grid = grid123()
        with pytest.raises(ValueError, match="no observed events"):
            L.naive_competing_loss(np.ones((2, 2, 3)), np.array([1.0, 2.0]), np.array([0, 0]), grid)


class TestIpsLoss:
    def test_unit_propensities_reduce_to_scaled_naive(self):
        grid = grid123()
        rng = np.random.default_rng(2)
        hazards = rng.uniform(0.1, 2.0, size=(5, 2, 3))
        t = rng.uniform(0.2, 3.0, size=5)
        e = np.array([1, 2, 0, 1, 2])
        pi = np.ones((5, 2))
        got = L.ips_loss(hazards, t, e, pi, grid)
        naive = L.naive_competing_loss(hazards, t, e, grid)
        n_events = int(np.sum(e > 0))
        assert got == pytest.approx(naive * n_events / (5 * 2), rel=1e-12)

    def test_uniform_propensity_proportionality(self):
        grid = grid123()
        rng = np.random.default_rng(3)
        hazards = rng.uniform(0.1, 2.0, size=(4, 2, 3))
        t = rng.uniform(0.2, 3.0, size=4)
        e = np.array([1, 1, 2, 0])
        c = 0.4
        got = L.ips_loss(hazards, t, e, np.full((4, 2), c), grid)
        naive = L.naive_competing_loss(hazards, t, e, grid)
        n_events = int(np.sum(e > 0))
        assert got == pytest.approx(naive * n_events / (4 * 2 * c), rel=1e-12)

    def test_half_propensity_doubles_contribution(self):
        grid = grid123()
        hazards = np.array([[[0.5, 0.5, 0.5], [1.0, 1.0, 1.0]]])
        t = np.array([1.5])
        e = np.array([1])
        ell = L.pch_loss(hazards[0, 0], 1.5, 1, grid)
        got = L.ips_loss(hazards, t, e, np.array([[0.5, 0.5]]), grid)
        assert got == pytest.approx(2.0 * ell / (1 * 2), rel=1e-12)

    def test_censored_records_contribute_nothing(self):
        grid = grid123()
        rng = np.random.default_rng(4)
        hazards = rng.uniform(0.1, 2.0, size=(3, 2, 3))
        t = np.array([1.0, 2.0, 2.9])
        base = L.ips_loss(hazards[:1], t[:1], np.array([1]), np.full((1, 2), 0.5), grid)
        with_censored = L.ips_loss(
            hazards, t, np.array([1, 0, 0]), np.full((3, 2), 0.5), grid
        )
        assert with_censored == pytest.approx(base / 3.0, rel=1e-12)

    def test_nonpositive_propensity_rejected(self):
        grid = grid123()
        with pytest.raises(ValueError, match="positive"):
            L.ips_loss(np.ones((1, 2, 3)), np.array([1.0]), np.array([1]),
                       np.array([[0.0, 1.0]]), grid)

    def test_below_floor_is_clipped_not_rejected(self):
        grid = grid123()
        hazards = np.ones((1, 2, 3))
        t = np.array([1.5])
        e = np.array([1])
        got = L.ips_loss(hazards, t, e, np.array([[0.01, 0.9]]), grid, floor=0.05)
        want = L.ips_loss(hazards, t, e, np.array([[0.05, 0.9]]), grid, floor=0.05)
        assert got == want

    def test_monte_carlo_mean_recovers_oracle_risk(self):
        """Compact unbiasedness check; the acceptance suite runs the full one."""
        grid = grid123()
        rng = np.random.default_rng(5)
        n = 40
        hazards = rng.uniform(0.2, 2.0, size=(n, 2, 3))
        t = rng.uniform(0.2, 3.0, size=n)
        pi = rng.uniform(0.15, 0.85, size=(n, 1))
        pi = np.concatenate([pi, 1.0 - pi], axis=1)
        matrix = L.event_loss_matrix(hazards, t, grid)
        oracle = matrix.sum() / (n * 2)
        draws = 4000
        total = 0.0
        for _ in range(draws):
            e = 1 + (rng.uniform(size=n) > pi[:, 0]).astype(int)
            total += L.ips_loss(hazards, t, e, pi, grid, floor=1e-9)
        assert total / draws == pytest.approx(oracle, rel=0.02)


def tape_mp(y, d):
    return float(L.mp_loss_tensor(ad.Tensor(y), d).data)


def tape_ls(pred, obs):
    return float(L.ls_loss_tensor(ad.Tensor(pred), obs).data)


class TestAuxiliaryLosses:
    def test_uninformative_prediction_costs_log_two(self):
        assert tape_mp(np.full(8, 0.5), np.array([1, 0, 1, 0, 1, 0, 1, 0])) == pytest.approx(
            math.log(2.0), rel=1e-12
        )

    def test_confident_correct_predictions_vanish(self):
        y = np.array([1 - 1e-12, 1e-12])
        d = np.array([1.0, 0.0])
        assert tape_mp(y, d) < 1e-10

    def test_hand_value(self):
        assert tape_mp(np.array([0.8]), np.array([1.0])) == pytest.approx(
            -math.log(0.8), rel=1e-12
        )
        assert -math.log(0.8) == pytest.approx(0.2231, abs=1e-4)

    def test_mp_rejects_boundary_predictions(self):
        with pytest.raises(ValueError, match="strictly"):
            tape_mp(np.array([1.0]), np.array([1.0]))

    def test_ls_exact_prediction_is_zero(self):
        assert tape_ls(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 0.0

    def test_ls_squares_residual(self):
        assert tape_ls(np.array([5.0]), np.array([2.0])) == 9.0

    def test_ls_mean_of_squares(self):
        assert tape_ls(np.array([1.0, -1.0]), np.array([0.0, 0.0])) == 1.0


def scalars(*values):
    return [ad.Tensor(np.array(v)) for v in values]


class TestTotalLoss:
    def test_zero_gammas_leave_survival_term(self):
        sched = L.AnnealSchedule(initial=(0.0, 0.0))
        _, bd = L.total_loss_tensor(*scalars(1.7, 0.4, 0.9), sched, 0)
        assert bd.total == 1.7

    def test_initial_gammas_are_one(self):
        sched = L.AnnealSchedule(horizon=10)
        assert sched.gammas(0) == (1.0, 1.0)

    def test_linear_schedule_hits_zero_at_horizon(self):
        sched = L.AnnealSchedule(horizon=10)
        assert sched.gammas(10) == (0.0, 0.0)
        assert sched.gammas(15) == (0.0, 0.0)

    def test_gammas_nonincreasing_and_nonnegative(self):
        sched = L.AnnealSchedule(horizon=7)
        values = [sched.gammas(e) for e in range(12)]
        for (a1, a2), (b1, b2) in zip(values, values[1:]):
            assert b1 <= a1 and b2 <= a2
            assert b1 >= 0 and b2 >= 0

    def test_decomposition_identity(self):
        rng = np.random.default_rng(6)
        sched = L.AnnealSchedule(horizon=9)
        for epoch in range(12):
            _, bd = L.total_loss_tensor(*scalars(*rng.uniform(0.1, 3.0, size=3)), sched, epoch)
            assert abs(bd.total - (bd.survival + bd.gamma1 * bd.mp + bd.gamma2 * bd.ls)) < 1e-10


class TestTapeBuilders:
    def test_tape_survival_matches_numeric_assembly(self):
        """IPS indicator part plus censored terms, cross-checked by the oracle."""
        grid = grid123()
        rng = np.random.default_rng(7)
        n, K = 6, 2
        raw = rng.standard_normal((n, K, 3))
        hazards = np.log1p(np.exp(raw))
        t = rng.uniform(0.2, 3.0, size=n)
        e = np.array([1, 2, 0, 1, 0, 2])
        pi = rng.uniform(0.2, 0.9, size=(n, K))
        stacked = ad.Tensor(hazards.transpose(1, 0, 2))
        got = L.competing_survival_loss(stacked, L.survival_targets(grid, t, e, pi))

        want = 0.0
        for i in range(n):
            for k in range(K):
                if e[i] == k + 1:
                    want += pch_oracle(hazards[i, k], grid.cuts, t[i], 1) / pi[i, k]
                else:
                    want += pch_oracle(hazards[i, k], grid.cuts, t[i], 0)
        want /= n * K
        assert float(got.data) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("K", [2, 3])
    def test_tape_survival_averages_to_its_closed_form_over_drawn_events(self, K):
        """Each record's event is drawn from its row of pi. Over all K**n
        assignments, weighted by their probabilities, the shipped loss
        averages to (1/(nK)) sum_i sum_k [event term + (1 - pi_ik) censored
        term]: the IPS weight makes the event part unbiased, and a head owes
        its censored part when its event is not the record's."""
        grid = grid123()
        rng = np.random.default_rng(30 + K)
        n = 3
        hazards = rng.uniform(0.2, 2.0, size=(n, K, 3))
        t = rng.uniform(0.2, 3.5, size=n)
        pi = rng.uniform(0.2, 1.0, size=(n, K))
        pi /= pi.sum(axis=1, keepdims=True)
        stacked = ad.Tensor(hazards.transpose(1, 0, 2))
        mean = 0.0
        for events in itertools.product(range(1, K + 1), repeat=n):
            chance = math.prod(pi[i, e - 1] for i, e in enumerate(events))
            targets = L.survival_targets(grid, t, np.array(events), pi)
            mean += chance * float(L.competing_survival_loss(stacked, targets).data)
        closed = sum(pch_oracle(hazards[i, k], grid.cuts, t[i], 1)
                     + (1.0 - pi[i, k]) * pch_oracle(hazards[i, k], grid.cuts, t[i], 0)
                     for i in range(n) for k in range(K)) / (n * K)
        assert mean == pytest.approx(closed, rel=1e-12)

    def test_tape_survival_inverts_propensities_below_any_floor(self):
        """The clipping floor is the propensity model's; the loss adds none."""
        grid = grid123()
        hazards = np.array([[0.4, 0.7, 1.1], [0.9, 0.3, 0.6]])
        stacked = ad.Tensor(np.stack([hazards, hazards[::-1]]))
        t, e = np.array([0.5, 2.5]), np.array([1, 2])
        values = {}
        for p in (0.01, 0.05):
            pi = np.array([[p, 0.5], [0.5, 0.5]])
            values[p] = float(L.competing_survival_loss(stacked, L.survival_targets(grid, t, e, pi)).data)
        event_term = pch_oracle(hazards[0], grid.cuts, t[0], 1)
        assert values[0.01] - values[0.05] == pytest.approx(event_term * (1 / 0.01 - 1 / 0.05) / 4, rel=1e-12)

    def test_targets_reject_a_nonpositive_propensity_and_index_per_record(self):
        grid = grid123()
        t, e = np.array([0.5, 2.5, 3.2]), np.array([1, 0, 2])
        pi = np.array([[0.5, 0.5], [0.2, 0.8], [0.9, 0.1]])
        for bad in (0.0, -0.1):
            with pytest.raises(ValueError, match="propensities must be strictly positive"):
                L.survival_targets(grid, t, e, np.where(np.arange(6).reshape(3, 2) == 3, bad, pi))
        whole, part = L.survival_targets(grid, t, e, pi), L.survival_targets(grid, t[[2, 0]], e[[2, 0]], pi[[2, 0]])
        for name in ("kappa", "rho", "ind", "weight"):
            assert np.array_equal(getattr(whole[[2, 0]], name), getattr(part, name))

    def test_single_event_tape_equals_batch_mean_pch(self):
        grid = grid123()
        rng = np.random.default_rng(8)
        n = 5
        hazards = rng.uniform(0.1, 2.0, size=(n, 1, 3))
        t = rng.uniform(0.2, 3.0, size=n)
        e = np.array([1, 0, 1, 0, 1])
        stacked = ad.Tensor(hazards.transpose(1, 0, 2))
        got = float(L.competing_survival_loss(stacked, L.survival_targets(grid, t, e, np.ones((n, 1)))).data)
        want = np.mean([pch_oracle(hazards[i, 0], grid.cuts, t[i], e[i]) for i in range(n)])
        assert got == pytest.approx(want, rel=1e-12)

    def test_tape_gradients_match_finite_differences(self):
        grid = grid123()
        rng = np.random.default_rng(9)
        n, K = 4, 2
        hazards = rng.uniform(0.3, 2.0, size=(n, K, 3))
        t = rng.uniform(0.2, 3.0, size=n)
        e = np.array([1, 2, 0, 1])
        pi = rng.uniform(0.3, 0.9, size=(n, K))
        stacked = ad.Tensor(hazards.transpose(1, 0, 2).copy())
        targets = L.survival_targets(grid, t, e, pi)

        def build():
            return L.competing_survival_loss(stacked, targets)

        ad.backward(build())
        analytic = [stacked.grad]
        fd = fd_gradients(lambda: float(build().data), [stacked])
        assert_grads_match(analytic, fd)

    @pytest.mark.parametrize("loss", ["mp", "ls"])
    def test_aux_tape_gradients_match_finite_differences(self, loss):
        rng = np.random.default_rng(11)
        if loss == "mp":
            x = ad.Tensor(rng.uniform(0.05, 0.95, size=7))
            target = (rng.uniform(size=7) > 0.5).astype(float)
            fn = L.mp_loss_tensor
        else:
            x = ad.Tensor(rng.standard_normal(7))
            target = rng.standard_normal(7)
            fn = L.ls_loss_tensor

        def build():
            return probe(fn(x, target), weights=1.7)

        ad.backward(build())
        assert_grads_match([x.grad], fd_gradients(lambda: float(build().data), [x]))

    def test_mp_ls_tensor_values_match_numeric(self):
        rng = np.random.default_rng(10)
        y = rng.uniform(0.05, 0.95, size=7)
        d = (rng.uniform(size=7) > 0.5).astype(float)
        want = np.mean(-d * np.log(y) - (1.0 - d) * np.log(1.0 - y))
        assert tape_mp(y, d) == pytest.approx(want, rel=1e-12)
        pred = rng.standard_normal(7)
        obs = rng.standard_normal(7)
        assert tape_ls(pred, obs) == pytest.approx(np.mean((pred - obs) ** 2), rel=1e-12)

    def test_total_tensor_breakdown_identity(self):
        sched = L.AnnealSchedule(horizon=4)
        s = ad.Tensor(np.array(1.5))
        m = ad.Tensor(np.array(0.3))
        l = ad.Tensor(np.array(2.0))
        total, bd = L.total_loss_tensor(s, m, l, sched, 1)
        assert abs(bd.total - (bd.survival + bd.gamma1 * bd.mp + bd.gamma2 * bd.ls)) < 1e-10
        assert float(total.data) == bd.total
