"""Survival curves, censoring estimation, and concordance."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import evaluation as E
from survformer import kernels
from survformer.data import TimeGrid

from oracles import censoring_left_oracle, ctd_oracle, pch_oracle


def grid123():
    return TimeGrid(np.array([1.0, 2.0, 3.0]))


def survival_at(hazards, grid, t):
    """One record's survival at one time through ``survival_matrix``."""
    return float(E.survival_matrix(np.asarray(hazards, dtype=np.float64)[None, :], grid, [t])[0, 0])


class TestSurvivalFromHazards:
    """Survival curves from piecewise-constant hazards, through the one
    formula, ``survival_matrix``."""

    def test_zero_hazard_means_certain_survival(self):
        grid = grid123()
        for t in (0.0, 0.5, 1.0, 2.7, 3.0):
            assert survival_at(np.zeros(3), grid, t) == 1.0

    def test_single_bin_log_two_hazard_halves_survival(self):
        grid = TimeGrid(np.array([4.0]))
        s = survival_at(np.array([math.log(2.0)]), grid, 4.0)
        assert s == pytest.approx(0.5, rel=1e-12)

    def test_time_zero_is_one(self):
        rng = np.random.default_rng(0)
        s = survival_at(rng.uniform(0.1, 3.0, size=3), grid123(), 0.0)
        assert s == 1.0

    def test_beyond_grid_holds_the_grid_end_value(self):
        s = survival_at(np.ones(3), grid123(), 99.0)
        assert s == pytest.approx(math.exp(-3.0), rel=1e-12)

    @given(st.floats(0.0, 3.0), st.floats(0.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_time(self, a, b):
        hazards = np.array([0.4, 1.1, 0.2])
        lo, hi = min(a, b), max(a, b)
        grid = grid123()
        assert survival_at(hazards, grid, lo) >= survival_at(hazards, grid, hi)

    def test_extra_hazard_weakly_decreases_later_survival(self):
        rng = np.random.default_rng(1)
        grid = grid123()
        for _ in range(50):
            hazards = rng.uniform(0.0, 2.0, size=3)
            bin_idx = rng.integers(0, 3)
            bumped = hazards.copy()
            bumped[bin_idx] += rng.uniform(0.01, 1.0)
            for t in np.linspace(0.0, 3.0, 7):
                assert survival_at(bumped, grid, t) <= survival_at(hazards, grid, t) + 1e-15

    @given(
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=5, unique=True),
        st.floats(0.01, 3.0),
        st.lists(st.floats(0.0, 7.0), min_size=1, max_size=6),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_matrix_form_matches_scalar_form(self, cuts, scale, times, n):
        """Every entry equals exp(-cumulative hazard), walked bin by bin for
        one record and one time by the loss oracle."""
        grid = TimeGrid(np.sort(cuts))
        hazards = np.random.default_rng(len(times)).uniform(0.01, 1.0, size=(n, grid.m)) * scale
        mat = E.survival_matrix(hazards, grid, times)
        assert mat.shape == (n, len(times))
        for i in range(n):
            for j, t in enumerate(times):
                want = math.exp(-pch_oracle(hazards[i], grid.cuts, t, 0))
                assert mat[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, K", [(1, 1), (5, 3), (768, 2)])
    def test_records_by_events_form_is_each_events_slice_bit_for_bit(self, n, K):
        """(n, K, m) hazards give (n, K, T) curves, event k's the (n, T)
        curves of the (n, m) slice ``hazards[:, k]``, times past the last cut
        included."""
        grid = TimeGrid(np.array([0.5, 1.0, 2.5, 4.0]))
        rng = np.random.default_rng(n)
        hazards = rng.uniform(0.01, 2.0, size=(n, K, grid.m))
        times = np.concatenate([[0.0, 4.0, 9.0], rng.uniform(0.0, 5.0, 6)])
        mat = E.survival_matrix(hazards, grid, times)
        assert mat.shape == (n, K, len(times))
        for k in range(K):
            assert mat[:, k].tobytes() == E.survival_matrix(hazards[:, k], grid, times).tobytes()


class TestKmCensoring:
    def test_no_censoring_gives_identity(self):
        est = E.km_censoring(np.array([1.0, 2.0, 3.0]), np.array([1, 1, 2]))
        for t in (0.0, 1.5, 5.0):
            assert est.evaluate(t) == 1.0
            assert est.evaluate_left(t) == 1.0

    def test_all_censored_at_same_time_drop_to_zero(self):
        est = E.km_censoring(np.array([5.0, 5.0]), np.array([0, 0]))
        assert est.evaluate(5.0) == 0.0
        assert est.evaluate(4.9) == 1.0
        assert est.evaluate_left(5.0) == 1.0

    def test_one_of_two_censored_gives_half(self):
        est = E.km_censoring(np.array([2.0, 3.0]), np.array([0, 1]))
        assert est.evaluate(2.0) == 0.5
        assert est.evaluate(10.0) == 0.5
        assert est.evaluate_left(2.0) == 1.0

    def test_matches_hand_product_limit_on_small_instances(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            n = rng.integers(1, 6)
            durations = rng.integers(1, 5, size=n).astype(float)
            events = rng.integers(0, 3, size=n)
            est = E.km_censoring(durations, events)
            for t in np.linspace(0.0, 6.0, 13):
                want_left = censoring_left_oracle(durations, events, t)
                assert est.evaluate_left(t) == pytest.approx(want_left, rel=1e-12)

    def test_matches_oracle_with_many_records_per_tied_time(self):
        rng = np.random.default_rng(10)
        durations = rng.integers(1, 5, size=300).astype(float)
        events = rng.choice([0, 0, 0, 1, 2], size=300)
        est = E.km_censoring(durations, events)
        assert est.times.tolist() == [1.0, 2.0, 3.0, 4.0]
        for t in np.linspace(0.0, 5.0, 21):
            want_left = censoring_left_oracle(durations, events, t)
            assert est.evaluate_left(t) == pytest.approx(want_left, rel=1e-12)

    def test_starts_at_one_and_never_increases(self):
        rng = np.random.default_rng(4)
        durations = rng.uniform(0.5, 10.0, size=40)
        events = rng.integers(0, 2, size=40)
        est = E.km_censoring(durations, events)
        ts = np.linspace(0.0, 11.0, 50)
        values = est.evaluate(ts)
        assert values[0] == 1.0
        assert np.all(np.diff(values) <= 1e-15)


class TestQuantileHorizons:
    def test_median_of_uniform_integers(self):
        durations = np.arange(1.0, 101.0)
        got = E.quantile_horizons(durations, [0.5])
        np.testing.assert_allclose(got, np.quantile(durations, [0.5]))
        assert got[0] == pytest.approx(50.5, rel=1e-12)

    def test_extremes(self):
        durations = np.array([3.0, 9.0, 1.0, 7.0])
        assert E.quantile_horizons(durations, [0.0])[0] == 1.0
        assert E.quantile_horizons(durations, [1.0])[0] == 9.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="quantiles"):
            E.quantile_horizons(np.array([]), [0.5])


def no_censoring_estimate():
    return E.km_censoring(np.array([1.0]), np.array([1]))


class TestCtd:
    def test_perfectly_ordered_predictions_score_one(self):
        durations = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.ones(4, dtype=int)
        scores = np.array([0.1, 0.2, 0.3, 0.4])  # earlier failure, lower survival
        value, pairs = E.ctd(scores, durations, events, 4.0, 1, no_censoring_estimate())
        assert value == 1.0 and pairs == 6

    def test_identical_predictions_score_half(self):
        durations = np.array([1.0, 2.0, 3.0])
        events = np.ones(3, dtype=int)
        scores = np.full(3, 0.5)
        value, _ = E.ctd(scores, durations, events, 3.0, 1, no_censoring_estimate())
        assert value == 0.5

    def test_vanished_censoring_survival_before_an_event_is_rejected(self):
        est = E.CensoringEstimate(np.array([1.0]), np.array([0.0]))
        durations = np.array([0.5, 2.0, 3.0])
        events = np.array([1, 1, 0])
        with pytest.raises(ValueError, match="censoring survival vanished before an event time"):
            E.ctd(np.array([0.2, 0.4, 0.9]), durations, events, 2.5, 1, est)
        # an event before the censoring time keeps its weight
        value, pairs = E.ctd(np.array([0.2, 0.4, 0.9]), durations, events, 0.5, 1, est)
        assert (value, pairs) == (1.0, 2)

    def test_hand_built_instance_with_censoring_matches_oracle(self):
        train_t = np.array([1.0, 2.0, 2.5, 4.0, 5.0])
        train_e = np.array([1, 0, 1, 0, 1])
        est = E.km_censoring(train_t, train_e)
        durations = np.array([1.0, 2.0, 3.0, 4.0])
        events = np.array([1, 0, 1, 1])
        scores = np.array([0.2, 0.9, 0.4, 0.3])
        tau = 3.5
        value, pairs = E.ctd(scores, durations, events, tau, 1, est)
        want, want_pairs = ctd_oracle(scores, durations, events, tau, 1, train_t, train_e)
        assert pairs == want_pairs
        assert value == pytest.approx(want, rel=1e-12)

    def test_random_instances_match_exhaustive_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(5, 60))
            train_t = rng.uniform(0.5, 10.0, size=n)
            train_e = rng.integers(0, 3, size=n)
            est = E.km_censoring(train_t, train_e)
            durations = rng.uniform(0.5, 10.0, size=n)
            events = rng.integers(0, 3, size=n)
            scores = rng.uniform(size=n)
            tau = float(rng.uniform(2.0, 9.0))
            k = int(rng.integers(1, 3))
            want, want_pairs = ctd_oracle(scores, durations, events, tau, k, train_t, train_e)
            if want is None:
                with pytest.raises(E.UndefinedMetricError):
                    E.ctd(scores, durations, events, tau, k, est)
                continue
            value, pairs = E.ctd(scores, durations, events, tau, k, est)
            assert pairs == want_pairs
            assert value == pytest.approx(want, rel=1e-12)

    def test_no_comparable_pairs_is_an_error_not_zero(self):
        durations = np.array([5.0, 1.0])
        events = np.array([0, 0])
        with pytest.raises(E.UndefinedMetricError, match="no comparable pairs"):
            E.ctd(np.array([0.5, 0.6]), durations, events, 4.0, 1, no_censoring_estimate())

    def test_reversing_order_complements_to_one_without_ties(self):
        rng = np.random.default_rng(6)
        durations = rng.uniform(1.0, 9.0, size=30)
        events = rng.integers(0, 2, size=30)
        events[0] = 1
        scores = rng.uniform(size=30)
        est = E.km_censoring(durations, events)
        a, _ = E.ctd(scores, durations, events, 8.0, 1, est)
        b, _ = E.ctd(-scores, durations, events, 8.0, 1, est)
        assert a + b == pytest.approx(1.0, rel=1e-12)

    def test_invariant_to_monotone_transform_of_scores(self):
        rng = np.random.default_rng(7)
        durations = rng.uniform(1.0, 9.0, size=25)
        events = rng.integers(0, 2, size=25)
        events[:3] = 1
        scores = rng.uniform(0.01, 0.99, size=25)
        est = E.km_censoring(durations, events)
        a, _ = E.ctd(scores, durations, events, 7.0, 1, est)
        b, _ = E.ctd(np.log(scores), durations, events, 7.0, 1, est)
        c, _ = E.ctd(scores ** 3, durations, events, 7.0, 1, est)
        assert a == b == c


class TestCtdPairStats:
    """The sort-based pair count against exhaustive enumeration, and its memory."""

    @given(
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 2), st.integers(0, 4)), min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(1, 5), st.integers(0, 2)), max_size=40),
        st.integers(1, 5),
        st.integers(1, 2),
    )
    @settings(max_examples=200, deadline=None)
    def test_tied_data_matches_exhaustive_oracle(self, test, train, tau, k):
        durations = np.array([float(t) for t, _, _ in test])
        events = np.array([e for _, e, _ in test])
        scores = np.array([(0.1, 0.3, 0.5, 0.7, 0.9)[s] for _, _, s in test])
        # a final observed event keeps the censoring survival above zero
        train_t = np.array([float(t) for t, _ in train] + [6.0])
        train_e = np.array([e for _, e in train] + [1])
        est = E.km_censoring(train_t, train_e)
        want, want_pairs = ctd_oracle(scores, durations, events, tau, k, train_t, train_e)
        if want is None:
            with pytest.raises(E.UndefinedMetricError):
                E.ctd(scores, durations, events, tau, k, est)
            return
        value, pairs = E.ctd(scores, durations, events, tau, k, est)
        assert pairs == want_pairs
        assert value == pytest.approx(want, rel=1e-12)

    def test_memory_stays_linear_in_records(self):
        rng = np.random.default_rng(9)
        n = 5000
        times = rng.uniform(0.5, 10.0, size=n)
        eligible = rng.uniform(size=n) > 0.5
        scores = rng.uniform(size=n)
        weights = np.where(eligible, rng.uniform(0.5, 4.0, size=n), 0.0)
        tracemalloc.start()
        try:
            _, _, pairs = kernels.ctd_pair_stats(times, eligible, scores, weights)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pairs > 0
        # one n x n float64 array alone would take 200 MB
        assert peak < 5 * 2**20
