"""Event-assignment probability model: fitting, prediction, clipping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import data as D
from survformer import propensity as P

from oracles import logistic_fit_oracle, logistic_objective


def random_fixture(seed, onehot, n=80):
    """Three normal covariates, and with ``onehot`` a three-level one-hot
    block plus its never-set unknown slot; events from a logistic model."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    if onehot:
        x = np.hstack([x, np.eye(4)[rng.integers(0, 3, n)]])
    e = np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(x[:, 0] - 0.5 * x[:, 1]))), 1, 2)
    return x, e


def predict_wide_like(n=4500, seed=0):
    """A design shaped like the predict-wide benchmark's: 8 normal columns
    and one-hot blocks of 3, 6, 12 and 24 levels, each with an unknown slot
    (57 columns), and two events from a logistic model."""
    rng = np.random.default_rng(seed)
    cards = (3, 6, 12, 24)
    num = rng.standard_normal((n, 8))
    levels = [rng.integers(0, c, n) for c in cards]
    logit = num @ rng.normal(0.0, 0.7, 8) + sum(rng.normal(0.0, 0.5, c)[lv] for c, lv in zip(cards, levels))
    x = np.hstack([num] + [np.eye(c + 1)[lv] for c, lv in zip(cards, levels)])
    return x, np.where(rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logit)), 1, 2)


def one_class_level(held=(1,), n_events=2, n=200, seed=0):
    """Two normal columns and a three-level one-hot block with its
    never-set unknown slot (columns 2-5); every level-2 record (column 4)
    holds one of the events ``held``, the others any of ``n_events``."""
    rng = np.random.default_rng(seed)
    level = rng.integers(0, 3, n)
    x = np.hstack([rng.standard_normal((n, 2)), np.eye(4)[level]])
    e = np.where(level == 2, rng.choice(held, n), rng.integers(1, n_events + 1, n))
    return x, e


class TestFit:
    def test_balanced_uninformative_data_gives_half(self):
        x = np.zeros((40, 2))
        e = np.array([1, 2] * 20)
        model = P.fit(x, e)
        probs = model.predict(x)
        np.testing.assert_allclose(probs, 0.5, atol=1e-3)

    def test_intercept_recovers_class_prior(self):
        rng = np.random.default_rng(0)
        x = np.zeros((200, 1))
        e = np.where(rng.uniform(size=200) < 0.9, 1, 2)
        e[:5] = 2  # keep both classes present regardless of draw
        prior = np.mean(e == 1)
        model = P.fit(x, e)
        probs = model.predict(np.zeros((1, 1)))
        assert probs[0, 0] == pytest.approx(prior, abs=1e-3)
        assert probs[0, 1] == pytest.approx(1.0 - prior, abs=1e-3)

    def test_separable_data_saturates_to_clip_bounds(self):
        x = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        e = np.array([1] * 20 + [2] * 20)
        model = P.fit(x, e, floor=0.05)
        probs = model.predict(np.array([[-1.0], [1.0]]))
        assert probs[1, 0] == 0.05  # class 1 at the wrong extreme clips to floor
        assert probs[0, 0] >= 0.95

    def test_absent_event_class_named(self):
        x = np.zeros((10, 1))
        e = np.array([2] * 10)  # class 1 missing
        with pytest.raises(ValueError, match="class 1"):
            P.fit(x, e)

    @given(st.lists(st.one_of(st.integers(0, 6), st.integers(0, 2**53 - 1)), max_size=30))
    @settings(max_examples=300, deadline=None)
    def test_absent_class_is_the_first_unlabelled_event(self, labels):
        held, k = set(labels), 1
        while k in held:
            k += 1
        assert P.absent_class(np.array(labels, dtype=np.intp)) == (k if k < max(labels, default=0) else 0)

    def test_single_event_class_rejected(self):
        with pytest.raises(ValueError, match="two or more event classes"):
            P.fit(np.zeros((4, 1)), np.array([1, 1, 1, 1]))

    def test_censored_labels_rejected(self):
        with pytest.raises(ValueError, match="observed"):
            P.fit(np.zeros((4, 1)), np.array([0, 1, 1, 2]))

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((100, 3))
        e = 1 + (rng.uniform(size=100) < 0.5).astype(int)
        a = P.fit(x, e)
        b = P.fit(x, e)
        assert np.array_equal(a.weights, b.weights)
        assert np.array_equal(a.offsets, b.offsets)


class TestNewtonFit:
    @pytest.mark.parametrize("onehot, l2", [(False, 0.0), (False, 1e-4), (True, 0.0), (True, 1e-2)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_a_long_gradient_descent(self, seed, onehot, l2):
        x, e = random_fixture(seed, onehot)
        model = P.fit(x, e, l2=l2)
        assert model.converged == (True, True)
        for k in range(2):
            y = (e == k + 1).astype(np.float64)
            _, gw, gb = logistic_objective(x, y, l2, model.weights[k], model.offsets[k])
            assert np.sqrt(gw @ gw + gb * gb) < 1e-8
            w, b = logistic_fit_oracle(x, y, l2)
            np.testing.assert_allclose(model.weights[k], w, rtol=0, atol=1e-6)
            assert model.offsets[k] == pytest.approx(b, abs=1e-6)

    def test_predict_wide_shape_beats_the_former_gradient_descent(self):
        # 0.434092452301 is where the step-halving gradient descent this
        # module used before (stopping on a loss change below 1e-8) left
        # event 1's objective on this fixture
        x, e = predict_wide_like()
        model = P.fit(x, e)
        value, gw, gb = logistic_objective(x, (e == 1).astype(np.float64), 1e-4, model.weights[0], model.offsets[0])
        assert value <= 0.434092452301
        assert np.sqrt(gw @ gw + gb * gb) < 1e-8

    def test_unpenalized_onehot_design_with_unknown_slots_fits(self):
        # each one-hot block sums to the offset column, so the Hessian is singular
        x, e = predict_wide_like(n=600, seed=3)
        model = P.fit(x, e, l2=0.0)
        assert model.converged == (True, True)
        assert np.isfinite(model.weights).all() and np.isfinite(model.offsets).all()
        # the never-set unknown slots stay at zero, as in the minimum-norm optimum
        np.testing.assert_allclose(model.weights[:, [11, 18, 31, 56]], 0.0, atol=1e-10)

    def test_unpenalized_separable_classes_name_the_event(self):
        x = np.array([[-1.0]] * 20 + [[1.0]] * 20)
        e = np.array([1] * 20 + [2] * 20)
        with pytest.raises(ValueError, match="propensity fit for event 1: no convergence in 50 Newton iterations"):
            P.fit(x, e, l2=0.0)

    @pytest.mark.parametrize("l2, hint", [
        (1e-4, ""), (0.0, "; the classes may be separable, which needs propensity_l2 above 0"),
    ], ids=["penalized", "unpenalized"])
    def test_separability_is_named_only_without_a_penalty(self, monkeypatch, l2, hint):
        # a penalized objective has a finite optimum, so running out of
        # iterations there says nothing about separable classes
        monkeypatch.setattr(P, "MAX_ITER", 1)
        with pytest.raises(ValueError) as err:
            P.fit(*random_fixture(0, onehot=False), l2=l2)
        assert str(err.value) == f"propensity fit for event 1: no convergence in 1 Newton iterations{hint}"

    @pytest.mark.parametrize("held, n_events, says", [
        ((1,), 2, "every record with design column 4 set holds event 1"),
        ((2,), 2, "every record with design column 4 set holds event 2"),
        ((1, 3), 3, "no record with design column 4 set holds event 2"),
    ], ids=["every-1", "every-2", "none-2"])
    def test_unpenalized_one_class_level_names_the_column_and_event(self, held, n_events, says):
        # quasi-complete separation: no finite optimum, yet no separating line
        # of the whole design; the unset unknown slot (column 5) is not named
        x, e = one_class_level(held, n_events)
        with pytest.raises(ValueError, match=f"propensity fit: {says}, .*propensity_l2 must be above 0"):
            P.fit(x, e, l2=0.0)

    def test_penalized_one_class_level_fits(self):
        model = P.fit(*one_class_level(), l2=1e-4)
        assert model.converged == (True, True)
        assert np.isfinite(model.weights).all()

    @pytest.mark.parametrize("l2", [0.0, 1e-4])
    @pytest.mark.parametrize("fixture", ["normal", "onehot", "predict-wide"])
    def test_two_event_fit_is_two_binary_fits_bit_for_bit(self, fixture, l2):
        # event 2's model is event 1's negated, never fitted; the one-hot
        # fixtures' never-set unknown slots give weights of exactly zero
        x, e = predict_wide_like(n=600, seed=3) if fixture == "predict-wide" else random_fixture(2, fixture == "onehot")
        model = P.fit(x, e, l2=l2)
        for k in (1, 2):
            w, b, n_iter, done = P._fit_binary(x, (e == k).astype(np.float64), l2)
            assert model.weights[k - 1].tobytes() == w.tobytes()
            assert model.offsets[k - 1].tobytes() == np.float64(b).tobytes()
            assert (model.iterations[k - 1], model.converged[k - 1]) == (n_iter, done)

    def test_fit_report_stays_out_of_the_checkpoint(self):
        x, e = random_fixture(0, onehot=True)
        model = P.fit(x, e)
        assert len(model.iterations) == 2 and all(1 <= i < P.MAX_ITER for i in model.iterations)
        assert model.converged == (True, True)
        assert set(model.to_dict()) == {"weights", "offsets", "floor", "renormalize"}

    def test_a_line_search_without_decrease_ends_unconverged(self, monkeypatch):
        # no step can fall by twice the decrement, so the first search runs out
        monkeypatch.setattr(P, "ARMIJO", 2.0)
        model = P.fit(*random_fixture(0, onehot=False))
        assert model.iterations == (1, 1) and model.converged == (False, False)
        np.testing.assert_array_equal(model.weights, 0.0)


class TestPredict:
    def test_zero_model_gives_half(self):
        model = P.PropensityModel(np.zeros((2, 3)), np.zeros(2))
        np.testing.assert_allclose(model.predict(np.ones((4, 3))), 0.5)

    def test_clipping_floor(self):
        # offset chosen so the raw sigmoid is ~0.01
        model = P.PropensityModel(np.zeros((1, 2)), np.array([-4.6]), floor=0.05)
        assert model.predict(np.zeros((1, 2)))[0, 0] == 0.05

    def test_monotone_in_linear_score(self):
        model = P.PropensityModel(np.array([[2.0]]), np.array([0.0]), floor=1e-6)
        xs = np.linspace(-3, 3, 31).reshape(-1, 1)
        probs = model.predict(xs)[:, 0]
        assert np.all(np.diff(probs) >= 0)

    def test_dimension_mismatch_rejected(self):
        model = P.PropensityModel(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError, match="dimension"):
            model.predict(np.ones((4, 2)))

    def test_renormalized_probabilities_sum_to_one(self):
        rng = np.random.default_rng(2)
        model = P.PropensityModel(
            rng.standard_normal((3, 2)), rng.standard_normal(3),
            floor=1e-9, renormalize=True,
        )
        probs = model.predict(rng.standard_normal((20, 2)))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


class TestAgainstGenerator:
    def test_fitted_probabilities_track_ground_truth(self):
        spec = D.SyntheticSpec(
            n=5000, dim=4, n_events=2,
            risk_coefs=np.array([[0.5, 0.0, 0.0, 0.0], [0.0, 0.5, 0.0, 0.0]]),
            assign_coefs=np.array([[0.7, -0.3, 0.0, 0.0], [-0.7, 0.3, 0.0, 0.0]]),
            censoring_rate=0.0, seed=42,
        )
        records, truth = D.synthesize(spec)
        x, e = records.num, records.e
        model = P.fit(x, e, floor=1e-6)
        fitted = model.predict(x)
        for k in range(2):
            corr = np.corrcoef(fitted[:, k], truth[:, k])[0, 1]
            assert corr > 0.9


class TestDesignMatrix:
    def test_onehot_reserves_unknown_slot(self):
        schema = D.CovariateSchema(
            [D.CategoricalField("c", {"a": 0, "b": 1}, "a")],
            [D.NumericalField("x")],
        )
        cat = np.array([[0], [2]])  # the second is the unknown index
        num = np.array([[1.5], [-0.5]])
        design = P.design_matrix(schema, cat, num)
        assert design.shape == (2, 4)  # 1 numerical + (2 + 1) one-hot
        np.testing.assert_array_equal(design[0], [1.5, 1.0, 0.0, 0.0])
        np.testing.assert_array_equal(design[1], [-0.5, 0.0, 0.0, 1.0])
