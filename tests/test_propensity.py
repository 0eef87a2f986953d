"""Event-assignment probability model: fitting, prediction, clipping."""

import numpy as np
import pytest

from survformer import data as D
from survformer import propensity as P


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

    def test_roundtrip_serialization(self):
        model = P.PropensityModel(np.array([[1.0, -2.0]]), np.array([0.3]), 0.05, True)
        clone = P.PropensityModel.from_dict(model.to_dict())
        x = np.array([[0.5, 0.1]])
        np.testing.assert_array_equal(model.predict(x), clone.predict(x))


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
