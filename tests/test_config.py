"""The config boundary: every settings payload, from a ``--config`` file or a
checkpoint's ``config`` section, gives a config or one ValueError."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from survformer import training as T
from survformer.model import ModelConfig, load_checkpoint, save_checkpoint

from test_model import make_model

FLAT_KEYS = list(T.TrainConfig().to_dict())
MODEL_FIELDS = list(ModelConfig().__dataclass_fields__)
UNKNOWN_KEYS = ["n_events", "model", "learning_rat", "", "Heads"]


def json_values(ints=st.integers()):
    """Any JSON value, with NaN and the infinities among the floats."""
    scalars = st.one_of(
        st.none(), st.booleans(), ints, st.floats(), st.floats(-2, 2), st.text(max_size=4),
        st.sampled_from(["quantile", "uniform", "nan", "1"]),
    )
    return st.recursive(
        scalars,
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=2),
        max_leaves=4,
    )


NONNEGATIVE_NUMBERS = st.floats(0, 10) | st.integers(0, 10)
VALID = {
    "learning_rate": NONNEGATIVE_NUMBERS,
    "weight_decay": NONNEGATIVE_NUMBERS,
    "batch_size": st.integers(1, 10**6),
    "max_epochs": st.integers(1, 10**6),
    "patience": st.integers(1, 10**6),
    "anneal_horizon": st.integers(0, 10**6),
    "gamma_initial": st.lists(NONNEGATIVE_NUMBERS, min_size=2, max_size=2),
    "layers": st.integers(0, 6),
    "ffn_depth": st.integers(1, 50),
    "hidden_size": st.integers(1, 50),
    "head_layers": st.integers(1, 50),
    "time_bins": st.integers(1, 50),
    "grid_scheme": st.sampled_from(["quantile", "uniform"]),
    "propensity_floor": st.floats(0, 1, exclude_min=True),
    "propensity_renormalize": st.booleans(),
    "propensity_l2": NONNEGATIVE_NUMBERS,
    "seed": st.integers(0, 2**64),
}
NOT_NUMBERS = st.one_of(st.none(), st.booleans(), st.text(max_size=3), st.lists(st.integers(), max_size=2))
NOT_FINITE = st.sampled_from([float("nan"), float("inf"), float("-inf"), 10**400])
INVALID = {
    "learning_rate": NOT_NUMBERS | NOT_FINITE | st.floats(max_value=-1e-9) | st.integers(max_value=-1),
    "weight_decay": NOT_NUMBERS | NOT_FINITE | st.floats(max_value=-1e-9),
    "batch_size": NOT_NUMBERS | NOT_FINITE | st.floats(-10, 10) | st.integers(max_value=0),
    "max_epochs": NOT_NUMBERS | st.floats(-10, 10) | st.integers(max_value=0),
    "patience": NOT_NUMBERS | st.integers(max_value=0),
    "anneal_horizon": NOT_NUMBERS | st.floats(-10, 10) | st.integers(max_value=-1),
    "gamma_initial": st.one_of(
        st.none(), st.booleans(), st.floats(), st.integers(), st.text(max_size=3),
        st.lists(st.floats(0, 1), max_size=1), st.lists(st.floats(0, 1), min_size=3, max_size=4),
        st.tuples(st.floats(0, 1), NOT_NUMBERS | NOT_FINITE).map(list),
        st.tuples(st.floats(max_value=-1e-9), st.floats(0, 1)).map(list),
    ),
    "embed_dim": NOT_NUMBERS | st.floats(1, 64) | st.integers(max_value=0),
    "heads": NOT_NUMBERS | st.floats(1, 8) | st.integers(max_value=0),
    "layers": NOT_NUMBERS | st.floats(0, 8) | st.integers(max_value=-1),
    "ffn_depth": NOT_NUMBERS | st.integers(max_value=0),
    "hidden_size": NOT_NUMBERS | st.integers(max_value=0),
    "head_layers": NOT_NUMBERS | st.integers(max_value=0),
    "time_bins": NOT_NUMBERS | st.floats(1, 20) | st.integers(max_value=0),
    "grid_scheme": NOT_NUMBERS.filter(lambda v: v not in ("quantile", "uniform")) | st.integers(),
    "propensity_floor": NOT_NUMBERS | NOT_FINITE | st.floats(max_value=0) | st.floats(1, exclude_min=True),
    "propensity_renormalize": st.one_of(st.none(), st.integers(), st.floats(), st.text(max_size=3)),
    "propensity_l2": NOT_NUMBERS | NOT_FINITE | st.floats(max_value=-1e-9),
    "seed": NOT_NUMBERS | st.floats(0, 10) | st.integers(max_value=-1),
}


@st.composite
def valid_payloads(draw):
    """A flat config setting a subset of the keys to valid values; ``heads``
    always divides ``embed_dim``."""
    payload = {key: draw(VALID[key]) for key in draw(st.sets(st.sampled_from(sorted(VALID))))}
    if draw(st.booleans()):
        payload["heads"] = draw(st.sampled_from([1, 2, 4]))  # each divides the default 16
    if draw(st.booleans()):
        payload["embed_dim"] = payload.get("heads", 2) * draw(st.integers(1, 8))
    return payload


def normalized(payload):
    return json.loads(json.dumps(payload))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("config")


def load(workdir, payload):
    path = workdir / "config.json"
    path.write_text(json.dumps(payload))
    return T.TrainConfig.from_json(path)


class TestTrainConfigBoundary:
    @pytest.mark.parametrize("key", ["batch_size", "seed", "time_bins"])
    def test_integer_beyond_float_range_is_named(self, workdir, key):
        with pytest.raises(ValueError, match=f"^{key} must be an integer"):
            load(workdir, {key: 10**400})

    def test_flat_keys_are_the_nineteen_settings(self):
        assert FLAT_KEYS == [
            "learning_rate", "weight_decay", "batch_size", "max_epochs", "patience", "anneal_horizon",
            "gamma_initial", "embed_dim", "heads", "layers", "ffn_depth", "hidden_size", "head_layers",
            "time_bins", "grid_scheme", "propensity_floor", "propensity_renormalize", "propensity_l2",
            "seed",
        ]

    @settings(max_examples=300, deadline=None)
    @given(payload=st.one_of(
        st.dictionaries(st.sampled_from(FLAT_KEYS + UNKNOWN_KEYS), json_values(), max_size=6),
        json_values(),
    ))
    def test_any_json_value_gives_a_config_or_a_value_error(self, workdir, payload):
        try:
            config = load(workdir, payload)
        except ValueError:
            return
        assert normalized(config.to_dict()) == normalized({**T.TrainConfig().to_dict(), **payload})
        assert load(workdir, config.to_dict()) == config

    @settings(max_examples=200, deadline=None)
    @given(payload=valid_payloads())
    def test_valid_values_load_and_round_trip(self, workdir, payload):
        config = load(workdir, payload)
        flat = config.to_dict()
        assert list(flat) == FLAT_KEYS
        assert normalized(flat) == normalized({**T.TrainConfig().to_dict(), **payload})
        assert load(workdir, flat) == config

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), payload=valid_payloads(), key=st.sampled_from(sorted(INVALID)))
    def test_one_invalid_value_is_named(self, workdir, data, payload, key):
        value = data.draw(INVALID[key])
        with pytest.raises(ValueError, match=f"^{key} must be "):
            load(workdir, {**payload, key: value})


class TestCheckpointConfigBoundary:
    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("checkpoint") / "ckpt.json"
        save_checkpoint(path, make_model(layers=1, hidden_size=6))
        return path, json.loads(path.read_text())

    # Integers stay small, so that a valid config builds a small model.
    @settings(max_examples=200, deadline=None)
    @given(section=st.one_of(
        st.dictionaries(st.sampled_from(MODEL_FIELDS + UNKNOWN_KEYS[1:]),
                        json_values(st.integers(-3, 12)), max_size=3),
        json_values(st.integers(-3, 12)),
    ), replace=st.booleans())
    def test_any_config_section_loads_or_gives_a_value_error(self, saved, section, replace):
        path, payload = saved
        config = section if replace or not isinstance(section, dict) else {**payload["config"], **section}
        edited = path.with_name("edited.json")
        edited.write_text(json.dumps({**payload, "config": config}))
        try:
            model, _ = load_checkpoint(edited)
        except ValueError:
            return
        assert model.config == ModelConfig(**config)
