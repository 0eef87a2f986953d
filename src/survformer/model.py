"""Attention encoder over tabular covariates with survival task heads.

Each covariate becomes one embedding vector: categorical fields look up a
per-field table (one extra row reserved for unseen values), numerical fields
scale a learned direction by the standardized value. Stacked self-attention
layers mix the field embeddings; per layer the attended output passes a
residual projection and a small feed-forward stack, both under SELU. The
flattened encoder output, concatenated with the raw embeddings, is aligned
into a shared representation consumed by every head: one hazard head per
event type (softplus keeps rates positive), a binary any-event head, and a
follow-up-time regression head.
"""

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .data import CovariateSchema, TimeGrid, records_as_arrays

CHECKPOINT_FORMAT = "survformer-checkpoint-v1"


@dataclass
class ModelConfig:
    embed_dim: int = 16
    heads: int = 2
    layers: int = 2
    ffn_depth: int = 2
    hidden_size: int = 32
    head_layers: int = 2
    time_bins: int = 10
    n_events: int = 1

    def __post_init__(self):
        if self.embed_dim % self.heads:
            raise ValueError(
                f"heads ({self.heads}) must divide embed_dim ({self.embed_dim})"
            )
        for name in ("embed_dim", "heads", "ffn_depth", "hidden_size", "head_layers", "time_bins", "n_events"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.layers < 0:
            raise ValueError("layers must be nonnegative")


@dataclass
class AttentionMap:
    """Field-by-field attention weights for one record, labeled by schema."""

    layer: int
    head: int
    labels: list
    weights: np.ndarray


@dataclass
class ForwardPass:
    """Tape tensors of one batched forward run, plus attention snapshots."""

    raw: ad.Tensor  # (B, D, d_e) field embeddings
    encoded: ad.Tensor  # (B, D, d_e) after the encoder stack
    shared: ad.Tensor  # (B, hidden)
    hazards: list  # per event: (B, m), positive
    event_prob: ad.Tensor  # (B,), in (0, 1)
    time_pred: ad.Tensor  # (B,)
    attention: list  # per layer: list per head of (B, D, D) arrays


class SurvivalTransformer:
    """The full network; parameters live in an ordered name-to-tensor map."""

    def __init__(self, config, schema, grid, seed=0):
        if config.time_bins != grid.m:
            raise ValueError(f"config.time_bins={config.time_bins} but grid has m={grid.m}")
        self.config = config
        self.schema = schema
        self.grid = grid
        self.params = {}
        rng = np.random.default_rng(seed)
        de = config.embed_dim
        dh = de // config.heads
        for i, f in enumerate(schema.categorical):
            self._weight(f"embed.cat{i}", (f.cardinality + 1, de), rng)
        if schema.d_n:
            self._weight("embed.num", (schema.d_n, de), rng)
        width = schema.d * de
        for layer in range(config.layers):
            for h in range(config.heads):
                self._weight(f"enc{layer}.h{h}.wq", (de, dh), rng)
                self._weight(f"enc{layer}.h{h}.wk", (de, dh), rng)
                self._weight(f"enc{layer}.h{h}.wv", (de, dh), rng)
            self._weight(f"enc{layer}.wres", (de, de), rng)
            dims = self._ffn_dims()
            for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
                self._weight(f"enc{layer}.ffn{i}", (a, b), rng)
        self._weight("sr.w", (2 * width, config.hidden_size), rng)
        for k in range(config.n_events):
            self._head_params(f"cs{k}", config.time_bins, rng)
        self._head_params("mp", 1, rng)
        self._head_params("ls", 1, rng)

    def _ffn_dims(self):
        de, hid, depth = self.config.embed_dim, self.config.hidden_size, self.config.ffn_depth
        return [de] + [hid] * (depth - 1) + [de]

    def _weight(self, name, shape, rng):
        bound = np.sqrt(6.0 / (shape[0] + shape[1]))
        self.params[name] = ad.Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)

    def _head_params(self, prefix, out_dim, rng):
        hid = self.config.hidden_size
        dims = [hid] * self.config.head_layers + [out_dim]
        for i, (a, b) in enumerate(zip(dims[:-1], dims[1:])):
            self._weight(f"{prefix}.w{i}", (a, b), rng)
            self.params[f"{prefix}.b{i}"] = ad.Tensor(np.zeros(b), requires_grad=True)

    def parameters(self):
        return list(self.params.values())

    def parameter_names(self):
        return list(self.params.keys())

    # --- batched forward (training path) ----------------------------------

    def _embed_batch(self, cat_idx, num_vals):
        B = cat_idx.shape[0] if cat_idx.size else num_vals.shape[0]
        de = self.config.embed_dim
        parts = []
        for i in range(self.schema.d_c):
            rows = ad.take_rows(self.params[f"embed.cat{i}"], cat_idx[:, i])
            parts.append(ad.reshape(rows, (B, 1, de)))
        if self.schema.d_n:
            scale = ad.Tensor(num_vals[:, :, None])
            parts.append(ad.mul(scale, self.params["embed.num"]))
        return parts[0] if len(parts) == 1 else ad.concat(parts, axis=1)

    def attention_layer(self, layer, x):
        """One multi-head mixing step over a (B, D, d_e) embedding tensor.

        Returns the head-concatenated output and the per-head weight arrays,
        each (B, D, D) with rows on the probability simplex.
        """
        B, D, de = x.data.shape
        head_outs = []
        maps = []
        for h in range(self.config.heads):
            q = ad.matmul(x, self.params[f"enc{layer}.h{h}.wq"])
            k = ad.matmul(x, self.params[f"enc{layer}.h{h}.wk"])
            v = ad.matmul(x, self.params[f"enc{layer}.h{h}.wv"])
            logits = ad.matmul(q, ad.transpose_last(k))
            alpha = ad.reshape(ad.softmax_rows(ad.reshape(logits, (B * D, D))), (B, D, D))
            maps.append(alpha.data)
            head_outs.append(ad.matmul(alpha, v))
        mixed = head_outs[0] if len(head_outs) == 1 else ad.concat(head_outs, axis=2)
        return mixed, maps

    def _encoder_layer(self, layer, x):
        mixed, maps = self.attention_layer(layer, x)
        t_res = ad.selu(ad.add(ad.matmul(mixed, self.params[f"enc{layer}.wres"]), x))
        z = x
        n_ffn = len(self._ffn_dims()) - 1
        for i in range(n_ffn):
            z = ad.matmul(z, self.params[f"enc{layer}.ffn{i}"])
            if i < n_ffn - 1:
                z = ad.selu(z)
        return ad.selu(ad.add(z, t_res)), maps

    def _head(self, prefix, t_sr):
        z = t_sr
        n = self.config.head_layers
        for i in range(n):
            z = ad.add(ad.matmul(z, self.params[f"{prefix}.w{i}"]), self.params[f"{prefix}.b{i}"])
            if i < n - 1:
                z = ad.relu(z)
        return z

    def forward_batch(self, cat_idx, num_vals):
        cat_idx = np.asarray(cat_idx, dtype=np.intp)
        num_vals = np.asarray(num_vals, dtype=np.float64)
        B = num_vals.shape[0] if num_vals.ndim == 2 else cat_idx.shape[0]
        t0 = self._embed_batch(cat_idx, num_vals)
        x = t0
        attention = []
        for layer in range(self.config.layers):
            x, maps = self._encoder_layer(layer, x)
            attention.append(maps)
        width = self.schema.d * self.config.embed_dim
        flat_hat = ad.reshape(x, (B, width))
        flat_raw = ad.reshape(t0, (B, width))
        t_sr = ad.selu(ad.matmul(ad.concat([flat_hat, flat_raw], axis=1), self.params["sr.w"]))
        hazards = [
            ad.softplus(self._head(f"cs{k}", t_sr)) for k in range(self.config.n_events)
        ]
        mp = ad.reshape(ad.sigmoid(self._head("mp", t_sr)), (B,))
        ls = ad.reshape(self._head("ls", t_sr), (B,))
        return ForwardPass(t0, x, t_sr, hazards, mp, ls, attention)

    # --- per-record views ---------------------------------------------------

    def _check_record(self, record):
        if record.categorical.size != self.schema.d_c or record.numerical.size != self.schema.d_n:
            raise ValueError(
                f"record has ({record.categorical.size} cat, {record.numerical.size} num) covariates; "
                f"model expects ({self.schema.d_c}, {self.schema.d_n})"
            )
        for i, f in enumerate(self.schema.categorical):
            if not 0 <= record.categorical[i] <= f.cardinality:
                raise ValueError(f"categorical index {record.categorical[i]} out of range for {f.name!r}")

    def _single(self, record):
        self._check_record(record)
        cat = record.categorical.reshape(1, -1)
        num = record.numerical.reshape(1, -1)
        return self.forward_batch(cat, num)

    def embed(self, record):
        """Per-field embedding matrix (D, d_e) for one record."""
        self._check_record(record)
        cat = record.categorical.reshape(1, -1)
        num = record.numerical.reshape(1, -1)
        return self._embed_batch(cat, num).data[0]

    def encode(self, record):
        """Flattened encoder output plus labeled attention maps."""
        fp = self._single(record)
        flat = fp.encoded.data[0].reshape(-1)
        return flat, self._maps_for(fp, 0)

    def _maps_for(self, fp, idx):
        labels = self.schema.field_names
        out = []
        for layer, per_head in enumerate(fp.attention):
            for h, arr in enumerate(per_head):
                out.append(AttentionMap(layer, h, labels, arr[idx].copy()))
        return out

    def predict_hazards(self, records):
        """Forward a record list; returns (n, n_events, m) hazard values."""
        cat, num, _, _ = records_as_arrays(records)
        for r in records:
            self._check_record(r)
        fp = self.forward_batch(cat, num)
        return np.stack([h.data for h in fp.hazards], axis=1)

    def export_attention(self, record):
        """Labeled attention maps for one record, layer then head order."""
        fp = self._single(record)
        return self._maps_for(fp, 0)


def attention_payload(maps):
    """JSON-ready structure for a list of attention maps."""
    return [
        {
            "layer": m.layer,
            "head": m.head,
            "labels": list(m.labels),
            "weights": m.weights.tolist(),
        }
        for m in maps
    ]


def save_checkpoint(path, model, extra=None):
    """Single self-describing JSON file: config, schema, grid, parameters."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "schema": model.schema.to_dict(),
        "grid": model.grid.to_list(),
        "params": {name: t.data.tolist() for name, t in model.params.items()},
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_checkpoint(path):
    """Rebuild a model from ``save_checkpoint`` output; returns (model, extra).

    The payload must hold ``config``, ``schema``, ``grid`` and exactly the
    rebuilt model's parameters, each with its shape.
    """
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    missing = [key for key in ("config", "schema", "grid", "params") if key not in payload]
    if missing:
        raise ValueError(f"checkpoint {path} lacks {', '.join(missing)}")
    try:
        config = ModelConfig(**payload["config"])
        schema = CovariateSchema.from_dict(payload["schema"])
    except (KeyError, TypeError) as err:
        raise ValueError(f"checkpoint {path} has a malformed config or schema: {err!r}") from None
    grid = TimeGrid(np.asarray(payload["grid"]))
    model = SurvivalTransformer(config, schema, grid, seed=0)
    params = payload["params"]
    absent = [name for name in model.params if name not in params]
    if absent:
        raise ValueError(f"checkpoint {path} lacks parameters {', '.join(absent)}")
    for name, values in params.items():
        arr = np.asarray(values, dtype=np.float64)
        if name not in model.params or model.params[name].data.shape != arr.shape:
            raise ValueError(f"checkpoint parameter {name!r} does not fit the rebuilt model")
        model.params[name].data = arr
    return model, payload.get("extra", {})
