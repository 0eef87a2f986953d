"""Attention encoder over tabular covariates with survival task heads.

The network is a fixed stack of blocks, each a function of arrays that
returns its value and a closed-form VJP. ``embed_fields`` embeds each covariate:
categorical fields look up a per-field table (one extra row reserved for
unseen values), numerical fields scale a learned direction by the
standardized value. Stacked ``encoder_layer`` blocks mix the embeddings:
each attends with all heads at once and passes the attended output through a
residual projection and a small feed-forward stack, both under SELU. The
embedding and every layer emit (B·D, d_e) rows, so every parameter product
is a 2-d matmul. ``shared_projection`` aligns the flattened encoder output,
concatenated with the raw embeddings, into a shared representation consumed
by two ``mlp_head`` stacks of link-free task heads: the K event hazard heads
side by side, then the any-event and follow-up-time heads. ``forward_batch``
puts the hazards under softplus, which keeps them positive, and the any-event
output under the logistic; the follow-up time is a regression output.

The model's parameters are views of one flat buffer ``data``, their gradients
views of one flat buffer ``grad``. Each block's VJP writes its parameters'
gradients and returns its input cotangents; ``ForwardPass.backward`` runs
them in reverse, rewriting all of ``grad``. One walk over the blocks in draw
order names and shapes every parameter; it counts them before any is drawn,
then hands each block its views in the order it takes them, so
``forward_batch`` composes the blocks without looking a parameter up by name;
it checks its outputs once. ``export_attention`` gives a record's attention
maps as the JSON-ready records that ``attention.json`` holds.

``judge`` checks every config setting and checkpoint entry against its rule.
"""

import json
import sys
from dataclasses import asdict, dataclass, field, fields
from itertools import chain

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import autodiff as ad
from .data import CategoricalField, CovariateSchema, NumericalField, TimeGrid, allocate, echo, read_json

CHECKPOINT_FORMAT = "survformer-checkpoint-v1"

# Records per inference or validation forward. Each chunk's activations are
# freed before the next forward, so the memory of inference and of training's
# validation loss does not grow with the number of records.
INFER_CHUNK = 256

# Parameter arrays a network may have. Each is drawn, named and held in
# Python, at about 1 kB and 20 µs apiece whatever its size.
MAX_PARAMETERS = 100_000


# A rule for a value read from a config or a checkpoint: a (phrase,
# predicate) pair, pairs checked in order, or a dict of the rules for an
# object's entries. A rule in a dict may be a function of the object, which
# gets the entries before it already judged; a list holding one rule is a
# list whose every entry keeps it. The first pair is the JSON kind, in which
# a bool is not a number and an int is a valid float.
INT = ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool) and abs(v) <= sys.float_info.max)
FLOAT = ("a finite number", lambda v: (isinstance(v, float) or INT[1](v)) and abs(v) <= sys.float_info.max)
BOOL = ("true or false", lambda v: isinstance(v, bool))
STRING = ("a string", lambda v: isinstance(v, str))
OBJECT = ("an object", lambda v: isinstance(v, dict))
LIST = ("a list", lambda v: isinstance(v, list))
POSITIVE = ("positive", lambda v: v > 0)
NONNEGATIVE = ("nonnegative", lambda v: v >= 0)
ABSENT = object()  # the value of an entry a checkpoint lacks

# A schema's field records, as ``save_checkpoint`` writes them.
FIELDS = {
    "categorical": {
        "name": STRING,
        "vocabulary": ("a map of strings onto the indices 0..n-1", lambda v: isinstance(v, dict)
                       and all(isinstance(k, str) for k in v)
                       and sorted(j for j in v.values() if type(j) is int) == list(range(len(v)))),
        "mode": lambda f: ("a key of its vocabulary", lambda v: isinstance(v, str) and v in f["vocabulary"]),
    },
    "numerical": {"name": STRING, "mean": FLOAT, "std": (FLOAT, POSITIVE)},
}
# The sections of a checkpoint that ``load_checkpoint`` reads.
SECTIONS = {"config": OBJECT, "schema": {kind: [rule] for kind, rule in FIELDS.items()}, "grid": LIST,
            "params": OBJECT}


def judge(value, rule, name, path=None):
    """Raise one ValueError when ``value``, read from a config (``path``
    None) or the checkpoint at ``path``, is ``ABSENT`` or breaks ``rule``; it
    names ``name``, or the first entry of it that breaks its rule, and quotes
    the value as ``echo`` cuts it."""
    if value is ABSENT:
        raise ValueError(f"checkpoint {path} lacks {name}")
    if isinstance(rule, dict):
        judge(value, OBJECT, name, path)
        for key, sub in rule.items():
            judge(value.get(key, ABSENT), sub(value) if callable(sub) else sub, f"{name}.{key}", path)
    elif isinstance(rule, list):
        judge(value, LIST, name, path)
        for i, entry in enumerate(value):
            judge(entry, rule[0], f"{name}[{i}]", path)
    else:
        for phrase, ok in (rule,) if isinstance(rule[0], str) else rule:
            if not ok(value):
                where = "" if path is None else f"checkpoint {path}: "
                raise ValueError(f"{where}{name} must be {phrase}, got {echo(value)}")


def setting(*rule, **default):
    """A dataclass field whose value ``check_settings`` holds to ``rule``."""
    return field(**default, metadata={"rule": rule})


def check_settings(config):
    """Raise one ValueError naming the first field of ``config`` that breaks
    its rule, and the value that breaks it."""
    for f in fields(config):
        judge(getattr(config, f.name), f.metadata["rule"], f.name)


@dataclass
class ModelConfig:
    embed_dim: int = setting(INT, POSITIVE, default=16)
    heads: int = setting(INT, POSITIVE, default=2)
    layers: int = setting(INT, NONNEGATIVE, default=2)
    ffn_depth: int = setting(INT, POSITIVE, default=2)
    hidden_size: int = setting(INT, POSITIVE, default=32)
    head_layers: int = setting(INT, POSITIVE, default=2)
    time_bins: int = setting(INT, POSITIVE, default=10)
    n_events: int = setting(INT, POSITIVE, default=1)

    def __post_init__(self):
        check_settings(self)
        if self.embed_dim % self.heads:
            raise ValueError(f"heads ({echo(self.heads)}) must divide embed_dim ({echo(self.embed_dim)})")


@dataclass
class ForwardPass:
    """Arrays of one batched forward run and its attention; ``backward`` is the network's VJP."""

    raw: np.ndarray  # (B·D, d_e) field embeddings
    encoded: np.ndarray  # (B·D, d_e) encoder output; ``raw`` itself with no layers
    shared: np.ndarray  # (B, hidden)
    hazards: np.ndarray  # (K, B, m), positive: event k's hazards are hazards[k]
    event_prob: np.ndarray  # (B,), in (0, 1)
    time_pred: np.ndarray  # (B,)
    attention: list  # per layer: (B, H, D, D) weights
    _vjps: tuple = field(repr=False)  # the embedding's, the layers', the projection's, the two head stacks'

    def backward(self, g_hazards, g_prob, g_time):
        """Write every parameter's gradient view from the hazard, any-event
        and follow-up-time cotangents, each link's slope read from its output,
        summing the heads' as ``(events + mp) + ls``, the event heads' in head
        order, and the embedding's as ``g_raw + g_enc``. Returns ``()``."""
        embed, layers, projection, (events, aux) = self._vjps
        events = events(g_hazards * -np.expm1(-self.hazards))  # softplus' slope, logistic(a), from its output
        aux = aux(np.stack([g_prob * self.event_prob * (1.0 - self.event_prob), g_time])[:, :, None])
        g_enc, g_raw = projection(sum(aux, sum(events[1:], events[0])))
        for vjp in reversed(layers):
            g_enc = vjp(g_enc)
        return embed(g_raw + g_enc)


def _attend(x, D, H, w):
    """Forward of all H heads' attention over (B·D, d_e) rows ``x``. ``w`` is
    the fused (d_e, 3·H·d_h) weight, its columns every head's query weight,
    then every key weight, then every value weight, so q, k and v are strided
    views of the one product ``x @ w``. Returns the (B·D, H·d_h) head-concatenated
    output and the arrays ``_attend_back`` needs, the last the (B, H, D, D) weights."""
    BD = len(x)
    q, k, v = (x @ w).reshape(BD // D, D, 3, H, -1).transpose(2, 0, 3, 1, 4)  # each (B, H, D, d_h)
    logits = np.matmul(q, np.swapaxes(k, -1, -2))
    # the softmax in place; the row max from D - 1 maximums over the field slices,
    # exact as max(axis=-1) is and faster up to ~24 fields at 256 records, not at 48
    top = logits[..., :1].copy()
    for j in range(1, D):
        np.maximum(top, logits[..., j : j + 1], out=top)
    logits -= top
    alpha = np.exp(logits, out=logits)
    alpha /= alpha.sum(axis=-1, keepdims=True)
    out = np.matmul(alpha, v).transpose(0, 2, 1, 3).reshape(BD, -1)
    return out, (x, w, q, k, v, alpha)


def _attend_back(g, saved):
    """Vector-Jacobian product of ``_attend``, the transpose of its fused
    product: the per-record q, k and v cotangents fill one (B·D, 3·H·d_h)
    ``d_qkv`` in ``w``'s column order; returns the (d_e, 3·H·d_h) weight
    gradient ``x.T @ d_qkv`` and the (B·D, d_e) input gradient ``d_qkv @ w.T``."""
    x, w, q, k, v, alpha = saved
    B, H, D, _ = alpha.shape
    g = g.reshape(B, D, H, -1).transpose(0, 2, 1, 3)
    d_alpha = np.matmul(g, np.swapaxes(v, -1, -2))
    d_logits = alpha * (d_alpha - (d_alpha * alpha).sum(axis=-1, keepdims=True))
    d_qkv = np.empty((B, D, 3, H, q.shape[-1]))
    dq, dk, dv = d_qkv.transpose(2, 0, 3, 1, 4)  # views in q, k and v's layout
    np.matmul(d_logits, k, out=dq)
    np.matmul(np.swapaxes(d_logits, -1, -2), q, out=dk)
    np.matmul(np.swapaxes(alpha, -1, -2), g, out=dv)
    d_qkv = d_qkv.reshape(len(x), -1)
    return x.T @ d_qkv, d_qkv @ w.T


def embed_fields(tables, weight, cat, num):
    """The field embedding, (B·D, d_e) rows, each record's D field rows
    contiguous, categorical fields first, and its VJP.

    Categorical field i looks up row ``cat[:, i]`` of ``tables[i]``;
    numerical field j scales row j of ``weight`` ((d_n, d_e), None when
    there is no numerical field) by ``num[:, j]``. The VJP scatter-adds into
    the looked-up rows of each table's gradient view; it returns ``()``.
    """
    d_c = len(tables)
    out = np.empty((len(num), d_c + num.shape[1], (tables or [weight])[0].data.shape[1]))
    for i, table in enumerate(tables):
        out[:, i] = table.data[cat[:, i]]
    if weight is not None:
        out[:, d_c:] = num[:, :, None] * weight.data

    def back(g):
        g = g.reshape(out.shape)
        for i, table in enumerate(tables):
            table.grad[...] = 0.0
            np.add.at(table.grad, cat[:, i], g[:, i])
        if weight is not None:
            weight.grad[...] = (g[:, d_c:] * num[:, :, None]).sum(axis=0)
        return ()

    return out.reshape(-1, out.shape[2]), back


def encoder_layer(x, D, qkv, wres, ffn):
    """One encoder layer over (B·D, d_e) field rows ``x``.

    ``qkv`` is one Tensor holding every head's query, key and value weights
    in draw order, (H, 3, d_e, d_h): head h's wq, wk and wv are
    ``qkv.data[h]``. ``t_res = selu(attention(x) @ wres + x)``, the
    feed-forward stack ``z`` runs ``x`` through the ``ffn`` weights with
    SELU between them, and the output is ``selu(z + t_res)``. Attention is
    ``_attend``'s: all heads at once, with unscaled logits, over the fused
    weight that transposing ``qkv`` gives. Returns the (B·D, d_e) output,
    its VJP and the (B, H, D, D) attention weights. The VJP works from the
    saved SELU outputs, which give each slope, writes the fused weight's
    gradient into ``qkv.grad`` as one strided copy and returns ``x``'s.
    """
    H, _, de, dh = qkv.data.shape
    mixed, saved = _attend(x, D, H, qkv.data.transpose(2, 1, 0, 3).reshape(de, -1))
    t_res = ad.selu_array(mixed @ wres.data + x)
    inputs = [x]  # the input of each FFN matmul; the later ones are SELU outputs
    for w in ffn[:-1]:
        inputs.append(ad.selu_array(inputs[-1] @ w.data))
    out = inputs[-1] @ ffn[-1].data
    out += t_res
    ad.selu_array(out)

    def back(g):
        g_u = g * ad.selu_slope(out)
        d_ffn = []
        gz = g_u
        for i in range(len(ffn) - 1, -1, -1):
            d_ffn.append(inputs[i].T @ gz)
            gz = gz @ ffn[i].data.T
            if i:
                gz = gz * ad.selu_slope(inputs[i])
        g_s = g_u * ad.selu_slope(t_res)
        d_wres = mixed.T @ g_s
        d_w, dx_attn = _attend_back(g_s @ wres.data.T, saved)
        qkv.grad[...] = d_w.reshape(de, 3, H, dh).transpose(2, 1, 0, 3)
        for p, dp in zip([wres, *ffn], [d_wres, *reversed(d_ffn)]):
            p.grad[...] = dp
        # FFN, residual, then attention: the order in which composing the
        # layer from one op per matmul and SELU sums them, so both give the
        # same bits
        return gz + g_s + dx_attn

    return out, back, saved[-1]


def shared_projection(encoded, raw, w):
    """The shared representation ``selu([encoded | raw] @ w)`` and its VJP,
    which writes ``w``'s gradient view and returns ``encoded``'s and ``raw``'s.

    ``encoded`` and ``raw`` are the (B·D, d_e) encoder output and field
    embeddings, each flattened to one row per record; with no encoder layers
    they are one array. ``w`` is (2·D·d_e, hidden).
    """
    width = w.data.shape[0] // 2
    joined = np.concatenate([encoded.reshape(-1, width), raw.reshape(-1, width)], axis=1)
    out = ad.selu_array(joined @ w.data)

    def back(g):
        g = g * ad.selu_slope(out)
        w.grad[...] = joined.T @ g
        g = g @ w.data.T
        return g[:, :width].reshape(encoded.shape), g[:, width:].reshape(raw.shape)

    return out, back


def mlp_head(z, weights, biases):
    """K task heads of one shape side by side on the (B, fan_in) ``z``:
    ``z @ w + b`` per layer, ReLU between, and no output link. Each layer's
    weights are one (K, fan_in, fan_out) Tensor and its biases one (K,
    fan_out) Tensor, every product K products of the shapes one head's
    takes, so each head's values and gradients are its own one-head stack's
    bit for bit. Returns the (K, B, width) outputs and their VJP, which
    writes every parameter's gradient view and returns the K heads' (K, B,
    fan_in) cotangents of ``z``."""
    inputs = []  # the input of each layer; the later ones are ReLU outputs
    for i, (w, b) in enumerate(zip(weights, biases)):
        inputs.append(np.maximum(z, 0.0) if i else z)
        z = np.matmul(inputs[-1], w.data) + b.data[:, None, :]

    def back(g):
        for i in range(len(weights) - 1, -1, -1):
            biases[i].grad[...] = g.sum(axis=1)
            weights[i].grad[...] = np.matmul(np.swapaxes(inputs[i], -1, -2), g)
            g = np.matmul(g, np.swapaxes(weights[i].data, -1, -2))
            if i:
                g = g * (inputs[i] > 0)
        return g

    return z, back


def _stacked(views, lead):
    """One Tensor over parameter views of one shape that sit, in order,
    equally far apart in the flat buffers: its data and grad are (*lead,
    *shape) views of those buffers, ``lead`` multiplying to ``len(views)``."""

    def across(arrays):
        first = arrays[0]
        step = (arrays[-1].ctypes.data - first.ctypes.data) // max(len(arrays) - 1, 1)
        return as_strided(first, (len(arrays), *first.shape), (step, *first.strides)).reshape(*lead, *first.shape)

    return ad.Tensor(across([v.data for v in views]), across([v.grad for v in views]))


class SurvivalTransformer:
    """The full network. ``params`` maps each parameter's name, in draw
    order, to its Tensor; the Tensors are views of the flat buffers ``data``
    and ``grad``. ``embedding``, ``encoder`` (per layer), ``projection`` and
    ``heads`` (the event hazards, then mp and ls) hold the same Tensors,
    grouped as the block ops take them. ``_walk`` runs twice: to record and
    count the layout before the draws, then to group the views. A block's
    like parameters sit equally far apart in the flat buffers, so each
    encoder layer's query, key and value weights are one (H, 3, d_e, d_h)
    Tensor, and each of the two ``heads`` groups holds its heads' per-layer
    weights and biases as (K, ...) Tensors, K = n_events for the event heads
    and 2 for mp and ls; these are views of the same buffers. ``load(layout)``,
    if given, returns the arrays in place of the draws once the count is judged."""

    def __init__(self, config, schema, grid, seed=0, load=None):
        if config.time_bins != grid.m:
            raise ValueError(f"config.time_bins={echo(config.time_bins)} but grid has m={grid.m}")
        self.config, self.schema, self.grid = config, schema, grid
        layout = []  # (name, shape, drawn) in draw order

        def record(name, shape, drawn):
            # the count is judged before the first draw; ``allocate`` judges each array's size
            if len(layout) == MAX_PARAMETERS:
                n = max(("layers", "heads", "ffn_depth", "head_layers", "n_events"), key=lambda n: getattr(config, n))
                raise ValueError(f"{n}={echo(getattr(config, n))} asks for more than {MAX_PARAMETERS} parameter arrays")
            layout.append((name, shape, drawn))

        self._walk(record)
        if load is None:
            rng = np.random.default_rng(seed)
            arrays = []
            for name, shape, drawn in layout:
                bound = np.sqrt(6.0 / sum(shape))  # a drawn weight's shape is (fan_in, fan_out)
                arrays.append(allocate(f"parameter {name}", shape,
                                       lambda: rng.uniform(-bound, bound, size=shape) if drawn else np.zeros(shape)))
        self.data, self.grad, tensors = ad.flat_parameters(arrays if load is None else load(layout))
        self.params = {name: t for (name, _, _), t in zip(layout, tensors)}
        views = iter(tensors)
        self.embedding, encoder, self.projection, heads = self._walk(lambda *_: next(views))
        self.encoder = [(_stacked(qkv, (config.heads, 3)), wres, ffn) for qkv, wres, ffn in encoder]
        *events, mp, ls = heads
        self.heads = [tuple([_stacked(layer, (len(group),)) for layer in zip(*part)] for part in zip(*group))
                      for group in (events, [mp, ls])]

    def _walk(self, visit):
        """Call ``visit(name, shape, drawn)`` for every parameter in draw
        order, ``drawn`` False for a zero bias; return the results grouped as
        the block ops take them: the embedding's tables and numerical weight
        (or None), per layer its query, key and value weights (in draw
        order: h0's wq, wk, wv, then h1's), wres and ffn, the projection
        weight, and per task head (event hazards, then mp and ls) its weights
        and biases."""
        c, schema = self.config, self.schema
        de, hid = c.embed_dim, c.hidden_size
        tables = [visit(f"embed.cat{i}", (f.cardinality + 1, de), True) for i, f in enumerate(schema.categorical)]
        embedding = (tables, visit("embed.num", (schema.d_n, de), True) if schema.d_n else None)
        encoder = []
        for layer in range(c.layers):
            qkv = [visit(f"enc{layer}.h{h}.{w}", (de, de // c.heads), True)
                   for h in range(c.heads) for w in ("wq", "wk", "wv")]
            wres = visit(f"enc{layer}.wres", (de, de), True)
            ffn = [visit(f"enc{layer}.ffn{i}", (hid if i else de, hid if i < c.ffn_depth - 1 else de), True)
                   for i in range(c.ffn_depth)]
            encoder.append((qkv, wres, ffn))
        projection = visit("sr.w", (2 * schema.d * de, hid), True)
        heads = []
        for prefix, width in chain(((f"cs{k}", c.time_bins) for k in range(c.n_events)), [("mp", 1), ("ls", 1)]):
            weights, biases = [], []
            for i in range(c.head_layers):
                b = width if i == c.head_layers - 1 else hid
                weights.append(visit(f"{prefix}.w{i}", (hid, b), True))
                biases.append(visit(f"{prefix}.b{i}", (b,), False))
            heads.append((weights, biases))
        return embedding, encoder, projection, heads

    # --- batched forward (training path) ----------------------------------

    def forward_batch(self, cat_idx, num_vals):
        """The network on a batch, as a ``ForwardPass``. Raises ValueError
        naming the first output, in hazard, any-event, follow-up-time and
        attention order, that holds a non-finite value."""
        cat_idx = np.asarray(cat_idx, dtype=np.intp)
        num_vals = np.asarray(num_vals, dtype=np.float64)
        # an overflow anywhere reaches an output, where the check below names it
        with np.errstate(all="ignore"):
            raw, embed_vjp = embed_fields(*self.embedding, cat_idx, num_vals)
            x, layer_vjps, attention = raw, [], []
            for layer in self.encoder:
                x, vjp, alpha = encoder_layer(x, self.schema.d, *layer)
                layer_vjps.append(vjp)
                attention.append(alpha)
            shared, projection_vjp = shared_projection(x, raw, self.projection)
            (hazards, events_vjp), (aux, aux_vjp) = (mlp_head(shared, *group) for group in self.heads)
            hazards, mp, ls = ad.softplus_array(hazards), ad.logistic(aux[0, :, 0]), aux[1, :, 0]
        outputs = [(f"event-{k + 1} hazards", h) for k, h in enumerate(hazards)]
        outputs += [("any-event probability", mp), ("follow-up time", ls)]
        outputs += [(f"layer-{layer} attention", alpha) for layer, alpha in enumerate(attention)]
        for name, values in outputs:
            if not np.isfinite(values).all():
                raise ValueError(f"non-finite network output: {name}")
        return ForwardPass(raw, x, shared, hazards, mp, ls, attention,
                           (embed_vjp, layer_vjps, projection_vjp, (events_vjp, aux_vjp)))

    # --- checked inference views ------------------------------------------

    def _covariates(self, cat, num):
        """``cat`` and ``num`` as (n, d_c) indices and (n, d_n) values, after
        one range check of every categorical index."""
        cat = np.asarray(cat, dtype=np.intp)
        num = np.asarray(num, dtype=np.float64)
        d_c, d_n = self.schema.d_c, self.schema.d_n
        if num.ndim != 2 or num.shape[1] != d_n or cat.shape != (len(num), d_c):
            raise ValueError(
                f"covariates have shapes {cat.shape} (cat) and {num.shape} (num); "
                f"model expects (n, {d_c}) and (n, {d_n})"
            )
        cardinality = np.array([f.cardinality for f in self.schema.categorical], dtype=np.intp)
        bad = np.argwhere((cat < 0) | (cat > cardinality))
        if bad.size:
            row, i = bad[0]
            raise ValueError(
                f"categorical index {cat[row, i]} out of range for {echo(self.schema.categorical[i].name)}"
            )
        return cat, num

    def predict_outputs(self, cat, num):
        """Forward (n, d_c) indices and (n, d_n) values in chunks of
        ``INFER_CHUNK`` records; returns the head outputs as arrays: (n,
        n_events, m) hazards, (n,) any-event probabilities and (n,)
        follow-up times. A short last chunk is filled to ``INFER_CHUNK`` rows
        with copies of its last record, whose outputs are dropped, so every
        forward has one shape and a record's outputs do not depend on how
        many records follow it."""
        cat, num = self._covariates(cat, num)
        n = len(num)
        if not n:
            raise ValueError("no records to forward")
        chunks = []
        for s in range(0, n, INFER_CHUNK):
            rows = np.minimum(np.arange(s, s + INFER_CHUNK), n - 1)
            fp = self.forward_batch(cat[rows], num[rows])
            chunks.append((fp.hazards.transpose(1, 0, 2)[: n - s], fp.event_prob[: n - s], fp.time_pred[: n - s]))
            del fp  # free this chunk's saved activations before the next forward
        return tuple(np.concatenate(parts) for parts in zip(*chunks))

    def predict_hazards(self, cat, num):
        """The (n, n_events, m) hazards of ``predict_outputs``."""
        return self.predict_outputs(cat, num)[0]

    def export_attention(self, cat, num):
        """One record's attention maps, in layer then head order, each the
        JSON-ready record ``{"layer", "head", "labels", "weights"}`` that
        ``attention.json`` holds: ``weights`` is the (D, D) field-by-field
        matrix as lists, ``labels`` the schema's field names. ``cat`` and
        ``num`` are the record's index and value rows."""
        fp = self.forward_batch(*self._covariates(np.reshape(cat, (1, -1)), np.reshape(num, (1, -1))))
        return [{"layer": layer, "head": h, "labels": self.schema.field_names, "weights": alpha[0, h].tolist()}
                for layer, alpha in enumerate(fp.attention) for h in range(alpha.shape[1])]


def save_checkpoint(path, model, extra=None):
    """Single self-describing JSON file: config, schema, grid, parameters."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(model.config),
        "schema": asdict(model.schema),
        "grid": model.grid.cuts.tolist(),
        "params": {name: t.data.tolist() for name, t in model.params.items()},
        "extra": extra or {},
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))  # the same bytes as json.dump, from the C encoder


def load_checkpoint(path):
    """Rebuild a model from ``save_checkpoint`` output; returns (model, extra).

    The payload must hold the ``SECTIONS`` and exactly the rebuilt model's
    parameters, each with its shape; they fill the flat buffer, undrawn. The
    first error is of too many arrays, then an absent parameter (draw order),
    then a bad entry, unknown name or wrong shape (checkpoint order). Each
    schema field record keeps its rules in ``FIELDS``, and every grid and
    parameter entry must be a finite number; ``judge`` names the first entry
    that breaks its rule. ``extra`` is returned unjudged, for the commands.
    """
    payload = read_json(path, "checkpoint")
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format in {path}")
    for key, rule in SECTIONS.items():
        judge(payload.get(key, ABSENT), rule, key, path)

    def numbers(values, name):
        # one tight pass over the entries; only a bad one costs a ``judge`` call
        entries = np.array(values, dtype=object)
        if not all(map(FLOAT[1], entries.flat)):
            for value in entries.flat:
                judge(value, FLOAT, name, path)
        return entries.astype(np.float64)

    try:
        config = ModelConfig(**payload["config"])
    except TypeError as err:
        raise ValueError(f"checkpoint {path} has a malformed config: {echo(err)}") from None
    records = payload["schema"]
    schema = CovariateSchema([CategoricalField(*map(f.get, FIELDS["categorical"])) for f in records["categorical"]],
                             [NumericalField(*map(f.get, FIELDS["numerical"])) for f in records["numerical"]])
    grid = TimeGrid(numbers(payload["grid"], "every grid entry"))

    def judged(layout):  # (name, shape, drawn) in draw order
        shapes = {name: shape for name, shape, _ in layout}
        absent = [name for name in shapes if name not in payload["params"]]
        if absent:
            more = f" and {len(absent) - 1} more" if len(absent) > 1 else ""
            judge(ABSENT, FLOAT, f"parameters {absent[0]}{more}", path)
        arrays = {}
        for name, values in payload["params"].items():
            arr = arrays[name] = numbers(values, f"every entry of parameter {echo(name)}")
            if shapes.get(name) != arr.shape:
                raise ValueError(f"checkpoint parameter {echo(name)} does not fit the rebuilt model")
        return [arrays[name] for name in shapes]

    return SurvivalTransformer(config, schema, grid, load=judged), payload.get("extra", {})
