"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct formulas) and shares no code with the package internals it
verifies. The exception is ``chained_network_grad``, the network's blocks
and their VJPs chained by hand, against which ``ForwardPass.backward`` is
held bit for bit.
"""

import math

import numpy as np

from survformer.model import embed_fields, encoder_layer, mlp_head, shared_projection

SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


def fd_gradients(loss_fn, arrays, step=1e-5):
    """Finite differences of a scalar closure w.r.t. ``arrays``, which it
    perturbs in place, one entry at a time: central differences at steps h
    and 2h, Richardson-extrapolated,
    (8·(f(x+h) − f(x−h)) − (f(x+2h) − f(x−2h))) / 12h, whose truncation
    error is O(h⁴). Their roundoff is about ε·|f|/h, so h grows with the
    fifth root of the loss, h = step·max(1, |f(x)|)^(1/5), which balances the
    two; the default keeps both far inside ``assert_grads_match``'s
    tolerance, with steps small enough that x ± 2h seldom crosses a SELU or
    ReLU kink."""
    h = step * max(1.0, abs(loss_fn())) ** 0.2
    grads = []
    for a in arrays:
        g = np.empty(a.shape)
        for i in np.ndindex(a.shape):
            orig = a[i]
            f = {}
            for k in (1, -1, 2, -2):
                a[i] = orig + k * h
                f[k] = loss_fn()
            a[i] = orig
            g[i] = (8.0 * (f[1] - f[-1]) - (f[2] - f[-2])) / (12.0 * h)
        grads.append(g)
    return grads


def assert_grads_match(analytic, numeric, rtol=1e-4, atol=1e-8):
    """Agreement to |a − f| ≤ atol + rtol·|f| at every entry; a failure
    reports the worst error as a fraction of that tolerance."""
    worst = max(float(np.max(np.abs(a - f) / (atol + rtol * np.abs(f)), initial=0.0))
                for a, f in zip(analytic, numeric))
    for a, f in zip(analytic, numeric):
        np.testing.assert_allclose(a, f, rtol=rtol, atol=atol, err_msg=f"worst error {worst:.3g} of the tolerance")


def chained_network_grad(model, cat, num, g_hazards, g_prob, g_time):
    """``model.grad`` after its blocks' VJPs on a batch, chained by hand from
    the (K, B, m) hazard and (B,) any-event and follow-up-time cotangents.
    The heads' input cotangents sum as ``(events + mp) + ls``, the encoder
    layers run last to first, and the embedding's cotangent sums the
    projection's share of it first, as ``g_raw + g_enc``."""
    raw, embed_vjp = embed_fields(*model.embedding, cat, num)
    encoded, layer_vjps = raw, []
    for layer in model.encoder:
        encoded, vjp, _ = encoder_layer(encoded, model.schema.d, *layer)
        layer_vjps.append(vjp)
    shared, projection_vjp = shared_projection(encoded, raw, model.projection)
    heads = [mlp_head(shared, *group, link)[1] for group, link in zip(model.heads, ("softplus", "logistic", None))]
    B = len(g_prob)
    cotangents = g_hazards, np.reshape(g_prob, (1, B, 1)), np.reshape(g_time, (1, B, 1))
    events, mp, ls = (vjp(g) for vjp, g in zip(heads, cotangents))
    g_enc, g_raw = projection_vjp((events + mp) + ls)
    for vjp in reversed(layer_vjps):
        g_enc = vjp(g_enc)
    embed_vjp(g_raw + g_enc)
    return model.grad.copy()


def pch_oracle(hazards, cuts, t, e):
    """Piecewise-constant-hazard loss of one record by walking the bins.

    Bin j covers (cuts[j-1], cuts[j]] with an implicit cut 0 before the
    first; t = 0 lies in the first bin and a time past the last cut lies in
    the last bin, fully elapsed.
    """
    left = 0.0
    elapsed = 0.0
    for j, right in enumerate(cuts):
        if t <= right or j == len(cuts) - 1:
            fraction = (min(t, right) - left) / (right - left)
            return -e * math.log(hazards[j]) + hazards[j] * fraction + elapsed
        elapsed += hazards[j]
        left = right


def event_loss_matrix(hazards, durations, cuts):
    """Counterfactual per-(record, event) losses, event k observed at t_i:
    ``pch_oracle`` of each record's (n, K, m) ``hazards`` row, record by
    record and event by event. The result is (n, K)."""
    return np.array([[pch_oracle(h, cuts, t, 1) for h in row] for row, t in zip(hazards, durations)])


def naive_competing_loss(losses, events):
    """The printed observed-event average: the (n, K) ``losses`` of each
    record's own event (1-based; 0 is censored), summed and divided by the
    number of observed events."""
    observed = [losses[i, e - 1] for i, e in enumerate(events) if e > 0]
    return sum(observed) / len(observed)


def ips_loss(losses, events, propensities):
    """The printed inverse-propensity-weighted loss: each observed event's
    loss over its (n, K) ``propensities`` entry, summed and divided by
    records times events. Censored records contribute nothing, and nothing
    is clipped."""
    n, K = losses.shape
    return sum(losses[i, e - 1] / propensities[i, e - 1] for i, e in enumerate(events) if e > 0) / (n * K)


def selu_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def naive_attention(embeddings, wq, wk, wv):
    """Single-head attention by explicit loops over field pairs."""
    D = len(embeddings)
    dh = wv.shape[1]
    outputs = []
    alphas = np.zeros((D, D))
    for j in range(D):
        psi = np.array([(embeddings[j] @ wq) @ (embeddings[k] @ wk) for k in range(D)])
        e = np.exp(psi - psi.max())
        alpha = e / e.sum()
        alphas[j] = alpha
        out = np.zeros(dh)
        for k in range(D):
            out += alpha[k] * (embeddings[k] @ wv)
        outputs.append(out)
    return outputs, alphas


def naive_attention_vjp(embeddings, heads, g):
    """The vector-Jacobian product of one record's multi-head attention by
    explicit loops over heads and field pairs.

    ``heads`` lists one (wq, wk, wv) triple per head; ``g`` is the (D, H·d_h)
    cotangent of the head-concatenated output. Returns the per-head (dwq,
    dwk, dwv) triples and the (D, d_e) cotangent of ``embeddings``.
    """
    D = len(embeddings)
    d_embeddings = np.zeros((D, len(embeddings[0])))
    d_heads = []
    for h, (wq, wk, wv) in enumerate(heads):
        dh = wv.shape[1]
        q = [t @ wq for t in embeddings]
        k = [t @ wk for t in embeddings]
        v = [t @ wv for t in embeddings]
        _, alphas = naive_attention(embeddings, wq, wk, wv)
        dq = [np.zeros(dh) for _ in range(D)]
        dk = [np.zeros(dh) for _ in range(D)]
        dv = [np.zeros(dh) for _ in range(D)]
        for j in range(D):
            g_j = g[j][h * dh:(h + 1) * dh]
            d_alpha = [g_j @ v[l] for l in range(D)]
            mean = sum(alphas[j, l] * d_alpha[l] for l in range(D))
            for l in range(D):
                d_psi = alphas[j, l] * (d_alpha[l] - mean)  # through the softmax
                dq[j] += d_psi * k[l]
                dk[l] += d_psi * q[j]
                dv[l] += alphas[j, l] * g_j
        d_w = []
        for w, d in ((wq, dq), (wk, dk), (wv, dv)):
            d_w.append(sum(np.outer(embeddings[j], d[j]) for j in range(D)))
            for j in range(D):
                d_embeddings[j] += w @ d[j]
        d_heads.append(tuple(d_w))
    return d_heads, d_embeddings


def naive_encoder_layer(rows, heads, wres, ffn):
    """One encoder layer on one record's field rows by explicit loops.

    ``heads`` lists one (wq, wk, wv) triple per head. Each field's attended
    vector concatenates the heads' outputs; then the residual projection
    and the feed-forward stack, with SELU where the recipe puts it. Returns
    the (D, d_e) output and the per-head (D, D) attention weights.
    """
    attended = [naive_attention(rows, wq, wk, wv) for wq, wk, wv in heads]
    out = []
    for j, t in enumerate(rows):
        tilde = np.concatenate([outputs[j] for outputs, _ in attended])
        t_res = selu_ref(tilde @ wres + t)
        z = t
        for i, w in enumerate(ffn):
            z = z @ w
            if i < len(ffn) - 1:
                z = selu_ref(z)
        out.append(selu_ref(z + t_res))
    return np.stack(out), [alphas for _, alphas in attended]


def naive_parameter_draw(config, schema, seed):
    """The documented initial parameters, replayed: (name, array) pairs in
    draw order.

    One ``default_rng(seed)`` stream draws every weight, in the order below,
    from the uniform on [-b, b) with b = sqrt(6/(fan_in + fan_out)); biases
    are zero and draw nothing. A categorical table has one row per
    vocabulary entry plus one for unseen values.
    """
    rng = np.random.default_rng(seed)
    drawn = []

    def weight(name, fan_in, fan_out):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        drawn.append((name, rng.uniform(-bound, bound, size=(fan_in, fan_out))))

    de, hidden = config.embed_dim, config.hidden_size
    for i, f in enumerate(schema.categorical):
        weight(f"embed.cat{i}", len(f.vocabulary) + 1, de)
    if schema.numerical:
        weight("embed.num", len(schema.numerical), de)
    for layer in range(config.layers):
        for h in range(config.heads):
            for w in ("wq", "wk", "wv"):
                weight(f"enc{layer}.h{h}.{w}", de, de // config.heads)
        weight(f"enc{layer}.wres", de, de)
        dims = [de] + [hidden] * (config.ffn_depth - 1) + [de]
        for i in range(config.ffn_depth):
            weight(f"enc{layer}.ffn{i}", dims[i], dims[i + 1])
    weight("sr.w", 2 * (len(schema.categorical) + len(schema.numerical)) * de, hidden)
    heads = [(f"cs{k}", config.time_bins) for k in range(config.n_events)] + [("mp", 1), ("ls", 1)]
    for prefix, width in heads:
        dims = [hidden] * config.head_layers + [width]
        for i in range(config.head_layers):
            weight(f"{prefix}.w{i}", dims[i], dims[i + 1])
            drawn.append((f"{prefix}.b{i}", np.zeros(dims[i + 1])))
    return drawn


class AdamReference:
    """Adam with bias correction and decoupled weight decay, one array and
    one pair of moments per parameter, in the textbook form."""

    def __init__(self, arrays, lr, betas, eps, weight_decay):
        self.x = [np.array(a, dtype=np.float64) for a in arrays]
        self.m = [np.zeros_like(a) for a in self.x]
        self.v = [np.zeros_like(a) for a in self.x]
        self.lr, (self.beta1, self.beta2), self.eps, self.weight_decay = lr, betas, eps, weight_decay
        self.t = 0

    def step(self, grads):
        self.t += 1
        for i, g in enumerate(grads):
            self.x[i] = self.x[i] - self.lr * self.weight_decay * self.x[i]
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * g * g
            m_hat = self.m[i] / (1.0 - self.beta1 ** self.t)
            v_hat = self.v[i] / (1.0 - self.beta2 ** self.t)
            self.x[i] = self.x[i] - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def naive_encode(model, cat, num):
    """Loop evaluation of the embed/attend/residual/feed-forward chain for
    one record's ``cat`` indices and ``num`` values.

    Single layer, single head only; mirrors the published recipe directly.
    """
    schema = model.schema
    t = []
    for i in range(schema.d_c):
        t.append(model.params[f"embed.cat{i}"].data[cat[i]].copy())
    for j in range(schema.d_n):
        t.append(model.params["embed.num"].data[j] * num[j])
    wq = model.params["enc0.h0.wq"].data
    wk = model.params["enc0.h0.wk"].data
    wv = model.params["enc0.h0.wv"].data
    wres = model.params["enc0.wres"].data
    tilde, _ = naive_attention(t, wq, wk, wv)
    out = []
    for j in range(len(t)):
        t_res = selu_ref(tilde[j] @ wres + t[j])
        z = t[j]
        depth = model.config.ffn_depth
        for i in range(depth):
            z = z @ model.params[f"enc0.ffn{i}"].data
            if i < depth - 1:
                z = selu_ref(z)
        out.append(selu_ref(z + t_res))
    return np.concatenate(out)


def logistic_objective(x, y, l2, w, b):
    """A one-vs-rest propensity fit's objective, the mean cross-entropy plus
    ``l2/2*|w|^2`` (the offset ``b`` unpenalized), and its gradient in
    ``w`` and ``b``, by the printed formulas."""
    z = x @ w + b
    value = np.mean(np.log1p(np.exp(z)) - y * z) + 0.5 * l2 * float(w @ w)
    r = 1.0 / (1.0 + np.exp(-z)) - y
    return value, x.T @ r / len(y) + l2 * w, float(r.mean())


def logistic_fit_oracle(x, y, l2, tol=1e-13, max_iter=1_000_000):
    """Minimize ``logistic_objective`` by plain gradient descent from zero at
    the fixed step 1/L, L = (largest eigenvalue of [x, 1]'[x, 1])/(4n) + l2
    bounding the gradient's Lipschitz constant, until the gradient norm is
    below ``tol``. Returns (w, b)."""
    a = np.hstack([x, np.ones((len(y), 1))])
    lipschitz = np.linalg.eigvalsh(a.T @ a)[-1] / (4.0 * len(y)) + l2
    w, b = np.zeros(x.shape[1]), 0.0
    for _ in range(max_iter):
        _, gw, gb = logistic_objective(x, y, l2, w, b)
        if math.sqrt(float(gw @ gw) + gb * gb) < tol:
            return w, b
        w, b = w - gw / lipschitz, b - gb / lipschitz
    raise AssertionError(f"gradient descent did not reach a gradient norm of {tol}")


def censoring_left_oracle(train_durations, train_events, t):
    """G(t-) by the product-limit formula, censorings as events."""
    train_durations = np.asarray(train_durations, dtype=np.float64)
    train_events = np.asarray(train_events)
    g = 1.0
    for u in sorted(set(train_durations[train_events == 0])):
        if u >= t:
            break
        at_risk = int(np.sum(train_durations >= u))
        d = int(np.sum((train_durations == u) & (train_events == 0)))
        g *= 1.0 - d / at_risk
    return g


def ctd_oracle(scores, durations, events, tau, event_k, train_durations, train_events):
    """Exhaustive weighted pair enumeration with the half-credit tie rule."""
    n = len(scores)
    num = 0.0
    den = 0.0
    pairs = 0
    for i in range(n):
        if events[i] != event_k or durations[i] > tau:
            continue
        w = 1.0 / censoring_left_oracle(train_durations, train_events, durations[i]) ** 2
        for j in range(n):
            if durations[i] < durations[j]:
                pairs += 1
                den += w
                if scores[i] < scores[j]:
                    num += w
                elif scores[i] == scores[j]:
                    num += 0.5 * w
    if pairs == 0:
        return None, 0
    return num / den, pairs


def _finite_float(raw):
    """``float(raw)`` when it parses to a finite number, else None."""
    try:
        value = float(raw)
    except ValueError:
        return None
    return value if math.isfinite(value) else None


def transform_row_oracle(schema, columns, row, line, labels=True):
    """One CSV row (a dict of cell text) encoded by the per-row recipe:
    (cat indices, num values, duration, event).

    Missing covariates take the fitted mode or mean; unseen categories map
    to the reserved index. Labels are read when ``labels`` is set. Cells are
    checked left to right: covariates in schema order, then duration, then
    event; the first bad one raises ``ValueError`` with the message the
    package gives for it, naming ``line``.
    """
    cat = []
    for f in schema.categorical:
        raw = row.get(f.name, "")
        if raw == "":
            raw = f.mode
        cat.append(f.vocabulary.get(raw, f.unknown_index))
    num = []
    for f in schema.numerical:
        raw = row.get(f.name, "")
        if raw == "":
            value = f.mean
        else:
            value = _finite_float(raw)
            if value is None:
                raise ValueError(f"bad covariate value at line {line}: non-numeric or non-finite "
                                 f"value {raw!r} in numerical column {f.name!r}")
        num.append((value - f.mean) / f.std)
    t, e = 0.0, 0
    if labels:
        for kind, name in (("duration", columns.duration), ("event", columns.event)):
            raw = row[name]
            value = _finite_float(raw)
            if value is None:
                problem = "non-numeric or non-finite"
            elif kind == "event" and not value.is_integer():
                problem = "non-integral"
            elif value < 0:
                problem = "negative"
            elif kind == "event" and value >= 2.0**53:
                problem = "out-of-range"
            else:
                problem = None
            if problem:
                raise ValueError(f"bad label at line {line}: {problem} value {raw!r} in {kind} column {name!r}")
            if kind == "duration":
                t = value
            else:
                e = int(value)
    return cat, num, t, e


def quantile_oracle(values, q):
    """numpy's own linear quantile, the reference the package's
    ``linear_quantile`` must match bit for bit."""
    return np.quantile(np.asarray(values, dtype=np.float64), np.asarray(q, dtype=np.float64))


def quantile_cuts_oracle(durations, m):
    """The quantile grid's cuts by numpy's formula: the distinct positive
    quantiles j/m, j = 1..m, with the last replaced by the largest duration."""
    durations = np.asarray(durations, dtype=np.float64)
    cuts = np.unique(np.quantile(durations, np.arange(1, m + 1) / m))
    cuts = cuts[cuts > 0]
    cuts[-1] = durations.max()
    return cuts
