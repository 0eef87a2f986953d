"""Independent reference implementations used to check the library.

Everything here is deliberately written the slow, obvious way (explicit
loops, direct formulas) and shares no code with the package internals it
verifies.
"""

import math

import numpy as np

SELU_LAMBDA = 1.0507009873554804934193349852946
SELU_ALPHA = 1.6732632423543772848170429916717


def fd_gradients(loss_fn, tensors, step=1e-6):
    """Central finite differences of a scalar closure w.r.t. tensor data."""
    grads = []
    for p in tensors:
        p.data = np.ascontiguousarray(p.data)  # reshape below must be a view
        flat = p.data.reshape(-1)
        g = np.empty_like(flat)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + step
            up = loss_fn()
            flat[i] = orig - step
            down = loss_fn()
            flat[i] = orig
            g[i] = (up - down) / (2.0 * step)
        grads.append(g.reshape(p.data.shape))
    return grads


def assert_grads_match(analytic, numeric, rtol=1e-4, atol=1e-8):
    """Relative 1e-4 agreement; atol absorbs finite-difference roundoff."""
    for a, f in zip(analytic, numeric):
        np.testing.assert_allclose(a, f, rtol=rtol, atol=atol)


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


def selu_ref(x):
    x = np.asarray(x, dtype=np.float64)
    return SELU_LAMBDA * np.where(x > 0, x, SELU_ALPHA * np.expm1(np.minimum(x, 0.0)))


def naive_attention(embeddings, wq, wk, wv):
    """Single-head attention by explicit loops over field pairs."""
    D = len(embeddings)
    de = embeddings[0].shape[0]
    outputs = []
    alphas = np.zeros((D, D))
    for j in range(D):
        psi = np.array([(embeddings[j] @ wq) @ (embeddings[k] @ wk) for k in range(D)])
        e = np.exp(psi - psi.max())
        alpha = e / e.sum()
        alphas[j] = alpha
        out = np.zeros(de)
        for k in range(D):
            out += alpha[k] * (embeddings[k] @ wv)
        outputs.append(out)
    return outputs, alphas


def naive_encode(model, record):
    """Loop evaluation of the embed/attend/residual/feed-forward chain.

    Single layer, single head only; mirrors the published recipe directly.
    """
    schema = model.schema
    t = []
    for i in range(schema.d_c):
        t.append(model.params[f"embed.cat{i}"].data[record.categorical[i]].copy())
    for j in range(schema.d_n):
        t.append(model.params["embed.num"].data[j] * record.numerical[j])
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
