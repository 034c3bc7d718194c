"""Independent reference implementations used only to check the package.

These deliberately avoid the package's kernels: matrix products use BLAS
(np.matmul), attention materializes the full masked score matrix, and the
metric oracles are naive loops, so agreement is meaningful.
"""

from __future__ import annotations

import numpy as np

RMS_EPS = 1e-5


def rms(x, scale):
    return scale * x / np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS)


def rotate(vecs, position, rope_table):
    cos = rope_table.cos[position]
    sin = rope_table.sin[position]
    even, odd = vecs[..., 0::2], vecs[..., 1::2]
    out = np.empty_like(vecs)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def dense_attention(params, x, rope_table, start_pos=0, window=None):
    """Full-matrix causal attention over the whole input, no cache.

    With a ``window``, row ``t`` sees only keys ``t-window+1..t``.
    """
    t_len, d = x.shape
    h, hd = params.n_heads, params.head_dim
    q = (x @ params.wq).reshape(t_len, h, hd)
    k = (x @ params.wk).reshape(t_len, h, hd)
    v = (x @ params.wv).reshape(t_len, h, hd)
    q = np.stack([rotate(q[t], start_pos + t, rope_table) for t in range(t_len)])
    k = np.stack([rotate(k[t], start_pos + t, rope_table) for t in range(t_len)])
    scores = np.einsum("thd,uhd->htu", q, k) / np.sqrt(hd)
    mask = np.tril(np.ones((t_len, t_len), dtype=bool))
    if window is not None:
        mask &= np.triu(np.ones((t_len, t_len), dtype=bool), k=1 - window)
    scores = np.where(mask[None], scores, -np.inf)
    scores = scores - scores.max(axis=-1, keepdims=True)
    probs = np.exp(scores)
    probs = probs / probs.sum(axis=-1, keepdims=True)
    ctx = np.einsum("htu,uhd->thd", probs, v).reshape(t_len, d)
    return ctx @ params.wo


def monolithic_forward(weights, tokens):
    """Single-pass full-model logits with no cache and no layer split."""
    h = weights.token_embedding[np.asarray(tokens, dtype=np.int64)]
    for lw in weights.layers:
        h = h + dense_attention(lw.attn, rms(h, lw.attn_norm), weights.rope)
        hn = rms(h, lw.ffn_norm)
        gated = hn @ lw.gate
        h = h + ((gated / (1.0 + np.exp(-gated))) * (hn @ lw.up)) @ lw.down
    return rms(h, weights.final_norm) @ weights.lm_head


def naive_compression_rate(s_list):
    total = 0
    for s in s_list:
        total += s
    return total / len(s_list)


def naive_ctar(s_list, w):
    hits = 0
    for s in s_list:
        if s - w > 0:
            hits += 1
    return hits / len(s_list)


def random_gradcheck_instance(seed, d=8, vocab=11, t_len=3, heads=2):
    """A small float64 adapter/batch/head/rope tuple for gradient checks."""
    from selfspec import AdapterWeights, DistillBatch
    from selfspec.kernels import AttentionParams, RopeTable
    from selfspec.seeding import generator

    rng = generator(seed, "gradcheck")
    adapter = AdapterWeights(
        input_norm=rng.normal(1.0, 0.1, d),
        attn=AttentionParams(
            *(rng.normal(0.0, 0.3, (d, d)) for _ in range(4)),
            n_heads=heads, head_dim=d // heads,
        ),
        output_norm=rng.normal(1.0, 0.1, d),
    )
    lm_head = rng.normal(0.0, 0.5, (d, vocab))
    rope = RopeTable(d // heads, 10000.0, max(16, t_len), np.float64)
    batch = DistillBatch(
        early_features=rng.normal(0.0, 1.0, (t_len, d)),
        teacher_probs=rng.dirichlet(np.ones(vocab), size=t_len),
    )
    return adapter, batch, lm_head, rope


def max_grad_error(adapter, batch, lm_head, rope, h=1e-5):
    """Worst mixed abs/rel deviation of analytic grads vs central differences."""
    from selfspec import adapter_backward

    _, grads = adapter_backward(adapter, batch, lm_head, rope)
    worst = 0.0
    for name, theta in adapter.tensors().items():
        analytic = grads[name].reshape(-1)
        flat = theta.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = adapter_backward(adapter, batch, lm_head, rope)
            flat[i] = orig - h
            down, _ = adapter_backward(adapter, batch, lm_head, rope)
            flat[i] = orig
            fd = (up - down) / (2.0 * h)
            err = abs(analytic[i] - fd) / max(1.0, abs(analytic[i]), abs(fd))
            worst = max(worst, err)
    return worst


def naive_gen_corpus(vocab_size, n_seqs, len_range, seed):
    """Markov corpus drawn the original way: all four candidates hashed with
    ``derive`` per token, then one ``Generator.choice`` call per token."""
    from selfspec.seeding import derive, generator

    probs = np.array([0.55, 0.25, 0.12, 0.08])

    def candidates(a, b):
        return np.array(
            [derive(seed, "markov", a, b, i) % vocab_size for i in range(len(probs))],
            dtype=np.int64,
        )

    lo, hi = len_range
    rng = generator(seed, "corpus")
    sequences = []
    for _ in range(n_seqs):
        length = int(rng.integers(lo, hi + 1))
        seq = [int(rng.integers(vocab_size)), int(rng.integers(vocab_size))]
        while len(seq) < length:
            cands = candidates(seq[-2], seq[-1])
            seq.append(int(rng.choice(cands, p=probs)))
        sequences.append(seq[:length])
    return sequences
