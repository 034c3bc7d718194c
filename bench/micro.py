"""Kernel microbenchmarks and the bitwise batch-invariance check.

Shapes follow the model under test.  Each kernel runs at T=1 and T=gamma+1
rows; attention also at cache contexts 16 and 400 positions before the call.
Flops and bytes are computed from tensor sizes (float32 operands read once,
results written once), not measured.

Invariance: row ``t`` of a T-row call must equal, bit for bit, a one-row
call on the same input at the same position.  Greedy losslessness rests on
this property, so a mismatch counts as a failed kernel operation.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from selfspec.kernels import LayerKVCache, causal_attention, gated_ffn, matmul, rmsnorm

CONTEXTS = (16, 400)
_F32 = 4


def _cases(model, rng, gamma: int):
    """(name, rows, context, call, flops, bytes) for every microbenchmark."""
    d, f, v = model.config.d_model, model.config.ffn_hidden, model.config.vocab_size
    layer = model.layers[0]
    rope = model.rope
    h, hd = layer.attn.n_heads, layer.attn.head_dim
    for rows in (1, gamma + 1):
        x = rng.standard_normal((rows, d), dtype=np.float32)
        yield ("matmul", rows, None, lambda x=x: matmul(x, layer.attn.wq),
               2 * rows * d * d, _F32 * (2 * rows * d + d * d))
        yield ("rmsnorm", rows, None, lambda x=x: rmsnorm(x, layer.attn_norm),
               4 * rows * d, _F32 * (2 * rows * d + d))
        yield ("ffn", rows, None,
               lambda x=x: gated_ffn(x, layer.gate, layer.up, layer.down),
               6 * rows * d * f + 4 * rows * f, _F32 * (2 * rows * d + 3 * d * f))
        yield ("lm_head", rows, None, lambda x=x: matmul(x, model.lm_head),
               2 * rows * d * v, _F32 * (rows * d + d * v + rows * v))
        heads = x.reshape(rows, h, hd)
        yield ("rope", rows, None, lambda x=heads: rope.apply_block(x, CONTEXTS[0]),
               3 * rows * d, _F32 * 3 * rows * d)
        for ctx in CONTEXTS:
            cache = _filled_cache(model, rng, ctx)
            span = ctx + rows

            def attend(x=x, cache=cache, ctx=ctx):
                causal_attention(layer.attn, x, cache, ctx, rope)
                cache.truncate(ctx)

            # q/k/v/o projections, the full score rectangle, softmax, context
            flops = 8 * rows * d * d + 4 * rows * span * d + 3 * rows * h * span
            moved = _F32 * (4 * d * d + 2 * rows * d + 2 * span * d + 2 * rows * d)
            yield ("attention", rows, ctx, attend, flops, moved)


def _filled_cache(model, rng, ctx: int) -> LayerKVCache:
    cfg = model.config
    cache = LayerKVCache(cfg.max_seq_len, cfg.n_heads, cfg.head_dim)
    shape = (ctx, cfg.n_heads, cfg.head_dim)
    cache.extend(rng.standard_normal(shape, dtype=np.float32),
                 rng.standard_normal(shape, dtype=np.float32))
    return cache


def _metric_name(kernel: str, rows: int, ctx: int | None) -> str:
    return f"kernels.micro.{kernel}.T{rows}" + (f".ctx{ctx}" if ctx is not None else "")


def microbench(model, gamma: int, budget_s: float, host_factor: float) -> dict[str, float]:
    """Median µs per call of every case, each timed for a share of ``budget_s``."""
    rng = np.random.default_rng(0)
    cases = list(_cases(model, rng, gamma))
    per_case = budget_s / len(cases)
    out: dict[str, float] = {}
    for kernel, rows, ctx, call, flops, moved in cases:
        call()
        batch = 16
        samples = []
        deadline = time.perf_counter() + per_case
        while time.perf_counter() < deadline or len(samples) < 5:
            t0 = time.perf_counter()
            for _ in range(batch):
                call()
            samples.append((time.perf_counter() - t0) / batch)
        name = _metric_name(kernel, rows, ctx)
        out[f"{name}.us"] = statistics.median(samples) * 1e6 * host_factor
        out[f"{name}.flops_computed"] = float(flops)
        out[f"{name}.bytes_computed"] = float(moved)
    return out


def invariance_check(model, gamma: int) -> tuple[int, list[str]]:
    """Compare T-row calls with one-row calls for T in 1..gamma+1.

    Returns the number of rows compared and a description of each mismatch.
    """
    rng = np.random.default_rng(1)
    layer = model.layers[0]
    rope = model.rope
    h, hd = layer.attn.n_heads, layer.attn.head_dim
    d = model.config.d_model
    checked = 0
    mismatches: list[str] = []
    row_kernels = {
        "matmul": lambda x: matmul(x, layer.attn.wq),
        "rmsnorm": lambda x: rmsnorm(x, layer.attn_norm),
        "ffn": lambda x: gated_ffn(x, layer.gate, layer.up, layer.down),
        "lm_head": lambda x: matmul(x, model.lm_head),
    }
    for rows in range(1, gamma + 2):
        x = rng.standard_normal((rows, d), dtype=np.float32)
        for kernel, call in row_kernels.items():
            batched = call(x)
            for t in range(rows):
                checked += 1
                if not np.array_equal(batched[t], call(x[t : t + 1])[0]):
                    mismatches.append(f"{kernel} T={rows} row {t}")
        for ctx in CONTEXTS:
            heads = x.reshape(rows, h, hd)
            batched = rope.apply_block(heads, ctx)
            for t in range(rows):
                checked += 1
                if not np.array_equal(batched[t], rope.apply_block(heads[t : t + 1], ctx + t)[0]):
                    mismatches.append(f"rope T={rows} ctx={ctx} row {t}")
            cache = _filled_cache(model, np.random.default_rng(ctx), ctx)
            batched = causal_attention(layer.attn, x, cache, ctx, rope)
            cache.truncate(ctx)
            for t in range(rows):
                checked += 1
                single = causal_attention(layer.attn, x[t : t + 1], cache, ctx + t, rope)
                if not np.array_equal(batched[t], single[0]):
                    mismatches.append(f"attention T={rows} ctx={ctx} row {t}")
    return checked, mismatches
