import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec.errors import CacheError, CapacityError, ConfigError, ShapeError
from selfspec.kernels import (
    AttentionParams,
    _causal_mask,
    LayerKVCache,
    RopeTable,
    argmax_token,
    causal_attention,
    gated_ffn,
    matmul,
    prompt_attention,
    rmsnorm,
    silu,
    softmax,
)

from oracles import dense_attention

RNG = np.random.default_rng(20240601)


class TestMatmul:
    def test_identity(self):
        m = RNG.standard_normal((3, 5)).astype(np.float32)
        assert np.array_equal(matmul(np.eye(3, dtype=np.float32), m), m)

    def test_zeros(self):
        z = np.zeros((2, 3), dtype=np.float32)
        m = RNG.standard_normal((3, 4)).astype(np.float32)
        assert np.array_equal(matmul(z, m), np.zeros((2, 4), dtype=np.float32))

    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[1.0], [1.0]])
        assert np.array_equal(matmul(a, b), np.array([[3.0], [7.0]]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.zeros((2, 3)), np.zeros((4, 2)))

    def test_batch_rows_bitwise_stable(self):
        # An output row must not depend on how many rows share the call.
        a = RNG.standard_normal((8, 64)).astype(np.float32)
        b = RNG.standard_normal((64, 256)).astype(np.float32)
        full = matmul(a, b)
        for i in range(8):
            assert np.array_equal(full[i], matmul(a[i : i + 1], b)[0])


class TestSoftmax:
    def test_symmetry(self):
        assert np.allclose(softmax(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_constant_rows(self):
        for c in (-3.0, 0.0, 1e4):
            out = softmax(np.full(4, c))
            assert np.allclose(out, 0.25, atol=1e-6)

    def test_overflow_guard(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        expected = np.array([1.0, 0.0])  # exp(-1000) underflows a float64 oracle too
        assert np.allclose(out, expected, atol=1e-12)

    def test_empty(self):
        with pytest.raises(ShapeError):
            softmax(np.array([]))

    @given(st.lists(st.floats(-50, 50), min_size=1, max_size=20), st.floats(-30, 30))
    @settings(max_examples=60, deadline=None)
    def test_sums_to_one_and_shift_invariant(self, values, shift):
        v = np.array(values)
        out = softmax(v)
        assert abs(out.sum() - 1.0) <= 1e-6
        assert np.all(out > 0)
        assert np.allclose(out, softmax(v + shift), atol=1e-6)


class TestArgmax:
    def test_tie_breaks_low(self):
        assert argmax_token(np.array([0.5, 0.5, 0.1])) == 0

    def test_plain(self):
        assert argmax_token(np.array([0.0, 0.0, 9.0])) == 2

    def test_one_hot(self):
        for i in range(5):
            assert argmax_token(np.eye(5)[i]) == i

    def test_empty(self):
        with pytest.raises(ShapeError):
            argmax_token(np.array([]))

    # Dyadic values, shifts and power-of-two scales are exact in floats, so
    # the real-arithmetic invariance holds without rounding-induced ties.
    @given(st.lists(st.integers(-2048, 2048), min_size=1, max_size=12),
           st.integers(-512, 512), st.integers(-3, 3))
    @settings(max_examples=60, deadline=None)
    def test_shift_and_scale_invariant(self, values, shift, scale_exp):
        v = np.array(values, dtype=np.float64) / 32.0
        base = argmax_token(v)
        assert argmax_token(v + shift / 32.0) == base
        assert argmax_token(v * 2.0**scale_exp) == base


class TestRmsnorm:
    def test_constant_vector(self):
        out = rmsnorm(np.full(8, 3.0), np.ones(8), eps=1e-12)
        assert np.allclose(out, 1.0, atol=1e-6)

    def test_zeros(self):
        assert np.allclose(rmsnorm(np.zeros(8), RNG.standard_normal(8)), 0.0)

    def test_formula_oracle(self):
        x = RNG.standard_normal(16)
        scale = RNG.standard_normal(16)
        expected = scale * x / np.sqrt(np.mean(x**2) + 1e-5)
        assert np.allclose(rmsnorm(x, scale), expected, atol=1e-12)

    def test_rows_match_single(self):
        x = RNG.standard_normal((5, 16)).astype(np.float32)
        scale = RNG.standard_normal(16).astype(np.float32)
        rows = rmsnorm(x, scale)
        for i in range(5):
            assert np.array_equal(rows[i], rmsnorm(x[i], scale))

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            rmsnorm(np.zeros(4), np.zeros(5))


class TestRope:
    def test_position_zero_is_identity(self):
        x = RNG.standard_normal((4, 16)).astype(np.float32)
        assert np.allclose(RopeTable(16, 10000.0, 1).apply_block(x[None], 0)[0], x, atol=1e-7)

    def test_norm_preserved(self):
        table = RopeTable(16, 10000.0, 64)
        x = RNG.standard_normal((4, 16)).astype(np.float32)
        for pos in (1, 7, 63):
            out = table.apply_block(x[None], pos)[0]
            pairs_in = x.reshape(4, 8, 2)
            pairs_out = out.reshape(4, 8, 2)
            assert np.allclose(
                np.linalg.norm(pairs_in, axis=-1), np.linalg.norm(pairs_out, axis=-1), atol=1e-6
            )

    def test_closed_form_rotation(self):
        # head_dim 2 at position 1: one pair rotated by exactly 1 radian.
        v = np.array([[1.0, 0.0]], dtype=np.float32)
        out = RopeTable(2, 10000.0, 2).apply_block(v[None], 1)[0]
        assert np.allclose(out, [[np.cos(1.0), np.sin(1.0)]], atol=1e-6)

    def test_inverse_roundtrip(self):
        table = RopeTable(8, 10000.0, 32)
        x = RNG.standard_normal((2, 8)).astype(np.float32)
        roundtrip = table.apply_inverse_block(table.apply_block(x[None], 9), 9)[0]
        assert np.allclose(roundtrip, x, atol=1e-6)

    def test_block_matches_per_position(self):
        table = RopeTable(8, 10000.0, 32)
        x = RNG.standard_normal((5, 3, 8)).astype(np.float32)
        block = table.apply_block(x, 4)
        for t in range(5):
            assert np.array_equal(block[t], table.apply_block(x[t : t + 1], 4 + t)[0])

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError):
            RopeTable(7, 10000.0, 16)

    def test_position_out_of_range(self):
        table = RopeTable(8, 10000.0, 4)
        with pytest.raises(CapacityError):
            table.apply_block(np.zeros((1, 1, 8), dtype=np.float32), 4)


def _random_params(d=32, heads=4, scale=0.3):
    mats = (RNG.standard_normal((d, d)).astype(np.float32) * scale for _ in range(4))
    return AttentionParams(*mats, n_heads=heads, head_dim=d // heads)


class TestCausalAttention:
    def test_zero_projections_give_zeros(self):
        d = 32
        params = AttentionParams(
            *(np.zeros((d, d), dtype=np.float32) for _ in range(4)), n_heads=4, head_dim=8
        )
        table = RopeTable(8, 10000.0, 16)
        cache = LayerKVCache(16, 4, 8)
        out = causal_attention(params, RNG.standard_normal((3, d)).astype(np.float32), cache, 0, table)
        assert np.array_equal(out, np.zeros((3, d), dtype=np.float32))

    def test_single_position_matches_formula(self):
        d, heads, hd = 32, 4, 8
        params = _random_params(d, heads)
        table = RopeTable(hd, 10000.0, 16)
        cache = LayerKVCache(16, heads, hd)
        x = RNG.standard_normal((1, d)).astype(np.float32)
        out = causal_attention(params, x, cache, 0, table)
        # One position attends only to itself: softmax over one score is 1,
        # so the context is exactly its own (un-rotated) value vector.
        expected = (x @ params.wv) @ params.wo
        assert np.allclose(out, expected, atol=1e-5)

    def test_incremental_equals_batch(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 64)
        x = RNG.standard_normal((8, 32)).astype(np.float32)
        c_batch = LayerKVCache(64, 4, 8)
        c_step = LayerKVCache(64, 4, 8)
        batch = causal_attention(params, x, c_batch, 0, table)
        steps = np.concatenate(
            [causal_attention(params, x[i : i + 1], c_step, i, table) for i in range(8)]
        )
        assert np.max(np.abs(batch - steps)) <= 1e-4
        assert np.array_equal(batch, steps)  # bitwise by construction

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    def test_incremental_equals_recompute_up_to_32(self, dtype, tol):
        # Chunked cached decoding vs one full recompute over prefixes <= 32.
        table = RopeTable(8, 10000.0, 64, dtype=dtype)
        mats = (RNG.standard_normal((32, 32)).astype(dtype) * dtype(0.3) for _ in range(4))
        params = AttentionParams(*mats, n_heads=4, head_dim=8)
        for length in (1, 5, 17, 32):
            x = RNG.standard_normal((length, 32)).astype(dtype)
            c_full = LayerKVCache(64, 4, 8, dtype=dtype)
            full = causal_attention(params, x, c_full, 0, table)
            c_inc = LayerKVCache(64, 4, 8, dtype=dtype)
            pieces = []
            pos = 0
            while pos < length:
                step = min(3, length - pos)
                pieces.append(causal_attention(params, x[pos : pos + step], c_inc, pos, table))
                pos += step
            assert np.max(np.abs(full - np.concatenate(pieces))) <= tol

    def test_matches_dense_oracle(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 64)
        x = RNG.standard_normal((6, 32)).astype(np.float32)
        cache = LayerKVCache(64, 4, 8)
        ours = causal_attention(params, x, cache, 0, table)
        oracle = dense_attention(params, x, table)
        assert np.max(np.abs(ours - oracle)) <= 1e-4

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @pytest.mark.parametrize("length", [63, 64, 65, 130])
    def test_window_matches_banded_dense_oracle(self, dtype, tol, length):
        # Row t sees keys t-63..t; past 64 rows the band drops the oldest keys.
        table = RopeTable(8, 10000.0, 192, dtype=dtype)
        mats = (RNG.standard_normal((32, 32)).astype(dtype) * dtype(0.3) for _ in range(4))
        params = AttentionParams(*mats, n_heads=4, head_dim=8)
        x = RNG.standard_normal((length, 32)).astype(dtype)
        ours = causal_attention(params, x, LayerKVCache(192, 4, 8, dtype=dtype), 0, table, window=64)
        assert np.max(np.abs(ours - dense_attention(params, x, table, window=64))) <= tol
        causal = dense_attention(params, x, table)
        assert np.max(np.abs(ours[:64] - causal[:64])) <= tol
        assert (length > 64) == bool(np.max(np.abs(ours - causal)) > 1e-3)

    @pytest.mark.parametrize("window,nan_rows", [(None, 5), (64, 3)])
    def test_nan_key_score_makes_its_row_nan(self, window, nan_rows):
        # Key 3 of head 0 is NaN.  The rows at 64.. that see it come out
        # all-NaN (the row max skips NaN, exp and the weight sum do not);
        # under a 64-key window the rows from 67 no longer see it and stay
        # finite, though it lies in their span, masked.
        params = _random_params()
        table = RopeTable(8, 10000.0, 128)
        cache = LayerKVCache(128, 4, 8)
        keys, values = (RNG.standard_normal((64, 4, 8)).astype(np.float32) for _ in range(2))
        keys[3, 0, 0] = np.nan
        cache.extend(keys, values)
        out = causal_attention(params, RNG.standard_normal((5, 32)).astype(np.float32),
                               cache, 64, table, window)
        assert np.isnan(out[:nan_rows]).all()
        assert np.isfinite(out[nan_rows:]).all()

    def test_cache_length_mismatch(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 16)
        cache = LayerKVCache(16, 4, 8)
        with pytest.raises(CacheError):
            causal_attention(params, np.zeros((1, 32), dtype=np.float32), cache, 3, table)

    def test_capacity_exhaustion(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 4)
        cache = LayerKVCache(2, 4, 8)
        with pytest.raises(CapacityError):
            causal_attention(params, np.zeros((3, 32), dtype=np.float32), cache, 0, table)


class TestPromptAttention:
    """The prompt kernel: GEMMs, equal to causal attention within rounding."""

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-4), (np.float64, 1e-10)])
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 100])
    def test_matches_causal_attention_and_dense_oracle(self, dtype, tol, length):
        table = RopeTable(8, 10000.0, 128, dtype=dtype)
        mats = (RNG.standard_normal((32, 32)).astype(dtype) * dtype(0.3) for _ in range(4))
        params = AttentionParams(*mats, n_heads=4, head_dim=8)
        x = RNG.standard_normal((length, 32)).astype(dtype)
        c_prompt = LayerKVCache(128, 4, 8, dtype=dtype)
        c_step = LayerKVCache(128, 4, 8, dtype=dtype)
        ours = prompt_attention(params, x, c_prompt, table)
        stable = causal_attention(params, x, c_step, 0, table)
        assert ours.dtype == dtype and c_prompt.length == length
        assert np.max(np.abs(ours - stable)) <= tol
        assert np.max(np.abs(ours - dense_attention(params, x, table))) <= tol
        for rows in (c_prompt.keys[:, :, :length] - c_step.keys[:, :, :length],
                     c_prompt.values[:, :length] - c_step.values[:, :length]):
            assert np.max(np.abs(rows)) <= tol

    @pytest.mark.parametrize("dtype,tol", [(np.float32, 1e-5), (np.float64, 1e-13)])
    @pytest.mark.parametrize("length", [1, 2, 32, 33, 65])
    def test_last_row_query(self, dtype, tol, length):
        # The last row alone, as a GEMV where the full call runs a GEMM row:
        # equal within rounding, and every row's K/V cached bit for bit.
        table = RopeTable(8, 10000.0, 128, dtype=dtype)
        mats = (RNG.standard_normal((32, 32)).astype(dtype) * dtype(0.3) for _ in range(4))
        params = AttentionParams(*mats, n_heads=4, head_dim=8)
        x = RNG.standard_normal((length, 32)).astype(dtype)
        caches = [LayerKVCache(128, 4, 8, dtype=dtype) for _ in range(2)]
        full = prompt_attention(params, x, caches[0], table)
        last = prompt_attention(params, x, caches[1], table, last_row=True)
        assert last.shape == (1, 32) and caches[1].length == length
        assert np.max(np.abs(last[0] - full[-1])) <= tol
        for name in ("keys", "values"):
            assert np.array_equal(getattr(caches[0], name), getattr(caches[1], name))

    def test_nan_key_score_makes_its_row_nan(self):
        # Row 5 of the prompt is NaN, so are its key and the scores of the
        # rows 5.. that see it: they come out all-NaN.  (Its NaN value row
        # reaches the earlier rows too, through zero weights, so they are
        # not checked.)
        params = _random_params()
        x = RNG.standard_normal((40, 32)).astype(np.float32)
        x[5] = np.nan
        with np.errstate(invalid="ignore"):
            out = prompt_attention(params, x, LayerKVCache(64, 4, 8), RopeTable(8, 10000.0, 64))
        assert np.isnan(out[5:]).all()

    def test_needs_an_empty_cache(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 16)
        cache = LayerKVCache(16, 4, 8)
        prompt_attention(params, np.ones((2, 32), dtype=np.float32), cache, table)
        with pytest.raises(CacheError):
            prompt_attention(params, np.ones((1, 32), dtype=np.float32), cache, table)


class TestCacheAndFfn:
    def test_skip_to_moves_the_length_forward_past_zero_rows(self):
        cache = LayerKVCache(200, 2, 4)
        cache.skip_to(130)  # from an empty cache
        assert cache.length == 130 and cache.values.shape[1] >= 130
        assert not cache.keys.any() and not cache.values.any()
        row = np.ones((1, 2, 4), dtype=np.float32)
        cache.extend(row, row)
        assert cache.length == 131 and cache.keys[:, :, 130].all()
        cache.skip_to(131)  # to its own length: nothing moves
        cache.skip_to(150)  # from a filled one
        cache.extend(row, row)
        assert cache.length == 151 and cache.values[:, 150].all()
        filled = (cache.keys.any(axis=(0, 1)), cache.values.any(axis=(0, 2)))
        for rows in filled:
            assert rows.nonzero()[0].tolist() == [130, 150]
        for bad in (150, 201):  # backward, past capacity
            with pytest.raises(CacheError):
                cache.skip_to(bad)
            assert cache.length == 151
        with pytest.raises(CacheError):
            LayerKVCache(8, 2, 4).skip_to(9)

    def test_truncate_bounds(self):
        cache = LayerKVCache(8, 2, 4)
        cache.extend(np.zeros((3, 2, 4), dtype=np.float32), np.zeros((3, 2, 4), dtype=np.float32))
        cache.truncate(1)
        assert cache.length == 1
        with pytest.raises(CacheError):
            cache.truncate(2)

    def test_silu_known_values(self):
        x = np.array([0.0, 100.0, -100.0, 1.0], dtype=np.float64)
        out = silu(x)
        assert out[0] == 0.0
        assert np.isclose(out[1], 100.0)
        assert np.isclose(out[2], 0.0, atol=1e-12)
        assert np.isclose(out[3], 1.0 / (1.0 + np.exp(-1.0)))

    def test_gated_ffn_matches_oracle(self):
        d, h = 16, 24
        x = RNG.standard_normal((3, d)).astype(np.float64)
        gate = RNG.standard_normal((d, h))
        up = RNG.standard_normal((d, h))
        down = RNG.standard_normal((h, d))
        g = x @ gate
        expected = ((g / (1 + np.exp(-g))) * (x @ up)) @ down
        assert np.allclose(gated_ffn(x, gate, up, down), expected, atol=1e-10)


class TestCacheGrowth:
    """The buffers never grow: they are allocated once, at the padded capacity."""

    @staticmethod
    def _rows(n, seed=0, heads=2, hd=4):
        rng = np.random.default_rng(seed)
        return (rng.standard_normal((n, heads, hd)).astype(np.float32),
                rng.standard_normal((n, heads, hd)).astype(np.float32))

    def test_fresh_cache_holds_no_rows(self):
        for capacity, rows in ((1, 64), (64, 64), (65, 128), (300, 320)):
            cache = LayerKVCache(capacity, 2, 4)
            assert cache.length == 0
            assert cache.keys.shape == (2, 4, rows) and cache.values.shape == (2, rows, 4)
            assert not cache.keys.any() and not cache.values.any()

    def test_buffers_allocated_once_at_padded_capacity(self):
        cache = LayerKVCache(300, 2, 4)  # padded to 320 rows, five chunks
        keys, values = cache.keys, cache.values
        for n in (1, 199, 100):
            cache.extend(*self._rows(n))
        cache.truncate(7)
        cache.extend(*self._rows(293))
        assert cache.length == 300
        assert cache.keys is keys and cache.values is values
        assert keys.shape[2] == values.shape[1] == 320

    def test_stacked_caches_are_views_of_one_buffer(self):
        caches = LayerKVCache.stack(3, 300, 2, 4)
        keys, values = caches[0].keys.base, caches[0].values.base
        assert keys.shape == (3, 2, 4, 320) and values.shape == (3, 2, 320, 4)
        assert not keys.any() and not values.any()
        for i, cache in enumerate(caches):
            assert cache.capacity == 300 and cache.length == 0
            assert cache.keys.flags["C_CONTIGUOUS"] and cache.values.flags["C_CONTIGUOUS"]
            # ``extend`` writes through (rows, heads, head_dim) views of the same memory
            assert cache._key_rows.shape == cache._value_rows.shape == (320, 2, 4)
            for j in range(3):
                for view in (cache.keys, cache._key_rows):
                    assert np.shares_memory(view, keys[j]) == (i == j)
                for view in (cache.values, cache._value_rows):
                    assert np.shares_memory(view, values[j]) == (i == j)
        standalone = LayerKVCache(300, 2, 4)
        for cache in (caches[1], standalone):
            cache.extend(*self._rows(70))
            cache.truncate(20)
        assert caches[1].keys.tobytes() == standalone.keys.tobytes()
        assert caches[1].values.tobytes() == standalone.values.tobytes()
        assert not np.delete(keys, 1, axis=0).any() and not np.delete(values, 1, axis=0).any()
        assert keys[1, :, :, :70].all() and not values[1, :, 20:].any()

    def test_filled_rows_survive_growth(self):
        cache = LayerKVCache(512, 2, 4)
        k, v = self._rows(300, seed=1)
        for a, b in ((0, 5), (5, 64), (64, 65), (65, 200), (200, 300)):
            cache.extend(k[a:b], v[a:b])
            assert np.array_equal(cache.keys[:, :, :b], k[:b].transpose(1, 2, 0))
            assert np.array_equal(cache.values[:, :b], v[:b].transpose(1, 0, 2))

    def test_value_rows_past_length_are_zero(self):
        cache = LayerKVCache(512, 2, 4)
        cache.extend(*self._rows(50, seed=2))
        cache.truncate(10)
        assert not cache.values[:, 10:].any()
        cache.extend(*self._rows(60, seed=3))  # 70 rows, into the second chunk
        assert not cache.values[:, 70:].any()
        cache.truncate(33)
        assert not cache.values[:, 33:].any()

    def test_capacity_error_unchanged(self):
        cache = LayerKVCache(100, 2, 4)
        with pytest.raises(CapacityError, match="KV cache full at 100 positions"):
            cache.extend(*self._rows(101))
        cache.extend(*self._rows(100))
        assert cache.values.shape[1] == 128
        with pytest.raises(CapacityError, match="KV cache full at 100 positions"):
            cache.extend(*self._rows(1))
        assert cache.length == 100


class TestWeightPlanes:
    """wq, wk and wv are views of the stacked projection weights ``wqkv``."""

    @staticmethod
    def _assert_planes(p):
        assert p.wqkv.shape == (3, *p.wq.shape)
        for i, w in enumerate((p.wq, p.wk, p.wv)):
            assert np.shares_memory(w, p.wqkv)
            assert w.flags["C_CONTIGUOUS"]
            assert np.array_equal(w, p.wqkv[i])

    def test_planes_after_construction_astype_and_round_trip(self, tmp_path):
        from selfspec import desk_config, gen_model, init_adapter
        from selfspec.serialize import load_adapter, load_weights, save_adapter, save_weights

        self._assert_planes(_random_params())
        model = gen_model(desk_config(n_layers=3, max_seq_len=64), seed=5)
        adapter = init_adapter(model, seed=6)
        save_weights(model, tmp_path / "m.kngr")
        save_adapter(adapter, tmp_path / "a.knga")
        _, loaded = load_weights(tmp_path / "m.kngr")
        for weights in (model, model.astype(np.float64), loaded):
            for layer in weights.layers:
                self._assert_planes(layer.attn)
        for a in (adapter, adapter.astype(np.float64), adapter.copy(),
                  load_adapter(tmp_path / "a.knga")):
            self._assert_planes(a.attn)

    def test_in_place_edit_reaches_attention(self):
        params = _random_params()
        table = RopeTable(8, 10000.0, 16)
        x = RNG.standard_normal((3, 32)).astype(np.float32)
        before = causal_attention(params, x, LayerKVCache(16, 4, 8), 0, table)
        params.wq[:] = 0
        after = causal_attention(params, x, LayerKVCache(16, 4, 8), 0, table)
        assert not np.array_equal(before, after)
        # zero queries score every key equally: a plain mean of the values
        v = x @ params.wv
        mean = (np.cumsum(v, axis=0) / np.arange(1, 4)[:, None]) @ params.wo
        assert np.allclose(after, mean, atol=1e-5)

    def test_mask_view_is_read_only(self):
        mask = _causal_mask(128)
        assert not mask.flags.writeable
        assert np.array_equal(mask, np.triu(np.ones((128, 128), dtype=bool), k=1))
        with pytest.raises(ValueError):
            mask[0, 0] = True
        band, i = _causal_mask(128, 64), np.arange(128)
        assert not band.flags.writeable
        assert np.array_equal(band, (i > i[:, None]) | (i <= i[:, None] - 64))


class TestBatchInvariance:
    """Row t of a T-row call equals a one-row call on row t, bit for bit.

    Greedy losslessness rests on this, so it is checked per kernel: a numpy
    or BLAS change that breaks it fails here, not as a rare divergence in
    the decoding suites.  Shapes are the desk model's.
    """

    D, HEADS, HEAD_DIM, FFN, VOCAB = 64, 4, 16, 172, 256
    ROWS = range(1, 8)
    # long stacks too, in case a call changes its per-row code with the stack length
    LONG_ROWS = (33, 420)
    # 125 and 318: the rows of one call reach into different numbers of 64-key chunks;
    # from 505 a 7-row call fills the 512-row buffer
    STARTS = (0, 7, 63, 64, 125, 300, 318, 505)

    @staticmethod
    def _assert_rows_match(batched, single_row):
        for t in range(batched.shape[0]):
            assert np.array_equal(batched[t], single_row(t)), f"row {t} of {batched.shape[0]}"

    def _attention_setup(self, dtype):
        rng = np.random.default_rng(7)
        mats = (rng.standard_normal((self.D, self.D)).astype(dtype) * dtype(0.3) for _ in range(4))
        params = AttentionParams(*mats, n_heads=self.HEADS, head_dim=self.HEAD_DIM)
        return rng, params, RopeTable(self.HEAD_DIM, 10000.0, 512, dtype=dtype)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(D, D), (D, FFN), (FFN, D), (D, VOCAB)])
    def test_matmul(self, dtype, shape):
        rng = np.random.default_rng(1)
        b = rng.standard_normal(shape).astype(dtype)
        for rows in (*self.ROWS, *self.LONG_ROWS):
            a = rng.standard_normal((rows, shape[0])).astype(dtype)
            self._assert_rows_match(matmul(a, b), lambda t: matmul(a[t : t + 1], b)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(D, D), (D, FFN), (FFN, D), (D, VOCAB)])
    def test_matmul_one_row_views(self, dtype, shape):
        # One-row operands that are views into a larger array, as draft_logits
        # passes ``refined[-1:]``; column-offset views start off the allocation's
        # alignment.
        rng = np.random.default_rng(4)
        b = rng.standard_normal(shape).astype(dtype)
        wide = rng.standard_normal((50, shape[0] + 3)).astype(dtype)
        a = wide[:, 3:]
        batched = matmul(a, b)
        for view, row in ((a[-1:], 49), (a[17:18], 17), (a[::-7][2:3], 35)):
            assert np.array_equal(matmul(view, b)[0], batched[row])
            assert np.array_equal(matmul(np.array(view), b)[0], batched[row])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gated_ffn(self, dtype):
        rng = np.random.default_rng(2)
        gate, up = (rng.standard_normal((self.D, self.FFN)).astype(dtype) for _ in range(2))
        down = rng.standard_normal((self.FFN, self.D)).astype(dtype)
        for rows in self.ROWS:
            x = rng.standard_normal((rows, self.D)).astype(dtype)
            self._assert_rows_match(
                gated_ffn(x, gate, up, down), lambda t: gated_ffn(x[t : t + 1], gate, up, down)[0]
            )

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rmsnorm(self, dtype):
        rng = np.random.default_rng(3)
        scale = rng.standard_normal(self.D).astype(dtype)
        for rows in (*self.ROWS, *self.LONG_ROWS):
            x = rng.standard_normal((rows, self.D)).astype(dtype)
            self._assert_rows_match(rmsnorm(x, scale), lambda t: rmsnorm(x[t : t + 1], scale)[0])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_rmsnorm_one_row_views(self, dtype):
        rng = np.random.default_rng(5)
        scale = rng.standard_normal(self.D).astype(dtype)
        wide = rng.standard_normal((50, self.D + 3)).astype(dtype)
        x = wide[:, 3:]
        batched = rmsnorm(x, scale)
        for t in (0, 17, 49):
            assert np.array_equal(rmsnorm(x[t : t + 1], scale)[0], batched[t])
            assert np.array_equal(rmsnorm(np.array(x[t : t + 1]), scale)[0], batched[t])
        assert np.array_equal(rmsnorm(x[-1:], scale)[0], batched[-1])

    def _filled_cache(self, rng, dtype):
        cache = LayerKVCache(512, self.HEADS, self.HEAD_DIM, dtype=dtype)
        prefix = (512, self.HEADS, self.HEAD_DIM)
        cache.extend(rng.standard_normal(prefix).astype(dtype), rng.standard_normal(prefix).astype(dtype))
        return cache

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_whole_span_gemvs(self, dtype):
        # The BLAS facts attention rests on, with its calls on the cache's own
        # strided spans: a block of query rows against n*64 key columns
        # (n = 1..8) gives each key the score that a 64-key call gives it,
        # whatever the row count and wherever the span starts, and trailing
        # chunks of zero weights leave a value GEMV unchanged.
        rng = np.random.default_rng(6)
        cache = self._filled_cache(rng, dtype)
        for rows in (1, 2, 7, 32):
            q = rng.standard_normal((rows, self.HEADS, self.HEAD_DIM)).astype(dtype)
            for k0 in (0, 64, 256):
                chunks = [np.vecmat(q, cache.keys[:, :, c : c + 64]) for c in range(k0, 512, 64)]
                for k1 in range(k0 + 64, 513, 64):
                    scores = np.vecmat(q, cache.keys[:, :, k0:k1])
                    assert scores.shape == (rows, self.HEADS, k1 - k0)
                    assert np.array_equal(scores, np.concatenate(chunks[: (k1 - k0) // 64], axis=2))
        weights = rng.random((self.HEADS, 512)).astype(dtype)
        for span in range(64, 513, 64):
            padded = np.zeros_like(weights)
            padded[..., :span] = weights[..., :span]
            own = np.vecmat(weights[..., :span], cache.values[:, :span])
            for wider in range(span, 513, 64):
                assert np.array_equal(np.vecmat(padded[..., :wider], cache.values[:, :wider]), own)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gufuncs_match_per_row_matmul(self, dtype):
        # The kernels call vecmat and vecdot for the per-row GEMVs and dots
        # that ``np.matmul`` over a size-1 row axis issues; both must give the
        # same bits, so a numpy that reroutes the gufuncs fails here rather
        # than as a parity break.  Operands: one and T rows, contiguous and
        # column-offset views, the desk shapes and the cache's spans.
        rng = np.random.default_rng(8)
        D = self.D

        def operands(rows, width):
            wide = rng.standard_normal((rows, width + 3)).astype(dtype)
            return np.ascontiguousarray(wide[:, 3:]), wide[:, 3:]

        cache = self._filled_cache(rng, dtype)
        ones = np.ones(512, dtype=dtype)
        wqkv = rng.standard_normal((3, D, D)).astype(dtype)
        for rows in (1, 2, 7, 32):
            for k, n in ((D, D), (D, self.FFN), (self.FFN, D), (D, self.VOCAB)):
                b = rng.standard_normal((k, n)).astype(dtype)
                for a in operands(rows, k):
                    gemv = np.vecmat(a, b)
                    assert np.array_equal(gemv, np.matmul(a[:, None, :], b)[:, 0])
                    if rows == 1:
                        assert np.array_equal(gemv, np.matmul(a, b))
                    dots = np.matmul(a[:, None, :], a[:, :, None])[:, 0, 0]
                    assert np.array_equal(np.vecdot(a, a), dots)
            for x in operands(rows, D):  # the q/k/v planes
                planes = np.matmul(x[:, None, None, :], wqkv)[:, :, 0]
                assert np.array_equal(np.vecmat(x[:, None, :], wqkv), planes)
            q = rng.standard_normal((rows, self.HEADS, self.HEAD_DIM)).astype(dtype)
            for k0, k1 in ((0, 64), (64, 320), (0, 512)):
                keys, values = cache.keys[:, :, k0:k1], cache.values[:, k0:k1]
                scores = np.matmul(q[:, :, None, :], keys)[:, :, 0]
                assert np.array_equal(np.vecmat(q, keys), scores)
                w = rng.random((rows, self.HEADS, k1 - k0)).astype(dtype)
                sums = np.matmul(w[:, :, None, :], ones[: k1 - k0])[:, :, 0]
                assert np.array_equal(np.vecdot(w, ones[: k1 - k0]), sums)
                context = np.matmul(w[:, :, None, :], values)[:, :, 0]
                assert np.array_equal(np.vecmat(w, values), context)

    @staticmethod
    def _padded_sum_mismatches(dtype, weight_sum):
        # Attention sums a row's weights over a span of n*64 keys (n = 1..8)
        # that may hold exact-zero chunks before the row's own chunks (a
        # window's older keys) and after them (a batched call's later rows'
        # keys).  Each (own, padded) pair of spans whose sums differ is a
        # mismatch.
        rng = np.random.default_rng(9)
        weights = rng.random((7, 4, 512)).astype(dtype)
        chunks = range(0, 513, 64)
        mismatches = []
        for lo, hi in ((lo, hi) for lo in chunks for hi in chunks if lo < hi):
            own = weight_sum(weights[..., lo:hi])
            for k0, k1 in ((k0, k1) for k0 in chunks if k0 <= lo for k1 in chunks if k1 >= hi):
                padded = np.zeros((*weights.shape[:-1], k1 - k0), dtype=dtype)
                padded[..., lo - k0 : hi - k0] = weights[..., lo:hi]
                if not np.array_equal(weight_sum(padded), own):
                    mismatches.append((lo, hi, k0, k1))
        return mismatches

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_sum_ignores_zero_chunks(self, dtype):
        # The weight sum is one BLAS dot per (row, head) with a ones vector,
        # as in causal_attention; zero chunks on either side change no bit.
        ones = np.ones(512, dtype=dtype)
        assert self._padded_sum_mismatches(dtype, lambda w: np.vecdot(w, ones[: w.shape[-1]])) == []

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_weight_sum_check_catches_a_pairwise_sum(self, dtype):
        # numpy's pairwise summation groups terms by the length summed, so one
        # sum over the whole span is not invariant, and the check above sees it.
        assert self._padded_sum_mismatches(dtype, lambda w: np.add.reduce(w, axis=-1))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [None, 64])
    @pytest.mark.parametrize("rows", [2, 7, 32])
    @pytest.mark.parametrize("to_the_end", [False, True])
    def test_causal_attention_across_chunks_and_to_the_end(self, dtype, window, rows, to_the_end):
        # From 60 the call crosses the first 64-key chunk; from 512 - rows its
        # last row is the last position of the 512-row buffer.
        self._check_after_prefix(dtype, 512 - rows if to_the_end else 60, (rows,), window)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", STARTS)
    def test_causal_attention_after_cached_prefix(self, dtype, start):
        self._check_after_prefix(dtype, start, self.ROWS)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", [100, 318])
    def test_causal_attention_across_key_chunks(self, dtype, start):
        # 33 and 45 rows span several key chunks in one masked pass, and
        # more query rows than a one-round call holds
        self._check_after_prefix(dtype, start, (33, 45))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", [60, 125, 318])
    def test_windowed_attention_after_cached_prefix(self, dtype, start):
        # A row sees the last 64 positions.  From 125 and 318 the windows of
        # one call's rows begin in different 64-key chunks, so a row's span
        # in the batched call holds leading chunks that it does not see: one
        # at 7 rows, two for the last rows of 70.
        self._check_after_prefix(dtype, start, (2, 7, 70), window=64)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("window", [None, 64])
    @pytest.mark.parametrize("start,rows", [(0, 1), (0, 70), (60, 7), (125, 7), (318, 40)])
    def test_last_row_query_equals_full_call(self, dtype, window, start, rows):
        rng, params, table = self._attention_setup(dtype)
        x = rng.standard_normal((rows, self.D)).astype(dtype)
        outputs, caches = [], []
        for last_row in (False, True):
            cache = LayerKVCache(512, self.HEADS, self.HEAD_DIM, dtype=dtype)
            prefix = np.random.default_rng(start).standard_normal((start, self.HEADS, self.HEAD_DIM))
            cache.extend(prefix.astype(dtype), prefix[::-1].astype(dtype))
            outputs.append(causal_attention(params, x, cache, start, table, window, last_row))
            caches.append(cache)
        full, last = outputs
        assert last.shape == (1, self.D)
        assert np.array_equal(last[0], full[-1])
        for name in ("keys", "values"):  # every row's K/V is appended either way
            assert np.array_equal(getattr(caches[0], name), getattr(caches[1], name))

    def _check_after_prefix(self, dtype, start, row_counts, window=None):
        rng, params, table = self._attention_setup(dtype)
        cache = LayerKVCache(512, self.HEADS, self.HEAD_DIM, dtype=dtype)
        prefix = (start, self.HEADS, self.HEAD_DIM)
        cache.extend(rng.standard_normal(prefix).astype(dtype), rng.standard_normal(prefix).astype(dtype))
        for rows in row_counts:
            x = rng.standard_normal((rows, self.D)).astype(dtype)
            batched = causal_attention(params, x, cache, start, table, window)
            cache.truncate(start)
            singles = [causal_attention(params, x[t : t + 1], cache, start + t, table, window)[0]
                       for t in range(rows)]
            cache.truncate(start)
            self._assert_rows_match(batched, lambda t: singles[t])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_causal_attention_growing_in_the_call(self, dtype):
        # From 60 cached rows the 7-row call crosses the first 64-key chunk:
        # its last rows span two chunks, the first ones one.
        rng, params, table = self._attention_setup(dtype)
        prefix = rng.standard_normal((60, self.D)).astype(dtype)
        x = rng.standard_normal((7, self.D)).astype(dtype)
        caches = [LayerKVCache(512, self.HEADS, self.HEAD_DIM, dtype=dtype) for _ in range(2)]
        for cache in caches:
            causal_attention(params, prefix, cache, 0, table)
        batched = causal_attention(params, x, caches[0], 60, table)
        singles = [causal_attention(params, x[t : t + 1], caches[1], 60 + t, table)[0]
                   for t in range(7)]
        self._assert_rows_match(batched, lambda t: singles[t])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("start", [0, 21])
    def test_causal_attention_long_prefill_matches_incremental(self, dtype, start):
        # 420 rows cross several 64-key chunks in one masked pass; from 21
        # the call does not start at a chunk boundary.
        rng, params, table = self._attention_setup(dtype)
        prefix = rng.standard_normal((start, self.D)).astype(dtype)
        x = rng.standard_normal((420, self.D)).astype(dtype)
        caches = [LayerKVCache(512, self.HEADS, self.HEAD_DIM, dtype=dtype) for _ in range(2)]
        for cache in caches:
            causal_attention(params, prefix, cache, 0, table)
        batched = causal_attention(params, x, caches[0], start, table)
        singles = [causal_attention(params, x[t : t + 1], caches[1], start + t, table)[0]
                   for t in range(420)]
        self._assert_rows_match(batched, lambda t: singles[t])

    def test_head_major_views_follow_growth_and_truncate(self):
        # Read back as rows, the head-major buffers hold the rows appended
        # so far, and zero values past the length.
        rng = np.random.default_rng(8)
        cache = LayerKVCache(300, self.HEADS, self.HEAD_DIM)
        written = np.zeros((2, 300, self.HEADS, self.HEAD_DIM), dtype=np.float32)
        for op, n in (("extend", 5), ("extend", 70), ("truncate", 40), ("extend", 100),
                      ("truncate", 0), ("extend", 300)):
            if op == "extend":
                written[:, cache.length : n] = rng.standard_normal(written[:, cache.length : n].shape)
                cache.extend(*written[:, cache.length : n])
            else:
                cache.truncate(n)
            keys, values = cache.keys.transpose(2, 0, 1), cache.values.transpose(1, 0, 2)
            assert np.array_equal(keys[:n], written[0, :n])
            assert np.array_equal(values[:n], written[1, :n])
            assert not values[n:].any()
