import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    AdapterVariant,
    KVCacheSet,
    adapter_forward,
    count_params,
    draft_logits,
    init_adapter,
    vanilla_greedy_decode,
)
from selfspec.adapter import WINDOW
from selfspec.errors import CacheError, ConfigError
from selfspec.kernels import LayerKVCache, softmax
from selfspec.model import FeatureBlock, forward_shallow

from oracles import rms

RNG = np.random.default_rng(77)

# 7B-scale dimensions used throughout the parameter-count ablation.
FULL_SCALE = dict(d_model=4096, vocab=32000, ffn_hidden=11008)


def adapter_cache(model) -> LayerKVCache:
    """An empty adapter cache for the whole context of ``model``."""
    cfg = model.config
    return LayerKVCache(cfg.max_seq_len, cfg.n_heads, cfg.head_dim, model.dtype)


class TestAdapterForward:
    def test_passthrough_equals_final_norm(self, planted):
        model, adapter = planted
        caches = KVCacheSet(model.config)
        features = forward_shallow(model, [5, 1, 2], caches)
        refined = adapter_forward(adapter, features, adapter_cache(model), model.rope)
        assert np.allclose(refined, rms(features.values, model.final_norm), atol=1e-6)

    def test_passthrough_draft_logits_match_target(self, planted):
        # With identity layers and a passthrough adapter the draft path and
        # the target path run the same norm + head on the same features.
        model, adapter = planted
        caches = KVCacheSet(model.config)
        features = forward_shallow(model, [5], caches)
        _, _, token = draft_logits(model, adapter, features, adapter_cache(model))
        assert token == vanilla_greedy_decode(model, [5], 1)[0]

    def test_incremental_equals_batch(self, small_model, small_adapter):
        # 96 rows: from row 64 on, each row's window leaves out the oldest keys
        features = forward_shallow(small_model, [3, 9, 2, 8, 1, 4, 4, 0] * 12,
                                   KVCacheSet(small_model.config))
        batch = adapter_forward(small_adapter, features, adapter_cache(small_model),
                                small_model.rope)
        rows, cache = [], adapter_cache(small_model)
        for i in range(96):
            block = FeatureBlock(start=i, values=features.values[i : i + 1])
            rows.append(adapter_forward(small_adapter, block, cache, small_model.rope))
        steps = np.concatenate(rows)
        assert np.max(np.abs(batch - steps)) <= 1e-4
        assert np.array_equal(batch, steps)

    def test_rows_older_than_the_window_are_not_read(self, small_model, small_adapter):
        # The probe at position 95 sees positions 32..95: a change to the
        # feature at 31 leaves its logits alone, a change at 32 does not.
        features = forward_shallow(small_model, [3, 9, 2, 8, 1, 4, 4, 0] * 12,
                                   KVCacheSet(small_model.config)).values

        def probe(values):
            cache = adapter_cache(small_model)
            older = FeatureBlock(start=0, values=values[:-1])
            adapter_forward(small_adapter, older, cache, small_model.rope)
            newest = FeatureBlock(start=95, values=values[-1:])
            return draft_logits(small_model, small_adapter, newest, cache)[0]

        base = probe(features)
        for position, read in ((95 - WINDOW, False), (95 - WINDOW + 1, True)):
            perturbed = features.copy()
            perturbed[position] += np.float32(1.0)
            assert np.array_equal(probe(perturbed), base) != read

    def test_single_feature_single_row(self, small_model, small_adapter):
        caches = KVCacheSet(small_model.config)
        features = forward_shallow(small_model, [3], caches)
        out = adapter_forward(small_adapter, features, adapter_cache(small_model), small_model.rope)
        assert out.shape == (1, small_model.config.d_model)

    def test_cache_mismatch(self, small_model, small_adapter):
        caches = KVCacheSet(small_model.config)
        features = forward_shallow(small_model, [3, 4], caches)
        stale = FeatureBlock(start=5, values=features.values)
        with pytest.raises(CacheError):
            adapter_forward(small_adapter, stale, adapter_cache(small_model), small_model.rope)


class TestDraftLogits:
    def test_confidence_in_unit_interval(self, small_model, small_adapter):
        caches = KVCacheSet(small_model.config)
        features = forward_shallow(small_model, [8], caches)
        _, confidence, token = draft_logits(small_model, small_adapter, features,
                                            adapter_cache(small_model))
        assert 0.0 < confidence <= 1.0
        assert 0 <= token < small_model.config.vocab_size

    def test_uniform_logits(self, small_model, small_adapter):
        zero_head = small_model
        saved = zero_head.lm_head.copy()
        zero_head.lm_head[:] = 0.0  # all logits 0 -> uniform distribution
        try:
            caches = KVCacheSet(zero_head.config)
            features = forward_shallow(zero_head, [8], caches)
            _, confidence, token = draft_logits(zero_head, small_adapter, features,
                                                adapter_cache(zero_head))
            assert confidence == pytest.approx(1.0 / zero_head.config.vocab_size)
            assert token == 0  # tie-break to the lowest index
        finally:
            zero_head.lm_head[:] = saved


class TestDraftConfidence:
    """The probe's confidence is ``max(softmax(logits))``, bit for bit."""

    @staticmethod
    def _probes(model, adapter, edit_head):
        model = model.astype(model.dtype)  # a private copy whose head may change
        edit_head(model.lm_head)
        caches, cache = KVCacheSet(model.config), adapter_cache(model)
        for token in (8, 3, 5, 1):
            features = forward_shallow(model, [token], caches)
            yield draft_logits(model, adapter, features, cache)

    def _assert_matches_softmax(self, model, adapter, edit_head):
        for logits, confidence, _ in self._probes(model, adapter, edit_head):
            assert confidence == float(np.max(softmax(logits)))

    def test_random_logits(self, small_model, small_adapter):
        self._assert_matches_softmax(small_model, small_adapter, lambda head: None)

    def test_tied_logits(self, small_model, small_adapter):
        def all_equal(head):
            head[:] = 0.5
        self._assert_matches_softmax(small_model, small_adapter, all_equal)

        def duplicate_columns(head):
            head[:, 1::2] = head[:, 0::2]
        for logits, confidence, token in self._probes(small_model, small_adapter, duplicate_columns):
            assert np.sum(logits == logits[token]) >= 2
            assert confidence == float(np.max(softmax(logits)))

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_logits_of_magnitude_1e4(self, small_model, small_adapter, sign):
        def widen(head):
            head *= np.float32(sign * 1e4 / 3.0)
        for logits, confidence, _ in self._probes(small_model, small_adapter, widen):
            assert np.max(np.abs(logits)) > 1e3
            assert confidence == float(np.max(softmax(logits)))

    def test_nan_logits_give_nan(self, small_model, small_adapter):
        def poison(head):
            head[:, 5] = np.nan
        for logits, confidence, _ in self._probes(small_model, small_adapter, poison):
            assert np.isnan(logits[5])
            assert np.isnan(confidence)


class TestInitAdapter:
    def test_deterministic(self, small_model):
        a = init_adapter(small_model, seed=1)
        b = init_adapter(small_model, seed=1)
        assert np.array_equal(a.attn.wq, b.attn.wq)

    def test_norms_copied_from_final_norm(self, small_model):
        adapter = init_adapter(small_model, seed=1)
        assert np.array_equal(adapter.output_norm, small_model.final_norm)
        assert np.array_equal(adapter.input_norm, small_model.final_norm)

    def test_param_count_identity(self, small_model):
        adapter = init_adapter(small_model, seed=1)
        d = small_model.config.d_model
        assert adapter.param_count == 4 * d * d + 2 * d

    def test_passthrough_zeroes_attention(self, planted):
        _, adapter = planted
        assert not adapter.attn.wq.any()
        assert not adapter.attn.wo.any()


class TestCountParams:
    def test_attention_only_exact(self):
        assert count_params(variant=AdapterVariant.ATTENTION_ONLY, **FULL_SCALE) == 67_117_056

    def test_attention_plus_head_exact(self):
        assert count_params(variant=AdapterVariant.ATTENTION_PLUS_HEAD, **FULL_SCALE) == 198_189_056

    def test_parallel_heads_exact(self):
        assert (
            count_params(variant=AdapterVariant.PARALLEL_HEADS, parallel_heads=4, **FULL_SCALE)
            == 591_396_864
        )

    def test_one_layer_transformer_rounds_to_202m(self):
        count = count_params(variant=AdapterVariant.ONE_LAYER_TRANSFORMER, **FULL_SCALE)
        assert count == 202_387_456
        assert round(count / 1e6) == 202

    def test_mlp_only_rounds_to_165m(self):
        count = count_params(variant=AdapterVariant.MLP_ONLY, **FULL_SCALE)
        assert count == 164_634_624
        assert round(count / 1e6) == 165

    def test_saving_vs_parallel_heads(self):
        ours = count_params(variant=AdapterVariant.ATTENTION_ONLY, **FULL_SCALE)
        baseline = count_params(variant=AdapterVariant.PARALLEL_HEADS, parallel_heads=4, **FULL_SCALE)
        assert (1.0 - ours / baseline) * 100 == pytest.approx(88.7, abs=0.1)

    @given(st.integers(2, 512))
    @settings(max_examples=40, deadline=None)
    def test_attention_only_closed_form(self, d):
        assert count_params(d, 100, 50, AdapterVariant.ATTENTION_ONLY) == 4 * d * d + 2 * d

    def test_bad_dims(self):
        with pytest.raises(ConfigError):
            count_params(0, 10, 10, AdapterVariant.ATTENTION_ONLY)
        with pytest.raises(ConfigError):
            count_params(8, 10, 10, AdapterVariant.PARALLEL_HEADS, parallel_heads=0)
