import numpy as np
import pytest

from selfspec import (
    DraftPolicy,
    KVCacheSet,
    ModelConfig,
    full_forward,
    gen_model,
    gen_passthrough_model,
    generate,
    passthrough_adapter,
    vanilla_greedy_decode,
)
from selfspec.engine import DecodeSession
from selfspec.errors import CacheError, CapacityError, ConfigError, ShapeError
from selfspec.kernels import matmul, rmsnorm
from selfspec.model import RMS_EPS, _prompt_block, forward_remaining, forward_shallow, prefill
from selfspec.seeding import generator

from oracles import monolithic_forward, rms


class TestConfig:
    def test_valid_defaults(self, desk_cfg):
        assert desk_cfg.exit_layer == 2 and desk_cfg.n_layers == 8

    @pytest.mark.parametrize(
        "override",
        [
            dict(exit_layer=0),
            dict(exit_layer=8),
            dict(vocab_size=1),
            dict(d_model=60),  # not heads * head_dim
            dict(head_dim=15, d_model=60),
            dict(d_model=0, head_dim=0),  # zero-width heads
            dict(d_model=0, n_heads=0),  # no heads
            dict(n_heads=-4, head_dim=-16),  # negative widths whose product fits
        ],
    )
    def test_invariants(self, override):
        base = dict(
            vocab_size=64, d_model=64, n_heads=4, head_dim=16,
            n_layers=8, ffn_hidden=100, exit_layer=2,
        )
        with pytest.raises(ConfigError):
            ModelConfig(**{**base, **override})


class TestGenModel:
    def test_deterministic(self, small_cfg):
        a = gen_model(small_cfg, seed=5)
        b = gen_model(small_cfg, seed=5)
        assert np.array_equal(a.token_embedding, b.token_embedding)
        assert np.array_equal(a.lm_head, b.lm_head)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.attn.wq, lb.attn.wq)
            assert np.array_equal(la.down, lb.down)

    def test_seed_changes_weights(self, small_cfg):
        a = gen_model(small_cfg, seed=5)
        b = gen_model(small_cfg, seed=6)
        assert not np.array_equal(a.token_embedding, b.token_embedding)

    def test_passthrough_layers_are_identity(self, small_cfg):
        model = gen_passthrough_model(small_cfg, seed=9)
        caches = KVCacheSet(small_cfg)
        tokens = [3, 1, 4, 1, 5]
        features = forward_shallow(model, tokens, caches)
        assert np.array_equal(features.values, model.token_embedding[tokens])


class TestSplitExecution:
    def test_incremental_vs_batch_prompt(self, small_model):
        tokens = [5, 9, 2, 6, 5, 3]
        batch_caches = KVCacheSet(small_model.config)
        batch = full_forward(small_model, tokens, batch_caches)
        step_caches = KVCacheSet(small_model.config)
        steps = np.concatenate(
            [full_forward(small_model, [t], step_caches) for t in tokens]
        )
        assert np.max(np.abs(batch - steps)) <= 1e-4
        assert np.array_equal(batch, steps)

    def test_composition_matches_monolithic_oracle(self, small_cfg):
        rng = generator(0, "split-test")
        for trial in range(20):
            model = gen_model(small_cfg, seed=100 + trial)
            tokens = [int(t) for t in rng.integers(small_cfg.vocab_size, size=8)]
            split = full_forward(model, tokens, KVCacheSet(small_cfg))
            mono = monolithic_forward(model, tokens)
            assert np.max(np.abs(split - mono)) <= 1e-4
            assert np.array_equal(np.argmax(split, axis=-1), np.argmax(mono, axis=-1))

    def test_shallow_appends_only_shallow(self, small_model):
        caches = KVCacheSet(small_model.config)
        forward_shallow(small_model, [1, 2, 3], caches)
        assert caches.shallow_len == 3
        assert caches.deep_len == 0
        assert caches.adapter.length == 0

    def test_remaining_requires_contiguous_features(self, small_model):
        caches = KVCacheSet(small_model.config)
        features = forward_shallow(small_model, [1, 2, 3], caches)
        forward_remaining(small_model, features, caches)
        stale = type(features)(start=5, values=features.values)
        with pytest.raises(CacheError):
            forward_remaining(small_model, stale, caches)

    def test_single_feature_single_row(self, small_model):
        caches = KVCacheSet(small_model.config)
        features = forward_shallow(small_model, [1], caches)
        logits = forward_remaining(small_model, features, caches)
        assert logits.shape == (1, small_model.config.vocab_size)

    def test_passthrough_logits_are_norm_head_of_embedding(self, small_cfg):
        model = gen_passthrough_model(small_cfg, seed=9)
        tokens = [2, 7, 7]
        logits = full_forward(model, tokens, KVCacheSet(small_cfg))
        expected = rms(model.token_embedding[tokens], model.final_norm) @ model.lm_head
        assert np.allclose(logits, expected, atol=1e-5)

    def test_capacity_overflow(self, small_model):
        caches = KVCacheSet(small_model.config)
        too_long = [0] * (small_model.config.max_seq_len + 1)
        with pytest.raises(CapacityError):
            forward_shallow(small_model, too_long, caches)


class TestPrefill:
    """The prompt pass: GEMM kernels, agreeing with the split path within rounding."""

    TOLERANCE = {np.float32: 1e-4, np.float64: 1e-10}

    @pytest.fixture(scope="class")
    def desk_model(self, desk_cfg):
        return gen_model(desk_cfg, seed=3)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 64, 65, 200, 512])
    def test_matches_oracle_and_split_path(self, desk_model, dtype, length):
        model = desk_model.astype(dtype)
        assert length <= model.config.max_seq_len
        tokens = [int(t) for t in generator(length, "prefill").integers(256, size=length)]
        caches = KVCacheSet(model.config, dtype=dtype)
        features, logits = prefill(model, tokens, caches)
        assert caches.shallow_len == caches.deep_len == length
        assert caches.adapter.length == 0
        assert features.start == 0 and len(features) == length
        split_caches = KVCacheSet(model.config, dtype=dtype)
        split_features = forward_shallow(model, tokens, split_caches)
        split = forward_remaining(model, split_features, split_caches)[-1]
        mono = monolithic_forward(model, tokens)[-1]
        tol = self.TOLERANCE[dtype]
        assert logits.dtype == dtype and logits.shape == (model.config.vocab_size,)
        assert np.max(np.abs(features.values - split_features.values)) <= tol
        for reference in (split, mono):
            assert np.max(np.abs(logits - reference)) <= tol
            assert np.argmax(logits) == np.argmax(reference)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 2, 32, 33, 65, 400])
    def test_final_layer_queries_only_the_last_row(self, desk_model, dtype, length):
        # Against a pass that runs the final layer on every row (33 and 65
        # leave a one-row last block there): features and every K/V row are
        # bit-identical; the logits move in the low bits only, since the
        # last row's products run as GEMVs instead of rows of GEMMs.
        model = desk_model.astype(dtype)
        tokens = [int(t) for t in generator(length, "prefill").integers(256, size=length)]
        caches, ref_caches = KVCacheSet(model.config, dtype=dtype), KVCacheSet(model.config, dtype=dtype)
        features, logits = prefill(model, tokens, caches)
        h = model.token_embedding[tokens]
        for i, (layer, cache) in enumerate(zip(model.layers, ref_caches.shallow + ref_caches.deep)):
            if i == model.config.exit_layer:
                ref_features = h
            h = _prompt_block(h, layer, cache, model.rope, last_row=False)
        ref_logits = matmul(rmsnorm(h[-1:], model.final_norm, RMS_EPS), model.lm_head)[0]
        assert np.array_equal(features.values, ref_features)
        for ours, ref in zip(caches.shallow + caches.deep, ref_caches.shallow + ref_caches.deep):
            assert ours.length == ref.length == length
            assert np.array_equal(ours.keys, ref.keys) and np.array_equal(ours.values, ref.values)
        assert np.max(np.abs(logits - ref_logits)) <= self.TOLERANCE[dtype]
        assert np.argmax(logits) == np.argmax(ref_logits)

    @pytest.mark.parametrize("length", [1, 33, 65, 200])
    def test_every_row_call_keeps_features_and_kv(self, desk_model, length):
        # The distillation teacher's call: the final layer and the LM head
        # run on every row, and nothing before them moves.
        tokens = [int(t) for t in generator(length, "prefill").integers(256, size=length)]
        caches, all_caches = KVCacheSet(desk_model.config), KVCacheSet(desk_model.config)
        features, logits = prefill(desk_model, tokens, caches)
        all_features, all_logits = prefill(desk_model, tokens, all_caches, last_row=False)
        assert all_features.start == 0
        assert np.array_equal(all_features.values, features.values)
        for ours, ref in zip(all_caches.shallow + all_caches.deep, caches.shallow + caches.deep):
            assert ours.length == ref.length == length
            assert np.array_equal(ours.keys, ref.keys) and np.array_equal(ours.values, ref.values)
        assert all_logits.dtype == np.float32
        assert all_logits.shape == (length, desk_model.config.vocab_size)
        assert np.max(np.abs(all_logits[-1] - logits)) <= 1e-5
        mono = monolithic_forward(desk_model, tokens)
        assert np.max(np.abs(all_logits - mono)) <= self.TOLERANCE[np.float32]

    def test_repeatable_bit_for_bit(self, desk_model):
        tokens = list(range(3, 203))
        runs = []
        for _ in range(2):
            caches = KVCacheSet(desk_model.config)
            features, logits = prefill(desk_model, tokens, caches)
            kv = [(c.keys[:, :, : c.length].tobytes(), c.values[:, : c.length].tobytes())
                  for c in (*caches.shallow, *caches.deep)]
            runs.append((features.values.tobytes(), logits.tobytes(), kv))
        assert runs[0] == runs[1]

    def test_bad_inputs(self, small_model):
        with pytest.raises(ShapeError):
            prefill(small_model, [], KVCacheSet(small_model.config))
        with pytest.raises(CapacityError):
            prefill(small_model, [0] * (small_model.config.max_seq_len + 1),
                    KVCacheSet(small_model.config))
        caches = KVCacheSet(small_model.config)
        prefill(small_model, [1, 2], caches)
        with pytest.raises(CacheError):
            prefill(small_model, [3], caches)


class TestVanillaDecode:
    def test_zero_tokens(self, small_model):
        assert vanilla_greedy_decode(small_model, [1, 2], 0) == []

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_tokens_rejected(self, small_model, n):
        with pytest.raises(ConfigError):
            vanilla_greedy_decode(small_model, [1, 2, 3], n)

    def test_deterministic(self, small_model):
        a = vanilla_greedy_decode(small_model, [3, 1, 4], 16)
        b = vanilla_greedy_decode(small_model, [3, 1, 4], 16)
        assert a == b

    def test_head_biased_to_token_zero(self, small_cfg):
        cfg = ModelConfig(
            vocab_size=2, d_model=small_cfg.d_model, n_heads=small_cfg.n_heads,
            head_dim=small_cfg.head_dim, n_layers=small_cfg.n_layers,
            ffn_hidden=small_cfg.ffn_hidden, exit_layer=small_cfg.exit_layer,
            max_seq_len=64,
        )
        model = gen_passthrough_model(cfg, seed=1)
        model.lm_head[:] = 0.0
        model.lm_head[:, 0] = 1.0  # always favors token 0 whenever features are nonzero
        model.token_embedding[:] = np.abs(model.token_embedding) + 0.1
        assert vanilla_greedy_decode(model, [1], 8) == [0] * 8

    def test_empty_prompt_rejected(self, small_model):
        with pytest.raises(ConfigError):
            vanilla_greedy_decode(small_model, [], 4)

    def test_capacity_precondition(self, small_model):
        n = small_model.config.max_seq_len
        with pytest.raises(CapacityError):
            vanilla_greedy_decode(small_model, [1, 2], n)


class TestRollback:
    def test_rollback_to_zero_equals_fresh(self, small_model):
        caches = KVCacheSet(small_model.config)
        first = full_forward(small_model, [4, 4, 4], caches)
        caches.rollback(0)
        again = full_forward(small_model, [4, 4, 4], caches)
        assert np.array_equal(first, again)

    def test_rollback_noop_at_current_length(self, small_model, small_adapter):
        # One rejected round leaves all three caches at the committed length.
        session = DecodeSession(small_model, small_adapter, [1, 2, 3])
        window = session.draft_window(DraftPolicy(eta=1.0, gamma_max=1))
        accepted, _ = session.verify_window(window)
        committed = len(session.tokens) - 1
        assert (accepted, committed) == (0, 3)
        caches = session.caches
        assert caches.shallow_len == caches.deep_len == caches.adapter.length == committed
        every = (*caches.shallow, *caches.deep, caches.adapter)
        before = [(c.keys.copy(), c.values.copy()) for c in every]
        caches.rollback(committed)
        assert caches.shallow_len == caches.deep_len == caches.adapter.length == committed
        for c, (k, v) in zip(every, before):
            assert np.array_equal(c.keys, k) and np.array_equal(c.values, v)

    def test_rollback_beyond_length_rejected(self, small_model):
        caches = KVCacheSet(small_model.config)
        forward_shallow(small_model, [1, 2], caches)
        with pytest.raises(CacheError):
            caches.rollback(3)

    def test_draft_rollback_continue_equals_fresh_replay(self, small_model, small_adapter):
        # Draft a window, roll back to the committed prefix, then check the
        # next-token logits against a completely fresh session.
        prompt = [9, 3, 7, 1]
        session = DecodeSession(small_model, small_adapter, prompt)
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=4))
        session.verify_window(window)
        committed = list(session.tokens)

        cont = forward_remaining(
            small_model,
            forward_shallow(small_model, [committed[-1]], session.caches),
            session.caches,
        )[-1]
        fresh = full_forward(small_model, committed, KVCacheSet(small_model.config))[-1]
        assert np.max(np.abs(cont - fresh)) <= 1e-4
        assert np.argmax(cont) == np.argmax(fresh)


class TestGreedyAgainstMonolithic:
    """Greedy decoding checked against a forward that shares none of its code.

    Along ``vanilla_greedy_decode``'s token path, one float64
    ``monolithic_forward`` pass (no cache, no layer split, no chunking, no
    shared prefill) gives the logits before every emitted token.  Wherever
    their top-2 margin exceeds ``MARGIN``, the decoded token must be their
    argmax.  ``generate`` equals the greedy decode, so it is checked too.
    """

    MARGIN = 1e-3
    N_TOKENS = 48

    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    @pytest.mark.parametrize("length", [1, 31, 32, 33, 63, 64, 65, "capacity"])
    def test_argmax_matches_where_the_margin_is_clear(self, dialed_desk_model, alpha, length):
        model = dialed_desk_model(alpha)
        if length == "capacity":
            # the request fills the context exactly
            length = model.config.max_seq_len + 1 - self.N_TOKENS
        prompt = [int(t) for t in generator(length, "oracle-prompt").integers(256, size=length)]
        tokens = vanilla_greedy_decode(model, prompt, self.N_TOKENS)
        spec = generate(model, passthrough_adapter(model), DraftPolicy(), prompt, self.N_TOKENS)
        assert spec.tokens == tokens and not spec.truncated
        logits = monolithic_forward(model.astype(np.float64), prompt + tokens[:-1])[length - 1 :]
        top2 = np.sort(logits, axis=-1)[:, -2:]
        clear = top2[:, 1] - top2[:, 0] > self.MARGIN
        assert clear.mean() >= 0.9
        assert np.array_equal(np.argmax(logits, axis=-1)[clear], np.asarray(tokens)[clear])
