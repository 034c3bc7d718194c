import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selfspec import (
    AdamW,
    AdapterWeights,
    KVCacheSet,
    TrainConfig,
    adapter_backward,
    adapter_forward,
    distill_loss,
    train_adapter,
)
from selfspec.adapter import WINDOW
from selfspec.errors import ConfigError, ShapeError
from selfspec.kernels import LayerKVCache, RopeTable, _causal_mask, matmul, softmax
from selfspec.model import forward_remaining, forward_shallow
from selfspec.seeding import generator
from selfspec.training import adapter_student_forward, build_distill_batches

from oracles import max_grad_error, random_gradcheck_instance as random_instance


class TestDistillLoss:
    def test_matched_one_hot_is_near_zero(self):
        teacher = np.eye(4)[[1, 3]]
        logits = np.where(teacher > 0, 80.0, -80.0)
        assert distill_loss(logits, teacher) < 1e-6

    def test_uniform_teacher_uniform_student(self):
        loss = distill_loss(np.zeros((1, 4)), np.full((1, 4), 0.25))
        assert loss == pytest.approx(np.log(4.0), abs=1e-9)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            distill_loss(np.zeros((2, 4)), np.full((2, 5), 0.2))

    def test_unnormalized_teacher(self):
        with pytest.raises(ShapeError):
            distill_loss(np.zeros((1, 4)), np.full((1, 4), 0.3))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_gibbs_inequality(self, seed):
        rng = generator(seed, "gibbs")
        teacher = rng.dirichlet(np.ones(6), size=3)
        logits = rng.normal(0.0, 2.0, (3, 6))
        entropy = float(-np.sum(teacher * np.log(teacher + 1e-300)))
        assert distill_loss(logits, teacher) >= entropy - 1e-8

    def test_clamp_keeps_loss_finite(self):
        teacher = np.eye(4)[[0]]
        logits = np.array([[-1e6, 1e6, 0.0, 0.0]])  # student assigns ~0 to the target
        loss = distill_loss(logits, teacher)
        assert np.isfinite(loss)
        assert loss <= -np.log(1e-12) + 1.0


class TestAdapterBackward:
    def test_gradcheck_single_instance(self):
        adapter, batch, lm_head, rope = random_instance(0)
        assert max_grad_error(adapter, batch, lm_head, rope) <= 1e-5

    def test_gradcheck_past_the_window(self):
        # 70 positions: the last rows' bands leave out the oldest keys
        adapter, batch, lm_head, rope = random_instance(3, t_len=WINDOW + 6)
        assert max_grad_error(adapter, batch, lm_head, rope) <= 1e-5

    def test_softce_identity_at_head(self):
        # With the clamp inactive, d loss / d logits is student - teacher.
        adapter, batch, lm_head, rope = random_instance(1)
        logits, _ = adapter_student_forward(
            adapter, batch.early_features, lm_head, rope
        )
        shifted = logits - logits.max(axis=-1, keepdims=True)
        student = np.exp(shifted) / np.exp(shifted).sum(axis=-1, keepdims=True)
        h = 1e-6
        for t in (0, 1):
            for n in (0, 4):
                bumped = logits.copy()
                bumped[t, n] += h
                fd = (distill_loss(bumped, batch.teacher_probs)
                      - distill_loss(logits, batch.teacher_probs)) / h
                assert fd == pytest.approx(student[t, n] - batch.teacher_probs[t, n], abs=1e-5)

    def test_only_adapter_grads_exposed(self):
        adapter, batch, lm_head, rope = random_instance(2)
        _, grads = adapter_backward(adapter, batch, lm_head, rope)
        names = sorted(grads)
        assert names == ["input_norm", "output_norm", "wk", "wo", "wq", "wv"]
        for name in names:
            assert grads[name].shape == adapter.tensors()[name].shape

    def test_tape_forward_matches_inference_path(self, small_model, small_adapter):
        # The differentiable forward and the cached inference forward are the
        # same function up to float64 rounding, within the attention window
        # and past it (90 positions).
        model64 = small_model.astype(np.float64)
        adapter64 = small_adapter.astype(np.float64)
        rope64 = RopeTable(
            model64.config.head_dim, model64.config.rope_theta,
            model64.config.max_seq_len, np.float64,
        )
        for tokens in ([4, 9, 9, 1, 3], [4, 9, 9, 1, 3, 7] * 15):
            cfg = model64.config
            features = forward_shallow(model64, tokens, KVCacheSet(cfg, dtype=np.float64))
            cache = LayerKVCache(cfg.max_seq_len, cfg.n_heads, cfg.head_dim, np.float64)
            refined = adapter_forward(adapter64, features, cache, model64.rope)
            inference_logits = matmul(refined, model64.lm_head)
            tape_logits, _ = adapter_student_forward(
                adapter64, features.values, model64.lm_head, rope64
            )
            assert np.max(np.abs(inference_logits - tape_logits)) <= 1e-10

    @pytest.mark.parametrize("t_len", [5, WINDOW, WINDOW + 6, 90])
    def test_window_band_is_the_drafting_mask(self, t_len):
        # The tape masks with the drafting mask's cached table; its visible
        # keys are the band t-WINDOW+1..t, and the tape's weights vanish
        # exactly outside it.
        band = np.tri(t_len, dtype=bool) & ~np.tri(t_len, k=-WINDOW, dtype=bool)
        adapter, batch, lm_head, rope = random_instance(4, t_len=t_len)
        assert np.array_equal(~_causal_mask(rope.max_len, WINDOW)[:t_len, :t_len], band)
        _, tape = adapter_student_forward(adapter, batch.early_features, lm_head, rope)
        probs = tape[5]
        assert probs.shape == (adapter.attn.n_heads, t_len, t_len)
        assert np.all(probs[:, ~band] == 0.0) and np.all(probs[:, band] > 0.0)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["learning_rate", "weight_decay"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -1e-9])
    def test_rates_are_finite_and_non_negative(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite and >= 0"):
            TrainConfig(**{field: value})

    def test_zero_and_large_finite_rates_accepted(self):
        TrainConfig(learning_rate=0.0, weight_decay=0.0)
        TrainConfig(learning_rate=1e38, weight_decay=1e38)


class TestAdamW:
    def test_zero_lr_zero_decay_is_identity(self):
        rng = generator(3, "adamw")
        params = {"w": rng.normal(0, 1, (4, 4))}
        before = params["w"].copy()
        opt = AdamW(TrainConfig(learning_rate=0.0, weight_decay=0.0))
        for _ in range(3):
            opt.step(params, {"w": rng.normal(0, 1, (4, 4))})
        assert np.array_equal(params["w"], before)

    def test_zero_lr_applies_only_decay(self):
        rng = generator(3, "adamw")
        params = {"w": rng.normal(0, 1, (4, 4))}
        before = params["w"].copy()
        opt = AdamW(TrainConfig(learning_rate=0.0, weight_decay=0.01))
        opt.step(params, {"w": rng.normal(0, 1, (4, 4))})
        assert np.allclose(params["w"], before * 0.99)

    def test_step_moves_against_gradient(self):
        params = {"w": np.zeros((2,))}
        opt = AdamW(TrainConfig(learning_rate=0.1, weight_decay=0.0))
        opt.step(params, {"w": np.array([1.0, -1.0])})
        assert params["w"][0] < 0 < params["w"][1]


class TestTrainAdapter:
    def test_empty_corpus_rejected(self, small_model, small_adapter):
        with pytest.raises(ConfigError):
            train_adapter(small_model, small_adapter, [], TrainConfig())

    def test_loss_decreases(self, small_model, small_adapter):
        rng = generator(5, "corpus")
        corpus = [
            [int(t) for t in rng.integers(small_model.config.vocab_size, size=12)]
            for _ in range(12)
        ]
        _, curve = train_adapter(
            small_model, small_adapter, corpus, TrainConfig(epochs=4, batch=4, seed=6)
        )
        assert len(curve) == 4
        assert curve[-1] < curve[0]

    def test_deterministic_given_seed(self, small_model, small_adapter):
        rng = generator(5, "corpus")
        corpus = [
            [int(t) for t in rng.integers(small_model.config.vocab_size, size=10)]
            for _ in range(6)
        ]
        cfg = TrainConfig(epochs=2, batch=3, seed=7)
        w1, c1 = train_adapter(small_model, small_adapter, corpus, cfg)
        w2, c2 = train_adapter(small_model, small_adapter, corpus, cfg)
        assert c1 == c2
        assert np.array_equal(w1.attn.wq, w2.attn.wq)
        assert np.array_equal(w1.output_norm, w2.output_norm)

    def test_zero_lr_zero_decay_returns_init_bits(self, small_model, small_adapter):
        corpus = [[1, 2, 3, 4], [5, 6, 7]]
        cfg = TrainConfig(learning_rate=0.0, weight_decay=0.0, epochs=2, batch=2, seed=8)
        trained, _ = train_adapter(small_model, small_adapter, corpus, cfg)
        assert np.array_equal(trained.attn.wq, small_adapter.attn.wq)
        assert np.array_equal(trained.input_norm, small_adapter.input_norm)

    @pytest.mark.parametrize("length", [5, 33, 70])
    def test_teacher_matches_split_path(self, small_model, length):
        # The teacher's every-row prefill against the split path, in float64,
        # across the 32-row prompt block and the 64-position window.
        model64 = small_model.astype(np.float64)
        seq = [int(t) for t in generator(length, "teacher").integers(64, size=length)]
        [batch] = build_distill_batches(small_model, [seq])
        caches = KVCacheSet(model64.config, np.float64, length)
        features = forward_shallow(model64, seq, caches)
        probs = softmax(forward_remaining(model64, features, caches), axis=-1)
        assert batch.early_features.dtype == batch.teacher_probs.dtype == np.float64
        assert np.max(np.abs(batch.early_features - features.values)) <= 1e-12
        assert np.max(np.abs(batch.teacher_probs - probs)) <= 1e-12

    def test_teacher_rows_normalized(self, small_model):
        batches = build_distill_batches(small_model, [[3, 1, 4, 1, 5]])
        sums = batches[0].teacher_probs.sum(axis=-1)
        assert np.max(np.abs(sums - 1.0)) <= 1e-5

    def test_param_dict_round_trip(self, small_adapter):
        params = small_adapter.tensors()
        rebuilt = AdapterWeights.from_tensors(
            small_adapter.attn.n_heads, small_adapter.attn.head_dim, params.values()
        )
        assert np.array_equal(rebuilt.attn.wv, small_adapter.attn.wv)
