"""Acceptance gate: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  The losslessness suite dominates the runtime.
"""

import time

import numpy as np
import pytest

from selfspec import (
    AcceptanceRecord,
    AdapterVariant,
    AdapterWeights,
    DraftPolicy,
    KVCacheSet,
    LatencyModel,
    TrainConfig,
    calibrate_latency,
    compression_rate,
    count_params,
    ctar,
    desk_config,
    full_forward,
    gen_model,
    gen_passthrough_model,
    generate,
    init_adapter,
    passthrough_adapter,
    simulate_speedup,
    sweep,
    train_adapter,
    vanilla_greedy_decode,
)
from selfspec.corpus import gen_corpus
from selfspec.engine import DecodeSession
from selfspec.kernels import AttentionParams
from selfspec.model import forward_remaining, forward_shallow
from selfspec.seeding import generator

from oracles import max_grad_error, naive_compression_rate, naive_ctar, random_gradcheck_instance

DESK = desk_config()
FULL_SCALE = dict(d_model=4096, vocab=32000, ffn_hidden=11008)


def random_adapter(config, seed) -> AdapterWeights:
    rng = generator(seed, "random-adapter")
    d = config.d_model
    return AdapterWeights(
        input_norm=np.abs(rng.normal(1.0, 0.2, d)).astype(np.float32) + 0.05,
        attn=AttentionParams(
            *(rng.normal(0.0, 0.3, (d, d)).astype(np.float32) for _ in range(4)),
            n_heads=config.n_heads, head_dim=config.head_dim,
        ),
        output_norm=np.abs(rng.normal(1.0, 0.2, d)).astype(np.float32) + 0.05,
    )


@pytest.fixture(scope="module")
def trained_setup():
    """Desk model + Markov corpora + adapter trained for the default 10 epochs."""
    model = gen_model(DESK, seed=11)
    train_corpus = gen_corpus(DESK.vocab_size, n_seqs=48, len_range=(12, 28), seed=100)
    held_out = gen_corpus(DESK.vocab_size, n_seqs=8, len_range=(6, 12), seed=101)
    adapter_init = init_adapter(model, seed=12)
    t0 = time.perf_counter()
    trained, curve = train_adapter(model, adapter_init, train_corpus, TrainConfig(seed=13))
    train_seconds = time.perf_counter() - t0
    return model, adapter_init, trained, curve, held_out, train_seconds


def test_criterion_1_parameter_counts():
    t0 = time.perf_counter()
    attention_only = count_params(variant=AdapterVariant.ATTENTION_ONLY, **FULL_SCALE)
    plus_head = count_params(variant=AdapterVariant.ATTENTION_PLUS_HEAD, **FULL_SCALE)
    one_layer = count_params(variant=AdapterVariant.ONE_LAYER_TRANSFORMER, **FULL_SCALE)
    mlp_only = count_params(variant=AdapterVariant.MLP_ONLY, **FULL_SCALE)
    heads4 = count_params(variant=AdapterVariant.PARALLEL_HEADS, parallel_heads=4, **FULL_SCALE)

    assert attention_only == 67_117_056
    assert plus_head == 198_189_056
    assert heads4 == 591_396_864
    # Rounded to the published 3-significant-figure column.
    assert round(attention_only / 1e6) == 67
    assert round(plus_head / 1e6) == 198
    assert round(one_layer / 1e6) == 202
    assert round(mlp_only / 1e6) == 165
    assert round(heads4 / 1e6) == 591
    saving = (1.0 - attention_only / heads4) * 100.0
    assert abs(saving - 88.7) <= 0.1
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 1 PASS: parameter counts exact, saving {saving:.2f}% ({elapsed:.2f}s)")


def test_criterion_2_losslessness_suite():
    t0 = time.perf_counter()
    etas = (0.0, 0.3, 0.6, 1.0)
    gammas = (0, 2, 6)
    runs = 0
    for trial in range(100):
        rng = generator(1000 + trial, "trial")
        model = gen_model(DESK, seed=2000 + trial)
        adapter = random_adapter(DESK, seed=3000 + trial)
        prompt_len = int(rng.integers(4, 17))
        prompt = [int(t) for t in rng.integers(DESK.vocab_size, size=prompt_len)]
        reference = vanilla_greedy_decode(model, prompt, 64)
        for eta in etas:
            for gamma in gammas:
                result = generate(
                    model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), prompt, 64
                )
                assert result.tokens == reference, (
                    f"divergence: trial={trial} eta={eta} gamma={gamma}"
                )
                runs += 1
    elapsed = time.perf_counter() - t0
    print(f"\nACCEPTANCE 2 PASS: {runs} runs token-identical to greedy oracle ({elapsed:.1f}s, target <120s)")


def test_criterion_3_metric_oracles():
    t0 = time.perf_counter()
    rng = generator(7, "metric-oracle")
    for _ in range(1000):
        s = [int(v) for v in rng.integers(1, 10, size=int(rng.integers(1, 21)))]
        rec = AcceptanceRecord(s)
        assert compression_rate(rec) == naive_compression_rate(s)
        assert ctar(rec, 0) == 1.0
        previous = 1.0
        for w in range(0, max(s) + 2):
            value = ctar(rec, w)
            assert value == naive_ctar(s, w)
            assert value <= previous + 1e-12
            previous = value
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 3 PASS: 1000 random S lists match naive-loop oracles ({elapsed:.1f}s)")


def test_criterion_4_planted_full_acceptance():
    model = gen_passthrough_model(DESK, seed=3)
    adapter = passthrough_adapter(model)
    result = generate(model, adapter, DraftPolicy(eta=0.0, gamma_max=6), [7], 14)
    assert result.emitted_per_round == [7, 7]
    cr = compression_rate(AcceptanceRecord(result.emitted_per_round))
    assert cr == 7.0
    speedup = simulate_speedup([result], LatencyModel(c_big=1.0))
    assert abs(speedup - 7.0) <= 1e-9
    assert result.tokens == vanilla_greedy_decode(model, [7], 14)
    print(f"\nACCEPTANCE 4 PASS: planted fixture S={result.emitted_per_round}, CR={cr}, free-draft speedup={speedup}")


def test_criterion_5_gradient_verification():
    t0 = time.perf_counter()
    worst = 0.0
    for seed in range(10):
        adapter, batch, lm_head, rope = random_gradcheck_instance(seed)
        worst = max(worst, max_grad_error(adapter, batch, lm_head, rope, h=1e-5))
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-5
    assert elapsed < 30.0
    print(f"\nACCEPTANCE 5 PASS: 10 instances, worst grad error {worst:.2e} <= 1e-5 ({elapsed:.1f}s)")


def test_criterion_6_training_efficacy(trained_setup):
    model, adapter_init, trained, curve, held_out, train_seconds = trained_setup
    reduction = (curve[0] - curve[-1]) / curve[0]
    assert reduction >= 0.20, f"loss reduction {reduction:.1%} below 20%"

    policy = DraftPolicy(eta=0.6, gamma_max=6)

    def pooled_cr(adapter):
        emitted = []
        for prompt in held_out:
            result = generate(model, adapter, policy, prompt, 48)
            reference = vanilla_greedy_decode(model, prompt, 48)
            assert result.tokens == reference
            emitted.extend(result.emitted_per_round)
        return compression_rate(AcceptanceRecord(emitted))

    cr_init = pooled_cr(adapter_init)
    cr_trained = pooled_cr(trained)
    assert cr_trained >= cr_init
    assert train_seconds < 600.0
    print(
        f"\nACCEPTANCE 6 PASS: loss {curve[0]:.3f}->{curve[-1]:.3f} (-{reduction:.1%}), "
        f"held-out CR {cr_init:.3f}->{cr_trained:.3f} (train {train_seconds:.1f}s)"
    )


def test_criterion_7_ablation_shape(trained_setup):
    model, _, trained, _, held_out, _ = trained_setup
    lat = calibrate_latency(model, trained, reps=3)
    etas = [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    policies = [DraftPolicy(eta=eta, gamma_max=6) for eta in etas]
    report = sweep(model, trained, held_out[:6], policies, lat, n_tokens=48)
    cr_by_eta = {p.eta: p.pooled_cr for p in report}
    sim_by_eta = {p.eta: p.simulated_speedup for p in report}
    assert cr_by_eta[0.0] == max(cr_by_eta.values()), "eta=0 must attain the maximum CR"
    better = [eta for eta in etas if eta > 0 and sim_by_eta[eta] >= sim_by_eta[0.0]]
    assert better, "some eta > 0 must match or beat eta=0 in simulated speedup"
    print(
        f"\nACCEPTANCE 7 PASS: CR(eta=0)={cr_by_eta[0.0]:.3f} is max; "
        f"eta={better[0]} simulated speedup {sim_by_eta[better[0]]:.3f} >= "
        f"{sim_by_eta[0.0]:.3f} at eta=0"
    )


def test_criterion_8_cache_soundness():
    worst = 0.0
    matches = 0
    cases = 0
    for trial in range(50):
        rng = generator(500 + trial, "cache-trial")
        model = gen_model(DESK, seed=600 + trial)
        adapter = random_adapter(DESK, seed=700 + trial)
        prompt = [int(t) for t in rng.integers(DESK.vocab_size, size=int(rng.integers(3, 10)))]
        session = DecodeSession(model, adapter, prompt)
        for _ in range(int(rng.integers(1, 4))):
            window = session.draft_window(DraftPolicy(eta=0.3, gamma_max=4))
            session.verify_window(window)

        committed = list(session.tokens)
        continued = forward_remaining(
            model, forward_shallow(model, [committed[-1]], session.caches), session.caches
        )[-1]
        fresh = full_forward(model, committed, KVCacheSet(DESK))[-1]
        diff = float(np.max(np.abs(continued - fresh)))
        worst = max(worst, diff)
        assert diff <= 1e-4
        matches += int(np.argmax(continued) == np.argmax(fresh))
        cases += 1
    assert matches == cases == 50
    print(f"\nACCEPTANCE 8 PASS: 50/50 identical argmax after rollback, worst logit diff {worst:.1e}")
