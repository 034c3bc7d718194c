import dataclasses
import json

import numpy as np
import pytest

import parity_grid
import selfspec
import selfspec.adapter
import selfspec.engine
import selfspec.model
from selfspec import (
    DraftPolicy,
    RoundTrace,
    StopReason,
    TargetWeights,
    desk_config,
    gen_model,
    generate,
    init_adapter,
    measure_walltime,
    passthrough_adapter,
    vanilla_greedy_decode,
)
from selfspec.adapter import WINDOW
from selfspec.engine import DecodeSession, run_corpus
from selfspec.errors import CapacityError, ConfigError, LosslessnessError
from selfspec.seeding import generator


def replayed(result):
    """(deferred, fully accepted) for each round of ``result``."""
    return [(r.deferred, r.accepted_drafts == r.drafted) for r in result.rounds]


@pytest.fixture(scope="module")
def mixed_desk(dialed_desk_model):
    """The desk model at alpha 0.3 with its passthrough adapter.

    On ``MIXED_PROMPT`` its sessions draft for a few rounds, defer some of
    them with both outcomes, and then stop drafting.
    """
    model = dialed_desk_model(0.3)
    return model, passthrough_adapter(model)


MIXED_PROMPT = [9, 8, 7, 6, 5]


@pytest.fixture(scope="module")
def desk_low(dialed_desk_model):
    """The benchmark's desk-low shape: drafts are almost never accepted."""
    model = dialed_desk_model(1.0)
    return model, init_adapter(model, 2)


def longer_context(model):
    """The same weights with twice the context."""
    return TargetWeights(
        config=dataclasses.replace(model.config, max_seq_len=2 * model.config.max_seq_len),
        token_embedding=model.token_embedding,
        layers=model.layers,
        final_norm=model.final_norm,
        lm_head=model.lm_head,
    )


def randomized_adapter(model, seed, spread=0.15):
    adapter = init_adapter(model, seed)
    rng = generator(seed, "adapter-noise")
    for w in (adapter.attn.wq, adapter.attn.wk, adapter.attn.wv, adapter.attn.wo):
        w += rng.normal(0.0, spread, w.shape).astype(np.float32)
    return adapter


class TestDraftPolicy:
    def test_defaults(self):
        policy = DraftPolicy()
        assert policy.eta == 0.6 and policy.gamma_max == 6

    @pytest.mark.parametrize("eta,gamma", [(-0.1, 3), (1.1, 3), (0.5, -1)])
    def test_validation(self, eta, gamma):
        with pytest.raises(ConfigError):
            DraftPolicy(eta=eta, gamma_max=gamma)


class TestDraftWindow:
    def test_eta_zero_is_fixed_step(self, small_model, small_adapter):
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=6))
        assert len(window.drafts) == 6
        assert window.stop_reason is StopReason.MAX_STEPS
        assert len(window.features) == 7  # drafted + 1, the stopped token's feature

    def test_gamma_zero_drafts_nothing(self, small_model, small_adapter):
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=0))
        assert window.drafts == []
        assert len(window.features) == 1
        assert window.stop_reason is StopReason.MAX_STEPS

    @pytest.mark.parametrize("k", [1, 9])
    @pytest.mark.parametrize("gamma", [0, 6])
    def test_round_past_the_request_raises_and_changes_nothing(self, planted, gamma, k):
        # Every planted draft is accepted, so only the request's length stops
        # a round: with one token per round, round k + 1 is past it.
        model, adapter = planted
        prompt, policy = [7, 3, 1], DraftPolicy(eta=0.0, gamma_max=gamma)
        session = DecodeSession(model, adapter, prompt, k)
        rounds = 0
        while len(session.tokens) < len(prompt) + k:
            left = len(prompt) + k - len(session.tokens)
            assert session.run_round(policy).drafted < left
            rounds += 1
        assert rounds == (k if gamma == 0 else 1 + (k > 7))
        assert session.tokens[len(prompt) :] == vanilla_greedy_decode(model, prompt, k)
        caches = [*session.caches.shallow, *session.caches.deep, session.caches.adapter]
        before = [(c.length, c.keys.tobytes(), c.values.tobytes()) for c in caches]
        for attempt in (session.run_round, session.draft_window):
            with pytest.raises(CapacityError, match="every token of its request"):
                attempt(policy)
        assert len(session.tokens) == len(prompt) + k
        assert [(c.length, c.keys.tobytes(), c.values.tobytes()) for c in caches] == before

    @pytest.mark.parametrize("n_tokens,error", [(127, CapacityError), (0, ConfigError)])
    def test_request_outside_the_room_rejected_before_prefill(
        self, small_model, small_adapter, monkeypatch, n_tokens, error
    ):
        # a 3-token prompt leaves room for 126 tokens in the 128-position context
        def no_prefill(*_args):
            raise AssertionError("the session ran a prefill")

        monkeypatch.setattr(selfspec.engine, "prefill", no_prefill)
        with pytest.raises(error):
            DecodeSession(small_model, small_adapter, [3, 1, 4], n_tokens)

    def test_eta_one_keeps_the_low_confidence_draft(self, small_model, small_adapter):
        # The stop rule is inclusive: the draft whose confidence triggered
        # the stop stays in the window and gets verified.  A fresh session
        # defers its row, so the unit holds the prompt's last feature alone.
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        window = session.draft_window(DraftPolicy(eta=1.0, gamma_max=6))
        assert len(window.drafts) == 1
        assert window.stop_reason is StopReason.THRESHOLD
        assert window.confidences[0] <= 1.0
        assert len(window.features) == 1 and window.deferred
        accepted, emitted = session.verify_window(window)
        greedy = vanilla_greedy_decode(small_model, [3, 1, 4], 2)
        assert accepted == int(window.drafts[0] == greedy[0])
        assert emitted == greedy[: accepted + 1]

    def test_skip_certain_probes_flag(self, small_model, small_adapter):
        # A zero step budget elides the probe that an always-triggering
        # threshold would spend; output is still the greedy reference.
        policy = DraftPolicy(eta=1.0, gamma_max=0)
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        window = session.draft_window(policy)
        assert window.drafts == []
        assert len(window.features) == 1
        result = generate(small_model, small_adapter, policy, [3, 1, 4], 12)
        assert result.tokens == vanilla_greedy_decode(small_model, [3, 1, 4], 12)

    def test_threshold_confidence_pattern(self, small_model, small_adapter):
        eta = 0.02
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        window = session.draft_window(DraftPolicy(eta=eta, gamma_max=8))
        assert len(window.confidences) == len(window.drafts)
        if window.stop_reason is StopReason.THRESHOLD:
            assert all(c > eta for c in window.confidences[:-1])
            assert window.confidences[-1] <= eta

    def test_features_start_at_last_committed(self, small_model, small_adapter):
        prompt = [3, 1, 4, 1]
        session = DecodeSession(small_model, small_adapter, prompt)
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=2))
        assert window.features.start == len(prompt) - 1

    def test_planted_fixture_drafts_the_greedy_continuation(self, planted):
        model, adapter = planted
        reference = vanilla_greedy_decode(model, [7], 6)
        session = DecodeSession(model, adapter, [7])
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=6))
        assert window.drafts == reference


class TestVerifyWindow:
    def test_full_acceptance_emits_bonus(self, planted):
        model, adapter = planted
        reference = vanilla_greedy_decode(model, [7], 7)
        session = DecodeSession(model, adapter, [7])
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=6))
        accepted, emitted = session.verify_window(window)
        assert accepted == 6
        assert emitted == reference  # 6 drafts + 1 bonus

    def test_empty_window_emits_target_token(self, small_model, small_adapter):
        prompt = [3, 1, 4]
        session = DecodeSession(small_model, small_adapter, prompt)
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=0))
        accepted, emitted = session.verify_window(window)
        assert accepted == 0
        assert emitted == vanilla_greedy_decode(small_model, prompt, 1)

    def test_matches_prefix_acceptance_oracle(self, small_model):
        # Independent oracle: replay the greedy reference one prefix at a
        # time and accept drafts until the first disagreement, then emit the
        # reference's own token there (or the bonus after full acceptance).
        def oracle_verify(prompt, drafts):
            accepted = 0
            for i, draft in enumerate(drafts):
                target = vanilla_greedy_decode(small_model, prompt + drafts[:i], 1)[0]
                if draft != target:
                    return accepted, drafts[:accepted] + [target]
                accepted += 1
            bonus = vanilla_greedy_decode(small_model, prompt + drafts, 1)[0]
            return accepted, drafts + [bonus]

        prompt = [3, 1, 4]
        for seed, spread in ((999, 3.0), (5, 0.05), (6, 0.2)):
            adapter = randomized_adapter(small_model, seed=seed, spread=spread)
            session = DecodeSession(small_model, adapter, prompt)
            window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=4))
            accepted, emitted = session.verify_window(window)
            assert (accepted, emitted) == oracle_verify(prompt, window.drafts)

    def test_caches_consistent_after_round(self, small_model, small_adapter):
        # The adapter cache lags by the rows no probe has read: a fully
        # accepted round's final feature, and nothing after a rejection.
        session = DecodeSession(small_model, small_adapter, [3, 1, 4])
        for _ in range(4):
            window = session.draft_window(DraftPolicy(eta=0.3, gamma_max=4))
            accepted, _ = session.verify_window(window)
            committed = len(session.tokens) - 1
            assert session.caches.shallow_len == committed
            assert session.caches.deep_len == committed
            pending = accepted == len(window.drafts)
            assert session.caches.adapter.length == committed - pending

    def test_shallow_deep_slack_bounded(self, small_model, small_adapter):
        # Mid-round, the shallow cache runs ahead of the deep cache by the
        # drafts plus the stopped token's feature; in round 1 by the drafts
        # alone, since the prefill put every prompt row in both caches.
        gamma = 4
        prompt = [3, 1, 4]
        session = DecodeSession(small_model, small_adapter, prompt)
        assert session.caches.shallow_len == session.caches.deep_len == len(prompt)
        for round_idx in range(3):
            window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=gamma))
            slack = session.caches.shallow_len - session.caches.deep_len
            assert len(window.drafts) <= gamma
            assert slack == len(window.drafts) + (round_idx > 0)
            session.verify_window(window)
            assert session.caches.shallow_len == session.caches.deep_len


class TestGenerate:
    def test_lossless_small_grid(self, small_model):
        rng = generator(11, "prompts")
        for trial in range(6):
            adapter = randomized_adapter(small_model, seed=trial)
            prompt = [int(t) for t in rng.integers(small_model.config.vocab_size, size=6)]
            reference = vanilla_greedy_decode(small_model, prompt, 40)
            for eta in (0.0, 0.5, 1.0):
                for gamma in (0, 3, 6):
                    result = generate(
                        small_model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), prompt, 40
                    )
                    assert result.tokens == reference

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 2, 31, 32, 33, 63, 64, 65, 127, 128])
    def test_lossless_across_prompt_lengths(self, small_model, dtype, length):
        # Prompt lengths around the prompt kernel's 32-row blocks, the
        # 64-key chunks and the context limit (max_seq_len 128).
        model = small_model.astype(dtype)
        adapter = randomized_adapter(small_model, seed=3).astype(dtype)
        prompt = [int(t) for t in generator(length, "grid-prompt").integers(64, size=length)]
        room = model.config.max_seq_len + 1 - length
        for n in (1, 2, 48):
            reference = vanilla_greedy_decode(model, prompt, min(n, room))
            for eta, gamma in ((0.6, 6), (1.0, 6), (0.0, 3), (0.6, 0)):
                result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), prompt, n)
                assert result.tokens == reference
                assert result.truncated == (n > room)

    def test_parity_grid_desk_low_lines_are_lossless(self):
        # tests/parity_grid.py compares trees byte for byte; its desk-low
        # lines, run here on this tree, keep the script itself working
        lines = [json.dumps(line) for line in parity_grid.desk_low(selfspec, np)]
        assert len(lines) == len(parity_grid.DESK_LOW_PROMPT_LENGTHS)
        for line in map(json.loads, lines):
            assert "error" not in line and line["lossless"] is True

    def test_planted_fixture_two_full_rounds(self, planted):
        model, adapter = planted
        result = generate(model, adapter, DraftPolicy(eta=0.0, gamma_max=6), [7], 14)
        assert result.emitted_per_round == [7, 7]
        assert len(result.rounds) == 2
        assert result.tokens == vanilla_greedy_decode(model, [7], 14)

    def test_gamma_zero_degenerates_to_vanilla(self, small_model, small_adapter):
        result = generate(small_model, small_adapter, DraftPolicy(eta=0.0, gamma_max=0), [2, 2], 12)
        assert len(result.rounds) == 12
        assert result.emitted_per_round == [1] * 12

    def test_trace_accounting(self, small_model, small_adapter):
        n = 37
        result = generate(small_model, small_adapter, DraftPolicy(eta=0.4, gamma_max=5), [9, 8], n)
        assert sum(r.emitted for r in result.rounds) == n
        for trace in result.rounds:
            assert trace.emitted == trace.accepted_drafts + 1
            assert 0 <= trace.accepted_drafts <= trace.drafted <= 5
            assert trace.emitted >= 1
            assert len(trace.confidences) == trace.drafted

    def test_one_token_request_drafts_nothing(self, small_model, small_adapter):
        prompt = [9, 8, 7]
        for policy in (DraftPolicy(eta=0.0, gamma_max=6), DraftPolicy(eta=0.6, gamma_max=6)):
            result = generate(small_model, small_adapter, policy, prompt, 1)
            assert len(result.rounds) == 1
            assert result.rounds[0].drafted == 0
            assert result.rounds[0].confidences == []
            assert result.tokens == vanilla_greedy_decode(small_model, prompt, 1)

    def test_drafts_stay_within_token_budget(self, small_model, planted):
        # The planted fixture accepts every draft, so without the cap its
        # rounds would draft gamma_max tokens past what the request keeps.
        model, adapter = planted
        for m, a, eta in ((model, adapter, 0.0), (small_model, randomized_adapter(small_model, 3), 0.0),
                          (small_model, randomized_adapter(small_model, 4), 0.5)):
            for n in (1, 2, 3, 5, 9, 16):
                result = generate(m, a, DraftPolicy(eta=eta, gamma_max=6), [7, 3], n)
                assert result.tokens == vanilla_greedy_decode(m, [7, 3], n)
                remaining = n
                for trace in result.rounds:
                    assert trace.drafted <= remaining - 1
                    remaining -= trace.emitted
                assert remaining == 0

    @pytest.mark.parametrize("eta", [0.0, 0.6])
    def test_nan_confidence_stops_the_round(self, small_model, small_adapter, eta):
        # NaN norms make every draft confidence NaN; a NaN is not above eta,
        # so each round keeps its first draft and stops there.
        adapter = small_adapter.copy()
        adapter.input_norm[:] = np.nan
        adapter.output_norm[:] = np.nan
        prompt = [5, 3, 8, 1]
        result = generate(small_model, adapter, DraftPolicy(eta=eta, gamma_max=6), prompt, 24)
        assert result.tokens == vanilla_greedy_decode(small_model, prompt, 24)
        drafting = [r for r in result.rounds if r.drafted]
        assert drafting
        for trace in result.rounds:
            assert trace.drafted <= 1
        for trace in drafting:
            assert trace.stop_reason is StopReason.THRESHOLD
            assert np.isnan(trace.confidences[0])

    def test_monotone_draft_effort_in_eta(self, small_model, small_adapter):
        # Raising eta never increases the drafted count of a round starting
        # from the same committed position (identical confidence sequence).
        prompt = [4, 2, 0, 1]
        low = generate(small_model, small_adapter, DraftPolicy(eta=0.1, gamma_max=6), prompt, 48)
        high = generate(small_model, small_adapter, DraftPolicy(eta=0.7, gamma_max=6), prompt, 48)

        def drafted_by_start(result):
            start = len(prompt)
            table = {}
            for trace in result.rounds:
                table[start] = trace.drafted
                start += trace.emitted
            return table

        low_table = drafted_by_start(low)
        high_table = drafted_by_start(high)
        shared = set(low_table) & set(high_table)
        assert shared
        assert all(high_table[pos] <= low_table[pos] for pos in shared)

    def test_state_restoration_after_rounds(self, small_model, small_adapter):
        # After any round, a zero-draft continuation must produce the same
        # next token as a fresh session replayed on the committed prefix.
        session = DecodeSession(small_model, small_adapter, [6, 6, 6])
        for _ in range(3):
            window = session.draft_window(DraftPolicy(eta=0.2, gamma_max=4))
            session.verify_window(window)
        prefix = list(session.tokens)
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=0))
        _, emitted = session.verify_window(window)
        assert emitted == vanilla_greedy_decode(small_model, prefix, 1)

    def test_capacity_truncation_flagged(self, small_cfg, small_model, small_adapter):
        room = small_cfg.max_seq_len + 1 - 4
        result = generate(
            small_model, small_adapter, DraftPolicy(eta=0.0, gamma_max=2), [1] * 4, room + 10
        )
        assert result.truncated
        assert len(result.tokens) == room
        assert result.tokens == vanilla_greedy_decode(longer_context(small_model), [1] * 4, room)

    def test_empty_prompt_rejected(self, small_model, small_adapter):
        for n_tokens in (0, 4):
            with pytest.raises(ConfigError):
                generate(small_model, small_adapter, DraftPolicy(), [], n_tokens)
        with pytest.raises(ConfigError):
            DecodeSession(small_model, small_adapter, [])

    @pytest.mark.parametrize("n", [-1, -3])
    def test_negative_n_tokens_rejected(self, small_model, small_adapter, n):
        with pytest.raises(ConfigError):
            generate(small_model, small_adapter, DraftPolicy(), [1, 2, 3], n)

    def test_token_out_of_vocab_rejected(self, small_model, small_adapter):
        with pytest.raises(ConfigError):
            generate(small_model, small_adapter, DraftPolicy(), [10**6], 4)

    @pytest.mark.parametrize("n_tokens", [0, 1, 9, 500])
    def test_one_prompt_scan_per_request(self, small_model, small_adapter, monkeypatch,
                                         n_tokens):
        scans = []
        check_prompt = selfspec.model.check_prompt

        def counted(*args):
            scans.append(None)
            return check_prompt(*args)

        monkeypatch.setattr(selfspec.model, "check_prompt", counted)
        generate(small_model, small_adapter, DraftPolicy(), [3, 1, 4], n_tokens)
        assert len(scans) == 1

    def test_caches_allocated_once_for_the_request(self, small_model, small_adapter, monkeypatch):
        # 10 + 70 - 1 = 79 positions: 128 rows, where growing buffers would
        # have been reallocated as the request crossed its first 64-key chunk
        made, cache_set = [], selfspec.model.KVCacheSet

        def recorded(*args):
            caches = cache_set(*args)
            layers = [*caches.shallow, *caches.deep, caches.adapter]
            made.append([(cache, cache.keys, cache.values) for cache in layers])
            return caches

        monkeypatch.setattr(selfspec.engine, "KVCacheSet", recorded)
        monkeypatch.setattr(selfspec.model, "KVCacheSet", recorded)
        prompt, n = [int(t) for t in range(3, 13)], 70
        result = generate(small_model, small_adapter, DraftPolicy(eta=0.2), prompt, n)
        assert result.tokens == vanilla_greedy_decode(small_model, prompt, n)
        assert len(made) == 2  # one cache set per request
        for layers in made:
            for cache, k, v in layers:
                assert cache.keys is k and cache.values is v
                assert np.shares_memory(k, layers[0][1].base)
                assert np.shares_memory(v, layers[0][2].base)
                assert k.shape[2] == v.shape[1] == -(-(len(prompt) + n - 1) // 64) * 64 == 128
            assert max(cache.length for cache, _, _ in layers) > 64

    @pytest.mark.parametrize("prompt", [[-1, 5], [256, 5]], ids=["negative", "vocab_size"])
    @pytest.mark.parametrize("decoder", ["vanilla", "speculative", "session"])
    def test_both_decoders_reject_ids_outside_vocabulary(self, decoder, prompt):
        # -1 would otherwise index the embedding's last row; 256 is one past it.
        model = gen_model(desk_config(), 1)
        for n_tokens in (0, 3):
            with pytest.raises(ConfigError, match="outside vocabulary"):
                if decoder == "vanilla":
                    vanilla_greedy_decode(model, prompt, n_tokens)
                elif decoder == "session":
                    DecodeSession(model, passthrough_adapter(model), prompt, n_tokens)
                else:
                    generate(model, passthrough_adapter(model), DraftPolicy(), prompt, n_tokens)


class TestCapacityContract:
    """The oracle and the engine share one bound: prompt + n <= max_seq_len + 1."""

    POLICY = DraftPolicy(eta=0.0, gamma_max=2)
    PROMPT = [1] * 4

    def test_request_at_the_bound_fits_both(self, small_model, small_adapter):
        n = small_model.config.max_seq_len + 1 - len(self.PROMPT)
        reference = vanilla_greedy_decode(small_model, self.PROMPT, n)
        result = generate(small_model, small_adapter, self.POLICY, self.PROMPT, n)
        assert len(reference) == n
        assert result.tokens == reference
        assert not result.truncated

    def test_request_past_the_bound(self, small_model, small_adapter):
        cfg = small_model.config
        n = cfg.max_seq_len + 2 - len(self.PROMPT)
        with pytest.raises(CapacityError):
            vanilla_greedy_decode(small_model, self.PROMPT, n)
        result = generate(small_model, small_adapter, self.POLICY, self.PROMPT, n)
        assert result.truncated
        # The same weights with a longer context give the greedy continuation.
        reference = vanilla_greedy_decode(longer_context(small_model), self.PROMPT, n)
        assert result.tokens == reference[: len(result.tokens)]


    @pytest.mark.parametrize("extra", [0, 1, 2], ids=["max", "max+1", "max+2"])
    def test_prompt_lengths_at_the_context(self, small_model, small_adapter, extra):
        # A prompt that fills the context still gets its one greedy token; one
        # token longer and nothing fits (truncated); two longer is an error.
        length = small_model.config.max_seq_len + extra
        vocab = small_model.config.vocab_size
        prompt = [int(t) for t in generator(5, "edge-prompt").integers(vocab, size=length)]
        if extra == 2:
            with pytest.raises(CapacityError):
                generate(small_model, small_adapter, self.POLICY, prompt, 3)
            return
        expected = vanilla_greedy_decode(small_model, prompt, 1) if extra == 0 else []
        assert len(expected) == 1 - extra
        for n in (1, 3):
            result = generate(small_model, small_adapter, self.POLICY, prompt, n)
            assert result.tokens == expected
            assert result.truncated == (n > len(expected))

    @pytest.mark.parametrize("n,extra", [(0, -4), (0, 0), (0, 1), (1, 1), (3, 1)],
                             ids=["none", "none-full", "none-past", "one-past", "three-past"])
    def test_nothing_to_emit_runs_no_pass(self, small_model, small_adapter, monkeypatch,
                                          n, extra):
        # No tokens asked for, or a prompt of max_seq_len + 1 tokens: the
        # context holds nothing more, so no session opens and nothing runs.
        def no_prefill(*_args):
            raise AssertionError("generate ran a prefill")

        monkeypatch.setattr(selfspec.engine, "prefill", no_prefill)
        prompt = [3] * (small_model.config.max_seq_len + extra)
        result = generate(small_model, small_adapter, self.POLICY, prompt, n)
        assert result.tokens == [] and result.rounds == []
        assert result.truncated == (n > 0)

    @pytest.mark.parametrize("length", [4, 60, 120, 126, 127])
    @pytest.mark.parametrize("eta", [0.0, 1.0])
    def test_rounds_at_the_limit_stop_on_threshold_or_steps(self, small_model, planted,
                                                            length, eta):
        # Every request runs into the context; the one bound is checked
        # before any pass, so each round stops on the policy alone.
        assert set(StopReason) == {StopReason.THRESHOLD, StopReason.MAX_STEPS}
        for model, adapter in ((small_model, randomized_adapter(small_model, 3)), planted):
            prompt = [int(t) for t in generator(length, "limit-prompt").integers(64, size=length)]
            room = model.config.max_seq_len + 1 - length
            for n in (room, room + 1, room + 9):
                result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=6), prompt, n)
                assert result.tokens == vanilla_greedy_decode(model, prompt, room)
                assert result.truncated == (n > room)
                assert {r.stop_reason for r in result.rounds} <= {
                    StopReason.THRESHOLD, StopReason.MAX_STEPS
                }

    @pytest.mark.parametrize("gamma", [20, 70])
    def test_session_rounds_draft_within_the_context(self, planted, gamma):
        # A session told no length emits all that fit: a round drafts at most
        # the positions the context has left, and stops on its step budget there.
        model, adapter = planted
        prompt = [7, 3, 1, 8, 2, 6, 4, 5]
        session = DecodeSession(model, adapter, prompt)
        policy = DraftPolicy(eta=0.0, gamma_max=gamma)
        traces = []
        while len(session.tokens) <= model.config.max_seq_len:
            traces.append(session.run_round(policy))
        assert len(session.tokens) == model.config.max_seq_len + 1
        assert all(t.stop_reason is StopReason.MAX_STEPS for t in traces)
        assert traces[-1].drafted < gamma
        room = len(session.tokens) - len(prompt)
        assert session.tokens[len(prompt):] == vanilla_greedy_decode(model, prompt, room)
        with pytest.raises(CapacityError):
            session.run_round(policy)


class TestPromptPass:
    """Each prompt row goes through the shallow, deep and adapter stacks once."""

    PROMPT = [9, 8, 7, 6, 5]

    @pytest.fixture()
    def calls(self, monkeypatch):
        counts = {}
        for name in ("prefill", "forward_shallow", "forward_remaining", "draft_logits"):
            fn = getattr(selfspec.engine, name)

            def counted(*args, _fn=fn, _name=name):
                counts[_name] = counts.get(_name, 0) + 1
                return _fn(*args)

            monkeypatch.setattr(selfspec.engine, name, counted)
        step = DecodeSession._step

        def checked(session, token):
            # a greedy step is one shallow pass and a one-row verification
            caches = session.caches
            shallow, deep = caches.shallow_len, caches.deep_len
            out = step(session, token)
            assert caches.shallow_len - shallow == caches.deep_len - deep == 1
            return out

        monkeypatch.setattr(DecodeSession, "_step", checked)
        return counts

    @pytest.mark.parametrize("policy,n", [
        (DraftPolicy(eta=0.0, gamma_max=6), 1),
        (DraftPolicy(eta=0.6, gamma_max=0), 12),
    ], ids=["one-token", "gamma-zero"])
    def test_request_that_never_drafts_never_runs_the_adapter(
        self, small_model, small_adapter, calls, policy, n
    ):
        result = generate(small_model, small_adapter, policy, self.PROMPT, n)
        assert result.tokens == vanilla_greedy_decode(small_model, self.PROMPT, n)
        assert calls.get("draft_logits", 0) == 0
        # round 1 takes its token from the prefill; each later round verifies one row
        assert calls["prefill"] == 1
        assert len(result.rounds) == n
        assert calls.get("forward_remaining", 0) == n - 1

    def test_one_pass_per_stack_and_round(self, mixed_desk, calls):
        model, adapter = mixed_desk
        policy = DraftPolicy(eta=0.6, gamma_max=6)
        result = generate(model, adapter, policy, MIXED_PROMPT, 48)
        assert result.tokens == vanilla_greedy_decode(model, MIXED_PROMPT, 48)
        # A deferred round skips its final draft's shallow pass unless it is
        # fully accepted, when it runs that pass and a second verification.
        # The prefill opens round 1 with its first row already verified, so
        # round 1 runs no opening shallow pass and verifies its drafts only.
        rounds = replayed(result)
        assert (True, False) in rounds and (True, True) in rounds
        assert result.rounds[0].drafted > 0
        bonus_passes = sum(deferred and full for deferred, full in rounds)
        assert calls["prefill"] == 1
        assert calls["forward_remaining"] == len(result.rounds) + bonus_passes
        assert calls["forward_shallow"] == sum(
            r.drafted + (not deferred or full) for r, (deferred, full) in zip(result.rounds, rounds)
        ) - 1
        assert calls["draft_logits"] == sum(r.drafted for r in result.rounds)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("length", [1, 33, 128])
    def test_session_opens_with_the_greedy_prompt_pass(self, small_model, small_adapter,
                                                        monkeypatch, dtype, length):
        # Both decoders run the same prefill on the same rows: the session's
        # K/V rows and first target equal those of the greedy reference's.
        model, adapter = small_model.astype(dtype), small_adapter.astype(dtype)
        passes = []
        prefill = selfspec.model.prefill

        def recorded(weights, prompt, caches):
            out = prefill(weights, prompt, caches)
            passes.append((caches, out[1]))
            return out

        monkeypatch.setattr(selfspec.model, "prefill", recorded)
        monkeypatch.setattr(selfspec.engine, "prefill", recorded)
        prompt = [int(t) for t in generator(length, "prompt").integers(64, size=length)]
        session = DecodeSession(model, adapter, prompt)
        greedy = vanilla_greedy_decode(model, prompt, 1)
        (spec_caches, spec_logits), (greedy_caches, greedy_logits) = passes
        assert spec_logits.tobytes() == greedy_logits.tobytes()
        assert session._targets == greedy == [int(np.argmax(greedy_logits))]
        for stack in ("shallow", "deep"):
            for ours, theirs in zip(getattr(spec_caches, stack), getattr(greedy_caches, stack)):
                assert ours.length == theirs.length == length
                assert ours.keys[:, :, :length].tobytes() == theirs.keys[:, :, :length].tobytes()
                assert ours.values[:, :length].tobytes() == theirs.values[:, :length].tobytes()


class TestBoundedProbe:
    """A probe attends from its last row over the last ``WINDOW`` positions."""

    def test_first_probe_on_a_long_prompt_projects_the_window(self, desk_low, monkeypatch):
        model, adapter = desk_low
        calls = []
        attention = selfspec.adapter.causal_attention

        def recorded(params, x, cache, start, *args, **kwargs):
            out = attention(params, x, cache, start, *args, **kwargs)
            calls.append((len(x), start, len(out)))
            return out

        monkeypatch.setattr(selfspec.adapter, "causal_attention", recorded)
        prompt = [int(t) for t in generator(448, "prompt").integers(256, size=448)]
        session = DecodeSession(model, adapter, prompt)
        # the adapter cache starts at the oldest prompt row the first probe
        # sees, and the WINDOW prompt rows up to round 1's opening row wait for it
        assert session.caches.adapter.length == 448 - WINDOW
        assert session.caches.shallow_len - session.caches.adapter.length == WINDOW
        session.draft_window(DraftPolicy(eta=1.0, gamma_max=1))
        assert calls == [(WINDOW, 448 - WINDOW, 1)]
        calls.clear()
        result = generate(model, adapter, DraftPolicy(eta=0.0, gamma_max=6), prompt, 16)
        assert result.tokens == vanilla_greedy_decode(model, prompt, 16)
        assert calls[0] == (WINDOW, 448 - WINDOW, 1) and len(calls) > 1
        assert all(rows <= 2 and out == 1 for rows, _, out in calls[1:])


class TestProbeInput:
    """A probe reads the session's feature rows from the adapter cache's length."""

    def test_probe_reads_the_rows_its_passes_wrote(self, planted, mixed_desk, monkeypatch):
        # Each probe's block starts at the adapter cache's length, and its
        # rows are, bit for bit, the newest rows the prefill or a shallow
        # pass produced at those positions.  A fully accepted round's final
        # feature, never probed, leads the next probe: planted eta 0.75
        # defers round 1 and accepts it fully, then runs eager rounds.
        written, probes = {}, []
        prefill = selfspec.engine.prefill
        shallow = selfspec.engine.forward_shallow
        probe = selfspec.engine.draft_logits

        def record(block):
            for offset, row in enumerate(block.values):
                written[block.start + offset] = row.tobytes()

        def prompt_pass(*args):
            features, logits = prefill(*args)
            record(features)
            return features, logits

        def shallow_pass(*args):
            block = shallow(*args)
            record(block)
            return block

        def probed(model, adapter, features, caches):
            assert features.start == caches.adapter.length
            rows = [row.tobytes() for row in features.values]
            assert rows == [written.get(features.start + i) for i in range(len(features))]
            probes.append((features.start, len(features)))
            return probe(model, adapter, features, caches)

        monkeypatch.setattr(selfspec.engine, "prefill", prompt_pass)
        monkeypatch.setattr(selfspec.engine, "forward_shallow", shallow_pass)
        monkeypatch.setattr(selfspec.engine, "draft_logits", probed)
        long_prompt = [int(t) for t in generator(70, "prompt").integers(64, size=70)]
        carried = set()  # whether each fully accepted round that led a probe was deferred
        for (model, adapter), prompt, policy in (
            (planted, long_prompt, DraftPolicy(eta=0.75, gamma_max=6)),
            (mixed_desk, MIXED_PROMPT, DraftPolicy(eta=0.6, gamma_max=6)),
        ):
            written.clear()
            session = DecodeSession(model, adapter, prompt, 40)
            final = None  # the final feature's position after a fully accepted round
            while len(session.tokens) < len(prompt) + 40:
                probed_before = len(probes)
                trace = session.run_round(policy)
                if len(probes) > probed_before and final is not None:
                    # the final feature, then the newest
                    assert probes[probed_before] == (final, 2)
                    carried.add(deferred)
                full = trace.drafted and trace.accepted_drafts == trace.drafted
                final, deferred = (session.committed - 1 if full else None), trace.deferred
            assert session.tokens[len(prompt):] == vanilla_greedy_decode(model, prompt, 40)
        assert carried == {True, False}
        # the 70-token prompt's first probe read its last WINDOW rows
        assert probes[0] == (70 - WINDOW, WINDOW)


class TestHeadRows:
    """The final norm and LM head run over the prefill's last row and each verified row."""

    PROMPT = list(range(3, 43))

    @pytest.fixture()
    def head_rows(self, monkeypatch):
        """The row count of each product with ``model``'s LM head, by ``model``."""
        products = []
        matmul = selfspec.model.matmul

        def counted(a, b):
            products.append((b, a.shape[0]))
            return matmul(a, b)

        monkeypatch.setattr(selfspec.model, "matmul", counted)
        return lambda model: [rows for b, rows in products if b is model.lm_head]

    def test_verification_heads_only_the_window(self, mixed_desk, head_rows):
        # eta 1.0 stops every drafting round on the threshold, so this
        # session has deferred rounds of both outcomes, then stops drafting
        model, adapter = mixed_desk
        policy = DraftPolicy(eta=1.0, gamma_max=6)
        result = generate(model, adapter, policy, MIXED_PROMPT, 40)
        assert result.tokens == vanilla_greedy_decode(model, MIXED_PROMPT, 40)
        # the prefill's last row, round 1's drafts, each later round's
        # window (one row for a zero-draft round), then one row per greedy
        # token; a deferred window leaves out the final draft's row, and
        # heads it in a one-row pass of its own only after full acceptance.
        # Round 1's first row came with the prefill: deferred, its one draft
        # leaves no row to verify, and a rejection runs no pass at all.
        rounds = replayed(result)
        assert rounds[:2] == [(True, False), (True, True)]
        assert any(r.drafted == 0 for r in result.rounds[:-1])
        assert result.rounds[0].drafted == 1
        windows = [1]
        for i, (trace, (deferred, full)) in enumerate(zip(result.rounds, rounds)):
            verified = trace.drafted + (not deferred) - (i == 0)
            windows += [verified] * (verified > 0) + [1] * (deferred and full)
        assert windows[:3] == [1, 1, 1]  # the prefill's row, round 2's draft and its bonus
        assert head_rows(model) == windows + [1] * 40

    def test_greedy_prompt_pass_heads_one_row(self, small_model, head_rows):
        vanilla_greedy_decode(small_model, self.PROMPT, 5)
        assert head_rows(small_model) == [1] * 5


class TestDeferredBonus:
    """A threshold round may leave its final draft's feature to verification."""

    @staticmethod
    def force(monkeypatch, defers):
        monkeypatch.setattr(selfspec.engine._Drafting, "defers", property(lambda _: defers))

    def test_rule_defers_until_the_first_accepted_first_draft(self):
        thr, steps = StopReason.THRESHOLD, StopReason.MAX_STEPS
        # (stop reason, drafted, accepted) of one request's drafting rounds
        rounds = [(thr, 2, 0), (thr, 1, 0), (steps, 3, 3), (thr, 1, 1), (thr, 2, 2),
                  (thr, 1, 0), (thr, 1, 0), (thr, 1, 1)]
        decision, flags = selfspec.engine._Drafting(desk_config()), []
        for reason, drafted, accepted in rounds:
            flags.append(decision.defers and reason is thr)
            decision.record(accepted > 0)
        # Threshold rounds defer from round 1; the step-budget round that
        # accepts its drafts ends deferral for the request, and the
        # rejected threshold rounds after it stay eager.
        assert flags == [True, True] + [False] * 6

    @pytest.mark.parametrize("eta", [0.6, 1.0])
    def test_session_follows_the_replayed_rule(self, mixed_desk, monkeypatch, eta):
        # A fresh decision fed each drafting round's trace makes the same
        # choices the session made: whether to draft and whether to defer.
        # Each round's unit is recorded as (features, drafts, deferred); a
        # greedy step verifies the newest token's one feature and no draft.
        model, passthrough = mixed_desk
        windows = []
        draft_window, run_round = DecodeSession.draft_window, DecodeSession.run_round

        def recorded(session, *args):
            window = draft_window(session, *args)
            windows.append((len(window.features), len(window.drafts), window.deferred))
            return window

        def round_or_step(session, *args):
            drafted = len(windows)
            trace = run_round(session, *args)
            if len(windows) == drafted:  # the round was a greedy step
                windows.append((1, 0, False))
            return trace

        monkeypatch.setattr(DecodeSession, "draft_window", recorded)
        monkeypatch.setattr(DecodeSession, "run_round", round_or_step)
        for adapter in (passthrough, init_adapter(model, 2)):
            windows.clear()
            result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=6), MIXED_PROMPT, 40)
            assert [deferred for _, _, deferred in windows] == [r.deferred for r in result.rounds]
            assert windows[0][2] == (result.rounds[0].stop_reason is StopReason.THRESHOLD)
            assert any(deferred for _, _, deferred in windows)
            for features, drafts, deferred in windows:
                assert features == drafts + (not deferred)
            decision, remaining = selfspec.engine._Drafting(model.config), 40
            for trace in result.rounds:
                drafts = remaining > 1 and not decision.ended
                assert (trace.drafted > 0) == drafts
                threshold = trace.stop_reason is StopReason.THRESHOLD
                assert trace.deferred == (drafts and threshold and decision.defers)
                if drafts:
                    decision.record(trace.accepted_drafts > 0)
                remaining -= trace.emitted
            assert any(not r.drafted for r in result.rounds[:-1])

    def test_rejected_deferred_round_one_runs_no_verification(self, mixed_desk, monkeypatch):
        # The prefill verified round 1's only row besides its one draft, so a
        # deferred round 1 whose draft is rejected emits the prefill's token.
        model, adapter = mixed_desk
        calls = []
        remaining = selfspec.engine.forward_remaining

        def counted(*args):
            calls.append(None)
            return remaining(*args)

        monkeypatch.setattr(selfspec.engine, "forward_remaining", counted)
        session = DecodeSession(model, adapter, MIXED_PROMPT)
        prefilled = list(session._targets)
        trace = session.run_round(DraftPolicy(eta=1.0, gamma_max=6))
        assert trace == RoundTrace(1, 0, trace.confidences, StopReason.THRESHOLD, deferred=True)
        assert calls == []
        assert session.tokens[len(MIXED_PROMPT):] == prefilled
        assert prefilled == vanilla_greedy_decode(model, MIXED_PROMPT, 1)

    def test_rounds_defer_until_the_first_accepted_first_draft(self, mixed_desk, desk_low):
        counts = {"deferred": 0, "eager threshold": 0}
        for model, adapter in (mixed_desk, desk_low):
            for prompt in (MIXED_PROMPT, [9, 8, 7, 6, 5, 4], list(range(40, 52))):
                for eta, gamma in ((0.6, 6), (1.0, 6), (0.0, 3)):
                    result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=gamma),
                                      prompt, 40)
                    assert result.tokens == vanilla_greedy_decode(model, prompt, 40)
                    hit = False  # an earlier round's first draft was accepted
                    for trace in result.rounds:
                        threshold = trace.drafted > 0 and trace.stop_reason is StopReason.THRESHOLD
                        assert trace.deferred == (threshold and not hit)
                        counts["deferred"] += trace.deferred
                        counts["eager threshold"] += threshold and hit
                        hit |= trace.accepted_drafts > 0
        assert counts["deferred"] > 0 and counts["eager threshold"] > 0

    @pytest.mark.parametrize("prompt", [[7], [7, 3, 1]], ids=["round-one", "pending-prompt"])
    def test_forced_deferral_matches_eager_bit_for_bit(self, planted, monkeypatch, prompt):
        # The planted fixture accepts every draft; at eta 0.75 its rounds stop
        # on the threshold after one to six drafts.
        model, adapter = planted
        policy = DraftPolicy(eta=0.75, gamma_max=6)
        logits = []
        remaining = selfspec.engine.forward_remaining

        def recorded(*args):
            out = remaining(*args)
            logits.append(out)
            return out

        monkeypatch.setattr(selfspec.engine, "forward_remaining", recorded)

        def run(defers):
            self.force(monkeypatch, defers)
            session = DecodeSession(model, adapter, prompt)
            states = []
            for _ in range(4):
                logits.clear()
                window = session.draft_window(policy)
                accepted, emitted = session.verify_window(window)
                assert window.stop_reason is StopReason.THRESHOLD
                assert window.deferred == defers and accepted == len(window.drafts)
                caches = session.caches
                # the final feature, which no probe has read yet
                pending = session._features[caches.adapter.length : caches.shallow_len]
                assert len(pending) == 1
                states.append((
                    emitted,
                    logits[-1][-1].tobytes(),  # the bonus token's logits
                    (caches.shallow_len, caches.deep_len, caches.adapter.length),
                    pending.tobytes(),
                    [(c.keys[:, :, : c.length].tobytes(), c.values[:, : c.length].tobytes())
                     for c in (*caches.shallow, *caches.deep, caches.adapter)],
                ))
            assert max(len(state[0]) for state in states) > 2
            return states

        assert run(True) == run(False)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_forced_deferral_keeps_tokens_and_traces(self, small_model, monkeypatch, seed):
        adapter = randomized_adapter(small_model, seed)
        prompt = [5, 3, 8, 1]
        outcomes = {}
        for defers in (True, False):
            self.force(monkeypatch, defers)
            outcomes[defers] = [
                generate(small_model, adapter, DraftPolicy(eta=eta, gamma_max=6), prompt, 40)
                for eta in (0.3, 0.6, 1.0)
            ]
        for deferred, eager in zip(outcomes[True], outcomes[False]):
            assert deferred.tokens == eager.tokens == vanilla_greedy_decode(small_model, prompt, 40)
            # the traces differ only in the deferral flag, set on each
            # drafting round that stops on the threshold
            assert not any(r.deferred for r in eager.rounds)
            assert [r.deferred for r in deferred.rounds] == [
                r.drafted > 0 and r.stop_reason is StopReason.THRESHOLD for r in deferred.rounds
            ]
            assert [dataclasses.replace(r, deferred=False) for r in deferred.rounds] == eager.rounds

    @pytest.mark.parametrize("extra", [-2, -1, 0], ids=["max-2", "max-1", "max"])
    def test_deferred_rounds_at_the_context(self, small_model, planted, monkeypatch, extra):
        # Every threshold round defers; eta 1.0 stops each round at its first
        # draft.  The fully accepting fixture runs the final draft's shallow
        # pass and verification at the last positions of the context.
        self.force(monkeypatch, True)
        length = small_model.config.max_seq_len + extra
        for model, adapter in ((small_model, randomized_adapter(small_model, 3)), planted):
            vocab = model.config.vocab_size
            prompt = [int(t) for t in generator(5, "edge-prompt").integers(vocab, size=length)]
            room = model.config.max_seq_len + 1 - length
            for n in (1, 2, 3, 4):
                result = generate(model, adapter, DraftPolicy(eta=1.0, gamma_max=6), prompt, n)
                expected = vanilla_greedy_decode(model, prompt, min(n, room))
                assert result.tokens == expected
                assert result.truncated == (n > room)
                drafting = [r for r in result.rounds if r.drafted]
                assert all(r.stop_reason is StopReason.THRESHOLD for r in drafting)
                assert bool(drafting) == (min(n, room) >= 2)


class TestDraftingDecision:
    """Before each round the session decides from its own counts whether to draft."""

    def test_no_clock_and_deterministic(self, desk_low, monkeypatch):
        class NoClock:
            def __getattr__(self, name):
                raise AssertionError(f"the engine read time.{name}")

        model, adapter = desk_low
        monkeypatch.setattr(selfspec.engine, "time", NoClock())
        prompt = [9, 8, 7, 6, 5, 4]
        first, second = (generate(model, adapter, DraftPolicy(), prompt, 48) for _ in range(2))
        assert first.tokens == vanilla_greedy_decode(model, prompt, 48)
        assert first == second
        assert any(not r.drafted for r in first.rounds[:-1])

    @pytest.mark.parametrize("eta,gamma", [(0.0, 6), (0.75, 6), (1.0, 6), (0.0, 2)])
    def test_always_accepting_adapter_never_skips(self, planted, eta, gamma):
        model, adapter = planted
        result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), [7, 3], 48)
        assert result.tokens == vanilla_greedy_decode(model, [7, 3], 48)
        remaining = 48
        for trace in result.rounds:
            assert trace.drafted <= remaining - 1
            assert (trace.drafted > 0) == (remaining > 1)
            assert trace.accepted_drafts == trace.drafted
            remaining -= trace.emitted

    @pytest.mark.parametrize("eta,gamma", [(0.6, 6), (1.0, 6), (0.0, 3)])
    def test_always_rejected_drafts_stop_drafting(self, desk_low, monkeypatch, eta, gamma):
        # Every draft is rejected, so every round emits the target's own
        # token.  A first draft pays while accepted in over 72 / 156 of the
        # rounds; the prior (3 of 4) keeps that up for 2 rejected rounds.
        # The third ends drafting for the request, whatever the policy.
        model, adapter = desk_low
        monkeypatch.setattr(selfspec.engine, "_accepted_prefix", lambda drafts, targets: 0)
        prompt = [9, 8, 7, 6, 5, 4]
        result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), prompt, 48)
        assert result.tokens == vanilla_greedy_decode(model, prompt, 48)
        assert [r.drafted > 0 for r in result.rounds] == (
            [1] * 3 + [0] * 45
        )

    @staticmethod
    def drive(model, adapter, prompt, n_tokens):
        """Each round of one request: (drafted, whether drafting has ended,
        whether the round wrote a feature row, adapter cache length)."""
        session, rounds = DecodeSession(model, adapter, prompt), []
        for _ in range(n_tokens):
            features = session._features.copy()
            trace = session.run_round(DraftPolicy(eta=0.6, gamma_max=6))
            written = not np.array_equal(session._features, features)
            rounds.append((trace.drafted, session._drafting.ended, written,
                           session.caches.adapter.length))
        return rounds

    def test_losing_session_stops_drafting_for_good(self, desk_low, planted, monkeypatch):
        # the first losing drafting round ends drafting for the whole request
        model, adapter = planted
        paying = self.drive(model, adapter, [7, 3], 10)
        assert all(drafted > 0 and not ended and written for drafted, ended, written, _ in paying)
        model, adapter = desk_low
        monkeypatch.setattr(selfspec.engine, "_accepted_prefix", lambda drafts, targets: 0)
        losing = self.drive(model, adapter, [9, 8, 7, 6, 5, 4], 200)
        assert [drafted > 0 for drafted, *_ in losing] == [True] * 3 + [False] * 197
        assert [ended for _, ended, _, _ in losing] == [False] * 2 + [True] * 198
        # every greedy step writes its feature row, while the adapter cache
        # stays where the last drafting round left it; the deferred round 1,
        # rejected, ran no pass and wrote none
        assert [written for _, _, written, _ in losing] == [False] + [True] * 199
        assert [n for *_, n in losing] == [6, 7, 8] + [8] * 197

    @pytest.mark.parametrize("gamma,n_tokens,cause", [
        (6, 48, "ended"), (0, 12, "gamma-zero"), (6, 3, "last-token"),
    ], ids=["ended", "gamma-zero", "last-token"])
    def test_greedy_step_equals_the_zero_draft_round(self, desk_low, monkeypatch,
                                                     gamma, n_tokens, cause):
        # One session takes the greedy step in each round with nothing to
        # draft, round 1 included; its twin runs that round as
        # ``draft_window`` under a ``gamma_max=0`` policy and
        # ``verify_window``.  Tokens, traces and K/V bytes stay equal.
        model, adapter = desk_low
        policy, prompt = DraftPolicy(eta=0.6, gamma_max=gamma), [9, 8, 7, 6, 5, 4]
        zero_drafts = DraftPolicy(eta=0.6, gamma_max=0)
        steps, greedy_steps = [], 0
        step = DecodeSession._step

        def counted(*args):
            steps.append(None)
            return step(*args)

        monkeypatch.setattr(DecodeSession, "_step", counted)
        fast, slow = (DecodeSession(model, adapter, prompt, n_tokens) for _ in range(2))
        causes, out = [], 0
        while out < n_tokens:
            budget = min(gamma, n_tokens - out - 1)
            greedy = fast._drafting.ended or budget == 0
            if greedy:
                causes.append("ended" if fast._drafting.ended else
                              "gamma-zero" if gamma == 0 else "last-token")
                window = slow.draft_window(zero_drafts)
                accepted, emitted = slow.verify_window(window)
                expected = RoundTrace(len(window.drafts), accepted, window.confidences,
                                      window.stop_reason, window.deferred)
                assert len(emitted) == expected.emitted
            else:
                expected = slow.run_round(policy)
            taken = len(steps)  # a drafting round steps only for a deferred bonus
            assert fast.run_round(policy) == expected
            greedy_steps += greedy * (len(steps) - taken)
            assert fast.tokens == slow.tokens
            for stack in ("shallow", "deep"):
                for ours, theirs in zip(getattr(fast.caches, stack), getattr(slow.caches, stack)):
                    n = ours.length
                    assert n == theirs.length == len(fast.tokens) - 1
                    assert ours.keys[:, :, :n].tobytes() == theirs.keys[:, :, :n].tobytes()
                    assert ours.values[:, :n].tobytes() == theirs.values[:, :n].tobytes()
            out += expected.emitted
        # under gamma_max=0 round 1 is a greedy step too, on the prefill's
        # token: it makes no ``_step`` call
        assert cause in causes and greedy_steps == len(causes) - (gamma == 0)
        assert fast.tokens[len(prompt):] == vanilla_greedy_decode(model, prompt, n_tokens)

    @pytest.mark.parametrize("length", [3, 70])
    @pytest.mark.parametrize("gamma,n_tokens", [(6, 1), (0, 1), (0, 12)],
                             ids=["one-token", "gamma-zero-one", "gamma-zero"])
    def test_rounds_with_nothing_to_draft_build_no_unit(self, small_model, small_adapter,
                                                        monkeypatch, gamma, n_tokens, length):
        # Every round with nothing to draft is a greedy step, round 1 (the
        # prefill's token) included: no round drafts a window or verifies one.
        def unit(*_args):
            raise AssertionError("a round with nothing to draft built a unit")

        monkeypatch.setattr(DecodeSession, "draft_window", unit)
        monkeypatch.setattr(DecodeSession, "verify_window", unit)
        prompt = [int(t) for t in generator(length, "prompt").integers(64, size=length)]
        result = generate(small_model, small_adapter, DraftPolicy(eta=0.6, gamma_max=gamma),
                          prompt, n_tokens)
        assert result.tokens == vanilla_greedy_decode(small_model, prompt, n_tokens)
        step = RoundTrace(0, 0, [], StopReason.MAX_STEPS, deferred=False)
        assert result.rounds == [step] * n_tokens

    def test_zero_draft_rounds_leave_the_decision(self, planted):
        # A round with nothing to draft is a greedy step and leaves the
        # drafting decision as it is: each later round under a drafting
        # policy drafts its whole budget, every planted draft accepted, its
        # first probe reading the rows the greedy steps wrote.
        model, adapter = planted
        prompt = [7, 3]
        step = RoundTrace(0, 0, [], StopReason.MAX_STEPS, deferred=False)
        session = DecodeSession(model, adapter, prompt, 32)
        for gamma in (0, 6, 0, 0, 6, 0, 6):
            trace = session.run_round(DraftPolicy(eta=0.0, gamma_max=gamma))
            if gamma:
                assert trace.drafted == trace.accepted_drafts == 6
            else:
                assert trace == step
            assert not session._drafting.ended
        assert session.tokens[len(prompt):] == vanilla_greedy_decode(model, prompt, 25)

    def test_draft_window_after_drafting_ended_reads_the_greedy_rows(self, desk_low, monkeypatch):
        # Greedy steps write their feature rows, so a session that has stopped
        # drafting can still draft a window: its first probe reads, from the
        # adapter cache's length, the rows the greedy steps' shallow passes
        # wrote, then the newest token's.
        model, adapter = desk_low
        prompt, n_tokens = [9, 8, 7, 6, 5, 4], 40
        written, probes = {}, []
        shallow, probe = selfspec.engine.forward_shallow, selfspec.engine.draft_logits

        def shallow_pass(*args):
            block = shallow(*args)
            written[block.start] = block.values[0].tobytes()
            return block

        def probed(model_, adapter_, features, caches):
            probes.append((features.start, [row.tobytes() for row in features.values]))
            return probe(model_, adapter_, features, caches)

        monkeypatch.setattr(selfspec.engine, "forward_shallow", shallow_pass)
        monkeypatch.setattr(selfspec.engine, "draft_logits", probed)
        session, policy = DecodeSession(model, adapter, prompt, n_tokens), DraftPolicy()
        while not session._drafting.ended:
            session.run_round(policy)
        probed_to = session.caches.adapter.length
        for _ in range(5):
            assert session.run_round(policy).drafted == 0
        assert session.caches.adapter.length == probed_to
        del probes[:]
        window = session.draft_window(DraftPolicy(eta=0.0, gamma_max=3))
        assert len(window.drafts) == 3
        start, rows = probes[0]
        assert start == probed_to and start + len(rows) == session.committed + 1
        assert len(rows) > 5  # the five greedy rows and the newest
        assert rows == [written[start + i] for i in range(len(rows))]
        session.verify_window(window)
        while len(session.tokens) < len(prompt) + n_tokens:
            assert session.run_round(policy).drafted == 0
        assert session.tokens[len(prompt):] == vanilla_greedy_decode(model, prompt, n_tokens)

    def test_ended_counts_first_drafts_and_holds(self):
        def ended_after(hits):
            decision, flags = selfspec.engine._Drafting(desk_config()), []
            for hit in hits:
                decision.record(hit)
                flags.append(decision.ended)
            return flags

        # on the desk model a first draft pays while hits * 156 > rounds * 72;
        # the prior counts 3 hits in 4 rounds
        assert ended_after([False] * 3) == [False, False, True]
        # 4 hits in 9 rounds lose; later hits, 5 in 10 and more, do not
        # resume drafting
        assert ended_after([True] + [False] * 4 + [True] * 2) == [False] * 4 + [True] * 3

    @pytest.mark.parametrize("n_layers", [8, 4, 32])
    def test_decisions_match_the_float_table(self, n_layers):
        # The earlier table in fractions of a layer's one-row pass: a shallow
        # row 0.9 per shallow layer, a probe 0.9, and per remaining layer a
        # verification 0.85 plus 0.15 per row, summed as floats.  The integer
        # table in twentieths decides alike at exit layer 2 of 4, 8 and 32.
        deep = n_layers - 2
        c_shallow, c_adapter, c_row = 2 * 0.9, 0.9, deep * 0.15
        c_verify = deep * 0.85 + c_row  # a one-row verification
        costs = (c_shallow, c_adapter, c_verify - c_row, c_row, 0.0)
        step = sum(n * c for n, c in zip((1, 0, 1, 1, 0), costs))
        per_draft = sum(n * c for n, c in zip((1, 1, 0, 1, 0), costs))
        decision = selfspec.engine._Drafting(desk_config(n_layers=n_layers, exit_layer=2))
        differ = []
        for rounds in range(selfspec.engine.PRIOR_ROUNDS + 513):
            for hits in range(rounds + 1):
                decision.rounds, decision.hits = rounds, hits
                if decision.pays != (hits * step > rounds * per_draft):
                    differ.append((hits, rounds))
        assert differ == []

    def test_a_tie_does_not_draft(self):
        # on the desk model 6 first-draft hits in 13 rounds save exactly what they cost
        decision = selfspec.engine._Drafting(desk_config())
        lat = decision.lat
        assert 6 * lat.c_big == 13 * (lat.c_row + lat.c_adapter)
        decision.rounds, decision.hits = 13, 6
        assert not decision.pays
        decision.rounds = 12
        assert decision.pays

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("alpha", [1.0, 0.1])
    def test_lossless_across_dials(self, dialed_desk_model, dtype, alpha):
        model = dialed_desk_model(alpha)
        adapter = (passthrough_adapter(model) if alpha < 1 else init_adapter(model, 2)).astype(dtype)
        model = model.astype(dtype)
        vocab = model.config.vocab_size
        skipped = 0
        for length in (1, 9, 33):
            prompt = [int(t) for t in generator(length, "dial-prompt").integers(vocab, size=length)]
            for n in (1, 2, 48):
                reference = vanilla_greedy_decode(model, prompt, n)
                for eta, gamma in ((0.6, 6), (1.0, 6), (0.0, 3), (0.6, 0)):
                    result = generate(model, adapter, DraftPolicy(eta=eta, gamma_max=gamma), prompt, n)
                    assert result.tokens == reference
                    skipped += gamma > 0 and any(not r.drafted for r in result.rounds[:-1])
        # the passthrough adapter's drafts pay, so only the α=1 sessions stop drafting
        assert (skipped > 0) == (alpha == 1.0)


class TestRunCorpus:
    PROMPTS = [[3, 1, 4], [1, 5], [9, 2, 6, 5]]
    POLICIES = [DraftPolicy(eta=0.0, gamma_max=3), DraftPolicy(eta=0.5, gamma_max=0),
                DraftPolicy(eta=1.0, gamma_max=6)]

    def test_results_in_grid_order(self, small_model, small_adapter):
        vanilla_seconds, runs = run_corpus(
            small_model, small_adapter, self.POLICIES, self.PROMPTS, 12
        )
        assert len(vanilla_seconds) == len(self.PROMPTS)
        assert all(t > 0 for t in vanilla_seconds)
        assert [run.policy for run in runs] == self.POLICIES
        for run in runs:
            assert len(run.seconds) == len(self.PROMPTS)
            assert all(t > 0 for t in run.seconds)
            for prompt, result in zip(self.PROMPTS, run.results):
                # The traces tell the policies apart; the tokens never differ.
                alone = generate(small_model, small_adapter, run.policy, prompt, 12)
                assert result.tokens == alone.tokens
                assert result.rounds == alone.rounds
            assert run.rounds == [t for r in run.results for t in r.rounds]

    def test_corrupted_reference_names_the_divergence(
        self, small_model, small_adapter, monkeypatch
    ):
        oracle = selfspec.engine.vanilla_greedy_decode

        def corrupted(model, prompt, n_tokens):
            tokens = oracle(model, prompt, n_tokens)
            if prompt == self.PROMPTS[1]:
                tokens[7] = (tokens[7] + 1) % model.config.vocab_size
            return tokens

        monkeypatch.setattr(selfspec.engine, "vanilla_greedy_decode", corrupted)
        policy = self.POLICIES[0]
        result = generate(small_model, small_adapter, policy, self.PROMPTS[1], 12)
        ends = np.cumsum(result.emitted_per_round)
        round_idx = int(np.searchsorted(ends, 7, side="right"))
        with pytest.raises(LosslessnessError) as info:
            run_corpus(small_model, small_adapter, self.POLICIES, self.PROMPTS, 12)
        message = str(info.value)
        assert "eta=0.0 gamma=3" in message
        assert "on prompt 1:" in message
        assert f"position 7 (round {round_idx})" in message

    def test_each_reference_timed_just_before_its_prompts_runs(
        self, small_model, small_adapter, monkeypatch
    ):
        # Each decoder runs once untimed, then every prompt's reference is
        # timed right before that prompt's runs, one per policy in order.
        calls, timing = [], []
        walltime = selfspec.engine.measure_walltime
        decoders = {"greedy": selfspec.engine.vanilla_greedy_decode,
                    "spec": selfspec.engine.generate}

        def timed(fn, *args, **kwargs):
            timing.append(True)
            try:
                return walltime(fn, *args, **kwargs)
            finally:
                timing.pop()

        def recorded(name):
            def call(model, *args):
                policy = args[1] if name == "spec" else None
                calls.append((name, policy, self.PROMPTS.index(args[-2]), bool(timing)))
                return decoders[name](model, *args)
            return call

        monkeypatch.setattr(selfspec.engine, "measure_walltime", timed)
        monkeypatch.setattr(selfspec.engine, "vanilla_greedy_decode", recorded("greedy"))
        monkeypatch.setattr(selfspec.engine, "generate", recorded("spec"))
        run_corpus(small_model, small_adapter, self.POLICIES, self.PROMPTS, 12)
        expected = [("greedy", None, 0, False), ("spec", self.POLICIES[0], 0, False)]
        for idx in range(len(self.PROMPTS)):
            expected.append(("greedy", None, idx, True))
            expected.extend(("spec", policy, idx, True) for policy in self.POLICIES)
        assert calls == expected

    def test_empty_grid_rejected(self, small_model, small_adapter):
        with pytest.raises(ConfigError):
            run_corpus(small_model, small_adapter, [], self.PROMPTS, 4)
        with pytest.raises(ConfigError):
            run_corpus(small_model, small_adapter, self.POLICIES, [], 4)


class TestMeasureWalltime:
    def test_self_speedup_is_about_one(self, small_model):
        args = (vanilla_greedy_decode, small_model, [1, 2, 3], 8)
        seconds_a, _ = measure_walltime(*args, repetitions=3, warmup=True)
        seconds_b, _ = measure_walltime(*args, repetitions=3, warmup=True)
        assert 0.2 <= seconds_a / seconds_b <= 5.0  # identity up to timer noise

    def test_median_of_timed_calls_and_last_result(self, monkeypatch):
        class Clock:
            ticks = iter([0.0, 5.0, 10.0, 11.0, 20.0, 23.0])  # calls of 5, 1 and 3 s

            def perf_counter(self):
                return next(self.ticks)

        monkeypatch.setattr(selfspec.engine, "time", Clock())
        calls = []
        seconds, result = measure_walltime(
            lambda x: calls.append(x) or len(calls), 7, repetitions=3, warmup=True
        )
        assert seconds == 3.0
        assert calls == [7] * 4 and result == 4  # the warm-up is not timed
        with pytest.raises(ConfigError):
            measure_walltime(len, [], repetitions=0)

    def test_full_acceptance_fixture_beats_vanilla(self):
        # With every draft accepted, skipping per-token deep forwards must
        # come out ahead at the desk shape, where the verified layers
        # outnumber the shallow ones three to one.  Min-of-reps timing keeps
        # scheduler noise out; re-measure once before failing.
        import time

        from selfspec import desk_config, gen_passthrough_model, passthrough_adapter

        model = gen_passthrough_model(desk_config(), seed=3)
        adapter = passthrough_adapter(model)
        policy = DraftPolicy(eta=0.0, gamma_max=6)
        n_tokens = 96

        def best_time(run, reps=7):
            run()
            times = []
            for _ in range(reps):
                t0 = time.perf_counter()
                run()
                times.append(time.perf_counter() - t0)
            return min(times)

        def speedup():
            vanilla_s = best_time(lambda: vanilla_greedy_decode(model, [7, 3], n_tokens))
            spec_s = best_time(lambda: generate(model, adapter, policy, [7, 3], n_tokens))
            return vanilla_s / spec_s

        if speedup() <= 1.0:
            assert speedup() > 1.0
