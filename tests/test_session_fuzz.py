"""Random sessions driven step by step against the greedy oracle.

Each case draws, from its own fixed seed, a model (the 8/2 or the 4/1 desk
model, its deep ``wo`` and ``down`` scaled by alpha), an adapter, a prompt
and a request, then drives one ``DecodeSession`` to the end of its request.
Each step is ``run_round`` or ``draft_window`` then ``verify_window``, under
a random ``DraftPolicy``.  After every step:

- the session's tokens are a prefix of ``vanilla_greedy_decode``'s;
- the shallow and deep caches hold every committed position;
- the adapter cache runs no further than the shallow caches;
- every value row past a cache's length is zero, in the target's stacked
  value array and in the adapter cache;
- the session's feature rows equal, bit for bit, the rows a fresh
  ``prefill`` and fresh ``forward_shallow`` passes compute for its tokens.

The draws are derandomised, so every run checks the same sessions, and a
failure's test id names the seed that replays it.  Raise ``CASES`` to run
more.
"""

from __future__ import annotations

import functools
import random

import numpy as np
import pytest

from selfspec import (
    DecodeSession,
    DraftPolicy,
    KVCacheSet,
    desk_config,
    gen_model,
    init_adapter,
    passthrough_adapter,
    vanilla_greedy_decode,
)
from selfspec.model import context_room, forward_shallow, prefill

CASES = 160
SHAPES = {"8/2": dict(n_layers=8, exit_layer=2, max_seq_len=128),
          "4/1": dict(n_layers=4, exit_layer=1, max_seq_len=96)}
ALPHAS = (1.0, 0.1, 0.02)
ADAPTERS = ("init", "passthrough")
ETAS = (0.0, 0.3, 0.6, 0.9, 1.0)
GAMMAS = (0, 1, 2, 6, 9)
RANDOM = "random"
PROMPT_LENGTHS = (1, 2, 5, 63, 64, 65, RANDOM)
REQUESTS = (1, 2, 3, RANDOM, None)  # None: every token that fits


@functools.lru_cache(maxsize=None)
def _pair(shape: str, alpha: float, kind: str):
    model = gen_model(desk_config(**SHAPES[shape]), 1)
    for layer in model.layers[model.config.exit_layer :]:
        layer.attn.wo *= np.float32(alpha)
        layer.down *= np.float32(alpha)
    adapter = init_adapter(model, 2) if kind == "init" else passthrough_adapter(model)
    return model, adapter


class _FreshRows:
    """The feature rows of a session's tokens, computed on caches of their own:
    the prompt's by one ``prefill``, each later row once by ``forward_shallow``."""

    def __init__(self, model, prompt: list[int]):
        self.model, self.caches = model, KVCacheSet(model.config, model.dtype)
        features, _ = prefill(model, prompt, self.caches)
        self.rows = list(features.values)

    def through(self, tokens: list[int], length: int) -> np.ndarray:
        """Rows ``0..length-1`` of ``tokens``; those not computed before run in one pass."""
        if length > len(self.rows):
            block = forward_shallow(self.model, tokens[len(self.rows) : length], self.caches)
            self.rows.extend(block.values)
        return np.array(self.rows[:length])


def _check(session, prompt: list[int], reference: list[int], fresh: _FreshRows) -> None:
    emitted = session.tokens[len(prompt) :]
    assert emitted == reference[: len(emitted)]
    caches, adapter_cache = session.caches, session.adapter_cache
    assert caches.shallow_len == caches.deep_len == session.committed
    assert adapter_cache.length <= caches.shallow_len
    for i, cache in enumerate((*caches.shallow, *caches.deep)):
        assert not caches.values[i, :, cache.length :].any()
    assert not adapter_cache.values[:, adapter_cache.length :].any()
    length = caches.shallow_len
    assert np.array_equal(session._features[:length], fresh.through(session.tokens, length))


@pytest.mark.parametrize("seed", range(CASES))
def test_random_session_keeps_greedy_tokens_and_cache_invariants(seed):
    draw = random.Random(seed)
    shape, alpha = draw.choice(tuple(SHAPES)), draw.choice(ALPHAS)
    model, adapter = _pair(shape, alpha, draw.choice(ADAPTERS))
    cfg = model.config
    length = draw.choice(PROMPT_LENGTHS)
    if length == RANDOM:
        length = draw.randint(1, cfg.max_seq_len)
    prompt = [draw.randrange(cfg.vocab_size) for _ in range(length)]
    room = context_room(cfg, length)
    request = draw.choice(REQUESTS)
    if request == RANDOM:
        request = draw.randint(1, room)
    n_tokens = None if request is None else min(request, room)
    session = DecodeSession(model, adapter, prompt, n_tokens)
    reference = vanilla_greedy_decode(model, prompt, n_tokens or room)
    fresh = _FreshRows(model, prompt)
    while len(session.tokens) < length + len(reference):
        policy = DraftPolicy(eta=draw.choice(ETAS), gamma_max=draw.choice(GAMMAS))
        if draw.random() < 0.5:
            session.run_round(policy)
        else:
            session.verify_window(session.draft_window(policy))
        _check(session, prompt, reference, fresh)
