"""Speculative greedy decoding with dynamic confidence-thresholded drafting.

Each round drafts tokens from the shallow layers + adapter until the draft
confidence drops to the threshold (that low-confidence draft is kept, per
the double-early-exit rule), the step budget runs out, or the cache fills.
A round with ``d`` drafts produces a unit of ``d+1`` features, the newest
committed token's and each draft's; one batched pass of the remaining layers
verifies every draft and supplies the target's token at the first mismatch,
or the bonus token after full acceptance.  Emitted tokens always come from the
target's own argmax, which makes the output identical to plain greedy
decoding for every adapter and policy.  The prompt goes through ``prefill``,
the same call that opens the greedy reference, so round 1 takes its first
target from the prefill logits and verifies only its draft rows.

The final draft's feature serves only the bonus token, so a round that stops
on the threshold may defer it: its unit holds ``d`` features, and the final
draft's shallow pass and a one-row verification run only once every draft
is accepted.  A session defers while fewer than a third of its earlier
threshold-stopped rounds were fully accepted (``deferred_rounds`` replays
that rule over a request's traces).  The kernels are batch invariant, so
the one-row pass gives the bits the batched row would have: tokens, traces
and caches do not depend on the choice.
"""

from __future__ import annotations

import enum
import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adapter import AdapterWeights, draft_logits
from .errors import CapacityError, ConfigError, LosslessnessError
from .kernels import argmax_token
from .metrics import AcceptanceRecord
from .model import (
    FeatureBlock,
    KVCacheSet,
    TargetWeights,
    check_prompt,
    forward_remaining,
    forward_shallow,
    prefill,
    vanilla_greedy_decode,
)


@dataclass(frozen=True)
class DraftPolicy:
    """Drafting stops unless top-1 confidence > eta, or after gamma_max drafts.

    The stop comparison is inclusive, so ``eta=1.0`` keeps exactly one
    (always low-confidence) draft per round; ``gamma_max=0`` drafts nothing.
    A non-finite (NaN) confidence is never above eta, so it stops the round
    after its draft like a low one.
    """

    eta: float = 0.6
    gamma_max: int = 6

    def __post_init__(self) -> None:
        if not 0.0 <= self.eta <= 1.0:
            raise ConfigError(f"eta must be in [0, 1], got {self.eta}")
        if self.gamma_max < 0:
            raise ConfigError(f"gamma_max must be >= 0, got {self.gamma_max}")


class StopReason(enum.Enum):
    THRESHOLD = "threshold"
    MAX_STEPS = "max_steps"
    CAPACITY = "capacity"


@dataclass
class RoundTrace:
    """Accounting for one draft/verify round.

    ``emitted`` counts tokens kept; it always equals ``accepted_drafts + 1``.
    """

    drafted: int
    accepted_drafts: int
    emitted: int
    confidences: list[float]
    stop_reason: StopReason


@dataclass
class GenerationResult:
    tokens: list[int]
    rounds: list[RoundTrace]
    truncated: bool = False

    @property
    def emitted_per_round(self) -> list[int]:
        return [r.emitted for r in self.rounds]


@dataclass
class DraftWindow:
    """One round's drafting output: the feature unit plus its draft tokens.

    ``features`` holds ``drafted + 1`` rows, or ``drafted`` rows when the
    round deferred its final draft's feature to verification.
    """

    features: FeatureBlock
    drafts: list[int]
    confidences: list[float]
    stop_reason: StopReason

    @property
    def deferred(self) -> bool:
        """Whether the unit leaves out the final draft's feature."""
        return len(self.features) == len(self.drafts)


@dataclass
class _ThresholdHistory:
    """A session's threshold-stopped rounds, which decide whether the next one defers."""

    rounds: int = 0
    fully_accepted: int = 0

    @property
    def defers(self) -> bool:
        # Deferring saves a shallow pass and a verification row per rejected
        # round and costs a one-row verification per fully accepted one.  On
        # the desk model at context 20 that pays while under 41% of the
        # rounds are fully accepted if they draft one token, and under about
        # a third if they draft two.
        return 3 * self.fully_accepted < self.rounds

    def record(self, stop_reason: StopReason, drafted: int, accepted: int) -> None:
        if stop_reason is StopReason.THRESHOLD:
            self.rounds += 1
            self.fully_accepted += accepted == drafted


def deferred_rounds(rounds: list[RoundTrace]) -> list[bool]:
    """Which of one request's rounds deferred their final draft's feature."""
    history, flags = _ThresholdHistory(), []
    for trace in rounds:
        flags.append(trace.stop_reason is StopReason.THRESHOLD and history.defers)
        history.record(trace.stop_reason, trace.drafted, trace.accepted_drafts)
    return flags


class DecodeSession:
    """One speculative decoding session owning its caches and token state.

    After every verification the shallow and deep caches cover every
    committed token except the newest one (whose shallow pass opens the next
    round).  The adapter cache may additionally lag by the feature rows in
    ``_backlog`` -- features that were computed but never probed, e.g. the
    stopped token's feature after a fully accepted round; the next probe
    consumes the backlog in one batched adapter pass, which is the single
    saved adapter forward the carry optimization buys.

    Each prompt row goes through each stack once.  The session opens with
    ``prefill`` over the whole prompt, which fills the shallow and deep
    caches and gives the target's token after the prompt.  The last prompt
    row is round 1's first feature, already verified: round 1 verifies only
    its draft rows.  The prompt rows wait in ``_backlog`` for the first
    probe, so a request that never drafts never runs the adapter.

    A round that stops on the threshold defers its final draft's feature
    while fewer than a third of the session's earlier threshold-stopped
    rounds were fully accepted, so a session starts eager.  Its verification
    computes that feature, and the bonus token from it, only after full
    acceptance.
    """

    def __init__(self, model: TargetWeights, adapter: AdapterWeights, prompt: list[int]):
        check_prompt(prompt, model.config)
        max_len = model.config.max_seq_len
        if len(prompt) > max_len + 1:
            raise CapacityError(
                f"prompt of {len(prompt)} tokens exceeds max_seq_len + 1 = {max_len + 1}"
            )
        self.model = model
        self.adapter = adapter
        self.caches = KVCacheSet(model.config, dtype=model.dtype)
        self.tokens = list(prompt)
        # A prompt of max_seq_len + 1 tokens leaves its newest token no
        # position: the rest is cached and no round opens (a round would
        # raise CapacityError; ``generate`` reports truncation instead).
        features, logits = prefill(model, prompt[:max_len], self.caches)
        rows = features.values[: self.committed]
        self._backlog: list[np.ndarray] = [rows] if len(rows) else []
        self._opening: FeatureBlock | None = None
        # targets already known for the leading rows of the next unit
        self._targets: list[int] = []
        self._history = _ThresholdHistory()
        if len(prompt) <= max_len:
            self._opening = FeatureBlock(start=self.committed, values=features.values[-1:])
            self._targets = [argmax_token(logits)]

    @property
    def committed(self) -> int:
        """Number of committed positions: every token except the newest."""
        return len(self.tokens) - 1

    def _probe(self, feature: FeatureBlock) -> tuple[np.ndarray, float, int]:
        feature, self._backlog = _extend_back(self._backlog, feature), []
        return draft_logits(self.model, self.adapter, feature, self.caches)

    def draft_window(self, policy: DraftPolicy, max_drafts: int | None = None) -> DraftWindow:
        """Draft until threshold / step budget / capacity; return the unit.

        The step budget is ``gamma_max``, lowered to ``max_drafts`` when given,
        e.g. so that a round never drafts tokens the caller cannot keep.  A
        round that stops on the threshold leaves out its final draft's
        feature when the session defers it.
        """
        max_len = self.model.config.max_seq_len
        gamma = policy.gamma_max if max_drafts is None else min(policy.gamma_max, max_drafts)
        rows: list[np.ndarray] = []
        drafts: list[int] = []
        confidences: list[float] = []
        start = self.committed
        block, self._opening = self._opening, None
        if block is None:
            block = forward_shallow(self.model, [self.tokens[-1]], self.caches)
        while True:
            rows.append(block.values[0])
            if len(drafts) == gamma:
                reason = StopReason.MAX_STEPS
                break
            if self.caches.shallow_len >= max_len:
                reason = StopReason.CAPACITY
                break
            _, confidence, token = self._probe(block)
            drafts.append(token)
            confidences.append(confidence)
            if not confidence > policy.eta:  # a NaN confidence stops too
                reason = StopReason.THRESHOLD
                if not self._history.defers:
                    rows.append(forward_shallow(self.model, [token], self.caches).values[0])
                break
            block = forward_shallow(self.model, [token], self.caches)
        features = FeatureBlock(start=start, values=np.stack(rows))
        return DraftWindow(features, drafts, confidences, reason)

    def verify_window(self, window: DraftWindow) -> tuple[int, list[int]]:
        """One batched pass of the remaining layers over the feature unit.

        Accepts the longest draft prefix matching the target's greedy tokens,
        emits it plus the target's own token at the first mismatch (or the
        bonus token after full acceptance), and rolls every cache back to the
        new committed prefix.  A deferred unit gets its final draft's
        shallow pass and a one-row pass for the bonus token only after full
        acceptance.  Round 1's first row is the prompt's last, whose target
        came with the prefill, so the pass runs over its draft rows only, and
        not at all for a round without them.
        """
        targets, self._targets = self._targets, []
        rows = window.features.values[len(targets) :]
        if len(rows):
            block = FeatureBlock(start=window.features.start + len(targets), values=rows)
            targets += forward_remaining(self.model, block, self.caches).argmax(axis=-1).tolist()
        accepted = _accepted_prefix(window.drafts, targets)
        self._history.record(window.stop_reason, len(window.drafts), accepted)
        if accepted == len(window.drafts):
            # Full acceptance: nothing to discard; the final feature was
            # never probed, so it stays pending for the next adapter batch.
            final = window.features
            if window.deferred:
                final = forward_shallow(self.model, window.drafts[-1:], self.caches)
                targets += forward_remaining(self.model, final, self.caches).argmax(axis=-1).tolist()
            self._backlog.append(final.values[-1:])
        else:
            self.caches.rollback(window.features.start + accepted + 1)
            self._backlog = []
        emitted = window.drafts[:accepted] + [targets[accepted]]
        self.tokens.extend(emitted)
        return accepted, emitted


def _extend_back(pending: list[np.ndarray], block: FeatureBlock) -> FeatureBlock:
    """``block`` preceded by the ``pending`` feature row blocks just before it."""
    if not pending:
        return block
    values = np.concatenate([*pending, block.values])
    return FeatureBlock(start=block.start + len(block) - len(values), values=values)


def _accepted_prefix(drafts: list[int], targets: list[int]) -> int:
    """Length of the longest draft prefix equal to the target's tokens."""
    accepted = 0
    while accepted < len(drafts) and drafts[accepted] == targets[accepted]:
        accepted += 1
    return accepted


def generate(
    model: TargetWeights,
    adapter: AdapterWeights,
    policy: DraftPolicy,
    prompt: list[int],
    n_tokens: int,
) -> GenerationResult:
    """Speculatively decode ``n_tokens`` greedy tokens after ``prompt``.

    Output tokens are exactly those of the vanilla greedy reference for any
    adapter and policy; a result that had to stop at the context limit is
    flagged ``truncated`` instead of raising.  A round drafts at most
    ``n_tokens - len(out) - 1`` tokens, so every token it emits is kept: a
    one-token request drafts nothing and takes its token from the prefill.
    """
    if n_tokens < 0:
        raise ConfigError(f"n_tokens must be >= 0, got {n_tokens}")
    session = DecodeSession(model, adapter, prompt)
    rounds: list[RoundTrace] = []
    out: list[int] = []
    while len(out) < n_tokens:
        if len(session.tokens) > model.config.max_seq_len:
            return GenerationResult(tokens=out, rounds=rounds, truncated=True)
        window = session.draft_window(policy, n_tokens - len(out) - 1)
        accepted, emitted = session.verify_window(window)
        out.extend(emitted)
        rounds.append(
            RoundTrace(
                drafted=len(window.drafts),
                accepted_drafts=accepted,
                emitted=len(emitted),
                confidences=window.confidences,
                stop_reason=window.stop_reason,
            )
        )
    return GenerationResult(tokens=out, rounds=rounds)


@dataclass
class PolicyRun:
    """One policy's results over a corpus, with the walltime of each request."""

    policy: DraftPolicy
    results: list[GenerationResult]
    seconds: list[float]

    @property
    def rounds(self) -> list[RoundTrace]:
        return [trace for result in self.results for trace in result.rounds]

    @property
    def records(self) -> list[AcceptanceRecord]:
        """Each request's per-round emitted counts, for ``metrics.aggregate``."""
        return [AcceptanceRecord(result.emitted_per_round) for result in self.results]


def _timed(fn: Callable, *args) -> tuple[object, float]:
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def _divergence_report(policy: DraftPolicy, prompt_idx: int, result, reference) -> str:
    pos = next(
        (i for i, (a, b) in enumerate(zip(result.tokens, reference)) if a != b),
        min(len(result.tokens), len(reference)),
    )
    ends = itertools.accumulate(result.emitted_per_round)
    round_idx = next((i for i, end in enumerate(ends) if pos < end), len(result.rounds) - 1)
    return (
        f"losslessness violation at eta={policy.eta} gamma={policy.gamma_max} on prompt "
        f"{prompt_idx}: first divergence at position {pos} (round {round_idx}): "
        f"speculative={result.tokens[pos:pos + 4]} vanilla={reference[pos:pos + 4]}"
    )


def run_corpus(
    model: TargetWeights,
    adapter: AdapterWeights,
    policies: list[DraftPolicy],
    prompts: list[list[int]],
    n_tokens: int,
) -> tuple[list[float], list[PolicyRun]]:
    """Decode every prompt under every policy and check it against greedy.

    Each greedy reference is computed and timed once; then each policy, in
    order, decodes every prompt.  The first output that differs from its
    reference raises ``LosslessnessError`` naming the policy, the prompt,
    the first diverging position and its round.  Returns the reference
    walltimes and one ``PolicyRun`` per policy.
    """
    if not policies or not prompts:
        raise ConfigError("a corpus run needs at least one policy and one prompt")
    references, vanilla_seconds = zip(
        *(_timed(vanilla_greedy_decode, model, prompt, n_tokens) for prompt in prompts)
    )
    runs = []
    for policy in policies:
        run = PolicyRun(policy, [], [])
        for idx, (prompt, reference) in enumerate(zip(prompts, references)):
            result, seconds = _timed(generate, model, adapter, policy, prompt, n_tokens)
            if result.tokens != reference:
                raise LosslessnessError(_divergence_report(policy, idx, result, reference))
            run.results.append(result)
            run.seconds.append(seconds)
        runs.append(run)
    return list(vanilla_seconds), runs


def measure_walltime(
    run: Callable[[], object], repetitions: int = 3
) -> tuple[float, float, object]:
    """Median monotonic-clock timing of ``run`` after one warmup call.

    Returns ``(tokens_per_sec, seconds, result)`` when the result exposes
    ``tokens`` (tokens/sec is 0 otherwise).
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    result = run()  # warmup
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = run()
        times.append(time.perf_counter() - t0)
    seconds = float(np.median(times))
    tokens = getattr(result, "tokens", None)
    n = len(tokens) if tokens is not None else 0
    return (n / seconds if seconds > 0 and n else 0.0), seconds, result
