"""Speculative greedy decoding with dynamic confidence-thresholded drafting.

Each round drafts tokens from the shallow layers + adapter until the draft
confidence drops to the threshold (that low-confidence draft is kept, per
the double-early-exit rule) or the step budget runs out; ``generate`` checks
the context bound (``model.context_room``) once and tells the session its length.
A round with ``d`` drafts produces a unit of ``d+1`` features, the newest
committed token's and each draft's; one batched pass of the remaining layers
verifies every draft and supplies the target's token at the first mismatch,
or the bonus token after full acceptance.  Emitted tokens always come from the
target's own argmax, which makes the output identical to plain greedy
decoding for every adapter and policy.  The prompt goes through ``prefill``,
the same call that opens the greedy reference, so round 1 takes its first
target from the prefill logits and verifies only its draft rows.

Before each round the session decides, from its own counts and a fixed
table of pass costs, whether the round's first draft is expected to save
more than it costs (Leviathan et al.'s expected-speedup trade-off,
estimated online).  Once it does not, no later round drafts.  A round
with nothing to draft (also under ``gamma_max=0`` or on a request's last
token) is a greedy step: greedy decoding's own ``greedy_step``, with no
unit around it.  Until the session's first accepted draft, a round that
stops on the threshold defers its final draft's feature, which serves
only the bonus token: its unit then holds ``d`` features, and the final
draft's shallow pass and a one-row verification run only once every draft
is accepted (``RoundTrace.deferred``).  The kernels are batch invariant,
so the one-row pass gives the bits the batched row would have, and the
decisions read no clock: tokens, traces and caches are a deterministic
function of the inputs, and the tokens are greedy's.
"""

from __future__ import annotations

import enum
import functools
import itertools
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .adapter import WINDOW, AdapterWeights, draft_logits
from .errors import CapacityError, ConfigError, LosslessnessError
from .kernels import argmax_token
from .metrics import AcceptanceRecord
from .model import (
    FeatureBlock,
    KVCacheSet,
    ModelConfig,
    TargetWeights,
    check_request,
    context_room,
    forward_remaining,
    forward_shallow,
    greedy_step,
    prefill,
    vanilla_greedy_decode,
)


@dataclass(frozen=True)
class DraftPolicy:
    """Drafting stops unless top-1 confidence > eta, or after gamma_max drafts.

    The stop comparison is inclusive, so ``eta=1.0`` keeps at most one
    (always low-confidence) draft per round; ``gamma_max=0`` drafts nothing.
    ``gamma_max`` is a cap: a round the session decides not to draft in
    drafts nothing, whatever the policy.  A non-finite (NaN) confidence is
    never above eta, so it stops the round after its draft like a low one.
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


@dataclass
class RoundTrace:
    """Accounting for one draft/verify round.

    ``deferred`` says whether the round left its final draft's feature out
    of the verified unit.
    """

    drafted: int
    accepted_drafts: int
    confidences: list[float]
    stop_reason: StopReason
    deferred: bool

    @property
    def emitted(self) -> int:
        """Tokens kept: the accepted drafts and the target's own token."""
        return self.accepted_drafts + 1


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


def round_passes(drafted: int, deferred: bool = False, fully_accepted: bool = False) -> tuple:
    """A round's verification passes, further verified positions, probes and rounds (one).

    Every verified position went through the shallow layers once, so a pass
    over ``T`` positions is one greedy step and ``T - 1`` further positions.
    An eager round verifies its ``drafted + 1`` features in one pass; a
    deferred one verifies ``drafted``, and runs its final draft's shallow row
    and a one-row bonus verification only when every draft is accepted.
    """
    bonus = deferred and fully_accepted
    return 1 + bonus, drafted - deferred, drafted, 1


@dataclass(frozen=True)
class LatencyModel:
    """Per-pass costs in ``round_passes`` order, in any consistent time unit.

    ``c_big`` is one position through the whole model, a greedy step;
    ``c_row`` each further position a pass verifies, its shallow row and
    its verification row; ``c_adapter`` a probe and ``c_overhead`` a round.
    """

    c_big: float
    c_row: float = 0.0
    c_adapter: float = 0.0
    c_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.c_big <= 0 or min(self.c_row, self.c_adapter, self.c_overhead) < 0:
            raise ConfigError(f"need c_big > 0 and other costs >= 0: {self}")

    def round_cost(self, drafted: int, deferred: bool = False, fully_accepted: bool = False) -> float:
        """Cost of a round with ``drafted`` drafts: each ``round_passes`` count times its cost."""
        costs = self.c_big, self.c_row, self.c_adapter, self.c_overhead
        return sum(n * c for n, c in zip(round_passes(drafted, deferred, fully_accepted), costs))

    def request_cost(self, result: GenerationResult) -> float:
        """Cost of one ``generate`` request: the passes each of its rounds ran."""
        return sum(
            self.round_cost(t.drafted, t.deferred, t.accepted_drafts == t.drafted)
            for t in result.rounds
        )


# The drafting decision's pass costs, in twentieths of one decoder layer's
# one-row pass, fitted on the desk model (seed 1, contexts 12 and 36;
# ``timeit`` best of 7 x 300 calls on 2 shared x86-64 cores, numpy 2.4.6,
# OpenBLAS 0.3.31).  Its two shallow layers took 118-210 us for one row, an
# adapter probe 54-100 us, and the six remaining layers with the LM head
# 413-530 us at T=1 and 772-1106 us at T=7: a + b*T with b/a about 0.17, and
# one layer's one-row pass about 69 us.  ``_decision_costs`` scales the per-layer
# terms by ``exit_layer`` and ``n_layers`` into a ``LatencyModel``; other
# depths are an extrapolation, measured at the desk depth only.  Integer
# costs sum exactly, so no decision hangs on the order of a float sum.
SHALLOW_ROW = 18  # one row through one shallow layer
# one adapter probe: norms, LM head and one attention row over the last
# WINDOW keys, so its cost no longer grows with the context
PROBE = 18
VERIFY_PASS = 17  # a: one remaining layer's pass, whatever its rows
VERIFY_ROW = 3  # b: each row of that pass, per remaining layer
# Before its first drafting round a session counts PRIOR_ROUNDS drafting
# rounds, PRIOR_HITS of them with their first draft accepted, so it starts
# by drafting.
PRIOR_ROUNDS = 4
PRIOR_HITS = 3


@functools.lru_cache
def _decision_costs(config: ModelConfig) -> LatencyModel:
    """The decision's default ``LatencyModel``: the table above at ``config``'s depth."""
    deep = config.n_layers - config.exit_layer
    row = config.exit_layer * SHALLOW_ROW + deep * VERIFY_ROW
    return LatencyModel(row + deep * VERIFY_PASS, row, PROBE)


class _Drafting:
    """A session's drafting counts, and the decisions they drive.

    A round's first draft pays while it is expected to: accepted in
    ``hits`` of the session's ``rounds`` drafting rounds, it saves one
    greedy step (``c_big``) and costs its probe and one further verified
    position (``c_adapter + c_row``); a tie does not pay.  Round 1 drafts
    whatever the prior says; the first drafting round after which a first
    draft no longer pays sets ``ended``, and no later round of the request
    drafts.  The drafts after the first run only above the policy's
    threshold, so the decision does not depend on the policy.  A
    threshold-stopped round defers its final draft's row until a first draft
    is accepted, so a session runs at most one deferred round's bonus pass:
    a fully accepted round accepted its first draft.  The costs are
    ``_decision_costs``' fixed table, so the decisions never read the clock.
    """

    def __init__(self, config: ModelConfig):
        self.lat = _decision_costs(config)
        self.rounds, self.hits = PRIOR_ROUNDS, PRIOR_HITS
        self.ended = False  # no round of the request drafts any more

    @property
    def defers(self) -> bool:
        """Whether a round that stops on the threshold defers its final row."""
        return self.hits == PRIOR_HITS

    @property
    def pays(self) -> bool:
        """Whether a round's first draft is expected to save more than it costs."""
        return self.hits * self.lat.c_big > self.rounds * (self.lat.c_row + self.lat.c_adapter)

    def record(self, hit: bool) -> None:
        """Count a drafting round, a hit when its first draft was accepted."""
        self.rounds += 1
        self.hits += hit
        self.ended |= not self.pays


class DecodeSession:
    """One speculative decoding session owning its caches and token state.

    After every verification the shallow and deep caches cover every
    committed token except the newest one (whose shallow pass opens the next
    round).  The adapter cache may additionally lag by the feature rows in
    ``_backlog`` -- features that were computed but never probed, e.g. the
    stopped token's feature after a fully accepted round; the next probe
    consumes the backlog in one batched adapter pass, which is the single
    saved adapter forward the carry optimization buys.

    Each prompt row goes through the shallow and deep stacks once.  The
    session opens with ``prefill`` over the whole prompt, which fills the
    shallow and deep caches and gives the target's token after the prompt.
    The last prompt row is round 1's first feature, already verified: round
    1 verifies only its draft rows.  The adapter attends over a window of
    ``WINDOW`` positions, so only the ``WINDOW - 1`` prompt rows before the
    last one wait in ``_backlog`` for the first probe, and the adapter cache
    starts at the first of them; older prompt rows never reach the adapter,
    and a request that never drafts never runs it.

    ``run_round`` is a session's one round under the budget rule.  A session
    drafts from round 1 until the first drafting round after which, by
    ``_Drafting``'s counts, drafting no longer pays; every later round of
    the request has nothing to draft and is a greedy step.  A round that
    stops on the threshold defers its final draft's feature until the
    session's first accepted draft, round 1 included.  Its verification
    computes that feature, and the bonus token from it, only after full
    acceptance; a deferred round 1 whose single draft is rejected runs no
    verification pass, as the prefill verified its only other row.

    A session emits ``n_tokens`` tokens, by default all that fit
    (``model.context_room``): its caches are sized for them, no round drafts
    past them, and a request that does not fit raises before any pass.
    """

    def __init__(self, model: TargetWeights, adapter: AdapterWeights, prompt: list[int],
                 n_tokens: int | None = None):
        if n_tokens is None:
            n_tokens = max(context_room(model.config, len(prompt)), 1)
        check_request(prompt, n_tokens, model.config)
        if n_tokens < 1:
            raise ConfigError(f"a session emits at least one token, got n_tokens={n_tokens}")
        self.model = model
        self.adapter = adapter
        self._end = len(prompt) + n_tokens  # len(self.tokens) once the request is done
        self.caches = KVCacheSet(model.config, model.dtype, self._end - 1)
        self.tokens = list(prompt)
        features, logits = prefill(model, prompt, self.caches)
        # the prompt rows that the first probe's window reaches
        rows = features.values[max(self.committed - WINDOW + 1, 0) : self.committed]
        self.caches.adapter.start_at(self.committed - len(rows))
        self._backlog: list[np.ndarray] = [rows] if len(rows) else []
        self._opening: FeatureBlock | None = FeatureBlock(self.committed, features.values[-1:])
        # targets already known for the leading rows of the next unit
        self._targets = [argmax_token(logits)]
        self._drafting = _Drafting(model.config)

    @property
    def committed(self) -> int:
        """Number of committed positions: every token except the newest."""
        return len(self.tokens) - 1

    def _probe(self, feature: FeatureBlock) -> tuple[np.ndarray, float, int]:
        feature, self._backlog = _extend_back(self._backlog, feature), []
        return draft_logits(self.model, self.adapter, feature, self.caches)

    def run_round(self, policy: DraftPolicy) -> RoundTrace:
        """One round of ``generate``: a drafting and verification round, or a greedy step.

        The draft budget is ``draft_window``'s, and zero once the session has
        stopped drafting.  A round with nothing to draft, but for round 1 (whose
        token comes from the prefill), is a greedy step traced as a zero-draft
        round; it ends drafting for good and drops the backlog, as no probe follows.
        A round that stops on the threshold defers while no first draft was accepted.
        A round after the request's last token raises ``CapacityError`` and
        changes nothing.
        """
        if self._opening is None and (self._budget(policy) == 0 or self._drafting.ended):
            self._drafting.ended, self._backlog = True, []
            self.tokens.append(greedy_step(self.model, self.tokens[-1], self.caches))
            return RoundTrace(0, 0, [], StopReason.MAX_STEPS, deferred=False)
        window = self.draft_window(policy)
        accepted, _ = self.verify_window(window)
        return RoundTrace(len(window.drafts), accepted, window.confidences, window.stop_reason,
                          window.deferred)

    def draft_window(self, policy: DraftPolicy) -> DraftWindow:
        """Draft until the threshold or the step budget (``_budget``); return the unit.

        A round that stops on the threshold leaves out its final draft's
        feature when the session defers it.
        """
        gamma = self._budget(policy)
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
            _, confidence, token = self._probe(block)
            drafts.append(token)
            confidences.append(confidence)
            if not confidence > policy.eta:  # a NaN confidence stops too
                reason = StopReason.THRESHOLD
                if not self._drafting.defers:
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
        if window.drafts:
            self._drafting.record(accepted > 0)
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

    def _budget(self, policy: DraftPolicy) -> int:
        """``gamma_max``, lowered so that a round emits no token past the request's;
        ``CapacityError`` once its last token is out."""
        left = self._end - len(self.tokens)
        if left < 1:
            raise CapacityError("the session has emitted every token of its request")
        return min(policy.gamma_max, left - 1)


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
    adapter and policy.  Before any pass it bounds the request to the ``n``
    tokens that fit (``model.context_room``), flagged ``truncated`` when fewer
    than asked; with none it runs no pass, and with a negative room it raises
    ``CapacityError``.  Its session is told ``n``, so every token a round
    emits is kept: a one-token request drafts nothing and takes its token
    from the prefill.
    """
    if n_tokens < 0:
        raise ConfigError(f"n_tokens must be >= 0, got {n_tokens}")
    n = min(n_tokens, context_room(model.config, len(prompt)))
    if n < 1:  # no session checks the request
        check_request(prompt, 0, model.config)
        return GenerationResult(tokens=[], rounds=[], truncated=n < n_tokens)
    session = DecodeSession(model, adapter, prompt, n)
    rounds: list[RoundTrace] = []
    while len(session.tokens) < len(prompt) + n:
        rounds.append(session.run_round(policy))
    return GenerationResult(session.tokens[len(prompt) :], rounds, truncated=n < n_tokens)


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

    Each decoder first runs once untimed on the first prompt, so no timed
    call pays for first use.  Then, prompt by prompt, the greedy reference
    is computed and timed, and each policy in order decodes the prompt
    right after it, so both sides of a prompt's speedup are timed on the
    host as it is at that moment.  The first output that differs from its
    reference raises ``LosslessnessError`` naming the policy, the prompt,
    the first diverging position and its round.  Returns the reference
    walltimes and one ``PolicyRun`` per policy.
    """
    if not policies or not prompts:
        raise ConfigError("a corpus run needs at least one policy and one prompt")
    vanilla_greedy_decode(model, prompts[0], n_tokens)
    generate(model, adapter, policies[0], prompts[0], n_tokens)
    vanilla_seconds = []
    runs = [PolicyRun(policy, [], []) for policy in policies]
    for idx, prompt in enumerate(prompts):
        seconds, reference = measure_walltime(vanilla_greedy_decode, model, prompt, n_tokens)
        vanilla_seconds.append(seconds)
        for run in runs:
            seconds, result = measure_walltime(generate, model, adapter, run.policy, prompt, n_tokens)
            if result.tokens != reference:
                raise LosslessnessError(_divergence_report(run.policy, idx, result, reference))
            run.results.append(result)
            run.seconds.append(seconds)
    return vanilla_seconds, runs


def measure_walltime(fn: Callable, *args, repetitions: int = 1, warmup: bool = False) -> tuple:
    """Median monotonic-clock seconds of ``repetitions`` calls ``fn(*args)``.

    With ``warmup`` one untimed call runs first.  Returns the seconds and
    the last call's result.
    """
    if repetitions < 1:
        raise ConfigError("repetitions must be >= 1")
    if warmup:
        fn(*args)
    times = []
    for _ in range(repetitions):
        t0 = time.perf_counter()
        result = fn(*args)
        times.append(time.perf_counter() - t0)
    return float(np.median(times)), result
