"""Analytic latency model and policy sweeps.

The model charges four abstract costs per round: one shallow forward per
feature (the newest token's and each draft's, ``d_k + 1`` in all), one
adapter probe per draft, one batched remaining-layers verification, and a
fixed per-round overhead.  A round that deferred its final draft's feature
(``RoundTrace.deferred``) is charged one shallow forward fewer when it is
rejected, and a second, one-row verification when it is fully accepted.
In the free-draft limit (all costs but the verification zero) the
predicted speedup equals the compression rate when no fully accepted round
was deferred, which is the proportionality the sweeps explore.

``sweep`` decodes a corpus under each of a list of draft policies and makes
one ``metrics.BenchReport`` per policy, with predicted speedup and trace
counts added; the CLI's ``bench`` is a one-policy sweep.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .adapter import AdapterWeights, adapter_forward, draft_logits
from .engine import (
    DecodeSession,
    DraftPolicy,
    GenerationResult,
    measure_walltime,
    run_corpus,
)
from .errors import CalibrationError, ConfigError, MetricsDomainError
from .metrics import BenchReport, aggregate
from .model import (
    FeatureBlock,
    KVCacheSet,
    TargetWeights,
    forward_remaining,
    forward_shallow,
    prefill,
)
from .seeding import generator


@dataclass(frozen=True)
class LatencyModel:
    """Abstract per-component costs (any consistent time unit)."""

    c_big: float
    c_shallow: float = 0.0
    c_adapter: float = 0.0
    c_overhead: float = 0.0

    def __post_init__(self) -> None:
        if self.c_big <= 0:
            raise ConfigError(f"c_big must be > 0, got {self.c_big}")
        if min(self.c_shallow, self.c_adapter, self.c_overhead) < 0:
            raise ConfigError("component costs must be >= 0")

    def round_cost(
        self, drafted: int, deferred: bool = False, fully_accepted: bool = False
    ) -> float:
        """Cost of a round with ``drafted`` drafts.

        A deferred round runs its final draft's shallow pass, and a second
        verification, only when it is fully accepted.
        """
        final_pass = not deferred or fully_accepted
        bonus_pass = deferred and fully_accepted
        return (
            drafted * (self.c_shallow + self.c_adapter)
            + final_pass * self.c_shallow
            + (1 + bonus_pass) * self.c_big
            + self.c_overhead
        )


def simulate_speedup(
    results: list[GenerationResult], lat: LatencyModel, n_tokens: int
) -> float:
    """Predicted vanilla-time over speculative-time for one run's requests."""
    emitted = sum(t.emitted for r in results for t in r.rounds)
    if emitted != n_tokens:
        raise MetricsDomainError(
            f"traces emit {emitted} tokens but n_tokens is {n_tokens}"
        )
    t_vanilla = n_tokens * lat.c_big
    t_spec = sum(
        lat.round_cost(t.drafted, t.deferred, t.accepted_drafts == t.drafted)
        for r in results
        for t in r.rounds
    )
    return t_vanilla / t_spec


def sweep(
    model: TargetWeights,
    adapter: AdapterWeights,
    prompts: list[list[int]],
    policies: list[DraftPolicy],
    lat: LatencyModel,
    n_tokens: int = 64,
    subtask: str = "corpus",
) -> list[BenchReport]:
    """Run the engine under every policy over the prompts; one report each.

    Traces depend on the policy, so each policy re-runs the engine; every
    run is cross-checked token-for-token against the greedy reference.
    """
    vanilla_seconds, runs = run_corpus(model, adapter, policies, prompts, n_tokens)
    reports = []
    for run in runs:
        report = aggregate(run.records, vanilla_seconds, run.seconds, subtask)
        traces = run.rounds
        report.eta, report.gamma = run.policy.eta, run.policy.gamma_max
        report.simulated_speedup = simulate_speedup(run.results, lat, report.total_tokens)
        report.nonfinite_confidences = sum(
            not math.isfinite(c) for trace in traces for c in trace.confidences
        )
        report.drafting_rounds = sum(trace.drafted > 0 for trace in traces)
        report.deferred_rounds = sum(trace.deferred for trace in traces)
        reports.append(report)
    return reports


def calibrate_latency(
    model: TargetWeights,
    adapter: AdapterWeights,
    probe_lengths: tuple[int, ...] = (8, 24, 48),
    reps: int = 5,
    seed: int = 0,
    gamma: int = 6,
) -> LatencyModel:
    """Fit the four component costs from timed micro-runs.

    Observations are direct timings of single-token shallow forwards,
    adapter probes and unit verifications at several context lengths, plus
    whole engine rounds; the cost vector is the least-squares solution with
    negative components clamped to zero.
    """
    cfg = model.config
    rng = generator(seed, "calibration")
    horizon = max(probe_lengths) + gamma + 4
    if horizon >= cfg.max_seq_len:
        raise ConfigError("probe lengths exceed the model context")
    tokens = [int(t) for t in rng.integers(cfg.vocab_size, size=horizon)]

    rows: list[list[float]] = []
    times: list[float] = []
    for ctx in probe_lengths:
        caches = KVCacheSet(cfg, dtype=model.dtype)
        feats, _ = prefill(model, tokens[:ctx], caches)
        adapter_forward(adapter, feats, caches.adapter, model.rope)

        def time_shallow():
            forward_shallow(model, [tokens[ctx]], caches)
            for c in caches.shallow:
                c.truncate(ctx)

        rows.append([1.0, 0.0, 0.0, 0.0])
        times.append(measure_walltime(time_shallow, reps)[1])

        probe = forward_shallow(model, [tokens[ctx]], caches)

        def time_adapter():
            draft_logits(model, adapter, probe, caches)
            caches.adapter.truncate(ctx)

        rows.append([0.0, 1.0, 0.0, 0.0])
        times.append(measure_walltime(time_adapter, reps)[1])

        unit = forward_shallow(model, tokens[ctx + 1 : ctx + 1 + gamma], caches)
        unit_block = FeatureBlock(start=ctx, values=np.concatenate([probe.values, unit.values]))

        def time_big():
            forward_remaining(model, unit_block, caches)
            for c in caches.deep:
                c.truncate(ctx)

        rows.append([0.0, 0.0, 1.0, 0.0])
        times.append(measure_walltime(time_big, reps)[1])

    # Whole rounds pin down the per-round overhead.  They follow the
    # session's own drafting decision, so a session whose drafts lose also
    # times the zero-draft rounds that the runs it predicts are made of.
    prompt = tokens[: max(4, probe_lengths[0])]
    policy = DraftPolicy(eta=0.0, gamma_max=gamma)
    # The untimed warm-up round also carries the prompt through the
    # adapter, so every timed round is a steady-state one.
    session = DecodeSession(model, adapter, prompt)
    session.verify_window(session.draft_window(policy))
    for _ in range(reps):
        t0 = time.perf_counter()
        window = session.draft_window(policy)
        session.verify_window(window)
        dt = time.perf_counter() - t0
        d = float(len(window.drafts))
        rows.append([d + 1.0, d, 1.0, 1.0])
        times.append(dt)

    design = np.array(rows)
    observed = np.array(times)
    if np.linalg.matrix_rank(design) < 4:
        raise CalibrationError("calibration design matrix is singular")
    fitted, *_ = np.linalg.lstsq(design, observed, rcond=None)
    c_shallow, c_adapter, c_big, c_overhead = np.maximum(fitted, 0.0)
    if c_big <= 0:
        raise CalibrationError("calibration produced a non-positive verification cost")
    return LatencyModel(
        c_big=float(c_big),
        c_shallow=float(c_shallow),
        c_adapter=float(c_adapter),
        c_overhead=float(c_overhead),
    )
