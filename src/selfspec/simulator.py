"""Latency predictions from traces, calibration, and policy sweeps.

``engine.LatencyModel`` prices the passes each round ran (``round_passes``):
a verification pass over ``T`` positions costs a greedy step ``c_big`` plus
``c_row`` per further position (a deferred round's bonus pass is one
position), a probe ``c_adapter`` and a round ``c_overhead``.  Greedy
decoding costs ``c_big`` per token.  In the free-draft limit (every cost
but ``c_big`` zero) the predicted speedup equals the compression rate.

``sweep`` decodes a corpus under each of a list of draft policies and makes
one ``metrics.BenchReport`` per policy, with predicted speedup and trace
counts added; the CLI's ``bench`` is a one-policy sweep.
"""

from __future__ import annotations

import math

import numpy as np

from .adapter import AdapterWeights, adapter_forward, draft_logits
from .engine import (
    DecodeSession,
    DraftPolicy,
    GenerationResult,
    LatencyModel,
    measure_walltime,
    round_passes,
    run_corpus,
)
from .errors import CalibrationError, ConfigError
from .kernels import LayerKVCache
from .metrics import BenchReport, aggregate
from .model import (
    FeatureBlock,
    KVCacheSet,
    TargetWeights,
    context_room,
    forward_remaining,
    forward_shallow,
    prefill,
)
from .seeding import generator

PROBE_LENGTHS = (8, 24, 48)  # contexts at which calibration times single passes


def simulate_speedup(results: list[GenerationResult], lat: LatencyModel) -> float:
    """Predicted vanilla-time over speculative-time for the tokens one run's traces emit."""
    emitted = sum(t.emitted for r in results for t in r.rounds)
    return emitted * lat.c_big / sum(lat.request_cost(r) for r in results)


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
        report.simulated_speedup = simulate_speedup(run.results, lat)
        report.nonfinite_confidences = sum(
            not math.isfinite(c) for trace in traces for c in trace.confidences
        )
        report.drafting_rounds = sum(trace.drafted > 0 for trace in traces)
        report.deferred_rounds = sum(trace.deferred for trace in traces)
        reports.append(report)
    return reports


def calibrate_latency(
    model: TargetWeights, adapter: AdapterWeights, reps: int = 5, seed: int = 0, gamma: int = 6
) -> LatencyModel:
    """Fit the four pass costs from timed passes and whole rounds.

    At each of ``PROBE_LENGTHS`` it times one shallow row, one adapter
    probe, and verifications of 1 and ``gamma + 1`` rows; a verification of
    ``n`` rows plus ``n`` shallow rows is a pass over ``n`` positions.  Then
    it times whole engine rounds, counting each one's passes with
    ``round_passes``, each capped at an equal share of the context's room so
    that the warm-up round and the ``reps`` timed ones fit together.  The
    costs are the least-squares solution in ``round_passes`` order, with
    negative components clamped to zero.  ``gamma`` must be at least 1, and
    the passes must fit the context: both are checked before any pass.
    """
    if gamma < 1:
        raise ConfigError(f"calibration needs gamma >= 1, got {gamma}")
    cfg = model.config
    rng = generator(seed, "calibration")
    horizon = max(PROBE_LENGTHS) + gamma + 4
    if horizon >= cfg.max_seq_len:
        raise ConfigError("probe lengths exceed the model context")
    prompt_len = max(4, PROBE_LENGTHS[0])
    room = context_room(cfg, prompt_len)
    if room < reps + 1:
        raise ConfigError(f"{reps + 1} whole rounds exceed the model context of {cfg.max_seq_len}")
    tokens = [int(t) for t in rng.integers(cfg.vocab_size, size=horizon)]

    rows, times = [], []

    def timed(restore: list, fn, *args) -> float:
        """Median seconds of ``fn(*args)``, rolling the ``restore`` caches back after each call."""
        lengths = [c.length for c in restore]

        def once():
            fn(*args)
            for c, n in zip(restore, lengths):
                c.truncate(n)

        return measure_walltime(once, repetitions=reps, warmup=True)[0]

    for ctx in PROBE_LENGTHS:
        caches = KVCacheSet(cfg, dtype=model.dtype)
        adapter_cache = LayerKVCache(cfg.max_seq_len, cfg.n_heads, cfg.head_dim, model.dtype)
        feats, _ = prefill(model, tokens[:ctx], caches)
        adapter_forward(adapter, feats, adapter_cache, model.rope)
        shallow = timed(caches.shallow, forward_shallow, model, [tokens[ctx]], caches)
        probe = forward_shallow(model, [tokens[ctx]], caches)
        rows.append((0, 0, 1, 0))
        times.append(timed([adapter_cache], draft_logits, model, adapter, probe, adapter_cache))
        unit = forward_shallow(model, tokens[ctx + 1 : ctx + 1 + gamma], caches)
        values = np.concatenate([probe.values, unit.values])
        for n_rows in (1, gamma + 1):
            block = FeatureBlock(start=ctx, values=values[:n_rows])
            verify = timed(caches.deep, forward_remaining, model, block, caches)
            rows.append((1, n_rows - 1, 0, 0))
            times.append(verify + n_rows * shallow)

    # Whole rounds pin down the per-round overhead.  They are ``generate``'s
    # rounds (``DecodeSession.run_round``), so a session whose drafts lose
    # also times the greedy steps that the runs it predicts are made of.
    policy = DraftPolicy(eta=0.0, gamma_max=min(gamma, room // (reps + 1) - 1))
    # The untimed warm-up round also carries the prompt through the
    # adapter, so every timed round is a steady-state one.
    session = DecodeSession(model, adapter, tokens[:prompt_len])
    session.run_round(policy)
    for _ in range(reps):
        seconds, trace = measure_walltime(session.run_round, policy)
        rows.append(round_passes(trace.drafted, trace.deferred, trace.accepted_drafts == trace.drafted))
        times.append(seconds)

    design = np.array(rows, dtype=float)
    if np.linalg.matrix_rank(design) < design.shape[1]:
        raise CalibrationError("calibration design matrix is singular")
    fitted, *_ = np.linalg.lstsq(design, np.array(times), rcond=None)
    c_big, c_row, c_adapter, c_overhead = np.maximum(fitted, 0.0).tolist()
    if c_big <= 0:
        raise CalibrationError("calibration produced a non-positive greedy step cost")
    return LatencyModel(c_big, c_row, c_adapter, c_overhead)
