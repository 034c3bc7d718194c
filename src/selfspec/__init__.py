"""Self-speculative greedy decoding with a shallow-exit draft adapter.

A frozen decoder-only transformer is split at an early exit layer: the
shallow sub-network plus a small trainable adapter proposes draft tokens,
and one batched pass of the remaining layers verifies them, emitting exactly
the tokens plain greedy decoding would.  The package also ships the
distillation trainer for the adapter, acceptance metrics, an analytic
latency simulator for policy sweeps, and a CLI harness.
"""

from .adapter import (
    AdapterVariant,
    AdapterWeights,
    adapter_forward,
    count_params,
    draft_logits,
    init_adapter,
    passthrough_adapter,
)
from .engine import (
    DecodeSession,
    DraftPolicy,
    GenerationResult,
    LatencyModel,
    RoundTrace,
    StopReason,
    generate,
    measure_walltime,
    run_corpus,
)
from .metrics import AcceptanceRecord, BenchReport, aggregate, compression_rate, ctar
from .model import (
    DESK_CONFIG,
    FeatureBlock,
    KVCacheSet,
    ModelConfig,
    TargetWeights,
    desk_config,
    forward_remaining,
    forward_shallow,
    full_forward,
    gen_model,
    gen_passthrough_model,
    prefill,
    vanilla_greedy_decode,
)
from .simulator import calibrate_latency, simulate_speedup, sweep
from .training import (
    AdamW,
    DistillBatch,
    TrainConfig,
    adapter_backward,
    distill_loss,
    train_adapter,
)

__version__ = "0.1.0"

__all__ = [
    "AcceptanceRecord",
    "AdamW",
    "AdapterVariant",
    "AdapterWeights",
    "BenchReport",
    "DESK_CONFIG",
    "DecodeSession",
    "DistillBatch",
    "DraftPolicy",
    "FeatureBlock",
    "GenerationResult",
    "KVCacheSet",
    "LatencyModel",
    "ModelConfig",
    "RoundTrace",
    "StopReason",
    "TargetWeights",
    "TrainConfig",
    "adapter_backward",
    "adapter_forward",
    "aggregate",
    "calibrate_latency",
    "compression_rate",
    "count_params",
    "ctar",
    "desk_config",
    "distill_loss",
    "draft_logits",
    "forward_remaining",
    "forward_shallow",
    "full_forward",
    "gen_model",
    "gen_passthrough_model",
    "generate",
    "init_adapter",
    "measure_walltime",
    "passthrough_adapter",
    "prefill",
    "run_corpus",
    "simulate_speedup",
    "sweep",
    "train_adapter",
    "vanilla_greedy_decode",
]
