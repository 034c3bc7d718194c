"""The trainable draft adapter and its parameter accounting.

The adapter refines early features toward final-layer behavior using a
single causal multi-head attention block with a residual, wrapped in two RMS
norms; the output norm replaces the target's final norm on the draft path,
and the target's LM head is reused unchanged, so the only trainable state is
``4*d**2 + 2*d`` parameters.

The attention is a sliding window: a row attends to the last ``WINDOW``
positions, itself included (Longformer, arXiv 2004.05150), in drafting and
in training alike.  A draft probe queries only its block's last row, so its
cost does not grow with the context: it projects the rows not yet probed
and attends to at most ``WINDOW`` keys.  Drafts only change the speed,
never a token, since verification keeps the target's own argmax.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import CacheError, ConfigError, ShapeError
from .kernels import (
    AttentionParams,
    LayerKVCache,
    RopeTable,
    argmax_token,
    causal_attention,
    matmul,
    rmsnorm,
)
from .model import RMS_EPS, FeatureBlock, KVCacheSet, TargetWeights
from .seeding import generator

# Positions a row of the adapter attends to: one 64-key chunk, longer than
# every training sequence of the benchmark and the quick start.
WINDOW = 64


@dataclass
class AdapterWeights:
    input_norm: np.ndarray
    attn: AttentionParams
    output_norm: np.ndarray

    def __post_init__(self) -> None:
        d = self.attn.n_heads * self.attn.head_dim
        if self.input_norm.shape != (d,) or self.output_norm.shape != (d,):
            raise ShapeError(
                f"norm scales must have shape ({d},), got "
                f"{self.input_norm.shape} and {self.output_norm.shape}"
            )

    @property
    def d_model(self) -> int:
        return self.input_norm.shape[0]

    @property
    def param_count(self) -> int:
        return sum(tensor.size for tensor in self.tensors().values())

    @property
    def dtype(self):
        return self.input_norm.dtype

    def tensors(self) -> dict[str, np.ndarray]:
        """Every trainable tensor by name, in file order (shapes in ``adapter_layout``)."""
        return {
            "input_norm": self.input_norm,
            "wq": self.attn.wq,
            "wk": self.attn.wk,
            "wv": self.attn.wv,
            "wo": self.attn.wo,
            "output_norm": self.output_norm,
        }

    @classmethod
    def from_tensors(cls, n_heads: int, head_dim: int, tensors) -> "AdapterWeights":
        """The adapter whose ``tensors()`` values are ``tensors``, in order."""
        input_norm, wq, wk, wv, wo, output_norm = tensors
        return cls(input_norm, AttentionParams(wq, wk, wv, wo, n_heads, head_dim), output_norm)

    def astype(self, dtype) -> "AdapterWeights":
        return self.from_tensors(
            self.attn.n_heads,
            self.attn.head_dim,
            [tensor.astype(dtype) for tensor in self.tensors().values()],
        )

    def copy(self) -> "AdapterWeights":
        return self.astype(self.dtype)


def adapter_layout(d_model: int) -> list[tuple[int, ...]]:
    """Tensor shapes in ``AdapterWeights.tensors()`` order."""
    d = d_model
    return [(d,), (d, d), (d, d), (d, d), (d, d), (d,)]


def init_adapter(model: TargetWeights, seed: int) -> AdapterWeights:
    """Near-passthrough init: small random attention, norms copied from the
    target's final norm, so the untrained draft path already behaves like
    final-norm + head applied to the early features."""
    cfg = model.config
    rng = generator(seed, "adapter")
    scale = np.float32(1.0 / np.sqrt(cfg.d_model))
    tensors = [
        rng.standard_normal(shape, dtype=np.float32) * scale
        if len(shape) == 2 else model.final_norm.astype(np.float32)
        for shape in adapter_layout(cfg.d_model)
    ]
    return AdapterWeights.from_tensors(cfg.n_heads, cfg.head_dim, tensors)


def passthrough_adapter(model: TargetWeights) -> AdapterWeights:
    """Planted fixture: zero attention, output norm = target final norm.

    The adapter output is then exactly ``final_norm(x)``, so draft logits
    coincide bit-for-bit with the target head applied to the same features.
    """
    adapter = init_adapter(model, seed=0)
    for tensor in adapter.tensors().values():
        if tensor.ndim == 2:
            tensor[:] = 0.0
    return adapter


def adapter_forward(
    adapter: AdapterWeights,
    features: FeatureBlock,
    cache: LayerKVCache,
    rope: RopeTable,
    last_row: bool = False,
) -> np.ndarray:
    """Refine early features: ``output_norm(x + attention(input_norm(x)))``.

    Causal over the last ``WINDOW`` positions, rope-positioned at the
    features' absolute positions, appending one K/V row per feature.  With
    ``last_row`` only the block's last row is refined.  The result feeds the
    shared LM head directly.
    """
    if cache.length != features.start:
        raise CacheError(
            f"adapter cache length {cache.length} != feature start {features.start}"
        )
    x = features.values
    attn_out = causal_attention(
        adapter.attn, rmsnorm(x, adapter.input_norm, RMS_EPS), cache, features.start, rope,
        window=WINDOW, last_row=last_row,
    )
    return rmsnorm(x[len(x) - len(attn_out) :] + attn_out, adapter.output_norm, RMS_EPS)


def draft_logits(
    model: TargetWeights,
    adapter: AdapterWeights,
    features: FeatureBlock,
    caches: KVCacheSet,
) -> tuple[np.ndarray, float, int]:
    """Draft prediction after the block's last feature.

    Returns ``(logits, confidence, token)`` where confidence is the top-1
    softmax probability and token its greedy argmax.  Passing more than one
    feature appends K/V for all of them (a session's rows not yet probed: a
    fully accepted round's final feature, its last ``WINDOW`` prompt rows,
    or the rows of greedy steps taken since its last probe)
    while attending only from the last, over the keys of the last ``WINDOW``
    positions: the rows older than that are neither projected nor read.

    The top-1 probability is ``1 / sum(exp(logits - logits[token]))``: the
    same bits as ``max(softmax(logits))``, whose top entry is ``exp(0) = 1``
    over the same sum, without building the probability vector.
    """
    refined = adapter_forward(adapter, features, caches.adapter, model.rope, last_row=True)
    logits = matmul(refined, model.lm_head)[0]
    token = argmax_token(logits)
    confidence = 1 / np.add.reduce(np.exp(logits - logits[token]))
    return logits, float(confidence), token


class AdapterVariant(enum.Enum):
    """Architecture variants compared in the adapter ablation.

    ``ATTENTION_ONLY`` is the deployed adapter (two norms around one
    attention block, sharing the backbone's LM head); the others trade the
    attention block for an FFN, add a private head, or use several
    time-independent linear+head pairs.
    """

    ATTENTION_ONLY = "attention_only"
    ATTENTION_PLUS_HEAD = "attention_plus_head"
    ONE_LAYER_TRANSFORMER = "one_layer_transformer"
    MLP_ONLY = "mlp_only"
    PARALLEL_HEADS = "parallel_heads"


def count_params(
    d_model: int,
    vocab: int,
    ffn_hidden: int,
    variant: AdapterVariant,
    parallel_heads: int = 4,
) -> int:
    """Exact trainable-parameter count of an adapter variant.

    Building blocks: a norm is ``d`` parameters, attention ``4*d**2``, the
    LM head ``d*vocab``, a gated FFN ``3*d*ffn_hidden``, one plain linear
    ``d**2``; PARALLEL_HEADS uses ``parallel_heads`` independent
    (linear + head) pairs.
    """
    if min(d_model, vocab, ffn_hidden) <= 0:
        raise ConfigError("dimensions must be positive")
    d = d_model
    norm, attention, head = d, 4 * d * d, d * vocab
    if variant is AdapterVariant.ATTENTION_ONLY:
        return attention + 2 * norm
    if variant is AdapterVariant.ATTENTION_PLUS_HEAD:
        return attention + 2 * norm + head
    if variant is AdapterVariant.ONE_LAYER_TRANSFORMER:
        return attention + 3 * d * ffn_hidden + 3 * norm
    if variant is AdapterVariant.MLP_ONLY:
        return 2 * d * d + 2 * norm + head
    if variant is AdapterVariant.PARALLEL_HEADS:
        if parallel_heads <= 0:
            raise ConfigError("parallel_heads must be positive")
        return parallel_heads * (d * d + head)
    raise ConfigError(f"unknown adapter variant {variant!r}")
