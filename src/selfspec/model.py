"""The frozen target model: config, weights, split execution, greedy oracle.

The model is a pre-norm decoder stack (rotary attention + gated FFN) split at
``exit_layer``: ``forward_shallow`` runs layers ``[0, exit_layer)`` and emits
early features, ``forward_remaining`` runs the rest plus final norm and LM
head.  Their composition equals a monolithic forward.  ``prefill`` runs a
prompt through both stacks at once with GEMM kernels; every decoder opens
with it, and the distillation teacher runs it on every row.  The greedy
reference decoder below is the correctness oracle for speculative decoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CacheError, CapacityError, ConfigError, ShapeError
from .kernels import (
    AttentionParams,
    LayerKVCache,
    RopeTable,
    argmax_token,
    causal_attention,
    gated_ffn,
    matmul,
    prompt_attention,
    rmsnorm,
    silu,
)
from .seeding import generator

RMS_EPS = 1e-5

# Desk-scale defaults: small enough that full test sweeps run in seconds.
DESK_CONFIG = dict(
    vocab_size=256,
    d_model=64,
    n_heads=4,
    head_dim=16,
    n_layers=8,
    ffn_hidden=172,
    exit_layer=2,
    rope_theta=10000.0,
    max_seq_len=512,
)


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int
    n_heads: int
    head_dim: int
    n_layers: int
    ffn_hidden: int
    exit_layer: int
    rope_theta: float = 10000.0
    max_seq_len: int = 512

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ConfigError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.n_heads < 1 or self.head_dim < 2:
            raise ConfigError(
                f"need n_heads >= 1 and head_dim >= 2, got {self.n_heads} and {self.head_dim}"
            )
        if self.d_model != self.n_heads * self.head_dim:
            raise ConfigError(
                f"d_model {self.d_model} != n_heads*head_dim {self.n_heads * self.head_dim}"
            )
        if not 1 <= self.exit_layer < self.n_layers:
            raise ConfigError(
                f"exit_layer must satisfy 1 <= l < {self.n_layers}, got {self.exit_layer}"
            )
        if self.head_dim % 2 != 0:
            raise ConfigError(f"head_dim must be even for rotary embedding, got {self.head_dim}")
        if self.ffn_hidden < 1 or self.max_seq_len < 1:
            raise ConfigError("ffn_hidden and max_seq_len must be positive")
        if not 0 < self.rope_theta < np.inf:  # NaN fails too
            raise ConfigError(f"rope_theta must be finite and > 0, got {self.rope_theta}")


def desk_config(**overrides) -> ModelConfig:
    return ModelConfig(**{**DESK_CONFIG, **overrides})


@dataclass
class LayerWeights:
    attn_norm: np.ndarray
    attn: AttentionParams
    ffn_norm: np.ndarray
    gate: np.ndarray
    up: np.ndarray
    down: np.ndarray


@dataclass
class TargetWeights:
    """Frozen parameters of the full target model (never trained here)."""

    config: ModelConfig
    token_embedding: np.ndarray
    layers: list[LayerWeights]
    final_norm: np.ndarray
    lm_head: np.ndarray
    rope: RopeTable = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        if self.token_embedding.shape != (cfg.vocab_size, cfg.d_model):
            raise ShapeError(f"token_embedding shape {self.token_embedding.shape}")
        if self.lm_head.shape != (cfg.d_model, cfg.vocab_size):
            raise ShapeError(f"lm_head shape {self.lm_head.shape}")
        if len(self.layers) != cfg.n_layers:
            raise ShapeError(f"expected {cfg.n_layers} layers, got {len(self.layers)}")
        self.rope = RopeTable(
            cfg.head_dim, cfg.rope_theta, cfg.max_seq_len, dtype=self.token_embedding.dtype
        )

    @property
    def dtype(self):
        return self.token_embedding.dtype

    def tensors(self) -> list[np.ndarray]:
        """Every tensor in file order: the embedding, each layer's nine, the
        final norm and the LM head (shapes in ``model_layout``)."""
        layers = [
            tensor
            for lw in self.layers
            for tensor in (lw.attn_norm, lw.attn.wq, lw.attn.wk, lw.attn.wv, lw.attn.wo,
                           lw.ffn_norm, lw.gate, lw.up, lw.down)
        ]
        return [self.token_embedding, *layers, self.final_norm, self.lm_head]

    @classmethod
    def from_tensors(cls, config: ModelConfig, tensors: list[np.ndarray]) -> "TargetWeights":
        """The weights whose ``tensors()`` are ``tensors``."""
        embedding, *layer_tensors, final_norm, lm_head = tensors
        layers = []
        for i in range(0, len(layer_tensors), 9):
            attn_norm, wq, wk, wv, wo, ffn_norm, gate, up, down = layer_tensors[i : i + 9]
            attn = AttentionParams(wq, wk, wv, wo, config.n_heads, config.head_dim)
            layers.append(LayerWeights(attn_norm, attn, ffn_norm, gate, up, down))
        return cls(config, embedding, layers, final_norm, lm_head)

    def astype(self, dtype) -> "TargetWeights":
        """Copy of the weights in another precision (e.g. float64 for training)."""
        return self.from_tensors(self.config, [tensor.astype(dtype) for tensor in self.tensors()])


def model_layout(config: ModelConfig) -> list[tuple[int, list[tuple[int, ...]]]]:
    """Tensor shapes in ``TargetWeights.tensors()`` order, as ``(repeats,
    shapes)`` groups: the embedding, one layer's (repeated ``n_layers``
    times), then the final norm and LM head.  A file's size follows from
    the groups without listing every layer."""
    d, h, v = config.d_model, config.ffn_hidden, config.vocab_size
    layer = [(d,), (d, d), (d, d), (d, d), (d, d), (d,), (d, h), (d, h), (h, d)]
    return [(1, [(v, d)]), (config.n_layers, layer), (1, [(d,), (d, v)])]


@dataclass
class FeatureBlock:
    """Early features for contiguous positions ``start..start+T-1``.

    These are the layer-``exit_layer`` hidden states before any adapter
    processing; both drafting and verification consume them.
    """

    start: int
    values: np.ndarray  # (T, d_model)

    def __post_init__(self) -> None:
        if self.values.ndim != 2 or self.values.shape[0] == 0:
            raise ShapeError(f"feature block must be non-empty 2-D, got {self.values.shape}")

    def __len__(self) -> int:
        return self.values.shape[0]


class KVCacheSet:
    """The target's caches of one decoding session, one per layer.

    ``shallow`` covers layers ``[0, exit_layer)`` and ``deep`` covers
    ``[exit_layer, n_layers)``.  During drafting the shallow caches run
    ahead of the deep ones by at most the draft window; ``rollback``
    truncates both back to a committed prefix.  The caches are allocated
    once, as views of one key and one value array (``LayerKVCache.stack``),
    for ``capacity`` positions: a request's length, or by default the whole
    context.  ``values`` is that stacked value array.
    """

    def __init__(self, config: ModelConfig, dtype=np.float32, capacity: int | None = None):
        capacity = config.max_seq_len if capacity is None else capacity
        caches = LayerKVCache.stack(config.n_layers, capacity, config.n_heads, config.head_dim, dtype)
        self.shallow = caches[: config.exit_layer]
        self.deep = caches[config.exit_layer :]
        self.values = caches[0].values.base  # (n_layers, heads, rows, head_dim)

    @property
    def shallow_len(self) -> int:
        return self.shallow[0].length

    @property
    def deep_len(self) -> int:
        return self.deep[0].length

    def rollback(self, to_length: int) -> None:
        """Truncate every cache to ``to_length`` committed positions, or none if
        any is shorter.  Every cache's value rows past its length are zero,
        so one write zeroes the rows past ``to_length`` up to the longest."""
        caches = self.shallow + self.deep
        lengths = [cache.length for cache in caches]
        if not 0 <= to_length <= min(lengths):
            raise CacheError(f"cannot roll back caches of lengths {lengths} to {to_length}")
        self.values[:, :, to_length : max(lengths)] = 0
        for cache in caches:
            cache.length = to_length


# LM head drawn sharper than the hidden layers: a 1/sqrt(d) head makes
# desk-scale output distributions nearly uniform (entropy ~ ln V), leaving
# distillation no measurable signal; 4x brings teacher entropy to ~1.8 nats
# at the default config without disturbing the residual stream.
HEAD_SCALE = 4.0


def gen_model(config: ModelConfig, seed: int) -> TargetWeights:
    """Synthetic frozen weights: N(0, 1/sqrt(d_model)) matrices drawn in file
    order, unit norms, and the LM head scaled by ``HEAD_SCALE``."""
    rng = generator(seed, "model")
    scale = np.float32(1.0 / np.sqrt(config.d_model))
    tensors = [
        rng.standard_normal(shape, dtype=np.float32) * scale
        if len(shape) == 2 else np.ones(shape, dtype=np.float32)
        for repeats, shapes in model_layout(config) for _ in range(repeats) for shape in shapes
    ]
    tensors[-1] *= np.float32(HEAD_SCALE)
    return TargetWeights.from_tensors(config, tensors)


def gen_passthrough_model(config: ModelConfig, seed: int) -> TargetWeights:
    """Planted fixture: zero projections, so every layer is the identity.

    The hidden state stays equal to the token embedding at every depth, which
    makes the target's greedy output a pure token-to-token map and lets a
    zero-attention adapter reproduce the target exactly.
    """
    weights = gen_model(config, seed)
    for tensor in weights.tensors()[1:-2]:  # the layers' tensors
        if tensor.ndim == 2:
            tensor[:] = 0.0
    return weights


def _block(x, layer: LayerWeights, cache: LayerKVCache, start: int, rope: RopeTable):
    h = x + causal_attention(layer.attn, rmsnorm(x, layer.attn_norm, RMS_EPS), cache, start, rope)
    return h + gated_ffn(rmsnorm(h, layer.ffn_norm, RMS_EPS), layer.gate, layer.up, layer.down)


def forward_shallow(
    weights: TargetWeights, tokens: list[int] | np.ndarray, caches: KVCacheSet
) -> FeatureBlock:
    """Embed ``tokens`` and run layers ``[0, exit_layer)``, appending K/V.

    The tokens occupy positions ``shallow_len..shallow_len+T-1``; the return
    value is the early-feature block at those positions.
    """
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ShapeError("forward_shallow expects a non-empty token sequence")
    start = caches.shallow_len
    if start + tokens.size > weights.config.max_seq_len:
        raise CapacityError(
            f"positions {start}..{start + tokens.size - 1} exceed max_seq_len "
            f"{weights.config.max_seq_len}"
        )
    embedding = weights.token_embedding
    # a one-token step reads its embedding row as a view instead of gathering a copy
    h = embedding[tokens] if len(tokens) > 1 else embedding[tokens[0]][None]
    for i in range(weights.config.exit_layer):
        h = _block(h, weights.layers[i], caches.shallow[i], start, weights.rope)
    return FeatureBlock(start=start, values=h)


def forward_remaining(
    weights: TargetWeights, features: FeatureBlock, caches: KVCacheSet
) -> np.ndarray:
    """Run layers ``[exit_layer, n_layers)`` plus final norm and LM head.

    Returns one logits row per feature.  Feature positions must continue the
    deep cache exactly; composition with ``forward_shallow`` over the same
    positions reproduces a full-model forward.
    """
    if features.start != caches.deep_len:
        raise CacheError(
            f"feature block starts at {features.start} but deep cache has "
            f"{caches.deep_len} positions"
        )
    cfg = weights.config
    h = features.values
    for i in range(cfg.n_layers - cfg.exit_layer):
        h = _block(h, weights.layers[cfg.exit_layer + i], caches.deep[i], features.start, weights.rope)
    return matmul(rmsnorm(h, weights.final_norm, RMS_EPS), weights.lm_head)


def full_forward(
    weights: TargetWeights, tokens: list[int] | np.ndarray, caches: KVCacheSet
) -> np.ndarray:
    """Full-model logits for ``tokens`` via the split path (shallow then deep)."""
    return forward_remaining(weights, forward_shallow(weights, tokens, caches), caches)


def _prompt_block(x, layer: LayerWeights, cache: LayerKVCache, rope: RopeTable, last_row: bool):
    attn = prompt_attention(layer.attn, rmsnorm(x, layer.attn_norm, RMS_EPS), cache, rope, last_row)
    h = (x[-1:] if last_row else x) + attn
    normed = rmsnorm(h, layer.ffn_norm, RMS_EPS)
    return h + (silu(normed @ layer.gate) * (normed @ layer.up)) @ layer.down


def prefill(
    weights: TargetWeights, prompt: list[int] | np.ndarray, caches: KVCacheSet,
    last_row: bool = True,
) -> tuple[FeatureBlock, np.ndarray]:
    """Run ``prompt`` from position 0 through both stacks with GEMM kernels.

    Fills the empty shallow and deep caches with the prompt's K/V rows and
    returns the early features of every prompt row and the logits of the
    last one (the target's token after the prompt).  The final layer caches
    every row's K/V but queries only the last row, and runs its ``wo``,
    residual and FFN on that row alone.  The products are plain BLAS GEMMs,
    whose bits depend on the prompt length, so agreement with
    ``full_forward`` is within rounding; the last row's final-layer
    products are GEMVs, not rows of GEMMs, which moves the logits' low bits.
    Greedy equality needs only that every decoder opens with this same call
    on the same rows (kernels module docstring).

    With ``last_row=False`` the final layer and the LM head run on every
    row, as GEMMs, and the logits are ``(T, vocab)``: the distillation
    teacher's pass.  Features and K/V rows are the same bits either way.
    """
    tokens = np.asarray(prompt, dtype=np.int64)
    if tokens.ndim != 1 or tokens.size == 0:
        raise ShapeError("prefill expects a non-empty token sequence")
    if tokens.size > weights.config.max_seq_len:
        raise CapacityError(
            f"prompt of {tokens.size} tokens exceeds max_seq_len {weights.config.max_seq_len}"
        )
    if caches.shallow_len or caches.deep_len:
        raise CacheError("prefill needs empty shallow and deep caches")
    cfg = weights.config
    h = weights.token_embedding[tokens]
    for i, (layer, cache) in enumerate(zip(weights.layers, caches.shallow + caches.deep)):
        if i == cfg.exit_layer:
            features = FeatureBlock(start=0, values=h)
        h = _prompt_block(h, layer, cache, weights.rope, last_row and i == cfg.n_layers - 1)
    normed = rmsnorm(h, weights.final_norm, RMS_EPS)
    return features, matmul(normed, weights.lm_head)[0] if last_row else normed @ weights.lm_head


def check_prompt(prompt: list[int], config: ModelConfig) -> None:
    """Raise ``ConfigError`` unless ``prompt`` is non-empty and every id is in the vocabulary."""
    if len(prompt) == 0:
        raise ConfigError("prompt must be non-empty")
    if any(not 0 <= t < config.vocab_size for t in prompt):
        raise ConfigError("prompt token id outside vocabulary")


def context_room(config: ModelConfig, length: int) -> int:
    """The tokens that still fit after ``length``: the newest token is never
    fed back, so a request fits when ``len(prompt) + n_tokens <= max_seq_len + 1``."""
    return config.max_seq_len + 1 - length


def check_request(prompt: list[int], n_tokens: int, config: ModelConfig) -> None:
    """``check_prompt``, then ``ConfigError`` for a negative ``n_tokens`` and
    ``CapacityError`` for more than ``context_room`` tokens."""
    check_prompt(prompt, config)
    if n_tokens < 0:
        raise ConfigError(f"n_tokens must be >= 0, got {n_tokens}")
    if n_tokens > context_room(config, len(prompt)):
        raise CapacityError(
            f"prompt ({len(prompt)}) + n_tokens ({n_tokens}) exceeds max_seq_len + 1 = "
            f"{config.max_seq_len + 1}"
        )


def vanilla_greedy_decode(
    weights: TargetWeights, prompt: list[int], n_tokens: int
) -> list[int]:
    """One-token-per-forward greedy decoding: the losslessness oracle.

    The prompt goes through ``prefill``, every later token through the
    batch-invariant one-row steps, over caches sized by the request.  A
    request past ``context_room`` raises ``CapacityError`` before any pass;
    ``generate`` emits up to the same bound.
    """
    check_request(prompt, n_tokens, weights.config)
    if n_tokens == 0:
        return []
    caches = KVCacheSet(weights.config, weights.dtype, len(prompt) + n_tokens - 1)
    _, logits = prefill(weights, prompt, caches)
    out = [argmax_token(logits)]
    for _ in range(n_tokens - 1):
        out.append(argmax_token(full_forward(weights, [out[-1]], caches)[-1]))
    return out
