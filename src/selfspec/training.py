"""Distillation training of the draft adapter against the frozen target.

The loss is soft cross-entropy between the target model's full-forward
distribution (teacher) and the adapter's shared-head distribution (student),
summed over positions and vocabulary.  Gradients are derived analytically
for the adapter parameters only -- the backbone and LM head never receive
gradients -- and are verified coordinate-by-coordinate against central
finite differences in the test suite.  Training runs in float64.

Every product here is a plain BLAS GEMM: the teacher is ``prefill`` with
``last_row=False``, and the student's taped forward and backward use ``@``
for the projections and one ``np.matmul`` over ``(heads, T, .)`` stacks
for each attention contraction.  Batch invariance matters only where two
decoders must agree bit for bit; a training run's sums may depend on the
sequence length, as long as they are deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .adapter import WINDOW, AdapterWeights
from .errors import ConfigError, ShapeError
from .kernels import RopeTable, _causal_mask, softmax
from .model import RMS_EPS, KVCacheSet, TargetWeights, prefill
from .seeding import generator

LOG_CLAMP = 1e-12


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.01
    epochs: int = 10
    batch: int = 8
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("learning_rate", "weight_decay"):  # NaN fails too
            if not 0 <= getattr(self, name) < np.inf:
                raise ConfigError(f"{name} must be finite and >= 0, got {getattr(self, name)}")
        b1, b2 = self.betas
        if not (0.0 <= b1 < 1.0 and 0.0 <= b2 < 1.0):
            raise ConfigError(f"betas must lie in [0, 1), got {self.betas}")
        if self.epochs < 1 or self.batch < 1:
            raise ConfigError("epochs and batch must be >= 1")


@dataclass
class DistillBatch:
    """Early features of one sequence plus the teacher's distributions."""

    early_features: np.ndarray  # (T, d)
    teacher_probs: np.ndarray  # (T, V)

    def __post_init__(self) -> None:
        if (
            self.early_features.ndim != 2
            or self.teacher_probs.ndim != 2
            or self.early_features.shape[0] != self.teacher_probs.shape[0]
        ):
            raise ShapeError(
                f"inconsistent batch shapes {self.early_features.shape} vs "
                f"{self.teacher_probs.shape}"
            )
        sums = self.teacher_probs.sum(axis=-1)
        if np.max(np.abs(sums - 1.0)) > 1e-5:
            raise ShapeError("teacher rows must sum to 1")

    @property
    def positions(self) -> int:
        return self.early_features.shape[0]


def distill_loss(student_logits: np.ndarray, teacher_probs: np.ndarray) -> float:
    """Soft cross-entropy summed over positions and vocabulary.

    ``-sum_t sum_n teacher[t,n] * log(student[t,n])`` with the student
    log-probability clamped at ``log(1e-12)`` so saturated rows stay finite.
    """
    if student_logits.shape != teacher_probs.shape:
        raise ShapeError(
            f"logits shape {student_logits.shape} != teacher shape {teacher_probs.shape}"
        )
    sums = teacher_probs.sum(axis=-1)
    if np.max(np.abs(sums - 1.0)) > 1e-5:
        raise ShapeError("teacher rows must sum to 1")
    return _soft_cross_entropy(student_logits, teacher_probs)[0]


def _soft_cross_entropy(logits: np.ndarray, teacher_probs: np.ndarray) -> tuple[float, np.ndarray]:
    """``distill_loss`` without its input checks, and the student log-probabilities."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    logp = shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))
    return float(-np.sum(teacher_probs * np.maximum(logp, np.log(LOG_CLAMP)))), logp


def _rms_forward(x: np.ndarray, scale: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    r = np.sqrt(np.mean(np.square(x), axis=-1, keepdims=True) + RMS_EPS)
    return scale * x / r, r


def _rms_backward(
    dy: np.ndarray, x: np.ndarray, scale: np.ndarray, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    d = x.shape[-1]
    dscale = np.sum(dy * x / r, axis=0)
    inner = np.sum(dy * scale * x, axis=-1, keepdims=True)
    dx = dy * scale / r - x * inner / (d * r**3)
    return dx, dscale


def adapter_student_forward(
    adapter: AdapterWeights, features: np.ndarray, lm_head: np.ndarray, rope: RopeTable
) -> tuple[np.ndarray, tuple]:
    """Full-sequence student logits via the taped forward (no caches).

    Mathematically identical to the cached inference path: row ``t`` attends
    to the band of keys ``t-WINDOW+1..t``, masked by the same
    ``_causal_mask`` table that drafting reads, so a sequence of at most
    ``WINDOW`` positions is plainly causal.  Returns the logits and the tape
    of intermediates that ``adapter_backward`` reuses; its queries, keys,
    values and weights are head-major, ``(heads, T, .)``.
    """
    x = features
    t_len, d = x.shape
    h, hd = adapter.attn.n_heads, adapter.attn.head_dim
    hidden = _causal_mask(rope.max_len, WINDOW)[:t_len, :t_len]
    xn, r1 = _rms_forward(x, adapter.input_norm)
    q, k, v = (xn @ adapter.attn.wqkv).reshape(3, t_len, h, hd)
    qr = rope.apply_block(q, 0).transpose(1, 0, 2)
    kr = rope.apply_block(k, 0).transpose(1, 0, 2)
    v = v.transpose(1, 0, 2)
    scores = np.matmul(qr, kr.transpose(0, 2, 1)) / np.sqrt(hd)
    np.copyto(scores, -np.inf, where=hidden)
    probs = softmax(scores, axis=-1)  # (H, T, T)
    ao = np.matmul(probs, v).transpose(1, 0, 2).reshape(t_len, d)
    z = x + ao @ adapter.attn.wo
    y, r2 = _rms_forward(z, adapter.output_norm)
    return y @ lm_head, (xn, r1, qr, kr, v, probs, ao, z, r2)


def adapter_backward(
    adapter: AdapterWeights,
    batch: DistillBatch,
    lm_head: np.ndarray,
    rope: RopeTable,
) -> tuple[float, dict[str, np.ndarray]]:
    """Loss and analytic adapter gradients for one sequence batch.

    Runs the taped forward and backpropagates through the output norm, the
    banded causal attention with rotary embedding, and the input norm; the
    keys outside a row's band have zero weight on the tape, so they get no
    gradient from that row.  Only
    adapter tensors receive gradients, keyed like ``AdapterWeights.tensors()``.
    """
    x = batch.early_features
    q_teacher = batch.teacher_probs
    t_len, d = x.shape
    h, hd = adapter.attn.n_heads, adapter.attn.head_dim
    inv_sqrt = 1.0 / np.sqrt(hd)
    logits, (xn, r1, qr, kr, v, probs, ao, z, r2) = adapter_student_forward(
        adapter, x, lm_head, rope
    )

    loss, logp = _soft_cross_entropy(logits, q_teacher)

    # Backward.
    dlogp = np.where(logp > np.log(LOG_CLAMP), -q_teacher, 0.0)
    p_student = np.exp(logp)
    dlogits = dlogp - p_student * np.sum(dlogp, axis=-1, keepdims=True)
    dy = dlogits @ lm_head.T
    dz, d_output_norm = _rms_backward(dy, z, adapter.output_norm, r2)
    dao = (dz @ adapter.attn.wo.T).reshape(t_len, h, hd).transpose(1, 0, 2)
    dwo = ao.T @ dz

    dprobs = np.matmul(dao, v.transpose(0, 2, 1))
    dv = np.matmul(probs.transpose(0, 2, 1), dao)
    dscores = probs * (dprobs - np.sum(dprobs * probs, axis=-1, keepdims=True))
    dqr = np.matmul(dscores, kr) * inv_sqrt
    dkr = np.matmul(dscores.transpose(0, 2, 1), qr) * inv_sqrt
    dq = rope.apply_inverse_block(dqr.transpose(1, 0, 2), 0).reshape(t_len, d)
    dk = rope.apply_inverse_block(dkr.transpose(1, 0, 2), 0).reshape(t_len, d)
    dv = dv.transpose(1, 0, 2).reshape(t_len, d)

    dwq, dwk, dwv = xn.T @ dq, xn.T @ dk, xn.T @ dv
    dxn = dq @ adapter.attn.wq.T + dk @ adapter.attn.wk.T + dv @ adapter.attn.wv.T
    _, d_input_norm = _rms_backward(dxn, x, adapter.input_norm, r1)

    grads = (d_input_norm, dwq, dwk, dwv, dwo, d_output_norm)  # in tensors() order
    return loss, dict(zip(adapter.tensors(), grads))


class AdamW:
    """Adam with decoupled weight decay.

    The decay step ``theta -= weight_decay * theta`` is applied separately
    from (and unscaled by) the learning rate, following the decoupled
    formulation: with ``lr == 0`` only the decay term moves the weights.
    """

    def __init__(self, cfg: TrainConfig):
        self.lr = cfg.learning_rate
        self.beta1, self.beta2 = cfg.betas
        self.weight_decay = cfg.weight_decay
        self.eps = 1e-8
        self.step_count = 0
        self.m: dict[str, np.ndarray] = {}
        self.v: dict[str, np.ndarray] = {}

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        bias1 = 1.0 - self.beta1**self.step_count
        bias2 = 1.0 - self.beta2**self.step_count
        for name, theta in params.items():
            g = grads[name]
            if name not in self.m:
                self.m[name] = np.zeros_like(theta)
                self.v[name] = np.zeros_like(theta)
            self.m[name] = self.beta1 * self.m[name] + (1.0 - self.beta1) * g
            self.v[name] = self.beta2 * self.v[name] + (1.0 - self.beta2) * np.square(g)
            update = (self.m[name] / bias1) / (np.sqrt(self.v[name] / bias2) + self.eps)
            theta -= self.lr * update + self.weight_decay * theta


def build_distill_batches(
    model: TargetWeights, corpus: list[list[int]]
) -> list[DistillBatch]:
    """Teacher pass: early features and full-model distributions per sequence.

    Each sequence is one every-row ``prefill`` in float64, over caches sized
    by the sequence.
    """
    model64 = model if model.dtype == np.float64 else model.astype(np.float64)
    batches = []
    for seq in corpus:
        caches = KVCacheSet(model64.config, np.float64, len(seq))
        features, logits = prefill(model64, seq, caches, last_row=False)
        batches.append(
            DistillBatch(
                early_features=features.values,
                teacher_probs=softmax(logits, axis=-1),
            )
        )
    return batches


def train_adapter(
    model: TargetWeights,
    adapter_init: AdapterWeights,
    corpus: list[list[int]],
    cfg: TrainConfig,
) -> tuple[AdapterWeights, list[float]]:
    """Distill the adapter for ``cfg.epochs`` epochs; returns per-epoch mean loss.

    Teacher distributions are computed once per sequence up front; epochs
    shuffle sequence order deterministically from ``cfg.seed`` and apply one
    optimizer step per batch with gradients averaged over token positions.
    The returned weights are cast back to float32 for inference.
    """
    if not corpus:
        raise ConfigError("training corpus is empty")
    if any(len(seq) == 0 for seq in corpus):
        raise ConfigError("training corpus contains an empty sequence")
    model64 = model.astype(np.float64)
    batches = build_distill_batches(model64, corpus)
    # Training needs only the head and the rope table; drop the rest of the copy.
    lm_head, rope = model64.lm_head, model64.rope
    del model64

    adapter = adapter_init.astype(np.float64)
    params = adapter.tensors()
    optimizer = AdamW(cfg)
    rng = generator(cfg.seed, "train")
    curve: list[float] = []
    # a diverging run may overflow; weights past float32's range then fail to save
    with np.errstate(over="ignore"):
        for _ in range(cfg.epochs):
            order = rng.permutation(len(batches))
            epoch_loss, epoch_positions = 0.0, 0
            for chunk_start in range(0, len(order), cfg.batch):
                chunk = order[chunk_start : chunk_start + cfg.batch]
                grad_sum = {name: np.zeros_like(p) for name, p in params.items()}
                positions = 0
                for idx in chunk:
                    loss, grads = adapter_backward(adapter, batches[idx], lm_head, rope)
                    epoch_loss += loss
                    positions += batches[idx].positions
                    for name, grad in grads.items():
                        grad_sum[name] += grad
                epoch_positions += positions
                mean_grads = {name: g / positions for name, g in grad_sum.items()}
                optimizer.step(params, mean_grads)
            curve.append(epoch_loss / epoch_positions)
        return adapter.astype(np.float32), curve
