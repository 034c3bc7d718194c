"""Dense kernels shared by the target model, the draft adapter, and training.

Greedy losslessness is checked at zero tolerance.  It rests on two facts:

1. Both decoders get their prompt rows from one identical, deterministic
   call.  The model's ``prefill`` runs a prompt from position 0 through
   ``prompt_attention``, plain BLAS GEMMs whose bits may depend on the row
   count; ``prefill`` is the kernel's only caller, and the decoders and
   the distillation teacher its only users.  The greedy reference and a
   speculative session open with it on the same rows, so their prompt K/V
   rows and first token agree.  Training needs no batch invariance:
   nothing compares its results bit for bit with another computation, and
   greedy equality holds for any adapter weights.  So the teacher (an
   every-row ``prefill``) and the adapter's taped forward and backward run
   on plain GEMMs, whose bits need only be deterministic.
2. Every row after the prompt goes through the kernels below, which are
   *batch-shape stable*: the bits of an output row depend only on that
   row's inputs, never on how many rows were computed in the same call.
   So a batched verification forward equals one-token-at-a-time decoding
   over the same prefix.

The stable kernels, concretely:

- A matrix product is one BLAS GEMV per row, ``np.vecmat(a, b)``: numpy's
  vector-matrix gufunc runs the GEMV that ``np.matmul(a[:, None, :], b)``
  runs per row, with fewer wrapper layers.  Every row is its own call with
  the same shapes and strides, so it runs the same instructions whatever
  the row count, one row included.  Plain ``a @ b`` is not stable for two
  or more rows: BLAS switches from GEMV to a blocked GEMM whose
  accumulation order differs, at row counts that depend on the shape.
- The q, k and v projections are one ``np.vecmat`` of the rows against the
  stacked ``(3, d, d)`` weights: the same GEMV per row and plane as three
  separate products, in one dispatch.
- Every per-row dot product is one BLAS dot, ``np.vecdot``.
- Attention runs per block of query rows over a key span of whole 64-key
  chunks, from position 0 through the chunk that holds the block's last
  row (the buffers hold whole chunks).  A windowed call (the draft
  adapter's) starts its span at the chunk that holds the block's oldest
  visible key instead.  The cache holds each head's keys as the columns of
  a ``(head_dim, rows)`` matrix, so a row's scores are one GEMV per head
  of the query against the span's key columns, which BLAS vectorises
  across the keys: each key's score is a fixed-order sum over ``head_dim``.
  A GEMV over a row's own keys would not do: BLAS handles the keys in
  vector-wide groups plus a remainder, so a key's arithmetic would depend
  on how many keys the call holds, and that count differs between the rows
  of one call.  Over whole chunks there is no remainder: a GEMV over n*64
  key columns gives each key the score that a 64-key GEMV gives it, bit
  for bit, so a key's score depends only on the query and the key.
- Keys a row may not see, including the padding past the cache length, get
  a score of -inf, so their softmax weights are exactly 0.  The value rows
  there are finite (unfilled, skipped and rolled-back rows are zeroed).  A
  row's context numerator is one GEMV of its weights against the span's
  value rows, and its weight sum one BLAS dot of the weights with a vector
  of ones.  A batched call's span can reach whole chunks past the row's own
  span, and trailing chunks of exact-zero weights leave the GEMV's and the
  dot's results unchanged, bit for bit; under a window, so do leading ones.
- These GEMV and dot facts are properties of the BLAS build, not of numpy's
  contract; ``TestBatchInvariance`` pins them for numpy 2.4.6 with
  OpenBLAS 0.3.31, and that ``vecmat`` and ``vecdot`` give the bits of the
  per-row ``np.matmul`` calls.
- rmsnorm's mean square is one BLAS dot per row.  The max over keys is
  exact in any order; ``np.fmax`` takes it from the dtype's lowest finite
  value, which skips NaN scores, but a NaN score still makes its row NaN
  through ``exp`` and the weight sum.

The acceptance suite relies on both facts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CacheError, CapacityError, ConfigError, ShapeError


_KEY_CHUNK = 64  # attention spans come in whole chunks; so do cache buffers
_ROW_BLOCK = 32  # query rows per masked attention pass; bounds the score buffer


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with a fixed, shape-independent accumulation order."""
    if a.ndim != 2 or b.ndim != 2:
        raise ShapeError(f"matmul expects 2-D operands, got {a.ndim}-D and {b.ndim}-D")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
    return np.vecmat(np.ascontiguousarray(a), np.ascontiguousarray(b))


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax (max-subtracted) along ``axis``."""
    x = np.asarray(x)
    if x.size == 0:
        raise ShapeError("softmax of an empty array")
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def argmax_token(logits: np.ndarray) -> int:
    """Index of the maximum logit; ties break to the lowest index."""
    if logits.ndim != 1 or logits.size == 0:
        raise ShapeError("argmax_token expects a non-empty 1-D vector")
    return int(logits.argmax())


@lru_cache(maxsize=None)
def _scalars(dtype: np.dtype, *values: float) -> tuple:
    """``values`` as scalars of ``dtype``, built once per key."""
    return tuple(dtype.type(v) for v in values)


@lru_cache(maxsize=None)
def _lowest(dtype: np.dtype):
    """``dtype``'s lowest finite value: a row max from there never subtracts -inf from -inf."""
    return np.finfo(dtype).min


def rmsnorm(x: np.ndarray, scale: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """RMS normalization: ``scale * x / sqrt(mean(x**2) + eps)`` per row."""
    if x.shape[-1] != scale.shape[-1] or scale.ndim != 1:
        raise ShapeError(f"rmsnorm scale {scale.shape} does not match input {x.shape}")
    width, eps = _scalars(x.dtype, x.shape[-1], eps)
    # one BLAS dot per row (np.vecdot), like the GEMV rows of matmul
    ms = np.vecdot(x, x)[..., None] / width
    return scale * (x / np.sqrt(ms + eps))


def silu(x: np.ndarray) -> np.ndarray:
    """x * sigmoid(x) via tanh, overflow-free for large |x|."""
    (half,) = _scalars(x.dtype, 0.5)
    return x * (half * np.tanh(half * x) + half)


class RopeTable:
    """Precomputed rotary-embedding angles for positions ``0..max_len-1``.

    Pairs are adjacent lanes ``(2i, 2i+1)`` rotated by
    ``position * theta**(-2i/head_dim)``.  Angles are evaluated in float64
    once and cast, so every forward path sees identical rotation constants.
    Adjacent pairs map exactly onto complex lanes, so the rotation is one
    elementwise complex multiply (deterministic per element).
    """

    def __init__(self, head_dim: int, theta: float, max_len: int, dtype=np.float32):
        if head_dim % 2 != 0:
            raise ConfigError(f"rope requires an even head_dim, got {head_dim}")
        self.head_dim = head_dim
        self.theta = float(theta)
        self.max_len = max_len
        pair = np.arange(head_dim // 2, dtype=np.float64)
        inv_freq = self.theta ** (-2.0 * pair / head_dim)
        angles = np.arange(max_len, dtype=np.float64)[:, None] * inv_freq[None, :]
        self.cos = np.cos(angles).astype(dtype)
        self.sin = np.sin(angles).astype(dtype)
        cdtype = np.complex128 if np.dtype(dtype) == np.float64 else np.complex64
        self._cis = (self.cos + 1j * self.sin).astype(cdtype)
        self._cis_conj = np.conj(self._cis)
        self._real = np.dtype(dtype)

    def _rotate(self, x: np.ndarray, start: int, table: np.ndarray) -> np.ndarray:
        # Row t of x (T, heads, head_dim) turns by table[start + t].
        t = x.shape[0]
        if x.shape[-1] != self.head_dim:
            raise ShapeError(f"rope head_dim mismatch: {x.shape[-1]} != {self.head_dim}")
        if not (0 <= start and start + t <= self.max_len):
            raise CapacityError(
                f"rope positions {start}..{start + t - 1} outside 0..{self.max_len - 1}"
            )
        x = np.ascontiguousarray(x)  # the same multiply loop for every row count
        return (x.view(table.dtype) * table[start : start + t, None, :]).view(self._real)

    def apply_block(self, x: np.ndarray, start: int) -> np.ndarray:
        """Rotate rows of ``x`` (T, heads, head_dim) at positions ``start..start+T-1``.

        Elementwise-identical to rotating each row in a one-row call.
        """
        return self._rotate(x, start, self._cis)

    def apply_inverse_block(self, x: np.ndarray, start: int) -> np.ndarray:
        """Inverse of ``apply_block`` at the same positions (the transposed rotations)."""
        return self._rotate(x, start, self._cis_conj)


@dataclass
class AttentionParams:
    """Square projection weights of one multi-head attention block.

    After construction ``wq``, ``wk`` and ``wv`` are the three contiguous
    planes of one ``(3, d, d)`` array ``wqkv``, which attention projects
    with in one call; in-place edits of a plane reach it.
    """

    wq: np.ndarray
    wk: np.ndarray
    wv: np.ndarray
    wo: np.ndarray
    n_heads: int
    head_dim: int
    wqkv: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        d = self.n_heads * self.head_dim
        for name in ("wq", "wk", "wv", "wo"):
            w = getattr(self, name)
            if w.shape != (d, d):
                raise ShapeError(f"attention weight {name} must be {d}x{d}, got {w.shape}")
        self.wqkv = np.stack((self.wq, self.wk, self.wv))
        self.wq, self.wk, self.wv = self.wqkv


@lru_cache(maxsize=16)
def _ones(dtype: np.dtype, size: int) -> np.ndarray:
    """Read-only vector of ``size`` ones: attention sums its weights as products with it."""
    ones = np.ones(size, dtype=dtype)
    ones.flags.writeable = False
    return ones


@lru_cache(maxsize=16)
def _causal_mask(rows: int, window: int | None = None) -> np.ndarray:
    """Read-only ``(rows, rows)`` view: ``mask[p, j]`` is ``j > p``, and with a
    ``window`` also ``j <= p - window`` (key ``j`` older than the window).

    Row ``p`` is the window of one 1-D ramp that turns true after its first
    ``p + 1`` entries, so the table costs about ``2 * rows`` bytes.
    """
    index = np.arange(2 * rows - 1)
    ramp = index >= rows
    if window is not None:
        ramp |= index < rows - window
    return np.lib.stride_tricks.sliding_window_view(ramp, rows)[::-1]


class LayerKVCache:
    """Per-layer key/value store of ``capacity`` rows, with O(1) truncate.

    The buffers are allocated once, zeroed, at ``capacity`` rows padded to
    whole key chunks; ``length`` marks how many positions are filled.
    Truncation moves the length marker back, which is exactly the rollback
    semantics verification needs, and zeroes the dropped value rows, so the
    rows that attention reads past ``length`` always hold finite values.
    Each head's keys are columns and its values rows: ``keys`` is
    ``(heads, head_dim, rows)`` and ``values`` is ``(heads, rows, head_dim)``,
    so a key span ``keys[:, :, k0:k1]`` and a value span ``values[:, k0:k1]``
    are attention's GEMV operands as they lie.  ``stack`` makes caches that
    are views of one key array and one value array.
    """

    def __init__(self, capacity: int, n_heads: int, head_dim: int, dtype=np.float32,
                 buffers: tuple[np.ndarray, np.ndarray] | None = None):
        self.capacity = capacity
        self.length = 0
        if buffers is None:  # a standalone cache is the one cache of a stack of one
            (own,) = self.stack(1, capacity, n_heads, head_dim, dtype)
            buffers = own.keys, own.values
        self.keys, self.values = buffers
        # (rows, heads, head_dim) views for ``extend``: cheaper per call than transposing rows
        self._key_rows = self.keys.transpose(2, 0, 1)
        self._value_rows = self.values.transpose(1, 0, 2)

    @classmethod
    def stack(cls, count: int, capacity: int, n_heads: int, head_dim: int,
              dtype=np.float32) -> list[LayerKVCache]:
        """``count`` caches whose buffers are views of one key and one value array."""
        rows = -(-capacity // _KEY_CHUNK) * _KEY_CHUNK  # whole key chunks
        keys = np.zeros((count, n_heads, head_dim, rows), dtype=dtype)
        values = np.zeros((count, n_heads, rows, head_dim), dtype=dtype)
        return [cls(capacity, n_heads, head_dim, dtype, pair) for pair in zip(keys, values)]

    def extend(self, k_rows: np.ndarray, v_rows: np.ndarray) -> None:
        """Append ``(T, heads, head_dim)`` key and value rows."""
        end = self.length + k_rows.shape[0]
        if end > self.capacity:
            raise CapacityError(f"KV cache full at {self.capacity} positions")
        self._key_rows[self.length : end] = k_rows
        self._value_rows[self.length : end] = v_rows
        self.length = end

    def start_at(self, position: int) -> None:
        """Open an empty cache at ``position``: the rows before it stay zero.

        For a windowed reader (the draft adapter), which never reads them.
        """
        if self.length != 0 or not 0 <= position <= self.capacity:
            raise CacheError(f"cannot start a cache of length {self.length} at {position}")
        self.length = position

    def truncate(self, to_length: int) -> None:
        if not 0 <= to_length <= self.length:
            raise CacheError(f"cannot truncate cache of length {self.length} to {to_length}")
        self.values[:, to_length : self.length] = 0
        self.length = to_length


def causal_attention(
    params: AttentionParams,
    x: np.ndarray,
    cache: LayerKVCache,
    start_pos: int,
    rope_table: RopeTable,
    window: int | None = None,
    last_row: bool = False,
) -> np.ndarray:
    """Cache-appending causal multi-head attention.

    ``x`` holds already-normalized inputs for positions
    ``start_pos..start_pos+T-1``; the call appends T K/V rows and returns the
    attention output (before any residual).  Row ``t`` attends to positions
    ``0..start_pos+t``, or with a ``window`` to the last ``window`` of them,
    ``start_pos+t-window+1..start_pos+t``.  With ``last_row`` only row T-1 is
    queried and returned: the call still appends every row's K/V.

    Query rows go through one masked pass per block of ``_ROW_BLOCK`` rows,
    with the same code for T=1 and T>1.  A block's keys span whole 64-key
    chunks up to its last row, from position 0, or under a window from the
    chunk that holds its first row's oldest key; older keys are never read.
    Per row and head, the scores are one GEMV over the span's key columns,
    the context numerator one GEMV over its value rows and the weight sum
    one dot with ones.  Chunks of exact-zero weights before or after a
    row's own chunks change none of these bits, so row ``t`` equals a
    one-row call at ``start_pos+t``, and a ``last_row`` call the full
    call's last row, bit for bit (module docstring).
    """
    if x.ndim != 2:
        raise ShapeError(f"attention input must be 2-D, got shape {x.shape}")
    if cache.length != start_pos:
        raise CacheError(f"cache length {cache.length} != start position {start_pos}")
    n_rows, d = x.shape
    h, hd = params.n_heads, params.head_dim
    if d != h * hd:
        raise ShapeError(f"attention input width {d} != n_heads*head_dim {h * hd}")

    # one GEMV per row and weight plane; rope rotates the q and k heads together
    qkv = np.vecmat(x[:, None, :], params.wqkv).reshape(n_rows, 3, h, hd)
    qk = rope_table.apply_block(qkv[:, :2].reshape(n_rows, 2 * h, hd), start_pos)
    cache.extend(qk[:, h:], qkv[:, 2])
    (scale,) = _scalars(x.dtype, 1.0 / math.sqrt(hd))
    first = n_rows - 1 if last_row and n_rows else 0  # the first query row
    q = qk[first:, :h] * scale
    q_pos = start_pos + first

    size = cache.values.shape[1]
    mask = _causal_mask(size) if window is None else _causal_mask(size, window)
    ones = _ones(x.dtype, size)
    blocks = []
    for b0 in range(0, len(q), _ROW_BLOCK):
        b1 = min(b0 + _ROW_BLOCK, len(q))
        p0, p1 = q_pos + b0, q_pos + b1
        k1 = -(-p1 // _KEY_CHUNK) * _KEY_CHUNK
        # The span is keys k0..k1-1; keys before m0 are visible to every row of the block.
        if window is None:
            k0, m0 = 0, p0
        else:
            k0 = m0 = max(p0 - window + 1, 0) // _KEY_CHUNK * _KEY_CHUNK
        # w[t, h, p]: one GEMV per (row, head) against the span's key columns
        w = np.vecmat(q[b0:b1], cache.keys[:, :, k0:k1])
        np.copyto(w[..., m0 - k0 :], -np.inf, where=mask[p0:p1, None, m0:k1])
        w -= np.fmax.reduce(w, axis=-1, keepdims=True, initial=_lowest(x.dtype))
        np.exp(w, out=w)
        den = np.vecdot(w, ones[: k1 - k0])  # one dot per (row, head) with the span's ones
        # one GEMV per (row, head) of the weights against the span's values
        blocks.append(np.vecmat(w, cache.values[:, k0:k1]) / den[..., None])
    # one block is the whole context; q[:0] gives a zero-row call its empty one
    ctx = blocks[0] if len(blocks) == 1 else np.concatenate([q[:0], *blocks])
    return np.vecmat(ctx.reshape(len(q), d), params.wo)


def prompt_attention(
    params: AttentionParams, x: np.ndarray, cache: LayerKVCache, rope_table: RopeTable,
    last_row: bool = False,
) -> np.ndarray:
    """Causal multi-head attention over a prompt from position 0, as BLAS GEMMs.

    Fills the empty ``cache`` with the T rows' K/V and returns the attention
    output, like ``causal_attention`` at ``start_pos=0``, within rounding.
    With ``last_row`` only row T-1 is queried and returned: the call still
    caches every row's K/V, bit for bit as a full call does.
    The projections are one GEMM per weight plane; per head, the scores and
    contexts are GEMMs over blocks of ``_ROW_BLOCK`` query rows against the
    cache's key columns and value rows up to the block's last row, masked
    by ``_causal_mask``, and the weight sums one GEMV against ones.  The bits
    depend on T, so this kernel serves only ``prefill``: the prompt pass that
    every decoder runs in the same call, and the distillation teacher's
    pass (module docstring, fact 1).
    """
    if x.ndim != 2:
        raise ShapeError(f"attention input must be 2-D, got shape {x.shape}")
    if cache.length != 0:
        raise CacheError(f"prompt attention needs an empty cache, got length {cache.length}")
    n_rows, d = x.shape
    h, hd = params.n_heads, params.head_dim
    if d != h * hd:
        raise ShapeError(f"attention input width {d} != n_heads*head_dim {h * hd}")

    qkv = np.matmul(x, params.wqkv).transpose(1, 0, 2).reshape(n_rows, 3, h, hd)
    qk = rope_table.apply_block(qkv[:, :2].reshape(n_rows, 2 * h, hd), 0)
    cache.extend(qk[:, h:], qkv[:, 2])
    (scale,) = _scalars(x.dtype, 1.0 / math.sqrt(hd))
    first = n_rows - 1 if last_row and n_rows else 0  # the first query row
    q = (qk[first:, :h] * scale).transpose(1, 0, 2)  # (heads, rows, head_dim)

    size = cache.values.shape[1]
    mask, ones = _causal_mask(size), _ones(x.dtype, size)
    ctx = np.empty((n_rows - first, h, hd), dtype=x.dtype)
    for b0 in range(0, len(ctx), _ROW_BLOCK):
        b1 = min(b0 + _ROW_BLOCK, len(ctx))
        p0, p1 = first + b0, first + b1  # the block's positions
        w = np.matmul(q[:, b0:b1], cache.keys[:, :, :p1])  # (heads, rows, keys)
        np.copyto(w[..., p0:], -np.inf, where=mask[p0:p1, p0:p1])  # keys before p0 are seen
        w -= np.fmax.reduce(w, axis=-1, keepdims=True, initial=_lowest(x.dtype))
        np.exp(w, out=w)
        den = np.matmul(w, ones[:p1])
        ctx[b0:b1] = (np.matmul(w, cache.values[:, :p1]) / den[..., None]).transpose(1, 0, 2)
    return ctx.reshape(len(ctx), d) @ params.wo


def gated_ffn(
    x: np.ndarray, gate: np.ndarray, up: np.ndarray, down: np.ndarray
) -> np.ndarray:
    """SwiGLU feed-forward: ``down(silu(x @ gate) * (x @ up))``."""
    hidden = silu(np.vecmat(x, gate)) * np.vecmat(x, up)
    return np.vecmat(hidden, down)
