"""Binary weight containers and the token-id corpus format.

Model files: magic ``KNGR``, u32 version, eight u64 little-endian config
counts (vocab_size, d_model, n_heads, head_dim, n_layers, ffn_hidden,
exit_layer, max_seq_len), one f64 rope_theta, then raw little-endian float32
tensors in declaration order.  Adapter files use magic ``KNGA`` with counts
(d_model, n_heads, head_dim) and the adapter tensors.  Round trips are
bit-exact.

Corpora are text files: one sequence per line, space-separated decimal ids.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .adapter import AdapterWeights
from .errors import ConfigError, FormatError
from .kernels import AttentionParams
from .model import LayerWeights, ModelConfig, TargetWeights

MODEL_MAGIC = b"KNGR"
ADAPTER_MAGIC = b"KNGA"
FORMAT_VERSION = 1


def _write_tensor(fh, array: np.ndarray) -> None:
    fh.write(np.ascontiguousarray(array, dtype="<f4").tobytes())


def _read_tensor(fh, shape: tuple[int, ...], path) -> np.ndarray:
    count = int(np.prod(shape))
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise FormatError(f"{path}: truncated tensor (wanted {4 * count} bytes, got {len(raw)})")
    data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: tensor contains non-finite values")
    return data


def _expect_payload(fh, path, n_values: int) -> None:
    """Fail unless the bytes left in ``fh`` are exactly ``n_values`` float32s,
    before any tensor is read, so a corrupt header cannot ask for a huge read."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if left != 4 * n_values:
        raise FormatError(f"{path}: header declares {4 * n_values} tensor bytes, file has {left}")


def _model_tensor_shapes(cfg: ModelConfig):
    """Shapes in file order: the embedding, one layer's (repeated n_layers
    times), then the final norm and LM head."""
    d, h, v = cfg.d_model, cfg.ffn_hidden, cfg.vocab_size
    layer = [(d,), (d, d), (d, d), (d, d), (d, d), (d,), (d, h), (d, h), (h, d)]
    return [(v, d)], layer, [(d,), (d, v)]


def save_weights(weights: TargetWeights, path: str | Path) -> None:
    cfg = weights.config
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(
            struct.pack(
                "<8Q",
                cfg.vocab_size,
                cfg.d_model,
                cfg.n_heads,
                cfg.head_dim,
                cfg.n_layers,
                cfg.ffn_hidden,
                cfg.exit_layer,
                cfg.max_seq_len,
            )
        )
        fh.write(struct.pack("<d", cfg.rope_theta))
        _write_tensor(fh, weights.token_embedding)
        for lw in weights.layers:
            _write_tensor(fh, lw.attn_norm)
            for w in (lw.attn.wq, lw.attn.wk, lw.attn.wv, lw.attn.wo):
                _write_tensor(fh, w)
            _write_tensor(fh, lw.ffn_norm)
            _write_tensor(fh, lw.gate)
            _write_tensor(fh, lw.up)
            _write_tensor(fh, lw.down)
        _write_tensor(fh, weights.final_norm)
        _write_tensor(fh, weights.lm_head)


def load_weights(path: str | Path) -> tuple[ModelConfig, TargetWeights]:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MODEL_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {MODEL_MAGIC!r}")
        header = fh.read(4 + 64 + 8)
        if len(header) != 76:
            raise FormatError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", header, 0)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        counts = struct.unpack_from("<8Q", header, 4)
        (theta,) = struct.unpack_from("<d", header, 68)
        try:
            cfg = ModelConfig(
                vocab_size=counts[0],
                d_model=counts[1],
                n_heads=counts[2],
                head_dim=counts[3],
                n_layers=counts[4],
                ffn_hidden=counts[5],
                exit_layer=counts[6],
                rope_theta=theta,
                max_seq_len=counts[7],
            )
        except ConfigError as exc:
            raise FormatError(f"{path}: invalid header config: {exc}") from exc

        head, layer, tail = _model_tensor_shapes(cfg)
        per_layer = sum(math.prod(shape) for shape in layer)
        _expect_payload(fh, path, sum(math.prod(shape) for shape in head + tail)
                        + cfg.n_layers * per_layer)
        embedding = _read_tensor(fh, head[0], path)
        layers = []
        for _ in range(cfg.n_layers):
            attn_norm, wq, wk, wv, wo, ffn_norm, gate, up, down = (
                _read_tensor(fh, shape, path) for shape in layer
            )
            layers.append(
                LayerWeights(
                    attn_norm=attn_norm,
                    attn=AttentionParams(
                        wq=wq, wk=wk, wv=wv, wo=wo,
                        n_heads=cfg.n_heads, head_dim=cfg.head_dim,
                    ),
                    ffn_norm=ffn_norm,
                    gate=gate,
                    up=up,
                    down=down,
                )
            )
        final_norm, lm_head = (_read_tensor(fh, shape, path) for shape in tail)
    weights = TargetWeights(
        config=cfg,
        token_embedding=embedding,
        layers=layers,
        final_norm=final_norm,
        lm_head=lm_head,
    )
    return cfg, weights


def save_adapter(adapter: AdapterWeights, path: str | Path) -> None:
    d = adapter.input_norm.shape[0]
    with open(path, "wb") as fh:
        fh.write(ADAPTER_MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<3Q", d, adapter.attn.n_heads, adapter.attn.head_dim))
        _write_tensor(fh, adapter.input_norm)
        for w in (adapter.attn.wq, adapter.attn.wk, adapter.attn.wv, adapter.attn.wo):
            _write_tensor(fh, w)
        _write_tensor(fh, adapter.output_norm)


def load_adapter(path: str | Path) -> AdapterWeights:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != ADAPTER_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}, expected {ADAPTER_MAGIC!r}")
        header = fh.read(4 + 24)
        if len(header) != 28:
            raise FormatError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", header, 0)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        d, n_heads, head_dim = struct.unpack_from("<3Q", header, 4)
        if d != n_heads * head_dim or d == 0:
            raise FormatError(f"{path}: inconsistent dims d={d}, heads={n_heads}x{head_dim}")
        _expect_payload(fh, path, 2 * d + 4 * d * d)
        input_norm = _read_tensor(fh, (d,), path)
        wq, wk, wv, wo = (_read_tensor(fh, (d, d), path) for _ in range(4))
        output_norm = _read_tensor(fh, (d,), path)
    return AdapterWeights(
        input_norm=input_norm,
        attn=AttentionParams(wq=wq, wk=wk, wv=wv, wo=wo, n_heads=int(n_heads), head_dim=int(head_dim)),
        output_norm=output_norm,
    )


def write_corpus(sequences: list[list[int]], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")


def read_corpus(path: str | Path) -> list[list[int]]:
    sequences = []
    with open(path, "r", encoding="ascii", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if not line.isascii():
                raise FormatError(f"{path}:{line_no}: non-ASCII byte")
            line = line.strip()
            if not line:
                continue
            try:
                seq = [int(tok) for tok in line.split()]
            except ValueError as exc:
                raise FormatError(f"{path}:{line_no}: non-integer token id") from exc
            if any(t < 0 for t in seq):
                raise FormatError(f"{path}:{line_no}: negative token id")
            sequences.append(seq)
    return sequences
