"""Binary weight containers and the token-id corpus format.

Model files: magic ``KNGR``, u32 version, eight u64 little-endian config
counts (vocab_size, d_model, n_heads, head_dim, n_layers, ffn_hidden,
exit_layer, max_seq_len), one f64 rope_theta, then raw little-endian float32
tensors in the order of ``TargetWeights.tensors()``.  Adapter files use magic
``KNGA`` with counts (d_model, n_heads, head_dim) and the tensors in the
order of ``AdapterWeights.tensors()``.  Round trips are bit-exact.

Corpora are text files: one sequence per line, space-separated decimal ids.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .adapter import AdapterWeights, adapter_layout
from .errors import ConfigError, FormatError
from .model import ModelConfig, TargetWeights, model_layout

MODEL_MAGIC = b"KNGR"
ADAPTER_MAGIC = b"KNGA"
FORMAT_VERSION = 1
# The header fields after magic and version.
_MODEL_FIELDS = ("vocab_size", "d_model", "n_heads", "head_dim", "n_layers", "ffn_hidden",
                 "exit_layer", "max_seq_len", "rope_theta")
_MODEL_HEADER = struct.Struct("<8Qd")
_ADAPTER_HEADER = struct.Struct("<3Q")  # d_model, n_heads, head_dim


def _save(path, magic: bytes, header: struct.Struct, fields, tensors) -> None:
    with np.errstate(over="ignore"):  # past float32's range is inf, refused as the reader does
        data = [np.ascontiguousarray(tensor, dtype="<f4") for tensor in tensors]
    if not all(np.isfinite(tensor).all() for tensor in data):
        raise FormatError(f"{path}: tensor contains non-finite values")
    with open(path, "wb") as fh:
        fh.write(magic + struct.pack("<I", FORMAT_VERSION) + header.pack(*fields))
        fh.writelines(data)


def _read_tensor(fh, shape: tuple[int, ...], path) -> np.ndarray:
    count = int(np.prod(shape))
    raw = fh.read(4 * count)
    if len(raw) != 4 * count:
        raise FormatError(f"{path}: truncated tensor (wanted {4 * count} bytes, got {len(raw)})")
    data = np.frombuffer(raw, dtype="<f4").reshape(shape).astype(np.float32)
    if not np.all(np.isfinite(data)):
        raise FormatError(f"{path}: tensor contains non-finite values")
    return data


def _load(path, magic: bytes, header: struct.Struct, layout):
    """Header metadata and tensors of one container file.

    Checks the magic, the version, the header length and the payload size
    in that order, before any tensor is read, so a corrupt header cannot
    ask for a huge read.  ``layout(fields)`` maps the header fields to
    ``(meta, groups)``, where ``groups`` are ``(repeats, shapes)`` pairs in
    file order; the payload size comes from them without expanding repeats.
    """
    with open(path, "rb") as fh:
        got = fh.read(4)
        if got != magic:
            raise FormatError(f"{path}: bad magic {got!r}, expected {magic!r}")
        raw = fh.read(4 + header.size)
        if len(raw) != 4 + header.size:
            raise FormatError(f"{path}: truncated header")
        (version,) = struct.unpack_from("<I", raw, 0)
        if version != FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        meta, groups = layout(header.unpack_from(raw, 4))
        n_values = sum(repeats * sum(math.prod(shape) for shape in shapes)
                       for repeats, shapes in groups)
        left = os.fstat(fh.fileno()).st_size - fh.tell()
        if left != 4 * n_values:
            raise FormatError(
                f"{path}: header declares {4 * n_values} tensor bytes, file has {left}"
            )
        tensors = [_read_tensor(fh, shape, path)
                   for repeats, shapes in groups for _ in range(repeats) for shape in shapes]
    return meta, tensors


def save_weights(weights: TargetWeights, path: str | Path) -> None:
    fields = [getattr(weights.config, name) for name in _MODEL_FIELDS]
    _save(path, MODEL_MAGIC, _MODEL_HEADER, fields, weights.tensors())


def load_weights(path: str | Path) -> tuple[ModelConfig, TargetWeights]:
    def layout(fields):
        try:
            cfg = ModelConfig(**dict(zip(_MODEL_FIELDS, fields)))
        except ConfigError as exc:
            raise FormatError(f"{path}: invalid header config: {exc}") from exc
        return cfg, model_layout(cfg)

    cfg, tensors = _load(path, MODEL_MAGIC, _MODEL_HEADER, layout)
    return cfg, TargetWeights.from_tensors(cfg, tensors)


def save_adapter(adapter: AdapterWeights, path: str | Path) -> None:
    fields = (adapter.d_model, adapter.attn.n_heads, adapter.attn.head_dim)
    _save(path, ADAPTER_MAGIC, _ADAPTER_HEADER, fields, adapter.tensors().values())


def load_adapter(path: str | Path) -> AdapterWeights:
    def layout(fields):
        d, n_heads, head_dim = fields
        if d != n_heads * head_dim or d == 0:
            raise FormatError(f"{path}: inconsistent dims d={d}, heads={n_heads}x{head_dim}")
        return (n_heads, head_dim), [(1, adapter_layout(d))]

    (n_heads, head_dim), tensors = _load(path, ADAPTER_MAGIC, _ADAPTER_HEADER, layout)
    return AdapterWeights.from_tensors(n_heads, head_dim, tensors)


def write_corpus(sequences: list[list[int]], path: str | Path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for seq in sequences:
            fh.write(" ".join(str(int(t)) for t in seq))
            fh.write("\n")


def read_corpus(path: str | Path) -> list[list[int]]:
    return [seq for _, seq in read_numbered_corpus(path)]


def read_numbered_corpus(path: str | Path) -> list[tuple[int, list[int]]]:
    """Each non-blank line of the corpus as ``(line number, token ids)``."""
    numbered = []
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
            numbered.append((line_no, seq))
    return numbered
