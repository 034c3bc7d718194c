import hashlib
import struct

import numpy as np
import pytest

from selfspec import (
    desk_config,
    gen_model,
    gen_passthrough_model,
    init_adapter,
    passthrough_adapter,
)
from selfspec.errors import FormatError
from selfspec.serialize import (
    load_adapter,
    load_weights,
    read_corpus,
    save_adapter,
    save_weights,
    write_corpus,
)


def _weights_equal(a, b) -> bool:
    if not np.array_equal(a.token_embedding, b.token_embedding):
        return False
    if not np.array_equal(a.final_norm, b.final_norm):
        return False
    if not np.array_equal(a.lm_head, b.lm_head):
        return False
    for la, lb in zip(a.layers, b.layers):
        tensors = [
            (la.attn_norm, lb.attn_norm), (la.attn.wq, lb.attn.wq),
            (la.attn.wk, lb.attn.wk), (la.attn.wv, lb.attn.wv),
            (la.attn.wo, lb.attn.wo), (la.ffn_norm, lb.ffn_norm),
            (la.gate, lb.gate), (la.up, lb.up), (la.down, lb.down),
        ]
        if not all(np.array_equal(x, y) for x, y in tensors):
            return False
    return True


class TestModelFile:
    def test_round_trip_bit_identical(self, small_cfg, tmp_path):
        weights = gen_model(small_cfg, seed=3)
        path = tmp_path / "model.kngr"
        save_weights(weights, path)
        cfg, loaded = load_weights(path)
        assert cfg == small_cfg
        assert _weights_equal(weights, loaded)

    def test_save_load_save_identical_bytes(self, small_cfg, tmp_path):
        weights = gen_model(small_cfg, seed=3)
        p1, p2 = tmp_path / "a.kngr", tmp_path / "b.kngr"
        save_weights(weights, p1)
        _, loaded = load_weights(p1)
        save_weights(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_bad_magic(self, small_cfg, tmp_path):
        path = tmp_path / "bad.kngr"
        weights = gen_model(small_cfg, seed=3)
        save_weights(weights, path)
        raw = bytearray(path.read_bytes())
        raw[:4] = b"NOPE"
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_weights(path)

    def test_truncated_file(self, small_cfg, tmp_path):
        path = tmp_path / "trunc.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(FormatError):
            load_weights(path)

    def test_header_shape_mismatch(self, small_cfg, tmp_path):
        # Header declares double the true d_model: tensor payload no longer
        # matches the declared shapes.
        path = tmp_path / "shape.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        raw = bytearray(path.read_bytes())
        # d_model is the second u64 of the count block at offset 8; head_dim
        # the fourth; keep d_model = heads * head_dim consistent so the
        # config itself validates but the tensors do not.
        struct.pack_into("<Q", raw, 8 + 8, small_cfg.d_model * 2)
        struct.pack_into("<Q", raw, 8 + 3 * 8, small_cfg.head_dim * 2)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError):
            load_weights(path)

    @pytest.mark.parametrize("fmt,offset,value", [
        ("<Q", 8 + 6 * 8, 0),  # exit_layer
        ("<d", 8 + 8 * 8, 0.0),  # rope_theta
        ("<d", 8 + 8 * 8, float("nan")),
    ], ids=["exit-layer-0", "rope-theta-0", "rope-theta-nan"])
    def test_invalid_header_config(self, small_cfg, tmp_path, fmt, offset, value):
        path = tmp_path / "cfg.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="invalid header config"):
            load_weights(path)

    def test_trailing_bytes(self, small_cfg, tmp_path):
        path = tmp_path / "extra.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        with open(path, "ab") as fh:
            fh.write(b"\x00\x00\x00\x00")
        with pytest.raises(FormatError):
            load_weights(path)

    @pytest.mark.parametrize("index,value", [(0, 1 << 40), (1, 1 << 40), (4, 1 << 40)],
                             ids=["vocab_size", "d_model", "n_layers"])
    def test_oversized_header_count_rejected_before_reading(self, small_cfg, tmp_path,
                                                            index, value):
        # A count this large would ask for terabytes; the declared payload is
        # checked against the file size before any tensor is read.
        path = tmp_path / "huge.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 8 + index * 8, value)
        if index == 1:  # keep d_model = n_heads * head_dim
            struct.pack_into("<Q", raw, 8 + 3 * 8, value // small_cfg.n_heads)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="tensor bytes"):
            load_weights(path)

    def test_non_finite_tensor(self, small_cfg, tmp_path):
        weights = gen_model(small_cfg, seed=3)
        weights.lm_head[0, 0] = np.nan
        path = tmp_path / "nan.kngr"
        save_weights(weights, path)
        with pytest.raises(FormatError):
            load_weights(path)


class TestAdapterFile:
    def test_round_trip(self, small_model, tmp_path):
        adapter = init_adapter(small_model, seed=4)
        path = tmp_path / "adapter.knga"
        save_adapter(adapter, path)
        loaded = load_adapter(path)
        assert np.array_equal(adapter.input_norm, loaded.input_norm)
        assert np.array_equal(adapter.attn.wq, loaded.attn.wq)
        assert np.array_equal(adapter.attn.wo, loaded.attn.wo)
        assert np.array_equal(adapter.output_norm, loaded.output_norm)

    def test_model_magic_rejected(self, small_model, small_cfg, tmp_path):
        path = tmp_path / "model.kngr"
        save_weights(gen_model(small_cfg, seed=3), path)
        with pytest.raises(FormatError):
            load_adapter(path)


    def test_oversized_dims_rejected_before_reading(self, small_model, tmp_path):
        path = tmp_path / "huge.knga"
        save_adapter(init_adapter(small_model, seed=4), path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<3Q", raw, 8, 1 << 40, 1 << 20, 1 << 20)
        path.write_bytes(bytes(raw))
        with pytest.raises(FormatError, match="tensor bytes"):
            load_adapter(path)

    @pytest.mark.parametrize("edit", ["truncate", "extend"])
    def test_payload_size_mismatch(self, small_model, tmp_path, edit):
        path = tmp_path / "adapter.knga"
        save_adapter(init_adapter(small_model, seed=4), path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-4] if edit == "truncate" else raw + b"\0\0\0\0")
        with pytest.raises(FormatError):
            load_adapter(path)


# sha256 of the saved bytes of generated models (seed 3) and adapters (on the
# seed-3 model; init seed 4).  They pin the file format, the tensor order
# and each generator's RNG order.
GOLDEN = {
    ("small", "gen_model"): "e6331087ea5fdfc66faebce0c09d0dae92d9bddd2aefac9af3b0366d3dc13156",
    ("small", "gen_passthrough_model"):
        "71c550ade4d6915cb43be85cb5aab6d95c3fef4a79d02b12a3f14db699b311dc",
    ("small", "init_adapter"): "71e21efe98e7b23e65de4d64cb61867d93abbf1e03c426e43f849beae1404962",
    ("small", "passthrough_adapter"):
        "7ea7f9ab1adf163102cc20d8c08c4de9b5646d1f3f31bbdec1288f976d7b703d",
    ("desk", "gen_model"): "2f50fb32b5648770f26887ab26fdd7c140d82e8d664f2e16c7c02817da7bc8bc",
    ("desk", "gen_passthrough_model"):
        "a09e050949a44072e2b869aede2884a014272276f945984f39fa7f135007558b",
    ("desk", "init_adapter"): "e4a95c7cdb8104f353a51f7cf0632a29870efd7272ca5443899f9e6845f68f87",
    ("desk", "passthrough_adapter"):
        "8326f5a3561d9d135d0101bd0fbf2de1846764c5631ac431abb219987c758232",
}


@pytest.mark.parametrize("config,kind", sorted(GOLDEN),
                         ids=[f"{config}-{kind}" for config, kind in sorted(GOLDEN)])
def test_golden_file_bytes(small_cfg, tmp_path, config, kind):
    cfg = small_cfg if config == "small" else desk_config()
    path = tmp_path / "out"
    if kind.endswith("model"):
        make = gen_model if kind == "gen_model" else gen_passthrough_model
        save_weights(make(cfg, 3), path)
    else:
        model = gen_model(cfg, 3)
        save_adapter(init_adapter(model, 4) if kind == "init_adapter"
                     else passthrough_adapter(model), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[config, kind]


class TestCorpus:
    def test_round_trip(self, tmp_path):
        sequences = [[1, 2, 3], [42], [0, 0, 7, 9]]
        path = tmp_path / "corpus.txt"
        write_corpus(sequences, path)
        assert read_corpus(path) == sequences

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("1 2 3\n\n4 5\n")
        assert read_corpus(path) == [[1, 2, 3], [4, 5]]

    def test_non_integer_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("1 two 3\n")
        with pytest.raises(FormatError):
            read_corpus(path)

    def test_negative_rejected(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("1 -2 3\n")
        with pytest.raises(FormatError):
            read_corpus(path)

    def test_non_ascii_byte_names_path_and_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes(b"1 2 3\n4 \xc3 5\n6\n")
        with pytest.raises(FormatError, match=r"corpus\.txt:2: non-ASCII"):
            read_corpus(path)
