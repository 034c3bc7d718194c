import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from selfspec import (
    ModelConfig,
    desk_config,
    gen_model,
    gen_passthrough_model,
    init_adapter,
    passthrough_adapter,
)


@pytest.fixture(scope="session")
def small_cfg() -> ModelConfig:
    # Quick config for unit tests; the acceptance suite uses the desk config.
    return ModelConfig(
        vocab_size=64,
        d_model=32,
        n_heads=4,
        head_dim=8,
        n_layers=4,
        ffn_hidden=48,
        exit_layer=2,
        max_seq_len=128,
    )


@pytest.fixture(scope="session")
def desk_cfg() -> ModelConfig:
    return desk_config()


@pytest.fixture(scope="session")
def small_model(small_cfg):
    return gen_model(small_cfg, seed=41)


@pytest.fixture(scope="session")
def small_adapter(small_model):
    return init_adapter(small_model, seed=42)


@pytest.fixture(scope="session")
def planted(small_cfg):
    model = gen_passthrough_model(small_cfg, seed=43)
    return model, passthrough_adapter(model)


@pytest.fixture(scope="session")
def dialed_desk_model():
    """Build the desk model (seed 1) with its deep ``wo`` and ``down`` scaled by alpha."""

    def build(alpha: float):
        model = gen_model(desk_config(), seed=1)
        for layer in model.layers[model.config.exit_layer:]:
            layer.attn.wo *= np.float32(alpha)
            layer.down *= np.float32(alpha)
        return model

    return build
