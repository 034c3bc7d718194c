"""Deterministic stream splitting for all randomness in the package.

Every random artifact (model weights, adapter init, corpora, training
shuffles, benchmark prompts) draws from a numpy PCG64 generator whose seed
is derived from a single 64-bit root seed plus a label path, e.g.
``generator(seed, "model")`` or ``generator(seed, "corpus", row_index)``.
Derivation is a splitmix64 chain over the root seed and the hashed labels,
so distinct label paths produce independent streams and the same
``(seed, labels)`` pair is bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


def splitmix64(state: int) -> int:
    """One splitmix64 output for a 64-bit state."""
    z = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def fold(state: int, *labels: int | str) -> int:
    """Fold a label path into a 64-bit derivation state."""
    for label in labels:
        if isinstance(label, str):
            for byte in label.encode("utf-8"):
                state = splitmix64(state ^ byte)
        else:
            state = splitmix64(state ^ (int(label) & _MASK64))
    return state


def derive(seed: int, *labels: int | str) -> int:
    """Derive a child 64-bit seed from a root seed and a label path."""
    return fold(splitmix64(int(seed) & _MASK64), *labels)


def generator(seed: int, *labels: int | str) -> np.random.Generator:
    """A PCG64 generator on the stream named by ``labels``."""
    return np.random.Generator(np.random.PCG64(derive(seed, *labels)))
