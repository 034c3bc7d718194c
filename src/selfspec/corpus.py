"""Seeded synthetic corpora with learnable structure.

Sequences come from an order-2 Markov source that never materializes its
transition table but gives the distillation trainer real signal to fit.
With ``rng = generator(seed, "corpus")`` and vocabulary ``V``, each sequence
draws its length ``rng.integers(lo, hi + 1)``, then two start tokens
``rng.integers(V)``.  Candidate ``i`` of context ``(a, b)`` is
``derive(seed, "markov", a, b, i) % V``; each further token draws one double
``u = rng.random()`` and takes candidate ``searchsorted(cdf, u, "right")``,
``cdf`` being the normalized cumulative sum of ``[0.55, 0.25, 0.12, 0.08]``
(the lookup ``Generator.choice`` makes).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError
from .seeding import derive, fold, generator

_CANDIDATE_CDF = np.array([0.55, 0.25, 0.12, 0.08]).cumsum()
_CANDIDATE_CDF /= _CANDIDATE_CDF[-1]


def gen_corpus(
    vocab_size: int,
    n_seqs: int,
    len_range: tuple[int, int],
    seed: int,
) -> list[list[int]]:
    """Draw ``n_seqs`` sequences with lengths uniform in ``len_range``."""
    lo, hi = len_range
    if lo < 2 or hi < lo:
        raise ConfigError(f"len_range must satisfy 2 <= lo <= hi, got {len_range}")
    if n_seqs < 1 or vocab_size < 2:
        raise ConfigError("need n_seqs >= 1 and vocab_size >= 2")
    rng = generator(seed, "corpus")
    markov = derive(seed, "markov")
    sequences = []
    for _ in range(n_seqs):
        length = int(rng.integers(lo, hi + 1))
        seq = [int(rng.integers(vocab_size)), int(rng.integers(vocab_size))]
        picks = np.searchsorted(_CANDIDATE_CDF, rng.random(length - 2), side="right")
        for pick in picks.tolist():
            seq.append(fold(markov, seq[-2], seq[-1], pick) % vocab_size)
        sequences.append(seq)
    return sequences
