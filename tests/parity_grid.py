"""Print a bit-exact fingerprint of decoding over a fixed grid, one JSON line per case.

Run it once per source tree and compare the outputs; any difference is a
parity break between the trees::

    python3 tests/parity_grid.py --src path/to/parent/src > parent.jsonl
    python3 tests/parity_grid.py --src src > change.jsonl
    cmp parent.jsonl change.jsonl

A change that alters the traces on purpose (say, a new drafting decision)
still keeps the tokens; ``--tokens`` prints only the ``generate`` lines,
each with its case, ``tokens``, ``truncated`` and ``lossless``, for the
same ``cmp``.  A change that moves only the low bits of logits (say, a
reordered sum in attention) keeps the round structure too: ``--rounds``
prints the ``--tokens`` lines with each round's ``drafted``,
``accepted_drafts``, ``emitted``, ``stop_reason`` and ``deferred``, and no
confidences::

    python3 tests/parity_grid.py --rounds --src path/to/parent/src > parent.jsonl
    python3 tests/parity_grid.py --rounds --src src > change.jsonl
    cmp parent.jsonl change.jsonl

The grid covers float32 and float64, the deep-residual dial alpha 1 and 0.1
(deep ``wo`` and ``down`` scaled by alpha), model seeds 1 and 2, the init
and passthrough adapters, prompt lengths around the prompt kernel's 32-row
block, the 64-key chunk and the context limit, four draft policies and three
request lengths.  Under policy (1.0, 6) every drafting round stops on the
threshold, and until a session's first accepted draft the engine defers
such a round's final draft's feature, round 1 included: the grid covers
deferred rounds that are rejected and deferred rounds that are fully
accepted.  The ``desk-low`` cases are the
benchmark's shape (the default desk config, alpha 1, the init adapter,
policy (0.6, 6), 48 tokens), whose sessions stop drafting for good once their
first few drafts are rejected.  A ``generate`` line holds the tokens,
``truncated`` and every ``RoundTrace`` field, with confidences as
``float.hex``, and ``lossless``: whether its tokens equal the same tree's
``vanilla_greedy_decode`` for as many tokens as fit the context, so one
tree's run shows greedy equality over the whole grid.  A ``logits`` line
holds the sha256 of the full-prompt logits; a ``weights`` line the sha256
of the bytes ``save_weights`` or ``save_adapter`` writes for a grid model
or adapter.  A ``train`` line holds the sha256 of the saved adapter that
a ``train_adapter`` run on a fixed corpus returns, and its loss curve as
``float.hex``: 2 epochs on 8 sequences of 6-12 tokens, and 1 epoch on 4
sequences of 45-70 tokens, which cross the 32-row prompt block of the
teacher's pass and the adapter's 64-position window.  A change that only
reorders the trainer's float64 sums moves the curves' last bits and may
leave the adapters' sha256 unchanged.  A ``corpus`` line holds the sha256
of a ``gen_corpus`` output, over vocabularies, length ranges and seeds and
the benchmark's prompt and training shapes.  An exception is recorded by class
and message.

The script uses only the public API that every tree of the package has, so
an older tree can be fingerprinted too.  pytest does not collect it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

MAX_SEQ_LEN = 128
DTYPES = ("float32", "float64")
ALPHAS = (1.0, 0.1)
SEEDS = (1, 2)
ADAPTERS = ("init", "passthrough")
PROMPT_LENGTHS = (1, 2, 31, 32, 33, 63, 64, 65, MAX_SEQ_LEN - 1, MAX_SEQ_LEN, MAX_SEQ_LEN + 1)
DESK_LOW_PROMPT_LENGTHS = (6, 7, 8, 9, 10, 11, 12)
POLICIES = ((0.6, 6), (0.0, 3), (1.0, 0), (1.0, 6))
N_TOKENS = (1, 2, 48)
SEED_63 = (1 << 63) - 25
# (n_seqs, len_range, corpus seed, epochs, batch) of each train line; the
# second corpus's lengths are 64, 70, 65 and 45.
TRAIN_CASES = ((8, (6, 12), 5, 2, 3), (4, (40, 70), 6, 1, 2))
# (vocab, n_seqs, len_range, seed); the last six are the benchmark's short
# and long prompt sets and its training corpus.  tests/test_corpus.py checks
# every case against the per-token oracle.
CORPUS_GRID = [
    (vocab, 2 if lo > 100 else 6, (lo, hi), seed)
    for vocab in (2, 3, 256, 1000)
    for lo, hi in ((2, 2), (2, 5), (12, 28), (448, 448))
    for seed in (0, 7, SEED_63)
] + [
    (256, n_seqs, len_range, seed)
    for n_seqs, len_range in ((64, (12, 12)), (15, (448, 448)), (48, (12, 28)))
    for seed in (1, SEED_63)
]


def _import(src: Path):
    sys.path.insert(0, str(src))
    import selfspec

    if Path(selfspec.__file__).resolve().parent != (src / "selfspec").resolve():
        raise SystemExit(f"imported selfspec from {selfspec.__file__}, not from {src}")
    return selfspec


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _model(ss, np, dtype: str, alpha: float, seed: int):
    model = ss.gen_model(ss.desk_config(max_seq_len=MAX_SEQ_LEN), seed)
    cfg = model.config
    for layer in model.layers[cfg.exit_layer:]:
        layer.attn.wo *= np.float32(alpha)
        layer.down *= np.float32(alpha)
    return model.astype(np.dtype(dtype))


def _prompt(np, vocab: int, seed: int, length: int) -> list[int]:
    return np.random.default_rng([seed, length]).integers(0, vocab, length).tolist()


def _logits_line(ss, model, prompt: list[int]) -> dict:
    try:
        logits = ss.full_forward(model, prompt, ss.KVCacheSet(model.config, dtype=model.dtype))
    except Exception as exc:  # noqa: BLE001 -- the error is part of the fingerprint
        return {"error": _error(exc)}
    return {"shape": list(logits.shape), "sha256": hashlib.sha256(logits.tobytes()).hexdigest()}


def _greedy(ss, model, prompt: list[int], n_tokens: int):
    """The greedy tokens that fit the context, or the error raised."""
    room = model.config.max_seq_len + 1 - len(prompt)
    try:
        return ss.vanilla_greedy_decode(model, prompt, max(0, min(n_tokens, room)))
    except Exception as exc:  # noqa: BLE001
        return _error(exc)


def _generate_line(ss, model, adapter, policy, prompt: list[int], n_tokens: int,
                   greedy) -> dict:
    try:
        result = ss.generate(model, adapter, policy, prompt, n_tokens)
    except Exception as exc:  # noqa: BLE001
        return {"error": _error(exc)}
    rounds = [
        [r.drafted, r.accepted_drafts, r.emitted, [float(c).hex() for c in r.confidences],
         r.stop_reason.value] + ([r.deferred] if hasattr(r, "deferred") else [])
        for r in result.rounds
    ]
    return {"tokens": result.tokens, "truncated": result.truncated, "rounds": rounds,
            "lossless": result.tokens == greedy}


def _weights_line(ss, weights) -> dict:
    """The sha256 of the bytes that ``weights``, a model or an adapter, saves to."""
    from selfspec import serialize

    is_adapter = isinstance(weights, ss.AdapterWeights)
    save = serialize.save_adapter if is_adapter else serialize.save_weights
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weights"
        save(weights, path)
        return {"sha256": hashlib.sha256(path.read_bytes()).hexdigest()}


def _train_line(ss, n_seqs: int, len_range: tuple[int, int], corpus_seed: int,
                epochs: int, batch: int) -> dict:
    """A distillation of the init adapter on a fixed corpus."""
    from selfspec.corpus import gen_corpus

    model = ss.gen_model(ss.desk_config(max_seq_len=MAX_SEQ_LEN), 1)
    corpus = gen_corpus(model.config.vocab_size, n_seqs, len_range, corpus_seed)
    cfg = ss.TrainConfig(epochs=epochs, batch=batch, seed=4)
    try:
        trained, curve = ss.train_adapter(model, ss.init_adapter(model, 2), corpus, cfg)
    except Exception as exc:  # noqa: BLE001
        return {"error": _error(exc)}
    return {**_weights_line(ss, trained), "curve": [float(loss).hex() for loss in curve]}


def _corpus_line(vocab: int, n_seqs: int, len_range: tuple[int, int], seed: int) -> dict:
    from selfspec.corpus import gen_corpus

    try:
        seqs = gen_corpus(vocab, n_seqs, len_range, seed)
    except Exception as exc:  # noqa: BLE001
        return {"error": _error(exc)}
    return {"sha256": hashlib.sha256(json.dumps(seqs).encode()).hexdigest()}


def desk_low(ss, np):
    """The benchmark's desk-low shape, one ``generate`` line per prompt length."""
    model = ss.gen_model(ss.desk_config(), 1)
    adapter = ss.init_adapter(model, 2)
    policy = ss.DraftPolicy(eta=0.6, gamma_max=6)
    for length in DESK_LOW_PROMPT_LENGTHS:
        prompt = _prompt(np, model.config.vocab_size, 3, length)
        case = {"case": "desk-low", "prompt_len": length, "eta": policy.eta,
                "gamma": policy.gamma_max, "n_tokens": 48}
        yield {**case, **_generate_line(ss, model, adapter, policy, prompt, 48,
                                        _greedy(ss, model, prompt, 48))}


def grid(ss):
    """Yield one JSON-ready dict per case, in a fixed order."""
    import numpy as np

    yield from desk_low(ss, np)

    for dtype in DTYPES:
        for alpha in ALPHAS:
            for seed in SEEDS:
                model = _model(ss, np, dtype, alpha, seed)
                prompts = {n: _prompt(np, model.config.vocab_size, seed, n) for n in PROMPT_LENGTHS}
                base = {"dtype": dtype, "alpha": alpha, "seed": seed}
                yield {**base, "weights": "model", **_weights_line(ss, model)}
                for length, prompt in prompts.items():
                    yield {**base, "prompt_len": length, **_logits_line(ss, model, prompt)}
                greedy = {(length, n): _greedy(ss, model, prompt, n)
                          for length, prompt in prompts.items() for n in N_TOKENS}
                for kind in ADAPTERS:
                    adapter = (ss.init_adapter(model, seed) if kind == "init"
                               else ss.passthrough_adapter(model)).astype(model.dtype)
                    yield {**base, "weights": "adapter", "adapter": kind,
                           **_weights_line(ss, adapter)}
                    for length, prompt in prompts.items():
                        for eta, gamma in POLICIES:
                            policy = ss.DraftPolicy(eta=eta, gamma_max=gamma)
                            for n_tokens in N_TOKENS:
                                case = {**base, "adapter": kind, "prompt_len": length,
                                        "eta": eta, "gamma": gamma, "n_tokens": n_tokens}
                                yield {**case, **_generate_line(
                                    ss, model, adapter, policy, prompt, n_tokens,
                                    greedy[length, n_tokens])}
    for n_seqs, len_range, corpus_seed, epochs, batch in TRAIN_CASES:
        case = {"train": True, "n_seqs": n_seqs, "len_range": list(len_range), "epochs": epochs}
        yield {**case, **_train_line(ss, n_seqs, len_range, corpus_seed, epochs, batch)}
    for vocab, n_seqs, len_range, seed in CORPUS_GRID:
        case = {"corpus": True, "vocab": vocab, "n_seqs": n_seqs,
                "len_range": list(len_range), "seed": seed}
        yield {**case, **_corpus_line(vocab, n_seqs, len_range, seed)}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--src", type=Path, required=True,
                        help="the src directory of the tree to fingerprint")
    only = parser.add_mutually_exclusive_group()
    only.add_argument("--tokens", action="store_true",
                      help="print only the generate lines, without their round traces")
    only.add_argument("--rounds", action="store_true",
                      help="print only the generate lines, with their rounds' confidences left out")
    args = parser.parse_args(argv)
    ss = _import(args.src.resolve())
    for line in grid(ss):
        if args.tokens or args.rounds:
            if "eta" not in line:
                continue
            rounds = line.pop("rounds", None)
            if args.rounds and rounds is not None:
                line["rounds"] = [r[:3] + r[4:] for r in rounds]  # r[3]: the confidences
        print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
