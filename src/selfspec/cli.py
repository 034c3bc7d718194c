"""Command-line entry point.

Subcommands: ``gen-model``, ``gen-corpus``, ``train``, ``bench``,
``verify-lossless``, ``sweep``.  Exit codes are a stable contract:
0 success, 1 losslessness/verification failure, 2 usage or config error.
Every command's output is a function of its files and flags, ``--seed``
included where a command draws random numbers (timing fields aside).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import serialize
from .adapter import AdapterWeights, init_adapter
from .engine import DraftPolicy, run_corpus
from .errors import ConfigError, LosslessnessError, SelfspecError
from .metrics import BenchReport, to_csv
from .model import DESK_CONFIG, ModelConfig, TargetWeights, check_prompt, context_room, gen_model
from .simulator import calibrate_latency, sweep
from .training import TrainConfig, train_adapter


class UsageError(SelfspecError, ValueError):
    """Bad flags or unusable inputs; maps to exit code 2."""


def _load_model(args) -> TargetWeights:
    path = Path(args.model)
    if not path.is_file():
        raise UsageError(f"model file not found: {path}")
    _, weights = serialize.load_weights(path)
    if getattr(args, "f64", False):
        weights = weights.astype(np.float64)
    return weights


def _load_adapter(args, model: TargetWeights):
    path = Path(args.adapter)
    if not path.is_file():
        raise UsageError(f"adapter file not found: {path}")
    adapter = serialize.load_adapter(path)
    cfg = model.config
    want = (cfg.d_model, cfg.n_heads, cfg.head_dim)
    got = (adapter.d_model, adapter.attn.n_heads, adapter.attn.head_dim)
    if got != want:
        raise UsageError(
            f"adapter {path} has (d_model, n_heads, head_dim) = {got}, "
            f"but model {args.model} has {want}"
        )
    if getattr(args, "f64", False):
        adapter = adapter.astype(np.float64)
    return adapter


def _load_corpus(args) -> list[list[int]]:
    path = Path(args.corpus)
    if not path.is_file():
        raise UsageError(f"corpus file not found: {path}")
    sequences = serialize.read_corpus(path)
    if not sequences:
        raise UsageError(f"corpus is empty: {path}")
    return sequences


def _check_output_dirs(args) -> None:
    """Refuse an output path whose directory is missing before any work is done."""
    for dest, flag in (("out", "--out"), ("loss_out", "--loss-out")):
        path = getattr(args, dest, None)
        if path and not Path(path).parent.is_dir():
            raise UsageError(f"{flag} {path}: directory {Path(path).parent} does not exist")


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def cmd_gen_model(args) -> int:
    if args.heads < 1 or args.d_model % args.heads != 0:
        raise UsageError(f"--heads must divide --d-model, got {args.heads} and {args.d_model}")
    cfg = ModelConfig(
        vocab_size=args.vocab,
        d_model=args.d_model,
        n_heads=args.heads,
        head_dim=args.d_model // args.heads,
        n_layers=args.layers,
        ffn_hidden=args.ffn_hidden,
        exit_layer=args.exit_layer,
        rope_theta=args.rope_theta,
        max_seq_len=args.max_seq_len,
    )
    serialize.save_weights(gen_model(cfg, args.seed), args.out)
    print(f"wrote model ({cfg.n_layers} layers, d={cfg.d_model}, V={cfg.vocab_size}) to {args.out}")
    return 0


def cmd_gen_corpus(args) -> int:
    sequences = corpus_mod.gen_corpus(
        vocab_size=args.vocab,
        n_seqs=args.n_seqs,
        len_range=(args.len_min, args.len_max),
        seed=args.seed,
    )
    serialize.write_corpus(sequences, args.out)
    print(f"wrote {len(sequences)} sequences to {args.out}")
    return 0


def cmd_train(args) -> int:
    model = _load_model(args)
    sequences = _load_corpus(args)
    cfg = TrainConfig(
        learning_rate=args.lr,
        betas=(args.beta1, args.beta2),
        weight_decay=args.weight_decay,
        epochs=args.epochs,
        batch=args.batch,
        seed=args.seed,
    )
    adapter = init_adapter(model, args.seed)
    trained, curve = train_adapter(model, adapter, sequences, cfg)
    serialize.save_adapter(trained, args.out)
    if args.loss_out:
        lines = ["epoch,mean_loss"] + [f"{i + 1},{loss:.8f}" for i, loss in enumerate(curve)]
        Path(args.loss_out).write_text("\n".join(lines) + "\n")
    print(
        f"trained adapter for {cfg.epochs} epochs: "
        f"loss {curve[0]:.4f} -> {curve[-1]:.4f}; wrote {args.out}"
    )
    return 0


def _decoding_inputs(args) -> tuple[TargetWeights, AdapterWeights, list[list[int]]]:
    """The model, adapter and prompts that every decoding command reads."""
    if args.n_tokens < 1:
        raise UsageError(f"--n-tokens must be >= 1, got {args.n_tokens}")
    model = _load_model(args)
    adapter = _load_adapter(args, model)
    limit = context_room(model.config, args.n_tokens)  # the longest prompt that fits
    if limit < 1:
        raise UsageError(f"--n-tokens {args.n_tokens} leaves no room for prompts")
    prompts = [seq[:limit] for seq in _load_corpus(args)]
    for i, prompt in enumerate(prompts):
        try:
            check_prompt(prompt, model.config)
        except ConfigError as exc:
            raise UsageError(f"corpus line {i + 1}: {exc}") from exc
    return model, adapter, prompts


def _policy_grid(args) -> list[DraftPolicy]:
    """One policy per pair of ``--etas`` and ``--gammas`` values."""
    try:
        etas = [float(v) for v in args.etas.split(",") if v.strip()]
        gammas = [int(v) for v in args.gammas.split(",") if v.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --etas/--gammas grid: {exc}") from exc
    if not etas or not gammas:
        raise UsageError(f"empty grid: --etas {args.etas!r} --gammas {args.gammas!r}")
    return [DraftPolicy(eta=eta, gamma_max=gamma) for eta in etas for gamma in gammas]


def _sweep(args, policies: list[DraftPolicy]) -> list[BenchReport]:
    """Calibrate the latency model, then report each policy over the corpus."""
    model, adapter, prompts = _decoding_inputs(args)
    gamma = max(max(p.gamma_max for p in policies), 1)
    lat = calibrate_latency(model, adapter, seed=args.seed, gamma=gamma)
    return sweep(
        model, adapter, prompts, policies, lat, args.n_tokens, Path(args.corpus).stem
    )


def cmd_bench(args) -> int:
    [report] = _sweep(args, [DraftPolicy(eta=args.eta, gamma_max=args.gamma)])
    _emit(report.to_json(), args.out)
    return 0


def cmd_verify_lossless(args) -> int:
    policies = _policy_grid(args)
    model, adapter, prompts = _decoding_inputs(args)
    try:
        run_corpus(model, adapter, policies, prompts, args.n_tokens)
    except LosslessnessError as exc:
        print(f"FAIL {exc}")
        return 1
    print(f"PASS: {len(policies) * len(prompts)} runs token-identical to the greedy reference")
    return 0


def cmd_sweep(args) -> int:
    _emit(to_csv(_sweep(args, _policy_grid(args))), args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="selfspec",
        description="Self-speculative greedy decoding benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-model", help="write synthetic frozen model weights")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, default=DESK_CONFIG["vocab_size"])
    p.add_argument("--d-model", dest="d_model", type=int, default=DESK_CONFIG["d_model"])
    p.add_argument("--heads", type=int, default=DESK_CONFIG["n_heads"])
    p.add_argument("--layers", type=int, default=DESK_CONFIG["n_layers"])
    p.add_argument("--ffn-hidden", dest="ffn_hidden", type=int, default=DESK_CONFIG["ffn_hidden"])
    p.add_argument("--exit-layer", dest="exit_layer", type=int, default=DESK_CONFIG["exit_layer"])
    p.add_argument("--rope-theta", dest="rope_theta", type=float, default=DESK_CONFIG["rope_theta"])
    p.add_argument("--max-seq-len", dest="max_seq_len", type=int, default=DESK_CONFIG["max_seq_len"])
    p.set_defaults(func=cmd_gen_model)

    p = sub.add_parser("gen-corpus", help="write a seeded order-2 Markov corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--vocab", type=int, default=DESK_CONFIG["vocab_size"])
    p.add_argument("--n-seqs", dest="n_seqs", type=int, default=64)
    p.add_argument("--len-min", dest="len_min", type=int, default=8)
    p.add_argument("--len-max", dest="len_max", type=int, default=24)
    p.set_defaults(func=cmd_gen_corpus)

    p = sub.add_parser("train", help="distill the draft adapter on a corpus")
    p.add_argument("--model", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--loss-out", dest="loss_out", default=None)
    p.add_argument("--epochs", type=int, default=10)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--beta1", type=float, default=0.9)
    p.add_argument("--beta2", type=float, default=0.999)
    p.add_argument("--weight-decay", dest="weight_decay", type=float, default=0.01)
    p.add_argument("--batch", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_train)

    def decoding_flags(p):
        p.add_argument("--model", required=True)
        p.add_argument("--adapter", required=True)
        p.add_argument("--corpus", required=True)
        p.add_argument("--n-tokens", dest="n_tokens", type=int, default=64)
        p.add_argument("--f64", action="store_true", help="run inference in float64")

    p = sub.add_parser("bench", help="vanilla vs speculative benchmark over a corpus")
    decoding_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seeds calibration's random tokens")
    p.add_argument("--eta", type=float, default=0.6)
    p.add_argument("--gamma", type=int, default=6)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify-lossless", help="assert token-exact greedy equality on a grid")
    decoding_flags(p)
    p.add_argument("--etas", default="0,0.3,0.6,1.0")
    p.add_argument("--gammas", default="0,2,6")
    p.set_defaults(func=cmd_verify_lossless)

    p = sub.add_parser("sweep", help="eta/gamma policy sweep with the latency model")
    decoding_flags(p)
    p.add_argument("--seed", type=int, default=0, help="seeds calibration's random tokens")
    p.add_argument("--etas", default="0,0.2,0.4,0.6,0.8,1.0")
    p.add_argument("--gammas", default="2,4,6")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sweep)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_output_dirs(args)
        return args.func(args)
    except LosslessnessError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (SelfspecError, FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
