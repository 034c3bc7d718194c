"""Workload definitions, set-up, and the untraced and traced measurement loops.

One closed-loop client: a single thread sends requests back to back, each
after the previous one returned.  A *unit* is one prompt's requests: the
greedy reference (``vanilla_greedy_decode``), the speculative run
(``generate``) and, until the workload's sample count is reached, a few
time-to-first-token requests (``generate`` with ``n_tokens=1``).  Every
speculative output is compared with the reference of the same unit.

Host speed on a shared machine drifts by tens of percent over seconds, in
wall and in CPU time alike.  A fixed numpy probe (``HostProbe``), owned by
the benchmark and independent of the package, runs before each request;
every reported time is scaled by ``HostProbe.REF / probe time`` (the median
probe of its block), i.e. reported at the speed of a host on which the
probe takes its reference time.  The raw numbers are printed alongside.
"""

from __future__ import annotations

import statistics
import tempfile
import time
import traceback
import zlib
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import selfspec
from selfspec import (
    AcceptanceRecord,
    DraftPolicy,
    TrainConfig,
    aggregate,
    calibrate_latency,
    desk_config,
    gen_model,
    generate,
    init_adapter,
    passthrough_adapter,
    train_adapter,
    vanilla_greedy_decode,
)
from selfspec import serialize
from selfspec.corpus import gen_corpus

from micro import invariance_check, microbench
from tracing import Instrumentation, Tracer, span_metrics

POLICY = DraftPolicy(eta=0.6, gamma_max=6)
N_NEW = 48


@dataclass(frozen=True)
class Workload:
    name: str
    alpha: float  # scale of wo/down in layers >= exit_layer
    adapter: str  # "init", "passthrough" or "trained"
    prompt_len: tuple[int, int]
    n_prompts: int  # prompts per pass; cr and the traced counts use the first pass
    n_ttft: int  # TTFT samples per run (fixes the tail percentile)
    ttft_per_unit: int
    ttft_repeats: int  # a TTFT sample is the median of this many requests, each after a probe
    block: int  # units per throughput block
    setup_reps: int
    warm_tokens: int
    trace_prompts: int
    probe: str  # HostProbe shape that matches the workload's dominant work
    units_per_train: int = 0  # >0: a training run before every that many units


_SHORT = dict(prompt_len=(6, 12), n_prompts=64, n_ttft=64, ttft_per_unit=1, ttft_repeats=3,
              block=8, setup_reps=5, warm_tokens=16, trace_prompts=24, probe="decode")
WORKLOADS = {
    w.name: w
    for w in (
        Workload("desk-low", alpha=1.0, adapter="init", **_SHORT),
        Workload("dial-high", alpha=0.1, adapter="passthrough", **_SHORT),
        Workload("long-prompt", alpha=0.1, adapter="passthrough", prompt_len=(384, 448),
                 n_prompts=15, n_ttft=30, ttft_per_unit=2, ttft_repeats=1, block=2,
                 setup_reps=3, warm_tokens=4, trace_prompts=3, probe="attention"),
        Workload("distill", alpha=1.0, adapter="trained",
                 **{**_SHORT, "setup_reps": 3, "trace_prompts": 16}, units_per_train=8),
    )
}
TRAIN_SEQS, TRAIN_LEN = 48, (12, 28)


def sub_seed(seed: int, label: str) -> int:
    """Independent 63-bit seed for one input stream of the workload seed."""
    state = np.random.SeedSequence([seed, zlib.crc32(label.encode())]).generate_state(2, np.uint64)
    return int(state[0] >> np.uint64(1))


class HostProbe:
    """Fixed numpy work whose time tracks the host's speed.

    ``decode``: two one-token steps of a small pre-norm decoder (8 layers of
    64-wide attention over 16 cached rows and a 172-wide gated MLP, then a
    256-way head), written here with plain numpy, like short-context
    decoding.  ``attention``: score rectangles, softmaxes and context sums
    over a 400-row cache, like long-prompt prefill.  ``REF`` is each shape's
    time on a quiet 2-core x86-64 host (numpy 2.4.6, OpenBLAS 0.3.31);
    there, reported and raw times agree.
    """

    REF = {"decode": 1.0e-3, "attention": 6.5e-3}

    def __init__(self, shape: str):
        rng = np.random.default_rng(0)

        def mat(*shape):
            return (rng.standard_normal(shape) / np.sqrt(shape[0])).astype(np.float32)

        self.ref = self.REF[shape]
        self._work = getattr(self, "_" + shape)
        self.x = rng.standard_normal((1, 64)).astype(np.float32)
        self.w = [mat(64, 64) for _ in range(4)]
        self.mlp = mat(64, 172), mat(64, 172), mat(172, 64)
        self.head = mat(64, 256)
        self.cache = rng.standard_normal((2, 16, 4, 16)).astype(np.float32)
        self.q = rng.standard_normal((8, 4, 16)).astype(np.float32)
        self.keys = rng.standard_normal((400, 4, 16)).astype(np.float32)
        self.samples: list[float] = []

    def _decode(self) -> None:
        wq, wk, wv, wo = self.w
        gate, up, down = self.mlp
        keys, values = self.cache
        for _ in range(2):
            x = self.x
            for _ in range(8):
                h = x / np.sqrt(np.einsum("ij,ij->i", x, x)[:, None] / 64 + 1e-5)
                q = np.einsum("ij,jk->ik", h, wq).reshape(4, 16)
                np.einsum("ij,jk->ik", h, wk)
                np.einsum("ij,jk->ik", h, wv)
                scores = np.einsum("hd,phd->hp", q, keys)
                scores = np.exp(scores - scores.max(axis=-1, keepdims=True))
                scores /= scores.sum(axis=-1, keepdims=True)
                ctx = np.einsum("hp,phd->hd", scores, values).reshape(1, 64)
                x = x + np.einsum("ij,jk->ik", ctx, wo)
                h = x / np.sqrt(np.einsum("ij,ij->i", x, x)[:, None] / 64 + 1e-5)
                hidden = np.tanh(np.einsum("ij,jk->ik", h, gate)) * np.einsum("ij,jk->ik", h, up)
                x = x + np.einsum("ij,jk->ik", hidden, down)
            int(np.argmax(np.einsum("ij,jk->ik", x, self.head)))

    def _attention(self) -> None:
        for _ in range(10):
            scores = np.einsum("thd,phd->thp", self.q, self.keys)
            for row in scores:
                row -= row.max(axis=-1, keepdims=True)
                np.exp(row, out=row)
                row /= row.sum(axis=-1, keepdims=True)
                np.einsum("hp,phd->hd", row, self.keys)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._work()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        return dt

    def factor(self) -> float:
        """Scale from raw times of this run to reference host speed."""
        return self.ref / statistics.median(self.samples)


@dataclass
class Inputs:
    model: object
    adapter: object
    prompts: list[list[int]]
    train_corpus: list[list[int]] | None
    train_seed: int


class Failures:
    """Attempted/failed request counts plus the first few failure reports."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reports: list[str] = []

    def check(self, ok: bool, report) -> bool:
        """Count one attempt; on failure record ``report()``."""
        self.attempted += 1
        if not ok:
            self.fail(report())
        return ok

    def fail(self, report: str) -> None:
        self.failed += 1
        if len(self.reports) < 20:
            self.reports.append(report)


def divergence(kind: str, idx: int, got: list[int], want: list[int]) -> str:
    pos = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    return (f"{kind} output differs from vanilla_greedy_decode on prompt {idx}: first "
            f"diverging position {pos} (got {got[pos:pos + 4]}, want {want[pos:pos + 4]})")


def _dial(model, alpha: float) -> None:
    cfg = model.config
    for layer in model.layers[cfg.exit_layer:]:
        layer.attn.wo *= np.float32(alpha)
        layer.down *= np.float32(alpha)


def make_prompts(wl: Workload, vocab_size: int, seed: int) -> list[list[int]]:
    """Markov prompts whose lengths evenly cover ``wl.prompt_len``.

    The lengths are the same for every seed (in a fixed shuffled order), so
    seeds vary the tokens and the model, not the amount of work.
    """
    lo, hi = wl.prompt_len
    n = wl.n_prompts
    seqs = gen_corpus(vocab_size, n, (hi, hi), seed)
    lengths = [lo + (i * (hi - lo)) // max(n - 1, 1) for i in range(n)]
    order = np.random.default_rng(0).permutation(n)
    return [seqs[i][: lengths[j]] for i, j in enumerate(order)]


def _round_trip(model, adapter, corpora, workdir: Path, tracer: Tracer | None):
    """Save and reload weights and token lists through ``serialize``; reloads
    must be bit-exact."""
    paths = workdir / "model.kngr", workdir / "adapter.knga"
    texts = [workdir / f"corpus{i}.txt" for i in range(len(corpora))]
    with _maybe_span(tracer, "serialize.save"):
        serialize.save_weights(model, paths[0])
        serialize.save_adapter(adapter, paths[1])
        for corpus, path in zip(corpora, texts):
            serialize.write_corpus(corpus, path)
    with _maybe_span(tracer, "serialize.load"):
        _, loaded = serialize.load_weights(paths[0])
        loaded_adapter = serialize.load_adapter(paths[1])
        loaded_corpora = [serialize.read_corpus(path) for path in texts]
    if loaded_corpora != corpora:
        raise RuntimeError("serialize round trip changed a token list")
    again = workdir / "again.kngr", workdir / "again.knga"
    serialize.save_weights(loaded, again[0])
    serialize.save_adapter(loaded_adapter, again[1])
    for a, b in zip(paths, again):
        if a.read_bytes() != b.read_bytes():
            raise RuntimeError(f"serialize round trip of {a.name} is not bit-exact")
    return loaded, loaded_adapter, loaded_corpora


def _maybe_span(tracer: Tracer | None, name: str):
    return nullcontext() if tracer is None else tracer.span(name)


def set_up(wl: Workload, seed: int, workdir: Path, tracer: Tracer | None = None) -> Inputs:
    """Generate the workload's inputs, round-trip them through serialize, warm up."""
    cfg = desk_config()
    model = gen_model(cfg, sub_seed(seed, "model"))
    if wl.alpha != 1.0:
        _dial(model, wl.alpha)
    if wl.adapter == "passthrough":
        adapter = passthrough_adapter(model)
    else:
        adapter = init_adapter(model, sub_seed(seed, "adapter"))
    prompts = make_prompts(wl, cfg.vocab_size, sub_seed(seed, "prompts"))
    corpora = [prompts]
    if wl.units_per_train:
        corpora.append(gen_corpus(cfg.vocab_size, TRAIN_SEQS, TRAIN_LEN, sub_seed(seed, "train")))
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        model, adapter, corpora = _round_trip(model, adapter, corpora, Path(tmp), tracer)
    prompts, train_corpus = corpora[0], (corpora[1] if wl.units_per_train else None)
    inputs = Inputs(model, adapter, prompts, train_corpus, sub_seed(seed, "train-run"))
    for prompt in prompts[:2]:
        vanilla_greedy_decode(model, prompt, wl.warm_tokens)
        generate(model, adapter, POLICY, prompt, wl.warm_tokens)
    if train_corpus is not None:
        train_adapter(model, adapter, train_corpus[:8], TrainConfig(epochs=1, seed=inputs.train_seed))
    return inputs


def timed_set_up(wl: Workload, seed: int, workdir: Path, probe: HostProbe, tracer=None):
    """Set up ``wl.setup_reps`` times; median set-up seconds at reference speed."""
    times = []
    for _ in range(wl.setup_reps):
        before = probe()
        t0 = time.perf_counter()
        if tracer is None:
            inputs = set_up(wl, seed, workdir)
        else:
            with tracer.request_span(-1, "setup"):
                inputs = set_up(wl, seed, workdir, tracer)
        raw = time.perf_counter() - t0
        times.append(raw * probe.ref / statistics.mean([before, probe()]))
    return inputs, statistics.median(times)


def _train(inputs: Inputs, failures: Failures):
    """One distillation run; returns (adapter, seconds, positions, final loss)."""
    cfg = TrainConfig(seed=inputs.train_seed)
    t0 = time.perf_counter()
    adapter, curve = train_adapter(inputs.model, init_adapter(inputs.model, inputs.train_seed),
                                   inputs.train_corpus, cfg)
    seconds = time.perf_counter() - t0
    ok = all(np.isfinite(curve)) and curve[-1] < curve[0]
    failures.check(ok, lambda: f"distill loss check failed: first epoch {curve[0]}, last {curve[-1]}")
    positions = cfg.epochs * sum(len(seq) for seq in inputs.train_corpus)
    return adapter, seconds, positions, curve[-1]


def _tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its value."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return 0.0, ordered[0]
    return 100.0 * (n - 10) / n, ordered[n - 11]


def measure(wl: Workload, inputs: Inputs, seconds: float, probe: HostProbe, failures: Failures):
    """Untraced closed loop for ``seconds``; returns (end-to-end metrics, detail).

    The loop also runs until the first pass over the prompts and the TTFT
    samples are complete, so that cr and the tail percentile never depend on
    the host's speed.
    """
    model, prompts = inputs.model, inputs.prompts
    adapter = inputs.adapter
    references: dict[int, list[int]] = {}
    first_pass: list[AcceptanceRecord] = []
    units = []  # (vanilla s, spec s, median probe s)
    ttft: list[float] = []  # seconds at reference speed
    trains = []  # (positions/s at reference speed, final loss)
    deadline = time.perf_counter() + seconds
    while (time.perf_counter() < deadline or len(units) < len(prompts)
           or len(ttft) < wl.n_ttft or (wl.units_per_train and not trains)):
        u = len(units)
        idx = u % len(prompts)
        prompt = prompts[idx]
        probes = [probe()]
        if wl.units_per_train and u % wl.units_per_train == 0:
            try:
                adapter, dt, positions, loss = _train(inputs, failures)
                probes.append(probe())
                trains.append((positions / dt * statistics.median(probes) / probe.ref, loss))
            except Exception:
                failures.fail("training raised: " + traceback.format_exc(limit=3))
        try:
            t0 = time.perf_counter()
            reference = vanilla_greedy_decode(model, prompt, N_NEW)
            t_van = time.perf_counter() - t0
        except Exception:
            failures.fail(f"reference raised on prompt {idx}: {traceback.format_exc(limit=3)}")
            units.append((0.0, 0.0, statistics.median(probes)))
            continue
        if references.setdefault(idx, reference) != reference:
            failures.fail(f"vanilla_greedy_decode changed its output for prompt {idx}")
        probes.append(probe())
        try:
            t0 = time.perf_counter()
            result = generate(model, adapter, POLICY, prompt, N_NEW)
            t_spec = time.perf_counter() - t0
            if failures.check(result.tokens == reference,
                              lambda: divergence("generate", idx, result.tokens, reference)):
                if u < len(prompts):
                    first_pass.append(AcceptanceRecord(result.emitted_per_round))
        except Exception:
            failures.attempted += 1
            failures.fail(f"generate raised on prompt {idx}: {traceback.format_exc(limit=3)}")
            t_spec = 0.0
        for _ in range(min(wl.ttft_per_unit, wl.n_ttft - len(ttft))):
            repeats = []
            for _ in range(wl.ttft_repeats):
                before = probe()
                try:
                    t0 = time.perf_counter()
                    first = generate(model, adapter, POLICY, prompt, 1)
                    repeats.append((time.perf_counter() - t0) * probe.ref / before)
                    failures.check(first.tokens == reference[:1], lambda: divergence(
                        "first-token generate", idx, first.tokens, reference[:1]))
                except Exception:
                    failures.attempted += 1
                    failures.fail(f"first-token generate raised on prompt {idx}: "
                                  f"{traceback.format_exc(limit=3)}")
            if repeats:
                ttft.append(statistics.median(repeats))
        units.append((t_van, t_spec, statistics.median(probes)))
    return _summarise(wl, units, ttft, trains, first_pass, probe.ref)


def _summarise(wl, units, ttft, trains, first_pass, ref):
    good = [u for u in units if u[0] > 0 and u[1] > 0]
    blocks = [good[i:i + wl.block] for i in range(0, len(good) - wl.block + 1, wl.block)]
    spec_tok_s, vanilla_tok_s = [], []
    for blk in blocks:
        scale = statistics.median(u[2] for u in blk) / ref
        vanilla_tok_s.append(len(blk) * N_NEW / sum(u[0] for u in blk) * scale)
        spec_tok_s.append(len(blk) * N_NEW / sum(u[1] for u in blk) * scale)
    ttft_ms = [t * 1e3 for t in ttft]
    pct, tail = _tail(ttft_ms)
    raw_spec = sum(u[1] for u in good)
    raw_van = sum(u[0] for u in good)
    metrics = {
        "spec_tok_s": statistics.median(spec_tok_s),
        "vanilla_tok_s": statistics.median(vanilla_tok_s),
        "speedup": raw_van / raw_spec,
        "ttft_p50_ms": statistics.median(ttft_ms),
        "ttft_tail_ms": tail,
    }
    detail = {
        "cr": aggregate(first_pass).pooled_cr,
        "units": len(units),
        "blocks": len(blocks),
        "first_pass_prompts": len(first_pass),
        "ttft_samples": len(ttft_ms),
        "ttft_tail_percentile": pct,
        "raw": {
            "spec_tok_s": len(good) * N_NEW / raw_spec,
            "vanilla_tok_s": len(good) * N_NEW / raw_van,
        },
        "block_quartiles": {
            "spec_tok_s": statistics.quantiles(spec_tok_s, n=4) if len(blocks) > 1 else spec_tok_s,
            "vanilla_tok_s": statistics.quantiles(vanilla_tok_s, n=4) if len(blocks) > 1 else vanilla_tok_s,
        },
    }
    if trains:
        detail["train_pos_s"] = statistics.median(t[0] for t in trains)
        detail["train_loss"] = trains[-1][1]
        detail["train_runs"] = len(trains)
    return metrics, detail


def measure_traced(wl: Workload, inputs: Inputs, seed: int, seconds: float, probe: HostProbe,
                   failures: Failures, tracer: Tracer, instrumentation: Instrumentation):
    """Traced pass over the first ``wl.trace_prompts`` prompts, kernel
    microbenchmarks, the invariance check and the simulator's accuracy."""
    model, adapter = inputs.model, inputs.adapter
    start = time.perf_counter()
    m: dict[str, float] = {}
    if wl.units_per_train:
        probe()
        adapter, dt, positions, loss = _train(inputs, failures)
        m["training.pos_s"] = positions / dt * probe() / probe.ref
        m["training.positions"] = positions
        m["training.loss"] = loss
        with instrumentation.installed(), tracer.request_span(-1, "train"):
            _train(inputs, failures)

    prompts = inputs.prompts[: wl.trace_prompts]
    records, rounds = [], []
    t_van = t_spec = t_traced = 0.0
    for idx, prompt in enumerate(prompts):
        probe()
        t0 = time.perf_counter()
        reference = vanilla_greedy_decode(model, prompt, N_NEW)
        t1 = time.perf_counter()
        result = generate(model, adapter, POLICY, prompt, N_NEW)
        t2 = time.perf_counter()
        with instrumentation.installed():
            t3 = time.perf_counter()
            with tracer.request_span(idx, "request.spec"):
                traced = generate(model, adapter, POLICY, prompt, N_NEW)
            t4 = time.perf_counter()
            with tracer.request_span(idx, "request.vanilla"):
                vanilla_greedy_decode(model, prompt, N_NEW)
        t_van += t1 - t0
        t_spec += t2 - t1
        t_traced += t4 - t3
        for out in (result, traced):
            failures.check(out.tokens == reference,
                           lambda: divergence("generate", idx, out.tokens, reference))
        records.append(AcceptanceRecord(result.emitted_per_round))
        rounds.extend(result.rounds)

    checked, mismatches = invariance_check(model, POLICY.gamma_max)
    failures.attempted += checked
    for report in mismatches:
        failures.fail("kernel batch invariance: " + report)
    m["kernels.invariance.checked"] = checked
    m["kernels.invariance.mismatches"] = len(mismatches)

    t0 = time.perf_counter()
    lat = calibrate_latency(model, adapter, reps=5, seed=sub_seed(seed, "calibration"),
                            gamma=POLICY.gamma_max)
    m["simulator.calibrate_ms"] = (time.perf_counter() - t0) * 1e3
    pred_spec = sum(lat.round_cost(r.drafted) for r in rounds)
    pred_van = len(prompts) * N_NEW * lat.c_big
    m["simulator.pred_speedup"] = pred_van / pred_spec
    m["simulator.pred_err_spec"] = abs(pred_spec - t_spec) / t_spec
    m["simulator.pred_err_vanilla"] = abs(pred_van - t_van) / t_van

    host = probe.factor()
    m["simulator.calibrate_ms"] *= host
    budget = max(1.0, seconds - (time.perf_counter() - start))
    m.update(microbench(model, POLICY.gamma_max, budget, host))
    m.update(span_metrics(tracer.spans, POLICY.gamma_max, host))
    for name in ("serialize.save_ms", "serialize.load_ms"):
        m[name] = m.get(name, 0.0) / wl.setup_reps
    report = aggregate(records)
    drafted = sum(r.drafted for r in rounds)
    accepted = sum(r.accepted_drafts for r in rounds)
    m.update({
        "host.ref_us": statistics.median(probe.samples) * 1e6,
        "trace.requests": len(prompts),
        "trace.spans": len(tracer.spans),
        "trace.overhead": t_spec / t_traced,
        "engine.rounds": report.total_rounds,
        "engine.cr": report.pooled_cr,
        "engine.drafted": drafted,
        "engine.accepted": accepted,
        "engine.accept_ratio": accepted / drafted if drafted else 0.0,
        "engine.nonfinite_conf": sum(not np.isfinite(c) for r in rounds for c in r.confidences),
    })
    for reason in selfspec.StopReason:
        m[f"engine.stop.{reason.value}"] = sum(r.stop_reason is reason for r in rounds)
    for w, value in report.ctar_pooled.items():
        m[f"metrics.ctar_{w}"] = value
    return m
