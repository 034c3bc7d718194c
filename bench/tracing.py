"""In-memory span tracing by rebinding the names the package's callers look up.

Nothing under ``src/`` knows about tracing: ``Instrumentation.installed()``
swaps selected module globals and class attributes of ``selfspec`` for
wrappers that record a span around each call, and restores the originals on
exit.  Spans are kept in a list and written out when the run ends.

A span is ``[name, start, end, parent, request, attrs]`` with ``parent`` the
index of the enclosing span (-1 for a root) and ``request`` the id of the
benchmark request that caused it.  ``attrs`` holds the row count ``T`` and,
where it applies, the first position ``start`` or the attention context
``ctx`` (cache length after the call).
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import selfspec.adapter
import selfspec.engine
import selfspec.model
import selfspec.training

_clock = time.perf_counter


class Tracer:
    """Span recorder for one single-threaded benchmark process."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.request = -1

    def begin(self, name: str, attrs: dict | None = None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _clock(), 0.0, parent, self.request, attrs or {}])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][2] = _clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, attrs: dict | None = None):
        idx = self.begin(name, attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    @contextmanager
    def request_span(self, request: int, kind: str, attrs: dict | None = None):
        """Root span of one benchmark request; its children share its id."""
        self.request = request
        with self.span(kind, attrs) as idx:
            yield idx

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for name, start, end, parent, request, attrs in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end,
                    "parent": parent, "request": request, **attrs,
                }))
                fh.write("\n")


# (owner, attribute, span name, attrs from the call's positional arguments).
# The engine and the greedy reference look up forward_shallow/forward_remaining
# in their own modules, so both bindings are wrapped under one span name.
_TARGETS = (
    (selfspec.engine, "forward_shallow", "model.forward_shallow",
     lambda a: {"T": len(a[1]), "start": a[2].shallow_len}),
    (selfspec.engine, "forward_remaining", "model.forward_remaining",
     lambda a: {"T": len(a[1]), "start": a[1].start}),
    (selfspec.engine, "draft_logits", "adapter.draft_logits",
     lambda a: {"T": len(a[2]), "start": a[2].start}),
    (selfspec.model, "forward_shallow", "model.forward_shallow",
     lambda a: {"T": len(a[1]), "start": a[2].shallow_len}),
    (selfspec.model, "forward_remaining", "model.forward_remaining",
     lambda a: {"T": len(a[1]), "start": a[1].start}),
    (selfspec.model, "causal_attention", "kernels.attention",
     lambda a: {"T": len(a[1]), "ctx": a[3] + len(a[1])}),
    (selfspec.model, "gated_ffn", "kernels.ffn", lambda a: {"T": len(a[0])}),
    (selfspec.model, "rmsnorm", "kernels.rmsnorm", lambda a: {"T": len(a[0])}),
    (selfspec.model, "matmul", "kernels.lm_head", lambda a: {"T": len(a[0])}),
    (selfspec.adapter, "causal_attention", "kernels.attention",
     lambda a: {"T": len(a[1]), "ctx": a[3] + len(a[1])}),
    (selfspec.engine.DecodeSession, "draft_window", "engine.draft_window", lambda a: {}),
    (selfspec.engine.DecodeSession, "verify_window", "engine.verify_window",
     lambda a: {"T": len(a[1].features)}),
    (selfspec.training, "build_distill_batches", "training.teacher", lambda a: {}),
    (selfspec.training, "adapter_backward", "training.backward",
     lambda a: {"T": a[1].positions}),
    (selfspec.training.AdamW, "step", "training.optim", lambda a: {}),
)


def _wrap(tracer: Tracer, fn, name: str, attrs_of):
    def traced(*args, **kwargs):
        idx = tracer.begin(name, attrs_of(args))
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(idx)

    return traced


class Instrumentation:
    """Rebinds every traced name to a span-recording wrapper while active."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in _TARGETS]
        self._wrapped = [
            (owner, attr, _wrap(tracer, fn, name, attrs_of))
            for (owner, attr, fn), (_, _, name, attrs_of) in zip(self._originals, _TARGETS)
        ]

    @contextmanager
    def installed(self):
        for owner, attr, wrapper in self._wrapped:
            setattr(owner, attr, wrapper)
        try:
            yield self.tracer
        finally:
            for owner, attr, fn in self._originals:
                setattr(owner, attr, fn)


def _t_bucket(rows: int, gamma: int) -> str:
    if rows == 1:
        return "T1"
    return f"T2_{gamma + 1}" if rows <= gamma + 1 else f"Tgt{gamma + 1}"


def span_metrics(spans: list[list], gamma: int, host_factor: float) -> dict[str, float]:
    """Per-layer totals over every traced request, from the recorded spans.

    Roots are the benchmark's own request spans (``request.spec``,
    ``request.vanilla``, ``train``, ``setup``).  Self time is a span's
    duration minus its direct children's durations (one thread, so children
    nest and never overlap).  Times are scaled by ``host_factor`` to the
    reference host speed.  A forward whose first position is 0 is a prompt
    pass (prefill); later one-row remaining-layer passes of the greedy
    reference are its decode steps.
    """
    width = gamma + 1
    child = [0.0] * len(spans)
    root = [0] * len(spans)
    for i, (_, t0, t1, parent, _, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += t1 - t0
            root[i] = root[parent]
        else:
            root[i] = i

    m: dict[str, float] = {}

    def add(name: str, value: float) -> None:
        m[name] = m.get(name, 0.0) + value

    for i, (name, t0, t1, parent, _, attrs) in enumerate(spans):
        us = (t1 - t0) * 1e6 * host_factor
        self_us = us - child[i] * 1e6 * host_factor
        kind = spans[root[i]][0]
        pname = spans[parent][0] if parent >= 0 else ""
        rows = attrs.get("T", 0)
        if name.startswith("training.") and kind == "train" or name.startswith("serialize."):
            add(f"{name}_ms", us / 1e3)
        elif kind not in ("request.spec", "request.vanilla"):
            continue
        elif name == "request.spec":
            add("engine.self_ms", self_us / 1e3)
        elif name in ("engine.draft_window", "engine.verify_window"):
            add(name + "_ms", us / 1e3)
            add("engine.self_ms", self_us / 1e3)
        elif name in ("model.forward_shallow", "model.forward_remaining", "adapter.draft_logits"):
            if attrs["start"] == 0:
                if kind == "request.spec":
                    add("model.prefill.ms", us / 1e3)
            elif name == "model.forward_shallow" and pname == "engine.draft_window":
                add("model.shallow.calls", 1)
                add("model.shallow.rows", rows)
                add("model.shallow.us", us)
            elif name == "adapter.draft_logits" and pname == "engine.draft_window":
                add("adapter.probe.calls", 1)
                add("adapter.probe.us", us)
                add("adapter.probe.backlog_rows", rows - 1)
            elif name == "model.forward_remaining" and pname == "engine.verify_window":
                add(f"model.verify.T{rows}.calls", 1)
                add(f"model.verify.T{rows}.us", us)
            elif name == "model.forward_remaining" and kind == "request.vanilla" and rows == 1:
                add("model.step.T1.calls", 1)
                add("model.step.T1.us", us)
        elif name.startswith("kernels."):
            add(f"{name}.{_t_bucket(rows, gamma)}.us", us)
            if name == "kernels.attention":
                add(f"kernels.attention.ctx_{'le' if attrs['ctx'] <= 64 else 'gt'}64.us", us)

    shallow_rows = m.get("model.shallow.rows", 0.0)
    m["model.shallow.us_per_row"] = m.pop("model.shallow.us", 0.0) / shallow_rows if shallow_rows else 0.0
    verify_us = sum(m.get(f"model.verify.T{t}.us", 0.0) for t in range(1, width + 1))
    full_us = m.get(f"model.verify.T{width}.us", 0.0)
    m[f"model.verify.T{width}_share"] = full_us / verify_us if verify_us else 0.0
    one_calls = m.get("model.verify.T1.calls", 0.0) + m.get("model.step.T1.calls", 0.0)
    one_us = m.get("model.verify.T1.us", 0.0) + m.get("model.step.T1.us", 0.0)
    full_calls = m.get(f"model.verify.T{width}.calls", 0.0)
    m[f"model.verify.T{width}_over_T1"] = (
        (full_us / full_calls) / (one_us / one_calls) if full_calls and one_calls else 0.0
    )
    return m
