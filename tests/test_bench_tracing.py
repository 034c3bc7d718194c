"""The traced benchmark's bindings resolve on this tree.

``bench/tracing.py`` rebinds names of the package by attribute name, so a
rename under ``src/`` breaks ``bench/run.py --trace 1`` while the untraced
benchmark still runs.  This test imports the tracer from ``bench/`` and
changes nothing there.
"""

import sys
from pathlib import Path

from selfspec import DraftPolicy, generate, passthrough_adapter, vanilla_greedy_decode

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import tracing  # noqa: E402


def test_traced_requests_report_every_pass_and_restore_the_originals(dialed_desk_model):
    model = dialed_desk_model(0.1)
    adapter = passthrough_adapter(model)
    policy = DraftPolicy(eta=0.6, gamma_max=6)
    prompt = [9, 8, 7, 6, 5]
    originals = [getattr(owner, attr) for owner, attr, _, _ in tracing._TARGETS]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer).installed():
        with tracer.request_span(0, "request.spec"):
            spec = generate(model, adapter, policy, prompt, 24)
        with tracer.request_span(1, "request.vanilla"):
            greedy = vanilla_greedy_decode(model, prompt, 24)
    assert spec.tokens == greedy
    assert [getattr(owner, attr) for owner, attr, _, _ in tracing._TARGETS] == originals

    metrics = tracing.span_metrics(tracer.spans, policy.gamma_max, 1.0)
    verify_calls = sum(metrics.get(f"model.verify.T{t}.calls", 0)
                       for t in range(1, policy.gamma_max + 2))
    assert metrics["adapter.probe.calls"] > 0
    assert metrics["model.shallow.calls"] > 0
    assert verify_calls > 0
    assert metrics["model.step.T1.calls"] == 23  # the greedy reference after its prefill
    assert metrics["model.prefill.ms"] > 0
