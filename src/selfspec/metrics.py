"""Acceptance metrics: compression rate, CTAR, and benchmark aggregation.

The compression rate of a run that emitted ``s_k`` tokens on round ``k`` is
``mean(s_k) = N / |S|``; the consistent token acceptance rate ``CTAR(w)`` is
the fraction of rounds whose emitted count exceeds the window ``w``, which
is non-increasing in ``w``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field

from .errors import MetricsDomainError, ShapeError

CTAR_WINDOWS = (1, 2, 3, 4, 5, 6)


@dataclass(frozen=True)
class AcceptanceRecord:
    """Per-round emitted counts ``s_k`` of one generation run."""

    s: tuple[int, ...]

    def __init__(self, s) -> None:
        object.__setattr__(self, "s", tuple(int(v) for v in s))
        if any(v < 1 for v in self.s):
            raise MetricsDomainError(f"every s_k must be >= 1, got {self.s}")

    @property
    def n_tokens(self) -> int:
        return sum(self.s)

    @property
    def rounds(self) -> int:
        return len(self.s)


def compression_rate(rec: AcceptanceRecord) -> float:
    """Mean accepted tokens per big-model forward: ``N / |S|``."""
    if rec.rounds == 0:
        raise MetricsDomainError("compression rate of an empty run")
    return rec.n_tokens / rec.rounds


def ctar(rec: AcceptanceRecord, w: int) -> float:
    """Fraction of rounds with ``s_k > w``."""
    if rec.rounds == 0:
        raise MetricsDomainError("CTAR of an empty run")
    if w < 0:
        raise MetricsDomainError(f"window must be >= 0, got {w}")
    return sum(1 for s_k in rec.s if s_k > w) / rec.rounds


@dataclass
class BenchReport:
    """Pooled and per-prompt metrics for one benchmark pass."""

    subtask: str
    pooled_cr: float
    macro_cr: float
    ctar_pooled: dict[int, float]
    n_prompts: int
    total_tokens: int
    total_rounds: int
    speedup: float | None = None
    tokens_per_sec: float | None = None
    simulated_speedup: float | None = None
    nonfinite_confidences: int | None = None
    drafting_rounds: int | None = None
    deferred_rounds: int | None = None
    per_prompt_cr: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        payload = {
            "subtask": self.subtask,
            "pooled_cr": self.pooled_cr,
            "macro_cr": self.macro_cr,
            "ctar": {f"ctar_{w}": v for w, v in sorted(self.ctar_pooled.items())},
            "n_prompts": self.n_prompts,
            "total_tokens": self.total_tokens,
            "total_rounds": self.total_rounds,
            "speedup": self.speedup,
            "tokens_per_sec": self.tokens_per_sec,
            "simulated_speedup": self.simulated_speedup,
            "nonfinite_confidences": self.nonfinite_confidences,
            "drafting_rounds": self.drafting_rounds,
            "deferred_rounds": self.deferred_rounds,
            "per_prompt_cr": self.per_prompt_cr,
        }
        return json.dumps(payload, indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        header = ["subtask", "CR"] + [f"CTAR_{w}" for w in CTAR_WINDOWS] + [
            "speedup",
            "tokens_per_sec",
            "simulated_speedup",
        ]
        fmt = lambda v: "" if v is None else f"{v:.6f}"
        writer.writerow(header)
        writer.writerow(
            [self.subtask, f"{self.pooled_cr:.6f}"]
            + [f"{self.ctar_pooled[w]:.6f}" for w in CTAR_WINDOWS]
            + [fmt(self.speedup), fmt(self.tokens_per_sec), fmt(self.simulated_speedup)]
        )
        return buf.getvalue()


def aggregate(
    records: list[AcceptanceRecord],
    vanilla_seconds: list[float] | None = None,
    spec_seconds: list[float] | None = None,
    subtask: str = "corpus",
) -> BenchReport:
    """Pool records across prompts (micro-average) and report macro CR too.

    Pooled CR is total tokens over total rounds; pooled CTAR(w) pools all
    rounds.  Speedup is total vanilla walltime over total speculative
    walltime when both timing lists are given.
    """
    if not records:
        raise MetricsDomainError("aggregate of zero records")
    pooled = AcceptanceRecord(s_k for r in records for s_k in r.s)
    total_tokens = pooled.n_tokens
    speedup = None
    tokens_per_sec = None
    if vanilla_seconds is not None or spec_seconds is not None:
        if (
            vanilla_seconds is None
            or spec_seconds is None
            or len(vanilla_seconds) != len(records)
            or len(spec_seconds) != len(records)
        ):
            raise ShapeError("walltime lists must match the records one-to-one")
        total_spec = sum(spec_seconds)
        speedup = sum(vanilla_seconds) / total_spec if total_spec > 0 else float("inf")
        tokens_per_sec = total_tokens / total_spec if total_spec > 0 else float("inf")
    per_prompt_cr = [compression_rate(r) for r in records]
    return BenchReport(
        subtask=subtask,
        pooled_cr=compression_rate(pooled),
        macro_cr=sum(per_prompt_cr) / len(records),
        ctar_pooled={w: ctar(pooled, w) for w in CTAR_WINDOWS},
        n_prompts=len(records),
        total_tokens=total_tokens,
        total_rounds=pooled.rounds,
        speedup=speedup,
        tokens_per_sec=tokens_per_sec,
        per_prompt_cr=per_prompt_cr,
    )
