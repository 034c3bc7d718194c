"""Acceptance metrics: compression rate, CTAR, benchmark aggregation and its CSV.

The compression rate of a run that emitted ``s_k`` tokens on round ``k`` is
``mean(s_k) = N / |S|``; the consistent token acceptance rate ``CTAR(w)`` is
the fraction of rounds whose emitted count exceeds the window ``w``, which
is non-increasing in ``w``.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import asdict, dataclass, field

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
    eta: float | None = None
    gamma: int | None = None
    speedup: float | None = None
    tokens_per_sec: float | None = None
    simulated_speedup: float | None = None
    nonfinite_confidences: int | None = None
    drafting_rounds: int | None = None
    deferred_rounds: int | None = None
    per_prompt_cr: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        """Every field, with CTAR as ``{"ctar": {"ctar_<w>": ...}}``."""
        payload = {"ctar" if k == "ctar_pooled" else k: v for k, v in asdict(self).items()}
        payload["ctar"] = {f"ctar_{w}": v for w, v in sorted(self.ctar_pooled.items())}
        return json.dumps(payload, indent=2)


def to_csv(reports: list[BenchReport]) -> str:
    """One CSV row per report; a field the report lacks is an empty cell."""

    def cell(value, spec: str = ".6f") -> str:
        return "" if value is None else format(value, spec)

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["eta", "gamma", "CR"]
        + [f"CTAR_{w}" for w in CTAR_WINDOWS]
        + ["simulated_speedup", "measured_speedup", "tokens_per_sec"]
        + ["nonfinite_confidences", "drafting_rounds", "deferred_rounds", "subtask"]
    )
    for r in reports:
        writer.writerow(
            [cell(r.eta, "g"), cell(r.gamma, "d"), cell(r.pooled_cr)]
            + [cell(r.ctar_pooled[w]) for w in CTAR_WINDOWS]
            + [cell(r.simulated_speedup), cell(r.speedup), cell(r.tokens_per_sec)]
            + [cell(r.nonfinite_confidences, "d"), cell(r.drafting_rounds, "d")]
            + [cell(r.deferred_rounds, "d"), r.subtask]
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
