"""CSV/JSON report emission.

All CSVs are UTF-8, comma-delimited, one header row. When provenance is
given it is embedded as a single leading '#' comment line carrying the tool
version and the config/corpus/seed fingerprints; the writers are otherwise
pure functions of their inputs, so identical runs produce identical bytes.
Rates are fractions in memory and percentages (one decimal) in the table
reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .metrics import WorstChannelRow
from .search import EliminationTrace, SweepResult
from .signals import parse_subset


@dataclass(frozen=True)
class Provenance:
    version: str
    config_hash: str
    corpus_hash: str
    seed: int

    def line(self) -> str:
        return (
            f"# chansel={self.version} config={self.config_hash[:12]} "
            f"corpus={self.corpus_hash[:12]} seed={self.seed}"
        )


def _render(lines: Sequence[str], provenance: Provenance | None) -> str:
    head = [provenance.line()] if provenance else []
    return "\n".join([*head, *lines]) + "\n"


def pct(rate: float) -> str:
    return f"{rate * 100:.1f}"


def sweep_csv(sweep: SweepResult, provenance: Provenance | None = None) -> str:
    lines = ["subset_label,wer,per_total,seed_count"]
    for r in sweep.records:
        lines.append(f"{r.subset_label},{r.wer!r},{r.per_total!r},{r.n_seeds}")
    return _render(lines, provenance)


def top_subsets_csv(
    sweep: SweepResult,
    k_top: int,
    counts: Sequence[int],
    provenance: Provenance | None = None,
) -> str:
    """Top-k subsets with per-channel membership indicators and a trailing
    count row; metric shown as a percentage."""
    channel_cols = ",".join(str(c + 1) for c in range(sweep.channels))
    lines = [f"subset,{channel_cols},{sweep.metric_name}"]
    for r in sweep.records[:k_top]:
        members = set(parse_subset(r.subset_label, sweep.channels).indices)
        indicators = ",".join("1" if c in members else "0" for c in range(sweep.channels))
        lines.append(f"{r.subset_label},{indicators},{pct(r.metric(sweep.metric_name))}")
    lines.append("count," + ",".join(str(n) for n in counts) + ",")
    return _render(lines, provenance)


def channel_average_csv(
    averages: Sequence[tuple[int, float]],
    metric_name: str = "wer",
    provenance: Provenance | None = None,
) -> str:
    """Per-channel mean metric, best channel first; channels are 1-based."""
    lines = [f"channel,avg_{metric_name}"]
    for ch, mean in averages:
        lines.append(f"{ch + 1},{pct(mean)}")
    return _render(lines, provenance)


def worst_channel_csv(
    rows: Sequence[WorstChannelRow], provenance: Provenance | None = None
) -> str:
    lines = ["category,baseline_per,worst_per,critical_channel"]
    for row in rows:
        lines.append(
            f"{row.category},{pct(row.baseline_rate)},{pct(row.worst_rate)},{row.channel}"
        )
    return _render(lines, provenance)


def elimination_json(trace: EliminationTrace, provenance: Provenance | None = None) -> str:
    doc = trace.to_dict()
    if provenance:
        doc["meta"] = {
            "version": provenance.version,
            "config_hash": provenance.config_hash,
            "corpus_hash": provenance.corpus_hash,
            "seed": provenance.seed,
        }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def elimination_plot_csv(trace: EliminationTrace, provenance: Provenance | None = None) -> str:
    """Plot-ready channel-count curve: best and median candidate metric at
    each surviving subset size."""
    lines = [f"channel_count,best_{trace.metric_name},median_{trace.metric_name}"]
    for step in trace.steps:
        metrics = sorted(m for _, m in step.candidates)
        n = len(metrics)
        median = metrics[n // 2] if n % 2 else (metrics[n // 2 - 1] + metrics[n // 2]) / 2
        lines.append(f"{len(step.surviving)},{step.metric!r},{median!r}")
    return _render(lines, provenance)


def training_log_csv(
    epoch_losses: Sequence[float],
    mean_retained: float,
    provenance: Provenance | None = None,
) -> str:
    lines = ["epoch,loss,mean_retained_channels"]
    for i, loss in enumerate(epoch_losses):
        lines.append(f"{i},{loss!r},{mean_retained!r}")
    return _render(lines, provenance)


def write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
