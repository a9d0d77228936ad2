"""Every report file the subcommands write, CSV and JSON.

All CSVs are UTF-8, comma-delimited, one header row, quoted as
``csv.writer`` quotes by default: only a field holding a comma, quote or line
break, such as the subset label ``1,2,10`` of a corpus of ten or more
channels, is quoted. When provenance is given it is embedded as a single
leading '#' comment line carrying the tool version and the config/corpus/seed
fingerprints; the writers are otherwise pure functions of their inputs, so
identical runs produce identical bytes.
Rates are fractions in memory and percentages (one decimal) in the table
reports.
"""

from __future__ import annotations

import csv
import io
from dataclasses import asdict, dataclass
from typing import Sequence

from ._version import __version__
from .artefacts import json_text
from .metrics import WorstChannelRow
from .model import EvalRecord
from .search import AblationResult, EliminationTrace, SweepResult
from .signals import parse_subset


@dataclass(frozen=True)
class Provenance:
    config_hash: str
    corpus_hash: str
    seed: int
    version: str = __version__

    def line(self) -> str:
        return (
            f"# chansel={self.version} config={self.config_hash[:12]} "
            f"corpus={self.corpus_hash[:12]} seed={self.seed}"
        )


def _render(rows: Sequence[Sequence[object]], provenance: Provenance | None) -> str:
    out = io.StringIO()
    if provenance:
        out.write(provenance.line() + "\n")
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def pct(rate: float) -> str:
    return f"{rate * 100:.1f}"


def sweep_csv(sweep: SweepResult, provenance: Provenance | None = None) -> str:
    rows = [("subset_label", "wer", "per_total", "seed_count")]
    rows += [(r.subset_label, repr(r.wer), repr(r.per_total), r.n_seeds) for r in sweep.records]
    return _render(rows, provenance)


def top_subsets_csv(
    sweep: SweepResult,
    k_top: int,
    counts: Sequence[int],
    provenance: Provenance | None = None,
) -> str:
    """Top-k subsets with per-channel membership indicators and a trailing
    count row; metric shown as a percentage."""
    rows = [("subset", *range(1, sweep.channels + 1), sweep.metric_name)]
    for r in sweep.records[:k_top]:
        members = set(parse_subset(r.subset_label, sweep.channels).indices)
        indicators = (1 if c in members else 0 for c in range(sweep.channels))
        rows.append((r.subset_label, *indicators, pct(r.metric(sweep.metric_name))))
    rows.append(("count", *counts, ""))
    return _render(rows, provenance)


def channel_average_csv(
    averages: Sequence[tuple[int, float]],
    metric_name: str = "wer",
    provenance: Provenance | None = None,
) -> str:
    """Per-channel mean metric, best channel first; channels are 1-based."""
    rows = [("channel", f"avg_{metric_name}")]
    rows += [(ch + 1, pct(mean)) for ch, mean in averages]
    return _render(rows, provenance)


def worst_channel_csv(
    rows: Sequence[WorstChannelRow], provenance: Provenance | None = None
) -> str:
    table = [("category", "baseline_per", "worst_per", "critical_channel")]
    table += [(row.category, pct(row.baseline_rate), pct(row.worst_rate), row.channel)
              for row in rows]
    return _render(table, provenance)


def elimination_json(trace: EliminationTrace, provenance: Provenance | None = None) -> str:
    """Each greedy step with every candidate's score; channels are 1-based."""
    steps = [{"removed_channel": step.removed_channel + 1,
              "surviving_subset": step.surviving.label,
              "metric": step.metric,
              "tied": step.tied,
              "candidates": [{"removed_channel": ch + 1, "metric": m} for ch, m in step.candidates]}
             for step in trace.steps]
    doc = {"channels": trace.channels, "stop_size": trace.stop_size, "metric": trace.metric_name,
           "steps": steps}
    if provenance:
        doc["meta"] = asdict(provenance)
    return json_text(doc)


def elimination_plot_csv(trace: EliminationTrace, provenance: Provenance | None = None) -> str:
    """Plot-ready channel-count curve: best and median candidate metric at
    each surviving subset size."""
    rows = [("channel_count", f"best_{trace.metric_name}", f"median_{trace.metric_name}")]
    for step in trace.steps:
        values = sorted(m for _, m in step.candidates)
        mid = len(values) // 2
        median = values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2
        rows.append((len(step.surviving), repr(step.metric), repr(median)))
    return _render(rows, provenance)


def training_log_csv(
    epoch_losses: Sequence[float],
    mean_retained: float,
    provenance: Provenance | None = None,
) -> str:
    rows = [("epoch", "loss", "mean_retained_channels")]
    rows += [(i, repr(loss), repr(mean_retained)) for i, loss in enumerate(epoch_losses)]
    return _render(rows, provenance)


def comparison_csv(
    records: Sequence[tuple[str, EvalRecord]], provenance: Provenance | None = None
) -> str:
    """Fine-tuned and scratch-trained scores side by side: one (mode,
    record) pair per row."""
    rows = [("mode", "subset", "wer", "per_total")]
    rows += [(mode, r.subset_label, repr(r.wer), repr(r.per_total)) for mode, r in records]
    return _render(rows, provenance)


def _record_doc(record: EvalRecord) -> dict:
    return {**record.to_dict(), "tool_version": __version__}


def record_json(record: EvalRecord) -> str:
    return json_text(_record_doc(record))


def ablation_records_json(result: AblationResult) -> str:
    """The full-set record and each drop-one record by its removed 1-based channel."""
    records = {str(ch): _record_doc(rec) for ch, rec in sorted(result.records.items())}
    return json_text({"baseline": _record_doc(result.baseline), "by_removed_channel": records})
