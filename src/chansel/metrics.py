"""Edit distance, frame labels as word tokens, and per-category error rates.

WER is classic minimum-edit-distance with unit costs over word tokens; the
rate is edits divided by the reference length and can exceed 1.0 when the
hypothesis inserts enough junk (the scorer, ``model.ScoringReference``, sums
both over a split). PER here is frame-wise classification error (one
prediction per frame), which makes per-category attribution exact: a frame
belongs to a category iff its REFERENCE label does.

Rates are plain fractions everywhere in this module; turning them into
percentages is the report writers' business.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import compress
from operator import ne
from typing import Mapping, Sequence

from .phonemes import CategoryTable, SILENCE_SYMBOL

TOTAL_ROW = "total PER"
DEFAULT_CATEGORY_THRESHOLD = 3000


def edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Minimum number of substitutions, deletions and insertions turning
    ``ref`` into ``hyp``. Unit costs; transposition is not a primitive."""
    n, m = len(ref), len(hyp)
    prev = list(range(m + 1))
    for i in range(1, n + 1):
        cur = [i] + [0] * m
        for j in range(1, m + 1):
            if ref[i - 1] == hyp[j - 1]:
                cur[j] = prev[j - 1]
            else:
                cur[j] = 1 + min(prev[j - 1], prev[j], cur[j - 1])
        prev = cur
    return prev[m]


@dataclass(frozen=True)
class CategoryRow:
    name: str
    count: int
    rate: float


@dataclass(frozen=True)
class CategoryReport:
    """Per-category error rates plus the list of categories dropped for having
    fewer reference frames than the threshold. The first row, when present,
    is the overall frame error under the name ``total PER``."""

    rows: tuple[CategoryRow, ...]
    excluded: tuple[str, ...]

    def rate_of(self, name: str) -> float:
        for row in self.rows:
            if row.name == name:
                return row.rate
        raise KeyError(f"category {name!r} not in report (excluded: {self.excluded})")

    @property
    def row_names(self) -> tuple[str, ...]:
        return tuple(row.name for row in self.rows)


def category_report(frames: int, frame_errors: int, names: Sequence[str], counts: Sequence[int],
                    errors: Sequence[int], threshold: int) -> CategoryReport:
    """The report of frame and error counts: the ``total PER`` row over all
    ``frames``, then one row per category of ``names`` (its reference frame
    count in ``counts``, its errors in ``errors``), in that order. A row
    with fewer than ``threshold`` reference frames lands in ``excluded``."""
    counted = list(zip((TOTAL_ROW, *names), (frames, *counts), (frame_errors, *errors)))
    rows = tuple(CategoryRow(name, n, e / n) for name, n, e in counted if n >= threshold)
    return CategoryReport(rows, tuple(name for name, n, _ in counted if n < threshold))


def category_per(
    ref: Sequence[str],
    hyp: Sequence[str],
    table: CategoryTable,
    threshold: int = DEFAULT_CATEGORY_THRESHOLD,
) -> CategoryReport:
    """Error rate per category, counting a frame toward every category its
    reference label belongs to. Categories with fewer than ``threshold``
    qualifying frames land in ``excluded`` instead of the rows. A threshold
    below 1 would let a category with no frames divide by zero, so it is
    refused."""
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if len(ref) != len(hyp):
        raise ValueError(f"frame label length mismatch: ref {len(ref)} vs hyp {len(hyp)}")
    counts = Counter(ref)  # keys in first-seen frame order
    for sym in counts:
        if sym not in table:
            raise KeyError(f"reference label {sym!r} not in the phoneme inventory")
    errors = Counter(compress(ref, map(ne, ref, hyp)))
    members = [table.category_members(name) for name in table.names]
    return category_report(len(ref), errors.total(), table.names,
                           [sum(counts[sym] for sym in m) for m in members],
                           [sum(errors[sym] for sym in m) for m in members], threshold)


@dataclass(frozen=True)
class WorstChannelRow:
    """One output line of the single-channel-ablation summary: the removed
    channel (1-based) that hurt this category the most."""

    category: str
    baseline_rate: float
    worst_rate: float
    channel: int
    tied: bool = False


def worst_channel_table(
    reports: Mapping[int, CategoryReport], baseline: CategoryReport
) -> list[WorstChannelRow]:
    """For each category, find the removed channel (1-based key of ``reports``)
    whose absence maximises the category's error rate. Ties go to the lowest
    channel number and are flagged."""
    if not reports:
        raise ValueError("need at least one ablation report")
    names = baseline.row_names
    for ch, report in reports.items():
        if report.row_names != names:
            raise ValueError(
                f"ablation report for channel {ch} has category rows {report.row_names}, "
                f"baseline has {names}"
            )
    out: list[WorstChannelRow] = []
    channels = sorted(reports)
    for name in names:
        rates = [(reports[ch].rate_of(name), ch) for ch in channels]
        worst = max(rate for rate, _ in rates)
        hits = [ch for rate, ch in rates if rate == worst]
        out.append(
            WorstChannelRow(
                category=name,
                baseline_rate=baseline.rate_of(name),
                worst_rate=worst,
                channel=min(hits),
                tied=len(hits) > 1,
            )
        )
    return out


def collapse_frame_labels(labels: Sequence[str]) -> tuple[str, ...]:
    """Turn frame labels into word tokens.

    Consecutive identical labels collapse into one phoneme, silence delimits
    words, and each silence-free run of phonemes becomes one token, the
    phonemes joined with a middle dot: (B, B, IY, IY, SIL) -> ("B·IY",).
    """
    runs: list[str] = []
    for lab in labels:
        if not runs or runs[-1] != lab:
            runs.append(lab)
    tokens: list[str] = []
    word: list[str] = []
    for lab in runs + [SILENCE_SYMBOL]:
        if lab == SILENCE_SYMBOL:
            if word:
                tokens.append("·".join(word))
                word = []
        else:
            word.append(lab)
    return tuple(tokens)
