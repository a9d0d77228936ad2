"""Channel-subset search: greedy backward elimination, exhaustive sweeps,
and the ranking statistics built on top of them.

Every subset evaluation is keyed by (canonical subset label, corpus hash,
train-config hash, seed) and stored as one JSON line in an append-only cache,
so interrupted sweeps resume without recomputation and a warm replay performs
zero trainings. Evaluations are independent tasks; with workers > 1 they run
in a process pool, and all outputs are sorted canonically so the worker count
never changes a byte of what lands on disk. An evaluator starts its pool on
the first batch that trains and keeps it for every later batch; each search
procedure closes the evaluator when it ends, and a library caller of
``evaluate_many`` calls ``close`` itself.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Protocol, Sequence

import numpy as np

from .corpus import Corpus
from .metrics import WorstChannelRow, worst_channel_table
from .model import (
    EvalRecord,
    ScoringReference,
    TrainConfig,
    _layer_shapes,
    featurize,
    fit_windows,
    init_params,
    label_indices,
    score_windows,
    subset_columns,
)
from .phonemes import CategoryTable
from .signals import ChannelSubset, parse_subset


class SweepBudgetError(RuntimeError):
    """Sweep would exceed the configured evaluation budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"exhaustive sweep needs {required} subset evaluations, budget allows {budget}"
        )
        self.required = required
        self.budget = budget


class EvaluationError(RuntimeError):
    """Evaluator failure, tagged with the subset that was being scored."""

    def __init__(self, subset_label: str, cause: BaseException):
        super().__init__(f"evaluation of subset {subset_label} failed: {cause}")
        self.subset_label = subset_label


# --- results cache -----------------------------------------------------------


# The head that ``json.dumps(record.to_dict(), sort_keys=True)`` writes. A
# hash holding no quote, backslash or control character is written as is,
# so the two groups equal the decoded JSON strings.
_HEAD = re.compile(r'\{"config_hash": "([^"\\\x00-\x1f]*)", "corpus_hash": "([^"\\\x00-\x1f]*)", ')


def _record_key(d: Mapping) -> tuple[str, str, str, int]:
    return (d["subset"], d["corpus_hash"], d["config_hash"], int(d["seed"]))


class ResultsCache:
    """Append-only JSON-lines store of per-seed EvalRecords.

    A record's identity is (subset label, corpus hash, config hash, seed).
    Loading groups the lines by scope, (corpus hash, config hash), read from
    the canonical head ``put`` writes, without parsing them. Any other line
    is parsed at load: one without a key is counted in ``skipped_lines``
    (not JSON, or the torn final line of a sweep killed mid-write, so that
    sweep resumes cleanly), one with a key joins its scope. The first
    ``get`` or ``put`` of a scope keys its lines, counting those that do not
    parse or carry no key; the first ``get`` of a key decodes its record,
    counting a body that does not decode, which then reads as a miss. So a
    cache shared by many configs costs a run little more than its own
    scope, and damage behind another scope's head is never counted. A torn
    final line is ended before the first append, so the next record starts
    a line of its own.
    """

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        # a value is the line's parsed JSON until its first get decodes it
        self._records: dict[tuple[str, str, str, int], EvalRecord | dict] = {}
        # per scope not yet keyed, its lines in file order (text, or parsed JSON)
        self._unkeyed: dict[tuple[str, str], list[str | dict]] = {}
        self.skipped_lines = 0
        self._torn_tail = False
        if self.path is not None and self.path.exists():
            lines = self.path.read_text(encoding="utf-8").splitlines(keepends=True)
            self._torn_tail = bool(lines) and not lines[-1].endswith("\n")
            head = _HEAD.match
            for line in lines:
                m = head(line)
                if m is not None:
                    self._unkeyed.setdefault(m.group(2, 1), []).append(line)
                elif line.strip():
                    try:
                        d = json.loads(line)
                        self._unkeyed.setdefault(_record_key(d)[1:3], []).append(d)
                    except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                        self.skipped_lines += 1

    def _key_scope(self, scope: tuple[str, str]) -> None:
        """Key the lines of one scope, on its first get or put."""
        for line in self._unkeyed.pop(scope, ()):
            try:
                d = json.loads(line) if isinstance(line, str) else line
                self._records[_record_key(d)] = d
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self.skipped_lines += 1

    def get(self, subset_label: str, corpus_hash: str, config_hash: str, seed: int) -> EvalRecord | None:
        self._key_scope((corpus_hash, config_hash))
        key = (subset_label, corpus_hash, config_hash, seed)
        record = self._records.get(key)
        if isinstance(record, dict):
            try:
                record = EvalRecord.from_dict(record)
            except (KeyError, TypeError, ValueError):
                self.skipped_lines += 1
                del self._records[key]
                return None
            self._records[key] = record
        return record

    def put(self, record: EvalRecord) -> None:
        self._key_scope((record.corpus_hash, record.config_hash))
        self._records[(record.subset_label, record.corpus_hash, record.config_hash,
                       record.seed)] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._torn_tail:
                    fh.write("\n")
                    self._torn_tail = False
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
                fh.flush()

    def __len__(self) -> int:
        """The number of distinct keys; keys every scope not yet keyed."""
        for scope in list(self._unkeyed):
            self._key_scope(scope)
        return len(self._records)


# --- the built-in train-and-score evaluator -----------------------------------


def derive_task_seeds(base_seed: int, replicate: int) -> tuple[int, int]:
    """Deterministic (init_seed, train_seed) for one training task.

    Derived from (base seed, replicate index) only, NOT the subset: subsets
    of equal size then train under common random numbers (same init draws,
    same batch order), which pairs their comparison and cancels most of the
    training noise that would otherwise scramble close rankings. Every task
    builds its own generators from the derived ints; workers share no state.
    """
    root = np.random.SeedSequence([base_seed, replicate])
    init_ss, train_ss = root.spawn(2)
    return int(init_ss.generate_state(1)[0]), int(train_ss.generate_state(1)[0])


def config_fingerprint(
    train_cfg: TrainConfig, window: int, features: int, threshold: int, n_train: int
) -> str:
    """Hash of everything that shapes a cached record besides corpus/subset/seed."""
    payload = {
        "learning_rate": train_cfg.learning_rate,
        "epochs": train_cfg.epochs,
        "batch_size": train_cfg.batch_size,
        "dropout_p": train_cfg.dropout_p,
        "base_seed": train_cfg.seed,
        "window": window,
        "features": features,
        "threshold": threshold,
        "n_train": n_train,
    }
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode("utf-8")).hexdigest()


class Evaluator(Protocol):
    """What the search procedures need: score a batch of subsets, returning
    one record per subset keyed by its label, and release what the batches
    held (a process pool) on ``close``, which a search calls when it ends.
    A failure raises ``EvaluationError`` naming the subset that was being
    scored."""

    def evaluate_many(self, subsets: Sequence[ChannelSubset]) -> dict[str, EvalRecord]: ...

    def close(self) -> None: ...


@dataclass(frozen=True, eq=False)
class TaskInputs:
    """Everything a subset task reads and no subset changes: the full-channel
    windows of both splits, the train labels as class indices, the test
    split's scoring reference, and the evaluator's settings.
    ``featurize`` lays the windows out channel-block-major, so a subset's
    windows are the column blocks ``subset_columns`` names, equal to the bit
    to featurizing the subset-restricted split."""

    train_windows: tuple[np.ndarray, ...]
    train_labels: tuple[np.ndarray, ...]
    test_windows: tuple[np.ndarray, ...]
    reference: ScoringReference
    train_cfg: TrainConfig
    window: int
    features: int
    threshold: int
    alphabet: tuple[str, ...]
    config_hash: str
    corpus_hash: str


# Installed once per worker by _init_worker, so the task inputs reach each
# worker once (inherited by fork) rather than per task.
_WORKER_INPUTS: TaskInputs | None = None


@lru_cache(maxsize=1)
def _openblas_library() -> str | None:
    """Path of numpy's bundled OpenBLAS if it exports the thread setter.
    Looked up once; when there is none, says so once on stderr."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(libs.glob("libscipy_openblas64_*.so")):
        try:
            ctypes.CDLL(str(path)).scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        return str(path)
    print(f"warning: no scipy-openblas library with a thread setter in {libs}; pool "
          "workers keep the BLAS default thread count (set OPENBLAS_NUM_THREADS=1 "
          "to pin it)", file=sys.stderr)
    return None


def _init_worker(inputs: TaskInputs, openblas: str | None) -> None:
    """Install the task inputs, and pin BLAS to one thread: the pool runs
    ``workers`` processes side by side, and BLAS threads on top of them
    oversubscribe the cores without making a task faster."""
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs
    if openblas is not None:
        set_threads = ctypes.CDLL(openblas).scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def _run_task_impl(inputs: TaskInputs, indices: tuple[int, ...], replicate: int) -> EvalRecord:
    subset = ChannelSubset(indices)
    init_seed, train_seed = derive_task_seeds(inputs.train_cfg.seed, replicate)
    t0 = time.perf_counter()
    cols = subset_columns(subset, inputs.window)
    params = init_params(channels=len(subset), window=inputs.window, features=inputs.features,
                         class_symbols=inputs.alphabet, seed=init_seed)
    trained, _, _ = fit_windows(
        params, [xw[:, cols] for xw in inputs.train_windows], inputs.train_labels,
        replace(inputs.train_cfg, seed=train_seed))
    record = score_windows(
        trained, [xw[:, cols] for xw in inputs.test_windows], inputs.reference,
        subset=subset, threshold=inputs.threshold, seed=replicate,
        config_hash=inputs.config_hash, corpus_hash=inputs.corpus_hash,
    )
    return replace(record, wall_time=time.perf_counter() - t0)


def _pool_task(indices: tuple[int, ...], replicate: int) -> EvalRecord:
    return _run_task_impl(_WORKER_INPUTS, indices, replicate)


@dataclass
class TrainingEvaluator:
    """Scores a channel subset by training the reference classifier from
    scratch on the subset-restricted train split and evaluating on the test
    split, averaged over ``replicates`` seeded runs.

    Per-seed records go through the cache; the returned record is the
    aggregate (mean wer / per rates, n_seeds = replicates).
    """

    train_corpus: Corpus
    test_corpus: Corpus
    table: CategoryTable
    train_cfg: TrainConfig
    corpus_hash: str
    window: int = 9
    features: int = 32
    replicates: int = 3
    threshold: int = 3000
    workers: int = 1
    cache: ResultsCache = field(default_factory=ResultsCache)
    training_runs: int = 0

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        self._alphabet = self.train_corpus.label_alphabet()
        _layer_shapes(self.train_corpus.channels, self.window, self.features,
                      len(self._alphabet))
        self.config_hash = config_fingerprint(
            self.train_cfg, self.window, self.features, self.threshold,
            len(self.train_corpus),
        )
        self._inputs: TaskInputs | None = None
        self._pool: ProcessPoolExecutor | None = None

    def _task_inputs(self) -> TaskInputs:
        """Built on the first batch that trains, then shared by every task
        and pool of this evaluator; a warm replay never builds it."""
        if self._inputs is None:
            def windows(split: Corpus) -> tuple[np.ndarray, ...]:
                return tuple(featurize(seq.signal.samples, self.window) for seq in split)

            self._inputs = TaskInputs(
                train_windows=windows(self.train_corpus),
                train_labels=tuple(label_indices(self.train_corpus.sequences, self._alphabet)),
                test_windows=windows(self.test_corpus),
                reference=ScoringReference(self.test_corpus.sequences, self._alphabet,
                                           self.table),
                train_cfg=self.train_cfg, window=self.window,
                features=self.features, threshold=self.threshold, alphabet=self._alphabet,
                config_hash=self.config_hash, corpus_hash=self.corpus_hash,
            )
        return self._inputs

    def _aggregate(self, subset: ChannelSubset, per_seed: Sequence[EvalRecord]) -> EvalRecord:
        if len(per_seed) == 1:
            return per_seed[0]
        first = per_seed[0]
        rows = tuple(
            replace(row, rate=float(np.mean([r.per_category.rows[i].rate for r in per_seed])))
            for i, row in enumerate(first.per_category.rows)
        )
        return EvalRecord(
            subset_label=subset.label,
            seed=self.train_cfg.seed,
            config_hash=self.config_hash,
            corpus_hash=self.corpus_hash,
            wer=float(np.mean([r.wer for r in per_seed])),
            per_total=float(np.mean([r.per_total for r in per_seed])),
            per_category=replace(first.per_category, rows=rows),
            wall_time=float(np.sum([r.wall_time for r in per_seed])),
            n_seeds=len(per_seed),
        )

    def _keep(self, record: EvalRecord) -> None:
        """Count one finished training task and store its record."""
        self.training_runs += 1
        self.cache.put(record)

    def _run_pool(self, pending: Sequence[tuple[ChannelSubset, int]]) -> None:
        """Run the pending tasks in the evaluator's process pool, started on
        the first batch that trains and kept for the later ones, keeping
        each finished record. On the first failure, or an interrupt, close
        the pool: that cancels the tasks not yet started (this batch's are
        the only ones outstanding) and waits for the running ones. Then keep
        every record that finished, and raise."""
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(self._task_inputs(), _openblas_library()),
            )
        futures = {self._pool.submit(_pool_task, s.indices, r): s for s, r in pending}
        kept = set()
        try:
            for fut in as_completed(futures):
                try:
                    record = fut.result()
                except Exception as exc:
                    raise EvaluationError(futures[fut].label, exc) from exc
                self._keep(record)
                kept.add(fut)
        except BaseException:
            self.close()
            for fut in futures:
                if (fut not in kept and not fut.cancelled()
                        and fut.exception() is None):
                    self._keep(fut.result())
            raise

    def close(self) -> None:
        """Shut down the process pool, if one is running, and wait for its
        workers to exit. Idempotent; a later batch that trains starts a new
        pool."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def evaluate_many(
        self, subsets: Sequence[ChannelSubset], require_cached: bool = False
    ) -> dict[str, EvalRecord]:
        """Score several subsets, reusing cached per-seed records and running
        the rest (in a process pool when workers > 1). Every record, cached or
        new, is read back from the cache."""
        def cached(s: ChannelSubset, r: int) -> EvalRecord | None:
            return self.cache.get(s.label, self.corpus_hash, self.config_hash, r)

        pending = [(s, r) for s in subsets for r in range(self.replicates) if cached(s, r) is None]
        if pending and require_cached:
            missing = sorted({s.label for s, _ in pending})
            raise ValueError(
                f"cache is missing records for subsets {missing}; run the sweep first"
            )
        if self.workers > 1 and pending:
            self._run_pool(pending)
        else:
            for s, r in pending:
                try:
                    record = _run_task_impl(self._task_inputs(), s.indices, r)
                except Exception as exc:
                    raise EvaluationError(s.label, exc) from exc
                self._keep(record)
        return {
            s.label: self._aggregate(s, [cached(s, r) for r in range(self.replicates)])
            for s in subsets
        }


def _check_metric(metric: str) -> None:
    """Reject an unknown metric name before anything is evaluated."""
    if metric not in EvalRecord.METRICS:
        raise ValueError(f"unknown metric {metric!r} "
                         f"(expected {' or '.join(map(repr, EvalRecord.METRICS))})")


# --- backward elimination -----------------------------------------------------


@dataclass(frozen=True)
class EliminationStep:
    """One greedy step: which channel went, what survived, and every
    candidate's score. ``tied`` marks a best-metric tie (broken by removing
    the higher-indexed channel)."""

    removed_channel: int  # 0-based
    surviving: ChannelSubset
    metric: float
    candidates: tuple[tuple[int, float], ...]  # (removed 0-based channel, metric)
    tied: bool


@dataclass(frozen=True)
class EliminationTrace:
    channels: int
    stop_size: int
    metric_name: str
    steps: tuple[EliminationStep, ...]

    @property
    def removal_order(self) -> tuple[int, ...]:
        return tuple(step.removed_channel for step in self.steps)

    def to_dict(self) -> dict:
        """JSON view; channel numbers are 1-based like all user-facing text."""
        return {
            "channels": self.channels,
            "stop_size": self.stop_size,
            "metric": self.metric_name,
            "steps": [
                {
                    "removed_channel": step.removed_channel + 1,
                    "surviving_subset": step.surviving.label,
                    "metric": step.metric,
                    "tied": step.tied,
                    "candidates": [
                        {"removed_channel": ch + 1, "metric": m}
                        for ch, m in step.candidates
                    ],
                }
                for step in self.steps
            ],
        }


def backward_elimination(
    evaluator: Evaluator,
    channels: int,
    stop_size: int,
    metric: str = "wer",
) -> EliminationTrace:
    """Greedy channel removal: from the full set, drop whichever channel's
    removal leaves the lowest-metric subset; repeat down to ``stop_size``
    channels. Ties remove the higher-indexed channel and are flagged. The
    evaluator is closed when the search ends, so one pool serves every step."""
    if not (1 <= stop_size < channels):
        raise ValueError(f"need 1 <= stop_size < channels, got stop_size={stop_size}, "
                         f"channels={channels}")
    _check_metric(metric)
    current = ChannelSubset.full(channels)
    steps: list[EliminationStep] = []
    with closing(evaluator):
        while len(current) > stop_size:
            candidates = [(ch, current.drop(ch)) for ch in current]
            records = evaluator.evaluate_many([s for _, s in candidates])
            scored = [(ch, s, records[s.label].metric(metric)) for ch, s in candidates]
            best_metric = min(m for _, _, m in scored)
            tied_channels = [ch for ch, _, m in scored if m == best_metric]
            removed = max(tied_channels)
            surviving = current.drop(removed)
            steps.append(
                EliminationStep(
                    removed_channel=removed,
                    surviving=surviving,
                    metric=best_metric,
                    candidates=tuple((ch, m) for ch, _, m in scored),
                    tied=len(tied_channels) > 1,
                )
            )
            current = surviving
    return EliminationTrace(
        channels=channels, stop_size=stop_size, metric_name=metric, steps=tuple(steps)
    )


# --- exhaustive sweep and its statistics ---------------------------------------


@dataclass(frozen=True)
class SweepResult:
    """Records for every enumerated k-subset, sorted by (metric, label)."""

    channels: int
    k: int
    metric_name: str
    records: tuple[EvalRecord, ...]

    def is_complete(self) -> bool:
        labels = {r.subset_label for r in self.records}
        return len(labels) == len(self.records) == math.comb(self.channels, self.k)


DEFAULT_SWEEP_BUDGET = 100_000


def exhaustive_sweep(
    evaluator: Evaluator,
    channels: int,
    k: int,
    metric: str = "wer",
    budget: int = DEFAULT_SWEEP_BUDGET,
) -> SweepResult:
    """Score every k-of-C subset exactly once. Already-cached evaluations are
    reused, so an interrupted sweep resumes where it stopped."""
    if not (1 <= k <= channels):
        raise ValueError(f"need 1 <= k <= channels, got k={k}, channels={channels}")
    required = math.comb(channels, k)
    if required > budget:
        raise SweepBudgetError(required, budget)
    _check_metric(metric)
    subsets = [ChannelSubset(combo) for combo in itertools.combinations(range(channels), k)]
    with closing(evaluator):
        records = evaluator.evaluate_many(subsets)
    ordered = sorted(records.values(), key=lambda r: (r.metric(metric), r.subset_label))
    return SweepResult(channels=channels, k=k, metric_name=metric, records=tuple(ordered))


def channel_average_metric(sweep: SweepResult) -> tuple[tuple[int, float], ...]:
    """Mean metric over all subsets containing each channel, best first.
    Returns ((0-based channel, mean), ...) sorted ascending by mean, ties by
    channel. Requires a complete sweep."""
    if not sweep.is_complete():
        raise ValueError(
            f"sweep is incomplete: {len(sweep.records)} records for "
            f"C={sweep.channels}, k={sweep.k} "
            f"(expected {math.comb(sweep.channels, sweep.k)})"
        )
    sums = np.zeros(sweep.channels)
    counts = np.zeros(sweep.channels, dtype=int)
    for record in sweep.records:
        m = record.metric(sweep.metric_name)
        for ch in parse_subset(record.subset_label, sweep.channels).indices:
            sums[ch] += m
            counts[ch] += 1
    means = sums / counts
    order = sorted(range(sweep.channels), key=lambda c: (means[c], c))
    return tuple((c, float(means[c])) for c in order)


def top_k_frequency(sweep: SweepResult, k_top: int) -> tuple[int, ...]:
    """How many of the k_top best subsets contain each channel. Records are
    already sorted by (metric, canonical label), which is also the documented
    tie-break at the cutoff."""
    if k_top < 1:
        raise ValueError(f"k_top must be >= 1, got {k_top}")
    if k_top > len(sweep.records):
        raise ValueError(f"k_top={k_top} exceeds the {len(sweep.records)} available records")
    counts = [0] * sweep.channels
    for record in sweep.records[:k_top]:
        for ch in parse_subset(record.subset_label, sweep.channels).indices:
            counts[ch] += 1
    return tuple(counts)


# --- single-channel ablation ----------------------------------------------------


@dataclass(frozen=True)
class AblationResult:
    """The full set's record, all (C-1)-subset evaluations keyed by the
    removed 1-based channel, and the per-category worst-channel summary rows."""

    baseline: EvalRecord
    records: Mapping[int, EvalRecord]
    rows: tuple[WorstChannelRow, ...]


def seven_channel_ablation(evaluator: Evaluator, channels: int) -> AblationResult:
    """Score the full set and every drop-one subset in one batch, collect
    category PER reports keyed by the removed channel, and summarise which
    removal hurts each category most relative to the full set."""
    if channels < 2:
        raise ValueError(f"ablation needs at least 2 channels, got {channels}")
    full = ChannelSubset.full(channels)
    subsets = {ch: full.drop(ch) for ch in range(channels)}
    with closing(evaluator):
        scored = evaluator.evaluate_many([full, *subsets.values()])
    baseline = scored[full.label]
    records = {ch + 1: scored[subsets[ch].label] for ch in range(channels)}
    reports = {ch: rec.per_category for ch, rec in records.items()}
    rows = worst_channel_table(reports, baseline.per_category)
    return AblationResult(baseline=baseline, records=records, rows=tuple(rows))
