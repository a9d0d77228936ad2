"""Channel-subset search: greedy backward elimination, exhaustive sweeps,
and the ranking statistics built on top of them.

Every subset evaluation is keyed by (canonical subset label, corpus hash,
train-config hash, seed) and stored as one JSON line in an append-only cache,
so interrupted sweeps resume without recomputation and a warm replay performs
zero trainings. Evaluations of one subset size and replicate train together
in stacks, each subset's record equal to the bit to training it alone; with
workers > 1 the stacks run in a process pool, and all outputs are sorted
canonically so the worker count never changes a byte of what lands on disk.
An evaluator starts its pool on the first batch that trains, with one worker
per stack up to ``workers``, and keeps it for every later batch that has no
more stacks than that (a wider one, as after a resume, gets a new pool);
each search procedure closes the evaluator when it ends, and a library
caller of ``evaluate_many`` calls ``close`` itself. The pool machinery
(``concurrent.futures.process`` and ``multiprocessing``) is imported when
the module attribute ``ProcessPoolExecutor`` is first read, which a pool
start does, so a command that trains nothing never loads it.
numpy, too, loads on first use: a batch served from the cache is averaged in
plain Python, to the bit as numpy would, so a warm replay never imports it.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import json
import math
import re
import signal
import sys
import time
from contextlib import closing
from dataclasses import dataclass, field, replace
from functools import lru_cache
from pathlib import Path
from typing import Mapping, Protocol, Sequence

from .artefacts import np
from .corpus import Corpus, LabeledSequence
from .metrics import WorstChannelRow, worst_channel_table
from .model import (
    EvalRecord,
    ModelParams,
    ScoringReference,
    TrainConfig,
    _layer_shapes,
    featurize,
    fit_windows,
    init_params,
    label_indices,
    max_batch_rows,
    score_windows,
)
from .phonemes import CategoryTable
from .signals import ChannelSubset, parse_subset


def __getattr__(name: str):
    """``ProcessPoolExecutor``, imported on first read (PEP 562); assigning
    the name replaces the class that later pools start from."""
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class EvaluationError(RuntimeError):
    """Evaluator failure, tagged with the subset that was being scored."""

    def __init__(self, subset_label: str, cause: BaseException):
        super().__init__(f"evaluation of subset {subset_label} failed: {cause}")
        self.subset_label = subset_label


# --- results cache -----------------------------------------------------------


# The head of the line ``ResultsCache.put`` writes, keys sorted. A
# hash of printable ASCII holding no quote or backslash is written as is, so
# the two groups, decoded, equal the decoded JSON strings.
_HEAD = re.compile(rb'\{"config_hash": "([\x20\x21\x23-\x5b\x5d-\x7e]*)", '
                   rb'"corpus_hash": "([\x20\x21\x23-\x5b\x5d-\x7e]*)", ')


class ResultsCache:
    """Append-only JSON-lines store of per-seed EvalRecords.

    A record's identity is (subset label, corpus hash, config hash, seed).
    A line is the bytes through its ``\\n``. Loading reads the file once, a
    line at a time, and keeps the byte offsets of each line under its scope,
    (corpus hash, config hash), read from the canonical head ``put`` writes;
    any other line is parsed at load only to find its scope. A line with no
    scope is counted in ``skipped_lines`` (not UTF-8, not JSON, or the torn
    final line of a sweep killed mid-write, so that sweep resumes cleanly).
    The first ``get`` or ``put`` of a scope reads its lines back by offset
    and decodes each record, counting every line that no longer reads back
    (the file was cut short after load) or does not decode; a later line of
    a key replaces an earlier one, and removes it if it does not decode. So
    a cache shared by many configs costs a run little more than its own
    scope, in time and in memory, every damaged line of the running config
    is counted, and damage behind another scope's head is never counted. A
    torn final line is ended before the first append, so the next record
    starts a line of its own.
    """

    def __init__(self, path: Path | None = None):
        self.path = Path(path) if path is not None else None
        self._records: dict[tuple[str, str, str, int], EvalRecord] = {}
        # per scope not yet read, the (start, end) byte offsets of its lines
        self._unread: dict[tuple[str, str], list[tuple[int, int]]] = {}
        self.skipped_lines = 0
        self._torn_tail = False
        if self.path is not None and self.path.exists():
            self._load()

    def _load(self) -> None:
        head = _HEAD.match
        end = 0
        line = b""
        with open(self.path, "rb") as fh:
            for line in fh:
                start, end = end, end + len(line)
                m = head(line)
                try:
                    if m is not None:
                        scope = (m[2].decode("ascii"), m[1].decode("ascii"))
                    elif line.strip():
                        d = json.loads(line.decode("utf-8"))
                        scope = (d["corpus_hash"], d["config_hash"])
                    else:
                        continue  # a blank line
                    self._unread.setdefault(scope, []).append((start, end))
                except (KeyError, TypeError, ValueError):  # ValueError: not UTF-8 or JSON
                    self.skipped_lines += 1
        self._torn_tail = bool(line) and not line.endswith(b"\n")

    def _read_scope(self, scope: tuple[str, str]) -> None:
        """Read back and decode the lines of one scope, on its first get or
        put; one the file no longer holds whole does not decode."""
        fh = None
        try:
            for start, end in self._unread.pop(scope, ()):
                try:
                    if fh is None:
                        fh = open(self.path, "rb")
                    fh.seek(start)
                    d = json.loads(fh.read(end - start).decode("utf-8"))
                    key = (d["subset"], d["corpus_hash"], d["config_hash"], int(d["seed"]))
                    self._records.pop(key, None)  # a later line replaces it, decoded or not
                    self._records[key] = EvalRecord.from_dict(d)
                except (OSError, KeyError, TypeError, ValueError):
                    self.skipped_lines += 1
        finally:
            if fh is not None:
                fh.close()

    def get(self, subset_label: str, corpus_hash: str, config_hash: str, seed: int) -> EvalRecord | None:
        self._read_scope((corpus_hash, config_hash))
        return self._records.get((subset_label, corpus_hash, config_hash, seed))

    def put(self, record: EvalRecord, wall_time: float = 0.0) -> None:
        """Store ``record``; its line adds the seconds of the task that made it."""
        self._read_scope((record.corpus_hash, record.config_hash))
        self._records[(record.subset_label, record.corpus_hash, record.config_hash,
                       record.seed)] = record
        if self.path is not None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(self.path, "a", encoding="utf-8") as fh:
                if self._torn_tail:
                    fh.write("\n")
                    self._torn_tail = False
                fh.write(json.dumps({**record.to_dict(), "wall_time": wall_time},
                                    sort_keys=True) + "\n")
                fh.flush()

    def __len__(self) -> int:
        """The number of distinct keys; reads every scope not yet read."""
        for scope in list(self._unread):
            self._read_scope(scope)
        return len(self._records)


# --- the built-in train-and-score evaluator -----------------------------------


def derive_task_seeds(base_seed: int, replicate: int) -> tuple[int, int]:
    """Deterministic (init_seed, train_seed) for one training task.

    Derived from (base seed, replicate index) only, NOT the subset: subsets
    of equal size then train under common random numbers (same init draws,
    same batch order, same dropout masks), which pairs their comparison and
    cancels most of the training noise that would otherwise scramble close
    rankings. The same common random numbers let the subsets of one size and
    replicate train as one lockstep stack (``model.fit_windows``). Every
    stack builds its own generators from the derived ints; workers share no
    state.
    """
    root = np.random.SeedSequence([base_seed, replicate])
    init_ss, train_ss = root.spawn(2)
    return int(init_ss.generate_state(1)[0]), int(train_ss.generate_state(1)[0])


# Bumped by any change that moves a trained number: it is hashed into every
# config hash, so a cache never serves a record that other numerics produced.
NUMERICS_VERSION = 2


def config_fingerprint(
    train_cfg: TrainConfig, window: int, features: int, threshold: int, n_train: int
) -> str:
    """Hash of everything that shapes a cached record besides corpus/subset/seed."""
    payload = {
        "numerics_version": NUMERICS_VERSION,
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
    """Everything a stack of subset tasks reads and no subset changes: the
    full-channel windows of both splits, the train labels as class indices,
    the test split's scoring reference, and the evaluator's settings.
    ``featurize`` lays the windows out channel-block-major, so a subset's
    windows are the column blocks ``subset_columns`` names, equal to the bit
    to featurizing the subset-restricted split. Because every subset of one
    size and replicate starts from the same model under the same common
    random numbers (``derive_task_seeds``), a stack of them reads these
    windows once per step and differs only in the channels it gathers."""

    train_windows: tuple[np.ndarray, ...]
    train_labels: tuple[np.ndarray, ...]
    test_windows: tuple[np.ndarray, ...]
    reference: ScoringReference
    train_cfg: TrainConfig
    window: int
    features: int
    threshold: int
    config_hash: str
    corpus_hash: str

    @classmethod
    def from_splits(cls, train: Sequence[LabeledSequence], test: Sequence[LabeledSequence],
                    class_symbols: Sequence[str], table: CategoryTable,
                    **settings) -> "TaskInputs":
        """Featurize both splits at full channel count; labels and reference
        in ``class_symbols``, the start model's class order."""
        def windows(split: Sequence[LabeledSequence]) -> tuple[np.ndarray, ...]:
            return tuple(featurize(seq.signal.samples, settings["window"]) for seq in split)

        return cls(train_windows=windows(train),
                   train_labels=tuple(label_indices(train, class_symbols)),
                   test_windows=windows(test),
                   reference=ScoringReference(test, class_symbols, table), **settings)


# Installed once per worker by _init_worker, so the task inputs reach each
# worker once (inherited by fork) rather than per stack.
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
    oversubscribe the cores without making a task faster. A worker ignores
    SIGINT: a terminal's Ctrl-C reaches the whole process group, and the
    search process alone handles it, letting the running stacks finish."""
    global _WORKER_INPUTS
    _WORKER_INPUTS = inputs
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    if openblas is not None:
        set_threads = ctypes.CDLL(openblas).scipy_openblas_set_num_threads64_
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        set_threads(1)


def train_and_score(inputs: TaskInputs, starts: Sequence[ModelParams],
                    subsets: Sequence[ChannelSubset], train_seed: int,
                    seed: int) -> list[tuple[ModelParams, EvalRecord] | Exception]:
    """Train ``starts[s]`` on subset s's column blocks of the train windows,
    if the inputs hold any, in one lockstep stack, and score every slot of
    the stack on those of the test windows. Returns per subset its trained
    model and its record, tagged ``seed``, or the error that stopped it. A
    slot whose training stopped is scored from its own start, so the stack
    keeps one slot per subset, and that record is dropped: the slot keeps
    its own error. A scoring error is every trained slot's."""
    channels = np.array([s.indices for s in subsets])
    outcomes: list = [(start, ()) for start in starts]
    if inputs.train_windows:
        outcomes, _ = fit_windows(starts, channels, inputs.train_windows, inputs.train_labels,
                                  replace(inputs.train_cfg, seed=train_seed))
    models = [start if isinstance(outcome, Exception) else outcome[0]
              for start, outcome in zip(starts, outcomes)]
    try:
        records = score_windows(models, subsets, channels, inputs.test_windows, inputs.reference,
                                threshold=inputs.threshold, seed=seed,
                                config_hash=inputs.config_hash, corpus_hash=inputs.corpus_hash)
    except Exception as exc:  # the outcome of every slot that trained
        records = [exc] * len(subsets)
    return [outcome if isinstance(outcome, Exception) else
            record if isinstance(record, Exception) else (model, record)
            for outcome, model, record in zip(outcomes, models, records)]


# The row budget of a stack. A step's buffers hold (channels x window + 2 x
# features + classes) floats per batch row per model, about 730 bytes at the
# bench shape, so 2048 rows of them fill about 1.5 MB, inside a 2 MiB L2.
# On a 2-vCPU Xeon with that L2 per core, a bench-shape step (232-row
# batches) took about 117 us per subset alone, 80-87 us in stacks of 4-8
# and 89-113 us in stacks of 12-17, and cold sweeps with stacks of at most
# 8 used 5% less CPU than with stacks of at most 17 (4 of 6 pairs). So a
# stack is at most ROWS // (rows of the largest batch) subsets wide, and
# never less than one: a default-config batch (16 utterances of 240 frames)
# gets width 1 and trains one subset at a time, as a search did before
# stacks.
ROWS = 2048


def _stack_width(inputs: TaskInputs) -> int:
    """The widest stack the row budget allows for these inputs."""
    rows = max_batch_rows(inputs.train_windows, inputs.train_cfg.batch_size)
    return max(1, ROWS // max(rows, 1))


def _run_stack(inputs: TaskInputs, stack: tuple[tuple[int, ...], ...],
               replicate: int) -> list[tuple[EvalRecord, float] | Exception]:
    """Train and score one stack, subsets of one size given by their channel
    indices, from its replicate's start model; returns per subset its record
    with its share of the stack's seconds, or its error."""
    subsets = [ChannelSubset(indices) for indices in stack]
    init_seed, train_seed = derive_task_seeds(inputs.train_cfg.seed, replicate)
    t0 = time.perf_counter()
    params = init_params(len(subsets[0]), inputs.window, inputs.features,
                         inputs.reference.class_symbols, seed=init_seed)
    outcomes = train_and_score(inputs, [params] * len(subsets), subsets, train_seed, replicate)
    share = (time.perf_counter() - t0) / len(stack)
    return [outcome if isinstance(outcome, Exception) else (outcome[1], share)
            for outcome in outcomes]


def _pool_stack(stack: tuple[tuple[int, ...], ...],
                replicate: int) -> list[tuple[EvalRecord, float] | Exception]:
    return _run_stack(_WORKER_INPUTS, stack, replicate)


def pairwise_sum(values: Sequence[float]) -> float:
    """numpy's float64 sum of ``values``, to the bit: a left fold below 8
    values, 8 interleaved accumulators up to 128, and above that the sums
    of two halves, split on a multiple of 8."""
    n = len(values)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return pairwise_sum(values[:half]) + pairwise_sum(values[half:])
    total, tail = 0.0, values
    if n >= 8:
        acc, tail = list(values[:8]), values[n - n % 8:]
        for i in range(8, n - n % 8, 8):
            acc = [a + v for a, v in zip(acc, values[i:i + 8])]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
    for value in tail:
        total += value
    return total


@dataclass
class TrainingEvaluator:
    """Scores a channel subset by training the reference classifier from
    scratch on the subset-restricted train split and evaluating on the test
    split, averaged over ``replicates`` seeded runs.

    Per-seed records go through the cache; the returned record is the
    aggregate (mean wer / per rates, the base seed, n_seeds = replicates).
    """

    train_corpus: Corpus
    test_corpus: Corpus
    table: CategoryTable
    train_cfg: TrainConfig
    corpus_hash: str
    window: int
    features: int
    replicates: int
    threshold: int
    workers: int
    cache: ResultsCache
    # (subset, seed) of each record this evaluator trained and stored; a keep
    # an interrupt cuts is retried, so a record may be stored twice, once counted
    _kept: set = field(default_factory=set, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.replicates < 1:
            raise ValueError(f"replicates must be >= 1, got {self.replicates}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {self.threshold}")
        self._alphabet = Corpus((*self.train_corpus, *self.test_corpus)).label_alphabet()
        _layer_shapes(self.train_corpus.channels, self.window, self.features,
                      len(self._alphabet))
        self.config_hash = config_fingerprint(
            self.train_cfg, self.window, self.features, self.threshold,
            len(self.train_corpus),
        )
        self._inputs: TaskInputs | None = None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_workers = 0

    def _task_inputs(self) -> TaskInputs:
        """Built on the first batch that trains, then shared by every task
        and pool of this evaluator; a warm replay never builds it."""
        if self._inputs is None:
            self._inputs = TaskInputs.from_splits(
                self.train_corpus.sequences, self.test_corpus.sequences, self._alphabet,
                self.table, train_cfg=self.train_cfg, window=self.window,
                features=self.features, threshold=self.threshold,
                config_hash=self.config_hash, corpus_hash=self.corpus_hash,
            )
        return self._inputs

    def _aggregate(self, per_seed: Sequence[EvalRecord]) -> EvalRecord:
        """The replicates' mean rates, in the first one's rows, and the base
        seed. Each sum is ``pairwise_sum``, so each mean equals ``np.mean``
        of the rate's list to the bit."""
        first = per_seed[0]
        wer, per_total, *rates = (pairwise_sum(column) / len(per_seed) for column in zip(
            *([r.wer, r.per_total, *(row.rate for row in r.per_category.rows)] for r in per_seed)))
        return replace(
            first,
            seed=self.train_cfg.seed,
            wer=wer,
            per_total=per_total,
            per_category=replace(first.per_category, rows=tuple(
                replace(row, rate=rate) for row, rate in zip(first.per_category.rows, rates))),
            n_seeds=len(per_seed),
        )

    @property
    def training_runs(self) -> int:
        return len(self._kept)

    def _keep(self, record: EvalRecord, seconds: float) -> None:
        """Store one finished training task's record and seconds, then count it."""
        self.cache.put(record, seconds)
        self._kept.add((record.subset_label, record.seed))

    def _stacks(self, pending: Sequence[tuple[ChannelSubset, int]]) -> list[list[int]]:
        """The pending tasks, by position, cut into stacks: the n tasks of
        one (subset size, replicate) group go into workers x ceil(n /
        (workers x width)) near-equal runs of canonical order, so each stack
        is at most ``_stack_width`` wide and the workers get equal shares.
        Ordered by first task, the order the result loop reads them in."""
        width = _stack_width(self._task_inputs())
        groups: dict[tuple[int, int], list[int]] = {}
        for i, (s, r) in enumerate(pending):
            groups.setdefault((len(s), r), []).append(i)
        stacks = []
        for tasks in groups.values():
            n = len(tasks)
            count = min(n, self.workers * math.ceil(n / (self.workers * width)))
            stacks += [tasks[j * n // count:(j + 1) * n // count] for j in range(count)]
        return sorted(stacks)

    def _run(self, pending: Sequence[tuple[ChannelSubset, int]]) -> None:
        """Run the pending tasks in stacks, in the evaluator's pool when
        workers > 1 and in this process otherwise, and keep each record. A
        stack is possible because the tasks of one subset size and replicate
        train under common random numbers (``derive_task_seeds``), so their
        models take every step in lockstep. One loop reads the stacks in
        ``_stacks`` order (a serial stack runs when reached); after stack k
        every task before stack k+1's first has its outcome, and those are
        kept in canonical order, so a failure names the first failed task in
        that order. On a failure or an interrupt the pool is closed, which
        cancels this batch's stacks not yet started and waits for the running
        ones, and every finished record is kept, in canonical order, before
        the raise."""
        stacks = self._stacks(pending)
        work = [(tuple(pending[i][0].indices for i in stack), pending[stack[0]][1])
                for stack in stacks]
        futures = []
        if self.workers > 1:
            size = min(self.workers, len(work))
            if self._pool is not None and self._pool_workers < size:
                self.close()  # this batch has more stacks than the pool has workers
            if self._pool is None:
                # read through the module, so an assigned pool class is used
                self._pool = sys.modules[__name__].ProcessPoolExecutor(
                    max_workers=size,
                    initializer=_init_worker,
                    initargs=(self._task_inputs(), _openblas_library()),
                )
                self._pool_workers = size
            futures = [self._pool.submit(_pool_stack, *args) for args in work]
        outcomes: list[tuple[EvalRecord, float] | Exception | None] = [None] * len(pending)
        ends = [stack[0] for stack in stacks[1:]] + [len(pending)]
        kept = 0
        try:
            for k, (stack, end) in enumerate(zip(stacks, ends)):
                try:
                    result = (futures[k].result() if futures
                              else _run_stack(self._task_inputs(), *work[k]))
                except Exception as exc:  # the whole stack failed: each task's error
                    result = [exc] * len(stack)
                for i, outcome in zip(stack, result):
                    outcomes[i] = outcome
                for outcome in outcomes[kept:end]:
                    if isinstance(outcome, Exception):
                        raise EvaluationError(pending[kept][0].label, outcome) from outcome
                    self._keep(*outcome)
                    kept += 1
        except BaseException:
            if futures:
                self.close()
                for stack, fut in zip(stacks, futures):
                    if not fut.cancelled() and fut.exception() is None:
                        for i, outcome in zip(stack, fut.result()):
                            outcomes[i] = outcome
            for outcome in outcomes[kept:]:
                if isinstance(outcome, tuple):
                    self._keep(*outcome)
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
            missing = list(dict.fromkeys(s.label for s, _ in pending))
            named = " ".join(missing[:5]) + (" ..." if len(missing) > 5 else "")
            raise ValueError(f"cache is missing records for {len(missing)} of {len(subsets)} "
                             f"subsets ({named}); run the sweep first")
        if pending:
            self._run(pending)
        return {
            s.label: self._aggregate([cached(s, r) for r in range(self.replicates)])
            for s in subsets
        }


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
    EvalRecord.check_metric(metric)
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
        raise ValueError(
            f"exhaustive sweep needs {required} subset evaluations, budget allows {budget}")
    EvalRecord.check_metric(metric)
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
    sums = [0.0] * sweep.channels
    counts = [0] * sweep.channels
    for record in sweep.records:
        m = record.metric(sweep.metric_name)
        for ch in parse_subset(record.subset_label, sweep.channels).indices:
            sums[ch] += m
            counts[ch] += 1
    means = [total / count for total, count in zip(sums, counts)]
    order = sorted(range(sweep.channels), key=lambda c: (means[c], c))
    return tuple((c, means[c]) for c in order)


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
