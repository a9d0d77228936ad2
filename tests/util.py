"""Shared test helpers: independent oracles and fixture builders.

Most oracles avoid the production code paths: edit distance is found by
enumerating edit scripts with iterative deepening (no DP table), binomial
counts come straight from factorials, and the frame error rate counts
differing labels one frame at a time. ``gradient_check`` is the exception:
it differentiates the production loss, ``model._loss_and_grads``, by central
finite differences and compares the result with that function's analytic
gradient. The fixture builders rig ``synth`` configs whose right answer is
known: the planted channel ranking and a pair of channels only strong
together. The data that several test modules share live here too, so that
no test module imports another.
"""

from __future__ import annotations

import math
from dataclasses import replace
from operator import ne
from pathlib import Path
from typing import Sequence

import numpy as np

from chansel import search
from chansel.corpus import Corpus, LabeledSequence
from chansel.metrics import CategoryReport, CategoryRow
from chansel.model import (
    EvalRecord, ModelParams, TrainConfig, _buffers, _frame_buffers, _loss_and_grads, _windows,
    label_indices,
)
from chansel.phonemes import default_table
from chansel.search import ResultsCache, TrainingEvaluator
from chansel.signals import MultichannelSignal
from chansel.synth import GeneratorConfig, generate

# the CLI config of tests/conftest.py's workdir, and of the pinned numbers
TINY_CONFIG = {
    "generator": {
        "channels": 4,
        "classes": ["B", "IY", "T"],
        "weights": [1.0, 0.7, 0.4, 0.2],
        "noise_sigma": 0.5,
        "frames_per_segment": 4,
        "segments_per_utterance": 3,
        "utterances": 12,
        "seed": 5,
        "channel_classes": None,
        "crosstalk": 0.0,
    },
    "model": {"window": 3, "features": 6},
    "train": {"learning_rate": 0.5, "epochs": 2, "batch_size": 4, "dropout_p": 0.0, "seed": 0},
    "search": {"k": 2, "k_top": 3, "stop_size": 2, "replicates": 1,
               "metric": "per_total", "budget": 1000, "workers": 1},
    "eval": {"per_threshold": 1, "train_fraction": 0.75},
}

# published top-10 4-channel subsets and their WERs (%)
TOP10_FIXTURE = [
    ("1356", 47.2), ("2357", 47.3), ("1346", 47.7), ("1238", 48.3), ("1235", 48.4),
    ("2347", 48.6), ("1236", 48.8), ("1345", 49.0), ("1245", 49.6), ("2367", 49.6),
]


def read_all(directory: Path) -> dict[str, bytes]:
    return {
        str(p.relative_to(directory)): p.read_bytes()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def _can_edit(ref: tuple, hyp: tuple, budget: int) -> bool:
    """True iff some edit script of cost <= budget turns ref into hyp.
    Explores match / substitute / delete / insert branches exhaustively."""
    if budget < 0:
        return False
    if not ref:
        return len(hyp) <= budget
    if not hyp:
        return len(ref) <= budget
    if ref[0] == hyp[0] and _can_edit(ref[1:], hyp[1:], budget):
        return True
    return (
        _can_edit(ref[1:], hyp[1:], budget - 1)
        or _can_edit(ref[1:], hyp, budget - 1)
        or _can_edit(ref, hyp[1:], budget - 1)
    )


def exhaustive_edit_distance(ref: Sequence[str], hyp: Sequence[str]) -> int:
    """Minimum edit-script cost by trying budgets 0, 1, 2, ... until one
    admits a script. Independent of the DP implementation under test."""
    ref_t, hyp_t = tuple(ref), tuple(hyp)
    for budget in range(len(ref_t) + len(hyp_t) + 1):
        if _can_edit(ref_t, hyp_t, budget):
            return budget
    raise AssertionError("unreachable: deleting everything and inserting always works")


def binomial_by_factorials(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.factorial(n) // (math.factorial(k) * math.factorial(n - k))


def phoneme_error_rate(ref: Sequence[str], hyp: Sequence[str]) -> float:
    """Fraction of frames where the hypothesis label differs from the reference."""
    if len(ref) != len(hyp):
        raise ValueError(f"frame label length mismatch: ref {len(ref)} vs hyp {len(hyp)}")
    if len(ref) == 0:
        return 0.0
    return sum(map(ne, ref, hyp)) / len(ref)


def gradient_check(
    params: ModelParams,
    batch: Sequence[LabeledSequence],
    n_coords: int = 100,
    step: float = 1e-5,
    seed: int = 0,
    negate_analytic: bool = False,
) -> float:
    """Max relative error between analytic and central finite-difference
    gradients on randomly chosen coordinates of the flat parameter buffer.
    ``negate_analytic`` flips the analytic gradient's sign and exists as the
    negative control: a correct implementation then reports an error near 1."""
    if not batch:
        raise ValueError("gradient check needs a non-empty batch")
    xw = np.vstack(_windows(params, [seq.signal.samples for seq in batch]))[:, None]
    y = np.concatenate(label_indices(batch, params.class_symbols))

    weights, arrays, grad, grads = _buffers([params])
    weights, grad = weights[0], grad[0]
    work = _frame_buffers(len(xw), 1, params.features, params.classes, params.features)
    _loss_and_grads(*arrays, xw, y, grads, *work)
    rng = np.random.default_rng(seed)
    coords = rng.choice(weights.size, size=min(n_coords, weights.size), replace=False)
    analytic = -grad[coords] if negate_analytic else grad[coords]

    worst = 0.0
    for i, a in zip(coords, analytic.tolist()):
        saved = weights[i]
        weights[i] += step
        [loss_plus] = _loss_and_grads(*arrays, xw, y, grads, *work)
        weights[i] -= 2 * step
        [loss_minus] = _loss_and_grads(*arrays, xw, y, grads, *work)
        weights[i] = saved
        numeric = (loss_plus - loss_minus) / (2 * step)
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def fake_numpy_without_thread_setter(monkeypatch, directory) -> None:
    """Point ``numpy.__file__`` into ``directory``, which has no
    ``numpy.libs``: ``search._openblas_library`` then finds no thread setter,
    as on a numpy built against a system OpenBLAS or MKL."""
    (directory / "numpy").mkdir(parents=True)
    (directory / "numpy" / "__init__.py").write_text("")
    monkeypatch.setattr(search.np, "__file__", str(directory / "numpy" / "__init__.py"))


def no_thread_setter_note() -> str:
    """The stderr line of ``search._openblas_library`` when it finds no
    thread setter beside the numpy imported now."""
    libs = Path(search.np.__file__).resolve().parent.parent / "numpy.libs"
    return (f"warning: no scipy-openblas library with a thread setter in {libs}; pool "
            "workers keep the BLAS default thread count (set OPENBLAS_NUM_THREADS=1 "
            "to pin it)\n")


def planted_importance(cfg: GeneratorConfig) -> tuple[int, ...]:
    """Channels (0-based) ranked most-informative first: by planted weight
    descending, ties broken by channel index."""
    return tuple(sorted(range(cfg.channels), key=lambda c: (-cfg.weights[c], c)))


def complementary_pair_config(
    base: GeneratorConfig,
    pair: tuple[int, int] = (0, 1),
    pair_weight: float = 1.0,
) -> GeneratorConfig:
    """Rig a config so two channels are only strong together.

    The pair channels each carry templates for a disjoint half of the class
    set at ``pair_weight``; every other channel keeps its base weight and
    covers all classes. Neither pair member can decode the classes the other
    owns, but jointly they cover everything at full strength, so the best
    equal-size subset must contain both: the fixture on which greedy
    elimination can go wrong while an exhaustive sweep cannot.
    """
    if base.channels < 4:
        raise ValueError(f"complementary fixture needs >= 4 channels, got {base.channels}")
    a, b = pair
    if a == b or not (0 <= a < base.channels and 0 <= b < base.channels):
        raise ValueError(f"invalid channel pair {pair} for {base.channels} channels")
    k = len(base.classes)
    halves = {a: tuple(range((k + 1) // 2)), b: tuple(range((k + 1) // 2, k))}
    coverage = tuple(halves.get(c, tuple(range(k))) for c in range(base.channels))
    weights = tuple(pair_weight if c in halves else w for c, w in enumerate(base.weights))
    return replace(base, weights=weights, channel_classes=coverage)


def search_corpus(channels=3, utterances=12, seed=0) -> Corpus:
    return generate(GeneratorConfig(
        channels=channels,
        classes=("B", "IY", "T"),
        weights=tuple([1.0, 0.6, 0.2, 0.0][:channels]),
        noise_sigma=0.5,
        frames_per_segment=4,
        segments_per_utterance=3,
        utterances=utterances,
        seed=seed,
    ))


def make_evaluator(corpus, tmp_path=None, replicates=1, workers=1, epochs=3) -> TrainingEvaluator:
    train_c, test_c = corpus.split(0.75)
    return TrainingEvaluator(
        train_corpus=train_c,
        test_corpus=test_c,
        table=default_table(),
        train_cfg=TrainConfig(learning_rate=0.5, epochs=epochs, batch_size=4, seed=0),
        corpus_hash=corpus.content_hash,
        window=3,
        features=8,
        replicates=replicates,
        threshold=1,
        workers=workers,
        cache=ResultsCache(tmp_path / "cache.jsonl" if tmp_path else None),
    )


def make_sequence(labels: Sequence[str], channels: int = 2, seed: int = 0) -> LabeledSequence:
    """LabeledSequence with an arbitrary (seeded noise) signal of matching length."""
    rng = np.random.default_rng(seed)
    signal = MultichannelSignal(rng.normal(size=(channels, len(labels))))
    return LabeledSequence(signal, labels)


def empty_report() -> CategoryReport:
    return CategoryReport(rows=(), excluded=())


def make_record(
    subset_label: str,
    wer: float = 0.0,
    per_total: float = 0.0,
    per_category: CategoryReport | None = None,
    seed: int = 0,
) -> EvalRecord:
    return EvalRecord(
        subset_label=subset_label,
        seed=seed,
        config_hash="cfg",
        corpus_hash="corpus",
        wer=wer,
        per_total=per_total,
        per_category=per_category if per_category is not None else empty_report(),
    )


class FakeEvaluator:
    """Stands in for ``TrainingEvaluator`` in the search loops: the metric
    comes from a function of the subset, and every subset scored is counted."""

    def __init__(self, metric_fn):
        self.metric_fn = metric_fn
        self.calls = 0

    def evaluate_many(self, subsets) -> dict[str, EvalRecord]:
        records = {}
        for subset in subsets:
            self.calls += 1
            m = self.metric_fn(subset)
            records[subset.label] = make_record(subset.label, wer=m, per_total=m)
        return records

    def close(self) -> None:
        pass


def report_from_rates(rates: dict[str, float], count: int = 10_000) -> CategoryReport:
    rows = tuple(CategoryRow(name, count, rate) for name, rate in rates.items())
    return CategoryReport(rows=rows, excluded=())
