"""Reference frame classifier with a channel-sliceable input layer.

The network is deliberately tiny: a linear layer over a sliding window of W
taps per channel, tanh, then a linear softmax head. What matters is its
structure, not its capacity: the first layer's weight matrix is organised in
per-channel column blocks (channel c owns columns [c*W, (c+1)*W)), so a model
for a channel subset is obtained by slicing those blocks out of a pretrained
full-channel model, and slicing is exactly equivalent to zeroing the dropped
channels of the input.

Training is plain mini-batch gradient descent with a fixed learning rate,
frame-wise cross-entropy, and optional channel dropout drawn fresh per
utterance per epoch. Everything is a pure function of the seed; no adaptive
optimizer state, no threading, so trajectories are bit-reproducible.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

import numpy as np

from ._version import __version__
from .corpus import Corpus, LabeledSequence
from .metrics import CategoryReport, CategoryRow, DEFAULT_CATEGORY_THRESHOLD, TOTAL_ROW
from .phonemes import SILENCE_SYMBOL, CategoryTable
from .signals import ChannelSubset, draw_channel_mask, read_json

MODEL_FORMAT_VERSION = 1
LOG_CLAMP = 1e-12

DROPOUT_PRESETS = (0.0, 0.125, 0.25)


class TrainingDivergedError(RuntimeError):
    """Raised when a batch produces a non-finite loss; names the batch."""

    def __init__(self, epoch: int, batch: int, loss: float):
        super().__init__(f"non-finite loss {loss} at epoch {epoch}, batch {batch}")
        self.epoch = epoch
        self.batch = batch
        self.loss = loss

    def __reduce__(self):  # survives the trip back from a worker process
        return (TrainingDivergedError, (self.epoch, self.batch, self.loss))


# The parameter arrays in the order every caller reads them: the model file
# payload, the gradient step's arguments and its gradients.
_ARRAYS = ("input_weights", "input_bias", "head_weights", "head_bias")


def _layer_shapes(channels: int, window: int, features: int,
                  classes: int) -> tuple[tuple[int, ...], ...]:
    """Shapes of the parameter arrays, in ``_ARRAYS`` order; the only place
    that says which layer sizes are valid."""
    if channels < 1 or window < 1 or features < 1 or classes < 2:
        raise ValueError(
            f"bad layer sizes: channels={channels} window={window} "
            f"features={features} classes={classes}"
        )
    return (features, channels * window), (features,), (classes, features), (classes,)


@dataclass(frozen=True, eq=False)
class ModelParams:
    """Flat parameter set; all arrays are copied in and locked read-only."""

    input_weights: np.ndarray  # (features, channels * window)
    input_bias: np.ndarray  # (features,)
    head_weights: np.ndarray  # (classes, features)
    head_bias: np.ndarray  # (classes,)
    channels: int
    window: int
    features: int
    class_symbols: tuple[str, ...]

    def __post_init__(self) -> None:
        shapes = _layer_shapes(self.channels, self.window, self.features, self.classes)
        for name, shape in zip(_ARRAYS, shapes):
            arr = np.array(getattr(self, name), dtype=np.float64, copy=True)
            if arr.shape != shape:
                raise ValueError(f"{name} shape {arr.shape}, expected {shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"{name} contains NaN or Inf")
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def classes(self) -> int:
        return len(self.class_symbols)


def _arrays(params: ModelParams) -> tuple[np.ndarray, ...]:
    return tuple(getattr(params, name) for name in _ARRAYS)


def init_params(
    channels: int,
    window: int,
    features: int,
    class_symbols: Sequence[str],
    seed: int,
) -> ModelParams:
    """Seeded uniform init in [-a, a] with a = sqrt(1 / fan_in) per layer,
    drawn array by array in ``_ARRAYS`` order."""
    symbols = tuple(class_symbols)
    shapes = _layer_shapes(channels, window, features, len(symbols))
    rng = np.random.default_rng(seed)
    a1 = np.sqrt(1.0 / (channels * window))
    a2 = np.sqrt(1.0 / features)
    drawn = [rng.uniform(-a, a, size=shape) for a, shape in zip((a1, a1, a2, a2), shapes)]
    return ModelParams(**dict(zip(_ARRAYS, drawn)), channels=channels, window=window,
                       features=features, class_symbols=symbols)


def featurize(samples: np.ndarray, window: int) -> np.ndarray:
    """Windowed view of a (C, T) signal: row t holds the W taps around frame t
    for each channel, zero-padded at the edges, laid out channel-block-major.
    Returns (T, C * W)."""
    c, t = samples.shape
    left = (window - 1) // 2
    right = window // 2
    padded = np.pad(samples, ((0, 0), (left, right)))
    win = np.lib.stride_tricks.sliding_window_view(padded, window, axis=1)  # (C, T, W)
    return np.ascontiguousarray(win.transpose(1, 0, 2).reshape(t, c * window))


def _windows(params: ModelParams, signals: Iterable[np.ndarray]) -> list[np.ndarray]:
    """``featurize`` each (C, T) signal after checking it has the model's C."""
    out = []
    for samples in signals:
        if samples.shape[0] != params.channels:
            raise ValueError(
                f"signal has {samples.shape[0]} channels, model expects {params.channels}"
            )
        out.append(featurize(samples, params.window))
    return out


def _scores(w1, b1, w2, b2, xw: np.ndarray) -> np.ndarray:
    h = np.tanh(xw @ w1.T + b1)
    return h @ w2.T + b2


def _loss_and_grads(w1, b1, w2, b2, xw: np.ndarray, y: np.ndarray, grads) -> float:
    """Mean batch cross-entropy; writes its gradients into ``grads``, four
    arrays in ``_ARRAYS`` order. Works in two (n, .) buffers with ``out=``
    and in-place ufuncs; every elementwise step applies the same operation
    to the same operands as the textbook formula (softmax, clipped
    log-likelihood, backprop through tanh), so the results are equal to the
    bit. The row max is exact, so taking it column by column cannot change a
    bit either, and the loss is ``np.mean``'s arithmetic: a pairwise sum
    divided by n."""
    gw1, gb1, gw2, gb2 = grads
    n = xw.shape[0]
    h = xw @ w1.T
    h += b1
    np.tanh(h, out=h)
    g = h @ w2.T
    g += b2
    top = g[:, 0].copy()
    for j in range(1, g.shape[1]):
        np.maximum(top, g[:, j], out=top)
    g -= top[:, None]
    np.exp(g, out=g)
    g /= g.sum(axis=1, keepdims=True)
    # each row's true class as a position in the flat buffer: cheaper to
    # index than (row, column) pairs
    flat = g.reshape(-1)
    true = np.arange(0, flat.size, g.shape[1]) + y
    likelihood = flat[true]
    np.maximum(likelihood, LOG_CLAMP, out=likelihood)
    np.log(likelihood, out=likelihood)
    loss = -(float(np.add.reduce(likelihood)) / n)
    flat[true] -= 1.0
    g /= n
    np.matmul(g.T, h, out=gw2)
    np.add.reduce(g, axis=0, out=gb2)
    dh = g @ w2
    h *= h
    np.subtract(1.0, h, out=h)
    dh *= h
    np.matmul(dh.T, xw, out=gw1)
    np.add.reduce(dh, axis=0, out=gb1)
    return loss


def _views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """A view of ``flat`` shaped as each of ``shapes``, laid end to end."""
    sizes = [math.prod(shape) for shape in shapes]
    return [part.reshape(shape)
            for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1]), shapes)]


def _buffers(params: ModelParams) -> tuple[np.ndarray, list[np.ndarray], np.ndarray, list[np.ndarray]]:
    """A flat copy of the parameters in ``_ARRAYS`` (payload) order and a
    flat gradient buffer of the same layout, each with a view per array."""
    shapes = [a.shape for a in _arrays(params)]
    flat = np.concatenate([a.ravel() for a in _arrays(params)])
    grad = np.empty_like(flat)
    return flat, _views(flat, shapes), grad, _views(grad, shapes)


def forward(params: ModelParams, x) -> np.ndarray:
    """Per-frame class scores, shape (T, classes). Deterministic; dropout is
    a training-only concern and never applied here."""
    samples = x.samples if hasattr(x, "samples") else np.asarray(x, dtype=np.float64)
    return _scores(*_arrays(params), *_windows(params, [samples]))


def predict_labels(params: ModelParams, x) -> tuple[str, ...]:
    idx = np.argmax(forward(params, x), axis=1)
    return tuple(params.class_symbols[i] for i in idx)


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent settings. ``dropout_p`` is the per-channel masking
    probability during training; the documented presets are 0, 0.125, 0.25."""

    learning_rate: float = 0.5
    epochs: int = 30
    batch_size: int = 16
    dropout_p: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not (0.0 <= self.dropout_p <= 1.0):
            raise ValueError(f"dropout_p must be in [0, 1], got {self.dropout_p}")


@dataclass(frozen=True)
class TrainResult:
    params: ModelParams
    epoch_losses: tuple[float, ...]
    initial_loss: float
    final_loss: float
    mean_retained_channels: float


def label_indices(sequences: Sequence[LabeledSequence],
                  class_symbols: Sequence[str]) -> list[np.ndarray]:
    """Per-utterance frame labels as class indices into ``class_symbols``."""
    class_index = {sym: i for i, sym in enumerate(class_symbols)}
    try:
        return [np.array([class_index[lab] for lab in seq.labels], dtype=np.int64)
                for seq in sequences]
    except KeyError as exc:
        raise ValueError(f"corpus label {exc.args[0]!r} is not a model class") from None


def train(params: ModelParams, data: Corpus | Sequence[LabeledSequence], cfg: TrainConfig) -> TrainResult:
    """Minimise frame-wise cross-entropy by mini-batch gradient descent.

    Featurizes the corpus and runs ``fit_windows``. ``initial_loss`` and
    ``final_loss`` each cost one full pass over the corpus; the subset search
    reads neither and calls ``fit_windows`` directly instead.
    """
    sequences = list(data)
    if not sequences:
        raise ValueError("training corpus is empty")
    xw_all = _windows(params, [seq.signal.samples for seq in sequences])
    y_all = label_indices(sequences, params.class_symbols)

    def clean_loss(p: ModelParams) -> float:
        _, arrays, _, grads = _buffers(p)
        return _loss_and_grads(*arrays, np.vstack(xw_all), np.concatenate(y_all), grads)

    initial_loss = clean_loss(params)
    trained, epoch_losses, mean_retained = fit_windows(params, xw_all, y_all, cfg)
    return TrainResult(
        params=trained,
        epoch_losses=epoch_losses,
        initial_loss=initial_loss,
        final_loss=clean_loss(trained),
        mean_retained_channels=mean_retained,
    )


def fit_windows(
    params: ModelParams,
    xw_all: Sequence[np.ndarray],
    y_all: Sequence[np.ndarray],
    cfg: TrainConfig,
) -> tuple[ModelParams, tuple[float, ...], float]:
    """The gradient-descent loop on featurized utterances: one (T, C * W)
    window matrix and one label-index vector per utterance. Returns the
    trained parameters, the per-epoch mean batch losses and the mean number
    of channels dropout retained.

    Batches are groups of utterances; when cfg.dropout_p > 0 a fresh channel
    mask is drawn for every utterance in every epoch. The parameters and
    their gradients each live in one flat buffer, so a step is
    ``grad *= lr; weights -= grad`` on the whole buffer: the same elementwise
    operations as updating array by array. Identical seeds give
    bit-identical parameter trajectories. Raises TrainingDivergedError on the
    first non-finite batch loss.
    """
    weights, arrays, grad, grads = _buffers(params)
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    p = cfg.dropout_p
    n = len(xw_all)
    retained_sum = 0
    draws = 0
    epoch_losses: list[float] = []

    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses: list[float] = []
        for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
            ids = order[start:start + cfg.batch_size]
            xs = []
            for i in ids:
                if p > 0.0:
                    mask = draw_channel_mask(params.channels, p, rng)
                    retained_sum += mask.retained
                    draws += 1
                    col = np.repeat(np.asarray(mask.bits, dtype=np.float64), params.window)
                    xs.append(xw_all[i] * col)
                else:
                    xs.append(xw_all[i])
            xw = np.concatenate(xs)
            y = np.concatenate([y_all[i] for i in ids])
            loss = _loss_and_grads(*arrays, xw, y, grads)
            if not math.isfinite(loss):
                raise TrainingDivergedError(epoch, b_idx, loss)
            grad *= lr
            weights -= grad
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))

    trained = replace(params, **dict(zip(_ARRAYS, arrays)))
    mean_retained = retained_sum / draws if draws else float(params.channels)
    return trained, tuple(epoch_losses), mean_retained


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
    xw = np.vstack(_windows(params, [seq.signal.samples for seq in batch]))
    y = np.concatenate(label_indices(batch, params.class_symbols))

    weights, arrays, grad, grads = _buffers(params)
    _loss_and_grads(*arrays, xw, y, grads)
    rng = np.random.default_rng(seed)
    coords = rng.choice(weights.size, size=min(n_coords, weights.size), replace=False)
    analytic = -grad[coords] if negate_analytic else grad[coords]

    worst = 0.0
    for i, a in zip(coords, analytic.tolist()):
        saved = weights[i]
        weights[i] += step
        loss_plus = _loss_and_grads(*arrays, xw, y, grads)
        weights[i] -= 2 * step
        loss_minus = _loss_and_grads(*arrays, xw, y, grads)
        weights[i] = saved
        numeric = (loss_plus - loss_minus) / (2 * step)
        rel = abs(a - numeric) / max(abs(a) + abs(numeric), 1e-8)
        worst = max(worst, rel)
    return worst


def subset_columns(subset: ChannelSubset, window: int) -> np.ndarray:
    """Input-layer columns of a subset's channels: channel c owns columns
    [c*W, (c+1)*W), so ``featurize(x)[:, cols]`` equals the windows of the
    subset-restricted signal and ``input_weights[:, cols]`` its weights."""
    return np.concatenate([np.arange(c * window, (c + 1) * window) for c in subset.indices])


def slice_input_channels(params: ModelParams, subset: ChannelSubset) -> ModelParams:
    """Model for a channel subset: keep exactly the input-weight column blocks
    of the surviving channels, copy every other parameter verbatim. The result
    computes the same function on subset-restricted input as the original does
    on input with the dropped channels zeroed."""
    if subset.indices[-1] >= params.channels:
        raise ValueError(
            f"subset {subset.label} references channel {subset.indices[-1]}, "
            f"model has {params.channels} channels"
        )
    return replace(params, channels=len(subset),
                   input_weights=params.input_weights[:, subset_columns(subset, params.window)])


@dataclass(frozen=True)
class EvalRecord:
    """One evaluation row: the unit of caching and ranking.

    ``seed`` is the replicate index for cached single-training rows and the
    base seed for aggregated rows (``n_seeds`` > 1). Wall time is bookkeeping
    only and never flows into report files.
    """

    subset_label: str
    seed: int
    config_hash: str
    corpus_hash: str
    wer: float
    per_total: float
    per_category: CategoryReport
    wall_time: float = 0.0
    n_seeds: int = 1

    def to_dict(self) -> dict:
        return {
            "subset": self.subset_label,
            "seed": self.seed,
            "config_hash": self.config_hash,
            "corpus_hash": self.corpus_hash,
            "wer": self.wer,
            "per_total": self.per_total,
            "per_category": {
                "rows": [[r.name, r.count, r.rate] for r in self.per_category.rows],
                "excluded": list(self.per_category.excluded),
            },
            "wall_time": self.wall_time,
            "n_seeds": self.n_seeds,
        }

    @classmethod
    def from_dict(cls, d: Mapping) -> "EvalRecord":
        cat = d["per_category"]
        return cls(
            subset_label=d["subset"],
            seed=int(d["seed"]),
            config_hash=d["config_hash"],
            corpus_hash=d["corpus_hash"],
            wer=float(d["wer"]),
            per_total=float(d["per_total"]),
            per_category=CategoryReport(
                rows=tuple(CategoryRow(name, int(count), float(rate))
                           for name, count, rate in cat["rows"]),
                excluded=tuple(cat["excluded"]),
            ),
            wall_time=float(d["wall_time"]),
            n_seeds=int(d.get("n_seeds", 1)),
        )

    # the fields a ranking may sort by
    METRICS: ClassVar[tuple[str, ...]] = ("wer", "per_total")

    def metric(self, name: str) -> float:
        if name not in self.METRICS:
            raise KeyError(f"unknown metric {name!r} "
                           f"(expected {' or '.join(map(repr, self.METRICS))})")
        return getattr(self, name)


class ScoringReference:
    """Every fact about a test split that no model changes, in the integer
    index space scoring works in: the model's class symbols, then each label
    only the reference has (a frame with such a label is always an error).

    Holds the reference frame labels as ids, every utterance's transcript as
    token ids, the symbol x category membership matrix, the per-category
    reference frame counts and the frame and token totals. Building it
    raises nothing; ``score_windows`` raises what the split cannot be scored
    for, so a search names the subset it was scoring.
    """

    def __init__(self, refs: Sequence[LabeledSequence], class_symbols: Sequence[str],
                 table: CategoryTable):
        self.class_symbols = tuple(class_symbols)
        index = {}
        for sym in self.class_symbols:
            index.setdefault(sym, len(index))
        # hypothesis class index -> symbol id (a repeated class symbol is one id)
        self.class_ids = np.array([index[sym] for sym in self.class_symbols], dtype=np.int64)
        labels = [lab for seq in refs for lab in seq.labels]
        for lab in labels:
            index.setdefault(lab, len(index))
        self.symbols = tuple(index)
        self.frames = np.array([index[lab] for lab in labels], dtype=np.int64)
        self.lengths = [len(seq.labels) for seq in refs]
        self.starts = np.cumsum([0, *self.lengths[:-1]])
        self.frame_utterance = np.repeat(np.arange(len(refs)), self.lengths)
        self.silence = index.get(SILENCE_SYMBOL, -1)
        # the first label in frame order that the taxonomy lacks
        self.unknown = next((lab for lab in dict.fromkeys(labels) if lab not in table), None)
        self.category_names = table.names
        self.membership = np.array(
            [[sym in table.category_members(name) for sym in self.symbols]
             for name in table.names], dtype=np.int64)
        self.category_counts = (self.membership @ np.bincount(
            self.frames, minlength=len(index))).tolist()
        self.token_ids: dict[str, int] = {}
        words, utterance = self._words(self.frames)
        ids = [self.token_ids.setdefault(word, len(self.token_ids)) for word in words]
        self.tokens, self.token_counts = self._pad(ids, utterance, fill=-2)
        self.total_tokens = len(ids)

    def _words(self, ids: np.ndarray) -> tuple[list[str], np.ndarray]:
        """The word tokens of concatenated frame ids, spelled as
        ``collapse_frame_labels`` spells them (the phonemes joined with a
        middle dot), and the utterance of each: repeated labels collapse
        into one phoneme, and silence or an utterance boundary ends a word."""
        size = ids.size
        speech = ids != self.silence
        run = np.empty(size, dtype=bool)  # a phoneme run starts here
        run[0] = True
        np.not_equal(ids[1:], ids[:-1], out=run[1:])
        run[self.starts] = True
        run &= speech
        word = np.empty(size, dtype=bool)  # a word starts here
        word[0] = True
        np.logical_not(speech[:-1], out=word[1:])
        word[self.starts] = True
        at = np.flatnonzero(run)
        cuts = np.flatnonzero(word[at])
        phonemes = [self.symbols[i] for i in ids[at].tolist()]
        bounds = [*cuts.tolist(), len(phonemes)]
        words = ["·".join(phonemes[a:b]) for a, b in zip(bounds, bounds[1:])]
        return words, self.frame_utterance[at[cuts]]

    def _pad(self, ids: list[int], utterance: np.ndarray, fill: int) -> tuple[np.ndarray, np.ndarray]:
        """Token ids laid out one utterance per row, padded with ``fill``,
        and the token count of each row."""
        counts = np.bincount(utterance, minlength=len(self.lengths))
        out = np.full((len(self.lengths), counts.max()), fill, dtype=np.int64)
        out[utterance, np.arange(len(ids)) - (np.cumsum(counts) - counts)[utterance]] = ids
        return out, counts

    def edits(self, hyp: np.ndarray) -> int:
        """Summed edit distance between each utterance's transcript and the
        collapse of its hypothesis frames (concatenated symbol ids), whose
        words become reference token ids, -1 for a word no transcript has.
        Every utterance at once, one reference token per row of the distance
        table, two rows kept: with ``tmp`` the row before insertions,
        ``np.minimum.accumulate(tmp - j) + j`` adds the best chain of
        insertions to every column. ``ends`` keeps each row's cell at the
        utterance's hypothesis length; an utterance's distance is the one in
        the row of its reference length."""
        words, utterance = self._words(hyp)
        ids = [self.token_ids.get(word, -1) for word in words]
        hyp_tokens, hyp_counts = self._pad(ids, utterance, fill=-1)
        utterances, width = hyp_tokens.shape
        rows = np.arange(utterances)
        j = np.arange(width + 1)
        ends = np.empty((self.tokens.shape[1] + 1, utterances), dtype=np.int64)
        ends[0] = hyp_counts
        prev = np.tile(j, (utterances, 1))
        cur = np.empty_like(prev)
        tmp = np.empty_like(prev)
        cost = np.empty((utterances, width), dtype=bool)
        for i in range(self.tokens.shape[1]):
            np.not_equal(self.tokens[:, i, None], hyp_tokens, out=cost)
            tmp[:, 0] = i + 1
            np.minimum(prev[:, 1:] + 1, prev[:, :-1] + cost, out=tmp[:, 1:])
            tmp -= j
            np.minimum.accumulate(tmp, axis=1, out=cur)
            cur += j
            ends[i + 1] = cur[rows, hyp_counts]
            prev, cur = cur, prev
        return int(ends[self.token_counts, rows].sum())


def evaluate(
    params: ModelParams,
    data: Corpus | Sequence[LabeledSequence],
    table: CategoryTable,
    subset: ChannelSubset | None = None,
    threshold: int = DEFAULT_CATEGORY_THRESHOLD,
    seed: int = 0,
    config_hash: str = "",
    corpus_hash: str = "",
) -> EvalRecord:
    """Score a model on a corpus: featurize it, build its scoring
    reference, then ``score_windows``."""
    sequences = list(data)
    if not sequences:
        raise ValueError("evaluation corpus is empty")
    xw_all = _windows(params, [seq.signal.samples for seq in sequences])
    reference = ScoringReference(sequences, params.class_symbols, table)
    return score_windows(params, xw_all, reference, subset=subset, threshold=threshold,
                         seed=seed, config_hash=config_hash, corpus_hash=corpus_hash)


def score_windows(
    params: ModelParams,
    xw_all: Sequence[np.ndarray],
    reference: ScoringReference,
    subset: ChannelSubset | None = None,
    threshold: int = DEFAULT_CATEGORY_THRESHOLD,
    seed: int = 0,
    config_hash: str = "",
    corpus_hash: str = "",
) -> EvalRecord:
    """Score a model on featurized utterances (``xw_all``) against a test
    split's ``reference``: frame argmax predictions, total and per-category
    PER, then WER of the collapsed token transcript against each
    utterance's reference transcript (corpus-level: summed edits over summed
    reference lengths). Counts are integers over label ids and each rate is
    the same int / int division as the string functions in ``metrics``, so
    the record equals theirs to the bit."""
    t0 = time.perf_counter()
    if params.class_symbols != reference.class_symbols:
        raise ValueError(f"model classes {params.class_symbols} differ from the "
                         f"reference's {reference.class_symbols}")
    if [len(xw) for xw in xw_all] != reference.lengths:
        raise ValueError(f"windows of {[len(xw) for xw in xw_all]} frames, the reference "
                         f"has {reference.lengths}")
    arrays = _arrays(params)
    hyp = reference.class_ids[np.concatenate(
        [np.argmax(_scores(*arrays, xw), axis=1) for xw in xw_all])]
    if reference.total_tokens == 0:
        raise ValueError("corpus reference transcripts are empty; WER undefined")
    edits = reference.edits(hyp)
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if reference.unknown is not None:
        raise KeyError(f"reference label {reference.unknown!r} not in the phoneme inventory")
    wrong = hyp != reference.frames
    total_frames = hyp.size
    total_errors = int(np.count_nonzero(wrong))
    errors = (reference.membership @ np.bincount(
        reference.frames[wrong], minlength=len(reference.symbols))).tolist()
    rows: list[CategoryRow] = []
    excluded: list[str] = []
    if total_frames >= threshold:
        rows.append(CategoryRow(TOTAL_ROW, total_frames, total_errors / total_frames))
    else:
        excluded.append(TOTAL_ROW)
    for name, n, e in zip(reference.category_names, reference.category_counts, errors):
        if n < threshold:
            excluded.append(name)
        else:
            rows.append(CategoryRow(name, n, e / n))
    if subset is None:
        subset = ChannelSubset.full(params.channels)
    return EvalRecord(
        subset_label=subset.label,
        seed=seed,
        config_hash=config_hash,
        corpus_hash=corpus_hash,
        wer=edits / reference.total_tokens,
        per_total=total_errors / total_frames,
        per_category=CategoryReport(tuple(rows), tuple(excluded)),
        wall_time=time.perf_counter() - t0,
        n_seeds=1,
    )


# --- model files -------------------------------------------------------------
#
# JSON manifest next to a .bin payload of all parameters, each array
# row-major, concatenated in ``_ARRAYS`` order, little-endian float64.
# Sliced models record their parent's payload hash and the subset.


def _payload(params: ModelParams) -> bytes:
    flat = np.concatenate([a.ravel() for a in _arrays(params)])
    return flat.astype("<f8").tobytes(order="C")


def model_hash(params: ModelParams) -> str:
    return hashlib.sha256(_payload(params)).hexdigest()


def save_model(
    params: ModelParams,
    header_path: Path,
    seed: int = 0,
    config_hash: str = "",
    provenance: Mapping | None = None,
) -> str:
    """Write manifest + payload; returns the payload hash."""
    header_path = Path(header_path)
    payload = _payload(params)
    digest = hashlib.sha256(payload).hexdigest()
    manifest = {
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": __version__,
        "layers": {
            "channels": params.channels,
            "window": params.window,
            "features": params.features,
            "classes": params.classes,
        },
        "class_symbols": list(params.class_symbols),
        "seed": seed,
        "config_hash": config_hash,
        "payload_sha256": digest,
        "provenance": dict(provenance) if provenance else None,
    }
    header_path.parent.mkdir(parents=True, exist_ok=True)
    header_path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    header_path.with_suffix(".bin").write_bytes(payload)
    return digest


def load_model(header_path: Path) -> tuple[ModelParams, dict]:
    header_path = Path(header_path)
    manifest = read_json(header_path, "model manifest",
                         ("layers", "class_symbols", "payload_sha256"))
    layers = manifest["layers"]
    if not isinstance(layers, dict):
        raise ValueError(f"model manifest {header_path} key 'layers' must hold a JSON object")
    for key in ("channels", "window", "features"):
        if key not in layers:
            raise ValueError(f"model manifest {header_path} has no 'layers.{key}' key")
        if type(layers[key]) is not int:
            raise ValueError(f"model manifest {header_path} key 'layers.{key}' must be an "
                             f"integer, got {layers[key]!r}")
    c, w, f = layers["channels"], layers["window"], layers["features"]
    symbols = tuple(manifest["class_symbols"])
    raw = header_path.with_suffix(".bin").read_bytes()
    if hashlib.sha256(raw).hexdigest() != manifest["payload_sha256"]:
        raise ValueError(f"model payload at {header_path} fails its integrity check")
    shapes = _layer_shapes(c, w, f, len(symbols))
    size = sum(math.prod(shape) for shape in shapes)
    flat = np.frombuffer(raw, dtype="<f8")
    if flat.size != size:
        raise ValueError(f"model payload holds {flat.size} values, expected {size}")
    arrays = _views(flat, shapes)
    params = ModelParams(**dict(zip(_ARRAYS, arrays)), channels=c, window=w, features=f,
                         class_symbols=symbols)
    return params, manifest
