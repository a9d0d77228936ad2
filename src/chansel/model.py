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

A model file is an artefact (see ``artefacts.py``): a JSON manifest of the
layer sizes, class symbols, seed, config hash, payload SHA-256 and slicing
provenance (the parent's payload hash and the subset), next to a payload of
the four parameter arrays, each row-major, in ``_ARRAYS`` order.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import ClassVar, Iterable, Mapping, Sequence

from ._version import __version__
from .artefacts import (
    check_format_version, naming, np, payload_bytes, positive_int, read_json, read_payload,
    write_artefact,
)
from .corpus import Corpus, LabeledSequence
from .metrics import CategoryReport, CategoryRow, DEFAULT_CATEGORY_THRESHOLD, category_report
from .phonemes import SILENCE_SYMBOL, CategoryTable
from .signals import ChannelSubset, MultichannelSignal, draw_channel_mask

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


def _flat(params: ModelParams) -> np.ndarray:
    """The parameters in one flat copy, in ``_ARRAYS`` (payload) order."""
    return np.concatenate([a.ravel() for a in _arrays(params)])


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


def _frame_buffers(rows: int, width: int, *sizes: int) -> list[np.ndarray]:
    """One frame-major (rows, width, size) buffer per size: row t of a
    buffer holds frame t for each of a stack's ``width`` models."""
    return [np.empty((rows, width, size)) for size in sizes]


def _check_channels(channels: np.ndarray, xw_all: Sequence[np.ndarray], window: int) -> None:
    """Refuse a channel the windows lack: ``_gather`` would clip it."""
    if xw_all and channels.max() >= xw_all[0].shape[1] // window:
        raise IndexError(f"channel {channels.max()} of windows with "
                         f"{xw_all[0].shape[1] // window} channels")


def _gather(xw: np.ndarray, channels: np.ndarray, window: int, out: np.ndarray) -> np.ndarray:
    """The windows of a stack's models from full-channel windows ``xw``, row
    s of ``channels`` naming model s's channels: each channel's block of
    ``window`` columns copied whole, frame-major into the first rows of
    ``out``, which are returned. ``mode="clip"`` writes straight into
    ``out`` (the default mode buffers); ``_check_channels`` has checked the
    channels."""
    frames = len(xw)
    np.take(xw.reshape(frames, -1, window), channels, axis=1, mode="clip",
            out=out[:frames].reshape(frames, *channels.shape, window))
    return out[:frames]


def _scores(w1, b1, w2, b2, xw: np.ndarray, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Class scores of a stack of S models (its parameters stacked along a
    leading axis) on frame-major (n, S, d) windows: fills the (n, S,
    features) buffer ``h`` with the hidden activations and returns the
    (n, S, classes) buffer ``g`` filled with the scores. Each matmul is one
    BLAS call per model on a strided view of the buffers, and each
    elementwise step applies one model's formula to each of its values, so
    each model's scores equal those of its own 2-D forward pass to the bit."""
    np.matmul(xw.transpose(1, 0, 2), w1.transpose(0, 2, 1), out=h.transpose(1, 0, 2))
    h += b1
    np.tanh(h, out=h)
    np.matmul(h.transpose(1, 0, 2), w2.transpose(0, 2, 1), out=g.transpose(1, 0, 2))
    g += b2
    return g


def _loss_and_grads(w1, b1, w2, b2, xw: np.ndarray, y: np.ndarray, grads, h: np.ndarray,
                    g: np.ndarray, dh: np.ndarray) -> list[float]:
    """Mean batch cross-entropy of each model of a stack, on frame-major
    (n, S, d) windows and the n labels the models share; writes the
    gradients into ``grads``, four stacked arrays in ``_ARRAYS`` order, and
    works in the caller's frame-major buffers ``h``, ``g`` and ``dh``, so a
    step allocates nothing the size of a batch. Every elementwise step
    applies the same operation to the same operands as the textbook formula
    (softmax, clipped log-likelihood, backprop through tanh), each matmul is
    one BLAS call per model and the batch sums run down the frames in order,
    so each model's loss and gradients equal a one-model step's to the bit.
    The row max is exact, so taking it column by column cannot change a bit
    either, and a loss is ``np.mean``'s arithmetic: a pairwise sum divided
    by n."""
    gw1, gb1, gw2, gb2 = grads
    n, width, classes = g.shape
    _scores(w1, b1, w2, b2, xw, h, g)
    top = g[..., 0].copy()
    for j in range(1, classes):
        np.maximum(top, g[..., j], out=top)
    g -= top[..., None]
    np.exp(g, out=g)
    g /= g.sum(axis=2, keepdims=True)
    # each frame's true class as a position in the flat buffer, one row per
    # model: cheaper to index than (frame, model, class) triples, and the
    # likelihoods come out one C-ordered row per model, so each row's sum
    # is pairwise
    flat = g.reshape(-1)
    true = np.arange(0, width * classes, classes)[:, None] + (
        np.arange(0, flat.size, width * classes) + y)
    likelihood = flat[true]
    np.maximum(likelihood, LOG_CLAMP, out=likelihood)
    np.log(likelihood, out=likelihood)
    losses = [-(total / n) for total in np.add.reduce(likelihood, axis=1).tolist()]
    flat[true] -= 1.0
    g /= n
    hs, gs = h.transpose(1, 0, 2), g.transpose(1, 0, 2)
    np.matmul(gs.transpose(0, 2, 1), hs, out=gw2)
    np.add.reduce(g, axis=0, out=gb2)
    np.matmul(gs, w2, out=dh.transpose(1, 0, 2))
    h *= h
    np.subtract(1.0, h, out=h)
    dh *= h
    np.matmul(dh.transpose(1, 2, 0), xw.transpose(1, 0, 2), out=gw1)
    np.add.reduce(dh, axis=0, out=gb1)
    return losses


def _views(flat: np.ndarray, shapes: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """A view of ``flat`` shaped as each of ``shapes``, laid end to end
    along its last axis; a leading axis, if any, stays in front."""
    sizes = [math.prod(shape) for shape in shapes]
    return [part.reshape(*flat.shape[:-1], *shape)
            for part, shape in zip(np.split(flat, np.cumsum(sizes)[:-1], axis=-1), shapes)]


def _buffers(stack: Sequence[ModelParams]) -> tuple[np.ndarray, list[np.ndarray],
                                                     np.ndarray, list[np.ndarray]]:
    """The one layout of a stack's parameters: ``_flat`` of model s in row s
    of an (S, P) buffer, and a gradient buffer of that layout, each with a
    stacked view per array. The models share the first one's shape."""
    shapes = [a.shape for a in _arrays(stack[0])]
    flat = np.stack([_flat(params) for params in stack])
    grad = np.empty_like(flat)
    return flat, _views(flat, shapes), grad, _views(grad, shapes)


def _all_channels(params: ModelParams) -> np.ndarray:
    """The channel rows of a one-model stack that reads every channel."""
    return np.arange(params.channels)[None]


def forward(params: ModelParams, x: MultichannelSignal) -> np.ndarray:
    """Per-frame class scores, shape (T, classes). Deterministic; dropout is
    a training-only concern and never applied here."""
    [xw] = _windows(params, [x.samples])
    return _scores(*_buffers([params])[1], xw[:, None],
                   *_frame_buffers(len(xw), 1, params.features, params.classes))[:, 0]


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
        if not (0 < self.learning_rate < math.inf):
            raise ValueError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be a positive integer, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be positive, got {self.batch_size}")
        if not (0.0 <= self.dropout_p <= 1.0):
            raise ValueError(f"dropout_p must be in [0, 1], got {self.dropout_p}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


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


def max_batch_rows(xw_all: Sequence[np.ndarray], batch_size: int) -> int:
    """The most frames a batch of ``batch_size`` of these utterances holds."""
    return sum(sorted(map(len, xw_all))[-batch_size:])


def train(params: ModelParams, data: Corpus | Sequence[LabeledSequence], cfg: TrainConfig) -> TrainResult:
    """Minimise frame-wise cross-entropy by mini-batch gradient descent.

    Featurizes the corpus and runs ``fit_windows``. ``initial_loss`` and
    ``final_loss`` each cost one full pass over the corpus. ``pretrain``
    reports them; the search and ``finetune`` read neither and train through
    ``search.train_and_score``, which calls ``fit_windows`` directly.
    """
    sequences = list(data)
    if not sequences:
        raise ValueError("training corpus is empty")
    xw_all = _windows(params, [seq.signal.samples for seq in sequences])
    y_all = label_indices(sequences, params.class_symbols)

    def clean_loss(p: ModelParams) -> float:
        _, arrays, _, grads = _buffers([p])
        xw = np.vstack(xw_all)[:, None]
        return _loss_and_grads(*arrays, xw, np.concatenate(y_all), grads, *_frame_buffers(
            len(xw), 1, p.features, p.classes, p.features))[0]

    initial_loss = clean_loss(params)
    [outcome], mean_retained = fit_windows([params], _all_channels(params), xw_all, y_all, cfg)
    if isinstance(outcome, Exception):
        raise outcome
    trained, epoch_losses = outcome
    return TrainResult(
        params=trained,
        epoch_losses=epoch_losses,
        initial_loss=initial_loss,
        final_loss=clean_loss(trained),
        mean_retained_channels=mean_retained,
    )


def fit_windows(
    stack: Sequence[ModelParams],
    channels: np.ndarray,
    xw_all: Sequence[np.ndarray],
    y_all: Sequence[np.ndarray],
    cfg: TrainConfig,
) -> tuple[list[tuple[ModelParams, tuple[float, ...]] | Exception], float]:
    """The gradient-descent loop of a *stack*: S models trained in lockstep
    under one seed, model s from start ``stack[s]``, all of one shape. Row s
    of the (S, k) ``channels`` names the channels model s reads from the
    featurized utterances, one (T, C * W) window matrix and one label-index
    vector per utterance. Returns, per row, the trained parameters and the
    per-epoch mean batch losses, or the error that stopped that model; and
    the mean number of channels dropout retained.

    Batches are groups of utterances; when cfg.dropout_p > 0 a fresh mask
    over the start models' k channels is drawn for every utterance in every
    epoch. What makes a stack possible is common random numbers: its models
    share the batch order and the masks, so only their starts and channels
    differ, and a step gathers the batch's windows for all S at once into
    one frame-major buffer and runs ``_loss_and_grads`` on the stack. The
    parameters and their gradients each live in one (S, P) buffer, so a step
    is ``grad *= lr; weights -= grad`` on the whole buffer: the same
    elementwise operations as updating array by array. So each model's
    trajectory equals its one-model run's to the bit, whatever else is in
    its stack. A model whose batch loss is not finite gets
    TrainingDivergedError for that step and keeps its slot in the stack,
    where its NaNs reach no other model; one whose last step leaves a
    parameter non-finite gets ``ModelParams``' ValueError. The others train
    on, and the fit ends early only once every model has failed.
    """
    shape = stack[0]
    window = shape.window
    _check_channels(channels, xw_all, window)
    width = len(channels)
    weights, arrays, grad, grads = _buffers(stack)
    rows = max_batch_rows(xw_all, cfg.batch_size)
    batch = np.empty((rows, xw_all[0].shape[1]))
    work = _frame_buffers(rows, width, shape.channels * window, shape.features,
                          shape.classes, shape.features)
    outcomes: list = [None] * width
    epoch_losses: list[list[float]] = [[] for _ in range(width)]
    rng = np.random.default_rng(cfg.seed)
    lr = cfg.learning_rate
    p = cfg.dropout_p
    n = len(xw_all)
    retained_sum = 0
    draws = 0

    # A diverged model runs on in its own rows, computing NaN or inf that no
    # other model reads; its error is already stored, and the warnings that
    # arithmetic raises would only add stderr text that varies between runs.
    with np.errstate(all="ignore"):
        for epoch in range(cfg.epochs):
            order = rng.permutation(n)
            batch_losses: list[list[float]] = [[] for _ in range(width)]
            for b_idx, start in enumerate(range(0, n, cfg.batch_size)):
                ids = order[start:start + cfg.batch_size]
                xs = [xw_all[i] for i in ids]
                xw = _gather(np.concatenate(xs, out=batch[:sum(map(len, xs))]), channels,
                             window, work[0])
                if p > 0.0:  # one mask per utterance, drawn in one call
                    keep = draw_channel_mask(shape.channels * len(ids), p, rng)
                    retained_sum += int(keep.sum())
                    draws += len(ids)
                    xw *= np.repeat(np.repeat(keep.reshape(len(ids), -1), window, axis=1),
                                    list(map(len, xs)), axis=0)[:, None]
                y = np.concatenate([y_all[i] for i in ids])
                losses = _loss_and_grads(*arrays, xw, y, grads, *(b[:len(xw)] for b in work[1:]))
                for s, loss in enumerate(losses):
                    if outcomes[s] is None and not math.isfinite(loss):
                        outcomes[s] = TrainingDivergedError(epoch, b_idx, loss)
                    batch_losses[s].append(loss)
                if None not in outcomes:
                    break
                grad *= lr
                weights -= grad
            if None not in outcomes:
                break
            for s in range(width):
                epoch_losses[s].append(float(np.mean(batch_losses[s])))

    for s in [s for s, outcome in enumerate(outcomes) if outcome is None]:
        try:
            outcomes[s] = (replace(stack[s], **{name: arr[s] for name, arr in zip(_ARRAYS, arrays)}),
                           tuple(epoch_losses[s]))
        except ValueError as exc:
            outcomes[s] = exc
    return outcomes, retained_sum / draws if draws else float(shape.channels)


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

    ``seed`` is the replicate index in a cache row, one training, and the
    base seed in every record a search returns, whatever its ``n_seeds``.
    A record is a function of (subset, corpus, config, seed) alone.
    """

    subset_label: str
    seed: int
    config_hash: str
    corpus_hash: str
    wer: float
    per_total: float
    per_category: CategoryReport
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
            n_seeds=int(d.get("n_seeds", 1)),
        )

    # the fields a ranking may sort by
    METRICS: ClassVar[tuple[str, ...]] = ("wer", "per_total")

    @classmethod
    def check_metric(cls, name: str) -> None:
        """Refuse a name that is not one of ``METRICS``."""
        if name not in cls.METRICS:
            raise ValueError(f"unknown metric {name!r} "
                             f"(expected {' or '.join(map(repr, cls.METRICS))})")

    def metric(self, name: str) -> float:
        self.check_metric(name)
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
    reference, then ``score_windows`` on a one-model stack."""
    sequences = list(data)
    if not sequences:
        raise ValueError("evaluation corpus is empty")
    xw_all = _windows(params, [seq.signal.samples for seq in sequences])
    reference = ScoringReference(sequences, params.class_symbols, table)
    [record] = score_windows([params], [subset or ChannelSubset.full(params.channels)],
                             _all_channels(params), xw_all, reference, threshold=threshold,
                             seed=seed, config_hash=config_hash, corpus_hash=corpus_hash)
    return record


def score_windows(
    stack: Sequence[ModelParams],
    subsets: Sequence[ChannelSubset],
    channels: np.ndarray,
    xw_all: Sequence[np.ndarray],
    reference: ScoringReference,
    threshold: int = DEFAULT_CATEGORY_THRESHOLD,
    seed: int = 0,
    config_hash: str = "",
    corpus_hash: str = "",
) -> list[EvalRecord]:
    """Score a stack of models of one shape, laid out by ``_buffers`` as
    for training, each labelled by its subset and reading the channels in
    its row of ``channels``, on featurized utterances (``xw_all``) against
    a test split's ``reference``. The forward pass and frame argmax run
    once per utterance for the whole stack, each slice equal to the bit to
    one model's. Then per model: total and per-category PER, and WER of
    the collapsed token transcript against each utterance's reference
    transcript (corpus-level: summed edits over summed reference lengths).
    Counts are integers over label ids, and ``metrics.category_report``
    forms the category rows from them as it does for ``category_per``, so
    each record equals the string functions' to the bit."""
    for params in stack:
        if params.class_symbols != reference.class_symbols:
            raise ValueError(f"model classes {params.class_symbols} differ from the "
                             f"reference's {reference.class_symbols}")
    if [len(xw) for xw in xw_all] != reference.lengths:
        raise ValueError(f"windows of {[len(xw) for xw in xw_all]} frames, the reference "
                         f"has {reference.lengths}")
    if reference.total_tokens == 0:
        raise ValueError("corpus reference transcripts are empty; WER undefined")
    if threshold < 1:
        raise ValueError(f"threshold must be >= 1, got {threshold}")
    if reference.unknown is not None:
        raise ValueError(f"reference label {reference.unknown!r} not in the phoneme inventory")
    window = stack[0].window
    _check_channels(channels, xw_all, window)
    arrays = _buffers(stack)[1]
    work = _frame_buffers(max(reference.lengths), len(stack), stack[0].channels * window,
                          stack[0].features, stack[0].classes)
    hyps = reference.class_ids[np.concatenate(
        [np.argmax(_scores(*arrays, _gather(xw, channels, window, work[0]),
                           *(b[:len(xw)] for b in work[1:])), axis=2)
         for xw in xw_all]).T]
    records = []
    for subset, hyp in zip(subsets, hyps):
        wrong = hyp != reference.frames
        total_errors = int(np.count_nonzero(wrong))
        errors = (reference.membership @ np.bincount(
            reference.frames[wrong], minlength=len(reference.symbols))).tolist()
        records.append(EvalRecord(
            subset_label=subset.label,
            seed=seed,
            config_hash=config_hash,
            corpus_hash=corpus_hash,
            wer=reference.edits(hyp) / reference.total_tokens,
            per_total=total_errors / hyp.size,
            per_category=category_report(hyp.size, total_errors, reference.category_names,
                                         reference.category_counts, errors, threshold),
        ))
    return records


# --- model files -------------------------------------------------------------

def model_hash(params: ModelParams) -> str:
    return hashlib.sha256(payload_bytes(_flat(params))).hexdigest()


def save_model(params: ModelParams, header_path: Path, seed: int = 0, config_hash: str = "",
               provenance: Mapping | None = None) -> str:
    """Write manifest + payload; returns the payload hash."""
    digest = model_hash(params)
    manifest = {
        "format_version": MODEL_FORMAT_VERSION,
        "tool_version": __version__,
        "layers": {key: getattr(params, key)
                   for key in ("channels", "window", "features", "classes")},
        "class_symbols": list(params.class_symbols),
        "seed": seed,
        "config_hash": config_hash,
        "payload_sha256": digest,
        "provenance": dict(provenance) if provenance else None,
    }
    write_artefact(header_path, manifest, payload_bytes(_flat(params)), indent=2)
    return digest


def _manifest_shapes(manifest: dict) -> tuple[tuple[int, ...], ...]:
    """The parameter shapes a model manifest describes."""
    layers, symbols = manifest["layers"], manifest["class_symbols"]
    if not isinstance(layers, dict):
        raise ValueError("key 'layers' must hold a JSON object")
    for key in ("channels", "window", "features"):
        if key not in layers:
            raise ValueError(f"has no 'layers.{key}' key")
        positive_int(layers[key], f"layers.{key}")
    if not isinstance(symbols, list) or not all(isinstance(s, str) for s in symbols):
        raise ValueError(f"key 'class_symbols' must be a list of strings, got {symbols!r}")
    return _layer_shapes(layers["channels"], layers["window"], layers["features"], len(symbols))


def load_model(header_path: Path) -> tuple[ModelParams, dict]:
    manifest = read_json(header_path, "model manifest",
                         ("format_version", "layers", "class_symbols", "payload_sha256"))
    with naming("model manifest", header_path):
        check_format_version(manifest, MODEL_FORMAT_VERSION)
        shapes = _manifest_shapes(manifest)
        payload = read_payload(header_path, sum(map(math.prod, shapes)))
        if hashlib.sha256(payload).hexdigest() != manifest["payload_sha256"]:
            raise ValueError("payload fails its integrity check")
        layers, arrays = manifest["layers"], _views(np.frombuffer(payload, dtype="<f8"), shapes)
        return ModelParams(**dict(zip(_ARRAYS, arrays)), channels=layers["channels"],
                           window=layers["window"], features=layers["features"],
                           class_symbols=tuple(manifest["class_symbols"])), manifest
