import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansel import model
from chansel.corpus import Corpus, LabeledSequence
from chansel.metrics import (
    category_per,
    collapse_frame_labels,
    edit_distance,
)
from chansel.model import (
    DROPOUT_PRESETS,
    ModelParams,
    TrainConfig,
    TrainingDivergedError,
    evaluate,
    forward,
    init_params,
    load_model,
    model_hash,
    predict_labels,
    save_model,
    slice_input_channels,
    subset_columns,
    train,
    _loss_and_grads,
    featurize,
)
from chansel.signals import ChannelSubset, MultichannelSignal, draw_channel_mask, restrict_to_subset
from util import gradient_check, make_sequence, phoneme_error_rate


def _hand_params() -> ModelParams:
    # 2 channels, window 1, 2 features, 2 classes: small enough to trace by hand
    return ModelParams(
        input_weights=np.array([[1.0, -1.0], [0.5, 2.0]]),
        input_bias=np.array([0.1, -0.2]),
        head_weights=np.array([[1.0, 0.0], [-1.0, 1.0]]),
        head_bias=np.array([0.0, 0.5]),
        channels=2,
        window=1,
        features=2,
        class_symbols=("B", "IY"),
    )


def _sign_corpus(n_utts: int = 8, frames: int = 12, seed: int = 0) -> Corpus:
    """Linearly separable toy set: class A rides at +1, class B at -1."""
    rng = np.random.default_rng(seed)
    seqs = []
    for _ in range(n_utts):
        labels, values = [], []
        for _ in range(frames):
            label, level = ("B", 1.0) if rng.random() < 0.5 else ("T", -1.0)
            labels.append(label)
            values.append(level + 0.05 * rng.normal())
        seqs.append(LabeledSequence(MultichannelSignal(np.array([values])), labels))
    return Corpus(tuple(seqs))


class TestForward:
    def test_hand_computed_scores(self):
        params = _hand_params()
        x = MultichannelSignal(np.array([[0.3], [0.7]]))
        scores = forward(params, x)
        # scalar arithmetic, done independently of the matmul path
        a0 = 1.0 * 0.3 + (-1.0) * 0.7 + 0.1
        a1 = 0.5 * 0.3 + 2.0 * 0.7 + (-0.2)
        h0, h1 = math.tanh(a0), math.tanh(a1)
        expected = [h0 * 1.0 + 0.0, h0 * -1.0 + h1 * 1.0 + 0.5]
        assert scores.shape == (1, 2)
        assert np.allclose(scores[0], expected, atol=1e-15)

    def test_zero_input_gives_bias_only_scores(self):
        params = init_params(3, 5, 8, ("A", "B", "C"), seed=1)
        x = MultichannelSignal(np.zeros((3, 7)))
        scores = forward(params, x)
        h = np.tanh(params.input_bias)
        expected = h @ params.head_weights.T + params.head_bias
        assert np.allclose(scores, np.tile(expected, (7, 1)), atol=1e-15)

    def test_channel_count_mismatch_rejected(self):
        params = init_params(3, 5, 8, ("A", "B"), seed=1)
        with pytest.raises(ValueError, match="channels"):
            forward(params, MultichannelSignal(np.zeros((2, 4))))

    def test_one_score_vector_per_frame(self):
        params = init_params(2, 9, 4, ("A", "B", "C"), seed=0)
        rng = np.random.default_rng(0)
        scores = forward(params, MultichannelSignal(rng.normal(size=(2, 31))))
        assert scores.shape == (31, 3)


class TestFeaturize:
    def test_window_one_is_transpose(self):
        x = np.arange(6.0).reshape(2, 3)
        assert np.array_equal(featurize(x, 1), x.T)

    def test_column_blocks_belong_to_channels(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(3, 10))
        w = 5
        xw = featurize(x, w)
        assert xw.shape == (10, 15)
        # zeroing channel 1 must zero exactly columns [w, 2w)
        x2 = x.copy()
        x2[1] = 0.0
        xw2 = featurize(x2, w)
        assert np.array_equal(xw2[:, :w], xw[:, :w])
        assert np.all(xw2[:, w:2 * w] == 0.0)
        assert np.array_equal(xw2[:, 2 * w:], xw[:, 2 * w:])

    def test_centered_window_content(self):
        x = np.array([[1.0, 2.0, 3.0, 4.0]])
        xw = featurize(x, 3)
        assert np.array_equal(xw[0], [0.0, 1.0, 2.0])  # left edge zero-padded
        assert np.array_equal(xw[2], [2.0, 3.0, 4.0])
        assert np.array_equal(xw[3], [3.0, 4.0, 0.0])


    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=60)
    def test_subset_columns_equal_restricted_windows(self, seed, channels, window):
        # odd and even windows pad asymmetrically; the column blocks must
        # still be exactly the subset-restricted signal's windows
        rng = np.random.default_rng(seed)
        x = MultichannelSignal(rng.normal(size=(channels, int(rng.integers(1, 12)))))
        size = int(rng.integers(1, channels + 1))
        subset = ChannelSubset(
            tuple(sorted(rng.choice(channels, size=size, replace=False).tolist())))
        sliced = featurize(x.samples, window)[:, subset_columns(subset, window)]
        restricted = featurize(restrict_to_subset(x, subset).samples, window)
        assert np.array_equal(sliced, restricted)


class TestSlice:
    def test_full_subset_is_identity(self):
        params = init_params(4, 3, 6, ("A", "B"), seed=5)
        sliced = slice_input_channels(params, ChannelSubset.full(4))
        assert np.array_equal(sliced.input_weights, params.input_weights)
        assert model_hash(sliced) == model_hash(params)

    def test_column_count_halves(self):
        params = init_params(8, 9, 16, ("A", "B"), seed=5)
        sliced = slice_input_channels(params, ChannelSubset((0, 2, 4, 5)))
        assert sliced.input_weights.shape[1] == params.input_weights.shape[1] // 2
        assert sliced.channels == 4
        assert np.array_equal(sliced.head_weights, params.head_weights)

    def test_out_of_range_subset_rejected(self):
        params = init_params(3, 3, 4, ("A", "B"), seed=0)
        with pytest.raises(ValueError, match="channel 5"):
            slice_input_channels(params, ChannelSubset((0, 5)))


class TestTrain:
    def test_separable_set_reaches_high_accuracy(self):
        corpus = _sign_corpus()
        params = init_params(1, 1, 4, ("B", "T"), seed=0)
        result = train(params, corpus, TrainConfig(learning_rate=1.0, epochs=40,
                                                   batch_size=4, seed=0))
        correct = total = 0
        for seq in corpus:
            pred = predict_labels(result.params, seq.signal)
            correct += sum(p == r for p, r in zip(pred, seq.labels))
            total += len(seq.labels)
        assert correct / total >= 0.99

    def test_final_loss_not_above_initial(self):
        corpus = _sign_corpus()
        params = init_params(1, 1, 4, ("B", "T"), seed=1)
        result = train(params, corpus, TrainConfig(learning_rate=0.5, epochs=10,
                                                   batch_size=4, seed=1))
        assert result.final_loss <= result.initial_loss

    def test_smoothed_loss_trend_non_increasing(self):
        corpus = _sign_corpus(n_utts=12)
        params = init_params(1, 1, 4, ("B", "T"), seed=2)
        result = train(params, corpus, TrainConfig(learning_rate=0.5, epochs=25,
                                                   batch_size=4, seed=2))
        smooth = np.convolve(result.epoch_losses, np.ones(5) / 5, mode="valid")
        assert np.all(np.diff(smooth) <= 1e-6)

    def test_p_one_touches_only_biases_and_head(self):
        corpus = _sign_corpus()
        params = init_params(1, 1, 4, ("B", "T"), seed=3)
        result = train(params, corpus, TrainConfig(learning_rate=0.5, epochs=3,
                                                   batch_size=4, dropout_p=1.0, seed=3))
        assert np.array_equal(result.params.input_weights, params.input_weights)
        assert not np.array_equal(result.params.head_bias, params.head_bias)
        assert result.mean_retained_channels == 0.0

    def test_same_seed_is_bit_identical(self):
        corpus = _sign_corpus()
        cfg = TrainConfig(learning_rate=0.5, epochs=5, batch_size=4, dropout_p=0.25, seed=11)
        runs = [train(init_params(1, 1, 4, ("B", "T"), seed=4), corpus, cfg) for _ in range(2)]
        assert model_hash(runs[0].params) == model_hash(runs[1].params)
        assert runs[0].epoch_losses == runs[1].epoch_losses

    def test_dropout_changes_trajectory(self):
        corpus = _sign_corpus()
        base = init_params(1, 1, 4, ("B", "T"), seed=4)
        plain = train(base, corpus, TrainConfig(epochs=3, batch_size=4, seed=5))
        masked = train(base, corpus, TrainConfig(epochs=3, batch_size=4,
                                                 dropout_p=0.25, seed=5))
        assert model_hash(plain.params) != model_hash(masked.params)

    def test_mean_retained_channels_tracks_keep_rate(self):
        # 8 channels at p=0.125 keep 7 on average; 300 draws pin it tightly
        rng = np.random.default_rng(3)
        seqs = tuple(
            LabeledSequence(MultichannelSignal(rng.normal(size=(8, 4))), ["B", "B", "T", "T"])
            for _ in range(30)
        )
        params = init_params(8, 1, 4, ("B", "T"), seed=0)
        result = train(params, Corpus(seqs), TrainConfig(
            learning_rate=0.1, epochs=10, batch_size=8, dropout_p=0.125, seed=0))
        assert abs(result.mean_retained_channels - 7.0) < 0.2

    @pytest.mark.parametrize("seed, kept", [(14, [1, 0, 0]), (10, [1, 1, 0]), (11, [0, 1, 1])])
    def test_dropout_freezes_only_the_columns_of_channels_the_batch_dropped(
            self, tiny_corpus, seed, kept):
        # one batch, one epoch: the masks drawn after the batch order keep
        # ``kept``'s channels in some utterance; the caller's windows stay as they were
        sequences = tiny_corpus.sequences[:4]
        xw_all = [featurize(seq.signal.samples, 5) for seq in sequences]
        before = [xw.tobytes() for xw in xw_all]
        params = init_params(3, 5, 8, tiny_corpus.label_alphabet(), seed=0)
        cfg = TrainConfig(learning_rate=0.5, epochs=1, batch_size=4, dropout_p=0.5, seed=seed)
        rng = np.random.default_rng(seed)
        rng.permutation(4)
        bits = np.array([draw_channel_mask(3, 0.5, rng) for _ in sequences])
        assert bits.any(axis=0).tolist() == kept
        [(trained, _)], retained = model.fit_windows([params], model._all_channels(params), xw_all,
            model.label_indices(sequences, params.class_symbols), cfg)
        assert retained == bits.sum() / 4 and [xw.tobytes() for xw in xw_all] == before
        for channel in range(3):
            cols = subset_columns(ChannelSubset((channel,)), 5)
            assert np.array_equal(trained.input_weights[:, cols],
                                  params.input_weights[:, cols]) != kept[channel], channel

    def test_divergence_raises_with_batch_location(self):
        # conflicting labels keep gradients nonzero, so an absurd step size
        # drives the weights to inf and the loss to nan; numpy warns of none
        # of it
        params = init_params(1, 1, 4, ("B", "T"), seed=6)
        with pytest.raises(TrainingDivergedError, match="epoch"):
            train(params, Corpus(_conflicting_sequences()),
                  TrainConfig(learning_rate=1e308, epochs=10, batch_size=2, seed=6))

    @pytest.mark.parametrize("learning_rate", [0.5, 1e308])
    def test_fit_restores_the_callers_error_state(self, learning_rate):
        # under the caller's "raise", a diverging fit still returns its
        # error, and the caller's setting holds again once the fit returns
        seqs = _conflicting_sequences()
        params = init_params(1, 1, 4, ("B", "T"), seed=6)
        xw_all = [featurize(seq.signal.samples, 1) for seq in seqs]
        y_all = model.label_indices(seqs, params.class_symbols)
        cfg = TrainConfig(learning_rate=learning_rate, epochs=10, batch_size=2, seed=6)
        with np.errstate(over="raise", invalid="raise", divide="print", under="warn"):
            before = np.geterr()
            [outcome], _ = model.fit_windows([params], model._all_channels(params), xw_all,
                                             y_all, cfg)
            assert np.geterr() == before
        assert isinstance(outcome, TrainingDivergedError) == (learning_rate == 1e308)

    @pytest.mark.parametrize("channels", [[[0]], [[0], [1]]], ids=["one-model", "two-model"])
    def test_a_parameter_left_non_finite_by_the_last_step_is_refused(self, channels):
        # zero weights leave only the head bias a gradient: with labels 9:1
        # and equal logits it is (-0.4, 0.4), so the one step's loss is
        # finite but the step lifts the first bias past the float range
        params = ModelParams(
            input_weights=np.zeros((1, 1)), input_bias=np.zeros(1),
            head_weights=np.zeros((2, 1)), head_bias=np.full(2, 1.5e308),
            channels=1, window=1, features=1, class_symbols=("B", "T"),
        )
        xw_all = [np.ones((10, 2))]
        y_all = [np.array([0] * 9 + [1])]
        cfg = TrainConfig(learning_rate=1e308, epochs=1, batch_size=1, seed=0)
        outcomes, _ = model.fit_windows([params] * len(channels), np.array(channels), xw_all,
                                        y_all, cfg)
        assert [(type(o), str(o)) for o in outcomes] == (
            [(ValueError, "head_bias contains NaN or Inf")] * len(channels))

    def test_empty_corpus_rejected(self):
        params = init_params(1, 1, 4, ("B", "T"), seed=0)
        with pytest.raises(ValueError, match="empty"):
            train(params, [], TrainConfig(epochs=1))

    def test_presets_documented(self):
        assert DROPOUT_PRESETS == (0.0, 0.125, 0.25)

    def test_config_validation(self):
        for bad in (dict(learning_rate=0.0), dict(learning_rate=math.inf),
                    dict(learning_rate=math.nan), dict(epochs=0), dict(batch_size=0),
                    dict(dropout_p=1.5)):
            with pytest.raises(ValueError):
                TrainConfig(**bad)


def _conflicting_sequences() -> tuple[LabeledSequence, ...]:
    """Four one-channel utterances of constant signal whose labels
    alternate, so no model fits them and the gradients never vanish."""
    return tuple(LabeledSequence(MultichannelSignal(np.ones((1, 4))), ["B", "T", "B", "T"])
                 for _ in range(4))


def _reference_loss_and_grads(w1, b1, w2, b2, xw, y):
    """The allocating textbook formula the in-place step must match bit for bit."""
    n = xw.shape[0]
    h = np.tanh(xw @ w1.T + b1)
    scores = h @ w2.T + b2
    z = scores - scores.max(axis=1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=1, keepdims=True)
    p_true = np.clip(p[np.arange(n), y], model.LOG_CLAMP, None)
    loss = float(-np.mean(np.log(p_true)))
    g = p.copy()
    g[np.arange(n), y] -= 1.0
    g /= n
    gw2 = g.T @ h
    gb2 = g.sum(axis=0)
    dh = g @ w2
    da = dh * (1.0 - h * h)
    gw1 = da.T @ xw
    gb1 = da.sum(axis=0)
    return loss, (gw1, gb1, gw2, gb2)


def _reference_fit(params, xw_all, y_all, cfg):
    """The textbook training loop the flat-buffer step must match bit for
    bit: the allocating formula above, then an update array by array."""
    arrays = [params.input_weights.copy(), params.input_bias.copy(),
              params.head_weights.copy(), params.head_bias.copy()]
    rng = np.random.default_rng(cfg.seed)
    n = len(xw_all)
    epoch_losses = []
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        batch_losses = []
        for start in range(0, n, cfg.batch_size):
            ids = order[start:start + cfg.batch_size]
            xs = []
            for i in ids:
                if cfg.dropout_p > 0.0:
                    mask = model.draw_channel_mask(params.channels, cfg.dropout_p, rng)
                    col = np.repeat(mask, params.window)
                    xs.append(xw_all[i] * col)
                else:
                    xs.append(xw_all[i])
            loss, grads = _reference_loss_and_grads(
                *arrays, np.vstack(xs), np.concatenate([y_all[i] for i in ids]))
            for weights, grad in zip(arrays, grads):
                weights -= cfg.learning_rate * grad
            batch_losses.append(loss)
        epoch_losses.append(float(np.mean(batch_losses)))
    return arrays, tuple(epoch_losses)


def _grad_buffers(arrays):
    """Gradient buffers of a one-model stack."""
    return [np.empty((1, *a.shape)) for a in arrays]


def _one_model_step(arrays, xw, y, grads):
    """``_loss_and_grads`` on a one-model stack; its one loss."""
    features, classes = arrays[1].size, arrays[3].size
    work = model._frame_buffers(len(xw), 1, features, classes, features)
    [loss] = _loss_and_grads(*(a[None] for a in arrays), xw[:, None], y, grads, *work)
    return loss


class TestInPlaceStep:
    # (rows, channels * window, features, classes): the benchmark's batch of
    # two utterances on a 4-of-8 subset, and the default config's batch of
    # 16 utterances on a 4-channel subset
    SHAPES = [(176, 4 * 5, 32, 7), (2900, 4 * 9, 32, 13)]

    @pytest.mark.parametrize("rows,cols,features,classes", SHAPES)
    def test_equal_to_reference_to_the_bit(self, rows, cols, features, classes):
        for seed in range(3):
            rng = np.random.default_rng(seed)
            params = init_params(cols, 1, features, [str(i) for i in range(classes)], seed)
            arrays = [params.input_weights, params.input_bias,
                      params.head_weights, params.head_bias]
            xw = rng.normal(size=(rows, cols))
            y = rng.integers(0, classes, size=rows)
            grads = _grad_buffers(arrays)
            loss = _one_model_step(arrays, xw, y, grads)
            ref_loss, ref_grads = _reference_loss_and_grads(*arrays, xw, y)
            assert loss == ref_loss
            for g, ref in zip(grads, ref_grads):
                assert g.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_whole_training_run_equals_reference(self, tiny_corpus, dropout_p):
        xw_all = [featurize(seq.signal.samples, 5) for seq in tiny_corpus]
        y_all = model.label_indices(tiny_corpus.sequences, tiny_corpus.label_alphabet())
        for seed in range(3):
            params = init_params(3, 5, 8, tiny_corpus.label_alphabet(), seed=seed)
            cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=4,
                              dropout_p=dropout_p, seed=seed + 10)
            [(trained, losses)], _ = model.fit_windows([params], model._all_channels(params),
                                                       xw_all, y_all, cfg)
            ref_arrays, ref_losses = _reference_fit(params, xw_all, y_all, cfg)
            assert losses == ref_losses
            for name, ref in zip(model._ARRAYS, ref_arrays):
                assert getattr(trained, name).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("dropout_p, per_slot_starts", [
        (0.0, False), (0.25, False), (0.0, True), (0.25, True),
    ], ids=["0.0", "0.25", "0.0-sliced-starts", "0.25-sliced-starts"])
    def test_each_model_of_a_stack_equals_its_reference_run(self, tiny_corpus, dropout_p,
                                                            per_slot_starts):
        # three 2-of-3 channel subsets, from one start or each from its own
        # slice of one 3-channel model: each slot of the stack trains
        # exactly as the textbook loop from its own start on its own columns
        xw_all = [featurize(seq.signal.samples, 5) for seq in tiny_corpus]
        y_all = model.label_indices(tiny_corpus.sequences, tiny_corpus.label_alphabet())
        subsets = [ChannelSubset(pair) for pair in ((0, 1), (0, 2), (1, 2))]
        channels = np.array([s.indices for s in subsets])
        if per_slot_starts:
            full = init_params(3, 5, 8, tiny_corpus.label_alphabet(), seed=3)
            starts = [slice_input_channels(full, subset) for subset in subsets]
        else:
            starts = [init_params(2, 5, 8, tiny_corpus.label_alphabet(), seed=3)] * 3
        cfg = TrainConfig(learning_rate=0.5, epochs=4, batch_size=4, dropout_p=dropout_p,
                          seed=11)
        outcomes, retained = model.fit_windows(starts, channels, xw_all, y_all, cfg)
        assert len(outcomes) == 3
        for subset, start, (trained, losses) in zip(subsets, starts, outcomes):
            cols = subset_columns(subset, 5)
            ref_arrays, ref_losses = _reference_fit(start, [xw[:, cols] for xw in xw_all],
                                                    y_all, cfg)
            assert losses == ref_losses
            for name, ref in zip(model._ARRAYS, ref_arrays):
                assert getattr(trained, name).tobytes() == ref.tobytes()
        assert retained == model.fit_windows(starts[:1], channels[:1], xw_all, y_all, cfg)[1]


class TestGradientCheck:
    def test_confident_correct_predictions_have_tiny_gradients(self):
        # saturate the head toward the right answers: gradients go to ~0
        seq = make_sequence(["B", "B", "B", "B"], channels=1, seed=1)
        params = ModelParams(
            input_weights=np.zeros((2, 1)),
            input_bias=np.array([1.0, -1.0]),
            head_weights=np.array([[40.0, -40.0], [-40.0, 40.0]]),
            head_bias=np.zeros(2),
            channels=1, window=1, features=2, class_symbols=("B", "T"),
        )
        xw = featurize(seq.signal.samples, 1)
        y = np.zeros(4, dtype=np.int64)
        arrays = [params.input_weights, params.input_bias,
                  params.head_weights, params.head_bias]
        grads = _grad_buffers(arrays)
        loss = _one_model_step(arrays, xw, y, grads)
        assert loss < 1e-6
        assert all(np.max(np.abs(g)) < 1e-6 for g in grads)

    def test_empty_batch_rejected(self):
        params = init_params(1, 1, 2, ("A", "B"), seed=0)
        with pytest.raises(ValueError, match="non-empty"):
            gradient_check(params, [])

    def test_channel_mismatch_rejected(self):
        batch = [make_sequence(["B", "IY", "B", "T"], channels=2, seed=0)]
        params = init_params(3, 3, 6, ("B", "IY", "T"), seed=0)
        with pytest.raises(ValueError, match="signal has 2 channels, model expects 3"):
            gradient_check(params, batch)

    def test_returns_a_python_float(self):
        batch = [make_sequence(["B", "IY", "B", "T"], channels=2, seed=1)]
        params = init_params(2, 3, 6, ("B", "IY", "T"), seed=1)
        assert type(gradient_check(params, batch, n_coords=10)) is float


def _one_hot_params(class_symbols) -> ModelParams:
    # channel k carries class k: an utterance whose frame t is 1 on channel
    # k and 0 elsewhere is predicted as class k at frame t
    k = len(class_symbols)
    return ModelParams(input_weights=np.eye(k), input_bias=np.zeros(k),
                       head_weights=10.0 * np.eye(k), head_bias=np.zeros(k),
                       channels=k, window=1, features=k, class_symbols=tuple(class_symbols))


def _utterance(labels, hyp, classes: int) -> LabeledSequence:
    samples = np.zeros((classes, len(labels)))
    samples[hyp, np.arange(len(labels))] = 1.0
    return LabeledSequence(MultichannelSignal(samples), labels)


def _string_score(params, sequences, table, threshold):
    """The string scorer: per-frame symbol tuples through the ``metrics``
    functions, raising what the split cannot be scored for in the order the
    integer scorer must keep."""
    ref_frames, hyp_frames = [], []
    edits = tokens = 0
    for seq in sequences:
        hyp = predict_labels(params, seq.signal)
        ref_frames.extend(seq.labels)
        hyp_frames.extend(hyp)
        edits += edit_distance(seq.transcript, collapse_frame_labels(hyp))
        tokens += len(seq.transcript)
    if tokens == 0:
        raise ValueError("corpus reference transcripts are empty; WER undefined")
    per_total = phoneme_error_rate(ref_frames, hyp_frames)
    return edits / tokens, per_total, category_per(ref_frames, hyp_frames, table, threshold)


class TestScoringMatchesMetrics:
    # model classes may repeat a symbol, or spell a two-phoneme word ("B·IY");
    # reference labels may be outside the model classes (always an error) or
    # outside the taxonomy (QQ, a ValueError)
    CLASSES = ("SIL", "B", "IY", "T", "AE", "B·IY", "B")
    LABELS = ("SIL", "B", "IY", "T", "AE", "M")

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_record_equals_string_reference(self, table, data):
        classes = data.draw(st.lists(st.sampled_from(self.CLASSES), min_size=2, max_size=6))
        labels = st.sampled_from(self.LABELS + (("QQ",) if data.draw(st.booleans()) else ()))
        utterances = []
        for _ in range(data.draw(st.integers(1, 4))):
            if data.draw(st.booleans()):  # all silence: an empty transcript
                ref = ["SIL"] * data.draw(st.integers(1, 8))
            else:
                ref = data.draw(st.lists(labels, min_size=1, max_size=30))
            # per frame: the right class when the model has it, or any class,
            # so hypotheses both match and flicker
            hyp = [classes.index(lab) if lab in classes and keep else other
                   for lab, keep, other in zip(ref, data.draw(st.lists(
                       st.booleans(), min_size=len(ref), max_size=len(ref))), data.draw(
                       st.lists(st.integers(0, len(classes) - 1), min_size=len(ref),
                                max_size=len(ref))))]
            utterances.append(_utterance(ref, hyp, len(classes)))
        frames = [lab for seq in utterances for lab in seq.labels]
        counts = {len(frames)} | {sum(lab in table.category_members(name) for lab in frames
                                      if lab in table) for name in table.names}
        threshold = data.draw(st.one_of(
            st.sampled_from(sorted(c + d for c in counts for d in (-1, 0, 1))),
            st.integers(-1, len(frames) + 1)))
        params = _one_hot_params(classes)
        try:
            wer, per_total, report = _string_score(params, utterances, table, threshold)
        except (ValueError, KeyError) as exc:
            with pytest.raises(type(exc)) as caught:
                evaluate(params, utterances, table, threshold=threshold)
            assert str(caught.value) == str(exc)
            return
        record = evaluate(params, utterances, table, threshold=threshold, seed=3,
                          config_hash="c", corpus_hash="d")
        assert (record.wer, record.per_total, record.per_category) == (wer, per_total, report)
        assert (record.subset_label, record.seed, record.config_hash, record.corpus_hash,
                record.n_seeds) == (ChannelSubset.full(len(classes)).label, 3, "c", "d", 1)

    @pytest.mark.parametrize("classes,hyp,wer", [
        (("SIL", "B", "IY", "B·IY"), [0, 3, 3, 0, 1, 1, 0], 0.0),  # one word spelled two ways
        (("SIL", "B", "IY", "B"), [0, 1, 2, 0, 3, 1, 0], 0.0),  # one symbol, two classes
    ])
    def test_tokens_compare_by_text(self, table, classes, hyp, wer):
        labels = ["SIL", "B", "IY", "SIL", "B", "B", "SIL"]
        utterance = _utterance(labels, hyp, len(classes))
        params = _one_hot_params(classes)
        assert _string_score(params, [utterance], table, 1)[0] == wer
        assert evaluate(params, [utterance], table, threshold=1).wer == wer

    @pytest.mark.parametrize("labels,threshold,error,message", [
        (["SIL", "SIL"], 1, ValueError, "corpus reference transcripts are empty; WER undefined"),
        (["SIL", "SIL"], 0, ValueError, "corpus reference transcripts are empty; WER undefined"),
        (["B", "QQ", "SIL"], 0, ValueError, "threshold must be >= 1, got 0"),
        (["B", "QQ", "T", "QZ"], 1, ValueError,
         "reference label 'QQ' not in the phoneme inventory"),
    ])
    def test_errors_keep_type_text_and_order(self, table, labels, threshold, error, message):
        params = _one_hot_params(("SIL", "B", "T"))
        utterance = _utterance(labels, [0] * len(labels), 3)
        with pytest.raises(error) as caught:
            evaluate(params, [utterance], table, threshold=threshold)
        assert str(caught.value) == message


class TestEvaluate:
    def _perfect_params(self) -> ModelParams:
        # single channel: +1 frames are "B", -1 frames are "T"
        return ModelParams(
            input_weights=np.array([[1.0]]),
            input_bias=np.array([0.0]),
            head_weights=np.array([[10.0], [-10.0]]),
            head_bias=np.array([0.0, 0.0]),
            channels=1, window=1, features=1, class_symbols=("B", "T"),
        )

    def _two_class_corpus(self) -> Corpus:
        seqs = []
        for labels in (["B", "B", "T", "T"], ["T", "T", "B", "B"], ["B", "T", "B", "T"]):
            values = [1.0 if lab == "B" else -1.0 for lab in labels]
            seqs.append(LabeledSequence(MultichannelSignal(np.array([values])), labels))
        return Corpus(tuple(seqs))

    def test_perfect_model_scores_zero(self, table):
        record = evaluate(self._perfect_params(), self._two_class_corpus(), table,
                          threshold=1)
        assert record.wer == 0.0
        assert record.per_total == 0.0
        assert record.subset_label == "1"

    def test_constant_prediction_per_is_one_minus_max_prior(self, table):
        corpus = self._two_class_corpus()
        always_b = ModelParams(
            input_weights=np.zeros((1, 1)),
            input_bias=np.zeros(1),
            head_weights=np.zeros((2, 1)),
            head_bias=np.array([5.0, 0.0]),
            channels=1, window=1, features=1, class_symbols=("B", "T"),
        )
        labels = [lab for seq in corpus for lab in seq.labels]
        prior_b = labels.count("B") / len(labels)
        record = evaluate(always_b, corpus, table, threshold=1)
        assert record.per_total == pytest.approx(1 - max(prior_b, 1 - prior_b), abs=1e-12)

    def test_channel_mismatch_rejected(self, table, tiny_corpus):
        params = init_params(2, 3, 4, tiny_corpus.label_alphabet(), seed=0)
        with pytest.raises(ValueError, match="channels"):
            evaluate(params, tiny_corpus, table)

    def test_empty_corpus_rejected(self, table):
        with pytest.raises(ValueError, match="evaluation corpus is empty"):
            evaluate(self._perfect_params(), [], table)

    def test_score_windows_refuses_a_reference_for_other_classes(self, table):
        params, corpus = self._perfect_params(), self._two_class_corpus()
        xw_all = [featurize(seq.signal.samples, 1) for seq in corpus]
        reference = model.ScoringReference(corpus, ("T", "B"), table)
        with pytest.raises(ValueError) as caught:
            model.score_windows([params], [ChannelSubset.full(1)], model._all_channels(params),
                                xw_all, reference)
        assert str(caught.value) == ("model classes ('B', 'T') differ from the "
                                     "reference's ('T', 'B')")

    def test_score_windows_refuses_windows_of_other_frame_counts(self, table):
        params, corpus = self._perfect_params(), self._two_class_corpus()
        xw_all = [featurize(seq.signal.samples, 1) for seq in corpus]
        reference = model.ScoringReference(corpus, params.class_symbols, table)
        with pytest.raises(ValueError) as caught:
            model.score_windows([params], [ChannelSubset.full(1)], model._all_channels(params),
                                [*xw_all[:2], xw_all[2][:3]], reference)
        assert str(caught.value) == "windows of [4, 4, 3] frames, the reference has [4, 4, 4]"

    def test_fit_and_score_refuse_a_channel_the_windows_lack(self, table):
        params, corpus = self._perfect_params(), self._two_class_corpus()
        xw_all = [np.hstack([xw, xw]) for xw in (featurize(seq.signal.samples, 1)
                                                  for seq in corpus)]
        y_all = model.label_indices(corpus.sequences, params.class_symbols)
        reference = model.ScoringReference(corpus, params.class_symbols, table)
        channels = np.array([[5]])
        with pytest.raises(IndexError) as fitting:
            model.fit_windows([params], channels, xw_all, y_all, TrainConfig(epochs=1))
        with pytest.raises(IndexError) as scoring:
            model.score_windows([params], [ChannelSubset((5,))], channels, xw_all, reference)
        assert str(fitting.value) == str(scoring.value) == "channel 5 of windows with 2 channels"

    def test_record_round_trips_through_dict(self, table, tiny_corpus):
        params = init_params(3, 3, 4, tiny_corpus.label_alphabet(), seed=0)
        record = evaluate(params, tiny_corpus, table, threshold=10, seed=2,
                          config_hash="c", corpus_hash="d")
        from chansel.model import EvalRecord

        back = EvalRecord.from_dict(record.to_dict())
        assert back == record
        with pytest.raises(ValueError, match="unknown metric 'foo'"):
            record.metric("foo")


class TestModelFiles:
    def test_round_trip_is_exact(self, tmp_path):
        params = init_params(4, 5, 8, ("A", "B", "C"), seed=13)
        path = tmp_path / "model.json"
        digest = save_model(params, path, seed=13, config_hash="abc")
        back, manifest = load_model(path)
        assert model_hash(back) == model_hash(params) == digest
        assert np.array_equal(back.input_weights, params.input_weights)
        assert back.class_symbols == params.class_symbols
        assert manifest["seed"] == 13
        assert manifest["config_hash"] == "abc"
        assert manifest["layers"] == {"channels": 4, "window": 5, "features": 8, "classes": 3}

    def test_payload_is_the_init_draws_in_fixed_order(self, tmp_path):
        # reference: the init draws written out by hand, then the payload
        # layout (input_weights, input_bias, head_weights, head_bias), each
        # row-major little-endian float64; a reordered save and load would
        # still round-trip, but not match these bytes
        rng = np.random.default_rng(13)
        a1, a2 = np.sqrt(1.0 / (4 * 5)), np.sqrt(1.0 / 8)
        w1 = rng.uniform(-a1, a1, size=(8, 4 * 5))
        b1 = rng.uniform(-a1, a1, size=8)
        w2 = rng.uniform(-a2, a2, size=(3, 8))
        b2 = rng.uniform(-a2, a2, size=3)
        expected = b"".join(a.astype("<f8").tobytes(order="C") for a in (w1, b1, w2, b2))

        path = tmp_path / "model.json"
        save_model(init_params(4, 5, 8, ("A", "B", "C"), seed=13), path)
        assert (tmp_path / "model.bin").read_bytes() == expected
        back, _ = load_model(path)
        for got, want in ((back.input_weights, w1), (back.input_bias, b1),
                          (back.head_weights, w2), (back.head_bias, b2)):
            assert got.tobytes() == want.tobytes()

    def test_slice_provenance_recorded(self, tmp_path):
        params = init_params(4, 3, 6, ("A", "B"), seed=1)
        parent = save_model(params, tmp_path / "full.json")
        sliced = slice_input_channels(params, ChannelSubset((0, 2)))
        save_model(sliced, tmp_path / "sliced.json",
                   provenance={"parent": parent, "subset": "13"})
        _, manifest = load_model(tmp_path / "sliced.json")
        assert manifest["provenance"] == {"parent": parent, "subset": "13"}

    def test_corrupted_payload_rejected(self, tmp_path):
        params = init_params(2, 3, 4, ("A", "B"), seed=2)
        path = tmp_path / "model.json"
        save_model(params, path)
        payload = bytearray((tmp_path / "model.bin").read_bytes())
        payload[0] ^= 0xFF
        (tmp_path / "model.bin").write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="integrity"):
            load_model(path)


class TestParamsValidation:
    def test_shape_mismatches_rejected(self):
        with pytest.raises(ValueError, match="input_weights"):
            ModelParams(
                input_weights=np.zeros((2, 5)),
                input_bias=np.zeros(2),
                head_weights=np.zeros((2, 2)),
                head_bias=np.zeros(2),
                channels=2, window=2, features=2, class_symbols=("A", "B"),
            )

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            ModelParams(
                input_weights=np.full((1, 2), np.nan),
                input_bias=np.zeros(1),
                head_weights=np.zeros((2, 1)),
                head_bias=np.zeros(2),
                channels=2, window=1, features=1, class_symbols=("A", "B"),
            )

    @pytest.mark.parametrize("sizes", [(0, 3, 4), (2, 0, 4), (2, 3, 0)])
    def test_init_rejects_zero_layer_sizes(self, sizes):
        with pytest.raises(ValueError, match="bad layer sizes"):
            init_params(*sizes, ("A", "B"), seed=0)

    def test_arrays_are_frozen(self):
        params = init_params(2, 2, 3, ("A", "B"), seed=0)
        with pytest.raises(ValueError):
            params.input_weights[0, 0] = 1.0
