import math

import numpy as np
import pytest

from chansel.corpus import Corpus, load_corpus, save_corpus
from chansel.metrics import collapse_frame_labels
from chansel.model import TrainConfig, evaluate, init_params, train
from chansel.phonemes import SILENCE_SYMBOL
from chansel.signals import ChannelSubset
from chansel.synth import GeneratorConfig, generate
from util import complementary_pair_config, make_sequence, planted_importance


def _small_cfg(**overrides) -> GeneratorConfig:
    base = dict(
        channels=3,
        classes=("B", "IY", "T", "AE"),
        weights=(1.0, 0.6, 0.2),
        noise_sigma=0.4,
        frames_per_segment=5,
        segments_per_utterance=3,
        utterances=6,
        seed=42,
    )
    base.update(overrides)
    return GeneratorConfig(**base)


class TestGeneratorConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="weights"):
            _small_cfg(weights=(1.0, 0.5))
        with pytest.raises(ValueError, match="noise_sigma"):
            _small_cfg(noise_sigma=0.0)
        with pytest.raises(ValueError, match="noise_sigma must be finite and > 0, got inf"):
            _small_cfg(noise_sigma=math.inf)
        with pytest.raises(ValueError, match="crosstalk"):
            _small_cfg(crosstalk=1.0)
        with pytest.raises(ValueError, match="classes"):
            _small_cfg(classes=("B",))
        with pytest.raises(ValueError, match="inventory"):
            _small_cfg(classes=("B", "QQ"))
        with pytest.raises(ValueError, match="silence"):
            _small_cfg(classes=("B", SILENCE_SYMBOL))
        with pytest.raises(ValueError, match=r"\[0, 1\]"):
            _small_cfg(weights=(1.0, 0.5, 2.0))
        with pytest.raises(ValueError, match="channels must be >= 1, got 0"):
            _small_cfg(channels=0)
        with pytest.raises(ValueError, match="duplicate class symbols"):
            _small_cfg(classes=("B", "IY", "B"))
        with pytest.raises(ValueError, match="utterances must all be >= 1"):
            _small_cfg(utterances=0)
        with pytest.raises(ValueError, match=r"frames_per_segment \(3\) must be >= the class "
                                             r"count \(4\)"):
            _small_cfg(frames_per_segment=3)
        with pytest.raises(ValueError, match=r"channel_classes index out of range in \(0, 4\)"):
            _small_cfg(channel_classes=((0, 1), (2, 3), (0, 4)))

    def test_dict_round_trip(self):
        cfg = complementary_pair_config(_small_cfg(channels=4, weights=(0.5,) * 4))
        assert GeneratorConfig.from_dict(cfg.to_dict()) == cfg

    def test_integer_weights_are_stored_as_floats(self):
        """A weight of 1 builds the corpus a weight of 1.0 does, whether it
        comes through from_dict or the constructor."""
        floats = _small_cfg(weights=(1.0, 0.0, 1.0), utterances=2)
        from_ints = GeneratorConfig.from_dict({**floats.to_dict(), "weights": [1, 0, 1]})
        built_from_ints = _small_cfg(weights=(1, 0, 1), utterances=2)
        assert from_ints == built_from_ints == floats
        assert all(type(w) is float for w in from_ints.weights + built_from_ints.weights)
        assert (generate(from_ints).content_hash == generate(built_from_ints).content_hash
                == generate(floats).content_hash)


class TestGenerate:
    def test_shapes_and_frame_count(self):
        cfg = _small_cfg()
        corpus = generate(cfg)
        t = (2 * cfg.segments_per_utterance + 1) * cfg.frames_per_segment
        assert len(corpus) == cfg.utterances
        for seq in corpus:
            assert seq.signal.channels == cfg.channels
            assert seq.signal.n_samples == t
            assert len(seq.labels) == t

    def test_deterministic_in_seed(self):
        a = generate(_small_cfg())
        b = generate(_small_cfg())
        assert a.content_hash == b.content_hash
        for sa, sb in zip(a, b):
            assert np.array_equal(sa.signal.samples, sb.signal.samples)
            assert sa.labels == sb.labels

    def test_different_seed_differs(self):
        assert generate(_small_cfg()).content_hash != generate(_small_cfg(seed=43)).content_hash

    def test_transcripts_collapse_from_labels(self):
        corpus = generate(_small_cfg())
        for seq in corpus:
            assert seq.transcript == collapse_frame_labels(seq.labels)
            assert len(seq.transcript) == _small_cfg().segments_per_utterance

    def test_labels_alternate_silence_and_phones(self):
        cfg = _small_cfg()
        seq = generate(cfg).sequences[0]
        f = cfg.frames_per_segment
        for seg in range(2 * cfg.segments_per_utterance + 1):
            block = set(seq.labels[seg * f:(seg + 1) * f])
            assert len(block) == 1
            if seg % 2 == 0:
                assert block == {SILENCE_SYMBOL}
            else:
                assert block <= set(cfg.classes)

    def test_crosstalk_mixes_toward_the_channel_mean(self):
        """Crosstalk moves each channel's clean part toward the cross-channel
        mean, so every utterance's samples change but the per-frame mean
        does not, and the weight-0 channel picks up the others' signal."""
        weights = (1.0, 0.6, 0.0)
        plain = generate(_small_cfg(weights=weights))
        mixed = generate(_small_cfg(weights=weights, crosstalk=0.5))
        assert mixed.content_hash != plain.content_hash
        for a, b in zip(plain, mixed):
            assert a.labels == b.labels
            assert not np.array_equal(a.signal.samples, b.signal.samples)
            assert not np.array_equal(a.signal.samples[2], b.signal.samples[2])
            np.testing.assert_allclose(b.signal.samples.mean(axis=0),
                                       a.signal.samples.mean(axis=0), rtol=0, atol=1e-12)

    def test_zero_weight_channel_is_pure_noise(self):
        cfg = _small_cfg(weights=(1.0, 0.5, 0.0), noise_sigma=0.3, utterances=20)
        corpus = generate(cfg)
        rows = np.concatenate([seq.signal.samples[2] for seq in corpus])
        assert abs(rows.std() - 0.3) < 0.02
        assert abs(rows.mean()) < 0.02


class TestPlantedImportance:
    def test_two_channels(self):
        cfg = _small_cfg(channels=2, weights=(0.9, 0.1))
        assert planted_importance(cfg) == (0, 1)

    def test_ties_break_by_index(self):
        cfg = _small_cfg(weights=(0.5, 0.5, 0.5))
        assert planted_importance(cfg) == (0, 1, 2)

    def test_three_channel_sort(self):
        cfg = _small_cfg(weights=(0.2, 0.9, 0.5))
        assert planted_importance(cfg) == (1, 2, 0)


class TestComplementaryPair:
    def test_requires_four_channels(self):
        with pytest.raises(ValueError, match="4 channels"):
            complementary_pair_config(_small_cfg(channels=3, weights=(1, 1, 1)))

    def test_pair_coverage_partitions_classes(self):
        base = _small_cfg(channels=4, weights=(0.5,) * 4)
        cfg = complementary_pair_config(base, pair=(0, 1))
        k = len(base.classes)
        a, b = cfg.channel_classes[0], cfg.channel_classes[1]
        assert set(a) | set(b) == set(range(k))
        assert set(a) & set(b) == set()
        assert len(a) + len(b) == k
        for c in (2, 3):
            assert cfg.channel_classes[c] == tuple(range(k))
        assert cfg.weights[0] == cfg.weights[1] == 1.0
        assert cfg.weights[2] == base.weights[2]

    def test_pair_channels_silent_outside_their_classes(self):
        base = _small_cfg(channels=4, weights=(0.4,) * 4, noise_sigma=0.05,
                          utterances=30, seed=3)
        cfg = complementary_pair_config(base, pair=(0, 1))
        corpus = generate(cfg)
        half_a = set(cfg.channel_classes[0])
        f = cfg.frames_per_segment
        # channel 0 carries template energy only during its own classes
        for seq in corpus:
            for j in range(cfg.segments_per_utterance):
                off = (2 * j + 1) * f
                k = cfg.classes.index(seq.labels[off])
                block = seq.signal.samples[0, off:off + f]
                rms = np.sqrt(np.mean(block**2))
                if k in half_a:
                    assert rms > 0.3  # weight 1.0 template dominates
                else:
                    assert rms < 0.25  # noise only


class TestCorpusIO:
    def test_round_trip(self, tmp_path):
        corpus = generate(_small_cfg())
        digest = save_corpus(corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")
        assert back.content_hash == corpus.content_hash == digest
        assert back.config == corpus.config
        for a, b in zip(corpus, back):
            assert np.array_equal(a.signal.samples, b.signal.samples)
            assert a.labels == b.labels
            assert a.transcript == b.transcript

    def test_refuses_overwrite_without_force(self, tmp_path):
        corpus = generate(_small_cfg())
        save_corpus(corpus, tmp_path / "corpus")
        with pytest.raises(FileExistsError, match="force"):
            save_corpus(corpus, tmp_path / "corpus")
        save_corpus(corpus, tmp_path / "corpus", force=True)

    def test_force_over_a_larger_corpus_leaves_no_stale_utterances(self, tmp_path):
        directory = tmp_path / "corpus"
        save_corpus(generate(_small_cfg(utterances=6)), directory)
        (directory / "notes.txt").write_text("kept")
        small = generate(_small_cfg(utterances=3))
        save_corpus(small, directory, force=True)
        utterances = [f"utt_{i:05d}{ext}" for i in range(3) for ext in (".bin", ".json")]
        assert sorted(p.name for p in directory.iterdir()) == sorted(
            ["labels.csv", "manifest.json", "notes.txt", *utterances])
        assert load_corpus(directory).content_hash == small.content_hash

    def test_integrity_check_catches_tampering(self, tmp_path):
        corpus = generate(_small_cfg())
        save_corpus(corpus, tmp_path / "corpus")
        target = tmp_path / "corpus" / "utt_00000.bin"
        payload = bytearray(target.read_bytes())
        payload[0] ^= 0x01
        target.write_bytes(bytes(payload))
        with pytest.raises(ValueError, match="integrity"):
            load_corpus(tmp_path / "corpus")


    @pytest.mark.parametrize("row", ["0,1", "0,x,SIL", "99,0,SIL", "-1,0,SIL"],
                             ids=["field-count", "non-integer", "index-too-high", "negative"])
    def test_malformed_label_row_names_file_and_line(self, tmp_path, row):
        corpus = generate(_small_cfg())
        save_corpus(corpus, tmp_path / "corpus")
        labels = tmp_path / "corpus" / "labels.csv"
        lines = labels.read_text().splitlines()
        lines[3] = row
        labels.write_text("\n".join(lines) + "\n")
        with pytest.raises(ValueError) as caught:
            load_corpus(tmp_path / "corpus")
        assert str(caught.value).startswith(f"corpus labels {labels} line 4 reads ")
        assert repr(row) in str(caught.value)


class TestCorpusOps:
    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError, match="corpus must contain at least one sequence"):
            Corpus(())

    def test_restrict_drops_rows_only(self):
        corpus = generate(_small_cfg())
        sub = corpus.restrict(ChannelSubset((0, 2)))
        assert sub.channels == 2
        for a, b in zip(corpus, sub):
            assert np.array_equal(b.signal.samples[1], a.signal.samples[2])
            assert a.labels == b.labels

    def test_split_is_deterministic_head_tail(self):
        corpus = generate(_small_cfg())
        train_c, test_c = corpus.split(0.75)
        assert len(train_c) + len(test_c) == len(corpus)
        assert train_c.sequences[0] is corpus.sequences[0]
        assert test_c.sequences[-1] is corpus.sequences[-1]

    @pytest.mark.parametrize("fraction", [0.0, 1.0])
    def test_split_refuses_a_fraction_that_leaves_a_side_empty(self, fraction):
        message = rf"train_fraction must be in \(0, 1\), got {fraction}"
        with pytest.raises(ValueError, match=message):
            generate(_small_cfg()).split(fraction)

    def test_alphabet_sorts_the_labels_whatever_the_config_order(self):
        corpus = generate(_small_cfg())
        assert corpus.config["classes"] == ["B", "IY", "T", "AE"]
        assert corpus.label_alphabet() == (SILENCE_SYMBOL, "AE", "B", "IY", "T")

    @pytest.mark.parametrize("labels, alphabet", [
        (["T", "B", SILENCE_SYMBOL, "AE"], (SILENCE_SYMBOL, "AE", "B", "T")),
        (["T", "B", "AE", "B"], ("AE", "B", "T")),
    ], ids=["silence-first", "no-silence"])
    def test_alphabet_without_config_sorts_the_labels_present(self, labels, alphabet):
        corpus = Corpus((make_sequence(labels),))
        assert corpus.config is None
        assert corpus.label_alphabet() == alphabet


class TestPlantedSignalIsLearnable:
    def test_single_strong_channel_suffices(self, table):
        # one informative channel, almost no noise: the reference model gets
        # nearly every frame right using that channel alone
        cfg = GeneratorConfig(
            channels=2,
            classes=("B", "IY", "T"),
            weights=(1.0, 0.0),
            noise_sigma=0.05,
            frames_per_segment=6,
            segments_per_utterance=4,
            utterances=30,
            seed=5,
        )
        corpus = generate(cfg)
        train_c, test_c = corpus.split(0.8)
        strong = corpus.restrict(ChannelSubset((0,)))
        train_r, test_r = strong.split(0.8)
        params = init_params(1, 9, 16, corpus.label_alphabet(), seed=0)
        result = train(params, train_r, TrainConfig(learning_rate=0.8, epochs=30,
                                                    batch_size=8, seed=0))
        record = evaluate(result.params, test_r, table, threshold=1)
        assert record.per_total < 0.1

    def test_raising_a_weight_never_hurts_subsets_containing_it(self, table):
        # mean test error over seeds is monotone in the planted weight
        def mean_per(w1: float) -> float:
            pers = []
            for seed in range(4):
                cfg = GeneratorConfig(
                    channels=2,
                    classes=("B", "IY", "T"),
                    weights=(0.4, w1),
                    noise_sigma=0.5,
                    frames_per_segment=6,
                    segments_per_utterance=4,
                    utterances=40,
                    seed=100 + seed,
                )
                corpus = generate(cfg)
                train_c, test_c = corpus.split(0.5)
                params = init_params(2, 5, 16, corpus.label_alphabet(), seed=seed)
                result = train(params, train_c, TrainConfig(learning_rate=0.7, epochs=15,
                                                            batch_size=8, seed=seed))
                pers.append(evaluate(result.params, test_c, table, threshold=1).per_total)
            return sum(pers) / len(pers)

        assert mean_per(0.9) <= mean_per(0.2)

    def test_all_zero_weights_hit_the_prior_floor(self, table):
        # pure noise: the best any classifier can do is predict the majority
        # class, so PER approaches 1 - max prior
        cfg = GeneratorConfig(
            channels=2,
            classes=("B", "IY", "T"),
            weights=(0.0, 0.0),
            noise_sigma=0.5,
            frames_per_segment=5,
            segments_per_utterance=4,
            utterances=30,
            seed=6,
        )
        corpus = generate(cfg)
        train_c, test_c = corpus.split(0.8)
        params = init_params(2, 9, 16, corpus.label_alphabet(), seed=1)
        result = train(params, train_c, TrainConfig(learning_rate=0.8, epochs=20,
                                                    batch_size=8, seed=1))
        record = evaluate(result.params, test_c, table, threshold=1)
        labels = [lab for seq in test_c for lab in seq.labels]
        priors = {lab: labels.count(lab) / len(labels) for lab in set(labels)}
        floor = 1 - max(priors.values())
        assert abs(record.per_total - floor) < 0.08
