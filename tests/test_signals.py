import itertools
import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from chansel.artefacts import payload_bytes
from chansel.corpus import load_corpus, save_corpus
from chansel.signals import (
    ChannelSubset,
    MultichannelSignal,
    draw_channel_mask,
    load_signal,
    parse_subset,
    restrict_to_subset,
    save_signal,
)
from chansel.synth import GeneratorConfig, generate


def _signal(seed: int = 0, channels: int = 4, frames: int = 10) -> MultichannelSignal:
    rng = np.random.default_rng(seed)
    return MultichannelSignal(rng.normal(size=(channels, frames)), sample_rate=100.0)


class TestMultichannelSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN"):
            MultichannelSignal(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="NaN"):
            MultichannelSignal(np.array([[np.inf, 0.0]]))
        with pytest.raises(ValueError, match="NaN"):
            MultichannelSignal(np.array([[0.0], [-np.inf]]))

    def test_accepts_the_largest_finite_values(self):
        # their exponent bits are all ones but the lowest, so the byte scan
        # for NaN and Inf must look past the last byte of each value
        top = np.finfo(np.float64).max
        values = np.array([[top, -top, 1e308, -1e308, 1.5, 0.0, -0.0, 2.0 ** -1074]])
        assert np.array_equal(MultichannelSignal(values).samples, values)

    def test_rejects_empty_and_bad_shapes(self):
        with pytest.raises(ValueError):
            MultichannelSignal(np.zeros((0, 5)))
        with pytest.raises(ValueError):
            MultichannelSignal(np.zeros((3, 0)))
        with pytest.raises(ValueError):
            MultichannelSignal(np.zeros(5))

    def test_is_immutable_and_does_not_alias_input(self):
        src = np.ones((2, 3))
        sig = MultichannelSignal(src)
        src[0, 0] = 99.0
        assert sig.samples[0, 0] == 1.0
        with pytest.raises(ValueError):
            sig.samples[0, 0] = 5.0


class TestChannelSubset:
    def test_parse_paper_label(self):
        # "1356" names channels 1, 3, 5, 6 -> 0-based rows (0, 2, 4, 5)
        assert parse_subset("1356", 8).indices == (0, 2, 4, 5)

    def test_parse_comma_form_and_full_set(self):
        assert parse_subset("1,2,3,4,5,6,7,8", 8) == ChannelSubset.full(8)

    def test_parse_rejects_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            parse_subset("9", 8)

    def test_parse_rejects_zero_and_duplicates_and_empty(self):
        with pytest.raises(ValueError, match="1-based"):
            parse_subset("012", 8)
        with pytest.raises(ValueError, match="duplicate"):
            parse_subset("113", 8)
        with pytest.raises(ValueError, match="empty"):
            parse_subset("  ", 8)
        with pytest.raises(ValueError):
            parse_subset("1a3", 8)

    def test_parse_rejects_a_negative_label(self):
        with pytest.raises(ValueError, match="negative channel label in '1,-2'"):
            parse_subset("1,-2", 4)

    def test_drop_of_a_non_member_rejected(self):
        assert ChannelSubset((0, 2)).drop(2) == ChannelSubset((0,))
        with pytest.raises(ValueError, match="channel 1 not in subset 13"):
            ChannelSubset((0, 2)).drop(1)

    def test_unsorted_input_is_normalised(self):
        assert parse_subset("3156", 8).label == "1356"

    def test_label_uses_commas_past_nine_channels(self):
        s = ChannelSubset((0, 9, 11))
        assert s.label == "1,10,12"
        assert parse_subset(s.label, 12) == s
        # a lone channel past 9 ends in a comma: "12" is channels 1 and 2
        assert [ChannelSubset((i,)).label for i in (8, 9, 11)] == ["9", "10,", "12,"]
        assert parse_subset("12,", 12) == ChannelSubset((11,))

    @given(st.lists(st.integers(0, 15), min_size=1, max_size=16, unique=True))
    def test_label_round_trips(self, indices):
        s = ChannelSubset(tuple(sorted(indices)))
        assert parse_subset(s.label, 16) == s

    def test_every_subset_has_its_own_label(self):
        subsets = [ChannelSubset(tuple(c)) for k in range(1, 13)
                   for c in itertools.combinations(range(12), k)]
        labels = {s.label: s for s in subsets}
        assert len(labels) == len(subsets) == 2 ** 12 - 1
        assert all(parse_subset(label, 12) == s for label, s in labels.items())

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChannelSubset(())
        with pytest.raises(ValueError):
            ChannelSubset((2, 1))
        with pytest.raises(ValueError):
            ChannelSubset((-1, 0))
        with pytest.raises(ValueError):
            ChannelSubset((1, 1))


class TestRestrict:
    def test_full_set_is_identity(self):
        x = _signal(channels=8)
        out = restrict_to_subset(x, ChannelSubset.full(8))
        assert np.array_equal(out.samples, x.samples)

    def test_row_selection_by_definition(self):
        x = _signal(channels=3)
        out = restrict_to_subset(x, ChannelSubset((0, 2)))
        assert out.channels == 2
        assert np.array_equal(out.samples[0], x.samples[0])
        assert np.array_equal(out.samples[1], x.samples[2])

    def test_paper_label_selects_expected_rows(self):
        # independent indexing check for the 1-based -> 0-based mapping
        x = _signal(channels=8)
        out = restrict_to_subset(x, parse_subset("1356", 8))
        for row, src in enumerate([0, 2, 4, 5]):
            assert np.array_equal(out.samples[row], x.samples[src])
        assert out.n_samples == x.n_samples

    def test_out_of_range_rejected(self):
        x = _signal(channels=3)
        with pytest.raises(ValueError, match="channel 5"):
            restrict_to_subset(x, ChannelSubset((0, 5)))


class TestChannelDropout:
    def test_p_zero_is_identity(self):
        mask = draw_channel_mask(4, 0.0, np.random.default_rng(0))
        assert mask.dtype == np.bool_ and mask.tolist() == [True] * 4

    def test_p_one_zeroes_everything(self):
        assert draw_channel_mask(4, 1.0, np.random.default_rng(0)).tolist() == [False] * 4

    def test_p_out_of_range_rejected(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                draw_channel_mask(4, bad, np.random.default_rng(0))

    def test_same_seed_same_mask_sequence(self):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            seqs.append([draw_channel_mask(8, 0.25, rng).tolist() for _ in range(50)])
        assert seqs[0] == seqs[1]

    def test_retention_rate_converges(self):
        # per-channel empirical retention within 4*sqrt(p(1-p)/N) of 1-p
        p, n, channels = 0.25, 20_000, 8
        rng = np.random.default_rng(123)
        hits = np.zeros(channels)
        for _ in range(n):
            hits += draw_channel_mask(channels, p, rng)
        bound = 4 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(hits / n - (1 - p)) <= bound)


class TestSignalFiles:
    def test_round_trip(self, tmp_path):
        x = _signal(seed=11, channels=3, frames=17)
        path = tmp_path / "sig.json"
        save_signal(x, path)
        back = load_signal(path)
        assert back.channels == 3
        assert back.sample_rate == 100.0
        assert np.array_equal(back.samples, x.samples)

    def test_header_schema(self, tmp_path):
        x = _signal(channels=2, frames=5)
        path = tmp_path / "sig.json"
        save_signal(x, path)
        header = json.loads(path.read_text())
        assert header == {"channels": 2, "samples_per_channel": 5, "sample_rate": 100.0}
        assert (tmp_path / "sig.bin").stat().st_size == 2 * 5 * 8

    def test_reloaded_corpus_samples_are_read_only_views_of_the_payload(self, tmp_path):
        corpus = generate(GeneratorConfig(channels=3, classes=("B", "IY"), weights=(1.0, 0.5, 0.0),
                                          frames_per_segment=4, utterances=3, seed=4))
        digest = save_corpus(corpus, tmp_path / "corpus")
        back = load_corpus(tmp_path / "corpus")
        assert back.content_hash == corpus.content_hash == digest
        for seq, original in zip(back, corpus):
            samples = seq.signal.samples
            assert samples.dtype == np.float64 and samples.flags.c_contiguous
            assert samples.tobytes() == original.signal.samples.tobytes()
            assert seq.signal.payload == payload_bytes(samples)
            assert not samples.flags.writeable and not samples.flags.owndata
            with pytest.raises(ValueError, match="read-only"):
                samples[0, 0] = 1.0

    def test_truncated_payload_rejected(self, tmp_path):
        x = _signal(channels=2, frames=5)
        path = tmp_path / "sig.json"
        save_signal(x, path)
        payload = (tmp_path / "sig.bin").read_bytes()
        (tmp_path / "sig.bin").write_bytes(payload[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_signal(path)
