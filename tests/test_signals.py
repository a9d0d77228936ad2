import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansel.signals import (
    ChannelMask,
    ChannelSubset,
    MultichannelSignal,
    apply_channel_dropout,
    draw_channel_mask,
    load_signal,
    load_signal_csv,
    parse_subset,
    restrict_to_subset,
    save_signal,
)


def _signal(seed: int = 0, channels: int = 4, frames: int = 10) -> MultichannelSignal:
    rng = np.random.default_rng(seed)
    return MultichannelSignal(rng.normal(size=(channels, frames)), sample_rate=100.0)


class TestMultichannelSignal:
    def test_rejects_non_finite(self):
        with pytest.raises(ValueError, match="NaN"):
            MultichannelSignal(np.array([[1.0, np.nan]]))
        with pytest.raises(ValueError, match="NaN"):
            MultichannelSignal(np.array([[np.inf, 0.0]]))

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
        assert ChannelSubset.of([0, 2]).drop(2) == ChannelSubset.of([0])
        with pytest.raises(ValueError, match="channel 1 not in subset 13"):
            ChannelSubset.of([0, 2]).drop(1)

    def test_unsorted_input_is_normalised(self):
        assert parse_subset("3156", 8).label == "1356"

    def test_label_uses_commas_past_nine_channels(self):
        s = ChannelSubset.of([0, 9, 11])
        assert s.label == "1,10,12"
        assert parse_subset(s.label, 12) == s

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=9, unique=True))
    def test_label_round_trips(self, indices):
        s = ChannelSubset.of(indices)
        assert parse_subset(s.label, 9) == s

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            ChannelSubset(())
        with pytest.raises(ValueError):
            ChannelSubset((2, 1))
        with pytest.raises(ValueError):
            ChannelSubset((-1, 0))
        with pytest.raises(ValueError):
            ChannelSubset.of([1, 1])


class TestRestrict:
    def test_full_set_is_identity(self):
        x = _signal(channels=8)
        out = restrict_to_subset(x, ChannelSubset.full(8))
        assert np.array_equal(out.samples, x.samples)

    def test_row_selection_by_definition(self):
        x = _signal(channels=3)
        out = restrict_to_subset(x, ChannelSubset.of([0, 2]))
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
            restrict_to_subset(x, ChannelSubset.of([0, 5]))


class TestChannelDropout:
    def test_p_zero_is_identity(self):
        x = _signal()
        out, mask = apply_channel_dropout(x, 0.0, np.random.default_rng(0))
        assert mask.bits == (1,) * x.channels
        assert np.array_equal(out.samples, x.samples)

    def test_p_one_zeroes_everything(self):
        x = _signal()
        out, mask = apply_channel_dropout(x, 1.0, np.random.default_rng(0))
        assert mask.bits == (0,) * x.channels
        assert np.all(out.samples == 0.0)

    def test_p_out_of_range_rejected(self):
        x = _signal()
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError, match=r"\[0, 1\]"):
                apply_channel_dropout(x, bad, np.random.default_rng(0))

    def test_input_not_modified_and_no_rescaling(self):
        x = _signal(seed=3)
        before = x.samples.copy()
        out, mask = apply_channel_dropout(x, 0.5, np.random.default_rng(5))
        assert np.array_equal(x.samples, before)
        for c, bit in enumerate(mask.bits):
            if bit:
                # retained rows are bit-identical: plain masking, no 1/(1-p)
                assert np.array_equal(out.samples[c], x.samples[c])
            else:
                assert np.all(out.samples[c] == 0.0)

    def test_same_seed_same_mask_sequence(self):
        seqs = []
        for _ in range(2):
            rng = np.random.default_rng(42)
            seqs.append([draw_channel_mask(8, 0.25, rng).bits for _ in range(50)])
        assert seqs[0] == seqs[1]

    def test_retention_rate_converges(self):
        # per-channel empirical retention within 4*sqrt(p(1-p)/N) of 1-p
        p, n, channels = 0.25, 20_000, 8
        rng = np.random.default_rng(123)
        hits = np.zeros(channels)
        for _ in range(n):
            hits += draw_channel_mask(channels, p, rng).bits
        bound = 4 * np.sqrt(p * (1 - p) / n)
        assert np.all(np.abs(hits / n - (1 - p)) <= bound)

    @given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 8))
    @settings(max_examples=50)
    def test_masking_is_idempotent(self, seed, channels, frames):
        rng = np.random.default_rng(seed)
        x = MultichannelSignal(rng.normal(size=(channels, frames)))
        mask = draw_channel_mask(channels, 0.5, rng)
        once = mask.apply(x)
        twice = mask.apply(once)
        assert np.array_equal(once.samples, twice.samples)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50)
    def test_mask_then_restrict_commutes(self, seed):
        rng = np.random.default_rng(seed)
        channels = int(rng.integers(2, 7))
        x = MultichannelSignal(rng.normal(size=(channels, 5)))
        mask = draw_channel_mask(channels, 0.5, rng)
        size = int(rng.integers(1, channels + 1))
        subset = ChannelSubset.of(rng.choice(channels, size=size, replace=False))
        a = restrict_to_subset(mask.apply(x), subset)
        sub_mask = ChannelMask(tuple(mask.bits[i] for i in subset.indices))
        b = sub_mask.apply(restrict_to_subset(x, subset))
        assert np.array_equal(a.samples, b.samples)

    def test_mask_length_must_match(self):
        with pytest.raises(ValueError, match="covers"):
            ChannelMask((1, 0)).apply(_signal(channels=3))


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

    def test_truncated_payload_rejected(self, tmp_path):
        x = _signal(channels=2, frames=5)
        path = tmp_path / "sig.json"
        save_signal(x, path)
        payload = (tmp_path / "sig.bin").read_bytes()
        (tmp_path / "sig.bin").write_bytes(payload[:-8])
        with pytest.raises(ValueError, match="expected"):
            load_signal(path)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "fixture.csv"
        path.write_text("1.0,4.0\n2.0,5.0\n3.0,6.0\n")
        sig = load_signal_csv(path, sample_rate=10.0)
        assert sig.channels == 2
        assert np.array_equal(sig.samples, [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
