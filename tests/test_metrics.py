import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chansel.metrics import (
    CategoryReport,
    CategoryRow,
    TOTAL_ROW,
    category_per,
    collapse_frame_labels,
    edit_distance,
    worst_channel_table,
)
from chansel.model import ScoringReference, evaluate, init_params
from chansel.phonemes import SILENCE_SYMBOL, default_table
from util import exhaustive_edit_distance, make_sequence, phoneme_error_rate, report_from_rates


def _symbol_confusion(ref, hyp, table):
    """Per-symbol reference frame and error counts, one frame at a time."""
    counts: dict[str, int] = {}
    errors: dict[str, int] = {}
    for r, h in zip(ref, hyp):
        if r not in table:
            raise KeyError(f"reference label {r!r} not in the phoneme inventory")
        counts[r] = counts.get(r, 0) + 1
        if r != h:
            errors[r] = errors.get(r, 0) + 1
    return counts, errors


def _reference_category_per(ref, hyp, table, threshold):
    """The category report assembled from the per-frame counting loop."""
    counts, errors = _symbol_confusion(ref, hyp, table)
    rows, excluded = [], []
    if len(ref) >= threshold:
        rows.append(CategoryRow(TOTAL_ROW, len(ref), sum(errors.values()) / max(len(ref), 1)))
    else:
        excluded.append(TOTAL_ROW)
    for name in table.names:
        members = table.category_members(name)
        n = sum(counts.get(sym, 0) for sym in members)
        if n < threshold:
            excluded.append(name)
            continue
        rows.append(CategoryRow(name, n, sum(errors.get(sym, 0) for sym in members) / n))
    return CategoryReport(tuple(rows), tuple(excluded))


tokens = st.lists(st.sampled_from(["the", "cat", "sat", "on", "a", "mat", "bat", "down"]),
                  max_size=6)


def _scored_edits(ref_words, hyp_words) -> tuple[int, int]:
    """Edits and reference tokens as ``ScoringReference.edits`` counts a
    record's WER: each word one phoneme and a silence frame, the shorter
    side padded with silence, which makes no word."""
    ref, hyp = ([f for word in words for f in (word, SILENCE_SYMBOL)]
                for words in (ref_words, hyp_words))
    ref += [SILENCE_SYMBOL] * (len(hyp) - len(ref))
    hyp += [SILENCE_SYMBOL] * (len(ref) - len(hyp))
    classes = (SILENCE_SYMBOL, "B", "T", "AE", "M", "IY")
    reference = ScoringReference([make_sequence(ref, channels=1)], classes, default_table())
    return reference.edits(np.array([classes.index(sym) for sym in hyp])), reference.total_tokens


class TestWordErrorRate:
    @pytest.mark.parametrize("ref, hyp, edits", [
        ("B T AE", "B T AE", 0), ("B T AE", "", 3), ("B T AE", "B M AE IY", 2),
        ("B", "M T IY", 3), ("", "B T", 2),
    ], ids=["identical", "all-deletions", "substitution-plus-insertion", "above-one",
            "empty-reference-all-insertions"])
    def test_record_edits_equal_the_exhaustive_oracle(self, ref, hyp, edits):
        # a record refuses a split with no reference words (WER undefined)
        assert exhaustive_edit_distance(ref.split(), hyp.split()) == edits
        assert _scored_edits(ref.split(), hyp.split()) == (edits, len(ref.split()))

    @given(tokens, tokens, tokens)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, a, b, c):
        assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    @given(tokens, tokens)
    @settings(max_examples=100, deadline=None)
    def test_symmetry_and_identity(self, a, b):
        assert edit_distance(a, b) == edit_distance(b, a)
        assert edit_distance(a, a) == 0


class TestPhonemeErrorRate:
    def test_identical_is_zero(self):
        assert phoneme_error_rate(["B", "IY"], ["B", "IY"]) == 0.0

    def test_all_frames_differ(self):
        assert phoneme_error_rate(["B"] * 4, ["T"] * 4) == 1.0

    def test_counting(self):
        ref = ["B"] * 10
        hyp = ["B"] * 7 + ["T"] * 3
        assert phoneme_error_rate(ref, hyp) == pytest.approx(0.3)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            phoneme_error_rate(["B"], ["B", "B"])

    def test_no_frames_is_zero(self):
        assert phoneme_error_rate([], []) == 0.0


class TestCategoryPer:
    def test_length_mismatch_rejected(self, table):
        with pytest.raises(ValueError, match="frame label length mismatch: ref 1 vs hyp 2"):
            category_per(["B"], ["B", "B"], table, threshold=1)

    def test_hand_fixture(self, table):
        ref = ["B", "B", "IY", "SIL"]
        hyp = ["B", "P", "IY", "SIL"]
        report = category_per(ref, hyp, table, threshold=1)
        assert report.rate_of("place_bilabial") == pytest.approx(0.5)
        assert report.rate_of("vowel") == 0.0
        assert report.rate_of("silence") == 0.0
        assert report.rate_of("consonant") == pytest.approx(0.5)
        assert report.rate_of("voiced") == pytest.approx(1 / 3)
        assert report.rate_of(TOTAL_ROW) == pytest.approx(0.25)
        assert {row.name: row.count for row in report.rows}[TOTAL_ROW] == 4
        assert "voiceless" in report.excluded  # no voiceless reference frames

    def test_all_silence_excludes_everything_else(self, table):
        report = category_per(["SIL"] * 3, ["SIL"] * 3, table, threshold=1)
        assert report.rate_of("silence") == 0.0
        reported = set(report.row_names)
        assert reported == {TOTAL_ROW, "silence"}
        assert "vowel" in report.excluded and "consonant" in report.excluded

    def test_threshold_excludes_rare_categories(self, table):
        # a label stream where the rare classes sit below the 3000-frame cutoff
        ref = ["AH"] * 3000 + ["T"] * 3000 + ["SIL"] * 3000 + ["CH", "W", "Y", "HH"] * 100
        hyp = list(ref)
        report = category_per(ref, hyp, table, threshold=3000)
        rare = {
            "manner_affricate", "manner_glide", "place_postalveolar",
            "place_glottal", "place_labiovelar", "place_palatal",
        }
        assert rare <= set(report.excluded)
        for name in ("vowel", "consonant", "silence", TOTAL_ROW):
            assert name in report.row_names

    def test_threshold_one_never_changes_included_rates(self, table):
        rng = np.random.default_rng(0)
        symbols = ["B", "IY", "T", "SIL"]
        ref = [symbols[i] for i in rng.integers(0, 4, size=400)]
        hyp = [symbols[i] for i in rng.integers(0, 4, size=400)]
        strict = category_per(ref, hyp, table, threshold=50)
        loose = category_per(ref, hyp, table, threshold=1)
        for row in strict.rows:
            assert loose.rate_of(row.name) == row.rate

    def test_kind_counts_sum_to_total(self, table):
        rng = np.random.default_rng(1)
        symbols = ["B", "IY", "T", "AE", "SIL", "M"]
        ref = [symbols[i] for i in rng.integers(0, len(symbols), size=300)]
        hyp = [symbols[i] for i in rng.integers(0, len(symbols), size=300)]
        report = category_per(ref, hyp, table, threshold=1)
        kinds = sum(row.count for row in report.rows
                    if row.name in ("vowel", "consonant", "silence"))
        assert kinds == len(ref)

    def test_unknown_reference_symbol_rejected(self, table):
        with pytest.raises(KeyError, match="QQ"):
            category_per(["QQ"], ["QQ"], table, threshold=1)

    @pytest.mark.parametrize("threshold", [0, -1])
    def test_threshold_below_one_rejected(self, table, tiny_corpus, threshold):
        message = f"threshold must be >= 1, got {threshold}"
        with pytest.raises(ValueError, match=message):
            category_per(["B", "SIL"], ["B", "SIL"], table, threshold=threshold)
        params = init_params(tiny_corpus.channels, 3, 4, tiny_corpus.label_alphabet(), seed=0)
        with pytest.raises(ValueError, match=message):
            evaluate(params, tiny_corpus, table, threshold=threshold)

    @given(data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_matches_per_frame_reference(self, table, data):
        symbols = st.sampled_from(table.symbols)
        ref = data.draw(st.lists(symbols, max_size=60))
        hyp = data.draw(st.lists(symbols, min_size=len(ref), max_size=len(ref)))
        threshold = data.draw(st.integers(0, len(ref)))
        if ref and data.draw(st.booleans()):
            # unknown labels: the first one in frame order names the error
            for at in data.draw(st.sets(st.integers(0, len(ref) - 1), min_size=1)):
                ref[at] = f"QQ{at}"
        if threshold < 1:  # the reference would divide an empty category by zero
            with pytest.raises(ValueError, match="threshold must be >= 1, got 0"):
                category_per(ref, hyp, table, threshold=threshold)
            return
        try:
            expected = _reference_category_per(ref, hyp, table, threshold)
        except KeyError as exc:
            with pytest.raises(type(exc)) as caught:
                category_per(ref, hyp, table, threshold=threshold)
            assert str(caught.value) == str(exc)
        else:
            assert category_per(ref, hyp, table, threshold=threshold) == expected


class TestWorstChannelTable:
    def test_published_style_row(self):
        # baseline 16.0% total, worst 17.1% when channel 8 is removed
        baseline = report_from_rates({TOTAL_ROW: 0.160})
        reports = {ch: report_from_rates({TOTAL_ROW: 0.165}) for ch in range(1, 8)}
        reports[8] = report_from_rates({TOTAL_ROW: 0.171})
        rows = worst_channel_table(reports, baseline)
        assert len(rows) == 1
        row = rows[0]
        assert (row.category, row.baseline_rate, row.worst_rate, row.channel) == (
            TOTAL_ROW, 0.160, 0.171, 8)
        assert not row.tied

    def test_identical_reports_tie_to_lowest_channel(self):
        baseline = report_from_rates({"vowel": 0.2})
        reports = {ch: report_from_rates({"vowel": 0.3}) for ch in (1, 2, 3)}
        rows = worst_channel_table(reports, baseline)
        assert rows[0].channel == 1
        assert rows[0].tied

    def test_two_channel_hand_fixture(self):
        baseline = report_from_rates({"vowel": 0.10, "consonant": 0.20})
        reports = {
            1: report_from_rates({"vowel": 0.30, "consonant": 0.21}),
            2: report_from_rates({"vowel": 0.12, "consonant": 0.35}),
        }
        rows = worst_channel_table(reports, baseline)
        by_name = {r.category: r for r in rows}
        assert by_name["vowel"].channel == 1
        assert by_name["vowel"].worst_rate == 0.30
        assert by_name["consonant"].channel == 2
        assert by_name["consonant"].worst_rate == 0.35

    def test_inconsistent_categories_rejected(self):
        baseline = report_from_rates({"vowel": 0.1})
        reports = {1: report_from_rates({"consonant": 0.2})}
        with pytest.raises(ValueError, match="category rows"):
            worst_channel_table(reports, baseline)

    def test_empty_reports_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            worst_channel_table({}, report_from_rates({"vowel": 0.1}))


class TestCollapse:
    def test_repeated_labels_merge_into_one_word(self):
        assert collapse_frame_labels(["B", "B", "IY", "IY", "SIL"]) == ("B·IY",)

    def test_silence_delimits_words(self):
        labels = ["SIL", "B", "B", "SIL", "IY", "IY", "SIL"]
        assert collapse_frame_labels(labels) == ("B", "IY")

    def test_no_trailing_silence_needed(self):
        assert collapse_frame_labels(["B", "IY"]) == ("B·IY",)

    def test_all_silence_is_empty(self):
        assert collapse_frame_labels(["SIL", "SIL"]) == ()


class TestReportType:
    def test_rate_lookup_errors_mention_exclusions(self):
        report = CategoryReport(rows=(CategoryRow("vowel", 5, 0.2),), excluded=("consonant",))
        with pytest.raises(KeyError, match="consonant"):
            report.rate_of("consonant")
