import csv

import pytest

from chansel.metrics import TOTAL_ROW, WorstChannelRow
from chansel.reports import (
    Provenance,
    channel_average_csv,
    comparison_csv,
    elimination_plot_csv,
    sweep_csv,
    top_subsets_csv,
    training_log_csv,
    worst_channel_csv,
)
from chansel.search import SweepResult, backward_elimination
from util import make_record

# Channel-wise average WERs (%), already ordered best-first in the source table
CHANNEL_AVG_FIXTURE = {
    3: 51.4, 2: 52.3, 1: 52.6, 5: 52.8, 6: 53.1, 4: 53.7, 7: 53.8, 8: 54.8,
}

WORST_CHANNEL_FIXTURE = [
    (TOTAL_ROW, 16.0, 17.1, 8),
    ("vowel", 22.6, 24.1, 7),
    ("consonant", 20.9, 22.7, 3),
    ("silence", 4.5, 5.8, 8),
    ("voiced", 21.3, 23.2, 7),
    ("voiceless", 22.4, 25.3, 3),
    ("manner_liquid", 12.7, 16.9, 1),
    ("manner_fricative", 19.4, 23.2, 3),
    ("manner_nasal", 21.0, 23.5, 7),
    ("manner_plosive", 26.4, 27.6, 7),
    ("place_bilabial", 21.6, 25.2, 8),
    ("place_alveolar", 21.4, 23.0, 3),
    ("place_labiodental", 17.9, 22.5, 2),
    ("place_velar", 18.5, 21.5, 1),
    ("vowel_high", 21.7, 28.8, 7),
    ("vowel_mid", 23.7, 25.1, 7),
    ("vowel_low", 22.6, 22.7, 3),
    ("vowel_front", 24.4, 28.8, 7),
    ("vowel_central", 24.9, 25.7, 8),
    ("vowel_back", 17.7, 20.7, 6),
    ("vowel_rounded", 17.8, 20.7, 6),
    ("vowel_unrounded", 23.6, 24.8, 7),
]


def test_channel_average_formatter_reproduces_published_table():
    # fractions in, the published percent table out, byte for byte
    averages = tuple(
        (ch - 1, CHANNEL_AVG_FIXTURE[ch] / 100.0) for ch in (3, 2, 1, 5, 6, 4, 7, 8)
    )
    expected = (
        "channel,avg_wer\n"
        "3,51.4\n2,52.3\n1,52.6\n5,52.8\n6,53.1\n4,53.7\n7,53.8\n8,54.8\n"
    )
    assert channel_average_csv(averages) == expected


def test_worst_channel_formatter_reproduces_published_rows():
    rows = [
        WorstChannelRow(name, base / 100.0, worst / 100.0, ch)
        for name, base, worst, ch in WORST_CHANNEL_FIXTURE
    ]
    text = worst_channel_csv(rows)
    lines = text.splitlines()
    assert lines[0] == "category,baseline_per,worst_per,critical_channel"
    assert lines[1] == "total PER,16.0,17.1,8"
    assert lines[4] == "silence,4.5,5.8,8"
    expected_rows = [
        f"{name},{base},{worst},{ch}" for name, base, worst, ch in WORST_CHANNEL_FIXTURE
    ]
    assert lines[1:] == expected_rows


def test_provenance_line_is_first():
    prov = Provenance(version="0.1.0", config_hash="a" * 64, corpus_hash="b" * 64, seed=3)
    text = channel_average_csv(((0, 0.5),), provenance=prov)
    first = text.splitlines()[0]
    assert first.startswith("# chansel=0.1.0 ")
    assert "config=aaaaaaaaaaaa" in first
    assert "corpus=bbbbbbbbbbbb" in first
    assert "seed=3" in first


def test_sweep_csv_schema_and_float_exactness():
    records = (make_record("13", wer=1 / 3, per_total=0.2, seed=0),)
    sweep = SweepResult(channels=3, k=2, metric_name="wer", records=records)
    text = sweep_csv(sweep)
    lines = text.splitlines()
    assert lines[0] == "subset_label,wer,per_total,seed_count"
    label, wer, per, seeds = lines[1].split(",")
    assert label == "13"
    assert float(wer) == 1 / 3  # repr round-trips exactly
    assert seeds == "1"


def test_top_subsets_csv_membership_and_count_row():
    records = (
        make_record("12", wer=0.10),
        make_record("13", wer=0.20),
        make_record("23", wer=0.30),
    )
    sweep = SweepResult(channels=3, k=2, metric_name="wer", records=records)
    text = top_subsets_csv(sweep, 2, counts=(2, 1, 1))
    lines = text.splitlines()
    assert lines[0] == "subset,1,2,3,wer"
    assert lines[1] == "12,1,1,0,10.0"
    assert lines[2] == "13,1,0,1,20.0"
    assert lines[3] == "count,2,1,1,"


def test_elimination_plot_csv_has_best_and_median():
    metrics = {"1": 0.4, "2": 0.1, "12": 0.0, "13": 0.3, "23": 0.2}

    class Ev:
        def evaluate_many(self, subsets):
            return {s.label: make_record(s.label, wer=metrics[s.label]) for s in subsets}

        def close(self):
            pass

    trace = backward_elimination(Ev(), 3, 1)
    text = elimination_plot_csv(trace)
    lines = text.splitlines()
    assert lines[0] == "channel_count,best_wer,median_wer"
    # first step: candidates 23/13/12 with 0.2/0.3/0.0 -> best 0.0, median 0.2
    assert lines[1] == "2,0.0,0.2"
    # second step: candidates 2/1 with 0.1/0.4 -> best 0.1, median of two 0.25
    assert lines[2] == "1,0.1,0.25"


def test_training_log_rows_match_epochs():
    text = training_log_csv((1.5, 1.2, 1.0), mean_retained=7.0)
    lines = text.splitlines()
    assert lines[0] == "epoch,loss,mean_retained_channels"
    assert len(lines) == 4
    assert lines[1].startswith("0,1.5,")


@pytest.mark.parametrize("render", [
    lambda sweep: sweep_csv(sweep),
    lambda sweep: top_subsets_csv(sweep, 2, counts=(2,) * 10),
    lambda sweep: comparison_csv([("ft", r) for r in sweep.records]),
], ids=["sweep", "top_subsets", "comparison"])
def test_labels_with_commas_are_quoted(render):
    # from ten channels on, a subset label is comma-separated
    records = (make_record("1,2,10", wer=0.25), make_record("3,4,5", wer=0.5))
    sweep = SweepResult(channels=10, k=3, metric_name="wer", records=records)
    rows = list(csv.reader(render(sweep).splitlines()))
    assert {len(row) for row in rows} == {len(rows[0])}
    assert "1,2,10" in rows[1] and "3,4,5" in rows[2]  # each label reads back as one field
