import ast
import ctypes
import importlib
import inspect
import itertools
import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor
from contextlib import closing
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from chansel import reports, search
from chansel.corpus import Corpus, LabeledSequence
from chansel.model import (
    EvalRecord, TrainConfig, TrainingDivergedError, TrainResult, evaluate, init_params, train,
)
from chansel.phonemes import default_table
from chansel.search import (
    EvaluationError,
    ResultsCache,
    SweepResult,
    TrainingEvaluator,
    backward_elimination,
    channel_average_metric,
    config_fingerprint,
    derive_task_seeds,
    exhaustive_sweep,
    seven_channel_ablation,
    top_k_frequency,
)
from chansel.signals import ChannelSubset, parse_subset
from chansel.synth import GeneratorConfig, generate
from util import (
    TOP10_FIXTURE, FakeEvaluator, binomial_by_factorials, fake_numpy_without_thread_setter,
    make_evaluator, make_record, no_thread_setter_note, report_from_rates, search_corpus,
)



class TestExhaustiveSweep:
    def test_sorted_by_metric_then_label(self):
        metrics = {"12": 0.5, "13": 0.2, "23": 0.5}
        ev = FakeEvaluator(lambda s: metrics[s.label])
        sweep = exhaustive_sweep(ev, 3, 2)
        assert [r.subset_label for r in sweep.records] == ["13", "12", "23"]

    def test_budget_refusal_names_required_count(self):
        ev = FakeEvaluator(lambda s: 0.5)
        with pytest.raises(ValueError, match="70"):
            exhaustive_sweep(ev, 8, 4, budget=69)

    def test_bad_k_rejected(self):
        ev = FakeEvaluator(lambda s: 0.5)
        for bad in (0, 5):
            with pytest.raises(ValueError,
                               match=f"need 1 <= k <= channels, got k={bad}, channels=4"):
                exhaustive_sweep(ev, 4, bad)

    def test_unknown_metric_rejected_before_evaluating(self):
        ev = FakeEvaluator(lambda s: 0.5)
        with pytest.raises(ValueError, match="unknown metric 'foo'"):
            exhaustive_sweep(ev, 4, 2, metric="foo")
        assert ev.calls == 0

    def test_evaluator_failure_names_subset(self, monkeypatch):
        def boom(*args):
            raise RuntimeError("training fell over")

        monkeypatch.setattr(search, "_run_stack", boom)
        ev = make_evaluator(search_corpus(), workers=1)
        with pytest.raises(EvaluationError, match="subset 1 failed: training fell over"):
            exhaustive_sweep(ev, 3, 1)


class TestTopKFrequency:
    def _sweep_from_fixture(self) -> SweepResult:
        records = tuple(
            make_record(label, wer=wer / 100.0) for label, wer in TOP10_FIXTURE
        )
        return SweepResult(channels=8, k=4, metric_name="wer", records=records)

    def test_k_top_all_gives_binomial_counts(self):
        ev = FakeEvaluator(lambda s: 0.5)
        sweep = exhaustive_sweep(ev, 6, 3)
        counts = top_k_frequency(sweep, len(sweep.records))
        assert counts == (binomial_by_factorials(5, 2),) * 6

    def test_k_top_one_is_best_subset_indicator(self):
        sweep = self._sweep_from_fixture()
        counts = top_k_frequency(sweep, 1)
        assert counts == (1, 0, 1, 0, 1, 1, 0, 0)  # membership of "1356"

    def test_k_top_beyond_records_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            top_k_frequency(self._sweep_from_fixture(), 11)

    def test_k_top_below_one_rejected(self):
        with pytest.raises(ValueError, match="k_top must be >= 1, got 0"):
            top_k_frequency(self._sweep_from_fixture(), 0)


class TestChannelAverage:
    def test_three_record_hand_fixture(self):
        metrics = {"12": 0.2, "13": 0.4, "23": 0.6}
        ev = FakeEvaluator(lambda s: metrics[s.label])
        averages = channel_average_metric(exhaustive_sweep(ev, 3, 2))
        assert averages == ((0, pytest.approx(0.3)), (1, pytest.approx(0.4)),
                            (2, pytest.approx(0.5)))

    def test_constant_metric_averages_constant(self):
        ev = FakeEvaluator(lambda s: 0.5)
        averages = channel_average_metric(exhaustive_sweep(ev, 8, 4))
        assert all(mean == pytest.approx(0.5) for _, mean in averages)

    def test_weighted_means_recover_global_mean(self):
        ev = FakeEvaluator(lambda s: sum(s.indices) / 10.0)
        sweep = exhaustive_sweep(ev, 6, 3)
        averages = channel_average_metric(sweep)
        per_channel = binomial_by_factorials(5, 2)
        total = sum(mean * per_channel for _, mean in averages)
        assert total == pytest.approx(3 * sum(r.wer for r in sweep.records))

    def test_means_equal_float64_sums_over_counts_to_the_bit(self):
        rng = np.random.default_rng(11)
        ev = FakeEvaluator(lambda s: float(rng.random()))
        sweep = exhaustive_sweep(ev, 8, 4)
        sums, counts = np.zeros(8), np.zeros(8, dtype=int)
        for record in sweep.records:
            for ch in parse_subset(record.subset_label, 8).indices:
                sums[ch] += record.wer
                counts[ch] += 1
        means = sums / counts
        assert channel_average_metric(sweep) == tuple(sorted(
            ((c, float(means[c])) for c in range(8)), key=lambda pair: (pair[1], pair[0])))

    def test_incomplete_sweep_rejected(self):
        sweep = SweepResult(channels=8, k=4, metric_name="wer",
                            records=(make_record("1356", wer=0.1),))
        with pytest.raises(ValueError, match="incomplete"):
            channel_average_metric(sweep)


class TestBackwardElimination:
    def test_two_channels_one_step(self):
        # removing channel 2 scores better, so it goes
        metrics = {"1": 0.2, "2": 0.5}
        ev = FakeEvaluator(lambda s: metrics[s.label])
        trace = backward_elimination(ev, 2, 1)
        assert trace.removal_order == (1,)
        assert trace.steps[0].surviving.label == "1"
        assert trace.steps[0].metric == 0.2
        assert ev.calls == 2

    def test_cold_cache_evaluation_count(self):
        # C + (C-1) + ... + (stop+1) candidate evaluations
        for c, stop in ((8, 2), (6, 1), (5, 4)):
            ev = FakeEvaluator(lambda s: sum(s.indices))
            backward_elimination(ev, c, stop)
            assert ev.calls == sum(range(stop + 1, c + 1)), (c, stop)

    def test_greedy_removes_least_informative_first(self):
        # metric = sum of surviving planted weights, negated: keeping strong
        # channels scores lower (better)
        weights = [0.9, 0.1, 0.5, 0.7]
        ev = FakeEvaluator(lambda s: 1.0 - sum(weights[i] for i in s.indices))
        trace = backward_elimination(ev, 4, 1)
        assert trace.removal_order == (1, 2, 3)

    def test_tie_removes_higher_indexed_channel_and_flags(self):
        ev = FakeEvaluator(lambda s: 0.5)
        trace = backward_elimination(ev, 4, 3)
        assert trace.removal_order == (3,)
        assert trace.steps[0].tied

    def test_surviving_sizes_shrink_by_one(self):
        ev = FakeEvaluator(lambda s: sum(s.indices))
        trace = backward_elimination(ev, 6, 2)
        sizes = [len(step.surviving) for step in trace.steps]
        assert sizes == [5, 4, 3, 2]
        for earlier, later in zip(trace.steps, trace.steps[1:]):
            assert set(later.surviving.indices) < set(earlier.surviving.indices)

    def test_unknown_metric_rejected_before_evaluating(self):
        ev = FakeEvaluator(lambda s: 0.5)
        with pytest.raises(ValueError, match="unknown metric 'foo'"):
            backward_elimination(ev, 4, 2, metric="foo")
        assert ev.calls == 0

    def test_stop_size_validation(self):
        ev = FakeEvaluator(lambda s: 0.5)
        for bad in (0, 4, 5):
            with pytest.raises(ValueError, match=f"need 1 <= stop_size < channels, got "
                                                 f"stop_size={bad}, channels=4"):
                backward_elimination(ev, 4, bad)

    def test_json_view_uses_one_based_channels(self):
        metrics = {"1": 0.2, "2": 0.5}
        ev = FakeEvaluator(lambda s: metrics[s.label])
        doc = json.loads(reports.elimination_json(backward_elimination(ev, 2, 1)))
        assert doc["steps"][0]["removed_channel"] == 2
        assert doc["steps"][0]["surviving_subset"] == "1"
        assert {c["removed_channel"] for c in doc["steps"][0]["candidates"]} == {1, 2}


class TestResultsCache:
    def test_round_trip(self, tmp_path):
        cache = ResultsCache(tmp_path / "cache.jsonl")
        record = make_record("135", wer=0.25, per_total=0.1)
        cache.put(record)
        reloaded = ResultsCache(tmp_path / "cache.jsonl")
        assert reloaded.get("135", "corpus", "cfg", 0) == record
        assert len(reloaded) == 1

    def test_ignores_torn_tail_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultsCache(path)
        cache.put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write('{"subset": "34", "wer": 0.2')  # interrupted mid-record
        reloaded = ResultsCache(path)
        assert len(reloaded) == 1
        assert reloaded.get("12", "corpus", "cfg", 0) is not None

    def test_counts_unreadable_lines(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultsCache(path)
        cache.put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write("{not json\n")  # damaged middle line
        cache.put(make_record("13", wer=0.4))
        with open(path, "a") as fh:
            fh.write('{"subset": "34", "wer": 0.2')  # torn tail
        reloaded = ResultsCache(path)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 2
        assert cache.skipped_lines == 0

    def test_append_after_torn_tail_starts_a_new_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write('{"subset": "34", "wer"')  # interrupted mid-record
        resumed = ResultsCache(path)
        resumed.put(make_record("34", wer=0.2))
        reloaded = ResultsCache(path)
        assert len(reloaded) == 2
        assert reloaded.get("34", "corpus", "cfg", 0) == make_record("34", wer=0.2)
        assert reloaded.skipped_lines == 1

    def test_blank_lines_are_neither_served_nor_counted(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        cache = ResultsCache(path)
        cache.put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write("\n   \n\t\r\n")
        cache.put(make_record("13", wer=0.4))
        with open(path, "a") as fh:
            fh.write("\n")
        reloaded = ResultsCache(path)
        assert reloaded.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.5)
        assert reloaded.get("13", "corpus", "cfg", 0) == make_record("13", wer=0.4)
        assert len(reloaded) == 2
        assert reloaded.skipped_lines == 0

    @pytest.mark.parametrize("line", ["42", "null", "[1, 2]", '"text"'])
    def test_counts_json_that_is_not_a_record(self, tmp_path, line):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write(line + "\n")
        reloaded = ResultsCache(path)
        assert len(reloaded) == 1
        assert reloaded.skipped_lines == 1

    def test_line_holds_the_task_seconds_and_reads_back_as_the_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        record, other = make_record("12", wer=0.5), make_record("12", seed=1)
        ResultsCache(path).put(record, 1.5)
        ResultsCache(path).put(other)
        assert path.read_text().splitlines() == [
            json.dumps({**r.to_dict(), "wall_time": t}, sort_keys=True)
            for r, t in ((record, 1.5), (other, 0.0))]
        assert ResultsCache(path).get("12", "corpus", "cfg", 0) == record

    def test_memory_only_mode(self):
        cache = ResultsCache(None)
        cache.put(make_record("12"))
        assert cache.get("12", "corpus", "cfg", 0) is not None


def _mixed_cache(path):
    """A cache shared by three configs and two corpora; returns its lines."""
    cache = ResultsCache(path)
    for i, (label, config, corpus) in enumerate(itertools.product(
            ("12", "13", "234"), ("cfg", "other", "third"), ("corpus", "elsewhere"))):
        for seed in (0, 1):
            record = make_record(label, wer=0.1 * i + seed, per_total=0.01 * i, seed=seed,
                                 per_category=report_from_rates({"vowels": 0.2, "stops": i}))
            cache.put(replace(record, config_hash=config, corpus_hash=corpus), 0.5 + i)
    return path.read_text().splitlines()


class TestLazyResultsCache:
    def test_decodes_only_the_read_scope_and_each_record_once(self, tmp_path, monkeypatch):
        path = tmp_path / "cache.jsonl"
        scope = [(d["subset"], d["corpus_hash"], d["config_hash"], d["seed"])
                 for d in map(json.loads, _mixed_cache(path))
                 if (d["corpus_hash"], d["config_hash"]) == ("corpus", "cfg")]
        assert len(scope) == 6
        decoded = []
        real_from_dict = EvalRecord.from_dict

        def counting_from_dict(d):
            decoded.append((d["subset"], d["corpus_hash"], d["config_hash"], d["seed"]))
            return real_from_dict(d)

        monkeypatch.setattr(EvalRecord, "from_dict", staticmethod(counting_from_dict))
        cache = ResultsCache(path)
        assert decoded == []
        for _ in range(3):
            assert cache.get("12", "corpus", "cfg", 0) is not None
            assert cache.get("234", "corpus", "cfg", 1) is not None
            assert cache.get("34", "corpus", "cfg", 0) is None
        assert decoded == scope  # in file order, each once; no other scope's record

    def test_get_equals_an_eager_decode_of_every_line(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = _mixed_cache(path)
        cache = ResultsCache(path)
        assert len(cache) == len(lines) == 36
        for line in lines:
            eager = EvalRecord.from_dict(json.loads(line))
            assert cache.get(eager.subset_label, eager.corpus_hash, eager.config_hash,
                             eager.seed) == eager
        assert cache.skipped_lines == 0

    def test_broken_body_is_counted_when_its_scope_is_read(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("1", wer=0.5))
        broken = {**make_record("12").to_dict(), "wer": "x"}
        with open(path, "a") as fh:
            fh.write(json.dumps(broken, sort_keys=True) + "\n")  # the canonical head
        cache = ResultsCache(path)
        assert cache.skipped_lines == 0
        assert cache.get("1", "corpus", "cfg", 0) == make_record("1", wer=0.5)
        assert cache.skipped_lines == 1  # no get has asked for "12"
        assert len(cache) == 1
        cache.put(make_record("12", wer=0.25))
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.25)
        assert cache.skipped_lines == 1

    def test_later_broken_line_of_a_key_removes_the_earlier_record(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write(json.dumps({**make_record("12").to_dict(), "wer": "x"}) + "\n")
        cache = ResultsCache(path)
        assert cache.get("12", "corpus", "cfg", 0) is None
        assert cache.skipped_lines == 1
        assert len(cache) == 0

    @pytest.mark.parametrize("field, value", [("wer", "x"), ("per_category", 5)])
    def test_keyed_line_with_broken_body_is_a_counted_miss(self, tmp_path, field, value):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        broken = {**make_record("13").to_dict(), field: value}
        with open(path, "a") as fh:
            fh.write(json.dumps(broken) + "\n")
        cache = ResultsCache(path)
        assert cache.skipped_lines == 0
        assert cache.get("13", "corpus", "cfg", 0) is None
        assert cache.skipped_lines == 1
        assert cache.get("13", "corpus", "cfg", 0) is None
        assert cache.skipped_lines == 1  # counted once, then gone
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.5)
        cache.put(make_record("13", wer=0.25))
        assert cache.get("13", "corpus", "cfg", 0) == make_record("13", wer=0.25)


class TestScopedResultsCache:
    def test_parses_only_the_read_scope_and_the_noncanonical_lines(self, tmp_path,
                                                                   monkeypatch):
        path = tmp_path / "cache.jsonl"
        lines = _mixed_cache(path)
        scope = [line for line in lines
                 if '"config_hash": "other", "corpus_hash": "elsewhere"' in line]
        assert len(scope) == 6
        reordered = json.dumps(make_record("9", seed=3).to_dict())  # keys unsorted
        with open(path, "a") as fh:
            fh.write(f"{reordered}\n{{not json\n42\n")
        parsed = []
        real_loads = json.loads

        def counting_loads(text, *args, **kwargs):
            parsed.append(text)
            return real_loads(text, *args, **kwargs)

        monkeypatch.setattr(json, "loads", counting_loads)
        cache = ResultsCache(path)
        assert [text.strip() for text in parsed] == [reordered, "{not json", "42"]
        assert cache.skipped_lines == 2
        parsed.clear()
        for label, seed in (("13", 1), ("234", 0), ("12", 1)):
            assert cache.get(label, "elsewhere", "other", seed) is not None
        assert [text.strip() for text in parsed] == scope
        parsed.clear()
        assert cache.get("9", "corpus", "cfg", 3) == make_record("9", seed=3)
        # its canonical lines, then the reordered one, parsed again on being read back
        assert [text.strip() for text in parsed] == [
            line for line in lines
            if line.startswith('{"config_hash": "cfg", "corpus_hash": "corpus", ')] + [reordered]
        assert cache.skipped_lines == 2

    def test_unsorted_line_of_the_running_config_is_served(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        with open(path, "a") as fh:
            fh.write(json.dumps(make_record("13", wer=0.25).to_dict()) + "\n")
            fh.write(json.dumps(make_record("12", wer=0.75).to_dict(), indent=1)
                     .replace("\n", "") + "\n")  # a later copy of "12"
        cache = ResultsCache(path)
        assert cache.get("13", "corpus", "cfg", 0) == make_record("13", wer=0.25)
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.75)
        assert cache.skipped_lines == 0
        assert len(cache) == 2

    @pytest.mark.parametrize("tail", [True, False])
    def test_running_config_line_torn_after_its_head_is_counted_once(self, tmp_path, tail):
        path = tmp_path / "cache.jsonl"
        first = ResultsCache(path)
        first.put(make_record("12", wer=0.5))
        line = json.dumps(make_record("13").to_dict(), sort_keys=True)
        torn = line[:line.index('"wer"')]
        with open(path, "a") as fh:
            fh.write(torn if tail else torn + "\n")
        if not tail:
            first.put(make_record("14", wer=0.25))
        cache = ResultsCache(path)
        assert cache.skipped_lines == 0  # a canonical head is not parsed at load
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.5)
        assert cache.skipped_lines == 1
        assert cache.get("13", "corpus", "cfg", 0) is None
        assert cache.skipped_lines == 1
        cache.put(make_record("13", wer=0.125))
        reloaded = ResultsCache(path)
        assert reloaded.get("13", "corpus", "cfg", 0) == make_record("13", wer=0.125)
        assert reloaded.skipped_lines == 1
        assert len(reloaded) == (2 if tail else 3)

    def test_other_config_line_torn_after_its_head_is_not_counted(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        other = replace(make_record("13"), config_hash="other")
        line = json.dumps(other.to_dict(), sort_keys=True)
        with open(path, "a") as fh:
            fh.write(line[:line.index('"wer"')] + "\n")
        ResultsCache(path).put(make_record("14", wer=0.25))
        cache = ResultsCache(path)
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.5)
        assert cache.get("14", "corpus", "cfg", 0) == make_record("14", wer=0.25)
        cache.put(make_record("15"))
        assert cache.skipped_lines == 0
        assert cache.get("13", "corpus", "other", 0) is None
        assert cache.skipped_lines == 1  # counted once its own config reads it

    def test_hash_with_an_escaped_quote_round_trips(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        odd = replace(make_record("12", wer=0.5), config_hash='a", "corpus_hash": "b',
                      corpus_hash="c\\d")
        plain = make_record("12", wer=0.25)
        cache = ResultsCache(path)
        cache.put(odd)
        cache.put(plain)
        assert '"config_hash": "a\\", \\"corpus_hash\\": \\"b"' in path.read_text()
        reloaded = ResultsCache(path)
        assert reloaded.get("12", 'c\\d', 'a", "corpus_hash": "b', 0) == odd
        assert reloaded.get("12", "corpus", "cfg", 0) == plain
        assert reloaded.get("12", "b", 'a\\', 0) is None
        assert reloaded.skipped_lines == 0
        assert len(reloaded) == 2


def _other_configs_cache(path, per_category):
    """2,000 lines of 28 other configs, then 70 of the running one."""
    records = [replace(make_record(str(i), wer=0.5, seed=i, per_category=per_category),
                       config_hash=f"other {i % 28}") for i in range(2000)]
    records += [make_record(str(i), wer=0.25) for i in range(70)]
    path.write_text("".join(json.dumps(r.to_dict(), sort_keys=True) + "\n" for r in records))


class TestOffsetResultsCache:
    def test_line_that_is_not_utf8_is_counted_at_load(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = _mixed_cache(path)
        with open(path, "ab") as fh:
            fh.write(b"\xff\xfe garbage\n")
        cache = ResultsCache(path)
        assert cache.skipped_lines == 1
        assert len(cache) == len(lines)
        assert cache.get("12", "corpus", "cfg", 0) is not None
        assert cache.skipped_lines == 1

    @pytest.mark.parametrize("record, value, damaged", [
        (make_record("13"), b'"subset": "13"', b'"subset": "1\xff"'),
        # a later copy of "12" whose key cannot be read replaces nothing
        (make_record("12", wer=0.5), b'"wer": 0.5', b'"wer": \xff0.5'),
    ], ids=["key", "later-copy-value"])
    def test_byte_that_is_not_utf8_in_a_running_config_body_is_counted_once(
            self, tmp_path, record, value, damaged):
        path = tmp_path / "cache.jsonl"
        ResultsCache(path).put(make_record("12", wer=0.5))
        line = json.dumps(record.to_dict(), sort_keys=True).encode()
        assert value in line
        with open(path, "ab") as fh:
            fh.write(line.replace(value, damaged) + b"\n")
        ResultsCache(path).put(make_record("14", wer=0.25))
        cache = ResultsCache(path)
        assert cache.skipped_lines == 0  # behind a canonical head: not read at load
        assert cache.get("12", "corpus", "cfg", 0) == make_record("12", wer=0.5)
        assert cache.skipped_lines == 1
        assert cache.get("14", "corpus", "cfg", 0) == make_record("14", wer=0.25)
        assert cache.get("13", "corpus", "cfg", 0) is None
        assert len(cache) == 2
        assert cache.skipped_lines == 1

    def test_load_does_not_grow_with_other_configs_lines(self, tmp_path):
        rates = {f"category {i}": 0.01 * i for i in range(20)}
        short, long = tmp_path / "short.jsonl", tmp_path / "long.jsonl"
        _other_configs_cache(short, None)
        _other_configs_cache(long, report_from_rates(rates))
        assert long.stat().st_size > 3 * short.stat().st_size

        def peak(path):
            # a first load outside the trace, so both traces start from the
            # same interpreter state (imports, free lists)
            assert ResultsCache(path).get("0", "corpus", "cfg", 0) is not None
            tracemalloc.start()
            try:
                assert ResultsCache(path).get("0", "corpus", "cfg", 0) is not None
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(long) <= 1.25 * peak(short)

    def test_offsets_stay_valid_after_torn_tail_repair_and_put(self, tmp_path):
        path = tmp_path / "cache.jsonl"
        lines = _mixed_cache(path)
        torn = next(line for line in lines if line.startswith(
            '{"config_hash": "third", "corpus_hash": "elsewhere", '))
        with open(path, "a") as fh:
            fh.write(torn[:torn.index('"wall_time"')])
        cache = ResultsCache(path)
        added = make_record("9", wer=0.75, seed=4)
        cache.put(added)  # ends the torn tail, then appends
        assert len(cache) == len(lines) + 1
        for line in lines:
            eager = EvalRecord.from_dict(json.loads(line))
            assert cache.get(eager.subset_label, eager.corpus_hash, eager.config_hash,
                             eager.seed) == eager
        assert cache.get("9", "corpus", "cfg", 4) == added
        assert cache.skipped_lines == 1  # the torn line, read back as it was at load

    @pytest.mark.parametrize("keep", [0, 1000, None])
    def test_file_cut_short_after_load_counts_its_lines(self, tmp_path, keep):
        path = tmp_path / "cache.jsonl"
        lines = _mixed_cache(path)
        cache = ResultsCache(path)
        if keep is None:
            path.unlink()
            keep = 0
        else:
            path.write_bytes(path.read_bytes()[:keep])
        ends = itertools.accumulate(len(line.encode()) + 1 for line in lines)
        readable = sum(end <= keep for end in ends)
        assert (readable > 0) == (keep > 0)
        assert len(cache) == readable
        assert cache.skipped_lines == len(lines) - readable
        for line in lines:
            d = json.loads(line)
            cache.get(d["subset"], d["corpus_hash"], d["config_hash"], d["seed"])
        assert cache.skipped_lines == len(lines) - readable


def _blas(library: str) -> tuple:
    """numpy's bundled OpenBLAS thread getter and setter."""
    blas = ctypes.CDLL(library)
    get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


def _worker_blas_threads() -> int:
    return _blas(search._openblas_library())[0]()


class TestPoolWorkerThreads:
    def test_pool_worker_runs_one_blas_thread(self):
        library = search._openblas_library()
        if library is None:
            pytest.skip("numpy has no bundled scipy-openblas library")
        get_threads, set_threads = _blas(library)
        before = get_threads()
        set_threads(2)
        try:
            assert get_threads() == 2
            with ProcessPoolExecutor(max_workers=1, initializer=search._init_worker,
                                     initargs=(None, library)) as pool:
                assert pool.submit(_worker_blas_threads).result(timeout=60) == 1
        finally:
            set_threads(before)

    def test_numpy_without_thread_setter_warns_once(self, tmp_path, monkeypatch, capsys):
        """A numpy with no ``numpy.libs`` beside it: no library, and one
        warning naming the directory, however often the lookup is asked."""
        fake_numpy_without_thread_setter(monkeypatch, tmp_path)
        assert search._openblas_library() is None
        assert search._openblas_library() is None
        err = capsys.readouterr().err
        assert err == no_thread_setter_note()
        assert str(tmp_path / "numpy.libs") in err

    def test_library_that_does_not_load_is_passed_over(self, tmp_path, monkeypatch, capsys):
        """An empty ``libscipy_openblas64_0.so`` fails to load; the lookup
        goes on to the next library in name order and prints nothing."""
        library = search._openblas_library()
        if library is None:
            pytest.skip("numpy has no bundled scipy-openblas library")
        search._openblas_library.cache_clear()
        fake_numpy_without_thread_setter(monkeypatch, tmp_path)
        libs = tmp_path.resolve() / "numpy.libs"
        libs.mkdir()
        (libs / "libscipy_openblas64_0.so").write_bytes(b"")
        (libs / "libscipy_openblas64_1.so").symlink_to(library)
        capsys.readouterr()
        assert search._openblas_library() == str(libs / "libscipy_openblas64_1.so")
        assert capsys.readouterr().err == ""


def _uniform_row(n: int) -> list[float]:
    """``n`` seeded floats in [0, 1000)."""
    return (np.random.default_rng(n).random(n) * 1e3).tolist()


class TestTrainingEvaluator:
    def test_deterministic_and_cached(self, tmp_path):
        corpus = search_corpus()
        ev = make_evaluator(corpus, tmp_path)
        subset = ChannelSubset((0, 1))
        first = ev.evaluate_many([subset])[subset.label]
        assert ev.training_runs == 1
        again = ev.evaluate_many([subset])[subset.label]
        assert ev.training_runs == 1  # cache hit
        assert again == first

    def test_warm_cache_replay_runs_zero_trainings(self, tmp_path):
        corpus = search_corpus()
        ev1 = make_evaluator(corpus, tmp_path)
        trace1 = backward_elimination(ev1, 3, 1, metric="per_total")
        assert ev1.training_runs == 3 + 2

        ev2 = make_evaluator(corpus, tmp_path)  # same cache file
        trace2 = backward_elimination(ev2, 3, 1, metric="per_total")
        assert ev2.training_runs == 0
        assert trace2 == trace1

    def test_replicates_aggregate_and_resume_incrementally(self, tmp_path):
        corpus = search_corpus()
        subset = ChannelSubset((0, 2))
        ev1 = make_evaluator(corpus, tmp_path, replicates=1)
        single = ev1.evaluate_many([subset])[subset.label]
        assert single.n_seeds == 1

        ev3 = make_evaluator(corpus, tmp_path, replicates=3)
        agg = ev3.evaluate_many([subset])[subset.label]
        assert ev3.training_runs == 2  # replicate 0 reused from cache
        assert agg.n_seeds == 3
        per_seed = [
            ev3.cache.get(subset.label, ev3.corpus_hash, ev3.config_hash, r).per_total
            for r in range(3)
        ]
        assert agg.per_total == pytest.approx(sum(per_seed) / 3)

    def test_aggregate_is_np_mean_of_each_rate_to_the_bit(self):
        # nine replicates: numpy sums a contiguous list pairwise, and a
        # running sum over the replicates would differ in the last bits
        ev = make_evaluator(search_corpus())
        rng = np.random.default_rng(7)
        per_seed = [make_record("12", *rng.random(2),
                                report_from_rates(dict(zip("abc", rng.random(3)))), seed=r)
                    for r in range(9)]
        agg = ev._aggregate(per_seed)
        assert (agg.seed, agg.n_seeds) == (ev.train_cfg.seed, 9)
        assert [agg.wer, agg.per_total, *(row.rate for row in agg.per_category.rows)] == [
            float(np.mean([getattr(r, name) for r in per_seed])) for name in ("wer", "per_total")
        ] + [float(np.mean([r.per_category.rate_of(c) for r in per_seed])) for c in "abc"]

    def test_replicate_mean_is_numpys_to_the_bit(self):
        # from 8 values numpy sums pairwise with 8 accumulators in blocks of
        # 128; a running or compensated sum differs in the last bits
        ev = make_evaluator(search_corpus())

        @given(st.lists(st.one_of(st.just(0.0), st.sampled_from([0.25, 1 / 3, 0.7]),
                                  st.floats(0.0, 1e3)), min_size=1, max_size=300))
        # above 128 values numpy adds the sums of two halves; the strategy
        # seldom draws that many
        @example(_uniform_row(129))
        @example(_uniform_row(136))
        @example(_uniform_row(256))
        @example(_uniform_row(300))
        @example(_uniform_row(1000))
        def check(values):
            agg = ev._aggregate([make_record("12", v, v) for v in values])
            assert agg.wer == agg.per_total == np.mean(values)

        check()

    @pytest.mark.parametrize("workers, sizes", [(1, [2, 2, 2]), (2, [1, 2, 1, 2])])
    def test_stacks_cut_each_group_into_near_equal_runs(self, monkeypatch, workers, sizes):
        # a row budget of two of the largest batch: stacks of at most 2,
        # workers x ceil(n / (workers x 2)) of them per (size, replicate)
        # group, each a run of the group's canonical order
        ev = make_evaluator(search_corpus(channels=4), replicates=2, workers=workers)
        inputs = ev._task_inputs()
        monkeypatch.setattr(search, "ROWS", 2 * search.max_batch_rows(
            inputs.train_windows, inputs.train_cfg.batch_size))
        pending = [(ChannelSubset(i), r) for i in itertools.combinations(range(4), 2)
                   for r in range(2)] + [(ChannelSubset((0,)), 0)]
        stacks = ev._stacks(pending)
        assert sorted(i for stack in stacks for i in stack) == list(range(13))
        assert stacks == sorted(stacks)
        assert [12] in stacks
        for replicate in range(2):
            group = [stack for stack in stacks
                     if stack != [12] and pending[stack[0]][1] == replicate]
            assert [len(stack) for stack in group] == sizes
            assert [i for stack in group for i in stack] == list(range(replicate, 12, 2))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_are_kept_in_canonical_order(self, tmp_path, monkeypatch, workers):
        # stacks of two: those of replicates 0 and 1 interleave in canonical
        # order, and the cache still gets subset by subset, replicate by
        # replicate, whichever stack finishes first
        ev = make_evaluator(search_corpus(channels=4), tmp_path, replicates=2, workers=workers)
        inputs = ev._task_inputs()
        monkeypatch.setattr(search, "ROWS", 2 * search.max_batch_rows(
            inputs.train_windows, inputs.train_cfg.batch_size))
        subsets = [ChannelSubset(i) for i in itertools.combinations(range(4), 2)]
        with closing(ev):
            ev.evaluate_many(subsets)
        lines = (tmp_path / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        assert [(d["subset"], d["seed"]) for d in map(json.loads, lines)] == [
            (s.label, r) for s in subsets for r in (0, 1)]

    def test_task_seeds_pair_replicates_across_subsets(self):
        # same replicate -> same training randomness (paired comparisons);
        # different replicate or base seed -> fresh randomness
        a = derive_task_seeds(0, 0)
        assert derive_task_seeds(0, 0) == a
        assert derive_task_seeds(0, 1) != a
        assert derive_task_seeds(1, 0) != a

    def test_config_hash_separates_configs(self, tmp_path):
        corpus = search_corpus()
        ev_a = make_evaluator(corpus, tmp_path, epochs=2)
        ev_b = make_evaluator(corpus, tmp_path, epochs=3)
        assert ev_a.config_hash != ev_b.config_hash
        subset = ChannelSubset((0,))
        ev_a.evaluate_many([subset])[subset.label]
        ev_b.evaluate_many([subset])[subset.label]
        assert ev_a.training_runs == ev_b.training_runs == 1

    def test_every_hashed_setting_moves_the_config_hash(self):
        """Each TrainConfig field and each other argument enters the hash, so
        a setting added to TrainConfig must enter it too, or fail here."""
        train_cfg = TrainConfig()
        sizes = dict(window=3, features=8, threshold=1, n_train=12)
        reference = config_fingerprint(train_cfg, **sizes)
        moved = {int: lambda v: v + 1, float: lambda v: v / 2 if v else 0.25}
        for f in fields(TrainConfig):
            value = getattr(train_cfg, f.name)
            changed = replace(train_cfg, **{f.name: moved[type(value)](value)})
            assert config_fingerprint(changed, **sizes) != reference, f.name
        for name, value in sizes.items():
            assert config_fingerprint(train_cfg, **{**sizes, name: value + 1}) != reference, name

    @pytest.mark.parametrize("setting, message", [
        (dict(threshold=0), "threshold must be >= 1, got 0"),
        (dict(threshold=-1), "threshold must be >= 1, got -1"),
        (dict(window=0), "bad layer sizes: channels=3 window=0"),
        (dict(features=0), "bad layer sizes: channels=3 window=3 features=0"),
        (dict(replicates=0), "replicates must be >= 1, got 0"),
        (dict(workers=0), "workers must be >= 1, got 0"),
    ])
    def test_bad_settings_rejected_at_construction(self, setting, message):
        with pytest.raises(ValueError, match=message):
            replace(make_evaluator(search_corpus()), **setting)

    def test_require_cached_raises_on_miss(self, tmp_path):
        corpus = search_corpus()
        ev = make_evaluator(corpus, tmp_path)
        with pytest.raises(ValueError, match="missing"):
            ev.evaluate_many([ChannelSubset((0,))], require_cached=True)

    def test_require_cached_counts_the_missing_subsets_and_names_five(self, tmp_path):
        ev = make_evaluator(search_corpus(), tmp_path)
        subsets = [ChannelSubset(tuple(c for c in range(3) if bits >> c & 1))
                   for bits in range(1, 8)]
        with pytest.raises(ValueError, match=r"^cache is missing records for 7 of 7 subsets "
                                             r"\(1 2 12 3 13 \.\.\.\); run the sweep first$"):
            ev.evaluate_many(subsets, require_cached=True)

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("case,error,message", [
        ("silent", ValueError, "corpus reference transcripts are empty; WER undefined"),
        ("unknown", KeyError, "\"reference label 'QQ' not in the phoneme inventory\""),
        ("threshold", ValueError, "threshold must be >= 1, got 0"),
    ])
    def test_scoring_errors_name_the_subset(self, case, error, message, workers):
        # the scoring reference is built once per evaluator, but what the
        # test split cannot be scored for is still raised by the task
        ev = make_evaluator(search_corpus(), workers=workers)
        test = []
        for seq in ev.test_corpus:
            labels = {"silent": ("SIL",) * len(seq.labels),
                      "unknown": ("QQ",) + seq.labels[1:]}.get(case, seq.labels)
            test.append(LabeledSequence(seq.signal, labels))
        ev = replace(ev, test_corpus=Corpus(tuple(test)))
        if case == "threshold":
            ev.threshold = 0  # the constructor refuses it; the task refuses it too
        subset = ChannelSubset((0, 1))
        with closing(ev), pytest.raises(EvaluationError) as caught:
            ev.evaluate_many([subset])
        assert str(caught.value) == f"evaluation of subset {subset.label} failed: {message}"
        assert type(caught.value.__cause__) is error

    @pytest.mark.parametrize("dropout_p", [0.0, 0.25])
    def test_task_equals_train_and_evaluate_on_restricted_splits(self, dropout_p):
        # a stack trains its subsets in lockstep on column blocks of windows
        # built once and skips the loss passes; at every stack width, each of
        # its records must equal the restrict/featurize/train/evaluate route
        # field for field
        corpus = search_corpus(channels=4)
        ev = make_evaluator(corpus, replicates=2)
        ev = replace(ev, train_cfg=replace(ev.train_cfg, dropout_p=dropout_p))
        group = list(itertools.combinations(range(4), 2))
        for replicate in range(2):
            init_seed, train_seed = derive_task_seeds(ev.train_cfg.seed, replicate)
            expected = {}
            for indices in group:
                subset = ChannelSubset(indices)
                params = init_params(2, ev.window, ev.features,
                                     ev.train_corpus.label_alphabet(), init_seed)
                trained = train(params, ev.train_corpus.restrict(subset),
                                replace(ev.train_cfg, seed=train_seed)).params
                expected[indices] = evaluate(
                    trained, ev.test_corpus.restrict(subset), ev.table, subset=subset,
                    threshold=ev.threshold, seed=replicate, config_hash=ev.config_hash,
                    corpus_hash=ev.corpus_hash)
            for width in (1, 2, len(group)):
                for start in range(0, len(group), width):
                    stack = tuple(group[start:start + width])
                    got = search._run_stack(ev._task_inputs(), stack, replicate)
                    assert [record for record, _ in got] == [expected[i] for i in stack]

    # "channel-4": channel 4's windows are not finite in every train
    # utterance, so every subset holding it diverges at its first batch.
    # "two-steps": channel 3's windows are not finite in train utterance 7
    # (in batch 0 of epoch 0) and channel 4's in utterance 1 (in batch 2), so
    # the subsets of one stack diverge at different steps, and dead models
    # run on beside live ones to the end of the fit.
    @pytest.mark.parametrize("poison, steps", [
        ({3: range(9)}, {(0, 3): "epoch 0, batch 0"}),
        ({2: [7], 3: [1]},
         {(0, 2): "epoch 0, batch 0", (0, 3): "epoch 0, batch 2", (2, 3): "epoch 0, batch 0"}),
    ], ids=["channel-4", "two-steps"])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_a_diverging_subset_leaves_its_stack_alone(self, tmp_path, workers, poison, steps):
        # each diverged subset's error names its own step, the other subsets
        # of its stacks train on, and each record equals the subset's solo run
        ev = make_evaluator(search_corpus(channels=4), tmp_path, workers=workers)
        clean = ev._task_inputs()
        poisoned = [xw.copy() for xw in clean.train_windows]
        for channel, utterances in poison.items():
            for u in utterances:
                poisoned[u][:, channel * ev.window:(channel + 1) * ev.window] = np.inf
        ev._inputs = inputs = replace(clean, train_windows=tuple(poisoned))
        group = list(itertools.combinations(range(4), 2))
        assert len(ev._stacks([(ChannelSubset(i), 0) for i in group])) == workers
        solo = {i: search._run_stack(inputs, (i,), 0)[0] for i in group}
        failed = [i for i in group if not poison.keys().isdisjoint(i)]
        assert all(type(solo[i]) is TrainingDivergedError for i in failed)
        for indices, step in steps.items():
            assert str(solo[indices]) == f"non-finite loss nan at {step}"
        stacked = search._run_stack(inputs, tuple(group), 0)
        for indices, got in zip(group, stacked):
            if indices in failed:
                assert (type(got), str(got)) == (TrainingDivergedError, str(solo[indices]))
            else:
                assert got[0] == solo[indices][0]
        with closing(ev), pytest.raises(EvaluationError) as caught:
            ev.evaluate_many([ChannelSubset(i) for i in group])
        first = ChannelSubset(failed[0]).label
        assert str(caught.value) == f"evaluation of subset {first} failed: {solo[failed[0]]}"
        assert ev.training_runs == len(group) - len(failed)
        for indices in group:
            kept = ev.cache.get(ChannelSubset(indices).label, ev.corpus_hash, ev.config_hash, 0)
            if indices in failed:
                assert kept is None
            else:
                assert kept == solo[indices][0]

    def test_a_diverged_slot_keeps_its_error_when_scoring_fails(self, tmp_path):
        # every slot of a stack is scored, a diverged one from its start,
        # so a scoring error replaces only the trained slots' outcomes
        ev = make_evaluator(search_corpus(channels=4), tmp_path)
        clean = ev._task_inputs()
        poisoned = [xw.copy() for xw in clean.train_windows]
        poisoned[7][:, 2 * ev.window:3 * ev.window] = np.inf
        inputs = replace(clean, train_windows=tuple(poisoned), threshold=0)
        mixed = search._run_stack(inputs, ((0, 1), (0, 2), (1, 2)), 0)
        assert [type(got) for got in mixed] == [ValueError, TrainingDivergedError,
                                                TrainingDivergedError]
        assert str(mixed[0]) == "threshold must be >= 1, got 0"
        diverged = search._run_stack(inputs, ((0, 2), (1, 2)), 0)
        assert [(type(got), str(got)) for got in diverged] == [
            (type(got), str(got)) for got in mixed[1:]]

    def test_pool_failure_cancels_queued_tasks_and_keeps_finished(self, tmp_path,
                                                                  monkeypatch):
        # forked workers inherit the patched task: the first task fails at
        # once, every other one takes a while, so a prompt stop leaves most
        # of the queue unstarted
        corpus = search_corpus()
        ev = make_evaluator(corpus, tmp_path, replicates=4, workers=2)
        started = tmp_path / "started.txt"
        real_stack = search._run_stack

        def flaky_stack(inputs, stack, replicate):
            with open(started, "a", encoding="utf-8") as fh:
                fh.writelines(f"{indices}/{replicate}\n" for indices in stack)
            if replicate == 0 and (0,) in stack:
                rest = tuple(indices for indices in stack if indices != (0,))
                records = iter(real_stack(inputs, rest, replicate) if rest else ())
                return [RuntimeError("injected failure") if indices == (0,) else next(records)
                        for indices in stack]
            time.sleep(0.5)
            return real_stack(inputs, stack, replicate)

        monkeypatch.setattr(search, "_run_stack", flaky_stack)
        with pytest.raises(EvaluationError, match="subset 1 failed: injected failure"):
            ev.evaluate_many([ChannelSubset((c,)) for c in range(3)])
        n_started = len(started.read_text(encoding="utf-8").splitlines())
        assert n_started < 12
        kept = ResultsCache(tmp_path / "cache.jsonl")
        assert len(kept) == ev.training_runs == n_started - 1

    def test_pool_interrupt_cancels_queued_tasks_and_keeps_started(self, tmp_path,
                                                                   monkeypatch):
        # Ctrl-C in the parent after the first kept record: the queue must
        # not drain, and every task that did start must be cached
        corpus = search_corpus()
        ev = make_evaluator(corpus, tmp_path, replicates=4, workers=2)
        started = tmp_path / "started.txt"
        real_stack = search._run_stack
        real_keep = ev._keep
        keeps = []

        def slow_stack(inputs, stack, replicate):
            with open(started, "a", encoding="utf-8") as fh:
                fh.writelines(f"{ChannelSubset(indices).label} {replicate}\n"
                              for indices in stack)
            time.sleep(0.5)
            return real_stack(inputs, stack, replicate)

        def interrupted_keep(record, seconds):
            keeps.append(record)
            if len(keeps) == 2:
                raise KeyboardInterrupt
            real_keep(record, seconds)

        monkeypatch.setattr(search, "_run_stack", slow_stack)
        monkeypatch.setattr(ev, "_keep", interrupted_keep)
        with pytest.raises(KeyboardInterrupt):
            ev.evaluate_many([ChannelSubset((c,)) for c in range(3)])
        tasks = [line.split() for line in started.read_text(encoding="utf-8").splitlines()]
        assert len(tasks) < 12
        kept = ResultsCache(tmp_path / "cache.jsonl")
        assert len(kept) == ev.training_runs == len(tasks)
        for label, replicate in tasks:
            assert kept.get(label, ev.corpus_hash, ev.config_hash, int(replicate)) is not None

    def test_idle_pool_workers_print_nothing_on_ctrl_c(self):
        # a terminal's Ctrl-C reaches every process of the group; a worker
        # waiting for work would otherwise die with a traceback of its own
        script = """
import time
from chansel.signals import ChannelSubset
from util import make_evaluator, search_corpus
ev = make_evaluator(search_corpus(), workers=2)
# two stacks start a pool of two workers, which then wait for work
ev.evaluate_many([ChannelSubset((0,)), ChannelSubset((1,))])
try:
    print("idle", flush=True)
    time.sleep(60)
except KeyboardInterrupt:
    ev.close()
"""
        paths = (Path(search.__file__).parents[1], Path(__file__).parent)
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, paths))}
        run = subprocess.Popen([sys.executable, "-c", script], env=env, stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            assert run.stdout.readline() == "idle\n"
            os.killpg(run.pid, signal.SIGINT)
            err = run.communicate(timeout=60)[1]
        finally:
            run.kill()
        assert (run.returncode, err) == (0, "")

    def test_pool_failure_names_the_canonically_first_failed_task(self, tmp_path,
                                                                  monkeypatch):
        # subsets 1 and 3 both fail, 1 only after 3 has: the error must name
        # 1, as the serial path does, and the pool keeps what finished
        corpus = search_corpus()
        ev = make_evaluator(corpus, tmp_path, workers=2)
        real_stack = search._run_stack

        def failing_stack(inputs, stack, replicate):
            if (0,) in stack:
                time.sleep(1.0)
            rest = tuple(indices for indices in stack if indices not in ((0,), (2,)))
            records = iter(real_stack(inputs, rest, replicate) if rest else ())
            return [RuntimeError(f"injected failure {indices}") if indices in ((0,), (2,))
                    else next(records) for indices in stack]

        monkeypatch.setattr(search, "_run_stack", failing_stack)
        with closing(ev), pytest.raises(EvaluationError,
                                        match=r"subset 1 failed: injected failure \(0,\)"):
            ev.evaluate_many([ChannelSubset((c,)) for c in range(3)])
        assert ev.training_runs == 1


def _count_pool_starts(monkeypatch) -> list:
    """Replace the evaluator's pool class with one that logs each start."""
    starts = []

    class CountingPool(ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            starts.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(search, "ProcessPoolExecutor", CountingPool)
    return starts


class TestPoolLifetime:
    def test_backward_elimination_starts_one_pool_and_closes_it(self, tmp_path,
                                                                monkeypatch):
        corpus = search_corpus(channels=4)
        serial = backward_elimination(make_evaluator(corpus, tmp_path / "serial"), 4, 1,
                                      metric="per_total")
        # imported on first read: the real class until the name is assigned
        assert search.ProcessPoolExecutor is ProcessPoolExecutor
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(corpus, tmp_path / "pool", workers=2)
        assert backward_elimination(ev, 4, 1, metric="per_total") == serial
        assert ev.training_runs == 4 + 3 + 2
        assert starts == [2]
        assert multiprocessing.active_children() == []

    def test_failed_step_closes_the_one_pool(self, tmp_path, monkeypatch):
        # forked workers inherit the patched task: the first step trains,
        # every task of the second step fails
        real_stack = search._run_stack

        def fails_on_one_channel(inputs, stack, replicate):
            if len(stack[0]) == 1:
                raise RuntimeError("injected failure")
            return real_stack(inputs, stack, replicate)

        monkeypatch.setattr(search, "_run_stack", fails_on_one_channel)
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(search_corpus(), tmp_path, workers=2)
        with pytest.raises(EvaluationError, match="injected failure"):
            backward_elimination(ev, 3, 1, metric="per_total")
        assert ev.training_runs == 3
        assert starts == [2]
        assert multiprocessing.active_children() == []

    def test_cached_batch_starts_no_pool(self, tmp_path, monkeypatch):
        corpus = search_corpus()
        subsets = [ChannelSubset((c,)) for c in range(3)]
        make_evaluator(corpus, tmp_path).evaluate_many(subsets)
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(corpus, tmp_path, workers=2)
        ev.evaluate_many(subsets)
        assert ev.training_runs == 0
        assert starts == []

    def test_close_is_idempotent_and_a_later_batch_starts_a_new_pool(self, tmp_path,
                                                                     monkeypatch):
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(search_corpus(), tmp_path, workers=2)
        ev.evaluate_many([ChannelSubset((0,))])
        ev.evaluate_many([ChannelSubset((1,))])
        assert starts == [1]
        ev.close()
        ev.close()
        assert multiprocessing.active_children() == []
        ev.evaluate_many([ChannelSubset((2,))])
        assert starts == [1, 1]
        ev.close()
        assert ev.training_runs == 3
        assert multiprocessing.active_children() == []

    def test_a_pool_starts_one_worker_per_stack_of_its_first_batch(self, tmp_path,
                                                                  monkeypatch):
        # a fork pool starts all its workers at the first submit, so a batch
        # of two stacks on four workers would leave two of them idle
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(search_corpus(), tmp_path, workers=4)
        with closing(ev):
            ev.evaluate_many([ChannelSubset((0,)), ChannelSubset((1,))])
            assert starts == [2]
            assert len(ev._pool._processes) == 2
        assert multiprocessing.active_children() == []

    def test_a_batch_wider_than_the_pool_starts_a_wider_one(self, tmp_path, monkeypatch):
        # a resumed elimination whose first step is cached but for one
        # subset: that step starts one worker, the next step's two stacks two
        corpus = search_corpus(channels=4)
        make_evaluator(corpus, tmp_path).evaluate_many(
            [ChannelSubset(c) for c in ((0, 1, 2), (0, 1, 3), (0, 2, 3))])
        serial = backward_elimination(make_evaluator(corpus, tmp_path / "serial"), 4, 2,
                                      metric="per_total")
        starts = _count_pool_starts(monkeypatch)
        ev = make_evaluator(corpus, tmp_path, workers=2)
        assert backward_elimination(ev, 4, 2, metric="per_total") == serial
        assert ev.training_runs == 1 + 3
        assert starts == [1, 2]
        assert multiprocessing.active_children() == []


REPLICA = Path(__file__).parents[1] / "perfbench" / "replica.py"


def _replica_calls() -> dict[tuple[str, ...], set[str]]:
    """Each chansel name ``perfbench/replica.py`` reads, as a module and an
    attribute chain, with the keyword names it passes when it calls it: the
    names of its ``from chansel.<module> import`` lines, the modules of its
    ``from chansel import`` line, and every attribute chain it reads from
    those modules."""
    tree = ast.parse(REPLICA.read_text())
    modules: dict[str, str] = {}
    calls: dict[tuple[str, ...], set[str]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "chansel":
            for alias in node.names:
                modules[alias.asname or alias.name] = f"chansel.{alias.name}"
                calls[(f"chansel.{alias.name}",)] = set()
        elif isinstance(node, ast.ImportFrom) and node.module.startswith("chansel."):
            for alias in node.names:
                calls[(node.module, alias.name)] = set()

    def chain(node) -> tuple[str, ...] | None:
        if isinstance(node, ast.Attribute):
            head = chain(node.value)
            return head and (*head, node.attr)
        return (modules[node.id],) if isinstance(node, ast.Name) and node.id in modules else None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (path := chain(node)):
            calls.setdefault(path, set())
        if isinstance(node, ast.Call) and (path := chain(node.func)):
            calls.setdefault(path, set()).update(kw.arg for kw in node.keywords)
    return calls


def test_benchmark_replica_names_resolve(tmp_path):
    """The traced benchmark runs ``perfbench/replica.py`` on this checkout's
    ``src/``; a name it reads that the library drops breaks only that run."""
    calls = _replica_calls()
    assert ("chansel.model", "predict_labels") in calls  # the walk finds the module reads
    assert calls[("chansel.search", "TrainingEvaluator")] >= {"train_corpus", "workers", "cache"}
    for (module, *attrs), keywords in calls.items():
        obj = importlib.import_module(module)
        for attr in attrs:
            assert hasattr(obj, attr), ".".join((module, *attrs))
            obj = getattr(obj, attr)
        if keywords:
            inspect.signature(obj).bind_partial(**dict.fromkeys(keywords))
    # what the replica calls on instances, which the walk cannot resolve
    for cls, method in ((Corpus, "restrict"), (Corpus, "split"), (Corpus, "label_alphabet"),
                        (ResultsCache, "get"), (ResultsCache, "put"), (ResultsCache, "__len__")):
        assert callable(getattr(cls, method, None)), f"{cls.__name__}.{method}"
    inspect.signature(TrainingEvaluator.evaluate_many).bind_partial(None, [], require_cached=True)
    # what the replica and the untimed benchmark read from instances and
    # from the lines a cache writes; workloads.py reads each line's wall_time
    # as well
    corpus = search_corpus()
    seq = corpus.sequences[0]
    for obj, attrs in ((corpus, ("content_hash", "channels")),
                       (seq, ("transcript", "labels", "signal")), (seq.signal, ("samples",)),
                       (make_evaluator(corpus),
                        ("cache", "corpus_hash", "config_hash", "replicates"))):
        for attr in attrs:
            assert hasattr(obj, attr), f"{type(obj).__name__}.{attr}"
    for cls, names in ((TrainResult, {"params", "epoch_losses"}),
                       (SweepResult, {"records", "metric_name"})):
        assert names <= {f.name for f in fields(cls)}, cls.__name__
    ResultsCache(tmp_path / "cache.jsonl").put(make_record("1"))
    assert {"subset", "seed", "config_hash", "corpus_hash", "wall_time"} <= set(
        json.loads((tmp_path / "cache.jsonl").read_text()))


class TestSevenChannelAblation:
    def test_two_channels_two_evaluations(self):
        metrics = {"1": 0.4, "2": 0.6, "12": 0.2}
        report = report_from_rates({"vowel": 0.1})

        class Ev:
            calls = 0

            def evaluate_many(self, subsets):
                Ev.calls += len(subsets)
                return {s.label: make_record(s.label, wer=metrics[s.label], per_category=report)
                        for s in subsets}

            def close(self):
                pass

        result = seven_channel_ablation(Ev(), 2)
        assert Ev.calls == 3  # the full set and the two drop-one subsets
        assert set(result.records) == {1, 2}

    def test_worst_channel_rows_from_hand_reports(self):
        reports = {
            "23": report_from_rates({"vowel": 0.30, "consonant": 0.15}),  # removed 1
            "13": report_from_rates({"vowel": 0.20, "consonant": 0.35}),  # removed 2
            "12": report_from_rates({"vowel": 0.25, "consonant": 0.10}),  # removed 3
            "123": report_from_rates({"vowel": 0.18, "consonant": 0.12}),  # baseline
        }

        class Ev:
            def evaluate_many(self, subsets):
                return {s.label: make_record(s.label, per_category=reports[s.label])
                        for s in subsets}

            def close(self):
                pass

        result = seven_channel_ablation(Ev(), 3)
        by_name = {row.category: row for row in result.rows}
        assert by_name["vowel"].channel == 1 and by_name["vowel"].worst_rate == 0.30
        assert by_name["consonant"].channel == 2 and by_name["consonant"].worst_rate == 0.35

    def test_single_channel_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            seven_channel_ablation(FakeEvaluator(lambda s: 0.1), 1)

    def test_full_set_and_drop_one_subsets_are_one_batch(self):
        batches, returned = [], []

        class Ev(FakeEvaluator):
            def evaluate_many(self, subsets):
                batches.append([s.label for s in subsets])
                returned.append(super().evaluate_many(subsets))
                return returned[-1]

        result = seven_channel_ablation(Ev(lambda s: 0.1 * len(s)), 4)
        assert batches == [["1234", "234", "134", "124", "123"]]
        assert result.baseline is returned[0]["1234"]
        assert {ch: rec.subset_label for ch, rec in result.records.items()} == {
            1: "234", 2: "134", 3: "124", 4: "123"}

    def test_planted_exclusive_channel_is_most_critical(self, tmp_path):
        # channel 0 is the only carrier of class B; removing it must maximise
        # the PER of every category containing B (the generator is the oracle)
        cfg = GeneratorConfig(
            channels=3,
            classes=("B", "IY", "T"),
            weights=(1.0, 0.9, 0.9),
            noise_sigma=0.25,
            frames_per_segment=6,
            segments_per_utterance=6,
            utterances=60,
            seed=11,
            channel_classes=((0,), (1, 2), (1, 2)),
        )
        corpus = generate(cfg)
        train_c, test_c = corpus.split(0.5)
        ev = TrainingEvaluator(
            train_corpus=train_c, test_corpus=test_c, table=default_table(),
            train_cfg=TrainConfig(learning_rate=0.6, epochs=20, batch_size=8, seed=0),
            corpus_hash=corpus.content_hash, window=5, features=16,
            replicates=2, threshold=1, workers=1,
            cache=ResultsCache(tmp_path / "cache.jsonl"),
        )
        result = seven_channel_ablation(ev, 3)
        by_name = {row.category: row for row in result.rows}
        for name in ("place_bilabial", "manner_plosive"):  # B is their only member here
            assert by_name[name].channel == 1, by_name[name]
