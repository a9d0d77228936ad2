"""Self-tests for the benchmark's own helpers and for BENCHMARK.json.

Run with ``python -m pytest perfbench`` from the repository root."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

from benchlib import (  # noqa: E402
    kendall_tau, relative_iqr, tail_percentile, unstolen_wall, valid_name, valid_unit,
)
from replica import PER_LAYER  # noqa: E402
from workloads import (  # noqa: E402
    ELIM_TASKS, LADDER, SWEEP_TASKS, WORKLOADS, _elimination_tau, bench_config, planted_weights,
)


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(range(1, 11)) is None
    assert tail_percentile(range(1, 21)) is None  # p75 leaves only 5 beyond
    assert tail_percentile(range(1, 41)) == (75.0, 30)
    assert tail_percentile(range(1, 101)) == (90.0, 90)
    assert tail_percentile(range(1, 201)) == (95.0, 190)
    assert tail_percentile(range(1, 1001)) == (99.0, 990)
    assert tail_percentile(list(range(10000, 0, -1))) == (99.9, 9990)


@pytest.mark.parametrize("name", ["wall_s", "model.step_ms", "9lives", "a-b.c_d", "x" * 64])
def test_valid_names(name):
    assert valid_name(name)


@pytest.mark.parametrize("name", ["", "_x", ".x", "a b", "a/b", "é", "x" * 65])
def test_invalid_names(name):
    assert not valid_name(name)


def test_units():
    for unit in ("ms", "s", "1/s", "count", "%", "MB", "ratio"):
        assert valid_unit(unit)
    for unit in ("", "a b", "x" * 17, "s*"):
        assert not valid_unit(unit)


def test_kendall_tau_hand_computed():
    # one discordant pair out of six: (5 - 1) / 6
    assert kendall_tau([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(2 / 3)
    # five pairs ordered by x; four concordant, one tied in y: 4 / 5
    assert kendall_tau([1, 2, 2, 3], [1, 2, 3, 3]) == pytest.approx(0.8)
    # tiers: any order inside a tier scores 1; one cross-tier swap of four pairs
    assert kendall_tau([2, 2, 1, 1], [3, 4, 2, 1]) == 1.0
    assert kendall_tau([2, 2, 1, 1], [4, 2, 3, 1]) == pytest.approx(0.5)
    assert kendall_tau([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)
    with pytest.raises(ValueError):
        kendall_tau([1, 1, 1], [1, 2, 3])


def test_unstolen_wall_divides_steal_over_runnable_threads():
    assert unstolen_wall(3.0, 3.0, 0.0) == 3.0
    assert unstolen_wall(4.0, 3.0, 1.0) == pytest.approx(3.0)  # serial: all of it
    assert unstolen_wall(3.0, 5.0, 1.0) == pytest.approx(2.5)  # two runnable threads
    assert unstolen_wall(3.0, 0.1, 0.1) == pytest.approx(2.9)  # mostly idle: at least one


def test_relative_iqr_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 12.0, 10.0, 9.5, 11.5, 10.2, 10.8]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert relative_iqr(values) == pytest.approx((q3 - q1) / q2)


def test_elimination_tau_perfect_order():
    weights = planted_weights(3)
    weakest_first = sorted(range(len(weights)), key=lambda c: (weights[c], c))
    steps = [{"removed_channel": c + 1} for c in weakest_first[:-2]]
    assert _elimination_tau(json.dumps({"steps": steps}), weights) == 1.0
    steps[-1] = {"removed_channel": weakest_first[-1] + 1}  # a 0.6 outlives a 1.0
    assert _elimination_tau(json.dumps({"steps": steps}), weights) < 1.0


def test_seed_changes_the_generated_corpus():
    from chansel.synth import GeneratorConfig, generate

    def corpus_hash(seed: int) -> str:
        return generate(GeneratorConfig.from_dict(bench_config(seed)["generator"])).content_hash

    assert corpus_hash(1) == corpus_hash(1)
    assert corpus_hash(1) != corpus_hash(2)
    assert sorted(planted_weights(1)) == sorted(LADDER)


def test_task_counts():
    assert SWEEP_TASKS == 70
    assert ELIM_TASKS == 33


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in doc["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        (name, unit, better) for name, (unit, better, _) in PER_LAYER.items()]
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    names += [w["name"] for w in doc["workloads"]]
    assert len(names) == len(set(names))
    assert all(valid_name(n) for n in names)
    assert all(valid_unit(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in doc["end_to_end"])
    setup = next(m for m in doc["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in doc["end_to_end"])
