import argparse
import copy
import hashlib
import importlib
import json
import math
import os
import signal
import struct
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from chansel import cli, reports, search
from chansel.artefacts import write_text
from chansel.cli import EXIT_DATA, EXIT_DIVERGED, EXIT_INTERRUPTED, EXIT_OK, EXIT_USAGE, main
from chansel.corpus import load_corpus
from chansel.model import (
    EvalRecord, TrainConfig, evaluate, featurize, init_params, load_model, save_model,
    slice_input_channels, train,
)
from chansel.phonemes import default_table
from chansel.search import config_fingerprint
from chansel.signals import parse_subset
from chansel.synth import DEFAULT_CLASSES
from util import TINY_CONFIG, fake_numpy_without_thread_setter, no_thread_setter_note, read_all


def _cfg(workdir) -> str:
    return str(workdir / "config.json")


class TestGenData:
    def test_refuses_overwrite_without_force(self, workdir, corpus_dir, capsys):
        code = main(["gen-data", "--config", _cfg(workdir), "--out", str(corpus_dir)])
        assert code == EXIT_DATA
        assert "force" in capsys.readouterr().err

    def test_flag_overrides_config_seed(self, workdir, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        main(["gen-data", "--config", _cfg(workdir), "--out", str(out_a), "--gen-seed", "9"])
        main(["gen-data", "--config", _cfg(workdir), "--out", str(out_b)])
        assert load_corpus(out_a).content_hash != load_corpus(out_b).content_hash


class TestFinetune:
    def test_zero_epochs_on_full_set_matches_pretrain_eval(self, workdir, run_cli, pretrain_dir):
        out = workdir / "ft"
        assert run_cli("finetune", out, "--subset", "1234", "--epochs", "0",
                       "--init", str(pretrain_dir / "model_p0.json")) == EXIT_OK
        record = json.loads((out / "eval_ft_1234.json").read_text())
        # slicing to the full set is the identity, so the sliced model's file
        # payload must equal the pretrained one
        tuned = json.loads((out / "model_ft_1234.json").read_text())
        parent = json.loads((pretrain_dir / "model_p0.json").read_text())["payload_sha256"]
        assert tuned["payload_sha256"] == parent
        assert tuned["provenance"]["parent"] == parent
        assert 0.0 <= record["wer"]

    @pytest.mark.parametrize("flag, value, shape", [
        ("--window", "5", "window 3 and features 6, the config has window 5 and features 6"),
        ("--features", "4", "window 3 and features 6, the config has window 3 and features 4"),
    ], ids=["window", "features"])
    def test_init_model_must_match_config_shape(self, workdir, run_cli, pretrain_dir, capsys,
                                                flag, value, shape):
        out = workdir / "ft"
        capsys.readouterr()
        code = run_cli("finetune", out, "--subset", "13", flag, value,
                       "--init", str(pretrain_dir / "model_p0.json"), "--from-scratch")
        assert code == EXIT_DATA
        assert shape in capsys.readouterr().err
        assert read_all(out) == {}  # neither side ran

    def test_init_model_must_match_corpus_channels(self, workdir, corpus_dir, run_cli, tmp_path,
                                                   capsys):
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["generator"].update({"channels": 6, "weights": [0.8] * 6})
        cfg_path = tmp_path / "cfg6.json"
        cfg_path.write_text(json.dumps(cfg))
        corpus6, pre = tmp_path / "corpus6", tmp_path / "pretrain6"
        main(["gen-data", "--config", str(cfg_path), "--out", str(corpus6)])
        main(["pretrain", "--config", str(cfg_path), "--corpus", str(corpus6),
              "--out", str(pre)])
        out = workdir / "ft"
        capsys.readouterr()
        code = run_cli("finetune", out, "--subset", "13", "--init", str(pre / "model_p0.json"),
                       "--from-scratch")
        assert code == EXIT_DATA
        assert "--init model has 6 channels, the corpus has 4" in capsys.readouterr().err
        assert not out.exists()  # neither side ran

    @pytest.mark.parametrize("epochs", ["0", "2"])
    def test_init_model_must_hold_every_corpus_class(self, workdir, corpus_dir, run_cli, tmp_path,
                                                     capsys, epochs):
        """Checked once the --init model is loaded, so also at --epochs 0,
        which trains on no utterance."""
        pre = workdir / "pretrain"
        run_cli("pretrain", pre, "--dropout-p", "0.125")
        params, _ = load_model(pre / "model_p0.125.json")
        keep = [i for i, sym in enumerate(params.class_symbols) if sym != "IY"]
        params = replace(params, head_weights=params.head_weights[keep],
                         head_bias=params.head_bias[keep],
                         class_symbols=tuple(params.class_symbols[i] for i in keep))
        init_path = tmp_path / "no-iy" / "model.json"
        save_model(params, init_path)
        out = workdir / "ft"
        capsys.readouterr()
        code = run_cli("finetune", out, "--subset", "12", "--init", str(init_path),
                       "--from-scratch", "--epochs", epochs)
        assert code == EXIT_DATA
        assert capsys.readouterr().err == "error: corpus label 'IY' is not a model class\n"
        assert not out.exists()  # neither side ran

    @pytest.mark.parametrize("epochs", ["0", "2"])
    @pytest.mark.parametrize("init", ["dropout", "permuted-classes"])
    def test_sides_equal_the_library_reference_route(self, workdir, corpus_dir, run_cli, tmp_path,
                                                     init, epochs):
        """Each side, and the comparison, must equal restrict -> train ->
        evaluate -> save_model from the same start model, byte for byte: the
        sliced --init model, and a scratch model, both in the --init model's
        class order, since the two sides train as one stack that shares its
        labels. A pretrained --init model holds the corpus alphabet's order,
        so only the permuted-classes scratch side differs from a scratch-only
        run."""
        pre = workdir / "pretrain"
        run_cli("pretrain", pre, "--dropout-p", "0.125")
        init_path = pre / "model_p0.125.json"
        if init == "permuted-classes":
            params, _ = load_model(init_path)
            order = [2, 0, 3, 1]
            params = replace(params, head_weights=params.head_weights[order],
                             head_bias=params.head_bias[order],
                             class_symbols=tuple(params.class_symbols[i] for i in order))
            init_path = tmp_path / "permuted" / "model.json"
            save_model(params, init_path)
        out = workdir / "ft"
        assert run_cli("finetune", out, "--subset", "13", "--epochs", epochs,
                       "--init", str(init_path), "--from-scratch") == EXIT_OK

        corpus = load_corpus(corpus_dir)
        subset = parse_subset("13", corpus.channels)
        train_c, test_c = (split.restrict(subset) for split in corpus.split(0.75))
        ft_cfg = TrainConfig(**{**TINY_CONFIG["train"], "epochs": max(int(epochs), 1)})
        config_hash = config_fingerprint(ft_cfg, 3, 6, 1, len(train_c) if int(epochs) else 0)
        full, manifest = load_model(init_path)
        starts = {
            "ft": (slice_input_channels(full, subset), manifest["payload_sha256"]),
            "scratch": (init_params(2, 3, 6, full.class_symbols, seed=0), None),
        }
        reference, records = tmp_path / "reference", []
        for mode, (start, parent) in starts.items():
            tuned = train(start, train_c, ft_cfg).params if int(epochs) else start
            record = evaluate(tuned, test_c, default_table(), subset=subset, threshold=1,
                              seed=0, config_hash=config_hash,
                              corpus_hash=corpus.content_hash)
            save_model(tuned, reference / f"model_{mode}_13.json", seed=0,
                       config_hash=config_hash, provenance={"parent": parent, "subset": "13"})
            write_text(reference / f"eval_{mode}_13.json", reports.record_json(record))
            records.append((mode, record))
        prov = reports.Provenance(config_hash, corpus.content_hash, 0)
        write_text(reference / "comparison_13.csv", reports.comparison_csv(records, prov))
        assert read_all(out) == read_all(reference)
        assert (out / "comparison_13.csv").read_text().splitlines()[1] == "mode,subset,wer,per_total"

    def test_both_sides_featurize_each_utterance_once(self, workdir, run_cli, pretrain_dir,
                                                      monkeypatch):
        calls = []

        def counted(samples, window):
            calls.append(samples.shape)
            return featurize(samples, window)

        monkeypatch.setattr(search, "featurize", counted)
        assert run_cli("finetune", workdir / "ft", "--subset", "13", "--epochs", "1",
                       "--init", str(pretrain_dir / "model_p0.json"), "--from-scratch") == EXIT_OK
        # one featurization of each utterance serves both sides
        assert len(calls) == TINY_CONFIG["generator"]["utterances"]

    @pytest.mark.parametrize("epochs", ["0", "2"])
    def test_both_sides_equal_their_one_sided_runs(self, workdir, run_cli, pretrain_dir, epochs):
        """The two sides train as one stack, yet each side's record and model
        files equal those of a run of that side alone, byte for byte."""
        init = ["--init", str(pretrain_dir / "model_p0.json")]
        runs = {}
        for name, flags in {"both": [*init, "--from-scratch"], "ft": init,
                            "scratch": ["--from-scratch"]}.items():
            out = workdir / name
            assert run_cli("finetune", out, "--subset", "12", "--epochs", epochs,
                           *flags) == EXIT_OK
            # the comparison lists the sides that ran, so it differs by design
            runs[name] = {file: data for file, data in read_all(out).items()
                          if file != "comparison_12.csv"}
        for side in ("ft", "scratch"):
            names = {f"eval_{side}_12.json", f"model_{side}_12.json", f"model_{side}_12.bin"}
            assert set(runs[side]) == names
            assert runs[side] == {name: runs["both"][name] for name in names}
        assert set(runs["both"]) == set(runs["ft"]) | set(runs["scratch"])

    def test_requires_init_or_scratch(self, workdir, corpus_dir, run_cli, capsys):
        code = run_cli("finetune", workdir / "x", "--subset", "13")
        assert code == EXIT_DATA
        assert "--from-scratch" in capsys.readouterr().err

    def test_preset_subset_labels(self, workdir, tmp_path):
        # presets name 8-channel subsets; build an 8-channel corpus for them
        cfg = json.loads((workdir / "config.json").read_text())
        cfg["generator"].update({"channels": 8, "weights": [0.8] * 8, "utterances": 8})
        cfg_path = tmp_path / "cfg8.json"
        cfg_path.write_text(json.dumps(cfg))
        corpus8 = tmp_path / "corpus8"
        main(["gen-data", "--config", str(cfg_path), "--out", str(corpus8)])
        out = tmp_path / "ft8"
        assert main(["finetune", "--config", str(cfg_path), "--corpus", str(corpus8),
                     "--out", str(out), "--subset", "4ch", "--from-scratch",
                     "--epochs", "1"]) == EXIT_OK
        assert (out / "model_scratch_1356.json").exists()


class TestSearchCommands:
    def test_backward_elim_outputs_and_rerun_identical(self, workdir, corpus_dir, run_cli):
        out = workdir / "elim"
        assert run_cli("backward-elim", out) == EXIT_OK
        doc = json.loads((out / "elimination.json").read_text())
        assert len(doc["steps"]) == 2  # 4 channels down to stop_size 2
        curve = (out / "elimination_curve.csv").read_text().splitlines()
        assert curve[1] == "channel_count,best_per_total,median_per_total"
        first = read_all(out)
        assert run_cli("backward-elim", out) == EXIT_OK
        again = read_all(out)
        assert set(first) == set(again)
        for name in first:
            if name != "cache.jsonl":  # cache rows carry wall times
                assert again[name] == first[name], name

    def test_commands_run_on_the_default_config(self, tmp_path, monkeypatch):
        """Flags only, no --config: gen-data, a sweep of single channels, and
        its warm report, which rewrites the sweep's reports byte for byte."""
        monkeypatch.delenv("CHANSEL_CACHE_DIR", raising=False)
        corpus, out = str(tmp_path / "c"), tmp_path / "s"
        flags = ["--corpus", corpus, "--out", str(out), "--k", "1", "--epochs", "1",
                 "--replicates", "1", "--workers", "1"]
        assert main(["gen-data", "--out", corpus, "--utterances", "4"]) == EXIT_OK
        assert main(["exhaustive", *flags]) == EXIT_OK
        names = ("sweep.csv", "top_subsets.csv", "channel_average.csv")
        swept = {name: (out / name).read_bytes() for name in names}
        # provenance, header and one row per channel of the default generator
        channels = cli.DEFAULT_CONFIG["generator"]["channels"]
        assert len(swept["sweep.csv"].splitlines()) == 2 + channels
        for name in names:
            (out / name).unlink()
        assert main(["report", *flags]) == EXIT_OK
        assert {name: (out / name).read_bytes() for name in names} == swept

    @pytest.mark.parametrize("command, kept", [
        ("exhaustive", 6), ("backward-elim", 7), ("ablate7", 5)])
    def test_interrupt_while_writing_reports_says_what_was_kept(
            self, workdir, corpus_dir, run_cli, capsys, monkeypatch, command, kept):
        assert run_cli(command, workdir / "whole") == EXIT_OK
        reference = read_all(workdir / "whole")
        out = workdir / "interrupted"
        capsys.readouterr()

        def interrupt(path, text):
            raise KeyboardInterrupt

        with monkeypatch.context() as patch:
            patch.setattr(cli, "write_text", interrupt)
            assert run_cli(command, out) == EXIT_INTERRUPTED
        cache = out / "cache.jsonl"
        assert capsys.readouterr().err == (f"interrupted: kept {kept} new records in {cache}; "
                                           "rerun to resume\n")
        assert list(read_all(out)) == ["cache.jsonl"]
        cached = cache.read_bytes()
        assert run_cli(command, out) == EXIT_OK
        assert cache.read_bytes() == cached  # the rerun trained nothing
        assert {name: data for name, data in read_all(out).items() if name != "cache.jsonl"} == {
            name: data for name, data in reference.items() if name != "cache.jsonl"}

    def test_report_rejects_k_above_channel_count(self, workdir, corpus_dir, run_cli, capsys):
        sweep = workdir / "sweep"
        run_cli("exhaustive", sweep)
        out = workdir / "k5"
        out.mkdir()
        (out / "cache.jsonl").write_bytes((sweep / "cache.jsonl").read_bytes())
        capsys.readouterr()
        code = run_cli("report", out, "--k", "5")
        assert code == EXIT_DATA
        assert "need 1 <= k <= channels" in capsys.readouterr().err
        assert set(read_all(out)) == {"cache.jsonl"}  # no report written

    def test_damaged_cache_lines_are_counted_and_reported(self, workdir, run_cli, clean_dir,
                                                          capsys):
        assert "warning" not in capsys.readouterr().err
        reference = read_all(clean_dir)
        damaged = workdir / "damaged"
        damaged.mkdir()
        lines = (clean_dir / "cache.jsonl").read_text().splitlines()
        # a corrupt middle line, and the last record torn mid-write
        (damaged / "cache.jsonl").write_text(
            "\n".join([*lines[:2], "{not json", *lines[2:-1], lines[-1][:40]]))
        assert run_cli("exhaustive", damaged) == EXIT_OK
        captured = capsys.readouterr()
        assert (f"warning: skipped 2 unreadable cache lines in {damaged / 'cache.jsonl'}"
                in captured.err)
        assert "warning" not in captured.out
        for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
            assert (damaged / name).read_bytes() == reference[name], name

    def test_cache_line_that_is_not_a_record_is_counted(self, workdir, run_cli, clean_dir,
                                                        capsys):
        reference = read_all(clean_dir)
        odd = workdir / "odd"
        odd.mkdir()
        lines = (clean_dir / "cache.jsonl").read_text().splitlines()
        # valid JSON, but not an object
        (odd / "cache.jsonl").write_text("\n".join([*lines[:2], "42", *lines[2:]]) + "\n")
        capsys.readouterr()
        assert run_cli("exhaustive", odd) == EXIT_OK
        assert (f"warning: skipped 1 unreadable cache lines in {odd / 'cache.jsonl'}"
                in capsys.readouterr().err)
        for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
            assert (odd / name).read_bytes() == reference[name], name

    @pytest.mark.parametrize("where", ["own line", "record body"])
    def test_byte_that_is_not_utf8_costs_one_line(self, workdir, run_cli, clean_dir, capsys,
                                                  where):
        reference = read_all(clean_dir)
        first = (clean_dir / "cache.jsonl").read_bytes().split(b"\n")[0]
        damage = (b"\xff\xfe garbage" if where == "own line"
                  else first.replace(b'"per_total": ', b'"per_total": \xff'))
        assert damage != first
        damaged = workdir / "damaged"
        damaged.mkdir()
        cache = damaged / "cache.jsonl"
        cache.write_bytes(reference["cache.jsonl"] + damage + b"\n")
        capsys.readouterr()
        assert run_cli("report", damaged) == EXIT_OK
        assert (f"warning: skipped 1 unreadable cache lines in {cache}"
                in capsys.readouterr().err)
        for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
            assert (damaged / name).read_bytes() == reference[name], name

    def test_broken_record_body_is_counted_only_for_the_running_config(
            self, workdir, run_cli, clean_dir, capsys):
        reference = read_all(clean_dir)
        lines = (clean_dir / "cache.jsonl").read_text().splitlines()
        ours = {**json.loads(lines[0]), "wer": "x"}  # keyed, but its body does not decode
        theirs = {**json.loads(lines[1]), "config_hash": "another config", "wer": "x"}
        damaged = workdir / "damaged"
        damaged.mkdir()
        cache = damaged / "cache.jsonl"
        cache.write_text("\n".join([json.dumps(ours), json.dumps(theirs), *lines[1:]]) + "\n")
        warning = f"warning: skipped 1 unreadable cache lines in {cache}"
        capsys.readouterr()

        before = cache.read_bytes()
        assert run_cli("report", damaged) == EXIT_DATA
        err = capsys.readouterr().err
        assert f"cache is missing records for 1 of 6 subsets ({ours['subset']}); run" in err
        assert warning in err
        assert cache.read_bytes() == before

        assert run_cli("exhaustive", damaged) == EXIT_OK
        assert warning in capsys.readouterr().err
        retrained = cache.read_text().splitlines()[len(lines) + 1:]
        assert [(d["subset"], d["seed"]) for d in map(json.loads, retrained)] == [
            (ours["subset"], ours["seed"])]
        for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
            assert (damaged / name).read_bytes() == reference[name], name

    def test_broken_body_no_subset_reads_is_counted(self, workdir, corpus_dir, run_cli, capsys):
        out = workdir / "sweep"
        assert run_cli("exhaustive", out, "--k", "1") == EXIT_OK
        reference = read_all(out)
        cache = out / "cache.jsonl"
        line = json.loads(cache.read_text().splitlines()[0])
        with open(cache, "a") as fh:  # the running config's head; --k 1 reads no pair
            fh.write(json.dumps({**line, "subset": "12", "wer": "x"}, sort_keys=True) + "\n")
        capsys.readouterr()
        assert run_cli("report", out, "--k", "1") == EXIT_OK
        assert (f"warning: skipped 1 unreadable cache lines in {cache}"
                in capsys.readouterr().err)
        for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
            assert (out / name).read_bytes() == reference[name], name

    @pytest.mark.parametrize("command, replicates", [
        ("backward-elim", "1"), ("exhaustive", "1"), ("ablate7", "1"),
        ("backward-elim", "2"), ("exhaustive", "2"), ("ablate7", "2"),
    ], ids=["backward-elim", "exhaustive", "ablate7", "backward-elim-replicates-2",
            "exhaustive-replicates-2", "ablate7-replicates-2"])
    def test_worker_count_changes_no_output_byte(self, workdir, corpus_dir, run_cli, command,
                                                 replicates):
        outputs = []
        for workers in ("1", "2"):
            out = workdir / f"{command}_w{workers}"
            assert run_cli(command, out, "--workers", workers,
                           "--replicates", replicates) == EXIT_OK
            files = read_all(out)
            # each cache line holds the seconds of its task, which no record reads
            files["cache.jsonl"] = [EvalRecord.from_dict(json.loads(line))
                                    for line in files["cache.jsonl"].splitlines()]
            outputs.append(files)
        serial, pooled = outputs
        assert serial["cache.jsonl"] and serial == pooled

    def test_k_top_above_the_subset_count_lists_every_subset(self, workdir, corpus_dir, run_cli):
        out = workdir / "sweep"
        for command in ("exhaustive", "report"):
            assert run_cli(command, out, "--k-top", "50") == EXIT_OK
            rows = (out / "top_subsets.csv").read_text().splitlines()[2:]
            # all C(4,2) subsets, then the count row: each channel is in 3 of them
            assert sorted(row.split(",")[0] for row in rows[:-1]) == [
                "12", "13", "14", "23", "24", "34"]
            assert rows[-1] == "count,3,3,3,3,"

    def test_report_fails_cleanly_on_cold_cache(self, workdir, corpus_dir, run_cli, capsys):
        code = run_cli("report", workdir / "empty")
        assert code == EXIT_DATA
        assert "missing" in capsys.readouterr().err

    def test_commands_that_train_nothing_load_no_pool_modules(self, workdir, corpus_dir, run_cli):
        """gen-data, then a warm exhaustive and report at two workers, run in
        a fresh interpreter, import neither the process-pool machinery nor
        statistics."""
        out = workdir / "sweep"
        assert run_cli("exhaustive", out) == EXIT_OK
        script = """
import json, sys
from chansel.cli import main
config, corpus, out = json.loads(sys.argv[1])
assert main(["gen-data", "--config", config, "--out", corpus]) == 0
for command in ("exhaustive", "report"):
    assert main([command, "--config", config, "--corpus", corpus, "--out", out,
                 "--workers", "2"]) == 0
modules = ("concurrent.futures.process", "multiprocessing", "statistics")
print(json.dumps([name for name in modules if name in sys.modules]))
"""
        args = json.dumps([_cfg(workdir), str(workdir / "regenerated"), str(out)])
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        run = subprocess.run([sys.executable, "-c", script, args], env=env,
                             capture_output=True, text=True, check=True)
        assert "wrote 12 utterances" in run.stdout  # the same corpus hash: every record hits
        assert json.loads(run.stdout.splitlines()[-1]) == []

    def test_warm_commands_load_no_numpy(self, workdir, corpus_dir, run_cli):
        """With every record cached by this process, a warm exhaustive,
        report, backward-elim and ablate7 in a fresh interpreter never load
        numpy's core and leave the cache as it was; a cold exhaustive in a
        fresh interpreter loads it."""
        warm = workdir / "warm"
        for command in ("exhaustive", "backward-elim", "ablate7"):
            assert run_cli(command, warm) == EXIT_OK
        cache = (warm / "cache.jsonl").read_bytes()
        script = """
import json, sys
from chansel.cli import main
config, corpus, out, commands = json.loads(sys.argv[1])
for command in commands:
    assert main([command, "--config", config, "--corpus", corpus, "--out", out]) == 0
print(json.dumps("numpy._core" in sys.modules))
"""
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}

        def loads_numpy(out: Path, *commands: str) -> bool:
            args = json.dumps([_cfg(workdir), str(corpus_dir), str(out), commands])
            run = subprocess.run([sys.executable, "-c", script, args], env=env,
                                 capture_output=True, text=True, check=True)
            return json.loads(run.stdout.splitlines()[-1])

        assert loads_numpy(warm, "exhaustive", "report", "backward-elim", "ablate7") is False
        assert (warm / "cache.jsonl").read_bytes() == cache
        assert loads_numpy(workdir / "cold", "exhaustive") is True

    def test_warm_report_still_checks_stored_samples(self, workdir, corpus_dir, run_cli, capsys):
        # every record is cached, so no sample is ever decoded: the NaN must
        # still stop the load, before the corpus hash is checked
        out = workdir / "sweep"
        assert run_cli("exhaustive", out) == EXIT_OK
        payload = corpus_dir / "utt_00002.bin"
        data = payload.read_bytes()
        payload.write_bytes(data[:40] + struct.pack("<d", math.nan) + data[48:])
        capsys.readouterr()
        assert run_cli("report", out) == EXIT_DATA
        header = corpus_dir / "utt_00002.json"
        assert (f"error: signal header {header} samples contain NaN or Inf"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("replicates", ["1", "2"])
    def test_ablate7_outputs(self, workdir, corpus_dir, run_cli, replicates):
        out = workdir / "ablate"
        assert run_cli("ablate7", out, "--seed", "5", "--replicates", replicates) == EXIT_OK
        lines = (out / "worst_channel.csv").read_text().splitlines()
        assert lines[0].endswith(" seed=5")
        assert lines[1] == "category,baseline_per,worst_per,critical_channel"
        doc = json.loads((out / "ablation_records.json").read_text())
        assert set(doc["by_removed_channel"]) == {"1", "2", "3", "4"}
        assert "wall_time" not in doc["baseline"]
        # every record a search returns carries the base seed, at any replicate count
        records = [doc["baseline"], *doc["by_removed_channel"].values()]
        assert [(r["seed"], r["n_seeds"]) for r in records] == [(5, int(replicates))] * 5

    def test_cache_dir_env_override(self, workdir, corpus_dir, run_cli, monkeypatch, tmp_path):
        cache_home = tmp_path / "cachehome"
        monkeypatch.setenv("CHANSEL_CACHE_DIR", str(cache_home))
        out = workdir / "elim_env"
        assert run_cli("backward-elim", out) == EXIT_OK
        assert (cache_home / "cache.jsonl").exists()
        assert not (out / "cache.jsonl").exists()

    def test_budget_exceeded_is_data_error(self, workdir, corpus_dir, run_cli, capsys):
        code = run_cli("exhaustive", workdir / "x", "--budget", "2")
        assert code == EXIT_DATA
        assert "budget" in capsys.readouterr().err


def test_every_model_of_a_corpus_takes_one_class_order(tmp_path):
    """Search, ``pretrain`` and scratch ``finetune`` models share their
    class symbols: ``SIL``, then the sorted labels of the whole corpus. On
    this corpus the generator's class list is unsorted, and the train split
    lacks a class that the test split holds."""
    cfg = copy.deepcopy(TINY_CONFIG)
    cfg["generator"].update(classes=list(DEFAULT_CLASSES), frames_per_segment=12,
                            segments_per_utterance=3, utterances=6, seed=0)
    config, corpus_dir = tmp_path / "config.json", tmp_path / "corpus"
    config.write_text(json.dumps(cfg))
    common = ["--config", str(config), "--corpus", str(corpus_dir)]
    assert main(["gen-data", "--config", str(config), "--out", str(corpus_dir)]) == EXIT_OK
    assert main(["pretrain", *common, "--out", str(tmp_path / "pre")]) == EXIT_OK
    assert main(["finetune", *common, "--out", str(tmp_path / "ft"), "--subset", "12",
                 "--from-scratch"]) == EXIT_OK

    corpus = load_corpus(corpus_dir)
    train, test = ({lab for seq in split for lab in seq.labels}
                   for split in corpus.split(cfg["eval"]["train_fraction"]))
    assert list(DEFAULT_CLASSES) != sorted(DEFAULT_CLASSES)
    assert test - train  # a class only the test split holds
    evaluator = cli._evaluator(corpus, cli.load_config(str(config)), tmp_path / "search")
    orders = {
        "search": evaluator._task_inputs().reference.class_symbols,
        "pretrain": load_model(tmp_path / "pre" / "model_p0.json")[0].class_symbols,
        "finetune": load_model(tmp_path / "ft" / "model_scratch_12.json")[0].class_symbols,
    }
    assert orders == dict.fromkeys(orders, ("SIL", *sorted((train | test) - {"SIL"})))


def test_package_import_loads_only_its_version():
    """``import chansel`` in a fresh interpreter loads no submodule but
    ``_version``, and no numpy, lazy or not: each name is imported from
    its module."""
    script = """
import json, sys
import chansel
print(json.dumps([sorted(m for m in sys.modules if m.split(".")[0] == "chansel"),
                  "numpy" in sys.modules]))
"""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [["chansel", "chansel._version"], False]


def test_benchmark_config_and_argv_are_accepted(tmp_path, monkeypatch):
    """``perfbench/workloads.py`` writes a config file of every key and runs
    the CLI with fixed flags; a key or flag the CLI drops fails every
    benchmark run, so its configs must load and each argv it builds parse."""
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    argvs = []

    def run(bench, *args, cache_dir=None):
        argvs.append(list(args))
        return workloads.CliRun(list(args), 0, 0.0, 0.0, 0.0, 0.0, tmp_path / "log")

    monkeypatch.setattr(workloads.Bench, "cli", run)
    for seed in (1, 51):
        bench = workloads.Bench(tmp_path, tmp_path / f"seed{seed}", seed)
        loaded = cli.load_config(str(bench.config_path))
        assert all(loaded[section][key] == value for section, values in bench.config.items()
                   for key, value in values.items())
        bench.gen_data()
        shared = workloads.WORKLOADS["replay-warm"].cache_dir(bench)
        shared.mkdir()
        (shared / "cache.jsonl").touch()  # the replay counts its lines
        for workload in workloads.WORKLOADS.values():
            workload.iterate(bench, bench.work / "out", workloads.WORKERS)
    parser = cli.build_parser()
    assert {parser.parse_args(argv).command for argv in argvs} == {
        "gen-data", "exhaustive", "backward-elim", "report"}


class TestFlagTable:
    OWN = {"help", "config", "out", "corpus", "subset", "init", "from_scratch", "force"}

    def test_every_option_is_a_table_flag_that_lands_in_config(self):
        # a flag the parser accepts but the overrides ignore would be silently dropped
        parser = cli.build_parser()
        commands = next(a for a in parser._actions
                        if isinstance(a, argparse._SubParsersAction))
        for name, sub in commands.choices.items():
            required = [arg for a in sub._actions if a.required
                        for arg in (a.option_strings[0], "x")]
            for action in sub._actions:
                if action.dest in self.OWN:
                    continue
                assert action.dest in cli.FLAGS, (name, action.dest)
                section, key = cli.FLAGS[action.dest]
                typ = type(cli.DEFAULT_CONFIG[section][key])
                value = "per_total" if typ is str else "7"
                args = parser.parse_args([name, *required, action.option_strings[0], value])
                cfg = cli._apply_overrides(copy.deepcopy(cli.DEFAULT_CONFIG), args)
                expected = copy.deepcopy(cli.DEFAULT_CONFIG)
                expected[section][key] = typ(value)
                assert cfg == expected, (name, action.dest)
                assert type(cfg[section][key]) is typ, (name, action.dest)


class TestConfigSchema:
    def _run(self, tmp_path, capsys, doc, command="gen-data", extra=()):
        """Exit code and stderr of a run on a config holding ``doc``; the
        output directory must not appear."""
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        code = main([command, "--config", str(path), "--out", str(out), *extra])
        assert not out.exists()
        return code, capsys.readouterr().err

    @pytest.mark.parametrize("section", sorted(cli.DEFAULT_CONFIG))
    def test_unknown_key_is_data_error(self, tmp_path, capsys, section):
        code, err = self._run(tmp_path, capsys, {section: {"nosuch": 1}})
        assert code == EXIT_DATA
        assert f"unknown config key {section}.nosuch" in err

    def test_file_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, [1, 2])
        assert code == EXIT_DATA
        assert f"error: config file {tmp_path / 'bad.json'} must hold a JSON object" in err

    def test_unknown_config_section_is_data_error(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"generatr": {}})
        assert code == EXIT_DATA
        assert "generatr" in err

    def test_section_that_is_not_an_object_is_data_error(self, tmp_path, capsys):
        code, err = self._run(tmp_path, capsys, {"train": [1, 2]})
        assert code == EXIT_DATA
        assert "config section train" in err

    @pytest.mark.parametrize("section, key, value", [
        ("train", "epochs", None), ("train", "epochs", [3]), ("train", "epochs", 2.5),
        ("train", "epochs", True), ("train", "epochs", "3"), ("model", "window", {}),
        ("train", "learning_rate", "0.5"), ("search", "metric", 5),
        ("generator", "weights", 0.5), ("train", "epochs", math.inf),
    ])
    def test_value_of_another_type_is_data_error(self, tmp_path, capsys, section, key, value):
        code, err = self._run(tmp_path, capsys, {section: {key: value}})
        assert code == EXIT_DATA
        assert f"config {section}.{key} must be " in err

    MALFORMED_GENERATOR = dict(argvalues=[
        ("silence_frames", 4.5, "4.5"), ("silence_frames", "4", "'4'"),
        ("silence_frames", True, "True"), ("silence_frames", 0.5, "0.5"),
        ("weights", ["1", 1, 0, 0, 1, 1, 0, 0], "'1'"),
        ("weights", [True, 1, 0, 0, 1, 1, 0, 0], "True"),
        ("channel_classes", [[0, 1.9], *[[1]] * 7], "[0, 1.9]"),
        ("channel_classes", [["0"], *[[1]] * 7], "['0']"),
        ("channel_classes", [[0, True], *[[1]] * 7], "[0, True]"),
        ("channel_classes", "01234567", "'01234567'"),
        ("classes", [["IY"], "B"], "[['IY'], 'B']"),
    ], ids=["silence-fraction", "silence-string", "silence-bool", "silence-below-one",
            "weight-string", "weight-bool", "coverage-fraction", "coverage-string",
            "coverage-bool", "coverage-not-list", "class-not-string"])

    # the other subcommands, each with flags that would make it run at once
    OTHER_COMMANDS = {
        "pretrain": ("--epochs", "1"),
        "finetune": ("--subset", "12", "--from-scratch", "--epochs", "1"),
        "backward-elim": ("--epochs", "1", "--replicates", "1", "--workers", "1"),
        "exhaustive": ("--k", "1", "--epochs", "1", "--replicates", "1", "--workers", "1"),
        "ablate7": ("--epochs", "1", "--replicates", "1", "--workers", "1"),
        "report": ("--k", "1", "--replicates", "1"),
    }

    def _flags(self, command, key):
        """``command``'s flags of OTHER_COMMANDS without the flag of config
        key ``key``, which would beat a config file's value."""
        flags = list(self.OTHER_COMMANDS.get(command, ()))
        flag = "--" + key.replace("_", "-")
        if flag in flags:
            at = flags.index(flag)
            del flags[at:at + 2]
        return flags

    @pytest.mark.parametrize("key, value, shown", **MALFORMED_GENERATOR)
    def test_malformed_generator_value_is_data_error(self, tmp_path, capsys, key, value, shown):
        """Values the generator used to cast (4.5 -> 4, "1" -> 1.0,
        true -> 1) are refused, naming the key and the value as written."""
        code, err = self._run(tmp_path, capsys, {"generator": {key: value}})
        assert code == EXIT_DATA
        assert f"error: {key} " in err
        assert f"got {shown}\n" in err

    @pytest.mark.parametrize("command", sorted(OTHER_COMMANDS))
    @pytest.mark.parametrize("key, value, shown", **MALFORMED_GENERATOR)
    def test_every_subcommand_refuses_a_malformed_generator_value(
            self, workdir, corpus_dir, capsys, command, key, value, shown):
        """A search, pretrain or finetune on a valid corpus still refuses a
        config whose generator section gen-data would refuse."""
        capsys.readouterr()
        code, err = self._run(workdir, capsys, {"generator": {key: value}}, command,
                              ("--corpus", str(corpus_dir), *self.OTHER_COMMANDS[command]))
        assert code == EXIT_DATA
        assert f"error: {key} " in err
        assert f"got {shown}\n" in err

    # Each range check in cli.main is tested by a row in one of the two refusal
    # tables, not by a test of its own.
    @pytest.mark.parametrize("command", ["gen-data", *sorted(OTHER_COMMANDS)])
    @pytest.mark.parametrize("section, key, value, message", [
        ("train", "epochs", -1, "epochs must be a positive integer, got -1"),
        ("train", "dropout_p", 7.0, "dropout_p must be in [0, 1], got 7.0"),
        ("train", "seed", -1, "seed must be >= 0, got -1"),
        ("generator", "seed", -1, "seed must be >= 0, got -1"),
        ("eval", "per_threshold", 0, "per_threshold must be >= 1, got 0"),
        ("eval", "per_threshold", -1, "per_threshold must be >= 1, got -1"),
        ("search", "k_top", 0, "k_top must be >= 1, got 0"),
        ("search", "k_top", -1, "k_top must be >= 1, got -1"),
        ("search", "k", 0, "k must be >= 1, got 0"),
        ("search", "stop_size", 0, "stop_size must be >= 1, got 0"),
        ("search", "budget", 0, "budget must be >= 1, got 0"),
        ("search", "replicates", 0, "replicates must be >= 1, got 0"),
        ("search", "workers", -1, "workers must be >= 0, got -1"),
        ("model", "window", 0, "window must be >= 1, got 0"),
        ("model", "features", 0, "features must be >= 1, got 0"),
        ("eval", "train_fraction", 1.0, "train_fraction must be in (0, 1), got 1.0"),
        ("search", "metric", "foo", "unknown metric 'foo' (expected 'wer' or 'per_total')"),
    ], ids=["epochs", "dropout", "train-seed", "generator-seed", "per-threshold",
            "per-threshold-negative", "k-top", "k-top-negative", "k", "stop-size", "budget",
            "replicates", "workers", "window", "features", "train-fraction", "metric"])
    def test_every_subcommand_refuses_an_out_of_range_setting(
            self, tmp_path, capsys, command, section, key, value, message):
        """Each is checked once, before any file is read, so a missing
        corpus goes unnamed; also by a subcommand that never uses the
        setting."""
        flags = self._flags(command, key)
        corpus = ("--corpus", str(tmp_path / "missing")) if command != "gen-data" else ()
        code, err = self._run(tmp_path, capsys, {section: {key: value}}, command,
                              (*corpus, *flags))
        assert code == EXIT_DATA
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["gen-data", *sorted(set(OTHER_COMMANDS) - {"finetune"})])
    def test_only_finetune_takes_zero_epochs(self, tmp_path, capsys, command):
        """Refused before the corpus is read, so a missing one goes unnamed;
        only finetune --epochs 0 scores without training."""
        corpus = ("--corpus", str(tmp_path / "missing")) if command != "gen-data" else ()
        code, err = self._run(tmp_path, capsys, {"train": {"epochs": 0}}, command,
                              (*corpus, *self._flags(command, "epochs")))
        assert code == EXIT_DATA
        assert err == "error: epochs must be a positive integer, got 0\n"

    def test_misspelt_dropout_key_does_not_pretrain(self, workdir, corpus_dir, capsys):
        capsys.readouterr()
        code, err = self._run(workdir, capsys, {"train": {"dropout": 0.125}}, "pretrain",
                              ("--corpus", str(corpus_dir)))
        assert code == EXIT_DATA
        assert "unknown config key train.dropout" in err

    def test_numbers_convert_to_the_default_type_without_loss(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"train": {"learning_rate": 1, "epochs": 2.0},
                                    "generator": {"silence_frames": 4}}))
        cfg = cli.load_config(str(path))
        assert (cfg["train"]["learning_rate"], cfg["train"]["epochs"]) == (1.0, 2)
        assert type(cfg["train"]["learning_rate"]) is float
        assert type(cfg["train"]["epochs"]) is int
        assert cfg["generator"]["silence_frames"] == 4  # a null default takes any value


def _with_key(key, value):
    """A JSON file damage that sets the top-level ``key`` to ``value``."""
    return lambda data: json.dumps({**json.loads(data), key: value}).encode()


def _with_layers(edit):
    """A manifest damage that replaces its ``layers`` value with ``edit(layers)``."""
    def damage(text: str) -> str:
        manifest = json.loads(text)
        manifest["layers"] = edit(manifest["layers"])
        return json.dumps(manifest)
    return damage


class TestExitCodes:
    def test_usage_error_is_one(self, tmp_path, capsys):
        assert main(["no-such-command"]) == EXIT_USAGE
        assert main(["exhaustive"]) == EXIT_USAGE  # missing required flags
        # the channel count has one owner, generator.channels in the config
        assert main(["gen-data", "--out", str(tmp_path / "c"), "--channels", "4"]) == EXIT_USAGE
        # --metric belongs only to the three subcommands that read it
        capsys.readouterr()
        assert main(["ablate7", "--corpus", str(tmp_path / "c"), "--out", str(tmp_path / "a"),
                     "--metric", "wer"]) == EXIT_USAGE
        assert "unrecognized arguments: --metric wer" in capsys.readouterr().err
        assert not (tmp_path / "a").exists()

    def test_missing_corpus_is_data_error(self, workdir, capsys):
        out = workdir / "x"
        code = main(["pretrain", "--config", _cfg(workdir),
                     "--corpus", str(workdir / "nope"), "--out", str(out)])
        assert code == EXIT_DATA
        manifest = workdir / "nope" / "manifest.json"
        assert capsys.readouterr().err == (
            f"error: [Errno 2] No such file or directory: '{manifest}'\n")
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        ("pretrain", []), ("finetune", ["--subset", "13", "--from-scratch"]),
        ("exhaustive", []), ("backward-elim", []), ("ablate7", []),
    ])
    def test_one_utterance_corpus_cannot_be_split(self, workdir, capsys, command, extra):
        corpus = workdir / "one"
        assert main(["gen-data", "--config", _cfg(workdir), "--out", str(corpus),
                     "--utterances", "1"]) == EXIT_OK
        out = workdir / "x"
        code = main([command, "--config", _cfg(workdir), "--corpus", str(corpus),
                     "--out", str(out), *extra])
        assert code == EXIT_DATA
        assert ("error: a train/test split needs at least 2 utterances, the corpus has 1"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_torn_config_json_names_the_file(self, tmp_path, capsys):
        torn = tmp_path / "torn.json"
        torn.write_text('{"train": {"epochs": 2}\n')
        out = tmp_path / "c"
        code = main(["gen-data", "--config", str(torn), "--out", str(out)])
        assert code == EXIT_DATA
        err = capsys.readouterr().err
        assert f"error: config file {torn} is not JSON: Expecting ',' delimiter" in err
        assert not out.exists()

    @pytest.mark.parametrize("damaged, damage, what, named, problem", [
        ("utt_00003.json", lambda data: data[:20], "signal header", "utt_00003.json",
         "is not JSON: "),
        ("utt_00002.json", _with_key("channels", "x"), "signal header", "utt_00002.json",
         "key 'channels' must be an integer, got 'x'"),
        ("utt_00002.json", _with_key("channels", -4), "signal header", "utt_00002.json",
         "key 'channels' must be at least 1, got -4"),
        ("utt_00002.json", _with_key("sample_rate", 0), "signal header", "utt_00002.json",
         "sample_rate must be positive, got 0.0"),
        ("utt_00002.json", _with_key("sample_rate", None), "signal header", "utt_00002.json",
         "float() argument must be"),
        ("utt_00002.bin", lambda data: struct.pack("<d", math.nan) + data[8:],
         "signal header", "utt_00002.json", "samples contain NaN or Inf"),
        ("labels.csv", lambda data: b"", "corpus labels", "labels.csv", "is empty"),
        ("labels.csv", lambda data: b"".join(data.splitlines(keepends=True)[:-5]),
         "corpus labels", "labels.csv", "23 frame labels for a 28-frame signal"),
        ("labels.csv", lambda data: data.replace(b"utterance,frame,label", b"utterance,frame"),
         "corpus labels", "labels.csv",
         "has the header 'utterance,frame', expected 'utterance,frame,label'"),
        ("labels.csv", lambda data: data.replace(b"\n0,1,SIL\n", b"\n0,0,SIL\n", 1),
         "corpus labels", "labels.csv", "line 3 reads '0,0,SIL', expected frame 1 of utterance 0"),
        ("labels.csv", lambda data: data.replace(b"\n0,1,SIL\n", b"\n", 1),
         "corpus labels", "labels.csv", "line 3 reads '0,2,SIL', expected frame 1 of utterance 0"),
        ("manifest.json", _with_key("utterances", "eight"), "corpus manifest", "manifest.json",
         "key 'utterances' must be an integer, got 'eight'"),
        ("manifest.json", _with_key("format_version", 99), "corpus manifest", "manifest.json",
         "has format_version 99, expected 1"),
        # header and payload agree on 2 of the 4 channels (row-major: the first half)
        (("utt_00002.json", "utt_00002.bin"),
         (_with_key("channels", 2), lambda data: data[:len(data) // 2]),
         "corpus", "", "utterance 2 has 2 channels, expected 4"),
    ], ids=["torn", "channels-not-integer", "channels-negative", "sample-rate-zero",
            "sample-rate-null", "payload-nan", "labels-empty", "labels-short", "labels-header",
            "labels-frame-repeated", "labels-frame-skipped",
            "utterances-not-integer", "future-format", "channel-count-differs"])
    def test_torn_utterance_header_names_the_file(self, workdir, corpus_dir, run_cli, capsys,
                                                  damaged, damage, what, named, problem):
        if isinstance(damaged, str):
            damaged, damage = (damaged,), (damage,)
        for name, edit in zip(damaged, damage):
            target = corpus_dir / name
            target.write_bytes(edit(target.read_bytes()))
        header = corpus_dir / named
        code = run_cli("exhaustive", workdir / "sweep")
        assert code == EXIT_DATA
        assert f"error: {what} {header} {problem}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda text: text[:30], "is not JSON: "),
        (lambda text: json.dumps({k: v for k, v in json.loads(text).items() if k != "layers"}),
         "has no 'layers' key"),
        (_with_layers(lambda layers: {k: v for k, v in layers.items() if k != "window"}),
         "has no 'layers.window' key"),
        (_with_layers(lambda layers: list(layers.values())),
         "key 'layers' must hold a JSON object"),
        (_with_layers(lambda layers: {**layers, "features": 2.5}),
         "key 'layers.features' must be an integer, got 2.5"),
        (lambda text: json.dumps({**json.loads(text), "class_symbols": "SIL"}),
         "key 'class_symbols' must be a list of strings, got 'SIL'"),
        (lambda text: json.dumps({**json.loads(text), "format_version": 99}),
         "has format_version 99, expected 1"),
    ], ids=["torn", "no-layers", "no-layers-window", "layers-not-object", "fractional-size",
            "symbols-not-list", "future-format"])
    def test_damaged_model_manifest_names_the_file(self, workdir, run_cli, pretrain_dir, capsys,
                                                   damage, message):
        manifest = pretrain_dir / "model_p0.json"
        manifest.write_text(damage(manifest.read_text()))
        capsys.readouterr()
        code = run_cli("finetune", workdir / "ft", "--subset", "13", "--init", str(manifest))
        assert code == EXIT_DATA
        assert f"error: model manifest {manifest} {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("damage, message", [
        (lambda values: values[:-1], "payload holds 840 bytes, expected 848"),
        (lambda values: np.concatenate([[np.nan], values[1:]]),
         "input_weights contains NaN or Inf"),
    ], ids=["one-value-short", "nan"])
    def test_damaged_model_payload_names_the_manifest(self, workdir, run_cli, pretrain_dir,
                                                      capsys, damage, message):
        """A payload damaged behind an updated hash passes the integrity
        check and is still refused, naming the model's manifest."""
        manifest, payload = pretrain_dir / "model_p0.json", pretrain_dir / "model_p0.bin"
        payload.write_bytes(damage(np.frombuffer(payload.read_bytes(), "<f8")).tobytes())
        doc = json.loads(manifest.read_text())
        doc["payload_sha256"] = hashlib.sha256(payload.read_bytes()).hexdigest()
        manifest.write_text(json.dumps(doc))
        capsys.readouterr()
        code = run_cli("finetune", workdir / "ft", "--subset", "13", "--init", str(manifest))
        assert code == EXIT_DATA
        assert f"error: model manifest {manifest} {message}" in capsys.readouterr().err

    # Each range check in cli.main is tested by a row in one of the two refusal
    # tables, not by a test of its own.
    @pytest.mark.parametrize("command, flag, value, message", [
        ("gen-data", "--noise-sigma", "inf", "noise_sigma must be finite and > 0, got inf"),
        ("exhaustive", "--learning-rate", "inf", "learning_rate must be finite and > 0, got inf"),
        *[(command, "--train-fraction", value, f"train_fraction must be in (0, 1), got {value}.0")
          for command in ("exhaustive", "pretrain") for value in ("1", "0")],
        ("exhaustive", "--train-fraction", "2.0", "train_fraction must be in (0, 1), got 2.0"),
        ("exhaustive", "--replicates", "0", "replicates must be >= 1, got 0"),
        ("finetune", "--epochs", "-1", "epochs must be a positive integer, got -1"),
        ("exhaustive", "--workers", "-1", "workers must be >= 0, got -1"),
        ("exhaustive", "--window", "0", "window must be >= 1, got 0"),
        ("exhaustive", "--features", "0", "features must be >= 1, got 0"),
        ("pretrain", "--window", "0", "window must be >= 1, got 0"),
        ("pretrain", "--features", "0", "features must be >= 1, got 0"),
        ("finetune", "--features", "0", "features must be >= 1, got 0"),
        ("exhaustive", "--k", "0", "k must be >= 1, got 0"),
        ("backward-elim", "--stop-size", "0", "stop_size must be >= 1, got 0"),
        ("exhaustive", "--budget", "0", "budget must be >= 1, got 0"),
    ], ids=["noise-sigma-inf", "learning-rate-inf", "exhaustive-fraction-1",
            "exhaustive-fraction-0", "pretrain-fraction-1", "pretrain-fraction-0",
            "exhaustive-fraction-2", "exhaustive-replicates-0", "finetune-epochs-negative",
            "exhaustive-workers-negative", "exhaustive-window-0", "exhaustive-features-0",
            "pretrain-window-0", "pretrain-features-0", "finetune-features-0",
            "exhaustive-k-0", "backward-elim-stop-size-0", "exhaustive-budget-0"])
    def test_out_of_range_setting_is_refused_naming_the_key(self, workdir, capsys,
                                                           command, flag, value, message):
        """Refused before any file is read: the corpus does not exist."""
        out = workdir / "x"
        corpus = ["--corpus", str(workdir / "missing")] if command != "gen-data" else []
        sides = ["--subset", "12", "--from-scratch"] if command == "finetune" else []
        code = main([command, "--config", _cfg(workdir), *corpus, "--out", str(out),
                     *sides, flag, value])
        assert code == EXIT_DATA
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0
        assert "chansel" in capsys.readouterr().out

    def test_divergence_is_exit_three(self, workdir, corpus_dir, run_cli, capsys):
        code = run_cli("pretrain", workdir / "pre", "--learning-rate", "1e308", "--epochs", "6")
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ("error: training diverged: non-finite loss nan "
                                           "at epoch 1, batch 2\n")

    def test_diverging_finetune_is_exit_three_and_writes_nothing(self, workdir, corpus_dir,
                                                                 run_cli, capsys):
        out = workdir / "ft"
        code = run_cli("finetune", out, "--subset", "12", "--from-scratch",
                       "--learning-rate", "1e308", "--epochs", "6", "--batch-size", "1")
        assert code == EXIT_DIVERGED
        assert capsys.readouterr().err == ("error: training diverged: non-finite loss nan "
                                           "at epoch 0, batch 2\n")
        assert not out.exists()

    @pytest.mark.parametrize("case", ["1", "2", "no-setter"])
    def test_diverging_search_is_exit_three(self, workdir, corpus_dir, run_cli, capfd, monkeypatch,
                                            case):
        """Pins stderr byte for byte at one worker and at two. A pool looks up
        numpy's OpenBLAS thread setter once per process and, on a numpy with
        none (``no-setter`` fakes one), says so first; the lookup is cleared
        around each test, so that line does not depend on an earlier test's
        pool."""
        if case == "no-setter":
            fake_numpy_without_thread_setter(monkeypatch, workdir)
        workers = "1" if case == "1" else "2"
        code = run_cli("exhaustive", workdir / "sweep", "--learning-rate", "1e308",
                       "--epochs", "6", "--workers", workers)
        err = capfd.readouterr().err
        # the pool's lookup is cached by now, so reading it prints nothing
        noted = case != "1" and search._openblas_library() is None
        assert code == EXIT_DIVERGED
        # every task diverges; at any worker count the error names the
        # failed task that comes first in canonical order, and nothing else
        # reaches stderr, the pool workers' file descriptor 2 included
        assert err == (no_thread_setter_note() if noted else "") + (
            "error: evaluation of subset 12 failed: non-finite loss nan at epoch 1, batch 0\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sigint_keeps_the_finished_records_and_exits_130(self, tmp_path, workers):
        """Ctrl-C, sent to the process group as a terminal sends it, once the
        cache holds a line: the search keeps what it finished, says so in one
        line and exits 130, and a rerun resumes to the uninterrupted reports.
        240-frame utterances in batches of 16 make each task a stack of its
        own, so 18 tasks of about 60 ms each are left when the signal goes."""
        cfg = copy.deepcopy(TINY_CONFIG)
        cfg["generator"].update(frames_per_segment=40, segments_per_utterance=6, utterances=24)
        cfg["train"].update(batch_size=16, epochs=30)
        cfg["search"].update(replicates=3, workers=int(workers))
        config, corpus = tmp_path / "config.json", tmp_path / "corpus"
        config.write_text(json.dumps(cfg))
        assert main(["gen-data", "--config", str(config), "--out", str(corpus)]) == EXIT_OK
        argv = ["exhaustive", "--config", str(config), "--corpus", str(corpus), "--out"]
        assert main([*argv, str(tmp_path / "whole")]) == EXIT_OK
        reference = read_all(tmp_path / "whole")

        out = tmp_path / "interrupted"
        cache = out / "cache.jsonl"
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        env.pop("CHANSEL_CACHE_DIR", None)
        run = subprocess.Popen([sys.executable, "-m", "chansel.cli", *argv, str(out)], env=env,
                               stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
        try:
            while run.poll() is None and not (cache.exists() and cache.stat().st_size):
                time.sleep(0.002)
            sent = time.monotonic()
            os.killpg(run.pid, signal.SIGINT)
            err = run.communicate(timeout=60)[1]
        finally:
            run.kill()
        assert run.returncode == EXIT_INTERRUPTED
        assert time.monotonic() - sent < 30
        def records() -> list[tuple[str, int]]:
            text = cache.read_text()
            assert text.endswith("\n")  # every line whole
            return [(d["subset"], d["seed"]) for d in map(json.loads, text.splitlines())]

        # a record whose keep the signal cut is stored again, so it may be
        # on two lines, and counts once
        kept = records()
        assert 1 <= len(set(kept)) < 18
        noted = workers == "2" and search._openblas_library() is None
        assert err == (no_thread_setter_note() if noted else "") + (
            f"interrupted: kept {len(set(kept))} new records in {cache}; rerun to resume\n")

        assert main([*argv, str(out)]) == EXIT_OK
        resumed = records()
        assert resumed[:len(kept)] == kept  # the rerun trained only the rest
        assert len(resumed) == len(kept) + 18 - len(set(kept)) and len(set(resumed)) == 18
        assert {name: data for name, data in read_all(out).items() if name != "cache.jsonl"} == {
            name: data for name, data in reference.items() if name != "cache.jsonl"}


class TestPoolSize:
    def test_workers_zero_follows_affinity_then_cpu_count(self, tiny_corpus, tmp_path,
                                                          monkeypatch):
        cfg = copy.deepcopy(cli.DEFAULT_CONFIG)
        cfg["search"]["workers"] = 0
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        assert cli._evaluator(tiny_corpus, cfg, tmp_path).workers == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._evaluator(tiny_corpus, cfg, tmp_path).workers == 8
        cfg["search"]["workers"] = 3
        assert cli._evaluator(tiny_corpus, cfg, tmp_path).workers == 3
