"""Trained numbers pinned against a committed fixture.

``pinned_numbers.json`` holds what the CLI computes on ``TINY_CONFIG``: every
record an ``exhaustive --replicates 2`` run appends to its cache, the three
reports a ``report`` run rebuilds from that cache, the loss log and weights
of ``pretrain --dropout-p 0.125``, both records and both models of
``finetune --subset 13 --init <that model> --from-scratch``, at the
configured epochs and at ``--epochs 0``, the cache records and
``elimination.json`` of ``backward-elim --replicates 2 --stop-size 1``, the
``ablation_records.json`` of ``ablate7 --replicates 2``, and the argv, exit
code, stdout and stderr of each of those runs and of an ``exhaustive`` whose
training diverges, with the temporary directory written ``<tmp>``. The
searches run on one pool worker and then on two, and both must match the
one set of entries. Strings and integers must match exactly, floats
to a relative 1e-9: close enough for another CPU's last bit, far from what
one float32 step moves. The fixture also records the
``search.NUMERICS_VERSION`` it was made at, so a bump without a
regeneration fails here too.

The fields that hold a hash of float bytes (``payload_sha256``,
``provenance.parent``, ``corpus_hash``, and the corpus hash in a run's
output, written ``<corpus>``) change with the last bit of any value, and
``tool_version``, ``meta.version`` and a report's provenance line with every
release, so they are not compared.

Regenerate the fixture only with a change that is meant to move these
numbers, and bump ``NUMERICS_VERSION`` with it:

    PYTHONPATH=src python tests/test_pinned_numbers.py

The script refuses, exits nonzero and writes nothing when the fixture
already records the current version and a number it holds would move, or
when two pool workers compute other numbers than one; it may add entries
that the fixture lacks.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from chansel import search
from chansel.cli import EXIT_DIVERGED, EXIT_OK, main
from chansel.search import NUMERICS_VERSION
from util import TINY_CONFIG, fake_numpy_without_thread_setter

FIXTURE = Path(__file__).with_name("pinned_numbers.json")
UNCOMPARED = {"payload_sha256", "parent", "corpus_hash", "tool_version", "version",
              "wall_time"}


def _payload(header: Path) -> list[float]:
    return np.fromfile(header.with_suffix(".bin"), dtype="<f8").tolist()


def _compared(doc):
    """``doc`` without the fields this test does not compare."""
    if isinstance(doc, dict):
        return {key: _compared(value) for key, value in doc.items() if key not in UNCOMPARED}
    if isinstance(doc, list):
        return [_compared(value) for value in doc]
    return doc


def _cache(out: str) -> list:
    return [json.loads(line) for line in (Path(out) / "cache.jsonl").read_text().splitlines()]


def _report(path: Path) -> list:
    """A report's rows below its provenance line; a cell that is a number
    with a fraction is a float, any other cell stays text."""
    def cell(text: str):
        try:
            return text if text.isdigit() else float(text)
        except ValueError:
            return text

    rows = csv.reader(path.read_text().splitlines()[1:])
    return [[cell(text) for text in row] for row in rows]


def _finetune(out: str) -> dict:
    return {
        mode: {
            "record": json.loads((Path(out) / f"eval_{mode}_13.json").read_text()),
            "model_manifest": json.loads((Path(out) / f"model_{mode}_13.json").read_text()),
            "model": _payload(Path(out) / f"model_{mode}_13.json"),
        }
        for mode in ("ft", "scratch")
    }


def pinned_numbers(tmp: Path, workers: int = 1) -> dict:
    """Run the seven subcommands in ``tmp``, the searches on ``workers`` pool
    workers, and collect the numbers and console output they wrote."""
    config = tmp / "config.json"
    config.write_text(json.dumps({**TINY_CONFIG,
                                  "search": {**TINY_CONFIG["search"], "workers": workers}}))
    corpus, sweep, pre, ft, ft0, elim, abl, diverged = (
        str(tmp / name) for name in ("corpus", "sweep", "pre", "ft", "ft0", "elim", "abl",
                                     "diverged"))
    common = ("--config", str(config))
    runs = {}
    # on a numpy without the OpenBLAS thread setter, the lookup's one note
    # goes here and not into the first pooled run's stderr, so the entries
    # are the same on every numpy build
    search._openblas_library.cache_clear()
    with redirect_stderr(io.StringIO()):
        search._openblas_library()

    def run(*argv: str, name: str = "", code: int = EXIT_OK) -> None:
        """Run ``main`` on ``argv``; keep its exit code and output under
        ``name``, by default the subcommand."""
        name = name or argv[0]
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            runs[name] = {"argv": list(argv), "exit": main(list(argv)),
                          "stdout": stdout.getvalue(), "stderr": stderr.getvalue()}
        assert runs[name]["exit"] == code, runs[name]

    run("gen-data", *common, "--out", corpus)
    run("exhaustive", *common, "--corpus", corpus, "--out", sweep, "--replicates", "2")
    for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv"):
        (Path(sweep) / name).unlink()
    run("report", *common, "--corpus", corpus, "--out", sweep, "--replicates", "2")
    run("pretrain", *common, "--corpus", corpus, "--out", pre, "--dropout-p", "0.125")
    init = Path(pre) / "model_p0.125.json"
    for name, out, epochs in (("finetune", ft, ()), ("finetune_epochs_0", ft0, ("--epochs", "0"))):
        run("finetune", *common, "--corpus", corpus, "--out", out, "--subset", "13",
            "--init", str(init), "--from-scratch", *epochs, name=name)
    run("backward-elim", *common, "--corpus", corpus, "--out", elim, "--replicates", "2",
        "--stop-size", "1")
    run("ablate7", *common, "--corpus", corpus, "--out", abl, "--replicates", "2")
    run("exhaustive", *common, "--corpus", corpus, "--out", diverged, "--learning-rate", "1e308",
        "--epochs", "6", name="exhaustive_diverging", code=EXIT_DIVERGED)
    corpus_hash = json.loads((Path(corpus) / "manifest.json").read_text())["hash"][:12]
    runs_text = json.dumps(runs).replace(str(tmp), "<tmp>").replace(corpus_hash, "<corpus>")

    provenance, header, *log = (Path(pre) / "training_log_p0.125.csv").read_text().splitlines()
    assert provenance.startswith("# chansel=") and header == "epoch,loss,mean_retained_channels"
    return _compared({
        "numerics_version": NUMERICS_VERSION,
        "exhaustive_cache": _cache(sweep),
        "pretrain_loss_log": [[int(epoch), float(loss), float(retained)]
                              for epoch, loss, retained in (row.split(",") for row in log)],
        "pretrain_model": _payload(init),
        "finetune": _finetune(ft),
        "finetune_epochs_0": _finetune(ft0),
        "backward_elim": {"cache": _cache(elim),
                          "elimination": json.loads((Path(elim) / "elimination.json").read_text())},
        "ablate7": json.loads((Path(abl) / "ablation_records.json").read_text()),
        "report": {name: _report(Path(sweep) / name)
                   for name in ("sweep.csv", "top_subsets.csv", "channel_average.csv")},
        "runs": json.loads(runs_text),
    })


def _assert_close(expected, got, where: str = "") -> None:
    assert type(got) is type(expected), (where, expected, got)
    if isinstance(expected, dict):
        assert list(got) == list(expected), where
        for key in expected:
            _assert_close(expected[key], got[key], f"{where}.{key}")
    elif isinstance(expected, list):
        assert len(got) == len(expected), where
        for i, (e, g) in enumerate(zip(expected, got)):
            _assert_close(e, g, f"{where}[{i}]")
    elif isinstance(expected, float):
        assert math.isclose(got, expected, rel_tol=1e-9, abs_tol=0.0), (where, expected, got)
    else:
        assert got == expected, (where, expected, got)


def _held(got, expected):
    """``got`` cut to the dict keys that ``expected`` holds, at every depth."""
    if isinstance(expected, dict) and isinstance(got, dict):
        return {key: _held(got[key], expected[key]) for key in expected if key in got}
    if isinstance(expected, list) and isinstance(got, list):
        return [_held(g, e) for g, e in zip(got, expected)] + got[len(expected):]
    return got


def test_trained_numbers_match_the_fixture(tmp_path, monkeypatch):
    monkeypatch.delenv("CHANSEL_CACHE_DIR", raising=False)
    expected = json.loads(FIXTURE.read_text())
    _assert_close(expected, pinned_numbers(tmp_path))


@pytest.mark.parametrize("numpy", ["installed", "no-setter"])
def test_two_pool_workers_match_the_fixture(tmp_path, monkeypatch, numpy):
    """``no-setter`` fakes a numpy without the OpenBLAS thread setter."""
    monkeypatch.delenv("CHANSEL_CACHE_DIR", raising=False)
    if numpy == "no-setter":
        fake_numpy_without_thread_setter(monkeypatch, tmp_path / "no-setter")
    expected = json.loads(FIXTURE.read_text())
    _assert_close(expected, pinned_numbers(tmp_path, workers=2))


if __name__ == "__main__":
    os.environ.pop("CHANSEL_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as one, tempfile.TemporaryDirectory() as two:
        numbers = pinned_numbers(Path(one))
        pooled = pinned_numbers(Path(two), workers=2)
    try:
        _assert_close(numbers, pooled)
    except AssertionError as exc:
        sys.exit(f"refused: two pool workers computed other numbers than one {exc}")
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if old.get("numerics_version") == NUMERICS_VERSION:
        try:
            _assert_close(old, _held(numbers, old))
        except AssertionError as exc:
            sys.exit(f"refused: {FIXTURE.name} holds numerics version {NUMERICS_VERSION} and "
                     f"a number it pins would move {exc}; bump search.NUMERICS_VERSION")
    FIXTURE.write_text(json.dumps(numbers, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
