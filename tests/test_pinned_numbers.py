"""Trained numbers pinned against a committed fixture.

``pinned_numbers.json`` holds what the CLI computes on ``TINY_CONFIG``: every
record an ``exhaustive --replicates 2`` run appends to its cache, the loss
log and weights of ``pretrain --dropout-p 0.125``, both records and both
models of ``finetune --subset 13 --init <that model> --from-scratch``, at the
configured epochs and at ``--epochs 0``, the cache records and
``elimination.json`` of ``backward-elim --replicates 2 --stop-size 1``, and
the ``ablation_records.json`` of ``ablate7 --replicates 2``.
Strings and integers must match exactly, floats to a relative 1e-9: close
enough for another CPU's last bit, far from what one float32 step moves.
The fixture also records the ``search.NUMERICS_VERSION`` it was made at, so
a bump without a regeneration fails here too.

The fields that hold a hash of float bytes (``payload_sha256``,
``provenance.parent``, ``corpus_hash``) change with the last bit of any
value, and ``tool_version`` and ``meta.version`` with every release, so they
are not compared.

Regenerate the fixture only with a change that is meant to move these
numbers, and bump ``NUMERICS_VERSION`` with it:

    PYTHONPATH=src python tests/test_pinned_numbers.py

The script refuses, exits nonzero and writes nothing when the fixture
already records the current version and a number it holds would move; it
may add entries that the fixture lacks.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from chansel.cli import EXIT_OK, main
from chansel.search import NUMERICS_VERSION
from test_cli import TINY_CONFIG

FIXTURE = Path(__file__).with_name("pinned_numbers.json")
UNCOMPARED = {"payload_sha256", "parent", "corpus_hash", "tool_version", "version",
              "wall_time"}


def _run(*argv: str) -> None:
    assert main(list(argv)) == EXIT_OK, argv


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


def _finetune(out: str) -> dict:
    return {
        mode: {
            "record": json.loads((Path(out) / f"eval_{mode}_13.json").read_text()),
            "model_manifest": json.loads((Path(out) / f"model_{mode}_13.json").read_text()),
            "model": _payload(Path(out) / f"model_{mode}_13.json"),
        }
        for mode in ("ft", "scratch")
    }


def pinned_numbers(tmp: Path) -> dict:
    """Run the six subcommands in ``tmp`` and collect the numbers they wrote."""
    config = tmp / "config.json"
    config.write_text(json.dumps(TINY_CONFIG))
    corpus, sweep, pre, ft, ft0, elim, abl = (
        str(tmp / name) for name in ("corpus", "sweep", "pre", "ft", "ft0", "elim", "abl"))
    common = ("--config", str(config))
    _run("gen-data", *common, "--out", corpus)
    _run("exhaustive", *common, "--corpus", corpus, "--out", sweep, "--replicates", "2")
    _run("pretrain", *common, "--corpus", corpus, "--out", pre, "--dropout-p", "0.125")
    init = Path(pre) / "model_p0.125.json"
    for out, epochs in ((ft, ()), (ft0, ("--epochs", "0"))):
        _run("finetune", *common, "--corpus", corpus, "--out", out, "--subset", "13",
             "--init", str(init), "--from-scratch", *epochs)
    _run("backward-elim", *common, "--corpus", corpus, "--out", elim, "--replicates", "2",
         "--stop-size", "1")
    _run("ablate7", *common, "--corpus", corpus, "--out", abl, "--replicates", "2")
    log = (Path(pre) / "training_log_p0.125.csv").read_text().splitlines()[2:]
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


if __name__ == "__main__":
    os.environ.pop("CHANSEL_CACHE_DIR", None)
    with tempfile.TemporaryDirectory() as tmp:
        numbers = pinned_numbers(Path(tmp))
    old = json.loads(FIXTURE.read_text()) if FIXTURE.exists() else {}
    if old.get("numerics_version") == NUMERICS_VERSION:
        try:
            _assert_close(old, _held(numbers, old))
        except AssertionError as exc:
            sys.exit(f"refused: {FIXTURE.name} holds numerics version {NUMERICS_VERSION} and "
                     f"a number it pins would move {exc}; bump search.NUMERICS_VERSION")
    FIXTURE.write_text(json.dumps(numbers, indent=1) + "\n")
    print(f"wrote {FIXTURE}")
