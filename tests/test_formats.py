"""The exact bytes of the files chansel writes.

A tiny fixed signal, model and corpus are written and each header's text
(compact or indented JSON, sorted keys, trailing newline) and each payload's
SHA-256 are compared with literals. The literals were recorded from the
writers as they stood before the file code moved into one module, so any
change of a format byte fails here.
"""

import hashlib

import numpy as np

from chansel import __version__
from chansel.corpus import Corpus, LabeledSequence, save_corpus
from chansel.model import ModelParams, save_model
from chansel.signals import MultichannelSignal, save_signal

SIGNAL = MultichannelSignal(np.array([[0.5, -1.0, 2.25], [3.0, 0.0, -0.125]]),
                            sample_rate=16000.0)
SIGNAL_HEADER = '{"channels": 2, "sample_rate": 16000.0, "samples_per_channel": 3}\n'
SIGNAL_SHA256 = "0a05c907d4110e0b0fb836fc21add8471bf4053486b8cfeaf274601c6d880d08"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_signal_bytes(tmp_path):
    save_signal(SIGNAL, tmp_path / "sig.json")
    assert (tmp_path / "sig.json").read_text(encoding="utf-8") == SIGNAL_HEADER
    assert _sha256(tmp_path / "sig.bin") == SIGNAL_SHA256


def test_model_bytes(tmp_path):
    params = ModelParams(
        input_weights=np.arange(12.0).reshape(3, 4) / 16 - 0.25,
        input_bias=np.array([0.5, -0.5, 1.0]),
        head_weights=np.arange(6.0).reshape(2, 3) / -4,
        head_bias=np.array([0.125, 3.0]),
        channels=2, window=2, features=3, class_symbols=("SIL", "AA"),
    )
    payload = "4fb8cbca8725d7262aa388546d2ced16b213844756fad7fd349059ff1e047118"
    save_model(params, tmp_path / "out" / "model.json", seed=5, config_hash="cfg",
               provenance={"parent": "p", "subset": "12"})
    assert (tmp_path / "out" / "model.json").read_text(encoding="utf-8") == (
        '{\n'
        '  "class_symbols": [\n'
        '    "SIL",\n'
        '    "AA"\n'
        '  ],\n'
        '  "config_hash": "cfg",\n'
        '  "format_version": 1,\n'
        '  "layers": {\n'
        '    "channels": 2,\n'
        '    "classes": 2,\n'
        '    "features": 3,\n'
        '    "window": 2\n'
        '  },\n'
        f'  "payload_sha256": "{payload}",\n'
        '  "provenance": {\n'
        '    "parent": "p",\n'
        '    "subset": "12"\n'
        '  },\n'
        '  "seed": 5,\n'
        f'  "tool_version": "{__version__}"\n'
        '}\n'
    )
    assert _sha256(tmp_path / "out" / "model.bin") == payload


def test_corpus_bytes(tmp_path):
    second = MultichannelSignal(np.arange(4.0).reshape(2, 2) / 8)
    corpus = Corpus((LabeledSequence(SIGNAL, ("SIL", "AA", "AA")),
                     LabeledSequence(second, ("AA", "SIL"))),
                    config={"classes": ["AA"], "seed": 3})
    directory = tmp_path / "corpus"
    save_corpus(corpus, directory)
    assert (directory / "manifest.json").read_text(encoding="utf-8") == (
        '{\n'
        '  "config": {\n'
        '    "classes": [\n'
        '      "AA"\n'
        '    ],\n'
        '    "seed": 3\n'
        '  },\n'
        '  "format_version": 1,\n'
        '  "hash": "686d25a9de9b86f9991157362b12af39bdd4b9f994da864917b021c7b3fa2461",\n'
        f'  "tool_version": "{__version__}",\n'
        '  "utterances": 2\n'
        '}\n'
    )
    assert (directory / "labels.csv").read_text(encoding="utf-8") == (
        "utterance,frame,label\n0,0,SIL\n0,1,AA\n0,2,AA\n1,0,AA\n1,1,SIL\n"
    )
    assert (directory / "utt_00000.json").read_text(encoding="utf-8") == SIGNAL_HEADER
    assert _sha256(directory / "utt_00000.bin") == SIGNAL_SHA256
    assert (directory / "utt_00001.json").read_text(encoding="utf-8") == (
        '{"channels": 2, "sample_rate": 1.0, "samples_per_channel": 2}\n'
    )
    assert _sha256(directory / "utt_00001.bin") == (
        "bbb25150a3193f400542a66922b61e9a3184e70847f509b92bb9c643824d5013"
    )
