"""Labeled-sequence corpus container and its on-disk directory format.

A corpus directory holds a ``manifest.json`` (generator config + content
hash), one signal artefact per utterance (see ``artefacts.py``), and a
``labels.csv`` with one row per frame. Transcripts are never stored: a
sequence derives its transcript from the frame labels when it is first read.
"""

from __future__ import annotations

import hashlib
import json
import re
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Any, Iterator, Mapping

from ._version import __version__
from .artefacts import check_format_version, json_text, naming, positive_int, read_json, write_text
from .metrics import collapse_frame_labels
from .phonemes import SILENCE_SYMBOL
from .signals import ChannelSubset, MultichannelSignal, load_signal, restrict_to_subset, save_signal

CORPUS_FORMAT_VERSION = 1
_LABELS_HEADER = "utterance,frame,label"


@dataclass(frozen=True, eq=False)
class LabeledSequence:
    """A signal with one phoneme label per frame, the labels kept as a tuple."""

    signal: MultichannelSignal
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "labels", tuple(self.labels))
        if len(self.labels) != self.signal.n_samples:
            raise ValueError(
                f"{len(self.labels)} frame labels for a {self.signal.n_samples}-frame signal"
            )

    @cached_property
    def transcript(self) -> tuple[str, ...]:
        """Word tokens: the collapse of the frame labels (silence delimits
        words, repeated labels merge)."""
        return collapse_frame_labels(self.labels)


@dataclass(frozen=True, eq=False)
class Corpus:
    """An ordered bundle of labeled sequences, optionally tagged with the
    generator config dict it came from. Derived corpora (splits, channel
    restrictions) drop the config since it no longer describes them."""

    sequences: tuple[LabeledSequence, ...]
    config: Mapping[str, Any] | None = None

    def __post_init__(self) -> None:
        if not self.sequences:
            raise ValueError("corpus must contain at least one sequence")
        c = self.sequences[0].signal.channels
        for i, seq in enumerate(self.sequences):
            if seq.signal.channels != c:
                raise ValueError(
                    f"utterance {i} has {seq.signal.channels} channels, expected {c}"
                )

    def __len__(self) -> int:
        return len(self.sequences)

    def __iter__(self) -> Iterator[LabeledSequence]:
        return iter(self.sequences)

    @property
    def channels(self) -> int:
        return self.sequences[0].signal.channels

    def label_alphabet(self) -> tuple[str, ...]:
        """Class-symbol order of every model of this corpus: silence first,
        then the sorted labels the corpus holds."""
        seen = sorted({lab for seq in self.sequences for lab in seq.labels})
        if SILENCE_SYMBOL in seen:
            seen.remove(SILENCE_SYMBOL)
            return (SILENCE_SYMBOL, *seen)
        return tuple(seen)

    def restrict(self, subset: ChannelSubset) -> "Corpus":
        """Channel-restricted copy; labels are untouched."""
        return Corpus(tuple(
            LabeledSequence(restrict_to_subset(seq.signal, subset), seq.labels)
            for seq in self.sequences
        ))

    def split(self, train_fraction: float) -> tuple["Corpus", "Corpus"]:
        """Deterministic head/tail split into (train, test), neither empty."""
        if not (0.0 < train_fraction < 1.0):
            raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
        if len(self.sequences) < 2:
            raise ValueError(f"a train/test split needs at least 2 utterances, the corpus "
                             f"has {len(self.sequences)}")
        n_train = max(1, min(len(self.sequences) - 1, round(len(self.sequences) * train_fraction)))
        return (
            Corpus(self.sequences[:n_train]),
            Corpus(self.sequences[n_train:]),
        )

    @cached_property
    def content_hash(self) -> str:
        """SHA-256 over the config and every utterance's labels and samples."""
        h = hashlib.sha256()
        if self.config is not None:
            h.update(json.dumps(dict(self.config), sort_keys=True).encode("utf-8"))
        for seq in self.sequences:
            h.update("|".join(seq.labels).encode("utf-8"))
            h.update(seq.signal.payload)
        return h.hexdigest()


def save_corpus(corpus: Corpus, directory: Path, force: bool = False) -> str:
    """Write the corpus directory; returns the content hash. Refuses to
    overwrite an existing corpus unless ``force``, and then deletes the
    utterance files of the old corpus that the new one does not rewrite."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if manifest_path.exists():
        if not force:
            raise FileExistsError(f"corpus already exists at {directory} (use force to overwrite)")
        for path in directory.iterdir():
            match = re.fullmatch(r"utt_(\d{5,})\.(json|bin)", path.name)
            if match and int(match[1]) >= len(corpus.sequences):
                path.unlink()
    for i, seq in enumerate(corpus.sequences):
        save_signal(seq.signal, directory / f"utt_{i:05d}.json")
    rows = [f"{i},{t},{lab}" for i, seq in enumerate(corpus.sequences)
            for t, lab in enumerate(seq.labels)]
    write_text(directory / "labels.csv", "\n".join([_LABELS_HEADER, *rows]) + "\n")

    manifest = {
        "format_version": CORPUS_FORMAT_VERSION,
        "tool_version": __version__,
        "config": dict(corpus.config) if corpus.config is not None else None,
        "hash": corpus.content_hash,
        "utterances": len(corpus.sequences),
    }
    write_text(manifest_path, json_text(manifest))
    return corpus.content_hash


def load_corpus(directory: Path) -> Corpus:
    """Read a corpus directory back; verifies the manifest hash."""
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    manifest = read_json(manifest_path, "corpus manifest", ("format_version", "utterances", "hash"))
    with naming("corpus manifest", manifest_path):
        check_format_version(manifest, CORPUS_FORMAT_VERSION)
        n = positive_int(manifest["utterances"], "utterances")

    # one list of labels per utterance, made by its first row; every label is
    # the one string object kept for its text, shared by all utterances
    labels_by_utt: defaultdict[int, list[str]] = defaultdict(list)
    symbols: dict[str, str] = {}
    labels_path = directory / "labels.csv"
    with labels_path.open(encoding="utf-8") as lines, naming("corpus labels", labels_path):
        header = next(lines, "").rstrip("\n")
        if not header:
            raise ValueError("is empty")
        if header != _LABELS_HEADER:
            raise ValueError(f"has the header {header!r}, expected {_LABELS_HEADER!r}")
        for line, row in enumerate(lines, start=2):
            row = row.rstrip("\n")
            try:
                utt, frame, lab = row.split(",")
                utt, frame = int(utt), int(frame)
                if not 0 <= utt < n:
                    raise ValueError
            except ValueError:
                raise ValueError(
                    f"line {line} reads {row!r}, expected utterance,frame,label with an "
                    f"utterance index below {n} and an integer frame"
                ) from None
            labels = labels_by_utt[utt]
            if frame != len(labels):
                raise ValueError(f"line {line} reads {row!r}, expected frame {len(labels)} of "
                                 f"utterance {utt}")
            labels.append(symbols.setdefault(lab, lab))

    signals = [load_signal(directory / f"utt_{i:05d}.json") for i in range(n)]
    with naming("corpus labels", labels_path):
        sequences = tuple(LabeledSequence(signal, labels_by_utt[i])
                          for i, signal in enumerate(signals))
    with naming("corpus", directory):
        corpus = Corpus(sequences, config=manifest.get("config"))
        if corpus.content_hash != manifest["hash"]:
            raise ValueError(
                f"fails its integrity check: manifest hash {str(manifest['hash'])[:12]}, "
                f"recomputed {corpus.content_hash[:12]}"
            )
    return corpus
