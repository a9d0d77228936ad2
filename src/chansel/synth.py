"""Synthetic multichannel corpus with planted per-channel informativeness.

Each (class, channel) pair owns a fixed seeded template waveform. Templates
start as sums of three band-limited sinusoids with random phases; each
channel's class templates are then orthogonalised against each other and
rescaled to unit RMS. Orthogonality matters: raw random waveforms leave some
class pairs nearly collinear on some channels, which silently changes how
informative a channel really is. With equidistant templates, informativeness
is exactly the planted weight, so the weight vector is a trustworthy oracle
for validating channel-ranking procedures. (This requires at least as many
frames per segment as classes.)

During a phone segment of class k, channel c emits ``w_c * template(k, c)``
plus i.i.d. Gaussian noise. Words are silence-delimited, one phone segment
per word, so the transcript is exactly the collapse of the frame labels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Any, Mapping

from .artefacts import np
from .corpus import Corpus, LabeledSequence
from .phonemes import SILENCE_SYMBOL, default_table
from .signals import MultichannelSignal

DEFAULT_CLASSES = ("IY", "UW", "EH", "AH", "AO", "AE", "B", "M", "T", "F", "K", "L")


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the corpus generator.

    ``weights[c]`` in [0, 1] scales channel c's template amplitude (0 = the
    channel is pure noise). ``channel_classes``, when set, lists per channel
    which class indices that channel carries templates for; None means all.
    ``crosstalk`` in [0, 1) linearly mixes every channel's clean component
    toward the cross-channel mean, emulating redundant sensors.

    The fields are the config's keys; the sequence fields may be given as
    lists, their JSON form, and are stored as tuples, the weights as floats.
    """

    channels: int = 8
    classes: tuple[str, ...] = DEFAULT_CLASSES
    weights: tuple[float, ...] = (1.0,) * 8
    noise_sigma: float = 0.5
    frames_per_segment: int = 16
    segments_per_utterance: int = 7
    utterances: int = 200
    seed: int = 0
    channel_classes: tuple[tuple[int, ...], ...] | None = None
    crosstalk: float = 0.0
    silence_frames: int | None = None  # None: same length as phone segments

    def __post_init__(self) -> None:
        object.__setattr__(self, "classes", tuple(self.classes))
        if self.channels < 1:
            raise ValueError(f"channels must be >= 1, got {self.channels}")
        if not all(isinstance(sym, str) for sym in self.classes):
            raise ValueError(f"classes must be phoneme symbols, got {_lists(self.classes)!r}")
        if len(self.classes) < 2:
            raise ValueError(f"need at least 2 classes, got {len(self.classes)}")
        if len(set(self.classes)) != len(self.classes):
            raise ValueError("duplicate class symbols")
        table = default_table()
        for sym in self.classes:
            if sym not in table:
                raise ValueError(f"class symbol {sym!r} is not in the phoneme inventory")
            if sym == SILENCE_SYMBOL:
                raise ValueError("silence cannot be a generator class; it is implicit")
        if len(self.weights) != self.channels:
            raise ValueError(
                f"{len(self.weights)} weights for {self.channels} channels"
            )
        for w in self.weights:
            if isinstance(w, bool) or not isinstance(w, (int, float)) or not 0.0 <= w <= 1.0:
                raise ValueError(f"weights must be finite numbers in [0, 1], got {w!r}")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if not (0 < self.noise_sigma < math.inf):
            raise ValueError(f"noise_sigma must be finite and > 0, got {self.noise_sigma}")
        if self.frames_per_segment < 1 or self.segments_per_utterance < 1 or self.utterances < 1:
            raise ValueError("frames_per_segment, segments_per_utterance and utterances "
                             "must all be >= 1")
        if self.frames_per_segment < len(self.classes):
            raise ValueError(
                f"frames_per_segment ({self.frames_per_segment}) must be >= the class "
                f"count ({len(self.classes)}) so per-channel templates can be "
                f"orthogonalised"
            )
        if self.silence_frames is not None and not (
                _is_int(self.silence_frames) and self.silence_frames >= 1):
            raise ValueError(f"silence_frames must be an integer >= 1 or null, "
                             f"got {self.silence_frames!r}")
        if not (0.0 <= self.crosstalk < 1.0):
            raise ValueError(f"crosstalk must be in [0, 1), got {self.crosstalk}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.channel_classes is not None:
            if (not isinstance(self.channel_classes, (list, tuple))
                    or len(self.channel_classes) != self.channels):
                raise ValueError(f"channel_classes must list one entry per channel, "
                                 f"got {_lists(self.channel_classes)!r}")
            k = len(self.classes)
            for cov in self.channel_classes:
                if not (isinstance(cov, (list, tuple)) and all(map(_is_int, cov))):
                    raise ValueError(f"channel_classes entries must be lists of integer "
                                     f"class indices, got {_lists(cov)!r}")
                if any(i < 0 or i >= k for i in cov):
                    raise ValueError(f"channel_classes index out of range in {cov}")
            object.__setattr__(self, "channel_classes",
                               tuple(tuple(sorted(set(cov))) for cov in self.channel_classes))

    def to_dict(self) -> dict[str, Any]:
        return {f.name: _lists(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "GeneratorConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls)})


def _is_int(value: Any) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _lists(value: Any) -> Any:
    """``value`` with every tuple, nested too, as a list: its JSON form."""
    return [_lists(v) for v in value] if isinstance(value, tuple) else value


def _templates(cfg: GeneratorConfig, seed_seq: np.random.SeedSequence) -> np.ndarray:
    """Fixed per-(class, channel) waveforms, shape (K, C, frames), unit RMS.

    Draw sums of three sinusoids (random seeded amplitudes, frequencies in
    (0.05, 0.45) cycles/frame, phases), then orthogonalise each channel's K
    waveforms so every class pair sits at the same RMS distance (sqrt(2)).
    """
    rng = np.random.default_rng(seed_seq)
    k, c, f = len(cfg.classes), cfg.channels, cfg.frames_per_segment
    amp = rng.uniform(0.5, 1.0, size=(k, c, 3))
    freq = rng.uniform(0.05, 0.45, size=(k, c, 3))
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(k, c, 3))
    t = np.arange(f)
    waves = (amp[..., None] * np.sin(2.0 * np.pi * freq[..., None] * t + phase[..., None])).sum(axis=2)
    q, _ = np.linalg.qr(waves.transpose(1, 2, 0))  # (C, f, K), orthonormal columns
    return q.transpose(2, 0, 1) * np.sqrt(f)  # unit RMS rows


def generate(cfg: GeneratorConfig) -> Corpus:
    """Build the corpus. Deterministic in cfg.seed: utterances draw from
    seeds derived per utterance index, so the result does not depend on
    generation order."""
    root = np.random.SeedSequence(cfg.seed)
    template_ss, utt_root = root.spawn(2)
    templates = _templates(cfg, template_ss)
    utt_seeds = utt_root.spawn(cfg.utterances)

    k = len(cfg.classes)
    f = cfg.frames_per_segment
    sil = cfg.silence_frames if cfg.silence_frames is not None else f
    segs = cfg.segments_per_utterance
    t_total = (segs + 1) * sil + segs * f
    coverage = cfg.channel_classes
    # gain[c, kk] is channel c's weight where it carries class kk, else 0
    gain = np.array([[w if coverage is None or kk in coverage[c] else 0.0 for kk in range(k)]
                     for c, w in enumerate(cfg.weights)])

    sequences = []
    for u in range(cfg.utterances):
        rng = np.random.default_rng(utt_seeds[u])
        classes = rng.integers(0, k, size=segs)
        signal = rng.normal(0.0, cfg.noise_sigma, size=(cfg.channels, t_total))
        clean = np.zeros((cfg.channels, t_total))
        labels: list[str] = [SILENCE_SYMBOL] * sil
        for j, kk in enumerate(classes):
            off = sil + j * (f + sil)
            clean[:, off:off + f] = gain[:, kk, None] * templates[kk]
            labels.extend([cfg.classes[kk]] * f)
            labels.extend([SILENCE_SYMBOL] * sil)
        signal += (1.0 - cfg.crosstalk) * clean + cfg.crosstalk * clean.mean(axis=0)
        sequences.append(LabeledSequence(MultichannelSignal(signal), labels))
    return Corpus(tuple(sequences), config=cfg.to_dict())
