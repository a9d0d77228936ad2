"""Multichannel signal container, channel dropout masks, and subset restriction.

A recording is a C-by-T block of real samples (rows are channels, columns are
time steps). A channel dropout mask is the boolean array the generator
draws: True keeps a channel, independently with probability 1 - p. Training
(``model.fit_windows``) zeroes the dropped channels' window blocks and leaves
the survivors unscaled, so a masked channel is indistinguishable from a dead
one. Subsets are canonically written with 1-based channel labels ("1356"
means channels 1, 3, 5 and 6) while all in-memory indices are 0-based. A
signal file is an artefact (see ``artefacts.py``) whose header holds the
channel count, the samples per channel and the sample rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator

from .artefacts import naming, np, payload_bytes, positive_int, read_artefact, write_artefact


@dataclass(frozen=True, eq=False, init=False)
class MultichannelSignal:
    """Immutable C x T block of float64 samples with a sample-rate tag.

    A signal keeps its samples as its artefact payload: the values as
    little-endian float64 bytes, row-major, checked finite on construction.
    ``samples`` decodes them on first read as a read-only view of those bytes,
    not a copy, so a signal that is only hashed or saved builds no array.
    Instances can be shared freely across threads and worker processes.
    ``sample_rate`` is metadata only; nothing in the toolkit resamples.
    """

    payload: bytes = field(repr=False)
    channels: int
    n_samples: int
    sample_rate: float

    def __init__(self, samples, sample_rate: float = 1.0) -> None:
        arr = np.asarray(samples, dtype=np.float64)
        if arr.ndim != 2:
            raise ValueError(f"samples must be 2-D (channels x time), got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise ValueError(f"signal needs at least one channel and one sample, got {arr.shape}")
        self._set(payload_bytes(arr), *arr.shape, sample_rate)

    @classmethod
    def from_payload(cls, payload: bytes, channels: int, n_samples: int,
                     sample_rate: float) -> "MultichannelSignal":
        """``load_signal``'s path: ``payload`` holds channels x n_samples values."""
        signal = cls.__new__(cls)
        signal._set(payload, channels, n_samples, sample_rate)
        return signal

    def _set(self, payload: bytes, channels: int, n_samples: int, sample_rate: float) -> None:
        # NaN and Inf have all 11 exponent bits set: the low 7 of a value's last
        # byte (so it reads 0x7f or 0xff) and the high 4 of the byte before it
        top = payload[7::8]
        if (b"\x7f" in top or b"\xff" in top) and any(
                high & 0x7F == 0x7F and low >= 0xF0 for high, low in zip(top, payload[6::8])):
            raise ValueError("samples contain NaN or Inf")
        if not (sample_rate > 0):
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        self.__dict__.update(payload=payload, channels=channels, n_samples=n_samples,
                             sample_rate=sample_rate)

    @cached_property
    def samples(self) -> np.ndarray:
        return np.frombuffer(self.payload, dtype="<f8").reshape(self.channels, self.n_samples)


@dataclass(frozen=True)
class ChannelSubset:
    """Strictly increasing 0-based channel indices; non-empty."""

    indices: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.indices) == 0:
            raise ValueError("subset must be non-empty")
        if any(i < 0 for i in self.indices):
            raise ValueError(f"negative channel index in {self.indices}")
        if any(b <= a for a, b in zip(self.indices, self.indices[1:])):
            raise ValueError(f"indices must be strictly increasing, got {self.indices}")

    @classmethod
    def full(cls, channels: int) -> "ChannelSubset":
        return cls(tuple(range(channels)))

    @property
    def label(self) -> str:
        """Canonical 1-based text form: "1356" style while every label fits a
        single digit, else comma-separated, "1,10,12", or "12," for one."""
        one_based = [i + 1 for i in self.indices]
        if one_based[-1] <= 9:
            return "".join(str(i) for i in one_based)
        return ",".join(str(i) for i in one_based) + ("," if len(one_based) == 1 else "")

    def drop(self, channel: int) -> "ChannelSubset":
        """Subset without ``channel`` (which must be a member)."""
        if channel not in self.indices:
            raise ValueError(f"channel {channel} not in subset {self.label}")
        return ChannelSubset(tuple(i for i in self.indices if i != channel))

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)


def parse_subset(label: str, channels: int) -> ChannelSubset:
    """Parse a 1-based subset label into a 0-based :class:`ChannelSubset`.

    Two forms are accepted: a run of digits ("1356", channels 1..9 only) or
    comma-separated 1-based indices ("1,3,5,6", or "12," for one channel).
    Output is sorted; the result round-trips through :attr:`ChannelSubset.label`.
    """
    text = label.strip()
    if not text:
        raise ValueError("empty subset label")
    if "," in text:
        parts = [p.strip() for p in text.removesuffix(",").split(",")]
    else:
        parts = list(text)
    try:
        one_based = [int(p) for p in parts]
    except ValueError as exc:
        raise ValueError(f"cannot parse subset label {label!r}: {exc}") from None
    if any(i == 0 for i in one_based):
        raise ValueError(f"channel labels are 1-based, got 0 in {label!r}")
    if any(i < 0 for i in one_based):
        raise ValueError(f"negative channel label in {label!r}")
    if any(i > channels for i in one_based):
        bad = max(one_based)
        raise ValueError(f"channel {bad} out of range for {channels}-channel signal")
    if len(one_based) != len(set(one_based)):
        raise ValueError(f"duplicate channel in subset label {label!r}")
    return ChannelSubset(tuple(sorted(i - 1 for i in one_based)))


def draw_channel_mask(channels: int, p: float, rng: np.random.Generator) -> np.ndarray:
    """Draw a boolean keep mask, each entry True with probability 1 - p,
    independently per channel."""
    if not (0.0 <= p <= 1.0):
        raise ValueError(f"dropout probability must be in [0, 1], got {p}")
    return rng.random(channels) < 1.0 - p


def restrict_to_subset(x: MultichannelSignal, s: ChannelSubset) -> MultichannelSignal:
    """Keep only the rows named by ``s``, in subset order; T is unchanged."""
    if s.indices[-1] >= x.channels:
        raise ValueError(
            f"subset {s.label} references channel {s.indices[-1]} "
            f"but signal has {x.channels} channels"
        )
    return MultichannelSignal(x.samples[list(s.indices)], sample_rate=x.sample_rate)


def save_signal(x: MultichannelSignal, header_path: Path) -> None:
    header = {"channels": x.channels, "samples_per_channel": x.n_samples,
              "sample_rate": x.sample_rate}
    write_artefact(header_path, header, x.payload)


def load_signal(header_path: Path) -> MultichannelSignal:
    header, payload = read_artefact(
        header_path, "signal header", ("channels", "samples_per_channel", "sample_rate"),
        lambda h: positive_int(h["channels"], "channels")
        * positive_int(h["samples_per_channel"], "samples_per_channel"))
    with naming("signal header", header_path):
        return MultichannelSignal.from_payload(payload, header["channels"],
                                               header["samples_per_channel"],
                                               float(header["sample_rate"]))
