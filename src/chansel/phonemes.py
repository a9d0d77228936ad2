"""Phoneme inventory and the linguistic/articulatory category taxonomy.

The shipped inventory is the 39-symbol ARPABET set plus one silence marker
(SIL). Consonants carry exactly one manner and one place of articulation,
vowels exactly one height, one backness and one rounding; both dental
fricatives (TH, DH) are filed under the alveolar place since the taxonomy
has no separate dental class. Everything is loaded from a CSV so the table
can be swapped for a different inventory without touching code.

Category names are flat strings: the kinds, then every feature value under
its field's prefix in ``_FIELDS`` (e.g. "voiced", "manner_nasal",
"vowel_high"). Rare classes (affricates, glides, postalveolars, glottals,
labiovelars, palatals) are full members of the taxonomy; dropping them from
reports is the metrics layer's job, not a gap here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Iterable, Iterator

from .artefacts import naming

SILENCE_SYMBOL = "SIL"

VOICINGS = ("voiced", "voiceless")
MANNERS = ("liquid", "fricative", "nasal", "plosive", "affricate", "glide")
PLACES = (
    "bilabial",
    "alveolar",
    "labiodental",
    "velar",
    "postalveolar",
    "glottal",
    "labiovelar",
    "palatal",
)
HEIGHTS = ("high", "mid", "low")
BACKNESSES = ("front", "central", "back")
ROUNDINGS = ("rounded", "unrounded")

# The taxonomy, stated once. Each feature field maps to its allowed values
# and the prefix of its category names, in report order; each kind maps to
# the fields it carries, and every other field of that kind stays empty.
_FIELDS = {
    "voicing": (VOICINGS, ""),
    "manner": (MANNERS, "manner_"),
    "place": (PLACES, "place_"),
    "height": (HEIGHTS, "vowel_"),
    "backness": (BACKNESSES, "vowel_"),
    "rounding": (ROUNDINGS, "vowel_"),
}
_KIND_FIELDS = {
    "vowel": ("voicing", "height", "backness", "rounding"),
    "consonant": ("voicing", "manner", "place"),
    "silence": (),
}
KINDS = tuple(_KIND_FIELDS)


@dataclass(frozen=True)
class Phoneme:
    """One inventory entry; feature fields are None when not applicable."""

    symbol: str
    kind: str
    voicing: str | None = None
    manner: str | None = None
    place: str | None = None
    height: str | None = None
    backness: str | None = None
    rounding: str | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KIND_FIELDS:
            raise ValueError(f"{self.symbol}: unknown kind {self.kind!r}")
        own = _KIND_FIELDS[self.kind]
        for name, (values, _) in _FIELDS.items():
            value = getattr(self, name)
            if name in own and value not in values:
                raise ValueError(f"{self.symbol}: {self.kind} needs one {name}, got {value!r}")
            if name not in own and value:
                raise ValueError(
                    f"{self.symbol}: {self.kind} has no features of {name}, got {value!r}")

    def categories(self) -> frozenset[str]:
        """All category names whose predicate holds for this phoneme."""
        own = _KIND_FIELDS[self.kind]
        return frozenset({self.kind, *(_FIELDS[name][1] + getattr(self, name) for name in own)})


def category_names() -> tuple[str, ...]:
    """Canonical report order for every category the taxonomy defines: the
    kinds, then each field's prefixed values in table order."""
    return KINDS + tuple(prefix + value for values, prefix in _FIELDS.values() for value in values)


class CategoryTable:
    """Phoneme inventory plus both directions of the category relation."""

    def __init__(self, phonemes: Iterable[Phoneme]):
        entries = list(phonemes)
        if not entries:
            raise ValueError("empty phoneme inventory")
        self._by_symbol: dict[str, Phoneme] = {}
        for ph in entries:
            if ph.symbol in self._by_symbol:
                raise ValueError(f"duplicate phoneme symbol {ph.symbol!r}")
            self._by_symbol[ph.symbol] = ph
        self._names = category_names()
        members: dict[str, set[str]] = {name: set() for name in self._names}
        for ph in entries:
            for name in ph.categories():
                members[name].add(ph.symbol)
        self._members = {name: frozenset(syms) for name, syms in members.items()}

    @property
    def names(self) -> tuple[str, ...]:
        return self._names

    @property
    def symbols(self) -> tuple[str, ...]:
        return tuple(self._by_symbol)

    def phoneme(self, symbol: str) -> Phoneme:
        try:
            return self._by_symbol[symbol]
        except KeyError:
            raise KeyError(f"unknown phoneme symbol {symbol!r}") from None

    def __contains__(self, symbol: str) -> bool:
        return symbol in self._by_symbol

    def category_members(self, name: str) -> frozenset[str]:
        try:
            return self._members[name]
        except KeyError:
            raise KeyError(f"unknown category {name!r}") from None

    @classmethod
    def from_csv(cls, path: Path) -> "CategoryTable":
        with open(path, newline="", encoding="utf-8") as fh, naming("phoneme table", path):
            reader = csv.DictReader(fh)
            columns = ("symbol", "kind", *_FIELDS)
            header = reader.fieldnames or ()
            missing = [c for c in columns if c not in header]
            if missing:
                raise ValueError(f"lacks the column(s) {', '.join(missing)}")

            def phonemes() -> Iterator[Phoneme]:
                for row in reader:
                    short = [c for c in columns if row[c] is None]
                    if short:
                        raise ValueError(f"line {reader.line_num} stops before the "
                                         f"column(s) {', '.join(short)}")
                    yield Phoneme(symbol=row["symbol"].strip(), kind=row["kind"].strip(),
                                  **{name: row[name].strip() or None for name in _FIELDS})

            return cls(phonemes())


@lru_cache(maxsize=1)
def default_table() -> CategoryTable:
    """ARPABET-39 + SIL table shipped with the package."""
    with resources.as_file(resources.files("chansel").joinpath("data/arpabet.csv")) as path:
        return CategoryTable.from_csv(path)
