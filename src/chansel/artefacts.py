"""The files chansel reads and writes, and how a damaged one is named.

An artefact is a JSON header ``NAME.json`` next to a payload ``NAME.bin`` of
float64 values, little-endian and row-major; the header says how many.
Signals and models are artefacts; a loader checks the header before
``read_payload`` reads the payload's bytes. Every other file chansel writes,
except the results cache, is text written by ``write_text``.

Every ValueError raised while reading a file, or building an object from
it, reads ``<what> <path> <problem>``; ``naming`` adds the first two, also
to a TypeError, which a value of the wrong type in a file raises, and to an
OverflowError, which a number too large for a float raises.

Every module that uses numpy imports ``np`` from here, bound by
``lazy_numpy``, so a command that builds no array never loads numpy.
"""

from __future__ import annotations

import importlib.util
import json
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator


def lazy_numpy():
    """numpy, loaded on its first attribute read; unless numpy is imported
    already, the lazy module goes into ``sys.modules``. An ``import numpy``
    statement reads ``__spec__``, which loads it, so modules import ``np`` here."""
    module = sys.modules.get("numpy")
    if module is None:
        spec = importlib.util.find_spec("numpy")
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules["numpy"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    return module


np = lazy_numpy()


def read_json(path: Path, what: str, keys: Iterable[str] = ()) -> dict:
    """The JSON object in ``path``. A file that is not JSON, not an object,
    or lacks one of ``keys`` is a ValueError naming ``what`` and the path."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{what} {path} is not JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ValueError(f"{what} {path} must hold a JSON object")
    missing = [key for key in keys if key not in doc]
    if missing:
        raise ValueError(f"{what} {path} has no {', '.join(map(repr, missing))} key")
    return doc


@contextmanager
def naming(what: str, path: Path) -> Iterator[None]:
    """Re-raise a ValueError, TypeError or OverflowError as ``<what> <path> <problem>``."""
    try:
        yield
    except (ValueError, TypeError, OverflowError) as exc:
        raise ValueError(f"{what} {path} {exc}") from None


def positive_int(value, key: str) -> int:
    if type(value) is not int:
        raise ValueError(f"key {key!r} must be an integer, got {value!r}")
    if value < 1:
        raise ValueError(f"key {key!r} must be at least 1, got {value!r}")
    return value


def check_format_version(doc: dict, expected: int) -> None:
    """Refuse a file written in another format than the one this code reads."""
    version = doc["format_version"]
    if type(version) is not int or version != expected:
        raise ValueError(f"has format_version {version!r}, expected {expected}")


def json_text(doc, indent: int | None = 2) -> str:
    return json.dumps(doc, indent=indent, sort_keys=True) + "\n"


def write_text(path: Path, text: str) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(text, encoding="utf-8")


def payload_bytes(values: np.ndarray) -> bytes:
    return np.ascontiguousarray(values, dtype="<f8").tobytes()


def write_artefact(header_path: Path, header: dict, payload: bytes,
                   indent: int | None = None) -> None:
    write_text(header_path, json_text(header, indent))
    Path(header_path).with_suffix(".bin").write_bytes(payload)


def read_payload(header_path: Path, count: int) -> bytes:
    """The payload beside ``header_path``, which must hold ``count`` values."""
    raw = Path(header_path).with_suffix(".bin").read_bytes()
    if len(raw) != 8 * count:
        raise ValueError(f"payload holds {len(raw)} bytes, expected {8 * count}")
    return raw
