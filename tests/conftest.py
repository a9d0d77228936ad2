import pytest

from chansel import search
from chansel.phonemes import default_table
from chansel.synth import GeneratorConfig, generate


@pytest.fixture(autouse=True)
def fresh_openblas_lookup():
    """Each test looks up numpy's OpenBLAS thread setter afresh, so the note
    a pool prints on a numpy without one does not depend on an earlier test."""
    search._openblas_library.cache_clear()
    yield
    search._openblas_library.cache_clear()


@pytest.fixture(scope="session")
def table():
    return default_table()


@pytest.fixture(scope="session")
def tiny_corpus():
    """Small 3-channel corpus for model/evaluator tests; trains in well under
    a second."""
    cfg = GeneratorConfig(
        channels=3,
        classes=("B", "IY", "T", "AE"),
        weights=(1.0, 0.7, 0.4),
        noise_sigma=0.4,
        frames_per_segment=6,
        segments_per_utterance=4,
        utterances=16,
        seed=7,
    )
    return generate(cfg)
