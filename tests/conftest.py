import json

import pytest

from chansel import search
from chansel.cli import EXIT_OK, main
from chansel.phonemes import default_table
from chansel.synth import GeneratorConfig, generate
from util import TINY_CONFIG


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


@pytest.fixture()
def workdir(tmp_path):
    """``tmp_path`` holding ``config.json``, which is ``TINY_CONFIG``."""
    (tmp_path / "config.json").write_text(json.dumps(TINY_CONFIG))
    return tmp_path


@pytest.fixture()
def corpus_dir(workdir):
    """``workdir / "corpus"``, which ``gen-data`` writes from the config."""
    out = workdir / "corpus"
    assert main(["gen-data", "--config", str(workdir / "config.json"),
                 "--out", str(out)]) == EXIT_OK
    return out


@pytest.fixture()
def run_cli(workdir):
    """``run_cli(command, out, *flags)``: the exit code of ``command`` on the
    workdir's config and corpus, which it does not make (see ``corpus_dir``)."""
    config, corpus = str(workdir / "config.json"), str(workdir / "corpus")

    def run(command: str, out, *flags: str) -> int:
        return main([command, "--config", config, "--corpus", corpus, "--out", str(out),
                     *flags])
    return run


@pytest.fixture()
def pretrain_dir(workdir, corpus_dir, run_cli):
    """The output of ``pretrain`` on the workdir's corpus."""
    pre = workdir / "pretrain"
    run_cli("pretrain", pre)
    return pre


@pytest.fixture()
def clean_dir(workdir, corpus_dir, run_cli, capsys):
    """The output of ``exhaustive`` on an empty cache; its console output is
    left in ``capsys`` for the test to read."""
    clean = workdir / "clean"
    run_cli("exhaustive", clean)
    return clean
