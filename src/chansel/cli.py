"""Command-line entry point and experiment orchestration.

Subcommands: gen-data, pretrain, finetune, backward-elim, exhaustive,
ablate7, report. Settings come from a JSON config file; DEFAULT_CONFIG is
its schema, and a key it lacks or a value of another type is a config error.
Every flag overrides its file value. Exit codes: 0 success, 1 usage error,
2 data/config error, 3 evaluator divergence, 130 interrupted (SIGINT); an
interrupted search keeps every record it finished and says how many.

The results cache lives in <output-dir>/cache.jsonl unless CHANSEL_CACHE_DIR
points somewhere else. Outputs embed (version, config hash, corpus hash,
seed) and contain no timestamps, so reruns with equal hashes are
byte-identical.
"""

from __future__ import annotations

import argparse
import copy
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from functools import partial
from pathlib import Path
from types import SimpleNamespace
from typing import Any

from . import __version__, reports
from .artefacts import json_text, naming, read_json, write_text
from .corpus import Corpus, load_corpus, save_corpus
from .metrics import DEFAULT_CATEGORY_THRESHOLD
from .model import (
    EvalRecord,
    TrainConfig,
    TrainingDivergedError,
    init_params,
    label_indices,
    load_model,
    save_model,
    slice_input_channels,
    train,
)
from .phonemes import default_table
from .search import (
    DEFAULT_SWEEP_BUDGET,
    EvaluationError,
    ResultsCache,
    TaskInputs,
    TrainingEvaluator,
    backward_elimination,
    channel_average_metric,
    config_fingerprint,
    exhaustive_sweep,
    seven_channel_ablation,
    top_k_frequency,
    train_and_score,
)
from .signals import parse_subset
from .synth import GeneratorConfig, generate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_DIVERGED = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT

SUBSET_PRESETS = {"4ch": "1356", "5ch": "12345", "6ch": "123458", "7ch": "1234578"}

DEFAULT_CONFIG: dict[str, dict[str, Any]] = {
    "generator": GeneratorConfig().to_dict(),
    "model": {"window": 9, "features": 32},
    "train": asdict(TrainConfig()),
    "search": {"k": 4, "k_top": 10, "stop_size": 2, "replicates": 3, "metric": "wer",
               "budget": DEFAULT_SWEEP_BUDGET,
               "workers": 0},  # 0 = CPUs this process may run on
    "eval": {"per_threshold": DEFAULT_CATEGORY_THRESHOLD, "train_fraction": 0.75},
}


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _typed(name: str, value: Any, default: Any) -> Any:
    """``value`` as the type of its default; a number converts to the other
    number type only when no value is lost (2 -> 2.0, 2.0 -> 2, not 2.5).
    A null default takes any value: GeneratorConfig checks those keys."""
    kind = type(default)
    if default is None or type(value) is kind:
        return value
    if kind in (int, float) and type(value) in (int, float):
        try:
            typed = kind(value)
        except (ValueError, OverflowError):  # nan, infinity or beyond float range
            typed = None
        if typed == value:
            return typed
    raise ValueError(f"config {name} must be {kind.__name__}, got {value!r}")


def load_config(path: str | None) -> dict:
    """DEFAULT_CONFIG overlaid with the file's values. Only its sections and
    keys are allowed, and each value takes the type of its default."""
    cfg = copy.deepcopy(DEFAULT_CONFIG)
    if not path:
        return cfg
    doc = read_json(Path(path), "config file")
    with naming("config file", path):
        for section, values in doc.items():
            if section not in cfg:
                raise ValueError(f"has the unknown config section {section!r}")
            if not isinstance(values, dict):
                raise ValueError(f"config section {section} must be a JSON object, got {values!r}")
            for key, value in values.items():
                if key not in cfg[section]:
                    raise ValueError(f"has the unknown config key {section}.{key}")
                cfg[section][key] = _typed(f"{section}.{key}", value, cfg[section][key])
    return cfg


# Flags that override one config value: flag name -> (section, key). Every
# key outside `generator` is the flag of its own name. A subcommand names the
# flags it accepts, each spelled --name-with-dashes and typed as its default.
FLAGS: dict[str, tuple[str, str]] = {
    **{key: (section, key) for section in ("train", "model", "search", "eval")
       for key in DEFAULT_CONFIG[section]},
    "gen_seed": ("generator", "seed"),
    "utterances": ("generator", "utterances"),
    "noise_sigma": ("generator", "noise_sigma"),
}

TRAINING_FLAGS = ("seed", "epochs", "learning_rate", "batch_size")
SEARCH_FLAGS = (*TRAINING_FLAGS, "window", "features", "replicates", "workers",
                "train_fraction", "per_threshold")


def _apply_overrides(cfg: dict, args: argparse.Namespace) -> dict:
    """Flags beat file values."""
    for flag, (section, key) in FLAGS.items():
        value = getattr(args, flag, None)
        if value is not None:
            cfg[section][key] = value
    return cfg


def _cache_path(out_dir: Path) -> Path:
    env = os.environ.get("CHANSEL_CACHE_DIR")
    base = Path(env) if env else out_dir
    return base / "cache.jsonl"


def _available_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (a container or taskset can narrow it), else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _evaluator(corpus: Corpus, cfg: dict, out_dir: Path) -> TrainingEvaluator:
    train_c, test_c = corpus.split(cfg["eval"]["train_fraction"])
    return TrainingEvaluator(
        train_corpus=train_c,
        test_corpus=test_c,
        table=default_table(),
        train_cfg=TrainConfig(**cfg["train"]),
        corpus_hash=corpus.content_hash,
        window=cfg["model"]["window"],
        features=cfg["model"]["features"],
        replicates=cfg["search"]["replicates"],
        threshold=cfg["eval"]["per_threshold"],
        workers=cfg["search"]["workers"] or _available_cpus(),
        cache=ResultsCache(_cache_path(out_dir)),
    )


def _record_doc(record) -> dict:
    return {**record.to_dict(), "tool_version": __version__}


# --- subcommands ---------------------------------------------------------------


def cmd_gen_data(args: argparse.Namespace, cfg: dict) -> int:
    gen = GeneratorConfig.from_dict(cfg["generator"])
    corpus = generate(gen)
    digest = save_corpus(corpus, Path(args.out), force=args.force)
    print(f"wrote {len(corpus)} utterances to {args.out} (hash {digest[:12]})")
    return EXIT_OK


def cmd_pretrain(args: argparse.Namespace, cfg: dict) -> int:
    corpus = load_corpus(Path(args.corpus))
    train_c, _ = corpus.split(cfg["eval"]["train_fraction"])
    train_cfg = TrainConfig(**cfg["train"])
    config_hash = config_fingerprint(train_cfg, cfg["model"]["window"], cfg["model"]["features"],
                                     cfg["eval"]["per_threshold"], len(train_c))
    params = init_params(
        channels=corpus.channels,
        window=cfg["model"]["window"],
        features=cfg["model"]["features"],
        class_symbols=corpus.label_alphabet(),
        seed=train_cfg.seed,
    )
    result = train(params, train_c, train_cfg)
    out_dir = Path(args.out)
    model_path = out_dir / f"model_p{train_cfg.dropout_p:g}.json"
    save_model(result.params, model_path, seed=train_cfg.seed, config_hash=config_hash)
    prov = reports.Provenance(config_hash, corpus.content_hash, train_cfg.seed)
    write_text(
        out_dir / f"training_log_p{train_cfg.dropout_p:g}.csv",
        reports.training_log_csv(result.epoch_losses, result.mean_retained_channels, prov),
    )
    print(
        f"trained p={train_cfg.dropout_p:g} model: loss {result.initial_loss:.4f} -> "
        f"{result.final_loss:.4f}, mean retained channels "
        f"{result.mean_retained_channels:.2f}, saved {model_path}"
    )
    return EXIT_OK


def cmd_finetune(args: argparse.Namespace, cfg: dict) -> int:
    if not args.init and not args.from_scratch:
        raise ValueError("finetune needs --init MODEL and/or --from-scratch")
    corpus = load_corpus(Path(args.corpus))
    threshold = cfg["eval"]["per_threshold"]
    subset = parse_subset(SUBSET_PRESETS.get(args.subset, args.subset), corpus.channels)
    train_c, test_c = corpus.split(cfg["eval"]["train_fraction"])
    out_dir = Path(args.out)

    seed, epochs = cfg["train"]["seed"], cfg["train"]["epochs"]
    window, features = cfg["model"]["window"], cfg["model"]["features"]
    # fine-tuning never masks channels; dropout belongs to pretraining.
    # epochs == 0 evaluates the initialisation as-is and trains on no
    # utterance, so it hashes n_train=0 to stay apart from --epochs 1.
    train_seqs = train_c.sequences if epochs else ()
    ft_cfg = TrainConfig(**{**cfg["train"], "epochs": max(epochs, 1), "dropout_p": 0.0})
    config_hash = config_fingerprint(ft_cfg, window, features, threshold, len(train_seqs))
    prov = reports.Provenance(config_hash, corpus.content_hash, seed)
    # the sides, each (mode, start model, parent payload hash), train as one
    # stack, whose slots share labels: scratch takes an --init model's order
    sides = []
    class_symbols = corpus.label_alphabet()
    if args.init:
        full_params, manifest = load_model(Path(args.init))
        if full_params.channels != corpus.channels:
            raise ValueError(f"--init model has {full_params.channels} channels, "
                             f"the corpus has {corpus.channels}")
        if (full_params.window, full_params.features) != (window, features):
            raise ValueError(f"--init model has window {full_params.window} and features "
                             f"{full_params.features}, the config has window {window} and "
                             f"features {features}")
        label_indices(train_c.sequences, full_params.class_symbols)  # also at --epochs 0
        class_symbols = full_params.class_symbols
        sides.append(("ft", slice_input_channels(full_params, subset), manifest["payload_sha256"]))
    if args.from_scratch:
        scratch = init_params(len(subset), window, features, class_symbols, seed=seed)
        sides.append(("scratch", scratch, None))
    inputs = TaskInputs.from_splits(
        train_seqs, test_c.sequences, class_symbols, default_table(), train_cfg=ft_cfg,
        window=window, features=features, threshold=threshold, config_hash=config_hash,
        corpus_hash=corpus.content_hash)
    outcomes = train_and_score(inputs, [start for _, start, _ in sides], [subset] * len(sides),
                               seed, seed)
    records = []
    for (mode, _, parent_hash), outcome in zip(sides, outcomes):
        if isinstance(outcome, Exception):
            raise outcome
        tuned, record = outcome
        save_model(
            tuned, out_dir / f"model_{mode}_{subset.label}.json",
            seed=seed, config_hash=config_hash,
            provenance={"parent": parent_hash, "subset": subset.label},
        )
        write_text(out_dir / f"eval_{mode}_{subset.label}.json", json_text(_record_doc(record)))
        records.append((mode, record))
        print(f"{mode} {subset.label}: wer {record.wer:.4f}, per {record.per_total:.4f}")

    write_text(out_dir / f"comparison_{subset.label}.csv", reports.comparison_csv(records, prov))
    return EXIT_OK


@contextmanager
def _search_setup(args: argparse.Namespace, cfg: dict):
    """Corpus, output directory, evaluator and provenance shared by
    the search subcommands. On exit, whether the search finished or raised,
    warns about the cache lines that could not be read: every damaged line
    of this config (its records are all decoded when the search first reads
    one), and of other lines only those without the canonical head that are
    not UTF-8 JSON or name no config. An interrupt is raised again with
    the number of records the search kept and the cache they are in."""
    corpus = load_corpus(Path(args.corpus))
    out_dir = Path(args.out)
    evaluator = _evaluator(corpus, cfg, out_dir)
    prov = reports.Provenance(evaluator.config_hash, corpus.content_hash, evaluator.train_cfg.seed)
    try:
        yield corpus, out_dir, evaluator, prov
    except KeyboardInterrupt:
        raise KeyboardInterrupt(f"kept {evaluator.training_runs} new records in "
                                f"{evaluator.cache.path}; rerun to resume") from None
    finally:
        cache = evaluator.cache
        if cache.skipped_lines:
            print(f"warning: skipped {cache.skipped_lines} unreadable cache lines in "
                  f"{cache.path}", file=sys.stderr)


def cmd_backward_elim(args: argparse.Namespace, cfg: dict) -> int:
    with _search_setup(args, cfg) as (corpus, out_dir, evaluator, prov):
        trace = backward_elimination(
            evaluator,
            channels=corpus.channels,
            stop_size=cfg["search"]["stop_size"],
            metric=cfg["search"]["metric"],
        )
        write_text(out_dir / "elimination.json", reports.elimination_json(trace, prov))
        write_text(out_dir / "elimination_curve.csv", reports.elimination_plot_csv(trace, prov))
    order = ", ".join(str(ch + 1) for ch in trace.removal_order)
    print(f"removal order: {order}; survivors: {trace.steps[-1].surviving.label}")
    return EXIT_OK


def _sweep_reports(args: argparse.Namespace, cfg: dict, cached_only: bool):
    """Run (or, cached_only, replay from the cache) the exhaustive sweep and
    write its three reports; returns the sweep and the output directory."""
    with _search_setup(args, cfg) as (corpus, out_dir, evaluator, prov):
        if cached_only:
            evaluator = SimpleNamespace(
                evaluate_many=partial(evaluator.evaluate_many, require_cached=True),
                close=evaluator.close)
        sweep = exhaustive_sweep(
            evaluator,
            channels=corpus.channels,
            k=cfg["search"]["k"],
            metric=cfg["search"]["metric"],
            budget=cfg["search"]["budget"],
        )
        k_top = min(cfg["search"]["k_top"], len(sweep.records))
        counts = top_k_frequency(sweep, k_top)
        averages = channel_average_metric(sweep)
        write_text(out_dir / "sweep.csv", reports.sweep_csv(sweep, prov))
        write_text(out_dir / "top_subsets.csv", reports.top_subsets_csv(sweep, k_top, counts, prov))
        write_text(out_dir / "channel_average.csv",
                   reports.channel_average_csv(averages, sweep.metric_name, prov))
    return sweep, out_dir


def cmd_exhaustive(args: argparse.Namespace, cfg: dict) -> int:
    sweep, _ = _sweep_reports(args, cfg, cached_only=False)
    best = sweep.records[0]
    print(
        f"swept {len(sweep.records)} subsets; best {best.subset_label} "
        f"({sweep.metric_name} {best.metric(sweep.metric_name):.4f})"
    )
    return EXIT_OK


def cmd_ablate7(args: argparse.Namespace, cfg: dict) -> int:
    with _search_setup(args, cfg) as (corpus, out_dir, evaluator, prov):
        result = seven_channel_ablation(evaluator, corpus.channels)
        write_text(out_dir / "worst_channel.csv", reports.worst_channel_csv(result.rows, prov))
        records_doc = {
            "baseline": _record_doc(result.baseline),
            "by_removed_channel": {
                str(ch): _record_doc(rec) for ch, rec in sorted(result.records.items())
            },
        }
        write_text(out_dir / "ablation_records.json", json_text(records_doc))
    print(f"ablated {corpus.channels} channels; wrote {out_dir / 'worst_channel.csv'}")
    return EXIT_OK


def cmd_report(args: argparse.Namespace, cfg: dict) -> int:
    sweep, out_dir = _sweep_reports(args, cfg, cached_only=True)
    print(f"rebuilt reports for {len(sweep.records)} cached subsets in {out_dir}")
    return EXIT_OK


# --- wiring ---------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser, corpus: bool = True) -> None:
    sub.add_argument("--config", help="JSON config file; flags override its values")
    sub.add_argument("--out", required=True, help="output directory")
    if corpus:
        sub.add_argument("--corpus", required=True, help="corpus directory")


def _add_flags(sub: argparse.ArgumentParser, names) -> None:
    for name in names:
        section, key = FLAGS[name]
        sub.add_argument("--" + name.replace("_", "-"), type=type(DEFAULT_CONFIG[section][key]))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chansel", description=__doc__)
    parser.add_argument("--version", action="version", version=f"chansel {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    p = commands.add_parser("gen-data", help="generate a synthetic corpus")
    _add_common(p, corpus=False)
    p.add_argument("--force", action="store_true", help="overwrite an existing corpus")
    _add_flags(p, ("gen_seed", "utterances", "noise_sigma"))
    p.set_defaults(func=cmd_gen_data)

    p = commands.add_parser("pretrain", help="train the full-channel model")
    _add_common(p)
    _add_flags(p, (*TRAINING_FLAGS, "dropout_p", "window", "features", "train_fraction"))
    p.set_defaults(func=cmd_pretrain)

    p = commands.add_parser("finetune", help="slice a pretrained model to a subset and adapt it")
    _add_common(p)
    p.add_argument("--subset", required=True,
                   help=f"subset label like 1356, or a preset: {', '.join(SUBSET_PRESETS)}")
    p.add_argument("--init", help="pretrained model JSON header to slice")
    p.add_argument("--from-scratch", action="store_true",
                   help="also (or only) train a scratch baseline on the subset")
    _add_flags(p, (*TRAINING_FLAGS, "window", "features", "train_fraction", "per_threshold"))
    p.set_defaults(func=cmd_finetune)

    for name, handler, extras in (
        ("backward-elim", cmd_backward_elim, ("metric", "stop_size")),
        ("exhaustive", cmd_exhaustive, ("metric", "k", "k_top", "budget")),
        ("ablate7", cmd_ablate7, ()),
        ("report", cmd_report, ("metric", "k", "k_top")),
    ):
        p = commands.add_parser(name, help=f"{name} workflow")
        _add_common(p)
        _add_flags(p, (*SEARCH_FLAGS, *extras))
        p.set_defaults(func=handler)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        # every subcommand refuses an out-of-range setting before it reads a
        # file; only finetune takes epochs 0, which scores without training
        GeneratorConfig.from_dict(cfg["generator"])
        epochs = cfg["train"]["epochs"] or int(args.command == "finetune")
        TrainConfig(**{**cfg["train"], "epochs": epochs})
        for section, key in (("eval", "per_threshold"), ("search", "k"), ("search", "k_top"),
                             ("search", "stop_size"), ("search", "budget"),
                             ("search", "replicates"), ("model", "window"),
                             ("model", "features")):
            if cfg[section][key] < 1:
                raise ValueError(f"{key} must be >= 1, got {cfg[section][key]}")
        if cfg["search"]["workers"] < 0:  # 0 runs as many workers as there are CPUs
            raise ValueError(f"workers must be >= 0, got {cfg['search']['workers']}")
        if not 0.0 < cfg["eval"]["train_fraction"] < 1.0:
            raise ValueError(f"train_fraction must be in (0, 1), got "
                             f"{cfg['eval']['train_fraction']}")
        EvalRecord.check_metric(cfg["search"]["metric"])
        return args.func(args, cfg)
    except TrainingDivergedError as exc:
        print(f"error: training diverged: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except EvaluationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED if isinstance(exc.__cause__, TrainingDivergedError) else EXIT_DATA
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except KeyboardInterrupt as exc:  # a search says what it kept
        print(f"interrupted: {exc}" if exc.args else "interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
