"""The traced run: an in-process replica of a workload, built from calls
into each chansel module's public functions, with a span around every call.

Spans (name, start, end, parent) are kept in memory and written out when
the run ends; per-layer metrics are sums over them. The replica runs in two
parts:

* serial: every training task of the workload, one after another, with
  spans around corpus restriction, featurisation, training, evaluation, the
  metric functions evaluation calls and the cache append. Featurisation and
  the metric functions run inside ``train``/``evaluate`` where no span can
  reach, so the replica calls them once more on the same inputs and times
  those calls.
* pooled: the search procedure itself (``exhaustive_sweep`` or
  ``backward_elimination``) over a ``TrainingEvaluator`` with WORKERS
  processes, with spans around cache loads, each ``evaluate_many`` batch,
  each process pool's lifetime and report rendering.

Both parts must reproduce the CLI's cache records bit for bit (all fields
but ``wall_time``) and the pooled part its report files byte for byte.
"""

from __future__ import annotations

import json
import math
import shutil
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from benchlib import median
from workloads import (
    K, STOP_SIZE, WORKERS, Bench, ElimCold, ReplayWarm, Workload, _cache_lines, require,
)

# Per-layer metric -> (unit, better, the end-to-end metric and workloads it
# should move). BENCHMARK.json lists the same names; its schema has no room
# for the third field, so this table is where later changes cite it.
TRAINING = "wall_s, evals_per_s on sweep-cold and elim-cold; none on replay-warm"
PER_LAYER = {
    "model.train_s": ("s", "lower", TRAINING),
    "model.step_ms": ("ms", "lower", TRAINING),
    "model.steps": ("count", "lower", TRAINING),
    "model.featurize_s": ("s", "lower", TRAINING),
    "model.evaluate_s": ("s", "lower", TRAINING),
    "metrics.edit_distance_s": ("s", "lower", "wall_s on sweep-cold and elim-cold (small share)"),
    "metrics.category_per_s": ("s", "lower", "wall_s on sweep-cold and elim-cold (small share)"),
    "corpus.load_s": ("s", "lower", "wall_s on replay-warm"),
    "corpus.restrict_s": ("s", "lower", "wall_s on sweep-cold and elim-cold"),
    "search.cache_load_s": ("s", "lower", "wall_s, peak_rss_mb on replay-warm"),
    "search.cache_records": ("count", "lower", "wall_s, peak_rss_mb on replay-warm"),
    "search.cache_put_s": ("s", "lower", "wall_s on sweep-cold"),
    "search.hits": ("count", "higher", "wall_s on all workloads"),
    "search.misses": ("count", "lower", "wall_s on all workloads"),
    "search.hit_ratio": ("ratio", "higher", "wall_s on all workloads"),
    "search.evaluate_many_s": ("s", "lower", "wall_s on elim-cold, less on sweep-cold"),
    "search.evaluate_many_self_s": ("s", "lower", "wall_s on replay-warm and elim-cold"),
    "search.task_busy_s": ("s", "lower", "wall_s on elim-cold, less on sweep-cold"),
    "search.pool_starts": ("count", "lower", "wall_s on elim-cold, less on sweep-cold"),
    "search.pool_overhead_frac": ("ratio", "lower", "wall_s on elim-cold, less on sweep-cold"),
    "reports.render_s": ("s", "lower", "wall_s on replay-warm"),
    "cli.startup_s": ("s", "lower", "wall_s on replay-warm"),
    "synth.generate_s": ("s", "lower", "setup_s on all workloads"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced serial wall time"),
}

STARTUP_REPEATS = 5


class Tracer:
    """In-memory spans: id, name, parent id, start and end in seconds since
    the tracer started, plus free-form attributes."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._t0 = time.perf_counter()

    @contextmanager
    def span(self, name: str, **attrs):
        record = {"id": len(self.spans), "name": name,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter() - self._t0, "end": None, **attrs}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            self._stack.pop()
            record["end"] = time.perf_counter() - self._t0

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time its direct children
        cover. Children of one span are sequential, so their durations add."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = {}
        for s in self.spans:
            out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[s["id"]]
        return out


def _import_chansel(root: Path):
    sys.path.insert(0, str(root / "src"))
    import chansel

    location = Path(chansel.__file__).resolve()
    if root / "src" not in location.parents:
        raise ImportError(f"chansel imported from {location}, not from {root / 'src'}")
    return chansel


def _record_key(d: dict) -> tuple:
    return (d["subset"], d["seed"], d["config_hash"], d["corpus_hash"])


def _comparable(d: dict) -> str:
    return json.dumps({k: v for k, v in d.items() if k != "wall_time"}, sort_keys=True)


def _diff_records(mine: list[dict], theirs: list[dict]) -> list[str]:
    """Empty when both lists hold the same records, every float equal to
    the bit (``repr`` round-trips float64 exactly)."""
    a = {_record_key(d): _comparable(d) for d in mine}
    b = {_record_key(d): _comparable(d) for d in theirs}
    if a.keys() != b.keys():
        return [f"record keys differ: {len(a.keys() - b.keys())} only in the replica, "
                f"{len(b.keys() - a.keys())} only in the CLI cache"]
    return [f"record {'/'.join(map(str, k[:2]))} differs" for k in sorted(a) if a[k] != b[k]]


def run_traced(wl: Workload, b: Bench) -> dict:
    """Run the CLI once untraced at --workers 1, then the traced replica.
    Returns per-layer metrics, the checks made and the spans."""
    seeding = wl.setup(b, workers=1)
    reference = wl.iterate(b, b.work / "ref", workers=1)
    checks = {"cli reference": [f"exit {r.returncode}" for r in reference.runs if not r.ok]}
    # The untraced serial counterpart of the replica's serial part: for the
    # cold workloads the workload itself at --workers 1; for replay-warm the
    # cold sweep that seeds its cache, run at --workers 1 in its set-up.
    serial_run, trained_in = ((seeding, "seed_sweep") if isinstance(wl, ReplayWarm)
                              else (reference.runs[0], "ref"))
    untraced_serial = serial_run.wall_s
    cli_records = _cache_lines(b.work / trained_in / "cache.jsonl")
    if checks["cli reference"]:
        return {"per_layer": {}, "checks": checks, "spans": []}

    startup = [require(b.cli("--version")).wall_s for _ in range(STARTUP_REPEATS)]

    chansel = _import_chansel(b.root)
    from chansel import model, metrics, reports, search, synth
    from chansel.corpus import load_corpus
    from chansel.phonemes import default_table
    from chansel.signals import parse_subset

    tr = Tracer()
    cfg = b.config
    with tr.span("synth.generate"):
        generated = synth.generate(synth.GeneratorConfig.from_dict(cfg["generator"]))
    with tr.span("corpus.load"):
        corpus = load_corpus(b.corpus)
    checks["generated corpus hash"] = (
        [] if generated.content_hash == corpus.content_hash else ["differs from the CLI corpus"])
    train_c, test_c = corpus.split(float(cfg["eval"]["train_fraction"]))
    t = cfg["train"]
    train_cfg = model.TrainConfig(learning_rate=t["learning_rate"], epochs=t["epochs"],
                                  batch_size=t["batch_size"], dropout_p=t["dropout_p"],
                                  seed=t["seed"])
    table = default_table()
    window, features = cfg["model"]["window"], cfg["model"]["features"]
    threshold = cfg["eval"]["per_threshold"]

    def evaluator(cache, workers: int):
        return search.TrainingEvaluator(
            train_corpus=train_c, test_corpus=test_c, table=table, train_cfg=train_cfg,
            corpus_hash=corpus.content_hash, window=window, features=features,
            replicates=cfg["search"]["replicates"], threshold=threshold,
            workers=workers, cache=cache)

    config_hash = evaluator(search.ResultsCache(None), 1).config_hash

    # --- serial part: the CLI's training tasks, layer by layer ---------------
    steps = 0
    serial_cache_path = b.work / "replica_serial" / "cache.jsonl"
    shutil.rmtree(serial_cache_path.parent, ignore_errors=True)
    with tr.span("replica.serial") as serial:
        with tr.span("search.cache_load"):
            serial_cache = search.ResultsCache(serial_cache_path)
        for task in cli_records:
            label, replicate = task["subset"], task["seed"]
            with tr.span("task", task=f"{label}/{replicate}"):
                subset = parse_subset(label, corpus.channels)
                init_seed, train_seed = search.derive_task_seeds(train_cfg.seed, replicate)
                with tr.span("corpus.restrict"):
                    train_r = train_c.restrict(subset)
                    test_r = test_c.restrict(subset)
                with tr.span("model.featurize"):
                    for seq in (*train_r, *test_r):
                        model.featurize(seq.signal.samples, window)
                params = model.init_params(channels=len(subset), window=window,
                                           features=features,
                                           class_symbols=train_c.label_alphabet(),
                                           seed=init_seed)
                task_cfg = model.TrainConfig(
                    learning_rate=train_cfg.learning_rate, epochs=train_cfg.epochs,
                    batch_size=train_cfg.batch_size, dropout_p=train_cfg.dropout_p,
                    seed=train_seed)
                with tr.span("model.train"):
                    result = model.train(params, train_r, task_cfg)
                steps += len(result.epoch_losses) * math.ceil(len(train_r) / task_cfg.batch_size)
                with tr.span("model.evaluate"):
                    record = model.evaluate(result.params, test_r, table, subset=subset,
                                            threshold=threshold, seed=replicate,
                                            config_hash=config_hash,
                                            corpus_hash=corpus.content_hash)
                with tr.span("model.predict_labels"):
                    hyps = [model.predict_labels(result.params, seq.signal) for seq in test_r]
                with tr.span("metrics.edit_distance"):
                    for seq, hyp in zip(test_r, hyps):
                        metrics.edit_distance(seq.transcript, metrics.collapse_frame_labels(hyp))
                with tr.span("metrics.category_per"):
                    metrics.category_per([lab for seq in test_r for lab in seq.labels],
                                         [lab for hyp in hyps for lab in hyp], table,
                                         threshold=threshold)
                with tr.span("search.cache_put"):
                    serial_cache.put(record)
    serial_wall = serial["end"] - serial["start"]
    checks["serial replica records"] = _diff_records(
        _cache_lines(serial_cache_path), cli_records)

    # --- pooled part: the search procedure and the reports --------------------
    counts = {"hits": 0, "misses": 0, "pool_starts": 0}
    pooled_spans: list[float] = []

    class CountingPool(search.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            counts["pool_starts"] += 1
            self._span = tr.span("search.pool")
            self._span.__enter__()
            super().__init__(*args, **kwargs)

        def shutdown(self, *args, **kwargs):
            try:
                super().shutdown(*args, **kwargs)
            finally:
                if self._span is not None:
                    span, self._span = self._span, None
                    span.__exit__(None, None, None)

    def traced(ev):
        inner = ev.evaluate_many

        def evaluate_many(subsets, require_cached=False):
            misses = sum(ev.cache.get(s.label, ev.corpus_hash, ev.config_hash, r) is None
                         for s in subsets for r in range(ev.replicates))
            counts["misses"] += misses
            counts["hits"] += len(subsets) * ev.replicates - misses
            with tr.span("search.evaluate_many", misses=misses) as span:
                out = inner(subsets, require_cached=require_cached)
            if misses:
                pooled_spans.append(span["end"] - span["start"])
            return out

        ev.evaluate_many = evaluate_many
        return ev

    def render(result) -> dict[str, bytes]:
        prov = reports.Provenance(version=chansel.__version__, config_hash=config_hash,
                                  corpus_hash=corpus.content_hash, seed=train_cfg.seed)
        if isinstance(result, search.EliminationTrace):
            texts = {"elimination.json": reports.elimination_json(result, prov),
                     "elimination_curve.csv": reports.elimination_plot_csv(result, prov)}
        else:
            k_top = min(cfg["search"]["k_top"], len(result.records))
            counts_top = search.top_k_frequency(result, k_top)
            averages = search.channel_average_metric(result)
            texts = {"sweep.csv": reports.sweep_csv(result, prov),
                     "top_subsets.csv": reports.top_subsets_csv(result, k_top, counts_top, prov),
                     "channel_average.csv": reports.channel_average_csv(
                         averages, result.metric_name, prov)}
        return {name: text.encode("utf-8") for name, text in texts.items()}

    def run_search(cache_path: Path):
        with tr.span("search.cache_load"):
            cache = search.ResultsCache(cache_path)
        ev = traced(evaluator(cache, WORKERS))
        if isinstance(wl, ElimCold):
            with tr.span("search.backward_elimination"):
                result = search.backward_elimination(ev, channels=corpus.channels,
                                                     stop_size=STOP_SIZE, metric="per_total")
        else:
            with tr.span("search.exhaustive_sweep"):
                result = search.exhaustive_sweep(ev, channels=corpus.channels, k=K,
                                                 metric="per_total")
        with tr.span("reports.render"):
            rendered = render(result)
        return cache, rendered

    pooled_cache_path = b.work / "replica_pooled" / "cache.jsonl"
    shutil.rmtree(pooled_cache_path.parent, ignore_errors=True)
    saved_pool = search.ProcessPoolExecutor
    search.ProcessPoolExecutor = CountingPool
    try:
        with tr.span("replica.pooled"):
            if isinstance(wl, ReplayWarm):
                searched = wl.cache_dir(b) / "cache.jsonl"
                size = searched.stat().st_size
                passes = {"sweep/": run_search(searched), "report/": run_search(searched)}
                checks["replica trained nothing"] = (
                    [] if searched.stat().st_size == size else ["the shared cache grew"])
                cache = passes["report/"][0]
                rendered = {p + n: data for p, (_, r) in passes.items() for n, data in r.items()}
            else:
                searched = pooled_cache_path
                cache, rendered = run_search(searched)
                checks["pooled replica records"] = _diff_records(
                    _cache_lines(searched), cli_records)
    finally:
        search.ProcessPoolExecutor = saved_pool
    checks["replica reports"] = [f"{name} differs from the CLI's"
                                 for name, data in reference.outputs.items()
                                 if rendered.get(name) != data]
    checks["replica reports"] += [f"{name} missing from the CLI's output"
                                  for name in rendered if name not in reference.outputs]

    # Task time behind the search's records: trained by the pool on the cold
    # workloads, served from the cache (recorded when trained) on replay-warm.
    busy = sum(d["wall_time"] for d in _cache_lines(searched)
               if (d["config_hash"], d["corpus_hash"]) == (config_hash, corpus.content_hash))
    train_s = tr.total("model.train")
    self_s = tr.self_times()
    lookups = counts["hits"] + counts["misses"]
    per_layer = {
        "model.train_s": train_s,
        "model.step_ms": 1000.0 * train_s / steps if steps else 0.0,
        "model.steps": steps,
        "model.featurize_s": tr.total("model.featurize"),
        "model.evaluate_s": tr.total("model.evaluate"),
        "metrics.edit_distance_s": tr.total("metrics.edit_distance"),
        "metrics.category_per_s": tr.total("metrics.category_per"),
        "corpus.load_s": tr.total("corpus.load"),
        "corpus.restrict_s": tr.total("corpus.restrict"),
        "search.cache_load_s": tr.total("search.cache_load"),
        "search.cache_records": len(cache),
        "search.cache_put_s": tr.total("search.cache_put"),
        "search.hits": counts["hits"],
        "search.misses": counts["misses"],
        "search.hit_ratio": counts["hits"] / lookups if lookups else 0.0,
        "search.evaluate_many_s": tr.total("search.evaluate_many"),
        "search.evaluate_many_self_s": self_s.get("search.evaluate_many", 0.0),
        "search.task_busy_s": busy,
        "search.pool_starts": counts["pool_starts"],
        "search.pool_overhead_frac": (1.0 - busy / (WORKERS * sum(pooled_spans))
                                      if pooled_spans else 0.0),
        "reports.render_s": tr.total("reports.render"),
        "cli.startup_s": median(startup),
        "synth.generate_s": tr.total("synth.generate"),
        "trace.overhead_s": serial_wall - untraced_serial,
    }
    return {
        "per_layer": per_layer,
        "checks": checks,
        "spans": tr.spans,
        "self_s": self_s,
        "untraced_serial_wall_s": untraced_serial,
        "traced_serial_wall_s": serial_wall,
    }
