"""Workload definitions and the untraced, end-to-end measurement.

Every workload runs the ``chansel`` CLI as a child process (``python -m
chansel.cli`` against the checkout's ``src/``), timed by the parent with
its resource usage taken from ``os.wait4``, so CPU time and peak RSS include
the CLI's pool workers. Wall times leave out the hypervisor's steal time
(``benchlib.unstolen_wall``). BLAS and OpenMP threads are pinned to one per
process and the pool size is passed explicitly: with the library defaults
the two pool workers run four compute threads on two cores and the
measurement is of the scheduler, not the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from benchlib import (
    busy_steal_seconds, cpu_snapshot, kendall_tau, median, relative_iqr, tail_percentile,
    unstolen_wall,
)

WORKERS = 2
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS", "BLIS_NUM_THREADS",
)
CHILD_TIMEOUT_S = 150.0
SETUP_REPEATS = 3
MIN_ITERATIONS = 3

# Planted channel weights: three well separated tiers, permuted across the
# channel indices by the workload seed. Within a tier the weights are equal,
# so the oracle only asks for the tier order, which the reduced training
# below recovers on nearly every seed; that keeps oracle_tau steady across
# seeds while a numerics change that damages training still moves it.
LADDER = (1.0, 1.0, 0.6, 0.6, 0.0, 0.0, 0.0, 0.0)
CLASSES = ("B", "IY", "T", "AE", "S", "UW")
K = 4
STOP_SIZE = 2
REPLICATES = 1
SWEEP_TASKS = math.comb(len(LADDER), K) * REPLICATES
ELIM_TASKS = sum(range(STOP_SIZE + 1, len(LADDER) + 1)) * REPLICATES
# Other configs' records in the replay-warm cache (70 lines each, about
# 10k lines), as a shared CHANSEL_CACHE_DIR accumulates them. Sized so that
# loading the cache is the largest step of the replay.
FOREIGN_CONFIGS = 143

SWEEP_REPORTS = ("sweep.csv", "top_subsets.csv", "channel_average.csv")
ELIM_REPORTS = ("elimination.json", "elimination_curve.csv")


def planted_weights(seed: int) -> tuple[float, ...]:
    order = list(range(len(LADDER)))
    random.Random(seed).shuffle(order)
    weights = [0.0] * len(LADDER)
    for rung, channel in zip(LADDER, order):
        weights[channel] = rung
    return tuple(weights)


def bench_config(seed: int) -> dict:
    """The CLI config for one workload seed. Training is cut to about 160
    gradient steps on 40 utterances so a cold sweep takes a few seconds."""
    return {
        "generator": {
            "channels": len(LADDER), "classes": list(CLASSES),
            "weights": list(planted_weights(seed)), "noise_sigma": 0.8,
            "frames_per_segment": 10, "segments_per_utterance": 8,
            "utterances": 80, "seed": seed, "channel_classes": None,
            "crosstalk": 0.0, "silence_frames": 4,
        },
        "model": {"window": 5, "features": 32},
        "train": {"learning_rate": 0.6, "epochs": 8, "batch_size": 2,
                  "dropout_p": 0.0, "seed": seed},
        "search": {"k": K, "k_top": 10, "stop_size": STOP_SIZE,
                   "replicates": REPLICATES, "metric": "per_total",
                   "budget": 100_000, "workers": WORKERS},
        "eval": {"per_threshold": 500, "train_fraction": 0.5},
    }


# --- child processes -----------------------------------------------------------


@dataclass
class CliRun:
    argv: list[str]
    returncode: int
    wall_s: float
    cpu_s: float
    steal_s: float
    peak_rss_mb: float
    log: Path

    @property
    def ok(self) -> bool:
        return self.returncode == 0

    @property
    def unstolen_s(self) -> float:
        return unstolen_wall(self.wall_s, self.cpu_s, self.steal_s)

    def tail(self) -> str:
        return self.log.read_text(encoding="utf-8", errors="replace")[-2000:]


class Bench:
    """One benchmark run: the checkout, its scratch directory and the
    environment every child process gets."""

    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        self.config = bench_config(seed)
        self.config_path = work / "config.json"
        self.corpus = work / "corpus"
        self.env = {k: v for k, v in os.environ.items() if k != "CHANSEL_CACHE_DIR"}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONPATH"] = str(root / "src")
        self._logs = 0
        work.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(json.dumps(self.config, indent=2), encoding="utf-8")

    def cli(self, *args: str, cache_dir: Path | None = None) -> CliRun:
        """Run ``chansel`` to completion. Wall time and steal are taken
        around the child's whole life, CPU time and peak RSS from its
        rusage, which covers the pool workers it waited for."""
        argv = [sys.executable, "-m", "chansel.cli", *args]
        env = dict(self.env)
        if cache_dir is not None:
            env["CHANSEL_CACHE_DIR"] = str(cache_dir)
        self._logs += 1
        log = self.work / "logs" / f"{self._logs:04d}.log"
        log.parent.mkdir(exist_ok=True)
        with open(log, "wb") as out:
            cpus0 = cpu_snapshot()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
            steal = busy_steal_seconds(cpus0, cpu_snapshot())
        proc.returncode = os.waitstatus_to_exitcode(status)
        return CliRun(argv=argv, returncode=proc.returncode, wall_s=wall,
                      cpu_s=usage.ru_utime + usage.ru_stime, steal_s=steal,
                      peak_rss_mb=usage.ru_maxrss / 1024.0, log=log)

    def gen_data(self) -> CliRun:
        return self.cli("gen-data", "--config", str(self.config_path),
                        "--out", str(self.corpus), "--force")

    def common(self, out: Path, workers: int) -> list[str]:
        return ["--config", str(self.config_path), "--corpus", str(self.corpus),
                "--out", str(out), "--workers", str(workers)]


class BenchError(RuntimeError):
    """A step the whole run depends on failed."""


def require(run: CliRun) -> CliRun:
    if not run.ok:
        raise BenchError(f"{' '.join(run.argv[2:4])} exited {run.returncode}:\n{run.tail()}")
    return run


# --- workloads -------------------------------------------------------------------


@dataclass
class Iteration:
    """The timed commands of one workload iteration and what they left."""

    runs: list[CliRun]
    outputs: dict[str, bytes]
    trainings: int
    task_times: list[float]


def _read_outputs(out: Path, names: tuple[str, ...], prefix: str = "") -> dict[str, bytes]:
    return {prefix + n: (out / n).read_bytes() for n in names if (out / n).exists()}


def _cache_lines(path: Path) -> list[dict]:
    if not path.exists():
        return []
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def _channel_average_tau(text: str, weights: tuple[float, ...]) -> float:
    rows = [line.split(",") for line in text.splitlines()[2:]]  # provenance, header
    avg = {int(ch) - 1: float(v) for ch, v in rows}
    return kendall_tau(weights, [-avg[c] for c in range(len(weights))])


def _elimination_tau(text: str, weights: tuple[float, ...]) -> float:
    steps = json.loads(text)["steps"]
    importance = [len(steps)] * len(weights)  # survivors rank first, tied
    for position, step in enumerate(steps):
        importance[step["removed_channel"] - 1] = position
    return kendall_tau(weights, importance)


class Workload:
    name: str
    why: str
    tasks: int  # per-seed subset evaluations one iteration delivers
    trains: bool  # whether an iteration trains its tasks or serves them cached
    reports: tuple[str, ...]

    def setup(self, b: Bench, workers: int = WORKERS) -> CliRun:
        """Prepare the inputs; returns the last CLI run it made."""
        return require(b.gen_data())

    def iterate(self, b: Bench, out: Path, workers: int) -> Iteration:
        raise NotImplementedError

    def oracle_tau(self, outputs: dict[str, bytes], weights: tuple[float, ...]) -> float:
        raise NotImplementedError

    def _cold(self, b: Bench, out: Path, *command: str) -> Iteration:
        """One CLI command that trains into a fresh cache under ``out``."""
        run = b.cli(*command)
        lines = _cache_lines(out / "cache.jsonl")
        return Iteration([run], _read_outputs(out, self.reports), len(lines),
                         [d["wall_time"] for d in lines])


class SweepCold(Workload):
    name = "sweep-cold"
    why = ("exhaustive 4-of-8 sweep on an empty cache: 70 equal-width training "
           "tasks in one process pool; stresses the model layer and cache appends")
    tasks = SWEEP_TASKS
    trains = True
    reports = SWEEP_REPORTS

    def iterate(self, b: Bench, out: Path, workers: int) -> Iteration:
        return self._cold(b, out, "exhaustive", *b.common(out, workers), "--k", str(K),
                          "--metric", "per_total")

    def oracle_tau(self, outputs, weights):
        return _channel_average_tau(outputs["channel_average.csv"].decode(), weights)


class ElimCold(Workload):
    name = "elim-cold"
    why = ("greedy backward elimination 8 -> 2 on an empty cache: 33 tasks in 6 "
           "dependent pool batches of width 8 down to 3; stresses pool start-up")
    tasks = ELIM_TASKS
    trains = True
    reports = ELIM_REPORTS

    def iterate(self, b: Bench, out: Path, workers: int) -> Iteration:
        return self._cold(b, out, "backward-elim", *b.common(out, workers),
                          "--stop-size", str(STOP_SIZE), "--metric", "per_total")

    def oracle_tau(self, outputs, weights):
        return _elimination_tau(outputs["elimination.json"].decode(), weights)


class ReplayWarm(Workload):
    name = "replay-warm"
    why = ("warm exhaustive sweep then report over a shared cache mostly of other "
           "configs; trains nothing, so it is bound by cache and corpus reads")
    tasks = 2 * SWEEP_TASKS
    trains = False
    reports = SWEEP_REPORTS

    def cache_dir(self, b: Bench) -> Path:
        return b.work / "shared_cache"

    def setup(self, b: Bench, workers: int = WORKERS) -> CliRun:
        """Corpus, then the cache: this config's records from a real cold
        sweep, behind FOREIGN_CONFIGS copies relabelled as other configs."""
        require(b.gen_data())
        seed_out = b.work / "seed_sweep"
        shutil.rmtree(seed_out, ignore_errors=True)
        sweep = require(b.cli("exhaustive", *b.common(seed_out, workers), "--k", str(K),
                              "--metric", "per_total"))
        real = (seed_out / "cache.jsonl").read_text(encoding="utf-8").splitlines()
        config_hash = json.loads(real[0])["config_hash"]
        cache = self.cache_dir(b) / "cache.jsonl"
        cache.parent.mkdir(exist_ok=True)
        with open(cache, "w", encoding="utf-8") as fh:
            for i in range(FOREIGN_CONFIGS):
                other = hashlib.sha256(f"{config_hash}/{i}".encode()).hexdigest()
                fh.writelines(line.replace(config_hash, other) + "\n" for line in real)
            fh.writelines(line + "\n" for line in real)
        return sweep

    def iterate(self, b: Bench, out: Path, workers: int) -> Iteration:
        cache = self.cache_dir(b) / "cache.jsonl"
        before = cache.read_bytes().count(b"\n")
        common = b.common(out / "sweep", workers)
        runs = [b.cli("exhaustive", *common, "--k", str(K), "--metric", "per_total",
                      cache_dir=cache.parent)]
        common = b.common(out / "report", workers)
        runs.append(b.cli("report", *common, "--k", str(K), "--metric", "per_total",
                          cache_dir=cache.parent))
        outputs = {**_read_outputs(out / "sweep", self.reports, "sweep/"),
                   **_read_outputs(out / "report", self.reports, "report/")}
        trained = cache.read_bytes().count(b"\n") - before
        return Iteration(runs, outputs, trainings=trained, task_times=[])

    def oracle_tau(self, outputs, weights):
        return _channel_average_tau(outputs["report/channel_average.csv"].decode(), weights)


WORKLOADS: dict[str, Workload] = {w.name: w for w in (SweepCold(), ElimCold(), ReplayWarm())}


# --- the untraced measurement ---------------------------------------------------


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


def _timed(step: Callable[[], object]) -> float:
    """Unstolen wall time of ``step``, counting the CPU time of this
    process and of the children it waits for."""
    cpu0, cpus0, t0 = _cpu_seconds(), cpu_snapshot(), time.perf_counter()
    step()
    wall = time.perf_counter() - t0
    return unstolen_wall(wall, _cpu_seconds() - cpu0, busy_steal_seconds(cpus0, cpu_snapshot()))


def check_iteration(wl: Workload, it: Iteration, reference: Iteration) -> list[str]:
    """Reasons an iteration's result is wrong; empty when it is right."""
    problems = [f"exit {r.returncode}: {' '.join(r.argv[3:5])}" for r in it.runs if not r.ok]
    expected_trainings = wl.tasks if wl.trains else 0
    if it.trainings != expected_trainings:
        problems.append(f"trained {it.trainings} models, expected {expected_trainings}")
    if set(it.outputs) != set(reference.outputs):
        problems.append(f"report files {sorted(it.outputs)} != {sorted(reference.outputs)}")
    problems += [f"{name} differs from the --workers 1 reference"
                 for name, data in it.outputs.items() if reference.outputs.get(name) != data]
    return problems


def measure(wl: Workload, b: Bench, seconds: float) -> dict:
    """Set up SETUP_REPEATS times, run the --workers 1 reference, then time
    --workers WORKERS iterations for ``seconds`` (at least MIN_ITERATIONS).
    Returns the summary: metrics, counts and the raw samples."""
    setup_times = [_timed(lambda: wl.setup(b)) for _ in range(SETUP_REPEATS)]
    reference = wl.iterate(b, b.work / "ref", workers=1)
    ref_problems = check_iteration(wl, reference, reference)
    if ref_problems:
        raise BenchError("reference run failed: " + "; ".join(ref_problems)
                         + "\n" + reference.runs[-1].tail())
    samples: dict[str, list[float]] = {
        "wall_s": [], "cpu_s": [], "peak_rss_mb": [], "raw_wall_s": [], "steal_s": []}
    task_times: list[float] = []
    failures: list[str] = []
    attempted = 0
    start = time.perf_counter()
    while attempted < MIN_ITERATIONS or (
        time.perf_counter() - start + (samples["wall_s"] or [0.0])[-1] <= seconds
    ):
        out = b.work / "iter"
        shutil.rmtree(out, ignore_errors=True)
        it = wl.iterate(b, out, workers=WORKERS)
        attempted += 1
        problems = check_iteration(wl, it, reference)
        if problems:
            failures.append(f"iteration {attempted}: " + "; ".join(problems))
            continue
        samples["wall_s"].append(sum(r.unstolen_s for r in it.runs))
        samples["raw_wall_s"].append(sum(r.wall_s for r in it.runs))
        samples["steal_s"].append(sum(r.steal_s for r in it.runs))
        samples["cpu_s"].append(sum(r.cpu_s for r in it.runs))
        samples["peak_rss_mb"].append(max(r.peak_rss_mb for r in it.runs))
        task_times += it.task_times
    if not samples["wall_s"]:
        raise BenchError("every timed iteration failed: " + " | ".join(failures))
    wall = median(samples["wall_s"])
    metrics = {
        "wall_s": (wall, "s"),
        "evals_per_s": (wl.tasks / wall, "1/s"),
        "cpu_s": (median(samples["cpu_s"]), "s"),
        "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
        "setup_s": (median(setup_times), "s"),
        "oracle_tau": (wl.oracle_tau(reference.outputs, planted_weights(b.seed)), "tau"),
        "ok_ratio": (1.0 - len(failures) / attempted, "ratio"),
    }
    tail = tail_percentile(task_times) if task_times else None
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures,
        "samples": {**samples, "setup_s": setup_times},
        "spread": {k: relative_iqr(v) for k, v in samples.items()
                   if len(v) >= 2 and k != "steal_s"},
        "task_wall_time": {
            "n": len(task_times),
            "median_s": median(task_times) if task_times else None,
            "tail": {"p": tail[0], "value_s": tail[1]} if tail else None,
        },
        "reference_wall_s": sum(r.wall_s for r in reference.runs),
    }
