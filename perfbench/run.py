"""Benchmark entry point for chansel.

    python3 perfbench/run.py --workload sweep-cold --seed 1 --seconds 10 --trace 0

Runs one workload (or ``all`` of them) from the root of a checkout and
prints, as the last line of standard output, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured on the CLI; with ``--trace 1``
they are the per-layer ones from the traced in-process replica. A human
readable table comes first, and the full record (host, samples, spread,
checks, and with ``--trace 1`` the spans) is written under
``.perfbench_runs/`` in the checkout.
"""

from __future__ import annotations

import os

# Before anything imports numpy: one BLAS/OpenMP thread per process, in
# this process (the traced replica trains here) and in every child.
ORIGINAL_THREAD_ENV = {k: v for k, v in os.environ.items() if k.endswith("_THREADS")}
from workloads import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import WORKERS, WORKLOADS, Bench, BenchError  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
RUNS_DIR = ROOT / ".perfbench_runs"


def host_info() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env_set_before_run": ORIGINAL_THREAD_ENV,
        "thread_env_children": {v: os.environ[v] for v in THREAD_VARS},
        "workers": WORKERS,
    }


def run_one(name: str, seed: int, seconds: int, trace: bool, host: dict) -> dict:
    wl = WORKLOADS[name]
    tag = f"{name}-seed{seed}-trace{int(trace)}"
    work = RUNS_DIR / f"{tag}.work"
    shutil.rmtree(work, ignore_errors=True)
    b = Bench(ROOT, work, seed)
    started = time.time()
    try:
        if trace:
            from replica import PER_LAYER, run_traced

            traced = run_traced(wl, b)
            problems = [f"{check}: {p}" for check, ps in traced["checks"].items() for p in ps]
            result = {
                "correct": not problems,
                "attempted": len(traced["checks"]),
                "failed": sum(bool(ps) for ps in traced["checks"].values()),
                "metrics": {k: {"value": v, "unit": PER_LAYER[k][0]}
                            for k, v in traced["per_layer"].items()},
            }
            detail = {"problems": problems, "self_s": traced.get("self_s"),
                      "untraced_serial_wall_s": traced.get("untraced_serial_wall_s"),
                      "traced_serial_wall_s": traced.get("traced_serial_wall_s")}
            (RUNS_DIR / f"{tag}.spans.json").write_text(json.dumps(traced["spans"]) + "\n")
        else:
            from workloads import measure

            summary = measure(wl, b, seconds)
            result = {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {k: {"value": v, "unit": u}
                            for k, (v, u) in summary["metrics"].items()},
            }
            detail = {k: v for k, v in summary.items() if k != "metrics"}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "started_unix": started, "host": host, "config": b.config,
              "result": result, **detail}
    (RUNS_DIR / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    return result


def print_table(name: str, result: dict) -> None:
    print(f"== {name}: correct={result['correct']} attempted={result['attempted']} "
          f"failed={result['failed']} fail_ratio={result['failed'] / result['attempted']:g}")
    for metric, m in result["metrics"].items():
        print(f"  {metric:<30} {m['value']:>14.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "chansel" / "cli.py").is_file():
        print(f"error: no chansel sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    host = host_info()
    print(f"host: nproc={host['nproc']} affinity={host['affinity']} python={host['python']} "
          f"numpy={host['numpy']} blas={host['blas']['name']} {host['blas']['version']} "
          f"threads={host['thread_env_children']} workers={host['workers']}")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_one(name, args.seed, args.seconds, bool(args.trace), host)
            print_table(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
