"""Small helpers shared by the benchmark: summary statistics, steal-time
accounting, the Kendall rank correlation used as the ranking-fidelity
guard, and the name and unit rules that BENCHMARK.json must follow."""

from __future__ import annotations

import math
import os
import re
import statistics
from typing import Sequence

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT_RE = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def valid_name(name: str) -> bool:
    return NAME_RE.fullmatch(name) is not None


def valid_unit(unit: str) -> bool:
    return UNIT_RE.fullmatch(unit) is not None


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def relative_iqr(values: Sequence[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles ``statistics.quantiles(values, n=4)`` gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail_percentile(values: Sequence[float]) -> tuple[float, float] | None:
    """(p, value) for the highest candidate percentile that still has at
    least ten samples beyond it, by the nearest-rank rule; None when the
    sample is too small for any of them."""
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(round(p * n / 100.0, 9))  # round off float noise in p * n
        if rank >= 1 and n - rank >= MIN_BEYOND:
            return p, ordered[rank - 1]
    return None


def cpu_snapshot() -> list[tuple[int, int, int]]:
    """Per-CPU (busy, idle, steal) clock ticks so far, from ``/proc/stat``;
    steal is time the hypervisor kept a runnable virtual CPU off the
    physical one. Empty where the kernel does not report it."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            rows = [line.split() for line in fh if line[:3] == "cpu" and line[3].isdigit()]
        return [(int(r[1]) + int(r[2]) + int(r[3]) + int(r[6]) + int(r[7]),
                 int(r[4]) + int(r[5]), int(r[8])) for r in rows]
    except (OSError, IndexError, ValueError):
        return []


def busy_steal_seconds(before: list[tuple[int, int, int]],
                       after: list[tuple[int, int, int]]) -> float:
    """Steal between two snapshots, each CPU's share weighted by how busy
    that CPU was: steal on an idle CPU held back nothing of ours."""
    ticks = 0.0
    for (b0, i0, s0), (b1, i1, s1) in zip(before, after):
        busy, idle = b1 - b0, i1 - i0
        if busy + idle > 0:
            ticks += (s1 - s0) * busy / (busy + idle)
    return ticks / os.sysconf("SC_CLK_TCK")


def unstolen_wall(wall: float, cpu: float, steal: float) -> float:
    """Wall time less the hypervisor's steal time. Steal holds back one
    runnable thread at a time, so it is divided by the average number of
    runnable threads over the interval, (cpu + steal) / wall, taken as at
    least one: a serial process loses all of its steal, two busy pool
    workers lose about half of theirs each."""
    runnable = max(1.0, (cpu + steal) / wall) if wall > 0 else 1.0
    return wall - steal / runnable


def kendall_tau(x: Sequence[float], y: Sequence[float]) -> float:
    """Kendall's tau over the pairs that ``x`` orders: (concordant -
    discordant) / pairs with x[i] != x[j]. Pairs tied in ``y`` count for
    neither. With no ties this is the usual tau; when ``x`` is a partial
    order (tiers of equal planted weight), a ranking that respects every
    tier scores exactly 1 however it orders channels within a tier."""
    if len(x) != len(y) or len(x) < 2:
        raise ValueError("kendall_tau needs two sequences of equal length >= 2")
    score = ordered = 0
    for i in range(len(x)):
        for j in range(i + 1, len(x)):
            dx = (x[i] > x[j]) - (x[i] < x[j])
            if dx:
                ordered += 1
                score += dx * ((y[i] > y[j]) - (y[i] < y[j]))
    if ordered == 0:
        raise ValueError("kendall_tau is undefined when x is constant")
    return score / ordered
