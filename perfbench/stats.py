"""Percentiles and the end-to-end metrics of one measured window."""

from __future__ import annotations

import statistics

#: A percentile is reported as supported only with this many samples beyond it.
MIN_SAMPLES_BEYOND = 10

#: Percentiles the report considers, lowest first.
PERCENTILES = (0.5, 0.9, 0.95, 0.99, 0.999)

#: Generator lateness (seconds) allowed at the 90th percentile of an open
#: loop; a run whose generator overslept more is rejected.
MAX_LATENESS_P90_SECONDS = 0.005


def supported(count: int, q: float) -> bool:
    """Whether percentile ``q`` of ``count`` samples has enough samples beyond it."""
    return round(count * (1.0 - q), 9) >= MIN_SAMPLES_BEYOND


def highest_supported(count: int) -> float | None:
    """The highest of :data:`PERCENTILES` that ``count`` samples support."""
    usable = [q for q in PERCENTILES if supported(count, q)]
    return usable[-1] if usable else None


def percentile(values, q: float) -> float:
    """Percentile ``q`` (0 < q < 1) by linear interpolation between samples."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def lateness_ok(records) -> bool:
    """Whether an open loop's generator kept to its schedule."""
    return percentile([r.lateness for r in records], 0.9) <= MAX_LATENESS_P90_SECONDS


def throughput(windows) -> float:
    """Successful operations per second over ``(start, records)`` windows,
    each timed from its start to its last reply."""
    ok = sum(1 for _start, window in windows for r in window if r.ok)
    return ok / sum(max(r.done for r in window) - start for start, window in windows)


def _slices(items: list, slices: int) -> list[list]:
    """``items`` cut into ``slices`` runs of consecutive items, as even as can be."""
    cuts = [len(items) * index // slices for index in range(slices + 1)]
    return [items[begin:end] for begin, end in zip(cuts, cuts[1:]) if end > begin]


def sliced_p50(windows, slices: int) -> float:
    """Median over slices of the p50 latency of each slice's successful operations.

    Each ``(start, records)`` window (records in send order) is cut into
    ``slices`` runs of consecutive operations.  A stall of the host that
    lasts a second moves one slice, not the figure: on a shared VM such
    stalls, not the program, gave most of the spread of a pooled p50.
    """
    medians = []
    for _start, records in windows:
        for part in _slices(list(records), slices):
            latencies = [r.latency * 1000.0 for r in part if r.ok]
            if latencies:
                medians.append(statistics.median(latencies))
    return statistics.median(medians)


def sliced_throughput(windows, slices: int) -> float:
    """Median over slices of the successful operations per second in each.

    Each ``(start, records)`` window's replies, in the order they came, are
    cut into ``slices`` runs; a run's rate is its successful replies over the
    time since the reply before it (or the window's start).
    """
    rates = []
    for start, records in windows:
        done = sorted(records, key=lambda r: r.done)
        previous = start
        for part in _slices(done, slices):
            rates.append(sum(1 for r in part if r.ok) / (part[-1].done - previous))
            previous = part[-1].done
    return statistics.median(rates)


def pooled_metrics(windows, slo_ms: float) -> dict:
    """End-to-end figures pooled over one or more ``(start, records)`` windows.

    Latency percentiles are over every operation that succeeded; a failed or
    refused operation counts against ``ok_share`` and ``slo_attainment``.
    """
    records = [r for _start, window in windows for r in window]
    good = [r for r in records if r.ok]
    latencies = [r.latency * 1000.0 for r in good]
    return {
        "sent": len(records),
        "ok": len(good),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": percentile(latencies, 0.9),
        "throughput_rps": throughput(windows),
        "slo_attainment": sum(1 for v in latencies if v <= slo_ms) / len(records),
        "ok_share": len(good) / len(records),
        "failed_share": (len(records) - len(good)) / len(records),
        "lateness_p90_ms": percentile([r.lateness for r in records], 0.9) * 1000.0,
    }
