"""BENCH_RESILIENCE — the price and the payoff of worker-pool supervision.

Two promises from docs/RESILIENCE.md are measured and gated:

* ``fault_free`` — the supervised execution path (liveness checks,
  requeue-on-death bookkeeping, chaos hooks compiled in but disabled) must
  cost **under 10% wall-clock overhead** against the unsupervised legacy
  dispatch (``tests/oracles/legacy_pool.py``) on a healthy pool.  Gated via the ratio
  ``unsupervised_seconds / supervised_seconds >= 0.9`` (medians over
  repeated batches, so scheduler noise does not fail the build).
* ``chaos_recovery`` — with the self-chaos harness SIGKILLing workers,
  stalling tasks, and dropping results, the supervised pool must still
  produce **byte-identical** payloads to a fault-free run (``identical`` is
  1.0 only when every payload matches; gated at 1.0).  The recovery
  counters and the chaotic wall-clock are reported alongside.

``BENCH_QUICK=1`` shrinks the workload for CI smoke runs.
"""

from __future__ import annotations

import os
import statistics
import time

from repro.config import ChaosConfig, ResilienceConfig
from repro.execution import WorkerPool
from repro.targets import get_target

from conftest import write_result
from oracles.legacy_pool import LegacyWorkerPool

QUICK = os.environ.get("BENCH_QUICK", "") not in ("", "0")

BATCH_SIZE = 4 if QUICK else 8
ITERATIONS = 10 if QUICK else 25
REPEATS = 3 if QUICK else 5
WORKERS = 2
#: unsupervised/supervised wall-clock; 0.9 bounds supervision overhead ~10%.
MIN_FAULT_FREE_RATIO = 0.9

CHAOS = ChaosConfig(
    enabled=True,
    seed=31,
    worker_crash_probability=0.3,
    task_delay_probability=0.3,
    task_delay_seconds=0.02,
    drop_result_probability=0.3,
)


def _stable(payload: dict) -> dict:
    """A pool payload with the wall-clock measurement stripped."""
    stable = {k: v for k, v in payload.items() if k != "result"}
    stable["result"] = {
        k: v for k, v in payload.get("result", {}).items() if k != "duration_seconds"
    }
    return stable


def _run_batches(
    resilience: ResilienceConfig, sources: list[str], pool_class: type[WorkerPool] = WorkerPool
) -> tuple[list[float], list[list[dict]], dict]:
    """Timed repeated batches on one pool → (seconds per batch, payloads, stats)."""
    seconds: list[float] = []
    payload_runs: list[list[dict]] = []
    with pool_class(
        max_workers=WORKERS, task_timeout_seconds=30.0, resilience=resilience
    ) as pool:
        # One throwaway batch so worker spawn / import cost is not measured.
        pool.run_batch("bank", sources[:1], seed=0, iterations=ITERATIONS)
        for repeat in range(REPEATS):
            started = time.perf_counter()
            payloads = pool.run_batch("bank", sources, seed=repeat, iterations=ITERATIONS)
            seconds.append(time.perf_counter() - started)
            payload_runs.append(payloads)
        stats = pool.stats()
    return seconds, payload_runs, stats


def measure_fault_free_overhead(sources: list[str]) -> dict:
    """Supervised (chaos off) vs unsupervised legacy dispatch, healthy pool."""
    supervised_seconds, supervised_runs, _ = _run_batches(ResilienceConfig(), sources)
    unsupervised_seconds, unsupervised_runs, _ = _run_batches(
        ResilienceConfig(), sources, pool_class=LegacyWorkerPool
    )
    for run_a, run_b in zip(supervised_runs, unsupervised_runs):
        assert [_stable(p) for p in run_a] == [_stable(p) for p in run_b]
    supervised = statistics.median(supervised_seconds)
    unsupervised = statistics.median(unsupervised_seconds)
    return {
        "batch_size": len(sources),
        "repeats": REPEATS,
        "supervised_seconds": round(supervised, 4),
        "unsupervised_seconds": round(unsupervised, 4),
        "ratio": round(unsupervised / supervised, 3),
        "overhead_percent": round((supervised / unsupervised - 1.0) * 100.0, 1),
    }


def measure_chaos_recovery(sources: list[str]) -> dict:
    """Chaotic batches must converge on the fault-free payload bytes."""
    baseline_seconds, baseline_runs, _ = _run_batches(ResilienceConfig(), sources)
    chaos_seconds, chaos_runs, chaos_stats = _run_batches(
        ResilienceConfig(chaos=CHAOS), sources
    )
    identical = all(
        [_stable(p) for p in chaotic] == [_stable(p) for p in clean]
        for chaotic, clean in zip(chaos_runs, baseline_runs)
    )
    disrupted = chaos_stats["retries"] + chaos_stats["pool_rebuilds"]
    return {
        "batch_size": len(sources),
        "repeats": REPEATS,
        "identical": 1.0 if identical else 0.0,
        "baseline_seconds": round(statistics.median(baseline_seconds), 4),
        "chaos_seconds": round(statistics.median(chaos_seconds), 4),
        "retries": chaos_stats["retries"],
        "pool_rebuilds": chaos_stats["pool_rebuilds"],
        "quarantined": chaos_stats["quarantined"],
        "disruptions": disrupted,
    }


def test_resilience_overhead_and_recovery():
    sources = [get_target("bank").build_source()] * BATCH_SIZE
    fault_free = measure_fault_free_overhead(sources)
    chaos_recovery = measure_chaos_recovery(sources)

    rows = [
        "metric                      supervised-s   reference-s     value",
        (
            f"fault_free ratio           {fault_free['supervised_seconds']:>11.4f}"
            f"   {fault_free['unsupervised_seconds']:>11.4f}   {fault_free['ratio']:>7.3f}"
        ),
        (
            f"chaos identical            {chaos_recovery['chaos_seconds']:>11.4f}"
            f"   {chaos_recovery['baseline_seconds']:>11.4f}"
            f"   {chaos_recovery['identical']:>7.1f}"
        ),
        f"chaos disruptions recovered: {chaos_recovery['disruptions']}",
    ]
    payload = {
        "quick": QUICK,
        "min_fault_free_ratio": MIN_FAULT_FREE_RATIO,
        "fault_free": fault_free,
        "chaos_recovery": chaos_recovery,
    }
    write_result("resilience", payload, table="\n".join(rows))

    # The acceptance bars: supervision is (near-)free on a healthy pool, and
    # chaos never changes results.
    assert fault_free["ratio"] >= MIN_FAULT_FREE_RATIO, payload
    assert chaos_recovery["identical"] == 1.0, payload
    assert chaos_recovery["disruptions"] > 0, payload
