"""The benchmark's workloads: loop shape, load, latency limit and inputs.

Each workload drives ``python -m repro serve`` (default flags, one shard)
over HTTP from one load process with at most two connections, the CPU
count of the host the figures in ``BENCHMARK.json`` were taken on.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import inputs


@dataclass(frozen=True)
class Workload:
    """One traffic mix.

    Attributes:
        name: Name used on the command line and in ``BENCHMARK.json``.
        loop: ``"open"`` (Poisson arrivals) or ``"closed"`` (``clients``
            callers, each sending after its last reply).
        clients: Connections (open loop) or callers (closed loop).
        rate: Operations per second.  An open loop's arrival rate; for a
            closed loop, the rate a run is sized by: it sends exactly
            ``rate * seconds`` operations, however long they take, so every
            run of a seed sends the same operations (and meets the same
            slow faults) and its output digest compares across commits.
        slo_ms: Latency limit of one operation; ``slo_attainment`` is the
            share of sent operations that succeed within it.
        build: ``build(rng, count, warmup, sources)`` returns the operations.
        warmup_ops: Operations sent before each window, on ``clients``
            connections.
        windows: Windows an untraced run is split into, each on its own
            server; ``setup_s`` is the median of their set-ups.
    """

    name: str
    loop: str
    clients: int
    rate: float
    slo_ms: float
    build: Callable
    warmup_ops: int
    windows: int = 3


# Why each workload exists is in BENCHMARK.json.  A closed loop of generate
# requests with execute in the server's default (subprocess) mode is not: one
# operation in eleven waits out the sandbox's 10 s hang timeout while the
# others take ~1.5 s, so a steady figure needs minutes of operations plus as
# long again for the serial output check, beyond the benchmark's time budget.
# campaign-closed measures the same integration and execution layers.
WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        # Half of one connection's sustained rate on unseen descriptions
        # (62/s measured on the 2-vCPU host the bounds were set on).  Six
        # short windows: on that host a stall of a few seconds moved a
        # window's p50 by up to half, and the median over the windows'
        # slices outvotes two such windows in six.
        Workload("generate-open", "open", clients=2, rate=30.0, slo_ms=50.0,
                 build=inputs.generate_open, warmup_ops=8, windows=6),
        # Eight one-scenario campaigns in a 10 s run, two per target; one of
        # them a hang phrasing (1 in 11 among the phrasings).  The limit
        # leaves room for one 10 s sandbox hang timeout.  Two windows: each
        # one's set-up and output check start a sandbox pool per target.
        Workload("campaign-closed", "closed", clients=1, rate=0.8, slo_ms=15000.0,
                 build=inputs.campaign_closed, warmup_ops=4, windows=2),
        # 25 RLHF writes and reads of ~0.5 s in a 10 s run: with 20, the
        # median moved by a sixth (quartile spread over ten seeds).
        Workload("feedback-closed", "closed", clients=1, rate=2.5, slo_ms=1500.0,
                 build=inputs.feedback_closed, warmup_ops=1),
    )
}


def operations(workload: Workload, seed: int, count: int, warmup: bool, sources: dict, stream: str = "measured") -> list:
    """The workload's operations for ``seed``, drawn from one named stream.

    Warm-up operations are disjoint from every measured one and the same for
    every window of a run.
    """
    key = "warmup" if warmup else stream
    return workload.build(random.Random(f"{workload.name}/{seed}/{key}"), count, warmup, sources)
