"""Serving benchmark: drive the real HTTP server and report every metric.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload generate-open --seed 1 --seconds 10 --trace 0

``--trace 0`` splits ``--seconds`` into the workload's windows.  Each window
spawns ``python -m repro serve --port 0`` (default flags, one shard), times
its set-up (spawn, ``/healthz``, warm-up), drives the workload on inputs of
its own and stops the server; ``setup_s`` is the median set-up and the other
metrics pool every window.  An open loop's window ends with a closed-loop
phase on the same connections, which gives its ``throughput_rps`` (the rate
the server sustains; the open loop's own rate is the offered one); its
latency and throughput are medians over slices of the windows.  After
each window its replies are checked against an in-process engine fed the
same inputs, so the windows are spread over the run's whole wall time.
``--trace 1`` measures :data:`TRACE_PAIRS` pairs of an untraced and a traced
window (the traced server is started through ``perfbench/tracing.py``) and
prints the per-layer table and the tracing overhead.  The last line of
standard output is one JSON object; the exit code is 1 on an output
mismatch, 2 on a usage or environment error and 3 when an open loop's
generator fell behind schedule.  Logs and spans go to ``.perfbench/`` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import inputs  # noqa: E402
import load  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402
from server import Server  # noqa: E402
from workloads import WORKLOADS, Workload, operations  # noqa: E402

#: Untraced/traced window pairs of a traced run.
TRACE_PAIRS = 2
#: An open loop's closed-loop phase sends this many times the open loop's
#: operations (it runs several times faster).
CAPACITY_OPS = 2
#: An open loop's window, and its closed-loop phase, are cut into this many
#: slices of consecutive operations; its ``latency_p50_ms`` and
#: ``throughput_rps`` are medians over the run's slices.
SLICES = 2

#: The gated metrics.  ``latency_p90_ms`` is printed but not gated: on a
#: 2-vCPU VM whose host steals CPU, the open loop's p90 moved by up to 47%
#: (quartile spread over seeds) between runs of the same code, beyond the
#: largest bound (25%) a gate may use.
END_TO_END = ("latency_p50_ms", "throughput_rps", "slo_attainment", "ok_share", "rss_mb", "setup_s")
UNITS = {
    "latency_p50_ms": "ms", "throughput_rps": "1/s",
    "slo_attainment": "share", "ok_share": "share", "rss_mb": "MiB", "setup_s": "s",
}
CACHES = ("extract", "encoder", "render", "compiled")


class BenchmarkError(Exception):
    """The benchmark could not produce a valid measurement."""


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Part:
    """The inputs of one window, all sent after the warm-up, in this order.

    ``operations`` are the measured ones; an open loop sends operation ``i``
    ``offsets[i]`` seconds into the window and then ``capacity`` as a closed
    loop.
    """

    def __init__(self, operations: list, offsets=None, capacity=()) -> None:
        self.operations = operations
        self.offsets = offsets
        self.capacity = list(capacity)

    @property
    def sent(self) -> list:
        return self.operations + self.capacity


class Plan:
    """Everything one run sends, derived from the workload and the seed.

    The run's seconds are split evenly over ``parts`` windows, each with its
    own inputs and its own server; every server gets the same warm-up.  A
    run holds ``rate * seconds`` operations whatever the loop.  A closed
    loop's windows cut one stream as evenly as they can, so together they
    continue the phrasing schedule; an open loop's windows each draw their
    own, so a repeat is always of a description that window's server has
    seen.
    """

    def __init__(self, workload: Workload, seed: int, seconds: float, parts: int) -> None:
        from repro.targets import get_target

        self.sources = sources = {name: get_target(name).build_source() for name in inputs.TARGETS}
        self.workload = workload
        self.window_seconds = seconds / parts
        self.warmup = operations(workload, seed, workload.warmup_ops, True, sources)
        if workload.loop == "open":
            self.parts = []
            count = max(1, round(workload.rate * self.window_seconds))
            for index in range(parts):
                # A Poisson process conditioned on its count: uniform, sorted.
                # The seed picks what is sent, not when: bursts of 100-odd
                # arrivals differ enough to move the median on their own.
                arrivals = random.Random(f"{workload.name}/{index}/arrivals")
                offsets = sorted(arrivals.uniform(0.0, self.window_seconds) for _ in range(count))
                self.parts.append(Part(
                    operations(workload, seed, count, False, sources, f"measured/{index}"),
                    offsets,
                    operations(workload, seed, CAPACITY_OPS * count, False, sources, f"capacity/{index}"),
                ))
        else:
            total = max(parts, round(workload.rate * seconds))
            stream = operations(workload, seed, total, False, sources)
            cuts = [total * index // parts for index in range(parts + 1)]
            self.parts = [Part(stream[begin:end]) for begin, end in zip(cuts, cuts[1:])]


class Window:
    """One measured window on one server.

    ``capacity`` is the ``(start, records)`` of an open loop's closed-loop
    phase; ``before``/``after`` are ``/v1/stats`` around the measured
    operations; ``exit_code`` is how the server ended, its output being in
    ``log_path``.
    """

    def __init__(
        self, part, start, records, capacity, before, after, rss_mb, warmup_records, exit_code=0, log_path=None
    ) -> None:
        self.part = part
        self.start = start
        self.records = sorted(records, key=lambda r: r.index)
        self.capacity = capacity
        self.before = before
        self.after = after
        self.rss_mb = rss_mb
        self.warmup_records = sorted(warmup_records, key=lambda r: r.index)
        self.exit_code = exit_code
        self.log_path = log_path

    @property
    def end(self) -> float:
        return max(r.done for r in self.records)

    @property
    def sent(self) -> list:
        """Every record, in the order of :attr:`Part.sent` after the warm-up."""
        return self.records + (sorted(self.capacity[1], key=lambda r: r.index) if self.capacity else [])


def set_up(plan: Plan, log: Path, argv=None, env=None) -> tuple[Server, float, list]:
    """Spawn a server, wait for ``/healthz``, send the warm-up; returns its time."""
    started = time.monotonic()
    server = Server(ROOT, log, argv=argv, env=env)
    try:
        server.wait_ready()
        _start, warm = load.run_closed(server.host, server.port, plan.warmup, plan.workload.clients)
        bad = [r for r in warm if not r.ok]
        if bad:
            raise BenchmarkError(f"warm-up operation failed: {bad[0].error or bad[0].envelopes}")
    except BaseException:
        server.stop()
        raise
    return server, time.monotonic() - started, warm


def measure(plan: Plan, part: Part, server: Server, warm) -> Window:
    """Run one window of ``part`` on ``server``, then stop the server."""
    workload = plan.workload
    capacity = None
    try:
        _status, before = server.get("/v1/stats")
        if workload.loop == "open":
            start, records = load.run_open(
                server.host, server.port, part.operations, part.offsets, workload.clients
            )
        else:
            start, records = load.run_closed(server.host, server.port, part.operations, workload.clients)
        _status, after = server.get("/v1/stats")
        if part.capacity:
            capacity = load.run_closed(server.host, server.port, part.capacity, workload.clients)
        rss_mb = server.rss_mb()
    finally:
        exit_code = server.stop()
    if not any(r.ok for r in records) or (capacity and not any(r.ok for r in capacity[1])):
        raise BenchmarkError("no operation succeeded in the window")
    return Window(part, start, records, capacity, before, after, rss_mb, warm, exit_code, server.log_path)


class Checked:
    """The output check's findings over a run's parts, in plan order."""

    def __init__(self) -> None:
        self.mismatches: list[str] = []
        self._digest = hashlib.sha256()

    def add(self, plan: Plan, part: Part, windows: list[Window], out: Path) -> None:
        """Check the windows of ``part`` against an in-process replay of what it was sent."""
        ops = plan.warmup + part.sent
        reference = check.replay(ops, out / "reference.log")
        for window in windows:
            self.mismatches.extend(check.compare(ops, window.warmup_records + window.sent, reference))
        self._digest.update(check.digest(reference).encode("ascii"))

    @property
    def digest(self) -> str:
        """One digest over the reference replies to everything the plan
        sends: it depends only on the program and the seed."""
        return self._digest.hexdigest()


def _delta(after: dict, before: dict, *path) -> float:
    def get(data):
        for key in path:
            data = data.get(key, {}) if isinstance(data, dict) else {}
        return data if isinstance(data, (int, float)) else 0

    return get(after) - get(before)


def hit_ratios(windows: list[Window]) -> dict[str, float]:
    """Cache hit ratio of each engine cache over the windows' measured operations."""
    ratios = {}
    for cache in CACHES:
        hits = sum(_delta(w.after, w.before, "caches", cache, "hits") for w in windows)
        misses = sum(_delta(w.after, w.before, "caches", cache, "misses") for w in windows)
        ratios[cache] = hits / (hits + misses) if hits + misses else 0.0
    return ratios


#: Which end-to-end metric each layer's figures should move, on which
#: workload, and where the prediction is no move.
LAYER_MOVES = {
    "server": "generate-open latency_p50_ms; no move on feedback-closed",
    "scheduler": "generate-open latency_p50_ms, latency_p90_ms; no move on feedback-closed",
    "nlp": "generate-open latency_p50_ms; no move on campaign-closed",
    "llm": "generate-open latency_p50_ms, latency_p90_ms; render and candidates: feedback-closed throughput_rps",
    "rlhf": "feedback-closed throughput_rps; no move on generate-open",
    "injection": "splice: generate-open latency_p50_ms, feedback-closed throughput_rps; "
    "mutants: campaign-closed throughput_rps",
    "integration": "campaign-closed throughput_rps; no move on generate-open",
    "execution": "campaign-closed latency_p50_ms, throughput_rps; no move on generate-open, feedback-closed",
    "campaign": "campaign-closed latency_p50_ms; no move elsewhere",
    "resilience": "ok_share on campaign-closed",
    "trace": "tracing overhead: traced against untraced latency_p50_ms, median over window pairs",
}


def layer_metrics(windows: list[Window], spans: list) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of traced windows (``spans[i]`` are window ``i``'s):
    ms per operation sent unless noted."""
    ops = sum(len(w.records) for w in windows)
    totals: dict[str, list] = {}
    for window, window_spans in zip(windows, spans):
        for layer, (seconds, count) in tracing.layer_totals(window_spans, window.start, window.end).items():
            entry = totals.setdefault(layer, [0.0, 0])
            entry[0] += seconds
            entry[1] += count

    def ms(layer):
        return totals.get(layer, (0.0, 0))[0] * 1000.0 / ops

    def delta(*path):
        return sum(_delta(w.after, w.before, *path) for w in windows)

    def trips(stats):
        return sum(b.get("trips", 0) for b in stats.get("execution", {}).get("breakers", {}).values())

    records = [r for w in windows for r in w.records]
    exchanges = [
        (seconds, envelope.get("timings") or {})
        for r in records
        for seconds, envelope in zip(r.exchanges, r.envelopes)
    ]
    batch_sizes = [
        envelope["payload"]["batch_size"]
        for r in records
        for envelope in r.envelopes
        if envelope.get("kind") == "generate" and envelope.get("payload")
    ]
    tasks = totals.get("execution.run_batch", (0.0, 0))[1]
    ratios = hit_ratios(windows)
    return {
        "server.wire_ms": (sum(s - t.get("total_seconds", 0.0) for s, t in exchanges) * 1000.0 / ops, "ms"),
        "scheduler.queue_wait_ms": (sum(t.get("queued_seconds", 0.0) for _, t in exchanges) * 1000.0 / ops, "ms"),
        "scheduler.batch_size_mean": (statistics.fmean(batch_sizes) if batch_sizes else 0.0, "count"),
        "scheduler.dispatches": (delta("scheduler", "dispatched") / ops, "count/op"),
        "nlp.extract_ms": (ms("nlp.extract"), "ms"),
        "nlp.analyze_ms": (ms("nlp.analyze"), "ms"),
        "nlp.extract_hit_ratio": (ratios["extract"], "ratio"),
        "llm.forward_ms": (ms("llm.forward"), "ms"),
        "llm.compile_ms": (ms("llm.compile"), "ms"),
        "llm.decode_ms": (ms("llm.decode"), "ms"),
        "llm.render_ms": (ms("llm.render"), "ms"),
        "llm.encoder_hit_ratio": (ratios["encoder"], "ratio"),
        "llm.render_hit_ratio": (ratios["render"], "ratio"),
        "llm.compiled_hit_ratio": (ratios["compiled"], "ratio"),
        "llm.candidates_ms": (ms("llm.candidates"), "ms"),
        "rlhf.review_ms": (ms("rlhf.review"), "ms"),
        "rlhf.reward_fit_ms": (ms("rlhf.reward_fit"), "ms"),
        "rlhf.policy_update_ms": (ms("rlhf.policy_update"), "ms"),
        "injection.splice_ms": (ms("injection.splice"), "ms"),
        "injection.splice_calls": (totals.get("injection.splice", (0.0, 0))[1] / ops, "count/op"),
        "injection.mutants_ms": (ms("injection.mutants"), "ms"),
        "integration.integrate_ms": (ms("integration.integrate"), "ms"),
        "integration.diff_ms": (ms("integration.diff"), "ms"),
        "integration.self_ms": (ms("integration.self"), "ms"),
        "execution.task_ms": (
            totals.get("execution.run_batch", (0.0, 0))[0] * 1000.0 / tasks if tasks else 0.0, "ms"
        ),
        "execution.tasks": (tasks / ops, "count/op"),
        "execution.retries": (delta("execution", "totals", "retries"), "count"),
        "execution.pool_rebuilds": (delta("execution", "totals", "pool_rebuilds"), "count"),
        "campaign.neural_ms": (ms("campaign.neural"), "ms"),
        "campaign.predefined_ms": (ms("campaign.predefined"), "ms"),
        "campaign.random_ms": (ms("campaign.random"), "ms"),
        "resilience.breaker_trips": (sum(trips(w.after) - trips(w.before) for w in windows), "count"),
    }


def end_to_end(workload: Workload, windows: list[Window]) -> dict:
    """The run's end-to-end figures, pooled over ``windows``.

    An open loop's ``latency_p50_ms`` is the median of its slices' p50s
    (:data:`SLICES` per window), and its ``throughput_rps`` the median rate
    of the slices of its closed-loop phases; the rate its open loop achieved
    is ``offered_rps``.
    """
    measured = [(w.start, w.records) for w in windows]
    figures = stats.pooled_metrics(measured, workload.slo_ms)
    if workload.loop == "open":
        capacity = [w.capacity for w in windows]
        figures["pooled_p50_ms"] = figures["latency_p50_ms"]
        figures["latency_p50_ms"] = stats.sliced_p50(measured, SLICES)
        figures["offered_rps"] = figures["throughput_rps"]
        figures["throughput_rps"] = stats.sliced_throughput(capacity, SLICES)
        figures["capacity_p50_ms"] = stats.pooled_metrics(capacity, workload.slo_ms)["latency_p50_ms"]
    figures["rss_mb"] = statistics.median(w.rss_mb for w in windows)
    figures["attempted"] = sum(len(w.sent) for w in windows)
    figures["failed"] = sum(1 for w in windows for r in w.sent if not r.ok)
    return figures


def untraced_run(plan: Plan, out: Path, checked: Checked) -> tuple[dict, list[Window]]:
    """One window per part, each on a freshly set-up server and checked after it."""
    setups, windows = [], []
    for index, part in enumerate(plan.parts):
        server, seconds, warm = set_up(plan, out / f"server-{index}.log")
        setups.append(seconds)
        windows.append(measure(plan, part, server, warm))
        checked.add(plan, part, windows[-1:], out)
    figures = end_to_end(plan.workload, windows)
    figures["setup_s"] = statistics.median(setups)
    figures["setups"] = setups
    return figures, windows


def traced_run(plan: Plan, out: Path, checked: Checked) -> tuple[dict, list[Window], dict]:
    """An untraced and a traced window of each part; per-layer metrics.

    The pairs alternate which window goes first, so a drift of the host
    over the run does not land on one side.  The overhead is the median of
    the pairs' traced-over-untraced p50, with its spread over the pairs.
    """
    plain, traced, spans = [], [], []
    for index, part in enumerate(plan.parts):
        spans_path = out / f"spans-{index}.json"
        spans_path.unlink(missing_ok=True)
        for tracer in ((False, True) if index % 2 == 0 else (True, False)):
            if tracer:
                server, _seconds, warm = set_up(
                    plan,
                    out / f"server-traced-{index}.log",
                    argv=[str(HERE / "tracing.py")],
                    env={tracing.SPANS_ENV: str(spans_path)},
                )
                traced.append(measure(plan, part, server, warm))
                spans.append(json.loads(spans_path.read_text()))
            else:
                server, _seconds, warm = set_up(plan, out / f"server-untraced-{index}.log")
                plain.append(measure(plan, part, server, warm))
        checked.add(plan, part, [plain[-1], traced[-1]], out)
    metrics = layer_metrics(traced, spans)

    def p50(window):
        return stats.pooled_metrics([(window.start, window.records)], plan.workload.slo_ms)["latency_p50_ms"]

    overheads = [(p50(t) - p50(u)) * 100.0 / p50(u) for u, t in zip(plain, traced)]
    metrics["trace.untraced_p50_ms"] = (statistics.median(p50(w) for w in plain), "ms")
    metrics["trace.traced_p50_ms"] = (statistics.median(p50(w) for w in traced), "ms")
    metrics["trace.overhead_pct"] = (statistics.median(overheads), "%")
    metrics["trace.overhead_spread_pct"] = (max(overheads) - min(overheads), "%")
    return metrics, plain + traced, end_to_end(plan.workload, plain + traced)


def fell_behind(workload: Workload, windows: list[Window]) -> bool:
    """Whether an open loop's generator missed its schedule in any window."""
    return workload.loop == "open" and not all(stats.lateness_ok(w.records) for w in windows)


def report(lines: list[str]) -> None:
    for line in lines:
        print(line)
    sys.stdout.flush()


def main(argv=None) -> int:
    args = parse_args(argv)
    # Turn SIGTERM into SystemExit so every started server is still stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    # A background job of a non-interactive shell starts with SIGINT ignored,
    # and an ignored signal stays ignored across exec, so the servers would
    # never drain.  A handler here is reset to the default in every child.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to benchmark: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The reference engine's sandbox subprocesses import the program too.
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    out = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{'traced' if args.trace else 'plain'}"
    out.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload]
    plan = Plan(workload, args.seed, args.seconds, TRACE_PAIRS if args.trace else workload.windows)

    checked = Checked()
    try:
        if args.trace:
            metrics, windows, figures = traced_run(plan, out, checked)
        else:
            figures, windows = untraced_run(plan, out, checked)
    except (BenchmarkError, RuntimeError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2

    if workload.loop == "open":
        shape = f"open loop, {workload.clients} connections, {workload.rate:g}/s"
    else:
        shape = f"closed loop, {workload.clients} client(s), {sum(len(p.operations) for p in plan.parts)} operations"
    lines = [
        f"workload {workload.name} ({shape})  seed {args.seed}  "
        f"{len(windows)} windows of {plan.window_seconds:g}s  trace {args.trace}",
        f"  operations: {figures['sent']} measured, {figures['ok']} ok, "
        f"failed share {figures['failed_share']:.4f}, slo {workload.slo_ms:g} ms",
    ]
    samples = figures["ok"]
    tail = stats.highest_supported(samples)
    lines.append(
        f"  highest percentile with >= {stats.MIN_SAMPLES_BEYOND} samples beyond it: "
        + (f"p{tail * 100:g}" if tail else "none")
        + f" ({samples} samples; latency_p90_ms is "
        + ("supported)" if stats.supported(samples, 0.9) else "NOT supported at this sample count)")
    )
    for index, window in enumerate(windows):
        w = stats.pooled_metrics([(window.start, window.records)], workload.slo_ms)
        # A traced run returns its untraced windows first.
        kind = ("untraced " if index < len(windows) // 2 else "traced ") if args.trace else ""
        lines.append(
            f"  {kind}window {index}: {w['sent']} sent, p50 {w['latency_p50_ms']:.3f} ms, "
            f"p90 {w['latency_p90_ms']:.3f} ms, {w['throughput_rps']:.4f}/s, rss {window.rss_mb:.1f} MiB"
        )
    if workload.loop == "open":
        lines.append(f"  open loop: p50 pooled over the windows {figures['pooled_p50_ms']:.3f} ms, "
                     f"median of {SLICES} slices a window {figures['latency_p50_ms']:.3f} ms (latency_p50_ms)")
        lines.append(f"  open loop achieved {figures['offered_rps']:.4f}/s; generator lateness p90 "
                     f"{figures['lateness_p90_ms']:.3f} ms (bound {stats.MAX_LATENESS_P90_SECONDS * 1000:g} ms)")
        lines.append(f"  closed-loop phases (throughput_rps): p50 {figures['capacity_p50_ms']:.3f} ms"
                     + ("" if figures["capacity_p50_ms"] <= workload.slo_ms else " (ABOVE the slo)"))
    ratios = hit_ratios(windows)
    lines.append("  cache hit ratios: " + ", ".join(f"{k} {v:.3f}" for k, v in ratios.items()))
    lines.append(f"  output digest: sha256:{checked.digest}")

    if args.trace:
        lines.append("  per-layer (traced windows; self time in ms per operation sent unless noted):")
        previous = None
        for name, (value, unit) in metrics.items():
            layer = name.split(".")[0]
            if layer != previous:
                lines.append(f"   {layer} -> moves {LAYER_MOVES[layer]}")
                previous = layer
            lines.append(f"    {name:28s} {value:12.4f} {unit}")
        overhead, spread = metrics["trace.overhead_pct"][0], metrics["trace.overhead_spread_pct"][0]
        if abs(overhead) <= spread:
            lines.append("  tracing overhead unresolved: its spread over the window pairs exceeds it")
        result_metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    else:
        lines.append("  setups (s): " + ", ".join(f"{s:.4f}" for s in figures["setups"]))
        lines.extend(f"  {name:16s} {figures[name]:12.4f} {UNITS[name]}" for name in END_TO_END)
        lines.append(f"  {'latency_p90_ms':16s} {figures['latency_p90_ms']:12.4f} ms (not gated)")
        result_metrics = {name: {"value": figures[name], "unit": UNITS[name]} for name in END_TO_END}

    for window in windows:
        if window.exit_code != 0:
            # The window's replies are all in; the server failed to stop.
            warning = (f"WARNING server exited with {window.exit_code} after its window "
                       f"(killed if it outlived the drain timeout); see {window.log_path}")
            print(warning, file=sys.stderr)
            lines.append(f"  {warning}")
    for mismatch in checked.mismatches[:20]:
        lines.append(f"  MISMATCH {mismatch}")
    if fell_behind(workload, windows):
        print("rejected: the open-loop generator fell behind its schedule", file=sys.stderr)
        report(lines)
        return 3
    result = {
        "correct": not checked.mismatches,
        "attempted": figures["attempted"],
        "failed": figures["failed"],
        "metrics": result_metrics,
    }
    report(lines + [json.dumps(result)])
    return 0 if not checked.mismatches else 1


if __name__ == "__main__":
    sys.exit(main())
