"""The output check: replay every sent operation through an in-process engine.

The reference is a fresh ``FaultInjectionEngine`` with the server's default
configuration, fed the same operations one at a time, in the order the
server received them (warm-up first).  Only deterministic fields are
compared (see :func:`deterministic`): the generate payload's
``deterministic_dict()`` fields, and campaign/RLHF payloads without measured
durations, less what a wall clock or an unseeded random draw decides.  The
replay runs outside the timed window.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import multiprocessing
import os
import sys
from pathlib import Path

#: Outcome-count figures that depend on whether a fault counted as
#: ``degraded`` or ``no_failure``: the failure classifier tells the two apart
#: only by a measured slowdown against a measured baseline.
_TIMED_FIGURES = (
    "activated", "activation_rate", "failures", "failure_rate",
    "failure_exposure_rate", "distinct_failure_modes",
)


def _strip_durations(value):
    if isinstance(value, list):
        return [_strip_durations(item) for item in value]
    if isinstance(value, dict):
        return {
            key: _strip_durations(item)
            for key, item in value.items()
            if "seconds" not in key and "duration" not in key
        }
    return value


def _fold_timed_modes(counts: dict) -> None:
    """Merge ``degraded`` into ``no_failure`` in an outcome-count section."""
    for key in ("by_mode", "by_failure_mode"):
        modes = counts.get(key)
        if isinstance(modes, dict) and "degraded" in modes:
            modes["no_failure"] = modes.get("no_failure", 0) + modes.pop("degraded")
            for figure in _TIMED_FIGURES:
                counts.pop(figure, None)
    for nested in counts.get("targets", {}).values():
        _fold_timed_modes(nested)


def deterministic(kind: str, payload: dict) -> dict:
    """The part of a payload the program's inputs decide.

    Dropped: measured durations, a generate reply's ``batch_size``, and in
    campaign outcome counts the ``degraded``/``no_failure`` distinction
    (folded into one class, with the counts derived from it).  A campaign's
    neural technique keeps only its outcome totals: a generated fault with a
    probabilistic trigger draws from the sandbox's unseeded global
    ``random`` module, so its outcome differs from run to run (a defect of
    the program, not of the check), and the payload does not say which of
    its faults drew.
    """
    data = _strip_durations(payload)
    if kind == "generate":
        data.pop("batch_size", None)
    elif kind == "campaign":
        for technique, result in data["techniques"].items():
            for section in ("effectiveness", "campaign"):
                if technique == "neural":
                    result[section] = {"total": result[section]["total"]}
                else:
                    _fold_timed_modes(result[section])
    return data


def reference_view(response) -> dict:
    """The deterministic part of an in-process engine response's payload."""
    payload = response.payload
    data = payload.deterministic_dict() if response.kind == "generate" else payload.to_dict()
    return deterministic(response.kind, json.loads(json.dumps(data)))


def canonical(view: dict) -> str:
    return json.dumps(view, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def _output_to(log_path: Path):
    """Send this process's stdout/stderr file descriptors to ``log_path``.

    Pool workers of the in-process engine inherit the descriptors, and
    mutants print; the benchmark's own stdout must end with its result line.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    with open(log_path, "ab") as log:
        saved = [os.dup(1), os.dup(2)]
        try:
            for fd in (1, 2):
                os.dup2(log.fileno(), fd)
            yield
        finally:
            for fd, copy in zip((1, 2), saved):
                os.dup2(copy, fd)
                os.close(copy)


def error_view(error) -> str:
    """Canonical view of a failed reply's structured error."""
    error = error or {}
    return canonical({"error": {key: error.get(key) for key in ("type", "message", "kind")}})


def replay(operations, log_path: Path) -> list[list[str]]:
    """Run ``operations`` through a fresh in-process engine, one at a time.

    Returns, per operation, the canonical deterministic view of each reply
    (the :func:`error_view` where the engine answered with an error).
    """
    from repro import PipelineConfig
    from repro.api import FaultInjectionEngine, request_from_dict

    views = []
    with _output_to(log_path), FaultInjectionEngine(PipelineConfig()) as engine:
        for operation in operations:
            replies = []
            for route, body in zip(operation.routes, operation.bodies):
                response = engine.run(request_from_dict(route.rsplit("/", 1)[-1], body))
                if not response.ok:
                    # The load generator stops an operation at its first failed reply.
                    replies.append(error_view(response.error.to_dict() if response.error else None))
                    break
                replies.append(canonical(reference_view(response)))
            views.append(replies)
    _reap_workers()
    return views


def _reap_workers() -> None:
    """Kill and reap the pool workers the closed reference engine left behind.

    The engine shuts its pools down without waiting, and its idle workers
    can outlive it by seconds, or for good when one never takes its shutdown
    sentinel; the interpreter joins every child at exit, so this process
    would then never end.  Nothing runs on them any more.
    """
    for child in multiprocessing.active_children():
        child.kill()
        child.join()


def first_difference(got, want, path: str = "") -> str:
    """Where two JSON values first differ, as ``path: got != want``."""
    if isinstance(got, dict) and isinstance(want, dict):
        for key in sorted(set(got) | set(want)):
            if got.get(key) != want.get(key):
                return first_difference(got.get(key), want.get(key), f"{path}.{key}")
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        for index, (a, b) in enumerate(zip(got, want)):
            if a != b:
                return first_difference(a, b, f"{path}[{index}]")
    return f"{path or '.'}: {json.dumps(got)[:80]} != {json.dumps(want)[:80]}"


def compare(operations, records, reference) -> list[str]:
    """Compare server replies with the reference; returns the mismatches."""
    mismatches = []
    for operation, record, expected in zip(operations, records, reference):
        for position, (route, want) in enumerate(zip(operation.routes, expected)):
            if position >= len(record.envelopes):
                mismatches.append(f"op {record.index} {route}: no reply ({record.error or record.statuses})")
                continue
            envelope = record.envelopes[position]
            if envelope.get("status") == "ok":
                got = canonical(deterministic(envelope.get("kind", ""), envelope["payload"]))
            else:
                got = error_view(envelope.get("error"))
            if got != want:
                where = first_difference(json.loads(got), json.loads(want))
                mismatches.append(f"op {record.index} {route}: differs from the reference at {where}")
    if len(records) != len(reference):
        mismatches.append(f"{len(records)} records against {len(reference)} reference replies")
    return mismatches


def digest(reference) -> str:
    """sha256 of every reference reply in order: with the same seed, two
    commits that answer alike print the same digest."""
    hashed = hashlib.sha256()
    for replies in reference:
        for reply in replies:
            hashed.update(reply.encode("utf-8"))
    return hashed.hexdigest()
