"""The load generator: open and closed loops over keep-alive HTTP connections.

Every operation is recorded with its timestamps (``time.monotonic``, which
is one clock for every process on the host), its HTTP statuses and its
response envelopes, so metrics, the output check and the span window are all
computed after the fact.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass, field

#: Seconds one HTTP exchange may take before it counts as failed.
REQUEST_TIMEOUT_SECONDS = 120.0


@dataclass
class Record:
    """What happened to one operation.

    ``due`` is when an open loop scheduled the operation (``sent`` for a
    closed loop); ``picked`` is when a connection became free to take it;
    latency runs from ``due`` to ``done``.
    """

    index: int
    due: float
    picked: float = 0.0
    sent: float = 0.0
    done: float = 0.0
    statuses: list = field(default_factory=list)
    envelopes: list = field(default_factory=list)
    exchanges: list = field(default_factory=list)
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and bool(self.statuses)
            and all(status == 200 for status in self.statuses)
            and all(envelope.get("status") == "ok" for envelope in self.envelopes)
        )

    @property
    def latency(self) -> float:
        return self.done - self.due

    @property
    def lateness(self) -> float:
        """How late the generator itself sent: zero unless it overslept."""
        return max(0.0, self.sent - max(self.due, self.picked))


class Connection:
    """One keep-alive client connection to the server."""

    def __init__(self, host: str, port: int) -> None:
        self._connection = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_SECONDS)

    def post(self, route: str, body: dict) -> tuple[int, dict]:
        payload = json.dumps(body).encode("utf-8")
        try:
            self._connection.request(
                "POST", route, body=payload, headers={"Content-Type": "application/json"}
            )
            response = self._connection.getresponse()
            return response.status, json.loads(response.read())
        except (OSError, http.client.HTTPException, ValueError):
            self._connection.close()
            raise

    def close(self) -> None:
        self._connection.close()


def send(connection: Connection, operation, record: Record) -> None:
    """Send every request of ``operation`` in order, filling ``record``."""
    record.sent = time.monotonic()
    try:
        for route, body in zip(operation.routes, operation.bodies):
            started = time.monotonic()
            status, envelope = connection.post(route, body)
            record.exchanges.append(time.monotonic() - started)
            record.statuses.append(status)
            record.envelopes.append(envelope)
            if status != 200 or envelope.get("status") != "ok":
                break
    except (OSError, http.client.HTTPException, ValueError) as exc:
        record.error = f"{type(exc).__name__}: {exc}"
    record.done = time.monotonic()


def _run_threads(worker, clients: int) -> None:
    """Run ``worker`` on ``clients`` threads; re-raise the first error."""
    errors: list[BaseException] = []

    def guarded() -> None:
        try:
            worker()
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread
            errors.append(exc)

    threads = [threading.Thread(target=guarded, name=f"client-{n}") for n in range(clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


def run_closed(host: str, port: int, operations, clients: int) -> tuple[float, list[Record]]:
    """``clients`` callers take operations in order until every one is sent.

    Returns the loop's start and the records in send order.
    """
    lock = threading.Lock()
    records: list[Record] = []
    cursor = iter(enumerate(operations))
    start = time.monotonic()

    def worker() -> None:
        connection = Connection(host, port)
        try:
            while True:
                with lock:
                    index, operation = next(cursor, (None, None))
                    if operation is None:
                        return
                    now = time.monotonic()
                    record = Record(index, due=now, picked=now)
                    records.append(record)
                send(connection, operation, record)
        finally:
            connection.close()

    _run_threads(worker, clients)
    return start, records


def run_open(host: str, port: int, operations, offsets, clients: int) -> tuple[float, list[Record]]:
    """Send operation ``i`` at ``start + offsets[i]`` on the first free connection.

    Latency is timed from the due time, so a stall also charges the wait it
    imposes on later operations.  Returns the window start and the records.
    """
    lock = threading.Lock()
    records = [Record(index, due=0.0) for index in range(len(operations))]
    cursor = iter(range(len(operations)))
    start = time.monotonic() + 0.05

    def worker() -> None:
        connection = Connection(host, port)
        try:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                record = records[index]
                record.picked = time.monotonic()
                record.due = start + offsets[index]
                delay = record.due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                send(connection, operations[index], record)
        finally:
            connection.close()

    _run_threads(worker, clients)
    return start, records
