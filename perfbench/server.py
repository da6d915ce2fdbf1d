"""Spawn, probe and stop the server under test.

The child's stdout and stderr both go to one log file.  Nothing is piped, so
nothing has to be drained: an undrained pipe stalls the server once its
buffer fills, and pool-mode mutants print to the server's stdout.  The
listening URL is read from the banner the server writes to stderr; readiness
is ``GET /healthz``.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

_BANNER = re.compile(r"serving on http://([^:\s]+):(\d+)")

#: Seconds a server may take to print its banner and answer ``/healthz``.
START_TIMEOUT_SECONDS = 60.0
#: Seconds a server may take to drain and exit after SIGINT (it is idle by
#: then, so draining itself takes well under a second).
STOP_TIMEOUT_SECONDS = 15.0


class Server:
    """One running server process.

    Args:
        root: Checkout root; ``src/`` is put on the child's ``PYTHONPATH``.
        log_path: File that receives the child's stdout and stderr.
        argv: Program arguments after the interpreter (default: the
            ``repro`` CLI's ``serve --port 0``).
        env: Extra environment variables for the child.
    """

    def __init__(self, root: Path, log_path: Path, argv=None, env=None) -> None:
        self.log_path = log_path
        child_env = dict(os.environ)
        child_env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([child_env["PYTHONPATH"]] if child_env.get("PYTHONPATH") else [])
        )
        child_env.update(env or {})
        argv = argv or ["-m", "repro", "serve", "--port", "0"]
        self._log = open(log_path, "wb")
        try:
            self.process = subprocess.Popen(
                [sys.executable, *argv],
                cwd=root,
                env=child_env,
                stdin=subprocess.DEVNULL,
                stdout=self._log,
                stderr=subprocess.STDOUT,
                # Its own process group, so stop() can reach the pool workers.
                start_new_session=True,
            )
        except OSError:
            self._log.close()
            raise
        self.host = ""
        self.port = 0

    def wait_ready(self) -> None:
        """Block until the banner is logged and ``/healthz`` answers 200."""
        deadline = time.monotonic() + START_TIMEOUT_SECONDS
        while not self.port:
            match = _BANNER.search(self.log_path.read_text(errors="replace"))
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                break
            self._check_alive(deadline)
            time.sleep(0.005)
        while True:
            try:
                status, _body = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            self._check_alive(deadline)
            time.sleep(0.005)

    def _check_alive(self, deadline: float) -> None:
        if self.process.poll() is not None:
            raise RuntimeError(f"server exited with {self.process.returncode}; see {self.log_path}")
        if time.monotonic() > deadline:
            raise RuntimeError(f"server not ready after {START_TIMEOUT_SECONDS}s; see {self.log_path}")

    def get(self, path: str) -> tuple[int, dict]:
        """One ``GET`` on a fresh connection; returns (status, JSON body)."""
        connection = http.client.HTTPConnection(self.host, self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return response.status, json.loads(response.read())
        finally:
            connection.close()

    def rss_mb(self) -> float:
        """Resident memory of the server and all its descendants, in MiB."""
        return sum(_rss_kib(pid) for pid in _process_tree(self.process.pid)) / 1024.0

    def stop(self) -> int:
        """SIGINT (drain), wait, and kill if the drain overruns.

        Whatever the server's own exit left of its process group (pool
        workers) is killed too, and waited for.
        """
        try:
            if self.process.poll() is None:
                self.process.send_signal(signal.SIGINT)
                try:
                    self.process.wait(STOP_TIMEOUT_SECONDS)
                except subprocess.TimeoutExpired:
                    self.process.kill()
                    self.process.wait()
            return self.process.returncode
        finally:
            _kill_group(self.process.pid)
            self._log.close()


def _kill_group(pgid: int) -> None:
    """SIGKILL process group ``pgid`` and wait until none of it still runs.

    Members orphaned by the server's exit are reaped by init, not by us, so
    a zombie counts as ended.
    """
    deadline = time.monotonic() + STOP_TIMEOUT_SECONDS
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        if not _running_in_group(pgid):
            return
        time.sleep(0.01)
    raise RuntimeError(f"process group {pgid} survived SIGKILL")


def _running_in_group(pgid: int) -> bool:
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # The command name may hold spaces; the fields after it do not.
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[2]) == pgid and fields[0] not in "ZX":
            return True
    return False


def _children(pid: int) -> list[int]:
    found = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            found.extend(int(child) for child in task.read_text().split())
        except OSError:
            continue
    return found


def _process_tree(pid: int) -> list[int]:
    tree, frontier = [], [pid]
    while frontier:
        current = frontier.pop()
        tree.append(current)
        frontier.extend(_children(current))
    return tree


def _rss_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0
