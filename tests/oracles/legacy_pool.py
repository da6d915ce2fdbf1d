"""The unsupervised worker-pool dispatch: the oracle for the supervised pool.

:class:`~repro.execution.WorkerPool` always supervises its workers: liveness
checks before each batch, requeue-on-death under a retry budget, quarantine
of tasks that keep killing workers.  This module keeps the dispatch that came
before it, unchanged: one parallel round, then a retry pass that reruns every
task whose sibling broke the pool once, alone, on a fresh executor.  It never
injects chaos.  ``test_resilience.py`` checks that both dispatches deliver
the same payloads, and ``benchmarks/bench_resilience.py`` times the
supervision overhead against it.
"""

from __future__ import annotations

from concurrent.futures import CancelledError, TimeoutError as FutureTimeoutError
from concurrent.futures.process import BrokenProcessPool
from typing import Any

from repro.execution import WorkerPool
from repro.execution.pool import _BACKSTOP_GRACE_SECONDS, _execute_task


class LegacyWorkerPool(WorkerPool):
    """A :class:`WorkerPool` whose ``run_batch`` is the single-retry-pass dispatch."""

    def run_batch(
        self,
        target_name: str,
        module_sources: list[str],
        seed: int = 0,
        iterations: int = 25,
        timeout_seconds: float | None = None,
    ) -> list[dict[str, Any]]:
        timeout = float(timeout_seconds if timeout_seconds is not None else self.task_timeout_seconds)
        tasks = [
            {
                "target": target_name,
                "source": source,
                "seed": seed,
                "iterations": iterations,
                "timeout_seconds": timeout,
                "chaos": None,
                "chaos_key": f"{target_name}:{seed}:{index}",
                "attempt": 0,
            }
            for index, source in enumerate(module_sources)
        ]
        results = self._run_batch_legacy(tasks, timeout + _BACKSTOP_GRACE_SECONDS)
        self.tasks_executed += len(tasks)
        return results

    def _run_batch_legacy(self, tasks: list[dict[str, Any]], backstop: float) -> list[dict[str, Any]]:
        results: list[dict[str, Any] | None] = [None] * len(tasks)
        executor = self._ensure_executor()
        futures = [executor.submit(_execute_task, task) for task in tasks]
        needs_retry: list[int] = []
        for index, future in enumerate(futures):
            try:
                results[index] = future.result(timeout=backstop)
            except FutureTimeoutError:
                results[index] = {"status": "timeout"}
                self._recycle()  # outstanding futures fail over to the retry pass
            except (BrokenProcessPool, CancelledError):
                # A sibling wedged or killed its worker: running futures break,
                # queued ones are cancelled by the recycle.  Both rerun below.
                self._recycle()
                needs_retry.append(index)
            except Exception as exc:  # noqa: BLE001 - submission/pickling failures
                results[index] = {"status": "error", "error": f"{type(exc).__name__}: {exc}"}

        # Retry pass: tasks whose sibling broke the pool rerun one at a time on
        # a fresh executor, so a task that itself kills workers only fails itself.
        for index in needs_retry:
            results[index] = self._run_single(tasks[index], backstop)

        return [payload if payload is not None else {"status": "error", "error": "task produced no result"} for payload in results]

    def _run_single(self, task: dict[str, Any], backstop: float) -> dict[str, Any]:
        try:
            future = self._ensure_executor().submit(_execute_task, task)
            return future.result(timeout=backstop)
        except FutureTimeoutError:
            self._recycle()
            return {"status": "timeout"}
        except (BrokenProcessPool, CancelledError):
            # A second broken pool must fail this task alone, never raise out
            # of the batch: recycle so the *next* retry gets a fresh executor.
            self._recycle()
            return {"status": "error", "error": "worker process died while executing the task"}
        except Exception as exc:  # noqa: BLE001
            return {"status": "error", "error": f"{type(exc).__name__}: {exc}"}
