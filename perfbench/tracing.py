"""Traced server entry point and per-layer aggregation.

Run as a program, this module is the server the traced run spawns::

    PYTHONPATH=src PERFBENCH_SPANS=spans.json python perfbench/tracing.py

It replaces the public functions in :data:`WRAPPED` with timing wrappers
(class attributes swapped at start-up; the program's sources are not
edited), then serves exactly like ``python -m repro serve --port 0``.
Spans are kept in memory and written to ``$PERFBENCH_SPANS`` after the
server has drained.  Each span records its self time: its duration minus
the time its wrapped children on the same thread took, so the self times of
one operation add up towards its latency.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import threading
import time

#: (module, class or None, attribute, layer) of every wrapped function.
WRAPPED: tuple[tuple[str, str | None, str, str], ...] = (
    ("repro.nlp.spec_extractor", "FaultSpecExtractor", "extract_batch", "nlp.extract"),
    ("repro.nlp.spec_extractor", "FaultSpecExtractor", "extract", "nlp.extract"),
    ("repro.nlp.code_analyzer", "CodeAnalyzer", "analyze", "nlp.analyze"),
    ("repro.llm.generator", "FaultGenerator", "prompt_distributions", "llm.forward"),
    ("repro.llm.compiled_grammar", "GrammarCompiler", "compile", "llm.compile"),
    ("repro.llm.generator", "FaultGenerator", "decode_prompt", "llm.decode"),
    ("repro.llm.grammar", "CodeGrammar", "render", "llm.render"),
    ("repro.llm.generator", "FaultGenerator", "candidates_batch", "llm.candidates"),
    ("repro.rlhf.simulated_tester", "SimulatedTester", "review_batch", "rlhf.review"),
    ("repro.rlhf.reward_model", "RewardModel", "fit", "rlhf.reward_fit"),
    ("repro.rlhf.policy_opt", "PolicyOptimizer", "update", "rlhf.policy_update"),
    ("repro.injection.ast_utils", None, "replace_function_source", "injection.splice"),
    ("repro.injection.injector", "ProgrammableInjector", "exhaustive_mutants", "injection.mutants"),
    ("repro.integration.integrator", "FaultIntegrator", "integrate_generated", "integration.integrate"),
    ("repro.integration.integrator", "FaultIntegrator", "integrate_applied", "integration.integrate"),
    ("repro.types", "Patch", "changed_line_count", "integration.diff"),
    ("repro.integration.experiment", "ExperimentRunner", "run_many", "integration.self"),
    ("repro.integration.runner", "SandboxRunner", "run_batch", "execution.run_batch"),
    ("repro.core.campaign", "CampaignOrchestrator", "run_neural", "campaign.neural"),
    ("repro.core.campaign", "CampaignOrchestrator", "run_predefined", "campaign.predefined"),
    ("repro.core.campaign", "CampaignOrchestrator", "run_random", "campaign.random"),
)

#: Environment variable naming the file the spans are written to.
SPANS_ENV = "PERFBENCH_SPANS"


class Recorder:
    """In-memory span store; one stack of open spans per thread."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float, int]] = []
        self._local = threading.local()

    def wrap(self, function, layer: str):
        """``function`` wrapped so each call records a ``layer`` span."""
        count_tasks = layer == "execution.run_batch"

        @functools.wraps(function)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            stack.append(0.0)
            started = time.monotonic()
            try:
                return function(*args, **kwargs)
            finally:
                ended = time.monotonic()
                children = stack.pop()
                duration = ended - started
                if stack:
                    stack[-1] += duration
                count = 1
                if count_tasks:
                    sources = args[2] if len(args) > 2 else kwargs.get("module_sources", ())
                    count = len(sources)
                self.spans.append((layer, started, ended, duration - children, count))

        return traced

    def install(self) -> None:
        """Swap every function in :data:`WRAPPED` for its traced version."""
        for module_name, class_name, attribute, layer in WRAPPED:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name)
            current = owner.__dict__[attribute]
            if isinstance(current, property):
                setattr(owner, attribute, property(self.wrap(current.fget, layer)))
            else:
                setattr(owner, attribute, self.wrap(current, layer))

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)


def layer_totals(spans, start: float, end: float) -> dict[str, tuple[float, int]]:
    """Per layer: (self seconds, count) of spans that began in ``[start, end]``."""
    totals: dict[str, list] = {}
    for layer, began, _ended, self_seconds, count in spans:
        if start <= began <= end:
            entry = totals.setdefault(layer, [0.0, 0])
            entry[0] += self_seconds
            entry[1] += count
    return {layer: (seconds, count) for layer, (seconds, count) in totals.items()}


def main() -> int:
    path = os.environ.get(SPANS_ENV)
    if not path:
        print(f"{SPANS_ENV} must name the spans output file", file=sys.stderr)
        return 2
    recorder = Recorder()
    recorder.install()
    from repro.cli import main as repro_main

    code = repro_main(["serve", "--port", "0"])
    recorder.dump(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
