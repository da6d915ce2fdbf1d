"""Shared fixtures and reporting helpers for the benchmark harness.

Every benchmark writes the table or series it regenerates to
``benchmarks/results/<experiment>.json`` (and a readable ``.txt`` next to it)
so that EXPERIMENTS.md can be checked against concrete artefacts after a run.
"""

from __future__ import annotations

import json
import os
import sys
from pathlib import Path

import pytest

from repro import (
    DatasetConfig,
    IntegrationConfig,
    ModelConfig,
    NeuralFaultInjector,
    PipelineConfig,
    RLHFConfig,
    SFTConfig,
)

RESULTS_DIR = Path(__file__).parent / "results"

# The reference oracles some benchmarks time against live with the tests
# (``tests/oracles/``); appended, not prepended, so ``tests/conftest.py``
# never shadows this module.
sys.path.append(str(Path(__file__).resolve().parent.parent / "tests"))

#: Quick-mode (CI smoke) runs write to ``results/quick/`` — an ignored
#: scratch directory — so they can never clobber the committed full-mode
#: numbers that ``check_floors.py`` gates CI against.
QUICK_RESULTS_DIR = RESULTS_DIR / "quick"


def write_result(name: str, payload: dict, table: str | None = None) -> None:
    """Persist a benchmark's regenerated table/series under ``benchmarks/results``
    (or ``benchmarks/results/quick`` when ``BENCH_QUICK`` is set)."""
    quick = os.environ.get("BENCH_QUICK", "") not in ("", "0")
    results_dir = QUICK_RESULTS_DIR if quick else RESULTS_DIR
    results_dir.mkdir(parents=True, exist_ok=True)
    (results_dir / f"{name}.json").write_text(json.dumps(payload, indent=2, sort_keys=True))
    if table is not None:
        (results_dir / f"{name}.txt").write_text(table + "\n")
    print(f"\n[{name}]")
    if table:
        print(table)


@pytest.fixture(scope="session")
def bench_config() -> PipelineConfig:
    return PipelineConfig(
        model=ModelConfig(),
        dataset=DatasetConfig(samples_per_target=40, max_faults_per_function=3),
        sft=SFTConfig(epochs=6),
        rlhf=RLHFConfig(iterations=3, candidates_per_iteration=4),
        integration=IntegrationConfig(workload_iterations=25, test_timeout_seconds=20),
        max_refinement_iterations=3,
    )


@pytest.fixture(scope="session")
def prepared_pipeline(bench_config) -> NeuralFaultInjector:
    """A pipeline with the SFI dataset generated and the policy fine-tuned."""
    pipeline = NeuralFaultInjector(bench_config)
    pipeline.prepare()
    return pipeline
