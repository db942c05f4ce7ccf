"""The benchmark's own test: `python3 -m pytest -q perfbench` from the repository root."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402


def test_smoke_every_workload_emits_every_metric_and_repeats_its_counts():
    assert run.main(["--smoke"]) == 0
