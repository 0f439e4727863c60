"""Smoke test of the end-to-end benchmark: same workloads and code paths as
the real command, on a handful of tiny frames."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import e2e_report  # noqa: E402
from e2e_replay import logits_equal  # noqa: E402


@pytest.fixture(scope="module")
def smoke_result(tmp_path_factory) -> dict:
    out = tmp_path_factory.mktemp("e2e") / "result.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--out", str(out)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    result = json.loads(out.read_text())
    result["stdout"] = done.stdout
    return result


def _declared(trace: bool) -> list:
    """The catalogue's gated metrics, in BENCHMARK.json's form."""
    return [
        {"name": m.name, "unit": m.unit, "better": m.better}
        | ({} if trace else {"bound": m.bound})
        for m in e2e_report.gated(trace)
    ]


def test_names_match_benchmark_json(smoke_result):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(smoke_result["workloads"])
    assert declared["end_to_end"] == _declared(trace=False)
    assert declared["per_layer"] == _declared(trace=True)
    printed = smoke_result["stdout"].splitlines()
    for name, record in smoke_result["workloads"].items():
        assert set(record["metrics"]) == {
            m.name for trace in (False, True) for m in e2e_report.expected(name, trace)
        }
        # Every reported name is printed with its unit.
        for metric, entry in record["metrics"].items():
            assert any(
                line.startswith(metric + " ") and f" {entry['unit']} " in line
                for line in printed
            ), metric


def test_outputs_correct_and_trace_covers_the_frame(smoke_result):
    for name, record in smoke_result["workloads"].items():
        assert record["correct"], name
        assert record["metrics"]["failed_share"]["value"] == 0, name
        assert record["metrics"]["trace.coverage_share"]["value"] >= 0.85, name
        assert len(record["labels_digest"]) == 16


def test_replay_guard_fires_on_a_perturbed_logit():
    logits = [np.linspace(-1.0, 1.0, 40).reshape(1, 40)]
    assert logits_equal(logits, [logits[0].copy()])
    perturbed = logits[0].copy()
    perturbed[0, 7] = np.nextafter(perturbed[0, 7], 1.0)  # one ulp
    assert not logits_equal(logits, [perturbed])
    assert not logits_equal(logits, [])
