"""Smoke tests: every example runs end to end and prints its key results."""

import importlib.util
import pathlib
import re
import runpy
import sys

import pytest

from repro import registry

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parent.parent / "examples"


def load_example(name: str):
    path = EXAMPLES_DIR / name
    spec = importlib.util.spec_from_file_location(f"example_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "name",
    [
        "quickstart.py",
        "compare_samplers.py",
        "accelerator_comparison.py",
        "kitti_realtime_service.py",
    ],
)
def test_examples_define_main(name):
    module = load_example(name)
    assert hasattr(module, "main") or hasattr(module, "functional_sequence")


def test_quickstart_runs(capsys):
    module = load_example("quickstart.py")
    module.main()
    out = capsys.readouterr().out
    assert "down-sampled" in out
    assert "total" in out


def test_accelerator_comparison_runs(capsys):
    module = load_example("accelerator_comparison.py")
    module.main()
    out = capsys.readouterr().out
    assert "KITTI" in out and "vs HgPCN" in out


def test_compare_samplers_runs(capsys):
    load_example("compare_samplers.py").main()
    out = capsys.readouterr().out
    assert "Down-sampling method comparison" in out
    rows = {line.split(" | ")[0].strip() for line in out.splitlines() if " | " in line}
    assert set(registry.available("sampler")) <= rows


def test_kitti_realtime_service_runs(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "kitti_realtime_service.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "keeps up with sensor: True" in out
    assert re.search(r"HgPCN: .* meets 10 Hz real-time: True", out)
    assert re.search(r"CPU baseline: .* meets 10 Hz real-time: False", out)
