"""The benchmark's own output checks pass on every CLI operation it runs.

`perfbench/workloads.py` parses each CLI report and checks its content; a
change to the report layout or content that those checks reject would turn a
benchmark run incorrect. This builds the four workloads for seed 1, runs each
CLI operation once in order, as a pass does, and asserts its check finds no problem.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    yield module
    del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["symext_cold", "symext_deep", "tomo", "screen"])
def test_cli_ops_pass_their_checks(workloads, name, tmp_path):
    ops = [op for op in workloads.WORKLOADS[name](1, str(tmp_path)) if op.name.startswith("cli ")]
    assert ops
    # as in a benchmark pass, every op runs before any is inspected: inspecting
    # `state make` removes the file that `state show` reads
    codes = [op.run() for op in ops]
    for op, code in zip(ops, codes):
        record, problems = op.inspect(code)
        assert record["exit"] == 0, op.name
        assert problems == [], op.name
