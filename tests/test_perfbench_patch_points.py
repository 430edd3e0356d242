"""The benchmark's traced run wraps sepkit attributes by name; they must all exist.

`perfbench/spans.py` patches "module:attribute" lookup sites, the criteria in
`ONE_SHOT_TESTS` and `DensityMatrix.__post_init__`. A rename or deletion in
`src/` that breaks `perfbench/run.py --trace 1` fails here instead.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

from sepkit.criteria import ONE_SHOT_TESTS
from sepkit.linalg import DensityMatrix

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patch_points_resolve(spans):
    missing = []
    for name, points in spans.PATCH_POINTS.items():
        for point in points:
            mod_name, attr = point.split(":")
            module = importlib.import_module(f"sepkit.{mod_name}")
            if not callable(getattr(module, attr, None)):
                missing.append(f"{name}: {point}")
    assert not missing


def test_traced_criteria_are_one_shot_tests(spans):
    assert set(spans.CRITERIA) <= set(ONE_SHOT_TESTS)


def test_density_validation_entry_point():
    assert "__post_init__" in vars(DensityMatrix)
