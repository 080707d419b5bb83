"""What the benchmark reads of the package: the tracer wraps package functions by name, so every traced
name must exist, and the solve observer sizes each problem's cones."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from entclone.sdp import build_problem

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def test_traced_names_resolve():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.TRACED.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"entclone.{layer}"), name, None))
    ]
    assert not missing


def test_problems_carry_cone_forms():
    """The benchmark sizes each problem's cones with getattr(problem, "cones", ()), so a missing attribute
    would read as 0 bytes instead of failing: both programs carry a non-empty float array there."""
    for with_ppt in (False, True):
        cones = build_problem(0.3, with_ppt=with_ppt).cones
        assert isinstance(cones, np.ndarray) and cones.dtype == np.float64 and cones.size > 0
