"""What the benchmark reads of the package: the tracer wraps package functions by name, so every traced
name must exist and every layer it times must be called, and the solve observer sizes each problem's cones."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

from entclone import sdp
from entclone.sdp import build_problem

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_traced_names_resolve():
    spans = load_spans()
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


def test_each_build_makes_one_call_to_each_channel_table():
    """The traced pass times channel.constraint_matrices and channel.fidelity_coefficients only as build_problem
    calls them, and stops with "no spans for ..." when it sees none: once a program's setup is built, every
    build of it makes exactly one call to each."""
    spans = load_spans()
    for with_ppt in (False, True):
        build_problem(0.1, with_ppt=with_ppt)
    tracer = spans.Tracer()
    with spans.tracing(tracer):
        for with_ppt in (False, True):
            for alpha in (0.0, 0.3, 0.7):
                sdp.build_problem(alpha, with_ppt=with_ppt)  # through the module, whose name the tracer wraps
    builds = [i for i, rec in enumerate(tracer.spans) if rec[0] == "sdp.build_problem"]
    assert len(builds) == 6
    for i in builds:
        children = sorted(rec[0] for rec in tracer.spans if rec[3] == i)
        assert children == ["channel.constraint_matrices", "channel.fidelity_coefficients"]
