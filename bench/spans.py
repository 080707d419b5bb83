"""In-memory spans recorded around calls into entclone's public functions.

Nothing in the package is edited.  A traced function is replaced by a
wrapper in every ``entclone`` module namespace that holds it, so calls
between modules (``sdp.build_problem`` calling the name
``fidelity_coefficients`` it imported from ``channel``) are seen as
well as the benchmark's own calls.  Spans stay in memory until the run
ends; ``write_jsonl`` dumps them.

A span is the list ``[name, start, end, parent, point, ok, info]``:
times are ``time.perf_counter()`` seconds, ``parent`` is the index of
the enclosing span or -1, ``point`` labels the workload point that
caused it, ``ok`` is False when the call raised, and ``info`` holds
counts an observer attached (Newton steps, cone bytes).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from typing import Callable, Iterator

# Public functions whose calls become spans, by defining module.  Leaf
# helpers called dozens of times per point (apply_choi, partial_trace,
# clone_reductions) are left out to keep the span count and overhead low.
TRACED = {
    "covariant": ("build_t_operators", "assemble_ptilde", "basis_stack"),
    "channel": ("fidelity_coefficients", "constraint_matrices", "channel_from_params", "local_fidelity"),
    "sdp": ("build_problem", "solve", "solve_sweep", "detect_threshold"),
    "protocol": (
        "build_kraus", "run_protocol_exact", "average_clone_fidelity", "run_protocol_sampled", "kraus_to_choi",
    ),
    "cli": ("main",),
}

Observer = Callable[[tuple, dict, object], dict]


class Tracer:
    """Single-threaded span recorder; ``point`` tags every span opened while it is set."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.point: str | None = None

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[list]:
        rec = [name, time.perf_counter(), None, self._stack[-1] if self._stack else -1, self.point, True, None]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        except BaseException:
            rec[5] = False
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = fn(*args, **kwargs)
                if observe is not None:
                    rec[6] = observe(args, kwargs, result)
            return result

        return traced

    def write_jsonl(self, path: str) -> None:
        keys = ("name", "start", "end", "parent", "point", "ok", "info")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def _entclone_modules() -> list:
    return [m for name, m in list(sys.modules.items()) if name == "entclone" or name.startswith("entclone.")]


@contextlib.contextmanager
def replaced(original: Callable, replacement: Callable) -> Iterator[None]:
    """Swap ``original`` for ``replacement`` in every entclone namespace, then restore."""
    undo = []
    for mod in _entclone_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr))
    try:
        yield
    finally:
        for mod, attr in undo:
            setattr(mod, attr, original)


@contextlib.contextmanager
def tracing(tracer: Tracer, observers: dict[str, Observer] | None = None) -> Iterator[Tracer]:
    """Wrap every function in TRACED for the duration of the block."""
    observers = observers or {}
    with contextlib.ExitStack() as stack:
        for layer, names in TRACED.items():
            mod = importlib.import_module(f"entclone.{layer}")
            for fname in names:
                span_name = f"{layer}.{fname}"
                original = getattr(mod, fname)
                stack.enter_context(replaced(original, tracer.wrap(span_name, original, observers.get(span_name))))
        yield tracer


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for rec in spans:
        if rec[3] >= 0:
            child[rec[3]] += rec[2] - rec[1]
    return [rec[2] - rec[1] - c for rec, c in zip(spans, child)]

