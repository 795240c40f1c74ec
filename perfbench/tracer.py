"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions that one fundsol module imports from
another (for example ``fundsol.evaluator.sph_harm_table``), by replacing the
attribute in the importing module.  Wrappers are installed only around a
traced op and removed after it, so untraced ops run the unmodified program.

A name that no longer exists is recorded as absent and its metrics read 0,
so the benchmark keeps running across API changes in the package.

``clebsch_gordan`` is deliberately not wrapped: a ladder step calls it tens of
thousands of times, so a wrapper would cost more than it measures.  The split
between the first ladder step in a process (``cold_ms``) and the others
(``ms_per_step``) shows its cache instead.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import os
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def table_nbytes(table) -> int:
    """Computed in-memory size of a coefficient table: all its array fields."""
    if dataclasses.is_dataclass(table):
        values = [getattr(table, f.name) for f in dataclasses.fields(table)]
    else:
        values = list(vars(table).values())
    return sum(v.nbytes for v in values if isinstance(v, np.ndarray))


def _eval_counts(a, k, result):
    return {
        "evaluator.evaluate_batch.points": len(_arg(a, k, 1, "points")),
        "expansion.coeff_bytes": table_nbytes(_arg(a, k, 0, "table")),
    }


# (module, attribute, span name, counter(args, kwargs, result) -> {metric: value})
TARGETS = [
    ("fundsol.cli", "cmd_build", "cli.cmd_build", None),
    (
        "fundsol.cli", "cmd_eval", "cli.cmd_eval",
        lambda a, k, r: {"cli.cmd_eval.out_bytes": os.path.getsize(a[0].out)},
    ),
    ("fundsol.cli", "base_coefficients", "expansion.base_coefficients", None),
    (
        "fundsol.expansion", "inverse_symbol_batch", "symbol.inverse_symbol_batch",
        lambda a, k, r: {"symbol.inverse_symbol_batch.dirs": len(_arg(a, k, 1, "dirs"))},
    ),
    (
        "fundsol.expansion", "norm_legendre_table", "special.norm_legendre_table",
        lambda a, k, r: {"special.norm_legendre_table.cells": np.size(r)},
    ),
    (
        "fundsol.expansion", "derive_coefficients", "expansion.derive_coefficients",
        lambda a, k, r: {"expansion.derive_coefficients.steps": 1},
    ),
    (
        "fundsol.cli", "save_table", "expansion.save_table",
        lambda a, k, r: {"expansion.save_table.bytes": os.path.getsize(_arg(a, k, 1, "path"))},
    ),
    (
        "fundsol.cli", "load_table", "expansion.load_table",
        lambda a, k, r: {"expansion.load_table.bytes": os.path.getsize(_arg(a, k, 0, "path"))},
    ),
    ("fundsol", "evaluate_batch", "evaluator.evaluate_batch", _eval_counts),
    ("fundsol.cli", "evaluate_batch", "evaluator.evaluate_batch", _eval_counts),
    (
        "fundsol.evaluator", "regular_part_at", "evaluator.regular_part_at",
        lambda a, k, r: {"evaluator.regular_part_at.dirs": np.size(_arg(a, k, 1, "theta"))},
    ),
    (
        "fundsol.evaluator", "sph_harm_table", "special.sph_harm_table",
        lambda a, k, r: {"special.sph_harm_table.cells": np.size(r)},
    ),
]

SPAN_NAMES = sorted({t[2] for t in TARGETS})


class Tracer:
    """Records spans (name, start, end, parent) and counts in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.first_s: dict[str, float] = {}  # duration of the first call in the process
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def install(self) -> None:
        for mod_name, attr, span, counter in TARGETS:
            try:
                module = importlib.import_module(mod_name)
            except ImportError:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            original = getattr(module, attr, None)
            if original is None:
                self.absent.add(f"{mod_name}.{attr}")
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def reset(self) -> None:
        """Drop recorded spans and counts; first-call durations are kept."""
        self.spans.clear()
        self.counts.clear()

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()
            self.first_s.setdefault(name, record[2] - record[1])

    def _wrap(self, fn, name, counter):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if counter is not None:
                try:
                    items = counter(args, kwargs, result).items()
                except Exception:  # a changed signature must not fail the op
                    self.counts["trace.count_errors"] += 1
                else:
                    for key, value in items:
                        self.counts[key] += float(value)
            return result

        return wrapper

    def self_seconds(self) -> dict[str, float]:
        """Total self time per span name: duration minus child durations."""
        out: dict[str, float] = defaultdict(float)
        for name, start, end, parent in self.spans:
            duration = end - start
            out[name] += duration
            if parent >= 0:
                out[self.spans[parent][0]] -= duration
        return out
