"""Outside-in tracer for pluricoh, installed only for the traced run.

``Tracer.install`` replaces each function in TARGETS at every module
attribute through which callers reach it (``rank`` is bound in
``exact_linalg``, ``blowup``, ``cli`` and the package itself, for example),
so calls made inside pluricoh are seen too.  Spans are kept in memory as
dicts (name, start, end, parent, case) and turned into per-layer metrics by
``layer_metrics``.  A layer's self time is its span's duration minus the
durations of its child spans; it is reported as a share of the pass.

Work counts are taken from the arguments and results at the boundary:
shape, cells and largest entry size (in bits, after each row is scaled to
integers the way the rank routine does) of every matrix passed to rank, and
whether that matrix was already ranked in the same case.  Computing them
happens in a "trace.bookkeeping" span so that it is charged to no layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import math
import sys
import time

TARGETS = (
    ("exact_linalg", "rank"),
    ("blowup", "jet_matrix"),
    ("blowup", "generate_configuration"),
    ("blowup", "achievable_dims"),
    ("hirzebruch", "dim_enumerated"),
    ("family", "noninvariance_report_blowup"),
    ("family", "noninvariance_report_hirzebruch"),
    ("selfcheck", "run_selfcheck"),
    ("selfcheck", "naive_rank"),
    ("cli", "main"),
    ("cli", "render"),
)

RANK = "exact_linalg.rank"
JET = "blowup.jet_matrix"
SAMPLER = "blowup.generate_configuration"
SWEEP = "blowup.achievable_dims"
BOOKKEEPING = "trace.bookkeeping"
CASE = "case"

LAYERS = [f"{module}.{function}" for module, function in TARGETS]


def _max_entry_bits(matrix) -> int:
    bits = 0
    cols = matrix.cols
    for i in range(matrix.rows):
        row = matrix.entries[i * cols : (i + 1) * cols]
        scale = math.lcm(*(x.denominator for x in row))
        for x in row:
            bits = max(bits, (abs(x.numerator) * (scale // x.denominator)).bit_length())
    return bits


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._case: str | None = None
        self._ranked: set = set()
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "pluricoh" or name.startswith("pluricoh.")
        ]
        for module_name, function_name in TARGETS:
            original = getattr(importlib.import_module(f"pluricoh.{module_name}"), function_name)
            wrapper = self._wrap(f"{module_name}.{function_name}", original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._restore):
            setattr(module, attr, original)
        self._restore.clear()

    def drain(self) -> list[dict]:
        """Hand over the spans recorded so far and start a fresh list."""
        if self._stack:
            raise RuntimeError("cannot drain spans while a span is open")
        spans, self.spans = self.spans, []
        return spans

    @contextlib.contextmanager
    def case(self, case_id: str):
        self._case, self._ranked = case_id, set()
        index = self._open(CASE)
        try:
            yield
        finally:
            self._close(index)
            self._case, self._ranked = None, set()

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append(
            {
                "name": name,
                "start": time.perf_counter_ns(),
                "end": None,
                "parent": self._stack[-1] if self._stack else None,
                "case": self._case,
            }
        )
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index]["end"] = time.perf_counter_ns()
        self._stack.pop()

    def _rank_counts(self, matrix) -> dict:
        index = self._open(BOOKKEEPING)
        repeat = matrix in self._ranked
        self._ranked.add(matrix)
        counts = {
            "rows": matrix.rows,
            "cols": matrix.cols,
            "max_entry_bits": _max_entry_bits(matrix),
            "repeat": repeat,
        }
        self._close(index)
        return counts

    def _wrap(self, name: str, function):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            counts = self._rank_counts(args[0] if args else kwargs["matrix"]) if name == RANK else {}
            index = self._open(name)
            span = self.spans[index]
            span.update(counts)
            span["ok"] = False
            try:
                result = function(*args, **kwargs)
                span["ok"] = True
            finally:
                self._close(index)
            if name == JET:
                span["entries"] = len(result.matrix.entries)
            return result

        return traced


def _ratio(part: int, whole: int) -> float:
    # With no attempts nothing was wasted.
    return part / whole if whole else 1.0


def layer_metrics(spans: list[dict], pass_s: float) -> dict[str, float]:
    """Per-layer counts, and self times as shares of the pass's wall time `pass_s`."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_ns[span["parent"]] += span["end"] - span["start"]

    def nearest(index: int, name: str) -> int | None:
        parent = spans[index]["parent"]
        while parent is not None and spans[parent]["name"] != name:
            parent = spans[parent]["parent"]
        return parent

    self_ns = dict.fromkeys(LAYERS, 0)
    calls = dict.fromkeys(LAYERS, 0)
    for index, span in enumerate(spans):
        if span["name"] in self_ns:
            self_ns[span["name"]] += span["end"] - span["start"] - child_ns[index]
            calls[span["name"]] += 1

    ranks = [i for i, span in enumerate(spans) if span["name"] == RANK]
    samplers = [nearest(i, SAMPLER) for i in ranks]
    sampler_attempts = sum(index is not None for index in samplers)
    useful_samples = sum(spans[index]["ok"] for index in set(samplers) - {None})
    metrics = {f"{name}.self_share": ns / 1e9 / pass_s for name, ns in self_ns.items()}
    metrics.update(
        {
            "exact_linalg.rank.calls": len(ranks),
            "exact_linalg.rank.cells": sum(spans[i]["rows"] * spans[i]["cols"] for i in ranks),
            "exact_linalg.rank.max_entry_bits": max((spans[i]["max_entry_bits"] for i in ranks), default=0),
            "exact_linalg.rank.unique_ratio": _ratio(
                sum(not spans[i]["repeat"] for i in ranks), len(ranks)
            ),
            "blowup.jet_matrix.calls": calls[JET],
            "blowup.jet_matrix.entries": sum(
                span.get("entries", 0) for span in spans if span["name"] == JET
            ),
            "blowup.generate_configuration.calls": calls[SAMPLER],
            "blowup.generate_configuration.attempts": sampler_attempts,
            "blowup.generate_configuration.useful_ratio": _ratio(useful_samples, sampler_attempts),
            "blowup.achievable_dims.attempts": sum(nearest(i, SWEEP) is not None for i in ranks),
            "hirzebruch.dim_enumerated.calls": calls["hirzebruch.dim_enumerated"],
        }
    )
    return metrics

