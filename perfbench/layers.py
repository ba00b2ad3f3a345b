"""Per-layer spans and counters recorded from outside the program.

``Tracer.install()`` wraps public functions of trigkit's layer modules. Each
wrapper replaces the function under every name that refers to it in every
loaded ``trigkit`` module, because ``cli`` and ``pipeline`` bind functions
with ``from .x import y`` and patching the defining module alone would miss
those calls. Spans (name, start, end, parent, op) stay in memory until the
run ends; a layer's self time is its duration minus what its child spans
cover. Counters are taken from each call's arguments and result.
"""
from __future__ import annotations

import importlib
import os
import sys
import time
from contextlib import contextmanager

#: module -> public functions timed as layers.
LAYER_FUNCTIONS = {
    "config": ("load_inputs", "build_manifest"),
    "docio": ("parse_document", "dump_document"),
    "pipeline": ("candidate_relations", "enumerate_bundles", "generate_catalog"),
    "generation": ("build_matrix", "worst_case_filter", "positive_cells",
                   "synthesize_conditions"),
    "render": ("catalog_to_doc", "catalog_to_csv", "catalog_to_markdown",
               "catalog_from_doc", "cases_to_doc", "cases_to_markdown",
               "cases_from_doc", "render_report"),
    "testcases": ("compose",),
}

# Span record fields.
NAME, START, END, PARENT, OP = range(5)


def _file_bytes(paths) -> int:
    return sum(os.path.getsize(p) for p in paths)


def _count(tracer: "Tracer", name: str, span: str, args, result) -> None:
    """Counters of one finished call, keyed by layer metric name."""
    add = tracer.add
    if name == "docio.parse_document":
        add(span + "_bytes", len(args[0].encode("utf-8")))
    elif name == "generation.build_matrix":
        add("generation.build_matrix.calls", 1)
        add("generation.build_matrix.cells", len(result.cells))
        add("generation.build_matrix.empty", 0 if result.columns else 1)
    elif name == "generation.worst_case_filter":
        add("generation.worst_case_filter.kept", len(result))
    elif name == "generation.synthesize_conditions":
        add("generation.synthesize_conditions.conditions", len(result))
        add("generation.productive_matrices", 1 if result else 0)
    elif name == "pipeline.candidate_relations":
        add("pipeline.candidate_relations.candidates", len(result))
    elif name == "pipeline.enumerate_bundles":
        add("pipeline.enumerate_bundles.bundles", len(result))
    elif name == "testcases.compose":
        cases, warnings = result
        add("testcases.compose.cases", len(cases))
        add("testcases.compose.warnings", len(warnings))
    elif name == "config.load_inputs":
        add("config.load_inputs.calls", 1)
    elif name == "docio.dump_document":
        add("docio.dump_document.bytes", len(result.encode("utf-8")))
    elif name == "config.build_manifest":
        inputs, outputs = args[2], args[3]
        add("config.build_manifest.bytes_hashed",
            _file_bytes(inputs) + _file_bytes(outputs))


def _parse_span_name(args, kwargs) -> str:
    return "docio.parse_document." + kwargs.get("fmt", args[1] if len(args) > 1 else "yaml")


class Tracer:
    """Spans and counters of the ops run while installed."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[int, dict[str, int]] = {}
        self.op = 0
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def add(self, key: str, n: int) -> None:
        ops = self.counters.setdefault(self.op, {})
        ops[key] = ops.get(key, 0) + n

    # -- installing -------------------------------------------------------

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            span = _parse_span_name(args, kwargs) if name == "docio.parse_document" \
                else name
            index = tracer.open(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            _count(tracer, name, span, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every layer function in every loaded trigkit module."""
        importlib.import_module("trigkit.cli")
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None and (key == "trigkit" or key.startswith("trigkit."))]
        for module_name, functions in LAYER_FUNCTIONS.items():
            defining = sys.modules[f"trigkit.{module_name}"]
            for function in functions:
                original = getattr(defining, function)
                wrapper = self._wrap(f"{module_name}.{function}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def op_layers(spans: list[list], first: int, counters: dict[str, int]
              ) -> dict[str, float]:
    """Per-layer totals of the op whose spans start at ``spans[first]``.

    Gives ``<span>.s`` (duration), ``<span>.self_s`` (duration minus what its
    direct children cover) and the op's counters. ``layers_s`` is the time
    covered by the children of root spans, i.e. by trigkit's layers rather
    than by the CLI handlers around them.
    """
    out: dict[str, float] = dict(counters)
    covered: dict[int, float] = {}
    for span in spans[first:]:
        if span[PARENT] >= 0:
            covered[span[PARENT]] = covered.get(span[PARENT], 0.0) \
                + span[END] - span[START]
    layers_s = 0.0
    for index in range(first, len(spans)):
        span = spans[index]
        name, duration = span[NAME], span[END] - span[START]
        out[name + ".s"] = out.get(name + ".s", 0.0) + duration
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) \
            + duration - covered.get(index, 0.0)
        if span[PARENT] >= 0 and spans[span[PARENT]][PARENT] < 0:
            layers_s += duration
    out["layers_s"] = layers_s
    return out
