"""Span tracing from outside the program.

The package binds names with ``from x import y``, so each span is installed
on the module attribute its caller actually looks up, not only on the
defining module. Spans (name, start, end, parent) stay in memory; the
caller writes them out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (module whose attribute is looked up, attribute, span name). One function
# reached through two modules gets the same span name at both.
TARGETS = (
    ("verfair.cli", "main", "cli.main"),
    ("verfair.cli", "load_relevance", "data.load_relevance"),
    ("verfair.cli", "load_groups", "data.load_groups"),
    ("verfair.harness", "run", "harness.run"),
    ("verfair.harness", "sweep", "harness.sweep"),
    ("verfair.harness", "write_sweep", "harness.write_sweep"),
    ("verfair.harness", "make_slates", "harness.make_slates"),
    ("verfair.harness", "write_slates", "harness.write_slates"),
    ("verfair.harness", "evaluate", "metrics.evaluate"),
    ("verfair.harness", "allocate", "allocator.allocate"),
    ("verfair.harness", "allocate_individual",
     "allocator.allocate_individual"),
    ("verfair.harness", "top_k", "baselines.top_k"),
    ("verfair.harness", "fairco", "baselines.fairco"),
    ("verfair.harness", "pr_k", "baselines.pr_k"),
    ("verfair.allocator", "allocate", "allocator.allocate"),
    ("verfair.allocator", "compute_quotas", "quota.compute_quotas"),
    ("verfair.allocator", "find_anchor", "quota.find_anchor"),
    ("verfair.baselines", "compute_quotas", "quota.compute_quotas"),
    ("verfair.metrics", "accumulate", "exposure.accumulate"),
    ("verfair.metrics", "ndcg", "metrics.ndcg"),
    ("verfair.metrics", "jsd_fairness", "metrics.jsd_fairness"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))


class Tracer:
    """Records nested spans of wrapped calls in one thread."""

    def __init__(self):
        self.spans = []   # [name, start, end, parent index or None]
        self._stack = []

    def wrap(self, name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            self.spans.append([name, time.perf_counter(), None, parent])
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.spans[index][2] = time.perf_counter()
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target attribute; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def summarize(spans):
    """name -> (calls, total seconds, self seconds).

    Self time is a span's duration minus its direct children's durations;
    children of one span never overlap because the program is
    single-threaded, so this equals the duration minus the covered part.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent is not None:
            child[parent] += end - start
    out = {}
    for (name, start, end, _), covered in zip(spans, child):
        calls, total, own = out.get(name, (0, 0.0, 0.0))
        out[name] = (calls + 1, total + (end - start),
                     own + (end - start - covered))
    return out
