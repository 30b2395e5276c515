"""Span tracer that wraps vortexlab's public functions from outside.

Each wrapper replaces a function at the module attribute its caller looks
up, so no package source changes.  A span records its name, start, end and
parent; spans stay in memory until the run ends.  A layer's self time is its
span durations minus the time their child spans cover, so the self times of
one solve sum to the duration of its root span.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import ExitStack, contextmanager

ROOT = "cli.main"

# (module path, attribute, span name): the attribute each caller looks up
TARGETS = (
    ("vortexlab.cli", "resolve_config", "cli.resolve_config"),
    ("vortexlab.cli", "newton_solve", "solver.newton_solve"),
    ("vortexlab.solver", "build_background", "background.build_background"),
    ("vortexlab.solver", "laplacian_values", "discretization.laplacian_values"),
    ("vortexlab.solver", "solve_shifted_poisson", "discretization.solve_shifted_poisson"),
    ("vortexlab.diagnostics", "build_report", "diagnostics.build_report"),
    ("vortexlab.cli", "write_json", "reporting.write_json"),
    ("vortexlab.cli", "write_fld", "reporting.write_fld"),
)

# per-layer self-time metric -> span names whose self time it sums
SELF_TIMES = {
    "cli.self_s": (ROOT,),
    "cli.resolve_s": ("cli.resolve_config",),
    "background.build_s": ("background.build_background",),
    "solver.newton_self_s": ("solver.newton_solve",),
    "discretization.laplacian_s": ("discretization.laplacian_values",),
    "discretization.precond_s": ("discretization.solve_shifted_poisson",),
    "diagnostics.report_s": ("diagnostics.build_report",),
    "reporting.write_s": ("reporting.write_json", "reporting.write_fld"),
}


@contextmanager
def patch_attr(module, attr: str, make_wrapper):
    """Replace ``module.attr`` by ``make_wrapper(original)`` for the block."""
    original = getattr(module, attr)
    setattr(module, attr, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, attr, original)


class Tracer:
    """Spans of one solve: [name, start, end, parent index or None]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
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

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for module_path, attr, name in TARGETS:
                module = importlib.import_module(module_path)
                stack.enter_context(
                    patch_attr(module, attr, functools.partial(self.wrap, name))
                )
            yield


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time summed per span name."""
    out: dict[str, float] = {}
    for name, start, end, _ in spans:
        out[name] = out.get(name, 0.0) + (end - start)
    for name, start, end, parent in spans:
        if parent is not None:
            pname = spans[parent][0]
            out[pname] -= end - start
    return out


def call_counts(spans: list[list]) -> dict[str, int]:
    out: dict[str, int] = {}
    for name, *_ in spans:
        out[name] = out.get(name, 0) + 1
    return out
