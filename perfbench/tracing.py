"""Spans around the package's public functions, recorded from outside it.

A wrapper replaces each traced function under every name a ``cubenodal``
module binds it to, so a call through ``cli``'s own import of
``count_nodal_domains`` is traced as well as one through ``nodal``.  Each
span holds its name, start, end, the index of its parent span and one
attribute taken from the call (a resolution, a count or a size).  Wrappers
are installed only for the timed part of a traced round and removed after.

Leaf helpers called once per group or per mode (``group_parity``,
``eigenspace_parity``, ``faber_krahn_threshold``, ``classify``) are not
wrapped: a wrapper would cost more than the call, and their time stays in
the self time of the span that calls them.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

PACKAGE = "cubenodal"
RESOLUTIONS = (16, 32, 64, 128, 256, 512)
MIB = 1024.0 * 1024.0


def _points(n: int) -> int:
    return (n - 1) ** 3


def _modes(args, result):
    return sum(g.multiplicity for g in result)


def _sampled(args, result):
    return result.n


def _counted(args, result):
    return result


def _rendered(args, result):
    return len(result.encode("utf-8"))


# (module, function, attribute taken from (args, result)); spans are named
# "<module>.<function>".
TARGETS = (
    ("spectrum", "enumerate_groups", _modes),
    ("bounds", "screen_candidates", None),
    ("bounds", "pleijel_cutoff", None),
    ("symmetry", "symmetric_index", None),
    ("symmetry", "symmetry_excludes", None),
    ("quadric", "sine_coeffs_from_modes", None),
    ("quadric", "reduce_to_quadric", None),
    ("quadric", "predict_components", None),
    ("quadric", "boundary_distance", None),
    ("nodal", "sphere_samples", None),
    ("nodal", "sample_field", _sampled),
    ("nodal", "count_components", _counted),
    ("nodal", "count_nodal_domains", _counted),
    ("nodal", "sweep_eigenspace", None),
    ("cli", "main", None),
    ("cli", "build_screen", None),
    ("cli", "build_verdict", None),
    ("cli", "render_screen", _rendered),
    ("cli", "render_verdict", _rendered),
)

PER_LAYER = (
    ("spectrum.enumerate_groups.calls", "count"),
    ("spectrum.enumerate_groups.s", "s"),
    ("spectrum.modes_enumerated", "count"),
    ("bounds.screen_candidates.s", "s"),
    ("symmetry.symmetric_index.calls", "count"),
    ("symmetry.symmetric_index.s", "s"),
    ("symmetry.symmetry_excludes.s", "s"),
    ("quadric.predictions", "count"),
    ("quadric.s", "s"),
    ("nodal.count_nodal_domains.calls", "count"),
    ("nodal.count_nodal_domains.s", "s"),
    ("nodal.sphere_samples.s", "s"),
    ("nodal.sample_field.calls", "count"),
    ("nodal.sample_field.s", "s"),
    ("nodal.sample_field.points", "count"),
    ("nodal.count_components.s", "s"),
    ("nodal.count_components.points", "count"),
    *(
        (f"nodal.n{n}.{step}.s", "s")
        for n in RESOLUTIONS
        for step in ("sample_field", "count_components")
    ),
    ("nodal.grids_per_count", "grids/count"),
    ("nodal.resolution_used.max", "n"),
    ("nodal.field_mib.max", "MiB-computed"),
    ("nodal.non_converged", "count"),
    ("cli.main.self_s", "s"),
    ("cli.build_verdict.self_s", "s"),
    ("cli.build_screen.s", "s"),
    ("cli.build_screen.self_s", "s"),
    ("cli.render.s", "s"),
    ("cli.report_bytes", "B"),
    ("trace.spans", "count"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    """Records spans of the traced functions while ``active()`` is entered."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict[int, tuple] = {}
        for module_name, func_name, attr in TARGETS:
            module = sys.modules[f"{PACKAGE}.{module_name}"]
            original = getattr(module, func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, attr)
            self._wrappers[id(original)] = (original, wrapper)

    def _wrap(self, name, func, attr):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if attr is not None:
                span[4] = attr(args, result)
            return result

        return wrapper

    @contextmanager
    def active(self):
        """Bind every traced function's wrapper under each name that holds it."""
        patches = []
        for name, module in list(sys.modules.items()):
            if name != PACKAGE and not name.startswith(PACKAGE + "."):
                continue
            for attr_name, value in list(vars(module).items()):
                entry = self._wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((module, attr_name, value))
                    setattr(module, attr_name, entry[1])
        try:
            yield self
        finally:
            for module, attr_name, value in reversed(patches):
                setattr(module, attr_name, value)

    def take(self) -> list[list]:
        """Return the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_totals(spans: list[list]) -> dict[str, float]:
    """Per-layer sums over one batch of spans; maxima are kept as maxima."""
    tot: dict[str, float] = defaultdict(float)
    selfs = self_times(spans)
    names = [s[0] for s in spans]
    for i, (name, start, end, parent, attr) in enumerate(spans):
        dur = end - start
        tot[f"{name}.calls"] += 1
        tot[f"{name}.s"] += dur
        tot[f"{name}.self_s"] += selfs[i]
        layer = name.split(".", 1)[0]
        if layer == "quadric" and (parent < 0 or not names[parent].startswith("quadric.")):
            tot["quadric.s"] += dur
        if name == "spectrum.enumerate_groups":
            tot["spectrum.modes_enumerated"] += attr
        elif name == "nodal.sample_field":
            tot["nodal.sample_field.points"] += _points(attr)
            tot[f"nodal.n{attr}.sample_field.s"] += dur
            tot["nodal.field_mib.max"] = max(
                tot["nodal.field_mib.max"], _points(attr) * 8 / MIB
            )
        elif name == "nodal.count_components":
            tot["nodal.count_components.points"] += _points(attr.resolution_used)
            tot[f"nodal.n{attr.resolution_used}.count_components.s"] += dur
        elif name == "nodal.count_nodal_domains":
            tot["nodal.resolution_used.max"] = max(
                tot["nodal.resolution_used.max"], attr.resolution_used
            )
            tot["nodal.non_converged"] += not attr.converged
        elif name.startswith("cli.render_"):
            tot["cli.render.s"] += dur
            tot["cli.report_bytes"] += attr
    tot["quadric.predictions"] = tot["quadric.predict_components.calls"]
    tot["trace.spans"] = len(spans)
    return tot


MAXIMA = ("nodal.field_mib.max", "nodal.resolution_used.max")


def per_layer_metrics(batches: list[dict[str, float]], ops: int, overhead_s: float) -> dict:
    """Per-operation per-layer metrics from the totals of each traced round."""
    merged: dict[str, float] = defaultdict(float)
    for tot in batches:
        for key, value in tot.items():
            if key in MAXIMA:
                merged[key] = max(merged[key], value)
            else:
                merged[key] += value
    counts = merged["nodal.count_nodal_domains.calls"]
    out = {}
    for name, unit in PER_LAYER:
        if name in MAXIMA:
            value = merged[name]
        elif name == "nodal.grids_per_count":
            value = merged["nodal.sample_field.calls"] / counts if counts else 0.0
        elif name == "trace.overhead_s":
            value = overhead_s
        else:
            value = merged[name] / ops
        out[name] = {"value": value, "unit": unit}
    return out
