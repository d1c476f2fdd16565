"""In-memory span tracer over the public entry points of ``unimet``.

The tracer lives in the benchmark, not in the program: ``Tracer.installed``
wraps the entry points listed in ``ENTRY_POINTS`` and rebinds every
``unimet`` module attribute that refers to one of them (``unimet.cli``
imports by name, so its namespace is rebound too), then restores the
originals.  Only layer entry points are wrapped, never per-element helpers
such as ``jsonable`` or ``scalar_to_json``.

A span records its layer (the module), the function, its start, duration
and self time, the span that called it and the operation it belongs to.
Self time is a span's duration minus the durations of the wrapped calls
nested directly inside it, so the self times of one call tree add up to
its root's duration.  Counter hooks run outside every span's self time.
"""
from __future__ import annotations

import json
import os
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from typing import Optional

# Layer (module of ``unimet``) -> public entry points worth a span.
ENTRY_POINTS = {
    "spaces": ("check_metric_axioms", "ensure_metric", "ensure_diameter_at_most",
               "ensure_total_map"),
    "quotients": ("quotient_by_discrete_family", "amalgamated_union", "glue_parts",
                  "chain_metric", "block_distance", "quotient_order_modulus"),
    "gluing": ("adjunction_space", "extend_metric"),
    "cylinders": ("mapping_cylinder_metric", "cylinder_adjunction_check",
                  "adjusted_metric", "sub_cylinder", "uniform_modulus"),
    "combinators": ("product_metric", "disjoint_union_metric", "weighted_sup_metric",
                    "hausdorff_hyperspace", "kuratowski_embed", "mcshane_extend"),
    "cones": ("cone_metric", "cone_quotient_check", "join_metric",
              "join_amalgam_equality", "interval_space"),
    "invlim": ("inverse_sequence", "threads", "thread_space", "mittag_leffler_report",
               "convergence_report", "cauchy_report", "level_shadow_reached",
               "level_anchor_verdict", "separation_index", "telescope_metric",
               "ladder", "perturbation_limit"),
    "covers": ("validate_fundamental_sequence", "au_metrize", "ball_cover",
               "ball_fundamental_sequence", "lebesgue_number",
               "ball_containment_number", "point_finite_refinement"),
    "embedding": ("aharoni_embed", "sufficient_depth"),
    "moduli": ("continuity_modulus", "separation_modulus", "check_uniform_continuity"),
    "jsonio": ("load_document", "space_from_json", "space_to_json",
               "truncation_from_json", "ladder_from_json",
               "fundamental_sequence_from_json", "mapping_from_json",
               "subset_from_json"),
    "reporting": ("canonical_bytes", "digest_inputs"),
    "cli": ("main",),
}


@dataclass(frozen=True)
class Span:
    op: Optional[str]
    layer: str
    name: str
    start: float
    duration: float
    self_time: float
    parent: Optional[int]


def _first_arg(args, kwargs, key):
    return args[0] if args else kwargs[key]


def _scan_hook(tracer, args, kwargs, result):
    dist = _first_arg(args, kwargs, "space").dist
    tracer.counters["spaces.triangle_triples"] += len(dist) ** 3
    if dist in tracer.scanned:
        tracer.counters["spaces.rescans"] += 1
    else:
        tracer.scanned.add(dist)


def _telescope_hook(tracer, args, kwargs, result):
    tracer.counters["invlim.telescope_stages"] += result.stop - result.start


def _load_hook(tracer, args, kwargs, result):
    tracer.counters["jsonio.bytes_in"] += os.path.getsize(_first_arg(args, kwargs, "path"))


def _render_hook(tracer, args, kwargs, result):
    tracer.counters["reporting.bytes_out"] += len(result)


HOOKS = {
    "spaces.check_metric_axioms": _scan_hook,
    "invlim.telescope_metric": _telescope_hook,
    "jsonio.load_document": _load_hook,
    "reporting.canonical_bytes": _render_hook,
}


class Tracer:
    """Collects spans, self times, call counts and counters in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.self_s: defaultdict = defaultdict(float)
        self.inclusive_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        self.scanned: set = set()
        self.op: Optional[str] = None
        self._stack: list = []  # [span index, child duration] per open call
        self._active: Counter = Counter()

    def begin_op(self, name: str) -> None:
        """Start a new operation: later spans carry its name."""
        self.op = name
        self.scanned = set()

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        hook = HOOKS.get(key)

        def traced(*args, **kwargs):
            return self._call(key, layer, name, fn, hook, args, kwargs)

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    def _call(self, key, layer, name, fn, hook, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append(None)
        frame = [index, 0.0]
        self._stack.append(frame)
        self._active[key] += 1
        start = self.clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            duration = self.clock() - start
            self._stack.pop()
            self._active[key] -= 1
            own = duration - frame[1]
            if parent is not None:
                parent[1] += duration
            if not self._active[key]:
                self.inclusive_s[key] += duration
            self.self_s[layer] += own
            self.calls[key] += 1
            self.spans[index] = Span(self.op, layer, name, start, duration, own,
                                     None if parent is None else parent[0])
        if hook is not None:
            hook_start = self.clock()
            hook(self, args, kwargs, result)
            if parent is not None:
                # Keep counting work out of the caller's self time.
                parent[1] += self.clock() - hook_start
        return result

    @contextmanager
    def installed(self, entry_points=ENTRY_POINTS):
        """Rebind the entry points in every loaded ``unimet`` module."""
        wrappers = {}
        for layer, names in entry_points.items():
            module = sys.modules.get(f"unimet.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                # An entry point a later commit removed is simply not traced.
                if callable(fn):
                    wrappers[id(fn)] = (fn, self.wrap(layer, name, fn))
        patched = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "unimet" and not mod_name.startswith("unimet."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    patched.append((module, attr, value))
        try:
            yield self
        finally:
            for module, attr, value in patched:
                setattr(module, attr, value)

    def layer_metrics(self) -> dict:
        """The per-layer figures the benchmark reports, from this tracer."""

        def calls_in(layer):
            return sum(c for k, c in self.calls.items() if k.startswith(layer + "."))

        c, inc = self.counters, self.inclusive_s
        return {
            "spaces.self_s": self.self_s["spaces"],
            "spaces.axiom_scans": self.calls["spaces.check_metric_axioms"],
            "spaces.rescans": c["spaces.rescans"],
            "spaces.triangle_triples": c["spaces.triangle_triples"],
            "quotients.self_s": self.self_s["quotients"],
            "quotients.calls": calls_in("quotients"),
            "gluing.self_s": self.self_s["gluing"],
            "gluing.adjunctions": self.calls["gluing.adjunction_space"],
            "cylinders.self_s": self.self_s["cylinders"],
            "cylinders.builds": self.calls["cylinders.mapping_cylinder_metric"],
            "cylinders.oracle_s": inc["cylinders.cylinder_adjunction_check"],
            "combinators.self_s": self.self_s["combinators"],
            "cones.self_s": self.self_s["cones"],
            "invlim.self_s": self.self_s["invlim"],
            "invlim.telescope_stages": c["invlim.telescope_stages"],
            "covers.self_s": self.self_s["covers"],
            "covers.au_metrize_s": inc["covers.au_metrize"],
            "embedding.self_s": self.self_s["embedding"],
            "moduli.self_s": self.self_s["moduli"],
            "jsonio.self_s": self.self_s["jsonio"],
            "jsonio.bytes_in": c["jsonio.bytes_in"],
            "reporting.self_s": self.self_s["reporting"],
            "reporting.bytes_out": c["reporting.bytes_out"],
            "cli.self_s": self.self_s["cli"],
        }

    def write_spans(self, path: str) -> None:
        """Write the spans kept in memory as JSON lines."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
