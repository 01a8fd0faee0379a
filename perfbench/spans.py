"""Spans and counts recorded from outside the program.

A traced pass rebinds the public functions of each layer, in every
``polyspanner`` module whose namespace holds them, to wrappers that open
a span around the call and hand the return value to an observer. The
observers derive the exact counts (edge counts, degrees, rewirings,
charges) from outputs only. Nothing under ``src/`` is changed and the
original functions are restored when the pass ends, so untraced passes
run the program as users do.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter

# Layer name -> (defining module, public function names).
LAYERS = {
    "scene.validate": ("polyspanner.scene", ("validate",)),
    "scene.general_position": ("polyspanner.scene", ("check_general_position",)),
    "io.parse": ("polyspanner.io", ("parse_instance", "parse_edge_list")),
    "io.write": ("polyspanner.io", ("write_instance", "write_edge_list")),
    "visibility.graph": ("polyspanner.visibility", ("visibility_graph",)),
    "spanners.ginf": ("polyspanner.spanners", ("build_g_infinity",)),
    "spanners.g15": ("polyspanner.spanners", ("build_g15",)),
    "spanners.g10": ("polyspanner.spanners", ("build_g10",)),
    "spanners.g7": ("polyspanner.spanners", ("build_g7", "g7_transform")),
    "spanners.charges": ("polyspanner.spanners", ("compute_charges",)),
    "verify.run": ("polyspanner.verify", ("run_verification",)),
    "verify.build_all": ("polyspanner.verify", ("build_all",)),
    "verify.oracle": ("polyspanner.verify", ("oracle_g_infinity",)),
    "verify.planarity": ("polyspanner.verify", ("check_planarity",)),
    "verify.apsp": ("polyspanner.verify", ("distance_matrix",)),
    "verify.stretch": ("polyspanner.verify", ("stretch_factor",)),
    "verify.per_edge": ("polyspanner.verify", ("check_per_edge_bound_ginf",)),
    "verify.canonical_paths": ("polyspanner.verify", ("check_canonical_paths",)),
    "verify.empty_triangles": ("polyspanner.verify", ("check_empty_triangles",)),
}

# Layers whose self time is reported. The cli.* spans are opened by the
# benchmark around each CLI command; verify.run and verify.build_all are
# parents only, their own work is bookkeeping.
TIMED_LAYERS = (
    "scene.validate", "scene.general_position", "io.parse", "io.write",
    "cli.gen", "cli.build", "cli.verify", "visibility.graph", "spanners.ginf", "spanners.g15",
    "spanners.g10", "spanners.g7", "spanners.charges", "verify.oracle",
    "verify.planarity", "verify.apsp", "verify.stretch", "verify.per_edge",
    "verify.canonical_paths", "verify.empty_triangles",
)

COUNTED = ("polyspanner.geom", "segment_properly_intersects_polygon")

_STRETCH = re.compile(r"stretch\(\w+\|\w+<=([0-9.]+)\)")
_RATIO = re.compile(r"max ratio (\S+)")


def _max_degree(graph) -> int:
    degree = Counter()
    for u, v in graph.edges:
        degree[u] += 1
        degree[v] += 1
    return max(degree.values(), default=0)


class Tracer:
    """In-memory spans of one traced pass plus per-scene observations.

    A span is (id, parent id, scene id, layer, start, end). The scene id
    is set by the caller before each operation; a scene id ending in
    ``/control`` marks a deliberately corrupted call whose outputs are
    left out of the counts.
    """

    def __init__(self):
        self.spans = []
        self.stack = []
        self.scene = None
        self.polygon_tests = 0
        self.per_scene = {}  # scene id -> {observation: value}
        self._patched = []

    # --- spans ---------------------------------------------------------

    def span(self, layer, fn, *args, **kwargs):
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        record = [span_id, parent, self.scene, layer, time.perf_counter(), None]
        self.spans.append(record)
        self.stack.append(span_id)
        try:
            return fn(*args, **kwargs)
        finally:
            record[5] = time.perf_counter()
            self.stack.pop()

    def self_times(self) -> dict:
        """Layer -> summed self time: span time minus child span time."""
        child = [0.0] * len(self.spans)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for span_id, _, _, layer, start, end in self.spans:
            out[layer] += (end - start) - child[span_id]
        return dict(out)

    def dump(self, fh, pass_index) -> None:
        """Write the spans as JSON lines tagged with the pass index."""
        keys = ("id", "parent", "scene", "layer", "start", "end")
        for record in self.spans:
            fh.write(json.dumps({"pass": pass_index, **dict(zip(keys, record))}) + "\n")

    # --- rebinding -----------------------------------------------------

    def install(self) -> None:
        """Rebind every traced public name in every loaded package module."""
        targets = {}
        for layer, (module, names) in LAYERS.items():
            for name in names:
                original = getattr(sys.modules[module], name)
                targets[id(original)] = self._wrap(layer, name, original)
        module, name = COUNTED
        original = getattr(sys.modules[module], name)
        targets[id(original)] = self._count(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "polyspanner" or mod_name.startswith("polyspanner.")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, layer, name, fn):
        observe = getattr(self, f"_observe_{name}", None)

        def traced(*args, **kwargs):
            result = self.span(layer, fn, *args, **kwargs)
            if observe is not None and self.scene is not None and not self.scene.endswith("/control"):
                observe(self.per_scene.setdefault(self.scene, {}), result)
            return result

        return traced

    def _count(self, fn):
        def counted(*args):
            self.polygon_tests += 1
            return fn(*args)

        return counted

    # --- observers: exact counts derived from return values ----------------

    @staticmethod
    def _observe_visibility_graph(obs, graph):
        obs["vis_edges"] = graph.m
        obs["vis_pairs"] = graph.n * (graph.n - 1) // 2

    @staticmethod
    def _observe_build_g_infinity(obs, graph):
        obs["ginf_edges"] = graph.m

    @staticmethod
    def _observe_build_g15(obs, graph):
        obs["g15_edges"] = graph.m
        obs["g15_max_degree"] = _max_degree(graph)

    @staticmethod
    def _observe_build_g10(obs, graph):
        obs["g10_edges"] = graph.m
        obs["g10_max_degree"] = _max_degree(graph)

    @staticmethod
    def _observe_g7_transform(obs, result):
        obs["g7_edges"] = result.graph.m
        obs["g7_max_degree"] = _max_degree(result.graph)
        steps = result.transformations
        obs["g7_absorbed"] = sum(t.absorbed for t in steps)
        obs["g7_structural"] = sum(not t.absorbed for t in steps)
        obs["g7_removed_xw"] = sum(t.removed_xw is not None for t in steps)
        obs["g7_uncharged_xw"] = sum(t.uncharged_xw is not None for t in steps)

    @staticmethod
    def _observe_compute_charges(obs, ledger):
        # Counted at return, before g7_transform starts moving charges.
        by = Counter(c.scenario for _, charges in ledger.items() for c in charges)
        for scenario in "ABCD":
            obs[f"charges_{scenario}"] = by[scenario]

    @staticmethod
    def _observe_run_verification(obs, outcomes):
        obs["checks_failed"] = sum(not o.ok for o in outcomes)
        fill = 0.0
        for o in outcomes:
            bound, ratio = _STRETCH.fullmatch(o.name), _RATIO.search(o.detail)
            if bound and ratio:
                fill = max(fill, float(ratio.group(1)) / float(bound.group(1)))
        obs["worst_stretch_fill"] = fill

    def counts(self) -> dict:
        """Sums over scenes, maxima for degrees and stretch fill."""
        total = Counter()
        peak = Counter()
        for obs in self.per_scene.values():
            for key, value in obs.items():
                if key.endswith("max_degree") or key == "worst_stretch_fill":
                    peak[key] = max(peak[key], value)
                else:
                    total[key] += value
        return {**total, **peak}
