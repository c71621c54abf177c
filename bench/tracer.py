"""Outside-in tracing of pcspan's pipeline layers.

The tracer replaces module attributes of ``pcspan`` with timing wrappers and
puts the originals back on ``restore``.  Each wrapper is installed under the
name its caller looks the function up through (``pcspan.junction`` imports
``build_product_graph`` from ``pcspan.product``, so the wrapper goes on
``pcspan.junction.build_product_graph``).  Nothing inside ``src/pcspan`` is
edited.

Spans are recorded only inside a ``solve`` span that the benchmark opens
around one solver call, so its own verification calls stay untraced.  Spans
are kept in memory; ``layer_metrics`` turns them into self times (duration
minus the time covered by child spans), call counts and the counters the
hooks gather.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from contextlib import contextmanager

import pcspan.density_lp
import pcspan.greedy
import pcspan.junction
import pcspan.lpsolve
import pcspan.rcsp
from pcspan.config import DEFAULT_CONFIG
from pcspan.errors import RoundingFailureError

ROOT_SPAN = "solve"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None]
        self.per_solve = []  # span counts by name, one Counter per solve span
        self.counts = Counter()
        self._open = []  # indices of spans not yet closed
        self._saved = []  # (module, attribute, original)
        self._rounded = None  # the rounded candidate of the root being traced

    # -- installation -----------------------------------------------------

    def install(self):
        for module, attr, span, hook in _POINTS:
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, span, hook))

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, span, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._open:
                return fn(*args, **kwargs)
            idx = tracer._begin(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._end(idx)
                if hook is not None:
                    hook(tracer, args, kwargs, None, exc)
                raise
            tracer._end(idx)
            if hook is not None:
                hook(tracer, args, kwargs, result, None)
            return result

        return traced

    # -- spans --------------------------------------------------------------

    def _begin(self, name) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def _end(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def solve(self):
        """The root span around one solver call."""
        first = len(self.spans)
        idx = self._begin(ROOT_SPAN)
        try:
            yield
        finally:
            self._end(idx)
            self.per_solve.append(Counter(span[0] for span in self.spans[first:]))

    # -- aggregation --------------------------------------------------------

    def self_times(self) -> tuple:
        """(self seconds by span name, calls by span name)."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        seconds = Counter()
        calls = Counter()
        for (name, start, end, _parent), child in zip(self.spans, covered):
            seconds[name] += (end - start) - child
            calls[name] += 1
        return seconds, calls


# -- hooks: counters gathered where the work happens --------------------------


def _on_product(tracer, args, kwargs, pg, exc):
    if pg is None:
        return
    tracer.counts["product.labels"] += len(pg.labels)
    tracer.counts["product.vertices"] += len(pg.vertex_keys)
    tracer.counts["product.edges"] += len(pg.edges)
    # one L and one R copy of every (vertex, label) state
    tracer.counts["product.states"] += 2 * pg.instance.n * len(pg.labels)


def _on_root_reach(tracer, args, kwargs, reached, exc):
    if reached is not None:
        tracer.counts["product.reached"] += len(reached)


def _on_root(tracer, args, kwargs, tree, exc):
    if exc is None and tree is None:
        tracer.counts["junction.roots_skipped"] += 1
    elif tree is not None and tree is tracer._rounded:
        tracer.counts["junction.rounded_wins"] += 1
    tracer._rounded = None


def _on_rounded_assembly(tracer, args, kwargs, tree, exc):
    tracer._rounded = tree


def _on_closure(tracer, args, kwargs, closure, exc):
    if closure is not None:
        tracer.counts["layered.closure_pairs"] += sum(len(d) for d in closure.dist.values())


def _on_paths(tracer, args, kwargs, paths, exc):
    if paths is not None:
        tracer.counts["layered.paths"] += len(paths)


def _on_build_lp(tracer, args, kwargs, cover, exc):
    if cover is not None:
        tracer.counts["density_lp.lp_rows"] += len(cover.lp.eq_rows) + len(cover.lp.ub_rows)
        tracer.counts["density_lp.lp_cols"] += cover.lp.num_vars


def _on_gst_round(tracer, args, kwargs, rounded, exc):
    if rounded is not None:
        tracer.counts["density_lp.rounding_rounds"] += rounded.rounds_used
    elif isinstance(exc, RoundingFailureError):
        # gst_round(cover, values, pruned, bucket, rng, config)
        config = args[5] if len(args) > 5 else kwargs.get("config", DEFAULT_CONFIG)
        tracer.counts["density_lp.rounding_rounds"] += config.rounding_retries
        tracer.counts["density_lp.rounding_failures"] += 1


_j = pcspan.junction
_POINTS = (
    (pcspan.greedy, "min_density_junction_tree", "greedy.round", None),
    (pcspan.greedy, "feasible_witness", "rcsp.witness", None),
    (_j, "junction_tree_for_root", "junction.root", _on_root),
    (_j, "build_product_graph", "product.build", _on_product),
    (_j, "states_reaching_root_left", "product.reach", _on_root_reach),
    (_j, "states_reachable_from_root_right", "product.reach", _on_root_reach),
    (_j, "connectable_relation_pairs", "product.reach", None),
    (_j, "_forward_reachable", "product.reach", None),
    (_j, "_backward_reachable", "product.reach", None),
    (_j, "build_closure", "layered.closure", _on_closure),
    (pcspan.density_lp, "enumerate_root_paths", "layered.paths", _on_paths),
    (_j, "build_lp", "density_lp.build", _on_build_lp),
    (_j, "solve_lp", "density_lp.solve", None),
    (_j, "prune", "density_lp.prune", None),
    (_j, "bucket_and_scale", "density_lp.round", None),
    (_j, "gst_round", "density_lp.round", _on_gst_round),
    (_j, "assemble_junction_tree", "density_lp.assemble", _on_rounded_assembly),
    (_j, "fallback_tree", "density_lp.assemble", None),
    (_j, "union_pair_tree", "density_lp.assemble", None),
    (pcspan.density_lp, "assemble_junction_tree", "density_lp.assemble", None),
    (pcspan.lpsolve, "solve_highs", "lpsolve.highs", None),
    (pcspan.lpsolve, "solve_exact", "lpsolve.exact", None),
    (pcspan.rcsp, "through_root_witness", "rcsp.through_root", None),
    (pcspan.rcsp, "feasible_witness", "rcsp.witness", None),
)

# (metric, unit, better, how it is read from (seconds, calls, counts))
LAYER_METRICS = (
    ("product.build_s", "s", "lower", lambda s, c, n: s["product.build"]),
    ("product.calls", "count", "lower", lambda s, c, n: c["product.build"]),
    ("product.labels", "count", "lower", lambda s, c, n: n["product.labels"]),
    ("product.vertices", "count", "lower", lambda s, c, n: n["product.vertices"]),
    ("product.edges", "count", "lower", lambda s, c, n: n["product.edges"]),
    ("product.reach_s", "s", "lower", lambda s, c, n: s["product.reach"]),
    ("product.reach_frac", "ratio", "higher",
     lambda s, c, n: _share(n["product.reached"], n["product.states"])),
    ("junction.roots", "count", "lower", lambda s, c, n: c["junction.root"]),
    ("junction.roots_skipped", "count", "higher", lambda s, c, n: n["junction.roots_skipped"]),
    ("junction.root_s", "s", "lower", lambda s, c, n: s["junction.root"]),
    ("junction.rounded_win_frac", "ratio", "higher",
     lambda s, c, n: _share(n["junction.rounded_wins"],
                            c["junction.root"] - n["junction.roots_skipped"])),
    ("layered.closure_s", "s", "lower", lambda s, c, n: s["layered.closure"]),
    ("layered.closure_pairs", "count", "lower", lambda s, c, n: n["layered.closure_pairs"]),
    ("layered.paths_s", "s", "lower", lambda s, c, n: s["layered.paths"]),
    ("layered.paths", "count", "lower", lambda s, c, n: n["layered.paths"]),
    ("density_lp.build_s", "s", "lower", lambda s, c, n: s["density_lp.build"]),
    ("density_lp.lp_rows", "count", "lower", lambda s, c, n: n["density_lp.lp_rows"]),
    ("density_lp.lp_cols", "count", "lower", lambda s, c, n: n["density_lp.lp_cols"]),
    ("density_lp.solve_s", "s", "lower", lambda s, c, n: s["density_lp.solve"]),
    ("density_lp.prune_s", "s", "lower", lambda s, c, n: s["density_lp.prune"]),
    ("density_lp.round_s", "s", "lower", lambda s, c, n: s["density_lp.round"]),
    ("density_lp.rounding_rounds", "count", "lower",
     lambda s, c, n: n["density_lp.rounding_rounds"]),
    ("density_lp.rounding_failures", "count", "lower",
     lambda s, c, n: n["density_lp.rounding_failures"]),
    ("density_lp.assemble_s", "s", "lower", lambda s, c, n: s["density_lp.assemble"]),
    ("lpsolve.highs_s", "s", "lower", lambda s, c, n: s["lpsolve.highs"]),
    ("lpsolve.highs_calls", "count", "lower", lambda s, c, n: c["lpsolve.highs"]),
    ("lpsolve.exact_s", "s", "lower", lambda s, c, n: s["lpsolve.exact"]),
    ("lpsolve.exact_calls", "count", "lower", lambda s, c, n: c["lpsolve.exact"]),
    ("rcsp.through_root_s", "s", "lower", lambda s, c, n: s["rcsp.through_root"]),
    ("rcsp.through_root_calls", "count", "lower", lambda s, c, n: c["rcsp.through_root"]),
    ("rcsp.witness_s", "s", "lower", lambda s, c, n: s["rcsp.witness"]),
    ("rcsp.witness_calls", "count", "lower", lambda s, c, n: c["rcsp.witness"]),
    ("greedy.rounds", "count", "lower", lambda s, c, n: c["greedy.round"]),
)


def _share(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric by name, as {"value", "unit"}."""
    seconds, calls = tracer.self_times()
    return {
        name: {"value": read(seconds, calls, tracer.counts), "unit": unit}
        for name, unit, _better, read in LAYER_METRICS
    }
