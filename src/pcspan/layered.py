"""Height reduction over a cost metric closure.

The layered graph of the height reduction has h+1 copies of the source
graph's vertices, with edges only between consecutive levels that cost
exactly the minimum-cost path between their endpoints (so shallower trees
embed via the zero-cost diagonal).  The solver never builds the layers: a
root path through them is a chain of exactly h closure steps, which
`enumerate_root_paths` lists directly over the closure.  `CostClosure.path`
expands a closure step back to the source-graph edges that realize its
cost, never inflating total cost.

The solver's closures run over product edges, whose costs are ints (base
costs times the instance's cost scale), so Dijkstra adds and compares ints.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .errors import ContractError, ResourceLimitError


@dataclass
class CostClosure:
    """All-pairs min-cost table with on-demand path reconstruction.

    `dist[u][v]` is the exact minimum cost, in the units of the edge costs
    it was built from; `parent[u][v]` is the `(previous vertex, edge
    reference)` that reaches v on the cheapest path from u found by u's
    Dijkstra.
    """

    dist: dict
    parent: dict

    def cost(self, u, v):
        row = self.dist.get(u)
        return None if row is None else row.get(v)

    def path(self, u, v):
        """The edge references of the cheapest u -> v path (empty for u == v)."""
        if self.cost(u, v) is None:
            raise ContractError(f"no closure path from {u} to {v}")
        parent = self.parent[u]
        seq = []
        while v != u:
            v, ref = parent[v]
            seq.append(ref)
        seq.reverse()
        return seq


def build_closure(vertices, out_edges, limit: int | None = None) -> CostClosure:
    """Dijkstra from every vertex (nonnegative costs required).

    `out_edges(v)` yields (edge_ref, head, cost) triples; heads outside
    `vertices` are ignored.  The sums start from int 0, so int costs keep
    the whole search in ints.  Deterministic: ties resolved by vertex id
    order.  Raises ResourceLimitError once the table holds more than
    `limit` (source, target) pairs.
    """
    vset = set(vertices)
    # every vertex is some search's source, so each one's arcs are read once
    arcs = {}
    for u in vset:
        arcs[u] = out = []
        for ref, head, cost in out_edges(u):
            if head in vset:
                if cost < 0:
                    raise ContractError("closure requires nonnegative costs")
                out.append((ref, head, cost))
    dist = {}
    parents = {}
    stored = 0
    for src in sorted(vset):
        d = {src: 0}
        parent = {}
        heap = [(0, src)]
        done = set()
        while heap:
            du, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for ref, head, cost in arcs[u]:
                cand = du + cost
                old = d.get(head)
                if old is None or cand < old:
                    d[head] = cand
                    parent[head] = (u, ref)
                    heapq.heappush(heap, (cand, head))
        dist[src] = d
        parents[src] = parent
        stored += len(d)
        if limit is not None and stored > limit:
            raise ResourceLimitError(
                f"cost closure exceeded {limit} stored pairs; shrink the instance"
            )
    return CostClosure(dist=dist, parent=parents)


def enumerate_root_paths(closure: CostClosure, start, goal, h: int, cap: int):
    """All chains of exactly h closure steps from `start` to `goal`, i.e. the
    level-respecting paths of the layered graph (repeats allowed via the
    zero-cost diagonal).  Up-half chains run state -> root, down-half chains
    root -> state.  Raises ResourceLimitError past the cap."""
    if closure.cost(start, goal) is None:
        return []
    if h == 0:
        return [(start,)] if start == goal else []
    # every closure vertex is a source, so each one's row exists
    dist = closure.dist
    paths = []

    def extend(prefix, remaining):
        if remaining == 1:
            # every prefix here reaches goal, and goal is the only last step
            paths.append((*prefix, goal))
            if len(paths) > cap:
                raise ResourceLimitError(
                    f"path enumeration exceeded cap {cap}; lower h or shrink the instance"
                )
            return
        for nxt in sorted(v for v in dist[prefix[-1]] if goal in dist[v]):
            extend(prefix + [nxt], remaining - 1)

    extend([start], h)
    return paths
