"""Height reduction: (h+1)-level layered graphs over a cost metric closure.

Each level holds one copy of the source graph's vertices; edges run only
between consecutive levels and cost exactly the minimum-cost path between
their endpoints (so shallower trees embed via the zero-cost diagonal).  The
recovery map expands a layered edge back to the closure path that realizes
its cost, never inflating total cost.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError


@dataclass
class CostClosure:
    """All-pairs min-cost table with path reconstruction.

    `dist[u][v]` is the exact minimum cost; `paths[u][v]` the realizing edge
    reference sequence (empty for u == v).
    """

    dist: dict
    paths: dict

    def cost(self, u, v):
        return self.dist.get(u, {}).get(v)

    def path(self, u, v):
        entry = self.paths.get(u, {}).get(v)
        if entry is None and self.cost(u, v) is None:
            raise ContractError(f"no closure path from {u} to {v}")
        return list(entry)


def build_closure(vertices, out_edges) -> CostClosure:
    """Dijkstra from every vertex (nonnegative costs required).

    `out_edges(v)` yields (edge_ref, head, cost) triples; heads outside
    `vertices` are ignored.  Deterministic: ties resolved by vertex id order.
    """
    vset = set(vertices)
    dist = {}
    paths = {}
    for src in sorted(vset):
        d = {src: Fraction(0)}
        parent = {}
        heap = [(Fraction(0), src)]
        done = set()
        while heap:
            du, u = heapq.heappop(heap)
            if u in done:
                continue
            done.add(u)
            for ref, head, cost in out_edges(u):
                if head not in vset:
                    continue
                if cost < 0:
                    raise ContractError("closure requires nonnegative costs")
                cand = du + cost
                old = d.get(head)
                if old is None or cand < old:
                    d[head] = cand
                    parent[head] = (u, ref)
                    heapq.heappush(heap, (cand, head))
        dist[src] = d
        p = {src: ()}
        for v in sorted(done):
            if v == src:
                continue
            seq = []
            cur = v
            while cur != src:
                prev, ref = parent[cur]
                seq.append(ref)
                cur = prev
            p[v] = tuple(reversed(seq))
        paths[src] = p
    return CostClosure(dist=dist, paths=paths)


@dataclass
class LayeredGraph:
    """One half of the joined graph; direction 'up' runs terminals (level h)
    toward the root (level 0), 'down' runs root (level 0) to terminals."""

    closure: CostClosure
    vertices: tuple  # source-graph vertex ids, one copy per level
    root: object
    h: int
    direction: str  # "up" | "down"

    def __post_init__(self):
        if self.h < 1:
            raise ContractError("height must be >= 1")
        if self.direction not in ("up", "down"):
            raise ContractError("direction must be 'up' or 'down'")
        if self.root not in set(self.vertices):
            raise ContractError("root missing from layered vertex set")

    def edge_cost(self, u, v):
        """Cost of any (u@level, v@level±1) edge; None when no closure path."""
        return self.closure.cost(u, v)

    def closure_successors(self, vid):
        """Vertices reachable by one closure step (edge direction)."""
        return sorted(v for v, c in self.closure.dist.get(vid, {}).items())

    def recover(self, u, v):
        """Source-graph edge refs realizing a layered edge's cost."""
        return self.closure.path(u, v)


def build_layered(closure: CostClosure, vertices, root, h: int, direction: str) -> LayeredGraph:
    return LayeredGraph(
        closure=closure, vertices=tuple(sorted(set(vertices))), root=root, h=h, direction=direction
    )


@dataclass
class JoinedGraph:
    """T_r: the up half feeding the down half through a zero-cost bridge.

    A demand's relation labels map to the states where its walk starts (at
    level h of the up half) and ends (at level h of the down half).
    """

    up: LayeredGraph
    down: LayeredGraph
    src_attach: dict  # (demand_idx, label) -> up-half state vid
    snk_attach: dict  # (demand_idx, label) -> down-half state vid
    relations: dict  # demand_idx -> list of (I, J) label pairs

    @property
    def h(self) -> int:
        return self.up.h


def join_halves(up: LayeredGraph, down: LayeredGraph, src_attach, snk_attach, relations) -> JoinedGraph:
    if up.direction != "up" or down.direction != "down":
        raise ContractError("join expects an up half and a down half")
    if up.h != down.h:
        raise ContractError("halves must share the height")
    return JoinedGraph(
        up=up,
        down=down,
        src_attach=dict(src_attach),
        snk_attach=dict(snk_attach),
        relations={di: list(pairs) for di, pairs in relations.items()},
    )


def enumerate_root_paths(half: LayeredGraph, state_vid, cap: int):
    """All level-respecting chains of exactly h closure steps linking a
    level-h state with the root copy at level 0 (repeats allowed via the
    zero-cost diagonal).  Sequences follow edge direction: up-half chains run
    state -> root, down-half chains run root -> state.  Raises on cap."""
    if half.direction == "up":
        start, goal = state_vid, half.root
    else:
        start, goal = half.root, state_vid
    if half.closure.cost(start, goal) is None:
        return []
    paths = []

    def extend(prefix, remaining):
        cur = prefix[-1]
        if remaining == 0:
            if cur == goal:
                paths.append(tuple(prefix))
                if len(paths) > cap:
                    raise ContractError(
                        f"path enumeration exceeded cap {cap}; lower h or shrink the instance"
                    )
            return
        for nxt in half.closure_successors(cur):
            if remaining == 1 and nxt != goal:
                continue
            if remaining > 1 and half.closure.cost(nxt, goal) is None:
                continue
            extend(prefix + [nxt], remaining - 1)

    extend([start], half.h)
    return paths

