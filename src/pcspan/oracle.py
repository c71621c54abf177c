"""Brute-force ground truth for desk-scale acceptance checks.

These oracles refuse (ScaleError) rather than approximate: they are the
reference that everything else is measured against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ScaleError
from .model import Demand, PcsInstance, ResourceVector, Walk

# walks one catalog may hold, and (demand -> walk) combinations one search may try
CATALOG_LIMIT = 10**5
COMBINATION_LIMIT = 10**6
# edges per enumerated walk: the default cap, and the largest one accepted
ENUM_CAP = 12


@dataclass(frozen=True)
class WalkCatalog:
    """All feasible walks for one demand up to the edge-count cap."""

    demand: Demand
    cap: int
    walks: tuple  # Walks, deduplicated by edge multiset, deterministic order


def _enumerate_walks(
    instance: PcsInstance,
    source: int,
    target: int,
    budget: ResourceVector,
    cap: int,
    limit: int,
    prune_length: bool,
    require_feasible: bool = True,
):
    """DFS over edge sequences with monotonicity pruning.

    Packing coordinates only grow, so any prefix exceeding a packing budget is
    dead.  The same holds for the length when no edge has negative length.
    With require_feasible=False every target-reaching walk is emitted (used
    for half walks, which only meet covering budgets jointly).
    """
    out = []
    zero = [Fraction(0)] + [0] * instance.m
    stack = [(source, tuple(), tuple(zero))]
    while stack:
        v, edges, res = stack.pop()
        if v == target and (
            not require_feasible or _vector_feasible(instance, res, budget)
        ):
            out.append((edges, res))
            if len(out) > limit:
                raise ScaleError(f"walk catalog exceeds {limit} entries")
        if len(edges) >= cap:
            continue
        # reversed id order so the stack pops smaller ids first
        for eid in sorted(instance.out_edges(v), reverse=True):
            e = instance.edges[eid]
            nres = list(res)
            for i in range(instance.dim):
                nres[i] += e.res[i]
            dead = False
            for i in instance.packing_indices():
                if nres[i] > budget[i]:
                    dead = True
                    break
            if not dead and prune_length and nres[0] > budget[0]:
                dead = True
            if dead:
                continue
            stack.append((e.head, edges + (eid,), tuple(nres)))
    return out


def _vector_feasible(instance: PcsInstance, res, budget: ResourceVector) -> bool:
    return all(res[i] <= budget[i] for i in range(instance.dim))


def enumerate_feasible_walks(
    instance: PcsInstance, demand: Demand, cap: int = ENUM_CAP
) -> WalkCatalog:
    """Complete catalog of feasible walks with at most `cap` edges."""
    if cap > ENUM_CAP:
        raise ScaleError(f"cap {cap} exceeds the enumeration limit {ENUM_CAP}")
    prune_length = all(e.res[0] >= 0 for e in instance.edges)
    raw = _enumerate_walks(
        instance,
        demand.source,
        demand.target,
        demand.budget,
        cap,
        CATALOG_LIMIT,
        prune_length,
    )
    if demand.source != demand.target:
        raw = [(edges, res) for edges, res in raw if edges]
    seen = set()
    walks = []
    for edges, _res in sorted(raw, key=lambda t: (len(t[0]), t[0])):
        key = tuple(sorted(edges))
        if key in seen:
            continue
        seen.add(key)
        walks.append(Walk(edges))
    return WalkCatalog(demand=demand, cap=cap, walks=tuple(walks))


def _edge_set_choices(catalog: WalkCatalog):
    """Distinct candidate edge sets, keeping only inclusion-minimal ones."""
    sets = sorted({frozenset(w.edges) for w in catalog.walks}, key=sorted)
    minimal = [s for s in sets if not any(t < s for t in sets)]
    return minimal


def brute_force_opt(instance: PcsInstance, cap: int = ENUM_CAP) -> tuple:
    """Exact minimum cost of a subgraph satisfying every demand, over walks
    of at most `cap` edges."""
    catalogs = [enumerate_feasible_walks(instance, d, cap) for d in instance.demands]
    choice_sets = [_edge_set_choices(c) for c in catalogs]
    total = 1
    for cs in choice_sets:
        if not cs:
            raise ScaleError("a demand has no feasible walk within the enumeration cap")
        total *= len(cs)
        if total > COMBINATION_LIMIT:
            raise ScaleError(f"catalog product exceeds {COMBINATION_LIMIT}")
    best_cost = None
    best_edges = None
    order = sorted(range(len(choice_sets)), key=lambda i: len(choice_sets[i]))

    def search(idx, union):
        nonlocal best_cost, best_edges
        cost = instance.total_cost(union)
        if best_cost is not None and cost >= best_cost and idx < len(order):
            # cost only grows; still must recurse because it may stay equal
            if cost > best_cost:
                return
        if idx == len(order):
            if best_cost is None or cost < best_cost or (
                cost == best_cost and sorted(union) < sorted(best_edges)
            ):
                best_cost = cost
                best_edges = frozenset(union)
            return
        for choice in choice_sets[order[idx]]:
            search(idx + 1, union | choice)

    search(0, frozenset())
    return best_cost, set(best_edges)
