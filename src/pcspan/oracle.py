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


def _half_walks(instance, source, target, budget, cap, limit):
    """All source ~> target walks under the packing prune; feasibility is
    checked only after pairing the halves."""
    return _enumerate_walks(
        instance,
        source,
        target,
        budget,
        cap,
        limit,
        prune_length=False,
        require_feasible=False,
    )


def through_root_candidates(
    instance: PcsInstance, demand: Demand, root: int, cap: int = ENUM_CAP
):
    """All budget-respecting s ~> root ~> t walk compositions of at most
    `cap` edges, as (edge_set, edge_sequence) pairs deduplicated by edge
    set."""
    firsts = _half_walks(
        instance, demand.source, root, demand.budget, cap, CATALOG_LIMIT
    )
    seconds = _half_walks(
        instance, root, demand.target, demand.budget, cap, CATALOG_LIMIT
    )
    if len(firsts) * max(1, len(seconds)) > COMBINATION_LIMIT:
        raise ScaleError("half-walk pairing exceeds combination limit")
    out = {}
    for e1, r1 in firsts:
        for e2, r2 in seconds:
            if len(e1) + len(e2) > cap:
                continue
            combined = [a + b for a, b in zip(r1, r2)]
            if not _vector_feasible(instance, combined, demand.budget):
                continue
            key = frozenset(e1) | frozenset(e2)
            if key not in out:
                out[key] = e1 + e2
    minimal = {
        k: v for k, v in out.items() if not any(k2 < k for k2 in out)
    }
    return sorted(minimal.items(), key=lambda kv: sorted(kv[0]))


def brute_force_min_density_junction(instance: PcsInstance, cap: int = ENUM_CAP) -> tuple:
    """Exact minimum junction-tree density over walks of at most `cap`
    edges: (root, density, edge_set, demands).

    Branch and bound over (demand -> candidate walk or skip) assignments; the
    bound uses that cost only grows while the resolved count is capped by the
    demands still unassigned.
    """
    best = None  # (density, -members, root, edges frozenset, members tuple)

    def better(key, cur):
        if cur is None:
            return True
        return (key[0], -len(key[3]), key[1], sorted(key[2])) < (
            cur[0],
            -len(cur[3]),
            cur[1],
            sorted(cur[2]),
        )

    for root in range(instance.n):
        cands = []
        for d in instance.demands:
            choices = through_root_candidates(instance, d, root, cap)
            cands.append([frozenset(k) for k, _ in choices])
        if not any(cands):
            continue
        k = len(cands)
        explored = 0

        def search(idx, union, members):
            nonlocal best, explored
            explored += 1
            if explored > COMBINATION_LIMIT:
                raise ScaleError("junction brute force exceeds combination limit")
            cost = instance.total_cost(union)
            if members:
                density = cost / len(members)
                key = (density, root, frozenset(union), tuple(members))
                if better(key, best):
                    best = key
            if idx == k:
                return
            if best is not None and cost / (len(members) + (k - idx)) > best[0]:
                return
            for choice in cands[idx]:
                search(idx + 1, union | choice, members + [idx])
            search(idx + 1, union, members)

        search(0, frozenset(), [])
    if best is None:
        raise ScaleError("no demand is resolvable through any root")
    density, root, edges, members = best
    return root, density, set(edges), members
