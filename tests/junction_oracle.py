"""Brute-force junction-tree oracles: the tests' reference for the minimum
junction-tree density (and `scripts/compare_oracle.py`'s).  No solve path
calls them.  Like `pcspan.oracle`, they refuse (ScaleError) rather than
approximate."""

from __future__ import annotations

from pcspan.errors import ScaleError
from pcspan.model import Demand, PcsInstance
from pcspan.oracle import (
    CATALOG_LIMIT,
    COMBINATION_LIMIT,
    ENUM_CAP,
    _enumerate_walks,
    _vector_feasible,
)


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
    best = None  # (density, root, edges frozenset, members tuple)

    def order(key):
        # the order of density_lp.tree_order
        density, root, edges, members = key
        return (density, -len(members), root, len(edges), sorted(edges))

    def better(key, cur):
        return cur is None or order(key) < order(cur)

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
