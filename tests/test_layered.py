from fractions import Fraction
from itertools import combinations

import pytest

from pcspan.errors import ContractError
from pcspan.layered import (
    build_closure,
    build_layered,
    enumerate_root_paths,
    join_halves,
)


def closure_of(n, edges):
    """edges: (tail, head, cost) with edge ref = index."""

    def out(v):
        return [(i, h, Fraction(c)) for i, (t, h, c) in enumerate(edges) if t == v]

    return build_closure(range(n), out)


def path_cost(half, vids) -> Fraction:
    """Total closure cost along a chain oriented in edge direction."""
    total = Fraction(0)
    for u, v in zip(vids, vids[1:]):
        c = half.edge_cost(u, v)
        if c is None:
            raise ContractError("path uses a missing closure edge")
        total += c
    return total


def materialize_edges(half):
    """Explicit (level_from, u, level_to, v, cost) list of a layered half."""
    step = -1 if half.direction == "up" else 1
    levels = range(half.h, 0, -1) if half.direction == "up" else range(0, half.h)
    return [
        (lvl, u, lvl + step, v, cost)
        for lvl in levels
        for u in half.vertices
        for v, cost in sorted(half.closure.dist.get(u, {}).items())
    ]


def test_closure_single_edge():
    cl = closure_of(2, [(0, 1, 5)])
    assert cl.cost(0, 1) == 5
    assert cl.path(0, 1) == [0]


def test_closure_triangle_two_hop():
    cl = closure_of(3, [(0, 1, 1), (1, 2, 1), (0, 2, 5)])
    assert cl.cost(0, 2) == 2
    assert cl.path(0, 2) == [0, 1]


def test_closure_unreachable_absent():
    cl = closure_of(2, [(1, 0, 1)])
    assert cl.cost(0, 1) is None


def test_closure_diagonal_zero():
    cl = closure_of(2, [(0, 1, 1)])
    assert cl.cost(0, 0) == 0 and cl.path(0, 0) == []


def test_layered_h1_star():
    edges = [(1, 0, 3), (2, 0, 4), (2, 1, 1)]
    cl = closure_of(3, edges)
    up = build_layered(cl, [0, 1, 2], 0, 1, "up")
    mat = materialize_edges(up)
    # two-level graph: every pair with a closure entry appears once
    assert (1, 1, 0, 0, Fraction(3)) in mat
    assert (1, 2, 0, 0, Fraction(4)) in mat
    assert all(lvl_from == 1 and lvl_to == 0 for (lvl_from, _u, lvl_to, _v, _c) in mat)


def test_layered_direction_validation():
    cl = closure_of(2, [(0, 1, 1)])
    with pytest.raises(ContractError):
        build_layered(cl, [0, 1], 0, 1, "sideways")
    with pytest.raises(ContractError):
        build_layered(cl, [0, 1], 0, 0, "up")


def test_recovery_never_inflates_cost():
    edges = [(3, 1, 1), (1, 0, 1), (3, 0, 9), (2, 0, 2), (3, 2, 1)]
    cl = closure_of(4, edges)
    up = build_layered(cl, [0, 1, 2, 3], 0, 2, "up")
    for chain in enumerate_root_paths(up, 3, cap=100):
        layered_cost = path_cost(up, chain)
        expanded = []
        for u, v in zip(chain, chain[1:]):
            expanded.extend(up.recover(u, v))
        source_cost = sum(Fraction(edges[i][2]) for i in set(expanded))
        assert source_cost <= layered_cost


def test_path_enumeration_up_and_down():
    edges = [(2, 1, 1), (1, 0, 1), (2, 0, 5)]
    cl = closure_of(3, edges)
    up = build_layered(cl, [0, 1, 2], 0, 2, "up")
    chains = enumerate_root_paths(up, 2, cap=50)
    assert (2, 1, 0) in chains  # via the mid level
    assert (2, 0, 0) in chains or (2, 2, 0) in chains  # diagonal embeddings
    assert min(path_cost(up, c) for c in chains) == 2
    down_edges = [(0, 1, 1), (1, 2, 1), (0, 2, 5)]
    down = build_layered(closure_of(3, down_edges), [0, 1, 2], 0, 2, "down")
    dchains = enumerate_root_paths(down, 2, cap=50)
    assert all(c[0] == 0 and c[-1] == 2 for c in dchains)
    assert min(path_cost(down, c) for c in dchains) == 2


def test_depth_bound_after_join():
    edges = [(1, 0, 1)]
    cl = closure_of(2, edges)
    up = build_layered(cl, [0, 1], 0, 2, "up")
    down = build_layered(closure_of(2, [(0, 1, 1)]), [0, 1], 0, 2, "down")
    joined = join_halves(up, down, {}, {}, {0: []})
    # up path (h) + bridge + down path (h)
    assert 2 * joined.h + 1 == 5


def test_join_preserves_relation_sizes():
    cl = closure_of(2, [(1, 0, 1)])
    up = build_layered(cl, [0, 1], 0, 1, "up")
    down = build_layered(closure_of(2, [(0, 1, 1)]), [0, 1], 0, 1, "down")
    relations = {0: [((0, 0), (1, 0)), ((1, 0), (0, 0))]}
    joined = join_halves(up, down, {}, {}, relations)
    assert {di: len(pairs) for di, pairs in joined.relations.items()} == {0: 2}


def _min_cost_connecting(n, edges, root, terminals):
    """Brute-force single-source optimum: cheapest edge subset with a
    root ~> t path for every terminal."""
    best = None
    ids = range(len(edges))
    for r in range(len(edges) + 1):
        for subset in combinations(ids, r):
            adj = {}
            for i in subset:
                t, h, _ = edges[i]
                adj.setdefault(t, []).append(h)
            seen = {root}
            stack = [root]
            while stack:
                v = stack.pop()
                for h in adj.get(v, ()):
                    if h not in seen:
                        seen.add(h)
                        stack.append(h)
            if all(t in seen for t in terminals):
                cost = sum(Fraction(edges[i][2]) for i in subset)
                if best is None or cost < best:
                    best = cost
        if best is not None:
            # supersets cannot beat a feasible subset with fewer edges at
            # equal cost, but cheaper larger subsets are possible; keep going
            pass
    return best


def _layered_single_source_opt(down, root, terminals, h):
    """Cheapest union of root->terminal chains in the layered graph."""
    per_terminal = []
    for t in terminals:
        chains = enumerate_root_paths(down, t, cap=10000)
        options = []
        for c in chains:
            steps = tuple((u, v) for u, v in zip(c, c[1:]) if u != v)
            options.append(steps)
        per_terminal.append(sorted(set(options)))
    best = None

    def rec(i, used):
        nonlocal best
        if i == len(per_terminal):
            cost = sum((down.edge_cost(u, v) for (u, v) in used), Fraction(0))
            if best is None or cost < best:
                best = cost
            return
        for option in per_terminal[i]:
            rec(i + 1, used | set(option))

    rec(0, frozenset())
    return best


def test_layered_optimum_blowup_bound():
    # layered OPT <= 3 h k^(1/h) * source OPT on brute-forceable cases
    cases = [
        ([(0, 1, 2), (1, 2, 1), (0, 2, 9), (1, 3, 4), (0, 3, 3)], [2, 3]),
        ([(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 10)], [3]),
    ]
    h = 2
    for edges, terminals in cases:
        n = 1 + max(max(t, hh) for t, hh, _ in edges)
        source_opt = _min_cost_connecting(n, edges, 0, terminals)
        down = build_layered(closure_of(n, edges), range(n), 0, h, "down")
        layered_opt = _layered_single_source_opt(down, 0, terminals, h)
        k = len(terminals)
        bound = 3 * h * Fraction(k) ** Fraction(1) * source_opt  # k^(1/h) <= k
        assert layered_opt <= bound
        # and recovery gives back a solution of no greater cost
        assert layered_opt >= source_opt
