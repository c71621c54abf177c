from fractions import Fraction
from itertools import product

import pytest

from pcspan.config import SolverConfig
from pcspan.errors import ContractError, ResourceLimitError
from pcspan.generate import gen_pcs, gen_rcs
from pcspan.junction import build_label_cover, greedy_round
from pcspan.model import Walk, is_feasible, walk_resource
from pcspan.product import (
    ProductEdge,
    ProductGraph,
    build_product_graph,
    connectable_relation_pairs,
    layer_bounds,
    relation_holds,
    states_reachable_from_root_right,
    states_reaching_root_left,
    step_label,
)
from pcspan.rcsp import config_count
from pcspan.reductions import rcs_to_pcs
from pcspan.scaling import ScaledInstance, scale_instance

from conftest import equivalence_check, make_instance


def test_layer_bounds_integer_regime(tri_instance):
    b = layer_bounds(tri_instance)
    assert b.lower == (0, 0)
    assert b.upper == (2, 1)  # Bdgt_max[0] = 2, packing tau = 1
    assert b.delta == 1


def test_config_count_example():
    # m = 1 packing with tau = 2 -> 3 configurations
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 2))],
        tau=2,
        packing=1,
        covering=0,
    )
    assert config_count(inst) == 3


def test_edge_label_offsets(tri_instance):
    pg = build_product_graph(tri_instance)
    inst = tri_instance
    for pe in pg.edges:
        side, u, i_lab = pg.vertex_keys[pe.tail]
        _s, v, j_lab = pg.vertex_keys[pe.head]
        res = inst.edges[pe.base_edge].res
        if side == "R":
            src, dst = i_lab, j_lab
        else:
            src, dst = j_lab, i_lab
        assert dst[0] - src[0] == res[0]
        for i in range(1, inst.dim):
            expected = src[i] + res[i]
            if i > inst.packing:  # covering coordinates clamp at -tau
                expected = max(-inst.tau, expected)
            assert dst[i] == expected


def test_covering_clamp_keeps_floor_entry_fixed():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 0, (1, -1)), (1, 0, 0, (1, 0))],
        demands=[(0, 1, (6, -1))],
        tau=1,
        packing=0,
        covering=1,
    )
    bounds = layer_bounds(inst)
    at_floor = (0, -1)
    stepped = step_label(inst, bounds, at_floor, 0, 1)
    assert stepped is not None and stepped[1] == -1  # entry stays at the clamp


def _analytic_state_edge_count(instance):
    """Reference count: per base edge and side, the number of valid labels
    the clamped transition accepts (duplicates not collapsed)."""
    bounds = layer_bounds(instance)
    labels = list(product(*(range(lo, hi + 1) for lo, hi in zip(bounds.lower, bounds.upper))))
    return 2 * sum(
        step_label(instance, bounds, lab, eid, int(e.res[0])) is not None
        for eid, e in enumerate(instance.edges)
        for lab in labels
    )


def test_analytic_edge_count_matches(tri_instance):
    full = _full_product_graph(tri_instance)
    assert len(full.edges) == _analytic_state_edge_count(tri_instance)
    _keys, edges, _adj = _restricted_view(full)
    assert len(build_product_graph(tri_instance).edges) == len(edges)


def _full_product_graph(problem) -> ProductGraph:
    """Reference build: every valid label at every vertex, every edge stepped
    from every label (the graph before restriction to reached states)."""
    scaled = isinstance(problem, ScaledInstance)
    instance = problem.base if scaled else problem
    bounds = layer_bounds(problem)
    labels = list(product(*(range(lo, hi + 1) for lo, hi in zip(bounds.lower, bounds.upper))))
    vertex_keys = tuple(
        (side, v, lab) for side in ("L", "R") for v in range(instance.n) for lab in labels
    )
    vertex_ids = {key: vid for vid, key in enumerate(vertex_keys)}
    arcs = []
    for eid, e in enumerate(instance.edges):
        units = problem.units[eid] if scaled else int(e.res[0])
        for lab in labels:
            nxt = step_label(instance, bounds, lab, eid, units)
            if nxt is None:
                continue
            pairs = (
                (("R", e.tail, lab), ("R", e.head, nxt)),
                (("L", e.tail, nxt), ("L", e.head, lab)),
            )
            for tail_key, head_key in pairs:
                arcs.append((vertex_ids[tail_key], vertex_ids[head_key], eid))
    edges = tuple(ProductEdge(*arc) for arc in sorted(arcs))
    out_adj = [[] for _ in vertex_keys]
    in_adj = [[] for _ in vertex_keys]
    for idx, pe in enumerate(edges):
        out_adj[pe.tail].append(idx)
        in_adj[pe.head].append(idx)
    return ProductGraph(
        problem=problem,
        bounds=bounds,
        labels=tuple(labels),
        vertex_ids=vertex_ids,
        vertex_keys=vertex_keys,
        edges=edges,
        out_adj=tuple(tuple(a) for a in out_adj),
        in_adj=tuple(tuple(a) for a in in_adj),
    )


def _root_sets(pg, root):
    return states_reaching_root_left(pg, root), states_reachable_from_root_right(pg, root)


def _relation_pairs(pg, root):
    """`connectable_relation_pairs` at ``root`` with every demand open."""
    return connectable_relation_pairs(pg, range(len(pg.instance.demands)), *_root_sets(pg, root))


def _restricted_view(pg, keep=None):
    """(vertex keys, edges, adjacency) of ``pg`` restricted to ``keep`` (by
    default every state on some root's L or R side), all in key terms."""
    if keep is None:
        keep = set()
        for root in range(pg.instance.n):
            left, right = _root_sets(pg, root)
            keep |= left | right

    def edge(idx):
        pe = pg.edges[idx]
        return (pg.vertex_keys[pe.tail], pg.vertex_keys[pe.head], pe.base_edge)

    def inside(idx):
        return pg.edges[idx].tail in keep and pg.edges[idx].head in keep

    keys = [key for vid, key in enumerate(pg.vertex_keys) if vid in keep]
    edges = [edge(idx) for idx in range(len(pg.edges)) if inside(idx)]
    adj = {
        pg.vertex_keys[vid]: (
            [edge(idx) for idx in pg.out_adj[vid] if inside(idx)],
            [edge(idx) for idx in pg.in_adj[vid] if inside(idx)],
        )
        for vid in sorted(keep)
    }
    return keys, edges, adj


def _reference_problems(tri_instance):
    yield tri_instance
    # parallel duplicates, each kept as an arc of its own
    yield make_instance(
        n=3,
        edges=[(0, 1, c, (1, 0)) for c in (7, 2, 5, 2)] + [(1, 2, 1, (1, 1))],
        demands=[(0, 2, (3, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    for seed in (3, 8, 21):
        yield gen_pcs(n=5, k=2, m=2, tau=1, regime="integer", seed=seed)
    scaled = scale_instance(
        gen_pcs(n=4, k=1, m=1, tau=1, regime="rational-negative", seed=205), Fraction(1, 2)
    )
    assert min(scaled.units) < 0
    yield scaled
    rcs = gen_rcs(n=5, k=2, must_visit=1, avoid=1, seed=3003, max_group_size=3)
    yield rcs_to_pcs(rcs)[0]


def test_build_is_the_full_graph_restricted_to_root_reachable_states(tri_instance):
    for problem in _reference_problems(tri_instance):
        full = _full_product_graph(problem)
        pg = build_product_graph(problem)
        keys, edges, adj = _restricted_view(full)
        assert list(pg.vertex_keys) == keys
        assert _restricted_view(pg, set(range(len(pg.vertex_keys)))) == (keys, edges, adj)
        assert pg.labels == full.labels
        assert len(pg.vertex_keys) < len(full.vertex_keys)
        for root in range(pg.instance.n):
            assert _relation_pairs(pg, root) == _relation_pairs(full, root)


def test_memory_guard():
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0)), (1, 2, 0, (1, 0))],
        demands=[(0, 2, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    with pytest.raises(ResourceLimitError):
        build_product_graph(inst, SolverConfig(max_product_vertices=5))


def test_memory_guard_counts_states_only(tri_instance):
    # 2 sides * 3 vertices * 6 labels (length 0..2, packing 0..1)
    states = 2 * tri_instance.n * layer_bounds(tri_instance).label_count()
    assert states == 36
    pg = build_product_graph(tri_instance, SolverConfig(max_product_vertices=states))
    assert len(pg.vertex_keys) <= states
    with pytest.raises(ResourceLimitError):
        build_product_graph(tri_instance, SolverConfig(max_product_vertices=states - 1))


def test_projection_resource_dominated_by_labels(tri_instance):
    # follow a source-root-target path by hand and check RES <= I + J
    root = 1
    pg = build_product_graph(tri_instance)
    (i_lab, j_lab) = _relation_pairs(pg, root)[0][0]
    d = tri_instance.demands[0]
    # product path: (s,I,L) -> (r,0,L), then (r,0,R) -> (t,J,R)
    up = _find_product_path(
        pg, pg.vertex_ids[("L", d.source, i_lab)], pg.root_copy("L", root)
    )
    down = _find_product_path(
        pg, pg.root_copy("R", root), pg.vertex_ids[("R", d.target, j_lab)]
    )
    walk = Walk(tuple(pg.edges[idx].base_edge for idx in up + down))
    res = walk_resource(walk, tri_instance)
    combined = tuple(a + b for a, b in zip(i_lab, j_lab))
    assert res[0] <= combined[0]
    assert all(res[i] <= combined[i] for i in range(1, tri_instance.dim))
    assert is_feasible(walk, tri_instance.demands[0], tri_instance)


def _find_product_path(pg, start, goal):
    prev = {start: None}
    stack = [start]
    while stack:
        v = stack.pop()
        if v == goal:
            break
        for idx in pg.out_adj[v]:
            h = pg.edges[idx].head
            if h not in prev:
                prev[h] = (v, idx)
                stack.append(h)
    assert goal in prev
    path = []
    cur = goal
    while prev[cur] is not None:
        v, idx = prev[cur]
        path.append(idx)
        cur = v
    return list(reversed(path))


def test_root_on_every_walk_both_sides_true(tri_instance):
    rep = equivalence_check(tri_instance, 1)
    assert rep["mismatches"] == 0
    assert rep["demands"][0]["product"] and rep["demands"][0]["oracle"]


def test_root_unreachable_both_sides_false():
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    rep = equivalence_check(inst, 2)
    assert rep["mismatches"] == 0
    assert not rep["demands"][0]["product"] and not rep["demands"][0]["oracle"]


def test_equivalence_random_instances_all_roots():
    for seed in range(10):
        inst = gen_pcs(n=5, k=2, m=2, tau=1, regime="integer", seed=seed + 7)
        for root in range(inst.n):
            rep = equivalence_check(inst, root)
            assert rep["mismatches"] == 0, (seed, root, rep)


def test_equivalence_scaled_regime():
    for seed in range(4):
        inst = gen_pcs(n=4, k=1, m=1, tau=1, regime="rational-negative", seed=seed + 200)
        scaled = scale_instance(inst, Fraction(1, 2))
        for root in range(inst.n):
            rep = equivalence_check(scaled, root)
            assert rep["mismatches"] == 0, (seed, root, rep)


def test_root_revisit_tracked_by_root_labels():
    # the junction walk must loop r -> x -> r before heading to t
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 0, (1, 0)),
            (1, 2, 0, (1, -1)),
            (2, 1, 0, (1, 0)),
            (1, 3, 0, (1, 0)),
        ],
        demands=[(0, 3, (6, -1))],
        tau=1,
        packing=0,
        covering=1,
    )
    rep = equivalence_check(inst, 1)
    assert rep["mismatches"] == 0
    assert rep["demands"][0]["product"]


def test_degenerate_roots_source_and_target(tri_instance):
    for root in (0, 2):  # root equals the demand source / target
        rep = equivalence_check(tri_instance, root)
        assert rep["mismatches"] == 0
        assert rep["demands"][0]["product"]


def _dump_edges(pg) -> str:
    """Debug dump: one state edge per line (side, u, I, v, J, base edge)."""
    lines = []
    for pe in pg.edges:
        side, u, i_lab = pg.vertex_keys[pe.tail]
        _side, v, j_lab = pg.vertex_keys[pe.head]
        lines.append(f"{side} {u} {list(i_lab)} {v} {list(j_lab)} {pe.base_edge}")
    return "\n".join(sorted(lines)) + "\n"


def test_dump_edges_format(tri_instance):
    pg = build_product_graph(tri_instance)
    text = _dump_edges(pg)
    line = text.splitlines()[0].split()
    assert line[0] in ("L", "R")
    assert len([l for l in text.splitlines() if l]) == len(pg.edges)


def test_parallel_arcs_are_kept_and_the_closure_takes_the_cheaper():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 7, (1, 0)), (0, 1, 2, (1, 0))],  # same resource vector
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    pg = build_product_graph(inst)
    parallel = {}
    for pe in pg.edges:
        parallel.setdefault((pe.tail, pe.head), []).append(pe.base_edge)
    assert parallel and all(eids == [0, 1] for eids in parallel.values())
    target = pg.vertex_ids[("R", 1, (1, 0))]
    # (free edges, base edge the closure takes, its price): the cheaper
    # under the round's prices, the smaller id when both cost the same
    for free, taken, price in ((set(), 1, 2), ({0}, 0, 0), ({1}, 1, 0), ({0, 1}, 0, 0)):
        bundle = build_label_cover(pg, greedy_round(pg, free), 0)
        path = bundle.closure.path(bundle.root_right, target)
        assert [pg.edges[idx].base_edge for idx in path] == [taken]
        assert bundle.closure.cost(bundle.root_right, target) == price


def test_relation_box_semantics():
    budget = (5, 1, -1)
    assert relation_holds(budget, (2, 1, -1), (3, 0, 0))
    assert not relation_holds(budget, (3, 1, 0), (3, 0, -1))
    assert not relation_holds(budget, (2, 1, 0), (2, 1, -1))


def test_root_copy_checks_root_range(tri_instance):
    pg = build_product_graph(tri_instance)
    assert pg.vertex_keys[pg.root_copy("L", 0)] == ("L", 0, (0, 0))
    assert pg.vertex_keys[pg.root_copy("R", 2)] == ("R", 2, (0, 0))
    for root in (-1, tri_instance.n):
        for side in ("L", "R"):
            with pytest.raises(ContractError):
                pg.root_copy(side, root)
        with pytest.raises(ContractError):
            states_reaching_root_left(pg, root)
        with pytest.raises(ContractError):
            equivalence_check(tri_instance, root)
