import dataclasses
import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest

import pcspan.density_lp
import pcspan.junction
import pcspan.lpsolve
from pcspan.config import SolverConfig
from pcspan.density_lp import (
    RoundedSelection,
    assemble_junction_tree,
    build_lp,
    tree_order,
    union_pair_tree,
)
from pcspan.errors import (
    ContractError,
    EssentialityViolationError,
    InfeasibleDemandError,
    InternalInvariantError,
)
from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs
from pcspan.junction import (
    greedy_round,
    junction_tree_for_root,
    min_density_junction_tree,
    product_graph_for,
)
from pcspan.model import Walk, is_feasible
from pcspan.layered import build_closure
from pcspan.product import (
    build_product_graph,
    connectable_relation_pairs,
    reachable,
    states_reachable_from_root_right,
    states_reaching_root_left,
)
from pcspan.rcsp import through_root_witness
from pcspan.reductions import essential_set_mode, is_routing_feasible, rcs_to_pcs

from conftest import label_cover, make_instance
from junction_oracle import brute_force_min_density_junction


def test_direct_edge_density_at_most_cost():
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    tree = min_density_junction_tree(product_graph_for(inst))
    assert tree.density <= 1


def test_star_hub_resolves_all_demands():
    # hub vertex 0 lies on every feasible walk: one tree covers all demands
    k = 3
    edges = []
    demands = []
    for i in range(k):
        s = 1 + 2 * i
        t = 2 + 2 * i
        edges.append((s, 0, 1, (1, 0)))
        edges.append((0, t, 1, (1, 0)))
        demands.append((s, t, (2, 1)))
    inst = make_instance(n=1 + 2 * k, edges=edges, demands=demands, tau=1, packing=1, covering=0)
    tree = min_density_junction_tree(product_graph_for(inst))
    assert tree.root == 0
    assert len(tree.resolved) == k
    assert tree.density == Fraction(2 * k, k)


def test_every_resolved_demand_verifies_through_root(tri_instance):
    tree = min_density_junction_tree(product_graph_for(tri_instance))
    for di, witness in tree.resolved.items():
        assert is_feasible(witness, tri_instance.demands[di], tri_instance)
        assert set(witness.edges) <= set(tree.edges)
        w = through_root_witness(
            tri_instance, tri_instance.demands[di], tree.root, edge_subset=tree.edges
        )
        assert w is not None


@pytest.mark.parametrize(
    "mode, instances",
    [
        ("integer", [gen_pcs(n=5, k=2, m=2, tau=1, seed=seed) for seed in range(5000, 5006)]),
        ("integer", [gen_pcs(n=6, k=3, m=1, tau=1, seed=seed) for seed in range(100, 104)]),
        (
            "theta",
            [
                gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=seed)
                for seed in range(6000, 6006)
            ],
        ),
    ],
    ids=["integer-m2", "integer-k3", "theta"],
)
def test_assembled_walks_run_through_the_root_inside_the_tree(mode, instances):
    theta = None if mode == "integer" else SolverConfig().theta
    for inst in instances:
        tree = min_density_junction_tree(product_graph_for(inst, mode))
        for di, walk in tree.resolved.items():
            d = inst.demands[di]
            edges = [inst.edges[eid] for eid in walk.edges]
            assert (edges[0].tail, edges[-1].head) == (d.source, d.target)
            assert tree.root in {edges[0].tail} | {e.head for e in edges}
            assert is_feasible(walk, d, inst, theta)
            assert set(walk.edges) <= tree.edges
        assert set().union(*(w.edges for w in tree.resolved.values())) == tree.edges


def test_assembly_rejects_a_claimed_demand_whose_walk_breaks_its_budget():
    # demand 0 may take 0 -> 1 -> 2 (length 2, one packing unit); demand 1
    # has no packing budget, so only the direct edge 0 -> 2 serves it
    inst = make_instance(
        n=3,
        edges=[(0, 1, 1, (1, 1)), (1, 2, 1, (1, 0)), (0, 2, 1, (3, 0))],
        demands=[(0, 2, (2, 1)), (0, 2, (3, 0))],
        tau=1,
        packing=1,
        covering=0,
    )
    rnd, root = label_cover(inst, 0)
    pg = rnd.pg
    via_1 = pg.vertex_ids[("R", 2, (2, 1))]
    up = (pg.root_copy("L", root),) * (rnd.h + 1)
    down = (pg.root_copy("R", root),) * rnd.h + (via_1,)

    def claim(di):
        return RoundedSelection(up_chains={di: up}, down_chains={di: down}, rounds_used=1)

    assert assemble_junction_tree(rnd, root, claim(0)).resolved == {0: Walk((0, 1))}
    with pytest.raises(InternalInvariantError):
        assemble_junction_tree(rnd, root, claim(1))


def test_density_within_polylog_of_oracle_minimum():
    # returned density <= 4 * log^3(product size) * 2^(m+1) * optimum
    import math

    for seed in range(6):
        inst = gen_pcs(n=5, k=2, m=1, tau=1, regime="integer", seed=seed + 11)
        tree = min_density_junction_tree(product_graph_for(inst))
        _r, opt_density, _e, _m = brute_force_min_density_junction(inst, cap=8)
        pg = build_product_graph(inst)
        size = len(pg.vertex_keys)
        slack = 4 * (math.log2(size) ** 3) * 2 ** (inst.m + 1)
        assert float(tree.density) <= slack * max(float(opt_density), 1e-9) or (
            opt_density == 0 and tree.density == 0
        )


def test_theta_mode_small_negative_instance():
    inst = make_instance(
        n=3,
        edges=[
            (0, 1, 1, (Fraction(3, 2), 0)),
            (1, 2, 1, (Fraction(-1, 2), 0)),
            (0, 2, 5, (Fraction(5, 2), 0)),
        ],
        demands=[(0, 2, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    config = SolverConfig(theta=Fraction(1, 10))
    tree = min_density_junction_tree(product_graph_for(inst, "theta", config), config=config)
    for di, witness in tree.resolved.items():
        assert is_feasible(witness, inst.demands[di], inst, config.theta)


def test_theta_mode_with_covering_resource():
    inst = make_instance(
        n=4,
        edges=[
            (0, 1, 1, (Fraction(1, 2), 0)),
            (1, 2, 1, (Fraction(3, 2), -1)),
            (2, 3, 1, (Fraction(1, 2), 0)),
            (1, 3, 1, (Fraction(1, 2), 0)),
        ],
        demands=[(0, 3, (3, -1))],  # must pass vertex 2 to collect the covering unit
        tau=1,
        packing=0,
        covering=1,
    )
    config = SolverConfig(theta=Fraction(1, 10))
    tree = min_density_junction_tree(product_graph_for(inst, "theta", config), config=config)
    assert 1 in tree.edges  # the covering edge is unavoidable
    for di, w in tree.resolved.items():
        assert is_feasible(w, inst.demands[di], inst, config.theta)


def test_root_enumeration_completeness(tri_instance):
    # result equals the minimum over per-root runs
    pg = build_product_graph(tri_instance)
    rnd = greedy_round(pg)
    best = None
    for root in range(tri_instance.n):
        tree = junction_tree_for_root(rnd, root, random.Random(0))
        if tree is not None and (best is None or tree.density < best.density):
            best = tree
    full = min_density_junction_tree(product_graph_for(tri_instance))
    assert full.density == best.density


def essential_set_is_valid(rcs, vertices, cap: int = 12) -> bool:
    """Desk-scale premise check for essential-set solving: every demand's
    every routing-feasible walk (up to the cap) touches the vertex set."""
    wanted = set(vertices)
    arc_heads = [e.head for e in rcs.edges]
    adj = {}
    for eid, e in enumerate(rcs.edges):
        adj.setdefault(e.tail, []).append(eid)
    for d in rcs.demands:
        stack = [(d.source, (), 0)]
        while stack:
            v, edges, length = stack.pop()
            if v == d.target and edges:
                walk = Walk(edges)
                if is_routing_feasible(walk, d, rcs):
                    touched = {d.source} | {arc_heads[eid] for eid in edges}
                    if not (touched & wanted):
                        return False
            if len(edges) >= cap:
                continue
            for eid in adj.get(v, ()):
                nlen = length + rcs.edges[eid].length
                if nlen > d.ctrl[0]:
                    continue
                stack.append((rcs.edges[eid].head, edges + (eid,), nlen))
    return True


def test_essential_set_premise_checker():
    from pcspan.reductions import (
        MUST_VISIT,
        RcsDemand,
        RcsEdge,
        RcsGroup,
        RcsInstance,
    )

    rcs = RcsInstance(
        n=3,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 2, Fraction(1), 1),
            RcsEdge(0, 2, Fraction(1), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({2})),),
        demands=(RcsDemand(0, 2, (3, 1)),),
    )
    assert essential_set_is_valid(rcs, {2})  # the target itself
    assert not essential_set_is_valid(rcs, {1})  # the direct edge bypasses 1


def test_essential_set_single_root(double_loop_rcs):
    # every routing-feasible (a, e) walk passes c = vertex 2
    assert essential_set_is_valid(double_loop_rcs, {2})
    report = essential_set_mode(double_loop_rcs, {2})
    assert report.verified
    assert report.iterations
    assert all(it.root == 2 for it in report.iterations)


def test_essential_set_full_vertex_set_matches_unrestricted(double_loop_rcs):
    full = essential_set_mode(double_loop_rcs, set(range(9)))
    instance, _ = rcs_to_pcs(double_loop_rcs)
    unrestricted = solve_pcs(instance, "integer")
    assert full.cost == unrestricted.cost


def test_essential_set_violation():
    inst_rcs = _two_component_rcs()
    with pytest.raises(EssentialityViolationError):
        essential_set_mode(inst_rcs, {3})  # vertex 3 cannot reach the demand


def test_essential_set_of_every_vertex_rejects_an_infeasible_demand():
    from pcspan.reductions import RcsDemand

    feasible = _two_component_rcs()
    # no edge leads from vertex 0 to vertex 3
    rcs = dataclasses.replace(
        feasible, demands=feasible.demands + (RcsDemand(0, 3, (3, 0)),)
    )
    with pytest.raises(InfeasibleDemandError) as exc:
        essential_set_mode(rcs, set(range(rcs.n)))
    assert str(exc.value) == "demand (0,3) admits no feasible walk"


def test_essential_set_mode_lets_a_solver_fault_through(monkeypatch):
    # only "no essential root resolves a demand" is an essentiality
    # violation; a failed assembly check is a bug and stays one (exit 4)
    def failing(*args):
        raise InternalInvariantError("assembly check failed")

    monkeypatch.setattr(pcspan.junction, "assemble_junction_tree", failing)
    with pytest.raises(InternalInvariantError, match="assembly check failed") as exc:
        essential_set_mode(_two_hub_rcs(), {1, 2})
    assert not isinstance(exc.value, EssentialityViolationError)


def _two_component_rcs():
    from pcspan.reductions import MUST_VISIT, RcsDemand, RcsEdge, RcsGroup, RcsInstance

    return RcsInstance(
        n=4,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 0, Fraction(1), 1),
            RcsEdge(2, 3, Fraction(1), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({1})),),
        demands=(RcsDemand(0, 1, (3, 1)),),
    )


def _two_hub_rcs():
    """Hubs 1 and 2 cut every walk of the two demands, and hub 2 serves
    both of them."""
    from pcspan.reductions import MUST_VISIT, RcsDemand, RcsEdge, RcsGroup, RcsInstance

    return RcsInstance(
        n=5,
        edges=(
            RcsEdge(0, 1, Fraction(1), 1),
            RcsEdge(1, 4, Fraction(1), 1),
            RcsEdge(0, 2, Fraction(1), 1),
            RcsEdge(2, 3, Fraction(1), 1),
            RcsEdge(3, 4, Fraction(2), 1),
        ),
        groups=(RcsGroup(MUST_VISIT, frozenset({1, 2})),),
        demands=(RcsDemand(0, 4, (5, 1)), RcsDemand(0, 3, (4, 1))),
    )


def test_two_vertex_essential_cut_cost_bound():
    # both hubs 1 and 2 cut all walks; essential solving pays at most the
    # sum of the two best single-root trees
    rcs = _two_hub_rcs()
    report = essential_set_mode(rcs, {1, 2})
    instance, _ = rcs_to_pcs(rcs)
    single = solve_pcs(instance, "integer")
    assert report.verified
    assert report.cost <= 2 * single.cost


def _count_product_builds(monkeypatch):
    calls = []
    original = pcspan.junction.build_product_graph

    def counting(problem, *config):
        calls.append(problem)
        return original(problem, *config)

    monkeypatch.setattr(pcspan.junction, "build_product_graph", counting)
    return calls


def test_one_product_graph_per_solve(monkeypatch):
    calls = _count_product_builds(monkeypatch)
    integer = gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=1)
    theta = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=6001)
    assert len(solve_pcs(integer, "integer").iterations) > 1
    assert calls == [integer]
    calls.clear()
    assert len(solve_pcs(theta, "theta", SolverConfig(theta=Fraction(1, 2))).iterations) > 1
    # scaled once, for every demand
    assert len(calls) == 1 and calls[0].base == theta


def test_one_product_graph_for_restricted_roots(monkeypatch, tri_instance):
    calls = _count_product_builds(monkeypatch)
    pg = product_graph_for(tri_instance)
    tree = min_density_junction_tree(pg, roots=[2, 1])
    assert calls == [tri_instance]
    assert tree.root in (1, 2)
    assert tree == min_density_junction_tree(pg, roots=[1, 2])


def test_no_resolving_root_raises_after_one_build(monkeypatch):
    inst = make_instance(
        n=3,
        edges=[(0, 1, 0, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    calls = _count_product_builds(monkeypatch)
    pg = product_graph_for(inst)
    for roots in ([2], []):
        with pytest.raises(InternalInvariantError):
            min_density_junction_tree(pg, roots=roots)
    assert calls == [inst]


def test_out_of_range_root_still_rejected(tri_instance):
    pg = product_graph_for(tri_instance)
    with pytest.raises(ContractError):
        min_density_junction_tree(pg, roots=[0, tri_instance.n])
    with pytest.raises(ContractError):
        min_density_junction_tree(pg, roots=[-1, 0])


def _record_root_trees(monkeypatch, unbounded=False):
    """Wrap `junction_tree_for_root` so that every call appends its
    (round, root, tree) to the returned list.  With ``unbounded`` each root
    is run with no incumbent, so no root is cut off by its bound."""
    calls = []
    original = pcspan.junction.junction_tree_for_root

    def recording(rnd, root, rng, incumbent=None):
        tree = original(rnd, root, rng, None if unbounded else incumbent)
        calls.append((rnd, root, tree))
        return tree

    monkeypatch.setattr(pcspan.junction, "junction_tree_for_root", recording)
    return calls


def test_a_roots_tree_does_not_depend_on_the_roots_searched_before_it(monkeypatch):
    # with one stream threaded through the roots in order, root 5's rounded
    # tree here changed when it was searched alone
    inst = gen_pcs(n=7, k=4, m=1, tau=1, regime="integer", seed=10)
    pg = product_graph_for(inst)
    calls = _record_root_trees(monkeypatch)
    for round_no in (0, 3):
        calls.clear()
        min_density_junction_tree(pg, round_no=round_no)
        together = {root: tree for _rnd, root, tree in calls}
        assert sum(tree is not None for tree in together.values()) > 1
        calls.clear()
        min_density_junction_tree(pg, round_no=round_no, roots=reversed(range(inst.n)))
        assert {root: tree for _rnd, root, tree in calls} == together
        for root, tree in together.items():
            if tree is None:
                continue
            calls.clear()
            assert min_density_junction_tree(pg, round_no=round_no, roots=[root]) == tree
            assert calls == [(greedy_round(pg), root, tree)]


def _rounds(calls) -> list:
    """The recorded root calls grouped by round, in call order."""
    rounds = []
    for rnd, root, tree in calls:
        if not rounds or rounds[-1][0][0] is not rnd:
            rounds.append([])
        rounds[-1].append((rnd, root, tree))
    return rounds


class _ModelHashes(list):
    """A digest for `report_digest.hash_models` that keeps the SHA-256 of
    each array it is fed: six per model, in build order."""

    def update(self, data):
        self.append(hashlib.sha256(data).digest())


@dataclasses.dataclass
class DigestSolves:
    """One pass over the 80 solves of `scripts/report_digest.py`'s sets, in
    order: the reports, each root call as (round, root, tree), the hashes of
    each HiGHS model built, the calls to `fallback_tree`, and per set the
    number of root calls recorded by its end."""

    reports: list = dataclasses.field(default_factory=list)
    calls: list = dataclasses.field(default_factory=list)
    models: list = dataclasses.field(default_factory=list)
    fallback_calls: list = dataclasses.field(default_factory=list)
    set_ends: dict = dataclasses.field(default_factory=dict)


def _solve_digest_sets(digest_sets, unbounded) -> DigestSolves:
    """The digest sets solved once; with ``unbounded`` every root runs with
    no incumbent, so no root that resolves something is cut off."""
    solves = DigestSolves()
    hashes = _ModelHashes()
    with pytest.MonkeyPatch.context() as patch:
        solves.calls = _record_root_trees(patch, unbounded)
        fallback_tree = pcspan.density_lp.fallback_tree

        def recording(*args, **kwargs):
            solves.fallback_calls.append(args)
            return fallback_tree(*args, **kwargs)

        patch.setattr(pcspan.junction, "fallback_tree", recording)
        patch.setattr(pcspan.density_lp, "fallback_tree", recording)
        original = digest_sets.hash_models(hashes, [0] * 4)
        try:
            sets = [("rcs", digest_sets.rcs_reports())]
            for name, mode, instances in digest_sets.PCS_SETS:
                sets.append((name, digest_sets.pcs_reports(mode, instances)))
            for name, reports in sets:
                solves.reports += reports
                solves.set_ends[name] = len(solves.calls)
        finally:
            pcspan.lpsolve.highs_model = original
    solves.models = [tuple(hashes[i : i + 6]) for i in range(0, len(hashes), 6)]
    return solves


# Each pass solves the 80 digest instances; the tests of this module share
# one unbounded and one bounded pass.
@pytest.fixture(scope="module")
def unbounded_solves(digest_sets) -> DigestSolves:
    return _solve_digest_sets(digest_sets, unbounded=True)


@pytest.fixture(scope="module")
def bounded_solves(digest_sets) -> DigestSolves:
    return _solve_digest_sets(digest_sets, unbounded=False)


def test_the_root_bound_cuts_off_only_roots_that_cannot_win(unbounded_solves, bounded_solves):
    reports, models = unbounded_solves.reports, unbounded_solves.models
    rounds = _rounds(unbounded_solves.calls)
    bounded_reports, bounded_models = bounded_solves.reports, bounded_solves.models
    bounded_rounds = _rounds(bounded_solves.calls)
    assert bounded_reports == reports
    # the bounded run builds a subset of the LPs, in the same order
    remaining = iter(models)
    assert all(model in remaining for model in bounded_models)
    assert len(bounded_models) < len(models)
    assert len(bounded_rounds) == len(rounds)
    cut_off = 0
    for calls, bounded_calls in zip(rounds, bounded_rounds):
        rnd = calls[0][0]
        assert (bounded_calls[0][0].demands, bounded_calls[0][0].prices) == (
            rnd.demands,
            rnd.prices,
        )
        # every root is still called, best-first by its bound
        roots = [root for _rnd, root, _tree in bounded_calls]
        assert sorted(roots) == list(range(len(rnd.bounds)))
        bounds = rnd.bounds
        assert roots == sorted(roots, key=lambda r: (bounds[r] is None, bounds[r] or 0, r))
        trees = {root: tree for _rnd, root, tree in calls}
        winner = min((tree for tree in trees.values() if tree is not None), key=tree_order)
        for root, tree in trees.items():
            # (a) the bound never exceeds the density of a root's tree
            if tree is not None:
                assert bounds[root] is not None and bounds[root] <= tree.density
        for _rnd, root, bounded in bounded_calls:
            unbounded = trees[root]
            if bounded is None and unbounded is not None:
                # (b) a root the bound cuts off could not have won
                assert tree_order(unbounded) > tree_order(winner)
                cut_off += 1
            else:
                assert bounded == unbounded
    assert cut_off > 0


def test_a_root_whose_bound_equals_the_incumbent_is_still_run(monkeypatch):
    # one edge 0 -> 1 of cost 1: both roots bound the density by 1, and both
    # reach it; root 1 runs after root 0 and must not be cut off
    inst = make_instance(
        n=2,
        edges=[(0, 1, 1, (1, 0))],
        demands=[(0, 1, (1, 1))],
        tau=1,
        packing=1,
        covering=0,
    )
    pg = product_graph_for(inst)
    rnd = greedy_round(pg)
    assert rnd.bounds == (1, 1)
    calls = _record_root_trees(monkeypatch)
    tree = min_density_junction_tree(pg)
    assert tree.root == 0 and tree.density == 1
    assert [root for _rnd, root, _tree in calls] == [0, 1]
    assert calls[1][2] is not None and calls[1][2].density == 1
    assert junction_tree_for_root(rnd, 1, random.Random(0), incumbent=Fraction(1)) is not None
    assert junction_tree_for_root(rnd, 1, random.Random(0), incumbent=Fraction(99, 100)) is None


def test_a_root_with_one_open_demand_builds_no_lp(monkeypatch):
    calls = []
    for name in ("build_lp", "solve_lp"):
        original = getattr(pcspan.junction, name)

        def counting(*args, _name=name, _original=original):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(pcspan.junction, name, counting)
    inst = gen_pcs(n=7, k=4, m=1, tau=1, regime="integer", seed=10)
    pg = product_graph_for(inst)
    kinds = set()
    for rnd in (greedy_round(pg), greedy_round(pg, demands=[0, 2]), greedy_round(pg, {0}, [3])):
        for root in range(inst.n):
            if rnd.bounds[root] is None:
                continue
            single = len(rnd.relations[root]) == 1
            kinds.add(single)
            calls.clear()
            junction_tree_for_root(rnd, root, random.Random(0))
            assert calls == ([] if single else ["build_lp", "solve_lp"])
    assert kinds == {True, False}


def closure_sum_pair_tree(rnd, root, di):
    """The reference direct-walk tree of demand ``di`` at ``root`` in round
    ``rnd``: its relation pair of least closure-cost sum up to the root and
    down again, ties toward smaller state ids.  `union_pair_tree` scores the
    same walks by the cost of their edge sets, so its walk is never dearer
    than this one."""
    closure = rnd.closure
    root_left = rnd.pg.root_copy("L", root)
    root_right = rnd.pg.root_copy("R", root)

    def closure_sum(pair):
        svid, tvid = pair
        cost = closure.cost(svid, root_left) + closure.cost(root_right, tvid)
        return cost, pair

    svid, tvid = min(rnd.relations[root][di], key=closure_sum)
    walks = RoundedSelection(
        up_chains={di: (svid,) + (root_left,) * rnd.h},
        down_chains={di: (root_right,) * rnd.h + (tvid,)},
        rounds_used=0,
    )
    return assemble_junction_tree(rnd, root, walks)


def _edge_set_price(rnd, walk) -> int:
    return sum(rnd.prices[eid] for eid in set(walk.edges))


def test_single_demand_roots_are_never_denser_than_the_lp_paths_fallback(unbounded_solves):
    # the closure-cost-sum walk is one of a demand's direct walks, so at
    # every root each demand's walk in the union-pair tree costs no more as
    # an edge set, and a root with one open demand is never denser than it;
    # an LP root's tree is never worse than its union-pair tree.  Read off
    # the rcs and integer sets of the unbounded pass, where every root that
    # resolves something runs
    calls = unbounded_solves.calls[: unbounded_solves.set_ends["pcs-integer"]]
    checked = 0
    lp_roots = 0
    for rnd, root, tree in calls:
        if rnd.bounds[root] is None:
            assert tree is None
            continue
        open_demands = list(rnd.relations[root])
        union = union_pair_tree(rnd, root, open_demands)
        assert union.resolved.keys() == set(open_demands)
        for di in open_demands:
            reference = closure_sum_pair_tree(rnd, root, di).resolved[di]
            assert _edge_set_price(rnd, union.resolved[di]) <= _edge_set_price(rnd, reference)
        if len(open_demands) != 1:
            assert tree_order(tree) <= tree_order(union)
            lp_roots += 1
            continue
        assert tree.root == root
        (di,) = open_demands
        reference = closure_sum_pair_tree(rnd, root, di)
        assert tree.resolved.keys() == {di}
        assert tree.density <= reference.density
        checked += 1
    assert checked > 100
    assert lp_roots > 100


def test_single_pair_tree_counts_a_shared_edge_once():
    # at root 7 the cheapest pair by closure-cost sum walks to density 8;
    # the walk 6, 26, 6, 24 uses edge 6 twice and costs 5
    inst = gen_pcs(
        n=8, k=4, m=1, tau=1, regime="integer", budget_slack=1, seed=2029026002, packing=0
    )
    pg = product_graph_for(inst)
    rnd = greedy_round(pg, {4, 10, 12, 26}, [1])
    assert closure_sum_pair_tree(rnd, 7, 1).density == 8
    tree = junction_tree_for_root(rnd, 7, random.Random(0))
    assert tree.density == 5
    assert tree.edges == frozenset({6, 24, 26})
    assert tree.resolved == {1: Walk((6, 26, 6, 24))}


def test_no_solve_calls_fallback_tree(unbounded_solves, bounded_solves):
    # fallback_tree stays importable only for bench/tracer.py, which wraps it
    # by name
    assert unbounded_solves.fallback_calls == []
    assert bounded_solves.fallback_calls == []


def test_a_round_lists_only_demands_with_pairs(unbounded_solves):
    # a root's relations never hold an empty list, and its bound is None
    # exactly when it lists no demand, so the bound alone says whether a
    # root resolves anything
    kinds = Counter()
    for calls in _rounds(unbounded_solves.calls):
        rnd = calls[0][0]
        assert len(rnd.relations) == len(rnd.bounds)
        for relations, bound in zip(rnd.relations, rnd.bounds):
            assert all(relations.values())
            assert (bound is None) == (not relations)
            kinds[bound is None] += 1
    assert kinds[True] > 0 and kinds[False] > 0


def test_union_pair_tree_does_not_depend_on_the_height(digest_sets):
    # a direct walk takes one closure step up and one down; the other steps
    # of an h-step chain stay on the root copy and expand to no edges
    tall = SolverConfig(epsilon=Fraction(1, 3))
    trees = 0
    for inst in digest_sets.integer_instances():
        pg = product_graph_for(inst)
        rnd, rnd_tall = greedy_round(pg), greedy_round(pg, config=tall)
        assert (rnd.h, rnd_tall.h) == (2, 3)
        assert rnd_tall.relations == rnd.relations
        for root, relations in enumerate(rnd.relations):
            if relations:
                demands = list(relations)
                tree = union_pair_tree(rnd, root, demands)
                assert union_pair_tree(rnd_tall, root, demands) == tree
                trees += 1
    assert trees > 40


ROUND_CASES = [
    ("integer", gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=1)),
    ("integer", gen_pcs(n=7, k=4, m=1, tau=1, regime="integer", seed=10)),
    ("theta", gen_pcs(n=5, k=3, m=1, tau=1, regime="rational-negative", seed=6001)),
    ("theta", gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=6003)),
]
ROUND_IDS = ["int-5-seed-1", "int-7-seed-10", "theta-5-seed-6001", "theta-4-seed-6003"]


def _first_two_rounds(mode, inst):
    """The product graph of ``inst`` with round 0 of its greedy solve and
    round 1, which has the first tree's edges bought and its demands closed."""
    pg = product_graph_for(inst, mode)
    first = solve_pcs(inst, mode).iterations[0]
    still_open = [di for di in range(len(inst.demands)) if di not in first.resolved]
    assert first.tree_edges and still_open
    return pg, (greedy_round(pg), greedy_round(pg, set(first.tree_edges), still_open))


def _per_root_cover(pg, rnd, root):
    """(relations, useful L states, useful R states) of ``root`` from the
    per-root searches of `pcspan.product`, the reference the round's closure
    must agree with; each relation pair's labels are mapped to their
    (source, I, L) and (target, J, R) states, and a demand with no pair is
    left out.  None when no relation pair connects."""
    reach_left = states_reaching_root_left(pg, root)
    reach_right = states_reachable_from_root_right(pg, root)
    by_label = connectable_relation_pairs(pg, rnd.demands, reach_left, reach_right)
    if not any(by_label.values()):
        return None
    relations = {}
    for di, pairs in by_label.items():
        if not pairs:
            continue
        d = pg.instance.demands[di]
        relations[di] = [
            (pg.vertex_ids[("L", d.source, i_lab)], pg.vertex_ids[("R", d.target, j_lab)])
            for i_lab, j_lab in pairs
        ]
    src = {i for pairs in relations.values() for i, _j in pairs}
    snk = {j for pairs in relations.values() for _i, j in pairs}
    useful_left = reachable(pg, src) & reach_left
    useful_right = reachable(pg, snk, backward=True) & reach_right
    useful_left.add(pg.root_copy("L", root))
    useful_right.add(pg.root_copy("R", root))
    return relations, useful_left, useful_right


@pytest.mark.parametrize("mode, inst", ROUND_CASES, ids=ROUND_IDS)
def test_relations_read_off_the_round_closure_equal_the_per_root_searches(mode, inst):
    pg, rounds = _first_two_rounds(mode, inst)
    outcomes = Counter()
    for rnd in rounds:
        for root in range(inst.n):
            reference = _per_root_cover(pg, rnd, root)
            outcomes[rnd.bounds[root] is None] += 1
            if reference is None:
                assert rnd.relations[root] == {} and rnd.bounds[root] is None
                continue
            relations, _left, _right = reference
            assert rnd.relations[root] == relations
    assert outcomes[False] > 0


@pytest.mark.parametrize("mode, inst", ROUND_CASES, ids=ROUND_IDS)
def test_round_closure_rows_equal_a_per_root_closure_on_its_useful_states(mode, inst):
    pg, rounds = _first_two_rounds(mode, inst)
    checked = 0
    for rnd in rounds:

        def out_edges(v, prices=rnd.prices):
            for idx in pg.out_adj[v]:
                pe = pg.edges[idx]
                yield idx, pe.head, prices[pe.base_edge]

        for root in range(inst.n):
            reference = _per_root_cover(pg, rnd, root)
            if reference is None:
                continue
            for useful in reference[1:]:
                alone = build_closure(useful, out_edges)
                for u in useful:
                    dist = rnd.closure.dist[u]
                    parent = rnd.closure.parent[u]
                    assert {v: c for v, c in dist.items() if v in useful} == alone.dist[u]
                    assert {v: p for v, p in parent.items() if v in useful} == alone.parent[u]
                    checked += 1
    assert checked > 0


@pytest.mark.parametrize("mode, inst", ROUND_CASES[1:3], ids=ROUND_IDS[1:3])
def test_a_solve_builds_one_closure_per_round_and_searches_no_root(monkeypatch, mode, inst):
    calls = Counter()
    names = (
        "build_closure",
        "_forward_reachable",
        "_backward_reachable",
        "states_reaching_root_left",
        "states_reachable_from_root_right",
        "connectable_relation_pairs",
    )
    for name in names:
        original = getattr(pcspan.junction, name)

        def counting(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(pcspan.junction, name, counting)
    rounds = len(solve_pcs(inst, mode).iterations)
    assert rounds > 1
    assert calls == dict.fromkeys(names[:3], rounds)
