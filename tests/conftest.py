import heapq
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from pcspan.config import DEFAULT_CONFIG, SolverConfig
from pcspan.junction import greedy_round
from pcspan.model import Demand, Edge, PcsInstance, ResourceVector
from pcspan.oracle import ENUM_CAP, brute_force_opt
from pcspan.product import (
    build_product_graph,
    connectable_relation_pairs,
    states_reachable_from_root_right,
    states_reaching_root_left,
)
from pcspan.rcsp import through_root_witness
from pcspan.reductions import (
    AVOID,
    MUST_VISIT,
    RcsDemand,
    RcsEdge,
    RcsGroup,
    RcsInstance,
)
from pcspan.scaling import ScaledInstance

from junction_oracle import brute_force_min_density_junction


SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="session")
def digest_sets():
    """`scripts/report_digest.py` as a module: its seeded sets and `main`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SCRIPTS))
        import report_digest

        yield report_digest
    sys.modules.pop("report_digest", None)


def fr(x) -> Fraction:
    return Fraction(x)


def make_instance(n, edges, demands, tau, packing, covering) -> PcsInstance:
    """edges: (u, v, cost, res tuple); demands: (s, t, budget tuple)."""
    return PcsInstance(
        n=n,
        edges=tuple(
            Edge(u, v, Fraction(c), ResourceVector((Fraction(r[0]),) + tuple(r[1:])))
            for (u, v, c, r) in edges
        ),
        demands=tuple(
            Demand(s, t, ResourceVector((Fraction(b[0]),) + tuple(b[1:])))
            for (s, t, b) in demands
        ),
        tau=tau,
        packing=packing,
        covering=covering,
    )


@pytest.fixture
def tri_instance() -> PcsInstance:
    """s=0 -> a=1 -> t=2 with a too-long direct edge; OPT = {0, 1}, cost 2."""
    return make_instance(
        n=3,
        edges=[
            (0, 1, 1, (1, 1)),
            (1, 2, 1, (1, 0)),
            (0, 2, 1, (3, 0)),
        ],
        demands=[(0, 2, (2, 1))],
        tau=1,
        packing=1,
        covering=0,
    )


DOUBLE_LOOP_ARCS = [
    (0, 1),  # a -> b
    (1, 2),  # b -> c
    (2, 3),  # c -> d
    (3, 4),  # d -> e
    (2, 5),  # c -> f
    (5, 6),  # f -> g
    (6, 2),  # g -> c
    (2, 7),  # c -> h
    (7, 8),  # h -> i
    (8, 2),  # i -> c
]
DOUBLE_LOOP_NAMES = "abcdefghi"


@pytest.fixture
def double_loop_rcs() -> RcsInstance:
    """Unit-length ring graph where the (a, e) demand must visit h and g."""
    return RcsInstance(
        n=9,
        edges=tuple(RcsEdge(u, v, Fraction(1), 1) for (u, v) in DOUBLE_LOOP_ARCS),
        groups=(
            RcsGroup(MUST_VISIT, frozenset({7})),  # {h}
            RcsGroup(MUST_VISIT, frozenset({6})),  # {g}
        ),
        demands=(RcsDemand(0, 4, (10, 1, 1)),),
    )


@pytest.fixture
def double_loop_pcs(double_loop_rcs) -> PcsInstance:
    from pcspan.reductions import rcs_to_pcs

    instance, _ = rcs_to_pcs(double_loop_rcs)
    return instance


def label_cover(problem, root: int, config: SolverConfig = DEFAULT_CONFIG):
    """(round, root) on the product graph of `problem` (an instance or a
    scaled instance), every demand open at the instance's own costs, as the
    per-root stages take them; None when the root resolves nothing."""
    pg = build_product_graph(problem, config)
    rnd = greedy_round(pg, config=config)
    return None if rnd.bounds[root] is None else (rnd, root)


def lp_masses(values) -> dict:
    """Per demand, the LP relation mass (gamma) of its pairs, an int over
    the solved LP's denominator."""
    gammas = {}
    for (di, _i, _j), w in values.y.items():
        gammas[di] = gammas.get(di, 0) + w
    return gammas


def label_masses(cover, values, di) -> dict:
    """Demand ``di``'s y mass in the solved LP ``cover`` per relation pair,
    keyed by the (I, J) labels of its two terminal states, as `prune` takes
    it."""
    keys = cover.rnd.pg.vertex_keys
    pairs = cover.rnd.relations[cover.root][di]
    return {(keys[i][2], keys[j][2]): values.y[(di, i, j)] for i, j in pairs}


def scaled_res(scaled: ScaledInstance, eid: int) -> ResourceVector:
    """Edge ``eid``'s resource vector in ``scaled``: its length is d_e *
    delta, its other entries are the base edge's."""
    base = scaled.base.edges[eid].res
    return ResourceVector((scaled.units[eid] * scaled.delta,) + base.entries[1:])


def scaled_as_instance(scaled: ScaledInstance) -> PcsInstance:
    """The scaled graph as a plain instance (costs and demands inherited)."""
    base = scaled.base
    edges = tuple(
        Edge(e.tail, e.head, e.cost, scaled_res(scaled, eid)) for eid, e in enumerate(base.edges)
    )
    return PcsInstance(
        n=base.n,
        edges=edges,
        demands=base.demands,
        tau=base.tau,
        packing=base.packing,
        covering=base.covering,
    )


def equivalence_check(problem, root: int, config: SolverConfig = DEFAULT_CONFIG) -> dict:
    """Compare product-graph relation-pair connectivity against the oracle's
    through-root feasibility on the two-copy intersection graph.

    In the scaled regime the oracle runs on the scaled graph with the same
    theta relaxation the relation uses.
    """
    pg = build_product_graph(problem, config)
    pairs = connectable_relation_pairs(
        pg,
        range(len(pg.instance.demands)),
        states_reaching_root_left(pg, root),
        states_reachable_from_root_right(pg, root),
    )
    if isinstance(problem, ScaledInstance):
        oracle_instance = scaled_as_instance(problem)
        theta = problem.theta
    else:
        oracle_instance = problem
        theta = None
    report = {"root": root, "demands": [], "mismatches": 0}
    for di, d in enumerate(oracle_instance.demands):
        product_ok = bool(pairs[di])
        witness = through_root_witness(oracle_instance, d, root, theta=theta)
        oracle_ok = witness is not None
        report["demands"].append({"demand": di, "product": product_ok, "oracle": oracle_ok})
        if product_ok != oracle_ok:
            report["mismatches"] += 1
    return report


def density_lemma_check(instance: PcsInstance, cap: int = ENUM_CAP) -> dict:
    """Exact witness for the sqrt(k) density bound on brute-forceable
    instances (walks of at most `cap` edges): min junction density <=
    OPT / sqrt(k), compared exactly via density^2 * k <= OPT^2."""
    opt_cost, opt_edges = brute_force_opt(instance, cap)
    root, density, edges, members = brute_force_min_density_junction(instance, cap)
    k = len(instance.demands)
    holds = density * density * k <= opt_cost * opt_cost
    return {
        "opt": opt_cost,
        "opt_edges": sorted(opt_edges),
        "min_density": density,
        "density_root": root,
        "density_edges": sorted(edges),
        "density_members": members,
        "k": k,
        "holds": holds,
    }


def routing_feasible_exists(rcs: RcsInstance, demand: RcsDemand) -> bool:
    """Exact feasibility via the (vertex, visited-group-subset) DP.

    The suites' reference for RCS feasibility, independent of the packing-covering reduction; lengths are positive, so
    Dijkstra over the subset-augmented states is exact.
    """
    c = rcs.must_visit_count
    required = [
        i for i in range(c) if demand.ctrl[i + 1] == 1
    ]  # indices into the must-visit prefix
    forbidden = set()
    for i, g in enumerate(rcs.groups, start=1):
        if g.kind == AVOID and demand.ctrl[i] == -1:
            forbidden |= g.members
    if demand.source in forbidden or demand.target in forbidden:
        return False

    def hit_mask(vertex, mask):
        for bit, gi in enumerate(required):
            if vertex in rcs.groups[gi].members:
                mask |= 1 << bit
        return mask

    full = (1 << len(required)) - 1
    start = (demand.source, hit_mask(demand.source, 0))
    dist = {start: 0}
    heap = [(0, start)]
    adj = {}
    for eid, e in enumerate(rcs.edges):
        adj.setdefault(e.tail, []).append(eid)
    while heap:
        dlen, (v, mask) = heapq.heappop(heap)
        if dist.get((v, mask), None) != dlen:
            continue
        if v == demand.target and mask == full and dlen <= demand.ctrl[0]:
            return True
        for eid in adj.get(v, ()):
            e = rcs.edges[eid]
            if e.head in forbidden:
                continue
            nmask = hit_mask(e.head, mask)
            nstate = (e.head, nmask)
            nlen = dlen + e.length
            if nlen > demand.ctrl[0]:
                continue
            if nstate not in dist or nlen < dist[nstate]:
                dist[nstate] = nlen
                heapq.heappush(heap, (nlen, nstate))
    return any(
        v == demand.target and mask == full and dlen <= demand.ctrl[0]
        for (v, mask), dlen in dist.items()
    )
