"""Density LP over one root's label cover, representative pruning, bucketing,
randomized rounding, and junction-tree assembly.

The LP realizes the label-cover relaxation: y mass over relation pairs
(normalized to 1), and per-terminal flow support to the root expressed in
path form over chains of exactly h closure steps (the paths of the
(h+1)-level layered graph).  A terminal is a product state (a demand's
label I names the state (source, I, L), and J the state (target, J, R)), so
demands that share a state share its one flow value Z, which is
LP-equivalent to per-demand systems because flows are independent
(capacities are not shared between terminals).

It is built without the columns and rows a presolve would strip (Andersen &
Andersen, "Presolving in linear programming", Math. Prog. 1995); none of
these reductions changes the optimal value:

- one terminal row per (demand, end state): the y mass of its pairs stays
  under the Z of that state (a terminal's dominance variable z sat in just
  that row and its feed row, so the two rows merge);
- a closure step that only one flow uses would get a capacity column x in a
  single row, equal at any optimum to that row's path flow; its cost goes
  onto those path columns instead;
- a closure step of cost 0 (the diagonal, zero-cost pairs) would get an x
  that grows for free, so neither it nor its rows exist.

Capacity columns remain only for steps of positive cost shared by two or
more flows, one row per flow.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractError, InternalInvariantError
from .layered import enumerate_root_paths
from .lpsolve import LinearProgram, solve_lp as _solve_lp_backend
from .model import Walk, is_feasible, is_theta_feasible
from .product import relation_holds

# root paths one terminal state may have before the LP build gives up
MAX_PATHS_PER_TERMINAL = 20000


@dataclass
class LabelCoverLp:
    """LP (objective: the closure costs of the capacity the flows use) over
    one root's label cover.

    The eq rows come first: the normalization (the y mass is 1), then one
    row per flow (its path flows sum to its value Z).  The ub rows are the
    terminal rows (a terminal's y mass is at most its flow's Z), then the
    capacity rows (a flow's paths through a shared step stay under that
    step's x).  The columns come in a fixed order: y (one per relation pair,
    in sorted-demand then relation order), the flow values Z (one per
    terminal state), then per side the path columns g of each flow and
    the capacity columns x shared by that side's flows.  A path's cost is
    that of its unshared steps; x carries the cost of a shared one.
    `g_cols` records where each flow's path columns sit.
    """

    lp: LinearProgram
    bundle: object  # the RootedLabelCover this LP was built from
    paths_up: dict  # state vid -> list of vid chains (state .. root)
    paths_down: dict  # state vid -> list of vid chains (root .. state)
    g_cols: dict  # (side, state vid) -> range of its path columns


@dataclass
class LpValues:
    """Exact-rational view of a solved label-cover LP."""

    y: dict  # (demand, L vid, R vid) -> Fraction, summing to exactly 1
    flow: dict  # (side, state, path_idx) -> Fraction
    objective: Fraction


def build_lp(bundle) -> LabelCoverLp:
    """LP (normalization, terminal rows, path-form flow support, shared
    capacities) with its free and single-row capacities folded away."""
    h = bundle.h
    relations = bundle.relations
    if not any(relations.values()):
        raise ContractError("no candidate relation pairs: root resolves nothing")

    # enumerate root paths once per terminal state
    closure = bundle.rnd.closure
    cap = MAX_PATHS_PER_TERMINAL
    sources = sorted({i for pairs in relations.values() for i, _j in pairs})
    sinks = sorted({j for pairs in relations.values() for _i, j in pairs})
    paths_up = {i: enumerate_root_paths(closure, i, bundle.root_left, h, cap) for i in sources}
    paths_down = {j: enumerate_root_paths(closure, bundle.root_right, j, h, cap) for j in sinks}

    # eq rows: normalization, then one flow row per terminal state; the ub
    # rows are numbered after them, so every row gets its index at once.
    # Every column is made in one place and its index recorded there; the
    # y columns, one per relation pair, come first.
    num_eq = 1 + len(paths_up) + len(paths_down)
    columns = [[(0, 1)] for pairs in relations.values() for _pair in pairs]
    objective = {}

    # one terminal row per (demand, end state): the y mass of its pairs
    # stays under the flow value Z of that state
    ub = num_eq
    flow_cols = {}
    y = 0
    for di in sorted(relations):
        by_end = ({}, {})
        for i, j in relations[di]:
            by_end[0].setdefault(i, []).append(y)
            by_end[1].setdefault(j, []).append(y)
            y += 1
        for side, by_state in zip(("up", "down"), by_end):
            for vid in sorted(by_state):
                for col in by_state[vid]:
                    columns[col].append((ub, 1))
                flow = flow_cols.get((side, vid))
                if flow is None:
                    flow = flow_cols[(side, vid)] = len(columns)
                    columns.append([])
                columns[flow].append((ub, -1))
                ub += 1

    # path-form flow support: sum of path vars equals the state's flow value.
    # Each closure step (level, a, b) collects, per flow through it, the
    # flow's path columns that use it; a step of positive cost shared by two
    # or more flows then gets one capacity x for the side and one row per
    # flow, and an unshared one adds its cost to its paths
    eq = 1
    g_cols = {}
    for side, paths, levels in (("up", paths_up, range(h, 0, -1)), ("down", paths_down, range(h))):
        steps = {}  # step -> [path columns through it, one list per flow]
        for vid in sorted(paths):
            # this eq row is numbered below the terminal rows written above
            columns[flow_cols[(side, vid)]].insert(0, (eq, -1))
            start = len(columns)
            g_cols[(side, vid)] = range(start, start + len(paths[vid]))
            per_step = {}
            for g, chain in enumerate(paths[vid], start):
                columns.append([(eq, 1)])
                for step in zip(levels, chain, chain[1:]):
                    per_step.setdefault(step, []).append(g)
            eq += 1
            for step, gs in per_step.items():
                steps.setdefault(step, []).append(gs)
        for step, flows in steps.items():
            # every chain vertex is a closure source, so its row exists
            cost = closure.dist[step[1]].get(step[2])
            if cost is None:
                raise InternalInvariantError("x variable on a missing closure edge")
            if not cost:
                continue
            if len(flows) == 1:
                for g in flows[0]:
                    objective[g] = objective.get(g, 0) + cost
                continue
            x = []
            for gs in flows:
                for g in gs:
                    columns[g].append((ub, 1))
                x.append((ub, -1))
                ub += 1
            objective[len(columns)] = cost
            columns.append(x)

    lp = LinearProgram(
        columns=columns,
        objective=objective,
        eq_rows=[1] + [0] * (num_eq - 1),
        ub_rows=[0] * (ub - num_eq),
        cost_scale=bundle.rnd.cost_scale,
    )
    return LabelCoverLp(
        lp=lp,
        bundle=bundle,
        paths_up=paths_up,
        paths_down=paths_down,
        g_cols=g_cols,
    )


def solve_lp(cover: LabelCoverLp) -> LpValues:
    """Solve exactly and read y and the path flows by column position."""
    sol = _solve_lp_backend(cover.lp)
    values = sol.values
    relations = cover.bundle.relations
    pairs = [(di, i, j) for di in sorted(relations) for i, j in relations[di]]
    y = dict(zip(pairs, values))  # the y columns come first
    flow = {
        (side, vid, p_idx): values[col]
        for (side, vid), cols in cover.g_cols.items()
        for p_idx, col in enumerate(cols)
    }
    if sum(y.values(), Fraction(0)) != 1:
        raise InternalInvariantError("LP relation mass is not exactly 1")
    return LpValues(y=y, flow=flow, objective=sol.objective)


def sort_representatives(reps, c: int) -> list:
    """Nondecreasing by entry c; ties by full label lex order, then by the
    input position, so the order is fully deterministic."""
    return [
        lab
        for _key, lab in sorted(
            ((lab[c], lab, idx), lab) for idx, lab in enumerate(reps)
        )
    ]


def median_consumption(masses, reps, lam: Fraction, c: int):
    """Smallest entry-c value whose cumulative y-mass over `reps` reaches lam.

    `masses[label]` is the representative's full-relation y mass.  Raises on
    mass deficit, which the phase schedule makes unreachable.
    """
    if lam <= 0:
        raise ContractError("lambda must be positive")
    by_value = {}
    for lab in reps:
        by_value[lab[c]] = by_value.get(lab[c], Fraction(0)) + masses.get(lab, Fraction(0))
    cum = Fraction(0)
    for value in sorted(by_value):
        cum += by_value[value]
        if cum >= lam:
            return value
    raise InternalInvariantError(
        "median mass deficit: cumulative mass below lambda (schedule violated)"
    )


@dataclass
class PrunedSets:
    src_alive: tuple  # labels
    snk_alive: tuple
    gamma: Fraction
    src_mass: Fraction  # sum of full-relation y mass over surviving sources
    snk_mass: Fraction
    used_fallback: bool


def prune(relation_pairs, y_masses, budget_units, dim: int) -> PrunedSets:
    """Algorithm-3-style pruning with a sound fallback.

    Phases run per resource c = 0..m with lambda = gamma / 2^(c+1) (the
    survivor bound gamma / 2^(m+1) pins this schedule).  Masses are the
    terminals' full-relation y sums.  If the phase result ever violates the
    cross-product guarantee or the survivor-mass bound, an exhaustive
    threshold-box search takes over: it only returns relation-compatible
    boxes, and maximizes the smaller surviving side mass.
    """
    pairs = list(relation_pairs)
    if not pairs:
        raise ContractError("prune needs a nonempty relation")
    gamma = sum((y_masses.get(p, Fraction(0)) for p in pairs), Fraction(0))
    if gamma <= 0:
        raise ContractError("prune needs positive relation mass")
    src_mass = {}
    snk_mass = {}
    for (i_lab, j_lab) in pairs:
        w = y_masses.get((i_lab, j_lab), Fraction(0))
        src_mass[i_lab] = src_mass.get(i_lab, Fraction(0)) + w
        snk_mass[j_lab] = snk_mass.get(j_lab, Fraction(0)) + w

    src_alive = sort_representatives(src_mass, 0)
    snk_alive = sort_representatives(snk_mass, 0)
    for c in range(dim):
        lam = gamma / 2 ** (c + 1)
        src_alive = sort_representatives(src_alive, c)
        snk_alive = sort_representatives(snk_alive, c)
        mu_src = median_consumption(src_mass, src_alive, lam, c)
        mu_snk = median_consumption(snk_mass, snk_alive, lam, c)
        src_alive = [lab for lab in src_alive if lab[c] <= mu_src]
        snk_alive = [lab for lab in snk_alive if lab[c] <= mu_snk]

    bound = gamma / 2 ** dim
    s_mass = sum((src_mass[lab] for lab in src_alive), Fraction(0))
    t_mass = sum((snk_mass[lab] for lab in snk_alive), Fraction(0))
    ok_cross = all(
        relation_holds(budget_units, i_lab, j_lab)
        for i_lab in src_alive
        for j_lab in snk_alive
    ) and bool(src_alive) and bool(snk_alive)
    if ok_cross and s_mass >= bound and t_mass >= bound:
        return PrunedSets(
            src_alive=tuple(src_alive),
            snk_alive=tuple(snk_alive),
            gamma=gamma,
            src_mass=s_mass,
            snk_mass=t_mass,
            used_fallback=False,
        )
    box = _best_threshold_box(src_mass, snk_mass, budget_units, dim)
    src_alive = [lab for lab in sorted(src_mass) if _dominated(lab, box[0])]
    snk_alive = [lab for lab in sorted(snk_mass) if _dominated(lab, box[1])]
    s_mass = sum((src_mass[lab] for lab in src_alive), Fraction(0))
    t_mass = sum((snk_mass[lab] for lab in snk_alive), Fraction(0))
    return PrunedSets(
        src_alive=tuple(src_alive),
        snk_alive=tuple(snk_alive),
        gamma=gamma,
        src_mass=s_mass,
        snk_mass=t_mass,
        used_fallback=True,
    )


def _dominated(lab, caps) -> bool:
    return all(a <= b for a, b in zip(lab, caps))


def _best_threshold_box(src_mass, snk_mass, budget_units, dim):
    """Exhaustive search over per-coordinate threshold boxes (a, B - a),
    maximizing the smaller of the two surviving masses.  Some box keeps both
    masses positive: for a pair (I, J) of positive mass, a = I is a
    candidate and J fits under B - I."""
    candidates = []
    for c in range(dim):
        vals = {lab[c] for lab in src_mass}
        vals |= {budget_units[c] - lab[c] for lab in snk_mass}
        candidates.append(sorted(vals))
    best = None

    def rec(c, caps):
        nonlocal best
        if c == dim:
            a = tuple(caps)
            b = tuple(budget_units[i] - a[i] for i in range(dim))
            s = sum((m for lab, m in src_mass.items() if _dominated(lab, a)), Fraction(0))
            t = sum((m for lab, m in snk_mass.items() if _dominated(lab, b)), Fraction(0))
            if s <= 0 or t <= 0:
                return
            key = (min(s, t), s + t, tuple(-v for v in a))
            if best is None or key > best[0]:
                best = (key, a, b)
            return
        for v in candidates[c]:
            rec(c + 1, caps + [v])

    rec(0, [])
    return best[1], best[2]


@dataclass
class BucketChoice:
    i_star: int
    demands: tuple  # demand indices in D_{i*}
    bucket_mass: Fraction
    scale: Fraction  # 2^(m+1) * 2^(i*+1)


def bucket_and_scale(gammas: dict, dim: int) -> BucketChoice:
    """Bucket demands by gamma in (2^-i-1, 2^-i]; pick the heaviest bucket
    (ties toward smaller i*) and return the capacity scale factor."""
    total = sum(gammas.values(), Fraction(0))
    if total != 1:
        raise ContractError("bucket_and_scale expects gammas summing to exactly 1")
    buckets = {}
    for di in sorted(gammas):
        g = gammas[di]
        if g <= 0:
            continue
        i = 0
        while g <= Fraction(1, 2 ** (i + 1)):
            i += 1
        buckets.setdefault(i, []).append(di)
    best = None
    for i in sorted(buckets):
        mass = sum((gammas[di] for di in buckets[i]), Fraction(0))
        if best is None or mass > best[1]:
            best = (i, mass)
    i_star, mass = best
    k = len(gammas)
    floor_log = max(0, (k - 1).bit_length())
    guarantee = Fraction(1, 2 * (floor_log + 1))
    if mass < guarantee:
        raise InternalInvariantError(
            f"bucket mass {mass} below the counting guarantee {guarantee}"
        )
    scale = Fraction(2**dim) * Fraction(2 ** (i_star + 1))
    return BucketChoice(
        i_star=i_star,
        demands=tuple(buckets[i_star]),
        bucket_mass=mass,
        scale=scale,
    )


@dataclass
class RoundedSelection:
    connected: tuple  # demand indices that connected
    up_chains: dict  # demand -> vid chain used on the source side
    down_chains: dict  # demand -> chain on the sink side
    rounds_used: int


def _sample(rng, weighted):
    """Pick an item proportionally to its positive Fraction weight,
    deterministically from the rng stream."""
    total = sum((w for _item, w in weighted), Fraction(0))
    r = Fraction(rng.random()) * total
    cum = Fraction(0)
    for item, w in weighted:
        cum += w
        if r < cum:
            return item
    return weighted[-1][0]


def gst_round(
    cover: LabelCoverLp,
    values: LpValues,
    pruned: dict,
    bucket: BucketChoice,
    rng,
) -> RoundedSelection:
    """Path-sampling rounding over the scaled flow decomposition, in one pass.

    Per demand in the chosen bucket, one root path is sampled on each side
    (up, then down) proportionally to the scaled flow of the states of the
    surviving labels, so every bucket demand connects.  A side always has
    such a path: its survivors carry positive y mass, the terminal row makes
    their state's flow Z at least that mass, and that state's path flows sum
    to Z.
    """
    pg = cover.bundle.pg
    ids = pg.vertex_ids
    up_chains = {}
    down_chains = {}
    for di in bucket.demands:
        d = pg.instance.demands[di]
        src_states = {ids[("L", d.source, lab)] for lab in pruned[di].src_alive}
        snk_states = {ids[("R", d.target, lab)] for lab in pruned[di].snk_alive}
        up = _weighted_paths(values, cover.paths_up, src_states, "up", bucket.scale)
        down = _weighted_paths(values, cover.paths_down, snk_states, "down", bucket.scale)
        if not up or not down:
            raise InternalInvariantError(f"bucket demand {di} has no positive-flow root path")
        up_chains[di] = _sample(rng, up)
        down_chains[di] = _sample(rng, down)
    return RoundedSelection(
        connected=tuple(bucket.demands),
        up_chains=up_chains,
        down_chains=down_chains,
        rounds_used=1,
    )


def _weighted_paths(values, paths, states, side, scale) -> list:
    weighted = []
    for vid in sorted(states):
        for p_idx, chain in enumerate(paths.get(vid, ())):
            w = values.flow.get((side, vid, p_idx), Fraction(0))
            if w > 0:
                weighted.append((chain, min(Fraction(1), scale * w)))
    return weighted


@dataclass(frozen=True)
class JunctionTree:
    """Root, base-graph edge set (the union of the resolved walks), resolved
    demands with their checked s ~> root ~> t walks, cost, and density."""

    root: int
    edges: frozenset
    resolved: dict  # demand index -> witness Walk
    cost: Fraction
    density: Fraction

    def __post_init__(self):
        if not self.resolved:
            raise ContractError("junction trees must resolve at least one demand")


def tree_order(tree: JunctionTree):
    """The order candidate trees are preferred in: density first; at equal
    density more resolved demands, then root, fewer edges, and edge ids."""
    return (tree.density, -len(tree.resolved), tree.root, len(tree.edges), sorted(tree.edges))


def assemble_junction_tree(bundle, rounded: RoundedSelection) -> JunctionTree:
    """Expand each claimed demand's sampled chains over the closure of
    ``bundle`` (a `junction.RootedLabelCover`) into its s ~> root ~> t walk,
    check that walk against the demand's budget, and report the density of
    the union of the walks under the round's prices."""
    if not rounded.connected:
        raise InternalInvariantError("assembly needs at least one connected demand")
    pg = bundle.pg
    instance = pg.instance
    theta = pg.theta
    resolved = {}
    for di in rounded.connected:
        # product edges point the way their base edges do on both sides, so
        # the up chain (s .. root) then the down chain (root .. t) is in order
        walk = Walk(
            _base_edges(bundle, rounded.up_chains[di])
            + _base_edges(bundle, rounded.down_chains[di])
        )
        demand = instance.demands[di]
        if theta is None:
            ok = is_feasible(walk, demand, instance)
        else:
            ok = is_theta_feasible(walk, demand, instance, theta)
        if not ok:
            raise InternalInvariantError(f"the assembled walk of demand {di} fails its budget")
        resolved[di] = walk
    edges = frozenset(eid for walk in resolved.values() for eid in walk.edges)
    rnd = bundle.rnd
    cost = Fraction(sum(rnd.prices[eid] for eid in edges), rnd.cost_scale)
    return JunctionTree(
        root=bundle.root,
        edges=edges,
        resolved=resolved,
        cost=cost,
        density=cost / len(resolved),
    )


def _base_edges(bundle, chain) -> tuple:
    edges = bundle.pg.edges
    path = bundle.rnd.closure.path
    return tuple(edges[pidx].base_edge for u, v in zip(chain, chain[1:]) for pidx in path(u, v))


def union_pair_tree(bundle, demands) -> JunctionTree:
    """The union of the best direct walks of ``demands``: one tree resolving
    them all.  A direct walk takes one relation pair of its demand, the
    closure path from its source state up to the root and down again to its
    target state.  It is scored by the cost of its edge set under the round's
    prices, so a base edge used twice counts once; ties go to fewer edges,
    then to the smaller sorted edge list.

    Where a root has one open demand, every tree there resolves it alone, so
    this is that root's best tree and needs no LP.  Each source and target
    state's path is expanded once per call.
    """
    prices = bundle.rnd.prices
    up_tail = (bundle.root_left,) * bundle.h
    down_head = (bundle.root_right,) * bundle.h
    ups = {}  # source state -> base edges of its path up to the root
    downs = {}
    up_chains = {}
    down_chains = {}
    for di in demands:
        best = None
        for svid, tvid in bundle.relations[di]:
            if svid not in ups:
                ups[svid] = frozenset(_base_edges(bundle, (svid,) + up_tail))
            if tvid not in downs:
                downs[tvid] = frozenset(_base_edges(bundle, down_head + (tvid,)))
            edges = ups[svid] | downs[tvid]
            key = (sum(prices[eid] for eid in edges), len(edges), sorted(edges))
            if best is None or key < best[0]:
                best = (key, svid, tvid)
        up_chains[di] = (best[1],) + up_tail
        down_chains[di] = down_head + (best[2],)
    walks = RoundedSelection(tuple(demands), up_chains, down_chains, rounds_used=0)
    return assemble_junction_tree(bundle, walks)


# bench/tracer.py wraps fallback_tree by name, so it stays importable though
# the solve never calls it
def fallback_tree(bundle, gammas: dict) -> JunctionTree:
    """The direct-walk tree of the demand of highest ``gammas`` mass."""
    target = max(sorted(gammas), key=lambda di: (gammas[di], -di))
    return union_pair_tree(bundle, [target])
