"""Density LP over one root's label cover, representative pruning, bucketing,
randomized rounding, and junction-tree assembly.

The LP realizes the label-cover relaxation: y mass over relation pairs
(normalized to 1), z dominance per terminal, and per-terminal flow support to
the root expressed in path form over chains of exactly h closure steps (the
paths of the (h+1)-level layered graph).  Flow systems are deduplicated by
attachment state: terminals sharing a product state share one flow of value
max-z, which is LP-equivalent to per-terminal systems because flows are
independent (capacities are not shared between terminals).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .config import DEFAULT_CONFIG, SolverConfig
from .errors import (
    ContractError,
    InternalInvariantError,
    RoundingFailureError,
)
from .layered import enumerate_root_paths
from .lpsolve import LinearProgram, solve_lp as _solve_lp_backend
from .model import Walk, is_feasible, is_theta_feasible
from .product import relation_holds
from .scaling import ScaledInstance


@dataclass
class LabelCoverLp:
    """LP (objective: sum of w_r(e) * x_e) with semantic variable keys."""

    lp: LinearProgram
    keys: tuple  # column -> key
    bundle: object  # the RootedLabelCover this LP was built from
    paths_up: dict  # state vid -> list of vid chains (state .. root)
    paths_down: dict  # state vid -> list of vid chains (root .. state)


@dataclass
class LpValues:
    """Exact-rational view of a solved label-cover LP."""

    y: dict  # (demand, I, J) -> Fraction, summing to exactly 1
    z: dict  # (demand, end, label) -> Fraction
    flow: dict  # (side, state, path_idx) -> Fraction
    objective: Fraction


def _up_edge_keys(h: int, chain) -> list:
    # chain: (state=v_0, ..., v_h=root); v_i sits at level h - i
    return [("up", h - i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def _down_edge_keys(h: int, chain) -> list:
    # chain: (root=u_0, ..., u_h=state); u_i sits at level i
    return [("down", i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def build_lp(bundle, config: SolverConfig = DEFAULT_CONFIG) -> LabelCoverLp:
    """LP (normalization, z-dominance, path-form flow support, capacities)."""
    h = bundle.h
    relations = bundle.relations
    if not any(relations.values()):
        raise ContractError("no candidate relation pairs: root resolves nothing")

    # enumerate per-attachment-state root paths once per side
    cap = config.max_paths_per_terminal
    paths_up = {}
    for (di, lab), vid in sorted(bundle.src_attach.items()):
        if vid not in paths_up:
            paths_up[vid] = enumerate_root_paths(bundle.up, vid, bundle.root_left, h, cap)
    paths_down = {}
    for (di, lab), vid in sorted(bundle.snk_attach.items()):
        if vid not in paths_down:
            paths_down[vid] = enumerate_root_paths(bundle.down, bundle.root_right, vid, h, cap)

    # eq rows: normalization, then one flow row per attachment state; the
    # ub rows are numbered after them, so every row gets its index at once
    num_eq = 1 + len(paths_up) + len(paths_down)
    var_index = {}
    keys = []
    columns = []
    objective = {}

    def var(key):
        idx = var_index.get(key)
        if idx is None:
            idx = var_index[key] = len(keys)
            keys.append(key)
            columns.append([])
        return idx

    def put(key, row, coefficient):
        columns[var(key)].append((row, coefficient))

    for di in sorted(relations):
        for (i_lab, j_lab) in relations[di]:
            put(("y", di, i_lab, j_lab), 0, 1)

    # z dominance per terminal (both sides)
    ub = num_eq
    for di in sorted(relations):
        by_end = {"src": {}, "snk": {}}
        for (i_lab, j_lab) in relations[di]:
            y = ("y", di, i_lab, j_lab)
            by_end["src"].setdefault(i_lab, []).append(y)
            by_end["snk"].setdefault(j_lab, []).append(y)
        for end, by_label in by_end.items():
            for lab in sorted(by_label):
                for y in by_label[lab]:
                    put(y, ub, 1)
                put(("z", di, end, lab), ub, -1)
                ub += 1

    # terminal z feeds the shared flow of its attachment state
    for end, side, attach in (
        ("src", "up", bundle.src_attach),
        ("snk", "down", bundle.snk_attach),
    ):
        for (di, lab), vid in sorted(attach.items()):
            put(("z", di, end, lab), ub, 1)
            put(("Z", side, vid), ub, -1)
            ub += 1

    # path-form flow support: sum of path vars equals the state's flow value,
    # and per-edge totals stay under the capacity x_e (per flow system)
    eq = 1
    for side, paths, keyfn, closure in (
        ("up", paths_up, _up_edge_keys, bundle.up),
        ("down", paths_down, _down_edge_keys, bundle.down),
    ):
        for vid in sorted(paths):
            put(("Z", side, vid), eq, -1)
            per_edge = {}
            for p_idx, chain in enumerate(paths[vid]):
                g = var(("g", side, vid, p_idx))
                columns[g].append((eq, 1))
                for ekey in keyfn(h, chain):
                    per_edge.setdefault(ekey, []).append(g)
            eq += 1
            for ekey in sorted(per_edge):
                for g in per_edge[ekey]:
                    columns[g].append((ub, 1))
                x = ("x", ekey)
                if x not in var_index:
                    cost = closure.cost(ekey[2], ekey[3])
                    if cost is None:
                        raise InternalInvariantError("x variable on a missing closure edge")
                    if cost != 0:
                        objective[len(keys)] = cost
                put(x, ub, -1)
                ub += 1

    # a Z column meets its feed row (ub) before its flow row (eq)
    for column in columns:
        column.sort()
    lp = LinearProgram(
        columns=columns,
        objective=objective,
        eq_rows=[1] + [0] * (num_eq - 1),
        ub_rows=[0] * (ub - num_eq),
        cost_scale=bundle.pg.cost_scale,
    )
    return LabelCoverLp(
        lp=lp,
        keys=tuple(keys),
        bundle=bundle,
        paths_up=paths_up,
        paths_down=paths_down,
    )


def solve_lp(cover: LabelCoverLp) -> LpValues:
    """Solve exactly and split the values by variable kind."""
    sol = _solve_lp_backend(cover.lp)
    y = {}
    z = {}
    flow = {}
    for idx, key in enumerate(cover.keys):
        val = sol.values[idx]
        if key[0] == "y":
            y[key[1:]] = val
        elif key[0] == "z":
            z[key[1:]] = val
        elif key[0] == "g":
            flow[key[1:]] = val
    if sum(y.values(), Fraction(0)) != 1:
        raise InternalInvariantError("LP relation mass is not exactly 1")
    return LpValues(y=y, z=z, flow=flow, objective=sol.objective)


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
    maximizing the smaller of the two surviving masses."""
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
    if best is None:
        # degenerate: fall back to the single heaviest pair's own box
        pair = max(
            ((m, lab) for lab, m in src_mass.items()),
            key=lambda t: (t[0], tuple(-v for v in t[1])),
        )[1]
        partner_caps = tuple(budget_units[i] - pair[i] for i in range(dim))
        return pair, partner_caps
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
    """Pick an item proportionally to its Fraction weight, deterministically
    from the rng stream."""
    total = sum((w for _item, w in weighted), Fraction(0))
    if total <= 0:
        return None
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
    config: SolverConfig = DEFAULT_CONFIG,
) -> RoundedSelection:
    """Randomized path-sampling rounding over the scaled flow decomposition.

    Each round samples, per demand in the chosen bucket and per side, one
    root path proportionally to the scaled flow of the surviving terminals'
    attachment states.  Rounds repeat until at least half the bucket connects
    or the retry cap triggers partial acceptance of the best round.
    """
    bundle = cover.bundle
    targets = bucket.demands
    best = None
    for round_no in range(1, config.rounding_retries + 1):
        up_chains = {}
        down_chains = {}
        connected = []
        for di in targets:
            ps = pruned[di]
            # weights per (state, path): scaled flow, restricted to states
            # that carry a surviving terminal
            src_states = {bundle.src_attach.get((di, lab)) for lab in ps.src_alive}
            snk_states = {bundle.snk_attach.get((di, lab)) for lab in ps.snk_alive}
            src_states.discard(None)
            snk_states.discard(None)
            up_pick = _sample_side(
                rng, values, cover.paths_up, src_states, "up", bucket.scale
            )
            down_pick = _sample_side(
                rng, values, cover.paths_down, snk_states, "down", bucket.scale
            )
            if up_pick is None or down_pick is None:
                continue
            up_chains[di] = up_pick
            down_chains[di] = down_pick
            connected.append(di)
        result = RoundedSelection(
            connected=tuple(connected),
            up_chains=up_chains,
            down_chains=down_chains,
            rounds_used=round_no,
        )
        if best is None or len(result.connected) > len(best.connected):
            best = result
        if 2 * len(connected) >= len(targets):
            return result
    if not best.connected:
        raise RoundingFailureError("no demand connected within the retry cap")
    return best


def _sample_side(rng, values, paths, states, side, scale):
    weighted = []
    for vid in sorted(states):
        for p_idx, chain in enumerate(paths.get(vid, ())):
            w = values.flow.get((side, vid, p_idx), Fraction(0))
            if w > 0:
                weighted.append((chain, min(Fraction(1), scale * w)))
    return _sample(rng, weighted)


def assemble_junction_tree(cover: LabelCoverLp, rounded: RoundedSelection):
    """Expand each claimed demand's sampled chains into its s ~> root ~> t
    walk, check that walk against the demand's budget, and report the
    density of the union of the walks."""
    from .junction import JunctionTree

    if not rounded.connected:
        raise InternalInvariantError("assembly needs at least one connected demand")
    bundle = cover.bundle
    pg = bundle.pg
    instance = pg.instance
    theta = pg.problem.theta if isinstance(pg.problem, ScaledInstance) else None
    resolved = {}
    for di in rounded.connected:
        # product edges point the way their base edges do on both sides, so
        # the up chain (s .. root) then the down chain (root .. t) is in order
        walk = Walk(
            _base_edges(pg, bundle.up, rounded.up_chains[di])
            + _base_edges(pg, bundle.down, rounded.down_chains[di])
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
    cost = instance.total_cost(edges)
    return JunctionTree(
        root=bundle.root,
        edges=edges,
        resolved=resolved,
        cost=cost,
        density=cost / len(resolved),
    )


def _base_edges(pg, closure, chain) -> tuple:
    return tuple(
        pg.edges[pidx].base_edge for u, v in zip(chain, chain[1:]) for pidx in closure.path(u, v)
    )


def _cheapest_pair_chains(bundle, di):
    """The cheapest relation-compatible terminal-root-terminal chains for one
    demand, or None when no pair connects."""
    best = None
    for (i_lab, j_lab) in bundle.relations[di]:
        svid = bundle.src_attach.get((di, i_lab))
        tvid = bundle.snk_attach.get((di, j_lab))
        if svid is None or tvid is None:
            continue
        c_up = bundle.up.cost(svid, bundle.root_left)
        c_down = bundle.down.cost(bundle.root_right, tvid)
        if c_up is None or c_down is None:
            continue
        key = (c_up + c_down, i_lab, j_lab)
        if best is None or key < best[0]:
            up_chain = (svid,) + (bundle.root_left,) * bundle.h
            down_chain = (bundle.root_right,) * bundle.h + (tvid,)
            best = (key, up_chain, down_chain)
    return best


def _selection_from_pairs(bundle, targets) -> RoundedSelection:
    up_chains = {}
    down_chains = {}
    connected = []
    for di in targets:
        best = _cheapest_pair_chains(bundle, di)
        if best is None:
            continue
        _key, up_chains[di], down_chains[di] = best
        connected.append(di)
    return RoundedSelection(
        connected=tuple(connected),
        up_chains=up_chains,
        down_chains=down_chains,
        rounds_used=0,
    )


def fallback_tree(cover: LabelCoverLp, values: LpValues):
    """Cheapest relation-compatible terminal-root-terminal path for the
    highest-gamma demand; always a valid (possibly high-density) tree."""
    gammas = {}
    for (di, i_lab, j_lab), w in values.y.items():
        gammas[di] = gammas.get(di, Fraction(0)) + w
    target = max(sorted(gammas), key=lambda di: (gammas[di], -di))
    return assemble_junction_tree(cover, _selection_from_pairs(cover.bundle, [target]))


def union_pair_tree(cover: LabelCoverLp):
    """Union of every connectable demand's cheapest pair path: one tree
    resolving them all.  Often ties the rounded tree on density while
    resolving more demands (useful on shared-hub instances)."""
    relations = cover.bundle.relations
    targets = [di for di in sorted(relations) if relations[di]]
    return assemble_junction_tree(cover, _selection_from_pairs(cover.bundle, targets))
