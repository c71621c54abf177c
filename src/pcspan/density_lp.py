"""Density LP on the joined layered graph, representative pruning, bucketing,
randomized rounding, and junction-tree assembly.

The LP realizes the label-cover relaxation: y mass over relation pairs
(normalized to 1), z dominance per terminal, and per-terminal flow support to
the root expressed in path form over the (h+1)-level halves.  Flow systems are
deduplicated by attachment state: terminals sharing a product state share one
flow of value max-z, which is LP-equivalent to per-terminal systems because
flows are independent (capacities are not shared between terminals).
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
from .product import relation_holds


@dataclass
class LabelCoverLp:
    """LP (objective: sum of w_r(e) * x_e) with semantic variable keys."""

    lp: LinearProgram
    var_index: dict  # key -> column
    keys: tuple  # column -> key
    bundle: object  # the RootedLabelCover this LP was built from
    paths_up: dict  # state vid -> list of vid chains (state .. root)
    paths_down: dict  # state vid -> list of vid chains (root .. state)


@dataclass
class LpValues:
    """Exact-rational view of a solved label-cover LP."""

    y: dict  # (demand, I, J) -> Fraction, renormalized to sum exactly 1
    z: dict  # (demand, end, label) -> Fraction
    x: dict  # edge key -> Fraction
    flow: dict  # (side, state, path_idx) -> Fraction
    objective: Fraction
    method: str
    raw_y_total: Fraction


def _up_edge_keys(h: int, chain) -> list:
    # chain: (state=v_0, ..., v_h=root); v_i sits at level h - i
    return [("up", h - i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def _down_edge_keys(h: int, chain) -> list:
    # chain: (root=u_0, ..., u_h=state); u_i sits at level i
    return [("down", i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def build_lp(bundle, config: SolverConfig = DEFAULT_CONFIG) -> LabelCoverLp:
    """LP (normalization, z-dominance, path-form flow support, capacities)."""
    joined = bundle.joined
    h = joined.h
    relations = joined.relations
    if not any(relations.values()):
        raise ContractError("no candidate relation pairs: root resolves nothing")

    var_index = {}
    keys = []

    def var(key):
        idx = var_index.get(key)
        if idx is None:
            idx = len(keys)
            var_index[key] = idx
            keys.append(key)
        return idx

    # enumerate per-attachment-state root paths once per side
    paths_up = {}
    for (di, lab), vid in sorted(joined.src_attach.items()):
        if vid not in paths_up:
            paths_up[vid] = enumerate_root_paths(
                joined.up, vid, config.max_paths_per_terminal
            )
    paths_down = {}
    for (di, lab), vid in sorted(joined.snk_attach.items()):
        if vid not in paths_down:
            paths_down[vid] = enumerate_root_paths(
                joined.down, vid, config.max_paths_per_terminal
            )

    eq_rows = []
    ub_rows = []

    norm_row = {}
    for di in sorted(relations):
        for (i_lab, j_lab) in relations[di]:
            norm_row[var(("y", di, i_lab, j_lab))] = 1
    eq_rows.append((norm_row, Fraction(1)))

    # z dominance per terminal (both sides)
    for di in sorted(relations):
        pairs = relations[di]
        by_src = {}
        by_snk = {}
        for (i_lab, j_lab) in pairs:
            by_src.setdefault(i_lab, []).append(j_lab)
            by_snk.setdefault(j_lab, []).append(i_lab)
        for i_lab in sorted(by_src):
            row = {var(("y", di, i_lab, j_lab)): 1 for j_lab in by_src[i_lab]}
            row[var(("z", di, "src", i_lab))] = -1
            ub_rows.append((row, Fraction(0)))
        for j_lab in sorted(by_snk):
            row = {var(("y", di, i_lab, j_lab)): 1 for i_lab in by_snk[j_lab]}
            row[var(("z", di, "snk", j_lab))] = -1
            ub_rows.append((row, Fraction(0)))

    # terminal z feeds the shared flow of its attachment state
    for (di, lab), vid in sorted(joined.src_attach.items()):
        ub_rows.append(
            ({var(("z", di, "src", lab)): 1, var(("Z", "up", vid)): -1}, Fraction(0))
        )
    for (di, lab), vid in sorted(joined.snk_attach.items()):
        ub_rows.append(
            ({var(("z", di, "snk", lab)): 1, var(("Z", "down", vid)): -1}, Fraction(0))
        )

    # path-form flow support: sum of path vars equals the state's flow value,
    # and per-edge totals stay under the capacity x_e (per flow system)
    for side, paths, keyfn in (
        ("up", paths_up, _up_edge_keys),
        ("down", paths_down, _down_edge_keys),
    ):
        for vid in sorted(paths):
            chains = paths[vid]
            row = {var(("Z", side, vid)): -1}
            per_edge = {}
            for p_idx, chain in enumerate(chains):
                g = var(("g", side, vid, p_idx))
                row[g] = 1
                for ekey in keyfn(h, chain):
                    per_edge.setdefault(ekey, []).append(g)
            eq_rows.append((row, Fraction(0)))
            for ekey in sorted(per_edge):
                cap_row = {g: 1 for g in per_edge[ekey]}
                cap_row[var(("x", ekey))] = -1
                ub_rows.append((cap_row, Fraction(0)))

    var(("x", ("bridge",)))

    objective = {}
    for key, idx in var_index.items():
        if key[0] != "x":
            continue
        ekey = key[1]
        if ekey == ("bridge",):
            cost = Fraction(0)
        elif ekey[0] == "up":
            cost = joined.up.edge_cost(ekey[2], ekey[3])
        else:
            cost = joined.down.edge_cost(ekey[2], ekey[3])
        if cost is None:
            raise InternalInvariantError("x variable on a missing closure edge")
        if cost != 0:
            objective[idx] = cost

    lp = LinearProgram(num_vars=len(keys), objective=objective)
    for row, rhs in eq_rows:
        lp.add_eq(row, rhs)
    for row, rhs in ub_rows:
        lp.add_ub(row, rhs)
    return LabelCoverLp(
        lp=lp,
        var_index=var_index,
        keys=tuple(keys),
        bundle=bundle,
        paths_up=paths_up,
        paths_down=paths_down,
    )


def solve_lp(cover: LabelCoverLp, config: SolverConfig = DEFAULT_CONFIG) -> LpValues:
    """Solve and convert to exact rationals; y renormalized to total 1."""
    sol = _solve_lp_backend(cover.lp, exact_threshold=config.exact_lp_threshold)
    y = {}
    z = {}
    x = {}
    flow = {}
    for idx, key in enumerate(cover.keys):
        val = sol.values[idx]
        if key[0] == "y":
            y[key[1:]] = val
        elif key[0] == "z":
            z[key[1:]] = val
        elif key[0] == "x":
            x[key[1]] = val
        elif key[0] == "g":
            flow[key[1:]] = val
        elif key[0] == "Z":
            pass
    total = sum(y.values(), Fraction(0))
    if total <= 0:
        raise InternalInvariantError("LP returned zero relation mass")
    if total != 1:
        y = {k: v / total for k, v in y.items()}
        z = {k: v / total for k, v in z.items()}
        x = {k: v / total for k, v in x.items()}
        flow = {k: v / total for k, v in flow.items()}
    return LpValues(
        y=y,
        z=z,
        x=x,
        flow=flow,
        objective=sol.objective / total,
        method=sol.method,
        raw_y_total=total,
    )


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
    medians: dict  # (end, c) -> value; end in {"src", "snk"}
    src_mass: Fraction  # sum of full-relation y mass over surviving sources
    snk_mass: Fraction
    used_fallback: bool
    mass_bound_met: bool


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
    medians = {}
    for c in range(dim):
        lam = gamma / 2 ** (c + 1)
        src_alive = sort_representatives(src_alive, c)
        snk_alive = sort_representatives(snk_alive, c)
        mu_src = median_consumption(src_mass, src_alive, lam, c)
        mu_snk = median_consumption(snk_mass, snk_alive, lam, c)
        medians[("src", c)] = mu_src
        medians[("snk", c)] = mu_snk
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
            medians=medians,
            src_mass=s_mass,
            snk_mass=t_mass,
            used_fallback=False,
            mass_bound_met=True,
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
        medians=medians,
        src_mass=s_mass,
        snk_mass=t_mass,
        used_fallback=True,
        mass_bound_met=s_mass >= bound and t_mass >= bound,
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
    total_src = sum(src_mass.values(), Fraction(0))

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
    gammas: dict  # demand -> gamma
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
        gammas=dict(gammas),
        bucket_mass=mass,
        scale=scale,
    )


@dataclass
class RoundedSelection:
    connected: tuple  # demand indices that connected
    up_chains: dict  # demand -> vid chain used on the source side
    down_chains: dict  # demand -> chain on the sink side
    src_label: dict  # demand -> surviving source label whose state was routed
    snk_label: dict
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
    joined = cover.bundle.joined
    targets = bucket.demands
    best = None
    for round_no in range(1, config.rounding_retries + 1):
        up_chains = {}
        down_chains = {}
        src_label = {}
        snk_label = {}
        connected = []
        for di in targets:
            ps = pruned[di]
            # weights per (state, path): scaled flow, restricted to states
            # that carry a surviving terminal
            src_states = {}
            for lab in ps.src_alive:
                vid = joined.src_attach.get((di, lab))
                if vid is not None:
                    src_states.setdefault(vid, []).append(lab)
            snk_states = {}
            for lab in ps.snk_alive:
                vid = joined.snk_attach.get((di, lab))
                if vid is not None:
                    snk_states.setdefault(vid, []).append(lab)
            up_pick = _sample_side(
                rng, values, cover.paths_up, src_states, "up", bucket.scale
            )
            down_pick = _sample_side(
                rng, values, cover.paths_down, snk_states, "down", bucket.scale
            )
            if up_pick is None or down_pick is None:
                continue
            up_chains[di] = up_pick[1]
            down_chains[di] = down_pick[1]
            src_label[di] = min(src_states[up_pick[0]])
            snk_label[di] = min(snk_states[down_pick[0]])
            connected.append(di)
        result = RoundedSelection(
            connected=tuple(connected),
            up_chains=up_chains,
            down_chains=down_chains,
            src_label=src_label,
            snk_label=snk_label,
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
                weighted.append(((vid, chain), min(Fraction(1), scale * w)))
    pick = _sample(rng, weighted)
    return pick


def assemble_junction_tree(cover: LabelCoverLp, rounded: RoundedSelection, config: SolverConfig = DEFAULT_CONFIG):
    """Expand sampled layered chains to base edges, oracle-verify every
    claimed demand through the root, and report the density."""
    from .junction import JunctionTree
    from .rcsp import through_root_witness
    from .scaling import ScaledInstance

    bundle = cover.bundle
    joined = bundle.joined
    pg = bundle.pg
    product_edge_ids = set()
    for di in rounded.connected:
        for u, v in zip(rounded.up_chains[di], rounded.up_chains[di][1:]):
            product_edge_ids.update(joined.up.recover(u, v))
        for u, v in zip(rounded.down_chains[di], rounded.down_chains[di][1:]):
            product_edge_ids.update(joined.down.recover(u, v))
    base_edges = {pg.edges[pidx].base_edge for pidx in product_edge_ids}
    instance = bundle.instance
    cost = instance.total_cost(base_edges)
    theta = bundle.problem.theta if isinstance(bundle.problem, ScaledInstance) else None
    base = bundle.problem.base if isinstance(bundle.problem, ScaledInstance) else instance
    resolved = {}
    for di in rounded.connected:
        witness = through_root_witness(
            base,
            base.demands[di],
            bundle.root,
            theta=theta,
            edge_subset=base_edges,
            config=config,
        )
        if witness is None:
            raise InternalInvariantError(
                f"rounded demand {di} fails oracle verification inside the tree"
            )
        resolved[di] = witness
    if not resolved:
        raise ContractError("assembly needs at least one connected demand")
    density = cost / len(resolved)
    return JunctionTree(
        root=bundle.root,
        edges=frozenset(base_edges),
        resolved=dict(resolved),
        cost=cost,
        density=density,
        theta=theta,
    )


def _cheapest_pair_chains(joined, di):
    """The cheapest relation-compatible terminal-root-terminal chains for one
    demand, or None when no pair connects."""
    best = None
    for (i_lab, j_lab) in joined.relations[di]:
        svid = joined.src_attach.get((di, i_lab))
        tvid = joined.snk_attach.get((di, j_lab))
        if svid is None or tvid is None:
            continue
        c_up = joined.up.closure.cost(svid, joined.up.root)
        c_down = joined.down.closure.cost(joined.down.root, tvid)
        if c_up is None or c_down is None:
            continue
        key = (c_up + c_down, i_lab, j_lab)
        if best is None or key < best[0]:
            h = joined.h
            up_chain = (svid,) + (joined.up.root,) * h
            down_chain = (joined.down.root,) * h + (tvid,)
            best = (key, up_chain, down_chain, i_lab, j_lab)
    return best


def _selection_from_pairs(joined, targets) -> RoundedSelection:
    up_chains = {}
    down_chains = {}
    src_label = {}
    snk_label = {}
    connected = []
    for di in targets:
        best = _cheapest_pair_chains(joined, di)
        if best is None:
            continue
        _key, up_chain, down_chain, i_lab, j_lab = best
        up_chains[di] = up_chain
        down_chains[di] = down_chain
        src_label[di] = i_lab
        snk_label[di] = j_lab
        connected.append(di)
    return RoundedSelection(
        connected=tuple(connected),
        up_chains=up_chains,
        down_chains=down_chains,
        src_label=src_label,
        snk_label=snk_label,
        rounds_used=0,
    )


def fallback_tree(cover: LabelCoverLp, values: LpValues, config: SolverConfig = DEFAULT_CONFIG):
    """Cheapest relation-compatible terminal-root-terminal path for the
    highest-gamma demand; always a valid (possibly high-density) tree."""
    joined = cover.bundle.joined
    gammas = {}
    for (di, i_lab, j_lab), w in values.y.items():
        gammas[di] = gammas.get(di, Fraction(0)) + w
    target = max(sorted(gammas), key=lambda di: (gammas[di], -di))
    rounded = _selection_from_pairs(joined, [target])
    if not rounded.connected:
        raise InternalInvariantError("fallback found no connectable relation pair")
    return assemble_junction_tree(cover, rounded, config)


def union_pair_tree(cover: LabelCoverLp, config: SolverConfig = DEFAULT_CONFIG):
    """Union of every connectable demand's cheapest pair path: one tree
    resolving them all.  Often ties the rounded tree on density while
    resolving more demands (useful on shared-hub instances)."""
    joined = cover.bundle.joined
    targets = [di for di in sorted(joined.relations) if joined.relations[di]]
    rounded = _selection_from_pairs(joined, targets)
    if not rounded.connected:
        raise InternalInvariantError("no connectable relation pair for any demand")
    return assemble_junction_tree(cover, rounded, config)
