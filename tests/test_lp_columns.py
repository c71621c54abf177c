"""The density LP, built without its redundant columns, against the full LP.

`keyed_build_lp` is the full label-cover LP builder: it names every column
by a semantic key (("y", di, i, j), ("z", di, end, vid), ("Z", side, vid),
("g", side, vid, p), ("x", (side, level, a, b)), where i, j and vid are
product states), gives every terminal a
dominance variable z and every closure step of every side a capacity x, and
looks each coefficient's column up through a key index.  `build_lp` leaves
out z, the capacities of zero-cost steps and those of steps a single flow
uses.  On every root that has a cover the two LPs have the same certified
optimum, and the reduced solution lifts back to a feasible solution of the
full LP at that optimum.
"""

from fractions import Fraction

from pcspan.config import DEFAULT_CONFIG
from pcspan.density_lp import MAX_PATHS_PER_TERMINAL, build_lp, solve_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs, gen_rcs
from pcspan.layered import enumerate_root_paths
from pcspan.lpsolve import LinearProgram, solve_lp as solve_backend
from pcspan.reductions import rcs_to_pcs
from pcspan.scaling import scale_instance

from conftest import label_cover
from test_lpsolve import residuals


def _up_edge_keys(h, chain):
    # chain: (state=v_0, ..., v_h=root); v_i sits at level h - i
    return [("up", h - i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def _down_edge_keys(h, chain):
    # chain: (root=u_0, ..., u_h=state); u_i sits at level i
    return [("down", i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def keyed_build_lp(bundle):
    """(LinearProgram, column keys) of one root's label cover."""
    h = bundle.h
    relations = bundle.relations
    closure = bundle.rnd.closure
    cap = MAX_PATHS_PER_TERMINAL
    paths_up = {}
    paths_down = {}
    for di in sorted(relations):
        for i, j in relations[di]:
            if i not in paths_up:
                paths_up[i] = enumerate_root_paths(closure, i, bundle.root_left, h, cap)
            if j not in paths_down:
                paths_down[j] = enumerate_root_paths(closure, bundle.root_right, j, h, cap)

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
        for (i, j) in relations[di]:
            put(("y", di, i, j), 0, 1)

    ub = num_eq
    for di in sorted(relations):
        by_end = {"src": {}, "snk": {}}
        for (i, j) in relations[di]:
            y = ("y", di, i, j)
            by_end["src"].setdefault(i, []).append(y)
            by_end["snk"].setdefault(j, []).append(y)
        for end, by_state in by_end.items():
            for vid in sorted(by_state):
                for y in by_state[vid]:
                    put(y, ub, 1)
                put(("z", di, end, vid), ub, -1)
                ub += 1

    for end, side, position in (("src", "up", 0), ("snk", "down", 1)):
        terminals = {(di, pair[position]) for di, pairs in relations.items() for pair in pairs}
        for di, vid in sorted(terminals):
            put(("z", di, end, vid), ub, 1)
            put(("Z", side, vid), ub, -1)
            ub += 1

    eq = 1
    for side, paths, keyfn in (
        ("up", paths_up, _up_edge_keys),
        ("down", paths_down, _down_edge_keys),
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

    for column in columns:
        column.sort()
    lp = LinearProgram(
        columns=columns,
        objective=objective,
        eq_rows=[1] + [0] * (num_eq - 1),
        ub_rows=[0] * (ub - num_eq),
        cost_scale=bundle.rnd.cost_scale,
    )
    return lp, tuple(keys)


def _problems():
    """(problem, vertex count): integer, RCS-reduced and theta-scaled."""
    for seed in range(4):
        yield gen_pcs(n=5, k=2, m=2, tau=1, seed=100 + seed), 5
    for seed in range(4):
        must = 1 + seed % 2
        rcs = gen_rcs(n=5, k=2, must_visit=must, avoid=1, seed=200 + seed, max_group_size=3)
        yield rcs_to_pcs(rcs)[0], 5
    for seed in range(3):
        inst = gen_pcs(n=4, k=2, m=1, tau=1, regime="rational-negative", seed=300 + seed)
        yield scale_instance(inst, DEFAULT_CONFIG.theta), 4


def lift(keys, cover, values) -> list:
    """The full LP's column values for a solution of the reduced one: z is
    the terminal's y mass, Z its flow's total and x the largest use of its
    step by any one flow of that side."""
    h = cover.bundle.h
    mass = {}
    for (di, i, j), v in values.y.items():
        for end, vid in (("src", i), ("snk", j)):
            mass[(di, end, vid)] = mass.get((di, end, vid), 0) + v
    total = {}
    use = {}  # (step key, flow state) -> path flow through the step
    for side, paths, keyfn in (
        ("up", cover.paths_up, _up_edge_keys),
        ("down", cover.paths_down, _down_edge_keys),
    ):
        for vid, chains in paths.items():
            for p_idx, chain in enumerate(chains):
                v = values.flow[(side, vid, p_idx)]
                total[(side, vid)] = total.get((side, vid), 0) + v
                for ekey in keyfn(h, chain):
                    use[(ekey, vid)] = use.get((ekey, vid), 0) + v
    peak = {}
    for (ekey, _vid), v in use.items():
        peak[ekey] = max(peak.get(ekey, 0), v)
    lifted = []
    for kind, *rest in keys:
        key = tuple(rest)
        if kind == "y":
            lifted.append(values.y[key])
        elif kind == "z":
            lifted.append(mass[key])
        elif kind == "Z":
            lifted.append(total[key])
        elif kind == "g":
            lifted.append(values.flow[key])
        else:
            lifted.append(peak[key[0]])
    return lifted


def _covers():
    """(bundle, reduced LabelCoverLp) of every root that has a cover."""
    for problem, n in _problems():
        for root in range(n):
            bundle = label_cover(problem, root)
            if bundle is not None:
                yield bundle, build_lp(bundle)


def test_reduced_lp_matches_the_full_reference():
    covers = 0
    for bundle, cover in _covers():
        covers += 1
        ref_lp, keys = keyed_build_lp(bundle)
        values = solve_lp(cover)
        assert values.objective == solve_backend(ref_lp).objective

        lifted = lift(keys, cover, values)
        assert residuals(ref_lp, lifted) == (0, 0)
        cost = sum((c * lifted[j] for j, c in ref_lp.objective.items()), Fraction(0))
        assert cost / ref_lp.cost_scale == values.objective
    assert covers >= 40


def test_built_lp_has_no_z_free_or_single_row_capacity():
    # past the y columns and the path columns, a column is either a flow
    # value Z (its flow's eq row, then terminal rows) or a capacity x of
    # positive cost in two or more capacity rows; a z would be the only
    # other column with a +1 entry
    for bundle, cover in _covers():
        lp = cover.lp
        num_eq = len(lp.eq_rows)
        num_y = sum(len(pairs) for pairs in bundle.relations.values())
        paths = {j for cols in cover.g_cols.values() for j in cols}
        flows = capacities = 0
        for j, column in enumerate(lp.columns[num_y:], num_y):
            if j in paths:
                continue
            assert all(a == -1 for _i, a in column)
            if column[0][0] < num_eq:
                flows += 1
                assert j not in lp.objective
                assert all(i >= num_eq for i, _a in column[1:])
            else:
                capacities += 1
                assert lp.objective.get(j, 0) > 0
                assert len(column) >= 2
        assert flows == len(cover.g_cols) == num_eq - 1
        assert num_y + len(paths) + flows + capacities == lp.num_vars
