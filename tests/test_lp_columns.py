"""The density LP read by column position equals the keyed reference.

`keyed_build_lp` is the label-cover LP builder that names every column by a
semantic key (("y", di, I, J), ("z", di, end, lab), ("Z", side, vid),
("g", side, vid, p), ("x", (side, level, a, b))) and looks each coefficient's
column up through a key index; `keyed_split` splits a solution by key kind.
`build_lp` / `solve_lp` must give the same matrix, objective, right-hand
sides and values on every root that has a cover.
"""

from pcspan.config import DEFAULT_CONFIG
from pcspan.density_lp import build_lp, solve_lp
from pcspan.errors import InternalInvariantError
from pcspan.generate import gen_pcs, gen_rcs
from pcspan.junction import build_label_cover
from pcspan.layered import enumerate_root_paths
from pcspan.lpsolve import LinearProgram, solve_lp as solve_backend
from pcspan.reductions import rcs_to_pcs
from pcspan.scaling import scale_instance


def _up_edge_keys(h, chain):
    # chain: (state=v_0, ..., v_h=root); v_i sits at level h - i
    return [("up", h - i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def _down_edge_keys(h, chain):
    # chain: (root=u_0, ..., u_h=state); u_i sits at level i
    return [("down", i, chain[i], chain[i + 1]) for i in range(len(chain) - 1)]


def keyed_build_lp(bundle, config=DEFAULT_CONFIG):
    """(LinearProgram, column keys) of one root's label cover."""
    h = bundle.h
    relations = bundle.relations
    cap = config.max_paths_per_terminal
    paths_up = {}
    for (di, lab), vid in sorted(bundle.src_attach.items()):
        if vid not in paths_up:
            paths_up[vid] = enumerate_root_paths(bundle.up, vid, bundle.root_left, h, cap)
    paths_down = {}
    for (di, lab), vid in sorted(bundle.snk_attach.items()):
        if vid not in paths_down:
            paths_down[vid] = enumerate_root_paths(bundle.down, bundle.root_right, vid, h, cap)

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

    for end, side, attach in (
        ("src", "up", bundle.src_attach),
        ("snk", "down", bundle.snk_attach),
    ):
        for (di, lab), vid in sorted(attach.items()):
            put(("z", di, end, lab), ub, 1)
            put(("Z", side, vid), ub, -1)
            ub += 1

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

    for column in columns:
        column.sort()
    lp = LinearProgram(
        columns=columns,
        objective=objective,
        eq_rows=[1] + [0] * (num_eq - 1),
        ub_rows=[0] * (ub - num_eq),
        cost_scale=bundle.pg.cost_scale,
    )
    return lp, tuple(keys)


def keyed_split(lp, keys):
    """The solution's y, z and path-flow values, split by column key."""
    sol = solve_backend(lp)
    split = {"y": {}, "z": {}, "g": {}}
    for key, val in zip(keys, sol.values):
        if key[0] in split:
            split[key[0]][key[1:]] = val
    return split, sol.objective


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


def test_positional_lp_equals_the_keyed_reference():
    covers = 0
    for problem, n in _problems():
        for root in range(n):
            bundle = build_label_cover(problem, root)
            if bundle is None:
                continue
            covers += 1
            ref_lp, keys = keyed_build_lp(bundle)
            cover = build_lp(bundle)
            lp = cover.lp
            assert lp.columns == ref_lp.columns
            assert lp.objective == ref_lp.objective
            assert lp.eq_rows == ref_lp.eq_rows
            assert lp.ub_rows == ref_lp.ub_rows
            assert lp.cost_scale == ref_lp.cost_scale

            split, objective = keyed_split(ref_lp, keys)
            values = solve_lp(cover)
            assert values.y == split["y"]
            assert list(values.y) == list(split["y"])
            assert values.z == split["z"]
            assert values.flow == split["g"]
            assert values.objective == objective
    assert covers >= 40
