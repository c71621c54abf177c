"""The density-LP stages after the certificate, in `Fraction` arithmetic.

Pruning, bucketing and rounding as they read LP values that are Fractions
summing to 1: every threshold is divided out (lambda = gamma / 2^(c+1), the
bucket bound 1 / 2^(i+1), the cap 1 on a scaled flow) and `_sample` draws
`Fraction(rng.random()) * total`.  `pcspan.density_lp` runs the same stages
on ints over one denominator D, comparing by cross-multiplying;
`tests/test_integer_core.py` pins the two equal.
"""

from fractions import Fraction

from pcspan.density_lp import BucketChoice, PrunedSets
from pcspan.errors import ContractError, InternalInvariantError
from pcspan.product import relation_holds


def median_consumption(masses, reps, lam: Fraction, c: int):
    """Smallest entry-c value whose cumulative y-mass over `reps` reaches lam."""
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


def prune(relation_pairs, y_masses, budget_units, dim: int) -> PrunedSets:
    """Median phases with lambda = gamma / 2^(c+1), then the threshold-box
    fallback when the cross product or the survivor bound gamma / 2^dim
    fails."""
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

    src_alive = sorted(src_mass)
    snk_alive = sorted(snk_mass)
    for c in range(dim):
        lam = gamma / 2 ** (c + 1)
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
    """The threshold box (a, B - a) maximizing the smaller surviving mass."""
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


def bucket_and_scale(gammas: dict, dim: int) -> BucketChoice:
    """Bucket demands by gamma in (2^-i-1, 2^-i]; the heaviest bucket, ties
    toward smaller i*, with its capacity scale factor."""
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


def _sample(rng, weighted):
    """Pick an item proportionally to its positive Fraction weight."""
    total = sum((w for _item, w in weighted), Fraction(0))
    r = Fraction(rng.random()) * total
    cum = Fraction(0)
    for item, w in weighted:
        cum += w
        if r < cum:
            return item
    return weighted[-1][0]


def _weighted_paths(cover, columns, side, states, scale) -> list:
    """The ``side`` root paths of ``states`` whose Fraction value in
    ``columns`` is positive, each weighed by that flow times ``scale``,
    capped at 1."""
    paths = cover.paths_up if side == "up" else cover.paths_down
    weighted = []
    for vid in sorted(states):
        for chain, col in zip(paths[vid], cover.g_cols[(side, vid)]):
            w = columns[col]
            if w > 0:
                weighted.append((chain, min(Fraction(1), scale * w)))
    return weighted
