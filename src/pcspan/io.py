"""JSON (de)serialization for instances, scaled instances, and reports.

Rationals serialize as "num/den" strings with plain ints as shorthand; all
dumps sort keys so identical runs produce byte-identical files.
"""

from __future__ import annotations

import json

from .errors import ParseError
from .greedy import SolveReport
from .model import Demand, Edge, PcsInstance, ResourceVector, Walk
from .rational import format_rational, parse_rational
from .reductions import (
    AVOID,
    MUST_VISIT,
    HopsetDemand,
    HopsetInstance,
    RcsDemand,
    RcsEdge,
    RcsGroup,
    RcsInstance,
)


def _require(cond, msg):
    if not cond:
        raise ParseError(msg)


def _int(v, what):
    _require(isinstance(v, int) and not isinstance(v, bool), f"{what} must be an integer")
    return v


def _field(obj, key, default=None):
    _require(isinstance(obj, dict), "an instance and each of its entries must be a JSON object")
    return obj.get(key, default)


def _int_field(obj, key):
    return _int(_field(obj, key), f"field {key!r}")


def _list(obj, key, default=None):
    v = _field(obj, key, default)
    _require(isinstance(v, list), f"field {key!r} must be a list")
    return v


def _int_list(obj, key, default=None):
    return [_int(x, f"each entry of {key!r}") for x in _list(obj, key, default)]


def pcs_to_dict(instance: PcsInstance) -> dict:
    return {
        "n": instance.n,
        "m": instance.m,
        "tau": instance.tau,
        "packing": instance.packing,
        "covering": instance.covering,
        "edges": [
            {
                "u": e.tail,
                "v": e.head,
                "cost": format_rational(e.cost),
                "res": [format_rational(e.res[0])] + list(e.res.entries[1:]),
            }
            for e in instance.edges
        ],
        "demands": [
            {
                "s": d.source,
                "t": d.target,
                "budget": [format_rational(d.budget[0])] + list(d.budget.entries[1:]),
            }
            for d in instance.demands
        ],
    }


def _vector_from_json(raw, dim) -> ResourceVector:
    _require(isinstance(raw, list), "resource vector must be a list")
    _require(len(raw) == dim, f"resource vector needs {dim} entries, got {len(raw)}")
    rest = [_int(v, "each resource entry 1..m") for v in raw[1:]]
    return ResourceVector((parse_rational(raw[0]), *rest))


def pcs_from_dict(obj: dict) -> PcsInstance:
    n = _int_field(obj, "n")
    tau = _int_field(obj, "tau")
    packing = _int_field(obj, "packing")
    covering = _int_field(obj, "covering")
    m = _int_field(obj, "m")
    _require(m == packing + covering, "m must equal packing + covering")
    dim = m + 1
    edges = []
    for raw in _list(obj, "edges", []):
        edges.append(
            Edge(
                _int_field(raw, "u"),
                _int_field(raw, "v"),
                parse_rational(raw.get("cost")),
                _vector_from_json(raw.get("res"), dim),
            )
        )
    demands = []
    for raw in _list(obj, "demands", []):
        demands.append(
            Demand(
                _int_field(raw, "s"),
                _int_field(raw, "t"),
                _vector_from_json(raw.get("budget"), dim),
            )
        )
    return PcsInstance(
        n=n,
        edges=tuple(edges),
        demands=tuple(demands),
        tau=tau,
        packing=packing,
        covering=covering,
    )


def rcs_to_dict(rcs: RcsInstance) -> dict:
    return {
        "n": rcs.n,
        "m": rcs.m,
        "edges": [
            {"u": e.tail, "v": e.head, "cost": format_rational(e.cost), "len": e.length}
            for e in rcs.edges
        ],
        "groups": [
            {"kind": g.kind, "members": sorted(g.members)} for g in rcs.groups
        ],
        "demands": [
            {"s": d.source, "t": d.target, "ctrl": list(d.ctrl)} for d in rcs.demands
        ],
    }


def rcs_from_dict(obj: dict) -> RcsInstance:
    n = _int_field(obj, "n")
    groups = []
    for raw in _list(obj, "groups", []):
        kind = _field(raw, "kind")
        _require(kind in (MUST_VISIT, AVOID), f"group kind must be {MUST_VISIT!r} or {AVOID!r}")
        groups.append(RcsGroup(kind=kind, members=frozenset(_int_list(raw, "members", []))))
    edges = []
    for raw in _list(obj, "edges", []):
        edges.append(
            RcsEdge(
                _int_field(raw, "u"),
                _int_field(raw, "v"),
                parse_rational(raw.get("cost")),
                _int_field(raw, "len"),
            )
        )
    demands = []
    for raw in _list(obj, "demands", []):
        demands.append(
            RcsDemand(_int_field(raw, "s"), _int_field(raw, "t"), tuple(_int_list(raw, "ctrl")))
        )
    return RcsInstance(n=n, edges=tuple(edges), groups=tuple(groups), demands=tuple(demands))


def hopset_to_dict(hs: HopsetInstance) -> dict:
    out = {
        "n": hs.n,
        "beta": hs.beta,
        "edges": [{"u": u, "v": v, "len": length} for (u, v, length) in hs.edges],
        "demands": [],
    }
    for d in hs.demands:
        entry = {"s": d.source, "t": d.target, "dist": d.dist_bound}
        if d.beta is not None:
            entry["beta"] = d.beta
        out["demands"].append(entry)
    return out


def hopset_from_dict(obj: dict) -> HopsetInstance:
    n = _int_field(obj, "n")
    beta = _int_field(obj, "beta")
    edges = []
    for raw in _list(obj, "edges", []):
        edges.append((_int_field(raw, "u"), _int_field(raw, "v"), _int_field(raw, "len")))
    demands = []
    for raw in _list(obj, "demands", []):
        demands.append(
            HopsetDemand(
                _int_field(raw, "s"),
                _int_field(raw, "t"),
                _int_field(raw, "dist"),
                None if raw.get("beta") is None else _int_field(raw, "beta"),
            )
        )
    return HopsetInstance(n=n, edges=tuple(edges), demands=tuple(demands), beta=beta)


def report_to_dict(report: SolveReport) -> dict:
    return {
        "mode": report.mode,
        "seed": report.seed,
        "epsilon": format_rational(report.epsilon),
        "theta": None if report.theta is None else format_rational(report.theta),
        "edges": list(report.edges),
        "cost": format_rational(report.cost),
        "verified": report.verified,
        "iterations": [
            {
                "root": it.root,
                "density": format_rational(it.density),
                "resolved": list(it.resolved),
                "tree_edges": list(it.tree_edges),
                "marginal_cost": format_rational(it.marginal_cost),
            }
            for it in report.iterations
        ],
        "witnesses": {
            str(di): list(w.edges) for di, w in sorted(report.witnesses.items())
        },
        "diagnostics": {
            k: report.diagnostics[k] for k in sorted(report.diagnostics)
        },
    }


def _edge_id_list(raw, what, instance: PcsInstance) -> list:
    _require(isinstance(raw, list), f"{what} must be a list")
    ids = [_int(e, f"each entry of {what}") for e in raw]
    for eid in ids:
        _require(0 <= eid < len(instance.edges), f"{what}: edge id {eid} outside the instance")
    return ids


def report_claims(obj, instance: PcsInstance) -> tuple:
    """(theta, edge ids, witnesses) that a report claims for `instance`:
    theta is None or a positive Fraction, and witnesses maps each demand
    index the report names to its Walk.  Raises ParseError on any other
    shape, and on an edge id outside the instance."""
    _require(isinstance(obj, dict), "a report must be a JSON object")
    theta = obj.get("theta")
    if theta is not None:
        theta = parse_rational(theta)
        _require(theta > 0, "field 'theta' must be positive")
    edge_ids = _edge_id_list(obj.get("edges", []), "field 'edges'", instance)
    raw = obj.get("witnesses", {})
    _require(isinstance(raw, dict), "field 'witnesses' must be an object")
    witnesses = {}
    for di in range(len(instance.demands)):
        walk = raw.get(str(di))
        if walk is not None:
            witnesses[di] = Walk(tuple(_edge_id_list(walk, f"witness {di}", instance)))
    return theta, edge_ids, witnesses


def junction_to_dict(tree, mode: str) -> dict:
    return {
        "root": tree.root,
        "edges": sorted(tree.edges),
        "cost": format_rational(tree.cost),
        "density": format_rational(tree.density),
        "resolved": {str(di): list(w.edges) for di, w in sorted(tree.resolved.items())},
        "mode": mode,
    }


def dumps(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=1) + "\n"


def load_json(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from None


def write_json(path: str, obj: dict):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(obj))
