"""The benchmark's outside-in tracer (bench/tracer.py) wraps pcspan module
attributes by name; these tests fail when a refactor renames one of them or
stops calling it through the module global the tracer replaces."""

import sys
from pathlib import Path

import pytest

from pcspan.generate import gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.reductions import solve_rcs

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def tracer_module(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracer

    yield tracer
    sys.modules.pop("tracer", None)


def test_install_then_restore_puts_every_original_back(tracer_module):
    points = [(module, attr) for module, attr, _span, _hook in tracer_module._POINTS]
    originals = [(module, attr, getattr(module, attr)) for module, attr in points]
    tr = tracer_module.Tracer()
    tr.install()
    try:
        for module, attr, original in originals:
            assert getattr(module, attr) is not original, (module.__name__, attr)
    finally:
        tr.restore()
    for module, attr, original in originals:
        assert getattr(module, attr) is original, (module.__name__, attr)


def test_traced_solve_reaches_the_product_hooks(tracer_module):
    inst = gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=1)
    untraced = solve_pcs(inst, "integer")
    tr = tracer_module.Tracer()
    tr.install()
    try:
        with tr.solve():
            traced = solve_pcs(inst, "integer")
    finally:
        tr.restore()
    assert traced.cost == untraced.cost
    _seconds, calls = tr.self_times()
    rounds = calls["greedy.round"]
    assert rounds == len(traced.iterations)
    assert rounds > 1
    assert calls["product.build"] == 1  # one product graph per solve
    # per round: the two state searches and the one cost closure every root
    # reads its relation pairs off
    assert calls["product.reach"] == 2 * rounds
    assert calls["layered.closure"] == rounds
    assert tr.counts["layered.closure_pairs"] > 0
    assert tr.counts["product.vertices"] <= tr.counts["product.states"]
    # these read LinearProgram's eq_rows, ub_rows and num_vars
    assert tr.counts["density_lp.lp_rows"] > 0
    assert tr.counts["density_lp.lp_cols"] > 0


# each case has roots that resolve nothing in some round
TRACED_CASES = [
    (gen_pcs(n=5, k=3, m=1, tau=1, regime="integer", seed=3), lambda i: solve_pcs(i, "integer")),
    (
        gen_pcs(n=5, k=3, m=1, tau=1, regime="rational-negative", seed=6001),
        lambda i: solve_pcs(i, "theta"),
    ),
    (gen_rcs(n=5, k=2, must_visit=1, avoid=1, seed=7, max_group_size=3), solve_rcs),
]


@pytest.mark.parametrize("inst, solve", TRACED_CASES, ids=["integer", "theta", "rcs"])
def test_traced_solves_try_every_root_each_round_and_repeat(tracer_module, inst, solve):
    # the benchmark's traced checks (bench/run.py): per solve, one
    # junction.root span per round and vertex, and a second solve of the
    # same instance in the same process records the same spans
    tr = tracer_module.Tracer()
    tr.install()
    try:
        reports = []
        for _ in range(2):
            with tr.solve():
                reports.append(solve(inst))
    finally:
        tr.restore()
    assert len(tr.per_solve) == 2
    for spans, report in zip(tr.per_solve, reports):
        rounds = report.diagnostics["rounds"]
        assert rounds >= 1
        assert spans["greedy.round"] == rounds
        assert spans["junction.root"] == rounds * inst.n
    assert tr.per_solve[0] == tr.per_solve[1]
    assert reports[0].edges == reports[1].edges
    assert reports[0].cost == reports[1].cost
