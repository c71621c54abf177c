"""The benchmark's outside-in tracer (bench/tracer.py) wraps pcspan module
attributes by name; these tests fail when a refactor renames one of them or
stops calling it through the module global the tracer replaces."""

import sys
from pathlib import Path

import pytest

from pcspan.generate import gen_pcs
from pcspan.greedy import solve_pcs

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
    # per root: two root reachabilities, the relation pairs, and (when the
    # root resolves something) the two useful-state searches
    assert calls["product.reach"] >= 3 * calls["junction.root"]
    assert tr.counts["product.reached"] > 0
    assert tr.counts["product.vertices"] <= tr.counts["product.states"]
    # these read LinearProgram's eq_rows, ub_rows and num_vars
    assert tr.counts["density_lp.lp_rows"] > 0
    assert tr.counts["density_lp.lp_cols"] > 0
