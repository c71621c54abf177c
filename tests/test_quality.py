"""Quality yardstick (`scripts/quality.py`): the seed-1 benchmark instances
solved against the brute-force optimum.  The Σopt values depend on no solver
code; the Σcost values are today's.  A change that alters reports updates
the pins and names the figures at seeds 1 and 2029 in CHANGES.md; Σcost must
not rise."""

import sys
from fractions import Fraction

import pytest

from conftest import SCRIPTS


@pytest.fixture(scope="module")
def quality_script():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(SCRIPTS))
        import quality

        yield quality
    sys.modules.pop("quality", None)


@pytest.mark.parametrize(
    "name,cost,opt,at_opt,count,worst",
    [
        ("pcs-int", 869, 857, 40, 46, Fraction(5, 4)),
        ("rcs", 374, 373, 59, 60, Fraction(9, 8)),
    ],
    ids=["pcs-int", "rcs"],
)
def test_seed_1_cost_against_the_optimum(quality_script, name, cost, opt, at_opt, count, worst):
    assert quality_script.quality(name, 1) == quality_script.Quality(
        cost=cost, opt=opt, at_opt=at_opt, count=count, worst=worst
    )
