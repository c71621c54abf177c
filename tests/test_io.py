import json
from fractions import Fraction

import pytest

from pcspan import io as pio
from pcspan.errors import ParseError
from pcspan.generate import gen_hopset, gen_pcs, gen_rcs
from pcspan.greedy import solve_pcs
from pcspan.rational import format_rational, parse_rational
from pcspan.scaling import ScaledInstance, scale_instance


def scaled_to_dict(scaled: ScaledInstance) -> dict:
    out = pio.pcs_to_dict(scaled.as_instance())
    out["delta"] = format_rational(scaled.delta)
    out["theta"] = format_rational(scaled.theta)
    return out


def test_rational_round_trip():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational(7) == Fraction(7)
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(8, 4)) == 2
    with pytest.raises(ParseError):
        parse_rational("3/0")
    with pytest.raises(ParseError):
        parse_rational("zebra")


def test_pcs_round_trip(tri_instance):
    obj = pio.pcs_to_dict(tri_instance)
    back = pio.pcs_from_dict(json.loads(json.dumps(obj)))
    assert back == tri_instance


def test_pcs_rejects_inconsistent_m(tri_instance):
    obj = pio.pcs_to_dict(tri_instance)
    obj["m"] = 5
    with pytest.raises(ParseError):
        pio.pcs_from_dict(obj)


def test_pcs_rejects_fractional_resource_entries(tri_instance):
    obj = pio.pcs_to_dict(tri_instance)
    obj["edges"][0]["res"][1] = "1/2"
    with pytest.raises(ParseError):
        pio.pcs_from_dict(obj)


def test_scaled_serialization_carries_delta_and_theta():
    inst = gen_pcs(n=4, k=1, m=1, tau=1, regime="rational", seed=5)
    scaled = scale_instance(inst, Fraction(1, 2))
    obj = scaled_to_dict(scaled)
    assert parse_rational(obj["delta"]) == scaled.delta
    assert parse_rational(obj["theta"]) == Fraction(1, 2)
    back = pio.pcs_from_dict(obj)  # the scaled graph is itself an instance
    for eid in range(len(inst.edges)):
        assert back.edges[eid].res[0] == scaled.scaled_res(eid)[0]


def test_rcs_round_trip():
    rcs = gen_rcs(n=5, k=2, must_visit=1, avoid=1, seed=8)
    back = pio.rcs_from_dict(json.loads(json.dumps(pio.rcs_to_dict(rcs))))
    assert back == rcs


def test_hopset_round_trip():
    hs = gen_hopset(n=5, k=2, beta=2, style="random", seed=8)
    back = pio.hopset_from_dict(json.loads(json.dumps(pio.hopset_to_dict(hs))))
    assert back == hs


def test_report_dict_shape(tri_instance):
    report = solve_pcs(tri_instance, "integer")
    obj = pio.report_to_dict(report)
    assert obj["cost"] == 2
    assert obj["verified"] is True
    assert obj["witnesses"]["0"] == [0, 1]
    assert obj["iterations"][0]["resolved"] == [0]
    dumped = pio.dumps(obj)
    assert dumped == pio.dumps(json.loads(dumped))  # canonical form


def test_load_json_turns_an_unreadable_file_into_a_parse_error(tmp_path):
    with pytest.raises(ParseError, match="cannot read"):
        pio.load_json(str(tmp_path / "missing.json"))
    with pytest.raises(ParseError, match="cannot read"):
        pio.load_json(str(tmp_path))
