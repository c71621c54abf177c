"""Byte-identity gate: `scripts/report_digest.py` prints the pinned digests
of the reports, the junction payloads and the HiGHS models of its fixed
seeded sets.  A change that alters any of them on purpose updates the pins
here and names the new values in CHANGES.md."""

PINNED = """\
5ed683f97e367dfb1fd136822e635648a164625b244be288335d69e19ece6bfb
rcs: 316
pcs-integer: 194
pcs-theta: 124
junction: 4a50177e4a232663a24216d550dcbbc0fc36146d6e0e4b936b2d057b0ef1e9b9
models: 4d4f8f656001d20037ebb6a39e803bca55483b081676e9cacfb8f1ea03e36ec3
model size: 196 LPs, 69182 rows, 101316 columns, 244929 nonzeros
"""


def test_report_digest_prints_the_pinned_values(digest_sets, capsys):
    digest_sets.main()
    assert capsys.readouterr().out == PINNED
