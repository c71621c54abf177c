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
models: ecd5ef2044c6858c99bb6ada3f6c5d985fdbe84405a2d4b6eaabf27866088e3c
model size: 218 LPs, 82583 rows, 120899 columns, 293439 nonzeros
"""


def test_report_digest_prints_the_pinned_values(digest_sets, capsys):
    digest_sets.main()
    assert capsys.readouterr().out == PINNED
