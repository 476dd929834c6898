"""Canonical JSON of whole commands, byte for byte.

The files under tests/golden/ are the exact output of these commands.  A
change that is meant to keep every output the same must keep these tests
passing unchanged; a change that moves an output on purpose edits the file
and says which field moved and why.
"""

import hashlib
from pathlib import Path

import pytest

from jetfibers.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("d4_verify_m5.json", ["d4", "verify", "--m", "5", "--format", "json"]),
    ("d4_verify_m6.json", ["d4", "verify", "--m", "6", "--format", "json"]),
    ("d4_verify_m7.json", ["d4", "verify", "--m", "7", "--format", "json"]),
    ("d4_verify_m8.json", ["d4", "verify", "--m", "8", "--format", "json"]),
    ("an_verify_n2_m5.json", ["an", "verify", "--n", "2", "--m", "5", "--format", "json"]),
    ("an_verify_n3_m6.json", ["an", "verify", "--n", "3", "--m", "6", "--format", "json"]),
    ("an_verify_n2_m7.json", ["an", "verify", "--n", "2", "--m", "7", "--format", "json"]),
    ("an_verify_n4_m7.json", ["an", "verify", "--n", "4", "--m", "7", "--format", "json"]),
    ("expand_xy_z5_m12.json", ["expand", "x*y-z^5", "--m", "12", "--format", "json"]),
    ("expand_x2_y2z_z3_m10.json", ["expand", "x^2-y^2*z+z^3", "--m", "10", "--format", "json"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_canonical_json_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected


# The benchmark's own jet-expand command, pinned by digest: its 360 kB output
# is too large to keep as a golden file, and a digest catches any byte moved.
EXPAND_XY_Z5_M40 = (
    "6e25467276af3e851f0b16d11a6b42056c865fb92491b9b21ebf2e8712b7497b",
    359610,
)


def test_benchmark_expand_m40_matches_pin(capsys):
    assert main(["expand", "x*y-z^5", "--m", "40", "--format", "json"]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert (hashlib.sha256(out).hexdigest(), len(out)) == EXPAND_XY_Z5_M40
