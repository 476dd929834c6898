"""Canonical JSON of whole commands, byte for byte.

The files under tests/golden/ are the exact output of these commands.  A
change that is meant to keep every output the same must keep these tests
passing unchanged; a change that moves an output on purpose edits the file
and says which field moved and why.
"""

from pathlib import Path

import pytest

from jetfibers.cli import main

GOLDEN = Path(__file__).parent / "golden"

CASES = [
    ("d4_verify_m5.json", ["d4", "verify", "--m", "5", "--format", "json"]),
    ("d4_verify_m6.json", ["d4", "verify", "--m", "6", "--format", "json"]),
    ("an_verify_n2_m5.json", ["an", "verify", "--n", "2", "--m", "5", "--format", "json"]),
]


@pytest.mark.parametrize("name, argv", CASES, ids=[name for name, _ in CASES])
def test_canonical_json_matches_golden(capsys, name, argv):
    assert main(argv) == 0
    expected = (GOLDEN / name).read_bytes().decode("utf-8")
    assert capsys.readouterr().out == expected
